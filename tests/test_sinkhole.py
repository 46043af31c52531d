import json
import os
import socket
import struct
import sys
import threading
import time

import pytest

from tvblock import dnswire
from tvblock.blocklists import BlockList
from tvblock.sinkhole import (
    BindFailure,
    Sinkhole,
    SinkholeConfig,
    answer_blocked,
    decide,
    forward,
    serve,
)


class MockUpstream:
    """UDP resolver stub that records every qname it is asked about."""

    def __init__(self, respond=True, garbage=False):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.settimeout(0.2)
        self.respond = respond
        self.garbage = garbage
        self.seen: list[str] = []
        self._running = True
        self.thread = threading.Thread(target=self._loop, daemon=True)
        self.thread.start()

    @property
    def address(self):
        return self.sock.getsockname()[:2]

    def _loop(self):
        while self._running:
            try:
                data, addr = self.sock.recvfrom(4096)
            except socket.timeout:
                continue
            except OSError:
                break
            try:
                query = dnswire.parse_message(data)
                self.seen.append(query.question.qname.lower())
            except dnswire.WireError:
                continue
            if not self.respond:
                continue
            if self.garbage:
                self.sock.sendto(data[:2] + b"\x01", addr)
                continue
            reply = dnswire.build_response(
                query, answers=((dnswire.TYPE_A, 60, dnswire.a_rdata("93.184.216.34")),)
            )
            self.sock.sendto(reply, addr)

    def close(self):
        self._running = False
        self.thread.join(timeout=1)
        self.sock.close()


def make_config(upstream, **kw):
    defaults = dict(
        listen_address="127.0.0.1:0",
        upstream_resolver=f"{upstream[0]}:{upstream[1]}",
        active_lists=("L",),
        blocked_ttl=2,
        upstream_timeout_ms=400,
    )
    defaults.update(kw)
    return SinkholeConfig(**defaults)


BLOCKED = BlockList("L", frozenset({"ads.example.com", "trk.example.net"}))


def dns_ask(addr, qname, qtype=dnswire.TYPE_A, txid=0x1111, timeout=2.0):
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        sock.settimeout(timeout)
        sock.sendto(dnswire.build_query(qname, qtype, txid), addr)
        data, _ = sock.recvfrom(4096)
    return dnswire.parse_message(data), data


class TestConfig:
    def test_upstream_must_differ_from_listen(self):
        cfg = SinkholeConfig(
            listen_address="127.0.0.1:5311",
            upstream_resolver="127.0.0.1:5311",
            active_lists=("L",),
        )
        with pytest.raises(ValueError):
            cfg.validate()

    def test_requires_active_list(self):
        cfg = SinkholeConfig(listen_address="127.0.0.1:0", upstream_resolver="1.1.1.1:53")
        with pytest.raises(ValueError):
            cfg.validate()

    def test_negative_ttl_rejected(self):
        cfg = SinkholeConfig(active_lists=("L",), blocked_ttl=-1)
        with pytest.raises(ValueError):
            cfg.validate()

    def test_bad_blocking_mode_rejected(self):
        cfg = SinkholeConfig(active_lists=("L",), blocking_mode="refuse")
        with pytest.raises(ValueError):
            cfg.validate()


class TestDecide:
    def test_listed_name_blocks(self):
        cfg = make_config(("127.0.0.1", 5399))
        assert decide("ads.example.com", dnswire.TYPE_A, [BLOCKED], cfg) == "block"

    def test_unlisted_name_forwards(self):
        cfg = make_config(("127.0.0.1", 5399))
        assert decide("example.org", dnswire.TYPE_A, [BLOCKED], cfg) == "forward"

    def test_suffix_mode(self):
        cfg = make_config(("127.0.0.1", 5399), match_mode="suffix")
        assert decide("x.ads.example.com", dnswire.TYPE_A, [BLOCKED], cfg) == "block"

    def test_qtype_does_not_matter(self):
        cfg = make_config(("127.0.0.1", 5399))
        for qtype in (dnswire.TYPE_A, dnswire.TYPE_AAAA, dnswire.TYPE_TXT):
            assert decide("ads.example.com", qtype, [BLOCKED], cfg) == "block"


class TestAnswerBlocked:
    def _query(self, qtype):
        return dnswire.parse_message(
            dnswire.build_query("ads.example.com", qtype, txid=5)
        )

    def test_a_query_null_mode(self):
        cfg = make_config(("127.0.0.1", 5399))
        msg = dnswire.parse_message(answer_blocked(self._query(dnswire.TYPE_A), cfg))
        assert msg.answers[0].address == "0.0.0.0"
        assert msg.answers[0].ttl == 2
        assert msg.header.qr

    def test_aaaa_query_null_mode(self):
        cfg = make_config(("127.0.0.1", 5399))
        msg = dnswire.parse_message(answer_blocked(self._query(dnswire.TYPE_AAAA), cfg))
        assert msg.answers[0].address == "::"

    def test_other_qtype_empty_noerror(self):
        cfg = make_config(("127.0.0.1", 5399))
        msg = dnswire.parse_message(answer_blocked(self._query(dnswire.TYPE_TXT), cfg))
        assert msg.header.rcode == dnswire.RCODE_NOERROR
        assert msg.answers == ()

    def test_nxdomain_mode(self):
        cfg = make_config(("127.0.0.1", 5399), blocking_mode="nxdomain")
        msg = dnswire.parse_message(answer_blocked(self._query(dnswire.TYPE_A), cfg))
        assert msg.header.rcode == dnswire.RCODE_NXDOMAIN
        assert msg.answers == ()


class TestForward:
    def test_relays_upstream_answer(self):
        upstream = MockUpstream()
        try:
            raw = dnswire.build_query("good.example.org", dnswire.TYPE_A, txid=0xABCD)
            reply = forward(raw, upstream.address, 500)
            assert reply is not None
            msg = dnswire.parse_message(reply)
            assert msg.header.txid == 0xABCD  # client txid restored
            assert msg.answers[0].address == "93.184.216.34"
        finally:
            upstream.close()

    def test_timeout_returns_none(self):
        upstream = MockUpstream(respond=False)
        try:
            raw = dnswire.build_query("slow.example.org", dnswire.TYPE_A, txid=1)
            start = time.monotonic()
            assert forward(raw, upstream.address, 300) is None
            assert time.monotonic() - start < 0.35 + 0.05
        finally:
            upstream.close()

    def test_garbage_reply_returns_none(self):
        upstream = MockUpstream(garbage=True)
        try:
            raw = dnswire.build_query("weird.example.org", dnswire.TYPE_A, txid=2)
            assert forward(raw, upstream.address, 400) is None
        finally:
            upstream.close()


@pytest.fixture
def running_sinkhole(tmp_path):
    upstream = MockUpstream()
    cfg = make_config(
        upstream.address,
        query_log_path=str(tmp_path / "query_log.jsonl"),
        stats_address="127.0.0.1:0",
    )
    service = serve(cfg, [BLOCKED])
    yield service, upstream, cfg
    service.stop()
    upstream.close()


def wait_for_log(path, count, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with open(path) as fh:
                lines = [l for l in fh if l.strip()]
            if len(lines) >= count:
                return lines
        except FileNotFoundError:
            pass
        time.sleep(0.01)
    raise AssertionError(f"query log never reached {count} entries")


class TestServe:
    def test_blocked_name_answered_without_upstream_packet(self, running_sinkhole):
        service, upstream, cfg = running_sinkhole
        msg, _ = dns_ask(service.address, "ads.example.com")
        assert msg.answers[0].address == "0.0.0.0"
        assert msg.answers[0].ttl == 2
        assert "ads.example.com" not in upstream.seen

    def test_forwarded_name_relayed_verbatim_except_txid(self, running_sinkhole):
        service, upstream, cfg = running_sinkhole
        msg, raw = dns_ask(service.address, "fine.example.org", txid=0x2222)
        assert msg.header.txid == 0x2222
        assert msg.answers[0].address == "93.184.216.34"
        assert "fine.example.org" in upstream.seen

    def test_concurrent_clients_both_answered(self, running_sinkhole):
        service, upstream, cfg = running_sinkhole
        results = {}

        def worker(name, qname):
            results[name] = dns_ask(service.address, qname)[0]

        threads = [
            threading.Thread(target=worker, args=("a", "ads.example.com")),
            threading.Thread(target=worker, args=("b", "other.example.org")),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=3)
        assert results["a"].answers[0].address == "0.0.0.0"
        assert results["b"].answers[0].address == "93.184.216.34"
        lines = wait_for_log(cfg.query_log_path, 2)
        assert len(lines) == 2

    def test_query_log_entries(self, running_sinkhole):
        service, upstream, cfg = running_sinkhole
        dns_ask(service.address, "ads.example.com")
        dns_ask(service.address, "clean.example.org")
        entries = [json.loads(l) for l in wait_for_log(cfg.query_log_path, 2)]
        by_name = {e["qname"]: e for e in entries}
        assert by_name["ads.example.com"]["verdict"] == "blocked"
        assert by_name["ads.example.com"]["blocked_by"] == ["L"]
        assert by_name["clean.example.org"]["verdict"] == "forwarded"
        assert all(e["latency_us"] >= 0 for e in entries)
        assert all(e["qtype"] == "A" for e in entries)

    def test_multi_question_gets_formerr(self, running_sinkhole):
        service, upstream, cfg = running_sinkhole
        q1 = dnswire.encode_name("a.com") + struct.pack(">HH", 1, 1)
        header = struct.pack(">HHHHHH", 0x77, 0x0100, 2, 0, 0, 0)
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            sock.settimeout(2)
            sock.sendto(header + q1 + q1, service.address)
            data, _ = sock.recvfrom(4096)
        msg = dnswire.parse_message(data)
        assert msg.header.rcode == dnswire.RCODE_FORMERR
        assert msg.header.txid == 0x77

    def test_upstream_timeout_yields_servfail(self, tmp_path):
        upstream = MockUpstream(respond=False)
        cfg = make_config(
            upstream.address,
            query_log_path=str(tmp_path / "log.jsonl"),
            upstream_timeout_ms=200,
        )
        service = serve(cfg, [BLOCKED])
        try:
            msg, _ = dns_ask(service.address, "ghost.example.org")
            assert msg.header.rcode == dnswire.RCODE_SERVFAIL
            entries = [json.loads(l) for l in wait_for_log(cfg.query_log_path, 1)]
            assert entries[0]["verdict"] == "upstream_error"
        finally:
            service.stop()
            upstream.close()

    def test_hot_swap_applies_to_new_queries(self, running_sinkhole):
        service, upstream, cfg = running_sinkhole
        msg, _ = dns_ask(service.address, "ads.example.com")
        assert msg.answers[0].address == "0.0.0.0"
        service.set_lists([BlockList("L", frozenset({"elsewhere.example.com"}))])
        msg, _ = dns_ask(service.address, "ads.example.com")
        assert msg.answers and msg.answers[0].address == "93.184.216.34"

    def test_stats_endpoint_line_protocol(self, running_sinkhole):
        service, upstream, cfg = running_sinkhole
        dns_ask(service.address, "ads.example.com")
        dns_ask(service.address, "clean.example.org")
        wait_for_log(cfg.query_log_path, 2)
        with socket.create_connection(("127.0.0.1", service.stats_port), timeout=2) as conn:
            conn.sendall(b"stats\n")
            payload = conn.makefile().readline()
        stats = json.loads(payload)
        assert stats["total"] == 2
        assert stats["blocked"] == 1
        assert stats["forwarded"] == 1

    def test_bind_failure_raises(self, running_sinkhole):
        service, upstream, cfg = running_sinkhole
        host, port = service.address
        clash = make_config(upstream.address, listen_address=f"{host}:{port}")
        other = Sinkhole(clash, [BLOCKED])
        with pytest.raises(BindFailure):
            other.start()

    def test_unknown_active_list_rejected(self, running_sinkhole):
        service, upstream, cfg = running_sinkhole
        bad = make_config(upstream.address, active_lists=("Nope",))
        with pytest.raises(ValueError):
            Sinkhole(bad, [BLOCKED])


class SpoofingUpstream:
    """Answers one query with, in order: a matching-txid reply from another
    socket, a reply from the upstream with the wrong question, and (unless
    ``send_real`` is false) the real reply."""

    def __init__(self, send_real=True):
        self.send_real = send_real
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.settimeout(2)
        self.spoofer = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.spoofer.bind(("127.0.0.1", 0))
        self.thread = threading.Thread(target=self._answer_one, daemon=True)
        self.thread.start()

    @property
    def address(self):
        return self.sock.getsockname()[:2]

    @staticmethod
    def _reply(txid, qname, address):
        query = dnswire.parse_message(dnswire.build_query(qname, dnswire.TYPE_A, txid))
        return dnswire.build_response(
            query, answers=((dnswire.TYPE_A, 60, dnswire.a_rdata(address)),)
        )

    def _answer_one(self):
        try:
            data, addr = self.sock.recvfrom(4096)
        except OSError:
            return
        query = dnswire.parse_message(data)
        txid, qname = query.header.txid, query.question.qname
        self.spoofer.sendto(self._reply(txid, qname, "6.6.6.6"), addr)
        self.sock.sendto(self._reply(txid, "other.example.net", "7.7.7.7"), addr)
        if self.send_real:
            self.sock.sendto(self._reply(txid, qname, "93.184.216.34"), addr)

    def close(self):
        self.thread.join(timeout=3)
        self.sock.close()
        self.spoofer.close()


class TestForwardValidation:
    def test_only_the_upstreams_reply_to_the_question_is_accepted(self):
        upstream = SpoofingUpstream()
        try:
            raw = dnswire.build_query("real.example.org", dnswire.TYPE_A, txid=0x4242)
            reply = forward(raw, upstream.address, 1000)
            assert reply is not None
            msg = dnswire.parse_message(reply)
            assert msg.header.txid == 0x4242
            assert msg.question.qname == "real.example.org"
            assert [a.address for a in msg.answers] == ["93.184.216.34"]
        finally:
            upstream.close()

    def test_decoys_alone_end_in_timeout(self):
        upstream = SpoofingUpstream(send_real=False)
        try:
            raw = dnswire.build_query("real.example.org", dnswire.TYPE_A, txid=7)
            start = time.monotonic()
            assert forward(raw, upstream.address, 300) is None
            assert 0.25 <= time.monotonic() - start < 0.35 + 0.05
        finally:
            upstream.close()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
class TestQueryLogFailure:
    def test_answers_continue_when_log_writes_fail(self):
        upstream = MockUpstream()
        cfg = make_config(upstream.address, query_log_path="/dev/full")
        service = serve(cfg, [BLOCKED])
        try:
            msg, _ = dns_ask(service.address, "ads.example.com")
            assert msg.answers[0].address == "0.0.0.0"
            msg, _ = dns_ask(service.address, "clean.example.org", txid=0x2222)
            assert msg.answers[0].address == "93.184.216.34"
            stats = service.stats()
            assert stats["total"] == 2
            assert stats["blocked"] == 1 and stats["forwarded"] == 1
            assert stats["log_errors"] >= 1
        finally:
            service.stop()
            upstream.close()

    def test_failures_counted_once_each_under_concurrent_queries(self):
        upstream = MockUpstream()
        cfg = make_config(upstream.address, query_log_path="/dev/full")
        service = serve(cfg, [BLOCKED])
        answered = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def client(worker):
                for i in range(25):
                    name = "ads.example.com" if i % 2 else "clean.example.org"
                    msg, _ = dns_ask(service.address, name, txid=worker * 100 + i)
                    answered.append(bool(msg.answers))

            threads = [threading.Thread(target=client, args=(w,)) for w in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=20)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
            service.stop()
            upstream.close()
        assert len(answered) == 200 and all(answered)
        stats = service.stats()
        assert stats["total"] == 200
        assert stats["log_errors"] == 200
