import errno
import json
import os
import random
import socket
import struct
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvblock import dnswire, sinkhole
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
        self.sources: list[tuple] = []  # the address each query came from
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
            self.sources.append(addr)
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

    @pytest.mark.parametrize("ttl", [2**31, 2**32])
    def test_ttl_beyond_rfc_2181_rejected(self, ttl):
        # 2**32 once validated, and respond() then raised struct.error on a
        # blocked A query, which went unanswered and unlogged.
        cfg = SinkholeConfig(active_lists=("L",), blocked_ttl=ttl)
        with pytest.raises(ValueError, match="blocked_ttl"):
            cfg.validate()

    def test_largest_ttl_accepted(self):
        SinkholeConfig(active_lists=("L",), blocked_ttl=2**31 - 1).validate()

    @pytest.mark.parametrize("timeout_ms", [0, -1])
    def test_timeout_below_one_ms_rejected(self, timeout_ms):
        # Such a timeout once validated, and every forwarded query then got
        # SERVFAIL the instant it was submitted.
        cfg = SinkholeConfig(active_lists=("L",), upstream_timeout_ms=timeout_ms)
        with pytest.raises(ValueError, match="upstream_timeout_ms"):
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

    def test_stats_endpoint_replies_without_a_request_line(self, running_sinkhole):
        service, upstream, cfg = running_sinkhole
        dns_ask(service.address, "ads.example.com")
        wait_for_log(cfg.query_log_path, 1)
        with socket.create_connection(("127.0.0.1", service.stats_port), timeout=3) as conn:
            payload = conn.makefile().readline()  # sends nothing; the reply follows the wait
        assert json.loads(payload)["blocked"] == 1

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


def free_udp_port():
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestStartFailure:
    def test_stats_bind_failure_leaves_nothing_running(self, tmp_path):
        upstream = MockUpstream()
        before = set(threading.enumerate())
        taken = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        taken.bind(("127.0.0.1", 0))
        taken.listen(1)
        port = free_udp_port()
        cfg = make_config(
            upstream.address,
            listen_address=f"127.0.0.1:{port}",
            stats_address=f"127.0.0.1:{taken.getsockname()[1]}",
            query_log_path=str(tmp_path / "log.jsonl"),
        )
        try:
            service = Sinkhole(cfg, [BLOCKED])
            with pytest.raises(BindFailure):
                service.start()
            assert set(threading.enumerate()) <= before
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as again:
                again.bind(("127.0.0.1", port))
            service.stop()  # harmless after a failed start
        finally:
            taken.close()
            upstream.close()

    def test_unconnectable_upstream_is_a_bind_failure(self):
        before = set(threading.enumerate())
        cfg = make_config(("255.255.255.255", 53))  # connect() to broadcast is refused
        with pytest.raises(BindFailure, match="cannot connect to"):
            Sinkhole(cfg, [BLOCKED]).start()
        assert set(threading.enumerate()) <= before

    def test_interrupt_after_the_loop_starts_stops_it(self, monkeypatch):
        """A KeyboardInterrupt while start() spawns the stats thread ends the
        loop thread it started and frees the DNS port: serve() returns no
        handle that could stop them."""
        real_spawn = Sinkhole._spawn

        def spawn(service, name, target):
            if service._threads:
                raise KeyboardInterrupt
            real_spawn(service, name, target)

        monkeypatch.setattr(Sinkhole, "_spawn", spawn)
        upstream = MockUpstream()
        port = free_udp_port()
        cfg = make_config(
            upstream.address, listen_address=f"127.0.0.1:{port}", stats_address="127.0.0.1:0"
        )
        try:
            with pytest.raises(KeyboardInterrupt):
                serve(cfg, [BLOCKED])
            assert not [t for t in threading.enumerate() if t.name.startswith("tvblock-")]
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as again:
                again.bind(("127.0.0.1", port))
        finally:
            upstream.close()

    def test_stop_ends_every_thread(self):
        upstream = MockUpstream()
        before = set(threading.enumerate())
        cfg = make_config(upstream.address, stats_address="127.0.0.1:0")
        service = serve(cfg, [BLOCKED])
        assert len(set(threading.enumerate()) - before) == 2  # the DNS loop and stats
        service.stop()
        upstream.close()
        assert set(threading.enumerate()) <= before


def read_log(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class LateUpstream:
    """Answers each query correctly, but only after ``delay`` seconds."""

    def __init__(self, delay):
        self.delay = delay
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.settimeout(2)
        self.replied = threading.Event()
        self.thread = threading.Thread(target=self._answer_one, daemon=True)
        self.thread.start()

    @property
    def address(self):
        return self.sock.getsockname()[:2]

    def _answer_one(self):
        try:
            data, addr = self.sock.recvfrom(4096)
        except OSError:
            return
        time.sleep(self.delay)
        query = dnswire.parse_message(data)
        self.sock.sendto(
            dnswire.build_response(
                query, answers=((dnswire.TYPE_A, 60, dnswire.a_rdata("93.184.216.34")),)
            ),
            addr,
        )
        self.replied.set()

    def close(self):
        self.thread.join(timeout=3)
        self.sock.close()


class TestServeReplyValidation:
    """The live path applies the same reply check as ``forward()``."""

    def test_spoofed_and_mismatched_replies_are_dropped(self, tmp_path):
        upstream = SpoofingUpstream()
        cfg = make_config(upstream.address, query_log_path=str(tmp_path / "log.jsonl"))
        service = serve(cfg, [BLOCKED])
        try:
            msg, _ = dns_ask(service.address, "real.example.org", txid=0x4242)
            assert msg.header.txid == 0x4242
            assert msg.question.qname == "real.example.org"
            assert [a.address for a in msg.answers] == ["93.184.216.34"]
        finally:
            service.stop()
            upstream.close()
        entries = read_log(cfg.query_log_path)
        assert [e["verdict"] for e in entries] == ["forwarded"]
        assert service.stats()["pending"] == 0

    def test_reply_after_the_deadline_is_not_answered_twice(self, tmp_path):
        upstream = LateUpstream(delay=0.4)
        cfg = make_config(
            upstream.address,
            query_log_path=str(tmp_path / "log.jsonl"),
            upstream_timeout_ms=150,
        )
        service = serve(cfg, [BLOCKED])
        try:
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as client:
                client.settimeout(2)
                client.sendto(
                    dnswire.build_query("late.example.org", dnswire.TYPE_A, 9), service.address
                )
                first = dnswire.parse_message(client.recvfrom(4096)[0])
                assert first.header.rcode == dnswire.RCODE_SERVFAIL
                assert upstream.replied.wait(2)
                client.settimeout(0.3)
                with pytest.raises(socket.timeout):
                    client.recvfrom(4096)
        finally:
            service.stop()
            upstream.close()
        entries = read_log(cfg.query_log_path)
        assert [e["verdict"] for e in entries] == ["upstream_error"]
        assert service.stats()["total"] == 1


class TestFlood:
    def test_full_pending_table_sheds_with_servfail(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sinkhole, "MAX_PENDING", 8)
        upstream = MockUpstream(respond=False)
        cfg = make_config(
            upstream.address,
            query_log_path=str(tmp_path / "log.jsonl"),
            upstream_timeout_ms=1000,
        )
        service = serve(cfg, [BLOCKED])
        depths, sampling = [], threading.Event()
        sampling.set()

        def sample():
            while sampling.is_set():
                depths.append(service.stats()["pending"])
                time.sleep(0.001)

        sampler = threading.Thread(target=sample)
        sampler.start()
        try:
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as client:
                client.settimeout(3)
                sent_at = time.monotonic()
                for i in range(20):
                    query = dnswire.build_query(f"q{i}.example.org", dnswire.TYPE_A, 100 + i)
                    client.sendto(query, service.address)
                early = [dnswire.parse_message(client.recvfrom(4096)[0]) for _ in range(12)]
                assert time.monotonic() - sent_at < 0.8  # before any deadline
                assert [m.header.txid for m in early] == list(range(108, 120))
                assert {m.header.rcode for m in early} == {dnswire.RCODE_SERVFAIL}
                stats = service.stats()
                assert stats["shed"] == 12 and stats["pending"] == 8
                late = [dnswire.parse_message(client.recvfrom(4096)[0]) for _ in range(8)]
                assert sorted(m.header.txid for m in late) == list(range(100, 108))
                assert {m.header.rcode for m in late} == {dnswire.RCODE_SERVFAIL}
        finally:
            sampling.clear()
            sampler.join(timeout=2)
            service.stop()
            upstream.close()
        assert not sampler.is_alive()
        assert max(depths) <= 8
        entries = read_log(cfg.query_log_path)
        assert len(entries) == 20
        assert {e["verdict"] for e in entries} == {"upstream_error"}
        assert sorted(e["qname"] for e in entries) == sorted(f"q{i}.example.org" for i in range(20))
        stats = service.stats()
        assert stats["total"] == stats["upstream_errors"] == 20
        assert stats["shed"] == 12 and stats["pending"] == 0


def malformed_datagrams(seed, count):
    """Random, truncated and bit-flipped variants of valid queries."""
    rng = random.Random(seed)
    valid = [
        dnswire.build_query(name, qtype, rng.getrandbits(16))
        for name in ("ads.example.com", "fine.example.org", "a.b.c.example.net")
        for qtype in (dnswire.TYPE_A, dnswire.TYPE_AAAA, dnswire.TYPE_TXT)
    ]
    out = [b"", b"\x00", bytes(11), bytes(12)]
    while len(out) < count:
        base = rng.choice(valid)
        kind = rng.randrange(3)
        if kind == 0:
            out.append(bytes(rng.getrandbits(8) for _ in range(rng.randrange(1, 64))))
        elif kind == 1:
            out.append(base[: rng.randrange(1, len(base))])
        else:
            data = bytearray(base)
            for _ in range(rng.randrange(1, 4)):
                data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
            out.append(bytes(data))
    return out


class EchoUpstream:
    """Answers every datagram with itself, QR bit set: it parses nothing, so
    no packet the sinkhole forwards can stop it."""

    def __init__(self):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.settimeout(0.2)
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
            if len(data) > 2:
                self.sock.sendto(data[:2] + bytes([data[2] | 0x80]) + data[3:], addr)

    def close(self):
        self._running = False
        self.thread.join(timeout=1)
        self.sock.close()


class TestMalformedPackets:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_each_datagram_gets_one_answer_and_one_log_line(self, tmp_path, seed):
        upstream = EchoUpstream()
        cfg = make_config(
            upstream.address,
            query_log_path=str(tmp_path / "log.jsonl"),
            upstream_timeout_ms=200,
        )
        service = serve(cfg, [BLOCKED])
        datagrams = malformed_datagrams(seed, 80)
        try:
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as client:
                for data in datagrams:
                    client.sendto(data, service.address)
                    time.sleep(0.001)
                client.settimeout(0.6)  # longer than the upstream timeout
                answers = 0
                while True:
                    try:
                        client.recvfrom(4096)
                    except socket.timeout:
                        break
                    answers += 1
            assert answers == len(datagrams)
            assert len(read_log(cfg.query_log_path)) == len(datagrams)
            assert service.stats()["total"] == len(datagrams)
            msg, _ = dns_ask(service.address, "after.example.org", txid=0x5151)
            assert msg.header.txid == 0x5151 and msg.header.qr
            assert msg.header.rcode == dnswire.RCODE_NOERROR
            assert msg.question.qname == "after.example.org"
        finally:
            service.stop()
            upstream.close()


def port_is_free(port):
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as probe:
        try:
            probe.bind(("127.0.0.1", port))
        except OSError:
            return False
        return True


class TestUpstreamSourcePorts:
    """A forged reply must guess the source port as well as the txid."""

    def test_forwarded_queries_leave_from_several_ports(self):
        upstream = MockUpstream()
        service = serve(make_config(upstream.address), [BLOCKED])
        try:
            for i in range(32):
                msg, _ = dns_ask(service.address, f"n{i}.example.org", txid=i)
                assert [a.address for a in msg.answers] == ["93.184.216.34"]
        finally:
            service.stop()
            upstream.close()
        # 8 sockets picked at random: one port for all 32 has odds 8 ** -31
        assert len({port for _, port in upstream.sources}) > 1

    def test_sockets_are_replaced_and_closed_after_the_deadline(self, monkeypatch):
        monkeypatch.setattr(sinkhole, "_UPSTREAMS", 1)
        monkeypatch.setattr(sinkhole, "_REOPEN_EVERY", 1)
        upstream = MockUpstream()
        service = serve(make_config(upstream.address, upstream_timeout_ms=1000), [BLOCKED])
        try:
            started = time.monotonic()
            for i in range(4):
                # the reply reaches a socket already replaced: still accepted
                msg, _ = dns_ask(service.address, f"r{i}.example.org", txid=i)
                assert [a.address for a in msg.answers] == ["93.184.216.34"]
            ports = [port for _, port in upstream.sources]
            assert len(set(ports)) == 4
            if time.monotonic() - started < 0.9:
                assert not port_is_free(ports[0])  # kept open until its deadline
            until = time.monotonic() + 3
            while not all(map(port_is_free, ports)) and time.monotonic() < until:
                time.sleep(0.05)
            assert all(map(port_is_free, ports))
            assert service.stats()["forwarded"] == 4
        finally:
            service.stop()
            upstream.close()

    def test_queries_forward_again_once_a_refusing_upstream_is_back(self, monkeypatch):
        monkeypatch.setattr(sinkhole, "_UPSTREAMS", 1)
        port = free_udp_port()  # nothing listens: the upstream refuses
        cfg = make_config(("127.0.0.1", port), upstream_timeout_ms=200)
        service = serve(cfg, [BLOCKED])
        try:
            for txid in (1, 2):
                msg, _ = dns_ask(service.address, "down.example.org", txid=txid)
                assert msg.header.rcode == dnswire.RCODE_SERVFAIL
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as resolver:
                resolver.bind(("127.0.0.1", port))
                resolver.settimeout(2)
                with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as client:
                    client.settimeout(2)
                    client.sendto(
                        dnswire.build_query("up.example.org", dnswire.TYPE_A, 3), service.address
                    )
                    data, addr = resolver.recvfrom(4096)
                    reply = dnswire.build_response(
                        dnswire.parse_message(data),
                        answers=((dnswire.TYPE_A, 60, dnswire.a_rdata("93.184.216.34")),),
                    )
                    resolver.sendto(reply, addr)
                    msg = dnswire.parse_message(client.recvfrom(4096)[0])
            assert msg.header.txid == 3 and msg.header.rcode == dnswire.RCODE_NOERROR
            assert service.stats()["upstream_errors"] == 2
        finally:
            service.stop()


class FailingSocket:
    """Raises each given error from send() or recv() in turn, then
    BlockingIOError (recv) or succeeds (send)."""

    def __init__(self, *errors):
        self.errors = list(errors)
        self.sent: list[bytes] = []

    def _next(self):
        if self.errors:
            raise self.errors.pop(0)

    def send(self, data):
        self._next()
        self.sent.append(data)

    def recv(self, size):
        self._next()
        raise BlockingIOError


class TestUpstreamSocketErrors:
    def test_send_is_tried_again_after_a_reported_icmp_error(self):
        sock = FailingSocket(ConnectionRefusedError())
        sinkhole._send(sock, b"query")
        assert sock.sent == [b"query"]

    def test_a_full_send_buffer_is_not_retried(self):
        sock = FailingSocket(BlockingIOError())
        sinkhole._send(sock, b"query")
        assert sock.sent == [] and sock.errors == []

    @pytest.mark.parametrize("errno_", ["EHOSTUNREACH", "ENETUNREACH", "ECONNREFUSED"])
    def test_any_icmp_error_on_read_is_skipped(self, errno_):
        code = getattr(errno, errno_)
        service = Sinkhole(make_config(("127.0.0.1", 5399)), [BLOCKED])
        sock = FailingSocket(OSError(code, os.strerror(code)))
        service._on_reply(sock)  # returns at BlockingIOError, raises nothing
        assert sock.errors == []


def raw_query(name_wire, qtype=dnswire.TYPE_A, txid=0x3131, flags=0x0100):
    """A one-question query whose name is given as wire bytes."""
    return (struct.pack(">HHHHHH", txid, flags, 1, 0, 0, 0) + name_wire
            + struct.pack(">HH", qtype, dnswire.CLASS_IN))


class TestEchoedQuestion:
    """A blocked answer echoes the question section as sent, so a label may
    hold any byte, a "." or a non-ASCII one included."""

    @pytest.mark.parametrize("label", [b"x\xff", b"a.b"], ids=["non-ascii", "dot"])
    def test_odd_label_under_a_blocked_name_is_answered(self, tmp_path, label):
        upstream = MockUpstream()
        cfg = make_config(
            upstream.address, match_mode="suffix", query_log_path=str(tmp_path / "log.jsonl")
        )
        service = serve(cfg, [BLOCKED])
        query = raw_query(bytes([len(label)]) + label + dnswire.encode_name("ads.example.com"))
        try:
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as client:
                client.settimeout(2)
                client.sendto(query, service.address)
                data, _ = client.recvfrom(4096)
            assert data[12:len(query)] == query[12:]
            msg = dnswire.parse_message(data)
            assert msg.header.txid == 0x3131 and msg.header.rcode == dnswire.RCODE_NOERROR
            assert [a.address for a in msg.answers] == ["0.0.0.0"]
            assert service.stats()["total"] == 1
        finally:
            service.stop()
            upstream.close()
        entries = read_log(cfg.query_log_path)
        assert [(e["verdict"], e["blocked_by"]) for e in entries] == [("blocked", ["L"])]
        assert upstream.seen == []

    def test_name_over_255_octets_gets_formerr(self, tmp_path):
        # Echoed, such a question would make a blocked answer past 512 bytes.
        upstream = MockUpstream()
        cfg = make_config(
            upstream.address, match_mode="suffix", query_log_path=str(tmp_path / "log.jsonl")
        )
        service = serve(cfg, [BLOCKED])
        name_wire = (b"\x3f" + b"x" * 63) * 5 + dnswire.encode_name("ads.example.com")
        assert len(name_wire) > 300
        query = raw_query(name_wire)
        try:
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as client:
                client.settimeout(2)
                client.sendto(query, service.address)
                data, _ = client.recvfrom(4096)
            header = dnswire.parse_header(data)
            assert len(data) == 12 and header.txid == 0x3131
            assert header.rcode == dnswire.RCODE_FORMERR
            assert service.stats()["total"] == 1
        finally:
            service.stop()
            upstream.close()
        entries = read_log(cfg.query_log_path)
        assert [(e["verdict"], e["qname"]) for e in entries] == [("upstream_error", "")]
        assert upstream.seen == []


class TestSinkholeMatchMode:
    def test_unknown_match_mode_rejected(self):
        cfg = SinkholeConfig(active_lists=("L",), match_mode="sufix")
        with pytest.raises(ValueError, match="match_mode"):
            cfg.validate()
        with pytest.raises(ValueError, match="match_mode"):
            Sinkhole(make_config(("127.0.0.1", 5399), match_mode="sufix"), [BLOCKED])


# Any label bytes, with a "." byte, a non-ASCII byte and upper case among them.
ODD_LABEL = st.one_of(st.binary(min_size=1, max_size=12), st.sampled_from([b"a.b", b"\xff", b"X"]))
PREFIX = st.lists(ODD_LABEL, max_size=3).map(lambda ls: b"".join(bytes([len(l)]) + l for l in ls))
QTYPE = st.one_of(
    st.sampled_from([dnswire.TYPE_A, dnswire.TYPE_AAAA, dnswire.TYPE_MX, dnswire.TYPE_TXT]),
    st.integers(0, 0xFFFF),
)


@st.composite
def datagrams(draw):
    """Random bytes, or a valid query truncated or bit-flipped."""
    kind = draw(st.sampled_from(["random", "truncated", "flipped"]))
    if kind == "random":
        return draw(st.binary(max_size=80))
    name = draw(st.sampled_from(["ads.example.com", "fine.example.org", "x.trk.example.net"]))
    base = raw_query(draw(PREFIX) + dnswire.encode_name(name), draw(QTYPE),
                     draw(st.integers(0, 0xFFFF)), draw(st.integers(0, 0xFFFF)))
    if kind == "truncated":
        return base[:draw(st.integers(0, len(base) - 1))]
    data = bytearray(base)
    for bit in draw(st.lists(st.integers(0, len(base) * 8 - 1), min_size=1, max_size=4)):
        data[bit // 8] ^= 1 << (bit % 8)
    return bytes(data)


class TestRespondProperties:
    """respond() is the whole per-datagram decision; these hold for any input."""

    @settings(deadline=None, max_examples=300)
    @given(datagrams(), st.sampled_from(["exact", "suffix"]),
           st.sampled_from(["null", "nxdomain"]))
    def test_every_datagram_gets_exactly_one_answer(self, data, match_mode, blocking_mode):
        cfg = make_config(("127.0.0.1", 5399), match_mode=match_mode, blocking_mode=blocking_mode)
        outcome = sinkhole.respond(data, [BLOCKED], cfg)
        assert (outcome.response is None) == (outcome.verdict == "forwarded")
        if outcome.response is None:
            assert data[12:12 + len(outcome.question)].lower() == outcome.question != b""
            return
        response = outcome.response
        assert response[:2] == data[:2].ljust(2, b"\0") and response[2] & 0x80  # txid, QR
        if outcome.verdict == "blocked":
            assert outcome.blocked_by == {"L"}
            msg = dnswire.parse_message(response)
            assert msg.question == dnswire.parse_message(data).question
            assert msg.header.rcode in (dnswire.RCODE_NOERROR, dnswire.RCODE_NXDOMAIN)
        else:
            assert outcome.verdict == "upstream_error"
            assert dnswire.parse_header(response).rcode == dnswire.RCODE_FORMERR

    @settings(deadline=None)
    @given(PREFIX, st.sampled_from(["ads.example.com", "ADS.Example.COM", "trk.example.net"]),
           QTYPE, st.sampled_from(["null", "nxdomain"]), st.integers(0, 2**31 - 1),
           st.integers(0, 0xFFFF), st.booleans())
    def test_blocked_answer_follows_mode_and_qtype(
        self, prefix, name, qtype, blocking_mode, ttl, txid, rd
    ):
        query = raw_query(prefix + dnswire.encode_name(name), qtype, txid, 0x0100 if rd else 0)
        cfg = make_config(("127.0.0.1", 5399), match_mode="suffix",
                          blocking_mode=blocking_mode, blocked_ttl=ttl)
        outcome = sinkhole.respond(query, [BLOCKED], cfg)
        assert outcome.verdict == "blocked" and outcome.blocked_by == {"L"}
        assert outcome.qtype == dnswire.type_name(qtype)
        assert outcome.qname.endswith(name.lower())
        assert outcome.response[12:len(query)] == query[12:]
        msg = dnswire.parse_message(outcome.response)
        assert msg.header.txid == txid and msg.header.qr and msg.header.rd == rd
        assert msg.question == dnswire.parse_message(query).question
        records = [(a.rtype, a.ttl, a.address) for a in msg.answers]
        if blocking_mode == "nxdomain":
            assert msg.header.rcode == dnswire.RCODE_NXDOMAIN and records == []
            return
        assert msg.header.rcode == dnswire.RCODE_NOERROR
        if qtype == dnswire.TYPE_A:
            assert records == [(dnswire.TYPE_A, ttl, "0.0.0.0")]
        elif qtype == dnswire.TYPE_AAAA:
            assert records == [(dnswire.TYPE_AAAA, ttl, "::")]
        else:
            assert records == []
