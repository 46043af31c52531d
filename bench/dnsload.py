"""Open-loop DNS load generator and mock upstream for the sinkhole.

One single-threaded ``selectors`` loop drives both sockets: the client
socket sends queries at their scheduled times (Poisson arrivals at a fixed
rate, so a slow server does not slow the offered load) and the mock
upstream answers each forwarded query after a fixed delay taken from a heap
of due replies, never by sleeping. Latency runs from the scheduled send
time, so a stall also counts against the queries queued behind it; how late
the generator itself sent is reported separately.

The mock records how long it held each forwarded query, from receiving it
to sending its reply. A query's *own* latency is its latency minus that
hold: the time the sinkhole itself added (queueing, parsing, matching,
forwarding, logging, sockets), whatever the upstream's delay.

The DNS codec here is independent of ``tvblock.dnswire`` so that answers
are checked against an outside encoding.
"""

from __future__ import annotations

import gc
import heapq
import math
import random
import selectors
import socket
import struct
import time
from collections import deque
from dataclasses import dataclass, field

from gen import Zipf

TYPE_A, TYPE_AAAA = 1, 28
OTHER_TYPES = (15, 16, 65)  # MX, TXT, HTTPS
BLOCKED_TTL = 2
UPSTREAM_TTL = 60
UPSTREAM_A = bytes([93, 184, 216, 34])
UPSTREAM_AAAA = bytes.fromhex("20010db8000000000000000000000034")
FLAG_RD = 0x0100

clock = time.perf_counter


def encode_name(name: str) -> bytes:
    out = bytearray()
    for label in name.split("."):
        raw = label.encode("ascii")
        out.append(len(raw))
        out += raw
    return bytes(out) + b"\x00"


def build_query(txid: int, qname: str, qtype: int) -> bytes:
    return struct.pack(">HHHHHH", txid, FLAG_RD, 1, 0, 0, 0) + encode_name(qname) + struct.pack(">HH", qtype, 1)


def build_malformed(txid: int, variant: int) -> bytes:
    """Queries the server must answer with FORMERR, echoing the txid."""
    if variant == 0:  # question name runs past the end of the packet
        return struct.pack(">HHHHHH", txid, FLAG_RD, 1, 0, 0, 0) + b"\x3fshort"
    if variant == 1:  # header only, no question
        return struct.pack(">HHHHHH", txid, FLAG_RD, 0, 0, 0, 0)
    # two questions
    q = encode_name("a.example.com") + struct.pack(">HH", TYPE_A, 1)
    return struct.pack(">HHHHHH", txid, FLAG_RD, 2, 0, 0, 0) + q + q


def _question_end(data: bytes) -> int:
    offset = 12
    while data[offset]:
        offset += data[offset] + 1
    return offset + 5


def upstream_reply(query: bytes) -> bytes | None:
    """The mock upstream's answer: A/AAAA records for those types, else empty."""
    try:
        end = _question_end(query)
    except IndexError:
        return None
    if end > len(query):
        return None
    qtype = struct.unpack(">H", query[end - 4:end - 2])[0]
    rdata = {TYPE_A: UPSTREAM_A, TYPE_AAAA: UPSTREAM_AAAA}.get(qtype)
    answers = b"" if rdata is None else (
        b"\xc0\x0c" + struct.pack(">HHIH", qtype, 1, UPSTREAM_TTL, len(rdata)) + rdata
    )
    header = struct.pack(">HHHHHH", int.from_bytes(query[:2], "big"), 0x8180, 1, int(rdata is not None), 0, 0)
    return header + query[12:end] + answers


def check_answer(kind: str, query: bytes, resp: bytes) -> str | None:
    """None when ``resp`` is the right answer to ``query``, else the reason."""
    if len(resp) < 12 or resp[:2] != query[:2]:
        return "txid"
    flags, qd, an = struct.unpack(">HHH", resp[2:8])
    if not flags & 0x8000:
        return "qr bit"
    if kind == "malformed":
        return None if flags & 0xF == 1 and len(resp) == 12 else "not FORMERR"
    if kind == "forwarded":
        expected = upstream_reply(query)
        return None if resp == expected else "not the upstream answer"
    # blocked: 0.0.0.0 / :: with the blocked TTL, empty NOERROR otherwise
    end = _question_end(query)
    if flags & 0xF != 0 or qd != 1 or resp[12:end].lower() != query[12:end].lower():
        return "blocked header/question"
    qtype = struct.unpack(">H", query[end - 4:end - 2])[0]
    rdata = {TYPE_A: b"\x00" * 4, TYPE_AAAA: b"\x00" * 16}.get(qtype)
    if rdata is None:
        return None if an == 0 else "answers for a non-address type"
    if an != 1 or len(resp) < end + 12:
        return "blocked answer count"
    rtype, rclass, ttl, rdlen = struct.unpack(">HHIH", resp[end + 2:end + 12])
    if (rtype, rclass, ttl) != (qtype, 1, BLOCKED_TTL) or resp[end + 12:end + 12 + rdlen] != rdata:
        return "blocked answer record"
    return None


# -- traffic plan -------------------------------------------------------


def suffix_blocked(name: str, entries) -> bool:
    parts = name.split(".")
    return any(".".join(parts[i:]) in entries for i in range(len(parts)))


# Traffic mix: shares of blocked and malformed queries (the rest are
# forwarded), and of AAAA and other non-A query types. These shares are
# assumptions of the benchmark, not measured household traffic; see
# README.md. The latency and capacity figures that are gated do not depend
# on them much: own latency excludes the upstream's delay, and the rate
# ladder that gives dns_max_qps sends blocked queries only.
BLOCKED, MALFORMED = 0.35, 0.03
AAAA, OTHER = 0.30, 0.10


class Population:
    """Query names split by the verdict suffix mode must give them."""

    def __init__(self, names, list_entries, rng: random.Random):
        entries = set()
        for values in list_entries.values():
            entries.update(values)
        blocked = sorted({n for n in names if suffix_blocked(n, entries)} | entries)
        forwarded = sorted(n for n in names if not suffix_blocked(n, entries))
        rng.shuffle(blocked)
        rng.shuffle(forwarded)
        self.blocked = blocked
        self.forwarded = forwarded
        self.rng = rng
        self.pick = {"blocked": Zipf(blocked, 1.0, rng), "forwarded": Zipf(forwarded, 1.0, rng)}

    def plan(self, rate: float, seconds: float, blocked=BLOCKED, malformed=MALFORMED) -> list[tuple]:
        """(offset_s, kind, qname, qtype) with Poisson arrivals at ``rate``,
        ``blocked`` and ``malformed`` of them of those kinds, the rest forwarded."""
        rng, out, t = self.rng, [], 0.0
        while True:
            t += rng.expovariate(rate)
            if t >= seconds:
                return out
            roll = rng.random()
            if roll < malformed:
                out.append((t, "malformed", "", rng.randrange(3)))
                continue
            kind = "blocked" if roll < malformed + blocked else "forwarded"
            r = rng.random()
            qtype = TYPE_AAAA if r < AAAA else rng.choice(OTHER_TYPES) if r < AAAA + OTHER else TYPE_A
            out.append((t, kind, self.pick[kind](), qtype))


# -- the loop ---------------------------------------------------------------


@dataclass
class PhaseResult:
    kinds: list
    queries: list
    sched: list
    sent: list
    recv: list
    resp: list
    hold: list  # seconds the mock upstream held each forwarded query, else 0
    stale: int = 0
    errors: list = field(default_factory=list)  # (index, reason)

    def latencies_ms(self, kind=None, since_sent=False):
        base = self.sent if since_sent else self.sched
        return [
            (r - b) * 1e3
            for k, b, r in zip(self.kinds, base, self.recv)
            if r is not None and (kind is None or k == kind)
        ]

    def own_ms(self, kind=None):
        """Latency from the scheduled send, less the upstream's hold."""
        return [
            (r - b - h) * 1e3
            for k, b, r, h in zip(self.kinds, self.sched, self.recv, self.hold)
            if r is not None and (kind is None or k == kind)
        ]

    @property
    def answered(self) -> int:
        return sum(r is not None for r in self.recv)

    @property
    def lost(self) -> int:
        return len(self.recv) - self.answered

    @classmethod
    def joined(cls, results):
        """One result holding the queries of several windows, in order."""
        return cls(*(sum((getattr(r, f) for r in results), []) for f in
                     ("kinds", "queries", "sched", "sent", "recv", "resp", "hold")),
                   stale=sum(r.stale for r in results), errors=[])

    def lag_ms(self):
        return [(s - d) * 1e3 for s, d in zip(self.sent, self.sched)]

    def achieved_qps(self) -> float:
        span = self.sched[-1] - self.sched[0] if len(self.sched) > 1 else 0.0
        return self.answered / span if span > 0 else 0.0


def percentile(values, q):
    """Nearest-rank percentile; None for an empty sample."""
    if not values:
        return None
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


class LoadGen:
    """Client socket plus mock upstream on one selectors loop."""

    def __init__(self, upstream_delay_s: float):
        self.delay = upstream_delay_s
        self.upstream = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.client = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.prober = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        for sock in (self.upstream, self.client, self.prober):
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4 << 20)
            sock.bind(("127.0.0.1", 0))
            sock.setblocking(False)
        self.sel = selectors.DefaultSelector()
        self.sel.register(self.client, selectors.EVENT_READ)
        self.sel.register(self.upstream, selectors.EVENT_READ)
        self.next_txid = 0
        self.probes_answered = 0
        self.probe_errors: list[str] = []

    @property
    def upstream_address(self):
        return self.upstream.getsockname()[:2]

    def close(self):
        self.sel.close()
        for sock in (self.upstream, self.client, self.prober):
            sock.close()

    def _txid(self) -> int:
        self.next_txid = (self.next_txid + 1) & 0xFFFF
        return self.next_txid

    def wait_ready(self, target, qname: str, timeout_s: float, alive) -> float | None:
        """Probe with a blocked A query every 20 ms until one is answered.

        Returns the time of the first answer, or None on timeout or when
        ``alive()`` turns false. Probe answers are checked like any other.
        """
        deadline = clock() + timeout_s
        while clock() < deadline and alive():
            query = build_query(self._txid(), qname, TYPE_A)
            try:
                self.prober.sendto(query, target)
            except OSError:
                pass
            until = clock() + 0.02
            while clock() < until:
                got = self.drain_probes(query)
                if got:
                    return got
                time.sleep(0.001)
        return None

    def drain_probes(self, last_query=None):
        """Count probe answers that have arrived, checking the one to
        ``last_query``; returns the time of the first, or None."""
        first = None
        while True:
            try:
                data = self.prober.recv(4096)
            except (BlockingIOError, ConnectionRefusedError):
                return first
            self.probes_answered += 1
            if last_query is not None and data[:2] == last_query[:2]:
                reason = check_answer("blocked", last_query, data)
                if reason:
                    self.probe_errors.append(reason)
            first = first or clock()

    def drain_client(self) -> int:
        """Discard answers still queued on the client socket; their count."""
        count = 0
        while True:
            try:
                self.client.recv(4096)
            except BlockingIOError:
                return count
            except ConnectionRefusedError:
                continue
            count += 1

    def _pump(self, target, kinds, queries, sched, drain_s, linger_s):
        n = len(queries)
        sent, recv, resp, hold = [None] * n, [None] * n, [None] * n, [0.0] * n
        by_txid = {}
        heap, seq = [], 0
        # question bytes -> holds of the replies sent for it, oldest first;
        # the sinkhole relays the question unchanged, so a forwarded answer
        # takes the oldest hold recorded for its question.
        holds = {}
        stale = 0
        client, upstream, delay = self.client, self.upstream, self.delay
        i = outstanding = 0
        end_deadline = None
        while True:
            now = clock()
            while i < n and sched[i] <= now:
                try:
                    client.sendto(queries[i], target)
                except OSError:
                    pass  # an unsent query stays unanswered and counts as lost
                sent[i] = clock()
                by_txid[queries[i][:2]] = i
                outstanding += 1
                i += 1
            now = clock()
            while heap and heap[0][0] <= now:
                _, _, data, addr, got = heapq.heappop(heap)
                holds.setdefault(data[12:], deque()).append(clock() - got)
                try:
                    upstream.sendto(data, addr)
                except OSError:
                    pass
            if i >= n:
                if end_deadline is None:
                    end_deadline = now + drain_s
                if outstanding == 0:
                    end_deadline = min(end_deadline, now + linger_s)
                if now >= end_deadline:
                    return sent, recv, resp, hold, stale
            next_t = sched[i] if i < n else end_deadline
            if heap and heap[0][0] < next_t:
                next_t = heap[0][0]
            for key, _ in self.sel.select(max(0.0, next_t - clock())):
                if key.fileobj is client:
                    while True:
                        try:
                            data = client.recv(4096)
                        except BlockingIOError:
                            break
                        except ConnectionRefusedError:
                            continue
                        j = by_txid.pop(data[:2], None)
                        if j is None:
                            stale += 1
                            continue
                        recv[j] = clock()
                        resp[j] = data
                        outstanding -= 1
                        if kinds[j] == "forwarded":
                            waits = holds.get(data[12:])
                            if waits:
                                hold[j] = waits.popleft()
                else:
                    while True:
                        try:
                            data, addr = upstream.recvfrom(4096)
                        except (BlockingIOError, ConnectionRefusedError):
                            break
                        reply = upstream_reply(data)
                        if reply is not None:
                            seq += 1
                            got = clock()
                            heapq.heappush(heap, (got + delay, seq, reply, addr, got))

    def run(self, target, plan, drain_s: float = 3.0, linger_s: float = 0.0) -> PhaseResult:
        """Send ``plan`` on schedule, answer the upstream side, collect replies.

        Waits up to ``drain_s`` after the last send for outstanding answers,
        then keeps answering the upstream side for ``linger_s`` more.
        """
        kinds = [p[1] for p in plan]
        queries = []
        for _, kind, qname, qtype in plan:
            txid = self._txid()
            queries.append(build_malformed(txid, qtype) if kind == "malformed" else build_query(txid, qname, qtype))
        t0 = clock() + 0.01
        sched = [t0 + p[0] for p in plan]
        gc.disable()  # a collection pause would show up as generator lag
        try:
            sent, recv, resp, hold, stale = self._pump(target, kinds, queries, sched, drain_s, linger_s)
        finally:
            gc.enable()
        return _checked(PhaseResult(kinds, queries, sched, sent, recv, resp, hold, stale))


def _checked(result: PhaseResult) -> PhaseResult:
    """Record in ``result.errors`` every answer that is wrong for its query."""
    for j, (kind, query, data) in enumerate(zip(result.kinds, result.queries, result.resp)):
        if data is not None:
            reason = check_answer(kind, query, data)
            if reason:
                result.errors.append((j, reason))
    return result


def stats_total(address, timeout_s=2.0) -> int | None:
    """The ``total`` counter from the sinkhole's TCP stats endpoint."""
    import json

    try:
        with socket.create_connection(address, timeout=timeout_s) as conn:
            conn.sendall(b"stats\n")
            buf = b""
            while not buf.endswith(b"\n"):
                chunk = conn.recv(4096)
                if not chunk:
                    break
                buf += chunk
        return int(json.loads(buf)["total"])
    except (OSError, ValueError, KeyError):
        return None


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as udp, socket.socket() as tcp:
        udp.bind(("127.0.0.1", 0))
        port = udp.getsockname()[1]
        try:
            tcp.bind(("127.0.0.1", port))
        except OSError:
            return free_port()
        return port
