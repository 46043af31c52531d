"""Live DNS forwarder that blackholes queries for blocklisted names.

Blocked names answer 0.0.0.0 (A) / :: (AAAA) with a short TTL, or NXDOMAIN
when configured; everything else is relayed to the upstream resolver. Every
query produces one append-only JSONL log entry. The active blocklists are
an immutable snapshot swapped atomically on reload.

Three parts. ``respond`` decides one query datagram under the snapshot
current when it is read. A ``Forwarder`` holds what waits on the upstream:
each forwarded query leaves from a pool socket picked at random, with a
random transaction id, and waits in a table keyed by (socket, id) until its
reply or its deadline. So a forged reply must guess the source port as well
as the id. The table holds at most MAX_PENDING queries; one more is shed:
SERVFAIL at once. Neither part does I/O or reads a clock. The third, the
``Sinkhole``'s one ``selectors`` loop on one thread, does: it reads the
listen socket and the pool of UDP sockets connected to the upstream, sends,
logs, and replaces pool sockets as they serve, so no source port lasts long.
"""

from __future__ import annotations

import contextlib
import json
import logging
import random
import selectors
import socket
import threading
import time
from collections import OrderedDict, deque
from typing import NamedTuple, Optional, Sequence

from . import dnswire
from .blocklists import BlockList, blocked_by
from .config import SinkholeConfig, parse_hostport

log = logging.getLogger(__name__)

MAX_PENDING = 4096  # forwarded queries awaiting the upstream; more are shed
_UPSTREAMS = 8  # upstream sockets, each on its own random source port
_REOPEN_EVERY = 256  # forwarded queries between replacing the oldest upstream socket
_BATCH = 64  # datagrams read from one socket per wake-up, so neither starves
_POLL_S = 0.25  # longest select() wait, so stop() is noticed
# Pool slots and txids come from the OS's random source, as the secrets module
# draws them, without the hashlib that importing secrets loads.
RNG = random.SystemRandom()


class BindFailure(OSError):
    pass


class Outcome(NamedTuple):
    """respond()'s verdict on one query datagram and what to log about it."""

    response: Optional[bytes]  # the answer; None: forward the query upstream
    verdict: str  # the log verdict: "blocked", "forwarded" or "upstream_error"
    qname: str = ""
    qtype: str = ""
    blocked_by: frozenset[str] = frozenset()
    question: bytes = b""  # the question section as sent, lowercased: a reply must echo it


def respond(data: bytes, lists: Sequence[BlockList], cfg: SinkholeConfig) -> Outcome:
    """Decide one query datagram under a list snapshot; no I/O, no clock. Without one parsable
    question: FORMERR. Blocked: ``answer_blocked``, echoing the question as sent. Else: forward."""
    try:
        query = dnswire.parse_message(data)
        question = query.question
    except dnswire.WireError:
        return Outcome(dnswire.build_error_response(data, dnswire.RCODE_FORMERR), "upstream_error")
    qname = question.qname.rstrip(".").lower()
    qtype = dnswire.type_name(question.qtype)
    names = blocked_by(qname, lists, cfg.match_mode)
    if names:
        return Outcome(answer_blocked(query, cfg), "blocked", qname, qtype, names)
    return Outcome(None, "forwarded", qname, qtype, question=question.wire.lower())


def decide(qname: str, qtype: int, lists: Sequence[BlockList], cfg: SinkholeConfig) -> str:
    """"block" when respond() blocks a query for the name; qtype plays no part."""
    outcome = respond(dnswire.build_query(qname, qtype, 0), lists, cfg)
    return "block" if outcome.verdict == "blocked" else "forward"


def answer_blocked(query: dnswire.Message, cfg: SinkholeConfig) -> bytes:
    """Synthesize the blackhole response for a blocked query.

    null mode: A answers 0.0.0.0, AAAA answers ::, anything else gets an
    empty NOERROR. nxdomain mode: NXDOMAIN with no answers.
    """
    if cfg.blocking_mode == "nxdomain":
        return dnswire.build_response(query, rcode=dnswire.RCODE_NXDOMAIN)
    qtype = query.question.qtype
    if qtype == dnswire.TYPE_A:
        answers = ((dnswire.TYPE_A, cfg.blocked_ttl, dnswire.a_rdata("0.0.0.0")),)
    elif qtype == dnswire.TYPE_AAAA:
        answers = ((dnswire.TYPE_AAAA, cfg.blocked_ttl, dnswire.aaaa_rdata("::")),)
    else:
        answers = ()
    return dnswire.build_response(query, rcode=dnswire.RCODE_NOERROR, answers=answers)


def _servfail(query: bytes, client, started: int, outcome: Outcome) -> tuple:
    """The answer to a forwarded query that was shed or not answered in time."""
    servfail = dnswire.build_error_response(query, dnswire.RCODE_SERVFAIL)
    return client, started, servfail, outcome._replace(verdict="upstream_error")


class Forwarder:
    """The queries waiting on the upstream, and the one rule that answers them.

    No I/O and no clock: a slot is an upstream socket used only as a key, and
    each call that needs the time is given ``now``, in ns of a monotonic clock.
    An answer is a tuple (client, started, response, Outcome), the query's
    ``started`` being the ``now`` it was submitted at.
    """

    def __init__(self, timeout_ms: int, slots: Sequence = ()):
        self.timeout_ns = timeout_ms * 1_000_000
        self.slots = list(slots)  # the pool new queries leave from
        # (slot, txid) -> (deadline, query, client, started, Outcome). With one timeout
        # for all, insertion order is deadline order. OrderedDict: finding a plain dict's
        # first key slows as entries are deleted.
        self.pending: OrderedDict[tuple, tuple] = OrderedDict()
        self.retired: deque[tuple[int, object]] = deque()  # (close time, slot), oldest first

    def submit(self, outcome: Outcome, query: bytes, client, now: int) -> Optional[tuple]:
        """Queue a query respond() forwards: (slot, the datagram to send on it),
        or None when MAX_PENDING queries wait. A None query is shed, not queued."""
        if len(self.pending) >= MAX_PENDING:
            return None
        slot = RNG.choice(self.slots)
        txid = RNG.getrandbits(16)
        while (slot, txid) in self.pending:
            txid = RNG.getrandbits(16)
        self.pending[slot, txid] = (now + self.timeout_ns, query, client, now, outcome)
        return slot, dnswire.set_txid(query, txid)

    def on_reply(self, slot, reply: bytes) -> Optional[tuple]:
        """The answer a datagram read on ``slot`` gives: the reply relayed verbatim
        with the client's txid, or None when it answers no pending query."""
        key = (slot, dnswire.get_txid(reply))
        entry = self.pending.get(key)
        if entry is None or not dnswire.is_reply(reply, key[1], entry[4].question):
            return None
        del self.pending[key]
        _, query, client, started, outcome = entry
        return client, started, dnswire.set_txid(reply, dnswire.get_txid(query)), outcome

    def rotate(self, fresh_slot, now: int) -> None:
        """Add a slot to the pool and retire the oldest. expire() hands that one
        back to close when every query sent from it is past its deadline."""
        self.slots.append(fresh_slot)
        self.retired.append((now + self.timeout_ns, self.slots.pop(0)))

    def expire(self, now: int) -> tuple[list, list]:
        """(retired slots to close, SERVFAIL answers to the queries past their deadline)."""
        closing = []
        while self.retired and self.retired[0][0] <= now:
            closing.append(self.retired.popleft()[1])
        servfails = []
        while self.pending and self.next_deadline() <= now:
            servfails.append(_servfail(*self.pending.popitem(last=False)[1][1:]))
        return closing, servfails

    def next_deadline(self) -> Optional[int]:
        """The earliest deadline of a pending query, or None when none waits."""
        return next(iter(self.pending.values()))[0] if self.pending else None


def forward(
    raw_query: bytes,
    upstream: tuple[str, int],
    timeout_ms: int,
) -> Optional[bytes]:
    """Relay a query upstream and return the reply with the client's txid.

    A blocking shell over a one-slot ``Forwarder``, on a fresh socket connected to the
    upstream, so datagrams from any other source are dropped. Replies the Forwarder does not
    accept are skipped until the deadline. Returns None on timeout; a query without one
    question raises WireError. The service's loop does not use it.
    """
    question = dnswire.parse_message(raw_query).question.wire.lower()
    outcome = Outcome(None, "forwarded", question=question)
    try:
        with _upstream_socket(upstream) as sock:
            forwarder = Forwarder(timeout_ms, [sock])
            sock.send(forwarder.submit(outcome, raw_query, None, time.monotonic_ns())[1])
            while not forwarder.expire(now := time.monotonic_ns())[1]:
                sock.settimeout((forwarder.next_deadline() - now) / 1e9)
                answer = forwarder.on_reply(sock, sock.recv(4096))
                if answer:
                    return answer[2]
    except OSError:  # socket.timeout included
        pass
    return None


def _upstream_socket(upstream: tuple[str, int]) -> socket.socket:
    """A non-blocking UDP socket connected to the upstream, so datagrams from
    any other source are dropped. The kernel gives it a random source port."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        sock.connect(upstream)
    except OSError:
        sock.close()
        raise
    sock.setblocking(False)
    return sock


def _send(sock: socket.socket, request: bytes) -> None:
    """Send a query upstream. An error other than a full buffer may only report
    (and clear) an ICMP error left by an earlier query, so send once more. A
    query that is not sent gets SERVFAIL at its deadline."""
    for _ in range(2):
        try:
            sock.send(request)
            return
        except BlockingIOError:
            return
        except OSError:
            continue


@contextlib.contextmanager
def _or_bind_failure(action: str):
    """Re-raise an OSError from the block as a BindFailure naming ``action``."""
    try:
        yield
    except OSError as exc:
        raise BindFailure(f"cannot {action}: {exc.strerror or exc}") from exc


class Sinkhole:
    """UDP DNS sinkhole service.

    start() opens every socket and the log, then starts the event-loop thread
    (and the stats endpoint's accept thread); after that only the loop opens
    and closes upstream sockets. stop() stops reading queries, lets in-flight
    forwards end, then closes all. set_lists() swaps the active blocklist
    snapshot atomically. Only the loop thread writes the counters, the
    Forwarder and the log, so nothing is locked.
    """

    def __init__(self, cfg: SinkholeConfig, lists: Sequence[BlockList]):
        cfg.validate()
        known = {bl.name: bl for bl in lists}
        missing = [n for n in cfg.active_lists if n not in known]
        if missing:
            raise ValueError(f"active lists not loaded: {missing}")
        self.cfg = cfg
        self._lists: tuple[BlockList, ...] = tuple(
            known[n] for n in cfg.active_lists
        )
        self._sock: Optional[socket.socket] = None
        self._forwarder = Forwarder(cfg.upstream_timeout_ms)  # its slots: the upstream sockets
        self._sel: Optional[selectors.BaseSelector] = None
        self._sent = 0  # forwarded queries sent, for replacing pool sockets
        self._stats_sock: Optional[socket.socket] = None
        self._log_fh = None
        self._threads: list[threading.Thread] = []
        self._running = threading.Event()
        self._counters = {
            "total": 0,
            "blocked": 0,
            "forwarded": 0,
            "upstream_errors": 0,
            "log_errors": 0,
            "shed": 0,
        }

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        cfg = self.cfg
        try:
            self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            with _or_bind_failure(f"bind {cfg.listen_address}"):
                self._sock.bind(cfg.listen)
            self._sock.setblocking(False)
            with _or_bind_failure(f"connect to {cfg.upstream_resolver}"):
                for _ in range(_UPSTREAMS):
                    self._forwarder.slots.append(_upstream_socket(cfg.upstream))
            if cfg.stats_address:
                address = parse_hostport(cfg.stats_address, "stats_address")
                self._stats_sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                self._stats_sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                with _or_bind_failure("bind stats endpoint"):
                    self._stats_sock.bind(address)
                self._stats_sock.listen(4)
                self._stats_sock.settimeout(_POLL_S)
            if cfg.query_log_path:
                self._log_fh = open(cfg.query_log_path, "a", encoding="utf-8")
            self._running.set()
            self._spawn("tvblock-dns", self._serve)
            if self._stats_sock:
                self._spawn("tvblock-stats", self._stats_loop)
            log.info("sinkhole listening on %s", self.address)
        except BaseException:  # a KeyboardInterrupt too: end the threads, close all
            self.stop()
            raise

    def _spawn(self, name: str, target) -> None:
        thread = threading.Thread(target=target, name=name, daemon=True)
        thread.start()
        self._threads.append(thread)

    def stop(self) -> None:
        self._running.clear()
        for thread in self._threads:
            thread.join()
        self._threads.clear()
        self._close()

    def _close(self) -> None:
        retired = [sock for _, sock in self._forwarder.retired]
        for sock in (self._sock, self._stats_sock, *self._forwarder.slots, *retired):
            if sock:
                sock.close()
        self._sock = self._stats_sock = None
        self._forwarder = Forwarder(self.cfg.upstream_timeout_ms)
        if self._log_fh:
            try:
                self._log_fh.close()
            except OSError as exc:
                log.warning("query log close failed: %s", exc)
            self._log_fh = None

    @property
    def address(self) -> tuple[str, int]:
        """The bound address (with the real port when configured as :0)."""
        if self._sock is None:
            raise RuntimeError("sinkhole is not started")
        return self._sock.getsockname()[:2]

    @property
    def stats_port(self) -> Optional[int]:
        if self._stats_sock is None:
            return None
        return self._stats_sock.getsockname()[1]

    def set_lists(self, lists: Sequence[BlockList]) -> None:
        """Swap the active blocklist snapshot; new queries see the new set."""
        self._lists = tuple(lists)
        log.info(
            "active lists now: %s", ", ".join(bl.name for bl in self._lists) or "(none)"
        )

    def stats(self) -> dict:
        """The counters, read without a lock while the loop runs: "total" may
        briefly trail the verdict counts, never lead them."""
        return {**self._counters, "pending": len(self._forwarder.pending)}

    # -- serving -------------------------------------------------------

    def _serve(self) -> None:
        """The event loop. It alone touches the DNS sockets, the Forwarder and the log."""
        forwarder = self._forwarder
        with selectors.DefaultSelector() as sel:
            self._sel = sel
            sel.register(self._sock, selectors.EVENT_READ)
            for sock in forwarder.slots:
                sel.register(sock, selectors.EVENT_READ)
            listening = True
            while listening or forwarder.pending:
                now = time.monotonic_ns()
                closing, servfails = forwarder.expire(now)
                for sock in closing:
                    sel.unregister(sock)
                    sock.close()
                for answer in servfails:
                    self._answer(*answer)
                deadline = forwarder.next_deadline()
                wait = _POLL_S if deadline is None else min((deadline - now) / 1e9, _POLL_S)
                for key, _ in sel.select(wait):
                    try:
                        if key.fileobj is self._sock:
                            self._on_query()
                        else:
                            self._on_reply(key.fileobj)
                    except Exception:  # never let one datagram end the loop
                        log.exception("query handling failed")
                if listening and not self._running.is_set():
                    sel.unregister(self._sock)  # stop reading; finish the pending
                    listening = False

    def _on_query(self) -> None:
        for _ in range(_BATCH):
            try:
                data, addr = self._sock.recvfrom(4096)
            except BlockingIOError:
                return
            started = time.monotonic_ns()
            outcome = respond(data, self._lists, self.cfg)
            if outcome.response is not None:
                self._answer(addr, started, outcome.response, outcome)
            elif (sent := self._forwarder.submit(outcome, data, addr, started)) is None:
                self._counters["shed"] += 1
                self._answer(*_servfail(data, addr, started, outcome))
            else:
                _send(*sent)
                self._sent += 1
                if self._sent % _REOPEN_EVERY == 0:
                    self._reopen()

    def _reopen(self) -> None:
        """Replace the oldest pool socket with one on a fresh source port."""
        try:
            fresh = _upstream_socket(self.cfg.upstream)
        except OSError as exc:
            log.warning("cannot open a new upstream socket: %s", exc)
            return
        self._sel.register(fresh, selectors.EVENT_READ)
        self._forwarder.rotate(fresh, time.monotonic_ns())

    def _on_reply(self, sock: socket.socket) -> None:
        for _ in range(_BATCH):
            try:
                reply = sock.recv(4096)
            except BlockingIOError:
                return
            except OSError:
                continue  # an ICMP error from the upstream; queries wait out their deadline
            answer = self._forwarder.on_reply(sock, reply)
            if answer:
                self._answer(*answer)

    def _answer(self, addr, started: int, response: bytes, outcome: Outcome) -> None:
        """Count the query, log it, then answer. So a client holding its answer
        finds the entry logged, unless the write failed; that is counted under
        log_errors and the answer goes out regardless."""
        verdict = outcome.verdict
        self._counters["upstream_errors" if verdict == "upstream_error" else verdict] += 1
        self._counters["total"] += 1  # last: a snapshot never shows total above the verdicts
        if self._log_fh:
            entry = {
                "timestamp": int(time.time() * 1000),
                "client": f"{addr[0]}:{addr[1]}",
                "qname": outcome.qname,
                "qtype": outcome.qtype,
                "verdict": verdict,
                "latency_us": (time.monotonic_ns() - started) // 1000,
            }
            if verdict == "blocked":
                entry["blocked_by"] = sorted(outcome.blocked_by)
            try:
                self._log_fh.write(json.dumps(entry, separators=(",", ":")) + "\n")
                self._log_fh.flush()
            except OSError as exc:
                self._counters["log_errors"] += 1
                if self._counters["log_errors"] == 1:
                    log.warning(
                        "query log write failed (%s); answering continues, "
                        "further failures are counted as log_errors only",
                        exc,
                    )
        try:
            self._sock.sendto(response, addr)
        except OSError:
            pass

    # -- stats endpoint --------------------------------------------------

    def _stats_loop(self) -> None:
        assert self._stats_sock is not None
        while self._running.is_set():
            try:
                conn, _ = self._stats_sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            with conn, contextlib.suppress(OSError):
                conn.settimeout(1.0)
                with contextlib.suppress(socket.timeout):
                    conn.recv(256)  # optional request line; reply regardless
                conn.sendall((json.dumps(self.stats()) + "\n").encode())

    def dump_stats(self) -> None:
        """On-signal stats dump for deployments without the TCP endpoint."""
        log.info("stats: %s", json.dumps(self.stats()))


def serve(cfg: SinkholeConfig, lists: Sequence[BlockList]) -> Sinkhole:
    """Start a sinkhole and return the running service handle."""
    service = Sinkhole(cfg, lists)
    service.start()
    return service
