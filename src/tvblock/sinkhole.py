"""Live DNS forwarder that blackholes queries for blocklisted names.

Blocked names answer 0.0.0.0 (A) / :: (AAAA) with a short TTL, or NXDOMAIN
when configured; everything else is relayed to the upstream resolver. Every
query produces one append-only JSONL log entry. The active blocklists are
an immutable snapshot swapped atomically on reload, so in-flight queries
finish under the list they started with.
"""

from __future__ import annotations

import json
import logging
import random
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

from . import dnswire
from .blocklists import BlockList, blocked_by
from .config import SinkholeConfig, parse_hostport

log = logging.getLogger(__name__)


class BindFailure(OSError):
    pass


@dataclass(frozen=True)
class QueryLogEntry:
    timestamp: int
    client: str
    qname: str
    qtype: str
    verdict: str  # "blocked" | "forwarded" | "upstream_error"
    latency_us: int
    blocked_by: tuple[str, ...] = ()

    def to_json(self) -> dict:
        obj = {
            "timestamp": self.timestamp,
            "client": self.client,
            "qname": self.qname,
            "qtype": self.qtype,
            "verdict": self.verdict,
            "latency_us": self.latency_us,
        }
        if self.verdict == "blocked":
            obj["blocked_by"] = sorted(self.blocked_by)
        return obj


def decide(
    qname: str,
    qtype: int,
    lists: Sequence[BlockList],
    cfg: SinkholeConfig,
) -> str:
    """"block" when any active list blocks the name; qtype plays no part."""
    verdict = blocked_by(qname, lists, cfg.match_mode)
    return "block" if verdict.blocked else "forward"


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


def _question(data: bytes) -> Optional[bytes]:
    """The first question (name, type, class) as raw bytes, name lowercased.

    None when the message has no complete, uncompressed first question.
    """
    if len(data) < 12 or data[4:6] == b"\0\0":
        return None
    pos = 12
    while pos < len(data) and data[pos]:
        if data[pos] & 0xC0:
            return None
        pos += data[pos] + 1
    end = pos + 5
    return data[12:end].lower() if end <= len(data) else None


def forward(
    raw_query: bytes,
    upstream: tuple[str, int],
    timeout_ms: int,
) -> Optional[bytes]:
    """Relay a query upstream and return the reply with the client's txid.

    The upstream exchange uses a fresh transaction id on a socket connected
    to the upstream, so datagrams from any other source are dropped. Replies
    whose txid or question differs from the query's are skipped until the
    timeout. The accepted reply is relayed verbatim apart from restoring the
    client's id. Returns None on timeout (the caller answers SERVFAIL).
    """
    client_txid = int.from_bytes(raw_query[:2], "big")
    upstream_txid = random.getrandbits(16)
    request = dnswire.set_txid(raw_query, upstream_txid)
    question = _question(raw_query)
    deadline = time.monotonic() + timeout_ms / 1000.0
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        try:
            sock.connect(upstream)
            sock.send(request)
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
                sock.settimeout(remaining)
                reply = sock.recv(4096)
                if (
                    len(reply) >= 12
                    and int.from_bytes(reply[:2], "big") == upstream_txid
                    and _question(reply) == question
                ):
                    return dnswire.set_txid(reply, client_txid)
        except (socket.timeout, OSError):
            return None


class Sinkhole:
    """UDP DNS sinkhole service.

    start() binds and serves on background threads; stop() shuts down.
    set_lists() swaps the active blocklist snapshot atomically.
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
        self._stats_sock: Optional[socket.socket] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._threads: list[threading.Thread] = []
        self._running = threading.Event()
        self._log_lock = threading.Lock()
        self._log_fh = None
        self._counters = {
            "total": 0,
            "blocked": 0,
            "forwarded": 0,
            "upstream_errors": 0,
            "log_errors": 0,
        }
        self._counter_lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            sock.bind(self.cfg.listen)
        except OSError as exc:
            sock.close()
            raise BindFailure(
                f"cannot bind {self.cfg.listen_address}: {exc.strerror or exc}"
            ) from exc
        sock.settimeout(0.25)
        self._sock = sock
        if self.cfg.query_log_path:
            self._log_fh = open(self.cfg.query_log_path, "a", encoding="utf-8")
        self._executor = ThreadPoolExecutor(max_workers=16)
        self._running.set()
        recv_thread = threading.Thread(target=self._recv_loop, daemon=True)
        recv_thread.start()
        self._threads.append(recv_thread)
        if self.cfg.stats_address:
            self._start_stats_listener()
        log.info("sinkhole listening on %s", self.address)

    def stop(self) -> None:
        self._running.clear()
        for thread in self._threads:
            thread.join(timeout=2)
        if self._executor:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._sock:
            self._sock.close()
            self._sock = None
        if self._stats_sock:
            self._stats_sock.close()
            self._stats_sock = None
        if self._log_fh:
            with self._log_lock:
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
        with self._counter_lock:
            return dict(self._counters)

    # -- serving -------------------------------------------------------

    def _recv_loop(self) -> None:
        assert self._sock is not None
        while self._running.is_set():
            try:
                data, addr = self._sock.recvfrom(4096)
            except socket.timeout:
                continue
            except OSError:
                break
            if self._executor:
                self._executor.submit(self._handle, data, addr)

    def _handle(self, data: bytes, addr: tuple[str, int]) -> None:
        started = time.monotonic_ns()
        lists = self._lists  # snapshot for the whole query
        try:
            response, entry = self._respond(data, addr, lists, started)
        except Exception:  # never let one query kill the worker
            log.exception("query handling failed")
            return
        # Record before answering: once a client has its response, the
        # query log already holds the entry (unless the write failed, which
        # _record counts; the answer goes out either way).
        self._record(entry)
        sock = self._sock
        if sock is None:
            return
        try:
            sock.sendto(response, addr)
        except OSError:
            return

    def _respond(
        self,
        data: bytes,
        addr: tuple[str, int],
        lists: tuple[BlockList, ...],
        started: int,
    ) -> tuple[bytes, QueryLogEntry]:
        client = f"{addr[0]}:{addr[1]}"

        def entry(qname: str, qtype: str, verdict: str, blocked: tuple[str, ...] = ()):
            return QueryLogEntry(
                timestamp=int(time.time() * 1000),
                client=client,
                qname=qname,
                qtype=qtype,
                verdict=verdict,
                latency_us=(time.monotonic_ns() - started) // 1000,
                blocked_by=blocked,
            )

        try:
            message = dnswire.parse_message(data)
            if message.header.qdcount != 1:
                raise dnswire.WireError("multi-question query")
            question = message.question
        except dnswire.WireError:
            return (
                dnswire.build_error_response(data, dnswire.RCODE_FORMERR),
                entry("", "", "upstream_error"),
            )

        qname = question.qname.rstrip(".").lower()
        qtype = dnswire.type_name(question.qtype)
        verdict = blocked_by(qname, lists, self.cfg.match_mode)
        if verdict.blocked:
            response = answer_blocked(message, self.cfg)
            return response, entry(qname, qtype, "blocked", tuple(sorted(verdict.blocked_by)))

        reply = forward(data, self.cfg.upstream, self.cfg.upstream_timeout_ms)
        if reply is None:
            return (
                dnswire.build_error_response(data, dnswire.RCODE_SERVFAIL),
                entry(qname, qtype, "upstream_error"),
            )
        return reply, entry(qname, qtype, "forwarded")

    def _record(self, entry: QueryLogEntry) -> None:
        with self._counter_lock:
            self._counters["total"] += 1
            if entry.verdict == "blocked":
                self._counters["blocked"] += 1
            elif entry.verdict == "forwarded":
                self._counters["forwarded"] += 1
            else:
                self._counters["upstream_errors"] += 1
        if self._log_fh:
            line = json.dumps(entry.to_json(), separators=(",", ":"))
            with self._log_lock:
                if self._log_fh:
                    try:
                        self._log_fh.write(line + "\n")
                        self._log_fh.flush()
                    except OSError as exc:
                        self._log_failed(exc)

    def _log_failed(self, exc: OSError) -> None:
        with self._counter_lock:
            self._counters["log_errors"] += 1
            first = self._counters["log_errors"] == 1
        if first:
            log.warning(
                "query log write failed (%s); answering continues, "
                "further failures are counted as log_errors only",
                exc,
            )

    # -- stats endpoint --------------------------------------------------

    def _start_stats_listener(self) -> None:
        assert self.cfg.stats_address is not None
        host, port = parse_hostport(self.cfg.stats_address, "stats_address")
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            sock.bind((host, port))
        except OSError as exc:
            sock.close()
            raise BindFailure(f"cannot bind stats endpoint: {exc}") from exc
        sock.listen(4)
        sock.settimeout(0.25)
        self._stats_sock = sock
        thread = threading.Thread(target=self._stats_loop, daemon=True)
        thread.start()
        self._threads.append(thread)

    def _stats_loop(self) -> None:
        assert self._stats_sock is not None
        while self._running.is_set():
            try:
                conn, _ = self._stats_sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            with conn:
                try:
                    conn.settimeout(1.0)
                    conn.recv(256)  # optional request line; reply regardless
                    conn.sendall((json.dumps(self.stats()) + "\n").encode())
                except OSError:
                    pass

    def dump_stats(self) -> None:
        """On-signal stats dump for deployments without the TCP endpoint."""
        log.info("stats: %s", json.dumps(self.stats()))


def serve(cfg: SinkholeConfig, lists: Sequence[BlockList]) -> Sinkhole:
    """Start a sinkhole and return the running service handle."""
    service = Sinkhole(cfg, lists)
    service.start()
    return service

