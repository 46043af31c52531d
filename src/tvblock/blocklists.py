"""Hosts-file blocklist parsing and block queries for DNS names.

Blocklists are curated hosts files ("0.0.0.0 domain" / "127.0.0.1 domain")
or bare-domain files. Entries are stored in a hash set keyed by normalized
domain so per-query lookups stay O(1) for the sinkhole's latency budget.

``blocked_by`` is the one list question: it works out once which entries
would block a name and answers for every list together, with the set of
the names of the lists that block it. ``is_blocked`` is the same rule for
one list.

Loading is linear in the file with no per-line address parse: the leading
address column is parsed once per file, and a domain token reaches
``ipaddress`` only when it could be an address (it ends in a digit or
holds a colon).
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from typing import Iterable, Literal, Optional, Sequence

from .text import is_ip_literal, normalize_fqdn

log = logging.getLogger(__name__)

MatchMode = Literal["exact", "suffix"]
MATCH_MODES = ("exact", "suffix")

# Canonical loopback host names that appear in hosts files but are not
# blockable destinations.
LOOPBACK_NAMES = frozenset(
    {"localhost", "localhost.localdomain", "broadcasthost", "ip6-localhost"}
)

_ENTRY_RE = re.compile(r"^[a-z0-9_-]+(\.[a-z0-9_-]+)*$")


class BlocklistError(ValueError):
    pass


class FileUnreadable(BlocklistError):
    def __init__(self, path: str, cause: str):
        super().__init__(f"cannot read blocklist file {path}: {cause}")
        self.path = path


class EmptyList(BlocklistError):
    """A list was requested from zero source files."""


@dataclass(frozen=True)
class HostsLineDiagnostic:
    line_no: int
    token: str
    reason: str


@dataclass(frozen=True)
class BlockList:
    """A named, immutable set of normalized blockable domains."""

    name: str
    entries: frozenset[str]

    @property
    def entry_count(self) -> int:
        return len(self.entries)


def parse_hosts_list(
    text: str, diagnostics: Optional[list[HostsLineDiagnostic]] = None
) -> set[str]:
    """Extract blockable domains from hosts-file or bare-domain text.

    Comment ("#") and blank lines are skipped, a leading IP column is
    dropped, loopback canonical names are excluded, and every remaining
    token is normalized. Unparseable tokens are skipped; pass a list to
    collect diagnostics for them.
    """
    domains: set[str] = set()
    addresses: set[str] = set()  # leading tokens already proven addresses
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] in addresses or is_ip_literal(tokens[0]):
            addresses.add(tokens[0])
            tokens = tokens[1:]
        for token in tokens:
            domain = normalize_fqdn(token)
            if not domain or domain in LOOPBACK_NAMES:
                continue
            if is_ip_literal(domain) or not _ENTRY_RE.match(domain):
                if diagnostics is not None:
                    diagnostics.append(
                        HostsLineDiagnostic(line_no, token, "not a domain name")
                    )
                continue
            domains.add(domain)
    return domains


def build_list(name: str, files: Sequence[str]) -> BlockList:
    """Build a named blocklist from the union of one or more hosts files."""
    if not files:
        raise EmptyList(f"list {name!r} has no source files")
    entries: set[str] = set()
    for path in files:
        try:
            with open(path, encoding="utf-8", errors="replace") as fh:
                text = fh.read()
        except OSError as exc:
            raise FileUnreadable(str(path), exc.strerror or str(exc)) from exc
        diagnostics: list[HostsLineDiagnostic] = []
        entries |= parse_hosts_list(text, diagnostics)
        for diag in diagnostics:
            log.warning(
                "%s:%d: skipped %r (%s)", path, diag.line_no, diag.token, diag.reason
            )
    return BlockList(name=name, entries=frozenset(entries))


def blocked_by(
    fqdn: str, lists: Sequence[BlockList], mode: MatchMode = "exact"
) -> frozenset[str]:
    """The names of the lists that block the fqdn; empty when none does.

    The entries that would block the name are worked out once:
    exact: the name itself (faithful hosts-file semantics);
    suffix: the name and each of its dot-boundary parent domains.
    A list blocks the name when it holds any of them.
    """
    if mode == "exact":
        keys: Sequence[str] = (fqdn,)
    elif mode == "suffix":
        parts = fqdn.split(".")
        keys = [".".join(parts[i:]) for i in range(len(parts))]
    else:
        raise ValueError(f"unknown match mode {mode!r}")
    return frozenset(bl.name for bl in lists if not bl.entries.isdisjoint(keys))


def is_blocked(fqdn: str, blocklist: BlockList, mode: MatchMode = "exact") -> bool:
    """Whether one list blocks the name: blocked_by's rule for a single list."""
    return bool(blocked_by(fqdn, (blocklist,), mode))


def union_lists(lists: Iterable[BlockList], name: str = "union") -> BlockList:
    """A single list whose entries are the union of the given lists."""
    entries: set[str] = set()
    for bl in lists:
        entries |= bl.entries
    return BlockList(name=name, entries=frozenset(entries))
