"""Hosts-file blocklist parsing and block queries for DNS names.

Blocklists are curated hosts files ("0.0.0.0 domain" / "127.0.0.1 domain")
or bare-domain files. Entries are stored in a hash set keyed by normalized
domain so per-query lookups stay O(1) for the sinkhole's latency budget.

``blocked_by`` is the one list question: it works out once which entries
would block a name (``match_keys``) and answers for every list together,
with the set of the names of the lists that block it. ``is_blocked`` is the
same rule for one list. A command that asks only about known names builds
its lists with those names' ``wanted_entries``: the parse and ``build_list``
keep only the entries in that set, and give the same diagnostics.

Most files are parsed in one pass over the whole text, in chunks cut at
line breaks, with string operations that run in C: comments are cut with
one regex, the text is lowered and split once, and only the distinct
tokens are looked at. ``ipaddress`` is asked only about a distinct token
that could be an address (it ends in a digit or holds a colon). An address
must open every line it is on, before a space or a tab, and the other
tokens are checked as entries all at once. The pass applies to ASCII text
whose lines end in LF or CRLF. Any other text, and any text holding a token
that the pass cannot take, goes to the line loop, which alone yields
diagnostics.
"""

from __future__ import annotations

import logging
import re
from typing import AbstractSet, Iterable, Literal, NamedTuple, Optional, Sequence

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
_ENTRY_BYTES = b"abcdefghijklmnopqrstuvwxyz0123456789_-.\n"  # and the "\n" that joins entries
_COMMENT_RE = re.compile(r"#[^\n]*")
# str.splitlines breaks lines at these, and str.split at them too; the
# whole-text pass takes only "\n" and "\r\n" as line ends.
_OTHER_ASCII_BREAKS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e")
# Small chunks: each chunk's transient strings and lists fit in the memory
# the last one freed, so a build's RSS stays at the line loop's.
_CHUNK_CHARS = 1 << 12


class BlocklistError(ValueError):
    pass


class FileUnreadable(BlocklistError):
    def __init__(self, path: str, cause: str):
        super().__init__(f"cannot read blocklist file {path}: {cause}")
        self.path = path


class EmptyList(BlocklistError):
    """A list was requested from zero source files."""


class HostsLineDiagnostic(NamedTuple):
    line_no: int
    token: str
    reason: str


class BlockList(NamedTuple):
    """A named, immutable set of normalized blockable domains."""

    name: str
    entries: frozenset[str]

    @property
    def entry_count(self) -> int:
        return len(self.entries)


def parse_hosts_list(
    text: str,
    diagnostics: Optional[list[HostsLineDiagnostic]] = None,
    wanted: Optional[AbstractSet[str]] = None,
) -> set[str]:
    """Extract blockable domains from hosts-file or bare-domain text.

    Comment ("#") and blank lines are skipped, a leading IP column is
    dropped, loopback canonical names are excluded, and every remaining
    token is normalized. Unparseable tokens are skipped; pass a list to
    collect diagnostics for them. With ``wanted``, only the domains in it
    are kept, chunk by chunk, and the diagnostics are the same.
    """
    if (
        text.isascii()
        and text.count("\r") == text.count("\r\n")
        and not any(brk in text for brk in _OTHER_ASCII_BREAKS)
    ):
        domains: set[str] = set()
        start = 0
        while start < len(text):
            end = text.find("\n", start + _CHUNK_CHARS) + 1 or len(text)
            names = _parse_whole(text[start:end])
            if names is None:
                break
            domains |= names if wanted is None else names & wanted
            start = end
        else:
            return domains
    return _parse_lines(text, diagnostics, wanted)


def _parse_whole(text: str) -> Optional[set[str]]:
    """The entries of ASCII text whose lines end in LF or CRLF, or None when
    a token needs the line loop: one that it would report, or an address
    that does not open its line before a space or a tab."""
    body = "\n" + _COMMENT_RE.sub("", text).lower()
    tokens = body.split()
    names = set(tokens)
    for token in [t for t in names if ":" in t or t[-1] in "0123456789."]:
        names.discard(token)
        name = token.rstrip(".")
        if not is_ip_literal(name):
            names.add(name)
            continue
        # The line loop drops an address silently only as a line's first
        # token; the pass takes it only at the start of lines, before a
        # space or a tab.
        head = "\n" + token
        opening = body.count(head + " ") + body.count(head + "\t")
        if name != token or opening != tokens.count(token):
            return None
    names -= LOOPBACK_NAMES
    names.discard("")
    # Each name must match _ENTRY_RE: only its characters and no empty
    # label (none ends in "." now).
    joined = "\n" + "\n".join(names)
    if joined.encode().translate(None, _ENTRY_BYTES) or ".." in joined or "\n." in joined:
        return None
    return names


def _parse_lines(
    text: str,
    diagnostics: Optional[list[HostsLineDiagnostic]],
    wanted: Optional[AbstractSet[str]],
) -> set[str]:
    """parse_hosts_list one line at a time, for every text."""
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
            if wanted is None or domain in wanted:
                domains.add(domain)
    return domains


def build_list(
    name: str, files: Sequence[str], wanted: Optional[AbstractSet[str]] = None
) -> BlockList:
    """Build a named blocklist from the union of one or more hosts files.

    With ``wanted``, the list holds only the entries in it (parse_hosts_list).
    """
    if not files:
        raise EmptyList(f"list {name!r} has no source files")
    parsed: list[set[str]] = []
    for path in files:
        try:
            with open(path, encoding="utf-8-sig", errors="replace") as fh:
                text = fh.read()
        except OSError as exc:
            raise FileUnreadable(str(path), exc.strerror or str(exc)) from exc
        diagnostics: list[HostsLineDiagnostic] = []
        parsed.append(parse_hosts_list(text, diagnostics, wanted))
        for diag in diagnostics:
            log.warning(
                "%s:%d: skipped %r (%s)", path, diag.line_no, diag.token, diag.reason
            )
    return BlockList(name=name, entries=frozenset().union(*parsed))


def match_keys(fqdn: str, mode: MatchMode) -> Sequence[str]:
    """The entries that could block the fqdn in the mode:
    exact: the name itself (faithful hosts-file semantics);
    suffix: the name and each of its dot-boundary parent domains.
    """
    if mode == "exact":
        return (fqdn,)
    if mode == "suffix":
        parts = fqdn.split(".")
        return [".".join(parts[i:]) for i in range(len(parts))]
    raise ValueError(f"unknown match mode {mode!r}")


def wanted_entries(names: Iterable[str]) -> set[str]:
    """The entries that could block any of the names in either match mode.

    Lists built with this wanted set answer every question about these
    names as the whole lists do.
    """
    return {key for name in names for key in match_keys(name, "suffix")}


def blocked_by(
    fqdn: str, lists: Sequence[BlockList], mode: MatchMode = "exact"
) -> frozenset[str]:
    """The names of the lists that block the fqdn; empty when none does.

    The entries that would block the name are worked out once
    (``match_keys``); a list blocks the name when it holds any of them.
    """
    keys = match_keys(fqdn, mode)
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
