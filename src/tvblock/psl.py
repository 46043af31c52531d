"""Effective second-level domain extraction via Public Suffix List rules.

Implements the published lookup algorithm: among all rules matching a name,
an exception rule prevails; otherwise the rule with the most labels does.
Where two exception rules match, the one with the most labels prevails, so
the answer never depends on the order in which rules are held.
When nothing matches, the implicit "*" rule applies (the last label is the
public suffix). The registrable domain (eSLD) is the matched public suffix
plus one more label.

A lookup is one walk over the name's suffixes, shortest first, with three
set lookups per suffix, so its cost grows with the name's labels and not
with the number of rules.

Rules files use the canonical public_suffix_list.dat format: "//" comments,
"*." wildcards, "!" exceptions, and ICANN/PRIVATE section markers. A leading
byte order mark is ignored. A "*" counts only as the whole leftmost label
of a rule that is not an exception, the only wildcard the published list
uses; any other rule holding a "*" (``a.*.b``, ``*.*.d``, ``!*.c``) is
skipped.
"""

from __future__ import annotations

from .text import is_ip_literal, normalize_fqdn

Labels = tuple[str, ...]

_ICANN_BEGIN = "===BEGIN ICANN DOMAINS==="
_ICANN_END = "===END ICANN DOMAINS==="
_PRIVATE_BEGIN = "===BEGIN PRIVATE DOMAINS==="
_PRIVATE_END = "===END PRIVATE DOMAINS==="


class PslError(ValueError):
    pass


class EmptyRuleSet(PslError):
    """No rules parsed from the given rules text."""


class IsPublicSuffix(PslError):
    """The queried name is itself a public suffix and has no registrable part."""


class IpLiteral(PslError):
    """The queried name is an IP address, which has no eSLD."""


class InvalidDomain(PslError):
    """The queried name is not a syntactically valid domain."""


class NoMatch(PslError):
    """Lookup attempted against an empty rule set."""


class SuffixRules:
    """Parsed PSL rules as label tuples, partitioned by rule class.

    ``wildcard`` rules keep their leading "*" label; ``exception`` rules
    drop their "!". ``len()`` is the rule count. Immutable after load;
    lookups are pure.
    """

    __slots__ = ("normal", "wildcard", "exception")

    def __init__(
        self,
        normal: frozenset[Labels],
        wildcard: frozenset[Labels],
        exception: frozenset[Labels],
    ) -> None:
        self.normal = normal
        self.wildcard = wildcard
        self.exception = exception

    def __len__(self) -> int:
        return len(self.normal) + len(self.wildcard) + len(self.exception)


def _punycode_twin(labels: Labels) -> Labels | None:
    """ASCII (xn--) form of a rule containing non-ASCII labels, if encodable."""
    out = []
    changed = False
    for label in labels:
        if label == "*" or label.isascii():
            out.append(label)
            continue
        try:
            out.append(label.encode("idna").decode("ascii"))
            changed = True
        except UnicodeError:
            return None
    return tuple(out) if changed else None


def load_psl(text: str, include_private: bool = True) -> SuffixRules:
    """Parse PSL rules text into a SuffixRules lookup structure.

    Both the ICANN and PRIVATE sections load by default; pass
    include_private=False to restrict to ICANN rules. Rules outside any
    section marker (ad-hoc files) are treated as ICANN. Non-ASCII rules also
    register their punycoded form so punycoded query names match. A "*"
    other than a non-exception rule's leftmost label skips its rule.
    """
    normal: set[Labels] = set()
    wildcard: set[Labels] = set()
    exception: set[Labels] = set()
    section = "icann"
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line:
            continue
        if line.startswith("//"):
            if _ICANN_BEGIN in line:
                section = "icann"
            elif _PRIVATE_BEGIN in line:
                section = "private"
            elif _ICANN_END in line or _PRIVATE_END in line:
                section = "icann"
            continue
        if section == "private" and not include_private:
            continue
        rule = line.split()[0].lower()
        is_exception = rule.startswith("!")
        if is_exception:
            rule = rule[1:]
        labels = tuple(lab for lab in rule.split(".") if lab)
        if not labels:
            continue
        is_wildcard = labels[0] == "*" and not is_exception
        if "*" in "".join(labels[1:] if is_wildcard else labels):
            continue
        target = exception if is_exception else wildcard if is_wildcard else normal
        target.add(labels)
        twin = _punycode_twin(labels)
        if twin:
            target.add(twin)
    if not normal and not wildcard and not exception:
        raise EmptyRuleSet("no rules parsed from PSL text")
    return SuffixRules(frozenset(normal), frozenset(wildcard), frozenset(exception))


def load_psl_file(path: str, include_private: bool = True) -> SuffixRules:
    with open(path, encoding="utf-8-sig") as fh:
        return load_psl(fh.read(), include_private=include_private)


def _normalize_query(fqdn: str) -> Labels:
    name = normalize_fqdn(fqdn)
    if not name:
        raise InvalidDomain("empty domain")
    if is_ip_literal(name):
        raise IpLiteral(f"{name} is an IP literal, not a domain")
    labels = tuple(name.split("."))
    if any(not lab for lab in labels):
        raise InvalidDomain(f"empty label in {fqdn!r}")
    return labels


def public_suffix(fqdn: str, rules: SuffixRules) -> str:
    """The public suffix of a name under the loaded rules.

    Falls back to the implicit "*" rule (the last label) when no explicit
    rule matches, per the published algorithm.
    """
    labels = _normalize_query(fqdn)
    if len(rules) == 0:
        raise NoMatch("rule set is empty")
    suffix_len = _prevailing_suffix_len(labels, rules)
    return ".".join(labels[len(labels) - suffix_len:])


def _prevailing_suffix_len(labels: Labels, rules: SuffixRules) -> int:
    """Labels in the public suffix: one walk over the suffixes, shortest first.

    A matched exception prevails, the longest one where several match;
    otherwise the longest matched rule does, or the implicit "*" rule.
    """
    best_len = 1  # implicit "*" rule
    exception_len = None
    for n in range(1, len(labels) + 1):
        tail = labels[-n:]
        if tail in rules.exception:
            exception_len = n - 1
        if tail in rules.normal or ("*",) + tail[1:] in rules.wildcard:
            best_len = n
    return best_len if exception_len is None else exception_len


def esld(fqdn: str, rules: SuffixRules) -> str:
    """The registrable domain of a name: its public suffix plus one label.

    Idempotent where it succeeds, and always a dot-boundary suffix of the
    input. Raises IsPublicSuffix when the name itself is a public suffix,
    IpLiteral for addresses, and NoMatch against an empty rule set.
    """
    labels = _normalize_query(fqdn)
    if len(rules) == 0:
        raise NoMatch("rule set is empty")
    suffix_len = _prevailing_suffix_len(labels, rules)
    if suffix_len >= len(labels):
        raise IsPublicSuffix(f"{'.'.join(labels)} is a public suffix")
    return ".".join(labels[len(labels) - suffix_len - 1:])
