"""Effective second-level domain extraction via Public Suffix List rules.

Implements the published lookup algorithm: among all rules matching a name,
an exception rule prevails; otherwise the rule with the most labels does.
Where two exception rules match, the one with the most labels prevails, so
the answer never depends on the order in which rules are held.
When nothing matches, the implicit "*" rule applies (the last label is the
public suffix). The registrable domain (eSLD) is the matched public suffix
plus one more label.

Rules files use the canonical public_suffix_list.dat format: "//" comments,
"*." wildcards, "!" exceptions, and ICANN/PRIVATE section markers.
"""

from __future__ import annotations

from typing import Optional

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
    """Parsed PSL rules, partitioned by rule class; ``len()`` is the rule count.

    ``by_tld`` indexes every rule (as label tuples, wildcards kept as "*")
    under its rightmost label for fast candidate lookup. Immutable after
    load; lookups are pure.
    """

    __slots__ = ("normal", "wildcard", "exception", "by_tld")

    def __init__(
        self,
        normal: frozenset[Labels],
        wildcard: frozenset[Labels],
        exception: frozenset[Labels],
        by_tld: Optional[dict[str, tuple[tuple[Labels, bool], ...]]] = None,
    ) -> None:
        self.normal = normal
        self.wildcard = wildcard
        self.exception = exception
        self.by_tld = {} if by_tld is None else by_tld

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
    register their punycoded form so punycoded query names match.
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
        forms = [labels]
        twin = _punycode_twin(labels)
        if twin:
            forms.append(twin)
        for form in forms:
            if is_exception:
                exception.add(form)
            elif "*" in form:
                wildcard.add(form)
            else:
                normal.add(form)
    if not normal and not wildcard and not exception:
        raise EmptyRuleSet("no rules parsed from PSL text")

    by_tld: dict[str, list[tuple[Labels, bool]]] = {}
    for labels in normal | wildcard:
        by_tld.setdefault(labels[-1], []).append((labels, False))
    for labels in exception:
        by_tld.setdefault(labels[-1], []).append((labels, True))
    frozen_index = {tld: tuple(rules) for tld, rules in by_tld.items()}
    return SuffixRules(
        normal=frozenset(normal),
        wildcard=frozenset(wildcard),
        exception=frozenset(exception),
        by_tld=frozen_index,
    )


def load_psl_file(path: str, include_private: bool = True) -> SuffixRules:
    with open(path, encoding="utf-8") as fh:
        return load_psl(fh.read(), include_private=include_private)


def _rule_matches(rule: Labels, domain: Labels) -> bool:
    """A rule matches when it aligns with the domain's rightmost labels."""
    if len(rule) > len(domain):
        return False
    tail = domain[len(domain) - len(rule):]
    return all(r == "*" or r == d for r, d in zip(rule, tail))


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
    candidates = rules.by_tld.get(labels[-1], ())
    best_len = 0
    exception_len = None
    for rule, is_exception in candidates:
        if not _rule_matches(rule, labels):
            continue
        if is_exception:
            if exception_len is None or len(rule) - 1 > exception_len:
                exception_len = len(rule) - 1
        else:
            best_len = max(best_len, len(rule))
    if exception_len is not None:
        return exception_len
    if best_len == 0:
        best_len = 1  # implicit "*" rule
    return best_len


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
