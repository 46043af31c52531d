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

A non-ASCII rule also matches in its punycode form, its "twin". Most twins
hold an "xn--" label, so only a name holding "xn--" can match them; those
twins are built on the first lookup of such a name, and a process that never
sees one never loads the IDNA codec. A rule with a label that nameprep maps
to plain ASCII (a fullwidth letter, a ligature, "ß") has its twin built at
load, since any name may match it. Either way every answer is the one all
twins built at load would give.

Rules files use the canonical public_suffix_list.dat format: "//" comments,
"*." wildcards, "!" exceptions, and ICANN/PRIVATE section markers. A leading
byte order mark is ignored. A "*" counts only as the whole leftmost label
of a rule that is not an exception, the only wildcard the published list
uses; any other rule holding a "*" (``a.*.b``, ``*.*.d``, ``!*.c``) is
skipped.
"""

from __future__ import annotations

import re

from .text import is_ip_literal, normalize_fqdn

Labels = tuple[str, ...]
# Rules of one load, indexed like (normal, wildcard, exception).
RulesByKind = tuple[list[Labels], list[Labels], list[Labels]]

_ICANN_BEGIN = "===BEGIN ICANN DOMAINS==="
_ICANN_END = "===END ICANN DOMAINS==="
_PRIVATE_BEGIN = "===BEGIN PRIVATE DOMAINS==="
_PRIVATE_END = "===END PRIVATE DOMAINS==="

# Every non-ASCII code point that nameprep deletes or maps to plain ASCII
# (found by running encodings.idna.ToASCII over all of them), widened over
# the symbols between them: a label holding none of these gets an "xn--" form
# or none. Letters of ordinary scripts (ü, ø, Cyrillic, Arabic, CJK, kana)
# lie outside it. tests/test_psl.py checks it against ToASCII.
_MAY_MAP_TO_ASCII = re.compile(
    r"[\u00a0-\u00bf\u00df\u0132\u0133\u017f\u01c7-\u01cc\u01f1-\u01f3\u02b0-\u02ff"
    r"\u034f\u037e\u1806-\u180d\u1e9e\u1fef\u2000-\u2bff\u3000\u3200-\u33ff"
    r"\ufb00-\ufb4f\ufe00-\ufe6f\ufeff-\uff5e\U0001d400-\U0001d7ff]"
)


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
    drop their "!". Each set also holds the punycode twins built so far:
    ``deferred`` rules get theirs on the first lookup of a name holding
    "xn--" (``build_deferred_twins``), which grows the sets once. Lookups
    give the same answers before and after. ``len()`` is the number of
    rules as read, without twins.
    """

    __slots__ = ("normal", "wildcard", "exception", "_count", "_deferred")

    def __init__(
        self,
        normal: frozenset[Labels],
        wildcard: frozenset[Labels],
        exception: frozenset[Labels],
        deferred: RulesByKind | None = None,
    ) -> None:
        self.normal = normal
        self.wildcard = wildcard
        self.exception = exception
        self._count = len(normal) + len(wildcard) + len(exception)
        self._deferred = deferred

    def __len__(self) -> int:
        return self._count

    def _add_twins(self, rules: RulesByKind) -> None:
        """Hold the punycode twin of each of ``rules`` beside it."""
        self.normal, self.wildcard, self.exception = (
            held.union(filter(None, map(_punycode_twin, new))) if new else held
            for held, new in zip((self.normal, self.wildcard, self.exception), rules)
        )

    def build_deferred_twins(self) -> None:
        """Add the twins of the deferred rules, once."""
        if self._deferred:
            self._add_twins(self._deferred)
            self._deferred = None


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
    match in their punycoded form; most of those forms are built only once
    a punycoded name is looked up (see the module docstring). A "*" other
    than a non-exception rule's leftmost label skips its rule.
    """
    held: tuple[set[Labels], set[Labels], set[Labels]] = (set(), set(), set())
    eager: RulesByKind = ([], [], [])
    deferred: RulesByKind = ([], [], [])
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
        kind = 2 if is_exception else 1 if is_wildcard else 0
        held[kind].add(labels)
        if not rule.isascii():
            (eager if _MAY_MAP_TO_ASCII.search(rule) else deferred)[kind].append(labels)
    if not any(held):
        raise EmptyRuleSet("no rules parsed from PSL text")
    rules = SuffixRules(*map(frozenset, held), deferred=deferred if any(deferred) else None)
    if any(eager):
        rules._add_twins(eager)
    return rules


def load_psl_file(path: str, include_private: bool = True) -> SuffixRules:
    with open(path, encoding="utf-8-sig") as fh:
        return load_psl(fh.read(), include_private=include_private)


def _resolve(fqdn: str, rules: SuffixRules) -> tuple[Labels, int]:
    """A query name's labels and how many of them form its public suffix."""
    name = normalize_fqdn(fqdn)
    if not name:
        raise InvalidDomain("empty domain")
    if is_ip_literal(name):
        raise IpLiteral(f"{name} is an IP literal, not a domain")
    labels = tuple(name.split("."))
    if any(not lab for lab in labels):
        raise InvalidDomain(f"empty label in {fqdn!r}")
    if len(rules) == 0:
        raise NoMatch("rule set is empty")
    # A deferred twin holds an "xn--" label, so only such a name can match it.
    if "xn--" in name:
        rules.build_deferred_twins()
    return labels, _prevailing_suffix_len(labels, rules)


def public_suffix(fqdn: str, rules: SuffixRules) -> str:
    """The public suffix of a name under the loaded rules.

    Falls back to the implicit "*" rule (the last label) when no explicit
    rule matches, per the published algorithm.
    """
    labels, suffix_len = _resolve(fqdn, rules)
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
    labels, suffix_len = _resolve(fqdn, rules)
    if suffix_len >= len(labels):
        raise IsPublicSuffix(f"{'.'.join(labels)} is a public suffix")
    return ".".join(labels[len(labels) - suffix_len - 1:])
