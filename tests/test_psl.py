import json
import os
import random
import re
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tvblock import psl
from tvblock.psl import (
    EmptyRuleSet,
    IpLiteral,
    IsPublicSuffix,
    NoMatch,
    SuffixRules,
    esld,
    load_psl,
    public_suffix,
)

from tvblock.traffic import normalize_fqdn

from conftest import PSL_PATH, PSL_VECTORS_PATH

VECTOR_RE = re.compile(r"checkPublicSuffix\((null|'([^']*)'),\s*(null|'([^']*)')\)")


def load_vectors():
    cases = []
    with open(PSL_VECTORS_PATH, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("//"):
                continue
            m = VECTOR_RE.search(line)
            if not m or m.group(1) == "null":
                continue
            expected = None if m.group(3) == "null" else m.group(4)
            cases.append((m.group(2), expected))
    return cases


class TestLoadPsl:
    def test_two_normal_rules(self):
        rules = load_psl("com\nco.uk\n")
        assert len(rules.normal) == 2
        assert not rules.wildcard and not rules.exception

    def test_wildcard_and_exception(self):
        rules = load_psl("*.ck\n!www.ck\n")
        assert len(rules.wildcard) == 1
        assert len(rules.exception) == 1

    def test_comments_and_blank_lines_skipped(self):
        rules = load_psl("// a comment\n\ncom\n")
        assert len(rules.normal) == 1

    def test_empty_input_raises(self):
        with pytest.raises(EmptyRuleSet):
            load_psl("// only comments\n")

    def test_private_section_flag(self, rules):
        icann_only = psl.load_psl_file(
            __import__("conftest").PSL_PATH, include_private=False
        )
        # blogspot.com is a private-section rule
        assert esld("foo.blogspot.com", rules) == "foo.blogspot.com"
        assert esld("foo.blogspot.com", icann_only) == "blogspot.com"


class TestEsld:
    @pytest.mark.parametrize(
        "fqdn,expected",
        [
            ("pubads.g.doubleclick.net", "doubleclick.net"),
            ("hulu.com", "hulu.com"),
            ("WWW.Example.COM.", "example.com"),
            ("static.bbc.co.uk", "bbc.co.uk"),
            ("api.sr.roku.com", "roku.com"),
        ],
    )
    def test_examples(self, rules, fqdn, expected):
        assert esld(fqdn, rules) == expected

    def test_public_suffix_itself_errors(self, rules):
        with pytest.raises(IsPublicSuffix):
            esld("co.uk", rules)

    def test_ip_literal_rejected(self, rules):
        with pytest.raises(IpLiteral):
            esld("192.168.1.1", rules)
        with pytest.raises(IpLiteral):
            esld("::1", rules)

    def test_empty_rule_set_is_nomatch(self):
        empty = SuffixRules(frozenset(), frozenset(), frozenset())
        with pytest.raises(NoMatch):
            esld("example.com", empty)

    def test_unknown_tld_falls_back_to_last_two_labels(self, rules):
        assert esld("a.b.example.madeuptld", rules) == "example.madeuptld"

    def test_idempotent_where_defined(self, rules):
        rng = random.Random(7)
        suffixes = ["com", "co.uk", "net", "tv", "kyoto.jp", "ide.kyoto.jp"]
        for _ in range(200):
            labels = [
                "lab" + str(rng.randrange(50))
                for _ in range(rng.randrange(1, 4))
            ]
            name = ".".join(labels + [rng.choice(suffixes)])
            result = esld(name, rules)
            assert esld(result, rules) == result

    def test_result_is_dot_boundary_suffix(self, rules):
        rng = random.Random(9)
        for _ in range(200):
            name = ".".join(
                f"l{rng.randrange(30)}" for _ in range(rng.randrange(2, 5))
            ) + ".com"
            result = esld(name, rules)
            assert name == result or name.endswith("." + result)

    def test_public_suffix_helper(self, rules):
        assert public_suffix("a.b.example.co.uk", rules) == "co.uk"
        assert public_suffix("x.whatever.madeuptld", rules) == "madeuptld"

    def test_exception_with_most_labels_prevails_under_any_hash_seed(self):
        """Two exception rules match x.a.b.c.d; the longer one, !a.b.c.d,
        prevails, whatever order the interpreter's hash seed gives the rules."""
        code = (
            "import json\n"
            "from tvblock.psl import esld, load_psl, public_suffix\n"
            "rules = load_psl('*.c.d\\n!b.c.d\\n*.b.c.d\\n!a.b.c.d\\n')\n"
            "print(json.dumps([esld('x.a.b.c.d', rules), public_suffix('x.a.b.c.d', rules)]))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(psl.__file__)))
        answers = {
            seed: json.loads(subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, check=True,
                env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
            ).stdout)
            for seed in ("0", "1")
        }
        assert answers == {"0": ["a.b.c.d", "b.c.d"], "1": ["a.b.c.d", "b.c.d"]}


class TestOfficialVectors:
    def test_conformance(self, rules):
        cases = load_vectors()
        assert len(cases) >= 70
        failures = []
        for domain, expected in cases:
            try:
                got = esld(domain, rules)
            except psl.PslError:
                got = None
            if got != expected:
                failures.append((domain, expected, got))
        passed = len(cases) - len(failures)
        assert passed / len(cases) >= 0.95, failures


# -- properties ---------------------------------------------------------------

RULES = psl.load_psl_file(PSL_PATH)
# Every rule of the snapshot as a name suffix, wildcards filled in, so that
# generated names hit normal, wildcard and exception rules alike.
SUFFIXES = sorted(
    ".".join("w" if label == "*" else label for label in rule)
    for rule in RULES.normal | RULES.wildcard | RULES.exception
)
LABEL = st.text(alphabet="abcxyz019-", min_size=1, max_size=6)
NAMES = st.one_of(
    st.builds(
        lambda labels, suffix, upper, dot: (
            ".".join(labels + [suffix]).upper() if upper else ".".join(labels + [suffix])
        ) + dot,
        st.lists(LABEL, max_size=3),
        st.sampled_from(SUFFIXES + ["madeuptld"]),
        st.booleans(),
        st.sampled_from(["", "."]),
    ),
    st.sampled_from(["", ".", "..", "a..b.com", " com ", "10.0.0.1", "::1", "[::1]"]),
    st.text(max_size=20),
)


class TestEsldProperties:
    @given(NAMES)
    def test_fails_only_with_psl_errors(self, name):
        try:
            esld(name, RULES)
        except psl.PslError:
            pass

    @given(NAMES)
    def test_idempotent_where_it_succeeds(self, name):
        try:
            result = esld(name, RULES)
        except psl.PslError:
            return
        assert esld(result, RULES) == result

    @given(NAMES)
    def test_result_is_dot_boundary_suffix_of_normalized_input(self, name):
        try:
            result = esld(name, RULES)
        except psl.PslError:
            return
        normalized = normalize_fqdn(name)
        assert normalized == result or normalized.endswith("." + result)
