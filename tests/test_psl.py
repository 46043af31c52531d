import itertools
import json
import os
import random
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
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

    def test_star_is_kept_only_as_the_leftmost_label_of_a_non_exception(self):
        """A rule with a "*" anywhere else is skipped: a.*.b would make
        a.q.b a public suffix, *.*.d would make p.q.d one, and !*.c would
        make x.q.c the eSLD q.c."""
        rules = load_psl("*.c\na.*.b\n*.*.d\n!*.c\n")
        assert (rules.normal, rules.wildcard, rules.exception) == (
            frozenset(), {("*", "c")}, frozenset()
        )
        assert esld("x.a.q.b", rules) == "q.b"
        assert esld("x.p.q.d", rules) == "q.d"
        assert esld("x.q.c", rules) == "x.q.c"

    def test_leading_exception_survives_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "psl.dat"
        path.write_text("!www.ck\n*.ck\n", encoding="utf-8-sig")
        assert esld("www.ck", psl.load_psl_file(str(path))) == "www.ck"

    def test_leading_private_marker_survives_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "psl.dat"
        path.write_text(
            "// ===BEGIN PRIVATE DOMAINS===\nblogspot.com\n// ===END PRIVATE DOMAINS===\ncom\n",
            encoding="utf-8-sig",
        )
        icann_only = psl.load_psl_file(str(path), include_private=False)
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


class TestDeferredTwins:
    """A non-ASCII rule's punycode twin is built on the first lookup of an
    "xn--" name, unless nameprep maps one of its labels to plain ASCII."""

    def test_ascii_lookups_load_no_idna_codec_and_an_xn_name_builds_the_twins(self):
        code = (
            "import json, sys\n"
            "from tvblock.psl import esld, load_psl_file\n"
            f"rules = load_psl_file({PSL_PATH!r})\n"
            "codec = ('encodings.idna', 'stringprep', 'unicodedata')\n"
            "answers = [esld(n, rules) for n in ('www.example.com', 'a.shop.公司.cn', 'shishi.中国')]\n"
            "before = [m for m in codec if m in sys.modules]\n"
            "size = len(rules)\n"
            "answers.append(esld('www.shop.xn--55qx5d.cn', rules))\n"
            "print(json.dumps([answers, before, size, len(rules), 'encodings.idna' in sys.modules]))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(psl.__file__)))
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=src),
        ).stdout
        answers, before, size, size_after, codec_after = json.loads(out)
        assert answers == ["example.com", "shop.公司.cn", "shishi.中国", "shop.xn--55qx5d.cn"]
        assert before == [] and codec_after
        assert size == size_after == 127  # rules as read, no twins

    @pytest.mark.parametrize(
        "rule,name,expected",
        [
            ("ｅｘａｍｐｌｅ.com", "a.b.example.com", ("b.example.com", "example.com")),
            ("faß.de", "a.b.fass.de", ("b.fass.de", "fass.de")),
            ("!ｗｗｗ.ck\n*.ck", "a.www.ck", ("www.ck", "ck")),
            ("*.ﬁ.no", "a.b.fi.no", ("a.b.fi.no", "b.fi.no")),
        ],
    )
    def test_rule_that_nameprep_maps_to_ascii_matches_ascii_names_at_once(self, rule, name, expected):
        rules = load_psl(rule)
        assert (esld(name, rules), public_suffix(name, rules)) == expected
        # Building the deferred twins changes no answer.
        rules.build_deferred_twins()
        assert (esld(name, rules), public_suffix(name, rules)) == expected

    def test_every_label_outside_the_screen_punycodes_to_xn_or_fails(self):
        """A deferred twin is exact only if every label of it starts with
        "xn--": any code point the screen lets through, beside an ASCII letter
        (so that a deletion shows), gives an "xn--" form or no form at all.
        Planes 0 and 1 in full, a sample of the rest."""
        from encodings.idna import ToASCII

        rest = random.Random(0).sample(range(0x20000, 0x110000), 5000)
        leaks = []
        for cp in itertools.chain(range(0x80, 0xD800), range(0xE000, 0x20000), rest):
            char = chr(cp)
            if psl._MAY_MAP_TO_ASCII.match(char):
                continue
            try:
                form = ToASCII("a" + char)
            except UnicodeError:
                continue
            if not form.startswith(b"xn--"):
                leaks.append(hex(cp))
        assert leaks == []
        # Letters of ordinary scripts stay deferred.
        assert not psl._MAY_MAP_TO_ASCII.search("üøåçжعשक公かカ한")


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
        assert failures == []


# -- properties ---------------------------------------------------------------

RULES = psl.load_psl_file(PSL_PATH)
# The same rules with every punycode twin built at load.
TWINNED = psl.load_psl_file(PSL_PATH)
TWINNED.build_deferred_twins()
# Every rule of the snapshot and every twin as a name suffix, wildcards
# filled in, so that generated names hit normal, wildcard and exception
# rules alike, in Unicode and in punycode.
SUFFIXES = sorted(
    ".".join("w" if label == "*" else label for label in rule)
    for rule in TWINNED.normal | TWINNED.wildcard | TWINNED.exception
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

    @given(st.lists(NAMES, min_size=1, max_size=4))
    def test_deferred_twins_answer_as_twins_built_at_load(self, names):
        fresh = psl.load_psl_file(PSL_PATH)

        def answers(rules):
            out = []
            for name in names:
                for lookup in (esld, public_suffix):
                    try:
                        out.append(lookup(name, rules))
                    except psl.PslError as exc:
                        out.append(type(exc).__name__)
            return out

        assert answers(fresh) == answers(TWINNED)


# -- against the published algorithm ------------------------------------------


def published_algorithm(rules, name):
    """(registrable domain or None, public suffix) of a name, by brute force.

    A transcription of the algorithm at publicsuffix.org/list/: every rule
    is tried against the name; a non-ASCII rule is tried in its Unicode and
    its punycode form. ``rules`` are rule texts as the list writes them.
    """
    labels = name.rstrip(".").lower().split(".")
    matching = []
    for rule in rules:
        is_exception = rule.startswith("!")
        unicode_form = rule.lstrip("!").split(".")
        punycode_form = [lab.encode("idna").decode("ascii") for lab in unicode_form]
        for form in (unicode_form, punycode_form):
            if len(form) <= len(labels) and all(
                r in ("*", d) for r, d in zip(reversed(form), reversed(labels))
            ):
                matching.append((is_exception, form))
    exceptions = [form for is_exception, form in matching if is_exception]
    if exceptions:  # an exception prevails, the one with the most labels, minus its leftmost
        suffix_len = max(map(len, exceptions)) - 1
    elif matching:  # otherwise the rule with the most labels
        suffix_len = max(len(form) for _, form in matching)
    else:  # the implicit "*" rule
        suffix_len = 1
    suffix = ".".join(labels[len(labels) - suffix_len:])
    if suffix_len >= len(labels):
        return None, suffix
    return ".".join(labels[len(labels) - suffix_len - 1:]), suffix


# Few labels, so rules nest and overlap; "ü" is punycoded as "xn--tda".
RULE = st.builds(
    lambda kind, labels: kind + ".".join(labels),
    st.sampled_from(["", "*.", "!"]),
    st.lists(st.sampled_from(["a", "b", "c", "ü"]), min_size=1, max_size=3),
)
QUERY = st.builds(
    lambda labels, dot: ".".join(lab.upper() if upper else lab for lab, upper in labels) + dot,
    st.lists(
        st.tuples(st.sampled_from(["a", "b", "c", "x", "ü", "xn--tda"]), st.booleans()),
        min_size=1,
        max_size=5,
    ),
    st.sampled_from(["", "."]),
)


class TestAgainstPublishedAlgorithm:
    @settings(max_examples=300)
    @given(
        st.lists(RULE, min_size=1, max_size=8),
        st.lists(RULE, max_size=4),
        st.booleans(),
        st.lists(QUERY, min_size=1, max_size=10),
    )
    # A shorter exception prevails over a longer normal rule that matches.
    @example(["*.c", "!b.c", "a.b.c"], [], True, ["x.a.b.c"])
    def test_esld_and_public_suffix_agree(self, icann, private, include_private, names):
        text = "\n".join(
            icann + ["// ===BEGIN PRIVATE DOMAINS==="] + private + ["// ===END PRIVATE DOMAINS==="]
        )
        rules = load_psl(text, include_private=include_private)
        wanted = icann + private if include_private else icann
        for name in names:
            registrable, suffix = published_algorithm(wanted, name)
            assert public_suffix(name, rules) == suffix, name
            if registrable is None:
                with pytest.raises(IsPublicSuffix):
                    esld(name, rules)
            else:
                assert esld(name, rules) == registrable, name
