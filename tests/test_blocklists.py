import glob
import ipaddress
import os
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tvblock.blocklists import (
    LOOPBACK_NAMES,
    MATCH_MODES,
    BlockList,
    EmptyList,
    FileUnreadable,
    HostsLineDiagnostic,
    blocked_by,
    build_list,
    is_blocked,
    parse_hosts_list,
    union_lists,
    wanted_entries,
)
from tvblock.traffic import normalize_fqdn

from conftest import DATA_DIR


class TestParseHostsList:
    def test_ip_prefixed_entry(self):
        assert parse_hosts_list("0.0.0.0 ads.example.com") == {"ads.example.com"}

    def test_loopback_names_excluded(self):
        assert parse_hosts_list("# c\n127.0.0.1 localhost\n") == set()
        assert parse_hosts_list("::1 localhost ip6-localhost\n") == set()

    def test_bare_domain_with_comment(self):
        assert parse_hosts_list("Tracker.Example.COM # note") == {
            "tracker.example.com"
        }

    def test_multiple_hostnames_per_line(self):
        assert parse_hosts_list("0.0.0.0 a.com b.com") == {"a.com", "b.com"}

    def test_unparseable_tokens_skipped_with_diagnostics(self):
        diags: list[HostsLineDiagnostic] = []
        out = parse_hosts_list("0.0.0.0 good.com\n0.0.0.0 bad^host\n", diags)
        assert out == {"good.com"}
        assert len(diags) == 1 and diags[0].line_no == 2

    def test_order_and_duplicates_do_not_matter(self):
        rng = random.Random(3)
        lines = [f"0.0.0.0 host{i}.example.net" for i in range(30)]
        lines += lines[:10]  # duplicates
        shuffled = lines[:]
        rng.shuffle(shuffled)
        assert parse_hosts_list("\n".join(lines)) == parse_hosts_list(
            "\n".join(shuffled)
        )


class TestBuildList:
    def test_union_of_files(self, tmp_path):
        f1 = tmp_path / "a.txt"
        f1.write_text("0.0.0.0 a.com\n")
        f2 = tmp_path / "b.txt"
        f2.write_text("0.0.0.0 a.com\n0.0.0.0 b.com\n")
        bl = build_list("PD", [str(f1), str(f2)])
        assert bl.entries == {"a.com", "b.com"}
        assert bl.entry_count == 2

    def test_empty_file_list_raises(self):
        with pytest.raises(EmptyList):
            build_list("PD", [])

    def test_unreadable_file_raises(self, tmp_path):
        with pytest.raises(FileUnreadable):
            build_list("PD", [str(tmp_path / "missing.txt")])

    @pytest.mark.parametrize(
        "text",
        [
            "\ufeffads.example.com\ntrack.example.net\n",
            "\ufeff0.0.0.0 ads.example.com\r\n0.0.0.0 track.example.net\r\n",
        ],
        ids=["bare-domain", "hosts"],
    )
    def test_byte_order_mark_is_not_read_as_text(self, tmp_path, capsys, text):
        path = tmp_path / "bom.txt"
        path.write_text(text, encoding="utf-8", newline="")
        assert build_list("L", [str(path)]).entries == {"ads.example.com", "track.example.net"}
        assert "skipped" not in capsys.readouterr().err

    def test_fixture_hand_count(self, tmp_path):
        # 5 files, 12 raw lines total: 1 comment + 11 entries of which 2 are
        # duplicates -> 9 unique entries
        contents = [
            "# pd default source\n0.0.0.0 one.com\n0.0.0.0 two.com\n",
            "0.0.0.0 three.com\n0.0.0.0 one.com\n",
            "four.com\nfive.com\n",
            "0.0.0.0 six.com\n0.0.0.0 two.com\n",
            "seven.com\neight.com\n0.0.0.0 nine.com\n",
        ]
        assert sum(len(c.splitlines()) for c in contents) == 12
        paths = []
        for i, text in enumerate(contents):
            p = tmp_path / f"f{i}.txt"
            p.write_text(text)
            paths.append(str(p))
        bl = build_list("fixture", paths)
        assert bl.entry_count == 9
        assert "one.com" in bl.entries and "nine.com" in bl.entries

    def test_wanted_set_keeps_its_entries_and_every_warning(self, tmp_path, capsys):
        path = tmp_path / "l.txt"
        path.write_text("0.0.0.0 ads.example.com\n0.0.0.0 bad^host\nexample.net\nother.org\n")
        full = build_list("L", [str(path)])
        full_log = capsys.readouterr().err
        kept = build_list("L", [str(path)], wanted_entries(["x.ads.example.com", "other.org"]))
        assert full.entries == {"ads.example.com", "example.net", "other.org"}
        assert kept == BlockList("L", frozenset({"ads.example.com", "other.org"}))
        assert "skipped 'bad^host'" in full_log and capsys.readouterr().err == full_log


class TestIsBlocked:
    LIST = BlockList("L", frozenset({"ads.example.com", "example.com"}))

    def test_exact_hit(self):
        assert is_blocked("ads.example.com", self.LIST, "exact")

    def test_subdomain_misses_exact_but_hits_suffix(self):
        assert not is_blocked("sub.ads.example.com", self.LIST, "exact")
        assert is_blocked("sub.ads.example.com", self.LIST, "suffix")

    def test_dot_boundary_required(self):
        assert not is_blocked("adsxexample.com", self.LIST, "suffix")
        assert not is_blocked("notexample.com", self.LIST, "suffix")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            is_blocked("a.com", self.LIST, "fuzzy")


class TestBlockedBy:
    def test_table_pattern_verdict(self, fixture_lists):
        assert blocked_by("data.ad-score.com", fixture_lists) == {"PD", "TF"}

    def test_unlisted_domain_has_empty_verdict(self, fixture_lists):
        assert blocked_by("wholesome.example.org", fixture_lists) == frozenset()

    def test_domain_on_every_list(self, fixture_lists):
        assert blocked_by("ads.yahoo.com", fixture_lists) == {"PD", "TF", "MoaAB", "SATV"}


def _random_domain(rng: random.Random) -> str:
    labels = [
        rng.choice(["ads", "cdn", "img", "api", "trk", "x", "media"])
        + str(rng.randrange(8))
        for _ in range(rng.randrange(1, 4))
    ]
    return ".".join(labels + [rng.choice(["example.com", "site.net", "tracker.org"])])


def _linear_scan(fqdn: str, entries, mode: str) -> bool:
    for entry in entries:
        if mode == "exact":
            if fqdn == entry:
                return True
        else:
            if fqdn == entry or fqdn.endswith("." + entry):
                return True
    return False


class TestOracleEquivalence:
    def test_matches_linear_scan_on_random_fixtures(self):
        rng = random.Random(42)
        lists = []
        for name in ["PD", "TF", "MoaAB", "SATV"]:
            entries = frozenset(_random_domain(rng) for _ in range(150))
            lists.append(BlockList(name, entries))
        domains = [_random_domain(rng) for _ in range(1000)]
        for domain in domains:
            for bl in lists:
                for mode in ("exact", "suffix"):
                    assert is_blocked(domain, bl, mode) == _linear_scan(
                        domain, bl.entries, mode
                    ), (domain, bl.name, mode)

    def test_union_monotonicity(self):
        rng = random.Random(99)
        pool = [
            BlockList(f"L{i}", frozenset(_random_domain(rng) for _ in range(60)))
            for i in range(8)
        ]
        for _ in range(10_000):
            fqdn = _random_domain(rng)
            l1, l2 = rng.sample(pool, 2)
            union = union_lists([l1, l2])
            for mode in ("exact", "suffix"):
                assert is_blocked(fqdn, union, mode) == (
                    is_blocked(fqdn, l1, mode) or is_blocked(fqdn, l2, mode)
                )

    def test_exact_blocked_subset_of_suffix_blocked(self):
        rng = random.Random(17)
        bl = BlockList("L", frozenset(_random_domain(rng) for _ in range(200)))
        for _ in range(2000):
            fqdn = _random_domain(rng)
            if is_blocked(fqdn, bl, "exact"):
                assert is_blocked(fqdn, bl, "suffix")


def _is_address(value: str) -> bool:
    try:
        ipaddress.ip_address(value)
    except ValueError:
        return False
    return True


def _reference_parse(text: str):
    """parse_hosts_list's contract, with ipaddress asked about every token."""
    domains, diags = set(), []
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        tokens = raw_line.split("#", 1)[0].split()
        if tokens and _is_address(tokens[0]):
            tokens = tokens[1:]
        for token in tokens:
            domain = normalize_fqdn(token)
            if not domain or domain in LOOPBACK_NAMES:
                continue
            if _is_address(domain) or not re.fullmatch(r"[a-z0-9_-]+(\.[a-z0-9_-]+)*", domain):
                diags.append(HostsLineDiagnostic(line_no, token, "not a domain name"))
            else:
                domains.add(domain)
    return domains, diags


def _parse(text: str):
    diags: list[HostsLineDiagnostic] = []
    return parse_hosts_list(text, diags), diags


DOMAINS = (
    st.lists(st.text("abcxyz0189_-", min_size=1, max_size=8), min_size=1, max_size=4)
    .map(".".join)
    .filter(lambda d: d not in LOOPBACK_NAMES and not _is_address(d))
)
ADDRESS = st.sampled_from(["0.0.0.0", "127.0.0.1", "::", "::1", "fe80::1%lo"])
NOISE = st.sampled_from(
    ["", "   ", "# comment", "  # 0.0.0.0 commented.example", "127.0.0.1 localhost",
     "::1 localhost ip6-localhost", "0.0.0.0 broadcasthost", "localhost"]
)
TOKEN = st.one_of(
    DOMAINS,
    ADDRESS,
    st.sampled_from(["1.2.3.4", "01.2.3.4", "::ffff:1.2.3.4", "bad^host", "Ads.Example.COM.",
                     "x1.y2", "1.2.3.\u0664", "a:b", "localhost", "#", "9.9.9.9."]),
    st.text(st.characters(exclude_categories=["Zs", "Cc"]), min_size=1, max_size=12),
)
# Line breaks of str.splitlines; TOKEN_GAP's \x1f splits tokens, not lines.
LINE_BREAK = st.sampled_from(
    ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028"]
)
TOKEN_GAP = st.sampled_from([" ", "\t", "  ", "\x1f"])
EDGE_TOKEN = st.sampled_from(
    [
        "\u212a.com",  # lowers to the ASCII k.com and is kept
        "\u212a\u212b.com",  # lowers to a name that is not ASCII
        "\u00e9t\u00e9.com",
        "1.2.3.4.", "0.0.0.0.", "FE80::1", "fe80::1%lo0", "0.0.0.0", "127.0.0.1",
        "..", ".", ".lead.com", "a..b.com", "LocalHost.", "Ads.Example.COM.", "x1.y2",
    ]
)
EDGE_LINE = st.one_of(
    st.tuples(st.lists(st.one_of(EDGE_TOKEN, TOKEN), min_size=1, max_size=3), TOKEN_GAP).map(
        lambda drawn: drawn[1].join(drawn[0])
    ),
    # An address that is not first on its line.
    st.tuples(DOMAINS, ADDRESS).map(" ".join),
    st.tuples(ADDRESS, ADDRESS, DOMAINS).map(" ".join),
    ADDRESS,
)
COMMENT = st.sampled_from(["", "", " # note", "#x", "\t# 0.0.0.0 commented.example"])


@st.composite
def long_hosts_texts(draw):
    """A few hundred clean hosts and bare-domain lines with either a few edge
    lines or one drawn line break in a few places, each after a comment and
    before a bare name, so that a break the parse misses hides that name."""
    n = draw(st.integers(200, 400))
    lines = [f"0.0.0.0 h{i}.example.com" if i % 2 else f"h{i}.example.net" for i in range(n)]
    breaks = ["\n"] * n
    if draw(st.booleans()):
        for i, line, comment in draw(
            st.lists(st.tuples(st.integers(0, n - 1), EDGE_LINE, COMMENT), min_size=1, max_size=3)
        ):
            lines[i] = line + comment
    else:
        # A lone "\r" and the breaks outside ASCII are drawn most: each can
        # sit in a text that is otherwise plain LF-ended ASCII.
        line_break = draw(
            st.one_of(st.just("\r"), st.sampled_from(["\x85", "\u2028"]), LINE_BREAK)
        )
        for i in draw(st.lists(st.integers(0, n - 2), min_size=1, max_size=3)):
            lines[i] += " # note"
            lines[i + 1] = f"after{i}.example.org"
            breaks[i] = line_break
    return "".join(line + line_break for line, line_break in zip(lines, breaks))


class TestParseHostsListProperties:
    @given(st.data(), st.sets(DOMAINS, max_size=15))
    def test_rendered_entry_set_round_trips(self, data, entries):
        lines = []
        for entry in sorted(entries):
            lines.extend(data.draw(st.lists(NOISE, max_size=2)))
            name = data.draw(st.sampled_from([entry, entry.upper(), entry + "."]))
            prefix = data.draw(st.one_of(st.just(""), ADDRESS.map("{} ".format)))
            comment = data.draw(st.sampled_from(["", "  # note", "\t#x"]))
            lines.append(prefix + name + comment)
        diags: list[HostsLineDiagnostic] = []
        assert parse_hosts_list("\n".join(lines), diags) == entries
        assert diags == []

    @given(st.lists(st.lists(TOKEN, max_size=4).map(" ".join), max_size=12).map("\n".join))
    def test_matches_reference_on_arbitrary_lines(self, text):
        assert _parse(text) == _reference_parse(text)

    @given(
        st.lists(
            st.tuples(st.one_of(EDGE_LINE, st.lists(TOKEN, max_size=3).map(" ".join)), COMMENT),
            max_size=12,
        ),
        st.lists(LINE_BREAK, min_size=12, max_size=12),
    )
    def test_matches_reference_on_edge_lines_and_breaks(self, lines, breaks):
        text = "".join(line + comment + b for (line, comment), b in zip(lines, breaks))
        assert _parse(text) == _reference_parse(text)

    @given(long_hosts_texts())
    def test_matches_reference_on_long_texts(self, text):
        assert _parse(text) == _reference_parse(text)

    @pytest.mark.parametrize(
        "path", sorted(glob.glob(os.path.join(DATA_DIR, "lists", "*"))), ids=os.path.basename
    )
    def test_matches_reference_on_fixture_lists(self, path):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        entries, diags = _parse(text)
        assert entries
        assert (entries, diags) == _reference_parse(text)


# Few labels, so names often sit under one another and lists overlap.
NAMES = st.lists(st.sampled_from(["a", "b", "ads", "x-1"]), min_size=1, max_size=4).map(".".join)
LISTS = st.lists(st.frozensets(NAMES, max_size=8), min_size=1, max_size=4).map(
    lambda sets: [BlockList(f"L{i}", entries) for i, entries in enumerate(sets)]
)


class TestMatchProperties:
    @given(NAMES, st.frozensets(NAMES, max_size=8))
    def test_exact_block_implies_suffix_block(self, fqdn, entries):
        bl = BlockList("L", entries)
        if is_blocked(fqdn, bl, "exact"):
            assert is_blocked(fqdn, bl, "suffix")

    @given(NAMES, LISTS, st.sampled_from(["exact", "suffix"]))
    def test_blocked_by_matches_per_list_brute_force(self, fqdn, lists, mode):
        expected = {bl.name for bl in lists if _linear_scan(fqdn, bl.entries, mode)}
        assert blocked_by(fqdn, lists, mode) == expected

    @given(LISTS)
    def test_union_entries_are_the_set_union(self, lists):
        assert union_lists(lists).entries == set().union(*(bl.entries for bl in lists))


# Lists over the labels that capture names are drawn from, so that entries
# are often a name or one of its parents. A line with a token that only the
# line loop takes (a line break other than LF, text that is not ASCII, a
# token it reports, an address that does not open its line) is drawn half
# the time, so the whole-text pass and the line loop both meet a wanted set.
LIST_LABELS = ["a", "b", "ads", "x-1", "4"]
LIST_NAMES = st.lists(st.sampled_from(LIST_LABELS), min_size=1, max_size=4).map(".".join)
LIST_LINE = st.tuples(
    st.sampled_from(["", "0.0.0.0 ", "::1 "]),
    st.lists(
        st.one_of(LIST_NAMES, LIST_NAMES.map(str.upper), LIST_NAMES.map("{}.".format)),
        min_size=1,
        max_size=3,
    ).map(" ".join),
    st.sampled_from(["", " # note"]),
).map("".join)
LOOP_LINE = st.sampled_from(
    ["0.0.0.0 bad^host a.b", "\u212a.ads b.ads", "a.b 0.0.0.0", "0.0.0.0 A.ADS\x85b.a", "ads.4\rb"]
)


@st.composite
def list_texts(draw):
    lines = draw(st.lists(LIST_LINE, max_size=10))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(LOOP_LINE))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines)


CAPTURE_NAMES = st.lists(
    st.one_of(LIST_NAMES, st.sampled_from(["1.2.3.4", "10.0.0.4", "ads.4.b.a"])), max_size=6
)


class TestWantedEntries:
    @given(st.lists(list_texts(), min_size=1, max_size=4), CAPTURE_NAMES)
    def test_restricted_lists_answer_every_capture_name_as_the_whole_lists(self, texts, names):
        wanted = wanted_entries(names)
        whole, restricted = [], []
        for i, text in enumerate(texts):
            whole_diags, kept_diags = [], []
            whole.append(BlockList(f"L{i}", frozenset(parse_hosts_list(text, whole_diags))))
            kept = parse_hosts_list(text, kept_diags, wanted)
            restricted.append(BlockList(f"L{i}", frozenset(kept)))
            assert kept_diags == whole_diags
            assert kept == whole[-1].entries & wanted
        for name in names:
            for mode in MATCH_MODES:
                assert blocked_by(name, restricted, mode) == blocked_by(name, whole, mode)
