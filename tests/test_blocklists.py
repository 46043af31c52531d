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
    BlockList,
    EmptyList,
    FileUnreadable,
    HostsLineDiagnostic,
    blocked_by,
    build_list,
    is_blocked,
    parse_hosts_list,
    union_lists,
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
