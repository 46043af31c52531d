import random
import tracemalloc

import pytest

from tvblock.blocklists import BlockList, union_lists
from tvblock.metrics import (
    CyclicParentChain,
    EmptyDomainSet,
    NoAppAttribution,
    ats_label,
    block_rate,
    common_app_overlap,
    dataset_eslds,
    fqdn_app_counts,
    keyword_fn_candidates,
    load_ats_labels,
    load_org_map,
    penetration_table,
    pii_block_table,
    popularity_block_curve,
    resolve_org,
)
from tvblock.party import PartyLabel, build_context
from tvblock.pii import Encoding, ExposureRecord, PiiKind
from tvblock.traffic import FlowRecord, Platform

from conftest import dataset


def flow(app, fqdn, dev=None, ts=0, platform="Roku"):
    return FlowRecord(
        device_id="d",
        platform=Platform(platform),
        fqdn=fqdn,
        start_time=ts,
        app_id=app,
        developer=dev,
    )


class TestBlockRate:
    def test_half_blocked(self):
        bl = BlockList("L", frozenset({"a.com", "b.com"}))
        assert block_rate({"a.com", "b.com", "c.com", "d.com"}, bl) == 50.0

    def test_none_blocked(self):
        bl = BlockList("L", frozenset({"x.com"}))
        assert block_rate({"a.com", "b.com"}, bl) == 0.0

    def test_empty_set_raises(self):
        with pytest.raises(EmptyDomainSet):
            block_rate(set(), BlockList("L", frozenset()))

    def test_distinct_domains_not_flows(self):
        bl = BlockList("L", frozenset({"a.com"}))
        # duplicates in the iterable collapse before the rate is taken
        assert block_rate(["a.com", "a.com", "b.com"], bl) == 50.0


def app_penetration(esld_value, ds, rules):
    """penetration_table's percentage for one eSLD of ``ds``."""
    rows = penetration_table(ds, build_context(ds, rules))
    return {row.esld: row.percent for row in rows}[esld_value]


class TestAppPenetration:
    def _dataset(self):
        records = [flow(f"app{i}", "cdn.example.com") for i in range(10)]
        records += [flow(f"app{i}", "svc.tracker.net") for i in range(3)]
        return dataset(label="t", records=records)

    def test_three_of_ten_apps(self, rules):
        assert app_penetration("tracker.net", self._dataset(), rules) == 30.0

    def test_all_apps(self, rules):
        assert app_penetration("example.com", self._dataset(), rules) == 100.0

    def test_no_attribution_raises(self, rules):
        ds = dataset(
            label="wild",
            records=[
                FlowRecord(
                    device_id="d",
                    platform=Platform("Roku"),
                    fqdn="a.com",
                    start_time=0,
                )
            ],
        )
        with pytest.raises(NoAppAttribution):
            app_penetration("a.com", ds, rules)


class TestPopularityCurve:
    def test_hand_enumerated_fixture(self):
        records = [
            flow("app1", "f1.example.com"),  # 1 app, blocked
            flow("app1", "f2.example.com"),  # 1 app, unblocked
            flow("app1", "f3.example.com"),  # 3 apps, blocked
            flow("app2", "f3.example.com"),
            flow("app3", "f3.example.com"),
        ]
        ds = dataset(label="t", records=records)
        lists = [BlockList("L", frozenset({"f1.example.com", "f3.example.com"}))]
        rows = popularity_block_curve(ds, lists, max_bucket=2)
        assert [(r.bucket, r.domain_count, r.rate) for r in rows] == [
            ("1", 2, 50.0),
            ("2+", 1, 100.0),
        ]

    def test_empty_buckets_omitted(self):
        ds = dataset(label="t", records=[flow("a", "one.example.com")])
        rows = popularity_block_curve(ds, [BlockList("L", frozenset())], max_bucket=4)
        assert [r.bucket for r in rows] == ["1"]

    def test_memory_does_not_grow_with_max_bucket(self):
        # A curve once walked every bucket up to max_bucket: 7 MB at 10**5
        # for this one-row table.
        ds = dataset(label="t", records=[flow(f"app{i}", f"n{i}.example.com") for i in range(10)])
        lists = [BlockList("L", frozenset({"n1.example.com"}))]
        tracemalloc.start()
        try:
            rows = popularity_block_curve(ds, lists, max_bucket=10**5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [(r.bucket, r.domain_count, r.rate) for r in rows] == [("1", 10, 10.0)]
        assert peak < 1_000_000, peak

    def test_blocked_counts_partition_consistently(self):
        rng = random.Random(8)
        records = []
        for i in range(60):
            fqdn = f"f{i}.example.net"
            for app in rng.sample([f"app{k}" for k in range(10)], rng.randrange(1, 10)):
                records.append(flow(app, fqdn))
        ds = dataset(label="t", records=records)
        blocked_entries = frozenset(
            f"f{i}.example.net" for i in range(60) if rng.random() < 0.4
        )
        lists = [BlockList("L", blocked_entries)]
        rows = popularity_block_curve(ds, lists, max_bucket=4)
        union = union_lists(lists)
        total_blocked = sum(
            1 for f in fqdn_app_counts(ds) if f in union.entries
        )
        per_bucket = sum(round(r.rate * r.domain_count / 100.0) for r in rows)
        assert per_bucket == total_blocked


class TestOverlap:
    def _datasets(self):
        a = dataset(
            label="A",
            records=[
                flow("TechSmart.tv", "x.techsmart.tv", "Future Today"),
                flow("TechSmart.tv", "y.techsmart.tv", "Future Today"),
                flow("Solo App", "solo.example.com", "Solo Dev"),
            ],
            platform=Platform("Roku"),
        )
        b = dataset(
            label="B",
            records=[
                flow("com.techsmart.firetv", "y.techsmart.tv", "Future Today", platform="FireTV"),
                flow("com.techsmart.firetv", "z.techsmart.tv", "Future Today", platform="FireTV"),
                flow("com.unrelated.app", "other.example.net", "Else", platform="FireTV"),
            ],
            platform=Platform("FireTV"),
        )
        return a, b

    def test_fuzzy_name_and_developer_matching(self):
        report = common_app_overlap(*self._datasets())
        assert report.common_app_count == 1
        app = report.apps[0]
        assert app.app_a == "TechSmart.tv"
        assert app.app_b == "com.techsmart.firetv"
        assert app.only_a == {"x.techsmart.tv"}
        assert app.only_b == {"z.techsmart.tv"}
        assert app.both == {"y.techsmart.tv"}

    def test_partition_is_exact(self):
        report = common_app_overlap(*self._datasets())
        app = report.apps[0]
        union = app.only_a | app.only_b | app.both
        assert union == {"x.techsmart.tv", "y.techsmart.tv", "z.techsmart.tv"}
        assert not (app.only_a & app.only_b)
        assert not (app.only_a & app.both)
        assert not (app.only_b & app.both)

    def test_name_match_without_shared_developer_is_rejected(self):
        a = dataset(label="A", records=[flow("Newsy", "a.com", "Alpha Media")])
        b = dataset(
            label="B", records=[flow("Newsy", "b.com", "Beta Group", platform="FireTV")]
        )
        assert common_app_overlap(a, b).common_app_count == 0

    def test_global_totals_use_union_of_common_apps(self):
        report = common_app_overlap(*self._datasets())
        assert report.total_only_a == 1
        assert report.total_only_b == 1
        assert report.total_both == 1

    def test_first_app_seen_under_a_key_is_the_one_matched(self):
        """Of two app ids that normalize alike, the first seen stands for the
        key with its own destinations and first developer; a key that one
        dataset holds alone adds nothing."""
        a = dataset(
            label="A",
            records=[
                flow("Newsy", "first.example.com", "Newsy Media"),
                flow("NEWSY!", "second.example.com", "Newsy Media"),
                flow("Solo App", "solo.example.com", "Newsy Media"),
            ],
        )
        b = dataset(
            label="B",
            records=[
                flow("newsy", "first.example.com", "Newsy Media", platform="FireTV"),
                flow("news-y", "third.example.com", "Newsy Media", platform="FireTV"),
            ],
        )
        report = common_app_overlap(a, b)
        assert [(m.app_a, m.app_b) for m in report.apps] == [("Newsy", "newsy")]
        assert report.apps[0].both == {"first.example.com"}
        assert report.apps[0].only_a == report.apps[0].only_b == frozenset()
        assert (report.total_only_a, report.total_only_b, report.total_both) == (0, 0, 1)

    def test_first_app_seen_under_a_key_brings_its_first_developer(self):
        a = dataset(
            label="A",
            records=[
                flow("Newsy", "a.com", "Alpha Media"),
                flow("NEWSY", "b.com", "Beta Group"),
            ],
        )
        b = dataset(label="B", records=[flow("newsy", "b.com", "Beta Group", platform="FireTV")])
        assert common_app_overlap(a, b).common_app_count == 0
        assert common_app_overlap(b, a).common_app_count == 0


def exposure(kind, party, blocked, app="App"):
    return ExposureRecord(
        app_id=app,
        fqdn="x.example.com",
        esld="example.com",
        pii_kind=kind,
        encoding=Encoding.PLAIN,
        location="uri",
        timestamp=0,
        party=party,
        blocked_by=frozenset({"PD"}) if blocked else frozenset(),
    )


class TestPiiTable:
    def test_half_blocked_third_party(self):
        rows = pii_block_table(
            [
                exposure(PiiKind.SERIAL_NUMBER, PartyLabel.THIRD_PARTY, True),
                exposure(PiiKind.SERIAL_NUMBER, PartyLabel.THIRD_PARTY, False),
            ],
            platform="Roku",
        )
        serial = next(r for r in rows if r.kind is PiiKind.SERIAL_NUMBER)
        third_count, third_pct = serial.cells[1]
        assert (third_count, third_pct) == (2, 50.0)

    def test_zero_exposures_render_empty(self):
        rows = pii_block_table([], platform="Roku")
        assert len(rows) == 6
        for row in rows:
            assert all(cell == (0, None) for cell in row.cells)

    def test_total_includes_undetermined(self):
        rows = pii_block_table(
            [
                exposure(PiiKind.ACCOUNT_NAME, PartyLabel.UNDETERMINED, False),
                exposure(PiiKind.ACCOUNT_NAME, PartyLabel.FIRST_PARTY, True),
            ],
            platform="Roku",
        )
        account = next(r for r in rows if r.kind is PiiKind.ACCOUNT_NAME)
        first, third, plat, total = account.cells
        assert first == (1, 100.0)
        assert total == (2, 50.0)


class TestKeywordFn:
    def test_table_pattern_on_fixture_lists(self, fixture_lists):
        domains = [
            "p.ads.roku.com",
            "ads.aimitv.com",
            "adtag.primetime.adobe.com",
            "ads.adrise.tv",
            "ads.samba.tv",
            "tracking.sctv1.monarchads.com",
            "data.ad-score.com",
        ]
        rows = keyword_fn_candidates(domains, fixture_lists)
        by_fqdn = {r.fqdn: r for r in rows}
        assert set(by_fqdn) == set(domains)
        assert by_fqdn["data.ad-score.com"].blocked_by == {"PD", "TF"}
        assert by_fqdn["p.ads.roku.com"].blocked_by == frozenset()
        assert by_fqdn["ads.samba.tv"].blocked_by == {"TF"}
        assert by_fqdn["ads.adrise.tv"].blocked_by == {"TF"}
        assert by_fqdn["tracking.sctv1.monarchads.com"].blocked_by == {"TF"}
        assert by_fqdn["ads.aimitv.com"].blocked_by == frozenset()
        assert by_fqdn["adtag.primetime.adobe.com"].blocked_by == frozenset()

    def test_token_equality_not_substring(self, fixture_lists):
        rows = keyword_fn_candidates(["shadow.example.com"], fixture_lists)
        assert rows == []

    def test_fully_blocked_domain_excluded(self, fixture_lists):
        # on every fixture list, so it is not a candidate
        rows = keyword_fn_candidates(["ads.yahoo.com"], fixture_lists)
        assert rows == []

    def test_hyphen_delimited_tokens_match(self, fixture_lists):
        rows = keyword_fn_candidates(["data.ad-score.com"], fixture_lists)
        assert rows[0].matched_keyword == "ad"

    def test_empty_keywords_rejected(self, fixture_lists):
        with pytest.raises(ValueError):
            keyword_fn_candidates(["a.com"], fixture_lists, keywords=())


ORG_ESLDS = "\n".join(
    [
        '{"esld": "hulu.com", "org": "Hulu"}',
        '{"esld": "youtube.com", "org": "YouTube"}',
        '{"esld": "doubleclick.net", "org": "DoubleClick"}',
    ]
)

ORG_PARENTS = "\n".join(
    [
        '{"org": "Hulu", "parent": "The Walt Disney Company"}',
        '{"org": "YouTube", "parent": "Google"}',
        '{"org": "Google", "parent": "Alphabet"}',
        '{"org": "DoubleClick", "parent": "Google"}',
    ]
)


class TestOrgResolution:
    def test_follows_acquisition_chain(self):
        org_map = load_org_map(ORG_ESLDS, ORG_PARENTS)
        assert resolve_org("hulu.com", org_map) == "The Walt Disney Company"
        assert resolve_org("youtube.com", org_map) == "Alphabet"
        assert resolve_org("doubleclick.net", org_map) == "Alphabet"

    def test_unmapped_is_unknown(self):
        org_map = load_org_map(ORG_ESLDS, ORG_PARENTS)
        assert resolve_org("zzz.example", org_map) == "Unknown(zzz.example)"

    def test_cycle_detected_at_load(self):
        cyclic = '{"org": "A", "parent": "B"}\n{"org": "B", "parent": "A"}'
        with pytest.raises(CyclicParentChain):
            load_org_map(ORG_ESLDS, cyclic)

    def test_deterministic_and_terminates(self):
        org_map = load_org_map(ORG_ESLDS, ORG_PARENTS)
        for _ in range(5):
            assert resolve_org("youtube.com", org_map) == "Alphabet"


class TestAtsLabel:
    LABELS = load_ats_labels(
        '{"fqdn": "tagged.example.com", "labels": ["ads"]}\n'
        '{"fqdn": "benign.example.com", "labels": ["cdn"]}\n'
    )

    def test_label_file_hit(self, fixture_lists):
        assert ats_label("tagged.example.com", self.LABELS, fixture_lists)

    def test_blocklist_hit_without_label(self, fixture_lists):
        assert ats_label("ads.yahoo.com", self.LABELS, fixture_lists)

    def test_neither_is_false(self, fixture_lists):
        assert not ats_label("benign.example.com", self.LABELS, fixture_lists)


class TestPenetrationTable:
    def test_counts_match_brute_force(self, rules):
        rng = random.Random(12)
        records = []
        pool = ["svc.example.com", "cdn.example.net", "api.roku.com", "t.tracker.org"]
        for i in range(120):
            records.append(flow(f"app{rng.randrange(8)}", rng.choice(pool), f"dev{rng.randrange(4)}"))
        ds = dataset(label="t", records=records)
        ctx = build_context(ds, rules)
        rows = penetration_table(ds, ctx)
        apps = {r.app_id for r in records}
        for row in rows:
            expected_apps = {
                r.app_id for r in records if r.fqdn.endswith(row.esld)
            }
            assert row.app_count == len(expected_apps)
            assert row.percent == pytest.approx(100.0 * len(expected_apps) / len(apps))
        assert {r.esld for r in rows} == dataset_eslds(ds, rules)

    def test_rows_sorted_by_reach(self, rules):
        records = [flow("a", "one.example.com"), flow("b", "one.example.com"), flow("a", "two.example.net")]
        ds = dataset(label="t", records=records)
        ctx = build_context(ds, rules)
        rows = penetration_table(ds, ctx)
        assert [r.esld for r in rows] == ["example.com", "example.net"]
