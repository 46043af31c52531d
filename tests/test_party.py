import random

import pytest

from tvblock.party import (
    ClassificationContext,
    PartyLabel,
    UnknownEsld,
    build_context,
    classify,
    classify_esld,
    load_platform_processes,
    tokenize,
)
from tvblock.traffic import FlowRecord, Platform

from conftest import dataset


class TestTokenize:
    @pytest.mark.parametrize(
        "identifier,expected",
        [
            ("com.pluto.tv.firetv", ["pluto"]),
            ("TechSmart.tv", ["techsmart"]),
            ("", []),
            ("Live Past 100 Well", ["live", "past", "100", "well"]),
            ("kcra3", ["kcra", "3"]),
            ("a-b_c.d e", ["a", "b", "c", "d", "e"]),
        ],
    )
    def test_examples(self, identifier, expected):
        assert tokenize(identifier) == expected

    def test_custom_stop_tokens(self):
        assert tokenize("news.app", frozenset({"app"})) == ["news"]


def make_ctx(contacts: dict, markers=("roku",), processes=()):
    return ClassificationContext(
        platform_markers=frozenset(markers),
        esld_to_apps={k: frozenset(v) for k, v in contacts.items()},
        platform_processes=frozenset(processes),
    )


class TestClassify:
    def test_shared_token_is_first_party(self):
        ctx = make_ctx({"pluto.tv": {("Pluto TV", "Pluto Inc")}})
        assert (
            classify("Pluto TV", "Pluto Inc", "pluto.tv", ctx)
            is PartyLabel.FIRST_PARTY
        )

    def test_platform_marker_wins(self):
        ctx = make_ctx({"roku.com": {("Any App", "Any Dev")}})
        assert classify("Any App", "Any Dev", "roku.com", ctx) is PartyLabel.PLATFORM

    def test_two_apps_different_developers_is_third_party(self):
        ctx = make_ctx(
            {"doubleclick.net": {("App A", "Dev X"), ("App B", "Dev Y")}}
        )
        assert (
            classify("App A", "Dev X", "doubleclick.net", ctx)
            is PartyLabel.THIRD_PARTY
        )

    def test_single_app_no_overlap_is_undetermined(self):
        ctx = make_ctx({"cdn-host.com": {("Lonely App", "Dev Z")}})
        assert (
            classify("Lonely App", "Dev Z", "cdn-host.com", ctx)
            is PartyLabel.UNDETERMINED
        )

    def test_same_developer_apps_do_not_make_third_party(self):
        ctx = make_ctx(
            {"ifood.tv": {("iFood.tv", "Future Today"), ("Mediterranean Food", "Future Today")}}
        )
        assert (
            classify("Mediterranean Food", "Future Today", "ifood.tv", ctx)
            is PartyLabel.UNDETERMINED
        )

    def test_platform_precedes_first_party(self):
        # an app whose own tokens overlap a platform domain still gets platform
        ctx = make_ctx({"roku.com": {("The Roku Channel", "Roku Inc")}})
        assert (
            classify("The Roku Channel", "Roku Inc", "roku.com", ctx)
            is PartyLabel.PLATFORM
        )

    def test_developer_tokens_count_for_first_party(self):
        ctx = make_ctx({"flexfit.io": {("com.fitness.flex", "FlexFit Labs")}})
        assert (
            classify("com.fitness.flex", "FlexFit Labs", "flexfit.io", ctx)
            is PartyLabel.FIRST_PARTY
        )

    def test_short_shared_tokens_do_not_count(self):
        # "go" is shared but below the 3-character threshold
        ctx = make_ctx({"go.com": {("Go Time", "X"), ("Other", "Y")}}, markers=())
        assert classify("Go Time", "X", "go.com", ctx) is PartyLabel.THIRD_PARTY

    def test_platform_process_attribution(self):
        ctx = make_ctx(
            {"cdn-host.com": {("com.amazon.device", None)}},
            markers=(),
            processes=("com.amazon.device",),
        )
        assert (
            classify("com.amazon.device", None, "cdn-host.com", ctx)
            is PartyLabel.PLATFORM
        )

    def test_unknown_esld_raises(self):
        ctx = make_ctx({})
        with pytest.raises(UnknownEsld):
            classify("App", "Dev", "absent.com", ctx)

    def test_missing_developers_fall_back_to_app_identity(self):
        ctx = make_ctx({"shared.net": {("App A", None), ("App B", None)}}, markers=())
        assert classify("App A", None, "shared.net", ctx) is PartyLabel.THIRD_PARTY


class TestRelabelingStability:
    def test_adding_apps_only_upgrades_undetermined(self):
        before = make_ctx({"svc.net": {("App A", "Dev X")}}, markers=())
        after = make_ctx(
            {"svc.net": {("App A", "Dev X"), ("App B", "Dev Y")}}, markers=()
        )
        assert classify("App A", "Dev X", "svc.net", before) is PartyLabel.UNDETERMINED
        assert classify("App A", "Dev X", "svc.net", after) is PartyLabel.THIRD_PARTY

    def test_first_party_never_degrades(self):
        rng = random.Random(31)
        base = {("Pluto TV", "Pluto Inc")}
        for n in range(1, 20):
            contacts = set(base)
            contacts.update(
                (f"App {i}", f"Dev {rng.randrange(10)}") for i in range(n)
            )
            ctx = make_ctx({"pluto.tv": contacts})
            assert (
                classify("Pluto TV", "Pluto Inc", "pluto.tv", ctx)
                is PartyLabel.FIRST_PARTY
            )


class TestBuildContext:
    def _dataset(self, order):
        rows = [
            ("Pluto TV", "Pluto Inc", "api.pluto.tv"),
            ("Pluto TV", "Pluto Inc", "pubads.g.doubleclick.net"),
            ("SmartWoman", "SmartWoman Media", "ad.doubleclick.net"),
            ("SmartWoman", "SmartWoman Media", "api.sr.roku.com"),
            ("Tubi", "Tubi Inc", "23.45.67.89"),
        ]
        records = [
            FlowRecord(
                device_id="d",
                platform=Platform("Roku"),
                fqdn=fqdn,
                start_time=i,
                app_id=app,
                developer=dev,
            )
            for i, (app, dev, fqdn) in enumerate(order(rows))
        ]
        return dataset(label="t", records=records)

    def test_order_invariance(self, rules):
        ctx_a = build_context(self._dataset(lambda r: r), rules)
        ctx_b = build_context(self._dataset(lambda r: list(reversed(r))), rules)
        assert ctx_a.esld_to_apps == ctx_b.esld_to_apps
        for esld in ctx_a.esld_to_apps:
            for app, dev in ctx_a.esld_to_apps[esld]:
                assert classify(app, dev, esld, ctx_a) == classify(
                    app, dev, esld, ctx_b
                )

    def test_ip_destinations_are_excluded(self, rules):
        ctx = build_context(self._dataset(lambda r: r), rules)
        assert "23.45.67.89" not in ctx.esld_to_apps

    def test_every_domain_destination_is_covered(self, rules):
        ds = self._dataset(lambda r: r)
        ctx = build_context(ds, rules)
        assert set(ctx.esld_to_apps) == {"pluto.tv", "doubleclick.net", "roku.com"}

    def test_classify_esld_aggregates_by_precedence(self, rules):
        ds = self._dataset(lambda r: r)
        ctx = build_context(ds, rules)
        assert classify_esld("roku.com", ctx) is PartyLabel.PLATFORM
        assert classify_esld("doubleclick.net", ctx) is PartyLabel.THIRD_PARTY
        assert classify_esld("pluto.tv", ctx) is PartyLabel.FIRST_PARTY


class TestPlatformProcessFile:
    def test_loads_flagged_apps(self):
        text = (
            '{"app_id": "com.amazon.tv.launcher", "is_platform": true}\n'
            '{"app_id": "tv.pluto.firetv", "is_platform": false}\n'
        )
        assert load_platform_processes(text) == {"com.amazon.tv.launcher"}
