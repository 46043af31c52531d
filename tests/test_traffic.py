import ipaddress
import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tvblock.traffic import (
    FlowRecord,
    HttpTransaction,
    LogParseError,
    Platform,
    dataset_summary,
    is_ip_literal,
    normalize_fqdn,
    parse_flow_log,
    parse_http_log,
)
from tvblock.text import KNOWN_PLATFORMS

from conftest import dataset

FLOW_LINE = (
    '{"device_id":"d1","platform":"Roku","app_id":"12","fqdn":"Ads.Example.COM.",'
    '"start_time":0,"bytes_up":10,"bytes_down":20}'
)

HTTP_LINE = (
    '{"app_id":"a","platform":"FireTV","fqdn":"aviary.amazon.com","method":"GET",'
    '"uri":"/GetAds?x=1","headers":[["Host","aviary.amazon.com"]],'
    '"was_encrypted":true,"timestamp":0}'
)


class TestParseFlowLog:
    def test_normalizes_fqdn(self):
        result = parse_flow_log(FLOW_LINE)
        assert len(result.records) == 1
        assert result.records[0].fqdn == "ads.example.com"
        assert result.records[0].app_id == "12"

    def test_empty_input_is_empty_result(self):
        result = parse_flow_log("")
        assert result.records == [] and result.errors == []

    def test_missing_fqdn_is_diagnosed_and_skipped(self):
        lines = FLOW_LINE + '\n{"device_id":"d2","platform":"Roku","start_time":1}'
        result = parse_flow_log(lines)
        assert len(result.records) == 1
        assert len(result.errors) == 1
        assert result.errors[0].line_no == 2
        assert "fqdn" in result.errors[0].reason

    def test_all_lines_malformed_raises(self):
        with pytest.raises(LogParseError) as exc:
            parse_flow_log("not json\n{\n")
        assert len(exc.value.errors) == 2

    def test_unknown_fields_ignored(self):
        line = FLOW_LINE[:-1] + ',"extra_field":"whatever"}'
        assert len(parse_flow_log(line).records) == 1

    def test_ip_literal_accepted_and_flagged(self):
        line = '{"device_id":"d","platform":"Roku","fqdn":"10.0.0.1","start_time":0}'
        rec = parse_flow_log(line).records[0]
        assert is_ip_literal(rec.fqdn)

    def test_space_between_trailing_dots_reads_as_the_name(self):
        line = '{"device_id":"d","platform":"Roku","fqdn":"a. .","start_time":0}'
        result = parse_flow_log(line)
        assert result.errors == []
        assert result.records[0].fqdn == "a"
        assert FlowRecord.from_json(json.loads(line)).fqdn == "a"

    def test_negative_bytes_rejected(self):
        line = '{"device_id":"d","platform":"Roku","fqdn":"a.com","start_time":0,"bytes_up":-1}'
        result = parse_flow_log(FLOW_LINE + "\n" + line)
        assert len(result.records) == 1
        assert len(result.errors) == 1


class TestParseHttpLog:
    def test_parses_transaction(self):
        result = parse_http_log(HTTP_LINE)
        assert len(result.transactions) == 1
        tx = result.transactions[0]
        assert tx.headers == (("Host", "aviary.amazon.com"),)
        assert tx.was_encrypted

    def test_uri_without_leading_slash_is_malformed(self):
        bad = HTTP_LINE.replace("/GetAds?x=1", "GetAds")
        result = parse_http_log(HTTP_LINE + "\n" + bad)
        assert len(result.transactions) == 1
        assert len(result.errors) == 1
        assert "uri" in result.errors[0].reason

    def test_two_lines_in_order(self):
        second = HTTP_LINE.replace('"uri":"/GetAds?x=1"', '"uri":"/other"')
        result = parse_http_log(HTTP_LINE + "\n" + second)
        assert [t.uri for t in result.transactions] == ["/GetAds?x=1", "/other"]


class TestRoundTrip:
    def test_flow_records_roundtrip_identically(self):
        rng = random.Random(11)
        lines = []
        for i in range(50):
            obj = {
                "device_id": f"dev{i}",
                "platform": rng.choice(["Roku", "FireTV", "Samsung"]),
                "fqdn": f"host{i}.example.com",
                "start_time": rng.randrange(10**12),
                "bytes_up": rng.randrange(10**6),
                "bytes_down": rng.randrange(10**6),
            }
            if i % 3:
                obj["app_id"] = f"app{i % 7}"
            if i % 4:
                obj["developer"] = f"dev corp {i % 5}"
            lines.append(json.dumps(obj))
        first = parse_flow_log("\n".join(lines)).records
        reserialized = "\n".join(json.dumps(r.to_json()) for r in first)
        second = parse_flow_log(reserialized).records
        assert first == second

    def test_transactions_roundtrip_identically(self):
        first = parse_http_log(HTTP_LINE).transactions
        again = parse_http_log(json.dumps(first[0].to_json())).transactions
        assert first == again


class TestNormalization:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("Ads.Example.COM.", "ads.example.com"),
            ("  host.net ", "host.net"),
            ("lower.org", "lower.org"),
        ],
    )
    def test_examples(self, raw, expected):
        assert normalize_fqdn(raw) == expected

    @given(
        st.one_of(
            # Names with space among their dots, ASCII and not (NBSP, the
            # em and ideographic spaces, NEL, a file separator), and any text.
            st.text("aBcD.-019 \t\n\x1c\x85\xa0\u2003\u3000..  ", max_size=30),
            st.text(max_size=30),
        )
    )
    def test_idempotent_on_random_inputs(self, raw):
        once = normalize_fqdn(raw)
        assert normalize_fqdn(once) == once

    @pytest.mark.parametrize("raw", ["a. .", "A .\u3000. ", " a.\xa0..\t"])
    def test_space_between_trailing_dots_goes(self, raw):
        assert normalize_fqdn(raw) == "a"


class TestPlatform:
    @pytest.mark.parametrize(
        "raw,name",
        [("roku", "Roku"), ("Fire TV", "FireTV"), ("SAMSUNG", "Samsung")],
    )
    def test_aliases(self, raw, name):
        assert Platform.parse(raw) == Platform(name)

    def test_other_platform_carries_name(self):
        p = Platform.parse("TiVo Stream")
        assert p.name not in KNOWN_PLATFORMS and p.name == "TiVo Stream"

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Platform("")


def _fixture_dataset():
    records = []
    for app, fqdns in [("app1", ["a.x", "b.x"]), ("app2", ["a.x"]), ("app3", ["c.x"])]:
        for fqdn in fqdns:
            records.append(
                FlowRecord(
                    device_id="d",
                    platform=Platform("Roku"),
                    fqdn=fqdn,
                    start_time=0,
                    app_id=app,
                )
            )
    return dataset(label="fixture", records=records)


class TestDatasetSummary:
    def test_hand_enumerated_fixture(self):
        summary = dataset_summary(_fixture_dataset())
        assert summary.app_count == 3
        assert summary.distinct_fqdn_count == 3
        assert summary.multi_app_fqdn_count == 1
        assert summary.distinct_uri_path_count == 0

    def test_app_under_several_developers_counts_once_per_name(self):
        """App x reaches a.x in three contacts, under no developer and two
        others; it still counts once there."""
        contacts = [("a.x", "x", None), ("a.x", "x", "D1"), ("b.x", "x", "D1"),
                    ("a.x", "x", "D2"), ("b.x", "y", "E"), ("c.x", None, None)]
        ds = dataset(label="devs", records=[
            FlowRecord(device_id="d", platform=Platform("Roku"), fqdn=fqdn, start_time=0,
                       app_id=app, developer=dev)
            for fqdn, app, dev in contacts
        ])
        assert ds.app_counts() == {"a.x": 1, "b.x": 2}
        assert dataset_summary(ds).multi_app_fqdn_count == 1

    def test_empty_dataset_is_all_zeros(self):
        summary = dataset_summary(dataset(label="empty", platform=Platform("Roku")))
        assert (
            summary.app_count
            == summary.distinct_fqdn_count
            == summary.multi_app_fqdn_count
            == summary.distinct_uri_path_count
            == 0
        )

    def test_counts_match_brute_force_recount(self):
        rng = random.Random(23)
        records = []
        for i in range(300):
            records.append(
                FlowRecord(
                    device_id="d",
                    platform=Platform("Roku"),
                    fqdn=f"h{rng.randrange(40)}.site.com",
                    start_time=i,
                    app_id=f"app{rng.randrange(12)}" if rng.random() < 0.9 else None,
                )
            )
        ds = dataset(label="rand", records=records)
        summary = dataset_summary(ds)
        apps = {r.app_id for r in records if r.app_id}
        fqdns = {r.fqdn for r in records}
        per_fqdn = {}
        for r in records:
            if r.app_id:
                per_fqdn.setdefault(r.fqdn, set()).add(r.app_id)
        multi = sum(1 for v in per_fqdn.values() if len(v) >= 2)
        assert summary.app_count == len(apps)
        assert summary.distinct_fqdn_count == len(fqdns)
        assert summary.multi_app_fqdn_count == multi

    def test_uri_paths_counted_without_query(self):
        tx = HttpTransaction(
            app_id="a",
            platform=Platform("Roku"),
            fqdn="h.com",
            method="GET",
            uri="/path?q=1",
            headers=(),
            was_encrypted=False,
            timestamp=0,
        )
        tx2 = HttpTransaction(
            app_id="a",
            platform=Platform("Roku"),
            fqdn="h.com",
            method="GET",
            uri="/path?q=2",
            headers=(),
            was_encrypted=False,
            timestamp=1,
        )
        ds = dataset(label="x", transactions=[tx, tx2])
        assert dataset_summary(ds).distinct_uri_path_count == 1


def _ip_oracle(value: str) -> bool:
    try:
        ipaddress.ip_address(value)
    except ValueError:
        return False
    return True


IPV4 = st.ip_addresses(v=4).map(str)
IPV6 = st.ip_addresses(v=6).map(str)
OCTET = st.integers(0, 255)
NON_ASCII_DIGIT = st.characters(categories=["Nd"]).filter(lambda c: not c.isascii())
IP_LIKE = st.one_of(
    st.text(max_size=40),
    IPV4,
    IPV6,
    st.tuples(IPV6, st.text(max_size=8)).map("%".join),  # scope id
    IPV4.map("::ffff:{}".format),  # IPv4-mapped
    st.lists(
        st.tuples(OCTET, st.integers(1, 3)).map(lambda p: str(p[0]).zfill(p[1])),
        min_size=4,
        max_size=4,
    ).map(".".join),  # leading-zero octets
    st.tuples(IPV4, NON_ASCII_DIGIT, st.booleans()).map(
        lambda t: t[0][:-1] + t[1] if t[2] else t[1] + t[0][1:]
    ),  # a non-ASCII digit at either end
    st.tuples(
        st.sampled_from(["0.0.0.0", "::1", "ads9.example.com"]),
        st.sampled_from(["", ".", " ", "x", "0"]),
    ).map("".join),
)


class TestIsIpLiteral:
    @given(IP_LIKE)
    def test_agrees_with_ipaddress(self, value):
        assert is_ip_literal(value) == _ip_oracle(value)

    def test_spot_values(self):
        assert is_ip_literal("0.0.0.0") and is_ip_literal("::1")
        assert is_ip_literal("fe80::1%eth0") and is_ip_literal("::ffff:1.2.3.4")
        assert not is_ip_literal("01.2.3.4") and not is_ip_literal("1.2.3.\u0664")
        assert not is_ip_literal("") and not is_ip_literal("ads.example.com")
