"""Acceptance suite: one test per release criterion, each printing a
pass line. Tolerances are pinned here and nowhere else.
"""

import csv
import json
import os
import random
import re
import socket
import subprocess
import sys
import time

import pytest

from tvblock import dnswire, psl
from tvblock.blocklists import BlockList, is_blocked, union_lists
from tvblock.cli import main as cli_main
from tvblock.party import PartyLabel, build_context, classify
from tvblock.pii import (
    Encoding,
    PiiKind,
    PiiSpec,
    build_all_variants,
    build_variants,
    redact,
    scan_transaction,
)
from tvblock.sinkhole import SinkholeConfig, serve
from tvblock.traffic import FlowRecord, HttpTransaction, Platform

from conftest import CORPUS_CONFIG, CORPUS_DIR, PSL_PATH, PSL_VECTORS_PATH, dataset
from test_pii import md5_oracle, sha1_oracle
from test_sinkhole import MockUpstream


def ok(name):
    print(f"\n[acceptance] {name}: PASS")


# -- 1. PSL conformance ------------------------------------------------------


def test_criterion_psl_conformance():
    started = time.monotonic()
    rules = psl.load_psl_file(PSL_PATH)
    pattern = re.compile(r"checkPublicSuffix\((null|'([^']*)'),\s*(null|'([^']*)')\)")
    total = passed = 0
    with open(PSL_VECTORS_PATH, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("//"):
                continue
            m = pattern.search(line)
            if not m or m.group(1) == "null":
                continue
            total += 1
            expected = None if m.group(3) == "null" else m.group(4)
            try:
                got = psl.esld(m.group(2), rules)
            except psl.PslError:
                got = None
            passed += got == expected
    elapsed = time.monotonic() - started
    assert total >= 70
    assert passed / total >= 0.95, f"{passed}/{total}"
    assert elapsed < 5.0
    ok(f"PSL conformance ({passed}/{total} vectors, {elapsed:.2f}s)")


# -- 2. blocklist oracle equivalence ------------------------------------------


def _rand_domain(rng):
    parts = [
        rng.choice(["ads", "trk", "cdn", "img", "api", "beacon"]) + str(rng.randrange(12))
        for _ in range(rng.randrange(1, 4))
    ]
    return ".".join(parts + [rng.choice(["fix-a.com", "fix-b.net", "fix-c.org"])])


def test_criterion_blocklist_oracle_equivalence():
    rng = random.Random(2001)
    lists = [
        BlockList(name, frozenset(_rand_domain(rng) for _ in range(200)))
        for name in ("PD", "TF", "MoaAB", "SATV")
    ]
    domains = [_rand_domain(rng) for _ in range(1000)]
    for domain in domains:
        for bl in lists:
            for mode in ("exact", "suffix"):
                expected = any(
                    domain == e or (mode == "suffix" and domain.endswith("." + e))
                    for e in bl.entries
                )
                assert is_blocked(domain, bl, mode) == expected, (domain, bl.name, mode)
    for _ in range(10_000):
        fqdn = _rand_domain(rng)
        l1, l2 = rng.sample(lists, 2)
        union = union_lists([l1, l2])
        for mode in ("exact", "suffix"):
            assert is_blocked(fqdn, union, mode) == (
                is_blocked(fqdn, l1, mode) or is_blocked(fqdn, l2, mode)
            )
    ok("blocklist oracle equivalence (1000 domains x 4 lists, 10000 union triples)")


# -- 3. party classifier fixture ------------------------------------------------

P, F, T, U = (
    PartyLabel.PLATFORM,
    PartyLabel.FIRST_PARTY,
    PartyLabel.THIRD_PARTY,
    PartyLabel.UNDETERMINED,
)

# (esld, [(app, developer), ...]) contacts observed in the fixture dataset
CONTACTS = [
    ("roku.com", [("Pluto TV", "Pluto Inc"), ("The Roku Channel", "Roku Inc")]),
    ("rokuify.com", [("Indie App", "Indie Dev")]),
    ("trackroku.net", [("App A", "Dev X")]),
    ("svc-cloud.net", [("com.platform.svc", None)]),
    ("pluto.tv", [("Pluto TV", "Pluto Inc")]),
    ("techsmart.tv", [("TechSmart.tv", "Future Today")]),
    ("ifood.tv", [("iFood.tv", "Future Today"), ("Mediterranean Food", "Future Today")]),
    ("flexfit.io", [("com.fitness.flex", "FlexFit Labs")]),
    ("crackle.com", [("Sony Crackle", "Crackle Plus")]),
    ("livepast100well.com", [("Live Past 100 Well", "Wellness Labs")]),
    ("youtube.com", [("YouTube", "Google LLC")]),
    ("tubi.io", [("Tubi", "Tubi Inc")]),
    ("watchfreecomedyflix.com", [("WatchFreeComedyFlix", "FlixMedia")]),
    ("kcra.com", [("KCRA 3", "Hearst Television")]),
    ("smartwoman.tv", [("SmartWoman", "SmartWoman Media")]),
    ("doubleclick.net", [("App A", "Dev X"), ("App B", "Dev Y")]),
    (
        "scorecardresearch.com",
        [("App A", "Dev X"), ("App B", "Dev Y"), ("Pluto TV", "Pluto Inc")],
    ),
    ("go.com", [("Go Time", "Dev G"), ("Other App", "Dev O")]),
    ("amazon-adsystem.com", [("A1", "D1"), ("A2", "D2")]),
    ("googleapis.com", [("YouTube", "Google LLC"), ("SmartWoman", "SmartWoman Media")]),
    ("shared-sdk.net", [("App NoDev1", None), ("App NoDev2", None)]),
    ("yahoo.com", [("Mediterranean Food", "Future Today"), ("WatchFreeComedyFlix", "FlixMedia")]),
    ("cbsnews.com", [("CBS News Live", "CBS Interactive")]),
    ("plaincdn.net", [("Solo App", "Solo Dev")]),
    ("cbsinteractive.com", [("CBS News Live", "CBS Interactive")]),
    ("quietcdn.com", [("Quiet App", "Quiet Dev")]),
    ("lonely-beacon.net", [("App NoDev1", None)]),
    ("adrise.tv", [("Tubi", "Tubi Inc")]),
    ("channelstore.com", [("The Roku Channel", "Roku Inc")]),
    ("futuretoday.com", [("TechSmart.tv", "Future Today")]),
    ("foodnetwork.com", [("iFood.tv", "Future Today"), ("Cooking Plus", "Kitchen Co")]),
    ("studio99.net", [("App With Numbers 4K", "Studio 99")]),
]

# 50 hand-derived labels: (app, developer, esld, expected)
PARTY_CASES = [
    ("Pluto TV", "Pluto Inc", "roku.com", P),
    ("The Roku Channel", "Roku Inc", "roku.com", P),
    ("Indie App", "Indie Dev", "rokuify.com", P),
    ("com.platform.svc", None, "svc-cloud.net", P),
    ("Any App", "Any Dev", "roku.com", P),
    ("App A", "Dev X", "trackroku.net", P),
    ("YouTube", "Google LLC", "roku.com", P),
    ("SmartWoman", "SmartWoman Media", "rokuify.com", P),
    ("Pluto TV", "Pluto Inc", "pluto.tv", F),
    ("TechSmart.tv", "Future Today", "techsmart.tv", F),
    ("iFood.tv", "Future Today", "ifood.tv", F),
    ("com.fitness.flex", "FlexFit Labs", "flexfit.io", F),
    ("Sony Crackle", "Crackle Plus", "crackle.com", F),
    ("Live Past 100 Well", "Wellness Labs", "livepast100well.com", F),
    ("YouTube", "Google LLC", "youtube.com", F),
    ("Tubi", "Tubi Inc", "tubi.io", F),
    ("com.pluto.tv.firetv", "Pluto Inc", "pluto.tv", F),
    ("SmartWoman", "SmartWoman Media", "smartwoman.tv", F),
    ("WatchFreeComedyFlix", "FlixMedia", "watchfreecomedyflix.com", F),
    ("KCRA 3", "Hearst Television", "kcra.com", F),
    ("App A", "Dev X", "doubleclick.net", T),
    ("App B", "Dev Y", "doubleclick.net", T),
    ("Pluto TV", "Pluto Inc", "scorecardresearch.com", T),
    ("App A", "Dev X", "scorecardresearch.com", T),
    ("Go Time", "Dev G", "go.com", T),
    ("Other App", "Dev O", "go.com", T),
    ("A1", "D1", "amazon-adsystem.com", T),
    ("YouTube", "Google LLC", "googleapis.com", T),
    ("SmartWoman", "SmartWoman Media", "googleapis.com", T),
    ("New App", "New Dev", "doubleclick.net", T),
    ("App NoDev1", None, "shared-sdk.net", T),
    ("Mediterranean Food", "Future Today", "yahoo.com", T),
    ("CBS News Live", "CBS Interactive", "cbsnews.com", U),
    ("Solo App", "Solo Dev", "plaincdn.net", U),
    ("Mediterranean Food", "Future Today", "ifood.tv", U),
    ("App A", "Dev X", "plaincdn.net", U),
    ("CBS News Live", "CBS Interactive", "cbsinteractive.com", U),
    ("Quiet App", "Quiet Dev", "quietcdn.com", U),
    ("App NoDev1", None, "lonely-beacon.net", U),
    ("Tubi", "Tubi Inc", "adrise.tv", U),
    ("Pluto TV", "Pluto Inc", "rokuify.com", P),
    ("The Roku Channel", "Roku Inc", "channelstore.com", U),
    ("TechSmart.tv", "Future Today", "futuretoday.com", U),
    ("iFood.tv", "Future Today", "foodnetwork.com", T),
    ("Cooking Plus", "Kitchen Co", "foodnetwork.com", T),
    ("App With Numbers 4K", "Studio 99", "studio99.net", F),
    ("x", "y", "pluto.tv", U),
    ("App B", "Dev Y", "trackroku.net", P),
    ("com.platform.svc", None, "doubleclick.net", P),
    ("App A", "Dev X", "go.com", T),
]


def test_criterion_party_classifier_fixture(rules):
    assert len(PARTY_CASES) == 50
    flows = []
    ts = 0
    for esld_value, refs in CONTACTS:
        for app, dev in refs:
            flows.append(
                FlowRecord(
                    device_id="d",
                    platform=Platform("Roku"),
                    fqdn=f"edge.{esld_value}",
                    start_time=ts,
                    app_id=app,
                    developer=dev,
                )
            )
            ts += 1

    rng = random.Random(404)
    label_runs = []
    for _ in range(3):
        permuted = flows[:]
        rng.shuffle(permuted)
        ds = dataset(label="fixture", records=permuted, platform=Platform("Roku"))
        ctx = build_context(ds, rules, platform_processes={"com.platform.svc"})
        labels = [
            classify(app, dev, esld_value, ctx)
            for app, dev, esld_value, _ in PARTY_CASES
        ]
        label_runs.append(labels)

    expected = [case[3] for case in PARTY_CASES]
    for run_index, labels in enumerate(label_runs):
        mismatches = [
            (case[:3], got.value, want.value)
            for case, got, want in zip(PARTY_CASES, labels, expected)
            if got is not want
        ]
        assert not mismatches, f"run {run_index}: {mismatches}"
    assert label_runs[0] == label_runs[1] == label_runs[2]
    ok("party classifier fixture (50 hand-derived cases, 3 dataset orders)")


# -- 4. PII scanner completeness ------------------------------------------------


def _plant_values(rng):
    def token(n):
        return "".join(rng.choice("0123456789abcdef") for _ in range(n))

    return {
        PiiKind.ADVERTISING_ID: [f"adid-{token(8)}-{token(4)}-{token(12)}"],
        PiiKind.SERIAL_NUMBER: [f"SER-{token(10).upper()}"],
        PiiKind.DEVICE_ID: [f"did-{token(16)}"],
        PiiKind.ACCOUNT_NAME: [f"acct-{token(6)}@fixture-mail.example"],
        PiiKind.MAC_ADDRESS: [":".join(token(2) for _ in range(6))],
        PiiKind.LOCATION: [
            f"{rng.randrange(-89, 89)}.{rng.randrange(1000, 9999)},"
            f"{rng.randrange(-179, 179)}.{rng.randrange(1000, 9999)}"
        ],
    }


def test_criterion_pii_scanner_completeness():
    rng = random.Random(2024)
    values = _plant_values(rng)
    specs = [PiiSpec(kind, tuple(vals)) for kind, vals in values.items()]
    variants = build_all_variants(specs)

    def needle_for(kind, encoding):
        for v in variants:
            if v.kind is kind and v.encoding is encoding and v.component in ("", "lat"):
                return v
        raise AssertionError((kind, encoding))

    def long_needle(kind, encoding):
        for v in variants:
            if v.kind is kind and v.encoding is encoding and v.component == "long":
                return v
        raise AssertionError((kind, encoding))

    kinds = list(PiiKind)
    encodings = [Encoding.PLAIN, Encoding.MD5, Encoding.SHA1]
    manifest = []
    transactions = []
    for i in range(200):
        kind = kinds[i % 6]
        encoding = encodings[(i // 6) % 3]
        in_uri = (i // 18) % 2 == 0
        noise = "".join(rng.choice("ghjklmnpqrstuvw") for _ in range(rng.randrange(3, 9)))
        primary = needle_for(kind, encoding)
        if kind is PiiKind.LOCATION:
            payload = f"{primary.needle}&lg={long_needle(kind, encoding).needle}"
        else:
            payload = primary.needle
        if in_uri:
            uri = f"/p{i}?{noise}={payload}"
            headers = [("Host", "dest.example.com")]
            location = "uri"
        else:
            uri = f"/p{i}?x={noise}"
            headers = [("Host", "dest.example.com"), ("X-Probe", payload)]
            location = "header:X-Probe"
        transactions.append(
            HttpTransaction(
                app_id=f"app{i % 9}",
                platform=Platform("Roku"),
                fqdn="dest.example.com",
                method="GET",
                uri=uri,
                headers=tuple(headers),
                was_encrypted=False,
                timestamp=i,
            )
        )
        manifest.append((i, kind, encoding, location))

    found = []
    for i, tx in enumerate(transactions):
        for record in scan_transaction(tx, variants):
            found.append((i, record.pii_kind, record.encoding, record.location))
    assert sorted(found) == sorted(manifest)  # recall 100%, zero false positives

    for i, tx in enumerate(transactions):
        records = scan_transaction(tx, variants)
        assert scan_transaction(redact(tx, records), variants) == []

    rng2 = random.Random(77)
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789@._-"
    for _ in range(100):
        value = "".join(rng2.choice(alphabet) for _ in range(rng2.randrange(1, 48)))
        vs = build_variants(PiiSpec(PiiKind.DEVICE_ID, (value,)))
        md5s = {v.needle for v in vs if v.encoding is Encoding.MD5}
        sha1s = {v.needle for v in vs if v.encoding is Encoding.SHA1}
        assert md5_oracle(value.encode()) in md5s
        assert sha1_oracle(value.encode()) in sha1s

    ok("PII scanner completeness (200 planted, recall 100%, 0 FP, digests vs oracle)")


# -- 5. sinkhole end-to-end -------------------------------------------------------


def test_criterion_sinkhole_end_to_end(tmp_path):
    blocked_names = [f"blk{i}.ads-fixture.net" for i in range(500)]
    clean_names = [f"ok{i}.clean-fixture.org" for i in range(500)]
    blocklist = BlockList("FIX", frozenset(blocked_names))
    upstream = MockUpstream()
    log_path = tmp_path / "query_log.jsonl"
    cfg = SinkholeConfig(
        listen_address="127.0.0.1:0",
        upstream_resolver=f"{upstream.address[0]}:{upstream.address[1]}",
        active_lists=("FIX",),
        blocked_ttl=2,
        upstream_timeout_ms=1000,
        query_log_path=str(log_path),
    )
    service = serve(cfg, [blocklist])
    started = time.monotonic()
    try:
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as client:
            client.settimeout(3)
            for i in range(500):
                qtype = dnswire.TYPE_A if i % 2 == 0 else dnswire.TYPE_AAAA
                client.sendto(
                    dnswire.build_query(blocked_names[i], qtype, txid=i),
                    service.address,
                )
                data, _ = client.recvfrom(4096)
                msg = dnswire.parse_message(data)
                assert msg.header.txid == i
                assert msg.header.rcode == dnswire.RCODE_NOERROR
                assert len(msg.answers) == 1
                assert msg.answers[0].ttl == 2
                expected = "0.0.0.0" if qtype == dnswire.TYPE_A else "::"
                assert msg.answers[0].address == expected

            for i in range(500):
                client.sendto(
                    dnswire.build_query(clean_names[i], dnswire.TYPE_A, txid=10_000 + i),
                    service.address,
                )
                data, _ = client.recvfrom(4096)
                msg = dnswire.parse_message(data)
                assert msg.header.txid == 10_000 + i
                assert msg.answers[0].address == "93.184.216.34"
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"took {elapsed:.1f}s"

        seen = set(upstream.seen)
        assert not seen & set(blocked_names)  # zero upstream packets for blocked
        assert seen == set(clean_names)

        with open(log_path, encoding="utf-8") as fh:
            entries = [json.loads(line) for line in fh if line.strip()]
        assert len(entries) == 1000
        verdicts = {e["verdict"] for e in entries}
        assert verdicts == {"blocked", "forwarded"}
        assert sum(1 for e in entries if e["verdict"] == "blocked") == 500
    finally:
        service.stop()
        upstream.close()
    ok(f"sinkhole end-to-end (1000 queries in {elapsed:.2f}s, log complete)")


# -- 6. pipeline reproduction ----------------------------------------------------


def _read_table(path):
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
        assert first.startswith("# generated_at=")
        return fh.read()


def test_criterion_pipeline_reproduction(tmp_path):
    started = time.monotonic()
    work = tmp_path / "pipeline"
    work.mkdir()
    for label, platform in (("Roku", "roku"), ("FireTV", "firetv")):
        lowered = platform
        rc = cli_main(
            [
                "ingest",
                "--flows",
                os.path.join(CORPUS_DIR, f"{lowered}_flows.jsonl"),
                "--http",
                os.path.join(CORPUS_DIR, f"{lowered}_http.jsonl"),
                "--label",
                label,
                "--platform",
                lowered,
                "--out",
                str(work / lowered),
            ]
        )
        assert rc == 0
        rc = cli_main(
            ["scan-pii", "--bundle", str(work / lowered), "--config", CORPUS_CONFIG]
        )
        assert rc == 0
    rc = cli_main(
        [
            "evaluate",
            "--bundle",
            str(work / "roku"),
            "--bundle",
            str(work / "firetv"),
            "--config",
            CORPUS_CONFIG,
            "--out",
            str(work / "out"),
        ]
    )
    assert rc == 0

    ref_out = work / "ref"
    reference = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference_pipeline.py")
    subprocess.run(
        [
            sys.executable,
            reference,
            "--config",
            CORPUS_CONFIG,
            "--flows-a",
            os.path.join(CORPUS_DIR, "roku_flows.jsonl"),
            "--http-a",
            os.path.join(CORPUS_DIR, "roku_http.jsonl"),
            "--label-a",
            "Roku",
            "--flows-b",
            os.path.join(CORPUS_DIR, "firetv_flows.jsonl"),
            "--http-b",
            os.path.join(CORPUS_DIR, "firetv_http.jsonl"),
            "--label-b",
            "FireTV",
            "--out",
            str(ref_out),
        ],
        check=True,
        capture_output=True,
    )

    tables = [
        "block_rates.csv",
        "penetration.csv",
        "popularity_curve.csv",
        "pii_table.csv",
        "overlap.csv",
    ]
    for name in tables:
        mine = _read_table(work / "out" / name)
        ref = _read_table(ref_out / name)
        assert mine == ref, f"{name} diverges from brute-force reference"
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    ok(f"pipeline reproduction ({len(tables)} tables byte-identical, {elapsed:.1f}s)")


# -- 7. table-shape fidelity ------------------------------------------------------


def test_criterion_table_shapes(tmp_path, fixture_lists):
    work = tmp_path / "shape"
    work.mkdir()
    for label, lowered in (("Roku", "roku"), ("FireTV", "firetv")):
        assert (
            cli_main(
                [
                    "ingest",
                    "--flows",
                    os.path.join(CORPUS_DIR, f"{lowered}_flows.jsonl"),
                    "--http",
                    os.path.join(CORPUS_DIR, f"{lowered}_http.jsonl"),
                    "--label",
                    label,
                    "--platform",
                    lowered,
                    "--out",
                    str(work / lowered),
                ]
            )
            == 0
        )
        assert (
            cli_main(
                ["scan-pii", "--bundle", str(work / lowered), "--config", CORPUS_CONFIG]
            )
            == 0
        )
    assert (
        cli_main(
            [
                "evaluate",
                "--bundle",
                str(work / "roku"),
                "--bundle",
                str(work / "firetv"),
                "--config",
                CORPUS_CONFIG,
                "--out",
                str(work / "out"),
            ]
        )
        == 0
    )

    with open(work / "out" / "pii_table.csv", encoding="utf-8") as fh:
        fh.readline()
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    assert header == [
        "platform",
        "pii_kind",
        "first_party_count",
        "first_party_pct_blocked",
        "third_party_count",
        "third_party_pct_blocked",
        "platform_party_count",
        "platform_party_pct_blocked",
        "total_count",
        "total_pct_blocked",
    ]
    kind_order = [
        "advertising_id",
        "serial_number",
        "device_id",
        "account_name",
        "mac_address",
        "location",
    ]
    assert len(body) == 12  # 6 kinds x 2 platforms
    assert [r[1] for r in body[:6]] == kind_order
    assert [r[1] for r in body[6:]] == kind_order
    assert {r[0] for r in body[:6]} == {"Roku"}
    assert {r[0] for r in body[6:]} == {"FireTV"}

    from tvblock.metrics import keyword_fn_candidates

    table4 = {
        "p.ads.roku.com": frozenset(),
        "ads.aimitv.com": frozenset(),
        "adtag.primetime.adobe.com": frozenset(),
        "ads.adrise.tv": frozenset({"TF"}),
        "ads.samba.tv": frozenset({"TF"}),
        "tracking.sctv1.monarchads.com": frozenset({"TF"}),
        "data.ad-score.com": frozenset({"PD", "TF"}),
    }
    rows = keyword_fn_candidates(sorted(table4), fixture_lists)
    got = {r.fqdn: r.blocked_by for r in rows}
    assert got == table4
    ok("table-shape fidelity (pii_table structure + verdict pattern on 7 domains)")
