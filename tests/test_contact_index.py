"""The per-bundle contact index against the brute-force reference pipeline.

Three reports each take a "first developer" per app, by different rules:
overlap.csv the first developer seen (None included), PII attribution the
first non-None one, classifications.csv the first seen per (app, eSLD)
pair. The generated corpora never tell these apart, so a hand-built pair of
bundles does here, and a property runs small random bundles with IP
literals, unattributed flows and late developers, against 2-4 random lists,
through the CLI, in either match mode and with or without flow weighting.
Each random transaction may carry the advertising ID, plain, upper-cased,
percent-encoded or hashed, in its URI query or in a header, so pii_table.csv
and the redacted log are checked too.
Suffix-mode tables and the flow-weighted cells have no reference code of
their own; they are brute-forced here from the reference's match rules.
"""

import csv
import hashlib
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_pipeline as ref
from conftest import PSL_PATH, Capture, dataset
from tvblock.cli import main, write_bundle
from tvblock.party import DEFAULT_STOP_TOKENS
from tvblock.traffic import FlowRecord, HttpTransaction, Platform

ADID = "fa3c7e19-0a2b-4c5d-8e9f-1234567890ab"
MARKERS = {"Roku": ["roku"], "FireTV": ["amazon"]}
STOPS = set(DEFAULT_STOP_TOKENS)
KEYWORDS = ["ads", "api", "beacon", "cdn", "tracker"]


def flow(platform, fqdn, app=None, dev=None, ts=0):
    return FlowRecord(
        device_id="d",
        platform=Platform(platform),
        fqdn=fqdn,
        start_time=ts,
        app_id=app,
        developer=dev,
    )


def http(platform, fqdn, app, dev=None, uri="/", ts=0, headers=()):
    return HttpTransaction(
        app_id=app,
        platform=Platform(platform),
        fqdn=fqdn,
        method="GET",
        uri=uri,
        headers=tuple(headers),
        was_encrypted=False,
        timestamp=ts,
        developer=dev,
    )


def csv_rows(path):
    """Data rows of a report CSV: after the generated_at line and the header."""
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))[2:]


def as_text(rows):
    return [[str(cell) for cell in row] for row in rows]


def reference_classifications(bundle, markers):
    """classifications.csv rows from the reference's rules: each attributed
    (app, eSLD) pair keeps the first developer seen with it."""
    contacts = ref.build_esld_contacts(bundle)
    pairs = {}
    for fqdn, app, dev in bundle.contacts():
        if app is None or ref.is_ip(fqdn):
            continue
        dom = ref.esld(fqdn)
        if dom:
            pairs.setdefault((app, dom), dev)
    return [
        [bundle.label, app, dev or "", dom, ref.classify_pair(app, dev, dom, markers, contacts, STOPS)]
        for (app, dom), dev in sorted(pairs.items())
    ]


def write_lists(work, lists):
    """Write each list's files: list name -> [(entries, hosts format), ...] per
    file. A hosts-format file prefixes each name with an address; a
    bare-domain file holds the name alone."""
    paths = {}
    for name, files in lists.items():
        paths[name] = []
        for i, (entries, hosts_format) in enumerate(files):
            path = os.path.join(work, f"{name}-{i}.txt")
            prefix = "0.0.0.0 " if hosts_format else ""
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("".join(f"{prefix}{entry}\n" for entry in sorted(entries)))
            paths[name].append(path)
    return paths


def flow_rate_cells(bundle, entries):
    """flow_rate_exact and flow_rate_suffix of one list: the share of flow
    records, IP literals dropped, whose name the list blocks."""
    names = [f["fqdn"] for f in bundle.flows if not ref.is_ip(f["fqdn"])]
    return [
        ref.pct(100.0 * sum(1 for n in names if blocked(n, entries)) / len(names))
        for blocked in (ref.blocked_exact, ref.blocked_suffix)
    ]


def suffix_lists(bundle, lists):
    """Each list as the contacted names it blocks in suffix mode, so that the
    reference's exact-mode tables give the suffix-mode ones."""
    names = bundle.domain_fqdns()
    return {
        name: {f for f in names if ref.blocked_suffix(f, entries)}
        for name, entries in lists.items()
    }


def run_pipeline(
    work, datasets, blocked, max_bucket=8, pii=False, match_mode="exact", flow_weighted=False
):
    """Write the bundles, run scan-pii (optional), evaluate and classify, and
    return the CLI's tables next to the reference's. ``blocked`` is the set
    of names one hosts file, list L, holds, or a mapping for write_lists."""
    if isinstance(blocked, (set, frozenset)):
        blocked = {"L": [(blocked, True)]}
    list_paths = write_lists(work, blocked)
    spec = os.path.join(work, "spec.json")
    with open(spec, "w", encoding="utf-8") as fh:
        json.dump({"advertising_id": [ADID]}, fh)
    config = os.path.join(work, "config.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "psl_path": PSL_PATH,
                "lists": list_paths,
                "keywords": KEYWORDS,
                "platform_markers": MARKERS,
                "stop_tokens": sorted(STOPS),
                "max_bucket": max_bucket,
                "pii_spec_path": spec,
                "match_mode": match_mode,
                "flow_weighted": flow_weighted,
            },
            fh,
        )
    bundle_dirs = []
    for ds in datasets:
        bundle_dir = os.path.join(work, ds.label)
        write_bundle(bundle_dir, *ds)
        bundle_dirs.append(bundle_dir)
        if pii:
            assert main(["scan-pii", "--bundle", bundle_dir, "--config", config]) == 0
    report = os.path.join(work, "report")
    argv = ["evaluate", "--config", config, "--out", report]
    for bundle_dir in bundle_dirs:
        argv += ["--bundle", bundle_dir]
    assert main(argv) == 0

    tables = ["block_rates", "penetration", "popularity_curve", "fn_candidates", "overlap"]
    tables += ["pii_table"] if pii else []
    got = {table: csv_rows(os.path.join(report, f"{table}.csv")) for table in tables}
    got["classifications"] = []
    want = {table: [] for table in got}
    lists = {
        name: set().union(*(ref.parse_hosts(path) for path in paths))
        for name, paths in list_paths.items()
    }
    variants = ref.variant_set({"advertising_id": [ADID]})
    bundles = []
    for ds, bundle_dir in zip(datasets, bundle_dirs):
        out = os.path.join(work, f"classify-{ds.label}")
        assert main(["classify", "--bundle", bundle_dir, "--config", config, "--out", out]) == 0
        got["classifications"] += csv_rows(os.path.join(out, "classifications.csv"))
        bundle = ref.Bundle(
            ds.label,
            [r.to_json() for r in ds.records],
            [t.to_json() for t in ds.transactions],
        )
        bundles.append(bundle)
        markers = set(MARKERS[ds.label])
        matched = suffix_lists(bundle, lists) if match_mode == "suffix" else lists
        want["block_rates"] += [
            row + flow_rate_cells(bundle, entries) if flow_weighted else row
            for row, entries in zip(ref.block_rate_rows(bundle, lists), lists.values())
        ]
        want["penetration"] += ref.penetration_rows(bundle, markers, STOPS)
        want["popularity_curve"] += ref.curve_rows(bundle, matched, max_bucket)
        want["fn_candidates"] += ref.fn_rows(bundle, matched, set(KEYWORDS))
        want["classifications"] += reference_classifications(bundle, markers)
        if pii:
            want["pii_table"] += ref.pii_rows(bundle, variants, matched, markers, STOPS)
    want["overlap"] = ref.overlap_rows(bundles[0], bundles[1], STOPS)
    if pii:  # the reference finds no variant in a redacted log
        for bundle_dir in bundle_dirs:
            redacted = ref.read_jsonl(os.path.join(bundle_dir, "http.redacted.jsonl"))
            logged = ref.read_jsonl(os.path.join(bundle_dir, "http.jsonl"))
            assert [ref.scan_tx(tx, variants) for tx in redacted] == [set()] * len(logged)
    return got, {table: as_text(rows) for table, rows in want.items()}


def late_developer_bundles():
    # "Newsy" contacts its first name with no developer and "Acme Media"
    # only later, so the three rules give three different answers.
    roku = Capture(
        label="Roku",
        platform=Platform("Roku"),
        records=[
            flow("Roku", "api.newsy-feed.com", "Newsy", None, 0),
            flow("Roku", "cdn.acme-media.com", "Newsy", "Acme Media", 1),
            flow("Roku", "api.newsy-feed.com", "Newsy", "Acme Media", 2),
            flow("Roku", "ads.tracker.net", "Zeta Play", "Zeta Inc", 3),
            flow("Roku", "ads.tracker.net", "Newsy", "Acme Media", 4),
            flow("Roku", "10.0.0.7", "Newsy", None, 5),
            flow("Roku", "beacon.tracker.net", None, None, 6),
        ],
        transactions=[
            http("Roku", "cdn.acme-media.com", "Newsy", None, f"/v?adid={ADID}", 7),
            http("Roku", "ads.tracker.net", "Zeta Play", "Zeta Inc", f"/b?adid={ADID}", 8),
        ],
    )
    firetv = Capture(
        label="FireTV",
        platform=Platform("FireTV"),
        records=[
            flow("FireTV", "cdn.acme-media.com", "Newsy", "Acme Media", 0),
            flow("FireTV", "ads.tracker.net", "Zeta Play", "Zeta Inc", 1),
            flow("FireTV", "api.newsy-feed.com", "Newsy", "Acme Media", 2),
        ],
    )
    return roku, firetv


class TestFirstDeveloperRules:
    def test_index_keeps_both_per_app_rules_apart(self):
        index = dataset(*late_developer_bundles()[0]).index
        assert index.first_developers()["Newsy"] is None
        assert index.first_developers(known_only=True)["Newsy"] == "Acme Media"
        assert "10.0.0.7" in index.names and "10.0.0.7" not in index.domain_names()

    def test_reports_match_reference(self, tmp_path, capsys):
        datasets = late_developer_bundles()
        got, want = run_pipeline(str(tmp_path), datasets, {"ads.tracker.net"}, pii=True)
        capsys.readouterr()
        assert got == want
        # classifications.csv: first developer per (app, eSLD) pair
        developers = {(row[1], row[3]): row[2] for row in got["classifications"] if row[0] == "Roku"}
        assert developers[("Newsy", "newsy-feed.com")] == ""
        assert developers[("Newsy", "acme-media.com")] == "Acme Media"
        # overlap.csv: Newsy's first developer on Roku is None, so no match
        assert [row[0] for row in got["overlap"]] == ["Zeta Play", "TOTAL"]
        # PII party: Newsy's first known developer makes acme-media.com first party
        exposures = [
            json.loads(line)
            for line in (tmp_path / "Roku" / "exposures.jsonl").read_text().splitlines()
        ]
        parties = {e["fqdn"]: e["party"] for e in exposures}
        assert parties == {"cdn.acme-media.com": "first_party", "ads.tracker.net": "third_party"}


NAMES = [
    "acme-media.com",
    "cdn.acme-media.com",
    "api.newsy-feed.com",
    "ads.tracker.net",
    "beacon.tracker.net",
    "img.zeta.co.uk",
    "api.roku.com",
    "device.amazon.com",
    "10.0.0.7",
    "2001:db8::1",
]
APPS = [None, "Newsy", "Zeta Play", "Acme Player", "Tracker Tool"]
DEVELOPERS = [None, "Acme Media", "Zeta Inc", "Tracker Labs"]

contact = st.tuples(st.sampled_from(NAMES), st.sampled_from(APPS), st.sampled_from(DEVELOPERS))

# List entries: the contacted names and their parent domains, down to single labels.
ENTRIES = NAMES + ["tracker.net", "zeta.co.uk", "newsy-feed.com", "co.uk", "com", "net"]
LIST_FILE = st.tuples(st.sets(st.sampled_from(ENTRIES)), st.booleans())  # (entries, hosts format)
# 2-4 lists; L0 is split over two files.
LISTS = st.lists(LIST_FILE, min_size=3, max_size=5).map(
    lambda files: {"L0": files[:2], **{f"L{i}": [f] for i, f in enumerate(files[2:], start=1)}}
)


# How a transaction carries the ADID, if at all, and whether in a header
# (else in the URI query).
PLANTED = {
    None: None,
    "plain": ADID,
    "upper": ADID.upper(),
    "percent": "".join(f"%{ord(c):02X}" for c in ADID),
    "md5": hashlib.md5(ADID.encode()).hexdigest(),
    "sha1": hashlib.sha1(ADID.encode()).hexdigest(),
}
plant = st.tuples(st.sampled_from(list(PLANTED)), st.booleans())


def planted_http(label, name, app, dev, ts, planted=(None, False)):
    value, in_header = PLANTED[planted[0]], planted[1]
    if value is None:
        return http(label, name, app, dev, "/", ts)
    if in_header:
        return http(label, name, app, dev, "/", ts, [("Host", name), ("X-Ad-Id", value)])
    return http(label, name, app, dev, f"/?adid={value}&v=1", ts)


def random_dataset(label, flows, txs, plants=()):
    # Every bundle gets one attributed contact with a domain name, so the
    # reference's penetration denominators are never zero.
    records = [flow(label, "seed.acme-media.com", "Newsy", None)]
    records += [flow(label, name, app, dev, ts) for ts, (name, app, dev) in enumerate(flows)]
    plants = list(plants) + [(None, False)] * len(txs)  # past those drawn, none planted
    transactions = [
        planted_http(label, name, app or "Newsy", dev, ts, planted)
        for ts, ((name, app, dev), planted) in enumerate(zip(txs, plants))
    ]
    return Capture(label=label, platform=Platform(label), records=records, transactions=transactions)


class TestAgainstReference:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    )
    @given(
        roku_flows=st.lists(contact, max_size=12),
        roku_txs=st.lists(contact, max_size=4),
        roku_plants=st.lists(plant, min_size=4, max_size=4),
        firetv_flows=st.lists(contact, max_size=12),
        lists=LISTS,
        max_bucket=st.integers(min_value=1, max_value=4),
        match_mode=st.sampled_from(["exact", "suffix"]),
        flow_weighted=st.booleans(),
    )
    def test_tables_equal_reference(
        self,
        capsys,
        roku_flows,
        roku_txs,
        roku_plants,
        firetv_flows,
        lists,
        max_bucket,
        match_mode,
        flow_weighted,
    ):
        datasets = (
            random_dataset("Roku", roku_flows, roku_txs, roku_plants),
            random_dataset("FireTV", firetv_flows, []),
        )
        with tempfile.TemporaryDirectory() as work:
            got, want = run_pipeline(
                work, datasets, lists, max_bucket, pii=True, match_mode=match_mode,
                flow_weighted=flow_weighted,
            )
        capsys.readouterr()
        assert got == want
