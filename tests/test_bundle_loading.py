"""The streamed bundle loader against the capture it was written from.

``load_bundle`` folds each parsed line straight into the contact index and
keeps no record, so it must give the same index (same order: the three
"first developer" rules hang on it), summary and platform as a Dataset
folded from the same records and transactions held in lists.
"""

import json
import os
import tempfile
import tracemalloc

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import CORPUS_DIR, Capture, dataset
from test_contact_index import contact, flow, http, random_dataset
from tvblock.cli import load_bundle, write_bundle
from tvblock.traffic import Platform, dataset_summary, parse_flow_log, parse_http_log


def assert_loads_as(capture, bundle_dir, drop_platform=False):
    summary = write_bundle(bundle_dir, *capture)
    expected = dataset(*capture)
    with open(os.path.join(bundle_dir, "summary.json"), encoding="utf-8") as fh:
        assert json.load(fh) == summary.to_json()
    assert summary == dataset_summary(expected)
    if drop_platform:
        with open(os.path.join(bundle_dir, "meta.json"), "w", encoding="utf-8") as fh:
            json.dump({"label": capture.label}, fh)
    loaded = load_bundle(bundle_dir)
    assert list(loaded.index.names.items()) == list(expected.index.names.items())
    assert loaded.index.contacts == expected.index.contacts
    assert dataset_summary(loaded) == dataset_summary(expected)
    assert loaded.platform == expected.platform
    assert loaded.label == capture.label
    return loaded


def corpus_dataset(label, stem, platform=None):
    with open(os.path.join(CORPUS_DIR, f"{stem}_flows.jsonl"), encoding="utf-8") as fh:
        records = parse_flow_log(fh).records
    with open(os.path.join(CORPUS_DIR, f"{stem}_http.jsonl"), encoding="utf-8") as fh:
        transactions = parse_http_log(fh).transactions
    return Capture(label=label, records=records, transactions=transactions, platform=platform)


class TestMatchesInMemoryDataset:
    def test_corpus_bundles(self, tmp_path):
        for label, stem in [("Roku", "roku"), ("FireTV", "firetv")]:
            capture = corpus_dataset(label, stem, Platform(label))
            assert_loads_as(capture, str(tmp_path / stem))

    def test_corpus_bundle_without_declared_platform(self, tmp_path):
        capture = corpus_dataset("Roku", "roku")
        assert dataset(*capture).platform == Platform("Roku")
        assert_loads_as(capture, str(tmp_path / "roku"), drop_platform=True)

    def test_platform_from_first_record_when_undeclared(self, tmp_path):
        capture = Capture(
            label="mixed",
            records=[flow("Vizio", "a.example.com"), flow("Roku", "b.example.com")],
            transactions=[http("LG", "c.example.com", "app")],
        )
        assert dataset(*capture).platform == Platform("Vizio")
        assert_loads_as(capture, str(tmp_path / "mixed"), drop_platform=True)

    def test_platform_from_first_transaction_when_no_flows(self, tmp_path):
        capture = Capture(
            label="http-only",
            transactions=[
                http("LG", "c.example.com", "app", uri="/a?x=1"),
                http("Roku", "d.example.com", "app", "Dev", uri="/a?x=2"),
            ],
        )
        assert dataset(*capture).platform == Platform("LG")
        loaded = assert_loads_as(capture, str(tmp_path / "http-only"), drop_platform=True)
        assert os.path.getsize(tmp_path / "http-only" / "flows.jsonl") == 0
        assert dataset_summary(loaded).distinct_uri_path_count == 1

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        flows=st.lists(contact, max_size=15),
        txs=st.lists(contact, max_size=6),
        drop_platform=st.booleans(),
    )
    def test_random_bundles(self, flows, txs, drop_platform):
        capture = random_dataset("Roku", flows, txs)
        with tempfile.TemporaryDirectory() as work:
            assert_loads_as(capture, os.path.join(work, "b"), drop_platform=drop_platform)


def _write_flows(bundle_dir, count, names=20):
    os.makedirs(bundle_dir)
    with open(os.path.join(bundle_dir, "flows.jsonl"), "w", encoding="utf-8") as fh:
        for i in range(count):
            rec = flow("Roku", f"host{i % names}.example.com", f"app{i % names}", "Dev", i)
            fh.write(json.dumps(rec.to_json()) + "\n")


def _load_peak(bundle_dir):
    tracemalloc.start()
    try:
        index = load_bundle(bundle_dir).index
        return tracemalloc.get_traced_memory()[1], index
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_load_peak_does_not_grow_with_flow_count(self, tmp_path):
        small, large = str(tmp_path / "small"), str(tmp_path / "large")
        _write_flows(small, 2_000)
        _write_flows(large, 20_000)
        load_bundle(small)  # first-call allocations (imports, caches) off the books
        small_peak, small_index = _load_peak(small)
        large_peak, large_index = _load_peak(large)
        assert small_index.contacts == large_index.contacts
        assert large_peak < 1.5 * small_peak, (small_peak, large_peak)
