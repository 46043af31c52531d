"""The streamed bundle loader against the capture it was written from.

``load_bundle`` folds each parsed line straight into its Dataset and keeps
no record, so it must give the same names and contacts (same order: the
three "first developer" rules hang on it), summary and platform as the
Dataset folded from the same records and transactions held in lists.
"""

import gc
import json
import os
import tempfile
import tracemalloc

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import CORPUS_CONFIG, CORPUS_DIR, DATA_DIR, Capture, dataset
from test_contact_index import contact, flow, http, random_dataset
from tvblock import cli, metrics
from tvblock.blocklists import build_list
from tvblock.cli import load_bundle, main, write_bundle
from tvblock.party import ClassificationContext
from tvblock.traffic import Platform, dataset_summary, parse_flow_log, parse_http_log


def assert_loads_as(capture, bundle_dir, drop_platform=False):
    summary = write_bundle(bundle_dir, *capture)
    expected = dataset(*capture)
    with open(os.path.join(bundle_dir, "summary.json"), encoding="utf-8") as fh:
        assert json.load(fh) == summary._asdict()
    assert summary == dataset_summary(expected)
    if drop_platform:
        with open(os.path.join(bundle_dir, "meta.json"), "w", encoding="utf-8") as fh:
            json.dump({"label": capture.label}, fh)
    loaded = load_bundle(bundle_dir)
    assert list(loaded.names.items()) == list(expected.names.items())
    assert loaded.contacts == expected.contacts
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
        dataset = load_bundle(bundle_dir)
        return tracemalloc.get_traced_memory()[1], dataset
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_load_peak_does_not_grow_with_flow_count(self, tmp_path):
        small, large = str(tmp_path / "small"), str(tmp_path / "large")
        _write_flows(small, 2_000)
        _write_flows(large, 20_000)
        load_bundle(small)  # first-call allocations (imports, caches) off the books
        small_peak, small_dataset = _load_peak(small)
        large_peak, large_dataset = _load_peak(large)
        assert small_dataset.contacts == large_dataset.contacts
        assert large_peak < 1.5 * small_peak, (small_peak, large_peak)

    def test_ingest_peak_does_not_grow_with_flow_count(self, tmp_path, capsys):
        """ingest writes each parsed line to the bundle and keeps none."""
        small, large = str(tmp_path / "small"), str(tmp_path / "large")
        _write_flows(small, 2_000)
        _write_flows(large, 20_000)

        def ingest_peak(src, out):
            tracemalloc.start()
            try:
                assert main(["ingest", "--flows", os.path.join(src, "flows.jsonl"), "--out", out]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        ingest_peak(small, str(tmp_path / "warm"))  # first-call allocations off the books
        small_peak = ingest_peak(small, str(tmp_path / "small-out"))
        large_peak = ingest_peak(large, str(tmp_path / "large-out"))
        capsys.readouterr()
        assert large_peak < 1.5 * small_peak, (small_peak, large_peak)

    def test_evaluate_holds_only_the_list_entries_its_names_can_hit(self, tmp_path, capsys):
        """Padding every list with 40,000 names that no capture holds raises
        evaluate's peak by far less than holding the padded lists takes."""
        bundles = []
        for label, stem in [("Roku", "roku"), ("FireTV", "firetv")]:
            bundles += ["--bundle", str(tmp_path / stem)]
            write_bundle(bundles[-1], *corpus_dataset(label, stem, Platform(label)))
        with open(CORPUS_CONFIG, encoding="utf-8") as fh:
            corpus_lists = json.load(fh)["lists"]
        pad = tmp_path / "pad.txt"
        pad.write_text("".join(f"0.0.0.0 pad{i}.nowhere.test\n" for i in range(40_000)))

        def manifest(name, extra):
            path = tmp_path / f"{name}.json"
            lists = {n: [os.path.join(DATA_DIR, p) for p in ps] + extra for n, ps in corpus_lists.items()}
            path.write_text(json.dumps(lists))
            return str(path), lists

        def evaluate_peak(lists_path):
            argv = ["evaluate", "--config", CORPUS_CONFIG, "--lists", lists_path, *bundles]
            tracemalloc.start()
            try:
                assert main(argv + ["--out", str(tmp_path / "out")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        plain, _ = manifest("plain", [])
        padded, padded_lists = manifest("padded", [str(pad)])
        evaluate_peak(plain)  # first-call allocations off the books
        growth = evaluate_peak(padded) - evaluate_peak(plain)
        tracemalloc.start()
        try:
            whole = [build_list(n, paths) for n, paths in padded_lists.items()]
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert sum(bl.entry_count for bl in whole) > 160_000
        assert growth < held / 4, (growth, held)

    def test_dataset_holds_each_distinct_string_once(self, tmp_path):
        """Each kept name, app id and developer is one object however many
        lines spell it, in one bundle and across two."""
        loaded = []
        for stem, step in [("a", 1), ("b", -1)]:
            lines = [(f"host{i % 3}.example.com", f"app{i % 4}", f"Dev {i % 2}") for i in range(24)]
            lines = lines[::step]
            capture = Capture(
                label=stem,
                records=[flow("Roku", name, app, dev, ts) for ts, (name, app, dev) in enumerate(lines)],
                transactions=[http("Roku", name, app, dev) for name, app, dev in lines[:5]],
            )
            write_bundle(str(tmp_path / stem), *capture)
            loaded.append(load_bundle(str(tmp_path / stem)))
        seen = {}
        for ds in loaded:
            keys = {name: name for name in ds.names}
            assert len(ds.contacts) == 12
            for contact in ds.contacts:
                assert contact[0] is keys[contact[0]], contact
                for value in contact:
                    assert seen.setdefault(value, value) is value, contact
        assert len(seen) == 3 + 4 + 2

    def test_evaluate_holds_one_classification_context_at_a_time(self, tmp_path, monkeypatch, capsys):
        """No context is alive when the next bundle's is built, nor at the overlap."""
        bundles = []
        for label, stem in [("Roku", "roku"), ("FireTV", "firetv")]:
            bundles += ["--bundle", str(tmp_path / stem)]
            write_bundle(bundles[-1], *corpus_dataset(label, stem, Platform(label)))

        def live_contexts():
            return sum(isinstance(o, ClassificationContext) for o in gc.get_objects())

        entries = []

        def counted(name, func):
            def wrapper(*args, **kwargs):
                entries.append((name, live_contexts()))
                return func(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "_build_ctx", counted("_build_ctx", cli._build_ctx))
        monkeypatch.setattr(
            metrics, "common_app_overlap", counted("common_app_overlap", metrics.common_app_overlap)
        )
        gc.collect()
        before = live_contexts()
        argv = ["evaluate", "--config", CORPUS_CONFIG, *bundles, "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        capsys.readouterr()
        assert entries == [
            ("_build_ctx", before), ("_build_ctx", before), ("common_app_overlap", before)
        ]
