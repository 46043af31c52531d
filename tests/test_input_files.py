"""Every input file a command reads has a defined outcome: output, a failed
table (exit 1) or an input error (exit 2) before any output. None of them
can end a command in a traceback."""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from tvblock import metrics, party, pii
from tvblock.cli import load_bundle_exposures, main
from tvblock.config import GLOBAL_KEYS
from tvblock.traffic import read_jsonl, require_field

from conftest import CORPUS_CONFIG, CORPUS_DIR, PSL_PATH
from test_cli import _absolute_corpus_config

TABLES = [
    "block_rates.csv",
    "penetration.csv",
    "popularity_curve.csv",
    "pii_table.csv",
    "fn_candidates.csv",
    "report.json",
]


def _main(*argv):
    """Run the CLI in-process and return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A scanned Roku corpus bundle and a platform-process file."""
    root = tmp_path_factory.mktemp("inputs")
    bundle = root / "bundle"
    code, _, _ = _main(
        "ingest",
        "--flows", os.path.join(CORPUS_DIR, "roku_flows.jsonl"),
        "--http", os.path.join(CORPUS_DIR, "roku_http.jsonl"),
        "--label", "Roku",
        "--platform", "roku",
        "--out", bundle,
    )
    assert code == 0
    code, _, _ = _main("scan-pii", "--bundle", bundle, "--config", CORPUS_CONFIG)
    assert code == 0
    (root / "processes.jsonl").write_text('{"app_id": "com.roku.launcher", "is_platform": true}\n')
    return root


def _write_config(path, **overrides):
    path.write_text(json.dumps(_absolute_corpus_config(**overrides)))
    return path


# -- one test per defect -----------------------------------------------------


def test_org_line_without_parent_fails_the_table_and_keeps_the_rest(corpus, tmp_path):
    parents = tmp_path / "parents.jsonl"
    parents.write_text('{"org": "Google", "parent": "Alphabet"}\n{"org": "Roku"}\n')
    config = _write_config(tmp_path / "cfg.json", org_parent_path=str(parents))
    out = tmp_path / "out"
    code, _, err = _main("evaluate", "--bundle", corpus / "bundle", "--config", config, "--out", out)
    assert code == 1
    assert "table failed: organizations: org parent entries line 2: missing field 'parent'" in err
    assert sorted(os.listdir(out)) == sorted(TABLES)
    assert json.loads((out / "report.json").read_text())["organizations"] is None


def test_platform_process_line_that_is_no_object_exits_2(corpus, tmp_path):
    processes = tmp_path / "processes.jsonl"
    processes.write_text("[1]\n")
    config = _write_config(tmp_path / "cfg.json", platform_processes_path=str(processes))
    out = tmp_path / "out"
    code, stdout, err = _main(
        "classify", "--bundle", corpus / "bundle", "--config", config, "--out", out
    )
    assert (code, stdout) == (2, "")
    assert err == (
        "error: cannot read platform process file: "
        "platform processes line 1: line is not a JSON object\n"
    )
    assert not out.exists()


def test_pii_spec_directory_exits_2(corpus, tmp_path):
    out = tmp_path / "out"
    code, stdout, err = _main(
        "scan-pii", "--bundle", corpus / "bundle", "--config", CORPUS_CONFIG,
        "--pii-spec", tmp_path, "--out", out,
    )
    assert (code, stdout) == (2, "")
    assert f"error: cannot read {tmp_path}: Is a directory\n" in err
    assert not out.exists()


def test_pii_spec_value_of_another_type_exits_2(corpus, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text('{"mac_address": 5}')
    out = tmp_path / "out"
    code, stdout, err = _main(
        "scan-pii", "--bundle", corpus / "bundle", "--config", CORPUS_CONFIG,
        "--pii-spec", spec, "--out", out,
    )
    assert (code, stdout) == (2, "")
    assert "error: invalid PII spec: mac_address must be a string or an array\n" in err
    assert not out.exists()


def test_meta_json_directory_exits_2(corpus, tmp_path):
    bundle = shutil.copytree(corpus / "bundle", tmp_path / "bundle")
    os.remove(bundle / "meta.json")
    os.mkdir(bundle / "meta.json")
    out = tmp_path / "out"
    code, stdout, err = _main("classify", "--bundle", bundle, "--config", CORPUS_CONFIG, "--out", out)
    assert (code, stdout) == (2, "")
    assert err == f"error: cannot read {bundle / 'meta.json'}: Is a directory\n"
    assert not out.exists()


def test_ats_labels_string_is_rejected_not_split():
    with pytest.raises(ValueError, match=r"line 1: field 'labels' must be an array"):
        metrics.load_ats_labels('{"fqdn": "ads.example.com", "labels": "ads"}\n')


def test_ats_labels_string_fails_the_table(corpus, tmp_path):
    labels = tmp_path / "ats.jsonl"
    labels.write_text('{"fqdn": "ads.example.com", "labels": "ads"}\n')
    config = _write_config(tmp_path / "cfg.json", ats_labels_path=str(labels))
    out = tmp_path / "out"
    code, _, err = _main("evaluate", "--bundle", corpus / "bundle", "--config", config, "--out", out)
    assert code == 1
    assert "table failed: ats_labels: ATS label entries line 1:" in err
    assert sorted(os.listdir(out)) == sorted(TABLES)


@pytest.mark.parametrize("blocked_by", [5, "PD", [[1]]], ids=["int", "str", "nested"])
def test_exposure_blocked_by_of_another_type_names_the_line(corpus, tmp_path, blocked_by):
    bundle = shutil.copytree(corpus / "bundle", tmp_path / "bundle")
    with open(bundle / "exposures.jsonl", encoding="utf-8") as fh:
        record = json.loads(fh.readline())
    record["blocked_by"] = blocked_by
    (bundle / "exposures.jsonl").write_text(json.dumps(record) + "\n")
    with pytest.raises(
        ValueError, match=r"^exposures line 1: field 'blocked_by' must be an array of strings$"
    ):
        load_bundle_exposures(bundle)
    out = tmp_path / "out"
    code, _, err = _main("evaluate", "--bundle", bundle, "--config", CORPUS_CONFIG, "--out", out)
    assert code == 1
    assert "table failed: pii_table[Roku]: exposures line 1: field 'blocked_by'" in err


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"max_bucket": "8"}, "max_bucket must be int, got str"),
        ({"max_bucket": True}, "max_bucket must be int, got bool"),
        ({"max_bucket": None}, "max_bucket must be int, got NoneType"),
        ({"lists": ["a"]}, "lists must be dict[str, list[str]], got list"),
        ({"lists": {"PD": "pd.txt"}}, "lists must be dict[str, list[str]], got dict"),
        ({"keywords": "ads"}, "keywords must be Optional[list[str]], got str"),
        ({"keywords": [1]}, "keywords must be Optional[list[str]], got list"),
        ({"stop_tokens": "amazon"}, "stop_tokens must be Optional[list[str]], got str"),
        ({"flow_weighted": "no"}, "flow_weighted must be bool, got str"),
        ({"psl_path": 1}, "psl_path must be Optional[str], got int"),
        ({"psl_icann_only": 0}, "psl_icann_only must be bool, got int"),
        ({"match_mode": 1}, "match_mode must be Literal['exact', 'suffix'], got int"),
        ({"platform_markers": {"Roku": "roku"}},
         "platform_markers must be dict[str, list[str]], got dict"),
        ({"platform_markers": []}, "platform_markers must be dict[str, list[str]], got list"),
        ({"pii_spec_path": False}, "pii_spec_path must be Optional[str], got bool"),
        ({"org_esld_path": 1.5}, "org_esld_path must be Optional[str], got float"),
        ({"org_parent_path": []}, "org_parent_path must be Optional[str], got list"),
        ({"ats_labels_path": {}}, "ats_labels_path must be Optional[str], got dict"),
        ({"platform_processes_path": 2}, "platform_processes_path must be Optional[str], got int"),
        ({"output_dir": None}, "output_dir must be str, got NoneType"),
        ({"sinkhole": "on"}, "sinkhole section must be an object"),
        ({"sinkhole": {"listen_address": 53}}, "sinkhole.listen_address must be str, got int"),
        ({"sinkhole": {"upstream_resolver": None}},
         "sinkhole.upstream_resolver must be str, got NoneType"),
        ({"sinkhole": {"active_lists": "PD"}},
         "sinkhole.active_lists must be tuple[str, ...], got str"),
        ({"sinkhole": {"active_lists": ["PD", 1]}},
         "sinkhole.active_lists must be tuple[str, ...], got list"),
        ({"sinkhole": {"blocking_mode": 0}}, "sinkhole.blocking_mode must be str, got int"),
        ({"sinkhole": {"blocked_ttl": "2"}}, "sinkhole.blocked_ttl must be int, got str"),
        ({"sinkhole": {"blocked_ttl": 2.0}}, "sinkhole.blocked_ttl must be int, got float"),
        ({"sinkhole": {"upstream_timeout_ms": True}},
         "sinkhole.upstream_timeout_ms must be int, got bool"),
        ({"sinkhole": {"query_log_path": 1}}, "sinkhole.query_log_path must be Optional[str], got int"),
        ({"sinkhole": {"stats_address": []}}, "sinkhole.stats_address must be Optional[str], got list"),
        ({"bogus": 1, "max_buckets": 8}, "unknown config keys: ['bogus', 'max_buckets']"),
        ({"sinkhole": {"listen": "x"}}, "unknown sinkhole config keys: ['listen']"),
        ({"sinkhole": {"match_mode": "suffix"}}, "unknown sinkhole config keys: ['match_mode']"),
    ],
    ids=["max_bucket-str", "max_bucket-bool", "max_bucket-null", "lists", "lists-paths",
         "keywords", "keywords-item", "stop_tokens", "flow_weighted", "psl_path",
         "psl_icann_only", "match_mode", "platform_markers", "platform_markers-list",
         "pii_spec_path", "org_esld_path", "org_parent_path", "ats_labels_path",
         "platform_processes_path", "output_dir", "sinkhole-section", "sinkhole-listen_address",
         "sinkhole-upstream_resolver", "sinkhole-active_lists", "sinkhole-active_lists-item",
         "sinkhole-blocking_mode", "sinkhole", "sinkhole-blocked_ttl-float",
         "sinkhole-upstream_timeout_ms", "sinkhole-query_log_path", "sinkhole-stats_address",
         "unknown", "sinkhole-unknown", "sinkhole-match_mode"],
)
def test_config_value_of_another_json_type_exits_2(corpus, tmp_path, overrides, message):
    config = _write_config(tmp_path / "cfg.json", **overrides)
    out = tmp_path / "out"
    code, stdout, err = _main(
        "classify", "--bundle", corpus / "bundle", "--config", config, "--out", out
    )
    assert (code, stdout) == (2, "")
    assert err == f"error: cannot load config {config}: {message}\n"
    assert not out.exists()


# -- nesting past the recursion limit, lone surrogates ------------------------

DEEP = "[" * 100_000  # deeper than the interpreter's recursion limit


def _classify_rows(bundle, out):
    code, _, err = _main("classify", "--bundle", bundle, "--config", CORPUS_CONFIG, "--out", out)
    return code, err, (out / "classifications.csv").read_text().splitlines()[2:]


def test_deeply_nested_bundle_line_is_skipped_and_counted(corpus, tmp_path):
    bundle = shutil.copytree(corpus / "bundle", tmp_path / "bundle")
    with open(bundle / "flows.jsonl", "a", encoding="utf-8") as fh:
        fh.write(DEEP + "\n")
    code, err, rows = _classify_rows(bundle, tmp_path / "out")
    assert (code, err) == (0, f"warning: {bundle / 'flows.jsonl'}: skipped 1 unparsable lines\n")
    assert rows == _classify_rows(corpus / "bundle", tmp_path / "clean")[2]


def test_deeply_nested_config_exits_2(corpus, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(DEEP)
    out = tmp_path / "out"
    code, stdout, err = _main("classify", "--bundle", corpus / "bundle", "--config", config, "--out", out)
    assert (code, stdout) == (2, "")
    assert err.startswith(f"error: cannot load config {config}: nested too deeply")
    assert not out.exists()


def test_deeply_nested_pii_spec_exits_2(corpus, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(DEEP)
    out = tmp_path / "out"
    code, stdout, err = _main(
        "scan-pii", "--bundle", corpus / "bundle", "--config", CORPUS_CONFIG,
        "--pii-spec", spec, "--out", out,
    )
    assert (code, stdout) == (2, "")
    assert err.startswith("error: invalid PII spec: nested too deeply")
    assert not out.exists()


def test_meta_json_platform_with_a_lone_surrogate_exits_2(corpus, tmp_path):
    bundle = shutil.copytree(corpus / "bundle", tmp_path / "bundle")
    (bundle / "meta.json").write_text('{"label": "Roku", "platform": "\\udc80"}\n')
    out = tmp_path / "out"
    code, stdout, err = _main("classify", "--bundle", bundle, "--config", CORPUS_CONFIG, "--out", out)
    assert (code, stdout) == (2, "")
    assert err.startswith(f"error: corrupt bundle file {bundle / 'meta.json'}: lone surrogate")
    assert not out.exists()


def test_flow_line_with_a_lone_surrogate_is_skipped_at_ingest(tmp_path):
    good = {"device_id": "d", "platform": "Roku", "fqdn": "ads.example.com", "start_time": 0,
            "app_id": "Newsy"}
    flows = tmp_path / "flows.jsonl"
    flows.write_text(json.dumps(good) + "\n" + json.dumps({**good, "app_id": "\udc80"}) + "\n")
    bundle = tmp_path / "bundle"
    code, _, err = _main("ingest", "--flows", flows, "--platform", "roku", "--out", bundle)
    assert code == 1
    assert "warning: flows line 2: invalid JSON: lone surrogate in a string\n" in err
    code, err, rows = _classify_rows(bundle, tmp_path / "out")
    assert (code, err) == (0, "")
    assert [row.split(",")[1] for row in rows] == ["Newsy"]


def test_input_logs_with_a_byte_order_mark_build_the_same_bundle(corpus, tmp_path):
    for name in ("roku_flows.jsonl", "roku_http.jsonl"):
        with open(os.path.join(CORPUS_DIR, name), encoding="utf-8") as fh:
            (tmp_path / name).write_text(fh.read(), encoding="utf-8-sig")
    bundle = tmp_path / "bundle"
    code, _, err = _main(
        "ingest",
        "--flows", tmp_path / "roku_flows.jsonl",
        "--http", tmp_path / "roku_http.jsonl",
        "--label", "Roku",
        "--platform", "roku",
        "--out", bundle,
    )
    assert (code, err) == (0, "")
    for name in ("flows.jsonl", "http.jsonl", "summary.json", "meta.json"):
        assert (bundle / name).read_bytes() == (corpus / "bundle" / name).read_bytes(), name


@pytest.mark.parametrize(
    "command, kind",
    [
        ("classify", "config"),
        ("evaluate", "lists"),
        ("scan-pii", "pii_spec_path"),
        ("evaluate", "org_esld_path"),
        ("evaluate", "org_parent_path"),
        ("evaluate", "ats_labels_path"),
        ("classify", "platform_processes_path"),
    ],
)
def test_hand_written_file_with_a_byte_order_mark_reads_as_without(corpus, tmp_path, command, kind):
    """The config file, the lists manifest and each side file a config names
    give the same outputs, exit 0 and no warning with or without a BOM."""
    config = _absolute_corpus_config(platform_processes_path=str(corpus / "processes.jsonl"))

    def run(encoding):
        work = tmp_path / encoding
        work.mkdir()

        def save(name, text, file_encoding):
            path = work / name
            path.write_text(text, encoding=file_encoding)
            path.chmod(0o600)  # scan-pii warns about a world-readable PII spec
            return path

        cfg, argv = dict(config), []
        if kind == "lists":
            argv = ["--lists", save("lists.json", json.dumps(cfg["lists"]), encoding)]
        elif kind != "config":
            with open(cfg[kind], encoding="utf-8") as fh:
                cfg[kind] = str(save(os.path.basename(cfg[kind]), fh.read(), encoding))
        cfg_path = save("cfg.json", json.dumps(cfg), encoding if kind == "config" else "utf-8")
        out = work / "out"
        code, _, err = _main(
            command, "--bundle", corpus / "bundle", "--config", cfg_path, *argv, "--out", out
        )
        outputs = {}
        for name in sorted(os.listdir(out)) if out.exists() else []:
            lines = (out / name).read_text(encoding="utf-8").splitlines()
            outputs[name] = [line for line in lines if "generated_at" not in line]
        return code, err, outputs

    plain = run("utf-8")
    assert plain[:2] == (0, "")
    assert run("utf-8-sig") == plain


def test_lists_manifest_with_a_path_that_is_no_string_exits_2(corpus, tmp_path):
    manifest = tmp_path / "lists.json"
    manifest.write_text('{"PD": [1]}')
    out = tmp_path / "out"
    code, stdout, err = _main(
        "evaluate", "--bundle", corpus / "bundle", "--config", CORPUS_CONFIG,
        "--lists", manifest, "--out", out,
    )
    assert (code, stdout) == (2, "")
    assert err == (
        f"error: cannot load lists manifest {manifest}: "
        "lists manifest must map list names to arrays of paths\n"
    )
    assert not out.exists()


# -- the order of the inputs --------------------------------------------------
#
# evaluate and scan-pii read their bundles before their lists, since each list
# keeps only the entries the bundles' names can hit.


@pytest.mark.parametrize("command", ["evaluate", "scan-pii"])
def test_bad_bundle_is_reported_before_a_bad_list(corpus, tmp_path, command):
    manifest = tmp_path / "lists.json"
    missing = tmp_path / "missing.txt"
    manifest.write_text(json.dumps({"PD": [str(missing)]}))
    bundle = tmp_path / "bundle"
    shutil.copytree(corpus / "bundle", bundle)
    flows = bundle / "flows.jsonl"
    good_flows = flows.read_text()
    flows.write_text("junk\n")
    argv = [command, "--bundle", bundle, "--config", CORPUS_CONFIG, "--lists", manifest]
    out = tmp_path / "out"
    code, stdout, err = _main(*argv, "--out", out)
    assert (code, stdout) == (2, "")
    assert err == f"error: corrupt bundle file {flows}: no flow records parsed from input\n"
    flows.write_text(good_flows)
    code, stdout, err = _main(*argv, "--out", out)
    assert (code, stdout) == (2, "")
    assert err.startswith(f"error: cannot build list PD: cannot read blocklist file {missing}: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "scan-pii"])
def test_list_warning_follows_the_bundle_warning(corpus, tmp_path, command):
    bad_list = tmp_path / "bad.txt"
    bad_list.write_text("0.0.0.0 bad^host\n")
    manifest = tmp_path / "lists.json"
    manifest.write_text(json.dumps({"PD": [str(bad_list)]}))
    bundle = tmp_path / "bundle"
    shutil.copytree(corpus / "bundle", bundle)
    flows = bundle / "flows.jsonl"
    flows.write_text(flows.read_text() + "junk\n")
    done = subprocess.run(
        [sys.executable, "-m", "tvblock.cli", command, "--bundle", str(bundle),
         "--config", CORPUS_CONFIG, "--lists", str(manifest), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=60,
    )
    assert done.stderr.splitlines()[:2] == [  # then scan-pii may warn about its spec
        f"warning: {flows}: skipped 1 unparsable lines",
        f"WARNING tvblock.blocklists: {bad_list}:1: skipped 'bad^host' (not a domain name)",
    ]


# -- the strict reader --------------------------------------------------------


def test_read_jsonl_names_the_first_bad_line():
    with pytest.raises(ValueError, match=r"^items line 3: missing field 'k'$"):
        read_jsonl('{"k": 1}\n\n{"j": 2}\n[]\n', lambda obj: require_field(obj, "k"), "items")


def test_read_jsonl_names_a_line_when_none_parses():
    with pytest.raises(ValueError, match=r"^items line 1: invalid JSON"):
        read_jsonl("{\n{\n", dict, "items")


def test_read_jsonl_reads_blank_source_as_empty():
    assert read_jsonl("\n  \n", dict, "items") == []


@pytest.mark.parametrize(
    "load, text",
    [
        (lambda text: metrics.load_org_map(text, ""), '{"org": "A"}\n'),
        (lambda text: metrics.load_org_map("", text), '{"org": "A"}\n'),
        (metrics.load_ats_labels, '{"labels": ["ads"]}\n'),
        (party.load_platform_processes, '"app"\n'),
    ],
    ids=["org-esld", "org-parent", "ats", "processes"],
)
def test_side_file_loaders_raise_value_error(load, text):
    with pytest.raises(ValueError, match="line 1"):
        load(text)


# -- no input file can raise a traceback ---------------------------------------

# Each replaced input, and the command that reads it.
INPUTS = {
    "org_esld_path": "evaluate",
    "org_parent_path": "evaluate",
    "ats_labels_path": "evaluate",
    "platform_processes_path": "classify",
    "pii_spec_path": "scan-pii",
    "meta.json": "classify",
    "exposures.jsonl": "evaluate",
    "config": "classify",
}
BUNDLE_FILES = {"meta.json", "exposures.jsonl"}

# Keys the inputs' readers look up, so random objects reach past "missing".
KEYS = sorted(
    {"esld", "org", "parent", "fqdn", "labels", "app_id", "is_platform", "label", "platform"}
    | {"pii_kind", "encoding", "location", "timestamp", "party", "blocked_by"}
    | {kind.value for kind in pii.PiiKind}
    | {*GLOBAL_KEYS, "sinkhole"}
)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(["ads", "roku", "A", "first", "plain", "uri"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), inner, max_size=5),
    max_leaves=10,
)


def _lines(values) -> bytes:
    return "\n".join(json.dumps(v) for v in values).encode("utf-8")


REPLACEMENTS = st.one_of(
    st.binary(max_size=64),
    st.lists(JSON_VALUES, min_size=1, max_size=3).map(_lines),
    st.lists(JSON_VALUES, min_size=1, max_size=2).map(
        lambda values: _lines(values).decode("utf-8").encode("utf-16")  # not UTF-8
    ),
    st.none(),  # a directory
)


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(sorted(INPUTS)), content=REPLACEMENTS)
def test_no_input_file_raises_a_traceback(corpus, name, content):
    with tempfile.TemporaryDirectory(dir=corpus) as work:
        bundle = shutil.copytree(corpus / "bundle", os.path.join(work, "bundle"))
        target = os.path.join(bundle if name in BUNDLE_FILES else work, name)
        if os.path.exists(target):
            os.remove(target)
        if content is None:
            os.mkdir(target)
        else:
            with open(target, "wb") as fh:
                fh.write(content)
        config = target
        if name != "config":
            config = os.path.join(work, "cfg.json")
            overrides = {"platform_processes_path": str(corpus / "processes.jsonl")}
            if name.endswith("_path"):
                overrides[name] = target
            with open(config, "w", encoding="utf-8") as fh:
                json.dump(_absolute_corpus_config(**overrides), fh)
        code, _, _ = _main(
            INPUTS[name], "--bundle", bundle, "--config", config, "--psl", PSL_PATH,
            "--out", os.path.join(work, "out"),
        )
    assert code in (0, 1, 2)
