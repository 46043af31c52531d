"""Loading a config: the keys it accepts, that it (so every offline command) stays clear of the sinkhole, and what each command imports."""

import json
import os
import subprocess
import sys

import pytest

import tvblock

from make_golden import scan_pii_outputs


@pytest.mark.parametrize("module", ["tvblock.config", "tvblock.cli"])
def test_offline_modules_load_no_sinkhole_code(module):
    code = (
        f"import sys, {module}\n"
        "print(sorted(m for m in ('tvblock.sinkhole', 'concurrent.futures') if m in sys.modules))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(tvblock.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=src),
    ).stdout
    assert out.strip() == "[]"


DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
PIPELINE = ["tvblock.metrics", "tvblock.party", "tvblock.pii", "tvblock.psl", "tvblock.reports"]


def _loaded_after(code: str, names: list[str]) -> list[str]:
    """Which of ``names`` are in sys.modules after ``code`` runs in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(tvblock.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport json, sys\nprint(json.dumps(sorted(set({names!r}) & set(sys.modules))))"],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=src),
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def test_serve_loads_no_pipeline_code():
    assert _loaded_after("import tvblock.cli, tvblock.sinkhole", ["tvblock.traffic", *PIPELINE]) == []
    assert _loaded_after("import tvblock.cli", ["hashlib"]) == []
    assert _loaded_after("import tvblock.cli, tvblock.sinkhole", ["hashlib"]) == []


def test_list_loaders_load_no_traffic_model():
    code = "import tvblock.psl, tvblock.blocklists, tvblock.config"
    assert _loaded_after(code, ["tvblock.traffic"]) == []


def test_ingest_loads_no_scanner_or_metrics(tmp_path):
    argv = [
        "ingest",
        "--config", os.path.join(DATA, "corpus_config.json"),
        "--flows", os.path.join(DATA, "corpus", "roku_flows.jsonl"),
        "--http", os.path.join(DATA, "corpus", "roku_http.jsonl"),
        "--out", str(tmp_path / "roku"),
    ]
    code = f"from tvblock import cli\nassert cli.main({argv!r}) == 0"
    assert _loaded_after(code, [*PIPELINE, "hashlib"]) == []
    assert (tmp_path / "roku" / "flows.jsonl").exists()


def test_evaluate_loads_no_hashlib(tmp_path):
    """evaluate reads exposures but never hashes, so it loads no OpenSSL."""
    scan_pii_outputs(str(tmp_path))
    argv = [
        "evaluate",
        "--config", os.path.join(DATA, "corpus_config.json"),
        "--bundle", str(tmp_path / "roku"),
        "--bundle", str(tmp_path / "firetv"),
        "--out", str(tmp_path / "report"),
    ]
    code = f"from tvblock import cli\nassert cli.main({argv!r}) == 0"
    assert _loaded_after(code, ["hashlib"]) == []
    assert (tmp_path / "report" / "pii_table.csv").exists()


def test_sinkhole_config_still_importable_from_sinkhole():
    from tvblock import config, sinkhole

    assert sinkhole.SinkholeConfig is config.SinkholeConfig


def test_sinkhole_section_has_no_match_mode_of_its_own(tmp_path):
    """The top-level match_mode is the one setting; serve copies it over."""
    from tvblock.config import load_config

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"match_mode": "exact", "sinkhole": {"match_mode": "suffix"}}))
    with pytest.raises(ValueError, match=r"unknown sinkhole config keys: \['match_mode'\]"):
        load_config(str(path))
    path.write_text(json.dumps({"match_mode": "suffix", "sinkhole": {"blocked_ttl": 5}}))
    cfg = load_config(str(path))
    assert cfg.match_mode == "suffix" and cfg.sinkhole.blocked_ttl == 5
