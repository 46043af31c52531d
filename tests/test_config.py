"""Loading a config: the keys it accepts, that it (so every offline command) stays clear of the sinkhole, and what each command imports."""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tvblock

from make_golden import ingest_and_scan


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
    ingest_and_scan(str(tmp_path))
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


def test_no_command_loads_dataclasses_or_inspect(tmp_path):
    """Every value type is a NamedTuple or a slot class, so no command loads
    dataclasses, nor inspect, which dataclasses imports."""
    ingest_and_scan(str(tmp_path))
    config = os.path.join(DATA, "corpus_config.json")
    roku, firetv = str(tmp_path / "roku"), str(tmp_path / "firetv")
    flows, http = (os.path.join(DATA, "corpus", f"roku_{log}.jsonl") for log in ("flows", "http"))
    commands = {
        "ingest": ["ingest", "--flows", flows, "--http", http, "--out", str(tmp_path / "again")],
        "scan-pii": ["scan-pii", "--config", config, "--bundle", roku],
        "evaluate": ["evaluate", "--config", config, "--bundle", roku, "--bundle", firetv,
                     "--out", str(tmp_path / "report")],
        "classify": ["classify", "--config", config, "--bundle", roku,
                     "--out", str(tmp_path / "cls")],
        "serve": ["serve", "--config", config, "--listen", "127.0.0.1:0",
                  "--upstream", "127.0.0.1:9"],
    }
    # serve starts, then stops at its first wait, as on SIGINT.
    stop_serving = "import time\ndef interrupt(seconds):\n    raise KeyboardInterrupt\ntime.sleep = interrupt\n"
    loaded = {
        name: _loaded_after(
            f"{stop_serving}from tvblock import cli\nassert cli.main({argv!r}) == 0",
            ["dataclasses", "inspect"],
        )
        for name, argv in commands.items()
    }
    assert loaded == {name: [] for name in commands}


def test_no_offline_command_loads_the_idna_codec(tmp_path):
    """The corpus PSL holds non-ASCII rules, but no corpus name holds an
    "xn--" label, so no command builds a punycode twin or loads the codec
    and the Unicode tables behind it."""
    ingest_and_scan(str(tmp_path))
    config = os.path.join(DATA, "corpus_config.json")
    roku, firetv = str(tmp_path / "roku"), str(tmp_path / "firetv")
    commands = {
        "scan-pii": ["scan-pii", "--config", config, "--bundle", roku],
        "evaluate": ["evaluate", "--config", config, "--bundle", roku, "--bundle", firetv,
                     "--out", str(tmp_path / "report")],
        "classify": ["classify", "--config", config, "--bundle", roku,
                     "--out", str(tmp_path / "cls")],
    }
    loaded = {
        name: _loaded_after(
            f"from tvblock import cli\nassert cli.main({argv!r}) == 0",
            ["encodings.idna", "stringprep", "unicodedata"],
        )
        for name, argv in commands.items()
    }
    assert loaded == {name: [] for name in commands}


def _has_builtin_digests() -> bool:
    try:
        import _md5, _sha1  # noqa: F401
    except ImportError:
        return False
    return True


@pytest.mark.skipif(not _has_builtin_digests(), reason="this build has no _md5 and _sha1")
def test_scan_pii_loads_no_hashlib(tmp_path, capsys):
    """scan-pii hashes with the builtin digest modules, so it maps no OpenSSL."""
    from tvblock import cli

    config = os.path.join(DATA, "corpus_config.json")
    bundle = str(tmp_path / "roku")
    flows, http = (os.path.join(DATA, "corpus", f"roku_{log}.jsonl") for log in ("flows", "http"))
    assert cli.main(["ingest", "--config", config, "--flows", flows, "--http", http, "--out", bundle]) == 0
    capsys.readouterr()
    argv = ["scan-pii", "--config", config, "--bundle", bundle]
    code = f"from tvblock import cli\nassert cli.main({argv!r}) == 0"
    assert _loaded_after(code, ["_hashlib", "hashlib"]) == []
    assert os.path.getsize(tmp_path / "roku" / "exposures.jsonl") > 0


_FALLBACK_NEEDLES = """
import json, sys
sys.modules["_md5"] = None  # as on a build without the builtin digest modules
from tvblock import pii
needles = [[v.needle for v in pii.build_variants(pii.PiiSpec(pii.PiiKind.ACCOUNT_NAME, (text,)))]
           for text in json.loads(sys.argv[1])]
print(json.dumps({"hashlib": "hashlib" in sys.modules, "needles": needles}))
"""


@settings(max_examples=10, deadline=None)
@given(st.lists(st.text(min_size=1).filter(str.strip), min_size=1, max_size=8))
def test_digest_needles_equal_hashlib_on_both_import_paths(texts):
    """Each MD5 and SHA1 needle is hashlib's digest of a plain needle's UTF-8
    bytes, from the builtin modules and from the hashlib fallback alike."""
    import hashlib

    from tvblock import pii

    builtin = [pii.build_variants(pii.PiiSpec(pii.PiiKind.ACCOUNT_NAME, (t,))) for t in texts]
    src = os.path.dirname(os.path.dirname(os.path.abspath(tvblock.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", _FALLBACK_NEEDLES, json.dumps(texts)],
        capture_output=True, text=True, check=True, env=dict(os.environ, PYTHONPATH=src),
    ).stdout
    fallback = json.loads(out)
    assert fallback["hashlib"]
    for variants, needles in zip(builtin, fallback["needles"]):
        plain = [v.needle for v in variants if v.encoding is pii.Encoding.PLAIN]
        digests = [v.needle for v in variants if v.encoding is not pii.Encoding.PLAIN]
        assert sorted(digests) == sorted(
            h(p.encode("utf-8")).hexdigest() for p in plain for h in (hashlib.md5, hashlib.sha1)
        )
        assert needles == [v.needle for v in variants]


@pytest.mark.parametrize("section", [{"blocked_ttl": 2**32}, {"upstream_timeout_ms": 0}])
def test_serve_refuses_a_ttl_or_timeout_it_cannot_use(tmp_path, capsys, monkeypatch, section):
    """serve exits 2 before it binds, naming the setting."""
    from tvblock import cli, sinkhole

    monkeypatch.setattr(sinkhole, "serve", lambda *args: pytest.fail("serve was reached"))
    path = tmp_path / "cfg.json"
    lists = {"L": [os.path.join(DATA, "lists", "pd.txt")]}
    path.write_text(json.dumps({"lists": lists, "sinkhole": section}))
    argv = ["serve", "--config", str(path), "--listen", "127.0.0.1:0", "--upstream", "127.0.0.1:9"]
    assert cli.main(argv) == 2
    assert f"error: {next(iter(section))} must be >= " in capsys.readouterr().err


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
