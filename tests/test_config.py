"""Loading a config: the keys it accepts, and that it (so every offline command) stays clear of the sinkhole."""

import json
import os
import subprocess
import sys

import pytest

import tvblock


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
