"""Loading a config (and so every offline command) stays clear of the sinkhole."""

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
