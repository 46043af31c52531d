"""A fresh ingest + scan-pii run on the corpus against the committed goldens.

On a difference the test prints a unified diff. A change that alters an
output on purpose regenerates the goldens with tests/make_golden.py.
"""

import difflib
import os

import pytest

from make_golden import GOLDEN, GOLDEN_FILES, golden_texts


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    return golden_texts(str(tmp_path_factory.mktemp("golden")))


@pytest.mark.parametrize("rel", GOLDEN_FILES)
def test_scan_pii_matches_golden(fresh, rel):
    with open(os.path.join(GOLDEN, rel), encoding="utf-8") as fh:
        want = fh.read()
    got = fresh[rel]
    if got != want:
        diff = difflib.unified_diff(
            want.splitlines(keepends=True),
            got.splitlines(keepends=True),
            fromfile=f"golden/{rel}",
            tofile=f"fresh/{rel}",
        )
        pytest.fail("output differs from its golden:\n" + "".join(diff), pytrace=False)
