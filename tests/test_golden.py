"""Fresh runs on the corpus, their error paths, the help texts, and respond()
on a fixed query set, against the committed goldens.

On a difference the test prints a unified diff. A change that alters an
output on purpose regenerates the goldens with tests/make_golden.py.
"""

import difflib
import os

import pytest

from make_golden import (
    ERROR_FILES,
    GOLDEN,
    HELP_FILES,
    INGEST_FILES,
    PIPELINE_FILES,
    SCAN_PII_FILES,
    golden_texts,
)


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    return golden_texts(str(tmp_path_factory.mktemp("golden")))


def check(fresh, rel):
    with open(os.path.join(GOLDEN, rel), encoding="utf-8", newline="") as fh:
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


@pytest.mark.parametrize("rel", INGEST_FILES)
def test_ingest_matches_golden(fresh, rel):
    check(fresh, f"ingest/{rel}")


@pytest.mark.parametrize("rel", SCAN_PII_FILES)
def test_scan_pii_matches_golden(fresh, rel):
    check(fresh, f"scan_pii/{rel}")


@pytest.mark.parametrize("rel", PIPELINE_FILES)
def test_evaluate_classify_match_golden(fresh, rel):
    check(fresh, rel)


@pytest.mark.parametrize("rel", ERROR_FILES)
def test_error_path_matches_golden(fresh, rel):
    check(fresh, f"errors/{rel}")


@pytest.mark.parametrize("rel", HELP_FILES)
def test_help_matches_golden(fresh, rel):
    check(fresh, f"help/{rel}")


def test_respond_matches_golden(fresh):
    check(fresh, "respond.jsonl")
