"""Fresh runs on the corpus, their error paths, the help texts, and respond()
on a fixed query set, against the committed goldens. scan-pii, evaluate and
classify run again under each of make_golden's TRANSFORMS of tests/data, and
must write the same goldens, stderr included.

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
    TRANSFORMS,
    golden_texts,
    transformed_texts,
)

# below GOLDEN: the files transformed_texts writes
TRANSFORMED_FILES = tuple(
    f"scan_pii/{rel}" for rel in SCAN_PII_FILES if rel != "variants.json"
) + tuple(rel for rel in PIPELINE_FILES if rel.split("/")[0] in ("evaluate", "classify"))


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def fresh(work_dir):
    return golden_texts(work_dir)


@pytest.fixture(scope="module", params=TRANSFORMS)
def transformed(request, fresh, work_dir):
    return transformed_texts(work_dir, request.param)


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


@pytest.mark.parametrize("rel", TRANSFORMED_FILES)
def test_transformed_data_matches_golden(transformed, rel):
    check(transformed, rel)
