import json
import os
from typing import NamedTuple, Optional, Sequence

import pytest
from hypothesis import settings

from tvblock import psl
from tvblock.blocklists import build_list
from tvblock.traffic import Dataset, FlowRecord, HttpTransaction, Platform, index_contacts

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
CORPUS_DIR = os.path.join(DATA_DIR, "corpus")
PSL_PATH = os.path.join(DATA_DIR, "public_suffix_list.dat")
PSL_VECTORS_PATH = os.path.join(DATA_DIR, "psl_test_vectors.txt")
CORPUS_CONFIG = os.path.join(DATA_DIR, "corpus_config.json")

# On CI (which sets CI): print a blob that replays any failing example, and no
# deadlines, which shared runners trip on timing alone.
settings.register_profile("ci", print_blob=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")


class Capture(NamedTuple):
    """A capture's records and transactions held in lists, in the order of
    write_bundle's arguments: ``write_bundle(out_dir, *capture)``."""

    label: str
    records: Sequence[FlowRecord] = ()
    transactions: Sequence[HttpTransaction] = ()
    platform: Optional[Platform] = None


def dataset(label, records=(), transactions=(), platform=None) -> Dataset:
    """The Dataset of records and transactions held in lists; ``dataset(*capture)``."""
    return index_contacts(label, records, transactions, platform)


@pytest.fixture(scope="session")
def rules():
    return psl.load_psl_file(PSL_PATH)


@pytest.fixture(scope="session")
def corpus_config():
    with open(CORPUS_CONFIG, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def fixture_lists(corpus_config):
    built = []
    for name, paths in corpus_config["lists"].items():
        built.append(build_list(name, [os.path.join(DATA_DIR, p) for p in paths]))
    return built
