#!/usr/bin/env python3
"""Regenerate the committed scan-pii goldens under tests/data/golden/scan_pii/.

For each corpus capture (Roku, FireTV) this runs ``ingest`` and then
``scan-pii`` with the same arguments as CI's console-script step, and keeps
``exposures.jsonl`` and ``http.redacted.jsonl``. It also writes
``variants.json``: the (kind, encoding, component, needle) list that
``pii.build_all_variants`` makes from ``corpus/pii_spec.json``. The corpus
does not plant every MAC format or coordinate form, so only that list pins
the full variant set.

The goldens pin bytes; ``tests/reference_pipeline.py`` stays the oracle for
correctness. A change that alters a golden file on purpose reruns this and
names each changed file, and why.

Usage: ``PYTHONPATH=src python tests/make_golden.py``. Rerunning produces
byte-identical files.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")
CORPUS = os.path.join(DATA, "corpus")
CONFIG = os.path.join(DATA, "corpus_config.json")
GOLDEN = os.path.join(DATA, "golden", "scan_pii")

# bundle directory -> (--label, --platform), as in CI's console-script step
BUNDLES = {"roku": ("Roku", "roku"), "firetv": ("FireTV", "firetv")}
OUTPUTS = ("exposures.jsonl", "http.redacted.jsonl")
GOLDEN_FILES = tuple(f"{b}/{o}" for b in BUNDLES for o in OUTPUTS) + ("variants.json",)


def _run(argv: list[str]) -> None:
    from tvblock import cli

    with contextlib.redirect_stdout(io.StringIO()):  # the summary names temp paths
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"tvblock {' '.join(argv)} exited {code}")


def scan_pii_outputs(work_dir: str) -> dict[str, str]:
    """Ingest and scan both corpus captures under ``work_dir``; return each
    output's text keyed by its path below GOLDEN."""
    texts = {}
    for name, (label, platform) in BUNDLES.items():
        bundle = os.path.join(work_dir, name)
        _run([
            "ingest", "--config", CONFIG,
            "--flows", os.path.join(CORPUS, f"{name}_flows.jsonl"),
            "--http", os.path.join(CORPUS, f"{name}_http.jsonl"),
            "--label", label, "--platform", platform, "--out", bundle,
        ])
        _run(["scan-pii", "--config", CONFIG, "--bundle", bundle])
        for output in OUTPUTS:
            with open(os.path.join(bundle, output), encoding="utf-8") as fh:
                texts[f"{name}/{output}"] = fh.read()
    return texts


def variants_text() -> str:
    """The corpus PII spec's variants, one JSON array per line."""
    from tvblock import pii

    with open(os.path.join(CORPUS, "pii_spec.json"), encoding="utf-8") as fh:
        specs = pii.load_pii_specs(fh.read())
    rows = [
        json.dumps([v.kind.value, v.encoding.value, v.component, v.needle])
        for v in pii.build_all_variants(specs)
    ]
    return "[\n" + ",\n".join(rows) + "\n]\n"


def golden_texts(work_dir: str) -> dict[str, str]:
    texts = scan_pii_outputs(work_dir)
    texts["variants.json"] = variants_text()
    return texts


def main() -> None:
    with tempfile.TemporaryDirectory() as work_dir:
        texts = golden_texts(work_dir)
    for rel, text in texts.items():
        path = os.path.join(GOLDEN, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(f"goldens written: {len(texts)} files under {os.path.relpath(GOLDEN, HERE)}")


if __name__ == "__main__":
    main()
