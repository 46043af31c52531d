#!/usr/bin/env python3
"""Regenerate the committed goldens under tests/data/golden/.

- ``scan_pii/``: for each corpus capture (Roku, FireTV) this runs ``ingest``
  and then ``scan-pii`` with the same arguments as CI's console-script step,
  and keeps ``exposures.jsonl`` and ``http.redacted.jsonl``. It also writes
  ``variants.json``: the (kind, encoding, component, needle) list that
  ``pii.build_all_variants`` makes from ``corpus/pii_spec.json``. The corpus
  does not plant every MAC format or coordinate form, so only that list pins
  the full variant set.
- ``evaluate/`` and ``classify/``: ``evaluate`` over both bundles and
  ``classify`` over the Roku bundle, with CI's arguments, each run as its
  own process. ``evaluate_suffix_flow/`` reruns ``evaluate`` with
  ``--mode suffix`` and ``flow_weighted`` on. Each directory keeps every
  CSV below its ``# generated_at`` line, ``report.json`` without its
  ``generated_at`` line, and ``run.txt``: the command, its exit code, its
  stdout and its stderr, with the work directory written as ``<work>``.
- ``respond.jsonl``: ``sinkhole.respond()`` on a fixed query set, in exact
  and suffix match mode and in null and nxdomain blocking mode: the query
  and answer bytes in hex, and the Outcome's verdict, qname, qtype and
  blocked_by.

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
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")
CORPUS = os.path.join(DATA, "corpus")
CONFIG = os.path.join(DATA, "corpus_config.json")
GOLDEN = os.path.join(DATA, "golden")
SRC = os.path.join(os.path.dirname(HERE), "src")

# bundle directory -> (--label, --platform), as in CI's console-script step
BUNDLES = {"roku": ("Roku", "roku"), "firetv": ("FireTV", "firetv")}
OUTPUTS = ("exposures.jsonl", "http.redacted.jsonl")
# below GOLDEN/scan_pii
SCAN_PII_FILES = tuple(f"{b}/{o}" for b in BUNDLES for o in OUTPUTS) + ("variants.json",)

EVALUATE_OUTPUTS = (
    "block_rates.csv",
    "fn_candidates.csv",
    "overlap.csv",
    "penetration.csv",
    "pii_table.csv",
    "popularity_curve.csv",
    "report.json",
)
# run directory -> the files its command writes
RUNS = {
    "evaluate": EVALUATE_OUTPUTS,
    "evaluate_suffix_flow": EVALUATE_OUTPUTS,
    "classify": ("classifications.csv",),
}
# below GOLDEN
PIPELINE_FILES = tuple(
    f"{run}/{name}" for run, names in RUNS.items() for name in names + ("run.txt",)
)


def _run(argv: list[str]) -> None:
    from tvblock import cli

    with contextlib.redirect_stdout(io.StringIO()):  # the summary names temp paths
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"tvblock {' '.join(argv)} exited {code}")


def scan_pii_outputs(work_dir: str) -> dict[str, str]:
    """Ingest and scan both corpus captures under ``work_dir``; return each
    output's text keyed by its path below GOLDEN/scan_pii."""
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


def _flow_weighted_config(work_dir: str) -> str:
    """The corpus config with flow_weighted on, its paths made absolute."""
    with open(CONFIG, encoding="utf-8") as fh:
        cfg = json.load(fh)
    for key in ("psl_path", "pii_spec_path", "org_esld_path", "org_parent_path", "ats_labels_path"):
        cfg[key] = os.path.join(DATA, cfg[key])
    for paths in cfg["lists"].values():
        paths[:] = [os.path.join(DATA, p) for p in paths]
    cfg["flow_weighted"] = True
    path = os.path.join(work_dir, "flow_weighted.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=2)
    return path


def _command_outputs(work_dir: str, run: str, argv: list[str]) -> dict[str, str]:
    """Run one tvblock command as its own process, so that its stderr holds
    every warning it logs; return its golden texts keyed below GOLDEN."""
    pythonpath = [SRC, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}
    proc = subprocess.run(
        [sys.executable, "-m", "tvblock.cli", *argv],
        capture_output=True, text=True, env=env, check=False,
    )

    def scrub(text: str) -> str:
        return text.replace(work_dir, "<work>").replace(DATA, "<data>")

    texts = {
        f"{run}/run.txt": (
            f"$ tvblock {scrub(' '.join(argv))}\nexit {proc.returncode}\n"
            f"-- stdout\n{scrub(proc.stdout)}-- stderr\n{scrub(proc.stderr)}"
        )
    }
    out_dir = os.path.join(work_dir, run)
    written = sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []
    if written != sorted(RUNS[run]):
        raise RuntimeError(f"{run} wrote {written}, expected {sorted(RUNS[run])}")
    for name in written:
        with open(os.path.join(out_dir, name), encoding="utf-8", newline="") as fh:
            lines = fh.readlines()  # a CSV's rows end in CRLF; kept as written
        if name == "report.json":
            lines = [line for line in lines if not line.startswith('  "generated_at": ')]
        else:  # below the "# generated_at=..." line
            lines = lines[1:]
        texts[f"{run}/{name}"] = "".join(lines)
    return texts


def pipeline_outputs(work_dir: str) -> dict[str, str]:
    """evaluate and classify on the bundles that scan_pii_outputs left in
    ``work_dir``; each golden text keyed by its path below GOLDEN."""
    roku, firetv = (os.path.join(work_dir, name) for name in BUNDLES)
    commands = {
        "evaluate": ["evaluate", "--config", CONFIG, "--bundle", roku, "--bundle", firetv],
        "evaluate_suffix_flow": [
            "evaluate", "--config", _flow_weighted_config(work_dir), "--mode", "suffix",
            "--bundle", roku, "--bundle", firetv,
        ],
        "classify": ["classify", "--config", CONFIG, "--bundle", roku],
    }
    texts = {}
    for run, argv in commands.items():
        texts.update(_command_outputs(work_dir, run, argv + ["--out", os.path.join(work_dir, run)]))
    return texts


def _queries() -> list[tuple[str, bytes]]:
    from tvblock import dnswire

    def query(qname: str, qtype: int, txid: int) -> bytes:
        return dnswire.build_query(qname, qtype, txid)

    blocked_a = query("Ads.Example.COM", dnswire.TYPE_A, 0x1001)
    header, question = blocked_a[:12], blocked_a[12:]
    two_questions = header[:4] + (2).to_bytes(2, "big") + header[6:] + question + question
    return [
        ("blocked A, mixed case", blocked_a),
        ("blocked AAAA, mixed case", query("ADS.example.Com", dnswire.TYPE_AAAA, 0x1002)),
        ("blocked MX, mixed case", query("ads.EXAMPLE.com", dnswire.TYPE_MX, 0x1003)),
        ("subdomain of a blocked name", query("cdn.Ads.example.com", dnswire.TYPE_A, 0x1004)),
        ("name on one list only", query("tracker.example.net", dnswire.TYPE_A, 0x1005)),
        ("forwarded", query("www.example.org", dnswire.TYPE_A, 0x1006)),
        ("two questions", two_questions),
        ("truncated", blocked_a[:-3]),
    ]


def respond_text() -> str:
    """respond()'s transcript over the query set, one JSON object per line."""
    from tvblock.blocklists import BlockList
    from tvblock.config import SinkholeConfig
    from tvblock.sinkhole import respond

    lists = [
        BlockList("L", frozenset({"ads.example.com", "tracker.example.net"})),
        BlockList("M", frozenset({"ads.example.com"})),
    ]
    lines = []
    for match_mode in ("exact", "suffix"):
        for blocking_mode in ("null", "nxdomain"):
            cfg = SinkholeConfig(match_mode=match_mode, blocking_mode=blocking_mode)
            for case, data in _queries():
                outcome = respond(data, lists, cfg)
                lines.append(json.dumps({
                    "match_mode": match_mode,
                    "blocking_mode": blocking_mode,
                    "case": case,
                    "query": data.hex(),
                    "answer": outcome.response.hex() if outcome.response is not None else None,
                    "verdict": outcome.verdict,
                    "qname": outcome.qname,
                    "qtype": outcome.qtype,
                    "blocked_by": sorted(outcome.blocked_by),
                }))
    return "\n".join(lines) + "\n"


def golden_texts(work_dir: str) -> dict[str, str]:
    """Every golden text keyed by its path below GOLDEN."""
    texts = {f"scan_pii/{rel}": text for rel, text in scan_pii_outputs(work_dir).items()}
    texts["scan_pii/variants.json"] = variants_text()
    texts.update(pipeline_outputs(work_dir))
    texts["respond.jsonl"] = respond_text()
    return texts


def main() -> None:
    with tempfile.TemporaryDirectory() as work_dir:
        texts = golden_texts(work_dir)
    for rel, text in texts.items():
        path = os.path.join(GOLDEN, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    print(f"goldens written: {len(texts)} files under {os.path.relpath(GOLDEN, HERE)}")


if __name__ == "__main__":
    main()
