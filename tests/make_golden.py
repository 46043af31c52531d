#!/usr/bin/env python3
"""Regenerate the committed goldens under tests/data/golden/.

Every tvblock command here runs as its own process, at most four at a time,
so that its stderr holds every warning it logs. Its ``run.txt`` transcript
holds the command, its exit code, its stdout and its stderr, with the work
directory written as ``<work>`` and tests/data as ``<data>``.

- ``ingest/``: for each corpus capture (Roku, FireTV) ``ingest`` with the
  corpus config, its flow and HTTP logs, its label and its platform; the
  bundle's four files and ``run.txt``.
- ``scan_pii/``: ``scan-pii`` on each of those bundles with the corpus
  config; ``exposures.jsonl``, ``http.redacted.jsonl`` and ``run.txt``.
  The corpus PII spec is world-readable in a checkout made under umask 022,
  so each transcript carries that warning. ``variants.json`` is the (kind,
  encoding, component, needle) list that ``pii.build_all_variants`` makes
  from ``corpus/pii_spec.json``. The corpus does not plant every MAC format
  or coordinate form, so only that list pins the full variant set.
- ``errors/``: transcripts of the error paths. ``scan-pii`` on a copy of
  the Roku bundle with two bad lines appended to its ``http.jsonl``, and on
  a copy of the scanned Roku bundle whose ``http.jsonl`` has no parsable
  line; each ends with whether its outputs equal the expected bytes.
  ``ingest`` with an ``--http`` log that has two bad lines among the Roku
  corpus transactions, and with a wholly unparsable ``--flows`` log.
- ``help/``: ``tvblock --help`` and each command's ``--help``, rendered 80
  columns wide.
- ``evaluate/`` and ``classify/``: ``evaluate`` over both bundles and
  ``classify`` over the Roku bundle, with the corpus config.
  ``evaluate_suffix_flow/`` reruns ``evaluate`` with ``--mode suffix`` and
  ``flow_weighted`` on. Each directory keeps every CSV below its
  ``# generated_at`` line, ``report.json`` without its ``generated_at``
  line, and ``run.txt``.
- ``respond.jsonl``: ``sinkhole.respond()`` on a fixed query set, in exact
  and suffix match mode and in null and nxdomain blocking mode: the query
  and answer bytes in hex, and the Outcome's verdict, qname, qtype and
  blocked_by.

``transformed_texts`` writes no golden. It reruns ``scan-pii`` on both
bundles, then ``evaluate`` and ``classify``, under a copy of tests/data
edited by one of ``TRANSFORMS``, none of which may change an output:

- ``crlf_bom``: every list, the config, the org maps, the ATS labels and the
  PII spec saved with CRLF line ends and a byte order mark;
- ``padded_lists``: every list padded with 20,000 ``pad{i}.nowhere.test``
  names that no capture holds;
- ``padded_psl``: the PSL padded with 20,000 normal, ``*.`` and ``!`` rules
  under the corpus's TLDs that match no captured name.

Its transcripts scrub the copy as ``<data>``, so each one, stderr included,
must equal the unedited golden.

The goldens pin bytes; ``tests/reference_pipeline.py`` stays the oracle for
correctness. A change that alters a golden file on purpose reruns this and
names each changed file, and why.

Usage: ``PYTHONPATH=src python tests/make_golden.py``. Rerunning produces
byte-identical files.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")
CORPUS = os.path.join(DATA, "corpus")
CONFIG = os.path.join(DATA, "corpus_config.json")
GOLDEN = os.path.join(DATA, "golden")
SRC = os.path.join(os.path.dirname(HERE), "src")

# bundle directory -> (--label, --platform)
BUNDLES = {"roku": ("Roku", "roku"), "firetv": ("FireTV", "firetv")}
BUNDLE_FILES = ("flows.jsonl", "http.jsonl", "summary.json", "meta.json")
OUTPUTS = ("exposures.jsonl", "http.redacted.jsonl")
# below GOLDEN/ingest
INGEST_FILES = tuple(f"{b}/{f}" for b in BUNDLES for f in BUNDLE_FILES + ("run.txt",))
# below GOLDEN/scan_pii
SCAN_PII_FILES = (
    tuple(f"{b}/{o}" for b in BUNDLES for o in OUTPUTS)
    + ("variants.json",)
    + tuple(f"{b}/run.txt" for b in BUNDLES)
)
# below GOLDEN/errors
ERROR_FILES = (
    "scan_pii_bad_lines.txt",
    "scan_pii_unparsable.txt",
    "ingest_bad_http.txt",
    "ingest_unparsable_flows.txt",
)
HELP_COMMANDS = ("tvblock", "ingest", "evaluate", "scan-pii", "classify", "serve", "version")
# below GOLDEN/help
HELP_FILES = tuple(f"{command}.txt" for command in HELP_COMMANDS)

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


def _transcript(work_dir: str, argv: list[str], data: str = DATA) -> str:
    """Run one tvblock command as its own process; return its transcript."""
    pythonpath = [SRC, os.environ.get("PYTHONPATH")]
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, pythonpath)),
        "COLUMNS": "80",  # argparse wraps help to the terminal width
        "NO_COLOR": "1",
    }
    proc = subprocess.run(
        [sys.executable, "-m", "tvblock.cli", *argv],
        capture_output=True, text=True, env=env, check=False,
    )

    def scrub(text: str) -> str:
        return text.replace(work_dir, "<work>").replace(data, "<data>")

    return (
        f"$ tvblock {scrub(' '.join(argv))}\nexit {proc.returncode}\n"
        f"-- stdout\n{scrub(proc.stdout)}-- stderr\n{scrub(proc.stderr)}"
    )


def _run_all(work_dir: str, commands: dict[str, list[str]], data: str = DATA) -> dict[str, str]:
    """Each command's transcript, keyed as ``commands``; four run at a time."""
    with ThreadPoolExecutor(max_workers=4) as pool:
        futures = {
            key: pool.submit(_transcript, work_dir, argv, data) for key, argv in commands.items()
        }
    return {key: future.result() for key, future in futures.items()}


def _read(path: str) -> str:
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


def _scan_outputs(bundle: str, name: str) -> dict[str, str]:
    """The scan outputs in ``bundle``, keyed below GOLDEN as the ``name`` bundle's.
    An output that scan-pii did not write has no key, as in _run_outputs."""
    paths = {output: os.path.join(bundle, output) for output in OUTPUTS}
    return {
        f"scan_pii/{name}/{output}": _read(path)
        for output, path in paths.items()
        if os.path.exists(path)
    }


def _outputs_note(bundle: str, expected: dict[str, str], of: str) -> str:
    """A transcript's last section: whether each scan output equals ``expected``."""
    lines = []
    for name in OUTPUTS:
        same = _read(os.path.join(bundle, name)) == expected[name]
        lines.append(f"{name}: {'same as' if same else 'differs from'} {of}\n")
    return "-- outputs\n" + "".join(lines)


def _ingest_argv(name: str, out: str, flows: str = "", http: str = "") -> list[str]:
    label, platform = BUNDLES[name]
    return [
        "ingest", "--config", CONFIG,
        "--flows", flows or os.path.join(CORPUS, f"{name}_flows.jsonl"),
        "--http", http or os.path.join(CORPUS, f"{name}_http.jsonl"),
        "--label", label, "--platform", platform, "--out", out,
    ]


def _scan_argv(bundle: str, config: str = CONFIG) -> list[str]:
    return ["scan-pii", "--config", config, "--bundle", bundle]


def ingest_and_scan(work_dir: str) -> dict[str, str]:
    """Ingest and scan both corpus captures under ``work_dir``, with the
    error paths and the help texts alongside; each golden text keyed by its
    path below GOLDEN."""
    inputs = os.path.join(work_dir, "inputs")
    os.makedirs(inputs)
    bad_http = os.path.join(inputs, "bad_http.jsonl")
    lines = _read(os.path.join(CORPUS, "roku_http.jsonl")).splitlines(keepends=True)
    with open(bad_http, "w", encoding="utf-8") as fh:
        fh.write("".join(lines[:2] + ["not json\n", "{}\n"] + lines[2:]))
    bad_flows = os.path.join(inputs, "bad_flows.jsonl")
    with open(bad_flows, "w", encoding="utf-8") as fh:
        fh.write("{broken\n[1, 2]\n")
    bundle = {name: os.path.join(work_dir, name) for name in BUNDLES}

    commands = {f"ingest/{name}/run.txt": _ingest_argv(name, bundle[name]) for name in BUNDLES}
    commands["errors/ingest_bad_http.txt"] = _ingest_argv(
        "roku", os.path.join(work_dir, "bad_http"), http=bad_http
    )
    commands["errors/ingest_unparsable_flows.txt"] = _ingest_argv(
        "roku", os.path.join(work_dir, "bad_flows"), flows=bad_flows
    )
    for command in HELP_COMMANDS:
        commands[f"help/{command}.txt"] = ([] if command == "tvblock" else [command]) + ["--help"]
    texts = _run_all(work_dir, commands)
    for name in BUNDLES:
        for file in BUNDLE_FILES:
            texts[f"ingest/{name}/{file}"] = _read(os.path.join(bundle[name], file))

    bad_lines = os.path.join(work_dir, "bad_lines")
    shutil.copytree(bundle["roku"], bad_lines)
    with open(os.path.join(bad_lines, "http.jsonl"), "a", encoding="utf-8") as fh:
        fh.write("{broken\nnot json either\n")
    commands = {f"scan_pii/{name}/run.txt": _scan_argv(bundle[name]) for name in BUNDLES}
    commands["errors/scan_pii_bad_lines.txt"] = _scan_argv(bad_lines)
    texts.update(_run_all(work_dir, commands))
    for name in BUNDLES:
        texts.update(_scan_outputs(bundle[name], name))
    roku_outputs = {output: texts[f"scan_pii/roku/{output}"] for output in OUTPUTS}
    texts["errors/scan_pii_bad_lines.txt"] += _outputs_note(
        bad_lines, roku_outputs, "scan_pii/roku"
    )

    unparsable = os.path.join(work_dir, "unparsable")
    shutil.copytree(bundle["roku"], unparsable)
    with open(os.path.join(unparsable, "http.jsonl"), "w", encoding="utf-8") as fh:
        fh.write('not json\n{"also": "not a transaction"}\n')
    text = _transcript(work_dir, _scan_argv(unparsable))
    texts["errors/scan_pii_unparsable.txt"] = text + _outputs_note(
        unparsable, roku_outputs, "before the run"
    )
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


def _run_outputs(work_dir: str, run: str) -> dict[str, str]:
    """The golden texts of the files ``run``'s command wrote, keyed below GOLDEN.

    A file it did not write has no key, so a failed command shows as its
    ``run.txt`` transcript and the files missing beside it."""
    out_dir = os.path.join(work_dir, run)
    written = sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []
    texts = {}
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
    """evaluate and classify on the bundles that ingest_and_scan left in
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
    texts = _run_all(work_dir, {
        f"{run}/run.txt": argv + ["--out", os.path.join(work_dir, run)]
        for run, argv in commands.items()
    })
    for run in commands:
        texts.update(_run_outputs(work_dir, run))
    return texts


# What transformed_texts may do to a copy of tests/data without changing an output.
TRANSFORMS = ("crlf_bom", "padded_lists", "padded_psl")


def transformed_texts(work_dir: str, transform: str) -> dict[str, str]:
    """scan-pii on both bundles that ingest_and_scan left in ``work_dir``, then evaluate and
    classify as pipeline_outputs runs them, on fresh copies of those bundles and under a copy
    of tests/data that ``transform`` edits; each golden text keyed by its path below GOLDEN."""
    data, work = (os.path.join(work_dir, transform, name) for name in ("data", "work"))
    shutil.copytree(DATA, data, ignore=shutil.ignore_patterns("golden"))
    lists = [os.path.join(data, "lists", name) for name in sorted(os.listdir(f"{data}/lists"))]
    if transform == "crlf_bom":
        side = ("corpus_config.json", "org_esld.jsonl", "org_parent.jsonl", "ats_labels.jsonl",
                "corpus/pii_spec.json")
        for path in lists + [os.path.join(data, name) for name in side]:
            text = _read(path)
            with open(path, "w", encoding="utf-8-sig", newline="\r\n") as fh:
                fh.write(text)
    elif transform == "padded_lists":
        for path in lists:
            with open(path, "a", encoding="utf-8") as fh:
                fh.write("".join(f"0.0.0.0 pad{i}.nowhere.test\n" for i in range(20000)))
    elif transform == "padded_psl":
        kinds, tlds = ("", "*.", "!www."), ("com", "net", "tv", "io", "org", "uk")
        with open(os.path.join(data, "public_suffix_list.dat"), "a", encoding="utf-8") as fh:
            fh.write("".join(f"{kinds[i % 3]}pad{i}.{tlds[i // 3 % 6]}\n" for i in range(20000)))
    else:
        raise ValueError(f"unknown transform {transform!r}")
    bundle = {name: os.path.join(work, name) for name in BUNDLES}
    for name, path in bundle.items():  # the four ingest files, without the scan's outputs
        shutil.copytree(os.path.join(work_dir, name), path, ignore=shutil.ignore_patterns(*OUTPUTS))

    config = os.path.join(data, "corpus_config.json")
    texts = _run_all(work, {
        f"scan_pii/{name}/run.txt": _scan_argv(path, config) for name, path in bundle.items()
    }, data)
    for name, path in bundle.items():
        texts.update(_scan_outputs(path, name))
    roku, firetv = bundle["roku"], bundle["firetv"]
    texts.update(_run_all(work, {
        "evaluate/run.txt": ["evaluate", "--config", config, "--bundle", roku, "--bundle", firetv,
                             "--out", os.path.join(work, "evaluate")],
        "classify/run.txt": ["classify", "--config", config, "--bundle", roku,
                             "--out", os.path.join(work, "classify")],
    }, data))
    for run in ("evaluate", "classify"):
        texts.update(_run_outputs(work, run))
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
    texts = ingest_and_scan(work_dir)
    texts["scan_pii/variants.json"] = variants_text()
    texts.update(pipeline_outputs(work_dir))
    texts["respond.jsonl"] = respond_text()
    return texts


def main() -> None:
    with tempfile.TemporaryDirectory() as work_dir:
        texts = golden_texts(work_dir)
    failed = sorted({rel.split("/")[0] for rel in PIPELINE_FILES if rel not in texts})
    if failed:  # write no golden; each failed command's transcript says why
        sys.exit("".join(texts[f"{run}/run.txt"] for run in failed))
    for rel, text in texts.items():
        path = os.path.join(GOLDEN, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    print(f"goldens written: {len(texts)} files under {os.path.relpath(GOLDEN, HERE)}")


if __name__ == "__main__":
    main()
