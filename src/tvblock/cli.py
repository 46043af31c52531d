"""Command-line entry point wiring ingestion, scanning, evaluation, serving.

Subcommands: ingest | evaluate | scan-pii | classify | serve | version.
Exit codes: 0 success, 1 partial (output produced with warnings), 2
configuration or input error. Flags override config-file values.

Each command imports the modules it runs when it runs, so a process pays
for no other command's code: ``serve`` loads the config and list loaders
and the sinkhole, ``ingest`` the config loader and the traffic model.

Besides a command's own ``warning:`` and ``error:`` lines, each diagnostic
is one ``LEVEL source: message`` line that ``text.log_line`` writes straight
to the current stderr. So no command loads ``logging``, and a run in a
process that made runs before writes its warnings to its own stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import signal
import sys
import time
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from . import __version__
from .blocklists import MATCH_MODES, BlockList, blocked_by, build_list, wanted_entries
from .config import BLOCKING_MODES, GlobalConfig, load_config, load_lists_manifest
from .text import KNOWN_PLATFORMS, decode_json, log_line

if TYPE_CHECKING:
    from . import pii, psl
    from .traffic import Dataset, DatasetSummary, FlowRecord, HttpTransaction, Platform

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_CONFIG = 2

PLATFORM_CHOICES = [name.lower() for name in KNOWN_PLATFORMS]


class CliError(Exception):
    """Configuration or input problem; maps to exit code 2."""


# -- bundle I/O ----------------------------------------------------------


def write_bundle(
    out_dir: str,
    label: str,
    records: Iterable[FlowRecord],
    transactions: Iterable[HttpTransaction],
    platform: Optional[Platform] = None,
) -> DatasetSummary:
    """Write a capture as a bundle and return the summary in its summary.json.

    Each record and transaction goes to flows.jsonl or http.jsonl, one
    compact JSON object a line, as it is folded into the dataset that
    summary.json counts, so streams are written without being held.
    meta.json holds the label and the dataset's platform.

    The files are written to a new directory beside ``out_dir`` and moved
    in only once all four are complete, so a stream that raises leaves no
    ``out_dir`` behind, or an existing bundle as it was. Other files in an
    existing ``out_dir`` are kept.
    """
    from .traffic import dataset_summary, index_contacts

    # The new directory is in out_dir's parent, or in its nearest existing
    # ancestor while the parent is yet to be made: on out_dir's file system.
    path = os.path.abspath(out_dir)
    base = os.path.dirname(path)
    while not os.path.isdir(base):
        base = os.path.dirname(base)
    work = os.path.join(base, f".{os.path.basename(path)}.{os.urandom(6).hex()}.tmp")
    os.mkdir(work)
    try:
        with open(os.path.join(work, "flows.jsonl"), "w", encoding="utf-8") as flows_fh, \
                open(os.path.join(work, "http.jsonl"), "w", encoding="utf-8") as http_fh:
            dataset = index_contacts(
                label, _written(flows_fh, records), _written(http_fh, transactions), platform
            )
        summary = dataset_summary(dataset)
        with open(os.path.join(work, "summary.json"), "w", encoding="utf-8") as fh:
            json.dump(summary._asdict(), fh, indent=2)
            fh.write("\n")
        meta = {"label": label, "platform": dataset.platform_name}
        with open(os.path.join(work, "meta.json"), "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2)
            fh.write("\n")
        os.makedirs(out_dir, exist_ok=True)
        for name in os.listdir(work):
            os.replace(os.path.join(work, name), os.path.join(out_dir, name))
    finally:
        for name in os.listdir(work):
            os.remove(os.path.join(work, name))
        os.rmdir(work)
    return summary


def _written(fh, items):
    """Yield each of ``items`` after writing it to ``fh`` as one JSON line."""
    for item in items:
        fh.write(json.dumps(item.to_json(), separators=(",", ":")) + "\n")
        yield item


def _read_bundle_log(path: str, build, what: str):
    """Yield the items of one bundle log; a wholly unparsable file is a CliError.

    Skipped lines in an otherwise good file get one warning with their count.
    """
    from .traffic import LogParseError, MalformedLine, iter_jsonl

    errors: list[MalformedLine] = []
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror or exc}") from exc
    with fh:
        try:
            yield from iter_jsonl(fh, build, what, errors)
        except (LogParseError, UnicodeDecodeError) as exc:
            raise CliError(f"corrupt bundle file {path}: {exc}") from exc
    if errors:
        print(f"warning: {path}: skipped {len(errors)} unparsable lines", file=sys.stderr)


def load_bundle(bundle_dir: str) -> Dataset:
    """Load a bundle by streaming its logs into its Dataset.

    Neither log is kept. This read is the one that warns about a log's
    skipped lines and refuses a log with none parsable (CliError).
    """
    from .traffic import FlowRecord, HttpTransaction, Platform, index_contacts

    meta_path = os.path.join(bundle_dir, "meta.json")
    flows_path = os.path.join(bundle_dir, "flows.jsonl")
    if not os.path.isdir(bundle_dir) or not os.path.exists(flows_path):
        raise CliError(f"not a dataset bundle: {bundle_dir}")
    label = os.path.basename(os.path.normpath(bundle_dir))
    platform = None
    if os.path.exists(meta_path):
        try:
            with open(meta_path, encoding="utf-8") as fh:
                meta = decode_json(fh.read())
            if not isinstance(meta, dict):
                raise ValueError("not a JSON object")
            label, name = meta.get("label", label), meta.get("platform") or None
            if not isinstance(label, str) or not isinstance(name, (str, type(None))):
                raise ValueError("label and platform must be strings")
            platform = Platform.parse(name) if name else None
        except OSError as exc:
            raise CliError(f"cannot read {meta_path}: {exc.strerror or exc}") from exc
        except ValueError as exc:
            raise CliError(f"corrupt bundle file {meta_path}: {exc}") from exc
    records = _read_bundle_log(flows_path, FlowRecord.from_json, "flow records")
    http_path = os.path.join(bundle_dir, "http.jsonl")
    transactions = ()
    if os.path.exists(http_path):
        transactions = _read_bundle_log(http_path, HttpTransaction.from_json, "transactions")
    return index_contacts(label, records, transactions, platform)


def load_bundle_exposures(bundle_dir: str) -> Optional[list[pii.ExposureRecord]]:
    from . import pii
    from .traffic import read_jsonl

    path = os.path.join(bundle_dir, "exposures.jsonl")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return read_jsonl(fh, pii.ExposureRecord.from_json, "exposures")


# -- shared option handling ------------------------------------------------


def _load_global_config(args) -> GlobalConfig:
    if getattr(args, "config", None):
        try:
            cfg = load_config(args.config)
        except (OSError, ValueError) as exc:
            raise CliError(f"cannot load config {args.config}: {exc}") from exc
    else:
        cfg = GlobalConfig()
    if getattr(args, "psl", None):
        cfg.psl_path = args.psl
    if getattr(args, "lists", None):
        try:
            cfg.lists = load_lists_manifest(args.lists)
        except (OSError, ValueError) as exc:
            raise CliError(f"cannot load lists manifest {args.lists}: {exc}") from exc
    if getattr(args, "mode", None):
        cfg.match_mode = args.mode
    if getattr(args, "max_bucket", None) is not None:
        cfg.max_bucket = args.max_bucket
    if getattr(args, "out", None):
        cfg.output_dir = args.out
    if getattr(args, "listen", None):
        cfg.sinkhole.listen_address = args.listen
    if getattr(args, "upstream", None):
        cfg.sinkhole.upstream_resolver = args.upstream
    if getattr(args, "blocking", None):
        cfg.sinkhole.blocking_mode = args.blocking
    if getattr(args, "query_log", None):
        cfg.sinkhole.query_log_path = args.query_log
    if getattr(args, "stats", None):
        cfg.sinkhole.stats_address = args.stats
    try:
        cfg.validate()
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    return cfg


def _load_rules(cfg: GlobalConfig) -> psl.SuffixRules:
    from . import psl

    if not cfg.psl_path:
        raise CliError("a PSL file is required (--psl or config psl_path)")
    try:
        return psl.load_psl_file(cfg.psl_path, include_private=not cfg.psl_icann_only)
    except OSError as exc:
        raise CliError(f"cannot read PSL file {cfg.psl_path}: {exc}") from exc
    except psl.EmptyRuleSet as exc:
        raise CliError(str(exc)) from exc


def _build_lists(
    cfg: GlobalConfig, datasets: Optional[Sequence[Dataset]] = None
) -> list[BlockList]:
    # Given datasets, each list keeps only the entries that could block one
    # of their names: every list question of evaluate and scan-pii is about
    # such a name.
    if not cfg.lists:
        raise CliError("no blocklists configured (--lists or config lists)")
    wanted = None
    if datasets is not None:
        wanted = wanted_entries(name for ds in datasets for name in ds.names)
    built = []
    for name, paths in cfg.lists.items():
        try:
            built.append(build_list(name, paths, wanted))
        except (OSError, ValueError) as exc:
            raise CliError(f"cannot build list {name}: {exc}") from exc
    return built


def _stop_tokens(cfg: GlobalConfig):
    from .party import DEFAULT_STOP_TOKENS

    if cfg.stop_tokens is None:
        return DEFAULT_STOP_TOKENS
    return frozenset(t.lower() for t in cfg.stop_tokens)


def _load_processes(cfg: GlobalConfig) -> frozenset[str]:
    from .party import load_platform_processes

    if not cfg.platform_processes_path:
        return frozenset()
    try:
        with open(cfg.platform_processes_path, encoding="utf-8-sig") as fh:
            return load_platform_processes(fh)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read platform process file: {exc}") from exc


def _build_ctx(dataset: Dataset, rules, cfg: GlobalConfig, processes: frozenset[str]):
    from .party import build_context

    return build_context(
        dataset,
        rules,
        platform_markers=cfg.platform_markers.get(dataset.platform_name),
        platform_processes=processes,
        stop_tokens=_stop_tokens(cfg),
    )


# -- ingest ---------------------------------------------------------------


def _read_input_log(path: str, build, what: str, errors: list, required: bool):
    """Yield the items of one of ingest's input logs; skipped lines go to ``errors``.

    A log with content but no parsable line is a CliError when ``required``,
    and otherwise yields nothing. A leading byte order mark is ignored.
    """
    from .traffic import LogParseError, iter_jsonl

    try:
        with open(path, encoding="utf-8-sig") as fh:
            yield from iter_jsonl(fh, build, what, errors)
    except LogParseError as exc:
        if required:
            raise CliError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise CliError(f"{path} is not UTF-8 text: {exc}") from exc
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror or exc}") from exc


def cmd_ingest(args) -> int:
    from .traffic import FlowRecord, HttpTransaction, Platform

    cfg = _load_global_config(args)
    for path in [args.flows, args.http]:
        if path and not os.path.exists(path):
            raise CliError(f"input file not found: {path}")

    flow_errors, http_errors = [], []
    records = _read_input_log(
        args.flows, FlowRecord.from_json, "flow records", flow_errors, required=True
    )
    transactions = ()
    if args.http:  # a log with no parsable line warns for each and adds no transaction
        transactions = _read_input_log(
            args.http, HttpTransaction.from_json, "transactions", http_errors, required=False
        )
    platform = Platform.parse(args.platform) if args.platform else None
    label = args.label or os.path.basename(os.path.normpath(cfg.output_dir))
    summary = write_bundle(cfg.output_dir, label, records, transactions, platform)
    for what, errors in (("flows", flow_errors), ("http", http_errors)):
        for err in errors:
            print(f"warning: {what} line {err.line_no}: {err.reason}", file=sys.stderr)
    print(json.dumps({"label": label, **summary._asdict()}, indent=2))
    return EXIT_PARTIAL if flow_errors or http_errors else EXIT_OK


# -- evaluate ---------------------------------------------------------------


def _block_rate_rows(dataset: Dataset, ctx, lists, cfg: GlobalConfig) -> list[tuple]:
    """Raw block_rates.csv rows, one per list.

    One pass asks blocked_by once per distinct domain name and match mode,
    and adds up each list's blocked names (rate_*) and their flow records
    (flow_rate_*). IP literals count in neither.
    """
    from collections import Counter

    fqdn_count = flow_count = 0
    # per mode: list name -> the names it blocks, and -> their flow records
    blocked = {mode: Counter() for mode in MATCH_MODES}
    blocked_flows = {mode: Counter() for mode in MATCH_MODES}
    for name, (is_ip, flows) in dataset.names.items():
        if is_ip:
            continue
        fqdn_count += 1
        flow_count += flows
        for mode in MATCH_MODES:
            for list_name in blocked_by(name, lists, mode):
                blocked[mode][list_name] += 1
                blocked_flows[mode][list_name] += flows

    def rate(hits: int, total: int) -> Optional[float]:
        return 100.0 * hits / total if total else None

    rows = []
    for bl in lists:
        row = (
            dataset.platform_label,
            bl.name,
            fqdn_count,
            len(ctx.esld_to_apps),
            rate(blocked["exact"][bl.name], fqdn_count),
            rate(blocked["suffix"][bl.name], fqdn_count),
        )
        if cfg.flow_weighted:
            row += tuple(rate(blocked_flows[m][bl.name], flow_count) for m in ("exact", "suffix"))
        rows.append(row)
    return rows


def _pii_rows(bundle_dir: str, dataset: Dataset, notes: list[str]) -> list:
    from . import metrics

    exposures = load_bundle_exposures(bundle_dir)
    if exposures is None:
        notes.append(f"no exposures.jsonl in {dataset.label}; run scan-pii for PII rows")
    return metrics.pii_block_table(exposures or [], dataset.platform_label)


def cmd_evaluate(args) -> int:
    from . import metrics, reports
    from .traffic import dataset_summary

    cfg = _load_global_config(args)
    rules = _load_rules(cfg)
    processes = _load_processes(cfg)
    bundles = [load_bundle(path) for path in args.bundle]
    lists = _build_lists(cfg, bundles)

    # Summarised first, so dataset_summary's transient per-name maps do not
    # stack on the table rows at the process's memory peak.
    summaries = [
        {
            "label": ds.label,
            "platform": ds.platform_name,
            "summary": dataset_summary(ds)._asdict(),
        }
        for ds in bundles
    ]

    os.makedirs(cfg.output_dir, exist_ok=True)
    failures = []
    notes = [
        "records without app attribution are excluded from app-level metrics",
        "block rates are over distinct domain names; IP-literal destinations are excluded",
    ]

    # The tables of every bundle, by name; each writer renders one CSV.
    writers = {
        "block_rates": functools.partial(
            reports.write_block_rates, flow_weighted=cfg.flow_weighted
        ),
        "penetration": reports.write_penetration,
        "popularity_curve": reports.write_popularity_curve,
        "pii_table": reports.write_pii_table,
        "fn_candidates": reports.write_fn_candidates,
    }
    rows: dict[str, list] = {name: [] for name in writers}
    keywords = tuple(cfg.keywords) if cfg.keywords else metrics.DEFAULT_KEYWORDS

    for bundle_dir, dataset in zip(args.bundle, bundles):
        platform = dataset.platform_label
        try:
            ctx = _build_ctx(dataset, rules, cfg, processes)
        except Exception as exc:
            failures.append(f"context[{dataset.label}]: {exc}")
            continue
        compute = {  # this bundle's rows of each table, computed just below
            "block_rates": lambda: _block_rate_rows(dataset, ctx, lists, cfg),
            "penetration": lambda: [
                (platform, row) for row in metrics.penetration_table(dataset, ctx)
            ],
            "popularity_curve": lambda: [
                (platform, row)
                for row in metrics.popularity_block_curve(
                    dataset, lists, cfg.max_bucket, cfg.match_mode
                )
            ],
            "pii_table": lambda: _pii_rows(bundle_dir, dataset, notes),
            "fn_candidates": lambda: [
                (platform, row)
                for row in metrics.keyword_fn_candidates(
                    dataset.domain_names(), lists, keywords, cfg.match_mode
                )
            ],
        }
        for name, bundle_rows in compute.items():
            try:
                rows[name].extend(bundle_rows())
            except metrics.NoAppAttribution:
                notes.append(f"{name} omitted for {dataset.label}: no app attribution")
            except Exception as exc:
                failures.append(f"{name}[{dataset.label}]: {exc}")
        # The lambdas hold ctx in a cell: emptied here, the context is freed
        # before the next bundle's is built and before the overlap and writes.
        del ctx

    organizations = None
    if cfg.org_esld_path and cfg.org_parent_path:
        try:
            with open(cfg.org_esld_path, encoding="utf-8-sig") as ef, open(
                cfg.org_parent_path, encoding="utf-8-sig"
            ) as pf:
                org_map = metrics.load_org_map(ef, pf)
            eslds = sorted({r.esld for _, r in rows["penetration"]})
            organizations = {e: metrics.resolve_org(e, org_map) for e in eslds}
        except (OSError, ValueError) as exc:
            failures.append(f"organizations: {exc}")

    ats_labeled = None
    if cfg.ats_labels_path:
        try:
            with open(cfg.ats_labels_path, encoding="utf-8-sig") as fh:
                labels = metrics.load_ats_labels(fh)
            ats_labeled = sorted(
                fqdn
                for dataset in bundles
                for fqdn in dataset.domain_names()
                if metrics.ats_label(fqdn, labels, lists, cfg.match_mode)
            )
        except (OSError, ValueError) as exc:
            failures.append(f"ats_labels: {exc}")

    overlap = None
    if len(bundles) == 2:
        try:
            overlap = metrics.common_app_overlap(
                bundles[0], bundles[1], _stop_tokens(cfg)
            )
        except Exception as exc:
            failures.append(f"overlap: {exc}")
    else:
        notes.append("overlap.csv omitted: needs exactly two bundles")

    out = cfg.output_dir
    generated_at = reports._now_iso()  # one timestamp for every file of the run
    sections = {
        name: write(os.path.join(out, f"{name}.csv"), rows[name], generated_at).to_json()
        for name, write in writers.items()
    }
    if overlap is not None:
        reports.write_overlap(os.path.join(out, "overlap.csv"), overlap, generated_at)

    document = {
        "bundles": summaries,
        "notes": notes,
        "failures": failures,
        **sections,
        "overlap": reports.overlap_to_json(overlap) if overlap is not None else None,
        "organizations": organizations,
        "ats_labeled": ats_labeled,
    }
    reports.write_report_json(os.path.join(out, "report.json"), document, generated_at)

    for failure in failures:
        print(f"table failed: {failure}", file=sys.stderr)
    return EXIT_PARTIAL if failures else EXIT_OK


# -- scan-pii ----------------------------------------------------------------


def cmd_scan_pii(args) -> int:
    from . import pii
    from .traffic import HttpTransaction, iter_jsonl

    cfg = _load_global_config(args)
    spec_path = args.pii_spec or cfg.pii_spec_path
    if not spec_path or not os.path.exists(spec_path):
        raise CliError("PII spec file is required and must exist")
    rules = _load_rules(cfg)
    processes = _load_processes(cfg)
    dataset = load_bundle(args.bundle)
    lists = _build_lists(cfg, [dataset])

    pii.warn_if_world_readable(spec_path)
    try:
        with open(spec_path, encoding="utf-8-sig") as fh:
            specs = pii.load_pii_specs(fh.read())
        variants = pii.build_all_variants(specs)
    except OSError as exc:
        raise CliError(f"cannot read {spec_path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # InvalidMac and InvalidCoordinate included
        raise CliError(f"invalid PII spec: {exc}") from exc

    ctx = _build_ctx(dataset, rules, cfg, processes)
    developers = dataset.first_developers(known_only=True)

    out_dir = args.out or args.bundle
    os.makedirs(out_dir, exist_ok=True)
    exposures_path = os.path.join(out_dir, "exposures.jsonl")
    redacted_path = os.path.join(out_dir, "http.redacted.jsonl")
    # load_bundle's read of http.jsonl warned about or refused its bad lines;
    # this second one skips them silently and scans one transaction at a time.
    http_path = os.path.join(args.bundle, "http.jsonl")
    count = total = 0
    with (
        open(http_path if os.path.exists(http_path) else os.devnull, encoding="utf-8") as lines,
        open(exposures_path, "w", encoding="utf-8") as exp_fh,
        open(redacted_path, "w", encoding="utf-8") as red_fh,
    ):
        for tx in iter_jsonl(lines, HttpTransaction.from_json, "transactions", []):
            found = pii.scan_transaction(tx, variants)
            attributed = pii.attribute_exposures(found, ctx, lists, cfg.match_mode, developers)
            for record in attributed:
                exp_fh.write(json.dumps(record.to_json(), separators=(",", ":")) + "\n")
            redacted = pii.redact(tx, found, variants).to_json()
            red_fh.write(json.dumps(redacted, separators=(",", ":")) + "\n")
            count += 1
            total += len(attributed)
    print(
        json.dumps(
            {
                "transactions": count,
                "exposures": total,
                "exposures_path": exposures_path,
                "redacted_path": redacted_path,
            },
            indent=2,
        )
    )
    return EXIT_OK


# -- classify ----------------------------------------------------------------


def cmd_classify(args) -> int:
    from . import reports
    from .party import classify

    cfg = _load_global_config(args)
    rules = _load_rules(cfg)
    processes = _load_processes(cfg)
    dataset = load_bundle(args.bundle)
    ctx = _build_ctx(dataset, rules, cfg, processes)
    platform = dataset.platform_label

    # Each (app, eSLD) pair keeps the first developer seen with it.
    pairs = {}
    for name, app_id, developer in dataset.contacts:
        domain = ctx.name_to_esld[name]
        if app_id is not None and domain is not None:
            pairs.setdefault((app_id, domain), developer)
    rows = [
        (platform, app_id, developer or "", domain, classify(app_id, developer, domain, ctx).value)
        for (app_id, domain), developer in sorted(pairs.items())
    ]
    os.makedirs(cfg.output_dir, exist_ok=True)
    out_path = os.path.join(cfg.output_dir, "classifications.csv")
    reports.write_classifications(out_path, rows)
    print(json.dumps({"pairs": len(rows), "path": out_path}, indent=2))
    return EXIT_OK


# -- serve ---------------------------------------------------------------------


def cmd_serve(args) -> int:
    from . import sinkhole  # each command imports what it runs; only serve runs sockets

    cfg = _load_global_config(args)
    lists = _build_lists(cfg)
    sink_cfg = cfg.sinkhole
    if not sink_cfg.active_lists:
        sink_cfg.active_lists = tuple(cfg.lists.keys())
    sink_cfg.match_mode = cfg.match_mode

    def reload_lists(signum, frame):
        try:
            rebuilt = _build_lists(cfg)
            active = {bl.name: bl for bl in rebuilt}
            service.set_lists(
                [active[n] for n in sink_cfg.active_lists if n in active]
            )
        except Exception as exc:  # keep serving under the old lists
            log_line("ERROR", "tvblock", f"list reload failed: {exc}")

    service = None
    # SIGINT may come as soon as the first query is answered, which can be
    # before serve() returns: it must stop the service from then on. SIGTERM
    # stops it the same way, also when SIGINT was inherited ignored.
    try:
        sink_cfg.validate()
        service = sinkhole.serve(sink_cfg, lists)
        signal.signal(signal.SIGHUP, reload_lists)
        signal.signal(signal.SIGUSR1, lambda s, f: service.dump_stats())
        signal.signal(signal.SIGTERM, signal.default_int_handler)
        host, port = service.address
        print(f"sinkhole serving on {host}:{port}; SIGHUP reloads lists", file=sys.stderr)
        while True:
            time.sleep(3600)
    except (sinkhole.BindFailure, ValueError) as exc:
        raise CliError(str(exc)) from exc
    except KeyboardInterrupt:
        pass
    finally:
        if service:
            service.stop()
    return EXIT_OK


def cmd_version(args) -> int:
    print(f"tvblock {__version__}")
    return EXIT_OK


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tvblock",
        description="Evaluate DNS ad/tracker blocklists against smart-TV traffic",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shared = {
        "--psl": {"help": "public suffix rules file"},
        "--lists": {"help": "blocklist manifest JSON (name -> paths)"},
        "--mode": {"choices": MATCH_MODES, "help": "match mode"},
        "--out": {"help": "output directory"},
    }

    def add_common(p, *flags):
        """--config, then those shared flags that the command reads."""
        p.add_argument("--config", help="global JSON config file")
        for flag in flags:
            p.add_argument(flag, **shared[flag])

    p_ingest = sub.add_parser("ingest", help="parse raw logs into a dataset bundle")
    add_common(p_ingest, "--out")
    p_ingest.add_argument("--flows", required=True, help="JSONL flow log")
    p_ingest.add_argument("--http", help="JSONL HTTP transaction log")
    p_ingest.add_argument("--label", help="dataset label")
    p_ingest.add_argument(
        "--platform", choices=PLATFORM_CHOICES, help="declared capture platform"
    )

    p_eval = sub.add_parser("evaluate", help="compute metric tables from bundles")
    add_common(p_eval, *shared)
    p_eval.add_argument(
        "--bundle", action="append", required=True, help="dataset bundle directory"
    )
    p_eval.add_argument("--max-bucket", type=int, help="terminal popularity bucket")

    p_scan = sub.add_parser("scan-pii", help="scan a bundle's HTTP log for PII")
    add_common(p_scan, *shared)
    p_scan.add_argument("--bundle", required=True, help="dataset bundle directory")
    p_scan.add_argument("--pii-spec", help="PII specification JSON file")

    p_cls = sub.add_parser("classify", help="label (app, eSLD) pairs by party")
    add_common(p_cls, "--psl", "--out")
    p_cls.add_argument("--bundle", required=True, help="dataset bundle directory")

    p_serve = sub.add_parser("serve", help="run the DNS sinkhole")
    add_common(p_serve, "--lists", "--mode")
    p_serve.add_argument("--listen", help="listen address HOST:PORT")
    p_serve.add_argument("--upstream", help="upstream resolver HOST:PORT")
    p_serve.add_argument(
        "--blocking", choices=BLOCKING_MODES, help="blocked-answer mode"
    )
    p_serve.add_argument("--query-log", help="query log JSONL path")
    p_serve.add_argument("--stats", help="stats endpoint HOST:PORT")

    sub.add_parser("version", help="print version")
    return parser


_COMMANDS = {
    "ingest": cmd_ingest,
    "evaluate": cmd_evaluate,
    "scan-pii": cmd_scan_pii,
    "classify": cmd_classify,
    "serve": cmd_serve,
    "version": cmd_version,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entrypoint() -> None:  # console_scripts hook
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
