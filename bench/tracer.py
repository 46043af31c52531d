#!/usr/bin/env python3
"""Outside-in tracer for tvblock, and the child-interpreter entry points.

The tracer wraps public functions of the tvblock modules at run time and
rebinds every alias of them, including names other modules imported with
``from .x import y`` (``metrics.blocked_by``, ``sinkhole.blocked_by`` ...),
so no file of the package changes. Each wrapped function keeps a call
count, inclusive time, self time (inclusive minus traced callees) and the
time of its outermost calls. Functions that are not hot leaves also record
one span per call: id, parent id, name, start and end. Everything stays in
memory and is written as JSON when the traced program ends.

Entry points, each run in a fresh interpreter from the repository root:

    python3 bench/tracer.py setup CONFIG
        load config, PSL and every list through the public functions and
        print {"setup_s": ...} (import time included)
    python3 bench/tracer.py trace OUT.json -- ARGS...
        run ``tvblock ARGS...`` with tracing on and write the trace to
        OUT.json; for ``serve`` the service runs through ``sinkhole.serve()``
        and SIGINT or SIGTERM ends it
    python3 bench/tracer.py peak OUT.json -- ARGS...
        run ``tvblock ARGS...`` untraced and write {"peak_rss_mb": ...} to
        OUT.json

The peak RSS is the process's own high-water mark since exec (VmHWM).
``ru_maxrss`` from wait4() is not used for it: on Linux it also counts the
memory of the process that spawned the child, here bench/run.py.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# module -> public functions to wrap. Hot leaves are aggregated only.
TRACED = {
    "traffic": ["parse_flow_log", "parse_http_log", "dataset_summary", "is_ip_literal"],
    "psl": ["load_psl_file", "load_psl", "public_suffix", "esld"],
    "blocklists": ["build_list", "parse_hosts_list", "union_lists", "blocked_by", "is_blocked"],
    "party": ["build_context", "classify_esld", "classify", "esld_of"],
    "pii": ["load_pii_specs", "build_all_variants", "scan_transaction", "attribute_exposures", "redact"],
    "metrics": [
        "block_rate", "dataset_eslds", "fqdn_app_counts", "popularity_block_curve",
        "penetration_table", "common_app_overlap", "pii_block_table",
        "keyword_fn_candidates", "load_org_map", "resolve_org", "load_ats_labels", "ats_label",
    ],
    "reports": [
        "write_block_rates", "write_penetration", "write_popularity_curve", "write_pii_table",
        "write_fn_candidates", "write_overlap", "write_classifications", "write_report_json",
    ],
    "cli": ["load_bundle", "write_bundle", "load_bundle_exposures"],
    "config": ["load_config"],
    "dnswire": ["parse_message", "build_response", "build_error_response"],
    "sinkhole": ["forward", "answer_blocked"],
}
HOT = {
    "traffic.is_ip_literal", "psl.esld", "psl.public_suffix", "blocklists.blocked_by",
    "blocklists.is_blocked", "party.classify", "party.classify_esld", "party.esld_of",
    "pii.scan_transaction", "pii.attribute_exposures", "pii.redact", "metrics.resolve_org",
    "metrics.ats_label", "metrics.block_rate", "dnswire.parse_message", "dnswire.build_response",
    "dnswire.build_error_response", "sinkhole.forward", "sinkhole.answer_blocked",
}


def _match_key(args, kwargs):
    return args[0], args[2] if len(args) > 2 else kwargs.get("mode", "exact")


# Functions whose arguments are counted as distinct questions: wrapped name
# -> (question group, key of the call).
DISTINCT_KEY = {
    "psl.esld": ("psl.esld", lambda args, kwargs: args[0]),
    "blocklists.blocked_by": ("blocklists.match", _match_key),
    "blocklists.is_blocked": ("blocklists.match", _match_key),
}


def _result_size(name, result):
    """A work count read off a function's result, where one exists."""
    if name == "traffic.parse_flow_log":
        return len(result.records)
    if name == "traffic.parse_http_log":
        return len(result.transactions)
    if name == "blocklists.build_list":
        return result.entry_count
    if name in ("pii.build_all_variants", "pii.attribute_exposures"):
        return len(result)
    if name == "sinkhole.forward":
        return int(result is None)  # upstream timeouts and bad replies
    return None


class Tracer:
    """In-memory span and counter store shared by every wrapper."""

    def __init__(self):
        self.stats = {}
        self.spans = []
        self.distinct = {}
        self.local = threading.local()
        self.lock = threading.Lock()
        self.next_id = 0

    def _stack(self):
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def wrap(self, name, fn):
        stat = self.stats.setdefault(
            name, {"calls": 0, "cum_s": 0.0, "self_s": 0.0, "top_s": 0.0, "result": 0}
        )
        keep_span = name not in HOT
        group, key_of = DISTINCT_KEY.get(name, (None, None))
        seen = self.distinct.setdefault(group, set()) if key_of else None
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            frame = [0.0, None]  # child time, span id
            parent = stack[-1][1] if stack else None
            if keep_span:
                with tracer.lock:
                    tracer.next_id += 1
                    frame[1] = tracer.next_id
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                with tracer.lock:
                    stat["calls"] += 1
                    stat["cum_s"] += dur
                    stat["self_s"] += dur - frame[0]
                    if not stack:
                        stat["top_s"] += dur
                    if keep_span:
                        tracer.spans.append((frame[1], parent, name, start, end))
                    if seen is not None:
                        seen.add(key_of(args, kwargs))
            size = _result_size(name, result)
            if size is not None:
                with tracer.lock:
                    stat["result"] += size
            return result

        return wrapper

    def install(self):
        """Wrap every function in TRACED and rebind all of its aliases."""
        import importlib

        modules = {m: importlib.import_module(f"tvblock.{m}") for m in TRACED}
        replaced = {}
        for mod_name, funcs in TRACED.items():
            module = modules[mod_name]
            for fname in funcs:
                original = getattr(module, fname)
                replaced[id(original)] = (original, self.wrap(f"{mod_name}.{fname}", original))
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "tvblock" or mod_name.startswith("tvblock.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def dump(self, path, wall_s, extra=None):
        with self.lock:
            doc = {
                "wall_s": wall_s,
                "funcs": self.stats,
                "distinct": {k: len(v) for k, v in self.distinct.items()},
                "spans": self.spans,
                **(extra or {}),
            }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def peak_rss_mb():
    """This process's peak RSS since exec, in MB."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup(config_path):
    start = time.perf_counter()
    from tvblock import psl
    from tvblock.blocklists import build_list
    from tvblock.config import load_config

    cfg = load_config(config_path)
    rules = psl.load_psl_file(cfg.psl_path, include_private=not cfg.psl_icann_only)
    lists = [build_list(name, paths) for name, paths in cfg.lists.items()]
    elapsed = time.perf_counter() - start
    print(json.dumps({"setup_s": elapsed, "rules": len(rules), "entries": sum(b.entry_count for b in lists)}))
    return 0


def _run_cli(out_path, argv, traced):
    import signal

    from tvblock import cli

    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    # Serve ends on SIGINT; turn SIGTERM into the same clean shutdown.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    start = time.perf_counter()
    try:
        rc = cli.main(argv)
    finally:
        if tracer:
            tracer.dump(out_path, time.perf_counter() - start)
        else:
            with open(out_path, "w", encoding="utf-8") as fh:
                json.dump({"peak_rss_mb": peak_rss_mb()}, fh)
    return rc


def main(argv):
    sys.path.insert(0, SRC)
    if len(argv) == 2 and argv[0] == "setup":
        return _setup(argv[1])
    if len(argv) >= 3 and argv[0] in ("trace", "peak") and argv[2] == "--":
        return _run_cli(argv[1], argv[3:], traced=argv[0] == "trace")
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
