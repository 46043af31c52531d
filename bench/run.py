#!/usr/bin/env python3
"""The tvblock benchmark: one workload by name, seeded, checked, measured.

    python3 bench/run.py --workload offline-wide --seed 1 --seconds 40 --trace 0

Every workload runs both things tvblock users run, on inputs generated from
the seed (bench/gen.py):

- the offline pipeline ``ingest -> scan-pii -> evaluate -> classify`` over
  two platform captures, each command a ``tvblock`` subprocess; every table
  is compared with the output of tests/reference_pipeline.py;
- the sinkhole, ``tvblock serve`` in suffix mode with the query log and the
  stats endpoint on, driven over loopback by the open-loop generator of
  bench/dnsload.py at a fixed nominal rate; every answer, the query log and
  the stats counter are checked.

With ``--trace 0`` the end-to-end metrics are printed: set-up time, peak
RSS and the sinkhole's latency. With ``--trace 1`` the run times the
offline commands over untraced passes, wraps the package's public
functions (bench/tracer.py), and climbs a fixed rate ladder with blocked
queries only and again with the nominal mix; it prints the per-layer
metrics, the sinkhole's capacity, tracing overhead and span coverage. The last line of standard output is one
JSON object: correct, attempted, failed and metrics, each with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import dnsload  # noqa: E402
import gen  # noqa: E402

WORK = os.path.join(ROOT, ".bench_work")
CACHE = os.path.join(ROOT, ".bench_cache")
REFERENCE = os.path.join(ROOT, "tests", "reference_pipeline.py")
REQUIRED = (os.path.join(ROOT, "src", "tvblock", "cli.py"), REFERENCE,
            os.path.join(gen.TEST_DATA, "public_suffix_list.dat"))

TABLES = ("block_rates", "penetration", "popularity_curve", "pii_table", "overlap", "fn_candidates")
SETUP_REPEATS = 5  # of each part of setup_s: offline load, sinkhole spawn
PLAIN_PASSES = 3  # untraced pipeline passes in the traced run
NOMINAL_QPS = 250  # about half the sinkhole's capacity in the mix on every workload
NOMINAL_SHARE = 0.2  # of --seconds, per nominal-rate window
NOMINAL_WINDOWS = 3  # in a measured run; the traced run makes one untraced, one traced
STEP_SHARE = 0.045  # of --seconds, per rate-ladder step
LADDER = [round(100 * 1.05**k) for k in range(95)]  # 100 .. 10,300 qps
# Rate ladders: (shares of blocked and of malformed queries). "blocked" is
# bound by the sinkhole's CPU work per query; "mixed" by its 16 forward()
# workers, each held for the upstream's delay by one forwarded query.
LADDERS = {"blocked": (1.0, 0.0), "mixed": (dnsload.BLOCKED, dnsload.MALFORMED)}
P99_LIMIT_MS = 50.0  # own latency, so that a step holds only without deep queueing
BACKLOG_SLACK_MS = 5.0
LAG_LIMIT_MS = 25.0  # generator lateness (p99) beyond which a window measures the host, not the sinkhole
# An assumed cache-miss resolution time of a recursive resolver.
UPSTREAM_DELAY_S = 0.050
SETTLE_S = 30.0  # longest wait for the sinkhole to work off a failed step
CHILD_TIMEOUT_S = 120

clock = time.perf_counter


class InvalidRun(Exception):
    """The generator could not keep its schedule; the window measures nothing."""


class Gate:
    """Counts checked operations and the ones that failed or were wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(what)

    def fail(self, count: int, what: str, attempted: int):
        self.attempted += attempted
        self.failed += count
        if count:
            self.reasons.append(what)


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv, log_path):
    """Run a child to completion: (wall seconds, exit code)."""
    with open(log_path, "w", encoding="utf-8") as out:
        start = clock()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            proc.wait()
        finally:
            timer.cancel()
        wall = clock() - start
    return wall, proc.returncode


def tvblock_argv(args, out_path, traced=False):
    """``tvblock ARGS`` in a fresh interpreter that writes, at exit, its
    trace (``traced``) or its peak RSS to ``out_path``."""
    return [sys.executable, os.path.join(HERE, "tracer.py"), "trace" if traced else "peak", out_path, "--", *args]


def peak_rss(path) -> float:
    """The peak RSS in MB a ``tracer.py peak`` child wrote, or NaN."""
    try:
        with open(path, encoding="utf-8") as fh:
            return float(json.load(fh)["peak_rss_mb"])
    except (OSError, ValueError, KeyError):
        return float("nan")


def median(values):
    return statistics.median(values) if values else float("nan")


# -- reference outputs ---------------------------------------------------------


def _digest(*paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:12]


def reference(manifest, workload, seed) -> str:
    """Directory of expected tables for this input, computed once per seed."""
    key = f"{workload}-{seed}-{_digest(os.path.join(HERE, 'gen.py'), REFERENCE, __file__)}"
    final = os.path.join(CACHE, key)
    if os.path.exists(os.path.join(final, "done")):
        return final
    tmp = f"{final}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    roku, firetv = (manifest["bundles"][label] for label, _ in gen.PLATFORMS)
    subprocess.run(
        [sys.executable, REFERENCE, "--config", manifest["config"],
         "--flows-a", roku["flows"], "--http-a", roku["http"], "--label-a", "Roku",
         "--flows-b", firetv["flows"], "--http-b", firetv["http"], "--label-b", "FireTV",
         "--out", tmp],
        check=True, capture_output=True, cwd=ROOT, timeout=CHILD_TIMEOUT_S,
    )
    _expected_classifications(manifest, tmp)
    with open(os.path.join(tmp, "done"), "w") as fh:
        fh.write("ok\n")
    shutil.rmtree(final, ignore_errors=True)
    os.replace(tmp, final)
    return final


def _expected_classifications(manifest, out_dir):
    """classify's table per bundle, from the reference pipeline's own rules."""
    sys.path.insert(0, os.path.dirname(REFERENCE))
    import reference_pipeline as ref

    with open(manifest["config"], encoding="utf-8") as fh:
        cfg = json.load(fh)
    stops = set(cfg["stop_tokens"])
    for label, info in manifest["bundles"].items():
        flows, txs = ref.read_jsonl(info["flows"]), ref.read_jsonl(info["http"])
        bundle = ref.Bundle(label, flows, txs)
        contacts = ref.build_esld_contacts(bundle)
        markers = set(cfg["platform_markers"].get(label, []))
        pairs, names = {}, set()
        for obj in flows + txs:
            names.add(obj["fqdn"])
            if obj.get("app_id") is None or ref.is_ip(obj["fqdn"]):
                continue
            dom = ref.esld(obj["fqdn"])
            if dom:
                pairs.setdefault((obj["app_id"], dom), obj.get("developer"))
        rows = [
            [label, app, dev or "", dom, ref.classify_pair(app, dev, dom, markers, contacts, stops)]
            for (app, dom), dev in sorted(pairs.items())
        ]
        ref.write_csv(os.path.join(out_dir, f"classifications_{info['platform']}.csv"),
                      ["platform", "app_id", "developer", "esld", "party"], rows)
        with open(os.path.join(out_dir, f"summary_{info['platform']}.json"), "w") as fh:
            json.dump({"distinct_fqdn_count": len(names)}, fh)


def _table_body(path):
    """A CSV after its ``# generated_at`` line, or None when unreadable."""
    try:
        with open(path, encoding="utf-8") as fh:
            first = fh.readline()
            return fh.read() if first.startswith("# generated_at=") else None
    except OSError:
        return None


# -- offline pipeline ----------------------------------------------------------


def pipeline(manifest, ref_dir, out_dir, gate, trace_dir=None):
    """One ingest -> scan-pii -> evaluate -> classify pass over both bundles.

    Returns {command: [(wall_s, rss_mb)]}; checks every output against the
    reference. With ``trace_dir`` each command runs under the tracer.
    """
    timings = {"ingest": [], "scan-pii": [], "evaluate": [], "classify": []}
    config = manifest["config"]
    bundles = {info["platform"]: (label, info) for label, info in manifest["bundles"].items()}

    def run(command, args, tag):
        out = os.path.join(trace_dir, f"{tag}.json") if trace_dir else os.path.join(out_dir, f"{tag}.peak.json")
        wall, rc = run_child(tvblock_argv([command, *args], out, traced=bool(trace_dir)),
                             os.path.join(out_dir, f"{tag}.log"))
        gate.check(rc == 0, f"{command} ({tag}) exited {rc}")
        timings[command].append((wall, float("nan") if trace_dir else peak_rss(out)))

    for platform, (label, info) in bundles.items():
        bundle = os.path.join(out_dir, platform)
        run("ingest", ["--flows", info["flows"], "--http", info["http"], "--label", label,
                       "--platform", platform, "--out", bundle], f"ingest-{platform}")
        with open(os.path.join(ref_dir, f"summary_{platform}.json")) as fh:
            expected = json.load(fh)["distinct_fqdn_count"]
        with open(os.path.join(bundle, "summary.json")) as fh:
            got = json.load(fh).get("distinct_fqdn_count")
        gate.check(got == expected, f"ingest {platform}: {got} distinct names, expected {expected}")
    for platform in bundles:
        run("scan-pii", ["--bundle", os.path.join(out_dir, platform), "--config", config], f"scan-{platform}")
    report = os.path.join(out_dir, "report")
    run("evaluate", ["--bundle", os.path.join(out_dir, "roku"), "--bundle", os.path.join(out_dir, "firetv"),
                     "--config", config, "--out", report], "evaluate")
    for table in TABLES:
        got = _table_body(os.path.join(report, f"{table}.csv"))
        gate.check(got is not None and got == _table_body(os.path.join(ref_dir, f"{table}.csv")),
                   f"{table}.csv differs from the reference")
    for platform in bundles:
        cls_dir = os.path.join(out_dir, f"classify-{platform}")
        run("classify", ["--bundle", os.path.join(out_dir, platform), "--config", config, "--out", cls_dir],
            f"classify-{platform}")
        got = _table_body(os.path.join(cls_dir, "classifications.csv"))
        gate.check(got is not None and got == _table_body(os.path.join(ref_dir, f"classifications_{platform}.csv")),
                   f"classifications.csv ({platform}) differs from the reference")
    return timings


def _sum_walls(timings):
    per_command = {cmd: sum(w for w, _ in runs) for cmd, runs in timings.items()}
    per_command["pipeline"] = sum(per_command.values())
    return per_command


# -- sinkhole ------------------------------------------------------------------


class Sinkhole:
    """A ``tvblock serve`` child on loopback, suffix mode, log and stats on."""

    def __init__(self, manifest, loadgen, work, tag, trace_path=None):
        self.port, self.stats_port = dnsload.free_port(), dnsload.free_port()
        self.log_path = os.path.join(work, f"{tag}.querylog.jsonl")
        args = ["serve", "--config", manifest["config"], "--mode", "suffix",
                "--listen", f"127.0.0.1:{self.port}",
                "--upstream", "%s:%d" % loadgen.upstream_address,
                "--query-log", self.log_path, "--stats", f"127.0.0.1:{self.stats_port}"]
        self.out = open(os.path.join(work, f"{tag}.log"), "w", encoding="utf-8")
        self.started = clock()
        self.exit_path = trace_path or os.path.join(work, f"{tag}.peak.json")
        self.proc = subprocess.Popen(tvblock_argv(args, self.exit_path, traced=bool(trace_path)), stdout=self.out,
                                     stderr=subprocess.STDOUT, env=_env(), cwd=ROOT)
        self.rss_mb = 0.0

    @property
    def target(self):
        return ("127.0.0.1", self.port)

    def alive(self) -> bool:
        return self.proc.poll() is None

    def log_lines(self):
        try:
            with open(self.log_path, encoding="utf-8") as fh:
                return [json.loads(line) for line in fh if line.strip()]
        except (OSError, ValueError):
            return None

    def stop(self) -> int:
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGINT)
            timer = threading.Timer(15, self.proc.kill)
            timer.start()
            try:
                self.proc.wait()
            finally:
                timer.cancel()
            self.rss_mb = peak_rss(self.exit_path)
        self.out.close()
        return self.proc.returncode


def start_sinkhole(manifest, loadgen, population, work, tag, gate, trace_path=None):
    """Spawn a sinkhole and wait for its first answer: (sinkhole, setup_s)."""
    loadgen.probes_answered = 0
    loadgen.probe_errors.clear()
    sink = Sinkhole(manifest, loadgen, work, tag, trace_path)
    ready = loadgen.wait_ready(sink.target, population.blocked[0], 60.0, sink.alive)
    if ready is None:
        sink.stop()
        raise RuntimeError(f"sinkhole {tag} never answered; see {sink.out.name}")
    gate.check(not loadgen.probe_errors, f"{tag}: wrong answer to the ready probe: {loadgen.probe_errors}")
    return sink, ready - sink.started


def check_window(res, gate, label):
    """Count every query of a window: wrong, lost and unexpected answers."""
    gate.fail(len(res.errors), f"{label}: {len(res.errors)} wrong answers, first: "
              f"{res.errors[0][1] if res.errors else ''}", attempted=len(res.kinds) - res.lost)
    gate.fail(res.lost, f"{label}: {res.lost} queries unanswered", attempted=res.lost)
    gate.fail(res.stale, f"{label}: {res.stale} answers to no outstanding query", attempted=res.stale)


def check_log_and_stats(sink, loadgen, windows, gate, strict):
    """Query-log lines and the stats total against the queries answered."""
    loadgen.drain_probes()
    total = dnsload.stats_total(("127.0.0.1", sink.stats_port))
    lines = sink.log_lines()
    answered = loadgen.probes_answered + sum(w.answered for w in windows)
    sent = loadgen.probes_answered + sum(len(w.kinds) for w in windows)
    if lines is None:
        gate.check(False, "query log unreadable")
        return 0
    n = len(lines)
    ok = n == answered if strict else answered <= n <= sent
    gate.check(ok, f"query log has {n} lines for {answered} answered queries")
    gate.check(total == n, f"stats total {total} != {n} log lines")
    if strict:
        expected = {"blocked": loadgen.probes_answered, "forwarded": 0, "": 0}
        for w in windows:
            for kind, recv in zip(w.kinds, w.recv):
                if recv is not None:
                    expected["" if kind == "malformed" else kind] += 1
        got = {
            "blocked": sum(1 for e in lines if e.get("verdict") == "blocked"),
            "forwarded": sum(1 for e in lines if e.get("verdict") == "forwarded"),
            "": sum(1 for e in lines if e.get("qname") == ""),
        }
        gate.check(got == expected, f"query log verdicts {got} != {expected}")
    return n


def window_summary(res):
    """Own-latency percentiles (upstream hold excluded) and generator lag."""
    own = res.own_ms()
    return {
        "p50": dnsload.percentile(own, 50), "p99": dnsload.percentile(own, 99),
        "lag_p99": dnsload.percentile(res.lag_ms(), 99), "n": len(own),
    }


def step_passes(res) -> bool:
    """A ladder step holds when nothing is lost or wrong, the own-latency
    p99 meets the limit, the generator kept time, and own latency did not
    climb through the step (no growing backlog)."""
    if res.lost or res.errors or not res.kinds:
        return False
    s = window_summary(res)
    if s["p99"] > P99_LIMIT_MS or s["lag_p99"] > LAG_LIMIT_MS:
        return False
    own = res.own_ms()
    q = max(1, len(own) // 4)
    return dnsload.percentile(own[-q:], 50) <= 2 * dnsload.percentile(own[:q], 50) + BACKLOG_SLACK_MS


def settle(sink, loadgen, population, windows):
    """Wait, with the mock upstream answering, until the sinkhole has worked
    off what a step left queued: one blocked probe comes back behind it."""
    probe = [(0.0, "blocked", population.blocked[0], dnsload.TYPE_A)]
    windows.append(loadgen.run(sink.target, probe, drain_s=SETTLE_S, linger_s=0.2))
    loadgen.drain_client()


def ladder_qps(manifest, loadgen, population, work, gate, seconds, ladder):
    """Spawn a sinkhole and bisect the fixed ladder, in the named mix, for
    its highest step that holds: that step's achieved rate, or None."""
    blocked, malformed = LADDERS[ladder]
    tag = f"{ladder} ladder"
    sink, _ = start_sinkhole(manifest, loadgen, population, work, f"serve-{ladder}-ladder", gate)
    lo, hi, best, windows = -1, len(LADDER), None, []
    try:
        while hi - lo > 1:
            mid = (lo + hi) // 2
            rate = LADDER[mid]
            res = loadgen.run(sink.target, population.plan(rate, seconds * STEP_SHARE, blocked, malformed))
            windows.append(res)
            gate.fail(len(res.errors), f"{tag} {rate}/s: {len(res.errors)} wrong answers",
                      attempted=len(res.kinds) - res.lost)
            s = window_summary(res)
            ok = step_passes(res)
            print(f"  {tag} {rate:>5}/s: {'holds' if ok else 'fails'}; own p50 {s['p50'] or 0:.2f} ms, "
                  f"p99 {s['p99'] or 0:.2f} ms (n={s['n']}), lost {res.lost}, lag p99 {s['lag_p99'] or 0:.2f} ms")
            if ok:
                lo, best = mid, res.achieved_qps()
            else:
                hi = mid
            settle(sink, loadgen, population, windows)
        check_log_and_stats(sink, loadgen, windows, gate, strict=False)
    finally:
        rc = sink.stop()
    gate.check(rc == 0, f"{tag}: serve exited {rc}")
    gate.check(best is not None, f"no step of the {tag} holds")
    print(f"dns {tag} max qps (own p99 <= {P99_LIMIT_MS} ms, no growing backlog): {best}")
    return best


# -- runs ----------------------------------------------------------------------


def setup_times(manifest, work):
    times = []
    for i in range(SETUP_REPEATS):
        log = os.path.join(work, f"setup-{i}.log")
        _, rc = run_child([sys.executable, os.path.join(HERE, "tracer.py"), "setup", manifest["config"]], log)
        if rc != 0:
            raise RuntimeError(f"setup probe failed; see {log}")
        with open(log) as fh:
            times.append(json.loads(fh.read().strip().splitlines()[-1])["setup_s"])
    return times


def measured_run(args, manifest, ref_dir, work, population, gate):
    """Set-up, one checked offline pass and NOMINAL_WINDOWS nominal windows,
    the first before the offline pass, so that the DNS figures spread over
    the host's CPU-speed drift through the run."""
    metrics = {}
    setup = setup_times(manifest, work)
    print(f"setup (config, PSL, lists in a fresh interpreter): {', '.join(f'{t:.3f}' for t in setup)} s")

    loadgen = dnsload.LoadGen(UPSTREAM_DELAY_S)
    windows, dns_setup, rss = [], [], []
    try:
        for i in range(NOMINAL_WINDOWS):
            res, ready, _, serve_rss = nominal_window(args, manifest, loadgen, population, work,
                                                      f"serve-nominal-{i}", gate)
            windows.append(res)
            dns_setup.append(ready)
            rss.append(serve_rss)
            if i == 0:
                out = os.path.join(work, "offline")
                os.makedirs(out)
                timings = pipeline(manifest, ref_dir, out, gate)
                rss += [r for runs in timings.values() for _, r in runs]
                print("offline pass (checked; its times are per-layer metrics): "
                      + ", ".join(f"{cmd} {wall:.3f} s" for cmd, wall in _sum_walls(timings).items()))
        for i in range(SETUP_REPEATS - len(dns_setup)):
            sink, ready = start_sinkhole(manifest, loadgen, population, work, f"serve-setup-{i}", gate)
            try:
                dns_setup.append(ready)
                check_log_and_stats(sink, loadgen, [], gate, strict=True)
            finally:
                rc = sink.stop()
            gate.check(rc == 0, f"serve-setup-{i}: serve exited {rc}")
            rss.append(sink.rss_mb)
        res = dnsload.PhaseResult.joined(windows)
        s = window_summary(res)
        metrics["dns_p50_ms"] = (s["p50"], "ms")
        fwd, own_fwd, blk = res.latencies_ms("forwarded"), res.own_ms("forwarded"), res.own_ms("blocked")
        metrics["dns_forwarded_p99_ms"] = (dnsload.percentile(fwd, 99), "ms")
        print(f"dns nominal {NOMINAL_QPS}/s, own latency (upstream hold excluded): n={s['n']}, "
              f"p50 {s['p50']:.3f} ms, p99 {s['p99']:.3f} ms; "
              f"blocked n={len(blk)}, p50 {dnsload.percentile(blk, 50):.3f} ms, p99 {dnsload.percentile(blk, 99):.3f} ms; "
              f"forwarded n={len(fwd)}, own p50 {dnsload.percentile(own_fwd, 50):.3f} ms, "
              f"p99 with upstream {metrics['dns_forwarded_p99_ms'][0]:.2f} ms; "
              f"malformed {res.kinds.count('malformed')}; generator lag p99 {s['lag_p99']:.3f} ms")
    finally:
        loadgen.close()
    print(f"sinkhole setup (spawn to first answer): {', '.join(f'{t:.3f}' for t in dns_setup)} s")
    metrics["setup_s"] = (median(setup) + median(dns_setup), "s")
    print(f"peak RSS of {len(rss)} CLI and serve processes: {', '.join(f'{r:.1f}' for r in rss)} MB")
    metrics["peak_rss_mb"] = (max(rss), "MB")
    return metrics


def nominal_window(args, manifest, loadgen, population, work, tag, gate, trace_path=None):
    """Spawn a sinkhole, run one checked window at the nominal rate, stop it.

    Returns (window, setup seconds, query-log entries, peak RSS MB).
    """
    sink, ready = start_sinkhole(manifest, loadgen, population, work, tag, gate, trace_path)
    try:
        res = loadgen.run(sink.target, population.plan(NOMINAL_QPS, args.seconds * NOMINAL_SHARE))
        check_window(res, gate, tag)
        lag = dnsload.percentile(res.lag_ms(), 99) or 0.0
        if lag > LAG_LIMIT_MS:
            raise InvalidRun(f"generator lag p99 {lag:.2f} ms exceeds {LAG_LIMIT_MS} ms")
        log_entries = check_log_and_stats(sink, loadgen, [res], gate, strict=True)
    finally:
        rc = sink.stop()
    gate.check(rc == 0, f"{tag}: serve exited {rc}")
    return res, ready, log_entries, sink.rss_mb


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _f(traces, name, field):
    return sum(t["funcs"].get(name, {}).get(field, 0) for t in traces)


def _ratio(a, b):
    return a / b if b else 0.0


# The sinkhole's outermost traced calls for one query.
PER_QUERY = ("dnswire.parse_message", "blocklists.blocked_by", "sinkhole.answer_blocked",
             "sinkhole.forward", "dnswire.build_error_response")


def layer_metrics(offline, serve, dns_res, log_entries):
    """Per-layer metrics from the traces of one pipeline pass and one serve."""
    every = offline + serve
    m = {}
    parse = ("traffic.parse_flow_log", "traffic.parse_http_log")
    m["traffic.parse_s"] = (sum(_f(every, n, "cum_s") for n in parse), "s")
    m["traffic.records"] = (sum(_f(every, n, "result") for n in parse), "count")
    m["traffic.is_ip_calls"] = (_f(every, "traffic.is_ip_literal", "calls"), "count")
    m["traffic.is_ip_s"] = (_f(every, "traffic.is_ip_literal", "cum_s"), "s")
    m["psl.load_s"] = (_f(every, "psl.load_psl_file", "cum_s"), "s")
    calls = _f(every, "psl.esld", "calls")
    distinct = sum(t["distinct"].get("psl.esld", 0) for t in every)
    m["psl.esld_calls"] = (calls, "count")
    m["psl.esld_distinct"] = (distinct, "count")
    m["psl.esld_useful_ratio"] = (_ratio(distinct, calls), "ratio")
    m["psl.esld_s"] = (_f(every, "psl.esld", "cum_s"), "s")
    m["blocklists.build_s"] = (_f(every, "blocklists.build_list", "cum_s"), "s")
    m["blocklists.entries"] = (max(t["funcs"].get("blocklists.build_list", {}).get("result", 0) for t in every), "count")
    match = ("blocklists.blocked_by", "blocklists.is_blocked")
    calls = sum(_f(every, n, "calls") for n in match)
    distinct = sum(t["distinct"].get("blocklists.match", 0) for t in every)
    m["blocklists.match_calls"] = (calls, "count")
    m["blocklists.match_useful_ratio"] = (_ratio(distinct, calls), "ratio")
    m["blocklists.match_s"] = (sum(_f(every, n, "self_s") for n in match), "s")
    m["party.build_context_s"] = (_f(every, "party.build_context", "cum_s"), "s")
    m["party.classify_calls"] = (_f(every, "party.classify", "calls"), "count")
    m["party.classify_s"] = (_f(every, "party.classify", "cum_s"), "s")
    m["pii.variants"] = (max(t["funcs"].get("pii.build_all_variants", {}).get("result", 0) for t in every), "count")
    m["pii.scan_s"] = (_f(every, "pii.scan_transaction", "cum_s"), "s")
    m["pii.attribute_s"] = (_f(every, "pii.attribute_exposures", "cum_s"), "s")
    m["pii.redact_s"] = (_f(every, "pii.redact", "cum_s"), "s")
    m["pii.exposures"] = (_f(every, "pii.attribute_exposures", "result"), "count")
    for metric, fn in (("block_rate", "block_rate"), ("penetration", "penetration_table"),
                       ("curve", "popularity_block_curve"), ("fn_candidates", "keyword_fn_candidates"),
                       ("overlap", "common_app_overlap")):
        m[f"metrics.{metric}_s"] = (_f(every, f"metrics.{fn}", "cum_s"), "s")
    writers = {n for t in every for n in t["funcs"] if n.startswith("reports.write_")}
    m["reports.write_s"] = (sum(_f(every, n, "cum_s") for n in writers), "s")
    m["cli.load_bundle_s"] = (_f(every, "cli.load_bundle", "cum_s"), "s")
    m["cli.write_bundle_s"] = (_f(every, "cli.write_bundle", "cum_s"), "s")

    def per_call_us(names):
        return _ratio(sum(_f(serve, n, "cum_s") for n in names), sum(_f(serve, n, "calls") for n in names)) * 1e6

    m["dnswire.parse_us"] = (per_call_us(["dnswire.parse_message"]), "us")
    m["dnswire.build_us"] = (per_call_us(["dnswire.build_response", "dnswire.build_error_response"]), "us")
    m["sinkhole.forward_us"] = (per_call_us(["sinkhole.forward"]), "us")
    layer_s = sum(_f(serve, n, "top_s") for n in PER_QUERY)
    client_us = statistics.fmean(dns_res.latencies_ms(since_sent=True)) * 1e3 if dns_res.answered else 0.0
    m["sinkhole.residual_us"] = (client_us - _ratio(layer_s, log_entries) * 1e6, "us")
    m["sinkhole.log_entries"] = (log_entries, "count")
    m["sinkhole.timeouts"] = (_f(serve, "sinkhole.forward", "result"), "count")
    m["dns.gen_lag_ms"] = (dnsload.percentile(dns_res.lag_ms(), 99) or 0.0, "ms")
    return m


def traced_run(args, manifest, ref_dir, work, population, gate):
    passes = []
    for i in range(PLAIN_PASSES):
        out = os.path.join(work, f"offline-plain-{i}")
        os.makedirs(out)
        passes.append(_sum_walls(pipeline(manifest, ref_dir, out, gate)))
        shutil.rmtree(out)
    plain = {cmd: median([p[cmd] for p in passes]) for cmd in passes[0]}
    out, trace_dir = os.path.join(work, "offline-traced"), os.path.join(work, "traces")
    os.makedirs(out)
    os.makedirs(trace_dir)
    traced = _sum_walls(pipeline(manifest, ref_dir, out, gate, trace_dir))
    report_bytes = sum(
        os.path.getsize(os.path.join(d, f))
        for d in [os.path.join(out, "report")] + [os.path.join(out, f"classify-{p}") for _, p in gen.PLATFORMS]
        for f in os.listdir(d)
    )
    offline = {name[:-len(".json")]: _read_json(os.path.join(trace_dir, name)) for name in os.listdir(trace_dir)}

    loadgen = dnsload.LoadGen(UPSTREAM_DELAY_S)
    serve_trace = os.path.join(work, "serve-trace.json")
    try:
        plain_res = nominal_window(args, manifest, loadgen, population, work, "serve-plain", gate)[0]
        res, _, log_entries, _ = nominal_window(args, manifest, loadgen, population, work, "serve-traced", gate,
                                                serve_trace)
        ladder = {name: ladder_qps(manifest, loadgen, population, work, gate, args.seconds, name)
                  for name in LADDERS}
    finally:
        loadgen.close()
    serve = [_read_json(serve_trace)]

    metrics = layer_metrics(list(offline.values()), serve, res, log_entries)
    metrics["reports.bytes"] = (report_bytes, "bytes")
    for cmd, wall in plain.items():
        metrics[f"{cmd.replace('-', '_')}_s"] = (wall, "s")
    metrics["dns.blocked_p99_ms"] = (dnsload.percentile(plain_res.latencies_ms("blocked"), 99), "ms")
    metrics["dns_p99_ms"] = (window_summary(plain_res)["p99"], "ms")
    metrics["dns_max_qps"] = (ladder["blocked"] or 0.0, "1/s")
    metrics["dns.mixed_max_qps"] = (ladder["mixed"] or 0.0, "1/s")
    metrics["trace.dns_p50_overhead_ms"] = (
        window_summary(res)["p50"] - window_summary(plain_res)["p50"], "ms")
    metrics["trace.overhead_s"] = (traced["pipeline"] - plain["pipeline"], "s")
    metrics["trace.overhead_ratio"] = (_ratio(traced["pipeline"] - plain["pipeline"], plain["pipeline"]), "ratio")
    for cmd, prefix in (("ingest", "ingest-"), ("scan_pii", "scan-"), ("evaluate", "evaluate"), ("classify", "classify-")):
        ts = [t for tag, t in offline.items() if tag.startswith(prefix)]
        covered = sum(v["top_s"] for t in ts for v in t["funcs"].values())
        metrics[f"trace.{cmd}_coverage"] = (_ratio(covered, sum(t["wall_s"] for t in ts)), "ratio")
    print(f"pipeline wall: {plain['pipeline']:.3f} s plain (median of {PLAIN_PASSES}), "
          f"{traced['pipeline']:.3f} s traced")
    return metrics


# -- main ----------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="tvblock benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(gen.SHAPES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    missing = [p for p in REQUIRED if not os.path.exists(p)]
    if missing:
        print(f"error: not a tvblock checkout, missing {', '.join(os.path.relpath(p, ROOT) for p in missing)}",
              file=sys.stderr)
        return 2

    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    gate = Gate()
    try:
        start = clock()
        manifest = gen.generate(args.workload, args.seed, os.path.join(work, "inputs"))
        generated = clock()
        ref_dir = reference(manifest, args.workload, args.seed)
        print(f"inputs generated in {generated - start:.2f} s, reference ready in {clock() - generated:.2f} s")
        population = dnsload.Population(manifest["names"], manifest["list_entries"],
                                        random.Random(f"dns:{args.workload}:{args.seed}"))
        print(f"workload {args.workload}, seed {args.seed}: shape {json.dumps(manifest['shape'])}")
        print(f"dns population: {len(population.blocked)} blocked names, {len(population.forwarded)} forwarded")
        run = traced_run if args.trace else measured_run
        metrics = run(args, manifest, ref_dir, work, population, gate)
    except InvalidRun as exc:
        print(f"invalid run: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for reason in gate.reasons[:20]:
        print(f"check failed: {reason}", file=sys.stderr)
    print(f"checked {gate.attempted} operations, {gate.failed} failed "
          f"(fail_ratio {_ratio(gate.failed, gate.attempted):.6f})")
    if args.trace:
        metrics["fail_ratio"] = (_ratio(gate.failed, gate.attempted), "ratio")
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
