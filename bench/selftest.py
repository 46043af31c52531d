#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark: generator -> run -> correctness gate.

    python3 bench/selftest.py

Checks, at a scale that takes seconds, that the generator is deterministic,
that the offline pipeline passes the gate against the reference, that the
gate counts a table that differs from the reference, that the DNS checker
rejects wrong answers, that the rate ladder's backlog test fails a step
whose latency climbs, and that a short sinkhole window passes every check.
Exits 0 and prints "selftest ok" on success.
"""

from __future__ import annotations

import filecmp
import os
import random
import shutil
import struct
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import dnsload  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402

TINY = gen.Shape(
    flows=300, transactions=60, names=120, eslds=30, apps=12, developers=6,
    list_lines=200, pii_rate=0.3, headers=4, uri_params=3, zipf_s=0.9,
)


def expect(ok, what):
    if not ok:
        raise SystemExit(f"selftest failed: {what}")
    print(f"ok: {what}")


def same_tree(a, b):
    cmp = filecmp.dircmp(a, b)
    if cmp.left_only or cmp.right_only or cmp.diff_files or cmp.funny_files:
        return False
    return all(same_tree(os.path.join(a, d), os.path.join(b, d)) for d in cmp.common_dirs)


def step_passes_on(latencies_ms, hold_ms=0.0):
    """run.step_passes on a synthetic step with these latencies, in order."""
    n = len(latencies_ms)
    sched = [i * 0.001 for i in range(n)]
    kind = "forwarded" if hold_ms else "blocked"
    res = dnsload.PhaseResult(
        kinds=[kind] * n, queries=[b""] * n, sched=sched, sent=sched,
        recv=[t + lat / 1e3 for t, lat in zip(sched, latencies_ms)], resp=[b""] * n,
        hold=[hold_ms / 1e3] * n,
    )
    return run.step_passes(res)


def main():
    gen.SHAPES["selftest"] = TINY
    os.makedirs(run.WORK, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK)
    run.CACHE = os.path.join(tmp, "cache")
    try:
        first = gen.generate("selftest", 7, os.path.join(tmp, "a"))
        gen.generate("selftest", 7, os.path.join(tmp, "b"))
        expect(same_tree(os.path.join(tmp, "a"), os.path.join(tmp, "b")), "same seed, byte-identical inputs")

        ref = run.reference(first, "selftest", 7)
        out = os.path.join(tmp, "out")
        os.makedirs(out)
        gate = run.Gate()
        run.pipeline(first, ref, out, gate)
        expect(gate.attempted > 10 and gate.failed == 0,
               f"offline pipeline matches the reference ({gate.attempted} checks)")

        bad = os.path.join(tmp, "bad-ref")
        shutil.copytree(ref, bad)
        with open(os.path.join(bad, "penetration.csv"), "a", encoding="utf-8") as fh:
            fh.write("Roku,planted.example.com,1,1,undetermined\n")
        out2 = os.path.join(tmp, "out2")
        os.makedirs(out2)
        gate = run.Gate()
        run.pipeline(first, bad, out2, gate)
        expect(gate.failed == 1, "a table that differs from the reference fails the gate")

        query = dnsload.build_query(9, "ads.example.com", dnsload.TYPE_A)
        good = dnsload.upstream_reply(query)
        expect(dnsload.check_answer("forwarded", query, good) is None, "the upstream answer passes")
        expect(dnsload.check_answer("forwarded", query, good[:-1] + b"\x35") is not None,
               "a changed forwarded answer fails")
        blocked = (query[:2] + struct.pack(">HHHHH", 0x8180, 1, 1, 0, 0) + query[12:]
                   + b"\xc0\x0c" + struct.pack(">HHIH", dnsload.TYPE_A, 1, dnsload.BLOCKED_TTL, 4) + b"\x00" * 4)
        expect(dnsload.check_answer("blocked", query, blocked) is None, "a 0.0.0.0 answer with the blocked TTL passes")
        expect(dnsload.check_answer("blocked", query, blocked[:-1] + b"\x01") is not None,
               "a blocked answer other than 0.0.0.0 fails")
        expect(dnsload.check_answer("malformed", query, good) is not None, "a non-FORMERR answer fails")

        expect(step_passes_on([1.0] * 400), "a ladder step with flat latency holds")
        climbing = [1.0 + 39.0 * i / 399 for i in range(400)]
        expect(dnsload.percentile(climbing, 99) < run.P99_LIMIT_MS and not step_passes_on(climbing),
               "a ladder step whose latency climbs under the p99 limit fails the backlog test")
        forwarded = [50.0 + 45.0 * i / 399 for i in range(400)]
        expect(not step_passes_on(forwarded, hold_ms=50.0),
               "a forwarded step climbing from 50 to 95 ms fails the backlog test")

        population = dnsload.Population(first["names"], first["list_entries"], random.Random(7))
        loadgen = dnsload.LoadGen(run.UPSTREAM_DELAY_S)
        gate = run.Gate()
        sink = None
        try:
            sink, ready = run.start_sinkhole(first, loadgen, population, tmp, "serve", gate)
            expect(sink is not None, f"sinkhole answered after {ready or 0:.2f} s")
            res = loadgen.run(sink.target, population.plan(200, 1.0))
            run.check_window(res, gate, "selftest")
            run.check_log_and_stats(sink, loadgen, [res], gate, strict=True)
            expect(sink.stop() == 0, "serve exits cleanly on SIGINT")
        finally:
            if sink:
                sink.stop()
            loadgen.close()
        expect(gate.failed == 0 and res.answered > 50,
               f"{res.answered} DNS answers, query log and stats all check out")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
