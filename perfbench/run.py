#!/usr/bin/env python3
"""Seeded benchmark of the wroca equivalence pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli-b12 --seed 1 --seconds 30 --trace 0

``--trace 0`` times the workload for ``--seconds`` and reports the
end-to-end metrics; ``--trace 1`` makes a separate traced run and reports
the per-layer metrics. Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 0 only when every verdict
matched its reference. BENCHMARK.json lists the workloads and metrics, and
README.md in this directory defines them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# The keys of workloads.WORKLOADS, which imports wroca and so is only
# loaded once the sources are known to be there.
WORKLOAD_NAMES = ("cli-b12", "theory-pairs", "counting-deep")
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)
CLI_TIMEOUT_S = 150
MAX_REPORTED_FAILURES = 5
WARMUP_S = 1.0


def tail(ordered):
    """The highest listed percentile with at least 10 samples above it (by
    nearest rank), or the maximum when there are too few samples."""
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return f"p{p:g}", ordered[rank - 1]
    return "max", ordered[-1]


class Failures:
    def __init__(self):
        self.count = 0

    def add(self, pair, error):
        self.count += 1
        if self.count <= MAX_REPORTED_FAILURES:
            print(f"FAIL pair {pair.index}: {error}", file=sys.stderr)


def attempt(wl, pair):
    """Decide one pair and check it: (decide ns, decided, error or None)."""
    start = perf_counter_ns()
    try:
        raw = wl.decide(pair)
    except Exception as exc:  # any exception other than a non-verdict is a failure
        return perf_counter_ns() - start, False, f"{type(exc).__name__}: {exc}"
    ns = perf_counter_ns() - start
    try:
        out = wl.outcome(raw)
        return ns, out is not None, wl.check(pair, out)
    except Exception as exc:
        return ns, False, f"check raised {type(exc).__name__}: {exc}"


# What ``python -m wroca.cli`` does, after which the process writes its own
# peak resident memory (VmHWM, in kB) as the last line of standard error.
# The rusage maximum the kernel keeps for a child also counts the memory of
# the process it was spawned from, which here holds the whole pool.
CLI_CHILD = """\
import runpy, sys
try:
    runpy.run_module("wroca.cli", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status", encoding="ascii") as status:
        print(*[line.strip() for line in status if line.startswith("VmHWM:")], file=sys.stderr)
"""


def cli_process(wl, pair, failures):
    """One cold ``python -m wroca.cli`` process on ``pair``, then a block of
    reference calls for about ``calibrate.SHARE`` of its time: (wall ms,
    peak resident MB, ns per reference call)."""
    from workloads import from_cli

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    start = perf_counter_ns()
    proc = subprocess.run(
        [sys.executable, "-c", CLI_CHILD, *wl.cli_args(pair)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
    )
    ms = (perf_counter_ns() - start) / 1e6
    lines = proc.stderr.strip().splitlines()
    try:
        rss_mb = int(lines[-1].split()[1]) / 1024
        error = wl.check(pair, from_cli(proc.returncode, proc.stdout))
    except Exception as exc:
        rss_mb = 0.0
        error = f"CLI output rejected: {type(exc).__name__}: {exc}; {proc.stderr.strip()}"
    if error:
        failures.add(pair, error)
    return ms, rss_mb, wl.reference.per_call_ns(wl.reference.calls_for(ms * 1e6))


def timed_passes(wl, pool, seconds, failures):
    """Closed loop, one client: whole passes over the pool while another
    pass still fits in ``seconds``, and at least one. After each pair a
    block of reference calls runs for about ``calibrate.SHARE`` of the
    pair's first time (one call at least), so that each pair has reference
    samples of about its own length, taken under the same machine load.
    The cold CLI processes are spread evenly over that time and do not
    count against it, for the same reason."""
    cli_pairs = wl.cli_pairs(pool)
    due = [(j + 0.5) * seconds / len(cli_pairs) for j in range(len(cli_pairs))]
    cli_runs = []
    samples = [[] for _ in pool]
    ref_calls = [0] * len(pool)
    ref_samples = [[] for _ in pool]
    attempted = decided = passes = 0
    start = perf_counter()
    cli_s = 0.0
    while True:
        for k, pair in enumerate(pool):
            while len(cli_runs) < len(due) and perf_counter() - start - cli_s >= due[len(cli_runs)]:
                t0 = perf_counter()
                cli_runs.append(cli_process(wl, cli_pairs[len(cli_runs)], failures))
                cli_s += perf_counter() - t0
            ns, ok, error = attempt(wl, pair)
            samples[k].append(ns)
            ref_calls[k] = ref_calls[k] or wl.reference.calls_for(ns)
            ref_samples[k].append(wl.reference.per_call_ns(ref_calls[k]))
            attempted += 1
            decided += ok
            if error:
                failures.add(pair, error)
        passes += 1
        elapsed = perf_counter() - start - cli_s
        if elapsed * (passes + 1) / passes > seconds:
            break
    cli_runs += [cli_process(wl, pair, failures) for pair in cli_pairs[len(cli_runs):]]
    return samples, ref_samples, attempted, decided, passes, elapsed, cli_runs


def end_to_end(wl, seed, seconds, workdir):
    failures = Failures()
    pool, setup_s = wl.build(seed, workdir)
    samples, ref_samples, attempted, decided, passes, elapsed, cli_runs = timed_passes(
        wl, pool, seconds, failures)
    cli_ms = [wl.reference.scaled_ms(ms * 1e6, ref_ns) for ms, _, ref_ns in cli_runs]
    print(f"{wl.name}: {len(pool)} pairs x {passes} passes in {elapsed:.1f} s, "
          f"{decided}/{attempted} decided, {len(cli_ms)} CLI processes")
    attempted += len(cli_ms)

    # A pair's latency is the median of its passes, scaled by the median of
    # the reference blocks next to them (see calibrate.py); a cold process
    # is scaled by the block after it.
    raw = [statistics.median(s) for s in samples]
    ref = [statistics.median(s) for s in ref_samples]
    latency = [wl.reference.scaled_ms(r, f) for r, f in zip(raw, ref)]
    print(f"reference {statistics.median(ref) / 1e6:.5f} ms per call (median pair), nominal "
          f"{wl.reference.nominal_ms} ms; unscaled: latency_ms.p50 {statistics.median(raw) / 1e6:.4f}, "
          f"cli_process_ms.p50 {statistics.median(ms for ms, _, _ in cli_runs):.4f}")
    ordered = sorted(latency)
    tail_name, tail_ms = tail(ordered)
    by_field = {f: [b for b, p in zip(latency, pool) if p.field == f] for f in ("q", "gf")}
    # Peak memory of a `wroca equiv` process on this workload's input. The
    # benchmark process itself also holds the pool and the oracle's levels.
    peak_rss_mb = max(mb for _, mb, _ in cli_runs)
    print(f"latency_ms.tail is {tail_name} of {len(ordered)} per-pair latencies")
    print(f"failed_share {failures.count / attempted:.6f} ({failures.count} of {attempted})")
    metrics = {
        "setup_s": (setup_s, "s"),
        "pairs_per_s": (len(pool) / (sum(latency) / 1e3), "1/s"),
        "latency_ms.p50": (statistics.median(latency), "ms"),
        "latency_ms.tail": (tail_ms, "ms"),
        "latency_ms.q.p50": (statistics.median(by_field["q"]), "ms"),
        "latency_ms.gf.p50": (statistics.median(by_field["gf"]), "ms"),
        "decided_share": (decided / (attempted - len(cli_ms)), "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "cli_process_ms.p50": (statistics.median(cli_ms), "ms"),
    }
    return metrics, attempted, failures.count


def traced_pass(wl, pool, failures):
    """One pass under a fresh tracer: (tracer, decide ns, decided)."""
    from tracing import Tracer

    tracer = Tracer()
    total = decided = 0
    with tracer.installed():
        for k, pair in enumerate(pool):
            tracer.pair = k
            ns, ok, error = attempt(wl, pair)
            total += ns
            decided += ok
            if error:
                failures.add(pair, error)
    return tracer, total, decided


def repeat_counts(name, seed):
    """The exact counts of a second run on the same seed, in a new process
    with another string-hash seed."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--counts-only"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"repeat run failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def counts_only(wl, seed, workdir):
    from tracing import exact_counts

    failures = Failures()
    pool, _ = wl.build(seed, workdir, timed=False)
    tracer, _, decided = traced_pass(wl, pool, failures)
    print(json.dumps(exact_counts(tracer, len(pool), decided)))
    return 0 if failures.count == 0 else 1


def per_layer(wl, seed, workdir):
    import micro
    from tracing import Tracer, exact_counts

    failures = Failures()
    setup_tracer = Tracer()
    with setup_tracer.installed():
        pool, _ = wl.build(seed, workdir, timed=False)
    warm_until = perf_counter() + WARMUP_S
    for pair in pool:
        if perf_counter() > warm_until:
            break
        attempt(wl, pair)
    untraced_ns = 0
    for pair in pool:
        ns, _, error = attempt(wl, pair)
        untraced_ns += ns
        if error:
            failures.add(pair, error)
    tracer, traced_ns, decided = traced_pass(wl, pool, failures)
    counts = exact_counts(tracer, len(pool), decided)
    try:
        repeat = repeat_counts(wl.name, seed)
    except (RuntimeError, ValueError, IndexError, subprocess.TimeoutExpired) as exc:
        repeat = f"no counts: {exc}"
    if repeat != counts:
        failures.count += 1
        print(f"FAIL exact counts differ between runs: {counts} vs {repeat}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{wl.name}-seed{seed}.jsonl", "w", encoding="utf-8") as handle:
        setup_tracer.dump(handle, "setup")
        tracer.dump(handle, "pairs")

    setup, run = setup_tracer.totals(), tracer.totals()

    def mean(totals, name):
        calls, inclusive, _ = totals[name]
        return inclusive / calls

    def self_s(totals, *names):
        return sum(totals.get(n, (0, 0, 0))[2] for n in names) / 1e9

    # Self time per module of the traced pass; the search is the self time
    # of check_equivalence, whose children are validation, bounds,
    # stepping and arithmetic. The oracle and generator run at set-up.
    layers = {
        "cli": self_s(run, "cli.main"),
        "core": self_s(run, "core.from_json", "core.validate"),
        "unfold": self_s(run, "unfold.compute_bounds", "unfold.step_config"),
        "dwa": self_s(run, "equiv.check_equivalence"),
        "equiv": self_s(run, "equiv.replay_witness"),
        "fields": self_s(run, "fields.mul", "fields.addsub", "fields.inverse", "fields.eq"),
        "testkit": self_s(setup, "testkit.brute_force_witness", "testkit.generate", "testkit.split_state"),
    }
    for layer, seconds in layers.items():
        print(f"self time {layer}: {seconds:.6f} s")
    print(f"traced pass {traced_ns / 1e9:.3f} s, untraced {untraced_ns / 1e9:.3f} s")
    print(f"exact counts repeat in a second process: {repeat == counts}")
    from_json = [t["core.from_json"] for t in (setup, run) if "core.from_json" in t]

    metrics = {
        "cli.build_parser_ms": (micro.build_parser_ms(), "ms"),
        "core.from_json_us": (sum(t[1] for t in from_json) / sum(t[0] for t in from_json) / 1e3, "us"),
        "core.validate_us": (mean(run, "core.validate") / 1e3, "us"),
        "core.validate_calls_per_pair": (counts["core.validate_calls"] / len(pool), "count"),
        "core.self_s": (layers["core"], "s"),
        "unfold.compute_bounds_us": (mean(run, "unfold.compute_bounds") / 1e3, "us"),
        "unfold.step_config_calls": (counts["unfold.step_config_calls"], "count"),
        "unfold.step_config_self_s": (self_s(run, "unfold.step_config"), "s"),
        "unfold.max_row": (counts["unfold.max_row"], "count"),
        "dwa.search_self_s": (layers["dwa"], "s"),
        "dwa.explored_words": (counts["dwa.explored_words"], "count"),
        "dwa.kept_vectors": (counts["dwa.kept_vectors"], "count"),
        "dwa.kept_ratio": (counts["dwa.kept_vectors"] / counts["dwa.verdict_explored_words"], "ratio"),
        "dwa.max_counter_row": (counts["dwa.max_counter_row"], "count"),
        "dwa.words_per_s": (counts["dwa.explored_words"] / (untraced_ns / 1e9), "1/s"),
        "equiv.check_equivalence_ms": (mean(run, "equiv.check_equivalence") / 1e6, "ms"),
        "equiv.replay_witness_us": (mean(run, "equiv.replay_witness") / 1e3, "us"),
        "fields.mul_calls": (counts["fields.mul_calls"], "count"),
        "fields.addsub_calls": (counts["fields.addsub_calls"], "count"),
        "fields.inverse_calls": (counts["fields.inverse_calls"], "count"),
        "fields.eq_calls": (counts["fields.eq_calls"], "count"),
        "fields.self_s": (layers["fields"], "s"),
    }
    metrics.update((k, (v, "ns")) for k, v in micro.field_ops(seed).items())
    metrics["testkit.oracle_ms"] = (mean(setup, "testkit.brute_force_witness") / 1e6, "ms")
    metrics["testkit.generate_us"] = (micro.generate_us(seed), "us")
    metrics["trace.overhead_s"] = ((traced_ns - untraced_ns) / 1e9, "s")
    attempted = 2 * len(pool)
    return metrics, attempted, failures.count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--counts-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "wroca" / "__init__.py").is_file():
        print(f"error: no wroca sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"pairs-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.counts_only:
            return counts_only(wl, args.seed, workdir)
        if args.trace:
            metrics, attempted, failed = per_layer(wl, args.seed, workdir)
        else:
            metrics, attempted, failed = end_to_end(wl, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
