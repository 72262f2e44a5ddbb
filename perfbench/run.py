"""Benchmark of frobtile: one workload per run, closed loop, every output checked.

    python3 perfbench/run.py --workload frobenius --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: frobtile is imported from
./src, never from an installed copy.  The run sets up (imports frobtile,
generates round 0, warms up), then times operations one at a time
until --seconds have passed: round 0 once, checked, then again in
repeat passes, each operation's latency being the median of its repeats
("frobenius", whose repeats would find the library's caches warm, runs
whole rounds of fresh inputs instead).  Every time is corrected for the
machine's speed (speed.py).  The last line of standard output is one
JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones: wall_s (median
round time: the sum of its operations' times), op_p50_ms and op_p90_ms
(over every operation), setup_s (median of this run's set-up and
SETUP_PROBES more in fresh interpreters), peak_rss_mb.  With --trace 1
the first half of the time runs untraced and the second half traced;
the metrics are the per-layer ones, and the spans go to
perfbench/out/trace-<workload>-<seed>.json.
"""

from __future__ import annotations

from time import perf_counter

_STARTED = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import SAMPLER  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 4
# operations under SHORT_S also run in passes of their own, which take about
# SHORT_SHARE of the time the passes over every operation take
SHORT_S = 0.1
SHORT_SHARE = 0.5
PROBE_TIMEOUT_S = 120


def import_frobtile():
    """frobtile from ./src of this checkout; SystemExit(2) if it is not there."""
    if not (SRC / "frobtile" / "__init__.py").is_file():
        print(f"error: no frobtile sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import frobtile

    if Path(frobtile.__file__).resolve().parent != SRC / "frobtile":
        print(f"error: imported frobtile from {frobtile.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return frobtile


def set_up(name, seed):
    """Import, generate round 0, warm up.

    Returns (workload, calls, round 0, seconds since the interpreter
    started).  Set-up is not corrected for the machine's speed: a slow
    stretch that slows the speed samples by a third leaves it unchanged.
    """
    import_frobtile()
    from tracing import Calls, resolve_functions
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    first = workload.round(0)
    calls = Calls(resolve_functions(), tracing=False)
    workload.warm_up(calls)
    return workload, calls, first, perf_counter() - _STARTED


def probe_setup(name, seed):
    """Set-up time of SETUP_PROBES fresh interpreters, run one after another."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        times.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return times


class Tally:
    """Latencies, rounds and failures across the rounds of one run."""

    def __init__(self):
        self.latencies = []     # per operation, corrected for speed
        self.round_walls = []   # per round: the sum of its latencies
        self.first_walls = []   # per round: its operations' raw first-pass times
        self.executions = []    # per round: (op, start, end, busy) of every run of an op
        self.passes = 0
        self.attempted = 0
        self.errors = []   # operations that raised
        self.wrong = []    # outputs that failed a check
        self.check_s = 0.0
        self.glue_s = 0.0
        self.loop_s = 0.0  # median speed-sample loop time over the phase
        self.samples = 0


def run_op(workload, calls, items, r, i, tally, executions):
    """Run items[i] once; returns its output, or None if it raised.

    The young generations are collected first, so that the collections
    the operation's own allocations set off come at the same points in
    every run of it.
    """
    gc.collect(1)
    calls.begin((r, i))
    tally.attempted += 1
    started = perf_counter()
    try:
        out = workload.run(calls, items[i])
    except Exception as exc:  # a failed operation is counted, not fatal
        tally.errors.append(f"round {r} op {i} {items[i]!r:.80}: {type(exc).__name__}: {exc}")
        return None
    ended = perf_counter()
    tally.glue_s += ended - started - calls.op_busy
    executions.append((i, started, ended, calls.op_busy))
    return out


def run_round(workload, calls, items, r, tally, deadline=None):
    """One round: a first pass, checked, then repeat passes until deadline.

    Every pass starts from a collected heap, so the garbage collector's
    work inside an operation is the same in every pass.  Checks and spans
    come from the first pass only.
    """
    from workloads import CheckError

    executions = []
    gc.collect()
    for i in range(len(items)):
        out = run_op(workload, calls, items, r, i, tally, executions)
        if out is None:
            continue
        checked = perf_counter()
        try:
            workload.check(items[i], out)
        except CheckError as exc:
            tally.wrong.append(f"round {r} op {i}: {exc}")
        del out
        tally.check_s += perf_counter() - checked
    first = {i: busy for i, _, _, busy in executions}
    tally.first_walls.append(sum(first.values()))
    tally.passes += 1
    if deadline is not None:
        tracing, calls.tracing = calls.tracing, False
        run_repeats(workload, calls, items, r, tally, executions, first, deadline)
        calls.tracing = tracing
    tally.executions.append(executions)


def run_repeats(workload, calls, items, r, tally, executions, first, deadline):
    """Repeat passes until the next one would end past deadline.

    They put more of the run's time into each operation's figure, so that
    it depends less on the moment it ran at.  A pass over every operation
    under repeat_below_s alternates with passes over those under SHORT_S,
    which cost little and vary the most.  first maps each operation to
    its first-pass time.
    """
    again = [i for i, t in first.items() if t < workload.repeat_below_s]
    short = [i for i in again if first[i] < SHORT_S]
    cost = {"again": sum(first[i] for i in again), "short": sum(first[i] for i in short)}
    cycle = ["again"] * bool(again) + ["short"] * bool(short) * max(
        1, round(SHORT_SHARE * cost["again"] / max(cost["short"], 1e-3)))
    ops = {"again": again, "short": short}
    while cycle:
        for kind in cycle:
            if perf_counter() + cost[kind] > deadline:
                return
            pass_started = perf_counter()
            gc.collect()
            for i in ops[kind]:
                run_op(workload, calls, items, r, i, tally, executions)
            tally.passes += 1
            cost[kind] = max(cost[kind], perf_counter() - pass_started)


def run_rounds(workload, calls, first_items, first_round, budget_s):
    """The timed phase, which ends before budget_s.

    A workload whose operations can be repeated runs one round and repeats
    it; one whose repeats would find the library's caches warm
    (repeat_below_s None) runs whole rounds of fresh inputs instead, until
    the next one would end past budget_s (at least one).  Each operation's
    latency is the median of its repeat runs (its first run, if it ran
    once), each corrected for the machine's speed at the time
    (speed.Sampler.corrected).
    """
    tally = Tally()
    started = perf_counter()
    SAMPLER.start()
    try:
        if workload.repeat_below_s is not None:
            run_round(workload, calls, first_items, first_round, tally, deadline=started + budget_s)
        else:
            longest = 0.0
            r = first_round
            items = first_items
            while True:
                round_started = perf_counter()
                run_round(workload, calls, items, r, tally)
                longest = max(longest, perf_counter() - round_started)
                if perf_counter() - started + longest > budget_s:
                    break
                r += 1
                items = workload.round(r)
    finally:
        SAMPLER.stop()
    for executions in tally.executions:
        per_op = {}
        for i, start, end, busy in executions:
            per_op.setdefault(i, []).append(SAMPLER.corrected(busy, start, end))
        # the first, checked pass runs among the checks' work and is the
        # slower and less even: it counts only for operations run once
        latencies = [statistics.median(v[1:] or v) for v in per_op.values()]
        tally.latencies.extend(latencies)
        tally.round_walls.append(sum(latencies))
    tally.loop_s = statistics.median(SAMPLER.times)
    tally.samples = len(SAMPLER.times)
    return tally


def percentile(values, q):
    """Linear interpolation between closest ranks, q in [0, 1]."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    ap = argparse.ArgumentParser(description="frobtile benchmark")
    ap.add_argument("--workload", required=True, choices=("frobenius", "construct", "search", "decide"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    workload, calls, first, setup_s = set_up(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setups = [setup_s] + probe_setup(args.workload, args.seed)

    if not args.trace:
        tally = run_rounds(workload, calls, first, 0, args.seconds)
        print(f"{args.workload}: raw first-pass wall_s {statistics.median(tally.first_walls):.4f}, "
              f"{tally.samples} speed samples, median {1e6 * tally.loop_s:.2f} us", file=sys.stderr)
        metrics = {
            "wall_s": metric(statistics.median(tally.round_walls), "s"),
            "op_p50_ms": metric(percentile(tally.latencies, 0.5) * 1e3, "ms"),
            "op_p90_ms": metric(percentile(tally.latencies, 0.9) * 1e3, "ms"),
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        tallies = [tally]
    else:
        from tracing import layer_metrics

        plain = run_rounds(workload, calls, first, 0, args.seconds / 2)
        calls.tracing = True
        start_round = len(plain.round_walls)
        traced = run_rounds(workload, calls, workload.round(start_round), start_round, args.seconds / 2)
        rounds = len(traced.round_walls)
        values = layer_metrics(calls.spans, rounds)
        # first passes only: repeat passes record no spans
        untraced_wall = statistics.median(plain.first_walls)
        traced_wall = statistics.median(traced.first_walls)
        values["bench.self_s"] = (traced.glue_s / rounds, "s")
        values["bench.check_s"] = (traced.check_s / rounds, "s")
        values["trace.spans"] = (len(calls.spans) / rounds, "count")
        values["trace.untraced_wall_s"] = (untraced_wall, "s")
        values["trace.traced_wall_s"] = (traced_wall, "s")
        values["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
        values["bench.loop_us"] = (traced.loop_s * 1e6, "us")
        metrics = {k: metric(v, u) for k, (v, u) in values.items()}
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "rounds_untraced": len(plain.round_walls),
            "rounds_traced": rounds,
            "span_fields": ["layer", "function", "op", "start_s", "end_s", "notes"],
            "spans": calls.spans,
            "metrics": metrics,
        }) + "\n")
        tallies = [plain, traced]

    print(f"{args.workload}: " + ", ".join(
        f"{len(t.round_walls)} round(s) in {t.passes} pass(es)" for t in tallies), file=sys.stderr)
    for problem in [p for t in tallies for p in t.errors + t.wrong][:20]:
        print(problem, file=sys.stderr)
    print(json.dumps({
        "correct": not any(t.wrong for t in tallies),
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(len(t.errors) for t in tallies),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
