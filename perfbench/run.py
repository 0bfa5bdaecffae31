"""omegarb benchmark: one workload per process, closed loop, single thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; omegarb is imported from ``src/`` there.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Untraced (``--trace 0``): set-up (inputs from the seed and any cache
warm-up) runs SETUP_REPEATS times; ``setup_s`` is the process's age when
imports start, plus import time, plus the median set-up.  The workload's
fixed cycle of operations then repeats, whole cycles only, until
``--seconds`` have passed (at least MIN_CYCLES times).  Each operation is
timed on its own; its latency is the median over the cycles, so every
operation is sampled across the whole run.  ``op_p50_ms`` and ``op_p90_ms``
are quantiles of those medians and ``ops_per_s`` is the operations the
cycle completed over the sum of all its medians.  Outputs are checked
between operations, outside the timed calls.

All times are scaled by REFERENCE_NS over the time of a fixed reference
task measured alongside (see ``run_cycle``), which cancels the drift of the
host's CPU speed; the unscaled wall-clock figures go to stderr.

Traced (``--trace 1``): ``--seconds`` is ignored and the work is fixed, so
that counts repeat exactly: one set-up and TRACED_CYCLES cycles under the
timing wrappers of ``tracing.py``, alternating with as many untraced cycles
to measure the tracing overhead.  Spans are written to
``.perfbench_out/trace-<workload>-<seed>.csv``.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import sys
from array import array
from fractions import Fraction
from time import perf_counter, perf_counter_ns

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 3
MIN_CYCLES = 3
TRACED_CYCLES = 2
# op times are scaled to a reference task taking this long (see run_cycle)
REFERENCE_NS = 125_000
CALIBRATE_NS = 20_000_000
UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "setup_s": "s",
         "peak_rss_mb": "MB"}


def process_age() -> float:
    """Seconds since this process started (Linux /proc, 10 ms resolution)."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    with open("/proc/uptime", encoding="ascii") as fh:
        uptime = float(fh.read().split()[0])
    return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))


def reference_task():
    """Fixed work of the kind the operations do: Fraction sums into a dict."""
    acc = {}
    for i in range(40):
        acc[i % 7] = acc.get(i % 7, 0) + Fraction(i, 3)
    return acc


def reference_ns():
    """Median wall time of three reference tasks, with the cyclic GC paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(3):
            t0 = perf_counter_ns()
            reference_task()
            times.append(perf_counter_ns() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def run_cycle(wl, state, first, tracer=None):
    """One pass over the cycle; appends each op's latency to state.

    ``raw`` gets wall nanoseconds.  ``lat`` gets them scaled by
    REFERENCE_NS / (reference task time), the reference task being timed
    before and after every window of about CALIBRATE_NS.  With a tracer,
    tracing is paused while outputs are checked."""
    last = len(wl.cycle) - 1
    pending = []
    ref = reference_ns()
    window_end = perf_counter_ns() + CALIBRATE_NS
    for k, op in enumerate(wl.cycle):
        if tracer is not None:
            tracer.paused = False
        t0 = perf_counter_ns()
        try:
            out = wl.run(op)
            exc = None
        except Exception as err:  # a failing op is counted, the run goes on
            out, exc = None, err
        dt = perf_counter_ns() - t0
        if tracer is not None:
            tracer.paused = True
        state["raw"][k].append(dt)
        pending.append((k, dt))
        weight = wl.weight(op)
        state["attempted"] += weight
        if exc is not None:
            verdict = f"raised {exc!r}"
        else:
            obs = wl.observe(op, out)
            if first:
                state["ref"][k] = obs
                state["verdict"][k] = wl.check(op, obs)
            verdict = state["verdict"][k] if obs == state["ref"][k] else "output changed"
        if verdict:
            state["failed"] += weight
            state["failed_ops"][k] = True
            if exc is None and not wl.expected_fault(op):
                state["correct"] = False
            if verdict not in state["errors"]:
                state["errors"].append(verdict)
        if k == last or perf_counter_ns() >= window_end:
            new_ref = reference_ns()
            scale = 2 * REFERENCE_NS / (ref + new_ref)
            for j, d in pending:
                state["lat"][j].append(d * scale)
            pending.clear()
            ref = new_ref
            window_end = perf_counter_ns() + CALIBRATE_NS


def new_state(wl):
    n = len(wl.cycle)
    return {
        # per-op latencies, kept compact so they add little to peak_rss_mb
        "lat": [array("d") for _ in range(n)], "raw": [array("d") for _ in range(n)],
        "ref": [None] * n, "verdict": [None] * n, "failed_ops": [False] * n,
        "attempted": 0, "failed": 0, "correct": True, "errors": [], "cycles": 0,
    }


def measure(wl, seconds, min_cycles=MIN_CYCLES):
    """Repeat whole cycles for ``seconds`` (at least min_cycles times)."""
    state = new_state(wl)
    deadline = perf_counter() + seconds
    while state["cycles"] < min_cycles or perf_counter() < deadline:
        run_cycle(wl, state, state["cycles"] == 0)
        state["cycles"] += 1
    return state


def summarize(wl, state, key="lat"):
    med = [statistics.median(lat) / 1e9 for lat in state[key]]
    done = 0
    singles = []
    for k, op in enumerate(wl.cycle):
        if state["failed_ops"][k]:
            continue
        done += wl.weight(op)
        # an entry that stands for several ops has no per-op latency
        if wl.weight(op) == 1:
            singles.append(med[k] * 1e3)
    deciles = statistics.quantiles(singles, n=10, method="inclusive")
    return {
        "ops_per_s": done / sum(med),
        "op_p50_ms": deciles[4],
        "op_p90_ms": deciles[8],
    }


def finish(wl, state):
    errors = state["errors"] + wl.final_checks()
    correct = state["correct"] and len(errors) == len(state["errors"])
    for err in errors[:10]:
        print(f"{wl.name}: {err}", file=sys.stderr)
    return correct


def timed_run(cls, seed, seconds, age, import_s):
    # set-up times are scaled like op times, by reference tasks around them
    ref = reference_ns()
    startup = (age + import_s) * REFERENCE_NS / ref
    setups = []
    for i in range(SETUP_REPEATS):
        if i:
            wl.close()
            del wl
        t0 = perf_counter()
        wl = cls(seed)
        wl.warm()
        elapsed = perf_counter() - t0
        new_ref = reference_ns()
        setups.append(elapsed * 2 * REFERENCE_NS / (ref + new_ref))
        ref = new_ref
    try:
        state = measure(wl, seconds)
        figures = summarize(wl, state)
        correct = finish(wl, state)
    finally:
        wl.close()
    figures["setup_s"] = startup + statistics.median(setups)
    figures["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw = summarize(wl, state, "raw")
    print(
        f"{wl.name}: seed {seed}, {state['cycles']} cycles of {len(wl.cycle)} entries, "
        f"{state['attempted']} ops, {state['failed']} failed; unscaled wall figures: "
        + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()),
        file=sys.stderr,
    )
    return {
        "correct": correct,
        "attempted": state["attempted"],
        "failed": state["failed"],
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in figures.items()},
    }


def traced_run(cls, seed, small=False):
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        wl = cls(seed, small=small)
        wl.warm()
    finally:
        tracer.uninstall()
    state = new_state(wl)
    plain_ns = traced_ns = 0
    try:
        for i in range(2 * TRACED_CYCLES):
            traced = i % 2 == 1
            if traced:
                tracer.install()
            before = sum(sum(lat) for lat in state["lat"])
            try:
                run_cycle(wl, state, i == 0, tracer if traced else None)
            finally:
                tracer.uninstall()
            spent = sum(sum(lat) for lat in state["lat"]) - before
            if traced:
                traced_ns += spent
            else:
                plain_ns += spent
            state["cycles"] += 1
        correct = finish(wl, state)
    finally:
        wl.close()
    metrics = tracer.metrics()
    metrics["trace.overhead_share"] = {"value": traced_ns / plain_ns - 1, "unit": "share"}
    metrics["trace.spans"] = {"value": len(tracer.row_name), "unit": "count"}
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write_spans(os.path.join(OUT_DIR, f"trace-{cls.name}-{seed}.csv"))
    return {
        "correct": correct,
        "attempted": state["attempted"],
        "failed": state["failed"],
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "omegarb", "__init__.py")):
        print(f"no omegarb sources under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2
    t0 = perf_counter()
    age = process_age()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    import_s = perf_counter() - t0
    if args.workload not in workloads.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}"
        )
    cls = workloads.WORKLOADS[args.workload]
    if args.trace:
        result = traced_run(cls, args.seed)
    else:
        result = timed_run(cls, args.seed, args.seconds, age, import_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
