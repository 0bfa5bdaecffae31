"""Rerun workloads with several seeds and print each metric's median and quartiles.

    python3 perfbench/repeat.py [--workloads a,b] [--seeds 1-10] [--seconds S] [--trace 0|1]

Runs ``perfbench/run.py`` once per (workload, seed), one process at a time,
from the root of the checkout.  For every metric it prints the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread (Q3 - Q1) / median; for end-to-end metrics it also prints the bound
from BENCHMARK.json.  These spreads are what the bounds are set from.  All
results are saved to ``.perfbench_out/repeat-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]
            t0 = time.time()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"workload": workload, "seed": seed, "wall_s": time.time() - t0,
                         "result": result, "stderr": proc.stderr.strip().splitlines()[-3:]})
            print(f"{workload} seed {seed}: {time.time() - t0:.1f}s, correct={result['correct']}, "
                  f"failed {result['failed']}/{result['attempted']}", file=sys.stderr)
    print(f"{'workload':<12} {'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for workload in args.workloads.split(","):
        rows = [r["result"] for r in runs if r["workload"] == workload]
        shares = sorted({r["failed"] / r["attempted"] for r in rows})
        print(f"{workload}: correct in {sum(r['correct'] for r in rows)}/{len(rows)} runs, "
              f"failed share {shares}")
        for name in rows[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in rows]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            print(f"{workload:<12} {name:<28} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>7.3f} {'' if bound is None else bound:>6}")
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, time.strftime("repeat-%Y%m%d-%H%M%S.json"))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(runs, fh, indent=1)
    print(f"saved {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
