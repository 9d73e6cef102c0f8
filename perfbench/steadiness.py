#!/usr/bin/env python3
"""Run-to-run steadiness of the benchmark's end-to-end metrics.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
                                    [--workloads a,b] [--seconds S]
                                    [--determinism] [--out FILE]

Runs every workload (or the named ones) --runs times through run.py, each
time with the next seed, and prints per end-to-end metric the median, the
quartiles (statistics.quantiles(values, n=4)) and the spread
(Q3 - Q1) / median against the metric's bound in BENCHMARK.json.  A spread
at or above a third of its bound is marked; one at or above the bound
fails the check.

--determinism instead runs each workload twice on the same seed (untraced,
then traced twice for the simulated per-layer counts) and checks that the
simulated figures repeat exactly: virtual_latency_cycles, served_frac,
argmax_agree, and serve.batches / serve.probe_rounds / lower.cells.

Run from the root of a source checkout.  Exits 1 when a run fails, a
spread reaches its bound, or a simulated figure differs.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SIMULATED = ("virtual_latency_cycles", "served_frac", "argmax_agree")
SIMULATED_LAYER = ("serve.batches", "serve.probe_rounds", "lower.cells")


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "1" if trace else "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect output")
    return {k: v["value"] for k, v in result["metrics"].items()}


def steadiness(spec, workloads, runs, first_seed, seconds, out):
    ok = True
    report = {}
    for w in workloads:
        values = {}
        for i in range(runs):
            metrics = run(w, first_seed + i, seconds, trace=False)
            for k, v in metrics.items():
                values.setdefault(k, []).append(v)
            print(f"  {w} seed {first_seed + i}: " + ", ".join(
                f"{k}={metrics[k]:.6g}" for k in ("images_per_s", "batch_ms",
                                                   "setup_s")), flush=True)
        print(f"\n{w} ({runs} runs, seeds {first_seed}..{first_seed + runs - 1})")
        print(f"  {'metric':<16} {'median':>14} {'Q1':>14} {'Q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        report[w] = {}
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            v = values[name]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if spread >= bound / 3:
                flag = "  <-- over a third of the bound"
                ok = ok and spread < bound
            print(f"  {name:<16} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{spread:>8.2%} {bound:>6.2f}{flag}")
            report[w][name] = {"median": med, "q1": q1, "q3": q3,
                               "spread": spread, "bound": bound, "values": v}
    if out:
        Path(out).write_text(json.dumps(report, indent=1))
    return ok


def determinism(workloads, seed, seconds):
    ok = True
    for w in workloads:
        a = run(w, seed, seconds, trace=False)
        b = run(w, seed, seconds, trace=False)
        ta = run(w, seed, seconds, trace=True)
        tb = run(w, seed, seconds, trace=True)
        for name, x, y in [(n, a[n], b[n]) for n in SIMULATED] + \
                          [(n, ta[n], tb[n]) for n in SIMULATED_LAYER]:
            same = x == y
            ok = ok and same
            print(f"  {w:<13} seed {seed} {name:<20} {x!r:>22} {y!r:>22} "
                  f"{'same' if same else 'DIFFERENT'}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="run length (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--determinism", action="store_true")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w for w in args.workloads.split(",") if w] or \
        [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    try:
        if args.determinism:
            ok = determinism(workloads, args.first_seed, seconds)
        else:
            ok = steadiness(spec, workloads, args.runs, args.first_seed,
                            seconds, args.out)
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
