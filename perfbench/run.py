#!/usr/bin/env python3
"""Build and run the ReSiPE host-time benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Configures and builds the
simulator libraries plus the benchmark program (Release) under
.bench_build/ in the checkout, then runs one workload.  Build output goes
to stderr; the program's stdout passes through, so the last stdout line is
the result JSON.  Traced runs write their report and spans to
.bench_build/reports/.  The exit status is the program's (0 only when every
output was correct); a tree without the simulator sources is refused with
status 2 before anything is built.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cifar_vgg16", "mnist_events", "mnist_serve")

# Runtime switches the library reads from the environment; the benchmark
# measures the defaults, so none of them may leak in from the caller.
ENGINE_ENV = ("RESIPE_TELEMETRY", "RESIPE_PERF", "RESIPE_THREADS", "RESIPE_SIMD")


def build(build_dir: Path) -> Path:
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "resipe_perfbench",
         "-j", jobs],
        stdout=sys.stderr, check=True)
    return build_dir / "resipe_perfbench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    if not (ROOT / "src" / "resipe" / "network.cpp").is_file() or \
            not (ROOT / "CMakeLists.txt").is_file():
        print(f"error: {ROOT} holds no ReSiPE sources (src/, CMakeLists.txt); "
              "run the benchmark from a full checkout", file=sys.stderr)
        return 2

    build_dir = ROOT / ".bench_build" / "perfbench"
    try:
        binary = build(build_dir)
    except subprocess.CalledProcessError as e:
        print(f"error: build failed: {e}", file=sys.stderr)
        return 2

    reports = ROOT / ".bench_build" / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k not in ENGINE_ENV}
    proc = subprocess.run(
        [str(binary), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", args.trace,
         "--report-dir", str(reports)],
        env=env, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
