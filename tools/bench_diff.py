#!/usr/bin/env python3
"""Noise-aware bench regression gate over the append-only history store.

Compares each bench of a candidate ``benchmarks.json`` (from
tools/collect_bench.py) against the newest N matching entries of that
bench in a ``--history`` directory (written by
``collect_bench.py --history``):

    python3 tools/bench_diff.py benchmarks.json --history bench/history

For every (bench, figure) pair with a known better-direction the tool
computes the history mean and standard deviation and flags a regression
when the candidate is worse than the mean by more than

    max(threshold * |mean|, noise_mult * std)

so noisy metrics need a larger excursion than quiet ones before they
fail the gate.  Directions come from the figure-naming convention:
time/latency/energy/area/misses suffixes are lower-is-better;
throughput/ops/gflops/gbs/accuracy are higher-is-better; anything else
(identities like arithmetic intensity, hashes, counts) is reported but
never gated.

History entries are matched on machine fingerprint hash (use
``--ignore-machine`` on shared/heterogeneous CI runners), per-bench
``config_hash`` and per-bench ``simd_isa`` (the vector ISA stamp from
bench_report.hpp), so a config change or an ISA change starts a fresh
baseline instead of producing bogus diffs.  Entries recorded under a
different (or unknown) ISA are never compared — a scalar-build run
cannot regress against an AVX-512 baseline or vice versa; such skips
are reported so a silently empty comparison is visible.

``--self-test`` builds a seeded synthetic history, asserts an injected
20% slowdown is flagged and that re-running the unperturbed candidate
passes, then exits.
"""

import argparse
import copy
import json
import math
import os
import random
import sys
import tempfile

from collect_bench import fnv1a_hex, machine_fingerprint

LOWER_BETTER_SUFFIXES = (
    "_s", "_ns", "_us", "_ms", "_seconds", "time", "latency",
    "_area_m2", "area", "energy", "_j", "misses", "miss_rate",
)
HIGHER_BETTER_SUFFIXES = (
    "ops", "throughput", "gflops", "gbs", "accuracy", "bandwidth",
    "yield",
)


def direction(key):
    """+1 higher-is-better, -1 lower-is-better, 0 not gated."""
    key = key.lower()
    # Lower-better wins ties like 'wall_time_s' (time before the _s
    # suffix is redundant, but both point the same way).
    for suffix in LOWER_BETTER_SUFFIXES:
        if key.endswith(suffix):
            return -1
    for suffix in HIGHER_BETTER_SUFFIXES:
        if key.endswith(suffix):
            return +1
    return 0


def load_history(history_dir, machine_hash, ignore_machine):
    """Newest-first machine-matching history entries, all of them: the
    window is taken per bench in diff(), so newer files of other benches
    cannot push a bench's baseline out of it."""
    try:
        names = sorted(os.listdir(history_dir), reverse=True)
    except OSError as err:
        print(f"bench_diff: cannot read history: {err}", file=sys.stderr)
        return []
    entries = []
    for name in names:
        if not name.endswith(".json"):
            continue
        path = os.path.join(history_dir, name)
        try:
            with open(path, encoding="utf-8") as fh:
                entry = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            print(f"bench_diff: skipping unreadable entry {path}: {err}",
                  file=sys.stderr)
            continue
        if not ignore_machine and entry.get("machine_hash") != machine_hash:
            continue
        entries.append(entry)
    return entries


def figures_of(bench_doc):
    """All numeric metrics of one bench report, flattened."""
    out = {}
    wall = bench_doc.get("wall_time_s")
    if isinstance(wall, (int, float)):
        out["wall_time_s"] = float(wall)
    for key, value in bench_doc.get("figures", {}).items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            out[key] = float(value)
    return out


def diff(candidate, history, threshold, noise_mult, match_config=True,
         last_n=5):
    """Returns (regressions, improvements, checked) lists of strings.
    `history` is newest first; each bench compares against its newest
    `last_n` matching entries."""
    regressions, improvements, checked = [], [], []
    by_name = {}
    for entry in history:
        for bench in entry.get("benches", []):
            by_name.setdefault(bench.get("bench"), []).append(bench)

    for bench in candidate.get("benches", []):
        name = bench.get("bench")
        config = bench.get("config_hash")
        isa = bench.get("simd_isa")
        pool = [
            b for b in by_name.get(name, [])
            if not match_config or b.get("config_hash") in (None, config)
        ]
        # Refuse to compare across vector ISAs: a scalar-build candidate
        # vs an AVX-512 baseline (or the reverse) measures the compiler
        # flags, not a regression.  Unknown (pre-stamp) history counts
        # as a different ISA.
        prior = [b for b in pool if b.get("simd_isa") == isa]
        skipped_isa = len(pool) - len(prior)
        if skipped_isa:
            checked.append(
                f"{name}: skipped {skipped_isa} history entr"
                f"{'y' if skipped_isa == 1 else 'ies'} with different or "
                f"unknown simd_isa (candidate: {isa})")
        if not prior:
            checked.append(f"{name}: no matching history (new baseline)")
            continue
        prior = prior[:last_n]
        cand_figures = figures_of(bench)
        for key, value in sorted(cand_figures.items()):
            sign = direction(key)
            if sign == 0:
                continue
            values = [
                f[key] for f in (figures_of(b) for b in prior) if key in f
            ]
            if not values:
                continue
            mean = sum(values) / len(values)
            var = sum((v - mean) ** 2 for v in values) / len(values)
            std = math.sqrt(var)
            margin = max(threshold * abs(mean), noise_mult * std)
            # Positive delta = worse, regardless of direction.
            worse_by = (mean - value) if sign > 0 else (value - mean)
            label = (f"{name}.{key}: {value:.6g} vs mean {mean:.6g} "
                     f"(n={len(values)}, std {std:.3g}, "
                     f"margin {margin:.3g})")
            if worse_by > margin:
                regressions.append(label)
            elif -worse_by > margin:
                improvements.append(label)
            else:
                checked.append(label)
    return regressions, improvements, checked


def run_diff(args):
    try:
        with open(args.candidate, encoding="utf-8") as fh:
            candidate = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        print(f"bench_diff: cannot read candidate: {err}", file=sys.stderr)
        return 2
    machine_hash = fnv1a_hex(machine_fingerprint())
    history = load_history(args.history, machine_hash, args.ignore_machine)
    if not history:
        print("bench_diff: no usable history entries — nothing to gate "
              "(treating as pass; seed the store with "
              "collect_bench.py --history)")
        return 0
    regressions, improvements, checked = diff(
        candidate, history, args.threshold, args.noise_mult,
        last_n=args.last)
    for line in checked:
        if args.verbose:
            print(f"  ok      {line}")
    for line in improvements:
        print(f"  faster  {line}")
    for line in regressions:
        print(f"  SLOWER  {line}")
    print(f"bench_diff: {len(regressions)} regression(s), "
          f"{len(improvements)} improvement(s), "
          f"{len(checked)} unchanged/uncompared vs the last {args.last} "
          f"entries per bench ({len(history)} history "
          f"file{'' if len(history) == 1 else 's'})")
    if regressions and args.warn_only:
        print("bench_diff: --warn-only set, not failing the gate")
        return 0
    return 1 if regressions else 0


def self_test():
    """Seeded end-to-end check of the detector itself: an injected 20%
    slowdown must be flagged, an unperturbed re-run must pass."""
    rng = random.Random(0x5EED)

    def entry(stamp):
        return {
            "timestamp": stamp,
            "machine_hash": "feedfacefeedface",
            "benches": [{
                "bench": "roofline",
                "config_hash": "cafecafecafecafe",
                "simd_isa": "avx2",
                "wall_time_s": 10.0 * (1.0 + rng.uniform(-0.02, 0.02)),
                "figures": {
                    "fast_mvm_gflops":
                        2.0 * (1.0 + rng.uniform(-0.02, 0.02)),
                    "fast_mvm_intensity": 0.13,  # directionless: ignored
                },
            }],
        }

    history = [entry(1000 + i) for i in range(5)]
    clean = copy.deepcopy(history[0])
    slow = copy.deepcopy(clean)
    slow["benches"][0]["wall_time_s"] *= 1.20
    slow["benches"][0]["figures"]["fast_mvm_gflops"] /= 1.20

    with tempfile.TemporaryDirectory() as tmp:
        for i, e in enumerate(history):
            with open(os.path.join(tmp, f"{e['timestamp']}_x_{i}.json"),
                      "w", encoding="utf-8") as fh:
                json.dump(e, fh)

        regressions, _, _ = diff(slow, history, 0.10, 3.0)
        assert any("wall_time_s" in r for r in regressions), \
            "20% wall-time slowdown not flagged"
        assert any("fast_mvm_gflops" in r for r in regressions), \
            "20% rate drop not flagged"
        assert not any("intensity" in r for r in regressions), \
            "directionless metric wrongly gated"

        regressions, _, checked = diff(clean, history, 0.10, 3.0)
        assert not regressions, \
            f"clean re-run flagged as regression: {regressions}"
        assert checked, "clean re-run compared nothing"

        # The same 20% slowdown recorded under a different vector ISA
        # must not gate — those baselines are not comparable — and the
        # skip must be reported rather than silent.
        cross_isa = copy.deepcopy(slow)
        cross_isa["benches"][0]["simd_isa"] = "avx512"
        regressions, _, checked = diff(cross_isa, history, 0.10, 3.0)
        assert not regressions, \
            f"cross-ISA candidate wrongly gated: {regressions}"
        assert any("simd_isa" in line for line in checked), \
            "cross-ISA skip not reported"
    print("bench_diff: self-test passed "
          "(injected 20% slowdown flagged, clean run passes, "
          "cross-ISA history skipped)")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="noise-aware bench regression gate")
    parser.add_argument("candidate", nargs="?", default="benchmarks.json",
                        help="candidate benchmarks.json "
                             "(default: benchmarks.json)")
    parser.add_argument("--history", default="bench/history",
                        help="history directory "
                             "(default: bench/history)")
    parser.add_argument("--last", type=int, default=5,
                        help="compare each bench against its last N "
                             "matching entries (default: 5)")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="relative regression threshold "
                             "(default: 0.10)")
    parser.add_argument("--noise-mult", type=float, default=3.0,
                        help="std-deviation multiplier of the noise "
                             "margin (default: 3.0)")
    parser.add_argument("--warn-only", action="store_true",
                        help="report regressions but exit 0 (shared "
                             "runners)")
    parser.add_argument("--ignore-machine", action="store_true",
                        help="compare across machine fingerprints "
                             "(CI runners vs committed baselines)")
    parser.add_argument("--verbose", action="store_true",
                        help="also print unchanged metrics")
    parser.add_argument("--self-test", action="store_true",
                        help="run the seeded detector self-test and exit")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    return run_diff(args)


if __name__ == "__main__":
    sys.exit(main())
