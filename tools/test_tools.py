#!/usr/bin/env python3
"""Unit tests for collect_bench.py and bench_diff.py (run in CI).

    python3 tools/test_tools.py -v
"""

import contextlib
import copy
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_diff
import check_coverage
import collect_bench
import trace_check


def report_line(name, figures=None, **extra):
    doc = {"bench": name, "wall_time_s": 1.0, "figures": figures or {}}
    doc.update(extra)
    return "BENCH_JSON " + json.dumps(doc)


class CollectBenchTest(unittest.TestCase):
    def test_parses_prefixed_lines(self):
        problems = []
        docs = list(collect_bench.reports_in(
            ["noise", report_line("a"), "more noise"], "log", problems))
        self.assertEqual([d["bench"] for d in docs], ["a"])
        self.assertEqual(problems, [])

    def test_malformed_lines_reported_not_dropped(self):
        problems = []
        lines = [
            "BENCH_JSON {broken json",
            'BENCH_JSON {"no_bench_key": 1}',
            report_line("good"),
        ]
        docs = list(collect_bench.reports_in(lines, "src.log", problems))
        self.assertEqual([d["bench"] for d in docs], ["good"])
        self.assertEqual(len(problems), 2)
        self.assertIn("src.log:1", problems[0])
        self.assertIn("unparseable", problems[0])
        self.assertIn("src.log:2", problems[1])
        self.assertIn("'bench' key", problems[1])

    def test_last_occurrence_wins(self):
        with tempfile.TemporaryDirectory() as tmp:
            log = os.path.join(tmp, "bench.log")
            out = os.path.join(tmp, "benchmarks.json")
            with open(log, "w", encoding="utf-8") as fh:
                fh.write(report_line("a", {"x": 1.0}) + "\n")
                fh.write(report_line("a", {"x": 2.0}) + "\n")
            rc = collect_bench.main([log, "-o", out])
            self.assertEqual(rc, 0)
            with open(out, encoding="utf-8") as fh:
                doc = json.load(fh)
            self.assertEqual(len(doc["benches"]), 1)
            self.assertEqual(doc["benches"][0]["figures"]["x"], 2.0)

    def test_strict_fails_on_malformed(self):
        with tempfile.TemporaryDirectory() as tmp:
            log = os.path.join(tmp, "bench.log")
            out = os.path.join(tmp, "benchmarks.json")
            with open(log, "w", encoding="utf-8") as fh:
                fh.write("BENCH_JSON {broken\n")
                fh.write(report_line("a") + "\n")
            stderr = io.StringIO()
            old = sys.stderr
            sys.stderr = stderr
            try:
                rc = collect_bench.main([log, "-o", out, "--strict"])
            finally:
                sys.stderr = old
            self.assertEqual(rc, 1)
            self.assertIn("malformed", stderr.getvalue())

    def test_history_entry_keys(self):
        with tempfile.TemporaryDirectory() as tmp:
            log = os.path.join(tmp, "bench.log")
            out = os.path.join(tmp, "benchmarks.json")
            hist = os.path.join(tmp, "history")
            with open(log, "w", encoding="utf-8") as fh:
                fh.write(report_line("a", {"x": 1.0},
                                     git_sha="abc123def456789") + "\n")
            rc = collect_bench.main([log, "-o", out, "--history", hist])
            self.assertEqual(rc, 0)
            entries = os.listdir(hist)
            self.assertEqual(len(entries), 1)
            # <unixtime>_<gitsha12>_<machinehash12>.json
            stem = entries[0][:-len(".json")]
            stamp, sha, machine = stem.split("_")
            self.assertTrue(stamp.isdigit())
            self.assertEqual(sha, "abc123def456")
            self.assertEqual(len(machine), 12)
            with open(os.path.join(hist, entries[0]),
                      encoding="utf-8") as fh:
                entry = json.load(fh)
            self.assertEqual(entry["git_sha"], "abc123def456789")
            self.assertEqual(
                entry["machine_hash"],
                collect_bench.fnv1a_hex(collect_bench.machine_fingerprint()))
            self.assertEqual(len(entry["benches"]), 1)

    def test_fnv1a_matches_cpp_constants(self):
        # Empty string hashes to the FNV offset basis; a known vector
        # pins the prime ("a" -> 0xaf63dc4c8601ec8c).
        self.assertEqual(collect_bench.fnv1a_hex(""), "cbf29ce484222325")
        self.assertEqual(collect_bench.fnv1a_hex("a"), "af63dc4c8601ec8c")


class BenchDiffTest(unittest.TestCase):
    def history(self, n=5, wall=10.0, gflops=2.0):
        rng = __import__("random").Random(99)
        out = []
        for i in range(n):
            out.append({
                "timestamp": 1000 + i,
                "machine_hash": "m",
                "benches": [{
                    "bench": "b",
                    "config_hash": "c",
                    "wall_time_s": wall * (1 + rng.uniform(-0.01, 0.01)),
                    "figures": {
                        "k_gflops": gflops * (1 + rng.uniform(-0.01, 0.01)),
                        "k_intensity": 0.5,
                    },
                }],
            })
        return out

    def test_direction_convention(self):
        self.assertEqual(bench_diff.direction("wall_time_s"), -1)
        self.assertEqual(bench_diff.direction("mvm_latency"), -1)
        self.assertEqual(bench_diff.direction("cache_misses"), -1)
        self.assertEqual(bench_diff.direction("engine_throughput_ops"), +1)
        self.assertEqual(bench_diff.direction("kernel_gflops"), +1)
        self.assertEqual(bench_diff.direction("test_accuracy"), +1)
        self.assertEqual(bench_diff.direction("k_intensity"), 0)
        self.assertEqual(bench_diff.direction("ridge_flop_per_byte"), 0)

    def test_slowdown_flagged_clean_passes(self):
        history = self.history()
        clean = copy.deepcopy(history[0])
        regressions, _, checked = bench_diff.diff(clean, history, 0.10, 3.0)
        self.assertEqual(regressions, [])
        self.assertTrue(checked)

        slow = copy.deepcopy(clean)
        slow["benches"][0]["wall_time_s"] *= 1.20
        regressions, _, _ = bench_diff.diff(slow, history, 0.10, 3.0)
        self.assertTrue(any("wall_time_s" in r for r in regressions))

    def test_rate_drop_flagged_and_gain_is_improvement(self):
        history = self.history()
        drop = copy.deepcopy(history[0])
        drop["benches"][0]["figures"]["k_gflops"] *= 0.8
        regressions, _, _ = bench_diff.diff(drop, history, 0.10, 3.0)
        self.assertTrue(any("k_gflops" in r for r in regressions))

        gain = copy.deepcopy(history[0])
        gain["benches"][0]["figures"]["k_gflops"] *= 1.5
        regressions, improvements, _ = bench_diff.diff(
            gain, history, 0.10, 3.0)
        self.assertEqual(regressions, [])
        self.assertTrue(any("k_gflops" in s for s in improvements))

    def test_noise_margin_widens_with_std(self):
        # History with 30% spread: a 20% excursion stays inside the
        # 3-sigma noise margin and must not be flagged.
        values = [10.0, 13.0, 7.0, 12.0, 8.0]
        history = []
        for i, v in enumerate(values):
            history.append({
                "timestamp": i,
                "machine_hash": "m",
                "benches": [{"bench": "b", "config_hash": "c",
                             "wall_time_s": v, "figures": {}}],
            })
        noisy = copy.deepcopy(history[0])
        noisy["benches"][0]["wall_time_s"] = 12.0
        regressions, _, _ = bench_diff.diff(noisy, history, 0.10, 3.0)
        self.assertEqual(regressions, [])

    def test_config_change_starts_fresh_baseline(self):
        history = self.history()
        other = copy.deepcopy(history[0])
        other["benches"][0]["config_hash"] = "different"
        other["benches"][0]["wall_time_s"] *= 5.0
        regressions, _, checked = bench_diff.diff(other, history, 0.10, 3.0)
        self.assertEqual(regressions, [])
        self.assertTrue(any("no matching history" in s for s in checked))

    def test_isa_change_refuses_comparison(self):
        # A candidate stamped with a different vector ISA must not be
        # gated against the old baselines (the numbers measure the
        # build, not a regression), and the skip must be reported.
        history = self.history()
        vectorized = copy.deepcopy(history[0])
        vectorized["benches"][0]["simd_isa"] = "avx512"
        vectorized["benches"][0]["wall_time_s"] *= 5.0
        regressions, _, checked = bench_diff.diff(
            vectorized, history, 0.10, 3.0)
        self.assertEqual(regressions, [])
        self.assertTrue(any("simd_isa" in s for s in checked))
        self.assertTrue(any("no matching history" in s for s in checked))

    def test_same_isa_still_compares(self):
        history = self.history()
        for entry in history:
            entry["benches"][0]["simd_isa"] = "avx2"
        slow = copy.deepcopy(history[0])
        slow["benches"][0]["wall_time_s"] *= 1.20
        regressions, _, _ = bench_diff.diff(slow, history, 0.10, 3.0)
        self.assertTrue(any("wall_time_s" in r for r in regressions))

    def test_window_is_per_bench(self):
        # Newer files of another bench must not push a bench's baseline
        # out of the --last window: the gate would compare nothing.
        history = self.history(n=2)
        for i in range(5):
            history.append({
                "timestamp": 2000 + i,
                "machine_hash": "m",
                "benches": [{"bench": "other", "config_hash": "c",
                             "wall_time_s": 1.0, "figures": {}}],
            })
        slow = copy.deepcopy(history[0])
        slow["benches"][0]["figures"]["k_gflops"] *= 0.5
        with tempfile.TemporaryDirectory() as tmp:
            store = os.path.join(tmp, "history")
            os.mkdir(store)
            for entry in history:
                name = f"{entry['timestamp']}_x_m.json"
                with open(os.path.join(store, name), "w",
                          encoding="utf-8") as fh:
                    json.dump(entry, fh)
            candidate = os.path.join(tmp, "candidate.json")
            with open(candidate, "w", encoding="utf-8") as fh:
                json.dump(slow, fh)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = bench_diff.main([candidate, "--history", store,
                                        "--last", "5",
                                        "--ignore-machine"])
        self.assertEqual(code, 1, out.getvalue())
        self.assertIn("SLOWER  b.k_gflops", out.getvalue())

    def test_self_test_entrypoint(self):
        self.assertEqual(bench_diff.self_test(), 0)


class TraceCheckTest(unittest.TestCase):
    """trace_check.py against hand-built NDJSON / Chrome documents."""

    @staticmethod
    def events_doc(events, summary):
        lines = [json.dumps({"schema": trace_check.SCHEMA,
                             "events": len(events),
                             "dropped": summary.get("dropped", 0)})]
        lines += [json.dumps(e) for e in events]
        lines.append(json.dumps({"summary": summary}))
        return "\n".join(lines) + "\n"

    @staticmethod
    def summary(**overrides):
        doc = {"submitted": 0, "served_ok": 0, "served_degraded": 0,
               "shed_queue_full": 0, "shed_deadline": 0,
               "shed_quarantine": 0, "late_completions": 0, "retries": 0,
               "batches": 0, "dropped": 0}
        doc.update(overrides)
        return doc

    @staticmethod
    def clean_chain(rid, tenant=0):
        return [
            {"t": 0.0, "kind": "admit", "request": rid, "tenant": tenant,
             "attempt": 0, "queue_depth": 1},
            {"t": 0.1, "kind": "dispatch", "request": rid,
             "tenant": tenant, "batch": rid, "chip": 0, "attempt": 0},
            {"t": 0.2, "kind": "attempt_done", "request": rid,
             "tenant": tenant, "batch": rid, "chip": 0, "attempt": 1},
            {"t": 0.2, "kind": "complete", "request": rid,
             "tenant": tenant, "chip": 0, "attempt": 1, "status": "ok"},
        ]

    def run_on(self, text):
        with tempfile.NamedTemporaryFile(
                "w", suffix=".ndjson", delete=False) as fh:
            fh.write(text)
            path = fh.name
        try:
            problems = []
            header, events, summary = trace_check.load_ndjson(
                path, problems)
            trace_check.check_counts(path, header, events, summary,
                                     problems)
            trace_check.check_conservation(path, events, summary,
                                           problems)
            return problems
        finally:
            os.unlink(path)

    def test_clean_trace_passes(self):
        events = (self.clean_chain(0) + self.clean_chain(1, tenant=1)
                  + [{"t": 0.05, "kind": "batch_form", "batch": 0,
                      "chip": 0, "attempt": 0, "fill": "full", "size": 1},
                     {"t": 0.05, "kind": "batch_form", "batch": 1,
                      "chip": 0, "attempt": 0, "fill": "full", "size": 1}])
        text = self.events_doc(events, self.summary(
            submitted=2, served_ok=2, batches=2))
        self.assertEqual(self.run_on(text), [])

    def test_missing_terminal_reported(self):
        events = self.clean_chain(0)[:-1]  # drop the complete
        text = self.events_doc(events, self.summary(submitted=1))
        problems = self.run_on(text)
        self.assertTrue(any("terminal" in p for p in problems))

    def test_double_terminal_reported(self):
        events = self.clean_chain(0) + [self.clean_chain(0)[-1]]
        text = self.events_doc(events, self.summary(
            submitted=1, served_ok=1))
        problems = self.run_on(text)
        self.assertTrue(any("terminal" in p for p in problems))

    def test_count_mismatch_reported(self):
        text = self.events_doc(self.clean_chain(0), self.summary(
            submitted=1, served_ok=0, shed_deadline=1))
        problems = self.run_on(text)
        self.assertTrue(any("served_ok" in p for p in problems))

    def test_dropped_events_fail_loudly(self):
        text = self.events_doc(self.clean_chain(0), self.summary(
            submitted=1, served_ok=1, dropped=3))
        problems = self.run_on(text)
        self.assertTrue(any("dropped" in p for p in problems))

    def test_late_completion_bucketing(self):
        # A deadline shed with attempts consumed is a late completion,
        # not a fresh deadline shed — mirror of summarize().
        events = self.clean_chain(0)
        events[-1] = {"t": 0.2, "kind": "shed", "request": 0,
                      "tenant": 0, "attempt": 1,
                      "reason": "deadline_expired"}
        text = self.events_doc(events, self.summary(
            submitted=1, late_completions=1))
        self.assertEqual(self.run_on(text), [])

    def test_chrome_flow_balance(self):
        doc = {"traceEvents": [
            {"name": "thread_name", "ph": "M", "pid": 2, "tid": 1,
             "args": {"name": "serve: scheduler queue"}},
            {"name": "serve.request", "ph": "s", "id": 7, "ts": 0.0,
             "pid": 2, "tid": 1},
        ]}
        with tempfile.NamedTemporaryFile(
                "w", suffix=".json", delete=False) as fh:
            json.dump(doc, fh)
            path = fh.name
        try:
            problems = []
            trace_check.check_chrome(path, problems)
            self.assertTrue(any("flow 7" in p for p in problems))
            doc["traceEvents"].append(
                {"name": "serve.request", "ph": "f", "id": 7, "ts": 1.0,
                 "pid": 2, "tid": 1, "bp": "e"})
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            problems = []
            trace_check.check_chrome(path, problems)
            self.assertEqual(problems, [])
        finally:
            os.unlink(path)

    def test_unnamed_lane_reported(self):
        doc = {"traceEvents": [
            {"name": "serve.shed", "ph": "i", "ts": 0.0, "pid": 2,
             "tid": 9}]}
        with tempfile.NamedTemporaryFile(
                "w", suffix=".json", delete=False) as fh:
            json.dump(doc, fh)
            path = fh.name
        try:
            problems = []
            trace_check.check_chrome(path, problems)
            self.assertTrue(any("thread_name" in p for p in problems))
        finally:
            os.unlink(path)

    def test_main_exit_codes(self):
        events = self.clean_chain(0)
        text = self.events_doc(events, self.summary(
            submitted=1, served_ok=1))
        with tempfile.NamedTemporaryFile(
                "w", suffix=".ndjson", delete=False) as fh:
            fh.write(text)
            path = fh.name
        try:
            self.assertEqual(trace_check.main(["--events", path]), 0)
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(
                    {"t": 9.9, "kind": "admit", "request": 0,
                     "tenant": 0, "attempt": 0}) + "\n")
            self.assertEqual(trace_check.main(["--events", path]), 1)
        finally:
            os.unlink(path)


class CheckCoverageTest(unittest.TestCase):
    INFO = "\n".join([
        "TN:",
        "SF:/repo/src/resipe/events/event_queue.cpp",
        "DA:10,5",
        "DA:11,0",
        "DA:12,3",
        "DA:13,1",
        "end_of_record",
        "SF:/repo/src/resipe/events/executor.cpp",
        "DA:20,2",
        "DA:21,2",
        "end_of_record",
        "SF:/repo/src/resipe/network.cpp",
        "DA:5,0",
        "DA:6,0",
        "end_of_record",
        "",
    ])

    def info_file(self, text=None):
        fh = tempfile.NamedTemporaryFile("w", suffix=".info", delete=False)
        fh.write(self.INFO if text is None else text)
        fh.close()
        self.addCleanup(os.unlink, fh.name)
        return fh.name

    def test_parse_lcov_records(self):
        records = list(check_coverage.parse_lcov(self.INFO.splitlines()))
        self.assertEqual(len(records), 3)
        path, hits = records[0]
        self.assertEqual(path, "/repo/src/resipe/events/event_queue.cpp")
        self.assertEqual(hits, {10: 5, 11: 0, 12: 3, 13: 1})

    def test_duplicate_da_lines_summed(self):
        text = ("SF:a.cpp\nDA:1,0\nDA:1,2\nend_of_record\n")
        records = list(check_coverage.parse_lcov(text.splitlines()))
        self.assertEqual(records, [("a.cpp", {1: 2})])

    def test_selection_aggregates_only_matching_files(self):
        records = list(check_coverage.parse_lcov(self.INFO.splitlines()))
        covered, instrumented, per_file = check_coverage.coverage_of(
            records, "src/resipe/events/")
        self.assertEqual((covered, instrumented), (5, 6))
        self.assertEqual(len(per_file), 2)

    def test_floor_pass_and_fail_exit_codes(self):
        path = self.info_file()
        # events/ selection sits at 5/6 = 83.3%.
        self.assertEqual(check_coverage.main(
            [path, "--path", "src/resipe/events/", "--min-line", "80"]), 0)
        self.assertEqual(check_coverage.main(
            [path, "--path", "src/resipe/events/", "--min-line", "90"]), 1)

    def test_empty_selection_fails(self):
        path = self.info_file()
        self.assertEqual(check_coverage.main(
            [path, "--path", "src/renamed/", "--min-line", "1"]), 1)

    def test_malformed_da_entry_is_an_error(self):
        path = self.info_file("SF:a.cpp\nDA:not_a_line\nend_of_record\n")
        self.assertEqual(check_coverage.main(
            [path, "--path", "a.cpp", "--min-line", "1"]), 2)


if __name__ == "__main__":
    unittest.main()
