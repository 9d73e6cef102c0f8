#!/usr/bin/env python3
"""Regression tests for the argument hardening of every binary.

Every binary reads argv through one strict reader
(include/resipe/common/flags.hpp).  Unknown commands, unknown options,
repeated flags, flags missing their value and numeric flags whose whole
value does not parse as the flag's type must all fail fast with a usage
message and exit code 2 — never fall through to a default or coerced
run — and an output file that cannot be written must fail the run,
naming the path.  Run as:

    test_cli.py /path/to/resipe_cli [--telemetry ON|OFF] [--fuzz BIN]
        [--serve BIN] [--bench-serving BIN] [--bench-table1 BIN]
        [--bench-fig5 BIN] [--bench-fig7 BIN]

--telemetry names the build's RESIPE_TELEMETRY switch (default ON): in
an OFF build `resipe_cli profile` must refuse to run.  The checks of a
binary whose path is not given are skipped.
"""
import argparse
import os
import subprocess
import sys
import tempfile


def run(cli, *args, cwd=None, timeout=300):
    try:
        return subprocess.run(
            [cli, *args], capture_output=True, text=True, timeout=timeout,
            cwd=cwd
        )
    except subprocess.TimeoutExpired:
        return subprocess.CompletedProcess([cli, *args], None, "",
                                           f"timed out after {timeout} s")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("cli")
    parser.add_argument("--telemetry", choices=("ON", "OFF"), default="ON")
    for name in ("fuzz", "serve", "bench-serving", "bench-table1",
                 "bench-fig5", "bench-fig7"):
        parser.add_argument("--" + name)
    bins = parser.parse_args()
    telemetry = bins.telemetry == "ON"
    del bins.telemetry
    # Absolute paths: the other binaries run inside a temporary directory.
    for name, path in vars(bins).items():
        if path is not None:
            setattr(bins, name, os.path.abspath(path))
    cli = bins.cli
    failures = []

    def check(name, ok):
        print(("PASS" if ok else "FAIL") + f"  {name}")
        if not ok:
            failures.append(name)

    # Unknown command (a typo of 'compare').
    r = run(cli, "comapre")
    check(
        "unknown command exits 2",
        r.returncode == 2
        and "unknown command 'comapre'" in r.stderr
        and "usage:" in r.stderr,
    )

    # No command at all.
    r = run(cli)
    check("missing command exits 2", r.returncode == 2 and "usage:" in r.stderr)

    # Unknown option for a known command.
    r = run(cli, "yield", "--bogus", "3")
    check(
        "unknown option exits 2",
        r.returncode == 2
        and "unknown option '--bogus' for command 'yield'" in r.stderr
        and "usage:" in r.stderr,
    )

    # Option from a *different* command is still unknown here.
    r = run(cli, "yield", "--rows", "4")
    check(
        "foreign option exits 2",
        r.returncode == 2 and "unknown option '--rows'" in r.stderr,
    )

    # Flag at end of line with no value.
    r = run(cli, "yield", "--bound")
    check(
        "missing value exits 2",
        r.returncode == 2 and "missing value for '--bound'" in r.stderr,
    )

    # Global flag missing its value.
    r = run(cli, "yield", "--threads")
    check(
        "global flag missing value exits 2",
        r.returncode == 2 and "missing value" in r.stderr,
    )

    # Numeric flag values must be whole numbers of the flag's type: a
    # trailing byte, a sign on an unsigned flag or a non-number names
    # the flag and the token instead of running with a coerced value.
    for args, flag, token in [
        (("mvm", "--rows", "8", "--cols", "4", "--sigma", "abc"),
         "--sigma", "abc"),
        (("--threads", "2x", "compare"), "--threads", "2x"),
        (("mvm", "--rows", "8x", "--cols", "4"), "--rows", "8x"),
        (("mvm", "--rows", "8", "--cols", "4", "--seed", "-5"),
         "--seed", "-5"),
        (("mvm", "--rows", "-3", "--cols", "4"), "--rows", "-3"),
        (("characterize", "--rows", "abc"), "--rows", "abc"),
        (("reliability", "--rates", "0.1,abc"), "--rates", "abc"),
        (("yield", "--bound", "nan"), "--bound", "nan"),
    ]:
        r = run(cli, *args)
        check(
            f"bad value {token!r} for {flag} exits 2",
            r.returncode == 2
            and f"bad value '{token}' for '{flag}'" in r.stderr
            and "usage:" in r.stderr,
        )

    # Well-formed numeric flags still parse.
    r = run(cli, "mvm", "--rows", "8", "--cols", "4", "--sigma", "0.05",
            "--seed", "5")
    check("numeric flags parse", r.returncode == 0 and "bitline" in r.stdout)

    # A well-formed invocation still works (cheap command).
    r = run(cli, "yield", "--bound", "0.02")
    check("valid invocation exits 0", r.returncode == 0 and r.stdout != "")

    # Valid global flag placement still works.
    r = run(cli, "--threads", "1", "yield", "--bound", "0.02")
    check("global flag before command exits 0", r.returncode == 0)

    check_other_binaries(bins, check, telemetry)

    if failures:
        print(f"{len(failures)} failure(s): {failures}", file=sys.stderr)
        return 1
    print("all CLI hardening checks passed")
    return 0


def check_other_binaries(bins, check, telemetry):
    """resipe_fuzz, resipe_serve and the benches share resipe_cli's rules."""
    # Each malformed line must exit 2, naming the flag and the offending
    # token, before it does any work.
    negatives = [
        (bins.fuzz, ("--cases", "abc"), "--cases", "abc"),
        (bins.fuzz, ("--cases", "3x"), "--cases", "3x"),
        (bins.fuzz, ("--cases", "-1"), "--cases", "-1"),
        (bins.fuzz, ("--budget-s", "nan"), "--budget-s", "nan"),
        (bins.fuzz, ("--budget-s", "inf"), "--budget-s", "inf"),
        (bins.fuzz, ("--cases", "0"), "--cases", "0"),
        (bins.fuzz, ("--budget-s", "-1"), "--budget-s", "-1"),
        (bins.fuzz, ("--cases", "1", "--cases", "3"), "--cases", "3"),
        (bins.serve, ("--chips", "2x"), "--chips", "2x"),
        (bins.serve, ("--seed", "abc"), "--seed", "abc"),
        (bins.serve, ("--rat", "4000"), "--rat", "--rat"),
        (bins.bench_serving, ("--quik",), "--quik", "--quik"),
        (bins.bench_serving, ("--duration", "abc"), "--duration", "abc"),
        (bins.bench_table1, ("--jsn", "out.json"), "--jsn", "--jsn"),
        (bins.bench_fig7, ("--quik",), "--quik", "--quik"),
        (bins.bench_fig5, ("out.csv",), "out.csv", "out.csv"),
        (bins.cli, ("mvm", "--rows", "8", "--rows", "4", "--cols", "2"),
         "--rows", "4"),
        # --net names come from one table; each command takes the subset
        # its usage line lists.
        (bins.cli, ("chip", "--net", "vgg"), "--net", "vgg"),
        (bins.cli, ("reliability", "--net", "cnn5"), "--net", "cnn5"),
        (bins.cli, ("inspect", "--net", "cnn3"), "--net", "cnn3"),
        (bins.cli, ("profile", "--net", "cnn2"), "--net", "cnn2"),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        for binary, args, flag, token in negatives:
            if binary is None:
                print(f"SKIP  {' '.join(args)} (binary not given)")
                continue
            name = os.path.basename(binary)
            # A refused line exits at once; a long run means it was not.
            r = run(binary, *args, cwd=tmp, timeout=30)
            check(
                f"{name} {' '.join(args)} exits 2 naming {flag} and {token}",
                r.returncode == 2
                and f"'{flag}'" in r.stderr
                and f"'{token}'" in r.stderr
                and "usage:" in r.stderr
                and r.stdout == "",
            )

        if bins.fuzz:
            r = run(bins.fuzz, "--cases", "2", cwd=tmp)
            check("resipe_fuzz --cases 2 exits 0",
                  r.returncode == 0 and "BENCH_JSON" in r.stdout)
            r = run(bins.fuzz, "--cases", "2", "--budget-s", "0", cwd=tmp)
            check("resipe_fuzz --budget-s 0 (off) exits 0",
                  r.returncode == 0 and "BENCH_JSON" in r.stdout)
        r = run(bins.cli, "chip", "--net", "cnn3", cwd=tmp)
        check("resipe_cli chip --net cnn3 exits 0",
              r.returncode == 0 and "CNN-3" in r.stdout)
        if bins.serve:
            # The default SLO latency target is deadline / 2 as a double,
            # so a sub-microsecond deadline keeps a positive target.
            r = run(bins.serve, "--deadline", "1e-7", "--duration", "0.005",
                    "--train", "64", "--images", "16", "--epochs", "1",
                    cwd=tmp)
            check("resipe_serve --deadline 1e-7 exits 0", r.returncode == 0)
            # A config value out of its domain is refused in a plain
            # message that names it.
            r = run(bins.serve, "--slo-latency-obj", "1.5", *SERVE_RUN,
                    cwd=tmp)
            check("resipe_serve --slo-latency-obj 1.5 exits 1 naming 1.5",
                  r.returncode == 1 and "1.5" in r.stderr
                  and plain_error(r.stderr))
        if bins.bench_table1:
            out = os.path.join(tmp, "table1.json")
            r = run(bins.bench_table1, "--json", out, cwd=tmp)
            check("bench_table1_taxonomy --json FILE writes FILE",
                  r.returncode == 0 and os.path.isfile(out))
        check_failed_writes(bins, check, tmp, telemetry)
        check_profile_refusal(bins, check, tmp, telemetry)
        check_refused_records(bins, check, tmp)
        if bins.bench_fig5:
            out = os.path.join(tmp, "fig5.csv")
            r = run(bins.bench_fig5, "--csv", out, cwd=tmp)
            ok = r.returncode == 0 and os.path.isfile(out)
            if ok:
                with open(out) as f:
                    lines = f.read().splitlines()
                ok = (lines[0] == "t_in_s,g_total_S,strength_sS,t_out_s,"
                                  "t_out_linear_s"
                      and len(lines) == 101)
            check("bench_fig5_characterization --csv FILE writes the CSV", ok)


# A short resipe_serve run, and a short resipe_cli profile run.
SERVE_RUN = ("--duration", "0.005", "--train", "64", "--images", "16",
             "--epochs", "1")
PROFILE_RUN = ("profile", "--net", "mlp1", "--train", "64", "--images", "16",
               "--epochs", "1", "--reps", "1", "--calib-ms", "5")


def plain_error(stderr):
    """True when an error message carries no checked expression and no
    source location of the build."""
    return ("precondition failed" not in stderr and ".hpp:" not in stderr
            and ".cpp:" not in stderr)


def check_failed_writes(bins, check, tmp, telemetry):
    """A write that fails exits non-zero, naming the path in a plain
    message."""
    if not os.path.exists("/dev/full"):
        print("SKIP  failed-write checks (no /dev/full)")
    else:
        if bins.bench_table1:
            r = run(bins.bench_table1, "--json", "/dev/full", cwd=tmp)
            check("bench_table1_taxonomy --json /dev/full exits 1",
                  r.returncode == 1 and "/dev/full" in r.stderr
                  and plain_error(r.stderr))
        # /dev/full takes each write into the stream buffer and fails the
        # flush at close, so these short outputs fail only there.  A
        # telemetry-off build refuses to profile (check_profile_refusal).
        writers = [
            (bins.serve, (*SERVE_RUN, "--out", "/dev/full")),
            (bins.serve, (*SERVE_RUN, "--events", "/dev/full")),
            (bins.serve, (*SERVE_RUN, "--trace", "/dev/full")),
            (bins.cli, ("--metrics", "/dev/full", "quickstart")),
            (bins.cli, ("characterize", "--samples", "5", "--csv",
                        "/dev/full")),
            (bins.bench_fig5, ("--csv", "/dev/full")),
        ]
        if telemetry:
            writers += [
                (bins.cli, (*PROFILE_RUN, "--out", "/dev/full")),
                (bins.cli, (*PROFILE_RUN, "--folded", "/dev/full")),
            ]
        for binary, args in writers:
            if binary is None:
                continue
            r = run(binary, *args, cwd=tmp)
            check(f"{os.path.basename(binary)} {' '.join(args)} exits 1",
                  r.returncode == 1 and "/dev/full" in r.stderr
                  and "wrote /dev/full" not in r.stdout
                  and plain_error(r.stderr))
    if bins.fuzz:
        # The record's path is taken by a directory.
        corpus = os.path.join(tmp, "corpus")
        os.makedirs(os.path.join(corpus, "case_seed1.json"))
        r = run(bins.fuzz, "--emit-corpus", corpus, "--cases", "1", cwd=tmp)
        check("resipe_fuzz --emit-corpus into an occupied path exits 2",
              r.returncode == 2 and "case_seed1.json" in r.stderr
              and r.stdout == "" and plain_error(r.stderr))


def check_profile_refusal(bins, check, tmp, telemetry):
    """A telemetry-off build has no spans to profile: `profile` exits 2
    before any work, naming the switch, instead of writing an empty
    profile."""
    if telemetry:
        return
    r = run(bins.cli, *PROFILE_RUN, "--folded", "folded.txt", cwd=tmp,
            timeout=30)
    check("resipe_cli profile in a telemetry-off build exits 2 naming "
          "RESIPE_TELEMETRY",
          r.returncode == 2 and "RESIPE_TELEMETRY" in r.stderr
          and r.stdout == "" and plain_error(r.stderr)
          and not os.path.exists(os.path.join(tmp, "folded.txt")))


def check_refused_records(bins, check, tmp):
    """A repro record the reader refuses exits 2, naming the key in a
    plain message."""
    if not bins.fuzz:
        return
    # A retired key replays only at the value the engine now fixes.
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "corpus", "case_seed40.json")) as f:
        record = f.read()
    for key, written, refused in [
            ("device_stuck_lrs_rate", "0", "0.01"),
            ("rel_mit_write_verify_retries", "5", "3")]:
        retired = f'"{key}": {written},'
        path = os.path.join(tmp, "retired.json")
        with open(path, "w") as f:
            f.write(record.replace(retired, f'"{key}": {refused},'))
        r = run(bins.fuzz, "--replay", path, cwd=tmp)
        check(f"resipe_fuzz --replay of {key} = {refused} exits 2 "
              "with a plain message",
              retired in record and r.returncode == 2
              and f"retired key, only {written} replays" in r.stderr
              and f"'{key}'" in r.stderr
              and r.stdout == "" and plain_error(r.stderr))


if __name__ == "__main__":
    sys.exit(main())
