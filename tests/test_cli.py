#!/usr/bin/env python3
"""Regression tests for resipe_cli argument hardening.

Unknown commands, unknown per-command options, flags missing their
value and numeric flags whose whole value does not parse as the flag's
type must all fail fast with a usage message and exit code 2 — never
fall through to a default or coerced run.  Run as:

    test_cli.py /path/to/resipe_cli
"""
import subprocess
import sys


def run(cli, *args):
    return subprocess.run(
        [cli, *args], capture_output=True, text=True, timeout=300
    )


def main():
    if len(sys.argv) != 2:
        print("usage: test_cli.py <resipe_cli binary>", file=sys.stderr)
        return 2
    cli = sys.argv[1]
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

    if failures:
        print(f"{len(failures)} failure(s): {failures}", file=sys.stderr)
        return 1
    print("all CLI hardening checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
