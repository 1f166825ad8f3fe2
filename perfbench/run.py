#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size full|tiny]

Run from the root of a checkout. The arguments go unchanged to
perfbench.exe (see perfbench.ml), whose last line of stdout is the JSON
result. Build output goes to stderr. A failed build exits non-zero
without printing a result.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "./perfbench/perfbench.exe"


def dune():
    found = shutil.which("dune")
    if found:
        return [found]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def main():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        print("perfbench: no dune-project at %s; run from a full checkout" % ROOT, file=sys.stderr)
        return 2
    cmd = dune()
    if cmd is None:
        print("perfbench: dune not found", file=sys.stderr)
        return 2
    # the shared dune cache lives outside the checkout, so it stays off;
    # a build that hangs (e.g. on another build's lock) is a failed build
    try:
        build = subprocess.run(
            cmd + ["build", "--root", ROOT, "--cache=disabled", TARGET],
            cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, timeout=840,
        )
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
