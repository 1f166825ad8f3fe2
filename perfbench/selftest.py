#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a tiny size.

usage: python3 perfbench/selftest.py

Run from the root of a checkout. For each workload in BENCHMARK.json
and each of --trace 0 and --trace 1 it asserts that the run exits 0,
that its last stdout line is the result object with exactly the keys
correct/attempted/failed/metrics, that every output check passed, and
that the metrics are exactly the end-to-end (or per-layer) metrics
BENCHMARK.json names, each with its declared unit and a finite value.
A traced run must also leave a Chrome trace that parses. Last, the
benchmark run from a directory holding only BENCHMARK.json and
perfbench/ must fail without printing a result.
"""
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd, workload, trace):
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    errors = []
    for w in bench["workloads"]:
        for trace in (0, 1):
            tag = "%s --trace %d" % (w["name"], trace)
            out = run(ROOT, w["name"], trace)
            if out.returncode != 0:
                errors.append("%s: exit %d\n%s" % (tag, out.returncode, out.stderr[-2000:]))
                continue
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                errors.append("%s: result keys %s" % (tag, sorted(result)))
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                errors.append("%s: correct=%s attempted=%s failed=%s"
                              % (tag, result["correct"], result["attempted"], result["failed"]))
            got = result["metrics"]
            for name in sorted(set(got) - set(expected[trace])):
                errors.append("%s: unnamed metric %s" % (tag, name))
            for name, unit in expected[trace].items():
                if name not in got:
                    errors.append("%s: missing metric %s" % (tag, name))
                elif got[name]["unit"] != unit:
                    errors.append("%s: %s has unit %s, not %s" % (tag, name, got[name]["unit"], unit))
                elif not isinstance(got[name]["value"], (int, float)) or not math.isfinite(got[name]["value"]):
                    errors.append("%s: %s value %r" % (tag, name, got[name]["value"]))
            if trace == 1:
                path = os.path.join(HERE, "_out", w["name"] + ".trace.json")
                events = json.load(open(path))["traceEvents"]
                if not any(e.get("ph") == "X" for e in events):
                    errors.append("%s: trace %s has no spans" % (tag, path))
            print("ok  " + tag if len(errors) == 0 else "..  " + tag)
    bare = os.path.join(HERE, "_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("_out"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    out = run(bare, bench["workloads"][0]["name"], 0)
    if out.returncode == 0 or out.stdout.strip():
        errors.append("bare directory: exit %d, stdout %r" % (out.returncode, out.stdout[-200:]))
    shutil.rmtree(bare, ignore_errors=True)
    for e in errors:
        print("FAIL " + e)
    print("selftest: %s" % ("ok" if not errors else "%d failures" % len(errors)))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
