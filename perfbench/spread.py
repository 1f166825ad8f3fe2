#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

usage: python3 perfbench/spread.py [--runs N] [--first-seed S] [--same-seed] [WORKLOAD ...]

Runs each workload (default: all in BENCHMARK.json) N times (default 10)
with --trace 0, each run on the next seed from S (default 1), or on seed
S every time with --same-seed. Per metric it prints the median, the
interquartile range as a share of the median (statistics.quantiles,
n=4), the metric's bound, and every value. A spread above a third of
its bound is flagged WIDE. Run from the root of a checkout; exits 1 if
a run fails, a metric is missing, or a spread is wide.
"""
import json
import statistics
import subprocess
import sys
import time


def main(argv):
    runs, first, same, names = 10, 1, False, []
    while argv:
        a = argv.pop(0)
        if a == "--runs":
            runs = int(argv.pop(0))
        elif a == "--first-seed":
            first = int(argv.pop(0))
        elif a == "--same-seed":
            same = True
        else:
            names.append(a)
    bench = json.load(open("BENCHMARK.json"))
    names = names or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for name in names:
        values = {m: [] for m in bounds}
        elapsed = []
        seeds = [first if same else first + i for i in range(runs)]
        for seed in seeds:
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            t0 = time.time()
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            elapsed.append(time.time() - t0)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print("%s seed %d: exit %d\n%s" % (name, seed, out.returncode, out.stderr[-2000:]))
                return 1
            result = json.loads(lines[-1])
            if not result["correct"]:
                print("%s seed %d: failed %d of %d" % (name, seed, result["failed"], result["attempted"]))
                ok = False
            for m in bounds:
                if m not in result["metrics"]:
                    print("%s seed %d: missing metric %s" % (name, seed, m))
                    return 1
                values[m].append(result["metrics"][m]["value"])
        print("%s (%d runs, seeds %s, %.0f s, slowest run %.1f s)"
              % (name, runs, "%d" % first if same else "%d..%d" % (first, seeds[-1]),
                 sum(elapsed), max(elapsed)))
        for m, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread <= bounds[m] / 3 else "  WIDE"
            if flag:
                ok = False
            print("  %-16s median %14.6g  spread %7.4f  bound %.2f%s" % (m, med, spread, bounds[m], flag))
            print("    " + " ".join("%.6g" % v for v in vs))
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
