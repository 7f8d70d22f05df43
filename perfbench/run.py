#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md).

Run from the repository root:

    python3 perfbench/run.py --workload sweep-5m --seed 1 --seconds 30 --trace 0

It builds the Go benchmark in perfbench/ into $CARGO_TARGET_DIR (default
.bench_build), with the Go build cache kept there too, then runs the
workload and passes its output through; the last line is the result.

--save FILE appends the result with its environment fingerprint to FILE
(one JSON object per line). --compare BASE CUR compares two such files
metric by metric and refuses (exit 2) when their environments differ.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

RUN_TIMEOUT = 170  # seconds for the measured process


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(out):
    """Compile the benchmark; returns the binary path or None."""
    src = os.path.dirname(os.path.abspath(__file__))
    binary = os.path.join(out, "perfbench")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOMODCACHE": os.path.join(out, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(out, "config"),
        "GOFLAGS": "-buildvcs=false",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    os.makedirs(out, exist_ok=True)
    proc = subprocess.run(["go", "build", "-o", binary, "."], cwd=src, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("perfbench: build failed\n")
        return None
    return binary


def run(args):
    binary = build(build_dir())
    if binary is None:
        return 1
    try:
        proc = subprocess.run([binary, "-workload", args.workload, "-seed", str(args.seed),
                               "-seconds", str(args.seconds), "-trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the process
        sys.stderr.write("perfbench: run timed out\n")
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        sys.stderr.write("perfbench: run failed with exit code %d\n" % proc.returncode)
        return 1
    result = json.loads(lines[-1])
    env = None
    for line in lines[:-1]:
        print(line)
        if line.startswith("env "):
            env = json.loads(line[4:])
    if args.save:
        with open(args.save, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                                "trace": args.trace, "env": env, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


def compare(base_path, cur_path):
    """Per-metric medians of two saved result files; exit 2 on differing environments."""
    sides = []
    for path in (base_path, cur_path):
        with open(path) as f:
            sides.append([json.loads(line) for line in f if line.strip()])
    envs = {json.dumps(rec["env"], sort_keys=True) for side in sides for rec in side}
    if len(envs) != 1:
        sys.stderr.write("perfbench: refusing to compare runs from different environments:\n")
        for e in sorted(envs):
            sys.stderr.write("  %s\n" % e)
        return 2
    keys = sorted({(rec["workload"], rec["trace"], m) for side in sides for rec in side
                   for m in rec["result"]["metrics"]})
    print("%-10s %-5s %-24s %14s %14s %8s" % ("workload", "trace", "metric", "base median", "cur median", "cur/base"))
    for workload, trace, metric in keys:
        meds = []
        for side in sides:
            vals = [rec["result"]["metrics"][metric]["value"] for rec in side
                    if rec["workload"] == workload and rec["trace"] == trace and metric in rec["result"]["metrics"]]
            meds.append(statistics.median(vals) if vals else None)
        ratio = meds[1] / meds[0] if None not in meds and meds[0] else float("nan")
        print("%-10s %-5d %-24s %14s %14s %8.3f" % (workload, trace, metric,
              "-" if meds[0] is None else "%.6g" % meds[0], "-" if meds[1] is None else "%.6g" % meds[1], ratio))
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=["sweep-5m", "scale-10k", "serve-mix"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--save", help="append the result and its environment to this file")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "CUR"), help="compare two --save files")
    args = p.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        p.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
