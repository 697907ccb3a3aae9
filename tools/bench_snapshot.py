#!/usr/bin/env python3
"""Records the repository benchmark's numbers in BENCH_perfbench.json.

    python3 tools/bench_snapshot.py [--seed=1] [--out=BENCH_perfbench.json]

Runs `python3 perfbench/run.py --workload all` twice from the repository
root, at --trace 0 (the end-to-end metrics) and at --trace 1 (the
per-layer metrics), and writes one JSON document:

  git_sha         HEAD when the runs started
  dirty_sources   true if src/, bench/ or perfbench/ differed from HEAD
  host            the first "# host:" block (CPU, compiler, sources hash)
  trace0, trace1  workload -> that run's result object
                  {"correct", "attempted", "failed", "metrics"}

A change that claims a speed gain commits the refreshed file with it, so
`git log -p BENCH_perfbench.json` is the measured trajectory. Exits 1 if
any workload ran incorrect or printed no result.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("figures", "bigraph", "sweep", "serve")
HOST_PREFIX = "# host: "


def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                          capture_output=True, text=True).stdout.strip()


def run_all(seed, trace):
    """(first host block, workload -> result object) of one --workload all
    run. Each workload prints its host block, then its result line."""
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", "all", "--seed", str(seed), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    host, workload, results = None, None, {}
    for line in proc.stdout.splitlines():
        if line.startswith(HOST_PREFIX):
            block = json.loads(line[len(HOST_PREFIX):])
            workload = block.pop("workload")
            host = host or block
        elif line.startswith("{") and workload is not None:
            results[workload] = json.loads(line)
            workload = None
    return host, results


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out",
                        default=os.path.join(ROOT, "BENCH_perfbench.json"))
    args = parser.parse_args()

    snapshot = {
        "git_sha": git("rev-parse", "HEAD"),
        "dirty_sources": bool(git("status", "--porcelain", "--", "src",
                                  "bench", "perfbench")),
    }
    complete = True
    for trace in (0, 1):
        host, results = run_all(args.seed, trace)
        snapshot.setdefault("host", host)
        snapshot["trace%d" % trace] = results
        for name in WORKLOADS:
            result = results.get(name)
            if result is None or not result.get("correct"):
                print("bench_snapshot: %s at --trace %d is %s" % (
                    name, trace, "missing" if result is None else "incorrect"),
                    file=sys.stderr)
                complete = False
    with open(args.out, "w") as f:
        json.dump(snapshot, f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote " + args.out)
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
