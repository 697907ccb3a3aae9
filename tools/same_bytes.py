#!/usr/bin/env python3
"""Byte-identity oracle: the same fixed-seed documents from two builds.

    python3 tools/same_bytes.py --parent=BUILD_A --change=BUILD_B

BUILD_A and BUILD_B are CMake build directories of this repository
(each holding dpkron_experiments, dpkrond and quickstart). The script
runs the same inputs through both and compares:

  scenarios  --scenario=all --smoke at 1 thread and at nproc threads
             (elapsed_seconds, cache, threads and simd are ignored);
  sweep      table1_parameters over 5 epsilons x 3 seeds on a fresh
             --disk-cache, cold then warm; the documents minus the same
             fields, and the cache counters, which must match exactly;
  daemon     a fixed dpkrond request mix sent in order over one
             connection (registry and file datasets, a retried
             request_id, a budget refusal, an unknown scenario); the
             response lines minus the same fields;
  quickstart its stdout.

Each build runs in its own scratch directory (--work, default a fresh
temporary directory). Prints one line per comparison and exits 1 on any
difference, naming the first differing JSON path.
"""

import argparse
import json
import os
import shutil
import socket
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NPROC = os.cpu_count() or 1
VOLATILE_KEYS = ("elapsed_seconds", "cache", "threads", "simd")
SWEEP_EPSILONS = "0.1,0.2,0.5,1,2"
SWEEP_SEEDS = 3
TIMEOUT_S = 600


def normalize(value):
    """The document minus its per-execution fields, recursively."""
    if isinstance(value, dict):
        return {k: normalize(v) for k, v in value.items()
                if k not in VOLATILE_KEYS}
    if isinstance(value, list):
        return [normalize(v) for v in value]
    return value


def first_difference(a, b, path="$"):
    """The JSON path of the first difference between a and b, or None."""
    if type(a) is not type(b):
        return path
    if isinstance(a, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                return "%s.%s" % (path, key)
            found = first_difference(a[key], b[key], "%s.%s" % (path, key))
            if found:
                return found
        return None
    if isinstance(a, list):
        if len(a) != len(b):
            return "%s (length %d != %d)" % (path, len(a), len(b))
        for i, (x, y) in enumerate(zip(a, b)):
            found = first_difference(x, y, "%s[%d]" % (path, i))
            if found:
                return found
        return None
    return None if a == b else path


def run(cmd, cwd):
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("%s exited %d:\n%s" % (
            " ".join(cmd), proc.returncode, proc.stderr.decode()[-2000:]))
    return proc.stdout


def load(path):
    with open(path) as f:
        return json.load(f)


def scenarios(build, work):
    out = {}
    for threads in sorted({1, NPROC}):
        path = os.path.join(work, "scenarios-%dt.json" % threads)
        run([os.path.join(build, "dpkron_experiments"), "--scenario=all",
             "--smoke", "--threads=%d" % threads, "--out=" + path], work)
        out["scenarios at %d thread(s)" % threads] = normalize(load(path))
    return out


def sweep(build, work):
    out = {}
    disk = os.path.join(work, "disk-cache")
    for phase in ("cold", "warm"):
        path = os.path.join(work, "sweep-%s.json" % phase)
        run([os.path.join(build, "dpkron_experiments"), "--sweep",
             "--scenario=table1_parameters",
             "--sweep-epsilons=" + SWEEP_EPSILONS,
             "--sweep-seeds=%d" % SWEEP_SEEDS, "--disk-cache=" + disk,
             "--threads=%d" % NPROC, "--out=" + path], work)
        document = load(path)
        out["sweep %s" % phase] = normalize(document)
        out["sweep %s cache counters" % phase] = document["cache"]
    return out


def daemon_requests(dataset):
    def release(n, **fields):
        request = {"analyst": "a%d" % (n % 2), "scenario": "table1_parameters",
                   "epsilon": 0.2, "request_id": "r%d" % n}
        request.update(fields)
        return json.dumps(request, separators=(",", ":"))
    lines = [
        release(0, seed=11),
        release(1, seed=12, epsilon=0.5),
        release(2, seed=13, dataset=dataset),
        release(3, seed=13, dataset=dataset, epsilon=1.0),
        release(4, seed=11, scenario="fig2_as20"),
        release(5, seed=14, scenario="no_such_scenario"),
        release(6, seed=15, epsilon=5.0),  # over the 2.0 budget
    ]
    lines.append(lines[2])  # a retry: answered deduplicated, no charge
    return lines


def daemon(build, work):
    # Relative to the daemon's working directory, so both builds' replies
    # name the same dataset.
    dataset = "ca_test.edges"
    shutil.copy(os.path.join(ROOT, "data", dataset), work)
    proc = subprocess.Popen(
        [os.path.join(build, "dpkrond"), "--port=0", "--workers=2",
         "--accountant=" + os.path.join(work, "daemon.journal"),
         "--budgets=2,0.5", "--smoke", "--kronfit-iterations=3",
         "--threads=%d" % NPROC],
        cwd=work, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        banner = proc.stdout.readline().decode()
        if "serving on port " not in banner:
            raise RuntimeError("dpkrond did not start: " + banner +
                               proc.stderr.read().decode())
        port = int(banner.split("serving on port ", 1)[1].split()[0])
        replies = []
        with socket.create_connection(("127.0.0.1", port)) as sock:
            stream = sock.makefile("rb")
            for line in daemon_requests(dataset):
                sock.sendall(line.encode() + b"\n")
                replies.append(normalize(json.loads(stream.readline())))
    finally:
        proc.terminate()
        proc.wait(timeout=60)
    return {"daemon replies": replies}


def quickstart(build, work):
    stdout = run([os.path.join(build, "quickstart")], work)
    return {"quickstart stdout": stdout.decode()}


def collect(build, work):
    os.makedirs(work, exist_ok=True)
    out = {}
    for step in (scenarios, sweep, daemon, quickstart):
        out.update(step(os.path.abspath(build), work))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="build directory")
    parser.add_argument("--change", required=True, help="build directory")
    parser.add_argument("--work", help="scratch directory (default: temp)")
    args = parser.parse_args()
    work = args.work or tempfile.mkdtemp(prefix="same_bytes_")
    parent = collect(args.parent, os.path.join(work, "parent"))
    change = collect(args.change, os.path.join(work, "change"))
    differences = 0
    for name in parent:
        where = first_difference(parent[name], change[name])
        print("%-34s %s" % (name, "same" if where is None
                            else "DIFFERS at " + where))
        differences += where is not None
    print("%d difference(s); outputs in %s" % (differences, work))
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
