#!/usr/bin/env python3
"""Byte-identity oracle: the one place that decides two documents match.

    python3 tools/same_bytes.py BUILD
    python3 tools/same_bytes.py --parent=BUILD_A --change=BUILD_B

A BUILD is a CMake build directory of this repository (holding
dpkron_experiments, dpkrond and quickstart). Given one build, the script
runs every axis of it; each pair of fixed-seed documents must match:

  threads     --scenario=all --smoke at 1 thread vs at nproc threads;
  backing     fig2_as20 on data/ca_test.edges parsed into RAM, vs served
              from its --dataset-cache sidecar, vs that sidecar opened as
              a standalone .dpkb;
  dispatch    the same catalog at nproc threads at default dispatch vs
              under DPKRON_FORCE_SCALAR=1;
  cache tier  a registry sweep cold vs warm on one --disk-cache, and a
              dpkrond file release in a first life vs in a second life on
              the same --disk-cache.

Given two builds, it first compares the parent's documents with the
change's (the catalog at both thread counts; table1_parameters over 5
epsilons x 3 seeds on a fresh --disk-cache, cold then warm, with its
cache counters; a fixed dpkrond request mix; quickstart's stdout) and
then runs every axis on the change.

Every comparison drops VOLATILE_KEYS and the keys its pair declares, and
then checks the assertions the pair declares on its second document.
Prints one line per pair, `same`, `DIFFERS at <json path>` or `FAILS
<assertion>`, and exits 1 unless every line reads `same`. Each build
runs in its own scratch directory (--work, default a fresh temporary
directory).
"""

import argparse
import json
import operator
import os
import shutil
import socket
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATASET = "ca_test.edges"
NPROC = max(2, os.cpu_count() or 1)
# Wall time: it differs between any two executions.
VOLATILE_KEYS = ("elapsed_seconds",)
TIMEOUT_S = 600


def normalize(value, ignore=(), parent="$"):
    """The document minus VOLATILE_KEYS and `ignore`, at any depth.

    An `ignore` entry "a.b" drops key b only where it sits in the object
    under key a ("$.b" only at the top level); a bare "b" drops it
    everywhere."""
    if isinstance(value, dict):
        return {k: normalize(v, ignore, k) for k, v in value.items()
                if k not in VOLATILE_KEYS and k not in ignore
                and "%s.%s" % (parent, k) not in ignore}
    if isinstance(value, list):
        return [normalize(v, ignore, parent) for v in value]
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


CHECKS = {
    "==": operator.eq,
    ">": lambda got, want: isinstance(got, (int, float)) and got > want,
}


def compare(left, right, ignore=(), checks=()):
    """`same`, else where `right` differs from `left` or the (path, op,
    value) assertion on `right` that fails."""
    where = first_difference(normalize(left, ignore),
                             normalize(right, ignore))
    if where is not None:
        return "DIFFERS at " + where
    for path, op, want in checks:
        got = right
        for key in path.split(".")[1:]:
            got = got.get(key) if isinstance(got, dict) else None
        if not CHECKS[op](got, want):
            return "FAILS %s %s %r (got %r)" % (path, op, want, got)
    return "same"


class Pair(NamedTuple):
    axis: str
    left: str  # document names (DOCUMENTS)
    right: str
    ignore: tuple = ()  # beyond VOLATILE_KEYS
    checks: tuple = ()  # (path, op, value) on the right document


CATALOG_1T = "catalog at 1 thread"
CATALOG_NT = "catalog at %d threads" % NPROC
# The keys each pair ignores beyond VOLATILE_KEYS, and why.
AXES = (
    # The recorded --threads value; cache counters are compared.
    Pair("threads", CATALOG_1T, CATALOG_NT, ("$.threads",)),
    # The mapped routes memoize the loaded graph in a cache domain the
    # plain parse never touches; dataset_cache records the flag itself.
    Pair("backing", "fig2_as20 in RAM", "fig2_as20 from its sidecar",
         ("$.cache", "params.dataset_cache")),
    # ... and the standalone run names the .dpkb, not the edge list.
    Pair("backing", "fig2_as20 from its sidecar", "fig2_as20 from the .dpkb",
         ("$.cache", "params.dataset_cache", "params.dataset")),
    # The recorded dispatch level; cache counters and threads compared.
    Pair("dispatch", CATALOG_NT, CATALOG_NT + ", forced scalar", ("$.simd",),
         (("$.simd.dispatch", "==", "scalar"),)),
    # The warm run's counters move to the disk tier by design; every
    # graph, panel, fit and private degree release must come from there,
    # and nothing be missed.
    Pair("cache tier", "registry sweep cold", "registry sweep warm",
         ("$.cache",),
         (("$.cache.domains.graph_load.disk_hits", ">", 0),
          ("$.cache.disk_misses", "==", 0),
          ("$.cache.domains.statistics.disk_hits", ">", 0),
          ("$.cache.domains.expected.disk_hits", ">", 0),
          ("$.cache.domains.kronfit.disk_hits", ">", 0),
          ("$.cache.domains.degree_release.disk_hits", ">", 0))),
    # Each life's healthz cache counters; the second must read the disk.
    Pair("cache tier", "dpkrond release, first life",
         "dpkrond release, second life", ("$.healthz",),
         (("$.healthz.disk_hits", ">", 0),)),
)
# Parent vs change, one document each side. A change may add or remove a
# StatCache entry by design, so the sweep's counters get lines of their
# own and no other line compares them.
CHANGES = tuple(Pair("parent/change", name, name, ignore) for name, ignore in (
    (CATALOG_1T, ("$.cache",)),
    (CATALOG_NT, ("$.cache",)),
    ("table1 sweep cold", ("$.cache",)),
    ("table1 sweep cold, cache counters", ()),
    ("table1 sweep warm", ("$.cache",)),
    ("table1 sweep warm, cache counters", ()),
    ("dpkrond request mix", ()),
    ("quickstart stdout", ()),
))


class Build:
    """One build's documents, each produced once, on first use."""

    def __init__(self, path, work):
        self.path = os.path.abspath(path)
        self.work = work
        self.docs = {}
        os.makedirs(work, exist_ok=True)
        shutil.copy(os.path.join(ROOT, "data", DATASET), work)

    def doc(self, name):
        if name not in self.docs:
            self.docs[name] = DOCUMENTS[name](self)
        return self.docs[name]

    def run(self, binary, *flags, env=None):
        # Only the pair under test sets a DPKRON_ variable.
        clean = {k: v for k, v in os.environ.items()
                 if not k.startswith("DPKRON_")}
        clean.update(env or {})
        cmd = [os.path.join(self.path, binary)] + list(flags)
        proc = subprocess.run(cmd, cwd=self.work, env=clean,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError("%s exited %d:\n%s" % (
                " ".join(cmd), proc.returncode, proc.stderr.decode()[-2000:]))
        return proc.stdout.decode()

    def experiments(self, out, *flags, env=None):
        path = os.path.join(self.work, out + ".json")
        self.run("dpkron_experiments", *flags, "--out=" + path, env=env)
        with open(path) as f:
            return json.load(f)

    def serve(self, requests, *flags):
        """dpkrond's replies to `requests`, sent in order on one
        connection; then SIGTERM, which must drain and exit 0."""
        proc = subprocess.Popen(
            [os.path.join(self.path, "dpkrond"), "--port=0",
             "--smoke", "--kronfit-iterations=3"] + list(flags),
            cwd=self.work, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            banner = proc.stdout.readline().decode()
            if "serving on port " not in banner:
                raise RuntimeError("dpkrond did not start: " + banner +
                                   proc.stderr.read().decode())
            port = int(banner.split("serving on port ", 1)[1].split()[0])
            replies = []
            with socket.create_connection(("127.0.0.1", port)) as sock:
                stream = sock.makefile("rb")
                for request in requests:
                    sock.sendall(json.dumps(request).encode() + b"\n")
                    replies.append(json.loads(stream.readline()))
        finally:
            proc.terminate()
            code = proc.wait(timeout=60)
        if code != 0:
            raise RuntimeError("dpkrond exited %d on SIGTERM" % code)
        return replies


def catalog(out, threads, env=None):
    return lambda b: b.experiments(out, "--scenario=all", "--smoke",
                                   "--threads=%d" % threads, env=env)


def fig2(out, dataset, *flags, after=None):
    def produce(b):
        if after:
            b.doc(after)  # writes the sidecar this run reads
        return b.experiments(out, "--scenario=fig2_as20", "--smoke",
                             "--dataset=" + dataset, *flags)
    return produce


def sweep(out, cache, flags, after=None):
    def produce(b):
        if after:
            b.doc(after)  # fills the disk cache this run reads
        return b.experiments(out, "--sweep", *flags, "--disk-cache=" + cache)
    return produce


REGISTRY_SWEEP = ("--scenario=table1_parameters,fig1_ca_grqc", "--smoke",
                  "--kronfit-iterations=3", "--sweep-epsilons=0.2,0.5,1",
                  "--sweep-seeds=2")
TABLE1_SWEEP = ("--scenario=table1_parameters",
                "--sweep-epsilons=0.1,0.2,0.5,1,2", "--sweep-seeds=3",
                "--threads=%d" % NPROC)


def request_mix(b):
    def release(n, **fields):
        request = {"analyst": "a%d" % (n % 2), "scenario": "table1_parameters",
                   "epsilon": 0.2, "request_id": "r%d" % n}
        request.update(fields)
        return request
    requests = [
        release(0, seed=11),
        release(1, seed=12, epsilon=0.5),
        release(2, seed=13, dataset=DATASET),
        release(3, seed=13, dataset=DATASET, epsilon=1.0),
        release(4, seed=11, scenario="fig2_as20"),
        release(5, seed=14, scenario="no_such_scenario"),
        release(6, seed=15, epsilon=5.0),  # over the 2.0 budget
    ]
    requests.append(requests[2])  # a retry: answered deduplicated, no charge
    return b.serve(requests, "--workers=2", "--budgets=2,0.5",
                   "--threads=%d" % NPROC,
                   "--accountant=" + os.path.join(b.work, "mix.dpkacct"))


def daemon_life(life):
    def produce(b):
        if life > 1:
            b.doc("dpkrond release, first life")
        release = {"analyst": "alice", "scenario": "fig2_as20",
                   "dataset": DATASET, "epsilon": 0.25, "seed": 7,
                   "request_id": "warm-%d" % life}
        reply, health = b.serve(
            [release, {"type": "healthz"}],
            "--accountant=" + os.path.join(b.work, "warm.dpkacct"),
            "--disk-cache=" + os.path.join(b.work, "daemon-cache"),
            "--disk-cache-budget=64", "--cache-mem-budget=64")
        if not reply.get("ok"):
            raise RuntimeError("dpkrond refused the release: %r" % reply)
        return dict(reply["run"], healthz=health["cache"])
    return produce


DOCUMENTS = {
    CATALOG_1T: catalog("catalog-1t", 1),
    CATALOG_NT: catalog("catalog-nt", NPROC),
    CATALOG_NT + ", forced scalar": catalog("catalog-nt-scalar", NPROC,
                                            {"DPKRON_FORCE_SCALAR": "1"}),
    "fig2_as20 in RAM": fig2("fig2-ram", DATASET),
    "fig2_as20 from its sidecar": fig2("fig2-sidecar", DATASET,
                                       "--dataset-cache"),
    "fig2_as20 from the .dpkb": fig2("fig2-dpkb", DATASET + ".dpkb",
                                     after="fig2_as20 from its sidecar"),
    "registry sweep cold": sweep("registry-cold", "registry-cache",
                                 REGISTRY_SWEEP),
    "registry sweep warm": sweep("registry-warm", "registry-cache",
                                 REGISTRY_SWEEP, after="registry sweep cold"),
    "table1 sweep cold": sweep("table1-cold", "table1-cache", TABLE1_SWEEP),
    "table1 sweep warm": sweep("table1-warm", "table1-cache", TABLE1_SWEEP,
                               after="table1 sweep cold"),
    "table1 sweep cold, cache counters":
        lambda b: b.doc("table1 sweep cold")["cache"],
    "table1 sweep warm, cache counters":
        lambda b: b.doc("table1 sweep warm")["cache"],
    "dpkrond request mix": request_mix,
    "dpkrond release, first life": daemon_life(1),
    "dpkrond release, second life": daemon_life(2),
    "quickstart stdout": lambda b: b.run("quickstart"),
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("build", nargs="?",
                        help="build directory whose axes to run")
    parser.add_argument("--parent", help="build directory")
    parser.add_argument("--change", help="build directory")
    parser.add_argument("--work", help="scratch directory (default: temp)")
    args = parser.parse_args()
    if bool(args.build) == bool(args.parent or args.change) or \
            bool(args.parent) != bool(args.change):
        parser.error("give one BUILD, or both --parent and --change")
    work = args.work or tempfile.mkdtemp(prefix="same_bytes_")
    plan = []  # (the build of the left document, pair)
    if args.parent:
        parent = Build(args.parent, os.path.join(work, "parent"))
        change = Build(args.change, os.path.join(work, "change"))
        plan += [(parent, pair) for pair in CHANGES]
    else:
        change = Build(args.build, work)
    plan += [(change, pair) for pair in AXES]
    differences = 0
    for left, pair in plan:
        verdict = compare(left.doc(pair.left), change.doc(pair.right),
                          pair.ignore, pair.checks)
        name = pair.left if left is not change else \
            "%s vs %s" % (pair.left, pair.right)
        print("%-13s %-62s %s" % (pair.axis, name, verdict), flush=True)
        differences += verdict != "same"
    print("%d difference(s); outputs in %s" % (differences, work))
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
