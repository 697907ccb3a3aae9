#!/usr/bin/env python3
"""The dpkron repository benchmark (see perfbench/README.md).

Run one workload from the root of a source checkout:

  python3 perfbench/run.py --workload figures --seed 1 --seconds 20 --trace 0

--trace 0 times the real programs and prints every end-to-end metric;
--trace 1 adds the traced replay and prints every per-layer metric. The
last line of stdout is always one JSON object:
{"correct", "attempted", "failed", "metrics"}. Human-readable lines,
including the host/provenance block, come before it.

  python3 perfbench/run.py --workload all  # the four in turn, one result
                                           # line each
  python3 perfbench/run.py --self-test     # harness checks on tiny inputs
  python3 perfbench/run.py --regen-golden  # rewrite perfbench/golden/*

The programs are built from source on every run (incrementally) into
$CARGO_TARGET_DIR, or .bench_build when it is unset.
"""

import argparse
import glob
import hashlib
import json
import os
import pty
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden")
NPROC = os.cpu_count() or 1

WORKLOADS = ("figures", "bigraph", "sweep", "serve")
FIGURE_SCENARIOS = ("fig1_ca_grqc", "fig2_as20", "fig3_ca_hepth",
                    "fig4_synthetic")
SWEEP_EPSILONS = "0.1,0.2,0.5,1,2"
SWEEP_SEEDS = 3
SWEEP_REPEATS = 3
FIGURE_SETUP_PROBES = 15
BIGRAPH_K = 20
BIGRAPH_INGESTS = 5
SERVE_K = 14
SERVE_REQUESTS_PER_CLIENT = 60
SERVE_RETRIES_PER_CLIENT = 2
SERVE_FILE_SEEDS = 3
SERVE_REGISTRY_SEEDS = 2
SERVE_LAUNCHES = 11
SERVE_EPSILON_BUDGET = 1000.0
# Each release charges delta 0.01: one analyst per client stays within
# 0.99 over SERVE_REQUESTS_PER_CLIENT (< 100) requests.
SERVE_DELTA_BUDGET = 0.99
CHILD_TIMEOUT_S = 170

# name -> unit. The contract metrics; every run prints all of them.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "secondary_s": "s",
    "peak_rss_mb": "MiB",
}

TIMED_LAYERS = (
    "datasets.generate", "skg.sample", "kronfit.fit", "estimation.kronmom",
    "estimation.features", "dp.degree_sequence", "dp.triangle_count",
    "graph.node_stats", "graph.hop_plot", "linalg.scree",
    "linalg.network_value", "core.private_estimator", "core.expected")
INGEST_LAYERS = ("graph.parse", "graph.sidecar_write", "graph.map_open")
PASS_LABELS = ("node_stats", "anf_round", "spmv", "degree_vector",
               "triangles", "triangles_per_node", "wedges", "tripins",
               "max_degree", "total")
CACHE_DOMAINS = ("expected", "features", "graph_load", "kronfit",
                 "kronmom_fit", "node_stats", "sorted_degrees", "statistics",
                 "triangle_count", "triangle_profile")
CACHE_COUNTERS = ("hits", "misses", "disk_hits", "disk_misses")
SERVER_COUNTERS = ("accepted", "completed", "ok", "shed", "deduped",
                   "budget_refused", "deadline_missed")


def per_layer_units():
    """name -> unit for every per-layer metric, in BENCHMARK.json order."""
    units = {}
    for layer in TIMED_LAYERS:
        units[layer + "_s"] = "s"
        units[layer + "_1t_s"] = "s"
    for layer in INGEST_LAYERS:
        units[layer + "_s"] = "s"
    units["skg.edges_over_expected"] = "ratio"
    units["dp.accountant_spend_ms"] = "ms"
    units["core.scenario_file_ms"] = "ms"
    units["core.scenario_registry_ms"] = "ms"
    units["server.inproc_ms"] = "ms"
    units["server.tcp_gap_ms"] = "ms"
    for label in PASS_LABELS:
        units["graph.csr_passes." + label] = "count"
    for counter in CACHE_COUNTERS:
        units["stat_cache." + counter] = "count"
        units["stat_cache.warm." + counter] = "count"
    for domain in CACHE_DOMAINS:
        for counter in CACHE_COUNTERS:
            units["stat_cache.%s.%s" % (domain, counter)] = "count"
    units["stat_cache.hit_ratio"] = "ratio"
    units["disk_cache.entries"] = "count"
    units["disk_cache.bytes"] = "bytes"
    units["sweep.cell_median_s"] = "s"
    units["sweep.cell_max_s"] = "s"
    for counter in SERVER_COUNTERS:
        units["server." + counter] = "count"
    units["trace.overhead_frac"] = "frac"
    return units


def log(message):
    print(message, file=sys.stderr, flush=True)


class BenchError(Exception):
    """A failure that ends the run without a result line."""


# --------------------------------------------------------------- building

def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))


def build():
    """Configures (once) and builds the programs; returns the binary dir."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        raise BenchError("no dpkron source tree at %s" % ROOT)
    out = os.path.join(build_dir(), "cmake")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j", str(NPROC), "--target",
                    "perfbench", "dpkron_experiments", "dpkrond"],
                   stdout=sys.stderr, check=True)
    return out


class Bins:
    def __init__(self, out):
        self.perfbench = os.path.join(out, "perfbench")
        self.experiments = os.path.join(out, "dpkron", "dpkron_experiments")
        self.dpkrond = os.path.join(out, "dpkron", "dpkrond")


# -------------------------------------------------------------- processes

# Children not yet waited for; killed if the harness is stopped.
LIVE = set()


def stop_children(signum, frame):
    del frame
    for proc in list(LIVE):
        proc.kill()
    raise BenchError("stopped by signal %d" % signum)


class Child:
    """One program run: wall time, peak RSS, exit code, and the time its
    first output byte appeared. With pty=True stdout is a terminal, so the
    program line-buffers and the first byte marks its first printed line.
    Only the head and tail of the output are kept."""

    KEEP = 1 << 20

    def __init__(self, cmd, cwd, use_pty=False, timeout=CHILD_TIMEOUT_S):
        self.head = bytearray()
        self.tail = bytearray()
        self.first_output_at = None
        self.cond = threading.Condition()
        self.eof = False
        if use_pty:
            read_fd, write_fd = pty.openpty()
        else:
            read_fd, write_fd = os.pipe()
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=cwd, stdin=subprocess.DEVNULL,
                                     stdout=write_fd)
        LIVE.add(self.proc)
        os.close(write_fd)
        self.reader = threading.Thread(target=self._read, args=(read_fd,),
                                       daemon=True)
        self.reader.start()
        self.timer = threading.Timer(timeout, self.proc.kill)
        self.timer.start()
        self.wall = None
        self.peak_rss_mb = None

    def _read(self, fd):
        while True:
            try:
                data = os.read(fd, 65536)
            except OSError:
                data = b""
            if not data:
                break
            with self.cond:
                if self.first_output_at is None:
                    self.first_output_at = time.perf_counter()
                if len(self.head) < self.KEEP:
                    self.head += data[:self.KEEP - len(self.head)]
                self.tail = (self.tail + data)[-self.KEEP:]
                self.cond.notify_all()
        os.close(fd)
        with self.cond:
            self.eof = True
            self.cond.notify_all()

    def wait_for_output(self, needle, timeout=60):
        """Blocks until `needle` appears in the output's head; returns the
        head as text, or None at end of output or timeout."""
        deadline = time.monotonic() + timeout
        with self.cond:
            while needle.encode() not in self.head:
                left = deadline - time.monotonic()
                if self.eof or left <= 0:
                    return None
                self.cond.wait(left)
            return self.head.decode(errors="replace")

    def wait(self):
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.wall = time.perf_counter() - self.t0
        LIVE.discard(self.proc)
        self.timer.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.reader.join()
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        return self.proc.returncode

    def output(self):
        return self.tail.decode(errors="replace")

    def setup_s(self):
        return (self.first_output_at or time.perf_counter()) - self.t0


def run_child(cmd, cwd, use_pty=False):
    child = Child(cmd, cwd, use_pty=use_pty)
    code = child.wait()
    if code != 0:
        log("# %s exited %d:\n%s" % (os.path.basename(cmd[0]), code,
                                     child.output()[-2000:]))
    return child


def perfbench_json(bins, args, cwd):
    child = run_child([bins.perfbench] + args, cwd)
    if child.proc.returncode != 0:
        raise BenchError("perfbench %s failed" % args[0])
    return json.loads(child.output().strip().splitlines()[-1])


# ---------------------------------------------------------------- checks

VOLATILE_KEYS = ("elapsed_seconds", "cache", "simd", "threads")


def normalize(value):
    """The document minus its per-execution fields, recursively."""
    if isinstance(value, dict):
        return {k: normalize(v) for k, v in value.items()
                if k not in VOLATILE_KEYS}
    if isinstance(value, list):
        return [normalize(v) for v in value]
    return value


def digest(value):
    text = json.dumps(normalize(value), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_golden(name):
    with open(os.path.join(GOLDEN, name)) as f:
        return json.load(f)


def figure_digests(document):
    """scenario -> digest of its normalized run object."""
    return {run["scenario"]: digest(run) for run in document["runs"]}


def check_figures_document(document, golden):
    """Failed checks (a list of messages) for one figures document."""
    got = figure_digests(document)
    return ["%s differs from its golden copy" % name
            for name in FIGURE_SCENARIOS if got.get(name) != golden.get(name)]


def check_sweep_document(document, golden):
    problems = []
    if document.get("failed_runs", 0) != 0:
        problems.append("%d sweep cells failed" % document["failed_runs"])
    if digest(document) != golden["digest"]:
        problems.append("sweep document differs from its golden copy")
    return problems


def bigraph_result(data):
    return {"theta": data["theta"], "statistics": data["statistics"]}


def check_bigraph(data, golden):
    if digest(bigraph_result(data)) != golden["digest"]:
        return ["bigraph theta/statistics differ from the golden copy "
                "(%s backing)" % data.get("backing", "replay")]
    return []


def figure_thetas(document):
    """scenario -> its "fitted initiators" summary (estimator -> theta)."""
    return {run["scenario"]: summary["items"]
            for run in document["runs"] for summary in run["summaries"]
            if summary["title"].endswith(" fitted initiators (a b c)")}


def check_figure_replay(replayed, document):
    """The traced replay fitted the same initiators as the product run."""
    product = figure_thetas(document)
    return ["replayed %s fits %s, the product %s" % (
        name, replayed.get(name), product.get(name))
        for name in FIGURE_SCENARIOS if replayed.get(name) != product.get(name)]


def table1_parameters(run_object):
    """A Table 1 run's "parameters" table as series -> value."""
    return {row["series"]: row["y"] for table in run_object["tables"]
            if table["experiment"].endswith("parameters")
            for row in table["rows"]}


def check_table1_replay(what, replayed, run_object):
    if replayed != table1_parameters(run_object):
        return ["replayed %s differs from the product's Table 1 parameters"
                % what]
    return []


def edges_over_expected(document):
    """Sample-density guard: for every estimator series of every figure
    run, the sample's edge count (from its degree_distribution rows) over
    ExpectedEdges(theta, k)."""
    worst = 0.0
    for run in document["runs"]:
        summaries = {s["title"].split(" ", 1)[1]: s["items"]
                     for s in run["summaries"]}
        k = int(summaries["dataset"]["kronecker order k"])
        thetas = summaries["fitted initiators (a b c)"]
        edges = {}
        for table in run["tables"]:
            if table["experiment"].endswith("/degree_distribution"):
                for row in table["rows"]:
                    edges[row["series"]] = edges.get(row["series"], 0.0) + \
                        row["x"] * row["y"] / 2.0
        for series, name in (("kronfit", "KronFit"), ("kronmom", "KronMom"),
                             ("private", "Private")):
            numbers = thetas[name].replace("[", " ").replace("]", " ") \
                .replace(";", " ").split()
            a, b, c = float(numbers[0]), float(numbers[1]), float(numbers[3])
            expected = 0.5 * ((a + 2 * b + c) ** k - (a + c) ** k)
            if expected > 0 and series in edges:
                worst = max(worst, edges[series] / expected)
    return worst


# --------------------------------------------------------------- metrics

def tail_percentile(samples):
    """(value, percentile): the highest percentile that has at least ten
    samples beyond it (the largest sample when there are ten or fewer)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    index = n - 11
    return ordered[index], 100.0 * (index + 1) / n


class Result:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.metrics = {}  # end-to-end, by name
        self.report = {}   # the workload's own named numbers, printed
        self.layers = {}   # per-layer, by name, beyond the trace's own
        self.trace = {}    # `perfbench trace` output (traced runs)

    def op(self, ok, problem=None):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if problem:
                self.problems.append(problem)

    def checks(self, problems, count):
        """Counts `count` checks, of which len(problems) failed."""
        self.attempted += count
        self.failed += min(count, len(problems))
        self.problems.extend(problems)


# ------------------------------------------------------------- workloads

def workload_dir(name, seed):
    path = os.path.join(build_dir(), "work", "%s-%d-%d" % (name, seed,
                                                            os.getpid()))
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def run_figures_pass(bins, cwd, threads, scenarios, out):
    cmd = [bins.experiments, "--scenario=" + ",".join(scenarios), "--smoke",
           "--threads=%d" % threads, "--out=" + out]
    return run_child(cmd, cwd, use_pty=True)


def figures_setup_probe(bins, cwd, scenarios):
    """Launch to first scenario header of one more figures process, which
    is killed as soon as the header appears."""
    child = Child([bins.experiments, "--scenario=" + ",".join(scenarios),
                   "--smoke", "--threads=%d" % NPROC], cwd, use_pty=True)
    started = child.wait_for_output("\n")
    setup = child.setup_s()
    child.proc.kill()
    child.wait()
    if started is None:
        raise BenchError("dpkron_experiments printed nothing:\n" +
                         child.output())
    return setup


def figures(bins, seed, work, trace):
    """Four smoke figure scenarios at nproc threads and at one thread."""
    rng = random.Random(seed)
    scenarios = list(FIGURE_SCENARIOS)
    rng.shuffle(scenarios)
    passes = [NPROC, 1]
    rng.shuffle(passes)
    if trace:
        passes = [NPROC]
    golden = load_golden("figures.json")
    result = Result()
    walls, setups, rss, documents = {}, [], [], {}
    for threads in passes:
        out = os.path.join(work, "figures-%dt.json" % threads)
        child = run_figures_pass(bins, work, threads, scenarios, out)
        ok = child.proc.returncode == 0 and os.path.isfile(out)
        for name in scenarios:
            result.op(ok, "%s failed at %d threads" % (name, threads))
        walls[threads] = child.wall
        setups.append(child.setup_s())
        rss.append(child.peak_rss_mb)
        if ok:
            with open(out) as f:
                documents[threads] = json.load(f)
            result.checks(check_figures_document(documents[threads], golden),
                          len(FIGURE_SCENARIOS))
    # A few millisecond-scale samples are noisy; more launches steady the
    # median.
    setups += [figures_setup_probe(bins, work, scenarios)
               for _ in range(FIGURE_SETUP_PROBES)]
    result.metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": walls[NPROC],
        "secondary_s": walls.get(1),
        "peak_rss_mb": max(rss),
    }
    result.report = {"wall_s": walls[NPROC], "wall_1t_s": walls.get(1)}
    if trace and NPROC in documents:
        doc = documents[NPROC]
        layers = perfbench_json(bins, [
            "trace", "--workload=figures", "--seed=%d" % seed,
            "--threads=%d" % NPROC,
            "--chrome=" + chrome_path("figures", seed)], work)
        for key in ("thetas", "thetas_1t"):
            result.checks(check_figure_replay(layers[key], doc),
                          len(FIGURE_SCENARIOS))
        result.trace = layers
        result.layers["skg.edges_over_expected"] = edges_over_expected(doc)
        result.layers.update(cache_metrics(doc["cache"]))
    return result


def bigraph(bins, seed, work, trace):
    """Cold ingest, Algorithm 1 and the five panels on a k=20 SKG."""
    edges = os.path.join(work, "bigraph.edges")
    perfbench_json(bins, ["write-skg", "--k=%d" % BIGRAPH_K,
                          "--id-seed=%d" % seed, "--out=" + edges], work)
    golden = load_golden("bigraph.json")
    result = Result()
    ingests = 1 if trace else BIGRAPH_INGESTS
    child = run_child([bins.perfbench, "bigraph", "--edges=" + edges,
                       "--ingests=%d" % ingests], work)
    ok = child.proc.returncode == 0
    result.op(ok, "bigraph run failed")
    if not ok:
        raise BenchError("bigraph run failed")
    data = json.loads(child.output().strip().splitlines()[-1])
    result.checks(check_bigraph(data, golden), 1)
    wall = data["estimate_s"] + data["panels_s"]
    result.metrics = {
        "setup_s": statistics.median(data["ingest_s"]),
        "wall_s": wall,
        "secondary_s": data["estimate_s"],
        "peak_rss_mb": child.peak_rss_mb,
    }
    result.report = {"ingest_s": data["ingest_s"],
                     "estimate_s": data["estimate_s"],
                     "panels_s": data["panels_s"],
                     "nodes": data["nodes"], "edges": data["edges"]}
    if trace:
        layers = perfbench_json(bins, [
            "trace", "--workload=bigraph", "--seed=%d" % seed,
            "--threads=%d" % NPROC, "--edges=" + edges,
            "--chrome=" + chrome_path("bigraph", seed)], work)
        result.checks(check_bigraph(layers, golden), 1)
        result.trace = layers
        passes = dict(layers["passes"])
        for label, count in layers["panel_passes"].items():
            passes[label] = passes.get(label, 0) + count
        for label in PASS_LABELS:
            result.layers["graph.csr_passes." + label] = \
                sum(passes.values()) if label == "total" else \
                passes.get(label, 0)
        result.layers.update(cache_metrics(data["cache"]))
        result.report["panel_passes"] = layers["panel_passes"]
    return result


def sweep(bins, seed, work, trace):
    """Table 1 over 5 epsilons x 3 seeds, cold then warm on a disk cache."""
    del seed  # the matrix is the spec's; see README ("Inputs")
    golden = load_golden("sweep.json")
    result = Result()
    cells = len(SWEEP_EPSILONS.split(",")) * SWEEP_SEEDS
    documents, walls, setups, rss = {}, {"cold": [], "warm": []}, [], []
    # Cells run concurrently and wait on each other's in-flight cache
    # entries, so one straggler moves a pass (idle CPU ranged 11-50% over
    # identical warm passes). The metrics are medians over SWEEP_REPEATS
    # cold/warm pairs, each on its own empty disk cache.
    for repeat in range(1 if trace else SWEEP_REPEATS):
        disk = os.path.join(work, "disk-cache-%d" % repeat)
        for phase in ("cold", "warm"):
            out = os.path.join(work, "sweep-%s.json" % phase)
            child = run_child([
                bins.experiments, "--sweep", "--scenario=table1_parameters",
                "--sweep-epsilons=" + SWEEP_EPSILONS,
                "--sweep-seeds=%d" % SWEEP_SEEDS, "--disk-cache=" + disk,
                "--threads=%d" % NPROC, "--out=" + out], work)
            if child.proc.returncode != 0 or not os.path.isfile(out):
                for _ in range(cells):
                    result.op(False, "%s sweep failed" % phase)
                continue
            with open(out) as f:
                document = json.load(f)
            documents[phase] = document
            for run in document["runs"]:
                result.op(run["ok"], "%s cell eps=%s seed=%s: %s" % (
                    phase, run["epsilon"], run["seed"], run["status"]))
            result.checks(check_sweep_document(document, golden), 1)
            walls[phase].append(child.wall)
            # Time outside RunSweep's own timer: launch, set-up and the
            # document write.
            setups.append(child.wall - document["elapsed_seconds"])
            rss.append(child.peak_rss_mb)
        if len(documents) == 2:
            cold = documents["cold"]["cache"]
            warm = documents["warm"]["cache"]
            result.op(warm["disk_hits"] == cold["disk_misses"] and
                      warm["disk_misses"] == 0,
                      "warm disk hits %d != cold disk misses %d" % (
                          warm["disk_hits"], cold["disk_misses"]))
    if not walls["cold"] or not walls["warm"]:
        raise BenchError("sweep pass failed")
    result.metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls["cold"]),
        "secondary_s": statistics.median(walls["warm"]),
        "peak_rss_mb": statistics.median(rss),
    }
    result.report = {"wall_s": walls["cold"], "warm_wall_s": walls["warm"]}
    if trace:
        layers = perfbench_json(bins, [
            "trace", "--workload=sweep", "--seed=0", "--threads=%d" % NPROC,
            "--disk-cache=" + os.path.join(work, "trace-disk-cache"),
            "--epsilons=" + SWEEP_EPSILONS, "--seeds=%d" % SWEEP_SEEDS,
            "--chrome=" + chrome_path("sweep", 0)], work)
        runs = {(r["epsilon"], r["seed"]): r["run"]
                for r in documents["cold"]["runs"]}
        for cell in layers["cells"]:
            key = (cell["epsilon"], cell["seed"])
            for phase in ("cold", "warm"):
                result.checks(check_table1_replay(
                    "%s cell eps=%g seed=%d" % ((phase,) + key), cell[phase],
                    runs[key]), 1)
        result.trace = layers
        result.layers.update(cache_metrics(documents["cold"]["cache"],
                                           documents["warm"]["cache"]))
        cell_seconds = [run["run"]["elapsed_seconds"]
                        for run in documents["cold"]["runs"]]
        result.layers["sweep.cell_median_s"] = statistics.median(cell_seconds)
        result.layers["sweep.cell_max_s"] = max(cell_seconds)
        entries = glob.glob(os.path.join(disk, "*.dpkc"))
        result.layers["disk_cache.entries"] = len(entries)
        result.layers["disk_cache.bytes"] = sum(os.path.getsize(p)
                                                for p in entries)
    return result


def serve_requests(seed, dataset):
    """Per-client request lists (closed loop, one list per client).

    Every client sends the same mix in a seeded order: 1 in 10 requests
    on the registry datasets, the rest on the benchmark-written edge
    list, and a few retries of request_ids it already got acknowledged.
    Request seeds come from small pools, so the first request of each
    pool seed is cold (nothing cached yet) and the rest are warm."""
    rng = random.Random(seed)
    file_seeds = [rng.randrange(1, 1 << 31) for _ in range(SERVE_FILE_SEEDS)]
    registry_seeds = [rng.randrange(1, 1 << 31)
                      for _ in range(SERVE_REGISTRY_SEEDS)]
    registry = SERVE_REQUESTS_PER_CLIENT // 10
    retries = SERVE_RETRIES_PER_CLIENT
    clients = []
    for c in range(NPROC):
        kinds = ["registry"] * registry + ["retry"] * retries + \
            ["file"] * (SERVE_REQUESTS_PER_CLIENT - registry - retries - 1)
        rng.shuffle(kinds)
        kinds.insert(0, "file")  # a retry needs an acknowledged request
        lines, acked = [], []
        for n, kind in enumerate(kinds):
            if kind == "retry":
                lines.append(("retry", rng.choice(acked)))
                continue
            request = {
                "analyst": "s%d-c%d" % (seed, c),
                "scenario": "table1_parameters",
                "epsilon": rng.choice([0.1, 0.2, 0.5, 1.0]),
                "request_id": "s%d-c%d-r%d" % (seed, c, n),
            }
            if kind == "registry":
                request["seed"] = registry_seeds[
                    (c + len(lines)) % len(registry_seeds)]
            else:
                request["seed"] = rng.choice(file_seeds)
                request["dataset"] = dataset
            line = json.dumps(request, separators=(",", ":"))
            lines.append(("new", line))
            acked.append(line)
        clients.append(lines)
    return clients


def send_line(stream, sock, line):
    sock.sendall(line.encode() + b"\n")
    reply = stream.readline()
    if not reply:
        raise BenchError("dpkrond closed the connection")
    return json.loads(reply)


def run_clients(port, clients):
    """Closed loop: one connection per client; returns per-request
    (client, kind, request line, reply, seconds)."""
    records = [[] for _ in clients]
    errors = []

    def client(index):
        try:
            with socket.create_connection(("127.0.0.1", port)) as sock:
                stream = sock.makefile("rb")
                for kind, line in clients[index]:
                    start = time.perf_counter()
                    reply = send_line(stream, sock, line)
                    records[index].append(
                        (index, kind, line, reply,
                         time.perf_counter() - start))
        except (OSError, ValueError, BenchError) as error:
            errors.append("client %d: %s" % (index, error))

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(len(clients))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return [r for rs in records for r in rs], errors


def start_daemon(bins, work, journal):
    child = Child([bins.dpkrond, "--port=0", "--workers=%d" % NPROC,
                   "--accountant=" + journal,
                   "--budgets=%g,%g" % (SERVE_EPSILON_BUDGET,
                                        SERVE_DELTA_BUDGET)], work)
    text = child.wait_for_output("workers")
    if text is None:
        child.proc.kill()
        child.wait()
        raise BenchError("dpkrond did not start:\n" + child.output())
    listening = time.perf_counter() - child.t0
    port = int(text.split("serving on port ", 1)[1].split()[0])
    return child, port, listening


def stop_daemon(child):
    child.proc.send_signal(signal.SIGTERM)
    return child.wait()


def check_accounting(records, healthz):
    """Each analyst's acknowledged (non-deduplicated) epsilon equals the
    server's epsilon_spent."""
    spent = {}
    for _, _, _, reply, _ in records:
        if reply.get("ok") and not reply.get("deduped"):
            analyst = reply["analyst"]
            spent[analyst] = spent.get(analyst, 0.0) + \
                reply["charge"]["epsilon"]
    server = {a: v["epsilon_spent"]
              for a, v in healthz.get("analysts", {}).items()}
    problems = []
    for analyst in sorted(set(spent) | set(server)):
        mine, theirs = spent.get(analyst, 0.0), server.get(analyst, 0.0)
        if abs(mine - theirs) > 1e-9 * max(1.0, abs(theirs)):
            problems.append("analyst %s: acknowledged eps %.12g != "
                            "epsilon_spent %.12g" % (analyst, mine, theirs))
    return problems


def serve(bins, seed, work, trace):
    """dpkrond under a closed loop of nproc TCP clients."""
    dataset = os.path.join(work, "serve.edges")
    perfbench_json(bins, ["write-skg", "--k=%d" % SERVE_K,
                          "--id-seed=%d" % seed, "--out=" + dataset], work)
    clients = serve_requests(seed, dataset)
    result = Result()
    setups = []
    for launch in range(SERVE_LAUNCHES):
        journal = os.path.join(work, "accountant-%d.journal" % launch)
        daemon, port, listening = start_daemon(bins, work, journal)
        setups.append(listening)
        if launch + 1 < SERVE_LAUNCHES:
            stop_daemon(daemon)
    try:
        start = time.perf_counter()
        records, errors = run_clients(port, clients)
        wall = time.perf_counter() - start
        with socket.create_connection(("127.0.0.1", port)) as sock:
            healthz = send_line(sock.makefile("rb"), sock,
                                '{"type":"healthz"}')
    finally:
        if stop_daemon(daemon) != 0:
            raise BenchError("dpkrond exited %d" % daemon.proc.returncode)
    for error in errors:
        result.op(False, error)
    for _, kind, _, reply, _ in records:
        result.op(reply.get("ok") is True and
                  bool(reply.get("deduped")) == (kind == "retry"),
                  "request %s: %s" % (reply.get("request_id"),
                                      reply.get("code")))
    result.checks(check_accounting(records, healthz), 1)
    latencies = [r[4] for r in records]
    if not latencies:
        raise BenchError("no serve replies")
    tail, tail_pct = tail_percentile(latencies)
    ok = sum(1 for r in records if r[3].get("ok") is True)
    result.metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "secondary_s": statistics.median(latencies),
        "peak_rss_mb": daemon.peak_rss_mb,
    }
    result.report = {
        "throughput_rps": ok / wall, "p50_ms": 1e3 * statistics.median(
            latencies), "tail_ms": 1e3 * tail, "tail_percentile": tail_pct,
        "requests": len(records)}
    if trace:
        requests = os.path.join(work, "requests.tsv")
        with open(requests, "w") as f:
            for c, lines in enumerate(clients):
                for _, line in lines:
                    f.write("%d\t%s\n" % (c, line))
        layers = perfbench_json(bins, [
            "trace", "--workload=serve", "--seed=%d" % seed,
            "--threads=%d" % NPROC, "--requests=" + requests,
            "--workdir=" + work,
            "--epsilon-budget=%g" % SERVE_EPSILON_BUDGET,
            "--delta-budget=%g" % SERVE_DELTA_BUDGET,
            "--chrome=" + chrome_path("serve", seed)], work)
        result.op(layers["inproc_failures"] == 0,
                  "%d in-process requests failed" % layers["inproc_failures"])
        replies = {r[3].get("request_id"): r[3] for r in records
                   if r[1] == "new"}
        for replay in layers["replayed"]:
            reply = replies.get(replay["request_id"], {})
            result.checks(check_table1_replay(
                "request " + replay["request_id"], replay["parameters"],
                reply.get("run", {"tables": []})), 1)
        result.trace = layers
        result.layers["dp.accountant_spend_ms"] = layers["accountant_spend_ms"]
        result.layers["core.scenario_file_ms"] = layers["scenario_file_ms"]
        result.layers["core.scenario_registry_ms"] = \
            layers["scenario_registry_ms"]
        result.layers["server.inproc_ms"] = layers["inproc_ms"]
        # TCP and client cost: the daemon's p50 over the in-process one.
        result.layers["server.tcp_gap_ms"] = \
            result.report["p50_ms"] - layers["inproc_ms"]
        for counter in SERVER_COUNTERS:
            result.layers["server." + counter] = healthz["stats"][counter]
        result.layers.update(cache_metrics(healthz["cache"]))
    return result


# ------------------------------------------------------ per-layer metrics

def chrome_path(workload, seed):
    directory = os.path.join(build_dir(), "traces")
    os.makedirs(directory, exist_ok=True)
    return os.path.join(directory, "%s-%d.json" % (workload, seed))


def layer_metrics(trace):
    """Inclusive seconds per replayed layer, from the span totals."""
    totals = trace["total"]
    metrics = {}
    for layer in TIMED_LAYERS:
        metrics[layer + "_s"] = totals.get(layer, 0.0)
        metrics[layer + "_1t_s"] = totals.get(layer + "_1t", 0.0)
    for layer in INGEST_LAYERS:
        metrics[layer + "_s"] = totals.get(layer, 0.0)
    metrics["trace.overhead_frac"] = trace["overhead_frac"]
    return metrics


def cache_metrics(cache, warm=None):
    """StatCache counters: pass totals, warm-pass totals and per-domain
    sums over both passes."""
    metrics = {}
    for counter in CACHE_COUNTERS:
        metrics["stat_cache." + counter] = cache.get(counter, 0)
        metrics["stat_cache.warm." + counter] = \
            warm.get(counter, 0) if warm else 0
    for domain in CACHE_DOMAINS:
        for counter in CACHE_COUNTERS:
            total = 0
            for block in (cache, warm or {}):
                total += block.get("domains", {}).get(domain, {}).get(
                    counter, 0)
            metrics["stat_cache.%s.%s" % (domain, counter)] = total
    # Served without computing: memory hits plus misses the disk served.
    served = lookups = 0
    for block in (cache, warm or {}):
        served += block.get("hits", 0) + block.get("disk_hits", 0)
        lookups += block.get("hits", 0) + block.get("misses", 0)
    metrics["stat_cache.hit_ratio"] = served / lookups if lookups else 0.0
    metrics["disk_cache.entries"] = 0
    metrics["disk_cache.bytes"] = 0
    return metrics


# ------------------------------------------------------------ provenance

def provenance(bins, workload, seed):
    host = json.loads(subprocess.run([bins.perfbench, "host"], check=True,
                                     capture_output=True,
                                     text=True).stdout)
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown (not a git checkout)"
    sources = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "**", "*.*"),
                                 recursive=True) +
                       glob.glob(os.path.join(ROOT, "bench", "*.cc"))):
        with open(path, "rb") as f:
            sources.update(os.path.relpath(path, ROOT).encode())
            sources.update(f.read())
    host.update({"git_sha": sha, "source_sha256": sources.hexdigest()[:16],
                 "workload": workload, "seed": seed})
    return host


# ----------------------------------------------------------------- main

RUNNERS = {"figures": figures, "bigraph": bigraph, "sweep": sweep,
           "serve": serve}


def run_workload(workload, seed, trace):
    bins = Bins(build())
    host = provenance(bins, workload, seed)
    print("# host: " + json.dumps(host, sort_keys=True), flush=True)
    work = workload_dir(workload, seed)
    try:
        result = RUNNERS[workload](bins, seed, work, bool(trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in result.problems:
        print("# check failed: " + problem, flush=True)
    print("# %s: failed_frac=%.6g (%d/%d) %s" % (
        workload, result.failed / result.attempted, result.failed,
        result.attempted, json.dumps(result.report, sort_keys=True)),
        flush=True)
    if trace:
        if not result.trace:
            raise BenchError("the traced replay did not run")
        units = per_layer_units()
        layers = layer_metrics(result.trace)
        layers.update(result.layers)
        for name, seconds in sorted(result.trace["self"].items()):
            print("# self %-34s %.6f s" % (name, seconds), flush=True)
        # A layer the workload does not exercise reads 0.
        metrics = {name: {"value": layers.get(name, 0), "unit": unit}
                   for name, unit in units.items()}
    else:
        metrics = {name: {"value": result.metrics[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        for name, entry in metrics.items():
            print("# %s %s = %.6g %s" % (workload, name, entry["value"],
                                         entry["unit"]), flush=True)
    print(json.dumps({"correct": result.failed == 0,
                      "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0 if result.failed == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20,
                        help="accepted for the BENCHMARK.json contract; each "
                        "workload runs its fixed job once")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--regen-golden", action="store_true")
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, stop_children)
    signal.signal(signal.SIGINT, stop_children)
    try:
        if args.self_test:
            import selftest
            return selftest.main()
        if args.regen_golden:
            return regen_golden()
        if args.workload is None:
            parser.error("--workload is required")
        if args.workload == "all":
            return max(run_workload(w, args.seed, args.trace)
                       for w in WORKLOADS)
        return run_workload(args.workload, args.seed, args.trace)
    except (BenchError, subprocess.CalledProcessError, OSError) as error:
        log("perfbench: %s" % error)
        return 2


def regen_golden():
    """Rewrites the golden copies from this build: figures at nproc
    threads, the cold sweep, and bigraph from the in-RAM backing."""
    bins = Bins(build())
    work = workload_dir("golden", 0)
    os.makedirs(GOLDEN, exist_ok=True)
    try:
        out = os.path.join(work, "figures.json")
        child = run_figures_pass(bins, work, NPROC, FIGURE_SCENARIOS, out)
        if child.proc.returncode != 0:
            raise BenchError("figures failed")
        with open(out) as f:
            write_golden("figures.json", figure_digests(json.load(f)))
        out = os.path.join(work, "sweep.json")
        child = run_child([
            bins.experiments, "--sweep", "--scenario=table1_parameters",
            "--sweep-epsilons=" + SWEEP_EPSILONS,
            "--sweep-seeds=%d" % SWEEP_SEEDS, "--threads=%d" % NPROC,
            "--out=" + out], work)
        if child.proc.returncode != 0:
            raise BenchError("sweep failed")
        with open(out) as f:
            write_golden("sweep.json", {"digest": digest(json.load(f))})
        edges = os.path.join(work, "bigraph.edges")
        perfbench_json(bins, ["write-skg", "--k=%d" % BIGRAPH_K,
                              "--out=" + edges], work)
        data = perfbench_json(bins, ["bigraph", "--edges=" + edges,
                                     "--ingests=1", "--backing=ram"], work)
        write_golden("bigraph.json", {"digest": digest(bigraph_result(data)),
                                      "theta": data["theta"],
                                      "nodes": data["nodes"],
                                      "edges": data["edges"]})
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def write_golden(name, value):
    with open(os.path.join(GOLDEN, name), "w") as f:
        json.dump(value, f, indent=1, sort_keys=True)
        f.write("\n")
    log("# wrote golden/%s" % name)


if __name__ == "__main__":
    sys.exit(main())
