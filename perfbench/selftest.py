"""Harness self-test on tiny inputs: python3 perfbench/run.py --self-test

Runs each program once on a small input, parses its output, computes
every metric the harness derives from it, and checks that every golden
and consistency check rejects a perturbed document. Exits non-zero when
any test fails.
"""

import copy
import json
import os
import shutil
import socket
import statistics

import run

FAILURES = []


def expect(condition, name):
    print("# self-test %s: %s" % ("ok  " if condition else "FAIL", name),
          flush=True)
    if not condition:
        FAILURES.append(name)


def test_contract():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    expect({m["name"]: m["unit"] for m in contract["end_to_end"]} ==
           run.END_TO_END, "BENCHMARK.json end_to_end matches run.py")
    expect({m["name"]: m["unit"] for m in contract["per_layer"]} ==
           run.per_layer_units(), "BENCHMARK.json per_layer matches run.py")
    expect([w["name"] for w in contract["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json workloads match run.py")


def test_statistics():
    value, pct = run.tail_percentile(list(range(1, 101)))
    expect(value == 90 and pct == 90.0, "tail = p90 of 100 samples")
    value, pct = run.tail_percentile([3, 1, 2])
    expect(value == 3 and pct == 100.0, "tail of <= 10 samples is the max")


def test_figures(bins, work):
    out = os.path.join(work, "fig2.json")
    child = run.run_figures_pass(bins, work, run.NPROC, ["fig2_as20"], out)
    expect(child.proc.returncode == 0, "fig2_as20 --smoke runs")
    expect(0 < child.setup_s() < child.wall, "figures setup_s measured")
    with open(out) as f:
        document = json.load(f)
    golden = {"fig2_as20": run.load_golden("figures.json")["fig2_as20"]}
    expect(run.figure_digests(document) == golden,
           "fig2_as20 document equals its golden copy")
    perturbed = copy.deepcopy(document)
    perturbed["runs"][0]["tables"][0]["rows"][0]["y"] += 1
    expect(run.figure_digests(perturbed) != golden,
           "perturbed figure document fails the golden check")
    noisy = copy.deepcopy(document)
    noisy["runs"][0]["elapsed_seconds"] += 1.0
    noisy["threads"] = 1
    expect(run.figure_digests(noisy) == golden,
           "volatile fields are ignored by the golden check")
    ratio = run.edges_over_expected(document)
    expect(0.1 < ratio < 10, "edges_over_expected = %.4f" % ratio)
    full = copy.deepcopy(document)
    full["runs"] = [dict(document["runs"][0], scenario=name)
                    for name in run.FIGURE_SCENARIOS]
    replayed = run.figure_thetas(full)
    expect(set(replayed) == set(run.FIGURE_SCENARIOS) and
           run.check_figure_replay(replayed, full) == [],
           "figure thetas parsed and matched")
    replayed["fig2_as20"] = dict(replayed["fig2_as20"], Private="[0 0; 0 0]")
    expect(len(run.check_figure_replay(replayed, full)) == 1,
           "a replay fitting another theta fails the check")
    expect(run.cache_metrics(document["cache"])["stat_cache.misses"] > 0,
           "cache counters parsed")


def test_sweep(bins, work):
    out = os.path.join(work, "sweep.json")
    disk = os.path.join(work, "disk")
    docs = []
    for _ in range(2):
        child = run.run_child([
            bins.experiments, "--sweep", "--scenario=table1_parameters",
            "--smoke", "--sweep-epsilons=0.5", "--disk-cache=" + disk,
            "--out=" + out], work)
        expect(child.proc.returncode == 0, "tiny sweep runs")
        with open(out) as f:
            docs.append(json.load(f))
    cold, warm = docs
    golden = {"digest": run.digest(cold)}
    expect(run.check_sweep_document(warm, golden) == [],
           "warm sweep document equals the cold one")
    expect(warm["cache"]["disk_hits"] == cold["cache"]["disk_misses"] > 0,
           "warm disk hits equal cold disk misses")
    perturbed = copy.deepcopy(cold)
    perturbed["runs"][0]["epsilon"] = 0.25
    expect(run.check_sweep_document(perturbed, golden) != [],
           "perturbed sweep document fails the golden check")
    failed = copy.deepcopy(cold)
    failed["failed_runs"] = 1
    expect(run.check_sweep_document(failed, golden) != [],
           "failed sweep cells fail the check")
    cells = [r["run"]["elapsed_seconds"] for r in cold["runs"]]
    expect(statistics.median(cells) > 0, "sweep cell times parsed")
    parameters = run.table1_parameters(cold["runs"][0]["run"])
    expect(len(parameters) > 0 and all(
        name.rsplit("/", 1)[-1] in "abc" for name in parameters),
        "Table 1 parameters parsed")
    expect(run.check_table1_replay("cell", parameters,
                                   warm["runs"][0]["run"]) == [],
           "warm cell parameters equal the cold ones")
    name = sorted(parameters)[0]
    off = dict(parameters, **{name: parameters[name] + 1e-12})
    expect(run.check_table1_replay("cell", off, cold["runs"][0]["run"]) != [],
           "a replay with other parameters fails the check")


def test_bigraph(bins, work):
    edges = os.path.join(work, "tiny.edges")
    run.perfbench_json(bins, ["write-skg", "--k=10", "--id-seed=3",
                              "--out=" + edges], work)
    results = {}
    for backing in ("mmap", "ram"):
        data = run.perfbench_json(bins, [
            "bigraph", "--edges=" + edges, "--ingests=2",
            "--backing=" + backing], work)
        results[backing] = data
    golden = {"digest": run.digest(run.bigraph_result(results["ram"]))}
    expect(run.check_bigraph(results["mmap"], golden) == [],
           "mmap and in-RAM backings give identical theta and statistics")
    expect(len(results["mmap"]["ingest_s"]) == 2, "one time per ingest")
    other = os.path.join(work, "other.edges")
    run.perfbench_json(bins, ["write-skg", "--k=10", "--id-seed=4",
                              "--out=" + other], work)
    data = run.perfbench_json(bins, ["bigraph", "--edges=" + other,
                                     "--ingests=1"], work)
    expect(run.check_bigraph(data, golden) == [],
           "relabelled edge list gives the same theta and statistics")
    perturbed = copy.deepcopy(results["mmap"])
    perturbed["theta"][0] += 1e-12
    expect(run.check_bigraph(perturbed, golden) != [],
           "perturbed theta fails the golden check")


def test_serve(bins, work):
    dataset = os.path.join(work, "serve.edges")
    run.perfbench_json(bins, ["write-skg", "--k=10", "--out=" + dataset],
                       work)
    line = json.dumps({"analyst": "a", "scenario": "table1_parameters",
                       "dataset": dataset, "epsilon": 0.5, "seed": 3,
                       "request_id": "r1"})
    other = json.dumps({"analyst": "b", "scenario": "table1_parameters",
                        "dataset": dataset, "epsilon": 0.25, "seed": 4,
                        "request_id": "r2"})
    clients = [[("new", line), ("retry", line)], [("new", other)]]
    daemon, port, listening = run.start_daemon(
        bins, work, os.path.join(work, "acct.journal"))
    expect(listening > 0, "dpkrond listening time measured")
    records, errors = run.run_clients(port, clients)
    with socket.create_connection(("127.0.0.1", port)) as sock:
        healthz = run.send_line(sock.makefile("rb"), sock,
                                '{"type":"healthz"}')
    expect(run.stop_daemon(daemon) == 0, "dpkrond drains and exits 0")
    expect(not errors and len(records) == 3, "three replies")
    expect(all(r[3]["ok"] for r in records), "every reply is OK")
    expect(len(run.table1_parameters(records[0][3]["run"])) > 0,
           "replies carry the Table 1 parameters")
    expect(sum(1 for r in records if r[3].get("deduped")) == 1,
           "the retry is deduplicated")
    expect(run.check_accounting(records, healthz) == [],
           "acknowledged epsilon equals healthz epsilon_spent")
    perturbed = copy.deepcopy(records)
    perturbed[0][3]["charge"]["epsilon"] = 0.75
    expect(run.check_accounting(perturbed, healthz) != [],
           "perturbed reply fails the accounting check")
    expect(healthz["stats"]["deduped"] == 1 and
           all(c in healthz["stats"] for c in run.SERVER_COUNTERS),
           "healthz server counters")
    expect(daemon.peak_rss_mb > 0, "dpkrond peak RSS measured")


def main():
    bins = run.Bins(run.build())
    work = run.workload_dir("selftest", 0)
    try:
        test_contract()
        test_statistics()
        test_figures(bins, work)
        test_sweep(bins, work)
        test_bigraph(bins, work)
        test_serve(bins, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("# self-test: %d failure(s)" % len(FAILURES), flush=True)
    return 1 if FAILURES else 0
