"""The benchmark's own tests: seeded inputs, metric names, statistics.

Run from the root of the repository::

    python -m pytest perfbench/test_perfbench.py -q
"""

import json
import os
import random
import re
import shutil
import subprocess
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inputs  # noqa: E402
import spans  # noqa: E402
from measure import (BENCH_DIR, ROOT, TAIL_BEYOND, Calibration,  # noqa: E402
                     PairedCalibration, cpu_clock, geomean, overhead_share,
                     peak_rss_since_reset_mb, reset_peak_rss, run_child,
                     tail, tree_cpu_s)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- seeded inputs ------------------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda seed: inputs.rounds(seed, "cli-cold", inputs.CLI_MODELS),
    lambda seed: inputs.rounds(seed, "search-heavy", inputs.SEARCH_PROBLEMS),
    lambda seed: inputs.serve_plan(seed, 20.0),
    inputs.fleet_spec,
])
def test_same_seed_same_inputs(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_rounds_are_balanced_and_differ_per_workload():
    order = inputs.rounds(3, "cli-cold", inputs.CLI_MODELS)
    n = len(inputs.CLI_MODELS)
    for k in range(0, 40, n):
        assert sorted(order[k:k + n]) == sorted(inputs.CLI_MODELS)
    assert order != inputs.rounds(3, "search-heavy", inputs.CLI_MODELS)


def test_serve_plan_counts_are_fixed():
    hot, load = inputs.serve_plan(5, 20.0)
    assert len(load) == round(inputs.SERVE_RATE * 20.0)
    hits = [r for r in load if r.kind == "hit"]
    misses = [r for r in load if r.kind == "miss"]
    assert len(hits) == round(len(load) * inputs.SERVE_HIT_SHARE)
    hot_keys = {(h.model, h.p, h.seed) for h in hot}
    assert all((r.model, r.p, r.seed) in hot_keys for r in hits)
    # Every miss is a fingerprint no other request carries.
    seeds = [r.seed for r in misses]
    assert len(set(seeds)) == len(seeds)
    assert not set(seeds) & {h.seed for h in hot}
    assert [r.due for r in load] == sorted(r.due for r in load)


def test_fleet_grid_has_24_tasks():
    spec = inputs.fleet_spec(1)
    size = (len(spec["models"]) * len(spec["ps"]) * len(spec["seeds"])
            * len(spec["methods"]))
    assert size == 24


# -- BENCHMARK.json -------------------------------------------------------------

def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(inputs.WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


@pytest.mark.parametrize("metric", SPEC["end_to_end"] + SPEC["per_layer"],
                         ids=lambda m: m["name"])
def test_metric_names_and_units(metric):
    assert NAME.match(metric["name"])
    assert UNIT.match(metric["unit"])
    assert metric["better"] in ("lower", "higher")


# -- statistics -----------------------------------------------------------------

@pytest.mark.parametrize("n", [11, 12, 37, 100, 1000])
def test_tail_rule_at_the_guaranteed_count(n):
    rng = random.Random(n)
    values = [rng.lognormvariate(0, 1) for _ in range(n)]
    value, pct, count = tail(values, n)
    assert count == n
    assert sum(v > value for v in values) == TAIL_BEYOND
    # It is the highest such percentile: no higher sample has ten beyond.
    higher = [v for v in values if v > value]
    assert all(sum(w > v for w in values) < TAIL_BEYOND for v in higher)
    assert pct == pytest.approx(100.0 * (n - TAIL_BEYOND) / n)


@pytest.mark.parametrize("min_n,n", [(11, 11), (20, 21), (20, 27),
                                     (32, 40), (32, 48), (100, 100)])
def test_tail_percentile_is_fixed_above_the_guaranteed_count(min_n, n):
    rng = random.Random(min_n * n)
    values = [rng.lognormvariate(0, 1) for _ in range(n)]
    value, pct, count = tail(values, min_n)
    assert pct == pytest.approx(100.0 * (min_n - TAIL_BEYOND) / min_n)
    assert count == n
    assert sum(v > value for v in values) >= TAIL_BEYOND
    # The nearest-rank percentile: at least pct% of samples are <= it.
    assert sum(v <= value for v in values) >= pct / 100.0 * n


def test_tail_needs_enough_samples():
    with pytest.raises(ValueError):
        tail([1.0] * TAIL_BEYOND, TAIL_BEYOND)
    with pytest.raises(ValueError):
        tail([1.0] * 15, 20)


def test_tail_with_ties_counts_beyond_by_rank():
    values = [1.0] * 5 + [2.0] * 20
    value, _, _ = tail(values, len(values))
    assert value == 2.0
    assert sum(v >= value for v in values) >= TAIL_BEYOND + 1


def test_geomean_and_overhead():
    assert geomean([1.0, 4.0]) == pytest.approx(2.0)
    assert overhead_share({"a": [1.1]}, {"a": [1.0]}) == pytest.approx(0.1)
    assert overhead_share({"a": []}, {"a": [1.0]}) == 0.0


def test_layers_and_remainder_sum_to_wall():
    rec = spans.Recorder()
    root = rec.add("op", 0.0, 10.0)
    a = rec.add("costmodel.build", 1.0, 4.0, root)
    rec.add("dp", 2.0, 3.0, a)
    rec.add("dp", 5.0, 7.0, root)
    rec.add("trace.install", 7.5, 8.0, root)
    times = spans.self_times(rec, [root])
    assert times["costmodel.build"] == pytest.approx(2.0)
    assert times["dp"] == pytest.approx(3.0)
    assert sum(times.values()) == pytest.approx(10.0)
    layers = spans.layer_metrics(rec, [root])
    timed = sum(v for k, v in layers.items()
                if k.endswith("_s") or k.endswith(".s"))
    assert timed == pytest.approx(10.0)
    assert layers["unattributed_s"] == pytest.approx(5.0)


def test_concurrent_spans_split_the_wall_evenly():
    rec = spans.Recorder()
    root = rec.add("op", 0.0, 10.0)
    rec.add("fleet.pool", 0.0, 1.0, root)
    w1 = rec.add("worker.task", 1.0, 7.0, root)
    rec.add("dp", 2.0, 6.0, w1)
    w2 = rec.add("worker.task", 3.0, 9.0, root)
    rec.add("dp", 4.0, 12.0, w2)          # clipped to its parent, at 9.0
    times = spans.self_times(rec, [root])
    # 3-4: worker 1's dp and worker 2 share; 4-6: both dps share.
    assert times["dp"] == pytest.approx(1.5 + 2.0 + 2.5)
    assert times["worker.task"] == pytest.approx(1.0 + 0.5 + 0.5)
    assert times["fleet.pool"] == pytest.approx(1.0)
    assert times["unattributed"] == pytest.approx(1.0)
    assert sum(times.values()) == pytest.approx(10.0)


def test_graft_from_a_child_process_document():
    child = spans.Recorder()
    with child.span("worker.task"):
        with child.span("runtime"):
            child.count("dp.cells", 5.0)
    doc = {"task": ["rnnlm", 2, 1], **child.to_json()}
    rec = spans.Recorder()
    root = rec.add("op", child.spans[0].start - 1.0,
                   child.spans[-1].end + 1.0)
    rec.merge_json(json.loads(json.dumps(doc)), root)
    assert {s.name for s in rec.spans} == {"op", "worker.task", "runtime"}
    assert rec.counts["dp.cells"] == 5.0
    times = spans.self_times(rec, [root])
    assert sum(times.values()) == pytest.approx(
        rec.spans[0].end - rec.spans[0].start)


def _program():
    pytest.importorskip("numpy")
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        pytest.skip("program sources not present")
    if src not in sys.path:
        sys.path.insert(0, src)


def test_patches_restore_originals(tmp_path):
    _program()
    import repro.api
    from repro.core.configs import ConfigSpace
    from repro.models import BENCHMARKS

    before = (repro.api.execute_search, ConfigSpace.__dict__["build"],
              dict(BENCHMARKS))
    rec = spans.Recorder()
    patches = spans.install_search(rec, "repro.api")
    repro.api.search(repro.api.Problem.from_benchmark("rnnlm", 2))
    patches.restore()
    assert before == (repro.api.execute_search,
                      ConfigSpace.__dict__["build"], dict(BENCHMARKS))
    names = {s.name for s in rec.spans}
    assert {"models.build", "configs.build", "runtime", "costmodel.build",
            "dp", "sequencer"} <= names
    assert rec.counts["runtime.searches"] == 1

    import repro.fleet.supervisor as supervisor
    import repro.fleet.worker as worker
    import repro.runtime.run as runtime_run
    from repro.fleet.manifest import FleetManifest
    from repro.fleet.pool import WorkerPool

    def originals():
        return (vars(FleetManifest)["flush"], supervisor.merge_results,
                vars(WorkerPool)["submit"], worker.run_task_attempt,
                runtime_run.execute_search)

    before = originals()
    spans.install_fleet(spans.Recorder(), str(tmp_path)).restore()
    assert before == originals()


def test_pool_workers_record_their_tasks(tmp_path):
    _program()
    from repro.fleet import FleetSupervisor, SweepSpec

    spec = SweepSpec.from_dict({"models": ["rnnlm"], "ps": [2],
                                "methods": ["ours"], "seeds": [1, 2]})
    rec = spans.Recorder()
    patches = spans.install_fleet(rec, str(tmp_path))
    try:
        with rec.span("fleet.run") as root:
            report = FleetSupervisor(spec, str(tmp_path / "fleet"),
                                     workers=2).run()
    finally:
        patches.restore()
    assert report.clean
    docs = spans.read_task_docs(str(tmp_path))
    assert sorted(d["task"] for d in docs) == [["rnnlm", 2, 1],
                                               ["rnnlm", 2, 2]]
    for doc in docs:
        rec.merge_json(doc, root)
    layers = spans.layer_metrics(rec, [root])
    assert layers["runtime.self_s"] > 0 and layers["worker.self_s"] > 0
    assert layers["dp.cells"] > 0
    timed = sum(v for k, v in layers.items()
                if k.endswith("_s") or k.endswith(".s"))
    wall = rec.last("fleet.run")
    assert timed == pytest.approx(wall.end - wall.start)


# -- CPU clocks ---------------------------------------------------------------

BURN = ("import time\nt = time.process_time()\n"
        "while time.process_time() - t < 0.3: pass")


def test_child_cpu_counts_the_child_work():
    c = run_child(["-c", BURN])
    assert c.returncode == 0
    assert 0.3 <= c.cpu_s <= c.end - c.start + 0.05


def test_cpu_clock_counts_reaped_children():
    c0 = cpu_clock()
    subprocess.run([sys.executable, "-c", BURN], check=True)
    assert cpu_clock() - c0 >= 0.3


def test_tree_cpu_counts_live_descendants():
    # A child that runs one burning grandchild to its end, then starts
    # another that burns and stays alive until the child's stdin closes.
    stay = BURN + "\nimport sys\nsys.stdin.read()"
    script = ("import subprocess, sys\n"
              f"subprocess.run([sys.executable, '-c', {BURN!r}])\n"
              f"p = subprocess.Popen([sys.executable, '-c', {stay!r}], "
              "stdin=subprocess.PIPE)\n"
              "print('ready', flush=True)\n"
              "sys.stdin.read()\np.stdin.close()\np.wait()\n")
    proc = subprocess.Popen([sys.executable, "-c", script],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        assert proc.stdout.readline() == b"ready\n"
        deadline = time.monotonic() + 30
        while tree_cpu_s(proc.pid) < 0.6 and time.monotonic() < deadline:
            time.sleep(0.05)
        # The reaped grandchild and the live one both count.
        assert tree_cpu_s(proc.pid) >= 0.6
    finally:
        proc.stdin.close()
        proc.wait()
        proc.stdout.close()
    assert tree_cpu_s(proc.pid) == 0.0   # gone: nothing left to read


def test_peak_rss_since_reset_covers_only_what_follows():
    reset_peak_rss()
    block = b"x" * (64 << 20)   # written: every page touched
    assert peak_rss_since_reset_mb() >= 64
    del block
    reset_peak_rss()
    assert peak_rss_since_reset_mb() < 64


def test_calibration_divides_by_the_samples_around_an_operation():
    times = iter([1.0, 3.0, 5.0])
    calib = Calibration(lambda: next(times))
    calib.sample(2)
    assert calib.around_last() == 2.0
    calib.sample()
    assert calib.around_last() == 4.0
    assert calib.cpu_s == 3.0


def test_calibration_across_cpus_restores_the_affinity():
    before = os.sched_getaffinity(0)
    seen = []
    calib = Calibration(lambda: seen.append(os.sched_getaffinity(0)) or 1.0,
                        across_cpus=True)
    calib.sample()
    assert calib.samples == [1.0]
    assert seen == [{cpu} for cpu in sorted(before)]
    assert os.sched_getaffinity(0) == before


def test_paired_calibration_stops_its_helpers():
    with PairedCalibration() as task:
        assert all(task() > 0 for _ in range(2))
        helpers = list(task.helpers)
    assert all(h.returncode == 0 for h in helpers)


def test_calibration_samples_in_a_thread_while_the_block_runs():
    with Calibration(lambda: 1.0).sampling(0.01) as calib:
        deadline = time.monotonic() + 10
        while len(calib.samples) < 3 and time.monotonic() < deadline:
            time.sleep(0.01)
    n = len(calib.samples)
    assert n >= 3
    time.sleep(0.05)
    assert len(calib.samples) == n   # stopped with the block


# -- the command ----------------------------------------------------------------

def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
