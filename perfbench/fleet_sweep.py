"""fleet-sweep: repeated ``FleetSupervisor.run`` over a 24-task grid.

Each run drains the same seeded grid of small problems at two workers
in a fresh fleet directory, so it pays the supervisor, manifest, pool
and merge every time.  It shares ``WorkerPool`` with serve, so a
scheduler change that helps serve but slows sweeps shows here.

All sweeps run in this process, one after another, as a long-lived
caller of the fleet API would run them.  The first is an untimed
warm-up: it leaves this process's memos of problems (graphs and config
spaces) warm, so every timed sweep and the workers it forks skip those
builds, which a fresh ``pase sweep`` process pays.  ``setup_s`` is that
cold first sweep, import included, in a fresh interpreter.  Traced
sweeps wrap the supervisor's layers here and the search layers in the
pool workers, which inherit the wrappers when they fork.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import shutil
import sys
import time
from collections import defaultdict
from contextlib import nullcontext

import inputs
import spans
from measure import (Calibration, Outcome, PairedCalibration,
                     children_rss_mb, cpu_clock, enough_rounds, median,
                     overhead_share, self_rss_mb, timed_setup, traced_round,
                     trim_heap)

#: At least this many untraced runs (about 15 s on the seed code), so
#: the tail in the breakdown has a fixed percentile.
MIN_RUNS = 20


def _compute_seconds(fleet_dir: str) -> float:
    total = 0.0
    tasks = os.path.join(fleet_dir, "tasks")
    for tid in os.listdir(tasks):
        with open(os.path.join(tasks, tid, "result.json"),
                  encoding="utf-8") as fh:
            total += float(json.load(fh)["elapsed_seconds"])
    return total


def mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def run(seed: int, seconds: float, trace: bool, tmp: str) -> Outcome:
    # A sweep keeps both cores busy; so does its calibration.
    with PairedCalibration() as task:
        return sweeps(seed, seconds, trace, tmp, Calibration(task))


def sweeps(seed: int, seconds: float, trace: bool, tmp: str,
           calib: Calibration) -> Outcome:
    setup_s, refs, mismatches = timed_setup("fleet-sweep", seed)
    from repro.fleet import FleetSupervisor, SweepSpec

    spec = SweepSpec.from_dict(inputs.fleet_spec(seed))
    workers = inputs.FLEET_WORKERS
    limit = inputs.OP_LIMITS["fleet-sweep"]
    walls: dict[str, list[float]] = defaultdict(list)
    traced_walls: dict[str, list[float]] = defaultdict(list)
    pooled: list[float] = []
    cpus: list[float] = []
    rels: list[float] = []
    calib.sample()
    rec = spans.Recorder()
    roots: list[int] = []
    shares: list[float] = []
    spawned: list[float] = []
    reused: list[float] = []
    tasks_per_s: list[float] = []
    records = None
    attempted = failed = failed_checks = slo_met = 0
    t_begin = None
    i = 0   # sweep 0 is the warm-up; timed rounds count from sweep 1
    while t_begin is None or not (
            enough_rounds(i - 1, trace, MIN_RUNS) and
            time.perf_counter() - t_begin >= seconds):
        warm_up = i == 0
        traced = not warm_up and traced_round(i - 1, trace)
        fleet_dir = os.path.join(tmp, f"fleet-{i}")
        worker_dir = os.path.join(tmp, f"fleet-spans-{i}")
        i += 1
        attempted += 1
        gc.collect()
        trim_heap()   # the pool workers fork from this process
        supervisor = FleetSupervisor(spec, fleet_dir, workers=workers)
        patches = None
        if traced:
            os.makedirs(worker_dir)
            patches = spans.install_fleet(rec, worker_dir)
        try:
            with rec.span("fleet.run") if traced else nullcontext() as root:
                c0, t0 = cpu_clock(), time.perf_counter()
                report = supervisor.run()
                wall = time.perf_counter() - t0
                # The pool's workers are reaped when the run returns.
                cpu = cpu_clock() - c0
        except Exception as err:  # a failed sweep is a failed operation
            print(f"perfbench: sweep {i} failed: {err!r}", file=sys.stderr)
            failed += 1
            continue
        finally:
            if patches is not None:
                patches.restore()
            if warm_up:
                t_begin = time.perf_counter()
        calib.sample()
        if traced:
            roots.append(root)
            traced_walls["sweep"].append(wall)
            for doc in spans.read_task_docs(worker_dir):
                rec.merge_json(doc, root)
        elif not warm_up:
            walls["sweep"].append(wall)
            cpus.append(cpu)
            # A sweep's wall, not its CPU time: the CPU time moves by
            # up to 40% for stretches of several sweeps while the wall
            # and the calibration do not (see README.md).
            rels.append(wall / calib.around_last())
            pooled.append(wall)
        with open(report.results_path, "rb") as fh:
            merged = fh.read()
        if records is None:
            records = [json.loads(line) for line in merged.splitlines()]
        ok = (report.clean and refs["clean"]
              and report.tasks_total == refs["tasks"]
              and len(merged.splitlines()) == refs["tasks"]
              and hashlib.sha256(merged).hexdigest()
              == refs["results_sha256"])
        if not ok:
            failed += 1
            failed_checks += 1
        elif wall <= limit:
            slo_met += 1
        if ok and not warm_up:
            tasks_per_s.append(report.tasks_total / report.wall_seconds)
            shares.append(_compute_seconds(fleet_dir)
                          / (report.wall_seconds * workers))
            spawned.append(report.workers_spawned)
            reused.append(report.workers_reused)
        shutil.rmtree(fleet_dir, ignore_errors=True)
    peak_rss = max(self_rss_mb(), children_rss_mb())
    from program import step_ratios

    found = {}
    for rec_ in records or []:
        task = rec_["task"]
        found.setdefault(f"{task['model']}-p{task['p']}",
                         (task["model"], task["p"], rec_["strategy"]))
    ratios, sim_s = step_ratios(found)
    layers = {}
    if trace:
        layers = spans.layer_metrics(rec, roots)
        n = max(len(roots), 1)
        layers["fleet.manifest_flushes"] = \
            rec.counts.get("fleet.manifest_flushes", 0.0) / n
        layers["trace_overhead_share"] = overhead_share(traced_walls, walls)
        layers["cluster.simulate_s"] = sim_s
        layers["fleet.worker_compute_share"] = mean(shares)
        layers["fleet.workers_spawned"] = mean(spawned)
        layers["fleet.workers_reused"] = mean(reused)
    notes = {"tasks_per_s": median(tasks_per_s) if tasks_per_s else 0.0,
             "tasks_per_sweep": refs["tasks"]}
    return Outcome(
        setup_s=setup_s, cpu_s=median(cpus), cost_rel=median(rels),
        calib_s=calib.cpu_s,
        walls=dict(walls),
        tail_walls={"sweep": pooled},
        tail_min_n={"sweep": MIN_RUNS},
        slo_met=slo_met, attempted=attempted, failed=failed + mismatches,
        failed_checks=failed_checks + mismatches, step_ratios=ratios,
        peak_rss_mb=peak_rss, layers=layers, notes=notes,
        trace=spans.trace_doc(rec, roots) if trace else None)
