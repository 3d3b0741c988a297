"""Fleet sweep throughput: searches per minute at fleet width.

Drains a grid of journalled alexnet searches through the
`FleetSupervisor` at one and at ``FLEET_WORKERS`` workers, and records
searches/minute, scaling efficiency, worker reuse counts, and per-task
seconds in ``BENCH_fleet.json`` (override the path with
``PASE_BENCH_OUT``).

Two classes of assertion:

* **Determinism** — every task must succeed and every width must merge
  a byte-identical ``results.jsonl``.
* **Dispatch guards**, measured up to ``ROUNDS`` times (fresh fleet
  dirs, best round kept) before failing so one scheduler hiccup cannot
  flake CI:

  - *overhead*: at width 1, wall per task minus the mean worker
    ``elapsed_seconds`` (dispatch, hand-off, result write, reap) must
    stay under ``MAX_OVERHEAD_MS``;
  - *parallelism*: at width ``FLEET_WORKERS``, the workers' summed
    ``elapsed_seconds`` over the sweep's wall — the tasks the scheduler
    keeps in flight on average — must reach ``MIN_PARALLEL_SHARE`` of
    ``min(width, cores)``.  A dispatcher that runs one task at a time
    scores at most 1.

  Throughput at width N over width 1 is recorded but not asserted: it
  is capped by cores, and on a 2-core shared VM it swings between 0.8x
  and 1.6x for the same code as the host lends or takes a core.  The
  summed worker seconds stretch with such contention, so parallelism
  does not.

Needs no pytest-benchmark plugin, so CI can smoke it with the base test
toolchain:

    PYTHONPATH=src python -m pytest benchmarks/bench_fleet.py
"""

import json
import os

import pytest

from repro.fleet import FleetSupervisor, SweepSpec
from _config import FULL

#: Fleet width for the parallel measurement (the ISSUE floor is 4).
FLEET_WORKERS = 8 if FULL else 4

#: Grid size: models x ps x seeds.
N_SEEDS = 16 if FULL else 6

#: Width-1 per-task overhead bound (ms) beyond the worker's own seconds.
MAX_OVERHEAD_MS = 15.0

#: Share of min(width, cores) tasks the wide fleet must keep in flight.
MIN_PARALLEL_SHARE = 0.6

#: Fresh measurement rounds before the dispatch guards fail.
ROUNDS = 3

_RESULTS: dict[str, dict[str, float]] = {}


@pytest.fixture(scope="module", autouse=True)
def _write_results():
    yield
    if _RESULTS:
        out = os.environ.get("PASE_BENCH_OUT", "BENCH_fleet.json")
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(_RESULTS, fh, indent=2, sort_keys=True)
        print(f"\n# fleet sweep throughput written to {out}")


def _spec():
    return SweepSpec.from_dict({
        "models": ["alexnet"],
        "ps": [2, 4, 8],
        "methods": ["ours"],
        "seeds": list(range(N_SEEDS)),
    })


def _sweep(fleet_dir, workers):
    report = FleetSupervisor(
        _spec(), fleet_dir, workers=workers, backoff_base=0.01).run()
    assert report.clean, "benchmark sweep must not degrade"
    tasks = os.path.join(fleet_dir, "tasks")
    report.worker_seconds = sum(
        json.loads(open(os.path.join(tasks, tid, "result.json"),
                        encoding="utf-8").read())["elapsed_seconds"]
        for tid in os.listdir(tasks))
    return report


def _overhead_ms(rep):
    """Wall per task beyond the worker's own mean seconds."""
    return 1e3 * (rep.wall_seconds - rep.worker_seconds) / rep.tasks_total


def _parallelism(rep):
    """Tasks in flight on average: summed worker seconds over wall."""
    return rep.worker_seconds / rep.wall_seconds


def _record(label, rep):
    _RESULTS[label] = {
        "tasks": rep.tasks_total,
        "workers": rep.workers,
        "wall_seconds": round(rep.wall_seconds, 4),
        "searches_per_minute": round(rep.searches_per_minute, 2),
        "seconds_per_task": round(
            rep.wall_seconds / max(rep.tasks_total, 1), 5),
        "workers_spawned": rep.workers_spawned,
        "workers_reused": rep.workers_reused,
        "mean_worker_seconds": round(
            rep.worker_seconds / max(rep.tasks_total, 1), 5),
    }


def test_fleet_throughput(tmp_path):
    cores = len(os.sched_getaffinity(0))
    floor = MIN_PARALLEL_SHARE * min(FLEET_WORKERS, cores)
    serial = _sweep(tmp_path / "w1", workers=1)
    fleet = _sweep(tmp_path / "wN", workers=FLEET_WORKERS)
    rounds_used = 1
    for attempt in range(1, ROUNDS):
        if (_overhead_ms(serial) <= MAX_OVERHEAD_MS
                and _parallelism(fleet) >= floor):
            break
        rounds_used = attempt + 1
        rerun = _sweep(tmp_path / f"w1-r{attempt}", workers=1)
        if _overhead_ms(rerun) < _overhead_ms(serial):
            serial = rerun
        rerun = _sweep(tmp_path / f"wN-r{attempt}", workers=FLEET_WORKERS)
        if _parallelism(rerun) > _parallelism(fleet):
            fleet = rerun

    # Different widths, same answers, byte for byte.
    w1 = (tmp_path / "w1" / "results.jsonl").read_bytes()
    assert w1 == (tmp_path / "wN" / "results.jsonl").read_bytes()

    # The pool must actually reuse processes across the grid.
    assert fleet.workers_reused > 0, "persistent pool never reused a worker"
    assert serial.workers_spawned <= 2

    _record("workers_1", serial)
    _record(f"workers_{FLEET_WORKERS}", fleet)
    overhead, parallelism = _overhead_ms(serial), _parallelism(fleet)
    _RESULTS["scaling"] = {
        "width": FLEET_WORKERS,
        "cores": cores,
        "speedup": round(fleet.searches_per_minute /
                         max(serial.searches_per_minute, 1e-9), 3),
        "overhead_ms": round(overhead, 2),
        "max_overhead_ms": MAX_OVERHEAD_MS,
        "parallelism": round(parallelism, 3),
        "min_parallelism": round(floor, 3),
        "rounds_used": float(rounds_used),
    }

    assert overhead <= MAX_OVERHEAD_MS, \
        (f"width-1 fleet spends {overhead:.1f}ms per task beyond the "
         f"worker's own seconds; bound is {MAX_OVERHEAD_MS}ms")
    assert parallelism >= floor, \
        (f"width-{FLEET_WORKERS} fleet kept only {parallelism:.2f} tasks "
         f"in flight on average; floor is {floor:.2f} "
         f"({MIN_PARALLEL_SHARE} x min(width, {cores} cores))")
