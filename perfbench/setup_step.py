"""One workload's set-up, in a fresh interpreter.

Usage: ``python perfbench/setup_step.py <workload> <seed> <refs: 0|1>``

First does what the workload needs before it can be timed: the imports
its caller makes, and for fleet-sweep one full sweep (pool started,
process memos warm).  The clock reading when that is done is the
``ready`` time.  Then, outside that time and only when asked, computes
the reference answers the workload's output checks compare against,
with in-process ``repro.api.search`` calls.  Prints
``{"ready": <time.perf_counter()>, "refs": ...}`` as one JSON line.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import tempfile
import time

import inputs


def _answer(model: str, p: int) -> dict:
    from repro.api import Problem, search

    prob = Problem.from_benchmark(model, p)
    result = search(prob).result
    return {"cost": result.cost,
            "cost_line": f"{result.cost:.6e}",
            "table": result.strategy.format_table(prob.graph),
            "strategy": {n: list(c)
                         for n, c in result.strategy.assignment.items()}}


def sweep_once(seed: int) -> dict:
    """Run the workload's sweep once; its size and merged output's hash."""
    from repro.fleet import FleetSupervisor, SweepSpec

    spec = SweepSpec.from_dict(inputs.fleet_spec(seed))
    fleet_dir = tempfile.mkdtemp(prefix="setup-fleet-")
    try:
        report = FleetSupervisor(spec, fleet_dir,
                                 workers=inputs.FLEET_WORKERS).run()
        with open(report.results_path, "rb") as fh:
            merged = fh.read()
    finally:
        shutil.rmtree(fleet_dir, ignore_errors=True)
    return {"tasks": len(spec.expand()), "clean": report.clean,
            "results_sha256": hashlib.sha256(merged).hexdigest()}


def main(workload: str, seed: int, want_refs: bool) -> dict:
    refs = None
    if workload == "cli-cold":
        import repro.cli  # noqa: F401  (the caller's import)

        ready = time.perf_counter()
        if want_refs:
            refs = {f"{m}-p{inputs.CLI_P}": _answer(m, inputs.CLI_P)
                    for m in inputs.CLI_MODELS}
    elif workload == "search-heavy":
        from repro.api import Problem, search  # noqa: F401

        ready = time.perf_counter()
        if want_refs:
            # Scalar optima the frontiers' min-cost points must equal.
            refs = {f"{pr.model}-p{pr.p}": _answer(pr.model, pr.p)
                    for pr in inputs.SEARCH_PROBLEMS if pr.is_frontier}
    elif workload == "serve-mixed":
        # The server's own start-up is timed by the caller.
        ready = time.perf_counter()
        if want_refs:
            refs = {f"{m}-p{p}": _answer(m, p)
                    for m, p in inputs.SERVE_PROBLEMS}
    elif workload == "fleet-sweep":
        refs = sweep_once(seed)
        ready = time.perf_counter()
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"ready": ready, "refs": refs}


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"),
                     sort_keys=True))
