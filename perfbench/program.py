"""Calls into the program made outside the timed operations."""

from __future__ import annotations

import time


def step_ratios(found: "dict[str, tuple[str, int, dict]]"
                ) -> "tuple[dict[str, float], float]":
    """Cluster-simulator speed of each found strategy against data parallel.

    ``found`` maps a problem name to ``(model, p, strategy)`` with the
    strategy as ``{node: [splits...]}``.  Returns ``{name: DP step time
    / found step time}`` and the mean seconds per `repro.api.simulate`
    call.  The simulator is deterministic, so so are the ratios.
    """
    from repro.api import Problem, simulate
    from repro.baselines.data_parallel import data_parallel_strategy
    from repro.core.strategy import Strategy

    ratios: dict[str, float] = {}
    seconds = 0.0
    for name, (model, p, assignment) in sorted(found.items()):
        prob = Problem.from_benchmark(model, p)
        strategy = Strategy({n: tuple(c) for n, c in assignment.items()})
        t0 = time.perf_counter()
        ours = simulate(prob, strategy).step_time
        dp = simulate(prob, data_parallel_strategy(prob.graph, p)).step_time
        seconds += time.perf_counter() - t0
        ratios[name] = dp / ours
    return ratios, seconds / (2 * len(found)) if found else 0.0
