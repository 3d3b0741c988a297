"""search-heavy: in-process ``repro.api.search`` calls on cold tables.

Each operation builds its problem and searches it with no table cache,
so table build, reduction, DP and frontier do nearly all the work.
Scalar and frontier problems share the code, so a frontier gain that
costs the scalar path shows.  Traced rounds wrap the layers in this
process; untraced rounds run the program as it is.
"""

from __future__ import annotations

import gc
import math
import sys
import time
from collections import defaultdict
from contextlib import nullcontext

import inputs
import spans
from measure import (Calibration, Outcome, class_geomean_of_medians,
                     cpu_clock, enough_rounds, median, overhead_share,
                     peak_rss_since_reset_mb, reset_peak_rss, timed_setup,
                     traced_round)

#: At least this many untraced rounds (about 15 s on the seed code), so
#: the pooled tail in the breakdown has a fixed percentile.
MIN_ROUNDS = 4


def non_dominated(points) -> bool:
    """No frontier point is at least as good as another on both axes."""
    for a in points:
        for b in points:
            if a is not b and a.cost <= b.cost and \
                    a.peak_bytes <= b.peak_bytes:
                return False
    return True


class Checker:
    """Output checks for one search; counts re-pricing in the last bits.

    Re-pricing through `CostTables.strategy_cost` sums the same terms as
    the DP in another order, so it may differ from the reported cost in
    the last bits; that is counted (``inexact``) and tolerated within
    ``REL_TOL``.  Every other comparison is exact.
    """

    REL_TOL = 1e-9

    def __init__(self, refs: dict) -> None:
        self.refs = refs
        self.repriced = 0
        self.inexact = 0

    def _reprice_ok(self, tables, space, strategy, cost: float) -> bool:
        got = tables.strategy_cost(strategy.to_indices(space))
        self.repriced += 1
        if got == cost:
            return True
        self.inexact += 1
        return math.isclose(got, cost, rel_tol=self.REL_TOL)

    def ok(self, problem: inputs.SearchProblem, prob, outcome) -> bool:
        res, tables = outcome.result, outcome.tables
        good = self._reprice_ok(tables, prob.space, res.strategy, res.cost)
        if not problem.is_frontier:
            return good
        for pt in res.frontier:
            good &= self._reprice_ok(tables, prob.space, pt.strategy,
                                     pt.cost)
        best = min(res.frontier, key=lambda pt: (pt.cost, pt.peak_bytes))
        ref = self.refs[f"{problem.model}-p{problem.p}"]
        return (good and best.cost == ref["cost"] and res.cost == ref["cost"]
                and non_dominated(res.frontier))


def run(seed: int, seconds: float, trace: bool, tmp: str) -> Outcome:
    setup_s, refs, mismatches = timed_setup("search-heavy", seed)
    from repro.api import Problem, search

    order = inputs.rounds(seed, "search-heavy", inputs.SEARCH_PROBLEMS)
    per_round = len(inputs.SEARCH_PROBLEMS)
    limit = inputs.OP_LIMITS["search-heavy"]
    checker = Checker(refs)
    walls: dict[str, list[float]] = defaultdict(list)
    cpus: dict[str, list[float]] = defaultdict(list)
    traced_walls: dict[str, list[float]] = defaultdict(list)
    pooled: list[float] = []
    found: dict[str, tuple] = {}
    rels: dict[str, list[float]] = defaultdict(list)
    peaks: dict[str, list[float]] = defaultdict(list)
    calib = Calibration()
    calib.sample()
    rec = spans.Recorder()
    roots: list[int] = []
    attempted = failed = failed_checks = slo_met = 0
    patches = None
    t_begin = time.perf_counter()
    i = 0
    while True:
        rnd = i // per_round
        if i % per_round == 0:
            if patches is not None:
                patches.restore()
                patches = None
            if enough_rounds(rnd, trace, MIN_ROUNDS) and \
                    time.perf_counter() - t_begin >= seconds:
                break
            if traced_round(rnd, trace):
                patches = spans.install_search(rec, "repro.api")
        problem = order[i]
        i += 1
        attempted += 1
        # Collect the previous operation's garbage outside the timing.
        gc.collect()
        reset_peak_rss()
        traced = patches is not None
        try:
            with rec.span("search.call") if traced else nullcontext() as root:
                c0, t0 = cpu_clock(), time.perf_counter()
                prob = Problem.from_benchmark(problem.model, problem.p)
                outcome = search(prob, reduce=problem.reduce,
                                 objective=problem.objective)
                wall = time.perf_counter() - t0
                cpu = cpu_clock() - c0
                peak = peak_rss_since_reset_mb()
        except Exception as err:  # a failed search is a failed operation
            print(f"perfbench: {problem.name} failed: {err!r}",
                  file=sys.stderr)
            failed += 1
            continue
        calib.sample()
        if traced:
            roots.append(root)
            traced_walls[problem.name].append(wall)
        else:
            walls[problem.name].append(wall)
            cpus[problem.name].append(cpu)
            rels[problem.name].append(cpu / calib.around_last())
            peaks[problem.name].append(peak)
            pooled.append(wall)
        if not checker.ok(problem, prob, outcome):
            failed += 1
            failed_checks += 1
        elif wall <= limit:
            slo_met += 1
        key = f"{problem.model}-p{problem.p}"
        found.setdefault(key, (problem.model, problem.p, {
            n: list(c) for n, c in outcome.result.strategy.assignment.items()}))
    # The largest problem's typical peak: a single call's peak moves
    # with what the allocator kept from earlier calls.
    peak_rss = max(median(v) for v in peaks.values())
    from program import step_ratios

    ratios, sim_s = step_ratios(found)
    layers = {}
    if trace:
        layers = spans.layer_metrics(rec, roots)
        layers["trace_overhead_share"] = overhead_share(traced_walls, walls)
        layers["cluster.simulate_s"] = sim_s
        layers["checks.reprice_inexact_share"] = (
            checker.inexact / checker.repriced if checker.repriced else 0.0)
    scalar = {k: v for k, v in walls.items() if k.startswith("scalar.")}
    frontier = {k: v for k, v in walls.items() if k.startswith("frontier.")}
    notes = {"reprice_inexact": f"{checker.inexact} of {checker.repriced} "
             "re-priced costs differ from the reported cost in the last bits"}
    if scalar and frontier:
        notes["search_s"] = class_geomean_of_medians(scalar)
        notes["frontier_s"] = class_geomean_of_medians(frontier)
    return Outcome(
        setup_s=setup_s, cpu_s=class_geomean_of_medians(cpus),
        cost_rel=class_geomean_of_medians(rels), calib_s=calib.cpu_s,
        walls=dict(walls), tail_walls={"call": pooled},
        tail_min_n={"call": MIN_ROUNDS * per_round},
        slo_met=slo_met, attempted=attempted, failed=failed + mismatches,
        failed_checks=failed_checks + mismatches, step_ratios=ratios,
        peak_rss_mb=peak_rss, layers=layers, notes=notes,
        trace=spans.trace_doc(rec, roots) if trace else None)
