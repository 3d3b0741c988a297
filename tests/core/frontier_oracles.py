"""Parity oracles for the frontier DP (`repro.core.frontier`).

* `sort_pareto_prune` — the sort-based grouped Pareto prune the frontier
  DP used before the sort-free one: a stable (group, cost, memory)
  order, then one segmented running minimum over memory ranks.  The
  production prune must return identical index arrays, order included.
* `brute_force_frontier` — the exhaustive (cost, peak-bytes) frontier
  of a small problem.
"""

from __future__ import annotations

import itertools
import math
from typing import Mapping

import numpy as np

from repro.core.frontier import memory_tables
from repro.core.strategy import FrontierPoint, Strategy


def sort_pareto_prune(gid: np.ndarray, cost: np.ndarray, mem: np.ndarray,
                      *, eps: float = 0.0) -> np.ndarray:
    """Indices of each group's non-dominated points, by sorting.

    Same contract as `repro.core.frontier.pareto_prune`: within a group,
    ``j`` is dropped when some ``i`` is at least as good on both axes,
    strictly on one, or is an exact duplicate with a smaller index;
    survivors come back in (group, ascending cost) order; ``eps > 0``
    keeps the first point of each geometric ``(1 + eps)`` memory bucket.
    """
    n = int(cost.shape[0])
    if n == 0:
        return np.empty(0, dtype=np.int64)
    gid = np.asarray(gid, dtype=np.int64)
    if n > 1 and np.any(gid[1:] < gid[:-1]):
        raise ValueError("pareto_prune requires nondecreasing group ids")

    # O(n) pre-filter: each group's min-cost point (min memory among its
    # cost ties, value (gmin, m*)) dominates every point with mem >= m*
    # other than its own exact duplicates.
    gstart = np.empty(n, dtype=bool)
    gstart[0] = True
    gstart[1:] = gid[1:] != gid[:-1]
    starts = np.flatnonzero(gstart)
    counts = np.diff(np.append(starts, n))
    gmin = np.minimum.reduceat(cost, starts)
    on_min = cost == np.repeat(gmin, counts)
    m_star = np.minimum.reduceat(np.where(on_min, mem, np.inf), starts)
    m_star_p = np.repeat(m_star, counts)
    cand = (mem < m_star_p) | (on_min & (mem == m_star_p))
    idx0 = np.flatnonzero(cand)
    if idx0.shape[0] == starts.shape[0]:
        return idx0

    g2 = gid[idx0]
    c2 = cost[idx0]
    m2 = mem[idx0]
    k = int(idx0.shape[0])
    # For nonnegative floats the IEEE bit pattern is order- (and
    # equality-) preserving as int64, so the sorts can run on int64 keys
    # (NumPy's stable sort is a radix sort only for integers of 16 bits
    # or less; int64 gets timsort, like float64).  ``+ 0.0`` normalizes
    # -0.0; fall back to float keys on negative input.
    if np.min(c2) >= 0.0 and np.min(m2) >= 0.0:
        ck = (c2 + 0.0).view(np.int64)
        mk = (m2 + 0.0).view(np.int64)
    else:
        ck, mk = c2, m2
    # Stable (group, cost, mem) order from three composed stable
    # argsorts — np.lexsort((mk, ck, g2)), with the dense memory ranks
    # falling out of the first pass.
    o1 = np.argsort(mk, kind="stable")
    ms = mk[o1]
    ranks = np.empty(k, dtype=np.int64)
    step = np.empty(k, dtype=np.int64)
    step[0] = 0
    np.cumsum(ms[1:] != ms[:-1], out=step[1:])
    ranks[o1] = step
    o2 = o1[np.argsort(ck[o1], kind="stable")]
    order = o2[np.argsort(g2[o2], kind="stable")]
    g = g2[order]
    g2start = np.empty(k, dtype=bool)
    g2start[0] = True
    g2start[1:] = g[1:] != g[:-1]
    gdense = np.cumsum(g2start) - 1
    ngroups = int(gdense[-1]) + 1
    # Encode (group, mem rank) so one running min is a segmented one.
    base = np.int64(k + 1)
    enc = ranks[order] + (np.int64(ngroups) - 1 - gdense) * base
    run = np.minimum.accumulate(enc)
    keep = np.empty(k, dtype=bool)
    keep[0] = True
    keep[1:] = enc[1:] < run[:-1]
    if eps > 0.0:
        kidx = np.flatnonzero(keep)
        km = m2[order[kidx]]
        kg = gdense[kidx]
        bucket = np.floor(np.log(np.maximum(km, 1.0))
                          / math.log1p(eps)).astype(np.int64)
        first = np.empty(kidx.shape[0], dtype=bool)
        first[0] = True
        first[1:] = (kg[1:] != kg[:-1]) | (bucket[1:] != bucket[:-1])
        keep = np.zeros(k, dtype=bool)
        keep[kidx[first]] = True
    return idx0[order[keep]]


def brute_force_frontier(graph, space, tables, *,
                         mem_tables: "Mapping[str, np.ndarray] | None" = None,
                         ) -> tuple[FrontierPoint, ...]:
    """Exhaustive (cost, peak-bytes) frontier of a small problem.

    Enumerates every strategy of the space (exponential: small graphs
    only), prices each with `CostTables.strategy_cost` and the memory
    tables, and prunes to the non-dominated set.
    """
    if mem_tables is None:
        mem_tables = memory_tables(graph, space)
    names = list(space.tables)
    sizes = [space.size(nm) for nm in names]
    combos = list(itertools.product(*[range(s) for s in sizes]))
    costs = np.empty(len(combos), dtype=np.float64)
    mems = np.empty(len(combos), dtype=np.float64)
    for t, combo in enumerate(combos):
        idx = dict(zip(names, combo))
        costs[t] = tables.strategy_cost(idx)
        mems[t] = sum(float(mem_tables[nm][k]) for nm, k in idx.items())
    kept = sort_pareto_prune(np.zeros(len(combos), dtype=np.int64),
                             costs, mems)
    return tuple(
        FrontierPoint(cost=float(costs[j]), peak_bytes=float(mems[j]),
                      strategy=Strategy.from_indices(
                          space, dict(zip(names, combos[j]))))
        for j in kept)
