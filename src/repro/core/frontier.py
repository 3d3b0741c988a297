"""Pareto-frontier dynamic program: cost × per-device memory (TensorOpt).

The scalar DP (`repro.core.dp`) answers "the one fastest strategy"; the
production question (PAPERS.md, TensorOpt) is the *frontier* of
(step time, per-device memory) tradeoffs — you pick a point after you
know the cluster's memory headroom.  This module runs the same
recurrence (4) over the same sequenced orderings, but each DP state
carries a pruned set of non-dominated ``(cost, peak_bytes)`` pairs
instead of a scalar min.

Exactness and bit-identity contracts
------------------------------------

* The frontier is **exact**: only dominated pairs are pruned (strict
  partial order, deterministic lexicographic tie-break), unless the
  optional ``eps`` coarsening knob is set, in which case within each
  state at most one point per geometric memory bucket of width
  ``(1 + eps)`` survives (the min-cost point is always exact).
* The frontier's **min-cost point carries a cost bit-identical to the
  scalar DP optimum**: per cell the cost accumulation ``((lc + tx…) +
  child₁) + child₂`` uses the scalar DP's exact association and float
  addition is monotone, so each state's min-cost point is the exact
  scalar table value.  (Its *strategy* is a min-cost witness — among
  exact cost ties the prune deterministically keeps the lowest-memory
  one, which need not be the scalar argmin's first-occurrence pick.)

Representation: the point table of vertex ``i`` is CSR over the cells
of its dependent set ``D(i)`` — ``offsets [cells+1]``, per-point
``cost``/``mem`` float64, the vertex's own configuration index ``k``,
and one back-pointer column per consumed child (the point index inside
the child's projected cell).  Children are merged one at a time as a
per-cell Minkowski sum followed by a grouped Pareto prune, all
vectorized, with no Python-level per-cell loop and no sort:

* the prune peels (`_peel`): each round takes every group's min-cost
  point with segmented minima and drops all it dominates, so successive
  rounds yield each group's frontier in cost order, laid out by
  (group, round);
* each chunk of a merge is built the cheapest way its cells allow —
  one point on both sides is the scalar DP's add (`_chunk_dense`);
  otherwise every pair is expanded (`_chunk_generic`), and where one
  side is a singleton each cell is a presorted run, pruned in one pass
  when groups are cells (`_prune_runs`).

Memory is accounted against the same byte budget as the scalar DP and
exceeded budgets raise `SearchResourceError` (Table I's "OOM").
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from ..obs.profile import current_metrics, current_tracer
from .configs import ConfigSpace
from .costmodel import CostTables
from .dp import (DEFAULT_CHUNK_CELLS, DEFAULT_MEMORY_BUDGET, _bypass_ratio,
                 _resolve_reduce_mode, dp_table_profile)
from .exceptions import SearchResourceError, StrategyError
from .graph import CompGraph
from .sequencer import SequencedGraph, generate_seq
from .strategy import FrontierPoint, SearchResult, Strategy
from ._tensorops import aligned_term

__all__ = ["Objective", "parse_objective", "find_frontier_strategy",
           "pareto_prune", "memory_tables", "strategy_peak_bytes"]


@dataclass(frozen=True)
class Objective:
    """A parsed search objective: scalar cost or the Pareto frontier."""

    kind: str        # "cost" | "frontier"
    eps: float = 0.0

    @property
    def is_frontier(self) -> bool:
        return self.kind == "frontier"

    @property
    def canonical(self) -> str:
        """The canonical string spelling (what fingerprints embed)."""
        if self.kind == "cost":
            return "cost"
        if self.eps > 0.0:
            return f"frontier:eps={self.eps:g}"
        return "frontier"


def parse_objective(objective: "str | Objective") -> Objective:
    """Parse an objective spelling: ``"cost"``, ``"frontier"``, or
    ``"frontier:eps=<float>"`` (a non-negative coarsening knob)."""
    if isinstance(objective, Objective):
        return objective
    if not isinstance(objective, str):
        raise ValueError(
            f"objective must be a string, got {type(objective).__name__}")
    text = objective.strip()
    if text == "cost":
        return Objective("cost")
    if text == "frontier":
        return Objective("frontier")
    if text.startswith("frontier:"):
        eps = 0.0
        for part in text[len("frontier:"):].split(","):
            key, sep, val = part.partition("=")
            if key.strip() != "eps" or not sep:
                raise ValueError(
                    f"unknown frontier option {part.strip()!r} in "
                    f"{objective!r}; expected 'frontier:eps=<float>'")
            try:
                eps = float(val)
            except ValueError:
                raise ValueError(
                    f"frontier eps must be a float, got {val!r}") from None
            if not math.isfinite(eps) or eps < 0.0:
                raise ValueError(
                    f"frontier eps must be finite and >= 0, got {eps!r}")
        return Objective("frontier", eps)
    raise ValueError(
        f"unknown objective {objective!r}; expected 'cost', 'frontier', "
        f"or 'frontier:eps=<float>'")


def memory_tables(graph: CompGraph, space: ConfigSpace,
                  ) -> dict[str, np.ndarray]:
    """Per-node per-config memory tables, ``name -> float64 [K]`` bytes.

    The second objective axis: `MemoryModel.node_bytes` vectorized over
    each node's enumerated configurations — parameter shards with
    optimizer state, activation shards, and communication buffers.
    """
    from ..analysis.memory import MemoryModel

    mm = MemoryModel()
    return {name: np.ascontiguousarray(
                mm.node_bytes(graph.node(name), tab), dtype=np.float64)
            for name, tab in space.tables.items()}


def strategy_peak_bytes(graph: CompGraph, space: ConfigSpace,
                        strategy: Strategy, *,
                        mem_tables: "Mapping[str, np.ndarray] | None" = None,
                        ) -> float:
    """One strategy's peak bytes — the frontier's second axis, priced the
    way the frontier DP prices it (``Σ_v mem[v][k_v]``), so a scalar
    run's synthesized length-1 frontier is comparable to a real one."""
    if mem_tables is None:
        mem_tables = memory_tables(graph, space)
    idx = strategy.to_indices(space)
    return float(sum(float(mem_tables[n][k]) for n, k in idx.items()))


# ---------------------------------------------------------------------------
# Grouped Pareto prune
# ---------------------------------------------------------------------------

def pareto_prune(gid: np.ndarray, cost: np.ndarray, mem: np.ndarray, *,
                 eps: float = 0.0) -> np.ndarray:
    """Indices of the non-dominated points of each group, vectorized.

    Within each group (DP cell), point ``j`` is dropped when some point
    ``i`` has ``cost[i] <= cost[j]`` and ``mem[i] <= mem[j]`` — strict
    somewhere, with the deterministic tie-break that among exactly-equal
    pairs the earliest original index survives.

    Returns int64 indices into the inputs, ordered by (group, ascending
    cost, ascending mem); within a group the survivors' memory is
    strictly decreasing, and the group's first survivor is its min-cost
    point (min-memory among exact cost ties).

    With ``eps > 0``, survivors are additionally coarsened to one point
    per geometric memory bucket of width ``(1 + eps)`` — the kept point
    is the bucket's min-cost one, and each group's overall min-cost
    point is always exact.

    Exact in every float comparison: the prune only compares input
    values (`_peel` below), never sorts or offsets them.
    """
    n = int(cost.shape[0])
    if n == 0:
        return np.empty(0, dtype=np.int64)
    gid = np.asarray(gid, dtype=np.int64)
    if n > 1 and np.any(gid[1:] < gid[:-1]):
        raise ValueError("pareto_prune requires nondecreasing group ids")
    gstart = np.empty(n, dtype=bool)
    gstart[0] = True
    gstart[1:] = gid[1:] != gid[:-1]
    return _peel(np.flatnonzero(gstart), cost, mem, eps=eps)


def _peel_round(starts: np.ndarray, counts: "np.ndarray | int",
                cost: np.ndarray, mem: np.ndarray,
                ) -> tuple[np.ndarray, np.ndarray]:
    """One peeling round over contiguous groups of ``counts`` points
    beginning at ``starts`` (an int ``counts``: every group that size).

    Returns each group's pick — its min-cost point, min memory among
    exact cost ties, earliest index among exact pairs — and the mask of
    points strictly below the pick's memory (the only ones a later
    round can keep).
    """
    n = cost.shape[0]
    n_groups = starts.shape[0]
    if n_groups == n:
        return np.arange(n, dtype=np.int64), np.zeros(n, dtype=bool)
    if isinstance(counts, int):
        shape = (n_groups, counts)

        def spread(v):
            return v[:, None]
    else:
        shape = (n,)

        def spread(v):
            return np.repeat(v, counts)
    gmin = np.minimum.reduceat(cost, starts)
    on_min = np.flatnonzero(cost.reshape(shape) == spread(gmin))
    if on_min.shape[0] == n_groups:
        picks = on_min
        m_star = mem[on_min]
    else:
        # Some group ties on cost: reduce memory over the tied points.
        first = np.searchsorted(on_min, starts)
        m_on = mem[on_min]
        m_star = np.minimum.reduceat(m_on, first)
        hits = on_min[m_on == np.repeat(
            m_star, np.diff(first, append=on_min.shape[0]))]
        picks = (hits if hits.shape[0] == n_groups
                 else hits[np.searchsorted(hits, starts)])
    return picks, (mem.reshape(shape) < spread(m_star)).reshape(-1)


def _peel(starts: np.ndarray, cost: np.ndarray, mem: np.ndarray, *,
          eps: float, size: int = 0) -> np.ndarray:
    """Grouped exact Pareto prune by repeated segmented minima.

    Groups are contiguous and begin at ``starts`` (``size > 0``: every
    group has exactly that many points).  Round ``r`` takes each
    group's pick among its remaining points (`_peel_round`), then drops
    every point with memory ``>=`` the pick's: what is left is exactly
    what the pick does not dominate, so the picks of successive rounds
    are the group's frontier in ascending cost.  Survivors are placed
    by (group, round) — a group's frontier size is the number of rounds
    it took part in — so the output needs no sort.  Round one runs over
    every point (the O(n) pre-filter); later rounds only over the
    shrinking remainder, compacted in place order.
    """
    n_groups = starts.shape[0]
    counts = size or np.diff(starts, append=cost.shape[0])
    first, below = _peel_round(starts, counts, cost, mem)
    rest = np.flatnonzero(below)
    if rest.shape[0] == 0:
        return first
    rounds = [(first, np.arange(n_groups, dtype=np.int64))]
    c = cost[rest]
    m = mem[rest]
    while rest.shape[0]:
        counts, starts, grp = _live_groups(below, starts, rounds[-1][1])
        picks, below = _peel_round(starts, counts, c, m)
        rounds.append((rest[picks], grp))
        rest, c, m = rest[below], c[below], m[below]
    out, per_group = _place(rounds, n_groups)
    if eps > 0.0:
        out = out[_coarsen_mask(mem[out], per_group, eps)]
    return out


def _prune_runs(starts: np.ndarray, cost: np.ndarray, mem: np.ndarray, *,
                eps: float) -> np.ndarray:
    """`_peel`'s result when each group is one presorted run.

    A run is a frontier shifted by a constant: cost nondecreasing and
    memory nonincreasing, strict order lost only where the shift rounds
    neighbours together.  A point then survives exactly when its memory
    is below its predecessor's in the group and no later point of its
    exact-cost tie has less memory — one pass, no rounds.
    """
    n = cost.shape[0]
    head = np.zeros(n, dtype=bool)
    head[starts] = True
    keep = head.copy()
    keep[1:] |= mem[1:] != mem[:-1]
    tied = head.copy()
    tied[1:] |= cost[1:] != cost[:-1]
    if not tied.all():
        # Rare: some exact-cost tie runs; each keeps at most its last
        # (min-memory) value.
        tie_end = np.append(np.flatnonzero(tied[1:]), n - 1)
        keep &= mem == mem[tie_end][np.cumsum(tied) - 1]
    kept = np.flatnonzero(keep)
    if eps > 0.0:
        size = np.add.reduceat(keep, starts, dtype=np.int64)
        kept = kept[_coarsen_mask(mem[kept], size, eps)]
    return kept


def _live_groups(alive: np.ndarray, starts: np.ndarray, grp: np.ndarray):
    """Regroup the points still ``alive``: per surviving group its new
    count and start in the compacted arrays, and its group id."""
    counts = np.add.reduceat(alive, starts, dtype=np.int64)
    live = counts > 0
    counts = counts[live]
    return counts, np.cumsum(counts) - counts, grp[live]


def _place(rounds: list[tuple[np.ndarray, np.ndarray]], n_groups: int,
           ) -> tuple[np.ndarray, np.ndarray]:
    """Lay per-round picks out by (group, round), without a sort.

    ``rounds[r]`` is ``(picks, groups)``: round ``r``'s picks and the
    ascending groups that made them.  Round 0 covers every group and a
    group picks in each round until it runs out, so a pick's slot is
    its group's base plus ``r``.  Returns the placed picks and each
    group's pick count.
    """
    size = np.bincount(np.concatenate([grp for _, grp in rounds]),
                       minlength=n_groups)
    base = np.cumsum(size) - size
    out = np.empty(int(base[-1] + size[-1]), dtype=np.int64)
    for r, (picks, grp) in enumerate(rounds):
        out[base[grp] + r] = picks
    return out, size


def _coarsen_mask(mem: np.ndarray, size: np.ndarray, eps: float,
                  ) -> np.ndarray:
    """``eps`` coarsening of placed frontiers (``size`` points per group,
    memory strictly decreasing): keep the first — min-cost — point of
    each run of equal geometric memory bucket ``(1 + eps)``."""
    og = np.repeat(np.arange(size.shape[0], dtype=np.int64), size)
    bucket = np.floor(np.log(np.maximum(mem, 1.0))
                      / math.log1p(eps)).astype(np.int64)
    keep = np.empty(mem.shape[0], dtype=bool)
    keep[0] = True
    keep[1:] = (og[1:] != og[:-1]) | (bucket[1:] != bucket[:-1])
    return keep


# ---------------------------------------------------------------------------
# Point tables
# ---------------------------------------------------------------------------

@dataclass
class _PointRecord:
    """Stored frontier state for one sequenced vertex (CSR point table)."""

    axes: tuple[int, ...]        # D(i) positions labelling the cells
    offsets: np.ndarray          # int64 [cells + 1]
    cost: np.ndarray | None      # float64 [P]; freed once consumed
    mem: np.ndarray | None       # float64 [P]; freed once consumed
    k: np.ndarray                # int32 [P] — v_i's config per point
    childpt: np.ndarray          # int32 [P, n_children] — child point index
    children: tuple[int, ...]

    def value_bytes(self) -> int:
        cost = self.cost.nbytes if self.cost is not None else 0
        mem = self.mem.nbytes if self.mem is not None else 0
        return cost + mem

    def nbytes(self) -> int:
        return (self.offsets.nbytes + self.value_bytes()
                + self.k.nbytes + self.childpt.nbytes)


class _Ledger:
    """Byte accounting against the DP memory budget (Table I's OOM)."""

    def __init__(self, budget: int) -> None:
        self.live = 0
        self.peak = 0
        self.budget = int(budget)

    def check(self, extra: int, what: str) -> None:
        if self.live + extra > self.budget:
            raise SearchResourceError(
                f"frontier DP needs {extra} bytes for {what} "
                f"({self.live} live, budget {self.budget})",
                requested_bytes=self.live + extra, budget_bytes=self.budget)
        self.peak = max(self.peak, self.live + extra)

    def add(self, nbytes: int) -> None:
        self.live += nbytes
        self.peak = max(self.peak, self.live)

    def sub(self, nbytes: int) -> None:
        self.live -= nbytes


def _projection(child_axes: tuple[int, ...], full_axes: tuple[int, ...],
                full_shape: tuple[int, ...]) -> np.ndarray:
    """Child-cell flat id (C-order over ``child_axes``) per full cell."""
    out = np.zeros(full_shape, dtype=np.int64)
    mult = 1
    for ax in reversed(child_axes):
        t = full_axes.index(ax)
        coord = np.arange(full_shape[t], dtype=np.int64) * mult
        shape = [1] * len(full_shape)
        shape[t] = full_shape[t]
        out += coord.reshape(shape)
        mult *= full_shape[t]
    return out.reshape(-1)


def _accumulate_terms(terms, full_axes: tuple[int, ...],
                      out: np.ndarray) -> None:
    """``out = Σ aligned(term)`` with the scalar DP's exact association."""
    first = True
    for arr, axes in terms:
        view = aligned_term(arr, axes, full_axes)
        if first:
            np.copyto(out, view)
            first = False
        else:
            np.add(out, view, out=out)
    if first:
        out.fill(0.0)


@dataclass(frozen=True)
class _MergeInputs:
    """What a merge chunk reads: both sides' points per full cell."""

    offsets: np.ndarray       # accumulated side CSR offsets
    cost_a: np.ndarray
    mem_a: np.ndarray
    counts_a: "np.ndarray | None"  # accumulated points per full cell
    counts_b: "np.ndarray | None"  # child points per full cell; both
    #                                None when every cell is dense
    child_start: np.ndarray   # first child point per full cell
    child_cost: np.ndarray
    child_mem: np.ndarray
    pair_off: np.ndarray      # candidate offsets per full cell
    group_size: int           # K when fused, else 0 (group = cell)
    eps: float
    prune: bool


def _merge_child(acc, child_offsets: np.ndarray, child_cost: np.ndarray,
                 child_mem: np.ndarray, proj: np.ndarray, *, eps: float,
                 pair_chunk: int, ledger: _Ledger, group_size: int = 0):
    """Minkowski-sum one child into the accumulated point set, pruned.

    ``acc`` is ``(offsets, cost, mem, childpt)`` CSR over the parent's
    full cells; the child's cell per full cell is ``proj``.  Candidate
    order within a cell is (accumulated point asc, child point asc) —
    both sides are cost-sorted, so the (0, 0) combination is the
    min-cost candidate and the prune keeps it first (float addition is
    monotone), preserving the scalar DP's accumulation.

    When either side is a singleton in every cell (and no coarsening is
    requested), the sum is one frontier shifted by a constant — already
    non-dominated and cost-sorted — so the prune is skipped entirely.

    Fused candidate-axis reduction: with ``group_size`` K set (the
    parent's last child merge), the prune groups by the *dependent-set*
    cell — each run of K consecutive full cells — instead of the full
    cell, performing the DP's reduction over the vertex's own
    configuration axis in the same pass.  The returned CSR is then over
    the dependent-set cells and a fifth array gives each point's
    own-configuration index.

    Cells are processed in chunks of about ``pair_chunk`` candidates
    (never splitting a group), each built the cheapest way its shape
    allows: `_chunk_dense` when both sides hold one point per cell,
    `_chunk_generic` otherwise.
    """
    offsets, cost_a, mem_a, childpt = acc
    n_cells = offsets.shape[0] - 1
    fused = group_size > 0
    # Every cell holds at least one point, so a side's total says
    # whether all of its cells are singletons.
    if (int(offsets[-1]) == n_cells
            and int(child_offsets[-1]) == child_offsets.shape[0] - 1):
        counts_a = counts_b = None
        child_start = proj
        pair_off = np.arange(n_cells + 1, dtype=np.int64)
        prune = fused or eps > 0.0
    else:
        counts_a = np.diff(offsets)
        counts_b = np.diff(child_offsets)[proj]
        child_start = child_offsets[proj]
        pair_off = np.zeros(n_cells + 1, dtype=np.int64)
        np.cumsum(counts_a * counts_b, out=pair_off[1:])
        prune = (fused or eps > 0.0
                 or (int(counts_a.max(initial=0)) > 1
                     and int(counts_b.max(initial=0)) > 1))
    inputs = _MergeInputs(offsets, cost_a, mem_a, counts_a, counts_b,
                          child_start, child_cost, child_mem, pair_off,
                          group_size, eps, prune)

    parts = []
    start = 0
    while start < n_cells:
        end = int(np.searchsorted(pair_off, pair_off[start] + pair_chunk,
                                  side="right")) - 1
        end = min(n_cells, max(end, start + 1))
        if fused:
            # Chunks must not split a dependent-set cell's group.
            end = min(n_cells, max(start + group_size,
                                   (end // group_size) * group_size))
        total = int(pair_off[end] - pair_off[start])
        # Transient per candidate: cost+mem (16) + index arrays (~56);
        # the dense construction needs less but is charged the same.
        ledger.check(total * 72, "a frontier merge chunk")
        chunk = _chunk_dense if total == end - start else _chunk_generic
        parts.append(chunk(inputs, start, end))
        start = end
    return _assemble(parts, childpt, n_cells, group_size)


def _assemble(parts, childpt: np.ndarray, n_cells: int, group_size: int):
    """The merged CSR from the chunks' ``(cost, mem, a_idx, b_local,
    cell)`` kept candidates, in chunk order."""
    cost, mem, a_idx, b_local, cell = (
        col[0] if len(col) == 1 else np.concatenate(col)
        for col in zip(*parts))
    width = childpt.shape[1]
    childpt_n = np.empty((a_idx.shape[0], width + 1), dtype=np.int32)
    childpt_n[:, :width] = childpt[a_idx]
    childpt_n[:, width] = b_local
    if group_size:
        n_groups = n_cells // group_size
        off = np.zeros(n_groups + 1, dtype=np.int64)
        np.cumsum(np.bincount(cell // group_size, minlength=n_groups),
                  out=off[1:])
        return (off, cost, mem, childpt_n,
                (cell % group_size).astype(np.int32))
    off = np.zeros(n_cells + 1, dtype=np.int64)
    np.cumsum(np.bincount(cell, minlength=n_cells), out=off[1:])
    return off, cost, mem, childpt_n


def _chunk_dense(inp: _MergeInputs, start: int, end: int):
    """Cells ``[start, end)`` where both sides hold exactly one point.

    The Minkowski sum is the scalar DP's add, one candidate per cell,
    with no expansion; a fused merge then reduces each dependent-set
    cell's K candidates as fixed-size groups.  Returns ``(cost, mem,
    a_idx, b_local, cell)`` of the kept candidates, like
    `_chunk_generic`.
    """
    n = end - start
    a0 = int(inp.offsets[start])
    b = inp.child_start[start:end]
    cost = inp.cost_a[a0:a0 + n] + inp.child_cost[b]
    mem = inp.mem_a[a0:a0 + n] + inp.child_mem[b]
    if inp.group_size:
        K = inp.group_size
        kept = _peel(np.arange(0, n, K, dtype=np.int64), cost, mem,
                     eps=inp.eps, size=K)
        cost, mem = cost[kept], mem[kept]
    else:
        # One candidate per group: any prune keeps every one.
        kept = np.arange(n, dtype=np.int64)
    return (cost, mem, a0 + kept, np.zeros(kept.shape[0], dtype=np.int64),
            start + kept)


def _chunk_generic(inp: _MergeInputs, start: int, end: int):
    """Cells ``[start, end)`` of any shape: expand every (accumulated
    point, child point) pair of each cell, then prune.

    Candidates are built by repeats (no integer div/mod); only the kept
    ones are traced back to their accumulated point, child point and
    cell.  Where one side of every cell is a singleton and groups are
    cells, each group is one presorted run (`_prune_runs`).
    """
    a0, a1 = int(inp.offsets[start]), int(inp.offsets[end])
    total = int(inp.pair_off[end] - inp.pair_off[start])
    if a1 - a0 == end - start:
        # One accumulated point per cell: its candidates start where
        # the cell's do.
        cell_a = np.arange(start, end, dtype=np.int64)
        cbp = inp.counts_b[start:end]
        bs = inp.pair_off[start:end] - inp.pair_off[start]
    else:
        cell_a = np.repeat(np.arange(start, end, dtype=np.int64),
                           inp.counts_a[start:end])
        cbp = inp.counts_b[cell_a]
        bs = np.zeros(cell_a.shape[0], dtype=np.int64)
        np.cumsum(cbp[:-1], out=bs[1:])
    b_idx = np.repeat(inp.child_start[cell_a] - bs, cbp)
    b_idx += np.arange(total, dtype=np.int64)
    cost = np.repeat(inp.cost_a[a0:a1], cbp)
    cost += inp.child_cost[b_idx]
    mem = np.repeat(inp.mem_a[a0:a1], cbp)
    mem += inp.child_mem[b_idx]
    del b_idx  # dead: keep it out of the prune's peak
    kept = np.arange(total, dtype=np.int64)
    if inp.prune:
        starts = (inp.pair_off[start:end:inp.group_size or 1]
                  - inp.pair_off[start])
        if not inp.group_size and np.all(np.minimum(
                inp.counts_a[start:end], inp.counts_b[start:end]) == 1):
            kept = _prune_runs(starts, cost, mem, eps=inp.eps)
        else:
            kept = _peel(starts, cost, mem, eps=inp.eps)
        cost, mem = cost[kept], mem[kept]
    # Each kept candidate's accumulated point, expanded like the
    # candidates (cheaper than a binary search once many are kept).
    t = np.repeat(np.arange(cell_a.shape[0], dtype=np.int64), cbp)
    if inp.prune:
        t = t[kept]
    return cost, mem, a0 + t, kept - bs[t], cell_a[t]


# ---------------------------------------------------------------------------
# The frontier DP
# ---------------------------------------------------------------------------

def find_frontier_strategy(
    graph: CompGraph,
    space: ConfigSpace,
    tables: CostTables,
    *,
    eps: float = 0.0,
    order: Sequence[str] | None = None,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
    chunk_cells: int = DEFAULT_CHUNK_CELLS,
    method_name: str = "pase-dp",
    reduce: "bool | str" = False,
    reduce_bypass_ratio: float | None = None,
    checkpoint: Callable[..., None] | None = None,
    mem_tables: "Mapping[str, np.ndarray] | None" = None,
) -> SearchResult:
    """Compute the exact (cost, peak-bytes) Pareto frontier of a problem.

    Same contract as `repro.core.dp.find_best_strategy` (ordering,
    budgets, checkpoints, reduction modes), but the returned
    `SearchResult` carries the full non-dominated frontier in
    ``.frontier`` (ascending cost) with ``strategy``/``cost`` set to its
    min-cost point — bit-identical to the scalar DP optimum.

    ``reduce`` runs the memory-aware reduction first: dominance pruning
    gains the memory column (exact for both axes) and chain contraction
    is auto-disabled (its min-fold is scalar-objective), with
    ``reduction_*`` stats recording which rules ran.  ``mem_tables``
    overrides the per-node memory tables (``tables.mem`` or
    `memory_tables` otherwise).
    """
    t0 = time.perf_counter()
    if not math.isfinite(eps) or eps < 0.0:
        raise ValueError(f"eps must be finite and >= 0, got {eps!r}")
    mode = _resolve_reduce_mode(reduce)
    if mem_tables is None:
        mem_tables = getattr(tables, "mem", None)
        if mem_tables is None:
            mem_tables = memory_tables(graph, space)

    bypassed = False
    seq: SequencedGraph | None = None
    if mode == "auto":
        seq = SequencedGraph.build(
            graph, generate_seq(graph) if order is None else order)
        ratio = _bypass_ratio(reduce_bypass_ratio)
        predicted_dp_cells = sum(dp_table_profile(seq, space))
        bypassed = predicted_dp_cells < ratio * tables.work_cells()
    if mode != "off" and not bypassed:
        from .reduction import reduce_problem

        red = reduce_problem(graph, space, tables, memory=mem_tables,
                             checkpoint=checkpoint)
        sub_order = order
        if order is not None:
            live = set(red.survivors)
            sub_order = tuple(n for n in order if n in live)
        reduced_mem = {
            n: np.ascontiguousarray(
                np.asarray(mem_tables[n], dtype=np.float64)[
                    red.config_maps[n]])
            for n in red.survivors}
        inner = find_frontier_strategy(
            red.reduced_graph, red.reduced_space, red.reduced_tables,
            eps=eps, order=sub_order, memory_budget=memory_budget,
            chunk_cells=chunk_cells, method_name=method_name,
            checkpoint=checkpoint, mem_tables=reduced_mem)
        return _expand_frontier_result(red, inner,
                                       elapsed=time.perf_counter() - t0)

    if seq is None:
        if order is None:
            order = generate_seq(graph)
        seq = SequencedGraph.build(graph, order)
    n = len(seq)
    method = f"{method_name}+frontier"
    if n == 0:
        stats = {"cells": 0.0, "peak_bytes": 0.0, "max_dependent": 0.0,
                 "k_max": 0.0, "vertices": 0.0, "frontier_points": 1.0,
                 "frontier_max_state_points": 0.0,
                 "frontier_eps": float(eps), "frontier_cells": 0.0}
        if bypassed:
            stats["reduction_bypassed"] = 1.0
        for key, val in tables.build_stats.items():
            stats[f"table_{key}"] = float(val)
        strat = Strategy({})
        return SearchResult(strat, 0.0, time.perf_counter() - t0, method,
                            stats=stats,
                            frontier=(FrontierPoint(0.0, 0.0, strat),))

    ksize = np.array([space.size(name) for name in seq.order], dtype=np.int64)
    mem_by_pos = [np.ascontiguousarray(
        np.asarray(mem_tables[seq.name(i)], dtype=np.float64))
        for i in range(n)]
    records: list[_PointRecord | None] = [None] * n
    ledger = _Ledger(memory_budget)
    cells_evaluated = 0
    max_state_points = 0
    tracer = current_tracer()

    with tracer.span("frontier", vertices=n, method=method_name) as f_span:
        for i in range(n):
            if checkpoint is not None:
                checkpoint(phase="frontier", step=i, total=n)
            with tracer.span("frontier.vertex",
                             name=seq.name(i) if tracer.enabled else ""):
                dep = seq.dep[i]
                comps = seq.connected_subsets(i)
                children = tuple(max(c) for c in comps)
                full_axes = dep + (i,)
                K = int(ksize[i])
                table_shape = tuple(int(ksize[d]) for d in dep)
                table_cells = (int(np.prod(table_shape, dtype=np.int64))
                               if dep else 1)
                full_shape = table_shape + (K,)
                n_full = table_cells * K

                # H(i, ·): per full cell the vertex's layer cost plus
                # transfers to later neighbors, scalar association.
                ledger.check(n_full * 28, f"vertex {seq.name(i)!r} H table")
                H = np.empty(full_shape, dtype=np.float64)
                terms: list[tuple[np.ndarray, tuple[int, ...]]] = []
                terms.append((tables.lc[seq.name(i)], (i,)))
                for u in seq.later_neighbors(i):
                    terms.append((tables.tx(seq.name(i), seq.name(u)),
                                  (i, u)))
                _accumulate_terms(terms, full_axes, H)
                cells_evaluated += n_full

                # One seed point per full cell: (H, own memory).
                acc = (np.arange(n_full + 1, dtype=np.int64),
                       H.reshape(-1),
                       np.ascontiguousarray(np.broadcast_to(
                           mem_by_pos[i], (table_cells, K)).reshape(-1)),
                       np.empty((n_full, 0), dtype=np.int32))
                ledger.add(n_full * 24 + acc[0].nbytes)

                # Merge children in the scalar DP's term order; the last
                # merge's prune is fused with the reduction over the
                # vertex's own configuration axis (grouped by
                # dependent-set cell), so the union of the K per-cell
                # candidate sets is never re-pruned in a second pass.
                k_arr = None
                for t, j in enumerate(children):
                    rec = records[j]
                    assert rec is not None and rec.cost is not None, \
                        f"child point table {j} consumed twice"
                    proj = _projection(rec.axes, full_axes, full_shape)
                    old_bytes = (acc[0].nbytes + acc[1].nbytes
                                 + acc[2].nbytes + acc[3].nbytes)
                    if t == len(children) - 1:
                        merged = _merge_child(
                            acc, rec.offsets, rec.cost, rec.mem, proj,
                            eps=eps, pair_chunk=chunk_cells, ledger=ledger,
                            group_size=K)
                        acc = merged[:4]
                        k_arr = merged[4]
                    else:
                        acc = _merge_child(acc, rec.offsets, rec.cost,
                                           rec.mem, proj, eps=eps,
                                           pair_chunk=chunk_cells,
                                           ledger=ledger)
                    ledger.sub(old_bytes)
                    ledger.add(acc[0].nbytes + acc[1].nbytes
                               + acc[2].nbytes + acc[3].nbytes)
                    # Values are consulted exactly once; free them (the
                    # k/childpt arrays stay for back-substitution).
                    ledger.sub(rec.value_bytes())
                    rec.cost = None
                    rec.mem = None

                if k_arr is None:
                    # No children: reduce the seed directly — union the K
                    # per-cell singletons of each dependent-set cell.
                    offsets, cost_a, mem_a, childpt = acc
                    kept = _peel(np.arange(0, n_full, K, dtype=np.int64),
                                 cost_a, mem_a, eps=eps, size=K)
                    rec_off = np.zeros(table_cells + 1, dtype=np.int64)
                    np.cumsum(np.bincount(kept // K, minlength=table_cells),
                              out=rec_off[1:])
                    rec = _PointRecord(
                        axes=dep, offsets=rec_off,
                        cost=np.ascontiguousarray(cost_a[kept]),
                        mem=np.ascontiguousarray(mem_a[kept]),
                        k=(kept % K).astype(np.int32),
                        childpt=np.ascontiguousarray(childpt[kept]),
                        children=children)
                else:
                    rec_off, cost_a, mem_a, childpt = acc
                    offsets = rec_off
                    rec = _PointRecord(
                        axes=dep, offsets=rec_off,
                        cost=np.ascontiguousarray(cost_a),
                        mem=np.ascontiguousarray(mem_a),
                        k=np.ascontiguousarray(k_arr),
                        childpt=np.ascontiguousarray(childpt),
                        children=children)
                ledger.sub(offsets.nbytes + cost_a.nbytes + mem_a.nbytes
                           + childpt.nbytes)
                ledger.add(rec.nbytes())
                records[i] = rec
                if rec.cost is not None and rec.cost.size:
                    max_state_points = max(
                        max_state_points,
                        int(np.diff(rec.offsets).max()))

        # -- total frontier: Minkowski sum of the root tables -------------
        roots = seq.roots()
        facc = (np.array([0, 1], dtype=np.int64),
                np.zeros(1, dtype=np.float64),
                np.zeros(1, dtype=np.float64),
                np.empty((1, 0), dtype=np.int32))
        proj1 = np.zeros(1, dtype=np.int64)
        for rt in roots:
            rec = records[rt]
            assert rec is not None and rec.cost is not None \
                and rec.offsets.shape[0] == 2
            facc = _merge_child(facc, rec.offsets, rec.cost, rec.mem, proj1,
                                eps=eps, pair_chunk=chunk_cells,
                                ledger=ledger)
            ledger.sub(rec.value_bytes())
            rec.cost = None
            rec.mem = None

        # -- back-substitution: one full strategy per frontier point ------
        _, fcost, fmem, rootpt = facc
        n_points = int(fcost.shape[0])
        points: list[FrontierPoint] = []
        for pidx in range(n_points):
            chosen: dict[int, int] = {}
            stack = [(rt, int(rootpt[pidx, t]))
                     for t, rt in enumerate(roots)]
            while stack:
                v, local = stack.pop()
                rec = records[v]
                assert rec is not None
                flat = 0
                for ax in rec.axes:
                    flat = flat * int(ksize[ax]) + chosen[ax]
                g = int(rec.offsets[flat]) + local
                chosen[v] = int(rec.k[g])
                for t, j in enumerate(rec.children):
                    stack.append((j, int(rec.childpt[g, t])))
            assert len(chosen) == n, "extraction did not reach every vertex"
            indices = {seq.name(v): k for v, k in chosen.items()}
            points.append(FrontierPoint(
                cost=float(fcost[pidx]), peak_bytes=float(fmem[pidx]),
                strategy=Strategy.from_indices(space, indices)))

        f_span.set(cells=cells_evaluated, peak_bytes=ledger.peak,
                   points=n_points)

    elapsed = time.perf_counter() - t0
    stats = {
        "cells": float(cells_evaluated),
        "peak_bytes": float(ledger.peak),
        "max_dependent": float(seq.max_dependent_size),
        "k_max": float(space.max_size),
        "vertices": float(n),
        "frontier_points": float(n_points),
        "frontier_max_state_points": float(max_state_points),
        "frontier_eps": float(eps),
        "frontier_cells": float(cells_evaluated),
    }
    if bypassed:
        stats["reduction_bypassed"] = 1.0
    for key, val in tables.build_stats.items():
        stats[f"table_{key}"] = float(val)
    metrics = current_metrics()
    metrics.counter("dp_cells_total", "DP cells evaluated").inc(
        cells_evaluated)
    metrics.counter("frontier_points_total",
                    "Pareto-frontier points returned").inc(n_points)
    best = points[0]
    return SearchResult(strategy=best.strategy, cost=best.cost,
                        elapsed=elapsed, method=method, stats=stats,
                        frontier=tuple(points))


def _expand_frontier_result(red, inner: SearchResult, *,
                            elapsed: float) -> SearchResult:
    """Lift every frontier point of a reduced-space result back to the
    original space (memory-aware reduction never contracts, so only the
    per-node config back-maps apply; memory values are unchanged)."""
    points = []
    for pt in inner.frontier:
        reduced_idx = pt.strategy.to_indices(red.reduced_space)
        full_idx = red.expand_indices(reduced_idx)
        cost = red.tables.strategy_cost(full_idx)
        predicted = pt.cost + red.base_cost
        if not math.isclose(cost, predicted, rel_tol=1e-6, abs_tol=1e-6):
            raise StrategyError(
                f"frontier reduction exactness violated: expanded cost "
                f"{cost!r} != reduced cost {pt.cost!r} + base "
                f"{red.base_cost!r}")
        points.append(FrontierPoint(
            cost=cost, peak_bytes=pt.peak_bytes,
            strategy=Strategy.from_indices(red.space, full_idx)))
    best = points[0]
    lifted = SearchResult(
        strategy=best.strategy, cost=best.cost, elapsed=elapsed,
        method=f"{inner.method}+reduce", stats=dict(inner.stats),
        frontier=tuple(points))
    return lifted.with_stats(**red.stats)
