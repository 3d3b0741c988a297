"""Tests for the cost × memory Pareto-frontier DP (`repro.core.frontier`).

The load-bearing contracts:

* exactness — the DP frontier equals the brute-force non-dominated set
  on random small graphs (the satellite hypothesis property);
* bit-identity — the frontier's min-cost point carries a cost
  bit-identical to the scalar DP optimum (exact paths use ``==``; reduce
  paths re-price through `CostTables.strategy_cost`, a different float
  association, so they get the repo's usual ``isclose(rel_tol=1e-9)``);
* the scalar pipeline is untouched — ``objective="cost"`` returns the
  identical result through the identical code path.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.configs import ConfigSpace
from repro.core.costmodel import CostModel
from repro.core.dp import find_best_strategy
import repro.core.frontier as frontier_mod
from repro.core.exceptions import SearchResourceError
from repro.core.frontier import (
    Objective,
    find_frontier_strategy,
    memory_tables,
    parse_objective,
    pareto_prune,
    strategy_peak_bytes,
)
from repro.core.machine import GTX1080TI
from repro.core.strategy import FrontierPoint
from tests.conftest import build_dag, small_dags
from tests.core.frontier_oracles import brute_force_frontier, sort_pareto_prune


def setup(graph, p=4, machine=GTX1080TI, mode="all"):
    space = ConfigSpace.build(graph, p, mode=mode)
    tables = CostModel(machine).build_tables(graph, space)
    return space, tables


# ---------------------------------------------------------------------------
# Objective parsing
# ---------------------------------------------------------------------------

class TestParseObjective:
    def test_cost(self):
        obj = parse_objective("cost")
        assert obj == Objective("cost")
        assert not obj.is_frontier
        assert obj.canonical == "cost"

    def test_frontier(self):
        obj = parse_objective("frontier")
        assert obj.is_frontier and obj.eps == 0.0
        assert obj.canonical == "frontier"

    def test_frontier_eps(self):
        obj = parse_objective("frontier:eps=0.25")
        assert obj.is_frontier and obj.eps == 0.25
        assert obj.canonical == "frontier:eps=0.25"

    def test_canonical_round_trips(self):
        for text in ("cost", "frontier", "frontier:eps=0.01"):
            assert parse_objective(text).canonical == text
        # Non-canonical spellings normalize.
        assert parse_objective(" frontier ").canonical == "frontier"
        assert parse_objective("frontier:eps=0.500").canonical == \
            "frontier:eps=0.5"

    def test_objective_instance_passes_through(self):
        obj = Objective("frontier", 0.5)
        assert parse_objective(obj) is obj

    @pytest.mark.parametrize("bad", [
        "speed", "frontier:delta=1", "frontier:eps=lots",
        "frontier:eps=-0.5", "frontier:eps=inf", "Frontier", ""])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_objective(bad)

    def test_rejects_non_string(self):
        with pytest.raises(ValueError, match="string"):
            parse_objective(3.0)


# ---------------------------------------------------------------------------
# Grouped Pareto prune vs an O(n^2) oracle
# ---------------------------------------------------------------------------

def oracle_prune(gid, cost, mem):
    """Quadratic reference: j survives unless some i dominates it (or is
    an exact duplicate with a smaller original index)."""
    n = len(cost)
    keep = []
    for j in range(n):
        dominated = False
        for i in range(n):
            if i == j or gid[i] != gid[j]:
                continue
            if cost[i] <= cost[j] and mem[i] <= mem[j]:
                if cost[i] < cost[j] or mem[i] < mem[j] or i < j:
                    dominated = True
                    break
        if not dominated:
            keep.append(j)
    return keep


@st.composite
def prune_inputs(draw):
    """Grouped point sets with deliberate exact ties on both axes."""
    n_groups = draw(st.integers(min_value=1, max_value=4))
    vals = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 8.0])
    gid, cost, mem = [], [], []
    for g in range(n_groups):
        size = draw(st.integers(min_value=0, max_value=8))
        for _ in range(size):
            gid.append(g)
            cost.append(draw(vals))
            mem.append(draw(vals))
    return (np.array(gid, dtype=np.int64), np.array(cost), np.array(mem))


class TestParetoPrune:
    @settings(max_examples=200, deadline=None)
    @given(prune_inputs())
    def test_matches_oracle(self, inputs):
        gid, cost, mem = inputs
        kept = pareto_prune(gid, cost, mem)
        assert sorted(kept.tolist()) == oracle_prune(gid, cost, mem)

    @settings(max_examples=100, deadline=None)
    @given(prune_inputs())
    def test_output_order_contract(self, inputs):
        """Survivors come back (group asc, cost asc); within a group the
        memory is strictly decreasing and the first point is min-cost."""
        gid, cost, mem = inputs
        kept = pareto_prune(gid, cost, mem)
        kg, kc, km = gid[kept], cost[kept], mem[kept]
        for t in range(1, len(kept)):
            if kg[t] == kg[t - 1]:
                assert kc[t] >= kc[t - 1]
                assert km[t] < km[t - 1]
            else:
                assert kg[t] > kg[t - 1]
        for g in np.unique(gid):
            mask = gid == g
            if mask.any():
                first = kc[kg == g][0]
                assert first == cost[mask].min()

    def test_requires_sorted_groups(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            pareto_prune(np.array([1, 0]), np.array([1.0, 2.0]),
                         np.array([1.0, 2.0]))

    def test_empty(self):
        kept = pareto_prune(np.empty(0, dtype=np.int64), np.empty(0),
                            np.empty(0))
        assert kept.shape == (0,) and kept.dtype == np.int64

    def test_exact_duplicate_keeps_earliest(self):
        gid = np.zeros(3, dtype=np.int64)
        kept = pareto_prune(gid, np.array([1.0, 1.0, 1.0]),
                            np.array([2.0, 2.0, 2.0]))
        assert kept.tolist() == [0]

    @settings(max_examples=100, deadline=None)
    @given(prune_inputs(), st.sampled_from([0.01, 0.1, 0.5, 2.0]))
    def test_eps_coarsening(self, inputs, eps):
        """eps survivors are a subset of the exact frontier, at most one
        per geometric memory bucket, and every group min-cost is exact."""
        gid, cost, mem = inputs
        exact = set(pareto_prune(gid, cost, mem).tolist())
        kept = pareto_prune(gid, cost, mem, eps=eps)
        assert set(kept.tolist()) <= exact
        for g in np.unique(gid):
            mask = gid == g
            gk = kept[gid[kept] == g]
            if mask.any():
                assert cost[gk].min() == cost[mask].min()
                buckets = np.floor(np.log(np.maximum(mem[gk], 1.0))
                                   / math.log1p(eps)).astype(np.int64)
                assert len(np.unique(buckets)) == len(gk)


@st.composite
def parity_inputs(draw):
    """Grouped points mixing exact ties on both axes, duplicates, -0.0,
    negative values and large magnitudes."""
    n_groups = draw(st.integers(min_value=1, max_value=5))
    vals = st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, 3.0, -1.0, -2.5,
                            1e9, 3e9, 7.5e11])
    gid, cost, mem = [], [], []
    for g in range(n_groups):
        size = draw(st.integers(min_value=0, max_value=10))
        for _ in range(size):
            gid.append(g)
            cost.append(draw(vals))
            mem.append(draw(vals))
        if size and draw(st.booleans()):
            # An exact duplicate of one of the group's points.
            j = draw(st.integers(min_value=len(cost) - size,
                                 max_value=len(cost) - 1))
            gid.append(g)
            cost.append(cost[j])
            mem.append(mem[j])
    return (np.array(gid, dtype=np.int64), np.array(cost), np.array(mem))


@st.composite
def presorted_runs(draw):
    """Groups that are each one frontier shifted by a constant: cost
    nondecreasing, memory nonincreasing, with exact ties on both."""
    n_groups = draw(st.integers(min_value=1, max_value=5))
    gid, cost, mem = [], [], []
    for g in range(n_groups):
        size = draw(st.integers(min_value=1, max_value=8))
        cs = sorted(draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0, 5.0]),
                                  min_size=size, max_size=size)))
        ms = sorted(draw(st.lists(st.sampled_from([1.0, 2.0, 4.0, 9.0,
                                                   1e6, 3e7]),
                                  min_size=size, max_size=size)),
                    reverse=True)
        gid += [g] * size
        cost += cs
        mem += ms
    return (np.array(gid, dtype=np.int64), np.array(cost), np.array(mem))


EPS = st.sampled_from([0.0, 0.0, 0.01, 0.5, 2.0, 10.0])


def group_starts(gid):
    return np.flatnonzero(np.diff(gid, prepend=-1))


class TestPruneParity:
    """The sort-free prune returns the sort-based oracle's index arrays,
    order included — ties, duplicates, -0.0, negatives and eps."""

    @settings(max_examples=300, deadline=None)
    @given(parity_inputs(), EPS)
    def test_matches_sort_oracle(self, inputs, eps):
        gid, cost, mem = inputs
        got = pareto_prune(gid, cost, mem, eps=eps)
        want = sort_pareto_prune(gid, cost, mem, eps=eps)
        assert got.dtype == np.int64
        assert got.tolist() == want.tolist()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=6),
           st.integers(min_value=1, max_value=5), st.data(), EPS)
    def test_fixed_size_groups(self, n_groups, size, data, eps):
        """The dense path's fixed-size grouping agrees with the oracle."""
        vals = st.sampled_from([0.0, -0.0, 1.0, 2.0, -1.0, 4e9])
        n = n_groups * size
        cost = np.array(data.draw(st.lists(vals, min_size=n, max_size=n)))
        mem = np.array(data.draw(st.lists(vals, min_size=n, max_size=n)))
        gid = np.repeat(np.arange(n_groups, dtype=np.int64), size)
        got = frontier_mod._peel(np.arange(0, n, size, dtype=np.int64),
                                 cost, mem, eps=eps, size=size)
        assert got.tolist() == sort_pareto_prune(gid, cost, mem,
                                                 eps=eps).tolist()

    @settings(max_examples=200, deadline=None)
    @given(presorted_runs(), EPS)
    def test_presorted_runs(self, inputs, eps):
        gid, cost, mem = inputs
        got = frontier_mod._prune_runs(group_starts(gid), cost, mem,
                                       eps=eps)
        assert got.tolist() == sort_pareto_prune(gid, cost, mem,
                                                 eps=eps).tolist()


# ---------------------------------------------------------------------------
# The frontier DP vs brute force (the satellite hypothesis property)
# ---------------------------------------------------------------------------

def assert_frontiers_match(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        # Costs may differ in the last ulp (DP association vs
        # strategy_cost's table-order sum); memory sums are exact.
        assert math.isclose(a.cost, b.cost, rel_tol=1e-9, abs_tol=1e-12)
        assert a.peak_bytes == b.peak_bytes


class TestFrontierExactness:
    @settings(max_examples=25, deadline=None)
    @given(small_dags(max_nodes=5), st.sampled_from([2, 3, 4]))
    def test_matches_brute_force(self, graph, p):
        space, tables = setup(graph, p=p)
        res = find_frontier_strategy(graph, space, tables)
        bf = brute_force_frontier(graph, space, tables)
        assert_frontiers_match(res.frontier, bf)

    @settings(max_examples=25, deadline=None)
    @given(small_dags(max_nodes=5), st.sampled_from([2, 3, 4]))
    def test_min_cost_point_bit_identical_to_scalar_dp(self, graph, p):
        space, tables = setup(graph, p=p)
        scalar = find_best_strategy(graph, space, tables)
        res = find_frontier_strategy(graph, space, tables)
        assert res.frontier[0].cost == scalar.cost
        assert res.cost == scalar.cost
        assert res.strategy.assignment == res.frontier[0].strategy.assignment

    @settings(max_examples=15, deadline=None)
    @given(small_dags(max_nodes=5))
    def test_points_price_correctly(self, graph):
        """Every frontier point's strategy reprices to its recorded
        (cost, peak_bytes) pair."""
        space, tables = setup(graph)
        mem = memory_tables(graph, space)
        res = find_frontier_strategy(graph, space, tables)
        for pt in res.frontier:
            pt.strategy.validate(graph, space.p)
            assert pt.strategy.cost(tables) == \
                pytest.approx(pt.cost, rel=1e-9)
            assert strategy_peak_bytes(graph, space, pt.strategy,
                                       mem_tables=mem) == pt.peak_bytes

    @settings(max_examples=12, deadline=None)
    @given(small_dags(max_nodes=5), st.randoms(use_true_random=False))
    def test_any_ordering_same_frontier(self, graph, rnd):
        space, tables = setup(graph)
        ref = find_frontier_strategy(graph, space, tables)
        order = list(graph.node_names)
        rnd.shuffle(order)
        alt = find_frontier_strategy(graph, space, tables,
                                     order=tuple(order))
        assert_frontiers_match(alt.frontier, ref.frontier)

    def test_chunked_merge_matches(self, diamond):
        space, tables = setup(diamond)
        ref = find_frontier_strategy(diamond, space, tables)
        tiny = find_frontier_strategy(diamond, space, tables, chunk_cells=7)
        assert_frontiers_match(tiny.frontier, ref.frontier)

    def test_frontier_sorted_and_nondominated(self, diamond):
        space, tables = setup(diamond)
        res = find_frontier_strategy(diamond, space, tables)
        pts = res.frontier
        assert len(pts) >= 1
        for a, b in zip(pts, pts[1:]):
            assert a.cost <= b.cost
            assert a.peak_bytes > b.peak_bytes

    def test_empty_graph(self):
        from repro.core.graph import CompGraph
        g = CompGraph()
        space, tables = setup(g)
        res = find_frontier_strategy(g, space, tables)
        assert res.cost == 0.0
        assert len(res.frontier) == 1
        assert res.frontier[0].peak_bytes == 0.0

    def test_rejects_bad_eps(self, diamond):
        space, tables = setup(diamond)
        with pytest.raises(ValueError, match="eps"):
            find_frontier_strategy(diamond, space, tables, eps=-1.0)


def singleton_merge(rng, n_cells, n_child, width=2):
    """A merge input whose cells hold one point on both sides, with
    exact value ties: ``(acc, child_offsets, child_cost, child_mem,
    proj)`` for `_merge_child`."""
    vals = np.array([0.0, 1.0, 2.0, 2.0, 5.0, 1e9])
    acc = (np.arange(n_cells + 1, dtype=np.int64),
           rng.choice(vals, n_cells), rng.choice(vals, n_cells),
           rng.integers(0, 50, (n_cells, width)).astype(np.int32))
    return (acc, np.arange(n_child + 1, dtype=np.int64),
            rng.choice(vals, n_child), rng.choice(vals, n_child),
            rng.integers(0, n_child, n_cells).astype(np.int64))


def forbid_generic(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("generic merge path taken")
    monkeypatch.setattr(frontier_mod, "_chunk_generic", fail)


class TestMergeFastPaths:
    """`_merge_child` picks its candidate construction per chunk from
    the data; every choice returns what the generic one would."""

    @settings(max_examples=25, deadline=None)
    @given(small_dags(max_nodes=5), st.sampled_from([2, 3, 4]),
           st.sampled_from([1, 2, 3, 5, 8]))
    def test_tiny_chunks_match_brute_force(self, graph, p, chunk):
        """Chunk boundaries fall between dense and generic cells; the
        frontier still equals brute force, and its min-cost point the
        scalar DP's optimum bit for bit."""
        space, tables = setup(graph, p=p)
        res = find_frontier_strategy(graph, space, tables, chunk_cells=chunk)
        assert_frontiers_match(res.frontier, brute_force_frontier(
            graph, space, tables))
        assert res.cost == find_best_strategy(graph, space, tables).cost

    @pytest.mark.parametrize("group_size,eps,prune", [
        (0, 0.0, False), (0, 0.5, True), (3, 0.0, True), (4, 2.0, True)])
    def test_dense_equals_generic(self, group_size, eps, prune):
        rng = np.random.default_rng(11 + group_size)
        n_cells = 12 * max(group_size, 1)
        acc, c_off, c_cost, c_mem, proj = singleton_merge(rng, n_cells, 7)
        ones = np.ones(n_cells, dtype=np.int64)
        inputs = frontier_mod._MergeInputs(
            acc[0], acc[1], acc[2], ones, ones, c_off[proj], c_cost, c_mem,
            np.arange(n_cells + 1, dtype=np.int64), group_size, eps, prune)
        dense = frontier_mod._assemble(
            [frontier_mod._chunk_dense(inputs, 0, n_cells)], acc[3], n_cells,
            group_size)
        generic = frontier_mod._assemble(
            [frontier_mod._chunk_generic(inputs, 0, n_cells)], acc[3],
            n_cells, group_size)
        assert len(dense) == len(generic) == (5 if group_size else 4)
        for a, b in zip(dense, generic):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)

    def test_merge_takes_dense_path(self, monkeypatch):
        rng = np.random.default_rng(3)
        acc, c_off, c_cost, c_mem, proj = singleton_merge(rng, 20, 6)
        forbid_generic(monkeypatch)
        off, cost, mem, childpt, k = frontier_mod._merge_child(
            acc, c_off, c_cost, c_mem, proj, eps=0.0, pair_chunk=7,
            ledger=frontier_mod._Ledger(1 << 20), group_size=4)
        assert off.shape == (6,)
        assert childpt.shape == (cost.shape[0], 3)
        assert k.dtype == np.int32 and mem.shape == cost.shape

    def test_dense_path_charged_to_budget(self, monkeypatch):
        """The dense path's transients are charged like the generic
        path's (72 bytes per candidate), so a tiny budget still stops
        it with `SearchResourceError`."""
        rng = np.random.default_rng(5)
        n_cells = 24
        merge = singleton_merge(rng, n_cells, 5)
        forbid_generic(monkeypatch)
        with pytest.raises(SearchResourceError) as exc:
            frontier_mod._merge_child(
                *merge, eps=0.0, pair_chunk=1 << 20,
                ledger=frontier_mod._Ledger(72 * n_cells - 1), group_size=4)
        assert exc.value.requested_bytes == 72 * n_cells
        assert exc.value.budget_bytes == 72 * n_cells - 1
        frontier_mod._merge_child(
            *merge, eps=0.0, pair_chunk=1 << 20,
            ledger=frontier_mod._Ledger(72 * n_cells), group_size=4)


class TestEpsCoarsening:
    @settings(max_examples=15, deadline=None)
    @given(small_dags(max_nodes=5), st.sampled_from([0.01, 0.5]))
    def test_subset_with_exact_min_cost(self, graph, eps):
        """Coarsening can only shrink the frontier; the min-cost point
        stays bit-identical to the scalar optimum."""
        space, tables = setup(graph)
        exact = find_frontier_strategy(graph, space, tables)
        coarse = find_frontier_strategy(graph, space, tables, eps=eps)
        assert len(coarse.frontier) <= len(exact.frontier)
        assert coarse.frontier[0].cost == exact.frontier[0].cost
        scalar = find_best_strategy(graph, space, tables)
        assert coarse.cost == scalar.cost
        assert coarse.stats["frontier_eps"] == eps


class TestReduceCompat:
    @settings(max_examples=10, deadline=None)
    @given(small_dags(max_nodes=5))
    def test_reduce_always_matches_plain(self, graph):
        """The memory-aware reduction must not lose frontier points; the
        lifted costs re-price through `strategy_cost`, so isclose."""
        space, tables = setup(graph)
        plain = find_frontier_strategy(graph, space, tables)
        red = find_frontier_strategy(graph, space, tables, reduce="always")
        assert red.method.endswith("+reduce")
        assert "reduction_seconds" in red.stats
        assert len(red.frontier) == len(plain.frontier)
        for a, b in zip(red.frontier, plain.frontier):
            assert math.isclose(a.cost, b.cost, rel_tol=1e-9,
                                abs_tol=1e-12)
            assert a.peak_bytes == b.peak_bytes

    def test_auto_bypass_on_small_problem(self, diamond):
        space, tables = setup(diamond)
        res = find_frontier_strategy(diamond, space, tables, reduce=True)
        assert res.stats.get("reduction_bypassed") == 1.0


class TestStatsAndDispatch:
    def test_stats_populated(self, diamond):
        space, tables = setup(diamond)
        res = find_frontier_strategy(diamond, space, tables)
        assert res.method == "pase-dp+frontier"
        assert res.stats["frontier_points"] == float(len(res.frontier))
        assert res.stats["frontier_max_state_points"] >= 1.0
        assert res.stats["frontier_eps"] == 0.0
        assert res.stats["cells"] > 0

    def test_find_best_strategy_dispatches(self, diamond):
        """`find_best_strategy(objective="frontier")` is the frontier DP;
        `objective="cost"` is the scalar path, bit-identical."""
        space, tables = setup(diamond)
        plain = find_best_strategy(diamond, space, tables)
        scalar = find_best_strategy(diamond, space, tables,
                                    objective="cost")
        assert scalar.cost == plain.cost
        assert scalar.strategy.assignment == plain.strategy.assignment
        assert scalar.frontier == ()
        fr = find_best_strategy(diamond, space, tables,
                                objective="frontier")
        assert fr.method == "pase-dp+frontier"
        assert fr.cost == plain.cost
        assert len(fr.frontier) >= 1
        coarse = find_best_strategy(diamond, space, tables,
                                    objective="frontier:eps=0.5")
        assert coarse.stats["frontier_eps"] == 0.5

    def test_budget_exceeded_raises(self, diamond):
        from repro.core.exceptions import SearchResourceError
        space, tables = setup(diamond)
        with pytest.raises(SearchResourceError) as exc:
            find_frontier_strategy(diamond, space, tables,
                                   memory_budget=64)
        assert exc.value.budget_bytes == 64

    def test_checkpoint_called(self, diamond):
        space, tables = setup(diamond)
        seen = []
        find_frontier_strategy(
            diamond, space, tables,
            checkpoint=lambda **kw: seen.append(kw))
        assert any(kw.get("phase") == "frontier" for kw in seen)


class TestStrategyPeakBytes:
    def test_matches_memory_tables_sum(self, diamond):
        space, tables = setup(diamond)
        res = find_best_strategy(diamond, space, tables)
        mem = memory_tables(diamond, space)
        idx = res.strategy.to_indices(space)
        want = sum(float(mem[n][k]) for n, k in idx.items())
        assert strategy_peak_bytes(diamond, space, res.strategy) == want
        assert strategy_peak_bytes(diamond, space, res.strategy,
                                   mem_tables=mem) == want


class TestBundledModels:
    """Satellite: the frontier min-cost point is bit-identical to the
    scalar DP optimum on all four bundled models at p=8.  The two heavy
    models run eps-coarsened — coarsening only shrinks the frontier and
    its min-cost point is exact by construction, so the bit-identity
    claim is the same one (the exact p=16 frontiers are exercised by
    ``benchmarks/bench_frontier.py``)."""

    @pytest.mark.parametrize("name,eps", [
        ("alexnet", 0.0),
        ("rnnlm", 0.0),
        ("inception_v3", 10.0),
        ("transformer", 10.0),
    ])
    def test_min_cost_bit_identity_p8(self, name, eps):
        from repro.models import BENCHMARKS

        graph = BENCHMARKS[name]()
        space = ConfigSpace.build(graph, 8)
        tables = CostModel(GTX1080TI).build_tables(graph, space)
        scalar = find_best_strategy(graph, space, tables)
        res = find_frontier_strategy(graph, space, tables, eps=eps)
        assert res.frontier[0].cost == scalar.cost
        assert res.cost == scalar.cost
        for a, b in zip(res.frontier, res.frontier[1:]):
            assert a.cost <= b.cost and a.peak_bytes > b.peak_bytes


class TestFrontierPoint:
    def test_frozen_and_ordered_fields(self):
        from repro.core.strategy import Strategy
        pt = FrontierPoint(cost=1.0, peak_bytes=2.0, strategy=Strategy({}))
        with pytest.raises(AttributeError):
            pt.cost = 3.0
