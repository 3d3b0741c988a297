"""Fault injection on the table build.

The thread backend has no degradation path: a failure inside the pool
propagates to the caller unchanged, and nothing half-built reaches the
cache.  Cancellation is honored before the pool starts.
"""

import pytest

from repro.core.configs import ConfigSpace
from repro.core.costmodel import CostModel
from repro.core.exceptions import RunInterrupted
from repro.core.machine import GTX1080TI
from repro.core.tablecache import TableCache
from repro.runtime import Cancellation, RunContext
from tests.conftest import build_dag


def make_problem(p: int = 4):
    graph = build_dag(4, [(0, 2), (1, 3)], param_mask=0b1010,
                      reduction_mask=0b0100)
    return graph, ConfigSpace.build(graph, p)


class TestThreadPoolFailure:
    def test_worker_error_propagates_and_skips_cache(
            self, monkeypatch, tmp_path):
        def explode(self, op, configs):
            raise MemoryError("layer cost failed in a pool thread")

        monkeypatch.setattr(CostModel, "layer_cost", explode)
        graph, space = make_problem()
        cache = TableCache(tmp_path / "cache")
        ctx = RunContext(jobs="threads:2", cache=cache)
        with pytest.raises(MemoryError, match="pool thread"):
            CostModel(GTX1080TI).build_tables(graph, space, ctx=ctx)
        assert list(cache.entries()) == []

    def test_cancelled_before_pool_starts(self, monkeypatch):
        calls = []
        original = CostModel.layer_cost

        def counted(self, op, configs):
            calls.append(op.name)
            return original(self, op, configs)

        monkeypatch.setattr(CostModel, "layer_cost", counted)
        cancel = Cancellation()
        cancel.set("SIGINT")
        graph, space = make_problem()
        ctx = RunContext(cancellation=cancel, jobs="threads:2")
        with pytest.raises(RunInterrupted):
            CostModel(GTX1080TI).build_tables(graph, space, ctx=ctx)
        assert calls == []
