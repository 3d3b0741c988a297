"""mmap'd npz reads, plus the table build's ``jobs=`` parsing and
backend choice.

The mmap'd cache reads must be read-only views that are bit-identical
to an eager ``np.load``.  The table build has two backends, serial and
threads; every other ``jobs=`` spelling is rejected at the boundary.
"""

import os

import numpy as np
import pytest

from repro.core import costmodel
from repro.core.costmodel import CostModel, _parse_jobs
from repro.core.machine import GTX1080TI
from repro.core.shm import open_npz_mmap


class TestNpzMmap:
    def write_npz(self, path):
        rng = np.random.default_rng(7)
        arrays = {"alpha": rng.random((13, 5)),
                  "beta": np.arange(9, dtype=np.float64),
                  "gamma": rng.random((2, 3, 4))}
        np.savez(path, **arrays)
        return arrays

    def test_views_match_eager_load(self, tmp_path):
        path = tmp_path / "tables.npz"
        arrays = self.write_npz(path)
        views = open_npz_mmap(path)
        eager = np.load(path)
        assert set(views) == set(arrays)
        for key, ref in arrays.items():
            assert np.array_equal(views[key], ref)
            assert np.array_equal(views[key], eager[key])

    def test_views_are_read_only(self, tmp_path):
        path = tmp_path / "tables.npz"
        self.write_npz(path)
        views = open_npz_mmap(path)
        for arr in views.values():
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            views["alpha"][0, 0] = 42.0

    def test_compressed_archive_rejected(self, tmp_path):
        path = tmp_path / "z.npz"
        np.savez_compressed(path, x=np.arange(4.0))
        with pytest.raises(ValueError):
            open_npz_mmap(path)

    def test_views_survive_file_deletion(self, tmp_path):
        path = tmp_path / "tables.npz"
        arrays = self.write_npz(path)
        views = open_npz_mmap(path)
        path.unlink()
        assert np.array_equal(views["alpha"], arrays["alpha"])


class TestJobsParsing:
    @pytest.mark.parametrize("spec,expected", [
        (None, ("serial", 1)),
        ("serial", ("serial", 1)),
        (3, ("auto", 3)),
        ("auto:5", ("auto", 5)),
        ("threads:4", ("threads", 4)),
        ("THREADS:2", ("threads", 2)),
    ])
    def test_spellings(self, spec, expected):
        assert _parse_jobs(spec) == expected

    def test_zero_means_all_cores(self):
        mode, n = _parse_jobs(0)
        assert mode == "auto" and n == (os.cpu_count() or 1)
        mode, n = _parse_jobs("threads")
        assert mode == "threads" and n == (os.cpu_count() or 1)

    @pytest.mark.parametrize("bad", [
        -1, "turbo", "serial:2", "threads:x", "processes:-3", 2.5, True,
        "processes", "processes:2",
    ])
    def test_rejections(self, bad):
        with pytest.raises(ValueError):
            _parse_jobs(bad)


class TestBackendResolution:
    def model(self):
        return CostModel(GTX1080TI)

    def test_forced_backends_ignore_core_count(self):
        cm = self.model()
        assert cm._resolve_backend("threads:4", 10, 100) == ("threads", 4)

    def test_forced_backend_capped_by_task_count(self):
        cm = self.model()
        assert cm._resolve_backend("threads:8", 10, 3) == ("threads", 3)
        assert cm._resolve_backend("threads:8", 10, 1) == ("serial", 1)

    def test_auto_small_work_stays_serial(self):
        cm = self.model()
        assert cm._resolve_backend(4, 10, 100) == ("serial", 1)

    def test_auto_picks_threads_at_threshold(self, monkeypatch):
        monkeypatch.setattr(costmodel.os, "cpu_count", lambda: 8)
        cm = self.model()
        small = costmodel.PARALLEL_THRESHOLD_CELLS - 1
        large = costmodel.PARALLEL_THRESHOLD_CELLS
        assert cm._resolve_backend(4, small, 100) == ("serial", 1)
        assert cm._resolve_backend(4, large, 100) == ("threads", 4)
        # However large the tables, auto never leaves the thread pool.
        assert cm._resolve_backend(4, 10**12, 100) == ("threads", 4)

    def test_auto_single_core_is_serial(self, monkeypatch):
        monkeypatch.setattr(costmodel, "PARALLEL_THRESHOLD_CELLS", 0)
        monkeypatch.setattr(costmodel.os, "cpu_count", lambda: 1)
        cm = self.model()
        assert cm._resolve_backend(4, 10**9, 100) == ("serial", 1)
