"""Outside-in layer timing: in-memory spans, counts and call wrappers.

The program is never edited.  A traced operation installs wrappers at
the attributes its callers look the layer entry points up by (a module
global, a class attribute, an entry of the model registry), records one
span per call, and restores the originals when the operation ends.
Spans and counts stay in memory; the caller aggregates them when the
run ends.

Work a traced operation hands to pool workers is recorded in the
worker processes (`install_worker`) and grafted below the operation's
root span, so the layers a workload reaches are timed wherever they run.

A layer's self time is its span's duration minus the time its child
spans cover; where spans run at once (two pool workers) each instant is
split evenly between them (`self_times`).  Each operation is one root
span, so the self times of all spans below a root plus the root's own
self time (the unattributed remainder) sum to the operation's wall time
exactly.
"""

from __future__ import annotations

import functools
import glob
import importlib
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: "int | None"


class Recorder:
    """Spans (name, start, end, parent) and named counts, in memory.

    Single-threaded: the span stack is instance state.  ``clock`` is
    `time.perf_counter`, which reads the system-wide monotonic clock, so
    spans recorded by a child process line up with the parent's.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._next = 1

    def add(self, name: str, start: float, end: float,
            parent: "int | None" = None) -> int:
        sid = self._next
        self._next += 1
        self.spans.append(Span(sid, name, start, end, parent))
        return sid

    @contextmanager
    def span(self, name: str):
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, name, start, end, parent))

    def reset(self) -> None:
        """Drop every span and count (a forked worker's inherited copy)."""
        self.spans.clear()
        self.counts.clear()
        self.peaks.clear()
        self._stack.clear()

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[name] += value

    def peak(self, name: str, value: float) -> None:
        self.peaks[name] = max(self.peaks[name], value)

    def last(self, name: str) -> "Span | None":
        for s in reversed(self.spans):
            if s.name == name:
                return s
        return None

    def to_json(self) -> dict:
        return {"spans": [[s.id, s.name, s.start, s.end, s.parent]
                          for s in self.spans],
                "counts": dict(self.counts), "peaks": dict(self.peaks)}

    def merge_json(self, doc: dict, parent: int) -> None:
        """Graft a child process's spans below ``parent``."""
        remap: dict[int, int] = {}
        for sid, *_ in doc["spans"]:
            remap[sid] = self._next
            self._next += 1
        for sid, name, start, end, par in doc["spans"]:
            self.spans.append(Span(remap[sid], name, start, end,
                                   parent if par is None else remap[par]))
        for name, value in doc["counts"].items():
            self.count(name, value)
        for name, value in doc["peaks"].items():
            self.peak(name, value)


def trace_doc(rec: Recorder, roots: "list[int]") -> dict:
    """A traced run's spans and counts, as written when the run ends."""
    return {"roots": list(roots), **rec.to_json()}


def self_times(rec: Recorder, roots: "list[int]") -> dict[str, float]:
    """Summed self time per span name over the trees under ``roots``.

    Each instant of a root's wall goes to the innermost spans open at
    that instant (those with no open child), split evenly when several
    are open at once, as concurrent pool workers are.  Spans that do not
    overlap their siblings so get their usual self time, duration minus
    what their children cover, and the values of one root always sum to
    its wall.  A span is clipped to its parent's interval.  The roots'
    own share is reported as ``"unattributed"``.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    by_id = {s.id: s for s in rec.spans}
    for s in rec.spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out: dict[str, float] = defaultdict(float)
    for root in roots:
        # (id, name, start, end, parent id, depth), parents first.
        tree = []
        todo = [(by_id[root], None, by_id[root].start, by_id[root].end, 0)]
        while todo:
            s, parent, lo, hi, depth = todo.pop()
            start, end = max(s.start, lo), min(s.end, hi)
            if end <= start:
                continue
            name = "unattributed" if s.id == root else s.name
            tree.append((s.id, name, start, end, parent, depth))
            todo.extend((c, s.id, start, end, depth + 1)
                        for c in children[s.id])
        events = []
        for k, (_, _, start, end, _, depth) in enumerate(tree):
            events.append((start, 1, depth, k))
            events.append((end, 0, -depth, k))
        events.sort()
        index = {sid: k for k, (sid, *_) in enumerate(tree)}
        open_children: dict[int, int] = defaultdict(int)
        innermost: set[int] = set()
        prev = tree[0][2] if tree else 0.0
        for t, starting, _, k in events:
            if innermost and t > prev:
                share = (t - prev) / len(innermost)
                for j in innermost:
                    out[tree[j][1]] += share
            prev = t
            parent = tree[k][4]
            up = index.get(parent) if parent is not None else None
            if starting:
                innermost.add(k)
                if up is not None:
                    open_children[up] += 1
                    innermost.discard(up)
            else:
                innermost.discard(k)
                if up is not None:
                    open_children[up] -= 1
                    if open_children[up] == 0:
                        innermost.add(up)
    return dict(out)


# -- wrappers -----------------------------------------------------------------

def _wrapped(fn, name: str, rec: Recorder, on_return=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(name):
            out = fn(*args, **kwargs)
        if on_return is not None:
            on_return(out)
        return out
    return wrapper


class Patches:
    """Installed wrappers, restored in reverse order by `restore`."""

    def __init__(self, rec: Recorder) -> None:
        self.rec = rec
        self._undo: list = []

    def replace(self, owner, attr: str, new) -> None:
        """Set ``owner.attr`` (a module or class) to ``new`` until
        `restore`."""
        orig = vars(owner)[attr]
        setattr(owner, attr, new)
        self._undo.append(lambda: setattr(owner, attr, orig))

    def function(self, module: str, attr: str, name: str,
                 on_return=None) -> None:
        mod = importlib.import_module(module)
        self.replace(mod, attr, _wrapped(getattr(mod, attr), name, self.rec,
                                         on_return))

    def method(self, module: str, cls_attr: str, name: str,
               on_return=None) -> None:
        cls_name, attr = cls_attr.split(".")
        cls = getattr(importlib.import_module(module), cls_name)
        orig = vars(cls)[attr]
        if isinstance(orig, classmethod):
            new = classmethod(_wrapped(orig.__func__, name, self.rec,
                                       on_return))
        else:
            new = _wrapped(orig, name, self.rec, on_return)
        self.replace(cls, attr, new)

    def registry(self, module: str, attr: str, name: str) -> None:
        """Wrap every value of a dict of factories, in place."""
        table = getattr(importlib.import_module(module), attr)
        saved = dict(table)
        for key, fn in saved.items():
            table[key] = _wrapped(fn, name, self.rec)
        self._undo.append(lambda: table.update(saved))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


def _count_outcome(rec: Recorder):
    """Counts from a `RunOutcome`'s public ``result.stats``."""
    def on_return(outcome) -> None:
        st = outcome.result.stats
        if "frontier_points" in st:
            rec.count("frontier.cells", st.get("frontier_cells", 0.0))
            rec.count("frontier.points", st["frontier_points"])
            rec.peak("frontier.max_state_points",
                     st.get("frontier_max_state_points", 0.0))
        else:
            rec.count("dp.cells", st.get("cells", 0.0))
        if "reduction_bypassed" in st:
            rec.count("reduction.runs")
            rec.count("reduction.bypassed", st["reduction_bypassed"])
            rec.count("reduction.cells_removed",
                      st.get("reduction_cells_removed", 0.0))
            rec.count("reduction.cells_before",
                      st.get("reduction_cells_before", 0.0))
        rec.count("runtime.searches")
    return on_return


def _count_tables(rec: Recorder):
    def on_return(tables) -> None:
        rec.count("costmodel.builds")
        rec.count(f"costmodel.backend.{tables.backend}")
        rec.count("costmodel.table_bytes", float(tables.nbytes()))
        rec.count("costmodel.cache_hits",
                  float(tables.build_stats.get("cache_hit", 0.0)))
    return on_return


def install_search(rec: Recorder, runtime_module: str) -> Patches:
    """Wrap the search pipeline's layers.

    ``runtime_module`` is where the caller looks ``execute_search`` up:
    ``repro.api`` for `repro.api.search`, ``repro.runtime`` for the CLI,
    ``repro.runtime.run`` for a pool worker's task.
    """
    p = Patches(rec)
    p.registry("repro.models", "BENCHMARKS", "models.build")
    p.method("repro.core.configs", "ConfigSpace.build", "configs.build")
    p.function(runtime_module, "execute_search", "runtime",
               _count_outcome(rec))
    p.method("repro.core.costmodel", "CostModel.build_tables",
             "costmodel.build", _count_tables(rec))
    p.function("repro.runtime.run", "find_best_strategy", "dp")
    p.function("repro.core.dp", "generate_seq", "sequencer")
    p.function("repro.core.frontier", "generate_seq", "sequencer")
    p.method("repro.core.sequencer", "SequencedGraph.build", "sequencer")
    p.function("repro.core.reduction", "reduce_problem", "reduction")
    p.method("repro.core.reduction", "ReducedProblem.expand_result",
             "reduction")
    p.function("repro.core.frontier", "find_frontier_strategy", "frontier")
    return p


def task_key(task_dict) -> list:
    """The key a task's spans are filed under: model, p and seed."""
    return [task_dict["model"], task_dict["p"], task_dict["seed"]]


def install_worker(p: Patches, out_dir: str, *, search: bool) -> None:
    """Record every task attempt a forked pool worker runs.

    Wraps ``repro.fleet.worker.run_task_attempt``, which the pool's
    worker loop looks up for each task.  Calls in the installing process
    pass through.  In a worker each attempt starts from an empty copy of
    the recorder, runs as one ``worker.task`` span, and is written to
    ``<out_dir>/task-<pid>-<n>.json`` with its `task_key`.  With
    ``search`` the worker installs the search pipeline's wrappers on its
    first task (`install_search`); without, it relies on the ones it
    inherited from the installing process.
    """
    rec = p.rec
    home = os.getpid()
    mod = importlib.import_module("repro.fleet.worker")
    orig = vars(mod)["run_task_attempt"]
    seen = {"pid": home, "n": 0}

    @functools.wraps(orig)
    def run_task_attempt(task_dict, *args, **kwargs):
        pid = os.getpid()
        if pid == home:
            return orig(task_dict, *args, **kwargs)
        if seen["pid"] != pid:
            seen["pid"], seen["n"] = pid, 0
            if search:
                install_search(rec, "repro.runtime.run")
        rec.reset()
        try:
            with rec.span("worker.task"):
                return orig(task_dict, *args, **kwargs)
        finally:
            seen["n"] += 1
            doc = {"task": task_key(task_dict), **rec.to_json()}
            path = os.path.join(out_dir, f"task-{pid}-{seen['n']}.json")
            with open(path + ".tmp", "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            os.replace(path + ".tmp", path)

    p.replace(mod, "run_task_attempt", run_task_attempt)


def read_task_docs(out_dir: str) -> "list[dict]":
    """Every span document under ``out_dir``, in file-name order.

    Each holds a ``task`` key; a file may also hold a list of them.
    """
    docs: list[dict] = []
    for path in sorted(glob.glob(os.path.join(out_dir, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        docs.extend(doc if isinstance(doc, list) else [doc])
    return docs


def install_fleet(rec: Recorder, worker_dir: str) -> Patches:
    """Wrap the fleet supervisor's layers, the search pipeline (its
    prewarm step runs in-process), and the pool workers' tasks, whose
    spans go to ``worker_dir``."""
    p = install_search(rec, "repro.runtime.run")
    p.function("repro.fleet.supervisor", "prewarm_fork_template",
               "fleet.prewarm")
    p.function("repro.fleet.supervisor", "merge_results", "fleet.merge")
    for attr in ("submit", "release", "shutdown"):
        p.method("repro.fleet.pool", f"WorkerPool.{attr}", "fleet.pool")

    from repro.fleet.manifest import FleetManifest

    orig = FleetManifest.__dict__["flush"]

    @functools.wraps(orig)
    def flush(self, *args, **kwargs):
        before = _inode(self.path)
        with rec.span("fleet.manifest"):
            orig(self, *args, **kwargs)
        if _inode(self.path) != before:
            rec.count("fleet.manifest_flushes")

    p.replace(FleetManifest, "flush", flush)
    install_worker(p, worker_dir, search=False)
    return p


def _inode(path) -> "int | None":
    try:
        return os.stat(path).st_ino
    except OSError:
        return None


#: Span name -> per-layer metric reporting its self time.  Spans not
#: listed (CLI glue, wrapper installation) are left in ``unattributed_s``.
LAYER_SPANS = {
    "cli.interp": "cli.interp_s",
    "cli.import": "cli.import_s",
    "cli.output": "cli.output_s",
    "models.build": "models.build_s",
    "configs.build": "configs.build_s",
    "costmodel.build": "costmodel.build_s",
    "sequencer": "sequencer.s",
    "reduction": "reduction.s",
    "dp": "dp.s",
    "frontier": "frontier.s",
    "runtime": "runtime.self_s",
    "worker.task": "worker.self_s",
    "fleet.prewarm": "fleet.prewarm_s",
    "fleet.merge": "fleet.merge_s",
    "fleet.manifest": "fleet.manifest_s",
    "fleet.pool": "fleet.pool_s",
}


def layer_metrics(rec: Recorder, roots: "list[int]") -> dict[str, float]:
    """Per-layer metrics, as means per traced operation.

    Self times per layer plus ``unattributed_s`` add up to the mean
    wall of the traced operations.
    """
    n = max(len(roots), 1)
    out = {metric: 0.0 for metric in LAYER_SPANS.values()}
    unattributed = 0.0
    for name, secs in self_times(rec, roots).items():
        if name in LAYER_SPANS:
            out[LAYER_SPANS[name]] += secs / n
        else:
            unattributed += secs / n
    out["unattributed_s"] = unattributed
    c = rec.counts
    builds = c.get("costmodel.builds", 0.0)
    out["costmodel.table_mb"] = (c.get("costmodel.table_bytes", 0.0)
                                 / 1e6 / builds if builds else 0.0)
    for backend in ("serial", "threads", "processes"):
        out[f"costmodel.backend.{backend}"] = \
            c.get(f"costmodel.backend.{backend}", 0.0) / n
    for name in ("dp.cells", "frontier.cells", "frontier.points"):
        out[name] = c.get(name, 0.0) / n
    out["frontier.max_state_points"] = rec.peaks.get(
        "frontier.max_state_points", 0.0)
    before = c.get("reduction.cells_before", 0.0)
    out["reduction.cells_removed_share"] = (
        c.get("reduction.cells_removed", 0.0) / before if before else 0.0)
    runs = c.get("reduction.runs", 0.0)
    out["reduction.bypassed_share"] = (
        c.get("reduction.bypassed", 0.0) / runs if runs else 0.0)
    return out
