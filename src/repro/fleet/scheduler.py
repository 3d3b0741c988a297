"""The scheduler core shared by fleet sweeps and the serve daemon.

A `Scheduler` owns a `WorkerPool` and drives `Job`s through it: dispatch
(clear the heartbeat, then submit), reap, straggler SIGKILL, retry
backoff, TERM-then-KILL shutdown.  Callers keep only policy, as
callbacks: the fleet's manifest and ``fleet_*`` metrics, serve's
coalesced flights, result cache and quarantine.

The task files under ``<root>/tasks/<task_id>/`` stay the durable
record: an attempt succeeded when ``result.json`` names its task, and
failed when its process died without one.

The loop blocks in `multiprocessing.connection.wait` instead of
sleeping.  It wakes on a busy worker's process sentinel (death), its
done pipe (``result.json`` is on disk), the wake pipe (`Scheduler.wake`)
or the earliest pending timer: backoff eligibility, a straggler check,
the caller's deadline.  No wait exceeds `TICK_SECONDS`, because a signal
handler that only flags a `Cancellation` does not interrupt it (PEP 475).
"""

from __future__ import annotations

import multiprocessing
import os
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass
from multiprocessing.connection import Pipe, wait
from pathlib import Path
from typing import Any, Callable, Mapping

from .pool import WorkerPool
from .spec import SweepTask
from .worker import read_json, task_dir

__all__ = ["Scheduler", "Job", "classify", "finished_result",
           "TICK_SECONDS", "DEFAULT_MAX_ATTEMPTS",
           "DEFAULT_STRAGGLER_AFTER_SECONDS"]

#: Longest single wait: how late a cancellation can be seen.
TICK_SECONDS = 0.25

#: Total attempts a task gets before quarantine (first run + retries).
DEFAULT_MAX_ATTEMPTS = 3

#: Heartbeat age (seconds) past which a worker is declared a straggler.
DEFAULT_STRAGGLER_AFTER_SECONDS = 60.0


def _backoff(task_id: str, attempts: int, base: float, cap: float) -> float:
    """Exponential backoff with deterministic per-(task, attempt)
    jitter: it decorrelates a herd of simultaneous failures, yet the
    same task/attempt always backs off the same amount."""
    delay = min(cap, base * (2.0 ** max(attempts - 1, 0)))
    jitter = random.Random(f"{task_id}:{attempts}").uniform(0.0, 0.5)
    return delay * (1.0 + jitter)


def finished_result(root: str | os.PathLike, task_id: str) -> dict | None:
    """The task's ``result.json`` if it holds this task's record.  Task
    ids are content hashes, so a match *is* the answer, whoever wrote
    it (this attempt, an orphaned worker, an earlier run)."""
    doc = read_json(task_dir(root, task_id) / "result.json")
    if doc is None or doc.get("record", {}).get("task_id") != task_id:
        return None
    return doc


@dataclass(eq=False)
class Job:
    """One task the scheduler drives to an outcome."""

    task: SweepTask
    attempts: int = 0                      # attempts dispatched so far
    options: Mapping[str, Any] | None = None   # per-task worker options
    owner: Any = None                      # the caller's record
    eligible_at: float = 0.0               # monotonic; backoff ends
    started: float = 0.0                   # monotonic dispatch time
    process: Any = None                    # pool process while running
    straggler_killed: bool = False

    @property
    def task_id(self) -> str:
        return self.task.task_id


def classify(job: Job, tdir: Path) -> tuple[str, str]:
    """Classify a failed attempt from the evidence left behind.  An
    ``error.json`` names the failure only if this attempt wrote it:
    dispatch does not clear the file."""
    if job.straggler_killed:
        return "straggler", "heartbeat went stale; worker SIGKILLed"
    err = read_json(tdir / "error.json")
    if err is not None and err.get("attempt") == job.attempts:
        return (str(err.get("kind", "error")),
                f"{err.get('type', 'Exception')}: "
                f"{err.get('detail', '?')}")
    return "crash", (f"worker died with exit code {job.process.exitcode} "
                     "and no error report")


def _ignore(job: Job) -> None:
    pass


class Scheduler:
    """Dispatch, reap and retry `Job`s over one `WorkerPool`.

    ``on_result(job, doc)`` gets each success with its ``result.json``;
    ``on_failure(job, kind, detail)`` each failed attempt, returning
    True to retry it after the backoff.  Everything but `wake` runs on
    the caller's thread.
    """

    def __init__(self, root: str | os.PathLike, *, workers: int,
                 options: Mapping[str, Any],
                 backoff_base: float, backoff_cap: float,
                 straggler_after: float,
                 on_result: Callable[[Job, dict], None],
                 on_failure: Callable[[Job, str, str], bool],
                 on_dispatch: Callable[[Job], None] = _ignore,
                 on_straggler: Callable[[Job], None] = _ignore,
                 on_spawn: Callable[[], None] | None = None,
                 on_reuse: Callable[[], None] | None = None,
                 mp_ctx=None) -> None:
        self.root = Path(root)
        self.workers = workers
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.straggler_after = straggler_after
        self.on_result = on_result
        self.on_failure = on_failure
        self.on_dispatch = on_dispatch
        self.on_straggler = on_straggler
        self.pool = WorkerPool(
            mp_ctx=mp_ctx or multiprocessing.get_context(),
            fleet_dir=str(self.root), options=options,
            max_workers=workers, on_spawn=on_spawn, on_reuse=on_reuse)
        self.waiting: list[Job] = []
        self.running: dict[str, Job] = {}
        self._next_check: float | None = None
        self._wake_r, self._wake_w = Pipe(duplex=False)
        os.set_blocking(self._wake_w.fileno(), False)

    def add(self, job: Job) -> None:
        """Queue ``job`` for the next free slot."""
        self.waiting.append(job)

    def wake(self) -> None:
        """End the current wait early (safe from any thread)."""
        try:
            self._wake_w.send_bytes(b"")
        except OSError:  # full (a wake is pending anyway) or closed
            pass

    def run(self, poll: Callable[[], bool], *, batch=nullcontext,
            until_idle: bool = False, deadline: float | None = None) -> None:
        """Wake, work, wait — until ``poll()`` (run first on every wake;
        it may raise) returns False or, with ``until_idle``, no job is
        left.  ``batch()`` wraps each wake's reaps and dispatches;
        ``deadline`` (monotonic) is a timer the wait wakes for."""
        while poll():
            with batch():
                self.step()
                if until_idle and not (self.waiting or self.running):
                    return
            self.wait(deadline)

    def step(self) -> None:
        """One wake's work: reap, dispatch into the freed slots, then
        check stragglers (whose deaths the next wake reaps)."""
        self._reap()
        self._dispatch()
        self._kill_stragglers()

    def wait(self, deadline: float | None = None) -> None:
        """Block until a worker finishes or dies, `wake` is called, or
        the earliest pending timer is due (at most `TICK_SECONDS`)."""
        now = time.monotonic()
        timers = [t for t in (deadline, self._next_check) if t is not None]
        if self.waiting and len(self.running) < self.workers:
            timers.append(min(job.eligible_at for job in self.waiting))
        timeout = min([TICK_SECONDS] + [max(t - now, 0.0) for t in timers])
        handles = [self._wake_r]
        for tid in self.running:
            handles += self.pool.signals(tid)
        for ready in wait(handles, timeout):
            if isinstance(ready, int):
                continue  # a process sentinel: the reap sees the death
            try:
                while ready.poll():
                    ready.recv_bytes()  # wake-ups carry nothing
            except (EOFError, OSError):
                pass  # a dead worker's pipe; its sentinel fired too

    def shutdown(self, grace: float) -> None:
        """TERM then KILL every worker (``grace`` seconds apart)."""
        self.pool.shutdown(grace)
        self._wake_r.close()
        self._wake_w.close()

    # -- one wake's work -----------------------------------------------------

    def _dispatch(self) -> None:
        now = time.monotonic()
        for job in list(self.waiting):
            if len(self.running) >= self.workers:
                return
            if job.eligible_at > now:
                continue
            self.waiting.remove(job)
            tdir = task_dir(self.root, job.task_id)
            tdir.mkdir(parents=True, exist_ok=True)
            # Staleness is measured against *this* attempt's process.
            (tdir / "heartbeat.json").unlink(missing_ok=True)
            job.attempts += 1
            job.process = self.pool.submit(
                job.task_id, job.task.to_dict(), job.attempts, job.options)
            job.started = now
            job.straggler_killed = False
            self.running[job.task_id] = job
            self.on_dispatch(job)

    def _reap(self) -> None:
        # Pool workers outlive their tasks: completion is the atomic
        # result.json write, and a dead process without one (burned on
        # error, straggler-SIGKILLed, real crash) is the failure.  A
        # valid result counts even from a process that died afterwards.
        for tid, job in list(self.running.items()):
            doc = finished_result(self.root, tid)
            alive = job.process.is_alive()
            if alive and doc is None:
                continue
            if not alive:
                job.process.join()
            self.pool.release(tid)
            del self.running[tid]
            if doc is not None:
                self.on_result(job, doc)
                continue
            kind, detail = classify(job, task_dir(self.root, tid))
            if self.on_failure(job, kind, detail):
                job.eligible_at = time.monotonic() + _backoff(
                    tid, job.attempts, self.backoff_base, self.backoff_cap)
                self.waiting.append(job)

    def _kill_stragglers(self) -> None:
        """SIGKILL workers whose heartbeat went stale (the reap does the
        rest) and note when the next check is due."""
        now, wall_now = time.monotonic(), time.time()
        checks = []
        for job in self.running.values():
            if job.straggler_killed or not job.process.is_alive():
                continue
            age = now - job.started
            if age >= self.straggler_after:
                hb = read_json(task_dir(self.root, job.task_id)
                               / "heartbeat.json")
                age = (wall_now - float(hb["time"])) if hb else age
                if age >= self.straggler_after:
                    job.straggler_killed = True
                    self.on_straggler(job)
                    job.process.kill()
                    continue
            checks.append(now + self.straggler_after - age)
        self._next_check = min(checks, default=None)
