"""The fleet worker pool: pre-forked, recycled, crash-only.

A pool of long-lived worker processes drains tasks from per-worker
inboxes, so a task pays no interpreter bootstrap, while the crash-only
file protocol stays the durable record:

- Results travel only as ``result.json`` / ``error.json`` /
  ``heartbeat.json`` under the task directory; the inbox carries task
  dicts *in*, and a worker's ``done`` pipe carries one empty wake-up
  *out* after ``result.json`` is on disk (`repro.fleet.scheduler`).
- A worker that sees a task attempt *fail* (error, deadline, chaos
  ``raise``) burns itself with ``os._exit(1)`` after writing
  ``error.json``, so one task's damage never leaks into the next.
- Healthy workers are recycled after `recycle_after` tasks to bound
  leak accumulation; recycling is scheduler-driven (sentinel + join)
  so a task is never enqueued to a process that is about to exit.
- Workers watch their parent pid each inbox-poll; if the supervisor
  died uncleanly (SIGKILL) they exit rather than linger as orphans.
"""

from __future__ import annotations

import os
import queue
import signal
import time
from dataclasses import dataclass, field
from multiprocessing.connection import Pipe
from typing import Any, Callable, Mapping

__all__ = ["WorkerPool", "pool_worker_main", "DEFAULT_RECYCLE_AFTER",
           "INBOX_POLL_SECONDS"]

#: How often an idle worker checks that its parent is alive; a task
#: arriving on the inbox ends the wait at once.
INBOX_POLL_SECONDS = 0.25

#: Healthy workers are retired after this many tasks (leak hygiene).
DEFAULT_RECYCLE_AFTER = 25


def pool_worker_main(inbox, fleet_dir: str, options: Mapping[str, Any],
                     parent_pid: int, done=None) -> None:
    """Long-lived child entry point: drain tasks until told to stop.

    Protocol on ``inbox``: ``(task_dict, attempt, extra_options)``
    tuples to run (``extra_options`` — ``None`` for none — is merged
    over the pool-wide ``options``, which is how the serve daemon gives
    each request its own deadline), ``None`` as a clean-shutdown
    sentinel.  A *failed* attempt (False from `run_task_attempt`, or an
    escaped exception) ends the process with ``os._exit(1)``.  After a
    successful attempt the worker sends one empty message on ``done``
    (when given) to wake the scheduler.
    """
    from . import worker

    # The supervisor owns shutdown: ignore SIGINT (a terminal ^C hits
    # the whole process group) so the fleet winds down through the
    # supervisor's manifest flush.  A forked child also inherits
    # `trap_signals`' SIGTERM handler, which would flip a *copy* of the
    # supervisor's token and keep running — restore the default so the
    # supervisor's terminate() actually terminates.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    while True:
        try:
            item = inbox.get(timeout=INBOX_POLL_SECONDS)
        except queue.Empty:
            if os.getppid() != parent_pid:
                # Supervisor died uncleanly; don't linger as an orphan.
                os._exit(0)
            continue
        if item is None:
            return  # clean recycle/shutdown
        task_dict, attempt, extra = item
        merged = dict(options)
        if extra:
            merged.update(extra)
        try:
            # Looked up per task, so a wrapper installed on the module
            # (a span recorder, say) sees every attempt.
            ok = worker.run_task_attempt(task_dict, attempt, fleet_dir,
                                         merged)
        except BaseException:
            os._exit(1)
        if not ok:
            # error.json is on disk; burn the process for crash
            # isolation.
            os._exit(1)
        if done is not None:
            try:
                done.send_bytes(b"")
            except OSError:  # pragma: no cover - parent gone
                pass


@dataclass
class _PoolWorker:
    process: Any
    inbox: Any
    done: Any                      # read end of the worker's done pipe
    tasks_done: int = 0


@dataclass
class WorkerPool:
    """Scheduler-side pool of reusable worker processes.

    ``submit`` hands a task to an idle worker (forking a fresh one only
    when none is available), ``release`` returns the worker to the idle
    list after the scheduler has reaped the task — retiring it first
    if it hit the recycle limit or died.  All bookkeeping runs on the
    scheduler's thread; workers never share an inbox, so a dead
    worker's queued sentinel can't strand another worker's task.
    """

    mp_ctx: Any
    fleet_dir: str
    options: Mapping[str, Any]
    max_workers: int = 4
    recycle_after: int = DEFAULT_RECYCLE_AFTER
    on_spawn: Callable[[], None] | None = None
    on_reuse: Callable[[], None] | None = None
    spawned: int = 0
    reused: int = 0
    _idle: list = field(default_factory=list)
    _busy: dict = field(default_factory=dict)

    def submit(self, task_id: str, task_dict: Mapping[str, Any],
               attempt: int,
               options: Mapping[str, Any] | None = None):
        """Dispatch one task; returns the worker's process handle.

        ``options`` are per-task overrides merged over the pool-wide
        ``options`` inside the worker (e.g. a serve request's own
        ``task_deadline``).
        """
        worker = None
        while self._idle:
            cand = self._idle.pop()
            if cand.process.is_alive():
                worker = cand
                break
            cand.process.join(timeout=0)  # reap a silently-dead idler
        if worker is None:
            worker = self._spawn()
        else:
            self.reused += 1
            if self.on_reuse is not None:
                self.on_reuse()
        worker.inbox.put((dict(task_dict), attempt,
                          None if options is None else dict(options)))
        self._busy[task_id] = worker
        return worker.process

    def signals(self, task_id: str) -> list:
        """What to wait on for ``task_id``: the busy worker's process
        sentinel (ready when it dies) and its done pipe."""
        worker = self._busy[task_id]
        return [worker.process.sentinel, worker.done]

    def release(self, task_id: str) -> None:
        """Return the worker for ``task_id`` after its task was reaped."""
        worker = self._busy.pop(task_id, None)
        if worker is None:
            return
        if not worker.process.is_alive():
            worker.process.join(timeout=0)
            self._close(worker)
            return
        worker.tasks_done += 1
        if worker.tasks_done >= self.recycle_after:
            self._stop([worker], 2.0)
        else:
            self._idle.append(worker)

    def shutdown(self, grace: float = 2.0) -> None:
        """Stop every worker: idle ones exit on a sentinel, busy ones
        get SIGTERM (their in-flight attempt dies; resume re-runs it),
        stragglers are SIGKILLed after ``grace`` seconds."""
        idle, busy = self._idle, list(self._busy.values())
        self._idle, self._busy = [], {}
        for worker in busy:
            worker.process.terminate()
        self._stop(idle + busy, grace)

    # -- internals -----------------------------------------------------------

    def _spawn(self) -> _PoolWorker:
        inbox = self.mp_ctx.Queue()
        done, done_w = Pipe(duplex=False)
        process = self.mp_ctx.Process(
            target=pool_worker_main,
            args=(inbox, self.fleet_dir, dict(self.options), os.getpid(),
                  done_w),
            name=f"fleet-pool-{self.spawned}")
        process.start()
        done_w.close()  # the child holds the only write end
        self.spawned += 1
        if self.on_spawn is not None:
            self.on_spawn()
        return _PoolWorker(process=process, inbox=inbox, done=done)

    def _stop(self, workers: list, grace: float) -> None:
        """Send each worker the stop sentinel, join them within
        ``grace`` seconds, KILL the wedged, close their channels."""
        deadline = time.monotonic() + grace
        for worker in workers:
            try:
                worker.inbox.put_nowait(None)
            except (queue.Full, ValueError):  # pragma: no cover
                pass
        for worker in workers:
            worker.process.join(max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():  # pragma: no cover - wedged
                worker.process.kill()
                worker.process.join()
            self._close(worker)

    @staticmethod
    def _close(worker: _PoolWorker) -> None:
        # mp.Queue owns a feeder thread; close it so interpreter exit
        # doesn't block joining a thread whose pipe reader is gone.
        try:
            worker.inbox.close()
            worker.inbox.cancel_join_thread()
        except (OSError, ValueError):  # pragma: no cover
            pass
        worker.done.close()
