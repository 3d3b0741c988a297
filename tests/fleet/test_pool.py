"""Worker pool and scheduler core: reuse, recycling, crash burning, wakes.

The pool must be invisible at the protocol level — same task files, same
failure semantics, byte-identical merges — while actually reusing
processes.  Bookkeeping (recycling, dead-worker replacement) and the
scheduler core's wake logic are pinned against a fake multiprocessing
context so the tests are instant and deterministic; end-to-end
behaviour runs through the real supervisor.
"""

import json
import multiprocessing
import threading
import time

import pytest

import repro.fleet.scheduler as scheduler
from repro.core.exceptions import RunInterrupted
from repro.fleet import FleetSupervisor, SweepSpec
from repro.fleet.pool import WorkerPool, pool_worker_main
from repro.fleet.scheduler import TICK_SECONDS, Job, Scheduler
from repro.runtime.budget import Cancellation

FAST = dict(backoff_base=0.01, backoff_cap=0.1)


def sweep_spec(**overrides):
    base = dict(models=["alexnet"], ps=[2, 4], methods=["ours"],
                modes=["pow2"])
    base.update(overrides)
    return SweepSpec.from_dict(base)


def run_fleet(spec, fleet_dir, **kwargs):
    opts = dict(FAST)
    opts.update(kwargs)
    resume = opts.pop("resume", False)
    return FleetSupervisor(spec, fleet_dir, **opts).run(resume=resume)


# -- fake multiprocessing context for bookkeeping tests ----------------------


class FakeProcess:
    def __init__(self, target=None, args=(), name=""):
        self.name = name
        self.alive = True
        self.pid = 4242
        self.sentinel = -1
        self.exitcode = None

    def start(self):
        pass

    def is_alive(self):
        return self.alive

    def join(self, timeout=None):
        self.alive = False

    def terminate(self):
        self.alive = False

    def kill(self):
        self.alive = False


class FakeQueue:
    def __init__(self):
        self.items = []

    def put(self, item):
        self.items.append(item)

    def put_nowait(self, item):
        self.items.append(item)

    def close(self):
        pass

    def cancel_join_thread(self):
        pass


class FakeCtx:
    Process = FakeProcess
    Queue = FakeQueue


def make_pool(**kwargs):
    kwargs.setdefault("mp_ctx", FakeCtx())
    kwargs.setdefault("fleet_dir", "/nonexistent")
    kwargs.setdefault("options", {})
    return WorkerPool(**kwargs)


class TestPoolBookkeeping:
    def test_width1_reuses_one_process(self):
        pool = make_pool(max_workers=1)
        for i in range(5):
            pool.submit(f"t{i}", {"model": "alexnet"}, 1)
            pool.release(f"t{i}")
        assert pool.spawned == 1
        assert pool.reused == 4

    def test_recycle_after_one_task_spawns_per_task(self):
        pool = make_pool(max_workers=1, recycle_after=1)
        for i in range(3):
            pool.submit(f"t{i}", {"model": "alexnet"}, 1)
            pool.release(f"t{i}")
        assert pool.spawned == 3
        assert pool.reused == 0

    def test_dead_worker_is_replaced_not_reused(self):
        pool = make_pool(max_workers=2)
        proc = pool.submit("t0", {"model": "alexnet"}, 1)
        proc.alive = False  # burned itself (task failure)
        pool.release("t0")
        pool.submit("t1", {"model": "alexnet"}, 1)
        assert pool.spawned == 2
        assert pool.reused == 0

    def test_spawn_and_reuse_callbacks_fire(self):
        events = []
        pool = make_pool(max_workers=1,
                         on_spawn=lambda: events.append("spawn"),
                         on_reuse=lambda: events.append("reuse"))
        pool.submit("t0", {}, 1)
        pool.release("t0")
        pool.submit("t1", {}, 1)
        assert events == ["spawn", "reuse"]

    def test_shutdown_sentinels_idle_and_terms_busy(self):
        pool = make_pool(max_workers=2)
        pool.submit("t0", {}, 1)
        busy_proc = pool.submit("t1", {}, 1)  # second, distinct worker
        pool.release("t0")                    # first goes idle
        idle_inbox = pool._idle[0].inbox if pool._idle else None
        pool.shutdown(grace=0.01)
        assert not busy_proc.alive
        assert idle_inbox is not None and idle_inbox.items[-1] is None
        assert pool._busy == {} and pool._idle == []

    def test_per_task_options_ride_the_inbox(self):
        pool = make_pool(max_workers=1)
        pool.submit("t0", {"model": "alexnet"}, 1,
                    options={"task_deadline": 1.5})
        inbox = pool._busy["t0"].inbox
        task_dict, attempt, extra = inbox.items[-1]
        assert task_dict == {"model": "alexnet"}
        assert attempt == 1
        assert extra == {"task_deadline": 1.5}
        pool.release("t0")
        # Omitted options travel as None, not an empty dict.
        pool.submit("t1", {}, 2)
        assert pool._busy["t1"].inbox.items[-1] == ({}, 2, None)


class TestPoolWorkerProcess:
    def test_orphan_exits_when_parent_is_gone(self):
        """A pool worker whose supervisor vanished must exit on its own
        instead of lingering as an orphan."""
        ctx = multiprocessing.get_context()
        inbox = ctx.Queue()
        proc = ctx.Process(target=pool_worker_main,
                           args=(inbox, "/nonexistent", {}, 1))
        proc.start()  # parent pid 1 is never ours
        proc.join(timeout=10)
        assert proc.exitcode == 0

    def test_sentinel_stops_worker_cleanly(self):
        ctx = multiprocessing.get_context()
        inbox = ctx.Queue()
        inbox.put(None)
        proc = ctx.Process(
            target=pool_worker_main,
            args=(inbox, "/nonexistent", {}, multiprocessing.current_process().pid))
        proc.start()
        proc.join(timeout=10)
        assert proc.exitcode == 0


class TestPoolEndToEnd:
    def test_persistent_reuses_and_merges_identically(self, tmp_path):
        spec = sweep_spec(seeds=[0, 1])  # 4 tasks
        rep_pool = run_fleet(spec, tmp_path / "pool", workers=1)
        rep_wide = run_fleet(spec, tmp_path / "wide", workers=2)
        assert rep_pool.clean and rep_wide.clean
        assert rep_pool.workers_spawned == 1
        assert rep_pool.workers_reused == rep_pool.tasks_total - 1
        assert (tmp_path / "pool" / "results.jsonl").read_bytes() == \
            (tmp_path / "wide" / "results.jsonl").read_bytes()
        summary = json.loads(
            (tmp_path / "pool" / "summary.json").read_text())
        assert "pool" not in summary
        assert summary["workers_spawned"] == 1
        assert summary["workers_reused"] == rep_pool.tasks_total - 1

    def test_failed_task_burns_its_worker(self, tmp_path):
        spec = sweep_spec(ps=[2], tasks=[{
            "model": "alexnet", "p": 4,
            "chaos": {"kind": "raise", "attempts": 1}}])
        report = run_fleet(spec, tmp_path / "fleet", workers=1)
        assert report.clean
        assert report.retries == 1
        # The failing attempt's worker died with it; a fresh process
        # served the retry, so at least two forks happened.
        assert report.workers_spawned >= 2

    def test_persistent_is_the_default(self, tmp_path):
        spec = sweep_spec(ps=[2])
        sup = FleetSupervisor(spec, tmp_path / "fleet", workers=1, **FAST)
        report = sup.run()
        assert report.clean and report.workers_spawned == 1

    def test_pool_keyword_is_gone(self, tmp_path):
        """Spawn-per-task dispatch was removed with its selector."""
        with pytest.raises(TypeError, match="pool"):
            FleetSupervisor(sweep_spec(), tmp_path / "fleet",
                            pool="spawn")

    def test_resume_under_persistent_pool(self, tmp_path):
        """Kill-free resume parity: a drained sweep resumed under the
        pool replays results without rerunning anything."""
        spec = sweep_spec(seeds=[0, 1])
        run_fleet(spec, tmp_path / "fleet", workers=2)
        first = (tmp_path / "fleet" / "results.jsonl").read_bytes()
        rep = run_fleet(spec, tmp_path / "fleet", workers=2, resume=True)
        assert rep.resumed and rep.completed_this_run == 0
        assert (tmp_path / "fleet" / "results.jsonl").read_bytes() == first

    def test_stale_error_report_is_ignored(self, tmp_path):
        """An ``error.json`` left by another attempt must not classify
        this attempt's death: exit code 1 without a fresh report is a
        crash, counted as one."""
        spec = sweep_spec(ps=[2], tasks=[{
            "model": "alexnet", "p": 4,
            "chaos": {"kind": "exit", "code": 1}}])
        crashing = spec.expand()[-1]
        tdir = tmp_path / "fleet" / "tasks" / crashing.task_id
        tdir.mkdir(parents=True)
        (tdir / "error.json").write_text(json.dumps({
            "task_id": crashing.task_id, "attempt": 9, "kind": "deadline",
            "type": "DeadlineExceededError", "detail": "stale report"}))
        report = run_fleet(spec, tmp_path / "fleet", workers=1,
                           max_attempts=1)
        assert report.quarantined == 1 and report.worker_crashes == 1
        [q] = report.quarantined_tasks
        assert q["last_error"]["kind"] == "crash"
        assert "stale report" not in q["last_error"]["detail"]


# -- the scheduler core against the fake context -----------------------------


def make_scheduler(root, **kwargs):
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("options", {})
    kwargs.setdefault("backoff_base", 0.01)
    kwargs.setdefault("backoff_cap", 0.1)
    kwargs.setdefault("straggler_after", 60.0)
    kwargs.setdefault("on_result", lambda job, doc: None)
    kwargs.setdefault("on_failure", lambda job, kind, detail: False)
    return Scheduler(root, mp_ctx=FakeCtx(), **kwargs)


def write_result(root, task_id):
    tdir = root / "tasks" / task_id
    tdir.mkdir(parents=True, exist_ok=True)
    (tdir / "result.json").write_text(
        json.dumps({"record": {"task_id": task_id}}))


class TestSchedulerCore:
    def test_completion_redispatches_in_the_same_wake(self, tmp_path,
                                                     monkeypatch):
        done = []
        sched = make_scheduler(
            tmp_path, on_result=lambda job, doc: done.append(job))
        first, second = (Job(t) for t in sweep_spec().expand())
        sched.add(first)
        sched.add(second)
        waits = []

        def worker_finishes(handles, timeout):
            waits.append(list(sched.running))
            if len(waits) > 1:
                return []
            # The busy worker writes result.json, then its done pipe
            # fires: the only handle reported ready.
            write_result(tmp_path, first.task_id)
            done_pipe = sched.pool.signals(first.task_id)[1]
            assert done_pipe in handles
            return [done_pipe]

        monkeypatch.setattr(scheduler, "wait", worker_finishes)
        wakes = iter([True, True, False])
        sched.run(lambda: next(wakes))
        # The wake that reaped the first job dispatched the second
        # before waiting again.
        assert waits == [[first.task_id], [second.task_id]]
        assert done == [first]
        assert list(sched.running) == [second.task_id]
        assert second.attempts == 1 and sched.waiting == []

    def test_wait_timeout_is_the_earliest_timer(self, tmp_path,
                                                monkeypatch):
        timeouts = []
        monkeypatch.setattr(scheduler, "wait",
                            lambda handles, timeout: timeouts.append(timeout)
                            or [])
        sched = make_scheduler(tmp_path, straggler_after=0.2)
        first, second = (Job(t) for t in sweep_spec().expand())
        sched.wait()  # nothing pending: the bounded tick
        assert timeouts[-1] == TICK_SECONDS
        sched.add(first)
        sched.step()  # dispatched: a straggler check is due in 0.2 s
        sched.wait()
        assert 0.1 < timeouts[-1] <= 0.2
        sched.wait(deadline=time.monotonic() + 0.05)
        assert 0.0 < timeouts[-1] <= 0.05
        # A backed-off job only counts when a slot is free for it.
        second.eligible_at = time.monotonic() + 0.03
        sched.add(second)
        sched.wait()
        assert 0.1 < timeouts[-1] <= 0.2
        sched.running.clear()
        sched.wait()
        assert 0.0 < timeouts[-1] <= 0.03

    def test_cancellation_is_seen_within_one_bounded_wait(self, tmp_path,
                                                          monkeypatch):
        cancellation = Cancellation()
        real_wait = scheduler.wait
        waits = []

        def counted(handles, timeout):
            waits.append(timeout)
            return real_wait(handles, timeout)

        monkeypatch.setattr(scheduler, "wait", counted)
        sched = make_scheduler(tmp_path)

        def poll():
            cancellation.check("fleet")
            return True

        # A signal handler only flags the token; nothing wakes the wait.
        timer = threading.Timer(0.05, cancellation.set, ["SIGINT"])
        start = time.monotonic()
        timer.start()
        with pytest.raises(RunInterrupted):
            sched.run(poll)
        timer.join(timeout=5)
        assert not timer.is_alive()
        assert len(waits) == 1
        assert time.monotonic() - start < TICK_SECONDS + 0.2
