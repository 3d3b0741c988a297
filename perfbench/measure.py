"""Statistics and child-process helpers shared by every workload."""

from __future__ import annotations

import ctypes
import json
import math
import os
import resource
import selectors
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: The benchmark directory and the checkout root it lives in.
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def tail(values, min_n: int) -> "tuple[float, float, int]":
    """The tail percentile of a run that guarantees ``min_n`` samples.

    The percentile is fixed per workload, so runs that complete
    different numbers of operations (a faster program completes more)
    report the same percentile: the highest one with at least
    `TAIL_BEYOND` samples beyond it at ``min_n`` samples,
    ``p = (min_n - TAIL_BEYOND) / min_n``.  Returns ``(value,
    percentile, n)``, the value being the nearest-rank ``p``-th
    percentile of the ``n >= min_n`` samples, which leaves at least
    `TAIL_BEYOND` samples after it.  "Beyond" is by rank: with tied
    samples some of them may equal the value (wall times practically
    never tie).
    """
    s = sorted(values)
    n = len(s)
    if min_n <= TAIL_BEYOND or n < min_n:
        raise ValueError(f"a tail needs at least {min_n} > {TAIL_BEYOND} "
                         f"samples, got {n}")
    p = (min_n - TAIL_BEYOND) / min_n
    return s[math.ceil(p * n) - 1], 100.0 * p, n


def class_geomean_of_medians(samples: "dict[str, list[float]]") -> float:
    """Geometric mean over classes of each class's median."""
    return geomean(median(v) for v in samples.values() if v)


def overhead_share(traced: "dict[str, list[float]]",
                   plain: "dict[str, list[float]]") -> float:
    """Traced over untraced wall, geometric mean over classes, minus 1."""
    ratios = [median(traced[k]) / median(plain[k])
              for k in traced if traced[k] and plain.get(k)]
    return geomean(ratios) - 1.0 if ratios else 0.0


def traced_round(rnd: int, trace: bool) -> bool:
    """Traced runs alternate untraced and traced rounds, untraced first."""
    return trace and rnd % 2 == 1


def enough_rounds(completed: int, trace: bool, min_plain: int) -> bool:
    """``min_plain`` rounds are done; a traced run needs one of each kind.

    The minimum serves the tail percentile, which a traced run does not
    report.
    """
    return completed >= 2 if trace else completed >= min_plain


def child_env() -> dict:
    """The environment every program process runs with.

    ``PASE_*`` variables are removed so no outside setting reaches the
    program; ``src`` is the only import root added.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("PASE_")}
    env["PYTHONPATH"] = SRC
    return env


@dataclass
class ChildRun:
    start: float
    end: float
    returncode: int
    stdout: str
    maxrss_mb: float
    cpu_s: float      # user + system, the child and what it reaped


def read_pipe(fd: int, deadline: float, until=None) -> "tuple[bytes, bool]":
    """Read ``fd`` until end of file, until ``until(data)`` holds, or
    until ``deadline`` (a `time.perf_counter` reading).

    Returns the data read and whether the deadline passed first.
    """
    buf = b""
    with selectors.DefaultSelector() as sel:
        sel.register(fd, selectors.EVENT_READ)
        while until is None or not until(buf):
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                return buf, True
            if not sel.select(remaining):
                continue
            data = os.read(fd, 1 << 16)
            if not data:
                break
            buf += data
    return buf, False


def run_child(args: "list[str]", *, timeout: float = 120.0) -> ChildRun:
    """Run ``python <args>`` to completion; wall, CPU and peak RSS.

    The child is reaped with ``wait4``, whose rusage covers the child and
    every descendant it waited for, so the CPU time and peak RSS are this
    child's own.
    A child still running after ``timeout`` seconds is killed.
    """
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT,
                            env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    out, timed_out = read_pipe(proc.stdout.fileno(), start + timeout)
    if timed_out:
        proc.kill()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(start, end, proc.returncode,
                    out.decode("utf-8", "replace"),
                    usage.ru_maxrss / 1024.0,
                    usage.ru_utime + usage.ru_stime)


def cpu_clock() -> float:
    """CPU seconds used so far by this process and every child it reaped."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def calibration_work() -> float:
    """CPU seconds the calling thread takes for a fixed piece of work.

    The work is of the program's two in-process kinds in about equal
    parts: interpreted Python on dicts, tuples and lists, and NumPy
    min-plus reductions over a few megabytes; some 30 ms on the machine
    this was built on.
    """
    import numpy as np

    c0 = time.thread_time()
    table: dict = {}
    for i in range(30_000):
        key = (i % 211, i % 13)
        table[key] = table.get(key, 0) + i
    order = sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
    rng = np.random.default_rng(0)
    a = rng.random((64, 64))
    b = rng.random((64, 64))
    acc = 0.0
    for _ in range(9):
        m = a[:, :, None] + b[None, :, :]
        acc += float(m.min(axis=1).sum()) + float(m.argmin(axis=1).sum())
    assert order and acc > 0
    return time.thread_time() - c0


def calibration_process() -> float:
    """CPU seconds of a fresh interpreter that imports NumPy and exits:
    the start-up every CLI process pays, without the program."""
    c = run_child(["-c", "import numpy"])
    if c.returncode != 0:
        raise BenchError("the calibration process failed")
    return c.cpu_s


#: The helper of `PairedCalibration`: runs `calibration_work` on the core
#: it is given each time a line arrives, and answers with its CPU time.
_PAIR_HELPER = """
import os, sys
sys.path.insert(0, {bench!r})
from measure import calibration_work
calibration_work()
for line in sys.stdin:
    os.sched_setaffinity(0, {{int(line)}})
    print(calibration_work(), flush=True)
"""


class PairedCalibration:
    """`calibration_work` on every core at once: one copy in this
    process and one in a helper process per further core.

    An operation that keeps both cores busy (a sweep's two pool workers)
    runs slower per CPU second than one that keeps one busy, because the
    host's cores share their execution units; the same holds for this
    task when it runs on both.  Use as a context manager, which stops
    the helpers.  A sample is the mean over the cores.
    """

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        code = _PAIR_HELPER.format(bench=BENCH_DIR)
        self.helpers = [
            subprocess.Popen([sys.executable, "-c", code],
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                             text=True)
            for _ in self.cpus[1:]]

    def __call__(self) -> float:
        for cpu, helper in zip(self.cpus[1:], self.helpers):
            helper.stdin.write(f"{cpu}\n")
            helper.stdin.flush()
        mask = os.sched_getaffinity(0)
        try:
            os.sched_setaffinity(0, {self.cpus[0]})
            times = [calibration_work()]
        finally:
            os.sched_setaffinity(0, mask)
        for helper in self.helpers:
            line = helper.stdout.readline()
            if not line:
                raise BenchError("a calibration helper ended early")
            times.append(float(line))
        return sum(times) / len(times)

    def __enter__(self) -> "PairedCalibration":
        return self

    def __exit__(self, *exc) -> None:
        for helper in self.helpers:
            helper.stdin.close()
        for helper in self.helpers:
            try:
                helper.wait(timeout=10)
            except subprocess.TimeoutExpired:
                helper.kill()
                helper.wait()
            helper.stdout.close()


class Calibration:
    """CPU time of a fixed task, sampled between a run's operations.

    The machine's speed moves while a run measures: on a shared host,
    the same operation's CPU time moves by a tenth or more within
    seconds, and so does that of a task that never changes.  Dividing
    each operation's CPU time by the task's, sampled on either side of
    it, leaves out most of that movement (see README.md).
    """

    def __init__(self, task=calibration_work, across_cpus: bool = False
                 ) -> None:
        self.task = task
        self.across_cpus = across_cpus
        self.samples: list[float] = []

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            self.samples.append(self._take())

    def _take(self) -> float:
        """One sample: the task once, or, ``across_cpus``, the mean of
        running it once on each core this thread may use.

        The cores of a shared host's virtual machine do not run at one
        speed; an operation spread over several processes runs on all
        of them, and is measured against all of them.
        """
        if not self.across_cpus:
            return self.task()
        cpus = os.sched_getaffinity(0)
        try:
            times = []
            for cpu in sorted(cpus):
                os.sched_setaffinity(0, {cpu})
                times.append(self.task())
        finally:
            os.sched_setaffinity(0, cpus)
        return sum(times) / len(times)

    @property
    def cpu_s(self) -> float:
        return median(self.samples)

    @contextmanager
    def sampling(self, period: float):
        """Take a sample every ``period`` seconds, in a thread of its
        own, while the block runs."""
        stop = threading.Event()

        def loop() -> None:
            while not stop.wait(period):
                self.sample()

        thread = threading.Thread(target=loop, name="calibration")
        thread.start()
        try:
            yield self
        finally:
            stop.set()
            thread.join()

    def around_last(self) -> float:
        """Mean of the two latest samples: those taken on either side of
        the operation between them."""
        return (self.samples[-1] + self.samples[-2]) / 2.0


_TICK = os.sysconf("SC_CLK_TCK")


def _proc_stat(pid: str) -> "tuple[int, float]":
    """Parent pid and CPU seconds (own and reaped children's) of ``pid``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        data = fh.read()
    # Fields after the parenthesised command name, from field 3 (state).
    rest = data[data.rindex(")") + 2:].split()
    return int(rest[1]), sum(int(x) for x in rest[11:15]) / _TICK


def tree_cpu_s(pid: int) -> float:
    """CPU seconds used so far by ``pid`` and all its live descendants.

    Read from ``/proc``: user and system time of each process, plus that
    of the children each has reaped, in clock ticks.  A descendant that
    ends between two readings moves into its parent's reaped time, so
    the difference of two readings stays whole.
    """
    stats: "dict[int, tuple[int, float]]" = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            try:
                stats[int(name)] = _proc_stat(name)
            except (OSError, ValueError, IndexError):
                pass   # ended while the table was read
    total, todo = 0.0, [pid]
    while todo:
        p = todo.pop()
        total += stats.get(p, (0, 0.0))[1]
        todo.extend(c for c, (ppid, _) in stats.items() if ppid == p)
    return total


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def trim_heap() -> None:
    """Hand the freed heap memory the allocator kept back to the system
    (glibc's ``malloc_trim``), so that the next operation starts from
    the memory in use, not from what earlier operations left behind."""
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):
        pass   # not glibc: nothing to hand back this way


def reset_peak_rss() -> None:
    """Start this process's peak resident set over from the memory it
    uses, after `trim_heap`."""
    trim_heap()
    with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
        fh.write("5")


def peak_rss_since_reset_mb() -> float:
    """This process's peak resident set since `reset_peak_rss`."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM in /proc/self/status")


def children_rss_mb() -> float:
    """Largest peak RSS among this process's reaped children."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """What one workload run produced, before formatting."""

    setup_s: float
    cpu_s: float                             # CPU seconds per operation
    cost_rel: float                          # op cost over calibration
    calib_s: float                           # median calibration CPU (s)
    walls: "dict[str, list[float]]"          # class -> op walls (s)
    tail_walls: "dict[str, list[float]]"     # tail group -> op walls (s)
    tail_min_n: "dict[str, int]"             # tail group -> ops guaranteed
    slo_met: int
    attempted: int
    failed: int
    failed_checks: int
    step_ratios: "dict[str, float]"          # problem -> DP/found step
    peak_rss_mb: float
    layers: "dict[str, float]" = field(default_factory=dict)
    notes: "dict[str, object]" = field(default_factory=dict)
    trace: "dict | None" = None              # spans of a traced run


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def setup_step(workload: str, seed: int, refs: bool
               ) -> "tuple[float, dict | None]":
    """Run ``setup_step.py`` once, in a fresh interpreter.

    Returns the seconds from starting the interpreter until the step was
    ready to time the workload, and the reference answers it computed
    after that (``None`` unless ``refs``; fleet-sweep always has them).
    """
    c = run_child([os.path.join(BENCH_DIR, "setup_step.py"), workload,
                   str(seed), "1" if refs else "0"])
    lines = c.stdout.strip().splitlines()
    if c.returncode != 0 or not lines:
        raise BenchError(f"set-up step for {workload} failed "
                         f"(exit code {c.returncode})")
    doc = json.loads(lines[-1])
    return doc["ready"] - c.start, doc["refs"]


def timed_setup(workload: str, seed: int) -> "tuple[float, dict, int]":
    """`SETUP_REPEATS` set-up steps; the first also computes references.

    Returns the median time to ready, the references, and how many later
    repetitions returned references that disagree with them (a failed
    check: the program answered the same question twice differently).
    """
    walls: list[float] = []
    refs = None
    mismatches = 0
    for k in range(SETUP_REPEATS):
        wall, got = setup_step(workload, seed, refs=k == 0)
        walls.append(wall)
        if refs is None:
            refs = got
        elif got is not None and got != refs:
            mismatches += 1
    return median(walls), refs, mismatches
