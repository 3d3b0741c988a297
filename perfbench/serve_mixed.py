"""serve-mixed: ``pase serve --workers 2`` under a seeded open loop.

Requests arrive as a Poisson process at a fixed rate, regardless of how
fast earlier ones were answered, so a stall delays the requests behind
it.  Two client threads, each with one keep-alive connection, send them;
every latency is timed from the request's due time.  Hits repeat a
request of the hot set warmed during set-up (the cache read path);
misses carry fresh search seeds on the same small problems (the search
and write path, with the problems' tables warm in the shared table
cache).

A traced run sends the same schedule, half as long, twice: to an
untraced server, then to one started through ``serve_traced.py``, which
records the server's pool calls and every task its pool workers run.
Those spans are grafted below the requests they served.  The serve
counts come from the untraced server's public artifacts: ``/metrics``
counters and each task's ``result.json`` ``elapsed_seconds``.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

import inputs
import spans
from measure import (BENCH_DIR, ROOT, SETUP_REPEATS, BenchError, Outcome,
                     Calibration,
                     child_env, median, overhead_share, read_pipe,
                     setup_step, tree_cpu_s)

WORKERS = 2
#: Client threads, each with one connection (the machine's core count).
CLIENTS = 2
REQUEST_TIMEOUT = 30.0
START_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0
#: Seconds between calibration samples during the timed load (each
#: holds the interpreter lock for some 30 ms per core, in 5 ms slices).
CALIB_PERIOD = 0.5
#: The shortest schedule: enough requests of each class for a tail with
#: ten samples beyond it.
MIN_SECONDS = 8.0

_PORT = re.compile(rb"http://[^:/]+:(\d+)")


@dataclass
class Server:
    proc: subprocess.Popen
    port: int
    state_dir: str


def start_server(state_dir: str, spans_dir: "str | None" = None) -> Server:
    """Start ``pase serve`` and wait for the port it reports.

    With ``spans_dir`` the server runs through ``serve_traced.py``.
    """
    entry = (["-m", "repro.cli"] if spans_dir is None
             else [os.path.join(BENCH_DIR, "serve_traced.py"), spans_dir])
    proc = subprocess.Popen(
        [sys.executable, *entry, "serve", "--workers", str(WORKERS),
         "--port", "0", "--state-dir", state_dir],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL)
    line, _ = read_pipe(proc.stdout.fileno(),
                        time.perf_counter() + START_TIMEOUT,
                        until=lambda buf: b"\n" in buf)
    m = _PORT.search(line)
    if m is None:
        stop_server(Server(proc, 0, state_dir))
        raise BenchError("pase serve did not report its port")
    return Server(proc, int(m.group(1)), state_dir)


def stop_server(server: Server) -> float:
    """SIGTERM (a clean drain), then reap; returns the tree's peak RSS.

    A server still running after `STOP_TIMEOUT` seconds is killed.
    """
    proc = server.proc
    proc.send_signal(signal.SIGTERM)
    deadline = time.perf_counter() + STOP_TIMEOUT
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.perf_counter() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.05)
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    return usage.ru_maxrss / 1024.0


def _post(conn: http.client.HTTPConnection, body: dict
          ) -> "tuple[int, dict | None]":
    payload = json.dumps(body).encode()
    conn.request("POST", "/v1/search", body=payload,
                 headers={"Content-Type": "application/json",
                          "Content-Length": str(len(payload))})
    resp = conn.getresponse()
    raw = resp.read()
    try:
        doc = json.loads(raw)
    except ValueError:
        doc = None
    return resp.status, doc


def _connect(server: Server) -> http.client.HTTPConnection:
    return http.client.HTTPConnection("127.0.0.1", server.port,
                                      timeout=REQUEST_TIMEOUT)


def server_counters(server: Server) -> dict[str, float]:
    """``/metrics`` samples summed over labels, by metric name."""
    conn = _connect(server)
    try:
        conn.request("GET", "/metrics")
        text = conn.getresponse().read().decode()
    finally:
        conn.close()
    out: dict[str, float] = defaultdict(float)
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        out[name.split("{")[0]] += float(value)
    return dict(out)


def warm(server: Server, hot: "list[inputs.ServeRequest]") -> list:
    """Send the hot set once, in order; returns the response bodies."""
    conn = _connect(server)
    docs = []
    try:
        for req in hot:
            status, doc = _post(conn, req.body())
            if status != 200:
                raise BenchError(f"hot-set warm-up got HTTP {status}")
            docs.append(doc)
    finally:
        conn.close()
    return docs


def record_ok(doc: "dict | None", req: inputs.ServeRequest,
              ref: dict) -> bool:
    """The served record equals the in-process search's answer."""
    if not doc or "record" not in doc:
        return False
    rec = doc["record"]
    task = rec.get("task", {})
    return (rec.get("cost") == ref["cost"]
            and rec.get("strategy") == ref["strategy"]
            and (task.get("model"), task.get("p"), task.get("seed"))
            == (req.model, req.p, req.seed))


@dataclass
class Reply:
    sent: float
    done: float
    status: "int | None"
    doc: "dict | None"


def open_loop(server: Server, load: "list[inputs.ServeRequest]"
              ) -> "tuple[float, list[Reply]]":
    """Send ``load`` on schedule from `CLIENTS` threads.

    Returns the schedule's time origin and the replies in request order.
    """
    replies: "list[Reply | None]" = [None] * len(load)
    lock = threading.Lock()
    cursor = [0]
    t0 = time.perf_counter() + 0.05

    def client() -> None:
        conn = _connect(server)
        try:
            while True:
                with lock:
                    k = cursor[0]
                    if k >= len(load):
                        return
                    cursor[0] += 1
                req = load[k]
                delay = t0 + req.due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                try:
                    status, doc = _post(conn, req.body())
                except (OSError, http.client.HTTPException):
                    status, doc = None, None
                    conn.close()
                    conn = _connect(server)
                replies[k] = Reply(sent, time.perf_counter(), status, doc)
        finally:
            conn.close()

    threads = [threading.Thread(target=client, name=f"client-{n}")
               for n in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return t0, replies


def worker_seconds(state_dir: str) -> "dict[tuple, float]":
    """``elapsed_seconds`` of every finished task, by (model, p, seed)."""
    out = {}
    tasks = os.path.join(state_dir, "tasks")
    for tid in os.listdir(tasks):
        try:
            with open(os.path.join(tasks, tid, "result.json"),
                      encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError):
            continue
        task = doc["record"]["task"]
        out[(task["model"], task["p"], task["seed"])] = \
            float(doc["elapsed_seconds"])
    return out


@dataclass
class Phase:
    """One pass of the schedule against one server, scored."""

    t0: float
    replies: "list[Reply]"
    counters: "dict[str, float]"             # /metrics deltas
    cpu_s: float                             # server tree, per request
    walls: "dict[str, list[float]]" = field(
        default_factory=lambda: defaultdict(list))
    lateness: "list[float]" = field(default_factory=list)
    overheads: "list[float]" = field(default_factory=list)
    miss_compute: "list[float]" = field(default_factory=list)
    over_limit: "list[list]" = field(default_factory=list)
    failed: int = 0
    failed_checks: int = 0
    slo_met: int = 0


def run_phase(server: Server, load: "list[inputs.ServeRequest]",
              refs: dict) -> Phase:
    before = server_counters(server)
    cpu0 = tree_cpu_s(server.proc.pid)
    t0, replies = open_loop(server, load)
    cpu = tree_cpu_s(server.proc.pid) - cpu0
    after = server_counters(server)
    phase = Phase(t0, replies, {k: v - before.get(k, 0.0)
                                for k, v in after.items()},
                  cpu / len(load))
    compute = worker_seconds(server.state_dir)
    for req, reply in zip(load, replies):
        due = t0 + req.due
        latency = reply.done - due
        phase.lateness.append(max(reply.sent - due, 0.0))
        phase.walls[req.kind].append(latency)
        if reply.status != 200:
            phase.failed += 1
            continue
        if not record_ok(reply.doc, req, refs[f"{req.model}-p{req.p}"]):
            phase.failed += 1
            phase.failed_checks += 1
            continue
        if latency <= inputs.SERVE_LIMITS[req.kind]:
            phase.slo_met += 1
        else:
            phase.over_limit.append([req.kind, f"{req.model}-p{req.p}",
                                     round(latency, 4),
                                     round(phase.lateness[-1], 4)])
        if req.kind == "miss":
            work = compute.get((req.model, req.p, req.seed), 0.0)
            phase.miss_compute.append(work)
            phase.overheads.append(latency - work)
    return phase


def traced_layers(load: "list[inputs.ServeRequest]", phase: Phase,
                  spans_dir: str) -> "tuple[spans.Recorder, list[int]]":
    """One root span per request of the traced pass (due time to reply),
    with the generator's lateness and, for a miss, the server's pool
    calls and the worker's task grafted below it."""
    rec = spans.Recorder()
    roots: list[int] = []
    by_key: dict[tuple, int] = {}
    for req, reply in zip(load, phase.replies):
        due = phase.t0 + req.due
        root = rec.add("serve.request", due, reply.done)
        rec.add("gen.lateness", due, max(reply.sent, due), root)
        roots.append(root)
        if req.kind == "miss":
            by_key[(req.model, req.p, req.seed)] = root
    for doc in spans.read_task_docs(spans_dir):
        root = by_key.get(tuple(doc["task"]))
        if root is not None:
            rec.merge_json(doc, root)
    return rec, roots


def run(seed: int, seconds: float, trace: bool, tmp: str) -> Outcome:
    hot, load = inputs.serve_plan(
        seed, max(seconds / 2 if trace else seconds, MIN_SECONDS))
    refs = setup_step("serve-mixed", seed, refs=True)[1]
    servers: list[Server] = []
    warmed: list = []
    rss: list[float] = []

    def start_and_warm(name: str, spans_dir: "str | None" = None) -> float:
        t = time.perf_counter()
        server = start_server(os.path.join(tmp, name), spans_dir)
        servers.append(server)
        warmed.extend(warm(server, hot))
        return time.perf_counter() - t

    spans_dir = os.path.join(tmp, "serve-spans")
    traced = None
    try:
        setup_walls = []
        for k in range(SETUP_REPEATS):
            if servers:
                rss.append(stop_server(servers.pop()))
            setup_walls.append(start_and_warm(f"serve-state-{k}"))
        setup_s = median(setup_walls)
        with Calibration(across_cpus=True).sampling(CALIB_PERIOD) as calib:
            plain = run_phase(servers[-1], load, refs)
        if trace:
            os.makedirs(spans_dir)
            start_and_warm("serve-state-traced", spans_dir)
            traced = run_phase(servers[-1], load, refs)
    finally:
        rss.extend(stop_server(s) for s in servers)

    failed_checks = sum(
        not record_ok(doc, req, refs[f"{req.model}-p{req.p}"])
        for req, doc in zip(hot * (len(warmed) // len(hot)), warmed))
    phases = [plain] if traced is None else [plain, traced]
    from program import step_ratios

    ratios, sim_s = step_ratios({
        f"{m}-p{p}": (m, p, refs[f"{m}-p{p}"]["strategy"])
        for m, p in inputs.SERVE_PROBLEMS})
    layers: dict[str, float] = {}
    trace_doc = None
    if traced is not None:
        rec, roots = traced_layers(load, traced, spans_dir)
        trace_doc = spans.trace_doc(rec, roots)
        layers = spans.layer_metrics(rec, roots)

        def count(name: str) -> float:
            return plain.counters.get(f"pase_{name}", 0.0)

        layers.update({
            "serve.worker_compute_s": median(plain.miss_compute)
            if plain.miss_compute else 0.0,
            "serve.miss_overhead_s": median(plain.overheads)
            if plain.overheads else 0.0,
            "serve.cache_hit_share":
                count("serve_result_cache_hits_total") / len(load),
            "serve.coalesce_hits": count("serve_coalesce_hits_total"),
            "serve.searches": count("serve_searches_total"),
            "serve.retries": count("serve_retries_total"),
            "serve.workers_spawned": count("serve_worker_spawned_total"),
            "serve.workers_reused": count("serve_worker_reused_total"),
            "gen.lateness_p50_s": median(plain.lateness),
            "gen.lateness_max_s": max(plain.lateness),
            "trace_overhead_share": overhead_share(traced.walls,
                                                   plain.walls),
            "cluster.simulate_s": sim_s,
        })
    notes = {f"{kind}_p50_s": median(v) for kind, v in plain.walls.items()}
    # Answered correctly but late: class, problem, latency, lateness.
    notes["over_limit"] = plain.over_limit
    notes["pool_busy_share"] = (
        sum(plain.miss_compute) / ((load[-1].due if load else 1.0) * WORKERS))
    return Outcome(
        setup_s=setup_s, cpu_s=plain.cpu_s,
        cost_rel=plain.cpu_s / calib.cpu_s, calib_s=calib.cpu_s,
        walls=dict(plain.walls),
        tail_walls=dict(plain.walls),
        tail_min_n={kind: len(v) for kind, v in plain.walls.items()},
        slo_met=sum(p.slo_met for p in phases),
        attempted=len(load) * len(phases),
        failed=sum(p.failed for p in phases),
        failed_checks=sum(p.failed_checks for p in phases) + failed_checks,
        step_ratios=ratios, peak_rss_mb=max(rss), layers=layers,
        notes=notes, trace=trace_doc)
