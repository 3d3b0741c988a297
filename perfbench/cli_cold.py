"""cli-cold: sequential ``pase search --model M --p 16`` processes.

Interpreter start, import and output take most of each process's wall,
and the DP barely runs, so start-up and import layers show here and
nowhere else.  Traced rounds run the same command through
``cli_traced.py``, which times the import and wraps the layers.
"""

from __future__ import annotations

import json
import os
import re
import time
from collections import defaultdict

import inputs
import spans
from measure import (BENCH_DIR, Calibration, Outcome, calibration_process,
                     class_geomean_of_medians, enough_rounds, overhead_share,
                     run_child, timed_setup, traced_round)

#: At least this many untraced rounds (about 23 s with the calibration
#: processes on the seed code), so the pooled tail in the breakdown has a
#: fixed percentile: p37.5 of 16 processes.
MIN_ROUNDS = 4
TIMEOUT = 60.0

_COST = re.compile(r"^# cost=(\S+) FLOP-equivalents", re.M)


def output_ok(stdout: str, ref: dict) -> bool:
    """The printed cost and strategy table match the in-process search."""
    m = _COST.search(stdout)
    return (m is not None and m.group(1) == ref["cost_line"]
            and ref["table"] in stdout)


def run(seed: int, seconds: float, trace: bool, tmp: str) -> Outcome:
    setup_s, refs, mismatches = timed_setup("cli-cold", seed)
    order = inputs.rounds(seed, "cli-cold", inputs.CLI_MODELS)
    per_round = len(inputs.CLI_MODELS)
    limit = inputs.OP_LIMITS["cli-cold"]
    walls: dict[str, list[float]] = defaultdict(list)
    cpus: dict[str, list[float]] = defaultdict(list)
    traced_walls: dict[str, list[float]] = defaultdict(list)
    pooled: list[float] = []
    rels: dict[str, list[float]] = defaultdict(list)
    calib = Calibration(calibration_process)
    calib.sample()
    rec = spans.Recorder()
    roots: list[int] = []
    attempted = failed = failed_checks = slo_met = 0
    peak_rss = 0.0
    t_begin = time.perf_counter()
    i = 0
    while True:
        rnd = i // per_round
        if i % per_round == 0 and enough_rounds(rnd, trace, MIN_ROUNDS) and \
                time.perf_counter() - t_begin >= seconds:
            break
        traced = traced_round(rnd, trace)
        model = order[i]
        i += 1
        argv = ["search", "--model", model, "--p", str(inputs.CLI_P)]
        if traced:
            path = os.path.join(tmp, f"cli-spans-{i}.json")
            c = run_child([os.path.join(BENCH_DIR, "cli_traced.py"), path,
                           *argv], timeout=TIMEOUT)
        else:
            c = run_child(["-m", "repro.cli", *argv], timeout=TIMEOUT)
        wall = c.end - c.start
        calib.sample()
        attempted += 1
        peak_rss = max(peak_rss, c.maxrss_mb)
        ok = c.returncode == 0
        if ok and not output_ok(c.stdout, refs[f"{model}-p{inputs.CLI_P}"]):
            ok = False
            failed_checks += 1
        if not ok:
            failed += 1
        elif wall <= limit:
            slo_met += 1
        if traced:
            traced_walls[model].append(wall)
            if ok:
                root = rec.add("cli.process", c.start, c.end)
                with open(path, encoding="utf-8") as fh:
                    doc = json.load(fh)
                rec.merge_json(doc, root)
                # Interpreter start before the script's first line, and
                # teardown after its last.
                rec.add("cli.interp", c.start, doc["t_start"], root)
                rec.add("cli.interp", doc["t_end"], c.end, root)
                roots.append(root)
        else:
            walls[model].append(wall)
            cpus[model].append(c.cpu_s)
            rels[model].append(c.cpu_s / calib.around_last())
            pooled.append(wall)
    from program import step_ratios

    found = {f"{m}-p{inputs.CLI_P}": (m, inputs.CLI_P,
                                      refs[f"{m}-p{inputs.CLI_P}"]["strategy"])
             for m in inputs.CLI_MODELS}
    ratios, sim_s = step_ratios(found)
    layers = {}
    if trace:
        layers = spans.layer_metrics(rec, roots)
        layers["trace_overhead_share"] = overhead_share(traced_walls, walls)
        layers["cluster.simulate_s"] = sim_s
    return Outcome(
        setup_s=setup_s, cpu_s=class_geomean_of_medians(cpus),
        cost_rel=class_geomean_of_medians(rels), calib_s=calib.cpu_s,
        walls=dict(walls), tail_walls={"process": pooled},
        tail_min_n={"process": MIN_ROUNDS * per_round},
        slo_met=slo_met, attempted=attempted, failed=failed + mismatches,
        failed_checks=failed_checks + mismatches, step_ratios=ratios,
        peak_rss_mb=peak_rss, layers=layers,
        trace=spans.trace_doc(rec, roots) if trace else None)
