"""The repository's benchmark: one workload per invocation.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric named in ``BENCHMARK.json``;
``--trace 1`` runs the same workload with half of its operations traced
and prints every per-layer metric instead.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a human-readable
breakdown.  Exits non-zero, printing no result, when the program's
sources are not in the checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

import inputs
from measure import (ROOT, SRC, BenchError, class_geomean_of_medians,
                     geomean, median, run_child, tail)

MODULES = {"cli-cold": "cli_cold", "search-heavy": "search_heavy",
           "serve-mixed": "serve_mixed", "fleet-sweep": "fleet_sweep"}

#: Bare interpreter start-up runs in a traced run (the control layer).
INTERP_RUNS = 3


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end(o) -> dict[str, float]:
    return {
        "setup_s": o.setup_s,
        "cost_rel": o.cost_rel,
        "slo_share": o.slo_met / o.attempted,
        "sim_speedup_vs_dp": geomean(o.step_ratios.values()),
        "peak_rss_mb": o.peak_rss_mb,
    }


def per_layer(o, names: "list[str]") -> dict[str, float]:
    values = dict(o.layers)
    values["op.wall_p50_s"] = class_geomean_of_medians(o.walls)
    values["op.cpu_s"] = o.cpu_s
    values["calib.cpu_s"] = o.calib_s
    for problem, ratio in o.step_ratios.items():
        values[f"cluster.step_ratio.{problem}"] = ratio
    interp = [run_child(["-c", "pass"]) for _ in range(INTERP_RUNS)]
    values["interp.start_s"] = median(c.end - c.start for c in interp)
    unknown = sorted(set(values) - set(names))
    if unknown:
        raise BenchError(f"metrics missing from BENCHMARK.json: {unknown}")
    # A layer the workload never reaches reads 0 (see README.md).
    return {name: float(values.get(name, 0.0)) for name in names}


def breakdown(o) -> "list[str]":
    lines = [f"# wall_p50_s: {class_geomean_of_medians(o.walls):.4f}s "
             "(geometric mean of the class medians)",
             f"# cpu_s: {o.cpu_s:.4f}s per operation; calibration "
             f"{o.calib_s:.4f}s"]
    for cls, walls in sorted(o.walls.items()):
        lines.append(f"# {cls}: median {median(walls):.4f}s over "
                     f"{len(walls)} samples")
    for group, walls in sorted(o.tail_walls.items()):
        if len(walls) >= o.tail_min_n[group]:
            value, pct, n = tail(walls, o.tail_min_n[group])
            lines.append(f"# {group} tail: p{pct:.1f} = {value:.4f}s over "
                         f"{n} samples")
    for key, value in sorted(o.notes.items()):
        lines.append(f"# {key}: {json.dumps(value, sort_keys=True)}")
    return lines


def write_trace(doc: dict, workload: str, seed: int) -> str:
    """Write a traced run's spans under ``.perfbench-traces/``."""
    out_dir = os.path.join(ROOT, ".perfbench-traces")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    spec = _spec()
    for key in [k for k in os.environ if k.startswith("PASE_")]:
        del os.environ[key]
    sys.path.insert(0, SRC)
    scratch = os.path.join(ROOT, ".perfbench-tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=scratch)
    # Anything the program or its children put in a temporary directory
    # stays in this run's own directory inside the checkout.
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = None
    try:
        module = importlib.import_module(MODULES[args.workload])
        o = module.run(args.seed, args.seconds, bool(args.trace), tmp)
        if args.trace:
            names = [m["name"] for m in spec["per_layer"]]
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            values = per_layer(o, names)
        else:
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            values = end_to_end(o)
            if set(values) != set(units):
                raise BenchError("end-to-end metrics do not match "
                                 "BENCHMARK.json")
    except (BenchError, OSError, subprocess.SubprocessError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    if o.trace is not None:
        path = write_trace(o.trace, args.workload, args.seed)
        print(f"# spans written to {os.path.relpath(path, ROOT)}")
    for line in breakdown(o):
        print(line)
    print(json.dumps({
        "correct": o.failed_checks == 0,
        "attempted": o.attempted,
        "failed": o.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in values},
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
