"""Traced ``pase serve`` process for serve-mixed.

Usage: ``python perfbench/serve_traced.py <spans-dir> <pase args...>``

Before the server starts, wraps the pool calls its dispatcher makes
(``WorkerPool.submit`` and ``release``, one recorder per task) and the
task function its pool workers run (`spans.install_worker`, which times
the search layers in each worker and writes one file per task to
``<spans-dir>``).  Then runs ``repro.cli.main`` with the given
arguments.  When the server has drained, writes the pool spans to
``<spans-dir>/server.json`` as a list of per-task documents.
"""

import functools
import json
import os
import sys

import spans


def main() -> int:
    out_dir, argv = sys.argv[1], sys.argv[2:]
    from repro.fleet.pool import WorkerPool

    patches = spans.Patches(spans.Recorder())
    by_task: dict = {}   # task id -> (task key, recorder)

    def pool_call(orig):
        @functools.wraps(orig)
        def wrapper(self, task_id, *args, **kwargs):
            if args:  # submit(task_id, task_dict, ...)
                by_task.setdefault(task_id, (spans.task_key(args[0]),
                                             spans.Recorder()))
            entry = by_task.get(task_id)
            if entry is None:
                return orig(self, task_id, *args, **kwargs)
            with entry[1].span("fleet.pool"):
                return orig(self, task_id, *args, **kwargs)
        return wrapper

    for attr in ("submit", "release"):
        patches.replace(WorkerPool, attr, pool_call(vars(WorkerPool)[attr]))
    spans.install_worker(patches, out_dir, search=True)
    import repro.cli

    try:
        return repro.cli.main(argv)
    finally:
        patches.restore()
        docs = [{"task": key, **rec.to_json()}
                for key, rec in by_task.values()]
        path = os.path.join(out_dir, "server.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(docs, fh)


if __name__ == "__main__":
    sys.exit(main())
