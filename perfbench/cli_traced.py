"""Traced ``pase`` CLI process for cli-cold.

Usage: ``python perfbench/cli_traced.py <spans.json> <pase args...>``

Times ``import repro.cli``, installs the layer wrappers, calls
``repro.cli.main`` with the given arguments, and writes the spans and
counts to ``<spans.json>``.  Everything ``pase`` prints goes to stdout
unchanged, so the caller checks it exactly as for an untraced process.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import spans  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    rec = spans.Recorder()
    with rec.span("cli.import"):
        import repro.cli
    with rec.span("trace.install"):
        patches = spans.install_search(rec, "repro.runtime")
    try:
        with rec.span("cli.main") as main_id:
            code = repro.cli.main(argv)
            sys.stdout.flush()
        main_span = rec.last("cli.main")
        searched = rec.last("runtime")
        if searched is not None:
            rec.add("cli.output", searched.end, main_span.end, main_id)
    finally:
        patches.restore()
    doc = rec.to_json()
    doc["t_start"] = T_START
    doc["t_end"] = time.perf_counter()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
