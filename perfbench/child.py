"""Run one hencler command in this process and write what it measured.

Usage: python3 perfbench/child.py REPORT.json TRACE RUN_ID -- HENCLER_ARGS...

TRACE 0 takes only boundary timestamps; TRACE 1 installs the span tracer
first. The hencler package is imported from `src/` next to this directory
and from nowhere else. The exit code is the command's own.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent


def _import_hencler():
    sys.path.insert(0, str(ROOT / "src"))
    import hencler
    import hencler.cli
    source = Path(hencler.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise ImportError(f"hencler imported from {source}, not from "
                          f"{ROOT / 'src'}")
    return hencler.cli


def main(argv: list[str]) -> int:
    report_path, trace, run_id = argv[0], argv[1] == "1", argv[2]
    if argv[3] != "--":
        raise SystemExit("usage: child.py REPORT TRACE RUN_ID -- ARGS...")
    command = argv[4:]
    cli = _import_hencler()

    marks: dict = {}
    tracer = None
    if trace:
        tracer = tracing.Tracer(run_id)
        tracing.instrument(tracer)
    else:
        tracing.untraced_hooks(marks)

    started = time.perf_counter()
    code = cli.main(command)
    finished = time.perf_counter()

    report = {"run_id": run_id, "exit_code": code, "run_s": finished - started,
              # ru_maxrss is in KiB on Linux
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              / 1024.0}
    if tracer is not None:
        report["trace"] = tracer.export()
    else:
        first = marks.get("train.first", marks.get("map_features.first"))
        if first is not None:
            report["setup_s"] = first - started
        if "train.total" in marks:
            report["train_s"] = marks["train.total"]
            report["node_epochs"] = marks["train.node_epochs"]
    # open(), not Path.write_text: the tracer wraps the latter
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
