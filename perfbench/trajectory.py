"""Fold the results of many benchmark runs into one point of the trajectory.

    python3 perfbench/trajectory.py LABEL

Reads every `.perfbench_out/*.json` that `run.py` left at the repository
root, groups the runs by workload, and writes `perfbench/trajectory/LABEL.json`
with, per metric, the median, quartiles and spread over the seeds, next to
the environment stamp of the runs. It prints the spread of each end-to-end
metric against a third of its bound in BENCHMARK.json.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def quartiles(values: list[float]) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "seeds": len(values)}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs: dict = {}
    for path in sorted((ROOT / ".perfbench_out").glob("*-trace[01].json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        runs.setdefault((doc["workload"], doc["trace"]), []).append(doc)
    if not runs:
        print("no results under .perfbench_out", file=sys.stderr)
        return 1

    point: dict = {"label": argv[0], "workloads": {}}
    for (workload, trace), docs in sorted(runs.items()):
        point.setdefault("env", docs[0]["env"])
        entry = point["workloads"].setdefault(workload, {})
        entry["seeds_trace%d" % trace] = sorted(d["seed"] for d in docs)
        entry["failed_trace%d" % trace] = sum(
            1 for d in docs for c in d["commands"] if c["errors"])
        if trace:
            names = docs[0]["metrics"]
            entry["per_layer"] = {n: quartiles([d["metrics"][n]["value"]
                                                for d in docs])
                                  for n in names}
            continue
        e2e = {}
        for name in docs[0]["end_to_end"]:
            values = [d["end_to_end"][name]["median"] for d in docs
                      if name in d["end_to_end"]]
            e2e[name] = quartiles(values)
            if name in bounds:
                ok = e2e[name]["spread"] <= bounds[name] / 3
                print(f"{workload:14} {name:24} median {e2e[name]['median']:12.6g}"
                      f"  spread {e2e[name]['spread']:.4f}  bound/3 "
                      f"{bounds[name] / 3:.4f}  {'ok' if ok else 'WIDE'}")
        entry["end_to_end"] = e2e

    out = HERE / "trajectory" / f"{argv[0]}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(point, indent=1, sort_keys=True) + "\n",
                   encoding="utf-8")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
