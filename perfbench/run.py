"""End-to-end and per-layer benchmark of the hencler CLI.

    python3 perfbench/run.py --workload tracked-300 --seed 0 --seconds 20 --trace 0

Each workload generates its graph from `--seed` (untimed), then runs the real
`hencler train` or `hencler oracle` command in fresh child processes, one at
a time, until `--seconds` have passed (at least two commands). `--trace 0`
reports the end-to-end metrics, `--trace 1` one untraced command followed by
traced ones and the per-layer metrics. Every command's outputs are checked;
the last stdout line is the JSON result. Metric names come from
BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

HARD_LIMIT_S = 170.0  # a run must end within 180 s
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
EIGEN_FORM_TOL = 1e-10

# Graph family of the acceptance suite; every other setting is a CLI default
# (hidden 256, d_f 128, k_pe 16, float64).
GRAPH = dict(num_classes=3, avg_degree=10, feature_dim=16, class_sep=1.6)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "train" | "oracle"
    num_nodes: int
    epochs: int  # oracle: of the checkpoint, trained untimed in set-up
    eval_every: int
    # Floor on the NMI of the written assignment, set from the parent commit
    # well below the lowest value seen over seeds; it catches broken training,
    # not small quality drift.
    nmi_floor: float


WORKLOADS = {w.name: w for w in (
    # The acceptance-suite run: 300 epochs, kmeans tracking every epoch.
    # Overhead-bound: small matrices, per-op tape cost, metric tracking.
    Workload("tracked-300", "train", 300, 300, 1, nmi_floor=0.4),
    # Large graph, no tracking: the quadratic PE and BLAS-bound tape matmuls.
    Workload("untracked-8k", "train", 8000, 20, 0, nmi_floor=0.05),
    # Inference only: checkpoint load, feature maps, dense dual biclustering.
    Workload("oracle-3k", "oracle", 3000, 20, 0, nmi_floor=0.02),
)}

ARTIFACTS = {"train": ("metrics.json", "assignment.csv", "embeddings.csv",
                       "checkpoint.json"),
             "oracle": ("oracle.json", "row_clusters.csv", "col_clusters.csv")}

OPS = ("matmul", "batchnorm", "leaky_relu", "softplus", "log_sigmoid", "add",
       "mul", "reduce_sum", "gather_rows", "concat")

# per-layer metric -> span whose inclusive time it reports
INCLUSIVE = {
    "graphio.load_s": "graphio.load_graph",
    "graphio.pe_s": "graphio.random_walk_pe",
    "gradients.backward_s": "gradients.backward",
    "model.feature_maps_s.train": "model.feature_maps.train",
    "model.feature_maps_s.eval": "model.feature_maps.eval",
    "model.similarity_matrix_s": "model.similarity_matrix",
    "loss.forward_s": "loss.build_total_loss",
    "loss.sample_edges_s": "loss.sample_edges",
    "trainer.adam_s": "trainer.optimizer_step",
    "trainer.renorm_s": "trainer._project_unit_columns",
    "linalg.kmeans_s": "linalg.kmeans",
    "linalg.thin_svd_s": "linalg.thin_svd",
    "dual.bicluster_s": "dual.bicluster",
    "dual.eigen_form_s": "dual.eigen_form_check",
    "dual.stationarity_s": "dual.stationarity_residual",
    "evaluate.assign_s": "evaluate.assign_clusters",
    "evaluate.nmi_s": "evaluate.nmi",
    "evaluate.f1_s": "evaluate.pairwise_f1",
}
# per-layer metric -> span whose number of calls it reports
CALLS = {
    "graphio.pe_calls": "graphio.random_walk_pe",
    "linalg.kmeans_calls": "linalg.kmeans",
    "linalg.restarts": "linalg._lloyd",
}
# Calls made by the trainer's tracking block, children of trainer.train.
EVAL_BLOCK = ("trainer._eval_embeddings", "linalg.kmeans", "evaluate.nmi",
              "evaluate.pairwise_f1")
# Artifact writers; only the outermost of nested writer spans counts.
WRITERS = ("cli._write_assignment", "cli._write_embeddings",
           "model.save_checkpoint", "pathlib.write_text")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """Fresh-process environment: BLAS threads capped at nproc, no seed
    override, no inherited import path."""
    env = dict(os.environ)
    env.pop("HENCLER_SEED", None)
    env.pop("PYTHONPATH", None)
    cap = nproc()
    for key in BLAS_VARS:
        current = env.get(key, "")
        if not (current.isdigit() and 1 <= int(current) <= cap):
            env[key] = str(cap)
    return env


def environment(env: dict) -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "nproc": nproc(), "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_threads": {k: env[k] for k in BLAS_VARS},
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "machine": platform.machine()}


def nmi(pred: np.ndarray, truth: np.ndarray) -> float:
    """NMI with arithmetic-mean normalization, independent of hencler's."""
    _, p = np.unique(pred, return_inverse=True)
    _, t = np.unique(truth, return_inverse=True)
    joint = np.zeros((p.max() + 1, t.max() + 1))
    np.add.at(joint, (p, t), 1.0)
    joint /= pred.size
    pp, pt = joint.sum(axis=1), joint.sum(axis=0)
    hp = -np.sum(pp * np.log(pp))
    ht = -np.sum(pt * np.log(pt))
    if hp == 0.0 or ht == 0.0:
        return 1.0 if hp == ht else 0.0
    nz = joint > 0
    mi = np.sum(joint[nz] * np.log(joint[nz] / np.outer(pp, pt)[nz]))
    return float(mi / (0.5 * (hp + ht)))


def read_assignment(path: Path, num_nodes: int) -> np.ndarray:
    table = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64,
                       ndmin=2)
    if table.shape != (num_nodes, 2) or not np.array_equal(
            table[:, 0], np.arange(num_nodes)):
        raise ValueError(f"{path.name}: expected rows 0..{num_nodes - 1}")
    return table[:, 1]


def make_inputs(w: Workload, seed: int, work: Path) -> np.ndarray:
    """Write the seeded graph and run config; return the node labels."""
    sys.path.insert(0, str(ROOT / "src"))
    from hencler.synthetic import heterophilous_blobs, write_graph_tsv
    g = heterophilous_blobs(num_nodes=w.num_nodes, seed=seed, **GRAPH)
    write_graph_tsv(g, work / "edges.tsv", work / "features.tsv",
                    work / "labels.tsv")
    config = {"edge_path": str(work / "edges.tsv"),
              "feature_path": str(work / "features.tsv"),
              "label_path": str(work / "labels.tsv"), "directed": False,
              "seed": seed, "epochs": w.epochs, "eval_every": w.eval_every}
    (work / "config.json").write_text(json.dumps(config), encoding="utf-8")
    return g.labels


class Runner:
    """Starts hencler commands in child processes, one at a time."""

    def __init__(self, work: Path, env: dict, deadline: float, prefix: str):
        self.work = work
        self.prefix = prefix
        self.env = env
        self.deadline = deadline
        self.count = 0

    def run(self, args: list[str], trace: bool) -> dict:
        self.count += 1
        report = self.work / f"report-{self.count}.json"
        cmd = [sys.executable, str(HERE / "child.py"), str(report),
               "1" if trace else "0", f"{self.prefix}-cmd{self.count}", "--",
               *args]
        timeout = max(1.0, self.deadline - time.monotonic())
        started = time.monotonic()
        try:
            done = subprocess.run(cmd, cwd=self.work, env=self.env,
                                  capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"exit_code": None, "error": f"timed out after {timeout:.0f} s",
                    "wall_s": time.monotonic() - started}
        result = {"exit_code": done.returncode,
                  "wall_s": time.monotonic() - started}
        if report.exists():
            result.update(json.loads(report.read_text(encoding="utf-8")))
            result["exit_code"] = done.returncode
        if done.returncode != 0:
            result["error"] = (done.stderr.strip().splitlines() or ["?"])[-1]
        return result


def check_outputs(w: Workload, labels: np.ndarray, out_dir: Path,
                  result: dict) -> None:
    """Fill `result` with output measurements, and `errors` with failures."""
    errors = result.setdefault("errors", [])
    if result.get("exit_code") != 0:
        errors.append(f"exit code {result.get('exit_code')}: "
                      f"{result.get('error', '')}")
        return
    hashes, size = {}, 0
    for name in ARTIFACTS[w.command]:
        path = out_dir / name
        if not path.is_file():
            errors.append(f"missing artifact {name}")
            continue
        data = path.read_bytes()
        hashes[name] = hashlib.sha256(data).hexdigest()
        size += len(data)
    result["sha256"], result["artifact_bytes"] = hashes, size
    if errors:
        return
    try:
        if w.command == "train":
            assignment = read_assignment(out_dir / "assignment.csv",
                                         w.num_nodes)
            metrics = json.loads((out_dir / "metrics.json").read_text())
            best = metrics["runs"][0]["best"]
            if w.eval_every:
                result["best_nmi"], result["best_f1"] = best["nmi"], best["f1"]
            if result.get("train_s"):
                result["train_node_epochs_per_s"] = (result["node_epochs"]
                                                     / result["train_s"])
        else:
            assignment = read_assignment(out_dir / "row_clusters.csv",
                                         w.num_nodes)
            read_assignment(out_dir / "col_clusters.csv", w.num_nodes)
            residuals = json.loads((out_dir / "oracle.json").read_text()
                                   )["residuals"]
            result["eigen_form_residual"] = residuals["eigen_form"]
            # Recorded, not gated: it rebuilds the projections from the dual
            # vectors, so it holds for any checkpoint.
            result["stationarity_residual"] = residuals["stationarity"]
            if not residuals["eigen_form"] < EIGEN_FORM_TOL:
                errors.append(f"eigen-form residual {residuals['eigen_form']:.3e}"
                              f" >= {EIGEN_FORM_TOL:g}")
    except (OSError, ValueError, KeyError, IndexError) as exc:
        errors.append(f"unreadable output: {exc}")
        return
    result["final_nmi"] = nmi(assignment, labels)
    if not result["final_nmi"] >= w.nmi_floor:
        errors.append(f"final NMI {result['final_nmi']:.4f} below floor "
                      f"{w.nmi_floor}")


def check_identical(results: list[dict], reference: dict | None) -> None:
    """Same-seed artifacts must be byte-identical across every command of
    this run and the `reference` hashes an earlier run recorded."""
    hashed = [r for r in results if r.get("sha256")]
    if reference is None and hashed:
        reference = hashed[0]["sha256"]
    for r in hashed:
        differ = sorted(k for k in reference
                        if r["sha256"].get(k) != reference[k])
        if differ:
            r["errors"].append(f"artifacts differ from an earlier same-seed "
                               f"command: {differ}")


def previous_runs(w: Workload, seed: int, src_sha256: str) -> list[dict]:
    """Results an earlier run of this workload and seed left for the same
    sources."""
    docs = []
    for path in sorted(OUT.glob(f"{w.name}-seed{seed}-trace*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        if doc["env"]["src_sha256"] == src_sha256:
            docs.append(doc)
    return docs


def span_table(trace: dict) -> dict:
    """Per span name: calls, inclusive seconds and self seconds."""
    names = trace["names"]
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for idx, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
    table: dict = {}
    for idx, (n, start, end, _) in enumerate(spans):
        row = table.setdefault(names[n], {"calls": 0, "incl_s": 0.0,
                                          "self_s": 0.0})
        row["calls"] += 1
        row["incl_s"] += end - start
        row["self_s"] += end - start - child_time[idx]
    return table


def layer_metrics(result: dict) -> dict:
    """Per-layer metrics of one traced command."""
    trace = result["trace"]
    table = span_table(trace)
    names, spans = trace["names"], trace["spans"]

    def get(name, key):
        return table.get(name, {}).get(key, 0)

    m = {metric: get(span, "incl_s") for metric, span in INCLUSIVE.items()}
    m.update({metric: get(span, "calls") for metric, span in CALLS.items()})
    for key in ("trainer.epochs", "linalg.lloyd_iters",
                "model.similarity_bytes"):
        m[key] = trace["counts"].get(key, 0)
    other = {"fwd": 0.0, "bwd": 0.0, "calls": 0}
    for name, row in table.items():
        if not name.startswith(("gradients.fwd.", "gradients.bwd.")):
            continue
        kind, op = name.split(".")[1:]
        if op in OPS:
            m[f"gradients.{kind}_s.{op}"] = row["self_s"]
            if kind == "fwd":
                m[f"gradients.calls.{op}"] = row["calls"]
        else:
            other[kind] += row["self_s"]
            other["calls"] += row["calls"] if kind == "fwd" else 0
    for op in OPS:
        for key in (f"gradients.fwd_s.{op}", f"gradients.bwd_s.{op}",
                    f"gradients.calls.{op}"):
            m.setdefault(key, 0)
    m["gradients.fwd_s.other"] = other["fwd"]
    m["gradients.bwd_s.other"] = other["bwd"]
    m["gradients.calls.other"] = other["calls"]

    train_ids = {i for i, s in enumerate(spans)
                 if names[s[0]] == "trainer.train"}
    writer_ids = {i for i, s in enumerate(spans) if names[s[0]] in WRITERS}
    m["trainer.eval_s"] = sum(
        end - start for n, start, end, parent in spans
        if parent in train_ids and names[n] in EVAL_BLOCK)
    m["cli.write_s"] = sum(
        end - start for i, (n, start, end, parent) in enumerate(spans)
        if i in writer_ids and not _has_ancestor(spans, parent, writer_ids))
    m["cli.artifact_bytes"] = result["artifact_bytes"]
    return m


def _has_ancestor(spans, idx, ids) -> bool:
    while idx >= 0:
        if idx in ids:
            return True
        idx = spans[idx][3]
    return False


def high_percentile(values: list[float]):
    """Highest of the usual percentiles with at least 10 samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(values) * (1.0 - p / 100.0) >= 10:
            return p, float(np.percentile(values, p))
    return None


def summarize(samples: dict) -> dict:
    out = {}
    for name, values in samples.items():
        if values:
            out[name] = {"median": statistics.median(values),
                         "p_hi": high_percentile(values), "n": len(values)}
    return out


UNITS = {"run_s": "s", "setup_s": "s", "train_node_epochs_per_s": "1/s",
         "peak_rss_mb": "MB", "final_nmi": "nmi", "best_nmi": "nmi",
         "best_f1": "f1", "fail_frac": "ratio",
         "eigen_form_residual": "rel", "stationarity_residual": "rel",
         "artifact_bytes": "bytes"}


def end_to_end_samples(timed: list[dict]) -> dict:
    ok = [r for r in timed if not r["errors"]]
    return {k: [r[k] for r in ok if r.get(k) is not None]
            for k in UNITS if k != "fail_frac"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    begun = time.monotonic()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if not (ROOT / "src" / "hencler" / "cli.py").is_file():
        print(f"no hencler sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    env = child_env()
    env_stamp = environment(env)
    work = WORK / f"{w.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        labels = make_inputs(w, args.seed, work)
        runner = Runner(work, env, deadline=begun + HARD_LIMIT_S,
                        prefix=f"{w.name}-seed{args.seed}")
        checkpoint = None
        if w.command == "oracle":
            made = runner.run(["train", "--config", str(work / "config.json"),
                               "--output-dir", str(work / "checkpoint")],
                              trace=False)
            if made["exit_code"] != 0:
                print(f"checkpoint training failed: {made.get('error')}",
                      file=sys.stderr)
                return 1
            checkpoint = work / "checkpoint" / "checkpoint.json"
        results = measure(w, args, runner, labels, checkpoint, begun)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    earlier = previous_runs(w, args.seed, env_stamp["src_sha256"])
    reference = next((c["sha256"] for d in earlier for c in d["commands"]
                      if c.get("sha256")), None)
    check_identical(results, reference)
    untraced = [r for r in results if not r["traced"]]
    e2e = summarize(end_to_end_samples(untraced))
    layer = None
    if args.trace:
        earlier_counts = next((d["counts"] for d in earlier
                               if d.get("counts")), None)
        layer = per_layer(results, e2e, earlier_counts)
    failed = sum(1 for r in results if r["errors"])
    e2e["fail_frac"] = {"median": failed / len(results), "p_hi": None,
                        "n": len(results)}

    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = layer if args.trace else {k: v["median"] for k, v in e2e.items()}
    metrics = {}
    if source is not None and failed < len(results):
        metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
                   for m in names if m["name"] in source}
    correct = failed == 0 and len(metrics) == len(names)

    print_report(w, args, env_stamp, results, e2e, layer)
    OUT.mkdir(exist_ok=True)
    doc = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "env": env_stamp, "end_to_end": e2e,
           "metrics": metrics,
           "commands": [{k: v for k, v in r.items() if k != "trace"}
                        for r in results]}
    if layer is not None:
        doc["counts"] = {k: layer[k] for k in count_names(layer)}
        spans = next(r["trace"] for r in reversed(results) if "trace" in r)
        write_atomic(OUT / f"{w.name}-seed{args.seed}-spans.json",
                     json.dumps(spans))
    write_atomic(OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json",
                 json.dumps(doc, indent=1))
    print(json.dumps({"correct": correct, "attempted": len(results),
                      "failed": failed, "metrics": metrics}))
    return 0


def write_atomic(path: Path, text: str) -> None:
    """Replace `path` whole, so a concurrent reader never sees half a file."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def measure(w, args, runner, labels, checkpoint, begun) -> list[dict]:
    """Run commands until --seconds have passed and at least two ran.

    Trace 0 runs only untraced commands; trace 1 runs one untraced command
    (the reference for the tracing overhead), then traced ones.
    """
    results: list[dict] = []
    measure_start = time.monotonic()
    last = 0.0
    while True:
        elapsed = time.monotonic() - measure_start
        if len(results) >= 2 and elapsed >= args.seconds:
            break
        if time.monotonic() - begun + last > HARD_LIMIT_S - 5:
            break
        traced = bool(args.trace) and len(results) > 0
        out_dir = runner.work / f"out-{len(results) + 1}"
        cmd = [w.command, "--config", str(runner.work / "config.json"),
               "--output-dir", str(out_dir)]
        if w.command == "oracle":
            cmd += ["--checkpoint", str(checkpoint), "--seed", str(args.seed)]
        result = runner.run(cmd, trace=traced)
        result["traced"] = traced
        check_outputs(w, labels, out_dir, result)
        shutil.rmtree(out_dir, ignore_errors=True)
        results.append(result)
        last = result["wall_s"]
        if result.get("exit_code") is None:
            break  # timed out: no time left for another
    return results


def count_names(layer: dict) -> list[str]:
    """Per-layer metrics that are exact counts rather than seconds."""
    return [k for k in layer if not k.endswith("_s") and "_s." not in k]


def per_layer(results: list[dict], e2e: dict, earlier_counts) -> dict | None:
    """Median per-layer metrics of the traced commands. Counts must repeat
    exactly across them and across earlier same-seed runs; a command whose
    counts differ is marked failed."""
    traced = [r for r in results if r["traced"] and not r["errors"]]
    if not traced or "run_s" not in e2e:
        return None
    per_cmd = [layer_metrics(r) for r in traced]
    reference = earlier_counts or {k: per_cmd[0][k]
                                   for k in count_names(per_cmd[0])}
    for r, m in zip(traced, per_cmd):
        differ = sorted(k for k in reference if m.get(k) != reference[k])
        if differ:
            r["errors"].append(f"counts differ from an earlier same-seed "
                               f"command: {differ}")
    layer = {k: per_cmd[0][k] if k in reference
             else statistics.median(m[k] for m in per_cmd)
             for k in per_cmd[0]}
    traced_run = statistics.median(r["run_s"] for r in traced)
    layer["trace.overhead_s"] = traced_run - e2e["run_s"]["median"]
    return layer


def print_report(w, args, env_stamp, results, e2e, layer) -> None:
    traced = [r for r in results if r["traced"]]
    print(f"perfbench workload={w.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"commands={len(results)} (traced {len(traced)})")
    print("env " + json.dumps(env_stamp, sort_keys=True))
    for r in results:
        for err in r["errors"]:
            print(f"FAILED {r.get('run_id', '?')}: {err}")
    print(f"{'end-to-end metric (untraced)':28} {'unit':6} {'median':>14} "
          f"{'p_hi':>18} {'n':>3}")
    for name, s in e2e.items():
        hi = "-" if s["p_hi"] is None else f"p{s['p_hi'][0]:g}={s['p_hi'][1]:.6g}"
        print(f"{name:28} {UNITS[name]:6} {s['median']:14.6g} {hi:>18} "
              f"{s['n']:3d}")
    if layer is None:
        return
    run_s = e2e["run_s"]["median"]
    table = span_table(traced[-1]["trace"])
    print(f"{'span (last traced command)':40} {'calls':>8} {'incl_s':>10} "
          f"{'self_s':>10} {'self%':>6}")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:40} {row['calls']:8d} {row['incl_s']:10.4f} "
              f"{row['self_s']:10.4f} {100.0 * row['self_s'] / run_s:6.1f}")
    print(f"{'per-layer metric (median of traced)':40} {'value':>16}")
    for name in sorted(layer):
        print(f"{name:40} {layer[name]:16.6g}")


if __name__ == "__main__":
    sys.exit(main())
