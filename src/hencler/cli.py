"""Command-line surface: train, oracle, benchmark, export-similarity.

Exit codes: 0 success, 1 runtime/numeric failure, 2 config/parse error,
3 guard violation. `train` seeds from the config's `seed`; `oracle` and
`benchmark` seed from `--seed` (default 0) and never read the config's
`seed`, so `oracle` on a model's own config clusters with seed 0 unless
`--seed` is given. No command reads the environment. Every file a command
writes goes through `graphio.replace_on_success`, whole or not at all.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import sys
import time
import tracemalloc
import warnings
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from .dual import oracle_report
from .evaluate import assign_clusters
from .graphio import AttributedGraph, GraphFormatError, load_graph, \
    random_walk_pe, replace_on_success
from .model import CheckpointError, load_checkpoint, map_features, \
    save_checkpoint, similarity_matrix
from .synthetic import random_sparse_graph
from .trainer import TrainConfig, train

__all__ = ["main", "run_benchmark", "ConfigError", "GuardExceeded"]

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_GUARD = 3

DENSE_GUARD_NODES = 5000  # materializing S above this needs an explicit override
# Change when random_walk_pe's values change, in the last bit too: a new
# graphio.PE_BLOCK_SIZE is such a change.
PE_FORMAT = b"hencler-pe-exact-1"
BENCH_AVG_DEGREE = 8.0  # of the benchmark's random sparse graphs
BENCH_K_PE = 8
# Negative sampling needs a non-edge among the n * (n - 1) ordered pairs,
# certain only when they outnumber the n * BENCH_AVG_DEGREE sampled edges.
BENCH_MIN_SIZE = int(BENCH_AVG_DEGREE) + 2

# mallopt(3) settings as (<malloc.h> parameter number, value), made by the
# commands that train. Training frees each epoch's tape before the next
# forward; with trimming on, glibc would hand that heap back to the OS and the
# forward would fault it in again. A trim threshold of -1 disables trimming
# completely. Setting it also stops glibc from raising the mmap threshold as
# large blocks are freed, so the threshold is pinned at that rule's 64-bit
# ceiling, 32 MiB, and arrays glibc served from the heap stay there.
M_TRIM_THRESHOLD = (-1, -1)
M_MMAP_THRESHOLD = (-3, 32 * 1024 * 1024)

_TRAIN_KEYS = {f.name for f in fields(TrainConfig)}
_CONFIG_KEYS = _TRAIN_KEYS | {"edge_path", "feature_path", "label_path",
                              "directed", "output_dir"}


class ConfigError(ValueError):
    """Bad run configuration (unknown key, missing file, malformed JSON)."""


class GuardExceeded(RuntimeError):
    """A size guard was hit without an explicit override."""


def load_config(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: malformed JSON at line {exc.lineno} "
                          f"column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top-level JSON value must be an object")
    unknown = set(doc) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"{path}: unknown config keys: {sorted(unknown)}")
    for key in ("edge_path", "feature_path"):
        if key not in doc:
            raise ConfigError(f"{path}: missing required key {key!r}")
    for key in ("edge_path", "feature_path", "label_path", "output_dir"):
        value = doc.get(key, "")  # a null label_path means no labels
        if not isinstance(value, str) and (key, value) != ("label_path", None):
            raise ConfigError(f"{path}: {key} must be a path string, "
                              f"got {value!r}")
    return doc


def _check_seed(seed: int) -> int:
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return seed


def _keep_freed_heap() -> list[int] | None:
    """Keep freed heap in this process for the rest of the command: apply
    M_TRIM_THRESHOLD and M_MMAP_THRESHOLD through the C library's mallopt.
    Returns mallopt's results (1 on success), or None where the C library
    has no mallopt. Process-wide, so only commands call it."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return [mallopt(param, value)
            for param, value in (M_TRIM_THRESHOLD, M_MMAP_THRESHOLD)]


def _load_dataset(doc: dict) -> AttributedGraph:
    directed = doc.get("directed", True)
    if not isinstance(directed, bool):
        raise ConfigError(f"directed must be true or false, got {directed!r}")
    try:
        return load_graph(doc["edge_path"], doc["feature_path"],
                          doc.get("label_path"), directed=directed)
    except OSError as exc:
        raise ConfigError(f"cannot read dataset: {exc}") from exc


def _train_config(doc: dict, g: AttributedGraph) -> TrainConfig:
    values = {k: doc[k] for k in _TRAIN_KEYS if k in doc}
    if values.get("num_clusters") is None:
        if g.num_classes is None:
            raise ConfigError("num_clusters missing and no labels to infer it")
        values["num_clusters"] = g.num_classes
    try:
        config = TrainConfig(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad training configuration: {exc}") from exc
    if config.num_clusters > g.num_nodes:
        raise ConfigError(f"num_clusters {config.num_clusters} exceeds the "
                          f"{g.num_nodes} nodes of the graph")
    return config


def _output_path(path, directory: bool) -> Path:
    """`path` as an output directory (created when first written) or file,
    checked before any work and without creating anything: the nearest
    existing directory it would be written under must be writable."""
    path = Path(path)
    if directory:
        existing = path
        while not os.path.lexists(existing):
            existing = existing.parent
    elif path.is_dir():
        raise ConfigError(f"output file {path} is a directory")
    else:
        existing = path.parent
    if not existing.is_dir():
        reason = ("is not a directory" if os.path.lexists(existing)
                  else "does not exist")
        raise ConfigError(f"cannot write {path}: {existing} {reason}")
    if not os.access(existing, os.W_OK | os.X_OK):
        raise ConfigError(f"cannot write {path}: {existing} is not writable")
    return path


def _pe_path(directory: Path, g: AttributedGraph, k_pe: int) -> Path:
    """`pe-<sha256>.npy` in `directory`, keyed by everything the walk
    operators depend on: the node count, `k_pe` and the edge list. The
    `directed` config key is not part of the key, because an undirected
    graph's edges already hold both orientations."""
    digest = hashlib.sha256(PE_FORMAT)
    digest.update(np.array([g.num_nodes, k_pe], dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(g.edges, dtype=np.int64).tobytes())
    return directory / f"pe-{digest.hexdigest()}.npy"


def _read_pe(path: Path, num_nodes: int, k_pe: int) -> np.ndarray:
    try:
        with open(path, "rb") as handle:
            values = np.lib.format.read_array(handle, allow_pickle=False)
    except (OSError, ValueError, EOFError) as exc:
        raise CheckpointError(f"{path}: unreadable positional encoding "
                              f"({exc})") from exc
    if values.dtype != np.float64 or values.shape != (num_nodes, k_pe):
        raise CheckpointError(f"{path}: expected a float64 array of shape "
                              f"{(num_nodes, k_pe)}, got {values.dtype} "
                              f"{values.shape}")
    if not np.all((values >= 0.0) & (values <= 1.0)):  # False for NaN
        raise CheckpointError(f"{path}: positional encoding values must be "
                              f"finite and in [0, 1]")
    return values


def _positional_encoding(g: AttributedGraph, k_pe: int, directory: Path,
                         store: bool = False) -> np.ndarray:
    """The PE of `g`, read from `directory` when a file for this graph and
    `k_pe` is there, else computed and, with `store`, written there.

    A file that is there but fails validation is an input error, never
    silently recomputed.
    """
    path = _pe_path(directory, g, k_pe)
    if path.is_file():
        return _read_pe(path, g.num_nodes, k_pe)
    pe = random_walk_pe(g, k_pe)
    if store:
        with replace_on_success(path, "wb") as handle:
            np.save(handle, pe, allow_pickle=False)
    return pe


def _sizes(text: str) -> list[int]:
    """Parse `--sizes`: comma-separated integers, all >= BENCH_MIN_SIZE."""
    try:
        sizes = [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"--sizes must be comma-separated integers, "
                          f"got {text!r}") from exc
    if min(sizes) < BENCH_MIN_SIZE:
        raise ConfigError(f"--sizes must all be >= {BENCH_MIN_SIZE}, got "
                          f"{text!r}: smaller benchmark graphs may leave no "
                          f"non-edge for negative sampling")
    return sizes


def _write_assignment(path, assignment) -> None:
    with replace_on_success(path) as handle:
        handle.write("node,cluster\n")
        for node, cluster in enumerate(assignment):
            handle.write(f"{node},{cluster}\n")


def _write_embeddings(path, source, target) -> None:
    s = source.shape[1]
    header = ",".join(["node"] + [f"e{i}" for i in range(s)]
                      + [f"r{i}" for i in range(s)])
    with replace_on_success(path) as handle:
        handle.write(header + "\n")
        rows = zip(source.tolist(), target.tolist())
        for node, (src_row, dst_row) in enumerate(rows):
            handle.write(",".join([str(node), *map(repr, src_row + dst_row)])
                         + "\n")


def cmd_train(args) -> int:
    _keep_freed_heap()
    doc = load_config(args.config)
    out_dir = args.output_dir or doc.get("output_dir", "hencler_out")
    out_dir = _output_path(out_dir, directory=True)
    g = _load_dataset(doc)
    config = _train_config(doc, g)
    if args.repeats < 1:
        raise ConfigError(f"--repeats must be >= 1, got {args.repeats}")
    # trainer.train checks this too, for callers that skip the cli; this
    # check runs first so that a refused run writes no PE file.
    if config.eval_every > 0 and g.labels is None:
        raise ConfigError("metric tracking needs label_path (set eval_every "
                          "to 0 to train without labels)")
    out_dir.mkdir(parents=True, exist_ok=True)

    pe = _positional_encoding(g, config.k_pe, out_dir, store=True)
    seeds = [config.seed + i for i in range(args.repeats)]
    results = [train(g, replace(config, seed=s), pe) for s in seeds]

    records = [record for _, record in results]
    metrics: dict = {"config": {**asdict(config), "seeds": seeds},
                     "runs": [r.to_dict() for r in records]}
    tracked = [r for r in records if r.best_nmi is not None]
    if tracked:
        best_nmis = np.array([r.best_nmi for r in tracked])
        best_f1s = np.array([r.best_f1 for r in tracked])
        metrics["aggregate"] = {
            "best_nmi_mean": float(best_nmis.mean()),
            "best_nmi_std": float(best_nmis.std()),
            "best_f1_mean": float(best_f1s.mean()),
            "best_f1_std": float(best_f1s.std()),
        }
        print(f"best NMI {best_nmis.mean():.4f} +- {best_nmis.std():.4f}  "
              f"best F1 {best_f1s.mean():.4f} +- {best_f1s.std():.4f}")
    total_wall = sum(r.wall_time_s for r in records)
    print(f"trained {len(records)} run(s) in {total_wall:.1f}s")

    with replace_on_success(out_dir / "metrics.json") as handle:
        handle.write(json.dumps(metrics, indent=1))
    params, first = results[0]
    save_checkpoint(params, out_dir / "checkpoint.json")
    source, target = first.embeddings
    assignment = assign_clusters(source, target, config.num_clusters,
                                 seed=config.seed)
    _write_assignment(out_dir / "assignment.csv", assignment)
    _write_embeddings(out_dir / "embeddings.csv", source, target)
    return EXIT_OK


def cmd_oracle(args) -> int:
    out_dir = _output_path(args.output_dir or "hencler_oracle",
                           directory=True)
    seed = _check_seed(args.seed)
    doc = load_config(args.config)
    g = _load_dataset(doc)
    config = _train_config(doc, g)
    params = load_checkpoint(args.checkpoint)
    if config.num_clusters > params.dims.d_f:
        raise ConfigError(
            f"num_clusters {config.num_clusters} exceeds the model's d_f "
            f"{params.dims.d_f}: the learned similarity has rank at most d_f")
    pe = _positional_encoding(g, config.k_pe, Path(args.checkpoint).parent)
    report, rows, cols = oracle_report(map_features(g, pe, params),
                                       config.num_clusters, seed, g.labels)
    if "row_nmi" in report:
        print(f"row NMI {report['row_nmi']:.4f}  col NMI {report['col_nmi']:.4f}")
    residuals = report["residuals"]
    print(f"stationarity residual {residuals['stationarity']:.3e}  "
          f"eigen-form residual {residuals['eigen_form']:.3e}")
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_assignment(out_dir / "row_clusters.csv", rows)
    _write_assignment(out_dir / "col_clusters.csv", cols)
    with replace_on_success(out_dir / "oracle.json") as handle:
        handle.write(json.dumps(report, indent=1))
    return EXIT_OK


def run_benchmark(sizes, *, epochs: int, seed: int,
                  measure_memory: bool) -> dict:
    """Time fixed-epoch float64 training, the model `train` runs, at each
    size; optionally record peak memory.

    `seconds` times training alone and gives `r_squared`. The positional
    encoding is timed on its own as `pe_seconds`; `r_squared_end_to_end` fits
    the sum of both. Graph generation stays untimed. Memory peaks come from a
    short 3-epoch run under tracemalloc. Its steady state is one tape, since
    each epoch frees its tape before the next forward; 3 epochs, not 1, so
    that a tape kept alive across epochs would show in the peak.
    """
    rows = []
    for n in sizes:
        g = random_sparse_graph(n, avg_degree=BENCH_AVG_DEGREE, seed=seed)
        config = TrainConfig(num_clusters=2, epochs=epochs, eval_every=0,
                             seed=seed, k_pe=BENCH_K_PE)
        started = time.perf_counter()
        pe = random_walk_pe(g, BENCH_K_PE)
        pe_seconds = time.perf_counter() - started
        started = time.perf_counter()
        train(g, config, pe=pe)
        seconds = time.perf_counter() - started
        row = {"n": int(n), "seconds": seconds, "pe_seconds": pe_seconds}
        if measure_memory:
            short = replace(config, epochs=3)
            tracemalloc.start()
            train(g, short, pe=pe)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            row["peak_mb"] = peak / 1e6
        rows.append(row)
    ns = np.array([row["n"] for row in rows], dtype=np.float64)
    secs = np.array([row["seconds"] for row in rows])
    pe_secs = np.array([row["pe_seconds"] for row in rows])
    return {"rows": rows, "r_squared": _linear_r_squared(ns, secs),
            "r_squared_end_to_end": _linear_r_squared(ns, secs + pe_secs)}


def _linear_r_squared(xs: np.ndarray, ys: np.ndarray) -> float:
    if len(xs) < 2:
        return 1.0
    slope, intercept = np.polyfit(xs, ys, 1)
    ss_res = float(np.sum((ys - (slope * xs + intercept)) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    return 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0


def cmd_benchmark(args) -> int:
    _keep_freed_heap()
    sizes = _sizes(args.sizes)
    if args.epochs < 0:
        raise ConfigError(f"--epochs must be >= 0, got {args.epochs}")
    seed = _check_seed(args.seed)
    out_path = _output_path(args.output, directory=False)
    result = run_benchmark(sizes, epochs=args.epochs, seed=seed,
                           measure_memory=args.memory)
    with replace_on_success(out_path) as handle:
        header = "n,seconds,pe_seconds" + (",peak_mb" if args.memory else "")
        handle.write(header + "\n")
        for row in result["rows"]:
            line = f"{row['n']},{row['seconds']:.4f},{row['pe_seconds']:.4f}"
            if args.memory:
                line += f",{row['peak_mb']:.2f}"
            handle.write(line + "\n")
        handle.write("# end_to_end_linear_fit_r_squared = "
                     f"{result['r_squared_end_to_end']:.6f}\n")
        handle.write(f"# linear_fit_r_squared = {result['r_squared']:.6f}\n")
    print(f"linear-fit R^2 = {result['r_squared']:.4f}  "
          f"(with PE: {result['r_squared_end_to_end']:.4f})")
    for row in result["rows"]:
        extra = f"  peak {row['peak_mb']:.1f} MB" if args.memory else ""
        print(f"n={row['n']}: {row['seconds']:.2f}s  "
              f"PE {row['pe_seconds']:.2f}s{extra}")
    return EXIT_OK


def cmd_export_similarity(args) -> int:
    out_path = _output_path(args.output, directory=False)
    doc = load_config(args.config)
    g = _load_dataset(doc)
    if g.num_nodes > args.max_nodes:
        raise GuardExceeded(
            f"{g.num_nodes} nodes exceeds the dense-similarity guard "
            f"({args.max_nodes}); pass --max-nodes to override")
    config = _train_config(doc, g)
    params = load_checkpoint(args.checkpoint)
    pe = _positional_encoding(g, config.k_pe, Path(args.checkpoint).parent)
    sim = similarity_matrix(map_features(g, pe, params))
    if g.labels is not None:
        order = np.argsort(g.labels, kind="stable")
    else:
        warnings.warn("no labels available; exporting in node order")
        order = np.arange(g.num_nodes)
    sorted_sim = sim[np.ix_(order, order)]
    asymmetry = float(np.max(np.abs(sim - sim.T)))
    print(f"max |S - S^T| = {asymmetry:.3e}")
    with replace_on_success(out_path) as handle:
        for row in sorted_sim:
            handle.write(",".join(repr(float(x)) for x in row) + "\n")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hencler",
        description="Node clustering on heterophilous graphs via a learned "
                    "asymmetric similarity")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train and write run artifacts")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--repeats", type=int, default=1)
    p_train.add_argument("--output-dir", default=None)
    p_train.set_defaults(func=cmd_train)

    p_oracle = sub.add_parser("oracle",
                              help="exact dual solve on a checkpoint's "
                                   "factored similarity")
    p_oracle.add_argument("--config", required=True)
    p_oracle.add_argument("--checkpoint", required=True)
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.add_argument("--output-dir", default=None)
    p_oracle.set_defaults(func=cmd_oracle)

    p_bench = sub.add_parser("benchmark", help="time fixed-epoch training "
                                               "across graph sizes")
    p_bench.add_argument("--sizes", default="1000,2000,4000,8000")
    p_bench.add_argument("--epochs", type=int, default=30)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--memory", action="store_true")
    p_bench.add_argument("--output", default="benchmark.csv")
    p_bench.set_defaults(func=cmd_benchmark)

    p_export = sub.add_parser("export-similarity",
                              help="materialize S as label-sorted CSV")
    p_export.add_argument("--checkpoint", required=True)
    p_export.add_argument("--config", required=True)
    p_export.add_argument("--max-nodes", type=int, default=DENSE_GUARD_NODES)
    p_export.add_argument("--output", default="similarity.csv")
    p_export.set_defaults(func=cmd_export_similarity)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, GraphFormatError, CheckpointError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GuardExceeded as exc:
        print(f"guard violation: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except Exception as exc:  # runtime/numeric failures
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
