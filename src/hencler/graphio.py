"""Attributed-graph ingestion, validation, and random-walk positional encodings.

File formats: TSV throughout, 0-based node indices. The edge file has one
"src<TAB>dst" pair per line, the feature file one tab-separated row of reals
per node, the label file one integer class per line. All three skip blank
lines and lines whose first non-blank character is '#'.

numpy's C reader parses each clean file in one pass: one whose lines are
all empty or rows of values, with no '#' line and no whitespace-only line.
A parser keeps that array only when it is exactly what the line loop would
return. Any other file, a malformed one included, goes through the line
loop, which gives the same results and words each error with its file and
line.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

__all__ = [
    "GraphFormatError",
    "AttributedGraph",
    "load_graph",
    "symmetrize",
    "random_walk_pe",
]


class GraphFormatError(ValueError):
    """Malformed or inconsistent input file; message carries file and line."""


@dataclass(frozen=True)
class AttributedGraph:
    """Node features, optional class labels and a deduplicated edge list.

    The counts are read off the arrays. Whether the graph is undirected is
    a property of its edges: a symmetrized graph stores both orientations
    of every edge.
    """

    edges: np.ndarray  # (E, 2) int64, validated indices
    features: np.ndarray  # (num_nodes, d_x) float64
    labels: np.ndarray | None = None  # (num_nodes,) int64

    @property
    def num_nodes(self) -> int:
        return self.features.shape[0]

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int | None:
        """Number of distinct labels, or None for an unlabeled graph."""
        return None if self.labels is None else np.unique(self.labels).size


def _dedup(edges: np.ndarray, num_nodes: int) -> np.ndarray:
    """Distinct edges in (src, dst) order, sorted as one int64 key each."""
    keys = np.unique(edges[:, 0] * num_nodes + edges[:, 1])
    return np.stack(np.divmod(keys, num_nodes), axis=1)


def _data_lines(path: Path):
    """Yield (line number, text without its newline) for every line of
    `path` that is neither blank nor a '#' comment."""
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if line.strip() and not line.lstrip().startswith("#"):
                yield lineno, line


def _read_table(path: Path, dtype) -> np.ndarray | None:
    """`path` as a 2-D `dtype` array from numpy's one-pass reader, or None
    when that reader cannot take the file (a '#' line, a whitespace-only
    line or a malformed value) or finds no rows. Opened as `_data_lines`
    opens it, so a missing or undecodable file fails alike. Any warning,
    such as numpy's one for an empty file, counts as failure and is not
    shown."""
    with open(path, encoding="utf-8") as handle, warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            table = np.loadtxt(handle, delimiter="\t", dtype=dtype, ndmin=2,
                               comments=None)
        except (ValueError, OverflowError, Warning):
            return None
    return table if table.size else None


def _parse_features(path: Path) -> np.ndarray:
    table = _read_table(path, np.float64)
    if table is not None and np.isfinite(table).all():
        return table
    rows: list[list[float]] = []
    width = None
    for lineno, line in _data_lines(path):
        try:
            values = [float(p) for p in line.split("\t")]
        except ValueError as exc:
            raise GraphFormatError(
                f"{path}:{lineno}: malformed feature value ({exc})") from exc
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise GraphFormatError(
                f"{path}:{lineno}: expected {width} columns, got {len(values)}")
        if not all(np.isfinite(values)):
            raise GraphFormatError(f"{path}:{lineno}: non-finite feature value")
        rows.append(values)
    if not rows:
        raise GraphFormatError(f"{path}: no feature rows found")
    return np.asarray(rows, dtype=np.float64)


def _parse_edges(path: Path, num_nodes: int) -> np.ndarray:
    table = _read_table(path, np.int64)
    if (table is not None and table.shape[1] == 2
            and table.min() >= 0 and table.max() < num_nodes):
        return table
    pairs: list[tuple[int, int]] = []
    for lineno, line in _data_lines(path):
        parts = line.split("\t")
        if len(parts) != 2:
            raise GraphFormatError(
                f"{path}:{lineno}: expected 'src<TAB>dst', got {line!r}")
        try:
            src, dst = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphFormatError(
                f"{path}:{lineno}: malformed node index ({exc})") from exc
        if not (0 <= src < num_nodes and 0 <= dst < num_nodes):
            raise GraphFormatError(
                f"{path}:{lineno}: node index out of range [0, {num_nodes}) "
                f"in edge {src}->{dst}")
        pairs.append((src, dst))
    if not pairs:
        raise GraphFormatError(f"{path}: no edges found")
    return np.asarray(pairs, dtype=np.int64).reshape(-1, 2)


def _parse_labels(path: Path, num_nodes: int) -> np.ndarray:
    table = _read_table(path, np.int64)
    if (table is not None and table.shape == (num_nodes, 1)
            and table.min() >= 0):
        return table.ravel()
    labels: list[int] = []
    for lineno, line in _data_lines(path):
        try:
            value = int(line.strip())
        except ValueError as exc:
            raise GraphFormatError(
                f"{path}:{lineno}: malformed class index ({exc})") from exc
        if value < 0:
            raise GraphFormatError(f"{path}:{lineno}: negative class index")
        labels.append(value)
    if len(labels) != num_nodes:
        raise GraphFormatError(
            f"{path}: {len(labels)} labels for {num_nodes} nodes")
    return np.asarray(labels, dtype=np.int64)


def load_graph(edge_path, feature_path, label_path=None,
               directed: bool = True) -> AttributedGraph:
    """Load and validate an attributed graph from TSV files.

    Duplicate edges are collapsed. With `directed` false the graph is
    symmetrized (both orientations stored) in the same deduplication.
    """
    features = _parse_features(Path(feature_path))
    num_nodes = features.shape[0]
    edges = _parse_edges(Path(edge_path), num_nodes)
    if not directed:
        edges = np.concatenate([edges, edges[:, ::-1]], axis=0)
    labels = (None if label_path is None
              else _parse_labels(Path(label_path), num_nodes))
    return AttributedGraph(_dedup(edges, num_nodes), features, labels)


@contextmanager
def replace_on_success(path, mode: str = "w"):
    """Yield a handle on `.<name>.<pid>.tmp` beside `path`, opened in `mode`
    ("w": UTF-8 text, or "wb"), and `os.replace` it onto `path` when the
    block ends, so a failed write leaves the old file and no temporary."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # gone after a successful replace


def symmetrize(g: AttributedGraph) -> AttributedGraph:
    """Store both orientations of every edge; idempotent."""
    if g.num_edges:
        edges = _dedup(np.concatenate([g.edges, g.edges[:, ::-1]], axis=0),
                       g.num_nodes)
    else:
        edges = g.edges
    return AttributedGraph(edges, g.features, g.labels)


def _walk_operators(g: AttributedGraph) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Right and left walk operators R, L with diag(P^t)_i = <L^a e_i, R^b e_i>.

    P = D^-1 A is the transition matrix (rows of zero out-degree stay zero).
    For a symmetric adjacency, M = D^-1/2 A D^-1/2 = D^1/2 P D^-1/2 is
    similar to P, so diag(M^t) = diag(P^t), and M is symmetric: R = L = M,
    returned as one object. Otherwise R = P and L = P^T.
    """
    data = np.ones(g.num_edges, dtype=np.float64)
    adj = sp.csr_matrix((data, (g.edges[:, 0], g.edges[:, 1])),
                        shape=(g.num_nodes, g.num_nodes))
    out_deg = np.asarray(adj.sum(axis=1)).ravel()
    inv = np.zeros_like(out_deg)
    nz = out_deg > 0
    inv[nz] = 1.0 / out_deg[nz]  # zero out-degree rows stay all-zero
    if (adj != adj.T).nnz == 0:
        half = sp.diags(np.sqrt(inv))
        sym = (half @ adj @ half).tocsr()
        return sym, sym
    transition = (sp.diags(inv) @ adj).tocsr()
    return transition, transition.T.tocsr()


# Below this many nodes a block's sparse products are too short to pay for
# starting threads and handing the GIL between them. On 2 cores (OpenBLAS),
# two threads took 1.01x the one-thread time at 300 nodes, 0.99x at 600,
# 0.81x at 1000 and 0.51x at 3000.
PE_THREADS_MIN_NODES = 1000
# Identity columns per block of the walk. Another width gives other last
# bits, likely because the column dot's summation order follows the width:
# against 32, the bits differed on 7 of 200 random graphs of 5-79 nodes at
# width 512 and on 198 at width 1. Changing it needs a cli.PE_FORMAT bump.
PE_BLOCK_SIZE = 32


def _num_workers(num_nodes: int, num_blocks: int) -> int:
    """Threads for `num_blocks` independent blocks of a `num_nodes`-node
    walk: one per usable core, or one for a small graph."""
    if num_nodes < PE_THREADS_MIN_NODES:
        return 1
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cores = os.cpu_count() or 1
    return max(1, min(cores, num_blocks))


def random_walk_pe(g: AttributedGraph, num_steps: int) -> np.ndarray:
    """Diagonal entries of transition-matrix powers 1..num_steps per node:
    an (n, num_steps) float64 array of return probabilities in [0, 1].

    Uses the two-sided identity diag(P^t)_i = <(P^T)^a e_i, P^b e_i> with
    a = t // 2 and b = t - a: per column block of the identity, the right
    vectors advance on odd t, the left vectors on even t, and one column dot
    gives each step's diagonal. A symmetric adjacency walks through the
    symmetric D^-1/2 A D^-1/2 instead, where left and right vectors coincide,
    so a block costs ceil(num_steps / 2) sparse products instead of
    num_steps. The result is exact but for rounding, which can lift a return
    probability of 1 (even steps from a node whose neighbours are all
    leaves) just above 1, so it is clipped at 1. The total work is
    O(n * nnz * num_steps) and stays quadratic in n. Narrow blocks keep each
    product in cache, and no dense n x n matrix is ever formed.

    From PE_THREADS_MIN_NODES nodes on, the blocks run on one thread per
    usable core (scipy's sparse product releases the GIL). Each block writes
    only its own rows of the result, so the bits do not depend on the number
    of threads.
    """
    if num_steps < 1:
        raise ValueError("num_steps must be >= 1")
    n = g.num_nodes
    block_size = PE_BLOCK_SIZE
    right, left = _walk_operators(g)
    values = np.zeros((n, num_steps), dtype=np.float64)

    # Calls no public hencler function: perfbench's tracer wraps those and
    # keeps one span stack, which calls from worker threads would interleave.
    def fill(start: int) -> None:
        stop = min(start + block_size, n)
        x = np.zeros((n, stop - start), dtype=np.float64)
        x[np.arange(start, stop), np.arange(stop - start)] = 1.0
        y = x
        for step in range(num_steps):  # walk length t = step + 1
            if step % 2 == 0:
                x = right @ x
            else:
                y = x if left is right else left @ y
            values[start:stop, step] = np.einsum("ij,ij->j", y, x)

    starts = range(0, n, block_size)
    workers = _num_workers(n, len(starts))
    if workers == 1:
        for start in starts:
            fill(start)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, starts))  # re-raises a worker's exception
    return np.minimum(values, 1.0, out=values)
