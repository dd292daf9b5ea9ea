"""Attributed-graph ingestion, validation, and random-walk positional encodings.

File formats: TSV throughout. Edge file has one "src<TAB>dst" pair per line
(0-based indices, '#' comments ignored), the feature file one row of reals
per node, the label file one integer class per line.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

__all__ = [
    "GraphFormatError",
    "AttributedGraph",
    "PositionalEncoding",
    "load_graph",
    "symmetrize",
    "edge_homophily",
    "random_walk_pe",
]


class GraphFormatError(ValueError):
    """Malformed or inconsistent input file; message carries file and line."""


@dataclass(frozen=True)
class AttributedGraph:
    """Node features plus a deduplicated directed edge list.

    For undirected graphs both orientations of every edge are stored.
    """

    num_nodes: int
    directed: bool
    edges: np.ndarray  # (E, 2) int64, validated indices
    features: np.ndarray  # (num_nodes, d_x) float64
    labels: np.ndarray | None = None  # (num_nodes,) int64
    num_classes: int | None = None

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class PositionalEncoding:
    """Per-node return probabilities of random walks of length 1..num_steps."""

    values: np.ndarray  # (num_nodes, num_steps), entries in [0, 1]
    num_steps: int


def _dedup(edges: np.ndarray) -> np.ndarray:
    if edges.shape[0] == 0:
        return edges.reshape(0, 2)
    return np.unique(edges, axis=0)


def _parse_features(path: Path) -> np.ndarray:
    rows: list[list[float]] = []
    width = None
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split("\t")
            try:
                values = [float(p) for p in parts]
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
    pairs: list[tuple[int, int]] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
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
    labels: list[int] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                value = int(line)
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

    Undirected inputs are symmetrized (both orientations stored) and
    duplicate edges are collapsed.
    """
    features = _parse_features(Path(feature_path))
    num_nodes = features.shape[0]
    edges = _parse_edges(Path(edge_path), num_nodes)
    if not directed:
        edges = np.concatenate([edges, edges[:, ::-1]], axis=0)
    edges = _dedup(edges)
    labels = None
    num_classes = None
    if label_path is not None:
        labels = _parse_labels(Path(label_path), num_nodes)
        num_classes = int(labels.max()) + 1
    return AttributedGraph(num_nodes=num_nodes, directed=directed, edges=edges,
                           features=features, labels=labels,
                           num_classes=num_classes)


def symmetrize(g: AttributedGraph) -> AttributedGraph:
    """Store both orientations of every edge; idempotent."""
    if g.num_edges:
        edges = _dedup(np.concatenate([g.edges, g.edges[:, ::-1]], axis=0))
    else:
        edges = g.edges
    return AttributedGraph(num_nodes=g.num_nodes, directed=False, edges=edges,
                           features=g.features, labels=g.labels,
                           num_classes=g.num_classes)


def edge_homophily(g: AttributedGraph) -> float:
    """Fraction of edges whose endpoints share a label."""
    if g.labels is None:
        raise ValueError("edge_homophily requires node labels")
    if g.num_edges == 0:
        raise ValueError("edge_homophily undefined on an empty edge set")
    same = g.labels[g.edges[:, 0]] == g.labels[g.edges[:, 1]]
    return float(np.mean(same))


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


def random_walk_pe(g: AttributedGraph, num_steps: int,
                   block_size: int = 32) -> PositionalEncoding:
    """Diagonal entries of transition-matrix powers 1..num_steps per node.

    Uses the two-sided identity diag(P^t)_i = <(P^T)^a e_i, P^b e_i> with
    a = t // 2 and b = t - a: per column block of the identity, the right
    vectors advance on odd t, the left vectors on even t, and one column dot
    gives each step's diagonal. A symmetric adjacency walks through the
    symmetric D^-1/2 A D^-1/2 instead, where left and right vectors coincide,
    so a block costs ceil(num_steps / 2) sparse products instead of
    num_steps. The result is exact; the total work is O(n * nnz * num_steps)
    and stays quadratic in n. Narrow blocks keep each product in cache, and
    no dense n x n matrix is ever formed.

    From PE_THREADS_MIN_NODES nodes on, the blocks run on one thread per
    usable core (scipy's sparse product releases the GIL). Each block writes
    only its own rows of the result, so the bits do not depend on the number
    of threads.
    """
    if num_steps < 1:
        raise ValueError("num_steps must be >= 1")
    n = g.num_nodes
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
    return PositionalEncoding(values=values, num_steps=num_steps)
