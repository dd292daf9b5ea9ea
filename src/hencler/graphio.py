"""Attributed-graph ingestion, validation, and random-walk positional encodings.

File formats: TSV throughout. Edge file has one "src<TAB>dst" pair per line
(0-based indices, '#' comments ignored), the feature file one row of reals
per node, the label file one integer class per line.
"""

from __future__ import annotations

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


def _transition_matrix(g: AttributedGraph) -> sp.csr_matrix:
    data = np.ones(g.num_edges, dtype=np.float64)
    adj = sp.csr_matrix((data, (g.edges[:, 0], g.edges[:, 1])),
                        shape=(g.num_nodes, g.num_nodes))
    out_deg = np.asarray(adj.sum(axis=1)).ravel()
    inv = np.zeros_like(out_deg)
    nz = out_deg > 0
    inv[nz] = 1.0 / out_deg[nz]  # zero out-degree rows stay all-zero
    return sp.diags(inv) @ adj


def random_walk_pe(g: AttributedGraph, num_steps: int,
                   block_size: int = 512) -> PositionalEncoding:
    """Diagonal entries of transition-matrix powers 1..num_steps per node.

    Computed in column blocks so no dense n x n matrix is ever formed.
    """
    if num_steps < 1:
        raise ValueError("num_steps must be >= 1")
    n = g.num_nodes
    transition = _transition_matrix(g).tocsr()
    values = np.zeros((n, num_steps), dtype=np.float64)
    for start in range(0, n, block_size):
        stop = min(start + block_size, n)
        block = np.zeros((n, stop - start), dtype=np.float64)
        block[np.arange(start, stop), np.arange(stop - start)] = 1.0
        for step in range(num_steps):
            block = transition @ block
            values[start:stop, step] = block[np.arange(start, stop),
                                             np.arange(stop - start)]
    return PositionalEncoding(values=values, num_steps=num_steps)
