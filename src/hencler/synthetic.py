"""Synthetic graph generators for smoke runs and benchmarks, and a writer
that puts a graph into the TSV files the loader reads."""

from __future__ import annotations

import numpy as np

from .graphio import AttributedGraph, replace_on_success, symmetrize

__all__ = [
    "heterophilous_blobs",
    "random_sparse_graph",
    "write_graph_tsv",
]


def heterophilous_blobs(num_nodes: int = 300, num_classes: int = 3,
                        avg_degree: float = 10.0, feature_dim: int = 16,
                        class_sep: float = 1.6, seed: int = 0
                        ) -> AttributedGraph:
    """Planted-partition graph whose edges run only BETWEEN classes.

    Classes are unbalanced (sizes proportional to num_classes..1) and each
    class draws a different number of cross-class links, so both the walk
    structure and the degree profile carry cluster signal while the edge
    homophily is exactly zero. Features are class-conditional Gaussians
    (unit noise around means `class_sep` from the origin), keeping
    feature-only clustering partially informative.
    """
    rng = np.random.default_rng(seed)
    weights = np.arange(num_classes, 0, -1, dtype=np.float64)
    sizes = np.floor(num_nodes * weights / weights.sum()).astype(int)
    sizes[0] += num_nodes - sizes.sum()
    labels = np.repeat(np.arange(num_classes), sizes)
    means = rng.normal(size=(num_classes, feature_dim))
    means *= class_sep / np.linalg.norm(means, axis=1, keepdims=True)
    features = means[labels] + rng.normal(size=(num_nodes, feature_dim))
    # kmeans geometry is scale-free; 0.1 puts the attribute channel on the
    # same footing as the walk-encoding channel concatenated to it
    features *= 0.1

    # per-class link budget: smallest class links the most, spreading the
    # average degree while keeping every edge strictly between classes
    base = avg_degree / 2.0  # symmetrization doubles the stored count
    per_class = np.round(base * (0.6 + 0.8 * np.arange(num_classes)
                                 / max(num_classes - 1, 1))).astype(int)
    per_class = np.maximum(per_class, 1)
    srcs, dsts = [], []
    for node in range(num_nodes):
        others = np.flatnonzero(labels != labels[node])
        picks = rng.choice(others,
                           size=min(per_class[labels[node]], others.size),
                           replace=False)
        srcs.extend([node] * picks.size)
        dsts.extend(picks.tolist())
    edges = np.stack([np.asarray(srcs, dtype=np.int64),
                      np.asarray(dsts, dtype=np.int64)], axis=1)
    return symmetrize(AttributedGraph(edges, features, labels))


def random_sparse_graph(num_nodes: int, avg_degree: float = 8.0,
                        feature_dim: int = 32, seed: int = 0) -> AttributedGraph:
    """Unlabeled sparse directed graph with Gaussian features (benchmark fuel)."""
    rng = np.random.default_rng(seed)
    num_edges = int(num_nodes * avg_degree)
    src = rng.integers(0, num_nodes, size=num_edges)
    dst = rng.integers(0, num_nodes, size=num_edges)
    keep = src != dst
    edges = np.unique(np.stack([src[keep], dst[keep]], axis=1), axis=0)
    features = rng.normal(size=(num_nodes, feature_dim))
    return AttributedGraph(edges, features)


def write_graph_tsv(g: AttributedGraph, edge_path, feature_path,
                    label_path=None) -> None:
    """Dump a graph in the TSV formats the loader reads back."""
    with replace_on_success(edge_path) as handle:
        for src, dst in g.edges:
            handle.write(f"{src}\t{dst}\n")
    with replace_on_success(feature_path) as handle:
        for row in g.features:
            handle.write("\t".join(repr(float(x)) for x in row) + "\n")
    if label_path is not None and g.labels is not None:
        with replace_on_success(label_path) as handle:
            for label in g.labels:
                handle.write(f"{label}\n")
