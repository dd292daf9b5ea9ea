"""Cluster assignment and the two clustering metrics."""

from __future__ import annotations

import numpy as np

from .linalg import kmeans
from .model import EmbeddingPair

__all__ = ["assign_clusters", "nmi", "pairwise_f1"]


def assign_clusters(emb: EmbeddingPair, k: int, seed: int = 0) -> np.ndarray:
    """kmeans over the row-wise concatenation of both embeddings."""
    points = np.hstack([emb.source, emb.target])
    return kmeans(points, k, seed=seed)


def _contingency(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    _, pi = np.unique(pred, return_inverse=True)
    _, ti = np.unique(truth, return_inverse=True)
    table = np.zeros((pi.max() + 1, ti.max() + 1), dtype=np.int64)
    np.add.at(table, (pi, ti), 1)
    return table


def _as_labels(pred, truth) -> tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise ValueError(f"label length mismatch: {pred.shape} vs {truth.shape}")
    return pred, truth


def _identical_partitions(table: np.ndarray) -> bool:
    return (np.all((table > 0).sum(axis=0) == 1)
            and np.all((table > 0).sum(axis=1) == 1))


def nmi(pred, truth) -> float:
    """Mutual information normalized by the mean of the two entropies.

    1.0 when the partitions are identical up to relabeling (including the
    single-cluster-vs-single-class case), 0.0 when either partition is
    trivial and they differ.
    """
    pred, truth = _as_labels(pred, truth)
    if pred.size == 0:
        raise ValueError("nmi requires at least one node")
    table = _contingency(pred, truth)
    if _identical_partitions(table):
        return 1.0
    n = pred.size
    joint = table / n
    p_pred = joint.sum(axis=1)
    p_truth = joint.sum(axis=0)
    h_pred = -np.sum(p_pred[p_pred > 0] * np.log(p_pred[p_pred > 0]))
    h_truth = -np.sum(p_truth[p_truth > 0] * np.log(p_truth[p_truth > 0]))
    if h_pred == 0.0 or h_truth == 0.0:
        return 0.0
    nz = joint > 0
    info = np.sum(joint[nz] * np.log(joint[nz]
                                     / np.outer(p_pred, p_truth)[nz]))
    return float(np.clip(info / (0.5 * (h_pred + h_truth)), 0.0, 1.0))


def pairwise_f1(pred, truth) -> float:
    """F1 over unordered node pairs: co-clustered vs co-class membership."""
    pred, truth = _as_labels(pred, truth)
    if pred.size < 2:
        raise ValueError("pairwise_f1 requires at least two nodes")
    table = _contingency(pred, truth)

    def pairs(counts):
        return float(np.sum(counts * (counts - 1) / 2.0))

    true_pos = pairs(table.astype(np.float64))
    pred_pairs = pairs(table.sum(axis=1).astype(np.float64))
    truth_pairs = pairs(table.sum(axis=0).astype(np.float64))
    if pred_pairs == 0.0 and truth_pairs == 0.0:
        return 1.0  # both partitions all-singleton, hence identical
    if pred_pairs == 0.0 or truth_pairs == 0.0:
        return 0.0
    precision = true_pos / pred_pairs
    recall = true_pos / truth_pairs
    if precision + recall == 0.0:
        return 0.0
    return float(2.0 * precision * recall / (precision + recall))
