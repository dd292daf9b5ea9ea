"""Exact dual-side machinery: the oracle for the trained model.

The degree-normalized SVD biclustering and the block-eigenvalue residual
accept the learned similarity either as its factors (a `SimilarityFactor`,
S = Phi Psi^T) or as a dense matrix. The factored form is exact and costs
O(n d_f^2): S has rank at most d_f, so a QR of each degree-scaled factor
reduces the SVD to a d_f x d_f core and no n x n array is formed. The dense
form serves inputs that only exist as matrices and is the tests' reference.
Also here: weighted centering, the stationarity residual, and a sampling
check of the conjugate-duality inequality that underpins the construction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import kmeans, thin_svd
from .loss import EPS_DEG
from .model import SimilarityFactor

__all__ = [
    "DualSolution",
    "center_primal",
    "center_dual",
    "bicluster",
    "stationarity_residual",
    "eigen_form_check",
    "fenchel_young_check",
]

_TINY = np.finfo(np.float64).eps


@dataclass(frozen=True)
class DualSolution:
    """SVD factors of the weighted similarity plus the recovered embeddings."""

    left_vectors: np.ndarray  # (n, s), orthonormal columns
    right_vectors: np.ndarray  # (m, s), orthonormal columns
    singular_values: np.ndarray  # (s,), descending
    source_embedding: np.ndarray  # (n, s): rows sigma * left_i / sqrt(w1_i)
    target_embedding: np.ndarray  # (m, s): rows sigma * right_j / sqrt(w2_j)


def center_primal(features, weights) -> np.ndarray:
    """Subtract the weighted mean row from every row."""
    feats = np.asarray(features, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if np.any(w <= 0):
        raise ValueError("centering weights must be strictly positive")
    mean = (w @ feats) / w.sum()
    return feats - mean


def center_dual(similarity, w1, w2) -> np.ndarray:
    """Center a similarity matrix as M1 @ S @ M2.T, matching primal centering."""
    s = np.asarray(similarity, dtype=np.float64)
    w1 = np.asarray(w1, dtype=np.float64)
    w2 = np.asarray(w2, dtype=np.float64)
    n, m = s.shape
    m1 = np.eye(n) - np.outer(np.ones(n), w1) / w1.sum()
    m2 = np.eye(m) - np.outer(np.ones(m), w2) / w2.sum()
    return m1 @ s @ m2.T


def _float64(similarity):
    if isinstance(similarity, SimilarityFactor):
        return SimilarityFactor(
            source=np.asarray(similarity.source, dtype=np.float64),
            target=np.asarray(similarity.target, dtype=np.float64))
    return np.asarray(similarity, dtype=np.float64)


def _degree_weights(s) -> tuple[np.ndarray, np.ndarray]:
    """Row and column masses of S, clamped at EPS_DEG with a warning.

    A factored S gets them from factor column sums in O(n d_f).
    """
    if isinstance(s, SimilarityFactor):
        row_mass = s.source @ s.target.sum(axis=0)
        col_mass = s.target @ s.source.sum(axis=0)
    else:
        row_mass, col_mass = s.sum(axis=1), s.sum(axis=0)
    if np.any(row_mass < EPS_DEG) or np.any(col_mass < EPS_DEG):
        warnings.warn("similarity has near-zero row/column mass; "
                      f"clamping degrees at {EPS_DEG}", stacklevel=4)
    return np.maximum(row_mass, EPS_DEG), np.maximum(col_mass, EPS_DEG)


def _scaled(s, row_scale: np.ndarray, col_scale: np.ndarray):
    """diag(row_scale) S diag(col_scale), in the same form as S."""
    if isinstance(s, SimilarityFactor):
        return SimilarityFactor(source=row_scale[:, None] * s.source,
                                target=col_scale[:, None] * s.target)
    return row_scale[:, None] * s * col_scale[None, :]


def _top_svd(s, rank: int):
    """Top-`rank` singular triple of S; a factored S goes through its core.

    With A = Qa Ra and B = Qb Rb, A B^T = Qa (Ra Rb^T) Qb^T, so the SVD of
    the small core Ra Rb^T gives the exact singular values, and its vectors
    mapped through Qa and Qb the exact singular vectors.
    """
    if not isinstance(s, SimilarityFactor):
        return thin_svd(s, rank)
    q_src, r_src = np.linalg.qr(s.source)
    q_dst, r_dst = np.linalg.qr(s.target)
    left, sing, right = thin_svd(r_src @ r_dst.T, rank)
    return q_src @ left, sing, q_dst @ right


def _normalized(s):
    """D1^{-1/2} S D2^{-1/2} in the form of S, and the degrees d1, d2."""
    d1, d2 = _degree_weights(s)
    return _scaled(s, 1.0 / np.sqrt(d1), 1.0 / np.sqrt(d2)), d1, d2


def normalized_similarity(s: np.ndarray) -> np.ndarray:
    """D1^{-1/2} S D2^{-1/2} with clamped degree masses."""
    return _normalized(np.asarray(s, dtype=np.float64))[0]


def bicluster(similarity, k: int, seed: int = 0, restarts: int = 10,
              drop_leading: bool = False
              ) -> tuple[np.ndarray, np.ndarray, DualSolution]:
    """Spectral biclustering of an asymmetric similarity.

    `similarity` is a `SimilarityFactor` or a dense matrix. SVD of the
    degree-normalized similarity gives the embeddings; kmeans on the
    recovered row/column embeddings yields the two assignments. The leading
    singular pair is kept by default; `drop_leading` discards it (classical
    spectral-clustering convention). A factored similarity supports at most
    d_f singular pairs; asking for more raises ValueError.
    """
    s = _float64(similarity)
    if k < 1:
        raise ValueError("k must be >= 1")
    normalized, d1, d2 = _normalized(s)
    rank = k + 1 if drop_leading else k
    left, sing, right = _top_svd(normalized, rank)
    if drop_leading:
        left, sing, right = left[:, 1:], sing[1:], right[:, 1:]
    # e_i = sigma * h_i / sqrt(w1_i) with w1 = 1/d1, so the factor is sqrt(d1_i)
    src_emb = np.sqrt(d1)[:, None] * left * sing[None, :]
    dst_emb = np.sqrt(d2)[:, None] * right * sing[None, :]
    row_clusters = kmeans(src_emb, k, restarts=restarts, seed=seed)
    col_clusters = kmeans(dst_emb, k, restarts=restarts, seed=seed)
    solution = DualSolution(left_vectors=left, right_vectors=right,
                            singular_values=sing, source_embedding=src_emb,
                            target_embedding=dst_emb)
    return row_clusters, col_clusters, solution


def _relative(residual: np.ndarray, reference: np.ndarray) -> float:
    return float(np.linalg.norm(residual)
                 / max(np.linalg.norm(reference), _TINY))


def _weights(s, w1, w2) -> tuple[np.ndarray, np.ndarray]:
    """The given weights, or the inverse clamped degrees of S when unset."""
    if w1 is None or w2 is None:
        d1, d2 = _degree_weights(s)
        return 1.0 / d1, 1.0 / d2
    return np.asarray(w1, dtype=np.float64), np.asarray(w2, dtype=np.float64)


def stationarity_residual(sf: SimilarityFactor, solution: DualSolution,
                          w1=None, w2=None) -> float:
    """Max relative residual of the four stationarity conditions.

    The two conditions defining the projection matrices are used to
    reconstruct them from the dual vectors (and therefore hold exactly);
    the residuals of the two remaining coupling equations are returned.
    The weights default to the inverse degrees of S = Phi Psi^T.
    """
    sf = _float64(sf)
    phi, psi = sf.source, sf.target
    w1, w2 = _weights(sf, w1, w2)
    h_e, h_r = solution.left_vectors, solution.right_vectors
    sing = solution.singular_values
    if phi.shape[0] != h_e.shape[0] or psi.shape[0] != h_r.shape[0]:
        raise ValueError("factor/solution shape mismatch")

    proj_u = psi.T @ (np.sqrt(w2)[:, None] * h_r)
    proj_v = phi.T @ (np.sqrt(w1)[:, None] * h_e)
    lhs_e = h_e * sing[None, :]
    rhs_e = (np.sqrt(w1)[:, None] * phi) @ proj_u
    lhs_r = h_r * sing[None, :]
    rhs_r = (np.sqrt(w2)[:, None] * psi) @ proj_v
    res_e = _relative(lhs_e - rhs_e, lhs_e)
    res_r = _relative(lhs_r - rhs_r, lhs_r)
    return max(res_e, res_r)


def eigen_form_check(similarity, solution: DualSolution,
                     w1=None, w2=None) -> float:
    """Relative residual of the block eigenvalue system of the weighted SVD.

    `similarity` is a `SimilarityFactor` or a dense matrix; a factored one
    is applied as sqrt(w1) Phi (Psi^T (sqrt(w2) h)) without forming S.
    """
    s = _float64(similarity)
    w1, w2 = _weights(s, w1, w2)
    weighted = _scaled(s, np.sqrt(w1), np.sqrt(w2))
    h_e, h_r = solution.left_vectors, solution.right_vectors
    sing = solution.singular_values
    if isinstance(weighted, SimilarityFactor):
        a, b = weighted.source, weighted.target
        s_h_r, s_t_h_e = a @ (b.T @ h_r), b @ (a.T @ h_e)
    else:
        s_h_r, s_t_h_e = weighted @ h_r, weighted.T @ h_e
    top = _relative(s_h_r - h_e * sing[None, :], h_e * sing[None, :])
    bottom = _relative(s_t_h_e - h_r * sing[None, :], h_r * sing[None, :])
    return max(top, bottom)


def fenchel_young_check(num_samples: int, dims: int, seed: int = 0,
                        slack: float = 1e-12) -> int:
    """Sample the conjugate-duality inequality; returns the violation count.

    For random e, h, w > 0 and diagonal Sigma > 0 checks
        w/2 e' Sigma^-1 e + 1/2 h' Sigma h >= sqrt(w) e' h - slack
    and that equality holds at h = sqrt(w) Sigma^-1 e.
    """
    rng = np.random.default_rng(seed)
    violations = 0
    for _ in range(num_samples):
        dim = int(rng.integers(1, dims + 1))
        e = rng.normal(size=dim)
        h = rng.normal(size=dim)
        w = float(rng.uniform(0.1, 10.0))
        sigma = rng.uniform(0.1, 2.0, size=dim)
        lhs = 0.5 * w * np.sum(e * e / sigma) + 0.5 * np.sum(h * h * sigma)
        rhs = np.sqrt(w) * np.dot(e, h)
        if lhs < rhs - slack:
            violations += 1
        h_star = np.sqrt(w) * e / sigma
        lhs_star = 0.5 * w * np.sum(e * e / sigma) + 0.5 * np.sum(
            h_star * h_star * sigma)
        rhs_star = np.sqrt(w) * np.dot(e, h_star)
        if abs(lhs_star - rhs_star) > slack * max(1.0, abs(lhs_star),
                                                  abs(rhs_star)):
            violations += 1
    return violations
