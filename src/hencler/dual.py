"""Exact dual-side machinery: the oracle for the trained model.

The degree-normalized SVD biclustering and the block-eigenvalue residual
accept the learned similarity either as its factors (a `SimilarityFactor`,
S = Phi Psi^T) or as a dense matrix. The factored form is exact and costs
O(n d_f^2): S has rank at most d_f, so a QR of each degree-scaled factor
reduces the SVD to a d_f x d_f core and no n x n array is formed. The dense
form serves inputs that only exist as matrices and is the tests' reference.
Also here: the stationarity residual, weighted like the eigen-form check by
the inverse degrees of S.
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
    "bicluster",
    "stationarity_residual",
    "eigen_form_check",
]

_TINY = np.finfo(np.float64).eps


@dataclass(frozen=True)
class DualSolution:
    """Top singular triples of the degree-normalized D1^-1/2 S D2^-1/2."""

    left_vectors: np.ndarray  # (n, s), orthonormal columns
    right_vectors: np.ndarray  # (m, s), orthonormal columns
    singular_values: np.ndarray  # (s,), descending


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
                      f"clamping degrees at {EPS_DEG}")
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


def bicluster(similarity, k: int, seed: int = 0
              ) -> tuple[np.ndarray, np.ndarray, DualSolution]:
    """Spectral biclustering of an asymmetric similarity.

    `similarity` is a `SimilarityFactor` of float64 factors or a dense
    float64 matrix. SVD of the degree-normalized similarity gives the
    embeddings; kmeans on the recovered row/column embeddings yields the two
    assignments. The leading singular pair is kept. A factored similarity
    supports at most d_f singular pairs; asking for more raises ValueError.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    normalized, d1, d2 = _normalized(similarity)
    left, sing, right = _top_svd(normalized, k)
    # e_i = sigma * h_i / sqrt(w1_i) with w1 = 1/d1, so the factor is sqrt(d1_i)
    src_emb = np.sqrt(d1)[:, None] * left * sing[None, :]
    dst_emb = np.sqrt(d2)[:, None] * right * sing[None, :]
    row_clusters = kmeans(src_emb, k, seed=seed)
    col_clusters = kmeans(dst_emb, k, seed=seed)
    solution = DualSolution(left_vectors=left, right_vectors=right,
                            singular_values=sing)
    return row_clusters, col_clusters, solution


def _relative(residual: np.ndarray, reference: np.ndarray) -> float:
    return float(np.linalg.norm(residual)
                 / max(np.linalg.norm(reference), _TINY))


def stationarity_residual(sf: SimilarityFactor, solution: DualSolution
                          ) -> float:
    """Max relative residual of the four stationarity conditions.

    The two conditions defining the projection matrices are used to
    reconstruct them from the dual vectors (and therefore hold exactly);
    the residuals of the two remaining coupling equations are returned.
    Those are the two block rows of the system `eigen_form_check` measures,
    with the products associated differently, so the two agree up to
    rounding for any solution: this is not an independent check.
    The factors are float64; the weights are w1 = 1/d1 and w2 = 1/d2, the
    inverse degrees of S = Phi Psi^T.
    """
    phi, psi = sf.source, sf.target
    d1, d2 = _degree_weights(sf)
    w1, w2 = 1.0 / d1, 1.0 / d2
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


def eigen_form_check(similarity, solution: DualSolution) -> float:
    """Relative residual of the block eigenvalue system of the SVD weighted
    by w1 = 1/d1 and w2 = 1/d2, the inverse degrees of S.

    `similarity` is a `SimilarityFactor` of float64 factors or a dense
    float64 matrix; a factored one is applied as
    sqrt(w1) Phi (Psi^T (sqrt(w2) h)) without forming S.
    """
    d1, d2 = _degree_weights(similarity)
    weighted = _scaled(similarity, np.sqrt(1.0 / d1), np.sqrt(1.0 / d2))
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
