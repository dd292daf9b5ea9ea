"""Exact dual-side machinery: the oracle for the trained model.

The degree-normalized SVD biclustering and the block-eigenvalue residual
take the learned similarity as its factors (a `SimilarityFactor`,
S = Phi Psi^T), which describe it exactly: S has rank at most d_f, so a QR
of each degree-scaled factor reduces the SVD to a d_f x d_f core. Each Q is
applied as its Householder reflectors, never formed, so the two `geqrf`
calls cost O(n d_f^2), mapping the k core vectors back O(n d_f k), and no
n x n array is formed. A dense S enters as `SimilarityFactor(S, I)`.
`bicluster` computes the degrees of S once; its `DualSolution` carries them
to the eigen-form check and the stationarity residual of given U and V.
`oracle_report` builds `oracle.json` in one pass, at the dual's own U and V,
where the stationarity residual is the eigen-form system reassociated.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .evaluate import nmi
from .linalg import kmeans, thin_svd
from .loss import EPS_DEG
from .model import SimilarityFactor

__all__ = [
    "DualSolution",
    "bicluster",
    "dual_projections",
    "stationarity_residual",
    "eigen_form_check",
    "oracle_report",
]

@dataclass(frozen=True)
class DualSolution:
    """Top singular triples of D1^-1/2 S D2^-1/2, and the degrees d1, d2."""

    left_vectors: np.ndarray  # (n, s), orthonormal; Qa applied, never formed
    right_vectors: np.ndarray  # (m, s), orthonormal; Qb applied, never formed
    singular_values: np.ndarray  # (s,), descending
    row_degrees: np.ndarray  # (n,), d1 clamped at EPS_DEG
    col_degrees: np.ndarray  # (m,), d2 clamped at EPS_DEG


def _degree_weights(s: SimilarityFactor) -> tuple[np.ndarray, np.ndarray]:
    """Row and column masses of S, from factor column sums in O(n d_f),
    clamped at EPS_DEG with a warning."""
    row_mass = s.source @ s.target.sum(axis=0)
    col_mass = s.target @ s.source.sum(axis=0)
    if np.any(row_mass < EPS_DEG) or np.any(col_mass < EPS_DEG):
        warnings.warn("similarity has near-zero row/column mass; "
                      f"clamping degrees at {EPS_DEG}")
    return np.maximum(row_mass, EPS_DEG), np.maximum(col_mass, EPS_DEG)


def _scaled(s: SimilarityFactor, row_scale: np.ndarray,
            col_scale: np.ndarray) -> SimilarityFactor:
    """diag(row_scale) S diag(col_scale), as its scaled factors."""
    return SimilarityFactor(source=row_scale[:, None] * s.source,
                            target=col_scale[:, None] * s.target)


def _apply_q(h: np.ndarray, tau: np.ndarray, core: np.ndarray) -> np.ndarray:
    """Q @ core for the Q of `np.linalg.qr(a, mode="raw")`'s (h, tau),
    without forming Q: the reflectors H_{p-1}, ..., H_0 applied in turn to
    `core` padded with zeros to n rows, in O(n p k) for k columns."""
    work = np.zeros((core.shape[1], h.shape[1]))  # (k, n): rows contiguous
    work[:, :core.shape[0]] = core.T
    for j in reversed(range(tau.shape[0])):
        v = h[j, j:].copy()  # H_j = I - tau_j v v^T, v = (1, h[j, j+1:])
        v[0] = 1.0
        work[:, j:] -= (tau[j] * (work[:, j:] @ v))[:, None] * v
    return work.T


def _top_svd(s: SimilarityFactor, rank: int):
    """Top-`rank` singular triple of S, through the core of its factors.

    With A = Qa Ra and B = Qb Rb, A B^T = Qa (Ra Rb^T) Qb^T, so the SVD of
    the small core Ra Rb^T gives the exact singular values, and its vectors
    mapped through Qa and Qb the exact singular vectors. Qa and Qb are
    applied as their Householder reflectors and never formed: the two
    `geqrf` factorizations cost O(n d_f^2), the application O(n d_f rank).
    """
    src, dst = (np.linalg.qr(f, mode="raw") for f in (s.source, s.target))
    # each R: the upper triangle of the first min(n, d_f) rows of h^T
    r_src, r_dst = (np.triu(h.T[:min(h.shape)]) for h, _ in (src, dst))
    left, sing, right = thin_svd(r_src @ r_dst.T, rank)
    return _apply_q(*src, left), sing, _apply_q(*dst, right)


def _normalized(s: SimilarityFactor):
    """D1^{-1/2} S D2^{-1/2} as its factors, and the degrees d1, d2."""
    d1, d2 = _degree_weights(s)
    return _scaled(s, 1.0 / np.sqrt(d1), 1.0 / np.sqrt(d2)), d1, d2


def bicluster(similarity: SimilarityFactor, k: int, seed: int = 0
              ) -> tuple[np.ndarray, np.ndarray, DualSolution]:
    """Spectral biclustering of an asymmetric similarity.

    `similarity` is a `SimilarityFactor` of float64 factors. SVD of the
    degree-normalized similarity gives the embeddings; kmeans on the
    recovered row/column embeddings yields the two assignments. The leading
    singular pair is kept. The factors support at most d_f singular pairs;
    asking for more raises ValueError.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    normalized, d1, d2 = _normalized(similarity)
    left, sing, right = _top_svd(normalized, k)
    # e_i = sigma * h_i / sqrt(w1_i) with w1 = 1/d1, so the factor is sqrt(d1_i)
    src_emb = np.sqrt(d1)[:, None] * left * sing[None, :]
    dst_emb = np.sqrt(d2)[:, None] * right * sing[None, :]
    rows = kmeans(src_emb, k, seed=seed)
    cols = kmeans(dst_emb, k, seed=seed)
    return rows, cols, DualSolution(left, right, sing, d1, d2)


def _residual(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """||lhs - rhs|| / ||lhs||, the relative residual of one block row."""
    return float(np.linalg.norm(lhs - rhs)
                 / max(np.linalg.norm(lhs), np.finfo(np.float64).eps))


def dual_projections(sf: SimilarityFactor, solution: DualSolution
                     ) -> tuple[np.ndarray, np.ndarray]:
    """U = Psi^T sqrt(w2) h_r and V = Phi^T sqrt(w1) h_e, of shape (d_f, s)."""
    w1, w2 = 1.0 / solution.row_degrees, 1.0 / solution.col_degrees
    return (sf.target.T @ (np.sqrt(w2)[:, None] * solution.right_vectors),
            sf.source.T @ (np.sqrt(w1)[:, None] * solution.left_vectors))


def stationarity_residual(sf: SimilarityFactor, solution: DualSolution,
                          proj_u: np.ndarray, proj_v: np.ndarray) -> float:
    """Max relative residual of the coupling stationarity conditions
    h_e Sigma = sqrt(w1) Phi U and h_r Sigma = sqrt(w2) Psi V at the given
    (d_f, s) U and V; the factors are float64, and w1 = 1/d1, w2 = 1/d2.

    At `dual_projections` the two defining conditions hold exactly, and
    these two are the system `eigen_form_check` measures, associated
    differently: there they agree up to rounding, no independent check.
    """
    phi, psi = sf.source, sf.target
    w1, w2 = 1.0 / solution.row_degrees, 1.0 / solution.col_degrees
    h_e, h_r = solution.left_vectors, solution.right_vectors
    sing = solution.singular_values
    if phi.shape[0] != h_e.shape[0] or psi.shape[0] != h_r.shape[0]:
        raise ValueError("factor/solution shape mismatch")
    rhs_e = (np.sqrt(w1)[:, None] * phi) @ proj_u
    rhs_r = (np.sqrt(w2)[:, None] * psi) @ proj_v
    return max(_residual(h_e * sing[None, :], rhs_e),
               _residual(h_r * sing[None, :], rhs_r))


def eigen_form_check(similarity: SimilarityFactor, solution: DualSolution
                     ) -> float:
    """Relative residual of the block eigenvalue system of the SVD weighted
    by w1 = 1/d1 and w2 = 1/d2, the inverse degrees of S `solution` carries.

    `similarity` is a `SimilarityFactor` of float64 factors, applied as
    sqrt(w1) Phi (Psi^T (sqrt(w2) h)) without forming S.
    """
    d1, d2 = solution.row_degrees, solution.col_degrees
    weighted = _scaled(similarity, np.sqrt(1.0 / d1), np.sqrt(1.0 / d2))
    h_e, h_r = solution.left_vectors, solution.right_vectors
    sing = solution.singular_values
    a, b = weighted.source, weighted.target
    s_h_r, s_t_h_e = a @ (b.T @ h_r), b @ (a.T @ h_e)
    return max(_residual(h_e * sing[None, :], s_h_r),
               _residual(h_r * sing[None, :], s_t_h_e))


def oracle_report(sf: SimilarityFactor, k: int, seed: int, labels
                  ) -> tuple[dict, np.ndarray, np.ndarray]:
    """`oracle.json`'s dict and the row and column clusters, from one
    `bicluster` of the factors: both residuals, at the dual's own U and V,
    and with `labels` (None when there are none) the clusters' NMIs."""
    rows, cols, solution = bicluster(sf, k=k, seed=seed)
    proj_u, proj_v = dual_projections(sf, solution)
    report = {"residuals": {
        "stationarity": stationarity_residual(sf, solution, proj_u, proj_v),
        "eigen_form": eigen_form_check(sf, solution)}}
    if labels is not None:
        report.update(row_nmi=nmi(rows, labels), col_nmi=nmi(cols, labels))
    return report, rows, cols
