"""Dense matrix kernels: thin SVD, seeded kmeans++, and small utilities.

Everything here runs in float64; the training path may downcast, the
oracle path must not. kmeans runs all its restarts as one batched Lloyd
iteration, and each restart gets the labels it would get on its own.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SvdConvergenceError", "thin_svd", "kmeans", "frobenius_relerr"]

_EPS = np.finfo(np.float64).eps


class SvdConvergenceError(ArithmeticError):
    """The SVD iteration hit its cap without converging."""


def thin_svd(matrix, rank: int):
    """Top-`rank` singular triple of a dense real matrix.

    Returns (left, singulars, right) with orthonormal columns and singular
    values sorted descending; matrix ~ left @ diag(singulars) @ right.T on
    the retained subspace.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("thin_svd: input contains non-finite values")
    if not 1 <= rank <= min(m.shape):
        raise ValueError(f"rank {rank} out of range for shape {m.shape}")
    try:
        left, sing, right_t = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise SvdConvergenceError(f"SVD failed to converge: {exc}") from exc
    return left[:, :rank], sing[:rank], right_t[:rank].T


def _pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """kmeans++ seeding; degenerate all-zero distances fall back to the
    lowest unchosen index so the result stays deterministic."""
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]), dtype=np.float64)
    chosen = np.zeros(n, dtype=bool)
    first = int(rng.integers(n))
    centers[0] = points[first]
    chosen[first] = True
    dist_sq = np.sum((points - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = dist_sq.sum()
        if total <= 0.0:
            idx = int(np.argmin(chosen))  # first unchosen index
        elif not np.isfinite(total):
            raise ValueError("kmeans: non-finite distances between points")
        else:
            # rng.choice(n, p=dist_sq / total) without its checks of p: the
            # same cdf, the same one draw, the same index.
            cdf = np.cumsum(dist_sq / total)
            cdf /= cdf[-1]
            idx = int(cdf.searchsorted(rng.random(), side="right"))
        centers[j] = points[idx]
        chosen[idx] = True
        dist_sq = np.minimum(dist_sq, np.sum((points - centers[j]) ** 2, axis=1))
    return centers


def _lloyd(points: np.ndarray, centers: np.ndarray, max_iter: int = 300
           ) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Lloyd iterations of R restarts at once, from centers of shape
    (R, k, d); returns (labels (R, n), wcss (R,), history).

    `history` holds one (R,) array of objective values per iteration. A
    restart drops out when its labels repeat and keeps its last values.
    Per restart, empty clusters are re-seeded to the point farthest from its
    assigned center, and the objective is non-increasing by construction.

    Every restart gets the bits it would get on its own. The stacked matmul
    runs one (n, d) @ (d, k) BLAS product per restart, as a lone restart
    would; one (n, d) @ (d, R * k) product would round some columns
    differently. Centers are per-coordinate bincount sums over the members
    in index order divided by the member count, which is
    `members.mean(axis=0)` bit for bit when d > 1 (numpy sums a single
    column pairwise instead).
    """
    n, dim = points.shape
    restarts, k, _ = centers.shape
    norms = np.sum(points * points, axis=1)
    twice = 2.0 * points
    # Row c holds coordinate c of every point once per restart, so the
    # weights of any A restarts are the contiguous prefix [:, :A * n].
    coords = np.tile(points.T, (1, restarts))

    def nearest(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Index and value of the smallest of the k rows of d (..., k, n),
        ties to the lowest index: `argmin` and `min` over axis -2, which
        numpy runs row by row on a non-last axis."""
        low = d[..., 0, :].copy()
        idx = np.zeros(low.shape, dtype=np.intp)
        for j in range(1, k):
            row = d[..., j, :]
            idx[row < low] = j
            np.minimum(low, row, out=low)
        return idx, low

    def sq_dists(c: np.ndarray) -> np.ndarray:
        """Squared distances (A, k, n) to the centers (A, k, d)."""
        d = norms + np.sum(c * c, axis=2)[:, :, None]
        d -= np.matmul(twice, c.transpose(0, 2, 1)).transpose(0, 2, 1)
        return np.maximum(d, 0.0, out=d)

    centers = centers.copy()  # rows follow `active`
    labels = np.zeros((restarts, n), dtype=np.intp)
    wcss = np.full(restarts, np.inf)
    history: list[np.ndarray] = []
    active = np.arange(restarts)
    rows = np.arange(n)
    for step in range(max_iter):
        d = sq_dists(centers)
        new_labels, low = nearest(d)
        bins = (np.arange(active.size)[:, None] * k + new_labels).ravel()
        counts = np.bincount(bins, minlength=active.size * k).reshape(-1, k)
        # Re-seed empty clusters to the farthest point, one at a time.
        for a in np.flatnonzero((counts == 0).any(axis=1)):
            for empty in np.flatnonzero(counts[a] == 0):
                far = int(np.argmax(d[a, new_labels[a], rows]))
                centers[a, empty] = points[far]
                d[a] = sq_dists(centers[a:a + 1])[0]
                new_labels[a], low[a] = nearest(d[a])
        current = low.sum(axis=1)
        if step and np.any(current > wcss[active] + 1e-9 * np.maximum(
                1.0, wcss[active])):
            raise AssertionError("kmeans objective increased across iterations")
        wcss[active] = current
        history.append(wcss.copy())
        moved = (np.any(labels[active] != new_labels, axis=1) if step
                 else np.ones(active.size, dtype=bool))
        labels[active] = new_labels
        active, new_labels = active[moved], new_labels[moved]
        centers = centers[moved]
        if not active.size:
            break
        bins = (np.arange(active.size)[:, None] * k + new_labels).ravel()
        counts = np.bincount(bins, minlength=active.size * k)
        sums = np.empty((counts.size, dim))
        for c, coord in enumerate(coords):
            sums[:, c] = np.bincount(bins, weights=coord[:bins.size],
                                     minlength=counts.size)
        filled = counts > 0
        flat = centers.reshape(-1, dim)
        flat[filled] = sums[filled] / counts[filled][:, None]
    return labels, wcss, history


def kmeans(points, k: int, restarts: int = 10, seed: int = 0) -> np.ndarray:
    """Best-of-`restarts` kmeans++ assignment, deterministic given seed.

    All kmeans++ starts are drawn first, in restart order, then one batched
    Lloyd run iterates them together; the first restart with the smallest
    final wcss wins. Each restart's labels are the bits it would get alone.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError(f"kmeans expects a non-empty 2-D array, got {pts.shape}")
    if not 1 <= k <= pts.shape[0]:
        raise ValueError(f"k={k} out of range for {pts.shape[0]} points")
    rng = np.random.default_rng(seed)
    starts = np.stack([_pp_init(pts, k, rng) for _ in range(max(restarts, 1))])
    labels, wcss, _ = _lloyd(pts, starts)
    return labels[int(np.argmin(wcss))]


def frobenius_relerr(a, b) -> float:
    """||a - b||_F / max(||b||_F, machine epsilon)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), _EPS))
