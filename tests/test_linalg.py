import numpy as np
import pytest

from hencler.linalg import SvdConvergenceError, kmeans, thin_svd
from hencler.linalg import _lloyd, _pp_init
from hencler.evaluate import nmi
from reference import frobenius_relerr


def sq_dists_reference(points, centers):
    d = (np.sum(points * points, axis=1)[:, None]
         + np.sum(centers * centers, axis=1)[None, :]
         - 2.0 * points @ centers.T)
    np.maximum(d, 0.0, out=d)
    return d


def lloyd_reference(points, centers, max_iter=300):
    """Lloyd iterations of one restart, as `linalg` ran them before it
    batched the restarts; returns (labels, wcss, history)."""
    k = centers.shape[0]
    centers = centers.copy()
    history = []
    labels = None
    for _ in range(max_iter):
        d = sq_dists_reference(points, centers)
        new_labels = np.argmin(d, axis=1)
        counts = np.bincount(new_labels, minlength=k)
        for empty in np.flatnonzero(counts == 0):
            own = d[np.arange(points.shape[0]), new_labels]
            far = int(np.argmax(own))
            centers[empty] = points[far]
            d = sq_dists_reference(points, centers)
            new_labels = np.argmin(d, axis=1)
            counts = np.bincount(new_labels, minlength=k)
        wcss = float(d[np.arange(points.shape[0]), new_labels].sum())
        if history and wcss > history[-1] + 1e-9 * max(1.0, history[-1]):
            raise AssertionError("kmeans objective increased across iterations")
        history.append(wcss)
        if labels is not None and np.array_equal(labels, new_labels):
            break
        labels = new_labels
        for j in range(k):
            members = points[labels == j]
            if members.shape[0]:
                centers[j] = members.mean(axis=0)
    return labels, history[-1], history


def kmeans_reference(points, k, restarts=10, seed=0):
    """Best-of-restarts kmeans, one restart after another."""
    rng = np.random.default_rng(seed)
    best_labels, best_wcss = None, np.inf
    for _ in range(max(restarts, 1)):
        labels, wcss, _ = lloyd_reference(points, _pp_init(points, k, rng))
        if wcss < best_wcss:
            best_labels, best_wcss = labels, wcss
    return best_labels


def kmeans_cases():
    """(points, k, restarts, seed): random shapes, k = 1, k = n, and
    duplicated points with more clusters than distinct points, which leaves
    clusters empty and forces the farthest-point re-seed."""
    rng = np.random.default_rng(6)
    for _ in range(40):
        n = int(rng.integers(2, 120))
        d = int(rng.integers(2, 40))
        k = int(rng.integers(1, min(n, 9) + 1))
        points = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0)
        yield points, k, int(rng.integers(1, 12)), int(rng.integers(1000))
    points = rng.normal(size=(30, 4))
    yield points, 1, 5, 0
    yield points, 30, 5, 1
    yield np.round(points), 30, 4, 2  # tied coordinates
    distinct = rng.normal(size=(4, 3))
    yield distinct[rng.integers(0, 4, size=25)], 6, 7, 3
    blobs = np.vstack([distinct[rng.integers(0, 4, size=40)],
                       rng.normal(size=(10, 3))])
    yield blobs, 9, 10, 4
    yield np.zeros((6, 2)), 3, 3, 5  # every point the same
    # Small integer points: squared distances are exact, so points lie at
    # exactly the same distance from two centers, and kmeans++ draws from
    # distributions with zeros.
    yield rng.integers(-2, 3, size=(60, 2)).astype(np.float64), 4, 8, 6
    yield rng.integers(0, 2, size=(40, 3)).astype(np.float64), 5, 6, 7


def jacobi_svd(matrix, sweeps=60, tol=1e-14):
    """One-sided Jacobi SVD: independent of LAPACK, high accuracy on small
    dense matrices. Returns (left, singulars desc, right)."""
    a = np.asarray(matrix, dtype=np.float64)
    transposed = a.shape[0] < a.shape[1]
    work = a.T.copy() if transposed else a.copy()
    cols = work.shape[1]
    right = np.eye(cols)
    for _ in range(sweeps):
        off = 0.0
        for i in range(cols - 1):
            for j in range(i + 1, cols):
                alpha = work[:, i] @ work[:, i]
                beta = work[:, j] @ work[:, j]
                gamma = work[:, i] @ work[:, j]
                scale = np.sqrt(alpha * beta)
                if scale > 0:
                    off = max(off, abs(gamma) / scale)
                if gamma == 0.0 or abs(gamma) <= tol * scale:
                    continue
                zeta = (beta - alpha) / (2.0 * gamma)
                t = np.sign(zeta) / (abs(zeta) + np.sqrt(1.0 + zeta * zeta))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                for mat in (work, right):
                    col_i = mat[:, i].copy()
                    mat[:, i] = c * col_i - s * mat[:, j]
                    mat[:, j] = s * col_i + c * mat[:, j]
        if off < tol:
            break
    sing = np.linalg.norm(work, axis=0)
    order = np.argsort(-sing)
    sing = sing[order]
    work = work[:, order]
    right = right[:, order]
    left = np.zeros_like(work)
    nz = sing > 1e-300
    left[:, nz] = work[:, nz] / sing[nz]
    if transposed:
        return right, sing, left
    return left, sing, right


def test_identity_singulars():
    left, sing, right = thin_svd(np.eye(3), 3)
    np.testing.assert_allclose(sing, [1, 1, 1], atol=1e-14)


def test_diagonal_axis_aligned():
    left, sing, right = thin_svd(np.diag([3.0, 1.0]), 2)
    np.testing.assert_allclose(sing, [3.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(np.abs(left), np.eye(2), atol=1e-12)
    np.testing.assert_allclose(np.abs(right), np.eye(2), atol=1e-12)


def test_matches_independent_jacobi_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = rng.normal(size=(4, 3))
        _, sing, _ = thin_svd(m, 3)
        _, sing_oracle, _ = jacobi_svd(m)
        np.testing.assert_allclose(sing, sing_oracle[:3], rtol=1e-8,
                                   atol=1e-10)


def test_reconstruction_and_orthonormality_random():
    rng = np.random.default_rng(1)
    for _ in range(100):
        rows = int(rng.integers(2, 51))
        cols = int(rng.integers(2, 41))
        m = rng.normal(size=(rows, cols))
        rank = min(rows, cols)
        left, sing, right = thin_svd(m, rank)
        assert np.max(np.abs(left.T @ left - np.eye(rank))) < 1e-8
        assert np.max(np.abs(right.T @ right - np.eye(rank))) < 1e-8
        recon = left @ np.diag(sing) @ right.T
        assert frobenius_relerr(recon, m) < 1e-8
        assert np.all(np.diff(sing) <= 1e-12)  # descending


def test_svd_rejects_bad_input():
    with pytest.raises(ValueError):
        thin_svd(np.array([[np.nan, 1.0]]), 1)
    with pytest.raises(ValueError):
        thin_svd(np.eye(3), 4)
    assert issubclass(SvdConvergenceError, ArithmeticError)


def test_kmeans_separated_blobs():
    rng = np.random.default_rng(2)
    a = rng.normal(scale=0.1, size=(30, 2)) + [10.0, 0.0]
    b = rng.normal(scale=0.1, size=(30, 2)) + [-10.0, 0.0]
    points = np.vstack([a, b])
    truth = np.array([0] * 30 + [1] * 30)
    labels = kmeans(points, 2, restarts=10, seed=0)
    assert nmi(labels, truth) == 1.0


def test_kmeans_k1_and_kn():
    rng = np.random.default_rng(3)
    points = rng.normal(size=(8, 2))
    assert np.all(kmeans(points, 1, seed=0) == 0)
    labels = kmeans(points, 8, restarts=5, seed=0)
    assert len(set(labels.tolist())) == 8  # each distinct point its own cluster


def test_kmeans_objective_non_increasing():
    rng = np.random.default_rng(4)
    points = rng.normal(size=(60, 3))
    init = np.random.default_rng(0)
    starts = np.stack([_pp_init(points, 4, init) for _ in range(6)])
    _, wcss, history = _lloyd(points, starts)
    steps = np.stack(history)  # (iterations, restarts)
    assert steps.shape == (len(history), 6) and len(history) > 2
    assert np.all(steps[1:] <= steps[:-1] + 1e-9)
    np.testing.assert_array_equal(steps[-1], wcss)


def test_kmeans_bit_reproducible():
    rng = np.random.default_rng(5)
    points = rng.normal(size=(40, 3))
    first = kmeans(points, 3, restarts=10, seed=123)
    second = kmeans(points, 3, restarts=10, seed=123)
    np.testing.assert_array_equal(first, second)
    # On structureless points the seed picks the local optimum and the label
    # order, so a seed that is ignored shows up as one labeling for all.
    single = {kmeans(points, 3, restarts=1, seed=s).tobytes()
              for s in range(8)}
    assert len(single) > 1


def test_kmeans_matches_per_restart_reference():
    for points, k, restarts, seed in kmeans_cases():
        np.testing.assert_array_equal(
            kmeans(points, k, restarts=restarts, seed=seed),
            kmeans_reference(points, k, restarts=restarts, seed=seed),
            err_msg=f"shape {points.shape}, k={k}, restarts={restarts}")


def lloyd_cases():
    """(points, starts): the kmeans++ starts of `kmeans_cases`, then starts
    with centers far from every point. kmeans++ never leaves a cluster
    empty on distinct points, but these do, with points still away from
    their centers, so the farthest-point re-seed moves the center."""
    for points, k, restarts, seed in kmeans_cases():
        init = np.random.default_rng(seed)
        yield points, np.stack([_pp_init(points, k, init)
                                for _ in range(restarts)])
    rng = np.random.default_rng(7)
    points = rng.normal(size=(40, 3))
    starts = points[rng.integers(0, 40, size=(4, 5))]
    starts[1, 0] = 50.0  # one empty cluster
    starts[2, [1, 3]] = [[60.0, 0, 0], [0, -60.0, 0]]  # two, re-seeded in turn
    starts[3, 4] = 70.0
    yield points, starts
    # Exact ties: integer points and centers, with the points of the line
    # x = 0 as far from (-1, 0) as from (1, 0), and every grid point as far
    # from (-1, 1) as from (1, 1) or (-1, -1) in some pair.
    grid = np.stack(np.meshgrid(np.arange(-3.0, 4.0), np.arange(-3.0, 4.0)),
                    axis=-1).reshape(-1, 2)
    yield grid, np.array([[[-1.0, 0.0], [1.0, 0.0]],
                          [[1.0, 0.0], [-1.0, 0.0]],
                          [[-1.0, 1.0], [1.0, 1.0]],
                          [[-1.0, -1.0], [1.0, 1.0]]])
    yield grid, np.array([[[-1.0, 1.0], [1.0, 1.0], [-1.0, -1.0],
                           [1.0, -1.0]],
                          [[0.0, 0.0], [0.0, 2.0], [2.0, 0.0], [0.0, -2.0]]])


def test_batched_lloyd_matches_each_restart_alone():
    """Labels, final wcss and every history value of each restart are the
    bits the restart gets on its own, and the batch stops with the last
    restart to converge."""
    for points, starts in lloyd_cases():
        labels, wcss, history = _lloyd(points, starts)
        lengths = []
        for r, start in enumerate(starts):
            want_labels, want_wcss, want_history = lloyd_reference(points,
                                                                   start)
            np.testing.assert_array_equal(labels[r], want_labels)
            assert wcss[r] == want_wcss
            assert [h[r] for h in history[:len(want_history)]] \
                == want_history
            assert all(h[r] == want_wcss
                       for h in history[len(want_history):])
            lengths.append(len(want_history))
        assert len(history) == max(lengths)


def pp_init_reference(points, k, rng):
    """kmeans++ seeding with `rng.choice`, as `_pp_init` drew before it
    inlined the draw."""
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    chosen = np.zeros(n, dtype=bool)
    first = int(rng.integers(n))
    centers[0] = points[first]
    chosen[first] = True
    dist_sq = np.sum((points - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = dist_sq.sum()
        if total <= 0.0:
            idx = int(np.argmin(chosen))
        else:
            idx = int(rng.choice(n, p=dist_sq / total))
        centers[j] = points[idx]
        chosen[idx] = True
        dist_sq = np.minimum(dist_sq, np.sum((points - centers[j]) ** 2,
                                             axis=1))
    return centers


def test_pp_init_draws_as_rng_choice():
    """The inline inverse-CDF draw picks the centers `rng.choice` picks and
    leaves the generator in the same state, over 2000 seedings whose
    distributions hold zeros (duplicated points, chosen centers)."""
    rng = np.random.default_rng(8)
    for trial in range(2000):
        n = int(rng.integers(1, 40))
        dim = int(rng.integers(1, 4))
        if trial % 2:
            points = rng.integers(0, 3, size=(n, dim)).astype(np.float64)
        else:
            points = rng.normal(size=(n, dim)) * rng.uniform(0.01, 100.0)
        k = int(rng.integers(1, n + 1))
        seed = int(rng.integers(1 << 32))
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        np.testing.assert_array_equal(_pp_init(points, k, ours),
                                      pp_init_reference(points, k, theirs))
        assert ours.bit_generator.state == theirs.bit_generator.state


def test_pp_init_rejects_non_finite_distances():
    points = np.array([[0.0, 0.0], [1.0, np.nan], [2.0, 0.0]])
    for seeding in (_pp_init, pp_init_reference):
        with pytest.raises(ValueError):
            seeding(points, 2, np.random.default_rng(0))


def test_kmeans_validates_k():
    points = np.zeros((3, 2))
    with pytest.raises(ValueError):
        kmeans(points, 0)
    with pytest.raises(ValueError):
        kmeans(points, 4)
    with pytest.raises(ValueError):
        kmeans(np.zeros((0, 2)), 1)


def test_frobenius_relerr_cases():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert frobenius_relerr(a, a) == 0.0
    # hand case: ||a - b||_F = 1, ||b||_F = 5
    b = a.copy()
    b[0, 0] = 0.0
    assert frobenius_relerr(a, b) == pytest.approx(
        1.0 / np.linalg.norm(b))
    guarded = frobenius_relerr(a, np.zeros_like(a))
    assert guarded == pytest.approx(np.linalg.norm(a) / np.finfo(float).eps)
    with pytest.raises(ValueError):
        frobenius_relerr(a, np.zeros((3, 3)))
