import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hencler.dual import _normalized, _top_svd, bicluster, dual_projections, \
    eigen_form_check, stationarity_residual
from hencler.evaluate import nmi
from hencler.linalg import kmeans
from hencler.model import SimilarityFactor
from reference import center_dual, center_primal, fenchel_young_check, \
    frobenius_relerr, planted_block_similarity


def positive_factors(n, m, d, seed):
    rng = np.random.default_rng(seed)
    return (rng.uniform(0.1, 1.1, size=(n, d)),
            rng.uniform(0.1, 1.1, size=(m, d)))


def input_forms(phi, psi):
    """The similarity phi @ psi.T as a dense matrix and as its factors."""
    return {"dense": phi @ psi.T,
            "factored": SimilarityFactor(source=phi, target=psi)}


def principal_cosines(a, b):
    return np.linalg.svd(a.T @ b, compute_uv=False)


def test_center_primal_plain_mean():
    out = center_primal(np.array([[1.0], [3.0]]), np.ones(2))
    np.testing.assert_allclose(out, [[-1.0], [1.0]])


def test_center_primal_weighted_hand_case():
    out = center_primal(np.array([[0.0], [4.0]]), np.array([3.0, 1.0]))
    np.testing.assert_allclose(out, [[-1.0], [3.0]])


def test_center_primal_weighted_mean_vanishes(rng):
    feats = rng.normal(size=(12, 5))
    weights = rng.uniform(0.2, 3.0, size=12)
    centered = center_primal(feats, weights)
    residual = weights @ centered / weights.sum()
    np.testing.assert_allclose(residual, np.zeros(5), atol=1e-12)
    with pytest.raises(ValueError):
        center_primal(feats, np.zeros(12))


def test_center_dual_constant_matrix_and_single_point():
    out = center_dual(np.ones((3, 4)), np.ones(3), np.ones(4))
    np.testing.assert_allclose(out, np.zeros((3, 4)), atol=1e-14)
    out1 = center_dual(np.array([[7.0]]), np.ones(1), np.ones(1))
    np.testing.assert_allclose(out1, [[0.0]], atol=1e-14)


def test_centering_primal_dual_equivalence():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        phi, psi = positive_factors(6, 5, 3, seed)
        w1 = rng.uniform(0.2, 2.0, size=6)
        w2 = rng.uniform(0.2, 2.0, size=5)
        via_primal = center_primal(phi, w1) @ center_primal(psi, w2).T
        via_dual = center_dual(phi @ psi.T, w1, w2)
        assert frobenius_relerr(via_dual, via_primal) < 1e-10


def test_bicluster_planted_blocks():
    sim, labels = planted_block_similarity([10, 12, 8], noise=0.01, seed=0)
    rows, cols, _ = bicluster(sim, k=3, seed=0)
    assert nmi(rows, labels) == 1.0
    assert nmi(cols, labels) == 1.0


def test_bicluster_identity_gives_singletons():
    n = 6
    rows, cols, _ = bicluster(np.eye(n), k=n, seed=0)
    assert len(set(rows.tolist())) == n
    assert len(set(cols.tolist())) == n


def test_bicluster_noise_robust_and_permutation_invariant():
    sim, labels = planted_block_similarity([8, 8, 8], noise=0.01, seed=1)
    rows_a, cols_a, _ = bicluster(sim, k=3, seed=0)
    rng = np.random.default_rng(2)
    perm = rng.permutation(sim.shape[0])
    rows_p, cols_p, _ = bicluster(sim[np.ix_(perm, perm)], k=3, seed=0)
    assert nmi(rows_p, labels[perm]) == 1.0
    assert nmi(cols_p, labels[perm]) == 1.0
    assert nmi(rows_a, labels) == 1.0


def test_normalized_weighting_consistency():
    phi, psi = positive_factors(7, 6, 4, 4)
    sim = phi @ psi.T
    w1 = 1.0 / sim.sum(axis=1)
    w2 = 1.0 / sim.sum(axis=0)
    direct = np.sqrt(w1)[:, None] * sim * np.sqrt(w2)[None, :]
    assert frobenius_relerr(_normalized(sim)[0], direct) < 1e-12


def test_normalized_singulars_at_most_one_for_nonneg():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        sim = rng.uniform(0.0, 1.0, size=(9, 7))
        _, _, solution = bicluster(sim, k=5, seed=0)
        assert solution.singular_values.max() <= 1.0 + 1e-10


def at_dual_projections(sf, solution):
    """The stationarity residual at the U and V built from the dual."""
    return stationarity_residual(sf, solution,
                                 *dual_projections(sf, solution))


def test_stationarity_exact_on_full_rank_solution():
    phi, psi = positive_factors(8, 6, 4, 5)
    sf = SimilarityFactor(source=phi, target=psi)
    for form, similarity in input_forms(phi, psi).items():
        _, _, solution = bicluster(similarity, k=4, seed=0)
        assert at_dual_projections(sf, solution) < 1e-8, form
        assert eigen_form_check(similarity, solution) < 1e-8, form


def test_stationarity_detects_perturbation():
    phi, psi = positive_factors(8, 6, 4, 6)
    sf = SimilarityFactor(source=phi, target=psi)
    sim = phi @ psi.T
    _, _, solution = bicluster(sim, k=4, seed=0)
    broken_left = solution.left_vectors.copy()
    broken_left[0, 0] += 0.1
    broken = replace(solution, left_vectors=broken_left)
    assert at_dual_projections(sf, broken) > 1e-3


def test_stationarity_reads_the_projections_it_is_given():
    # A relative 1e-6 perturbation of U alone, or of V alone, moves the
    # residual from rounding (below 5e-15 over these seeds) to 1.6e-7-5.6e-7.
    for seed in range(5):
        phi, psi = positive_factors(40, 30, 8, seed)
        sf = SimilarityFactor(source=phi, target=psi)
        _, _, solution = bicluster(sf, k=4, seed=0)
        proj_u, proj_v = dual_projections(sf, solution)
        assert stationarity_residual(sf, solution, proj_u, proj_v) < 1e-12
        rng = np.random.default_rng(seed)
        bumped_u = proj_u * (1.0 + 1e-6 * rng.standard_normal(proj_u.shape))
        bumped_v = proj_v * (1.0 + 1e-6 * rng.standard_normal(proj_v.shape))
        assert stationarity_residual(sf, solution, bumped_u, proj_v) > 1e-8
        assert stationarity_residual(sf, solution, proj_u, bumped_v) > 1e-8


def test_rank_one_similarity_exact():
    rng = np.random.default_rng(7)
    phi = rng.uniform(0.5, 1.5, size=(5, 1))
    psi = rng.uniform(0.5, 1.5, size=(4, 1))
    sf = SimilarityFactor(source=phi, target=psi)
    for form, similarity in input_forms(phi, psi).items():
        _, _, solution = bicluster(similarity, k=1, seed=0)
        assert at_dual_projections(sf, solution) < 1e-10, form
        assert eigen_form_check(similarity, solution) < 1e-10, form


def test_eigen_form_scalar_case():
    sim = np.array([[3.7]])
    _, _, solution = bicluster(sim, k=1, seed=0)
    assert eigen_form_check(sim, solution) < 1e-12


def test_eigen_form_negative_control(rng):
    phi = rng.uniform(0.1, 1.0, size=(8, 5))
    psi = rng.uniform(0.1, 1.0, size=(8, 5))
    for form, similarity in input_forms(phi, psi).items():
        _, _, solution = bicluster(similarity, k=3, seed=0)
        bogus = replace(
            solution,
            left_vectors=rng.normal(size=solution.left_vectors.shape),
            right_vectors=rng.normal(size=solution.right_vectors.shape))
        assert eigen_form_check(similarity, bogus) > 0.1, form


def test_embedding_recovery_relation():
    # kmeans clusters e_i = sigma * h_i / sqrt(w1_i) with w = 1/degree,
    # and the column embeddings alike. In the second input the row and
    # column masses spread over e^-2..e^2, so kmeans of sigma * h without
    # the sqrt(degree) factor finds other partitions on both sides.
    rng = np.random.default_rng(7)
    spread = [rng.uniform(0.1, 1.1, size=(size, 3))
              * np.exp(rng.uniform(-2.0, 2.0, size=(size, 1)))
              for size in (12, 10)]
    for (phi, psi), spread_out in ((positive_factors(6, 5, 3, 8), False),
                                   (spread, True)):
        for form, similarity in input_forms(phi, psi).items():
            rows, cols, solution = bicluster(similarity, k=3, seed=0)
            _, d1, d2 = _normalized(similarity)
            sing = solution.singular_values[None, :]
            for labels, vectors, degrees in (
                    (rows, solution.left_vectors, d1),
                    (cols, solution.right_vectors, d2)):
                scaled = kmeans(np.sqrt(degrees)[:, None] * vectors * sing,
                                3, seed=0)
                np.testing.assert_array_equal(labels, scaled, err_msg=form)
                if spread_out:
                    unscaled = kmeans(vectors * sing, 3, seed=0)
                    assert nmi(unscaled, scaled) < 0.9, form


def rank_deficient(phi, psi, case):
    """`phi` and `psi` with a duplicated column, a zero column (its
    Householder reflector has tau 0) or of rank 2, all still nonnegative."""
    if case == "duplicate":
        phi[:, 1], psi[:, 1] = phi[:, 0], psi[:, 0]
    elif case == "zero":
        phi[:, 2] = psi[:, 2] = 0.0
    elif case == "rank-2":  # the first two columns times the first two rows
        phi, psi = phi[:, :2] @ phi[:2], psi[:, :2] @ psi[:2]
    return phi, psi


@pytest.mark.parametrize("n, m, d, tied, k, case", [
    # n > d_f
    pytest.param(40, 30, 5, False, 3, None, id="40-30-5-False-False"),
    # square, as in the oracle
    pytest.param(30, 30, 5, False, 3, None, id="30-30-5-False-False"),
    pytest.param(6, 7, 12, False, 3, None, id="6-7-12-False-False"),  # n < d_f
    # phi is psi
    pytest.param(25, 25, 4, True, 3, None, id="25-25-4-True-False"),
    pytest.param(40, 30, 8, False, 2, "duplicate", id="40-30-8-duplicate"),
    pytest.param(40, 30, 8, False, 2, "zero", id="40-30-8-zero"),
    pytest.param(40, 30, 8, False, 2, "rank-2", id="40-30-8-rank-2"),
])
def test_factored_matches_dense(n, m, d, tied, k, case):
    phi, psi = rank_deficient(*positive_factors(n, m, d, seed=n + d), case)
    if tied:
        psi = phi
    forms = input_forms(phi, psi)
    rows_d, cols_d, dense = bicluster(forms["dense"], k=k, seed=0)
    rows_f, cols_f, fact = bicluster(forms["factored"], k=k, seed=0)
    np.testing.assert_allclose(fact.singular_values, dense.singular_values,
                               rtol=0, atol=1e-12)
    for a, b in ((dense.left_vectors, fact.left_vectors),
                 (dense.right_vectors, fact.right_vectors)):
        np.testing.assert_allclose(principal_cosines(a, b), 1.0,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(b.T @ b, np.eye(k), rtol=0, atol=1e-13)
    np.testing.assert_array_equal(rows_f, rows_d)
    np.testing.assert_array_equal(cols_f, cols_d)
    assert eigen_form_check(forms["factored"], fact) < 1e-12


def test_factored_svd_forms_no_q():
    """The factored SVD keeps the two raw QRs and applies their reflectors,
    so past a warm-up call its traced peak stays under 2.6 n d_f float64s;
    forming the two n x d_f Q factors as well peaks at 3.09."""
    n, d = 3000, 128
    similarity = SimilarityFactor(*positive_factors(n, n, d, seed=7))
    _top_svd(similarity, 3)
    tracemalloc.start()
    try:
        _top_svd(similarity, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.6 * n * d * 8


def test_factored_rank_above_d_f_rejected():
    phi, psi = positive_factors(10, 9, 2, 9)
    with pytest.raises(ValueError, match="rank 3"):
        bicluster(SimilarityFactor(source=phi, target=psi), k=3)


def test_fenchel_young_zero_violations():
    assert fenchel_young_check(2000, dims=8, seed=0) == 0


def test_fenchel_young_edge_cases():
    rng = np.random.default_rng(1)
    sigma = rng.uniform(0.1, 2.0, size=4)
    h = rng.normal(size=4)
    # e = 0 reduces the inequality to h' Sigma h >= 0
    assert 0.5 * np.sum(h * h * sigma) >= 0.0
    # equality case: h = sqrt(w) Sigma^{-1} e
    e = rng.normal(size=4)
    w = 1.7
    h_star = np.sqrt(w) * e / sigma
    lhs = 0.5 * w * np.sum(e * e / sigma) + 0.5 * np.sum(h_star ** 2 * sigma)
    rhs = np.sqrt(w) * e @ h_star
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


NEAR_ZERO_MASS = """
import numpy as np
from hencler.dual import bicluster, dual_projections, eigen_form_check, \
    stationarity_residual
from hencler.model import SimilarityFactor
rng = np.random.default_rng(0)
source = rng.uniform(0.1, 1.1, size=(6, 3))
source[0] = 1e-14
sf = SimilarityFactor(source=source, target=rng.uniform(0.1, 1.1, size=(6, 3)))
_, _, solution = bicluster(sf, k=2, seed=0)
stationarity_residual(sf, solution, *dual_projections(sf, solution))
eigen_form_check(sf, solution)
"""


def test_degree_clamp_warns_once_per_process():
    # A fresh interpreter, so that Python's default filter (each warning
    # location once) decides, not pytest's capture.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src,
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", NEAR_ZERO_MASS],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr.count("UserWarning: similarity has near-zero") == 1, \
        done.stderr
