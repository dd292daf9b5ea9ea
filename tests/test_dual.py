import numpy as np
import pytest

from hencler.dual import DualSolution, bicluster, center_dual, center_primal, \
    eigen_form_check, fenchel_young_check, normalized_similarity, \
    stationarity_residual
from hencler.evaluate import nmi
from hencler.linalg import frobenius_relerr
from hencler.model import SimilarityFactor
from hencler.synthetic import planted_block_similarity


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


def test_bicluster_drop_leading_flag():
    sim, labels = planted_block_similarity([10, 10], noise=0.01, seed=3)
    _, _, kept = bicluster(sim, k=2, seed=0)
    _, _, dropped = bicluster(sim, k=2, seed=0, drop_leading=True)
    assert kept.singular_values[0] > dropped.singular_values[0]
    assert dropped.left_vectors.shape == kept.left_vectors.shape


def test_normalized_weighting_consistency():
    phi, psi = positive_factors(7, 6, 4, 4)
    sim = phi @ psi.T
    w1 = 1.0 / sim.sum(axis=1)
    w2 = 1.0 / sim.sum(axis=0)
    direct = np.sqrt(w1)[:, None] * sim * np.sqrt(w2)[None, :]
    assert frobenius_relerr(normalized_similarity(sim), direct) < 1e-12


def test_normalized_singulars_at_most_one_for_nonneg():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        sim = rng.uniform(0.0, 1.0, size=(9, 7))
        _, _, solution = bicluster(sim, k=5, seed=0)
        assert solution.singular_values.max() <= 1.0 + 1e-10


def test_stationarity_exact_on_full_rank_solution():
    phi, psi = positive_factors(8, 6, 4, 5)
    sf = SimilarityFactor(source=phi, target=psi)
    sim = phi @ psi.T
    w1 = 1.0 / sim.sum(axis=1)
    w2 = 1.0 / sim.sum(axis=0)
    for form, similarity in input_forms(phi, psi).items():
        _, _, solution = bicluster(similarity, k=4, seed=0)
        assert stationarity_residual(sf, solution, w1, w2) < 1e-8, form
        assert stationarity_residual(sf, solution) < 1e-8, form
        assert eigen_form_check(similarity, solution) < 1e-8, form


def test_stationarity_detects_perturbation():
    phi, psi = positive_factors(8, 6, 4, 6)
    sf = SimilarityFactor(source=phi, target=psi)
    sim = phi @ psi.T
    _, _, solution = bicluster(sim, k=4, seed=0)
    w1 = 1.0 / sim.sum(axis=1)
    w2 = 1.0 / sim.sum(axis=0)
    broken_left = solution.left_vectors.copy()
    broken_left[0, 0] += 0.1
    broken = DualSolution(left_vectors=broken_left,
                          right_vectors=solution.right_vectors,
                          singular_values=solution.singular_values,
                          source_embedding=solution.source_embedding,
                          target_embedding=solution.target_embedding)
    assert stationarity_residual(sf, broken, w1, w2) > 1e-3


def test_rank_one_similarity_exact():
    rng = np.random.default_rng(7)
    phi = rng.uniform(0.5, 1.5, size=(5, 1))
    psi = rng.uniform(0.5, 1.5, size=(4, 1))
    sf = SimilarityFactor(source=phi, target=psi)
    sim = phi @ psi.T
    w1 = 1.0 / sim.sum(axis=1)
    w2 = 1.0 / sim.sum(axis=0)
    for form, similarity in input_forms(phi, psi).items():
        _, _, solution = bicluster(similarity, k=1, seed=0)
        assert stationarity_residual(sf, solution, w1, w2) < 1e-10, form
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
        bogus = DualSolution(
            left_vectors=rng.normal(size=solution.left_vectors.shape),
            right_vectors=rng.normal(size=solution.right_vectors.shape),
            singular_values=solution.singular_values,
            source_embedding=solution.source_embedding,
            target_embedding=solution.target_embedding)
        assert eigen_form_check(similarity, bogus) > 0.1, form


def test_embedding_recovery_relation():
    # e_i = sigma * h_i / sqrt(w1_i) with w = 1/degree
    phi, psi = positive_factors(6, 5, 3, 8)
    d1 = (phi @ psi.T).sum(axis=1)
    for similarity in input_forms(phi, psi).values():
        _, _, solution = bicluster(similarity, k=3, seed=0)
        scaled = np.sqrt(d1)[:, None] * solution.left_vectors \
            * solution.singular_values[None, :]
        np.testing.assert_allclose(solution.source_embedding, scaled,
                                   atol=1e-12)


@pytest.mark.parametrize("n, m, d, tied, drop_leading", [
    (40, 30, 5, False, False),  # n > d_f
    (30, 30, 5, False, False),  # square, as in the oracle
    (40, 30, 5, False, True),
    (6, 7, 12, False, False),  # n < d_f
    (25, 25, 4, True, False),  # phi is psi
])
def test_factored_matches_dense(n, m, d, tied, drop_leading):
    phi, psi = positive_factors(n, m, d, seed=n + d)
    if tied:
        psi = phi
    forms = input_forms(phi, psi)
    rows_d, cols_d, dense = bicluster(forms["dense"], k=3, seed=0,
                                      drop_leading=drop_leading)
    rows_f, cols_f, fact = bicluster(forms["factored"], k=3, seed=0,
                                     drop_leading=drop_leading)
    np.testing.assert_allclose(fact.singular_values, dense.singular_values,
                               rtol=0, atol=1e-12)
    for a, b in ((dense.left_vectors, fact.left_vectors),
                 (dense.right_vectors, fact.right_vectors)):
        np.testing.assert_allclose(principal_cosines(a, b), 1.0,
                                   rtol=0, atol=1e-12)
    np.testing.assert_array_equal(rows_f, rows_d)
    np.testing.assert_array_equal(cols_f, cols_d)
    assert eigen_form_check(forms["factored"], fact) < 1e-12


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
