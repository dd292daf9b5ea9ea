"""Metamorphic relations of the oracle: transformations of the factors whose
effect on S = Phi Psi^T is known must move the dual's degrees and singular
values in the known way, and leave both residuals at rounding level.

- (Phi Q, Psi Q), Q orthogonal, is the same S: singular values and both
  degree vectors are unchanged;
- (c Phi, Psi), c > 0, is c S: both degree vectors scale by c, and the
  normalized S, so its singular values, is unchanged;
- permuting the nodes of Phi and Psi together permutes S's rows and
  columns: the degrees are permuted, the singular values unchanged.

Inputs are square, as in the oracle: n from 5 to 59 nodes, d_f from 1 to
11, positive factors. Each bound is about 10x the worst deviation over
4000 draws of all three relations on seeds the tests do not use: 1.2e-15
on the singular values (absolute; they lie in [0, 1]), 1.7e-15 relative on
the degrees and 1.1e-14 on the residuals.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from hencler.dual import bicluster, oracle_report
from hencler.model import SimilarityFactor

SINGULAR_BOUND = 1e-14
DEGREE_BOUND = 2e-14  # relative, per node
RESIDUAL_BOUND = 1e-13

RELATION = settings(max_examples=30, derandomize=True, database=None,
                    deadline=None)
SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def oracle_inputs(draw):
    """Positive n x d_f factors of a square S and the number of clusters."""
    n, d = draw(st.integers(5, 59)), draw(st.integers(1, 11))
    rng = np.random.default_rng(draw(SEEDS))
    sf = SimilarityFactor(source=rng.uniform(0.1, 1.1, size=(n, d)),
                          target=rng.uniform(0.1, 1.1, size=(n, d)))
    return sf, draw(st.integers(1, min(d, 3)))


def oracle(sf, k):
    """The dual's solution and `oracle_report`'s two residuals."""
    _, _, solution = bicluster(sf, k=k, seed=0)
    report, _, _ = oracle_report(sf, k, 0, None)
    return solution, report["residuals"]


def check(base, moved, row_degrees, col_degrees):
    """`moved`'s singular values are `base`'s, its degrees are the given
    ones, and both oracles' residuals are at rounding level."""
    (before, base_residuals), (after, moved_residuals) = base, moved
    np.testing.assert_allclose(after.singular_values, before.singular_values,
                               rtol=0, atol=SINGULAR_BOUND)
    for got, want in ((after.row_degrees, row_degrees),
                      (after.col_degrees, col_degrees)):
        np.testing.assert_allclose(got, want, rtol=DEGREE_BOUND, atol=0)
    for residuals in (base_residuals, moved_residuals):
        assert max(residuals.values()) < RESIDUAL_BOUND, residuals


@RELATION
@given(oracle_inputs(), SEEDS)
def test_rotating_both_factors_changes_nothing(case, q_seed):
    sf, k = case
    d = sf.source.shape[1]
    q = np.linalg.qr(np.random.default_rng(q_seed).normal(size=(d, d)))[0]
    base = oracle(sf, k)
    moved = oracle(SimilarityFactor(sf.source @ q, sf.target @ q), k)
    check(base, moved, base[0].row_degrees, base[0].col_degrees)


@RELATION
@given(oracle_inputs(), st.floats(1e-3, 1e3))
def test_scaling_a_factor_scales_the_degrees(case, c):
    sf, k = case
    base = oracle(sf, k)
    moved = oracle(SimilarityFactor(c * sf.source, sf.target), k)
    check(base, moved, c * base[0].row_degrees, c * base[0].col_degrees)


@RELATION
@given(oracle_inputs(), SEEDS)
def test_permuting_the_nodes_permutes_the_degrees(case, perm_seed):
    sf, k = case
    perm = np.random.default_rng(perm_seed).permutation(sf.source.shape[0])
    base = oracle(sf, k)
    moved = oracle(SimilarityFactor(sf.source[perm], sf.target[perm]), k)
    check(base, moved, base[0].row_degrees[perm], base[0].col_degrees[perm])
