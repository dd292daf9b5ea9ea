import math

import numpy as np
import pytest

from hencler import gradients as ad
from hencler.graphio import AttributedGraph, random_walk_pe
from hencler.loss import EPS_DEG, EdgeSample, _build_degrees, \
    _build_edge_rec, _build_node_rec, _build_wksvd, build_total_loss, \
    sample_edges
from hencler.model import ModelDims, SimilarityFactor, init_params, \
    map_features, node_decoder, projections
from conftest import tiny_graph


def random_factors(n, d_f, seed):
    rng = np.random.default_rng(seed)
    return SimilarityFactor(source=rng.uniform(0.1, 1.0, size=(n, d_f)),
                            target=rng.uniform(0.1, 1.0, size=(n, d_f)))


def degrees(sf):
    """The builder's clamped (out, in) degrees on fixed factors."""
    out_deg, in_deg = _build_degrees(ad.Var(sf.source), ad.Var(sf.target))
    return out_deg.value, in_deg.value


def wksvd_value(sf, proj_src, proj_dst):
    """The wKSVD builder on fixed factors."""
    ps = {"proj_src": ad.Var(proj_src, op="param"),
          "proj_dst": ad.Var(proj_dst, op="param")}
    source, target = ad.Var(sf.source), ad.Var(sf.target)
    src_emb, dst_emb = projections(ps, source, target)
    out_deg, in_deg = _build_degrees(source, target)
    return float(_build_wksvd(ps, source, target, src_emb, dst_emb, out_deg,
                              in_deg).value)


def edge_rec_value(emb, params, sample):
    """The edge-reconstruction builder on a fixed (source, target) pair."""
    source, target = emb
    return float(_build_edge_rec(params.leaves(), source, target,
                                 sample).value)


def test_degrees_all_ones():
    sf = SimilarityFactor(source=np.ones((4, 1)), target=np.ones((4, 1)))
    out_deg, in_deg = degrees(sf)
    np.testing.assert_allclose(out_deg, [4.0] * 4)
    np.testing.assert_allclose(in_deg, [4.0] * 4)


def test_degrees_clamp_case():
    sf = SimilarityFactor(source=np.array([[1.0, 0.0]]),
                          target=np.array([[0.0, 1.0]]))
    out_deg, in_deg = degrees(sf)
    assert out_deg[0] == EPS_DEG
    assert in_deg[0] == EPS_DEG


def test_degrees_match_materialized_similarity():
    for seed in range(5):
        sf = random_factors(5, 3, seed)
        sim = sf.source @ sf.target.T
        out_deg, in_deg = degrees(sf)
        np.testing.assert_allclose(out_deg, sim.sum(axis=1), atol=1e-10)
        np.testing.assert_allclose(in_deg, sim.sum(axis=0), atol=1e-10)


def test_wksvd_hand_case_scalar():
    sf = SimilarityFactor(source=np.ones((1, 1)), target=np.ones((1, 1)))
    value = wksvd_value(sf, np.ones((1, 1)), np.ones((1, 1)))
    assert value == pytest.approx(0.0, abs=1e-12)  # -1 - 1 + 1 + 1


def test_wksvd_zero_projection_leaves_map_penalty():
    sf = random_factors(6, 4, 1)
    out_deg, in_deg = degrees(sf)
    zeros = np.zeros((4, 2))
    value = wksvd_value(sf, zeros, zeros)
    expected = np.sum((sf.source * sf.target).sum(axis=1)
                      / np.sqrt(out_deg * in_deg))
    assert value == pytest.approx(expected, rel=1e-12)


def wksvd_bruteforce(sf, proj_src, proj_dst):
    """Scalar-loop oracle over the materialized similarity matrix; every
    inverse singular value is (1/s) ** 2."""
    sigma_isqrt = np.full(proj_src.shape[1], 1.0 / proj_src.shape[1])
    sim = sf.source @ sf.target.T
    n = sim.shape[0]
    d1 = np.maximum(sim.sum(axis=1), EPS_DEG)
    d2 = np.maximum(sim.sum(axis=0), EPS_DEG)
    total = float(np.trace(proj_src.T @ proj_dst))
    for v in range(n):
        e = proj_src.T @ sf.source[v]
        r = proj_dst.T @ sf.target[v]
        total -= (e * e * sigma_isqrt ** 2).sum() / d1[v]
        total -= (r * r * sigma_isqrt ** 2).sum() / d2[v]
        total += np.sqrt(1.0 / (d1[v] * d2[v])) * sf.source[v] @ sf.target[v]
    return total


def test_wksvd_matches_bruteforce_oracle():
    rng = np.random.default_rng(2)
    for seed in range(5):
        sf = random_factors(8, 4, seed + 10)
        proj_src = rng.normal(size=(4, 3))
        proj_dst = rng.normal(size=(4, 3))
        got = wksvd_value(sf, proj_src, proj_dst)
        want = wksvd_bruteforce(sf, proj_src, proj_dst)
        assert got == pytest.approx(want, rel=1e-10)


def test_wksvd_invariant_under_column_permutation():
    rng = np.random.default_rng(3)
    sf = random_factors(7, 5, 20)
    proj_src = rng.normal(size=(5, 4))
    proj_dst = rng.normal(size=(5, 4))
    perm = rng.permutation(4)
    assert wksvd_value(sf, proj_src, proj_dst) == pytest.approx(
        wksvd_value(sf, proj_src[:, perm], proj_dst[:, perm]), rel=1e-12)


def softmax_of_zeros_wksvd(ps, source, target, src_emb, dst_emb, out_deg,
                           in_deg):
    """The wKSVD objective as written when the spectrum was the softmax of
    s zero logits, multiplied in as a squared constant vector."""
    zeros = np.zeros(src_emb.value.shape[1])
    ex = np.exp(zeros - zeros.max())
    inv_sigma = ad.square(ex / ex.sum())
    var_src = ad.reduce_sum(ad.mul(
        ad.reduce_sum(ad.mul(ad.square(src_emb), inv_sigma), axis=1),
        ad.reciprocal(out_deg)))
    var_dst = ad.reduce_sum(ad.mul(
        ad.reduce_sum(ad.mul(ad.square(dst_emb), inv_sigma), axis=1),
        ad.reciprocal(in_deg)))
    proj_penalty = ad.trace(ad.matmul(ad.transpose(ps["proj_src"]),
                                      ps["proj_dst"]))
    map_penalty = ad.reduce_sum(ad.mul(
        ad.reduce_sum(ad.mul(source, target), axis=1),
        ad.reciprocal(ad.sqrt(ad.mul(out_deg, in_deg)))))
    return -var_src - var_dst + proj_penalty + map_penalty


@pytest.mark.parametrize("s", [1, 5, 6, 7], ids=lambda s: f"{s}-float64")
def test_wksvd_fixed_spectrum_matches_softmax_of_zeros(s):
    # the fixed 1/s spectrum gives the bits of the softmax it replaced, in
    # the loss and in every gradient
    rng = np.random.default_rng(30 + s)
    ps = {name: ad.Var(rng.uniform(0.1, 1.0, size=shape), op="param")
          for name, shape in (("source", (9, 4)), ("target", (9, 4)),
                              ("proj_src", (4, s)), ("proj_dst", (4, s)))}
    losses = []
    for builder in (_build_wksvd, softmax_of_zeros_wksvd):
        source, target = ps["source"], ps["target"]
        src_emb, dst_emb = projections(ps, source, target)
        out_deg, in_deg = _build_degrees(source, target)
        loss = builder(ps, source, target, src_emb, dst_emb, out_deg, in_deg)
        grads = ad.backward(loss, wrt=ps)
        losses.append((loss.value, [grads[name] for name in ps]))
    (got, got_grads), (want, want_grads) = losses
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    for a, b in zip(got_grads, want_grads):
        assert a.dtype == np.float64 and a.tobytes() == b.tobytes()


def node_rec_oracle(recon, features):
    """Per-node squared error, averaged over nodes."""
    return np.mean([np.sum((recon[v] - features[v]) ** 2)
                    for v in range(len(features))])


def test_node_rec_loss_cases():
    g = tiny_graph(num_nodes=4, d_x=3, seed=4)

    def value(recon):
        return float(_build_node_rec(ad.Var(recon), g.features).value)

    assert value(g.features.copy()) == 0.0
    assert value(g.features + 1.0) == pytest.approx(3.0)
    rng = np.random.default_rng(5)
    recon = rng.normal(size=g.features.shape)
    assert value(recon) == pytest.approx(node_rec_oracle(recon, g.features),
                                         rel=1e-12)
    with pytest.raises(ValueError):
        value(np.zeros((4, 2)))


def test_sample_edges_single_edge_forced():
    g = AttributedGraph(3, True, np.array([[0, 1]]), np.zeros((3, 1)))
    sample = sample_edges(g, seed=0)
    assert sample.positives.shape == (6, 2)
    np.testing.assert_array_equal(sample.positives,
                                  np.tile([[0, 1]], (6, 1)))


def test_sample_negatives_are_non_edges():
    edges = np.array([[0, 1], [1, 2]])
    g = AttributedGraph(3, True, edges, np.zeros((3, 1)))
    sample = sample_edges(g, seed=1)
    assert sample.negatives.shape == (6, 2)
    edge_set = {(0, 1), (1, 2)}
    for u, v in sample.negatives:
        assert u != v
        assert (u, v) not in edge_set


def test_sample_edges_seeded_determinism():
    g = tiny_graph(num_nodes=100, d_x=2, seed=6)
    a = sample_edges(g, seed=7)
    b = sample_edges(g, seed=7)
    c = sample_edges(g, seed=8)
    np.testing.assert_array_equal(a.positives, b.positives)
    np.testing.assert_array_equal(a.negatives, b.negatives)
    assert not (np.array_equal(a.positives, c.positives)
                and np.array_equal(a.negatives, c.negatives))


def test_sample_edges_complete_graph_rejected():
    edges = np.array([[u, v] for u in range(3) for v in range(3) if u != v])
    g = AttributedGraph(3, True, edges, np.zeros((3, 1)))
    with pytest.raises(ValueError, match="complete"):
        sample_edges(g, seed=0)


def make_edge_setup(seed, n=6, d_f=4, s=3):
    rng = np.random.default_rng(seed)
    g = tiny_graph(num_nodes=n, d_x=3, seed=seed)
    dims = ModelDims(d_x=3, k_pe=2, hidden=5, d_f=d_f, s=s)
    params = init_params(dims, seed=seed)
    emb = (rng.normal(size=(n, s)), rng.normal(size=(n, s)))
    return g, params, emb


def test_edge_rec_uniform_probabilities_give_ln2():
    g, params, emb = make_edge_setup(9)
    zero_emb = tuple(np.zeros_like(side) for side in emb)
    sample = sample_edges(g, seed=0)
    assert edge_rec_value(zero_emb, params, sample) == pytest.approx(
        np.log(2.0))


def test_edge_rec_saturated_logits_stay_finite_with_gradient():
    # one positive and one negative pair, both decoded right at |logit| 100:
    # the exact log-space loss is log1p(exp(-100)) ~ 3.7e-44, and the
    # gradient on those logits does not vanish
    dims = ModelDims(d_x=2, k_pe=1, hidden=3, d_f=2, s=2)
    params = init_params(dims, seed=0)
    params.arrays["proj_src"] = np.eye(2)
    params.arrays["proj_dst"] = np.eye(2)
    ps = params.leaves()
    src = ad.Var(np.array([[100.0, 0.0], [0.0, 100.0]]), op="param")
    dst = np.array([[1.0, -1.0], [0.5, 0.5]])
    sample = EdgeSample(positives=np.array([[0, 0]]),  # logit +100
                        negatives=np.array([[1, 0]]))  # logit -100
    loss = _build_edge_rec(ps, src, dst, sample)
    assert np.isfinite(loss.value)
    assert float(loss.value) == pytest.approx(np.log1p(np.exp(-100.0)),
                                              rel=1e-12)
    g_src = ad.backward(loss, wrt={"src_emb": src})["src_emb"]
    assert np.all(np.isfinite(g_src))
    assert np.all(g_src != 0.0)


def bce_scalar_loop(emb, params, sample):
    """Mean binary cross-entropy of the dot-product decoder, pair by pair,
    as log(1 + e^x) - y x in the form that is exact at any logit x."""
    source, target = emb
    cross = params.arrays["proj_src"].T @ params.arrays["proj_dst"]
    total = 0.0
    pairs = np.concatenate([sample.positives, sample.negatives])
    labels = [1.0] * len(sample.positives) + [0.0] * len(sample.negatives)
    for (u, v), y in zip(pairs, labels):
        x = float(source[u] @ cross @ target[v])
        total += max(x, 0.0) - y * x + math.log1p(math.exp(-abs(x)))
    return total / len(pairs)


def test_edge_rec_matches_scalar_loop():
    g, params, emb = make_edge_setup(11)
    sample = sample_edges(g, seed=3)
    assert edge_rec_value(emb, params, sample) == pytest.approx(
        bce_scalar_loop(emb, params, sample), rel=1e-10)


def test_edge_rec_decreases_toward_labels():
    # disjoint pairs so a nudge affects exactly one decoded probability
    dims = ModelDims(d_x=2, k_pe=1, hidden=3, d_f=2, s=2)
    params = init_params(dims, seed=0)
    params.arrays["proj_src"] = np.eye(2)
    params.arrays["proj_dst"] = np.eye(2)
    source = np.array([[0.3, 0.1], [0.2, -0.4]])
    target = np.array([[0.5, 0.2], [-0.1, 0.6]])
    sample = EdgeSample(positives=np.array([[0, 0]]),
                        negatives=np.array([[1, 1]]))
    base = edge_rec_value((source, target), params, sample)
    improved = source.copy()
    improved[0] += 0.5 * target[0]  # raise the positive pair's logit
    assert edge_rec_value((improved, target), params, sample) < base


def builder_inputs(seed=13, n=9):
    g = tiny_graph(num_nodes=n, d_x=4, seed=seed)
    pe = random_walk_pe(g, 3)
    dims = ModelDims(d_x=4, k_pe=3, hidden=8, d_f=6, s=4)
    params = init_params(dims, seed=seed + 1)
    x_aug = np.hstack([g.features, pe])
    return g, pe, params, x_aug, sample_edges(g, seed=seed + 2)


def test_total_loss_modes():
    g, _, params, x_aug, sample = builder_inputs()
    ps = params.leaves()
    parts = {mode: build_total_loss(ps, x_aug, g.features, sample, mode=mode)
             for mode in ("all", "wksvd", "reconstr")}
    assert set(parts["all"]) == {"wksvd", "node_rec", "edge_rec", "total"}
    assert set(parts["wksvd"]) == {"wksvd", "total"}
    assert set(parts["reconstr"]) == {"node_rec", "edge_rec", "total"}
    value = {mode: {k: float(v.value) for k, v in p.items()}
             for mode, p in parts.items()}
    assert value["wksvd"]["total"] == value["all"]["wksvd"]
    assert value["reconstr"]["total"] == (value["all"]["node_rec"]
                                          + value["all"]["edge_rec"])
    assert value["all"]["total"] == pytest.approx(
        value["all"]["wksvd"] + value["all"]["node_rec"]
        + value["all"]["edge_rec"], rel=1e-12)
    with pytest.raises(ValueError):
        build_total_loss(ps, x_aug, g.features, sample, mode="bogus")
    with pytest.raises(ValueError, match="edge sample"):
        build_total_loss(ps, x_aug, g.features, None, mode="reconstr")


def test_training_tape_leaves_are_the_parameters():
    # the input, the reconstruction targets and the labels stay in the ops'
    # closures, so every node without parents is a named parameter
    g, _, params, x_aug, sample = builder_inputs()
    loss = build_total_loss(params.leaves(), x_aug, g.features, sample)
    order = ad._topo_order(loss["total"])
    assert {node.op for node in order if not node.parents} == {"param"}


def test_builder_components_match_public_ops():
    """The builders' losses equal the oracles evaluated on the outputs of
    the plain-array model functions."""
    g, pe, params, x_aug, sample = builder_inputs()
    parts = build_total_loss(params.leaves(), x_aug, g.features, sample)

    sf = map_features(g, pe, params)
    emb = tuple(side.value for side in projections(params.leaves(), sf.source,
                                                   sf.target))
    want_wksvd = wksvd_bruteforce(sf, params.arrays["proj_src"],
                                  params.arrays["proj_dst"])
    assert float(parts["wksvd"].value) == pytest.approx(want_wksvd, rel=1e-10)
    recon = node_decoder(params.leaves(), *emb).value
    want_node = node_rec_oracle(recon, g.features)
    assert float(parts["node_rec"].value) == pytest.approx(want_node,
                                                           rel=1e-10)
    want_edge = bce_scalar_loop(emb, params, sample)
    assert float(parts["edge_rec"].value) == pytest.approx(want_edge,
                                                           rel=1e-10)
    total = sum(float(parts[k].value)
                for k in ("wksvd", "node_rec", "edge_rec"))
    assert float(parts["total"].value) == pytest.approx(total, rel=1e-12)


def test_builder_never_materializes_square_matrix():
    """Peak tape memory at n = 10^4 stays O(n), far below any n x n array."""
    import tracemalloc
    from hencler.synthetic import random_sparse_graph

    def one_step(n):
        g = random_sparse_graph(n, avg_degree=4, feature_dim=8, seed=0)
        pe = np.random.default_rng(1).uniform(0, 1, size=(n, 4))
        dims = ModelDims(d_x=8, k_pe=4, hidden=32, d_f=16, s=4)
        params = init_params(dims, seed=0)
        ps = params.leaves()
        x_aug = np.hstack([g.features, pe])
        sample = sample_edges(g, seed=2)
        tracemalloc.start()
        parts = build_total_loss(ps, x_aug, g.features, sample)
        ad.backward(parts["total"], wrt=ps)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak

    small = one_step(1000)
    large = one_step(10_000)
    assert large < 15 * small  # linear growth, no n^2 allocation
    assert large < 8 * 10_000 * 10_000 / 2  # << one n x n float64 buffer
