import math

import numpy as np
import pytest

from hencler import gradients as ad
from hencler.graphio import AttributedGraph, random_walk_pe
from hencler.loss import EPS_DEG, EdgeSample, _build_degrees, \
    _build_edge_rec, _build_node_rec, _build_wksvd, build_total_loss, \
    sample_edges
from hencler.model import EmbeddingPair, ModelDims, SimilarityFactor, \
    decode_nodes, init_params, map_features, project, projections, \
    sigma_values
from conftest import tiny_graph


def random_factors(n, d_f, seed):
    rng = np.random.default_rng(seed)
    return SimilarityFactor(source=rng.uniform(0.1, 1.0, size=(n, d_f)),
                            target=rng.uniform(0.1, 1.0, size=(n, d_f)))


def degrees(sf):
    """The builder's clamped (out, in) degrees on constant factors."""
    out_deg, in_deg = _build_degrees(ad.constant(sf.source),
                                     ad.constant(sf.target))
    return out_deg.value, in_deg.value


def wksvd_value(sf, proj_src, proj_dst, sigma_isqrt):
    """The wKSVD builder on constant factors; `sigma_isqrt` is the softmax
    output the trainer feeds it."""
    ps = ad.ParamSet()
    ps.add("proj_src", proj_src)
    ps.add("proj_dst", proj_dst)
    source, target = ad.constant(sf.source), ad.constant(sf.target)
    src_emb, dst_emb = projections(ps, source, target)
    out_deg, in_deg = _build_degrees(source, target)
    return float(_build_wksvd(ps, source, target, src_emb, dst_emb,
                              ad.constant(sigma_isqrt), out_deg,
                              in_deg).value)


def edge_rec_value(emb, params, sample):
    """The edge-reconstruction builder on constant embeddings."""
    return float(_build_edge_rec(params.to_paramset(),
                                 ad.constant(emb.source),
                                 ad.constant(emb.target), sample).value)


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
    value = wksvd_value(sf, np.ones((1, 1)), np.ones((1, 1)), np.ones(1))
    assert value == pytest.approx(0.0, abs=1e-12)  # -1 - 1 + 1 + 1


def test_wksvd_zero_projection_leaves_map_penalty():
    sf = random_factors(6, 4, 1)
    out_deg, in_deg = degrees(sf)
    zeros = np.zeros((4, 2))
    value = wksvd_value(sf, zeros, zeros, np.full(2, 0.5))
    expected = np.sum((sf.source * sf.target).sum(axis=1)
                      / np.sqrt(out_deg * in_deg))
    assert value == pytest.approx(expected, rel=1e-12)


def wksvd_bruteforce(sf, proj_src, proj_dst, sigma_isqrt):
    """Scalar-loop oracle over the materialized similarity matrix; the
    inverse singular values are sigma_isqrt ** 2."""
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
        sigma_isqrt = rng.uniform(0.2, 1.0, size=3)
        got = wksvd_value(sf, proj_src, proj_dst, sigma_isqrt)
        want = wksvd_bruteforce(sf, proj_src, proj_dst, sigma_isqrt)
        assert got == pytest.approx(want, rel=1e-10)


def test_wksvd_invariant_under_column_permutation():
    rng = np.random.default_rng(3)
    sf = random_factors(7, 5, 20)
    proj_src = rng.normal(size=(5, 4))
    proj_dst = rng.normal(size=(5, 4))
    sigma_isqrt = rng.uniform(0.2, 1.0, size=4)
    perm = rng.permutation(4)
    assert wksvd_value(sf, proj_src, proj_dst, sigma_isqrt) == pytest.approx(
        wksvd_value(sf, proj_src[:, perm], proj_dst[:, perm],
                    sigma_isqrt[perm]), rel=1e-12)


def node_rec_oracle(recon, features):
    """Per-node squared error, averaged over nodes."""
    return np.mean([np.sum((recon[v] - features[v]) ** 2)
                    for v in range(len(features))])


def test_node_rec_loss_cases():
    g = tiny_graph(num_nodes=4, d_x=3, seed=4)

    def value(recon):
        return float(_build_node_rec(ad.constant(recon), g.features).value)

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
    emb = EmbeddingPair(source=rng.normal(size=(n, s)),
                        target=rng.normal(size=(n, s)))
    return g, params, emb


def test_edge_rec_uniform_probabilities_give_ln2():
    g, params, emb = make_edge_setup(9)
    zero_emb = EmbeddingPair(source=np.zeros_like(emb.source),
                             target=np.zeros_like(emb.target))
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
    ps = params.to_paramset()
    src = ps.add("src_emb", np.array([[100.0, 0.0], [0.0, 100.0]]))
    dst = ad.constant(np.array([[1.0, -1.0], [0.5, 0.5]]))
    sample = EdgeSample(positives=np.array([[0, 0]]),  # logit +100
                        negatives=np.array([[1, 0]]))  # logit -100
    loss = _build_edge_rec(ps, src, dst, sample)
    assert np.isfinite(loss.value)
    assert float(loss.value) == pytest.approx(np.log1p(np.exp(-100.0)),
                                              rel=1e-12)
    g_src = ad.backward(loss, wrt=[src])[id(src)]
    assert np.all(np.isfinite(g_src))
    assert np.all(g_src != 0.0)


def bce_scalar_loop(emb, params, sample):
    """Mean binary cross-entropy of the dot-product decoder, pair by pair,
    as log(1 + e^x) - y x in the form that is exact at any logit x."""
    cross = params.arrays["proj_src"].T @ params.arrays["proj_dst"]
    total = 0.0
    pairs = np.concatenate([sample.positives, sample.negatives])
    labels = [1.0] * len(sample.positives) + [0.0] * len(sample.negatives)
    for (u, v), y in zip(pairs, labels):
        x = float(emb.source[u] @ cross @ emb.target[v])
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
    emb = EmbeddingPair(source=np.array([[0.3, 0.1], [0.2, -0.4]]),
                        target=np.array([[0.5, 0.2], [-0.1, 0.6]]))
    sample = EdgeSample(positives=np.array([[0, 0]]),
                        negatives=np.array([[1, 1]]))
    base = edge_rec_value(emb, params, sample)
    improved = emb.source.copy()
    improved[0] += 0.5 * emb.target[0]  # raise the positive pair's logit
    assert edge_rec_value(EmbeddingPair(improved, emb.target), params,
                          sample) < base


def builder_inputs(seed=13, n=9):
    g = tiny_graph(num_nodes=n, d_x=4, seed=seed)
    pe = random_walk_pe(g, 3)
    dims = ModelDims(d_x=4, k_pe=3, hidden=8, d_f=6, s=4)
    params = init_params(dims, seed=seed + 1)
    x_aug = np.hstack([g.features, pe.values])
    return g, pe, params, x_aug, sample_edges(g, seed=seed + 2)


def test_total_loss_modes():
    g, _, params, x_aug, sample = builder_inputs()
    ps = params.to_paramset()
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


def test_builder_components_match_public_ops():
    """The builders' losses equal the oracles evaluated on the outputs of
    the plain-array model functions."""
    g, pe, params, x_aug, sample = builder_inputs()
    parts = build_total_loss(params.to_paramset(train_sigma=True), x_aug,
                             g.features, sample)

    sf = map_features(g, pe, params)
    emb = project(sf, params)
    want_wksvd = wksvd_bruteforce(sf, params.arrays["proj_src"],
                                  params.arrays["proj_dst"],
                                  sigma_values(params.arrays["sv_logits"]))
    assert float(parts["wksvd"].value) == pytest.approx(want_wksvd, rel=1e-10)
    want_node = node_rec_oracle(decode_nodes(emb, params), g.features)
    assert float(parts["node_rec"].value) == pytest.approx(want_node,
                                                           rel=1e-10)
    want_edge = bce_scalar_loop(emb, params, sample)
    assert float(parts["edge_rec"].value) == pytest.approx(want_edge,
                                                           rel=1e-10)
    total = sum(float(parts[k].value)
                for k in ("wksvd", "node_rec", "edge_rec"))
    assert float(parts["total"].value) == pytest.approx(total, rel=1e-12)


def test_float32_loss_gives_float32_gradients():
    g, _, params, x_aug, sample = builder_inputs()
    for name in params.arrays:
        params.arrays[name] = params.arrays[name].astype(np.float32)
    ps = params.to_paramset(train_sigma=True)
    parts = build_total_loss(ps, x_aug.astype(np.float32),
                             g.features.astype(np.float32), sample)
    assert parts["total"].value.dtype == np.float32
    grads = ad.backward(parts["total"], wrt=ps.trainable().values())
    for name, var in ps.trainable().items():
        assert grads[id(var)].dtype == np.float32, name


def test_sigma_path_gradients_match_finite_differences():
    # the softmax spectrum parametrization composed into the full objective
    g = tiny_graph(num_nodes=8, d_x=3, seed=21)
    pe = random_walk_pe(g, 2)
    dims = ModelDims(d_x=3, k_pe=2, hidden=6, d_f=5, s=4)
    params = init_params(dims, seed=22)
    rng = np.random.default_rng(23)
    params.arrays["sv_logits"] = rng.normal(size=4)
    ps = params.to_paramset(train_sigma=True)
    x_aug = np.hstack([g.features, pe.values])
    sample = sample_edges(g, seed=24)

    def builder(p):
        return build_total_loss(p, x_aug, g.features, sample)["total"]

    assert ad.grad_check(builder, ps, step=1e-5, coords_per_param=20,
                         seed=0) < 1e-4


def test_builder_never_materializes_square_matrix():
    """Peak tape memory at n = 10^4 stays O(n), far below any n x n array."""
    import tracemalloc
    from hencler.graphio import PositionalEncoding
    from hencler.synthetic import random_sparse_graph

    def one_step(n):
        g = random_sparse_graph(n, avg_degree=4, feature_dim=8, seed=0)
        pe = PositionalEncoding(
            values=np.random.default_rng(1).uniform(0, 1, size=(n, 4)),
            num_steps=4)
        dims = ModelDims(d_x=8, k_pe=4, hidden=32, d_f=16, s=4)
        params = init_params(dims, seed=0)
        ps = params.to_paramset()
        x_aug = np.hstack([g.features, pe.values])
        sample = sample_edges(g, seed=2)
        tracemalloc.start()
        parts = build_total_loss(ps, x_aug, g.features, sample)
        ad.backward(parts["total"], wrt=ps.trainable().values())
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak

    small = one_step(1000)
    large = one_step(10_000)
    assert large < 15 * small  # linear growth, no n^2 allocation
    assert large < 8 * 10_000 * 10_000 / 2  # << one n x n float64 buffer
