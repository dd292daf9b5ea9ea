import json

import numpy as np
import pytest

from hencler.graphio import PositionalEncoding, random_walk_pe
from hencler.model import CheckpointError, EmbeddingPair, HenclerParams, \
    ModelDims, decode_edge, decode_nodes, init_params, load_checkpoint, \
    map_features, project, save_checkpoint, sigma_values, similarity_matrix
from conftest import tiny_graph

LEAKY = 0.01
BN_EPS = 1e-5


def np_feature_map(x, arrays, prefix):
    """Straight-line re-implementation of one feature-map MLP."""
    h = x @ arrays[f"{prefix}.w1"] + arrays[f"{prefix}.b1"]
    h = np.where(h >= 0, h, LEAKY * h)
    z = h @ arrays[f"{prefix}.w2"] + arrays[f"{prefix}.b2"]
    mu = z.mean(axis=0)
    var = z.var(axis=0)
    zhat = (z - mu) / np.sqrt(var + BN_EPS)
    bn = arrays[f"{prefix}.bn_gamma"] * zhat + arrays[f"{prefix}.bn_beta"]
    return np.log1p(np.exp(-np.abs(bn))) + np.maximum(bn, 0.0)


def make_model(g, k_pe=3, hidden=10, d_f=7, s=4, seed=0, tied=False):
    pe = random_walk_pe(g, k_pe)
    dims = ModelDims(d_x=g.feature_dim, k_pe=k_pe, hidden=hidden, d_f=d_f, s=s)
    return pe, init_params(dims, seed=seed, tied=tied)


def test_zero_weights_give_constant_rows():
    g = tiny_graph(num_nodes=5, d_x=3, seed=1)
    pe, params = make_model(g)
    for name in params.arrays:
        if name != "sv_logits":
            params.arrays[name] = np.zeros_like(params.arrays[name])
    sf = map_features(g, pe, params)
    # all-zero network: batchnorm emits the (zero) shift, softplus makes it ln 2
    np.testing.assert_allclose(sf.source, np.log(2.0), atol=1e-12)
    np.testing.assert_allclose(sf.target, np.log(2.0), atol=1e-12)


def test_identical_map_params_give_identical_factors():
    g = tiny_graph(num_nodes=6, d_x=4, seed=2)
    pe, params = make_model(g, seed=3)
    for key in ("w1", "b1", "w2", "b2", "bn_gamma", "bn_beta"):
        params.arrays[f"dst.{key}"] = params.arrays[f"src.{key}"].copy()
    sf = map_features(g, pe, params)
    np.testing.assert_array_equal(sf.source, sf.target)


def test_tied_params_have_no_dst_entries():
    g = tiny_graph(num_nodes=6, d_x=4, seed=2)
    pe, params = make_model(g, tied=True)
    assert not any(k.startswith("dst.") for k in params.arrays)
    sf = map_features(g, pe, params)
    np.testing.assert_array_equal(sf.source, sf.target)
    sim = similarity_matrix(sf)
    assert np.max(np.abs(sim - sim.T)) < 1e-10


def test_map_features_matches_straight_line_oracle():
    g = tiny_graph(num_nodes=10, d_x=5, seed=4)
    pe, params = make_model(g, seed=5)
    sf = map_features(g, pe, params)
    x_aug = np.hstack([g.features, pe.values])
    np.testing.assert_allclose(sf.source,
                               np_feature_map(x_aug, params.arrays, "src"),
                               atol=1e-12)
    np.testing.assert_allclose(sf.target,
                               np_feature_map(x_aug, params.arrays, "dst"),
                               atol=1e-12)


def test_map_features_validates_width():
    g = tiny_graph(num_nodes=5, d_x=3, seed=1)
    pe, params = make_model(g)
    wrong = PositionalEncoding(values=np.zeros((5, 9)), num_steps=9)
    with pytest.raises(ValueError):
        map_features(g, wrong, params)


def test_project_trivial_and_oracle():
    g = tiny_graph(num_nodes=6, d_x=4, seed=6)
    pe, params = make_model(g, d_f=5, s=3, seed=7)
    sf = map_features(g, pe, params)

    params.arrays["proj_src"] = np.zeros((5, 3))
    emb = project(sf, params)
    np.testing.assert_array_equal(emb.source, np.zeros((6, 3)))

    params.arrays["proj_src"] = np.eye(5)[:, :3]
    emb = project(sf, params)
    np.testing.assert_allclose(emb.source, sf.source[:, :3], atol=1e-14)

    rng = np.random.default_rng(8)
    params.arrays["proj_src"] = rng.normal(size=(5, 3))
    emb = project(sf, params)
    np.testing.assert_allclose(emb.source, sf.source @ params.arrays["proj_src"],
                               atol=1e-13)
    np.testing.assert_allclose(emb.target, sf.target @ params.arrays["proj_dst"],
                               atol=1e-13)


def test_sigma_values():
    np.testing.assert_allclose(sigma_values(np.zeros(4)), np.full(4, 0.25))
    saturated = sigma_values(np.array([1e3, 0.0, 0.0]))
    assert saturated[0] > 0.999
    rng = np.random.default_rng(9)
    logits = rng.normal(size=6)
    expected = np.exp(logits) / np.exp(logits).sum()
    np.testing.assert_allclose(sigma_values(logits), expected, atol=1e-12)
    out = sigma_values(logits)
    assert np.all(out > 0) and np.all(out < 1)
    assert out.sum() == pytest.approx(1.0)


def test_decode_nodes_zero_weights_and_oracle():
    g = tiny_graph(num_nodes=7, d_x=4, seed=10)
    pe, params = make_model(g, d_f=5, s=3, seed=11)
    sf = map_features(g, pe, params)
    emb = project(sf, params)

    zeroed = HenclerParams(dims=params.dims, tied=False,
                           arrays={k: v.copy() for k, v in params.arrays.items()})
    for key in ("rec.w1", "rec.b1", "rec.w2"):
        zeroed.arrays[key] = np.zeros_like(zeroed.arrays[key])
    zeroed.arrays["rec.b2"] = np.arange(4.0)
    recon = decode_nodes(emb, zeroed)
    np.testing.assert_allclose(recon, np.tile(np.arange(4.0), (7, 1)),
                               atol=1e-14)

    # straight-line oracle
    recon = decode_nodes(emb, params)
    joined = np.hstack([emb.source @ params.arrays["proj_src"].T,
                        emb.target @ params.arrays["proj_dst"].T])
    h = joined @ params.arrays["rec.w1"] + params.arrays["rec.b1"]
    h = np.where(h >= 0, h, LEAKY * h)
    want = h @ params.arrays["rec.w2"] + params.arrays["rec.b2"]
    np.testing.assert_allclose(recon, want, atol=1e-12)


def test_decode_edge_sigmoid_cases():
    dims = ModelDims(d_x=2, k_pe=1, hidden=4, d_f=3, s=3)
    params = init_params(dims, seed=0)
    params.arrays["proj_src"] = np.eye(3)
    params.arrays["proj_dst"] = np.eye(3)
    zero_emb = EmbeddingPair(source=np.zeros((2, 3)), target=np.ones((2, 3)))
    assert decode_edge(zero_emb, params, 0, 1) == pytest.approx(0.5)

    # ||e||^2 = ln 3 with U^T V = I gives probability 3/4
    vec = np.sqrt(np.log(3.0) / 3.0) * np.ones(3)
    emb = EmbeddingPair(source=np.tile(vec, (2, 1)), target=np.tile(vec, (2, 1)))
    assert decode_edge(emb, params, 0, 1) == pytest.approx(0.75, abs=1e-12)


def test_decode_edge_is_asymmetric_in_general():
    g = tiny_graph(num_nodes=6, d_x=4, seed=12)
    pe, params = make_model(g, seed=13)
    emb = project(map_features(g, pe, params), params)
    probs = np.array([[decode_edge(emb, params, u, v) for v in range(6)]
                      for u in range(6)])
    assert np.max(np.abs(probs - probs.T)) > 1e-6  # asymmetry witness


def test_similarity_asymmetry_witness_on_random_init():
    g = tiny_graph(num_nodes=8, d_x=4, seed=14)
    pe, params = make_model(g, seed=15)
    sim = similarity_matrix(map_features(g, pe, params))
    assert np.max(np.abs(sim - sim.T)) > 1e-8


def test_embedding_shapes_follow_config():
    for n in (3, 9):
        g = tiny_graph(num_nodes=n, d_x=4, seed=n)
        pe, params = make_model(g, s=4)
        emb = project(map_features(g, pe, params), params)
        assert emb.source.shape == (n, 4)
        assert emb.target.shape == (n, 4)


def test_checkpoint_roundtrip(tmp_path):
    g = tiny_graph(num_nodes=5, d_x=3, seed=16)
    pe, params = make_model(g, seed=17)
    path = tmp_path / "checkpoint.json"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert loaded.dims == params.dims
    assert loaded.tied == params.tied
    for name, arr in params.arrays.items():
        np.testing.assert_array_equal(loaded.arrays[name], arr)


def test_checkpoint_rejects_unknown_version(tmp_path):
    path = tmp_path / "checkpoint.json"
    path.write_text('{"version": 99}')
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(path)


def test_checkpoint_rejects_params_that_do_not_match_dims(tmp_path):
    g = tiny_graph(num_nodes=5, d_x=3, seed=16)
    _, params = make_model(g, seed=17)
    path = tmp_path / "checkpoint.json"
    save_checkpoint(params, path)
    good = json.loads(path.read_text())
    cases = []
    missing = json.loads(json.dumps(good))
    del missing["params"]["rec.w1"]
    cases.append((missing, r"missing \['rec.w1'\]"))
    extra = json.loads(json.dumps(good))
    extra["params"]["bogus"] = {"shape": [1], "data": [0.0]}
    cases.append((extra, r"unexpected \['bogus'\]"))
    reshaped = json.loads(json.dumps(good))
    reshaped["params"]["proj_src"]["shape"].reverse()
    cases.append((reshaped, "'proj_src' has shape"))
    truncated = json.loads(json.dumps(good))
    truncated["params"]["proj_src"]["data"].pop()
    cases.append((truncated, "malformed checkpoint"))
    for doc, message in cases:
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)
    path.write_text('{"version": 1,')
    with pytest.raises(CheckpointError, match="malformed JSON"):
        load_checkpoint(path)


def test_paramset_sigma_trainability_flag():
    g = tiny_graph(num_nodes=5, d_x=3, seed=18)
    _, params = make_model(g)
    assert "sv_logits" not in params.to_paramset().trainable()
    assert "sv_logits" in params.to_paramset(train_sigma=True).trainable()
