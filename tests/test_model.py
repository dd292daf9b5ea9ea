import base64
import dataclasses
import errno
import json
import tracemalloc

import numpy as np
import pytest

from hencler import gradients as ad
from hencler.graphio import random_walk_pe
from hencler.loss import build_total_loss, sample_edges
from hencler.model import CheckpointError, HenclerParams, ModelDims, \
    edge_logits, feature_maps, init_params, load_checkpoint, map_features, \
    node_decoder, projections, save_checkpoint, similarity_matrix
from hencler.synthetic import heterophilous_blobs, random_sparse_graph
from conftest import float64_b64, format_3_doc, tiny_graph, \
    version_2_doc

LEAKY = 0.01
BN_EPS = 1e-5


def np_feature_map(x, arrays, prefix):
    """Straight-line re-implementation of one feature-map MLP."""
    h = x @ arrays[f"{prefix}.w1"] + arrays[f"{prefix}.b1"]
    h = np.where(h >= 0, h, LEAKY * h)
    z = h @ arrays[f"{prefix}.w2"]
    mu = z.mean(axis=0)
    var = z.var(axis=0)
    zhat = (z - mu) / np.sqrt(var + BN_EPS)
    bn = arrays[f"{prefix}.bn_gamma"] * zhat + arrays[f"{prefix}.bn_beta"]
    return np.log1p(np.exp(-np.abs(bn))) + np.maximum(bn, 0.0)


def make_model(g, k_pe=3, hidden=10, d_f=7, s=4, seed=0, tied=False):
    pe = random_walk_pe(g, k_pe)
    dims = ModelDims(d_x=g.feature_dim, k_pe=k_pe, hidden=hidden, d_f=d_f, s=s)
    return pe, init_params(dims, seed=seed, tied=tied)


def embed(sf, params):
    """(source, target) embeddings of fixed factors, as plain arrays."""
    src_emb, dst_emb = projections(params.leaves(), sf.source, sf.target)
    return src_emb.value, dst_emb.value


def test_zero_weights_give_constant_rows():
    g = tiny_graph(num_nodes=5, d_x=3, seed=1)
    pe, params = make_model(g)
    for name in params.arrays:
        params.arrays[name] = np.zeros_like(params.arrays[name])
    sf = map_features(g, pe, params)
    # all-zero network: batchnorm emits the (zero) shift, softplus makes it ln 2
    np.testing.assert_allclose(sf.source, np.log(2.0), atol=1e-12)
    np.testing.assert_allclose(sf.target, np.log(2.0), atol=1e-12)


def test_identical_map_params_give_identical_factors():
    g = tiny_graph(num_nodes=6, d_x=4, seed=2)
    pe, params = make_model(g, seed=3)
    for name in [k for k in params.arrays if k.startswith("src.")]:
        twin = name.replace("src.", "dst.", 1)
        params.arrays[twin] = params.arrays[name].copy()
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


def test_tied_follows_the_arrays(tmp_path):
    g = tiny_graph(num_nodes=6, d_x=4, seed=2)
    x_aug = np.hstack([g.features, random_walk_pe(g, 3)])
    for tied in (True, False):
        _, params = make_model(g, tied=tied)
        assert params.tied is tied
        source, target = feature_maps(params.leaves(), x_aug)
        assert (source is target) is tied
        save_checkpoint(params, tmp_path / f"{tied}.json")
        assert load_checkpoint(tmp_path / f"{tied}.json").tied is tied
    # dropping the target map's arrays ties the model
    for key in [k for k in params.arrays if k.startswith("dst.")]:
        del params.arrays[key]
    assert params.tied


@pytest.mark.parametrize("tied", [False, True])
def test_every_parameter_array_moves_the_loss(tied):
    """No dead parameters: on criterion 1's setup every array that
    `init_params` makes has a gradient norm of at least 1e-8 of the largest.
    The per-column biases before batchnorm that checkpoint version 2 held
    read 7e-15 to 2.4e-14 here, against 0.35 or more for every other
    array."""
    for seed in range(5):
        g = heterophilous_blobs(num_nodes=10, num_classes=3, avg_degree=4,
                                feature_dim=6, seed=seed)
        dims = ModelDims(d_x=6, k_pe=4, hidden=256, d_f=128, s=6)
        params = init_params(dims, seed=seed, tied=tied)
        rng = np.random.default_rng(seed + 1000)
        for key in params.arrays:
            params.arrays[key] = params.arrays[key] \
                + 0.05 * rng.normal(size=params.arrays[key].shape)
        ps = params.leaves()
        x_aug = np.hstack([g.features, random_walk_pe(g, 4)])
        parts = build_total_loss(ps, x_aug, g.features,
                                 sample_edges(g, seed=100 + seed))
        grads = ad.backward(parts["total"], wrt=ps)
        assert grads.keys() == params.arrays.keys()
        norms = {name: np.linalg.norm(grad) for name, grad in grads.items()}
        largest = max(norms.values())
        dead = {name: norm for name, norm in norms.items()
                if norm < 1e-8 * largest}
        assert not dead, (seed, largest, dead)


def test_map_features_matches_straight_line_oracle():
    g = tiny_graph(num_nodes=10, d_x=5, seed=4)
    pe, params = make_model(g, seed=5)
    sf = map_features(g, pe, params)
    x_aug = np.hstack([g.features, pe])
    np.testing.assert_allclose(sf.source,
                               np_feature_map(x_aug, params.arrays, "src"),
                               atol=1e-12)
    np.testing.assert_allclose(sf.target,
                               np_feature_map(x_aug, params.arrays, "dst"),
                               atol=1e-12)


@pytest.mark.parametrize("tied", [False, True])
def test_map_features_is_the_training_forward_bitwise(tied):
    # on plain arrays the tape builders record no tape, with the same ops
    g = tiny_graph(num_nodes=40, d_x=5, seed=6)
    pe, params = make_model(g, k_pe=4, hidden=32, d_f=16, seed=7, tied=tied)
    sf = map_features(g, pe, params)
    source, target = feature_maps(params.leaves(),
                                  np.hstack([g.features, pe]))
    for got, want in ((sf.source, source.value), (sf.target, target.value)):
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_map_features_keeps_no_tape():
    # At n = 2000 and default dims, map_features peaked at 28.5 MB under
    # tracemalloc while it recorded the tape, and at 17.7 MB without it.
    n = 2000
    g = random_sparse_graph(n, avg_degree=4, feature_dim=16, seed=8)
    pe = np.random.default_rng(0).uniform(0, 1, size=(n, 16))
    params = init_params(ModelDims(d_x=16, k_pe=16, hidden=256, d_f=128,
                                   s=3))
    tracemalloc.start()
    map_features(g, pe, params)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 23e6


def test_map_features_validates_width():
    g = tiny_graph(num_nodes=5, d_x=3, seed=1)
    pe, params = make_model(g)
    wrong = np.zeros((5, 9))
    with pytest.raises(CheckpointError, match="got 12"):
        map_features(g, wrong, params)


def test_leaves_share_the_parameter_arrays():
    """An in-place update of a leaf's value is an update of the array it
    was made from, so the optimizer needs no copy back."""
    g = tiny_graph(num_nodes=5, d_x=3, seed=1)
    _, params = make_model(g)
    leaves = params.leaves()
    assert list(leaves) == list(params.arrays)
    for name, var in leaves.items():
        assert isinstance(var, ad.Var) and var.op == "param"
        assert var.value is params.arrays[name]
    leaves["proj_src"].value -= 1.0
    leaves["rec.b2"].value[0] = 7.0
    fresh = init_params(params.dims, seed=0)
    np.testing.assert_array_equal(params.arrays["proj_src"],
                                  fresh.arrays["proj_src"] - 1.0)
    assert params.arrays["rec.b2"][0] == 7.0


def test_project_trivial_and_oracle():
    g = tiny_graph(num_nodes=6, d_x=4, seed=6)
    pe, params = make_model(g, d_f=5, s=3, seed=7)
    sf = map_features(g, pe, params)

    params.arrays["proj_src"] = np.zeros((5, 3))
    source, _ = embed(sf, params)
    np.testing.assert_array_equal(source, np.zeros((6, 3)))

    params.arrays["proj_src"] = np.eye(5)[:, :3]
    source, _ = embed(sf, params)
    np.testing.assert_allclose(source, sf.source[:, :3], atol=1e-14)

    rng = np.random.default_rng(8)
    params.arrays["proj_src"] = rng.normal(size=(5, 3))
    source, target = embed(sf, params)
    np.testing.assert_allclose(source, sf.source @ params.arrays["proj_src"],
                               atol=1e-13)
    np.testing.assert_allclose(target, sf.target @ params.arrays["proj_dst"],
                               atol=1e-13)


def test_node_decoder_zero_weights_and_oracle():
    g = tiny_graph(num_nodes=7, d_x=4, seed=10)
    pe, params = make_model(g, d_f=5, s=3, seed=11)
    sf = map_features(g, pe, params)
    source, target = embed(sf, params)

    zeroed = HenclerParams(dims=params.dims,
                           arrays={k: v.copy() for k, v in params.arrays.items()})
    for key in ("rec.w1", "rec.b1", "rec.w2"):
        zeroed.arrays[key] = np.zeros_like(zeroed.arrays[key])
    zeroed.arrays["rec.b2"] = np.arange(4.0)
    recon = node_decoder(zeroed.leaves(), source, target).value
    np.testing.assert_allclose(recon, np.tile(np.arange(4.0), (7, 1)),
                               atol=1e-14)

    # straight-line oracle
    recon = node_decoder(params.leaves(), source, target).value
    joined = np.hstack([source @ params.arrays["proj_src"].T,
                        target @ params.arrays["proj_dst"].T])
    h = joined @ params.arrays["rec.w1"] + params.arrays["rec.b1"]
    h = np.where(h >= 0, h, LEAKY * h)
    want = h @ params.arrays["rec.w2"] + params.arrays["rec.b2"]
    np.testing.assert_allclose(recon, want, atol=1e-12)


def _back_projection_decoder(ps, src_emb, dst_emb):
    """The decoder's first layer as [e Uᵀ || r Vᵀ] @ rec.w1, through n × d_f
    back-projections."""
    joined = ad.concat(ad.matmul(src_emb, ad.transpose(ps["proj_src"])),
                       ad.matmul(dst_emb, ad.transpose(ps["proj_dst"])),
                       axis=1)
    hidden = ad.leaky_relu(ad.matmul(joined, ps["rec.w1"]) + ps["rec.b1"])
    return ad.matmul(hidden, ps["rec.w2"]) + ps["rec.b2"]


@pytest.mark.parametrize("tied", [False, True])
def test_node_decoder_matches_back_projection_association(tied):
    n, rng = 60, np.random.default_rng(18)
    dims = ModelDims(d_x=5, k_pe=3, hidden=8, d_f=16, s=3)
    params = init_params(dims, seed=19, tied=tied)
    embeddings = {"src_emb": rng.normal(size=(n, 3)),
                  "dst_emb": rng.normal(size=(n, 3))}
    weights = rng.normal(size=(n, dims.d_x))
    values, grads = [], []
    for decoder in (node_decoder, _back_projection_decoder):
        ps = HenclerParams(dims, {**params.arrays, **embeddings}).leaves()
        recon = decoder(ps, ps["src_emb"], ps["dst_emb"])
        values.append(recon.value)
        grads.append(ad.backward(ad.reduce_sum(ad.mul(recon, weights)), ps))
    got, want = values
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert grads[0].keys() == grads[1].keys()
    for name, want in grads[1].items():
        got = grads[0][name]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name


def test_training_step_holds_no_n_by_d_f_decoder_array():
    # One forward and backward at n = 2000 and default dims peaked at 40.5 MB
    # under tracemalloc with the back-projection decoder and the softplus
    # sigmoid held on the tape, and at 32.6 MB without them.
    n = 2000
    g = random_sparse_graph(n, avg_degree=4, feature_dim=8, seed=8)
    pe = np.random.default_rng(0).uniform(0, 1, size=(n, 16))
    x_aug = np.hstack([g.features, pe])
    ps = init_params(ModelDims(d_x=8, k_pe=16, hidden=256, d_f=128,
                               s=3)).leaves()
    sample = sample_edges(g, seed=0)
    tracemalloc.start()
    parts = build_total_loss(ps, x_aug, g.features, sample)
    ad.backward(parts["total"], wrt=ps)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 36e6


def test_edge_logits_cases():
    dims = ModelDims(d_x=2, k_pe=1, hidden=4, d_f=3, s=3)
    params = init_params(dims, seed=0)
    params.arrays["proj_src"] = np.eye(3)
    params.arrays["proj_dst"] = np.eye(3)
    ps = params.leaves()
    logit = edge_logits(ps, np.zeros((2, 3)), np.ones((2, 3)), [0], [1])
    assert logit.value[0] == pytest.approx(0.0)

    # ||e||^2 = ln 3 with U^T V = I gives logit ln 3 (probability 3/4)
    vec = np.tile(np.sqrt(np.log(3.0) / 3.0) * np.ones(3), (2, 1))
    logit = edge_logits(ps, vec, vec, [0], [1])
    assert logit.value[0] == pytest.approx(np.log(3.0), abs=1e-12)


def test_edge_logits_are_asymmetric_in_general():
    g = tiny_graph(num_nodes=6, d_x=4, seed=12)
    pe, params = make_model(g, seed=13)
    source, target = embed(map_features(g, pe, params), params)
    src, dst = np.divmod(np.arange(36), 6)
    logits = edge_logits(params.leaves(), source, target, src, dst)
    logits = logits.value.reshape(6, 6)
    assert np.max(np.abs(logits - logits.T)) > 1e-6  # asymmetry witness


def test_similarity_asymmetry_witness_on_random_init():
    g = tiny_graph(num_nodes=8, d_x=4, seed=14)
    pe, params = make_model(g, seed=15)
    sim = similarity_matrix(map_features(g, pe, params))
    assert np.max(np.abs(sim - sim.T)) > 1e-8


def test_embedding_shapes_follow_config():
    for n in (3, 9):
        g = tiny_graph(num_nodes=n, d_x=4, seed=n)
        pe, params = make_model(g, s=4)
        source, target = embed(map_features(g, pe, params), params)
        assert source.shape == (n, 4)
        assert target.shape == (n, 4)


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


@pytest.mark.parametrize("tied", [False, True])
def test_checkpoint_is_one_json_document_written_in_parts(tmp_path, tied):
    """The file holds the bytes of `json.dumps` of the whole document, yet
    the writer's traced peak stays under 180 bytes per value of the largest
    array. Measured on these (the CLI's default) dims: 32.5 with base64
    data (format 4); 139 for format 3's float lists written one parameter
    at a time; 225 tied and 295 untied when format 3's document was built
    and dumped whole."""
    params = init_params(ModelDims(d_x=16, k_pe=16, hidden=256, d_f=128, s=4),
                         seed=3, tied=tied)
    path = tmp_path / "checkpoint.json"
    tracemalloc.start()
    try:
        save_checkpoint(params, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    doc = {
        "version": 4,
        "dims": dataclasses.asdict(params.dims),
        "params": {
            name: {"shape": list(arr.shape), "data": float64_b64(arr)}
            for name, arr in params.arrays.items()
        },
    }
    assert path.read_bytes() == json.dumps(doc).encode()
    largest = max(arr.size for arr in params.arrays.values())
    assert peak < 180 * largest, peak / largest


def test_checkpoint_rejects_unknown_version(tmp_path):
    path = tmp_path / "checkpoint.json"
    path.write_text('{"version": 99}')
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(path)


def test_checkpoint_rejects_params_that_do_not_match_dims(tmp_path):
    """Each malformed checkpoint raises CheckpointError, and none allocates
    the arrays its dims or shapes declare: the loader's traced peak stays
    within a small multiple of the file's size."""
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
    extra["params"]["bogus"] = {"shape": [1], "data": float64_b64([0.0])}
    cases.append((extra, r"unexpected \['bogus'\]"))
    reshaped = json.loads(json.dumps(good))
    reshaped["params"]["proj_src"]["shape"].reverse()
    cases.append((reshaped, "'proj_src' has shape"))
    truncated = json.loads(json.dumps(good))
    truncated["params"]["proj_src"]["data"] = float64_b64(
        params.arrays["proj_src"].ravel()[:-1])
    cases.append((truncated, "malformed checkpoint"))
    for key, value in (("hidden", 10.0), ("s", True), ("d_f", -7),
                       ("k_pe", 0)):
        bad_dim = json.loads(json.dumps(good))
        bad_dim["dims"][key] = value
        cases.append((bad_dim, f"dims.{key} must be a positive integer"))
    # dims far too large for the parameters: rejected by shape, without
    # allocating the model the dims describe
    huge = json.loads(json.dumps(good))
    huge["dims"]["d_f"] = 10 ** 15
    cases.append((huge, "'src.w2' has shape"))
    # without dst.w1 the model reads as tied, so the other dst.* arrays
    # are unexpected; without only dst.w2 it reads as untied
    no_dst_w1 = json.loads(json.dumps(good))
    del no_dst_w1["params"]["dst.w1"]
    cases.append((no_dst_w1, r"missing \[\], unexpected \['dst.b1'"))
    no_dst_w2 = json.loads(json.dumps(good))
    del no_dst_w2["params"]["dst.w2"]
    cases.append((no_dst_w2, r"missing \['dst.w2'\]"))
    for value in (float("nan"), float("inf")):
        non_finite = json.loads(json.dumps(good))
        data = params.arrays["proj_src"].ravel().copy()
        data[3] = value
        non_finite["params"]["proj_src"]["data"] = float64_b64(data)
        cases.append((non_finite, "'proj_src' has non-finite values"))
    # data that is not base64 of 8 bytes per element of a shape of
    # non-negative ints; [-1, -n], [true, n] and [0.5, 2n] hold as many
    # elements as the data, and [10**15, 10**15] overflows int64
    raw = params.arrays["proj_src"].astype("<f8").tobytes()
    size = params.arrays["proj_src"].size
    for field, value in (
            ("data", "@@" + good["params"]["proj_src"]["data"]),
            ("data", base64.b64encode(raw + raw[:8]).decode()),
            ("data", params.arrays["proj_src"].ravel().tolist()),
            ("data", 0.0), ("data", None), ("shape", [-1, -size]),
            ("shape", [True, size]), ("shape", [0.5, 2 * size]),
            ("shape", [1.5, size]), ("shape", [10 ** 15, 10 ** 15]),
            ("shape", size)):
        undecodable = json.loads(json.dumps(good))
        undecodable["params"]["proj_src"][field] = value
        cases.append((undecodable, "malformed checkpoint"))
    # the format before the spectrum was fixed: version 1, with sv_logits
    old_format = format_3_doc(good)
    old_format["version"] = 1
    old_format["params"]["sv_logits"] = {"shape": [4], "data": [0.0] * 4}
    cases.append((old_format, "unsupported checkpoint version: 1"))
    cases.append((version_2_doc(good), "unsupported checkpoint version: 2"))
    # the format before the parameters were stored as bytes: version 3
    cases.append((format_3_doc(good), "unsupported checkpoint version: 3"))
    for doc, message in cases:
        path.write_text(json.dumps(doc))
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match=message):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * path.stat().st_size, (message, peak)
    path.write_text('{"version": 4,')
    with pytest.raises(CheckpointError, match="malformed JSON"):
        load_checkpoint(path)


def test_failed_checkpoint_write_keeps_the_old_file(tmp_path):
    """A write that fails partway (here on the third parameter, as on a
    full disk) leaves an existing checkpoint's bytes as they were and no
    temporary file behind."""
    _, params = make_model(tiny_graph(num_nodes=5, d_x=3, seed=16), seed=17)
    path = tmp_path / "checkpoint.json"
    save_checkpoint(params, path)
    before = path.read_bytes()

    class FailsOnThird(dict):
        def items(self):
            for i, item in enumerate(super().items()):
                if i == 2:
                    raise OSError(errno.ENOSPC, "No space left on device")
                yield item

    failing = HenclerParams(params.dims, FailsOnThird(params.arrays))
    with pytest.raises(OSError, match="No space left"):
        save_checkpoint(failing, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.json"]
