import tracemalloc

import numpy as np
import pytest

from hencler import gradients as ad
from hencler import trainer
from hencler.graphio import random_walk_pe
from hencler.linalg import kmeans
from hencler.model import feature_maps, projections
from hencler.synthetic import heterophilous_blobs, random_sparse_graph
from hencler.trainer import AdamState, TrainConfig, TrainingDiverged, \
    optimizer_step, train


def small_config(**overrides):
    base = dict(num_clusters=2, epochs=5, hidden=16, d_f=8, k_pe=4, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def test_train_smoke_records_every_epoch():
    g = heterophilous_blobs(num_nodes=20, num_classes=2, avg_degree=4,
                            feature_dim=6, seed=0)
    params, record = train(g, small_config())
    assert len(record.epoch_losses) == 5
    assert all(np.isfinite(e["total"]) for e in record.epoch_losses)
    assert len(record.evals) == 5
    assert record.best_nmi is not None


def test_train_same_seed_bit_identical():
    g = heterophilous_blobs(num_nodes=24, num_classes=2, avg_degree=4,
                            feature_dim=6, seed=1)
    _, first = train(g, small_config(epochs=4))
    _, second = train(g, small_config(epochs=4))
    assert first.to_dict() == second.to_dict()  # wall time excluded
    _, other = train(g, small_config(epochs=4, seed=9))
    assert first.to_dict() != other.to_dict()


def test_train_requires_labels_only_when_tracking():
    g = random_sparse_graph(20, avg_degree=4, feature_dim=6, seed=2)
    with pytest.raises(ValueError, match="labels"):
        train(g, small_config())
    params, record = train(g, small_config(eval_every=0))
    assert record.evals == []
    assert record.best_nmi is None


def test_train_projection_keeps_unit_columns():
    g = heterophilous_blobs(num_nodes=20, num_classes=2, avg_degree=4,
                            feature_dim=6, seed=3)
    params, _ = train(g, small_config())
    for key in ("proj_src", "proj_dst"):
        norms = np.linalg.norm(params.arrays[key], axis=0)
        np.testing.assert_allclose(norms, 1.0, atol=1e-10)


def test_tie_maps_trains_single_mlp():
    g = heterophilous_blobs(num_nodes=20, num_classes=2, avg_degree=4,
                            feature_dim=6, seed=4)
    params, _ = train(g, small_config(tie_maps=True))
    assert params.tied
    assert not any(k.startswith("dst.") for k in params.arrays)


@pytest.mark.parametrize("eval_every", [1, 0], ids=["tracked", "untracked"])
def test_record_embeddings_are_the_returned_parameters_forward(eval_every):
    """The record carries the final embeddings: the forward of the returned
    parameters, bit for bit, whether the last epoch is tracked or not."""
    g = heterophilous_blobs(num_nodes=20, num_classes=2, avg_degree=4,
                            feature_dim=6, seed=11)
    pe = random_walk_pe(g, 4)
    params, record = train(g, small_config(eval_every=eval_every), pe=pe)
    ps = params.leaves()
    want = projections(ps, *feature_maps(ps, np.hstack([g.features, pe])))
    assert len(record.embeddings) == 2
    for got, expected in zip(record.embeddings, want):
        assert got.shape == (20, 4)  # s = 2 * num_clusters
        np.testing.assert_array_equal(got, expected.value)
    assert "embeddings" not in record.to_dict()


def leaf(value):
    return ad.Var(np.array(value, dtype=np.float64), op="param")


def test_adam_zero_grads_leave_params_unchanged():
    ps = {"w": leaf([1.0, -2.0])}
    state = AdamState.for_params(ps)
    optimizer_step(ps, {"w": np.zeros(2)}, state, lr=0.1)
    np.testing.assert_array_equal(ps["w"].value, [1.0, -2.0])


def test_adam_single_step_hand_value():
    ps = {"w": leaf([0.0])}
    state = AdamState.for_params(ps)
    grad = np.array([0.3])
    optimizer_step(ps, {"w": grad}, state, lr=0.01)
    # bias-corrected first step: m_hat = g, v_hat = g^2
    expected = -0.01 * 0.3 / (np.sqrt(0.3 ** 2) + 1e-8)
    assert ps["w"].value[0] == pytest.approx(expected, rel=1e-12)


def test_adam_shape_mismatch_rejected():
    ps = {"w": leaf(np.zeros((2, 2)))}
    state = AdamState.for_params(ps)
    with pytest.raises(ValueError, match="shape"):
        optimizer_step(ps, {"w": np.zeros(3)}, state, lr=0.1)


def test_adam_converges_on_quadratic_bowl():
    ps = {"x": leaf([0.0])}
    state = AdamState.for_params(ps)
    target = 0.3
    for _ in range(500):
        grad = 2.0 * (ps["x"].value - target)
        optimizer_step(ps, {"x": grad}, state, lr=0.01)
    assert abs(ps["x"].value[0] - target) < 1e-4


def test_node_reconstruction_learns():
    g = random_sparse_graph(30, avg_degree=4, feature_dim=6, seed=5)
    config = small_config(epochs=300, eval_every=0, loss="reconstr")
    params, record = train(g, config)
    first = record.epoch_losses[0]["node_rec"]
    last = min(e["node_rec"] for e in record.epoch_losses)
    assert last <= 0.5 * first


def test_divergence_reports_epoch():
    """A NaN learning rate turns the parameters NaN in the first step, so the
    loss first goes non-finite at epoch 1, whether tracking is on or not.
    TrainConfig rejects a NaN learning rate, so it is set after
    construction."""
    g = heterophilous_blobs(num_nodes=16, num_classes=2, avg_degree=4,
                            feature_dim=4, seed=6)
    for eval_every in (1, 0):
        config = small_config(eval_every=eval_every)
        config.learning_rate = np.nan
        with pytest.raises(TrainingDiverged, match="epoch 1:"):
            train(g, config)


@pytest.mark.parametrize("overrides", [{}, {"tie_maps": True}],
                         ids=["float64", "tied"])
def test_tracking_reuses_training_forward(monkeypatch, overrides):
    """Epoch e scored on epoch e + 1's training forward gets the bits of a
    run that ends at epoch e and scores it with a separate forward."""
    g = heterophilous_blobs(num_nodes=24, num_classes=2, avg_degree=4,
                            feature_dim=6, seed=10)
    seen = []

    def recording_kmeans(points, k, restarts=10, seed=0):
        seen.append(points.copy())
        return kmeans(points, k, restarts=restarts, seed=seed)

    monkeypatch.setattr(trainer, "kmeans", recording_kmeans)
    _, every = train(g, small_config(epochs=6, eval_every=1, **overrides))
    every_points = list(seen)
    assert [e["epoch"] for e in every.evals] == list(range(6))
    for epoch in range(6):
        seen.clear()
        _, last = train(g, small_config(epochs=epoch + 1,
                                        eval_every=epoch + 1, **overrides))
        assert last.evals == [every.evals[epoch]]
        np.testing.assert_array_equal(seen[0], every_points[epoch])


def test_training_memory_grows_linearly():
    peaks = {}
    for n in (1000, 4000, 10_000):
        g = random_sparse_graph(n, avg_degree=4, feature_dim=8, seed=8)
        pe = np.random.default_rng(0).uniform(0, 1, size=(n, 4))
        config = small_config(epochs=2, eval_every=0, hidden=32, d_f=16)
        tracemalloc.start()
        train(g, config, pe=pe)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        peaks[n] = peak
    assert peaks[4000] < 7 * peaks[1000]
    assert peaks[10_000] < 16 * peaks[1000]
    assert peaks[10_000] < 8 * 10_000 * 10_000 / 2  # never an n x n buffer


def default_dims_peak(epochs):
    """tracemalloc peak of `train` at n = 2000 and default dims."""
    n = 2000
    g = random_sparse_graph(n, avg_degree=4, feature_dim=8, seed=8)
    pe = np.random.default_rng(0).uniform(0, 1, size=(n, 16))
    config = TrainConfig(num_clusters=3, epochs=epochs, eval_every=0)
    tracemalloc.start()
    train(g, config, pe=pe)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


def test_training_tape_keeps_only_what_backward_reads():
    # A 3-epoch run at default dims peaked at 154 MB under tracemalloc when
    # every tape node held its value, at 71 MB once nodes hold only the
    # arrays their backward rules read, and at 37 MB once each epoch's tape
    # is freed before the next forward.
    assert default_dims_peak(3) < 105e6


def test_only_one_training_tape_is_alive_at_a_time():
    # Each epoch frees its tape before the next forward, so later epochs
    # peak no higher than the first. Keeping the previous tape through the
    # next forward made 3 epochs peak 1.39 times as high as 1.
    assert default_dims_peak(3) <= 1.05 * default_dims_peak(1)


def test_best_tracking_is_running_max():
    g = heterophilous_blobs(num_nodes=24, num_classes=2, avg_degree=4,
                            feature_dim=6, seed=9)
    _, record = train(g, small_config(epochs=8))
    nmis = [e["nmi"] for e in record.evals]
    f1s = [e["f1"] for e in record.evals]
    assert record.best_nmi == max(nmis)
    assert record.best_f1 == max(f1s)
    best_entry = next(e for e in record.evals
                      if e["epoch"] == record.best_nmi_epoch)
    assert best_entry["nmi"] == record.best_nmi
