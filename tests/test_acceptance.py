"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The heterophily-gain and ablation criteria share one set of training
runs (module-scoped fixture). The dataset-backed criterion is skipped, not
failed, when the external files are absent.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from hencler import gradients as ad
from hencler.cli import run_benchmark
from hencler.dual import bicluster, dual_projections, eigen_form_check, \
    stationarity_residual
from hencler.evaluate import nmi, pairwise_f1
from hencler.graphio import load_graph, random_walk_pe
from hencler.linalg import kmeans
from hencler.loss import build_total_loss, sample_edges
from hencler.model import ModelDims, SimilarityFactor, init_params
from hencler.synthetic import heterophilous_blobs
from hencler.trainer import TrainConfig, train
import reference
from reference import center_dual, center_primal, directional_check, \
    fenchel_young_check, frobenius_relerr, grad_check, \
    planted_block_similarity

TEXAS_DIR = Path(__file__).resolve().parent.parent / "data" / "texas"


def report(criterion, ok, detail):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def gain_graph():
    g = heterophilous_blobs(num_nodes=300, num_classes=3, avg_degree=10,
                            feature_dim=16, class_sep=1.6, seed=0)
    baseline = np.mean([nmi(kmeans(g.features, 3, restarts=10, seed=s),
                            g.labels) for s in range(5)])
    return g, baseline


@pytest.fixture(scope="module")
def trained_modes(gain_graph):
    g, _ = gain_graph
    results = {}
    for mode in ("all", "wksvd", "reconstr"):
        bests = []
        for seed in range(5):
            config = TrainConfig(num_clusters=3, epochs=300, seed=seed,
                                 loss=mode)
            _, record = train(g, config)
            bests.append(record.best_nmi)
        results[mode] = bests
    return results


def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    worst = 0.0
    for seed in range(5):
        g = heterophilous_blobs(num_nodes=10, num_classes=3, avg_degree=4,
                                feature_dim=6, seed=seed)
        pe = random_walk_pe(g, 4)
        dims = ModelDims(d_x=6, k_pe=4, hidden=256, d_f=128, s=6)
        params = init_params(dims, seed=seed)
        rng = np.random.default_rng(seed + 1000)
        for key in params.arrays:  # generic random point near the init
            params.arrays[key] = params.arrays[key] \
                + 0.05 * rng.normal(size=params.arrays[key].shape)
        ps = params.leaves()
        x_aug = np.hstack([g.features, pe])
        sample = sample_edges(g, seed=100 + seed)

        def builder(p):
            return build_total_loss(p, x_aug, g.features, sample)["total"]

        worst = max(worst, grad_check(builder, ps, step=1e-5,
                                      coords_per_param=20, seed=seed))
    elapsed = time.perf_counter() - started
    report(1, worst < 1e-4 and elapsed < 60.0,
           f"max relative gradient error {worst:.3e} (< 1e-4), "
           f"runtime {elapsed:.1f}s (< 60s)")


def criterion_1_point(seed):
    """Criterion 1's loss builder and leaves for one seed: a 10-node graph
    at default dims, the parameters moved off the init by 0.05 noise."""
    g = heterophilous_blobs(num_nodes=10, num_classes=3, avg_degree=4,
                            feature_dim=6, seed=seed)
    x_aug = np.hstack([g.features, random_walk_pe(g, 4)])
    params = init_params(ModelDims(d_x=6, k_pe=4, hidden=256, d_f=128, s=6),
                         seed=seed)
    rng = np.random.default_rng(seed + 1000)
    for key in params.arrays:
        params.arrays[key] = params.arrays[key] \
            + 0.05 * rng.normal(size=params.arrays[key].shape)
    sample = sample_edges(g, seed=100 + seed)

    def builder(p):
        return build_total_loss(p, x_aug, g.features, sample)["total"]

    return builder, params.leaves()


# Over init seeds 1000-1099, held out while the check was written, the worst
# directional error per seed had a median of 3.5e-8 and a maximum of 1.5e-6.
# A gradient off by a relative 1e-5 reads 1.0e-5.
DIRECTIONAL_BOUND = 5e-6


def test_directional_gradient_check(monkeypatch):
    """The tape's gradient along 3 random unit directions per parameter
    array matches the central difference, on criterion 1's setup, to a
    bound that a gradient scaled by 1 + 1e-5 on one array exceeds."""
    worst = max(directional_check(*criterion_1_point(seed), seed=seed)
                for seed in range(5))
    assert worst < DIRECTIONAL_BOUND, worst

    def scaled(loss, wrt):
        grads = ad.backward(loss, wrt)
        grads["src.w1"] = grads["src.w1"] * (1.0 + 1e-5)
        return grads

    monkeypatch.setattr(reference, "backward", scaled)
    control = directional_check(*criterion_1_point(0), seed=0)
    assert control > DIRECTIONAL_BOUND, control


def test_criterion_2_primal_dual_consistency():
    rng = np.random.default_rng(42)
    phi = rng.uniform(0.1, 1.1, size=(20, 8))
    psi = rng.uniform(0.1, 1.1, size=(15, 8))
    sim = phi @ psi.T
    _, _, solution = bicluster(sim, k=8, seed=0)
    sf = SimilarityFactor(phi, psi)
    stat = stationarity_residual(sf, solution, *dual_projections(sf, solution))
    eig = eigen_form_check(sim, solution)
    report(2, stat < 1e-8 and eig < 1e-8,
           f"stationarity residual {stat:.3e}, eigen-form residual {eig:.3e} "
           "(both < 1e-8)")


def test_criterion_3_centering_equivalence():
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        phi = rng.normal(size=(int(rng.integers(2, 51)),
                               int(rng.integers(1, 17))))
        psi = rng.normal(size=(int(rng.integers(2, 51)), phi.shape[1]))
        w1 = rng.uniform(0.1, 3.0, size=phi.shape[0])
        w2 = rng.uniform(0.1, 3.0, size=psi.shape[0])
        via_primal = center_primal(phi, w1) @ center_primal(psi, w2).T
        via_dual = center_dual(phi @ psi.T, w1, w2)
        worst = max(worst, frobenius_relerr(via_dual, via_primal))
    report(3, worst < 1e-10,
           f"max Frobenius relative error {worst:.3e} over 50 trials "
           "(< 1e-10)")


def test_criterion_4_fenchel_young():
    violations = fenchel_young_check(10_000, dims=8, seed=7)
    report(4, violations == 0,
           f"{violations} violations in 10^4 draws incl. equality cases "
           "(expected 0)")


def test_criterion_5_planted_bicluster_recovery():
    failures = []
    for seed in range(5):
        sim, labels = planted_block_similarity([12, 10, 8], noise=0.05,
                                               seed=seed)
        rows, cols, _ = bicluster(sim, k=3, seed=seed)
        row_nmi = nmi(rows, labels)
        col_nmi = nmi(cols, labels)
        if row_nmi != 1.0 or col_nmi != 1.0:
            failures.append((seed, row_nmi, col_nmi))
    report(5, not failures,
           f"row and column NMI 1.0 on all 5 seeds (failures: {failures})")


def test_criterion_6_heterophily_gain(gain_graph, trained_modes):
    g, baseline = gain_graph
    started = time.perf_counter()
    model_mean = float(np.mean(trained_modes["all"]))
    elapsed = time.perf_counter() - started
    in_band = 0.2 <= baseline <= 0.5
    report(6, in_band and model_mean >= baseline + 0.10,
           f"feature-kmeans NMI {baseline:.3f} (in [0.2, 0.5]); "
           f"model mean best-NMI {model_mean:.3f} "
           f">= {baseline + 0.10:.3f}")
    assert elapsed < 300.0


@pytest.mark.skipif(not TEXAS_DIR.exists(),
                    reason="external Texas dataset files not present")
def test_criterion_7_texas_band():
    g = load_graph(TEXAS_DIR / "edges.tsv", TEXAS_DIR / "features.tsv",
                   TEXAS_DIR / "labels.tsv", directed=True)
    nmis, f1s = [], []
    for seed in range(10):
        config = TrainConfig(num_clusters=g.num_classes, epochs=300,
                             seed=seed)
        _, record = train(g, config)
        nmis.append(record.best_nmi)
        f1s.append(record.best_f1)
    mean_nmi = 100.0 * float(np.mean(nmis))
    mean_f1 = 100.0 * float(np.mean(f1s))
    report(7, 33.0 <= mean_nmi <= 54.0 and 60.0 <= mean_f1 <= 80.0,
           f"Texas mean best NMI {mean_nmi:.2f} (band [33, 54]), "
           f"mean best F1 {mean_f1:.2f} (band [60, 80])")


def test_criterion_8_linear_scaling():
    result = run_benchmark([1000, 2000, 4000, 8000], epochs=30, seed=0,
                           measure_memory=True)
    r_squared = result["r_squared"]
    peaks = {row["n"]: row["peak_mb"] for row in result["rows"]}
    ratio = peaks[8000] / peaks[1000]
    report(8, r_squared >= 0.95 and ratio <= 9.0,
           f"linear fit R^2 {r_squared:.4f} (>= 0.95); "
           f"peak memory ratio 8000:1000 = {ratio:.2f} (<= 9)")


def test_criterion_9_metric_oracles():
    from test_evaluate import f1_bruteforce, nmi_bruteforce
    rng = np.random.default_rng(9)
    worst_nmi = worst_f1 = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 31))
        pred = rng.integers(0, int(rng.integers(1, 5)) + 1, size=n)
        truth = rng.integers(0, int(rng.integers(1, 5)) + 1, size=n)
        worst_nmi = max(worst_nmi, abs(
            nmi(pred, truth) - nmi_bruteforce(pred.tolist(), truth.tolist())))
        worst_f1 = max(worst_f1, abs(
            pairwise_f1(pred, truth)
            - f1_bruteforce(pred.tolist(), truth.tolist())))
    hand = pairwise_f1(np.array([0, 0, 0, 1]), np.array([0, 0, 1, 1]))
    report(9, worst_nmi < 1e-10 and worst_f1 < 1e-10 and hand == 0.4,
           f"oracle deviations nmi {worst_nmi:.2e}, f1 {worst_f1:.2e} "
           f"(< 1e-10); hand case F1 = {hand} (exactly 0.4)")


def test_criterion_10_ablation_ordering(trained_modes):
    full = float(np.mean(trained_modes["all"]))
    details = []
    ok = True
    for mode in ("wksvd", "reconstr"):
        ablated = float(np.mean(trained_modes[mode]))
        details.append(f"{mode} {ablated:.3f}")
        ok = ok and full >= ablated - 0.02
    report(10, ok,
           f"full model mean best-NMI {full:.3f} >= each ablation - 0.02 "
           f"({', '.join(details)})")
