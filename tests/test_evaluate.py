import itertools

import numpy as np
import pytest

from hencler.evaluate import assign_clusters, nmi, pairwise_f1
from hencler.model import EmbeddingPair


def nmi_bruteforce(pred, truth):
    """Contingency-table oracle with explicit probability loops."""
    n = len(pred)
    ps = sorted(set(pred))
    ts = sorted(set(truth))
    info = 0.0
    for a in ps:
        for b in ts:
            joint = sum(1 for p, t in zip(pred, truth)
                        if p == a and t == b) / n
            if joint == 0:
                continue
            pa = sum(1 for p in pred if p == a) / n
            pb = sum(1 for t in truth if t == b) / n
            info += joint * np.log(joint / (pa * pb))
    hp = -sum((sum(1 for p in pred if p == a) / n)
              * np.log(sum(1 for p in pred if p == a) / n) for a in ps)
    ht = -sum((sum(1 for t in truth if t == b) / n)
              * np.log(sum(1 for t in truth if t == b) / n) for b in ts)
    identical = len(ps) == len(ts) and all(
        len({t for p, t in zip(pred, truth) if p == a}) == 1 for a in ps) \
        and all(len({p for p, t in zip(pred, truth) if t == b}) == 1
                for b in ts)
    if identical:
        return 1.0
    if hp == 0.0 or ht == 0.0:
        return 0.0
    return info / (0.5 * (hp + ht))


def f1_bruteforce(pred, truth):
    """All-pairs double loop."""
    tp = fp = fn = 0
    for i, j in itertools.combinations(range(len(pred)), 2):
        same_pred = pred[i] == pred[j]
        same_truth = truth[i] == truth[j]
        tp += same_pred and same_truth
        fp += same_pred and not same_truth
        fn += same_truth and not same_pred
    if tp + fp == 0 and tp + fn == 0:
        return 1.0
    if tp + fp == 0 or tp + fn == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def test_nmi_relabeling_gives_one():
    truth = np.array([0, 0, 1, 1, 2, 2])
    pred = np.array([2, 2, 0, 0, 1, 1])
    assert nmi(pred, truth) == 1.0


def test_nmi_single_cluster_vs_single_class():
    assert nmi(np.zeros(5, dtype=int), np.zeros(5, dtype=int)) == 1.0
    assert nmi(np.zeros(4, dtype=int), np.array([0, 0, 1, 1])) == 0.0


def test_nmi_hand_zero_information():
    assert nmi(np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])) == 0.0


def test_nmi_independent_labelings_near_zero():
    rng = np.random.default_rng(0)
    pred = rng.integers(0, 2, size=2000)
    truth = rng.integers(0, 2, size=2000)
    assert nmi(pred, truth) < 0.05


def test_nmi_matches_bruteforce_on_random_labelings():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(2, 31))
        pred = rng.integers(0, int(rng.integers(1, 5)) + 1, size=n)
        truth = rng.integers(0, int(rng.integers(1, 5)) + 1, size=n)
        assert nmi(pred, truth) == pytest.approx(
            nmi_bruteforce(pred.tolist(), truth.tolist()), abs=1e-10)


def test_nmi_length_mismatch():
    with pytest.raises(ValueError):
        nmi(np.zeros(3, dtype=int), np.zeros(4, dtype=int))


def test_f1_identical_partitions():
    assert pairwise_f1(np.array([0, 0, 1, 1]), np.array([1, 1, 0, 0])) == 1.0


def test_f1_all_singletons_vs_coclassed():
    assert pairwise_f1(np.arange(4), np.array([0, 0, 1, 1])) == 0.0


def test_f1_hand_case():
    assert pairwise_f1(np.array([0, 0, 0, 1]),
                       np.array([0, 0, 1, 1])) == pytest.approx(0.4)


def test_f1_matches_double_loop():
    rng = np.random.default_rng(2)
    for _ in range(60):
        n = int(rng.integers(2, 51))
        pred = rng.integers(0, 4, size=n)
        truth = rng.integers(0, 4, size=n)
        assert pairwise_f1(pred, truth) == pytest.approx(
            f1_bruteforce(pred.tolist(), truth.tolist()), abs=1e-12)


def test_metrics_invariant_under_relabeling_and_permutation():
    rng = np.random.default_rng(3)
    pred = rng.integers(0, 3, size=40)
    truth = rng.integers(0, 3, size=40)
    relabel = np.array([2, 0, 1])
    assert nmi(relabel[pred], truth) == pytest.approx(nmi(pred, truth),
                                                      abs=1e-12)
    assert pairwise_f1(relabel[pred], truth) == pytest.approx(
        pairwise_f1(pred, truth), abs=1e-12)
    perm = rng.permutation(40)
    assert nmi(pred[perm], truth[perm]) == pytest.approx(nmi(pred, truth),
                                                         abs=1e-12)
    assert pairwise_f1(pred[perm], truth[perm]) == pytest.approx(
        pairwise_f1(pred, truth), abs=1e-12)


def test_assign_clusters_concatenates_both_embeddings():
    rng = np.random.default_rng(4)
    # classes separated only in the target-side embedding
    target = np.vstack([rng.normal(size=(20, 2)) + [8, 0],
                        rng.normal(size=(20, 2)) - [8, 0]])
    source = rng.normal(size=(40, 2))
    emb = EmbeddingPair(source=source, target=target)
    labels = assign_clusters(emb, 2, seed=0)
    truth = np.array([0] * 20 + [1] * 20)
    assert nmi(labels, truth) == 1.0


def test_assign_clusters_k1_and_equivariance():
    rng = np.random.default_rng(5)
    emb = EmbeddingPair(source=rng.normal(size=(10, 3)),
                        target=rng.normal(size=(10, 3)))
    assert np.all(assign_clusters(emb, 1, seed=0) == 0)

    # equivariance needs an unambiguous optimum: use separated blobs
    centers = np.array([[10.0, 0.0], [-10.0, 0.0], [0.0, 10.0]])
    truth = np.repeat(np.arange(3), 8)
    pts = centers[truth] + 0.05 * rng.normal(size=(24, 2))
    emb2 = EmbeddingPair(source=pts, target=pts)
    base = assign_clusters(emb2, 3, seed=0)
    perm = rng.permutation(24)
    permuted = EmbeddingPair(source=emb2.source[perm],
                             target=emb2.target[perm])
    relabeled = assign_clusters(permuted, 3, seed=0)
    # same partition up to cluster naming
    assert nmi(relabeled, base[perm]) == 1.0
