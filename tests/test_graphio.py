import os
import sys

import numpy as np
import pytest

from hencler import graphio
from hencler.graphio import AttributedGraph, GraphFormatError, \
    _walk_operators, edge_homophily, load_graph, random_walk_pe, symmetrize


def write_dataset(tmp_path, edges, features, labels=None):
    edge_path = tmp_path / "edges.tsv"
    edge_path.write_text("".join(f"{u}\t{v}\n" for u, v in edges))
    feat_path = tmp_path / "features.tsv"
    feat_path.write_text("".join("\t".join(str(x) for x in row) + "\n"
                                 for row in features))
    label_path = None
    if labels is not None:
        label_path = tmp_path / "labels.tsv"
        label_path.write_text("".join(f"{y}\n" for y in labels))
    return edge_path, feat_path, label_path


def test_load_minimal_directed(tmp_path):
    edge_path, feat_path, _ = write_dataset(
        tmp_path, [(0, 1)], [[0.1, 0.2, 0.3], [1.0, 2.0, 3.0]])
    g = load_graph(edge_path, feat_path, directed=True)
    assert g.num_nodes == 2
    assert g.num_edges == 1
    assert g.feature_dim == 3
    np.testing.assert_array_equal(g.edges, [[0, 1]])


def test_undirected_stores_both_orientations(tmp_path):
    edge_path, feat_path, _ = write_dataset(
        tmp_path, [(0, 1)], [[0.0], [1.0]])
    g = load_graph(edge_path, feat_path, directed=False)
    assert g.num_edges == 2
    np.testing.assert_array_equal(g.edges, [[0, 1], [1, 0]])


def test_out_of_range_index_reports_line(tmp_path):
    edge_path, feat_path, _ = write_dataset(
        tmp_path, [(0, 1), (0, 5)], [[0.0], [1.0], [2.0]])
    with pytest.raises(GraphFormatError, match=r"edges\.tsv:2"):
        load_graph(edge_path, feat_path)


def test_malformed_lines_report_location(tmp_path):
    feat_path = tmp_path / "features.tsv"
    feat_path.write_text("0.0\t1.0\n0.5\n")
    edge_path = tmp_path / "edges.tsv"
    edge_path.write_text("0\t1\n")
    with pytest.raises(GraphFormatError, match=r"features\.tsv:2"):
        load_graph(edge_path, feat_path)

    feat_path.write_text("0.0\n1.0\n")
    edge_path.write_text("0 1\n")  # wrong separator
    with pytest.raises(GraphFormatError, match=r"edges\.tsv:1"):
        load_graph(edge_path, feat_path)

    edge_path.write_text("# comments only\n")
    with pytest.raises(GraphFormatError, match="no edges"):
        load_graph(edge_path, feat_path)


def test_non_finite_feature_rejected(tmp_path):
    edge_path, feat_path, _ = write_dataset(tmp_path, [(0, 1)],
                                            [[0.0], [1.0]])
    feat_path.write_text("0.0\nnan\n")
    with pytest.raises(GraphFormatError, match=r"features\.tsv:2"):
        load_graph(edge_path, feat_path)


def test_label_count_mismatch(tmp_path):
    edge_path, feat_path, label_path = write_dataset(
        tmp_path, [(0, 1)], [[0.0], [1.0]], labels=[0])
    with pytest.raises(GraphFormatError, match="1 labels for 2 nodes"):
        load_graph(edge_path, feat_path, label_path)


def test_comments_and_duplicates(tmp_path):
    edge_path = tmp_path / "edges.tsv"
    edge_path.write_text("# header\n0\t1\n0\t1\n1\t0\n")
    feat_path = tmp_path / "features.tsv"
    feat_path.write_text("0.0\n1.0\n")
    g = load_graph(edge_path, feat_path, directed=True)
    assert g.num_edges == 2  # duplicates collapse, both orientations kept


def test_symmetrize_idempotent(tmp_path):
    edge_path, feat_path, _ = write_dataset(
        tmp_path, [(0, 1), (2, 0)], [[0.0], [1.0], [2.0]])
    g = load_graph(edge_path, feat_path, directed=True)
    once = symmetrize(g)
    twice = symmetrize(once)
    np.testing.assert_array_equal(once.edges, twice.edges)
    assert not once.directed


def test_homophily_hand_cases():
    feats = np.zeros((2, 1))
    same = AttributedGraph(2, True, np.array([[0, 1]]), feats,
                           labels=np.array([1, 1]), num_classes=2)
    diff = AttributedGraph(2, True, np.array([[0, 1]]), feats,
                           labels=np.array([0, 1]), num_classes=2)
    assert edge_homophily(same) == 1.0
    assert edge_homophily(diff) == 0.0


def test_homophily_alternating_cycle():
    # 4-cycle 0-1-2-3-0 with labels 0,1,0,1: every edge crosses classes
    edges = np.array([[0, 1], [1, 2], [2, 3], [3, 0]])
    g = AttributedGraph(4, True, edges, np.zeros((4, 1)),
                        labels=np.array([0, 1, 0, 1]), num_classes=2)
    assert edge_homophily(g) == 0.0


def test_homophily_order_invariant_and_requires_labels(rng):
    edges = rng.integers(0, 10, size=(30, 2))
    edges = edges[edges[:, 0] != edges[:, 1]]
    labels = rng.integers(0, 3, size=10)
    g1 = AttributedGraph(10, True, edges, np.zeros((10, 1)), labels, 3)
    g2 = AttributedGraph(10, True, edges[::-1], np.zeros((10, 1)), labels, 3)
    assert edge_homophily(g1) == edge_homophily(g2)
    bare = AttributedGraph(10, True, edges, np.zeros((10, 1)))
    with pytest.raises(ValueError):
        edge_homophily(bare)


def test_pe_directed_two_cycle():
    g = AttributedGraph(2, True, np.array([[0, 1], [1, 0]]), np.zeros((2, 1)))
    pe = random_walk_pe(g, 2)
    np.testing.assert_allclose(pe.values, [[0.0, 1.0], [0.0, 1.0]])


def test_pe_isolated_node():
    g = AttributedGraph(1, True, np.zeros((0, 2), dtype=np.int64),
                        np.zeros((1, 1)))
    pe = random_walk_pe(g, 3)
    np.testing.assert_array_equal(pe.values, [[0.0, 0.0, 0.0]])


def test_pe_triangle():
    edges = np.array([[0, 1], [1, 0], [1, 2], [2, 1], [0, 2], [2, 0]])
    g = AttributedGraph(3, False, edges, np.zeros((3, 1)))
    pe = random_walk_pe(g, 2)
    np.testing.assert_allclose(pe.values,
                               [[0.0, 0.5]] * 3, atol=1e-14)


def test_pe_entries_in_unit_interval_and_equivariant(rng):
    n = 20
    edges = rng.integers(0, n, size=(60, 2))
    edges = np.unique(edges[edges[:, 0] != edges[:, 1]], axis=0)
    g = AttributedGraph(n, True, edges, rng.normal(size=(n, 3)))
    pe = random_walk_pe(g, 5)
    assert np.all(pe.values >= 0.0) and np.all(pe.values <= 1.0)

    perm = rng.permutation(n)
    relabeled = AttributedGraph(n, True, perm[g.edges],
                                g.features[np.argsort(perm)])
    # node v in g maps to perm[v]; PE rows must permute identically
    pe_perm = random_walk_pe(relabeled, 5)
    np.testing.assert_allclose(pe_perm.values[perm], pe.values, atol=1e-12)


def test_pe_self_loop_contributes_to_diagonal():
    g = AttributedGraph(2, True, np.array([[0, 0], [0, 1], [1, 0]]),
                        np.zeros((2, 1)))
    pe = random_walk_pe(g, 1)
    assert pe.values[0, 0] == pytest.approx(0.5)  # self-loop kept
    assert pe.values[1, 0] == 0.0


def test_pe_block_size_independence(rng):
    n = 30
    edges = rng.integers(0, n, size=(90, 2))
    edges = np.unique(edges[edges[:, 0] != edges[:, 1]], axis=0)
    g = AttributedGraph(n, True, edges, np.zeros((n, 2)))
    for graph in (g, symmetrize(g)):
        a = random_walk_pe(graph, 4, block_size=7)
        b = random_walk_pe(graph, 4, block_size=512)
        np.testing.assert_allclose(a.values, b.values, atol=1e-14)


def dense_return_probabilities(g, num_steps):
    """diag(P^t), t = 1..num_steps, from dense matrix powers of P = D^-1 A."""
    adj = np.zeros((g.num_nodes, g.num_nodes))
    np.add.at(adj, (g.edges[:, 0], g.edges[:, 1]), 1.0)
    out_deg = adj.sum(axis=1, keepdims=True)
    transition = np.divide(adj, out_deg, out=np.zeros_like(adj),
                           where=out_deg > 0)
    return np.stack([np.diag(np.linalg.matrix_power(transition, t))
                     for t in range(1, num_steps + 1)], axis=1)


def pe_exactness_graphs(rng):
    n = 13
    edges = rng.integers(0, n, size=(40, 2))
    edges = np.unique(edges[(edges[:, 0] != edges[:, 1]) & (edges[:, 0] != 4)],
                      axis=0)
    sink = AttributedGraph(n, True, edges, np.zeros((n, 1)))
    # undirected with node 12 isolated and a self-loop on node 0
    sym = symmetrize(AttributedGraph(
        n, False, np.vstack([edges[edges.max(axis=1) < 12], [[0, 0]]]),
        np.zeros((n, 1))))
    two_way = AttributedGraph(n, True, sym.edges, np.zeros((n, 1)))
    # complete bipartite K_{4,7} minus a few edges: closed walks are even
    left, right = np.meshgrid(np.arange(4), np.arange(4, 11), indexing="ij")
    half = np.stack([left.ravel(), right.ravel()], axis=1)[3:]
    bipartite = symmetrize(AttributedGraph(11, False, half, np.zeros((11, 1))))
    return {"sink": sink, "symmetric": sym, "two_way": two_way,
            "bipartite": bipartite}


def test_pe_matches_dense_matrix_powers(rng):
    graphs = pe_exactness_graphs(rng)
    assert np.all(graphs["sink"].edges[:, 0] != 4)  # node 4 is a sink
    assert (graphs["symmetric"].edges == [0, 0]).all(axis=1).any()
    assert 12 not in graphs["symmetric"].edges
    for name, g in graphs.items():
        right, left = _walk_operators(g)
        assert (right is left) == (name != "sink"), name
        for num_steps in (1, 2, 5, 16):
            expected = dense_return_probabilities(g, num_steps)
            for block_size in (3, 5, 512):
                pe = random_walk_pe(g, num_steps, block_size=block_size)
                np.testing.assert_allclose(pe.values, expected, rtol=0,
                                           atol=1e-14, err_msg=name)
                assert np.all(pe.values >= 0.0)
                if name == "bipartite":
                    assert np.all(pe.values[:, 0::2] == 0.0)


def test_pe_bits_do_not_depend_on_thread_count(rng, monkeypatch):
    """One thread per usable core, capped at the number of blocks; the
    values are the same bits on one core and on four, with threads switching
    as often as the interpreter allows. The node floor for threads is
    lifted, so these small graphs run threaded."""
    graphs = pe_exactness_graphs(rng)
    runs = {}
    monkeypatch.setattr(graphio, "PE_THREADS_MIN_NODES", 0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cores in (1, 4):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid, cores=cores: set(range(cores)))
            assert graphio._num_workers(13, 5) == min(cores, 5)
            assert graphio._num_workers(13, 1) == 1
            runs[cores] = {(name, block_size): random_walk_pe(g, 16,
                                                              block_size)
                           for name, g in graphs.items()
                           for block_size in (3, 5, 512)}
    finally:
        sys.setswitchinterval(interval)
    for key, pe in runs[1].items():
        assert np.array_equal(pe.values, runs[4][key].values), key


def test_pe_workers_by_graph_size_and_cores(monkeypatch):
    """One thread below the node floor; above it, one per core, counted by
    affinity or, where that call is missing, by os.cpu_count()."""
    floor = graphio.PE_THREADS_MIN_NODES
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    assert graphio._num_workers(floor - 1, 100) == 1
    assert graphio._num_workers(floor, 100) == 4
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert graphio._num_workers(floor, 10) == 3
    assert graphio._num_workers(floor, 2) == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert graphio._num_workers(floor, 10) == 1
