import dataclasses
import os
import sys
import warnings

import numpy as np
import pytest

from hencler import graphio
from hencler.graphio import AttributedGraph, GraphFormatError, \
    _walk_operators, load_graph, random_walk_pe, symmetrize
from hencler.synthetic import heterophilous_blobs, write_graph_tsv
from reference import edge_homophily


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


def test_label_line_holds_one_class(tmp_path):
    """Two tab-separated labels on one line are malformed, even when their
    count matches the node count."""
    edge_path, feat_path, label_path = write_dataset(
        tmp_path, [(0, 1)], [[0.0], [1.0]], labels=[0, 1])
    label_path.write_text("0\t1\n")
    with pytest.raises(GraphFormatError,
                       match=r"labels\.tsv:1: malformed class index"):
        load_graph(edge_path, feat_path, label_path)


def test_comments_and_duplicates(tmp_path):
    edge_path = tmp_path / "edges.tsv"
    edge_path.write_text("# header\n0\t1\n0\t1\n1\t0\n")
    feat_path = tmp_path / "features.tsv"
    feat_path.write_text("0.0\n1.0\n")
    g = load_graph(edge_path, feat_path, directed=True)
    assert g.num_edges == 2  # duplicates collapse, both orientations kept


def test_three_files_share_line_rules(tmp_path):
    """CRLF line ends, '#' lines (indented or not) and whitespace-only lines
    are read alike in the edge, feature and label files, and an error
    names the physical line."""
    clean = {"edges": ["0\t1", "1\t2"],
             "features": ["0.5\t1.0", "2.0\t-1.5", "3.0\t0.25"],
             "labels": ["1", "0", "2"]}
    noise = ["# header", "   # indented", " \t "]

    def write(rows, prefix, newline="\n"):
        paths = []
        for name in ("edges", "features", "labels"):
            path = tmp_path / f"{prefix}{name}.tsv"
            path.write_bytes(newline.join(rows[name] + [""]).encode())
            paths.append(path)
        return paths

    plain = load_graph(*write(clean, "clean-"))
    noisy = load_graph(*write({k: noise + v[:1] + noise + v[1:]
                               for k, v in clean.items()}, "noisy-", "\r\n"))
    for field in ("edges", "features", "labels"):
        np.testing.assert_array_equal(getattr(noisy, field),
                                      getattr(plain, field))
    bad = {"edges": "0\tx", "features": "0.5\tx", "labels": "x"}
    for name, value in bad.items():
        rows = {k: noise + v for k, v in clean.items()}
        rows[name] = noise + [value] + clean[name][1:]
        with pytest.raises(GraphFormatError, match=rf"{name}\.tsv:4: "):
            load_graph(*write(rows, "bad-", "\r\n"))


def test_graph_is_its_edges_features_and_labels():
    fields = [f.name for f in dataclasses.fields(AttributedGraph)]
    assert fields == ["edges", "features", "labels"]
    g = AttributedGraph(np.array([[0, 1]]), np.zeros((4, 3)),
                        np.array([1, 2, 2, 1]))
    assert (g.num_nodes, g.num_edges, g.feature_dim) == (4, 1, 3)
    assert g.num_classes == 2  # distinct labels, not max + 1
    assert AttributedGraph(g.edges, g.features).num_classes is None
    with pytest.raises(TypeError):  # the old (num_nodes, directed, ...) call
        AttributedGraph(4, True, g.edges, g.features)


def test_dedup_matches_unique_rows(rng):
    for n, count in ((1, 3), (7, 60), (50, 400)):
        edges = rng.integers(0, n, size=(count, 2))
        got = graphio._dedup(edges, n)
        want = np.unique(edges, axis=0)
        assert got.dtype == want.dtype and got.flags.c_contiguous
        np.testing.assert_array_equal(got, want)


def test_symmetrize_idempotent(tmp_path):
    edge_path, feat_path, _ = write_dataset(
        tmp_path, [(0, 1), (2, 0)], [[0.0], [1.0], [2.0]])
    g = load_graph(edge_path, feat_path, directed=True)
    once = symmetrize(g)
    twice = symmetrize(once)
    np.testing.assert_array_equal(once.edges, twice.edges)
    stored = {tuple(e) for e in once.edges.tolist()}
    assert all((v, u) in stored for u, v in stored)


def test_homophily_hand_cases():
    feats = np.zeros((2, 1))
    same = AttributedGraph(np.array([[0, 1]]), feats, np.array([1, 1]))
    diff = AttributedGraph(np.array([[0, 1]]), feats, np.array([0, 1]))
    assert edge_homophily(same) == 1.0
    assert edge_homophily(diff) == 0.0


def test_homophily_alternating_cycle():
    # 4-cycle 0-1-2-3-0 with labels 0,1,0,1: every edge crosses classes
    edges = np.array([[0, 1], [1, 2], [2, 3], [3, 0]])
    g = AttributedGraph(edges, np.zeros((4, 1)), np.array([0, 1, 0, 1]))
    assert edge_homophily(g) == 0.0


def test_homophily_order_invariant_and_requires_labels(rng):
    edges = rng.integers(0, 10, size=(30, 2))
    edges = edges[edges[:, 0] != edges[:, 1]]
    labels = rng.integers(0, 3, size=10)
    g1 = AttributedGraph(edges, np.zeros((10, 1)), labels)
    g2 = AttributedGraph(edges[::-1], np.zeros((10, 1)), labels)
    assert edge_homophily(g1) == edge_homophily(g2)
    bare = AttributedGraph(edges, np.zeros((10, 1)))
    with pytest.raises(ValueError):
        edge_homophily(bare)


def test_pe_directed_two_cycle():
    g = AttributedGraph(np.array([[0, 1], [1, 0]]), np.zeros((2, 1)))
    pe = random_walk_pe(g, 2)
    np.testing.assert_allclose(pe, [[0.0, 1.0], [0.0, 1.0]])


def test_pe_isolated_node():
    g = AttributedGraph(np.zeros((0, 2), dtype=np.int64), np.zeros((1, 1)))
    pe = random_walk_pe(g, 3)
    np.testing.assert_array_equal(pe, [[0.0, 0.0, 0.0]])


def test_pe_triangle():
    edges = np.array([[0, 1], [1, 0], [1, 2], [2, 1], [0, 2], [2, 0]])
    g = AttributedGraph(edges, np.zeros((3, 1)))
    pe = random_walk_pe(g, 2)
    np.testing.assert_allclose(pe, [[0.0, 0.5]] * 3, atol=1e-14)


def test_pe_entries_in_unit_interval_and_equivariant(rng):
    n = 20
    edges = rng.integers(0, n, size=(60, 2))
    edges = np.unique(edges[edges[:, 0] != edges[:, 1]], axis=0)
    g = AttributedGraph(edges, rng.normal(size=(n, 3)))
    pe = random_walk_pe(g, 5)
    assert np.all(pe >= 0.0) and np.all(pe <= 1.0)

    perm = rng.permutation(n)
    relabeled = AttributedGraph(perm[g.edges], g.features[np.argsort(perm)])
    # node v in g maps to perm[v]; PE rows must permute identically
    pe_perm = random_walk_pe(relabeled, 5)
    np.testing.assert_allclose(pe_perm[perm], pe, atol=1e-12)


def test_pe_self_loop_contributes_to_diagonal():
    g = AttributedGraph(np.array([[0, 0], [0, 1], [1, 0]]), np.zeros((2, 1)))
    pe = random_walk_pe(g, 1)
    assert pe[0, 0] == pytest.approx(0.5)  # self-loop kept
    assert pe[1, 0] == 0.0


def test_pe_block_size_independence(rng, monkeypatch):
    """The values agree across block widths to 1e-14, not bit for bit: the
    last bits follow the width."""
    n = 30
    edges = rng.integers(0, n, size=(90, 2))
    edges = np.unique(edges[edges[:, 0] != edges[:, 1]], axis=0)
    g = AttributedGraph(edges, np.zeros((n, 2)))
    for graph in (g, symmetrize(g)):
        monkeypatch.setattr(graphio, "PE_BLOCK_SIZE", 7)
        a = random_walk_pe(graph, 4)
        monkeypatch.setattr(graphio, "PE_BLOCK_SIZE", 512)
        b = random_walk_pe(graph, 4)
        np.testing.assert_allclose(a, b, atol=1e-14)


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
    sink = AttributedGraph(edges, np.zeros((n, 1)))
    # undirected with node 12 isolated and a self-loop on node 0
    sym = symmetrize(AttributedGraph(
        np.vstack([edges[edges.max(axis=1) < 12], [[0, 0]]]), np.zeros((n, 1))))
    two_way = AttributedGraph(sym.edges, np.zeros((n, 1)))
    # complete bipartite K_{4,7} minus a few edges: closed walks are even
    left, right = np.meshgrid(np.arange(4), np.arange(4, 11), indexing="ij")
    half = np.stack([left.ravel(), right.ravel()], axis=1)[3:]
    bipartite = symmetrize(AttributedGraph(half, np.zeros((11, 1))))
    return {"sink": sink, "symmetric": sym, "two_way": two_way,
            "bipartite": bipartite}


def test_pe_matches_dense_matrix_powers(rng, monkeypatch):
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
                monkeypatch.setattr(graphio, "PE_BLOCK_SIZE", block_size)
                pe = random_walk_pe(g, num_steps)
                np.testing.assert_allclose(pe, expected, rtol=0,
                                           atol=1e-14, err_msg=name)
                assert np.all(pe >= 0.0)
                if name == "bipartite":
                    assert np.all(pe[:, 0::2] == 0.0)


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
            runs[cores] = {}
            for block_size in (3, 5, 512):
                monkeypatch.setattr(graphio, "PE_BLOCK_SIZE", block_size)
                for name, g in graphs.items():
                    runs[cores][name, block_size] = random_walk_pe(g, 16)
    finally:
        sys.setswitchinterval(interval)
    for key, pe in runs[1].items():
        assert np.array_equal(pe, runs[4][key]), key


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


def test_pe_return_probability_one_is_not_rounded_above_one():
    """A node whose neighbours are all leaves returns at every even step
    with probability 1; unclipped, rounding lifts the walk's value just
    above 1 on some stars and complete bipartite graphs, through the
    symmetric operator and through P alike. An extra node feeding node 0
    makes the adjacency asymmetric without changing its return
    probabilities."""
    def star(leaves):
        return [(0, leaf) for leaf in range(1, leaves + 1)]

    def bipartite(a, b):
        return [(i, a + j) for i in range(a) for j in range(b)]

    shapes = ([star(leaves) for leaves in range(2, 60)]
              + [bipartite(a, b) for a in range(1, 12)
                 for b in range(1, 12)])
    for pairs in shapes:
        edges = np.array(pairs)
        n = int(edges.max()) + 1
        undirected = symmetrize(AttributedGraph(edges, np.zeros((n, 1))))
        feeder = np.concatenate([undirected.edges, [[n, 0]]])
        directed = AttributedGraph(feeder, np.zeros((n + 1, 1)))
        for g, symmetric in ((undirected, True), (directed, False)):
            right, left = _walk_operators(g)
            assert (right is left) == symmetric
            pe = random_walk_pe(g, 4)
            assert pe.max() <= 1.0, (pairs[-1], symmetric, pe.max())


NOISE = ["#", " ", "\t", "\r", "\n", "\x0c", ".", "e", "+", "-", "nan", "inf",
         "١"]


def fuzz_value(rng, integer):
    """A decimal that both readers take, or now and then one that a noise
    token from NOISE, inserted at a random place, may break."""
    if integer:
        text = str(rng.integers(0, 21))
    else:
        text = f"{rng.integers(0, 1000)}.{rng.integers(0, 10**6)}"
        if rng.random() < 0.3:
            text += f"e{rng.choice(['', '+', '-'])}{rng.integers(0, 320)}"
    if rng.random() < 0.2:
        text = rng.choice(["+", "-", "0", " ", "\x0c"]) + text
    if rng.random() < 0.05:
        at = rng.integers(0, len(text) + 1)
        text = text[:at] + rng.choice(NOISE) + text[at:]
    return text


def fuzz_file(rng):
    """Rows of tab-separated values in CRLF, LF or CR lines, with now and
    then a blank, whitespace-only or '#' line, or a short row; and its
    number of lines."""
    kind = rng.integers(0, 3)  # a feature, an edge or a label file
    integer = kind > 0
    width = int(rng.integers(1, 4)) if kind == 0 else 3 - kind
    lines = []
    for _ in range(rng.integers(0, 7)):
        if rng.random() < 0.06:
            lines.append(str(rng.choice(["", " ", "\x0c", " \t ", "# c",
                                         "  # c"])))
        cols = width - (rng.random() < 0.04)
        lines.append("\t".join(fuzz_value(rng, integer) for _ in range(cols)))
    newline = str(rng.choice(["\n", "\n", "\r\n", "\r"]))
    text = newline.join(lines) + (newline if rng.random() < 0.8 else "")
    return text, len(lines)


def parse_outcome(parse, path, *args):
    try:
        array = parse(path, *args)
    except GraphFormatError as exc:
        return "error", str(exc)
    return array.dtype.str, array.shape, array.tobytes()


def test_one_pass_reader_matches_line_loop(tmp_path, monkeypatch):
    """Each parser's numpy fast path gives the line loop's arrays, bit for
    bit, or the loop's error text, and shows no warning, on a few hundred
    seeded small files; enough of them load through the fast path for the
    check to mean something."""
    rng = np.random.default_rng(31)
    taken = [0, 0, 0]
    for i in range(400):
        path = tmp_path / f"fuzz-{i}.tsv"
        text, num_lines = fuzz_file(rng)
        path.write_bytes(text.encode())
        cases = [(graphio._parse_features, (), np.float64),
                 (graphio._parse_edges, (20,), np.int64),
                 (graphio._parse_labels, (max(num_lines, 1),), np.int64)]
        with warnings.catch_warnings(record=True) as shown:
            warnings.simplefilter("always")
            fast = [parse_outcome(parse, path, *args)
                    for parse, args, _ in cases]
        assert not shown, [str(w.message) for w in shown]
        with monkeypatch.context() as patch:
            patch.setattr(graphio, "_read_table", lambda path, dtype: None)
            loop = [parse_outcome(parse, path, *args)
                    for parse, args, _ in cases]
        assert fast == loop, text
        for j, (_, _, dtype) in enumerate(cases):
            taken[j] += (fast[j][0] != "error"
                         and graphio._read_table(path, dtype) is not None)
    assert min(taken) >= 30, taken


def test_generated_files_take_the_fast_path(tmp_path, monkeypatch):
    """Files from `write_graph_tsv`, which the benchmark loads, never reach
    the line loop; a '#' header sends its file through the loop, to the same
    graph."""
    g = heterophilous_blobs(num_nodes=40, num_classes=3, avg_degree=4,
                            feature_dim=5, seed=0)
    paths = [tmp_path / f"{name}.tsv" for name in ("e", "f", "l")]
    write_graph_tsv(g, *paths)

    def no_loop(path):
        raise AssertionError(f"line loop reached for {path}")

    with monkeypatch.context() as patch:
        patch.setattr(graphio, "_data_lines", no_loop)
        for directed in (True, False):
            loaded = load_graph(*paths, directed=directed)
            want = g if directed else symmetrize(g)
            for field in ("edges", "features", "labels"):
                np.testing.assert_array_equal(getattr(loaded, field),
                                              getattr(want, field))
        paths[0].write_text("# src\tdst\n" + paths[0].read_text())
        with pytest.raises(AssertionError, match="line loop reached"):
            load_graph(*paths)
    np.testing.assert_array_equal(load_graph(*paths).edges, g.edges)
