import base64
import builtins
import errno
import io
import json
import os
import platform
import shlex
from pathlib import Path

import numpy as np
import pytest

from hencler import cli, dual, model
from hencler.cli import EXIT_CONFIG, EXIT_GUARD, EXIT_OK, main, run_benchmark
from hencler.graphio import AttributedGraph, load_graph, random_walk_pe
from hencler.synthetic import heterophilous_blobs, write_graph_tsv
from conftest import format_3_doc, version_2_doc
from reference import dense_bicluster


@pytest.fixture
def dataset(tmp_path):
    g = heterophilous_blobs(num_nodes=24, num_classes=2, avg_degree=4,
                            feature_dim=5, seed=0)
    edge_path = tmp_path / "edges.tsv"
    feat_path = tmp_path / "features.tsv"
    label_path = tmp_path / "labels.tsv"
    write_graph_tsv(g, edge_path, feat_path, label_path)
    return g, edge_path, feat_path, label_path


def write_config(tmp_path, dataset, **extra):
    _, edge_path, feat_path, label_path = dataset
    doc = {
        "edge_path": str(edge_path),
        "feature_path": str(feat_path),
        "label_path": str(label_path),
        "directed": False,
        "num_clusters": 2,
        "epochs": 4,
        "hidden": 12,
        "d_f": 6,
        "k_pe": 3,
        "seed": 0,
        "output_dir": str(tmp_path / "out"),
    }
    doc.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_train_writes_all_artifacts(tmp_path, dataset, capsys):
    config = write_config(tmp_path, dataset)
    assert main(["train", "--config", str(config)]) == EXIT_OK
    out = tmp_path / "out"
    for name in ("metrics.json", "assignment.csv", "embeddings.csv",
                 "checkpoint.json"):
        assert (out / name).exists(), name
    printed = capsys.readouterr().out
    assert "best NMI" in printed

    metrics = json.loads((out / "metrics.json").read_text())
    assert len(metrics["runs"]) == 1
    assert "aggregate" in metrics
    assert "wall_time_s" not in json.dumps(metrics)

    lines = (out / "assignment.csv").read_text().strip().splitlines()
    assert lines[0] == "node,cluster"
    assert len(lines) == 25


@pytest.mark.parametrize("shift,scale", [(1, 1), (0, 2)],
                         ids=["one-based", "gap"])
def test_inferred_num_clusters_counts_distinct_classes(tmp_path, dataset,
                                                       shift, scale):
    """Without `num_clusters`, train uses the number of distinct classes in
    the label file, whatever their ids: {1, 2} and {0, 2} both give 2."""
    g, _, _, label_path = dataset
    label_path.write_text("".join(f"{y * scale + shift}\n" for y in g.labels))
    config = write_config(tmp_path, dataset, epochs=1)
    doc = json.loads(config.read_text())
    del doc["num_clusters"]
    config.write_text(json.dumps(doc))
    assert main(["train", "--config", str(config)]) == EXIT_OK
    metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
    assert metrics["config"]["num_clusters"] == 2


def test_train_roundtrip_outputs(tmp_path, dataset):
    g, edge_path, feat_path, label_path = dataset
    config = write_config(tmp_path, dataset)
    main(["train", "--config", str(config)])
    out = tmp_path / "out"
    # the toolkit can re-load its own outputs
    reloaded = load_graph(edge_path, feat_path, label_path, directed=False)
    np.testing.assert_allclose(reloaded.features, g.features, atol=1e-12)
    np.testing.assert_array_equal(reloaded.edges, g.edges)
    emb = np.loadtxt(out / "embeddings.csv", delimiter=",", skiprows=1)
    assert emb.shape == (24, 1 + 2 * 4)  # node + e || r with s = 2k = 4
    from hencler.model import load_checkpoint
    ckpt = load_checkpoint(out / "checkpoint.json")
    assert ckpt.dims.d_f == 6


def test_embeddings_rows_are_the_repr_of_each_float(tmp_path):
    # the rows as written by repr(float(x)) on each numpy scalar
    rng = np.random.default_rng(20)
    source = np.vstack([[-0.0, 5e-324, 1e300], [3.0, -2.0, 0.0],
                        rng.normal(size=(4, 3)) * 10.0 ** rng.integers(
                            -300, 300, size=(4, 3))])
    target = np.vstack([[1e-300, -5e-324, 1.0], [1e16, -7.0, 2.0 ** 60],
                        rng.normal(size=(4, 3))])
    want = "node,e0,e1,e2,r0,r1,r2\n" + "".join(
        ",".join([str(node)] + [repr(float(x)) for x in source[node]]
                 + [repr(float(x)) for x in target[node]]) + "\n"
        for node in range(source.shape[0]))
    cli._write_embeddings(tmp_path / "embeddings.csv", source, target)
    assert (tmp_path / "embeddings.csv").read_bytes() == want.encode("utf-8")
    assert "-0.0" in want and "5e-324" in want and "1e+300" in want


def test_train_outputs_byte_identical_across_runs(tmp_path, dataset):
    config = write_config(tmp_path, dataset)
    main(["train", "--config", str(config)])
    out = tmp_path / "out"
    first = {name: (out / name).read_bytes()
             for name in ("metrics.json", "assignment.csv", "embeddings.csv",
                          "checkpoint.json")}
    main(["train", "--config", str(config)])
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob, name


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"edge_path": "x",,}')
    assert main(["train", "--config", str(bad)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err


def test_unknown_key_rejected(tmp_path, dataset):
    for extra in ({"bogus_knob": 3}, {"precision": "float64"}):
        config = write_config(tmp_path, dataset, **extra)
        assert main(["train", "--config", str(config)]) == EXIT_CONFIG


def test_missing_dataset_exits_config(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"edge_path": "/nope/edges.tsv",
                                  "feature_path": "/nope/features.tsv",
                                  "num_clusters": 2}))
    code = main(["train", "--config", str(config)])
    assert code == EXIT_CONFIG


def test_malformed_or_empty_edge_file_exits_2(tmp_path, dataset, capsys):
    config = write_config(tmp_path, dataset)
    _, edge_path, _, _ = dataset
    for text, message in (("0 1\n", "edges.tsv:1"),
                          ("# no edges\n", "no edges")):
        edge_path.write_text(text)
        assert main(["train", "--config", str(config)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err


def test_repeats_aggregate_mean_std(tmp_path, dataset):
    config = write_config(tmp_path, dataset)
    assert main(["train", "--config", str(config), "--repeats", "3"]) == EXIT_OK
    metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
    assert len(metrics["runs"]) == 3
    assert metrics["config"]["seeds"] == [0, 1, 2]
    best = [run["best"]["nmi"] for run in metrics["runs"]]
    agg = metrics["aggregate"]
    assert agg["best_nmi_mean"] == pytest.approx(np.mean(best), rel=1e-12)
    assert agg["best_nmi_std"] == pytest.approx(np.std(best), rel=1e-12)


def test_env_seed_is_ignored(tmp_path, dataset, monkeypatch):
    config = write_config(tmp_path, dataset)
    assert main(["train", "--config", str(config)]) == EXIT_OK
    baseline = (tmp_path / "out" / "metrics.json").read_bytes()
    for value in ("123", "not-an-int"):
        monkeypatch.setenv("HENCLER_SEED", value)
        assert main(["train", "--config", str(config)]) == EXIT_OK, value
        assert (tmp_path / "out" / "metrics.json").read_bytes() == baseline


def test_loss_and_tie_maps_config_keys(tmp_path, dataset):
    config = write_config(tmp_path, dataset, loss="wksvd", tie_maps=True)
    assert main(["train", "--config", str(config)]) == EXIT_OK
    metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
    assert metrics["config"]["loss"] == "wksvd"
    assert metrics["config"]["tie_maps"] is True
    run0 = metrics["runs"][0]
    assert "edge_rec" not in run0["epoch_losses"][0]


def test_oracle_on_trained_checkpoint(tmp_path, dataset, capsys):
    config = write_config(tmp_path, dataset)
    main(["train", "--config", str(config)])
    checkpoint = tmp_path / "out" / "checkpoint.json"
    code = main(["oracle", "--config", str(config),
                 "--checkpoint", str(checkpoint),
                 "--output-dir", str(tmp_path / "oracle")])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "oracle" / "oracle.json").read_text())
    assert report["residuals"]["eigen_form"] < 1e-6
    assert "row_nmi" in report
    assert (tmp_path / "oracle" / "row_clusters.csv").exists()
    assert "stationarity residual" in capsys.readouterr().out


def test_oracle_clusters_match_the_dense_dual(tmp_path, dataset, monkeypatch):
    """The factored dual of a trained checkpoint writes the clusters of the
    dense one on S = Phi Psi^T, and its singular values agree to 1e-12."""
    config = write_config(tmp_path, dataset)
    assert main(["train", "--config", str(config)]) == EXIT_OK
    factors, solutions = [], []

    def mapped(*args):
        factors.append(map_features(*args))
        return factors[-1]

    def recorded(*args, **kwargs):
        result = bicluster(*args, **kwargs)
        solutions.append(result[2])
        return result

    map_features, bicluster = cli.map_features, dual.bicluster
    monkeypatch.setattr(cli, "map_features", mapped)
    monkeypatch.setattr(dual, "bicluster", recorded)
    assert main(["oracle", "--config", str(config), "--checkpoint",
                 str(tmp_path / "out" / "checkpoint.json"), "--seed", "1",
                 "--output-dir", str(tmp_path / "oracle")]) == EXIT_OK
    [sf], [solution] = factors, solutions
    rows, cols, dense = dense_bicluster(model.similarity_matrix(sf), 2, 1)
    for name, clusters in (("row_clusters.csv", rows),
                           ("col_clusters.csv", cols)):
        written = np.loadtxt(tmp_path / "oracle" / name, delimiter=",",
                             skiprows=1, dtype=np.int64)
        np.testing.assert_array_equal(written[:, 1], clusters, err_msg=name)
    np.testing.assert_allclose(solution.singular_values,
                               dense.singular_values, rtol=0, atol=1e-12)


def test_oracle_needs_a_config_and_a_checkpoint(tmp_path, dataset,
                                                monkeypatch, capsys):
    """The oracle checks a checkpoint and nothing else: a missing
    `--config` or `--checkpoint` is a usage error, as are the removed
    planted-blocks options."""
    config = write_config(tmp_path, dataset)
    assert main(["train", "--config", str(config)]) == EXIT_OK
    checkpoint = str(tmp_path / "out" / "checkpoint.json")
    monkeypatch.chdir(tmp_path)  # the default output directory lands here
    before = sorted(tmp_path.rglob("*"))
    both = ["--config", str(config), "--checkpoint", checkpoint]
    for argv, named in ((both[:2], "--checkpoint"), (both[2:], "--config"),
                        (both + ["--synthetic", "blocks"], "--synthetic"),
                        (both + ["--block-sizes", "10,10"], "--block-sizes"),
                        (both + ["--noise", "0.01"], "--noise")):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", *argv])
        assert exc.value.code == EXIT_CONFIG, named
        assert named in capsys.readouterr().err, named
    assert sorted(tmp_path.rglob("*")) == before


def test_zero_epoch_checkpoint_feeds_the_oracle(tmp_path, dataset):
    """`train` with 0 epochs writes the initial parameters, the untrained
    model the oracle checks as a control."""
    config = write_config(tmp_path, dataset, epochs=0)
    assert main(["train", "--config", str(config)]) == EXIT_OK
    metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
    assert metrics["runs"][0]["epoch_losses"] == []
    assert main(["oracle", "--config", str(config), "--checkpoint",
                 str(tmp_path / "out" / "checkpoint.json"),
                 "--output-dir", str(tmp_path / "oracle")]) == EXIT_OK
    report = json.loads((tmp_path / "oracle" / "oracle.json").read_text())
    assert set(report["residuals"]) == {"stationarity", "eigen_form"}


def test_commands_enter_train_and_map_features_through_cli(tmp_path,
                                                           dataset,
                                                           monkeypatch):
    """perfbench times set-up up to the first entry into `cli.train`
    (train) or `cli.map_features` (oracle), so both commands must call
    them through those names."""
    calls = []

    def recorded(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "train", recorded("train", cli.train))
    monkeypatch.setattr(cli, "map_features",
                        recorded("map_features", cli.map_features))
    config = write_config(tmp_path, dataset)
    assert main(["train", "--config", str(config)]) == EXIT_OK
    assert calls == ["train"]
    calls.clear()
    assert main(["oracle", "--config", str(config), "--checkpoint",
                 str(tmp_path / "out" / "checkpoint.json"),
                 "--output-dir", str(tmp_path / "oracle")]) == EXIT_OK
    assert calls == ["map_features"]


@pytest.mark.parametrize("labeled", [True, False],
                         ids=["labeled", "unlabeled"])
def test_oracle_writes_the_report_of_one_pass(tmp_path, dataset, monkeypatch,
                                              labeled):
    """`oracle` computes the degrees of S once, and `oracle.json` holds the
    dict `oracle_report` returns, as it comes."""
    extra = {} if labeled else {"label_path": None, "directed": True,
                                "eval_every": 0}
    config = write_config(tmp_path, dataset, **extra)
    assert main(["train", "--config", str(config)]) == EXIT_OK
    degree_calls, reports = [], []

    def counted(s):
        degree_calls.append(1)
        return degree_weights(s)

    def recorded(*args):
        reports.append(oracle_report(*args))
        return reports[-1]

    degree_weights, oracle_report = dual._degree_weights, cli.oracle_report
    monkeypatch.setattr(dual, "_degree_weights", counted)
    monkeypatch.setattr(cli, "oracle_report", recorded)
    assert main(["oracle", "--config", str(config), "--checkpoint",
                 str(tmp_path / "out" / "checkpoint.json"),
                 "--output-dir", str(tmp_path / "oracle")]) == EXIT_OK
    assert len(degree_calls) == 1
    [(report, _, _)] = reports
    written = (tmp_path / "oracle" / "oracle.json").read_text()
    assert report == json.loads(written)
    assert ("row_nmi" in report) == labeled


def test_only_training_commands_keep_freed_heap(tmp_path, dataset,
                                                monkeypatch):
    """`train` and `benchmark` set the allocator once, before any work;
    `oracle` and `export-similarity` build no tape and leave it alone."""
    calls = []
    monkeypatch.setattr(cli, "_keep_freed_heap", lambda: calls.append(1))
    config = write_config(tmp_path, dataset)
    checkpoint = str(tmp_path / "out" / "checkpoint.json")
    assert main(["train", "--config", str(config)]) == EXIT_OK
    assert calls == [1]
    assert main(["oracle", "--config", str(config), "--checkpoint",
                 checkpoint, "--output-dir", str(tmp_path / "oracle")]) \
        == EXIT_OK
    assert main(["export-similarity", "--config", str(config),
                 "--checkpoint", checkpoint,
                 "--output", str(tmp_path / "sim.csv")]) == EXIT_OK
    assert calls == [1]
    assert main(["benchmark", "--sizes", "20", "--epochs", "1",
                 "--output", str(tmp_path / "bench.csv")]) == EXIT_OK
    assert calls == [1, 1]


def test_train_without_mallopt_writes_the_same_artifacts(tmp_path, dataset,
                                                         monkeypatch):
    """Where the C library has no mallopt, train runs as before."""
    names = ("metrics.json", "assignment.csv", "embeddings.csv",
             "checkpoint.json")
    config = write_config(tmp_path, dataset)
    assert main(["train", "--config", str(config)]) == EXIT_OK
    want = {name: (tmp_path / "out" / name).read_bytes() for name in names}

    class NoMallopt:
        def __init__(self, name):
            pass

    monkeypatch.setattr(cli.ctypes, "CDLL", NoMallopt)
    assert cli._keep_freed_heap() is None
    out = tmp_path / "again"
    assert main(["train", "--config", str(config),
                 "--output-dir", str(out)]) == EXIT_OK
    assert {name: (out / name).read_bytes() for name in names} == want


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc")
def test_keep_freed_heap_sets_both_mallopt_parameters():
    assert cli._keep_freed_heap() == [1, 1]


def test_export_similarity_guard_exit_3(tmp_path, dataset):
    config = write_config(tmp_path, dataset)
    main(["train", "--config", str(config)])
    out_csv = tmp_path / "similarity.csv"
    code = main(["export-similarity", "--config", str(config),
                 "--checkpoint", str(tmp_path / "out" / "checkpoint.json"),
                 "--max-nodes", "10", "--output", str(out_csv)])
    assert code == EXIT_GUARD
    assert not out_csv.exists()


def test_mismatched_checkpoint_exits_2(tmp_path, dataset, capsys):
    config = write_config(tmp_path, dataset)
    main(["train", "--config", str(config)])
    doc = json.loads((tmp_path / "out" / "checkpoint.json").read_text())
    missing = json.loads(json.dumps(doc))
    del missing["params"]["rec.w1"]
    reshaped = json.loads(json.dumps(doc))
    reshaped["params"]["proj_src"]["shape"].reverse()
    huge = json.loads(json.dumps(doc))
    huge["dims"]["d_f"] = 10 ** 15
    for i, (name, bad) in enumerate((
            ("rec.w1", missing), ("proj_src", reshaped), ("src.w2", huge),
            ("unsupported checkpoint version: 2", version_2_doc(doc)),
            ("unsupported checkpoint version: 3", format_3_doc(doc)))):
        path = tmp_path / f"bad-{i}.json"
        path.write_text(json.dumps(bad))
        for command in (["oracle", "--output-dir", str(tmp_path / "oracle")],
                        ["export-similarity",
                         "--output", str(tmp_path / "sim.csv")]):
            code = main(command + ["--config", str(config),
                                   "--checkpoint", str(path)])
            assert code == EXIT_CONFIG, (name, command[0])
            assert name in capsys.readouterr().err
    assert not (tmp_path / "oracle").exists()
    assert not (tmp_path / "sim.csv").exists()


def test_checkpoint_decodes_with_the_standard_library(tmp_path, dataset,
                                                      monkeypatch):
    """The documented encoding, read without hencler: each parameter's
    data is standard base64 of its little-endian float64 bytes in C order,
    and decodes to the trained arrays bit for bit."""
    trained = {}

    def keep(params, path):
        trained.update((k, v.copy()) for k, v in params.arrays.items())
        model.save_checkpoint(params, path)

    monkeypatch.setattr(cli, "save_checkpoint", keep)
    assert main(["train", "--config",
                 str(write_config(tmp_path, dataset))]) == EXIT_OK
    doc = json.loads((tmp_path / "out" / "checkpoint.json").read_text())
    assert doc["version"] == 4
    assert list(doc["params"]) == list(trained)
    for name, entry in doc["params"].items():
        raw = base64.b64decode(entry["data"], validate=True)
        value = np.frombuffer(raw, "<f8").reshape(entry["shape"])
        assert value.shape == trained[name].shape, name
        np.testing.assert_array_equal(value.view(np.int64),
                                      trained[name].view(np.int64), name)


def test_oracle_rejects_more_clusters_than_d_f(tmp_path, dataset, capsys,
                                               monkeypatch):
    # the learned similarity has rank at most d_f, so it cannot give
    # num_clusters singular pairs; the check runs before a missing PE is
    # computed
    config = write_config(tmp_path, dataset, d_f=1)
    assert main(["train", "--config", str(config)]) == EXIT_OK
    for path in pe_files(tmp_path / "out"):
        path.unlink()
    calls = count_pe_calls(monkeypatch)
    code = main(["oracle", "--config", str(config), "--checkpoint",
                 str(tmp_path / "out" / "checkpoint.json"),
                 "--output-dir", str(tmp_path / "oracle")])
    assert code == EXIT_CONFIG
    assert "d_f 1" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "oracle").exists()


def test_input_width_mismatch_exits_2(tmp_path, dataset, capsys):
    config = write_config(tmp_path, dataset)
    assert main(["train", "--config", str(config)]) == EXIT_OK
    checkpoint = str(tmp_path / "out" / "checkpoint.json")
    config = write_config(tmp_path, dataset, k_pe=4)
    for command in (["oracle", "--output-dir", str(tmp_path / "oracle")],
                    ["export-similarity", "--output", str(tmp_path / "sim.csv")]):
        code = main(command + ["--config", str(config),
                               "--checkpoint", checkpoint])
        assert code == EXIT_CONFIG, command[0]
        err = capsys.readouterr().err
        assert "input width 8" in err and "got 9" in err, err
    assert not (tmp_path / "oracle").exists()
    assert not (tmp_path / "sim.csv").exists()


@pytest.mark.parametrize("key,value", [
    ("k_pe", 0), ("hidden", 0), ("d_f", 0), ("kmeans_restarts", 0),
    ("s", 0), ("eval_every", -1), ("epochs", 2.5), ("k_pe", True),
    ("num_clusters", 100), ("tie_maps", "false"), ("learning_rate", True),
    ("learning_rate", float("nan")), ("learning_rate", float("inf")),
    ("directed", "false"), ("seed", -1), ("kmeans_restarts", 10), ("s", 4),
    ("edge_path", 5), ("label_path", 7), ("feature_path", None),
    ("output_dir", 5)])
def test_non_positive_sizes_exit_2(tmp_path, dataset, capsys, key, value):
    config = write_config(tmp_path, dataset, **{key: value})
    assert main(["train", "--config", str(config)]) == EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv,named", [
    (["train", "--config", "{config}", "--repeats", "0"], "--repeats"),
    (["train", "--config", "{config}", "--repeats", "-2"], "--repeats"),
    (["benchmark", "--sizes", "abc"], "--sizes"),
    (["benchmark", "--sizes", "9"], "--sizes"),
    (["benchmark", "--sizes", "50", "--epochs", "-1"], "--epochs"),
    (["oracle", "--config", "{config}", "--checkpoint", "missing.json"],
     "missing.json"),
    (["export-similarity", "--config", "{config}",
      "--checkpoint", "missing.json"], "missing.json"),
    (["oracle", "--config", "{config}", "--checkpoint", "{checkpoint}",
      "--seed", "-1"], "seed"),
    (["benchmark", "--sizes", "50", "--epochs", "1", "--seed", "-1"], "seed"),
    # "afile" is a file, so no output can go in or below it
    (["train", "--config", "{config}", "--output-dir", "afile"], "afile"),
    (["train", "--config", "{config}", "--output-dir", "afile/sub"], "afile"),
    (["oracle", "--config", "{config}", "--checkpoint", "{checkpoint}",
      "--output-dir", "afile"], "afile"),
    (["oracle", "--config", "{config}", "--checkpoint", "{checkpoint}",
      "--output-dir", "afile/sub"], "afile"),
    (["export-similarity", "--config", "{config}", "--checkpoint",
      "{checkpoint}", "--output", "afile/x.csv"], "afile"),
    (["export-similarity", "--config", "{config}", "--checkpoint",
      "{checkpoint}", "--output", "out"], "out"),
    (["benchmark", "--sizes", "50", "--epochs", "1", "--output",
      "afile/x.csv"], "afile"),
    (["benchmark", "--sizes", "50", "--epochs", "1", "--output",
      "missing/x.csv"], "missing"),
], ids=["repeats-0", "repeats-neg", "sizes-abc", "sizes-9", "epochs-neg",
        "oracle-missing-checkpoint", "export-missing-checkpoint",
        "oracle-seed-neg", "benchmark-seed-neg",
        "train-output-file", "train-output-below-file", "oracle-output-file",
        "oracle-output-below-file", "export-output-below-file",
        "export-output-directory", "benchmark-output-below-file",
        "benchmark-output-missing-directory"])
def test_bad_arguments_exit_2_and_write_nothing(tmp_path, dataset,
                                                monkeypatch, capsys, argv,
                                                named):
    config = write_config(tmp_path, dataset)
    checkpoint = tmp_path / "out" / "checkpoint.json"
    if "{checkpoint}" in argv:  # a real one, so only the named value is bad
        assert main(["train", "--config", str(config)]) == EXIT_OK
    monkeypatch.chdir(tmp_path)  # default output paths land in tmp_path
    (tmp_path / "afile").touch()
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main([arg.format(config=config, checkpoint=checkpoint)
                 for arg in argv]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "input error" in err and named in err, err
    assert sorted(tmp_path.rglob("*")) == before


def test_unreadable_input_file_messages(tmp_path, dataset, capsys):
    """A missing feature file is an input error, and one that is not UTF-8
    a runtime error, each worded by the exception the open file raised."""
    _, _, feat_path, _ = dataset
    config = write_config(tmp_path, dataset)
    feat_path.write_bytes(b"0.5\n\xff1.0\n")
    assert main(["train", "--config", str(config)]) == cli.EXIT_RUNTIME
    assert capsys.readouterr().err == (
        "error: 'utf-8' codec can't decode byte 0xff in position 4: "
        "invalid start byte\n")
    feat_path.unlink()
    assert main(["train", "--config", str(config)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "input error: cannot read dataset: [Errno 2] No such file or "
        f"directory: '{feat_path}'\n")


def test_unwritable_output_directory_exits_2(tmp_path, dataset, monkeypatch,
                                            capsys):
    # a test run as root may write anywhere, so the permission answer is faked
    config = write_config(tmp_path, dataset)
    monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    assert main(["train", "--config", str(config)]) == EXIT_CONFIG
    assert "not writable" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_tracking_without_labels_exits_2_and_writes_nothing(tmp_path,
                                                             dataset, capsys):
    # without tracking, train needs no labels either
    config = write_config(tmp_path, dataset, label_path=None, eval_every=0)
    assert main(["train", "--config", str(config), "--output-dir",
                 str(tmp_path / "untracked")]) == EXIT_OK
    checkpoint = str(tmp_path / "untracked" / "checkpoint.json")
    config = write_config(tmp_path, dataset)
    doc = json.loads(config.read_text())
    del doc["label_path"]
    config.write_text(json.dumps(doc))
    assert main(["train", "--config", str(config)]) == EXIT_CONFIG
    assert "label_path" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # the oracle needs no labels, whatever eval_every says
    assert main(["oracle", "--config", str(config), "--checkpoint",
                 checkpoint, "--output-dir",
                 str(tmp_path / "oracle")]) == EXIT_OK
    assert "row_nmi" not in json.loads(
        (tmp_path / "oracle" / "oracle.json").read_text())


def test_benchmark_single_size(tmp_path):
    out = tmp_path / "bench.csv"
    code = main(["benchmark", "--sizes", "200", "--epochs", "2",
                 "--output", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,seconds,pe_seconds"
    assert lines[1].startswith("200,")
    assert len(lines[1].split(",")) == 3
    assert lines[2].startswith("# end_to_end_linear_fit_r_squared")
    assert lines[-1].startswith("# linear_fit_r_squared")
    assert len(lines) == 4


def test_benchmark_generation_deterministic():
    from hencler.synthetic import random_sparse_graph
    a = random_sparse_graph(300, seed=5)
    b = random_sparse_graph(300, seed=5)
    np.testing.assert_array_equal(a.edges, b.edges)
    np.testing.assert_allclose(a.features, b.features)


def test_run_benchmark_reports_r_squared():
    result = run_benchmark([150, 300], epochs=2, seed=0,
                           measure_memory=True)
    assert set(result) == {"rows", "r_squared", "r_squared_end_to_end"}
    assert all("peak_mb" in row for row in result["rows"])
    assert all(row["pe_seconds"] > 0.0 for row in result["rows"])
    assert -1.0 <= result["r_squared"] <= 1.0
    assert -1.0 <= result["r_squared_end_to_end"] <= 1.0


def test_export_similarity(tmp_path, dataset, capsys):
    config = write_config(tmp_path, dataset)
    main(["train", "--config", str(config)])
    checkpoint = tmp_path / "out" / "checkpoint.json"
    out_csv = tmp_path / "similarity.csv"
    code = main(["export-similarity", "--checkpoint", str(checkpoint),
                 "--config", str(config), "--output", str(out_csv)])
    assert code == EXIT_OK
    sim = np.loadtxt(out_csv, delimiter=",")
    assert sim.shape == (24, 24)
    assert "max |S - S^T|" in capsys.readouterr().out


def test_export_similarity_tied_checkpoint_symmetric(tmp_path, dataset,
                                                     capsys):
    config = write_config(tmp_path, dataset, tie_maps=True)
    main(["train", "--config", str(config)])
    checkpoint = tmp_path / "out" / "checkpoint.json"
    out_csv = tmp_path / "similarity.csv"
    main(["export-similarity", "--checkpoint", str(checkpoint),
          "--config", str(config), "--output", str(out_csv)])
    sim = np.loadtxt(out_csv, delimiter=",")
    assert np.max(np.abs(sim - sim.T)) < 1e-10
    printed = capsys.readouterr().out
    assert "max |S - S^T|" in printed


def test_export_label_sorted_blocks_have_structure(tmp_path, dataset):
    g, *_ = dataset
    config = write_config(tmp_path, dataset, epochs=150)
    main(["train", "--config", str(config)])
    checkpoint = tmp_path / "out" / "checkpoint.json"
    out_csv = tmp_path / "similarity.csv"
    main(["export-similarity", "--checkpoint", str(checkpoint),
          "--config", str(config), "--output", str(out_csv)])
    sim = np.loadtxt(out_csv, delimiter=",")
    assert sim.shape == (g.num_nodes, g.num_nodes)
    sorted_labels = np.sort(g.labels)
    k = int(sorted_labels.max()) + 1
    block_means = np.zeros((k, k))
    for a in range(k):
        for b in range(k):
            block = sim[np.ix_(sorted_labels == a, sorted_labels == b)]
            block_means[a, b] = block.mean()
    # trained on a planted heterophilous graph the label-sorted similarity
    # shows strong block structure (here anti-diagonal: the learned graph
    # mirrors the between-class edges); block means must explain a large
    # share of the matrix's variance
    approx = block_means[sorted_labels[:, None], sorted_labels[None, :]]
    ss_res = ((sim - approx) ** 2).sum()
    ss_tot = ((sim - sim.mean()) ** 2).sum()
    assert 1.0 - ss_res / ss_tot > 0.4
    assert block_means.max() > 1.5 * block_means.min()


def test_removed_parallel_flag_is_a_usage_error(tmp_path, dataset, capsys):
    """So are the removed `--loss` and `--tie-maps`: the config keys of the
    same names are the one way to ask for an ablation."""
    config = write_config(tmp_path, dataset)
    for flags in (["--parallel"], ["--loss", "wksvd"], ["--tie-maps"]):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--config", str(config), "--repeats", "2",
                  *flags])
        assert exc.value.code == EXIT_CONFIG
        assert flags[0] in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_no_train_option_shadows_a_config_key():
    """A `train` flag that set a TrainConfig field would override the
    config, and metrics.json would no longer describe the config file."""
    args = cli._build_parser().parse_args(["train", "--config", "run.json"])
    shadowing = set(vars(args)) & cli._TRAIN_KEYS
    assert not shadowing, shadowing


@pytest.mark.parametrize("eval_every", [1, 0], ids=["tracked", "untracked"])
def test_train_runs_one_forward_after_the_last_step(tmp_path, dataset,
                                                    monkeypatch, eval_every):
    """The written embeddings are the trainer's final forward: epochs + 1
    source-map forwards in all, whether the last epoch is tracked or not."""
    calls = []
    mlp = model._mlp

    def counted(ps, x, prefix):
        calls.append(prefix)
        return mlp(ps, x, prefix)

    monkeypatch.setattr(model, "_mlp", counted)
    config = write_config(tmp_path, dataset, eval_every=eval_every)
    assert main(["train", "--config", str(config)]) == EXIT_OK
    assert calls.count("src") == 4 + 1  # epochs + 1


@pytest.mark.parametrize("eval_every", [1, 0], ids=["tracked", "untracked"])
def test_divergence_on_the_last_step_writes_no_artifacts(tmp_path, dataset,
                                                         capsys, eval_every):
    """A step of size 1e300 leaves finite but huge parameters, so the loss
    of that one epoch is finite and the final forward overflows. The run
    fails before any artifact but the stored PE is written."""
    config = write_config(tmp_path, dataset, epochs=1, learning_rate=1e300,
                          eval_every=eval_every)
    assert main(["train", "--config", str(config)]) == cli.EXIT_RUNTIME
    assert "non-finite forward after the last epoch (0)" in \
        capsys.readouterr().err
    out = tmp_path / "out"
    assert sorted(out.iterdir()) == pe_files(out)


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_blocks(language):
    """The bodies of the README's fenced code blocks in `language`."""
    chunks = README.read_text(encoding="utf-8").split("```")
    return [chunk[len(language):] for chunk in chunks[1::2]
            if chunk.startswith(language + "\n")]


def test_readme_commands_and_config_keys_exist():
    """Every documented `hencler` command line parses, and every key of
    the documented config is accepted."""
    lines = [shlex.split(line, comments=True)
             for block in readme_blocks("bash")
             for line in block.splitlines()]
    commands = [words[1:] for words in lines if words[:1] == ["hencler"]]
    assert len(commands) >= 8
    for argv in commands:
        cli._build_parser().parse_args(argv)  # exits 2 on a stale flag
    (example,) = readme_blocks("json")
    keys = set(json.loads(example))
    assert keys and keys <= cli._CONFIG_KEYS, keys - cli._CONFIG_KEYS


TRAIN_ARTIFACTS = ("metrics.json", "assignment.csv", "embeddings.csv",
                   "checkpoint.json")


def pe_files(directory):
    return sorted(directory.glob("pe-*.npy"))


def count_pe_calls(monkeypatch):
    """Record the k of every PE the cli computes instead of reading."""
    calls = []

    def counted(g, k_pe):
        calls.append(k_pe)
        return random_walk_pe(g, k_pe)

    monkeypatch.setattr(cli, "random_walk_pe", counted)
    return calls


def test_train_stores_the_pe_once_and_reuses_it(tmp_path, dataset,
                                                monkeypatch):
    _, edge_path, feat_path, label_path = dataset
    config = write_config(tmp_path, dataset)
    calls = count_pe_calls(monkeypatch)
    assert main(["train", "--config", str(config)]) == EXIT_OK
    out = tmp_path / "out"
    (path,) = pe_files(out)
    g = load_graph(edge_path, feat_path, label_path, directed=False)
    assert np.array_equal(np.load(path), random_walk_pe(g, 3))
    assert calls == [3]
    stored = path.read_bytes()
    first = {name: (out / name).read_bytes() for name in TRAIN_ARTIFACTS}
    assert main(["train", "--config", str(config)]) == EXIT_OK
    assert calls == [3]  # read, not computed
    assert pe_files(out) == [path] and path.read_bytes() == stored
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob, name
    # The same edges loaded as directed: the key holds no directed flag.
    directed = write_config(tmp_path, dataset, directed=True)
    assert main(["train", "--config", str(directed)]) == EXIT_OK
    assert calls == [3] and pe_files(out) == [path]


def test_pe_key_changes_with_edges_and_k_pe(tmp_path, dataset, monkeypatch):
    _, edge_path, _, _ = dataset
    calls = count_pe_calls(monkeypatch)
    config = write_config(tmp_path, dataset)
    assert main(["train", "--config", str(config)]) == EXIT_OK
    config = write_config(tmp_path, dataset, k_pe=4)
    assert main(["train", "--config", str(config)]) == EXIT_OK
    assert len(pe_files(tmp_path / "out")) == 2
    lines = edge_path.read_text().splitlines(keepends=True)
    u, v = lines[-1].split()
    dropped = {f"{u}\t{v}\n", f"{v}\t{u}\n"}  # both orientations
    edge_path.write_text("".join(x for x in lines if x not in dropped))
    assert main(["train", "--config", str(config)]) == EXIT_OK
    assert len(pe_files(tmp_path / "out")) == 3
    assert calls == [3, 4, 4]


def test_failed_pe_write_leaves_no_temporary_file(tmp_path, dataset,
                                                  monkeypatch, capsys):
    """A PE write that fails part-way exits 1 and removes its temporary
    file, so no `*.tmp` and no PE file is left in the output directory."""
    def failing_save(handle, *args, **kwargs):
        handle.write(b"\x93NUMPY partial")
        raise OSError("disk full")

    monkeypatch.setattr(np, "save", failing_save)
    config = write_config(tmp_path, dataset)
    assert main(["train", "--config", str(config)]) == 1
    assert "disk full" in capsys.readouterr().err
    out = tmp_path / "out"
    assert [p.name for p in out.iterdir() if p.name.endswith(".tmp")] == []
    assert pe_files(out) == []


class FullDisk:
    """A file handle that takes `budget` more characters or bytes, then
    raises ENOSPC partway through the write that overflows it."""

    def __init__(self, handle, budget=16):
        self.handle, self.budget = handle, budget

    def write(self, data):
        if len(data) > self.budget:
            self.handle.write(data[:self.budget])
            raise OSError(errno.ENOSPC, "No space left on device")
        self.budget -= len(data)
        return self.handle.write(data)

    def __getattr__(self, name):
        return getattr(self.handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()


def fail_writes_to(monkeypatch, name, how):
    """Make the next write of the file called `name` fail. With "write" its
    handle (on `name` or on a temporary `.<name>.*`) runs out of disk; with
    "replace" `os.replace` refuses to move a file onto it."""
    if how == "replace":
        replace = os.replace

        def failing_replace(src, dst, **kwargs):
            if Path(dst).name == name:
                raise OSError(errno.EIO, "rename failed")
            return replace(src, dst, **kwargs)

        monkeypatch.setattr(os, "replace", failing_replace)
        return
    real_open = builtins.open

    def failing_open(file, mode="r", *args, **kwargs):
        handle = real_open(file, mode, *args, **kwargs)
        if isinstance(file, (str, os.PathLike)) and set(mode) & set("wax+") \
                and (Path(file).name == name
                     or Path(file).name.startswith(f".{name}.")):
            return FullDisk(handle)
        return handle

    monkeypatch.setattr(builtins, "open", failing_open)
    monkeypatch.setattr(io, "open", failing_open)  # Path.write_text's open


WRITER_CASES = [("train", name) for name in ("metrics.json",
                                             "assignment.csv",
                                             "embeddings.csv",
                                             "checkpoint.json")] + \
    [("oracle", name) for name in ("row_clusters.csv", "col_clusters.csv",
                                   "oracle.json")] + \
    [("export-similarity", "similarity.csv"), ("benchmark", "bench.csv")]


@pytest.mark.parametrize("how", ["write", "replace"])
@pytest.mark.parametrize("command,name", WRITER_CASES,
                         ids=[name for _, name in WRITER_CASES])
def test_failed_artifact_write_keeps_the_old_file(tmp_path, dataset,
                                                  monkeypatch, capsys,
                                                  command, name, how):
    """Each command's artifact is whole or not written: when the disk fills
    partway through it, or the rename onto it fails, the command exits 1,
    the previous file keeps its bytes and no temporary file is left."""
    config = write_config(tmp_path, dataset)
    checkpoint = tmp_path / "out" / "checkpoint.json"
    directory = {"train": tmp_path / "out",
                 "oracle": tmp_path / "oracle"}.get(command, tmp_path)
    argv = {"train": ["--config", str(config)],
            "oracle": ["--config", str(config), "--checkpoint",
                       str(checkpoint), "--output-dir", str(directory)],
            "export-similarity": ["--config", str(config), "--checkpoint",
                                  str(checkpoint), "--output",
                                  str(tmp_path / name)],
            "benchmark": ["--sizes", "20", "--epochs", "1", "--output",
                          str(tmp_path / name)]}[command]
    if command in ("oracle", "export-similarity"):
        assert main(["train", "--config", str(config)]) == EXIT_OK
    directory.mkdir(exist_ok=True)
    old = f"previous {name}\n".encode()
    (directory / name).write_bytes(old)
    fail_writes_to(monkeypatch, name, how)
    assert main([command, *argv]) == cli.EXIT_RUNTIME
    message = "No space left" if how == "write" else "rename failed"
    assert message in capsys.readouterr().err
    assert (directory / name).read_bytes() == old
    assert [p.name for p in directory.iterdir()
            if p.name.endswith(".tmp")] == []


@pytest.mark.parametrize("how", ["write", "replace"])
@pytest.mark.parametrize("name", ["edges.tsv", "features.tsv", "labels.tsv"])
def test_failed_graph_tsv_write_keeps_the_old_file(tmp_path, monkeypatch,
                                                   name, how):
    """`write_graph_tsv`'s files follow the same rule as the artifacts."""
    g = heterophilous_blobs(num_nodes=12, num_classes=2, avg_degree=4,
                            feature_dim=3, seed=1)
    paths = [tmp_path / x for x in ("edges.tsv", "features.tsv",
                                    "labels.tsv")]
    old = f"previous {name}\n".encode()
    (tmp_path / name).write_bytes(old)
    fail_writes_to(monkeypatch, name, how)
    with pytest.raises(OSError):
        write_graph_tsv(g, *paths)
    assert (tmp_path / name).read_bytes() == old
    assert list(tmp_path.glob("*.tmp")) == []


def test_oracle_and_export_read_the_pe_beside_the_checkpoint(
        tmp_path, dataset, monkeypatch):
    """Both commands give the same bytes whether the stored PE is there or
    deleted, and write nothing into the checkpoint's directory."""
    config = write_config(tmp_path, dataset)
    assert main(["train", "--config", str(config)]) == EXIT_OK
    ckpt_dir = tmp_path / "out"
    checkpoint = str(ckpt_dir / "checkpoint.json")
    calls = count_pe_calls(monkeypatch)

    def run_both(tag):
        oracle_dir = tmp_path / f"oracle-{tag}"
        sim = tmp_path / f"sim-{tag}.csv"
        assert main(["oracle", "--config", str(config), "--checkpoint",
                     checkpoint, "--output-dir", str(oracle_dir)]) == EXIT_OK
        assert main(["export-similarity", "--config", str(config),
                     "--checkpoint", checkpoint,
                     "--output", str(sim)]) == EXIT_OK
        return [sim.read_bytes()] + [
            (oracle_dir / name).read_bytes()
            for name in ("oracle.json", "row_clusters.csv", "col_clusters.csv")]

    listing = sorted(ckpt_dir.iterdir())
    stored = run_both("stored")
    assert calls == []
    assert sorted(ckpt_dir.iterdir()) == listing
    (path,) = pe_files(ckpt_dir)
    path.unlink()
    listing = sorted(ckpt_dir.iterdir())
    assert run_both("computed") == stored
    assert calls == [3, 3]
    assert sorted(ckpt_dir.iterdir()) == listing


@pytest.mark.parametrize("fault", ["shape", "dtype", "nan", "above-one",
                                   "truncated"])
def test_bad_stored_pe_exits_2_and_names_the_file(tmp_path, dataset, capsys,
                                                  fault):
    config = write_config(tmp_path, dataset)
    assert main(["train", "--config", str(config)]) == EXIT_OK
    out = tmp_path / "out"
    (path,) = pe_files(out)
    values = np.load(path)
    if fault == "truncated":
        path.write_bytes(path.read_bytes()[:-8])
    else:
        if fault == "shape":
            values = values[:, :2]
        elif fault == "dtype":
            values = values.astype(np.float32)
        else:
            values[3, 1] = np.nan if fault == "nan" else 1.0 + 1e-12
        np.save(path, values)
    listing = sorted(out.iterdir())
    capsys.readouterr()
    checkpoint = str(out / "checkpoint.json")
    for command in (["train"],
                    ["oracle", "--checkpoint", checkpoint,
                     "--output-dir", str(tmp_path / "oracle")],
                    ["export-similarity", "--checkpoint", checkpoint,
                     "--output", str(tmp_path / "sim.csv")]):
        assert main(command + ["--config", str(config)]) == EXIT_CONFIG
        assert path.name in capsys.readouterr().err, command[0]
    assert sorted(out.iterdir()) == listing
    assert not (tmp_path / "oracle").exists()
    assert not (tmp_path / "sim.csv").exists()


def test_pe_of_a_star_round_trips_through_its_file(tmp_path, capsys):
    """Node 0's neighbours are leaves, so its return probability at even
    steps is 1, which the normalized walk rounds just above 1 unclipped;
    the stored file must still pass the check every later read makes."""
    g = AttributedGraph(np.array([[0, 1], [0, 2]]),
                        np.arange(12.0).reshape(6, 2))
    edge_path, feat_path = tmp_path / "edges.tsv", tmp_path / "features.tsv"
    write_graph_tsv(g, edge_path, feat_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "edge_path": str(edge_path), "feature_path": str(feat_path),
        "directed": False, "num_clusters": 2, "epochs": 2, "hidden": 8,
        "d_f": 4, "k_pe": 4, "eval_every": 0,
        "output_dir": str(tmp_path / "out")}))
    assert main(["train", "--config", str(config)]) == EXIT_OK
    (path,) = pe_files(tmp_path / "out")
    assert np.load(path)[0, 1] == 1.0
    assert main(["train", "--config", str(config)]) == EXIT_OK
    assert main(["oracle", "--config", str(config), "--checkpoint",
                 str(tmp_path / "out" / "checkpoint.json"), "--output-dir",
                 str(tmp_path / "oracle")]) == EXIT_OK, capsys.readouterr().err
