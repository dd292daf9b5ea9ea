import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from hencler import cli, model
from hencler.cli import EXIT_CONFIG, EXIT_GUARD, EXIT_OK, main, run_benchmark
from hencler.graphio import load_graph, random_walk_pe
from hencler.synthetic import heterophilous_blobs, write_graph_tsv


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


def test_env_seed_override(tmp_path, dataset, monkeypatch):
    config = write_config(tmp_path, dataset)
    main(["train", "--config", str(config)])
    baseline = (tmp_path / "out" / "metrics.json").read_text()
    monkeypatch.setenv("HENCLER_SEED", "123")
    main(["train", "--config", str(config)])
    overridden = (tmp_path / "out" / "metrics.json").read_text()
    assert overridden != baseline
    recorded = json.loads(overridden)["config"]
    assert recorded["seed"] == recorded["seeds"][0] == 123
    monkeypatch.setenv("HENCLER_SEED", "not-an-int")
    assert main(["train", "--config", str(config)]) == EXIT_CONFIG


def test_loss_flag_and_tie_maps(tmp_path, dataset):
    config = write_config(tmp_path, dataset)
    assert main(["train", "--config", str(config), "--loss", "wksvd",
                 "--tie-maps"]) == EXIT_OK
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


def test_oracle_synthetic_blocks_recovers(tmp_path, capsys):
    code = main(["oracle", "--synthetic", "blocks",
                 "--block-sizes", "10,10,10", "--noise", "0.01",
                 "--output-dir", str(tmp_path / "oracle")])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "row NMI 1.0000" in out
    assert "col NMI 1.0000" in out


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
    for name, bad in (("rec.w1", missing), ("proj_src", reshaped),
                      ("src.w2", huge)):
        path = tmp_path / f"bad-{name}.json"
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


def test_oracle_rejects_more_clusters_than_d_f(tmp_path, dataset, capsys):
    # the learned similarity has rank at most d_f, so it cannot give
    # num_clusters singular pairs
    config = write_config(tmp_path, dataset, d_f=1)
    assert main(["train", "--config", str(config)]) == EXIT_OK
    checkpoint = str(tmp_path / "out" / "checkpoint.json")
    for extra in (["--checkpoint", checkpoint], []):
        code = main(["oracle", "--config", str(config),
                     "--output-dir", str(tmp_path / "oracle"), *extra])
        assert code == EXIT_CONFIG, extra
        assert "d_f 1" in capsys.readouterr().err
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


@pytest.mark.parametrize("argv", [
    ["train", "--config", "{config}", "--repeats", "0"],
    ["train", "--config", "{config}", "--repeats", "-2"],
    ["benchmark", "--sizes", "abc"],
    ["benchmark", "--sizes", "50", "--epochs", "-1"],
    ["oracle", "--synthetic", "blocks", "--block-sizes", "a,b"],
    ["oracle", "--synthetic", "blocks", "--block-sizes", "0,3"],
    ["oracle", "--synthetic", "blocks", "--noise", "-1"],
    ["oracle", "--synthetic", "blocks", "--noise", "nan"],
    ["oracle", "--synthetic", "blocks", "--noise", "inf"],
    ["oracle", "--config", "{config}", "--checkpoint", "missing.json"],
    ["export-similarity", "--config", "{config}",
     "--checkpoint", "missing.json"],
    ["HENCLER_SEED=-1", "train", "--config", "{config}"],
    ["oracle", "--config", "{config}", "--seed", "-1"],
    ["oracle", "--synthetic", "blocks", "--seed", "-1"],
    ["benchmark", "--sizes", "50", "--epochs", "1", "--seed", "-1"],
], ids=["repeats-0", "repeats-neg", "sizes-abc", "epochs-neg",
        "block-sizes-abc", "block-sizes-0", "noise-neg", "noise-nan",
        "noise-inf",
        "oracle-missing-checkpoint", "export-missing-checkpoint",
        "env-seed-neg", "oracle-seed-neg", "blocks-seed-neg",
        "benchmark-seed-neg"])
def test_bad_arguments_exit_2_and_write_nothing(tmp_path, dataset,
                                                monkeypatch, capsys, argv):
    config = write_config(tmp_path, dataset)
    monkeypatch.chdir(tmp_path)  # default output paths land in tmp_path
    while "=" in argv[0]:  # leading NAME=value words set the environment
        name, value = argv[0].split("=", 1)
        monkeypatch.setenv(name, value)
        argv = argv[1:]
    before = sorted(tmp_path.rglob("*"))
    assert main([arg.format(config=config) for arg in argv]) == EXIT_CONFIG
    assert "input error" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


def test_tracking_without_labels_exits_2_and_writes_nothing(tmp_path,
                                                             dataset, capsys):
    config = write_config(tmp_path, dataset)
    doc = json.loads(config.read_text())
    del doc["label_path"]
    config.write_text(json.dumps(doc))
    assert main(["train", "--config", str(config)]) == EXIT_CONFIG
    assert "label_path" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # the oracle needs no labels, whatever eval_every says
    assert main(["oracle", "--config", str(config),
                 "--output-dir", str(tmp_path / "oracle")]) == EXIT_OK
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
    config = write_config(tmp_path, dataset)
    main(["train", "--config", str(config), "--tie-maps"])
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
    config = write_config(tmp_path, dataset)
    with pytest.raises(SystemExit) as exc:
        main(["train", "--config", str(config), "--repeats", "2",
              "--parallel"])
    assert exc.value.code == EXIT_CONFIG
    assert "--parallel" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on purpose
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
