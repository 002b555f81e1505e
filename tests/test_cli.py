import contextlib
import csv
import dataclasses
import io
import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_connected_graph
from test_graph import NODE_NAME
from test_optimize import run_fresh_import
from pprinv import cli
from pprinv.cli import main
from pprinv.embedding import load_embedding
from pprinv.graph import Graph, parse_edge_list, serialize_edge_list
from pprinv.linalg import save_matrix
from pprinv.metrics import relative_frobenius_error
from pprinv.optimize import OptConfig, forward_proximity
from pprinv.proximity import deepwalk_log_proximity


_PRESETS = ("strap", "approxppr", "nrp", "lemane", "sensei", "deepwalk")


def exit_code(argv):
    """main's return value, or the status of the SystemExit that argparse
    raises for a usage error."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def write_graph(path, g):
    path.write_text(serialize_edge_list(g))
    return str(path)


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.txt"
    path.write_text("0 1\n1 2\n")
    return str(path)


@pytest.fixture
def small_graph(tmp_path):
    g = random_connected_graph(10, 0.35, 0)
    return g, write_graph(tmp_path / "g.txt", g)


@pytest.fixture
def two_triangles_embedding(tmp_path):
    """STRAP embedding (d=4) of two triangles joined by an edge, volume 14."""
    graph = tmp_path / "two_triangles.txt"
    graph.write_text("0 1\n0 2\n1 2\n3 4\n3 5\n4 5\n2 3\n")
    emb_dir = tmp_path / "emb"
    assert main([
        "embed", "--graph", str(graph), "--preset", "strap", "--alpha", "0.5",
        "--dim", "4", "--out", str(emb_dir),
    ]) == 0
    return emb_dir


class TestEmbedCommand:
    def test_p3_strap_writes_directory(self, p3_file, tmp_path):
        out = tmp_path / "emb"
        rc = main([
            "embed", "--graph", p3_file, "--preset", "strap", "--alpha", "0.5",
            "--dim", "2", "--seed", "0", "--out", str(out),
        ])
        assert rc == 0
        pair = load_embedding(out)
        assert pair.x.shape == (3, 2) and pair.y.shape == (3, 2)
        assert pair.meta["preset"] == "strap"

    def test_dimension_exceeds_node_count(self, p3_file, tmp_path, capsys):
        rc = main([
            "embed", "--graph", p3_file, "--preset", "strap", "--alpha", "0.5",
            "--dim", "4", "--out", str(tmp_path / "emb"),
        ])
        assert rc == 1
        assert "dimension exceeds node count" in capsys.readouterr().err

    def test_dimension_zero_rejected(self, p3_file, tmp_path, capsys, monkeypatch):
        # Rejected before the proximity is built.
        def no_build(*args):
            raise AssertionError("build_proximity called")

        monkeypatch.setattr(cli.prox, "build_proximity", no_build)
        for dim in ("0", "-3"):
            rc = main([
                "embed", "--graph", p3_file, "--preset", "strap", "--alpha", "0.5",
                "--dim", dim, "--out", str(tmp_path / "emb"),
            ])
            assert rc == 1
            assert "out of range" in capsys.readouterr().err
            assert not (tmp_path / "emb").exists()

    def test_unwritable_out_rejected_before_any_proximity(self, p3_file, capsys,
                                                          monkeypatch):
        # An existing regular file, and a path under one.
        built = []
        monkeypatch.setattr(cli.prox, "build_proximity", lambda *a: built.append(a))
        for out in (p3_file, str(Path(p3_file, "emb"))):
            rc = main(["embed", "--graph", p3_file, "--preset", "strap", "--alpha", "0.5",
                       "--dim", "2", "--out", out])
            assert rc == 1
            assert (f"cannot write {out}: not a directory in a writable directory"
                    in capsys.readouterr().err)
        assert built == []
        assert Path(p3_file).read_text() == "0 1\n1 2\n"

    def test_non_finite_or_overflowing_epsilon_rejected(self, p3_file, tmp_path, capsys,
                                                        monkeypatch):
        # Rejected before the proximity is built: inf would give an all-zero
        # embedding, nan an all-NaN proximity, 1e-320 an infinite scale.
        def no_build(*args):
            raise AssertionError("build_proximity called")

        monkeypatch.setattr(cli.prox, "build_proximity", no_build)
        for epsilon, message in (("inf", "epsilon must be positive and finite, got inf"),
                                 ("nan", "epsilon must be positive and finite, got nan"),
                                 ("1e-320", "scale b/(epsilon*K) = inf")):
            rc = main([
                "embed", "--graph", p3_file, "--preset", "strap", "--alpha", "0.5",
                "--epsilon", epsilon, "--dim", "2", "--out", str(tmp_path / "emb"),
            ])
            assert rc == 1
            assert message in capsys.readouterr().err
            assert not (tmp_path / "emb").exists()

    def test_meta_records_alpha(self, small_graph, tmp_path):
        _, path = small_graph
        out = tmp_path / "emb"
        rc = main([
            "embed", "--graph", path, "--preset", "strap", "--alpha", "0.7",
            "--dim", "8", "--out", str(out),
        ])
        assert rc == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["alpha"] == 0.7

    def test_meta_byte_identical_across_runs(self, small_graph, tmp_path):
        _, path = small_graph
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main([
                "embed", "--graph", path, "--preset", "strap", "--alpha", "0.5",
                "--dim", "4", "--seed", "7", "--out", str(out),
            ])
            blobs.append((out / "meta.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_lemane_with_schedule_file(self, small_graph, tmp_path):
        _, path = small_graph
        schedule = tmp_path / "alphas.txt"
        schedule.write_text("".join(f"{0.1 + 0.05 * i}\n" for i in range(11)))
        rc = main([
            "embed", "--graph", path, "--preset", "lemane",
            "--alpha-schedule", str(schedule), "--dim", "4",
            "--out", str(tmp_path / "emb"),
        ])
        assert rc == 0

    def test_alpha_schedule_without_lemane_rejected(self, small_graph, tmp_path, capsys):
        _, path = small_graph
        schedule = tmp_path / "alphas.txt"
        schedule.write_text("0.5\n" * 11)
        out = tmp_path / "emb"
        rc = main([
            "embed", "--graph", path, "--preset", "strap", "--alpha", "0.5",
            "--alpha-schedule", str(schedule), "--dim", "4", "--out", str(out),
        ])
        assert rc == 1
        assert "--alpha-schedule is used only by the lemane preset" in capsys.readouterr().err
        assert not out.exists()

    def test_lemane_rejects_alpha(self, small_graph, tmp_path, capsys):
        # preset_config ignores alpha for a schedule, so meta.json would
        # record a number that never shaped the target.
        _, path = small_graph
        schedule = tmp_path / "alphas.txt"
        schedule.write_text("0.5\n" * 11)
        out = tmp_path / "emb"
        capsys.readouterr()
        rc = main([
            "embed", "--graph", path, "--preset", "lemane", "--alpha", "0.5",
            "--alpha-schedule", str(schedule), "--dim", "4", "--out", str(out),
        ])
        assert rc == 1
        assert ("--alpha is not used by the lemane preset: it reads --alpha-schedule"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize(
        "preset", ["strap", "approxppr", "nrp", "lemane", "sensei", "deepwalk"]
    )
    def test_meta_keys_per_preset(self, small_graph, tmp_path, preset):
        _, path = small_graph
        schedule = tmp_path / "alphas.txt"
        schedule.write_text("0.5\n" * 11)
        out = tmp_path / "emb"
        rc = main([
            "embed", "--graph", path, "--preset", preset, "--dim", "4",
            "--out", str(out),
            *(["--alpha-schedule", str(schedule)] if preset == "lemane"
              else ["--alpha", "0.5"]),
        ])
        assert rc == 0
        meta = json.loads((out / "meta.json").read_text())
        keys = {"preset", "alpha", "epsilon", "k_horizon", "dim", "seed",
                "graph_n", "graph_volume"}
        if preset == "lemane":
            keys.add("alpha_schedule")
            assert meta["alpha"] is None
        assert set(meta) == keys
        assert meta["preset"] == preset

    @pytest.mark.parametrize("preset", _PRESETS)
    def test_config_from_meta_is_the_built_config(self, small_graph, tmp_path,
                                                  monkeypatch, preset):
        _, path = small_graph
        schedule = tmp_path / "alphas.txt"
        schedule.write_text("".join(f"{0.1 + 0.1 * i}\n" for i in range(8)))
        built, original = [], cli.prox.build_proximity
        monkeypatch.setattr(cli.prox, "build_proximity",
                            lambda g, cfg: built.append(cfg) or original(g, cfg))
        out = tmp_path / "emb"
        assert main([
            "embed", "--graph", path, "--preset", preset,
            "--epsilon", "3e-7", "--k-horizon", "7", "--dim", "4", "--out", str(out),
            *(["--alpha-schedule", str(schedule)] if preset == "lemane"
              else ["--alpha", "0.3"]),
        ]) == 0
        [cfg] = built
        rebuilt = cli._config_from_meta(load_embedding(out).meta)
        for field in dataclasses.fields(cfg):
            assert getattr(rebuilt, field.name) == getattr(cfg, field.name), field.name
        assert rebuilt == cfg


class TestInvertCommand:
    def test_optimize_self_consistent_target(self, small_graph, tmp_path):
        _, path = small_graph
        g = parse_edge_list(Path(path).read_text())
        target = forward_proximity(g.adjacency(), 0.5, 1e-7, 10)
        mat = tmp_path / "target.mat"
        save_matrix(mat, target)
        out = tmp_path / "recovered.txt"
        rc = main([
            "invert", "optimize", "--proximity", str(mat), "--graph", path,
            "--alpha", "0.5", "--opt-epsilon", "1e-7", "--epochs", "200",
            "--step-size", "0.3", "--out", str(out),
        ])
        assert rc == 0
        assert out.read_text() == serialize_edge_list(g)

    def test_optimize_loss_trace_rows(self, small_graph, tmp_path):
        g, path = small_graph
        target = forward_proximity(g.adjacency(), 0.5, 1e-7, 10)
        mat = tmp_path / "target.mat"
        save_matrix(mat, target)
        trace = tmp_path / "trace.csv"
        rc = main([
            "invert", "optimize", "--proximity", str(mat), "--graph", path,
            "--alpha", "0.5", "--epochs", "40",
            "--out", str(tmp_path / "rec.txt"), "--loss-trace", str(trace),
        ])
        assert rc == 0
        rows = list(csv.reader(trace.read_text().splitlines()))
        assert rows[0] == ["epoch", "loss"]
        assert len(rows) == 41
        losses = [float(r[1]) for r in rows[1:]]
        assert losses[-1] < losses[0]

    def test_optimize_inverts_a_complete_graph(self, tmp_path, capsys):
        # Volume 6 on 3 nodes is every pair: the graph is forced, no epoch
        # runs, and the sweep row leaves final_loss blank.
        graph = tmp_path / "k3.txt"
        graph.write_text("0 1\n0 2\n1 2\n")
        emb_dir, out, trace = tmp_path / "emb", tmp_path / "rec.txt", tmp_path / "trace.csv"
        assert main(["embed", "--graph", str(graph), "--preset", "strap", "--alpha", "0.5",
                     "--dim", "2", "--out", str(emb_dir)]) == 0
        assert main(["invert", "optimize", "--embedding", str(emb_dir), "--graph", str(graph),
                     "--out", str(out), "--loss-trace", str(trace)]) == 0
        assert "(3 edges)" in capsys.readouterr().out
        assert out.read_text() == graph.read_text()
        assert trace.read_text().splitlines() == ["epoch,loss"]
        sweep = tmp_path / "sweep.csv"
        assert main(["sweep", "--graph", str(graph), "--presets", "strap", "--dims", "2",
                     "--alpha", "0.5", "--out", str(sweep)]) == 0
        with sweep.open() as fh:
            (row,) = csv.DictReader(fh)
        assert row["status"] == "ok" and row["final_loss"] == ""

    def test_optimize_uses_embedding_meta(self, small_graph, tmp_path):
        g, path = small_graph
        emb_dir = tmp_path / "emb"
        main([
            "embed", "--graph", path, "--preset", "strap", "--alpha", "0.5",
            "--dim", "10", "--out", str(emb_dir),
        ])
        out = tmp_path / "rec.txt"
        rc = main([
            "invert", "optimize", "--embedding", str(emb_dir), "--graph", path,
            "--opt-epsilon", "5e-8", "--epochs", "120", "--step-size", "0.3",
            "--out", str(out),
        ])
        assert rc == 0
        recovered = parse_edge_list(out.read_text())
        assert recovered.num_edges == g.num_edges

    def test_default_opt_epsilon_fits_the_default_embedding(self, small_graph, tmp_path,
                                                            monkeypatch):
        # The optimizer fits STRAP at twice its epsilon: with no epsilon flag
        # anywhere, invert and sweep fit the model embed built.
        _, path = small_graph
        emb_dir = tmp_path / "emb"
        assert main(["embed", "--graph", path, "--preset", "strap", "--alpha", "0.5",
                     "--dim", "10", "--out", str(emb_dir)]) == 0
        built = cli._config_from_meta(load_embedding(emb_dir).meta)
        calls, original = [], cli.invert_optimize
        monkeypatch.setattr(
            cli, "invert_optimize", lambda *a: calls.append(a[1]) or original(*a)
        )
        assert main(["invert", "optimize", "--embedding", str(emb_dir), "--graph", path,
                     "--epochs", "2", "--out", str(tmp_path / "rec.txt")]) == 0
        assert main(["sweep", "--graph", path, "--presets", "strap", "--dims", "4",
                     "--alpha", "0.5", "--epochs", "2",
                     "--out", str(tmp_path / "sweep.csv")]) == 0
        assert len(calls) == 2
        # The library's OptConfig, with no epsilon, fits the same model.
        default = OptConfig(target_volume=calls[0].target_volume, alpha=0.5)
        for cfg in [*calls, default]:
            for field in dataclasses.fields(built):
                assert getattr(cfg.model, field.name) == getattr(built, field.name), field.name
            assert cfg.model.scale == built.scale
        # Both commands take their optimizer defaults from OptConfig; invert's
        # K falls back to it when there is no meta.json to read.
        parser, out = cli.build_parser(), ["--out", "x"]
        invert = parser.parse_args(["invert", "optimize", "--proximity", "m.mat",
                                    "--degrees", "d.txt", "--alpha", "0.5", *out])
        sweep = parser.parse_args(["sweep", "--graph", path, "--presets", "strap",
                                   "--dims", "4", *out])
        assert invert.k_horizon is None
        assert cli._inversion(invert, None, 14.0).k_horizon == default.k_horizon
        for args in (invert, sweep):
            assert (args.epochs, args.step_size, args.opt_epsilon) == (
                default.epochs, default.step_size, default.epsilon)
        assert sweep.k_horizon == default.k_horizon
        with pytest.raises(SystemExit) as exit_info:
            main(["invert", "optimize", "--embedding", str(emb_dir), "--graph", path,
                  "--epsilon", "5e-8", "--out", str(tmp_path / "rec.txt")])
        assert exit_info.value.code == 2

    def test_optimize_k_horizon_from_embedding_meta(self, small_graph, tmp_path, monkeypatch):
        _, path = small_graph
        emb_dir = tmp_path / "emb"
        main([
            "embed", "--graph", path, "--preset", "strap", "--alpha", "0.5",
            "--k-horizon", "20", "--dim", "10", "--out", str(emb_dir),
        ])
        original, horizons = cli.invert_optimize, []

        def capture(target, cfg, m_edges):
            horizons.append(cfg.k_horizon)
            return original(target, cfg, m_edges)

        monkeypatch.setattr(cli, "invert_optimize", capture)
        rc = main([
            "invert", "optimize", "--embedding", str(emb_dir), "--graph", path,
            "--epochs", "2", "--out", str(tmp_path / "rec.txt"),
        ])
        assert rc == 0
        assert horizons == [20]

    @pytest.mark.parametrize("source", ["--graph", "--degrees"])
    @pytest.mark.parametrize("method", ["optimize", "analytical"])
    def test_graph_of_another_volume_rejected(
        self, two_triangles_embedding, tmp_path, capsys, method, source
    ):
        # A 6-cycle has the embedding's node count but volume 12, not 14.
        wrong = tmp_path / "wrong.txt"
        wrong.write_text(
            "".join(f"{i} {(i + 1) % 6}\n" for i in range(6)) if source == "--graph"
            else "2\n" * 6
        )
        out = tmp_path / "rec.txt"
        capsys.readouterr()
        rc = main([
            "invert", method, "--embedding", str(two_triangles_embedding), source,
            str(wrong), "--out", str(out),
        ])
        assert rc == 1
        assert ("degree sum 12 differs from the embedding's graph_volume 14"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_volume_not_checked_without_the_meta_key(self, two_triangles_embedding,
                                                     tmp_path):
        meta_path = two_triangles_embedding / "meta.json"
        meta = json.loads(meta_path.read_text())
        del meta["graph_volume"]
        meta_path.write_text(json.dumps(meta))
        degrees = tmp_path / "deg.txt"
        degrees.write_text("2\n" * 6)
        rc = main([
            "invert", "analytical", "--embedding", str(two_triangles_embedding),
            "--degrees", str(degrees), "--out", str(tmp_path / "rec.txt"),
        ])
        assert rc == 0

    @pytest.mark.parametrize("key, value, message", [
        ("epsilon", float("inf"), "epsilon must be positive and finite, got inf"),
        ("k_horizon", 0, "k_horizon must be >= 1, got 0"),
        ("preset", "node2vec", "'node2vec' is not a valid Preset"),
        ("k_horizon", True, "meta.json k_horizon has the wrong type: true"),
        ("k_horizon", None, "meta.json k_horizon has the wrong type: null"),
        ("k_horizon", 10.5, "meta.json k_horizon has the wrong type: 10.5"),
        ("k_horizon", 10.0, "meta.json k_horizon has the wrong type: 10.0"),
        ("alpha", "0.5", 'meta.json alpha has the wrong type: "0.5"'),
        ("alpha", False, "meta.json alpha has the wrong type: false"),
        ("epsilon", None, "meta.json epsilon has the wrong type: null"),
        ("graph_volume", "14", 'meta.json graph_volume has the wrong type: "14"'),
        ("preset", 1, "meta.json preset has the wrong type: 1"),
        ("alpha_schedule", [0.5, "0.4"],
         'meta.json alpha_schedule has the wrong type: [0.5, "0.4"]'),
    ], ids=["epsilon-inf", "k-horizon-0", "unknown-preset", "k-horizon-true",
            "k-horizon-null", "k-horizon-10.5", "k-horizon-10.0", "alpha-string",
            "alpha-false", "epsilon-null", "graph-volume-string", "preset-number",
            "schedule-with-a-string"])
    def test_meta_that_preset_config_rejects(
        self, two_triangles_embedding, tmp_path, capsys, monkeypatch, key, value, message
    ):
        meta_path = two_triangles_embedding / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta[key] = value
        meta_path.write_text(json.dumps(meta))
        calls = []
        monkeypatch.setattr(cli, "invert_optimize", lambda *a: calls.append(a))
        out = tmp_path / "rec.txt"
        capsys.readouterr()
        rc = main([
            "invert", "optimize", "--embedding", str(two_triangles_embedding),
            "--graph", str(tmp_path / "two_triangles.txt"), "--opt-epsilon", "5e-8",
            "--out", str(out),
        ])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("flags", [[], ["--k-horizon", "10"]],
                             ids=["no-flag", "k-horizon-10"])
    def test_meta_without_k_horizon_rejected(
        self, two_triangles_embedding, tmp_path, capsys, monkeypatch, flags
    ):
        # The preset config is rebuilt from meta.json before any flag is read.
        meta_path = two_triangles_embedding / "meta.json"
        meta = json.loads(meta_path.read_text())
        del meta["k_horizon"]
        meta_path.write_text(json.dumps(meta))
        calls = []
        monkeypatch.setattr(cli, "invert_optimize", lambda *a: calls.append(a))
        out = tmp_path / "rec.txt"
        capsys.readouterr()
        rc = main([
            "invert", "optimize", "--embedding", str(two_triangles_embedding),
            "--graph", str(tmp_path / "two_triangles.txt"), *flags, "--out", str(out),
        ])
        assert rc == 1
        assert "meta.json has no k_horizon" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    def test_meta_without_preset_inverts_with_flags(
        self, two_triangles_embedding, tmp_path, capsys, monkeypatch
    ):
        # A meta.json with no preset is a target with no config to rebuild:
        # alpha comes from --alpha alone, and K from OptConfig.
        (two_triangles_embedding / "meta.json").write_text("{}")
        horizons, original = [], cli.invert_optimize
        monkeypatch.setattr(cli, "invert_optimize",
                            lambda *a: horizons.append(a[1].k_horizon) or original(*a))
        out = tmp_path / "rec.txt"
        argv = ["invert", "optimize", "--embedding", str(two_triangles_embedding),
                "--graph", str(tmp_path / "two_triangles.txt"), "--epochs", "2",
                "--out", str(out)]
        capsys.readouterr()
        assert main(argv) == 1
        assert "--alpha required (not in metadata)" in capsys.readouterr().err
        assert horizons == []
        assert not out.exists()
        assert main([*argv, "--alpha", "0.5"]) == 0
        assert horizons == [OptConfig.k_horizon]
        assert parse_edge_list(out.read_text()).num_edges == 7

    def test_lemane_needs_alpha(self, small_graph, tmp_path, capsys, monkeypatch):
        # A lemane schedule has no one stopping probability to invert with.
        _, path = small_graph
        schedule = tmp_path / "alphas.txt"
        schedule.write_text("".join(f"{0.1 + 0.05 * i}\n" for i in range(11)))
        emb_dir = tmp_path / "emb"
        assert main([
            "embed", "--graph", path, "--preset", "lemane",
            "--alpha-schedule", str(schedule), "--dim", "4", "--out", str(emb_dir),
        ]) == 0
        calls, original = [], cli.invert_optimize
        monkeypatch.setattr(
            cli, "invert_optimize", lambda *a: calls.append(a) or original(*a)
        )
        out = tmp_path / "rec.txt"
        argv = ["invert", "optimize", "--embedding", str(emb_dir), "--graph", path,
                "--opt-epsilon", "5e-8", "--epochs", "2", "--out", str(out)]
        capsys.readouterr()
        assert main(argv) == 1
        assert "--alpha required" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()
        assert main([*argv, "--alpha", "0.3"]) == 0
        assert [cfg.alpha for _, cfg, _ in calls] == [0.3]
        assert out.exists()

    def test_analytical_requires_degrees(self, tmp_path, capsys):
        # A usage error, as for two degree sources (test_conflicting_inputs_rejected).
        mat = tmp_path / "m.mat"
        save_matrix(mat, np.zeros((3, 3)))
        out = tmp_path / "rec.txt"
        assert exit_code([
            "invert", "analytical", "--proximity", str(mat), "--alpha", "0.7",
            "--out", str(out),
        ]) == 2
        assert ("one of the arguments --graph --degrees is required"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("flags, code, message", [
        (["--degrees", "deg3.txt", "--alpha", "0.7"], 2,
         "one of the arguments --embedding --proximity is required"),
        (["--proximity", "m.mat", "--degrees", "deg3.txt"], 1,
         "--alpha required (not in metadata)"),
        (["--proximity", "m.mat", "--degrees", "deg4.txt", "--alpha", "0.7"], 1,
         "4 degrees for a 3-node target proximity"),
    ], ids=["no-target", "no-alpha", "degree-count"])
    def test_missing_or_mismatched_input_rejected(
        self, tmp_path, capsys, monkeypatch, flags, code, message
    ):
        monkeypatch.chdir(tmp_path)
        save_matrix("m.mat", np.zeros((3, 3)))
        Path("deg3.txt").write_text("2\n2\n2\n")
        Path("deg4.txt").write_text("1\n1\n1\n1\n")
        assert exit_code(["invert", "analytical", *flags, "--out", "rec.txt"]) == code
        assert message in capsys.readouterr().err
        assert not Path("rec.txt").exists()

    def test_overflowing_proximity_rejected_before_any_output(self, tmp_path, capsys):
        path = write_graph(tmp_path / "g.txt", random_connected_graph(6, 0.5, 2))
        g = parse_edge_list(Path(path).read_text())
        m = deepwalk_log_proximity(g, 0.7, 10)
        m[1, 4] = 800.0
        mat = tmp_path / "m.mat"
        save_matrix(mat, m)
        out = tmp_path / "rec.txt"
        rc = main([
            "invert", "analytical", "--proximity", str(mat), "--graph", path,
            "--alpha", "0.7", "--out", str(out),
        ])
        assert rc == 1
        assert ("proximity m_k has 1 finite entries whose exponential overflows"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_unwritable_loss_trace_rejected_before_any_output(
        self, two_triangles_embedding, tmp_path, capsys, monkeypatch
    ):
        graph = tmp_path / "two_triangles.txt"
        out, trace = tmp_path / "rec.txt", tmp_path / "missing" / "trace.csv"
        monkeypatch.setattr(cli, "invert_optimize", None)
        rc = main([
            "invert", "optimize", "--embedding", str(two_triangles_embedding),
            "--graph", str(graph), "--loss-trace", str(trace), "--out", str(out),
        ])
        assert rc == 1
        assert (f"cannot write {trace}: not a file in a writable directory"
                in capsys.readouterr().err)
        assert not out.exists() and not trace.exists()

    def test_unwritable_out_rejected_before_any_work(self, tmp_path, capsys, monkeypatch):
        path = write_graph(tmp_path / "g.txt", random_connected_graph(6, 0.5, 2))
        mat = tmp_path / "m.mat"
        save_matrix(mat, deepwalk_log_proximity(parse_edge_list(Path(path).read_text()),
                                                0.7, 10))
        monkeypatch.setattr(cli, "invert_analytical", None)
        # A missing parent directory, and a "parent" that is a regular file.
        for parent in ("missing", "g.txt"):
            out = tmp_path / parent / "rec.txt"
            rc = main(["invert", "analytical", "--proximity", str(mat), "--graph", path,
                       "--alpha", "0.7", "--out", str(out)])
            assert rc == 1
            assert (f"cannot write {out}: not a file in a writable directory"
                    in capsys.readouterr().err)
            assert not out.parent.is_dir()

    def test_analytical_exact_proximity_recovers(self, tmp_path):
        path = write_graph(
            tmp_path / "g.txt", random_connected_graph(12, 0.4, 3, full_rank=True)
        )
        g = parse_edge_list(Path(path).read_text())
        mat = tmp_path / "m.mat"
        save_matrix(mat, deepwalk_log_proximity(g, 0.7, 2000))
        out = tmp_path / "rec.txt"
        rc = main([
            "invert", "analytical", "--proximity", str(mat), "--graph", path,
            "--alpha", "0.7", "--k-horizon", "2000", "--out", str(out),
        ])
        assert rc == 0
        assert out.read_text() == serialize_edge_list(g)

    def test_analytical_degree_file(self, tmp_path):
        g = random_connected_graph(10, 0.4, 5, full_rank=True)
        mat = tmp_path / "m.mat"
        save_matrix(mat, deepwalk_log_proximity(g, 0.7, 2000))
        deg = tmp_path / "deg.txt"
        deg.write_text("".join(f"{d}\n" for d in g.degrees))
        rc = main([
            "invert", "analytical", "--proximity", str(mat), "--degrees",
            str(deg), "--alpha", "0.7", "--k-horizon", "2000",
            "--out", str(tmp_path / "rec.txt"),
        ])
        assert rc == 0

    @pytest.mark.parametrize("flags", [
        ["--embedding", "emb", "--proximity", "m.mat"],
        ["--graph", "g.txt", "--degrees", "deg.txt"],
    ], ids=["target", "degrees"])
    def test_conflicting_inputs_rejected(self, tmp_path, capsys, flags):
        with pytest.raises(SystemExit) as exit_info:
            main(["invert", "analytical", *flags, "--out", str(tmp_path / "rec.txt")])
        assert exit_info.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    @pytest.mark.parametrize("degrees", [
        "2\n3\n2\n2\n", "2.5\n3\n2\n2.5\n", "-2\n2\n2\n2\n", "2\n2\n0\n2\n",
    ], ids=["odd-sum", "fractional", "negative", "zero"])
    def test_invalid_degree_file_rejected(self, tmp_path, capsys, degrees):
        mat = tmp_path / "m.mat"
        save_matrix(mat, np.zeros((4, 4)))
        deg = tmp_path / "deg.txt"
        deg.write_text(degrees)
        out = tmp_path / "rec.txt"
        rc = main([
            "invert", "optimize", "--proximity", str(mat), "--degrees", str(deg),
            "--alpha", "0.5", "--epochs", "2", "--out", str(out),
        ])
        assert rc == 1
        assert "positive integers with an even sum" in capsys.readouterr().err
        assert not out.exists()

    def test_degrees_on_one_line_rejected(self, tmp_path, capsys):
        mat = tmp_path / "m.mat"
        save_matrix(mat, np.zeros((2, 2)))
        deg = tmp_path / "deg.txt"
        deg.write_text("2 2\n")
        rc = main([
            "invert", "optimize", "--proximity", str(mat), "--degrees", str(deg),
            "--alpha", "0.5", "--out", str(tmp_path / "rec.txt"),
        ])
        assert rc == 1
        assert "line 1: expected one degree, got 2 tokens" in capsys.readouterr().err

    def test_non_numeric_degree_rejected_with_its_line(self, tmp_path, capsys):
        mat = tmp_path / "m.mat"
        save_matrix(mat, np.zeros((2, 2)))
        deg = tmp_path / "deg.txt"
        deg.write_text("1\nx\n")
        rc = main([
            "invert", "optimize", "--proximity", str(mat), "--degrees", str(deg),
            "--alpha", "0.5", "--out", str(tmp_path / "rec.txt"),
        ])
        assert rc == 1
        assert "line 2: 'x' is not a number" in capsys.readouterr().err


def test_k_horizon_below_one_rejected_everywhere(small_graph, tmp_path, capsys):
    # Every command that evaluates b/(epsilon*K) fails with the same message.
    _, path = small_graph
    emb_dir, out = str(tmp_path / "emb"), str(tmp_path / "out")
    assert main(["embed", "--graph", path, "--preset", "strap", "--alpha", "0.5",
                 "--dim", "4", "--out", emb_dir]) == 0
    schedule = tmp_path / "schedule.txt"
    schedule.write_text("1.0\n")
    runs = [
        ["embed", "--graph", path, "--preset", preset, "--alpha", "0.5",
         "--dim", "4", "--out", out]
        + (["--alpha-schedule", str(schedule)] if preset == "lemane" else [])
        for preset in ("strap", "approxppr", "nrp", "lemane", "sensei", "deepwalk")
    ]
    runs += [["invert", method, "--embedding", emb_dir, "--graph", path,
              "--out", out] for method in ("optimize", "analytical")]
    runs.append(["sweep", "--graph", path, "--presets", "strap", "--dims", "4",
                 "--alpha", "0.5", "--out", out])
    capsys.readouterr()
    for argv in runs:
        assert main([*argv, "--k-horizon", "0"]) == 1, argv
        assert "k_horizon must be >= 1, got 0" in capsys.readouterr().err, argv
    assert not Path(out).exists()


class TestEvaluateCommand:
    def test_identical_graphs_zero_report(self, small_graph, tmp_path):
        _, path = small_graph
        out = tmp_path / "report.json"
        rc = main([
            "evaluate", "--graph", path, "--recovered", path, "--out", str(out),
        ])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["err_A"] == 0.0
        assert report["err_l"] == 0.0

    def test_unwritable_out_rejected_before_any_work(self, small_graph, tmp_path, capsys,
                                                     monkeypatch):
        _, path = small_graph
        monkeypatch.setattr(cli.met, "recovery_report", None)
        # A missing parent directory, and a "parent" that is a regular file.
        for parent in ("missing", "g.txt"):
            out = tmp_path / parent / "report.json"
            rc = main(["evaluate", "--graph", path, "--recovered", path, "--out", str(out)])
            assert rc == 1
            assert (f"cannot write {out}: not a file in a writable directory"
                    in capsys.readouterr().err)
            assert not out.parent.is_dir()

    def test_missing_labels_flagged(self, small_graph, tmp_path):
        _, path = small_graph
        out = tmp_path / "report.json"
        main(["evaluate", "--graph", path, "--recovered", path, "--out", str(out)])
        report = json.loads(out.read_text())
        assert report["meta"]["labels_missing"] is True
        assert report["err_phi_avg"] is None
        assert report["per_community"] == []

    def test_barbell_hand_values(self, tmp_path):
        graph = tmp_path / "barbell.txt"
        graph.write_text("0 1\n0 2\n1 2\n3 4\n3 5\n4 5\n2 3\n")
        edited = tmp_path / "edited.txt"
        edited.write_text("0 1\n0 2\n1 2\n3 4\n3 5\n4 5\n2 3\n1 3\n")
        labels = tmp_path / "labels.txt"
        labels.write_text("0 L\n1 L\n2 L\n3 R\n4 R\n5 R\n")
        out = tmp_path / "report.json"
        rc = main([
            "evaluate", "--graph", str(graph), "--recovered", str(edited),
            "--labels", str(labels), "--out", str(out),
        ])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["err_A"] == pytest.approx(np.sqrt(1 / 7))
        assert report["err_phi_avg"] == pytest.approx(0.75)
        phi = {c["label"]: c for c in report["per_community"]}
        assert phi["L"]["phi_orig"] == pytest.approx(1 / 7)
        assert phi["L"]["phi_rec"] == pytest.approx(0.25)

    def test_single_label_file_reports_null_conductance(self, tmp_path):
        # One label for every node leaves the community no complement, so its
        # conductance is undefined; err_A and err_l are still reported.
        graph = tmp_path / "barbell.txt"
        graph.write_text("0 1\n0 2\n1 2\n3 4\n3 5\n4 5\n2 3\n")
        labels = tmp_path / "labels.txt"
        labels.write_text("".join(f"{i} all\n" for i in range(6)))
        out = tmp_path / "report.json"
        rc = main([
            "evaluate", "--graph", str(graph), "--recovered", str(graph),
            "--labels", str(labels), "--out", str(out),
        ])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["err_A"] == report["err_l"] == 0.0
        assert report["err_phi_avg"] is None
        assert report["per_community"] == [{
            "label": "all", "size": 6, "phi_orig": None, "phi_rec": None,
            "rel_err": None, "excluded": True,
        }]

    @settings(max_examples=25)
    @given(
        n=st.integers(3, 12),
        seed=st.integers(0, 10_000),
        rnd=st.randoms(use_true_random=False),
    )
    def test_err_a_matches_library_under_renaming(self, n, seed, rnd):
        g = random_connected_graph(n, 0.4, seed)
        names = [str(k) for k in range(n)]
        rnd.shuffle(names)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = rnd.sample(pairs, g.num_edges)
        lines = [
            f"{names[u]} {names[v]}" if rnd.random() < 0.5 else f"{names[v]} {names[u]}"
            for u, v in chosen
        ]
        rnd.shuffle(lines)
        with tempfile.TemporaryDirectory() as tmp:
            graph_path, rec_path, out = (Path(tmp, f) for f in ("g", "rec", "out"))
            graph_path.write_text(
                serialize_edge_list(dataclasses.replace(g, node_names=tuple(names)))
            )
            rec_path.write_text("\n".join(lines) + "\n")
            rc = main([
                "evaluate", "--graph", str(graph_path), "--recovered", str(rec_path),
                "--out", str(out),
            ])
            assert rc == 0
            report = json.loads(out.read_text())
            g_file = parse_edge_list(graph_path.read_text())
        ids = {name: i for i, name in enumerate(g_file.node_names)}
        g_hat = Graph.from_edges(
            n, [(ids[names[u]], ids[names[v]]) for u, v in chosen]
        )
        assert report["err_A"] == relative_frobenius_error(g_file, g_hat)


class TestNodeIdentity:
    """The embed -> invert hop: row i of the embedding is the node that
    invert's --graph file calls i, whatever either file's line order."""

    @settings(max_examples=25)
    @given(
        n=st.integers(4, 12),
        seed=st.integers(0, 10_000),
        names=st.lists(NODE_NAME, min_size=12, max_size=12, unique=True),
        rnd=st.randoms(use_true_random=False),
    )
    def test_invert_ignores_graph_line_order(self, n, seed, names, rnd):
        g = random_connected_graph(n, 0.4, seed)

        def edge_list():
            # g's edges named by names, in a random line order, with each
            # line's endpoints in a random order.
            lines = [
                f"{names[u]} {names[v]}" if rnd.random() < 0.5 else f"{names[v]} {names[u]}"
                for u, v in g.edge_set()
            ]
            rnd.shuffle(lines)
            return "".join(line + "\n" for line in lines).encode()

        with tempfile.TemporaryDirectory() as tmp:
            own, shuffled, degrees, emb_dir, out = (
                Path(tmp, f) for f in ("own.txt", "shuffled.txt", "deg.txt", "emb", "rec.txt")
            )
            own.write_bytes(edge_list())
            shuffled.write_bytes(edge_list())
            parsed = parse_edge_list(own.read_bytes())
            degrees.write_text("".join(f"{d}\n" for d in parsed.degrees))
            assert main([
                "embed", "--graph", str(own), "--preset", "strap", "--alpha", "0.5",
                "--dim", str(n), "--out", str(emb_dir),
            ]) == 0

            def invert(method, *source):
                out.unlink(missing_ok=True)
                own_flags = (["--epochs", "3", "--opt-epsilon", "5e-8"]
                             if method == "optimize" else [])
                rc = main([
                    "invert", method, "--embedding", str(emb_dir), *source,
                    *own_flags, "--out", str(out),
                ])
                return rc, out.read_bytes() if out.exists() else None

            for method in ("optimize", "analytical"):
                expected = invert(method, "--graph", str(own))
                assert invert(method, "--graph", str(shuffled)) == expected
                # A --degrees run writes 0-based ids in the same edge order;
                # naming them by row gives the --graph run's bytes.
                rc, text = invert(method, "--degrees", str(degrees))
                if text is not None:
                    text = "".join(
                        " ".join(parsed.node_names[int(i)] for i in line.split()) + "\n"
                        for line in text.decode().splitlines()
                    ).encode()
                assert (rc, text) == expected


class TestSweepCommand:
    def sweep(self, tmp_path, graph_path, extra):
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep", "--graph", graph_path, "--presets", "strap",
            "--alpha", "0.1", "--epsilon", "1e-7", "--opt-epsilon", "5e-8",
            "--step-size", "0.3", "--seed", "1", "--out", str(out),
        ] + extra)
        assert rc == 0
        with out.open() as fh:
            return list(csv.DictReader(fh))

    def test_single_dimension_single_row(self, small_graph, tmp_path):
        _, path = small_graph
        rows = self.sweep(tmp_path, path, ["--dims", "4", "--epochs", "10"])
        assert len(rows) == 1
        assert rows[0]["status"] == "ok"
        assert rows[0]["dim"] == "4"

    def test_error_cells_marked_and_run_continues(self, small_graph, tmp_path):
        _, path = small_graph
        rows = self.sweep(tmp_path, path, ["--dims", "4,999", "--epochs", "5"])
        by_dim = {r["dim"]: r for r in rows}
        assert by_dim["4"]["status"] == "ok"
        assert by_dim["999"]["status"].startswith("error:")
        assert by_dim["999"]["err_A"] == ""

    @pytest.mark.parametrize("dims", ["2,3", "2,9"], ids=["pairs-first", "interleaved"])
    def test_factorize_error_fails_only_its_cell(self, small_graph, tmp_path, monkeypatch,
                                                 dims):
        # n = 10: 2 (2 + 3) <= n factorizes both dims before the first cell,
        # 2 (2 + 9) > n each in its cell's turn; both mark the same row.
        _, path = small_graph
        factorize = cli.emb.factorize

        def fail_at_2(m, dim, seed):
            if dim == 2:
                raise ValueError("no rank 2 here")
            return factorize(m, dim, seed)

        monkeypatch.setattr(cli.emb, "factorize", fail_at_2)
        rows = self.sweep(tmp_path, path, ["--dims", dims, "--method", "analytical"])
        assert [(r["dim"], r["status"]) for r in rows] == [
            ("2", "error: no rank 2 here"), (dims[-1], "ok"),
        ]

    def test_proximity_let_go_before_the_first_inversion(self, tmp_path, monkeypatch):
        # n = 300: 2 (16 + 64) <= n, so both pairs are made first and the
        # proximity goes. The peak, 3.75 n^2 doubles, is the first inverse's
        # 3 n^2 above the pairs (0.53 n^2) and the parsed graph; with the
        # proximity beside them it was about 4.6. 2 (64 + 128) > n keeps each
        # factorization in its cell's turn.
        g = random_connected_graph(300, 0.05, 3)
        path = write_graph(tmp_path / "g.txt", g)
        calls = []

        def record(module, name):
            original = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *a: calls.append(name) or original(*a))

        record(cli.emb, "factorize")
        record(cli, "invert_analytical")
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--graph", path, "--presets", "deepwalk", "--method", "analytical",
                "--alpha", "0.1", "--k-horizon", "10", "--out", str(out)]
        tracemalloc.start()
        try:
            assert main([*argv, "--dims", "16,64"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        pairs = 8.0 * 2 * g.n * (16 + 64)
        assert peak <= 3.5 * 8.0 * g.n**2 + pairs
        factorize, invert = "factorize", "invert_analytical"
        assert calls == [factorize, factorize, invert, invert]
        calls.clear()
        assert main([*argv, "--dims", "64,128"]) == 0
        assert calls == [factorize, invert, factorize, invert]
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["dim"], r["status"]) for r in rows] == [("64", "ok"), ("128", "ok")]

    def test_dimension_trend_on_n34(self, tmp_path):
        g = random_connected_graph(34, 0.15, 1)
        path = write_graph(tmp_path / "g34.txt", g)
        rows = self.sweep(tmp_path, path, ["--dims", "8,16,32", "--epochs", "40"])
        assert [r["dim"] for r in rows] == ["8", "16", "32"]
        errs = [float(r["err_A"]) for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))

    def test_both_presets_emit_rows(self, small_graph, tmp_path):
        _, path = small_graph
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep", "--graph", path, "--presets", "strap,deepwalk",
            "--dims", "4", "--alpha", "0.1", "--epochs", "5",
            "--step-size", "0.3", "--out", str(out),
        ])
        assert rc == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert {r["preset"] for r in rows} == {"strap", "deepwalk"}

    def test_rows_follow_presets_then_dims_as_given(self, tmp_path):
        path = write_graph(tmp_path / "g.txt", random_connected_graph(20, 0.3, 3))
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep", "--graph", path, "--presets", "strap,deepwalk",
            "--dims", "16,8", "--alpha", "0.1", "--epochs", "2", "--out", str(out),
        ])
        assert rc == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["preset"], r["dim"]) for r in rows] == [
            ("strap", "16"), ("strap", "8"), ("deepwalk", "16"), ("deepwalk", "8"),
        ]

    def test_alpha_schedule_goes_to_lemane_only(self, small_graph, tmp_path, capsys,
                                                monkeypatch):
        _, path = small_graph
        schedule = tmp_path / "alphas.txt"
        schedule.write_text("".join(f"{0.1 + 0.05 * i}\n" for i in range(11)))
        calls = []
        original = cli.invert_optimize
        monkeypatch.setattr(
            cli, "invert_optimize", lambda *a: calls.append(a) or original(*a)
        )
        out = tmp_path / "sweep.csv"
        argv = [
            "sweep", "--graph", path, "--alpha-schedule", str(schedule),
            "--dims", "4", "--alpha", "0.1", "--epochs", "2", "--out", str(out),
        ]
        assert main([*argv, "--presets", "strap,lemane"]) == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["preset"], r["status"]) for r in rows] == [
            ("strap", "ok"), ("lemane", "ok"),
        ]
        out.unlink()
        calls.clear()
        capsys.readouterr()
        assert main([*argv, "--presets", "strap"]) == 1
        assert "--alpha-schedule is used only by the lemane preset" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    def test_missing_alpha_rejected_before_any_cell(self, small_graph, tmp_path, capsys):
        _, path = small_graph
        schedule = tmp_path / "alphas.txt"
        schedule.write_text("".join(f"{0.1 + 0.05 * i}\n" for i in range(11)))
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep", "--graph", path, "--presets", "lemane",
            "--alpha-schedule", str(schedule), "--dims", "4", "--epochs", "5",
            "--out", str(out),
        ])
        assert rc == 1
        assert "--alpha" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_out_rejected_before_any_proximity(
        self, small_graph, tmp_path, capsys, monkeypatch
    ):
        _, path = small_graph
        built = []
        monkeypatch.setattr(cli.prox, "build_proximity", lambda *a: built.append(a))
        # A missing parent directory, and a "parent" that is a regular file.
        for parent in ("missing", "g.txt"):
            out = tmp_path / parent / "sweep.csv"
            rc = main(["sweep", "--graph", path, "--presets", "strap", "--dims", "2,4",
                       "--alpha", "0.1", "--out", str(out)])
            assert rc == 1
            assert (f"cannot write {out}: not a file in a writable directory"
                    in capsys.readouterr().err)
            assert not out.parent.is_dir()
        assert built == []

    def test_empty_dims_rejected(self, small_graph, tmp_path, capsys):
        _, path = small_graph
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--graph", path, "--presets", "strap", "--dims", ",",
                   "--alpha", "0.1", "--out", str(out)])
        assert rc == 1
        assert "dims list must be nonempty" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("presets", [",", "", " , "])
    def test_empty_presets_rejected(self, small_graph, tmp_path, capsys, presets):
        _, path = small_graph
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--graph", path, "--presets", presets, "--dims", "4",
                   "--alpha", "0.1", "--out", str(out)])
        assert rc == 1
        assert "--presets list must be nonempty" in capsys.readouterr().err
        assert not out.exists()

    def test_non_integer_dims_rejected(self, small_graph, tmp_path, capsys):
        _, path = small_graph
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--graph", path, "--presets", "strap", "--dims", "4,x",
                   "--alpha", "0.1", "--out", str(out)])
        assert rc == 1
        assert ("--dims takes comma-separated integers, got '4,x'"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_dimension_below_one_rejected_before_any_cell(
        self, small_graph, tmp_path, capsys, monkeypatch
    ):
        # embed's rule; a dimension above the node count still fails only
        # its own cell (test_error_cells_marked_and_run_continues).
        _, path = small_graph
        built = []
        monkeypatch.setattr(cli.prox, "build_proximity", lambda *a: built.append(a))
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--graph", path, "--presets", "strap", "--dims", "4,-2,0",
                   "--alpha", "0.1", "--out", str(out)])
        assert rc == 1
        assert "dimension -2 out of range" in capsys.readouterr().err
        assert built == []
        assert not out.exists()

    def test_analytical_alpha_of_one_rejected_before_any_cell(
        self, small_graph, tmp_path, capsys, monkeypatch
    ):
        # A stopping probability of 1 builds a strap config, but the closed
        # form takes alpha in (0, 1) only.
        _, path = small_graph
        built = []
        monkeypatch.setattr(cli.prox, "build_proximity", lambda *a: built.append(a))
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--graph", path, "--presets", "strap", "--dims", "2,4",
                   "--method", "analytical", "--alpha", "1", "--out", str(out)])
        assert rc == 1
        assert "alpha must lie in (0, 1)" in capsys.readouterr().err
        assert built == []
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--epochs", "0", "epochs must be >= 1"),
        ("--step-size", "0", "step_size must be positive and finite, got 0.0"),
        ("--step-size", "inf", "step_size must be positive and finite, got inf"),
        ("--opt-epsilon", "0", "epsilon must be positive and finite, got 0.0"),
        ("--opt-epsilon", "inf", "epsilon must be positive and finite, got inf"),
    ], ids=["epochs-0", "step-size-0", "step-size-inf", "opt-epsilon-0", "opt-epsilon-inf"])
    def test_bad_optimizer_flag_rejected_before_any_cell(
        self, small_graph, tmp_path, capsys, monkeypatch, flag, value, message
    ):
        _, path = small_graph
        built = []
        monkeypatch.setattr(cli.prox, "build_proximity", lambda *a: built.append(a))
        out = tmp_path / "sweep.csv"
        capsys.readouterr()
        rc = main([
            "sweep", "--graph", path, "--presets", "strap,deepwalk", "--dims", "2,4",
            "--alpha", "0.1", flag, value, "--out", str(out),
        ])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert built == []
        assert not out.exists()

    def test_one_opt_config_per_preset_shared_by_its_cells(
        self, small_graph, tmp_path, monkeypatch
    ):
        _, path = small_graph
        configs, original = [], cli.invert_optimize
        monkeypatch.setattr(
            cli, "invert_optimize", lambda *a: configs.append(a[1]) or original(*a)
        )
        assert main([
            "sweep", "--graph", path, "--presets", "strap,deepwalk", "--dims", "2,4",
            "--alpha", "0.1", "--epochs", "2", "--out", str(tmp_path / "sweep.csv"),
        ]) == 0
        # Cells run strap 2, strap 4, deepwalk 2, deepwalk 4.
        assert len(configs) == 4
        assert all(isinstance(cfg, OptConfig) for cfg in configs)
        assert configs[0] is configs[1] and configs[2] is configs[3]
        assert configs[0] is not configs[2]

    def test_presets_share_one_spectrum_and_leak_nothing(self, tmp_path, monkeypatch):
        # At K = 200 every preset's walk sum on this graph is spectral.
        path = write_graph(tmp_path / "g.txt", random_connected_graph(12, 0.4, 2))
        eighs, eigh = [], cli.gr._similar_eigh
        monkeypatch.setattr(cli.gr, "_similar_eigh",
                            lambda *a: eighs.append(a) or eigh(*a))
        presets = ["strap", "approxppr", "nrp"]
        flags = ["--graph", path, "--dims", "2,4", "--method", "analytical",
                 "--alpha", "0.1", "--k-horizon", "200"]
        shared = tmp_path / "shared.csv"
        assert main(["sweep", *flags, "--presets", ",".join(presets),
                     "--out", str(shared)]) == 0
        assert len(eighs) == 1
        # Each preset alone, in a new interpreter: the header once, then
        # each preset's rows in --presets order.
        lines = []
        for preset in presets:
            out = tmp_path / f"{preset}.csv"
            argv = ["sweep", *flags, "--presets", preset, "--out", str(out)]
            done = run_fresh_import(
                f"from pprinv.cli import main; raise SystemExit(main({argv!r}))")
            assert done.returncode == 0, done.stderr
            header, *rows = out.read_bytes().splitlines(keepends=True)
            lines += rows if lines else [header, *rows]
        assert shared.read_bytes() == b"".join(lines)

    def test_unknown_preset_rejected_before_any_cell(
        self, small_graph, tmp_path, capsys, monkeypatch
    ):
        _, path = small_graph
        calls = []
        monkeypatch.setattr(cli, "invert_optimize", lambda *a: calls.append(a))
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep", "--graph", path, "--presets", "strap,node2vec",
            "--dims", "4", "--alpha", "0.1", "--epochs", "5", "--out", str(out),
        ])
        assert rc == 1
        assert "'node2vec' is not a valid Preset" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    def test_labels_populate_phi_column(self, tmp_path):
        g = random_connected_graph(12, 0.4, 2)
        path = write_graph(tmp_path / "g.txt", g)
        labels = tmp_path / "labels.txt"
        labels.write_text("".join(f"{i} {'a' if i < 6 else 'b'}\n" for i in range(12)))
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep", "--graph", path, "--labels", str(labels),
            "--presets", "strap", "--dims", "4", "--alpha", "0.1",
            "--epochs", "5", "--out", str(out),
        ])
        assert rc == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["err_phi_avg"] != ""


def _run(argv) -> tuple[int, str]:
    """main(argv) and the message of its 'pprinv: error:' line, if any."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(argv)
    prefix = "pprinv: error: "
    lines = [line for line in err.getvalue().splitlines() if line.startswith(prefix)]
    return rc, lines[-1][len(prefix):] if lines else ""


class TestChainEqualsSweep:
    """A sweep cell is embed -> invert -> evaluate at the same flags."""

    @settings(max_examples=25)
    @given(
        n=st.integers(6, 14),
        seed=st.integers(0, 10_000),
        preset=st.sampled_from(_PRESETS),
        method=st.sampled_from(["optimize", "analytical"]),
        dim=st.integers(1, 14),  # clipped to n
        # alpha = 1 is a valid stopping probability that neither inversion
        # takes, so its cells fail (and DEEPWALK's epsilon (1-alpha)/vol too).
        alpha=st.sampled_from([0.1, 0.5, 0.7, 1.0]) | st.floats(0.05, 0.95),
        k_horizon=st.integers(1, 12),
        schedule=st.lists(st.floats(0.05, 1.0), min_size=13, max_size=13),
        epsilon=st.sampled_from([1e-7, 3e-7]),
        # None leaves --opt-epsilon out of both the sweep and the invert.
        opt_epsilon=st.sampled_from([None, 5e-8, 1e-7, 2e-7]),
        epochs=st.integers(1, 5),
        alpha_to_invert=st.booleans(),
    )
    @example(n=8, seed=1, preset="lemane", method="optimize", dim=4, alpha=0.3,
             k_horizon=12, schedule=[0.5] * 12 + [1.0], epsilon=1e-7, opt_epsilon=5e-8,
             epochs=3, alpha_to_invert=False)
    @example(n=8, seed=1, preset="nrp", method="analytical", dim=8, alpha=1.0,
             k_horizon=10, schedule=[0.5] * 13, epsilon=1e-7, opt_epsilon=5e-8,
             epochs=3, alpha_to_invert=False)
    @example(n=8, seed=1, preset="deepwalk", method="optimize", dim=4, alpha=1.0,
             k_horizon=10, schedule=[0.5] * 13, epsilon=1e-7, opt_epsilon=5e-8,
             epochs=3, alpha_to_invert=True)
    @example(n=8, seed=1, preset="strap", method="optimize", dim=4, alpha=1.0,
             k_horizon=10, schedule=[0.5] * 13, epsilon=1e-7, opt_epsilon=None,
             epochs=3, alpha_to_invert=False)
    @example(n=8, seed=1, preset="strap", method="optimize", dim=4, alpha=0.5,
             k_horizon=10, schedule=[0.5] * 13, epsilon=3e-7, opt_epsilon=None,
             epochs=3, alpha_to_invert=False)
    def test_sweep_row_is_the_chain(self, n, seed, preset, method, dim, alpha,
                                    k_horizon, schedule, epsilon, opt_epsilon, epochs,
                                    alpha_to_invert):
        g = random_connected_graph(n, 0.4, seed)
        dim = min(dim, n)
        build = ["--epsilon", repr(epsilon), "--k-horizon", str(k_horizon),
                 "--seed", str(seed % 7)]
        # sweep needs --alpha to invert lemane; embed rejects it there.
        alpha_flag = ["--alpha", repr(alpha)]
        opt = [] if opt_epsilon is None else ["--opt-epsilon", repr(opt_epsilon)]
        with tempfile.TemporaryDirectory() as tmp:
            graph, labels, schedule_file, emb_dir, rec, trace, report, sweep_csv = (
                str(Path(tmp, f)) for f in ("g.txt", "labels.txt", "alphas.txt", "emb",
                                            "rec.txt", "trace.csv", "report.json",
                                            "sweep.csv")
            )
            write_graph(Path(graph), g)
            Path(labels).write_text("".join(f"{i} {i % 2}\n" for i in range(n)))
            if preset == "lemane":
                Path(schedule_file).write_text(
                    "".join(f"{a!r}\n" for a in schedule[: k_horizon + 1])
                )
                build += ["--alpha-schedule", schedule_file]
            fit = ["--epochs", str(epochs)] if method == "optimize" else []
            swept = _run([
                "sweep", "--graph", graph, "--labels", labels, "--presets", preset,
                "--dims", str(dim), "--method", method, *alpha_flag, *opt,
                *build, *fit, "--out", sweep_csv,
            ])
            embedded = _run(["embed", "--graph", graph, "--preset", preset,
                             "--dim", str(dim), *build, "--out", emb_dir,
                             *([] if preset == "lemane" else alpha_flag)])
            # A config that fails to build fails both, with one message.
            if embedded[0]:
                assert swept == embedded
                return
            # The embedding's meta.json supplies alpha and K unless given;
            # lemane's schedule has no constant alpha, so it is given there.
            given_alpha = alpha_flag if alpha_to_invert or preset == "lemane" else []
            if method == "optimize":
                fit += [*opt, "--loss-trace", trace]
            rc, message = _run(["invert", method, "--embedding", emb_dir, "--graph",
                                graph, *given_alpha, *fit, "--out", rec])
            # An OptConfig that fails to build (alpha = 1) fails the sweep
            # before any cell, and the chain at invert, with one message.
            if swept[0]:
                assert (rc, message) == swept
                return
            with open(sweep_csv, newline="") as fh:
                [row] = list(csv.DictReader(fh))
            if rc == 0:
                rc, message = _run(["evaluate", "--graph", graph, "--recovered", rec,
                                    "--labels", labels, "--out", report])
            if row["status"] != "ok":
                assert (rc, f"error: {message}") == (1, row["status"])
                return
            assert (rc, message) == (0, "")
            chain = json.loads(Path(report).read_text())
            for key in ("err_A", "err_l", "err_phi_avg"):
                value = chain[key]
                assert row[key] == ("" if value is None else f"{value:.9g}"), key
            if method == "optimize":
                with open(trace, newline="") as fh:
                    last = float(list(csv.reader(fh))[-1][1])
                # Both round one double: .9g to within 5e-9 relative, .12g
                # to within 5e-12, so they differ by less than 1e-8.
                assert float(row["final_loss"]) == pytest.approx(last, rel=1e-8, abs=0)
            else:
                assert row["final_loss"] == ""

    def test_circulant_analytical_rows_span_row_blocks(self, tmp_path):
        # The CI smoke's 300-node circulant (offsets 1 and 37): the closed
        # form reads each embedding's product over three row blocks.
        graph, labels = tmp_path / "circ.txt", tmp_path / "labels.txt"
        graph.write_text("".join(f"{i} {(i + 1) % 300}\n{i} {(i + 37) % 300}\n"
                                 for i in range(300)))
        labels.write_text("".join(f"{i} {i // 100}\n" for i in range(300)))
        flags = ["--graph", str(graph), "--alpha", "0.1"]
        sweep_csv = tmp_path / "sweep.csv"
        assert _run(["sweep", *flags, "--labels", str(labels), "--presets", "deepwalk",
                     "--dims", "16,64", "--method", "analytical",
                     "--out", str(sweep_csv)]) == (0, "")
        with open(sweep_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["dim"] for row in rows] == ["16", "64"]
        for row in rows:
            emb_dir, rec, report = (tmp_path / f"{name}{row['dim']}"
                                    for name in ("emb", "rec", "report"))
            assert _run(["embed", *flags, "--preset", "deepwalk", "--dim", row["dim"],
                         "--out", str(emb_dir)]) == (0, "")
            assert _run(["invert", "analytical", "--embedding", str(emb_dir),
                         "--graph", str(graph), "--out", str(rec)]) == (0, "")
            assert _run(["evaluate", "--graph", str(graph), "--recovered", str(rec),
                         "--labels", str(labels), "--out", str(report)]) == (0, "")
            chain = json.loads(report.read_text())
            assert row["status"] == "ok"
            for key in ("err_A", "err_l", "err_phi_avg"):
                assert row[key] == f"{chain[key]:.9g}", key
