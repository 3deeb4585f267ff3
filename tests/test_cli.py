"""End-to-end CLI behavior through subprocesses: exit codes, artifacts."""

from __future__ import annotations

import contextlib
import csv
import copy
import io
import json
import math
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skylink import (
    budget_from_dict, cli, gen_distance_sweep, load_environments, load_model,
    read_curve_csv, read_dataset,
)
from skylink.cli import RunConfig

from conftest import ENVIRONMENTS, base_run_config, run_cli, write_json

PROVENANCE_RE = re.compile(r"^skylink [0-9][^ ]* config_sha256=[0-9a-f]{12}$")


@pytest.fixture
def workspace(tmp_path, env_file):
    """tmp dir holding a run config wired to the standard environments."""
    cfg_path = tmp_path / "run.json"
    write_json(cfg_path, base_run_config(env_file))
    return tmp_path, cfg_path


def generate(workspace, *extra):
    tmp, cfg = workspace
    proc = run_cli("generate", "--config", str(cfg), *extra, cwd=tmp)
    assert proc.returncode == 0, proc.stderr
    return tmp / "out" / "dataset.csv"


def train(workspace, dataset, *extra):
    tmp, cfg = workspace
    proc = run_cli("train", "--config", str(cfg), str(dataset), *extra, cwd=tmp)
    assert proc.returncode == 0, proc.stderr
    return tmp / "out" / "model.json", proc


class TestGenerate:
    def test_writes_dataset_and_sidecar(self, workspace):
        tmp, cfg = workspace
        proc = run_cli("generate", "--config", str(cfg), cwd=tmp)
        assert proc.returncode == 0, proc.stderr
        assert "wrote 60 rows" in proc.stdout
        ds = read_dataset(tmp / "out" / "dataset.csv")
        assert len(ds.samples) == 60
        assert ds.metadata["scenario"] == "distance_sweep"
        assert (tmp / "out" / "dataset.json").exists()

    def test_rerun_is_byte_identical(self, workspace):
        tmp, cfg = workspace
        run_cli("generate", "--config", str(cfg), "--out", "a", cwd=tmp)
        run_cli("generate", "--config", str(cfg), "--out", "b", cwd=tmp)
        for name in ("dataset.csv", "dataset.json"):
            assert (tmp / "a" / name).read_bytes() == (tmp / "b" / name).read_bytes()

    def test_seed_changes_fading_draws(self, tmp_path, env_file):
        cfg_path = tmp_path / "run.json"
        cfg = base_run_config(env_file)
        cfg["budget"]["fading"] = {"kind": "gaussian_shadow", "sigma_db": 3.0}
        write_json(cfg_path, cfg)
        for out, seed in (("s1", "1"), ("s1_again", "1"), ("s2", "2")):
            proc = run_cli(
                "generate", "--config", str(cfg_path),
                "--out", out, "--seed", seed, cwd=tmp_path,
            )
            assert proc.returncode == 0, proc.stderr
        a = (tmp_path / "s1" / "dataset.csv").read_bytes()
        assert a == (tmp_path / "s1_again" / "dataset.csv").read_bytes()
        assert a != (tmp_path / "s2" / "dataset.csv").read_bytes()

    def test_requires_config(self, tmp_path):
        proc = run_cli("generate", cwd=tmp_path)
        assert proc.returncode == 2
        assert "error" in proc.stderr

    def test_unknown_fading_key_rejected(self, tmp_path, env_file):
        cfg_path = tmp_path / "run.json"
        cfg = base_run_config(env_file)
        cfg["budget"]["fading"] = {
            "kind": "rician", "s": 1.0, "delta": 0.3, "sigma_db": 2.0,
        }
        write_json(cfg_path, cfg)
        line = cfg_path.read_text(encoding="utf-8").splitlines().index('  "budget": {')
        proc = run_cli("generate", "--config", str(cfg_path), cwd=tmp_path)
        assert (proc.returncode, proc.stderr) == (2, (
            f"error: {cfg_path}:{line + 1}: budget: malformed value: "
            "fading: unknown keys ['sigma_db']\n"
        ))
        assert not (tmp_path / "out" / "dataset.csv").exists()

    def test_unknown_environment_fails_validation(self, tmp_path, env_file):
        cfg_path = tmp_path / "run.json"
        cfg = base_run_config(env_file)
        cfg["environment"] = "orbital"
        write_json(cfg_path, cfg)
        proc = run_cli("generate", "--config", str(cfg_path), cwd=tmp_path)
        assert proc.returncode == 2
        assert "not defined" in proc.stderr

    def test_missing_environment_file(self, tmp_path, env_file):
        cfg_path = tmp_path / "run.json"
        cfg = base_run_config(env_file)
        cfg["environment_file"] = "missing.json"
        write_json(cfg_path, cfg)
        proc = run_cli("generate", "--config", str(cfg_path), cwd=tmp_path)
        assert proc.returncode == 2
        assert "does not exist" in proc.stderr

    def test_malformed_config_reports_position(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text("{\n  broken\n}\n", encoding="utf-8")
        proc = run_cli("generate", "--config", str(cfg_path), cwd=tmp_path)
        assert proc.returncode == 2
        assert "run.json:2" in proc.stderr

    @pytest.mark.parametrize("key, value, message", [
        ("alpha", "abc", "{path}: entry 1: could not convert string to float: 'abc'"),
        ("name", None, "environment name None is not a string"),
        ("alpha", True, "environment 'urban': alpha must be in (0, 1], got True"),
        (
            "c", [True, 0.0, 15.0, 12.0, 2.0],
            "environment 'urban': c1 must be finite, got True",
        ),
        (
            "sigmoid", {"a": True, "b": 0.16},
            "environment 'urban': sigmoid a must be finite and > 0, got True",
        ),
        ("name", "sub\nurban", "environment name 'sub\\nurban' must be one line"),
        ("name", "sub\rurban", "environment name 'sub\\rurban' must be one line"),
    ], ids=[
        "alpha", "name", "alpha_bool", "c_bool", "sigmoid_bool", "name_lf", "name_cr",
    ])
    def test_malformed_environment_entry(self, tmp_path, env_file, key, value, message):
        envs = json.loads(env_file.read_text(encoding="utf-8"))
        envs[1][key] = value
        write_json(env_file, envs)
        cfg_path = tmp_path / "run.json"
        write_json(cfg_path, base_run_config(env_file))
        proc = run_cli("generate", "--config", str(cfg_path), cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stderr == f"error: {message.format(path=env_file)}\n"
        assert not (tmp_path / "out" / "dataset.csv").exists()


# (command, config key set, wrong-typed value, key the error names)
WRONG_TYPED = [
    ("generate", "environment", ["urban"], "environment"),
    ("generate", "scenario", "x", "scenario"),
    ("generate", "scenario.h_m", "abc", "scenario"),
    ("generate", "budget.fading", "off", "budget"),
    ("curves rician", "curves.rician_k", 5, "curves"),
    ("curves rician", "curves", 5, "curves"),
    ("generate", "scenario.distances_m.count", math.inf, "scenario"),
    ("curves rician", "curves.rician_points", math.inf, "curves"),
    ("curves rss_distance", "train.split_seed", math.inf, "train"),
    ("generate", "budget.seed", math.inf, "budget"),
    ("curves plos_fit", "curves.theta_min_deg", math.nan, "curves"),
    ("generate", "budget.seed", 2.5, "budget"),
    ("generate", "budget.seed", "7", "budget"),
    ("generate", "budget.tx_power_dbm", True, "budget"),
    ("curves rician", "curves.rician_k_db", "x", "curves"),
    ("generate", "scenario.distances_m", "x", "scenario"),
    ("curves rss_altitude", "scenario.altitudes_m", ["x"], "scenario"),
    ("curves rss_distance", "scenario.f_mhz", "x", "scenario"),
    ("generate", "scenario.f_mhz", True, "scenario"),
    ("generate", "scenario.h_m", True, "scenario"),
    ("generate", "scenario.rx_height_m", True, "scenario"),
    ("generate", "scenario.distances_m", [True, 500.0], "scenario"),
    ("curves rss_altitude", "scenario.altitudes_m", [True, 40.0], "scenario"),
    ("generate", "scenario.distances_m.count", 20.5, "scenario"),
    ("generate", "scenario.distances_m.start", math.inf, "scenario"),
    ("curves rss_distance", "train.split_seed", 2.5, "train"),
    ("curves rss_distance", "train.split_seed", True, "train"),
    ("curves rician", "curves.rician_points", 20.5, "curves"),
    ("curves rician", "curves.rician_k", [True], "curves"),
    ("curves plos_fit", "curves.theta_min_deg", True, "curves"),
    ("curves plos_angle", "curves.uav_height_m", True, "curves"),
    ("generate", "budget.tx_gain_db", 10, "budget"),
]


@pytest.mark.parametrize("command, dotted, value, key", WRONG_TYPED)
def test_wrong_typed_config_value(tmp_path, env_file, command, dotted, value, key):
    cfg = base_run_config(env_file)
    *parents, leaf = dotted.split(".")
    node = cfg
    for part in parents:
        node = node[part]
    node[leaf] = value
    cfg_path = tmp_path / "run.json"
    write_json(cfg_path, cfg)
    lines = cfg_path.read_text(encoding="utf-8").splitlines()
    line = next(i for i, text in enumerate(lines, 1) if text.startswith(f'  "{key}":'))
    proc = run_cli(*command.split(), "--config", str(cfg_path), cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: {cfg_path}:{line}: {key}: ")
    assert proc.stderr.count("\n") == 1 and proc.stdout == ""
    assert not list((tmp_path / "out").glob("*.csv"))


def run_main(*argv):
    """cli.main in this process: (exit code, stdout, stderr)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(list(argv))
    return code, stdout.getvalue(), stderr.getvalue()


def json_leaves(node, path=()):
    """Paths to the scalars (list entries included) of a JSON document."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from json_leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from json_leaves(value, path + (i,))
    else:
        yield path


def fuzz_config():
    """A run config small enough to run every command in a few milliseconds."""
    cfg = base_run_config("environments.json")
    cfg["rbf"].update(m_hidden=4, epochs=3)
    cfg["scenario"]["distances_m"]["count"] = 30
    cfg["curves"]["rician_points"] = 31
    return cfg


FUZZ_LEAVES = [("config", p) for p in json_leaves(fuzz_config())] + [
    ("environment", p) for p in json_leaves(ENVIRONMENTS[1])  # the selected one
]
FUZZ_VALUES = [None, True, "x", -1, 0, 2.5, math.nan, math.inf, -math.inf, [], {}]
FUZZ_COMMANDS = [
    ["generate"], ["train", "out/dataset.csv"], ["curves", "rician"],
    ["curves", "plos_fit"],
]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(FUZZ_LEAVES), st.sampled_from(FUZZ_VALUES))
def test_fuzzed_config_leaf_never_escapes(leaf, value):
    """Any wrong value in a run config or environment entry ends in an exit code.

    Exit 2 is a rejected input. Exit 1 is a runtime failure such as a sigmoid
    fit without samples strictly inside (0, 1), which a degenerate but valid
    environment gives. Either ends in an `error:` line; no exception escapes.
    """
    cfg, envs = fuzz_config(), copy.deepcopy(ENVIRONMENTS)
    document, path = leaf
    node = cfg if document == "config" else envs[1]
    for part in path[:-1]:
        node = node[part]
    node[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        write_json(Path("environments.json"), envs)
        write_json(Path("run.json"), cfg)
        for command, *rest in FUZZ_COMMANDS:
            code, _, stderr = run_main(command, "--config", "run.json", *rest)
            assert code in (0, 1, 2)
            if code:
                assert stderr.splitlines()[-1].startswith("error: ")


class TestScenarioBlock:
    """Both rss curves read their scenario kind's keys from the config's block."""

    @pytest.fixture
    def run(self, tmp_path, env_file, monkeypatch):
        """Write a small run config with ``scenario``, then run one command."""
        monkeypatch.chdir(tmp_path)

        def run(scenario, *command, **top):
            cfg = base_run_config(env_file)
            cfg["rbf"]["epochs"] = 2
            cfg.update(scenario=scenario, **top)
            write_json(tmp_path / "run.json", cfg)
            return run_main(*command, "--config", "run.json")

        return run

    def test_forced_distance_sweep_keeps_frequency_and_rx_height(self, run, env_file):
        scenario = {
            "kind": "altitude_waypoints", "f_mhz": 900.0, "rx_height_m": 3.0,
            "altitudes_m": [10.0 * (i + 1) for i in range(30)],
        }
        code, _, stderr = run(scenario, "curves", "rss_distance", plos_model="product")
        assert code == 0, stderr
        _, header, rows = read_curve_csv("out/rss_distance.csv")
        want = gen_distance_sweep(
            load_environments(env_file)["urban"], 100.0,
            np.linspace(100.0, 2000.0, 200).tolist(), f_mhz=900.0,
            budget=budget_from_dict(base_run_config(env_file)["budget"]),
            plos_model="product", rx_height_m=3.0,
        )
        assert header[:2] == ["D_m", "rss_empirical_dbm"]
        assert [row[:2] for row in rows] == [[s.d_m, s.rss_dbm] for s in want.samples]

    def test_forced_altitude_waypoints_reads_altitudes_from_sweep_block(self, run):
        altitudes = [10.0 * (i + 1) for i in range(30)]
        scenario = {
            "kind": "distance_sweep", "h_m": 100.0, "distances_m": [200.0, 300.0],
            "altitudes_m": altitudes, "r_ground_m": 800.0,
        }
        code, _, stderr = run(scenario, "curves", "rss_altitude")
        assert code == 0, stderr
        comments, header, rows = read_curve_csv("out/rss_altitude.csv")
        assert "environment=urban scenario=altitude_waypoints" in comments
        assert header[0] == "H_m" and [row[0] for row in rows] == altitudes

    def test_height_without_distances_takes_default_distances(self, run):
        code, _, stderr = run({"kind": "distance_sweep", "h_m": 60.0}, "generate")
        assert code == 0, stderr
        ds = read_dataset("out/dataset.csv")
        assert [s.d_m for s in ds.samples] == np.linspace(100.0, 2000.0, 200).tolist()
        assert {s.h_m for s in ds.samples} == {60.0}

    def test_generation_errors_keep_their_text(self, run):
        scenario = {"kind": "distance_sweep", "distances_m": [300.0, 200.0]}
        code, _, stderr = run(scenario, "generate")
        assert (code, stderr) == (2, "error: distances must be strictly increasing\n")

    def test_building_count_past_a_million_exits_2(self, run):
        scenario = {"kind": "distance_sweep", "distances_m": [1e12]}
        code, stdout, stderr = run(scenario, "generate", plos_model="product")
        assert code == 2 and stdout == ""
        assert stderr.startswith("error: row 0: r=1000000000000.0: m + 1 = ")
        assert stderr.endswith(" buildings on the path, over 10^6\n")


class TestRunConfigWhere:
    def test_dotted_path_picks_the_key_in_its_block(self, tmp_path, env_file):
        cfg_path = tmp_path / "run.json"
        write_json(cfg_path, base_run_config(env_file))  # rbf.seed before budget.seed
        lines = cfg_path.read_text(encoding="utf-8").splitlines()
        seeds = [i for i, text in enumerate(lines, 1) if '"seed":' in text]
        budget = lines.index('  "budget": {') + 1
        cfg = RunConfig(str(cfg_path))
        assert cfg.where("rbf.seed") == f"{cfg_path}:{seeds[0]}"
        assert cfg.where("budget.seed") == f"{cfg_path}:{seeds[1]}"
        assert cfg.where("budget.missing") == f"{cfg_path}:{budget}"
        assert cfg.where("missing") == str(cfg_path)

    def test_skips_same_named_keys_in_nested_values(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(
            '{"a": {"b": {"seed": 1}, "note": "\\"seed\\": 0",\n'
            '  "seed": 2}, "seed": [{"seed": 3}]}\n',
            encoding="utf-8",
        )
        cfg = RunConfig(str(cfg_path))
        assert cfg.get("a.seed") == 2
        assert cfg.where("a.seed") == f"{cfg_path}:2"
        assert cfg.where("seed") == f"{cfg_path}:2"
        assert cfg.where("a.b.seed") == f"{cfg_path}:1"
        assert cfg.where("a.note.seed") == f"{cfg_path}:1"


class TestSeed:
    """--seed is written into the run config, so its digest covers the seed."""

    @pytest.fixture
    def cfg(self, tmp_path, env_file, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = base_run_config(env_file)
        cfg["rbf"]["epochs"] = 5
        return cfg

    def test_flag_equals_seeds_written_in_the_config(self, cfg, tmp_path):
        write_json(tmp_path / "a.json", cfg)
        cfg["budget"]["seed"] = cfg["rbf"]["seed"] = cfg["train"]["split_seed"] = 5
        write_json(tmp_path / "b.json", cfg)
        for config, out, *seed in (
            ("a.json", "flag", "--seed", "5"), ("b.json", "copy"), ("a.json", "plain"),
        ):
            code, _, stderr = run_main(
                "curves", "rss_distance", "--config", config, "--out", out, *seed
            )
            assert code == 0, stderr
        flag, copied, plain = (
            (tmp_path / out / "rss_distance.csv").read_text(encoding="utf-8")
            for out in ("flag", "copy", "plain")
        )
        assert flag == copied
        assert flag.splitlines()[0] != plain.splitlines()[0]

    def test_missing_blocks_are_created(self, cfg, tmp_path):
        for block in ("budget", "rbf", "train"):
            del cfg[block]
        write_json(tmp_path / "run.json", cfg)
        data = RunConfig("run.json", seed=4).data
        assert [data["budget"], data["rbf"], data["train"]] == [
            {"seed": 4}, {"seed": 4}, {"split_seed": 4},
        ]
        code, _, stderr = run_main("generate", "--config", "run.json", "--seed", "4")
        assert code == 0, stderr
        budget = read_dataset("out/dataset.csv").metadata["budget"]
        assert (budget["tx_power_dbm"], budget["seed"]) == (30.0, 4)

    def test_block_that_is_no_object_is_left_to_its_reader(self, cfg, tmp_path):
        cfg["budget"] = 5
        write_json(tmp_path / "run.json", cfg)
        assert RunConfig("run.json", seed=3).data["budget"] == 5
        line = Path("run.json").read_text(encoding="utf-8").splitlines().index(
            '  "budget": 5,'
        )
        code, _, stderr = run_main("generate", "--config", "run.json", "--seed", "3")
        assert code == 2
        assert stderr.startswith(f"error: run.json:{line + 1}: budget: malformed value")

    def test_negative_seed_names_the_flag(self, cfg, tmp_path):
        write_json(tmp_path / "run.json", cfg)
        code, _, stderr = run_main("generate", "--config", "run.json", "--seed", "-1")
        assert (code, stderr) == (2, "error: --seed must be int and >= 0, got -1\n")
        assert not (tmp_path / "out" / "dataset.csv").exists()


class TestConfigFlags:
    """Only the commands that read a run config take --config, --out, --seed."""

    @pytest.mark.parametrize("flag", [["--config", "run.json"], ["--out", "o"], [
        "--seed", "3",
    ]], ids=["config", "out", "seed"])
    @pytest.mark.parametrize("command", [
        ["predict", "model.json", "--row", "1,2,3,4"], ["eval", "model.json", "d.csv"],
    ], ids=["predict", "eval"])
    def test_model_commands_reject_them(self, capsys, command, flag):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([*command, *flag])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["generate"], ["train", "d.csv"], [
        "curves", "rician",
    ]], ids=["generate", "train", "curves"])
    def test_config_is_required(self, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(command)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith("error: the following arguments are required: --config\n")


class TestTrain:
    def test_writes_model_and_report(self, workspace):
        tmp, _ = workspace
        dataset = generate(workspace)
        model_path, proc = train(workspace, dataset)
        assert "train_rmse_db=" in proc.stdout
        assert "val_rmse_db=" in proc.stdout
        net, config = load_model(model_path)
        assert config.m_hidden == 8
        comments, header, rows = read_curve_csv(tmp / "out" / "training_report.csv")
        assert PROVENANCE_RE.match(comments[0])
        assert header == ["epoch", "mse"]
        assert len(rows) == 40

    def test_rerun_is_byte_identical(self, workspace):
        tmp, cfg = workspace
        dataset = generate(workspace)
        for out in ("m1", "m2"):
            proc = run_cli(
                "train", "--config", str(cfg), str(dataset), "--out", out, cwd=tmp
            )
            assert proc.returncode == 0, proc.stderr
        for name in ("model.json", "training_report.csv"):
            assert (tmp / "m1" / name).read_bytes() == (tmp / "m2" / name).read_bytes()

    def test_zero_epochs_rejected(self, tmp_path, env_file):
        cfg_path = tmp_path / "run.json"
        cfg = base_run_config(env_file)
        cfg["rbf"]["epochs"] = 0
        write_json(cfg_path, cfg)
        proc = run_cli(
            "generate", "--config", str(cfg_path), cwd=tmp_path
        )
        assert proc.returncode == 0
        proc = run_cli(
            "train", "--config", str(cfg_path),
            str(tmp_path / "out" / "dataset.csv"), cwd=tmp_path,
        )
        assert proc.returncode == 2
        assert "epochs" in proc.stderr

    def test_ascending_update_rule_warns_but_succeeds(self, tmp_path, env_file):
        cfg_path = tmp_path / "run.json"
        cfg = base_run_config(env_file)
        cfg["rbf"].update(
            update_mode="paper_literal", epochs=5, tau_mu=0.0, tau_delta=0.0
        )
        write_json(cfg_path, cfg)
        proc = run_cli("generate", "--config", str(cfg_path), cwd=tmp_path)
        assert proc.returncode == 0
        proc = run_cli(
            "train", "--config", str(cfg_path),
            str(tmp_path / "out" / "dataset.csv"), cwd=tmp_path,
        )
        assert proc.returncode == 0
        assert "paper_literal" in proc.stderr

    def test_non_finite_target_rejected(self, workspace):
        dataset = generate(workspace)
        lines = dataset.read_text(encoding="utf-8").splitlines()
        fields = lines[5].split(",")
        fields[-1] = "nan"
        lines[5] = ",".join(fields)
        dataset.write_text("\n".join(lines) + "\n", encoding="utf-8")
        tmp, cfg = workspace
        proc = run_cli("train", "--config", str(cfg), str(dataset), cwd=tmp)
        assert proc.returncode == 2
        errors = proc.stderr.strip().splitlines()
        assert errors == [f"error: {dataset}:6: non-finite target RSS_dBm=nan"]
        assert not (tmp / "out" / "model.json").exists()

    def test_missing_dataset_file(self, workspace):
        tmp, cfg = workspace
        proc = run_cli("train", "--config", str(cfg), "nope.csv", cwd=tmp)
        assert proc.returncode == 2

    def test_bad_dataset_schema(self, workspace):
        tmp, cfg = workspace
        bad = tmp / "bad.csv"
        bad.write_text("bad,csv\n1,2\n", encoding="utf-8")
        proc = run_cli("train", "--config", str(cfg), str(bad), cwd=tmp)
        assert proc.returncode == 2
        assert "bad.csv:1" in proc.stderr


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """Directory with fuzz_config()'s run.json, its 30-row out/dataset.csv,
    out/model.json trained on it, and features.csv, the dataset's features."""
    tmp = tmp_path_factory.mktemp("small_run")
    write_json(tmp / "environments.json", ENVIRONMENTS)
    write_json(tmp / "run.json", fuzz_config())
    with contextlib.chdir(tmp):
        assert run_main("generate", "--config", "run.json")[0] == 0
        assert run_main("train", "--config", "run.json", "out/dataset.csv")[0] == 0
    with open(tmp / "out" / "dataset.csv", encoding="utf-8", newline="") as fh:
        table = [row[2:6] for row in csv.reader(fh)]
    (tmp / "features.csv").write_text(
        "".join(",".join(row) + "\n" for row in table), encoding="utf-8"
    )
    return tmp


def csv_commands(run_dir, path, out):
    """train (writing to out), predict --input and eval, on the CSV at path."""
    model = str(run_dir / "out" / "model.json")
    return [
        ["train", "--config", str(run_dir / "run.json"), path, "--out", out],
        ["predict", model, "--input", path],
        ["eval", model, path],
    ]


FIELD_VALUES = ["", "x", "nan", "1e999", "-0"]


@settings(max_examples=150, deadline=None)
@given(
    features=st.booleans(),
    mutation=st.sampled_from(["field", "drop", "add", "blank", "0xff"]),
    line=st.integers(0, 40),
    column=st.integers(0, 7),
    value=st.sampled_from(FIELD_VALUES),
)
def test_fuzzed_csv_never_escapes(small_run, features, mutation, line, column, value):
    """One mutation of a dataset or feature CSV ends in an exit code.

    train, predict --input and eval read the CSV; each exits 0, 1 or 2, and a
    non-zero exit ends in an `error:` line. No exception escapes.
    """
    source = small_run / ("features.csv" if features else "out/dataset.csv")
    lines = source.read_bytes().splitlines(keepends=True)
    i = line % len(lines)
    fields = lines[i].rstrip(b"\n").split(b",")
    j = column % len(fields)
    if mutation == "field":
        fields[j] = value.encode()
    elif mutation == "drop":
        del fields[j]
    elif mutation == "add":
        fields.insert(j, b"1.0")
    if mutation == "blank":
        lines.insert(i, b"\n")
    elif mutation == "0xff":
        lines.insert(i, b"\xff" + lines[i])
    else:
        lines[i] = b",".join(fields) + b"\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.csv")
        Path(path).write_bytes(b"".join(lines))
        for argv in csv_commands(small_run, path, tmp):
            code, _, stderr = run_main(*argv)
            assert code in (0, 1, 2)
            if code:
                assert stderr.splitlines()[-1].startswith("error: ")


@pytest.mark.parametrize("target", ["config", "dataset", "features"])
def test_non_utf8_file_exits_2(small_run, tmp_path, target):
    """A user's file that is not UTF-8 gives exit 2 and one `error:` line."""
    bad = tmp_path / "bad"
    if target == "config":
        bad.write_bytes(b'{"environment": "\xff"}\n')
        commands = [["generate", "--config", str(bad)]]
    else:
        name = "out/dataset.csv" if target == "dataset" else "features.csv"
        bad.write_bytes((small_run / name).read_bytes() + b"\xff\n")
        commands = csv_commands(small_run, str(bad), str(tmp_path))
    for argv in commands:
        code, stdout, stderr = run_main(*argv)
        assert (code, stdout) == (2, "")
        assert len(stderr.splitlines()) == 1 and stderr.startswith("error: ")


class TestPredict:
    def test_row_matches_library_prediction(self, workspace):
        dataset = generate(workspace)
        model_path, _ = train(workspace, dataset)
        tmp, _ = workspace
        ds = read_dataset(dataset)
        s = ds.samples[0]
        row = f"{s.d_m},{s.h_m},{s.f_mhz},{s.pl_db}"
        proc = run_cli("predict", str(model_path), "--row", row, cwd=tmp)
        assert proc.returncode == 0, proc.stderr
        net, _ = load_model(model_path)
        want = float(net.predict(np.array([s.d_m, s.h_m, s.f_mhz, s.pl_db]))[0])
        assert float(proc.stdout.strip()) == want

    def test_batch_input_prints_one_line_per_row(self, workspace):
        dataset = generate(workspace)
        model_path, _ = train(workspace, dataset)
        tmp, _ = workspace
        proc = run_cli("predict", str(model_path), "--input", str(dataset), cwd=tmp)
        assert proc.returncode == 0, proc.stderr
        assert len(proc.stdout.strip().splitlines()) == 60

    @pytest.mark.parametrize("rows", [
        "500.0,100.0,2000.0,105.0\n900.0,100.0,2000.0,110.0\n",
        "500.0,100.0,2000.0,105.0\n\n\n900.0,100.0,\"2000.0\",110.0\n\n",
    ], ids=["plain", "blank_lines_quoted_field"])
    def test_feature_only_input(self, workspace, rows):
        dataset = generate(workspace)
        model_path, _ = train(workspace, dataset)
        tmp, _ = workspace
        feats = tmp / "features.csv"
        feats.write_text("D_m,H_m,F_MHz,PL_dB\n" + rows, encoding="utf-8")
        proc = run_cli("predict", str(model_path), "--input", str(feats), cwd=tmp)
        assert proc.returncode == 0, proc.stderr
        assert len(proc.stdout.strip().splitlines()) == 2

    def test_out_of_range_row_warns(self, workspace):
        dataset = generate(workspace)
        model_path, _ = train(workspace, dataset)
        tmp, _ = workspace
        proc = run_cli(
            "predict", str(model_path), "--row", "99999.0,100.0,2000.0,105.0",
            cwd=tmp,
        )
        assert proc.returncode == 0
        assert "outside" in proc.stderr

    def test_non_finite_row_rejected(self, workspace):
        dataset = generate(workspace)
        model_path, _ = train(workspace, dataset)
        tmp, _ = workspace
        for row in ("nan,100.0,2000.0,105.0", "500.0,100.0,inf,105.0"):
            proc = run_cli("predict", str(model_path), "--row", row, cwd=tmp)
            assert proc.returncode == 2
            assert proc.stdout == ""
            lines = proc.stderr.strip().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: non-finite")

    def test_overflowing_row_rejected(self, workspace):
        dataset = generate(workspace)
        model_path, _ = train(workspace, dataset)
        tmp, _ = workspace
        proc = run_cli(
            "predict", str(model_path), "--row", "1e308,100,2000,100", cwd=tmp
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: feature at row 0, column 0 too far outside the training "
            "range: 1e+308\n"
        )

    def test_wrong_arity_row(self, workspace):
        dataset = generate(workspace)
        model_path, _ = train(workspace, dataset)
        tmp, _ = workspace
        proc = run_cli("predict", str(model_path), "--row", "1.0,2.0", cwd=tmp)
        assert proc.returncode == 2

    @pytest.mark.parametrize("rows, message", [
        ("", "no data rows"),
        ("\n\n", "no data rows"),
        (
            "500.0,100.0,2000.0,105.0\n\n900.0,100.0,2000.0\n",
            "features.csv:4: expected 4 fields, got 3",
        ),
    ], ids=["empty", "blank_lines", "ragged_row"])
    def test_empty_feature_file(self, workspace, rows, message):
        dataset = generate(workspace)
        model_path, _ = train(workspace, dataset)
        tmp, _ = workspace
        feats = tmp / "features.csv"
        feats.write_text("D_m,H_m,F_MHz,PL_dB\n" + rows, encoding="utf-8")
        proc = run_cli("predict", str(model_path), "--input", str(feats), cwd=tmp)
        assert proc.returncode == 2
        assert message in proc.stderr

    def test_unrecognized_input_header(self, workspace):
        dataset = generate(workspace)
        model_path, _ = train(workspace, dataset)
        tmp, _ = workspace
        feats = tmp / "features.csv"
        feats.write_text("a,b\n1,2\n", encoding="utf-8")
        proc = run_cli("predict", str(model_path), "--input", str(feats), cwd=tmp)
        assert proc.returncode == 2

    def test_malformed_model(self, workspace):
        tmp, _ = workspace
        bad = tmp / "model.json"
        bad.write_text("{}", encoding="utf-8")
        proc = run_cli("predict", str(bad), "--row", "1,2,3,4", cwd=tmp)
        assert proc.returncode == 2

    def test_row_and_input_are_exclusive(self, workspace):
        tmp, _ = workspace
        proc = run_cli(
            "predict", "model.json", "--row", "1,2,3,4", "--input", "x.csv",
            cwd=tmp,
        )
        assert proc.returncode == 2


class TestEval:
    def test_metrics_printed(self, workspace):
        dataset = generate(workspace)
        model_path, _ = train(workspace, dataset)
        tmp, _ = workspace
        proc = run_cli("eval", str(model_path), str(dataset), cwd=tmp)
        assert proc.returncode == 0, proc.stderr
        lines = dict(
            line.split("=", 1) for line in proc.stdout.strip().splitlines()
        )
        assert set(lines) == {"rmse_db", "mae_db", "max_abs_error_db"}
        assert float(lines["rmse_db"]) <= float(lines["max_abs_error_db"])
        assert float(lines["mae_db"]) <= float(lines["rmse_db"]) + 1e-12

    def test_zeroed_model_rmse_matches_hand_computation(self, workspace):
        dataset = generate(workspace)
        model_path, _ = train(workspace, dataset)
        tmp, _ = workspace
        doc = json.loads(model_path.read_text(encoding="utf-8"))
        doc["weights"] = [[0.0] * len(doc["weights"][0])]
        zeroed = tmp / "zeroed.json"
        zeroed.write_text(json.dumps(doc), encoding="utf-8")
        proc = run_cli("eval", str(zeroed), str(dataset), cwd=tmp)
        assert proc.returncode == 0, proc.stderr
        rmse = float(proc.stdout.strip().splitlines()[0].split("=")[1])
        # Zero weights predict the constant y_min after denormalization.
        ds = read_dataset(dataset)
        y = np.array([s.rss_dbm for s in ds.samples])
        want = float(np.sqrt(np.mean((y - doc["norm_stats"]["y_min"][0]) ** 2)))
        assert rmse == pytest.approx(want, rel=1e-12)

    def test_missing_dataset(self, workspace):
        dataset = generate(workspace)
        model_path, _ = train(workspace, dataset)
        tmp, _ = workspace
        proc = run_cli("eval", str(model_path), "nope.csv", cwd=tmp)
        assert proc.returncode == 2

    def test_non_finite_dataset_field_rejected(self, workspace):
        dataset = generate(workspace)
        model_path, _ = train(workspace, dataset)
        lines = dataset.read_text(encoding="utf-8").splitlines()
        fields = lines[5].split(",")
        fields[-1] = "nan"
        lines[5] = ",".join(fields)
        dataset.write_text("\n".join(lines) + "\n", encoding="utf-8")
        tmp, _ = workspace
        proc = run_cli("eval", str(model_path), str(dataset), cwd=tmp)
        assert proc.returncode == 2
        assert proc.stdout == ""
        errors = proc.stderr.strip().splitlines()
        assert errors == [f"error: {dataset}:6: non-finite target RSS_dBm=nan"]

    def test_malformed_sidecar_rejected(self, workspace):
        dataset = generate(workspace)
        model_path, _ = train(workspace, dataset)
        sidecar = dataset.with_suffix(".json")
        sidecar.write_text("{bad", encoding="utf-8")
        tmp, _ = workspace
        proc = run_cli("eval", str(model_path), str(dataset), cwd=tmp)
        assert proc.returncode == 2
        errors = proc.stderr.strip().splitlines()
        assert len(errors) == 1
        assert errors[0].startswith(f"error: {sidecar}:1:2: invalid JSON: ")


class TestCurves:
    def test_rician_series(self, workspace):
        tmp, cfg = workspace
        proc = run_cli("curves", "rician", "--config", str(cfg), cwd=tmp)
        assert proc.returncode == 0, proc.stderr
        comments, header, rows = read_curve_csv(tmp / "out" / "rician.csv")
        assert PROVENANCE_RE.match(comments[0])
        assert any("Rayleigh" in c for c in comments)
        assert header == ["r", "pdf_K0", "pdf_K50", "pdf_K100"]
        assert len(rows) == 121
        assert rows[0][0] == 0.0
        assert all(v == 0.0 for v in rows[0][1:])
        from skylink import params_from_k, rician_pdf

        r_mid = rows[60][0]
        assert rows[60][1] == pytest.approx(
            rician_pdf(params_from_k(0.0), r_mid), rel=1e-12
        )

    def test_plos_angle_per_environment(self, workspace):
        tmp, cfg = workspace
        proc = run_cli("curves", "plos_angle", "--config", str(cfg), cwd=tmp)
        assert proc.returncode == 0, proc.stderr
        for name in ("suburban", "urban", "dense-urban"):
            comments, header, rows = read_curve_csv(
                tmp / "out" / f"plos_angle_{name}.csv"
            )
            assert header == [
                "theta_deg", "plos_product", "plos_holis", "plos_sigmoid"
            ]
            assert len(rows) == 91
            assert [r[0] for r in rows] == [float(t) for t in range(91)]
            flat = [v for r in rows for v in r[1:]]
            assert all(0.0 <= v <= 1.0 for v in flat)

    def test_plos_fit_reports_coefficients(self, workspace):
        tmp, cfg = workspace
        proc = run_cli("curves", "plos_fit", "--config", str(cfg), cwd=tmp)
        assert proc.returncode == 0, proc.stderr
        comments, header, rows = read_curve_csv(
            tmp / "out" / "plos_fit_suburban.csv"
        )
        assert header == ["theta_deg", "plos_product", "plos_sigmoid_fit"]
        fitted = next(c for c in comments if c.startswith("fitted"))
        match = re.match(
            r"fitted a=([0-9.eE+-]+) b=([0-9.eE+-]+) rmse=([0-9.eE+-]+)", fitted
        )
        assert match
        assert float(match.group(3)) < 0.05
        assert [r[0] for r in rows] == [float(t) for t in range(10, 91)]

    @pytest.mark.parametrize("block, key, failing, written", [
        ("curves", "uav_height_m", "suburban", []),
        ("environment", "beta", "urban", ["suburban"]),
    ], ids=["uav_height", "environment_beta"])
    def test_plos_fit_failure_names_environment(
        self, tmp_path, env_file, block, key, failing, written
    ):
        """A product curve with no P_LoS inside (0, 1) names its environment;
        the files written before it are reported."""
        cfg, envs = base_run_config(env_file), copy.deepcopy(ENVIRONMENTS)
        (cfg["curves"] if block == "curves" else envs[1])[key] = 2.5
        write_json(env_file, envs)
        write_json(tmp_path / "run.json", cfg)
        proc = run_cli("curves", "plos_fit", "--config", "run.json", cwd=tmp_path)
        assert proc.returncode == 1
        assert proc.stderr == (
            f"error: environment {failing!r}: need at least 3 samples, got 0\n"
        )
        out = tmp_path / "out"
        assert proc.stdout == "".join(
            f"wrote {out.name}/plos_fit_{name}.csv\n" for name in written
        )
        assert sorted(p.name for p in out.iterdir()) == [
            f"plos_fit_{name}.csv" for name in written
        ]

    def test_rss_distance_curve(self, workspace):
        tmp, cfg = workspace
        proc = run_cli("curves", "rss_distance", "--config", str(cfg), cwd=tmp)
        assert proc.returncode == 0, proc.stderr
        comments, header, rows = read_curve_csv(tmp / "out" / "rss_distance.csv")
        assert header == ["D_m", "rss_empirical_dbm", "rss_predicted_dbm"]
        assert len(rows) == 60
        assert any(c.startswith("val_rmse_db=") for c in comments)

    def test_rss_altitude_curve(self, workspace):
        tmp, cfg = workspace
        proc = run_cli("curves", "rss_altitude", "--config", str(cfg), cwd=tmp)
        assert proc.returncode == 0, proc.stderr
        _, header, rows = read_curve_csv(tmp / "out" / "rss_altitude.csv")
        assert header == ["H_m", "rss_empirical_dbm", "rss_predicted_dbm"]
        assert [r[0] for r in rows] == [float(h) for h in range(20, 201, 20)]

    def test_rerun_is_byte_identical(self, workspace):
        tmp, cfg = workspace
        for out in ("c1", "c2"):
            proc = run_cli(
                "curves", "rician", "--config", str(cfg), "--out", out, cwd=tmp
            )
            assert proc.returncode == 0, proc.stderr
        assert (tmp / "c1" / "rician.csv").read_bytes() == (
            tmp / "c2" / "rician.csv"
        ).read_bytes()

    def test_line_break_in_an_environment_name_writes_no_file(self, tmp_path, env_file):
        envs = json.loads(env_file.read_text(encoding="utf-8"))
        envs[0]["name"] = "sub\nurban"
        write_json(env_file, envs)
        cfg_path = tmp_path / "run.json"
        write_json(cfg_path, base_run_config(env_file))
        proc = run_cli("curves", "plos_angle", "--config", str(cfg_path), cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stderr == (
            "error: environment name 'sub\\nurban' must be one line\n"
        )
        assert not list(tmp_path.glob("out/*"))

    def test_unknown_curve_rejected(self, workspace):
        tmp, cfg = workspace
        proc = run_cli("curves", "spectrogram", "--config", str(cfg), cwd=tmp)
        assert proc.returncode == 2


class TestHarness:
    def test_version_flag(self, tmp_path):
        proc = run_cli("--version", cwd=tmp_path)
        assert proc.returncode == 0
        assert proc.stdout.startswith("skylink ")

    def test_unknown_command(self, tmp_path):
        proc = run_cli("transmogrify", cwd=tmp_path)
        assert proc.returncode == 2

    def test_bogus_log_level_still_runs(self, workspace):
        tmp, cfg = workspace
        env = dict(os.environ, SKYLINK_LOG="shout")
        proc = run_cli("generate", "--config", str(cfg), cwd=tmp, env=env)
        assert proc.returncode == 0
        assert "SKYLINK_LOG" in proc.stderr

    def test_debug_log_level(self, workspace):
        tmp, cfg = workspace
        env = dict(os.environ, SKYLINK_LOG="debug")
        proc = run_cli("generate", "--config", str(cfg), cwd=tmp, env=env)
        assert proc.returncode == 0
