"""End-to-end CLI behavior through subprocesses: exit codes, artifacts."""

from __future__ import annotations

import contextlib
import csv
import copy
import dataclasses
import hashlib
import io
import json
import logging
import math
import os
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from skylink import (
    SchemaError, budget_from_dict, cli, datagen, fading, features_targets,
    fit_sigmoid, gen_distance_sweep, ground_distance_for_angle, load_environments,
    load_model, params_from_k, plos_product, plos_sigmoid, read_curve_csv,
    read_dataset,
)
from skylink.cli import RunConfig

from conftest import (
    ENVIRONMENTS, base_run_config, rician_oracle, run_cli, within_rician_bound,
    write_json,
)

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


# Scenario values whose slant range, and so path loss, leaves the float range.
WAYPOINTS = {"kind": "altitude_waypoints"}
OVERFLOWING_GEOMETRIES = [
    {"h_m": 1e308}, {"distances_m": [1e308]},
    {**WAYPOINTS, "altitudes_m": [1e308]}, {**WAYPOINTS, "r_ground_m": 1e308},
]
OVERFLOWING_GEOMETRIES_IDS = ["h_m", "distances_m-list", "altitudes_m", "r_ground_m"]


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

    @pytest.mark.parametrize("fading, seed, digest", [
        (
            {"kind": "rician", "s": 1.0, "delta": 0.5}, None,
            "b69fc847c6edcf50ec10cf641c1bff768dfa83512a36c2d2c7bf36009931550f",
        ),
        (
            {"kind": "gaussian_shadow", "sigma_db": 3.0}, 2**32,
            "dbd42bfc6aca9d16aa46f0a42d7b6a711605d4a1d292feb3a1ee327672e74d70",
        ),
        (
            {"kind": "rician", "s": 1.0, "delta": 0.5}, 2**64,
            "35863d14b3489cbf5e82e30fb4e4f0f0bf0d9239ef74db45680cc1641601bd9c",
        ),
    ], ids=["rician-default-seed", "gaussian_shadow-seed-2^32", "rician-seed-2^64"])
    def test_faded_dataset_bytes_are_pinned(self, tmp_path, env_file, fading, seed, digest):
        # Digests of the per-row default_rng([seed, index]) draws; a change to
        # the bits of any fading draw changes them.
        cfg = base_run_config(env_file)
        cfg["budget"]["fading"] = fading
        write_json(tmp_path / "run.json", cfg)
        extra = () if seed is None else ("--seed", str(seed))
        with contextlib.chdir(tmp_path):
            code, stdout, stderr = run_main("generate", "--config", "run.json", *extra)
        assert (code, stderr) == (0, "")
        data = (tmp_path / "out" / "dataset.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest

    def test_overflowing_rss_names_the_row(self, tmp_path, env_file):
        cfg = base_run_config(env_file)
        cfg["budget"].update(tx_power_dbm=1e308, tx_gain_dbi=1e308)
        write_json(tmp_path / "run.json", cfg)
        lines = (tmp_path / "run.json").read_text(encoding="utf-8").splitlines()
        line = lines.index('  "budget": {') + 1
        with contextlib.chdir(tmp_path):
            code, stdout, stderr = run_main("generate", "--config", "run.json")
        assert (code, stdout) == (2, "")
        assert stderr == (
            f"error: run.json:{line}: budget: row 0: rss_dbm must be finite, got inf\n"
        )
        assert not (tmp_path / "out" / "dataset.csv").exists()

    @pytest.mark.parametrize("s, delta, power", [
        (1e300, 1.0, math.inf), (1.0, 1e160, math.inf),
        (0.0, 3e-162, 2e-323), (0.0, 1e-200, 0.0),
    ], ids=["s_overflows", "delta_overflows", "subnormal", "underflows"])
    def test_rician_mean_power_must_be_a_normal_float(
        self, tmp_path, env_file, s, delta, power
    ):
        cfg = base_run_config(env_file)
        cfg["budget"]["fading"] = {"kind": "rician", "s": s, "delta": delta}
        write_json(tmp_path / "run.json", cfg)
        lines = (tmp_path / "run.json").read_text(encoding="utf-8").splitlines()
        line = lines.index('  "budget": {') + 1
        with contextlib.chdir(tmp_path):
            code, stdout, stderr = run_main("generate", "--config", "run.json")
        assert (code, stdout) == (2, "")
        assert stderr == (
            f"error: run.json:{line}: budget: malformed value: fading: rician "
            f"s^2 + 2 delta^2 must be a positive normal float, got {power!r}\n"
        )

    @pytest.mark.parametrize("spec, power, message", [
        ({"kind": "rician", "s": 1.3e154, "delta": 1e153}, None, "row 1: rss_dbm must "
         "be finite, got inf"),  # the first draw with s + delta g1 > 1.34e154
        ({"kind": "rician", "s": 1.0, "delta": 0.5}, 0.0, "row 0: rss_dbm must be "
         "finite, got -inf"),
    ], ids=["overflows", "underflows"])
    def test_rician_power_out_of_range_names_the_row(
        self, tmp_path, env_file, monkeypatch, spec, power, message
    ):
        # in this process a RuntimeWarning is an error, so none is raised
        if power is not None:  # no draw of a valid budget underflows: force one
            monkeypatch.setattr(fading, "_rician_power", lambda *_: power)
        cfg = base_run_config(env_file)
        cfg["budget"]["fading"] = spec
        write_json(tmp_path / "run.json", cfg)
        lines = (tmp_path / "run.json").read_text(encoding="utf-8").splitlines()
        line = lines.index('  "budget": {') + 1
        with contextlib.chdir(tmp_path):
            code, stdout, stderr = run_main("generate", "--config", "run.json")
        located = f"error: run.json:{line}: budget: {message}\n"
        assert (code, stdout, stderr) == (2, "", located)

    @pytest.mark.parametrize("scenario, message", [
        (
            {"distances_m": {"start": -1.7e308, "stop": 1.7e308, "count": 2}},
            "run.json:{line}: scenario: malformed value: distances_m stop - start "
            "must be finite, got 1.7e+308 - -1.7e+308",
        ),
        ({"f_mhz": 1e308}, "f_mhz=1e+308: f_c must be finite and > 0, got inf"),
    ] + [
        (scenario, "run.json:{line}: scenario: row 0: pl_db must be finite, got inf")
        for scenario in OVERFLOWING_GEOMETRIES
    ], ids=["distances_m", "f_mhz", *OVERFLOWING_GEOMETRIES_IDS])
    def test_config_value_that_overflows_names_its_key(
        self, tmp_path, env_file, scenario, message
    ):
        cfg = base_run_config(env_file)
        cfg["scenario"].update(scenario)
        write_json(tmp_path / "run.json", cfg)
        lines = (tmp_path / "run.json").read_text(encoding="utf-8").splitlines()
        line = lines.index('  "scenario": {') + 1
        with contextlib.chdir(tmp_path):
            code, stdout, stderr = run_main("generate", "--config", "run.json")
        assert (code, stdout) == (2, "")
        assert stderr == f"error: {message.format(line=line)}\n"

    @pytest.mark.parametrize("top, block, message", [
        (
            {"budget": {"fading": {"kind": "gaussian_shadow", "sigma_db": 1e308}}},
            "budget", "row 17: rss_dbm must be finite, got -inf",
        ),
        (
            {"plos_model": "product", "scenario": {
                "kind": "altitude_waypoints", "rx_height_m": 150, "altitudes_m": [100, 200],
            }},
            "scenario", "row 0: need h_t > h_r >= 0, got h_t=100.0, h_r=150.0",
        ),
        (
            {"scenario": {"distances_m": [-5.0, 10.0]}}, "scenario",
            "row 0: geometry requires h >= 0 and r >= 0, got h=100.0, r=-5.0",
        ),
    ], ids=["rss_dbm", "h_r-above-h_t", "negative-distance"])
    def test_row_fault_names_its_block(self, tmp_path, env_file, top, block, message):
        """A row's fault names the budget block if its RSS is not finite, and
        the scenario block otherwise; the library's text follows unchanged."""
        cfg = base_run_config(env_file)
        for key, value in top.items():
            cfg[key] = {**cfg[key], **value} if isinstance(value, dict) else value
        write_json(tmp_path / "run.json", cfg)
        lines = (tmp_path / "run.json").read_text(encoding="utf-8").splitlines()
        line = lines.index(f'  "{block}": {{') + 1
        with contextlib.chdir(tmp_path):
            code, stdout, stderr = run_main("generate", "--config", "run.json")
        located = f"error: run.json:{line}: {block}: {message}\n"
        assert (code, stdout, stderr) == (2, "", located)
        assert not (tmp_path / "out" / "dataset.csv").exists()

    @pytest.mark.parametrize("count", [2**62, 2**1100], ids=["memory", "index"])
    def test_grid_past_memory_or_index_exits_1(self, tmp_path, env_file, count):
        cfg = base_run_config(env_file)
        cfg["scenario"]["distances_m"]["count"] = count
        write_json(tmp_path / "run.json", cfg)
        with contextlib.chdir(tmp_path):
            code, stdout, stderr = run_main("generate", "--config", "run.json")
        message = f"error: cannot allocate a grid of {count} points\n"
        assert (code, stdout, stderr) == (1, "", message)

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
        ("alpha", "abc", "environment 'urban': alpha must be in (0, 1], got 'abc'"),
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
        (
            "eps_los_db", 30.0, "environment 'urban': need 0 <= eps_los_db <= "
            "eps_nlos_db, got 30.0 and 20.0",
        ),
    ], ids=[
        "alpha", "name", "alpha_bool", "c_bool", "sigmoid_bool", "name_lf", "name_cr",
        "eps_order",
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
    ("curves rician", "curves.rician_points", 1, "curves"),
    ("curves plos_angle", "curves.rx_height_m", 500.0, "curves"),  # >= uav_height_m
    ("curves plos_angle", "curves.rx_height_m", -1.0, "curves"),
    ("curves plos_fit", "curves.rx_height_m", 100.0, "curves"),
    ("curves plos_fit", "curves.rx_height_m", -1.0, "curves"),
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


@pytest.mark.parametrize("command, block, key, value, message", [
    (
        "curves rician", "curves", "rician_k", 5,
        "rician_k must be a list of numbers, got 5",
    ),
    (
        "curves rss_altitude", "scenario", "altitudes_m", 5,
        "altitudes_m must be a list of numbers, got 5",
    ),
    ("generate", "budget", "fading", "off", "fading: must be an object, got 'off'"),
    (
        "generate", "budget", "fading", {"kind": "rician", "s": 1.0},
        "fading: missing keys ['delta']",
    ),
    (
        "generate", "budget", "fading", {"kind": "gaussian_shadow"},
        "fading: missing keys ['sigma_db']",
    ),
    (
        "generate", "budget", "fading", {"kind": ["rician"]},
        "fading kind must be one of ('off', 'rician', 'gaussian_shadow'), "
        "got ['rician']",
    ),
], ids=[
    "rician_k", "altitudes_m", "fading", "fading_without_delta",
    "fading_without_sigma_db", "fading_kind",
])
def test_value_of_the_wrong_kind_names_its_key(
    tmp_path, env_file, command, block, key, value, message
):
    cfg = base_run_config(env_file)
    cfg[block][key] = value
    write_json(tmp_path / "run.json", cfg)
    lines = (tmp_path / "run.json").read_text(encoding="utf-8").splitlines()
    line = next(
        i for i, text in enumerate(lines, 1) if text.startswith(f'  "{block}":')
    )
    with contextlib.chdir(tmp_path):
        code, stdout, stderr = run_main(*command.split(), "--config", "run.json")
    assert (code, stdout) == (2, "")
    assert stderr == f"error: run.json:{line}: {block}: malformed value: {message}\n"


# (command, the name its error gives, how it puts a value v into the run
# config or the environments): a number of each reader
NUMBER_SITES = [
    ("generate", "h_m", lambda cfg, envs, v: cfg["scenario"].update(h_m=v)),
    ("generate", "distances_m[1]", lambda cfg, envs, v: cfg["scenario"].update(
        distances_m=[100.0, v, 300.0]
    )),
    ("generate", "tx_power_dbm", lambda cfg, envs, v: cfg["budget"].update(
        tx_power_dbm=v
    )),
    ("generate", "s", lambda cfg, envs, v: cfg["budget"].update(
        fading={"kind": "rician", "s": v, "delta": 0.5}
    )),
    ("curves plos_fit", "theta_min_deg", lambda cfg, envs, v: cfg["curves"].update(
        theta_min_deg=v
    )),
    ("generate", "alpha", lambda cfg, envs, v: envs[1].update(alpha=v)),
]


@pytest.mark.parametrize(
    "value", [[1], {}, "abc", "100", 2**1100],
    ids=["list", "object", "text", "quoted_number", "huge_int"],
)
@pytest.mark.parametrize(
    "command, name, put", NUMBER_SITES, ids=[name for _, name, _ in NUMBER_SITES]
)
def test_value_that_is_no_float_names_its_key(tmp_path, command, name, put, value):
    """Every reader hands the raw value to require: one line naming the key."""
    cfg, envs = base_run_config("environments.json"), copy.deepcopy(ENVIRONMENTS)
    put(cfg, envs, value)
    write_json(tmp_path / "environments.json", envs)
    write_json(tmp_path / "run.json", cfg)
    with contextlib.chdir(tmp_path):
        code, stdout, stderr = run_main(*command.split(), "--config", "run.json")
    assert (code, stdout) == (2, "")
    assert stderr.startswith("error: ") and stderr.count("\n") == 1
    assert f" {name} must be " in stderr and stderr.endswith(f", got {value!r}\n")
    for text in ("float()", "could not convert", "int too large", "unhashable",
                 "argument must be"):
        assert text not in stderr


def test_environment_file_that_is_no_string_names_its_key(tmp_path, env_file):
    cfg = base_run_config(env_file)
    cfg["environment_file"] = 5
    write_json(tmp_path / "run.json", cfg)
    with contextlib.chdir(tmp_path):
        code, stdout, stderr = run_main("generate", "--config", "run.json")
    message = "error: run.json:2: environment_file: must be a string, got 5\n"
    assert (code, stdout, stderr) == (2, "", message)


PL_NAMES = "expected one of ('hata', 'a2g_mean')"
PLOS_NAMES = "expected one of ('product', 'holis', 'sigmoid')"


@pytest.mark.parametrize("command, key, value, message", [
    ("generate", "out_dir", 5, "must be a string, got 5"),
    ("generate", "out_dir", ["out"], "must be a string, got ['out']"),
    ("generate", "pl_model", [1], f"unknown path loss model [1]; {PL_NAMES}"),
    ("generate", "pl_model", {}, f"unknown path loss model {{}}; {PL_NAMES}"),
    ("generate", "pl_model", "x", f"unknown path loss model 'x'; {PL_NAMES}"),
    ("generate", "plos_model", [1], f"unknown plos model [1]; {PLOS_NAMES}"),
    ("generate", "plos_model", {}, f"unknown plos model {{}}; {PLOS_NAMES}"),
    ("generate", "plos_model", "x", f"unknown plos model 'x'; {PLOS_NAMES}"),
    (
        "curves rss_altitude", "pl_model", "hata2",
        f"unknown path loss model 'hata2'; {PL_NAMES}",
    ),
], ids=[
    "out_dir-int", "out_dir-list", "pl_model-list", "pl_model-object", "pl_model-text",
    "plos_model-list", "plos_model-object", "plos_model-text", "rss_altitude-pl_model",
])
def test_top_level_value_of_the_wrong_kind_names_its_line(
    tmp_path, env_file, command, key, value, message
):
    cfg = base_run_config(env_file)
    cfg[key] = value
    write_json(tmp_path / "run.json", cfg)
    lines = (tmp_path / "run.json").read_text(encoding="utf-8").splitlines()
    line = next(i for i, text in enumerate(lines, 1) if text.startswith(f'  "{key}":'))
    with contextlib.chdir(tmp_path):
        code, stdout, stderr = run_main(*command.split(), "--config", "run.json")
    assert (code, stdout, stderr) == (2, "", f"error: run.json:{line}: {key}: {message}\n")


# (command, block holding the misspelt key or None for the top level, key)
UNKNOWN_KEYS = [
    ("generate", None, "plos_modle"),
    ("generate", "scenario", "distance_m"),
    ("curves rician", "curves", "rician_point"),
    ("curves plos_fit", "curves", "theta_min"),
    ("curves rss_distance", "train", "train_fractoin"),
    ("curves rss_distance", "rbf", "m_hiden"),
    ("curves rss_distance", "rbf", "input_dim"),  # the data sets both widths
    ("curves rss_distance", "rbf", "output_dim"),
]


@pytest.mark.parametrize("command, block, key", UNKNOWN_KEYS)
def test_unknown_config_key_exits_2(tmp_path, env_file, command, block, key):
    """A key no reader knows is a typo: exit 2 naming it at its block's line."""
    cfg = base_run_config(env_file)
    (cfg if block is None else cfg[block])[key] = 1
    write_json(tmp_path / "run.json", cfg)
    lines = (tmp_path / "run.json").read_text(encoding="utf-8").splitlines()
    line = next(
        i for i, text in enumerate(lines, 1) if text.startswith(f'  "{block or key}":')
    )
    where = f"run.json:{line}: " + (f"{block}: malformed value: " if block else "")
    with contextlib.chdir(tmp_path):
        code, stdout, stderr = run_main(*command.split(), "--config", "run.json")
    assert (code, stdout) == (2, "")
    assert stderr == f"error: {where}unknown keys [{key!r}]\n"
    assert not list(tmp_path.glob("out/*.csv"))


@pytest.mark.parametrize("text, message", [
    ("[1]\n", "run.json: run config must be a JSON object"),
    ('{"environment": "urban"}\n', "run.json: missing required config key "
     "'environment_file'"),
], ids=["not_an_object", "missing_key"])
def test_run_config_without_its_schema_exits_2(tmp_path, text, message):
    (tmp_path / "run.json").write_text(text, encoding="utf-8")
    with contextlib.chdir(tmp_path):
        code, stdout, stderr = run_main("generate", "--config", "run.json")
    assert (code, stdout, stderr) == (2, "", f"error: {message}\n")


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


def json_nodes(node, path=()):
    """Paths to the objects and lists of a JSON document, the root left out,
    and to its "kind" keys."""
    if isinstance(node, (dict, list)):
        if path:
            yield path
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            yield from json_nodes(value, path + (key,))
    elif path[-1] == "kind":
        yield path


def fuzz_config():
    """A run config small enough to run every command in a few milliseconds."""
    cfg = base_run_config("environments.json")
    cfg["rbf"].update(m_hidden=4, epochs=3)
    cfg["scenario"]["distances_m"]["count"] = 30
    cfg["curves"]["rician_points"] = 31
    return cfg


def fuzz_bases():
    """fuzz_config, and two variants that reach the other channel paths:
    altitude waypoints with product P_LoS and Rician fading, and holis P_LoS
    with Gaussian shadowing."""
    waypoints, holis = fuzz_config(), fuzz_config()
    waypoints["plos_model"] = "product"
    waypoints["scenario"].update(
        kind="altitude_waypoints", altitudes_m=[20.0 * (i + 1) for i in range(10)],
        r_ground_m=500.0,
    )
    waypoints["budget"]["fading"] = {"kind": "rician", "s": 1.0, "delta": 0.5}
    holis["plos_model"] = "holis"
    holis["budget"]["fading"] = {"kind": "gaussian_shadow", "sigma_db": 3.0}
    return [fuzz_config(), waypoints, holis]


FUZZ_BASES = fuzz_bases()
# (base, document, path): each leaf, or node, of each base config and of the
# selected environment, entry 1
FUZZ_LEAVES, FUZZ_NODES = (
    [
        (base, document, path)
        for base, cfg in enumerate(FUZZ_BASES)
        for document, node in (("config", cfg), (1, ENVIRONMENTS[1]))
        for path in paths(node)
    ]
    for paths in (json_leaves, json_nodes)
)
HUGE_INT = 2**70  # valid for rbf.epochs too, which then trains for ever
# test_value_that_is_no_float_names_its_key puts 2**1100 in each kind of number.
FUZZ_VALUES = [
    None, True, "x", -1, 0, 2.5, math.nan, math.inf, -math.inf, [], {},
    1e308, -1e308, 5e-324, [1e308], HUGE_INT,
]
# Whole nodes: a wrong type, an empty or unknown block, lists of wrong entries
NODE_VALUES = [
    None, True, "x", 0, 1e308, [], {}, [None], ["x"], [1e308], {"x": 1}, {"kind": "x"},
]
FUZZ_COMMANDS = [
    ["generate"], ["train", "out/dataset.csv"], ["curves", "rician"],
    ["curves", "plos_fit"], ["curves", "rss_distance"],
]
# Texts of a Python fault passed on as the message of an error line
RAW_PYTHON = (
    "object has no attribute", "is not iterable", "unexpected keyword", "py.warnings",
)


def assert_exits_cleanly(code, stderr):
    """Exit 0, 1 or 2; a non-zero exit with one `error:` line that holds no
    raw Python text."""
    assert code in (0, 1, 2)
    if code:
        assert len(stderr.splitlines()) == 1
        assert stderr.startswith("error: ")
        assert not any(text in stderr for text in RAW_PYTHON), stderr


def run_fuzzed(cfg, envs, commands):
    """Each of ``commands`` with --config on cfg and envs, in a new directory."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        write_json(Path("environments.json"), envs)
        write_json(Path("run.json"), cfg)
        for command, *rest in commands:
            code, _, stderr = run_main(command, "--config", "run.json", *rest)
            assert_exits_cleanly(code, stderr)


def fuzzed(base, document, path, value):
    """(config, environments): FUZZ_BASES[base] and ENVIRONMENTS, with value at
    path in the config, or in the environment entry numbered document."""
    cfg, envs = copy.deepcopy(FUZZ_BASES[base]), copy.deepcopy(ENVIRONMENTS)
    node = cfg if document == "config" else envs[document]
    for part in path[:-1]:
        node = node[part]
    node[path[-1]] = value
    return cfg, envs


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(FUZZ_LEAVES), st.sampled_from(FUZZ_VALUES))
def test_fuzzed_config_leaf_never_escapes(leaf, value):
    """Any wrong value in a run config or environment entry ends in an exit code.

    Exit 2 is a rejected input. Exit 1 is a runtime failure such as a sigmoid
    fit without samples strictly inside (0, 1), which a degenerate but valid
    environment gives. Either ends in one `error:` line that holds no raw
    Python text; no exception escapes.
    """
    assume(not (leaf[2] == ("rbf", "epochs") and value == HUGE_INT))
    run_fuzzed(*fuzzed(*leaf, value), FUZZ_COMMANDS)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(FUZZ_NODES), st.sampled_from(NODE_VALUES))
def test_fuzzed_config_node_never_escapes(node, value):
    """A whole block, list or kind of a run config or environment entry put
    wrong ends as a wrong leaf does, in curves plos_angle too."""
    run_fuzzed(*fuzzed(*node, value), [*FUZZ_COMMANDS, ["curves", "plos_angle"]])


@pytest.mark.parametrize("command", ["train", "curves rss_distance"])
def test_rmse_past_the_float_range_exits_2(tmp_path, command):
    """An environment with eps_nlos_db=1e308 gives RSS near -3e306: generate
    writes it, but the fit's errors square past the float range, so train and
    the rss curves exit 2 naming the RMSE, as eval does, and write nothing."""
    envs = copy.deepcopy(ENVIRONMENTS)
    envs[1]["eps_nlos_db"] = 1e308
    with contextlib.chdir(tmp_path):
        write_json(Path("environments.json"), envs)
        write_json(Path("run.json"), fuzz_config())
        assert run_main("generate", "--config", "run.json")[0] == 0
        name, *rest = command.split()
        argv = [name, *rest, "--config", "run.json", "--out", "fit"]
        argv += ["out/dataset.csv"] if name == "train" else []
        metric = "train_rmse_db" if name == "train" else "val_rmse_db"
        message = f"error: {metric} is inf: the errors leave the float range\n"
        assert run_main(*argv) == (2, "", message)
        assert os.listdir("fit") == []


@pytest.mark.parametrize("command", ["train", "curves rss_distance"])
def test_huge_int_learning_rate_trains_as_its_float(tmp_path, command):
    """rbf.tau_mu = 2**70 is a valid rate: it trains as the float it rounds
    to, with the same stdout and files (the provenance line aside)."""
    name, *rest = command.split()
    runs = []
    for tau_mu in (2**70, float(2**70)):
        cfg = fuzz_config()
        cfg["rbf"]["tau_mu"] = tau_mu
        run_dir = tmp_path / type(tau_mu).__name__
        run_dir.mkdir()
        with contextlib.chdir(run_dir):
            write_json(Path("environments.json"), ENVIRONMENTS)
            write_json(Path("run.json"), cfg)
            assert run_main("generate", "--config", "run.json")[0] == 0
            argv = [name, *rest, "--config", "run.json", "--out", "fit"]
            argv += ["out/dataset.csv"] if name == "train" else []
            code, stdout, stderr = run_main(*argv)
            assert (code, stderr) == (0, "")
            files = {
                path.name: [
                    line for line in path.read_text(encoding="utf-8").splitlines()
                    if "config_sha256=" not in line
                ]
                for path in sorted(Path("fit").iterdir())
            }
        runs.append((stdout, files))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("count", [2**63, 2**70], ids=["2^63", "2^70"])
def test_rician_grid_past_numpy_sizes_exits_1(tmp_path, env_file, count):
    cfg = base_run_config(env_file)
    cfg["curves"]["rician_points"] = count
    write_json(tmp_path / "run.json", cfg)
    with contextlib.chdir(tmp_path):
        code, stdout, stderr = run_main("curves", "rician", "--config", "run.json")
    message = f"error: cannot allocate a grid of {count} points\n"
    assert (code, stdout, stderr) == (1, "", message)


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
        line = Path("run.json").read_text(encoding="utf-8").splitlines().index(
            '  "scenario": {'
        ) + 1
        assert stderr.startswith(
            f"error: run.json:{line}: scenario: row 0: r=1000000000000.0: m + 1 = "
        )
        assert stderr.endswith(" buildings on the path, over 10^6\n")

    def test_allocation_past_any_address_space_exits_1(self, run):
        # 10^15 float64 grid points are 8 PB: the allocation fails at once
        grid = {"start": 100.0, "stop": 2000.0, "count": 10**15}
        code, stdout, stderr = run({"kind": "distance_sweep", "distances_m": grid}, "generate")
        assert (code, stdout) == (1, "")
        assert stderr.startswith("error: ") and "allocate" in stderr  # numpy's text
        assert stderr.count("\n") == 1


class TestRunConfigWhere:
    def test_top_level_key_gives_its_line(self, tmp_path, env_file):
        cfg_path = tmp_path / "run.json"
        write_json(cfg_path, base_run_config(env_file))
        lines = cfg_path.read_text(encoding="utf-8").splitlines()
        cfg = RunConfig(str(cfg_path))
        for key in ("environment", "rbf", "budget", "curves"):
            line = next(
                i for i, text in enumerate(lines, 1) if text.startswith(f'  "{key}":')
            )
            assert cfg.where(key) == f"{cfg_path}:{line}"
        assert cfg.where("seed") == str(cfg_path)  # a key of blocks only
        assert cfg.where("missing") == str(cfg_path)

    def test_skips_same_named_keys_inside_blocks(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(
            '{"rbf": {"out_dir": 1, "note": "\\"out_dir\\": 0"},\n'
            '  "train": [{"out_dir": 3}],\n  "out_dir": "o"}\n',
            encoding="utf-8",
        )
        cfg = RunConfig(str(cfg_path))
        assert cfg.get("out_dir") == "o"
        assert cfg.where("out_dir") == f"{cfg_path}:3"
        assert cfg.where("train") == f"{cfg_path}:2"
        assert cfg.where("note") == str(cfg_path)


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
        assert proc.stderr.startswith(
            "WARNING:skylink.cli:paper_literal updates did not reduce the training MSE"
        )
        env = dict(os.environ, SKYLINK_LOG="error")  # a log record, so it obeys
        proc = run_cli(
            "train", "--config", str(cfg_path),
            str(tmp_path / "out" / "dataset.csv"), cwd=tmp_path, env=env,
        )
        assert (proc.returncode, proc.stderr) == (0, "")

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
    non-zero exit ends in an `error:` line. No exception escapes. train reads
    into arrays, but on a file that read_dataset rejects it exits 2 with
    read_dataset's message, line number included.
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
        try:
            read_dataset(path)
            rejected = None
        except SchemaError as exc:
            rejected = (2, "", f"error: {exc}\n")
        for argv in csv_commands(small_run, path, tmp):
            code, stdout, stderr = run_main(*argv)
            assert_exits_cleanly(code, stderr)
            if argv[0] == "train" and rejected:
                assert (code, stdout, stderr) == rejected


@pytest.mark.parametrize(
    "target", ["config", "environment", "dataset", "features", "sidecar", "model"]
)
def test_non_utf8_file_exits_2(small_run, tmp_path, target):
    """A user's file that is not UTF-8 gives exit 2 and one `error:` line that
    starts with the file's path."""
    bad = tmp_path / "bad"
    if target == "config":
        bad.write_bytes(b'{"environment": "\xff"}\n')
        commands = [["generate", "--config", str(bad)]]
    elif target == "environment":
        bad.write_bytes(b'[{"name": "\xff"}]\n')
        cfg = {**fuzz_config(), "environment_file": str(bad)}
        write_json(tmp_path / "run.json", cfg)
        run = ["--config", str(tmp_path / "run.json")]
        commands = [["generate", *run], ["curves", "plos_angle", *run]]
    elif target == "sidecar":
        dataset = tmp_path / "dataset.csv"
        dataset.write_bytes((small_run / "out" / "dataset.csv").read_bytes())
        bad = tmp_path / "dataset.json"
        bad.write_bytes(b'{"scenario": "\xff"}\n')
        commands = csv_commands(small_run, str(dataset), str(tmp_path))
    elif target == "model":
        bad.write_bytes(b"\xff" + (small_run / "out" / "model.json").read_bytes())
        commands = [
            ["predict", str(bad), "--row", "1,2,3,4"],
            ["eval", str(bad), str(small_run / "out" / "dataset.csv")],
        ]
    else:
        name = "out/dataset.csv" if target == "dataset" else "features.csv"
        bad.write_bytes((small_run / name).read_bytes() + b"\xff\n")
        commands = csv_commands(small_run, str(bad), str(tmp_path))
    for argv in commands:
        code, stdout, stderr = run_main(*argv)
        assert (code, stdout) == (2, ""), argv
        assert len(stderr.splitlines()) == 1, argv
        assert stderr.startswith(f"error: {bad}: 'utf-8' codec can't decode"), argv


@pytest.mark.parametrize("command, message", [
    (command, "[Errno 21] Is a directory: '{dir}'") for command in (
        "train --config run.json {dir}", "eval {model} {dir}",
        "predict {dir} --row 1,2,3,4", "predict {model} --input {dir}",
        "train --config {dir} out/dataset.csv",
    )
] + [(
    "generate --config {dir}/run.json",
    "{dir}/run.json:2: environment file '{dir}/.' is not a file",
)])
def test_path_that_is_a_directory_exits_2(small_run, tmp_path, command, message):
    """A directory where a file belongs is a usage fault, as a missing path
    is: exit 2 and one `error:` line. An environment file names its key's line."""
    write_json(tmp_path / "run.json", {**fuzz_config(), "environment_file": "."})
    argv = command.format(dir=tmp_path, model="out/model.json").split()
    with contextlib.chdir(small_run):
        code, stdout, stderr = run_main(*argv)
    assert (code, stdout, stderr) == (2, "", f"error: {message.format(dir=tmp_path)}\n")


MODEL_ARRAYS = [
    "centers", "spans", "weights",
    "norm_stats.x_min", "norm_stats.x_max", "norm_stats.y_min", "norm_stats.y_max",
]
# (arrays set to a finite value whole, the error): finite models that overflow
OVERFLOWING_MODELS = [
    ({"weights": 1e308}, "non-finite prediction at row "),
    (
        {"norm_stats.y_min": -1e308, "norm_stats.y_max": 1e308},
        "{model}: malformed model document: y_max - y_min must be finite",
    ),
]


NON_FINITE = [
    (array, bad) for bad in (math.nan, math.inf, -math.inf) for array in MODEL_ARRAYS
]


@pytest.mark.parametrize("edits, message", [
    ({array: bad}, "{model}: malformed model document: non-finite "
     f"{array.split('.')[-1]} at row ") for array, bad in NON_FINITE
] + OVERFLOWING_MODELS, ids=[
    f"{array}-{bad}" for array, bad in NON_FINITE
] + ["weights-1e308", "y_span-overflows"])
def test_non_finite_model_array_exits_2(small_run, tmp_path, edits, message):
    """json reads NaN and Infinity; a model holding one is rejected by name. A
    finite model whose output or normalization span overflows exits 2 too."""
    doc = json.loads((small_run / "out" / "model.json").read_text(encoding="utf-8"))
    for array, value in edits.items():
        *block, name = array.split(".")
        node = doc[block[0]] if block else doc
        values = np.array(node[name], dtype=float)
        if math.isfinite(value):
            values[...] = value
        else:
            values.flat[-1] = value
        node[name] = values.tolist()
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc), encoding="utf-8")  # writes NaN, Infinity
    dataset = str(small_run / "out" / "dataset.csv")
    for argv in (
        ["predict", str(model), "--input", dataset], ["eval", str(model), dataset],
    ):
        code, stdout, stderr = run_main(*argv)
        assert (code, stdout) == (2, "")
        assert len(stderr.splitlines()) == 1
        assert stderr.startswith(f"error: {message.format(model=model)}")


@pytest.mark.parametrize("command, edit, message", [
    ("predict --row 1,x,3,4", None, "--row must be comma-separated numbers: "
     "could not convert string to float: 'x'"),
    ("eval", "three_features", "model dimensions (3 features, 1 outputs) do not "
     "match the dataset"),
    ("predict --row 1,2,3,4", "array", "{model}: model document must be a JSON object"),
    ("eval", "y_min_huge", "rmse_db is inf: the errors leave the float range"),
] + [
    (command, "span_subnormal", "{model}: spans[1] must be >= SPAN_FLOOR=1e-06, "
     "got 5e-324") for command in ("predict --row 1000,100,2000,100", "eval")
], ids=[
    "row_not_numbers", "eval_dimensions", "model_not_an_object", "eval_overflows",
    "predict_span_below_floor", "eval_span_below_floor",
])
def test_model_command_input_errors_exit_2(small_run, tmp_path, command, edit, message):
    doc = json.loads((small_run / "out" / "model.json").read_text(encoding="utf-8"))
    if edit == "three_features":  # a model of (D, H, F) features
        doc["centers"] = [row[:3] for row in doc["centers"]]
        for key in ("x_min", "x_max"):
            doc["norm_stats"][key] = doc["norm_stats"][key][:3]
    elif edit == "y_min_huge":  # predictions near -1e308: finite, their squares not
        doc["norm_stats"].update(y_min=[-1e308], y_max=[0.0])
    elif edit == "span_subnormal":  # positive, but 1/delta^2 overflows
        doc["spans"][1] = 5e-324
    model = tmp_path / "model.json"
    write_json(model, [doc] if edit == "array" else doc)
    name, *rest = command.split()
    dataset = [str(small_run / "out" / "dataset.csv")] if name == "eval" else []
    code, stdout, stderr = run_main(name, str(model), *dataset, *rest)
    assert (code, stdout, stderr) == (2, "", f"error: {message.format(model=model)}\n")


MODEL_FIELDS = ["format_version", "config.m_hidden", "config.input_dim",
                "config.output_dim", *MODEL_ARRAYS]
# Numbers near and past the limits a model's loader and predictions meet
MODEL_VALUES = [
    None, True, "x", -1, 0, 2.5, 1e-7, 5e-324, -5e-324, 1e308, -1e308, HUGE_INT,
]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(MODEL_FIELDS), st.sampled_from(MODEL_VALUES), st.booleans())
def test_fuzzed_model_number_never_escapes(small_run, field, value, whole):
    """A model.json number put wrong, a whole array's or its last entry's,
    ends in an exit code through predict --row, predict --input and eval."""
    doc = json.loads((small_run / "out" / "model.json").read_text(encoding="utf-8"))
    *block, key = field.split(".")
    node = doc[block[0]] if block else doc
    while isinstance(node[key], list) and not whole:
        node, key = node[key], -1
    node[key] = value
    dataset = str(small_run / "out" / "dataset.csv")
    with tempfile.TemporaryDirectory() as tmp:
        model = os.path.join(tmp, "model.json")
        write_json(Path(model), doc)
        for argv in (
            ["predict", model, "--row", "1000,100,2000,100"],
            ["predict", model, "--input", dataset], ["eval", model, dataset],
        ):
            code, _, stderr = run_main(*argv)
            assert_exits_cleanly(code, stderr)


# (entry, path): each leaf of each environment entry, and its whole c and sigmoid
ENV_FIELDS = [
    (entry, path) for entry, env in enumerate(ENVIRONMENTS)
    for paths in (json_leaves, json_nodes) for path in paths(env)
]


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(range(len(FUZZ_BASES))), st.sampled_from(ENV_FIELDS),
    st.sampled_from(FUZZ_VALUES),
)
def test_fuzzed_environment_value_never_escapes(base, field, value):
    """A value of any entry of the environment file put wrong ends in an exit
    code under each base's P_LoS model; the curves of every environment read
    each entry, the selected one or not."""
    run_fuzzed(*fuzzed(base, *field, value), [
        ["generate"], ["curves", "plos_angle"], ["curves", "plos_fit"],
        ["curves", "rss_distance"],
    ])


@pytest.mark.parametrize("name", ["out/dataset.csv", "features.csv"])
def test_predict_input_skips_leading_comments(small_run, tmp_path, name):
    """predict --input reads "#" lines before the header as comments, as the
    other CSV readers do, whichever of its two schemas follows them."""
    model = str(small_run / "out" / "model.json")
    plain = run_main("predict", model, "--input", str(small_run / name))
    commented = tmp_path / "input.csv"
    commented.write_text(
        "# note\n# another\n" + (small_run / name).read_text(encoding="utf-8"),
        encoding="utf-8",
    )
    assert plain[0] == 0
    assert run_main("predict", model, "--input", str(commented)) == plain


def no_sample(*args, **kwargs):
    raise AssertionError("a datagen.Sample was built")


def test_model_commands_print_what_the_per_row_loops_printed(small_run, monkeypatch):
    """On a valid dataset, predict --input and eval build no Sample, and print
    byte for byte what a print of each prediction's repr and the metrics of
    features_targets(read_dataset(path)) gave; so does predict on the
    dataset's D,H,F,P feature CSV."""
    model = str(small_run / "out" / "model.json")
    dataset = str(small_run / "out" / "dataset.csv")
    net, _ = load_model(model)
    x, y = features_targets(read_dataset(dataset))
    predicted = net.predict(x)
    want_predict = "".join(f"{float(value)!r}\n" for value in predicted[:, 0])
    err = predicted.reshape(y.shape) - y
    want_eval = (
        f"rmse_db={float(np.sqrt(np.mean(err ** 2)))!r}\n"
        f"mae_db={float(np.mean(np.abs(err)))!r}\n"
        f"max_abs_error_db={float(np.max(np.abs(err)))!r}\n"
    )
    monkeypatch.setattr(datagen, "Sample", no_sample)
    for path in (dataset, str(small_run / "features.csv")):
        assert run_main("predict", model, "--input", path)[:2] == (0, want_predict)
    assert run_main("eval", model, dataset)[:2] == (0, want_eval)


def scenario_dataset(cfg: dict, kind: str, env_dir: Path) -> datagen.Dataset:
    """The gen_* dataset of a run config's scenario block, read as ``kind``."""
    generate, args = datagen.scenario_layout(kind, cfg["scenario"])
    env = load_environments(env_dir / cfg["environment_file"])[cfg["environment"]]
    return generate(
        env, budget=budget_from_dict(cfg["budget"]), pl_model=cfg["pl_model"],
        plos_model=cfg["plos_model"], **args,
    )


SWEEP_2001 = {"distances_m": {"start": 50.0, "stop": 5000.0, "count": 2001}}
RICIAN = {"kind": "rician", "s": 1.0, "delta": 0.3}


@pytest.mark.parametrize("scenario, fading, plos_model", [
    (SWEEP_2001, {"kind": "off"}, "sigmoid"),
    (SWEEP_2001, RICIAN, "product"),
    (SWEEP_2001, {"kind": "gaussian_shadow", "sigma_db": 3.0}, "holis"),
    ({**WAYPOINTS, "altitudes_m": [12.5, 40.0, 95.25, 300.0], "r_ground_m": 750.0},
     RICIAN, "sigmoid"),
], ids=["sweep-off", "sweep-rician", "sweep-gaussian_shadow", "waypoints-rician"])
def test_generate_writes_what_write_dataset_writes(
    tmp_path, monkeypatch, scenario, fading, plos_model
):
    """generate builds no Sample, and its dataset.csv and dataset.json are the
    bytes write_dataset writes for the gen_* dataset of the same config. The
    sweeps have 2 001 rows, so their draws cross a 1 024-row _SEED_CHUNK."""
    cfg = {**fuzz_config(), "plos_model": plos_model}
    cfg["scenario"].update(scenario)
    cfg["budget"]["fading"] = fading
    monkeypatch.chdir(tmp_path)
    write_json(Path("environments.json"), ENVIRONMENTS)
    write_json(Path("run.json"), cfg)
    dataset = scenario_dataset(cfg, cfg["scenario"]["kind"], tmp_path)
    datagen.write_dataset(dataset, "want.csv")
    monkeypatch.setattr(datagen, "Sample", no_sample)
    assert run_main("generate", "--config", "run.json") == (0, (
        f"wrote {len(dataset.samples)} rows to out/dataset.csv\n"
        "wrote metadata to out/dataset.json\n"
    ), "")
    for name in ("dataset.csv", "dataset.json"):
        want = Path("want" + os.path.splitext(name)[1]).read_bytes()
        assert (tmp_path / "out" / name).read_bytes() == want


@pytest.mark.parametrize("which", ["rss_distance", "rss_altitude"])
def test_rss_curves_build_no_sample(small_run, tmp_path, monkeypatch, which):
    """curves rss_* turn the scenario's columns into arrays: with datagen.Sample
    raising, each writes and prints what an unpatched run does, and its x and
    empirical columns are features_targets' of the gen_* dataset."""
    argv = ["curves", which, "--config", str(small_run / "run.json"), "--out"]
    plain = run_main(*argv, str(tmp_path / "plain"))
    monkeypatch.setattr(datagen, "Sample", no_sample)
    patched = run_main(*argv, str(tmp_path / "patched"))
    monkeypatch.undo()
    stdout = plain[1].replace(str(tmp_path / "plain"), str(tmp_path / "patched"))
    assert plain[0] == 0 and patched == (0, stdout, plain[2])
    name = f"{which}.csv"
    got = (tmp_path / "patched" / name).read_bytes()
    assert got == (tmp_path / "plain" / name).read_bytes()
    kind, axis = cli._RSS_KINDS[which]
    cfg = json.loads((small_run / "run.json").read_text(encoding="utf-8"))
    x, y = features_targets(scenario_dataset(cfg, kind, small_run))
    rows = read_curve_csv(tmp_path / "patched" / name)[2]
    assert [row[:2] for row in rows] == np.column_stack([x[:, axis], y[:, 0]]).tolist()


def test_predict_prints_every_row_of_a_long_input(small_run, tmp_path):
    """predict --input on 4 097 rows, more than one 4 096-row chunk, prints
    each prediction's repr in order through a process's real stdout."""
    lines = (small_run / "features.csv").read_text(encoding="utf-8").splitlines()
    header, rows = lines[0], lines[1:]
    table = [rows[i % len(rows)] for i in range(4097)]
    path = tmp_path / "features.csv"
    path.write_text("\n".join([header, *table]) + "\n", encoding="utf-8")
    model = str(small_run / "out" / "model.json")
    net, _ = load_model(model)
    x = np.array([[float(v) for v in row.split(",")] for row in table])
    proc = run_cli("predict", model, "--input", str(path), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "".join(f"{v!r}\n" for v in net.predict(x)[:, 0].tolist())


def test_train_builds_no_sample(small_run, tmp_path, monkeypatch):
    """On a valid dataset, train reads arrays: with datagen.Sample raising, it
    writes the model and report and prints what an unpatched run does."""
    dataset = str(small_run / "out" / "dataset.csv")
    argv = ["train", "--config", str(small_run / "run.json"), dataset]
    plain = run_main(*argv, "--out", str(tmp_path))
    names = ("model.json", "training_report.csv")
    files = {name: (tmp_path / name).read_bytes() for name in names}
    for name in names:
        (tmp_path / name).unlink()
    monkeypatch.setattr(datagen, "Sample", no_sample)
    assert plain[0] == 0 and run_main(*argv, "--out", str(tmp_path)) == plain
    assert {name: (tmp_path / name).read_bytes() for name in names} == files


def test_train_fits_the_two_sides_of_split(small_run, tmp_path):
    """train's model.json is the one the library fits on split()'s sides."""
    from skylink import rbf_net

    cfg = fuzz_config()
    dataset = read_dataset(small_run / "out" / "dataset.csv")
    block = cfg["train"]
    sides = datagen.split(dataset, block["train_fraction"], block["split_seed"])
    (x, y), validation = (features_targets(side) for side in sides)
    config = rbf_net.RbfConfig(**cfg["rbf"])
    net, _ = rbf_net.train(
        rbf_net.init_network(config, x), x, y, config, validation=validation
    )
    digest = rbf_net.fit_digest(config, x, y, *validation)
    rbf_net.save_model(tmp_path / "model.json", net, config, digest)
    want = (small_run / "out" / "model.json").read_bytes()
    assert (tmp_path / "model.json").read_bytes() == want


def test_model_commands_read_the_sidecar_of_a_valid_dataset(
    small_run, tmp_path, monkeypatch
):
    """The array reader parses the sidecar as read_dataset does: a malformed
    one exits 2 with its position, though the rows themselves are valid."""
    dataset = tmp_path / "dataset.csv"
    dataset.write_bytes((small_run / "out" / "dataset.csv").read_bytes())
    sidecar = tmp_path / "dataset.json"
    sidecar.write_text("{bad", encoding="utf-8")
    model = str(small_run / "out" / "model.json")
    monkeypatch.setattr(datagen, "Sample", no_sample)
    message = "invalid JSON: Expecting property name enclosed in double quotes"
    for argv in (["predict", model, "--input", str(dataset)], ["eval", model, str(dataset)]):
        assert run_main(*argv) == (2, "", f"error: {sidecar}:1:2: {message}\n")


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


def assert_curve_bytes(path, rows):
    """Assert that the curve CSV at path is what write_curve_csv writes from
    the file's own comments and header and from rows; return the comments."""
    comments, header, _ = read_curve_csv(path)
    want = path.with_suffix(".want")
    datagen.write_curve_csv(str(want), comments, header, rows)
    assert path.read_bytes() == want.read_bytes()
    return comments


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

    def test_rss_distance_file_is_what_per_row_lists_write(self, small_run, tmp_path):
        """curves rss_distance, reusing train's model, writes byte for byte what
        write_curve_csv writes from rows of Python floats."""
        shutil.copy(small_run / "out" / "model.json", tmp_path / "model.json")
        argv = ["--config", str(small_run / "run.json"), "--out", str(tmp_path)]
        assert run_main("curves", "rss_distance", *argv)[0] == 0
        net, _ = load_model(tmp_path / "model.json")
        x, y = features_targets(read_dataset(small_run / "out" / "dataset.csv"))
        p = net.predict(x).reshape(-1)
        rows = [[float(x[i, 0]), float(y[i, 0]), float(p[i])] for i in range(len(x))]
        assert_curve_bytes(tmp_path / "rss_distance.csv", rows)

    def test_plos_fit_files_are_what_per_row_lists_write(self, small_run, tmp_path):
        """curves plos_fit writes byte for byte, fit note included, what
        write_curve_csv writes from [theta, product, fit] lists of floats."""
        argv = ["--config", str(small_run / "run.json"), "--out", str(tmp_path)]
        assert run_main("curves", "plos_fit", *argv)[0] == 0
        h, rx = 100.0, datagen.DEFAULT_RX_HEIGHT_M
        thetas = [float(t) for t in range(10, 91)]
        for env in load_environments(small_run / "environments.json").values():
            produced = [
                plos_product(env, h, rx, ground_distance_for_angle(h, t))
                for t in thetas
            ]
            a, b = fit_sigmoid([(t, v) for t, v in zip(thetas, produced) if 0 < v < 1])
            fit_env = dataclasses.replace(env, sigmoid=(a, b))
            fitted = [plos_sigmoid(fit_env, t) for t in thetas]
            err = np.array(fitted) - np.array(produced)
            note = f"fitted a={a!r} b={b!r} rmse={float(np.sqrt(np.mean(err ** 2)))!r}"
            rows = [[t, v, f] for t, v, f in zip(thetas, produced, fitted)]
            path = tmp_path / f"plos_fit_{env.name}.csv"
            assert note in assert_curve_bytes(path, rows)

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

    def test_rician_k_db_past_the_float_range_is_located(self, tmp_path, env_file):
        cfg = base_run_config(env_file)
        cfg["curves"].update(rician_k_db=True, rician_k=[10.0, 4000.0])
        cfg_path = tmp_path / "run.json"
        write_json(cfg_path, cfg)
        lines = cfg_path.read_text(encoding="utf-8").splitlines()
        line = lines.index('  "curves": {') + 1
        with contextlib.chdir(tmp_path):
            code, stdout, stderr = run_main("curves", "rician", "--config", "run.json")
        assert (code, stdout) == (2, "")
        assert stderr.startswith(f"error: run.json:{line}: curves: malformed value: ")
        assert stderr.count("\n") == 1
        assert not (tmp_path / "out" / "rician.csv").exists()

    def test_extreme_k_names_its_entry(self, tmp_path, env_file):
        cfg = base_run_config(env_file)
        cfg["curves"].update(rician_k_db=True, rician_k=[10.0, 4000.0])
        write_json(tmp_path / "run.json", cfg)
        lines = (tmp_path / "run.json").read_text(encoding="utf-8").splitlines()
        line = lines.index('  "curves": {') + 1
        with contextlib.chdir(tmp_path):
            code, stdout, stderr = run_main("curves", "rician", "--config", "run.json")
        assert (code, stdout) == (2, "")
        assert stderr == (
            f"error: run.json:{line}: curves: malformed value: rician_k[1] must keep K "
            "in float range, got 4000.0\n"
        )
        assert not (tmp_path / "out" / "rician.csv").exists()

    @pytest.mark.parametrize("in_db, k", [(True, 3080.0), (False, 1e308)],
                             ids=["3080dB", "1e308"])
    def test_k_near_float_max_peak_matches_mpmath(self, tmp_path, env_file, in_db, k):
        cfg = base_run_config(env_file)
        cfg["curves"].update(rician_k_db=in_db, rician_k=[k])
        write_json(tmp_path / "run.json", cfg)
        with contextlib.chdir(tmp_path):
            code, _, stderr = run_main("curves", "rician", "--config", "run.json")
        assert code == 0, stderr
        _, _, rows = read_curve_csv(tmp_path / "out" / "rician.csv")
        got = next(row for row in rows if row[0] == 1.0)[1]
        params = params_from_k(10.0 ** (k / 10.0) if in_db else k)
        assert params.delta < 1e-154  # 2 (K + 1) itself is past the float range
        assert within_rician_bound(got, rician_oracle(params.s, params.delta, 1.0))

    def test_large_k_peak_matches_mpmath(self, tmp_path, env_file):
        cfg = base_run_config(env_file)
        cfg["curves"]["rician_k"] = [1e30, 1e14]
        write_json(tmp_path / "run.json", cfg)
        proc = run_cli("curves", "rician", "--config", "run.json", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        _, _, rows = read_curve_csv(tmp_path / "out" / "rician.csv")
        peak = next(row for row in rows if row[0] == 1.0)
        for k, got in zip((1e30, 1e14), peak[1:]):
            params = params_from_k(k)
            want = rician_oracle(params.s, params.delta, 1.0)
            assert within_rician_bound(got, want), (k, got, want)

    def test_one_density_call_per_k(self, workspace, monkeypatch):
        tmp, cfg = workspace
        calls = []
        pdf = fading.rician_pdf
        monkeypatch.setattr(
            fading, "rician_pdf", lambda params, r: calls.append(r) or pdf(params, r)
        )
        with contextlib.chdir(tmp):
            assert run_main("curves", "rician", "--config", str(cfg))[0] == 0
        assert [np.shape(r) for r in calls] == [(121,)] * 3

    def test_negative_linear_k_is_located(self, tmp_path, env_file):
        cfg = base_run_config(env_file)
        cfg["curves"]["rician_k"] = [0.0, -1.0]
        write_json(tmp_path / "run.json", cfg)
        lines = (tmp_path / "run.json").read_text(encoding="utf-8").splitlines()
        line = lines.index('  "curves": {') + 1
        with contextlib.chdir(tmp_path):
            code, stdout, stderr = run_main("curves", "rician", "--config", "run.json")
        assert (code, stdout) == (2, "")
        assert stderr == (
            f"error: run.json:{line}: curves: malformed value: "
            "k must be finite and >= 0, got -1.0\n"
        )
        assert not (tmp_path / "out" / "rician.csv").exists()

    def test_unknown_curve_rejected(self, workspace):
        tmp, cfg = workspace
        proc = run_cli("curves", "spectrogram", "--config", str(cfg), cwd=tmp)
        assert proc.returncode == 2


RSS_EDITS = {  # rss curve -> config edits under which train fits the same model
    "rss_distance": {},  # base_run_config's 60-point distance sweep
    "rss_altitude": {"scenario": {
        "kind": "altitude_waypoints", "altitudes_m": [10.0 * i for i in range(1, 31)],
    }},
}


class TestModelReuse:
    """curves rss_* loads <out>/model.json when its fit_digest matches the fit
    it would make, and trains otherwise, with the same artifacts either way."""

    @pytest.fixture
    def run(self, tmp_path, env_file, monkeypatch):
        """Run the CLI in tmp_path on run.json (base_run_config + edits)."""
        monkeypatch.chdir(tmp_path)

        def run(*argv, config="run.json", **edits):
            cfg = base_run_config(env_file)
            for block, values in edits.items():
                cfg[block] = values if block == "scenario" else {**cfg[block], **values}
            write_json(tmp_path / config, cfg)
            return run_main(*argv, "--config", config)

        return run

    @pytest.fixture
    def trainings(self, monkeypatch):
        """The number of rbf_net.train calls so far, as a one-entry list."""
        from skylink import rbf_net

        calls, real = [0], rbf_net.train

        def counted(*args, **kwargs):
            calls[0] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(rbf_net, "train", counted)
        return calls

    def fresh(self, run, which, **edits):
        """(exit code, stdout, curve bytes) of curves <which> in out_fresh."""
        code, stdout, _ = run("curves", which, "--out", "out_fresh", **edits)
        return code, stdout.replace("out_fresh", "out"), Path(
            f"out_fresh/{which}.csv"
        ).read_bytes()

    @pytest.mark.parametrize("which", RSS_EDITS)
    def test_curve_is_byte_identical_with_and_without_reuse(
        self, run, trainings, caplog, which
    ):
        edits = RSS_EDITS[which]
        want = self.fresh(run, which, **edits)
        assert run("generate", **edits)[0] == 0
        assert run("train", "out/dataset.csv", **edits)[0] == 0
        assert trainings == [2]
        caplog.set_level(logging.INFO, logger="skylink.cli")
        code, stdout, _ = run("curves", which, **edits)
        assert trainings == [2]  # the model was loaded, not fit again
        assert (code, stdout, Path(f"out/{which}.csv").read_bytes()) == want
        assert caplog.messages == ["reusing out/model.json: its fit_digest matches"]

    def test_reuse_makes_no_sgd_step(self, run, monkeypatch):
        assert run("generate")[0] == 0
        assert run("train", "out/dataset.csv")[0] == 0
        from skylink import rbf_net

        def no_training(*args, **kwargs):
            raise AssertionError("trained although model.json fits")

        monkeypatch.setattr(rbf_net, "train", no_training)
        monkeypatch.setattr(rbf_net, "_sgd", no_training)
        code, _, stderr = run("curves", "rss_distance")
        assert (code, stderr) == (0, "")

    @pytest.mark.parametrize("config, extra", [
        ("run.json", ["--seed", "3"]),  # rbf, budget and split seeds
        ("other.json", []),  # a dataset of another transmit power
        ("rbf.json", []),  # another rbf block
    ], ids=["seed", "dataset", "rbf"])
    def test_model_fit_another_way_is_not_reused(
        self, run, trainings, config, extra
    ):
        budget = {"tx_power_dbm": 31.0} if config == "other.json" else {}
        rbf = {"tau_w": 0.1} if config == "rbf.json" else {}
        assert run("generate", config=config, budget=budget)[0] == 0
        code, _, _ = run("train", "out/dataset.csv", *extra, config=config, rbf=rbf)
        assert code == 0
        want = self.fresh(run, "rss_distance")
        assert trainings == [2]
        code, stdout, _ = run("curves", "rss_distance")
        assert trainings == [3]
        assert (code, stdout, Path("out/rss_distance.csv").read_bytes()) == want

    @pytest.mark.parametrize("spoil", [
        lambda text: text[: len(text) // 2],  # truncated
        lambda text: json.dumps({
            k: v for k, v in json.loads(text).items() if k != "fit_digest"
        }),
        lambda text: json.dumps({**json.loads(text), "spans": "x"}),  # digest kept
        lambda text: "[]",
    ], ids=["truncated", "no_digest", "malformed", "not_an_object"])
    def test_spoilt_model_falls_back_to_training(self, run, trainings, spoil):
        want = self.fresh(run, "rss_distance")
        assert run("generate")[0] == 0
        assert run("train", "out/dataset.csv")[0] == 0
        model = Path("out/model.json")
        model.write_text(spoil(model.read_text(encoding="utf-8")), encoding="utf-8")
        spoilt = model.read_bytes()
        code, stdout, stderr = run("curves", "rss_distance")
        assert trainings == [3] and stderr == ""
        assert (code, stdout, Path("out/rss_distance.csv").read_bytes()) == want
        assert model.read_bytes() == spoilt

    def test_unreadable_model_falls_back_to_training(self, run, trainings):
        want = self.fresh(run, "rss_distance")
        Path("out/model.json").mkdir(parents=True)
        code, stdout, _ = run("curves", "rss_distance")
        assert trainings == [2]
        assert (code, stdout, Path("out/rss_distance.csv").read_bytes()) == want

    def test_reuse_is_logged_at_info(self, run):
        assert run("generate")[0] == 0
        assert run("train", "out/dataset.csv")[0] == 0
        for level, want in (("warn", ""), ("info", "reusing out/model.json")):
            env = dict(os.environ, SKYLINK_LOG=level)
            proc = run_cli("curves", "rss_distance", "--config", "run.json", env=env)
            assert proc.returncode == 0
            assert proc.stderr.count("\n") == bool(want) and want in proc.stderr


@pytest.mark.parametrize("command", [
    ["train", "out/dataset.csv"], ["curves", "rss_distance"],
])
def test_divergence_prints_only_its_error(tmp_path, env_file, command):
    """Overflow inside an epoch is no warning: the finite-sum check raises."""
    cfg = base_run_config(env_file)
    cfg["rbf"]["tau_w"] = 1e308
    write_json(tmp_path / "run.json", cfg)
    assert run_cli("generate", "--config", "run.json", cwd=tmp_path).returncode == 0
    proc = run_cli(*command, "--config", "run.json", cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: training diverged")
    assert proc.stderr.count("\n") == 1


class TestHarness:
    def test_version_flag(self, tmp_path):
        proc = run_cli("--version", cwd=tmp_path)
        assert proc.returncode == 0
        assert proc.stdout.startswith("skylink ")

    def test_unknown_command(self, tmp_path):
        proc = run_cli("transmogrify", cwd=tmp_path)
        assert proc.returncode == 2

    def test_records_are_named_skylink_cli_under_python_m(self, small_run):
        """python -m runs the module as __main__; its logger keeps its name."""
        model = str(small_run / "out" / "model.json")
        proc = run_cli("predict", model, "--row", "1,2,3,4", cwd=small_run)
        assert (proc.returncode, proc.stderr) == (0, (
            "WARNING:skylink.cli:1 of 1 input rows fall outside the model's "
            "training feature range; extrapolating\n"
        ))

    @pytest.mark.parametrize("level", ["error", None], ids=["error", "default"])
    def test_log_level_filters_the_hata_range_warning(self, workspace, level):
        """The Hata nominal-range warning (f_mhz 2000 > 1500) goes through
        logging: SKYLINK_LOG=error hides it, the default level logs it once."""
        tmp, cfg = workspace
        doc = json.loads(cfg.read_text(encoding="utf-8"))
        write_json(cfg, dict(doc, pl_model="hata"))
        env = {k: v for k, v in os.environ.items() if k != "SKYLINK_LOG"}
        if level is not None:
            env["SKYLINK_LOG"] = level
        proc = run_cli("generate", "--config", str(cfg), cwd=tmp, env=env)
        assert proc.returncode == 0
        if level == "error":
            assert proc.stderr == ""
        else:
            assert proc.stderr.startswith("WARNING:py.warnings:")
            assert proc.stderr.count("WARNING:") == 1
            assert "Hata f_mhz=2000.0 MHz outside nominal range" in proc.stderr

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
