"""Shared fixtures: explicitly constructed environments and a CLI runner."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import skylink
from skylink import Environment


@pytest.fixture
def suburban():
    return Environment(
        name="suburban", alpha=0.1, beta=750.0, gamma=8.0,
        eps_los_db=0.1, eps_nlos_db=21.0,
        c=(1.0, 0.0, 5.0, 12.0, 2.5), sigmoid=(4.88, 0.43),
    )


@pytest.fixture
def urban():
    return Environment(
        name="urban", alpha=0.3, beta=500.0, gamma=15.0,
        eps_los_db=1.0, eps_nlos_db=20.0,
        c=(1.0, 0.0, 15.0, 12.0, 2.0), sigmoid=(9.61, 0.16),
    )


@pytest.fixture
def dense_urban():
    return Environment(
        name="dense-urban", alpha=0.5, beta=300.0, gamma=20.0,
        eps_los_db=1.6, eps_nlos_db=23.0,
        c=(1.0, 0.0, 20.0, 12.0, 2.0), sigmoid=(12.08, 0.11),
    )


def cli_env(env=None):
    """Environment for a CLI subprocess that imports the skylink under test.

    Extends ``env`` (default: ``os.environ``) with the absolute directory
    holding this process's ``skylink`` put first on ``PYTHONPATH``, ahead of
    any existing entries. The child thus runs the same package from any
    ``cwd``, and no other copy on the path can shadow it.
    """
    env = dict(os.environ if env is None else env)
    package_root = str(Path(skylink.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    return env


def rician_oracle(s, delta, r):
    """The Rician amplitude density at 50 significant digits (an mpmath mpf)."""
    import mpmath

    with mpmath.workdps(50):
        s, delta, r = mpmath.mpf(s), mpmath.mpf(delta), mpmath.mpf(r)
        var = delta * delta
        return r / var * mpmath.exp(-(r * r + s * s) / (2 * var)) * mpmath.besseli(
            0, r * s / var
        )


def within_rician_bound(got, want) -> bool:
    """|got - want| <= 16 eps (1 + |ln want|) want: the exponent of a density
    summed in log space carries an absolute error that grows with its size."""
    import mpmath

    eps = sys.float_info.epsilon
    return abs(got - want) <= 16 * eps * (1 + abs(mpmath.log(want))) * want


def run_cli(*argv, cwd=None, env=None):
    """Run the CLI in a subprocess; returns CompletedProcess with text output."""
    return subprocess.run(
        [sys.executable, "-m", "skylink.cli", *argv],
        capture_output=True, text=True, cwd=cwd, env=cli_env(env),
    )


def write_json(path, data):
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


# The three standard test environments, as an environment file holds them.
ENVIRONMENTS = [
    {
        "name": "suburban", "alpha": 0.1, "beta": 750.0, "gamma": 8.0,
        "eps_los_db": 0.1, "eps_nlos_db": 21.0,
        "c": [1.0, 0.0, 5.0, 12.0, 2.5],
        "sigmoid": {"a": 4.88, "b": 0.43},
    },
    {
        "name": "urban", "alpha": 0.3, "beta": 500.0, "gamma": 15.0,
        "eps_los_db": 1.0, "eps_nlos_db": 20.0,
        "c": [1.0, 0.0, 15.0, 12.0, 2.0],
        "sigmoid": {"a": 9.61, "b": 0.16},
    },
    {
        "name": "dense-urban", "alpha": 0.5, "beta": 300.0, "gamma": 20.0,
        "eps_los_db": 1.6, "eps_nlos_db": 23.0,
        "c": [1.0, 0.0, 20.0, 12.0, 2.0],
        "sigmoid": {"a": 12.08, "b": 0.11},
    },
]


@pytest.fixture
def env_file(tmp_path):
    """Environment config file with the three standard test environments."""
    path = tmp_path / "environments.json"
    write_json(path, ENVIRONMENTS)
    return path


def base_run_config(env_file_path, out_dir="out"):
    """A small, fast run config used by the CLI tests."""
    return {
        "environment_file": str(env_file_path),
        "environment": "urban",
        "plos_model": "sigmoid",
        "pl_model": "a2g_mean",
        "out_dir": out_dir,
        "rbf": {
            "m_hidden": 8,
            "tau_w": 0.2,
            "tau_mu": 0.05,
            "epochs": 40,
            "seed": 7,
            "update_mode": "derived_gradient",
        },
        "budget": {
            "tx_power_dbm": 30.0,
            "tx_gain_dbi": 0.0,
            "rx_gain_dbi": 0.0,
            "fading": {"kind": "off"},
            "seed": 7,
        },
        "scenario": {
            "kind": "distance_sweep",
            "h_m": 100.0,
            "f_mhz": 2000.0,
            "distances_m": {"start": 100.0, "stop": 2000.0, "count": 60},
            "rx_height_m": 1.5,
        },
        "train": {"train_fraction": 0.8, "split_seed": 13},
        "curves": {
            "rician_k": [0.0, 50.0, 100.0],
            "rician_k_db": False,
            "rician_r_max": 3.0,
            "rician_points": 121,
            "uav_height_m": 100.0,
            "theta_min_deg": 10.0,
        },
    }
