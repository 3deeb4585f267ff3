"""Benchmark workloads: seeded run configs and the CLI commands that use them.

Every workload is a closed loop with one client: the benchmark starts one
``python -m skylink.cli`` command, waits for it to exit, then starts the next.
The configs are written by the benchmark itself, so the inputs depend only on
the workload name and the seed.

On ``bulk`` and ``curves``, a command that takes well under a second and
is the only one behind its stage metric runs SHORT_REPEATS times in a row.
Its time is mostly process start-up, which varies by tens of percent from
one start to the next on a shared host, and one sample per repetition left
those metrics several times noisier than the rest. The repeats rewrite the
same artifacts, which must hash the same each time. ``example`` runs each
command once: its repetitions are long, and repeats would leave fewer of
them in a run for ``train``.

The seed picks the transmit power, 30 dBm +- 10 dB. That shifts every RSS
value, so the artifacts differ between seeds, while the amount of work and,
after min-max normalisation, the model accuracy (``rmse_db``) stay the same.
The network, shuffle, split and fading seeds stay at the shipped example's
values: varying them moves ``rmse_db`` by several percent between seeds,
which would hide the accuracy drift that metric is there to catch. Seed 0
reproduces ``configs/run.example.json`` exactly.

Why these workloads:

- ``example``: every command README lists, on the shipped example values.
  The paper-reproduction path; RBF training (160k SGD steps) dominates, and
  ``curves rss_altitude`` exits 2 on this config today, which is counted as
  a failed op rather than left out.
- ``bulk``: a 20 000-row Rician distance sweep that is generated, read back
  and scored row by row. Channel functions, fading draws, CSV/JSON I/O and
  predict dominate; training is small (8k steps). ``curves rician`` and
  ``curves plos_fit`` run at their small defaults, so every stage and every
  layer is timed here too and a gain on one use that costs another shows.
- ``curves``: the five curves on an altitude-waypoint config with a dense
  Rician grid (120k density evaluations). Density evaluation, the sigmoid
  fit, the scalar P_LoS functions, curve CSV writing and per-process start-up
  dominate. A small generate/train/predict/eval round on the same config
  times every stage here as well.
"""

from __future__ import annotations

import copy
import json
import os
from dataclasses import dataclass, field

DEFAULT_SEED = 0

ENV_NAMES = ("suburban", "urban", "dense-urban")

# Same values as configs/environments.example.json.
ENVIRONMENTS = [
    {
        "name": "suburban", "alpha": 0.1, "beta": 750.0, "gamma": 8.0,
        "eps_los_db": 0.1, "eps_nlos_db": 21.0,
        "c": [1.0, 0.0, 5.0, 12.0, 2.5], "sigmoid": {"a": 4.88, "b": 0.43},
    },
    {
        "name": "urban", "alpha": 0.3, "beta": 500.0, "gamma": 15.0,
        "eps_los_db": 1.0, "eps_nlos_db": 20.0,
        "c": [1.0, 0.0, 15.0, 12.0, 2.0], "sigmoid": {"a": 9.61, "b": 0.16},
    },
    {
        "name": "dense-urban", "alpha": 0.5, "beta": 300.0, "gamma": 20.0,
        "eps_los_db": 1.6, "eps_nlos_db": 23.0,
        "c": [1.0, 0.0, 20.0, 12.0, 2.0], "sigmoid": {"a": 12.08, "b": 0.11},
    },
]

# Same values as configs/run.example.json.
EXAMPLE_CONFIG = {
    "environment_file": "environments.example.json",
    "environment": "urban",
    "plos_model": "sigmoid",
    "pl_model": "a2g_mean",
    "out_dir": "out",
    "rbf": {
        "m_hidden": 20, "tau_w": 0.2, "tau_mu": 0.05, "epochs": 500,
        "seed": 7, "update_mode": "derived_gradient",
    },
    "budget": {
        "tx_power_dbm": 30.0, "tx_gain_dbi": 0.0, "rx_gain_dbi": 0.0,
        "fading": {"kind": "off"}, "seed": 7,
    },
    "scenario": {
        "kind": "distance_sweep", "h_m": 100.0, "f_mhz": 2000.0,
        "distances_m": {"start": 100.0, "stop": 2000.0, "count": 200},
        "rx_height_m": 1.5,
    },
    "train": {"train_fraction": 0.8, "split_seed": 13},
    "curves": {
        "rician_k": [0.0, 50.0, 100.0], "rician_k_db": False,
        "rician_r_max": 3.0, "rician_points": 301,
        "uav_height_m": 100.0, "theta_min_deg": 10.0,
    },
}

WORKLOADS = ("example", "bulk", "curves")

# Rows of the default distance sweep that `curves rss_distance` falls back to
# when the config's scenario is not a distance sweep.
DEFAULT_SWEEP_ROWS = 200
# Waypoints `curves rss_altitude` falls back to for a distance-sweep config.
DEFAULT_WAYPOINTS = 10


@dataclass
class Op:
    """One CLI command of a workload and what it must produce.

    ``artifacts`` maps a path (relative to the workload directory) to its
    kind and expected number of data rows. ``work`` is the stage's unit
    count: rows written for generate, SGD steps for train, rows scored for
    predict and eval.
    """

    name: str
    stage: str
    argv: list[str]
    artifacts: dict[str, tuple[str, int]] = field(default_factory=dict)
    work: int = 0
    stdout_rows: int | None = None


def _seeded(config: dict, seed: int) -> dict:
    cfg = copy.deepcopy(config)
    cfg["budget"]["tx_power_dbm"] = 30.0 + float((seed + 10) % 21 - 10)
    return cfg


def _write_json(path: str, data) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def _n_train(rows: int, cfg: dict) -> int:
    return int(rows * cfg["train"]["train_fraction"])


def _rows(cfg: dict) -> int:
    scenario = cfg["scenario"]
    if scenario["kind"] == "distance_sweep":
        return int(scenario["distances_m"]["count"])
    return len(scenario["altitudes_m"])


def _generate(config: str, cfg: dict, out: str) -> Op:
    rows = _rows(cfg)
    return Op(
        name=f"generate {out}", stage="generate",
        argv=["generate", "--config", config, "--out", out],
        artifacts={
            f"{out}/dataset.csv": ("dataset", rows),
            f"{out}/dataset.json": ("sidecar", rows),
        },
        work=rows,
    )


def _train(config: str, cfg: dict, dataset: str, out: str) -> Op:
    epochs = int(cfg["rbf"]["epochs"])
    return Op(
        name="train", stage="train",
        argv=["train", "--config", config, dataset, "--out", out],
        artifacts={
            f"{out}/model.json": ("model", int(cfg["rbf"]["m_hidden"])),
            f"{out}/training_report.csv": ("curve", epochs),
        },
        work=_n_train(_rows(cfg), cfg) * epochs,
    )


def _score(model: str, dataset: str, rows: int) -> list[Op]:
    return [
        Op(name="predict", stage="predict",
           argv=["predict", model, "--input", dataset],
           work=rows, stdout_rows=rows),
        Op(name="eval", stage="eval", argv=["eval", model, dataset], work=rows),
    ]


def _curves(config: str, cfg: dict, out: str, which: tuple[str, ...]) -> list[Op]:
    curves = cfg["curves"]
    theta_min = int(float(curves["theta_min_deg"]))
    sweep = cfg["scenario"]["kind"] == "distance_sweep"
    expected = {
        "rician": {"rician.csv": int(curves["rician_points"])},
        "plos_angle": {f"plos_angle_{e}.csv": 91 for e in ENV_NAMES},
        "plos_fit": {f"plos_fit_{e}.csv": 91 - theta_min for e in ENV_NAMES},
        "rss_distance": {
            "rss_distance.csv": _rows(cfg) if sweep else DEFAULT_SWEEP_ROWS
        },
        "rss_altitude": {
            "rss_altitude.csv": DEFAULT_WAYPOINTS if sweep else _rows(cfg)
        },
    }
    return [
        Op(
            name=f"curves {w}", stage="curves",
            argv=["curves", w, "--config", config, "--out", out],
            artifacts={
                f"{out}/{path}": ("curve", rows)
                for path, rows in expected[w].items()
            },
        )
        for w in which
    ]


ALL_CURVES = ("rician", "plos_angle", "plos_fit", "rss_distance", "rss_altitude")

SHORT_REPEATS = 3


def _repeated(*ops: Op) -> list[Op]:
    return [op for op in ops for _ in range(SHORT_REPEATS)]


def example_config(seed: int, tiny: bool = False) -> dict:
    cfg = _seeded(EXAMPLE_CONFIG, seed)
    if tiny:
        cfg["scenario"]["distances_m"]["count"] = 40
        cfg["rbf"]["epochs"] = 5
    return cfg


def bulk_configs(seed: int, tiny: bool = False) -> tuple[dict, dict]:
    """The 20 000-row sweep to score and the 250-row set to train on."""
    cfg = _seeded(EXAMPLE_CONFIG, seed)
    cfg["environment"] = "dense-urban"
    cfg["plos_model"] = "product"
    cfg["budget"]["fading"] = {"kind": "rician", "s": 1.0, "delta": 0.3}
    cfg["rbf"]["epochs"] = 3 if tiny else 40
    cfg["scenario"]["distances_m"] = {
        "start": 50.0, "stop": 5000.0, "count": 300 if tiny else 20000
    }
    small = copy.deepcopy(cfg)
    small["scenario"]["distances_m"]["count"] = 60 if tiny else 250
    return cfg, small


def curves_config(seed: int, tiny: bool = False) -> dict:
    cfg = _seeded(EXAMPLE_CONFIG, seed)
    waypoints = 30 if tiny else 100
    step = 990.0 / (waypoints - 1)
    cfg["scenario"] = {
        "kind": "altitude_waypoints", "f_mhz": 2000.0, "rx_height_m": 1.5,
        "altitudes_m": [10.0 + i * step for i in range(waypoints)],
    }
    cfg["rbf"]["epochs"] = 3 if tiny else 50
    cfg["curves"] = {
        "rician_k": [0.0, 1.0, 3.0, 10.0, 30.0, 100.0], "rician_k_db": False,
        "rician_r_max": 3.0, "rician_points": 201 if tiny else 20001,
        "uav_height_m": 300.0, "theta_min_deg": 1.0,
    }
    return cfg


def build(workload: str, seed: int, workdir: str, tiny: bool = False) -> list[Op]:
    """Write the workload's configs into ``workdir`` and return its ops.

    Paths in the ops are relative to ``workdir``, which is the commands'
    working directory.
    """
    os.makedirs(workdir, exist_ok=True)
    _write_json(os.path.join(workdir, "environments.example.json"), ENVIRONMENTS)
    if workload == "example":
        cfg = example_config(seed, tiny)
        _write_json(os.path.join(workdir, "run.json"), cfg)
        rows = _rows(cfg)
        return [
            _generate("run.json", cfg, "out"),
            _train("run.json", cfg, "out/dataset.csv", "out"),
            *_score("out/model.json", "out/dataset.csv", rows),
            *_curves("run.json", cfg, "out", ALL_CURVES),
        ]
    if workload == "bulk":
        big, small = bulk_configs(seed, tiny)
        _write_json(os.path.join(workdir, "big.json"), big)
        _write_json(os.path.join(workdir, "small.json"), small)
        return [
            _generate("big.json", big, "big"),
            _generate("small.json", small, "small"),
            *_repeated(_train("small.json", small, "small/dataset.csv", "small")),
            *_score("small/model.json", "big/dataset.csv", _rows(big)),
            *_curves("small.json", small, "small", ("rician", "plos_fit")),
        ]
    if workload == "curves":
        cfg = curves_config(seed, tiny)
        _write_json(os.path.join(workdir, "run.json"), cfg)
        return [
            *_curves("run.json", cfg, "out", ALL_CURVES),
            *_repeated(
                _generate("run.json", cfg, "out"),
                _train("run.json", cfg, "out/dataset.csv", "out"),
                *_score("out/model.json", "out/dataset.csv", _rows(cfg)),
            ),
        ]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
