"""Command-line harness: generate, train, predict, eval, curves.

Every command is driven by a JSON run config and is deterministic given
that config (seeds included); reruns produce byte-identical artifacts.
Exit codes: 0 success, 1 runtime/numeric failure, 2 usage or validation
failure. The SKYLINK_LOG environment variable (error, warn, info, debug)
sets the log level.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import logging
import os
import re
import sys

import numpy as np

from . import __version__
from . import channel_models as cm
from . import datagen
from . import fading
from . import rbf_net
from .errors import (
    ConfigurationError,
    DomainError,
    FitError,
    SchemaError,
    SkylinkError,
    as_number,
    as_numbers,
    parse_json,
    require,
)

logger = logging.getLogger(__name__)

LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}

FEATURE_HEADER = datagen.CSV_HEADER[2:6]

_MISSING = object()


def _setup_logging() -> None:
    raw = os.environ.get("SKYLINK_LOG", "warn").lower()
    if raw not in LOG_LEVELS:
        logging.basicConfig(level=logging.WARNING)
        logger.warning("unknown SKYLINK_LOG value %r; using warn", raw)
        return
    logging.basicConfig(level=LOG_LEVELS[raw])


class RunConfig:
    """Parsed run config with path/line-aware error reporting.

    A seed is written to budget.seed, rbf.seed and train.split_seed before
    any reader or the digest sees the data; a block that is no object is
    left to its reader.
    """

    def __init__(self, path: str, seed: int | None = None):
        self.path = path
        with open(path, encoding="utf-8") as fh:
            self.text = fh.read()
        self.data = parse_json(self.text, path)
        if not isinstance(self.data, dict):
            raise SchemaError(f"{path}: run config must be a JSON object")
        if seed is not None:
            require(ConfigurationError, {"--seed": "int and >= 0"}, {"--seed": seed})
            for block in ("budget", "rbf", "train"):
                node = self.data.setdefault(block, {})
                if isinstance(node, dict):
                    node["split_seed" if block == "train" else "seed"] = seed

    def where(self, dotted: str) -> str:
        """path:line of the key ``dotted``, or of its deepest parent present.

        Walks the objects along the path member by member and skips each
        value whole, so a same-named key elsewhere never matches.
        """
        text, line = self.text, None
        decode = json.JSONDecoder().raw_decode
        skip = re.compile(r"[\s,:]*").match  # the text is valid JSON
        pos = skip(text).end()
        for part in dotted.split("."):
            if not text.startswith("{", pos):
                break
            pos = skip(text, pos + 1).end()
            while text.startswith('"', pos):
                key, end = decode(text, pos)
                if key == part:
                    line = text.count("\n", 0, pos) + 1
                    break
                pos = skip(text, decode(text, skip(text, end).end())[1]).end()
            else:
                break
            pos = skip(text, end).end()
        return f"{self.path}:{line}" if line else self.path

    def get(self, dotted: str, default=_MISSING):
        """Value at ``dotted``; a block on the path that is no object fails."""
        node, parts = self.data, dotted.split(".")
        for i, part in enumerate(parts):
            if not isinstance(node, dict):  # the root is checked on load
                block = ".".join(parts[:i])
                raise self.fail(block, f"malformed value: {node!r} is not an object")
            if part not in node:
                if default is not _MISSING:
                    return default
                raise ConfigurationError(
                    f"{self.path}: missing required config key {dotted!r}"
                )
            node = node[part]
        return node

    def fail(self, dotted: str, message: str) -> ConfigurationError:
        return ConfigurationError(f"{self.where(dotted)}: {dotted}: {message}")

    @contextlib.contextmanager
    def reading(self, dotted: str):
        """Report a bad value under ``dotted``; errors located in this file pass."""
        try:
            yield
        except (
            ArithmeticError, AttributeError, KeyError, TypeError, ValueError
        ) as exc:
            if str(exc).startswith(f"{self.path}:"):  # located by fail() or get()
                raise
            raise self.fail(dotted, f"malformed value: {exc}") from exc

    def sha256(self) -> str:
        canonical = json.dumps(
            self.data, sort_keys=True, separators=(",", ":")
        ).encode()
        return hashlib.sha256(canonical).hexdigest()[:12]


def _fmt(value: float) -> str:
    return repr(float(value))


def _load_environments(cfg: RunConfig) -> dict[str, cm.Environment]:
    with cfg.reading("environment_file"):  # relative to the config's directory
        env_file = os.path.join(
            os.path.dirname(os.path.abspath(cfg.path)), cfg.get("environment_file")
        )
    if not os.path.exists(env_file):
        raise ConfigurationError(
            f"{cfg.where('environment_file')}: environment file "
            f"{env_file!r} does not exist"
        )
    return cm.load_environments(env_file)


def _scenario_dataset(cfg: RunConfig, kind: str | None = None) -> datagen.Dataset:
    """The config's scenario, as its own kind or as ``kind`` from the same block."""
    envs = _load_environments(cfg)
    name = cfg.get("environment")
    if not isinstance(name, str) or name not in envs:
        raise cfg.fail("environment", f"{name!r} not defined (file has {sorted(envs)})")
    with cfg.reading("budget"):
        budget = datagen.budget_from_dict(cfg.get("budget", {}))
    with cfg.reading("scenario"):
        block = cfg.get("scenario", {})
        generate, args = datagen.scenario_layout(kind or block.get("kind"), block)
    return generate(
        envs[name], budget=budget, pl_model=cfg.get("pl_model", "a2g_mean"),
        plos_model=cfg.get("plos_model", "sigmoid"), **args,
    )


def _config_and_out(args) -> tuple[RunConfig, str]:
    """The run config of --config and --seed, and the output directory, made."""
    cfg = RunConfig(args.config, args.seed)
    out = cfg.get("out_dir", "out") if args.out is None else args.out
    out = "out" if out is None else out
    with cfg.reading("out_dir"):
        os.makedirs(out, exist_ok=True)
    return cfg, out


def cmd_generate(args) -> int:
    cfg, out = _config_and_out(args)
    dataset = _scenario_dataset(cfg)
    csv_path = os.path.join(out, "dataset.csv")
    sidecar = datagen.write_dataset(dataset, csv_path)
    print(f"wrote {len(dataset.samples)} rows to {csv_path}")
    print(f"wrote metadata to {sidecar}")
    return 0


def _train_model(
    cfg: RunConfig, dataset: datagen.Dataset
) -> tuple[rbf_net.RbfNetwork, rbf_net.RbfConfig, rbf_net.TrainReport]:
    with cfg.reading("rbf"):
        rbf_cfg = rbf_net.RbfConfig(**cfg.get("rbf", {}))
    with cfg.reading("train"):  # split's rules check the fraction and the seed
        train_ds, test_ds = datagen.split(
            dataset, as_number(cfg.get("train.train_fraction", 0.8)),
            cfg.get("train.split_seed", 13),
        )
    x_train, y_train = datagen.features_targets(train_ds)
    x_test, y_test = datagen.features_targets(test_ds)
    net = rbf_net.init_network(rbf_cfg, x_train)
    net, report = rbf_net.train(
        net, x_train, y_train, rbf_cfg, validation=(x_test, y_test)
    )
    return net, rbf_cfg, report


def cmd_train(args) -> int:
    cfg, out = _config_and_out(args)
    dataset = datagen.read_dataset(args.dataset)
    net, rbf_cfg, report = _train_model(cfg, dataset)
    model_path = os.path.join(out, "model.json")
    rbf_net.save_model(model_path, net, rbf_cfg)
    rmse = [
        f"train_rmse_db={_fmt(report.final_train_rmse_db)}",
        f"val_rmse_db={_fmt(report.final_val_rmse_db)}",
    ]
    report_path = _write_curve(
        cfg, out, "training_report", [f"final_{line}" for line in rmse],
        ["epoch", "mse"], [[e, m] for e, m in enumerate(report.mse_per_epoch)],
    )
    print(f"wrote model to {model_path}")
    print(f"wrote report to {report_path}")
    print(*rmse, sep="\n")
    mse = report.mse_per_epoch
    if rbf_cfg.update_mode == "paper_literal" and mse[-1] >= mse[0]:
        print(
            "warning: paper_literal updates did not reduce the training MSE "
            f"({_fmt(mse[0])} -> {_fmt(mse[-1])}); this update rule ascends "
            "the squared-error objective",
            file=sys.stderr,
        )
    return 0


def _predict_features(args) -> np.ndarray:
    if args.row is not None:
        try:
            values = [float(v) for v in args.row.split(",")]
        except ValueError as exc:
            raise DomainError(f"--row must be comma-separated numbers: {exc}")
        return np.array([values], dtype=float)
    with open(args.input, encoding="utf-8", newline="") as fh:
        first = fh.readline().strip()
    if first == ",".join(FEATURE_HEADER):
        _, _, rows = datagen.read_curve_csv(args.input)
        if not rows:
            raise SchemaError(f"{args.input}: no data rows")
        return np.array(rows, dtype=float)
    if first == ",".join(datagen.CSV_HEADER):
        x, _ = datagen.features_targets(datagen.read_dataset(args.input))
        return x
    raise SchemaError(
        f"{args.input}:1: header must be either the dataset schema or "
        f"{','.join(FEATURE_HEADER)!r}"
    )


def cmd_predict(args) -> int:
    net, _ = rbf_net.load_model(args.model)
    features = _predict_features(args)
    values = net.predict(features)
    outside = np.any(
        (features < net.norm.x_min) | (features > net.norm.x_max), axis=1
    )
    if np.any(outside):
        logger.warning(
            "%d of %d input rows fall outside the model's training feature "
            "range; extrapolating",
            int(outside.sum()), features.shape[0],
        )
    for value in values[:, 0]:
        print(_fmt(float(value)))
    return 0


def cmd_eval(args) -> int:
    net, _ = rbf_net.load_model(args.model)
    dataset = datagen.read_dataset(args.dataset)
    x, y = datagen.features_targets(dataset)
    if x.shape[1] != net.input_dim or y.shape[1] != net.output_dim:
        raise DomainError(
            f"model dimensions ({net.input_dim} features, {net.output_dim} "
            f"outputs) do not match the dataset"
        )
    err = net.predict(x).reshape(y.shape) - y
    print(f"rmse_db={_fmt(float(np.sqrt(np.mean(err ** 2))))}")
    print(f"mae_db={_fmt(float(np.mean(np.abs(err))))}")
    print(f"max_abs_error_db={_fmt(float(np.max(np.abs(err))))}")
    return 0


def _write_curve(cfg: RunConfig, out: str, stem: str, notes, header, rows) -> str:
    """Write out/<stem>.csv, provenance line first, stem made file-safe; its path."""
    path = os.path.join(out, re.sub(r"[^A-Za-z0-9._-]", "_", stem) + ".csv")
    comments = [f"skylink {__version__} config_sha256={cfg.sha256()}", *notes]
    datagen.write_curve_csv(path, comments, header, rows)
    return path


def _curve_rician(cfg: RunConfig, args):
    with cfg.reading("curves"):
        k_list = as_numbers("rician_k", cfg.get("curves.rician_k", [0.0, 50.0, 100.0]))
        in_db = cfg.get("curves.rician_k_db", False)
        rician_r_max = as_number(cfg.get("curves.rician_r_max", 3.0))
        rician_points = cfg.get("curves.rician_points", 301)
        rules = {"rician_r_max": "finite and > 0", "rician_points": "int"}
        require(ConfigurationError, rules, locals())
    if not isinstance(in_db, bool):
        raise cfg.fail("curves", f"rician_k_db must be true or false, got {in_db!r}")
    if rician_points < 2:
        raise cfg.fail("curves", f"rician_points must be >= 2, got {rician_points}")
    grid = np.linspace(0.0, rician_r_max, rician_points)
    unit = "dB" if in_db else ""
    columns = []
    labels = []
    for k in k_list:
        k_lin = 10.0 ** (k / 10.0) if in_db else k
        params = fading.params_from_k(k_lin)
        labels.append(f"K={k:g}{unit}" + (" (Rayleigh)" if k_lin == 0.0 else ""))
        columns.append([fading.rician_pdf(params, float(r)) for r in grid])
    header = ["r"] + [f"pdf_K{k:g}{unit}" for k in k_list]
    rows = [[float(r)] + [col[i] for col in columns] for i, r in enumerate(grid)]
    notes = [
        "amplitude density, unit mean power per series",
        "series: " + ", ".join(labels),
    ]
    yield "rician", notes, header, rows


def _plos_setting(cfg: RunConfig):
    """Environments, UAV and receiver heights of the P_LoS curves, and a note."""
    envs = _load_environments(cfg)
    with cfg.reading("curves"):
        h = as_number(cfg.get("curves.uav_height_m", 100.0))
        rx = as_number(cfg.get("curves.rx_height_m", datagen.DEFAULT_RX_HEIGHT_M))
        rules = {"uav_height_m": "finite and > 0", "rx_height_m": "finite"}
        require(ConfigurationError, rules, {"uav_height_m": h, "rx_height_m": rx})
    return envs, h, rx, f"uav_height_m={_fmt(h)} rx_height_m={_fmt(rx)}"


def _curve_plos_angle(cfg: RunConfig, args):
    envs, h, rx, heights = _plos_setting(cfg)
    thetas = [float(t) for t in range(0, 91)]
    for env in envs.values():
        names = ["product"] + [  # the angle models need their parameters
            n for n, p in (("holis", env.c), ("sigmoid", env.sigmoid)) if p is not None
        ]
        models = [cm.PLOS[n] for n in names]
        rows = []
        for theta in thetas:
            # The angle models take theta itself: theta -> r -> theta would
            # not round-trip bit for bit.
            r = cm.ground_distance_for_angle(h, theta)
            rows.append([theta] + [plos(env, theta, h, r, rx) for plos in models])
        notes = [f"environment={env.name} {heights}"]
        header = ["theta_deg"] + [f"plos_{n}" for n in names]
        yield f"plos_angle_{env.name}", notes, header, rows


def _curve_plos_fit(cfg: RunConfig, args):
    envs, h, rx, heights = _plos_setting(cfg)
    with cfg.reading("curves"):
        theta_min_deg = as_number(cfg.get("curves.theta_min_deg", 10.0))
        require(ConfigurationError, {"theta_min_deg": "in [0, 90]"}, locals())
    thetas = [float(t) for t in range(int(theta_min_deg), 91)]  # whole degrees
    for env in envs.values():
        produced = [
            cm.plos_product(env, h, rx, cm.ground_distance_for_angle(h, t))
            for t in thetas
        ]
        fit_samples = [(t, p) for t, p in zip(thetas, produced) if 0.0 < p < 1.0]
        try:
            a, b = cm.fit_sigmoid(fit_samples)
        except FitError as exc:
            raise FitError(f"environment {env.name!r}: {exc}") from exc
        fit_env = dataclasses.replace(env, sigmoid=(a, b))
        fitted = [cm.plos_sigmoid(fit_env, t) for t in thetas]
        rmse = float(np.sqrt(np.mean((np.array(fitted) - np.array(produced)) ** 2)))
        rows = [[t, p, f] for t, p, f in zip(thetas, produced, fitted)]
        notes = [
            f"environment={env.name} {heights}",
            f"fitted a={_fmt(a)} b={_fmt(b)} rmse={_fmt(rmse)}",
        ]
        header = ["theta_deg", "plos_product", "plos_sigmoid_fit"]
        yield f"plos_fit_{env.name}", notes, header, rows


_RSS_KINDS = {  # curve -> (scenario kind, feature column along the x axis)
    "rss_distance": ("distance_sweep", 0), "rss_altitude": ("altitude_waypoints", 1),
}


def _curve_rss(cfg: RunConfig, args):
    kind, axis = _RSS_KINDS[args.which]
    dataset = _scenario_dataset(cfg, kind)
    net, _, report = _train_model(cfg, dataset)
    x, y = datagen.features_targets(dataset)
    predicted = net.predict(x).reshape(-1)
    header = [FEATURE_HEADER[axis], "rss_empirical_dbm", "rss_predicted_dbm"]
    rows = [
        [float(x[i, axis]), float(y[i, 0]), float(predicted[i])]
        for i in range(x.shape[0])
    ]
    notes = [
        f"environment={dataset.metadata['environment']['name']} scenario={kind}",
        f"val_rmse_db={_fmt(report.final_val_rmse_db)}",
    ]
    yield args.which, notes, header, rows


# curve name -> generator(cfg, args) of (file stem, notes, header, rows) per file
CURVES = {
    "rician": _curve_rician,
    "plos_angle": _curve_plos_angle,
    "plos_fit": _curve_plos_fit,
    "rss_distance": _curve_rss,
    "rss_altitude": _curve_rss,
}


def cmd_curves(args) -> int:
    cfg, out = _config_and_out(args)
    for curve in CURVES[args.which](cfg, args):
        print(f"wrote {_write_curve(cfg, out, *curve)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    config = argparse.ArgumentParser(add_help=False)  # of the commands reading one
    config.add_argument("--config", required=True, help="JSON run config path")
    config.add_argument("--out", help="output directory (overrides config)")
    config.add_argument("--seed", type=int, help="override every seed in the config")

    parser = argparse.ArgumentParser(
        prog="skylink",
        description="UAV-to-ground channel toolkit: datasets, RBF training, curves",
    )
    parser.add_argument(
        "--version", action="version", version=f"skylink {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", parents=[config], help="generate a dataset")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", parents=[config], help="train an RBF model")
    p.add_argument("dataset", help="dataset CSV path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict RSS rows")
    p.add_argument("model", help="model JSON path")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--row", help="comma-separated D,H,F,P feature row")
    group.add_argument("--input", help="CSV of feature rows or a dataset CSV")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="evaluate a model")
    p.add_argument("model", help="model JSON path")
    p.add_argument("dataset", help="dataset CSV path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("curves", parents=[config], help="emit figure curves")
    p.add_argument("which", choices=list(CURVES))
    p.set_defaults(func=cmd_curves)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _setup_logging()
    try:
        return args.func(args)
    except (
        SchemaError, ConfigurationError, DomainError, FileNotFoundError,
        UnicodeDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SkylinkError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
