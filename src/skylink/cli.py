"""Command-line harness: generate, train, predict, eval, curves.

Every command is driven by a JSON run config and is deterministic given
that config (seeds included); reruns produce byte-identical artifacts.
Exit codes: 0 success, 1 runtime/numeric failure, 2 usage or validation
failure. The SKYLINK_LOG environment variable (error, warn, info, debug)
sets the level of log records and of Python warnings.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import math
import os
import re
import sys

from . import __version__
from .errors import (
    ConfigurationError,
    DomainError,
    FitError,
    SchemaError,
    SkylinkError,
    as_numbers,
    open_utf8,
    parse_json,
    require,
)

logger = logging.getLogger("skylink.cli")  # also under python -m

LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}

_MISSING = object()

# The keys of a run config and of its train and curves blocks; the others
# take theirs from datagen and rbf_net.
TOP_KEYS = (
    "environment_file", "environment", "plos_model", "pl_model", "out_dir",
    "rbf", "budget", "scenario", "train", "curves",
)
TRAIN_KEYS = ("train_fraction", "split_seed")
CURVE_KEYS = (
    "rician_k", "rician_k_db", "rician_r_max", "rician_points", "uav_height_m",
    "rx_height_m", "theta_min_deg",
)


def _setup_logging() -> None:
    raw = os.environ.get("SKYLINK_LOG", "warn").lower()
    logging.basicConfig(level=LOG_LEVELS.get(raw, logging.WARNING))
    logging.captureWarnings(True)  # warnings.warn obeys the level too
    if raw not in LOG_LEVELS:
        logger.warning("unknown SKYLINK_LOG value %r; using warn", raw)


class RunConfig:
    """Parsed run config with path/line-aware error reporting.

    Readers get top-level values and whole blocks. A seed is written to
    budget.seed, rbf.seed and train.split_seed before any reader or the
    digest sees the data; a block that is no object is left to its reader.
    """

    def __init__(self, path: str, seed: int | None = None):
        self.path = path
        with open_utf8(path) as fh:
            self.text = fh.read()
        self.data = parse_json(self.text, path)
        if not isinstance(self.data, dict):
            raise SchemaError(f"{path}: run config must be a JSON object")
        unknown = sorted(self.data.keys() - set(TOP_KEYS))
        if unknown:
            where = self.where(unknown[0])
            raise ConfigurationError(f"{where}: unknown keys {unknown}")
        if seed is not None:
            require(ConfigurationError, {"--seed": "int and >= 0"}, {"--seed": seed})
            for block in ("budget", "rbf", "train"):
                node = self.data.setdefault(block, {})
                if isinstance(node, dict):
                    node["split_seed" if block == "train" else "seed"] = seed

    def where(self, key: str) -> str:
        """path:line of the top-level ``key``, or the bare path if it is absent.

        Walks the root object member by member and skips each value whole,
        so a same-named key inside a block never matches.
        """
        text = self.text
        decode = json.JSONDecoder().raw_decode
        skip = re.compile(r"[\s,:]*").match  # the text is valid JSON
        pos = skip(text, skip(text).end() + 1).end()  # past the root's "{"
        while text.startswith('"', pos):
            name, end = decode(text, pos)
            if name == key:
                line = text.count("\n", 0, pos) + 1
                return f"{self.path}:{line}"
            pos = skip(text, decode(text, skip(text, end).end())[1]).end()
        return self.path

    def get(self, key: str, default=_MISSING):
        """Top-level value of ``key``; a missing key without a default fails."""
        if key in self.data or default is not _MISSING:
            return self.data.get(key, default)
        raise ConfigurationError(f"{self.path}: missing required config key {key!r}")

    def block(self, key: str, keys=None) -> dict:
        """The object under ``key``, {} if absent; a value that is no object,
        or a member outside ``keys`` (when given), fails."""
        node = self.get(key, {})
        if not isinstance(node, dict):
            raise self.fail(key, f"malformed value: {node!r} is not an object")
        unknown = sorted(set(node) - set(keys)) if keys is not None else []
        if unknown:
            raise self.fail(key, f"malformed value: unknown keys {unknown}")
        return node

    def fail(self, key: str, message: str) -> ConfigurationError:
        return ConfigurationError(f"{self.where(key)}: {key}: {message}")

    @contextlib.contextmanager
    def reading(self, key: str):
        """Report a bad value under ``key``; errors located in this file pass."""
        try:
            yield
        except (
            ArithmeticError, AttributeError, KeyError, TypeError, ValueError
        ) as exc:
            if str(exc).startswith(f"{self.path}:"):  # located by fail() or get()
                raise
            raise self.fail(key, f"malformed value: {exc}") from exc

    def sha256(self) -> str:
        import hashlib

        canonical = json.dumps(
            self.data, sort_keys=True, separators=(",", ":")
        ).encode()
        return hashlib.sha256(canonical).hexdigest()[:12]


def _fmt(value: float) -> str:
    return repr(float(value))


def _rmse_line(name: str, rmse: float) -> str:
    """The line name=rmse; an RMSE past the float range is a DomainError."""
    if not math.isfinite(rmse):
        raise DomainError(f"{name} is {rmse}: the errors leave the float range")
    return f"{name}={_fmt(rmse)}"


def _load_environments(cfg: RunConfig) -> dict[str, cm.Environment]:
    from . import channel_models as cm

    env_file = cfg.get("environment_file")  # relative to the config's directory
    if not isinstance(env_file, str):
        raise cfg.fail("environment_file", f"must be a string, got {env_file!r}")
    env_file = os.path.join(os.path.dirname(os.path.abspath(cfg.path)), env_file)
    if not os.path.exists(env_file):
        raise ConfigurationError(
            f"{cfg.where('environment_file')}: environment file "
            f"{env_file!r} does not exist"
        )
    return cm.load_environments(env_file)


def _scenario_columns(cfg: RunConfig, kind: str | None = None) -> tuple[dict, tuple]:
    """datagen._columns of the config's scenario, as its own kind or as ``kind``
    from the same block; a row's fault names the budget block if its RSS is
    not finite, and the scenario block otherwise."""
    from . import channel_models as cm, datagen

    envs = _load_environments(cfg)
    name = cfg.get("environment")
    if not isinstance(name, str) or name not in envs:
        raise cfg.fail("environment", f"{name!r} not defined (file has {sorted(envs)})")
    with cfg.reading("budget"):  # budget_from_dict rejects unknown keys
        budget = datagen.budget_from_dict(cfg.block("budget"))
    with cfg.reading("scenario"):
        block = cfg.block("scenario", datagen.SCENARIO_KEYS)
        kind = kind or block.get("kind")
        args = datagen.scenario_layout(kind, block)[1]
    models = {"pl_model": cfg.get("pl_model", "a2g_mean")}
    models["plos_model"] = cfg.get("plos_model", "sigmoid")
    for key, model in models.items():
        try:
            cm._check_model(key, model)
        except ConfigurationError as exc:
            raise cfg.fail(key, str(exc)) from None
    try:
        return datagen._columns(kind, envs[name], budget=budget, **models, **args)
    except DomainError as exc:
        message = str(exc)
        if not message.startswith("row "):  # a config value's own fault
            raise
        key = "budget" if "rss_dbm" in message else "scenario"
        raise cfg.fail(key, message) from None


def _config_and_out(args) -> tuple[RunConfig, str]:
    """The run config of --config and --seed, and the output directory, made."""
    cfg = RunConfig(args.config, args.seed)
    out = cfg.get("out_dir", "out") if args.out is None else args.out
    out = "out" if out is None else out
    if not isinstance(out, str):
        raise cfg.fail("out_dir", f"must be a string, got {out!r}")
    with cfg.reading("out_dir"):
        os.makedirs(out, exist_ok=True)
    return cfg, out


def cmd_generate(args) -> int:
    from . import datagen

    cfg, out = _config_and_out(args)
    metadata, columns = _scenario_columns(cfg)
    csv_path = os.path.join(out, "dataset.csv")
    sidecar = datagen._write_columns(csv_path, metadata, columns)
    print(f"wrote {len(columns[0])} rows to {csv_path}")
    print(f"wrote metadata to {sidecar}")
    return 0


def _train_model(
    cfg: RunConfig, x: np.ndarray, y: np.ndarray, reuse: str | None = None
) -> tuple[rbf_net.RbfNetwork, rbf_net.RbfConfig, rbf_net.TrainReport, str]:
    """Fit the config's network on its split of the rows of ``(x, y)``: (net,
    config, report, fit digest). With ``reuse``, a model saved there with the
    same digest is loaded instead; its report holds only final_val_rmse_db."""
    import dataclasses

    from . import datagen, rbf_net

    with cfg.reading("rbf"):  # the arrays set the two widths
        widths = {"input_dim": x.shape[1], "output_dim": y.shape[1]}
        keys = {f.name for f in dataclasses.fields(rbf_net.RbfConfig)} - widths.keys()
        rbf_cfg = rbf_net.RbfConfig(**cfg.block("rbf", keys), **widths)
    with cfg.reading("train"):  # split_rows' rules check the fraction and the seed
        train = cfg.block("train", TRAIN_KEYS)
        train_rows, test_rows = datagen.split_rows(
            len(x), train.get("train_fraction", 0.8), train.get("split_seed", 13),
        )
    x_train, x_test = x[train_rows], x[test_rows]
    y_train, y_test = y[train_rows], y[test_rows]
    digest = rbf_net.fit_digest(rbf_cfg, x_train, y_train, x_test, y_test)
    try:  # a model missing there, malformed or fit otherwise: train afresh
        net = None if reuse is None else rbf_net.load_model(reuse, digest)[0]
    except (OSError, ValueError):
        net = None
    if net is not None:
        logger.info("reusing %s: its fit_digest matches", reuse)
        val_rmse = rbf_net._rmse(net.predict(x_test).reshape(y_test.shape) - y_test)
        return net, rbf_cfg, rbf_net.TrainReport(final_val_rmse_db=val_rmse), digest
    net = rbf_net.init_network(rbf_cfg, x_train)
    net, report = rbf_net.train(
        net, x_train, y_train, rbf_cfg, validation=(x_test, y_test)
    )
    return net, rbf_cfg, report, digest


def cmd_train(args) -> int:
    from . import datagen, rbf_net

    cfg, out = _config_and_out(args)
    x, y = datagen.read_dataset_arrays(args.dataset)
    net, rbf_cfg, report, digest = _train_model(cfg, x, y)
    rmse = [
        _rmse_line("train_rmse_db", report.final_train_rmse_db),
        _rmse_line("val_rmse_db", report.final_val_rmse_db),
    ]
    model_path = os.path.join(out, "model.json")
    rbf_net.save_model(model_path, net, rbf_cfg, digest)
    report_path = _write_curve(
        cfg, out, "training_report", [f"final_{line}" for line in rmse],
        ["epoch", "mse"], [[e, m] for e, m in enumerate(report.mse_per_epoch)],
    )
    print(f"wrote model to {model_path}")
    print(f"wrote report to {report_path}")
    print(*rmse, sep="\n")
    mse = report.mse_per_epoch
    if rbf_cfg.update_mode == "paper_literal" and mse[-1] >= mse[0]:
        logger.warning(
            "paper_literal updates did not reduce the training MSE (%s -> %s); "
            "this update rule ascends the squared-error objective",
            _fmt(mse[0]), _fmt(mse[-1]),
        )
    return 0


def _predict_features(args) -> np.ndarray:
    import numpy as np

    if args.row is not None:
        try:
            values = [float(v) for v in args.row.split(",")]
        except ValueError as exc:
            raise DomainError(f"--row must be comma-separated numbers: {exc}")
        return np.array([values], dtype=float)
    from . import datagen

    headers = datagen.CSV_HEADER[2:6], datagen.CSV_HEADER
    rows = datagen._csv_rows(args.input, lambda row: [float(v) for v in row], *headers)
    with contextlib.closing(rows):
        if next(rows)[1] == datagen.CSV_HEADER:  # (comments, header) come first
            return datagen.read_dataset_arrays(args.input)[0]
        features = list(rows)
    if not features:
        raise SchemaError(f"{args.input}: no data rows")
    return np.array(features, dtype=float)


def cmd_predict(args) -> int:
    import numpy as np

    from . import rbf_net

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
    sys.stdout.write("".join(f"{value!r}\n" for value in values[:, 0].tolist()))
    return 0


def cmd_eval(args) -> int:
    import numpy as np

    from . import datagen, rbf_net

    net, _ = rbf_net.load_model(args.model)
    x, y = datagen.read_dataset_arrays(args.dataset)
    if x.shape[1] != net.input_dim or y.shape[1] != net.output_dim:
        raise DomainError(
            f"model dimensions ({net.input_dim} features, {net.output_dim} "
            f"outputs) do not match the dataset"
        )
    err = net.predict(x).reshape(y.shape) - y
    print(_rmse_line("rmse_db", rbf_net._rmse(err)))  # finite: so are the other two
    print(f"mae_db={_fmt(float(np.mean(np.abs(err))))}")
    print(f"max_abs_error_db={_fmt(float(np.max(np.abs(err))))}")
    return 0


def _write_curve(cfg: RunConfig, out: str, stem: str, notes, header, rows) -> str:
    """Write out/<stem>.csv, provenance line first, stem made file-safe; its path."""
    from . import datagen

    path = os.path.join(out, re.sub(r"[^A-Za-z0-9._-]", "_", stem) + ".csv")
    comments = [f"skylink {__version__} config_sha256={cfg.sha256()}", *notes]
    datagen.write_curve_csv(path, comments, header, rows)
    return path


def _curve_rician(cfg: RunConfig, args, out: str):
    import numpy as np

    from . import fading

    with cfg.reading("curves"):
        curves = cfg.block("curves", CURVE_KEYS)
        k_list = as_numbers("rician_k", curves.get("rician_k", [0.0, 50.0, 100.0]))
        in_db = curves.get("rician_k_db", False)
        rician_r_max = curves.get("rician_r_max", 3.0)
        rician_points = curves.get("rician_points", 301)
        rules = {"rician_r_max": "finite and > 0", "rician_points": "int"}
        checked = require(ConfigurationError, rules, locals())
        rician_r_max, rician_points = checked.values()
        if not isinstance(in_db, bool):
            raise cfg.fail(
                "curves", f"rician_k_db must be true or false, got {in_db!r}"
            )
    if rician_points < 2:
        raise cfg.fail("curves", f"rician_points must be >= 2, got {rician_points}")
    try:
        grid = np.linspace(0.0, rician_r_max, rician_points)
    except (IndexError, MemoryError, ValueError):  # a size past memory or an index
        raise MemoryError(f"cannot allocate a grid of {rician_points} points") from None
    unit = "dB" if in_db else ""
    labels, columns = [], []
    for i, k in enumerate(k_list):
        with cfg.reading("curves"):
            try:
                k_linear = 10.0 ** (k / 10.0) if in_db else k
            except OverflowError:
                raise DomainError(
                    f"rician_k[{i}] must keep K in float range, got {k!r}"
                ) from None
            kparams = fading.params_from_k(k_linear)  # names a negative K
            columns.append(fading.rician_pdf(kparams, grid))
        labels.append(f"K={k:g}{unit}" + (" (Rayleigh)" if kparams.s == 0.0 else ""))
    header = ["r"] + [f"pdf_K{k:g}{unit}" for k in k_list]
    rows = np.column_stack([grid, *columns])
    notes = [
        "amplitude density, unit mean power per series",
        "series: " + ", ".join(labels),
    ]
    yield "rician", notes, header, rows


def _plos_setting(cfg: RunConfig):
    """Environments, UAV and receiver heights of the P_LoS curves, and a note."""
    from . import datagen

    envs = _load_environments(cfg)
    with cfg.reading("curves"):
        curves = cfg.block("curves", CURVE_KEYS)
        uav_height_m = curves.get("uav_height_m", 100.0)
        rx_height_m = curves.get("rx_height_m", datagen.DEFAULT_RX_HEIGHT_M)
        rules = {"uav_height_m": "finite and > 0", "rx_height_m": "finite"}
        h, rx = require(ConfigurationError, rules, locals()).values()
    if not 0.0 <= rx < h:
        rule = f"need 0 <= rx_height_m < uav_height_m, got {rx!r} and {h!r}"
        raise cfg.fail("curves", rule)
    return envs, h, rx, f"uav_height_m={_fmt(h)} rx_height_m={_fmt(rx)}"


def _curve_plos_angle(cfg: RunConfig, args, out: str):
    from . import channel_models as cm

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


def _curve_plos_fit(cfg: RunConfig, args, out: str):
    import dataclasses

    import numpy as np

    from . import channel_models as cm

    envs, h, rx, heights = _plos_setting(cfg)
    with cfg.reading("curves"):
        curves = cfg.block("curves", CURVE_KEYS)
        theta_min_deg = curves.get("theta_min_deg", 10.0)
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
        rows = np.column_stack([thetas, produced, fitted])
        rmse = float(np.sqrt(np.mean((rows[:, 2] - rows[:, 1]) ** 2)))
        notes = [
            f"environment={env.name} {heights}",
            f"fitted a={_fmt(a)} b={_fmt(b)} rmse={_fmt(rmse)}",
        ]
        header = ["theta_deg", "plos_product", "plos_sigmoid_fit"]
        yield f"plos_fit_{env.name}", notes, header, rows


_RSS_KINDS = {  # curve -> (scenario kind, feature column along the x axis)
    "rss_distance": ("distance_sweep", 0), "rss_altitude": ("altitude_waypoints", 1),
}


def _curve_rss(cfg: RunConfig, args, out: str):
    from . import datagen

    kind, axis = _RSS_KINDS[args.which]
    metadata, columns = _scenario_columns(cfg, kind)
    import numpy as np  # not before the scenario's rows: that raises the peak RSS

    n = len(columns[0])  # the features_targets arrays, D_m to PL_dB and RSS_dBm
    x = np.column_stack([np.broadcast_to(column, n) for column in columns[2:6]])
    y = np.array(columns[7]).reshape(n, 1)
    model_path = os.path.join(out, "model.json")  # train's, if fit the same way
    net, _, report, _ = _train_model(cfg, x, y, model_path)
    header = [datagen.CSV_HEADER[2 + axis], "rss_empirical_dbm", "rss_predicted_dbm"]
    rows = np.column_stack([x[:, axis], y[:, 0], net.predict(x)[:, 0]])
    notes = [
        f"environment={metadata['environment']['name']} scenario={kind}",
        _rmse_line("val_rmse_db", report.final_val_rmse_db),
    ]
    yield args.which, notes, header, rows


# curve name -> generator(cfg, args, out dir) of (file stem, notes, header, rows)
# per file
CURVES = {
    "rician": _curve_rician,
    "plos_angle": _curve_plos_angle,
    "plos_fit": _curve_plos_fit,
    "rss_distance": _curve_rss,
    "rss_altitude": _curve_rss,
}


def cmd_curves(args) -> int:
    from . import datagen  # noqa: F401  compiled before any rows exist, not at the peak

    cfg, out = _config_and_out(args)
    for curve in CURVES[args.which](cfg, args, out):
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
    except (SchemaError, ConfigurationError, DomainError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SkylinkError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
