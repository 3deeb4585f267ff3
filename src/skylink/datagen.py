"""Synthetic link datasets for the two measurement scenarios.

Generates rows of (distance, altitude, frequency, path loss, P_LoS, RSS)
for a distance sweep at fixed altitude or a set of altitude waypoints at
fixed ground distance, converts path loss to received signal strength
through a link budget, and serializes datasets as CSV plus a JSON metadata
sidecar sufficient to regenerate the file bit for bit.

Fading draws use a per-row substream seeded by (budget seed, row index),
so row order and parallel generation cannot change the output.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from . import channel_models as cm
from .errors import ConfigurationError, DomainError, SchemaError
from .errors import as_number, as_numbers, parse_json, require
from .fading import RicianParams, _rician_power

CSV_HEADER = ["index", "scenario", "D_m", "H_m", "F_MHz", "PL_dB", "PLOS", "RSS_dBm"]

FADING_KEYS = {"off": (), "rician": ("s", "delta"), "gaussian_shadow": ("sigma_db",)}

DEFAULT_ALTITUDES_M = tuple(float(h) for h in range(20, 201, 20))
DEFAULT_GROUND_DISTANCE_M = 500.0
DEFAULT_SWEEP_HEIGHT_M = 100.0
DEFAULT_DISTANCES_M = {"start": 100.0, "stop": 2000.0, "count": 200}
DEFAULT_FREQUENCY_MHZ = 2000.0
DEFAULT_RX_HEIGHT_M = 1.5


@dataclass(frozen=True)
class FadingSpec:
    """Fading model attached to a link budget: off, rician or gaussian_shadow."""

    kind: str = "off"
    rician: RicianParams | None = None
    sigma_db: float = 0.0

    def __post_init__(self):
        if self.kind not in FADING_KEYS:
            raise ConfigurationError(
                f"fading kind must be one of {tuple(FADING_KEYS)}, got {self.kind!r}"
            )
        if self.kind == "rician" and self.rician is None:
            raise ConfigurationError("rician fading requires RicianParams")
        require(ConfigurationError, {"sigma_db": "finite and >= 0"}, vars(self))


@dataclass(frozen=True)
class LinkBudget:
    """Transmit-side power accounting for the RSS conversion.

    RSS = tx_power + tx_gain + rx_gain - path_loss - fading_term, all dB.
    """

    tx_power_dbm: float = 30.0
    tx_gain_dbi: float = 0.0
    rx_gain_dbi: float = 0.0
    fading: FadingSpec = field(default_factory=FadingSpec)
    seed: int = 0

    def __post_init__(self):
        require(ConfigurationError, {
            "tx_power_dbm": "finite", "tx_gain_dbi": "finite", "rx_gain_dbi": "finite",
            "seed": "int and >= 0",
        }, vars(self))


def fading_draw_db(budget: LinkBudget, index: int) -> float:
    """One dB fading draw for a row index, from a per-index substream.

    gaussian_shadow draws sigma_db * g with g standard normal. rician
    draws an amplitude and converts to a power loss relative to the
    distribution's mean power (-10 log10(r^2 / (s^2 + 2 delta^2))), so the
    term is mean-power-neutral for any parameter scale. off draws 0.
    """
    kind = budget.fading.kind
    if kind == "off":
        return 0.0
    rng = np.random.default_rng([budget.seed, index])
    if kind == "gaussian_shadow":
        return budget.fading.sigma_db * float(rng.standard_normal())
    params = budget.fading.rician
    amp_sq = _rician_power(params, *rng.standard_normal(2))
    mean_power = params.s**2 + 2.0 * params.delta**2
    return -10.0 * math.log10(amp_sq / mean_power)


def rss_from_path_loss(budget: LinkBudget, pl_db: float, draw_db: float = 0.0) -> float:
    """Received signal strength in dBm for a path loss and fading draw."""
    if not math.isfinite(pl_db):
        raise DomainError(f"pl_db must be finite, got {pl_db!r}")
    term = 0.0 if budget.fading.kind == "off" else draw_db
    return budget.tx_power_dbm + budget.tx_gain_dbi + budget.rx_gain_dbi - pl_db - term


@dataclass(frozen=True, slots=True)
class Sample:
    """One generated measurement row."""

    index: int
    scenario: str
    d_m: float
    h_m: float
    f_mhz: float
    pl_db: float
    plos: float
    rss_dbm: float


@dataclass
class Dataset:
    """Ordered samples plus metadata sufficient for exact regeneration."""

    samples: list[Sample]
    metadata: dict


def _budget_to_dict(budget: LinkBudget) -> dict:
    """JSON form of a budget; keys in field order, the sidecar's key order."""
    fading: dict = {"kind": budget.fading.kind}
    if budget.fading.kind == "rician":
        fading.update(vars(budget.fading.rician))
    elif budget.fading.kind == "gaussian_shadow":
        fading["sigma_db"] = budget.fading.sigma_db
    return {**vars(budget), "fading": fading}


def budget_from_dict(data: dict) -> LinkBudget:
    """Build a LinkBudget from its JSON form (config block or metadata).

    A key left out takes its default; an unknown key is a SchemaError.
    """
    fad = data.get("fading", {})
    kind = fad.get("kind", "off")
    params = {k: as_number(fad[k]) for k in FADING_KEYS.get(kind, ())}
    if kind == "rician":
        spec = FadingSpec(kind, rician=RicianParams(**params))
    else:
        spec = FadingSpec(kind, **params)  # rejects an unknown kind
    known = {f.name for f in fields(LinkBudget)}, {"kind", *FADING_KEYS[kind]}
    for prefix, block, keys in zip(("", "fading: "), (data, fad), known):
        if block.keys() - keys:
            raise SchemaError(f"{prefix}unknown keys {sorted(block.keys() - keys)}")
    return LinkBudget(**{  # the seed as given: its rule rejects 2.5 and "7"
        k: spec if k == "fading" else v if k == "seed" else as_number(v)
        for k, v in data.items()
    })


def _generate(
    scenario: str,
    env: cm.Environment,
    geometries: list[tuple[float, float]],
    f_mhz: float,
    budget: LinkBudget | None,
    pl_model: str,
    plos_model: str,
    rx_height_m: float,
    layout: dict,
) -> Dataset:
    """Dataset of one scenario's (h, r) rows and its metadata.

    layout holds the scenario's own metadata keys. The key order is the
    sidecar's bytes: scenario, environment, layout, then the shared keys.
    """
    require(ConfigurationError, {"rx_height_m": "finite and >= 0"}, locals())
    budget = LinkBudget() if budget is None else budget
    metadata = {
        "scenario": scenario,
        "environment": cm.environment_to_dict(env),
        **layout,
        "f_mhz": float(f_mhz),
        "pl_model": pl_model,
        "plos_model": plos_model,
        "rx_height_m": float(rx_height_m),
        "budget": _budget_to_dict(budget),
    }
    path_loss, plos = cm._channel_rows(
        env, geometries, f_mhz, pl_model, plos_model, rx_height_m
    )
    samples = [
        Sample(
            index=i, scenario=scenario, d_m=d_m, h_m=h_m, f_mhz=float(f_mhz),
            pl_db=pl, plos=p,
            rss_dbm=rss_from_path_loss(budget, pl, fading_draw_db(budget, i)),
        )
        for i, ((h_m, d_m), pl, p) in enumerate(zip(geometries, path_loss, plos))
    ]
    return Dataset(samples=samples, metadata=metadata)


def gen_distance_sweep(
    env: cm.Environment,
    h_fixed: float,
    distances: list[float],
    f_mhz: float = DEFAULT_FREQUENCY_MHZ,
    budget: LinkBudget | None = None,
    pl_model: str = "a2g_mean",
    plos_model: str = "sigmoid",
    rx_height_m: float = DEFAULT_RX_HEIGHT_M,
) -> Dataset:
    """Distance-sweep scenario: fixed altitude, increasing ground distance."""
    require(ConfigurationError, {"h_fixed": "finite and > 0"}, locals())
    if len(distances) == 0:
        raise ConfigurationError("distances must be non-empty")
    if any(b <= a for a, b in zip(distances, distances[1:])):
        raise ConfigurationError("distances must be strictly increasing")
    layout = {"h_m": float(h_fixed), "distances_m": [float(d) for d in distances]}
    geometries = [(layout["h_m"], d) for d in layout["distances_m"]]
    return _generate(
        "distance_sweep", env, geometries, f_mhz, budget,
        pl_model, plos_model, rx_height_m, layout,
    )


def gen_altitude_waypoints(
    env: cm.Environment,
    altitudes: list[float] | None = None,
    r_ground: float = DEFAULT_GROUND_DISTANCE_M,
    f_mhz: float = DEFAULT_FREQUENCY_MHZ,
    budget: LinkBudget | None = None,
    pl_model: str = "a2g_mean",
    plos_model: str = "sigmoid",
    rx_height_m: float = DEFAULT_RX_HEIGHT_M,
) -> Dataset:
    """Altitude-waypoint scenario: fixed ground distance, stepped altitude.

    The default waypoint list is 20, 40, ..., 200 m.
    """
    if altitudes is None:
        altitudes = list(DEFAULT_ALTITUDES_M)
    if len(altitudes) == 0:
        raise ConfigurationError("altitudes must be non-empty")
    if any(h <= 0.0 for h in altitudes):
        raise ConfigurationError("altitudes must all be positive")
    require(ConfigurationError, {"r_ground": "finite and >= 0"}, locals())
    layout = {
        "altitudes_m": [float(h) for h in altitudes], "r_ground_m": float(r_ground),
    }
    geometries = [(h, layout["r_ground_m"]) for h in layout["altitudes_m"]]
    return _generate(
        "altitude_waypoints", env, geometries, f_mhz, budget,
        pl_model, plos_model, rx_height_m, layout,
    )


# Rules of the numbers of a scenario block, by key; list entries must be finite.
_LAYOUT_RULES = {
    "f_mhz": "finite and > 0", "rx_height_m": "finite and >= 0",
    "h_m": "finite and > 0", "r_ground_m": "finite and >= 0",
    "start": "finite", "stop": "finite", "count": "int and > 0",
}


def _number(block: dict, key: str, default=None):
    """block[key] (default if left out) checked by its rule; a count as given."""
    value = block.get(key, default)
    values = {key: value if key == "count" else as_number(value)}
    require(ConfigurationError, {k: _LAYOUT_RULES[k] for k in values}, values)
    return values[key]


def scenario_layout(kind: str, block: dict) -> tuple:
    """The generator of a scenario kind and its arguments, read from a block.

    block is a run config's scenario block or a sidecar. Both kinds read
    f_mhz and rx_height_m; distance_sweep reads h_m and distances_m (a
    list or {start, stop, count}), altitude_waypoints reads altitudes_m
    and r_ground_m. A key that is left out takes its default.
    """
    args = {
        "f_mhz": _number(block, "f_mhz", DEFAULT_FREQUENCY_MHZ),
        "rx_height_m": _number(block, "rx_height_m", DEFAULT_RX_HEIGHT_M),
    }
    if kind == "distance_sweep":
        spec = block.get("distances_m", DEFAULT_DISTANCES_M)
        if isinstance(spec, dict) and spec.keys() == {"start", "stop", "count"}:
            grid = [_number(spec, key) for key in ("start", "stop", "count")]
            spec = np.linspace(*grid).tolist()
        elif isinstance(spec, list):
            spec = as_numbers("distances_m", spec)
        else:
            raise ConfigurationError(
                "distances_m must be a list or an object with start, stop, count"
            )
        args["h_fixed"] = _number(block, "h_m", DEFAULT_SWEEP_HEIGHT_M)
        args["distances"] = spec
        return gen_distance_sweep, args
    if kind == "altitude_waypoints":
        altitudes = block.get("altitudes_m")  # null: the default waypoints
        if altitudes is not None:
            args["altitudes"] = as_numbers("altitudes_m", altitudes)
        args["r_ground"] = _number(block, "r_ground_m", DEFAULT_GROUND_DISTANCE_M)
        return gen_altitude_waypoints, args
    raise ConfigurationError(f"unknown scenario kind {kind!r}")


def generate_from_metadata(metadata: dict) -> Dataset:
    """Rebuild a dataset from a metadata sidecar; bit-identical output."""
    generate, args = scenario_layout(metadata.get("scenario"), metadata)
    return generate(
        cm.environment_from_dict(metadata["environment"]),
        budget=budget_from_dict(metadata["budget"]),
        pl_model=metadata["pl_model"], plos_model=metadata["plos_model"], **args,
    )


def split(dataset: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded shuffle-and-partition into train and test datasets.

    Both sides keep the original sample order (by index) and a metadata
    record of the split; both must be non-empty.
    """
    require(
        ConfigurationError,
        {"train_fraction": "in (0, 1)", "seed": "int and >= 0"}, locals(),
    )
    n = len(dataset.samples)
    n_train = int(n * train_fraction)
    if n_train == 0 or n_train == n:
        raise ConfigurationError(
            f"fraction {train_fraction} on {n} rows would empty one split"
        )
    order = np.random.default_rng(seed).permutation(n)
    picks = (sorted(order[:n_train].tolist()), sorted(order[n_train:].tolist()))
    out = []
    for role, pick in zip(("train", "test"), picks):
        meta = dict(dataset.metadata)
        meta["split"] = {"role": role, "train_fraction": train_fraction, "seed": seed}
        out.append(Dataset(samples=[dataset.samples[i] for i in pick], metadata=meta))
    return out[0], out[1]


def features_targets(dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Feature matrix (D, H, F, P) and target column (RSS) as arrays."""
    x = np.array(
        [[s.d_m, s.h_m, s.f_mhz, s.pl_db] for s in dataset.samples], dtype=float
    )
    y = np.array([[s.rss_dbm] for s in dataset.samples], dtype=float)
    return x, y


def metadata_path_for(csv_path: str) -> str:
    """Sidecar JSON path: same basename with a .json extension."""
    stem, _ = os.path.splitext(csv_path)
    return stem + ".json"


def _csv_field(text: str) -> str:
    """text as one CSV field, quoted as by csv.writer or if it has a carriage return."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow([text, ""])  # "\n" leaves \r bare
    return buf.getvalue()[:-3]


def write_dataset(dataset: Dataset, csv_path: str) -> str:
    """Write the CSV and its JSON metadata sidecar; returns sidecar path.

    Floats are written in repr form (shortest exact round-trip), line
    endings are line feeds; the bytes are csv.writer's but for a quoted CR.
    """
    scenarios = {sc: _csv_field(sc) for sc in {s.scenario for s in dataset.samples}}
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        fh.writelines(
            f"{s.index},{scenarios[s.scenario]},{float(s.d_m)!r},{float(s.h_m)!r},"
            f"{float(s.f_mhz)!r},{float(s.pl_db)!r},{float(s.plos)!r},"
            f"{float(s.rss_dbm)!r}\n"
            for s in dataset.samples
        )
    sidecar = metadata_path_for(csv_path)
    with open(sidecar, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(dataset.metadata, fh, indent=2)
        fh.write("\n")
    return sidecar


def _csv_rows(path: str, parse, header: list[str] | None = None):
    """Stream a UTF-8 CSV: (comments, header) first, then parse(row) per data row.

    Leading "#" lines are comments; blank lines are skipped. No header, one
    other than ``header`` (if given), a ragged row or a ValueError of parse
    is a SchemaError; all but the first name their path:line.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        comments, line = [], fh.readline()
        while line.startswith("#"):
            comments.append(line[1:].strip())
            line = fh.readline()
        reader = csv.reader(itertools.chain([line], fh))
        found = next((row for row in reader if row), None)
        if found is None:
            raise SchemaError(f"{path}: no header row")
        if header not in (None, found):
            raise SchemaError(
                f"{path}:{reader.line_num + len(comments)}: header {found!r} "
                f"does not match {','.join(header)!r}"
            )
        yield comments, found
        for row in filter(None, reader):
            try:
                if len(row) != len(found):
                    raise ValueError(f"expected {len(found)} fields, got {len(row)}")
                value = parse(row)
            except ValueError as exc:
                lineno = reader.line_num + len(comments)
                raise SchemaError(f"{path}:{lineno}: {exc}") from None
            yield value


def read_dataset(csv_path: str) -> Dataset:
    """Read a dataset CSV (and sidecar metadata if present); schema-checked."""
    seen = set()

    def sample(row: list[str]) -> Sample:
        s = Sample(
            index=int(row[0]), scenario=row[1], d_m=float(row[2]),
            h_m=float(row[3]), f_mhz=float(row[4]), pl_db=float(row[5]),
            plos=float(row[6]), rss_dbm=float(row[7]),
        )
        if not (0.0 <= s.plos <= 1.0):
            raise ValueError(f"PLOS {s.plos} outside [0, 1]")
        if not math.isfinite(s.d_m + s.h_m + s.f_mhz + s.pl_db + s.rss_dbm):
            for col in (2, 3, 4, 5, 7):  # one nan/inf field, or an overflowing sum
                if not math.isfinite(float(row[col])):
                    role = "target" if col == 7 else "feature"
                    raise ValueError(f"non-finite {role} {CSV_HEADER[col]}={row[col]}")
        if s.index in seen:
            raise ValueError(f"duplicate index {s.index}")
        seen.add(s.index)
        return s

    rows = _csv_rows(csv_path, sample, CSV_HEADER)
    next(rows)  # the comments and the header
    samples = list(rows)
    if not samples:
        raise SchemaError(f"{csv_path}: no data rows")
    metadata = {}
    sidecar = metadata_path_for(csv_path)
    if os.path.exists(sidecar):
        with open(sidecar, encoding="utf-8") as fh:
            metadata = parse_json(fh.read(), sidecar)
    return Dataset(samples=samples, metadata=metadata)


def write_curve_csv(
    path: str, comments: list[str], header: list[str], rows: list[list]
) -> None:
    """Plot-ready CSV with #-prefixed comment lines before the header."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([
                repr(float(v)) if isinstance(v, float) else v for v in row
            ])


def read_curve_csv(path: str) -> tuple[list[str], list[str], list[list[float]]]:
    """Read back a curve CSV: (comment lines, header, float rows).

    Blank lines are skipped; a row with more or fewer fields than the
    header is a SchemaError.
    """
    rows = _csv_rows(path, lambda row: [float(v) for v in row])
    comments, header = next(rows)
    return comments, header, list(rows)
