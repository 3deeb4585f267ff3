"""Synthetic link datasets for the two measurement scenarios.

Generates rows of (distance, altitude, frequency, path loss, P_LoS, RSS)
for a distance sweep at fixed altitude or a set of altitude waypoints at
fixed ground distance, converts path loss to received signal strength
through a link budget, and serializes datasets as CSV plus a JSON metadata
sidecar sufficient to regenerate the file bit for bit.

Generation is one pass that returns a dataset's CSV columns (_columns). The
gen_* functions wrap them into Samples; the CLI writes them, or turns them
into arrays, and builds no Sample. write_dataset turns samples into the same
columns, so one row formatter writes every dataset CSV.

Fading draws use a per-row substream seeded by (budget seed, row index),
so row order and parallel generation cannot change the output. Generation
seeds those substreams in one batched pass that is bit-identical to
``np.random.default_rng([seed, index])``: it mirrors numpy's SeedSequence
pool mixing on uint32 arrays, a chunk of rows at a time, and PCG64's
seeding on Python ints, then draws each row from one reused Generator.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import operator
import os
import sys
from dataclasses import dataclass, field, fields

from .errors import ConfigurationError, DomainError, SchemaError
from .errors import as_numbers, open_utf8, parse_json, require

CSV_HEADER = ["index", "scenario", "D_m", "H_m", "F_MHz", "PL_dB", "PLOS", "RSS_dBm"]
CURVE_CHUNK = 256  # rows per write of write_curve_csv

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
        if self.kind not in tuple(FADING_KEYS):  # a list kind cannot be hashed
            raise ConfigurationError(
                f"fading kind must be one of {tuple(FADING_KEYS)}, got {self.kind!r}"
            )
        if self.kind == "rician" and self.rician is None:
            raise ConfigurationError("rician fading requires RicianParams")
        power = _mean_power(self.rician) if self.kind == "rician" else 1.0
        if not sys.float_info.min <= power <= sys.float_info.max:  # draws divide by it
            raise ConfigurationError(
                "fading: rician s^2 + 2 delta^2 must be a positive normal float, "
                f"got {power!r}"
            )
        rules = {"sigma_db": "finite and >= 0"}
        vars(self).update(require(ConfigurationError, rules, vars(self)))


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
        vars(self).update(require(ConfigurationError, {
            "tx_power_dbm": "finite", "tx_gain_dbi": "finite", "rx_gain_dbi": "finite",
            "seed": "int and >= 0",
        }, vars(self)))


def fading_draw_db(budget: LinkBudget, index: int) -> float:
    """One dB fading draw for a row index, from a per-index substream.

    gaussian_shadow draws sigma_db * g with g standard normal. rician
    draws an amplitude and converts to a power loss relative to the
    distribution's mean power (-10 log10(r^2 / (s^2 + 2 delta^2))), so the
    term is mean-power-neutral for any parameter scale. off draws 0.

    The substream is ``np.random.default_rng([budget.seed, index])``.
    Generation seeds all its rows in one batched pass instead, which mirrors
    numpy's SeedSequence pool mixing and PCG64 seeding and gives these
    draws bit for bit.
    """
    if budget.fading.kind == "off":
        return 0.0
    import numpy as np

    return _draw_db(budget.fading)(np.random.default_rng([budget.seed, index]))


def _mean_power(params: RicianParams) -> float:
    """Rician mean power s^2 + 2 delta^2; inf where it leaves the float range."""
    try:
        return params.s**2 + 2.0 * params.delta**2
    except OverflowError:
        return math.inf


def _draw_db(fading: FadingSpec):
    """The function of a Generator that draws one gaussian_shadow or rician
    dB fading term from it; made once per dataset, not per row. A rician
    power past the float range draws -inf, one that underflows to 0 inf."""
    if fading.kind == "gaussian_shadow":
        return lambda rng: fading.sigma_db * float(rng.standard_normal())
    from .fading import _rician_power

    params, mean_power = fading.rician, _mean_power(fading.rician)

    def draw(rng) -> float:
        g1, g2 = rng.standard_normal(2).tolist()  # floats: overflow raises, not warns
        try:
            return -10.0 * math.log10(_rician_power(params, g1, g2) / mean_power)
        except OverflowError:
            return -math.inf
        except ValueError:  # log10 of a power that underflowed to 0
            return math.inf

    return draw


# numpy's SeedSequence (a pool of 4 uint32 words) and PCG64 seeding constants.
# The hash constants stay Python ints below 2^32: uint32 arrays wrap on
# overflow silently, where a uint32 scalar would warn.
_MASK32 = 0xFFFF_FFFF
_POOL_SIZE = 4
_HASH_POOL = (0x43B0D7E5, 0x931E8875)  # INIT_A, MULT_A: entropy into the pool
_HASH_STATE = (0x8B51F9DD, 0x58F38DED)  # INIT_B, MULT_B: generate_state
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
_SEED_CHUNK = 1024  # rows seeded per vectorised pass; bounds the Python ints alive


def _hash_steps(init: int, mult: int):
    """(h, h * mult mod 2^32) pairs of SeedSequence's running hash constant."""
    consts = itertools.accumulate(
        itertools.repeat(mult), lambda h, m: h * m & _MASK32, initial=init
    )
    return itertools.pairwise(consts)


def _hashmix(value: np.ndarray, steps) -> np.ndarray:
    """SeedSequence's hashmix of a uint32 array; advances the hash constant."""
    xor, mult = next(steps)
    value = (value ^ xor) * mult
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of two uint32 arrays."""
    result = x * _MIX_L - y * _MIX_R
    return result ^ (result >> 16)


def _pcg64_states(seed: int, start: int, stop: int):
    """Yield the PCG64 state of default_rng([seed, i]) for i in range(start, stop),
    as one dict that is updated in place for each row.

    SeedSequence runs on uint32 arrays with one entry per row: the entropy
    words (the seed's, then the index's single word; indices stay below
    2^32) hash into a pool of 4, every pool word mixes into every other,
    any fifth or later word mixes into each, and generate_state(4, uint64)
    hashes the pool out. PCG64 then seeds on Python ints: state 0,
    inc = 2 seq + 1, one step, add the initial state, one step.
    """
    import numpy as np

    rows = stop - start
    shifts = range(0, max(seed.bit_length(), 1), 32)  # its little-endian words
    entropy = [np.full(rows, seed >> k & _MASK32, np.uint32) for k in shifts]
    entropy.append(np.arange(start, stop, dtype=np.uint32))
    entropy += [np.zeros(rows, np.uint32)] * (_POOL_SIZE - len(entropy))
    steps = _hash_steps(*_HASH_POOL)
    pool = [_hashmix(word, steps) for word in entropy[:_POOL_SIZE]]
    for src, dst in itertools.permutations(range(_POOL_SIZE), 2):
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], steps))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, steps))
    steps = _hash_steps(*_HASH_STATE)
    words = np.array([_hashmix(pool[i % _POOL_SIZE], steps) for i in range(8)])
    words = words.astype(np.uint64)
    seed_hi, seed_lo, seq_hi, seq_lo = (words[0::2] | words[1::2] << 32).tolist()
    state = {"state": 0, "inc": 0}
    full = {"bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0}
    for s_hi, s_lo, q_hi, q_lo in zip(seed_hi, seed_lo, seq_hi, seq_lo):
        inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
        state["state"] = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
        state["inc"] = inc
        yield full


def _fading_draws_db(budget: LinkBudget, n: int):
    """Yield fading_draw_db(budget, i) for i in range(n), bit for bit.

    Rows are seeded _SEED_CHUNK at a time and drawn from one Generator
    whose state is set per row; off yields zeros and builds no generator.
    """
    if budget.fading.kind == "off":
        yield from itertools.repeat(0.0, n)
        return
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(0))
    bits, draw_db = rng.bit_generator, _draw_db(budget.fading)
    for start in range(0, n, _SEED_CHUNK):
        for state in _pcg64_states(budget.seed, start, min(n, start + _SEED_CHUNK)):
            bits.state = state
            yield draw_db(rng)


def rss_from_path_loss(budget: LinkBudget, pl_db: float, draw_db: float = 0.0) -> float:
    """Received signal strength in dBm for a path loss and fading draw."""
    pl_db = require(DomainError, {"pl_db": "finite"}, locals())["pl_db"]
    term = 0.0 if budget.fading.kind == "off" else draw_db
    rss = budget.tx_power_dbm + budget.tx_gain_dbi + budget.rx_gain_dbi - pl_db - term
    return require(DomainError, {"rss_dbm": "finite"}, {"rss_dbm": rss})["rss_dbm"]


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
    fading = budget.fading
    values = {**vars(fading), **vars(fading.rician or fading)}  # rician: s, delta
    keys = ("kind", *FADING_KEYS[fading.kind])
    return {**vars(budget), "fading": {k: values[k] for k in keys}}


def budget_from_dict(data: dict) -> LinkBudget:
    """Build a LinkBudget from its JSON form (config block or metadata).

    A key left out takes its default, except the keys of a fading kind; such
    a key left out, or an unknown key, is a SchemaError.
    """
    fad = data.get("fading", {})
    if not isinstance(fad, dict):
        raise SchemaError(f"fading: must be an object, got {fad!r}")
    kind = fad.get("kind", "off")
    keys = FADING_KEYS.get(kind, ()) if isinstance(kind, str) else ()
    if set(keys) - fad.keys():  # FadingSpec rejects an unknown kind
        raise SchemaError(f"fading: missing keys {sorted(set(keys) - fad.keys())}")
    params = {k: fad[k] for k in keys}
    if kind == "rician":
        from .fading import RicianParams

        spec = FadingSpec(kind, rician=RicianParams(**params))
    else:
        spec = FadingSpec(kind, **params)  # rejects an unknown kind
    known = {f.name for f in fields(LinkBudget)}, {"kind", *keys}
    for prefix, block, keys in zip(("", "fading: "), (data, fad), known):
        if block.keys() - keys:
            raise SchemaError(f"{prefix}unknown keys {sorted(block.keys() - keys)}")
    return LinkBudget(**{**data, "fading": spec})


def _columns(
    scenario: str,
    env: cm.Environment,
    f_mhz: float = DEFAULT_FREQUENCY_MHZ,
    budget: LinkBudget | None = None,
    pl_model: str = "a2g_mean",
    plos_model: str = "sigmoid",
    rx_height_m: float = DEFAULT_RX_HEIGHT_M,
    h_fixed: float | None = None,
    distances: list[float] | None = None,
    altitudes: list[float] | None = None,
    r_ground: float = DEFAULT_GROUND_DISTANCE_M,
) -> tuple[dict, tuple]:
    """Metadata and CSV_HEADER columns of a distance_sweep (h_fixed, distances)
    or an altitude_waypoints (altitudes, r_ground) dataset.

    The metadata's key order is the sidecar's bytes: scenario, environment,
    layout, then the shared keys. Every column has one entry per row: the
    index is range(n), the others are lists. RSS and the error of the first
    row whose RSS is not finite, prefixed "row {i}: ", are rss_from_path_loss's.
    """
    from . import channel_models as cm

    if scenario == "distance_sweep":
        require(ConfigurationError, {"h_fixed": "finite and > 0"}, locals())
        if len(distances) == 0:
            raise ConfigurationError("distances must be non-empty")
        if any(b <= a for a, b in zip(distances, distances[1:])):
            raise ConfigurationError("distances must be strictly increasing")
        layout = {"h_m": float(h_fixed), "distances_m": [float(d) for d in distances]}
        d_m, h_m = layout["distances_m"], [layout["h_m"]] * len(distances)
    else:
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
        d_m, h_m = [layout["r_ground_m"]] * len(altitudes), layout["altitudes_m"]
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
    n = len(d_m)
    path_loss, plos = cm._channel_rows(
        env, zip(h_m, d_m), f_mhz, pl_model, plos_model, rx_height_m
    )
    draws = _fading_draws_db(budget, n)  # zeros when off: x - 0.0 is x
    gain = budget.tx_power_dbm + budget.tx_gain_dbi + budget.rx_gain_dbi
    rss = list(map(operator.sub, map(operator.sub, itertools.repeat(gain), path_loss),
                   draws))  # (gain - pl) - draw, rss_from_path_loss's order
    if not all(map(math.isfinite, rss)):
        i = next(i for i, value in enumerate(rss) if not math.isfinite(value))
        try:
            rss_from_path_loss(budget, path_loss[i], fading_draw_db(budget, i))
        except DomainError as exc:
            raise DomainError(f"row {i}: {exc}") from None
    columns = [scenario] * n, d_m, h_m, [float(f_mhz)] * n, path_loss, plos, rss
    return metadata, (range(n), *columns)


def _dataset(metadata: dict, columns: tuple) -> Dataset:
    """The Dataset of _columns' metadata and columns: one Sample per row."""
    return Dataset(list(map(Sample, *columns)), metadata)


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
    return _dataset(*_columns("distance_sweep", **locals()))


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
    return _dataset(*_columns("altitude_waypoints", **locals()))


# The keys of a run config's scenario block, both kinds'; a sidecar has more.
SCENARIO_KEYS = (
    "kind", "f_mhz", "rx_height_m", "h_m", "distances_m", "altitudes_m", "r_ground_m",
)

# Rules of the numbers of a scenario block, by key; list entries must be finite.
_LAYOUT_RULES = {
    "f_mhz": "finite and > 0", "rx_height_m": "finite and >= 0",
    "h_m": "finite and > 0", "r_ground_m": "finite and >= 0",
    "start": "finite", "stop": "finite", "count": "int and > 0",
}


def _number(block: dict, key: str, default=None):
    """block[key] (default if left out) as require returns it by the key's rule."""
    given = {key: block.get(key, default)}
    return require(ConfigurationError, {k: _LAYOUT_RULES[k] for k in given}, given)[key]


def _linspace(start: float, stop: float, count: int) -> list[float]:
    """np.linspace(start, stop, count) as a list, bit for bit on every strictly
    increasing grid: one step, i * step + start, the last point set to stop.

    One point is 0 * (stop - start) + start, as numpy makes it. Where the
    step underflows to 0 numpy scales i / (count - 1) instead; such a grid
    repeats a point either way.
    """
    try:  # whole, as an array is: a count past the address space fails at once
        grid = [start] * count
    except (MemoryError, OverflowError):  # OverflowError: past an index's range
        raise MemoryError(f"cannot allocate a grid of {count} points") from None
    delta = stop - start
    step = delta / (count - 1) if count > 1 else delta
    for i in range(count):
        grid[i] = i * step + start
    if count > 1:
        grid[-1] = stop
    return grid


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
            start, stop, count = (_number(spec, k) for k in ("start", "stop", "count"))
            if math.isinf(stop - start):
                raise ConfigurationError(
                    f"distances_m stop - start must be finite, got {stop!r} - {start!r}"
                )
            spec = _linspace(start, stop, count)
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
    from . import channel_models as cm

    generate, args = scenario_layout(metadata.get("scenario"), metadata)
    return generate(
        cm.environment_from_dict(metadata["environment"]),
        budget=budget_from_dict(metadata["budget"]),
        pl_model=metadata["pl_model"], plos_model=metadata["plos_model"], **args,
    )


def split_rows(n: int, train_fraction: float, seed: int) -> tuple[list[int], list[int]]:
    """Ascending train and test row numbers of a seeded shuffle of ``n`` rows;
    both sides must be non-empty."""
    rules = {"train_fraction": "in (0, 1)", "seed": "int and >= 0"}
    require(ConfigurationError, rules, locals())
    n_train = int(n * train_fraction)
    if n_train == 0 or n_train == n:
        raise ConfigurationError(
            f"fraction {train_fraction} on {n} rows would empty one split"
        )
    import numpy as np

    order = np.random.default_rng(seed).permutation(n)
    return sorted(order[:n_train].tolist()), sorted(order[n_train:].tolist())


def split(dataset: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """The train and test datasets of split_rows, each in the original sample
    order and with a metadata record of the split."""
    picks = split_rows(len(dataset.samples), train_fraction, seed)
    out = []
    for role, pick in zip(("train", "test"), picks):
        meta = dict(dataset.metadata)
        meta["split"] = {"role": role, "train_fraction": train_fraction, "seed": seed}
        out.append(Dataset(samples=[dataset.samples[i] for i in pick], metadata=meta))
    return out[0], out[1]


def features_targets(dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Feature matrix (D, H, F, P) and target column (RSS) as arrays."""
    import numpy as np

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


# Each CSV_HEADER column's text from its values; a scenario is quoted once.
_FIELDS = (
    lambda column: map(str, column),
    lambda column: map({s: _csv_field(s) for s in set(column)}.__getitem__, column),
    *[lambda column: map(repr, map(float, column))] * 6,
)


def _write_columns(csv_path: str, metadata: dict, columns: tuple) -> str:
    """Write dataset columns, one entry per row as _columns returns them, and
    the metadata sidecar; returns the sidecar path. Floats are written in repr
    form (shortest exact round-trip), line endings are line feeds; the bytes
    are csv.writer's but for a quoted CR.
    """
    cells = [fmt(column) for fmt, column in zip(_FIELDS, columns)]
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        fh.writelines(
            f"{i},{sc},{d},{h},{f},{pl},{p},{rss}\n"
            for i, sc, d, h, f, pl, p, rss in zip(*cells)
        )
    sidecar = metadata_path_for(csv_path)
    with open(sidecar, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(metadata, fh, indent=2)
        fh.write("\n")
    return sidecar


def write_dataset(dataset: Dataset, csv_path: str) -> str:
    """Write the CSV and its JSON metadata sidecar; returns sidecar path. The
    samples go to the row formatter as columns: index as str(), the floats as
    repr(float())."""
    rows = map(operator.attrgetter(*(f.name for f in fields(Sample))), dataset.samples)
    return _write_columns(csv_path, dataset.metadata, zip(*rows))


def _csv_rows(path: str, parse, *headers: list[str]):
    """Stream a UTF-8 CSV: (comments, header) first, then parse(row) per data row.

    Leading "#" lines are comments; blank lines are skipped. A byte that is not
    UTF-8, no header, one that is none of ``headers`` (if any), a ragged row or a
    ValueError of parse is a SchemaError; all but the first two name path:line.
    """
    with open_utf8(path, newline="") as fh:
        comments, line = [], fh.readline()
        while line.startswith("#"):
            comments.append(line[1:].strip())
            line = fh.readline()
        reader = csv.reader(itertools.chain([line], fh))
        found = next((row for row in reader if row), None)
        if found is None:
            raise SchemaError(f"{path}: no header row")
        if headers and found not in headers:
            raise SchemaError(
                f"{path}:{reader.line_num + len(comments)}: header {found!r} "
                f"does not match {' or '.join(repr(','.join(h)) for h in headers)}"
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
    return Dataset(samples=samples, metadata=_read_sidecar(csv_path))


def _read_sidecar(csv_path: str) -> dict:
    """The dataset's metadata sidecar, parsed; {} if there is none."""
    sidecar = metadata_path_for(csv_path)
    if not os.path.exists(sidecar):
        return {}
    with open_utf8(sidecar) as fh:
        return parse_json(fh.read(), sidecar)


def read_dataset_arrays(csv_path: str) -> tuple[np.ndarray, np.ndarray]:
    """features_targets(read_dataset(csv_path)), bit for bit, without a Sample.

    One np.loadtxt call parses the rows; it reads no value otherwise than
    int() or float(), and rejects some they take (1_0, non-ASCII digits).
    Another header line, a ValueError or warning of np.loadtxt, or a column
    failing read_dataset's row checks sends the file to read_dataset, whose
    error names the line at fault.
    """
    import warnings

    import numpy as np

    columns = [("index", "i8"), ("scenario", "i1")]
    columns += [(name, "f8") for name in CSV_HEADER[2:]]
    table = np.zeros(0, columns)  # what a file that np.loadtxt rejects leaves
    with open(csv_path, encoding="utf-8", newline="") as fh:
        try:
            line = fh.readline()
            while line.startswith("#"):
                line = fh.readline()
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # "input contained no data"
                if line.rstrip("\r\n") == ",".join(CSV_HEADER):  # ends LF, CRLF or CR
                    table = np.loadtxt(
                        fh, columns, delimiter=",", quotechar='"', comments=None,
                        converters={1: lambda scenario: 0}, ndmin=1,
                    )
        except (ValueError, Warning):  # UnicodeDecodeError is a ValueError
            pass
    x = np.column_stack([table[name] for name in CSV_HEADER[2:6]])
    y, plos = table["RSS_dBm"].reshape(-1, 1).copy(), table["PLOS"]
    index = np.sort(table["index"])  # np.unique would import numpy.ma, ~20 ms
    if (
        table.size and np.isfinite(x).all() and np.isfinite(y).all()
        and ((plos >= 0.0) & (plos <= 1.0)).all() and (index[1:] != index[:-1]).all()
    ):
        _read_sidecar(csv_path)  # a malformed sidecar fails as in read_dataset
        return x, y
    return features_targets(read_dataset(csv_path))


def write_curve_csv(
    path: str, comments: list[str], header: list[str], rows: list[list]
) -> None:
    """Plot-ready CSV with #-prefixed comment lines before the header. rows, a
    list of rows or a 2-D array, go CURVE_CHUNK at a time, ints and floats as repr()."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for start in range(0, len(rows), CURVE_CHUNK):
            chunk = rows[start:start + CURVE_CHUNK]
            chunk = chunk.tolist() if hasattr(chunk, "tolist") else chunk
            if set(map(type, itertools.chain.from_iterable(chunk))) <= {int, float}:
                fh.write("".join(",".join(map(repr, row)) + "\n" for row in chunk))
            else:  # numpy floats, strings and other cells, as csv.writer has them
                writer.writerows([repr(float(v)) if isinstance(v, float) else v
                                  for v in row] for row in chunk)


def read_curve_csv(path: str) -> tuple[list[str], list[str], list[list[float]]]:
    """Read back a curve CSV: (comment lines, header, float rows).

    Blank lines are skipped; a row with more or fewer fields than the
    header is a SchemaError.
    """
    rows = _csv_rows(path, lambda row: [float(v) for v in row])
    comments, header = next(rows)
    return comments, header, list(rows)
