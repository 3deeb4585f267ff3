"""Deterministic propagation computations for UAV-to-ground links.

Covers link geometry (slant range, elevation angle), the empirical Hata
path-loss model, free-space and air-to-ground path loss with environment
excess losses, and three line-of-sight probability models (building-statistics
product, continuous elevation curve, sigmoid S-curve) plus a deterministic
sigmoid fitter.

All operations are pure functions of their inputs. Angles are degrees at the
public interface, radians internally. Logarithms in dB arithmetic are base 10.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import MISSING, dataclass, fields

from .errors import (
    ConfigurationError,
    DomainError,
    FitError,
    SchemaError,
    as_number,
    parse_json,
    require,
)

logger = logging.getLogger(__name__)

SPEED_OF_LIGHT = 2.99792458e8  # m/s

# Nominal validity ranges of the Hata model; outside them a warning is
# emitted but evaluation proceeds.
HATA_FREQ_RANGE_MHZ = (150.0, 1500.0)
HATA_BASE_HEIGHT_RANGE_M = (30.0, 200.0)
HATA_MOBILE_HEIGHT_RANGE_M = (1.0, 10.0)

# P_LoS models by name, each mapping (env, theta_deg, h, r, rx_height_m) to a
# probability. Entries look the model function up when called, so a module
# attribute replaced at run time (a test double, a tracer) is what runs.
PLOS = {
    "product": lambda env, theta, h, r, rx: plos_product(env, h, rx, r),
    "holis": lambda env, theta, h, r, rx: plos_holis(env, theta),
    "sigmoid": lambda env, theta, h, r, rx: plos_sigmoid(env, theta),
}
PLOS_MODELS = tuple(PLOS)
PL_MODELS = ("hata", "a2g_mean")


def _require_finite(name: str, value: float) -> float:
    v = float(value)
    if not math.isfinite(v):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return v


@dataclass(frozen=True)
class Environment:
    """Named bundle of propagation parameters for one environment class.

    Attributes:
        name: label such as "suburban", "urban", "dense-urban".
        alpha: fraction of land area covered by buildings, in (0, 1].
        beta: mean number of buildings per square kilometre.
        gamma: scale of the Rayleigh-distributed building heights, metres.
        eps_los_db: mean excess loss over free space for LoS links, dB.
        eps_nlos_db: mean excess loss for NLoS links, dB.
        c: optional five-tuple (c1..c5) for the continuous elevation
            P_LoS curve; None disables ``plos_holis``.
        sigmoid: optional (a, b) pair for the S-curve P_LoS model; None
            disables ``plos_sigmoid``.
    """

    name: str
    alpha: float
    beta: float
    gamma: float
    eps_los_db: float
    eps_nlos_db: float
    c: tuple[float, float, float, float, float] | None = None
    sigmoid: tuple[float, float] | None = None

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ConfigurationError(f"environment name {self.name!r} is not a string")
        if "\n" in self.name or "\r" in self.name:  # curve files note the name
            raise ConfigurationError(f"environment name {self.name!r} must be one line")
        prefix = f"environment {self.name!r}: "
        require(ConfigurationError, {
            "alpha": "in (0, 1]", "beta": "finite and > 0", "gamma": "finite and > 0",
            "eps_los_db": "finite", "eps_nlos_db": "finite",
        }, vars(self), prefix)
        if not (0.0 <= self.eps_los_db <= self.eps_nlos_db):
            raise ConfigurationError(
                f"{prefix}need 0 <= eps_los_db <= eps_nlos_db, "
                f"got {self.eps_los_db} and {self.eps_nlos_db}"
            )
        for name, rules in (("c", _C_RULES), ("sigmoid", _SIGMOID_RULES)):
            if getattr(self, name) is not None:
                value = tuple(map(as_number, getattr(self, name)))
                object.__setattr__(self, name, value)
                if len(value) != len(rules):
                    raise ConfigurationError(
                        f"{prefix}{name} must have {len(rules)} entries"
                    )
                require(ConfigurationError, rules, dict(zip(rules, value)), prefix)


# Entry rules of the optional Environment tuples, in tuple order.
_C_RULES = {
    "c1": "finite", "c2": "finite", "c3": "finite", "c4": "finite and > 0",
    "c5": "finite",
}
_SIGMOID_RULES = {"sigmoid a": "finite and > 0", "sigmoid b": "finite and > 0"}


def load_environments(path: str) -> dict[str, Environment]:
    """Load environment definitions from a JSON file.

    The file holds a JSON array with one object per environment, each read
    by environment_from_dict; its schema errors, and a duplicate name, are
    SchemaErrors prefixed with the file and entry index.
    """
    with open(path, encoding="utf-8") as fh:
        raw = parse_json(fh.read(), path)
    if not isinstance(raw, list):
        raise SchemaError(f"{path}: expected a JSON array of environments")
    envs: dict[str, Environment] = {}
    for i, item in enumerate(raw):
        try:
            env = environment_from_dict(item)
        except ConfigurationError:
            raise  # a range error names its environment
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"{path}: entry {i}: {exc}") from exc
        if env.name in envs:
            raise SchemaError(f"{path}: duplicate environment name {env.name!r}")
        envs[env.name] = env
    return envs


def environment_to_dict(env: Environment) -> dict:
    """Plain-JSON form of an environment, matching the config file schema.

    Keys come in field order, which is the sidecar's key order; c and
    sigmoid are left out when None.
    """
    out = {f.name: getattr(env, f.name) for f in fields(env)}
    out["c"] = None if env.c is None else list(env.c)
    out["sigmoid"] = None if env.sigmoid is None else dict(zip("ab", env.sigmoid))
    return {key: value for key, value in out.items() if value is not None}


def environment_from_dict(data: dict) -> Environment:
    """Inverse of environment_to_dict, for an environment file entry or a sidecar.

    Required keys: name, alpha, beta, gamma, eps_los_db, eps_nlos_db;
    optional: c (array of 5 numbers), sigmoid (object with keys a, b). A
    missing or unknown key, or a malformed c or sigmoid, is a SchemaError.
    """
    if not isinstance(data, dict):
        raise SchemaError(f"not an object: {data!r}")
    missing = {f.name for f in fields(Environment) if f.default is MISSING} - set(data)
    unknown = set(data) - {f.name for f in fields(Environment)}
    if missing:
        raise SchemaError(f"missing keys {sorted(missing)}")
    if unknown:
        raise SchemaError(f"unknown keys {sorted(unknown)}")
    c, sig = data.get("c"), data.get("sigmoid")
    if c is not None and (not isinstance(c, list) or len(c) != 5):
        raise SchemaError("c must be an array of 5 numbers")
    if sig is not None and (not isinstance(sig, dict) or sig.keys() != {"a", "b"}):
        raise SchemaError("sigmoid must be an object with keys a, b")
    # field types are strings: this module postpones annotations
    floats = [f.name for f in fields(Environment) if f.type == "float"]
    return Environment(
        name=data["name"],
        **{name: as_number(data[name]) for name in floats},
        c=c,  # c and sigmoid entries become numbers in Environment
        sigmoid=None if sig is None else (sig["a"], sig["b"]),
    )


@dataclass(frozen=True)
class LinkGeometry:
    """UAV-to-ground link geometry.

    Attributes:
        h: UAV altitude above ground, metres.
        r: horizontal ground distance from the UAV nadir to the receiver,
            metres.
    """

    h: float
    r: float

    def __post_init__(self):
        require(DomainError, {"h": "finite", "r": "finite"}, vars(self))
        if self.h < 0.0 or self.r < 0.0:
            raise DomainError(
                f"geometry requires h >= 0 and r >= 0, got h={self.h}, r={self.r}"
            )
        if self.h == 0.0 and self.r == 0.0:
            raise DomainError("geometry requires h + r > 0 (zero slant range)")


def slant_distance(geom: LinkGeometry) -> float:
    """Straight-line distance between UAV and ground receiver, metres.

    d = sqrt(r^2 + h^2); strictly positive for valid geometry.
    """
    return math.hypot(geom.r, geom.h)


def elevation_angle(geom: LinkGeometry) -> float:
    """Elevation angle from the receiver's horizontal to the UAV, degrees.

    theta = atan(h / r), in [0, 90]; r = 0 maps to 90 degrees.
    """
    return math.degrees(math.atan2(geom.h, geom.r))


def ground_distance_for_angle(h: float, theta_deg: float) -> float:
    """Ground distance at which altitude h is seen under elevation theta.

    Inverts theta = atan(h / r) to r = h / tan(theta). theta = 0 maps to
    infinity, theta = 90 to zero.
    """
    require(DomainError, {"h": "finite and > 0", "theta_deg": "in [0, 90]"}, locals())
    if theta_deg == 0.0:
        return math.inf
    if theta_deg == 90.0:
        return 0.0
    return h / math.tan(math.radians(theta_deg))


@dataclass(frozen=True)
class HataParams:
    """Inputs of the Hata path-loss model.

    Attributes:
        f_mhz: carrier frequency, MHz.
        h_b: base (transmitter) antenna height, metres.
        h_m: mobile (receiver) antenna height, metres.

    Construction raises for non-positive values and warns outside the
    model's nominal ranges (150-1500 MHz, 30-200 m, 1-10 m).
    """

    f_mhz: float
    h_b: float
    h_m: float

    def __post_init__(self):
        for name in ("f_mhz", "h_b", "h_m"):
            v = _require_finite(name, getattr(self, name))
            if v <= 0.0:
                raise DomainError(f"{name} must be > 0, got {v}")
        ranges = (
            ("f_mhz", self.f_mhz, HATA_FREQ_RANGE_MHZ, "MHz"),
            ("h_b", self.h_b, HATA_BASE_HEIGHT_RANGE_M, "m"),
            ("h_m", self.h_m, HATA_MOBILE_HEIGHT_RANGE_M, "m"),
        )
        for name, v, (lo, hi), unit in ranges:
            if not (lo <= v <= hi):
                warnings.warn(
                    f"Hata {name}={v} {unit} outside nominal range "
                    f"[{lo}, {hi}] {unit}; extrapolating",
                    stacklevel=3,
                )


def hata_correction(params: HataParams) -> float:
    """Mobile-antenna correction factor a(h_m) of the Hata model, dB.

    a(h_m) = [1.1 log10(f) - 0.7] h_m - [1.56 log10(f) - 0.8]
    """
    lf = math.log10(params.f_mhz)
    return (1.1 * lf - 0.7) * params.h_m - (1.56 * lf - 0.8)


def hata_path_loss(params: HataParams, d_km: float) -> float:
    """Hata path loss A + B log10(d) in dB for distance d in kilometres.

    A = 69.55 + 26.16 log10(f) - 13.82 log10(h_b) - a(h_m)
    B = 44.9 - 6.55 log10(h_b)
    """
    d_km = _require_finite("d_km", d_km)
    if d_km <= 0.0:
        raise DomainError(f"d_km must be > 0, got {d_km}")
    a = 69.55 + 26.16 * math.log10(params.f_mhz) \
        - 13.82 * math.log10(params.h_b) - hata_correction(params)
    b = 44.9 - 6.55 * math.log10(params.h_b)
    return a + b * math.log10(d_km)


@dataclass(frozen=True)
class A2GParams:
    """Inputs of the air-to-ground path-loss model.

    Attributes:
        f_c: carrier frequency, Hz.
        env: environment supplying the excess losses (and, for the
            probability-weighted mean, the P_LoS parameters).

    The propagation speed is SPEED_OF_LIGHT.
    """

    f_c: float
    env: Environment

    def __post_init__(self):
        require(DomainError, {"f_c": "finite and > 0"}, vars(self))


def free_space_path_loss(f_c: float, d: float) -> float:
    """Free-space path loss 20 log10(4 pi f_c d / c) in dB.

    f_c in Hz, d in metres. Zero dB at d = c / (4 pi f_c); each doubling of
    d adds 20 log10(2) dB.
    """
    require(DomainError, {"f_c": "finite and > 0", "d": "finite and > 0"}, locals())
    return 20.0 * math.log10(4.0 * math.pi * f_c * d / SPEED_OF_LIGHT)


def a2g_path_loss(params: A2GParams, geom: LinkGeometry, los: bool) -> float:
    """Air-to-ground path loss: free-space loss plus environment excess, dB.

    The excess term is eps_los_db for LoS links, eps_nlos_db otherwise.
    Distance is the slant range of the geometry.
    """
    base = free_space_path_loss(params.f_c, slant_distance(geom))
    return base + (params.env.eps_los_db if los else params.env.eps_nlos_db)


def plos_product(
    env: Environment,
    h_t: float,
    h_r: float,
    r: float,
    mode: str = "canonical",
) -> float:
    """LoS probability from built-up area statistics (product form).

    Multiplies, over the m + 1 buildings expected along the ground path,
    the probability that each building's Rayleigh-distributed height stays
    below the ray:

        prod_{n=0..m} [1 - exp(-(h_t - (n + 1/2)(h_t - h_r)/(m + 1))^2
                               / (2 gamma^2))]

    with m = floor(r sqrt(alpha beta) - 1). beta counts buildings per
    square kilometre, so the ground distance r (metres) is converted to
    kilometres for the building count. m < 0 means no obstruction
    candidates and probability 1; r = infinity gives probability 0. More
    than 10^6 buildings (m + 1) is a DomainError.

    In "paper_literal" mode the ray-height term drops the division by
    (m + 1), reproducing a variant without the per-building position
    scaling; "canonical" is the default.
    """
    h_t = _require_finite("h_t", h_t)
    h_r = _require_finite("h_r", h_r)
    if not math.isfinite(r) and not (math.isinf(r) and r > 0):
        raise DomainError(f"r must be finite or +inf, got {r!r}")
    if mode not in ("canonical", "paper_literal"):
        raise ConfigurationError(f"unknown plos_product mode {mode!r}")
    if h_r < 0.0 or h_t <= h_r:
        raise DomainError(
            f"need h_t > h_r >= 0, got h_t={h_t}, h_r={h_r}"
        )
    if r < 0.0:
        raise DomainError(f"r must be >= 0, got {r}")
    if math.isinf(r):
        return 0.0
    m = math.floor((r / 1000.0) * math.sqrt(env.alpha * env.beta) - 1.0)
    if m < 0:
        return 1.0
    if m + 1 > 10**6:  # one loop step per building
        raise DomainError(f"r={r}: m + 1 = {m + 1} buildings on the path, over 10^6")
    two_gamma_sq = 2.0 * env.gamma * env.gamma or math.ulp(0.0)  # gamma**2 underflowed
    scale = (h_t - h_r) / (m + 1) if mode == "canonical" else (h_t - h_r)
    log_p = 0.0
    for n in range(m + 1):
        ray_h = h_t - (n + 0.5) * scale
        factor = -math.expm1(-ray_h * ray_h / two_gamma_sq)
        if factor <= 0.0:
            return 0.0
        log_p += math.log(factor)
        if log_p < -745.0:  # below exp underflow; product is 0
            return 0.0
    return math.exp(log_p)


def plos_holis(env: Environment, theta_deg: float) -> float:
    """LoS probability from the continuous elevation curve, clamped to [0,1].

    P(theta) = c1 - (c1 - c2) / (1 + ((theta - c3)/c4)^c5)

    c3 is the zero-offset angle where P = c2 exactly. Below c3 the ratio
    is negative and a fractional c5 would be undefined, so theta <= c3
    returns the low-angle asymptote c2. Values outside [0, 1] (possible
    for extreme parameters) are clamped with a logged diagnostic.
    """
    theta_deg = _require_finite("theta_deg", theta_deg)
    if env.c is None:
        raise ConfigurationError(
            f"environment {env.name!r} has no c parameters; "
            "the elevation-curve P_LoS model is unavailable"
        )
    if not (0.0 <= theta_deg <= 90.0):
        raise DomainError(f"theta_deg must be in [0, 90], got {theta_deg}")
    c1, c2, c3, c4, c5 = env.c
    if theta_deg <= c3:
        p = c2
    else:
        try:
            p = c1 - (c1 - c2) / (1.0 + ((theta_deg - c3) / c4) ** c5)
        except ArithmeticError:  # the power is past the float range: P is c1
            p = c1
    if not 0.0 <= p <= 1.0:  # NaN too, from c1 - c2 past the float range
        clamped = min(1.0, max(0.0, p))
        logger.warning(
            "plos_holis(%s, theta=%g) = %g outside [0, 1]; clamped to %g",
            env.name, theta_deg, p, clamped,
        )
        p = clamped
    return p


def plos_sigmoid(env: Environment, theta_deg: float) -> float:
    """LoS probability from the sigmoid S-curve model.

    P(theta) = 1 / (1 + a exp(-b (theta - a)))

    Strictly increasing in theta for a, b > 0; a acts both as the curve
    coefficient and as the angle offset.
    """
    theta_deg = _require_finite("theta_deg", theta_deg)
    if env.sigmoid is None:
        raise ConfigurationError(
            f"environment {env.name!r} has no sigmoid parameters; "
            "the S-curve P_LoS model is unavailable"
        )
    if not (0.0 <= theta_deg <= 90.0):
        raise DomainError(f"theta_deg must be in [0, 90], got {theta_deg}")
    a, b = env.sigmoid
    try:
        return 1.0 / (1.0 + a * math.exp(-b * (theta_deg - a)))
    except OverflowError:  # a exp(...) is past the float range: P is 0
        return 0.0


# Sigmoid fit search windows; geometric grids refined around the best cell.
_FIT_A_RANGE = (0.05, 120.0)
_FIT_B_RANGE = (0.005, 2.0)
_FIT_ROUNDS = 8
_FIT_GRID = 21


def fit_sigmoid(samples: list[tuple[float, float]]) -> tuple[float, float]:
    """Least-squares fit of the sigmoid P_LoS parameters (a, b).

    Deterministic coarse-to-fine search: a geometric 21 x 21 grid over
    (a, b) is evaluated and re-centered on the best cell for 8 rounds,
    shrinking the window each time. Recovers parameters of
    noise-free sigmoid data to well under 1e-3 relative error.

    Samples are (theta_deg, plos) pairs; at least 3 are required, thetas
    must be distinct and plos strictly inside (0, 1).
    """
    import numpy as np

    if len(samples) < 3:
        raise FitError(f"need at least 3 samples, got {len(samples)}")
    thetas = np.array([float(t) for t, _ in samples])
    plos = np.array([float(p) for _, p in samples])
    if not (np.all(np.isfinite(thetas)) and np.all(np.isfinite(plos))):
        raise FitError("fit samples must be finite")
    if len(set(thetas.tolist())) != len(thetas):
        raise FitError("duplicate theta values in fit samples")
    if np.any(plos <= 0.0) or np.any(plos >= 1.0):
        raise FitError("plos samples must lie strictly inside (0, 1)")
    if np.ptp(plos) == 0.0:
        raise FitError("constant plos samples cannot constrain the fit")

    lo_a, hi_a = _FIT_A_RANGE
    lo_b, hi_b = _FIT_B_RANGE
    best_a = best_b = None
    for _ in range(_FIT_ROUNDS):
        grid_a = np.geomspace(lo_a, hi_a, _FIT_GRID)
        grid_b = np.geomspace(lo_b, hi_b, _FIT_GRID)
        pred = 1.0 / (
            1.0
            + grid_a[:, None, None]
            * np.exp(-grid_b[None, :, None] * (thetas[None, None, :] - grid_a[:, None, None]))
        )
        sse = ((pred - plos[None, None, :]) ** 2).sum(axis=2)
        i, j = np.unravel_index(int(np.argmin(sse)), sse.shape)
        best_a, best_b = float(grid_a[i]), float(grid_b[j])
        lo_a, hi_a = grid_a[max(i - 2, 0)], grid_a[min(i + 2, _FIT_GRID - 1)]
        lo_b, hi_b = grid_b[max(j - 2, 0)], grid_b[min(j + 2, _FIT_GRID - 1)]
    return best_a, best_b


def _plos_fn(plos_model: str):
    """The PLOS entry of a model name; ConfigurationError if unknown."""
    if plos_model not in PLOS_MODELS:
        raise ConfigurationError(
            f"unknown plos model {plos_model!r}; expected one of {PLOS_MODELS}"
        )
    return PLOS[plos_model]


def mean_path_loss(
    params: A2GParams,
    geom: LinkGeometry,
    plos_model: str = "sigmoid",
    rx_height_m: float = 1.5,
) -> float:
    """Probability-weighted air-to-ground path loss, dB.

    P_los * PL_los + (1 - P_los) * PL_nlos with P_los from the selected
    model ("sigmoid", "holis" or "product"). The angle-based models use
    the geometry's elevation angle; the product model uses the ground
    distance with the given receiver height. Lies between the LoS and NLoS
    branches, to within rounding.
    """
    p = _plos_fn(plos_model)(
        params.env, elevation_angle(geom), geom.h, geom.r, rx_height_m
    )
    pl_los = a2g_path_loss(params, geom, los=True)
    pl_nlos = a2g_path_loss(params, geom, los=False)
    return p * pl_los + (1.0 - p) * pl_nlos


def _channel_rows(
    env: Environment,
    geometries: list[tuple[float, float]],
    f_mhz: float,
    pl_model: str,
    plos_model: str,
    rx_height_m: float,
) -> tuple[list[float], list[float]]:
    """Path loss and P_LoS of every (h, r) row of a dataset, in one pass.

    Returns, bit for bit, what mean_path_loss ("a2g_mean") or hata_path_loss
    of the slant range ("hata") and the P_LoS model return row by row: every
    operation keeps their order and uses math.*, not numpy ufuncs, which
    round differently in the last bit. P_LoS is evaluated once per row (the
    product model once per altitude and building count). A row's
    DomainError is raised again prefixed "row {i}: ".
    """
    plos_fn = _plos_fn(plos_model)
    if pl_model not in PL_MODELS:
        raise ConfigurationError(
            f"unknown path loss model {pl_model!r}; expected one of {PL_MODELS}"
        )
    if plos_model == "product":
        # plos_product depends on r only through the building count m,
        # computed here exactly as there (r is finite in a valid row).
        sqrt_ab = math.sqrt(env.alpha * env.beta)
        by_count: dict[tuple[float, int], float] = {}

        def product_by_count(env, theta, h, r, rx):
            key = (h, math.floor((r / 1000.0) * sqrt_ab - 1.0))
            if key not in by_count:
                by_count[key] = plos_product(env, h, rx, r)
            return by_count[key]

        plos_fn = product_by_count
    eps_los, eps_nlos = env.eps_los_db, env.eps_nlos_db
    pl_out, plos_out = [], []
    i = 0
    try:
        if pl_model == "a2g_mean":
            k = 4.0 * math.pi * A2GParams(f_c=f_mhz * 1e6, env=env).f_c
        for i, (h, r) in enumerate(geometries):
            if not (0.0 <= h < math.inf and 0.0 <= r < math.inf) or h == r == 0.0:
                LinkGeometry(h=h, r=r)  # raises the DomainError naming the fault
            p = plos_fn(env, math.degrees(math.atan2(h, r)), h, r, rx_height_m)
            d = math.hypot(r, h)
            if pl_model == "a2g_mean":
                base = 20.0 * math.log10(k * d / SPEED_OF_LIGHT)
                pl = p * (base + eps_los) + (1.0 - p) * (base + eps_nlos)
            else:
                hp = HataParams(f_mhz=f_mhz, h_b=h, h_m=rx_height_m)
                pl = hata_path_loss(hp, d / 1000.0)
            pl_out.append(pl)
            plos_out.append(p)
    except DomainError as exc:
        raise DomainError(f"row {i}: {exc}") from exc
    return pl_out, plos_out
