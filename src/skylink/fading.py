"""Rician small-scale fading: PDF, K-factor conversions, and sampling.

The density and bessel_i0 share one array routine for log(I0(z) e^-z). The
density takes a float or an array of envelope values and is summed in log
space as log r - log delta^2 - (r - s)^2 / (2 delta^2) + [log I0(z) - z],
z = r s / delta^2, so no two terms of size ~K cancel at a large K.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, require

_SERIES_LIMIT = 30.0  # I0 by its power series up to here, asymptotically above
# Coefficients, highest order first, of sum_k (z^2/4)^k / (k!)^2 (50 terms)
# and of I0(z) e^-z sqrt(2 pi z) = sum_k ((2k - 1)!!)^2 / (k! 8^k) z^-k (20).
_SERIES = [1.0 / math.factorial(k) ** 2 for k in reversed(range(50))]
_ASYMPTOTIC = [
    math.factorial(2 * k) ** 2 / (math.factorial(k) ** 3 * 32**k)
    for k in reversed(range(20))
]
_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class RicianParams:
    """Rician amplitude parameters.

    Attributes:
        s: field strength of the LoS component, linear amplitude, >= 0.
        delta: standard deviation of each scattered quadrature component,
            linear amplitude, > 0.
    """

    s: float
    delta: float

    def __post_init__(self):
        rules = {"s": "finite and >= 0", "delta": "finite and > 0"}
        vars(self).update(require(DomainError, rules, vars(self)))


def _log_i0e(z: np.ndarray) -> np.ndarray:
    """log(I0(z) e^-z) of an array z >= 0; an infinite z gives -inf.

    Both series go term by term by Horner's rule, in z^2/4 and in 1/z. The
    asymptotic one's smallest term, near k = 2z, is ~e^-2z: below rounding.
    """
    out = np.empty_like(z)
    small = z <= _SERIES_LIMIT
    zs, zl = z[small], z[~small]
    out[small] = np.log(np.polyval(_SERIES, zs * zs / 4.0) * np.exp(-zs))
    out[~small] = np.log(np.polyval(_ASYMPTOTIC, 1.0 / zl) / np.sqrt(zl)) - _LOG_2PI / 2
    return out


def bessel_i0(x: float) -> float:
    """Modified Bessel function of the first kind, order zero.

    Even in x: exp(|x| + log(I0(|x|) e^-|x|)). An x whose I0 leaves the
    float range (|x| > ~713.98) is a DomainError.
    """
    require(DomainError, {"x": "finite"}, locals())
    z = abs(float(x))
    try:
        return math.exp(float(_log_i0e(np.asarray(z))) + z)
    except OverflowError:
        raise DomainError(f"x must keep I0(x) in float range, got {x!r}") from None


def rician_pdf(params: RicianParams, r: float | np.ndarray) -> float | np.ndarray:
    """Rician amplitude density at r >= 0; an array r gives an array.

    f(r) = (r / delta^2) exp(-(r^2 + s^2) / (2 delta^2)) I0(r s / delta^2)

    s = 0 reduces to the Rayleigh density; large K concentrates the mass
    near s with an approximately Gaussian shape of width delta. A density
    past the float range (delta near the smallest floats) is a DomainError.
    """
    x = np.asarray(r, dtype=float)
    bad = x[~((x >= 0.0) & (x <= sys.float_info.max))]
    if bad.size:  # the first bad value, checked as a float r is
        rule = ">= 0" if np.isfinite(bad[0]) else "finite"
        raise DomainError(f"r must be {rule}, got {bad[0]}")
    log_var = 2.0 * math.log(params.delta)
    with np.errstate(divide="ignore", over="ignore"):  # log 0 = -inf, exp -> inf
        log_r = np.log(x)
        log_z = log_r + np.log(params.s) - log_var  # no delta^2 to underflow
        z = np.exp(log_z)
        log_i0e, big = _log_i0e(z), np.isinf(z)  # big: z past the float range,
        log_i0e[big] = -0.5 * (_LOG_2PI + log_z[big])  # where the sum in 1/z is 1
        d = (x - params.s) / params.delta
        f = np.exp(log_r - log_var - 0.5 * d * d + log_i0e)
    over = x[np.isinf(f)]
    if over.size:
        raise DomainError(f"r must keep the density in float range, got {over[0]}")
    return float(f) if f.ndim == 0 else f


def k_factor(params: RicianParams) -> float:
    """Rician K-factor s^2 / (2 delta^2), dimensionless power ratio."""
    return params.s * params.s / (2.0 * params.delta * params.delta)


def k_factor_db(params: RicianParams) -> float:
    """K-factor in dB; K = 0 (pure Rayleigh) maps to -inf."""
    k = k_factor(params)
    if k == 0.0:
        return -math.inf
    return 10.0 * math.log10(k)


def params_from_k(k: float, mean_power: float = 1.0) -> RicianParams:
    """RicianParams with the given linear K-factor and mean power E[r^2].

    Inverts K = s^2 / (2 delta^2) under s^2 + 2 delta^2 = mean_power:
    s^2 = mean_power K / (K + 1), 2 delta^2 = mean_power / (K + 1).
    K = 0 gives the Rayleigh special case.
    """
    require(
        DomainError, {"k": "finite and >= 0", "mean_power": "finite and > 0"}, locals()
    )
    s_sq = mean_power * k / (k + 1.0)
    if math.isinf(s_sq):  # mean_power K overflowed; dividing first rounds otherwise
        s_sq = mean_power * (k / (k + 1.0))
    s = math.sqrt(s_sq)
    delta = math.sqrt(mean_power / 2.0 / (k + 1.0))  # 2 (K + 1) overflows near 9e307
    return RicianParams(s=s, delta=delta)


def rician_pdf_kdb(k_db: float, s: float, r: float) -> float:
    """Rician amplitude density parameterized by K in dB and s.

    rician_pdf with delta = s / sqrt(2 K) and K = 10^(k_db / 10); a k_db
    whose K or delta leaves the float range is a DomainError.
    """
    require(DomainError, {
        "k_db": "finite", "s": "finite and > 0", "r": "finite and >= 0",
    }, locals())
    try:
        k = 10.0 ** (k_db / 10.0)
        delta = s / math.sqrt(2.0 * k)
        if math.isinf(2.0 * k):  # K past ~9e307: split the root, delta stays a float
            delta = s / math.sqrt(2.0) / math.sqrt(k)
        params = RicianParams(s, delta)
    except (ArithmeticError, DomainError):
        raise DomainError(
            f"k_db must keep K and s / sqrt(2 K) in float range, got {k_db!r}"
        ) from None
    return rician_pdf(params, r)


def _rician_power(params: RicianParams, g1, g2):
    """Rician power (s + delta g1)^2 + (delta g2)^2 of standard normal g1, g2."""
    return (params.s + params.delta * g1) ** 2 + (params.delta * g2) ** 2


def sample_rician(params: RicianParams, n: int, seed: int) -> np.ndarray:
    """Draw n Rician amplitudes deterministically for the given seed.

    Each draw is sqrt((s + delta g1)^2 + (delta g2)^2) with g1, g2
    independent standard normal variates from a dedicated generator.
    """
    require(DomainError, {"n": "int and > 0", "seed": "int and >= 0"}, locals())
    rng = np.random.default_rng(seed)
    g1 = rng.standard_normal(n)
    return np.sqrt(_rician_power(params, g1, rng.standard_normal(n)))
