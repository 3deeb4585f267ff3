"""Rician small-scale fading: PDF, K-factor conversions, and sampling.

The amplitude density is evaluated in log space internally (with log I0 of
the modified Bessel function) so large LoS-to-scatter ratios do not overflow
before the final exponentiation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, require

# Switch point between the I0 power series and its asymptotic expansion.
_I0_ASYMPTOTIC_CUTOFF = 15.0
_I0_RELATIVE_TOL = 1e-16


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
        require(
            DomainError, {"s": "finite and >= 0", "delta": "finite and > 0"}, vars(self)
        )


def _log_bessel_i0(x: float) -> float:
    """log I0(x) for x >= 0, accurate across both evaluation regimes."""
    if x <= _I0_ASYMPTOTIC_CUTOFF:
        # Power series sum_k (x^2/4)^k / (k!)^2, stopped at relative 1e-16.
        term = 1.0
        total = 1.0
        k = 0
        q = x * x / 4.0
        while True:
            k += 1
            term *= q / (k * k)
            total += term
            if term < _I0_RELATIVE_TOL * total:
                return math.log(total)
    # Asymptotic form e^x / sqrt(2 pi x) * sum_k a_k / x^k with
    # a_0 = 1, a_k = a_{k-1} (2k - 1)^2 / (8k); summed until terms stop
    # shrinking (the series is divergent but its partial sums reach
    # ~e^{-2x} relative accuracy at the smallest term).
    coeff = 1.0
    total = 1.0
    prev = math.inf
    k = 0
    while True:
        k += 1
        coeff *= (2 * k - 1) ** 2 / (8.0 * k)
        term = coeff / x**k
        if term >= prev or term < _I0_RELATIVE_TOL * total:
            if term < prev:
                total += term
            break
        total += term
        prev = term
    return x - 0.5 * math.log(2.0 * math.pi * x) + math.log(total)


def bessel_i0(x: float) -> float:
    """Modified Bessel function of the first kind, order zero.

    Even in x. Evaluated by power series up to |x| = 15 and by the
    asymptotic expansion beyond, where the direct series would need the
    explicit exponential that this function exists to keep in log space
    for density ratios.
    """
    require(DomainError, {"x": "finite"}, locals())
    return math.exp(_log_bessel_i0(abs(x)))


def rician_pdf(params: RicianParams, r: float) -> float:
    """Rician amplitude density at r >= 0.

    f(r) = (r / delta^2) exp(-(r^2 + s^2) / (2 delta^2)) I0(r s / delta^2)

    s = 0 reduces to the Rayleigh density; large K concentrates the mass
    near s with an approximately Gaussian shape of width delta.
    """
    if not math.isfinite(r):
        raise DomainError(f"r must be finite, got {r!r}")
    if r < 0.0:
        raise DomainError(f"r must be >= 0, got {r}")
    if r == 0.0:
        return 0.0
    s, delta = params.s, params.delta
    var = delta * delta
    log_f = (
        math.log(r)
        - math.log(var)
        - (r * r + s * s) / (2.0 * var)
        + _log_bessel_i0(r * s / var)
    )
    return math.exp(log_f)


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
    s = math.sqrt(mean_power * k / (k + 1.0))
    delta = math.sqrt(mean_power / (2.0 * (k + 1.0)))
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
        params = RicianParams(s, s / math.sqrt(2.0 * 10.0 ** (k_db / 10.0)))
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
