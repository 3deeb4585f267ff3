"""Line-of-sight probability models and the sigmoid fitter."""

from __future__ import annotations

import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skylink import (
    A2GParams,
    ConfigurationError,
    DomainError,
    Environment,
    FitError,
    LinkGeometry,
    a2g_path_loss,
    fit_sigmoid,
    mean_path_loss,
    plos_holis,
    plos_product,
    plos_sigmoid,
)
from skylink.channel_models import PLOS


def product_oracle(alpha, beta, gamma, h_t, h_r, r, literal=False):
    """Arbitrary-precision evaluation of the building-obstruction product."""
    import mpmath

    mpmath.mp.dps = 60
    r_km = mpmath.mpf(r) / 1000
    m = int(mpmath.floor(r_km * mpmath.sqrt(mpmath.mpf(alpha) * beta) - 1))
    if m < 0:
        return 1.0
    p = mpmath.mpf(1)
    for n in range(m + 1):
        num = h_t - (n + mpmath.mpf(1) / 2) * (h_t - h_r)
        if not literal:
            num = h_t - (n + mpmath.mpf(1) / 2) * (h_t - h_r) / (m + 1)
        p *= 1 - mpmath.e ** (-(num**2) / (2 * mpmath.mpf(gamma) ** 2))
    return float(p)


class TestProductModel:
    def test_short_range_has_no_obstructions(self, urban):
        # Below the first building-count threshold the product is empty.
        assert plos_product(urban, h_t=100.0, h_r=1.5, r=10.0) == 1.0

    def test_matches_arbitrary_precision_oracle(self, urban):
        got = plos_product(urban, h_t=100.0, h_r=1.5, r=500.0)
        want = product_oracle(0.3, 500.0, 15.0, 100.0, 1.5, 500.0)
        assert got == pytest.approx(want, rel=1e-12)

    def test_oracle_agreement_across_environments(
        self, suburban, urban, dense_urban
    ):
        specs = {
            "suburban": (0.1, 750.0, 8.0),
            "urban": (0.3, 500.0, 15.0),
            "dense-urban": (0.5, 300.0, 20.0),
        }
        for env in (suburban, urban, dense_urban):
            a, b, g = specs[env.name]
            for r in (120.0, 400.0, 900.0, 2500.0):
                got = plos_product(env, h_t=80.0, h_r=1.5, r=r)
                want = product_oracle(a, b, g, 80.0, 1.5, r)
                assert got == pytest.approx(want, rel=1e-11, abs=1e-300)

    def test_nonincreasing_in_ground_distance(self, urban):
        rs = np.linspace(10.0, 5000.0, 300)
        ps = [plos_product(urban, 100.0, 1.5, float(r)) for r in rs]
        for a, b in zip(ps, ps[1:]):
            assert b <= a + 1e-12

    def test_bounded_probability(self, suburban, urban, dense_urban):
        rng = np.random.default_rng(17)
        for env in (suburban, urban, dense_urban):
            for _ in range(100):
                h = float(rng.uniform(2.0, 400.0))
                r = float(rng.uniform(1.0, 8000.0))
                p = plos_product(env, h, 1.5, r)
                assert 0.0 <= p <= 1.0

    def test_infinite_range_is_fully_blocked(self, urban):
        assert plos_product(urban, 100.0, 1.5, math.inf) == 0.0

    def test_vanishing_height_spread_clears_path(self, urban):
        # gamma -> 0 shrinks building heights to zero, so every factor
        # 1 - exp(-h_n^2 / (2 gamma^2)) tends to 1 and the ray clears.
        tight = Environment(
            name="tight", alpha=0.3, beta=500.0, gamma=1e-9,
            eps_los_db=1.0, eps_nlos_db=20.0,
        )
        assert plos_product(tight, 100.0, 1.5, 500.0) == pytest.approx(1.0)

    def test_literal_mode_differs_and_is_smaller(self, urban):
        canonical = plos_product(urban, 100.0, 1.5, 500.0)
        literal = plos_product(urban, 100.0, 1.5, 500.0, mode="paper_literal")
        want = product_oracle(0.3, 500.0, 15.0, 100.0, 1.5, 500.0, literal=True)
        assert literal == pytest.approx(want, rel=1e-11)
        assert literal != canonical

    def test_invalid_heights_rejected(self, urban):
        with pytest.raises(DomainError):
            plos_product(urban, h_t=0.0, h_r=1.5, r=500.0)
        with pytest.raises(DomainError):
            plos_product(urban, h_t=100.0, h_r=-1.0, r=500.0)
        with pytest.raises(DomainError):
            plos_product(urban, h_t=100.0, h_r=math.nan, r=500.0)
        with pytest.raises(DomainError):
            plos_product(urban, h_t=100.0, h_r=1.5, r=-1.0)

    def test_unknown_mode_rejected(self, urban):
        with pytest.raises(ConfigurationError):
            plos_product(urban, 100.0, 1.5, 500.0, mode="other")

    def test_more_than_a_million_buildings_rejected(self):
        # sqrt(alpha beta) = 1, so m + 1 = floor(r / 1000) buildings.
        unit = Environment(
            name="unit", alpha=1.0, beta=1.0, gamma=15.0,
            eps_los_db=1.0, eps_nlos_db=20.0,
        )
        # 10^6 buildings still run; a 2 m UAV drops below exp's range early.
        assert plos_product(unit, 2.0, 1.5, 1e9) == 0.0
        with pytest.raises(DomainError) as excinfo:
            plos_product(unit, 2.0, 1.5, 1e9 + 1000.0)
        assert str(excinfo.value) == (
            "r=1000001000.0: m + 1 = 1000001 buildings on the path, over 10^6"
        )


class TestHolisModel:
    def test_pinned_midpoint(self):
        env = Environment(
            name="x", alpha=0.3, beta=500.0, gamma=15.0,
            eps_los_db=1.0, eps_nlos_db=20.0, c=(1.0, 0.0, 20.0, 10.0, 2.0),
        )
        assert plos_holis(env, theta_deg=30.0) == pytest.approx(0.5, abs=1e-12)

    def test_low_angle_floor(self):
        env = Environment(
            name="x", alpha=0.3, beta=500.0, gamma=15.0,
            eps_los_db=1.0, eps_nlos_db=20.0, c=(1.0, 0.05, 20.0, 10.0, 2.0),
        )
        assert plos_holis(env, theta_deg=20.0) == 0.05
        assert plos_holis(env, theta_deg=5.0) == 0.05

    def test_approaches_ceiling_at_high_angles(self, urban):
        p_low = plos_holis(urban, theta_deg=20.0)
        p_high = plos_holis(urban, theta_deg=89.0)
        assert p_high > p_low
        assert p_high > 0.9

    def test_nondecreasing_in_angle(self, suburban, urban, dense_urban):
        for env in (suburban, urban, dense_urban):
            thetas = np.linspace(0.5, 90.0, 180)
            ps = [plos_holis(env, float(t)) for t in thetas]
            for a, b in zip(ps, ps[1:]):
                assert b >= a - 1e-12

    def test_out_of_band_values_clamped_with_diagnostic(self, caplog):
        env = Environment(
            name="x", alpha=0.3, beta=500.0, gamma=15.0,
            eps_los_db=1.0, eps_nlos_db=20.0, c=(1.4, 0.0, 20.0, 10.0, 2.0),
        )
        with caplog.at_level(logging.WARNING, logger="skylink.channel_models"):
            p = plos_holis(env, theta_deg=89.9)
        assert p == 1.0
        assert any("clamp" in rec.message for rec in caplog.records)

    def test_requires_coefficients(self):
        env = Environment(
            name="x", alpha=0.3, beta=500.0, gamma=15.0,
            eps_los_db=1.0, eps_nlos_db=20.0,
        )
        with pytest.raises(ConfigurationError):
            plos_holis(env, theta_deg=45.0)

    def test_bad_angle_rejected(self, urban):
        with pytest.raises(DomainError):
            plos_holis(urban, theta_deg=-1.0)
        with pytest.raises(DomainError):
            plos_holis(urban, theta_deg=91.0)


class TestSigmoidModel:
    def test_value_at_offset_angle(self, urban):
        a, _ = urban.sigmoid
        assert plos_sigmoid(urban, theta_deg=a) == pytest.approx(
            1.0 / (1.0 + a), abs=1e-12
        )

    def test_saturates_toward_one(self, urban):
        assert plos_sigmoid(urban, theta_deg=90.0) > 0.999

    def test_monotone_increasing(self, suburban, urban, dense_urban):
        # Strict growth is checked away from 90 degrees; near saturation
        # consecutive values can tie at the last representable ulp below 1.
        for env in (suburban, urban, dense_urban):
            ps = [
                plos_sigmoid(env, float(t)) for t in np.linspace(0.0, 90.0, 200)
            ]
            assert all(b >= a for a, b in zip(ps, ps[1:]))
            low = [
                plos_sigmoid(env, float(t)) for t in np.linspace(0.0, 60.0, 120)
            ]
            assert all(b > a for a, b in zip(low, low[1:]))

    def test_requires_coefficients(self):
        env = Environment(
            name="x", alpha=0.3, beta=500.0, gamma=15.0,
            eps_los_db=1.0, eps_nlos_db=20.0,
        )
        with pytest.raises(ConfigurationError):
            plos_sigmoid(env, theta_deg=45.0)

    @pytest.mark.parametrize("theta", [-1.0, 91.0])
    def test_angle_outside_0_to_90_rejected(self, urban, theta):
        with pytest.raises(DomainError) as excinfo:
            plos_sigmoid(urban, theta_deg=theta)
        assert str(excinfo.value) == f"theta_deg must be in [0, 90], got {theta}"


class TestSigmoidFit:
    def test_recovers_known_coefficients(self):
        a_true, b_true = 9.61, 0.16
        thetas = np.linspace(5.0, 85.0, 30)
        samples = [
            (float(t), 1.0 / (1.0 + a_true * math.exp(-b_true * (t - a_true))))
            for t in thetas
        ]
        a, b = fit_sigmoid(samples)
        assert a == pytest.approx(a_true, rel=1e-3)
        assert b == pytest.approx(b_true, rel=1e-3)

    def test_recovery_across_parameter_space(self):
        # Ranges bracket the published environment coefficients; steeper
        # curves saturate to exactly 1.0 in double precision and are
        # rejected by the sample validation instead.
        rng = np.random.default_rng(23)
        thetas = np.linspace(2.0, 88.0, 40)
        for _ in range(10):
            a_true = float(rng.uniform(2.0, 15.0))
            b_true = float(rng.uniform(0.05, 0.4))
            samples = [
                (float(t), 1.0 / (1.0 + a_true * math.exp(-b_true * (t - a_true))))
                for t in thetas
            ]
            a, b = fit_sigmoid(samples)
            assert a == pytest.approx(a_true, rel=1e-3)
            assert b == pytest.approx(b_true, rel=1e-3)

    def test_is_deterministic(self):
        thetas = np.linspace(5.0, 85.0, 25)
        samples = [
            (float(t), 1.0 / (1.0 + 4.88 * math.exp(-0.43 * (t - 4.88))))
            for t in thetas
        ]
        assert fit_sigmoid(samples) == fit_sigmoid(samples)

    def test_fits_product_curve_closely(self, suburban):
        # The angle-parameterised product curve for a suburban layout should
        # be explainable by the two-coefficient sigmoid to a few percent.
        h = 100.0
        samples = []
        for theta in range(10, 91):
            r = h / math.tan(math.radians(theta)) if theta < 90 else 0.0
            p = plos_product(suburban, h, 1.5, r)
            if 0.0 < p < 1.0:
                samples.append((float(theta), p))
        a, b = fit_sigmoid(samples)
        resid = [
            p - 1.0 / (1.0 + a * math.exp(-b * (t - a))) for t, p in samples
        ]
        rmse = math.sqrt(sum(e * e for e in resid) / len(resid))
        assert rmse < 0.05

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(FitError):
            fit_sigmoid([(10.0, 0.2), (20.0, 0.4)])
        with pytest.raises(FitError):
            fit_sigmoid([(10.0, 0.2), (10.0, 0.3), (20.0, 0.4)])
        with pytest.raises(FitError):
            fit_sigmoid([(10.0, 0.5), (20.0, 0.5), (30.0, 0.5)])
        with pytest.raises(FitError):
            fit_sigmoid([(10.0, 0.0), (20.0, 0.4), (30.0, 0.6)])
        with pytest.raises(FitError):
            fit_sigmoid([(10.0, 0.2), (20.0, math.nan), (30.0, 0.6)])


FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def environments(draw):
    """Any environment the Environment rules accept, with both angle models.

    beta stays below 1e4 per km^2: plos_product loops over the buildings
    along the path, so beta and r bound its run time, not its value.
    """
    eps_los = draw(st.floats(0.0, 1e3))
    return Environment(
        name="drawn",
        alpha=draw(st.floats(0.0, 1.0, exclude_min=True)),
        beta=draw(st.floats(0.0, 1e4, exclude_min=True)),
        gamma=draw(POSITIVE),
        eps_los_db=eps_los,
        eps_nlos_db=eps_los + draw(st.floats(0.0, 1e3)),
        c=(draw(FINITE), draw(FINITE), draw(FINITE), draw(POSITIVE), draw(FINITE)),
        sigmoid=(draw(POSITIVE), draw(POSITIVE)),
    )


ANGLES = st.floats(0.0, 90.0)
HEIGHTS = st.floats(1e-3, 1e4)
RANGES = st.floats(0.0, 1e5)  # metres; with beta, bounds the product's loop


class TestProperties:
    @settings(max_examples=300, deadline=None)
    @given(environments(), ANGLES, HEIGHTS, RANGES, st.floats(0.0, 0.99))
    def test_every_model_lies_in_unit_interval(self, env, theta, h, r, rx_share):
        for name, plos in PLOS.items():
            assert 0.0 <= plos(env, theta, h, r, h * rx_share) <= 1.0, name

    @settings(max_examples=300, deadline=None)
    @given(environments(), ANGLES, ANGLES)
    def test_sigmoid_rises_with_angle(self, env, theta_1, theta_2):
        low, high = sorted((theta_1, theta_2))
        assert plos_sigmoid(env, low) <= plos_sigmoid(env, high)

    @settings(max_examples=300, deadline=None)
    @given(
        environments(), HEIGHTS, RANGES, st.floats(1e6, 1e11),
        st.sampled_from(sorted(PLOS)),
    )
    def test_mean_path_loss_between_branches(self, env, h, r, f_c, model):
        params, geom = A2GParams(f_c=f_c, env=env), LinkGeometry(h=h, r=r)
        mean = mean_path_loss(params, geom, model, rx_height_m=h / 2)
        los = a2g_path_loss(params, geom, los=True)
        nlos = a2g_path_loss(params, geom, los=False)
        # p * los + (1 - p) * nlos rounds three times, each within an ulp of
        # the larger branch; with los == nlos it can land an ulp off.
        tol = 4 * math.ulp(max(abs(los), abs(nlos)))
        assert los - tol <= mean <= nlos + tol
