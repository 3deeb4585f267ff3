"""Rician envelope statistics and the modified Bessel evaluation."""

from __future__ import annotations

import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
import scipy.integrate
import scipy.special
import scipy.stats

from skylink import (
    DomainError,
    RicianParams,
    bessel_i0,
    k_factor,
    k_factor_db,
    params_from_k,
    rician_pdf,
    rician_pdf_kdb,
    sample_rician,
)

from conftest import rician_oracle, within_rician_bound

EPS = sys.float_info.epsilon


def i0_series(x, terms=30):
    """Reference power series: sum_k (x^2/4)^k / (k!)^2."""
    q = (x * x) / 4.0
    return sum(q**k / math.factorial(k) ** 2 for k in range(terms))


class TestBesselI0:
    def test_at_zero(self):
        assert bessel_i0(0.0) == 1.0

    def test_small_arguments_match_series(self):
        for x in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
            assert bessel_i0(x) == pytest.approx(i0_series(x), rel=1e-14)

    def test_reference_value_at_one(self):
        assert bessel_i0(1.0) == pytest.approx(1.2660658777520084, rel=1e-14)

    def test_even_function(self):
        for x in (0.3, 1.7, 12.0, 40.0):
            assert bessel_i0(-x) == bessel_i0(x)

    def test_matches_scipy_over_wide_range(self):
        xs = np.geomspace(1e-3, 700.0, 400)
        for x in xs:
            want = scipy.special.i0e(x) * math.exp(x)
            assert bessel_i0(float(x)) == pytest.approx(want, rel=1e-10)

    def test_matches_mpmath_on_both_sides_of_the_series_limit(self):
        # exp(|x| + log(I0 e^-|x|)) carries ~eps |x| from the exponent.
        xs = [*np.linspace(0.0, 700.0, 281), 29.5, 29.999, 30.0, 30.001, 30.5]
        for x in map(float, xs):
            with mpmath.workdps(50):
                want = mpmath.besseli(0, x)
            assert abs(bessel_i0(x) - want) <= 16 * EPS * (1 + x) * want, x

    @pytest.mark.parametrize("x", [713.98, -713.98])
    def test_last_arguments_inside_the_float_range(self, x):
        assert math.isfinite(bessel_i0(x))

    @pytest.mark.parametrize("x", [713.99, -713.99, 800.0])
    def test_past_the_float_range_is_a_domain_error(self, x):
        with pytest.raises(DomainError) as excinfo:
            bessel_i0(x)
        assert str(excinfo.value) == f"x must keep I0(x) in float range, got {x!r}"

    def test_monotone_increasing_for_positive_x(self):
        xs = np.linspace(0.0, 60.0, 500)
        vals = [bessel_i0(float(x)) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestRicianPdf:
    def test_rayleigh_reference_point(self):
        # With no direct component and unit spread, pdf(1) = e^{-1/2}.
        params = RicianParams(s=0.0, delta=1.0)
        assert rician_pdf(params, 1.0) == pytest.approx(
            math.exp(-0.5), abs=1e-15
        )

    def test_rayleigh_matches_closed_form(self):
        params = RicianParams(s=0.0, delta=1.3)
        for r in np.linspace(0.01, 6.0, 80):
            want = (r / 1.3**2) * math.exp(-(r * r) / (2 * 1.3**2))
            assert rician_pdf(params, float(r)) == pytest.approx(want, abs=1e-12)

    def test_zero_at_origin(self):
        assert rician_pdf(RicianParams(s=2.0, delta=1.0), 0.0) == 0.0

    def test_negative_envelope_rejected(self):
        with pytest.raises(DomainError):
            rician_pdf(RicianParams(s=2.0, delta=1.0), -0.1)

    def test_integrates_to_one(self):
        params = RicianParams(s=2.0, delta=1.0)
        total, err = scipy.integrate.quad(
            lambda r: rician_pdf(params, r), 0.0, np.inf
        )
        assert total == pytest.approx(1.0, abs=1e-8)
        assert err < 1e-8

    def test_matches_scipy_rice(self):
        s, delta = 1.7, 0.6
        params = RicianParams(s=s, delta=delta)
        for r in np.linspace(0.05, 5.0, 60):
            want = scipy.stats.rice.pdf(r, s / delta, scale=delta)
            assert rician_pdf(params, float(r)) == pytest.approx(want, rel=1e-10)

    def test_invalid_params_rejected(self):
        with pytest.raises(DomainError):
            RicianParams(s=-1.0, delta=1.0)
        with pytest.raises(DomainError):
            RicianParams(s=1.0, delta=0.0)


MPMATH_K = [0.0, 0.5, 1.0, 3.0, 10.0, 30.0, 50.0, 100.0, 1e3, 1e6, 1e10, 1e14, 1e30]


def log_uniform(low=-323.0, high=308.0):
    """Positive floats spread evenly in log10 over [10^low, 10^high]."""
    return st.floats(low, high).map(lambda e: 10.0**e)


class TestRicianArrays:
    @pytest.mark.parametrize("k", MPMATH_K)
    def test_matches_mpmath(self, k):
        # The grid plus s + j delta, so a large K's narrow peak is sampled.
        params = params_from_k(k)
        grid = np.concatenate([
            np.linspace(0.0, 3.0, 151)[1:],
            params.s + params.delta * np.arange(-4.0, 5.0),
        ])
        grid = grid[(grid > 0.0) & (grid <= 3.0)]
        checked = 0
        for r, got in zip(grid, rician_pdf(params, grid)):
            want = rician_oracle(params.s, params.delta, r)
            if want >= 1e-300:
                assert within_rician_bound(got, want), (k, r, got, want)
                checked += 1
        assert checked >= 9

    @pytest.mark.parametrize("k", [0.0, 3.0, 10.0, 100.0, 1e14])
    def test_array_equals_scalar_calls_bit_for_bit(self, k):
        params = params_from_k(k)
        grid = np.linspace(0.0, 3.0, 401)  # r s / delta^2 on both sides of 30
        got = rician_pdf(params, grid)
        assert [v.hex() for v in got.tolist()] == [
            rician_pdf(params, r).hex() for r in grid.tolist()
        ]

    def test_a_float_gives_a_float_and_an_array_keeps_its_shape(self):
        params = RicianParams(s=1.0, delta=0.5)
        assert type(rician_pdf(params, 1.0)) is float
        assert type(rician_pdf(params, np.float64(1.0))) is float
        got = rician_pdf(params, np.full((2, 3), 1.0))
        assert isinstance(got, np.ndarray) and got.shape == (2, 3)
        assert got.tolist() == [[rician_pdf(params, 1.0)] * 3] * 2

    @pytest.mark.parametrize("r, message", [
        ([0.5, math.nan, -1.0], "r must be finite, got nan"),
        ([0.5, -2.0, math.nan], "r must be >= 0, got -2.0"),
        ([[0.0, 1.0], [math.inf, 2.0]], "r must be finite, got inf"),
        (-0.1, "r must be >= 0, got -0.1"),
        (math.nan, "r must be finite, got nan"),
    ])
    def test_first_bad_r_is_named(self, r, message):
        with pytest.raises(DomainError) as excinfo:
            rician_pdf(RicianParams(s=2.0, delta=1.0), np.asarray(r))
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("s, delta, r, want", [
        (1e300, 1.0, 1e300, 1.0 / math.sqrt(2.0 * math.pi)),
        (1.0, 1e-160, 1.0, 1e160 / math.sqrt(2.0 * math.pi)),
        (1.0, 1e-200, 1.0, 1e200 / math.sqrt(2.0 * math.pi)),
        (0.0, 1.0, 1e200, 0.0),
    ])
    def test_extreme_parameters_keep_the_density(self, s, delta, r, want):
        # Gaussian peaks 1 / (delta sqrt(2 pi)) where r s / delta^2 or
        # delta^2 leave the float range, and a Rayleigh tail that underflows.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = rician_pdf(RicianParams(s=s, delta=delta), r)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_density_past_the_float_range_is_a_domain_error(self):
        with pytest.raises(DomainError) as excinfo:
            rician_pdf(RicianParams(s=0.0, delta=1e-320), np.array([1.0, 1e-320]))
        assert str(excinfo.value) == (
            "r must keep the density in float range, got 1e-320"
        )

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(st.just(0.0), log_uniform()),
        log_uniform(),
        st.one_of(st.just(0.0), log_uniform()),
    )
    @example(1e300, 1.0, 1e300)
    @example(1.0, 1e-160, 1.0)
    @example(1.0, 1e-200, 1.0)
    @example(0.0, 1.0, 1e200)
    def test_finite_and_nonnegative_or_a_domain_error(self, s, delta, r):
        params = RicianParams(s=s, delta=delta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                got = [rician_pdf(params, r), *rician_pdf(params, np.array([r, s]))]
            except DomainError as exc:
                # Only a density above the largest float: delta near 1e-308.
                assert str(exc).startswith("r must keep the density in float range")
                assert delta < 1e-300
                return
        assert all(math.isfinite(f) and f >= 0.0 for f in got)


class TestKFactor:
    def test_known_ratios(self):
        assert k_factor(RicianParams(s=math.sqrt(2.0), delta=1.0)) == pytest.approx(
            1.0, abs=1e-15
        )
        assert k_factor_db(RicianParams(s=math.sqrt(2.0), delta=1.0)) == (
            pytest.approx(0.0, abs=1e-12)
        )
        assert k_factor_db(RicianParams(s=2.0, delta=1.0)) == pytest.approx(
            10.0 * math.log10(2.0), abs=1e-12
        )

    def test_no_direct_path_gives_minus_infinity_db(self):
        params = RicianParams(s=0.0, delta=1.0)
        assert k_factor(params) == 0.0
        assert k_factor_db(params) == -math.inf

    def test_params_from_k_round_trip(self):
        for k in (0.1, 1.0, 10.0, 100.0):
            params = params_from_k(k)
            assert k_factor(params) == pytest.approx(k, rel=1e-12)
            assert params.s**2 + 2 * params.delta**2 == pytest.approx(
                1.0, rel=1e-12
            )

    def test_params_from_k_scales_mean_power(self):
        params = params_from_k(4.0, mean_power=2.5)
        assert params.s**2 + 2 * params.delta**2 == pytest.approx(2.5, rel=1e-12)
        assert k_factor(params) == pytest.approx(4.0, rel=1e-12)

    def test_params_from_k_reaches_float_max(self):
        for k in (9e307, 1e308, sys.float_info.max):  # 2 (K + 1) is past the range
            params = params_from_k(k)
            assert params.s == 1.0
            assert params.delta == pytest.approx(math.sqrt(0.5 / k), rel=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 1e150), st.floats(1e-150, 1e150))  # mean_power K finite
    def test_params_from_k_halves_first_bit_for_bit(self, k, mean_power):
        want = math.sqrt(mean_power / (2.0 * (k + 1.0)))  # the one-division form
        assert params_from_k(k, mean_power).delta == want

    @pytest.mark.parametrize("k, mean_power", [
        (1e308, 2.0), (sys.float_info.max, 2.0), (9e307, 3.0), (1e300, 1e10),
    ])
    def test_params_from_k_past_the_overflow_matches_mpmath(self, k, mean_power):
        params = params_from_k(k, mean_power)
        with mpmath.workdps(50):
            big_k, power = mpmath.mpf(k), mpmath.mpf(mean_power)
            want_s = mpmath.sqrt(power * big_k / (big_k + 1))
            want_delta = mpmath.sqrt(power / (2 * (big_k + 1)))
            assert abs(params.s - want_s) <= EPS * want_s
            assert abs(params.delta - want_delta) <= 2 * EPS * want_delta

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, sys.float_info.max), st.floats(5e-324, sys.float_info.max))
    @example(8.9e307, 2.0)
    @example(1.0, sys.float_info.max)
    def test_params_from_k_keeps_s_bit_for_bit_below_the_overflow(self, k, mean_power):
        """s is sqrt(mean_power K / (K + 1)) wherever mean_power K is a float,
        so rician.csv keeps its bytes."""
        assume(math.isfinite(mean_power * k) and mean_power / 2.0 / (k + 1.0) > 0.0)
        assert params_from_k(k, mean_power).s == math.sqrt(mean_power * k / (k + 1.0))

    def test_params_from_k_rejects_negative(self):
        with pytest.raises(DomainError):
            params_from_k(-0.5)


class TestKdbParameterization:
    def test_agrees_with_two_parameter_form(self):
        # K in dB plus peak amplitude pins delta; both routes must agree.
        for k_db in (-5.0, 0.0, 10.0):
            k = 10.0 ** (k_db / 10.0)
            for s in (0.8, math.sqrt(2.0), 2.0):
                delta = s / math.sqrt(2.0 * k)
                params = RicianParams(s=s, delta=delta)
                for r in np.linspace(0.01, 5.0, 50):
                    a = rician_pdf_kdb(k_db, s, float(r))
                    b = rician_pdf(params, float(r))
                    assert abs(a - b) < 1e-12

    def test_integrates_to_one(self):
        for k_db in (0.0, 10.0, 20.0):
            total, _ = scipy.integrate.quad(
                lambda r: rician_pdf_kdb(k_db, 1.0, r), 0.0, np.inf
            )
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_zero_at_origin(self):
        assert rician_pdf_kdb(3.0, 1.0, 0.0) == 0.0

    def test_requires_positive_peak(self):
        with pytest.raises(DomainError):
            rician_pdf_kdb(3.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            rician_pdf_kdb(3.0, -1.0, 1.0)

    @pytest.mark.parametrize("k_db", [3079.6, 3080.0, 3082.5])
    def test_k_past_half_the_float_range_matches_mpmath(self, k_db):
        # 2 K overflows here, while K and delta = s / sqrt(2 K) are floats
        k = 10.0 ** (k_db / 10.0)
        with mpmath.workdps(50):
            delta = 1 / mpmath.sqrt(2 * mpmath.mpf(k))
        got, want = rician_pdf_kdb(k_db, 1.0, 1.0), rician_oracle(1.0, delta, 1.0)
        assert within_rician_bound(got, want), (k_db, got, want)

    @pytest.mark.parametrize("k_db", [-4000.0, 4000.0, 3083.0])
    def test_k_factor_past_the_float_range_names_k_db(self, k_db):
        with pytest.raises(DomainError) as excinfo:
            rician_pdf_kdb(k_db, 1.0, 1.0)
        assert str(excinfo.value).startswith("k_db must ")


class TestSampling:
    def test_seed_reproducibility(self):
        params = RicianParams(s=1.5, delta=0.7)
        a = sample_rician(params, 1000, seed=42)
        b = sample_rician(params, 1000, seed=42)
        np.testing.assert_array_equal(a, b)
        c = sample_rician(params, 1000, seed=43)
        assert not np.array_equal(a, c)

    def test_samples_are_nonnegative(self):
        samples = sample_rician(RicianParams(s=0.5, delta=1.0), 5000, seed=1)
        assert samples.shape == (5000,)
        assert np.all(samples >= 0.0)

    def test_distribution_matches_pdf(self):
        s, delta = 2.0, 1.0
        samples = sample_rician(RicianParams(s=s, delta=delta), 20000, seed=7)
        stat = scipy.stats.kstest(samples, "rice", args=(s / delta, 0.0, delta))
        assert stat.pvalue > 0.01

    def test_second_moment_identity(self):
        # E[r^2] = s^2 + 2 delta^2; check within three standard errors.
        s, delta = 1.2, 0.9
        n = 100000
        samples = sample_rician(RicianParams(s=s, delta=delta), n, seed=11)
        r2 = samples**2
        se = float(np.std(r2, ddof=1)) / math.sqrt(n)
        assert abs(float(np.mean(r2)) - (s * s + 2 * delta * delta)) < 3 * se

    def test_invalid_count_rejected(self):
        with pytest.raises(DomainError):
            sample_rician(RicianParams(s=1.0, delta=1.0), 0, seed=0)
