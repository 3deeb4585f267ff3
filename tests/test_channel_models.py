"""Geometry, Hata, free-space and air-to-ground path loss tests."""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from skylink import (
    A2GParams,
    ConfigurationError,
    DomainError,
    Environment,
    HataParams,
    LinkGeometry,
    SchemaError,
    SPEED_OF_LIGHT,
    a2g_path_loss,
    elevation_angle,
    environment_from_dict,
    environment_to_dict,
    free_space_path_loss,
    ground_distance_for_angle,
    hata_correction,
    hata_path_loss,
    load_environments,
    mean_path_loss,
    slant_distance,
)

# Independently evaluated reference values, frozen.  The Hata constants come
# from working the closed-form expressions by hand at 900 MHz / 30 m / 1.5 m;
# free-space loss from 20*log10(4*pi*f*d/c) at 2 GHz and 1 km.
HATA_CORRECTION_900_1P5 = 0.015881825849539677
HATA_A_900_30_1P5 = 126.40328648085746
HATA_B_30 = 35.224855781583774
FSPL_2GHZ_1KM = 98.468383135163


class TestGeometry:
    def test_slant_is_hypotenuse(self):
        geom = LinkGeometry(h=50.0, r=0.0)
        assert slant_distance(geom) == 50.0
        geom = LinkGeometry(h=0.0, r=5.0)
        assert slant_distance(geom) == 5.0
        geom = LinkGeometry(h=100.0, r=100.0)
        assert slant_distance(geom) == pytest.approx(141.4213562373095, abs=1e-9)

    def test_elevation_angle_known_points(self):
        assert elevation_angle(LinkGeometry(h=100.0, r=100.0)) == pytest.approx(45.0)
        assert elevation_angle(LinkGeometry(h=0.0, r=10.0)) == 0.0
        assert elevation_angle(LinkGeometry(h=10.0, r=0.0)) == 90.0

    def test_ground_distance_inverts_elevation(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            h = float(rng.uniform(1.0, 500.0))
            r = float(rng.uniform(1.0, 5000.0))
            theta = elevation_angle(LinkGeometry(h=h, r=r))
            assert ground_distance_for_angle(h, theta) == pytest.approx(r, rel=1e-9)

    def test_ground_distance_limits(self):
        assert ground_distance_for_angle(100.0, 90.0) == 0.0
        assert ground_distance_for_angle(100.0, 0.0) == math.inf

    def test_slant_dominates_both_legs(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            h = float(rng.uniform(0.0, 300.0))
            r = float(rng.uniform(0.0, 3000.0))
            if h == 0.0 and r == 0.0:
                continue
            d = slant_distance(LinkGeometry(h=h, r=r))
            assert d >= max(h, r)
            assert d <= h + r

    def test_degenerate_geometry_rejected(self):
        with pytest.raises(DomainError):
            LinkGeometry(h=0.0, r=0.0)
        with pytest.raises(DomainError):
            LinkGeometry(h=-1.0, r=100.0)
        with pytest.raises(DomainError):
            LinkGeometry(h=100.0, r=-5.0)
        with pytest.raises(DomainError):
            LinkGeometry(h=math.nan, r=100.0)

    def test_bad_angle_rejected(self):
        for theta in (-1.0, 90.5, math.nan):
            with pytest.raises(DomainError):
                ground_distance_for_angle(100.0, theta)


class TestHata:
    def test_correction_at_900mhz(self):
        params = HataParams(f_mhz=900.0, h_b=30.0, h_m=1.5)
        assert hata_correction(params) == pytest.approx(
            HATA_CORRECTION_900_1P5, abs=1e-12
        )

    def test_correction_at_1000mhz_is_exact(self):
        # (1.1*3 - 0.7)*1.5 - (1.56*3 - 0.8) collapses to 0.02.
        params = HataParams(f_mhz=1000.0, h_b=30.0, h_m=1.5)
        assert hata_correction(params) == pytest.approx(0.02, abs=1e-12)

    def test_correction_vanishing_mobile_height(self):
        f = 900.0
        limit = -(1.56 * math.log10(f) - 0.8)
        with pytest.warns(UserWarning):
            params = HataParams(f_mhz=f, h_b=30.0, h_m=1e-12)
        assert hata_correction(params) == pytest.approx(limit, abs=1e-9)

    def test_intercept_at_one_km(self):
        params = HataParams(f_mhz=900.0, h_b=30.0, h_m=1.5)
        assert hata_path_loss(params, d_km=1.0) == pytest.approx(
            HATA_A_900_30_1P5, abs=1e-9
        )

    def test_distance_slope(self):
        params = HataParams(f_mhz=900.0, h_b=30.0, h_m=1.5)
        pl1 = hata_path_loss(params, d_km=1.0)
        pl2 = hata_path_loss(params, d_km=2.0)
        assert pl2 - pl1 == pytest.approx(HATA_B_30 * math.log10(2.0), abs=1e-9)

    def test_slope_positive_for_realistic_base_heights(self):
        # B = 44.9 - 6.55*log10(h_b) stays positive below h_b ~ 7e6 m.
        for h_b in (30.0, 50.0, 100.0, 200.0):
            p1 = HataParams(f_mhz=900.0, h_b=h_b, h_m=1.5)
            assert hata_path_loss(p1, 2.0) > hata_path_loss(p1, 1.0)

    def test_loss_decreases_with_base_height(self):
        lo = HataParams(f_mhz=900.0, h_b=30.0, h_m=1.5)
        hi = HataParams(f_mhz=900.0, h_b=100.0, h_m=1.5)
        assert hata_path_loss(hi, 1.0) < hata_path_loss(lo, 1.0)

    def test_nominal_range_warning(self):
        with pytest.warns(UserWarning):
            HataParams(f_mhz=100.0, h_b=30.0, h_m=1.5)
        with pytest.warns(UserWarning):
            HataParams(f_mhz=900.0, h_b=250.0, h_m=1.5)
        with pytest.warns(UserWarning):
            HataParams(f_mhz=900.0, h_b=30.0, h_m=0.5)

    def test_nonpositive_inputs_rejected(self):
        with pytest.raises(DomainError):
            HataParams(f_mhz=0.0, h_b=30.0, h_m=1.5)
        with pytest.raises(DomainError):
            HataParams(f_mhz=900.0, h_b=-30.0, h_m=1.5)
        params = HataParams(f_mhz=900.0, h_b=30.0, h_m=1.5)
        with pytest.raises(DomainError):
            hata_path_loss(params, d_km=0.0)


class TestFreeSpace:
    def test_reference_value(self):
        assert free_space_path_loss(2e9, 1000.0) == pytest.approx(
            FSPL_2GHZ_1KM, abs=1e-6
        )

    def test_zero_crossing_distance(self):
        # Loss is 0 dB where 4*pi*f*d/c == 1.
        f = 2.4e9
        d0 = SPEED_OF_LIGHT / (4.0 * math.pi * f)
        assert free_space_path_loss(f, d0) == pytest.approx(0.0, abs=1e-9)

    def test_six_db_per_doubling(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            f = float(rng.uniform(1e8, 1e10))
            d = float(rng.uniform(1.0, 1e4))
            gain = free_space_path_loss(f, 2 * d) - free_space_path_loss(f, d)
            assert gain == pytest.approx(20.0 * math.log10(2.0), abs=1e-9)

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            free_space_path_loss(0.0, 100.0)
        with pytest.raises(DomainError):
            free_space_path_loss(2e9, 0.0)


class TestAirToGround:
    def test_excess_losses_are_additive(self, urban):
        params = A2GParams(f_c=2e9, env=urban)
        geom = LinkGeometry(h=100.0, r=500.0)
        fspl = free_space_path_loss(2e9, slant_distance(geom))
        assert a2g_path_loss(params, geom, los=True) == pytest.approx(
            fspl + urban.eps_los_db, abs=1e-12
        )
        assert a2g_path_loss(params, geom, los=False) == pytest.approx(
            fspl + urban.eps_nlos_db, abs=1e-12
        )

    def test_los_nlos_gap_equals_excess_gap(self, urban):
        params = A2GParams(f_c=2e9, env=urban)
        geom = LinkGeometry(h=80.0, r=900.0)
        gap = a2g_path_loss(params, geom, los=False) - a2g_path_loss(
            params, geom, los=True
        )
        assert gap == pytest.approx(urban.eps_nlos_db - urban.eps_los_db, abs=1e-12)

    def test_mean_is_probability_weighted(self, urban):
        params = A2GParams(f_c=2e9, env=urban)
        geom = LinkGeometry(h=100.0, r=500.0)
        theta = elevation_angle(geom)
        a, b = urban.sigmoid
        p = 1.0 / (1.0 + a * math.exp(-b * (theta - a)))
        expected = p * a2g_path_loss(params, geom, los=True) + (1 - p) * (
            a2g_path_loss(params, geom, los=False)
        )
        got = mean_path_loss(params, geom, plos_model="sigmoid")
        assert got == pytest.approx(expected, abs=1e-12)

    def test_mean_bounded_by_pure_cases(self, urban, suburban, dense_urban):
        for env in (urban, suburban, dense_urban):
            params = A2GParams(f_c=2e9, env=env)
            for model in ("sigmoid", "holis", "product"):
                geom = LinkGeometry(h=120.0, r=700.0)
                lo = a2g_path_loss(params, geom, los=True)
                hi = a2g_path_loss(params, geom, los=False)
                mean = mean_path_loss(params, geom, plos_model=model)
                assert lo - 1e-12 <= mean <= hi + 1e-12

    def test_mean_increases_with_ground_distance(self, urban):
        # Farther out: lower elevation angle, lower LoS odds, longer path.
        params = A2GParams(f_c=2e9, env=urban)
        losses = [
            mean_path_loss(params, LinkGeometry(h=100.0, r=r), plos_model="sigmoid")
            for r in np.linspace(100.0, 3000.0, 40)
        ]
        assert all(b > a for a, b in zip(losses, losses[1:]))

    def test_unknown_selector_rejected(self, urban):
        params = A2GParams(f_c=2e9, env=urban)
        with pytest.raises(ConfigurationError):
            mean_path_loss(params, LinkGeometry(h=100.0, r=500.0), plos_model="nope")


class TestEnvironmentConfig:
    def test_validates_parameters(self):
        with pytest.raises(ConfigurationError):
            Environment(
                name="x", alpha=1.5, beta=500.0, gamma=15.0,
                eps_los_db=1.0, eps_nlos_db=20.0,
            )
        with pytest.raises(ConfigurationError):
            Environment(
                name="x", alpha=0.3, beta=-1.0, gamma=15.0,
                eps_los_db=1.0, eps_nlos_db=20.0,
            )
        with pytest.raises(ConfigurationError):
            Environment(
                name="x", alpha=0.3, beta=500.0, gamma=0.0,
                eps_los_db=1.0, eps_nlos_db=20.0,
            )

    @pytest.mark.parametrize("los, nlos", [(-1.0, 20.0), (21.0, 20.0)])
    def test_excess_losses_out_of_order_rejected(self, los, nlos):
        with pytest.raises(ConfigurationError) as excinfo:
            Environment(
                name="x", alpha=0.3, beta=500.0, gamma=15.0,
                eps_los_db=los, eps_nlos_db=nlos,
            )
        assert str(excinfo.value) == (
            "environment 'x': need 0 <= eps_los_db <= eps_nlos_db, "
            f"got {los} and {nlos}"
        )

    @pytest.mark.parametrize("name, value, count", [
        ("c", (1.0, 0.0, 15.0, 12.0), 5), ("sigmoid", (9.61,), 2),
    ])
    def test_parameter_tuple_of_the_wrong_length_rejected(self, name, value, count):
        with pytest.raises(ConfigurationError) as excinfo:
            Environment(
                name="x", alpha=0.3, beta=500.0, gamma=15.0,
                eps_los_db=1.0, eps_nlos_db=20.0, **{name: value},
            )
        assert str(excinfo.value) == f"environment 'x': {name} must have {count} entries"

    @pytest.mark.parametrize("text, message", [
        ("{}", "{path}: expected a JSON array of environments"),
        ("[1]", "{path}: entry 0: not an object: 1"),
    ], ids=["not_an_array", "entry_not_an_object"])
    def test_load_rejects_a_file_of_the_wrong_shape(self, tmp_path, text, message):
        path = tmp_path / "envs.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(SchemaError) as excinfo:
            load_environments(path)
        assert str(excinfo.value) == message.format(path=path)

    def test_load_round_trip(self, env_file):
        envs = load_environments(env_file)
        assert set(envs) == {"suburban", "urban", "dense-urban"}
        assert envs["urban"].alpha == 0.3
        assert envs["urban"].sigmoid == (9.61, 0.16)
        assert envs["suburban"].c == (1.0, 0.0, 5.0, 12.0, 2.5)

    def test_load_rejects_duplicates(self, tmp_path):
        path = tmp_path / "envs.json"
        entry = {
            "name": "urban", "alpha": 0.3, "beta": 500.0, "gamma": 15.0,
            "eps_los_db": 1.0, "eps_nlos_db": 20.0,
        }
        path.write_text(json.dumps([entry, entry]), encoding="utf-8")
        with pytest.raises(SchemaError):
            load_environments(path)

    def test_load_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "envs.json"
        entry = {
            "name": "urban", "alpha": 0.3, "beta": 500.0, "gamma": 15.0,
            "eps_los_db": 1.0, "eps_nlos_db": 20.0, "extra": 1,
        }
        path.write_text(json.dumps([entry]), encoding="utf-8")
        with pytest.raises(SchemaError):
            load_environments(path)

    def test_load_names_the_environment_of_a_non_number(self, tmp_path):
        path = tmp_path / "envs.json"
        good = {
            "name": "urban", "alpha": 0.3, "beta": 500.0, "gamma": 15.0,
            "eps_los_db": 1.0, "eps_nlos_db": 20.0,
        }
        path.write_text(
            json.dumps([good, dict(good, name="bad", alpha="abc")]), encoding="utf-8"
        )
        with pytest.raises(ConfigurationError) as excinfo:
            load_environments(path)
        assert str(excinfo.value) == (
            "environment 'bad': alpha must be in (0, 1], got 'abc'"
        )

    def test_load_keeps_environment_range_error(self, tmp_path):
        path = tmp_path / "envs.json"
        entry = {
            "name": "urban", "alpha": 2.0, "beta": 500.0, "gamma": 15.0,
            "eps_los_db": 1.0, "eps_nlos_db": 20.0,
        }
        path.write_text(json.dumps([entry]), encoding="utf-8")
        with pytest.raises(ConfigurationError) as excinfo:
            load_environments(path)
        assert type(excinfo.value) is ConfigurationError
        assert str(excinfo.value) == (
            "environment 'urban': alpha must be in (0, 1], got 2.0"
        )

    @pytest.mark.parametrize("key, value, message", [
        ("beta", math.nan, "beta must be finite and > 0, got nan"),
        ("gamma", math.inf, "gamma must be finite and > 0, got inf"),
        ("eps_nlos_db", math.inf, "eps_nlos_db must be finite, got inf"),
        ("c", [math.nan, 0.0, 15.0, 12.0, 2.0], "c1 must be finite, got nan"),
        ("c", [1.0, 0.0, 15.0, 0.0, 2.0], "c4 must be finite and > 0, got 0.0"),
        (
            "sigmoid", {"a": 9.61, "b": math.inf},
            "sigmoid b must be finite and > 0, got inf",
        ),
    ])
    def test_load_rejects_non_finite_parameters(self, tmp_path, key, value, message):
        path = tmp_path / "envs.json"
        entry = {
            "name": "urban", "alpha": 0.3, "beta": 500.0, "gamma": 15.0,
            "eps_los_db": 1.0, "eps_nlos_db": 20.0, key: value,
        }
        path.write_text(json.dumps([entry]), encoding="utf-8")
        with pytest.raises(ConfigurationError) as excinfo:
            load_environments(path)
        assert str(excinfo.value) == f"environment 'urban': {message}"

    def test_dict_form_follows_field_order(self, urban):
        data = environment_to_dict(urban)
        assert list(data) == [f.name for f in dataclasses.fields(Environment)]
        assert data["c"] == list(urban.c)
        assert data["sigmoid"] == {"a": urban.sigmoid[0], "b": urban.sigmoid[1]}
        assert environment_from_dict(data) == urban
        bare = dataclasses.replace(urban, c=None, sigmoid=None)
        assert list(environment_to_dict(bare)) == list(data)[:6]
        assert environment_from_dict(environment_to_dict(bare)) == bare

    def test_shipped_file_loads_as_environment_from_dict(self):
        configs = Path(__file__).resolve().parents[1] / "configs"
        path = configs / "environments.example.json"
        entries = json.loads(path.read_text(encoding="utf-8"))
        assert load_environments(path) == {
            e["name"]: environment_from_dict(e) for e in entries
        }

    def test_load_reports_line_on_parse_error(self, tmp_path):
        path = tmp_path / "envs.json"
        path.write_text('[\n  {"name": "urban",,}\n]\n', encoding="utf-8")
        with pytest.raises(SchemaError) as excinfo:
            load_environments(path)
        assert "line" in str(excinfo.value)
