"""Scenario generation, link budget accounting and dataset I/O."""

from __future__ import annotations

import copy
import csv
import dataclasses
import io
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from skylink import (
    A2GParams,
    CSV_HEADER,
    ConfigurationError,
    Dataset,
    DomainError,
    FadingSpec,
    HataParams,
    LinkBudget,
    LinkGeometry,
    RicianParams,
    Sample,
    SchemaError,
    budget_from_dict,
    elevation_angle,
    fading_draw_db,
    features_targets,
    gen_altitude_waypoints,
    gen_distance_sweep,
    generate_from_metadata,
    hata_path_loss,
    load_environments,
    mean_path_loss,
    metadata_path_for,
    plos_holis,
    plos_product,
    plos_sigmoid,
    read_curve_csv,
    read_dataset,
    rss_from_path_loss,
    slant_distance,
    split,
    write_curve_csv,
    write_dataset,
)
from skylink import channel_models
from skylink.datagen import scenario_layout


class TestLinkBudget:
    def test_rss_accounting(self):
        budget = LinkBudget(tx_power_dbm=30.0, tx_gain_dbi=5.0, rx_gain_dbi=5.0)
        assert rss_from_path_loss(budget, 110.0) == -70.0

    def test_extra_loss_subtracts_linearly(self):
        budget = LinkBudget(tx_power_dbm=20.0)
        base = rss_from_path_loss(budget, 100.0)
        assert rss_from_path_loss(budget, 103.5) == base - 3.5

    def test_fading_off_ignores_draw(self):
        budget = LinkBudget(tx_power_dbm=20.0)
        assert rss_from_path_loss(budget, 100.0, draw_db=7.0) == (
            rss_from_path_loss(budget, 100.0)
        )

    def test_nonfinite_loss_rejected(self):
        budget = LinkBudget(tx_power_dbm=20.0)
        with pytest.raises(DomainError):
            rss_from_path_loss(budget, math.inf)

    def test_fading_spec_validation(self):
        with pytest.raises(ConfigurationError):
            FadingSpec(kind="nakagami")
        with pytest.raises(ConfigurationError):
            FadingSpec(kind="rician")
        with pytest.raises(ConfigurationError):
            FadingSpec(kind="gaussian_shadow", sigma_db=-1.0)

    @pytest.mark.parametrize("seed", [-1, 2.5, "7", True])
    def test_seed_must_be_a_non_negative_int(self, seed):
        with pytest.raises(ConfigurationError) as excinfo:
            LinkBudget(tx_power_dbm=30.0, seed=seed)
        assert str(excinfo.value) == f"seed must be int and >= 0, got {seed!r}"

    def test_budget_dict_round_trip(self):
        budgets = [
            LinkBudget(tx_power_dbm=30.0, seed=4),
            LinkBudget(
                tx_power_dbm=27.0,
                fading=FadingSpec(kind="gaussian_shadow", sigma_db=3.0),
            ),
            LinkBudget(
                tx_power_dbm=25.0,
                fading=FadingSpec(
                    kind="rician", rician=RicianParams(s=1.0, delta=0.4)
                ),
            ),
        ]
        from skylink.datagen import _budget_to_dict

        for budget in budgets:
            assert budget_from_dict(_budget_to_dict(budget)) == budget

    def test_keys_left_out_take_the_field_defaults(self):
        assert LinkBudget().tx_power_dbm == 30.0
        assert budget_from_dict({}) == LinkBudget()
        assert budget_from_dict({"seed": 5}) == LinkBudget(seed=5)
        assert budget_from_dict({"tx_power_dbm": "27"}) == LinkBudget(27.0)

    @pytest.mark.parametrize("data, message", [
        ({"tx_gain_db": 10}, "unknown keys ['tx_gain_db']"),
        (
            {"fading": {"kind": "off", "sigma_db": 2.0}},
            "fading: unknown keys ['sigma_db']",
        ),
        (
            {"fading": {"kind": "rician", "s": 1.0, "delta": 0.3, "sigma_db": 2.0}},
            "fading: unknown keys ['sigma_db']",
        ),
        (
            {"fading": {"kind": "gaussian_shadow", "sigma_db": 2.0, "s": 1.0}},
            "fading: unknown keys ['s']",
        ),
    ], ids=["budget", "off", "rician", "gaussian_shadow"])
    def test_unknown_keys_rejected(self, data, message):
        with pytest.raises(SchemaError) as excinfo:
            budget_from_dict(data)
        assert str(excinfo.value) == message


class TestFadingDraws:
    def test_off_draws_zero(self):
        budget = LinkBudget(tx_power_dbm=30.0)
        assert fading_draw_db(budget, 0) == 0.0
        assert fading_draw_db(budget, 99) == 0.0

    def test_deterministic_per_index(self):
        budget = LinkBudget(
            tx_power_dbm=30.0,
            fading=FadingSpec(kind="gaussian_shadow", sigma_db=4.0),
            seed=3,
        )
        assert fading_draw_db(budget, 7) == fading_draw_db(budget, 7)
        assert fading_draw_db(budget, 7) != fading_draw_db(budget, 8)

    def test_draws_do_not_depend_on_visit_order(self):
        budget = LinkBudget(
            tx_power_dbm=30.0,
            fading=FadingSpec(kind="gaussian_shadow", sigma_db=4.0),
            seed=3,
        )
        forward = [fading_draw_db(budget, i) for i in range(20)]
        backward = [fading_draw_db(budget, i) for i in reversed(range(20))]
        assert forward == backward[::-1]

    def test_different_seeds_decorrelate(self):
        a = LinkBudget(
            tx_power_dbm=30.0,
            fading=FadingSpec(kind="gaussian_shadow", sigma_db=4.0),
            seed=1,
        )
        b = LinkBudget(
            tx_power_dbm=30.0,
            fading=FadingSpec(kind="gaussian_shadow", sigma_db=4.0),
            seed=2,
        )
        assert fading_draw_db(a, 0) != fading_draw_db(b, 0)

    def test_shadowing_moments(self):
        sigma = 4.0
        budget = LinkBudget(
            tx_power_dbm=30.0,
            fading=FadingSpec(kind="gaussian_shadow", sigma_db=sigma),
            seed=5,
        )
        n = 20000
        draws = np.array([fading_draw_db(budget, i) for i in range(n)])
        assert abs(draws.mean()) < 3.0 * sigma / math.sqrt(n)
        assert draws.std() == pytest.approx(sigma, rel=0.05)

    def test_rician_draw_is_mean_power_neutral(self):
        budget = LinkBudget(
            tx_power_dbm=30.0,
            fading=FadingSpec(
                kind="rician", rician=RicianParams(s=1.0, delta=0.5)
            ),
            seed=6,
        )
        n = 20000
        # draw = -10 log10(power ratio), so the linear ratio must average 1.
        ratios = np.array(
            [10.0 ** (-fading_draw_db(budget, i) / 10.0) for i in range(n)]
        )
        se = ratios.std(ddof=1) / math.sqrt(n)
        assert abs(ratios.mean() - 1.0) < 3.0 * se

    def test_rician_draw_is_scalar_pair_of_row_substream(self):
        rician = RicianParams(s=1.0, delta=0.5)
        budget = LinkBudget(
            tx_power_dbm=30.0, fading=FadingSpec(kind="rician", rician=rician), seed=6
        )
        for i in range(200):
            g1, g2 = np.random.default_rng([6, i]).standard_normal(2).tolist()
            amp_sq = (1.0 + 0.5 * g1) ** 2 + (0.5 * g2) ** 2
            assert fading_draw_db(budget, i) == -10.0 * math.log10(amp_sq / 1.5)


class TestDistanceSweep:
    def test_row_layout(self, urban):
        distances = [float(d) for d in np.linspace(100.0, 2000.0, 25)]
        ds = gen_distance_sweep(urban, h_fixed=100.0, distances=distances)
        assert len(ds.samples) == 25
        assert [s.index for s in ds.samples] == list(range(25))
        assert all(s.scenario == "distance_sweep" for s in ds.samples)
        assert all(s.h_m == 100.0 for s in ds.samples)
        assert [s.d_m for s in ds.samples] == distances

    def test_rss_decays_without_fading(self, urban):
        distances = [float(d) for d in np.linspace(100.0, 2000.0, 40)]
        ds = gen_distance_sweep(urban, h_fixed=100.0, distances=distances)
        rss = [s.rss_dbm for s in ds.samples]
        assert all(b < a for a, b in zip(rss, rss[1:]))

    def test_channel_columns_match_models(self, urban):
        ds = gen_distance_sweep(
            urban, h_fixed=120.0, distances=[200.0, 800.0, 1500.0]
        )
        params = A2GParams(f_c=2000.0 * 1e6, env=urban)
        for s in ds.samples:
            geom = LinkGeometry(h=s.h_m, r=s.d_m)
            assert s.plos == plos_sigmoid(urban, elevation_angle(geom))
            assert s.pl_db == mean_path_loss(
                params, geom, "sigmoid", rx_height_m=1.5
            )
            assert s.rss_dbm == 30.0 - s.pl_db

    def test_hata_rows_use_altitude_as_base_height(self, urban):
        ds = gen_distance_sweep(
            urban, h_fixed=50.0, distances=[500.0, 1200.0],
            f_mhz=900.0, pl_model="hata",
        )
        for s in ds.samples:
            hp = HataParams(f_mhz=900.0, h_b=50.0, h_m=1.5)
            d_km = slant_distance(LinkGeometry(h=50.0, r=s.d_m)) / 1000.0
            assert s.pl_db == hata_path_loss(hp, d_km)

    def test_requires_increasing_distances(self, urban):
        with pytest.raises(ConfigurationError):
            gen_distance_sweep(urban, 100.0, [500.0, 400.0])
        with pytest.raises(ConfigurationError):
            gen_distance_sweep(urban, 100.0, [500.0, 500.0])
        with pytest.raises(ConfigurationError):
            gen_distance_sweep(urban, 100.0, [])

    @pytest.mark.parametrize("rx", [math.nan, math.inf, -1.0])
    def test_rejects_bad_rx_height_before_any_row(self, urban, rx):
        message = f"rx_height_m must be finite and >= 0, got {rx!r}"
        with pytest.raises(ConfigurationError) as excinfo:
            gen_distance_sweep(urban, 100.0, [200.0, 400.0], rx_height_m=rx)
        assert str(excinfo.value) == message
        with pytest.raises(ConfigurationError) as excinfo:
            gen_altitude_waypoints(urban, [50.0, 100.0], rx_height_m=rx)
        assert str(excinfo.value) == message

    def test_bad_geometry_names_the_row(self, urban):
        with pytest.raises(DomainError) as excinfo:
            gen_distance_sweep(urban, 100.0, [-5.0, 100.0])
        assert "row 0" in str(excinfo.value)


class TestAltitudeWaypoints:
    def test_default_waypoints(self, urban):
        ds = gen_altitude_waypoints(urban)
        assert [s.h_m for s in ds.samples] == [float(h) for h in range(20, 201, 20)]
        assert all(s.d_m == 500.0 for s in ds.samples)
        assert all(s.scenario == "altitude_waypoints" for s in ds.samples)

    def test_los_odds_improve_with_altitude(self, urban):
        ds = gen_altitude_waypoints(urban)
        plos = [s.plos for s in ds.samples]
        assert all(b > a for a, b in zip(plos, plos[1:]))

    def test_channel_columns_match_models(self, suburban):
        ds = gen_altitude_waypoints(suburban, altitudes=[30.0, 90.0, 180.0])
        params = A2GParams(f_c=2000.0 * 1e6, env=suburban)
        for s in ds.samples:
            geom = LinkGeometry(h=s.h_m, r=s.d_m)
            assert s.plos == plos_sigmoid(suburban, elevation_angle(geom))
            assert s.pl_db == mean_path_loss(
                params, geom, "sigmoid", rx_height_m=1.5
            )

    def test_rejects_bad_altitudes(self, urban):
        with pytest.raises(ConfigurationError):
            gen_altitude_waypoints(urban, altitudes=[])
        with pytest.raises(ConfigurationError):
            gen_altitude_waypoints(urban, altitudes=[50.0, -10.0])


SHIPPED_ENVS = list(load_environments(str(
    Path(__file__).resolve().parents[1] / "configs" / "environments.example.json"
)).values())


def scalar_row(env, h, r, f_mhz, pl_model, plos_model, rx):
    """(path loss, P_LoS) of one row through the public scalar functions,
    validated in the kernel's order: geometry, P_LoS, path-loss model."""
    geom = LinkGeometry(h=h, r=r)
    if plos_model == "sigmoid":
        plos = plos_sigmoid(env, elevation_angle(geom))
    elif plos_model == "holis":
        plos = plos_holis(env, elevation_angle(geom))
    else:
        plos = plos_product(env, h, rx, r)
    if pl_model == "a2g_mean":
        params = A2GParams(f_c=f_mhz * 1e6, env=env)
        return mean_path_loss(params, geom, plos_model, rx_height_m=rx), plos
    hp = HataParams(f_mhz=f_mhz, h_b=h, h_m=rx)
    return hata_path_loss(hp, slant_distance(geom) / 1000.0), plos


@st.composite
def channel_cases(draw):
    """Rows sharing a few altitudes (r = 0 and small h included), so that
    product P_LoS evaluations are reused across rows."""
    altitudes = draw(st.lists(
        st.one_of(st.just(0.0), st.floats(1e-3, 3.0), st.floats(3.0, 1500.0)),
        min_size=1, max_size=3,
    ))
    distance = st.one_of(st.just(0.0), st.floats(0.0, 6000.0))
    rows = draw(st.lists(
        st.tuples(st.sampled_from(altitudes), distance), min_size=1, max_size=25
    ))
    return (
        draw(st.sampled_from(SHIPPED_ENVS)),
        rows,
        draw(st.floats(100.0, 6000.0)),
        draw(st.sampled_from(("a2g_mean", "hata"))),
        draw(st.sampled_from(("sigmoid", "holis", "product"))),
        draw(st.floats(0.5, 3.0)),
    )


class TestChannelRows:
    """The one-pass row kernel against the scalar public functions."""

    @settings(max_examples=300, deadline=None)
    @given(channel_cases())
    def test_equals_scalar_functions(self, case):
        env, geometries, *rest = case
        want, error = [], None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for i, (h, r) in enumerate(geometries):
                try:
                    want.append(scalar_row(env, h, r, *rest))
                except DomainError as exc:
                    error = f"row {i}: {exc}"
                    break
            if error is None:
                pl, plos = channel_models._channel_rows(*case)
                assert list(zip(pl, plos)) == want
            else:
                with pytest.raises(DomainError) as excinfo:
                    channel_models._channel_rows(*case)
                assert str(excinfo.value) == error

    def test_product_evaluated_once_per_building_count(self, monkeypatch, dense_urban):
        calls = []
        real = channel_models.plos_product

        def counting(env, h_t, h_r, r, mode="canonical"):
            calls.append((h_t, r))
            return real(env, h_t, h_r, r, mode)

        monkeypatch.setattr(channel_models, "plos_product", counting)
        distances = [float(d) for d in np.linspace(50.0, 5000.0, 2000)]
        gen_distance_sweep(dense_urban, 100.0, distances, plos_model="product")
        sqrt_ab = math.sqrt(dense_urban.alpha * dense_urban.beta)
        counts = {math.floor((r / 1000.0) * sqrt_ab - 1.0) for r in distances}
        assert len(calls) == len(counts) == 62
        calls.clear()
        gen_altitude_waypoints(
            dense_urban, [50.0, 100.0, 50.0, 150.0, 100.0], plos_model="product"
        )
        assert [h for h, _ in calls] == [50.0, 100.0, 150.0]

    def test_hata_warns_per_row_like_scalar_functions(self, urban):
        geometries = [(10.0, 500.0), (50.0, 500.0), (10.0, 800.0)]

        def messages(fn):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                fn()
            return [str(w.message) for w in caught]

        want = messages(lambda: [
            scalar_row(urban, h, r, 900.0, "hata", "sigmoid", 1.5)
            for h, r in geometries
        ])
        got = messages(lambda: channel_models._channel_rows(
            urban, geometries, 900.0, "hata", "sigmoid", 1.5
        ))
        assert len(want) == 2 and got == want

    @pytest.mark.parametrize("pl_model", ["a2g_mean", "hata"])
    @pytest.mark.parametrize("plos_model", ["sigmoid", "holis", "product"])
    @pytest.mark.parametrize("geometries, message", [
        ([(100.0, 50.0), (math.nan, 10.0)], "row 1: h must be finite, got nan"),
        ([(100.0, 50.0), (100.0, math.inf)], "row 1: r must be finite, got inf"),
        (
            [(100.0, 50.0), (100.0, 60.0), (100.0, -5.0)],
            "row 2: geometry requires h >= 0 and r >= 0, got h=100.0, r=-5.0",
        ),
        ([(0.0, 0.0)], "row 0: geometry requires h + r > 0 (zero slant range)"),
    ])
    def test_bad_row_is_named(self, urban, pl_model, plos_model, geometries, message):
        with pytest.raises(DomainError) as excinfo:
            channel_models._channel_rows(
                urban, geometries, 900.0, pl_model, plos_model, 1.5
            )
        assert str(excinfo.value) == message

    def test_nan_distance_names_the_row(self, urban):
        with pytest.raises(DomainError, match=r"^row 1: r must be finite, got nan$"):
            gen_distance_sweep(urban, 100.0, [200.0, math.nan])

    def test_unknown_models_rejected_before_any_row(self, urban):
        bad_row = [(math.nan, 0.0)]
        with pytest.raises(ConfigurationError) as excinfo:
            channel_models._channel_rows(urban, bad_row, 900.0, "a2g_mean", "x", 1.5)
        assert str(excinfo.value) == (
            "unknown plos model 'x'; expected one of ('product', 'holis', 'sigmoid')"
        )
        with pytest.raises(ConfigurationError) as excinfo:
            channel_models._channel_rows(urban, bad_row, 900.0, "x", "sigmoid", 1.5)
        assert str(excinfo.value) == (
            "unknown path loss model 'x'; expected one of ('hata', 'a2g_mean')"
        )


class TestSplit:
    def make_dataset(self, urban, n=10):
        distances = [float(d) for d in np.linspace(100.0, 1000.0, n)]
        return gen_distance_sweep(urban, 100.0, distances)

    def test_sizes_and_partition(self, urban):
        ds = self.make_dataset(urban)
        train, test = split(ds, 0.8, seed=13)
        assert len(train.samples) == 8
        assert len(test.samples) == 2
        got = sorted(s.index for s in train.samples + test.samples)
        assert got == list(range(10))

    def test_each_side_stays_ordered(self, urban):
        ds = self.make_dataset(urban, n=30)
        train, test = split(ds, 0.7, seed=5)
        for side in (train, test):
            idx = [s.index for s in side.samples]
            assert idx == sorted(idx)

    def test_deterministic_per_seed(self, urban):
        ds = self.make_dataset(urban, n=20)
        a_train, _ = split(ds, 0.8, seed=13)
        b_train, _ = split(ds, 0.8, seed=13)
        assert [s.index for s in a_train.samples] == [
            s.index for s in b_train.samples
        ]
        c_train, _ = split(ds, 0.8, seed=14)
        assert [s.index for s in a_train.samples] != [
            s.index for s in c_train.samples
        ]

    def test_metadata_records_roles(self, urban):
        ds = self.make_dataset(urban)
        train, test = split(ds, 0.8, seed=13)
        assert train.metadata["split"]["role"] == "train"
        assert test.metadata["split"]["role"] == "test"
        assert train.metadata["split"]["seed"] == 13

    def test_rejects_empty_sides(self, urban):
        ds = self.make_dataset(urban)
        with pytest.raises(ConfigurationError):
            split(ds, 0.01, seed=0)
        with pytest.raises(ConfigurationError):
            split(ds, 1.0, seed=0)
        with pytest.raises(ConfigurationError):
            split(ds, 0.0, seed=0)

    def test_rejects_negative_seed(self, urban):
        with pytest.raises(ConfigurationError) as excinfo:
            split(self.make_dataset(urban), 0.8, seed=-1)
        assert str(excinfo.value) == "seed must be int and >= 0, got -1"


class TestFeaturesTargets:
    def test_column_layout(self, urban):
        ds = gen_distance_sweep(urban, 100.0, [200.0, 700.0])
        X, Y = features_targets(ds)
        assert X.shape == (2, 4)
        assert Y.shape == (2, 1)
        s = ds.samples[1]
        np.testing.assert_array_equal(X[1], [s.d_m, s.h_m, s.f_mhz, s.pl_db])
        assert Y[1, 0] == s.rss_dbm


class TestDatasetIO:
    def test_metadata_key_order(self, urban):
        shared = ["f_mhz", "pl_model", "plos_model", "rx_height_m", "budget"]
        sweep = gen_distance_sweep(urban, 100.0, [200.0, 700.0])
        assert list(sweep.metadata) == [
            "scenario", "environment", "h_m", "distances_m", *shared
        ]
        waypoints = gen_altitude_waypoints(urban, [50.0, 90.0])
        assert list(waypoints.metadata) == [
            "scenario", "environment", "altitudes_m", "r_ground_m", *shared
        ]
        assert sweep.metadata["budget"] == waypoints.metadata["budget"] == {
            "tx_power_dbm": 30.0, "tx_gain_dbi": 0.0, "rx_gain_dbi": 0.0,
            "fading": {"kind": "off"}, "seed": 0,
        }

    def test_samples_are_slotted_frozen_values(self, urban):
        sample = gen_distance_sweep(urban, 100.0, [200.0]).samples[0]
        assert not hasattr(sample, "__dict__")
        moved = dataclasses.replace(sample, d_m=300.0)
        assert moved != sample
        assert dataclasses.replace(moved, d_m=200.0) == sample
        with pytest.raises(dataclasses.FrozenInstanceError):
            sample.d_m = 1.0

    def test_round_trip_is_exact(self, tmp_path, urban):
        distances = [float(d) for d in np.linspace(100.0, 2000.0, 15)]
        budget = LinkBudget(
            tx_power_dbm=30.0,
            fading=FadingSpec(kind="gaussian_shadow", sigma_db=2.0),
            seed=9,
        )
        ds = gen_distance_sweep(urban, 100.0, distances, budget=budget)
        path = tmp_path / "data.csv"
        write_dataset(ds, path)
        back = read_dataset(path)
        assert back.samples == ds.samples
        assert back.metadata == ds.metadata

    def test_unix_line_endings_and_header(self, tmp_path, urban):
        ds = gen_distance_sweep(urban, 100.0, [200.0, 700.0])
        path = tmp_path / "data.csv"
        write_dataset(ds, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.split(b"\n")[0].decode() == ",".join(CSV_HEADER)

    def test_sidecar_path_convention(self, tmp_path, urban):
        ds = gen_distance_sweep(urban, 100.0, [200.0, 700.0])
        path = tmp_path / "data.csv"
        sidecar = write_dataset(ds, path)
        assert sidecar == metadata_path_for(path)
        assert sidecar.endswith("data.json")

    def test_regeneration_from_sidecar_is_bit_identical(self, tmp_path, urban):
        budget = LinkBudget(
            tx_power_dbm=27.0,
            fading=FadingSpec(
                kind="rician", rician=RicianParams(s=1.0, delta=0.3)
            ),
            seed=21,
        )
        ds = gen_altitude_waypoints(urban, budget=budget)
        path = tmp_path / "data.csv"
        write_dataset(ds, path)
        rebuilt = generate_from_metadata(read_dataset(path).metadata)
        assert rebuilt.samples == ds.samples

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
        with pytest.raises(SchemaError) as excinfo:
            read_dataset(path)
        assert ":1:" in str(excinfo.value)

    def test_rejects_bad_field_with_line_number(self, tmp_path, urban):
        ds = gen_distance_sweep(urban, 100.0, [200.0, 700.0])
        path = tmp_path / "data.csv"
        write_dataset(ds, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[2] = lines[2].replace(lines[2].split(",")[2], "not-a-number", 1)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(SchemaError) as excinfo:
            read_dataset(path)
        assert ":3:" in str(excinfo.value)

    def test_rejects_out_of_range_plos(self, tmp_path, urban):
        ds = gen_distance_sweep(urban, 100.0, [200.0, 700.0])
        path = tmp_path / "data.csv"
        write_dataset(ds, path)
        text = path.read_text(encoding="utf-8")
        s = ds.samples[0]
        text = text.replace(repr(s.plos), "1.5", 1)
        path.write_text(text, encoding="utf-8")
        with pytest.raises(SchemaError) as excinfo:
            read_dataset(path)
        assert "PLOS" in str(excinfo.value)

    def test_rejects_duplicate_indexes(self, tmp_path, urban):
        ds = gen_distance_sweep(urban, 100.0, [200.0, 700.0])
        path = tmp_path / "data.csv"
        write_dataset(ds, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[2] = "0" + lines[2][1:]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(SchemaError) as excinfo:
            read_dataset(path)
        assert "duplicate" in str(excinfo.value)

    @pytest.mark.parametrize("column", ["D_m", "H_m", "F_MHz", "PL_dB", "RSS_dBm"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_field(self, tmp_path, urban, column, value):
        ds = gen_distance_sweep(urban, 100.0, [200.0, 700.0])
        path = tmp_path / "data.csv"
        write_dataset(ds, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        fields = lines[2].split(",")
        fields[CSV_HEADER.index(column)] = value
        lines[2] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(SchemaError) as excinfo:
            read_dataset(path)
        role = "target" if column == "RSS_dBm" else "feature"
        assert str(excinfo.value) == (
            f"{path}:3: non-finite {role} {column}={value}"
        )

    def test_finite_fields_with_overflowing_sum_pass(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(
            ",".join(CSV_HEADER) + "\n0,distance_sweep,1e308,1e308,1e308,"
            "1e308,0.5,1e308\n", encoding="utf-8",
        )
        assert read_dataset(path).samples[0].rss_dbm == 1e308

    def test_rejects_malformed_sidecar(self, tmp_path, urban):
        ds = gen_distance_sweep(urban, 100.0, [200.0, 700.0])
        path = tmp_path / "data.csv"
        sidecar = write_dataset(ds, path)
        Path(sidecar).write_text("{bad", encoding="utf-8")
        with pytest.raises(SchemaError) as excinfo:
            read_dataset(path)
        assert str(excinfo.value).startswith(f"{sidecar}:1:2: invalid JSON: ")

    def test_rows_are_repr_fields(self, tmp_path, urban):
        ds = gen_distance_sweep(urban, 100.0, [200.0, 700.0])
        path = tmp_path / "data.csv"
        write_dataset(ds, path)
        s = ds.samples[1]
        assert path.read_text(encoding="utf-8").splitlines()[2] == ",".join([
            "1", "distance_sweep", *(repr(v) for v in (
                s.d_m, s.h_m, s.f_mhz, s.pl_db, s.plos, s.rss_dbm
            )),
        ])

    @pytest.mark.parametrize("scenario", ["a,b", 'say "hi"', "two\nlines", ""])
    def test_scenario_written_as_csv_writer_does(self, tmp_path, urban, scenario):
        ds = gen_distance_sweep(urban, 100.0, [200.0, 700.0])
        for i, s in enumerate(ds.samples):
            ds.samples[i] = dataclasses.replace(s, scenario=scenario)
        path = tmp_path / "data.csv"
        write_dataset(ds, path)
        want = io.StringIO()
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for s in ds.samples:
            writer.writerow([s.index, s.scenario, *(repr(v) for v in (
                s.d_m, s.h_m, s.f_mhz, s.pl_db, s.plos, s.rss_dbm
            ))])
        assert path.read_bytes() == want.getvalue().encode("utf-8")
        assert read_dataset(path).samples == ds.samples

    def test_skips_comments_and_blank_lines(self, tmp_path, urban):
        ds = gen_distance_sweep(urban, 100.0, [200.0, 700.0, 900.0])
        path = tmp_path / "data.csv"
        write_dataset(ds, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        text = "\n".join(["# note", *lines[:2], "", *lines[2:], "", ""])
        path.write_text(text, encoding="utf-8")
        assert read_dataset(path).samples == ds.samples

    def test_ragged_row_names_its_line(self, tmp_path, urban):
        ds = gen_distance_sweep(urban, 100.0, [200.0, 700.0])
        path = tmp_path / "data.csv"
        write_dataset(ds, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0]
        path.write_text("\n".join([lines[0], "", *lines[1:]]) + "\n", encoding="utf-8")
        with pytest.raises(SchemaError) as excinfo:
            read_dataset(path)
        assert str(excinfo.value) == f"{path}:4: expected 8 fields, got 7"

    def test_rejects_header_only_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(",".join(CSV_HEADER) + "\n", encoding="utf-8")
        with pytest.raises(SchemaError):
            read_dataset(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_dataset(tmp_path / "nope.csv")


FINITE = st.floats(allow_nan=False, allow_infinity=False)


def sample_bits(samples):
    """Each sample's fields, floats as repr: tells -0.0 from 0.0."""
    return [tuple(map(repr, dataclasses.astuple(s))) for s in samples]


class TestDatasetRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(
        scenario=st.text(),
        rows=st.lists(
            st.tuples(FINITE, FINITE, FINITE, FINITE, st.floats(0.0, 1.0), FINITE),
            min_size=1, max_size=5,
        ),
    )
    @example(scenario="a\rb", rows=[(-0.0, 5e-324, 1e308, -1e308, 0.0, -5e-324)])
    def test_any_finite_floats_and_scenario_text(self, scenario, rows):
        samples = [
            Sample(i, scenario, d, h, f, pl, p, rss)
            for i, (d, h, f, pl, p, rss) in enumerate(rows)
        ]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.csv"
            write_dataset(Dataset(samples=samples, metadata={"k": 1}), path)
            back = read_dataset(path)
        assert back.samples == samples
        assert sample_bits(back.samples) == sample_bits(samples)
        assert back.metadata == {"k": 1}


class TestScenarioLayout:
    def test_defaults(self):
        generate, args = scenario_layout("distance_sweep", {})
        assert generate is gen_distance_sweep
        assert args == {
            "f_mhz": 2000.0, "rx_height_m": 1.5, "h_fixed": 100.0,
            "distances": np.linspace(100.0, 2000.0, 200).tolist(),
        }
        generate, args = scenario_layout("altitude_waypoints", {})
        assert generate is gen_altitude_waypoints
        assert args == {"f_mhz": 2000.0, "rx_height_m": 1.5, "r_ground": 500.0}

    def test_each_kind_reads_its_own_keys(self):
        block = {
            "kind": "altitude_waypoints", "f_mhz": 900, "rx_height_m": 3,
            "h_m": 50, "distances_m": [10, 20], "altitudes_m": [5, 6],
            "r_ground_m": 70,
        }
        shared = {"f_mhz": 900.0, "rx_height_m": 3.0}
        assert scenario_layout("distance_sweep", block)[1] == {
            **shared, "h_fixed": 50.0, "distances": [10.0, 20.0],
        }
        assert scenario_layout("altitude_waypoints", block)[1] == {
            **shared, "altitudes": [5.0, 6.0], "r_ground": 70.0,
        }

    @pytest.mark.parametrize("kind, block, message", [
        ("orbit", {}, "unknown scenario kind 'orbit'"),
        (None, {}, "unknown scenario kind None"),
        (
            "distance_sweep", {"distances_m": {"start": 1.0, "stop": 2.0}},
            "distances_m must be a list or an object with start, stop, count",
        ),
        (
            "distance_sweep", {"distances_m": "100"},
            "distances_m must be a list or an object with start, stop, count",
        ),
    ])
    def test_rejects(self, kind, block, message):
        with pytest.raises(ConfigurationError) as excinfo:
            scenario_layout(kind, block)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("kind, block, message", [
        ("distance_sweep", {"f_mhz": True}, "f_mhz must be finite and > 0, got True"),
        (
            "altitude_waypoints", {"rx_height_m": -1},
            "rx_height_m must be finite and >= 0, got -1.0",
        ),
        ("distance_sweep", {"h_m": True}, "h_m must be finite and > 0, got True"),
        (
            "altitude_waypoints", {"r_ground_m": math.nan},
            "r_ground_m must be finite and >= 0, got nan",
        ),
        (
            "distance_sweep", {"distances_m": [100.0, True]},
            "distances_m[1] must be finite, got True",
        ),
        (
            "altitude_waypoints", {"altitudes_m": [True]},
            "altitudes_m[0] must be finite, got True",
        ),
        (
            "distance_sweep", {"distances_m": {"start": math.inf, "stop": 2, "count": 3}},
            "start must be finite, got inf",
        ),
        (
            "distance_sweep", {"distances_m": {"start": 1, "stop": 2, "count": 20.5}},
            "count must be int and > 0, got 20.5",
        ),
        (
            "distance_sweep", {"distances_m": {"start": 1, "stop": 2, "count": "20"}},
            "count must be int and > 0, got '20'",
        ),
    ])
    def test_numbers_checked_by_the_rule_of_their_key(self, kind, block, message):
        with pytest.raises(ConfigurationError) as excinfo:
            scenario_layout(kind, block)
        assert str(excinfo.value) == message


class TestSidecar:
    @pytest.mark.parametrize("change, message", [
        (lambda env: env.pop("beta"), "missing keys ['beta']"),
        (lambda env: env.update(extra=1), "unknown keys ['extra']"),
        (lambda env: env["c"].pop(), "c must be an array of 5 numbers"),
        (
            lambda env: env.update(sigmoid={"a": 9.61}),
            "sigmoid must be an object with keys a, b",
        ),
    ], ids=["missing", "unknown", "c4", "sigmoid"])
    def test_environment_schema_checked(self, urban, change, message):
        metadata = copy.deepcopy(gen_distance_sweep(urban, 100.0, [200.0]).metadata)
        change(metadata["environment"])
        with pytest.raises(SchemaError) as excinfo:
            generate_from_metadata(metadata)
        assert str(excinfo.value) == message

    def test_budget_schema_checked(self, urban):
        metadata = copy.deepcopy(gen_distance_sweep(urban, 100.0, [200.0]).metadata)
        metadata["budget"]["tx_gain_db"] = 10
        with pytest.raises(SchemaError) as excinfo:
            generate_from_metadata(metadata)
        assert str(excinfo.value) == "unknown keys ['tx_gain_db']"

    @pytest.mark.parametrize("kind", ["distance_sweep", "altitude_waypoints"])
    def test_round_trip_is_byte_identical(self, tmp_path, urban, kind):
        budget = LinkBudget(
            tx_power_dbm=27.0, seed=4,
            fading=FadingSpec(kind="rician", rician=RicianParams(s=1.0, delta=0.3)),
        )
        common = dict(
            f_mhz=900.0, budget=budget, plos_model="product", rx_height_m=3.0
        )
        if kind == "distance_sweep":
            ds = gen_distance_sweep(urban, 80.0, [150.0, 400.0, 1200.0], **common)
        else:
            ds = gen_altitude_waypoints(urban, [30.0, 90.0], 700.0, **common)
        first = tmp_path / "first.csv"
        write_dataset(ds, first)
        second = tmp_path / "second.csv"
        write_dataset(generate_from_metadata(read_dataset(first).metadata), second)
        for ext in (".csv", ".json"):
            a, b = (tmp_path / (stem + ext) for stem in ("first", "second"))
            assert a.read_bytes() == b.read_bytes()


class TestCurveCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "curve.csv"
        rows = [[0.0, 1.0], [0.5, 0.25], [1.0, 0.0625]]
        write_curve_csv(
            path, ["skylink test", "config_sha256=abc"], ["x", "y"], rows
        )
        comments, header, back = read_curve_csv(path)
        assert comments == ["skylink test", "config_sha256=abc"]
        assert header == ["x", "y"]
        assert back == rows

    @pytest.mark.parametrize("text, rows, error", [
        ("# c\na,b\n\n1,2\n\n3,4\n\n", [[1.0, 2.0], [3.0, 4.0]], None),
        ("# c\na,b\n1,2\n3\n", None, "curve.csv:4: expected 2 fields, got 1"),
        ("# c\na,b\n\n1,2,3\n", None, "curve.csv:4: expected 2 fields, got 3"),
        ("# c\na,b\n1,x\n", None, "curve.csv:3: could not convert"),
    ], ids=["blank_lines", "short_row", "long_row", "not_a_number"])
    def test_reads_rows(self, tmp_path, text, rows, error):
        path = tmp_path / "curve.csv"
        path.write_text(text, encoding="utf-8")
        if error is None:
            assert read_curve_csv(path) == (["c"], ["a", "b"], rows)
        else:
            with pytest.raises(SchemaError, match=error):
                read_curve_csv(path)

    def test_comment_prefix_format(self, tmp_path):
        path = tmp_path / "curve.csv"
        write_curve_csv(path, ["note"], ["x"], [[1.0]])
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "# note"
        assert lines[1] == "x"
