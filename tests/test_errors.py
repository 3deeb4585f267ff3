"""errors.require: the one range check behind every value object and every
scalar input of the per-row channel functions."""

from __future__ import annotations

import math

import numpy as np
import pytest

from skylink import (
    HataParams,
    LinkBudget,
    hata_path_loss,
    plos_holis,
    plos_product,
    plos_sigmoid,
    rss_from_path_loss,
)
from skylink.errors import RULES, ConfigurationError, DomainError, require


@pytest.mark.parametrize("rule, good, bad", [
    ("finite", [0, -1.5, 1e308, 10**300], [math.nan, math.inf, -math.inf, 10**400]),
    ("int and >= 0", [0, 7, 2**64, np.int64(3)], [-1, 2.0, 2.5, math.nan]),
    ("finite and > 0", [1e-300, 3], [0, -0.0, -1, math.inf, math.nan]),
    ("in (0, 1)", [0.5], [0, 1, math.nan]),
    ("in (0, 1]", [1, 0.5], [0, 1.0000001, math.nan]),
    ("in [0, 90]", [0, 90, 45.5], [-1e-9, 90.1, math.nan]),
])
def test_rule_accepts_and_rejects(rule, good, bad):
    for value in good:
        require(ConfigurationError, {"x": rule}, {"x": value})
    for value in bad:
        with pytest.raises(ConfigurationError) as excinfo:
            require(ConfigurationError, {"x": rule}, {"x": value})
        assert str(excinfo.value) == f"x must be {rule}, got {value!r}"


@pytest.mark.parametrize("value", [True, False, None, "1", [], {}, 1j, np.bool_(1)])
@pytest.mark.parametrize("rule", list(RULES))
def test_non_numbers_fail_every_rule(rule, value):
    with pytest.raises(DomainError):
        require(DomainError, {"x": rule}, {"x": value})


def test_first_failure_in_table_order_with_prefix():
    values = {"a": 1.0, "b": 0, "c": -1, "unchecked": "x"}
    with pytest.raises(DomainError) as excinfo:
        require(DomainError, {"a": "finite", "b": "> 0", "c": "> 0"}, values, "env: ")
    assert type(excinfo.value) is DomainError
    assert str(excinfo.value) == "env: b must be > 0, got 0"


def test_every_table_name_must_be_present():
    with pytest.raises(KeyError):
        require(DomainError, {"tau_detla": "finite"}, {"tau_delta": 1.0})


# Each per-row function with one numeric argument, by name, set to ``v``,
# and a whole number that argument accepts.
PER_ROW = {
    "HataParams": ("f_mhz", 900, lambda env, v: hata_path_loss(HataParams(v, 50.0, 1.5), 2.0)),
    "hata_path_loss": ("d_km", 2, lambda env, v: hata_path_loss(HataParams(900.0, 50.0, 1.5), v)),
    "plos_sigmoid": ("theta_deg", 45, lambda env, v: plos_sigmoid(env, v)),
    "plos_holis": ("theta_deg", 45, lambda env, v: plos_holis(env, v)),
    "plos_product h_t": ("h_t", 100, lambda env, v: plos_product(env, v, 0.0, 100.0)),
    "plos_product h_r": ("h_r", 2, lambda env, v: plos_product(env, 100.0, v, 100.0)),
    "plos_product r": ("r", 500, lambda env, v: plos_product(env, 100.0, 1.5, v)),
    "rss_from_path_loss": ("pl_db", 100, lambda env, v: rss_from_path_loss(LinkBudget(), v)),
}


@pytest.mark.parametrize("value", [True, np.bool_(False), "45", None, 10**400, math.nan, -math.inf])
@pytest.mark.parametrize("function", PER_ROW)
def test_per_row_functions_take_only_finite_numbers(function, value, urban):
    name, _, call = PER_ROW[function]
    with pytest.raises(DomainError) as excinfo:
        call(urban, value)
    assert str(excinfo.value) == f"{name} must be finite, got {value!r}"


@pytest.mark.parametrize("kind", [int, np.float64, np.int64])
@pytest.mark.parametrize("function", PER_ROW)
def test_per_row_functions_read_any_real_as_its_float(function, kind, urban):
    _, number, call = PER_ROW[function]
    assert call(urban, kind(number)) == call(urban, float(number))


# One range fault of each per-row function, by name: (the argument's value as
# a whole number, the error's text, a call of the function on v).
PER_ROW_RANGE = {
    "HataParams f_mhz": (0, "f_mhz must be > 0, got 0.0", lambda env, v: HataParams(v, 50.0, 1.5)),
    "HataParams h_b": (0, "h_b must be > 0, got 0.0", lambda env, v: HataParams(900.0, v, 1.5)),
    "HataParams h_m": (0, "h_m must be > 0, got 0.0", lambda env, v: HataParams(900.0, 50.0, v)),
    "hata_path_loss": (
        0, "d_km must be > 0, got 0.0",
        lambda env, v: hata_path_loss(HataParams(900.0, 50.0, 1.5), v),
    ),
    "plos_holis": (91, "theta_deg must be in [0, 90], got 91.0", lambda env, v: plos_holis(env, v)),
    "plos_sigmoid": (
        91, "theta_deg must be in [0, 90], got 91.0", lambda env, v: plos_sigmoid(env, v),
    ),
    "plos_product r": (
        -1, "r must be >= 0, got -1.0", lambda env, v: plos_product(env, 100.0, 1.5, v),
    ),
}


@pytest.mark.parametrize("kind", [int, np.float64])
@pytest.mark.parametrize("function", PER_ROW_RANGE)
def test_per_row_range_faults_name_the_float(function, kind, urban):
    number, message, call = PER_ROW_RANGE[function]
    with pytest.raises(DomainError) as excinfo:
        call(urban, kind(number))
    assert type(excinfo.value) is DomainError
    assert str(excinfo.value) == message
