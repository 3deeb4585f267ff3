"""Exception taxonomy shared across the library.

Validation failures of user-supplied values raise ValueError subclasses so
callers can catch them generically; numeric runtime failures raise
RuntimeError subclasses. The CLI maps the former to exit code 2 and the
latter to exit code 1.
"""

from __future__ import annotations

import json
import numbers
import sys


class SkylinkError(Exception):
    """Base class for all library errors."""


class DomainError(SkylinkError, ValueError):
    """A numeric argument is outside the function's domain."""


class ConfigurationError(SkylinkError, ValueError):
    """A configuration value is missing, malformed, or inconsistent."""


class SchemaError(SkylinkError, ValueError):
    """A file does not match its declared schema (CSV header, JSON keys)."""


class FitError(SkylinkError, RuntimeError):
    """Curve fitting received degenerate input or failed to produce a fit."""


class TrainingDivergedError(SkylinkError, RuntimeError):
    """Training produced non-finite parameters.

    Attributes:
        parameter_class: which parameter group went non-finite
            ("weights", "centers" or "spans").
        epoch: epoch index at failure, if known.
    """

    def __init__(self, parameter_class: str, epoch: int | None = None):
        self.parameter_class = parameter_class
        self.epoch = epoch
        where = f" at epoch {epoch}" if epoch is not None else ""
        super().__init__(
            f"training diverged{where}: non-finite values in {parameter_class}"
        )


def parse_json(text: str, path) -> object:
    """json.loads(text); a syntax error is "path:line:col: invalid JSON: msg"."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"
        ) from exc


# Terms of a field rule by their text. A rule joins terms with " and ", and
# its text is also the error message, so the two cannot drift apart.
RULES = {
    "finite": lambda v: abs(v) <= sys.float_info.max,  # no nan, inf or huge int
    "int": lambda v: isinstance(v, numbers.Integral),
    "> 0": lambda v: v > 0,
    ">= 0": lambda v: v >= 0,
    "in (0, 1)": lambda v: 0 < v < 1,
    "in (0, 1]": lambda v: 0 < v <= 1,
    "in [0, 90]": lambda v: 0 <= v <= 90,
}


def as_number(value):
    """float(value), except that a bool stays a bool for require to reject."""
    return value if isinstance(value, bool) else float(value)


def as_numbers(name: str, values) -> list:
    """as_number of each entry; a ConfigurationError names entry i as name[i]."""
    named = {f"{name}[{i}]": as_number(v) for i, v in enumerate(values)}
    require(ConfigurationError, dict.fromkeys(named, "finite"), named)
    return list(named.values())


def require(error: type, table: dict, values, prefix: str = "") -> None:
    """Check values[name], for each name in ``table``, against its rule.

    values is a mapping such as vars(self) or a function's locals(). The
    first value that is no real number (bools are not) or fails its rule
    raises error("{prefix}{name} must be {rule}, got {value!r}").
    """
    for name, rule in table.items():
        value = values[name]
        if isinstance(value, bool) or not isinstance(value, numbers.Real) or not all(
            RULES[term](value) for term in rule.split(" and ")
        ):
            raise error(f"{prefix}{name} must be {rule}, got {value!r}")
