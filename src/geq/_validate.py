"""The one validation path of geq: the rules that library arguments, config
fields and command-line flags are checked against.  Each rule returns the
value it accepted or raises :class:`~geq.errors.SchemaError` (a ``GeqError``
and a ``ValueError``) whose message starts with ``path``: an argument name
such as ``n_traj``, or a dotted config path such as ``checks.equivalence.duration``.
"""
from __future__ import annotations

import math
import numbers
import re
import sys
from typing import NoReturn

import numpy as np

from .errors import SchemaError

TOL_RANGE = (1e-13, 1e-3)  # the integrator tolerances
_MAX = sys.float_info.max


def fail(path: str, message: str) -> NoReturn:
    raise SchemaError(f"{path}: {message}")


def expect_instance(value, kind: type, path: str):
    """``value`` if it is an instance of ``kind``: an argument of the wrong
    type fails on its name instead of on a missing attribute further in."""
    if not isinstance(value, kind):
        fail(path, f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def expect_int(value, path: str, minimum: int | None = None,
               maximum: int | None = None) -> int:
    """An integer (any ``numbers.Integral`` but ``bool``) within the bounds."""
    # Concrete types first, here and below: isinstance then returns before the
    # slower abstract-class check.
    if isinstance(value, bool) or not isinstance(value, (int, numbers.Integral)):
        fail(path, "expected an integer")
    if minimum is not None and value < minimum:
        fail(path, f"must be at least {minimum}")
    if maximum is not None and value > maximum:
        fail(path, f"must be at most {maximum}")
    return int(value)


def expect_number(value, path: str, positive: bool = False) -> float:
    """A finite real number (not ``bool``), positive when asked.  Text is
    refused and quoted.  YAML 1.1 reads an exponent form as a number only with
    a dot and a signed exponent (``1e-10`` and ``1.0e10`` stay text), so text
    in exponent form gets that spelling of it: ``1.0e-10``, ``1.0e+10``."""
    if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)):
        if not isinstance(value, str):
            fail(path, "expected a number")
        form = re.fullmatch(r"([-+]?[0-9]+)(\.[0-9]*)?[eE]([-+]?)([0-9]+)", value)
        hint = f"; write {form[1]}{form[2] or '.0'}e{form[3] or '+'}{form[4]}" if form else ""
        fail(path, f"expected a number, got {value!r}{hint}")
    if positive and not 0.0 < value < math.inf:
        fail(path, "must be positive and finite")
    if not -_MAX <= value <= _MAX:
        fail(path, "must be finite")
    return float(value)


def expect_numbers(value, path: str, length: int | None = None) -> list[float]:
    """A non-empty list or tuple of finite numbers, of ``length`` if given."""
    if not isinstance(value, (list, tuple)) or not value:
        fail(path, "expected a non-empty list of numbers")
    if length is not None and len(value) != length:
        fail(path, f"expected exactly {length} entries")
    return [expect_number(v, f"{path}[{i}]") for i, v in enumerate(value)]


def expect_tol(value, path: str = "tol") -> float:
    tol = expect_number(value, path, positive=True)
    if not TOL_RANGE[0] <= tol <= TOL_RANGE[1]:
        fail(path, f"must lie in [{TOL_RANGE[0]:g}, {TOL_RANGE[1]:g}]")
    return tol


def expect_interval(value, path: str) -> None:
    """A pair ``(lo, hi)`` of finite numbers with ``lo < hi``."""
    if not isinstance(value, (tuple, list, np.ndarray)) or len(value) != 2:
        fail(path, "expected an interval (lo, hi)")
    if expect_number(value[0], f"{path}[0]") >= expect_number(value[1], f"{path}[1]"):
        fail(path, "lower bound must be below upper bound")


def as_floats(value, path: str) -> np.ndarray:
    """``value`` as a float array; ragged or non-numeric input fails on ``path``."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        fail(path, "expected an array of numbers")


def expect_finite(value, path: str) -> np.ndarray:
    array = as_floats(value, path)
    if not np.all(np.isfinite(array)):
        fail(path, "must be finite")
    return array


def expect_vector(value, shape: tuple, path: str) -> np.ndarray:
    """A finite array of exactly ``shape``: a vector is never broadcast."""
    vector = expect_finite(value, path)
    if vector.shape != shape:
        fail(path, f"expected shape {shape}, got {vector.shape}")
    return vector


def expect_points(value, dim: int, path: str) -> np.ndarray:
    """A non-empty batch ``(..., dim)`` of finite points."""
    points = as_floats(value, path)
    if points.ndim == 0 or points.shape[-1] != dim:
        fail(path, f"expected points of dimension {dim}")
    if points.size == 0:
        fail(path, "expected at least one point")
    return expect_finite(points, path)


def expect_broadcast(a: np.ndarray, b: np.ndarray, path_a: str, path_b: str) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        fail(path_a, f"shape {a.shape} does not broadcast with {path_b} of shape {b.shape}")
