"""Builders for the closed-form families of geodesically compatible metric
pairs: the n-dimensional separable block-diagonal model and the planar and
spatial bifurcation normal forms, together with their singular coordinate
maps and closed-form eigenvalue predictions.

All evaluators are written with exact divided-difference formulas for
polynomial data, so fields stay smooth and finite through the loci where
the naive quotients degenerate (coordinate origin, symmetry axis).
"""
from __future__ import annotations

import dataclasses
import enum
import functools
import math
from typing import Optional

import numpy as np

from ._batch import positive_definite
from ._validate import (expect_instance, expect_int, expect_interval, expect_number,
                        expect_numbers, fail)
from .charts import (Chart, ChartMap, MetricField, _diagonal, _read_only,
                     positivity_grid_size)
from .errors import NotPositive, NotRealizable, SeparationViolated
from .projective import MetricPair

Array = np.ndarray


def _horner(table: Array, xs: Array | float) -> Array:
    """``sum_k table[k] xs^k`` by ``polyval``'s own recurrence, so bitwise equal to
    it; the trailing axes of ``table`` ``(degree + 1, ...)`` broadcast against ``xs``."""
    out = table[-1] + xs * 0
    for c in table[-2::-1]:
        out = c + out * xs
    return out


@dataclasses.dataclass(frozen=True)
class ScalarFunction1D:
    """A polynomial scalar profile over an interval.

    ``coeffs[k]`` multiplies ``s**k``.  Evaluation does not clamp to the
    interval — polynomials extend smoothly — but builders validate their
    family conditions on the interval by dense sampling.
    """

    coeffs: tuple[float, ...]
    interval: tuple[float, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(expect_numbers(list(self.coeffs), "coeffs")))
        expect_interval(self.interval, "interval")

    def __call__(self, s: Array | float) -> Array:
        return _horner(np.asarray(self.coeffs), np.asarray(s, dtype=float))

    def derivative(self) -> "ScalarFunction1D":
        slopes = tuple(k * c for k, c in enumerate(self.coeffs))[1:]
        return ScalarFunction1D(slopes or (0.0,), self.interval)

    def divided0(self, s: Array | float) -> Array:
        """The exact quotient ``(p(s) - p(0)) / s`` (finite at ``s = 0``)."""
        return _horner(np.asarray(self.coeffs[1:] or (0.0,)), np.asarray(s, dtype=float))

    def divided2(self, a: Array | float, b: Array | float) -> Array:
        """The exact two-point quotient ``(p(a) - p(b)) / (a - b)``,
        finite and smooth at ``a = b``."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        out = np.zeros(np.broadcast(a, b).shape)
        hk = np.zeros_like(out)
        bk = np.ones_like(out)
        for k in range(1, len(self.coeffs)):
            hk = a * hk + bk
            out = out + self.coeffs[k] * hk
            bk = bk * b
        return out


@dataclasses.dataclass(frozen=True)
class LeviCivitaData:
    """Per-axis eigenvalue profiles for the separable block-diagonal model.

    Validated on construction: every profile's sampled range over the chart
    box must be finite, the ranges of consecutive profiles strictly
    separated, and the first profile positive.  The profiles' coefficient table built
    for that check is kept: every pair of the data, and :func:`model_eigenvalues`, reads it.
    """

    lambdas: tuple[ScalarFunction1D, ...]
    chart: Chart

    def __post_init__(self) -> None:
        object.__setattr__(self, "lambdas", tuple(self.lambdas))
        expect_instance(self.chart, Chart, "chart")
        for i, profile in enumerate(self.lambdas):
            expect_instance(profile, ScalarFunction1D, f"lambdas[{i}]")
        if len(self.lambdas) != self.chart.dim:
            fail("lambdas", f"expected {self.chart.dim} profiles, one per chart dimension")
        object.__setattr__(self, "_table", _read_only(_profile_table(self.lambdas)))
        with np.errstate(over="ignore", invalid="ignore"):  # 64 samples per axis, one pass
            vals = _profile_values(self._table, np.linspace(self.chart.lows, self.chart.highs, 64))
        ranges = list(zip(np.min(vals, axis=0).tolist(), np.max(vals, axis=0).tolist()))
        for i, bounds in enumerate(ranges):
            if not all(map(math.isfinite, bounds)):
                fail(f"lambdas[{i}]", f"the sampled range {list(bounds)} on the box is not finite")
        if ranges[0][0] <= 0.0:
            raise NotPositive("the first eigenvalue profile must be positive on the box")
        for i in range(len(ranges) - 1):
            if ranges[i][1] >= ranges[i + 1][0]:
                raise SeparationViolated(
                    f"profiles {i} and {i + 1} overlap on the box: "
                    f"sup {ranges[i][1]} >= inf {ranges[i + 1][0]}")

    @functools.cached_property
    def _jet_table(self) -> Array:
        """The profile table beside its zero-padded slopes, ``(degree + 1, 2 n)``: built on
        the first jet read and shared, like the profile table, by every pair of the data."""
        table = self._table
        slopes = np.concatenate([np.arange(1, len(table))[:, None] * table[1:],
                                 np.zeros((1, self.chart.dim))])
        return _read_only(np.concatenate([table, slopes], axis=1))


class FormKind(enum.Enum):
    """The built-in closed-form families."""

    LC_ND = "lc_nd"
    TWO_D_ELLIPTIC = "two_d_elliptic"
    TWO_D_POLAR_PLUS = "two_d_polar_plus"
    TWO_D_POLAR_MINUS = "two_d_polar_minus"
    THREE_D_AXIAL = "three_d_axial"
    THREE_D_FULL = "three_d_full"


@dataclasses.dataclass(frozen=True)
class ModelFormParams:
    """Parameters for :func:`model_form_pair`.

    Which fields are read depends on the family: ``lam`` is the
    function-valued eigenvalue profile (elliptic, axial, full),
    ``f`` the radial profile (polar, axial), ``lam_const`` the constant
    eigenvalue of the polar families, ``c`` the angular scale constant of
    the full spatial family.
    """

    lam: Optional[ScalarFunction1D] = None
    f: Optional[ScalarFunction1D] = None
    lam_const: Optional[float] = None
    c: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("lam", "f"):
            if getattr(self, name) is not None:
                expect_instance(getattr(self, name), ScalarFunction1D, name)


# ---------------------------------------------------------------------------
# Separable block-diagonal model


def _profile_table(lambdas: tuple[ScalarFunction1D, ...]) -> Array:
    """All profiles' coefficients as one zero-padded ``(degree + 1, n)`` table.  The
    padding keeps every profile's bits: Horner's rule carries ``+0.0`` through it."""
    table = np.zeros((max(len(lam.coeffs) for lam in lambdas), len(lambdas)))
    for i, lam in enumerate(lambdas):
        table[:len(lam.coeffs), i] = lam.coeffs
    return table


def _profile_values(table: Array, xs: Array) -> Array:
    """``out[..., i]`` is profile ``i`` of ``table`` at ``xs[..., i]``.  From 512 entries on, the
    coordinate axis leads, so numpy's inner loops here and on the result run along the batch.

    The bits of every entry are the same either way; only the memory layout of the result, and
    of arithmetic on it, follows the batch size.  A matrix product's bits follow its operands'
    strides, so the separable jet, whose partials feed the spray's products, copies them into
    one layout."""
    xs = np.asarray(xs, dtype=float)
    if xs.size < 512:
        return _horner(table, xs)
    columns = np.ascontiguousarray(np.moveaxis(xs, -1, 0))
    return np.moveaxis(_horner(table.reshape(table.shape + (1,) * (xs.ndim - 1)), columns), 0, -1)


@functools.cache
def _diagonal_constants(n: int) -> tuple[Array, Array, Array]:
    """The diagonal index, the signs ``(-1)^i`` and ``1 + I`` in dimension ``n``: read-only,
    made once per dimension and shared by every separable pair.  The signs are written on
    the diagonal of the differences, so the product of a row carries its sign exactly."""
    idx = np.arange(n)
    return tuple(_read_only(a) for a in (idx, (-1.0) ** idx, 1.0 + np.eye(n)))


def levi_civita_pair(data: LeviCivitaData) -> MetricPair:
    """The separable block-diagonal pair with prescribed eigenvalue
    profiles; the compatibility tensor of the result is exactly
    ``diag(lambda_1(x_1), ..., lambda_n(x_n))``.

    Both metrics are diagonal, with the factors ``Pi_i = (-1)^i prod_{j != i} (lambda_j -
    lambda_i)`` (positive under the separation ordering) from one difference matrix.  Both
    carry a ``diagonal_jet``: one Horner pass over the data's profile and slope tables, the
    log-derivatives of ``Pi`` from the reciprocals of the same differences, and the partials
    laid out alike at every batch size, so a row of the geodesic spray has the same bits in
    a batch of any size.  Where two profiles coincide, both their factors are 0 and some of
    those factors' partials are not finite; the spray refuses a zero diagonal.
    """
    n = data.chart.dim
    idx, sign, doubled = _diagonal_constants(n)

    def factors(vals: Array) -> tuple[Array, Array]:
        """``diffs[..., i, j] = vals_j - vals_i``, ``(-1)^i`` on the diagonal, and ``Pi``
        ``(..., n)``."""
        diffs = vals[..., None, :] - vals[..., :, None]
        diffs[..., idx, idx] = sign
        return diffs, np.multiply.reduce(diffs, axis=-1)

    def rho_of(vals: Array) -> Array:
        return 1.0 / (vals * np.multiply.reduce(vals, axis=-1, keepdims=True))

    def g_eval(xs: Array) -> Array:
        return _diagonal(factors(_profile_values(data._table, xs))[1])

    def gbar_eval(xs: Array) -> Array:
        vals = _profile_values(data._table, xs)
        return _diagonal(rho_of(vals) * factors(vals)[1])

    def diagonal_jet(xs: Array, companion: bool) -> tuple[Array, Array]:
        """The diagonal ``Pi`` (companion: ``rho Pi``) and its partials ``d[..., k, i]``,
        the transpose of a C-ordered array at every batch size."""
        both = _profile_values(data._jet_table, np.concatenate([xs, xs], axis=-1))
        vals, ders = both[..., :n], both[..., n:]
        diffs, diagonal = factors(vals)
        with np.errstate(divide="ignore", invalid="ignore"):  # where profiles coincide
            inv = 1.0 / diffs
            inv[..., idx, idx] = 0.0
            # grad[..., i, k], the log-derivative of factor i along k: lam_k' / (lam_k -
            # lam_i) for k != i, -lam_i' * sum_{j != i} 1 / (lam_j - lam_i) for k == i.
            inv[..., idx, idx] = -np.add.reduce(inv, axis=-1)
            grad = ders[..., None, :] * inv
            if companion:
                diagonal = rho_of(vals) * diagonal
                # d_k log rho_i = -(1 + [k == i]) lam_k' / lam_k
                grad -= (ders / vals)[..., None, :] * doubled
            return diagonal, np.ascontiguousarray(diagonal[..., :, None] * grad).swapaxes(-1, -2)

    return MetricPair(
        g=MetricField(chart=data.chart, eval=g_eval,
                      diagonal_jet=lambda xs: diagonal_jet(xs, False)),
        gbar=MetricField(chart=data.chart, eval=gbar_eval,
                         diagonal_jet=lambda xs: diagonal_jet(xs, True)),
    )


def random_levi_civita_data(n: int, rng: np.random.Generator) -> LeviCivitaData:
    """Seeded random model data on ``[-0.5, 0.5]^n``: degree-3 profiles whose sampled
    ranges are separated by construction (unit base gaps, perturbations below 0.27)."""
    chart = Chart(expect_int(n, "n", 1), ((-0.5, 0.5),) * n)
    lambdas = []
    level = 1.0 + rng.uniform(0.0, 1.0)
    for _ in range(n):
        pert = rng.uniform(-0.3, 0.3, size=3)
        lambdas.append(ScalarFunction1D((level, *pert), (-0.5, 0.5)))
        level += 1.0 + rng.uniform(0.0, 1.0)
    return LeviCivitaData(lambdas=tuple(lambdas), chart=chart)


# ---------------------------------------------------------------------------
# Bifurcation normal forms

START_HALF_WIDTH = 0.5  # every bifurcation family's box starts at [-0.5, 0.5]^dim


def _sym2(a11: Array, a12: Array, a22: Array) -> Array:
    out = np.zeros(np.broadcast(a11, a12, a22).shape + (2, 2))
    out[..., 0, 0] = a11
    out[..., 0, 1] = out[..., 1, 0] = a12
    out[..., 1, 1] = a22
    return out


def _elliptic_fields(lam: ScalarFunction1D):
    def g_eval(xs: Array) -> Array:
        xs = np.asarray(xs, dtype=float)
        u, v = xs[..., 0], xs[..., 1]
        rho = np.hypot(u, v)
        dd = lam.divided2(u + rho, u - rho)
        zero = np.zeros_like(u)
        return _sym2(4.0 * dd, zero, 4.0 * dd)

    def gbar_eval(xs: Array) -> Array:
        xs = np.asarray(xs, dtype=float)
        u, v = xs[..., 0], xs[..., 1]
        rho = np.hypot(u, v)
        mu1 = lam(u - rho)
        mu3 = lam(u + rho)
        dd = lam.divided2(u + rho, u - rho)
        a2 = (2.0 * dd / (mu1 * mu3)) ** 2
        b = (mu1 + mu3) / (2.0 * dd)
        return _sym2(a2 * (b - u), -a2 * v, a2 * (b + u))

    return g_eval, gbar_eval


def _polar_fields(f: ScalarFunction1D, lam_const: float, minus: bool):
    sign = -1.0 if minus else 1.0

    def g_eval(xs: Array) -> Array:
        xs = np.asarray(xs, dtype=float)
        u, v = xs[..., 0], xs[..., 1]
        fv = f(u**2 + v**2)
        zero = np.zeros_like(u)
        return _sym2(fv, zero, fv)

    def gbar_eval(xs: Array) -> Array:
        xs = np.asarray(xs, dtype=float)
        u, v = xs[..., 0], xs[..., 1]
        r2 = u**2 + v**2
        fv = f(r2)
        k = fv / (lam_const**3 * (1.0 + sign * r2 * fv) ** 2)
        return _sym2(k * (1.0 + sign * fv * v**2),
                     -sign * k * fv * u * v,
                     k * (1.0 + sign * fv * u**2))

    return g_eval, gbar_eval


def _axial_fields(lam: ScalarFunction1D, f: ScalarFunction1D):
    def pieces(xs: Array):
        xs = np.asarray(xs, dtype=float)
        x0, t1, t2 = xs[..., 0], xs[..., 1], xs[..., 2]
        r2 = t1**2 + t2**2
        return x0, t1, t2, r2, lam(x0), f(r2)

    def embed(a00: Array, block: Array) -> Array:
        out = np.zeros(a00.shape + (3, 3))
        out[..., 0, 0] = a00
        out[..., 1:, 1:] = block
        return out

    def g_eval(xs: Array) -> Array:
        x0, t1, t2, r2, lv, fv = pieces(xs)
        a00 = (1.0 - lv) * (1.0 + r2 * fv - lv)
        block = _sym2(fv * (1.0 - lv) + fv**2 * t1**2,
                      fv**2 * t1 * t2,
                      fv * (1.0 - lv) + fv**2 * t2**2)
        return embed(a00, block)

    def gbar_eval(xs: Array) -> Array:
        x0, t1, t2, r2, lv, fv = pieces(xs)
        one_plus = 1.0 + r2 * fv
        a00 = (1.0 - lv) * (one_plus - lv) / (lv**2 * one_plus)
        scale = fv / (lv * one_plus**2)
        block = _sym2(scale * (one_plus - lv * (1.0 + fv * t2**2)),
                      scale * lv * fv * t1 * t2,
                      scale * (one_plus - lv * (1.0 + fv * t1**2)))
        return embed(a00, block)

    return g_eval, gbar_eval


def _full_fields(lam: ScalarFunction1D, c: float):
    lam0 = float(lam(0.0))

    def pieces(xs: Array):
        xs = np.asarray(xs, dtype=float)
        u0, t1, t2 = xs[..., 0], xs[..., 1], xs[..., 2]
        s2 = t1**2 + t2**2
        rho = np.sqrt(u0**2 + s2)
        mu1 = lam(u0 - rho)
        mu3 = lam(u0 + rho)
        dd = lam.divided2(u0 + rho, u0 - rho)
        dprod = lam.divided0(u0 - rho) * lam.divided0(u0 + rho)
        return u0, t1, t2, s2, rho, mu1, mu3, dd, dprod

    def angular_projector(t1: Array, t2: Array, s2: Array) -> Array:
        """Projector onto the in-plane angular direction; the zero matrix
        on the axis (s = 0), where the angular direction degenerates."""
        safe = np.where(s2 > 0, s2, 1.0)
        p11 = np.where(s2 > 0, t2**2 / safe, 0.0)
        p12 = np.where(s2 > 0, -t1 * t2 / safe, 0.0)
        p22 = np.where(s2 > 0, t1**2 / safe, 0.0)
        return _sym2(p11, p12, p22)

    def g_eval(xs: Array) -> Array:
        u0, t1, t2, s2, rho, mu1, mu3, dd, dprod = pieces(xs)
        a = 4.0 * dd
        p_ang = angular_projector(t1, t2, s2)
        out = np.zeros(u0.shape + (3, 3))
        out[..., 0, 0] = a
        eye2 = np.eye(2)
        out[..., 1:, 1:] = (a[..., None, None] * eye2
                            + (c * dprod - a)[..., None, None] * p_ang)
        return out

    def gbar_eval(xs: Array) -> Array:
        u0, t1, t2, s2, rho, mu1, mu3, dd, dprod = pieces(xs)
        abar2 = (2.0 * dd / (mu1 * mu3)) ** 2
        b = (mu1 + mu3) / (2.0 * dd)
        p_ang = angular_projector(t1, t2, s2)
        out = np.zeros(u0.shape + (3, 3))
        out[..., 0, 0] = abar2 * (b - u0) / lam0
        off1 = -abar2 * t1 / lam0
        off2 = -abar2 * t2 / lam0
        out[..., 0, 1] = out[..., 1, 0] = off1
        out[..., 0, 2] = out[..., 2, 0] = off2
        radial = abar2 * (b + u0) / lam0
        angular = c * dprod / (lam0**2 * mu1 * mu3)
        eye2 = np.eye(2)
        out[..., 1:, 1:] = (radial[..., None, None] * eye2
                            + (angular - radial)[..., None, None] * p_ang)
        return out

    return g_eval, gbar_eval


def _certified_positive(evaluate, xs: Array) -> bool:
    """Whether a metric evaluator is finite and positive definite at the
    points ``xs``: every Cholesky pivot positive (:func:`~geq._batch.positive_definite`)."""
    with np.errstate(all="ignore"):
        mats = evaluate(xs)
    return bool(np.all(np.isfinite(mats))) and positive_definite(mats)


def _realize_on_box(kind: FormKind, fields, dim: int, extra_ok=None) -> MetricPair:
    """Build the pair of the evaluators ``fields = (g_eval, gbar_eval)`` on the largest
    box (half-width :data:`START_HALF_WIDTH`, halved up to six times) where dense
    sampling certifies both metrics positive definite (:func:`_certified_positive`) and
    ``extra_ok`` holds.  The evaluators do not depend on the box: every box tried, and
    the pair built, reads the same two.  The grid is read in pieces of at most
    :data:`~geq._batch.CHUNK` points (:meth:`Chart.grid_pieces`), each checked on ``g``,
    then ``gbar``, then ``extra_ok``, and the box is halved at the first piece that
    fails; so the matrices of one metric on one piece, 0.3 MB for a 3-D family, are all
    that is held, where the whole 46^3-point grid's were 7 MB per metric."""
    g_eval, gbar_eval = fields
    half = START_HALF_WIDTH
    for _ in range(7):
        chart = Chart(dim, tuple((-half, half) for _ in range(dim)))
        if all(_certified_positive(g_eval, xs) and _certified_positive(gbar_eval, xs)
               and (extra_ok is None or extra_ok(xs))
               for xs in chart.grid_pieces(positivity_grid_size(dim))):
            return MetricPair(g=MetricField(chart=chart, eval=g_eval),
                              gbar=MetricField(chart=chart, eval=gbar_eval))
        half *= 0.5
    raise NotRealizable(
        f"{kind.value}: positive definiteness failed even after six box halvings")


def model_form_pair(kind: FormKind, params) -> MetricPair:
    """Build a metric pair of the requested closed-form family.

    ``params`` is :class:`ModelFormParams` for the bifurcation families and
    :class:`LeviCivitaData` for :data:`FormKind.LC_ND`.  A bifurcation family's
    two evaluators are made once, and its chart box is
    halved (up to six times) until dense sampling certifies positive
    definiteness: both metrics finite with every Cholesky pivot positive at
    every grid point (:func:`_certified_positive`); :class:`NotRealizable` is
    raised when that never happens.  The grid is read in pieces of at most
    :data:`~geq._batch.CHUNK` points (:func:`_realize_on_box`): building a 3-D
    family holds 1.4 MB at its peak (``tracemalloc``), not the 17 to 29 MB that
    its whole 46^3-point grid took.
    """
    if kind is FormKind.LC_ND:
        if not isinstance(params, LeviCivitaData):
            fail("params", "the separable family takes LeviCivitaData parameters")
        return levi_civita_pair(params)
    if not isinstance(params, ModelFormParams):
        fail("params", "bifurcation families take ModelFormParams")

    if kind is FormKind.TWO_D_ELLIPTIC:
        if params.lam is None:
            fail("params.lam", "TWO_D_ELLIPTIC requires the profile lam")
        return _realize_on_box(kind, _elliptic_fields(params.lam), 2)

    if kind in (FormKind.TWO_D_POLAR_PLUS, FormKind.TWO_D_POLAR_MINUS):
        if params.f is None or params.lam_const is None:
            fail("params", f"{kind.name} requires the profile f and lam_const")
        if expect_number(params.lam_const, "lam_const") <= 0:
            raise NotPositive("the constant eigenvalue must be positive")
        minus = kind is FormKind.TWO_D_POLAR_MINUS
        # No check beyond positivity: g = f·I is positive definite exactly when
        # f > 0, and det ḡ = k²(1 ± r²f) then asks 1 − r²f > 0 of the minus family.
        return _realize_on_box(kind, _polar_fields(params.f, params.lam_const, minus), 2)

    if kind is FormKind.THREE_D_AXIAL:
        if params.lam is None or params.f is None:
            fail("params", "THREE_D_AXIAL requires the profiles lam and f")
        lam, f = params.lam, params.f

        def extra(grid: Array) -> bool:
            lv = lam(grid[:, 0])
            fv = f(grid[:, 1] ** 2 + grid[:, 2] ** 2)
            return bool(np.min(lv) > 0 and np.max(lv) < 1 and np.min(fv) > 0)

        return _realize_on_box(kind, _axial_fields(lam, f), 3, extra_ok=extra)

    if kind is FormKind.THREE_D_FULL:
        if params.lam is None or params.c is None:
            fail("params", "THREE_D_FULL requires the profile lam and the constant c")
        if expect_number(params.c, "c") <= 0:
            raise NotPositive("the angular constant must be positive")
        if float(params.lam.derivative()(0.0)) <= 0:
            raise NotRealizable("the profile must be strictly increasing at 0")
        return _realize_on_box(kind, _full_fields(params.lam, params.c), 3)

    fail("kind", f"unknown family {kind}")


# ---------------------------------------------------------------------------
# Closed-form eigenvalues


def model_eigenvalues(kind: FormKind, params, point: Array) -> Array:
    """Closed-form ascending eigenvalue predictions of the compatibility
    tensor at a point (batched over leading axes)."""
    x = np.asarray(point, dtype=float)
    if kind is FormKind.LC_ND:
        vals = _profile_values(params._table, x)
    elif kind is FormKind.TWO_D_ELLIPTIC:
        u, v = x[..., 0], x[..., 1]
        rho = np.hypot(u, v)
        vals = np.stack([params.lam(u - rho), params.lam(u + rho)], axis=-1)
    elif kind in (FormKind.TWO_D_POLAR_PLUS, FormKind.TWO_D_POLAR_MINUS):
        r2 = x[..., 0] ** 2 + x[..., 1] ** 2
        sign = -1.0 if kind is FormKind.TWO_D_POLAR_MINUS else 1.0
        moved = params.lam_const * (1.0 + sign * r2 * params.f(r2))
        vals = np.stack([np.broadcast_to(params.lam_const, r2.shape), moved], axis=-1)
    elif kind is FormKind.THREE_D_AXIAL:
        r2 = x[..., 1] ** 2 + x[..., 2] ** 2
        lo = params.lam(x[..., 0])
        vals = np.stack([lo, np.ones_like(lo), 1.0 + r2 * params.f(r2)], axis=-1)
    elif kind is FormKind.THREE_D_FULL:
        u0 = x[..., 0]
        rho = np.sqrt(u0**2 + x[..., 1] ** 2 + x[..., 2] ** 2)
        mid = np.broadcast_to(params.lam(0.0), u0.shape)
        vals = np.stack([params.lam(u0 - rho), mid, params.lam(u0 + rho)], axis=-1)
    else:
        fail("kind", f"unknown family {kind}")
    return np.sort(vals, axis=-1)


# ---------------------------------------------------------------------------
# Singular coordinate maps


def _matrix(*rows) -> Array:
    """The batched matrix with entries ``rows[a][b]`` (arrays or numbers, broadcast)."""
    entries = np.broadcast_arrays(*(np.asarray(e, dtype=float) for row in rows for e in row))
    return np.stack(entries, axis=-1).reshape(entries[0].shape + (len(rows), len(rows[0])))


def _elliptic_map() -> ChartMap:
    source = Chart(2, ((0.3, 0.65), (0.3, 0.65)))
    inverse_source = Chart(2, ((-0.15, 0.15), (0.1, 0.4)))

    def forward(y: Array) -> Array:
        y = np.asarray(y, dtype=float)
        x1, x2 = y[..., 0], y[..., 1]
        return np.stack([(x2**2 - x1**2) / 2.0, x1 * x2], axis=-1)

    def jacobian(y: Array) -> Array:
        y = np.asarray(y, dtype=float)
        x1, x2 = y[..., 0], y[..., 1]
        return _matrix((-x1, x2), (x2, x1))

    def inverse(w: Array) -> Array:
        w = np.asarray(w, dtype=float)
        u, v = w[..., 0], w[..., 1]
        rho = np.hypot(u, v)
        return np.stack([np.sqrt(rho - u), np.sqrt(rho + u)], axis=-1)

    return ChartMap(source=source, forward=forward, jacobian=jacobian,
                    inverse=inverse, inverse_source=inverse_source)


def _log_polar_map() -> ChartMap:
    source = Chart(2, ((-1.2, -0.8), (0.2, 1.0)))
    inverse_source = Chart(2, ((0.15, 0.35), (0.1, 0.3)))

    def forward(y: Array) -> Array:
        y = np.asarray(y, dtype=float)
        r, phi = y[..., 0], y[..., 1]
        er = np.exp(r)
        return np.stack([er * np.cos(phi), er * np.sin(phi)], axis=-1)

    def jacobian(y: Array) -> Array:
        w = forward(y)
        u, v = w[..., 0], w[..., 1]
        return _matrix((u, -v), (v, u))

    def inverse(w: Array) -> Array:
        w = np.asarray(w, dtype=float)
        u, v = w[..., 0], w[..., 1]
        return np.stack([0.5 * np.log(u**2 + v**2), np.arctan2(v, u)], axis=-1)

    return ChartMap(source=source, forward=forward, jacobian=jacobian,
                    inverse=inverse, inverse_source=inverse_source)


def _cylindrical_elliptic_map(c: float) -> ChartMap:
    rc = float(np.sqrt(c))
    source = Chart(3, ((-0.1, 0.1), (0.1, 0.25), (0.1, 0.25)))
    inverse_source = Chart(3, ((0.1, 0.4), (0.2 * rc, 1.2 * rc), (0.1, 0.4)))

    def forward(u: Array) -> Array:
        u = np.asarray(u, dtype=float)
        u0, u1, u2 = u[..., 0], u[..., 1], u[..., 2]
        s = np.hypot(u1, u2)
        rho = np.sqrt(u0**2 + s**2)
        theta = np.arccos(np.clip(u1 / s, -1.0, 1.0))
        return np.stack([rho - u0, rc * theta, rho + u0], axis=-1)

    def jacobian(u: Array) -> Array:
        u = np.asarray(u, dtype=float)
        u0, u1, u2 = u[..., 0], u[..., 1], u[..., 2]
        s2 = u1**2 + u2**2
        rho = np.sqrt(u0**2 + s2)
        return _matrix((u0 / rho - 1.0, u1 / rho, u2 / rho),
                       (0.0, -rc * u2 / s2, rc * u1 / s2),
                       (u0 / rho + 1.0, u1 / rho, u2 / rho))

    def inverse(x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        x0, x1, x2 = x[..., 0], x[..., 1], x[..., 2]
        u0 = (x2 - x0) / 2.0
        s = np.sqrt(x0 * x2)
        theta = x1 / rc
        return np.stack([u0, s * np.cos(theta), s * np.sin(theta)], axis=-1)

    return ChartMap(source=source, forward=forward, jacobian=jacobian,
                    inverse=inverse, inverse_source=inverse_source)


def canonical_chart_map(kind: FormKind, c: float = 1.0) -> ChartMap:
    """The singular coordinate map canonically attached to a family:
    squares-of-coordinates (elliptic), log-polar (both polar families), or
    cylindrical-elliptic with angular constant ``c`` (full spatial family).
    Source boxes exclude the singular locus (radius below 0.05)."""
    if kind is FormKind.TWO_D_ELLIPTIC:
        return _elliptic_map()
    if kind in (FormKind.TWO_D_POLAR_PLUS, FormKind.TWO_D_POLAR_MINUS):
        return _log_polar_map()
    if kind is FormKind.THREE_D_FULL:
        return _cylindrical_elliptic_map(c)
    fail("kind", f"no canonical singular coordinate map for {kind}")
