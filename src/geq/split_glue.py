"""Splitting a compatible metric pair into block factors and gluing factor
pairs into product pairs.

The splitting rebuilds, from the characteristic polynomials of the two
eigenvalue blocks of the compatibility tensor, a pair of block-diagonal
metrics whose blocks each depend only on their own coordinates; the gluing
is the exact inverse construction, and ``oplus`` is its associative fold.
Both fields of a split or glued pair share one evaluation of their
intermediates per point batch, and each field's matrix is assembled only when
that field is read; a glued pair evaluates each factor only on the slices of
a stacked batch that move the factor's coordinates, and takes the factor's
``L`` and its characteristic coefficients from one Cholesky congruence of the
factor's metrics on the batch kernel: no LAPACK call, no adjugate.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from ._validate import expect_instance, expect_int, fail
from .charts import Chart, MetricField
from .errors import EigenOrderViolated, GapViolated, NotPositive
from .projective import MetricPair, _char_scale, _l_with, _scan_grid, _spectrum, eigen_range

Array = np.ndarray


@dataclasses.dataclass(frozen=True)
class SplitResult:
    """Block factorization of a pair: block size, the two block-diagonal
    metrics, the coordinate-index partition, and each block's eigenvalue
    range over the gap scan's grid, read from the pair's one scan, which
    every cut of the pair shares."""

    r: int
    h: MetricField
    hbar: MetricField
    index_split: tuple[tuple[int, ...], tuple[int, ...]]
    factor_ranges: tuple[tuple[float, float], tuple[float, float]]


@dataclasses.dataclass(frozen=True)
class EquivTriple:
    """A compatible pair together with the sampled range of its
    compatibility-tensor eigenvalues."""

    pair: MetricPair
    eigen_range: tuple[float, float]

    def __post_init__(self) -> None:
        if self.eigen_range[0] <= 0.0:
            raise NotPositive("eigenvalue range must be positive")


def make_triple(pair: MetricPair) -> EquivTriple:
    """Wrap a pair with its eigenvalue range, sampled on a deterministic
    grid."""
    return EquivTriple(pair=pair, eigen_range=eigen_range(pair, _scan_grid(pair.chart)))


def _poly_from_linear_factors(roots: Array) -> Array:
    """Ascending-in-``t`` coefficients of ``prod_j (roots_j - t)``,
    batched over leading axes."""
    roots = np.asarray(roots, dtype=float)
    m = roots.shape[-1]
    c = np.zeros(roots.shape[:-1] + (m + 1,))
    c[..., 0] = 1.0
    for j in range(m):
        shifted = np.zeros_like(c)
        shifted[..., 1:] = c[..., :-1]
        c = roots[..., j : j + 1] * c - shifted
    return c


def _matrix_poly(coeffs: Array, L: Array) -> Array:
    """Evaluate a scalar polynomial on a matrix by Horner's scheme,
    batched: ``sum_k coeffs[..., k] L^k``."""
    n = L.shape[-1]
    eye = np.broadcast_to(np.eye(n), L.shape)
    m = coeffs.shape[-1] - 1
    out = coeffs[..., m, None, None] * eye
    for k in range(m - 1, -1, -1):
        out = out @ L + coeffs[..., k, None, None] * eye
    return out


def _split(pair: MetricPair, xs: Array, r: int) -> tuple[Array, Array, Array, Array]:
    """Both metrics at a batch of points and the two tensors of :func:`split_tensors`;
    a point where the eigenvalues on the two sides of the cut meet, so that the
    tensors are singular, raises :class:`GapViolated` naming it."""
    xs = np.asarray(xs, dtype=float)
    g, gb = pair.g.eval(xs), pair.gbar.eval(xs)
    L, mu = _l_with(g, gb, _spectrum)
    crossed = mu[..., r - 1] >= mu[..., r]
    if np.any(crossed):
        raise GapViolated(f"eigenvalues {r} and {r + 1} of L meet across the cut at "
                          f"{xs[crossed][0].tolist()}")
    c1 = _poly_from_linear_factors(mu[..., :r])
    c2 = _poly_from_linear_factors(mu[..., r:])
    chi1 = _matrix_poly(c1, L)
    chi2 = _matrix_poly(c2, L)
    sign = (-1.0) ** r
    conv = sign * chi1 + chi2
    det1 = c1[..., 0]
    det2 = c2[..., 0]
    conv_bar = (sign / det1)[..., None, None] * chi1 + (1.0 / det2)[..., None, None] * chi2
    return g, gb, conv, conv_bar


def split_tensors(pair: MetricPair, xs: Array, r: int) -> tuple[Array, Array]:
    """The block-recombination tensors of the splitting at a batch of
    points: the first converts the base metric into the block form, the
    second its companion (carrying the inverse block determinants)."""
    return _split(pair, xs, r)[2:]


def _twin_fields(chart: Chart, shared, assemble) -> tuple[MetricField, MetricField]:
    """Two metric fields fed by one evaluation ``shared(xs)`` of the
    intermediates both need; ``assemble(which, state)`` builds the matrix of
    field ``which`` (0 the base, 1 the companion) from them.

    A read assembles only its own field's matrix, so reading only the base
    metric (as the integrator does) never builds a companion.  A base read
    keeps the intermediates in a single slot keyed by a copy of the points,
    which the companion's next read at identical points pops; any other read
    empties the slot, so a companion read leaves nothing held.  Every caller
    that reads both fields reads the base first."""
    slot: dict = {}

    def read(which: int, xs: Array) -> Array:
        xs = np.asarray(xs, dtype=float)
        key = (xs.shape, xs.tobytes())
        state = slot.pop(key, None) if which == 1 else None
        slot.clear()
        if state is None:
            state = shared(xs)
            if which == 0:
                slot[key] = state
        return assemble(which, state)

    return (MetricField(chart=chart, eval=lambda xs: read(0, xs)),
            MetricField(chart=chart, eval=lambda xs: read(1, xs)))


def split_pair(pair: MetricPair, r: int) -> SplitResult:
    """Split a pair into block-diagonal factor metrics along the sampled
    eigenvalue gap after position ``r``.

    Raises :class:`GapViolated` when the eigenvalue ranges on the two sides
    of the cut overlap on the scan's grid, which holds the chart centre
    (where the closed-form bifurcation families make their eigenvalues
    meet).  The scan also gives each block's range:
    by the splitting lemma a block's eigenvalues depend only on its own
    coordinates.  The scan is made once per pair, on its first cut, and
    every later cut of the same pair reads it (``MetricPair._eigen_ranges``).
    """
    n = expect_instance(pair, MetricPair, "pair").dim
    r = expect_int(r, "r", 1, n - 1)
    ranges = pair._eigen_ranges
    low = (ranges[0][0], ranges[r - 1][1])
    high = (ranges[r][0], ranges[-1][1])
    if low[1] >= high[0]:
        raise GapViolated(
            f"eigenvalue ranges overlap across the cut: sup {low[1]} >= inf {high[0]}")

    def assemble(which: int, state: tuple) -> Array:
        g, gb, conv, conv_bar = state
        m, c = (g, conv) if which == 0 else (gb, conv_bar)
        m = np.linalg.solve(np.swapaxes(c, -1, -2), m)
        return 0.5 * (m + np.swapaxes(m, -1, -2))

    h, hbar = _twin_fields(pair.chart, lambda xs: _split(pair, xs, r), assemble)
    return SplitResult(r=r, h=h, hbar=hbar,
                       index_split=(tuple(range(r)), tuple(range(r, n))),
                       factor_ranges=(low, high))


def _leaf_field(field: MetricField, indices: tuple[int, ...], frozen: Array) -> MetricField:
    """Restrict a block-diagonal field to a coordinate leaf: the remaining
    coordinates are frozen and only the block of the given indices
    survives."""
    idx = np.asarray(indices)
    sub_chart = Chart(len(indices), tuple(field.chart.box[i] for i in indices))
    frozen = np.asarray(frozen, dtype=float)

    def eval_fn(xs: Array) -> Array:
        xs = np.asarray(xs, dtype=float)
        full = np.broadcast_to(frozen, xs.shape[:-1] + frozen.shape).copy()
        full[..., idx] = xs
        mats = field.eval(full)
        return mats[..., idx[:, None], idx[None, :]]

    return MetricField(chart=sub_chart, eval=eval_fn)


def split_factors(split: SplitResult) -> tuple[EquivTriple, EquivTriple]:
    """The two factor triples of a splitting, each living on its own
    coordinate leaf through the chart center, with the split's
    ``factor_ranges`` as their eigenvalue ranges."""
    center = split.h.chart.center
    triples = []
    for indices, eig_range in zip(split.index_split, split.factor_ranges):
        factor = MetricPair(g=_leaf_field(split.h, indices, center),
                            gbar=_leaf_field(split.hbar, indices, center))
        triples.append(EquivTriple(pair=factor, eigen_range=eig_range))
    return triples[0], triples[1]


def _converted(conv: Array, m: Array) -> Array:
    """The symmetric part of ``conv^T m``."""
    m = np.swapaxes(conv, -1, -2) @ m
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def _block_diagonal(a: Array, b: Array) -> Array:
    r = a.shape[-1]
    out = np.zeros(a.shape[:-2] + (r + b.shape[-1],) * 2)
    out[..., :r, :r], out[..., r:, r:] = a, b
    return out


def _moving_slices(x: Array) -> tuple[list, Array] | None:
    """For a stack ``x`` of shape ``(S, ..., k)``: the slices that differ
    bitwise from slice 0, slice 0 first, and for every slice the position
    among those of the slice with identical bits; None when every slice
    differs or ``x`` is a plain point batch."""
    if x.ndim < 3 or len(x) < 2:
        return None
    bits = x.reshape(len(x), -1).view(np.int64)
    moved = [True] + np.any(bits[1:] != bits[0], axis=1).tolist()
    if all(moved):
        return None
    return ([s for s, m in enumerate(moved) if m],
            np.where(moved, np.cumsum(moved) - 1, 0))


def _factor_values(pair: MetricPair, x: Array) -> tuple[Array, ...]:
    """A factor's two metrics, its ``L`` and the characteristic coefficients
    of ``L`` at ``x``.  On a stack such as a finite-difference stencil, only
    the slices that move this factor's coordinates away from slice 0 are
    evaluated; the others take slice 0's values, which are the same bits."""
    plan = _moving_slices(x)
    if plan is not None:
        x = x[plan[0]]
    g, gb = pair.g.eval(x), pair.gbar.eval(x)
    values = (g, gb, *_l_with(g, gb, _char_scale))
    return values if plan is None else tuple(v[plan[1]] for v in values)


def glue_pair(factor1: EquivTriple, factor2: EquivTriple) -> EquivTriple:
    """Glue two factor triples into a compatible pair on the product chart.

    Requires the eigenvalue range of the first factor to lie strictly
    below that of the second (:class:`EigenOrderViolated` otherwise); the
    eigenvalues of the result are the union of the factors'.

    A read of either glued field evaluates each factor on its own
    coordinates (:func:`_factor_values`): on a finite-difference stencil of
    the product chart, a ``k``-dimensional factor is evaluated on ``4k + 1``
    of its ``4n + 1`` slices.  The base metric's blocks and the companion's
    are assembled only for the field that is read (:func:`_twin_fields`).
    """
    lo1, hi1 = expect_instance(factor1, EquivTriple, "factor1").eigen_range
    lo2, hi2 = expect_instance(factor2, EquivTriple, "factor2").eigen_range
    if hi1 >= lo2:
        raise EigenOrderViolated(
            f"factor ranges must be strictly ordered: [{lo1}, {hi1}] vs [{lo2}, {hi2}]")
    p1, p2 = factor1.pair, factor2.pair
    r = p1.dim
    n = r + p2.dim
    chart = Chart(n, p1.chart.box + p2.chart.box)
    sign = (-1.0) ** r

    def shared(xs: Array) -> tuple:
        g1, gb1, l1, c1 = _factor_values(p1, xs[..., :r])
        g2, gb2, l2, c2 = _factor_values(p2, xs[..., r:])
        return (g1, gb1, c1[..., 0], _matrix_poly(c2, l1),
                g2, gb2, c2[..., 0], _matrix_poly(c1, l2))

    def assemble(which: int, state: tuple) -> Array:
        g1, gb1, det1, conv1, g2, gb2, det2, cross = state
        if which == 0:
            return _block_diagonal(_converted(conv1, g1), _converted(sign * cross, g2))
        bar1 = (1.0 / det2)[..., None, None] * conv1
        bar2 = (sign / det1)[..., None, None] * cross
        return _block_diagonal(_converted(bar1, gb1), _converted(bar2, gb2))

    g, gbar = _twin_fields(chart, shared, assemble)
    return EquivTriple(pair=MetricPair(g=g, gbar=gbar), eigen_range=(lo1, hi2))


def oplus(triples: list[EquivTriple]) -> EquivTriple:
    """Left fold of :func:`glue_pair` over an ordered factor list."""
    if not triples:
        fail("triples", "expected at least one factor")
    out = triples[0]
    for i, nxt in enumerate(triples[1:], start=1):
        try:
            out = glue_pair(out, nxt)
        except EigenOrderViolated as exc:
            raise EigenOrderViolated(
                f"factors {i - 1} and {i} violate the range ordering: {exc}") from exc
    return out
