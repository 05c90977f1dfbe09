"""Small-matrix kernels on the batch axis: Cholesky factorization, the
inverse of its triangular factor, and the positivity certificate built on
its pivots.

For ``a = K K^T`` (``K`` lower triangular), :func:`cholesky_inverse` returns
``K^-T`` (``U^-1`` for ``a = U^T U``), which the inverse writes in place of the
upper triangle at no extra cost: callers multiply by it as a contiguous right
operand, never by a transposed view, which numpy multiplies about three times
slower; a transposed left operand is copied first (:func:`transposed`).

LAPACK's batched routines, as numpy calls them, factor one matrix at a time
and pay a fixed cost per matrix, which dominates on the 2x2 to 5x5 metrics
of geq.  Here each step of the algorithm is one whole-batch array operation
instead: the loops run over matrix entries, on a contiguous
coordinate-leading ``(n, n, m)`` copy of at most :data:`CHUNK` matrices,
computed in place.  As in LAPACK, only the lower triangle bears on the
result, and a pivot that is not positive (zero, negative or NaN) stops the
factorization.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np

Array = np.ndarray

# Matrices per working copy, and points per piece of a closed-form family's
# box check (normal_forms._realize_on_box).  At 4096 the inverse runs within 15%
# of its best time at every n from 2 to 5, and a piece's 3x3 matrices take
# 0.3 MB, where the 3-D families' 97,336-point grid took 7.0 MB per metric.
CHUNK = 4096


def _blocks(a: Array) -> Iterator[tuple[slice, Array]]:
    """Successive chunks of the batch ``a`` of shape ``(..., n, n)``, each as
    its slice of the flattened batch and a fresh ``(n, n, c)`` copy."""
    n = a.shape[-1]
    flat = a.reshape(-1, n, n)
    for start in range(0, len(flat), CHUNK):
        rows = slice(start, start + CHUNK)
        # An explicit copy: for c = 1 the moved axes are already contiguous,
        # and a contiguity-only conversion would return a view of ``a``.
        yield rows, flat[rows].transpose(1, 2, 0).copy()


def _factor(w: Array) -> bool:
    """Overwrite the lower triangle of ``w`` ``(n, n, m)`` with the Cholesky
    factor ``K`` (``w = K K^T``), column by column with a rank-one update of
    the trailing block; False at the first pivot that is not positive."""
    n = w.shape[0]
    for j in range(n):
        pivot = w[j, j]
        if not np.all(pivot > 0.0):
            return False
        np.sqrt(pivot, out=pivot)
        if j + 1 < n:
            column = w[j + 1:, j]
            column /= pivot
            w[j + 1:, j + 1:] -= column[:, None] * column[None, :]
    return True


def _invert_transposed(w: Array) -> None:
    """Overwrite the factor ``K`` in the lower triangle of ``w`` with ``K^-T``
    in the upper triangle, and zero the lower one.  From ``K^-1 K = I``,
    column ``j`` of ``K^-1`` (row ``j`` of ``K^-T``) needs only the columns
    right of it and column ``j`` of ``K``, which is zeroed once that row is
    done."""
    n = w.shape[0]
    for j in range(n - 1, -1, -1):
        diag = w[j, j]
        np.reciprocal(diag, out=diag)
        for i in range(n - 1, j, -1):
            acc = w[i, i] * w[i, j]
            for k in range(j + 1, i):
                acc += w[k, i] * w[k, j]
            acc *= diag
            np.negative(acc, out=w[j, i])
        w[j + 1:, j] = 0.0


def cholesky_inverse(a: Array) -> Array | None:
    """``K^-T`` ``(..., n, n)``, upper triangular, for ``a = K K^T`` with ``K``
    lower triangular, or None when a Cholesky pivot of some matrix is not
    positive."""
    n = a.shape[-1]
    out = np.empty(a.shape[:-2] + (n, n))
    flat = out.reshape(-1, n, n)
    for rows, w in _blocks(a):
        if not _factor(w):
            return None
        _invert_transposed(w)
        flat[rows] = w.transpose(2, 0, 1)
    return out


def positive_definite(a: Array) -> bool:
    """Whether every symmetric matrix of the batch ``a`` ``(..., n, n)`` is
    positive definite: exactly when every Cholesky pivot is positive."""
    return all(_factor(w) for _, w in _blocks(a))


def transposed(a: Array) -> Array:
    """The transpose of the last two axes of ``a`` as a contiguous copy, to be
    an operand of ``@``: numpy multiplies a stack of small matrices several
    times more slowly when an operand is a transposed view, with the same bits."""
    return np.swapaxes(a, -1, -2).copy()
