"""Exception taxonomy for the geodesic-equivalence toolkit.

Every error raised by the library derives from :class:`GeqError` (no module
raises a builtin exception class), so callers can catch the whole family with
one clause while tests pin down the precise failure mode.
"""


class GeqError(Exception):
    """Base class for all library errors."""


class OutOfChart(GeqError):
    """A queried point lies outside the chart box."""


class NotPositiveDefinite(GeqError):
    """A metric matrix failed the positive-definiteness check."""


class SingularMetric(GeqError):
    """A metric matrix could not be inverted / has non-positive determinant."""


class StepFailure(GeqError):
    """The adaptive integrator's step size underflowed or the step cap was hit."""


class DegenerateJacobian(GeqError):
    """A chart map's Jacobian is numerically singular at a sampled point."""


class BracketFailure(GeqError):
    """The roots of ``t -> I_t`` cannot be taken: the eigenvalues of ``L`` or the
    squared frame coordinates of the velocity are not finite, one of those
    coordinates came out negative, or the velocity is zero, so every ``I_t``
    vanishes."""


class SeparationViolated(GeqError):
    """Eigenvalue functions overlap where strict separation is required."""


class NotPositive(GeqError):
    """A quantity that must be positive is not."""


class NotRealizable(GeqError):
    """No sub-box of the requested chart makes the construction positive
    definite."""


class GapViolated(GeqError):
    """The sampled spectral gap needed to split a pair into blocks is absent."""


class EigenOrderViolated(GeqError):
    """Factors passed to the gluing operation have overlapping eigenvalue
    ranges; gluing requires every eigenvalue of the second factor to exceed
    every eigenvalue of the first."""


class DegenerateMap(GeqError):
    """A linear map that must be invertible is numerically singular."""


class ParseError(GeqError):
    """A configuration file could not be parsed."""


class SchemaError(GeqError, ValueError):
    """A value violates its schema: a config field, a command-line flag or a
    library argument.

    The message begins with the config field's dotted path, the flag or the
    argument name.  The rules live in ``geq._validate``.
    """
