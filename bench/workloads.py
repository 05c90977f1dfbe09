"""The four workloads of the geq benchmark.

A workload turns a seed into a list of operations: each is one call into
geq's public API plus the check of its output against the published
tolerance of the guarantee it exercises (the constants below mirror
``tests/test_acceptance.py``).  Building that list is the workload's set-up:
it builds every pair the workload uses and draws every input from the
seed.  One pass over the list is a round; every round of a run repeats the
same calls on the same inputs, so per-round counts are deterministic.

Calls look geq functions up on the package at call time, so that a tracer
that replaces them sees every call.  See ``NOTES.md`` for why each workload
was chosen and which layers it bypasses.
"""
from __future__ import annotations

import dataclasses
from functools import partial
from typing import Any, Callable

import numpy as np

import geq

DIAG_TOL = 1e-10
DRIFT_TOL = 1e-6
DEFECT_TOL = 1e-6
CONTROL_FLOOR = 1e-3
INTERLACE_EPS = 1e-9
PIN_TOL = 1e-9
ROUNDTRIP_TOL = 1e-12
EIGEN_TOL = 1e-8
TORSION_TOL = 1e-6

DIMS = (2, 3, 4, 5)
INTEGRATOR_TOL = 1e-10
DURATION = 1.0

CONSERVATION_PAIRS_PER_DIM = 4
CONSERVATION_TRAJECTORIES = 50
EQUIVALENCE_TRAJECTORIES = 50
EQUIVALENCE_CALLS = 4          # per family, each with its own seed
L_TENSOR_POINTS = 150          # per separable pair
EIGEN_POINTS = 20              # per registry family
TORSION_POINTS = 3             # per registry family and the torsion control
INTERLACING_POINTS = 1000      # times INTERLACING_VECTORS = 10^4 samples
INTERLACING_VECTORS = 10
ROUNDTRIP_POINTS = 1000


@dataclasses.dataclass(frozen=True)
class Op:
    """One public call and the check of its output."""

    label: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]


def _op_seed(seed: int, index: int) -> int:
    return 1000 * seed + index


def _api(name: str, *args, **kwargs):
    """Call ``geq.<name>``, looked up at call time."""
    return getattr(geq, name)(*args, **kwargs)


# --- conservation_lc ------------------------------------------------------

def _conserved(dim: int, report) -> bool:
    drifts = [row.rel_drift for row in report.rows
              if row.integral_id.startswith(("integral_t=", "root_"))]
    return (len(drifts) == CONSERVATION_TRAJECTORIES * (len(report.t_values) + dim - 1)
            and max(drifts) < DRIFT_TOL)


def build_conservation_lc(seed: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    for index, dim in enumerate(DIMS * CONSERVATION_PAIRS_PER_DIM):
        pair = geq.levi_civita_pair(geq.random_levi_civita_data(dim, rng))
        call = partial(_api, "check_conservation", pair, n_traj=CONSERVATION_TRAJECTORIES,
                       duration=DURATION, tol=INTEGRATOR_TOL, seed=_op_seed(seed, index))
        ops.append(Op(f"check_conservation/lc_{dim}d", call, partial(_conserved, dim)))
    return ops


# --- equivalence_registry -------------------------------------------------

def _equivalent(control: bool, report) -> bool:
    defect = report.max_tangential_defect
    if report.trajectories != EQUIVALENCE_TRAJECTORIES:
        return False
    return defect > CONTROL_FLOOR if control else defect < DEFECT_TOL


def build_equivalence_registry(seed: int) -> list[Op]:
    # The integrator steps a batch until its slowest trajectory ends, so the
    # cost of one call follows its slowest trajectory; several calls per
    # family average that over seeds.
    ops = []
    names = geq.EQUIVALENT_FAMILIES + ("control_conformal",)
    for index, name in enumerate(names):
        pair = geq.standard_pair(name)
        for part in range(EQUIVALENCE_CALLS):
            call = partial(_api, "check_equivalence", pair, n_traj=EQUIVALENCE_TRAJECTORIES,
                           duration=DURATION, tol=INTEGRATOR_TOL,
                           seed=_op_seed(seed, part * len(names) + index))
            ops.append(Op(f"check_equivalence/{name}", call,
                          partial(_equivalent, name in geq.CONTROL_FAMILIES)))
    return ops


# --- pointwise ------------------------------------------------------------

def _diagonal(data, x, out) -> bool:
    expected = np.diag([lam(x[i]) for i, lam in enumerate(data.lambdas)])
    return float(np.max(np.abs(out - expected))) < DIAG_TOL


def _formula_eigen(spec, x, out) -> bool:
    vals, _ = out
    return float(np.max(np.abs(vals - geq.model_eigenvalues(*spec, x)))) < EIGEN_TOL


def _eigenpairs(pair, x, out) -> bool:
    """Families without a closed-form spectrum: the columns must be
    g-orthonormal eigenvectors of L for the returned ascending values."""
    vals, vecs = out
    scale = max(1.0, float(np.max(np.abs(vals))))
    residual = geq.l_tensor(pair, x) @ vecs - vecs * vals
    gram = vecs.T @ geq.metric_at(pair.g, x) @ vecs
    return (bool(np.all(np.diff(vals) >= 0.0))
            and float(np.max(np.abs(residual))) < EIGEN_TOL * scale
            and float(np.max(np.abs(gram - np.eye(len(vals))))) < EIGEN_TOL)


def _torsion(control: bool, out) -> bool:
    # Guarantee 09's floor of 0.1 bounds the control's largest torsion over
    # 100 points; at a single point the control only has to fail the test.
    worst = float(np.max(np.abs(out)))
    return worst >= TORSION_TOL if control else worst < TORSION_TOL


def _eigen_points(name: str, pair, rng: np.random.Generator) -> np.ndarray:
    xs = pair.chart.sample(rng, 4 * EIGEN_POINTS)
    if name == "three_d_full":
        # The closed-form spectrum is singular on the symmetry axis.
        xs = xs[np.linalg.norm(xs[:, 1:], axis=1) >= 0.05]
    return xs[:EIGEN_POINTS]


def build_pointwise(seed: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    for dim in DIMS:
        data = geq.random_levi_civita_data(dim, rng)
        pair = geq.levi_civita_pair(data)
        for x in pair.chart.sample(rng, L_TENSOR_POINTS):
            ops.append(Op(f"l_tensor/lc_{dim}d", partial(_api, "l_tensor", pair, x),
                          partial(_diagonal, data, x)))
    pairs = {name: geq.standard_pair(name)
             for name in geq.EQUIVALENT_FAMILIES + ("control_torsion",)}
    for name in geq.EQUIVALENT_FAMILIES:
        pair = pairs[name]
        spec = geq.standard_form_spec(name)
        for x in _eigen_points(name, pair, rng):
            check = (partial(_formula_eigen, spec, x) if spec is not None
                     else partial(_eigenpairs, pair, x))
            ops.append(Op(f"l_eigen/{name}", partial(_api, "l_eigen", pair, x), check))
    for name, pair in pairs.items():
        for x in pair.chart.sample(rng, TORSION_POINTS, shrink=0.9):
            ops.append(Op(f"nijenhuis_at/{name}",
                          partial(_api, "nijenhuis_at", pair, x),
                          partial(_torsion, name in geq.CONTROL_FAMILIES)))
    return ops


# --- scan_batch -----------------------------------------------------------

def _interlaced(samples: int, pinned: bool, report) -> bool:
    return (report.samples == samples and report.violations == 0
            and (not pinned or report.max_pin_deviation < PIN_TOL))


def _coincidence_loci() -> dict[str, np.ndarray]:
    """Points where two eigenvalues of the family coincide (guarantee 04)."""
    origin = np.zeros((50, 2))
    axis = np.zeros((50, 3))
    axis[:, 0] = np.linspace(-0.4, 0.4, 50)
    return {"two_d_polar_plus": origin, "two_d_polar_minus": origin,
            "three_d_axial": axis, "three_d_full": axis}


def _unit_order_pair(dim: int, rng: np.random.Generator):
    """A separable pair with metric entries of unit order, where the
    split/glue identity holds entrywise at 1e-12 (guarantee 05)."""
    chart = geq.Chart(dim, tuple((-0.5, 0.5) for _ in range(dim)))
    lams = tuple(geq.ScalarFunction1D((0.6 + 0.4 * i, *rng.uniform(-0.05, 0.05, 3)),
                                      (-0.5, 0.5)) for i in range(dim))
    return geq.levi_civita_pair(geq.LeviCivitaData(lambdas=lams, chart=chart))


def _split_glue(pair, r: int, xs: np.ndarray):
    factor1, factor2 = geq.split_factors(geq.split_pair(pair, r))
    glued = geq.glue_pair(factor1, factor2).pair
    return glued.g.eval(xs), glued.gbar.eval(xs)


def _round_trip(pair, xs: np.ndarray, out) -> bool:
    g, gbar = out
    return (float(np.max(np.abs(g - pair.g.eval(xs)))) < ROUNDTRIP_TOL
            and float(np.max(np.abs(gbar - pair.gbar.eval(xs)))) < ROUNDTRIP_TOL)


def build_scan_batch(seed: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    pairs = {name: geq.standard_pair(name) for name in geq.EQUIVALENT_FAMILIES}
    samples = INTERLACING_POINTS * INTERLACING_VECTORS
    for index, (name, pair) in enumerate(pairs.items()):
        call = partial(_api, "check_interlacing", pair, n_points=INTERLACING_POINTS,
                       n_vectors=INTERLACING_VECTORS, seed=_op_seed(seed, index),
                       epsilon=INTERLACE_EPS)
        ops.append(Op(f"check_interlacing/{name}", call, partial(_interlaced, samples, False)))
    for index, (name, points) in enumerate(_coincidence_loci().items(), start=len(pairs)):
        call = partial(_api, "check_interlacing", pairs[name], n_vectors=INTERLACING_VECTORS,
                       seed=_op_seed(seed, index), epsilon=INTERLACE_EPS, points=points)
        ops.append(Op(f"check_interlacing/{name}/locus", call,
                      partial(_interlaced, len(points) * INTERLACING_VECTORS, True)))
    for dim in DIMS:
        pair = _unit_order_pair(dim, rng)
        xs = pair.chart.sample(rng, ROUNDTRIP_POINTS)
        for r in range(1, dim):
            ops.append(Op(f"split_glue/lc_{dim}d/r{r}", partial(_split_glue, pair, r, xs),
                          partial(_round_trip, pair, xs)))
    return ops


WORKLOADS = {
    "conservation_lc": build_conservation_lc,
    "equivalence_registry": build_equivalence_registry,
    "pointwise": build_pointwise,
    "scan_batch": build_scan_batch,
}
