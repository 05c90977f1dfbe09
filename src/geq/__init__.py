"""geq: construction and numerical verification of metric pairs sharing
the same unparameterized geodesics.

The package builds pairs of Riemannian metrics with identical geodesics
up to reparametrization — from closed-form coordinate families, from
block splitting/gluing, and from sphere constructions — and verifies
their defining properties numerically: the geodesic-residual test, the
conserved polynomial integral family and its interlaced roots, and the
vanishing torsion of the compatibility tensor.
"""
from ._threads import apply_thread_cap as _apply_thread_cap

_apply_thread_cap()  # must run before numpy is first imported

from . import errors  # noqa: E402
from .charts import (Chart, ChartMap, MetricField, PhasePoint, Trajectory,  # noqa: E402
                     christoffel, fd_partials, integrate_geodesic,
                     integrate_geodesics, metric_at, pushforward_metric)
from .projective import (MetricPair, eigen_range, frame_weights,  # noqa: E402
                         integral_roots_many, l_eigen, l_tensor,
                         max_eigen_multiplicity, nijenhuis_at,
                         poisson_bracket_fd)
from .normal_forms import (FormKind, LeviCivitaData, ModelFormParams,  # noqa: E402
                           ScalarFunction1D, canonical_chart_map,
                           levi_civita_pair, model_eigenvalues,
                           model_form_pair, random_levi_civita_data)
from .split_glue import (EquivTriple, SplitResult, glue_pair, make_triple,  # noqa: E402
                         oplus, split_factors, split_pair, split_tensors)
from .constructions import (LinearMap, SphereChart, beltrami_pair,  # noqa: E402
                            scale_triple, sphere_chart, spheres_product)
from .verify import (CONTROL_FAMILIES, EQUIVALENT_FAMILIES,  # noqa: E402
                     STANDARD_FAMILIES, ConservationReport, DriftRow,
                     EquivalenceReport, InterlacingReport, check_conservation,
                     check_equivalence, check_interlacing, circle_planarity,
                     control_conformal_pair, nijenhuis_control_pair,
                     standard_form_spec, standard_pair)

__version__ = "0.1.0"

__all__ = [
    "Chart", "ChartMap", "MetricField", "PhasePoint", "Trajectory",
    "christoffel", "fd_partials", "integrate_geodesic",
    "integrate_geodesics", "metric_at", "pushforward_metric",
    "MetricPair", "eigen_range", "frame_weights", "integral_roots_many",
    "l_eigen", "l_tensor", "max_eigen_multiplicity", "nijenhuis_at",
    "poisson_bracket_fd",
    "FormKind", "LeviCivitaData", "ModelFormParams", "ScalarFunction1D",
    "canonical_chart_map", "levi_civita_pair", "model_eigenvalues",
    "model_form_pair", "random_levi_civita_data",
    "EquivTriple", "SplitResult", "glue_pair", "make_triple", "oplus",
    "split_factors", "split_pair", "split_tensors",
    "LinearMap", "SphereChart", "beltrami_pair", "circle_planarity",
    "scale_triple", "sphere_chart", "spheres_product",
    "CONTROL_FAMILIES", "EQUIVALENT_FAMILIES", "STANDARD_FAMILIES",
    "ConservationReport", "DriftRow", "EquivalenceReport",
    "InterlacingReport", "check_conservation", "check_equivalence",
    "check_interlacing", "control_conformal_pair", "nijenhuis_control_pair",
    "standard_form_spec", "standard_pair",
    "errors", "__version__",
]
