"""Continuous-in-time Petrov-Galerkin wave solver with a posteriori control.

The package is organized around small numpy-facing modules:

- ``timebasis``: interval polynomials, quadrature, temporal projectors and
  the explicit constants of the error bounds.
- ``spacefem``: tensor-product Lagrange elements on a rectangle.
- ``slabsolver``: the sequential slab march and its stability diagnostic.
- ``reconstruct``: the one-degree-higher lifting of a slab solution and the
  exact jump identities it satisfies.
- ``estimator``: the explicit-constant error estimator and data oscillation.
- ``errors``: manufactured solutions and discrete error norms.
- ``adaptive``: greedy marking and bisection of the time grid.
- ``experiments``: configured studies emitting CSV tables.

Every numeric argument is checked by one rule (``_numbers``): booleans,
strings, nan and infinite values, and fractional values where an integer
is asked for, raise ValueError.
"""

from .adaptive import AdaptiveResult, bisect, doerfler_mark, run_adaptive
from .errors import (
    ErrorBundle,
    ManufacturedCase,
    compute_errors,
    make_case,
    problem_data,
    rate,
)
from .estimator import EstimatorReport, effectivity, estimate
from .reconstruct import reconstruct_slab, wihler_identities
from .slabsolver import (
    ProblemData,
    SlabSolution,
    StabilityReport,
    TimeGrid,
    march,
    stability_check,
)
from .spacefem import TensorSpace
from .timebasis import (
    IntervalPoly,
    c3_constant,
    c4_constant,
    gauss_legendre,
    integrated_thomee,
    legendre_eval,
    mu_n,
    project_H1,
    project_L2,
    reconstruction_constants,
    thomee_project,
)

__all__ = [
    "AdaptiveResult", "bisect", "doerfler_mark", "run_adaptive",
    "ErrorBundle", "ManufacturedCase", "compute_errors", "make_case",
    "problem_data", "rate",
    "EstimatorReport", "effectivity", "estimate",
    "reconstruct_slab", "wihler_identities",
    "ProblemData", "SlabSolution", "StabilityReport", "TimeGrid",
    "march", "stability_check",
    "TensorSpace",
    "IntervalPoly", "c3_constant", "c4_constant", "gauss_legendre",
    "integrated_thomee", "legendre_eval", "mu_n", "project_H1", "project_L2",
    "reconstruction_constants", "thomee_project",
]

__version__ = "0.1.0"
