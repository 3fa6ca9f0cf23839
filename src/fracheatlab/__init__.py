"""fracheatlab: a pseudospectral laboratory for damped fractional heat
dynamics on the torus.

The package simulates d/dt u + (-Laplace)^(s/2) u = a(t,x) u with a periodic
pseudospectral discretization and measures the quantitative inequalities the
dynamics is expected to satisfy: persistence of the analytic radius,
restriction (thick-set) constants for band-limited functions, interpolation
constants between the full and the observed norm, and observability
constants assembled by geometric time refinement.
"""

from .spectral import (
    GridSpec,
    SpectralField,
    transform,
    inverse,
    semigroup_apply,
    project,
)
from .norms import (
    ExpLinearWeight,
    ExpLogLogWeight,
    l2_norm,
    weighted_fourier_norm,
    strip_sup_norm,
    restricted_l2,
)
from .coefficients import (
    ClassA1,
    ClassA2,
    CoefficientField,
    builtin_coefficient,
    verify_class,
)
from .thick_sets import ThickSet, build_set, thickness
from .solver import Trajectory, simulate, step, energy_certificate
from .ensembles import make_ensemble, single_mode
from .inequality_lab import (
    ls_constant,
    ls_growth_fit,
    radius_estimate,
    telescope_constant,
    spacetime_lift,
    observability_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "GridSpec",
    "SpectralField",
    "transform",
    "inverse",
    "semigroup_apply",
    "project",
    "ExpLinearWeight",
    "ExpLogLogWeight",
    "l2_norm",
    "weighted_fourier_norm",
    "strip_sup_norm",
    "restricted_l2",
    "ClassA1",
    "ClassA2",
    "CoefficientField",
    "builtin_coefficient",
    "verify_class",
    "ThickSet",
    "build_set",
    "thickness",
    "Trajectory",
    "simulate",
    "step",
    "energy_certificate",
    "make_ensemble",
    "single_mode",
    "ls_constant",
    "ls_growth_fit",
    "radius_estimate",
    "telescope_constant",
    "spacetime_lift",
    "observability_experiment",
    "__version__",
]
