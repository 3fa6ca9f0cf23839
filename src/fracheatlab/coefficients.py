"""Time-dependent multiplicative coefficients and their analyticity classes.

A coefficient a(t, x) enters the dynamics as a zero-order term.  Two
quantitative classes describe how fast its space derivatives may grow,
uniformly in time:

* analytic class: sup |d^alpha a| <= C * alpha! / R^|alpha|  (radius R);
* entire class:   sup |d^alpha a| <= C * M^|alpha| * (alpha!)^kappa with
  kappa in [0, 1), strictly weaker growth than any analytic budget.

``verify_class`` checks grid sup norms of spectral derivatives against the
declared budget, measuring only those that their Fourier l1 bounds leave
able to decide it.  ``builtin_coefficient`` provides a small
registry of ready-made fields; custom ones can be constructed directly from
any evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import Callable

import numpy as np

from .spectral import GridSpec, _conjugate_partner
from .norms import _alpha_factorial, _multi_indices, derivative_sup
from .rng import make_generator

__all__ = [
    "ClassA1",
    "ClassA2",
    "CoefficientField",
    "builtin_coefficient",
    "verify_class",
    "ClassCheckReport",
    "BUILTIN_COEFFICIENTS",
]


@dataclass(frozen=True)
class ClassA1:
    """Analytic budget sup|d^alpha a| <= C * alpha!/R^|alpha|."""

    C: float
    R: float

    def __post_init__(self):
        if self.C < 0:
            raise ValueError(f"C must be nonnegative, got {self.C}")
        if not self.R > 0:
            raise ValueError(f"R must be positive, got {self.R}")

    def derivative_bound(self, alpha) -> float:
        alpha = tuple(np.atleast_1d(alpha).astype(int))
        return self.C * _alpha_factorial(alpha) / self.R ** sum(alpha)


@dataclass(frozen=True)
class ClassA2:
    """Entire budget sup|d^alpha a| <= C * M^|alpha| * (alpha!)^kappa."""

    C: float
    M: float
    kappa: float

    def __post_init__(self):
        if self.C < 0:
            raise ValueError(f"C must be nonnegative, got {self.C}")
        if self.M < 0:
            raise ValueError(f"M must be nonnegative, got {self.M}")
        if not 0.0 <= self.kappa < 1.0:
            raise ValueError(f"kappa must lie in [0, 1), got {self.kappa}")

    def derivative_bound(self, alpha) -> float:
        alpha = tuple(np.atleast_1d(alpha).astype(int))
        return self.C * self.M ** sum(alpha) * _alpha_factorial(alpha) ** self.kappa


@dataclass(frozen=True)
class CoefficientField:
    """A coefficient a(t, x) sampled on a grid, with a declared class.

    ``evaluator`` maps a time to the real sample array on the grid.  The
    declared class is a promise checked by verify_class, not a constraint
    enforced at construction.
    """

    grid: GridSpec
    evaluator: Callable[[float], np.ndarray]
    class_info: object = None
    name: str = "custom"

    def sample(self, t: float) -> np.ndarray:
        out = np.asarray(self.evaluator(t), dtype=float)
        if out.shape != self.grid.shape:
            raise ValueError(
                f"evaluator returned shape {out.shape}, expected {self.grid.shape}"
            )
        return out


def _zero(grid: GridSpec) -> CoefficientField:
    samples = np.zeros(grid.shape)
    return CoefficientField(grid, lambda t: samples, ClassA1(C=0.0, R=1.0), "zero")


def _constant(grid: GridSpec, value: float = 1.0) -> CoefficientField:
    samples = np.full(grid.shape, float(value))
    return CoefficientField(
        grid, lambda t: samples, ClassA1(C=abs(float(value)), R=1.0), "constant"
    )


def _wavenumber(grid: GridSpec, mode: int) -> float:
    """Wavenumber of an x1 cosine; a mode outside [1, n/2) would alias to a
    lower one on the grid while its class kept the requested mode."""
    mode = int(mode)
    if not 1 <= mode < grid.n // 2:
        raise ValueError(f"mode must lie in [1, n/2) = [1, {grid.n // 2}), got {mode}")
    return 2.0 * np.pi * mode / grid.period


def _cosine(grid: GridSpec, amplitude: float = 1.0, mode: int = 1) -> CoefficientField:
    k = _wavenumber(grid, mode)
    x1 = grid.x_axes[0]
    samples = np.broadcast_to(amplitude * np.cos(k * x1), grid.shape).copy()
    info = ClassA2(C=abs(float(amplitude)), M=k, kappa=0.0)
    return CoefficientField(grid, lambda t: samples, info, "cosine")


def _time_cosine(
    grid: GridSpec, amplitude: float = 1.0, mode: int = 1, time_freq: float = 1.0
) -> CoefficientField:
    k = _wavenumber(grid, mode)
    x1 = grid.x_axes[0]

    def evaluate(t):
        # travelling profile: every space derivative keeps sup = |amp|*k^m
        return np.broadcast_to(
            amplitude * np.cos(k * x1 - time_freq * t), grid.shape
        ).copy()

    info = ClassA2(C=abs(float(amplitude)), M=k, kappa=0.0)
    return CoefficientField(grid, evaluate, info, "time_cosine")


def _fourier_decay(
    grid: GridSpec, radius: float = 0.5, seed: int = 0, fit_alpha_max: int | None = None
) -> CoefficientField:
    """Random real field with Fourier magnitudes exactly exp(-radius*|k|).

    Phases are drawn from a seeded counter-based generator and conjugate
    symmetrized.  The declared analytic budget uses half the spectral decay
    radius; factorial growth then dominates the actual derivative growth, so
    the prefactor fitted on low orders stays valid for all higher ones.  The
    fit is the largest sup*R^|alpha|/alpha! over |alpha| <= fit_alpha_max;
    only the multi-indices whose l1 bound can reach it are measured, and
    their sups stay measured for verify_class.
    """
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    rng = make_generator(seed, stream="fourier_decay")
    phases = rng.uniform(0.0, 2.0 * np.pi, size=grid.shape)
    phases = 0.5 * (phases - phases[_conjugate_partner(grid)])
    coeffs = np.exp(-radius * grid.k_mag) * np.exp(1j * phases)
    samples = np.fft.ifftn(coeffs).real * grid.n**grid.dim / grid.volume
    # the spectrum is not held across the fit's transforms
    del phases, coeffs
    if fit_alpha_max is None:
        fit_alpha_max = 16 if grid.dim == 1 else 10
    declared_r = radius / 2.0
    fitted, _ = _worst(
        grid, samples, _multi_indices(grid.dim, fit_alpha_max),
        lambda alpha, sup: sup * declared_r ** sum(alpha) / _alpha_factorial(alpha),
    )
    info = ClassA1(C=fitted, R=declared_r)
    return CoefficientField(grid, lambda t: samples, info, "fourier_decay")


# relative slack on an l1 bound, far above the rounding of the bound and of
# the transform whose sup it bounds
_BOUND_SLACK = 1e-9

# (grid, a copy of the samples last measured, their sups by multi-index, the
# modulus of their half spectrum, their l1 bound tables by top order), shared
# by a fourier_decay fit and the checks of its field; the entry is replaced
# whole, so its parts always belong to the same samples
_measured: list = [None]


@np.errstate(over="ignore", invalid="ignore")
def _l1_table(grid: GridSpec, modulus: np.ndarray, top: int) -> np.ndarray:
    """U[alpha] = sum_k |c_k| prod_j |k_j|^alpha_j, a bound on the sup of
    d^alpha, for every alpha with no component above top: one small matrix
    product per axis.  Past the float range U is inf, or nan for inf * 0."""
    orders = np.arange(top + 1)[:, None]
    table = modulus
    for k in grid.k_axes[::-1]:
        powers = np.abs(k.ravel()[: table.shape[-1]]) ** orders
        # contract the last axis, and put the order first
        table = np.moveaxis(table @ powers.T, -1, 0)
    return table


def _worst(grid: GridSpec, samples: np.ndarray, alphas, score) -> tuple:
    """(score, alpha) of the first of alphas with the largest
    score(alpha, sup), or (0.0, zeros) when no score is positive; sup is
    derivative_sup of the samples at alpha, and score is nondecreasing in it.

    No sup exceeds its l1 bound, so a multi-index whose bound scores below
    a measured score cannot decide the result.  One derivative_sup call
    measures the multi-index whose finite bound scores highest, and a
    second every other one whose bound does not score below the best
    measured score.  Sups measured on equal samples over the same grid are
    reused.
    """
    entry = _measured[0]
    if entry is None or entry[0] != grid or not np.array_equal(samples, entry[1]):
        # the old copy is dropped before the transform, not held across it
        _measured[0] = None
        # the columns with a conjugate partner count twice, so that sums
        # over the half spectrum of functions of |k| are whole-spectrum sums
        modulus = np.abs(np.fft.rfftn(samples)) / grid.n**grid.dim
        modulus[..., 1 : grid.n // 2] *= 2.0
        # a copy, in case the evaluator refills one buffer in place
        entry = _measured[0] = (grid, samples.copy(), {}, modulus, {})
    _, _, sups, modulus, tables = entry
    top = max(max(alpha) for alpha in alphas)
    if top not in tables:
        tables[top] = _l1_table(grid, modulus, top)
    # a bound past the float range may score inf/inf
    with np.errstate(invalid="ignore"):
        caps = [(score(alpha, float(tables[top][alpha]) * (1.0 + _BOUND_SLACK)), alpha)
                for alpha in alphas if alpha not in sups]

    def measure(batch):
        if batch:
            sups.update(zip(batch, derivative_sup(grid, samples, batch).tolist()))

    def worst():
        # max keeps the first of equal scores
        known = [(score(alpha, sups[alpha]), alpha) for alpha in alphas if alpha in sups]
        return max([(0.0, (0,) * grid.dim), *known], key=lambda pair: pair[0])

    highest = max((cap for cap in caps if isfinite(cap[0])), key=lambda cap: cap[0],
                  default=(0.0, None))
    if highest[0] > worst()[0]:
        measure([highest[1]])
    floor = worst()[0]
    # a zero score never displaces the initial (0.0, zeros)
    measure([alpha for cap, alpha in caps
             if alpha not in sups and not (cap < floor or cap == 0.0)])
    return worst()


BUILTIN_COEFFICIENTS = {
    "zero": _zero,
    "constant": _constant,
    "cosine": _cosine,
    "time_cosine": _time_cosine,
    "fourier_decay": _fourier_decay,
}


def builtin_coefficient(name: str, grid: GridSpec, **params) -> CoefficientField:
    """Construct one of the named coefficient fields.

    Known names: zero, constant(value), cosine(amplitude, mode),
    time_cosine(amplitude, mode, time_freq), fourier_decay(radius, seed).
    """
    _measured[0] = None  # measurements never outlive the field that made them
    try:
        builder = BUILTIN_COEFFICIENTS[name]
    except KeyError:
        raise ValueError(
            f"unknown coefficient {name!r}; expected one of "
            f"{sorted(BUILTIN_COEFFICIENTS)}"
        ) from None
    return builder(grid, **params)


@dataclass(frozen=True)
class ClassCheckReport:
    """Worst budget ratio overall and, in ``rows``, one (t, worst_ratio,
    worst_alpha) entry per checked time; a ratio <= 1 passes."""

    passed: bool
    worst_ratio: float
    worst_alpha: tuple
    worst_t: float
    alpha_max: int
    rel_tol: float
    rows: tuple
    # multi-indices whose budget plus noise allowance is past the float
    # range at some checked time: their ratio is 0 whatever is measured
    unchecked: int


def verify_class(
    a: CoefficientField,
    alpha_max: int = 12,
    t_grid=(0.0,),
    rel_tol: float = 1e-9,
) -> ClassCheckReport:
    """Check measured derivative sups against the declared class budget.

    At each time in t_grid the worst ratio of sup|d^alpha a| to its budget
    is taken over every multi-index with |alpha| <= alpha_max.  A sup never
    exceeds its Fourier l1 bound sum_k |c_k| prod_j |k_j|^alpha_j, so only
    the multi-indices whose bound can reach the worst measured ratio are
    measured spectrally, and none that was already measured on samples
    equal to this time's over the same grid, by the previous time or by the
    fourier_decay fit of the field.  Differentiating sampled data amplifies
    rounding noise by the axis Nyquist frequency to the power |alpha|, so
    each comparison allows an absolute floor of
    8*n^dim*eps*sup|a|*nyquist^|alpha| on top of the relative tolerance;
    orders where that floor exceeds the budget are effectively unresolvable
    on the given grid.  Past the float range a budget or a floor is
    infinite and checks nothing: those multi-indices are counted in
    ``unchecked``.  A zero budget passes only against an observed sup below
    1e-12.
    """
    if a.class_info is None:
        raise ValueError("coefficient declares no class to verify")
    if alpha_max < 0:
        raise ValueError(f"alpha_max must be nonnegative, got {alpha_max}")
    t_grid = tuple(t_grid)
    if not t_grid:
        raise ValueError("t_grid must hold at least one time")
    alphas = _multi_indices(a.grid.dim, alpha_max)
    with np.errstate(over="ignore"):
        bounds = [a.class_info.derivative_bound(alpha) for alpha in alphas]
    unchecked = set()
    rows = []
    for t in t_grid:
        samples = a.sample(t)
        sup0 = float(np.max(np.abs(samples)))
        noise_unit = 8.0 * np.finfo(float).eps * a.grid.n**a.grid.dim * sup0
        limits = {}
        with np.errstate(over="ignore"):
            for alpha, bound in zip(alphas, bounds):
                try:
                    allowance = noise_unit * a.grid.nyquist_axis ** sum(alpha)
                except OverflowError:
                    allowance = np.inf
                zero = bound == 0.0
                limit = max(1e-12, allowance) if zero else bound * (1.0 + rel_tol) + allowance
                if not isfinite(limit):
                    unchecked.add(alpha)
                limits[alpha] = (zero, limit)

            def ratio(alpha, obs):
                zero, limit = limits[alpha]
                if zero:
                    return 0.0 if obs <= limit else np.inf
                return obs / limit

            worst, worst_alpha = _worst(a.grid, samples, alphas, ratio)
        rows.append((float(t), float(worst), worst_alpha))
    # the first time reaching the overall maximum, as a strict > scan finds it
    worst_t, worst, worst_alpha = max(rows, key=lambda row: row[1])
    return ClassCheckReport(
        passed=bool(worst <= 1.0),
        worst_ratio=worst,
        worst_alpha=worst_alpha,
        worst_t=worst_t,
        alpha_max=alpha_max,
        rel_tol=rel_tol,
        rows=tuple(rows),
        unchecked=len(unchecked),
    )
