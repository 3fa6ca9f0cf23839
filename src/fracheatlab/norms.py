"""Norms and analyticity functionals for spectral fields.

Four families are provided:

* plain L2 (unitary, so it is just the Euclidean norm of the coefficients);
* exponentially weighted Fourier norms, with a linear-exponential weight
  exp(sigma*|k|) or a log-modified weight exp(c*|k|*log(e+|k|)^(1-kappa));
* the strip supremum norm: the largest L2 norm of the field shifted by an
  imaginary displacement y with |y| < sigma, realized in Fourier space as
  the multiplier exp(y.k) and discretized over a uniform grid of directions
  and radii (the reported value is a lower bound of the true supremum and
  converges as y_samples grows);
* a majorant norm built from derivative suprema,
  sum_alpha sigma^|alpha| * sup|d^alpha f| / alpha!, truncated at a total
  order alpha_max with the last order sum reported as the truncation
  indicator.

Restricted and polynomially weighted physical-space L2 norms round out the
set; they are quadrature sums over the sample grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, prod

import numpy as np

from .spectral import GridSpec, SpectralField, _require_single, inverse

__all__ = [
    "ExpLinearWeight",
    "ExpLogLogWeight",
    "l2_norm",
    "weighted_fourier_norm",
    "strip_sup_norm",
    "strip_shift_norm",
    "asigma_norm",
    "asigma_order_sums",
    "derivative_sup",
    "restricted_l2",
    "weighted_l2",
    "smoothing_gain_constant",
]


@dataclass(frozen=True)
class ExpLinearWeight:
    """Weight exp(sigma*|k|), the classical analytic-radius weight."""

    sigma: float

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError(f"sigma must be nonnegative, got {self.sigma}")

    def log_multiplier(self, k_mag: np.ndarray) -> np.ndarray:
        return self.sigma * k_mag


@dataclass(frozen=True)
class ExpLogLogWeight:
    """Weight exp(c*|k|*log(e+|k|)^(1-kappa)).

    Grows faster than every exp(sigma*|k|); at kappa = 1 it degenerates to
    the linear-exponential weight with sigma = c.
    """

    c: float
    kappa: float

    def __post_init__(self):
        if self.c < 0:
            raise ValueError(f"c must be nonnegative, got {self.c}")
        if not 0.0 <= self.kappa <= 1.0:
            raise ValueError(f"kappa must lie in [0, 1], got {self.kappa}")

    def log_multiplier(self, k_mag: np.ndarray) -> np.ndarray:
        return self.c * k_mag * np.log(np.e + k_mag) ** (1.0 - self.kappa)


def l2_norm(field: SpectralField) -> float:
    """L2(torus) norm; equals the Euclidean norm of the coefficients."""
    _require_single(field, "l2_norm")
    return float(np.linalg.norm(field.coeffs))


def weighted_fourier_norm(field: SpectralField, weight) -> float:
    """sqrt(sum_k w(|k|)^2 |c_k|^2) for an exponential weight object.

    Evaluated as exp(log w + log|c|) termwise so a large weight paired with
    a tiny coefficient does not overflow prematurely.
    """
    _require_single(field, "weighted_fourier_norm")
    c = np.abs(field.coeffs).ravel()
    logw = weight.log_multiplier(field.grid.k_mag).ravel()
    nz = c > 0.0
    if not np.any(nz):
        return 0.0
    terms = 2.0 * (logw[nz] + np.log(c[nz]))
    peak = terms.max()
    return float(np.exp(0.5 * peak) * np.sqrt(np.sum(np.exp(terms - peak))))


def strip_shift_norm(field: SpectralField, y) -> float:
    """L2 norm of the field shifted by the imaginary displacement y,
    i.e. the Fourier multiplier exp(y.k) applied before taking l2."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    grid = field.grid
    if y.shape != (grid.dim,):
        raise ValueError(f"shift must have {grid.dim} components, got {y.shape}")
    dot = sum(yj * kj for yj, kj in zip(y, grid.k_axes))
    sq = np.sum(np.exp(2.0 * dot) * np.abs(field.coeffs) ** 2)
    return float(np.sqrt(sq))


def _shift_grid(dim: int, sigma: float, y_samples: int):
    radii = sigma * (np.arange(1, y_samples + 1) - 0.5) / y_samples
    if dim == 1:
        dirs = np.array([[1.0], [-1.0]])
    else:
        ang = 2.0 * np.pi * np.arange(y_samples) / y_samples
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return dirs, radii


def strip_sup_norm(field: SpectralField, sigma: float, y_samples: int = 64) -> float:
    """Max of the shifted L2 norm over a grid of displacements |y| < sigma.

    The grid is the product of y_samples uniform radii (cell centered, so
    the largest is sigma*(1 - 1/(2*y_samples))) with the two directions in
    1D or y_samples uniform angles in 2D.  Because the shifted norm is
    convex in y the true supremum sits on the boundary |y| = sigma;
    the grid max therefore approaches it from below as y_samples grows.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    if y_samples < 1:
        raise ValueError(f"y_samples must be >= 1, got {y_samples}")
    if sigma == 0.0:
        return l2_norm(field)
    grid = field.grid
    dirs, radii = _shift_grid(grid.dim, sigma, y_samples)
    c2 = np.abs(field.coeffs.ravel()) ** 2
    k_flat = np.stack([np.broadcast_to(k, grid.shape).ravel() for k in grid.k_axes])
    best = 0.0
    for u in dirs:
        uk = u @ k_flat
        # exp(2*r*uk) for all radii at once; rows are radii
        sq = np.exp(2.0 * np.multiply.outer(radii, uk)) @ c2
        best = max(best, float(sq.max()))
    return float(np.sqrt(best))


def _multi_indices(dim: int, alpha_max: int) -> list:
    """Every multi-index with |alpha| <= alpha_max, by total order and, in 2D,
    by decreasing first component within an order."""
    if dim == 1:
        return [(order,) for order in range(alpha_max + 1)]
    return [(order - j, j) for order in range(alpha_max + 1) for j in range(order + 1)]


def _alpha_factorial(alpha) -> float:
    return float(prod(factorial(a_j) for a_j in alpha))


def _spectral_derivatives(grid: GridSpec, samples: np.ndarray, alphas):
    """Yield the real spectral derivative d^alpha of the samples for each
    alpha in turn, all from one forward transform."""
    hat0 = np.fft.fftn(np.asarray(samples, dtype=float))
    for alpha in alphas:
        hat = hat0
        for a_j, k_j in zip(alpha, grid.k_axes):
            if a_j:
                hat = hat * (1j * k_j) ** a_j
        yield np.fft.ifftn(hat).real


def derivative_sup(grid: GridSpec, samples: np.ndarray, alpha):
    """Grid sup norm of the spectral derivative d^alpha of real samples.

    ``alpha`` is one multi-index, giving a float, or an (m, dim) array of
    them, giving an array of m sups computed from a single forward transform
    with the same arithmetic as m separate calls.
    """
    batched = np.ndim(alpha) == 2
    alphas = np.atleast_2d(np.asarray(alpha).astype(int))
    if alphas.ndim > 2 or alphas.shape[1] != grid.dim:
        raise ValueError(f"alpha must have {grid.dim} components, got {alpha}")
    derivs = _spectral_derivatives(grid, samples, alphas)
    sups = np.array([float(np.max(np.abs(deriv))) for deriv in derivs])
    return sups if batched else float(sups[0])


def asigma_order_sums(a, t: float, sigma: float, alpha_max: int | None = None) -> np.ndarray:
    """Per-total-order contributions to the derivative-majorant norm.

    Entry s is sum over |alpha| = s of sigma^s * sup|d^alpha a(t,.)| / alpha!.
    The last entry is the natural truncation indicator; the full norm is the
    sum of all entries.
    """
    grid = a.grid
    if alpha_max is None:
        alpha_max = 24 if grid.dim == 1 else 12
    if alpha_max < 0:
        raise ValueError(f"alpha_max must be nonnegative, got {alpha_max}")
    if sigma < 0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    alphas = _multi_indices(grid.dim, alpha_max)
    sups = derivative_sup(grid, a.sample(t), alphas)
    sums = np.zeros(alpha_max + 1)
    for alpha, sup in zip(alphas, sups):
        order = sum(alpha)
        sums[order] += sigma**order / _alpha_factorial(alpha) * sup
    return sums


def asigma_norm(a, t: float, sigma: float, alpha_max: int | None = None) -> float:
    """Truncated derivative-majorant norm of a coefficient field at time t.

    Nondecreasing in alpha_max; check asigma_order_sums(...)[-1] when the
    truncation level matters.
    """
    return float(np.sum(asigma_order_sums(a, t, sigma, alpha_max)))


def _indicator_of(obs) -> np.ndarray:
    ind = getattr(obs, "indicator", obs)
    return np.asarray(ind, dtype=bool)


def restricted_l2(field: SpectralField, obs) -> float:
    """Quadrature L2 norm of the field over an observation set.

    ``obs`` is a boolean indicator array on the grid or any object exposing
    one through an ``indicator`` attribute.  Never exceeds l2_norm(field)
    because the discrete Plancherel identity is exact.
    """
    _require_single(field, "restricted_l2")
    ind = _indicator_of(obs)
    grid = field.grid
    if ind.shape != grid.shape:
        raise ValueError(
            f"indicator shape {ind.shape} does not match grid shape {grid.shape}"
        )
    u = inverse(field)
    sq = np.sum(np.abs(u[ind]) ** 2) * grid.cell_volume
    return float(np.sqrt(sq))


def weighted_l2(field: SpectralField, exponent: float) -> float:
    """L2 norm against the polynomial weight (1+|x|^2)^exponent, with x the
    centered coordinate wrapped to [-period/2, period/2)."""
    grid = field.grid
    u = inverse(field)
    r2 = sum(xc**2 for xc in grid.x_centered_axes)
    w = (1.0 + r2) ** exponent
    sq = np.sum(np.abs(u) ** 2 * w) * grid.cell_volume
    return float(np.sqrt(sq))


def smoothing_gain_constant(s: float) -> float:
    """sup over r >= 0 of exp(r - r^s), the uniform price of trading one
    semigroup application at time t for the analytic weight exp(t^(1/s)|k|).

    Finite exactly when s > 1, attained at r = s^(-1/(s-1)) where the value
    is exp(r*(1 - 1/s)).
    """
    if not s > 1:
        raise ValueError(f"requires s > 1, got {s}")
    r = s ** (-1.0 / (s - 1.0))
    return float(np.exp(r * (1.0 - 1.0 / s)))
