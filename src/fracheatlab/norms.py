"""Norms and analyticity functionals for spectral fields.

Three families are provided:

* plain L2 (unitary, so it is just the Euclidean norm of the coefficients);
* exponentially weighted Fourier norms, with a linear-exponential weight
  exp(sigma*|k|) or a log-modified weight exp(c*|k|*log(e+|k|)^(1-kappa));
* the strip supremum norm: the largest L2 norm of the field shifted by an
  imaginary displacement y with |y| < sigma, realized in Fourier space as
  the multiplier exp(y.k) and discretized over a uniform grid of directions
  and radii (the reported value is a lower bound of the true supremum and
  converges as y_samples grows).

The restricted physical-space L2 norm rounds out the set; it is a
quadrature sum over the sample grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import factorial, prod

import numpy as np

from .spectral import GridSpec, SpectralField, _require_single, inverse

__all__ = [
    "ExpLinearWeight",
    "ExpLogLogWeight",
    "l2_norm",
    "weighted_fourier_norm",
    "strip_sup_norm",
    "derivative_sup",
    "restricted_l2",
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


def l2_norm(field: SpectralField):
    """L2(torus) norm; equals the Euclidean norm of the coefficients.  A
    batch gives one norm per member."""
    # one dot product of the real and one of the imaginary parts per member:
    # the arithmetic of np.linalg.norm on each member's coefficients
    c = field.coeffs.reshape(-1, prod(field.grid.shape))
    norms = np.sqrt(np.vecdot(c.real, c.real) + np.vecdot(c.imag, c.imag))
    return norms if field.batched else float(norms[0])


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
    _require_single(field, "strip_sup_norm")
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
    """Every multi-index with |alpha| <= alpha_max, by total order and,
    within an order, lexicographically decreasing."""
    alphas = [a for a in product(range(alpha_max + 1), repeat=dim) if sum(a) <= alpha_max]
    return sorted(alphas, key=lambda a: (sum(a), [-a_j for a_j in a]))


def _alpha_factorial(alpha) -> float:
    return float(prod(factorial(a_j) for a_j in alpha))


# an order past the float range overflows silently and raises below
@np.errstate(over="ignore", invalid="ignore")
def derivative_sup(grid: GridSpec, samples: np.ndarray, alpha):
    """Grid sup norm of the spectral derivative d^alpha of real samples.

    ``alpha`` is one multi-index, giving a float, or an (m, dim) array of
    them, giving an array of m sups computed from a single forward transform
    with the same arithmetic as m separate calls.  Real samples have a
    Hermitian spectrum, so the inverse runs on its half along the last axis
    (complex samples raise ValueError): the alphas with the same leading
    component share one partial inverse along axis 0, and each alpha takes
    one real inverse along the last axis.  This is the real part of the full
    inverse with fftfreq's negative Nyquist k, so axis 0's Nyquist row takes
    Re((i k_N)^a) in the paired columns and (i k_N)^a in the self-conjugate
    columns 0 and n/2, whose imaginary part the real inverse drops.
    A sup that is not finite (the order is past the float range on this
    grid) raises FloatingPointError naming the first such multi-index.
    """
    batched = np.ndim(alpha) == 2
    alphas = np.atleast_2d(np.asarray(alpha).astype(int))
    if alphas.ndim > 2 or alphas.shape[1] != grid.dim or np.any(alphas < 0):
        raise ValueError(f"alpha must have {grid.dim} nonnegative components, got {alpha}")
    samples = np.asarray(samples)
    if np.iscomplexobj(samples):
        raise ValueError(f"derivative_sup takes real samples, got dtype {samples.dtype}")
    nyq = grid.n // 2
    hat0 = np.fft.fftn(np.asarray(samples, dtype=float))[..., : nyq + 1]
    k_last = grid.k_axes[-1][..., : nyq + 1]
    # the leading component of each alpha in 2D, none in 1D
    leads, group = np.unique(alphas[:, :-1], axis=0, return_inverse=True)
    group = group.ravel()
    sups = np.empty(len(alphas))
    # one partial inverse is held at a time: holding all of them raised the
    # peak RSS of a 2D n=256 class-verify by about 15%
    for g, lead in enumerate(leads):
        part = hat0
        for a in lead:
            mult = (1j * grid.k_axes[0]) ** a
            part = hat0 * mult
            part[nyq, 1:-1] = hat0[nyq, 1:-1] * mult[nyq].real
            part = np.fft.ifftn(part, axes=(0,))
        for i in np.flatnonzero(group == g):
            b = alphas[i, -1]
            # deriv stays bound until the next transform is allocated; freeing
            # it first lets malloc hand its pages back, and refaulting them
            # made 2D n=256 sups about 25% slower
            deriv = np.fft.irfft(part * (1j * k_last) ** b if b else part, n=grid.n, axis=-1)
            sups[i] = np.max(np.abs(deriv))
    bad = np.flatnonzero(~np.isfinite(sups))
    if len(bad):
        alpha = tuple(alphas[bad[0]].tolist())
        raise FloatingPointError(f"the sup of derivative {alpha} is not finite on this grid")
    return sups if batched else float(sups[0])


def _indicator_of(obs) -> np.ndarray:
    ind = getattr(obs, "indicator", obs)
    return np.asarray(ind, dtype=bool)


def restricted_l2(field: SpectralField, obs):
    """Quadrature L2 norm of the field over an observation set.

    ``obs`` is a boolean indicator array on the grid or any object exposing
    one through an ``indicator`` attribute.  Never exceeds l2_norm(field)
    because the discrete Plancherel identity is exact.  A batch gives one
    norm per member from one inverse transform and one reduction of the
    whole batch, bit-identical to a call per member.
    """
    ind = _indicator_of(obs)
    grid = field.grid
    if ind.shape != grid.shape:
        raise ValueError(
            f"indicator shape {ind.shape} does not match grid shape {grid.shape}"
        )
    # np.take keeps the gathered rows C-ordered, so each row sums pairwise
    # as np.sum of one member does; the boolean gather x[..., ind] comes
    # back F-ordered and its row sums run sequentially, rounding differently
    on_set = np.take(inverse(field).reshape(-1, ind.size), np.flatnonzero(ind), axis=-1)
    norms = np.sqrt(np.sum(np.abs(on_set) ** 2, axis=-1) * grid.cell_volume)
    return norms if field.batched else float(norms[0])
