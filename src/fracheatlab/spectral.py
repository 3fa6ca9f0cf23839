"""Periodic spectral grids, transforms, and Fourier-multiplier operators.

Fields live on a uniform grid over the torus [0, period)^dim with dim in
{1, 2}.  The discrete transform is unitary: the l2 norm of the coefficient
array equals the L2(torus) norm of the sampled field, so Plancherel holds
with constant exactly 1.  Frequencies along each axis are k = 2*pi*m/period
for integer m in [-n/2, n/2); the Nyquist mode sits at m = -n/2 and all
magnitude-based multipliers use |k|, so it is treated with its positive
magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "GridSpec",
    "SpectralField",
    "transform",
    "inverse",
    "fractional_apply",
    "semigroup_apply",
    "project",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [0, period)^dim.

    Parameters
    ----------
    dim : int
        Spatial dimension, 1 or 2.
    n : int
        Sample points per axis.  Must be even and >= 8 so the 2/3-rule
        dealiasing mask and the Nyquist convention are well defined.
    period : float
        Side length of the torus, > 0.
    """

    dim: int
    n: int
    period: float

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if self.n < 8 or self.n % 2 != 0:
            raise ValueError(f"n must be even and >= 8, got {self.n}")
        if not self.period > 0:
            raise ValueError(f"period must be positive, got {self.period}")

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.dim

    @property
    def axes(self) -> tuple:
        """The trailing spatial axes of a (possibly batched) coefficient array."""
        return tuple(range(-self.dim, 0))

    @property
    def dx(self) -> float:
        return self.period / self.n

    @property
    def cell_volume(self) -> float:
        return self.dx**self.dim

    @property
    def volume(self) -> float:
        return self.period**self.dim

    @cached_property
    def k1d(self) -> np.ndarray:
        """Angular frequencies along one axis in FFT storage order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)

    @cached_property
    def k_axes(self) -> tuple:
        """Frequency arrays broadcastable over the coefficient array."""
        if self.dim == 1:
            return (self.k1d,)
        return (self.k1d[:, None], self.k1d[None, :])

    @cached_property
    def k_mag(self) -> np.ndarray:
        """|k| on the full lattice."""
        if self.dim == 1:
            return np.abs(self.k1d)
        kx, ky = self.k_axes
        return np.sqrt(kx**2 + ky**2)

    @property
    def nyquist_axis(self) -> float:
        """Largest frequency magnitude along a single axis, pi*n/period."""
        return np.pi * self.n / self.period

    @property
    def nyquist_radius(self) -> float:
        """Largest |k| anywhere on the lattice (corner mode in 2D)."""
        return float(np.sqrt(self.dim)) * self.nyquist_axis

    @cached_property
    def x_axes(self) -> tuple:
        """Sample coordinates, broadcastable over the physical array."""
        x = self.dx * np.arange(self.n)
        if self.dim == 1:
            return (x,)
        return (x[:, None], x[None, :])

    @cached_property
    def x_centered_axes(self) -> tuple:
        """Coordinates wrapped to [-period/2, period/2)."""
        x = self.dx * np.arange(self.n)
        xc = np.where(x >= self.period / 2, x - self.period, x)
        if self.dim == 1:
            return (xc,)
        return (xc[:, None], xc[None, :])

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """Boolean 2/3-rule mask: keep modes with |m| <= n/3 on every axis."""
        m = np.fft.fftfreq(self.n, d=1.0 / self.n)
        keep1d = np.abs(m) <= self.n / 3.0
        if self.dim == 1:
            return keep1d
        return keep1d[:, None] & keep1d[None, :]


@dataclass(frozen=True)
class SpectralField:
    """Immutable pairing of a grid and a complex coefficient array.

    Coefficients follow the unitary normalization: sum(|coeffs|^2) equals
    the squared L2(torus) norm of the field.  A batch of fields carries a
    leading member axis, coefficient shape (m, *grid.shape).
    """

    grid: GridSpec
    coeffs: np.ndarray

    def __post_init__(self):
        shape = self.coeffs.shape
        if shape[-self.grid.dim:] != self.grid.shape or len(shape) > self.grid.dim + 1:
            raise ValueError(
                f"coefficient shape {self.coeffs.shape} does not match "
                f"grid shape {self.grid.shape}"
            )
        if not np.iscomplexobj(self.coeffs):
            object.__setattr__(self, "coeffs", self.coeffs.astype(complex))
        self.coeffs.setflags(write=False)

    def with_coeffs(self, coeffs: np.ndarray) -> "SpectralField":
        return SpectralField(self.grid, coeffs)

    @property
    def batched(self) -> bool:
        return self.coeffs.ndim > self.grid.dim


def _require_single(field: SpectralField, what: str) -> None:
    if field.batched:
        raise ValueError(f"{what} takes one field, got a batch of {len(field.coeffs)}")


def _conjugate_partner(grid: GridSpec):
    """Index sending each FFT index m to (-m) mod n on every axis."""
    partner = np.roll(np.arange(grid.n)[::-1], 1)
    return partner if grid.dim == 1 else np.ix_(partner, partner)


def transform(grid: GridSpec, samples: np.ndarray) -> SpectralField:
    """Forward transform of physical samples into a SpectralField.

    The scaling period^(dim/2) / n^dim makes the map unitary from the
    quadrature L2 norm on the grid to the Euclidean norm on coefficients.
    """
    samples = np.asarray(samples)
    if samples.shape != grid.shape:
        raise ValueError(
            f"sample shape {samples.shape} does not match grid shape {grid.shape}"
        )
    scale = grid.period ** (grid.dim / 2.0) / grid.n**grid.dim
    return SpectralField(grid, np.fft.fftn(samples) * scale)


def inverse(field: SpectralField) -> np.ndarray:
    """Physical samples of a SpectralField (complex array; take .real for
    fields known to be real), one array per member for a batch."""
    grid = field.grid
    scale = grid.n**grid.dim / grid.period ** (grid.dim / 2.0)
    return np.fft.ifftn(field.coeffs, axes=grid.axes) * scale


def fractional_apply(field: SpectralField, s: float) -> SpectralField:
    """Apply the fractional dissipation operator, multiplier |k|^s.

    The zero mode is annihilated (0^s = 0 for s > 0).
    """
    if not s > 0:
        raise ValueError(f"s must be positive, got {s}")
    return field.with_coeffs(field.coeffs * field.grid.k_mag**s)


def semigroup_apply(field: SpectralField, s: float, t: float) -> SpectralField:
    """Apply the dissipative semigroup, multiplier exp(-t |k|^s)."""
    if not s > 1:
        raise ValueError(f"semigroup requires s > 1, got {s}")
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    return field.with_coeffs(field.coeffs * np.exp(-t * field.grid.k_mag**s))


def project(field: SpectralField, n_cut: float, side: str = "low") -> SpectralField:
    """Sharp frequency cutoff.

    side="low" keeps modes with |k| <= n_cut, side="high" keeps |k| > n_cut.
    The two projections are exact complements, so low + high reassembles the
    field with no error.  A Nyquist mode has |k| = pi*n/period and lands on
    the high side whenever n_cut sits below that magnitude.
    """
    if n_cut < 0:
        raise ValueError(f"cutoff must be nonnegative, got {n_cut}")
    low = field.grid.k_mag <= n_cut
    if side == "low":
        mask = low
    elif side == "high":
        mask = ~low
    else:
        raise ValueError(f"side must be 'low' or 'high', got {side!r}")
    return field.with_coeffs(np.where(mask, field.coeffs, 0.0))
