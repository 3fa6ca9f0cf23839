"""Seeded generators for random initial data.

Two families cover the regimes the experiments care about: band-limited
fields (compact spectrum, the restriction-inequality setting) and fields
with exponentially decaying spectrum (positive analytic radius).  All draws
go through the package's counter-based streams, so a (seed, member) pair
identifies the same field on every platform.
"""

from __future__ import annotations

import numpy as np

from .spectral import GridSpec, SpectralField, _conjugate_partner
from .rng import make_generator

__all__ = [
    "hermitian_symmetrize",
    "single_mode",
    "random_band_limited",
    "random_analytic_decay",
    "make_ensemble",
]


def hermitian_symmetrize(grid: GridSpec, coeffs: np.ndarray) -> np.ndarray:
    """Project coefficients onto the subspace of real physical fields."""
    return 0.5 * (coeffs + np.conj(coeffs[_conjugate_partner(grid)]))


def single_mode(grid: GridSpec, m, amplitude: complex = 1.0) -> SpectralField:
    """Field with a single unit coefficient at lattice index m (integers)."""
    m = np.atleast_1d(np.asarray(m, dtype=int))
    if m.shape != (grid.dim,):
        raise ValueError(f"mode must have {grid.dim} components, got {m.shape}")
    half = grid.n // 2
    if np.any(m < -half) or np.any(m >= half):
        raise ValueError(f"mode {tuple(m.tolist())} outside [-n/2, n/2)")
    coeffs = np.zeros(grid.shape, dtype=complex)
    coeffs[tuple(mi % grid.n for mi in m)] = amplitude
    return SpectralField(grid, coeffs)


def _normalized(grid: GridSpec, coeffs: np.ndarray) -> SpectralField:
    nrm = np.linalg.norm(coeffs)
    if nrm == 0.0:
        raise ValueError("degenerate draw produced an identically zero field")
    return SpectralField(grid, coeffs / nrm)


def random_band_limited(
    grid: GridSpec, rng: np.random.Generator, band: float
) -> SpectralField:
    """Unit-norm real field with Gaussian coefficients on |k| <= band."""
    if not 0 < band:
        raise ValueError(f"band must be positive, got {band}")
    shape = grid.shape
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    raw[grid.k_mag > band] = 0.0
    return _normalized(grid, hermitian_symmetrize(grid, raw))


def random_analytic_decay(
    grid: GridSpec, rng: np.random.Generator, radius: float
) -> SpectralField:
    """Unit-norm real field with spectrum enveloped by exp(-radius*|k|)."""
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    shape = grid.shape
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    raw *= np.exp(-radius * grid.k_mag)
    return _normalized(grid, hermitian_symmetrize(grid, raw))


def make_ensemble(
    grid: GridSpec,
    count: int,
    seed: int,
    kind: str = "mixed",
    band: float | None = None,
    decay_radius: float = 0.5,
) -> SpectralField:
    """Deterministic initial data as one batch of shape (count, *grid.shape).

    kind is one of 'band_limited', 'analytic_decay', or 'mixed'
    (alternating).  Band defaults to a quarter of the axis Nyquist.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if kind not in ("band_limited", "analytic_decay", "mixed"):
        raise ValueError(f"unknown ensemble kind {kind!r}")
    if band is None:
        band = grid.nyquist_axis / 4.0
    fields = []
    for i in range(count):
        rng = make_generator(seed, stream="ensemble", member=i)
        if kind == "band_limited" or (kind == "mixed" and i % 2 == 0):
            fields.append(random_band_limited(grid, rng, band))
        else:
            fields.append(random_analytic_decay(grid, rng, decay_radius))
    return SpectralField(grid, np.stack([f.coeffs for f in fields]))
