"""Observation sets and their thickness at a chosen cube scale.

A set E on the grid is gamma-thick at scale L when every axis-aligned cube
of side L carries at least the fraction gamma of its own volume in E.  The
scan below is exact at grid resolution: it slides the cube over every grid
translate (periodically wrapped) with integer window sums, so the reported
gamma is the true discrete infimum, not a sample.

Cube sides must be a whole number of grid cells and divide the period; that
keeps the translate scan exact and the wraparound unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import GridSpec
from .rng import make_generator

__all__ = [
    "ThickSet",
    "thickness",
    "build_set",
    "SET_BUILDERS",
]


def _cells_per_side(grid: GridSpec, scale: float) -> int:
    if not 0.0 < scale <= grid.period:
        raise ValueError(f"cube side must lie in (0, period {grid.period}], got {scale}")
    cells = scale / grid.dx
    m = round(cells)
    if abs(cells - m) > 1e-9 * max(1.0, cells) or m < 1:
        raise ValueError(
            f"cube side {scale} is not a whole number of grid cells "
            f"(cell size {grid.dx})"
        )
    if grid.n % m:
        raise ValueError(
            f"cube side {scale} does not divide period {grid.period}; "
            "the translate scan would be inexact"
        )
    return m


def _circular_window_sum(counts: np.ndarray, m: int, axis: int) -> np.ndarray:
    """Sum over a length-m window starting at each index, wrapped."""
    n = counts.shape[axis]
    c = np.cumsum(np.take(counts, range(n + m - 1), axis=axis, mode="wrap"), axis=axis)
    # c[i] - counts[i] is the sum before index i; int64 keeps every window exact
    return np.take(c, range(m - 1, n + m - 1), axis=axis) - np.take(c, range(n), axis=axis) + counts


def thickness(grid: GridSpec, indicator: np.ndarray, scale: float) -> float:
    """Exact discrete thickness of the set at cube side ``scale``.

    Returns min over every grid-translated cube Q of |E meet Q| / |Q|,
    where the intersection counts grid cells.
    """
    indicator = np.asarray(indicator, dtype=bool)
    if indicator.shape != grid.shape:
        raise ValueError(
            f"indicator shape {indicator.shape} does not match grid {grid.shape}"
        )
    m = _cells_per_side(grid, scale)
    counts = indicator.astype(np.int64)
    for axis in range(grid.dim):
        counts = _circular_window_sum(counts, m, axis)
    return float(counts.min()) / float(m**grid.dim)


@dataclass(frozen=True)
class ThickSet:
    """An observation set with its certified thickness at one scale."""

    grid: GridSpec
    indicator: np.ndarray
    scale: float
    gamma: float

    def __post_init__(self):
        self.indicator.setflags(write=False)

    @classmethod
    def from_indicator(cls, grid: GridSpec, indicator, scale: float) -> "ThickSet":
        indicator = np.ascontiguousarray(indicator, dtype=bool)
        gamma = thickness(grid, indicator, scale)
        return cls(grid=grid, indicator=indicator, scale=float(scale), gamma=gamma)

    @property
    def volume_fraction(self) -> float:
        return float(np.count_nonzero(self.indicator)) / self.indicator.size


def _slab(grid: GridSpec, scale: float, fraction: float = 0.5) -> np.ndarray:
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must lie in [0, 1], got {fraction}")
    m = _cells_per_side(grid, scale)
    keep = int(round(fraction * m))
    along = grid.per_axis((np.arange(grid.n) % m) < keep)[0]
    return np.broadcast_to(along, grid.shape).copy()


def _random_per_cell(
    grid: GridSpec, scale: float, fraction: float = 0.3, seed: int = 0
) -> np.ndarray:
    """Pick a fixed random quota of cells inside every aligned cube, so the
    set is spread out instead of clumping somewhere the cube scan would
    punish."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must lie in (0, 1], got {fraction}")
    m = _cells_per_side(grid, scale)
    blocks = grid.n // m
    quota = max(1, int(round(fraction * m**grid.dim)))
    rng = make_generator(seed, stream="random_per_cell")
    cube = (m,) * grid.dim
    ind = np.zeros(grid.shape, dtype=bool)
    for block in np.ndindex((blocks,) * grid.dim):
        chosen = np.unravel_index(rng.choice(m**grid.dim, size=quota, replace=False), cube)
        ind[tuple(b * m + c for b, c in zip(block, chosen))] = True
    return ind


def _complement_of_ball(grid: GridSpec, scale: float, radius: float = 0.25) -> np.ndarray:
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    r2 = sum(x**2 for x in grid.x_centered_axes)
    return np.broadcast_to(r2 >= radius**2, grid.shape).copy()


def _full(grid: GridSpec, scale: float) -> np.ndarray:
    return np.ones(grid.shape, dtype=bool)


SET_BUILDERS = {
    "periodic_slab": _slab,
    "random_per_cell": _random_per_cell,
    "complement_of_ball": _complement_of_ball,
    "full": _full,
}


def build_set(kind: str, grid: GridSpec, scale: float, **params) -> ThickSet:
    """Construct a named observation set and certify its thickness.

    Kinds: periodic_slab(fraction), random_per_cell(fraction, seed),
    complement_of_ball(radius), full.  Explicit masks go through
    ThickSet.from_indicator instead.
    """
    try:
        builder = SET_BUILDERS[kind]
    except KeyError:
        raise ValueError(
            f"unknown set kind {kind!r}; expected one of {sorted(SET_BUILDERS)}"
        ) from None
    indicator = builder(grid, scale, **params)
    return ThickSet.from_indicator(grid, indicator, scale)
