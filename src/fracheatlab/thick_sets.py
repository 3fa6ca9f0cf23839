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

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .spectral import GridSpec
from .rng import make_generator

__all__ = [
    "ThickSet",
    "thickness",
    "build_set",
    "save_bitmask",
    "load_bitmask",
    "SET_BUILDERS",
]

_MAGIC = b"FHL1"


def _cells_per_side(grid: GridSpec, scale: float) -> int:
    if scale <= 0.0:
        raise ValueError(f"cube side must be positive, got {scale}")
    ratio = grid.period / scale
    if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
        raise ValueError(
            f"cube side {scale} does not divide period {grid.period}; "
            "the translate scan would be inexact"
        )
    m = scale / grid.dx
    if abs(m - round(m)) > 1e-9 * max(1.0, m) or round(m) < 1:
        raise ValueError(
            f"cube side {scale} is not a whole number of grid cells "
            f"(cell size {grid.dx})"
        )
    return int(round(m))


def _circular_window_sum(counts: np.ndarray, m: int, axis: int) -> np.ndarray:
    """Sum over a length-m window starting at each index, wrapped."""
    n = counts.shape[axis]
    idx = [slice(None)] * counts.ndim
    idx[axis] = list(range(n)) + list(range(m - 1))
    padded = counts[tuple(idx)]
    c = np.cumsum(padded, axis=axis)
    lead = np.take(c, range(m - 1, n + m - 1), axis=axis)
    lag = np.zeros_like(lead)
    tail = [slice(None)] * counts.ndim
    tail[axis] = slice(0, n - 1)
    head = [slice(None)] * counts.ndim
    head[axis] = slice(1, n)
    lag[tuple(head)] = np.take(c, range(0, n - 1), axis=axis)
    return lead - lag


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
    along = (np.arange(grid.n) % m) < keep
    if grid.dim == 1:
        return along
    return np.broadcast_to(along[:, None], grid.shape).copy()


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
    ind = np.zeros(grid.shape, dtype=bool)
    if grid.dim == 1:
        for b in range(blocks):
            chosen = rng.choice(m, size=quota, replace=False)
            ind[b * m + chosen] = True
        return ind
    for bi in range(blocks):
        for bj in range(blocks):
            chosen = rng.choice(m * m, size=quota, replace=False)
            ind[bi * m + chosen // m, bj * m + chosen % m] = True
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


def save_bitmask(path, ts: ThickSet) -> None:
    """Write the indicator as a packed bitmask.

    Layout: magic 'FHL1', uint8 dim, uint32 points per axis, float64 period,
    float64 cube scale, then the row-major indicator packed 1 bit per cell
    (little-endian fields, most significant bit first inside each byte as
    produced by numpy packbits).
    """
    grid = ts.grid
    header = _MAGIC + struct.pack(
        "<BIdd", grid.dim, grid.n, grid.period, ts.scale
    )
    payload = np.packbits(ts.indicator.ravel(order="C")).tobytes()
    Path(path).write_bytes(header + payload)


def load_bitmask(path, grid: GridSpec) -> ThickSet:
    """Read a packed bitmask and re-certify it on the given grid."""
    raw = Path(path).read_bytes()
    if raw[:4] != _MAGIC:
        raise ValueError(f"{path}: not a bitmask set file")
    if len(raw) < 25:
        raise ValueError(f"{path}: bitmask header is {len(raw)} bytes, expected 25")
    dim, n, period, scale = struct.unpack("<BIdd", raw[4:25])
    if (dim, n) != (grid.dim, grid.n) or abs(period - grid.period) > 1e-12 * period:
        raise ValueError(
            f"{path}: stored grid (dim={dim}, n={n}, period={period}) does not "
            f"match requested grid (dim={grid.dim}, n={grid.n}, period={grid.period})"
        )
    cells = n**dim
    expected = 25 + -(-cells // 8)
    if len(raw) != expected:
        raise ValueError(f"{path}: bitmask is {len(raw)} bytes, expected {expected}")
    bits = np.unpackbits(np.frombuffer(raw[25:], dtype=np.uint8), count=cells).astype(bool)
    indicator = bits.reshape((n,) * dim)
    return ThickSet.from_indicator(grid, indicator, scale)
