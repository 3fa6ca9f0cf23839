"""Observation sets: thickness scans and builders.

The thickness routine is checked against a direct translate-by-translate
scan written with plain python loops, which is slow but has no shared code
with the windowed cumulative-sum implementation.
"""

import numpy as np
import pytest

from fracheatlab.spectral import GridSpec
from fracheatlab.rng import make_generator
from fracheatlab.thick_sets import (
    ThickSet,
    thickness,
    build_set,
    SET_BUILDERS,
)


def _brute_thickness_1d(ind, m):
    n = len(ind)
    best = m + 1
    for start in range(n):
        count = sum(ind[(start + j) % n] for j in range(m))
        best = min(best, count)
    return best / m


def _brute_thickness_2d(ind, m):
    n = ind.shape[0]
    best = m * m + 1
    for sx in range(n):
        for sy in range(n):
            count = 0
            for jx in range(m):
                for jy in range(m):
                    count += ind[(sx + jx) % n, (sy + jy) % n]
            best = min(best, count)
    return best / (m * m)


def test_thickness_matches_brute_force_1d():
    g = GridSpec(1, 16, 2.0)
    for i in range(30):
        rng = make_generator(301, "thick1", i)
        ind = rng.random(16) < 0.4
        for m in (1, 2, 4, 8, 16):
            got = thickness(g, ind, m * g.dx)
            assert got == pytest.approx(_brute_thickness_1d(ind, m), abs=1e-12)


def test_thickness_matches_brute_force_2d():
    g = GridSpec(2, 8, 1.0)
    for i in range(10):
        rng = make_generator(302, "thick2", i)
        ind = rng.random((8, 8)) < 0.5
        for m in (1, 2, 4, 8):
            got = thickness(g, ind, m * g.dx)
            assert got == pytest.approx(_brute_thickness_2d(ind, m), abs=1e-12)


def test_thickness_monotone_in_scale():
    """Doubling the cube side can only raise the worst-case density: a big
    cube is a disjoint union of small ones, each individually bounded."""
    g = GridSpec(1, 64, 2 * np.pi)
    for i in range(20):
        rng = make_generator(303, "mono", i)
        ind = rng.random(64) < 0.3
        small = thickness(g, ind, 8 * g.dx)
        big = thickness(g, ind, 16 * g.dx)
        assert big >= small - 1e-12


def test_thickness_argument_validation():
    g = GridSpec(1, 16, 1.0)
    ind = np.ones(16, dtype=bool)
    assert thickness(g, ind, 0.25) == 1.0
    with pytest.raises(ValueError):
        thickness(g, ind, 0.3)  # not a whole number of cells
    with pytest.raises(ValueError, match="does not divide period"):
        thickness(g, ind, 3 * g.dx)
    with pytest.raises(ValueError):
        thickness(g, ind, 0.0)
    with pytest.raises(ValueError):
        thickness(g, np.ones(8, dtype=bool), 0.25)


def test_slab_builder_exact_gamma():
    g = GridSpec(1, 64, 1.0)
    ts = build_set("periodic_slab", g, scale=0.25, fraction=0.5)
    # the slab is aligned with the cube partition, so every cube sees the
    # same count and gamma equals the kept fraction exactly
    assert ts.gamma == pytest.approx(0.5, abs=1e-12)
    assert ts.volume_fraction == pytest.approx(0.5, abs=1e-12)
    empty = build_set("periodic_slab", g, scale=0.25, fraction=0.0)
    assert empty.gamma == 0.0
    assert not empty.indicator.any()
    full = build_set("full", g, scale=0.25)
    assert full.gamma == 1.0
    with pytest.raises(ValueError):
        build_set("periodic_slab", g, scale=0.25, fraction=1.5)
    with pytest.raises(ValueError):
        build_set("periodic_slab", g, scale=-1.0, fraction=0.5)
    with pytest.raises(ValueError):
        build_set("no_such_kind", g, scale=0.25)


def test_random_per_cell_meets_quota():
    g = GridSpec(2, 32, 1.0)
    ts = build_set("random_per_cell", g, scale=0.25, fraction=0.3, seed=7)
    m = 8  # cells per cube side
    quota = round(0.3 * m * m)
    # every aligned cube carries exactly the quota; translated windows may
    # see fewer, so the certified gamma sits between zero and that fraction
    assert ts.volume_fraction == pytest.approx(quota / m**2, abs=1e-12)
    assert 0.0 < ts.gamma <= quota / m**2 + 1e-12
    # deterministic per seed
    again = build_set("random_per_cell", g, scale=0.25, fraction=0.3, seed=7)
    assert np.array_equal(ts.indicator, again.indicator)
    other = build_set("random_per_cell", g, scale=0.25, fraction=0.3, seed=8)
    assert not np.array_equal(ts.indicator, other.indicator)


def _explicit_slab(g, scale, fraction):
    """The per-dimension slab and per-cell builders, written out for 1D and
    2D separately, as oracles for the builders."""
    m = round(scale / g.dx)
    along = (np.arange(g.n) % m) < int(round(fraction * m))
    return along if g.dim == 1 else np.broadcast_to(along[:, None], g.shape).copy()


def _explicit_random_per_cell(g, scale, fraction, seed):
    m = round(scale / g.dx)
    blocks = g.n // m
    rng = make_generator(seed, stream="random_per_cell")
    ind = np.zeros(g.shape, dtype=bool)
    if g.dim == 1:
        quota = max(1, int(round(fraction * m)))
        for b in range(blocks):
            ind[b * m + rng.choice(m, size=quota, replace=False)] = True
        return ind
    quota = max(1, int(round(fraction * m * m)))
    for bi in range(blocks):
        for bj in range(blocks):
            chosen = rng.choice(m * m, size=quota, replace=False)
            ind[bi * m + chosen // m, bj * m + chosen % m] = True
    return ind


@pytest.mark.parametrize("dim", [1, 2])
def test_set_builders_match_explicit_construction(dim):
    g = GridSpec(dim, 32, 2.0)
    for scale in (0.125, 0.25, 0.5, 2.0):
        for fraction in (0.05, 0.3, 0.5, 1.0):
            slab = SET_BUILDERS["periodic_slab"](g, scale, fraction=fraction)
            assert slab.dtype == bool
            assert np.array_equal(slab, _explicit_slab(g, scale, fraction))
            for seed in (0, 7, 1234):
                cells = SET_BUILDERS["random_per_cell"](g, scale, fraction=fraction, seed=seed)
                assert cells.dtype == bool
                assert np.array_equal(cells, _explicit_random_per_cell(g, scale, fraction, seed))


def test_complement_of_ball():
    g = GridSpec(1, 64, 8.0)
    ts = build_set("complement_of_ball", g, scale=1.0, radius=2.0)
    xc = g.x_centered_axes[0]
    assert np.array_equal(ts.indicator, np.abs(xc) >= 2.0)
    # the excluded ball swallows whole unit cubes, so the certified
    # thickness collapses to zero even though half the volume remains
    assert ts.gamma == 0.0
    assert ts.volume_fraction == pytest.approx(0.5, abs=0.05)
    # a ball smaller than half a cube leaves every translate partly covered
    small = build_set("complement_of_ball", g, scale=1.0, radius=0.4)
    assert 0.0 < small.gamma < 1.0


def test_registry_is_complete():
    assert set(SET_BUILDERS) == {
        "periodic_slab", "random_per_cell", "complement_of_ball", "full",
    }


def test_indicator_is_frozen():
    g = GridSpec(1, 16, 1.0)
    ts = build_set("full", g, scale=0.25)
    with pytest.raises(ValueError):
        ts.indicator[0] = False
