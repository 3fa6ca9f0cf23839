"""Observation sets: thickness scans, builders, and the bitmask format.

The thickness routine is checked against a direct translate-by-translate
scan written with plain python loops, which is slow but has no shared code
with the windowed cumulative-sum implementation.
"""

import re

import numpy as np
import pytest

from fracheatlab.spectral import GridSpec
from fracheatlab.rng import make_generator
from fracheatlab.thick_sets import (
    ThickSet,
    thickness,
    build_set,
    save_bitmask,
    load_bitmask,
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
        for m in (2, 4, 8):
            got = thickness(g, ind, m * g.dx)
            assert got == pytest.approx(_brute_thickness_1d(ind, m), abs=1e-12)


def test_thickness_matches_brute_force_2d():
    g = GridSpec(2, 8, 1.0)
    for i in range(10):
        rng = make_generator(302, "thick2", i)
        ind = rng.random((8, 8)) < 0.5
        for m in (2, 4):
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


def test_bitmask_roundtrip(tmp_path):
    g = GridSpec(2, 16, 2 * np.pi)
    rng = make_generator(304, "mask")
    ind = rng.random((16, 16)) < 0.5
    ts = ThickSet.from_indicator(g, ind, scale=np.pi / 2)
    path = tmp_path / "set.mask"
    save_bitmask(path, ts)
    back = load_bitmask(path, g)
    assert np.array_equal(back.indicator, ts.indicator)
    assert back.scale == ts.scale
    assert back.gamma == pytest.approx(ts.gamma, abs=1e-15)
    # the header encodes the grid; a mismatched reader must refuse
    with pytest.raises(ValueError):
        load_bitmask(path, GridSpec(2, 32, 2 * np.pi))
    path2 = tmp_path / "junk.mask"
    path2.write_bytes(b"NOPE" + bytes(32))
    with pytest.raises(ValueError):
        load_bitmask(path2, g)


def test_bitmask_rejects_wrong_payload_length(tmp_path):
    # a full 2D n=8 set is 8 payload bytes; cut by 4 it once loaded as a
    # half-empty set with gamma = 0
    g = GridSpec(2, 8, 2 * np.pi)
    path = tmp_path / "full.mask"
    save_bitmask(path, build_set("full", g, scale=np.pi / 2))
    raw = path.read_bytes()
    assert len(raw) == 25 + 8
    for label, data in (
        ("truncated", raw[:-4]),
        ("one byte short", raw[:-1]),
        ("extended", raw + b"\xff"),
        ("header only", raw[:25]),
        ("short header", raw[:20]),
    ):
        bad = tmp_path / f"{label}.mask"
        bad.write_bytes(data)
        with pytest.raises(ValueError, match=re.escape(bad.name)):
            load_bitmask(bad, g)
    # an odd cell count rounds the payload up to whole bytes
    g1 = GridSpec(1, 10, 1.0)
    odd = tmp_path / "odd.mask"
    save_bitmask(odd, build_set("full", g1, scale=0.5))
    assert len(odd.read_bytes()) == 25 + 2
    assert load_bitmask(odd, g1).volume_fraction == 1.0


def test_indicator_is_frozen():
    g = GridSpec(1, 16, 1.0)
    ts = build_set("full", g, scale=0.25)
    with pytest.raises(ValueError):
        ts.indicator[0] = False
