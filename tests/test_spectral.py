"""Transform, multiplier, and projection tests.

The transform normalization is the load-bearing convention of the whole
package: coefficients are unitary against the quadrature L2 norm.  Most
checks here pin that down with closed-form fields before trusting the
random roundtrips.
"""

import numpy as np
import pytest

from fracheatlab.spectral import (
    GridSpec,
    SpectralField,
    transform,
    inverse,
    semigroup_apply,
    project,
    _conjugate_partner,
)


def _rng(tag, i=0):
    return np.random.default_rng([421, hash(tag) & 0xFFFF, i])


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(3, 64, 1.0)
    with pytest.raises(ValueError):
        GridSpec(1, 13, 1.0)
    with pytest.raises(ValueError):
        GridSpec(1, 6, 1.0)
    with pytest.raises(ValueError):
        GridSpec(1, 64, 0.0)
    g = GridSpec(2, 16, 3.0)
    assert g.shape == (16, 16)
    assert g.dx == pytest.approx(3.0 / 16)
    assert g.cell_volume == pytest.approx((3.0 / 16) ** 2)
    assert g.nyquist_axis == pytest.approx(np.pi * 16 / 3.0)
    assert g.nyquist_radius == pytest.approx(np.sqrt(2) * np.pi * 16 / 3.0)


def _explicit_lattice(g):
    """The per-dimension constructions of the grid arrays, written out for
    1D and 2D separately, as an oracle for the per-axis layout."""
    k = 2.0 * np.pi * np.fft.fftfreq(g.n, d=g.dx)
    x = g.dx * np.arange(g.n)
    xc = np.where(x >= g.period / 2, x - g.period, x)
    m = np.concatenate([np.arange(g.n // 2), np.arange(-(g.n // 2), 0)])
    keep = 3 * np.abs(m) <= g.n
    partner = np.roll(np.arange(g.n)[::-1], 1)
    if g.dim == 1:
        return {"k": (k,), "k_mag": np.abs(k), "x": (x,), "xc": (xc,), "mask": keep,
                "partner": partner}
    return {
        "k": (k[:, None], k[None, :]), "k_mag": np.sqrt(k[:, None] ** 2 + k[None, :] ** 2),
        "x": (x[:, None], x[None, :]), "xc": (xc[:, None], xc[None, :]),
        "mask": keep[:, None] & keep[None, :], "partner": np.ix_(partner, partner),
    }


@pytest.mark.parametrize("dim", [1, 2])
def test_lattice_arrays_match_explicit_construction(dim):
    for n in (8, 10, 34, 64, 256):
        for period in (1.0, 2 * np.pi, 8 * np.pi, 3.7):
            g = GridSpec(dim, n, period)
            ref = _explicit_lattice(g)
            shapes = [a.shape for a in g.per_axis(np.arange(n))]
            assert shapes == [(n,) + (1,) * (dim - 1 - i) for i in range(dim)]
            for name, axes in (("k", g.k_axes), ("x", g.x_axes), ("xc", g.x_centered_axes)):
                assert len(axes) == dim
                for ours, theirs in zip(axes, ref[name]):
                    ours, theirs = np.broadcast_arrays(ours, theirs)
                    assert ours.tobytes() == theirs.tobytes(), (name, n, period)
            assert g.k_mag.shape == g.shape
            assert g.k_mag.tobytes() == ref["k_mag"].tobytes(), (n, period)
            assert g.dealias_mask.shape == g.shape
            assert np.array_equal(g.dealias_mask, ref["mask"])
            c = _rng("partner", n).standard_normal(g.shape)
            assert np.array_equal(c[_conjugate_partner(g)], c[ref["partner"]])


def test_dealias_mask_keeps_the_two_thirds_rule_modes():
    # fftfreq(474, 1/474) reads 158.00000000000003 at the boundary mode
    # |m| = n/3, which the 2/3 rule keeps
    g = GridSpec(2, 474, 1.0)
    assert np.count_nonzero(g.dealias_mask) == 317**2
    for n in range(8, 4097, 2):
        assert np.count_nonzero(GridSpec(1, n, 1.0).dealias_mask) == 2 * (n // 3) + 1, n


def test_constant_field_coefficients():
    # f = 3 on [0, 2pi): only the zero mode, value 3*sqrt(period), and the
    # L2 norm is 3*sqrt(2pi)
    g = GridSpec(1, 64, 2 * np.pi)
    f = transform(g, np.full(64, 3.0))
    expect = np.zeros(64, dtype=complex)
    expect[0] = 3.0 * np.sqrt(2 * np.pi)
    assert np.allclose(f.coeffs, expect, atol=1e-12)
    assert np.linalg.norm(f.coeffs) == pytest.approx(3.0 * np.sqrt(2 * np.pi), rel=1e-14)


def test_cosine_field_coefficients():
    g = GridSpec(1, 64, 2 * np.pi)
    x = g.x_axes[0]
    f = transform(g, np.cos(4 * x))
    # two modes at +-4, each (1/2)*sqrt(period); everything else zero
    amp = 0.5 * np.sqrt(2 * np.pi)
    assert abs(f.coeffs[4] - amp) < 1e-12
    assert abs(f.coeffs[-4] - amp) < 1e-12
    rest = f.coeffs.copy()
    rest[4] = rest[-4] = 0.0
    assert np.max(np.abs(rest)) < 1e-12
    # integral of cos^2 over the period is pi
    assert np.linalg.norm(f.coeffs) == pytest.approx(np.sqrt(np.pi), rel=1e-14)


def test_pure_exponential_2d():
    g = GridSpec(2, 32, 1.0)
    x, y = g.x_axes
    samples = np.exp(2j * np.pi * (3 * x - 5 * y))
    f = transform(g, samples)
    assert abs(f.coeffs[3, -5] - 1.0) < 1e-12
    assert np.sum(np.abs(f.coeffs) > 1e-12) == 1


@pytest.mark.parametrize("dim,n,period", [(1, 64, 2 * np.pi), (1, 128, 1.0), (2, 32, 5.0)])
def test_roundtrip_and_parseval(dim, n, period):
    g = GridSpec(dim, n, period)
    for i in range(10):
        rng = _rng("roundtrip", i)
        samples = rng.standard_normal(g.shape)
        f = transform(g, samples)
        back = inverse(f).real
        assert np.max(np.abs(back - samples)) < 1e-12 * max(1.0, np.max(np.abs(samples)))
        # Plancherel: coefficient l2 equals the quadrature L2 of the samples
        quad = np.sqrt(np.sum(samples**2) * g.cell_volume)
        assert np.linalg.norm(f.coeffs) == pytest.approx(quad, rel=1e-13)


def test_projection_complements():
    g = GridSpec(2, 32, 2 * np.pi)
    rng = _rng("proj")
    f = transform(g, rng.standard_normal(g.shape))
    for cut in (0.0, 3.0, 7.5, 100.0):
        lo = project(f, cut, side="low")
        hi = project(f, cut, side="high")
        assert np.array_equal(lo.coeffs + hi.coeffs, f.coeffs)
        # energies split exactly because supports are disjoint
        assert np.linalg.norm(lo.coeffs) ** 2 + np.linalg.norm(hi.coeffs) ** 2 == pytest.approx(
            np.linalg.norm(f.coeffs) ** 2, rel=1e-14
        )
        again = project(lo, cut, side="low")
        assert np.array_equal(again.coeffs, lo.coeffs)
    with pytest.raises(ValueError):
        project(f, 1.0, side="middle")


def test_semigroup_single_mode_and_composition():
    g = GridSpec(1, 64, 2 * np.pi)
    rng = _rng("semigroup")
    f = transform(g, rng.standard_normal(64))
    one = semigroup_apply(f, 1.7, 0.9)
    two = semigroup_apply(semigroup_apply(f, 1.7, 0.4), 1.7, 0.5)
    assert np.max(np.abs(one.coeffs - two.coeffs)) < 1e-14 * np.max(np.abs(f.coeffs))
    c = np.zeros(64, dtype=complex)
    c[7] = 1.0
    mode = SpectralField(g, c)
    out = semigroup_apply(mode, 2.0, 0.3)
    assert out.coeffs[7] == pytest.approx(np.exp(-0.3 * 49.0), rel=1e-14)
    with pytest.raises(ValueError):
        semigroup_apply(f, 1.0, 0.1)
    with pytest.raises(ValueError):
        semigroup_apply(f, 2.0, -0.1)


def test_high_frequency_dissipation_is_coefficientwise():
    """exp(-t|k|^s) <= exp(-t*N^s) on every mode above the cutoff N, so the
    high-pass part of the evolved field is dominated with constant one."""
    g = GridSpec(2, 64, 2 * np.pi)
    s, t, cut = 1.5, 0.37, 9.0
    for i in range(5):
        rng = _rng("dissip", i)
        f = transform(g, rng.standard_normal(g.shape))
        hi0 = project(f, cut, side="high")
        hi_t = project(semigroup_apply(f, s, t), cut, side="high")
        lhs = np.linalg.norm(hi_t.coeffs)
        rhs = np.exp(-t * cut**s) * np.linalg.norm(hi0.coeffs)
        assert lhs <= rhs * (1.0 + 1e-13)


def test_field_shape_guard_and_immutability():
    g = GridSpec(1, 16, 1.0)
    with pytest.raises(ValueError):
        SpectralField(g, np.zeros(8, dtype=complex))
    with pytest.raises(ValueError):
        transform(g, np.zeros(17))
    f = SpectralField(g, np.zeros(16, dtype=complex))
    with pytest.raises(ValueError):
        f.coeffs[0] = 1.0
