"""Norm and weight tests.

The strip norm and the exponentially weighted Fourier norm admit closed
forms on single modes, which pins the discretization conventions (cell
centered radii, weight applied to |c| not |c|^2).  The sandwich between the
two is the property the acceptance suite measures at scale; here it runs on
small grids in both dimensions.
"""

from math import factorial

import numpy as np
import pytest

from fracheatlab.spectral import GridSpec, SpectralField, transform
from fracheatlab.ensembles import random_band_limited, single_mode
from fracheatlab.rng import make_generator
from fracheatlab.norms import (
    ExpLinearWeight,
    ExpLogLogWeight,
    l2_norm,
    weighted_fourier_norm,
    strip_sup_norm,
    strip_shift_norm,
    asigma_norm,
    asigma_order_sums,
    derivative_sup,
    restricted_l2,
    weighted_l2,
    smoothing_gain_constant,
)
from fracheatlab.coefficients import builtin_coefficient


def test_weight_values_and_validation():
    w = ExpLinearWeight(0.4)
    k = np.array([0.0, 1.0, 2.5])
    assert np.allclose(w.log_multiplier(k), 0.4 * k)
    v = ExpLogLogWeight(c=0.3, kappa=0.25)
    expect = 0.3 * k * np.log(np.e + k) ** 0.75
    assert np.allclose(v.log_multiplier(k), expect)
    # kappa = 1 degenerates to the linear weight with sigma = c
    flat = ExpLogLogWeight(c=0.7, kappa=1.0)
    assert np.allclose(flat.log_multiplier(k), 0.7 * k)
    with pytest.raises(ValueError):
        ExpLinearWeight(-0.1)
    with pytest.raises(ValueError):
        ExpLogLogWeight(0.3, 1.5)


def test_weighted_norm_single_mode():
    g = GridSpec(1, 64, 2 * np.pi)
    f = single_mode(g, (3,), amplitude=0.25)
    got = weighted_fourier_norm(f, ExpLinearWeight(0.5))
    assert got == pytest.approx(0.25 * np.exp(0.5 * 3.0), rel=1e-13)
    assert weighted_fourier_norm(f, ExpLinearWeight(0.0)) == pytest.approx(l2_norm(f))


def test_weighted_norm_survives_extreme_exponents():
    """A weight of e^(300|k|) against coefficients e^(-400|k|) overflows any
    naive w^2*|c|^2 evaluation but has a finite, computable value."""
    g = GridSpec(1, 128, 2 * np.pi)
    coeffs = np.exp(-400.0 * g.k_mag).astype(complex)
    f = SpectralField(g, coeffs)
    got = weighted_fourier_norm(f, ExpLinearWeight(300.0))
    # stable reference accumulated in the log domain
    terms = 2.0 * (300.0 * g.k_mag - 400.0 * g.k_mag)
    ref = np.exp(0.5 * np.logaddexp.reduce(terms))
    assert np.isfinite(got)
    assert got == pytest.approx(ref, rel=1e-12)


def test_strip_norm_single_mode_closed_form():
    # largest sampled radius is sigma*(1 - 1/(2*y_samples)); a single mode
    # turns the max into a closed form
    g = GridSpec(1, 64, 2 * np.pi)
    f = single_mode(g, (3,), amplitude=0.7)
    for y_samples in (8, 64):
        r_max = 0.8 * (1.0 - 0.5 / y_samples)
        got = strip_sup_norm(f, 0.8, y_samples=y_samples)
        assert got == pytest.approx(0.7 * np.exp(3.0 * r_max), rel=1e-12)
    assert strip_sup_norm(f, 0.0) == pytest.approx(l2_norm(f))


def test_strip_shift_matches_direct_multiplier():
    g = GridSpec(2, 32, 2 * np.pi)
    rng = make_generator(11, "strip-shift")
    f = random_band_limited(g, rng, band=6.0)
    y = np.array([0.21, -0.05])
    kx, ky = g.k_axes
    boosted = f.coeffs * np.exp(y[0] * kx + y[1] * ky)
    assert strip_shift_norm(f, y) == pytest.approx(np.linalg.norm(boosted), rel=1e-13)
    with pytest.raises(ValueError):
        strip_shift_norm(f, [0.1])


@pytest.mark.parametrize("dim,n,band", [(1, 128, 14.0), (2, 32, 6.0)])
def test_strip_weighted_sandwich(dim, n, band):
    """strip(sigma) <= weighted(sigma) and weighted(sigma/2) <= 2*strip(sigma)
    on random band-limited fields, the two-sided comparison the rest of the
    package leans on."""
    g = GridSpec(dim, n, 2 * np.pi)
    sigma = 0.5
    w_full = ExpLinearWeight(sigma)
    w_half = ExpLinearWeight(sigma / 2.0)
    for i in range(25):
        rng = make_generator(220, "sandwich", i)
        f = random_band_limited(g, rng, band=band)
        strip = strip_sup_norm(f, sigma)
        assert strip <= weighted_fourier_norm(f, w_full) * (1.0 + 1e-12)
        assert weighted_fourier_norm(f, w_half) <= 2.0 * strip * (1.0 + 1e-12)


def test_derivative_sup_exact_on_cosine():
    # mode 1 on a multiple-of-4 grid hits the extrema of every derivative;
    # a coarse grid keeps the Nyquist noise amplification of high orders
    # far below the tolerance
    g = GridSpec(1, 16, 2 * np.pi)
    x = g.x_axes[0]
    samples = 0.3 * np.cos(x)
    for order in range(7):
        assert derivative_sup(g, samples, (order,)) == pytest.approx(0.3, rel=1e-7)
    g2 = GridSpec(2, 32, 2 * np.pi)
    xx, yy = g2.x_axes
    samples2 = np.cos(xx) * np.cos(2 * yy)
    assert derivative_sup(g2, samples2, (1, 2)) == pytest.approx(4.0, rel=1e-7)


def _derivative_sup_reference(g, samples, alpha):
    """Per-multi-index oracle: a fresh forward transform for every alpha."""
    hat = np.fft.fftn(np.asarray(samples, dtype=float))
    for a_j, k_j in zip(alpha, g.k_axes):
        if a_j:
            hat = hat * (1j * k_j) ** a_j
    return float(np.max(np.abs(np.fft.ifftn(hat).real)))


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 32)])
def test_derivative_sup_batched_matches_per_alpha(dim, n):
    g = GridSpec(dim, n, 2 * np.pi)
    samples = make_generator(31, "batched-derivative", dim).standard_normal(g.shape)
    if dim == 1:
        alphas = [(m,) for m in range(9)]
    else:
        alphas = [(m - j, j) for m in range(7) for j in range(m + 1)]
    sups = derivative_sup(g, samples, alphas)
    assert isinstance(sups, np.ndarray) and sups.shape == (len(alphas),)
    single = [derivative_sup(g, samples, alpha) for alpha in alphas]
    assert all(isinstance(v, float) for v in single)
    reference = [_derivative_sup_reference(g, samples, alpha) for alpha in alphas]
    assert sups.tolist() == single == reference
    assert derivative_sup(g, samples, np.array(alphas)).tolist() == reference
    with pytest.raises(ValueError):
        derivative_sup(g, samples, (1,) * (dim + 1))
    with pytest.raises(ValueError):
        derivative_sup(g, samples, [(1,) * (dim + 1)] * 3)


def test_asigma_order_sums_cosine():
    """For a = A*cos(x) the order-m term is A*sigma^m/m!, so the truncated
    norm converges to A*e^sigma from below (up to differentiation noise)."""
    g = GridSpec(1, 16, 2 * np.pi)
    a = builtin_coefficient("cosine", g, amplitude=0.5, mode=1)
    sigma = 0.8
    sums = asigma_order_sums(a, 0.0, sigma, alpha_max=8)
    expect = np.array([0.5 * sigma**m / factorial(m) for m in range(9)])
    assert np.allclose(sums, expect, rtol=1e-5)
    total = asigma_norm(a, 0.0, sigma, alpha_max=8)
    assert total == pytest.approx(0.5 * np.exp(sigma), rel=1e-4)
    assert total <= 0.5 * np.exp(sigma) * (1.0 + 1e-6)
    # nondecreasing in the truncation order
    assert asigma_norm(a, 0.0, sigma, alpha_max=4) <= total


def test_restricted_l2_matches_masked_quadrature():
    g = GridSpec(1, 64, 2 * np.pi)
    rng = make_generator(57, "restricted")
    samples = rng.standard_normal(64)
    f = transform(g, samples)
    ind = np.zeros(64, dtype=bool)
    ind[5:20] = True
    ref = np.sqrt(np.sum(samples[ind] ** 2) * g.dx)
    assert restricted_l2(f, ind) == pytest.approx(ref, rel=1e-12)
    assert restricted_l2(f, ind) <= l2_norm(f)
    assert restricted_l2(f, np.ones(64, dtype=bool)) == pytest.approx(l2_norm(f), rel=1e-12)
    with pytest.raises(ValueError):
        restricted_l2(f, np.ones(32, dtype=bool))


def test_weighted_l2_polynomial_weight():
    g = GridSpec(1, 64, 8.0)
    rng = make_generator(58, "poly-weight")
    samples = rng.standard_normal(64)
    f = transform(g, samples)
    xc = g.x_centered_axes[0]
    ref = np.sqrt(np.sum(samples**2 * (1.0 + xc**2) ** 1.5) * g.dx)
    assert weighted_l2(f, 1.5) == pytest.approx(ref, rel=1e-12)
    assert weighted_l2(f, 0.0) == pytest.approx(l2_norm(f), rel=1e-12)


def test_smoothing_gain_closed_form():
    """sup_r exp(r - r^s) is attained at r = s^(-1/(s-1)) with value
    exp(r*(1 - 1/s)); a brute-force scan over r must agree."""
    r = np.linspace(0.0, 10.0, 200001)
    for s in (1.2, 1.5, 2.0, 3.0):
        r_star = s ** (-1.0 / (s - 1.0))
        exact = np.exp(r_star * (1.0 - 1.0 / s))
        assert smoothing_gain_constant(s) == pytest.approx(exact, rel=1e-12)
        scanned = float(np.max(np.exp(r - r**s)))
        assert scanned <= smoothing_gain_constant(s) * (1.0 + 1e-14)
        assert scanned == pytest.approx(smoothing_gain_constant(s), rel=1e-9)
    with pytest.raises(ValueError):
        smoothing_gain_constant(1.0)


def _pair_batch(g):
    f = random_band_limited(g, make_generator(613, "batch"), band=6.0)
    return SpectralField(g, np.stack([f.coeffs, 2.0 * f.coeffs]))


def test_l2_norm_refuses_a_batch():
    with pytest.raises(ValueError, match="batch"):
        l2_norm(_pair_batch(GridSpec(1, 32, 2 * np.pi)))


def test_restricted_l2_refuses_a_batch():
    g = GridSpec(2, 16, 2 * np.pi)
    with pytest.raises(ValueError, match="batch"):
        restricted_l2(_pair_batch(g), np.ones(g.shape, dtype=bool))


def test_weighted_fourier_norm_refuses_a_batch():
    with pytest.raises(ValueError, match="batch"):
        weighted_fourier_norm(_pair_batch(GridSpec(1, 32, 2 * np.pi)), ExpLinearWeight(0.5))
