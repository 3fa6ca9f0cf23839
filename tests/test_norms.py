"""Norm and weight tests.

The strip norm and the exponentially weighted Fourier norm admit closed
forms on single modes, which pins the discretization conventions (cell
centered radii, weight applied to |c| not |c|^2).  The sandwich between the
two is the property the acceptance suite measures at scale; here it runs on
small grids in both dimensions.
"""

import tracemalloc

import numpy as np
import pytest

from fracheatlab.spectral import GridSpec, SpectralField, inverse, transform
from fracheatlab.ensembles import random_band_limited, single_mode
from fracheatlab.rng import make_generator
from fracheatlab.norms import (
    ExpLinearWeight,
    ExpLogLogWeight,
    l2_norm,
    weighted_fourier_norm,
    strip_sup_norm,
    derivative_sup,
    restricted_l2,
    _multi_indices,
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


def strip_shift_norm(field, y) -> float:
    """Oracle: L2 norm of the field shifted by one imaginary displacement y,
    i.e. the Fourier multiplier exp(y.k) applied before taking l2."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    grid = field.grid
    if y.shape != (grid.dim,):
        raise ValueError(f"shift must have {grid.dim} components, got {y.shape}")
    dot = sum(yj * kj for yj, kj in zip(y, grid.k_axes))
    return float(np.sqrt(np.sum(np.exp(2.0 * dot) * np.abs(field.coeffs) ** 2)))


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


@pytest.mark.parametrize("dim,n,y_samples", [(1, 64, 16), (2, 32, 12)])
def test_strip_sup_norm_is_max_of_shifted_norms(dim, n, y_samples):
    """strip_sup_norm is the largest one-shift norm over the documented
    displacement grid: cell-centered radii times two directions in 1D or
    y_samples uniform angles in 2D."""
    g = GridSpec(dim, n, 2 * np.pi)
    f = random_band_limited(g, make_generator(12, "strip-grid", dim), band=5.0)
    sigma = 0.6
    radii = sigma * (np.arange(y_samples) + 0.5) / y_samples
    if dim == 1:
        dirs = [(1.0,), (-1.0,)]
    else:
        ang = 2 * np.pi * np.arange(y_samples) / y_samples
        dirs = list(zip(np.cos(ang), np.sin(ang)))
    oracle = max(strip_shift_norm(f, r * np.asarray(u)) for u in dirs for r in radii)
    assert strip_sup_norm(f, sigma, y_samples=y_samples) == pytest.approx(oracle, rel=1e-13)


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


def _explicit_multi_indices(dim, alpha_max):
    """The per-dimension multi-index lists, as an oracle for their order."""
    if dim == 1:
        return [(order,) for order in range(alpha_max + 1)]
    return [(order - j, j) for order in range(alpha_max + 1) for j in range(order + 1)]


@pytest.mark.parametrize("dim", [1, 2])
def test_multi_indices_match_explicit_construction(dim):
    for alpha_max in (0, 1, 2, 7, 12, 170):
        alphas = _multi_indices(dim, alpha_max)
        assert alphas == _explicit_multi_indices(dim, alpha_max)
        assert all(type(a_j) is int for alpha in alphas for a_j in alpha)


def _derivative_sup_by_dimension(g, samples, alphas):
    """The per-dimension separable inverse on the half spectrum, written out
    for 1D and 2D separately: in 2D one partial inverse along axis 0 per
    first order, whose Nyquist row takes Re((i k_N)^a) in the paired columns,
    then one real inverse along the last axis per alpha."""
    n, half = g.n, g.n // 2 + 1
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=g.dx)
    k_last = k[:half] if g.dim == 1 else k[None, :half]
    hat0 = np.fft.fftn(np.asarray(samples, dtype=float))[..., :half]
    sups = []
    for alpha in alphas:
        part = hat0
        if g.dim == 2:
            mult = (1j * k[:, None]) ** alpha[0]
            part = hat0 * mult
            part[n // 2, 1:-1] = hat0[n // 2, 1:-1] * mult[n // 2].real
            part = np.fft.ifftn(part, axes=(0,))
        b = alpha[-1]
        deriv = np.fft.irfft(part * (1j * k_last) ** b if b else part, n=n, axis=-1)
        sups.append(float(np.max(np.abs(deriv))))
    return sups


def _derivative_sup_reference(g, samples, alpha):
    """Per-multi-index oracle: a fresh forward transform and a full inverse
    for every alpha."""
    hat = np.fft.fftn(np.asarray(samples, dtype=float))
    for a_j, k_j in zip(alpha, g.k_axes):
        if a_j:
            hat = hat * (1j * k_j) ** a_j
    return float(np.max(np.abs(np.fft.ifftn(hat).real)))


_BATCHED_CASES = [
    pytest.param(1, 64, 8, "noise", id="1-64"),
    pytest.param(2, 32, 6, "noise", id="2-32"),
    # the Nyquist row and corner carry O(1) weight: a wrong Nyquist rule on
    # the half spectrum shows here at odd orders
    pytest.param(2, 16, 12, "noise", id="2-16"),
    # analytic samples up to the noise-dominated orders
    pytest.param(2, 64, 12, "fourier_decay", id="2-64-fourier_decay"),
]


@pytest.mark.parametrize("dim,n,order,source", _BATCHED_CASES)
def test_derivative_sup_batched_matches_per_alpha(dim, n, order, source):
    g = GridSpec(dim, n, 2 * np.pi)
    if source == "noise":
        samples = make_generator(31, "batched-derivative", dim).standard_normal(g.shape)
    else:
        samples = builtin_coefficient(source, g).sample(0.0)
    alphas = _multi_indices(dim, order)
    sups = derivative_sup(g, samples, alphas)
    assert isinstance(sups, np.ndarray) and sups.shape == (len(alphas),)
    single = [derivative_sup(g, samples, alpha) for alpha in alphas]
    assert all(isinstance(v, float) for v in single)
    assert sups.tolist() == single
    assert derivative_sup(g, samples, np.array(alphas)).tolist() == single
    assert single == _derivative_sup_by_dimension(g, samples, alphas)
    # the separable inverse rounds differently from one full inverse
    reference = np.array([_derivative_sup_reference(g, samples, alpha) for alpha in alphas])
    orders = np.array([sum(alpha) for alpha in alphas])
    if source == "noise":
        np.testing.assert_allclose(sups, reference, rtol=1e-13, atol=0.0)
    else:
        low = orders <= 4
        np.testing.assert_allclose(sups[low], reference[low], rtol=1e-13, atol=0.0)
        # past order 4 the analytic samples sit at the conditioning floor:
        # bound the gap by verify_class's own noise allowance
        allowance = (8.0 * g.n**dim * np.finfo(float).eps * np.max(np.abs(samples))
                     * g.nyquist_axis ** orders[~low])
        assert np.all(np.abs(sups[~low] - reference[~low]) <= allowance)
    with pytest.raises(ValueError):
        derivative_sup(g, samples, (1,) * (dim + 1))
    with pytest.raises(ValueError):
        derivative_sup(g, samples, [(1,) * (dim + 1)] * 3)
    with pytest.raises(ValueError):
        derivative_sup(g, samples, [(0,) * dim, (-1,) * dim])


@pytest.mark.parametrize("dim,n,order,source", _BATCHED_CASES)
def test_derivative_sup_from_a_given_half_spectrum_is_bit_identical(dim, n, order, source):
    """A caller's half spectrum replaces the forward transform and leaves
    every sup the same bits, batched and per multi-index; a spectrum of
    another shape is refused."""
    g = GridSpec(dim, n, 2 * np.pi)
    if source == "noise":
        samples = make_generator(31, "batched-derivative", dim).standard_normal(g.shape)
    else:
        samples = builtin_coefficient(source, g).sample(0.0)
    half = np.fft.fftn(samples)[..., : n // 2 + 1]
    alphas = _multi_indices(dim, order)
    given = derivative_sup(g, samples, alphas, half_spectrum=half)
    assert given.tolist() == derivative_sup(g, samples, alphas).tolist()
    assert [derivative_sup(g, samples, alpha, half_spectrum=half) for alpha in alphas] == (
        given.tolist())
    with pytest.raises(ValueError, match="half_spectrum"):
        derivative_sup(g, samples, alphas, half_spectrum=np.fft.fftn(samples))


def test_derivative_sup_shares_one_partial_inverse_per_first_order(monkeypatch):
    calls = []
    for name in ("fftn", "ifftn", "irfft"):
        original = getattr(np.fft, name)

        def counted(x, *args, _name=name, _original=original, **kwargs):
            calls.append((_name, kwargs.get("axes", kwargs.get("axis"))))
            return _original(x, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    g = GridSpec(2, 16, 2 * np.pi)
    samples = make_generator(32, "derivative-count").standard_normal(g.shape)
    derivative_sup(g, samples, _multi_indices(2, 12))
    assert calls.count(("fftn", None)) == 1
    assert calls.count(("ifftn", (0,))) == 13
    assert calls.count(("irfft", -1)) == 91
    assert len(calls) == 1 + 13 + 91


def test_derivative_sup_refuses_complex_samples():
    g = GridSpec(1, 16, 2 * np.pi)
    samples = np.cos(g.x_axes[0]) + 1j * np.sin(g.x_axes[0])
    with pytest.raises(ValueError, match="complex128"):
        derivative_sup(g, samples, (1,))
    with pytest.raises(ValueError, match="complex"):
        derivative_sup(g, samples.real.astype(np.complex64), [(0,), (1,)])


def test_derivative_sup_holds_one_partial_inverse_at_a_time():
    g = GridSpec(2, 128, 2 * np.pi)
    samples = make_generator(33, "derivative-memory").standard_normal(g.shape)
    alphas = _multi_indices(2, 12)
    # a first call may import lazily loaded numpy modules; keep that out
    derivative_sup(GridSpec(2, 8, 2 * np.pi), samples[:8, :8], alphas)
    tracemalloc.start()
    try:
        derivative_sup(g, samples, alphas)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * samples.size * np.dtype(complex).itemsize


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


def _pair_batch(g):
    f = random_band_limited(g, make_generator(613, "batch"), band=6.0)
    return SpectralField(g, np.stack([f.coeffs, 2.0 * f.coeffs]))


def _member_batch(g, ind):
    """Three members: a band-limited field, twice it, and a field whose
    samples vanish on the set."""
    rng = make_generator(613, "member-batch", g.dim)
    f = random_band_limited(g, rng, band=6.0)
    off = transform(g, np.where(ind, 0.0, rng.standard_normal(g.shape)))
    return SpectralField(g, np.stack([f.coeffs, 2.0 * f.coeffs, off.coeffs]))


def _batch_cases():
    g1 = GridSpec(1, 32, 2 * np.pi)
    ind1 = np.zeros(g1.shape, dtype=bool)
    ind1[5:20] = True
    g2 = GridSpec(2, 16, 2 * np.pi)
    ind2 = make_generator(614, "member-set").random(g2.shape) < 0.4
    return [(g1, ind1), (g2, ind2)]


def test_l2_norm_batch_equals_member_calls():
    for g, ind in _batch_cases():
        batch = _member_batch(g, ind)
        # np.linalg.norm of each member is the oracle, bit for bit
        want = [float(np.linalg.norm(c)) for c in batch.coeffs]
        singles = [l2_norm(SpectralField(g, c)) for c in batch.coeffs]
        assert all(type(w) is float for w in singles) and singles == want
        got = l2_norm(batch)
        assert isinstance(got, np.ndarray) and got.shape == (3,)
        assert got.tolist() == want


def test_restricted_l2_batch_equals_member_calls():
    for g, ind in _batch_cases():
        batch = _member_batch(g, ind)
        want = [restricted_l2(SpectralField(g, c), ind) for c in batch.coeffs]
        assert all(type(w) is float for w in want)
        got = restricted_l2(batch, ind)
        assert isinstance(got, np.ndarray) and got.shape == (3,)
        assert got.tolist() == want
        # the third member vanishes on the set, up to transform round-off
        assert 0.0 < want[1] and want[2] < 1e-13 * l2_norm(batch)[2]
        with pytest.raises(ValueError, match="indicator shape"):
            restricted_l2(batch, np.ones(8, dtype=bool))


def _restricted_l2_reference(field, ind):
    """The per-member loop: one inverse per member, the boolean gather, and
    np.sum of each member's squares."""
    grid = field.grid

    def one(coeffs):
        sq = np.abs(inverse(SpectralField(grid, coeffs))[ind]) ** 2
        return float(np.sqrt(np.sum(sq) * grid.cell_volume))

    return one(field.coeffs) if not field.batched else [one(c) for c in field.coeffs]


@pytest.mark.parametrize("members", [None, 1, 3, 40])
@pytest.mark.parametrize("kind", ["empty", "random", "full"])
@pytest.mark.parametrize("dim", [1, 2])
def test_restricted_l2_equals_per_member_reference(dim, kind, members):
    # the batch's one reduction must gather the set C-ordered: each row then
    # sums pairwise like np.sum of one member, while the F-ordered result of
    # a boolean gather x[..., ind] sums each row sequentially and differs
    # from the reference in the last bits
    g = GridSpec(dim, 32 if dim == 1 else 16, 2 * np.pi)
    rng = make_generator(615, f"reference-{kind}", dim)
    ind = {"empty": np.zeros(g.shape, dtype=bool), "full": np.ones(g.shape, dtype=bool),
           "random": rng.random(g.shape) < 0.4}[kind]
    shape = g.shape if members is None else (members, *g.shape)
    field = SpectralField(g, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    got = restricted_l2(field, ind)
    want = _restricted_l2_reference(field, ind)
    if members is None:
        assert type(got) is float and got == want
    else:
        assert isinstance(got, np.ndarray) and got.tolist() == want
    if kind == "empty":
        assert not np.any(got)


def test_weighted_fourier_norm_refuses_a_batch():
    with pytest.raises(ValueError, match="batch"):
        weighted_fourier_norm(_pair_batch(GridSpec(1, 32, 2 * np.pi)), ExpLinearWeight(0.5))


def test_strip_sup_norm_refuses_a_batch():
    for sigma in (0.0, 0.5):
        with pytest.raises(ValueError, match="batch"):
            strip_sup_norm(_pair_batch(GridSpec(1, 32, 2 * np.pi)), sigma)
