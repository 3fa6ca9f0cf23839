"""Measured inequality constants.

The restriction constant has an independent oracle: sample every band mode
explicitly, form the restricted Gram by direct matrix multiplication, and
take the smallest eigenvalue with a dense solver.  The FFT-indexed
implementation must agree to near machine precision, and its real
cosine/sine-basis Gram must give the sampled Gram's quadratic form on random
complex vectors.  The telescoping and
lift constants are checked against their defining identities, and the
pinned values the rest of the package relies on are frozen here.
"""

import tracemalloc

import numpy as np
import pytest

from fracheatlab.spectral import GridSpec, SpectralField, inverse, project
from fracheatlab.norms import l2_norm, restricted_l2
from fracheatlab.ensembles import random_analytic_decay, random_band_limited, single_mode
from fracheatlab.rng import make_generator
from fracheatlab.thick_sets import ThickSet, build_set
from fracheatlab.coefficients import builtin_coefficient
from fracheatlab.solver import simulate
from fracheatlab.acceptance import _telescope_series
from fracheatlab.inequality_lab import (
    ThinSetError,
    InsufficientDecayError,
    _band_modes,
    _gram_factor,
    _interp_pairs,
    _restriction_gram,
    _shell_maxima,
    _shrink,
    _worst_log_ratio,
    ls_constant,
    ls_growth_fit,
    radius_estimate,
    telescope_constant,
    spacetime_lift,
    observability_experiment,
    smallest_log_affine_dominator,
)


def _dense_gram(obs, band):
    """Band modes in lexicographic order and their complex Gram on obs, by
    explicit mode sampling; no FFT, no shared code with the implementation."""
    g = obs.grid
    half = g.n // 2
    unit = 2 * np.pi / g.period
    if g.dim == 1:
        ms = [(m,) for m in range(-half, half) if abs(m) * unit <= band + 1e-12]
    else:
        ms = [
            (mx, my)
            for mx in range(-half, half)
            for my in range(-half, half)
            if np.hypot(mx, my) * unit <= band + 1e-12
        ]
    pts = np.argwhere(obs.indicator)
    rows = []
    for m in ms:
        phase = np.zeros(len(pts))
        for d in range(g.dim):
            phase = phase + m[d] * pts[:, d]
        rows.append(np.exp(2j * np.pi * phase / g.n))
    B = np.array(rows)
    return ms, (B @ B.conj().T) * g.dx**g.dim / g.volume


def _dense_ls_oracle(obs, band):
    """Restriction constant from the explicitly sampled Gram."""
    lam = np.linalg.eigvalsh(_dense_gram(obs, band)[1])[0]
    return 1.0 / lam


def test_ls_constant_full_torus_is_one():
    for dim, n in ((1, 64), (2, 16)):
        g = GridSpec(dim, n, 1.0)
        full = build_set("full", g, scale=0.25)
        for band in (0.0, 20.0, 40.0):
            assert ls_constant(full, band) == pytest.approx(1.0, abs=1e-10)


def test_ls_constant_matches_dense_oracle_1d():
    g = GridSpec(1, 32, 1.0)
    obs = build_set("periodic_slab", g, scale=0.25, fraction=0.5)
    for band in (0.0, 10.0, 30.0, 50.0):
        impl = ls_constant(obs, band)
        assert impl == pytest.approx(_dense_ls_oracle(obs, band), rel=1e-10)
    # the zero band sees only the mean: C = 1/volume fraction exactly
    assert ls_constant(obs, 0.0) == pytest.approx(2.0, abs=1e-12)


def test_ls_constant_matches_dense_oracle_2d():
    g = GridSpec(2, 16, 1.0)
    rng = make_generator(501, "ls2d")
    ind = rng.random((16, 16)) < 0.6
    ind[0, 0] = True
    obs = ThickSet.from_indicator(g, ind, 0.25)
    for band in (0.0, 10.0, 25.0):
        impl = ls_constant(obs, band)
        assert impl == pytest.approx(_dense_ls_oracle(obs, band), rel=1e-9)


def test_ls_constant_certifies_random_band_limited_fields():
    # the returned constant is a true bound for concrete fields, sharp in
    # the sense that some field comes close
    g = GridSpec(1, 32, 1.0)
    obs = build_set("periodic_slab", g, scale=0.5, fraction=0.5)
    band = 40.0
    c = ls_constant(obs, band)
    worst = 0.0
    for i in range(200):
        f = random_band_limited(g, make_generator(502, "certify", i), band=band)
        full = l2_norm(f) ** 2
        seen = restricted_l2(f, obs) ** 2
        ratio = full / seen
        assert ratio <= c * (1.0 + 1e-9)
        worst = max(worst, ratio)
    assert worst > 1.0


def test_ls_constant_grows_when_points_are_removed():
    g = GridSpec(1, 32, 1.0)
    rng = np.random.default_rng(5)
    ind = np.ones(32, dtype=bool)
    ind[rng.choice(32, 10, replace=False)] = False
    big = ThickSet.from_indicator(g, ind, 0.5)
    ind2 = ind.copy()
    ind2[np.flatnonzero(ind2)[:4]] = False
    small = ThickSet.from_indicator(g, ind2, 0.5)
    assert ls_constant(small, 40.0) > ls_constant(big, 40.0)


def test_thin_set_raises():
    # 19 modes against 16 observation points: the Gram loses rank
    g = GridSpec(1, 32, 1.0)
    obs = build_set("periodic_slab", g, scale=0.25, fraction=0.5)
    with pytest.raises(ThinSetError):
        ls_constant(obs, 60.0)
    with pytest.raises(ValueError):
        ls_constant(obs, -1.0)
    with pytest.raises(ValueError):
        ls_constant(obs, 1e6)  # beyond the lattice Nyquist


def test_ls_growth_fit_skips_thin_bands():
    g = GridSpec(1, 32, 1.0)
    obs = build_set("periodic_slab", g, scale=0.25, fraction=0.5)
    rep = ls_growth_fit(obs, [0.0, 10.0, 20.0, 30.0, 40.0, 60.0, 80.0])
    assert rep.statuses[-1] == "too_thin"
    assert rep.statuses[-2] == "too_thin"
    assert all(s == "ok" for s in rep.statuses[:-2])
    bands, consts = rep.resolved()
    assert len(bands) == 5
    assert np.all(np.diff(consts) >= -1e-9)  # nondecreasing in the band
    assert np.isfinite(rep.slope) and rep.slope > 0.0


def _random_set(grid, fraction, stream):
    """A random set holding the first grid point and missing the last."""
    rng = make_generator(504, stream)
    ind = rng.random(grid.shape) < fraction
    ind.flat[0], ind.flat[-1] = True, False
    return ThickSet.from_indicator(grid, ind, 0.25)


def test_ls_constant_matches_dense_oracle_at_nyquist():
    # band = nyquist_radius takes every lattice mode, the self-conjugate
    # ones with a -n/2 component included, so only the full torus stays
    # observable; in 2D the axis Nyquist band adds (-n/2, 0) and (0, -n/2)
    # without the corner
    for dim, n in ((1, 16), (2, 8)):
        g = GridSpec(dim, n, 1.0)
        full = build_set("full", g, scale=0.25)
        assert ls_constant(full, g.nyquist_radius) == pytest.approx(
            _dense_ls_oracle(full, g.nyquist_radius), rel=1e-10
        )
        with pytest.raises(ThinSetError):
            ls_constant(_random_set(g, 0.9, f"thin{dim}"), g.nyquist_radius)
    g1 = GridSpec(1, 16, 1.0)
    obs1 = _random_set(g1, 1.0, "below1d")  # every point but the last
    band = g1.nyquist_axis - 2 * np.pi  # every mode but -n/2
    assert ls_constant(obs1, band) == pytest.approx(_dense_ls_oracle(obs1, band), rel=1e-10)
    g2 = GridSpec(2, 8, 1.0)
    obs2 = _random_set(g2, 0.97, "axis2d")
    for band in (g2.nyquist_axis, 0.5 * (g2.nyquist_axis + g2.nyquist_radius)):
        impl = ls_constant(obs2, band)
        assert impl == pytest.approx(_dense_ls_oracle(obs2, band), rel=1e-10)


@pytest.mark.parametrize("dim, kind, params", [
    (1, "periodic_slab", {"scale": np.pi / 8, "fraction": 0.75}),
    (2, "periodic_slab", {"scale": np.pi / 4, "fraction": 0.75}),
    (2, "complement_of_ball", {"scale": np.pi / 2, "radius": 2.0}),
])
def test_ls_constant_matches_dense_oracle_on_symmetric_sets(dim, kind, params):
    # a reflection-symmetric set splits the Gram into invariant blocks, and
    # the minimizer can sit in a block that a symmetric Lanczos start never
    # reaches: from all ones, the slabs read C a third too low
    g = GridSpec(dim, 64 if dim == 1 else 32, 2 * np.pi)
    obs = build_set(kind, g, **params)
    checked = 0
    for band in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0):
        oracle = _dense_ls_oracle(obs, band)
        if not 0.0 < oracle <= 1e6:
            continue
        assert ls_constant(obs, band) == pytest.approx(oracle, rel=1e-10)
        checked += 1
    assert checked >= 4


def test_ls_constant_statuses_match_dense_solve_on_an_ill_conditioned_slab():
    # Cholesky plus Lanczos against a dense eigvalsh of the same Gram, up to
    # C ~ 1e13 and past the thin floor: round-off of order C*eps apart
    g = GridSpec(1, 1024, 2 * np.pi)
    obs = build_set("periodic_slab", g, scale=np.pi / 8, fraction=0.25)
    compared = 0
    for band in np.arange(4.0, 125.0, 12.0):
        lam = np.linalg.eigvalsh(_restriction_gram(obs, band))[0]
        try:
            c = ls_constant(obs, band)
        except ThinSetError:
            assert lam <= 1e-13, band
            continue
        assert lam > 1e-13, band
        if 1.0 / lam <= 1e11:
            assert c == pytest.approx(1.0 / lam, rel=1e-5)
            compared += 1
    assert compared >= 5


def test_cholesky_failure_raises_thin_set_error():
    # 25 modes against 16 observation points: the factorization breaks down
    import scipy.linalg
    g = GridSpec(1, 32, 1.0)
    obs = build_set("periodic_slab", g, scale=0.25, fraction=0.5)
    with pytest.raises(np.linalg.LinAlgError):
        scipy.linalg.cho_factor(_restriction_gram(obs, 80.0), lower=True)
    with pytest.raises(ThinSetError):
        ls_constant(obs, 80.0)


def test_ls_constant_reruns_bit_identical():
    g = GridSpec(2, 64, 2 * np.pi)
    obs = build_set("random_per_cell", g, scale=np.pi / 4, fraction=0.3, seed=3)
    first = [ls_constant(obs, band) for band in (4.0, 8.0, 12.0)]
    assert [ls_constant(obs, band) for band in (4.0, 8.0, 12.0)] == first


@pytest.mark.parametrize("dim, n, period, kind, params, bands", [
    # the ls-scan-2d benchmark set on a coarser grid: bands 20-28 do not factor
    (2, 64, 2 * np.pi, "random_per_cell", {"scale": np.pi / 4, "fraction": 0.3, "seed": 0},
     np.arange(4.0, 29.0, 4.0)),
    # bands 80-92 factor but sit below the thin floor, and 96-128 do not factor
    (1, 1024, 2 * np.pi, "periodic_slab", {"scale": np.pi / 8, "fraction": 0.25},
     np.arange(4.0, 129.0, 4.0)),
    # the 2D ls-scan defaults at n=32: bands 0-48 are ok, 52-64 do not factor
    (2, 32, 1.0, "periodic_slab", {"scale": 0.5, "fraction": 0.5}, np.arange(0.0, 65.0, 4.0)),
])
def test_ls_growth_fit_matches_dense_oracle_per_band(dim, n, period, kind, params, bands):
    # one factor of the largest band's Gram against a dense eigensolve of
    # every band's own sampled Gram: the same statuses, and the constants to
    # round-off of order C*eps
    obs = build_set(kind, GridSpec(dim, n, period), **params)
    rep = ls_growth_fit(obs, bands)
    assert 0 < rep.factored_modes < rep.gram_modes
    # the leading block the scan reads is a true Cholesky factor
    lower, factored = _gram_factor(obs, bands[-1])
    gram = _restriction_gram(obs, bands[-1])[:factored, :factored]
    lower = np.tril(lower[:factored, :factored])
    assert factored == rep.factored_modes and np.all(np.diag(lower) > 0)
    assert np.max(np.abs(lower @ lower.T - np.tril(gram) - np.tril(gram, -1).T)) <= 1e-12
    compared = 0
    for band, status, c in zip(rep.bands, rep.statuses, rep.constants):
        ms, dense = _dense_gram(obs, band)
        lam = np.linalg.eigvalsh(dense)[0]
        assert status == ("ok" if lam > 1e-13 else "too_thin"), band
        if status == "ok" and 1.0 / lam <= 1e11:
            assert c == pytest.approx(1.0 / lam, rel=1e-5), band
            compared += 1
    assert compared >= 4 and rep.gram_modes == len(ms)


@pytest.mark.parametrize("dim", [1, 2])
def test_restriction_gram_is_the_leading_block_of_a_larger_bands(dim, monkeypatch):
    # n/2 odd and even; a narrow column chunk splits every Gram differently
    # and must not change a bit
    for n in (16, 18):
        g = GridSpec(dim, n, 2 * np.pi)
        ind = make_generator(507, f"prefix{dim}_{n}").random(g.shape) < 0.6
        obs = ThickSet.from_indicator(g, ind, 2 * g.dx)
        bands = (0.0, 1.0, 2.5, 3.0, g.nyquist_axis / 2, g.nyquist_axis, g.nyquist_radius)
        grams = [_restriction_gram(obs, band).view(np.uint64) for band in bands]
        for i, small in enumerate(grams):
            size = len(small)
            for big in grams[i + 1:]:
                assert np.array_equal(small, big[:size, :size]), (n, bands[i])
        monkeypatch.setattr("fracheatlab.inequality_lab._GRAM_CHUNK", 3 * n)
        for band, gram in zip(bands, grams):
            assert np.array_equal(_restriction_gram(obs, band).view(np.uint64), gram)
        monkeypatch.undo()


def test_ls_growth_fit_takes_unsorted_and_repeated_bands():
    obs = build_set("periodic_slab", GridSpec(1, 32, 1.0), scale=0.25, fraction=0.5)
    ref = ls_growth_fit(obs, [0.0, 10.0, 10.0, 20.0, 40.0, 60.0])
    rep = ls_growth_fit(obs, [60.0, 10.0, 40.0, 0.0, 20.0, 10.0])
    assert ref.statuses[-1] == "too_thin" and ref.constants[1] == ref.constants[2]
    assert np.array_equal(rep.bands, ref.bands)
    assert np.array_equal(rep.constants, ref.constants, equal_nan=True)
    assert (rep.statuses, rep.gram_modes, rep.factored_modes) == (
        ref.statuses, ref.gram_modes, ref.factored_modes)
    assert [rep.slope, rep.intercept, rep.residual_rms] == [
        ref.slope, ref.intercept, ref.residual_rms]
    with pytest.raises(ValueError, match="nonnegative"):
        ls_growth_fit(obs, [10.0, -1.0, 20.0])
    with pytest.raises(ValueError, match="Nyquist"):
        ls_growth_fit(obs, [10.0, 1e6])
    # a factor must hold the band: a smaller band's is refused, not too_thin
    with pytest.raises(ValueError, match="cannot hold"):
        ls_constant(obs, 20.0, _gram_factor(obs, 10.0))


def test_shrink_leaves_each_leading_block_in_the_factors_buffer():
    obs = build_set("periodic_slab", GridSpec(2, 32, 1.0), scale=0.5, fraction=0.5)
    bands = (48.0, 40.0, 40.0, 24.0, 4.0, 0.0)  # one step of equal size
    buffer, _ = _gram_factor(obs, bands[0])
    whole = buffer.copy(order="F")
    lower = buffer
    for band in bands:
        size = len(_band_modes(obs.grid, band))
        lower = _shrink(lower, size)
        assert lower.shape == (size, size) and lower.flags.f_contiguous
        assert np.shares_memory(lower, buffer)
        assert np.array_equal(lower.view(np.uint64), whole[:size, :size].view(np.uint64)), band


@pytest.mark.parametrize("dim, n, period, kind, params, band", [
    (2, 64, 2 * np.pi, "random_per_cell", {"scale": np.pi / 4, "fraction": 0.3, "seed": 0}, 12.0),
    (1, 1024, 2 * np.pi, "periodic_slab", {"scale": np.pi / 8, "fraction": 0.25}, 28.0),
])
def test_triangular_solves_match_cho_solve(dim, n, period, kind, params, band, monkeypatch):
    # the inverse-Gram apply ls_constant hands to Lanczos, against LAPACK's
    import scipy.linalg
    from fracheatlab import inequality_lab
    obs = build_set(kind, GridSpec(dim, n, period), **params)
    largest, applies = inequality_lab._largest_eigenvalue, []

    def capture(apply, size):
        applies.append(apply)
        return largest(apply, size)

    monkeypatch.setattr(inequality_lab, "_largest_eigenvalue", capture)
    ls_constant(obs, band)
    lower, _ = _gram_factor(obs, band)
    rng = make_generator(525, "apply")
    for _ in range(3):
        v = rng.standard_normal(len(lower))
        before = v.copy()
        ref = scipy.linalg.cho_solve((lower, True), v)
        got = applies[0](v)
        assert np.array_equal(v, before)  # the Lanczos vector is left alone
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize("dim, n, period, kind, params, bands", [
    # CI's 2D random_per_cell run at n=32
    (2, 32, 1.0, "random_per_cell", {"scale": 0.5, "fraction": 0.5, "seed": 0},
     np.arange(0.0, 65.0, 4.0)),
    # the walk down crosses the four too_thin bands 88-124 first
    (1, 1024, 2 * np.pi, "periodic_slab", {"scale": np.pi / 8, "fraction": 0.25},
     np.arange(4.0, 125.0, 12.0)),
])
def test_ls_growth_fit_equals_per_band_calls(dim, n, period, kind, params, bands):
    # the in-place walk down reads the same blocks that per-band calls copy
    obs = build_set(kind, GridSpec(dim, n, period), **params)
    rep = ls_growth_fit(obs, bands)
    factor = _gram_factor(obs, bands[-1])
    for band, status, c in zip(rep.bands, rep.statuses, rep.constants):
        try:
            assert ls_constant(obs, band, factor) == c, band
            assert status == "ok"
        except ThinSetError:
            assert status == "too_thin" and np.isnan(c), band
        lam = np.linalg.eigvalsh(_restriction_gram(obs, band))[0]
        assert status == ("ok" if lam > 1e-13 else "too_thin"), band
    if dim == 1:
        assert rep.statuses == ("ok",) * 7 + ("too_thin",) * 4


@pytest.mark.parametrize("kind, params", [
    ("periodic_slab", {"scale": np.pi / 2, "fraction": 0.75}),
    ("random_per_cell", {"scale": np.pi / 4, "fraction": 0.3, "seed": 0}),
])
def test_band_scan_allocates_little_past_the_factor(kind, params, monkeypatch):
    # no band copies its block: the loop's peak is a small share of the Gram
    from fracheatlab import inequality_lab
    obs = build_set(kind, GridSpec(2, 32, 2 * np.pi), **params)
    gram_factor = inequality_lab._gram_factor

    def traced(obs, band):
        factor = gram_factor(obs, band)
        tracemalloc.start()
        return factor

    monkeypatch.setattr(inequality_lab, "_gram_factor", traced)
    try:
        rep = ls_growth_fit(obs, [4.0, 6.0, 8.0, 10.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.gram_modes == 317 and rep.statuses == ("ok",) * 4
    assert peak < 0.2 * rep.gram_modes**2 * 8


def _negate(m, n):
    """Lattice negation mod n: a -n/2 component stays, the others flip."""
    return tuple(c if c == -(n // 2) else -c for c in m)


def _real_basis_image(ms, n, v):
    """Coordinates w = U^H v of v on the documented real basis: the
    self-conjugate modes and the cosines (e_m + e_-m)/sqrt(2) of the
    lexicographically larger mode of each pair, and the sines
    i(e_m - e_-m)/sqrt(2), sorted by |m|^2, then by mode, cosine first."""
    at = {m: v[i] for i, m in enumerate(ms)}
    basis = sorted(
        [(sum(c * c for c in m), m, 0) for m in ms if m >= _negate(m, n)]
        + [(sum(c * c for c in m), m, 1) for m in ms if m > _negate(m, n)]
    )
    w = []
    for _, m, sine in basis:
        if m == _negate(m, n):
            w.append(at[m])
        elif sine:
            w.append(-1j * (at[m] - at[_negate(m, n)]) / np.sqrt(2))
        else:
            w.append((at[m] + at[_negate(m, n)]) / np.sqrt(2))
    return np.array(w)


def test_real_gram_quadratic_form_matches_complex_gram():
    """The real cos/sin-basis Gram is the complex Gram in an orthonormal
    basis: v^H G v = w^H G_real w for random complex v and its real-basis
    image w, which pins the orientation (G^T = conj G gives another form),
    and w is real for a real field (v(-m) = conj v(m)).  The builder writes
    the lower triangle only; the symmetric Gram is read from it."""
    rng = np.random.default_rng(505)
    for dim, n in ((1, 16), (2, 8)):
        g = GridSpec(dim, n, 1.0)
        obs = _random_set(g, 0.6, f"form{dim}")
        for band in (0.0, 0.4 * g.nyquist_axis, g.nyquist_axis, g.nyquist_radius):
            ms, gram = _dense_gram(obs, band)
            lower = _restriction_gram(obs, band)
            assert not np.triu(lower, 1).any()
            real = lower + np.tril(lower, -1).T
            assert real.dtype == np.float64 and np.array_equal(real, real.T)
            partner = [ms.index(_negate(m, n)) for m in ms]
            for _ in range(4):
                v = rng.standard_normal(len(ms)) + 1j * rng.standard_normal(len(ms))
                form = np.vdot(v, gram @ v)
                assert abs(form.imag) <= 1e-12 * abs(form)
                w = _real_basis_image(ms, n, v)
                assert np.vdot(w, real @ w).real == pytest.approx(form.real, rel=1e-12)
                if band > 0:
                    assert np.vdot(v, gram.T @ v).real != pytest.approx(form.real, rel=1e-6)
                u = 0.5 * (v + v[partner].conj())
                w = _real_basis_image(ms, n, u)
                assert np.max(np.abs(w.imag)) <= 1e-15
                assert w.real @ real @ w.real == pytest.approx(
                    np.vdot(u, gram @ u).real, rel=1e-12
                )


def _explicit_band_modes(g, band):
    """The per-dimension band-mode builder, written out for 1D and 2D
    separately, as an oracle for rows and order."""
    half = g.n // 2
    ms = np.arange(-half, half)
    unit = 2.0 * np.pi / g.period
    if g.dim == 1:
        sel = ms[np.abs(ms) * unit <= band + 1e-12]
        return sel[np.argsort(sel)][:, None]
    mx, my = np.meshgrid(ms, ms, indexing="ij")
    keep = np.sqrt(mx.astype(float) ** 2 + my**2) * unit <= band + 1e-12
    pairs = np.stack([mx[keep], my[keep]], axis=1)
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


def _explicit_shell_radius(g):
    """Integer lattice radius per coefficient, per dimension."""
    m = np.fft.fftfreq(g.n, 1.0 / g.n).astype(int)
    if g.dim == 1:
        return np.abs(m)
    mx, my = np.meshgrid(m, m, indexing="ij")
    return np.rint(np.sqrt(mx.astype(float) ** 2 + my**2)).astype(int).ravel()


@pytest.mark.parametrize("dim", [1, 2])
def test_band_modes_and_shells_match_explicit_construction(dim):
    rng = np.random.default_rng(506)
    for n in (8, 16, 34, 64):
        for period in (1.0, 2 * np.pi, 7.5):
            g = GridSpec(dim, n, period)
            unit = 2.0 * np.pi / period
            for band in (0.0, 3 * unit, 3.5 * unit, g.nyquist_axis / 2, g.nyquist_axis,
                         g.nyquist_radius):
                modes = _band_modes(g, band)
                ref = _explicit_band_modes(g, band)
                assert modes.dtype == ref.dtype and np.array_equal(modes, ref), (n, band)
            coeffs = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
            radius = _explicit_shell_radius(g)
            shell_max = np.zeros(radius.max() + 1)
            np.maximum.at(shell_max, radius, np.abs(coeffs).ravel())
            k_shell, ours = _shell_maxima(SpectralField(g, coeffs))
            assert np.array_equal(ours, shell_max)
            assert np.array_equal(k_shell, np.arange(len(shell_max)) * unit)


def test_radius_estimate_recovers_planted_decay():
    g = GridSpec(1, 256, 2 * np.pi)
    for radius in (0.4, 0.7, 1.0):
        for i in range(5):
            f = random_analytic_decay(g, make_generator(503, "rad", i), radius)
            fit = radius_estimate(f)
            assert fit.status == "ok"
            assert fit.value == pytest.approx(radius, rel=0.05)
            assert fit.n_shells >= 3
    g2 = GridSpec(2, 64, 2 * np.pi)
    f2 = random_analytic_decay(g2, make_generator(503, "rad2d"), 0.5)
    assert radius_estimate(f2).value == pytest.approx(0.5, rel=0.08)


def test_radius_estimate_scale_invariance_and_clamp():
    g = GridSpec(1, 256, 2 * np.pi)
    f = random_analytic_decay(g, make_generator(504, "scale"), 0.6)
    fit = radius_estimate(f)
    scaled = radius_estimate(SpectralField(g, f.coeffs * 1e8))
    assert scaled.value == pytest.approx(fit.value, rel=1e-12)
    # white spectrum: slope near zero, never negative
    rng = make_generator(504, "white")
    flat = SpectralField(g, np.exp(1j * rng.uniform(0, 2 * np.pi, 256)))
    assert radius_estimate(flat).value >= 0.0


def test_radius_estimate_band_limited_detection():
    g = GridSpec(1, 256, 2 * np.pi)
    f = random_analytic_decay(g, make_generator(505, "bl"), 0.5)
    cut = project(f, 20.0, side="low")
    fit = radius_estimate(cut)
    assert fit.status == "band_limited"
    assert fit.value == np.inf
    # a window entirely inside the surviving band still reads the decay
    inner = radius_estimate(cut, window=(2.0, 15.0))
    assert inner.status == "ok"
    assert inner.value == pytest.approx(0.5, rel=0.1)


def test_radius_estimate_failures():
    g = GridSpec(1, 8, 2 * np.pi)
    f = single_mode(g, (1,))
    # shells sit at integer |k| on this grid, so this window is empty
    with pytest.raises(InsufficientDecayError):
        radius_estimate(f, window=(2.2, 2.9))
    # a spectrum that terminates inside the window is compact, not an error
    assert radius_estimate(f, window=(2.0, 2.5)).status == "band_limited"
    zero = SpectralField(GridSpec(1, 64, 2 * np.pi), np.zeros(64, dtype=complex))
    with pytest.raises(InsufficientDecayError):
        radius_estimate(zero)
    # too-steep decay: everything below the floor after a few shells
    g = GridSpec(1, 64, 2 * np.pi)
    steep = SpectralField(g, np.exp(-30.0 * g.k_mag).astype(complex))
    with pytest.raises(InsufficientDecayError):
        radius_estimate(steep)


def test_telescope_pinned_values():
    """C = 1, theta = 1/2, delta = 1, T = 1 gives lambda = 3/4 and the
    closed form e^4 on the nose."""
    rep = telescope_constant(1.0, 0.5, 1.0, 1.0)
    log_series, n_terms = _telescope_series(1.0, 0.5, 1.0, 1.0, rep.lambda_)
    series_value = np.exp(log_series)
    assert rep.lambda_ == pytest.approx(0.75, abs=1e-15)
    assert rep.closed_form == pytest.approx(np.exp(4.0), rel=1e-12)
    assert series_value <= rep.closed_form * (1.0 + 1e-12)
    assert series_value == pytest.approx(rep.closed_form, rel=1e-10)
    assert n_terms < 200
    assert rep.log_closed_form == pytest.approx(4.0, abs=1e-12)


def test_telescope_series_never_exceeds_closed_form():
    rng = make_generator(506, "telescope")
    for _ in range(60):
        c = float(rng.uniform(1.0, 5.0))
        theta = float(rng.uniform(0.05, 1.0))
        delta = float(rng.uniform(0.25, 1.5))
        T = float(rng.uniform(0.05, 1.0))
        rep = telescope_constant(c, theta, delta, T)
        log_series, _ = _telescope_series(c, theta, delta, T, rep.lambda_)
        assert log_series <= rep.log_closed_form + 1e-10
        assert log_series == pytest.approx(rep.log_closed_form, abs=5e-9)
        assert 0.0 < rep.lambda_ < 1.0
    with pytest.raises(ValueError):
        telescope_constant(0.5, 0.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        telescope_constant(1.0, 0.5, 1.0, 2.0)


def test_spacetime_lift_pinned_and_dominating():
    rep = spacetime_lift(1.0, 1.0, 1.0)
    # frozen regression for the absorbed constant on the default grid
    assert rep.absorbed_constant == pytest.approx(2.317481988486179, rel=1e-10)
    # dominance across the whole gap range, compared in the log domain
    # because the plain bounds overflow near the small end
    gaps = np.geomspace(1e-6, 1.0, 400)
    c, c0 = rep.premise_constant, rep.absorbed_constant
    log_lift = np.log(c) + rep.theta * np.log(2.0 / gaps) + c * 2.0 / gaps
    log_absorbed = np.log(c0) + c0 / gaps
    assert np.all(log_absorbed >= log_lift - 1e-9)
    # a stronger premise constant can only raise the absorbed one
    stronger = spacetime_lift(2.0, 1.0, 1.0)
    assert stronger.absorbed_constant > rep.absorbed_constant
    with pytest.raises(ValueError):
        spacetime_lift(0.5, 1.0, 1.0)


def test_smallest_log_affine_dominator_minimal():
    qs = np.array([0.5, 1.0, 4.0])
    logs = np.array([2.0, 1.0, 7.0])
    c = smallest_log_affine_dominator(qs, logs)
    assert np.all(np.log(c) + c * qs >= logs - 1e-9)
    # minimality: slightly smaller constants violate some pair
    shaved = c * (1.0 - 1e-6)
    assert np.any(np.log(shaved) + shaved * qs < logs)
    # already-satisfied targets return the floor
    assert smallest_log_affine_dominator([1.0], [0.0]) == 1.0
    with pytest.raises(ValueError):
        smallest_log_affine_dominator([0.0], [1.0])


def _decay_batch(g, count):
    return SpectralField(g, np.stack([
        random_analytic_decay(g, make_generator(507, "obs", i), 0.5).coeffs for i in range(count)
    ]))


def test_observability_experiment_small_run():
    g = GridSpec(1, 64, 2 * np.pi)
    a = builtin_coefficient("cosine", g, amplitude=0.5, mode=1)
    obs = build_set("periodic_slab", g, scale=np.pi / 2, fraction=0.5)
    traj = simulate(_decay_batch(g, 4), a, 1.5, 0.5, 0.01, record_every=2, obs_set=obs)
    rep = observability_experiment(traj, a, theta=0.5)
    assert rep.passed
    assert rep.degenerate_members == ()
    assert len(rep.member_ratios) == 4
    assert np.all(np.isfinite(rep.member_ratios))
    assert rep.empirical_ratio == pytest.approx(np.max(rep.member_ratios))
    assert np.log(rep.empirical_ratio) <= rep.log_telescoped_bound
    assert rep.premise_constant >= 1.0
    assert rep.gap_exponent == pytest.approx(1.5 - 1.0)
    # T <= 1: no energy extension factor
    assert rep.energy_factor == 1.0



@pytest.mark.parametrize("fraction, source", [(0.5, "energy"), (0.05, "interpolation")])
def test_observability_names_its_premise_source(fraction, source):
    g = GridSpec(1, 64, 2 * np.pi)
    a = builtin_coefficient("cosine", g, amplitude=0.5, mode=1)
    obs = build_set("periodic_slab", g, scale=np.pi / 2, fraction=fraction)
    batch = _decay_batch(g, 4)
    rep = observability_experiment(
        simulate(batch, a, 1.5, 1.0, 0.01, record_every=2, obs_set=obs), a
    )
    assert rep.premise_source == source
    # the energy factor: the largest squared norm growth over recorded pairs
    growth = 1.0
    for member in batch.coeffs:
        run = simulate(batch.with_coeffs(member), a, 1.5, 1.0, 0.01, record_every=2)
        l2 = run.diagnostics["l2"][1:]
        growth = max(growth, max((l2[j] / l2[i]) ** 2 for j in range(len(l2)) for i in range(j)))
    if source == "energy":
        assert rep.premise_constant == pytest.approx(growth, rel=1e-12)
    else:
        assert rep.premise_constant > growth * (1.0 + 1e-6)


def test_observability_reads_no_premise_from_no_pairs():
    # T = dt is one record inside (0, T]: the premise 1.0 is the dominator's
    # floor, not a measured constant
    g = GridSpec(1, 64, 2 * np.pi)
    a = builtin_coefficient("cosine", g, amplitude=0.5, mode=1)
    obs = build_set("periodic_slab", g, scale=np.pi / 2, fraction=0.5)
    rep = observability_experiment(
        simulate(_decay_batch(g, 2), a, 1.5, 0.01, 0.01, obs_set=obs), a
    )
    assert rep.premise_source == "none"
    assert rep.premise_constant == 1.0
    assert not rep.passed


def test_observability_flags_degenerate_members():
    g = GridSpec(1, 64, 2 * np.pi)
    a = builtin_coefficient("zero", g)
    obs = np.zeros(64, dtype=bool)
    batch = SpectralField(g, single_mode(g, (1,)).coeffs[None])
    traj = simulate(batch, a, 2.0, 0.25, 0.01, obs_set=obs)
    rep = observability_experiment(traj, a)
    assert not rep.passed
    assert rep.degenerate_members == (0,)
    assert rep.empirical_ratio == np.inf


def test_observability_dead_member_adds_no_pairs():
    # a member with zero observed mass adds no pairs, so the fitted constants
    # equal those of the batch without it, and only it is flagged
    g = GridSpec(1, 64, 2 * np.pi)
    a = builtin_coefficient("cosine", g, amplitude=0.5, mode=1)
    obs = build_set("periodic_slab", g, scale=np.pi / 2, fraction=0.5)
    live = _decay_batch(g, 2)
    u0, u1 = live.coeffs
    dead = SpectralField(g, np.stack([u0, np.zeros_like(u0), u1]))
    kw = dict(record_every=2, obs_set=obs)
    want = observability_experiment(simulate(live, a, 1.5, 0.5, 0.01, **kw), a)
    got = observability_experiment(simulate(dead, a, 1.5, 0.5, 0.01, **kw), a)
    assert got.degenerate_members == (1,) and want.degenerate_members == ()
    assert got.premise_constant == want.premise_constant
    assert got.absorbed_constant == want.absorbed_constant
    assert got.log_telescoped_bound == want.log_telescoped_bound
    assert got.member_ratios[1] == np.inf
    assert np.array_equal(got.member_ratios[[0, 2]], want.member_ratios)
    # a run recorded without an observation set has no observed norms
    with pytest.raises(ValueError, match="observation set"):
        observability_experiment(simulate(live, a, 1.5, 0.5, 0.01, record_every=2), a)


@pytest.mark.parametrize("case", ["dead-member", "decaying-members", "constant-20"])
def test_observability_energy_growth_matches_the_pair_fold(case):
    # the oracle is the O(R^2) fold over every pair of records inside (0, 1]
    g = GridSpec(1, 32, 2 * np.pi)
    a = builtin_coefficient("cosine", g, amplitude=0.5, mode=1)
    obs = build_set("periodic_slab", g, scale=np.pi / 2, fraction=0.5)
    batch = _decay_batch(g, 2)
    if case == "dead-member":
        u0, u1 = batch.coeffs
        batch = SpectralField(g, np.stack([u0, np.zeros_like(u0), u1]))
    elif case == "decaying-members":
        batch = SpectralField(g, np.stack([single_mode(g, (m,)).coeffs for m in (5, 7)]))
    else:
        a = builtin_coefficient("constant", g, value=20.0)
    traj = simulate(batch, a, 1.5, 1.0, 0.01, record_every=2, obs_set=obs)
    rep = observability_experiment(traj, a)
    pairs = _interp_pairs(traj.times, traj.diagnostics["l2"], traj.diagnostics["l2_on_E"],
                          1.0, 0.5)
    energy = max(1.0, float(np.exp(np.max(_worst_log_ratio(pairs, 0.0)))))
    c_interp = smallest_log_affine_dominator(pairs.q, _worst_log_ratio(pairs, 0.5))
    assert rep.premise_constant == max(c_interp, energy)
    assert rep.premise_source == ("interpolation" if c_interp >= energy else "energy")
    if case == "dead-member":
        assert rep.degenerate_members == (1,)
    elif case == "decaying-members":
        assert np.all(np.diff(traj.diagnostics["l2"], axis=1) < 0) and energy == 1.0
    else:
        assert rep.premise_source == "energy" and rep.premise_constant == energy > 1e16


def test_observability_refuses_a_single_run():
    g = GridSpec(1, 64, 2 * np.pi)
    a = builtin_coefficient("cosine", g, amplitude=0.5, mode=1)
    obs = build_set("periodic_slab", g, scale=np.pi / 2, fraction=0.5)
    traj = simulate(single_mode(g, (1,)), a, 1.5, 0.5, 0.01, obs_set=obs)
    with pytest.raises(ValueError, match="batched run"):
        observability_experiment(traj, a)


def _loop_pairs(times, l2_rows, l2e_rows, t_cap, delta, theta):
    """The per-member double loops that interp-scan and the observability
    experiment used to run, as an oracle for the pair builder: every member's
    pairs at a j whose observed norm is nonzero, flattened, each with its
    record indices (j, i) inside (0, t_cap]."""
    keys, qs, ratios, skipped = [], [], [], []
    energy_max = 1.0
    for l2_all, l2e_all in zip(l2_rows, l2e_rows):
        inside = (times > 0) & (times <= t_cap + 1e-12)
        ts, l2, l2e = times[inside], l2_all[inside], l2e_all[inside]
        skipped.append(0)
        for j in range(1, len(ts)):
            if l2e[j] == 0.0:
                skipped[-1] += 1
                continue
            for i in range(j):
                keys.append((j, i))
                qs.append(1.0 / (ts[j] - ts[i]) ** delta)
                ratios.append(2.0 * (
                    np.log(l2[j]) - theta * np.log(l2e[j]) - (1.0 - theta) * np.log(l2[i])
                ))
                energy_max = max(
                    energy_max, float(np.exp(2.0 * (np.log(l2[j]) - np.log(l2[i]))))
                )
    return keys, qs, ratios, energy_max, skipped


@pytest.mark.parametrize("t_cap, delta", [(1.0, 0.5), (0.6, 0.7), (1.0, 1.0)])
def test_interp_pairs_match_double_loops(t_cap, delta):
    rng = make_generator(511, "pairs")
    times = np.linspace(0.0, 1.5, 31)
    l2 = np.exp(rng.normal(0.0, 2.0, size=(3, 31)))
    l2e = l2 * rng.uniform(0.01, 1.0, size=(3, 31))
    l2e[0, [0, 4, 9]] = 0.0  # t = 0 is outside, the others are skipped
    l2e[2, 13] = 0.0
    # a member that is zero throughout has log -inf everywhere and no pairs
    l2, l2e = np.vstack([l2, np.zeros(31)]), np.vstack([l2e, np.zeros(31)])
    theta = 0.3
    pairs = _interp_pairs(times, l2, l2e, t_cap, delta)
    keys, q_ref, ratio_ref, energy_ref, skipped_ref = _loop_pairs(
        times, l2, l2e, t_cap, delta, theta
    )
    assert pairs.count == len(q_ref) > 0
    assert list(pairs.skipped) == skipped_ref
    records = int(np.sum((times > 0) & (times <= t_cap + 1e-12)))
    assert len(pairs.q) == records * (records - 1) // 2
    index = {key: p for p, key in enumerate(zip(pairs.j.tolist(), pairs.i.tolist()))}
    assert np.array_equal(pairs.q[[index[key] for key in keys]], q_ref)
    # one target per pair of times: the largest of its members' ratios
    worst = np.full(len(pairs.q), -np.inf)
    for key, ratio in zip(keys, ratio_ref):
        worst[index[key]] = max(worst[index[key]], ratio)
    assert np.array_equal(_worst_log_ratio(pairs, theta), worst)
    energy = max(1.0, float(np.exp(np.max(_worst_log_ratio(pairs, 0.0)))))
    assert energy == energy_ref
    # the dominator returns the same constant from one target per pair of
    # times as from every member's pairs, also off the floor 1.0
    constants = []
    for th in (0.1, 0.5, 0.9):
        _, qs, ratios, _, _ = _loop_pairs(times, l2, l2e, t_cap, delta, th)
        constants.append(smallest_log_affine_dominator(pairs.q, _worst_log_ratio(pairs, th)))
        assert constants[-1] == smallest_log_affine_dominator(qs, ratios)
    assert max(constants) > 1.0


def _pair_stage_peak(members):
    """Peak traced bytes of building the pairs of 200 records and one
    constant per theta from them, for the given number of members."""
    rng = make_generator(515, "pair-memory")
    times = np.linspace(0.0, 1.0, 201)
    l2 = np.exp(rng.normal(0.0, 1.0, size=(members, 201)))
    l2e = l2 * rng.uniform(0.01, 1.0, size=(members, 201))
    tracemalloc.start()
    try:
        pairs = _interp_pairs(times, l2, l2e, 1.0, 0.5)
        for theta in (0.1, 0.5, 0.9):
            smallest_log_affine_dominator(pairs.q, _worst_log_ratio(pairs, theta))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pair_memory_does_not_grow_with_members():
    # 16 times the members, the same 19,900 pairs of times
    assert _pair_stage_peak(64) < 2 * _pair_stage_peak(4)


def test_interp_pairs_peak_stays_near_what_it_returns():
    # 1,000 records in (0, 1]: 499,500 pairs of times
    rng = make_generator(516, "pair-rows")
    times = np.linspace(0.0, 1.0, 1001)
    l2 = np.exp(rng.normal(0.0, 1.0, size=(2, 1001)))
    l2e = 0.5 * l2
    tracemalloc.start()
    try:
        pairs = _interp_pairs(times, l2, l2e, 1.0, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(pairs.q) == 499_500
    kept = sum(a.nbytes for a in pairs if isinstance(a, np.ndarray))
    assert peak < 2 * kept


def test_radius_estimate_refuses_a_batch():
    g = GridSpec(1, 64, 2 * np.pi)
    f = random_analytic_decay(g, make_generator(512, "batch"), 0.5)
    with pytest.raises(ValueError, match="batch"):
        radius_estimate(SpectralField(g, np.stack([f.coeffs, f.coeffs])))
