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

import numpy as np
import pytest

from fracheatlab.spectral import GridSpec, SpectralField, inverse, project
from fracheatlab.norms import l2_norm, restricted_l2
from fracheatlab.ensembles import random_analytic_decay, random_band_limited, single_mode
from fracheatlab.rng import make_generator
from fracheatlab.thick_sets import ThickSet, build_set
from fracheatlab.coefficients import builtin_coefficient
from fracheatlab.solver import simulate
from fracheatlab.inequality_lab import (
    ThinSetError,
    InsufficientDecayError,
    _interp_pairs,
    _restriction_gram,
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


def _negate(m, n):
    """Lattice negation mod n: a -n/2 component stays, the others flip."""
    return tuple(c if c == -(n // 2) else -c for c in m)


def _real_basis_image(ms, n, v):
    """Coordinates w = U^H v of v on the documented real basis: the
    self-conjugate modes and, in band order, cosines (e_m + e_-m)/sqrt(2) of
    the lexicographically larger mode of each pair, then the sines
    i(e_m - e_-m)/sqrt(2)."""
    at = {m: v[i] for i, m in enumerate(ms)}
    cos = [m for m in ms if m >= _negate(m, n)]
    sin = [m for m in ms if m > _negate(m, n)]
    w = [
        at[m] if m == _negate(m, n) else (at[m] + at[_negate(m, n)]) / np.sqrt(2)
        for m in cos
    ]
    w += [-1j * (at[m] - at[_negate(m, n)]) / np.sqrt(2) for m in sin]
    return np.array(w)


def test_real_gram_quadratic_form_matches_complex_gram():
    """The real cos/sin-basis Gram is the complex Gram in an orthonormal
    basis: v^H G v = w^H G_real w for random complex v and its real-basis
    image w, which pins the orientation (G^T = conj G gives another form),
    and w is real for a real field (v(-m) = conj v(m))."""
    rng = np.random.default_rng(505)
    for dim, n in ((1, 16), (2, 8)):
        g = GridSpec(dim, n, 1.0)
        obs = _random_set(g, 0.6, f"form{dim}")
        for band in (0.0, 0.4 * g.nyquist_axis, g.nyquist_axis, g.nyquist_radius):
            ms, gram = _dense_gram(obs, band)
            real = _restriction_gram(obs, band)
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
    assert rep.lambda_ == pytest.approx(0.75, abs=1e-15)
    assert rep.closed_form == pytest.approx(np.exp(4.0), rel=1e-12)
    assert rep.series_value <= rep.closed_form * (1.0 + 1e-12)
    assert rep.series_value == pytest.approx(rep.closed_form, rel=1e-10)
    assert rep.n_terms < 200
    assert rep.log_closed_form == pytest.approx(4.0, abs=1e-12)


def test_telescope_series_never_exceeds_closed_form():
    rng = make_generator(506, "telescope")
    for _ in range(60):
        c = float(rng.uniform(1.0, 5.0))
        theta = float(rng.uniform(0.05, 1.0))
        delta = float(rng.uniform(0.25, 1.5))
        T = float(rng.uniform(0.05, 1.0))
        rep = telescope_constant(c, theta, delta, T)
        assert rep.log_series_value <= rep.log_closed_form + 1e-10
        assert rep.log_series_value == pytest.approx(rep.log_closed_form, abs=5e-9)
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


def test_observability_experiment_small_run():
    g = GridSpec(1, 64, 2 * np.pi)
    a = builtin_coefficient("cosine", g, amplitude=0.5, mode=1)
    obs = build_set("periodic_slab", g, scale=np.pi / 2, fraction=0.5)
    ensemble = [
        random_analytic_decay(g, make_generator(507, "obs", i), 0.5) for i in range(4)
    ]
    rep = observability_experiment(
        a, 1.5, obs, total_time=0.5, dt=0.01, ensemble=ensemble, theta=0.5,
        record_every=2,
    )
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
    ensemble = [
        random_analytic_decay(g, make_generator(507, "obs", i), 0.5) for i in range(4)
    ]
    kw = dict(record_every=2)
    rep = observability_experiment(a, 1.5, obs, 1.0, 0.01, ensemble, **kw)
    assert rep.premise_source == source
    # the energy factor: the largest squared norm growth over recorded pairs
    growth = 1.0
    for u0 in ensemble:
        l2 = simulate(u0, a, 1.5, 1.0, 0.01, **kw).diagnostics["l2"][1:]
        growth = max(growth, max((l2[j] / l2[i]) ** 2 for j in range(len(l2)) for i in range(j)))
    if source == "energy":
        assert rep.premise_constant == pytest.approx(growth, rel=1e-12)
    else:
        assert rep.premise_constant > growth * (1.0 + 1e-6)

def test_observability_flags_degenerate_members():
    g = GridSpec(1, 64, 2 * np.pi)
    a = builtin_coefficient("zero", g)
    obs = np.zeros(64, dtype=bool)
    ensemble = [single_mode(g, (1,))]
    rep = observability_experiment(
        a, 2.0, obs, total_time=0.25, dt=0.01, ensemble=ensemble
    )
    assert not rep.passed
    assert rep.degenerate_members == (0,)
    assert rep.empirical_ratio == np.inf


def _loop_pairs(times, l2_rows, l2e_rows, t_cap, delta, theta):
    """The per-member double loops that interp-scan and the observability
    experiment used to run, as an oracle for the vectorized pair builder."""
    qs, logs_j, logs_ej, logs_i, ratios, skipped = [], [], [], [], [], []
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
                qs.append(1.0 / (ts[j] - ts[i]) ** delta)
                logs_j.append(np.log(l2[j]))
                logs_ej.append(np.log(l2e[j]))
                logs_i.append(np.log(l2[i]))
                ratios.append(2.0 * (
                    np.log(l2[j]) - theta * np.log(l2e[j]) - (1.0 - theta) * np.log(l2[i])
                ))
                energy_max = max(
                    energy_max, float(np.exp(2.0 * (np.log(l2[j]) - np.log(l2[i]))))
                )
    return qs, logs_j, logs_ej, logs_i, ratios, energy_max, skipped


@pytest.mark.parametrize("t_cap, delta", [(1.0, 0.5), (0.6, 0.7), (1.0, 1.0)])
def test_interp_pairs_match_double_loops(t_cap, delta):
    rng = make_generator(511, "pairs")
    times = np.linspace(0.0, 1.5, 31)
    l2 = np.exp(rng.normal(0.0, 2.0, size=(3, 31)))
    l2e = l2 * rng.uniform(0.01, 1.0, size=(3, 31))
    l2e[0, [0, 4, 9]] = 0.0  # t = 0 is outside, the others are skipped
    l2e[2, 13] = 0.0
    theta = 0.3
    qs, log_j, log_ej, log_i, skipped = _interp_pairs(times, l2, l2e, t_cap, delta)
    q_ref, j_ref, ej_ref, i_ref, ratio_ref, energy_ref, skipped_ref = _loop_pairs(
        times, l2, l2e, t_cap, delta, theta
    )
    assert len(qs) == len(q_ref) > 0
    assert np.array_equal(log_j, j_ref)
    assert np.array_equal(log_ej, ej_ref)
    assert np.array_equal(log_i, i_ref)
    assert list(skipped) == skipped_ref
    assert np.array_equal(qs, q_ref)
    # the observability experiment's combinations of the same columns
    ratios = 2.0 * (log_j - theta * log_ej - (1.0 - theta) * log_i)
    assert np.array_equal(ratios, ratio_ref)
    energy = max(1.0, float(np.exp(np.max(2.0 * (log_j - log_i)))))
    assert energy == energy_ref


def test_radius_estimate_refuses_a_batch():
    g = GridSpec(1, 64, 2 * np.pi)
    f = random_analytic_decay(g, make_generator(512, "batch"), 0.5)
    with pytest.raises(ValueError, match="batch"):
        radius_estimate(SpectralField(g, np.stack([f.coeffs, f.coeffs])))
