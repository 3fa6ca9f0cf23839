"""Measured inequality constants.

The restriction constant has an independent oracle: sample every band mode
explicitly, form the restricted Gram by direct matrix multiplication, and
take the smallest eigenvalue with a dense solver.  The FFT-indexed
implementation must agree to near machine precision.  The telescoping and
lift constants are checked against their defining identities, and the
pinned values the rest of the package relies on are frozen here.
"""

import numpy as np
import pytest

from fracheatlab.spectral import GridSpec, SpectralField, inverse, project, transform
from fracheatlab.norms import l2_norm, restricted_l2, strip_sup_norm
from fracheatlab.ensembles import random_analytic_decay, random_band_limited, single_mode
from fracheatlab.rng import make_generator
from fracheatlab.thick_sets import ThickSet, build_set
from fracheatlab.coefficients import builtin_coefficient
from fracheatlab.inequality_lab import (
    ThinSetError,
    InsufficientDecayError,
    _interp_pairs,
    ls_constant,
    ls_growth_fit,
    radius_estimate,
    interp_ratio,
    highlow_threshold,
    telescope_constant,
    spacetime_lift,
    observability_experiment,
    cell_taylor_suprema,
    smallest_log_affine_dominator,
)


def _dense_ls_oracle(obs, band):
    """Restriction constant by explicit mode sampling; no FFT, no shared
    code with the implementation."""
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
    gram = (B @ B.conj().T) * g.dx**g.dim / g.volume
    lam = np.linalg.eigvalsh(gram)[0]
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


def test_matched_inverse_power_path():
    """Large mode counts take the Cholesky inverse-power branch; force it
    with a tiny dense_limit and compare against the dense answer."""
    g = GridSpec(1, 32, 1.0)
    obs = build_set("periodic_slab", g, scale=0.25, fraction=0.5)
    dense = ls_constant(obs, 40.0)
    iterative = ls_constant(obs, 40.0, dense_limit=2)
    assert iterative == pytest.approx(dense, rel=1e-7)


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


def test_interp_ratio_edge_cases():
    g = GridSpec(1, 32, 2 * np.pi)
    ind = np.zeros(32, dtype=bool)
    ind[:16] = True
    f = single_mode(g, (1,))
    r = interp_ratio(f, 1.0, ind, 0.5)
    assert np.isfinite(r) and r > 0
    zero = SpectralField(g, np.zeros(32, dtype=complex))
    assert interp_ratio(zero, 1.0, ind, 0.5) == 0.0
    # mass that never touches the observation set: infinite ratio
    nothing = np.zeros(32, dtype=bool)
    assert interp_ratio(f, 1.0, nothing, 0.5) == np.inf
    with pytest.raises(ValueError):
        interp_ratio(f, 1.0, ind, 1.5)
    # theta = 1 reduces to the plain restriction ratio
    full_ratio = interp_ratio(f, 123.0, ind, 1.0)
    assert full_ratio == pytest.approx(
        l2_norm(f) ** 2 / restricted_l2(f, ind) ** 2, rel=1e-12
    )


def test_highlow_threshold_balances():
    # modest root: check the defining equation directly
    r = highlow_threshold(c=1.0, kappa=0.5, c_ls=1.0, epsilon=1e-3)
    lhs = (1 + 1.0 * np.exp(1.0 * r.n0)) * np.exp(
        -1.0 * r.n0 * np.log(np.e + r.n0) ** 0.5
    )
    assert lhs == pytest.approx(1e-3, rel=1e-9)
    assert r.residual_lo >= 0.0 >= r.residual_hi
    assert not r.flagged_zero
    # larger roots overflow any direct evaluation; the bracket signs and
    # the monotonicity in epsilon still pin the answer
    big = highlow_threshold(c=0.3, kappa=0.0, c_ls=2.0, epsilon=0.5)
    small = highlow_threshold(c=0.3, kappa=0.0, c_ls=2.0, epsilon=0.01)
    assert big.residual_lo >= 0.0 >= big.residual_hi
    assert small.n0 > big.n0 > 0.0
    with pytest.raises(ValueError):
        highlow_threshold(c=0.0, kappa=0.0, c_ls=1.0, epsilon=0.5)
    with pytest.raises(ValueError):
        highlow_threshold(c=1.0, kappa=0.0, c_ls=0.5, epsilon=0.5)
    with pytest.raises(ValueError):
        highlow_threshold(c=1.0, kappa=0.0, c_ls=1.0, epsilon=1.5)


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
    # at gap 2 the premise shape collapses to a single e
    assert rep.bound(2.0) == pytest.approx(np.e, rel=1e-12)
    # frozen regression for the absorbed constant on the default grid
    assert rep.absorbed_constant == pytest.approx(2.317481988486179, rel=1e-10)
    # dominance across the whole gap range, compared in the log domain
    # because the plain bounds overflow near the small end
    gaps = np.geomspace(1e-6, 1.0, 400)
    c, c0 = rep.premise_constant, rep.absorbed_constant
    log_lift = np.log(c) + rep.theta * np.log(2.0 / gaps) + c * 2.0 / gaps
    log_absorbed = np.log(c0) + c0 / gaps
    assert np.all(log_absorbed >= log_lift - 1e-9)
    mid = gaps[gaps >= 0.05]
    assert np.all(rep.absorbed_bound(mid) >= rep.bound(mid) * (1.0 - 1e-9))
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
    assert smallest_log_affine_dominator([1.0], [0.0], c_min=1.0) == 1.0
    with pytest.raises(ValueError):
        smallest_log_affine_dominator([0.0], [1.0])


def test_cell_taylor_suprema_covering_and_regression():
    g = GridSpec(1, 64, 2 * np.pi)
    rng = make_generator(77, "cell-taylor")
    fld = random_analytic_decay(g, rng, 0.8)
    samples = inverse(fld).real
    m = cell_taylor_suprema(samples, g, sigma=0.3, scale=2 * np.pi / 8, alpha_max=8)
    assert m.shape == (8,)
    # frozen values for the seeded field
    assert float(np.max(m)) == pytest.approx(0.47030753181049384, rel=1e-10)
    assert float(np.sum(m)) == pytest.approx(3.514444200413595, rel=1e-10)
    # covering control: cell majorants overlap at most 2 per axis, so the
    # volume-weighted square sum is dominated by 2^dim times the squared
    # strip norm at four times sigma (sigma small enough to stay inside
    # the field's analytic radius)
    for i in range(6):
        f = random_analytic_decay(g, make_generator(77, "cov", i), 0.8)
        samp = inverse(f).real
        mm = cell_taylor_suprema(samp, g, sigma=0.1, scale=2 * np.pi / 8, alpha_max=12)
        lhs = float(np.sum(mm**2) * (2 * np.pi / 8))
        rhs = 2.0 * strip_sup_norm(f, 0.4) ** 2
        assert lhs <= rhs * (1.0 + 1e-9)
    with pytest.raises(ValueError):
        cell_taylor_suprema(samples, g, sigma=0.1, scale=1.0, alpha_max=4)


def test_cell_taylor_suprema_2d_covering():
    g = GridSpec(2, 32, 2 * np.pi)
    for i in range(3):
        f = random_analytic_decay(g, make_generator(78, "cov2", i), 0.8)
        samp = inverse(f).real
        mm = cell_taylor_suprema(samp, g, sigma=0.08, scale=2 * np.pi / 4, alpha_max=8)
        assert mm.shape == (16,)
        lhs = float(np.sum(mm**2) * (2 * np.pi / 4) ** 2)
        rhs = 4.0 * strip_sup_norm(f, 0.32, y_samples=32) ** 2
        assert lhs <= rhs * (1.0 + 1e-9)


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
