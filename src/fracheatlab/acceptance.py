"""Desk-scale acceptance criteria for the whole laboratory.

Each criterion is a self-contained measurement with pinned parameters and
tolerances; together they exercise the transform layer, the norms, the
integrator, the restriction constants, the radius and envelope tracking,
and the observability pipeline.  ``run_all`` executes them in order and is
what the ``assert-suite`` CLI subcommand and the acceptance tests call.

A small set of ``acceptance.*`` config keys exists for fault injection
(for example scaling the convergence-study step sizes, or emptying the
observation set); defaults reproduce the pinned suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .spectral import GridSpec, SpectralField, transform, inverse, semigroup_apply, project
from .norms import (
    ExpLinearWeight,
    ExpLogLogWeight,
    l2_norm,
    strip_sup_norm,
    weighted_fourier_norm,
)
from .coefficients import builtin_coefficient, h_s_derivative_check
from .thick_sets import build_set
from .solver import simulate, energy_certificate
from .ensembles import make_ensemble, random_band_limited, single_mode
from .inequality_lab import (
    ls_constant,
    ls_growth_fit,
    observability_experiment,
    radius_estimate,
    smallest_log_affine_dominator,
    telescope_constant,
)
from .rng import make_generator

__all__ = ["CriterionResult", "run_criterion", "run_all", "CRITERION_NAMES"]

_TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    elapsed: float
    budget: float


def _get(cfg, key, default):
    if cfg is None:
        return default
    return cfg.get(key, default)


def _c1_spectral(cfg):
    """Transform round trip and exact semigroup dissipation on random fields."""
    worst_round = 0.0
    worst_margin = 0.0
    plans = [
        (GridSpec(1, 256, _TWO_PI), 40),
        (GridSpec(2, 64, _TWO_PI), 30),
        (GridSpec(2, 256, _TWO_PI), 30),
    ]
    s_cycle = (1.2, 1.5, 2.0)
    trial = 0
    for grid, count in plans:
        rng = make_generator(101, stream=f"acc1-{grid.dim}-{grid.n}")
        for _ in range(count):
            samples = rng.standard_normal(grid.shape)
            fld = transform(grid, samples)
            back = inverse(fld)
            worst_round = max(
                worst_round,
                float(np.linalg.norm(back - samples) / np.linalg.norm(samples)),
            )
            noise = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
            f = SpectralField(grid, noise)
            s = s_cycle[trial % 3]
            t = float(rng.uniform(0.0, 2.0))
            band = float(rng.uniform(0.0, grid.nyquist_axis))
            lhs = l2_norm(project(semigroup_apply(f, s, t), band, side="high"))
            rhs = float(np.exp(-t * band**s)) * l2_norm(project(f, band, side="high"))
            if rhs > 0:
                worst_margin = max(worst_margin, lhs / rhs - 1.0)
            trial += 1
    passed = worst_round <= 1e-12 and worst_margin <= 1e-12
    return passed, (
        f"roundtrip rel err {worst_round:.2e} (<=1e-12), "
        f"dissipation excess {worst_margin:.2e} (<=1e-12), 100 fields"
    )


def _c2_sandwich(cfg):
    """Strip sup norm vs exponentially weighted norm, constants 1 and 2."""
    grid = GridSpec(1, 256, _TWO_PI)
    sigma = 0.5
    worst_upper = -np.inf
    worst_lower = -np.inf
    for i in range(100):
        rng = make_generator(202, stream="acc2", member=i)
        f = random_band_limited(grid, rng, grid.nyquist_axis / 3.0)
        strip = strip_sup_norm(f, sigma)
        w_full = weighted_fourier_norm(f, ExpLinearWeight(sigma))
        w_half = weighted_fourier_norm(f, ExpLinearWeight(sigma / 2.0))
        worst_upper = max(worst_upper, strip / w_full - 1.0)
        worst_lower = max(worst_lower, w_half / (2.0 * strip) - 1.0)
    passed = worst_upper <= 1e-9 and worst_lower <= 1e-9
    return passed, (
        f"strip<=weighted excess {worst_upper:.2e}, "
        f"weighted(s/2)<=2*strip excess {worst_lower:.2e} (both <=1e-9), 100 fields"
    )


def _c3_solver_order(cfg):
    """First and second order convergence against the constant-a closed form."""
    grid = GridSpec(1, 128, _TWO_PI)
    value = 0.3
    a = builtin_coefficient("constant", grid, value=value)
    u0 = single_mode(grid, (1,), 1.0)
    s, T = 2.0, 1.0
    scale = float(_get(cfg, "acceptance.dt_scale", 1.0))
    dts = [4e-3 * scale, 2e-3 * scale, 1e-3 * scale]
    exact = u0.coeffs * np.exp((value - 1.0) * T)

    results = {}
    for scheme in ("etd1", "etd2"):
        errs = []
        for dt in dts:
            traj = simulate(u0, a, s, T, dt, scheme=scheme,
                            record_every=10**9, store_states=True)
            errs.append(float(np.linalg.norm(traj.final_state.coeffs - exact)))
        results[scheme] = errs
    e1, e2 = results["etd1"], results["etd2"]
    r1 = [e1[0] / e1[1], e1[1] / e1[2]]
    r2 = [e2[0] / e2[1], e2[1] / e2[2]]
    ok1 = all(1.8 <= r <= 2.2 for r in r1)
    ok2 = all(3.6 <= r <= 4.4 for r in r2)
    ok_final = e2[-1] <= 1e-6
    passed = ok1 and ok2 and ok_final
    return passed, (
        f"etd1 halving ratios {r1[0]:.3f},{r1[1]:.3f} (in [1.8,2.2]); "
        f"etd2 {r2[0]:.3f},{r2[1]:.3f} (in [3.6,4.4]); "
        f"etd2 error at dt={dts[-1]:g}: {e2[-1]:.2e} (<=1e-6)"
    )


def _c4_certificate(cfg):
    """Energy growth certificate over a 100-member ensemble."""
    grid = GridSpec(1, 128, _TWO_PI)
    a = builtin_coefficient("cosine", grid, amplitude=0.5, mode=1)
    fields = make_ensemble(grid, 100, seed=404, kind="mixed")
    batch = SpectralField(grid, np.stack([u0.coeffs for u0 in fields]))
    traj = simulate(batch, a, 1.5, 1.0, 0.01, record_every=5, store_states=False)
    worst = -np.inf
    failures = 0
    for i in range(len(fields)):
        rep = energy_certificate(traj.member(i), a, slack=1e-6)
        worst = max(worst, rep.worst_excess)
        failures += 0 if rep.passed else 1
    passed = failures == 0
    return passed, (
        f"{100 - failures}/100 members certified at slack 1e-6, "
        f"worst log-excess {worst:.2e}"
    )


def _c5_ls(cfg):
    """Restriction constants: exact on the full torus, oracle-checked and
    nondecreasing on the half-torus slab."""
    grid = GridSpec(1, 64, 1.0)
    full = build_set("full", grid, scale=0.25)
    worst_full = 0.0
    for band in range(0, 33, 4):
        worst_full = max(worst_full, abs(ls_constant(full, float(band)) - 1.0))
    ok_full = worst_full <= 1e-10

    slab = build_set("periodic_slab", grid, scale=0.5, fraction=0.5)
    bands = [float(b) for b in range(0, 65, 4)]
    fit = ls_growth_fit(slab, bands)
    resolved_b, resolved_c = fit.resolved()
    mono_excess = 0.0
    for i in range(1, len(resolved_c)):
        mono_excess = max(mono_excess, resolved_c[i - 1] / resolved_c[i] - 1.0)
    ok_mono = mono_excess <= 1e-9

    # independent oracle: explicit sampled mode vectors, direct Gram assembly
    worst_oracle = 0.0
    x = grid.x_axes[0]
    ind = slab.indicator.astype(float)
    for band in (0.0, 4.0, 8.0):
        half = grid.n // 2
        ms = [m for m in range(-half, half) if abs(_TWO_PI * m / grid.period) <= band + 1e-12]
        vecs = np.stack([np.exp(1j * _TWO_PI * m / grid.period * x) for m in ms])
        gram = (vecs.conj() * ind) @ vecs.T * (grid.dx / grid.period)
        lam = float(np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))[0])
        c_oracle = 1.0 / lam
        c_impl = ls_constant(slab, band)
        worst_oracle = max(worst_oracle, abs(c_impl - c_oracle) / c_oracle)
    ok_oracle = worst_oracle <= 1e-8

    n_res = len(resolved_c)
    passed = ok_full and ok_mono and ok_oracle
    return passed, (
        f"full-torus |C-1| {worst_full:.1e} (<=1e-10); slab monotone excess "
        f"{mono_excess:.1e} over {n_res} resolved bands; oracle mismatch "
        f"{worst_oracle:.1e} (<=1e-8); log-fit slope {fit.slope:.3f}, "
        f"rms residual {fit.residual_rms:.3f}"
    )


def _radius_run(count, seed):
    grid = GridSpec(1, 256, 8.0 * np.pi)
    a = builtin_coefficient("cosine", grid, amplitude=0.5, mode=4)
    fields = make_ensemble(grid, count, seed=seed, kind="analytic_decay",
                           decay_radius=0.5)
    batch = SpectralField(grid, np.stack([u0.coeffs for u0 in fields]))
    traj = simulate(batch, a, 1.5, 5.0, 0.005, record_every=20)
    return grid, a, [traj.member(i) for i in range(count)]


def _c6_radius(cfg):
    """Analytic radius stays above 0.2 and finite along 100 trajectories."""
    count = int(_get(cfg, "acceptance.radius_members", 100))
    _, _, trajs = _radius_run(count, seed=606)
    min_radius = np.inf
    worst_resid = 0.0
    n_checked = 0
    for traj in trajs:
        for t, state in zip(traj.times, traj.states):
            if t < 0.1 - 1e-12:
                continue
            fit = radius_estimate(state)
            if fit.status != "ok" or not np.isfinite(fit.value):
                return False, f"non-finite radius fit at t={t:g} ({fit.status})"
            min_radius = min(min_radius, fit.value)
            worst_resid = max(worst_resid, fit.residual_rms)
            n_checked += 1
    passed = min_radius >= 0.2
    return passed, (
        f"min radius {min_radius:.3f} (>=0.2) over {n_checked} fits, "
        f"{count} trajectories, t in [0.1,5]; worst fit rms {worst_resid:.2f}"
    )


def _c7_envelope(cfg):
    """Log-improved weighted norm finite with a nonnegative-residual
    envelope of shape K*exp(K*(t^(-1/(s-1)) + t))."""
    count = int(_get(cfg, "acceptance.envelope_members", 100))
    _, _, trajs = _radius_run(count, seed=707)
    weight = ExpLogLogWeight(c=0.3, kappa=0.0)
    times = None
    w_max = None
    for traj in trajs:
        keep = traj.times >= 0.1 - 1e-12
        ts = traj.times[keep]
        vals = np.array([
            weighted_fourier_norm(state, weight)
            for state, k in zip(traj.states, keep) if k
        ])
        if not np.all(np.isfinite(vals)):
            return False, "weighted norm overflowed along a trajectory"
        if w_max is None:
            times, w_max = ts, vals
        else:
            w_max = np.maximum(w_max, vals)
    q = times ** (-2.0) + times  # s = 1.5 so 1/(s-1) = 2
    k_fit = smallest_log_affine_dominator(q, np.log(w_max))
    resid = k_fit * np.exp(k_fit * q) - w_max
    min_resid = float(np.min(resid / np.maximum(w_max, 1e-300)))
    passed = np.isfinite(k_fit) and min_resid >= -1e-9
    return passed, (
        f"envelope constant K {k_fit:.4f} over {len(times)} times x {count} "
        f"members, min relative residual {min_resid:.1e} (>=-1e-9)"
    )


def _c8_telescope(cfg):
    """Pinned arithmetic plus series<=closed over a random parameter grid."""
    rep = telescope_constant(1.0, 0.5, 1.0, 1.0)
    ok_lambda = abs(rep.lambda_ - 0.75) <= 1e-15
    ok_closed = abs(rep.closed_form - np.exp(4.0)) <= 1e-12 * np.exp(4.0)
    rng = make_generator(808, stream="telescope-grid")
    worst_gap = -np.inf
    max_terms = 0
    for _ in range(100):
        c = float(rng.uniform(1.0, 4.0))
        theta = float(rng.uniform(0.1, 0.9))
        delta = float(rng.uniform(0.25, 1.0))
        T = float(rng.uniform(0.25, 1.0))
        r = telescope_constant(c, theta, delta, T)
        worst_gap = max(worst_gap, r.log_series_value - r.log_closed_form)
        max_terms = max(max_terms, r.n_terms)
    ok_series = worst_gap <= 2e-12
    passed = ok_lambda and ok_closed and ok_series
    return passed, (
        f"lambda {rep.lambda_} (=0.75), closed form {rep.closed_form:.3f} "
        f"(=e^4), series-closed log gap <= {worst_gap:.1e} over 100 draws, "
        f"max {max_terms} terms"
    )


def _c9_observability(cfg):
    """Finite, monotone empirical ratios bounded by the assembled constant."""
    grid = GridSpec(1, 128, _TWO_PI)
    fraction = float(_get(cfg, "acceptance.slab_fraction", 0.5))
    obs = build_set("periodic_slab", grid, scale=np.pi / 2.0, fraction=fraction)
    a = builtin_coefficient("cosine", grid, amplitude=0.5, mode=1)
    fields = make_ensemble(grid, 8, seed=909, kind="mixed")
    horizons = (0.25, 0.5, 1.0, 2.0)
    ratios, bounds, oks = [], [], []
    for T in horizons:
        rep = observability_experiment(
            a, 1.5, obs, T, 0.005, fields, theta=0.5, record_every=5
        )
        if rep.degenerate_members or not np.isfinite(rep.empirical_ratio):
            return False, (
                f"infinite ratio at T={T:g} "
                f"(degenerate members {list(rep.degenerate_members)})"
            )
        ratios.append(rep.empirical_ratio)
        bounds.append(rep.log_telescoped_bound)
        oks.append(rep.passed)
    mono = all(
        ratios[i] >= ratios[i + 1] * (1.0 - 1e-9) for i in range(len(ratios) - 1)
    )
    passed = mono and all(oks)
    ratio_txt = ",".join(f"{r:.3f}" for r in ratios)
    bound_txt = ",".join(f"{b:.1f}" for b in bounds)
    return passed, (
        f"ratios [{ratio_txt}] decreasing in T (monotone in 1/T^0.5: {mono}); "
        f"log bounds [{bound_txt}]; bounded: {all(oks)}"
    )


def _c10_kernel(cfg):
    """Finite derivative-growth prefactor for the line kernel at s=1,2."""
    details = []
    passed = True
    for s in (1.0, 2.0):
        rep = h_s_derivative_check(s, alpha_max=8)
        ok = np.isfinite(rep.prefactor) and rep.prefactor > 0
        passed = passed and ok
        details.append(
            f"s={s:g}: K={rep.prefactor:.3e}, periodization boundary "
            f"{rep.boundary_value:.1e} at period {rep.period:g}"
        )
    return passed, "; ".join(details)


_CRITERIA = (
    ("spectral-roundtrip-dissipation", _c1_spectral, 5.0),
    ("strip-weighted-sandwich", _c2_sandwich, 10.0),
    ("integrator-convergence-order", _c3_solver_order, 10.0),
    ("energy-growth-certificate", _c4_certificate, 30.0),
    ("restriction-constant-scan", _c5_ls, 20.0),
    ("analytic-radius-persistence", _c6_radius, 60.0),
    ("loglog-weighted-envelope", _c7_envelope, 60.0),
    ("telescoped-constant-arithmetic", _c8_telescope, 1.0),
    ("observability-pipeline", _c9_observability, 120.0),
    ("kernel-derivative-growth", _c10_kernel, 10.0),
)

CRITERION_NAMES = tuple(name for name, _, _ in _CRITERIA)


def run_criterion(index: int, cfg: dict | None = None) -> CriterionResult:
    """Run acceptance criterion ``index`` (1-based)."""
    if not 1 <= index <= len(_CRITERIA):
        raise ValueError(f"criterion index must be 1..{len(_CRITERIA)}, got {index}")
    name, func, budget = _CRITERIA[index - 1]
    start = time.perf_counter()
    passed, detail = func(cfg)
    elapsed = time.perf_counter() - start
    return CriterionResult(index, name, bool(passed), detail, elapsed, budget)


def run_all(cfg: dict | None = None):
    return [run_criterion(i, cfg) for i in range(1, len(_CRITERIA) + 1)]
