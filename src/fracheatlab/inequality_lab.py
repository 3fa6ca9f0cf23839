"""Measured constants for the restriction, interpolation, and observability
inequalities satisfied by the dynamics.

Everything here is a measurement on the discrete model.  The module
computes:

* sharp restriction constants for band-limited fields on an observation
  set, as inverse smallest eigenvalues of the restriction Gram matrix,
  written real symmetric on the band's cosine/sine basis and solved densely,
  plus their growth fit in the band radius;
* analytic-radius estimates from the decay of per-shell spectral maxima;
* interpolation log-ratios between the full norm, the restricted norm,
  and an earlier norm over pairs of recorded times;
* the constant assembled by geometric refinement toward the initial time
  (closed form and its numerically accumulated series twin), and the lift
  of a fixed-time interpolation constant to a space-time one;
* an end-to-end observability experiment chaining all of the above on a
  simulated ensemble.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import GridSpec, SpectralField, _conjugate_partner, _require_single
from .solver import simulate

__all__ = [
    "ThinSetError",
    "InsufficientDecayError",
    "ls_constant",
    "ls_growth_fit",
    "LSGrowthReport",
    "radius_estimate",
    "RadiusFit",
    "telescope_constant",
    "TelescopeReport",
    "spacetime_lift",
    "LiftReport",
    "observability_experiment",
    "ObservabilityReport",
    "smallest_log_affine_dominator",
]

_THIN_EIGENVALUE = 1e-13
# a radius fit uses the shells whose maximum exceeds this share of the peak
_DECAY_FLOOR = 1e-13
# gaps on the geometric grid a space-time lift is dominated on
_LIFT_POINTS = 1000


class ThinSetError(ValueError):
    """The observation set cannot see the requested band: the smallest Gram
    eigenvalue is indistinguishable from zero at working precision."""


class InsufficientDecayError(ValueError):
    """Fewer than three usable spectral shells for a radius fit."""


def _band_modes(grid: GridSpec, band: float) -> np.ndarray:
    """Lattice indices m (lexicographically sorted) with |k(m)| <= band."""
    if band < 0:
        raise ValueError(f"band must be nonnegative, got {band}")
    if band > grid.nyquist_radius + 1e-12:
        raise ValueError(
            f"band {band} exceeds the lattice Nyquist radius {grid.nyquist_radius}"
        )
    half = grid.n // 2
    ms = np.arange(-half, half)
    unit = 2.0 * np.pi / grid.period
    if grid.dim == 1:
        sel = ms[np.abs(ms) * unit <= band + 1e-12]
        return sel[np.argsort(sel)][:, None]
    mx, my = np.meshgrid(ms, ms, indexing="ij")
    keep = np.sqrt(mx.astype(float) ** 2 + my**2) * unit <= band + 1e-12
    pairs = np.stack([mx[keep], my[keep]], axis=1)
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    return pairs[order]


def _restriction_gram(obs, band: float) -> np.ndarray:
    """Gram matrix of the restriction to obs on a real basis of the band.

    The band's exponentials e_m have the Hermitian Gram g(m_c - m_r), with g
    the normalized Fourier transform of the indicator.  The indicator is
    real, so g(-d) = conj g(d), and negation mod n maps the band onto
    itself.  On the basis of the self-conjugate modes (m = -m mod n), the
    cosines (e_m + e_-m)/sqrt(2) and the sines i(e_m - e_-m)/sqrt(2), one
    per pair, the Gram is real symmetric with the same spectrum:

        cos/cos  Re g(k-l) + Re g(k+l)
        cos/sin  Im g(k-l) - Im g(k+l)
        sin/sin  Re g(k-l) - Re g(k+l)

    for the row mode k and column mode l; a self-conjugate mode is its own
    cosine scaled by 1/sqrt(2).  g is made exactly Hermitian first, so the
    matrix is exactly symmetric.
    """
    grid = obs.grid
    n, dim = grid.n, grid.dim
    h = np.fft.fftn(obs.indicator.astype(float)) * (grid.dx / grid.period) ** dim
    g = 0.5 * (h + h[_conjugate_partner(grid)].conj())
    # g tiled over [0, 2n)^dim: the difference or sum d of two band modes has
    # every component in [-n, n), so it sits at flat index d @ weights + offset
    tile = np.tile(g, (2,) * dim)
    re, im = tile.real.ravel(), tile.imag.ravel()
    weights = (2 * n) ** np.arange(dim - 1, -1, -1)
    offset = n * int(weights.sum())
    modes = _band_modes(grid, band)
    # negation mod n keeps a -n/2 component and flips the others
    neg = np.where(modes == -(n // 2), modes, -modes)
    key, neg_key = modes @ weights, neg @ weights
    first = key >= neg_key  # the self-conjugate modes and one mode per pair
    cos, sin = key[first], key[key > neg_key]
    scale = np.where(cos == neg_key[first], np.sqrt(0.5), 1.0)
    rows_c, rows_s = cos[:, None] + offset, sin[:, None] + offset
    nc = len(cos)
    gram = np.empty((len(modes), len(modes)), order="F")
    np.add(re[rows_c - cos], re[rows_c + cos], out=gram[:nc, :nc])
    np.subtract(im[rows_c - sin], im[rows_c + sin], out=gram[:nc, nc:])
    np.subtract(re[rows_s - sin], re[rows_s + sin], out=gram[nc:, nc:])
    gram[nc:, :nc] = gram[:nc, nc:].T
    gram[:nc] *= scale[:, None]
    gram[:, :nc] *= scale
    return gram


def ls_constant(obs, band: float) -> float:
    """Sharp restriction constant for the band-limited space on obs.

    For every field f with spectrum in |k| <= band,
    ||f||^2 <= C * ||f||^2_E with C the value returned here: the inverse
    smallest eigenvalue of the real symmetric restriction Gram, taken by one
    dense eigensolve.  The bound is attained by the eigenvector of that
    eigenvalue.  Raises ThinSetError when the eigenvalue sits below the
    working-precision floor (the set is too thin at this band).
    """
    # imported here, its only use, so the CLI starts without it
    import scipy.linalg
    gram = _restriction_gram(obs, band)
    # the Gram is Fortran-ordered and used once, so LAPACK overwrites it
    # instead of copying it
    lam_min = float(scipy.linalg.eigvalsh(
        gram, subset_by_index=[0, 0], check_finite=False, overwrite_a=True
    )[0])
    if lam_min <= _THIN_EIGENVALUE:
        raise ThinSetError(
            f"set too thin at band {band}: smallest Gram eigenvalue "
            f"{lam_min:.3e} is below the resolvable floor"
        )
    return 1.0 / lam_min


@dataclass(frozen=True)
class LSGrowthReport:
    bands: np.ndarray
    constants: np.ndarray
    statuses: tuple
    slope: float
    intercept: float
    residual_rms: float

    def resolved(self):
        keep = np.array([s == "ok" for s in self.statuses])
        return self.bands[keep], self.constants[keep]


def ls_growth_fit(obs, bands) -> LSGrowthReport:
    """Scan restriction constants over band radii and fit log C vs band.

    Bands where the set is numerically unobservable are recorded with
    status 'too_thin' and excluded from the fit.
    """
    bands = np.asarray(sorted(bands), dtype=float)
    constants = np.full(len(bands), np.nan)
    statuses = []
    for i, band in enumerate(bands):
        try:
            constants[i] = ls_constant(obs, band)
            statuses.append("ok")
        except ThinSetError:
            statuses.append("too_thin")
    keep = np.array([s == "ok" for s in statuses])
    if keep.sum() >= 2:
        x, y = bands[keep], np.log(constants[keep])
        slope, intercept = np.polyfit(x, y, 1)
        resid = y - (slope * x + intercept)
        rms = float(np.sqrt(np.mean(resid**2)))
    else:
        slope = intercept = rms = float("nan")
    return LSGrowthReport(
        bands=bands,
        constants=constants,
        statuses=tuple(statuses),
        slope=float(slope),
        intercept=float(intercept),
        residual_rms=rms,
    )


@dataclass(frozen=True)
class RadiusFit:
    value: float
    status: str
    n_shells: int
    residual_rms: float
    window: tuple


def _shell_maxima(field: SpectralField):
    grid = field.grid
    mags = np.abs(field.coeffs).ravel()
    # lattice radius per coefficient, rounded to integer shells
    m = np.fft.fftfreq(grid.n, 1.0 / grid.n).astype(int)
    if grid.dim == 1:
        radius = np.abs(m)
    else:
        mx, my = np.meshgrid(m, m, indexing="ij")
        radius = np.rint(np.sqrt(mx.astype(float) ** 2 + my**2)).astype(int)
    radius = radius.ravel()
    n_shell = radius.max() + 1
    shell_max = np.zeros(n_shell)
    np.maximum.at(shell_max, radius, mags)
    unit = 2.0 * np.pi / grid.period
    return np.arange(n_shell) * unit, shell_max


def radius_estimate(field: SpectralField, window: tuple | None = None) -> RadiusFit:
    """Least-squares decay rate of -log per-shell spectral maxima.

    Shells are integer lattice radii.  The fit runs over shells inside the
    window (defaults to physical 2 <= |k| <= 0.66 * axis Nyquist) whose
    maximum exceeds 1e-13 times the global coefficient maximum.  A
    spectrum that terminates in exact zeros inside the window is reported
    as 'band_limited' with an infinite value; fewer than three usable
    shells otherwise raise InsufficientDecayError.  The value is clamped
    below at zero and is invariant under scalar rescaling of the field.
    """
    _require_single(field, "radius_estimate")
    grid = field.grid
    if window is None:
        window = (2.0, 0.66 * grid.nyquist_axis)
    k_shell, shell_max = _shell_maxima(field)
    lo, hi = window
    in_window = (k_shell >= lo - 1e-12) & (k_shell <= hi + 1e-12)
    if not np.any(in_window):
        raise InsufficientDecayError(
            f"window {window} contains no spectral shells on this grid"
        )
    k_w = k_shell[in_window]
    m_w = shell_max[in_window]
    peak = shell_max.max()
    if peak == 0.0:
        raise InsufficientDecayError("field is identically zero")
    # a spectrum that dies to exact zeros inside the window is compact:
    # the decay rate is formally infinite
    if m_w[-1] == 0.0:
        return RadiusFit(
            value=np.inf,
            status="band_limited",
            n_shells=int(np.count_nonzero(m_w)),
            residual_rms=0.0,
            window=window,
        )
    floor = _DECAY_FLOOR * peak
    usable = m_w > floor
    if usable.sum() < 3:
        raise InsufficientDecayError(
            f"only {int(usable.sum())} shells above the decay floor in {window}; "
            "need at least 3"
        )
    x = k_w[usable]
    y = -np.log(m_w[usable])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    return RadiusFit(
        value=float(max(slope, 0.0)),
        status="ok",
        n_shells=int(usable.sum()),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        window=window,
    )


@dataclass(frozen=True)
class TelescopeReport:
    lambda_: float
    closed_form: float
    series_value: float
    log_closed_form: float
    log_series_value: float
    n_terms: int


def telescope_constant(
    c_interp: float, theta: float, gap_exponent: float, total_time: float
) -> TelescopeReport:
    """Constant relating a final squared norm to its observed space-time
    mass, assembled by geometric refinement toward the initial time.

    The refinement times are l_m = lambda^(m-1) * T with
    lambda = ((C+1-theta)/(C+1))^(1/gap_exponent); that ratio is exactly
    what makes consecutive per-interval weights exp(-(C+1-theta)/
    (theta*l_{m+1}^delta)) chain together.  closed_form is the resulting
    constant C^(1/theta) * exp((C+1)/(theta*T^delta)); series_value
    re-derives it by accumulating the normalized telescoping weight
    differences, whose full sum is exactly one, until a term falls below
    1e-16 relative.  The truncated accumulation approaches the closed form
    from below, so series_value <= closed_form up to round-off.  Log
    versions are reported for parameter ranges where the plain values
    overflow.
    """
    c = float(c_interp)
    if c < 1.0:
        raise ValueError(f"c_interp must be >= 1, got {c}")
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must lie in (0, 1], got {theta}")
    delta = float(gap_exponent)
    if not delta > 0:
        raise ValueError(f"gap_exponent must be positive, got {delta}")
    T = float(total_time)
    if not 0.0 < T <= 1.0:
        raise ValueError(f"total_time must lie in (0, 1], got {T}")

    lam = ((c + 1.0 - theta) / (c + 1.0)) ** (1.0 / delta)
    log_closed = np.log(c) / theta + (c + 1.0) / (theta * T**delta)

    # telescoping weights relative to the first one; the accumulated sum of
    # their differences converges to 1 and records how many refinement
    # levels contribute above 1e-16 relative
    coeff = (c + 1.0 - theta) / theta
    inv_l2 = 1.0 / (lam * T) ** delta

    def rel_weight(m):
        # weight of level m divided by the level-1 weight; equals 1 at
        # m = 1 and underflows cleanly to 0 as the levels shrink
        inv = 1.0 / (lam**m * T) ** delta
        return np.exp(coeff * (inv_l2 - inv))

    acc = 0.0
    prev = 1.0
    n_terms = 0
    while n_terms < 100000:
        nxt = rel_weight(n_terms + 2)
        term = prev - nxt
        acc += term
        n_terms += 1
        prev = nxt
        if term <= 1e-16 * acc:
            break

    log_series = np.log(c) / theta + coeff * inv_l2 + np.log(acc)
    with np.errstate(over="ignore"):
        closed = float(np.exp(log_closed))
        series = float(np.exp(log_series))
    return TelescopeReport(
        lambda_=float(lam),
        closed_form=closed,
        series_value=series,
        log_closed_form=float(log_closed),
        log_series_value=float(log_series),
        n_terms=n_terms,
    )


def smallest_log_affine_dominator(qs, log_targets) -> float:
    """Smallest C >= 1 with log(C) + C*q >= L for every pair (q, L).

    The left side is increasing in C for positive q, so bisection applies.
    Used to absorb measured constants into single-constant bound shapes.
    """
    qs = np.asarray(qs, dtype=float)
    log_targets = np.asarray(log_targets, dtype=float)
    if np.any(qs <= 0):
        raise ValueError("all q values must be positive")
    if len(qs) == 0:
        return 1.0

    def short(cc):
        return float(np.min(np.log(cc) + cc * qs - log_targets))

    if short(1.0) >= 0.0:
        return 1.0
    hi = 2.0
    while short(hi) < 0.0:
        hi *= 2.0
        if hi > 1e300:
            return np.inf
    lo = 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if short(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-12 * hi:
            break
    return hi


@dataclass(frozen=True)
class LiftReport:
    premise_constant: float
    theta: float
    gap_exponent: float
    absorbed_constant: float
    gap_range: tuple


def spacetime_lift(
    premise_constant: float,
    gap_exponent: float,
    theta: float,
    gap_range: tuple = (1e-6, 1.0),
) -> LiftReport:
    """Lift a fixed-time interpolation constant to a space-time bound.

    The lifted shape is C*(2/gap)^theta * exp(C*2^delta/gap^delta); the
    report also carries the smallest single constant C0 whose form
    C0*exp(C0/gap^delta) dominates the lifted bound on a geometric grid of
    1000 gaps, which is the shape the telescoping step consumes.
    """
    c = float(premise_constant)
    if c < 1.0:
        raise ValueError(f"premise constant must be >= 1, got {c}")
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must lie in (0, 1], got {theta}")
    delta = float(gap_exponent)
    if not delta > 0:
        raise ValueError(f"gap_exponent must be positive, got {delta}")
    gaps = np.geomspace(gap_range[0], gap_range[1], _LIFT_POINTS)
    log_b = np.log(c) + theta * np.log(2.0 / gaps) + c * 2.0**delta / gaps**delta
    c0 = smallest_log_affine_dominator(1.0 / gaps**delta, log_b)
    return LiftReport(
        premise_constant=c,
        theta=theta,
        gap_exponent=delta,
        absorbed_constant=float(c0),
        gap_range=tuple(gap_range),
    )


@dataclass(frozen=True)
class ObservabilityReport:
    total_time: float
    theta: float
    gap_exponent: float
    member_ratios: np.ndarray
    empirical_ratio: float
    premise_constant: float
    # "energy" when the energy-growth factor exceeds the interpolation
    # constant, else "interpolation"
    premise_source: str
    absorbed_constant: float
    telescoped_bound: float
    log_telescoped_bound: float
    energy_factor: float
    passed: bool
    degenerate_members: tuple


def _interp_pairs(times, l2, l2_on_E, t_cap: float, delta: float):
    """Every recorded pair t_i < t_j inside (0, t_cap] of every member,
    skipping each j whose observed norm vanishes; ordered by member, then j,
    then i.

    ``l2`` and ``l2_on_E`` hold one row of recorded norms per member.
    Returns q = 1/(t_j - t_i)^delta, log l2(t_j), log l2_on_E(t_j) and
    log l2(t_i) per pair, and the number of skipped j per member.
    """
    inside = (times > 0) & (times <= t_cap + 1e-12)
    ts = times[inside]
    l2, l2e = l2[:, inside], l2_on_E[:, inside]
    jj, ii = np.tril_indices(len(ts), -1)
    # one scalar (libm) power per pair of times: numpy's SIMD array power
    # may differ from it in the last bit
    q = 1.0 / np.array([gap**delta for gap in (ts[jj] - ts[ii]).tolist()])
    member, pair = np.nonzero((l2e != 0.0)[:, jj])
    j, i = jj[pair], ii[pair]
    with np.errstate(divide="ignore"):
        log_l2, log_l2e = np.log(l2), np.log(l2e)
    return (
        q[pair],
        log_l2[member, j],
        log_l2e[member, j],
        log_l2[member, i],
        np.count_nonzero(l2e[:, 1:] == 0.0, axis=1),
    )


def observability_experiment(
    a,
    s: float,
    obs,
    total_time: float,
    dt: float,
    ensemble,
    theta: float = 0.5,
    record_every: int = 1,
    scheme: str = "etd2",
) -> ObservabilityReport:
    """Measure final-norm vs observed-mass ratios and the bound that the
    refinement pipeline assembles from the same ensemble.

    For each initial state the empirical ratio is
    ||u(T)||^2 / integral over (0,T) of ||u(t)||^2_E dt (trapezoid rule on
    the recorded cadence).  The pipeline side measures interpolation and
    energy-growth constants on recorded pairs inside (0, min(T,1)], absorbs
    them into a single-constant space-time shape, and telescopes it; for
    T > 1 the bound is extended by the measured energy-growth factor over
    [1, T].  Members whose restricted norm vanishes identically are
    reported as degenerate and excluded from the fit.
    """
    if not 1.0 < s:
        raise ValueError(f"s must exceed 1, got {s}")
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    delta = s - 1.0
    t_cap = min(total_time, 1.0)

    batch = SpectralField(ensemble[0].grid, np.stack([u0.coeffs for u0 in ensemble]))
    traj = simulate(
        batch, a, s, total_time, dt,
        scheme=scheme, record_every=record_every, obs_set=obs,
        store_states=False,
    )
    sup_a = max(float(np.max(np.abs(a.sample(t)))) for t in traj.times)
    l2, l2e = traj.diagnostics["l2"], traj.diagnostics["l2_on_E"]
    masses = np.array([float(np.trapezoid(row**2, traj.times)) for row in l2e])
    ratios = [float(row[-1] ** 2 / mass) if mass else np.inf for row, mass in zip(l2, masses)]
    live = masses != 0.0
    pair_qs, log_j, log_ej, log_i, skipped = _interp_pairs(
        traj.times, l2[live], l2e[live], t_cap, delta
    )
    pair_logs = 2.0 * (log_j - theta * log_ej - (1.0 - theta) * log_i)
    energy_max = max(1.0, float(np.exp(np.max(2.0 * (log_j - log_i))))) if len(pair_qs) else 1.0
    flagged = ~live
    flagged[live] = skipped > 0
    degenerate = [int(i) for i in np.flatnonzero(flagged)]

    c_interp = smallest_log_affine_dominator(pair_qs, pair_logs)
    c_premise = max(c_interp, energy_max)
    lift = spacetime_lift(c_premise, delta, theta, gap_range=(1e-6, t_cap))
    tele = telescope_constant(lift.absorbed_constant, theta, delta, t_cap)
    if total_time > 1.0:
        energy_factor = float(np.exp(2.0 * sup_a * (total_time - 1.0)))
    else:
        energy_factor = 1.0
    log_bound = tele.log_closed_form + np.log(energy_factor)
    with np.errstate(over="ignore"):
        bound = float(np.exp(log_bound))

    finite = [r for i, r in enumerate(ratios) if i not in degenerate]
    empirical = max(finite) if finite else np.inf
    passed = bool(finite) and bool(np.log(empirical) <= log_bound)
    return ObservabilityReport(
        total_time=float(total_time),
        theta=float(theta),
        gap_exponent=float(delta),
        member_ratios=np.asarray(ratios),
        empirical_ratio=float(empirical),
        premise_constant=float(c_premise),
        premise_source="interpolation" if c_interp >= energy_max else "energy",
        absorbed_constant=float(lift.absorbed_constant),
        telescoped_bound=bound,
        log_telescoped_bound=float(log_bound),
        energy_factor=energy_factor,
        passed=passed,
        degenerate_members=tuple(degenerate),
    )
