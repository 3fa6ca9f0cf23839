"""Measured constants for the restriction, interpolation, and observability
inequalities satisfied by the dynamics.

Everything here is a measurement on the discrete model.  The module
computes:

* sharp restriction constants for band-limited fields on an observation
  set, as inverse smallest eigenvalues of the restriction Gram matrix,
  written real symmetric on the band's cosine/sine basis in shell order,
  factored by Cholesky and solved by Lanczos on its inverse, plus their
  growth fit in the band radius, which builds and factors the largest
  band's Gram once and walks the bands down, shrinking that one factor in
  place to each smaller band's leading block;
* analytic-radius estimates from the decay of per-shell spectral maxima;
* interpolation log-ratios between the full norm, the restricted norm,
  and an earlier norm over pairs of recorded times;
* the constant assembled by geometric refinement toward the initial time,
  in closed form, and the lift of a fixed-time interpolation constant to a
  space-time one;
* an end-to-end observability experiment chaining all of the above on the
  recorded norms of a simulated ensemble.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .ensembles import hermitian_symmetrize
from .rng import make_generator
from .solver import _log_growth, _sup_coeff
from .spectral import GridSpec, SpectralField, _require_single

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
# entries per temporary of a Gram build: the Gram is written in column chunks
_GRAM_CHUNK = 1 << 16
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
    # "ij" order lists the lattice lexicographically
    lattice = np.meshgrid(*[np.arange(-half, half)] * grid.dim, indexing="ij")
    unit = 2.0 * np.pi / grid.period
    keep = np.sqrt(sum(m.astype(float) ** 2 for m in lattice)) * unit <= band + 1e-12
    return np.stack([m[keep] for m in lattice], axis=1)


def _restriction_gram(obs, band: float) -> np.ndarray:
    """Lower triangle of the Gram matrix of the restriction to obs on a real
    basis of the band, in shell order; the strict upper triangle is zero.

    The band's exponentials e_m have the Hermitian Gram g(m_c - m_r), with g
    the normalized Fourier transform of the indicator.  The indicator is
    real, so g(-d) = conj g(d), and negation mod n maps the band onto
    itself.  On the basis of the self-conjugate modes (m = -m mod n), the
    cosines (e_m + e_-m)/sqrt(2) and the sines i(e_m - e_-m)/sqrt(2), one
    per pair, the Gram is real symmetric with the same spectrum.  With
    phi = 1 for a cosine and phi = i for a sine,

        G[k, l] = Re(phi_k conj(phi_l) g(k-l)) + Re(phi_k phi_l g(k+l))

    for the row mode k and column mode l; a self-conjugate mode is its own
    cosine scaled by 1/sqrt(2).  g is made exactly Hermitian first.  The
    basis is sorted by |m|^2, then by mode, cosine before sine, so a band's
    basis is a prefix of every larger band's and its Gram is their leading
    block, bit for bit.
    """
    grid = obs.grid
    n, dim = grid.n, grid.dim
    h = np.fft.fftn(obs.indicator.astype(float)) * (grid.dx / grid.period) ** dim
    g = hermitian_symmetrize(grid, h)
    # g tiled over [0, 2n)^dim: the difference or sum d of two band modes has
    # every component in [-n, n), so it sits at flat index d @ weights + offset
    tile = np.tile(g, (2,) * dim)
    re, im = tile.real.ravel(), tile.imag.ravel()
    del tile
    weights = (2 * n) ** np.arange(dim - 1, -1, -1)
    offset = n * int(weights.sum())
    modes = _band_modes(grid, band)
    # negation mod n keeps a -n/2 component and flips the others
    neg = np.where(modes == -(n // 2), modes, -modes)
    key, neg_key = modes @ weights, neg @ weights
    first = key >= neg_key  # the self-conjugate modes and one mode per pair
    pair = key > neg_key
    mode = np.concatenate([key[first], key[pair]])
    sine = np.repeat([0, 1], [first.sum(), pair.sum()])
    shell = (modes**2).sum(axis=1)
    order = np.lexsort((sine, mode, np.concatenate([shell[first], shell[pair]])))
    mode, sine = mode[order], sine[order]
    # the tables of Re(phi g) stacked by phi = phi_k conj(phi_l) (first) and
    # phi = phi_k phi_l (second) over cos/cos, cos/sin, sin/cos, sin/sin:
    # each gather index is a row part plus a column part
    first_term = np.concatenate([re, im, -im, re])
    second_term = np.concatenate([re, -im, -im, -re])
    rows = 2 * len(re) * sine + mode + offset
    cols_first, cols_second = len(re) * sine - mode, len(re) * sine + mode
    size = len(mode)
    gram = np.zeros((size, size), order="F")
    width = max(1, _GRAM_CHUNK // size)
    for c0 in range(0, size, width):
        c1 = min(c0 + width, size)
        # one row per Gram column c, holding its rows r >= c0
        index = cols_first[c0:c1, None] + rows[c0:]
        block = first_term[index]
        np.add(cols_second[c0:c1, None], rows[c0:], out=index)
        block += second_term[index]
        block[:, :c1 - c0][np.tri(c1 - c0, k=-1, dtype=bool)] = 0.0  # r < c
        gram[c0:, c0:c1] = block.T
    selfconj = np.flatnonzero(np.isin(mode, key[key == neg_key]))
    gram[selfconj] *= np.sqrt(0.5)
    gram[:, selfconj] *= np.sqrt(0.5)
    return gram


def _gram_factor(obs, band: float) -> tuple:
    """Cholesky factor L (lower, in place of the Gram) of the band's shell-
    ordered Gram, and the largest order whose leading block is factored:
    the Gram's size, or one less than the first leading minor that is not
    numerically positive definite.  A band's basis is a leading block of
    this one, and so is its factor."""
    import scipy.linalg.lapack
    lower, info = scipy.linalg.lapack.dpotrf(
        _restriction_gram(obs, band), lower=1, clean=0, overwrite_a=1
    )
    return lower, len(lower) if info == 0 else info - 1


def _shrink(lower: np.ndarray, size: int) -> np.ndarray:
    """The leading size x size block of the F-ordered square ``lower``,
    moved in place to the front of its buffer: column j goes from offset
    j*n to j*size, in increasing j, so no column is overwritten before it
    is read.  Returns the block as an F-contiguous view of that buffer."""
    flat = lower.reshape(-1, order="F")
    n = len(lower)
    if size < n:
        for j in range(1, size):
            flat[j * size:(j + 1) * size] = flat[j * n:j * n + size]
    return flat[:size * size].reshape((size, size), order="F")


def _largest_eigenvalue(apply, size: int) -> float:
    """Largest eigenvalue of the symmetric positive definite operator
    ``apply`` on R^size, by Lanczos with full reorthogonalization (two
    passes) from a fixed pseudo-random start.

    Each step reads the largest Ritz value theta of the tridiagonal.  The
    iteration stops once theta grows by at most 1e-14*theta in one step,
    once the Krylov space is invariant, or at step ``size``, where the
    Krylov space is the whole space and theta is exact.  The start is
    random because a symmetric one (all ones, say) can be orthogonal to the
    top eigenvector of an operator that shares its symmetry.
    """
    import scipy.linalg
    start = make_generator(0, "lanczos_start").standard_normal(size)
    basis, alpha, beta = [start / np.linalg.norm(start)], [], []
    theta = 0.0
    while True:
        w = apply(basis[-1])
        alpha.append(basis[-1] @ w)
        known = np.array(basis)
        for _ in range(2):
            w -= (known @ w) @ known
        grown = float(scipy.linalg.eigvalsh(
            np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1),
            subset_by_index=[len(alpha) - 1] * 2, check_finite=False,
        )[0])
        norm = float(np.linalg.norm(w))
        if grown - theta <= 1e-14 * grown or norm <= 1e-14 * grown or len(basis) == size:
            return grown
        theta = grown
        beta.append(norm)
        basis.append(w / norm)


def ls_constant(obs, band: float, factor: tuple | None = None) -> float:
    """Sharp restriction constant for the band-limited space on obs.

    For every field f with spectrum in |k| <= band,
    ||f||^2 <= C * ||f||^2_E with C the value returned here: the inverse
    smallest eigenvalue of the real symmetric restriction Gram.  The Gram's
    Cholesky factor L is the leading block of ``factor``, the
    ``_gram_factor`` of any band at least this one (this band's own when
    None), copied once when it is larger than the band.  Lanczos on the
    inverse Gram (shift-invert at zero), applied as two BLAS-2 triangular
    solves with L and L^T, reads the smallest eigenvalue as 1/theta for the
    largest Ritz value theta, to round-off of order C*eps.  The bound is
    attained by the eigenvector of that eigenvalue.  Raises ThinSetError
    when the Gram is not numerically positive definite or the eigenvalue
    sits below the working-precision floor (the set is too thin at this
    band).
    """
    # imported here, its only use, so the CLI starts without it
    from scipy.linalg.blas import dtrsv
    if factor is None:
        factor = _gram_factor(obs, band)
    size = len(_band_modes(obs.grid, band))
    lower, factored = factor
    if size > len(lower):
        raise ValueError(f"a factor of {len(lower)} modes cannot hold band {band} ({size} modes)")
    if size > factored:
        raise ThinSetError(
            f"set too thin at band {band}: the Gram is not numerically positive definite"
        )
    # the block itself when the factor holds just this band, else one copy
    block = np.asfortranarray(lower[:size, :size])
    lam_min = 1.0 / _largest_eigenvalue(
        lambda v: dtrsv(block, dtrsv(block, v, lower=1), lower=1, trans=1, overwrite_x=1),
        size,
    )
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
    gram_modes: int  # the size of the one Gram built, the largest band's
    factored_modes: int  # the largest order of its leading block that factored

    def resolved(self):
        keep = np.array([s == "ok" for s in self.statuses])
        return self.bands[keep], self.constants[keep]


def ls_growth_fit(obs, bands) -> LSGrowthReport:
    """Scan restriction constants over band radii and fit log C vs band.

    Bands where the set is numerically unobservable are recorded with
    status 'too_thin' and excluded from the fit.  The largest band's Gram
    is built and factored once.  The bands are then walked from the largest
    down, and before each one the factor is shrunk in place to that band's
    leading block, so no band copies it; ``ls_constant`` solves on the block
    with BLAS-2 triangular solves.
    """
    bands = np.asarray(sorted(bands), dtype=float)
    constants = np.full(len(bands), np.nan)
    statuses = [""] * len(bands)
    lower, factored = _gram_factor(obs, max(bands, default=0.0))
    gram_modes = len(lower)
    for i in reversed(range(len(bands))):
        lower = _shrink(lower, len(_band_modes(obs.grid, bands[i])))
        try:
            constants[i] = ls_constant(obs, bands[i], (lower, factored))
            statuses[i] = "ok"
        except ThinSetError:
            statuses[i] = "too_thin"
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
        gram_modes=gram_modes,
        factored_modes=factored,
    )


@dataclass(frozen=True)
class RadiusFit:
    value: float
    status: str
    n_shells: int
    residual_rms: float


def _shell_maxima(field: SpectralField):
    grid = field.grid
    mags = np.abs(field.coeffs).ravel()
    # lattice radius per coefficient, rounded to integer shells
    unit = 2.0 * np.pi / grid.period
    radius = np.rint(grid.k_mag / unit).astype(int).ravel()
    n_shell = radius.max() + 1
    shell_max = np.zeros(n_shell)
    np.maximum.at(shell_max, radius, mags)
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
    )


@dataclass(frozen=True)
class TelescopeReport:
    lambda_: float
    closed_form: float
    log_closed_form: float


def telescope_constant(
    c_interp: float, theta: float, gap_exponent: float, total_time: float
) -> TelescopeReport:
    """Constant relating a final squared norm to its observed space-time
    mass, assembled by geometric refinement toward the initial time.

    The refinement times are l_m = lambda^(m-1) * T with
    lambda = ((C+1-theta)/(C+1))^(1/gap_exponent); that ratio is exactly
    what makes consecutive per-interval weights exp(-(C+1-theta)/
    (theta*l_{m+1}^delta)) chain together.  closed_form is the resulting
    constant C^(1/theta) * exp((C+1)/(theta*T^delta)), the full sum of the
    normalized telescoping weight differences.  The log version is reported
    for parameter ranges where the plain value overflows.
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
    with np.errstate(over="ignore"):
        closed = float(np.exp(log_closed))
    return TelescopeReport(
        lambda_=float(lam),
        closed_form=closed,
        log_closed_form=float(log_closed),
    )


def smallest_log_affine_dominator(qs, log_targets) -> float:
    """Smallest C >= 1 with log(C) + C*q >= L for every pair (q, L).

    The left side is increasing in C for positive q, so bisection applies.
    Used to absorb measured constants into single-constant bound shapes.
    With no pairs it returns 1.0, the floor of C; that is not a measurement.
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
    absorbed_constant: float


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
        absorbed_constant=float(c0),
    )


@dataclass(frozen=True)
class ObservabilityReport:
    theta: float
    gap_exponent: float
    member_ratios: np.ndarray
    empirical_ratio: float
    premise_constant: float
    # "none" when no recorded pair was read, else "energy" when the
    # energy-growth factor exceeds the interpolation constant, else
    # "interpolation"
    premise_source: str
    absorbed_constant: float
    telescoped_bound: float
    log_telescoped_bound: float
    energy_factor: float
    passed: bool
    degenerate_members: tuple


class _Pairs(NamedTuple):
    """The recorded pairs t_i < t_j inside (0, t_cap], one entry per pair of
    times, ordered by j, then i; each member's pairs at j count when its
    observed norm at t_j is nonzero."""

    q: np.ndarray  # 1/(t_j - t_i)^delta
    j: np.ndarray
    i: np.ndarray
    log_l2: np.ndarray  # one row per member
    log_l2e: np.ndarray
    live: np.ndarray  # l2_on_E != 0, one row per member
    count: int  # the number of member pairs at a live j
    skipped: np.ndarray  # the number of dead j > 0 of each member


def _interp_pairs(times, l2, l2_on_E, t_cap: float, delta: float) -> _Pairs:
    """The pairs of recorded times inside (0, t_cap] and each member's log
    norms there; ``l2`` and ``l2_on_E`` hold one row of recorded norms per
    member."""
    inside = (times > 0) & (times <= t_cap + 1e-12)
    ts = times[inside]
    l2, l2e = l2[:, inside], l2_on_E[:, inside]
    j, i = np.tril_indices(len(ts), -1)
    # one scalar (libm) power per pair of times: numpy's SIMD array power
    # may differ from it in the last bit.  Row r of this order is the slice
    # [r(r-1)/2, r(r+1)/2), filled in turn so no list spans every pair.
    q = np.empty(len(j))
    for r in range(1, len(ts)):
        q[r * (r - 1) // 2:r * (r + 1) // 2] = [gap**delta for gap in (ts[r] - ts[:r]).tolist()]
    np.divide(1.0, q, out=q)
    live = l2e != 0.0
    with np.errstate(divide="ignore"):
        log_l2, log_l2e = np.log(l2), np.log(l2e)
    # a live j pairs with every earlier record
    count = int(np.count_nonzero(live, axis=0) @ np.arange(len(ts)))
    return _Pairs(q, j, i, log_l2, log_l2e, live, count, np.count_nonzero(~live[:, 1:], axis=1))


def _worst_log_ratio(pairs: _Pairs, theta: float) -> np.ndarray:
    """The largest 2*(log l2_j - theta*log l2e_j - (1-theta)*log l2_i) over
    the members live at j, for each pair of times; -inf where none is.

    smallest_log_affine_dominator reads a target L only through fl(X - L),
    with X set by the pair of times, and rounding is monotone: the minimum
    over members of fl(X - L) is fl(X - max L), so it returns the same
    constant from these targets as from every member's pairs.  Members are
    folded in one at a time, and no array holds a value per member and pair.
    """
    worst = np.full(len(pairs.q), -np.inf)
    ratio = np.empty_like(worst)
    # a dead j's log l2e is -inf and can make NaN; where= keeps it out
    with np.errstate(invalid="ignore"):
        for log_l2, log_l2e, live in zip(pairs.log_l2, pairs.log_l2e, pairs.live):
            np.subtract((log_l2 - theta * log_l2e)[pairs.j], ((1.0 - theta) * log_l2)[pairs.i],
                        out=ratio)
            ratio *= 2.0
            np.maximum(worst, ratio, out=worst, where=live[pairs.j])
    return worst


def observability_experiment(traj, a, theta: float = 0.5) -> ObservabilityReport:
    """Measure final-norm vs observed-mass ratios and the bound that the
    refinement pipeline assembles from the same ensemble.

    ``traj`` is a batched run of the ensemble recorded with an observation
    set, from time 0 to T = ``traj.final_time``; the gap exponent is
    ``traj.s - 1``.  For each member the empirical ratio is
    ||u(T)||^2 / integral over (0,T) of ||u(t)||^2_E dt (trapezoid rule on
    the recorded cadence).  The pipeline side measures interpolation and
    energy-growth constants on recorded pairs inside (0, min(T,1)], absorbs
    them into a single-constant space-time shape, and telescopes it; for
    T > 1 the bound is extended by the measured energy-growth factor over
    [1, T].  Members with zero observed mass, or whose restricted norm
    vanishes at a record the fit reads, are reported as degenerate and
    excluded from the empirical ratio; a vanishing record adds no pairs.
    A run with no recorded pair inside (0, min(T,1)] bounds nothing: its
    bound is assembled from the dominator's floor alone, and it fails.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    if "l2_on_E" not in traj.diagnostics:
        raise ValueError("observability_experiment needs a run recorded with an observation set")
    if traj.diagnostics["l2"].ndim != 2:
        raise ValueError("observability_experiment takes a batched run, one row per member")
    total_time = traj.final_time
    delta = traj.s - 1.0
    t_cap = min(total_time, 1.0)

    l2, l2e = traj.diagnostics["l2"], traj.diagnostics["l2_on_E"]
    masses = np.trapezoid(l2e**2, traj.times, axis=-1)
    ratios = [float(row[-1] ** 2 / mass) if mass else np.inf for row, mass in zip(l2, masses)]
    pairs = _interp_pairs(traj.times, l2, l2e, t_cap, delta)
    inside = (traj.times > 0) & (traj.times <= t_cap + 1e-12)
    _, growth = _log_growth(l2[:, inside], traj.times[inside], 0.0)
    growth = growth[pairs.live[:, 1:]]
    energy_max = max(1.0, float(np.exp(np.max(growth)))) if growth.size else 1.0
    degenerate = [int(i) for i in np.flatnonzero((masses == 0) | (pairs.skipped > 0))]

    c_interp = smallest_log_affine_dominator(pairs.q, _worst_log_ratio(pairs, theta))
    c_premise = max(c_interp, energy_max)
    lift = spacetime_lift(c_premise, delta, theta, gap_range=(1e-6, t_cap))
    tele = telescope_constant(lift.absorbed_constant, theta, delta, t_cap)
    if total_time > 1.0:
        energy_factor = float(np.exp(2.0 * _sup_coeff(a, traj.times) * (total_time - 1.0)))
    else:
        energy_factor = 1.0
    log_bound = tele.log_closed_form + np.log(energy_factor)
    with np.errstate(over="ignore"):
        bound = float(np.exp(log_bound))

    finite = [r for i, r in enumerate(ratios) if i not in degenerate]
    empirical = max(finite) if finite else np.inf
    passed = bool(pairs.count) and bool(finite) and bool(np.log(empirical) <= log_bound)
    return ObservabilityReport(
        theta=float(theta),
        gap_exponent=float(delta),
        member_ratios=np.asarray(ratios),
        empirical_ratio=float(empirical),
        premise_constant=float(c_premise),
        premise_source=(
            "none" if not pairs.count else "interpolation" if c_interp >= energy_max else "energy"
        ),
        absorbed_constant=float(lift.absorbed_constant),
        telescoped_bound=bound,
        log_telescoped_bound=float(log_bound),
        energy_factor=energy_factor,
        passed=passed,
        degenerate_members=tuple(degenerate),
    )
