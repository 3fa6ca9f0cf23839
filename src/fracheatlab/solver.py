"""Exponential time differencing for the damped fractional heat equation.

The mild form of d/dt u + |D|^s u = a(t,x) u treats the dissipation exactly
through the semigroup factor exp(-dt*|k|^s) and quadratures the zero-order
term by ETD2RK (Cox & Matthews 2002), which is second order and evaluates
the product term at both endpoints of the step.  The phi weights
(e^z - 1)/z and (e^z - 1 - z)/z^2 switch to Taylor expansions below
|z| = 1e-4 where the direct formulas lose digits to cancellation.

The product a*u is formed in physical space with 2/3-rule truncation both
before and after, so quadratic aliasing never reaches retained modes.

A state may be a batch of fields on a leading member axis; every member
is advanced by the same transforms.  The weights are built once per
(grid, s, step size), and the dealiased physical coefficient is reused
within a run while a(t, .) samples to the same values.  The product terms
are formed in a workspace kept per state shape, so a step allocates only
the state it returns, and transformed in place by numpy's FFT kernels,
bound once per grid.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from . import norms
from .spectral import GridSpec, SpectralField

__all__ = [
    "IntegrationError",
    "Trajectory",
    "step",
    "simulate",
    "energy_certificate",
    "CertificateReport",
]

_PHI_TAYLOR_CUT = 1e-4
# the multiplicative slack an energy certificate allows
_CERT_SLACK = 1e-6
# simulate's diagnostics run per block of recorded states of at most this
# many bytes (or one larger state); 4 MB blocks raised the peak RSS of a
# 16-member recorded run by about 35%
_RECORD_BLOCK_BYTES = 256 * 1024


class IntegrationError(RuntimeError):
    """Raised when a step produces a non-finite state; ``member`` is the
    first non-finite member of a batch, None for a single field."""

    def __init__(self, step_index: int, time: float, member: int | None = None):
        self.step_index = step_index
        self.time = time
        self.member = member
        where = "" if member is None else f" in member {member}"
        super().__init__(
            f"integration produced non-finite values{where} at step {step_index} "
            f"(t = {time:.6g})"
        )


def phi1(z: np.ndarray) -> np.ndarray:
    """(e^z - 1)/z with a series branch near zero."""
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < _PHI_TAYLOR_CUT
    zs = np.where(small, 0.0, z)
    direct = np.divide(np.expm1(zs), zs, out=np.ones_like(z), where=~small)
    series = 1.0 + z / 2.0 + z**2 / 6.0 + z**3 / 24.0
    return np.where(small, series, direct)


def phi2(z: np.ndarray) -> np.ndarray:
    """(e^z - 1 - z)/z^2 with a series branch near zero."""
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < _PHI_TAYLOR_CUT
    zs = np.where(small, 1.0, z)
    direct = (np.expm1(zs) - zs) / zs**2
    series = 0.5 + z / 6.0 + z**2 / 24.0 + z**3 / 120.0
    return np.where(small, series, direct)


@functools.lru_cache(maxsize=8)
def _etd_weights(grid: GridSpec, s: float, h: float) -> tuple:
    """exp(z), h*phi1(z) and h*phi2(z) for z = -h*|k|^s."""
    z = -h * grid.k_mag**s
    return np.exp(z), h * phi1(z), h * phi2(z)


# a copy of the last samples of a and their dealiased physical values, cleared
# by simulate; keyed on content, so any earlier caller's hit is still right
_last_a = [None, None]


def _dealiased_a(grid: GridSpec, a_samples: np.ndarray) -> np.ndarray:
    """Physical values of dealias(a), recomputed only when the samples change."""
    last, a_phys = _last_a
    if last is None or not np.array_equal(last, a_samples):
        a_phys = np.fft.ifftn(np.fft.fftn(a_samples) * grid.dealias_mask)
        _last_a[:] = np.array(a_samples), a_phys
    return a_phys


# three complex buffers of the last state shape stepped, shared by every
# caller, so steps must not run concurrently; freed per-step temporaries let
# glibc trim and regrow the heap, about 20% of a 24-member n=256 ensemble's time
_work = [None, ()]


def _workspace(shape: tuple) -> tuple:
    if _work[0] != shape:
        _work[:] = shape, tuple(np.empty(shape, dtype=complex) for _ in range(3))
    return _work[1]


@functools.lru_cache(maxsize=8)
def _transforms(grid: GridSpec) -> tuple:
    """In-place transforms bit-identical to np.fft.fftn and ifftn over the
    grid's axes: the pocketfft kernels those run, one pass per axis, last axis
    first, factor 1 forward and 1/n inverse, bound once per grid."""
    from numpy.fft import _pocketfft_umath as kernels

    passes = [([(ax,), (), (ax,)], 1 / n) for ax, n in zip(grid.axes, grid.shape)][::-1]

    def forward(x):
        for axes, _ in passes:
            kernels.fft(x, 1, axes=axes, out=x)

    def inverse(x):
        for axes, inv_n in passes:
            kernels.ifft(x, inv_n, axes=axes, out=x)

    return forward, inverse


def _product_term(
    grid: GridSpec, a_phys: np.ndarray, coeffs: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Spectral coefficients of dealias(a) * dealias(u), dealiased again,
    computed in ``out``; each operand order is kept, since a complex
    product's rounding depends on it."""
    forward, inverse = _transforms(grid)
    mask = grid.dealias_mask
    np.multiply(coeffs, mask, out=out)
    inverse(out)
    np.multiply(a_phys, out, out=out)
    forward(out)
    return np.multiply(out, mask, out=out)


def step(
    u: SpectralField,
    a,
    s: float,
    t: float,
    dt: float,
) -> SpectralField:
    """Advance one step of size dt starting at time t; a batched u advances
    every member."""
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not s > 1:
        raise ValueError(f"s must exceed 1, got {s}")
    grid = u.grid
    if a.grid != grid:
        raise ValueError(f"the coefficient's grid {a.grid} is not the state's grid {grid}")
    semigroup, w1, w2 = _etd_weights(grid, s, dt)
    n0, predictor, work = _workspace(u.coeffs.shape)
    _product_term(grid, _dealiased_a(grid, a.sample(t)), u.coeffs, out=n0)
    np.multiply(semigroup, u.coeffs, out=predictor)
    np.multiply(w1, n0, out=work)
    predictor += work
    n1 = _product_term(grid, _dealiased_a(grid, a.sample(t + dt)), predictor, out=work)
    n1 -= n0  # the state is predictor + w2 * (n1 - n0)
    np.multiply(w2, n1, out=n1)
    return u.with_coeffs(predictor + n1)


@dataclass
class Trajectory:
    """Recorded history of one simulation.

    ``times`` holds the recorded instants (always including the initial and
    final time), ``states`` the corresponding spectral fields, and
    ``diagnostics`` one float array per recorded quantity ('l2' is always
    present; 'l2_on_E' appears when an observation set was attached).  A
    batched run stores batched states and one row of diagnostics per member,
    computed by the block of records and bit-identical to one call per state.
    """

    grid: GridSpec
    s: float
    times: np.ndarray
    states: list
    diagnostics: dict = field(default_factory=dict)

    @property
    def final_state(self) -> SpectralField:
        return self.states[-1]

    @property
    def final_time(self) -> float:
        return float(self.times[-1])

    def member(self, i: int) -> "Trajectory":
        """The single-field trajectory of member i of a batched run."""
        return replace(
            self,
            states=[f.with_coeffs(f.coeffs[i]) for f in self.states],
            diagnostics={k: v[i] for k, v in self.diagnostics.items()},
        )


def _step_schedule(T: float, dt: float) -> tuple:
    """simulate's steps over T: the number of full steps of dt, then the
    shortened last step, 0.0 when dt divides T."""
    n_full = int(np.floor(T / dt + 1e-12))
    remainder = T - n_full * dt
    if remainder < 1e-12 * max(dt, 1.0):
        remainder = 0.0
    return n_full, remainder


def simulate(
    u0: SpectralField,
    a,
    s: float,
    T: float,
    dt: float,
    record_every: int = 1,
    obs_set=None,
    store_states: bool = True,
) -> Trajectory:
    """Integrate from t = 0 to T, recording every ``record_every`` steps.

    The last step is shortened when dt does not divide T, so the final
    recorded time is exactly T.  Non-finite states abort with
    IntegrationError naming the offending step (and member, for a batch).
    A batched u0 advances every member with one step call per step.  Each
    diagnostic is one call (one inverse transform for 'l2_on_E') per block of
    records: as many states as _RECORD_BLOCK_BYTES holds, stacked, or one.
    """
    if T < 0:
        raise ValueError(f"T must be nonnegative, got {T}")
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")

    times, states, pending = [], [], []
    diag: dict = {"l2": []}
    if obs_set is not None:
        diag["l2_on_E"] = []

    def take_diagnostics():
        block = pending[0] if len(pending) == 1 else u0.with_coeffs(
            np.stack([f.coeffs for f in pending]).reshape(-1, *u0.grid.shape))
        # one row per record, one column per member of a batch
        shape = (len(pending),) + u0.coeffs.shape[: -u0.grid.dim]
        diag["l2"].append(np.reshape(norms.l2_norm(block), shape))
        if obs_set is not None:
            diag["l2_on_E"].append(np.reshape(norms.restricted_l2(block, obs_set), shape))
        pending.clear()

    def record(t, f):
        times.append(t)
        if store_states:
            states.append(f)
        pending.append(f)
        if (len(pending) + 1) * f.coeffs.nbytes > _RECORD_BLOCK_BYTES:
            take_diagnostics()

    n_full, remainder = _step_schedule(T, dt)
    total_steps = n_full + (1 if remainder > 0 else 0)

    _etd_weights.cache_clear()  # weights and dealiased a never outlive their run
    _last_a[:] = None, None
    u = u0
    record(0.0, u)
    for j in range(total_steps):
        h = dt if j < n_full else remainder
        t = j * dt
        u = step(u, a, s, t, h)
        if not np.all(np.isfinite(u.coeffs)):
            finite = np.isfinite(u.coeffs).reshape(-1, np.prod(u.grid.shape)).all(axis=1)
            raise IntegrationError(j + 1, t + h, int(np.argmin(finite)) if u.batched else None)
        is_last = j == total_steps - 1
        if is_last or (j + 1) % record_every == 0:
            record(T if is_last else t + h, u)
    if pending:
        take_diagnostics()

    rows = {k: np.ascontiguousarray(np.concatenate(v).T) for k, v in diag.items()}
    return Trajectory(
        grid=u0.grid,
        s=float(s),
        times=np.asarray(times, dtype=float),
        states=states,
        diagnostics=rows,
    )


@dataclass(frozen=True)
class CertificateReport:
    passed: bool
    sup_coeff: float
    worst_excess: float
    worst_pair: tuple


def _sup_coeff(a, times) -> float:
    """The largest |a(t, x)| over the grid at the given times."""
    return max(float(np.max(np.abs(a.sample(t)))) for t in times)


def _log_growth(l2, times, rate: float) -> tuple:
    """g = 2*log(l2) - 2*rate*t at each record, and for each record j > 0
    the largest growth max over i < j of g_j - g_i, which is
    2*log(l2_j/l2_i) - 2*rate*(t_j - t_i), from the prefix minimum of g.
    A zero record j has growth -inf; a nonzero one after a zero record has
    growth +inf.  The last axis runs over the records."""
    with np.errstate(divide="ignore"):
        g = 2.0 * np.log(l2) - 2.0 * rate * times
    later = g[..., 1:]
    return g, np.subtract(later, np.minimum.accumulate(g, axis=-1)[..., :-1],
                          out=np.full_like(later, -np.inf), where=later > -np.inf)


def energy_certificate(traj: Trajectory, a) -> CertificateReport:
    """Check the growth bound ||u(t2)||^2 <= e^{2*A*(t2-t1)} ||u(t1)||^2.

    A is the measured sup of |a| over the recorded times, and the bound must
    hold for every recorded pair t1 < t2 up to the multiplicative slack
    1e-6.  Violations indicate integrator error; the exact flow satisfies
    the bound with no slack at all.
    """
    if traj.diagnostics["l2"].ndim != 1:
        n = len(traj.diagnostics["l2"])
        raise ValueError(f"energy_certificate takes one trajectory, got a batch of {n}")
    sup_a = _sup_coeff(a, traj.times)
    g, excess = _log_growth(traj.diagnostics["l2"], traj.times, sup_a)
    worst_idx = int(np.argmax(excess)) if len(excess) else 0
    worst = float(excess[worst_idx]) if len(excess) else -np.inf
    j = worst_idx + 1
    i = int(np.argmin(g[:j]))
    return CertificateReport(
        passed=bool(worst <= np.log1p(_CERT_SLACK)),
        sup_coeff=sup_a,
        worst_excess=float(np.expm1(worst)) if worst < 700 else np.inf,
        worst_pair=(float(traj.times[i]), float(traj.times[j])) if len(excess) else (0.0, 0.0),
    )

