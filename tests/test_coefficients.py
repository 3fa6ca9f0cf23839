"""Coefficient builders and class budgets."""

import math

import numpy as np
import pytest

from fracheatlab.spectral import GridSpec
from fracheatlab import coefficients
from fracheatlab.coefficients import (
    ClassA1,
    ClassA2,
    ClassCheckReport,
    CoefficientField,
    BUILTIN_COEFFICIENTS,
    builtin_coefficient,
    verify_class,
)
from fracheatlab.norms import _alpha_factorial, _multi_indices, derivative_sup


def test_budget_values():
    a1 = ClassA1(C=2.0, R=0.5)
    assert a1.derivative_bound((3,)) == pytest.approx(2.0 * 6 / 0.5**3)
    assert a1.derivative_bound((1, 2)) == pytest.approx(2.0 * 2 / 0.5**3)
    a2 = ClassA2(C=1.5, M=3.0, kappa=0.5)
    assert a2.derivative_bound((2,)) == pytest.approx(1.5 * 9.0 * np.sqrt(2.0))
    with pytest.raises(ValueError):
        ClassA1(C=1.0, R=0.0)
    with pytest.raises(ValueError):
        ClassA2(C=1.0, M=1.0, kappa=1.0)


def test_builtin_registry_and_validation():
    g = GridSpec(1, 32, 2 * np.pi)
    assert set(BUILTIN_COEFFICIENTS) == {
        "zero", "constant", "cosine", "time_cosine", "fourier_decay",
    }
    with pytest.raises(ValueError):
        builtin_coefficient("nope", g)
    # modes must lie in [1, n/2): mode 16 on 32 points aliases
    for name, mode in (("cosine", 0), ("cosine", 16), ("time_cosine", 40)):
        with pytest.raises(ValueError, match="mode"):
            builtin_coefficient(name, g, mode=mode)
    assert builtin_coefficient("cosine", g, mode=15).class_info.M == pytest.approx(15.0)
    a = builtin_coefficient("constant", g, value=-2.5)
    assert np.all(a.sample(0.0) == -2.5)
    assert a.class_info.C == 2.5


def test_cosine_samples_and_class():
    g = GridSpec(1, 64, 2 * np.pi)
    a = builtin_coefficient("cosine", g, amplitude=0.5, mode=2)
    x = g.x_axes[0]
    assert np.allclose(a.sample(0.0), 0.5 * np.cos(2 * x))
    assert np.allclose(a.sample(7.3), a.sample(0.0))  # autonomous
    rep = verify_class(a, alpha_max=10)
    assert rep.passed, f"worst ratio {rep.worst_ratio} at {rep.worst_alpha}"


def test_time_cosine_travels_and_keeps_class():
    g = GridSpec(1, 64, 2 * np.pi)
    a = builtin_coefficient("time_cosine", g, amplitude=0.3, mode=1, time_freq=2.0)
    x = g.x_axes[0]
    assert np.allclose(a.sample(0.5), 0.3 * np.cos(x - 1.0))
    rep = verify_class(a, alpha_max=8, t_grid=(0.0, 0.4, 1.1))
    assert rep.passed


def test_fourier_decay_fitted_class():
    """The builder fits its own prefactor on low orders; the declared budget
    must then survive an independent re-measurement, including in 2D."""
    g = GridSpec(1, 128, 2 * np.pi)
    a = builtin_coefficient("fourier_decay", g, radius=1.0, seed=3)
    assert a.class_info.R == pytest.approx(0.5)
    rep = verify_class(a, alpha_max=12)
    assert rep.passed, f"worst ratio {rep.worst_ratio} at alpha {rep.worst_alpha}"
    # samples are real and deterministic for a fixed seed
    b = builtin_coefficient("fourier_decay", g, radius=1.0, seed=3)
    assert np.array_equal(a.sample(0.0), b.sample(0.0))
    assert not np.array_equal(
        a.sample(0.0),
        builtin_coefficient("fourier_decay", g, radius=1.0, seed=4).sample(0.0),
    )
    g2 = GridSpec(2, 32, 2 * np.pi)
    a2 = builtin_coefficient("fourier_decay", g2, radius=1.5, seed=4)
    assert verify_class(a2, alpha_max=8).passed


def test_verify_class_flags_a_lying_budget():
    g = GridSpec(1, 64, 2 * np.pi)
    x = g.x_axes[0]
    samples = np.cos(4 * x)
    liar = CoefficientField(
        g, lambda t: samples, ClassA1(C=1.0, R=2.0), "liar"
    )
    # first derivative already has sup 4 > C/R = 0.5, and the shortfall
    # widens with the order
    rep = verify_class(liar, alpha_max=4)
    assert not rep.passed
    assert sum(rep.worst_alpha) >= 1
    assert rep.worst_ratio > 8.0
    honest = CoefficientField(g, lambda t: samples, ClassA2(C=1.0, M=4.0, kappa=0.0))
    assert verify_class(honest, alpha_max=6).passed


def test_verify_class_zero_budget():
    g = GridSpec(1, 32, 2 * np.pi)
    a = builtin_coefficient("zero", g)
    assert verify_class(a, alpha_max=6).passed
    with pytest.raises(ValueError):
        verify_class(CoefficientField(g, lambda t: np.zeros(32)))


def test_verify_class_tolerates_nyquist_noise():
    """Differentiating 0.5*cos(x) twelve times on a fine grid produces
    rounding noise amplified by nyquist^12; the exact budget must still
    pass thanks to the absolute allowance."""
    g = GridSpec(1, 256, 2 * np.pi)
    a = builtin_coefficient("cosine", g, amplitude=0.5, mode=1)
    rep = verify_class(a, alpha_max=12)
    assert rep.passed, f"worst ratio {rep.worst_ratio} at alpha {rep.worst_alpha}"


def test_verify_class_rows_match_single_time_calls():
    """time_cosine changes with t, so every time is measured afresh and each
    row must equal a separate single-time check."""
    g = GridSpec(2, 32, 2 * np.pi)
    a = builtin_coefficient("time_cosine", g, amplitude=0.4, mode=2, time_freq=1.3)
    t_grid = (0.0, 0.5, 0.5, 1.0)
    rep = verify_class(a, alpha_max=8, t_grid=t_grid)
    assert len(rep.rows) == len(t_grid)
    for t, row in zip(t_grid, rep.rows):
        one = verify_class(a, alpha_max=8, t_grid=(t,))
        assert row == (t, one.worst_ratio, one.worst_alpha)
        assert one.rows == (row,)
    worst = max(rep.rows, key=lambda row: row[1])
    assert (rep.worst_t, rep.worst_ratio, rep.worst_alpha) == worst
    assert rep.passed == all(row[1] <= 1.0 for row in rep.rows)


def test_verify_class_reuses_identical_samples(monkeypatch):
    g = GridSpec(2, 32, 2 * np.pi)
    a = builtin_coefficient("fourier_decay", g, radius=1.5, seed=4)
    expected = verify_class(a, alpha_max=6)
    forward = []
    fftn = np.fft.fftn

    def counting_fftn(*args, **kwargs):
        forward.append(1)
        return fftn(*args, **kwargs)

    monkeypatch.setattr(np.fft, "fftn", counting_fftn)
    rep = verify_class(a, alpha_max=6, t_grid=(0.0, 0.5, 1.0, 1.5))
    # the fit has measured every alpha up to order 10 on these samples
    assert len(forward) == 0
    assert rep.rows == tuple((t, expected.worst_ratio, expected.worst_alpha)
                             for t in (0.0, 0.5, 1.0, 1.5))


def test_verify_class_sees_a_buffer_refilled_in_place():
    """An evaluator returning the same array each time, refilled in place,
    must not be mistaken for a time-independent one."""
    g = GridSpec(1, 64, 2 * np.pi)
    x = g.x_axes[0]
    buf = np.empty(64)

    def evaluate(t):
        buf[:] = np.cos(x) if t < 1.0 else np.cos(4 * x)
        return buf

    a = CoefficientField(g, evaluate, ClassA2(C=1.0, M=1.0, kappa=0.0))
    rep = verify_class(a, alpha_max=4, t_grid=(0.0, 2.0))
    assert rep.rows[0][1] <= 1.0 < rep.rows[1][1]
    assert not rep.passed and rep.worst_t == 2.0


def test_verify_class_measures_equal_samples_on_each_grid():
    """The same sample array on a torus of half the period has derivatives
    2^|alpha| larger: a check on one grid must not reuse the other's sups."""
    wide, narrow = GridSpec(1, 64, 2 * np.pi), GridSpec(1, 64, np.pi)
    samples = np.cos(3 * wide.x_axes[0])
    info = ClassA2(C=1.0, M=3.0, kappa=0.0)
    on_wide = CoefficientField(wide, lambda t: samples, info)
    on_narrow = CoefficientField(narrow, lambda t: samples, info)
    assert verify_class(on_wide, alpha_max=4).passed
    rep = verify_class(on_narrow, alpha_max=4)
    assert not rep.passed and rep.worst_ratio > 8.0
    assert verify_class(on_wide, alpha_max=4).passed


def test_verify_class_validates_its_arguments():
    g = GridSpec(2, 16, 2 * np.pi)
    a = builtin_coefficient("fourier_decay", g, radius=1.5, seed=4)
    with pytest.raises(ValueError, match="alpha_max"):
        verify_class(a, alpha_max=-1)
    with pytest.raises(ValueError, match="t_grid"):
        verify_class(a, t_grid=())


# --- exhaustive oracle: every multi-index measured, the loops kept whole ---

def _exhaustive_fit(grid, samples, fit_alpha_max, declared_r):
    alphas = _multi_indices(grid.dim, fit_alpha_max)
    fitted = 0.0
    for alpha, obs in zip(alphas, derivative_sup(grid, samples, alphas)):
        fitted = max(fitted, float(obs) * declared_r ** sum(alpha) / _alpha_factorial(alpha))
    return fitted


def _exhaustive_verify(a, alpha_max, t_grid, rel_tol=1e-9):
    alphas = _multi_indices(a.grid.dim, alpha_max)
    with np.errstate(over="ignore"):
        bounds = [a.class_info.derivative_bound(alpha) for alpha in alphas]
    unchecked, rows = set(), []
    for t in t_grid:
        samples = a.sample(t)
        sups = derivative_sup(a.grid, samples, alphas).tolist()
        sup0 = float(np.max(np.abs(samples)))
        noise_unit = 8.0 * np.finfo(float).eps * a.grid.n**a.grid.dim * sup0
        worst, worst_alpha = 0.0, (0,) * a.grid.dim
        with np.errstate(over="ignore"):
            for alpha, obs, bound in zip(alphas, sups, bounds):
                try:
                    allowance = noise_unit * a.grid.nyquist_axis ** sum(alpha)
                except OverflowError:
                    allowance = np.inf
                if bound == 0.0:
                    limit = max(1e-12, allowance)
                    ratio = 0.0 if obs <= limit else np.inf
                else:
                    limit = bound * (1.0 + rel_tol) + allowance
                    ratio = obs / limit
                if not np.isfinite(limit):
                    unchecked.add(alpha)
                if ratio > worst:
                    worst, worst_alpha = ratio, alpha
        rows.append((float(t), float(worst), worst_alpha))
    worst_t, worst, worst_alpha = max(rows, key=lambda row: row[1])
    return ClassCheckReport(
        passed=bool(worst <= 1.0), worst_ratio=worst, worst_alpha=worst_alpha, worst_t=worst_t,
        alpha_max=alpha_max, rel_tol=rel_tol, rows=tuple(rows), unchecked=len(unchecked),
    )


def _single_mode(grid, mode):
    """cos(k.x) on the grid, with its exact entire budget: every derivative
    sup equals the l1 bound of its spectrum."""
    k = [2 * np.pi * m / grid.period for m in mode]
    phase = sum(k_j * x for k_j, x in zip(k, grid.x_axes))
    samples = np.broadcast_to(np.cos(phase), grid.shape).copy()
    return CoefficientField(grid, lambda t: samples, ClassA2(C=1.0, M=max(k), kappa=0.0))


# (seed, radius, fit_alpha_max) of the fourier_decay oracle cases
# (1, 6.0, None) in 2D at n = 64 needs the second call: the fit's maximum is
# not at the multi-index whose bound scores highest
_DECAY_FITS = ((0, 0.5, None), (1, 6.0, None), (1, 1.0, 2), (2, 0.3, 6), (3, 3.0, 12))


def _oracle_cases(grid):
    dim, n = grid.dim, grid.n
    liar = np.broadcast_to(np.cos(4 * grid.x_axes[0]), grid.shape).copy()
    noise = np.random.default_rng(n).standard_normal(grid.shape)
    cases = [
        (builtin_coefficient("cosine", grid, amplitude=0.5, mode=3), 12, (0.0,)),
        (builtin_coefficient("time_cosine", grid, amplitude=0.4, mode=2, time_freq=1.3),
         10, (0.0, 0.5, 0.5, 1.0, 2.7)),
        (builtin_coefficient("zero", grid), 8, (0.0, 1.0)),
        (builtin_coefficient("constant", grid, value=-2.5), 8, (0.0,)),
        # the lying budget of test_verify_class_flags_a_lying_budget
        (CoefficientField(grid, lambda t: liar, ClassA1(C=1.0, R=2.0), "liar"), 4, (0.0,)),
        # white noise: its l1 bounds are loose, so many multi-indices are measured
        (CoefficientField(grid, lambda t: noise, ClassA1(C=1.0, R=0.3), "noise"), 8, (0.0,)),
        (_single_mode(grid, (3,) + (2,) * (dim - 1)), 12, (0.0,)),
        (_single_mode(grid, (n // 2 - 1,) * dim), 12, (0.0,)),
    ]
    for seed, radius, fit_alpha_max in _DECAY_FITS:
        cases.append((builtin_coefficient("fourier_decay", grid, radius=radius, seed=seed,
                                          fit_alpha_max=fit_alpha_max), 12, (0.0, 0.5)))
    return cases


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("n", [16, 32, 64])
def test_pruned_fit_equals_the_exhaustive_oracle(dim, n):
    """The fourier_decay fit measures only the multi-indices whose l1 bound
    can reach its maximum; C equals an exhaustive fit bit for bit.  n = 16
    puts weight on the Nyquist row."""
    grid = GridSpec(dim, n, 2 * np.pi)
    for seed, radius, fit_alpha_max in _DECAY_FITS:
        a = builtin_coefficient("fourier_decay", grid, radius=radius, seed=seed,
                                fit_alpha_max=fit_alpha_max)
        order = fit_alpha_max if fit_alpha_max is not None else (16 if dim == 1 else 10)
        assert a.class_info.C == _exhaustive_fit(grid, a.sample(0.0), order, radius / 2.0)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("n", [16, 32, 64])
def test_pruned_check_equals_the_exhaustive_oracle(dim, n):
    """verify_class measures only the multi-indices whose l1 bound can reach
    the worst ratio; its whole report equals an exhaustive check bit for
    bit, zero budgets, a lying budget and tight single modes included."""
    grid = GridSpec(dim, n, 2 * np.pi)
    for a, alpha_max, t_grid in _oracle_cases(grid):
        expected = _exhaustive_verify(a, alpha_max, t_grid)
        assert verify_class(a, alpha_max=alpha_max, t_grid=t_grid) == expected, a.name


@pytest.mark.parametrize("grid", [GridSpec(1, 32, 2 * np.pi), GridSpec(1, 16, 3.0),
                                  GridSpec(2, 16, 2 * np.pi), GridSpec(2, 32, 5.0)])
def test_l1_bounds_cover_every_sup(grid):
    """On random real samples every derivative sup up to order 12 is at most
    its l1 bound, and the half-spectrum table equals the full-spectrum sum."""
    samples = np.random.default_rng(grid.n + grid.dim).standard_normal(grid.shape)
    # any measurement of the samples keeps their half-spectrum modulus
    coefficients._worst(grid, samples, [(0,) * grid.dim], lambda alpha, sup: sup)
    table = coefficients._l1_table(grid, coefficients._measured[0][3], 12)
    alphas = _multi_indices(grid.dim, 12)
    for alpha, sup in zip(alphas, derivative_sup(grid, samples, alphas)):
        assert table[alpha] >= sup, alpha
    full = np.abs(np.fft.fftn(samples)) / grid.n**grid.dim
    for alpha in alphas:
        weight = math.prod(np.abs(k) ** a for k, a in zip(grid.k_axes, alpha))
        assert table[alpha] == pytest.approx(np.sum(full * weight), rel=1e-12), alpha


class _Budget:
    """A budget given multi-index by multi-index, 1e300 for the others."""

    def __init__(self, bounds):
        self.bounds = bounds

    def derivative_bound(self, alpha):
        return self.bounds.get(tuple(alpha), 1e300)


def test_a_tight_bound_just_above_the_first_measured_ratio_is_measured():
    """(1, 0) has a loose l1 bound, so it is measured first; (0, 1) has a
    tight one, and a ratio 1e-6 above (1, 0)'s.  A slack that let the
    bound fall below the sup it bounds would leave (0, 1) unmeasured."""
    g = GridSpec(2, 32, 2 * np.pi)
    x, y = g.x_axes
    samples = np.cos(2 * y) + 0.1 * (np.cos(x) + np.sin(3 * x) + np.cos(5 * x + 1.0))
    budget = _Budget({(0, 1): 2.0, (1, 0): derivative_sup(g, samples, (1, 0)) / (1.0 - 1e-6)})
    a = CoefficientField(g, lambda t: samples, budget, "two_scales")
    rep = verify_class(a, alpha_max=3)
    assert rep == _exhaustive_verify(a, 3, (0.0,))
    assert rep.worst_alpha == (0, 1) and 1.0 - 1e-6 < rep.worst_ratio < 1.0
