"""Coefficient builders and class budgets."""

import numpy as np
import pytest

from fracheatlab.spectral import GridSpec
from fracheatlab.coefficients import (
    ClassA1,
    ClassA2,
    CoefficientField,
    BUILTIN_COEFFICIENTS,
    builtin_coefficient,
    verify_class,
)


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
