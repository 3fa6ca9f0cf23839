"""Integrator tests.

The damped fractional heat flow is linear and diagonal whenever the
coefficient is constant in space, which yields exact reference solutions
for every mode.  Those closed forms anchor the scheme before the
convergence-order measurements, which run here at small scale (the
acceptance suite repeats them on the contract grid).
"""

import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fracheatlab import norms, solver
from fracheatlab.spectral import GridSpec, SpectralField, transform, semigroup_apply
from fracheatlab.ensembles import make_ensemble, random_band_limited, single_mode
from fracheatlab.norms import l2_norm
from fracheatlab.rng import make_generator
from fracheatlab.coefficients import CoefficientField, builtin_coefficient
from fracheatlab.solver import (
    IntegrationError,
    phi1,
    phi2,
    step,
    simulate,
    energy_certificate,
    save_snapshot,
    load_snapshot,
)


def test_phi_weights_against_higher_precision():
    """Both weights switch to series below |z| = 1e-4; straddle the cut and
    compare against the direct formulas evaluated in extended precision."""
    z = np.array([-5.0, -1.0, -1e-3, -2e-4, -9e-5, -1e-6, 1e-6, 9e-5, 2e-4, 0.0])
    zl = z.astype(np.longdouble)
    with np.errstate(invalid="ignore"):
        ref1 = np.where(zl == 0, 1.0, np.expm1(zl) / np.where(zl == 0, 1.0, zl))
        ref2 = np.where(
            zl == 0, 0.5, (np.expm1(zl) - zl) / np.where(zl == 0, 1.0, zl) ** 2
        )
    assert np.allclose(phi1(z), ref1.astype(float), rtol=1e-13, atol=0)
    assert np.allclose(phi2(z), ref2.astype(float), rtol=1e-10, atol=0)


def test_zero_coefficient_reproduces_semigroup():
    # with a = 0 the ETD schemes apply the exact semigroup factor each step,
    # so any dt gives the analytic answer
    g = GridSpec(1, 64, 2 * np.pi)
    u0 = random_band_limited(g, make_generator(41, "semi"), band=10.0)
    a = builtin_coefficient("zero", g)
    for scheme in ("etd1", "etd2"):
        traj = simulate(u0, a, 1.6, 0.7, 0.1, scheme=scheme)
        exact = semigroup_apply(u0, 1.6, 0.7)
        err = np.max(np.abs(traj.final_state.coeffs - exact.coeffs))
        assert err < 1e-13


def test_constant_coefficient_closed_form_convergence():
    """du_k/dt = (c - |k|^s) u_k has the exact flow e^{(c-|k|^s)T}; the
    schemes converge to it at their design orders."""
    g = GridSpec(1, 32, 2 * np.pi)
    u0 = random_band_limited(g, make_generator(42, "const"), band=8.0)
    a = builtin_coefficient("constant", g, value=0.3)
    s, T = 2.0, 0.5
    exact = u0.coeffs * np.exp((0.3 - g.k_mag**s) * T)
    errors = {}
    for scheme in ("etd1", "etd2"):
        errs = []
        for dt in (4e-3, 2e-3, 1e-3):
            got = simulate(u0, a, s, T, dt, scheme=scheme, record_every=10**9)
            errs.append(np.linalg.norm(got.final_state.coeffs - exact))
        errors[scheme] = errs
    r1 = [errors["etd1"][0] / errors["etd1"][1], errors["etd1"][1] / errors["etd1"][2]]
    r2 = [errors["etd2"][0] / errors["etd2"][1], errors["etd2"][1] / errors["etd2"][2]]
    assert all(1.85 <= r <= 2.15 for r in r1), f"etd1 halving ratios {r1}"
    assert all(3.8 <= r <= 4.2 for r in r2), f"etd2 halving ratios {r2}"
    assert errors["etd2"][-1] < 1e-7


def test_scheme_is_linear_in_the_state():
    g = GridSpec(1, 32, 2 * np.pi)
    a = builtin_coefficient("cosine", g, amplitude=0.4, mode=1)
    u = random_band_limited(g, make_generator(43, "lin", 0), band=6.0)
    v = random_band_limited(g, make_generator(43, "lin", 1), band=6.0)
    combo = SpectralField(g, 2.0 * u.coeffs - 0.5 * v.coeffs)
    su = step(u, a, 1.5, 0.0, 0.01)
    sv = step(v, a, 1.5, 0.0, 0.01)
    sc = step(combo, a, 1.5, 0.0, 0.01)
    assert np.max(np.abs(sc.coeffs - (2.0 * su.coeffs - 0.5 * sv.coeffs))) < 1e-14


def test_restart_composition_with_time_dependent_coefficient():
    # one run to T must equal two half runs chained through t0, which fails
    # if the scheme mishandles the evaluation times of a(t, x)
    g = GridSpec(1, 32, 2 * np.pi)
    a = builtin_coefficient("time_cosine", g, amplitude=0.5, mode=1, time_freq=3.0)
    u0 = random_band_limited(g, make_generator(44, "restart"), band=6.0)
    full = simulate(u0, a, 1.5, 0.8, 0.005, record_every=10**9)
    half = simulate(u0, a, 1.5, 0.4, 0.005, record_every=10**9)
    rest = simulate(half.final_state, a, 1.5, 0.4, 0.005, record_every=10**9, t0=0.4)
    assert rest.final_time == pytest.approx(0.8, abs=1e-12)
    assert np.max(np.abs(rest.final_state.coeffs - full.final_state.coeffs)) < 1e-13


def test_short_final_step_hits_exact_time():
    g = GridSpec(1, 32, 2 * np.pi)
    a = builtin_coefficient("zero", g)
    u0 = single_mode(g, (2,))
    traj = simulate(u0, a, 2.0, 0.25, 0.1)  # 0.25 = 2*0.1 + 0.05
    assert traj.final_time == 0.25
    exact = np.exp(-0.25 * 4.0)
    assert traj.final_state.coeffs[2] == pytest.approx(exact, rel=1e-13)
    assert traj.times[0] == 0.0
    assert np.all(np.diff(traj.times) > 0)


def test_recording_and_diagnostics():
    g = GridSpec(1, 32, 2 * np.pi)
    a = builtin_coefficient("cosine", g, amplitude=0.3, mode=1)
    u0 = random_band_limited(g, make_generator(45, "diag"), band=6.0)
    ind = np.zeros(32, dtype=bool)
    ind[:16] = True
    traj = simulate(u0, a, 1.5, 0.2, 0.01, record_every=5, obs_set=ind)
    assert list(traj.diagnostics) == ["l2", "l2_on_E"]
    assert len(traj.times) == len(traj.diagnostics["l2"])
    assert np.all(traj.diagnostics["l2_on_E"] <= traj.diagnostics["l2"] + 1e-15)
    # record_every=5 on 20 steps: initial + 4 records
    assert len(traj.times) == 5
    lean = simulate(u0, a, 1.5, 0.2, 0.01, store_states=False)
    assert lean.states == []
    assert len(lean.diagnostics["l2"]) == len(lean.times)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_integration_error_reports_step():
    g = GridSpec(1, 32, 2 * np.pi)
    a = builtin_coefficient("constant", g, value=5000.0)
    u0 = single_mode(g, (1,))
    with pytest.raises(IntegrationError) as exc:
        simulate(u0, a, 1.5, 50.0, 0.5)
    assert exc.value.step_index >= 1
    assert exc.value.time > 0.0


def test_energy_certificate_accepts_and_rejects():
    g = GridSpec(1, 64, 2 * np.pi)
    a = builtin_coefficient("cosine", g, amplitude=0.5, mode=1)
    u0 = random_band_limited(g, make_generator(46, "cert"), band=10.0)
    traj = simulate(u0, a, 1.5, 1.0, 0.01, record_every=2)
    rep = energy_certificate(traj, a)
    assert rep.passed, f"excess {rep.worst_excess} at {rep.worst_pair}"
    assert rep.sup_coeff == pytest.approx(0.5, rel=1e-12)
    # inflate one recorded norm beyond the admissible growth: the scan
    # must locate a violating pair
    traj.diagnostics["l2"][-1] *= np.exp(2.0 * rep.sup_coeff) * 1.5
    bad = energy_certificate(traj, a)
    assert not bad.passed
    assert bad.worst_excess > 0.0
    t1, t2 = bad.worst_pair
    assert t1 < t2


def test_energy_certificate_refuses_a_batch():
    g = GridSpec(1, 32, 2 * np.pi)
    a = builtin_coefficient("cosine", g, amplitude=0.5, mode=1)
    traj = simulate(_batch(make_ensemble(g, 3, seed=46)), a, 1.5, 0.1, 0.02)
    with pytest.raises(ValueError, match="batch of 3"):
        energy_certificate(traj, a)
    assert energy_certificate(traj.member(1), a).passed


def test_snapshot_roundtrip(tmp_path):
    g = GridSpec(2, 16, 2 * np.pi)
    rng = make_generator(47, "snap")
    f = transform(g, rng.standard_normal(g.shape))
    path = tmp_path / "state.snap"
    save_snapshot(path, f, time=1.25)
    back, t = load_snapshot(path)
    assert t == 1.25
    assert back.grid == g
    assert np.array_equal(back.coeffs, f.coeffs)
    bad = tmp_path / "bad.snap"
    bad.write_bytes(b"XXXX" + bytes(64))
    with pytest.raises(ValueError):
        load_snapshot(bad)


def test_snapshot_rejects_wrong_lengths_and_batches(tmp_path):
    g = GridSpec(1, 8, 2 * np.pi)
    f = single_mode(g, (1,))
    path = tmp_path / "state.snap"
    save_snapshot(path, f)
    raw = path.read_bytes()
    assert len(raw) == 25 + 16 * 8
    for label, data in (
        ("truncated", raw[:-16]),
        ("one byte short", raw[:-1]),
        ("extended", raw + bytes(16)),
        ("one trailing byte", raw + b"\x00"),
        ("header only", raw[:25]),
        ("short header", raw[:12]),
        ("dim 3", raw[:4] + struct.pack("<BIdd", 3, 8, 2 * np.pi, 0.0) + raw[25:]),
        ("odd n", raw[:4] + struct.pack("<BIdd", 1, 9, 2 * np.pi, 0.0) + raw[25:]),
        ("zero period", raw[:4] + struct.pack("<BIdd", 1, 8, 0.0, 0.0) + raw[25:]),
        ("negative period", raw[:4] + struct.pack("<BIdd", 1, 8, -1.0, 0.0) + raw[25:]),
        ("infinite period", raw[:4] + struct.pack("<BIdd", 1, 8, np.inf, 0.0) + raw[25:]),
    ):
        bad = tmp_path / f"{label}.snap"
        bad.write_bytes(data)
        with pytest.raises(ValueError, match=re.escape(bad.name)):
            load_snapshot(bad)
    # the header has no member count, so a batch cannot be written
    batch = SpectralField(g, np.stack([f.coeffs, f.coeffs]))
    with pytest.raises(ValueError):
        save_snapshot(tmp_path / "batch.snap", batch)


_SNAP_RAW = (
    b"FHS1" + struct.pack("<BIdd", 1, 8, 2 * np.pi, 0.5)
    + np.arange(16, dtype="<f8").tobytes()
)


@given(st.one_of(
    st.integers(0, len(_SNAP_RAW) - 1).map(lambda i: _SNAP_RAW[:i]),
    st.tuples(st.integers(0, len(_SNAP_RAW) - 1), st.integers(1, 255)).map(
        lambda f: _SNAP_RAW[:f[0]] + bytes([_SNAP_RAW[f[0]] ^ f[1]]) + _SNAP_RAW[f[0] + 1:]),
    st.binary(min_size=1, max_size=32).map(lambda extra: _SNAP_RAW + extra),
))
def test_load_snapshot_corrupted_generated(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("snap") / "state.snap"
    path.write_bytes(data)
    try:
        fld, t = load_snapshot(path)
    except ValueError as exc:
        assert str(path) in str(exc)
        return
    # whatever loads is exactly what the file encodes
    again = path.with_name("again.snap")
    save_snapshot(again, fld, t)
    assert again.read_bytes() == data


def test_step_argument_validation():
    g = GridSpec(1, 32, 2 * np.pi)
    a = builtin_coefficient("zero", g)
    u = single_mode(g, (1,))
    with pytest.raises(ValueError):
        step(u, a, 1.0, 0.0, 0.01)  # s must exceed 1
    with pytest.raises(ValueError):
        step(u, a, 1.5, 0.0, 0.0)
    with pytest.raises(ValueError):
        step(u, a, 1.5, 0.0, 0.01, scheme="rk4")
    with pytest.raises(ValueError):
        simulate(u, a, 1.5, -1.0, 0.01)
    with pytest.raises(ValueError):
        simulate(u, a, 1.5, 1.0, 0.01, record_every=0)


def _oracle_step(u, a, s, t, dt, scheme):
    """The unplanned ETD step on one field: phi recomputed and a re-dealiased
    on every call."""
    grid = u.grid
    mask = grid.dealias_mask

    def product(a_samples, coeffs):
        u_phys = np.fft.ifftn(coeffs * mask)
        a_phys = np.fft.ifftn(np.fft.fftn(a_samples) * mask)
        return np.fft.fftn(a_phys * u_phys) * mask

    z = -dt * grid.k_mag**s
    n0 = product(a.sample(t), u.coeffs)
    predictor = np.exp(z) * u.coeffs + dt * phi1(z) * n0
    if scheme == "etd1":
        return u.with_coeffs(predictor)
    n1 = product(a.sample(t + dt), predictor)
    return u.with_coeffs(predictor + dt * phi2(z) * (n1 - n0))


def _oracle_states(u0, a, s, T, dt, scheme):
    """Every state of the oracle run on simulate's step schedule (n full
    steps of dt, then the shortened remainder)."""
    n_full = int(np.floor(T / dt + 1e-12))
    remainder = T - n_full * dt
    sizes = [dt] * n_full + ([remainder] if remainder >= 1e-12 * max(dt, 1.0) else [])
    states = [u0]
    for j, h in enumerate(sizes):
        states.append(_oracle_step(states[-1], a, s, j * dt, h, scheme))
    return states


def _batch(fields):
    return SpectralField(fields[0].grid, np.stack([f.coeffs for f in fields]))


@pytest.mark.parametrize("scheme", ["etd1", "etd2"])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("coeff", ["cosine", "time_cosine"])
def test_batched_simulate_equals_unplanned_oracle(scheme, dim, coeff):
    g = GridSpec(dim, 32 if dim == 1 else 16, 2 * np.pi)
    params = {"amplitude": 0.6, "mode": 2}
    if coeff == "time_cosine":
        params["time_freq"] = 3.0
    a = builtin_coefficient(coeff, g, **params)
    fields = make_ensemble(g, 3, seed=48, kind="mixed")
    T, dt = 0.25, 0.02  # twelve full steps, then a shortened one of 0.01
    traj = simulate(_batch(fields), a, 1.5, T, dt, scheme=scheme)
    assert traj.final_time == T
    for i, u0 in enumerate(fields):
        expect = _oracle_states(u0, a, 1.5, T, dt, scheme)
        assert len(traj.states) == len(expect) == 14
        for got, want in zip(traj.states, expect):
            assert np.array_equal(got.coeffs[i], want.coeffs)
        assert np.array_equal(traj.diagnostics["l2"][i], [l2_norm(f) for f in expect])


def test_batch_equals_single_runs():
    g = GridSpec(1, 32, 2 * np.pi)
    a = builtin_coefficient("time_cosine", g, amplitude=0.5, mode=1, time_freq=2.0)
    ind = np.zeros(32, dtype=bool)
    ind[:12] = True
    fields = make_ensemble(g, 4, seed=49, kind="mixed")
    kw = dict(record_every=3, obs_set=ind)
    batched = simulate(_batch(fields), a, 1.5, 0.3, 0.02, **kw)
    assert batched.diagnostics["l2"].shape == (4, len(batched.times))
    for i, u0 in enumerate(fields):
        single = simulate(u0, a, 1.5, 0.3, 0.02, **kw)
        member = batched.member(i)
        assert np.array_equal(member.times, single.times)
        assert set(member.diagnostics) == set(single.diagnostics) == {"l2", "l2_on_E"}
        for name, values in single.diagnostics.items():
            assert np.array_equal(member.diagnostics[name], values)
        for got, want in zip(member.states, single.states, strict=True):
            assert np.array_equal(got.coeffs, want.coeffs)


def test_in_place_refilled_evaluator_is_redealiased():
    # an evaluator that refills one buffer returns the same array object with
    # new contents; the dealiased coefficient must follow the contents
    g = GridSpec(1, 32, 2 * np.pi)
    x = g.x_axes[0]
    buf = np.empty(g.shape)

    def refill(t):
        buf[:] = 0.5 * np.cos(x) * (1.0 + 4.0 * t)
        return buf

    a = CoefficientField(g, refill)
    u0 = random_band_limited(g, make_generator(50, "refill"), band=6.0)
    traj = simulate(u0, a, 1.5, 0.2, 0.02)
    expect = _oracle_states(u0, a, 1.5, 0.2, 0.02, "etd2")
    assert np.array_equal(traj.final_state.coeffs, expect[-1].coeffs)


def test_phi_weights_built_once_per_step_size(monkeypatch):
    calls = {"phi1": 0, "phi2": 0}

    def counting(name, fn):
        def wrapped(z):
            calls[name] += 1
            return fn(z)
        return wrapped

    monkeypatch.setattr(solver, "phi1", counting("phi1", phi1))
    monkeypatch.setattr(solver, "phi2", counting("phi2", phi2))
    g = GridSpec(1, 32, 2 * np.pi)
    a = builtin_coefficient("cosine", g, amplitude=0.5, mode=1)
    u0 = _batch(make_ensemble(g, 3, seed=51))
    simulate(u0, a, 1.5, 0.2, 0.02)  # ten equal steps: one step size
    assert calls == {"phi1": 1, "phi2": 1}
    simulate(u0, a, 1.5, 0.25, 0.02)  # twelve steps of 0.02 and one of 0.01
    assert calls == {"phi1": 3, "phi2": 3}


def test_batched_records_take_one_transform_each(monkeypatch):
    # one diagnostic call, and so one inverse transform, per recorded time
    # for the whole batch, not one per member
    calls = {"l2_norm": 0, "restricted_l2": 0, "inverse": 0}

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    for name in calls:
        monkeypatch.setattr(norms, name, counting(name, getattr(norms, name)))
    g = GridSpec(1, 32, 2 * np.pi)
    a = builtin_coefficient("cosine", g, amplitude=0.5, mode=1)
    ind = np.zeros(32, dtype=bool)
    ind[:12] = True
    u0 = _batch(make_ensemble(g, 5, seed=53))
    traj = simulate(u0, a, 1.5, 0.2, 0.02, record_every=2, obs_set=ind)
    assert len(traj.times) == 6
    assert calls == {"l2_norm": 6, "restricted_l2": 6, "inverse": 6}
    assert traj.diagnostics["l2_on_E"].shape == (5, 6)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_batched_integration_error_names_member():
    # zero members stay zero under any a; only member 1 blows up
    g = GridSpec(1, 32, 2 * np.pi)
    a = builtin_coefficient("constant", g, value=5000.0)
    zero = SpectralField(g, np.zeros(32, dtype=complex))
    batch = _batch([zero, single_mode(g, (1,)), zero])
    with pytest.raises(IntegrationError, match="member 1") as exc:
        simulate(batch, a, 1.5, 50.0, 0.5)
    assert exc.value.member == 1
    assert exc.value.step_index >= 1
    with pytest.raises(IntegrationError) as single:
        simulate(single_mode(g, (1,)), a, 1.5, 50.0, 0.5)
    assert single.value.member is None
    assert single.value.step_index == exc.value.step_index
    assert "member" not in str(single.value)


@pytest.mark.parametrize("scheme", ["etd1", "etd2"])
@pytest.mark.parametrize("dim", [1, 2])
def test_warm_step_allocates_only_the_returned_state(scheme, dim):
    g = GridSpec(dim, 64 if dim == 1 else 16, 2 * np.pi)
    a = builtin_coefficient("cosine", g, amplitude=0.5, mode=1)
    u = _batch(make_ensemble(g, 16 if dim == 1 else 8, seed=54))
    for _ in range(2):  # weights, dealiased a and workspace
        u = step(u, a, 1.5, 0.0, 0.01, scheme=scheme)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = step(u, a, 1.5, 0.0, 0.01, scheme=scheme)
        kept, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    state = out.coeffs.nbytes
    # the state plus small change (a's samples, the field object); an unplanned
    # step peaks at four or five states
    assert state <= kept <= 1.1 * state
    assert peak <= 1.5 * state


@pytest.mark.parametrize("scheme", ["etd1", "etd2"])
def test_interleaved_shapes_equal_separate_runs(scheme):
    # the step workspace follows the state shape; steps that alternate between
    # shapes must neither reuse a stale buffer nor return one
    g1, g2 = GridSpec(1, 32, 2 * np.pi), GridSpec(2, 16, 2 * np.pi)
    runs = [
        (_batch(make_ensemble(g, m, seed=seed)), builtin_coefficient("cosine", g, **params))
        for g, m, seed, params in [
            (g1, 3, 55, {"amplitude": 0.5, "mode": 1}),
            (g1, 5, 56, {"amplitude": 0.7, "mode": 2}),
            (g2, 2, 57, {"amplitude": 0.5, "mode": 1}),
        ]
    ]
    histories = [[u0] for u0, _ in runs]
    for j in range(10):
        for (_, a), states in zip(runs, histories):
            states.append(step(states[-1], a, 1.5, j * 0.02, 0.02, scheme=scheme))
    for (u0, a), states in zip(runs, histories):
        traj = simulate(u0, a, 1.5, 0.2, 0.02, scheme=scheme)  # ten equal steps
        for got, want in zip(states, traj.states, strict=True):
            assert np.array_equal(got.coeffs, want.coeffs)
