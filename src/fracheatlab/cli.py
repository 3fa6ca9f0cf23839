"""Command line experiment runner.

Subcommands cover one experiment each (simulate, ls-scan, interp-scan,
observability, radius-track, class-verify) plus ``assert-suite`` which
executes the built-in acceptance criteria and prints a table.  Every
experiment reads defaults, optionally merged with ``--config FILE`` (plain
``key = value`` lines) and ``--set key=value`` overrides, then writes into
the output directory:

* one or more CSV files with the measured quantities,
* ``summary.txt`` with ``key = value`` result lines,
* ``config.resolved.txt`` (canonical config) and ``metadata.json``
  (config hash, seed, library versions).

Outputs contain no timestamps, so a rerun with the same config and seed
produces byte-identical files.

A run has a config stage and a work stage.  The config stage checks every
key, type, range and choice of the resolved config against ``_SCHEMA``, one
entry per key, and the step count ``dynamics.T / dynamics.dt``, and builds the
experiment's inputs (grid, coefficient, set, initial data, bands, times);
it fails with a ``ConfigError`` naming the key or key group before any
work starts.  The work stage is the experiment's runner.  ``main`` alone
maps exceptions to exit codes: 1 config error, 2 numerical failure (one of
``_NUMERICAL``, its stage named on stderr), 3 property violation when run
with ``--assert``.  Any other exception is a bug and propagates.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import platform
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy

from . import __version__
from .config import (
    ConfigError,
    apply_overrides,
    canonical_text,
    config_hash,
    format_value,
    load_config,
)
from .spectral import GridSpec, SpectralField
from .coefficients import BUILTIN_COEFFICIENTS, builtin_coefficient, verify_class
from .thick_sets import SET_BUILDERS, build_set, save_bitmask
from .solver import IntegrationError, _step_schedule, energy_certificate, save_snapshot, simulate
from .ensembles import make_ensemble, random_analytic_decay, random_band_limited, single_mode
from .rng import make_generator
from .inequality_lab import (
    InsufficientDecayError,
    ThinSetError,
    _interp_pairs,
    ls_growth_fit,
    observability_experiment,
    radius_estimate,
    smallest_log_affine_dominator,
)
from . import acceptance

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_ASSERT = 3

_TWO_PI = 2.0 * np.pi

# the numerical failures that end a run with exit 2, and the stage each names
_NUMERICAL = {
    IntegrationError: "time integration",
    InsufficientDecayError: "radius estimation",
    ThinSetError: "restriction constants",
    FloatingPointError: "derivative measurement",
}

# the types a value may have, by its key's type; bool is an int subclass,
# so a bool value is accepted for bool keys only
_VALUE_TYPES = {bool: (bool,), int: (int,), float: (int, float)}
# the largest magnitude of a number, by its type: floats are finite and ints
# fit the 64-bit integers the builders convert them to
_LIMITS = {int: 2**63 - 1, float: sys.float_info.max}
# the most bands one ls-scan computes, each a dense eigensolve
_MAX_BANDS = 10_000
# the most steps dynamics.T / dynamics.dt may ask of the integrator
_MAX_STEPS = 10**9


class _Key(NamedTuple):
    """One config key.  A dict default or choices maps an experiment to its
    own value and "*" to the others.  A key with no default is a builder
    keyword that stays out of the config unless set; a key with an owner is
    accepted by that experiment only."""

    type: type
    default: object = None
    range: tuple = None  # (low, high, open)
    choices: object = None
    owner: str = None


def _for_experiment(value, experiment):
    return value.get(experiment, value["*"]) if isinstance(value, dict) else value


_SET_KINDS = tuple(SET_BUILDERS)
_SCHEMA = {
    "grid.dim": _Key(int, 1),
    "grid.n": _Key(int, {"*": 128, "ls-scan": 64, "radius-track": 256}),
    "grid.period": _Key(float, {"*": _TWO_PI, "ls-scan": 1.0, "radius-track": 8.0 * np.pi}),
    "coeff.name": _Key(str, "cosine", choices=tuple(BUILTIN_COEFFICIENTS)),
    "coeff.amplitude": _Key(float, 0.5),
    "coeff.mode": _Key(int, {"*": 1, "radius-track": 4}),
    "coeff.value": _Key(float),
    "coeff.time_freq": _Key(float),
    "coeff.radius": _Key(float),
    "coeff.seed": _Key(int),
    # the class budgets divide by alpha!, and 171! does not fit in a float
    "coeff.fit_alpha_max": _Key(int, range=(0, 170, False)),
    "dynamics.s": _Key(float, 1.5, (1.0, np.inf, True)),
    "dynamics.T": _Key(float, {"*": 1.0, "radius-track": 5.0}, (0.0, np.inf, True)),
    "dynamics.dt": _Key(float, 0.005, (0.0, np.inf, True)),
    "dynamics.scheme": _Key(str, "etd2", choices=("etd1", "etd2")),
    "run.record_every": _Key(int, {"*": 5, "radius-track": 20}, (1, np.inf, False)),
    "run.seed": _Key(int, 1234),
    # the experiments that measure on an observation set refuse "none"
    "set.kind": _Key(
        str, {"*": "periodic_slab", "simulate": "none", "radius-track": "none"},
        choices={"*": (*_SET_KINDS, "none"), "ls-scan": _SET_KINDS,
                 "interp-scan": _SET_KINDS, "observability": _SET_KINDS},
    ),
    "set.scale": _Key(float, {"*": _TWO_PI / 4.0, "ls-scan": 0.5}),
    "set.fraction": _Key(float, 0.5),
    "set.seed": _Key(int),
    "set.radius": _Key(float),
    "init.kind": _Key(str, "analytic_decay", choices=("mode", "band_limited", "analytic_decay")),
    "init.radius": _Key(float, 0.5),
    "init.band": _Key(float, 0.0),
    "init.mode": _Key(int, 1),
    "init.amplitude": _Key(float, 1.0),
    "ensemble.count": _Key(int, 4, (1, np.inf, False)),
    "ensemble.kind": _Key(str, "mixed"),
    "output.snapshot": _Key(bool, False),
    "output.save_set": _Key(bool, False),
    "ls.band_min": _Key(float, 0.0, (0.0, np.inf, False), owner="ls-scan"),
    "ls.band_max": _Key(float, 64.0, owner="ls-scan"),
    "ls.band_step": _Key(float, 4.0, (0.0, np.inf, True), owner="ls-scan"),
    "interp.theta_min": _Key(float, 0.1, owner="interp-scan"),
    "interp.theta_max": _Key(float, 0.9, owner="interp-scan"),
    "interp.theta_count": _Key(int, 9, (1, np.inf, False), owner="interp-scan"),
    "interp.cap": _Key(float, 1e8, owner="interp-scan"),
    "interp.assert_below": _Key(float, 0.5, owner="interp-scan"),
    "obs.theta": _Key(float, 0.5, (0.0, 1.0, True), owner="observability"),
    "radius.t_min": _Key(float, 0.1, owner="radius-track"),
    "radius.floor": _Key(float, 0.0, owner="radius-track"),
    "class.alpha_max": _Key(int, 8, (0, 170, False), owner="class-verify"),
    "class.rel_tol": _Key(float, 1e-9, (0.0, np.inf, False), owner="class-verify"),
    "class.t_values": _Key(str, "0.0", owner="class-verify"),
}


def _resolve_config(experiment: str, config_path, sets) -> dict:
    """The merged config, every key known and every value of its key's
    type, finite, in range, one of its choices and writable."""
    schema = {key: spec for key, spec in _SCHEMA.items() if spec.owner in (None, experiment)}
    cfg = {key: _for_experiment(spec.default, experiment) for key, spec in schema.items()
           if spec.default is not None}
    if config_path:
        cfg.update(load_config(config_path))
    cfg = apply_overrides(cfg, sets)
    for key, value in cfg.items():
        if key not in schema:
            raise ConfigError(f"unknown config key {key!r} for {experiment}")
        kind, bounds = schema[key].type, schema[key].range
        choices = _for_experiment(schema[key].choices, experiment)
        types = _VALUE_TYPES.get(kind)
        if types and (isinstance(value, bool) != (bool in types) or not isinstance(value, types)):
            raise ConfigError(f"{key} must be {kind.__name__}, got {value!r}")
        if types and kind is not bool and not abs(value) <= _LIMITS[type(value)]:
            raise ConfigError(f"{key} must be a finite 64-bit {kind.__name__}, got {value!r}")
        if bounds:
            lo, hi, is_open = bounds
            if not (lo < value < hi if is_open else lo <= value <= hi):
                ends = "()" if is_open else "[]"
                raise ConfigError(f"{key} {value!r} is not in {ends[0]}{lo}, {hi}{ends[1]}")
        if choices and value not in choices:
            raise ConfigError(f"{key} {value!r} is not one of {sorted(choices)}")
        try:
            format_value(value)
        except ConfigError as exc:
            raise ConfigError(f"{key}: {exc}") from None
    T, dt = cfg["dynamics.T"], cfg["dynamics.dt"]
    if not T / dt <= _MAX_STEPS:
        raise ConfigError(
            f"dynamics.T / dynamics.dt ({T!r} / {dt!r}) asks for more than {_MAX_STEPS} steps"
        )
    return cfg


def _grid_from(cfg) -> GridSpec:
    return GridSpec(
        dim=int(cfg["grid.dim"]),
        n=int(cfg["grid.n"]),
        period=float(cfg["grid.period"]),
    )


def _builder_args(builder, cfg, prefix) -> dict:
    """The builder's keyword arguments from cfg; keys under prefix that name
    parameters of other builders are dropped."""
    names = list(inspect.signature(builder).parameters)[1:]
    return {name: cfg[prefix + name] for name in names if prefix + name in cfg}


def _coeff_from(cfg, grid):
    name = cfg["coeff.name"]
    return builtin_coefficient(name, grid, **_builder_args(BUILTIN_COEFFICIENTS[name], cfg, "coeff."))


def _set_from(cfg, grid):
    kind = cfg["set.kind"]
    if kind == "none":
        return None
    return build_set(kind, grid, **_builder_args(SET_BUILDERS[kind], cfg, "set."))


def _initial_field(cfg, grid):
    kind = cfg["init.kind"]
    amplitude = float(cfg["init.amplitude"])
    if kind == "mode":
        mode = (int(cfg["init.mode"]),) + (0,) * (grid.dim - 1)
        return single_mode(grid, mode, amplitude)
    rng = make_generator(int(cfg["run.seed"]), stream="init")
    if kind == "band_limited":
        band = float(cfg["init.band"]) or grid.nyquist_axis / 4.0
        return random_band_limited(grid, rng, band)
    return random_analytic_decay(grid, rng, float(cfg["init.radius"]))


def _ensemble_from(cfg, grid):
    band = float(cfg["init.band"]) or None
    return make_ensemble(
        grid,
        int(cfg["ensemble.count"]),
        seed=int(cfg["run.seed"]),
        kind=str(cfg["ensemble.kind"]),
        band=band,
        decay_radius=float(cfg["init.radius"]),
    )


def _bands(cfg, grid) -> list:
    """Bands band_min + i*band_step up to band_max."""
    lo = float(cfg["ls.band_min"])
    hi = float(cfg["ls.band_max"])
    step = float(cfg["ls.band_step"])
    if hi < lo:
        raise ValueError(f"ls.band_max {hi!r} is below ls.band_min {lo!r}")
    if hi > grid.nyquist_radius + 1e-12:
        raise ValueError(
            f"ls.band_max {hi!r} exceeds the lattice Nyquist radius {grid.nyquist_radius!r}"
        )
    # bands lo + i*step <= hi; the slack keeps a band that lands on hi up to round-off
    spacings = (hi - lo) / step + 1e-9
    if not spacings < _MAX_BANDS:
        raise ValueError(f"ls.band_step {step!r} gives more than {_MAX_BANDS} bands")
    return list(np.arange(lo, hi + 0.5 * step, step)[: int(spacings) + 1])


def _t_values(cfg, grid) -> list:
    text = str(cfg["class.t_values"])
    t_values = [float(v) for v in text.split(",")]
    if not np.all(np.isfinite(t_values)):
        raise ValueError(f"class.t_values {text!r} holds a non-finite time")
    return t_values


# the builder of each input, named by the key group it reads
_BUILDERS = {
    "coeff": _coeff_from,
    "set": _set_from,
    "init": _initial_field,
    "ensemble": _ensemble_from,
    "ls": _bands,
    "class": _t_values,
}
# the inputs each experiment's runner reads, besides the grid
_INPUTS = {
    "simulate": ("coeff", "set", "init"),
    "ls-scan": ("set", "ls"),
    "interp-scan": ("coeff", "set", "ensemble"),
    "observability": ("coeff", "set", "ensemble"),
    "radius-track": ("coeff", "init"),
    "class-verify": ("coeff", "class"),
    "assert-suite": (),
}


def _build_inputs(experiment: str, cfg) -> dict:
    """The grid and the experiment's inputs.  A builder's ValueError, or an
    OverflowError from a setting past the float range, is a config error in
    the key group that builder reads."""
    group = "grid"
    try:
        inputs = {"grid": _grid_from(cfg)}
        for group in _INPUTS[experiment]:
            inputs[group] = _BUILDERS[group](cfg, inputs["grid"])
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid {group}.* settings: {exc}") from exc
    return inputs


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([
                repr(float(v)) if isinstance(v, (int, float, np.floating)) and not isinstance(v, bool)
                else str(v)
                for v in row
            ])


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_results(outdir: Path, experiment: str, cfg, lines) -> None:
    """summary.txt with the result lines, config.resolved.txt and metadata.json."""
    text = [f"experiment = {experiment}", f"config_sha256 = {config_hash(cfg)}"]
    text += [f"{key} = {_fmt(value)}" for key, value in lines]
    (outdir / "summary.txt").write_text("\n".join(text) + "\n", encoding="utf-8")
    (outdir / "config.resolved.txt").write_text(canonical_text(cfg), encoding="utf-8")
    meta = {
        "experiment": experiment,
        "config_sha256": config_hash(cfg),
        "seed": int(cfg.get("run.seed", 0)),
        "package_version": __version__,
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
    }
    (outdir / "metadata.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _simulate_stage(u0, a, cfg, obs, store_states=False):
    return simulate(
        u0,
        a,
        float(cfg["dynamics.s"]),
        float(cfg["dynamics.T"]),
        float(cfg["dynamics.dt"]),
        scheme=str(cfg["dynamics.scheme"]),
        record_every=int(cfg["run.record_every"]),
        obs_set=obs,
        store_states=store_states,
    )


def run_simulate(cfg, inputs, outdir: Path, assert_mode: bool) -> int:
    a, obs = inputs["coeff"], inputs["set"]
    traj = _simulate_stage(inputs["init"], a, cfg, obs, store_states=True)
    _write_csv(
        outdir / "trajectory.csv",
        ["t", *traj.diagnostics],
        zip(traj.times, *traj.diagnostics.values()),
    )
    if cfg["output.snapshot"]:
        save_snapshot(outdir / "final_state.snap", traj.final_state, traj.final_time)
    if obs is not None and cfg["output.save_set"]:
        save_bitmask(outdir / "observation_set.mask", obs)
    cert = energy_certificate(traj, a)
    lines = [
        ("final_time", traj.final_time),
        ("final_l2", float(traj.diagnostics["l2"][-1])),
        ("initial_l2", float(traj.diagnostics["l2"][0])),
        ("records", len(traj.times)),
        ("energy_certificate_passed", cert.passed),
        ("energy_certificate_sup_coeff", cert.sup_coeff),
        ("energy_certificate_worst_excess", cert.worst_excess),
    ]
    _write_results(outdir, "simulate", cfg, lines)
    print(f"wrote {outdir / 'trajectory.csv'}")
    if assert_mode and not cert.passed:
        print("assert: energy certificate violated", file=sys.stderr)
        return EXIT_ASSERT
    return EXIT_OK


def run_ls_scan(cfg, inputs, outdir: Path, assert_mode: bool) -> int:
    obs = inputs["set"]
    fit = ls_growth_fit(obs, inputs["ls"])
    rows = [
        (band, const, status)
        for band, const, status in zip(fit.bands, fit.constants, fit.statuses)
    ]
    _write_csv(outdir / "ls_constants.csv", ["band", "constant", "status"], rows)
    resolved_b, resolved_c = fit.resolved()
    lines = [
        ("set_thickness", obs.gamma),
        ("set_volume_fraction", obs.volume_fraction),
        ("bands_resolved", len(resolved_b)),
        ("log_fit_slope", fit.slope),
        ("log_fit_intercept", fit.intercept),
        ("log_fit_residual_rms", fit.residual_rms),
    ]
    _write_results(outdir, "ls-scan", cfg, lines)
    print(f"wrote {outdir / 'ls_constants.csv'}")
    if assert_mode:
        mono = all(
            resolved_c[i] <= resolved_c[i + 1] * (1.0 + 1e-9)
            for i in range(len(resolved_c) - 1)
        )
        if len(resolved_c) < 2 or not mono:
            print("assert: restriction constants not resolvable/monotone", file=sys.stderr)
            return EXIT_ASSERT
    return EXIT_OK


def _read_horizon(T: float, dt: float, record_every: int, t_cap: float) -> tuple:
    """(horizon, steps) of a run that ends at the last record inside
    (0, t_cap]: it takes the full run's first steps and records the same
    times, bit for bit.  The full horizon stays when the full run's last
    record is inside, or when the float horizon would not give exactly
    those steps."""
    n_full, remainder = _step_schedule(T, dt)
    steps = n_full + (1 if remainder > 0 else 0)
    if T <= t_cap + 1e-12:
        return T, steps
    # step j < steps records at time (j - 1)*dt + dt when record_every divides j
    j = min(steps - 1, int((t_cap + 1e-12) / dt) + 1) // record_every * record_every
    while j > 0 and (j - 1) * dt + dt > t_cap + 1e-12:
        j -= record_every
    horizon = (j - 1) * dt + dt if j else 0.0
    if _step_schedule(horizon, dt) != (j, 0.0):
        return T, steps
    return horizon, j


def run_interp_scan(cfg, inputs, outdir: Path, assert_mode: bool) -> int:
    t_cap = min(float(cfg["dynamics.T"]), 1.0)
    delta = float(cfg["dynamics.s"]) - 1.0
    # only records inside (0, t_cap] are read, so the run stops at the last
    horizon, steps = _read_horizon(
        float(cfg["dynamics.T"]), float(cfg["dynamics.dt"]), int(cfg["run.record_every"]), t_cap
    )
    batch = SpectralField(inputs["grid"], np.stack([f.coeffs for f in inputs["ensemble"]]))
    traj = _simulate_stage(batch, inputs["coeff"], {**cfg, "dynamics.T": horizon}, inputs["set"])
    qs, log_l2j, log_l2ej, log_l2i, skipped = _interp_pairs(
        traj.times, traj.diagnostics["l2"], traj.diagnostics["l2_on_E"], t_cap, delta
    )
    degenerate = int(np.sum(skipped))

    n_theta = int(cfg["interp.theta_count"])
    thetas = np.linspace(
        float(cfg["interp.theta_min"]), float(cfg["interp.theta_max"]), n_theta
    )
    cap = float(cfg["interp.cap"])
    rows = []
    constants = []
    for theta in thetas:
        if degenerate:
            rows.append((theta, np.inf, "unbounded"))
            constants.append(np.inf)
            continue
        log_ratio = 2.0 * (log_l2j - theta * log_l2ej - (1.0 - theta) * log_l2i)
        c_theta = smallest_log_affine_dominator(qs, log_ratio)
        constants.append(c_theta)
        rows.append((theta, c_theta, "ok" if c_theta <= cap else "above_cap"))
    _write_csv(outdir / "interp_constants.csv", ["theta", "constant", "status"], rows)
    breakdown = next(
        (thetas[i] for i, c in enumerate(constants) if not c <= cap), None
    )
    lines = [
        ("pairs", len(qs)),
        ("degenerate_records", degenerate),
        ("breakdown_theta", "none" if breakdown is None else breakdown),
        ("constant_min", float(np.min(constants))),
        ("constant_max", float(np.max(constants))),
        ("integrated_to", traj.final_time),
        ("steps", steps),
        ("constants_at_floor", sum(c == 1.0 for c in constants)),
    ]
    _write_results(outdir, "interp-scan", cfg, lines)
    print(f"wrote {outdir / 'interp_constants.csv'}")
    if assert_mode:
        limit = float(cfg["interp.assert_below"])
        bad = [
            t for t, c in zip(thetas, constants)
            if t <= limit + 1e-12 and not np.isfinite(c)
        ]
        if bad:
            print(
                f"assert: interpolation constant unbounded at theta {bad[0]:g}",
                file=sys.stderr,
            )
            return EXIT_ASSERT
    return EXIT_OK


def run_observability(cfg, inputs, outdir: Path, assert_mode: bool) -> int:
    rep = observability_experiment(
        inputs["coeff"],
        float(cfg["dynamics.s"]),
        inputs["set"],
        float(cfg["dynamics.T"]),
        float(cfg["dynamics.dt"]),
        inputs["ensemble"],
        theta=float(cfg["obs.theta"]),
        record_every=int(cfg["run.record_every"]),
        scheme=str(cfg["dynamics.scheme"]),
    )
    rows = [(i, r) for i, r in enumerate(rep.member_ratios)]
    _write_csv(outdir / "observability.csv", ["member", "ratio"], rows)
    lines = [
        ("empirical_ratio", rep.empirical_ratio),
        ("premise_constant", rep.premise_constant),
        ("premise_source", rep.premise_source),
        ("absorbed_constant", rep.absorbed_constant),
        ("telescoped_bound", rep.telescoped_bound),
        ("log_telescoped_bound", rep.log_telescoped_bound),
        ("energy_factor", rep.energy_factor),
        ("degenerate_members", ",".join(map(str, rep.degenerate_members)) or "none"),
        ("bounded", rep.passed),
    ]
    _write_results(outdir, "observability", cfg, lines)
    print(f"wrote {outdir / 'observability.csv'}")
    if assert_mode and not rep.passed:
        print("assert: empirical ratio exceeds the assembled bound", file=sys.stderr)
        return EXIT_ASSERT
    return EXIT_OK


def run_radius_track(cfg, inputs, outdir: Path, assert_mode: bool) -> int:
    traj = _simulate_stage(inputs["init"], inputs["coeff"], cfg, None, store_states=True)
    t_min = float(cfg["radius.t_min"])
    rows = []
    tracked = []
    for t, state in zip(traj.times, traj.states):
        if t < t_min - 1e-12:
            continue
        fit = radius_estimate(state)
        rows.append((t, fit.value, fit.status, fit.n_shells, fit.residual_rms))
        if fit.status == "ok":
            tracked.append(fit.value)
    _write_csv(
        outdir / "radius_track.csv",
        ["t", "radius", "status", "n_shells", "residual_rms"],
        rows,
    )
    lines = [
        ("tracked_times", len(rows)),
        ("radius_min", float(np.min(tracked)) if tracked else np.inf),
        ("radius_max", float(np.max(tracked)) if tracked else np.inf),
    ]
    _write_results(outdir, "radius-track", cfg, lines)
    print(f"wrote {outdir / 'radius_track.csv'}")
    if assert_mode:
        floor = float(cfg["radius.floor"])
        if not tracked or min(tracked) < floor:
            print("assert: analytic radius fell below the floor", file=sys.stderr)
            return EXIT_ASSERT
    return EXIT_OK


def run_class_verify(cfg, inputs, outdir: Path, assert_mode: bool) -> int:
    a = inputs["coeff"]
    alpha_max = int(cfg["class.alpha_max"])
    rel_tol = float(cfg["class.rel_tol"])
    rep = verify_class(a, alpha_max=alpha_max, t_grid=inputs["class"], rel_tol=rel_tol)
    rows = [
        (t, ratio <= 1.0, ratio, "|".join(map(str, alpha))) for t, ratio, alpha in rep.rows
    ]
    _write_csv(
        outdir / "class_check.csv", ["t", "passed", "worst_ratio", "worst_alpha"], rows
    )
    lines = [
        ("coefficient", a.name),
        ("alpha_max", alpha_max),
        ("passed", rep.passed),
        ("worst_ratio", rep.worst_ratio),
    ]
    _write_results(outdir, "class-verify", cfg, lines)
    print(f"wrote {outdir / 'class_check.csv'}")
    if assert_mode and not rep.passed:
        print("assert: measured derivatives exceed the declared class", file=sys.stderr)
        return EXIT_ASSERT
    return EXIT_OK


def run_assert_suite(cfg, inputs, outdir: Path, assert_mode: bool) -> int:
    results = acceptance.run_all()
    width = max(len(r.name) for r in results)
    print(f" # {'criterion'.ljust(width)}  status  time")
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.index:2d} {r.name.ljust(width)}  {status}   {r.elapsed:6.1f}s  {r.detail}")
    n_pass = sum(r.passed for r in results)
    print(f"{n_pass}/{len(results)} criteria passed")
    lines = [(r.name, bool(r.passed)) for r in results]
    lines.append(("criteria_passed", n_pass))
    _write_results(outdir, "assert-suite", cfg, lines)
    return EXIT_OK if n_pass == len(results) else EXIT_ASSERT


_RUNNERS = {
    "simulate": run_simulate,
    "ls-scan": run_ls_scan,
    "interp-scan": run_interp_scan,
    "observability": run_observability,
    "radius-track": run_radius_track,
    "class-verify": run_class_verify,
    "assert-suite": run_assert_suite,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracheatlab",
        description="Measured-inequality laboratory for damped fractional heat dynamics",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    helps = {
        "simulate": "integrate one initial state and write its diagnostics",
        "ls-scan": "restriction constants of an observation set over band radii",
        "interp-scan": "measured interpolation constants over a theta grid",
        "observability": "empirical final-norm/observed-mass ratios vs the assembled bound",
        "radius-track": "analytic radius estimates along one trajectory",
        "class-verify": "check a coefficient against its declared derivative class",
        "assert-suite": "run the built-in acceptance criteria and print a table",
    }
    for name in _RUNNERS:
        p = sub.add_parser(name, help=helps[name])
        p.add_argument("--config", help="key = value config file")
        p.add_argument(
            "--set",
            dest="sets",
            action="append",
            metavar="KEY=VALUE",
            help="override one config entry (repeatable)",
        )
        p.add_argument(
            "--output", default="fracheatlab_out", help="output directory"
        )
        p.add_argument(
            "--assert",
            dest="assert_mode",
            action="store_true",
            help="exit 3 when the experiment's property check fails",
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    outdir = Path(args.output)
    try:
        cfg = _resolve_config(args.experiment, args.config, args.sets)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output dir: {exc}") from exc
        inputs = _build_inputs(args.experiment, cfg)
        return _RUNNERS[args.experiment](cfg, inputs, outdir, args.assert_mode)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except tuple(_NUMERICAL) as exc:
        stage = next(stage for kind, stage in _NUMERICAL.items() if isinstance(exc, kind))
        print(f"numerical failure in {stage}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
