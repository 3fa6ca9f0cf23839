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
produces byte-identical files.  Exit codes: 0 success, 1 invalid config,
2 numerical failure (stage named on stderr), 3 property violation when
run with ``--assert``.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .config import (
    ConfigError,
    apply_overrides,
    canonical_text,
    config_hash,
    load_config,
)
from .spectral import GridSpec, SpectralField
from .norms import l2_norm
from .coefficients import BUILTIN_COEFFICIENTS, builtin_coefficient, verify_class
from .thick_sets import SET_BUILDERS, build_set, save_bitmask
from .solver import IntegrationError, energy_certificate, simulate, save_snapshot, trajectory_to_csv
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


class NumericalFailure(RuntimeError):
    def __init__(self, stage: str, original: Exception):
        super().__init__(f"numerical failure in {stage}: {original}")
        self.stage = stage
        self.original = original


_COMMON_DEFAULTS = {
    "grid.dim": 1,
    "grid.n": 128,
    "grid.period": _TWO_PI,
    "coeff.name": "cosine",
    "coeff.amplitude": 0.5,
    "coeff.mode": 1,
    "dynamics.s": 1.5,
    "dynamics.T": 1.0,
    "dynamics.dt": 0.005,
    "dynamics.scheme": "etd2",
    "run.record_every": 5,
    "run.seed": 1234,
    "set.kind": "periodic_slab",
    "set.scale": _TWO_PI / 4.0,
    "set.fraction": 0.5,
    "init.kind": "analytic_decay",
    "init.radius": 0.5,
    "init.band": 0.0,
    "init.mode": 1,
    "init.amplitude": 1.0,
    "ensemble.count": 4,
    "ensemble.kind": "mixed",
    "output.snapshot": False,
    "output.save_set": False,
}

_EXPERIMENT_DEFAULTS = {
    "simulate": {"set.kind": "none"},
    "ls-scan": {
        "grid.n": 64,
        "grid.period": 1.0,
        "set.scale": 0.5,
        "ls.band_min": 0.0,
        "ls.band_max": 64.0,
        "ls.band_step": 4.0,
    },
    "interp-scan": {
        "interp.theta_min": 0.1,
        "interp.theta_max": 0.9,
        "interp.theta_count": 9,
        "interp.cap": 1e8,
        "interp.assert_below": 0.5,
    },
    "observability": {"obs.theta": 0.5},
    "radius-track": {
        "grid.n": 256,
        "grid.period": 8.0 * np.pi,
        "coeff.mode": 4,
        "dynamics.T": 5.0,
        "run.record_every": 20,
        "set.kind": "none",
        "radius.t_min": 0.1,
        "radius.floor": 0.0,
    },
    "class-verify": {
        "class.alpha_max": 8,
        "class.rel_tol": 1e-9,
        "class.t_values": "0.0",
    },
    "assert-suite": {},
}

# coefficient builder parameters accepted per builder, for key validation
_COEFF_KEYS = {
    "coeff.name", "coeff.value", "coeff.amplitude", "coeff.mode",
    "coeff.time_freq", "coeff.radius", "coeff.seed", "coeff.fit_alpha_max",
}
_SET_KEYS = {
    "set.kind", "set.scale", "set.fraction", "set.seed", "set.radius",
}
_INIT_KEYS = {
    "init.kind", "init.radius", "init.band", "init.mode", "init.amplitude",
}


def _allowed_keys(experiment: str) -> set:
    keys = set(_COMMON_DEFAULTS) | set(_EXPERIMENT_DEFAULTS[experiment])
    keys |= _COEFF_KEYS | _SET_KEYS | _INIT_KEYS
    return keys


def _resolve_config(experiment: str, config_path, sets) -> dict:
    cfg = dict(_COMMON_DEFAULTS)
    cfg.update(_EXPERIMENT_DEFAULTS[experiment])
    if config_path:
        cfg.update(load_config(config_path))
    cfg = apply_overrides(cfg, sets)
    allowed = _allowed_keys(experiment)
    for key in cfg:
        if key.startswith("acceptance."):
            continue
        if key not in allowed:
            raise ConfigError(f"unknown config key {key!r} for {experiment}")
    return cfg


def _grid_from(cfg) -> GridSpec:
    return GridSpec(
        dim=int(cfg["grid.dim"]),
        n=int(cfg["grid.n"]),
        period=float(cfg["grid.period"]),
    )


def _accepted_params(func, cfg, prefix, skip) -> dict:
    """Keys of cfg under prefix that name parameters of func; the rest are
    defaults for other builders and are dropped."""
    names = set(inspect.signature(func).parameters)
    out = {}
    for key, value in cfg.items():
        if not key.startswith(prefix) or key in skip:
            continue
        param = key.split(".", 1)[1]
        if param in names:
            out[param] = value
    return out


def _coeff_from(cfg, grid):
    name = str(cfg["coeff.name"])
    if name not in BUILTIN_COEFFICIENTS:
        raise ConfigError(
            f"unknown coeff.name {name!r}; expected one of {sorted(BUILTIN_COEFFICIENTS)}"
        )
    params = _accepted_params(
        BUILTIN_COEFFICIENTS[name], cfg, "coeff.", ("coeff.name",)
    )
    return builtin_coefficient(name, grid, **params)


def _set_from(cfg, grid):
    kind = str(cfg["set.kind"])
    if kind == "none":
        return None
    if kind not in SET_BUILDERS:
        raise ConfigError(
            f"unknown set.kind {kind!r}; expected one of {sorted(SET_BUILDERS)} or none"
        )
    params = _accepted_params(
        SET_BUILDERS[kind], cfg, "set.", ("set.kind", "set.scale")
    )
    return build_set(kind, grid, float(cfg["set.scale"]), **params)


def _initial_field(cfg, grid):
    kind = str(cfg["init.kind"])
    amplitude = float(cfg["init.amplitude"])
    if kind == "mode":
        mode = (int(cfg["init.mode"]),) + (0,) * (grid.dim - 1)
        return single_mode(grid, mode, amplitude)
    rng = make_generator(int(cfg["run.seed"]), stream="init")
    if kind == "band_limited":
        band = float(cfg["init.band"]) or grid.nyquist_axis / 4.0
        return random_band_limited(grid, rng, band)
    if kind == "analytic_decay":
        return random_analytic_decay(grid, rng, float(cfg["init.radius"]))
    raise ConfigError(f"unknown init.kind {kind!r}")


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


def _write_summary(outdir: Path, experiment: str, cfg, lines) -> None:
    text = [f"experiment = {experiment}", f"config_sha256 = {config_hash(cfg)}"]
    text += [f"{key} = {_fmt(value)}" for key, value in lines]
    (outdir / "summary.txt").write_text("\n".join(text) + "\n", encoding="utf-8")


def _write_metadata(outdir: Path, experiment: str, cfg) -> None:
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
    try:
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
    except IntegrationError as exc:
        raise NumericalFailure("time integration", exc) from exc


def run_simulate(cfg, outdir: Path, assert_mode: bool) -> int:
    grid = _grid_from(cfg)
    a = _coeff_from(cfg, grid)
    obs = _set_from(cfg, grid)
    traj = _simulate_stage(_initial_field(cfg, grid), a, cfg, obs, store_states=True)
    trajectory_to_csv(traj, outdir / "trajectory.csv")
    if cfg["output.snapshot"]:
        save_snapshot(outdir / "final_state.snap", traj.final_state, traj.final_time)
    if obs is not None and cfg["output.save_set"]:
        save_bitmask(outdir / "observation_set.mask", obs)
    cert = energy_certificate(traj, a, slack=1e-6)
    lines = [
        ("final_time", traj.final_time),
        ("final_l2", float(traj.diagnostics["l2"][-1])),
        ("initial_l2", float(traj.diagnostics["l2"][0])),
        ("records", len(traj.times)),
        ("energy_certificate_passed", cert.passed),
        ("energy_certificate_sup_coeff", cert.sup_coeff),
        ("energy_certificate_worst_excess", cert.worst_excess),
    ]
    _write_summary(outdir, "simulate", cfg, lines)
    _write_metadata(outdir, "simulate", cfg)
    print(f"wrote {outdir / 'trajectory.csv'}")
    if assert_mode and not cert.passed:
        print("assert: energy certificate violated", file=sys.stderr)
        return EXIT_ASSERT
    return EXIT_OK


def run_ls_scan(cfg, outdir: Path, assert_mode: bool) -> int:
    grid = _grid_from(cfg)
    obs = _set_from(cfg, grid)
    if obs is None:
        raise ConfigError("ls-scan needs an observation set (set.kind != none)")
    lo = float(cfg["ls.band_min"])
    hi = float(cfg["ls.band_max"])
    step = float(cfg["ls.band_step"])
    if step <= 0 or hi < lo:
        raise ConfigError("ls.band_* must satisfy band_min <= band_max, band_step > 0")
    bands = list(np.arange(lo, hi + 0.5 * step, step))
    try:
        fit = ls_growth_fit(obs, bands)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
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
    _write_summary(outdir, "ls-scan", cfg, lines)
    _write_metadata(outdir, "ls-scan", cfg)
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


def run_interp_scan(cfg, outdir: Path, assert_mode: bool) -> int:
    grid = _grid_from(cfg)
    a = _coeff_from(cfg, grid)
    obs = _set_from(cfg, grid)
    if obs is None:
        raise ConfigError("interp-scan needs an observation set (set.kind != none)")
    fields = _ensemble_from(cfg, grid)
    t_cap = min(float(cfg["dynamics.T"]), 1.0)
    delta = float(cfg["dynamics.s"]) - 1.0
    if delta <= 0:
        raise ConfigError("dynamics.s must exceed 1")

    batch = SpectralField(grid, np.stack([f.coeffs for f in fields]))
    traj = _simulate_stage(batch, a, cfg, obs)
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
    ]
    _write_summary(outdir, "interp-scan", cfg, lines)
    _write_metadata(outdir, "interp-scan", cfg)
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


def run_observability(cfg, outdir: Path, assert_mode: bool) -> int:
    grid = _grid_from(cfg)
    a = _coeff_from(cfg, grid)
    obs = _set_from(cfg, grid)
    if obs is None:
        raise ConfigError("observability needs an observation set (set.kind != none)")
    fields = _ensemble_from(cfg, grid)
    try:
        rep = observability_experiment(
            a,
            float(cfg["dynamics.s"]),
            obs,
            float(cfg["dynamics.T"]),
            float(cfg["dynamics.dt"]),
            fields,
            theta=float(cfg["obs.theta"]),
            record_every=int(cfg["run.record_every"]),
            scheme=str(cfg["dynamics.scheme"]),
        )
    except IntegrationError as exc:
        raise NumericalFailure("time integration", exc) from exc
    rows = [(i, r) for i, r in enumerate(rep.member_ratios)]
    _write_csv(outdir / "observability.csv", ["member", "ratio"], rows)
    lines = [
        ("empirical_ratio", rep.empirical_ratio),
        ("premise_constant", rep.premise_constant),
        ("absorbed_constant", rep.absorbed_constant),
        ("telescoped_bound", rep.telescoped_bound),
        ("log_telescoped_bound", rep.log_telescoped_bound),
        ("energy_factor", rep.energy_factor),
        ("degenerate_members", ",".join(map(str, rep.degenerate_members)) or "none"),
        ("bounded", rep.passed),
    ]
    _write_summary(outdir, "observability", cfg, lines)
    _write_metadata(outdir, "observability", cfg)
    print(f"wrote {outdir / 'observability.csv'}")
    if assert_mode and not rep.passed:
        print("assert: empirical ratio exceeds the assembled bound", file=sys.stderr)
        return EXIT_ASSERT
    return EXIT_OK


def run_radius_track(cfg, outdir: Path, assert_mode: bool) -> int:
    grid = _grid_from(cfg)
    a = _coeff_from(cfg, grid)
    traj = _simulate_stage(_initial_field(cfg, grid), a, cfg, None, store_states=True)
    t_min = float(cfg["radius.t_min"])
    rows = []
    tracked = []
    for t, state in zip(traj.times, traj.states):
        if t < t_min - 1e-12:
            continue
        try:
            fit = radius_estimate(state)
        except InsufficientDecayError as exc:
            raise NumericalFailure("radius estimation", exc) from exc
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
    _write_summary(outdir, "radius-track", cfg, lines)
    _write_metadata(outdir, "radius-track", cfg)
    print(f"wrote {outdir / 'radius_track.csv'}")
    if assert_mode:
        floor = float(cfg["radius.floor"])
        if not tracked or min(tracked) < floor:
            print("assert: analytic radius fell below the floor", file=sys.stderr)
            return EXIT_ASSERT
    return EXIT_OK


def run_class_verify(cfg, outdir: Path, assert_mode: bool) -> int:
    grid = _grid_from(cfg)
    a = _coeff_from(cfg, grid)
    if a.class_info is None:
        raise ConfigError(f"coefficient {a.name!r} declares no derivative class")
    alpha_max = int(cfg["class.alpha_max"])
    rel_tol = float(cfg["class.rel_tol"])
    try:
        t_values = [float(v) for v in str(cfg["class.t_values"]).split(",")]
    except ValueError as exc:
        raise ConfigError(f"class.t_values must be comma-separated floats: {exc}") from exc
    rep = verify_class(a, alpha_max=alpha_max, t_grid=t_values, rel_tol=rel_tol)
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
    _write_summary(outdir, "class-verify", cfg, lines)
    _write_metadata(outdir, "class-verify", cfg)
    print(f"wrote {outdir / 'class_check.csv'}")
    if assert_mode and not rep.passed:
        print("assert: measured derivatives exceed the declared class", file=sys.stderr)
        return EXIT_ASSERT
    return EXIT_OK


def run_assert_suite(cfg, outdir: Path, assert_mode: bool) -> int:
    results = acceptance.run_all(cfg)
    width = max(len(r.name) for r in results)
    print(f" # {'criterion'.ljust(width)}  status  time")
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.index:2d} {r.name.ljust(width)}  {status}   {r.elapsed:6.1f}s  {r.detail}")
    n_pass = sum(r.passed for r in results)
    print(f"{n_pass}/{len(results)} criteria passed")
    lines = [(r.name, bool(r.passed)) for r in results]
    lines.append(("criteria_passed", n_pass))
    _write_summary(outdir, "assert-suite", cfg, lines)
    _write_metadata(outdir, "assert-suite", cfg)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args.experiment, args.config, args.sets)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    outdir = Path(args.output)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"config error: cannot create output dir: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _RUNNERS[args.experiment](cfg, outdir, args.assert_mode)
    except NumericalFailure as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_NUMERICAL
    except (ThinSetError, InsufficientDecayError, IntegrationError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, KeyError, TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
