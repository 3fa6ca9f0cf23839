"""Config format and command-line interface tests.

Every experiment is invoked through main() with an explicit argv, so exit
codes and produced files are tested exactly as a shell user would see them.
Runs are kept tiny; the acceptance suite owns the full-size checks.
"""

import contextlib
import csv
import dataclasses
import inspect
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fracheatlab.config import (
    ConfigError,
    parse_value,
    format_value,
    parse_config_text,
    apply_overrides,
    canonical_text,
    config_hash,
    load_config,
)
from fracheatlab import acceptance, cli, coefficients, solver
from fracheatlab.acceptance import CRITERION_NAMES, CriterionResult
from fracheatlab.cli import main
from fracheatlab.coefficients import (
    BUILTIN_COEFFICIENTS,
    ClassA1,
    CoefficientField,
    builtin_coefficient,
    verify_class,
)
from fracheatlab.ensembles import single_mode
from fracheatlab.inequality_lab import smallest_log_affine_dominator
from fracheatlab.solver import simulate
from fracheatlab.spectral import GridSpec
from fracheatlab.thick_sets import SET_BUILDERS, build_set


FAST_SIM = [
    "--set", "grid.n=32", "--set", "dynamics.T=0.1", "--set", "dynamics.dt=0.01",
    "--set", "ensemble.count=2",
]


def test_parse_value_priorities():
    assert parse_value("42") == 42 and isinstance(parse_value("42"), int)
    assert parse_value("4.5e-3") == pytest.approx(0.0045)
    assert parse_value("hello") == "hello"
    # quoting forces string
    assert parse_value('"42"') == "42"
    assert parse_value('"true"') == "true"
    # no key takes a bool, so true is text
    assert parse_value("true") == "true" and parse_value("false") == "false"


def test_format_parse_roundtrip():
    values = [0, -17, 3.14159, 1e-12, "plain", "128", "true", "", " x "]
    for v in values:
        assert parse_value(format_value(v)) == v
    with pytest.raises(ConfigError):
        format_value('has "quotes"')
    with pytest.raises(ConfigError):
        format_value("two\nlines")
    with pytest.raises(ConfigError):
        format_value(True)


_config_values = st.one_of(
    st.integers(min_value=-(10**12), max_value=10**12),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(
        alphabet=st.characters(blacklist_characters='"\n\r', blacklist_categories=("Cs",)),
        max_size=40,
    ),
)


@given(_config_values)
def test_format_parse_roundtrip_generated(value):
    assert parse_value(format_value(value)) == value


def test_parse_config_text():
    text = """
    # a comment
    grid.n = 64   # trailing comment
    grid.period = 6.28
    name = "2"
    grid.n = 128
    """
    cfg = parse_config_text(text)
    assert cfg["grid.n"] == 128  # last assignment wins
    assert cfg["grid.period"] == pytest.approx(6.28)
    assert cfg["name"] == "2"
    with pytest.raises(ConfigError):
        parse_config_text("just some words")
    with pytest.raises(ConfigError):
        parse_config_text("= 3")


def test_canonical_text_and_hash_are_stable():
    cfg = {"b.key": 2, "a.key": 1.5, "c": "x"}
    text = canonical_text(cfg)
    assert text == "a.key = 1.5\nb.key = 2\nc = x\n"
    assert parse_config_text(text) == cfg
    # insertion order must not matter
    assert config_hash(cfg) == config_hash(dict(reversed(list(cfg.items()))))
    assert config_hash(cfg) != config_hash({**cfg, "c": "y"})


def test_hash_inside_quotes_is_not_a_comment():
    cfg = parse_config_text('k = "a#b"  # trailing\nj = "#"\nm = 3 # c')
    assert cfg == {"k": "a#b", "j": "#", "m": 3}


def test_hash_in_string_is_quoted_on_output():
    assert format_value("a#b") == '"a#b"'
    assert canonical_text({"k": "a#b"}) == 'k = "a#b"\n'
    assert parse_config_text(canonical_text({"k": "a#b"})) == {"k": "a#b"}


def test_only_newline_ends_a_config_line():
    # str.splitlines() also breaks at "\x1e", "\u2028" and other separators
    for cfg in ({"grid.n": "\x1e"}, {"k": "a\u2028b"}, {"k": "a\x1eb", "j": "\x0b\x0c\x85"}):
        assert parse_config_text(canonical_text(cfg)) == cfg
    assert parse_config_text("a = 1\r\nb = x\r\n") == {"a": 1, "b": "x"}


# every character format_value accepts, line separators other than "\n" included
_line_values = st.one_of(
    st.integers(min_value=-(10**12), max_value=10**12),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(
        alphabet=st.characters(blacklist_characters='"\n', blacklist_categories=("Cs",)),
        max_size=40,
    ),
)


def test_config_file_keeps_carriage_return_in_value(tmp_path):
    # universal-newline reading once ended the line at the "\r"
    path = tmp_path / "run.cfg"
    path.write_bytes(b'k = "a\rb"\r\nj = 2\n')
    assert load_config(path) == {"k": "a\rb", "j": 2}


@given(st.dictionaries(st.sampled_from(["a", "b.c", "grid.n"]), _line_values))
@example({"a": "x # y", "b.c": "#"})
def test_canonical_text_roundtrip_generated(cfg):
    assert parse_config_text(canonical_text(cfg)) == cfg


def test_apply_overrides():
    cfg = apply_overrides({"a": 1}, ["a=2", "b.c=true"])
    assert cfg == {"a": 2, "b.c": "true"}
    with pytest.raises(ConfigError):
        apply_overrides({}, ["novalue"])
    with pytest.raises(ConfigError):
        apply_overrides({}, ["=3"])


def _run(tmp_path, sub, *extra, tag="out"):
    out = tmp_path / tag
    return main([sub, "--output", str(out), *extra]), out


def test_simulate_writes_artifacts(tmp_path):
    rc, out = _run(tmp_path, "simulate", *FAST_SIM)
    assert rc == 0
    assert (out / "trajectory.csv").exists()
    assert (out / "summary.txt").exists()
    assert (out / "config.resolved.txt").exists()
    meta = json.loads((out / "metadata.json").read_text())
    resolved = parse_config_text((out / "config.resolved.txt").read_text())
    assert meta["experiment"] == "simulate"
    assert meta["config_sha256"] == config_hash(resolved)
    assert resolved["grid.n"] == 32
    # reproducibility metadata only; wall-clock timestamps would break
    # byte-identical reruns
    assert not any("time" in k or "date" in k for k in meta)
    summary = (out / "summary.txt").read_text()
    assert "experiment = simulate" in summary
    assert "certificate_passed = true" in summary


def test_simulate_is_byte_identical(tmp_path):
    rc1, out1 = _run(tmp_path, "simulate", *FAST_SIM, tag="a")
    rc2, out2 = _run(tmp_path, "simulate", *FAST_SIM, tag="b")
    assert rc1 == rc2 == 0
    for name in ("trajectory.csv", "summary.txt", "metadata.json", "config.resolved.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_trajectory_csv_roundtrip(tmp_path):
    # a deterministic initial mode makes the library run an exact oracle
    rc, out = _run(
        tmp_path, "simulate", *FAST_SIM, "--set", "init.kind=mode",
        "--set", "set.kind=periodic_slab",
    )
    assert rc == 0
    g = GridSpec(1, 32, 2 * np.pi)
    a = builtin_coefficient("cosine", g, amplitude=0.5, mode=1)
    obs = build_set("periodic_slab", g, 2 * np.pi / 4.0, fraction=0.5)
    traj = simulate(single_mode(g, (1,)), a, 1.5, 0.1, 0.01, record_every=5, obs_set=obs)
    with open(out / "trajectory.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "l2", "l2_on_E"]
    assert len(rows) == 1 + len(traj.times)
    # repr serialization reparses to the exact float
    expect = zip(traj.times, traj.diagnostics["l2"], traj.diagnostics["l2_on_E"])
    for row, values in zip(rows[1:], expect):
        assert [float(cell) for cell in row] == list(values)


# the six experiments at small sizes, and runs of other shapes between them
_SMALL_RUNS = [
    ("simulate", [*FAST_SIM, "--set", "set.kind=periodic_slab"]),
    ("ls-scan", ["--set", "grid.n=32", "--set", "ls.band_max=24"]),
    ("interp-scan", FAST_SIM),
    ("observability", FAST_SIM),
    ("radius-track", ["--set", "grid.n=64", "--set", "dynamics.T=0.4",
                      "--set", "run.record_every=10"]),
    ("class-verify", ["--set", "grid.n=32", "--set", "coeff.name=fourier_decay"]),
]
_OTHER_RUNS = [
    ("simulate", ["--set", "grid.dim=2", "--set", "grid.n=16", "--set", "dynamics.T=0.05",
                  "--set", "dynamics.dt=0.01", "--set", "coeff.name=time_cosine",
                  "--set", "set.kind=complement_of_ball"]),
    ("interp-scan", ["--set", "grid.n=64", "--set", "dynamics.T=0.1", "--set", "dynamics.dt=0.02",
                     "--set", "ensemble.count=3", "--set", "set.kind=random_per_cell"]),
]


def test_reruns_in_one_process_are_byte_identical(tmp_path):
    """The solver's module-level caches and the grids' cached arrays carry
    nothing from one run into the next: the same runs, repeated after runs
    of other shapes in the same process, write the same bytes."""
    def written(tag, runs):
        files = {}
        for k, (experiment, args) in enumerate(runs):
            rc, out = _run(tmp_path, experiment, *args, tag=f"{tag}{k}")
            assert rc == 0, experiment
            files.update({(k, p.name): p.read_bytes() for p in out.iterdir()})
        return files

    first = written("first", _SMALL_RUNS)
    written("other", _OTHER_RUNS)
    again = written("again", _SMALL_RUNS)
    assert sorted(again) == sorted(first)
    for key in first:
        assert again[key] == first[key], key


def test_config_file_and_override_precedence(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("grid.n = 32\ndynamics.T = 0.1\ndynamics.dt = 0.01\n")
    out = tmp_path / "out"
    rc = main([
        "simulate", "--config", str(cfg_file), "--set", "grid.n=64",
        "--output", str(out),
    ])
    assert rc == 0
    resolved = parse_config_text((out / "config.resolved.txt").read_text())
    assert resolved["grid.n"] == 64  # --set beats the file
    assert resolved["dynamics.T"] == pytest.approx(0.1)


def test_snapshot_and_mask_outputs(tmp_path):
    # neither the final state nor the observation set is ever written:
    # simulate writes its four standard files and nothing else
    rc, out = _run(tmp_path, "simulate", *FAST_SIM, "--set", "set.kind=periodic_slab")
    assert rc == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "config.resolved.txt", "metadata.json", "summary.txt", "trajectory.csv",
    ]


def test_simulate_keeps_no_states(tmp_path, monkeypatch):
    # simulate reads only the recorded times and diagnostics
    trajectories = []

    def recorded(*args, **kwargs):
        trajectories.append(simulate(*args, **kwargs))
        return trajectories[-1]

    monkeypatch.setattr(cli, "simulate", recorded)
    rc, _ = _run(tmp_path, "simulate", *FAST_SIM)
    assert rc == 0
    assert len(trajectories) == 1
    assert len(trajectories[0].times) == 3
    assert trajectories[0].states == []


def test_ls_scan(tmp_path):
    rc, out = _run(
        tmp_path, "ls-scan", "--set", "grid.n=32", "--set", "set.scale=0.25",
        "--set", "ls.band_min=0", "--set", "ls.band_max=40", "--set", "ls.band_step=10",
        "--assert",
    )
    assert rc == 0
    rows = (out / "ls_constants.csv").read_text().strip().splitlines()
    assert rows[0] == "band,constant,status"
    assert len(rows) == 6
    summary = (out / "summary.txt").read_text()
    assert "slope" in summary


def test_ls_scan_bands_stop_at_band_max(tmp_path):
    # 0 + 2*30 would pass both band_max 50 and the Nyquist radius 50.27
    rc, out = _run(
        tmp_path, "ls-scan", "--set", "grid.n=16",
        "--set", "ls.band_max=50.0", "--set", "ls.band_step=30.0",
    )
    assert rc == 0
    rows = (out / "ls_constants.csv").read_text().strip().splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == ["0.0", "30.0"]


def test_interp_scan(tmp_path):
    rc, out = _run(
        tmp_path, "interp-scan", *FAST_SIM,
        "--set", "interp.theta_min=0.25", "--set", "interp.theta_max=0.75",
        "--set", "interp.theta_count=3", "--assert",
    )
    assert rc == 0
    rows = (out / "interp_constants.csv").read_text().strip().splitlines()
    assert rows[0] == "theta,constant,status"
    assert len(rows) == 4


# (T, dt, record_every) of interp-scan runs past t = 1
_HORIZONS = [
    (5.0, 0.005, 20),
    (2.3, 0.007, 13),
    (1.0000001, 7e-4, 3),
    (4.0, 0.1, 3),  # a cadence of 0.3 does not divide 1
    (3.0, 0.005, 300),  # no record inside (0, 1]: no pairs
    (1.5, 1e-4, 1),
]


def _horizon_sets(T, dt, every):
    return [
        "grid.n=32", "ensemble.count=2", f"dynamics.T={T!r}", f"dynamics.dt={dt!r}",
        f"run.record_every={every}",
    ]


def _set_flags(sets):
    return [arg for kv in sets for arg in ("--set", kv)]


def _full_horizon_run(sets, T=None):
    """interp-scan's ensemble integrated to dynamics.T (or T) as one batch."""
    cfg = cli._resolve_config("interp-scan", None, sets)
    inputs = cli._build_inputs("interp-scan", cfg)
    return simulate(
        inputs["ensemble"], inputs["coeff"], cfg["dynamics.s"],
        cfg["dynamics.T"] if T is None else T,
        cfg["dynamics.dt"], record_every=cfg["run.record_every"], obs_set=inputs["set"],
        store_states=False,
    )


@pytest.mark.parametrize("T, dt, every", _HORIZONS)
def test_read_horizon_records_what_the_full_run_records(monkeypatch, T, dt, every):
    # every record interp-scan reads, inside (0, min(T, 1)], bit for bit;
    # the 1e-4 step reads 5*10^7 pairs, past what the config stage accepts,
    # and only its records are compared here
    monkeypatch.setattr(cli, "_MAX_PAIRS", 10**8)
    horizon, steps = cli._read_horizon(T, dt, every, min(T, 1.0))
    assert steps % every == 0 and horizon <= 1.0 + 1e-12
    full = _full_horizon_run(_horizon_sets(T, dt, every))
    short = _full_horizon_run(_horizon_sets(T, dt, every), T=horizon)
    assert len(short.times) == 1 + steps // every
    assert short.final_time == horizon
    read = full.times <= 1.0 + 1e-12
    assert np.array_equal(short.times, full.times[read])
    for name, rows in full.diagnostics.items():
        assert np.array_equal(short.diagnostics[name], rows[:, read])


def _flat_pairs(times, l2, l2_on_E, t_cap, delta):
    """Every member's pairs t_i < t_j inside (0, t_cap] at a j whose observed
    norm is nonzero, flattened: q and the log norms of each pair."""
    inside = (times > 0) & (times <= t_cap + 1e-12)
    ts, l2, l2e = times[inside], l2[:, inside], l2_on_E[:, inside]
    jj, ii = np.tril_indices(len(ts), -1)
    q = 1.0 / np.array([gap**delta for gap in (ts[jj] - ts[ii]).tolist()])
    member, pair = np.nonzero((l2e != 0.0)[:, jj])
    j, i = jj[pair], ii[pair]
    skipped = np.count_nonzero(l2e[:, 1:] == 0.0, axis=1)
    return q[pair], np.log(l2[member, j]), np.log(l2e[member, j]), np.log(l2[member, i]), skipped


@pytest.mark.parametrize("T, dt, every", [h for h in _HORIZONS if h[1] >= 1e-3])
def test_interp_scan_equals_the_full_horizon_scan(tmp_path, T, dt, every):
    # the 1e-4 step of _HORIZONS reads 10^4 records, past the pair bound
    sets = _horizon_sets(T, dt, every)
    rc, out = _run(tmp_path, "interp-scan", *_set_flags(sets))
    assert rc == 0
    full = _full_horizon_run(sets)
    qs, log_j, log_ej, log_i, skipped = _flat_pairs(
        full.times, full.diagnostics["l2"], full.diagnostics["l2_on_E"], min(T, 1.0), 0.5
    )
    thetas = np.linspace(0.1, 0.9, 9)
    constants = [
        smallest_log_affine_dominator(qs, 2.0 * (log_j - th * log_ej - (1.0 - th) * log_i))
        if len(qs) else np.nan
        for th in thetas
    ]
    status = "ok" if len(qs) else "no_pairs"
    with open(out / "interp_constants.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1:] == [[repr(float(th)), repr(c), status] for th, c in zip(thetas, constants)]
    summary = dict(
        line.split(" = ", 1) for line in (out / "summary.txt").read_text().splitlines()
    )
    assert summary["pairs"] == str(len(qs))
    assert summary["degenerate_records"] == str(int(np.sum(skipped))) == "0"
    assert summary["breakdown_theta"] == "none"
    assert summary["constant_min"] == repr(float(min(constants)))
    assert summary["constant_max"] == repr(float(max(constants)))
    assert summary["constants_at_floor"] == str(constants.count(1.0))
    assert float(summary["integrated_to"]) <= 1.0 + 1e-12


@pytest.mark.parametrize("T, dt, every, steps", [(1.0, 0.005, 5, 200), (0.7, 0.03, 4, 24)])
def test_interp_scan_up_to_t1_takes_every_step(tmp_path, monkeypatch, T, dt, every, steps):
    calls, step = [], solver.step
    monkeypatch.setattr(solver, "step", lambda *args, **kw: calls.append(args) or step(*args, **kw))
    rc, out = _run(tmp_path, "interp-scan", *_set_flags(_horizon_sets(T, dt, every)))
    assert rc == 0
    assert len(calls) == steps
    summary = (out / "summary.txt").read_text()
    assert f"integrated_to = {T!r}\n" in summary and f"steps = {steps}\n" in summary


def test_interp_scan_from_no_pairs_reports_no_constant(tmp_path, capsys):
    # T = 0.001 is one step: one record inside (0, T] and no pair of times
    sets = ["--set", "grid.n=32", "--set", "dynamics.T=0.001"]
    rc, plain = _run(tmp_path, "interp-scan", *sets, tag="plain")
    assert rc == 0
    rc, asserted = _run(tmp_path, "interp-scan", *sets, "--assert", tag="asserted")
    assert rc == 3
    assert "assert: no recorded pairs in (0, 0.001]\n" in capsys.readouterr().err
    with open(plain / "interp_constants.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == 9 and all(row[1:] == ["nan", "no_pairs"] for row in rows)
    summary = (plain / "summary.txt").read_text()
    for line in ("pairs = 0", "constant_min = nan", "constant_max = nan",
                 "constants_at_floor = 0", "breakdown_theta = none"):
        assert f"{line}\n" in summary
    for path in plain.iterdir():
        assert path.read_bytes() == (asserted / path.name).read_bytes(), path.name


def test_observability_run(tmp_path):
    rc, out = _run(tmp_path, "observability", *FAST_SIM, "--assert")
    assert rc == 0
    rows = (out / "observability.csv").read_text().strip().splitlines()
    assert rows[0] == "member,ratio"
    assert len(rows) == 3
    summary = (out / "summary.txt").read_text()
    assert "bounded = true" in summary
    # both constants sit at the floor 1.0, and a tie goes to interpolation
    assert "premise_source = interpolation" in summary


def test_observability_from_no_pairs_is_not_bounded(tmp_path, capsys):
    # T = 0.001 is one step: no pair of records, so no measured constant
    # enters the bound, and the run must not read bounded = true
    sets = ["--set", "grid.n=32", "--set", "dynamics.T=0.001"]
    rc, plain = _run(tmp_path, "observability", *sets, tag="plain")
    assert rc == 0
    rc, asserted = _run(tmp_path, "observability", *sets, "--assert", tag="asserted")
    assert rc == 3
    assert "assert: no recorded pairs in (0, 0.001]\n" in capsys.readouterr().err
    summary = (plain / "summary.txt").read_text()
    assert "premise_source = none\n" in summary and "bounded = false\n" in summary
    for path in plain.iterdir():
        assert path.read_bytes() == (asserted / path.name).read_bytes(), path.name


def test_observability_past_lambda_round_off_does_not_warn(tmp_path):
    # a = 20 absorbs a constant near 6e16, where the refinement ratio lambda
    # rounds to 1.0; the run exits 0 with every warning an error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out = _run(tmp_path, "observability", "--set", "grid.n=32",
                       "--set", "coeff.name=constant", "--set", "coeff.value=20.0")
    assert rc == 0
    assert "premise_source = energy\n" in (out / "summary.txt").read_text()


def test_observability_empty_set_reports_gracefully(tmp_path):
    args = [*FAST_SIM, "--set", "set.fraction=0.0"]
    rc, out = _run(tmp_path, "observability", *args)
    assert rc == 0  # without --assert the infinite ratio is only reported
    assert "empirical_ratio = inf" in (out / "summary.txt").read_text()
    rc2, _ = _run(tmp_path, "observability", *args, "--assert", tag="asserted")
    assert rc2 == 3


def test_radius_track(tmp_path):
    rc, out = _run(
        tmp_path, "radius-track",
        "--set", "grid.n=128", "--set", "dynamics.T=0.5", "--set", "ensemble.count=1",
        "--set", "run.record_every=10",
        "--assert",
    )
    assert rc == 0
    rows = (out / "radius_track.csv").read_text().strip().splitlines()
    assert rows[0].startswith("t,") and "radius" in rows[0]
    assert len(rows) > 2


def test_class_verify(tmp_path):
    rc, out = _run(tmp_path, "class-verify", "--set", "grid.n=64", "--assert")
    assert rc == 0
    rows = (out / "class_check.csv").read_text().strip().splitlines()
    assert rows[0].startswith("t,passed")


def test_class_verify_rows_match_single_time_checks(tmp_path):
    rc, out = _run(
        tmp_path, "class-verify", "--set", "grid.n=32", "--set", "coeff.name=time_cosine",
        "--set", "class.alpha_max=6", "--set", "class.t_values=0,0.7,0.7,2",
    )
    assert rc == 0
    grid = GridSpec(1, 32, 2 * np.pi)
    a = builtin_coefficient("time_cosine", grid, amplitude=0.5, mode=1)
    expect = ["t,passed,worst_ratio,worst_alpha"]
    for t in (0.0, 0.7, 0.7, 2.0):
        rep = verify_class(a, alpha_max=6, t_grid=(t,))
        expect.append(f"{t!r},{rep.passed},{rep.worst_ratio!r},{rep.worst_alpha[0]}")
    assert (out / "class_check.csv").read_text().splitlines() == expect


def test_class_verify_measures_each_derivative_once_per_run(tmp_path, monkeypatch):
    """The fourier_decay fit and the check at four equal times measure only
    the multi-indices whose l1 bound can decide the fitted C or a worst
    ratio: each once per run, with one last-axis inverse each, and a second
    run in one process measures afresh and writes the same bytes."""
    inverses, measured = [], []
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *a, **kw: inverses.append(1) or irfft(*a, **kw))
    sup = coefficients.derivative_sup

    def recording_sup(grid, samples, alpha, **kwargs):
        measured.extend(map(tuple, np.atleast_2d(alpha).tolist()))
        return sup(grid, samples, alpha, **kwargs)

    monkeypatch.setattr(coefficients, "derivative_sup", recording_sup)
    argv = ["--set", "grid.dim=2", "--set", "grid.n=16", "--set", "coeff.name=fourier_decay",
            "--set", "class.alpha_max=12", "--set", "class.t_values=0,0.5,1,1.5"]
    for tag in ("first", "second"):
        inverses.clear()
        measured.clear()
        rc, _ = _run(tmp_path, "class-verify", *argv, tag=tag)
        # an exhaustive check measures all 91 multi-indices of order <= 12
        assert rc == 0 and len(set(measured)) == len(measured) == len(inverses) == 3
    assert (tmp_path / "first" / "class_check.csv").read_bytes() == (
        tmp_path / "second" / "class_check.csv").read_bytes()


def test_class_verify_transforms_its_samples_once(tmp_path, monkeypatch):
    """A 2D fourier_decay class-verify run forward-transforms its samples
    once: the fit's bound table and every derivative_sup call of the fit
    and the checks read the same half spectrum."""
    calls = []
    for name in ("fftn", "rfftn"):
        original = getattr(np.fft, name)

        def counted(x, *args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(x, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    rc, _ = _run(tmp_path, "class-verify", "--set", "grid.dim=2", "--set", "grid.n=32",
                 "--set", "coeff.name=fourier_decay", "--set", "class.alpha_max=12",
                 "--set", "class.t_values=0,0.5,1,1.5")
    assert rc == 0 and calls == ["fftn"]


# the work-stage calls of the runners; the config stage runs before any
_WORK = ("simulate", "ls_growth_fit", "observability_experiment", "verify_class")


def test_config_errors_exit_1(tmp_path, capsys, monkeypatch):
    cases = [
        ["simulate", "--set", "grid.n=13"],
        ["simulate", "--set", "no.such.key=1"],
        ["simulate", "--set", "coeff.name=wavelet"],
        ["simulate", "--set", "set.kind=everything"],
        ["simulate", "--config", str(tmp_path / "missing.cfg")],
        ["ls-scan", "--set", "set.kind=none"],
        ["observability", "--set", "set.scale=0.0"],
    ]
    for argv in cases:
        rc = main(argv + ["--output", str(tmp_path / "err")])
        assert rc == 1, argv
    # a value must have its key's default type: ints exactly, floats as any
    # int or float, and neither as text such as true
    for setting in (
        "grid.n=32.5", "grid.n=true", "coeff.mode=1.5", "run.seed=1e3", "dynamics.T=true",
        "coeff.seed=0.5", "set.radius=false",
    ):
        rc = main(["simulate", "--set", setting, "--output", str(tmp_path / "err")])
        assert rc == 1, setting
        assert setting.split("=")[0] in capsys.readouterr().err, setting
    # out-of-range values, unknown keys and bad builder settings are rejected
    # before any work
    def no_work(*args, **kwargs):
        raise AssertionError("ran work on an invalid config")

    for name in _WORK:
        monkeypatch.setattr(cli, name, no_work)
    monkeypatch.setattr(acceptance, "run_all", no_work)
    for key, argv in (
        ("acceptance.typo", ["simulate", "--set", "acceptance.typo=1"]),
        ("output.save_set", ["simulate", "--set", "output.save_set=true"]),
        ("unknown config key 'output.snapshot'", ["simulate", "--set", "output.snapshot=true"]),
        ("unknown config key 'output.snapshot'", ["simulate", "--set", "output.snapshot=no"]),
        ("unknown config key 'output.snapshot'", ["simulate", "--set", "output.snapshot=1"]),
        ("dynamics.T", ["observability", "--set", "dynamics.T=0.0"]),
        ("dynamics.dt", ["simulate", "--set", "dynamics.dt=0"]),
        ("dynamics.dt", ["ls-scan", "--set", "dynamics.dt=-5"]),
        ("unknown config key 'dynamics.scheme'", ["simulate", "--set", "dynamics.scheme=etd2"]),
        ("dynamics.s", ["interp-scan", "--set", "dynamics.s=1.0"]),
        ("ensemble.count", ["interp-scan", "--set", "ensemble.count=0"]),
        ("obs.theta", ["observability", "--set", "obs.theta=1.0"]),
        ("run.record_every", ["simulate", "--set", "run.record_every=0"]),
        ("coeff.amplitude", ["simulate", "--set", "coeff.amplitude=nan"]),
        ("grid.period", ["simulate", "--set", "grid.period=inf"]),
        ("init.radius", ["simulate", "--set", "init.radius=inf"]),
        # the init.* and ensemble.* keys are checked by name whether or not
        # the experiment builds the input that reads them
        ("init.radius", ["simulate", "--set", "init.kind=mode", "--set", "init.radius=-2"]),
        ("init.radius", ["ls-scan", "--set", "init.radius=-2"]),
        ("init.radius", ["interp-scan", "--set", "init.radius=0"]),
        ("init.band", ["radius-track", "--set", "init.kind=mode", "--set", "init.band=-1"]),
        ("init.band", ["interp-scan", "--set", "init.band=-1"]),
        ("ensemble.kind", ["simulate", "--set", "ensemble.kind=bogus"]),
        ("ensemble.kind", ["ls-scan", "--set", "ensemble.kind=bogus"]),
        ("set.fraction 5 is not in [0.0, 1.0]", ["simulate", "--set", "set.fraction=5"]),
        ("set.fraction -1 is not in [0.0, 1.0]", ["radius-track", "--set", "set.fraction=-1"]),
        ("init.mode 500 is not in [-64, 64) for grid.n = 128",
         ["simulate", "--set", "init.mode=500"]),
        ("init.mode 500 is not in [-32, 32) for grid.n = 64",
         ["ls-scan", "--set", "init.mode=500"]),
        ("init.mode 64 is not in [-64, 64)", ["interp-scan", "--set", "init.mode=64"]),
        ("init.mode -9 is not in [-8, 8)", ["radius-track", "--set", "grid.n=16",
                                            "--set", "init.mode=-9"]),
        ("dynamics.T", ["simulate", "--set", "dynamics.T=inf"]),
        ("dynamics.T", ["simulate", "--set", f"dynamics.T={10**400}"]),
        ("set.scale", ["observability", "--set", "set.scale=inf"]),
        ("interp.cap", ["interp-scan", "--set", "interp.cap=inf"]),
        ("init.mode", ["simulate", "--set", f"init.mode={2**63}"]),
        ("class.t_values", ["class-verify", "--set", 'class.t_values=a"b']),
        ("set.kind", ["interp-scan", "--set", "set.kind=none"]),
        ("grid.", ["simulate", "--set", "grid.n=13"]),
        ("set.", ["observability", "--set", "set.scale=0.0"]),
        ("set.", ["simulate", "--set", "set.kind=complement_of_ball",
                  "--set", "set.radius=1e200"]),
        ("invalid init.* settings: mode (500,) outside [-n/2, n/2)",
         ["simulate", "--set", "init.kind=mode", "--set", "init.mode=500"]),
        ("ensemble.", ["observability", "--set", "ensemble.kind=uniform"]),
        ("class.t_values", ["class-verify", "--set", "class.t_values=0,inf"]),
        ("class.", ["class-verify", "--set", "class.t_values=0,later"]),
        ("ls.band_max", ["ls-scan", "--set", "ls.band_min=8", "--set", "ls.band_max=4"]),
        ("interp.theta_count", ["interp-scan", "--set", "interp.theta_count=0"]),
        ("interp.theta_count", ["interp-scan", "--set", "interp.theta_count=-3"]),
        # the Hoelder exponent lies in (0, 1)
        ("interp.theta_min", ["interp-scan", "--set", "interp.theta_min=-0.5"]),
        ("interp.theta_min", ["interp-scan", "--set", "interp.theta_min=0.0"]),
        ("interp.theta_max", ["interp-scan", "--set", "interp.theta_max=1.5"]),
        ("interp.theta_max", ["interp-scan", "--set", "interp.theta_max=1.0"]),
        ("ls.band_min", ["ls-scan", "--set", "ls.band_min=-1.0"]),
        ("ls.band_max", ["ls-scan", "--set", "ls.band_max=1e9"]),
        ("ls.band_max", ["ls-scan", "--set", "grid.n=16", "--set", "ls.band_max=60"]),
        ("ls.band_step", ["ls-scan", "--set", "ls.band_step=1e-9"]),
        ("ls.band_step", ["ls-scan", "--set", "ls.band_step=1e-300"]),
        # 171! overflows the float class budgets
        ("class.alpha_max", ["class-verify", "--set", "class.alpha_max=-1"]),
        ("class.alpha_max", ["class-verify", "--set", "class.alpha_max=171"]),
        ("class.rel_tol", ["class-verify", "--set", "class.rel_tol=-1.0"]),
        ("coeff.fit_alpha_max", ["class-verify", "--set", "coeff.name=fourier_decay",
                                 "--set", "coeff.fit_alpha_max=-1"]),
        ("coeff.fit_alpha_max", ["class-verify", "--set", "coeff.name=fourier_decay",
                                 "--set", "coeff.fit_alpha_max=171"]),
        # the step count is bounded before it can pass the float range
        ("dynamics.T / dynamics.dt", ["simulate", "--set", "dynamics.T=1e300",
                                      "--set", "dynamics.dt=1e-10"]),
        # so is the number of record pairs interp-scan and observability read:
        # 10^4 records in (0, 1] are 5*10^7 pairs
        ("dynamics.dt * run.record_every", ["interp-scan", "--set", "dynamics.dt=1e-4",
                                            "--set", "run.record_every=1"]),
        ("dynamics.dt * run.record_every", ["observability", "--set", "dynamics.dt=1e-5",
                                            "--set", "run.record_every=10",
                                            "--set", "dynamics.T=3.0"]),
        # a mode at or past n/2 aliases to a lower one
        ("invalid coeff.* settings", ["class-verify", "--set", "coeff.mode=100"]),
        ("invalid coeff.* settings", ["radius-track", "--set", "coeff.mode=128"]),
    ):
        rc = main(argv + ["--output", str(tmp_path / "err")])
        assert rc == 1, argv
        assert key in capsys.readouterr().err, argv


def test_range_ends_of_unbuilt_keys_are_valid(tmp_path, monkeypatch):
    for name in _WORK:
        monkeypatch.setattr(cli, name, _reach)
    for argv in (["simulate", "--set", "set.fraction=1.0", "--set", "init.mode=-64"],
                 ["ls-scan", "--set", "set.fraction=0.0", "--set", "init.mode=31"]):
        with pytest.raises(_Reached):
            main(argv + ["--output", str(tmp_path / "ok")])


# config_hash of each experiment's default config: a default given to the
# wrong experiment changes one
_DEFAULT_HASHES = {
    "simulate": "ab0bce1fed7b607f9f2aaaeddcbd05b649263f31d57a3681a785870d2b780655",
    "ls-scan": "c9331b8c322164575ac04b76eee2f0b15e0b484afbc9bea56c030e95bcce477e",
    "interp-scan": "bf9f6e94e3042bc6e0d5fa25264a717bb4fe0c4ac5649281619fd57766befcd9",
    "observability": "c22fceccda0e06435da2e4cb3a5bc6ed13ba260d01050e104eb9bf6a1c2366ad",
    "radius-track": "0bac306f946d14b9592b2ac06031b33daeeab3e7357c4d6a1bf698e22f844d51",
    "class-verify": "63e827183411f2ddca515282ecdcfe6ba172506f81c6fd2881d8534ac5254049",
    "assert-suite": "5b8e11e9b91338d0e3bf67b70f2c424fd6ac792dfd4e74953a10504a8fdb1d81",
}


def test_default_config_hashes_are_pinned():
    assert set(_DEFAULT_HASHES) == set(cli._RUNNERS)
    for experiment, digest in _DEFAULT_HASHES.items():
        assert config_hash(cli._resolve_config(experiment, None, None)) == digest, experiment


@pytest.mark.parametrize("error", [KeyError("l2_on_E"), ValueError("a bug")])
def test_bugs_propagate(tmp_path, capsys, monkeypatch, error):
    def broken(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "simulate", broken)
    with pytest.raises(type(error)):
        _run(tmp_path, "simulate", *FAST_SIM)
    assert "config error" not in capsys.readouterr().err


class _Reached(Exception):
    """Raised by a patched work function: the config stage let the run through."""


def _reach(*args, **kwargs):
    raise _Reached


_EXPERIMENTS = tuple(cli._RUNNERS)
_KNOWN_KEYS = sorted(cli._SCHEMA)
_JUNK_KEYS = ["acceptance.typo", "grid.bogus", "coeff.grid", "set.scales", "x", "a.b.c"]
# how a builder's failure names its key group
_GROUP_ERRORS = [f"invalid {group}.* settings" for group in ("grid", *cli._BUILDERS)]


def _text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


_fuzz_values = st.one_of(
    st.integers(min_value=-3, max_value=200),
    st.integers(),
    st.sampled_from([2**63, -(2**64), 10**400]),
    st.floats(),
    st.booleans(),
    st.sampled_from(["nan", "inf", "-inf", "1e999", "0,0.5", "1,nan", "etd1", "none", "mode",
                     "full", "fourier_decay", "mixed", '"12"', '"x', 'a"b', ""]),
    st.text(alphabet=st.characters(blacklist_characters="\n", blacklist_categories=("Cs",)),
            max_size=12),
)


@settings(max_examples=150, deadline=None)
@given(
    experiment=st.sampled_from(_EXPERIMENTS),
    entries=st.dictionaries(st.sampled_from(_KNOWN_KEYS + _JUNK_KEYS), _fuzz_values, max_size=6),
    n=st.integers(min_value=-2, max_value=32).map(lambda k: 2 * k),
    count=st.integers(min_value=-1, max_value=4),
    in_file=st.booleans(),
)
def test_config_stage_contract_generated(experiment, entries, n, count, in_file):
    """Any config either exits 1 naming a key (or a builder's key group)
    before any work, or reaches the work stage."""
    entries = {**entries, "grid.n": n}
    if "ensemble.count" in entries:
        entries["ensemble.count"] = count
    lines = [f"{key}={_text(value)}" for key, value in entries.items()]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        for name in _WORK:
            mp.setattr(cli, name, _reach)
        mp.setattr(acceptance, "run_all", _reach)
        argv = [experiment, "--output", str(Path(tmp) / "out")]
        if in_file:
            cfg_file = Path(tmp) / "run.cfg"
            cfg_file.write_text("\n".join(l.replace("=", " = ", 1) for l in lines) + "\n",
                                encoding="utf-8")
            argv += ["--config", str(cfg_file)]
        else:
            argv += [arg for line in lines for arg in ("--set", line)]
        try:
            with contextlib.redirect_stderr(err):
                rc = main(argv)
        except _Reached:
            return
    text = err.getvalue()
    if rc == 2:
        # a valid coefficient whose class fit is past the float range fails
        # numerically while the inputs are built
        assert "numerical failure in derivative measurement" in text, text
        return
    assert rc == 1, (rc, text)
    assert text.startswith("config error:"), text
    assert any(name in text for name in [*entries, *_GROUP_ERRORS]), text


def test_cli_import_leaves_scipy_linalg_unloaded():
    # only ls_constant needs it, and it imports it on first use
    code = "import sys, fracheatlab.cli; print('scipy.linalg' in sys.modules)"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def test_every_builder_parameter_is_a_config_key(tmp_path, capsys):
    overrides = {}
    for prefix, registry in (("coeff.", BUILTIN_COEFFICIENTS), ("set.", SET_BUILDERS)):
        for builder in registry.values():
            for name, param in inspect.signature(builder).parameters.items():
                if param.default is not param.empty:
                    value = 4 if param.default is None else param.default
                    overrides.setdefault(f"{prefix}{name}", value)
    assert set(overrides) == {
        "coeff.value", "coeff.amplitude", "coeff.mode", "coeff.time_freq",
        "coeff.radius", "coeff.seed", "coeff.fit_alpha_max",
        "set.fraction", "set.seed", "set.radius",
    }
    sets = [arg for key, value in overrides.items() for arg in ("--set", f"{key}={value!r}")]
    # keys the chosen builders do not take are accepted and dropped
    rc, out = _run(tmp_path, "simulate", *FAST_SIM, *sets)
    assert rc == 0
    resolved = parse_config_text((out / "config.resolved.txt").read_text())
    assert {key: resolved[key] for key in overrides} == overrides
    for key in ("coeff.bogus", "coeff.grid", "set.scales"):
        rc, _ = _run(tmp_path, "simulate", *FAST_SIM, "--set", f"{key}=1", tag=key)
        assert rc == 1, key
        assert key in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_numerical_blowup_exits_2(tmp_path, capsys):
    rc, _ = _run(
        tmp_path, "simulate",
        "--set", "grid.n=32", "--set", "coeff.name=constant",
        "--set", "coeff.value=4000.0", "--set", "dynamics.dt=0.5",
        "--set", "dynamics.T=50.0",
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "time integration" in err


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_interp_scan_exit_code_follows_the_records_it_reads(tmp_path, capsys):
    # a = 400 overflows at t = 2.19, after the last record interp-scan reads
    grow = ["--set", "grid.n=32", "--set", "coeff.name=constant", "--set", "dynamics.T=3.0"]
    rc, out = _run(tmp_path, "interp-scan", *grow, "--set", "coeff.value=400.0")
    assert rc == 0
    assert "integrated_to = 1.0\n" in (out / "summary.txt").read_text()
    # a = 2000 overflows before t = 1
    rc, _ = _run(tmp_path, "interp-scan", *grow, "--set", "coeff.value=2000.0", tag="early")
    assert rc == 2
    assert "time integration" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [
    [],
    ["--set", "coeff.name=fourier_decay", "--set", "coeff.fit_alpha_max=170"],
])
def test_derivatives_past_the_float_range_exit_2(tmp_path, capsys, extra):
    # at n=512 the axis Nyquist frequency is 256, and order 129 of the
    # spectral derivative overflows
    rc, _ = _run(tmp_path, "class-verify", "--set", "grid.n=512",
                 "--set", "class.alpha_max=170", *extra)
    err = capsys.readouterr().err
    assert rc == 2, err
    assert "numerical failure in derivative measurement" in err and "(129,)" in err
    # order 128 is still finite; its noise allowance is past the float
    # range, so it is the one unchecked order
    rc, out = _run(tmp_path, "class-verify", "--set", "grid.n=512",
                   "--set", "class.alpha_max=128", tag="order128")
    assert rc == 0
    summary = (out / "summary.txt").read_text()
    assert "passed = true" in summary and "unchecked = 1\n" in summary


def test_budgets_past_the_float_range_are_counted_unchecked(tmp_path):
    # R = 0.25 puts C*alpha!/R^|alpha| past the float range from order 134
    # on: those budgets bound nothing, and no overflow warning may leak
    code = "import sys; from fracheatlab.cli import main; sys.exit(main(sys.argv[1:]))"
    argv = ["class-verify", "--set", "grid.dim=2", "--set", "grid.n=32",
            "--set", "coeff.name=fourier_decay", "--set", "class.alpha_max=170",
            "--output", str(tmp_path)]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                         text=True)
    assert (run.returncode, run.stderr) == (0, "")
    summary = (tmp_path / "summary.txt").read_text().splitlines()
    assert "passed = true" in summary and "unchecked = 4039" in summary


def test_zero_trajectory_passes_its_certificate_with_no_warning(tmp_path):
    code = "import sys; from fracheatlab.cli import main; sys.exit(main(sys.argv[1:]))"
    argv = ["simulate", "--set", "grid.n=32", "--set", "init.kind=mode",
            "--set", "init.amplitude=0.0", "--assert", "--output", str(tmp_path)]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-W", "error", "-c", code, *argv], env=env,
                         capture_output=True, text=True)
    assert (run.returncode, run.stderr) == (0, "")
    summary = (tmp_path / "summary.txt").read_text().splitlines()
    assert "energy_certificate_passed = true" in summary
    assert "energy_certificate_worst_excess = -1.0" in summary


def _lying_coefficient(name, grid, **kwargs):
    # its first derivative already has sup 4 > C/R = 0.5
    samples = np.cos(4 * grid.x_axes[0])
    return CoefficientField(grid, lambda t: samples, ClassA1(C=1.0, R=2.0), "liar")


def _failed_certificate(traj, a):
    return dataclasses.replace(solver.energy_certificate(traj, a), passed=False)


# per experiment, a config whose property fails, and the work function to
# patch so that it does
_FAILING = {
    "simulate": (FAST_SIM, ("energy_certificate", _failed_certificate)),
    "ls-scan": (["--set", "ls.band_max=0.0"], None),
    "interp-scan": ([*FAST_SIM, "--set", "set.fraction=0.0"], None),
    "observability": ([*FAST_SIM, "--set", "set.fraction=0.0"], None),
    "radius-track": (
        ["--set", "grid.n=64", "--set", "dynamics.T=0.2", "--set", "radius.floor=99.0"], None
    ),
    "class-verify": (["--set", "grid.n=64"], ("builtin_coefficient", _lying_coefficient)),
}


@pytest.mark.parametrize("experiment", sorted(_FAILING))
def test_failed_assert_exits_3(tmp_path, capsys, monkeypatch, experiment):
    # a failed property exits 3 only under --assert, with one assert: line,
    # and the run writes the same files either way
    sets, patch = _FAILING[experiment]
    if patch:
        monkeypatch.setattr(cli, *patch)
    rc, plain = _run(tmp_path, experiment, *sets, tag="plain")
    assert rc == 0
    assert "assert:" not in capsys.readouterr().err
    rc, asserted = _run(tmp_path, experiment, *sets, "--assert", tag="asserted")
    assert rc == 3
    assert capsys.readouterr().err.count("assert: ") == 1
    names = sorted(path.name for path in plain.iterdir())
    assert names == sorted(path.name for path in asserted.iterdir())
    for name in names:
        assert (plain / name).read_bytes() == (asserted / name).read_bytes(), name


def test_assert_suite_table(tmp_path, capsys, monkeypatch):
    # the criteria themselves run in test_acceptance.py; here only the table
    # and the exit code are under test
    def results(failing=()):
        return [
            CriterionResult(i, name, i not in failing, f"detail {i}", 0.1, 1.0)
            for i, name in enumerate(CRITERION_NAMES, start=1)
        ]

    monkeypatch.setattr(acceptance, "run_all", results)
    rc, out = _run(tmp_path, "assert-suite")
    captured = capsys.readouterr()
    text = captured.out
    assert rc == 0, text
    assert captured.err == ""
    lines = [l for l in text.splitlines() if " PASS " in l or " FAIL " in l]
    assert len(lines) == 10
    assert all(" PASS " in l for l in lines)
    assert lines[2].endswith("detail 3")
    assert "10/10 criteria passed" in text
    assert (out / "summary.txt").exists()
    # a failed criterion exits 3 without --assert
    monkeypatch.setattr(acceptance, "run_all", lambda: results(failing=(4,)))
    rc, out = _run(tmp_path, "assert-suite", tag="failing")
    captured = capsys.readouterr()
    text = captured.out
    assert rc == 3, text
    assert captured.err == "assert: criteria failed: energy-growth-certificate\n"
    assert " FAIL " in text.splitlines()[4] and "9/10 criteria passed" in text
    assert "energy-growth-certificate = false" in (out / "summary.txt").read_text()
