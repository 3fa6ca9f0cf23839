"""Config format and command-line interface tests.

Every experiment is invoked through main() with an explicit argv, so exit
codes and produced files are tested exactly as a shell user would see them.
Runs are kept tiny; the acceptance suite owns the full-size checks.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from fracheatlab.config import (
    ConfigError,
    parse_value,
    format_value,
    parse_config_text,
    apply_overrides,
    canonical_text,
    config_hash,
)
from fracheatlab.cli import main
from fracheatlab.coefficients import builtin_coefficient, verify_class
from fracheatlab.spectral import GridSpec


FAST_SIM = [
    "--set", "grid.n=32", "--set", "dynamics.T=0.1", "--set", "dynamics.dt=0.01",
    "--set", "ensemble.count=2",
]


def test_parse_value_priorities():
    assert parse_value("true") is True
    assert parse_value("false") is False
    assert parse_value("42") == 42 and isinstance(parse_value("42"), int)
    assert parse_value("4.5e-3") == pytest.approx(0.0045)
    assert parse_value("hello") == "hello"
    # quoting forces string
    assert parse_value('"42"') == "42"
    assert parse_value('"true"') == "true"


def test_format_parse_roundtrip():
    values = [True, False, 0, -17, 3.14159, 1e-12, "plain", "128", "true", "", " x "]
    for v in values:
        assert parse_value(format_value(v)) == v
    with pytest.raises(ConfigError):
        format_value('has "quotes"')
    with pytest.raises(ConfigError):
        format_value("two\nlines")


_config_values = st.one_of(
    st.booleans(),
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
    st.booleans(),
    st.integers(min_value=-(10**12), max_value=10**12),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(
        alphabet=st.characters(blacklist_characters='"\n', blacklist_categories=("Cs",)),
        max_size=40,
    ),
)


@given(st.dictionaries(st.sampled_from(["a", "b.c", "grid.n"]), _line_values))
@example({"a": "x # y", "b.c": "#"})
def test_canonical_text_roundtrip_generated(cfg):
    assert parse_config_text(canonical_text(cfg)) == cfg


def test_apply_overrides():
    cfg = apply_overrides({"a": 1}, ["a=2", "b.c=true"])
    assert cfg == {"a": 2, "b.c": True}
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
    rc, out = _run(
        tmp_path, "simulate", *FAST_SIM,
        "--set", "set.kind=periodic_slab",
        "--set", "output.snapshot=true", "--set", "output.save_set=true",
    )
    assert rc == 0
    from fracheatlab.solver import load_snapshot
    from fracheatlab.thick_sets import load_bitmask
    from fracheatlab.spectral import GridSpec
    fld, t = load_snapshot(out / "final_state.snap")
    assert t == pytest.approx(0.1)
    g = GridSpec(1, 32, fld.grid.period)
    mask = load_bitmask(out / "observation_set.mask", g)
    assert mask.indicator.any()


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


def test_observability_run(tmp_path):
    rc, out = _run(tmp_path, "observability", *FAST_SIM, "--assert")
    assert rc == 0
    rows = (out / "observability.csv").read_text().strip().splitlines()
    assert rows[0] == "member,ratio"
    assert len(rows) == 3
    summary = (out / "summary.txt").read_text()
    assert "bounded = true" in summary


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


def test_config_errors_exit_1(tmp_path):
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


def test_failed_assert_exits_3(tmp_path):
    rc, _ = _run(
        tmp_path, "radius-track",
        "--set", "grid.n=64", "--set", "dynamics.T=0.2", "--set", "ensemble.count=1",
        "--set", "radius.floor=99.0", "--assert",
    )
    assert rc == 3


def test_assert_suite_table(tmp_path, capsys):
    rc, out = _run(
        tmp_path, "assert-suite",
        "--set", "acceptance.radius_members=2", "--set", "acceptance.envelope_members=2",
    )
    text = capsys.readouterr().out
    assert rc == 0, text
    lines = [l for l in text.splitlines() if " PASS " in l or " FAIL " in l]
    assert len(lines) == 10
    assert all(" PASS " in l for l in lines)
    assert (out / "summary.txt").exists()
