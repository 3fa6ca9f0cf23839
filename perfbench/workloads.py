"""The benchmark's workloads: which CLI calls each makes, how much work
that is, and how its outputs are checked.

A workload is a fixed list of ``fracheatlab`` CLI calls.  The benchmark
seed is passed to the program only as the value of one config key
(``seed_key``); everything else is fixed here, so the same seed always
gives the same inputs.

Outputs are checked two ways.  At the workload's default seed they are
compared with the stored reference answers in ``reference/``.  At every
seed they must satisfy invariants that hold for any seed.  Each check is
one row of the ``attempted``/``failed`` count.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Relative tolerance of reference comparisons.  ls-scan is looser so that
# an eigensolver which loses trailing digits still passes; everything
# else must reproduce to near round-off.
REFERENCE_TOL = {"ls-scan": 1e-6}
DEFAULT_TOL = 1e-9

# Summary keys that are not measured answers.
UNCHECKED_SUMMARY_KEYS = {"config_sha256"}


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str
    seed_key: str
    default_seed: int
    stages: tuple  # ((experiment, {config key: value}), ...), one per CLI call
    tiny: tuple  # per-stage overrides that shrink the workload for the self-test
    expected_calls: tuple  # traced functions that must run at least once

    def argv(self, index: int, seed: int, outdir: Path) -> list:
        experiment, settings = self.stages[index]
        argv = [experiment, "--output", str(outdir)]
        for key, value in {**settings, self.seed_key: seed}.items():
            text = repr(value) if isinstance(value, float) else str(value)
            argv += ["--set", f"{key}={text}"]
        return argv

    def shrunk(self) -> "Workload":
        stages = tuple(
            (experiment, {**settings, **extra})
            for (experiment, settings), extra in zip(self.stages, self.tiny)
        )
        return replace(self, stages=stages)

    def reference_path(self) -> Path:
        return REFERENCE_DIR / f"{self.name}.json"


_PI = math.pi

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ensemble-steps",
            unit="member-steps",
            seed_key="run.seed",
            default_seed=1234,
            stages=(
                ("interp-scan", {
                    "grid.n": 256,
                    "grid.period": 8.0 * _PI,
                    "coeff.name": "cosine",
                    "coeff.amplitude": 0.5,
                    "coeff.mode": 4,
                    "dynamics.s": 1.5,
                    "dynamics.T": 5.0,
                    "dynamics.dt": 0.005,
                    "run.record_every": 20,
                    "ensemble.count": 24,
                    "ensemble.kind": "analytic_decay",
                    "set.kind": "periodic_slab",
                    "set.scale": _PI,
                }),
                ("radius-track", {}),
            ),
            tiny=(
                {"grid.n": 32, "dynamics.T": 0.2, "dynamics.dt": 0.01,
                 "run.record_every": 2, "ensemble.count": 2},
                {"grid.n": 64, "dynamics.T": 0.4, "run.record_every": 10},
            ),
            expected_calls=(
                "cli.run_interp_scan", "cli.run_radius_track",
                "coefficients.builtin_coefficient", "coefficients.CoefficientField.sample",
                "thick_sets.build_set", "thick_sets.thickness", "ensembles.make_ensemble",
                "solver.simulate", "solver.step", "solver.phi1", "solver.phi2",
                "numpy.fft.fftn", "numpy.fft.ifftn", "spectral.inverse",
                "norms.l2_norm", "norms.restricted_l2",
                "inequality_lab.radius_estimate",
                "inequality_lab.smallest_log_affine_dominator",
            ),
        ),
        Workload(
            name="ls-scan-2d",
            unit="bands",
            seed_key="set.seed",
            default_seed=0,
            stages=(
                ("ls-scan", {
                    "grid.dim": 2,
                    "grid.n": 128,
                    "grid.period": 2.0 * _PI,
                    "set.kind": "random_per_cell",
                    "set.scale": _PI / 4.0,
                    "set.fraction": 0.3,
                    "ls.band_min": 4.0,
                    "ls.band_max": 28.0,
                    "ls.band_step": 4.0,
                }),
            ),
            tiny=({"grid.n": 32, "set.scale": _PI / 2.0, "ls.band_max": 8.0},),
            expected_calls=(
                "cli.run_ls_scan", "thick_sets.build_set", "thick_sets.thickness",
                "inequality_lab.ls_growth_fit", "inequality_lab.ls_constant",
                "scipy.linalg.eigvalsh", "numpy.fft.fftn",
            ),
        ),
        Workload(
            name="obs-records",
            unit="pairs",
            seed_key="run.seed",
            default_seed=1234,
            stages=(
                ("observability", {"run.record_every": 1, "ensemble.count": 16}),
                ("interp-scan", {"run.record_every": 1, "ensemble.count": 16}),
            ),
            tiny=(
                {"grid.n": 32, "dynamics.T": 0.1, "dynamics.dt": 0.01, "ensemble.count": 2},
                {"grid.n": 32, "dynamics.T": 0.1, "dynamics.dt": 0.01, "ensemble.count": 2},
            ),
            expected_calls=(
                "cli.run_observability", "cli.run_interp_scan", "ensembles.make_ensemble",
                "inequality_lab.observability_experiment", "solver.simulate", "solver.step",
                "norms.restricted_l2", "inequality_lab.smallest_log_affine_dominator",
                "inequality_lab.spacetime_lift", "inequality_lab.telescope_constant",
            ),
        ),
        Workload(
            name="class-verify-2d",
            unit="multi-index checks",
            seed_key="coeff.seed",
            default_seed=0,
            stages=(
                ("class-verify", {
                    "grid.dim": 2,
                    "grid.n": 256,
                    "coeff.name": "fourier_decay",
                    "class.alpha_max": 12,
                    "class.t_values": "0,0.5,1,1.5",
                }),
            ),
            tiny=({"grid.n": 32, "class.alpha_max": 4, "coeff.fit_alpha_max": 4},),
            expected_calls=(
                "cli.run_class_verify", "coefficients.builtin_coefficient",
                "coefficients.verify_class", "norms.derivative_sup",
                "numpy.fft.fftn", "numpy.fft.ifftn",
            ),
        ),
    )
}


def parse_value(text: str):
    """Summary and CSV cells: bool, int, float (inf and nan included), or text."""
    if text in ("true", "false"):
        return text == "true"
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _read_key_values(path: Path) -> dict:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


@dataclass
class StageResult:
    experiment: str
    exit_code: object  # int, or a one-line description of what was raised
    summary: dict  # key -> text
    tables: dict  # csv file name -> rows of text cells
    config: dict  # resolved config, key -> text


def run_stage(main, experiment: str, argv: list, outdir: Path) -> StageResult:
    """Run one CLI call and read back what it wrote."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            exit_code = main(argv)
    except Exception as exc:  # a raise is a failed row, not a benchmark crash
        last = traceback.format_exception_only(type(exc), exc)[-1].strip()
        exit_code = f"raised {last}"
    summary_path = outdir / "summary.txt"
    config_path = outdir / "config.resolved.txt"
    tables = {}
    for path in sorted(outdir.glob("*.csv")):
        with open(path, newline="") as fh:
            tables[path.name] = list(csv.reader(fh))
    return StageResult(
        experiment=experiment,
        exit_code=exit_code,
        summary=_read_key_values(summary_path) if summary_path.exists() else {},
        tables=tables,
        config=_read_key_values(config_path) if config_path.exists() else {},
    )


# --- work units ---------------------------------------------------------


def _cfg(result: StageResult, key: str):
    return parse_value(result.config[key])


def _steps(result: StageResult) -> int:
    T, dt = _cfg(result, "dynamics.T"), _cfg(result, "dynamics.dt")
    return math.ceil(T / dt - 1e-9)


def _members(result: StageResult) -> int:
    if result.experiment in ("interp-scan", "observability"):
        return _cfg(result, "ensemble.count")
    return 1


def expected_pairs(result: StageResult) -> int:
    """Recorded-state pairs an interp-scan builds: all i < j among the
    records in (0, min(T, 1)], for every ensemble member."""
    t_cap = min(_cfg(result, "dynamics.T"), 1.0)
    cadence = _cfg(result, "dynamics.dt") * _cfg(result, "run.record_every")
    records = math.floor(t_cap / cadence + 1e-9)
    return _members(result) * records * (records - 1) // 2


def _bands(result: StageResult) -> int:
    lo, hi, step = (_cfg(result, f"ls.band_{k}") for k in ("min", "max", "step"))
    return math.floor((hi - lo) / step + 0.5) + 1


def _index_checks(result: StageResult) -> int:
    dim = _cfg(result, "grid.dim")
    t_count = len(result.config["class.t_values"].strip('"').split(","))
    return t_count * sum(order + 1 if dim == 2 else 1
                         for order in range(_cfg(result, "class.alpha_max") + 1))


_UNIT_COUNTERS = {
    "member-steps": lambda r: _members(r) * _steps(r),
    "bands": _bands,
    "pairs": lambda r: expected_pairs(r) if r.experiment == "interp-scan" else 0,
    "multi-index checks": _index_checks,
}


def work_units(workload: Workload, results: list) -> int:
    """The workload's work in its own unit, from the resolved configs the
    CLI wrote; stages that wrote no config count zero."""
    count = _UNIT_COUNTERS[workload.unit]
    return sum(count(r) for r in results if r.config)


# --- checks ---------------------------------------------------------------


class Checks:
    """Counts attempted checks and keeps a label for each failed one."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok: bool, label: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(label)

    def merge(self, other: "Checks") -> None:
        self.attempted += other.attempted
        self.failures += other.failures


def close(actual, expected, tol: float) -> bool:
    if isinstance(actual, (bool, str)) or isinstance(expected, (bool, str)):
        return actual == expected
    a, b = float(actual), float(expected)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol * max(abs(a), abs(b))


def _summary(result: StageResult, key: str):
    return parse_value(result.summary.get(key, "missing"))


def _positive_finite(value) -> bool:
    return not isinstance(value, (bool, str)) and math.isfinite(value) and value > 0


def check_invariants(result: StageResult, checks: Checks) -> None:
    """Properties that hold at every seed."""
    tag = result.experiment
    checks.check(result.exit_code == 0, f"{tag}: exit code {result.exit_code}")
    if tag == "ls-scan":
        rows = result.tables.get("ls_constants.csv", [])[1:]
        checks.check(len(rows) == _bands(result) if result.config else False,
                     f"{tag}: {len(rows)} band rows")
        constants = []
        for row in rows:
            band, constant, status = (row + ["", "", ""])[:3]
            value = parse_value(constant)
            checks.check(status == "ok" and _positive_finite(value) and value >= 1.0,
                         f"{tag}: band {band} status {status} constant {constant}")
            constants.append(value if isinstance(value, float) else math.nan)
        for lower, upper in zip(constants, constants[1:]):
            checks.check(lower <= upper * (1.0 + 1e-9),
                         f"{tag}: constants decrease from {lower} to {upper}")
    elif tag == "observability":
        checks.check(_summary(result, "bounded") is True, f"{tag}: bounded is not true")
    elif tag == "radius-track":
        for key in ("radius_min", "radius_max"):
            checks.check(_positive_finite(_summary(result, key)),
                         f"{tag}: {key} = {result.summary.get(key)}")
    elif tag == "class-verify":
        checks.check(_summary(result, "passed") is True, f"{tag}: passed is not true")
    elif tag == "interp-scan":
        expected = expected_pairs(result) if result.config else None
        checks.check(_summary(result, "pairs") == expected,
                     f"{tag}: pairs {result.summary.get('pairs')} != {expected}")


def reference_record(results: list) -> list:
    """The stored form of a run's answers, for ``reference/<workload>.json``."""
    return [
        {
            "experiment": r.experiment,
            "summary": {k: v for k, v in r.summary.items() if k not in UNCHECKED_SUMMARY_KEYS},
            "tables": r.tables,
        }
        for r in results
    ]


def check_reference(results: list, reference: list, checks: Checks) -> None:
    """Compare every stored summary value and CSV row with this run's."""
    checks.check(len(results) == len(reference), "stage count differs from reference")
    for result, ref in zip(results, reference):
        tag = ref["experiment"]
        tol = REFERENCE_TOL.get(tag, DEFAULT_TOL)
        for key, text in ref["summary"].items():
            got = result.summary.get(key)
            checks.check(got is not None and close(parse_value(got), parse_value(text), tol),
                         f"{tag}: summary {key} = {got}, reference {text}")
        for name, ref_rows in ref["tables"].items():
            rows = result.tables.get(name, [])
            checks.check(len(rows) == len(ref_rows),
                         f"{tag}: {name} has {len(rows)} rows, reference {len(ref_rows)}")
            for i, ref_row in enumerate(ref_rows):
                row = rows[i] if i < len(rows) else []
                ok = len(row) == len(ref_row) and all(
                    close(parse_value(a), parse_value(b), tol) for a, b in zip(row, ref_row)
                )
                checks.check(ok, f"{tag}: {name} row {i} = {row}, reference {ref_row}")


def load_reference(workload: Workload):
    path = workload.reference_path()
    return json.loads(path.read_text(encoding="utf-8"))["stages"] if path.exists() else None


def verify(workload: Workload, seed: int, results: list, reference) -> Checks:
    """All checks of one workload run; the reference applies at the default seed."""
    checks = Checks()
    for result in results:
        check_invariants(result, checks)
    if seed == workload.default_seed:
        checks.check(reference is not None, f"no reference answers for {workload.name}")
        if reference is not None:
            check_reference(results, reference, checks)
    return checks
