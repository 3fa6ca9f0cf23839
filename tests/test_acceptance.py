"""Acceptance gate: the ten pinned criteria at contract scale.

Each criterion runs with its frozen parameters and tolerances and must both
pass and finish inside its time budget.  One line per criterion is printed
so a plain ``pytest -v -s tests/test_acceptance.py`` reads as a checklist;
the same measurements back the ``fracheatlab assert-suite`` subcommand.
"""

import pytest

from fracheatlab import acceptance
from fracheatlab.acceptance import CRITERION_NAMES, run_criterion
from fracheatlab.spectral import GridSpec


@pytest.mark.parametrize(
    "index,name",
    [(i + 1, n) for i, n in enumerate(CRITERION_NAMES)],
    ids=[f"{i + 1:02d}-{n}" for i, n in enumerate(CRITERION_NAMES)],
)
def test_acceptance_criterion(index, name):
    result = run_criterion(index)
    status = "PASS" if result.passed else "FAIL"
    print(
        f"{status} {result.index:2d} {result.name}: {result.detail} "
        f"({result.elapsed:.2f}s of {result.budget:.0f}s budget)"
    )
    assert result.passed, f"{result.name}: {result.detail}"
    assert result.elapsed <= result.budget, (
        f"{result.name} exceeded its budget: {result.elapsed:.2f}s > {result.budget:.0f}s"
    )


def test_kernel_criterion_fails_on_a_misscaled_period(monkeypatch):
    # a relative period error of 1e-6 in the grid the derivatives are taken
    # on scales the m-th derivative by about m * 1e-6, past the tolerance
    exact = acceptance.derivative_sup

    def misscaled(grid, samples, alpha):
        return exact(GridSpec(grid.dim, grid.n, grid.period * (1.0 + 1e-6)), samples, alpha)

    monkeypatch.setattr(acceptance, "derivative_sup", misscaled)
    result = run_criterion(10)
    assert not result.passed, result.detail


def test_criterion_count_and_names_are_frozen():
    assert CRITERION_NAMES == (
        "spectral-roundtrip-dissipation",
        "strip-weighted-sandwich",
        "integrator-convergence-order",
        "energy-growth-certificate",
        "restriction-constant-scan",
        "analytic-radius-persistence",
        "loglog-weighted-envelope",
        "telescoped-constant-arithmetic",
        "observability-pipeline",
        "kernel-derivative-growth",
    )
