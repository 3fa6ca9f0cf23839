"""Outside-in tracing for the benchmark's traced pass.

``Tracer.install`` wraps every public function of every loaded
``fracheatlab`` module, at every place it is bound: its defining module,
each module that imported it by name, and dicts of functions such as the
CLI's runner table.  It also wraps ``CoefficientField.sample``, the
package's calls to ``numpy.fft.fftn``/``ifftn``, and ``inequality_lab``'s
calls into ``scipy.linalg``'s eigen and Cholesky routines.  Nothing in the
package changes; ``uninstall`` restores every binding.

Each wrapped call records one span: name, start, end and parent span, in
flat arrays that stay in memory until ``save``.  Spans are grouped into
runs (one per traced workload iteration) with their own run id.  Self
time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from array import array
from collections import Counter

import numpy as np

PACKAGE = "fracheatlab"
EIGEN_CALLS = ("scipy.linalg.eigvalsh", "scipy.linalg.cho_factor", "scipy.linalg.cho_solve")


def _fft_points(counters, args, kwargs):
    counters["spectral.fft_points"] += int(np.size(args[0]))


def _member_steps(counters, args, kwargs):
    # a state batched over members on a leading axis counts once per member
    u = args[0]
    counters["solver.member_steps"] += u.coeffs.size // math.prod(u.grid.shape)


def _gram_modes(counters, args, kwargs):
    key = "inequality_lab.gram_modes_max"
    counters[key] = max(counters[key], len(args[0]))


def _dominator_pairs(counters, args, kwargs):
    counters["inequality_lab.dominator_pairs"] += len(args[0])


# span name -> function(counters, args, kwargs) run before each call
HOOKS = {
    "numpy.fft.fftn": _fft_points,
    "numpy.fft.ifftn": _fft_points,
    "solver.step": _member_steps,
    "scipy.linalg.eigvalsh": _gram_modes,
    "scipy.linalg.cho_factor": _gram_modes,
    "inequality_lab.smallest_log_affine_dominator": _dominator_pairs,
}


class Tracer:
    def __init__(self):
        self.names = []  # span name per name id
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("q")  # index of the parent span, -1 for a root
        self.start_ns = array("q")
        self.end_ns = array("q")
        self.runs = []  # (run id, first span, end span, counters)
        self.counters = Counter()
        self._stack = [-1]
        self._patches = []  # (setter, container, key, original)

    # --- recording ------------------------------------------------------

    def _wrap(self, name, fn, caller=None):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        hook = HOOKS.get(name)
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start_ns, self.end_ns
        stack, clock = self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if caller and not sys._getframe(1).f_globals.get("__name__", "").startswith(caller):
                return fn(*args, **kwargs)
            if hook is not None:
                hook(self.counters, args, kwargs)
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            starts.append(clock())
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def begin_run(self) -> None:
        self.counters = Counter()
        self._run_start = len(self.start_ns)

    def end_run(self, run_id: str) -> None:
        self.runs.append((run_id, self._run_start, len(self.start_ns), self.counters))

    # --- patching -------------------------------------------------------

    def _patch(self, container, key, value):
        if isinstance(container, dict):
            self._patches.append((dict.__setitem__, container, key, container[key]))
            container[key] = value
        else:
            self._patches.append((setattr, container, key, getattr(container, key)))
            setattr(container, key, value)

    def install(self) -> None:
        import numpy.fft
        import scipy.linalg
        from fracheatlab.coefficients import CoefficientField

        modules = {
            name: mod for name, mod in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        }
        wrappers = {}
        for modname, mod in modules.items():
            short = modname.removeprefix(PACKAGE + ".")
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == modname and not attr.startswith("_"):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in wrappers:
                            self._patch(obj, key, wrappers[value])
        self._patch(CoefficientField, "sample", self._wrap(
            "coefficients.CoefficientField.sample", CoefficientField.sample))
        for attr in ("fftn", "ifftn"):
            self._patch(numpy.fft, attr, self._wrap(
                f"numpy.fft.{attr}", getattr(numpy.fft, attr), caller=PACKAGE + "."))
        for name in EIGEN_CALLS:
            attr = name.rsplit(".", 1)[1]
            self._patch(scipy.linalg, attr, self._wrap(
                name, getattr(scipy.linalg, attr), caller=PACKAGE + ".inequality_lab"))

    def uninstall(self) -> None:
        while self._patches:
            setter, container, key, original = self._patches.pop()
            setter(container, key, original)

    # --- results --------------------------------------------------------

    def calls(self, run_index: int) -> dict:
        _, lo, hi, _ = self.runs[run_index]
        counts = np.bincount(np.frombuffer(self.name_id, dtype=np.int32)[lo:hi],
                             minlength=len(self.names))
        return dict(zip(self.names, counts.tolist()))

    def layer_metrics(self, run_index: int) -> dict:
        """Per-layer metrics of one traced run, named as in BENCHMARK.json."""
        _, lo, hi, counters = self.runs[run_index]
        k = len(self.names)
        nid = np.frombuffer(self.name_id, dtype=np.int32)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int64)[lo:hi] - lo
        dur = (np.frombuffer(self.end_ns, dtype=np.int64)[lo:hi]
               - np.frombuffer(self.start_ns, dtype=np.int64)[lo:hi]) / 1e9
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        per_name = {
            "calls": np.bincount(nid, minlength=k),
            "s": np.bincount(nid, weights=dur, minlength=k),
            "self_s": np.bincount(nid, weights=dur - child, minlength=k),
        }

        def total(kind, *names):
            return sum(float(per_name[kind][self._ids[n]]) for n in names if n in self._ids)

        def calls(*names):
            return int(total("calls", *names))

        def secs(*names):
            return total("s", *names)

        def self_secs(*names):
            return total("self_s", *names)

        step_id = self._ids.get("solver.step", -1)
        step_durs = dur[nid == step_id]
        runners = [n for n in self.names if n.startswith("cli.run_")]
        ls_s, eigen_s = secs("inequality_lab.ls_constant"), secs(*EIGEN_CALLS)
        modes = counters["inequality_lab.gram_modes_max"]
        fft = ("numpy.fft.fftn", "numpy.fft.ifftn")
        return {
            "spectral.fft_calls": calls(*fft),
            "spectral.fft_points": counters["spectral.fft_points"],
            "spectral.fft_s": secs(*fft),
            "spectral.inverse_s": secs("spectral.inverse"),
            "solver.simulate_calls": calls("solver.simulate"),
            "solver.simulate_s": secs("solver.simulate"),
            "solver.simulate_self_s": self_secs("solver.simulate"),
            "solver.step_calls": calls("solver.step"),
            "solver.step_s": secs("solver.step"),
            "solver.step_self_s": self_secs("solver.step"),
            "solver.step_p50_us": float(np.median(step_durs)) * 1e6 if len(step_durs) else 0.0,
            "solver.phi_calls": calls("solver.phi1", "solver.phi2"),
            "solver.phi_s": secs("solver.phi1", "solver.phi2"),
            "solver.member_steps": counters["solver.member_steps"],
            "norms.l2_norm_calls": calls("norms.l2_norm"),
            "norms.restricted_l2_calls": calls("norms.restricted_l2"),
            "norms.restricted_l2_s": secs("norms.restricted_l2"),
            "norms.weighted_fourier_norm_s": secs("norms.weighted_fourier_norm"),
            "norms.derivative_sup_calls": calls("norms.derivative_sup"),
            "norms.derivative_sup_s": secs("norms.derivative_sup"),
            "coefficients.sample_calls": calls("coefficients.CoefficientField.sample"),
            "coefficients.builtin_coefficient_s": secs("coefficients.builtin_coefficient"),
            "coefficients.verify_class_s": secs("coefficients.verify_class"),
            "thick_sets.build_set_s": secs("thick_sets.build_set"),
            "thick_sets.thickness_s": secs("thick_sets.thickness"),
            "ensembles.make_ensemble_s": secs("ensembles.make_ensemble"),
            "inequality_lab.ls_constant_calls": calls("inequality_lab.ls_constant"),
            "inequality_lab.ls_constant_s": ls_s,
            "inequality_lab.eigensolve_s": eigen_s,
            "inequality_lab.gram_build_s": ls_s - eigen_s,
            "inequality_lab.gram_modes_max": modes,
            "inequality_lab.gram_bytes_max": modes * modes * 16,  # computed: complex128 Gram
            "inequality_lab.radius_estimate_calls": calls("inequality_lab.radius_estimate"),
            "inequality_lab.radius_estimate_s": secs("inequality_lab.radius_estimate"),
            "inequality_lab.observability_self_s": self_secs("inequality_lab.observability_experiment"),
            "inequality_lab.dominator_calls": calls("inequality_lab.smallest_log_affine_dominator"),
            "inequality_lab.dominator_pairs": counters["inequality_lab.dominator_pairs"],
            "inequality_lab.dominator_s": secs("inequality_lab.smallest_log_affine_dominator"),
            "inequality_lab.lift_telescope_s": secs(
                "inequality_lab.spacetime_lift", "inequality_lab.telescope_constant"),
            "cli.runner_self_s": self_secs(*runners),
            "trace.spans": hi - lo,
        }

    def save(self, path) -> None:
        """Write every recorded span; ``run`` indexes ``run_ids``."""
        run = np.zeros(len(self.start_ns), dtype=np.int32)
        for i, (_, lo, hi, _) in enumerate(self.runs):
            run[lo:hi] = i
        np.savez_compressed(
            path,
            names=np.array(self.names),
            run_ids=np.array([r[0] for r in self.runs]),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start_ns=np.frombuffer(self.start_ns, dtype=np.int64),
            end_ns=np.frombuffer(self.end_ns, dtype=np.int64),
            run=run,
        )
