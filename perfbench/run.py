"""Benchmark of the fracheatlab CLI, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload ensemble-steps --seed 1234 --seconds 20 --trace 0

``--workload`` is one of the names in BENCHMARK.json, or ``all`` to run
each workload in its own process.  One process imports the package from
``src/`` and calls ``fracheatlab.cli.main(argv)`` for each CLI call of
the workload, over and over until ``--seconds`` have passed, and checks
every iteration's outputs (see workloads.py).

``--trace 0`` reports the end-to-end metrics: the median ``wall_s`` and
``units_per_s`` over the iterations, the process's peak RSS, the share of
checks that passed, and ``setup_s``, the median time of several fresh
interpreters that each import ``fracheatlab.cli``.

``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics of spans.py (medians over the traced iterations) plus
the tracing overhead, traced minus untraced median ``wall_s``.  A traced
function that the workload should call but never does fails a check.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 when a
check failed and 2 when the package source is missing.  Outputs, a
result file with the environment, and (traced) the spans go under
``.perfbench_out/``.
"""

import os

# BLAS threads are pinned before numpy loads.  One thread is allowed on
# any machine and keeps the dense eigensolves of ls-scan-2d steadier on a
# shared one than two threads do.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 7
IMPORT_SNIPPET = f"import sys; sys.path.insert(0, {str(SRC)!r}); import fracheatlab.cli"


def setup_time() -> float:
    """Seconds from starting a fresh interpreter until ``import
    fracheatlab.cli`` has returned and the interpreter has exited."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], check=True)
    return time.perf_counter() - start


def run_workload(cli, workload, seed, outdir) -> list:
    """Each CLI call of the workload once, into a fresh output directory."""
    results = []
    for i, (experiment, _) in enumerate(workload.stages):
        stage_dir = outdir / f"stage{i}-{experiment}"
        shutil.rmtree(stage_dir, ignore_errors=True)
        argv = workload.argv(i, seed, stage_dir)
        results.append(workloads.run_stage(cli.main, experiment, argv, stage_dir))
    return results


def run_iteration(cli, workload, seed, outdir, reference):
    """One timed, checked pass; returns (wall_s, work units, checks)."""
    start = time.perf_counter()
    results = run_workload(cli, workload, seed, outdir)
    checks = workloads.verify(workload, seed, results, reference)
    wall = time.perf_counter() - start
    return wall, workloads.work_units(workload, results), checks


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    cpu_max = "unavailable"
    for path in ("/sys/fs/cgroup/cpu.max", "/sys/fs/cgroup/cpu/cpu.cfs_quota_us"):
        if Path(path).exists():
            cpu_max = f"{path}: {Path(path).read_text().strip()}"
            break
    return {
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": cpu_max,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "seed": seed,
    }


def measure(cli, workload, seed, seconds, trace, outdir, reference, import_s,
            setup_samples=SETUP_SAMPLES):
    """Run the workload for ``seconds``; returns (metrics, samples, checks).

    ``metrics`` maps metric names to values and ``samples`` the same names
    to the measurements behind each value.  ``import_s`` is how
    long this process took to import ``fracheatlab.cli``.
    """
    checks = workloads.Checks()
    walls, rates, traced_walls = [], [], []
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()

    def one_pass(traced):
        if not traced:
            return run_iteration(cli, workload, seed, outdir, reference)
        tracer.install()
        try:
            tracer.begin_run()
            result = run_iteration(cli, workload, seed, outdir, reference)
            tracer.end_run(f"{workload.name}-seed{seed}-run{len(traced_walls)}")
        finally:
            tracer.uninstall()
        return result

    setup = []
    busy = 0.0  # seconds spent in workload passes; set-up samples do not count
    while True:
        # traced and untraced passes take turns at going first
        modes = (False,) if tracer is None else (False, True) if len(walls) % 2 == 0 else (True, False)
        for traced in modes:
            wall, units, c = one_pass(traced)
            busy += wall
            checks.merge(c)
            if traced:
                traced_walls.append(wall)
            else:
                walls.append(wall)
                rates.append(units / wall)
        if tracer is None:
            # set-up samples are spread over the run, so that they meet the
            # machine in the same states as the workload passes do
            due = setup_samples if busy >= seconds else math.ceil(setup_samples * busy / seconds)
            while len(setup) < due:
                setup.append(setup_time())
        if busy >= seconds:
            break

    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "units_per_s": statistics.median(rates),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ratio": (checks.attempted - len(checks.failures)) / checks.attempted,
        }
        samples = {"setup_s": setup, "wall_s": walls, "units_per_s": rates,
                   "peak_rss_mb": [metrics["peak_rss_mb"]], "ok_ratio": [metrics["ok_ratio"]]}
        return metrics, samples, checks

    runs = [tracer.layer_metrics(i) for i in range(len(tracer.runs))]
    metrics = {name: statistics.median(r[name] for r in runs) for name in runs[0]}
    metrics["trace.wall_s"] = statistics.median(traced_walls)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(walls)
    metrics["cli.import_s"] = import_s
    for i in range(len(tracer.runs)):
        calls = tracer.calls(i)
        for name in workload.expected_calls:
            checks.check(calls.get(name, 0) > 0, f"traced {name} was never called")
    tracer.save(outdir / "spans.npz")
    samples = {name: [r[name] for r in runs] for name in runs[0]}
    samples["trace.wall_s"] = traced_walls
    samples["trace.overhead_s"] = [w - statistics.median(walls) for w in traced_walls]
    samples["cli.import_s"] = [import_s]
    return metrics, samples, checks


def run_one(args) -> int:
    if not (SRC / "fracheatlab" / "cli.py").is_file():
        print(f"error: package source {SRC / 'fracheatlab'} not found", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import fracheatlab.cli as cli

    import_s = time.perf_counter() - start
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported {cli.__file__}, not the package under {SRC}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    outdir = OUT / workload.name / f"seed{args.seed}-trace{args.trace}"
    outdir.mkdir(parents=True, exist_ok=True)
    metrics, samples, checks = measure(
        cli, workload, args.seed, args.seconds, args.trace, outdir,
        workloads.load_reference(workload), import_s,
    )

    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[group]}
    report = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    env = environment(args.seed)
    (outdir / "result.json").write_text(json.dumps({
        "workload": workload.name,
        "unit": workload.unit,
        "trace": args.trace,
        "environment": env,
        "metrics": report,
        "samples": {name: samples[name] for name in units},
        "attempted": checks.attempted,
        "failures": checks.failures,
    }, indent=2) + "\n", encoding="utf-8")

    print(f"# {workload.name} seed {args.seed} trace {args.trace}: "
          f"{env['blas_threads']} BLAS thread(s), nproc {env['nproc']}, "
          f"python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}")
    for name, entry in report.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']} (n={len(samples[name])})")
    print(f"checks: {checks.attempted - len(checks.failures)}/{checks.attempted} passed")
    for label in checks.failures[:20]:
        print(f"FAILED {label}")
    correct = not checks.failures
    print(json.dumps({
        "correct": correct,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": report,
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 2
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
