"""Smoke test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Each workload, shrunk to its ``tiny`` settings, is measured once untraced
and once traced.  Both passes must emit exactly the metrics that
BENCHMARK.json declares for them and pass every check.  A reference
answer altered on purpose, in a summary value and in a CSV cell, must make
the gate fail.  Finally the benchmark must refuse to run, with a nonzero
exit and no result line, in a copy that holds only BENCHMARK.json and the
benchmark's own files.  Exits 0 when everything holds.
"""

import copy
import json
import shutil
import subprocess
import sys
import time

import run  # pins the BLAS threads before numpy loads
import workloads


def _altered(value: str) -> str:
    return repr(float(workloads.parse_value(value)) * 1.001 + 1e-3)


def _numeric(text: str) -> bool:
    value = workloads.parse_value(text)
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def gate_failures(workload, results, reference) -> list:
    """Problems with the reference gate on one tiny run."""
    problems = []
    seed = workload.default_seed
    if workloads.verify(workload, seed, results, reference).failures:
        problems.append("the unaltered reference does not pass")
    stage = reference[0]
    key = next(k for k, v in stage["summary"].items() if _numeric(v))
    wrong = copy.deepcopy(reference)
    wrong[0]["summary"][key] = _altered(stage["summary"][key])
    if not workloads.verify(workload, seed, results, wrong).failures:
        problems.append(f"altered summary value {key} passes")
    table, rows = next(iter(stage["tables"].items()))
    col = next(i for i, cell in enumerate(rows[-1]) if _numeric(cell))
    wrong = copy.deepcopy(reference)
    wrong[0]["tables"][table][-1][col] = _altered(rows[-1][col])
    if not workloads.verify(workload, seed, results, wrong).failures:
        problems.append(f"altered cell of {table} passes")
    return problems


def refuses_without_source() -> list:
    bare = run.OUT / "selftest" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "class-verify-2d",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=180,
    )
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"ran without the package source (exit {proc.returncode})"]
    return []


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    start = time.perf_counter()
    import fracheatlab.cli as cli

    import_s = time.perf_counter() - start
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    groups = {trace: {m["name"] for m in declared[group]}
              for trace, group in ((0, "end_to_end"), (1, "per_layer"))}
    if set(workloads.WORKLOADS) != {w["name"] for w in declared["workloads"]}:
        print("FAIL workloads differ from BENCHMARK.json")
        return 1

    failed = False
    for name, full in workloads.WORKLOADS.items():
        workload = full.shrunk()
        seed = workload.default_seed
        outdir = run.OUT / "selftest" / name
        outdir.mkdir(parents=True, exist_ok=True)
        results = run.run_workload(cli, workload, seed, outdir)
        reference = workloads.reference_record(results)
        problems = gate_failures(workload, results, reference)
        for trace, names in groups.items():
            metrics, _, checks = run.measure(
                cli, workload, seed, 0.0, trace, outdir, reference, import_s, setup_samples=1)
            if set(metrics) != names:
                problems.append(f"trace {trace} emits {sorted(set(metrics) ^ names)} "
                                "against BENCHMARK.json")
            problems += [f"trace {trace}: {label}" for label in checks.failures]
        for problem in problems:
            print(f"FAIL {name}: {problem}")
        if not problems:
            print(f"ok   {name}")
        failed = failed or bool(problems)

    for problem in refuses_without_source():
        print(f"FAIL {problem}")
        failed = True
    print("selftest", "FAILED" if failed else "passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
