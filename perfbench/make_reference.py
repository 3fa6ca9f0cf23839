"""Store the reference answers of each workload at its default seed.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs each named workload (all by default) once and writes its summary
values and CSV rows to reference/<workload>.json.  A run that fails any
invariant check is not stored.
"""

import json
import sys

import run  # pins the BLAS threads before numpy loads
import workloads


def main(names) -> int:
    sys.path.insert(0, str(run.SRC))
    import fracheatlab.cli as cli

    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    status = 0
    for name in names or workloads.WORKLOADS:
        workload = workloads.WORKLOADS[name]
        seed = workload.default_seed
        results = run.run_workload(cli, workload, seed, run.OUT / name / "reference")
        checks = workloads.Checks()
        for result in results:
            workloads.check_invariants(result, checks)
        if checks.failures:
            print(f"{name}: not stored, failed {checks.failures}", file=sys.stderr)
            status = 1
            continue
        record = {"workload": name, "seed": seed, "stages": workloads.reference_record(results)}
        workload.reference_path().write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(f"{name}: wrote {workload.reference_path()} ({checks.attempted} invariants passed)")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
