"""Fast self-test of the benchmark (a few seconds).

    python3 perfbench/selftest.py

Runs one tiny config (the gl2f2-borel zoo entry, command verify) through the
untraced and the traced path and checks that every end-to-end and per-layer
metric BENCHMARK.json declares is emitted with its unit, that no per-layer
metric is absent, that the two traced passes agree, and that the
correctness gate rejects a report whose hash differs from its reference.
"""

import json
import sys

import run
import tracer


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    references = json.loads(run.REFERENCES.read_text(encoding="utf-8"))
    job = run.JobSpec("zoo-gl2f2-borel", "verify")
    bench = run.Bench(seed=1, references=references)
    try:
        plain = run.run_workload(bench, "selftest", [job], seconds=0, trace=False)
        traced = run.run_workload(bench, "selftest", [job], seconds=0, trace=True)
        bench.references = {job.id: {**references[job.id], "files": {"verify.json": "0" * 64}}}
        tampered = bench.run_job(job, "plain")
    finally:
        bench.close()

    errors = []
    for result, key in ((plain, "end_to_end"), (traced, "per_layer")):
        want = {m["name"]: m["unit"] for m in declared[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != want:
            errors.append(f"{key}: emitted {got}, declared {want}")
        if result["failed"]:
            errors.append(f"{key}: {result['problems']}")
    if set(tracer.LAYER_UNITS) != {m["name"] for m in declared["per_layer"]}:
        errors.append("tracer.LAYER_UNITS and BENCHMARK.json per_layer disagree")
    if traced["absent"]:
        errors.append(f"absent per-layer metrics: {traced['absent']}")
    if traced["nondeterminism"]:
        errors.append(f"traced passes disagree: {traced['nondeterminism']}")
    if not tampered.problems:
        errors.append("the correctness gate accepted a wrong report hash")
    for error in errors:
        print(f"FAIL {error}")
    print("selftest: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
