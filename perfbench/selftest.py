"""Self-test of the benchmark.

    python3 perfbench/selftest.py

For every workload of BENCHMARK.json, at seed 0, it checks that run.py
reports exactly the metrics BENCHMARK.json names, with their units, in
both modes, and that two traced runs give identical counts: every
``count`` metric, the Ore terms-kept ratio and the operand-size
histograms.  Exits 1 if any check fails.
"""

import json
import sys

from run import exact
from run_all import ROOT, run_one

SEED = 0


def run(workload: str, trace: int):
    result = run_one(ROOT, workload, SEED, 1, bool(trace))
    record = json.loads((ROOT / ".perfbench_out" /
                         f"{workload}-seed{SEED}-trace{trace}.json").read_text())
    return result, record


def check_workload(spec: dict, workload: str) -> list:
    failures = []
    runs = {0: [run(workload, 0)], 1: [run(workload, 1) for _ in range(2)]}
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for result, _ in runs[trace]:
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                failures.append(f"trace {trace}: metrics {sorted(set(got) ^ set(want))} "
                                "differ from BENCHMARK.json")
            if not result["correct"]:
                failures.append(f"trace {trace}: report check failed")
            if any(v["value"] is None for v in result["metrics"].values()):
                failures.append(f"trace {trace}: a metric has no value")
    (a, rec_a), (b, rec_b) = runs[1]
    exact_names = [m["name"] for m in spec["per_layer"] if exact(m)]
    for name in exact_names:
        va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
        if va != vb:
            failures.append(f"{name}: {va} then {vb}")
    if rec_a["sizes"] != rec_b["sizes"]:
        failures.append("operand-size histograms differ")
    for f in failures:
        print("FAIL", f)
    print(f"selftest {workload} seed {SEED}: "
          f"{len(exact_names)} counts compared, {len(failures)} failures",
          flush=True)
    return failures


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = [w["name"] for w in spec["workloads"]
              if check_workload(spec, w["name"])]
    print(f"selftest: {len(spec['workloads'])} workloads, "
          f"{len(failed)} failed {failed}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
