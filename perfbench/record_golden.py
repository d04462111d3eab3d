"""Record the golden report of each workload for a range of seeds.

    python3 perfbench/record_golden.py WORKLOAD FIRST_SEED LAST_SEED

For each benchmark seed in the range it records every CLI seed of the
workload's cycle; seeds already in golden.json are kept.  Each report must first pass the
workload's expected status counts; its exit code, SHA-256 and status
counts are then stored in golden.json, which run.py compares every later
report against.  Run it only on a commit whose reports are known to be
right.
"""

import json
import sys
import time

from run import HERE, WORKLOADS, Sample, check, cli_seed


def main() -> int:
    workload, first, last = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    flags, cases, fails, cycle = WORKLOADS[workload]
    path = HERE / "golden.json"
    golden = json.loads(path.read_text())
    seeds = sorted({cli_seed(s, k) for s in range(first, last + 1)
                    for k in range(cycle)})
    for seed in seeds:
        if str(seed) in golden.get(workload, {}):
            continue
        s = Sample([*flags, "--seed", str(seed)], False,
                   time.monotonic() + 600, f"golden{seed}")
        problem = check(s, None, cases, fails, None)
        if problem:
            print(f"{workload} seed {seed}: {problem}; not recorded")
            return 1
        golden.setdefault(workload, {})[str(seed)] = {
            "exit": s.exit, "sha256": s.sha256, "counts": dict(s.counts)}
        path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        print(f"{workload} seed {seed}: exit {s.exit} {s.sha256[:12]} "
              f"{dict(s.counts)} {s.wall_s:.2f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
