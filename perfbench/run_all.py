"""Run every workload of BENCHMARK.json and print each metric with its unit.

    python3 perfbench/run_all.py --seed N [--trace]
    python3 perfbench/run_all.py --seed N --against OTHER_CHECKOUT [--trace]

Each run measures for ``run_seconds`` of BENCHMARK.json.  With
``--against`` each workload runs in ten pairs on this checkout and on
OTHER_CHECKOUT (a second copy of the repository at another commit), with
the seed advancing per pair and the side that runs first alternating, and
the medians, quartiles and wins per metric are printed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import ROOT, quartiles

PAIRS = 10


def run_one(checkout, workload: str, seed: int, seconds: int,
            trace: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "1" if trace else "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"{checkout}: {workload} exited {proc.returncode}\n"
                         f"{proc.stderr}")
    print("\n".join(lines[:-1]))
    return json.loads(lines[-1])


def spread(values):
    q1, q3 = quartiles(values)
    return f"{statistics.median(values):.6g} [{q1:.6g}, {q3:.6g}]"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--against", type=Path, default=None)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    ok = True
    for w in spec["workloads"]:
        name = w["name"]
        if args.against is None:
            res = run_one(ROOT, name, args.seed, seconds, args.trace)
            ok = ok and res["correct"]
            print(f"[{name}] correct={res['correct']}")
            for metric, m in res["metrics"].items():
                print(f"  {metric} = {m['value']} {m['unit']}")
            continue
        sides = {"this": (ROOT, []), "other": (args.against, [])}
        for k in range(PAIRS):
            order = ["this", "other"] if k % 2 == 0 else ["other", "this"]
            for side in order:
                checkout, results = sides[side]
                results.append(run_one(checkout, name, args.seed + k, seconds,
                                       args.trace))
        print(f"[{name}] {PAIRS} pairs; this vs other: median [q1, q3], "
              "pairs this wins")
        for m in spec["per_layer" if args.trace else "end_to_end"]:
            key, lower = m["name"], m["better"] == "lower"
            this = [r["metrics"][key]["value"] for r in sides["this"][1]]
            other = [r["metrics"][key]["value"] for r in sides["other"][1]]
            wins = sum((a < b) if lower else (a > b) for a, b in zip(this, other))
            print(f"  {key} ({m['unit']}): {spread(this)} vs {spread(other)}; "
                  f"wins {wins}/{PAIRS}")
        ok = ok and all(r["correct"] for _, rs in sides.values() for r in rs)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
