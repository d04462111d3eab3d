"""qprism benchmark: one workload, run as the qprism CLI in fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A closed loop with one client: one CLI run at a time, each a fresh
process, in whole cycles until ``--seconds`` have been measured.  One
cycle runs each of the workload's CLI seeds once, the first being
``--seed`` itself, so the inputs depend on ``--seed`` alone.  Every report is checked against the recorded golden
for its CLI seed (``golden.json``) or, for a seed with none, against the
workload's expected status counts, and all reports of one CLI seed must
be byte-identical, traced or not.  With ``--trace 0`` the last line of stdout is the
end-to-end metrics; with ``--trace 1`` it is the per-layer metrics of a
traced run, with traced and untraced samples alternating so that the
tracing overhead is measured too.  The metric names and units are read
from ``BENCHMARK.json``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"


def _suites(*names):
    return [arg for name in names for arg in ("--suite", name)]


# name -> (qprism flags, cases per run, `fail` cases that are correct output,
#          CLI seeds per cycle)
WORKLOADS = {
    "cohomology-a1": (
        ["--p", "3", "--alpha", "1", *_suites(
            "double-complex", "koszul", "bk-twists", "tensor", "nilpotence",
            "ht-regular-rep", "sen-qconn")], 88, 0, 4),
    # the 8 failures (all in wcart-h1) are the registered p=5 leading-term
    # boundary
    "construction-p5-lite": (
        ["--p", "5", *_suites(
            "witt-c", "witt-cpsi", "witt-cu", "witt-dv1", "delta-power",
            "wcart-h1", "epsilon-action")], 54, 8, 1),
    "ore-relations": (
        ["--p", "3", "--alpha", "1", *_suites("ore-master-relation", "ore-akj")],
        6, 0, 1),
    # not in BENCHMARK.json (see README.md): one CLI run takes 32-58 s
    "construction-p5": (
        ["--p", "5", *_suites(
            "witt-b", "witt-c", "witt-cpsi", "witt-cu", "witt-dv1",
            "delta-power", "wcart-h1", "epsilon-action")], 60, 8, 1),
    # not in BENCHMARK.json: its work doubles between seeds (see README.md)
    "default": ([], 168, 0, 1),
}

# Cycle run k uses CLI seed `--seed + SEED_STRIDE * k`, so that one
# invocation of cohomology-a1 averages over four inputs: its work varies by
# about 11% between CLI seeds (6.2-9.2 s for seeds 0-9).  The other
# workloads do (nearly) the same work for every seed and repeat `--seed`.
SEED_STRIDE = 1000

STATUS_MARKS = {"ok": "pass", "FAIL": "fail", "disc": "expected-discrepancy",
                "ncrt": "not-certified"}
SETUP_PROBES = 5
RUN_LIMIT_S = 170.0  # a run must end within 180 s


def probe_s() -> float:
    """A fixed pure-Python workload, timed to show how fast the host is now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - t0


def status_counts(report: bytes) -> Counter:
    counts = Counter()
    for line in report.decode(errors="replace").splitlines():
        parts = line.split()
        if line.startswith("  ") and parts and parts[0] in STATUS_MARKS:
            counts[STATUS_MARKS[parts[0]]] += 1
    return counts


class Sample:
    """One CLI process: its report, exit code, timings and peak memory."""

    def __init__(self, flags, trace: bool, deadline: float, tag: str):
        OUT.mkdir(exist_ok=True)
        info_path = OUT / f"child-{os.getpid()}-{tag}.json"
        info_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "launch.py"), str(info_path),
               "1" if trace else "0", *flags]
        self.load = os.getloadavg()[0]
        err_path = OUT / f"stderr-{os.getpid()}.txt"
        with open(err_path, "w+b") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                    stdin=subprocess.DEVNULL, cwd=ROOT)
            killer = threading.Timer(max(deadline - time.monotonic(), 0.1),
                                     proc.kill)
            killer.start()
            try:
                self.report = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
                self.wall_s = time.monotonic() - t0
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                killer.cancel()
                proc.stdout.close()
            err.seek(0)
            self.stderr = err.read().decode(errors="replace")
        err_path.unlink()
        self.exit = proc.returncode
        self.peak_rss_mb = usage.ru_maxrss / 1024
        self.sha256 = hashlib.sha256(self.report).hexdigest()
        self.counts = status_counts(self.report)
        self.info = {}
        if info_path.exists():
            self.info = json.loads(info_path.read_text())
            info_path.unlink()
        self.setup_s = (self.info["main_entered"] - t0
                        if "main_entered" in self.info else None)
        self.spans_path = str(info_path) + ".spans"


def cli_seed(seed: int, k: int) -> int:
    return seed + SEED_STRIDE * k


def exact(metric: dict) -> bool:
    """Whether a per-layer metric repeats exactly for a fixed seed: the
    counts and the Ore terms-kept ratio."""
    return metric["unit"] == "count" or metric["name"].endswith("terms_kept_frac")


def check(sample: Sample, golden, expected_cases: int, expected_fails: int,
          first_sha):
    """Why this report is wrong, or None when it is right."""
    if golden is not None:
        if sample.exit != golden["exit"]:
            return f"exit {sample.exit}, golden {golden['exit']}"
        if sample.sha256 != golden["sha256"]:
            return "report bytes differ from the golden"
        if dict(sample.counts) != golden["counts"]:
            return f"status counts {dict(sample.counts)}, golden {golden['counts']}"
    else:
        want_exit = 2 if expected_fails else 0
        if sample.exit != want_exit:
            return f"exit {sample.exit}, expected {want_exit}"
        if sum(sample.counts.values()) != expected_cases:
            return f"{sum(sample.counts.values())} cases, expected {expected_cases}"
        if sample.counts["fail"] != expected_fails:
            return f"{sample.counts['fail']} failed cases, expected {expected_fails}"
        if sample.counts["not-certified"]:
            return f"{sample.counts['not-certified']} not-certified cases"
    if first_sha is not None and sample.sha256 != first_sha:
        return "report bytes differ between repeats"
    return None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "qprism" / "cli.py").is_file():
        print("no qprism sources under src/qprism: nothing to benchmark",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    flags, expected_cases, expected_fails, cycle = WORKLOADS[args.workload]
    goldens = json.loads((HERE / "golden.json").read_text()) \
        .get(args.workload, {})

    setup = []
    for k in range(SETUP_PROBES):
        s = Sample(["--list-suites"], False, deadline, f"setup{k}")
        if s.exit != 0 or s.setup_s is None:
            print(f"setup probe failed with exit {s.exit}", file=sys.stderr)
            return 1
        setup.append(s.setup_s)

    samples, probes, problems = [], [], []
    first_sha = {}  # CLI seed -> SHA-256 of its first report
    # a traced invocation alternates traced and untraced runs of each seed
    kinds = (True, False) if args.trace else (False,)
    measure_start = time.monotonic()
    while not problems:
        cycle_start = time.monotonic()
        for seed in (cli_seed(args.seed, k) for k in range(cycle)):
            for traced in kinds:
                probes.append(probe_s())
                s = Sample([*flags, "--seed", str(seed)], traced, deadline,
                           str(len(samples)))
                s.traced, s.seed = traced, seed
                samples.append(s)
                problem = check(s, goldens.get(str(seed)), expected_cases,
                                expected_fails,
                                first_sha.setdefault(seed, s.sha256))
                if problem:
                    problems.append(problem)
                    print(s.stderr[-2000:], file=sys.stderr)
                    break
            if problems:
                break
        # another cycle starts only if it is expected to end in time
        now = time.monotonic()
        if now - measure_start + (now - cycle_start) > args.seconds:
            break

    untraced = [x for x in samples if not x.traced]
    traced = [x for x in samples if x.traced]
    runs_failed = len(problems)
    attempted_cases = expected_cases * len(samples)
    failed_cases = sum(x.counts["fail"] if x.exit in (0, 2) else expected_cases
                       for x in samples)
    uncertified = sum(x.counts["not-certified"] for x in samples)
    setup += [x.setup_s for x in untraced if x.setup_s is not None]
    walls = [x.wall_s for x in untraced]
    values = {
        "setup_s": statistics.median(setup),
        "cases_ok_frac": 1 - failed_cases / attempted_cases,
        "cases_certified_frac": 1 - uncertified / attempted_cases,
        "report_match_frac": 1 - runs_failed / len(samples),
    }
    print(f"workload {args.workload}  seed {args.seed}  "
          f"{len(untraced)} untraced + {len(traced)} traced CLI runs")
    if untraced:
        values["wall_s"] = statistics.median(walls)
        values["peak_rss_mb"] = statistics.median(x.peak_rss_mb for x in untraced)
        wall_q = quartiles(walls)
        print(f"  wall_s median {values['wall_s']:.4f}  q1 {wall_q[0]:.4f}  "
              f"q3 {wall_q[1]:.4f}  n={len(walls)}  "
              f"peak_rss_mb {values['peak_rss_mb']:.1f}")
    print(f"  setup_s median {values['setup_s']:.4f}  n={len(setup)}")
    print(f"  cases_failed_frac {failed_cases}/{attempted_cases}  "
          f"cases_uncertified_frac {uncertified}/{attempted_cases}  "
          f"report_mismatch_frac {runs_failed}/{len(samples)}")
    print(f"  host probe median {statistics.median(probes):.4f} s  "
          f"load {', '.join(f'{x.load:.2f}' for x in samples)} "
          "(reported, never used to rescale)")
    for p in problems:
        print(f"  MISMATCH: {p}")

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "samples": [{"traced": x.traced, "wall_s": x.wall_s,
                           "seed": x.seed, "setup_s": x.setup_s, "peak_rss_mb": x.peak_rss_mb,
                           "exit": x.exit, "sha256": x.sha256,
                           "counts": dict(x.counts), "load": x.load}
                          for x in samples],
              "setup_probes_s": setup[:SETUP_PROBES], "host_probe_s": probes,
              "problems": problems}
    if args.trace:
        metrics_spec = spec["per_layer"]
        values = traced_metrics(traced, untraced, record, metrics_spec) \
            if traced and untraced and not problems else {}
    else:
        metrics_spec = spec["end_to_end"]
    for x in samples:
        Path(x.spans_path).unlink(missing_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(record, indent=1))
    result = {"correct": not problems, "attempted": len(samples),
              "failed": runs_failed,
              "metrics": {m["name"]: {"value": values.get(m["name"]),
                                      "unit": m["unit"]}
                          for m in metrics_spec}}
    print(json.dumps(result))
    return 0 if not problems else 1


def traced_metrics(traced, untraced, record, per_layer) -> dict:
    """Per-layer metrics: times are medians over the traced runs; the exact
    metrics are those of the first, whose CLI seed is ``--seed``."""
    from spans import layer_metrics, size_histograms
    per_run = [layer_metrics(x.info["trace"], x.spans_path, x.info["import_s"])
               for x in traced]
    exact_names = {m["name"] for m in per_layer if exact(m)}
    values = {k: per_run[0][k] if k in exact_names
              else statistics.median(r[k] for r in per_run) for k in per_run[0]}
    values["trace.overhead_frac"] = (
        statistics.median(x.wall_s for x in traced)
        / statistics.median(x.wall_s for x in untraced) - 1)
    record["sizes"] = size_histograms(traced[0].info["trace"]["counts"])
    record["run_ids"] = [x.info["trace"]["run_id"] for x in traced]
    for kind, hist in record["sizes"].items():
        print(f"  {kind}: " + ", ".join(f"({k}) x{n}" for k, n in hist.items()))
    return values


if __name__ == "__main__":
    sys.exit(main())
