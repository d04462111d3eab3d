#!/usr/bin/env python3
"""Compare the JSON reports of this checkout and another one over a
fixed matrix of configs.

    python scripts/compare_reports.py --against OTHER_CHECKOUT [--suite S ...]

Each config runs ``python -m qprism.cli <flags> --report json`` from the
``src/`` of both checkouts side by side, with no ``QPRISM_`` variable
set.  It prints one line per config, ``same`` or ``DIFF`` with the
suites whose entries differ (``exit`` when only the exit status
differs, ``report`` when the difference lies outside the suite
entries), followed by the flags.  The exit status is 1 on any DIFF.
``--suite`` (repeatable) restricts every config to those suites; by
default all suites run.  A config that names its own suites runs just
those, and is left out when ``--suite`` names none of them.  Stdlib
only.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent

# every suite at the default precision, then the low-precision corner,
# then the exact identities at a prime whose q-degrees run past 10^4
MATRIX = (
    [["--p", str(p), "--alpha", str(a)]
     for p, a in ((2, 0), (2, 1), (3, 0), (3, 1), (5, 0))]
    + [["--p", str(p), "--alpha", str(a), "--p-prec", str(N), "--t-prec", str(M)]
       for p in (2, 3) for a in (0, 1) for N, M in ((1, 2), (2, 4), (3, 8))]
    + [["--p", "11", "--suite", "q-identities"]]
)


def start(checkout: Path, flags: list) -> subprocess.Popen:
    env = {k: v for k, v in os.environ.items() if not k.startswith("QPRISM_")}
    env["PYTHONPATH"] = str(checkout / "src")
    return subprocess.Popen(
        [sys.executable, "-m", "qprism.cli", *flags, "--report", "json"],
        cwd=checkout, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)


def suite_entries(out: str):
    try:
        return {s["suite"]: s for s in json.loads(out)["suites"]}
    except (ValueError, KeyError, TypeError):
        return None


def differing(mine, theirs) -> list:
    """The names that tell where two (stdout, exit status) pairs differ."""
    (out_a, code_a), (out_b, code_b) = mine, theirs
    if out_a == out_b:
        return [] if code_a == code_b else ["exit"]
    sa, sb = suite_entries(out_a), suite_entries(out_b)
    if sa is None or sb is None:
        return ["report"]
    return sorted(n for n in sa.keys() | sb.keys() if sa.get(n) != sb.get(n)) or ["report"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--against", required=True, type=Path,
                    help="the other checkout (a directory holding src/qprism)")
    ap.add_argument("--suite", action="append", default=[],
                    help="suite name (repeatable; default: all)")
    args = ap.parse_args()
    other = args.against.resolve()
    if not (other / "src" / "qprism").is_dir():
        print(f"no src/qprism under {other}", file=sys.stderr)
        return 2
    suite_flags = [f for s in args.suite for f in ("--suite", s)]
    any_diff = False
    for flags in MATRIX:
        if "--suite" not in flags:
            flags = flags + suite_flags
        elif args.suite and not set(args.suite) & set(flags):
            continue
        procs = [start(HERE, flags), start(other, flags)]
        results = [(proc.communicate()[0], proc.returncode) for proc in procs]
        names = differing(*results)
        any_diff = any_diff or bool(names)
        verdict = f"DIFF {','.join(names)}" if names else "same"
        print(f"{verdict}  {' '.join(flags)}", flush=True)
    return 1 if any_diff else 0


if __name__ == "__main__":
    sys.exit(main())
