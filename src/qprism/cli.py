"""Batch verification harness.

Configures (p, alpha, N, M, L, K, Dmax), runs named suites, and emits a
deterministic machine-readable report.  Exit status: 0 when no case
failed, 2 when a failure is present, 3 on configuration errors.

Flags can also come from a key=value config file (--config) and from
environment variables prefixed QPRISM_ (e.g. QPRISM_P=5); precedence is
flags > environment > config file > defaults.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .suites import (
    DISCREPANCY,
    FAIL,
    RunConfig,
    list_suites,
    run_suites,
)

REPORT_VERSION = "1"

_FIELDS = [
    ("p", int), ("alpha", int), ("p_prec", int), ("t_prec", int),
    ("witt_len", int), ("descent_degree", int), ("dp_degree", int),
    ("seed", int), ("report", str), ("out", str),
]

def _parse_config_file(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, val = line.split("=", 1)
            out[key.strip().replace("-", "_")] = val.strip()
    return out


def _env_overrides() -> dict:
    out = {}
    for name, _ in _FIELDS:
        envname = "QPRISM_" + name.upper()
        if envname in os.environ:
            out[name] = os.environ[envname]
    if "QPRISM_SUITE" in os.environ:
        out["suites"] = os.environ["QPRISM_SUITE"].split(",")
    return out


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qprism", description="exact verification suites for q-deformed "
        "calculus, Witt lifts, twisted algebras, and their cohomology")
    ap.add_argument("--p", type=int, default=None, help="prime (default 3)")
    ap.add_argument("--alpha", type=int, default=None, help="level (default 0)")
    ap.add_argument("--p-prec", type=int, default=None, dest="p_prec",
                    help="p-adic digits N (default 8)")
    ap.add_argument("--t-prec", type=int, default=None, dest="t_prec",
                    help="series truncation M (default 32)")
    ap.add_argument("--witt-len", type=int, default=None, dest="witt_len",
                    help="Witt vector length L (default 4)")
    ap.add_argument("--descent-degree", type=int, default=None,
                    dest="descent_degree", help="descent degree K (default 5)")
    ap.add_argument("--dp-degree", type=int, default=None, dest="dp_degree",
                    help="divided-power truncation Dmax (default 12)")
    ap.add_argument("--suite", action="append", default=None,
                    help="suite name (repeatable; default: all)")
    ap.add_argument("--report", choices=("json", "text"), default=None)
    ap.add_argument("--out", default=None, help="output path (default stdout)")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--timings", action="store_true",
                    help="include wall times (breaks byte-identical output)")
    ap.add_argument("--config", default=None, help="key=value config file")
    ap.add_argument("--list-suites", action="store_true")
    return ap


def resolve_config(args) -> RunConfig:
    defaults = RunConfig()
    layers = [{}]
    if args.config:
        layers.append(_parse_config_file(args.config))
    layers.append(_env_overrides())
    flags = {name: getattr(args, name) for name, _ in _FIELDS}
    flags["suites"] = args.suite
    layers.append({k: v for k, v in flags.items() if v is not None})
    merged = {}
    for layer in layers:
        merged.update({k: v for k, v in layer.items() if v is not None})
    cfg = RunConfig()
    for name, typ in _FIELDS:
        if name in merged:
            setattr(cfg, name, typ(merged[name]) if merged[name] is not None else None)
    if "suites" in merged:
        val = merged["suites"]
        cfg.suites = val if isinstance(val, list) else [s for s in str(val).split(",") if s]
    cfg.report = cfg.report or defaults.report
    cfg.timings = bool(args.timings)
    cfg.validate()
    return cfg


def render_json(cfg: RunConfig, reports) -> str:
    """Fixed field order, numbers as decimal strings."""
    doc = {
        "version": REPORT_VERSION,
        "config": {
            "p": str(cfg.p), "alpha": str(cfg.alpha),
            "p_prec": str(cfg.p_prec), "t_prec": str(cfg.t_prec),
            "witt_len": str(cfg.witt_len),
            "descent_degree": str(cfg.descent_degree),
            "dp_degree": str(cfg.dp_degree), "seed": str(cfg.seed),
        },
        "suites": [],
    }
    for rep in reports:
        entry = {
            "suite": rep.name,
            "params": {k: str(v) for k, v in sorted(rep.params.items())},
            "cases": [],
        }
        for c in rep.cases:
            case = {"id": c.case_id, "status": c.status, "witness": c.witness}
            if cfg.timings:
                case["wall_ms"] = str(c.wall_ms)
            entry["cases"].append(case)
        doc["suites"].append(entry)
    return json.dumps(doc, indent=1, sort_keys=False)


def render_text(cfg: RunConfig, reports) -> str:
    lines = [f"qprism report v{REPORT_VERSION}  "
             f"(p={cfg.p}, alpha={cfg.alpha}, N={cfg.p_prec}, M={cfg.t_prec}, "
             f"L={cfg.witt_len}, K={cfg.descent_degree}, Dmax={cfg.dp_degree}, "
             f"seed={cfg.seed})"]
    for rep in reports:
        npass = sum(1 for c in rep.cases if c.status == "pass")
        lines.append(f"\n[{rep.name}]  {npass}/{len(rep.cases)} pass")
        for c in rep.cases:
            mark = {"pass": "ok  ", FAIL: "FAIL", DISCREPANCY: "disc",
                    "not-certified": "ncrt"}[c.status]
            extra = f"  -- {c.witness}" if c.witness and c.status != "pass" else ""
            timing = f"  [{c.wall_ms} ms]" if cfg.timings else ""
            lines.append(f"  {mark}  {c.case_id}{extra}{timing}")
    total_fail = sum(len(r.failed) for r in reports)
    lines.append(f"\n{'FAILURES: %d' % total_fail if total_fail else 'all suites clean'}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.list_suites:
        for name, desc, identity in list_suites():
            print(f"{name}\n    {desc}\n    checks: {identity}")
        return 0
    try:
        cfg = resolve_config(args)
        # opened before any suite runs, so a bad path is a config error
        out = open(cfg.out, "w") if cfg.out else sys.stdout
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    try:
        reports = run_suites(cfg)
        print(render_json(cfg, reports) if cfg.report == "json" else render_text(cfg, reports),
              file=out)
    finally:
        if cfg.out:
            out.close()
    return 2 if any(r.failed for r in reports) else 0


if __name__ == "__main__":
    sys.exit(main())
