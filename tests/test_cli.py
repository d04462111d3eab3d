"""Harness behavior: determinism, exit codes, config layering."""

import dataclasses
import hashlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

from qprism import suites
from qprism.cli import build_parser, main, render_json, resolve_config
from qprism.suites import RunConfig, list_suites, run_suites

FAST = ["e-beta", "witt-dv1", "sen-qconn"]
SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))


def run_cli(args, env=None):
    e = dict(os.environ)
    e.update(env or {})
    e["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, e.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "qprism.cli"] + args,
                          capture_output=True, text=True, env=e)
    return proc


class TestRegistry:
    def test_contains_named_suites(self):
        names = [n for n, _, _ in list_suites()]
        for expected in ("witt-b", "witt-c", "ore-master-relation",
                         "q-identities", "wcart-h1", "bk-twists"):
            assert expected in names

    def test_every_suite_has_identity_string(self):
        for _, desc, identity in list_suites():
            assert desc and identity

    def test_listing_stable(self):
        assert list_suites() == list_suites()


class TestDeterminism:
    def test_byte_identical_reports(self):
        cfg = RunConfig(suites=FAST)
        r1 = render_json(cfg, run_suites(cfg))
        r2 = render_json(cfg, run_suites(cfg))
        assert r1 == r2

    def test_seeded_random_suites_deterministic(self):
        cfg = RunConfig(suites=["tensor"], seed=5)
        r1 = render_json(cfg, run_suites(cfg))
        r2 = render_json(cfg, run_suites(cfg))
        assert r1 == r2

    def test_json_schema(self):
        cfg = RunConfig(suites=["e-beta"], report="json")
        doc = json.loads(render_json(cfg, run_suites(cfg)))
        assert list(doc) == ["version", "config", "suites"]
        assert doc["config"]["p"] == "3"  # decimal strings
        assert all(set(c) == {"id", "status", "witness"}
                   for s in doc["suites"] for c in s["cases"])


class TestExitCodes:
    def test_clean_run_exits_zero(self):
        proc = run_cli(["--suite", "e-beta", "--suite", "witt-dv1"])
        assert proc.returncode == 0, proc.stderr

    def test_config_error_exits_three(self):
        proc = run_cli(["--p", "4"])
        assert proc.returncode == 3
        proc = run_cli(["--suite", "nope"])
        assert proc.returncode == 3

    def test_unwritable_out_path_is_a_config_error(self, monkeypatch, tmp_path):
        # checked before any suite runs: exit 3 and no traceback
        out = tmp_path / "missing_dir" / "report.txt"
        proc = run_cli(["--suite", "e-beta", "--out", str(out)])
        assert proc.returncode == 3
        assert proc.stderr.startswith("config error: ")
        assert "Traceback" not in proc.stderr and not out.exists()
        ran = []
        spec = suites.REGISTRY["e-beta"]
        monkeypatch.setitem(suites.REGISTRY, "e-beta", dataclasses.replace(
            spec, runner=lambda cfg: ran.append(cfg) or []))
        assert main(["--suite", "e-beta", "--out", str(out)]) == 3 and ran == []

    def test_failing_case_exits_two(self):
        # the p = 5 leading-term suite contains measured failures
        proc = run_cli(["--p", "5", "--suite", "wcart-h1"])
        assert proc.returncode == 2
        assert "residual" in proc.stdout

    def test_p2_twists_registered_at_any_level(self):
        # the normalized twist is an alpha = 0 object; the registered
        # discrepancies must apply whatever level is configured
        proc = run_cli(["--p", "2", "--alpha", "1", "--suite", "bk-twists"])
        assert proc.returncode == 0
        assert "disc" in proc.stdout

    def test_twist_orders_above_precision_not_certified(self):
        # at N = 2 the cokernel is capped at p^2: a computed p^2 cannot
        # certify v_3(+-9) = v_3(+-18) = 2, nor v_3(+-27) = 3
        proc = run_cli(["--p", "3", "--p-prec", "2", "--suite", "bk-twists"])
        assert proc.returncode == 0, proc.stderr
        assert "FAIL" not in proc.stdout
        assert proc.stdout.count("ncrt") == 6
        assert "capped at p^2" in proc.stdout

    @pytest.mark.parametrize("args", [
        ["--t-prec", "1", "--suite", "epsilon-action"],
        ["--t-prec", "1", "--suite", "ore-assoc"],
        ["--p", "5", "--p-prec", "1", "--suite", "witt-cu"],
        ["--p-prec", "1", "--suite", "witt-cu"],
    ])
    def test_exhausted_precision_is_not_certified(self, args):
        proc = run_cli(args)
        assert proc.returncode in (0, 2), proc.stderr
        assert "Traceback" not in proc.stdout + proc.stderr
        assert "ncrt" in proc.stdout and "PrecisionError" in proc.stdout

    def test_precision_monotonic_decides_at_t_prec_1(self):
        # at M = 1 only epsilon-action's checks on X_u run out of digits;
        # they are not-certified cases inside the called suite, so
        # precision-monotonic still compares every other verdict
        proc = run_cli(["--t-prec", "1", "--suite", "precision-monotonic",
                        "--report", "json"])
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stdout + proc.stderr
        [rep] = json.loads(proc.stdout)["suites"]
        assert [(c["id"], c["status"]) for c in rep["cases"]] == [
            ("every passing case re-passes at (N+2, M+8)", suites.PASS)]

    def test_suite_exception_is_a_failing_case(self, monkeypatch):
        def boom(cfg):
            raise KeyError("boom")
        spec = suites.REGISTRY["e-beta"]
        monkeypatch.setitem(suites.REGISTRY, "e-beta",
                            dataclasses.replace(spec, runner=boom))
        [rep] = run_suites(RunConfig(suites=["e-beta"]))
        assert [(c.status, c.witness) for c in rep.cases] == [
            (suites.FAIL, "KeyError('boom')")]


class TestConstructionCases:
    """``suites._construction_cases`` with stub builders: a precision
    shortfall is not-certified, any other exception fails."""

    class Built:
        checks = {"first": True, "second": False}
        ok = True

    def run(self, series, exact):
        def builder(backend):
            outcome = series if backend == "series" else exact
            if isinstance(outcome, Exception):
                raise outcome
            return outcome
        return [(c.case_id, c.status, c.witness)
                for c in suites._construction_cases(RunConfig(), "x", builder)]

    def test_both_builders_succeed(self):
        assert self.run(self.Built(), self.Built()) == [
            ("x: first", suites.PASS, ""),
            ("x: second", suites.FAIL, ""),
            ("x: exact cross-check (small instance)", suites.PASS, "")]

    def test_precision_error_is_not_certified(self):
        lost = suites.PrecisionError("no t-digits left")
        assert self.run(lost, lost) == [
            ("x: series construction", suites.NOT_CERTIFIED,
             "PrecisionError: no t-digits left"),
            ("x: exact cross-check", suites.NOT_CERTIFIED,
             "PrecisionError: no t-digits left")]

    def test_other_exception_fails(self):
        assert self.run(ValueError("bad"), self.Built()) == [
            ("x: series construction", suites.FAIL, "ValueError('bad')"),
            ("x: exact cross-check (small instance)", suites.PASS, "")]
        assert self.run(self.Built(), KeyError("k"))[-1] == (
            "x: exact cross-check", suites.FAIL, "KeyError('k')")


class TestGuardedChecks:
    """A check that runs out of digits is not-certified on its own; the
    suite's other checks keep their verdicts."""

    @staticmethod
    def cases(**kw):
        [rep] = run_suites(RunConfig(**kw))
        return {c.case_id: (c.status, c.witness) for c in rep.cases}

    def test_witt_cu_witness_short_of_digits(self):
        got = self.cases(p=3, p_prec=1, suites=["witt-cu"])
        assert "suite run" not in got
        assert [s for cid, (s, _) in got.items()
                if cid.startswith("u=1+p^(a+1): ")] == [suites.PASS] * 3
        status, witness = got["u=teich(2): nonexistence witnessed"]
        assert status == suites.NOT_CERTIFIED
        assert witness.startswith("PrecisionError: ")

    def test_ore_assoc_relative_algebra_at_t_prec_1(self):
        got = self.cases(p=3, t_prec=1, suites=["ore-assoc"])
        assert "suite run" not in got
        assert got["associativity on 200 random triples (relative m=2)"][0] \
            == suites.PASS
        assert got["normal forms with no arithmetic letter represent the "
                   "cosets of the left ideal"][0] == suites.PASS


SWEEP_SUITES = ["ht-regular-rep", "nilpotence", "ore-akj", "ore-assoc",
                "ore-master-relation", "witt-b", "witt-c", "witt-cpsi", "witt-cu",
                "witt-dv1", "delta-power", "bk-twists", "double-complex",
                "koszul", "tensor", "sen-qconn", "e-beta", "epsilon-action",
                "wcart-h1", "precision-monotonic", "q-identities"]


@pytest.mark.parametrize("N,M", [(1, 2), (2, 4), (2, 8), (3, 1), (3, 8)])
@pytest.mark.parametrize("p,alpha", [(2, 0), (2, 1), (3, 0), (3, 1)])
def test_low_precision_sweep_has_no_unregistered_failure(p, alpha, N, M):
    # a true identity may only pass or be not-certified at any precision;
    # the p=2, alpha=0 boundary cases report expected-discrepancy
    cfg = RunConfig(p=p, alpha=alpha, p_prec=N, t_prec=M, suites=SWEEP_SUITES)
    failed = [(r.name, c.case_id, c.witness)
              for r in run_suites(cfg) for c in r.failed]
    assert failed == []


# the qprism modules a CLI run has loaded when it ends
_LOADED = ("import contextlib, io, sys\n"
           "from qprism.cli import main\n"
           "with contextlib.redirect_stdout(io.StringIO()):\n"
           "    code = main(sys.argv[1:])\n"
           "print(code, *sorted(m for m in sys.modules if m.startswith('qprism')))\n")


class TestImportFootprint:
    def loaded(self, args):
        e = dict(os.environ)
        e["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, e.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", _LOADED, *args],
                              capture_output=True, text=True, env=e)
        code, *modules = proc.stdout.split()
        assert code == "0", proc.stderr
        return set(modules)

    def test_list_suites_loads_no_layer(self):
        assert self.loaded(["--list-suites"]) == {
            "qprism", "qprism.cli", "qprism.padic", "qprism.suites"}

    def test_a_run_loads_only_its_layers(self):
        modules = self.loaded(["--suite", "ore-akj"])
        assert {"qprism.exactcore", "qprism.ore"} <= modules
        assert not modules & {"qprism.crystal", "qprism.descent", "qprism.witt"}

    def test_double_complex_loads_no_ore_layer(self):
        # its scalar context comes from qprism.scalars, which needs padic only
        modules = self.loaded(["--suite", "double-complex"])
        assert {"qprism.crystal", "qprism.scalars"} <= modules
        assert not modules & {"qprism.ore", "qprism.exactcore", "qprism.descent",
                              "qprism.witt"}

    def test_every_suite_runs_without_failure(self):
        # a runner that calls a layer it does not import fails its block;
        # this also covers the suites that SWEEP_SUITES leaves out
        cfg = RunConfig(p=3, alpha=0, p_prec=2, t_prec=4, suites=list(suites.REGISTRY))
        reports = run_suites(cfg)
        assert sorted(r.name for r in reports) == sorted(suites.REGISTRY)
        assert [(r.name, c.case_id, c.witness)
                for r in reports for c in r.failed] == []


class TestConfigLayers:
    def test_env_override(self):
        proc = run_cli(["--suite", "e-beta"], env={"QPRISM_P": "5"})
        assert proc.returncode == 0
        assert "p=5" in proc.stdout

    def test_flag_beats_env(self):
        proc = run_cli(["--suite", "e-beta", "--p", "3"],
                       env={"QPRISM_P": "5"})
        assert "p=3" in proc.stdout

    def test_config_file(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("p = 5\nalpha = 0\nseed = 9\n")
        proc = run_cli(["--config", str(conf), "--suite", "e-beta"])
        assert proc.returncode == 0
        assert "p=5" in proc.stdout and "seed=9" in proc.stdout

    def test_out_file(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli(["--suite", "e-beta", "--report", "json",
                        "--out", str(out)])
        assert proc.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["version"] == "1"

    def test_resolve_defaults(self):
        args = build_parser().parse_args([])
        cfg = resolve_config(args)
        assert (cfg.p, cfg.alpha, cfg.p_prec, cfg.t_prec) == (3, 0, 8, 32)
        assert (cfg.witt_len, cfg.descent_degree, cfg.dp_degree) == (4, 5, 12)
        assert cfg.seed == 0


def test_timings_flag_adds_wall_ms():
    cfg = RunConfig(suites=["e-beta"], timings=True)
    doc = json.loads(render_json(cfg, run_suites(cfg)))
    assert all("wall_ms" in c for s in doc["suites"] for c in s["cases"])


def test_list_suites_cli():
    proc = run_cli(["--list-suites"])
    assert proc.returncode == 0
    assert "ore-master-relation" in proc.stdout


@pytest.mark.parametrize("suite", ["e-beta", "witt-dv1"])
def test_traced_suite_span_covers_its_work(tmp_path, suite):
    """perfbench/launch.py, untraced and traced: tracing leaves the report
    unchanged, and the suite's top-level span covers every kernel span of
    the run.  A runner that returned before its work was done (a
    generator, say) would leave that work outside the span."""
    bench = os.path.join(os.path.dirname(SRC), "perfbench")
    reports = []
    for trace in ("0", "1"):
        info = tmp_path / f"info{trace}.json"
        proc = subprocess.run(
            [sys.executable, os.path.join(bench, "launch.py"), str(info),
             trace, "--suite", suite], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        reports.append(proc.stdout)
    assert reports[1] == reports[0]
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", os.path.join(bench, "spans.py"))
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    header = json.loads(info.read_text())["trace"]
    _, self_s, suite_wall = spans.self_times(header, f"{info}.spans")
    kernels = sum(v for k, v in self_s.items()
                  if not k.startswith(("suites.", "cli.")))
    assert kernels > 0
    assert suite_wall[f"suites.{suite}"] >= kernels


def test_benchmark_boundaries_resolve():
    """Every (module, attribute) in perfbench/spans.py BOUNDARIES names a
    function or a method defined on its class in qprism, as the tracer
    wraps it, so that removing or renaming one fails here rather than in a
    traced benchmark run."""
    bench = os.path.join(os.path.dirname(SRC), "perfbench")
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", os.path.join(bench, "spans.py"))
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for _, modname, attr in spans.BOUNDARIES:
        mod = importlib.import_module(f"qprism.{modname}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert callable(vars(getattr(mod, cls_name)).get(meth)), attr
        else:
            assert callable(getattr(mod, attr, None)), attr
    assert {f"padic.{f}" for f in spans.LINALG} <= {
        name for name, _, _ in spans.BOUNDARIES}


@pytest.mark.parametrize("workload,seed", [
    pytest.param("cohomology-a1", 0, id="cohomology-a1"),
    # the four CLI seeds one cohomology-a1 cycle runs: which corrections
    # vanish, and so which products are skipped, depends on the data
    *(pytest.param("cohomology-a1", s, id=f"cohomology-a1-{s}")
      for s in (1000, 2000, 3000)),
    pytest.param("construction-p5-lite", 0, id="construction-p5-lite"),
    pytest.param("construction-p5-lite", 1000, id="construction-p5-lite-1000"),
    pytest.param("ore-relations", 0, id="ore-relations"),
    # the ungated workload that adds witt-b, whose exact cross-check runs
    # the BigPoly-to-series transport
    pytest.param("construction-p5", 0, id="construction-p5"),
    # the default run: the report bytes the North star keeps fixed
    pytest.param("default", 0, id="default"),
])
def test_workload_matches_benchmark_golden(capsys, workload, seed):
    """Each gated benchmark workload at CLI seed 0 (and cohomology-a1 at
    every seed of its cycle, construction-p5-lite also at seed 1000),
    construction-p5 and the default run at seed 0, run in-process, print
    the report recorded in perfbench/golden.json."""
    bench = os.path.join(os.path.dirname(SRC), "perfbench")
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(bench, "run.py"))
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    with open(os.path.join(bench, "golden.json")) as fh:
        golden = json.load(fh)[workload][str(seed)]
    flags = run.WORKLOADS[workload][0]
    capsys.readouterr()
    code = main([*flags, "--seed", str(seed)])
    report = capsys.readouterr().out.encode()
    assert code == golden["exit"]
    assert hashlib.sha256(report).hexdigest() == golden["sha256"]
