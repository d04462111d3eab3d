"""Outside-in tracer for the qprism layers.

The tracer wraps public functions of the qprism modules from outside the
package: class methods are patched on their class, module functions are
rebound in every qprism module that imported them, and suite runners are
swapped in ``suites.REGISTRY`` with ``dataclasses.replace``.  No file
under ``src/`` changes.

Each call through a wrapped boundary records one span (name, start, end,
parent) in the calling thread's own store, because ``run_suites`` runs
suites on a thread pool.  Spans stay in memory until the run ends, then
``Tracer.dump`` writes them out; ``layer_metrics`` turns a dump into the
per-layer metrics.  A span's self time is its duration minus the part of
it that its child spans cover, so time in an unwrapped helper is charged
to the nearest wrapped caller.
"""

from __future__ import annotations

import dataclasses
import os
import threading
from array import array
from collections import Counter
from time import perf_counter, thread_time

# (span name, module, attribute).  The first part of a span name is its
# layer; the rest names the boundary as reported in the metrics.
BOUNDARIES = [
    ("exactcore.BigPoly.mul", "exactcore", "BigPoly.__mul__"),
    ("exactcore.BigPoly.endomorphism", "exactcore", "BigPoly.endomorphism"),
    ("exactcore.RingPresentation.beta", "exactcore", "RingPresentation.beta"),
    ("padic.TruncSeries.mul", "padic", "TruncSeries.__mul__"),
    ("padic.TruncSeries.subst", "padic", "TruncSeries.subst"),
    ("padic.TruncSeries.unit_inverse", "padic", "TruncSeries.unit_inverse"),
    ("padic.TruncSeries.weierstrass_divmod", "padic",
     "TruncSeries.weierstrass_divmod"),
    ("padic.QuotElem.mul", "padic", "QuotElem.__mul__"),
    ("padic.mat_mul_mod", "padic", "mat_mul_mod"),
    ("padic.howell_mod", "padic", "howell_mod"),
    ("padic.solve_mod", "padic", "solve_mod"),
    ("padic.inv_mod", "padic", "inv_mod"),
    ("padic.coker_invariants_mod", "padic", "coker_invariants_mod"),
    ("padic.ker_basis_mod", "padic", "ker_basis_mod"),
    ("padic.subquotient_invariants", "padic", "subquotient_invariants"),
    ("padic.smith_invariants", "padic", "smith_invariants"),
    ("ore.OreElement.mul", "ore", "OreElement.mul"),
    ("ore.OreElement.init", "ore", "OreElement.__init__"),
    ("witt.from_ghost", "witt", "from_ghost"),
    ("witt.witt_mul", "witt", "witt_mul"),
    ("crystal.double_complex", "crystal", "double_complex"),
    ("crystal.CochainComplex.cohomology", "crystal", "CochainComplex.cohomology"),
    # QConnModule has no single certify method; its three certify_*
    # methods share one span name.
    ("crystal.QConnModule.certify", "crystal", "QConnModule.certify_leibniz"),
    ("crystal.QConnModule.certify", "crystal",
     "QConnModule.certify_commuting_nablas"),
    ("crystal.QConnModule.certify", "crystal",
     "QConnModule.certify_master_relation"),
    ("descent.build_context", "descent", "build_context"),
    ("descent.wcart_h1_structure", "descent", "wcart_h1_structure"),
    ("descent.f_leibniz_check", "descent", "f_leibniz_check"),
    ("cli.render", "cli", "render_text"),
    ("cli.render", "cli", "render_json"),
]

# the Z/p^N elimination routines, reported together as padic.linalg
LINALG = ("howell_mod", "solve_mod", "inv_mod", "coker_invariants_mod",
          "ker_basis_mod", "subquotient_invariants", "smith_invariants")

ROOT_SPAN = "cli.main"


def _count_series_mul(counts, args, result):
    a, b = args[0], args[1]
    if isinstance(b, int):
        counts["series_mul_scalar"] += 1
    else:
        counts[f"series_mul|{a.p}|{min(a.N, b.N)}|{min(a.M, b.M)}"] += 1


def _count_quot_mul(counts, args, result):
    a, b = args[0], args[1]
    if isinstance(b, int):
        counts["quot_mul_scalar"] += 1
    else:
        ring = a.ring
        counts[f"quot_mul|{ring.p}|{ring.N}|{ring.deg}"] += 1


def _count_divmod(counts, args, result):
    counts["divmod_t_digits_lost"] += args[0].M - result[0].M


def _count_ore_init(counts, args, result):
    counts["ore_terms_in"] += len(args[2])
    counts["ore_terms_kept"] += len(args[0].terms)


COUNTERS = {
    "padic.TruncSeries.mul": _count_series_mul,
    "padic.QuotElem.mul": _count_quot_mul,
    "padic.TruncSeries.weierstrass_divmod": _count_divmod,
    "ore.OreElement.init": _count_ore_init,
}


class _ThreadSpans:
    """The spans and counts of one thread, in the order the spans opened."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.counts = Counter()
        self.suite_busy = []  # (top-level suite name, thread CPU seconds)


class Tracer:
    """Span recorder shared by every wrapped boundary of one run."""

    def __init__(self):
        self.run_id = os.urandom(8).hex()
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._threads: list[_ThreadSpans] = []
        self._lock = threading.Lock()
        self.suites: list[str] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _spans(self) -> _ThreadSpans:
        try:
            return self._local.s
        except AttributeError:
            s = self._local.s = _ThreadSpans()
            with self._lock:
                self._threads.append(s)
            return s

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        count = COUNTERS.get(name)
        spans = self._spans

        def traced(*args, **kwargs):
            s = spans()
            i = len(s.start)
            s.name.append(nid)
            s.parent.append(s.stack[-1] if s.stack else -1)
            s.end.append(0.0)
            s.stack.append(i)
            s.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(s.counts, args, result)
                return result
            finally:
                s.end[i] = perf_counter()
                s.stack.pop()

        traced.__wrapped__ = fn
        return traced

    def wrap_suite(self, suite: str, fn):
        """A suite runner span, which also reads the thread's CPU clock."""
        inner = self.wrap(f"suites.{suite}", fn)
        spans = self._spans

        def traced_suite(cfg):
            s = spans()
            top = not s.stack
            busy0 = thread_time()
            cases = inner(cfg)
            if top:
                s.suite_busy.append((suite, thread_time() - busy0))
                s.counts["suite_cases"] += len(cases)
            return cases

        return traced_suite

    def install(self, modules: dict) -> None:
        """Patch every boundary of ``modules`` (short name -> module)."""
        for name, modname, attr in BOUNDARIES:
            mod = modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                traced = self.wrap(name, orig)
                # aliases such as ``__rmul__ = __mul__`` share the span
                for key, val in list(cls.__dict__.items()):
                    if val is orig:
                        setattr(cls, key, traced)
            else:
                orig = getattr(mod, attr)
                traced = self.wrap(name, orig)
                for other in modules.values():
                    for key, val in list(vars(other).items()):
                        if val is orig:
                            setattr(other, key, traced)
        registry = modules["suites"].REGISTRY
        self.suites = list(registry)
        for key, spec in list(registry.items()):
            registry[key] = dataclasses.replace(
                spec, runner=self.wrap_suite(key, spec.runner))

    def run_root(self, fn, *args):
        """Run ``fn`` under the root span that the pool threads' spans hang off."""
        return self.wrap(ROOT_SPAN, fn)(*args)

    def dump(self, path: str) -> dict:
        """Write the spans to ``path`` and return the header that reads them."""
        counts = Counter()
        busy = []
        sizes = []
        with open(path, "wb") as fh:
            for s in self._threads:
                for arr in (s.name, s.parent, s.start, s.end):
                    arr.tofile(fh)
                sizes.append(len(s.start))
                counts.update(s.counts)
                busy.extend(s.suite_busy)
        return {"run_id": self.run_id, "names": self.names,
                "thread_sizes": sizes, "counts": dict(counts),
                "suite_busy": busy, "suites": self.suites}


def install_tracer() -> Tracer:
    """Import the qprism modules and patch their boundaries."""
    from qprism import cli, crystal, descent, exactcore, ore, padic, suites, witt
    tracer = Tracer()
    tracer.install({"cli": cli, "crystal": crystal, "descent": descent,
                    "exactcore": exactcore, "ore": ore, "padic": padic,
                    "suites": suites, "witt": witt})
    return tracer


# ---------------------------------------------------------------------------
# reading a dump
# ---------------------------------------------------------------------------


def _load(header: dict, path: str):
    """Concatenate the per-thread arrays; parents become global indices."""
    name, parent, start, end = array("i"), array("i"), array("d"), array("d")
    with open(path, "rb") as fh:
        for n in header["thread_sizes"]:
            base = len(name)
            name.fromfile(fh, n)
            local = array("i")
            local.fromfile(fh, n)
            parent.extend(array("i", (p + base if p >= 0 else -1 for p in local)))
            start.fromfile(fh, n)
            end.fromfile(fh, n)
    return name, parent, start, end


def _union_length(intervals, lo, hi) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(header: dict, path: str):
    """Per span name: calls and self seconds; per suite: top-level wall time.

    Spans on one thread nest, so their children never overlap.  The
    top-level spans of pool threads hang off the root span and may
    overlap one another, so the root's covered time is their union.
    """
    names = header["names"]
    name, parent, start, end = _load(header, path)
    covered = array("d", [0.0]) * len(name)
    root = names.index(ROOT_SPAN) if ROOT_SPAN in names else -1
    root_idx = next((i for i, n in enumerate(name) if n == root), -1)
    root_children = []
    for i, p in enumerate(parent):
        if i == root_idx:
            continue
        if p == root_idx or p < 0:
            root_children.append((start[i], end[i]))
        else:
            covered[p] += end[i] - start[i]
    if root_idx >= 0:
        covered[root_idx] = _union_length(
            root_children, start[root_idx], end[root_idx])
    calls = Counter()
    self_s = Counter()
    for i, n in enumerate(name):
        calls[names[n]] += 1
        self_s[names[n]] += end[i] - start[i] - covered[i]
    suite_wall = Counter()
    for i, p in enumerate(parent):
        nm = names[name[i]]
        if nm.startswith("suites.") and (p < 0 or p == root_idx):
            suite_wall[nm] += end[i] - start[i]
    return calls, self_s, suite_wall


def size_histograms(counts: dict) -> dict:
    """The operand sizes the suites really use, per kernel."""
    out = {"TruncSeries.mul (p, N, M)": {}, "QuotElem.mul (p, N, deg)": {}}
    for key, n in sorted(counts.items()):
        kind, _, size = key.partition("|")
        if kind == "series_mul":
            out["TruncSeries.mul (p, N, M)"][size.replace("|", ",")] = n
        elif kind == "quot_mul":
            out["QuotElem.mul (p, N, deg)"][size.replace("|", ",")] = n
    return out


def layer_metrics(header: dict, path: str, import_s: float) -> dict:
    """Every per-layer metric this tracer can give, by name."""
    calls, self_s, suite_wall = self_times(header, path)
    counts = Counter(header["counts"])
    m = {}
    for name in {b[0] for b in BOUNDARIES}:
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
    for layer in ("exactcore", "padic", "witt", "ore", "crystal", "descent",
                  "cli", "suites"):
        m[f"{layer}.self_s"] = sum(v for k, v in self_s.items()
                                   if k.split(".")[0] == layer)
    m["padic.linalg.calls"] = sum(calls[f"padic.{f}"] for f in LINALG)
    m["padic.linalg.self_s"] = sum(self_s[f"padic.{f}"] for f in LINALG)
    # computed, not measured: the schoolbook kernel forms
    # sum_{i<M} (M - i) = M(M+1)/2 coefficient products per series multiply
    m["padic.TruncSeries.mul.coeff_products"] = sum(
        n * int(k.split("|")[3]) * (int(k.split("|")[3]) + 1) // 2
        for k, n in counts.items() if k.startswith("series_mul|"))
    m["padic.TruncSeries.weierstrass_divmod.t_digits_lost"] = \
        counts["divmod_t_digits_lost"]
    terms_in = counts["ore_terms_in"]
    m["ore.OreElement.init.terms_kept_frac"] = (
        counts["ore_terms_kept"] / terms_in if terms_in else 0.0)
    m["ore.OreElement.init.terms_in"] = terms_in
    for suite in header["suites"]:
        m[f"suites.{suite}.wall_s"] = suite_wall[f"suites.{suite}"]
    busy = sum(b for _, b in header["suite_busy"])
    m["suites.busy_s"] = busy
    m["suites.wait_s"] = max(sum(suite_wall.values()) - busy, 0.0)
    m["suites.cases"] = counts["suite_cases"]
    m["cli.import_s"] = import_s
    m["cli.render_s"] = self_s["cli.render"]
    return m

