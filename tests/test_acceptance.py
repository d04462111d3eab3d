"""Acceptance gate: one test per criterion, at the stated parameters.

Every criterion prints its own verdict line.  Tolerances are pinned
here: "exact" means literal equality of integer polynomials, everything
else is equality at the stated (p_prec, t_prec) with certified-division
bookkeeping; nothing is deferred to later calibration.

Criterion 8 carries one strict-xfail subcase: the finite-support
leading-term claim for the invariant-ring self-map is measurably false
at p = 5 (it holds at p = 3).  The assertions are kept verbatim; see the
test docstring for the analysis summary.
"""

import random

import pytest

from qprism import crystal, descent, exactcore, ore, witt
from qprism.padic import teichmuller, vp_factorial, vp_int
from qprism.suites import (
    DISCREPANCY,
    FAIL,
    PASS,
    REGISTRY,
    RunConfig,
)


def verdict(num, label, ok):
    print(f"ACCEPTANCE {num} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num}: {label}"


# -- 1 -----------------------------------------------------------------


def test_criterion_1_q_identities():
    """psi multiplicativity and closed form for k <= 50 over
    {2,3,5} x {0,1}; the q-analogue factorization for n <= 3, i <= p-1.
    Exact equality, zero tolerance."""
    ok = True
    for p in (2, 3, 5):
        for alpha in (0, 1):
            pres = exactcore.RingPresentation(p, alpha, max_qdeg=1 << 22)
            acc = pres.one()
            step = exactcore.psi_q_power(pres, 1)
            for k in range(1, 51):
                acc = acc * step
                ok = ok and acc == exactcore.psi_q_power(pres, k)
            for n in range(1, 4):
                for i in range(p):
                    ok = ok and exactcore.verify_q_factorization(p, alpha, n, i)
    verdict(1, "q-identity suite", ok)


# -- 2 -----------------------------------------------------------------


def test_criterion_2_witt_constructions():
    """phi(r_n) = r_(n+1) exactly for n < 4; the defining identities for
    b, c, c_psi certified at (N, M, L) = (8, 32, 4); b_0 exact."""
    ok = True
    for (p, a) in [(3, 0), (2, 1), (5, 0)]:
        for builder in (witt.construct_b, witt.construct_c, witt.construct_c_psi):
            res = builder(p, a, 4, 8, 32)
            ok = ok and res.ok
    b0 = witt._ghost_b(witt._eps_pres(3, 0), 0)
    pres = witt._eps_pres(3, 0)
    explicit = pres.one()
    for i in range(1, 3):
        explicit = explicit + (pres.eps(0) * pres.q_pow(i - 1)
                               * exactcore.q_analogue(pres, i, 3))
    ok = ok and b0 == explicit
    verdict(2, "Witt constructions b, c, c_psi", ok)


# -- 3 -----------------------------------------------------------------


def test_criterion_3_cu_dichotomy():
    """c_u exists with r_0 = q(q^(p^a)-1) for u = 1+p^(a+1); nonexistence
    witnessed at some n < L for the Teichmuller unit."""
    ok = True
    for p in (3, 5):
        for a in (0, 1):
            res = witt.construct_c_u(p, a, 4, 1 + p ** (a + 1))
            pres = res.witt.base.pres
            ok = ok and res.ok
            ok = ok and res.ghosts[0] == pres.q_pow(1) * pres.beta()
            u = teichmuller(p, 2, 8 + vp_factorial(p, 3 * (p - 1) * p**a + 6))
            wit = witt.construct_c_u(p, a, 4, u)
            ok = ok and isinstance(wit, witt.NonexistenceWitness) and wit.level < 4
    verdict(3, "c_u existence dichotomy", ok)


# -- 4 -----------------------------------------------------------------


def test_criterion_4_d_equals_V1():
    """ghost of the delta-lift of d in W(A/d) is (0, p, p, p) at L = 4."""
    ok = True
    for (p, a) in [(2, 0), (3, 0), (3, 1)]:
        res = witt.d_as_V1(p, a, 4, 8)
        ok = ok and res.ok
    verdict(4, "d = V(1)", ok)


# -- 5 -----------------------------------------------------------------


def test_criterion_5_e_beta():
    """d'(q) q (q^(p^a)-1) - p^(a+1) has exact zero remainder under
    division by d in Z[q]."""
    ok = all(exactcore.verify_e_beta(p, a)
             for (p, a) in [(2, 0), (3, 0), (5, 0), (2, 1), (3, 1)])
    verdict(5, "e * beta = p^(alpha+1)", ok)


# -- 6 -----------------------------------------------------------------


def test_criterion_6_ore():
    """200 random associativity triples; the mixed commutation law
    annihilates q^a T^b for a, b <= 6 at (3,0) and (2,1); s_1 = -partial(d)/d;
    s_0 (1 - s_1 beta q) = 1; coefficient recursion = operator expansion;
    mod-d binomials; mod-(d, q-1) commutator normal-forms to zero."""
    ok = True
    for (p, a) in [(3, 0), (2, 1)]:
        cases = REGISTRY["ore-assoc"].runner(
            RunConfig(p=p, alpha=a, p_prec=8, t_prec=32))
        ok = ok and all(c.status == PASS for c in cases)
        ok = ok and all(ore.verify_master_relation(p, a, bound=6, M=48).values())
        k = p ** (a + 1) + 1
        ok = ok and ore.akj_operator_oracle(p, a, k, nmax=8)
        ok = ok and ore.akj_mod_d_binomial(p, a)
        ok = ok and ore.commutator_mod_residue(p, a).is_zero()
    verdict(6, "Ore algebra laws", ok)


# -- 7 -----------------------------------------------------------------


def test_criterion_7_twist_cohomology():
    """H1 order of the normalized twist = p^(v_p(k)) for p in {3,5},
    |k| <= 30; at p=2, alpha=0, k=2 the computed order is 4, tagged as
    the registered discrepancy."""
    ok = True
    for p in (3, 5):
        for k in range(-30, 31):
            res = crystal.normalized_twist_h1(k, p, 8)
            ok = ok and res.status == "pass"
            if k:
                ok = ok and res.computed_exponent == vp_int(k, p)
    res2 = crystal.normalized_twist_h1(2, 2, 8)
    ok = ok and res2.status == "expected-discrepancy" and res2.computed_exponent == 2
    verdict(7, "twist cohomology orders", ok)


# -- 8 -----------------------------------------------------------------


@pytest.fixture(scope="module")
def descent_contexts():
    return {p: descent.build_context(p, 8, 5) for p in (3, 5)}


def test_criterion_8_wcart(descent_contexts):
    """f-Leibniz on 100 random pairs; kernel = constants at N = 8; the
    full leading-term package at p = 3 (unit leading coefficients,
    nothing above the leading index, free set {l != p mod p+1})."""
    ok = True
    for p in (3, 5):
        ctx = descent_contexts[p]
        ok = ok and descent.f_leibniz_check(ctx, random.Random(0), trials=100)
        rep = descent.wcart_h1_structure(ctx)
        ok = ok and rep.checks[
            "kernel = constants (columns independent with unit pivots)"]
        ok = ok and all(
            rep.checks[f"f(ptilde^{k}) in B (vanishes at ptilde = p)"]
            for k in range(1, 6))
    rep3 = descent.wcart_h1_structure(descent_contexts[3])
    ok = ok and rep3.ok
    ok = ok and rep3.free_indices == [l for l in range(20) if l % 4 != 3]
    verdict(8, "invariant-ring leading-term structure (p=3 full, p=5 partial)", ok)


@pytest.mark.xfail(
    strict=True,
    reason="measured: the finite-support leading-term claim fails for p >= 5; "
    "f(ptilde) has unit-sized coordinates above index p (two independent "
    "computations of f(ptilde) agree, the digit chain is validated on "
    "polynomial and geometric-series controls). It holds at p = 3, where "
    "the Teichmuller exponents are {1, -1} and everything is Chebyshev in "
    "ptilde.")
def test_criterion_8_wcart_p5_finite_support(descent_contexts):
    """The criterion verbatim at p = 5: unit leading coefficient at the
    leading index and no coordinates above it, for all k <= K."""
    rep = descent.wcart_h1_structure(descent_contexts[5])
    for k in range(1, 6):
        lead = k * 6 - 1
        assert rep.checks[f"leading coefficient at index {lead} (k={k}) is a unit"]
        assert rep.checks[f"no residual above index {lead} (k={k})"], \
            rep.residuals[k][:4]
    print("ACCEPTANCE 8b [p=5 finite-support]: PASS")


# -- 9 -----------------------------------------------------------------


def test_criterion_9_complexes():
    """d^2 = 0 and square commutativity across 50 random modules at
    (3,0) and (2,1), m <= 2; small-instance cohomology equals the
    exhaustive kernel/image oracle."""
    ok = True
    for (p, a) in [(3, 0), (2, 1)]:
        for c in REGISTRY["double-complex"].runner(
                RunConfig(p=p, alpha=a, p_prec=8, t_prec=32)):
            ok = ok and c.status == PASS
        for c in REGISTRY["koszul"].runner(
                RunConfig(p=p, alpha=a, p_prec=8, t_prec=32)):
            ok = ok and c.status == PASS
    verdict(9, "Koszul and double complexes", ok)


# -- 10 ----------------------------------------------------------------


def test_criterion_10_regular_rep():
    """Dmax = 12: geometric matrix upper triangular with unit diagonal in
    both variants; the arithmetic coefficient law on all interior basis
    vectors."""
    ok = True
    for (p, a) in [(3, 0), (2, 1)]:
        rep = crystal.HTRegularRep(12, p, a, 8)
        for variables in (1, 2):
            ok = ok and all(getattr(rep, name) for _, name in rep.checks(variables))
    verdict(10, "divided-power regular representation", ok)


# -- 11 ----------------------------------------------------------------


def test_criterion_11_precision_monotonicity():
    """Every passing case re-passes at (N+2, M+8) with identical verdicts."""
    subset = ["e-beta", "witt-b", "witt-c", "witt-cu", "witt-dv1",
              "sen-qconn", "epsilon-action", "ore-akj", "bk-twists",
              "ht-regular-rep", "tensor"]
    base_cfg = RunConfig()
    hi_cfg = RunConfig(p_prec=10, t_prec=40)
    ok = True
    for name in subset:
        before = {c.case_id: c.status for c in REGISTRY[name].runner(base_cfg)}
        after = {c.case_id: c.status for c in REGISTRY[name].runner(hi_cfg)}
        for cid, status in before.items():
            if status == PASS:
                ok = ok and after.get(cid) == PASS
            elif status == DISCREPANCY:
                ok = ok and after.get(cid) in (DISCREPANCY, PASS)
    verdict(11, "precision monotonicity", ok)
