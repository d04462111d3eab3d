"""Twisted Ore algebras: rewriting, the mixed law, specializations."""

import functools
import random

import pytest

from qprism.exactcore import (
    BigPoly,
    ExponentOverflow,
    RingPresentation,
    q_analogue,
)
from qprism.padic import QuotElem, QuotientRing, TruncSeries
from qprism.ore import (
    OreAlgebra,
    OreElement,
    QuotScalars,
    ResidueScalars,
    _nabla_times,
    akj_exact,
    akj_mod_d_binomial,
    akj_nabla,
    akj_operator_oracle,
    base_add,
    base_eq,
    base_nabla,
    base_partial,
    commutator_mod_residue,
    make_absolute_algebra,
    make_relative_algebra,
    specialize_mod_d_checks,
    verify_double_complex_rows,
    verify_master_relation,
)


def rnd_elem(alg, rng, nterms=2):
    terms = {}
    for _ in range(nterms):
        te = tuple(rng.randrange(2) for _ in range(alg.m))
        ne = tuple(rng.randrange(2) for _ in range(alg.m))
        key = (te, ne, rng.randrange(2) if alg.with_partial else 0)
        c = alg.ctx.q_pow(rng.randrange(3)) * rng.randrange(1, 7)
        terms[key] = terms.get(key, alg.ctx.zero()) + c
    return OreElement(alg, terms)


# ---------------------------------------------------------------------------
# the recursive product, filtered after every sum: the reference that the
# one-dict product must equal term by term
# ---------------------------------------------------------------------------


def ref_tmono_times(alg, te, x):
    if not any(te):
        return x
    return OreElement(alg, {(tuple(a + b for a, b in zip(te, t2)), n2, b2): s
                            for (t2, n2, b2), s in x.terms.items()})


def ref_scalar_mul(alg, x, s):
    return OreElement(alg, {k: s * v for k, v in x.terms.items()})


@functools.cache
def ref_partial_past_nablas(alg, nexps):
    if not any(nexps):
        return alg.partial()
    i = next(i for i, e in enumerate(nexps) if e > 0)
    rest = list(nexps)
    rest[i] -= 1
    rest = tuple(rest)
    out = alg.zero()
    for (te, ne, b), s in alg.rule_partial_nabla(i).terms.items():
        if b == 0:
            combined_ne = tuple(a + c for a, c in zip(ne, rest))
            out = out + OreElement(alg, {(te, combined_ne, 0): s})
        else:
            piece = ref_partial_past_nablas(alg, rest)
            for idx in range(alg.m):
                for _ in range(ne[idx]):
                    piece = _nabla_times(alg, idx, piece)
            piece = ref_tmono_times(alg, te, piece)
            out = out + ref_scalar_mul(alg, piece, s)
    return out


def ref_partial_times(alg, x):
    ctx = alg.ctx
    out = alg.zero()
    for (te, ne, b), s in x.terms.items():
        gs, ds = ctx.gamma0(s), ctx.partial(s)
        if any(ne):
            past = ref_partial_past_nablas(alg, ne)
            moved = OreElement(
                alg, {(tuple(a + c for a, c in zip(te, t2)), n2, b2 + b): gs * s2
                      for (t2, n2, b2), s2 in past.terms.items()})
            out = out + moved
        else:
            out = out + OreElement(alg, {(te, ne, b + 1): gs})
        if not ctx.droppable(ds):
            out = out + OreElement(alg, {(te, ne, b): ds})
    return out


def ref_mul(x, y):
    alg = x.alg
    out = alg.zero()
    for (te, ne, b), s in x.terms.items():
        piece = y
        for _ in range(b):
            piece = ref_partial_times(alg, piece)
        for i in range(alg.m):
            for _ in range(ne[i]):
                piece = _nabla_times(alg, i, piece)
        piece = ref_tmono_times(alg, te, piece)
        out = out + ref_scalar_mul(alg, piece, s)
    return out


def scalar_state(s):
    """A scalar's residues together with the precision it states."""
    if isinstance(s, TruncSeries):
        return (s.N, s.M, tuple(s.c))
    if isinstance(s, QuotElem):
        return (s.prec, tuple(s.coeffs))
    return s


def same_terms(x, y):
    return ({k: scalar_state(v) for k, v in x.terms.items()}
            == {k: scalar_state(v) for k, v in y.terms.items()})


class TestGeneratorRules:
    def test_partial_times_q(self):
        # partial * q = q^(p^(a+1)+1) partial + [p]_{q^(p^a)}
        alg = make_absolute_algebra(3, 0, m=1)
        ctx = alg.ctx
        got = alg.partial() * alg.scalar(ctx.q_pow(1))
        want = (alg.monomial((0,), (0,), 1, ctx.q_pow(4))
                + alg.scalar(TruncSeries.d_series(3, 8, 32, 0)))
        assert got == want

    def test_nabla_commute(self):
        alg = make_absolute_algebra(3, 0, m=2)
        assert alg.nabla(0) * alg.nabla(1) == alg.nabla(1) * alg.nabla(0)

    def test_nabla_times_T_absolute(self):
        # nabla * T = q^(p^(a+1)) T nabla + d
        for (p, a) in [(3, 0), (2, 1)]:
            alg = make_absolute_algebra(p, a, m=1)
            got = alg.nabla(0) * alg.T(0)
            want = (alg.monomial((1,), (1,), 0, alg.ctx.q_pow(p ** (a + 1)))
                    + alg.scalar(TruncSeries.d_series(p, 8, 32, a)))
            assert got == want

    def test_nabla_times_T_relative(self):
        # relative convention: nabla * T = q^p T nabla + [p]_q
        alg = make_relative_algebra(3, m=1)
        got = alg.nabla(0) * alg.T(0)
        want = (alg.monomial((1,), (1,), 0, alg.ctx.q_pow(3))
                + alg.scalar(TruncSeries.d_series(3, 8, 32, 0)))
        assert got == want


class TestAction:
    def test_partial_kills_one(self):
        # partial(1) = 0, known only to t^31: the lost t-digit is stated
        alg = make_absolute_algebra(3, 0, m=1)
        out = alg.partial().act({(0,): alg.ctx.one()})
        assert list(out) == [(0,)]
        assert out[(0,)].is_zero() and out[(0,)].M == 31

    def test_nabla_on_T_gives_d(self):
        alg = make_absolute_algebra(3, 0, m=1)
        out = alg.nabla(0).act({(1,): alg.ctx.one()})
        assert base_eq(alg, out, {(0,): TruncSeries.d_series(3, 8, 32, 0)})

    def test_rewritten_product_acts_like_composition(self):
        # the normal form of partial*nabla acts exactly as the two base
        # operators composed, on all q^a T^b with a, b <= 10 at (3,0)
        # and a, b <= 4 at (2,1)
        for (p, a, bound) in [(3, 0, 10), (2, 1, 4)]:
            alg = make_absolute_algebra(p, a, m=1, tcap=40)
            ctx = alg.ctx
            rewritten = alg.partial() * alg.nabla(0)
            for qa in range(bound + 1):
                for tb in range(bound + 1):
                    r = {(tb,): ctx.q_pow(qa)}
                    lhs = rewritten.act(r)
                    rhs = base_partial(alg, base_nabla(alg, 0, r))
                    diff = base_add(alg, lhs, {k: -v for k, v in rhs.items()})
                    assert all(ctx.is_zero(v) for v in diff.values())

    def test_left_module_action(self):
        rng = random.Random(4)
        alg = make_absolute_algebra(3, 0, m=1, N=6, M=10)
        ctx = alg.ctx
        for _ in range(20):
            x, y = rnd_elem(alg, rng), rnd_elem(alg, rng)
            r = {(rng.randrange(2),): ctx.q_pow(rng.randrange(3))}
            lhs = (x * y).act(r)
            rhs = x.act(y.act(r))
            diff = base_add(alg, lhs, {k: -v for k, v in rhs.items()})
            assert all(ctx.is_zero(v) for v in diff.values())


class TestAssociativity:
    @pytest.mark.parametrize("maker", [
        lambda: make_absolute_algebra(3, 0, m=1, N=6, M=8),
        # alpha > 0: every arithmetic-letter pass costs (N+1) t-digits,
        # so the algebra needs a larger t-budget
        lambda: make_absolute_algebra(2, 1, m=1, N=4, M=20),
        lambda: make_relative_algebra(3, m=2, N=6, M=8),
    ])
    def test_triples(self, maker):
        alg = maker()
        rng = random.Random(0)
        for _ in range(30):
            a, b, c = (rnd_elem(alg, rng) for _ in range(3))
            assert (a * b) * c == a * (b * c)

    @pytest.mark.parametrize("maker", [
        lambda: make_absolute_algebra(3, 0, m=1, N=6, M=8),
        lambda: make_absolute_algebra(2, 1, m=1, N=4, M=20),
        lambda: make_relative_algebra(3, m=2, N=6, M=8),
    ])
    def test_one_dict_product_equals_recursive_reference(self, maker):
        # operands at reduced precision too, so that the products hold
        # reduced-precision zeros: every sum, every filter and every
        # stated (N, M) must come out as in the reference
        alg = maker()
        ctx = alg.ctx
        rng = random.Random(11)

        def operand():
            x = rnd_elem(alg, rng, nterms=rng.randrange(1, 4))
            return OreElement(alg, {
                k: v.reduce_prec(N=ctx.N - rng.randrange(2),
                                 M=ctx.M - rng.randrange(3))
                if rng.randrange(2) else v
                for k, v in x.terms.items()})

        for _ in range(20):
            a, b, c = operand(), operand(), operand()
            for x, y in ((a, b), (b, c)):
                fast, ref = x.mul(y), ref_mul(x, y)
                assert same_terms(fast, ref)
                assert same_terms(fast.mul(c), ref_mul(ref, c))

    def test_one_dict_product_other_scalars(self):
        # over A/d^n and over the residue field, the same agreement
        ring = QuotientRing(3, 8, 0, 2)
        quot = OreAlgebra(QuotScalars(ring), m=1, with_partial=True, tcap=24)
        rng = random.Random(12)
        for _ in range(10):
            x, y = (OreElement(quot, {
                ((rng.randrange(2),), (rng.randrange(3),), rng.randrange(2)):
                ring.q_power(rng.randrange(3)) * rng.randrange(1, 9)})
                for _ in range(2))
            assert same_terms(x.mul(y), ref_mul(x, y))
        for p, a in [(2, 0), (3, 0), (2, 1), (3, 1)]:
            res = OreAlgebra(ResidueScalars(p, a), m=1, with_partial=True, tcap=16)
            gens = [res.partial(), res.nabla(0), res.T(0), res.const(p - 1)]
            for x in gens:
                for y in gens:
                    assert same_terms(x.mul(y), ref_mul(x, y))
                    z = x.mul(y)
                    assert same_terms(z.mul(x), ref_mul(ref_mul(x, y), x))

    def test_identity_two_sided(self):
        alg = make_absolute_algebra(3, 0, m=2, N=6, M=8)
        rng = random.Random(1)
        x = rnd_elem(alg, rng)
        assert alg.one() * x == x and x * alg.one() == x

    def test_confluence_random_rule_order(self):
        alg = make_absolute_algebra(2, 1, m=2, N=6, M=8)
        rng = random.Random(2)
        for k in range(8):
            a, b = rnd_elem(alg, rng), rnd_elem(alg, rng)
            ref = a.mul(b)
            assert a.mul(b, order_rng=random.Random(k)) == ref

    def test_left_ideal_cosets(self):
        # terms with the arithmetic letter lie in the left ideal it
        # generates; stripping them gives the coset representative
        alg = make_absolute_algebra(3, 0, m=1, N=6, M=8)
        rng = random.Random(3)
        f = rnd_elem(alg, rng, nterms=4)
        coset = OreElement(alg, {k: v for k, v in f.terms.items() if k[2] == 0})
        rest = f - coset
        assert all(k[2] >= 1 for k in rest.terms)
        # and rest = (something) * partial
        factored = OreElement(alg, {(k[0], k[1], k[2] - 1): v
                                    for k, v in rest.terms.items()})
        assert factored * alg.partial() == rest


class TestAkj:
    def test_a11(self):
        table = akj_exact(3, 0, 1)
        assert table[(1, 1)] == table[(1, 1)].pres.one()

    def test_ak1_is_q_analogue(self):
        from qprism.exactcore import q_analogue
        p, a = 3, 0
        table = akj_exact(p, a, 5)
        pres = table[(1, 1)].pres
        for k in range(1, 6):
            assert table[(k, 1)] == q_analogue(pres, k, p ** (a + 1))

    @pytest.mark.parametrize("p,a", [(3, 0), (2, 1), (2, 0)])
    def test_operator_expansion_oracle(self, p, a):
        assert akj_operator_oracle(p, a, p ** (a + 1) + 1, nmax=8)

    @pytest.mark.parametrize("p,a", [(3, 0), (2, 1), (2, 0), (5, 1)])
    def test_dict_nabla_equals_product_form(self, p, a):
        def product_form(pres, f):
            out = pres.zero()
            for (qe, ee, te), c in f.terms.items():
                j = te[0]
                if j:
                    out = out + (pres.q_pow(qe) * c * pres.t_pow(0, j - 1)
                                 * q_analogue(pres, j * p, p**a))
            return out

        pres = RingPresentation(p, a, m=1, has_eps0=False,
                                max_qdeg=1 << 30, max_tdeg=1 << 30)
        rng = random.Random(p + 10 * a)
        for _ in range(30):
            f = pres.zero()
            for _ in range(rng.randrange(0, 6)):
                f = f + (pres.q_pow(rng.randrange(12)) * pres.t_pow(0, rng.randrange(6))
                         * rng.randrange(-50, 50))
            for _ in range(3):
                want = product_form(pres, f)
                got = akj_nabla(pres, f)
                assert got.terms == want.terms
                f = got + f * pres.q_pow(1)  # overlapping keys next round
        # the exponent bound is checked as the product form checks it
        small = RingPresentation(p, a, m=1, has_eps0=False, max_qdeg=20)
        f = BigPoly(small, {(18, (0,), (2,)): 1})
        with pytest.raises(ExponentOverflow):
            product_form(small, f)
        with pytest.raises(ExponentOverflow):
            akj_nabla(small, f)

    @pytest.mark.parametrize("p,a", [(3, 0), (2, 1), (5, 0)])
    def test_mod_d_binomials(self, p, a):
        assert akj_mod_d_binomial(p, a)

    def test_series_table_matches_exact(self):
        from qprism.ore import SeriesScalars
        p, a = 3, 0
        ctx = SeriesScalars(p, 8, 24, a)
        st = ctx.akj_table(4)
        et = akj_exact(p, a, 4)
        for (k, j), v in et.items():
            if (k, j) in st:
                sv = TruncSeries.from_q_poly(p, 8, 24, v.q_coefficients())
                assert st[(k, j)] == sv

    @pytest.mark.parametrize("p,a", [(3, 0), (2, 1), (2, 0)])
    def test_quot_table_matches_exact(self, p, a):
        # the same recursion over A/d, read through the quotient map
        ring = QuotientRing(p, 8, a, 1)
        qt = QuotScalars(ring).akj_table(4)
        et = akj_exact(p, a, 4)
        assert set(qt) == set(et)
        for key, v in et.items():
            assert qt[key] == ring.from_q_poly(v.q_coefficients())


class TestMasterRelation:
    @pytest.mark.parametrize("p,a", [(3, 0), (2, 1)])
    def test_relation(self, p, a):
        rep = verify_master_relation(p, a, bound=4, M=48)
        assert rep.ok, [c for c, ok in rep.cases if not ok]

    def test_s1_two_routes(self):
        # closed form -partial(d)/d against the defining fraction
        from qprism.padic import divide_by_q_power_minus_one
        for (p, a) in [(3, 0), (2, 1)]:
            N, M = 8, 64
            ctx = make_absolute_algebra(p, a, N=N, M=M).ctx
            s1 = ctx.s1()
            k = p ** (a + 1) + 1
            num = (ctx.one() + ctx.q_pow(1) * ctx.partial(ctx.beta)
                   - TruncSeries.q_analogue(p, N, M, k, p ** (a + 1)))
            via_def = divide_by_q_power_minus_one(
                num * ctx.q_pow(1).unit_inverse(), a)
            via_def = via_def * TruncSeries.q_analogue(
                p, N, M, k, p**a).unit_inverse()
            assert via_def == s1.reduce_prec(N=via_def.N, M=via_def.M)

    def test_unit_identity(self):
        for (p, a) in [(3, 0), (2, 1), (5, 0)]:
            ctx = make_absolute_algebra(p, a).ctx
            bq = ctx.beta * ctx.q_pow(1)
            assert (ctx.s0() * (ctx.one() - ctx.s1() * bq) - ctx.one()).is_zero()

    @pytest.mark.parametrize("p,a", [(3, 0), (2, 1)])
    def test_double_complex_rows(self, p, a):
        assert verify_double_complex_rows(p, a, bound=2, M=48).ok


class TestSpecialize:
    @pytest.mark.parametrize("p,a", [(3, 0), (2, 1), (5, 0)])
    def test_mod_d(self, p, a):
        rep = specialize_mod_d_checks(p, a)
        assert rep.ok, rep.cases

    @pytest.mark.parametrize("p,a", [(3, 0), (2, 1), (5, 0), (3, 1)])
    def test_commutator_mod_residue(self, p, a):
        assert commutator_mod_residue(p, a).is_zero()

    def test_commutator_not_zero_at_boundary(self):
        # p=2, alpha=0 is the excluded boundary: the correction term
        # C(3,2) = 3 is odd and the letters genuinely fail to commute
        assert not commutator_mod_residue(2, 0).is_zero()

    def test_commutator_boundary_value(self):
        # the value the p=2, alpha=0 discrepancy is registered for; the
        # residue coefficients stay reduced mod 2
        assert (commutator_mod_residue(2, 0).render()
                == "(1)*nabla1^1 + (1)*T1^1*nabla1^2")

    def test_mod_d_algebra_products(self):
        ring = QuotientRing(3, 8, 0, 1)
        alg = OreAlgebra(QuotScalars(ring), m=1, with_partial=True, tcap=24)
        rng = random.Random(5)

        def rnd():
            terms = {}
            for _ in range(2):
                key = ((rng.randrange(2),), (rng.randrange(2),), rng.randrange(2))
                terms[key] = ring.q_power(rng.randrange(2)) * rng.randrange(1, 7)
            return OreElement(alg, terms)

        for _ in range(15):
            a, b, c = rnd(), rnd(), rnd()
            assert (a * b) * c == a * (b * c)

    def test_mod_d_gamma0_trivial_at_n1(self):
        # on A/d the twist becomes the identity and the derivation
        # vanishes: the one-variable ring is commutative
        ring = QuotientRing(3, 8, 0, 1)
        ctx = QuotScalars(ring)
        x = ring.q_power(1) + ring.const(5)
        assert ctx.gamma0(x) == x
        assert ctx.partial(x).is_zero()
