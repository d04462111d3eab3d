"""Twisted Ore algebras: rewriting, the mixed law, specializations."""

import functools
import math
import random

import pytest

from qprism.exactcore import (
    BigPoly,
    NegativeQPower,
    RingPresentation,
    q_analogue,
)
from qprism import ore, scalars
from qprism.padic import PadicInt, QuotElem, QuotientRing, TruncSeries
from qprism.ore import (
    OreAlgebra,
    OreElement,
    QuotScalars,
    ResidueScalars,
    SeriesScalars,
    _nabla_times,
    akj_exact,
    akj_mod_d_binomial,
    akj_nabla,
    akj_operator_oracle,
    base_D_op,
    base_add,
    base_eq,
    base_mul_scalar,
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
    if isinstance(s, PadicInt):
        return (s.prec, s.residue)
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

    def test_high_T_degree_acts_like_base_nabla(self):
        # no T-degree limit: nabla * T^70 in normal form acts on 1 as
        # nabla applied to T^70
        alg = make_absolute_algebra(3, 0)
        one = alg.ctx.one()
        got = (alg.nabla(0) * alg.T(0, 70)).act({(0,): one})
        assert base_eq(alg, got, base_nabla(alg, 0, {(70,): one}))

    def test_rewritten_product_acts_like_composition(self):
        # the normal form of partial*nabla acts exactly as the two base
        # operators composed, on all q^a T^b with a, b <= 10 at (3,0)
        # and a, b <= 4 at (2,1)
        for (p, a, bound) in [(3, 0, 10), (2, 1, 4)]:
            alg = make_absolute_algebra(p, a, m=1)
            ctx = alg.ctx
            rewritten = alg.partial() * alg.nabla(0)
            for qa in range(bound + 1):
                for tb in range(bound + 1):
                    r = {(tb,): ctx.q_pow(qa)}
                    lhs = rewritten.act(r)
                    rhs = base_partial(alg, base_nabla(alg, 0, r))
                    diff = base_add(alg, lhs, {k: -v for k, v in rhs.items()})
                    assert all(v.is_zero() for v in diff.values())

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
            assert all(v.is_zero() for v in diff.values())


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
        quot = OreAlgebra(QuotScalars(ring), m=1)
        rng = random.Random(12)
        for _ in range(10):
            x, y = (OreElement(quot, {
                ((rng.randrange(2),), (rng.randrange(3),), rng.randrange(2)):
                ring.q_power(rng.randrange(3)) * rng.randrange(1, 9)})
                for _ in range(2))
            assert same_terms(x.mul(y), ref_mul(x, y))
        for p, a in [(2, 0), (3, 0), (2, 1), (3, 1)]:
            res = OreAlgebra(ResidueScalars(p, a), m=1)
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


def ref_act(x, f):
    """x acting on the base element f, every image nabla^ne partial^b f
    recomputed for each term of x."""
    alg = x.alg
    out = {}
    for (te, ne, b), s in x.terms.items():
        g = f
        for _ in range(b):
            g = base_partial(alg, g)
        for i in range(alg.m):
            for _ in range(ne[i]):
                g = base_nabla(alg, i, g)
        for mono, c in g.items():
            key = tuple(a + t for a, t in zip(mono, te))
            out[key] = out[key] + s * c if key in out else s * c
    return {k: v for k, v in out.items() if not alg.ctx.droppable(v)}


class TestPieces:
    """``OreElement.mul`` and ``act`` make nabla^ne partial^b once per
    (ne, b); every term that shares it must come out as in the references
    that recompute it, with each scalar's stated (N, M)."""

    MAKERS = [
        lambda: make_absolute_algebra(3, 0, m=1, N=6, M=8),
        lambda: make_absolute_algebra(2, 1, m=1, N=4, M=20),
        lambda: make_absolute_algebra(3, 0, m=2, N=4, M=8),
        lambda: make_relative_algebra(3, m=2, N=6, M=8),
    ]

    @staticmethod
    def shared_operand(alg, rng):
        # every T-monomial in {0, 1}^m next to each (ne, b) drawn, so
        # several terms share one piece; scalars at reduced precision too
        ctx = alg.ctx
        terms = {}
        for _ in range(2):
            ne = tuple(rng.randrange(2) for _ in range(alg.m))
            b = rng.randrange(2) if alg.with_partial else 0
            for bits in range(2 ** alg.m):
                te = tuple((bits >> i) & 1 for i in range(alg.m))
                s = ctx.q_pow(rng.randrange(3)) * rng.randrange(1, 7)
                if rng.randrange(2):
                    s = s.reduce_prec(N=ctx.N - rng.randrange(2),
                                      M=ctx.M - rng.randrange(3))
                terms[(te, ne, b)] = s
        return OreElement(alg, terms)

    @pytest.mark.parametrize("maker", MAKERS)
    def test_mul_equals_recursive_reference(self, maker):
        alg = maker()
        rng = random.Random(29)
        for _ in range(6):
            x, y = self.shared_operand(alg, rng), self.shared_operand(alg, rng)
            assert same_terms(x.mul(y), ref_mul(x, y))
            assert same_terms(x.mul(y, order_rng=random.Random(1)), ref_mul(x, y))

    @pytest.mark.parametrize("maker", MAKERS)
    def test_act_equals_per_term_reference(self, maker):
        alg = maker()
        ctx = alg.ctx
        rng = random.Random(31)
        for _ in range(6):
            x = self.shared_operand(alg, rng)
            f = {tuple(rng.randrange(3) for _ in range(alg.m)):
                 ctx.q_pow(rng.randrange(3)).reduce_prec(M=ctx.M - rng.randrange(2))
                 for _ in range(3)}
            got, ref = x.act(f), ref_act(x, f)
            assert ({k: scalar_state(v) for k, v in got.items()}
                    == {k: scalar_state(v) for k, v in ref.items()})

    def test_one_piece_per_key(self, monkeypatch):
        # two terms with (ne, b) = (0, 1): one partial pass per product,
        # and one per term when the rule order is randomized
        alg = make_absolute_algebra(3, 0, m=1, N=6, M=8)
        x = alg.partial() + alg.T(0) * alg.partial()
        y = alg.nabla(0) + alg.T(0)
        calls = []
        orig = ore._partial_times

        def counted(alg_, piece, order_rng=None):
            calls.append(order_rng)
            return orig(alg_, piece, order_rng)

        monkeypatch.setattr(ore, "_partial_times", counted)
        x.mul(y)
        assert len(calls) == 1
        x.mul(y, order_rng=random.Random(0))
        assert len(calls) == 3


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

    def test_oracle_sees_each_moved_coefficient(self, monkeypatch):
        # p=3, alpha=1: a_{k,j} multiplies nabla^j(T^n), which vanishes for
        # j > n, so the suite's n <= 8 sees the entries with j <= 8 and
        # n <= k = 10 sees every entry
        p, a, k = 3, 1, 10
        orig = ore.akj_exact
        table = orig(p, a, k)
        for key in sorted(table):
            def moved(p_, a_, kmax, key=key):
                out = dict(orig(p_, a_, kmax))
                out[key] = out[key] + 1
                return out

            monkeypatch.setattr(ore, "akj_exact", moved)
            assert not akj_operator_oracle(p, a, k, nmax=k), key
            if key[1] <= 8:
                assert not akj_operator_oracle(p, a, k, nmax=8), key

    @pytest.mark.parametrize("n,j", [(3, 2), (5, 4), (8, 8)])
    def test_oracle_sees_a_moved_nabla_power(self, monkeypatch, n, j):
        # nabla^j(T^n) moved by 1; its input nabla^(j-1)(T^n) has T-degree
        # below n, so no value of the left-hand chain meets the change
        p, a = 3, 1
        orig = ore.akj_nabla
        pres = RingPresentation(p, a, m=1, has_eps0=False)
        source = pres.t_pow(0, n)
        for _ in range(j - 1):
            source = orig(pres, source)

        def moved(pres_, f):
            out = orig(pres_, f)
            return out + 1 if f == source else out

        monkeypatch.setattr(ore, "akj_nabla", moved)
        assert not akj_operator_oracle(p, a, p ** (a + 1) + 1, nmax=8)

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

        pres = RingPresentation(p, a, m=1, has_eps0=False)
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
        # a negative q-exponent is refused as the product form refuses it
        f = BigPoly(pres, {(-1, (0,), (2,)): 1})
        with pytest.raises(NegativeQPower):
            product_form(pres, f)
        with pytest.raises(NegativeQPower):
            akj_nabla(pres, f)

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
        checks = verify_master_relation(p, a, bound=4, M=48)
        assert all(checks.values()), [c for c, ok in checks.items() if not ok]

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
        assert all(verify_double_complex_rows(p, a, bound=2, M=48).values())


class TestMasterRelationCoverage:
    """At p=3, alpha=1 (k = 10), the monomials q^a T^b with b <= 10 reach
    nabla^(k-1) inside D, where the suite's bound 6 leaves c_7..c_10
    unseen.  A unit error in c_j changes the two sides by a multiple of
    nabla^j of a monomial, the product of j consecutive [i p]_{q^3}."""

    P, ALPHA, BOUND = 3, 1, 10

    def flipped(self, monkeypatch, j, M):
        orig = scalars._QScalars.d_coeffs

        def moved(ctx):
            out = dict(orig(ctx))
            out[j] = out[j] + ctx.one()
            return out

        monkeypatch.setattr(scalars._QScalars, "d_coeffs", moved)
        checks = verify_master_relation(self.P, self.ALPHA, bound=self.BOUND, N=8, M=M)
        return not all(checks.values())

    def test_relation_holds_at_the_full_bound(self):
        checks = verify_master_relation(self.P, self.ALPHA, bound=self.BOUND, N=8, M=48)
        assert all(checks.values()), [c for c, ok in checks.items() if not ok]

    @pytest.mark.parametrize("j", [
        *range(2, 9),
        *(pytest.param(j, marks=pytest.mark.xfail(strict=True, reason=(
            "nabla^9 and nabla^10 vanish mod (3^8, t^48): nine consecutive "
            "[3i]_{q^3} already multiply to 0 there, so no bound shows an "
            "error in c_9 or c_10 at the suite's t-precision")))
          for j in (9, 10)),
    ])
    def test_unit_error_in_c_j_flips_a_check(self, monkeypatch, j):
        assert self.flipped(monkeypatch, j, M=48)

    @pytest.mark.parametrize("j", [9, 10])
    def test_c_9_and_c_10_show_at_t_precision_96(self, monkeypatch, j):
        assert self.flipped(monkeypatch, j, M=96)


class TestDoubleComplexRowsCoverage:
    """The row checks at p=3, alpha=1 (k = 10): a unit error in c_j
    first shows on the monomials q^a T1^b T2^j, so bound j sees c_j where
    the suite's bound 2 sees only c_2."""

    P, ALPHA = 3, 1

    def test_rows_hold_at_bound_8(self):
        checks = verify_double_complex_rows(self.P, self.ALPHA, bound=8, N=8, M=48)
        assert all(checks.values()), [c for c, ok in checks.items() if not ok]

    @pytest.mark.parametrize("j,bound", [
        *((j, j) for j in range(2, 9)),
        *(pytest.param(j, 10, marks=pytest.mark.xfail(strict=True, reason=(
            "nabla^9 and nabla^10 vanish mod (3^8, t^48), as for the master "
            "relation: no row check up to bound 10 shows an error in c_9 or "
            "c_10 at the suite's t-precision; at t^96 each flips at bound j")))
          for j in (9, 10)),
    ])
    def test_unit_error_in_c_j_flips_a_row_check(self, monkeypatch, j, bound):
        orig = scalars._QScalars.d_coeffs

        def moved(ctx):
            out = dict(orig(ctx))
            out[j] = out[j] + ctx.one()
            return out

        monkeypatch.setattr(scalars._QScalars, "d_coeffs", moved)

        def flips(b):
            checks = verify_double_complex_rows(self.P, self.ALPHA, bound=b, N=8, M=48)
            return not all(checks.values())

        assert flips(bound)
        assert not flips(bound - 1)


# ---------------------------------------------------------------------------
# the correction operator D_i with nabla_i^(j-1) f rebuilt from f for every
# j, and the double-complex rows that build nabla(W1 f) twice: the
# references that the single walk must equal term by term
# ---------------------------------------------------------------------------


def ref_base_D_op(alg, i, f):
    ctx = alg.ctx
    out = {}
    for j, cj in ctx.d_coeffs().items():
        if cj.is_zero():
            continue
        g = f
        for _ in range(j - 1):
            g = base_nabla(alg, i, g)
        for mono, s in g.items():
            up = list(mono)
            up[i] += j - 1
            key = tuple(up)
            val = s * cj
            out[key] = out[key] + val if key in out else val
    return {k: v for k, v in out.items() if not ctx.droppable(v)}


def ref_verify_double_complex_rows(p, alpha, bound, N=8, M=32):
    alg = make_absolute_algebra(p, alpha, m=2, N=N, M=M)
    ctx = alg.ctx
    s0, s1 = ctx.s0(), ctx.s1()
    bq = ctx.beta * ctx.q_pow(1)

    def neg(f):
        return {k: -v for k, v in f.items()}

    def W1(f, j):
        out = base_mul_scalar(alg, base_partial(alg, f), s0)
        out = base_add(alg, out, base_mul_scalar(alg, f, s0 * s1))
        return base_add(alg, out, neg(ref_base_D_op(alg, j, f)))

    def W0(f):
        out = base_mul_scalar(alg, base_partial(alg, f), s0 * s0)
        out = base_add(alg, out, base_mul_scalar(alg, f, (s0 + s0 * s0) * s1))
        out = base_add(alg, out, neg(ref_base_D_op(alg, 0, f)))
        out = base_add(alg, out, neg(ref_base_D_op(alg, 1, f)))
        dd = ref_base_D_op(alg, 0, ref_base_D_op(alg, 1, f))
        return base_add(alg, out, base_mul_scalar(alg, dd, -bq))

    checks = {}
    for a in range(bound + 1):
        for b in range(bound + 1):
            for c in range(bound + 1):
                f = {(b, c): ctx.q_pow(a)}
                for wedge, other in ((1, 0), (0, 1)):
                    lhs = W0(base_nabla(alg, wedge, f))
                    rhs = base_nabla(alg, wedge, W1(f, other))
                    rhs = base_add(alg, rhs, base_mul_scalar(
                        alg, ref_base_D_op(alg, wedge,
                                           base_nabla(alg, wedge, W1(f, other))),
                        bq))
                    checks[f"q^{a}T1^{b}T2^{c} wedge{wedge + 1}"] = base_eq(alg, lhs, rhs)
    return checks


def _series_reduced(ctx, s):
    return s.reduce_prec(N=ctx.N - 2, M=ctx.M - 5)


def _quot_reduced(ctx, s):
    return QuotElem(ctx.ring, s.coeffs, ctx.ring.N - 2)


D_OP_CONTEXTS = {
    "series p=3 a=1 absolute": (lambda: SeriesScalars(3, 6, 16, 1), _series_reduced),
    "series p=2 a=0 absolute": (lambda: SeriesScalars(2, 6, 16, 0), _series_reduced),
    "series p=3 relative": (lambda: SeriesScalars(3, 6, 16, 0, "relative"),
                            _series_reduced),
    "quot A/d p=3 a=1": (lambda: QuotScalars(QuotientRing(3, 6, 1, 1)), _quot_reduced),
    "quot A/d^2 p=2 a=1": (lambda: QuotScalars(QuotientRing(2, 6, 1, 2)),
                           _quot_reduced),
    "residue p=3 a=1": (lambda: ResidueScalars(3, 1), None),
}


def _d_op_inputs(ctx, reduced):
    """Monomials T1^b T2^c up past the last power D uses, and sums of a few
    of them, some with reduced-precision scalars."""
    rng = random.Random(7)
    top = ctx.k + 1
    inputs = [{(b, c): ctx.q_pow(b + 2 * c)} for b in range(top + 1)
              for c in (0, 1, top)]
    for _ in range(6):
        f = {}
        for _ in range(3):
            s = ctx.q_pow(rng.randrange(4)) * rng.randrange(1, 9)
            if reduced is not None and rng.randrange(2):
                s = reduced(ctx, s)
            f[(rng.randrange(top + 1), rng.randrange(top + 1))] = s
        inputs.append(f)
    return inputs


class TestCorrectionOperator:
    @pytest.mark.parametrize("zeroed", [(), (2, 4)], ids=["own c_j", "c_2 c_4 zero"])
    @pytest.mark.parametrize("name", list(D_OP_CONTEXTS))
    def test_single_walk_equals_per_j_reference(self, name, zeroed):
        make, reduced = D_OP_CONTEXTS[name]
        ctx = make()
        if zeroed:
            # a zero c_j still advances the power the walk stands at
            ctx._cache["dc"] = {j: ctx.zero() if j in zeroed else c
                                for j, c in ctx.d_coeffs().items()}
        alg = OreAlgebra(ctx, m=2)
        for f in _d_op_inputs(ctx, reduced):
            for i in (0, 1):
                got, want = base_D_op(alg, i, f), ref_base_D_op(alg, i, f)
                assert ({k: scalar_state(v) for k, v in got.items()}
                        == {k: scalar_state(v) for k, v in want.items()}), (f, i)

    @pytest.mark.parametrize("p,a", [(2, 0), (2, 1), (3, 0), (3, 1)])
    def test_double_complex_rows_equal_reference(self, p, a):
        assert (verify_double_complex_rows(p, a, bound=2, M=48)
                == ref_verify_double_complex_rows(p, a, bound=2, M=48))


class TestCorrectionNegativeControl:
    """With the first nonzero c_j moved by p^(N-1), both relation checks
    that run D must report a failure."""

    N = 8

    @pytest.fixture
    def bumped_c_j(self, monkeypatch):
        orig = scalars._QScalars.d_coeffs

        def bumped(ctx):
            out = dict(orig(ctx))
            j = min(j for j, c in out.items() if not c.is_zero())
            out[j] = out[j] + ctx.const(ctx.p ** (self.N - 1))
            return out

        monkeypatch.setattr(scalars._QScalars, "d_coeffs", bumped)

    @pytest.mark.parametrize("p,a", [(2, 0), (2, 1), (3, 0), (3, 1)])
    def test_master_relation_fails(self, bumped_c_j, p, a):
        checks = verify_master_relation(p, a, bound=6, N=self.N, M=48)
        assert not all(checks.values())

    @pytest.mark.parametrize("p,a", [(2, 0), (2, 1), (3, 0), (3, 1)])
    def test_double_complex_rows_fail(self, bumped_c_j, p, a):
        checks = verify_double_complex_rows(p, a, bound=2, N=self.N, M=48)
        assert not all(checks.values())


class TestSpecialize:
    # at (7, 1), k = p^(alpha+1)+1 = 50: the rewrite rule reaches T-degree 49
    @pytest.mark.parametrize("p,a", [(3, 0), (2, 1), (5, 0), (7, 1)])
    def test_mod_d(self, p, a):
        checks = specialize_mod_d_checks(p, a)
        assert all(checks.values()), checks

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

    @pytest.mark.parametrize("alpha", [0, 1, 2])
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_residue_scalars_match_closed_forms(self, p, alpha):
        # the mixed-law scalars from the shared formulas, against their
        # values written out mod (p, d, q-1), where q = 1 and [n] = n
        ctx = ResidueScalars(p, alpha)
        k = p ** (alpha + 1) + 1
        e = (p**alpha * (p - 1) * p // 2) % p  # sum_{i<p} i p^alpha
        want_d = {j: 0 for j in range(2, k + 1)}
        want_d[2] = (math.comb(k, 2) * pow(k % p, -1, p)) % p
        assert ctx.s0().residue == pow(k % p, -1, p)
        assert ctx.s0_inv().residue == k % p
        assert ctx.s1().residue == (-e) % p
        assert {j: c.residue for j, c in ctx.d_coeffs().items()} == want_d
        for j in range(8):
            assert ctx.nabla_factor(j).residue == (j * p) % p
            assert ctx.gamma_t_factor(j).residue == 1
        values = [ctx.s0(), ctx.s0_inv(), ctx.s1(), *ctx.d_coeffs().values()]
        assert all(v.prec == 1 for v in values)

    def test_mod_d_algebra_products(self):
        ring = QuotientRing(3, 8, 0, 1)
        alg = OreAlgebra(QuotScalars(ring), m=1)
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
