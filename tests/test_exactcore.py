"""Exact polynomial layer: identities checked by literal term equality."""

import random
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qprism.exactcore import (
    BigPoly,
    NegativeQPower,
    RingPresentation,
    divides_exactly,
    poly_divmod_monic,
    psi_q_power,
    q_analogue,
    verify_e_beta,
    verify_gamma_relations,
    verify_phi_epsilon,
    verify_psi_hom,
    verify_q_factorization,
)


def pres(p=3, alpha=0, m=0, **kw):
    return RingPresentation(p, alpha, m=m, **kw)


def brute_qpoly(coeffs):
    """Independent dense-polynomial constructor: {exp: c}."""
    return dict(coeffs)


def brute_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


class TestQAnalogue:
    def test_one(self):
        assert q_analogue(pres(), 1) == pres().one()

    def test_three(self):
        P = pres()
        assert q_analogue(P, 3) == P.one() + P.q_pow(1) + P.q_pow(2)

    def test_product_rule_by_brute_expansion(self):
        # [4]_{q^2} = [2]_{q^4} [2]_{q^2}: both sides expanded densely
        lhs = brute_qpoly({0: 1, 2: 1, 4: 1, 6: 1})
        rhs = brute_mul({0: 1, 4: 1}, {0: 1, 2: 1})
        assert lhs == rhs
        P = pres(2)
        assert q_analogue(P, 4, 2) == q_analogue(P, 2, 4) * q_analogue(P, 2, 2)

    def test_specializes_to_n_at_q_one(self):
        P = pres(5, 1)
        for n in (0, 1, 4, 9):
            assert sum(q_analogue(P, n).q_coefficients().values()) == n

    def test_one_pass_equals_sum_of_powers(self):
        P = pres(3, 0, m=1)
        for b in (0, 1, 3, 7):
            for n in range(12):
                total = P.zero()
                for i in range(n):
                    total = total + P.q_pow(b * i)
                assert q_analogue(P, n, b).terms == total.terms

    def test_keys_checked(self):
        P = pres(3, 0)
        assert q_analogue(P, 6, 2) == q_analogue(P, 3, 4) * q_analogue(P, 2, 2)
        with pytest.raises(NegativeQPower):
            q_analogue(P, 2, -1)


class TestPsi:
    def test_identity_monomial(self):
        assert psi_q_power(pres(), 0) == pres().one()

    def test_square_closed_form_p3(self):
        # psi(q)^2 = psi(q^2) = q^2 + eps [6]_q q
        P = pres(3, 0)
        sq = psi_q_power(P, 1) * psi_q_power(P, 1)
        assert sq == psi_q_power(P, 2)
        assert sq == P.q_pow(2) + P.eps(0) * q_analogue(P, 6) * P.q_pow(1)

    def test_cube_brute_force_p2_alpha1(self):
        # expand psi(q)^3 by raw multiplication and reduce
        P = pres(2, 1)
        cube = psi_q_power(P, 1) ** 3
        assert cube == psi_q_power(P, 3)

    def test_hom_report(self):
        checks = verify_psi_hom(3, 0, [0, 1, 2, 5, (1, (2,))], m=1)
        assert all(checks.values()), checks

    @pytest.mark.parametrize("p,alpha", [(7, 1), (5, 2), (3, 3)])
    def test_hom_report_at_high_degree(self, p, alpha):
        # the q-identities suite's monomials; psi(q^50) has q-degree
        # about 50 p^(alpha+1)
        mono = list(range(0, 9)) + [25, 50] + [(2, (1,)), (1, (3,))]
        checks = verify_psi_hom(p, alpha, mono, m=1)
        assert all(checks.values()), checks

    @pytest.mark.parametrize("p,alpha", [(2, 0), (3, 0), (5, 0), (2, 1), (3, 1), (5, 1)])
    def test_closed_form_chain(self, p, alpha):
        P = pres(p, alpha)
        acc = P.one()
        step = psi_q_power(P, 1)
        for k in range(1, 13):
            acc = acc * step
            assert acc == psi_q_power(P, k)


class TestFactorization:
    def test_trivial_n1_i1_p2(self):
        # both sides are [2]_{q^2}
        assert verify_q_factorization(2, 0, 1, 1)

    def test_derived_p3(self):
        assert verify_q_factorization(3, 0, 2, 2)

    def test_derived_p2_alpha1(self):
        assert verify_q_factorization(2, 1, 1, 1)

    def test_i_zero(self):
        assert verify_q_factorization(3, 0, 1, 0)

    def test_large_prime_every_suite_case(self):
        # at i = 0 the right side still multiplies [p]_{q^(p^(alpha+n))},
        # of q-degree (p-1) p^(alpha+n): 13,310 at p=11, n=3
        assert all(verify_q_factorization(11, 0, n, i)
                   for n in range(1, 4) for i in range(11))

    @pytest.mark.parametrize("p,alpha", [(7, 1), (5, 2)])
    def test_higher_level_high_degree(self, p, alpha):
        for n in (1, 3):
            for i in (0, 1, p - 1):
                assert verify_q_factorization(p, alpha, n, i), (n, i)


class TestGammaRelations:
    def test_report(self):
        checks = verify_gamma_relations(2, 0, 2)
        assert all(checks.values()), checks

    @pytest.mark.parametrize("p,alpha", [(5, 2), (3, 3)])
    def test_report_at_high_degree(self, p, alpha):
        # gamma_0 after gamma_i raises q to degree p^(alpha+1) (p^(alpha+1)+1)
        checks = verify_gamma_relations(p, alpha, 2)
        assert all(checks.values()), checks

    def test_on_q_both_sides(self):
        P = pres(3, 0, m=1)
        g = P.q_pow(1)
        assert g.gamma_t(0).gamma0() == P.q_pow(3 ** 1 + 1)

    def test_composite_exponent_on_T(self):
        # composing the substitutions at (p, alpha) = (2, 0) gives q^6 T
        # (exponent p^(alpha+1) (p^(alpha+1) + 1) = 2 * 3)
        P = pres(2, 0, m=1)
        t = P.t_pow(0)
        lhs = t.gamma_t(0).gamma0()
        assert lhs == P.q_pow(6) * P.t_pow(0)

    def test_disjoint_indices_commute(self):
        P = pres(3, 0, m=2)
        t = P.t_pow(0)
        assert t.gamma_t(1) == t  # gamma_2 fixes T_1
        assert t.gamma_t(1).gamma_t(0) == t.gamma_t(0).gamma_t(1)


class TestPhiEps:
    @pytest.mark.parametrize("p,alpha", [(3, 0), (2, 1), (2, 0), (5, 0)])
    def test_divisibility(self, p, alpha):
        assert all(verify_phi_epsilon(p, alpha).values())

    def test_phi_is_ring_map_on_eps_square(self):
        P = pres(3, 0)
        e = P.eps(0)
        assert (e * e).frobenius() == e.frobenius() * e.frobenius()


class TestEBeta:
    @pytest.mark.parametrize("p,alpha", [(2, 0), (3, 0), (5, 0), (2, 1), (3, 1)])
    def test_exact_remainder(self, p, alpha):
        assert verify_e_beta(p, alpha)

    def test_monic_division(self):
        P = pres(3, 0)
        f = P.d_poly() * (P.q_pow(3) + P.const(2)) + P.q_pow(1)
        quo, rem = poly_divmod_monic(f, P.d_poly())
        assert quo == P.q_pow(3) + P.const(2)
        assert rem == P.q_pow(1)
        assert not divides_exactly(f, P.d_poly())


class TestReduction:
    def test_idempotent(self):
        # products arrive fully reduced; multiplying by one re-reduces
        P = pres(3, 0, m=1)
        x = (P.eps(0) + P.t_pow(0)) * (P.eps(0) * P.q_pow(2) + P.const(3))
        assert x * P.one() == x

    def test_eps_power_reduces_to_single_eps(self):
        P = pres(3, 0)
        cube = P.eps(0) ** 3
        assert all(sum(k[1]) == 1 for k in cube.terms)

    def test_cross_eps_vanishes(self):
        P = pres(2, 0, m=2, has_eps0=False)
        assert not (P.eps(0) * P.eps(1))

    def test_rewrite_step_output_size_bounded(self):
        # one eps_i^2 reduction multiplies the term count by at most the
        # size of the rule's right-hand side
        P = pres(5, 1)
        rule_size = len(P.eps_square_factor(0).terms)
        sq = P.eps(0) * P.eps(0)
        assert len(sq.terms) <= rule_size

    def test_negative_power_guard(self):
        P = pres(3, 0)
        with pytest.raises(NegativeQPower):
            P.q_pow(-1) * P.one()


@st.composite
def small_polys(draw):
    P = pres(3, 0, m=1)
    out = P.zero()
    for _ in range(draw(st.integers(1, 4))):
        qe = draw(st.integers(0, 5))
        ee = draw(st.integers(0, 1))
        te = draw(st.integers(0, 3))
        c = draw(st.integers(-9, 9))
        term = P.q_pow(qe) * P.t_pow(0, te) * c
        if ee:
            term = term * P.eps(0)
        out = out + term
    return out


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys(), small_polys())
def test_mul_associative_commutative(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a


def test_200_random_triples_associate():
    rng = random.Random(0)
    P = pres(3, 0, m=1)

    def rnd():
        out = P.zero()
        for _ in range(3):
            term = P.q_pow(rng.randrange(6)) * P.t_pow(0, rng.randrange(3)) \
                * rng.randrange(-9, 10)
            if rng.randrange(2):
                term = term * P.eps(0)
            out = out + term
        return out

    for _ in range(200):
        a, b, c = rnd(), rnd(), rnd()
        assert (a * b) * c == a * (b * c)


def test_render_canonical_order():
    P = pres(3, 0, m=1)
    x = P.t_pow(0) * P.q_pow(2) + P.eps(0) + P.const(5)
    assert x.render() == "5 + e0 + q^2*T1"


# -- the packed product kernel against the term-pair reference ---------------


def reference_square_rule(P, idx):
    """eps_idx^2 -> F * eps_idx, as (q shift, T shift, coefficient) terms,
    written from the rules in the exactcore docstring."""
    b = P.p**P.alpha
    if P.has_eps0 and idx == 0:
        return [(1 + b, (0,) * P.m, 1), (1, (0,) * P.m, -1)]
    t = tuple(int(j == P.t_index(idx)) for j in range(P.m))
    return [(b, t, 1), (0, t, -1)]


def reference_mul(x, y):
    """Every term pair expanded, eps rewrites driven by a pending list,
    every resulting key checked before it is summed."""
    P = x.pres
    out = {}
    pending = []
    for (q1, e1, t1), c1 in x.terms.items():
        for (q2, e2, t2), c2 in y.terms.items():
            pending.append((q1 + q2, tuple(map(add, e1, e2)),
                            tuple(map(add, t1, t2)), c1 * c2))
    while pending:
        qe, ee, te, c = pending.pop()
        live = [i for i, e in enumerate(ee) if e > 0]
        if len(live) > 1:
            continue  # eps_i * eps_j = 0
        if live and ee[live[0]] > 1:
            idx = live[0]
            red = list(ee)
            red[idx] -= 1
            for fq, ft, fc in reference_square_rule(P, idx):
                pending.append((qe + fq, tuple(red), tuple(map(add, te, ft)), c * fc))
            continue
        BigPoly._check_key(qe)
        key = (qe, ee, te)
        s = out.get(key, 0) + c
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


def outcome(fn, *args):
    try:
        result = fn(*args)
    except NegativeQPower as exc:
        return type(exc)
    return result.terms if isinstance(result, BigPoly) else result


def random_poly(P, rng, nterms, coeff_bits, qmax=8, tmax=4):
    terms = {}
    for _ in range(nterms):
        ee = [0] * P.n_eps
        if P.n_eps and rng.random() < 0.5:
            ee[rng.randrange(P.n_eps)] = 1
        te = tuple(rng.randint(0, tmax) for _ in range(P.m))
        c = rng.randint(1, 1 << coeff_bits) * rng.choice((1, -1))
        terms[(rng.randint(0, qmax), tuple(ee), te)] = c
    return BigPoly(P, terms)


class TestBigPolyKernel:
    """``BigPoly.__mul__`` equals the term-pair reference, in the terms it
    returns and in the exception it raises."""

    PRESENTATIONS = [
        dict(p=3, alpha=0, m=0, has_eps0=True),
        dict(p=2, alpha=1, m=0, has_eps0=True),
        dict(p=3, alpha=1, m=1, has_eps0=False),
        dict(p=5, alpha=0, m=1, has_eps0=True),
        dict(p=2, alpha=0, m=2, has_eps0=False),
        dict(p=3, alpha=0, m=2, has_eps0=True),
    ]

    @pytest.mark.parametrize("kw", PRESENTATIONS)
    def test_random_products_match_reference(self, kw):
        rng = random.Random(repr(sorted(kw.items())))
        P = RingPresentation(**kw)
        for _ in range(60):
            x = random_poly(P, rng, rng.randint(1, 7), rng.choice((3, 40, 130)))
            y = random_poly(P, rng, rng.randint(1, 7), rng.choice((3, 40, 130)))
            assert outcome(BigPoly.__mul__, x, y) == outcome(reference_mul, x, y)

    def test_every_sector_pair(self):
        P = pres(3, 1, m=2, has_eps0=True)
        parts = [P.const(2) + P.q_pow(3) * P.t_pow(1)] + [
            P.eps(i) * (P.q_pow(i) - P.t_pow(0, 2)) for i in range(P.n_eps)]
        for x in parts:
            for y in parts:
                assert (x * y).terms == reference_mul(x, y)
        # eps_i * eps_j = 0, eps_i^2 = F_i * eps_i
        assert not P.eps(1) * P.eps(2)
        assert not (P.eps(0) + P.const(1)) * P.eps(1) * P.eps(2)
        for i in range(P.n_eps):
            assert P.eps(i) * P.eps(i) == P.eps_square_factor(i) * P.eps(i)
        total = sum(parts, P.zero())
        assert (total * total).terms == reference_mul(total, total)

    def test_product_cancels_to_zero(self):
        P = pres(3, 0)
        # eps0 * (eps0 - F) = F eps0 - F eps0
        x = P.eps(0)
        y = P.eps(0) - P.eps_square_factor(0)
        assert reference_mul(x, y) == {}
        assert (x * y).terms == {}
        Q = pres(2, 0, m=2, has_eps0=False)
        assert (Q.eps(0) * (Q.eps(1) + Q.eps(1) * Q.q_pow(4))).terms == {}

    def test_large_and_negative_coefficients(self):
        P = pres(3, 0, m=1)
        big = (1 << 200) + 12345
        x = P.const(big) - P.q_pow(2) * (big * 7) + P.eps(0) * P.t_pow(0) * (-big)
        y = P.q_pow(1) * (-(big ** 2)) + P.eps(0) * 3 + P.t_pow(0, 2) * (big - 1)
        assert (x * y).terms == reference_mul(x, y)
        assert any(abs(c) > 1 << 600 for c in (x * y).terms.values())

    def test_slot_width_at_the_coefficient_bound(self):
        # (c [3]_q) * (+-c [3]_q) has middle coefficient +-3c^2, which is
        # exactly the slot bound; sweep c so that the bound's bit length
        # takes every residue mod 8
        P = pres(3, 0)
        for k in range(40):
            c = (1 << k) + (k % 3)
            x = q_analogue(P, 3) * c
            for sign in (1, -1):
                y = x * sign
                assert (x * y).terms == reference_mul(x, y)

    def test_single_term_operand(self):
        P = pres(3, 0, m=2)
        poly = (P.const(4) + P.eps(0) * P.q_pow(2) - P.eps(2) * P.t_pow(1, 3)
                + P.t_pow(0) * P.q_pow(5) * 9)
        for term in (P.q_pow(3) * P.t_pow(0, 2) * -5, P.t_pow(1), P.const(7),
                     P.eps(0) * P.q_pow(1), P.eps(1) * P.t_pow(1) * 2):
            assert (poly * term).terms == reference_mul(poly, term)
            assert (term * poly).terms == reference_mul(term, poly)

    def test_sparse_high_degree(self):
        P = pres(3, 0)
        x = P.one() + P.q_pow(1 << 20)
        assert x * x == P.one() + P.q_pow(1 << 20) * 2 + P.q_pow(1 << 21)

    def test_exceptions_match_reference(self):
        P = pres(3, 0, m=1)
        cases = [
            (P.q_pow(-1), P.one() + P.q_pow(3)),            # negative q
            (P.q_pow(-2) + P.q_pow(4), P.q_pow(1) + P.one()),
            (P.q_pow(-15) + P.one(), P.q_pow(-6) + P.one()),
            (P.q_pow(-15), P.q_pow(-6)),                     # single term
            (P.q_pow(15) + P.one(), P.q_pow(6) + P.one()),
            (P.t_pow(0, 3) + P.one(), P.t_pow(0, 3) + P.one()),
            (P.eps(0) * P.q_pow(9), P.eps(0) * P.q_pow(9)),  # eps^2 raises q
            (P.eps(1) * P.t_pow(0, 2), P.eps(1) * P.t_pow(0, 2)),  # and T
            (P.eps(0) * P.q_pow(19), P.eps(1) * P.q_pow(19)),  # dropped pair
            (P.q_pow(20), P.q_pow(1)),                       # single term
        ]
        seen = set()
        for x, y in cases:
            got = outcome(BigPoly.__mul__, x, y)
            assert got == outcome(reference_mul, x, y)
            assert got == outcome(BigPoly.__mul__, y, x)
            seen.add(got if isinstance(got, type) else dict)
        assert seen == {NegativeQPower, dict}


def sequential_sum(P, pairs):
    out = P.zero()
    for a, b in pairs:
        out = out + a * b
    return out


class TestSumOfProducts:
    """``BigPoly.sum_of_products`` (one packed box for all pairs) equals
    the sequential sum of products, in the terms it returns and in the
    exception it raises."""

    @pytest.mark.parametrize("kw", TestBigPolyKernel.PRESENTATIONS)
    def test_random_sums_match_sequential(self, kw):
        rng = random.Random("sum" + repr(sorted(kw.items())))
        P = RingPresentation(**kw)
        for _ in range(30):
            # operands recur across pairs and within one pair
            polys = [random_poly(P, rng, rng.randint(1, 6), rng.choice((3, 40, 130)))
                     for _ in range(4)]
            pairs = [(rng.choice(polys), rng.choice(polys))
                     for _ in range(rng.randint(1, 5))]
            assert (outcome(BigPoly.sum_of_products, P, pairs)
                    == outcome(sequential_sum, P, pairs))

    def test_eps_sectors_and_cancellation(self):
        P = pres(3, 1, m=2, has_eps0=True)
        parts = [P.const(2) - P.q_pow(3) * P.t_pow(1)] + [
            P.eps(i) * (P.q_pow(i) - P.t_pow(0, 2) * 5) for i in range(P.n_eps)]
        pairs = [(x, y) for x in parts for y in parts]
        assert (BigPoly.sum_of_products(P, pairs).terms
                == sequential_sum(P, pairs).terms)
        # every eps_i^2 rewrite, and a sum that cancels to zero
        squares = [(P.eps(i), P.eps(i) * -3) for i in range(P.n_eps)]
        assert (BigPoly.sum_of_products(P, squares).terms
                == sequential_sum(P, squares).terms)
        x, y = parts[1], parts[1] + parts[0]
        assert not BigPoly.sum_of_products(P, [(x, y), (-x, y)])
        assert not BigPoly.sum_of_products(P, [(P.zero(), x), (P.eps(1), P.eps(2))])

    def test_exceptions_at_the_degree_bounds(self):
        # q-degree 0 is the one bound: Z[q] has no q^-1
        P = pres(3, 0, m=1)
        fine = (P.q_pow(2) + P.eps(0), P.one() + P.t_pow(0))
        cases = [
            [fine, (P.q_pow(-1), P.one() + P.q_pow(3))],                 # negative q
            [(P.q_pow(-15) + P.one(), P.q_pow(-6) + P.one()), (P.q_pow(3), P.eps(1))],
            [fine, (P.q_pow(15) + P.one(), P.q_pow(6) + P.one())],
            [(P.t_pow(0, 3) + P.one(), P.t_pow(0, 3) + P.one()), fine],
            [fine, (P.eps(0) * P.q_pow(9), P.eps(0) * P.q_pow(9))],     # via eps^2
            [fine, (P.eps(0) * P.q_pow(19), P.eps(1) * P.q_pow(19))],   # dropped
        ]
        seen = set()
        for pairs in cases:
            got = outcome(BigPoly.sum_of_products, P, pairs)
            assert got == outcome(sequential_sum, P, pairs)
            seen.add(got if isinstance(got, type) else dict)
        assert seen == {NegativeQPower, dict}

    def test_split_kept_on_the_operand(self):
        P = pres(3, 0, m=1)
        x = P.eps(0) * P.q_pow(2) + P.t_pow(0) * 3 - P.one()
        y = x * x
        sectors = x.sectors()
        assert x.sectors() is sectors
        assert (x * y).terms == reference_mul(x, y)
        assert x.sectors() is sectors
