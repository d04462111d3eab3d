"""Capped-precision arithmetic, certified division, Z/p^N linear algebra."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qprism.padic import (
    DivisionCertificateError,
    PadicInt,
    PrecisionError,
    QuotientRing,
    QuotElem,
    TruncSeries,
    _mat_mul,
    _poly_mul,
    coker_invariants_mod,
    d_poly_t,
    divide_by_q_power_minus_one,
    howell_mod,
    inv_mod,
    ker_basis_mod,
    mat_eq_mod,
    mat_identity,
    mat_mul_mod,
    partial_arith,
    smith_mod,
    solve_mod,
    subquotient_invariants,
    teichmuller,
    vp_int,
)


class TestPadicInt:
    def test_vp(self):
        assert PadicInt(3, 8, 1).vp() == 0
        assert PadicInt(3, 8, 3).vp() == 1  # binom(3, 2) = 3
        assert PadicInt(2, 8, 6).vp() == 1  # binom(4, 2) = 6
        assert PadicInt(3, 4, 81).vp() is None

    def test_vp_by_carry_count_oracle(self):
        # the valuation of binom(n, k) is the number of carries adding
        # k and n-k in base p
        import math

        def carries(k, m, p):
            c, total, carry = 0, 0, 0
            while k or m or carry:
                s = k % p + m % p + carry
                carry = 1 if s >= p else 0
                c += carry
                k //= p
                m //= p
            return c

        for p in (2, 3, 5):
            for n in range(1, 14):
                for k in range(n + 1):
                    v = vp_int(math.comb(n, k), p)
                    assert (v or 0) == carries(k, n - k, p)

    def test_division_precision(self):
        x = PadicInt(3, 8, 18)
        y = x.divide_p_pow(2)
        assert y.prec == 6 and y.residue == 2
        with pytest.raises(DivisionCertificateError):
            PadicInt(3, 8, 5).divide_p_pow(1)


class TestTeichmuller:
    def test_one(self):
        assert teichmuller(5, 1, 6).residue == 1

    def test_exhaustive_mod_25(self):
        hits = [x for x in range(25)
                if x % 5 == 2 and pow(x, 4, 25) == 1]
        assert hits == [7]
        assert teichmuller(5, 2, 2).residue == 7

    def test_exhaustive_mod_81(self):
        hits = [x for x in range(81)
                if x % 3 == 2 and pow(x, 2, 81) == 1]
        assert hits == [80]
        assert teichmuller(3, 2, 4).residue == 80

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            teichmuller(3, 0, 4)


class TestQPow:
    def test_trivial(self):
        f = TruncSeries.q_power(3, 6, 8, 1)
        assert f.c[:3] == [1, 1, 0]

    def test_integer_exponent_is_polynomial(self):
        p = 3
        f = TruncSeries.q_power(p, 6, 8, p)
        assert f == TruncSeries(p, 6, 8, [1, 3, 3, 1])

    def test_padic_exponent_matches_integer_oracle(self):
        # 1 + p^(alpha+1) = 4 at (3, 0) is an integer
        u = PadicInt(3, 20, 4)
        assert TruncSeries.q_power(3, 6, 8, u) == TruncSeries.q_power(3, 6, 8, 4)

    def test_group_laws(self):
        n_t = 8 + 10
        u = teichmuller(5, 2, n_t)
        # additive in the exponent under multiplication
        a = TruncSeries.q_power(5, 6, 10, u)
        assert a * a == TruncSeries.q_power(5, 6, 10, u + u)
        # multiplicative under composition
        composed = a.gamma_u(u)
        assert composed == TruncSeries.q_power(5, 6, 10, u * u)


class TestSubstitution:
    def test_identity(self):
        f = TruncSeries(3, 6, 10, [5, 1, 4, 2])
        q = TruncSeries.q_power(3, 6, 10, 1)
        assert f.subst(q) == f

    def test_associativity(self):
        p = 3
        f = TruncSeries(p, 6, 12, [2, 0, 1, 7, 5])
        g = TruncSeries.q_power(p, 6, 12, 4)
        h = TruncSeries.q_power(p, 6, 12, 3)
        assert f.subst(g).subst(h) == f.subst(g.subst(h))

    def test_gamma_of_d_divisible_with_unit_quotient(self):
        d = TruncSeries.d_series(3, 6, 12, 0)
        Q = d.gamma0(0).weierstrass_divide_exact(d_poly_t(3, 0))
        assert Q.is_unit()

    def test_gamma_teich_fixes_ptilde(self):
        p, N, M = 3, 6, 20
        lifts = [teichmuller(p, u, N + 12) for u in (1, 2)]
        ptilde = TruncSeries.one(p, N, M)
        for u in lifts:
            ptilde = ptilde + TruncSeries.q_power(p, N, M, u)
        for u in lifts:
            assert ptilde.gamma_u(u) == ptilde


def _same_series(f, g):
    """Equal residues and equal stated precision (N, M)."""
    return (f.p, f.N, f.M, f.c) == (g.p, g.N, g.M, g.c)


class TestSubstTable:
    """The cached table of f(q) -> f(q^k) against Horner substitution."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("N", [1, 4, 8])
    @pytest.mark.parametrize("M", [1, 2, 8, 48])
    def test_table_equals_horner(self, p, N, M):
        rng = random.Random(p * 1000 + N * 100 + M)
        mod = p**N
        inputs = [
            TruncSeries.zero(p, N, M),
            TruncSeries.one(p, N, M),
            TruncSeries(p, N, M, [rng.randrange(mod) for _ in range(M)]),
            # unreduced: negative and far above p^N, and fewer than M entries
            TruncSeries(p, N, M, [rng.randrange(-mod**3, mod**3)
                                  for _ in range(max(M // 2, 1))]),
        ]
        for k in (2, 4, 10, 28):
            image = TruncSeries.q_power(p, N, M, k)
            for f in inputs:
                assert _same_series(f._subst_q_power(k), f.subst(image))

    @pytest.mark.parametrize("p,a", [(2, 0), (2, 1), (3, 0), (3, 1), (5, 0)])
    def test_gamma0_equals_horner(self, p, a):
        rng = random.Random(7)
        for N, M in [(1, 1), (4, 9), (8, 48)]:
            f = TruncSeries(p, N, M, [rng.randrange(p**N) for _ in range(M)])
            image = TruncSeries.q_power(p, N, M, p ** (a + 1) + 1)
            assert _same_series(f.gamma0(a), f.subst(image))

    def test_reduced_precision_input(self):
        # the table is the one of the input's own (N, M)
        f = TruncSeries(3, 8, 48, list(range(1, 49))).reduce_prec(N=5, M=20)
        g = f.gamma0(1)
        assert (g.N, g.M) == (5, 20)
        assert _same_series(g, f.subst(TruncSeries.q_power(3, 5, 20, 10)))

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("N,M", [(1, 1), (1, 5), (4, 8), (8, 48), (8, 64)])
    def test_q_inverse_is_binomial_series(self, p, N, M):
        assert _same_series(TruncSeries.q_power(p, N, M, -1),
                            TruncSeries.q_power(p, N, M, 1).unit_inverse())


class TestCertifiedDivision:
    def test_self_division(self):
        d = TruncSeries.d_series(3, 8, 20, 0)
        Q, R, cert = d.weierstrass_divmod(d_poly_t(3, 0))
        assert all(x % 3**cert == 0 for x in R)
        assert Q.coeff(0) == PadicInt(3, Q.N, 1)

    def test_q_power_minus_one_chain(self):
        # (q^(p^alpha) - 1)/(q - 1) at alpha=1, p=2 equals 1 + q
        p, N, M = 2, 8, 40
        num = TruncSeries.q_power(p, N, M, 2) - TruncSeries.one(p, N, M)
        quo = divide_by_q_power_minus_one(num, 0)  # just strip q-1
        expect = TruncSeries.one(p, N, M - 1) + TruncSeries.q_power(p, N, M - 1, 1)
        assert quo == expect

    def test_partial_of_q_is_d(self):
        # (gamma(q) - q)/(q (q^(p^a)-1)) = [p]_{q^(p^a)}
        for (p, a) in [(3, 0), (2, 1)]:
            q = TruncSeries.q_power(p, 8, 40, 1)
            assert partial_arith(q, a) == TruncSeries.d_series(p, 8, 40, a)

    def test_partial_monomials(self):
        # partial(q^i) = [p i]_{q^(p^a)} q^(i-1)
        p, a = 3, 0
        for i in (1, 2, 5, 8):
            f = TruncSeries.q_power(p, 8, 30, i)
            rhs = (TruncSeries.q_analogue(p, 8, 30, p * i, p**a)
                   * TruncSeries.q_power(p, 8, 30, i - 1))
            assert partial_arith(f, a) == rhs

    def test_partial_d_in_ideal(self):
        for (p, a) in [(3, 0), (2, 1)]:
            M = 60
            pd = partial_arith(TruncSeries.d_series(p, 8, M, a), a)
            pd.weierstrass_divide_exact(d_poly_t(p, a))  # certifies, or raises

    def test_multiply_back(self):
        rng = random.Random(1)
        p, N, M = 3, 6, 48
        for _ in range(25):
            f = TruncSeries(p, N, M, [rng.randrange(3**6) for _ in range(10)])
            g = TruncSeries.d_series(p, N, M, 1)
            q = (f * g).weierstrass_divide_exact(d_poly_t(p, 1))
            assert q == f.reduce_prec(N=q.N, M=q.M)

    def test_nonzero_remainder_raises(self):
        f = TruncSeries.q_power(3, 8, 20, 1)
        with pytest.raises(DivisionCertificateError):
            f.weierstrass_divide_exact(d_poly_t(3, 0))

    def test_gamma_u_dichotomy(self):
        # gamma_u preserves (d) for every unit u (unit quotient when
        # u = 1 mod p^(a+1)); the dichotomy lives on q^u - q, which
        # fails divisibility by d for units u != 1 mod p^(a+1)
        p, a, N, M = 3, 0, 8, 40
        d = TruncSeries.d_series(p, N, M, a)
        good = d.gamma_u(1 + p ** (a + 1))
        q = good.weierstrass_divide_exact(d_poly_t(p, a))
        assert q.is_unit()
        u = teichmuller(p, 2, N + 20)
        num = (TruncSeries.q_power(p, N, M, u)
               - TruncSeries.q_power(p, N, M, 1))
        _, R, cert = num.weierstrass_divmod(d_poly_t(p, a))
        assert any(x % p**cert for x in R)
        # while for u = 1 + p^(a+1) the same numerator is divisible
        num2 = (TruncSeries.q_power(p, N, M, 1 + p ** (a + 1))
                - TruncSeries.q_power(p, N, M, 1))
        num2.weierstrass_divide_exact(d_poly_t(p, a))


def leibniz_pair(p, a, rng, N=7, M=24):
    f = TruncSeries(p, N, M, [rng.randrange(p**N) for _ in range(M)])
    g = TruncSeries(p, N, M, [rng.randrange(p**N) for _ in range(M)])
    return f, g


@pytest.mark.parametrize("p,a", [(3, 0), (2, 1)])
def test_partial_twisted_leibniz_200_pairs(p, a):
    rng = random.Random(42)
    for _ in range(200):
        f, g = leibniz_pair(p, a, rng)
        lhs = partial_arith(f * g, a)
        rhs = f.gamma0(a) * partial_arith(g, a) + partial_arith(f, a) * g
        assert lhs == rhs


class TestLinearAlgebra:
    def test_howell_identity(self):
        assert howell_mod([[1, 0], [0, 1]], 2, 4) == [[1, 0], [0, 1]]

    def test_coker_1x1_p(self):
        assert coker_invariants_mod([[3]], 3, 3) == [1]

    def test_coker_1x1_all_valuations(self):
        for v in range(5):
            assert coker_invariants_mod([[2**v]], 2, 5) == ([v] if v else [])

    def test_coker_2x2_exhaustive_oracle(self):
        p, N = 2, 4
        A = [[p, 1], [0, p**2]]
        mine = coker_invariants_mod(A, p, N)
        mod = p**N
        span = set()
        for a, b in itertools.product(range(mod), repeat=2):
            span.add(((p * a + b) % mod, (p**2 * b) % mod))
        order = mod**2 // len(span)
        assert 2 ** sum(mine) == order
        # cyclic: some element has full order
        quot_orders = set()
        for x, y in itertools.product(range(mod), repeat=2):
            k = 1
            vx, vy = x % mod, y % mod
            while (vx, vy) not in span or k == 1:
                if (vx, vy) in span:
                    break
                k += 1
                vx, vy = (vx + x) % mod, (vy + y) % mod
                if k > order:
                    break
            quot_orders.add(k)
        assert max(quot_orders) == order  # single invariant factor
        assert mine == [3]

    def test_kernel_exhaustive_oracle(self):
        p, N = 2, 3
        A = [[2, 4], [0, 4]]
        gens = ker_basis_mod(A, p, N)
        mod = p**N
        brute = {(x, y) for x in range(mod) for y in range(mod)
                 if (2 * x + 4 * y) % mod == 0 and (4 * y) % mod == 0}
        spanned = {(0, 0)}
        for g in gens:
            spanned = {((a + k * g[0]) % mod, (b + k * g[1]) % mod)
                       for (a, b) in spanned for k in range(mod)}
        assert spanned == brute

    def test_solve_mod_precision(self):
        sol = solve_mod([[2]], [6], 2, 4)
        assert sol is not None
        x, prec = sol
        assert (2 * x[0] - 6) % 2**4 == 0 and prec == 3
        assert solve_mod([[2]], [1], 2, 4) is None

    def test_inv_mod(self):
        A = [[1, 2], [3, 5]]
        B = inv_mod(A, 3, 4)
        prod = [[sum(A[i][k] * B[k][j] for k in range(2)) % 81
                 for j in range(2)] for i in range(2)]
        assert prod == [[1, 0], [0, 1]]

    def test_subquotient(self):
        # span{(1,0),(0,2)} / span{(2,0),(0,4)} inside (Z/8)^2 = Z/2 + Z/2
        inv = subquotient_invariants([[1, 0], [0, 2]], [[2, 0], [0, 4]], 2, 2, 3)
        assert inv == [1, 1]


# -- exhaustive oracles over (Z/p^N)^n, p^N <= 9, shapes up to 3x3 --------

ORACLE_PRECS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]


def _vectors(n, mod):
    return itertools.product(range(mod), repeat=n)


def _span(gens, n, mod):
    out = {(0,) * n}
    for g in gens:
        out = {tuple((s + k * x) % mod for s, x in zip(v, g))
               for v in out for k in range(mod)}
    return out


def _apply(A, x, mod):
    return tuple(sum(a * y for a, y in zip(row, x)) % mod for row in A)


def _killed_counts(S, B, p, N):
    """|{x in S/B : p^j x = 0}| for j = 0..N, which fixes the structure."""
    mod = p**N
    return [sum(1 for x in S if tuple(p**j * y % mod for y in x) in B) // len(B)
            for j in range(N + 1)]


def _counts_of(exps, p, N):
    """The same counts for the sum of the Z/p^e, e in exps."""
    return [p ** sum(min(e, j) for e in exps) for j in range(N + 1)]


def _valuation_vec(x, p, N):
    return min((vp_int(y, p) for y in x if y), default=N)


def _random_matrix(rng, rows, cols, p, N):
    # entries u * p^k with k spread over 0..N, so that every valuation and
    # many rank deficiencies occur
    return [[rng.randrange(p**N) * p ** rng.randrange(N + 1) % p**N
             for _ in range(cols)] for _ in range(rows)]


def _oracle_cases(seed):
    rng = random.Random(seed)
    for p, N in ORACLE_PRECS:
        for rows, cols in itertools.product((1, 2, 3), repeat=2):
            for _ in range(10):
                yield p, N, _random_matrix(rng, rows, cols, p, N)


class TestExhaustiveOracles:
    def test_smith_mod_transforms(self):
        for p, N, A in _oracle_cases(1):
            mod = p**N
            exps, U, V = smith_mod(A, p, N)
            assert exps == sorted(exps) and all(0 <= e < N for e in exps)
            D = mat_mul_mod(mat_mul_mod(U, A, p, N), V, p, N)
            want = [[p ** exps[i] if i == j and i < len(exps) else 0
                     for j in range(len(V))] for i in range(len(U))]
            assert D == want, (p, N, A)
            for T in (U, V):  # invertible: the columns span everything
                assert len(_span([list(c) for c in zip(*T)], len(T), mod)) \
                    == mod ** len(T)

    def test_coker_invariants(self):
        for p, N, A in _oracle_cases(2):
            mod = p**N
            full = set(_vectors(len(A), mod))
            image = _span([list(c) for c in zip(*A)], len(A), mod)
            inv = coker_invariants_mod(A, p, N)
            assert inv == sorted(inv) and all(0 < e <= N for e in inv)
            assert _counts_of(inv, p, N) == _killed_counts(full, image, p, N), \
                (p, N, A)

    def test_ker_basis_spans_kernel(self):
        for p, N, A in _oracle_cases(3):
            mod = p**N
            cols = len(A[0])
            brute = {x for x in _vectors(cols, mod)
                     if not any(_apply(A, x, mod))}
            assert _span(ker_basis_mod(A, p, N), cols, mod) == brute, (p, N, A)

    def test_subquotient_structure(self):
        rng = random.Random(4)
        for p, N, A in _oracle_cases(4):
            mod = p**N
            n = len(A)
            kgens = [list(c) for c in zip(*A)]
            S = _span(kgens, n, mod)
            pool = sorted(S)
            bgens = [list(rng.choice(pool)) for _ in range(rng.randrange(3))]
            B = _span(bgens, n, mod)
            inv = subquotient_invariants(kgens, bgens, n, p, N)
            assert inv == sorted(inv)
            assert _counts_of(inv, p, N) == _killed_counts(S, B, p, N), \
                (p, N, kgens, bgens)

    @pytest.mark.parametrize("K,B,p,N,want", [
        # span{(4, 3)} in (Z/8)^2 is cyclic of order 8
        ([[4, 3]], [], 2, 3, [3]),
        # span{(1, 1)} / span{(1, 1)} over Z/2 is zero
        ([[1, 1], [0, 0]], [[0, 0], [1, 1]], 2, 1, []),
    ])
    def test_subquotient_named_cases(self, K, B, p, N, want):
        assert subquotient_invariants(K, B, 2, p, N) == want

    def test_solve_mod_against_solution_sets(self):
        rng = random.Random(5)
        for p, N, A in _oracle_cases(6):
            mod = p**N
            cols = len(A[0])
            b = [rng.randrange(mod) for _ in A]
            if rng.randrange(2):  # half the right-hand sides are consistent
                b = list(_apply(A, [rng.randrange(mod) for _ in range(cols)], mod))
            sols = [x for x in _vectors(cols, mod) if list(_apply(A, x, mod)) == b]
            got = solve_mod(A, b, p, N)
            if not sols:
                assert got is None, (p, N, A, b)
                continue
            x, prec = got
            assert tuple(x) in sols
            # the digits on which every solution agrees, exactly
            agree = min(_valuation_vec([(s - t) % mod for s, t in zip(sols[0], y)], p, N)
                        for y in sols)
            assert prec == agree, (p, N, A, b)

    def test_solve_mod_rank_deficient_has_no_digits(self):
        # [1, 1] solves the system as well as [1, 0]
        x, prec = solve_mod([[1, 0], [0, 0]], [1, 0], 3, 4)
        assert x[0] == 1 and prec == 0

    def test_inv_mod_against_units(self):
        for p, N, A in _oracle_cases(7):
            if len(A) != len(A[0]):
                continue
            n = len(A)
            mod = p**N
            invertible = len(_span([list(c) for c in zip(*A)], n, mod)) == mod**n
            if not invertible:
                with pytest.raises(ZeroDivisionError):
                    inv_mod(A, p, N)
                continue
            assert mat_mul_mod(A, inv_mod(A, p, N), p, N) == mat_identity(n)


class TestQuotientRing:
    def test_q_power_reduction(self):
        R = QuotientRing(3, 8, 0, 1)
        assert R.q_power(3).coeffs == [1, 0]  # q^3 = 1 mod 1+q+q^2

    def test_d_is_zero(self):
        R = QuotientRing(3, 8, 0, 1)
        assert R.from_q_poly({0: 1, 1: 1, 2: 1}).is_zero()

    def test_division_and_units(self):
        R = QuotientRing(3, 8, 0, 2)
        x = R.q_power(1) + R.const(3)
        y = x.unit_inverse()
        assert x * y == R.one()

    def test_divide_exact_by_integer(self):
        R = QuotientRing(2, 8, 1, 1)
        beta = R.q_power(2) - R.one()
        tau2 = beta.divide_exact(R.const(2))
        assert tau2 * 2 == beta
        assert tau2.prec == 7

    def test_divide_exact_without_digits_raises(self):
        # over Z/3 multiplication by 3 is zero, so every y solves 3 y = 0
        R = QuotientRing(3, 1, 0, 1)
        with pytest.raises(PrecisionError):
            R.const(0).divide_exact(R.const(3))

    def test_mult_matrix_columns_are_products(self):
        rng = random.Random(2)
        for p, N, alpha, n in [(2, 8, 1, 2), (3, 6, 1, 1), (3, 4, 1, 3), (5, 7, 0, 2)]:
            R = QuotientRing(p, N, alpha, n)
            x = R.elem([rng.randrange(p**N) for _ in range(R.deg)])
            mat = R.mult_matrix(x)
            for i in range(R.deg):
                assert [row[i] for row in mat] == (x * R.q_power(i)).coeffs

    def test_from_series_precision(self):
        R = QuotientRing(3, 8, 0, 1)
        f = TruncSeries.d_series(3, 8, 24, 0)
        img = R.from_series(f)
        assert img.is_zero()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 3**6 - 1), min_size=1, max_size=8),
       st.lists(st.integers(0, 3**6 - 1), min_size=1, max_size=8))
def test_series_ring_laws(a, b):
    p, N, M = 3, 6, 10
    f, g = TruncSeries(p, N, M, a), TruncSeries(p, N, M, b)
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) * f == f * f + g * f


# ---------------------------------------------------------------------------
# the packed product kernel against the schoolbook reference
# ---------------------------------------------------------------------------


def schoolbook_mul(a, b, mod, n=None):
    """Reference: coefficients 0..n-1 of a*b mod `mod`, one product at a time."""
    if n is None:
        n = len(a) + len(b) - 1 if a and b else 0
    out = [0] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[:n - i]):
                if y:
                    out[i + j] = (out[i + j] + x * y) % mod
    return out


def recurrence_inverse(c, mod, M):
    """Reference: the inverse of a unit series by the coefficient recurrence."""
    inv0 = pow(c[0], -1, mod)
    out = [inv0] + [0] * (M - 1)
    for n in range(1, M):
        s = sum(c[k] * out[n - k] for k in range(1, min(n + 1, len(c))))
        out[n] = (-inv0 * s) % mod
    return out


class TestPolyMulKernel:
    @pytest.mark.parametrize("p,N,M", [(3, 6, 8), (3, 8, 48), (5, 11, 32),
                                       (5, 8, 1), (5, 8, 64), (5, 8, 400),
                                       (5, 8, 1720)])
    def test_workload_sizes(self, p, N, M):
        rng = random.Random(M)
        mod = p**N
        a = [rng.randrange(mod) for _ in range(M)]
        b = [rng.randrange(mod) for _ in range(M)]
        assert _poly_mul(a, b, mod) == schoolbook_mul(a, b, mod)
        assert _poly_mul(a, b, mod, M) == schoolbook_mul(a, b, mod, M)
        f, g = TruncSeries(p, N, M, a), TruncSeries(p, N, M, b)
        assert (f * g).c == schoolbook_mul(a, b, mod, M)

    def test_empty_and_unbalanced(self):
        mod = 5**8
        assert _poly_mul([], [1, 2], mod) == []
        assert _poly_mul([3], [], mod, 4) == [0, 0, 0, 0]
        assert _poly_mul([2], [3], mod) == [6]
        assert _poly_mul([1, 2], [3, 4], mod, 0) == []
        assert _poly_mul([1, 2], [3, 4], mod, 6) == [3, 10, 8, 0, 0, 0]
        rng = random.Random(4)
        a = [rng.randrange(mod) for _ in range(4)]
        b = [rng.randrange(mod) for _ in range(1700)]
        assert _poly_mul(a, b, mod) == schoolbook_mul(a, b, mod)
        assert _poly_mul(b, a, mod, 1700) == schoolbook_mul(b, a, mod, 1700)

    def test_largest_residues_do_not_carry(self):
        # all entries mod - 1 fill every slot to its bound; the widths
        # straddle the 64-bit slot and the byte slots
        for mod in (3**6, 2**31, 2**32, 3**40, 5**30):
            for la, lb in [(1, 1), (2, 2), (3, 4), (4, 1700), (40, 40)]:
                a, b = [mod - 1] * la, [mod - 1] * lb
                assert _poly_mul(a, b, mod) == schoolbook_mul(a, b, mod)

    def test_negative_and_unreduced_entries(self):
        rng = random.Random(7)
        mod = 3**8
        for _ in range(50):
            a = [rng.randrange(-mod**3, mod**3) for _ in range(rng.randrange(1, 30))]
            b = [rng.randrange(-mod**3, mod**3) for _ in range(rng.randrange(1, 30))]
            assert _poly_mul(a, b, mod) == schoolbook_mul(a, b, mod)
        assert _poly_mul([-1, 1], [-1, 1], mod) == [1, mod - 2, 1]

    def test_mixed_precision_operands(self):
        # the product lives at min(N, N'), but each operand is reduced only
        # mod its own p^N: the kernel must reduce before packing
        rng = random.Random(40)
        M = 48
        for _ in range(20):
            a = [rng.randrange(3**40) for _ in range(M)]
            b = [rng.randrange(3**2) for _ in range(M)]
            f, g = TruncSeries(3, 40, M, a), TruncSeries(3, 2, M, b)
            want = schoolbook_mul(a, b, 3**2, M)
            assert (f * g).c == want and (g * f).c == want

    @pytest.mark.parametrize("p,N", [(2, 4), (3, 8), (5, 11), (3, 40)])
    def test_random_entries_across_slot_widths(self, p, N):
        rng = random.Random(N)
        mod = p**N
        for M in (1, 2, 7, 33):
            a = [rng.randrange(mod) for _ in range(M)]
            b = [rng.randrange(mod) for _ in range(M + 3)]
            assert _poly_mul(a, b, mod) == schoolbook_mul(a, b, mod)

    @pytest.mark.parametrize("p,N,M", [(2, 4, 24), (3, 6, 8), (3, 8, 48),
                                       (5, 8, 1), (5, 8, 2), (5, 8, 3),
                                       (5, 11, 200), (3, 40, 17)])
    def test_newton_inverse_matches_recurrence(self, p, N, M):
        rng = random.Random(M)
        mod = p**N
        c = [rng.randrange(mod) for _ in range(M)]
        c[0] = c[0] - c[0] % p + 1
        f = TruncSeries(p, N, M, c)
        assert f.unit_inverse().c == recurrence_inverse(f.c, mod, M)
        assert f * f.unit_inverse() == TruncSeries.one(p, N, M)


# ---------------------------------------------------------------------------
# the sparse-row matrix kernel against the triple loop
# ---------------------------------------------------------------------------


def loop_mat_mul(A, B, mod):
    """Reference: A*B mod `mod` by the triple loop, reducing every sum."""
    rows, inner, cols = len(A), len(B), len(B[0]) if B else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        Ai = A[i]
        for k in range(inner):
            a = Ai[k] % mod
            if a:
                Bk = B[k]
                row = out[i]
                for j in range(cols):
                    row[j] = (row[j] + a * Bk[j]) % mod
    return out


def _sparse_matrix(rng, rows, cols, mod, density, lo=0, hi=None):
    hi = mod if hi is None else hi
    return [[rng.randrange(lo, hi) if rng.random() < density else 0
             for _ in range(cols)] for _ in range(rows)]


class TestMatMulKernel:
    SHAPES = [(1, 1, 1), (3, 5, 2), (12, 12, 12), (36, 36, 36),
              (24, 72, 24), (72, 24, 1), (1, 24, 72)]

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("N", [1, 4, 8])
    def test_random_against_loop(self, p, N):
        rng = random.Random(100 * p + N)
        mod = p**N
        for rows, inner, cols in self.SHAPES:
            for density in (0.0, 0.1, 0.5, 1.0):
                A = _sparse_matrix(rng, rows, inner, mod, density)
                B = _sparse_matrix(rng, inner, cols, mod, density)
                got = _mat_mul(A, B, mod)
                assert got == loop_mat_mul(A, B, mod), (rows, inner, cols, density)
                assert mat_mul_mod(A, B, p, N) == got

    def test_empty_operands(self):
        mod = 3**8
        assert _mat_mul([], [], mod) == loop_mat_mul([], [], mod) == []
        assert _mat_mul([], [[1, 2]], mod) == []
        assert _mat_mul([[], []], [], mod) == loop_mat_mul([[], []], [], mod) == [[], []]
        zero = [[0] * 4 for _ in range(3)]
        assert _mat_mul(zero, [[5] * 2 for _ in range(4)], mod) == [[0, 0]] * 3

    def test_negative_and_unreduced_entries(self):
        rng = random.Random(8)
        for p, N in [(2, 4), (3, 8), (5, 1)]:
            mod = p**N
            for rows, inner, cols in self.SHAPES:
                for density in (0.1, 1.0):
                    A = _sparse_matrix(rng, rows, inner, mod, density,
                                       -mod**3, mod**3)
                    B = _sparse_matrix(rng, inner, cols, mod, density,
                                       -mod**3, mod**3)
                    assert _mat_mul(A, B, mod) == loop_mat_mul(A, B, mod)
            # nonzero multiples of mod are zero residues
            A = [[mod, -mod], [2 * mod, 1]]
            B = [[1, -mod], [mod - 1, 3 * mod]]
            assert _mat_mul(A, B, mod) == loop_mat_mul(A, B, mod) == [[0, 0], [mod - 1, 0]]

    def test_mat_eq_mod(self):
        A = [[1, 2], [3, 4]]
        assert mat_eq_mod(A, [row[:] for row in A], 3, 2)
        assert mat_eq_mod(A, [[10, 11], [3, -5]], 3, 2)
        assert not mat_eq_mod(A, [[1, 2], [3, 5]], 3, 2)


class TestQuotElemLinearOps:
    """Sums, differences, negation and integer multiples skip the
    polynomial reduction; they must equal the general constructor."""

    @pytest.mark.parametrize("p,N,alpha,n", [(2, 8, 1, 2), (3, 6, 1, 1),
                                             (3, 4, 0, 3), (5, 7, 0, 2)])
    def test_match_general_constructor(self, p, N, alpha, n):
        rng = random.Random(p * N + n)
        R = QuotientRing(p, N, alpha, n)
        mod = p**N
        for _ in range(30):
            x = R.elem([rng.randrange(mod) for _ in range(R.deg)], rng.randrange(1, N + 1))
            y = R.elem([rng.randrange(mod) for _ in range(R.deg)], rng.randrange(1, N + 1))
            k = rng.randrange(-mod**2, mod**2)
            pr = min(x.prec, y.prec)
            cases = [
                (x + y, [a + b for a, b in zip(x.coeffs, y.coeffs)], pr),
                (x - y, [a - b for a, b in zip(x.coeffs, y.coeffs)], pr),
                (-x, [-a for a in x.coeffs], x.prec),
                (x * k, [a * k for a in x.coeffs], x.prec),
                (k * x, [a * k for a in x.coeffs], x.prec),
                (x + k, [x.coeffs[0] + k] + x.coeffs[1:], x.prec),
                (x - k, [x.coeffs[0] - k] + x.coeffs[1:], x.prec),
            ]
            for got, raw, prec in cases:
                want = QuotElem(R, raw, prec)
                assert (got.coeffs, got.prec) == (want.coeffs, want.prec)
                assert len(got.coeffs) == R.deg
