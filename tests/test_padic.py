"""Capped-precision arithmetic, certified division, Z/p^N linear algebra."""

import ast
import itertools
import math
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qprism.padic import (
    DivisionCertificateError,
    ModMat,
    PadicInt,
    PrecisionError,
    QuotientRing,
    QuotElem,
    TruncSeries,
    _mat_mul,
    _barrett,
    _pack,
    _poly_mul,
    _row_slots,
    _slot_bytes,
    coker_invariants_mod,
    d_poly_t,
    distinguished_divmod,
    divide_by_q_power_minus_one,
    howell_mod,
    inv_mod,
    ker_basis_mod,
    mat_identity,
    mat_mul_mod,
    partial_arith,
    smith_mod,
    solve_mod,
    subquotient_invariants,
    teichmuller,
    vp_factorial,
    vp_int,
)


def padic_vp(x: PadicInt):
    """Valuation of a p-adic integer, or None meaning >= its precision."""
    if x.residue % x.p**x.prec == 0:
        return None
    return vp_int(x.residue, x.p)


class TestPadicInt:
    def test_vp(self):
        assert padic_vp(PadicInt(3, 8, 1)) == 0
        assert padic_vp(PadicInt(3, 8, 3)) == 1  # binom(3, 2) = 3
        assert padic_vp(PadicInt(2, 8, 6)) == 1  # binom(4, 2) = 6
        assert padic_vp(PadicInt(3, 4, 81)) is None

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


class TestPadicIntNotHashable:
    """``==`` compares at the smaller precision, so PadicInt has no hash;
    the caches keyed by an exponent key on (prec, residue)."""

    def test_equal_values_of_two_precisions(self):
        a, b = PadicInt(3, 8, 1), PadicInt(3, 10, 1)
        assert a == b
        for x in (a, b):
            with pytest.raises(TypeError):
                hash(x)
        with pytest.raises(TypeError):
            {a, b}

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_padic_exponents_give_the_integer_series(self, p):
        # an exponent known to at least N + v_p((M-1)!) digits gives the
        # series of any integer it is congruent to, at every precision
        # and through the per-exponent substitution tables
        rng = random.Random(p)
        N, M = 6, 16
        need = N + vp_factorial(p, M - 1)
        f = TruncSeries(p, N, M, [rng.randrange(p**N) for _ in range(M)])
        for r in (1, 2, p + 1, -1, 1 - p, p):
            want_q, want_f = TruncSeries.q_power(p, N, M, r), f.gamma_u(r)
            for prec in (need, need + 1, need + 5):
                k = PadicInt(p, prec, r)
                assert _same_series(TruncSeries.q_power(p, N, M, k), want_q)
                assert _same_series(f.gamma_u(k), want_f)
        assert _same_series(f.phi(), f.gamma_u(PadicInt(p, need, p)))


def reference_teichmuller(p, e, prec):
    """The contracting Frobenius iteration x -> x^p, prec + 1 times from
    e: the reference for the Hensel lift of ``teichmuller``."""
    mod = p**prec
    x = e % mod
    for _ in range(prec + 1):
        x = pow(x, p, mod)
    return x


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
        for p in (2, 3, 5, 7):
            for e in (0, p, -p, 3 * p):
                with pytest.raises(ValueError):
                    teichmuller(p, e, 4)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize("prec", [1, 2, 40, 438])
    def test_hensel_lift_equals_frobenius_loop(self, p, prec):
        for e in [*range(1, p), p + 2, -1]:
            if e % p:
                got = teichmuller(p, e, prec)
                assert (got.prec, got.residue) == (prec, reference_teichmuller(p, e, prec))


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


def reference_q_power_padic(p, N, M, k):
    """The binomial iteration C(k, n+1) = C(k, n)(k - n)/(n + 1) on
    residues mod p^k.prec, with one modular inverse per step: the
    reference the valuation-and-unit form must equal."""
    need = N + vp_factorial(p, max(M - 1, 1))
    if k.prec < need:
        raise PrecisionError("exponent precision below the digit loss")
    mod = p**k.prec
    cs, c, r = [1], 1 % mod, k.residue % mod
    for n in range(M - 1):
        c = c * ((r - n) % mod) % mod
        dv = n + 1
        v = vp_int(dv, p) or 0
        if v:
            assert c % p**v == 0
            c //= p**v
            dv //= p**v
        c = c * pow(dv, -1, mod) % mod
        cs.append(c)
    return TruncSeries(p, N, M, cs)


def _binomial_exponents(p, prec, M, rng):
    """Residues in [0, M+2), negative residues, p^j * u, residues
    congruent to a small i to high precision, and random values."""
    mod = p**prec
    out = list(range(M + 2)) + [-x for x in range(1, 6)]
    for j in range(1, prec + 1):
        for u in (1, p - 1, -1):
            out.append(p**j * u)
        out.append(rng.randrange(M + 2) + p**j * rng.randrange(1, mod))
    out += [rng.randrange(mod) for _ in range(5)]
    return out


class TestBinomialSeries:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize("N", [1, 2, 4, 8])
    def test_padic_exponent_matches_reference(self, p, N):
        rng = random.Random(100 * p + N)
        for M in (1, 2, 5, 17, 40):
            need = N + vp_factorial(p, max(M - 1, 1))
            for prec in (need, need + 1, need + 3):
                for x in _binomial_exponents(p, prec, M, rng):
                    k = PadicInt(p, prec, x)
                    got = TruncSeries.q_power(p, N, M, k)
                    want = reference_q_power_padic(p, N, M, k)
                    assert (got.N, got.M) == (N, M)
                    assert got.c == want.c, (M, prec, x)

    def test_descent_size_matches_reference(self):
        # the p = 5 digit chain's size, and the table of unit-part
        # inverses shared by calls at one (p, N, M)
        p, N, M = 5, 8, 1720
        prec = N + vp_factorial(p, M - 1) + 2
        rng = random.Random(5)
        lifts = [teichmuller(p, u, prec) for u in range(1, p)]
        for k in lifts + [x * 6 for x in lifts] + [
                PadicInt(p, prec, rng.randrange(p**prec)) for _ in range(2)]:
            got = TruncSeries.q_power(p, N, M, k)
            assert _same_series(got, reference_q_power_padic(p, N, M, k))

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_precision_below_need_raises(self, p):
        for N in (1, 2, 4, 8):
            for M in (1, 2, 5, 17, 40):
                need = N + vp_factorial(p, max(M - 1, 1))
                for x in (0, 1, -1, p, 3 * p + 1):
                    with pytest.raises(PrecisionError):
                        TruncSeries.q_power(p, N, M, PadicInt(p, need - 1, x))

    def test_exponent_equal_to_index_gives_a_polynomial(self):
        # k = 3 to full precision: C(3, n) = 0 for n > 3, exactly
        for prec in (10, 13):
            f = TruncSeries.q_power(3, 6, 10, PadicInt(3, prec, 3))
            assert f.c == [1, 3, 3, 1] + [0] * 6

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_from_q_poly_matches_term_sum(self, p):
        rng = random.Random(p)
        for N, M in ((1, 1), (3, 7), (8, 40)):
            for _ in range(20):
                big = p**rng.randrange(20, 60)
                exps = ([rng.randrange(-30, 30) for _ in range(4)]
                        + [big, -big, big + rng.randrange(M), -rng.randrange(1, 2**80)])
                qc = {e: rng.randrange(-p**(N + 2), p**(N + 2)) for e in exps}
                qc[rng.randrange(-5, 5)] = 0
                want = TruncSeries.zero(p, N, M)
                for e, c in qc.items():
                    want = want + reference_q_power_int(p, N, M, e) * c
                got = TruncSeries.from_q_poly(p, N, M, qc)
                assert (got.N, got.M, got.c) == (N, M, want.c)
            # q_power and q_analogue are from_q_poly calls; base 0 repeats
            # the exponent 0, which counts once per term
            for k in (-M - 3, -2, -1, 0, 1, M - 1, M, M + 5, 3 * M):
                assert TruncSeries.q_power(p, N, M, k).c == reference_q_power_int(p, N, M, k).c
            for base in (0, 1, p, p * p):
                for n in (0, 1, 2, p + 1, M + 2):
                    want = TruncSeries.zero(p, N, M)
                    for i in range(n):
                        want = want + reference_q_power_int(p, N, M, base * i)
                    assert TruncSeries.q_analogue(p, N, M, n, base).c == want.c


def reference_q_power_int(p, N, M, k):
    """(1+t)^k by math.comb, with C(k, n) = (-1)^n C(n - k - 1, n) for
    k < 0: the reference for ``TruncSeries.from_q_poly``."""
    if k >= 0:
        return TruncSeries(p, N, M, [math.comb(k, n) for n in range(min(M, k + 1))])
    return TruncSeries(p, N, M, [(-1)**n * math.comb(n - k - 1, n) for n in range(M)])


def reference_weierstrass_divmod(f, P):
    """The division loop that applies the divisor P = t^r + pC in up to
    N + 1 rounds g <- -pC g[r:], adding each round's low and high parts
    into R and Q entry by entry and reducing every entry every round: the
    reference for TruncSeries.weierstrass_divmod.  The remainder is
    certified mod p^min(N, floor(M/r)), as a tail term t^j reduces to a
    multiple of p^floor(j/r)."""
    p, r = f.p, len(P) - 1
    if f.M <= r:
        raise PrecisionError("t-precision does not reach the divisor degree")
    minus_pC = [-x for x in P[:r]]
    mod = p**f.N
    g, Mg = list(f.c), f.M
    Q, R = [0] * (f.M - r), [0] * r
    k = 0
    while Mg >= r and any(x % mod for x in g):
        low, high = g[:r], g[r:Mg]
        for i in range(r):
            R[i] = (R[i] + low[i]) % mod
        for i, x in enumerate(high):
            if i < len(Q):
                Q[i] = (Q[i] + x) % mod
        if k >= f.N:
            break
        g = _poly_mul(minus_pC, high, mod, Mg - r)
        Mg = Mg - r
        k += 1
    cert = min(f.N, f.M // r)
    N_q = min(f.N, f.M // r - 1)
    if N_q < 1:
        raise PrecisionError("quotient would carry no certified digits")
    M_q = f.M - (N_q + 1) * r + 1
    Qs = TruncSeries(p, N_q, max(M_q, 1), Q[: max(M_q, 1)])
    return Qs, [x % p**cert for x in R], cert


class TestWeierstrassSlices:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_matches_reference(self, p):
        rng = random.Random(p)
        divisors = [d_poly_t(p, 0), d_poly_t(p, 1),
                    [p * rng.randrange(-9, 9) for _ in range(3)] + [1]]
        outcomes = set()
        for P in divisors:
            r = len(P) - 1
            for N in (1, 2, 5, 8):
                # every M from one t-digit past the degree to (N+3)r, so
                # some inputs run out of t-digits before p-digits, and the
                # size of the descent digit chain
                for M in [*range(r + 1, (N + 3) * r + 1), 1720]:
                    mod = p**N
                    inputs = [TruncSeries(p, N, M, [rng.randrange(mod) for _ in range(M)]),
                              TruncSeries.zero(p, N, M)]
                    quot = TruncSeries(p, N, M, [rng.randrange(mod) for _ in range(M)])
                    inputs.append(quot * TruncSeries(p, N, M, P))
                    for f in inputs:
                        try:
                            want = reference_weierstrass_divmod(f, P)
                        except PrecisionError:
                            with pytest.raises(PrecisionError):
                                f.weierstrass_divmod(P)
                            outcomes.add("raises")
                            continue
                        Q, R, cert = f.weierstrass_divmod(P)
                        Qw, Rw, certw = want
                        assert (Q.N, Q.M, Q.c, R, cert) == (Qw.N, Qw.M, Qw.c, Rw, certw)
                        outcomes.add("short" if cert < N else "full")
        assert outcomes == {"raises", "short", "full"}

    def test_division_by_a_power_of_d_matches_reference(self):
        # the divisor d^40 (degree 160) of the p = 5 descent digit chain,
        # whose remainder is one product
        p, N, M = 5, 8, 1720
        P = [1]
        for _ in range(40):
            P = _poly_mul(P, d_poly_t(p, 0), p**N)
        rng = random.Random(40)
        for m in (M, 321):
            f = TruncSeries(p, N, m, [rng.randrange(p**N) for _ in range(m)])
            Q, R, cert = f.weierstrass_divmod(P)
            Qw, Rw, certw = reference_weierstrass_divmod(f, P)
            assert (Q.N, Q.M, Q.c, R, cert) == (Qw.N, Qw.M, Qw.c, Rw, certw)

    def test_digit_chain_inputs_match_reference(self):
        # the invariant series the p = 3 descent chain divides
        p, N, M = 3, 6, 120
        lift = teichmuller(p, 2, N + vp_factorial(p, M) + 2)
        f = (TruncSeries.one(p, N, M) + TruncSeries.q_power(p, N, M, 1)
             + TruncSeries.q_power(p, N, M, lift))
        P = d_poly_t(p, 0)
        for _ in range(4):
            Q, R, cert = f.weierstrass_divmod(P)
            Qw, Rw, certw = reference_weierstrass_divmod(f, P)
            assert (Q.N, Q.M, Q.c, R, cert) == (Qw.N, Qw.M, Qw.c, Rw, certw)
            f = Q


class TestDistinguishedDivmod:
    """On exact polynomials of any length, Q*P + R = a mod p^N."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_quotient_and_remainder_rebuild_the_dividend(self, p):
        rng = random.Random(p)
        d = d_poly_t(p, 0)
        for P in (d, _poly_mul(d, _poly_mul(d, d, p**9), p**9), d_poly_t(p, 1)):
            r = len(P) - 1
            for N in (1, 4, 9):
                mod = p**N
                for length in (0, 1, r - 1, r, r + 1, 2 * r, 5 * r + 3, r * N + 7):
                    a = [rng.randrange(-mod, 2 * mod) for _ in range(length)]
                    Q, R = distinguished_divmod(p, N, a, P)
                    assert len(Q) == max(length - r, 0) and len(R) == r
                    back = _poly_mul(Q, P, mod) if Q else []
                    back = [(x + y) % mod for x, y in itertools.zip_longest(
                        back, R, fillvalue=0)]
                    want = [x % mod for x in a] + [0] * (len(back) - length)
                    assert back == want[:len(back)] and not any(want[len(back):])
                    assert distinguished_divmod(p, N, a, P, 0) == ([], R)


class TestWeierstrassCertificate:
    """The remainder of a truncation agrees with that of a long extension
    to the digits it claims, and no further in general."""

    def test_truncations_agree_with_extension(self):
        rng = random.Random(17)
        checked = short = one_more_wrong = 0
        for p in (2, 3, 5, 7):
            for alpha in (0, 1):
                P = d_poly_t(p, alpha)
                r = len(P) - 1
                for N in (2, 5, 8):
                    L = (N + 4) * r + 10
                    for _ in range(2):
                        F = [rng.randrange(p**N) for _ in range(L)]
                        _, R_long, cert_long = TruncSeries(p, N, L, F).weierstrass_divmod(P)
                        assert cert_long == N
                        for M in range(2 * r, (N + 3) * r + 1):
                            _, R, cert = TruncSeries(p, N, M, F[:M]).weierstrass_divmod(P)
                            assert cert == min(N, M // r)
                            assert all((x - y) % p**cert == 0 for x, y in zip(R, R_long))
                            checked += 1
                            if cert < N:
                                short += 1
                                one_more_wrong += any(
                                    (x - y) % p**(cert + 1) for x, y in zip(R, R_long))
        assert checked > 3000
        # claiming one more digit than floor(M/r) would nearly always be
        # wrong
        assert one_more_wrong >= 0.9 * short

    def test_divisible_length_does_not_overclaim(self):
        # p = 3, alpha = 0, N = 8, M = 4: the last tail is empty, and the
        # remainder carries floor(4/2) = 2 digits, not 8
        rng = random.Random(3)
        P = d_poly_t(3, 0)
        wrong_at_8 = 0
        for _ in range(50):
            F = [rng.randrange(3**8) for _ in range(400)]
            _, R, cert = TruncSeries(3, 8, 4, F[:4]).weierstrass_divmod(P)
            _, R_long, _ = TruncSeries(3, 8, 400, F).weierstrass_divmod(P)
            assert cert == 2
            assert all((x - y) % 3**2 == 0 for x, y in zip(R, R_long))
            wrong_at_8 += any((x - y) % 3**8 for x, y in zip(R, R_long))
        assert wrong_at_8 > 40
        _, R, cert = TruncSeries.zero(3, 8, 4).weierstrass_divmod(P)
        assert (R, cert) == ([0, 0], 2)


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

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_phi_and_gamma_u_equal_horner(self, p):
        rng = random.Random(p)
        for N, M in [(1, 1), (4, 9), (8, 32), (8, 48)]:
            n_t = N + vp_factorial(p, M) + 2
            exps = ([1, 2, p + 1, -1, 1 - p]
                    + [teichmuller(p, u, n_t) for u in range(1, p)]
                    + [PadicInt(p, n_t, rng.randrange(p**n_t)) for _ in range(2)])
            f = TruncSeries(p, N, M, [rng.randrange(p**N) for _ in range(M)])
            # the table is the one of the input's own (N, M)
            for g in (f, f.reduce_prec(N=max(N - 3, 1), M=max(M // 2, 1))):
                image = TruncSeries.q_power(p, g.N, g.M, p)
                assert _same_series(g.phi(), g.subst(image))
                for k in exps:
                    image = TruncSeries.q_power(p, g.N, g.M, k)
                    assert _same_series(g.gamma_u(k), g.subst(image))

    def test_derivative_needs_a_t_digit(self):
        f = TruncSeries(3, 6, 4, [1, 2, 3, 4])
        assert f.derivative_q().c == [2, 6, 12] and f.derivative_q().M == 3
        with pytest.raises(PrecisionError):
            f.reduce_prec(M=1).derivative_q()

    def test_gamma_u_exponent_below_need_raises(self):
        p, N, M = 3, 6, 20
        need = N + vp_factorial(p, M - 1)
        f = TruncSeries(p, N, M, list(range(M)))
        with pytest.raises(PrecisionError):
            f.gamma_u(PadicInt(p, need - 1, 2))
        assert _same_series(f.gamma_u(PadicInt(p, need, 2)), f.gamma_u(2))

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

    def test_divide_exact_recovers_the_factor(self):
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
            D = mat_mul_mod(mat_mul_mod(U, A, mod), V, mod)
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
            assert mat_mul_mod(A, inv_mod(A, p, N), mod) == mat_identity(n)


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

    @staticmethod
    def _endo_columns(R, k):
        cols = [R.q_power(k * i).coeffs for i in range(R.deg)]
        return [[cols[j][i] for j in range(R.deg)] for i in range(R.deg)]

    @staticmethod
    def _partial_columns(R):
        cols = []
        for i in range(R.deg):
            if i == 0:
                cols.append([0] * R.deg)
                continue
            img = R.zero()
            for j in range(R.p * i):
                img = img + R.q_power(j * R.p**R.alpha + i - 1)
            cols.append(img.coeffs)
        return [[cols[j][i] for j in range(R.deg)] for i in range(R.deg)]

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("alpha", [0, 1])
    @pytest.mark.parametrize("n", [1, 2])
    def test_ring_tables_match_column_formulas(self, p, alpha, n):
        R = QuotientRing(p, 4, alpha, n)
        for k in (2, p ** (alpha + 1) + 1):
            assert R.endo_matrix(k) == tuple(map(tuple, self._endo_columns(R, k)))
        assert R.partial_matrix() == tuple(map(tuple, self._partial_columns(R)))

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("alpha", [0, 1])
    def test_gamma0_is_identity_over_A_mod_d(self, p, alpha):
        # q^(p^(alpha+1)) = 1 mod d, so gamma_0 fixes A/d; the flattened
        # partial skips its product there
        for N in (1, 4):
            R = QuotientRing(p, N, alpha, 1)
            assert R.endo_matrix(p ** (alpha + 1) + 1) == tuple(
                map(tuple, mat_identity(R.deg)))
        R2 = QuotientRing(p, 4, alpha, 2)
        assert R2.endo_matrix(p ** (alpha + 1) + 1) != tuple(
            map(tuple, mat_identity(R2.deg)))

    def test_ring_tables_shared_and_immutable(self):
        R, S = QuotientRing(3, 6, 1, 1), QuotientRing(3, 6, 1, 1)
        assert R.endo_matrix(10) is S.endo_matrix(10)
        assert R.partial_matrix() is S.partial_matrix()
        assert R.endo_matrix(10) is not QuotientRing(3, 5, 1, 1).endo_matrix(10)
        for table in (R.endo_matrix(10), R.partial_matrix()):
            assert isinstance(table, tuple)
            assert all(isinstance(row, tuple) for row in table)

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

    def test_series_product_owns_reduced_coefficients(self):
        # the product wraps the kernel's list as is: it must be exactly M
        # residues and share no list with an operand
        rng = random.Random(41)
        for p, N, M in [(3, 6, 1), (3, 8, 48), (2, 4, 5), (5, 3, 9)]:
            mod = p**N
            f = TruncSeries(p, N, M, [rng.randrange(-mod, 2 * mod) for _ in range(M)])
            zero, one = TruncSeries.zero(p, N, M), TruncSeries.one(p, N, M)
            for a, b in [(f, f), (f, one), (one, f), (f, zero), (zero, zero)]:
                before = (list(a.c), list(b.c))
                prod = a * b
                assert prod.c is not a.c and prod.c is not b.c
                assert prod.c == TruncSeries(p, N, M, schoolbook_mul(a.c, b.c, mod, M)).c
                assert len(prod.c) == M and all(0 <= x < mod for x in prod.c)
                prod.c[0] += 1
                assert (a.c, b.c) == before

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
# the packed-row matrix kernel against the triple loop
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


class TestPackedOperands:
    """A series keeps its packing for the last (N, M) it was multiplied
    at; a product at a smaller joined N or M must repack it."""

    @pytest.mark.parametrize("p,N,M", [(3, 8, 48), (3, 6, 8), (2, 4, 20), (5, 11, 30)])
    def test_smaller_joined_precision_after_own(self, p, N, M):
        rng = random.Random(p * N * M)
        mod = p**N
        f = TruncSeries(p, N, M, [rng.randrange(mod) for _ in range(M)])
        g = TruncSeries(p, N, M, [rng.randrange(mod) for _ in range(M)])
        assert (f * g).c == _poly_mul(f.c, g.c, mod, M)
        for N2, M2 in [(N - 1, M), (N, M - 3), (N - 2, M - 1), (N, M), (1, 1)]:
            h = g.reduce_prec(N=N2, M=M2)
            for x, y in ((f, h), (h, f), (f, f)):
                prod = x * y
                assert (prod.N, prod.M) == (min(x.N, y.N), min(x.M, y.M))
                assert prod.c == _poly_mul(x.c, y.c, p**prod.N, prod.M)


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
                assert mat_mul_mod(A, B, mod) == got

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

    # one modulus per slot path of the Kronecker kernels (``_slot_bytes``:
    # 4-byte, 8-byte and wide slots of 11 and 19 bytes), at inner
    # dimensions K up to 108; the matrix rows use the Barrett slots of
    # ``_row_slots``, one or two words up to 2^64 and whole bytes beyond
    SLOT_PATHS = [(3, 6, 4), (5, 8, 8), (3, 8, 8), (3, 13, 8), (2, 40, 11), (5, 30, 19)]

    @pytest.mark.parametrize("p,N,w", SLOT_PATHS)
    def test_slot_paths_against_loop(self, p, N, w):
        rng = random.Random(p * N)
        mod = p**N
        assert _slot_bytes(mod, 1) <= _slot_bytes(mod, 108) == w
        row_w, b = _row_slots(mod, 108)
        assert 8 * row_w >= 2 * b + 2 and b == (108 * (mod - 1) ** 2).bit_length()
        assert row_w % 8 == 0 if mod <= 1 << 64 else 8 * (row_w - 1) < 2 * b + 2
        for terms in (1, 12, 36, 108):
            _check_barrett(rng, mod, *_row_slots(mod, terms))
        shapes = [(2, 108, 3), (5, 36, 7), (1, 1, 1), (3, 72, 1), (4, 12, 12)]
        for rows, inner, cols in shapes:
            assert _slot_bytes(mod, inner) <= w
            assert _row_slots(mod, inner)[0] <= row_w
            for density in (0.1, 0.6, 1.0):
                # unreduced and negative entries on the left, zero rows on
                # both sides
                A = _sparse_matrix(rng, rows, inner, mod, density, -mod**2, mod**2)
                A[0] = [0] * inner
                B = _sparse_matrix(rng, inner, cols, mod, density)
                B[-1] = [0] * cols
                want = loop_mat_mul(A, B, mod)
                Bm = ModMat(B, mod)
                assert _mat_mul(A, Bm, mod) == want, (rows, inner, cols, density)
                assert _mat_mul(ModMat(A, mod), Bm, mod) == want
                assert _mat_mul(A, B, mod) == want
                _check_packed_linear(rng, A, B, mod)
        # the largest entries fill every slot to its bound
        A = [[mod - 1] * 108]
        B = [[mod - 1] * 5 for _ in range(108)]
        assert _mat_mul(A, B, mod) == loop_mat_mul(A, B, mod)
        # empty shapes
        assert _mat_mul([], ModMat([[1, 2]], mod), mod) == []
        assert _mat_mul([[], []], ModMat([], mod), mod) == [[], []]
        assert _mat_mul([[1, -2]], [[], []], mod) == [[]]
        assert _mat_mul([[0, 0]], [[mod - 1], [1]], mod) == [[0]]
        assert _mat_mul([[-1, mod + 1]], [[mod - 1], [1]], mod) == [[2]]

    @pytest.mark.parametrize("N,w,narrower", [(15, 8, 4), (31, 9, 8), (35, 10, 9)])
    def test_slot_width_boundaries(self, N, w, narrower):
        # 2*bits(2^N - 1) + bits(7) is 33, 65 and 73 bits, one bit past the
        # next narrower slot, which a sum of seven full products overflows
        mod = 2**N
        assert _slot_bytes(mod, 7) == w
        assert 7 * (mod - 1) ** 2 >= 2 ** (8 * narrower)
        A = [[mod - 1] * 7, [1 - mod] * 7]
        B = [[mod - 1] * 3 for _ in range(7)]
        assert _mat_mul(A, B, mod) == loop_mat_mul(A, B, mod)
        # the Barrett slots of the same sums: 8w >= 2b + 2 with b = 2N + 3
        row_w, b = _row_slots(mod, 7)
        assert b == 2 * N + 3 and row_w == 8 * -(-(2 * b + 2) // 64)
        _check_packed_linear(random.Random(N), A, B, mod)

    # (modulus, terms) whose largest sum has b bits with 2b + 2 at a slot
    # boundary (8w = 2b + 2), and one bit past it, which takes the next
    # slot: b = 31 and 32 at one word, 63 and 64 at two, and 159 and 160
    # for the byte slots beyond 64-bit residues
    BARRETT_EDGES = [(2**15, 2, 31, 8), (2**15, 3, 32, 16),
                     (2**31, 2, 63, 16), (2**31, 3, 64, 24),
                     (5**30, 2**19, 159, 40), (5**30, 2**20, 160, 41)]

    @pytest.mark.parametrize("mod,terms,b,w", BARRETT_EDGES)
    def test_barrett_slot_edges(self, mod, terms, b, w):
        assert _row_slots(mod, terms) == (w, b)
        assert 8 * w >= 2 * b + 2
        rng = random.Random(b)
        _check_barrett(rng, mod, w, b)
        if terms <= 4:
            A = [[mod - 1] * terms, [1] * terms]
            B = [[mod - 1] * 3 for _ in range(terms)]
            assert _mat_mul(A, B, mod) == loop_mat_mul(A, B, mod)
            _check_packed_linear(rng, A, B, mod)

    def test_barrett_reduces_every_slot_exactly(self):
        # every sum below 2^b in every slot position, at small moduli
        for mod in (2, 3, 9, 25, 27, 32):
            b = (3 * (mod - 1) ** 2).bit_length()
            w, _ = _row_slots(mod, 3)
            xs = list(range(1 << b))
            s, c, mask, _ = _barrett(mod, w, len(xs), b)
            packed = sum(x << (8 * w * i) for i, x in enumerate(xs))
            reduced = packed - mod * (packed * c >> s & mask)
            assert ModMat.of_packed([reduced], mod, w, len(xs)).rows == (
                tuple(x % mod for x in xs),)


def _check_barrett(rng, mod, w, b):
    """One Barrett step on packed sums below 2^b against x % mod: the
    largest sums, sums just off multiples of mod, and the largest sums
    that leave mod - 1, where an estimate of x/mod too large by 1/mod
    would first show."""
    top = (1 << b) - 1
    xs = [top, top - 1, 0, mod - 1, mod, 2 * mod - 1,
          top // mod * mod - 1, (top - mod + 1) // mod * mod + mod - 1,
          *(rng.randrange(top // mod) * mod + rng.choice((0, 1, mod - 1))
            for _ in range(20))]
    s, c, mask, _ = _barrett(mod, w, len(xs), b)
    packed = sum(x << (8 * w * i) for i, x in enumerate(xs))
    reduced = packed - mod * (packed * c >> s & mask)
    assert [(reduced >> (8 * w * i)) & ((1 << (8 * w)) - 1)
            for i in range(len(xs))] == [x % mod for x in xs]


def _check_packed_linear(rng, A, B, mod):
    """Sums, differences, negations, ``==`` and ``is_zero`` of packed
    products against the same operations on the triple loop's entries."""
    C = _sparse_matrix(rng, len(A), len(A[0]) if A else 0, mod, 0.7, -mod, 2 * mod)
    P, Q = _mat_mul(A, B, mod), _mat_mul(C, B, mod)
    want_p, want_q = loop_mat_mul(A, B, mod), loop_mat_mul(C, B, mod)
    cases = [(P + Q, lambda x, y: x + y), (P - Q, lambda x, y: x - y),
             (Q - P, lambda x, y: y - x), (-P, lambda x, y: -x)]
    for got, op in cases:
        want = [[op(x, y) % mod for x, y in zip(rp, rq)] for rp, rq in zip(want_p, want_q)]
        assert got == want
        assert got.is_zero() == (not any(map(any, want)))
    assert (P - P).is_zero() and (P + -P).is_zero()
    assert P.is_zero() == (not any(map(any, want_p)))
    assert (P == Q) == (want_p == want_q)
    assert P == _mat_mul(A, ModMat(B, mod), mod) == ModMat(want_p, mod)
    assert P + Q == ModMat(want_p, mod) + ModMat(want_q, mod)


class TestModMat:
    """The Z/mod matrix value: residues, equality, arithmetic, and the
    packed rows of the right operand kept for later products."""

    def test_eq_mod_residues(self):
        A = ModMat([[1, 2], [3, 4]], 9)
        assert A == [[1, 2], [3, 4]] and [[1, 2], [3, 4]] == A
        assert A == [[10, 11], [3, -5]]
        assert A == ModMat([[10, 11], [-6, -5]], 9)
        assert A.rows == ((1, 2), (3, 4))
        assert A != [[1, 2], [3, 5]]
        assert A != [[1, 2]] and A != [[1, 2, 0], [3, 4, 0]]
        assert A != ModMat([[1, 2], [3, 4]], 27)

    def test_rows_cannot_be_assigned(self):
        A = ModMat([[1, 2], [3, 4]], 9)
        with pytest.raises(TypeError):
            A[0] = (0, 0)
        with pytest.raises(TypeError):
            A[0][1] = 0
        assert A == [[1, 2], [3, 4]]

    def test_arithmetic(self):
        rng = random.Random(5)
        mod = 3**4
        for rows, cols in [(1, 1), (3, 5), (12, 12)]:
            a = _sparse_matrix(rng, rows, cols, mod, 0.5, -mod**2, mod**2)
            b = _sparse_matrix(rng, rows, cols, mod, 0.5, -mod**2, mod**2)
            A, B = ModMat(a, mod), ModMat(b, mod)
            pairs = [(A + B, lambda x, y: x + y), (A - B, lambda x, y: x - y),
                     (-A, lambda x, y: -x)]
            for got, op in pairs:
                assert got.mod == mod
                assert got.rows == tuple(tuple(op(x, y) % mod for x, y in zip(ra, rb))
                                         for ra, rb in zip(a, b))
            assert (A - A).is_zero() and (A + A).is_zero() == A.is_zero()
            assert ModMat([[mod, -mod]], mod).is_zero()
        assert ModMat.identity(3, mod) == mat_identity(3)
        assert ModMat.zero(3, mod) == [[0] * 3] * 3 and ModMat.zero(3, mod).is_zero()

    @pytest.mark.parametrize("p,N", [(2, 1), (3, 4), (5, 2)])
    def test_matmul_against_loop(self, p, N):
        rng = random.Random(p + N)
        mod = p**N
        for rows, inner, cols in TestMatMulKernel.SHAPES:
            a = _sparse_matrix(rng, rows, inner, mod, 0.3, -mod**2, mod**2)
            b = _sparse_matrix(rng, inner, cols, mod, 0.3, -mod**2, mod**2)
            want = loop_mat_mul(a, b, mod)
            A, B = ModMat(a, mod), ModMat(b, mod)
            for got in (A @ B, A @ b, mat_mul_mod(a, B, mod), mat_mul_mod(a, b, mod)):
                assert isinstance(got, ModMat) and got.mod == mod
                assert got == want and got.rows == tuple(map(tuple, want))

    def test_packed_rows_built_once(self):
        # a matrix built from rows packs them the first time it is a right
        # operand and keeps them; a product keeps its packed rows and reads
        # its entries only when they are asked for
        mod = 3**3
        B = ModMat([[0, 5], [7, 0], [0, 0]], mod)
        assert B._packed is None
        first = ModMat([[1, 2, 3]], mod) @ B
        packed, w = B._packed, B._w
        assert (w, _row_slots(mod, 3)[0]) == (8, 8)
        assert packed == [5 << (8 * w), 7, 0]
        second = mat_mul_mod([[4, 0, 1], [0, 1, 0]], B, mod)
        assert B._packed is packed
        # a product by a product reuses its packed rows as they are
        third = ModMat([[1, 1]], mod) @ second
        assert first._rows is None and second._rows is None
        assert first._packed == [(2 * 7) + (5 << (8 * w))] and first._w == w
        assert first == loop_mat_mul([[1, 2, 3]], B.rows, mod)
        assert second == loop_mat_mul([[4, 0, 1], [0, 1, 0]], B.rows, mod)
        assert first._rows == ((14, 5),) and third == [[7, 20]]

    def test_product_compared_only_never_builds_its_rows(self):
        rng = random.Random(11)
        mod = 3**6
        a, b = (_sparse_matrix(rng, 12, 12, mod, 0.15) for _ in range(2))
        A, B = ModMat(a, mod), ModMat(b, mod)
        AB, BA = A @ B, B @ A
        S = AB + BA
        D = AB - AB
        assert (AB == ModMat(a, mod) @ ModMat(b, mod)) and not (AB != A @ B)
        assert S == BA + AB and D.is_zero() and not S.is_zero()
        assert (-S + S).is_zero() and B @ S == (B @ AB) + (B @ BA)
        assert all(M._rows is None for M in (AB, BA, S, D))
        # the same packed ints over more columns are another matrix
        one = ModMat([[1]], mod)
        assert one @ ModMat([[1, 2]], mod) != one @ ModMat([[1, 2, 0]], mod)
        # rows of a wider kept packing are reused, not repacked
        C = ModMat(b, mod)
        C.packed_at(16)
        assert (A @ C)._w == 16 and A @ C == AB and (A @ C) + AB == AB + AB

    def test_packed_rows_across_widths(self):
        # a product by a matrix kept in wider slots, summed with one in
        # narrower slots, and both compared: the values decide, not the slots
        mod = 2**40
        rng = random.Random(4)
        a = _sparse_matrix(rng, 3, 3, mod, 1.0)
        narrow, wide = ModMat(a, mod), ModMat(a, mod)
        narrow.packed_at()
        wide.packed_at(3 * narrow._w)
        assert narrow._w < wide._w
        assert narrow == wide and (narrow - wide).is_zero()
        assert narrow + wide == wide + narrow == loop_mat_mul(a, [[2, 0, 0], [0, 2, 0], [0, 0, 2]], mod)
        assert ModMat([[1, 0, 0]], mod) @ wide == [a[0]]


def test_only_padic_knows_the_packed_format():
    """crystal and descent reach the packed Z/p^N format only through
    ModMat and the list-level padic routines: they import none of the
    packing helpers and read no attribute of that name."""
    import qprism
    helpers = {"_pack", "_slot_bytes", "_row_slots", "_barrett", "_unpack_mod",
               "_read_rows", "_distinguished_inverse"}
    for name in ("crystal", "descent"):
        tree = ast.parse(pathlib.Path(qprism.__file__).with_name(f"{name}.py").read_text())
        used = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for a in node.names}
        used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert not used & helpers, (name, used & helpers)


class TestBlockAssembly:
    """``ModMat.from_blocks`` and ``ModMat.split_rows`` against the rows
    concatenated entry by entry."""

    @pytest.mark.parametrize("mod", [7, 3**8, 2**40, 5**30])
    def test_blocks_and_split_match_row_concatenation(self, mod):
        rng = random.Random(mod)
        # products keep their packed rows, one of them in wider slots; a
        # list-built block packs on demand, in the slots of a product
        blocks = []
        for rows, cols, inner in ((2, 3, 1), (3, 2, 4), (2, 2, 60), (1, 4, 2)):
            A = _sparse_matrix(rng, rows, inner, mod, 0.8)
            B = _sparse_matrix(rng, inner, cols, mod, 0.8)
            blocks.append(_mat_mul(A, B, mod))
        blocks.append(ModMat([[rng.randrange(mod) for _ in range(3)]], mod))
        blocks.append(ModMat.zero(2, mod))
        blocks[1].packed_at(2 * blocks[1].packed_at()[1])
        widths = {B.packed_at()[1] for B in blocks}
        assert len(widths) > 1
        want = [[0] * 9 for _ in range(8)]
        placed = [(blocks[0], 0, 0), (blocks[1], 2, 3), (blocks[2], 0, 5),
                  (blocks[3], 5, 0), (blocks[4], 6, 4), (blocks[5], 2, 0)]
        for B, i, j in placed:
            for a, row in enumerate(B.rows):
                want[i + a][j:j + len(row)] = row
        got = ModMat.from_blocks(8, 9, mod, placed)
        assert got == want and got.rows == tuple(map(tuple, want))
        assert ModMat.from_blocks(8, 9, mod, []) == [[0] * 9] * 8
        assert ModMat.from_blocks(3, 3, mod, [(ModMat.zero(3, mod), 0, 0)]).is_zero()
        # splitting each row into k rows, packed or built from rows
        wide = [[rng.randrange(mod) for _ in range(12)] for _ in range(3)]
        for M in (ModMat(wide, mod), _mat_mul(wide, ModMat.identity(12, mod), mod)):
            for k in (1, 2, 3, 4, 12):
                c = 12 // k
                assert M.split_rows(k) == [row[i:i + c] for row in wide
                                           for i in range(0, 12, c)]
        assert got.split_rows(3) == [row[i:i + 3] for row in want for i in (0, 3, 6)]


def _poly_mod(a, modulus, mod):
    """a mod (modulus, mod) for a monic modulus, by schoolbook reduction
    from the top: the reference for ``QuotientRing.reduce``."""
    a = [x % mod for x in a]
    dm = len(modulus) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * modulus[j]) % mod
    return a[:dm] + [0] * max(0, dm - len(a))


class TestReductionTable:
    """The packed table of q^k mod d^n (deg <= k < 2 deg) against the
    schoolbook reduction, on every input length (folded from the top past
    2 deg coefficients, also at deg = 1) and on negative entries."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("alpha", [0, 1])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("N", [1, 6, 30])
    def test_reduce_matches_poly_mod(self, p, alpha, n, N):
        rng = random.Random(1000 * p + 100 * alpha + 10 * n + N)
        R = QuotientRing(p, N, alpha, n)
        mod, deg = p**N, R.deg
        lengths = sorted({0, 1, 2, max(deg - 1, 1), deg, 2 * deg - 1, 2 * deg,
                          3 * deg + 2, 7 * deg + 1})
        for length in lengths:
            for lo, hi in [(0, mod), (-mod**2, mod**2)]:
                c = [rng.randrange(lo, hi) for _ in range(length)]
                want = _poly_mod(c, R.modulus, mod)
                assert R.reduce(c) == want, (length, lo)
                assert R.elem(c).coeffs == want
        for length in (2 * deg - 1, 2 * deg, 5 * deg):
            top = [mod - 1] * length
            assert R.reduce(top) == _poly_mod(top, R.modulus, mod)
        for k in (0, 1, deg, 2 * deg, 7 * deg + 3):
            assert R.q_power(k).coeffs == _poly_mod([0] * k + [1], R.modulus, mod)

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("alpha", [0, 1])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("N", [1, 6, 30])
    def test_products_and_mult_matrix(self, p, alpha, n, N):
        rng = random.Random(2000 * p + 100 * alpha + 10 * n + N)
        R = QuotientRing(p, N, alpha, n)
        mod, deg = p**N, R.deg
        samples = [R.elem([mod - 1] * deg)] + [
            R.elem([rng.randrange(-mod, mod) for _ in range(deg)]) for _ in range(3)]
        for x in samples:
            for y in samples:
                want = _poly_mod(schoolbook_mul(x.coeffs, y.coeffs, mod), R.modulus, mod)
                assert (x * y).coeffs == want
            mat = R.mult_matrix(x)
            for i in range(deg):
                col = _poly_mod([0] * i + x.coeffs, R.modulus, mod)
                assert [row[i] for row in mat] == col


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

    @pytest.mark.parametrize("p,N,alpha,n", [(2, 8, 1, 2), (3, 6, 1, 1),
                                             (3, 4, 0, 3), (5, 7, 0, 2)])
    def test_constant_operand_product(self, p, N, alpha, n):
        # a product by a constant (no q^i term for i >= 1) scales the other
        # operand; it must equal the packed product through the reduction
        # table, with the smaller precision, on either side
        rng = random.Random(7 * p + N + n)
        R = QuotientRing(p, N, alpha, n)
        mod = p**N

        def packed_product(x, y):
            return R._fold(_pack(x.coeffs, R._slot) * _pack(y.coeffs, R._slot))

        for _ in range(30):
            x = R.elem([rng.randrange(mod) for _ in range(R.deg)], rng.randrange(1, N + 1))
            for c in (0, 1, mod - 1, rng.randrange(mod)):
                k = R.elem([c], rng.randrange(1, N + 1))
                for got in (x * k, k * x):
                    assert got.coeffs == packed_product(x, k)
                    assert got.prec == min(x.prec, k.prec)
                    assert len(got.coeffs) == R.deg
            assert (R.one() * R.zero()).coeffs == [0] * R.deg


class TestQuotElemZeroDigits:
    """A comparison decided on no p-digit certifies nothing: it raises."""

    def test_eq_at_zero_digits_raises(self):
        R = QuotientRing(3, 4, 1, 1)
        x = R.elem([1, 2], 0)
        for a, b in [(x, R.elem([5], 4)), (R.one(), x), (x, x), (x, 1)]:
            with pytest.raises(PrecisionError):
                a == b
        # one digit decides
        y = R.elem([1, 2], 1)
        assert y == R.elem([4, 5], 4) and not (y == R.elem([2, 2], 4))

    def test_is_zero_at_zero_digits_raises(self):
        # ``==`` goes through ``is_zero``, on PadicInt as on QuotElem
        R = QuotientRing(3, 4, 1, 1)
        for x in (R.elem([3], 0), PadicInt(3, 0, 0)):
            with pytest.raises(PrecisionError):
                x.is_zero()
        with pytest.raises(PrecisionError):
            PadicInt(3, 2, 1) == PadicInt(3, 0, 1)
        assert PadicInt(3, 1, 3).is_zero() and not PadicInt(3, 2, 3).is_zero()
