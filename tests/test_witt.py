"""Witt vectors: ghost transport, the solver, and the constructed elements."""

import random
from fractions import Fraction

import pytest

from qprism.exactcore import BigPoly, RingPresentation, q_analogue
from qprism.padic import TruncSeries, teichmuller, vp_factorial
from qprism.witt import (
    EpsPair,
    EpsSeriesBase,
    ExactPolyBase,
    GhostSolveError,
    NonexistenceWitness,
    SeriesBase,
    TEpsSeriesBase,
    TPoly,
    WittVector,
    construct_b,
    construct_c,
    construct_c_psi,
    construct_c_u,
    d_as_V1,
    delta_power_membership,
    from_ghost,
    teich,
    witt_mul,
    witt_one,
)


def witt_add(a: WittVector, b: WittVector) -> WittVector:
    ga, gb = a.ghost(), b.ghost()
    return from_ghost(a.base, [x + y for x, y in zip(ga, gb)],
                      check_dwork=False)


def frobenius_witt(a: WittVector) -> WittVector:
    """F: drops the first ghost component; needs one spare length."""
    ghosts = a.ghost()
    return from_ghost(a.base, ghosts[1:], check_dwork=False)


def delta_witt(a: WittVector) -> WittVector:
    """delta with ghost components (w_(n+1) - w_n^p)/p."""
    base, p = a.base, a.base.p
    ghosts = a.ghost()
    out = []
    for n in range(len(ghosts) - 1):
        num = ghosts[n + 1] - ghosts[n] ** p
        out.append(num.divide_p_pow(1))
    return from_ghost(base, out, check_dwork=False)


def eps_part(f: BigPoly, idx: int) -> BigPoly:
    """Coefficient of eps_idx in f (terms with that eps stripped)."""
    pres = f.pres
    out = {}
    for (qe, ee, te), c in f.terms.items():
        if ee[idx] == 1:
            out[(qe, (0,) * pres.n_eps, te)] = c
    return BigPoly(pres, out)


def series_base(p=3, L=3, N=8, M=16):
    return SeriesBase(p, N + L - 1, M)


def rand_series(base, rng):
    return TruncSeries(base.p, base.N, base.M,
                       [rng.randrange(base.p**base.N) for _ in range(6)])


class TestTransport:
    def test_each_base_carries_an_exact_polynomial(self):
        p, N, M = 3, 6, 12
        pres = RingPresentation(p, 0, m=0, has_eps0=True, max_qdeg=1 << 30)
        poly = pres.q_pow(2) * 5 + pres.one()
        eps_q = pres.eps(0) * pres.q_pow(1)
        series = TruncSeries.from_q_poly(p, N, M, {2: 5, 0: 1})
        assert ExactPolyBase(pres).transport(poly) is poly
        assert SeriesBase(p, N, M).transport(poly) == series
        with pytest.raises(ValueError):
            SeriesBase(p, N, M).transport(eps_q)
        pair = EpsSeriesBase(p, N, M, 0).transport(poly + eps_q)
        assert pair.f == series and pair.g == TruncSeries.q_power(p, N, M, 1)


class TestGhost:
    def test_teichmuller_ghost(self):
        base = series_base()
        x = TruncSeries.q_power(3, 10, 16, 2)
        t = teich(base, x, 3)
        assert t.ghost() == [x, x**3, x**9]

    def test_v1_ghost(self):
        base = series_base(p=3)
        v1 = witt_one(base, 4).V()
        g = v1.ghost()
        assert g[0].is_zero()
        for w in g[1:]:
            assert w == base.const(3)

    def test_direct_formula_oracle(self):
        # independent evaluation of w_n = sum p^i x_i^(p^(n-i)) at p=2
        rng = random.Random(7)
        base = series_base(p=2, L=3)
        coords = [rand_series(base, rng) for _ in range(3)]
        x = WittVector(base, coords)
        for n, w in enumerate(x.ghost()):
            acc = TruncSeries.zero(2, base.N, base.M)
            for i in range(n + 1):
                acc = acc + coords[i] ** (2 ** (n - i)) * 2**i
            assert w == acc


class TestFromGhost:
    def test_teichmuller_roundtrip(self):
        base = series_base()
        x = TruncSeries.q_power(3, 10, 16, 1) + 2
        r = [x, x**3, x**9]
        t = from_ghost(base, r, check_dwork=False)
        assert t == teich(base, x, 3)

    def test_v1_from_ghost(self):
        base = series_base(p=3, L=3)
        r = [base.const(0), base.const(3), base.const(3)]
        v = from_ghost(base, r, check_dwork=False)
        assert v == witt_one(base, 3).V()

    def test_random_roundtrip(self):
        rng = random.Random(3)
        base = series_base(p=3, L=3)
        x = WittVector(base, [rand_series(base, rng) for _ in range(3)])
        y = from_ghost(base, x.ghost(), check_dwork=False)
        assert x == y

    def test_non_ghost_sequence_rejected(self):
        base = series_base(p=3, L=2)
        with pytest.raises(GhostSolveError):
            from_ghost(base, [base.const(0), base.const(1)], check_dwork=False)

    def test_lift_delta_map_identity(self):
        # the delta-lift of q along the identity has ghosts (q, q^p, ...)
        base = series_base(p=3, L=3)
        imgs = [TruncSeries.q_power(3, base.N, base.M, 3**n) for n in range(3)]
        w = from_ghost(base, imgs, check_dwork=False)
        t = teich(base, TruncSeries.q_power(3, base.N, base.M, 1), 3)
        assert w == t  # and it is precisely the Teichmuller lift of q


# -- universal Witt polynomials, derived symbolically over Q ---------------


class FPoly:
    """Tiny multivariate polynomial over Fraction, for the oracle only."""

    def __init__(self, terms=None):
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    @staticmethod
    def var(name):
        return FPoly({((name, 1),): Fraction(1)})

    @staticmethod
    def const(c):
        return FPoly({(): Fraction(c)})

    def __add__(self, o):
        out = dict(self.terms)
        for k, v in o.terms.items():
            out[k] = out.get(k, Fraction(0)) + v
        return FPoly(out)

    def __sub__(self, o):
        return self + o * -1

    def __mul__(self, o):
        if isinstance(o, (int, Fraction)):
            return FPoly({k: v * o for k, v in self.terms.items()})
        out = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in o.terms.items():
                d = dict(k1)
                for name, e in k2:
                    d[name] = d.get(name, 0) + e
                key = tuple(sorted(d.items()))
                out[key] = out.get(key, Fraction(0)) + v1 * v2
        return FPoly(out)

    def __pow__(self, n):
        out = FPoly.const(1)
        for _ in range(n):
            out = out * self
        return out

    def subs(self, values):
        total = Fraction(0)
        for k, v in self.terms.items():
            term = v
            for name, e in k:
                term *= Fraction(values[name]) ** e
            total += term
        return total

    def is_integral(self):
        return all(v.denominator == 1 for v in self.terms.values())


def universal_witt_polys(p, L, op):
    """Solve ghost(z) = ghost(x) op ghost(y) symbolically over Q."""
    xs = [FPoly.var(f"x{i}") for i in range(L)]
    ys = [FPoly.var(f"y{i}") for i in range(L)]

    def ghost(vs):
        return [sum((vs[i] ** (p ** (n - i)) * Fraction(p**i)
                     for i in range(n + 1)), FPoly.const(0))
                for n in range(L)]

    gx, gy = ghost(xs), ghost(ys)
    target = [(gx[n] * gy[n]) if op == "mul" else (gx[n] + gy[n])
              for n in range(L)]
    zs = []
    for n in range(L):
        acc = target[n]
        for i in range(n):
            acc = acc - zs[i] ** (p ** (n - i)) * Fraction(p**i)
        zs.append(acc * Fraction(1, p**n))
    assert all(z.is_integral() for z in zs)  # integrality of the universal law
    return zs


@pytest.mark.parametrize("op", ["add", "mul"])
def test_universal_polynomial_oracle(op):
    # ghost-transport arithmetic agrees with the universal polynomials,
    # evaluated on integer Witt vectors over the exact base
    p, L = 2, 3
    zs = universal_witt_polys(p, L, op)
    pres = RingPresentation(p, 0, m=0, has_eps0=True, max_qdeg=1 << 20)
    base = ExactPolyBase(pres)
    rng = random.Random(5)
    for _ in range(12):
        xv = [rng.randrange(-6, 7) for _ in range(L)]
        yv = [rng.randrange(-6, 7) for _ in range(L)]
        a = WittVector(base, [pres.const(c) for c in xv])
        b = WittVector(base, [pres.const(c) for c in yv])
        got = witt_mul(a, b) if op == "mul" else witt_add(a, b)
        env = {f"x{i}": xv[i] for i in range(L)}
        env.update({f"y{i}": yv[i] for i in range(L)})
        want = [zs[n].subs(env) for n in range(L)]
        assert [sum(c.q_coefficients().values()) for c in got.coords] == want


def test_v1_times_v1_matches_universal():
    p, L = 2, 3
    zs = universal_witt_polys(p, L, "mul")
    env = {"x0": 0, "x1": 1, "x2": 0, "y0": 0, "y1": 1, "y2": 0}
    want = [z.subs(env) for z in zs]
    pres = RingPresentation(p, 0, m=0, has_eps0=True, max_qdeg=1 << 20)
    base = ExactPolyBase(pres)
    v1 = witt_one(base, L).V()
    got = witt_mul(v1, v1)
    assert [sum(c.q_coefficients().values()) for c in got.coords] == want


class TestWittOps:
    def test_mul_identity(self):
        rng = random.Random(11)
        base = series_base()
        a = WittVector(base, [rand_series(base, rng) for _ in range(3)])
        assert witt_mul(a, witt_one(base, 3)) == a

    def test_teichmuller_multiplicative(self):
        base = series_base()
        x = TruncSeries.q_power(3, 10, 16, 1) + 1
        y = TruncSeries.q_power(3, 10, 16, 2) * 2
        assert witt_mul(teich(base, x, 3), teich(base, y, 3)) == teich(base, x * y, 3)

    def test_fv_is_multiplication_by_p(self):
        rng = random.Random(2)
        base = series_base(p=3, L=3)
        x = WittVector(base, [rand_series(base, rng) for _ in range(3)])
        vx = WittVector(base, (base.const(0),) + x.coords)
        assert frobenius_witt(vx) == witt_add(witt_add(x, x), x)

    def test_delta_of_teichmuller_vanishes(self):
        base = series_base()
        t = teich(base, TruncSeries.q_power(3, 10, 16, 2), 4)
        assert all(c.is_zero() for c in delta_witt(t).coords)

    def test_delta_ghost_consistency(self):
        rng = random.Random(9)
        base = series_base(p=3, L=4, N=7)
        x = WittVector(base, [rand_series(base, rng) for _ in range(4)])
        d = delta_witt(x)
        gx, gd = x.ghost(), d.ghost()
        for n in range(3):
            assert gd[n] * 3 == gx[n + 1] - gx[n] ** 3


ACCEPT_TRIPLES = [(3, 0), (2, 1), (5, 0)]


def _eps_base(kind, p, a):
    if kind == "eps":
        return EpsSeriesBase(p, 6, 12, a)
    return TEpsSeriesBase(p, 6, 12, a, tcap=24)


def _rand_pair(base, rng):
    def series():
        return TruncSeries(base.p, base.N, base.M,
                           [rng.randrange(base.p**base.N) for _ in range(base.M)])

    def part():
        if isinstance(base, TEpsSeriesBase):
            return TPoly(base.p, base.N, base.M, base.tcap,
                         {j: series() for j in range(2)})
        return series()

    return EpsPair(part(), part(), base)


EPS_BASES = [(kind, p, a) for kind in ("eps", "teps") for p, a in ((3, 0), (2, 1))]


class TestEpsPair:
    """Ring laws of f + eps*g, and eps^2 against each base's rule."""

    @pytest.mark.parametrize("kind,p,a", EPS_BASES)
    def test_ring_laws(self, kind, p, a):
        base = _eps_base(kind, p, a)
        rng = random.Random(11)
        for _ in range(4):
            x, y, z = (_rand_pair(base, rng) for _ in range(3))
            assert ((x * y) * z - x * (y * z)).is_zero()
            assert (x * (y + z) - (x * y + x * z)).is_zero()
            assert ((x + y) * z - (x * z + y * z)).is_zero()
            assert (x * y - y * x).is_zero()

    @pytest.mark.parametrize("kind,p,a", EPS_BASES)
    def test_eps_squared(self, kind, p, a):
        base = _eps_base(kind, p, a)
        N, M = base.N, base.M
        q = TruncSeries.q_power(p, N, M, 1)
        beta = TruncSeries.q_power(p, N, M, p**a) - TruncSeries.one(p, N, M)
        if kind == "eps":
            # eps^2 = q (q^(p^alpha) - 1) eps
            eps = EpsPair(TruncSeries.zero(p, N, M), TruncSeries.one(p, N, M), base)
            want = q * beta
        else:
            # (eps dT)^2 = (q^(p^alpha) - 1) T eps dT
            eps = EpsPair(TPoly.zero(p, N, M, base.tcap),
                          TPoly.one(p, N, M, base.tcap), base)
            want = TPoly.t_power(p, N, M, base.tcap, 1, beta)
        sq = eps * eps
        assert sq.f.is_zero() and (sq.g - want).is_zero()

    @pytest.mark.parametrize("kind,p,a", EPS_BASES)
    def test_pow_is_repeated_product(self, kind, p, a):
        base = _eps_base(kind, p, a)
        x = _rand_pair(base, random.Random(5))
        prod = base.const(1)
        for k in range(p + 2):
            assert (x**k - prod).is_zero()
            prod = prod * x


class TestConstructions:
    @pytest.mark.parametrize("p,a", ACCEPT_TRIPLES)
    def test_b(self, p, a):
        res = construct_b(p, a, 4, 8, 32)
        assert res.ok, res.checks

    def test_b0_closed_form_and_mod_d(self):
        # b_0 = 1 + eps sum_i q^(i p^a - 1) [i p^a]_{q^(p^(a+1))}; mod d the
        # bracket collapses to the integer i p^a
        from qprism.exactcore import divides_exactly
        from qprism.witt import _eps_pres, _ghost_b
        p, a = 3, 1
        pres = _eps_pres(p, a)
        b0 = _ghost_b(pres, 0)
        explicit = pres.one()
        for i in range(1, p):
            explicit = explicit + (pres.eps(0) * pres.q_pow(i * p**a - 1)
                                   * q_analogue(pres, i * p**a, p ** (a + 1)))
        assert b0 == explicit
        reduced_target = pres.zero()
        for i in range(1, p):
            reduced_target = reduced_target + pres.q_pow(i * p**a - 1) * (i * p**a)
        diff = eps_part(b0, 0) - reduced_target
        assert divides_exactly(diff, pres.d_poly())

    @pytest.mark.parametrize("backend", ["series", "exact"])
    def test_b0_check_fails_on_a_wrong_ghost(self, monkeypatch, backend):
        # the check compares _ghost_b(pres, 0) with the written-out form,
        # so a wrong ghost formula cannot pass it
        import qprism.witt as witt
        monkeypatch.setattr(witt, "_ghost_b", lambda pres, n: pres.one())
        assert not construct_b(3, 1, 1, backend=backend).checks["b_0 closed form"]

    @pytest.mark.parametrize("p,a", ACCEPT_TRIPLES)
    def test_c(self, p, a):
        res = construct_c(p, a, 4, 8, 32)
        assert res.ok, res.checks

    def test_c0_is_eps(self):
        from qprism.witt import _eps_pres, _ghost_c
        pres = _eps_pres(3, 0)
        assert _ghost_c(pres, 0) == pres.eps(0)

    @pytest.mark.parametrize("p,a", ACCEPT_TRIPLES)
    def test_c_psi(self, p, a):
        res = construct_c_psi(p, a, 4, 8, 32)
        assert res.ok, res.checks

    def test_exact_backends(self):
        assert construct_b(3, 0, 3, backend="exact").ok
        assert construct_c(2, 1, 3, backend="exact").ok
        assert construct_c_psi(3, 0, 2, backend="exact").ok

    def test_two_precision_consistency(self):
        r1 = construct_b(3, 0, 4, 8, 32)
        r2 = construct_b(3, 0, 4, 10, 40)
        assert r1.ok and r2.ok and r1.checks.keys() == r2.checks.keys()


class TestCu:
    @pytest.mark.parametrize("p,a", [(3, 0), (3, 1), (5, 0), (5, 1)])
    def test_exists_for_principal_unit(self, p, a):
        res = construct_c_u(p, a, 4, 1 + p ** (a + 1))
        assert res.ok, res.checks

    def test_r0_value(self):
        res = construct_c_u(3, 0, 3, 4)
        pres = res.witt.base.pres
        assert res.ghosts[0] == pres.q_pow(1) * pres.beta()

    def test_u_equals_one_gives_zero(self):
        res = construct_c_u(3, 0, 3, 1)
        assert all(not c for c in res.witt.coords)

    @pytest.mark.parametrize("p,a", [(3, 0), (3, 1), (5, 0), (5, 1)])
    def test_nonexistence_for_teichmuller(self, p, a):
        u = teichmuller(p, 2, 8 + vp_factorial(p, 3 * (p - 1) * p**a + 6))
        wit = construct_c_u(p, a, 4, u)
        assert isinstance(wit, NonexistenceWitness)
        assert wit.level == 0


class TestDV1:
    @pytest.mark.parametrize("p,a", [(2, 0), (3, 0), (3, 1)])
    def test_ghost_and_coordinates(self, p, a):
        res = d_as_V1(p, a, 4, 8)
        assert res.ok, res.checks


class TestDeltaPower:
    def test_base_case_formula(self):
        # delta(q-1) = ((q^p - 1) - (q-1)^p)/p lies in (q-1)
        p = 3
        pres = RingPresentation(p, 0, m=0, has_eps0=True, max_qdeg=1 << 16)
        a = pres.q_pow(1) - pres.one()
        delta = (pres.q_pow(p) - pres.one() - a**p).divide_coefficients(p)
        from qprism.exactcore import divides_exactly
        assert divides_exactly(delta, a)
        assert delta_power_membership(1, 1, p)

    def test_k_zero_trivial(self):
        assert delta_power_membership(5, 0, 3)

    @pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (2, 3)])
    def test_derived_cases(self, n, k):
        assert delta_power_membership(n, k, 3, 8, 30)
        assert delta_power_membership(n, k, 2, 8, 30)
