"""Truncated Witt vectors: ghost transport, the ghost-to-coordinate
solver, delta-ring structure, and the explicit constructed elements.

Witt arithmetic is done through ghost coordinates

    w_n(x) = sum_{i<=n} p^i * x_i^(p^(n-i)),

inverted by certified division by p^n.  Series-backed bases work with
a guard of L-1 extra p-digits, N + L - 1 in all, so that coordinate n,
divided by p^n, keeps N + L - 1 - n >= N digits; the guard digits are
not reduced back to N.  The exact bases (integer polynomial rings,
possibly with an eps generator) have no precision to lose and certify
identities on the nose.

A base supplies what depends on the ring: const, phi (except
``QuotBase``), times_p_pow (capped at the working precision) and
``transport``, which carries an exact BigPoly into the base's elements.
The values answer is_zero and divide_p_pow themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactcore import BigPoly, RingPresentation, psi_q_power, psi_t_power, q_analogue
from .padic import (
    DivisionCertificateError,
    PrecisionError,
    QuotientRing,
    TruncSeries,
    ring_power,
)


class GhostSolveError(Exception):
    """A ghost sequence failed the coordinate solve or the Dwork check."""


# ---------------------------------------------------------------------------
# base-ring adapters
# ---------------------------------------------------------------------------


class ExactPolyBase:
    """Z[q] (optionally with eps generators) via exactcore; p-torsion free."""

    def __init__(self, pres: RingPresentation):
        self.pres = pres
        self.p = pres.p

    def const(self, c):
        return self.pres.const(c)

    def phi(self, x: BigPoly):
        return x.frobenius()

    def times_p_pow(self, x: BigPoly, a: int):
        return x * self.p**a

    def transport(self, poly: BigPoly):
        return poly


class SeriesBase:
    """W(k)[[q-1]] truncated at (p^N_work, t^M)."""

    def __init__(self, p: int, N_work: int, M: int):
        self.p, self.N, self.M = p, N_work, M

    def const(self, c):
        return TruncSeries.const(self.p, self.N, self.M, c)

    def phi(self, x: TruncSeries):
        return x.phi()

    def times_p_pow(self, x, a):
        return x.times_p_pow(a, self.N)

    def _sectors(self, poly: BigPoly) -> dict:
        """The terms of ``poly`` grouped by eps sector and T-degree (0
        without a chart coordinate), each group made a series in one pass;
        each ``transport`` rejects the keys it has no place for."""
        sectors = {}  # (has eps, T-degree) -> {q-exponent: coefficient}
        for (qe, ee, te), cval in poly.terms.items():
            qc = sectors.setdefault((any(ee), sum(te)), {})
            qc[qe] = qc.get(qe, 0) + cval
        return {key: TruncSeries.from_q_poly(self.p, self.N, self.M, qc)
                for key, qc in sectors.items()}

    def transport(self, poly: BigPoly):
        series = self._sectors(poly)
        if set(series) - {(False, 0)}:
            raise ValueError("eps or T term in a plain series base")
        return series.get((False, 0), TruncSeries.zero(self.p, self.N, self.M))


class EpsPair:
    """f + eps*g in the rank-2 module over the scalar ring; ``base``
    supplies the rule for eps^2: ``base.eps_sq(g, h)`` is the
    eps-coefficient of (eps*g)*(eps*h)."""

    __slots__ = ("f", "g", "base")

    def __init__(self, f, g, base):
        self.f, self.g, self.base = f, g, base

    def __repr__(self):
        return f"EpsPair({self.f!r}, {self.g!r})"

    def __add__(self, other):
        return EpsPair(self.f + other.f, self.g + other.g, self.base)

    def __sub__(self, other):
        return EpsPair(self.f - other.f, self.g - other.g, self.base)

    def __mul__(self, other):
        return EpsPair(self.f * other.f,
                       self.f * other.g + self.g * other.f
                       + self.base.eps_sq(self.g, other.g), self.base)

    def __pow__(self, k: int):
        return ring_power(self, k, self.base.const(1))

    def is_zero(self) -> bool:
        return self.f.is_zero() and self.g.is_zero()

    def divide_p_pow(self, a: int) -> "EpsPair":
        return EpsPair(self.f.divide_p_pow(a), self.g.divide_p_pow(a), self.base)


class EpsSeriesBase(SeriesBase):
    """A + eps*A with eps^2 = q*(q^(p^alpha)-1)*eps over truncated series."""

    def __init__(self, p, N_work, M, alpha):
        super().__init__(p, N_work, M)
        self.sq = (TruncSeries.q_power(p, N_work, M, p**alpha + 1)
                   - TruncSeries.q_power(p, N_work, M, 1))
        # phi(eps) = q^(p-1) * d * eps
        self.phi_unit = (TruncSeries.q_power(p, N_work, M, p - 1)
                         * TruncSeries.d_series(p, N_work, M, alpha))
        self._certify_frobenius()

    def _certify_frobenius(self):
        """phi(eps) - eps^p must vanish mod p: phi really lifts the
        p-power map (certified at construction)."""
        eps = EpsPair(self.const(0).f, self.const(1).f, self)
        if not self.congruent_mod_p_pow(self.phi(eps) - eps**self.p, 1):
            raise ArithmeticError("frobenius lift fails the mod-p congruence")

    def const(self, c):
        return EpsPair(TruncSeries.const(self.p, self.N, self.M, c),
                       TruncSeries.zero(self.p, self.N, self.M), self)

    def eps_sq(self, g, h):
        return self.sq * g * h

    def phi(self, x):
        return EpsPair(x.f.phi(), self.phi_unit * x.g.phi(), self)

    def times_p_pow(self, x, a):
        return EpsPair(x.f.times_p_pow(a, self.N), x.g.times_p_pow(a, self.N), self)

    def congruent_mod_p_pow(self, x, a):
        return (x.f.reduce_prec(N=min(a, x.f.N)).is_zero()
                and x.g.reduce_prec(N=min(a, x.g.N)).is_zero())

    def transport(self, poly: BigPoly):
        series = self._sectors(poly)
        if set(series) - {(False, 0), (True, 0)}:
            raise ValueError("T term in an eps series base")
        zero = TruncSeries.zero(self.p, self.N, self.M)
        return EpsPair(series.get((False, 0), zero), series.get((True, 0), zero), self)


class GradedEpsBase(EpsSeriesBase):
    """The chart ring A<T> + eps dT * A<T>, (eps dT)^2 = (q^(p^alpha)-1) T eps dT,
    on elements homogeneous in T and eps dT, each of degree 1: the pair
    (a, b) stands for a T^k + b T^(k-1) eps dT.  The product
    (ac, ad + bc + beta*b*d) and phi = (phi(a), d*phi(b)) do not depend
    on k, so k is never stored; sums are only ever taken in one degree."""

    def __init__(self, p, N_work, M, alpha):
        SeriesBase.__init__(self, p, N_work, M)
        self.sq = (TruncSeries.q_power(p, N_work, M, p**alpha)
                   - TruncSeries.one(p, N_work, M))
        self.phi_unit = TruncSeries.d_series(p, N_work, M, alpha)
        self._certify_frobenius()

    def transport(self, poly: BigPoly):
        series = self._sectors(poly)
        if len({te + eps for eps, te in series}) > 1:
            raise ValueError("not homogeneous in T and eps dT")
        parts = {eps: s for (eps, _), s in series.items()}
        zero = TruncSeries.zero(self.p, self.N, self.M)
        return EpsPair(parts.get(False, zero), parts.get(True, zero), self)


class QuotBase:
    """A/d^n; no Frobenius lift survives the quotient, so ghost solving
    certifies through division exactness alone."""

    def __init__(self, ring: QuotientRing):
        self.ring = ring
        self.p = ring.p

    def const(self, c):
        return self.ring.const(c)

    def times_p_pow(self, x, a):
        return x.times_p_pow(a)

    def transport(self, poly: BigPoly):
        return self.ring.from_q_poly(poly.q_coefficients())


# ---------------------------------------------------------------------------
# WittVector
# ---------------------------------------------------------------------------


class WittVector:
    __slots__ = ("base", "coords")

    def __init__(self, base, coords):
        self.base = base
        self.coords = tuple(coords)

    def __len__(self):
        return len(self.coords)

    def ghost(self) -> list:
        """w_n = sum_{i<=n} p^i x_i^(p^(n-i))."""
        base, p = self.base, self.base.p
        out = []
        for n in range(len(self.coords)):
            acc = base.const(0)
            for i in range(n + 1):
                acc = acc + base.times_p_pow(self.coords[i] ** (p ** (n - i)), i)
            out.append(acc)
        return out

    def V(self) -> "WittVector":
        return WittVector(self.base, (self.base.const(0),) + self.coords[:-1])

    def __eq__(self, other):
        return all((a - b).is_zero() for a, b in zip(self.coords, other.coords))

    def render(self) -> str:
        bits = []
        for x in self.coords:
            bits.append(x.render() if hasattr(x, "render") else repr(x))
        return "[" + ", ".join(bits) + "]"


def teich(base, x, L: int) -> WittVector:
    return WittVector(base, [x] + [base.const(0)] * (L - 1))


def witt_one(base, L: int) -> WittVector:
    return teich(base, base.const(1), L)


def dwork_check(base, ghosts) -> bool:
    """phi(r_n) = r_(n+1) exactly, which implies the Dwork congruence
    mod p^(n+1)."""
    return all((base.phi(ghosts[n]) - ghosts[n + 1]).is_zero()
               for n in range(len(ghosts) - 1))


def from_ghost(base, ghosts, check_dwork=True) -> WittVector:
    """Solve ghost(x) = r by back-substitution with certified division.

    x_n = (r_n - sum_{i<n} p^i x_i^(p^(n-i))) / p^n; a division failure
    means the input is not a ghost sequence at the working precision.
    With check_dwork, the ghosts must first pass ``dwork_check``.
    """
    if check_dwork and not dwork_check(base, ghosts):
        raise GhostSolveError("Dwork congruence failed")
    p = base.p
    coords = []
    for n, r in enumerate(ghosts):
        acc = r
        for i in range(n):
            acc = acc - base.times_p_pow(coords[i] ** (p ** (n - i)), i)
        try:
            coords.append(acc.divide_p_pow(n) if n else acc)
        except DivisionCertificateError as exc:
            raise GhostSolveError(f"coordinate {n}: {exc}") from exc
    return WittVector(base, coords)


def witt_mul(a: WittVector, b: WittVector) -> WittVector:
    ga, gb = a.ghost(), b.ghost()
    return from_ghost(a.base, [x * y for x, y in zip(ga, gb)],
                      check_dwork=False)


# ---------------------------------------------------------------------------
# constructed elements
# ---------------------------------------------------------------------------


@dataclass
class Construction:
    """A constructed Witt element together with its certification trail."""

    name: str
    witt: WittVector
    ghosts: list
    checks: dict

    @property
    def ok(self) -> bool:
        return all(self.checks.values())


def _ghost_b(pres: RingPresentation, n: int) -> BigPoly:
    """1 + eps [p^n]_{q^(p^alpha)} sum_i q^(i p^(n+alpha) - 1) [i p^alpha]_{q^(p^(alpha+n+1))}."""
    p, alpha = pres.p, pres.alpha
    s = pres.zero()
    for i in range(1, p):
        s = s + pres.q_pow(i * p ** (n + alpha) - 1) * q_analogue(pres, i * p**alpha, p ** (alpha + n + 1))
    return pres.one() + pres.eps(0) * q_analogue(pres, p**n, p**alpha) * s


def _ghost_c(pres: RingPresentation, n: int) -> BigPoly:
    p, alpha = pres.p, pres.alpha
    return pres.eps(0) * pres.q_pow(p**n - 1) * q_analogue(pres, p**n, p**alpha)


def _phi_n_d(pres: RingPresentation, L: int) -> list:
    """phi^n(d) = [p]_{q^(p^(n+alpha))} for n < L."""
    p, alpha = pres.p, pres.alpha
    return [q_analogue(pres, p, p ** (n + alpha)) for n in range(L)]


def _certify(name: str, pres: RingPresentation, ghost_polys, targets,
             identity: str, closed_form: tuple, base,
             multiply_back: str = None) -> Construction:
    """The certificate of x with ghosts r_n and target_n = phi^n(d) * r_n:
    (i) phi(r_n) = r_(n+1) exactly, (ii) the ghost identity, stated as
    ``identity`` = phi^n(d) * r_n, in exact Z[q], (iii) ``closed_form``,
    a (case id, verdict) pair for a first ghost written out; then the
    solve of x in ``base``, every ghost transported once, and with
    ``multiply_back`` (a case id) the coordinate-level identity
    phi^n(d)-tilde * x = target-tilde."""
    L = len(ghost_polys)
    d_img = _phi_n_d(pres, L)
    checks = {
        "phi(r_n) = r_(n+1) exactly": all(
            ghost_polys[n].frobenius() == ghost_polys[n + 1] for n in range(L - 1)),
        f"ghost identity {identity} = phi^n(d) * r_n": all(
            targets[n] == d_img[n] * ghost_polys[n] for n in range(L)),
        closed_form[0]: closed_form[1],
    }
    ghosts = [base.transport(g) for g in ghost_polys]
    x = from_ghost(base, ghosts, check_dwork=True)
    if multiply_back:
        fd, rhs = (from_ghost(base, [base.transport(g) for g in polys], check_dwork=False)
                   for polys in (d_img, targets))
        checks[multiply_back] = witt_mul(fd, x) == rhs
    return Construction(name, x, ghosts, checks)


def construct_b(p: int, alpha: int, L: int, N: int = 8, M: int = 32,
                backend: str = "series") -> Construction:
    """b with gtilde(d) = ftilde(d) * b in W(A + eps A).

    Ghosts r_n are written down in closed form; the certification checks
    (i) phi(r_n) = r_(n+1) exactly, (ii) the ghost identity
    psi(phi^n(d)) = phi^n(d) * r_n against an independent evaluation of
    psi on the polynomial phi^n(d), (iii) r_0 against its written-out
    form, and (iv) the coordinate-level multiply-back
    ftilde(d) * b = gtilde(d).
    """
    pres = RingPresentation(p, alpha)
    ghost_polys = [_ghost_b(pres, n) for n in range(L)]
    psi_d = [sum((psi_q_power(pres, e) * cf for e, cf in d.q_coefficients().items()),
                 pres.zero()) for d in _phi_n_d(pres, L)]
    # b_0 = 1 + eps sum_{i<p} q^(i p^alpha - 1) [i p^alpha]_{q^(p^(alpha+1))}
    b0 = pres.one()
    for i in range(1, p):
        b0 = b0 + (pres.eps(0) * pres.q_pow(i * p**alpha - 1)
                   * q_analogue(pres, i * p**alpha, p ** (alpha + 1)))
    base = (ExactPolyBase(pres) if backend == "exact"
            else EpsSeriesBase(p, N + L - 1, M, alpha))
    return _certify("b", pres, ghost_polys, psi_d, "psi(phi^n(d))",
                    ("b_0 closed form", ghost_polys[0] == b0), base,
                    "multiply-back ftilde(d) * b = gtilde(d)")


def b_is_unit(p: int, alpha: int, L: int, N: int = 8, M: int = 32) -> bool:
    """b * b^(-1) = 1 in the series model.  Each ghost of b is
    1 + eps*g, whose inverse is 1 - eps*g/(1 + sq*g) since eps^2 = sq*eps."""
    base = EpsSeriesBase(p, N + L - 1, M, alpha)
    pres = RingPresentation(p, alpha)
    ghosts = [base.transport(_ghost_b(pres, n)) for n in range(L)]
    one = TruncSeries.one(p, N + L - 1, M)
    inv_ghosts = [EpsPair(g.f, -(g.g * (one + base.sq * g.g).unit_inverse()), base)
                  for g in ghosts]
    bw = from_ghost(base, ghosts, check_dwork=False)
    binv = from_ghost(base, inv_ghosts, check_dwork=False)
    return witt_mul(bw, binv) == witt_one(base, L)


def construct_c(p: int, alpha: int, L: int, N: int = 8, M: int = 32,
                backend: str = "series") -> Construction:
    """c with gtilde(q) - ftilde(q) = ftilde(d) * c."""
    pres = RingPresentation(p, alpha)
    ghost_polys = [_ghost_c(pres, n) for n in range(L)]
    q_diff = [psi_q_power(pres, p**n) - pres.q_pow(p**n) for n in range(L)]
    base = (ExactPolyBase(pres) if backend == "exact"
            else EpsSeriesBase(p, N + L - 1, M, alpha))
    return _certify("c", pres, ghost_polys, q_diff, "psi(q^(p^n)) - q^(p^n)",
                    ("c_0 = eps", ghost_polys[0] == pres.eps(0)), base,
                    "multiply-back ftilde(d) * c = gtilde(q) - ftilde(q)")


@dataclass
class NonexistenceWitness:
    level: int
    remainder_valuation: object
    detail: str


def construct_c_u(p: int, alpha: int, L: int, u, N: int = 8, M: int = 32):
    """c_u with gamma_u-tilde(q) - q-tilde = d-tilde * c_u, or a witness.

    For u = 1 + p^(alpha+1) v with integer v >= 0 the ghosts have the
    closed polynomial form q^(p^n) (q^(p^(n+alpha)) - 1) [v]_{q^(p^(n+alpha+1))}
    and everything is certified exactly in Z[q].  For a unit exponent u
    (int or PadicInt) not congruent to 1 mod p^(alpha+1), the divisibility
    of q^(u p^n) - q^(p^n) by [p]_{q^(p^(n+alpha))} already fails at n = 0
    and the failure is returned as a value.
    """
    mod = p ** (alpha + 1)
    u_int = u if isinstance(u, int) else None
    if u_int is not None and u_int % mod == 1 % mod and u_int >= 1:
        v = (u_int - 1) // mod
        pres = RingPresentation(p, alpha)
        ghosts = [pres.q_pow(p**n) * (pres.q_pow(p ** (n + alpha)) - pres.one())
                  * q_analogue(pres, v, p ** (n + alpha + 1)) for n in range(L)]
        q_diff = [pres.q_pow(u_int * p**n) - pres.q_pow(p**n) for n in range(L)]
        r0 = ghosts[0] == pres.q_pow(1) * pres.beta() if v == 1 else True
        return _certify(f"c_u(u={u_int})", pres, ghosts, q_diff,
                        "q^(u p^n) - q^(p^n)", ("r_0 = q (q^(p^alpha) - 1)", r0),
                        ExactPolyBase(pres))

    # non-congruent unit: witness the divisibility failure at n = 0;
    # the witness needs room for one distinguished division regardless
    # of the configured truncation
    from .padic import d_poly_t, vp_factorial
    deg = (p - 1) * p**alpha
    M_wit = 3 * deg + 6
    if not isinstance(u, int):
        N = min(N, u.prec - vp_factorial(p, M_wit - 1))
        if N < 2:
            raise PrecisionError("exponent carries too few digits for a witness")
    qu = TruncSeries.q_power(p, N, M_wit, u)
    num = qu - TruncSeries.q_power(p, N, M_wit, 1)
    _, R, cert = num.weierstrass_divmod(d_poly_t(p, alpha))
    rem = [x % p**cert for x in R]
    if all(x == 0 for x in rem):
        raise GhostSolveError("expected a divisibility failure but found none")
    from .padic import vp_int
    vals = [vp_int(x, p) for x in rem if x]
    return NonexistenceWitness(0, min(vals),
                               "q^u - q is not divisible by [p]_{q^(p^alpha)}")


def construct_c_psi(p: int, alpha: int, L: int, N: int = 8, M: int = 32,
                    backend: str = "series") -> Construction:
    """c_psi(T) with psi-tilde(T) - iota-tilde(T) = d-tilde * c_psi(T).

    Ghosts r_n = T^(p^n - 1) [p^n]_{q^(p^alpha)} * eps dT over the chart
    ring with one coordinate.
    """
    pres = RingPresentation(p, alpha, m=1, has_eps0=False)
    ghost_polys = [
        pres.t_pow(0, p**n - 1) * q_analogue(pres, p**n, p**alpha) * pres.eps(0)
        for n in range(L)
    ]
    t_diff = [psi_t_power(pres, 0, p**n) - pres.t_pow(0, p**n) for n in range(L)]
    base = (ExactPolyBase(pres) if backend == "exact"
            else GradedEpsBase(p, N + L - 1, M, alpha))
    return _certify("c_psi", pres, ghost_polys, t_diff, "psi(T^(p^n)) - T^(p^n)",
                    ("r_0 = eps dT", ghost_polys[0] == pres.eps(0)), base,
                    "multiply-back d-tilde * c_psi = psi-tilde(T) - iota-tilde(T)")


def d_as_V1(p: int, alpha: int, L: int, N: int = 8) -> Construction:
    """The delta-lift of d into the Witt vectors of A/d has ghosts
    (0, p, p, ...) and coordinates V(1)."""
    ring = QuotientRing(p, N + L - 1, alpha, 1)
    base = QuotBase(ring)
    imgs = [base.transport(g) for g in _phi_n_d(RingPresentation(p, alpha), L)]
    checks = {}
    expected = [ring.const(0)] + [ring.const(p)] * (L - 1)
    checks["ghost sequence is (0, p, p, ...)"] = all(
        a == b for a, b in zip(imgs, expected))
    w = from_ghost(base, imgs, check_dwork=False)
    v1 = witt_one(base, L).V()
    checks["coordinates equal V(1)"] = w == v1
    return Construction("d = V(1)", w, imgs, checks)


def delta_power_membership(n: int, k: int, p: int, N: int = 8, M: int = 30) -> bool:
    """delta^k((q-1)^n) lies in ((q-1)^n).

    Computed in truncated series with certified divisions by p, and
    cross-checked in exact Z[q] (where the divisibility is literal).
    """
    if k == 0:
        return True
    f = TruncSeries.t_power(p, N + k, M, 1) ** n
    for _ in range(k):
        f = (f.phi() - f**p).divide_p_pow(1)
    try:
        f.divide_t_pow(n)
        series_ok = True
    except DivisionCertificateError:
        series_ok = False
    pres = RingPresentation(p, 0)
    g = (pres.q_pow(1) - pres.one()) ** n
    for _ in range(k):
        g = (g.frobenius() - g**p).divide_coefficients(p)
    from .exactcore import divides_exactly
    exact_ok = divides_exactly(g, (pres.q_pow(1) - pres.one()) ** n)
    return series_ok and exact_ok
