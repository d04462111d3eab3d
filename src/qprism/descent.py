"""The unit-group action on the series ring and the descent computations.

At alpha = 0 the group of prime-to-p Teichmuller exponents acts by
q -> q^[u].  The invariant element ptilde = sum_e q^[e] (over all
residues, with [0] = 0) differs from d by a unit, and the invariant
subring is the power series ring in ptilde.  The basic map is

    f(g) = gamma(g) - g,      gamma: q -> q^(p+1),

which carries Z_p[[ptilde]] into the submodule B of series vanishing at
ptilde = p; B is the product of Z_p e_l with e_l = ptilde^l (ptilde - p).

Everything is computed in certified ptilde-digit coordinates.  The
first `count` digits of a series are found in A/d^count: one Weierstrass
remainder reduces it mod d^count, then each step divides the polynomial
by d, certifies the remainder is a Z_p-constant (the membership
certificate for the invariant subring), and multiplies the quotient by
the inverse of the unit ptilde/d mod d^count (``_digit_chain``).  The
e-coordinates of an element of B are a_l = sum_m p^m c_(l+1+m), a
p-adically convergent refolding of the digits c_j.

Degree bookkeeping: f(ptilde) has a unit coefficient on e_p -- the
element gamma(ptilde) tops out at ptilde-degree p+1 -- and the
leading index of f(ptilde^k) is k(p+1) - 1, staying in the residue
class of p mod (p+1).  Whether the coordinates ABOVE the leading index
vanish is measured, not assumed: it holds for p = 3, where the
Teichmuller exponents are just {1, -1} and everything is a Chebyshev
polynomial in ptilde, and it genuinely fails for p >= 5, where the
exponent group has extra directions whose symmetric functions are
infinite series in ptilde.  All residuals are reported with their
indices, never dropped.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from operator import add

from .padic import (
    ModMat,
    PadicInt,
    QuotientRing,
    TruncSeries,
    _exponent_key,
    _poly_mul,
    d_poly_t,
    d_prime_elem,
    distinguished_divmod,
    howell_mod,
    mat_mul_mod,
    teichmuller,
    vp_factorial,
    vp_int,
)


@dataclass
class DescentContext:
    p: int
    N: int
    K: int
    teich: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    digits: list = None       # ptilde-digits (value, certified prec) of f(ptilde)
    w_prec: int = 0
    w_poly_residuals: list = None  # indices > p+1 with nonzero digits
    M_work: int = 0
    gamma_powers: ModMat = None  # see _gamma_powers

    @property
    def ok(self):
        return all(self.checks.values())

    def w_coeff(self, j: int) -> int:
        if j < len(self.digits):
            return self.digits[j][0] % self.p**self.w_prec
        return 0


def _digit_chain(p: int, h: TruncSeries, u_inv: TruncSeries, d_t: list,
                 count: int) -> list:
    """The first `count` ptilde-adic digits (c_k, certified prec) of an
    invariant series h, given u_inv = (ptilde/d)^(-1).

    They are the digits of the round chain cur_0 = h,
    cur_k = c_k + d Q_k (Weierstrass division by d, whose remainder c_k
    must be a Z_p-constant: the membership certificate for the invariant
    subring), cur_(k+1) = Q_k u_inv, so that cur_k = c_k + ptilde cur_(k+1).

    Here they are found in A/Phi, Phi = d^count (distinguished, of degree
    n = r count, built mod p^N by squaring).  The remainders of two
    Weierstrass divisions (``weierstrass_divmod``) give S_0 = h mod Phi and
    u = u_inv mod Phi, each certified to min(N, floor(M/n)) digits
    (``build_context`` keeps floor(M/n) >= N + 2, so the quotient those
    divisions also form has digits); then each step divides the
    polynomial S_k (degree < n) by the monic d, certifies the remainder is
    a constant, and sets S_(k+1) = Q u mod Phi, all by
    ``distinguished_divmod``, exact on polynomials.  The digits and the
    certificate are the round chain's: S_k = cur_k mod d^(count-k).  For
    k = 0 this is h = S_0 mod Phi.  If it holds for k, the two remainders
    by d agree mod d, and both have degree < r, so they are equal; then
    d (Q - Q_k) is divisible by d^(count-k), and as d is a non-zero-divisor
    Q = Q_k mod d^(count-k-1), so S_(k+1) = cur_(k+1) mod d^(count-k-1),
    as u = u_inv mod Phi.
    """
    if count <= 0:
        return []
    mod_in = p**max(h.N, u_inv.N)
    phi, base, k = [1], list(d_t), count
    while k:
        if k & 1:
            phi = _poly_mul(phi, base, mod_in)
        k >>= 1
        if k:
            base = _poly_mul(base, base, mod_in)
    _, S, cert_h = h.weierstrass_divmod(phi)
    _, ubar, cert_u = u_inv.weierstrass_divmod(phi)
    cert = min(cert_h, cert_u)
    mod = p**cert
    digits = []
    for k in range(count):
        if k:
            S = distinguished_divmod(p, cert, _poly_mul(Q, ubar, mod), phi, 0)[1]
        Q, R = distinguished_divmod(p, cert, S, d_t)
        if any(R[1:]):
            raise ArithmeticError(
                "remainder is not a constant: input is not in the "
                "invariant power-series ring at this precision")
        digits.append((R[0], cert))
    return digits


def build_context(p: int, N: int = 8, K: int = 5, digits: int = None) -> DescentContext:
    """Construct the descent data at alpha = 0 and certify its invariants."""
    count = digits if digits is not None else K * (p + 1) + N + 2
    r = p - 1
    M_work = (N + 2) * r * (count + 3)
    n_teich = N + vp_factorial(p, M_work) + 2
    ctx = DescentContext(p, N, K, M_work=M_work)
    ctx.teich = {u: teichmuller(p, u, n_teich) for u in range(1, p)}

    mult_ok = all(
        (ctx.teich[u] * ctx.teich[v]).residue
        == ctx.teich[(u * v) % p].residue % p**n_teich
        for u in range(1, p) for v in range(1, p))
    ctx.checks["teichmuller lifts multiplicative"] = mult_ok

    # each exponent's series is computed once: the exponent-permutation
    # sums meet the ptilde exponents again
    series = {}

    def qp(e):
        key = _exponent_key(e)
        if key not in series:
            series[key] = TruncSeries.q_power(p, N, M_work, e)
        return series[key]

    ptilde = TruncSeries.one(p, N, M_work)
    for u in range(1, p):
        ptilde = ptilde + qp(ctx.teich[u])
    ctx.checks["ptilde(q=1) = p"] = ptilde.coeff(0) == PadicInt(p, N, p)

    # invariance: gamma_u permutes the Teichmuller exponents (with the
    # multiplicativity above), rechecked by one honest substitution
    inv_ok = True
    for u in range(1, p):
        img = TruncSeries.one(p, N, M_work)
        for v in range(1, p):
            img = img + qp(ctx.teich[u] * ctx.teich[v])
        inv_ok = inv_ok and (img == ptilde)
    ctx.checks["gamma_u(ptilde) = ptilde (exponent permutation)"] = inv_ok
    series.clear()  # not held through the digit chain below
    small = ptilde.reduce_prec(M=32)
    subst_ok = True
    for u in range(1, min(p, 4)):
        gu = small.gamma_u(ctx.teich[u])
        subst_ok = subst_ok and (gu == small)
    ctx.checks["gamma_u(ptilde) = ptilde (direct substitution)"] = subst_ok

    d_t = d_poly_t(p, 0)
    u_d, R, cert = ptilde.weierstrass_divmod(d_t)
    ctx.checks["ptilde = unit * d"] = (
        all(x % p**cert == 0 for x in R) and u_d.is_unit())
    u_inv = u_d.unit_inverse()

    # w = f(ptilde) = gamma(ptilde) - ptilde = 1 - ptilde + sum_u q^([u](p+1))
    w = TruncSeries.one(p, N, M_work) - ptilde
    for u in range(1, p):
        w = w + TruncSeries.q_power(p, N, M_work, ctx.teich[u] * (p + 1))
    digs = _digit_chain(p, w, u_inv, d_t, count)
    ctx.checks["f(ptilde) lies in the invariant subring"] = True  # chain succeeded
    ctx.digits = digs
    ctx.w_prec = min(c for _, c in digs)
    ctx.checks["f(ptilde) has no constant digit"] = digs[0][0] % p**digs[0][1] == 0
    ctx.checks["f(ptilde) is monic at ptilde-degree p+1"] = (
        digs[p + 1][0] % p**digs[p + 1][1] == 1 % p**digs[p + 1][1])
    ctx.w_poly_residuals = [j for j in range(p + 2, len(digs))
                            if digs[j][0] % p**digs[j][1]]
    return ctx


# ---------------------------------------------------------------------------
# f on the span of ptilde powers, and e-coordinates
# ---------------------------------------------------------------------------


def _gamma_powers(ctx: DescentContext, n: int) -> ModMat:
    """The rows gamma(ptilde)^j, j < n at least, in ptilde-coefficients
    padded to one width, where gamma(ptilde) = ptilde + w.  They are kept
    on the context (``ctx.gamma_powers``) and rebuilt for a larger n."""
    if ctx.gamma_powers is None or len(ctx.gamma_powers) < n:
        mod = ctx.p**ctx.w_prec
        g = [ctx.w_coeff(j) for j in range(len(ctx.digits))]
        g[1] = (g[1] + 1) % mod
        pows = [[1]]
        while len(pows) < n:
            pows.append(_poly_mul(pows[-1], g, mod))
        width = len(pows[-1])
        ctx.gamma_powers = ModMat.of_reduced([x + [0] * (width - len(x)) for x in pows], mod)
    return ctx.gamma_powers


def f_map(ctx: DescentContext, coeffs: list) -> list:
    """f of sum_j coeffs[j] ptilde^j in ptilde digit coordinates: one
    product of the row of c_j by the rows gamma(ptilde)^j, minus the c_j."""
    mod = ctx.p**ctx.w_prec
    if not coeffs:
        return [0]
    cs = [c % mod for c in coeffs]
    out = list(mat_mul_mod([cs], _gamma_powers(ctx, len(cs)), mod)[0])
    for j, c in enumerate(cs):
        out[j] = (out[j] - c) % mod
    return out[:1 + (len(cs) - 1) * (len(ctx.digits) - 1)]


def f_on_powers(ctx: DescentContext, kmax: int) -> list:
    return [f_map(ctx, [0] * k + [1]) for k in range(kmax + 1)]


def to_e_coords(ctx: DescentContext, poly: list, rows: int):
    """e-coordinates a_l = sum_m p^m c_(l+1+m) of an element of B, with
    the p-adic refolding certified to the context precision, plus the
    consistency check c_0 = -p a_0."""
    p = ctx.p
    mod = p**ctx.w_prec
    coords = []
    for l in range(rows):
        acc, pm = 0, 1
        for m in range(ctx.w_prec + 1):
            j = l + 1 + m
            acc += pm * (poly[j] if j < len(poly) else 0)
            pm *= p
        coords.append(acc % mod)
    a0 = coords[0] if coords else 0
    consistent = ((poly[0] if poly else 0) + p * a0) % mod == 0
    return coords, consistent


@dataclass
class WCartReport:
    p: int
    K: int
    prec: int
    leading: list          # (k, leading index, coefficient)
    residuals: dict        # k -> [(index, valuation)] above the leading index
    free_indices: list
    checks: dict

    @property
    def ok(self):
        return all(self.checks.values())


def wcart_h1_structure(ctx: DescentContext) -> WCartReport:
    """Leading-term structure of f on the ptilde-power span.

    For k = 1..K the e-coordinates of f(ptilde^k) are computed with a
    unit expected at index k(p+1) - 1; any nonzero coordinates above the
    leading index are reported as residuals (they vanish for p = 3 and
    genuinely exist for p >= 5).  The kernel statement (constants only)
    is certified by honest column reduction of the coordinate matrix,
    independent of the residual structure.
    """
    p, K = ctx.p, ctx.K
    mod = p**ctx.w_prec
    rows = K * (p + 1) + ctx.N
    fs = f_on_powers(ctx, K)
    checks = {}
    leading = []
    residuals = {}
    cols = []
    for k in range(1, K + 1):
        coords, consistent = to_e_coords(ctx, fs[k], rows)
        cols.append(coords)
        lead = k * (p + 1) - 1
        checks[f"f(ptilde^{k}) in B (vanishes at ptilde = p)"] = consistent
        checks[f"leading coefficient at index {lead} (k={k}) is a unit"] = (
            coords[lead] % p != 0)
        res = [(l, vp_int(coords[l], p)) for l in range(lead + 1, rows)
               if coords[l] % mod]
        residuals[k] = res
        checks[f"no residual above index {lead} (k={k})"] = not res
        leading.append((k, lead, coords[lead] % mod))
        if k == 1:
            support = [l for l, c in enumerate(coords) if c % mod]
            checks["k=1 support inside {1..p}"] = all(1 <= l <= p for l in support)
    bound = K * (p + 1) - 1
    hit = {k * (p + 1) - 1 for k in range(1, K + 1)}
    free = [l for l in range(bound + 1) if l not in hit]
    checks["free indices are exactly l != p mod p+1 up to the bound"] = (
        free == [l for l in range(bound + 1) if l % (p + 1) != p])

    # kernel = constants: the coordinate matrix of f(ptilde^1..K) has
    # independent columns over Z/p^N (checked by row reduction)
    mat = [[cols[k][l] for k in range(K)] for l in range(rows)]
    form = howell_mod([[row[k] for row in mat] for k in range(K)], p, ctx.w_prec)
    unit_rows = sum(1 for r in form if any(x % p for x in r))
    checks["kernel = constants (columns independent with unit pivots)"] = (
        unit_rows == K)
    return WCartReport(p, K, ctx.w_prec, leading, residuals, free, checks)


def f_leibniz_check(ctx: DescentContext, rng, trials: int = 100) -> bool:
    """f(xy) = f(x)y + x f(y) + f(x) f(y) on random ptilde-polynomials.

    The law holds for f = gamma - id whenever gamma is a ring map, and
    gamma(ptilde) = ptilde + w defines one for any w.  So the check
    certifies ``f_map`` (the sum of packed gamma-powers), not the digits
    of w = f(ptilde): it passes on random digit vectors as well."""
    p = ctx.p
    mod = p**ctx.w_prec
    deg = max(1, ctx.K // 2)
    for _ in range(trials):
        x = [rng.randrange(mod) for _ in range(deg + 1)]
        y = [rng.randrange(mod) for _ in range(deg + 1)]
        lhs = f_map(ctx, _poly_mul(x, y, mod))
        fx, fy = f_map(ctx, x), f_map(ctx, y)
        rhs = _poly_mul(fx, y, mod)
        for part in (_poly_mul(x, fy, mod), _poly_mul(fx, fy, mod)):
            rhs.extend([0] * (len(part) - len(rhs)))
            rhs[:len(part)] = map(add, rhs, part)
        n = max(len(lhs), len(rhs))
        lhs = lhs + [0] * (n - len(lhs))
        rhs = rhs + [0] * (n - len(rhs))
        if any((a - b) % mod for a, b in zip(lhs, rhs)):
            return False
    return True


def averaging_projector_check(p: int, N: int = 6, M: int = 24) -> bool:
    """Pi = (1/(p-1)) sum_u gamma_u is idempotent and fixes ptilde-powers
    (and five random series, seed 0)."""
    import random
    rng = random.Random(0)
    n_t = N + vp_factorial(p, M) + 1
    lifts = [teichmuller(p, u, n_t) for u in range(1, p)]
    inv = pow(p - 1, -1, p**N)

    def proj(f):
        acc = TruncSeries.zero(p, N, M)
        for u in lifts:
            acc = acc + f.gamma_u(u)
        return acc * inv

    ptilde = TruncSeries.one(p, N, M)
    for u in lifts:
        ptilde = ptilde + TruncSeries.q_power(p, N, M, u)
    for k in range(3):
        if not (proj(ptilde**k) == ptilde**k):
            return False
    for _ in range(5):
        f = TruncSeries(p, N, M, [rng.randrange(p**N) for _ in range(M)])
        pf = proj(f)
        if not (proj(pf) == pf):
            return False
    return True


# ---------------------------------------------------------------------------
# the eps-action identities
# ---------------------------------------------------------------------------


class EpsilonAction:
    """The unit-group action on the square-zero extension, one check at a
    time: well-definedness on eps^2, equivariance of psi, and the
    invariant generator v = e*eps mod d.

    With x = q^(p^alpha), k = [u] and d = [p]_x: eps^2 = q (x - 1) eps,
    gamma_u(q) = q^k and gamma_u(eps) = X_u eps, X_u = q^(k-1) [k]_x.
    - Well defined: gamma_u(eps)^2 = gamma_u(eps^2) reads
      X_u^2 q (x - 1) = q^k (x^k - 1) X_u; both are q^(2k-1) (x^k - 1) [k]_x.
    - Equivariant: [p]_(x^k) [k]_x = [pk]_x, so q^(k-1) [pk]_x = gamma_u(d) X_u.
    - Invariant: e q (x - 1) = p^(alpha+1) mod d for e = d'(q), the e-beta
      identity (mod d, x is a primitive p-th root of unity z, and [p]_y has
      derivative p / (z (z - 1)) at y = z).  gamma_u preserves (d), so
      gamma_u(e) X_u q (x - 1) = gamma_u(e) q^k (x^k - 1) = e q (x - 1)
      mod d; A/d is a domain where q (x - 1) is not 0.
    At alpha = 0, x = q.  [n]_x is (q^n - 1)/(q - 1), one t-digit lost to
    the division by t, then q -> x (``_analogue_x``).  X_u is built once,
    on first use, and shared; with no t-digit left the division, and so
    each check that reads X_u, raises ``PrecisionError``.
    """

    CHECKS = (("action well defined on eps^2", "well_defined"),
              ("psi is unit-group equivariant", "equivariant"),
              ("v = e*eps is invariant mod d", "invariant_mod_d"))

    def __init__(self, p: int, alpha: int = 0, N: int = 8, M: int = 24):
        self.p, self.alpha, self.N, self.M = p, alpha, N, M
        n_t = N + vp_factorial(p, M) + 2
        self.lifts = {u: teichmuller(p, u, n_t) for u in range(1, p)}
        self.one = TruncSeries.one(p, N, M)

    def qpow(self, e) -> TruncSeries:
        return TruncSeries.q_power(self.p, self.N, self.M, e)

    def _analogue_x(self, n) -> TruncSeries:
        """[n]_x with x = q^(p^alpha), for an exponent n (int or PadicInt)."""
        return (self.qpow(n) - self.one).divide_t_pow(1)._subst_q_power(self.p**self.alpha)

    @functools.cached_property
    def X(self) -> dict:
        """X_u = q^([u]-1) [[u]]_x for each unit u."""
        return {u: self.qpow(lift - 1) * self._analogue_x(lift)
                for u, lift in self.lifts.items()}

    @functools.cached_property
    def well_defined(self) -> bool:
        x = self.qpow(self.p**self.alpha)
        eps_sq = self.qpow(1) * (x - self.one)
        ok = True
        for u, lift in self.lifts.items():
            xu = self.X[u]
            rhs = self.qpow(lift) * (self.qpow(lift * self.p**self.alpha) - self.one) * xu
            ok = ok and (xu * xu * eps_sq == rhs)
        return ok

    @functools.cached_property
    def equivariant(self) -> bool:
        d = TruncSeries.d_series(self.p, self.N, self.M, self.alpha)
        ok = True
        for u, lift in self.lifts.items():
            lhs = self._analogue_x(lift * self.p) * self.qpow(lift - 1)
            ok = ok and (lhs == d.gamma_u(lift) * self.X[u])
        return ok

    @functools.cached_property
    def invariant_mod_d(self) -> bool:
        p, N, M = self.p, self.N, self.M
        ring = QuotientRing(p, N, self.alpha, 1)
        e_el = d_prime_elem(ring)
        d_prime = TruncSeries.d_series(p, N, M, self.alpha).derivative_q()
        ok = True
        for u, lift in self.lifts.items():
            ge = ring.from_series(d_prime.gamma_u(lift))
            ok = ok and (ge * ring.from_series(self.X[u]) == e_el)
        return ok


def e_beta_is_p_mod_d(p: int, N: int = 8) -> bool:
    """e * q(q-1) = p in A/d at alpha = 0, with e = d'(q).  The identity
    lives in A/d and needs no t-digit, unlike the checks of
    ``EpsilonAction``, which divide by t to build X_u."""
    ring = QuotientRing(p, N, 0, 1)
    beta_el = ring.q_power(1) * (ring.q_power(1) - 1)
    return d_prime_elem(ring) * beta_el == ring.const(p)
