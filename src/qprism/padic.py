"""Capped-precision arithmetic: Z/p^N integers, truncated power series in
t = q - 1, certified exact division, and linear algebra over Z/p^N.

Every value carries its own precision metadata.  Binary operations take
the minimum of the operands' precisions; genuinely lossy operations
(division by p-powers, by t-powers, or by distinguished polynomials)
reduce the stated precision by the honest amount.  Division never
guesses: when a quotient is returned, the remainder has been checked to
vanish at the certified precision, and a nonzero remainder raises.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from operator import mul
from typing import Sequence


class DivisionCertificateError(Exception):
    """An allegedly exact division left a nonzero remainder."""


class PrecisionError(Exception):
    """Not enough certified digits to carry out the requested operation."""


def vp_int(x: int, p: int):
    """p-adic valuation of an integer; None for 0."""
    if x == 0:
        return None
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


# ---------------------------------------------------------------------------
# PadicInt
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PadicInt:
    """Element of Z/p^N with N = prec absolute digits."""

    p: int
    prec: int
    residue: int

    def __post_init__(self):
        object.__setattr__(self, "residue", self.residue % self.p**self.prec)

    def _join(self, other):
        if isinstance(other, int):
            other = PadicInt(self.p, self.prec, other)
        if other.p != self.p:
            raise ValueError("mixed primes")
        return other, min(self.prec, other.prec)

    def __add__(self, other):
        other, n = self._join(other)
        return PadicInt(self.p, n, self.residue + other.residue)

    __radd__ = __add__

    def __neg__(self):
        return PadicInt(self.p, self.prec, -self.residue)

    def __sub__(self, other):
        other, n = self._join(other)
        return PadicInt(self.p, n, self.residue - other.residue)

    def __mul__(self, other):
        other, n = self._join(other)
        return PadicInt(self.p, n, self.residue * other.residue)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            return self.unit_inverse() ** (-k)
        return PadicInt(self.p, self.prec, pow(self.residue, k, self.p**self.prec))

    def __eq__(self, other):
        if isinstance(other, int):
            other = PadicInt(self.p, self.prec, other)
        n = min(self.prec, other.prec)
        return (self.residue - other.residue) % self.p**n == 0

    def __hash__(self):
        return hash((self.p, self.prec, self.residue))

    def vp(self):
        """Valuation, or None meaning >= prec."""
        if self.residue % self.p**self.prec == 0:
            return None
        return vp_int(self.residue, self.p)

    def is_unit(self) -> bool:
        return self.residue % self.p != 0

    def unit_inverse(self) -> "PadicInt":
        if not self.is_unit():
            raise ZeroDivisionError("not a unit")
        return PadicInt(self.p, self.prec, pow(self.residue, -1, self.p**self.prec))

    def divide_p_pow(self, a: int) -> "PadicInt":
        if self.residue % self.p**min(a, self.prec) != 0:
            raise DivisionCertificateError(f"not divisible by p^{a}")
        if self.prec <= a:
            raise PrecisionError("no digits left after division")
        return PadicInt(self.p, self.prec - a, self.residue // self.p**a)

    def reduce_prec(self, n: int) -> "PadicInt":
        return PadicInt(self.p, min(self.prec, n), self.residue)

    def render(self) -> str:
        return str(self.residue)

    def __repr__(self):
        return f"{self.residue} + O({self.p}^{self.prec})"


def teichmuller(p: int, e: int, prec: int) -> PadicInt:
    """The unique (p-1)-st root of unity congruent to e mod p.

    Computed by the contracting Frobenius iteration x -> x^p.
    """
    if e % p == 0:
        raise ValueError("no multiplicative lift of 0")
    mod = p**prec
    x = e % mod
    for _ in range(prec + 1):
        x = pow(x, p, mod)
    return PadicInt(p, prec, x)


def vp_factorial(p: int, n: int) -> int:
    v, q = 0, n
    while q:
        q //= p
        v += q
    return v


# ---------------------------------------------------------------------------
# The polynomial product kernel over Z/p^N
# ---------------------------------------------------------------------------


def _poly_mul(a, b, mod: int, n: int = None) -> list:
    """Coefficients 0..n-1 (default: all) of a*b mod `mod`, exactly.

    Kronecker substitution: the reduced coefficients are packed into
    little-endian slots of one Python int, multiplied once, and read back.
    A product coefficient is a sum of at most min(len a, len b) products
    of residues below `mod`, so slots of 2*bits(mod-1) + bits(min) bits
    never carry into each other.  The inputs must be reduced first: a
    caller may pass entries known modulo a larger power of p, or negative
    ones, that would overflow a slot sized from `mod`.
    """
    if n is None:
        n = len(a) + len(b) - 1 if a and b else 0
    a = [x % mod for x in a[:n]]
    b = [x % mod for x in b[:n]]
    if not a or not b:
        return [0] * n
    width = 2 * (mod - 1).bit_length() + min(len(a), len(b)).bit_length()
    slots = len(a) + len(b) - 1
    k = min(n, slots)
    if width <= 64:
        prod = (int.from_bytes(struct.pack(f"<{len(a)}Q", *a), "little")
                * int.from_bytes(struct.pack(f"<{len(b)}Q", *b), "little"))
        out = struct.unpack_from(f"<{k}Q", prod.to_bytes(8 * slots, "little"))
        out = [x % mod for x in out]
    else:
        w = (width + 7) // 8
        prod = (int.from_bytes(b"".join(x.to_bytes(w, "little") for x in a), "little")
                * int.from_bytes(b"".join(x.to_bytes(w, "little") for x in b), "little"))
        buf = prod.to_bytes(w * slots, "little")
        out = [int.from_bytes(buf[i:i + w], "little") % mod
               for i in range(0, w * k, w)]
    out.extend([0] * (n - k))
    return out


@functools.cache
def _q_subst_cols(p: int, N: int, M: int, k: int) -> tuple:
    """The matrix of f(q) -> f(q^k) on t-coefficients mod (p^N, t^M).

    Column n is (q^k - 1)^n.  As t divides q^k - 1, the matrix is lower
    triangular, and it is stored by rows: row i holds the t^i coefficients
    of columns 0..i.  Building it takes M - 1 packed multiplies, the cost
    of one Horner substitution.
    """
    mod = p**N
    s = [0] + [math.comb(k, n) % mod for n in range(1, min(M, k + 1))]
    cols = [[1 % mod] + [0] * (M - 1)]
    for _ in range(M - 1):
        cols.append(_poly_mul(cols[-1], s, mod, M))
    return tuple(tuple(col[i] for col in cols[:i + 1]) for i in range(M))


# ---------------------------------------------------------------------------
# TruncSeries: (Z/p^N)[[t]] / (t^M), with q = 1 + t
# ---------------------------------------------------------------------------


class TruncSeries:
    """Truncated power series in t = q - 1 with capped p-precision."""

    __slots__ = ("p", "N", "M", "c")

    def __init__(self, p: int, N: int, M: int, coeffs: Sequence[int]):
        if N < 1 or M < 1:
            raise ValueError("need N >= 1 and M >= 1")
        self.p = p
        self.N = N
        self.M = M
        mod = p**N
        cs = [x % mod for x in coeffs[:M]]
        cs.extend([0] * (M - len(cs)))
        self.c = cs

    @staticmethod
    def _of_reduced(p, N, M, cs: list) -> "TruncSeries":
        """Wrap M coefficients already reduced mod p^N, without a copy."""
        out = TruncSeries.__new__(TruncSeries)
        out.p, out.N, out.M, out.c = p, N, M, cs
        return out

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(p, N, M):
        return TruncSeries(p, N, M, [])

    @staticmethod
    def const(p, N, M, value: int):
        return TruncSeries(p, N, M, [value])

    @staticmethod
    def one(p, N, M):
        return TruncSeries.const(p, N, M, 1)

    @staticmethod
    def t_power(p, N, M, k: int):
        return TruncSeries(p, N, M, [0] * k + [1])

    @staticmethod
    def q_power(p, N, M, k):
        """q^k = (1+t)^k for k an integer or PadicInt.

        For a p-adic exponent the binomials are generated by the
        iteration C(k, n+1) = C(k, n)(k - n)/(n + 1) carried out
        modularly, with the honest digit loss v_p(n!) checked against
        the precision of the exponent.
        """
        if isinstance(k, int) and k >= 0:
            cs = [math.comb(k, n) for n in range(min(M, k + 1))]
            return TruncSeries(p, N, M, cs)
        if isinstance(k, int):
            cs, c = [], 1
            for n in range(M):
                cs.append(c)
                c = c * (k - n) // (n + 1)
            return TruncSeries(p, N, M, cs)
        need = N + vp_factorial(p, max(M - 1, 1))
        if k.prec < need:
            raise PrecisionError(
                f"need exponent mod p^{need} to certify (1+t)^u to t^{M}")
        mod = p**k.prec
        cs, c, r = [1], 1 % mod, k.residue % mod
        for n in range(M - 1):
            c = c * ((r - n) % mod) % mod
            dv = n + 1
            v = vp_int(dv, p) or 0
            if v:
                if c % p**v:
                    raise ArithmeticError("binomial iteration lost exactness")
                c //= p**v
                dv //= p**v
            c = c * pow(dv, -1, mod) % mod
            cs.append(c)
        return TruncSeries(p, N, M, cs)

    @staticmethod
    def from_q_poly(p, N, M, qcoeffs: dict):
        """Sum of c * q^e over the (possibly huge or negative) exponents e."""
        out = TruncSeries.zero(p, N, M)
        for e, coef in qcoeffs.items():
            out = out + TruncSeries.q_power(p, N, M, e) * coef
        return out

    @staticmethod
    def q_analogue(p, N, M, n: int, base: int = 1):
        """[n]_{q^base} as a series."""
        mod = p**N
        cs = [0] * M
        for i in range(n):
            k = base * i
            for j in range(min(M, k + 1)):
                cs[j] = (cs[j] + math.comb(k, j)) % mod
        return TruncSeries(p, N, M, cs)

    @staticmethod
    def d_series(p, N, M, alpha: int):
        """[p]_{q^(p^alpha)}, the distinguished element."""
        return TruncSeries.q_analogue(p, N, M, p, p**alpha)

    # -- basic ring ops --------------------------------------------------------

    def _join(self, other):
        if isinstance(other, int):
            other = TruncSeries.const(self.p, self.N, self.M, other)
        if other.p != self.p:
            raise ValueError("mixed primes")
        return other, min(self.N, other.N), min(self.M, other.M)

    def __add__(self, other):
        other, N, M = self._join(other)
        mod = self.p**N
        return TruncSeries(self.p, N, M,
                           [(self.c[i] + other.c[i]) % mod for i in range(M)])

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries(self.p, self.N, self.M, [-x for x in self.c])

    def __sub__(self, other):
        other, N, M = self._join(other)
        mod = self.p**N
        return TruncSeries(self.p, N, M,
                           [(self.c[i] - other.c[i]) % mod for i in range(M)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            mod = self.p**self.N
            return TruncSeries(self.p, self.N, self.M,
                               [(x * other) % mod for x in self.c])
        other, N, M = self._join(other)
        return TruncSeries(self.p, N, M, _poly_mul(self.c, other.c, self.p**N, M))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            return self.unit_inverse() ** (-k)
        out = TruncSeries.one(self.p, self.N, self.M)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __eq__(self, other):
        other, N, M = self._join(other)
        mod = self.p**N
        return all((self.c[i] - other.c[i]) % mod == 0 for i in range(M))

    def is_zero(self) -> bool:
        mod = self.p**self.N
        return all(x % mod == 0 for x in self.c)

    def coeff(self, n: int) -> PadicInt:
        if n >= self.M:
            raise PrecisionError("coefficient beyond t-precision")
        return PadicInt(self.p, self.N, self.c[n])

    def reduce_prec(self, N=None, M=None) -> "TruncSeries":
        N = self.N if N is None else min(N, self.N)
        M = self.M if M is None else min(M, self.M)
        return TruncSeries(self.p, N, M, self.c[:M])

    # -- units, substitution, derivations --------------------------------------

    def is_unit(self) -> bool:
        return self.c[0] % self.p != 0

    def unit_inverse(self) -> "TruncSeries":
        if not self.is_unit():
            raise ZeroDivisionError("constant term not a unit")
        # Newton: g = f^(-1) mod t^k gives g(2 - f*g) = f^(-1) mod t^(2k)
        mod = self.p**self.N
        g, k = [pow(self.c[0], -1, mod)], 1
        while k < self.M:
            k = min(2 * k, self.M)
            e = [-x for x in _poly_mul(self.c, g, mod, k)]
            e[0] += 2
            g = _poly_mul(g, e, mod, k)
        return TruncSeries(self.p, self.N, self.M, g)

    def subst(self, image: "TruncSeries") -> "TruncSeries":
        """Composition f(q) -> f(image); image must be 1 mod t.

        Horner over M - 1 packed multiplies.  It serves ``phi`` and
        ``gamma_u`` (also with a PadicInt exponent), whose few calls per
        image would not repay an M x M table.  ``gamma0`` goes through
        ``_subst_q_power`` and its cached table.
        """
        image, N, M = self._join(image)
        if image.c[0] % self.p**N != 1 % self.p**N:
            raise ValueError("substitution image must be congruent to 1 mod t")
        s = image - TruncSeries.one(self.p, N, M)
        out = TruncSeries.const(self.p, N, M, self.c[M - 1] if M <= len(self.c) else 0)
        for n in range(M - 2, -1, -1):
            out = out * s + self.c[n]
        return out

    def phi(self) -> "TruncSeries":
        """Frobenius lift q -> q^p."""
        return self.subst(TruncSeries.q_power(self.p, self.N, self.M, self.p))

    def _subst_q_power(self, k: int) -> "TruncSeries":
        """f(q) -> f(q^k) for an integer k >= 0: one triangular
        matrix-vector product with the cached table, one reduction per
        entry."""
        p, N, M = self.p, self.N, self.M
        mod, c = p**N, self.c
        return TruncSeries._of_reduced(
            p, N, M, [sum(map(mul, c, row)) % mod
                      for row in _q_subst_cols(p, N, M, k)])

    def gamma0(self, alpha: int) -> "TruncSeries":
        """q -> q^(p^(alpha+1)+1)."""
        return self._subst_q_power(self.p ** (alpha + 1) + 1)

    def gamma_u(self, u) -> "TruncSeries":
        """q -> q^u for a unit exponent (int or PadicInt)."""
        return self.subst(TruncSeries.q_power(self.p, self.N, self.M, u))

    def derivative_q(self) -> "TruncSeries":
        """d/dq = d/dt."""
        mod = self.p**self.N
        out = [(self.c[n] * n) % mod for n in range(1, self.M)] + [0]
        return TruncSeries(self.p, self.N, self.M - 1, out[: self.M - 1])

    # -- certified divisions -----------------------------------------------

    def divide_p_pow(self, a: int) -> "TruncSeries":
        mod = self.p**min(a, self.N)
        if any(x % mod for x in self.c):
            raise DivisionCertificateError(f"series not divisible by p^{a}")
        if self.N <= a:
            raise PrecisionError("no p-digits left after division")
        modN = self.p**self.N
        return TruncSeries(self.p, self.N - a, self.M,
                           [(x % modN) // self.p**a for x in self.c])

    def divide_t_pow(self, b: int) -> "TruncSeries":
        mod = self.p**self.N
        if any(x % mod for x in self.c[:b]):
            raise DivisionCertificateError(f"series not divisible by t^{b}")
        if self.M <= b:
            raise PrecisionError("no t-digits left after division")
        return TruncSeries(self.p, self.N, self.M - b, self.c[b:])

    def times_p_pow(self, a: int, cap: int) -> "TruncSeries":
        """Multiply by p^a; a value known mod p^r times p^a is known mod
        p^(r+a), so the stated precision rises (up to the working cap)."""
        return TruncSeries(self.p, min(self.N + a, cap), self.M,
                           [x * self.p**a for x in self.c])

    def weierstrass_divmod(self, P: Sequence[int]):
        """Division with remainder by a distinguished polynomial.

        P is given by exact integer t-coefficients: monic of degree r with
        all non-leading coefficients divisible by p.  Returns
        (Q, R, r_prec): f = Q*P + R with deg_t R < r.

        Precision accounting: the iteration replaces t^r by -p*C, gaining
        a factor p while consuming r known t-digits, so the unknown tail
        of f contaminates the t-degree-j part of the quotient at level
        p^(ceil((M-j)/r) - 1).  The quotient is returned on the largest
        uniform box holding full p-precision, which costs (N+1)*r
        t-digits; the remainder coefficients are certified mod p^r_prec
        with r_prec = min(N, floor(M/r) - 1)-ish from the same count.
        """
        p = self.p
        r = len(P) - 1
        if P[r] != 1:
            raise ValueError("distinguished polynomial must be monic in t")
        if any(x % p for x in P[:r]):
            raise ValueError("lower coefficients must be divisible by p")
        if self.M <= r:
            raise PrecisionError("t-precision does not reach the divisor degree")
        minus_pC = [-x for x in P[:r]]  # -p*C, where P = t^r + p*C
        mod = p**self.N
        g = list(self.c)
        Mg = self.M
        Q = [0] * (self.M - r)
        R = [0] * r
        cert = self.N
        k = 0
        while True:
            if all(x % mod == 0 for x in g):
                break
            if Mg < r:
                cert = min(cert, k)
                break
            low, high = g[:r], g[r:Mg]
            for i in range(r):
                R[i] = (R[i] + low[i]) % mod
            for i, x in enumerate(high):
                if i < len(Q):
                    Q[i] = (Q[i] + x) % mod
            if k >= self.N:
                break
            # g <- -p*C*D(g)
            g = _poly_mul(minus_pC, high, mod, Mg - r)
            Mg = Mg - r
            k += 1
        cert = min(cert, self.N)
        N_q = min(self.N, self.M // r - 1)
        if N_q < 1:
            raise PrecisionError("quotient would carry no certified digits")
        M_q = self.M - (N_q + 1) * r + 1
        Qs = TruncSeries(p, N_q, max(M_q, 1), Q[: max(M_q, 1)])
        return Qs, [x % p**max(cert, 1) for x in R], cert

    def weierstrass_divide_exact(self, P: Sequence[int]) -> "TruncSeries":
        """Certified exact division by a distinguished polynomial."""
        Q, R, cert = self.weierstrass_divmod(P)
        if cert < 1 or any(x % self.p**cert for x in R):
            raise DivisionCertificateError(
                "nonzero remainder in distinguished division")
        return Q

    def render(self) -> str:
        mod = self.p**self.N
        parts = [f"{x % mod}*t^{n}" for n, x in enumerate(self.c) if x % mod]
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O({self.p}^{self.N}, t^{self.M})"

    def __repr__(self):
        return f"TruncSeries({self.render()})"


# -- distinguished polynomial data and composite division -------------------


def distinguished_poly_t(p: int, n: int, base_exp: int) -> list:
    """Exact integer t-coefficients of [n]_{q^base_exp}."""
    deg = base_exp * (n - 1)
    cs = [0] * (deg + 1)
    for i in range(n):
        k = base_exp * i
        for j in range(k + 1):
            cs[j] += math.comb(k, j)
    return cs


def d_poly_t(p: int, alpha: int) -> list:
    return distinguished_poly_t(p, p, p**alpha)


def divide_by_q_power_minus_one(f: TruncSeries, alpha: int) -> TruncSeries:
    """Certified division by q^(p^alpha) - 1 = (q-1) * prod [p]_{q^(p^(j-1))}.

    Mixes the t-adic loss (the q-1 factor) with the p-adic losses of the
    distinguished factors.
    """
    out = f.divide_t_pow(1)
    for j in range(1, alpha + 1):
        out = out.weierstrass_divide_exact(d_poly_t(f.p, j - 1))
    return out


def partial_arith(f: TruncSeries, alpha: int) -> TruncSeries:
    """The twisted derivation (gamma0(f) - f) / (q * (q^(p^alpha) - 1))."""
    num = f.gamma0(alpha) - f
    qinv = TruncSeries.q_power(f.p, f.N, f.M, -1)
    return divide_by_q_power_minus_one(num * qinv, alpha)


# ---------------------------------------------------------------------------
# Linear algebra over Z/p^N
# ---------------------------------------------------------------------------
#
# Z/p^N is a local principal ideal ring: every nonzero entry is a unit times
# a power of p, so an entry of the lowest p-adic valuation in a block divides
# every entry of that block.  Elimination that always pivots on such an entry
# never leaves Z/p^N (Howell 1986; Storjohann and Mulders, ESA 1998).


def _pivot(M, rows, cols, p: int):
    """(i, j, v) for the first entry M[i][j] (rows outer, cols inner) of the
    lowest p-adic valuation v, or None when all are zero.  The entries must
    be reduced mod p^N."""
    best = None
    for i in rows:
        Mi = M[i]
        for j in cols:
            x = Mi[j]
            if x:
                if x % p:
                    return i, j, 0
                v = vp_int(x, p)
                if best is None or v < best[2]:
                    best = (i, j, v)
    return best


def smith_mod(A, p: int, N: int):
    """Smith form over Z/p^N: (exps, U, V) with U and V invertible and
    U*A*V = diag(p^exps[0], ..., p^exps[r-1], 0, ...) mod p^N.

    exps is nondecreasing and below N, so r = len(exps) is the rank.
    """
    mod = p**N
    rows = len(A)
    cols = len(A[0]) if rows else 0
    W = [[x % mod for x in row] for row in A]
    U = mat_identity(rows)
    V = mat_identity(cols)
    exps = []
    for top in range(min(rows, cols)):
        piv = _pivot(W, range(top, rows), range(top, cols), p)
        if piv is None:
            break
        i, j, v = piv
        W[top], W[i] = W[i], W[top]
        U[top], U[i] = U[i], U[top]
        if j != top:
            for row in W[top:] + V:
                row[top], row[j] = row[j], row[top]
        pv = p**v
        u = pow(W[top][top] // pv, -1, mod)
        if u != 1:
            W[top] = [x * u % mod for x in W[top]]
            U[top] = [x * u % mod for x in U[top]]
        Wt, Ut = W[top], U[top]
        for r in range(top + 1, rows):
            m = W[r][top] // pv
            if m:
                W[r] = [(x - m * y) % mod for x, y in zip(W[r], Wt)]
                U[r] = [(x - m * y) % mod for x, y in zip(U[r], Ut)]
        # rows above top hold only their pivots and rows below now hold 0
        # in column top, so clearing row top by column operations changes
        # only V (row top of W is not read again)
        for c in range(top + 1, cols):
            m = Wt[c] // pv
            if m:
                for row in V:
                    row[c] = (row[c] - m * row[top]) % mod
        exps.append(v)
    return exps, U, V


def _smith_solve(exps, U, b, p: int, N: int):
    """y with diag(p^exps) y = U b mod p^N, the entries of U b past the rank
    being zero; None when there is no such y."""
    mod = p**N
    c = [sum(u * x for u, x in zip(Ui, b)) % mod for Ui in U]
    if any(c[len(exps):]) or any(c[i] % p**e for i, e in enumerate(exps)):
        return None
    return [c[i] // p**e for i, e in enumerate(exps)]


def smith_invariants(A, p: int, N: int) -> list:
    """The nondecreasing exponents of the nonzero Smith invariants of A
    over Z/p^N."""
    return smith_mod(A, p, N)[0]


def coker_invariants_mod(A, p: int, N: int) -> list:
    """Invariant factors of (Z/p^N)^rows / col-span(A), each a p-power
    exponent, nondecreasing; 0 exponents (trivial factors) are dropped."""
    exps = smith_invariants(A, p, N)
    return [e for e in exps if e] + [N] * (len(A) - len(exps))


def ker_basis_mod(A, p: int, N: int) -> list:
    """Generators (as columns) of {x : A x = 0 mod p^N}: p^(N-e_i) V[:, i]
    for each invariant p^e_i, and V[:, j] for each j past the rank."""
    mod = p**N
    exps, _, V = smith_mod(A, p, N)
    scale = [p ** (N - e) for e in exps] + [1] * (len(V) - len(exps))
    gens = []
    for j, s in enumerate(scale):
        vec = [row[j] * s % mod for row in V]
        if any(vec):
            gens.append(vec)
    return gens


def subquotient_invariants(ker_gens, im_gens, ambient: int, p: int, N: int) -> list:
    """Invariants of span(K) / span(B) inside (Z/p^N)^ambient.

    K and B are lists of generator columns with span(B) contained in
    span(K).  In the Smith coordinates U of K, span(K) is the sum of the
    p^e_i Z/p^N, one Z/p^(N-e_i) each; B maps to the columns X of
    U b / p^e, and the quotient is the cokernel of [X | diag(p^(N-e_i))].
    """
    K = [[g[i] for g in ker_gens] for i in range(ambient)]
    exps, U, _ = smith_mod(K, p, N)
    X = [[0] * len(im_gens) + [p ** (N - e) if k == i else 0 for k in range(len(exps))]
         for i, e in enumerate(exps)]
    for j, b in enumerate(im_gens):
        y = _smith_solve(exps, U, b, p, N)
        if y is None:
            raise ArithmeticError("image generators not inside the kernel span")
        for i, yi in enumerate(y):
            X[i][j] = yi
    return coker_invariants_mod(X, p, N)


def howell_mod(A, p: int, N: int) -> list:
    """Howell normal form of the row span of A over Z/p^N.

    Canonical for a fixed row span: pivot entries are p-powers, entries
    below pivots vanish, entries above are reduced mod the pivot, and the
    form is span-closed (every leading-coefficient multiple of a row is a
    combination of later rows).
    """
    mod = p**N
    work = [[x % mod for x in row] for row in A]
    cols = len(A[0]) if A else 0

    def rowred(rows_in):
        rows_in = [r[:] for r in rows_in if any(r)]
        out = []
        col = 0
        while rows_in and col < cols:
            best = _pivot(rows_in, range(len(rows_in)), (col,), p)
            if best is None:
                col += 1
                continue
            idx, _, v = best
            row = rows_in.pop(idx)
            u = pow(row[col] // p**v, -1, mod)
            row = [(x * u) % mod for x in row]
            for r in rows_in:
                if r[col]:
                    m = r[col] // p**v
                    for j in range(cols):
                        r[j] = (r[j] - m * row[j]) % mod
            out.append((col, v, row))
            rows_in = [r for r in rows_in if any(r)]
            col += 1
        return out

    pivots = rowred(work)
    # span closure: add p^(N-v) * row for each pivot with v > 0
    extra = []
    for col, v, row in pivots:
        if v > 0:
            extra.append([(x * p ** (N - v)) % mod for x in row])
    if extra:
        all_rows = [row for _, _, row in pivots] + extra
        pivots = rowred(all_rows)
    # reduce entries above each pivot
    result = [row for _, _, row in pivots]
    info = [(col, v) for col, v, _ in pivots]
    for k in range(len(result) - 1, -1, -1):
        col, v = info[k]
        piv = p**v
        for i in range(k):
            x = result[i][col] % mod
            m = x // piv
            if m:
                for j in range(cols):
                    result[i][j] = (result[i][j] - m * result[k][j]) % mod
    return result


def solve_mod(A, b, p: int, N: int):
    """One solution x of A x = b over Z/p^N plus its certified precision.

    Returns (x, prec) where any two solutions agree mod p^prec, or None
    when the system is inconsistent.  Solutions differ by the kernel, whose
    generators p^(N-e_i) V[:, i] and V[:, j] (j past the rank) have
    valuations N - e_i and 0; so prec is 0 below full column rank.
    """
    cols = len(A[0]) if A else 0
    exps, U, V = smith_mod(A, p, N)
    y = _smith_solve(exps, U, b, p, N)
    if y is None:
        return None
    # the coordinates of y past the rank are free: take them 0
    x = [sum(v * t for v, t in zip(Vi, y)) % p**N for Vi in V]
    if len(exps) < cols:
        return x, 0
    return x, N - exps[-1] if exps else N


def inv_mod(A, p: int, N: int) -> list:
    """Inverse of a unit matrix over Z/p^N: V*U when U*A*V = I."""
    exps, U, V = smith_mod(A, p, N)
    if len(exps) < len(A) or any(exps):
        raise ZeroDivisionError("matrix is not invertible over Z/p^N")
    return _mat_mul(V, U, p**N)


def mat_mul_mod(A, B, p: int, N: int) -> list:
    return _mat_mul(A, B, p**N)


def _mat_mul(A, B, mod: int) -> list:
    """A*B mod `mod`, entries in [0, mod).

    The operands of the cohomology layer are mostly zero, so each row of
    B is compressed once to its nonzero (column, entry) pairs and only
    the nonzero entries of A are visited.  Each output row accumulates
    plain integers and is reduced once: a multiple of `mod` left in an
    unreduced or negative operand changes no residue."""
    cols = len(B[0]) if B else 0
    sparse = [[(j, b) for j, b in enumerate(Bk) if b] for Bk in B]
    out = []
    for Ai in A:
        row = [0] * cols
        for a, Bk in zip(Ai, sparse):
            if a:
                for j, b in Bk:
                    row[j] += a * b
        out.append([x % mod for x in row])
    return out


def mat_eq_mod(A, B, p: int, N: int) -> bool:
    if A == B:
        return True
    mod = p**N
    return all((x - y) % mod == 0 for ra, rb in zip(A, B) for x, y in zip(ra, rb))


def mat_identity(n: int) -> list:
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        out[i][i] = 1
    return out


# ---------------------------------------------------------------------------
# QuotientRing: (Z/p^N)[q] / (d^n) with d = [p]_{q^(p^alpha)}
# ---------------------------------------------------------------------------


def d_poly_q(p: int, alpha: int) -> list:
    """Exact integer q-coefficients of [p]_{q^(p^alpha)}."""
    deg = (p - 1) * p**alpha
    cs = [0] * (deg + 1)
    for i in range(p):
        cs[i * p**alpha] += 1
    return cs


def d_prime_elem(ring: "QuotientRing") -> "QuotElem":
    """d'(q) in A/d^n."""
    dq = d_poly_q(ring.p, ring.alpha)
    return ring.from_q_poly({e - 1: c * e for e, c in enumerate(dq) if e and c})


def _poly_mod(a, modulus, mod):
    a = [x % mod for x in a]
    dm = len(modulus) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * modulus[j]) % mod
    return a[:dm] + [0] * max(0, dm - len(a))


class QuotientRing:
    """A/d^n as a finite free Z/p^N-module with basis 1, q, ..., q^(deg-1)."""

    def __init__(self, p: int, N: int, alpha: int, n: int = 1):
        self.p = p
        self.N = N
        self.alpha = alpha
        self.n = n
        base = d_poly_q(p, alpha)
        modulus = [1]
        for _ in range(n):
            modulus = _poly_mul(modulus, base, p**N)
        # the product of monic polys is monic even after mod-reduction
        modulus[-1] = 1
        self.modulus = modulus
        self.deg = len(modulus) - 1

    def elem(self, coeffs, prec=None):
        return QuotElem(self, coeffs, self.N if prec is None else prec)

    def zero(self):
        return self.elem([0])

    def one(self):
        return self.elem([1])

    def const(self, c: int):
        return self.elem([c])

    def q_power(self, k: int):
        mod = self.p**self.N
        if k >= 0:
            out = [0] * (k + 1)
            out[k] = 1
            return self.elem(_poly_mod(out, self.modulus, mod))
        return self.q_power(1).unit_inverse() ** (-k)

    def from_q_poly(self, qcoeffs: dict):
        out = self.zero()
        for e, c in qcoeffs.items():
            out = out + self.q_power(e) * c
        return out

    def from_series(self, f: TruncSeries):
        """Reduce a t-series; the unknown tail costs p-precision."""
        if f.p != self.p:
            raise ValueError("mixed primes")
        mod = self.p ** min(self.N, f.N)
        # t = q - 1
        acc = [0] * self.deg
        tpow = [1]
        for c in f.c:
            if c:
                for i, x in enumerate(tpow):
                    if i < self.deg:
                        acc[i] = (acc[i] + c * x) % mod
            tpow = _poly_mod(_poly_mul(tpow, [-1, 1], mod), self.modulus, mod)
        vals = [vp_int(x, self.p) for x in tpow]
        vals = [v for v in vals if v is not None]
        tail_prec = min(vals) if vals else min(self.N, f.N)
        return QuotElem(self, acc, min(self.N, f.N, max(tail_prec, 0) if vals else f.N))

    def mult_matrix(self, x: "QuotElem") -> list:
        """Matrix of multiplication by x: column i is x*q^i, the column
        before it shifted up by one and reduced."""
        mod = self.p**self.N
        cols = [x.coeffs]
        for _ in range(self.deg - 1):
            cols.append(_poly_mod([0] + cols[-1], self.modulus, mod))
        return [[cols[j][i] for j in range(self.deg)] for i in range(self.deg)]

    def endo_matrix(self, q_image_power: int) -> list:
        """Matrix of the ring endomorphism q -> q^k on the power basis."""
        cols = [self.q_power(q_image_power * i).coeffs for i in range(self.deg)]
        return [[cols[j][i] for j in range(self.deg)] for i in range(self.deg)]

    def partial_matrix(self) -> list:
        """Matrix of the twisted derivation sending q^i to [p i]_{q^(p^alpha)} q^(i-1)."""
        cols = []
        for i in range(self.deg):
            if i == 0:
                cols.append([0] * self.deg)
                continue
            img = self.zero()
            for j in range(self.p * i):
                img = img + self.q_power(j * self.p**self.alpha + i - 1)
            cols.append(img.coeffs)
        return [[cols[j][i] for j in range(self.deg)] for i in range(self.deg)]

    def __eq__(self, other):
        return (isinstance(other, QuotientRing)
                and (self.p, self.N, self.alpha, self.n) ==
                (other.p, other.N, other.alpha, other.n))


class QuotElem:
    __slots__ = ("ring", "coeffs", "prec")

    def __init__(self, ring: QuotientRing, coeffs, prec: int):
        self.ring = ring
        mod = ring.p ** ring.N
        cs = _poly_mod(coeffs, ring.modulus, mod)
        cs = cs + [0] * (ring.deg - len(cs))
        self.coeffs = cs[: ring.deg]
        self.prec = min(prec, ring.N)

    def _linear(self, coeffs, prec) -> "QuotElem":
        """An element of this ring from `deg` coefficients: a linear
        combination of reduced elements has degree < deg already, so
        `% p^N` reduces it, as the general constructor would."""
        out = QuotElem.__new__(QuotElem)
        ring = out.ring = self.ring
        mod = ring.p ** ring.N
        out.coeffs = [c % mod for c in coeffs]
        out.prec = min(prec, ring.N)
        return out

    def _join(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        return other, min(self.prec, other.prec)

    def __add__(self, other):
        other, pr = self._join(other)
        return self._linear([a + b for a, b in zip(self.coeffs, other.coeffs)], pr)

    __radd__ = __add__

    def __neg__(self):
        return self._linear([-a for a in self.coeffs], self.prec)

    def __sub__(self, other):
        other, pr = self._join(other)
        return self._linear([a - b for a, b in zip(self.coeffs, other.coeffs)], pr)

    def __mul__(self, other):
        if isinstance(other, int):
            return self._linear([a * other for a in self.coeffs], self.prec)
        other, pr = self._join(other)
        return QuotElem(self.ring, _poly_mul(self.coeffs, other.coeffs,
                                             self.ring.p ** self.ring.N), pr)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            return self.unit_inverse() ** (-k)
        out, base = self.ring.one(), self
        out = QuotElem(self.ring, out.coeffs, self.prec)
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        pr = min(self.prec, other.prec)
        mod = self.ring.p**pr
        return all((a - b) % mod == 0 for a, b in zip(self.coeffs, other.coeffs))

    def is_zero(self) -> bool:
        mod = self.ring.p**self.prec
        return all(a % mod == 0 for a in self.coeffs)

    def is_unit(self) -> bool:
        """Units of the local ring: detectable from the mult matrix."""
        try:
            self.unit_inverse()
            return True
        except ZeroDivisionError:
            return False

    def unit_inverse(self) -> "QuotElem":
        M = self.ring.mult_matrix(self)
        inv = inv_mod(M, self.ring.p, self.ring.N)
        one = [1] + [0] * (self.ring.deg - 1)
        return QuotElem(self.ring, [sum(inv[i][j] * one[j] for j in range(self.ring.deg))
                                    for i in range(self.ring.deg)], self.prec)

    def divide_exact(self, other: "QuotElem") -> "QuotElem":
        """Certified division: solve other * y = self, lossy but honest."""
        M = self.ring.mult_matrix(other)
        sol = solve_mod(M, self.coeffs, self.ring.p, min(self.prec, other.prec))
        if sol is None:
            raise DivisionCertificateError("quotient-ring division has no solution")
        x, prec = sol
        if prec == 0:
            raise PrecisionError("quotient-ring division carries no certified digits")
        return QuotElem(self.ring, x, prec)

    def divide_p_pow(self, a: int) -> "QuotElem":
        mod = self.ring.p ** min(a, self.prec)
        if any(x % mod for x in self.coeffs):
            raise DivisionCertificateError(f"not divisible by p^{a}")
        if self.prec <= a:
            raise PrecisionError("no digits left after division")
        modN = self.ring.p ** self.ring.N
        return QuotElem(self.ring, [(x % modN) // self.ring.p**a for x in self.coeffs],
                        self.prec - a)

    def times_p_pow(self, a: int) -> "QuotElem":
        return QuotElem(self.ring, [x * self.ring.p**a for x in self.coeffs],
                        min(self.prec + a, self.ring.N))

    def apply_matrix(self, M: list) -> "QuotElem":
        n = self.ring.deg
        return QuotElem(self.ring,
                        [sum(M[i][j] * self.coeffs[j] for j in range(n)) for i in range(n)],
                        self.prec)

    def render(self) -> str:
        mod = self.ring.p**self.prec
        parts = [f"{c % mod}*q^{i}" for i, c in enumerate(self.coeffs) if c % mod]
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O({self.ring.p}^{self.prec})"

    def __repr__(self):
        return f"QuotElem({self.render()})"


# ---------------------------------------------------------------------------
# TPoly: polynomials in one chart coordinate T over TruncSeries
# ---------------------------------------------------------------------------


class TPoly:
    """Sum of T^j * (series in t), with a hard cap on the T-degree.

    Exceeding the cap is an error, not silent truncation: the twists in
    play only rescale T-degrees, so overflow indicates misuse.
    """

    __slots__ = ("p", "N", "M", "cap", "terms")

    def __init__(self, p, N, M, cap, terms=None):
        self.p, self.N, self.M, self.cap = p, N, M, cap
        clean = {}
        for j, s in (terms or {}).items():
            if j > cap:
                raise PrecisionError(f"T-degree {j} exceeds cap {cap}")
            if j < 0:
                raise ValueError("negative T-degree")
            if not s.is_zero():
                clean[j] = s
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(p, N, M, cap):
        return TPoly(p, N, M, cap)

    @staticmethod
    def scalar(p, N, M, cap, s: TruncSeries):
        return TPoly(p, N, M, cap, {0: s})

    @staticmethod
    def const(p, N, M, cap, c: int):
        return TPoly(p, N, M, cap, {0: TruncSeries.const(p, N, M, c)})

    @staticmethod
    def one(p, N, M, cap):
        return TPoly.const(p, N, M, cap, 1)

    @staticmethod
    def t_power(p, N, M, cap, j: int, s: TruncSeries = None):
        return TPoly(p, N, M, cap, {j: s if s is not None else TruncSeries.one(p, N, M)})

    def _coerce(self, other):
        if isinstance(other, int):
            return TPoly.const(self.p, self.N, self.M, self.cap, other)
        if isinstance(other, TruncSeries):
            return TPoly.scalar(self.p, self.N, self.M, self.cap, other)
        return other

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for j, s in other.terms.items():
            out[j] = out[j] + s if j in out else s
        return TPoly(self.p, self.N, self.M, self.cap, out)

    __radd__ = __add__

    def __neg__(self):
        return TPoly(self.p, self.N, self.M, self.cap,
                     {j: -s for j, s in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if isinstance(other, int) or isinstance(other, TruncSeries):
            return TPoly(self.p, self.N, self.M, self.cap,
                         {j: s * other for j, s in self.terms.items()})
        out: dict = {}
        for j1, s1 in self.terms.items():
            for j2, s2 in other.terms.items():
                j = j1 + j2
                prod = s1 * s2
                out[j] = out[j] + prod if j in out else prod
        return TPoly(self.p, self.N, self.M, self.cap, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        out = TPoly.one(self.p, self.N, self.M, self.cap)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __eq__(self, other):
        return (self - self._coerce(other)).is_zero()

    def is_zero(self) -> bool:
        return all(s.is_zero() for s in self.terms.values())

    def map_terms(self, fn) -> "TPoly":
        """Apply (j, series) -> (j', series') to every term."""
        out: dict = {}
        for j, s in self.terms.items():
            j2, s2 = fn(j, s)
            out[j2] = out[j2] + s2 if j2 in out else s2
        return TPoly(self.p, self.N, self.M, self.cap, out)

    def divide_p_pow(self, a: int) -> "TPoly":
        return TPoly(self.p, max(self.N - a, 1), self.M, self.cap,
                     {j: s.divide_p_pow(a) for j, s in self.terms.items()})

    def times_p_pow(self, a: int, cap_prec: int) -> "TPoly":
        return TPoly(self.p, min(self.N + a, cap_prec), self.M, self.cap,
                     {j: s.times_p_pow(a, cap_prec) for j, s in self.terms.items()})

    def coeff(self, j: int) -> TruncSeries:
        return self.terms.get(j, TruncSeries.zero(self.p, self.N, self.M))

    def render(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"T^{j}*({s.render()})" for j, s in sorted(self.terms.items()))

    def __repr__(self):
        return f"TPoly({self.render()})"
