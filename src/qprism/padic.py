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
import struct
from collections import Counter
from dataclasses import dataclass
from itertools import compress
from operator import add, mul, sub
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


@dataclass(frozen=True, eq=False)
class PadicInt:
    """Element of Z/p^N with N = prec absolute digits.  Not hashable, as
    ``==`` compares at the smaller precision (see ``_exponent_key``)."""

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

    __hash__ = None

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


def ring_power(x, k: int, one):
    """x^k by square and multiply, starting from ``one`` (which carries
    the precision of the result); a negative k powers ``x.unit_inverse()``."""
    if k < 0:
        return ring_power(x.unit_inverse(), -k, one)
    out = one
    while k:
        if k & 1:
            out = out * x
        k >>= 1
        if k:
            x = x * x
    return out


def teichmuller(p: int, e: int, prec: int) -> PadicInt:
    """The unique (p-1)-st root of unity congruent to e mod p.

    Hensel lifting of x^(p-1) = 1 from x = e mod p, doubling the
    precision each step: the root is simple, as (p-1) x^(p-2) is a unit.
    With y = x^(p-1) = 1 mod p^k, Newton's step x - x(y-1)/((p-1)y)
    equals x - x(y-1)/(p-1) mod p^(2k).
    """
    if e % p == 0:
        raise ValueError("no multiplicative lift of 0")
    x, k = e % p, 1
    while k < prec:
        k = min(2 * k, prec)
        mod = p**k
        x = (x - x * (pow(x, p - 1, mod) - 1) * pow(p - 1, -1, mod)) % mod
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


def _slot_bytes(mod: int, terms: int) -> int:
    """Bytes per slot of a packed integer whose slots each hold a sum of at
    most `terms` products of two residues below `mod`: such a sum has at
    most 2*bits(mod-1) + bits(terms) bits, so slots that wide never carry
    into each other.  Rounded up to 4 or 8 bytes, which ``struct`` reads in
    one call, or to whole bytes beyond 64 bits."""
    bits = 2 * (mod - 1).bit_length() + terms.bit_length()
    return 4 if bits <= 32 else 8 if bits <= 64 else (bits + 7) // 8


_SLOT_FORMATS = {4: "I", 8: "Q"}


def _pack(xs, w: int) -> int:
    """The nonnegative ints xs, each below 2^(8w), in little-endian slots
    of w bytes of one int."""
    fmt = _SLOT_FORMATS.get(w)
    if fmt:
        return int.from_bytes(struct.pack(f"<{len(xs)}{fmt}", *xs), "little")
    return int.from_bytes(b"".join(x.to_bytes(w, "little") for x in xs), "little")


def _unpack_mod(x: int, w: int, n: int, mod: int) -> list:
    """The n slots of w bytes of the packed x < 2^(8 w n), each reduced
    mod `mod`."""
    buf = x.to_bytes(w * n, "little")
    fmt = _SLOT_FORMATS.get(w)
    if fmt:
        return [y % mod for y in struct.unpack(f"<{n}{fmt}", buf)]
    return [int.from_bytes(buf[i:i + w], "little") % mod
            for i in range(0, w * n, w)]


def _poly_mul(a, b, mod: int, n: int = None) -> list:
    """Coefficients 0..n-1 (default: all) of a*b mod `mod`, exactly.

    Kronecker substitution: the reduced coefficients are packed into
    slots of one Python int, multiplied once, and read back.  A product
    coefficient is a sum of at most min(len a, len b) products of
    residues below `mod`, which sizes the slots.  The inputs must be
    reduced first: a caller may pass entries known modulo a larger power
    of p, or negative ones, that would overflow a slot sized from `mod`.
    """
    if n is None:
        n = len(a) + len(b) - 1 if a and b else 0
    a = [x % mod for x in a[:n]]
    b = [x % mod for x in b[:n]]
    if not a or not b:
        return [0] * n
    w = _slot_bytes(mod, min(len(a), len(b)))
    k = min(n, len(a) + len(b) - 1)
    out = _packed_product(_pack(a, w), _pack(b, w), w, k, mod)
    out.extend([0] * (n - k))
    return out


def _packed_product(x: int, y: int, w: int, k: int, mod: int, lo: int = 0) -> list:
    """Slots lo..k-1 of x*y, for x and y packed in w-byte slots, each
    reduced mod `mod`; the other slots are dropped before they are read."""
    return _unpack_mod((x * y >> (8 * w * lo)) & ((1 << (8 * w * (k - lo))) - 1),
                       w, k - lo, mod)


def _q_poly_t(qcoeffs: dict, M: int) -> list:
    """The exact t-coefficients below t^M of sum c * q^e, q = 1 + t, over
    integer exponents e, unreduced.

    The binomials come from the exact iteration
    C(e, j+1) = C(e, j)(e - j)/(j + 1), which ends at j = e for e >= 0
    and gives C(e, j) = (-1)^j C(j - e - 1, j) for e < 0; the products
    c * C(e, j) are summed into one list."""
    acc = [0] * M
    for e, c in qcoeffs.items():
        for j in range(M):
            if not c:
                break
            acc[j] += c
            c = c * (e - j) // (j + 1)
    return acc


def _exponent_key(k):
    """A cache key for an int or PadicInt exponent."""
    return k if isinstance(k, int) else (k.prec, k.residue)


@functools.cache
def _q_subst_cols(p: int, N: int, M: int, k) -> tuple:
    """The matrix of f(q) -> f(q^k) on t-coefficients mod (p^N, t^M), for
    k an integer or the ``_exponent_key`` of a PadicInt.

    Column n is (q^k - 1)^n.  As t divides q^k - 1, the matrix is lower
    triangular, and it is stored by rows: row i holds the t^i coefficients
    of columns 0..i.  Building it takes M - 1 packed multiplies, the cost
    of one Horner substitution.
    """
    mod = p**N
    k = k if isinstance(k, int) else PadicInt(p, *k)
    s = [0] + TruncSeries.q_power(p, N, M, k).c[1:]
    cols = [[1 % mod] + [0] * (M - 1)]
    for _ in range(M - 1):
        cols.append(_poly_mul(cols[-1], s, mod, M))
    return tuple(tuple(col[i] for col in cols[:i + 1]) for i in range(M))


@functools.cache
def _unit_part_inverses(p: int, N: int, M: int) -> tuple:
    """(v_p(n), the inverse mod p^N of n / p^v_p(n)) for n = 1..M-1."""
    out = []
    for n in range(1, M):
        v = vp_int(n, p)
        out.append((v, pow(n // p**v, -1, p**N)))
    return tuple(out)


@functools.cache
def _distinguished_inverse(p: int, N: int, P: tuple) -> tuple:
    """(w, l, P_low) for P = t^r + pC: l = sum_(k=0..N) (-pC)^k t^(r(N-k))
    and P below t^r, mod p^N, packed in w-byte slots that hold a sum of
    rN + 1 products of residues.

    Expanded in t^-1, 1/P = sum_k (-pC)^k t^(-r(k+1)), and the terms
    k > N vanish mod p^(N+1); so l = t^(r(N+1))/P to that precision."""
    r, mod = len(P) - 1, p**N
    minus_pC = [-x for x in P[:r]]
    out, y = [0] * (r * N + 1), [1]
    for k in range(N + 1):
        s = r * (N - k)
        out[s:s + len(y)] = map(add, out[s:s + len(y)], y)
        y = _poly_mul(y, minus_pC, mod)
    w = _slot_bytes(mod, r * N + 1)
    return w, _pack([x % mod for x in out], w), _pack([x % mod for x in P[:r]], w)


def distinguished_divmod(p: int, N: int, a: list, P: Sequence[int], k: int = None) -> tuple:
    """(Q, R) mod p^N with a = Q*P + R and deg R < r, for the coefficient
    list a and a distinguished P = t^r + pC.

    Q is the part of a/P at t-degrees >= 0, with 1/P expanded in t^-1
    (``_distinguished_inverse``): as the low part a[:r] has none, Q is
    the slice from t^(rN) of a[r:] * l, where l below t^s meets no
    coefficient of a[r:] in the slice.  R = a - P*Q below t^r needs Q
    below t^r only.  Q is returned to k coefficients (default: all,
    exact for a polynomial a); a caller that reads a as a truncated series
    certifies the digits itself (``weierstrass_divmod``)."""
    r, mod = len(P) - 1, p**N
    k = max(len(a) - r, 0) if k is None else k
    w, l, P_low = _distinguished_inverse(p, N, tuple(P))
    s = min(max(r * N - len(a) + r + 1, 0), r * N)
    lo, n = r * N - s, max(k, r)
    hi = _pack([x % mod for x in a[r:r + lo + n]], w)
    Q = _packed_product(hi, l >> (8 * w * s), w, lo + n, mod, lo)
    R = _packed_product(P_low, _pack(Q[:r], w), w, r, mod)
    low = list(a[:r]) + [0] * (r - len(a))
    return Q[:k], [(x - y) % mod for x, y in zip(low, R)]


# ---------------------------------------------------------------------------
# TruncSeries: (Z/p^N)[[t]] / (t^M), with q = 1 + t
# ---------------------------------------------------------------------------


class TruncSeries:
    """Truncated power series in t = q - 1 with capped p-precision; it
    keeps its packing for the (N, M) of its last product (``_pack_at``)."""

    __slots__ = ("p", "N", "M", "c", "_packed")

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
        self._packed = None

    @staticmethod
    def _of_reduced(p, N, M, cs: list) -> "TruncSeries":
        """Wrap M coefficients already reduced mod p^N, without a copy."""
        out = TruncSeries.__new__(TruncSeries)
        out.p, out.N, out.M, out.c, out._packed = p, N, M, cs, None
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
        """q^k = (1+t)^k for k an integer (``from_q_poly``) or PadicInt.

        For a p-adic exponent, C(k, n) mod p^N is carried as p^e * u, with
        e its valuation and u a unit mod p^N (Granville, "Arithmetic
        properties of binomial coefficients I", 1997), through
        C(k, n+1) = C(k, n)(k - n)/(n + 1).  A unit factor k - n costs one
        multiply mod p^N.  Otherwise its valuation v, exact below k.prec,
        and its unit part are read from the residue mod p^k.prec; that unit
        part is right only mod p^(k.prec - v), which suffices, as
        e + k.prec - v >= k.prec - v_p(n!) >= N.  The valuation and the
        unit-part inverse of each n + 1 come from one table per (p, N, M),
        ``_unit_part_inverses``.  If k = n to full
        precision, every later coefficient is divisible by
        p^(k.prec - v_p((M-1)!)), so is 0 mod p^N.  The digit loss
        v_p((M-1)!) is checked against the precision of the exponent.
        """
        if isinstance(k, int):
            return TruncSeries.from_q_poly(p, N, M, {k: 1})
        need = N + vp_factorial(p, max(M - 1, 1))
        if k.prec < need:
            raise PrecisionError(
                f"need exponent mod p^{need} to certify (1+t)^u to t^{M}")
        mod, modk = p**N, p**k.prec
        r = k.residue
        r_N, r_p = r % mod, r % p
        p_pows = [p**i for i in range(N)]
        units = _unit_part_inverses(p, N, M)
        cs, e, u = [1], 0, 1
        for n in range(M - 1):
            if n % p != r_p:
                u = u * (r_N - n) % mod
            else:
                x = (r - n) % modk
                if not x:
                    break
                v = vp_int(x, p)
                e += v
                u = u * (x // p**v) % mod
            v, inv = units[n]
            if v:
                e -= v
                if e < 0:
                    raise ArithmeticError("binomial iteration lost exactness")
            u = u * inv % mod
            cs.append(u * p_pows[e] % mod if e < N else 0)
        return TruncSeries(p, N, M, cs)

    @staticmethod
    def from_q_poly(p, N, M, qcoeffs: dict):
        """Sum of c * q^e over the (possibly huge or negative) integer
        exponents e, reduced once (``_q_poly_t``)."""
        return TruncSeries(p, N, M, _q_poly_t(qcoeffs, M))

    @staticmethod
    def q_analogue(p, N, M, n: int, base: int = 1):
        """[n]_{q^base} = sum_(i<n) q^(base i) as a series."""
        return TruncSeries.from_q_poly(p, N, M, Counter(base * i for i in range(n)))

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
        mod = self.p**N  # w as in _poly_mul on M residues each side
        w = _slot_bytes(mod, M)
        return TruncSeries._of_reduced(self.p, N, M, _packed_product(
            self._pack_at(N, M, w), other._pack_at(N, M, w), w, M, mod))

    __rmul__ = __mul__

    def _pack_at(self, N: int, M: int, w: int) -> int:
        """c[:M] mod p^N in w-byte slots, kept for the last (N, M)."""
        if self._packed is None or self._packed[0] != (N, M):
            cs = self.c[:M]
            if N < self.N:
                cs = [x % self.p**N for x in cs]
            self._packed = ((N, M), _pack(cs, w))
        return self._packed[1]

    def __pow__(self, k: int):
        return ring_power(self, k, TruncSeries.one(self.p, self.N, self.M))

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

        Horner over M - 1 packed multiplies: the general composition.
        Substitutions q -> q^k (``phi``, ``gamma0``, ``gamma_u``) go
        through ``_subst_q_power`` and its table, cached per exponent.
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
        return self._subst_q_power(self.p)

    def _subst_q_power(self, k) -> "TruncSeries":
        """f(q) -> f(q^k) for an integer or PadicInt k: one triangular
        matrix-vector product with the cached table, one reduction per
        entry."""
        p, N, M = self.p, self.N, self.M
        mod, c = p**N, self.c
        return TruncSeries._of_reduced(
            p, N, M, [sum(map(mul, c, row)) % mod
                      for row in _q_subst_cols(p, N, M, _exponent_key(k))])

    def gamma0(self, alpha: int) -> "TruncSeries":
        """q -> q^(p^(alpha+1)+1)."""
        return self._subst_q_power(self.p ** (alpha + 1) + 1)

    def gamma_u(self, u) -> "TruncSeries":
        """q -> q^u for a unit exponent (int or PadicInt)."""
        return self._subst_q_power(u)

    def derivative_q(self) -> "TruncSeries":
        """d/dq = d/dt, which costs one t-digit."""
        if self.M <= 1:
            raise PrecisionError("no t-digits left after differentiation")
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
        (Q, R, r_prec): f = Q*P + R with deg_t R < r, from one product
        (``distinguished_divmod``).  Precision accounting: a tail term t^j
        reduces to a multiple of p^floor(j/r), so the unknown tail of f
        contaminates the t-degree-j part of the quotient at level
        p^(ceil((M-j)/r) - 1) and the remainder at p^floor(M/r).  The
        quotient is returned on the largest uniform box holding
        N_q = min(N, floor(M/r) - 1) p-digits, which costs (N_q+1)*r
        t-digits; the remainder is certified mod p^r_prec with
        r_prec = min(N, floor(M/r)).
        """
        p, N, M = self.p, self.N, self.M
        r = len(P) - 1
        if P[r] != 1:
            raise ValueError("distinguished polynomial must be monic in t")
        if any(x % p for x in P[:r]):
            raise ValueError("lower coefficients must be divisible by p")
        if M <= r:
            raise PrecisionError("t-precision does not reach the divisor degree")
        cert = min(N, M // r)
        N_q = min(N, M // r - 1)
        if N_q < 1:
            raise PrecisionError("quotient would carry no certified digits")
        M_q = M - (N_q + 1) * r + 1
        Q, R = distinguished_divmod(p, N, self.c, P, M_q)
        return TruncSeries(p, N_q, M_q, Q), [x % p**cert for x in R], cert

    def weierstrass_divide_exact(self, P: Sequence[int]) -> "TruncSeries":
        """Certified exact division by a distinguished polynomial."""
        Q, R, cert = self.weierstrass_divmod(P)
        if any(x % self.p**cert for x in R):
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


def d_poly_t(p: int, alpha: int) -> list:
    """Exact integer t-coefficients of d = [p]_{q^(p^alpha)}."""
    return _q_poly_t(Counter(i * p**alpha for i in range(p)), (p - 1) * p**alpha + 1)


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


def inv_mod(A, p: int, N: int) -> "ModMat":
    """Inverse of a unit matrix over Z/p^N: V*U when U*A*V = I."""
    exps, U, V = smith_mod(A, p, N)
    if len(exps) < len(A) or any(exps):
        raise ZeroDivisionError("matrix is not invertible over Z/p^N")
    return _mat_mul(V, U, p**N)


def _row_slots(mod: int, terms: int) -> tuple:
    """(w, b) for packed matrix rows whose slots hold sums of at most
    `terms` products of residues below mod: such a sum has at most b bits,
    and w-byte slots with 8w >= 2b + 2 also hold the Barrett product of
    that sum (``_barrett``).  w is a whole number of 8-byte words when a
    residue fits one, so that ``struct`` reads the low word of each slot."""
    b = (terms * (mod - 1) ** 2).bit_length()
    w = (2 * b + 9) // 8
    return (-(-w // 8) * 8 if mod <= 1 << 64 else w), b


@functools.cache
def _barrett(mod: int, w: int, n: int, b: int) -> tuple:
    """(s, c, mask, full) that reduce every slot of a packed row of n
    w-byte slots, each below 2^b, in one step: x - mod*((x*c >> s) & mask)
    (Barrett, CRYPTO '86, on all slots at once).  With s = b + bits(mod)
    and c = ceil(2^s/mod), x*c/2^s exceeds x/mod by less than 1/mod, so
    the quotient is floor(x/mod) exactly and no correction step follows.
    A slot's x*c stays below 2^(2b+1), inside its own slot, and the mask
    keeps the quotient bits of each slot from those the shift brings down
    from the next.  ``full`` holds mod in every slot, for differences."""
    s = b + mod.bit_length()
    ones = ((1 << (8 * w * n)) - 1) // ((1 << (8 * w)) - 1)
    return s, -(-(1 << s) // mod), ((1 << max(8 * w - s, 0)) - 1) * ones, mod * ones


def _read_rows(packed: list, w: int, n: int, mod: int) -> tuple:
    """The rows of n residues below mod of the packed rows in w-byte
    slots, read in one pass: the low word of each slot by ``struct`` when
    a residue fits one, else the residue's bytes of each slot."""
    if not n:
        return ((),) * len(packed)
    buf = b"".join([x.to_bytes(w * n, "little") for x in packed])
    if mod <= 1 << 64:
        vals = struct.unpack(f"<{len(buf) // 8}Q", buf)[::w // 8]
    else:
        r = (mod.bit_length() + 7) // 8
        vals = [int.from_bytes(buf[i:i + r], "little") for i in range(0, len(buf), w)]
    return tuple([tuple(vals[i:i + n]) for i in range(0, len(vals), n)])


class ModMat:
    """An immutable matrix over Z/mod.

    Its native form is one packed int per row, with the residues in
    [0, mod) in little-endian w-byte slots (``_row_slots``).  Products,
    sums, differences and negations build packed rows and reduce them by
    one Barrett step each, so ``==``, ``is_zero``, ``+``, ``-`` and a
    product by this matrix on the right never unpack or repack.  The
    tuple rows (``rows``) are read from the packed ones the first time a
    left operand, the elimination routines or block assembly ask for
    them; a matrix built from rows packs them the first time it needs the
    packed form.  ``==`` compares residues mod ``mod``, also against a
    list of lists.  Rows index, iterate and measure like a list of rows,
    so the elimination routines take a ModMat as is."""

    __slots__ = ("_rows", "_packed", "_w", "cols", "mod")

    def __init__(self, rows, mod: int):
        self._rows = rows = tuple(tuple([x % mod for x in row]) for row in rows)
        self.cols = len(rows[0]) if rows else 0
        self.mod, self._packed, self._w = mod, None, 0

    @staticmethod
    def of_reduced(rows, mod: int) -> "ModMat":
        """A ModMat of rows whose entries are residues in [0, mod) already."""
        out = ModMat.__new__(ModMat)
        out._rows = rows = tuple(map(tuple, rows))
        out.cols = len(rows[0]) if rows else 0
        out.mod, out._packed, out._w = mod, None, 0
        return out

    @staticmethod
    def of_packed(packed: list, mod: int, w: int, cols: int) -> "ModMat":
        """A ModMat of reduced rows packed in w-byte slots (``_row_slots``)."""
        out = ModMat.__new__(ModMat)
        out._rows, out._packed, out._w, out.cols, out.mod = None, packed, w, cols, mod
        return out

    @staticmethod
    def from_blocks(rows: int, cols: int, mod: int, blocks) -> "ModMat":
        """The rows x cols matrix over Z/mod holding each (B, i, j) of
        blocks, a ModMat over mod, with its top left entry at (i, j), and
        zero elsewhere.  The blocks must not overlap: their packed rows are
        shifted and added, in the slots of the widest of them (8 bytes when
        there is none)."""
        blocks = list(blocks)
        w = max([B.packed_at()[1] for B, _, _ in blocks], default=8)
        out = [0] * rows
        for B, i, j in blocks:
            for k, x in enumerate(B.packed_at(w)[0], i):
                out[k] += x << (8 * w * j)
        return ModMat.of_packed(out, mod, w, cols)

    def split_rows(self, k: int) -> "ModMat":
        """Each row cut into k rows of cols/k entries, left to right."""
        packed, w = self.packed_at()
        size = w * self.cols // k
        out = []
        for x in packed:
            buf = x.to_bytes(size * k, "little")
            out += [int.from_bytes(buf[a:a + size], "little") for a in range(0, size * k, size)]
        return ModMat.of_packed(out, self.mod, w, self.cols // k)

    @staticmethod
    def identity(n: int, mod: int) -> "ModMat":
        return ModMat.of_reduced([(0,) * i + (1,) + (0,) * (n - 1 - i)
                                  for i in range(n)], mod)

    @staticmethod
    def zero(n: int, mod: int) -> "ModMat":
        return ModMat.of_reduced(((0,) * n,) * n, mod)

    @property
    def rows(self) -> tuple:
        if self._rows is None:
            self._rows = _read_rows(self._packed, self._w, self.cols, self.mod)
        return self._rows

    def packed_at(self, w: int = 0) -> tuple:
        """(packed rows, their slot width): the kept ones when their slots
        are at least w bytes wide, else the rows packed at w, then kept.
        w = 0 asks for the kept ones, or, when there are none, for rows
        packed in the slots of a product by this matrix."""
        if self._w < w or not self._w:
            w = w or _row_slots(self.mod, len(self))[0]
            self._packed, self._w = [_pack(row, w) for row in self.rows], w
        return self._packed, self._w

    def __len__(self):
        return len(self._packed) if self._rows is None else len(self._rows)

    def __getitem__(self, i):
        return self.rows[i]

    def __iter__(self):
        return iter(self.rows)

    def __matmul__(self, other) -> "ModMat":
        return mat_mul_mod(self, other, self.mod)

    def _linear(self, other, sign: int) -> "ModMat":
        """self + other (sign 1), self - other (sign -1) or -self (other
        None) on the packed rows: a slot holds at most 2 mod - 1 before
        its Barrett step."""
        mod, n = self.mod, self.cols
        w = self.packed_at()[1]
        if other is not None:
            if not isinstance(other, ModMat) or other.mod != mod:
                other = ModMat(other, mod)
            w = max(w, other.packed_at()[1])
            ys = other.packed_at(w)[0]
        xs = self.packed_at(w)[0]
        s, c, mask, full = _barrett(mod, w, n, (2 * mod).bit_length())
        if other is None:
            out = [full - x for x in xs]
        elif sign > 0:
            out = list(map(add, xs, ys))
        else:
            out = [x + full - y for x, y in zip(xs, ys)]
        return ModMat.of_packed([x - mod * (x * c >> s & mask) for x in out], mod, w, n)

    def __add__(self, other) -> "ModMat":
        return self._linear(other, 1)

    def __sub__(self, other) -> "ModMat":
        return self._linear(other, -1)

    def __neg__(self) -> "ModMat":
        return self._linear(None, -1)

    def __eq__(self, other) -> bool:
        if isinstance(other, ModMat):
            if self.mod != other.mod or len(self) != len(other):
                return False
            if self._w and self._w == other._w:
                return self.cols == other.cols and self._packed == other._packed
            return self.rows == other.rows
        if not isinstance(other, (list, tuple)):
            return NotImplemented
        mod = self.mod
        return len(self) == len(other) and all(
            ra == tuple([y % mod for y in rb]) for ra, rb in zip(self.rows, other))

    def is_zero(self) -> bool:
        return not any(self._packed) if self._w else not any(map(any, self._rows))


def mat_mul_mod(A, B, mod: int) -> ModMat:
    """A*B over Z/mod, the one product entry point; either operand may be
    a ModMat or a list of rows.  ``ModMat.__matmul__`` looks it up as a
    module global, so a wrapper bound to ``padic.mat_mul_mod`` sees every
    product of matrix values."""
    return _mat_mul(A, B, mod)


def _mat_mul(A, B, mod: int) -> ModMat:
    """A*B mod `mod` by packed rows: output row i is sum(a_ik * packed_k)
    over the nonzero entries a_ik of row i of A, one bigint multiply-add
    each, then one Barrett step (``_barrett``); it stays packed.  B's rows
    are packed in slots sized for a sum of len(B) products of residues,
    unless they are packed at least that wide already.  The entries of a
    list A (or of a ModMat A over another modulus) are reduced first, so
    an unreduced or negative one cannot overflow a slot."""
    if not isinstance(B, ModMat) or B.mod != mod:
        B = ModMat(B, mod)
    w, b = _row_slots(mod, len(B))
    packed, w = B.packed_at(w)
    cols = B.cols
    if not isinstance(A, ModMat) or A.mod != mod:
        A = [[x % mod for x in row] for row in A]
    s, c, mask, _ = _barrett(mod, w, cols, b)
    out = []
    for Ai in A:
        x = sum(map(mul, compress(Ai, Ai), compress(packed, Ai)))
        out.append(x - mod * (x * c >> s & mask))
    return ModMat.of_packed(out, mod, w, cols)


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
    cs = [0] * ((p - 1) * p**alpha + 1)
    cs[::p**alpha] = [1] * p
    return cs


def d_prime_elem(ring: "QuotientRing") -> "QuotElem":
    """d'(q) in A/d^n."""
    dq = d_poly_q(ring.p, ring.alpha)
    return ring.from_q_poly({e - 1: c * e for e, c in enumerate(dq) if e and c})


class QuotientRing:
    """A/d^n as a finite free Z/p^N-module with basis 1, q, ..., q^(deg-1)."""

    def __init__(self, p: int, N: int, alpha: int, n: int = 1):
        self.p, self.N, self.alpha, self.n = p, N, alpha, n
        base = d_poly_q(p, alpha)
        modulus = [1]
        for _ in range(n):
            modulus = _poly_mul(modulus, base, p**N)
        # the product of monic polys is monic even after mod-reduction
        modulus[-1] = 1
        self.modulus = modulus
        self.deg = deg = len(modulus) - 1
        # The reduction table: q^k mod (d^n, p^N) for deg <= k < 2 deg, one
        # packed int each.  Its slots hold a sum of 2 deg products of
        # residues: a product of two reduced elements leaves at most deg in
        # each slot, and folding its deg high coefficients back adds at
        # most deg more.
        mod = self._mod = p**N
        w = self._slot = _slot_bytes(mod, 2 * deg)
        self._low_bits = 8 * w * deg
        self._low_mask = (1 << self._low_bits) - 1
        row = [-c % mod for c in modulus[:deg]]  # q^deg
        rows = [row]
        for _ in range(deg - 1):
            # q^(k+1) = q * q^k: shift up, fold the top coefficient back
            top = rows[-1][-1]
            rows.append([(a + top * b) % mod for a, b in zip([0] + rows[-1], row)])
        self._table = [_pack(r, w) for r in rows]

    def _fold(self, x: int) -> list:
        """The deg residues of the packed polynomial x of degree below
        2 deg, whose slots hold at most deg products of residues: its high
        coefficients are read and reduced, multiplied by the table rows and
        added to its low slots, which are read once."""
        hi = x >> self._low_bits
        if hi:
            x = (x & self._low_mask) + sum(map(
                mul, _unpack_mod(hi, self._slot, self.deg, self._mod), self._table))
        return _unpack_mod(x, self._slot, self.deg, self._mod)

    def reduce(self, coeffs) -> list:
        """The deg residues of sum c_k q^k mod (d^n, p^N) for integers c_k.
        Up to deg coefficients need only the reduction mod p^N; a longer
        polynomial is folded by the table from the top, each fold taking
        the reduced part above and the next deg coefficients below it."""
        mod, deg = self._mod, self.deg
        cs = [c % mod for c in coeffs]
        if len(cs) <= deg:
            return cs + [0] * (deg - len(cs))
        i, acc = len(cs) - deg, cs[-deg:]
        while i:
            j = max(i - deg, 0)
            acc = self._fold(_pack(cs[j:i] + acc, self._slot))
            i = j
        return acc

    def elem(self, coeffs, prec=None):
        return QuotElem(self, coeffs, self.N if prec is None else prec)

    def zero(self):
        return self.elem([0])

    def one(self):
        return self.elem([1])

    def const(self, c: int):
        return self.elem([c])

    def q_power(self, k: int):
        if k >= 0:
            return self.elem([0] * k + [1])
        return self.q_power(1).unit_inverse() ** (-k)

    def from_q_poly(self, qcoeffs: dict):
        out = self.zero()
        for e, c in qcoeffs.items():
            out = out + self.q_power(e) * c
        return out

    def from_series(self, f: TruncSeries):
        """Reduce a t-series by Horner's rule in t = q - 1; the unknown tail,
        a multiple of (q-1)^M, costs the p-precision of its image."""
        if f.p != self.p:
            raise ValueError("mixed primes")
        acc = [0]
        for c in reversed(f.c):
            acc = self.reduce(list(map(sub, [0] + acc, acc + [0])))
            acc[0] += c
        N = min(self.N, f.N)
        vals = [vp_int(x, self.p) for x in (self.elem([-1, 1]) ** f.M).coeffs if x]
        return QuotElem(self, [x % self.p**N for x in acc], min([N] + vals))

    def mult_matrix(self, x: "QuotElem") -> list:
        """Matrix of multiplication by x: column i is x*q^i, x packed once,
        shifted up by i slots and reduced by the table."""
        px, w = _pack(x.coeffs, self._slot), 8 * self._slot
        cols = [self._fold(px << (w * i)) for i in range(self.deg)]
        return [list(row) for row in zip(*cols)]

    def endo_matrix(self, q_image_power: int) -> tuple:
        """Matrix of the ring endomorphism q -> q^k on the power basis,
        shared by every ring with the same (p, N, alpha, n)."""
        return _endo_table(self.p, self.N, self.alpha, self.n, q_image_power)

    def partial_matrix(self) -> tuple:
        """Matrix of the twisted derivation sending q^i to
        [p i]_{q^(p^alpha)} q^(i-1), shared like ``endo_matrix``."""
        return _partial_table(self.p, self.N, self.alpha, self.n)

    def __eq__(self, other):
        return (isinstance(other, QuotientRing)
                and (self.p, self.N, self.alpha, self.n) ==
                (other.p, other.N, other.alpha, other.n))


@functools.cache
def _endo_table(p: int, N: int, alpha: int, n: int, k: int) -> tuple:
    """Rows of the matrix of q -> q^k on A/d^n: column i is q^(k i).
    Rows are tuples, so no caller can change the shared table."""
    ring = QuotientRing(p, N, alpha, n)
    return tuple(zip(*(ring.q_power(k * i).coeffs for i in range(ring.deg))))


@functools.cache
def _partial_table(p: int, N: int, alpha: int, n: int) -> tuple:
    """Rows of the matrix of the twisted derivation on A/d^n: column i is
    sum_(j < p i) q^(j p^alpha + i - 1), column 0 is zero."""
    ring = QuotientRing(p, N, alpha, n)
    cols = [[0] * ring.deg]
    for i in range(1, ring.deg):
        img = ring.zero()
        for j in range(p * i):
            img = img + ring.q_power(j * p**alpha + i - 1)
        cols.append(img.coeffs)
    return tuple(zip(*cols))


class QuotElem:
    __slots__ = ("ring", "coeffs", "prec")

    def __init__(self, ring: QuotientRing, coeffs, prec: int):
        self.ring = ring
        self.coeffs = ring.reduce(coeffs)
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
        # a constant operand (no q^i term for i >= 1) scales the other one
        if not any(other.coeffs[1:]):
            return self._linear([a * other.coeffs[0] for a in self.coeffs], pr)
        if not any(self.coeffs[1:]):
            return self._linear([a * self.coeffs[0] for a in other.coeffs], pr)
        ring = self.ring
        out = QuotElem.__new__(QuotElem)
        out.ring, out.prec = ring, pr
        # both operands are reduced: their packed product leaves at most
        # deg products in a slot, the input that _fold takes
        out.coeffs = ring._fold(_pack(self.coeffs, ring._slot) * _pack(other.coeffs, ring._slot))
        return out

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return ring_power(self, k, self.ring.elem([1], self.prec))

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        pr = min(self.prec, other.prec)
        if pr <= 0:
            raise PrecisionError("quotient-ring comparison on zero p-digits")
        mod = self.ring.p**pr
        return all((a - b) % mod == 0 for a, b in zip(self.coeffs, other.coeffs))

    def is_zero(self) -> bool:
        mod = self.ring.p**self.prec
        return all(a % mod == 0 for a in self.coeffs)

    def unit_inverse(self) -> "QuotElem":
        # the inverse applied to 1 is its first column
        inv = inv_mod(self.ring.mult_matrix(self), self.ring.p, self.ring.N)
        return QuotElem(self.ring, [row[0] for row in inv], self.prec)

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
        return QuotElem(self.ring, [sum(x * c for x, c in zip(row, self.coeffs)) for row in M],
                        self.prec)

    def render(self) -> str:
        mod = self.ring.p**self.prec
        parts = [f"{c % mod}*q^{i}" for i, c in enumerate(self.coeffs) if c % mod]
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O({self.ring.p}^{self.prec})"

    def __repr__(self):
        return f"QuotElem({self.render()})"
