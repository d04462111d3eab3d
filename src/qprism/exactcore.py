"""Exact integer arithmetic in q-deformed polynomial rings.

Polynomials live in Z[q, T_1..T_m] extended by generators eps_0 (the
arithmetic direction) and eps_1..eps_m (one per coordinate T_i), subject
to quadratic rewrite rules

    eps_0^2  -> q * (q^(p^alpha) - 1) * eps_0
    eps_i^2  -> (q^(p^alpha) - 1) * T_i * eps_i     (i >= 1)
    eps_i * eps_j -> 0                              (i != j)

Coefficients are arbitrary-precision integers and every identity check
is literal equality of fully reduced terms; nothing is truncated or
reduced mod p here.  The prime p and level alpha are concrete integers
fixed per presentation.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from operator import add, itemgetter
from typing import Iterable

DEFAULT_MAX_QDEG = 4096


class ExponentOverflow(Exception):
    """A q- or T-exponent exceeded the presentation's configured bound."""


class NegativeQPower(Exception):
    """A negative q-exponent appeared in a presentation without q inverted."""


@dataclass(frozen=True)
class RingPresentation:
    """Roster of variables plus the eps rewrite rules, for fixed (p, alpha).

    ``has_eps0`` turns on the arithmetic generator eps_0; ``m`` is the
    number of geometric coordinates (each contributing T_i and eps_i).
    ``m == 0, has_eps0=True`` is the one-variable arithmetic ring;
    ``has_eps0=False, m >= 1`` is the purely geometric ring.
    """

    p: int
    alpha: int = 0
    m: int = 0
    has_eps0: bool = True
    q_invertible: bool = False
    max_qdeg: int = DEFAULT_MAX_QDEG
    max_tdeg: int = DEFAULT_MAX_QDEG

    def __post_init__(self):
        if self.p < 2:
            raise ValueError("p must be a prime >= 2")
        if self.alpha < 0 or self.m < 0:
            raise ValueError("alpha and m must be nonnegative")
        if not self.has_eps0 and self.m == 0:
            raise ValueError("presentation needs at least one generator family")

    @property
    def n_eps(self) -> int:
        return (1 if self.has_eps0 else 0) + self.m

    def eps_label(self, idx: int) -> str:
        if self.has_eps0:
            return f"e{idx}"
        return f"e{idx + 1}"

    def t_index(self, idx: int) -> int:
        """Map an eps slot to its T slot, or -1 for the arithmetic eps_0."""
        if self.has_eps0:
            return idx - 1
        return idx

    def zero(self) -> "BigPoly":
        return BigPoly(self, {})

    def one(self) -> "BigPoly":
        return self.const(1)

    def const(self, c: int) -> "BigPoly":
        if c == 0:
            return BigPoly(self, {})
        return BigPoly(self, {self._key(0, (), ()): c})

    def q_pow(self, k: int) -> "BigPoly":
        return BigPoly(self, {self._key(k, (), ()): 1})

    def t_pow(self, i: int, k: int = 1) -> "BigPoly":
        te = [0] * self.m
        te[i] = k
        return BigPoly(self, {self._key(0, (), tuple(te)): 1})

    def eps(self, idx: int) -> "BigPoly":
        ee = [0] * self.n_eps
        ee[idx] = 1
        return BigPoly(self, {self._key(0, tuple(ee), ()): 1})

    def _key(self, qe, ee, te):
        ee = tuple(ee) if ee else (0,) * self.n_eps
        te = tuple(te) if te else (0,) * self.m
        return (qe, ee, te)

    def beta(self) -> "BigPoly":
        """q^(p^alpha) - 1, the square factor shared by all eps rules."""
        return self.q_pow(self.p**self.alpha) - self.one()

    @functools.cache
    def eps_square_factor(self, idx: int) -> "BigPoly":
        """F with eps_idx^2 -> F * eps_idx, built once per (presentation, idx)."""
        if self.has_eps0 and idx == 0:
            return self.q_pow(1) * self.beta()
        i = self.t_index(idx)
        return self.t_pow(i) * self.beta()

    def d_poly(self) -> "BigPoly":
        """[p]_{q^(p^alpha)}, the distinguished element."""
        return q_analogue(self, self.p, self.p**self.alpha)

    def frobenius_eps_unit(self, idx: int) -> "BigPoly":
        """u with phi(eps_idx) = u * eps_idx for the Frobenius lift phi."""
        if self.has_eps0 and idx == 0:
            return self.q_pow(self.p - 1) * self.d_poly()
        i = self.t_index(idx)
        return self.t_pow(i, self.p - 1) * self.d_poly()


class BigPoly:
    """Element of the presented ring, stored as reduced terms.

    Terms map (q-exponent, eps-exponents, T-exponents) to a nonzero int;
    after reduction every eps exponent is 0 or 1 and at most one eps is
    present per term.  The product kernel relies on this: it files each
    term under its one eps, or none.  A polynomial keeps that split
    (``sectors``) once a product has made it.
    """

    __slots__ = ("pres", "terms", "_sectors")

    def __init__(self, pres: RingPresentation, terms: dict):
        self.pres = pres
        self.terms = terms
        self._sectors = None

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def _check_key(pres, qe, te):
        if qe < 0 and not pres.q_invertible:
            raise NegativeQPower(f"q^{qe} in a presentation without q inverted")
        if abs(qe) > pres.max_qdeg:
            raise ExponentOverflow(f"q-degree {qe} exceeds bound {pres.max_qdeg}")
        for t in te:
            if t > pres.max_tdeg:
                raise ExponentOverflow(f"T-degree {t} exceeds bound {pres.max_tdeg}")

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return BigPoly(self.pres, out)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return BigPoly(self.pres, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return self.pres.zero()
            return BigPoly(self.pres, {k: c * other for k, c in self.terms.items()})
        other = self._coerce(other)
        a, b = self.terms, other.terms
        if not (a and b):
            return self.pres.zero()
        for one, many in ((b, a), (a, b)):
            if len(one) == 1:
                [(key, c)] = one.items()
                if not any(key[1]):
                    return BigPoly(self.pres, _mul_by_term(self.pres, many, key, c))
        return BigPoly(self.pres, _packed_mul(self.pres, [(self, other)]))

    def __rmul__(self, other):
        return self.__mul__(other)

    @staticmethod
    def sum_of_products(pres: RingPresentation, pairs) -> "BigPoly":
        """sum a * b over the (a, b) pairs of polynomials of ``pres``, in
        one packed box: each operand is packed once and each target
        sector read once, however many pairs there are."""
        pairs = [(a, b) for a, b in pairs if a.terms and b.terms]
        return BigPoly(pres, _packed_mul(pres, pairs) if pairs else {})

    def sectors(self) -> dict:
        """The terms split by eps sector (``_split``), made once."""
        if self._sectors is None:
            self._sectors = _split(self.terms, _eps_sectors(self.pres.n_eps)[1])
        return self._sectors

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not supported")
        result = self.pres.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            return self.terms == self.pres.const(other).terms
        if not isinstance(other, BigPoly):
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def _coerce(self, other):
        if isinstance(other, int):
            return self.pres.const(other)
        if isinstance(other, BigPoly):
            if other.pres is not self.pres and other.pres != self.pres:
                raise ValueError("mixed presentations")
            return other
        raise TypeError(f"cannot coerce {type(other)!r}")

    # -- endomorphisms -------------------------------------------------------

    def endomorphism(self, q_exp: int, t_images=None, eps_units=None) -> "BigPoly":
        """Apply q -> q^q_exp, T_i -> q^a * T_i^b, eps -> unit * eps.

        ``t_images`` maps T slot i to (a, b); slots absent stay fixed.
        ``eps_units`` maps eps slot to a BigPoly unit u (eps -> u*eps);
        slots absent stay fixed.
        """
        pres = self.pres
        t_images = t_images or {}
        eps_units = eps_units or {}
        out = pres.zero()
        for (qe, ee, te), c in self.terms.items():
            term = pres.q_pow(qe * q_exp) * c
            for i, t in enumerate(te):
                if t == 0:
                    continue
                a, b = t_images.get(i, (0, 1))
                term = term * pres.q_pow(a * t) * pres.t_pow(i, b * t)
            for idx, e in enumerate(ee):
                if e == 0:
                    continue
                term = term * pres.eps(idx)
                if idx in eps_units:
                    term = term * eps_units[idx]
            out = out + term
        return out

    def frobenius(self) -> "BigPoly":
        """The lift phi: q -> q^p, T_i -> T_i^p, eps -> unit * eps."""
        pres = self.pres
        units = {idx: pres.frobenius_eps_unit(idx) for idx in range(pres.n_eps)}
        t_images = {i: (0, pres.p) for i in range(pres.m)}
        return self.endomorphism(pres.p, t_images, units)

    def gamma0(self) -> "BigPoly":
        """q -> q^(p^(alpha+1)+1), fixing every T_i."""
        return self.endomorphism(self.pres.p ** (self.pres.alpha + 1) + 1)

    def gamma_t(self, i: int) -> "BigPoly":
        """T_i -> q^(p^(alpha+1)) * T_i, fixing q and the other T_j."""
        return self.endomorphism(1, {i: (self.pres.p ** (self.pres.alpha + 1), 1)})

    # -- coefficient queries -------------------------------------------------

    def coefficients_divisible_by(self, n: int) -> bool:
        return all(c % n == 0 for c in self.terms.values())

    def divide_coefficients(self, n: int) -> "BigPoly":
        if not self.coefficients_divisible_by(n):
            raise ValueError(f"coefficients not divisible by {n}")
        return BigPoly(self.pres, {k: c // n for k, c in self.terms.items()})

    def divide_p_pow(self, a: int) -> "BigPoly":
        return self.divide_coefficients(self.pres.p**a)

    def q_coefficients(self) -> dict:
        """For pure q-polynomials, the map exponent -> coefficient."""
        out = {}
        for (qe, ee, te), c in self.terms.items():
            if any(ee) or any(te):
                raise ValueError("not a pure q-polynomial")
            out[qe] = c
        return out

    # -- canonical rendering ------------------------------------------------

    def render(self) -> str:
        if not self.terms:
            return "0"
        pres = self.pres
        keys = sorted(self.terms, key=lambda k: (k[2], k[1], k[0]))
        parts = []
        for qe, ee, te in keys:
            c = self.terms[(qe, ee, te)]
            atoms = []
            if c != 1 or (qe == 0 and not any(ee) and not any(te)):
                atoms.append(str(c))
            if qe:
                atoms.append(f"q^{qe}" if qe != 1 else "q")
            for idx, e in enumerate(ee):
                if e:
                    atoms.append(pres.eps_label(idx))
            for i, t in enumerate(te):
                if t:
                    atoms.append(f"T{i + 1}^{t}" if t != 1 else f"T{i + 1}")
            parts.append("*".join(atoms))
        return " + ".join(parts)

    def __repr__(self):
        return f"BigPoly({self.render()})"


# -- the product kernel -----------------------------------------------------
#
# A general product splits each operand by eps sector (no eps, eps_0,
# eps_1, ...), packs each sector of Z[q, T] into one integer (Kronecker
# substitution over the product's exponent box in mixed radix, one signed
# slot per monomial), multiplies each sector pair once and decodes each
# target sector once.  The rewrite eps_i^2 -> F_i * eps_i is one shifted
# add per term of F_i; eps_i * eps_j (i != j) pairs are never formed.


@functools.cache
def _eps_sectors(n_eps: int):
    """The eps exponents of each sector (0 = none, 1 + idx = eps_idx),
    and the map back from eps exponents to sector."""
    keys = [(0,) * n_eps] + [tuple(int(j == i) for j in range(n_eps))
                             for i in range(n_eps)]
    return keys, {k: s for s, k in enumerate(keys)}


@functools.cache
def _zero_run(width: int):
    """Matches, from a slot boundary, the slots that hold 0 after the
    2^(8*width-1) bias: width-1 zero bytes, then 0x80 (little-endian)."""
    return re.compile(b"(?:" + re.escape(bytes(width - 1) + b"\x80") + b")*").match


def _mul_by_term(pres, terms, key, c0):
    """``terms`` times the eps-free term c0 * q^q0 * T^t0: a shift, no
    collision and no eps rewrite."""
    q0, _, t0 = key
    if any(t0):
        out = {(qe + q0, ee, tuple(map(add, te, t0))): c * c0
               for (qe, ee, te), c in terms.items()}
    else:
        out = {(qe + q0, ee, te): c * c0 for (qe, ee, te), c in terms.items()}
    # Keys sort by q-exponent first.  Checking the extreme exponents
    # checks every key.
    t_max = (max(map(max, map(itemgetter(2), out))),) if pres.m else ()
    BigPoly._check_key(pres, min(out)[0], t_max)
    BigPoly._check_key(pres, max(out)[0], ())
    return out


def _split(terms, sector_of):
    """Sector -> (exponent columns (q, T_1..T_m), coefficients, lo, hi)."""
    secs = {}
    for (qe, ee, te), c in terms.items():
        sec = secs.setdefault(sector_of[ee], ([], []))
        sec[0].append((qe, *te))
        sec[1].append(c)
    out = {}
    for s, (vecs, coeffs) in secs.items():
        cols = list(zip(*vecs))
        out[s] = (cols, coeffs, [min(x) for x in cols], [max(x) for x in cols])
    return out


def _pack(sec, strides, width):
    """One sector as a signed integer: the coefficient of the monomial at
    mixed-radix index k, counted from the sector's own corner, sits in
    slot k of ``width`` bytes."""
    cols, coeffs, slo, shi = sec
    offs = [0] * len(coeffs)
    for col, l, s in zip(cols, slo, strides):
        s *= width
        offs = [k + (x - l) * s for k, x in zip(offs, col)]
    top = sum((h - l) * s for h, l, s in zip(shi, slo, strides))
    size = (top + 1) * width
    pos = bytearray(size)
    neg = None
    for k, c in zip(offs, coeffs):
        if c > 0:
            pos[k:k + width] = c.to_bytes(width, "little")
        else:
            if neg is None:
                neg = bytearray(size)
            neg[k:k + width] = (-c).to_bytes(width, "little")
    val = int.from_bytes(pos, "little")
    return val - int.from_bytes(neg, "little") if neg else val


def _unpack(x, ee, lo, dims, width, out):
    """Add the nonzero slots of the packed sector ``x`` to ``out``, as
    terms with eps exponents ``ee``; ``lo`` is the box's corner."""
    slots = math.prod(dims)
    nbytes = slots * width
    half = 1 << (8 * width - 1)
    # Bias every slot by 2^(8*width-1) so that each reads as unsigned;
    # then one bytes object holds every slot, and a zero slot reads as
    # the bias.  Only the biased sum and its bytes are full-size copies.
    x += int.from_bytes((bytes(width - 1) + b"\x80") * slots, "little")
    raw = x.to_bytes(nbytes, "little")
    del x
    skip = _zero_run(width)
    lo0, t_lo, d0, t_dims = lo[0], lo[1:], dims[0], dims[1:]
    pos = skip(raw, 0).end()
    while pos < nbytes:
        c = int.from_bytes(raw[pos:pos + width], "little") - half
        k = pos // width
        if t_dims:
            k, qe = divmod(k, d0)
            te = []
            for d, l in zip(t_dims, t_lo):
                k, t = divmod(k, d)
                te.append(t + l)
            out[(qe + lo0, ee, tuple(te))] = c
        else:
            out[(k + lo0, ee, ())] = c
        pos = skip(raw, pos + width).end()


def _packed_mul(pres, pairs):
    """The reduced terms of sum a * b over the (a, b) pairs of nonempty
    polynomials, read from one packed box."""
    keys, _ = _eps_sectors(pres.n_eps)
    # (a, b, a sector, b sector, target sector, [(exponent shift, coefficient)])
    jobs = []
    bound = 0
    for a, b in pairs:
        sa_all, sb_all = a.sectors(), b.sectors()
        per_term = 1
        for sa in sa_all:
            for sb in sb_all:
                if not (sa and sb):
                    jobs.append((a, b, sa, sb, sa or sb, [((0,) * (pres.m + 1), 1)]))
                elif sa == sb:
                    fac = pres.eps_square_factor(sa - 1).terms
                    jobs.append((a, b, sa, sb, sa, [((fq, *ft), fc)
                                                    for (fq, _, ft), fc in fac.items()]))
                    per_term = max(per_term, 1 + sum(map(abs, fac.values())))
        # Slot width: an output slot of a * b takes at most one product
        # per term of a when no eps^2 is rewritten and at most 1 + |F|
        # with one, so no output coefficient of the sum exceeds the summed
        # bound; two spare bits keep each signed slot exact under the bias.
        bound += (max(map(abs, a.terms.values())) * max(map(abs, b.terms.values()))
                  * min(len(a.terms), len(b.terms)) * per_term)
    if not jobs:
        return {}
    # The exponent box of the sum.  Each of its extremes is attained by a
    # real term pair of one product (after the eps^2 rewrite, before
    # cancellation), so checking the extremes checks every term.
    lo = hi = None
    for a, b, sa, sb, _, shifts in jobs:
        A, B = a.sectors()[sa], b.sectors()[sb]
        cols = list(zip(*(f for f, _ in shifts)))
        plo = [x + y + min(f) for x, y, f in zip(A[2], B[2], cols)]
        phi = [x + y + max(f) for x, y, f in zip(A[3], B[3], cols)]
        lo = plo if lo is None else list(map(min, lo, plo))
        hi = phi if hi is None else list(map(max, hi, phi))
    BigPoly._check_key(pres, lo[0], hi[1:])
    BigPoly._check_key(pres, hi[0], ())
    dims = [h - l + 1 for h, l in zip(hi, lo)]
    strides = [1]
    for d in dims[:-1]:
        strides.append(strides[-1] * d)
    width = (bound.bit_length() + 2 + 7) // 8
    bits = 8 * width
    packed = {}  # (id of the polynomial, sector) -> packed int, for this box

    def pack(x, sec):
        key = (id(x), sec)
        if key not in packed:
            packed[key] = _pack(x.sectors()[sec], strides, width)
        return packed[key]

    acc = {}
    for a, b, sa, sb, target, shifts in jobs:
        prod = pack(a, sa) * pack(b, sb)
        base = [x + y - l for x, y, l in zip(a.sectors()[sa][2], b.sectors()[sb][2], lo)]
        for f, fc in shifts:
            k = sum((x + y) * s for x, y, s in zip(base, f, strides))
            acc[target] = acc.get(target, 0) + ((fc * prod) << (bits * k))
    out = {}
    for target in list(acc):
        _unpack(acc.pop(target), keys[target], lo, dims, width, out)
    return out


# -- q-analogues and identity checks ---------------------------------------


def q_analogue(pres: RingPresentation, n: int, base_exp: int = 1) -> BigPoly:
    """[n]_{q^base_exp} = 1 + q^b + ... + q^(b(n-1)), with [0] = 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0 or base_exp == 0:
        return pres.const(n)
    # the keys run from q^0 to q^(b(n-1)), so only the last can fail
    BigPoly._check_key(pres, base_exp * (n - 1), ())
    _, ee, te = pres._key(0, (), ())
    return BigPoly(pres, {(base_exp * i, ee, te): 1 for i in range(n)})


def psi_q_power(pres: RingPresentation, k: int) -> BigPoly:
    """psi(q^k) = q^k + eps_0 * [pk]_{q^(p^alpha)} * q^(k-1)."""
    if not pres.has_eps0:
        raise ValueError("presentation has no arithmetic eps")
    if k == 0:
        return pres.one()
    return pres.q_pow(k) + pres.eps(0) * q_analogue(pres, pres.p * k, pres.p**pres.alpha) * pres.q_pow(k - 1)


def psi_t_power(pres: RingPresentation, i: int, j: int) -> BigPoly:
    """psi(T_i^j) = T_i^j + eps_i * d * [j]_{q^(p^(alpha+1))} * T_i^(j-1)."""
    eps_idx = i + (1 if pres.has_eps0 else 0)
    if j == 0:
        return pres.one()
    lead = pres.t_pow(i, j)
    coeff = pres.d_poly() * q_analogue(pres, j, pres.p ** (pres.alpha + 1))
    return lead + pres.eps(eps_idx) * coeff * pres.t_pow(i, j - 1)


def psi_monomial(pres: RingPresentation, k: int, t_exps: Iterable[int] = ()) -> BigPoly:
    """psi of q^k * prod T_i^(a_i) via the closed forms of the factors."""
    out = psi_q_power(pres, k) if pres.has_eps0 else pres.q_pow(k)
    for i, a in enumerate(t_exps):
        out = out * psi_t_power(pres, i, a)
    return out


def verify_psi_hom(p: int, alpha: int, monomials: Iterable, m: int = 0) -> dict:
    """Check psi(fg) = psi(f)psi(g) on all pairs, plus the q^k closed form;
    the checks by case id.

    ``monomials`` is a list of (k, t_exps) pairs; plain ints mean pure q
    powers.  The closed form is anchored by comparing against iterated
    products of the generator images.
    """
    pres = RingPresentation(p, alpha, m=m, has_eps0=True)
    mono = []
    for entry in monomials:
        if isinstance(entry, int):
            mono.append((entry, (0,) * m))
        else:
            mono.append((entry[0], tuple(entry[1]) + (0,) * (m - len(entry[1]))))
    checks = {}
    psi_q = psi_q_power(pres, 1)
    acc = pres.one()
    kmax = max((k for k, _ in mono), default=0)
    closed_by_power = {0: pres.one()}
    for k in range(1, kmax + 1):
        acc = acc * psi_q
        closed_by_power[k] = acc
        if acc != psi_q_power(pres, k):
            checks[f"closed-form k={k}"] = False
    checks[f"closed-form k<= {kmax}"] = True
    for a, (ka, ta) in enumerate(mono):
        for kb, tb in mono[a:]:
            f = psi_monomial(pres, ka, ta)
            g = psi_monomial(pres, kb, tb)
            prod_t = tuple(x + y for x, y in zip(ta, tb))
            fg = psi_monomial(pres, ka + kb, prod_t)
            checks[f"pair q^{ka}T^{ta} * q^{kb}T^{tb}"] = f * g == fg
    return checks


def verify_q_factorization(p: int, alpha: int, n: int, i: int) -> bool:
    """[i p^(n+alpha)]_{q^(p^(alpha+1))} =
    [p]_{q^(p^(alpha+n))} * [i p^alpha]_{q^(p^(alpha+n+1))} * [p^(n-1)]_{q^(p^(alpha+1))}.
    """
    if n < 1 or i < 0:
        raise ValueError("need n >= 1, i >= 0")
    pres = RingPresentation(p, alpha, m=0, has_eps0=True,
                            max_qdeg=max(DEFAULT_MAX_QDEG, 4 * i * p ** (n + 2 * alpha + 1) + 4))
    lhs = q_analogue(pres, i * p ** (n + alpha), p ** (alpha + 1))
    rhs = (
        q_analogue(pres, p, p ** (alpha + n))
        * q_analogue(pres, i * p**alpha, p ** (alpha + n + 1))
        * q_analogue(pres, p ** (n - 1), p ** (alpha + 1))
    )
    return lhs == rhs


def verify_gamma_relations(p: int, alpha: int, m: int) -> dict:
    """gamma_0 gamma_i = gamma_i^(p^(alpha+1)+1) gamma_0 and gamma_i gamma_j
    = gamma_j gamma_i, checked on the generators q, T_1..T_m; the checks
    by case id."""
    if m < 1:
        raise ValueError("need m >= 1")
    pres = RingPresentation(p, alpha, m=m, has_eps0=True)
    k = p ** (alpha + 1) + 1
    checks = {}

    def gamma_i_iter(x, i, times):
        for _ in range(times):
            x = x.gamma_t(i)
        return x

    gens = [("q", pres.q_pow(1))] + [(f"T{j + 1}", pres.t_pow(j)) for j in range(m)]
    for i in range(m):
        for label, g in gens:
            lhs = g.gamma_t(i).gamma0()
            rhs = gamma_i_iter(g.gamma0(), i, k)
            checks[f"gamma0*gamma{i + 1} on {label}"] = lhs == rhs
    for i in range(m):
        for j in range(i + 1, m):
            for label, g in gens:
                lhs = g.gamma_t(j).gamma_t(i)
                rhs = g.gamma_t(i).gamma_t(j)
                checks[f"gamma{i + 1}*gamma{j + 1} on {label}"] = lhs == rhs
    return checks


def verify_phi_epsilon(p: int, alpha: int) -> dict:
    """phi(eps) - eps^p has all coefficients divisible by p, so phi lifts
    the mod-p Frobenius; checked for the arithmetic and geometric rules."""
    checks = {}
    for label, pres in (
            ("arithmetic eps", RingPresentation(p, alpha, m=0, has_eps0=True)),
            ("geometric eps", RingPresentation(p, alpha, m=1, has_eps0=False))):
        diff = pres.eps(0).frobenius() - pres.eps(0) ** p
        checks[label] = diff.coefficients_divisible_by(p)
    return checks


# -- exact univariate division (pure q-polynomials) -------------------------


def poly_divmod_monic(f: BigPoly, g: BigPoly):
    """Exact division of pure q-polynomials by a monic g, over Z.

    Returns (quotient, remainder) with deg remainder < deg g.
    """
    fc = f.q_coefficients()
    gc = g.q_coefficients()
    if not gc:
        raise ZeroDivisionError("division by zero polynomial")
    gdeg = max(gc)
    if gc[gdeg] != 1:
        raise ValueError("divisor must be monic")
    if min(gc) < 0 or (fc and min(fc) < 0):
        raise ValueError("negative exponents not supported here")
    rem = dict(fc)
    quo: dict = {}
    while rem:
        deg = max(rem)
        if deg < gdeg:
            break
        c = rem[deg]
        quo[deg - gdeg] = quo.get(deg - gdeg, 0) + c
        for e, gcoef in gc.items():
            k = deg - gdeg + e
            s = rem.get(k, 0) - c * gcoef
            if s:
                rem[k] = s
            else:
                rem.pop(k, None)
    pres = f.pres
    mk = lambda d: BigPoly(pres, {pres._key(e, (), ()): c for e, c in d.items() if c})
    return mk(quo), mk(rem)


def divides_exactly(f: BigPoly, g: BigPoly) -> bool:
    """True when the monic pure q-polynomial g divides f over Z."""
    _, rem = poly_divmod_monic(f, g)
    return not rem


def verify_e_beta(p: int, alpha: int) -> bool:
    """d'(q) * q * (q^(p^alpha)-1) - p^(alpha+1) is divisible by d in Z[q]."""
    pres = RingPresentation(p, alpha, m=0, has_eps0=True)
    d = pres.d_poly()
    dprime = pres.zero()
    for e, c in d.q_coefficients().items():
        if e:
            dprime = dprime + pres.q_pow(e - 1) * (c * e)
    expr = dprime * pres.q_pow(1) * pres.beta() - pres.const(p ** (alpha + 1))
    return divides_exactly(expr, d)
