"""Scalar contexts of the mixed law: the rings the Ore layer and the
cohomology layer run over.

``_QScalars`` writes s0, s1, the correction coefficients c_j and the
T-factors once over a ring of scalars; each subclass supplies its ring:
the truncated series ring A, a quotient A/d^n, or the residue field F_p.
It needs only ``padic``, so a run that multiplies no Ore elements loads
no Ore or exact-polynomial code.
"""

from __future__ import annotations

from .padic import PadicInt, QuotientRing, TruncSeries, _exponent_key, partial_arith


def akj_recursion(kmax: int, one, zero, q_tw, analogue) -> dict:
    """a_{k,j} for k <= kmax over any ring, given its one, zero, q^tw and
    [j]_{q^tw} = analogue(j): a_{1,1} = 1, a_{k,0} = 1 and
    a_{k+1,j} = a_{k,j}(1 + beta d [j]_{q^tw}) + a_{k,j-1}, where
    beta d = q^tw - 1."""
    bd = q_tw - one
    factor = {j: one + bd * analogue(j) for j in range(1, kmax + 1)}  # once per j
    table = {(1, 1): one}
    for k in range(1, kmax):
        for j in range(1, k + 2):
            prev = table.get((k, j), zero)
            prev_lower = table.get((k, j - 1), one if j == 1 else zero)
            table[(k + 1, j)] = prev * factor[j] + prev_lower
    return table


class _QScalars:
    """The mixed-law scalars, written once over a ring of scalars.

    A subclass supplies the ring: ``zero``, ``one``, ``const``, ``q_pow``,
    ``q_analogue(n, base)`` ([n]_{q^base}), ``droppable``, ``gamma0`` and
    ``partial``, and ``is_zero`` when its elements have no ``is_zero``.
    """

    def __init__(self, p, alpha, convention):
        self.p, self.alpha = p, alpha
        self.convention = convention
        self.tw = p ** (alpha + 1) if convention == "absolute" else p
        self.beta_alpha = alpha if convention == "absolute" else 0
        self.k = self.tw + 1
        self._cache = {}
        self.beta = self.q_pow(p**self.beta_alpha) - self.one()

    def is_zero(self, s):
        return s.is_zero()

    def nabla_factor(self, j: int):
        """nabla(T^j) / T^(j-1) = [jp]_{q^(p^alpha_eff)}."""
        key = ("nf", j)
        if key not in self._cache:
            self._cache[key] = self.q_analogue(j * self.p, self.p**self.beta_alpha)
        return self._cache[key]

    def gamma_t_factor(self, j: int):
        """gamma(T^j) / T^j = q^(j tw)."""
        key = ("gt", j)
        if key not in self._cache:
            self._cache[key] = self.q_pow(j * self.tw)
        return self._cache[key]

    def s0(self):
        if "s0" not in self._cache:
            ka = self.q_analogue(self.k, self.p**self.alpha)
            kb = self.q_analogue(self.k, self.p ** (self.alpha + 1))
            self._cache["s0"] = ka * kb.unit_inverse()
        return self._cache["s0"]

    def s0_inv(self):
        if "s0i" not in self._cache:
            self._cache["s0i"] = self.s0().unit_inverse()
        return self._cache["s0i"]

    def s1(self):
        """-partial(d)/d = -sum_i [i p^alpha]_{q^(p^(alpha+1))} q^(i p^alpha - 1)."""
        if "s1" not in self._cache:
            p, alpha = self.p, self.alpha
            acc = self.zero()
            qinv = self.q_pow(1).unit_inverse()
            for i in range(1, p):
                acc = acc + (self.q_analogue(i * p**alpha, p ** (alpha + 1))
                             * self.q_pow(i * p**alpha) * qinv)
            self._cache["s1"] = -acc
        return self._cache["s1"]

    def akj_table(self, kmax: int) -> dict:
        return akj_recursion(kmax, self.one(), self.zero(), self.q_pow(self.tw),
                             lambda j: self.q_analogue(j, self.tw))

    def d_coeffs(self) -> dict:
        """Coefficients c_j of D = sum_j c_j T^(j-1) nabla^(j-1), j = 2..k."""
        if "dc" not in self._cache:
            k = self.k
            table = self.akj_table(k)
            kb_inv = self.q_analogue(k, self.p ** (self.alpha + 1)).unit_inverse()
            qinv = self.q_pow(1).unit_inverse()
            out = {}
            for j in range(2, k + 1):
                out[j] = (table[(k, j)] * kb_inv * qinv
                          * self.q_pow(j * (j - 1) // 2 * self.tw)
                          * self.beta ** (j - 2))
            self._cache["dc"] = out
        return self._cache["dc"]


class SeriesScalars(_QScalars):
    """Scalars in the truncated series ring A = (Z/p^N)[[t]]/(t^M).

    ``q_pow`` is kept per exponent and ``partial`` per value, keyed by
    (N, M, residues): the residues are reduced mod p^N, so equal keys
    are equal values at equal stated precision.
    """

    def __init__(self, p, N, M, alpha, convention="absolute"):
        self.N, self.M = N, M
        super().__init__(p, alpha, convention)

    def zero(self):
        return TruncSeries.zero(self.p, self.N, self.M)

    def one(self):
        return TruncSeries.one(self.p, self.N, self.M)

    def const(self, c):
        return TruncSeries.const(self.p, self.N, self.M, c)

    def q_pow(self, k):
        key = ("q", _exponent_key(k))
        if key not in self._cache:
            self._cache[key] = TruncSeries.q_power(self.p, self.N, self.M, k)
        return self._cache[key]

    def q_analogue(self, n, base):
        return TruncSeries.q_analogue(self.p, self.N, self.M, n, base)

    def droppable(self, s):
        # only a full-precision zero may be discarded; a reduced-precision
        # zero still carries uncertainty that sums must inherit
        return s.is_zero() and s.N >= self.N and s.M >= self.M

    def gamma0(self, s):
        # q -> q^k with k = p^(beta_alpha+1)+1, through the cached table
        return s.gamma0(self.beta_alpha)

    def partial(self, s):
        key = ("d", s.N, s.M, tuple(s.c))
        if key not in self._cache:
            self._cache[key] = partial_arith(s, self.beta_alpha)
        return self._cache[key]


class QuotScalars(_QScalars):
    """Scalars in A/d^n; the twisted maps descend since they preserve (d)."""

    def __init__(self, ring: QuotientRing):
        self.ring = ring
        super().__init__(ring.p, ring.alpha, "absolute")
        self._gamma_mat = ring.endo_matrix(self.k)
        self._partial_mat = ring.partial_matrix()

    def zero(self):
        return self.ring.zero()

    def one(self):
        return self.ring.one()

    def const(self, c):
        return self.ring.const(c)

    def q_pow(self, k):
        return self.ring.q_power(k)

    def q_analogue(self, n, base):
        out = self.ring.zero()
        for i in range(n):
            out = out + self.ring.q_power(base * i)
        return out

    def droppable(self, s):
        return s.is_zero() and s.prec >= self.ring.N

    def gamma0(self, s):
        return s.apply_matrix(self._gamma_mat)

    def partial(self, s):
        return s.apply_matrix(self._partial_mat)


class ResidueScalars(_QScalars):
    """Scalars in the residue field A/(p, d, q-1) = F_p, as PadicInt(p, 1):
    every q-power is 1 and [n]_{q^b} = n, so all twists trivialize."""

    def __init__(self, p, alpha):
        super().__init__(p, alpha, "absolute")

    def zero(self):
        return PadicInt(self.p, 1, 0)

    def one(self):
        return PadicInt(self.p, 1, 1)

    def const(self, c):
        return PadicInt(self.p, 1, c)

    def q_pow(self, k):
        return self.one()

    def q_analogue(self, n, base):
        return self.const(n)

    def is_zero(self, s):
        return s.residue == 0

    droppable = is_zero

    def gamma0(self, s):
        return s

    def partial(self, s):
        return self.zero()
