"""Iterated Ore extensions with confluent rewriting to a normal form.

Two conventions are supported and never mixed:

* relative: generators nabla_1..nabla_m over the chart ring, with the
  twist T_i -> q^p T_i and no arithmetic generator;
* absolute: generators partial, nabla_1..nabla_m, twists
  q -> q^(p^(alpha+1)+1) and T_i -> q^(p^(alpha+1)) T_i, and the mixed
  commutation law

      partial * nabla_i = s0^(-1) (1 + beta q D_i) nabla_i * partial
                          + (s0^(-1) D_i - s1) * nabla_i

  where D_i is the fixed finite correction operator in nabla_i.

Normal form: scalar coefficient on the left, then T-monomial, then the
nabla letters in ascending index, then partial rightmost.  Scalars can
live in the series ring A, in A/d^n, or in the residue field (the scalar
contexts of ``qprism.scalars``); the same rewriting engine runs over each.
"""

from __future__ import annotations

import math
from operator import add

from .exactcore import BigPoly, RingPresentation, q_analogue
from .padic import QuotientRing, TruncSeries, d_prime_elem
from .scalars import QuotScalars, ResidueScalars, SeriesScalars, akj_recursion


# ---------------------------------------------------------------------------
# the algebra and its elements
# ---------------------------------------------------------------------------


class OreAlgebra:
    """Iterated Ore extension over a scalar context.

    ``m`` is the number of nabla generators; the arithmetic generator
    partial is there exactly when the convention is absolute.
    """

    def __init__(self, ctx, m: int):
        self.ctx = ctx
        self.m = m
        self.with_partial = ctx.convention == "absolute"
        self._rule_cache = {}
        self._past_cache = {}

    # -- element constructors ----------------------------------------------

    def zero(self):
        return OreElement(self, {})

    def one(self):
        return self.scalar(self.ctx.one())

    def scalar(self, s):
        z = (0,) * self.m
        return OreElement(self, {(z, z, 0): s})

    def const(self, c: int):
        return self.scalar(self.ctx.const(c))

    def T(self, i: int, j: int = 1):
        te = [0] * self.m
        te[i] = j
        z = (0,) * self.m
        return OreElement(self, {(tuple(te), z, 0): self.ctx.one()})

    def nabla(self, i: int, j: int = 1):
        ne = [0] * self.m
        ne[i] = j
        z = (0,) * self.m
        return OreElement(self, {(z, tuple(ne), 0): self.ctx.one()})

    def partial(self, j: int = 1):
        if not self.with_partial:
            raise ValueError("algebra has no arithmetic generator")
        z = (0,) * self.m
        return OreElement(self, {(z, z, j): self.ctx.one()})

    def monomial(self, texps, nexps, pexp, coeff=None):
        return OreElement(self, {(tuple(texps), tuple(nexps), pexp):
                                 coeff if coeff is not None else self.ctx.one()})

    # -- the partial past nabla rule -----------------------------------------

    def rule_partial_nabla(self, i: int) -> "OreElement":
        """Normal form of partial * nabla_i (precomputed per index)."""
        if i in self._rule_cache:
            return self._rule_cache[i]
        ctx = self.ctx
        s0i = ctx.s0_inv()
        s1 = ctx.s1()
        bq = ctx.beta * ctx.q_pow(1)
        dcs = ctx.d_coeffs()
        terms = {}
        z = (0,) * self.m

        def put(te, ne, b, s):
            key = (tuple(te), tuple(ne), b)
            terms[key] = terms[key] + s if key in terms else s

        ne1 = [0] * self.m
        ne1[i] = 1
        put(z, ne1, 1, s0i)                       # s0^-1 nabla_i partial
        put(z, ne1, 0, -s1)
        for j, cj in dcs.items():
            if cj.is_zero():
                continue
            te = [0] * self.m
            te[i] = j - 1
            nej = [0] * self.m
            nej[i] = j
            put(te, nej, 1, s0i * bq * cj)        # s0^-1 beta q D nabla^j partial
            put(te, nej, 0, s0i * cj)             # s0^-1 D nabla^j
        out = OreElement(self, terms)
        self._rule_cache[i] = out
        return out

    def partial_past_nablas(self, nexps: tuple, order_rng=None) -> "OreElement":
        """Normal form of partial * nabla^nexps, memoized.

        ``order_rng`` randomizes which index is rewritten first; the
        normal form must not depend on it (confluence evidence).
        """
        if not any(nexps):
            return self.partial()
        if order_rng is None and nexps in self._past_cache:
            return self._past_cache[nexps]
        live = [i for i, e in enumerate(nexps) if e > 0]
        i = order_rng.choice(live) if order_rng is not None else live[0]
        rest = list(nexps)
        rest[i] -= 1
        rest = tuple(rest)
        acc: dict = {}
        for (te, ne, b), s in self.rule_partial_nabla(i).terms.items():
            if b == 0:
                # pure nabla letters commute with the remaining nablas
                key = (te, tuple(map(add, ne, rest)), 0)
                acc[key] = acc[key] + s if key in acc else s
                continue
            # s T^te nabla^ne partial * nabla^rest: resolve the inner
            # partial first, then push the nabla letters through the
            # T-monomials of the tail with the proper twist rule
            piece = self.partial_past_nablas(rest, order_rng)
            for idx in range(self.m):
                for _ in range(ne[idx]):
                    piece = _nabla_times(self, idx, piece)
            _add_terms(acc, s, te, 0, piece.terms)
        out = OreElement(self, acc)
        if order_rng is None:
            self._past_cache[nexps] = out
        return out


class OreElement:
    """Normal-form element: map (T-exps, nabla-exps, partial-exp) -> scalar."""

    __slots__ = ("alg", "terms")

    def __init__(self, alg: OreAlgebra, terms: dict):
        self.alg = alg
        ctx = alg.ctx
        clean = {}
        for key, s in terms.items():
            if key[2] and not alg.with_partial:
                raise ValueError("algebra has no arithmetic generator")
            if not ctx.droppable(s):
                clean[key] = s
        self.terms = clean

    def __add__(self, other):
        out = dict(self.terms)
        for k, s in other.terms.items():
            out[k] = out[k] + s if k in out else s
        return OreElement(self.alg, out)

    def __neg__(self):
        return OreElement(self.alg, {k: -s for k, s in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def is_zero(self) -> bool:
        return all(s.is_zero() for s in self.terms.values())

    def __eq__(self, other):
        return (self - other).is_zero()

    # -- multiplication -------------------------------------------------------

    def __mul__(self, other):
        return self.mul(other)

    def mul(self, other: "OreElement", order_rng=None) -> "OreElement":
        alg = self.alg
        acc: dict = {}
        # the piece nabla^ne partial^b * other depends on (ne, b) alone and
        # is made once per product, except when order_rng randomizes each
        # rewrite on purpose
        pieces = {}
        for (te, ne, b), s in self.terms.items():
            piece = pieces.get((ne, b)) if order_rng is None else None
            if piece is None:
                piece = other
                for _ in range(b):
                    piece = _partial_times(alg, piece, order_rng)
                for i in range(alg.m):
                    for _ in range(ne[i]):
                        piece = _nabla_times(alg, i, piece)
                pieces[(ne, b)] = piece
            _add_terms(acc, s, te, 0, piece.terms)
        return OreElement(alg, acc)

    def __pow__(self, n: int):
        out = self.alg.one()
        for _ in range(n):
            out = out * self
        return out

    # -- the left-module action on the base ring ------------------------------

    def act(self, f: dict) -> dict:
        """Act on a base element {T-exps: scalar}; partial acts via the
        arithmetic derivation, nabla_i via the geometric one."""
        alg = self.alg
        out: dict = {}
        images = {}  # nabla^ne partial^b f, once per (ne, b)
        for (te, ne, b), s in self.terms.items():
            g = images.get((ne, b))
            if g is None:
                g = f
                for _ in range(b):
                    g = base_partial(alg, g)
                for i in range(alg.m):
                    for _ in range(ne[i]):
                        g = base_nabla(alg, i, g)
                images[(ne, b)] = g
            for mono, c in g.items():
                key = tuple(x + y for x, y in zip(mono, te))
                val = s * c
                out[key] = out[key] + val if key in out else val
        # a reduced-precision zero still states which digits are known
        return {k: v for k, v in out.items() if not alg.ctx.droppable(v)}

    def render(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (te, ne, b) in sorted(self.terms):
            s = self.terms[(te, ne, b)]
            atoms = [f"({s.render()})" if hasattr(s, "render") else f"({s})"]
            for i, t in enumerate(te):
                if t:
                    atoms.append(f"T{i + 1}^{t}")
            for i, n in enumerate(ne):
                if n:
                    atoms.append(f"nabla{i + 1}^{n}")
            if b:
                atoms.append(f"partial^{b}")
            bits.append("*".join(atoms))
        return " + ".join(bits)

    def __repr__(self):
        return f"OreElement({self.render()})"


def _nabla_times(alg: OreAlgebra, i: int, x: OreElement) -> OreElement:
    """nabla_i * x for x in normal form."""
    ctx = alg.ctx
    out: dict = {}

    def put(key, s):
        out[key] = out[key] + s if key in out else s

    for (te, ne, b), s in x.terms.items():
        j = te[i]
        ne_up = list(ne)
        ne_up[i] += 1
        # nabla_i T_i^j = q^(j tw) T_i^j nabla_i + [jp] T_i^(j-1)
        put((te, tuple(ne_up), b), s * ctx.gamma_t_factor(j))
        if j > 0:
            te_dn = list(te)
            te_dn[i] -= 1
            put((tuple(te_dn), ne, b), s * ctx.nabla_factor(j))
    return OreElement(alg, out)


def _partial_times(alg: OreAlgebra, x: OreElement, order_rng=None) -> OreElement:
    """partial * x for x in normal form."""
    ctx = alg.ctx
    acc: dict = {}
    for (te, ne, b), s in x.terms.items():
        gs, ds = ctx.gamma0(s), ctx.partial(s)
        # partial commutes with T-monomials (gamma0 fixes T, partial(T) = 0)
        if any(ne):
            _add_terms(acc, gs, te, b, alg.partial_past_nablas(ne, order_rng).terms)
        else:
            key = (te, ne, b + 1)
            acc[key] = acc[key] + gs if key in acc else gs
        # partial costs a t-digit: ds may be a reduced-precision zero,
        # which the one filter in OreElement keeps
        key = (te, ne, b)
        acc[key] = acc[key] + ds if key in acc else ds
    return OreElement(alg, acc)


def _add_terms(acc: dict, s, te: tuple, b: int, terms: dict) -> None:
    """acc += s * T^te * x * partial^b, for x given by its normal-form terms.

    Each product in the engine has this shape: the scalar and the
    T-monomial on the left commute with the scalars of x, and partial^b
    on the right only raises the partial exponent.  Nothing is filtered
    here; the one ``OreElement`` built from ``acc`` drops what is
    droppable.
    """
    shift = any(te)
    for (t2, n2, b2), v in terms.items():
        key = (tuple(map(add, te, t2)) if shift else t2, n2, b2 + b)
        val = s * v
        acc[key] = acc[key] + val if key in acc else val


# -- base-ring operators -----------------------------------------------------


def base_partial(alg: OreAlgebra, f: dict) -> dict:
    ctx = alg.ctx
    out = {}
    for mono, s in f.items():
        d = ctx.partial(s)
        if not ctx.droppable(d):
            out[mono] = out[mono] + d if mono in out else d
    return out


def base_nabla(alg: OreAlgebra, i: int, f: dict) -> dict:
    ctx = alg.ctx
    out = {}
    for mono, s in f.items():
        j = mono[i]
        if j == 0:
            continue
        dn = list(mono)
        dn[i] -= 1
        key = tuple(dn)
        val = s * ctx.nabla_factor(j)
        if not ctx.droppable(val):
            out[key] = out[key] + val if key in out else val
    return out


def base_mul_scalar(alg, f: dict, s) -> dict:
    return {k: v * s for k, v in f.items()}


def base_D_op(alg: OreAlgebra, i: int, f: dict) -> dict:
    """D_i = sum_j c_j T_i^(j-1) nabla_i^(j-1) as a base operator.

    The powers nabla_i^(j-1) f are walked upward once, in ascending j; a
    zero c_j still advances the power, and an empty power ends the walk.
    """
    ctx = alg.ctx
    out: dict = {}
    g, power = f, 0
    for j, cj in sorted(ctx.d_coeffs().items()):
        while power < j - 1 and g:
            g = base_nabla(alg, i, g)
            power += 1
        if not g:
            break
        if cj.is_zero():
            continue
        for mono, s in g.items():
            up = list(mono)
            up[i] += j - 1
            key = tuple(up)
            val = s * cj
            out[key] = out[key] + val if key in out else val
    return {k: v for k, v in out.items() if not ctx.droppable(v)}


def base_add(alg, f: dict, g: dict) -> dict:
    out = dict(f)
    for k, v in g.items():
        out[k] = out[k] + v if k in out else v
    return {k: v for k, v in out.items() if not alg.ctx.droppable(v)}


def base_eq(alg, f: dict, g: dict) -> bool:
    diff = base_add(alg, f, {k: -v for k, v in g.items()})
    return all(v.is_zero() for v in diff.values())


# ---------------------------------------------------------------------------
# verification entry points
# ---------------------------------------------------------------------------


def make_absolute_algebra(p, alpha, m=1, N=8, M=32) -> OreAlgebra:
    return OreAlgebra(SeriesScalars(p, N, M, alpha, "absolute"), m)


def make_relative_algebra(p, m=1, N=8, M=32) -> OreAlgebra:
    return OreAlgebra(SeriesScalars(p, N, M, 0, "relative"), m)


def verify_master_relation(p: int, alpha: int, bound: int = 6,
                           N: int = 8, M: int = 32) -> dict:
    """(1 + beta q D) nabla partial = s0 (partial - s0^(-1) D + s1) nabla
    as operators, evaluated two-sidedly on the monomials q^a T^b; the
    checks by case id."""
    alg = make_absolute_algebra(p, alpha, m=1, N=N, M=M)
    ctx = alg.ctx
    s0, s1 = ctx.s0(), ctx.s1()
    bq = ctx.beta * ctx.q_pow(1)
    checks = {}
    for a in range(bound + 1):
        for b in range(bound + 1):
            f = {(b,): ctx.q_pow(a)}
            lhs_inner = base_nabla(alg, 0, base_partial(alg, f))
            lhs = base_add(alg, lhs_inner,
                           base_mul_scalar(alg, base_D_op(alg, 0, lhs_inner), bq))
            nf = base_nabla(alg, 0, f)
            rhs = base_mul_scalar(alg, base_partial(alg, nf), s0)
            rhs = base_add(alg, rhs, {k: -v for k, v in base_D_op(alg, 0, nf).items()})
            rhs = base_add(alg, rhs, base_mul_scalar(alg, nf, s0 * s1))
            checks[f"q^{a} T^{b}"] = base_eq(alg, lhs, rhs)
    # s1 = -partial(d)/d, read off from the action on T
    d = TruncSeries.d_series(p, N, M, alpha)
    checks["s0*(partial(d) + s1*d) = 0"] = (s0 * (ctx.partial(d) + s1 * d)).is_zero()
    checks["s0*(1 - s1*beta*q) = 1"] = (s0 * (ctx.one() - s1 * bq) - ctx.one()).is_zero()
    return checks


def verify_double_complex_rows(p: int, alpha: int, bound: int = 4,
                               N: int = 8, M: int = 32) -> dict:
    """Square-commutation law behind the two-row double complex, m = 2:

        W_empty nabla_2 = (1 + beta q D_2) nabla_2 W_{1}

    (and the mirror with 1 <-> 2), where W_empty and W_{i} are the
    column maps on 0- and 1-forms, evaluated on monomials q^a T1^b T2^c;
    the checks by case id.
    """
    alg = make_absolute_algebra(p, alpha, m=2, N=N, M=M)
    ctx = alg.ctx
    s0, s1 = ctx.s0(), ctx.s1()
    bq = ctx.beta * ctx.q_pow(1)

    def W1(f, j):  # s0 partial + s0 s1 - D_j
        out = base_mul_scalar(alg, base_partial(alg, f), s0)
        out = base_add(alg, out, base_mul_scalar(alg, f, s0 * s1))
        return base_add(alg, out, {k: -v for k, v in base_D_op(alg, j, f).items()})

    def W0(f):  # s0^2 partial + (s0 + s0^2) s1 - D_1 - D_2 - beta q D_1 D_2
        out = base_mul_scalar(alg, base_partial(alg, f), s0 * s0)
        out = base_add(alg, out, base_mul_scalar(alg, f, (s0 + s0 * s0) * s1))
        out = base_add(alg, out, {k: -v for k, v in base_D_op(alg, 0, f).items()})
        d2 = base_D_op(alg, 1, f)
        out = base_add(alg, out, {k: -v for k, v in d2.items()})
        dd = base_D_op(alg, 0, d2)
        return base_add(alg, out, base_mul_scalar(alg, dd, -bq))

    checks = {}
    for a in range(bound + 1):
        for b in range(bound + 1):
            for c in range(bound + 1):
                f = {(b, c): ctx.q_pow(a)}
                for wedge, other in ((1, 0), (0, 1)):
                    lhs = W0(base_nabla(alg, wedge, f))
                    nw = base_nabla(alg, wedge, W1(f, other))
                    rhs = base_add(alg, nw,
                                   base_mul_scalar(alg, base_D_op(alg, wedge, nw), bq))
                    checks[f"q^{a}T1^{b}T2^{c} wedge{wedge + 1}"] = base_eq(alg, lhs, rhs)
    return checks


def akj_exact(p: int, alpha: int, kmax: int) -> dict:
    """The a_{k,j} recursion (``akj_recursion``) over exact Z[q]."""
    pres = RingPresentation(p, alpha, m=0, has_eps0=True)
    tw = p ** (alpha + 1)
    return akj_recursion(kmax, pres.one(), pres.zero(), pres.q_pow(tw),
                         lambda j: q_analogue(pres, j, tw))


def akj_nabla(pres: RingPresentation, f: BigPoly) -> BigPoly:
    """nabla on Z[q, T]: c q^e T^j -> sum_{i < jp} c q^(e + i p^alpha) T^(j-1),
    that is T^j -> [jp]_{q^(p^alpha)} T^(j-1), filled into one dict."""
    p, step = pres.p, pres.p**pres.alpha
    out: dict = {}
    for (qe, ee, te), c in f.terms.items():
        j = te[0]
        if not j:
            continue
        BigPoly._check_key(qe)
        for e in range(qe, qe + j * p * step, step):
            key = (e, ee, (j - 1,))
            out[key] = out.get(key, 0) + c
    return BigPoly(pres, {k: c for k, c in out.items() if c})


def akj_operator_oracle(p: int, alpha: int, kmax: int, nmax: int = 8) -> bool:
    """Check the recursion against brute operator expansion over Z[q, T]:
    (Id + T beta nabla)^k T^n = T^n + sum_j a_{k,j} beta^j q^(j(j-1)tw/2)
    T^j nabla^j (T^n), evaluated exactly."""
    pres = RingPresentation(p, alpha, m=1, has_eps0=False)
    tw = p ** (alpha + 1)
    beta = pres.q_pow(p**alpha) - pres.one()
    t_beta = pres.t_pow(0) * beta
    # beta^j q^(j(j-1)tw/2) T^j once per j, then times a_{k,j} once per
    # (k, j); a_{k,j} lives in Z[q] with the plain-eps presentation
    factor, beta_j = {}, pres.one()
    for j in range(1, kmax + 1):
        beta_j = beta_j * beta
        factor[j] = beta_j * pres.q_pow(j * (j - 1) // 2 * tw) * pres.t_pow(0, j)
    lead = {}
    for (k, j), a in akj_exact(p, alpha, kmax).items():
        a_here = BigPoly(pres, {pres._key(e, (), ()): c
                                for e, c in a.q_coefficients().items()})
        lead[(k, j)] = a_here * factor[j]
    one = pres.one()
    for n in range(1, nmax + 1):
        t_n = pres.t_pow(0, n)
        nabla_pows = [t_n]  # nabla^j (T^n)
        actual = t_n
        for k in range(1, kmax + 1):
            actual = actual + t_beta * akj_nabla(pres, actual)
            nabla_pows.append(akj_nabla(pres, nabla_pows[-1]))
            expected = BigPoly.sum_of_products(
                pres, [(one, t_n)] + [(lead[(k, j)], nabla_pows[j])
                                      for j in range(1, k + 1)])
            if actual != expected:
                return False
    return True


def akj_mod_d_binomial(p: int, alpha: int) -> bool:
    """a_{k,j} = C(k,j) mod d for k = p^(alpha+1)+1 (exact remainders)."""
    from .exactcore import divides_exactly
    k = p ** (alpha + 1) + 1
    table = akj_exact(p, alpha, k)
    pres = RingPresentation(p, alpha, m=0, has_eps0=True)
    d = pres.d_poly()
    for j in range(1, k + 1):
        diff = table[(k, j)] - pres.const(math.comb(k, j))
        if diff and not divides_exactly(diff, d):
            return False
    return True


def commutator_mod_residue(p: int, alpha: int) -> "OreElement":
    """partial*nabla - nabla*partial in the mod-(d, q-1) specialization."""
    alg = OreAlgebra(ResidueScalars(p, alpha), m=1)
    return alg.partial() * alg.nabla(0) - alg.nabla(0) * alg.partial()


def specialize_mod_d_checks(p: int, alpha: int, N: int = 8) -> dict:
    """The induced algebra over A/d: s0 and s1 take their specialized
    values and the rewrite rule matches the binomial form; the checks by
    case id."""
    ring = QuotientRing(p, N, alpha, 1)
    ctx = QuotScalars(ring)
    k = p ** (alpha + 1) + 1
    checks = {}
    # s0 = 1/k and s1 = -e on the quotient
    kinv = ring.const(k).unit_inverse()
    checks["s0 = 1/(p^(alpha+1)+1) mod d"] = ctx.s0() == kinv
    checks["s1 = -d'(q) mod d"] = ctx.s1() == -d_prime_elem(ring)
    alg = OreAlgebra(ctx, m=1)
    # the rewrite rule is internally consistent: partial*(nabla*x) == (partial*nabla)*x
    x = alg.T(0) + alg.const(2)
    lhs = alg.partial().mul(alg.nabla(0).mul(x))
    rhs = (alg.partial() * alg.nabla(0)).mul(x)
    checks["rule associativity spot check"] = lhs == rhs
    return checks
