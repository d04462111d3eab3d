"""Modules with q-connection / q-Higgs data and their cohomology.

Modules are finite free over A/d^n, carried as operator matrices.  The
arithmetic operator is gamma_0-semilinear over the base, so its
flattened Z/p^N-matrix is (D-blocks) * gamma_0 + partial; the geometric
operators are linear once the T-action is fixed (the bundled examples
use the fiber T = 0, where the correction operators D_i vanish).
Cohomology is computed by flattening everything to Z/p^N matrix values
(``padic.ModMat``) and reading kernels and cokernels off their Smith
form over Z/p^N.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

from .padic import (
    ModMat,
    QuotElem,
    QuotientRing,
    coker_invariants_mod,
    d_prime_elem,
    inv_mod,
    ker_basis_mod,
    mat_mul_mod,
    subquotient_invariants,
    vp_factorial,
    vp_int,
)


# ---------------------------------------------------------------------------
# modules and flattening
# ---------------------------------------------------------------------------


class _Flattening:
    """Flattening of rank x rank matrices over one ring A/d^n to Z/p^N
    matrices, built once per (ring, rank) and shared by every module of
    that shape (``_flattening``).

    The table has a row for each block column j and each q^k (k < deg):
    the deg rows of the multiplication matrix of q^k placed in block
    column j, end to end.  The block rows of a matrix are then one product
    of its entries' coefficient rows by the table, each row of it split
    into the deg rows of its block row.  Flattened scalars and the block
    diagonal operators are kept here too, keyed by their coefficients."""

    def __init__(self, ring: QuotientRing, rank: int):
        self.ring, self.rank = ring, rank
        d = ring.deg
        self.mod = ring.p ** ring.N
        mats = [ring.mult_matrix(ring.q_power(k)) for k in range(d)]
        zero = (0,) * d
        self.table = ModMat.of_reduced(
            [[x for row in M for blk in (zero,) * j + (row,) + (zero,) * (rank - 1 - j)
              for x in blk] for j in range(rank) for M in mats], self.mod)
        self.kept = {}

    def flatten(self, B) -> ModMat:
        """The flattening of a rank x rank matrix of QuotElem entries."""
        coeffs = [[x for e in Bi for x in e.coeffs] for Bi in B]
        return mat_mul_mod(coeffs, self.table, self.mod).split_rows(self.ring.deg)

    def scalar(self, x: QuotElem) -> ModMat:
        """Multiplication by x on rank copies of the ring, flattened."""
        key = ("scalar", tuple(x.coeffs))
        if key not in self.kept:
            zero = self.ring.zero()
            self.kept[key] = self.flatten([[x if i == j else zero for j in range(self.rank)]
                                           for i in range(self.rank)])
        return self.kept[key]

    def kron(self, base_mat) -> ModMat:
        """The block diagonal matrix with `rank` copies of base_mat."""
        key = ("kron", tuple(map(tuple, base_mat)))
        if key not in self.kept:
            d, n = self.ring.deg, self.rank * self.ring.deg
            base = ModMat(base_mat, self.mod)
            self.kept[key] = ModMat.from_blocks(
                n, n, self.mod, [(base, d * i, d * i) for i in range(self.rank)])
        return self.kept[key]


@functools.cache
def _flattening(p: int, N: int, alpha: int, n: int, rank: int) -> _Flattening:
    return _Flattening(QuotientRing(p, N, alpha, n), rank)


@dataclass
class QConnModule:
    """Finite free A/d^n-module with operator matrices.

    ``D`` is the arithmetic operator (gamma_0-semilinear over the base),
    ``N_list`` the geometric ones, ``theta_list`` the T-actions (zero
    when omitted: the fiber at T = 0).
    """

    ring: QuotientRing
    rank: int
    D: list = None
    N_list: list = field(default_factory=list)
    theta_list: list = None
    # plain matrices instead of the gamma_0-semilinear structure action;
    # over A/d (n = 1) the two coincide since the base maps trivialize
    scalar_operators: bool = False
    # flattened operators, built on first use: nothing mutates a module's
    # operator matrices after construction, and a flattening is an
    # immutable ModMat, so each operator is flattened once and shared
    _flats: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    @property
    def m(self) -> int:
        return len(self.N_list)

    @property
    def flat_mod(self) -> int:
        """The modulus p^N of every flattened matrix."""
        return self.ring.p ** self.ring.N

    def scalar_matrix(self, x: QuotElem) -> list:
        return [[x if i == j else self.ring.zero() for j in range(self.rank)]
                for i in range(self.rank)]

    # -- flattening ---------------------------------------------------------

    @property
    def _tables(self) -> _Flattening:
        ring = self.ring
        return _flattening(ring.p, ring.N, ring.alpha, ring.n, self.rank)

    def _flat_of_blocks(self, B: list) -> ModMat:
        """Matrix of QuotElem entries -> Z/p^N block matrix."""
        return self._tables.flatten(B)

    def _kron_base(self, base_mat) -> ModMat:
        """The block diagonal matrix with `rank` copies of base_mat, kept
        per (ring, rank)."""
        return self._tables.kron(base_mat)

    def flat_partial(self) -> ModMat:
        """The gamma_0-semilinear arithmetic operator, flattened."""
        if "partial" not in self._flats:
            self._flats["partial"] = self._flatten_partial()
        return self._flats["partial"]

    def _flatten_partial(self) -> ModMat:
        if self.D is None:
            raise ValueError("module has no arithmetic operator")
        ring = self.ring
        Dm = self._flat_of_blocks(self.D)
        if self.scalar_operators:
            return Dm
        if ring.n > 1:
            # over A/d, gamma_0 is the identity: q^(p^(alpha+1)) = 1 mod d
            Dm = Dm @ self._kron_base(ring.endo_matrix(ring.p ** (ring.alpha + 1) + 1))
        return Dm + self._kron_base(ring.partial_matrix())

    def flat_nabla(self, i: int) -> ModMat:
        key = ("nabla", i)
        if key not in self._flats:
            self._flats[key] = self._flat_of_blocks(self.N_list[i])
        return self._flats[key]

    def flat_theta(self, i: int) -> ModMat:
        if self.theta_list is None:
            return ModMat.zero(self.rank * self.ring.deg, self.flat_mod)
        return self._flat_of_blocks(self.theta_list[i])

    def flat_scalar(self, x: QuotElem) -> ModMat:
        """Multiplication by x, flattened once per (ring, rank) and
        coefficient list, so a repeated scalar is built once."""
        return self._tables.scalar(x)

    def flat_correction(self, i: int, d_coeffs: dict) -> ModMat:
        """The finite correction operator on this module:
        sum_j c_j * Theta_i^(j-1) * Nabla_i^(j-1).

        The sum stops at the first power of Theta_i that is zero mod p^N,
        since every later term has it as a factor; at the fiber T = 0
        (Theta_i = 0) the operator is zero, before any product.  A
        non-nilpotent Theta_i gets every term up to j = max(d_coeffs)."""
        Th = self.flat_theta(i)
        if Th.is_zero():
            return Th
        out = ModMat.zero(len(Th), Th.mod)
        Np = self.flat_nabla(i)
        th_pow, nab_pow = Th, Np
        for j in range(2, max(d_coeffs) + 1):
            if j > 2:
                th_pow = Th @ th_pow
                if th_pow.is_zero():
                    break
                nab_pow = Np @ nab_pow
            cj = d_coeffs.get(j)
            if cj is None or cj.is_zero():
                continue
            out = out + self.flat_scalar(cj) @ (th_pow @ nab_pow)
        return out

    # -- invariant certification ---------------------------------------------

    def certify_leibniz(self) -> bool:
        """operator(s * v) = gamma(s) op(v) + der(s) v at the flat level,
        for s = q and s = q^2 + 3."""
        samples = [self.ring.q_power(1), self.ring.q_power(2) + 3]
        ok = True
        if self.D is not None:
            P = self.flat_partial()
            g0 = self.ring.endo_matrix(self.ring.p ** (self.ring.alpha + 1) + 1)
            dm = self.ring.partial_matrix()
            for s in samples:
                S = self.flat_scalar(s)
                gS = self.flat_scalar(s.apply_matrix(g0))
                dS = self.flat_scalar(s.apply_matrix(dm))
                ok = ok and P @ S == gS @ P + dS
        for i in range(self.m):
            Ni = self.flat_nabla(i)
            for s in samples:
                S = self.flat_scalar(s)
                ok = ok and Ni @ S == S @ Ni
        return ok

    def certify_commuting_nablas(self) -> bool:
        for i in range(self.m):
            for j in range(i + 1, self.m):
                A, B = self.flat_nabla(i), self.flat_nabla(j)
                if A @ B != B @ A:
                    return False
        return True

    def certify_master_relation(self, scalars) -> bool:
        """(1 + beta q D_i) Nabla_i Partial = s0 (Partial + s1) Nabla_i
        - D_i Nabla_i as flat matrices.  A zero D_i adds
        nothing to either side, so its two products are skipped."""
        P = self.flat_partial()
        s0 = self.flat_scalar(scalars.s0())
        s0s1 = self.flat_scalar(scalars.s0() * scalars.s1())
        bq = self.flat_scalar(scalars.beta * self.ring.q_power(1))
        dcs = scalars.d_coeffs()
        for i in range(self.m):
            Ni = self.flat_nabla(i)
            Di = self.flat_correction(i, dcs)
            lhs = Ni @ P
            rhs = s0 @ (P @ Ni) + s0s1 @ Ni
            if not Di.is_zero():
                lhs = lhs + bq @ (Di @ lhs)
                rhs = rhs - Di @ Ni
            if lhs != rhs:
                return False
        return True


# ---------------------------------------------------------------------------
# cohomology containers
# ---------------------------------------------------------------------------


def render_invariants(p: int, N: int, exps: list) -> str:
    """Elementary divisors as 'Z/p^e + ...'; p^N summands are free at
    this precision."""
    if not exps:
        return "0"
    parts = []
    free = sum(1 for e in exps if e >= N)
    for e in sorted(e for e in exps if e < N):
        parts.append(f"Z/{p}^{e}")
    if free:
        parts.append(f"(Z/{p}^{N})^{free} [free at precision]")
    return " + ".join(parts) if parts else "0"


@dataclass
class CohomologyReport:
    h: dict
    p: int
    N: int

    def render(self) -> str:
        return "; ".join(f"H^{i} = {render_invariants(self.p, self.N, exps)}"
                         for i, exps in sorted(self.h.items()))


def fib_partial(mod: QConnModule) -> CohomologyReport:
    """Kernel and cokernel of the arithmetic operator on the flattening."""
    p, N = mod.ring.p, mod.ring.N
    P = mod.flat_partial()
    h0 = subquotient_invariants(ker_basis_mod(P, p, N), [], len(P), p, N)
    h1 = coker_invariants_mod(P, p, N)
    return CohomologyReport({0: h0, 1: h1}, p, N)


@dataclass
class CochainComplex:
    """Flat Z/p^N complex: diffs[i], a ModMat, maps degree i to i+1."""

    p: int
    N: int
    ranks: list
    diffs: list

    def d_squared_zero(self) -> bool:
        return all((self.diffs[i + 1] @ self.diffs[i]).is_zero()
                   for i in range(len(self.diffs) - 1))

    def cohomology(self, i: int) -> list:
        """Invariant factors of ker(d_i)/im(d_(i-1))."""
        n = self.ranks[i]
        if i < len(self.diffs):
            kgens = ker_basis_mod(self.diffs[i], self.p, self.N)
        else:
            kgens = [[1 if a == b else 0 for a in range(n)] for b in range(n)]
        # the nonzero columns of d_(i-1)
        bgens = [col for col in zip(*self.diffs[i - 1]) if any(col)] if i > 0 else []
        return subquotient_invariants(kgens, bgens, n, self.p, self.N)


# ---------------------------------------------------------------------------
# Breuil-Kisin style twists
# ---------------------------------------------------------------------------


def twist_unit_scalar(p: int, alpha: int, k: int, prec: int) -> int:
    """((1+p^(alpha+1))^k - 1) / p^(alpha+1) mod p^prec, any integer k."""
    a1 = alpha + 1
    mod = p ** (prec + a1)
    x = pow(1 + p**a1, k, mod)
    num = (x - 1) % mod
    if num % p**a1:
        raise ArithmeticError("binomial numerator not divisible by p^(alpha+1)")
    return (num // p**a1) % p**prec


def bk_twist(k: int, p: int, alpha: int, n: int = 1, N: int = 8) -> QConnModule:
    """Rank-1 module with the arithmetic operator acting by
    e * ((1+p^(alpha+1))^k - 1) / p^(alpha+1)."""
    ring = QuotientRing(p, N, alpha, n)
    e = d_prime_elem(ring)
    scal = e * twist_unit_scalar(p, alpha, k, N)
    return QConnModule(ring, 1, D=[[scal]], N_list=[])


@dataclass
class TwistH1Result:
    k: int
    computed_exponent: int
    predicted_exponent: object
    status: str  # "pass" | "expected-discrepancy" | "not-certified" | "fail"


def normalized_twist_h1(k: int, p: int, N: int = 8) -> TwistH1Result:
    """H^1 of the unit-group-normalized twist: cokernel of multiplication
    by ((1+p)^k - 1)/p on Z/p^N, against the multiplication-by-k oracle.

    At the boundary p = 2 the valuation of (1+p)^k - 1 genuinely jumps
    for every even k (v_2(3^k - 1) = v_2(k) + 2), so the computed order
    is exactly p times the predicted one; those cases report an expected
    discrepancy with the computed value asserted, never a bare failure.
    The smallest instance is k = 2: order 4 against the predicted 2.

    The cokernel of Z/p^N is at most p^N, so a computed p^N only bounds
    the order from below: it is not-certified when the expected order
    (the predicted one, or p times it at the p = 2 boundary) is at least
    p^N, and fails when the expected order is smaller.
    """
    c = twist_unit_scalar(p, 0, k, N)
    inv = coker_invariants_mod([[c]], p, N)
    got = sum(inv)
    want = vp_int(k, p) if k else None
    if k == 0:
        return TwistH1Result(k, got, f">= {N}", "pass" if got >= N else "fail")
    expected = want + 1 if p == 2 and k % 2 == 0 else want
    if got == N:
        return TwistH1Result(k, got, want, "not-certified" if expected >= N else "fail")
    if got == want:
        return TwistH1Result(k, got, want, "pass")
    if got == expected:
        return TwistH1Result(k, got, want, "expected-discrepancy")
    return TwistH1Result(k, got, want, "fail")


def sen_twist_consistency(k: int, p: int, alpha: int, N: int = 8) -> bool:
    """1 + q (q^(p^alpha)-1) * twist-scalar = (1+p^(alpha+1))^k in A/d."""
    ring = QuotientRing(p, N, alpha, 1)
    e = d_prime_elem(ring)
    scal = e * twist_unit_scalar(p, alpha, k, N)
    beta_ht = ring.q_power(p**alpha + 1) - ring.q_power(1)
    lhs = ring.one() + beta_ht * scal
    mod = p**N
    rhs = ring.const(pow(1 + p ** (alpha + 1), k, mod))
    return lhs == rhs


# ---------------------------------------------------------------------------
# Koszul and double complexes
# ---------------------------------------------------------------------------


def qdr_complex(mod: QConnModule) -> CochainComplex:
    """The Koszul complex of the commuting geometric operators, with the
    sign (-1)^(u-1) on the wedge slot the u-th index is inserted into."""
    p, N = mod.ring.p, mod.ring.N
    n = mod.rank * mod.ring.deg
    m = mod.m
    flats = [mod.flat_nabla(i) for i in range(m)]
    signed = (flats, [-F for F in flats])
    by_size = _subsets_by_size(m)
    ranks = [len(Ss) * n for Ss in by_size]
    diffs = []
    for t in range(m):
        src = {S: si for si, S in enumerate(by_size[t])}
        # T minus its u-th index (u from 1) enters with sign (-1)^(u-1)
        blocks = [(signed[u % 2][i], n * ti, n * src[T[:u] + T[u + 1:]])
                  for ti, T in enumerate(by_size[t + 1]) for u, i in enumerate(T)]
        diffs.append(ModMat.from_blocks(ranks[t + 1], ranks[t], mod.flat_mod, blocks))
    return CochainComplex(p, N, ranks, diffs)


def _subsets_by_size(m: int) -> list:
    """The subsets of range(m) of each size t = 0..m, as sorted tuples in
    lexicographic order."""
    return [list(itertools.combinations(range(m), t)) for t in range(m + 1)]


def double_complex(mod: QConnModule, scalars) -> dict:
    """Two q-de Rham rows joined by the corrected column maps.

    Returns the square-commutativity verdicts, the total (fiber)
    complex, and the per-wedge column maps.  ``scalars`` supplies s0, s1
    and the correction coefficients over the module's base ring.

    A zero correction D_i (every one at the fiber T = 0) adds no term to
    the elementary symmetric sums, and 1 + beta q D_i is then the
    identity, so only the nonzero corrections are multiplied and
    inverted.
    """
    p, N = mod.ring.p, mod.ring.N
    n = mod.rank * mod.ring.deg
    m = mod.m
    row = qdr_complex(mod)
    P = mod.flat_partial()
    s0 = scalars.s0()
    s1 = scalars.s1()
    bq = scalars.beta * mod.ring.q_power(1)
    dcs = scalars.d_coeffs()
    corr = {i: mod.flat_correction(i, dcs) for i in range(m)}
    corr = {i: D for i, D in corr.items() if not D.is_zero()}
    bq_flat = mod.flat_scalar(bq)
    # (1 + beta q D_i)^(-1), shared by every column map over an S holding i
    inv_one_plus = {i: inv_mod(ModMat.identity(n, mod.flat_mod) + bq_flat @ D, p, N)
                    for i, D in corr.items()}
    by_size = _subsets_by_size(m)

    def column_map(S: tuple) -> ModMat:
        t = len(S)
        acc = mod.flat_scalar(s0**t) @ P if t else P
        acc = acc + mod.flat_scalar(sum((s0**i for i in range(1, t + 1)),
                                        mod.ring.zero()) * s1)
        live = [i for i in S if i in corr]
        if live:
            # - sum_i (beta q)^(i-1) P^i(corrections over S), by Horner's rule
            elem = _elementary_symmetric([corr[i] for i in live])
            acc_corr = elem[len(live)]
            for i in range(len(live) - 1, 0, -1):
                acc_corr = elem[i] + bq_flat @ acc_corr
            acc = acc - acc_corr
        # invert prod (1 + beta q D_i)
        for i in live:
            acc = inv_one_plus[i] @ acc
        return acc

    columns = {S: column_map(S) for Ss in by_size for S in Ss}

    # square commutativity: V_(S+i) o (sign nabla_i) = (sign nabla_i) o V_S
    squares_ok = True
    flats = [mod.flat_nabla(i) for i in range(m)]
    for S in columns:
        for i in range(m):
            if i in S:
                continue
            T = tuple(sorted(S + (i,)))
            squares_ok = squares_ok and columns[T] @ flats[i] == flats[i] @ columns[S]

    # total fiber complex: C^j = Row^j (+) Row^(j-1),
    # d(x, y) = (d x, V(x) - d y)
    ranks = [row.ranks[0]] + [row.ranks[j] + row.ranks[j - 1]
                              for j in range(1, m + 1)] + [row.ranks[m]]
    diffs = []
    for j in range(m + 1):
        src_a, dst_a = row.ranks[j], row.ranks[j + 1] if j < m else 0
        src_b = row.ranks[j - 1] if j >= 1 else 0
        # d on the first block, then V on the first block and -d on the
        # second (no d at j = m, no second block at j = 0)
        blocks = [(columns[S], dst_a + si * n, si * n) for si, S in enumerate(by_size[j])]
        if j < m:
            blocks.append((row.diffs[j], 0, 0))
        if j >= 1:
            blocks.append((-row.diffs[j - 1], dst_a, src_a))
        diffs.append(ModMat.from_blocks(dst_a + src_a, src_a + src_b, mod.flat_mod, blocks))
    total = CochainComplex(p, N, ranks, diffs)
    return {"squares_ok": squares_ok, "row": row, "total": total,
            "columns": columns}


def _elementary_symmetric(mats: list) -> dict:
    """P^i of commuting matrices, i = 1..len(mats)."""
    elem = {}
    for M in mats:
        # P^i(mats + [M]) = P^i(mats) + M P^(i-1)(mats), with P^0 = 1
        nxt = {1: elem[1] + M if elem else M}
        for i, val in elem.items():
            term = M @ val
            nxt[i + 1] = elem[i + 1] + term if i + 1 in elem else term
        elem = nxt
    return elem


# ---------------------------------------------------------------------------
# nilpotence and random mixed modules
# ---------------------------------------------------------------------------


def nilpotence_check(mod: QConnModule, bound: int = 64) -> dict:
    """Reduce mod (p, d, q-1) and iterate each operator on each basis
    vector until zero or the bound."""
    p = mod.ring.p

    def reduce_matrix(B):
        return [[sum(x.coeffs) % p for x in row] for row in B]

    ops = {}
    if mod.D is not None:
        ops["partial"] = reduce_matrix(mod.D)
    for i in range(mod.m):
        ops[f"nabla{i + 1}"] = reduce_matrix(mod.N_list[i])
    out = {}
    for name, M in ops.items():
        r = len(M)
        indices = []
        for j in range(r):
            v = [1 if a == j else 0 for a in range(r)]
            steps = 0
            while any(v) and steps <= bound:
                v = [sum(M[a][b] * v[b] for b in range(r)) % p for a in range(r)]
                steps += 1
            indices.append(steps if steps <= bound else None)
        out[name] = indices
    out["certified"] = all(i is not None for idx in out.values()
                           if isinstance(idx, list) for i in idx)
    return out


def graded_mixed_module(p: int, alpha: int, N: int, shape: tuple,
                        rng) -> QConnModule:
    """A mixed module over A/d at T = 0: grid basis indexed by shape,
    arithmetic operator diag of the twist scalars of the total degree,
    geometric operators raising each grid index with random scalars.

    Satisfies the mixed commutation law by construction; a random change
    of basis then hides the grading.
    """
    ring = QuotientRing(p, N, alpha, 1)
    e = d_prime_elem(ring)
    basis = list(itertools.product(*[range(s) for s in shape]))
    r = len(basis)
    idx = {b: i for i, b in enumerate(basis)}
    D = [[ring.zero() for _ in range(r)] for _ in range(r)]
    for b, i in idx.items():
        D[i][i] = e * twist_unit_scalar(p, alpha, sum(b), N)
    N_list = []
    for axis in range(len(shape)):
        coeffs = [ring.const(rng.randrange(1, p ** min(N, 3)))
                  for _ in range(shape[axis])]
        Nm = [[ring.zero() for _ in range(r)] for _ in range(r)]
        for b, i in idx.items():
            if b[axis] + 1 < shape[axis]:
                up = list(b)
                up[axis] += 1
                Nm[idx[tuple(up)]][i] = coeffs[b[axis]]
        N_list.append(Nm)
    mod = QConnModule(ring, r, D=D, N_list=N_list)
    return conjugate_module(mod, *random_unit_matrix(ring, r, rng))


def random_unit_matrix(ring: QuotientRing, r: int, rng) -> tuple:
    """(P, P^-1) for a product P of elementary matrices over A/d: each row
    operation row_i += c row_j on P is the column operation
    col_j -= c col_i on its inverse."""
    M = [[ring.one() if i == j else ring.zero() for j in range(r)]
         for i in range(r)]
    M_inv = [row[:] for row in M]
    for _ in range(2 * r):
        i, j = rng.randrange(r), rng.randrange(r)
        if i == j:
            continue
        c = ring.from_q_poly({rng.randrange(ring.deg): rng.randrange(ring.p**2)})
        for k in range(r):
            M[i][k] = M[i][k] + c * M[j][k]
            M_inv[k][j] = M_inv[k][j] - c * M_inv[k][i]
    return M, M_inv


def conjugate_module(mod: QConnModule, P: list, P_inv: list) -> QConnModule:
    """Change of basis by P, whose inverse P_inv the caller supplies; over
    A/d the base maps are trivial so ordinary similarity preserves all the
    operator relations.

    Flattening is a ring map on A-linear operators, so P^-1 B P is
    computed on the flattenings.  Only the first column of each block is
    read back (a block applied to 1 is its entry's coefficient vector),
    so B's flattening is multiplied by those columns of P's alone, which
    are the coefficients of P's entries.  Entry (i, j) combines all of B
    with column j of P, and carries the smallest precision among those
    entries."""
    ring = mod.ring
    r, d = mod.rank, ring.deg
    inv_flat = mod._flat_of_blocks(P_inv)
    P_ones = ModMat.of_reduced([[P[i][j].coeffs[a] for j in range(r)]
                                for i in range(r) for a in range(d)], mod.flat_mod)
    P_prec = [min(P[k][j].prec for k in range(r)) for j in range(r)]

    def conj(B):
        B_prec = min((x.prec for row in B for x in row), default=ring.N)
        # the (i, j) block applied to 1: rows i*d .. i*d + d - 1 of column j
        cols = list(zip(*(inv_flat @ (mod._flat_of_blocks(B) @ P_ones))))
        return [[ring.elem(cols[j][i * d:(i + 1) * d], min(B_prec, P_prec[j]))
                 for j in range(r)] for i in range(r)]

    return QConnModule(ring, r,
                       D=conj(mod.D) if mod.D is not None else None,
                       N_list=[conj(Nm) for Nm in mod.N_list],
                       theta_list=None)


def tensor(a: QConnModule, b: QConnModule) -> QConnModule:
    """Kronecker module with the twisted sum operators."""
    if a.ring != b.ring:
        raise ValueError("tensor needs matching base")
    ring = a.ring
    ra, rb = a.rank, b.rank
    beta_ht = ring.q_power(ring.p**ring.alpha + 1) - ring.q_power(1)

    def kron(X, Y):
        # entry (i1 rb + i2, j1 rb + j2) is X[i1][j1] Y[i2][j2]
        return [[X[i1][j1] * Y[i2][j2] for j1 in range(ra) for j2 in range(rb)]
                for i1 in range(ra) for i2 in range(rb)]

    eyeA = a.scalar_matrix(ring.one())
    eyeB = b.scalar_matrix(ring.one())
    D = None
    if a.D is not None and b.D is not None:
        D = [[x + y + beta_ht * z for x, y, z in zip(*rows)]
             for rows in zip(kron(a.D, eyeB), kron(eyeA, b.D), kron(a.D, b.D))]
    # T = 0 fiber: the beta T_i cross term vanishes
    N_list = [[[x + y for x, y in zip(*rows)]
               for rows in zip(kron(Na, eyeB), kron(eyeA, b.N_list[i]))]
              for i, Na in enumerate(a.N_list)]
    return QConnModule(ring, ra * rb, D=D, N_list=N_list)


# ---------------------------------------------------------------------------
# divided-power (Hodge-Tate) regular representation
# ---------------------------------------------------------------------------


class DividedPowerAlgebra:
    """Basis symbols a^[n] with a^[i] a^[j] = C(i+j, i) a^[i+j], several
    variables, truncated at total degree Dmax: terms above it are dropped."""

    def __init__(self, ring: QuotientRing, nvars: int, dmax: int):
        self.ring = ring
        self.nvars = nvars
        self.dmax = dmax

    def zero(self):
        return DPElement(self, {})

    def unit(self):
        return DPElement(self, {(0,) * self.nvars: self.ring.one()})

    def basis(self, exps) -> "DPElement":
        return DPElement(self, {tuple(exps): self.ring.one()})


class DPElement:
    __slots__ = ("alg", "terms")

    def __init__(self, alg, terms):
        self.alg = alg
        clean = {}
        for k, v in terms.items():
            if sum(k) > alg.dmax:
                continue
            # a coefficient that vanishes only at reduced precision still
            # carries uncertainty and must stay, or sums forget the loss
            if v.prec >= alg.ring.N and v.is_zero():
                continue
            clean[k] = v
        self.terms = clean

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out[k] + v if k in out else v
        return DPElement(self.alg, out)

    def __neg__(self):
        return DPElement(self.alg, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scalar(self, s):
        return DPElement(self.alg, {k: v * s for k, v in self.terms.items()})

    def __mul__(self, other):
        out = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                k = tuple(x + y for x, y in zip(k1, k2))
                if sum(k) > self.alg.dmax:
                    continue
                c = 1
                for x, y in zip(k1, k2):
                    c *= math.comb(x + y, x)
                v = v1 * v2 * c
                out[k] = out[k] + v if k in out else v
        return DPElement(self.alg, out)

    def __eq__(self, other):
        return all(v.is_zero() for v in (self - other).terms.values())


def divided_beta_powers(ring: QuotientRing, kind: str, jmax: int):
    """tau_j = beta^(j-1)/j! (kind='tau') or sigma_j = beta^j/(j+1)!
    (kind='sigma') in A/d, via certified quotient-ring division."""
    p, alpha = ring.p, ring.alpha
    beta_ht = ring.q_power(p**alpha + 1) - ring.q_power(1)
    beta_geom = ring.q_power(p**alpha) - ring.one()
    beta = beta_ht if kind == "tau" else beta_geom
    out = {1: ring.one() if kind == "tau" else None}
    if kind == "sigma":
        out = {0: ring.one()}
        for j in range(1, jmax + 1):
            out[j] = (out[j - 1] * beta).divide_exact(ring.const(j + 1))
    else:
        for j in range(2, jmax + 1):
            out[j] = (out[j - 1] * beta).divide_exact(ring.const(j))
    return out


class HTRegularRep:
    """The divided-power regular representation on the Hodge-Tate locus,
    one check at a time.

    Certifies: the geometric operator matrix is upper triangular with
    unit diagonal (diagonal 1 in the one-variable case, diagonal
    u = 1 + e*a0 in the two-variable case); the arithmetic coefficient
    law beta*b_i = -c_i + (1+beta*e)^i f^(i)(beta) on interior basis
    vectors; and coassociativity of a -> a + b + e*a*b at interior
    degrees.

    Each check is computed on first use and kept.  Only the u-unit check
    depends on the number of variables, so the one- and two-variable
    reports share the others.  The law and the geometric checks divide
    by factorials (``divided_beta_powers``) and raise ``PrecisionError``
    when that runs out of digits; the u-unit and coassociativity checks
    divide by nothing and are decided all the same.
    """

    def __init__(self, dmax: int, p: int, alpha: int, N: int = 8):
        self.dmax, self.N = dmax, N
        guard = vp_factorial(p, dmax + 1)
        self.ring = ring = QuotientRing(p, N + guard, alpha, 1)
        self.e = d_prime_elem(ring)
        self.beta_ht = ring.q_power(p**alpha + 1) - ring.q_power(1)

    def checks(self, variables: int) -> list:
        """(case id, attribute) of each check of the report with this
        number of variables, in report order."""
        out = [(f"arithmetic coefficient law (degrees <= {self.dmax})", "law"),
               ("geometric diagonal = 1", "geometric_diagonal"),
               ("geometric entries certified", "geometric_entries")]
        if variables == 2:
            out.append(("diagonal u unit (u * u^(-1) = 1 on truncation)", "u_unit"))
        nco = max(1, self.dmax // 4)
        return out + [(f"comultiplication coassociative (degrees <= {nco})",
                       "coassociative")]

    @functools.cached_property
    def law(self) -> bool:
        ring, e, dmax = self.ring, self.e, self.dmax
        tau = divided_beta_powers(ring, "tau", dmax + 1)
        # arithmetic operator columns from the group law:
        # partial(a^[n]) = sum_{j>=1} a^[n-j] (1+e a)^j tau_j
        alg = DividedPowerAlgebra(ring, 1, dmax)
        one_plus_ea = alg.unit() + alg.basis((1,)).scalar(e)
        Dcols = []
        pow_cache = {0: alg.unit()}
        for j in range(1, dmax + 1):
            pow_cache[j] = pow_cache[j - 1] * one_plus_ea
        for n in range(dmax + 1):
            col = alg.zero()
            for j in range(1, n + 1):
                col = col + (alg.basis((n - j,)) * pow_cache[j]).scalar(tau[j])
            Dcols.append(col)

        # b_i law: beta * b_i = -c_i + (1+beta e)^i * f^(i)(beta), f = a^[n]
        # (the arithmetic operator preserves the degree filtration, so no
        # truncation boundary is crossed here)
        one_plus_be = ring.one() + self.beta_ht * e
        law_ok = True
        for n in range(dmax + 1):
            col = Dcols[n]
            for i in range(n + 1):
                b_i = col.terms.get((i,), ring.zero())
                fib = tau[n - i + 1] * (n - i + 1) if n >= i else ring.zero()
                rhs = one_plus_be**i * fib - (ring.one() if i == n else ring.zero())
                if not (self.beta_ht * b_i == rhs):
                    law_ok = False
        return law_ok

    @functools.cached_property
    def sigma(self) -> dict:
        """The one-variable geometric matrix has entries sigma_(j-i) T^(j-i)."""
        return divided_beta_powers(self.ring, "sigma", self.dmax + 1)

    @functools.cached_property
    def geometric_diagonal(self) -> bool:
        return self.sigma[0] == self.ring.one()

    @functools.cached_property
    def geometric_entries(self) -> bool:
        return all(self.sigma[j].prec >= self.N for j in range(self.dmax))

    @functools.cached_property
    def u_unit(self) -> bool:
        """The two-variable diagonal u = 1 + e a0 is a unit of the
        truncated algebra."""
        ring, e = self.ring, self.e
        alg2 = DividedPowerAlgebra(ring, 1, self.dmax)
        u = alg2.unit() + alg2.basis((1,)).scalar(e)
        inv = alg2.zero()
        acc = alg2.unit()
        fact = 1
        for kk in range(self.dmax + 1):
            if kk:
                acc = DPElement(alg2, {(kk,): ring.one()})
                fact = math.factorial(kk)
            term = acc.scalar(ring.const((-1) ** kk * fact) * e**kk)
            inv = inv + term
        return (u * inv) == alg2.unit()

    @functools.cached_property
    def coassociative(self) -> bool:
        """Coassociativity of a -> a + b + e ab at interior degrees: the
        two bracketings of the three-fold law raised to the n-th power
        (the divided powers differ from these by the same n!, which the
        guard digits keep visible)."""
        big = DividedPowerAlgebra(self.ring, 3, self.dmax)
        co_ok = True
        for n in range(1, max(1, self.dmax // 4) + 1):
            lhs = _triple_law(big, self.e, n, left_first=True)
            rhs = _triple_law(big, self.e, n, left_first=False)
            if not (lhs == rhs):
                co_ok = False
        return co_ok


def _triple_law(big: DividedPowerAlgebra, e, n: int, left_first: bool):
    ring = big.ring
    x = big.basis((1, 0, 0))
    y = big.basis((0, 1, 0))
    z = big.basis((0, 0, 1))

    def law(a, b):
        return a + b + (a * b).scalar(e)

    w = law(law(x, y), z) if left_first else law(x, law(y, z))
    out = big.unit()
    for _ in range(n):
        out = out * w
    return out
