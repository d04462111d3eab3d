"""Modules with twisted operators and their cohomology."""

import itertools
import random

import pytest

from qprism.crystal import (
    DividedPowerAlgebra,
    HTRegularRep,
    QConnModule,
    bk_twist,
    conjugate_module,
    d_prime_elem,
    divided_beta_powers,
    double_complex,
    fib_partial,
    graded_mixed_module,
    nilpotence_check,
    normalized_twist_h1,
    qdr_complex,
    random_unit_matrix,
    sen_twist_consistency,
    tensor,
    twist_unit_scalar,
)
from qprism.scalars import QuotScalars
from qprism.padic import (
    ModMat,
    QuotientRing,
    inv_mod,
    mat_identity,
    mat_mul_mod,
    vp_int,
)
from qprism.suites import _brute_force_cohomology


def _mul(A, B, mod):
    """A*B mod `mod` through the product entry point, as mutable lists."""
    return [list(row) for row in mat_mul_mod(A, B, mod)]


def loop_brute_force_cohomology(diffs, ranks, p, N):
    """Reference: the exhaustive kernel/image oracle by the nested loop,
    one dot product per row and vector."""
    mod = p**N
    sizes = []
    for i, n in enumerate(ranks):
        d_in = diffs[i - 1] if i > 0 else None
        d_out = diffs[i] if i < len(diffs) else None
        kernel = []
        for vec in itertools.product(range(mod), repeat=n):
            if d_out is None or all(
                    sum(x * v for x, v in zip(row, vec)) % mod == 0 for row in d_out):
                kernel.append(vec)
        image = set()
        if d_in is not None:
            nm = ranks[i - 1]
            for vec in itertools.product(range(mod), repeat=nm):
                image.add(tuple(sum(x * v for x, v in zip(row, vec)) % mod
                                for row in d_in))
        else:
            image = {tuple([0] * n)}
        sizes.append(len(kernel) // len(image))
    return sizes


class TestExhaustiveOracle:
    """The column-walk oracle of the koszul suite against the nested loop."""

    @pytest.mark.parametrize("p,N", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)])
    def test_random_tiny_complexes(self, p, N):
        rng = random.Random(10 * p + N)
        mod = p**N
        for _ in range(12):
            ranks = [rng.randrange(0, 4) for _ in range(rng.randrange(1, 4))]
            # any maps will do: both oracles count kernels and images of
            # the matrices they are given
            diffs = [ModMat([[rng.randrange(-mod, 2 * mod) if rng.random() < 0.6 else 0
                              for _ in range(n_in)] for _ in range(n_out)], mod)
                     for n_in, n_out in zip(ranks, ranks[1:])]
            assert (_brute_force_cohomology(diffs, ranks, p, N)
                    == loop_brute_force_cohomology(diffs, ranks, p, N)), (ranks, diffs)


class TestTwistScalars:
    def test_k0(self):
        assert twist_unit_scalar(3, 0, 0, 8) == 0
        assert all(x.is_zero() for row in bk_twist(0, 3, 0, 1, 8).D for x in row)

    def test_frozen_value_p3_k3(self):
        # (4^3 - 1)/3 = 21, valuation 1
        assert twist_unit_scalar(3, 0, 3, 8) == 21
        assert vp_int(21, 3) == 1

    def test_negative_k(self):
        # (4^-1 - 1)/3 = -1/4: check 4 * (1 + 3x) = 1 mod 3^8
        x = twist_unit_scalar(3, 0, -1, 8)
        assert (4 * (1 + 3 * x)) % 3**8 == 1

    @pytest.mark.parametrize("p", [3, 5])
    def test_h1_orders(self, p):
        for k in range(-30, 31):
            res = normalized_twist_h1(k, p, 8)
            assert res.status == "pass", (k, res)

    def test_orders_above_precision_not_certified(self):
        # at N = 2 the cokernel is capped at p^2, so a computed p^2 only
        # bounds the order from below: v_3(27) = 3 cannot be seen, and
        # v_3(9) = v_3(18) = 2 cannot be told from a larger order
        for k in (27, -27):
            res = normalized_twist_h1(k, 3, 2)
            assert res.status == "not-certified", res
            assert (res.computed_exponent, res.predicted_exponent) == (2, 3)
        for k in (9, -18):
            assert normalized_twist_h1(k, 3, 2).status == "not-certified"
        assert normalized_twist_h1(3, 3, 2).status == "pass"

    def test_capped_orders_at_p2_boundary_not_certified(self):
        # at p = 2, N = 3 the true order of k = +-8, +-24 is 2^4 (the
        # boundary adds one factor 2 to v_2(k) = 3); the capped 2^3 must
        # not pass as the prediction.  k = 4 expects exactly 2^3 at the
        # boundary, also at the cap, while k = 2 and k = 1 stay below it.
        for k in (8, -8, 24, -24, 4):
            res = normalized_twist_h1(k, 2, 3)
            assert res.status == "not-certified", res
        assert normalized_twist_h1(2, 2, 3).status == "expected-discrepancy"
        assert normalized_twist_h1(1, 2, 3).status == "pass"

    def test_p2_discrepancy(self):
        res = normalized_twist_h1(2, 2, 8)
        assert res.status == "expected-discrepancy"
        assert res.computed_exponent == 2 and res.predicted_exponent == 1
        # odd k at p=2 is clean
        assert normalized_twist_h1(3, 2, 8).status == "pass"

    def test_fib_partial_twist_order(self):
        # module-level H1 of the k=3 twist over A/d at p=3: the scalar is
        # e * 21 where e = d'(q) has additive valuation 1/2 (e*beta = p,
        # v(beta) = 1/(p-1)), so the cokernel order is
        # p^(deg * (v_p(21) + 1/2)) = 3^3 -- this is exactly why H1
        # orders are read off the unit-normalized twist, where e is
        # absorbed
        m = bk_twist(3, 3, 0, 1, 6)
        rep = fib_partial(m)
        e = d_prime_elem(m.ring)
        from qprism.padic import coker_invariants_mod
        assert coker_invariants_mod(m.ring.mult_matrix(e), 3, 6) == [1]
        assert sum(rep.h[1]) == m.ring.deg * vp_int(21, 3) + 1

    @pytest.mark.parametrize("p,a,k", [(3, 0, 4), (2, 1, 4), (5, 0, 3), (3, 1, 2)])
    def test_sen_consistency(self, p, a, k):
        assert sen_twist_consistency(k, p, a, 8)


class TestFibPartial:
    def test_zero_module(self):
        ring = QuotientRing(3, 4, 0, 1)
        m = QConnModule(ring, 1, D=[[ring.zero()]], N_list=[],
                        scalar_operators=True)
        rep = fib_partial(m)
        assert rep.h[0] == [4] * ring.deg
        assert rep.h[1] == [4] * ring.deg

    def test_structure_module_over_quotient(self):
        # the rank-1 module with the structure action: over A/d the
        # operator vanishes identically
        ring = QuotientRing(3, 4, 0, 1)
        m = QConnModule(ring, 1, D=[[ring.zero()]], N_list=[])
        P = m.flat_partial()
        assert all(x % 3**4 == 0 for row in P for x in row)


class TestKoszul:
    def test_m1_two_term(self):
        ring = QuotientRing(3, 3, 0, 1)
        n1 = [[ring.const(3)]]
        m = QConnModule(ring, 1, D=None, N_list=[n1])
        cx = qdr_complex(m)
        assert len(cx.diffs) == 1 and cx.d_squared_zero()

    def test_m2_d_squared_and_brute_force(self):
        rng = random.Random(0)
        p, N = 3, 2
        ring = QuotientRing(p, N, 0, 1)
        for _ in range(3):
            n1 = [[ring.const(p * rng.randrange(p))]]
            n2 = [[ring.const(p * rng.randrange(p))]]
            m = QConnModule(ring, 1, D=None, N_list=[n1, n2])
            cx = qdr_complex(m)
            assert cx.d_squared_zero()
            mine = [p ** sum(cx.cohomology(i)) for i in range(3)]
            brute = loop_brute_force_cohomology(cx.diffs, cx.ranks, p, N)
            assert mine == brute == _brute_force_cohomology(cx.diffs, cx.ranks, p, N)

    def test_koszul_sign_rule(self):
        # m = 2: the composite through the wedge square picks up the
        # sign (-1)^(u-1), making d^2 = N1 N2 - N2 N1
        ring = QuotientRing(3, 3, 0, 1)
        a = [[ring.q_power(1)]]
        b = [[ring.const(2)]]
        m = QConnModule(ring, 1, D=None, N_list=[a, b])
        assert qdr_complex(m).d_squared_zero()


class TestMixedModules:
    @pytest.mark.parametrize("p,a", [(3, 0), (2, 1)])
    def test_graded_family_laws(self, p, a):
        rng = random.Random(10)
        for _ in range(5):
            mod = graded_mixed_module(p, a, 6, (3, 2), rng)
            sc = QuotScalars(mod.ring)
            assert mod.certify_leibniz()
            assert mod.certify_commuting_nablas()
            assert mod.certify_master_relation(sc)

    @pytest.mark.parametrize("p,a", [(3, 0), (2, 1)])
    def test_double_complex(self, p, a):
        rng = random.Random(11)
        mod = graded_mixed_module(p, a, 6, (2, 2), rng)
        sc = QuotScalars(mod.ring)
        dc = double_complex(mod, sc)
        assert dc["squares_ok"]
        assert dc["row"].d_squared_zero()
        assert dc["total"].d_squared_zero()

    def test_column_map_t0_is_partial(self):
        rng = random.Random(12)
        mod = graded_mixed_module(3, 0, 6, (2,), rng)
        sc = QuotScalars(mod.ring)
        dc = double_complex(mod, sc)
        assert dc["columns"][()] == mod.flat_partial()

    def test_column_map_m1_formula(self):
        # at T = 0 the corrections vanish and the degree-1 column map is
        # s0 D + s0 s1
        rng = random.Random(13)
        mod = graded_mixed_module(3, 0, 6, (2,), rng)
        sc = QuotScalars(mod.ring)
        dc = double_complex(mod, sc)
        p, N = 3, 6
        want = _mul(mod.flat_scalar(sc.s0()), mod.flat_partial(), p**N)
        shift = mod.flat_scalar(sc.s0() * sc.s1())
        for i in range(len(want)):
            for j in range(len(want)):
                want[i][j] = (want[i][j] + shift[i][j]) % p**N
        assert dc["columns"][(0,)] == want

    def test_cohomology_of_twist_total_complex(self):
        # rank-1 twist, m = 0: the fiber total complex is just fib(D)
        m = bk_twist(3, 3, 0, 1, 6)
        sc = QuotScalars(m.ring)
        dc = double_complex(m, sc)
        tot = dc["total"]
        h1 = tot.cohomology(1)
        assert sum(h1) == sum(fib_partial(m).h[1])


def _correction_reference(mod, i, d_coeffs):
    """sum_j c_j Theta_i^(j-1) Nabla_i^(j-1), every term up to max(d_coeffs)."""
    p, N = mod.ring.p, mod.ring.N
    n = mod.rank * mod.ring.deg
    out = [[0] * n for _ in range(n)]
    Np, Th = mod.flat_nabla(i), mod.flat_theta(i)
    nab_pow = th_pow = mat_identity(n)
    for j in range(2, max(d_coeffs) + 1):
        nab_pow = _mul(Np, nab_pow, p**N)
        th_pow = _mul(Th, th_pow, p**N)
        cj = d_coeffs.get(j)
        if cj is None:
            continue
        term = _mul(mod.flat_scalar(cj), _mul(th_pow, nab_pow, p**N), p**N)
        out = [[(x + y) % p**N for x, y in zip(ro, rt)]
               for ro, rt in zip(out, term)]
    return out


class TestCorrectionOperator:
    # p = 3, alpha = 1: corrections run up to j = p^(alpha+1) + 1 = 10
    P, ALPHA, N = 3, 1, 4

    def _module(self, theta):
        ring = QuotientRing(self.P, self.N, self.ALPHA, 1)
        nabla = [[ring.q_power(1) + 2, ring.const(3)],
                 [ring.q_power(2), ring.const(5)]]
        mod = QConnModule(ring, 2, D=None, N_list=[nabla],
                          theta_list=None if theta is None else [theta(ring)])
        return mod, QuotScalars(ring).d_coeffs()

    def _check_against_reference(self, theta):
        mod, dcs = self._module(theta)
        got = mod.flat_correction(0, dcs)
        assert got == _correction_reference(mod, 0, dcs)
        return got

    def test_nilpotent_theta(self):
        # strictly upper triangular: Theta^2 = 0, so only c_2 Theta Nabla
        # survives, and the loop stops at j = 3
        got = self._check_against_reference(
            lambda r: [[r.zero(), r.q_power(1) + 1], [r.zero(), r.zero()]])
        assert any(x for row in got for x in row)

    def test_non_nilpotent_theta(self):
        # the identity: every power is nonzero and every term is summed
        got = self._check_against_reference(
            lambda r: [[r.one(), r.zero()], [r.zero(), r.one()]])
        assert any(x for row in got for x in row)

    @pytest.mark.parametrize("theta", [
        None, lambda r: [[r.zero(), r.zero()], [r.zero(), r.zero()]]])
    def test_zero_theta(self, theta):
        got = self._check_against_reference(theta)
        assert not any(x for row in got for x in row)

    def test_operators_flattened_once(self):
        mod = graded_mixed_module(3, 0, 6, (2, 2), random.Random(15))
        assert mod.flat_nabla(1) is mod.flat_nabla(1)
        assert mod.flat_partial() is mod.flat_partial()
        assert mod.flat_nabla(1) == mod._flat_of_blocks(mod.N_list[1])


def _elementary_symmetric_reference(mats, p, N, n):
    """P^i of commuting matrices, i = 0..len(mats), by index loops."""
    polys = [{0: mat_identity(n)}]
    for M in mats:
        prev = polys[-1]
        nxt = {i: [list(row) for row in val] for i, val in prev.items()}
        for i, val in prev.items():
            term = _mul(M, val, p**N)
            tgt = nxt.get(i + 1)
            if tgt is None:
                nxt[i + 1] = term
            else:
                for a in range(n):
                    for b in range(n):
                        tgt[a][b] = (tgt[a][b] + term[a][b]) % p**N
        polys.append(nxt)
    return polys[-1]


def _columns_reference(mod, scalars):
    """The column maps V_S over every subset S, from every correction:
    s0^t D + (s0 + ... + s0^t) s1 - sum_i (beta q)^(i-1) P^i(D_S), times
    the inverse of every (1 + beta q D_i) with i in S, zero or not."""
    p, N = mod.ring.p, mod.ring.N
    n = mod.rank * mod.ring.deg
    m = mod.m
    P = mod.flat_partial()
    s0, s1 = scalars.s0(), scalars.s1()
    dcs = scalars.d_coeffs()
    corr = [mod.flat_correction(i, dcs) for i in range(m)]
    bq_flat = mod.flat_scalar(scalars.beta * mod.ring.q_power(1))
    inv_one_plus = []
    for i in range(m):
        one_plus = _mul(bq_flat, corr[i], p**N)
        for a in range(n):
            one_plus[a][a] = (one_plus[a][a] + 1) % p**N
        inv_one_plus.append(inv_mod(one_plus, p, N))
    columns = {}
    for S in _all_subsets(m):
        t = len(S)
        acc = _mul(mod.flat_scalar(s0**t), P, p**N)
        shift = mod.flat_scalar(sum((s0**i for i in range(1, t + 1)),
                                    mod.ring.zero()) * s1)
        for a in range(n):
            for b in range(n):
                acc[a][b] = (acc[a][b] + shift[a][b]) % p**N
        elem = _elementary_symmetric_reference([corr[i] for i in S], p, N, n)
        bq_pow = mat_identity(n)
        for i in range(1, t + 1):
            term = _mul(bq_pow, elem[i], p**N)
            for a in range(n):
                for b in range(n):
                    acc[a][b] = (acc[a][b] - term[a][b]) % p**N
            bq_pow = _mul(bq_pow, bq_flat, p**N)
        for i in S:
            acc = _mul(inv_one_plus[i], acc, p**N)
        columns[S] = acc
    return columns


def _master_relation_reference(mod, scalars):
    """(1 + beta q D_i) Nabla_i Partial = s0 (Partial + s1) Nabla_i
    - D_i Nabla_i, with every correction product taken."""
    p, N = mod.ring.p, mod.ring.N
    P = mod.flat_partial()
    s0 = mod.flat_scalar(scalars.s0())
    s0s1 = mod.flat_scalar(scalars.s0() * scalars.s1())
    bq = mod.flat_scalar(scalars.beta * mod.ring.q_power(1))
    dcs = scalars.d_coeffs()
    for i in range(mod.m):
        Ni = mod.flat_nabla(i)
        Di = mod.flat_correction(i, dcs)
        lhs = _mul(Ni, P, p**N)
        lhs_corr = _mul(bq, _mul(Di, lhs, p**N), p**N)
        for a in range(len(lhs)):
            for b in range(len(lhs)):
                lhs[a][b] = (lhs[a][b] + lhs_corr[a][b]) % p**N
        rhs = _mul(s0, _mul(P, Ni, p**N), p**N)
        rhs2 = _mul(s0s1, Ni, p**N)
        rhs3 = _mul(Di, Ni, p**N)
        for a in range(len(rhs)):
            for b in range(len(rhs)):
                rhs[a][b] = (rhs[a][b] + rhs2[a][b] - rhs3[a][b]) % p**N
        if lhs != rhs:
            return False
    return True


def _all_subsets(m):
    """Subsets of range(m) by size, then lexicographically."""
    return [S for t in range(m + 1) for S in itertools.combinations(range(m), t)]


def _theta(kind, ring, r):
    """A T-action on a rank-r module: nilpotent, identity or zero."""
    def entry(i, j):
        if kind == "identity":
            return ring.one() if i == j else ring.zero()
        if kind == "nilpotent" and j == i + 1:
            return ring.q_power(1) + 1
        return ring.zero()
    return [[entry(i, j) for j in range(r)] for i in range(r)]


class TestZeroCorrectionSkip:
    """double_complex and certify_master_relation multiply and invert only
    the nonzero corrections; the results equal the formulas that take
    every correction."""

    # graded modules of shape (3, 2) satisfy the mixed law at T = 0; a
    # nonzero correction on the first axis, where Nabla^2 != 0, breaks it,
    # while on the second axis D_i Nabla_i = 0.  Random ones (rank 2)
    # satisfy no law.
    @pytest.mark.parametrize("source,p,alpha,thetas,verdict", [
        ("graded", 3, 0, ("nilpotent", "zero"), False),
        ("graded", 3, 0, ("zero", "identity"), True),
        ("graded", 3, 1, ("identity", "nilpotent"), False),
        ("graded", 2, 1, ("nilpotent", "identity"), False),
        ("graded", 3, 0, ("zero", "zero"), True),
        ("graded", 3, 1, None, True),
        ("random", 3, 0, ("identity", "zero"), False),
        ("random", 3, 1, ("nilpotent", "identity"), False),
        ("random", 2, 1, ("zero", "nilpotent"), False),
    ])
    def test_matches_every_correction_reference(self, source, p, alpha, thetas,
                                                verdict):
        rng = random.Random(40 + p + alpha)
        base = (graded_mixed_module(p, alpha, 4, (3, 2), rng) if source == "graded"
                else _random_module(p, alpha, 1, 4, 2, 2, rng))
        ring, r = base.ring, base.rank
        mod = QConnModule(ring, r, D=base.D, N_list=base.N_list,
                          theta_list=None if thetas is None
                          else [_theta(kind, ring, r) for kind in thetas])
        sc = QuotScalars(ring)
        dcs = sc.d_coeffs()
        nonzero = [not mod.flat_correction(i, dcs).is_zero() for i in range(2)]
        if thetas is not None and "identity" in thetas:
            assert True in nonzero
        if thetas is None or "zero" in thetas:
            assert False in nonzero
        dc = double_complex(mod, sc)
        assert dc["columns"] == _columns_reference(mod, sc)
        assert mod.certify_master_relation(sc) == _master_relation_reference(mod, sc)
        assert mod.certify_master_relation(sc) == verdict


def _flat_of_blocks_reference(mod, B):
    d, r = mod.ring.deg, mod.rank
    out = [[0] * (r * d) for _ in range(r * d)]
    for i in range(r):
        for j in range(r):
            blk = mod.ring.mult_matrix(B[i][j])
            for a in range(d):
                for b in range(d):
                    out[i * d + a][j * d + b] = blk[a][b]
    return out


def _kron_base_reference(mod, base_mat):
    d, r = mod.ring.deg, mod.rank
    out = [[0] * (r * d) for _ in range(r * d)]
    for i in range(r):
        for a in range(d):
            for b in range(d):
                out[i * d + a][i * d + b] = base_mat[a][b]
    return out


def _qdr_diffs_reference(mod):
    p, N = mod.ring.p, mod.ring.N
    n = mod.rank * mod.ring.deg
    m = mod.m
    flats = [mod.flat_nabla(i) for i in range(m)]
    subsets = _all_subsets(m)
    diffs = []
    for t in range(m):
        src = [S for S in subsets if len(S) == t]
        dst = [S for S in subsets if len(S) == t + 1]
        D = [[0] * (len(src) * n) for _ in range(len(dst) * n)]
        for si, S in enumerate(src):
            for i in range(m):
                if i in S:
                    continue
                T = tuple(sorted(S + (i,)))
                ti = dst.index(T)
                sign = 1 if (T.index(i) + 1) % 2 == 1 else -1
                for a in range(n):
                    for b in range(n):
                        D[ti * n + a][si * n + b] = (sign * flats[i][a][b]) % p**N
        diffs.append(D)
    return diffs


def _total_diffs_reference(row, columns, m, n, p, N):
    """d(x, y) = (d x, V(x) - d y) on Row^j (+) Row^(j-1), entry by entry."""
    subsets = sorted(columns, key=lambda S: (len(S), S))
    by_size = [[S for S in subsets if len(S) == t] for t in range(m + 1)]
    diffs = []
    for j in range(m + 1):
        src_a = row.ranks[j]
        src_b = row.ranks[j - 1] if j >= 1 else 0
        dst_a = row.ranks[j + 1] if j < m else 0
        dst_b = row.ranks[j]
        D = [[0] * (src_a + src_b) for _ in range(dst_a + dst_b)]
        if j < m:
            for a in range(dst_a):
                for b in range(src_a):
                    D[a][b] = row.diffs[j][a][b]
        for si, S in enumerate(by_size[j]):
            for a in range(n):
                for b in range(n):
                    D[dst_a + si * n + a][si * n + b] = columns[S][a][b]
        if j >= 1:
            for a in range(dst_b):
                for b in range(src_b):
                    D[dst_a + a][src_a + b] = (-row.diffs[j - 1][a][b]) % p**N
        diffs.append(D)
    return diffs


def _random_module(p, alpha, n, N, r, m, rng):
    """Random operator entries (about a third of them zero) over A/d^n;
    the mixed law need not hold for the assembly."""
    ring = QuotientRing(p, N, alpha, n)

    def entry():
        if rng.random() < 0.35:
            return ring.zero()
        return ring.elem([rng.randrange(-p**N, 2 * p**N) for _ in range(ring.deg)])

    def mat():
        return [[entry() for _ in range(r)] for _ in range(r)]

    return QConnModule(ring, r, D=mat(), N_list=[mat() for _ in range(m)])


class TestRowAssembly:
    """Row-wise assembly against the entry-by-entry loops it replaced."""

    CASES = [(p, alpha, n, r, m) for (p, alpha, n) in [(3, 0, 1), (2, 1, 2), (3, 1, 1)]
             for r in (1, 2, 3) for m in (1, 2)]

    @staticmethod
    def _reduced(mats, p, N):
        return all(0 <= x < p**N for M in mats for row in M for x in row)

    @pytest.mark.parametrize("p,alpha,n,r,m", CASES)
    def test_matches_index_loops(self, p, alpha, n, r, m):
        N = 4
        mod = _random_module(p, alpha, n, N, r, m, random.Random(f"{p}{alpha}{n}{r}{m}"))
        ring = mod.ring
        for B in [mod.D, *mod.N_list]:
            assert mod._flat_of_blocks(B) == _flat_of_blocks_reference(mod, B)
        for base in [ring.endo_matrix(p ** (alpha + 1) + 1), ring.partial_matrix(),
                     ring.mult_matrix(mod.D[0][0])]:
            assert mod._kron_base(base) == _kron_base_reference(mod, base)
        row = qdr_complex(mod)
        assert row.diffs == _qdr_diffs_reference(mod)
        dc = double_complex(mod, QuotScalars(ring))
        n_flat = r * ring.deg
        total = dc["total"].diffs
        assert total == _total_diffs_reference(dc["row"], dc["columns"], m, n_flat, p, N)
        assert [len(D) for D in total] == dc["total"].ranks[1:]
        assert self._reduced(row.diffs + total + [mod.flat_partial()], p, N)


class TestFlatteningTables:
    """Flattenings are built from one packed table per (ring, rank), and
    flattened scalars and block diagonal operators are kept there, shared
    by every module of that shape."""

    @pytest.mark.parametrize("p,alpha,n", [(3, 1, 1), (2, 1, 2), (5, 0, 3)])
    def test_shared_per_ring_and_rank(self, p, alpha, n):
        N = 5
        a = _random_module(p, alpha, n, N, 3, 1, random.Random(p + n))
        b = _random_module(p, alpha, n, N, 3, 1, random.Random(p + n + 1))
        c = _random_module(p, alpha, n, N, 2, 1, random.Random(p + n + 2))
        x = a.ring.q_power(2) + 5
        assert a.flat_scalar(x) is b.flat_scalar(b.ring.q_power(2) + 5)
        assert a._kron_base(a.ring.partial_matrix()) is b._kron_base(b.ring.partial_matrix())
        assert c.flat_scalar(x) is not a.flat_scalar(x)
        for mod in (a, b, c):
            assert mod.flat_scalar(x) == _flat_of_blocks_reference(mod, mod.scalar_matrix(x))
            for base in (mod.ring.partial_matrix(), mod.ring.endo_matrix(p + 1)):
                assert mod._kron_base(base) == _kron_base_reference(mod, base)
        # a flattening keeps its packed rows and reads its entries on demand
        F = b._flat_of_blocks(b.N_list[0])
        assert F._rows is None and F == _flat_of_blocks_reference(b, b.N_list[0])


def _conjugate_reference(mod, P):
    """P^-1 B P for every operator B, as sums of QuotElem products; P^-1
    is read back from the inverse of P's flattening."""
    ring, r, d = mod.ring, mod.rank, mod.ring.deg
    inv_flat = inv_mod(mod._flat_of_blocks(P), ring.p, ring.N)
    Pinv = [[ring.elem([inv_flat[i * d + a][j * d] for a in range(d)])
             for j in range(r)] for i in range(r)]

    def conj(B):
        tmp = [[sum((B[i][k] * P[k][j] for k in range(r)), ring.zero())
                for j in range(r)] for i in range(r)]
        return [[sum((Pinv[i][k] * tmp[k][j] for k in range(r)), ring.zero())
                 for j in range(r)] for i in range(r)]

    return conj(mod.D), [conj(Nm) for Nm in mod.N_list]


def _entries(B):
    return [[(x.coeffs, x.prec) for x in row] for row in B]


class TestConjugateModule:
    def _graded(self, p, alpha, N, shape, seed):
        """A graded mixed module, a random change of basis for it and the
        inverse built with it."""
        rng = random.Random(seed)
        mod = graded_mixed_module(p, alpha, N, shape, rng)
        return (mod, *random_unit_matrix(mod.ring, mod.rank, rng))

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("alpha,N,r", [(0, 6, 4), (1, 4, 3), (1, 8, 6)])
    def test_inverse_is_the_smith_inverse(self, p, alpha, N, r):
        # the inverse built by the column operations is the one that
        # elimination finds on P's flattening
        rng = random.Random(100 * p + 10 * N + r)
        ring = QuotientRing(p, N, alpha, 1)
        mod = QConnModule(ring, r)
        for _ in range(3):
            P, P_inv = random_unit_matrix(ring, r, rng)
            flat_P = mod._flat_of_blocks(P)
            assert mod._flat_of_blocks(P_inv) == inv_mod(flat_P, p, N)
            assert (mod._flat_of_blocks(P_inv) @ flat_P) == ModMat.identity(r * ring.deg, p**N)

    @pytest.mark.parametrize("p,alpha,N,shape", [(3, 0, 6, (3, 2)), (2, 1, 6, (2, 2)),
                                                 (3, 1, 8, (2, 3)), (5, 0, 4, (2,))])
    def test_matches_quotelem_formula(self, p, alpha, N, shape):
        mod, P, P_inv = self._graded(p, alpha, N, shape, 20 + p + N)
        got = conjugate_module(mod, P, P_inv)
        D, N_list = _conjugate_reference(mod, P)
        assert _entries(got.D) == _entries(D)
        assert [_entries(B) for B in got.N_list] == [_entries(B) for B in N_list]
        # every entry of the operators the callers build is at full precision
        assert {x.prec for B in [got.D, *got.N_list] for row in B for x in row} == {N}

    def test_reduced_precision_entries(self):
        mod, P, P_inv = self._graded(3, 1, 6, (2, 2), 31)
        ring = mod.ring
        P = [row[:] for row in P]
        P[1][2] = ring.elem(P[1][2].coeffs, 4)
        mod.N_list[0][3][0] = ring.elem(mod.N_list[0][3][0].coeffs, 5)
        got = conjugate_module(mod, P, P_inv)
        D, N_list = _conjugate_reference(mod, P)
        assert _entries(got.D) == _entries(D)
        assert [_entries(B) for B in got.N_list] == [_entries(B) for B in N_list]
        assert {x.prec for row in got.D for x in row} == {4, 6}
        assert {x.prec for row in got.N_list[0] for x in row} == {4, 5}


class TestNilpotence:
    def test_strictly_upper(self):
        ring = QuotientRing(3, 4, 0, 1)
        m = QConnModule(ring, 3, D=[
            [ring.zero(), ring.one(), ring.zero()],
            [ring.zero(), ring.zero(), ring.one()],
            [ring.zero(), ring.zero(), ring.zero()]], N_list=[])
        rep = nilpotence_check(m)
        assert rep["certified"] and max(rep["partial"]) <= 3

    def test_twist_vanishes_in_residue_field(self):
        for (p, a) in [(3, 0), (5, 0), (2, 1)]:
            rep = nilpotence_check(bk_twist(7, p, a, 1, 6))
            assert rep["certified"] and rep["partial"] == [1]

    def test_identity_not_certified(self):
        ring = QuotientRing(3, 4, 0, 1)
        m = QConnModule(ring, 1, D=[[ring.one()]], N_list=[])
        assert not nilpotence_check(m, bound=12)["certified"]


class TestTensor:
    def test_unit_object(self):
        m = bk_twist(2, 3, 0, 1, 8)
        unit = bk_twist(0, 3, 0, 1, 8)
        assert tensor(m, unit).D[0][0] == m.D[0][0]

    @pytest.mark.parametrize("j,k", [(1, 1), (2, 5), (3, -2)])
    def test_twist_additivity(self, j, k):
        # c_j + c_k + q beta c_j c_k = c_(j+k), via e beta = p^(a+1)
        for (p, a) in [(3, 0), (2, 1)]:
            tj, tk = bk_twist(j, p, a, 1, 8), bk_twist(k, p, a, 1, 8)
            assert tensor(tj, tk).D[0][0] == bk_twist(j + k, p, a, 1, 8).D[0][0]

    def test_scalar_identity_directly(self):
        # the same additivity, written out with integer scalars
        p, a, N = 3, 0, 8
        mod = p**N
        for (j, k) in [(2, 3), (4, 7)]:
            wj = twist_unit_scalar(p, a, j, N)
            wk = twist_unit_scalar(p, a, k, N)
            # e q beta = p^(a+1):  c = e*w, so c_j + c_k + q beta c_j c_k
            # = e (w_j + w_k + p^(a+1) w_j w_k) = e w_(j+k)
            assert (wj + wk + p ** (a + 1) * wj * wk) % mod == \
                twist_unit_scalar(p, a, j + k, N)

    def test_leibniz_closure(self):
        rng = random.Random(14)
        A = graded_mixed_module(3, 0, 5, (2,), rng)
        B = graded_mixed_module(3, 0, 5, (2,), rng)
        assert tensor(A, B).certify_leibniz()


class TestRegularRep:
    @pytest.mark.parametrize("p,a", [(3, 0), (2, 1), (5, 0)])
    def test_report(self, p, a):
        rep = HTRegularRep(12, p, a, 8)
        for variables in (1, 2):
            checks = {cid: getattr(rep, name) for cid, name in rep.checks(variables)}
            assert len(checks) == 3 + variables and all(checks.values()), checks

    def test_suite_decides_each_check_in_its_own_block(self, monkeypatch):
        # at one p-digit the geometric checks run out of digits in the
        # factorial divisions; the law, the u-unit and coassociativity
        # checks are still decided, and each shared check is computed once
        from qprism import crystal
        from qprism.suites import NOT_CERTIFIED, PASS, REGISTRY, RunConfig

        calls = []
        orig = crystal.divided_beta_powers

        def counted(ring, kind, jmax):
            calls.append(kind)
            return orig(ring, kind, jmax)

        monkeypatch.setattr(crystal, "divided_beta_powers", counted)
        cases = REGISTRY["ht-regular-rep"].runner(RunConfig(p=2, p_prec=1))
        status = {c.case_id: c.status for c in cases}
        assert len(status) == 9
        for v in (1, 2):
            assert status[f"[{v} var] arithmetic coefficient law (degrees <= 12)"] == PASS
            assert status[f"[{v} var] comultiplication coassociative (degrees <= 3)"] == PASS
            assert status[f"[{v} var] geometric diagonal = 1"] == NOT_CERTIFIED
            assert status[f"[{v} var] geometric entries certified"] == NOT_CERTIFIED
        assert status["[2 var] diagonal u unit (u * u^(-1) = 1 on truncation)"] == PASS
        # tau once; sigma raises, so each of its four blocks tries it
        assert calls.count("tau") == 1 and calls.count("sigma") == 4
        calls.clear()
        cases = REGISTRY["ht-regular-rep"].runner(RunConfig(p=3))
        assert [c.status for c in cases] == [PASS] * 9
        assert sorted(calls) == ["sigma", "tau"]

    def test_unit_column_is_zero(self):
        # partial(a^[0]) = 0: the degree-0 column of the group-law
        # operator vanishes (constants are killed)
        from qprism.padic import vp_factorial
        p, a, dmax = 3, 0, 6
        ring = QuotientRing(p, 8 + vp_factorial(p, dmax + 1), a, 1)
        tau = divided_beta_powers(ring, "tau", dmax + 1)
        assert tau[1] == ring.one()
        # the column for n = 0 has no j >= 1 contributions by construction

    def test_sigma_values(self):
        # sigma_j = beta^j/(j+1)! multiplied back
        import math
        ring = QuotientRing(3, 10, 0, 1)
        sigma = divided_beta_powers(ring, "sigma", 6)
        beta = ring.q_power(1) - ring.one()
        for j in range(6):
            assert sigma[j] * math.factorial(j + 1) == beta**j

    def test_dp_multiplication(self):
        ring = QuotientRing(3, 6, 0, 1)
        alg = DividedPowerAlgebra(ring, 1, 8)
        a2, a3 = alg.basis((2,)), alg.basis((3,))
        prod = a2 * a3
        assert prod.terms[(5,)] == ring.const(10)  # C(5, 2)

    def test_truncation_flagged(self):
        ring = QuotientRing(3, 6, 0, 1)
        alg = DividedPowerAlgebra(ring, 1, 3)
        high = alg.basis((2,)) * alg.basis((2,))
        assert not high.terms
