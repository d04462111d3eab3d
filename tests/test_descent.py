"""Unit-group descent: the invariant element, digit chains, and the
leading-term structure of the invariant-ring self-map."""

import dataclasses
import random

import pytest

import qprism.descent as descent

from qprism.descent import (
    averaging_projector_check,
    build_context,
    e_beta_is_p_mod_d,
    EpsilonAction,
    f_leibniz_check,
    f_map,
    f_on_powers,
    to_e_coords,
    wcart_h1_structure,
)
from qprism.padic import (
    PadicInt,
    PrecisionError,
    TruncSeries,
    _poly_mul,
    d_poly_t,
    teichmuller,
    vp_factorial,
)


@pytest.fixture(scope="module")
def ctx3():
    return build_context(3, 8, 5)


@pytest.fixture(scope="module")
def ctx5():
    return build_context(5, 8, 5)


class TestContext:
    def test_p3_invariants(self, ctx3):
        assert ctx3.ok, ctx3.checks

    def test_ptilde_is_explicit_sum(self):
        # ptilde = 1 + q + q^[2] at p = 3
        p, N, M = 3, 6, 20
        lift2 = teichmuller(p, 2, 40)
        explicit = (TruncSeries.one(p, N, M)
                    + TruncSeries.q_power(p, N, M, 1)
                    + TruncSeries.q_power(p, N, M, lift2))
        assert explicit.coeff(0) == PadicInt(p, N, p)
        for u in (1, 2):
            lift = teichmuller(p, u, 40)
            assert explicit.gamma_u(lift) == explicit

    def test_gamma_1_trivial(self, ctx3):
        assert ctx3.checks["gamma_u(ptilde) = ptilde (direct substitution)"]

    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("K", [None, 1, 8])
    def test_invariance_checks_fail_on_a_perturbed_lift(self, monkeypatch, p, K):
        """Negative control: with the lift of 2 moved by p^K, neither
        check of gamma_u(ptilde) = ptilde holds, although the series of
        equal exponents are computed once.  The digit chain is stubbed,
        as a perturbed ptilde is not invariant."""
        true_lift = descent.teichmuller

        def lift(p_, e, prec):
            x = true_lift(p_, e, prec)
            return x if K is None or e != 2 else PadicInt(p_, prec, x.residue + p_**K)

        monkeypatch.setattr(descent, "teichmuller", lift)
        monkeypatch.setattr(descent, "_digit_chain",
                            lambda p_, h, u_inv, d_t, count: [(0, 8)] * count)
        checks = build_context(p, 8, 5).checks
        for name in ("exponent permutation", "direct substitution"):
            assert checks[f"gamma_u(ptilde) = ptilde ({name})"] is (K is None)

    def test_w_polynomial_at_p3(self, ctx3):
        assert ctx3.w_poly_residuals == []
        assert ctx3.checks["f(ptilde) is monic at ptilde-degree p+1"]

    def test_w_not_polynomial_at_p5(self, ctx5):
        # measured breakdown of the finite-support picture for p >= 5:
        # the Teichmuller exponent group has extra directions whose
        # symmetric functions are infinite series in ptilde
        assert ctx5.w_poly_residuals != []
        assert not ctx5.checks["f(ptilde) is monic at ptilde-degree p+1"]
        hard = [k for k, v in ctx5.checks.items()
                if not v and "monic" not in k]
        assert hard == []  # every other invariant still certifies


def reference_digit_chain(p, h, u_inv, d_t, count):
    """The round chain that ``_digit_chain`` replaced: each round
    Weierstrass-divides by d, certifies the remainder is a Z_p-constant
    and multiplies the quotient by u_inv = (ptilde/d)^(-1)."""
    digits = []
    cur = h
    for _ in range(count):
        Q, R, cert = cur.weierstrass_divmod(d_t)
        c0 = R[0] % p**cert
        if any(x % p**cert for x in R[1:]):
            raise ArithmeticError(
                "remainder is not a constant: input is not in the "
                "invariant power-series ring at this precision")
        digits.append((c0, cert))
        cur = Q * u_inv  # joined at Q's smaller (N, M)
    return digits


def chain_inputs(monkeypatch, p, N, K, digits=None):
    """The (p, h, u_inv, d_t, count) that build_context gives the chain."""
    seen = []
    chain = descent._digit_chain

    def spy(*args):
        seen.append(args)
        return chain(*args)

    monkeypatch.setattr(descent, "_digit_chain", spy)
    build_context(p, N, K, digits=digits)
    monkeypatch.setattr(descent, "_digit_chain", chain)
    return seen[0]


def ptilde_series(p, N, M):
    lifts = [teichmuller(p, u, N + vp_factorial(p, M) + 2) for u in range(1, p)]
    out = TruncSeries.one(p, N, M)
    for lift in lifts:
        out = out + TruncSeries.q_power(p, N, M, lift)
    return out


class TestDigitChain:
    """The digits of h in A/d^count equal those of the round chain."""

    @pytest.mark.parametrize("p,N,K,digits", [
        (2, 8, 5, None), (3, 8, 5, None), (5, 8, 5, None), (7, 8, 2, None),
        (2, 1, 5, None), (3, 1, 5, None), (5, 1, 5, None), (7, 1, 2, None),
        (2, 2, 5, None), (3, 2, 5, None), (5, 2, 5, None), (7, 2, 2, None),
        (3, 8, 5, 6), (5, 8, 5, 12), (7, 2, 2, 60), (2, 8, 5, 4),
    ])
    def test_matches_round_chain(self, monkeypatch, p, N, K, digits):
        args = chain_inputs(monkeypatch, p, N, K, digits)
        got = descent._digit_chain(*args)
        assert got == reference_digit_chain(*args)
        assert len(got) == args[4] and {c for _, c in got} == {N}

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_known_digits_come_back(self, p):
        # h = sum_j c_j ptilde^j, with ptilde^count times a unit on top,
        # which the first count digits do not see
        N, count, r = 6, 9, p - 1
        M = (N + 2) * r * (count + 3)
        ptilde = ptilde_series(p, N, M)
        d_t = d_poly_t(p, 0)
        u_inv = ptilde.weierstrass_divmod(d_t)[0].unit_inverse()
        rng = random.Random(p)
        cs = [rng.randrange(-p**N, p**N) for _ in range(count)]
        h = ptilde**count * TruncSeries.q_power(p, N, M, 5)
        for c in reversed(cs):
            h = h.reduce_prec(M=u_inv.M) * ptilde + c
        assert descent._digit_chain(p, h, u_inv, d_t, count) == \
            [(c % p**N, N) for c in cs]

    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("shift", [0, 2])
    def test_non_invariant_input_raises_at_the_same_digit(self, monkeypatch, p, shift):
        """Negative control: w + t ptilde^shift is not invariant; both
        chains give its first shift digits and raise at the next one."""
        _, w, u_inv, d_t, _ = chain_inputs(monkeypatch, p, 6, 2)
        ptilde = ptilde_series(p, w.N, w.M)
        h = w + TruncSeries.t_power(p, w.N, w.M, 1) * ptilde**shift
        for chain in (descent._digit_chain, reference_digit_chain):
            assert len(chain(p, h, u_inv, d_t, shift)) == shift
            with pytest.raises(ArithmeticError):
                chain(p, h, u_inv, d_t, shift + 1)


def reference_f_map(ctx, coeffs):
    """f_map as it was first written: gamma(ptilde) and its powers rebuilt
    on every call, entries added one index at a time."""
    mod = ctx.p**ctx.w_prec
    base = [ctx.w_coeff(j) for j in range(len(ctx.digits))]
    base[1] = (base[1] + 1) % mod
    out, cur = [0], [1]
    for j, c in enumerate(coeffs):
        if j:
            cur = _poly_mul(cur, base, mod)
        for i, x in enumerate(cur):
            if i >= len(out):
                out.extend([0] * (i - len(out) + 1))
            out[i] = (out[i] + c * x) % mod
    for j, c in enumerate(coeffs):
        if j < len(out):
            out[j] = (out[j] - c) % mod
    return out


class TestFMap:
    def test_f_kills_constants(self, ctx3):
        assert all(c == 0 for c in f_map(ctx3, [7]))

    def test_f_of_ptilde_support(self, ctx3):
        # f(ptilde) = e_p + sum_{i=1}^{p-1} a_i e_i: support inside {1..p}
        p = 3
        coords, consistent = to_e_coords(ctx3, f_on_powers(ctx3, 1)[1], 12)
        assert consistent
        support = [l for l, c in enumerate(coords) if c % 3**ctx3.w_prec]
        assert support and all(1 <= l <= p for l in support)
        assert coords[p] % 3 != 0  # unit leading coefficient

    def test_matches_reference_as_powers_are_extended(self):
        # a fresh context, so the cached powers grow across these calls
        ctx = build_context(3, 6, 3)
        rng = random.Random(2)
        mod = 3**ctx.w_prec
        for n in (2, 0, 1, 5, 3, 8, 4):
            coeffs = [rng.randrange(-mod, mod) for _ in range(n)]
            assert f_map(ctx, coeffs) == reference_f_map(ctx, coeffs)
        assert len(ctx.gamma_powers) == 8
        assert f_map(ctx, [0] * 6 + [1]) == reference_f_map(ctx, [0] * 6 + [1])

    def test_leibniz(self, ctx3):
        assert f_leibniz_check(ctx3, random.Random(0), trials=40)

    @pytest.mark.parametrize("p", [3, 5])
    def test_leibniz_sees_f_map_but_not_the_digits(self, monkeypatch, ctx3, ctx5, p):
        """Negative control: the law holds for gamma(ptilde) = ptilde + w
        with any digits w, and fails once f_map drops its top power."""
        ctx = {3: ctx3, 5: ctx5}[p]
        rng = random.Random(p)
        mod = p**ctx.w_prec
        for _ in range(3):
            digits = [(rng.randrange(mod), c) for _, c in ctx.digits]
            assert f_leibniz_check(dataclasses.replace(
                ctx, digits=digits, gamma_powers=None),
                random.Random(0), trials=10)
        true_f = descent.f_map
        monkeypatch.setattr(descent, "f_map",
                            lambda ctx_, cs: true_f(ctx_, cs[:-1] or cs))
        assert not f_leibniz_check(ctx, random.Random(0), trials=10)

    def test_images_vanish_at_p(self, ctx3):
        # every f-image g satisfies g(ptilde = p) = 0: the e-coordinate
        # refolding consistency is exactly that statement
        rng = random.Random(1)
        for _ in range(10):
            poly = f_map(ctx3, [rng.randrange(3**6) for _ in range(4)])
            _, consistent = to_e_coords(ctx3, poly, 20)
            assert consistent


class TestWCart:
    def test_p3_structure(self, ctx3):
        rep = wcart_h1_structure(ctx3)
        assert rep.ok, [k for k, v in rep.checks.items() if not v]
        assert [(k, lead) for k, lead, _ in rep.leading] == \
            [(k, 4 * k - 1) for k in range(1, 6)]
        # all leading coefficients are exactly 1 here
        assert all(c == 1 for _, _, c in rep.leading)

    def test_p3_free_indices(self, ctx3):
        rep = wcart_h1_structure(ctx3)
        want = [l for l in range(20) if l % 4 != 3]
        assert rep.free_indices == want
        assert rep.free_indices[:8] == [0, 1, 2, 4, 5, 6, 8, 9]

    def test_p5_kernel_still_certified(self, ctx5):
        rep = wcart_h1_structure(ctx5)
        assert rep.checks["kernel = constants (columns independent with unit pivots)"]
        assert all(rep.checks[f"f(ptilde^{k}) in B (vanishes at ptilde = p)"]
                   for k in range(1, 6))

    def test_p5_residuals_reported(self, ctx5):
        rep = wcart_h1_structure(ctx5)
        assert rep.residuals[1]  # measured: coordinates above the leading index
        idx, val = rep.residuals[1][0]
        assert idx > 5 and val is not None


def epsilon_checks(p, alpha, N, M):
    rep = EpsilonAction(p, alpha, N, M)
    return {case: getattr(rep, name) for case, name in EpsilonAction.CHECKS}


class TestEpsilonAction:
    @pytest.mark.parametrize("p", [3, 5])
    def test_alpha0(self, p):
        rep = epsilon_checks(p, 0, 8, 20)
        assert all(rep.values()), rep

    def test_alpha1_well_definedness(self):
        rep = EpsilonAction(3, 1, 6, 20)
        # the alpha = 0 identities (well-definedness, equivariance) are
        # checked at the alpha = 0 chart; the quotient-model invariance
        # runs at the configured alpha
        assert rep.well_defined
        assert rep.equivariant

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_e_beta_needs_no_t_digit(self, p):
        assert e_beta_is_p_mod_d(p, 8) and e_beta_is_p_mod_d(p, 1)
        assert "e * q(q-1) = p mod d" not in epsilon_checks(p, 0, 4, 8)
        # at M = 1 the division by t that builds X_u has no digit left,
        # and each check that reads X_u says so on its own
        rep = EpsilonAction(p, 0, 4, 1)
        for _, name in EpsilonAction.CHECKS:
            with pytest.raises(PrecisionError):
                getattr(rep, name)

    def test_x_u_built_once(self, monkeypatch):
        # the three checks share one X_u
        calls = []
        orig = TruncSeries.divide_t_pow

        def counted(self, b):
            calls.append(b)
            return orig(self, b)

        monkeypatch.setattr(TruncSeries, "divide_t_pow", counted)
        assert all(epsilon_checks(5, 0, 6, 20).values())
        # one division per unit for X_u, one per unit in the equivariance
        assert len(calls) == 2 * (5 - 1)

    def test_suite_decides_each_check_in_its_own_block(self):
        # at one p-digit the invariance mod d compares on zero digits; the
        # two checks in A are still decided, at alpha = 0 and at alpha = 1
        from qprism.suites import NOT_CERTIFIED, PASS, REGISTRY, RunConfig
        cases = REGISTRY["epsilon-action"].runner(
            RunConfig(p=3, alpha=1, p_prec=1, t_prec=2))
        status = {c.case_id: c.status for c in cases}
        assert status.pop("alpha=0: e * q(q-1) = p mod d") == PASS
        assert status == {
            f"alpha={a}: {check}": NOT_CERTIFIED if "mod d" in check else PASS
            for a in (0, 1) for check, _ in EpsilonAction.CHECKS}

    def test_u1_trivial(self):
        # u = 1 contributes the identity substitution everywhere
        p, N, M = 3, 6, 16
        q = TruncSeries.q_power(p, N, M, 1)
        one = TruncSeries.one(p, N, M)
        X1 = (q - one).divide_t_pow(1)  # q^(1-1) (q^1-1)/(q-1) = 1
        assert X1 == one


def test_projector_idempotent():
    assert averaging_projector_check(3)
    assert averaging_projector_check(5, N=5, M=16)
