"""The convexified log weight: derivatives, margin, admissibility."""

import itertools
import math

import mpmath as mp
import numpy as np
import pytest

from carlat import (
    WeightParams,
    admissibility_check,
    phi_eval,
    pseudoconvexity_margin,
    varphi,
    weight_constants,
)
from carlat.weight import margin_closed_form

# frozen against the 40-digit mpmath evaluation of the profile
VARPHI_QUARTER = 1.3940461107139675
C1_DEFAULT = 0.40466425896360338
C2_DEFAULT = 1.3940461107139675
ALPHA_DEFAULT = 0.7750253371607894


def mp_varphi(t, c_ps):
    s = mp.log(t)
    return -s + c_ps * (s * mp.atan(s) - mp.mpf(1) / 2 * mp.log(1 + s ** 2))


class TestProfile:
    def test_zero_at_one_for_any_cps(self):
        for c_ps in (0.0, 0.001, 0.01, 0.3, 10.0):
            assert varphi(1.0, 0, c_ps) == 0.0

    def test_quarter_value_against_oracle(self):
        assert varphi(0.25, 0, 0.01) == pytest.approx(VARPHI_QUARTER, rel=1e-14)
        mp.mp.dps = 30
        oracle = float(mp_varphi(mp.mpf(1) / 4, mp.mpf("0.01")))
        assert varphi(0.25, 0, 0.01) == pytest.approx(oracle, rel=1e-14)

    def test_monotone_decreasing_on_annulus(self):
        t = np.linspace(0.25, 4.0, 10000)
        assert np.all(varphi(t, 1, 0.01) < 0.0)

    def test_derivatives_match_finite_differences(self, rng_seed):
        rng = np.random.default_rng(rng_seed)
        step = 1e-4
        for t in rng.uniform(0.3, 3.8, size=50):
            d1 = (varphi(t + step) - varphi(t - step)) / (2 * step)
            d2 = (varphi(t + step) - 2 * varphi(t) + varphi(t - step)) / step ** 2
            assert varphi(t, 1) == pytest.approx(d1, rel=1e-6)
            assert varphi(t, 2) == pytest.approx(d2, rel=1e-4)

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="positive"):
            varphi(0.0)
        with pytest.raises(ValueError, match="positive"):
            varphi(-1.0)
        with pytest.raises(ValueError, match="order"):
            varphi(1.0, 3)


class TestMargin:
    def test_closed_form_equals_derivative_form(self, rng_seed):
        rng = np.random.default_rng(rng_seed)
        c_ps = 0.01
        for r in rng.uniform(0.26, 3.9, size=1000):
            derivative_form = varphi(r, 1, c_ps) ** 2 * (
                varphi(r, 2, c_ps) + varphi(r, 1, c_ps) / r)
            closed = pseudoconvexity_margin(np.array([r, 0.0]), c_ps)
            assert closed == pytest.approx(derivative_form, rel=1e-12)

    def test_value_at_radius_one_is_exactly_cps(self):
        for c_ps in (0.0025, 0.01, 0.2):
            assert pseudoconvexity_margin(np.array([1.0, 0.0]), c_ps) == c_ps
            assert pseudoconvexity_margin(np.array([0.0, -1.0, 0.0]), c_ps) == c_ps

    def test_positive_on_one_to_four(self):
        rs = np.linspace(1.0, 4.0, 4000)
        margins = [pseudoconvexity_margin(np.array([r]), 0.01) for r in rs[:10]]
        assert all(m > 0 for m in margins)
        from carlat.weight import margin_closed_form
        assert np.all(margin_closed_form(rs, 0.01) > 0.0)

    def test_limiting_weight_has_zero_margin(self):
        for r in (0.3, 1.0, 2.5):
            assert pseudoconvexity_margin(np.array([r, 0.0]), 0.0) == 0.0

    def test_origin_rejected(self):
        with pytest.raises(ValueError, match="singularity"):
            pseudoconvexity_margin(np.zeros(2), 0.01)


class TestPhiEval:
    def test_value_and_gradient_on_unit_sphere(self):
        params = WeightParams(3.0, 0.01)
        x = np.array([0.6, 0.8])
        ev = phi_eval(x, params)
        assert ev.value == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(ev.gradient, params.tau * varphi(1.0, 1, 0.01) * x,
                                   rtol=1e-13)

    def test_hessian_eigenvalues(self):
        params = WeightParams(2.5, 0.01)
        x = np.array([1.2, -0.9, 0.4])
        r = np.linalg.norm(x)
        ev = phi_eval(x, params)
        eig = np.sort(np.linalg.eigvalsh(ev.hessian))
        expected = np.sort([params.tau * varphi(r, 2, 0.01)]
                           + [params.tau * varphi(r, 1, 0.01) / r] * 2)
        np.testing.assert_allclose(eig, expected, rtol=1e-11)

    def test_gradient_is_hessian_eigenvector(self):
        params = WeightParams(4.0, 0.01)
        x = np.array([0.8, 1.1])
        r = np.linalg.norm(x)
        ev = phi_eval(x, params)
        lhs = ev.hessian @ ev.gradient
        rhs = params.tau ** 2 * varphi(r, 2, 0.01) * varphi(r, 1, 0.01) * x / r
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10)

    def test_finite_difference_gradient_and_hessian(self, rng_seed):
        rng = np.random.default_rng(rng_seed)
        params = WeightParams(2.0, 0.01)
        step = 1e-4
        for _ in range(20):
            x = rng.uniform(0.6, 1.8, size=3) * rng.choice([-1.0, 1.0], size=3)
            ev = phi_eval(x, params)
            for a in range(3):
                e = np.zeros(3)
                e[a] = step
                fd = (phi_eval(x + e, params).value - phi_eval(x - e, params).value) / (2 * step)
                assert ev.gradient[a] == pytest.approx(fd, rel=1e-6, abs=1e-9)
                fd_grad = (phi_eval(x + e, params).gradient
                           - phi_eval(x - e, params).gradient) / (2 * step)
                np.testing.assert_allclose(ev.hessian[a], fd_grad, rtol=1e-5, atol=1e-7)

    def test_rotation_invariance_under_signed_permutations(self):
        params = WeightParams(3.0, 0.01)
        x = np.array([0.7, -1.1, 0.3])
        base = phi_eval(x, params)
        for perm in itertools.permutations(range(3)):
            for signs in itertools.product([-1.0, 1.0], repeat=3):
                mat = np.zeros((3, 3))
                for i, (p, s) in enumerate(zip(perm, signs)):
                    mat[i, p] = s
                ev = phi_eval(mat @ x, params)
                assert ev.value == pytest.approx(base.value, rel=1e-14, abs=1e-15)
                np.testing.assert_allclose(ev.gradient, mat @ base.gradient,
                                           rtol=1e-13, atol=1e-14)

    def test_linear_in_tau(self):
        x = np.array([1.3, 0.2])
        a = phi_eval(x, WeightParams(2.0, 0.01))
        b = phi_eval(x, WeightParams(6.0, 0.01))
        assert b.value == pytest.approx(3.0 * a.value, rel=1e-15)
        np.testing.assert_allclose(b.gradient, 3.0 * a.gradient, rtol=1e-15)
        np.testing.assert_allclose(b.hessian, 3.0 * a.hessian, rtol=1e-15)

    def test_origin_rejected(self):
        with pytest.raises(ValueError, match="singularity"):
            phi_eval(np.zeros(3), WeightParams(2.0))


# c* = 1.0572094293481848: varphi'(4) = 0, admissible exactly for 0 < c_ps < c*
C_STAR = 1.0 / math.atan(math.log(4.0))


def sampled_admissible(c_ps):
    """The sampled check admissibility_check replaces: varphi' < 0 and a
    positive margin at 4096 radii of 1/4 <= r <= 4."""
    rs = np.linspace(0.25, 4.0, 4096)
    return bool(varphi(rs, 1, c_ps).max() < 0 and margin_closed_form(rs, c_ps).min() > 0)


def admissible(c_ps):
    try:
        admissibility_check(c_ps)
    except ValueError as exc:
        assert "inadmissible" in str(exc)
        return False
    return True


class TestAdmissibility:
    def test_default_parameters_pass(self):
        admissibility_check(0.01)

    def test_limiting_weight_fails(self):
        with pytest.raises(ValueError, match="inadmissible.*margin"):
            admissibility_check(0.0)

    def test_large_cps_fails_monotonicity(self):
        with pytest.raises(ValueError, match="inadmissible.*varphi'.*radius 4"):
            admissibility_check(10.0)

    # 5e-324 is admissible in exact arithmetic; its margin underflows to 0
    @pytest.mark.parametrize("c_ps, want", [
        (0.0, False), (5e-324, False), (0.01, True), (0.1, True), (1.05, True),
        (C_STAR * (1 - 1e-9), True), (C_STAR * (1 + 1e-9), False), (1.06, False),
        (10.0, False)])
    def test_matches_the_sampled_check(self, c_ps, want):
        assert admissible(c_ps) == sampled_admissible(c_ps) == want

    def test_matches_the_sampled_check_on_a_seeded_grid(self):
        rng = np.random.default_rng(17)
        grid = np.concatenate([rng.uniform(0.0, 2.0, 200),
                               C_STAR * (1 + rng.uniform(-1e-6, 1e-6, 100))])
        verdicts = [admissible(c) for c in grid]
        assert verdicts == [sampled_admissible(c) for c in grid]
        assert any(verdicts) and not all(verdicts)


class TestConstants:
    def test_frozen_values(self):
        c1, c2, alpha = weight_constants(0.01)
        assert c1 == pytest.approx(C1_DEFAULT, rel=1e-13)
        assert c2 == pytest.approx(C2_DEFAULT, rel=1e-13)
        assert alpha == pytest.approx(ALPHA_DEFAULT, rel=1e-13)
        assert c1 > 0 and c2 > 0 and 0 < alpha < 1

    def test_against_mpmath(self):
        mp.mp.dps = 30
        for c_ps in (0.005, 0.01, 0.05):
            base = mp_varphi(1, mp.mpf(c_ps))
            c1o = abs(mp_varphi(mp.mpf(3) / 2, mp.mpf(c_ps)) - base)
            c2o = mp_varphi(mp.mpf(1) / 4, mp.mpf(c_ps)) - base
            c1, c2, alpha = weight_constants(c_ps)
            assert c1 == pytest.approx(float(c1o), rel=1e-13)
            assert c2 == pytest.approx(float(c2o), rel=1e-13)
            assert alpha == pytest.approx(float(c2o / (c1o + c2o)), rel=1e-13)


def test_weight_params_validation():
    with pytest.raises(ValueError, match="tau"):
        WeightParams(0.5)
    with pytest.raises(ValueError, match="c_ps"):
        WeightParams(2.0, -0.1)
