import math

import numpy as np
import pytest

from urnfield import meanfield as mf
from urnfield.errors import ConditionViolation
from urnfield.quadrature import adaptive_simpson

P = mf.ModelParams


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            P(1, 0.3)
        with pytest.raises(ValueError):
            P(3, 1.2)
        with pytest.raises(ValueError):
            P(3, -0.1)


class TestField:
    @pytest.mark.parametrize("m,p", [(2, 0.0), (3, 0.4), (5, 0.3), (7, 1.0)])
    def test_known_zeros(self, m, p):
        for pt in [(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)]:
            f1, f2 = mf.field(P(m, p), *pt)
            assert abs(f1) < 1e-14 and abs(f2) < 1e-14

    def test_hand_value(self):
        # m=2, p=0: F1 = -0.75 + 0.5625/0.625 = 0.15, F2 antisymmetric
        f1, f2 = mf.field(P(2, 0.0), 0.75, 0.25)
        assert f1 == pytest.approx(0.15, abs=1e-14)
        assert f2 == pytest.approx(-0.15, abs=1e-14)

    def test_antisymmetry(self):
        rng = np.random.default_rng(3)
        for m, p in [(2, 0.3), (5, 0.7), (9, 0.5)]:
            for _ in range(50):
                x, y = rng.random(2)
                a = mf.field(P(m, p), x, y)
                b = mf.field(P(m, p), 1.0 - x, 1.0 - y)
                assert abs(a[0] + b[0]) < 1e-12 and abs(a[1] + b[1]) < 1e-12

    def test_swap_symmetry(self):
        rng = np.random.default_rng(4)
        pr = P(4, 0.6)
        for _ in range(50):
            x, y = rng.random(2)
            assert mf.field(pr, x, y)[0] == pytest.approx(mf.field(pr, y, x)[1], abs=1e-15)

    def test_domain_check(self):
        with pytest.raises(ValueError):
            mf.field(P(2, 0.5), 1.2, 0.5)

    def test_grid_matches_scalar(self):
        pr = P(6, 0.35)
        xs = np.linspace(0, 1, 7)
        f1, f2 = mf.field_grid(pr, xs, xs[::-1])
        for i, (x, y) in enumerate(zip(xs, xs[::-1])):
            s1, s2 = mf.field(pr, float(x), float(y))
            assert f1[i] == pytest.approx(s1, abs=1e-15)
            assert f2[i] == pytest.approx(s2, abs=1e-15)


class TestPowerRatioClip:
    @pytest.mark.parametrize("gap", [709.0, 709.8, 720.0, 745.0, 746.0])
    def test_scalar_matches_array_beyond_exp_range(self, gap):
        # t = exp(-gap / 2) puts the log ratio m log((1-t)/t) at about gap
        t = math.exp(-gap / 2)
        assert mf.power_ratio(2, t) == mf._power_ratio_arr(2, np.array([t]))[0]

    def test_field_near_the_edge(self):
        f1, f2 = mf.field(P(2, 0.3), 1e-155, 0.5)
        assert math.isfinite(f1) and math.isfinite(f2)


class TestWeightKernel:
    def test_half_is_one(self):
        for m in (2, 3, 5, 12, 64):
            assert mf.f_weight(m, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_endpoints_vanish(self):
        assert mf.f_weight(4, 0.0) == 0.0
        assert mf.f_weight(4, 1.0) == 0.0

    def test_symmetric(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            t = float(rng.random())
            assert mf.f_weight(7, t) == pytest.approx(mf.f_weight(7, 1 - t), rel=1e-12)

    def test_matches_power_ratio_derivative(self):
        # R'(t) = m f(t)
        h = 1e-7
        for m in (2, 3, 8):
            for t in (0.2, 0.41, 0.5, 0.77):
                fd = (mf.power_ratio(m, t + h) - mf.power_ratio(m, t - h)) / (2 * h)
                assert fd == pytest.approx(m * mf.f_weight(m, t), rel=1e-5)


class TestLyapunov:
    def test_zero_at_origin(self):
        for m, p in [(2, 0.3), (3, 0.5), (7, 0.9), (2, 0.0)]:
            assert mf.lyapunov(P(m, p), 0.0, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_matches_closed_forms(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            x, y, p = rng.random(3)
            assert mf.lyapunov(P(2, p), x, y) == pytest.approx(
                mf.lyapunov_closed(2, p, x, y), abs=1e-8
            )
            assert mf.lyapunov(P(3, p), x, y) == pytest.approx(
                mf.lyapunov_closed(3, p, x, y), abs=1e-8
            )

    def test_closed_form_only_m23(self):
        with pytest.raises(ValueError):
            mf.lyapunov_closed(4, 0.2, 0.5, 0.5)

    def test_closed_form_symmetry_and_origin(self):
        rng = np.random.default_rng(7)
        for m in (2, 3):
            assert mf.lyapunov_closed(m, 0.4, 0.0, 0.0) == pytest.approx(0.0, abs=1e-15)
            for _ in range(20):
                x, y, p = rng.random(3)
                assert mf.lyapunov_closed(m, p, x, y) == pytest.approx(
                    mf.lyapunov_closed(m, p, y, x), abs=1e-14
                )

    def test_gradient_of_closed_form_is_field(self):
        rng = np.random.default_rng(8)
        h = 1e-6
        for m in (2, 3):
            for _ in range(40):
                x, y = rng.uniform(h, 1 - h, 2)
                p = float(rng.random())
                gx = (mf.lyapunov_closed(m, p, x + h, y) - mf.lyapunov_closed(m, p, x - h, y)) / (2 * h)
                gy = (mf.lyapunov_closed(m, p, x, y + h) - mf.lyapunov_closed(m, p, x, y - h)) / (2 * h)
                f1, f2 = mf.field(P(m, p), x, y)
                assert gx == pytest.approx(f1, abs=1e-6)
                assert gy == pytest.approx(f2, abs=1e-6)


class TestJacobian:
    def test_center_entries(self):
        for m, p in [(2, 0.0), (3, 0.4), (6, 1.0)]:
            j = mf.jacobian(P(m, p), 0.5, 0.5)
            assert j[0, 0] == pytest.approx(-1 + m * (1 - p) + m * p / 2, abs=1e-10)
            assert j[0, 1] == pytest.approx(m * p / 2, abs=1e-10)
            assert j[0, 1] == j[1, 0]

    def test_symmetry_always(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            x, y = rng.random(2)
            j = mf.jacobian(P(5, 0.37), x, y)
            assert j[0, 1] == j[1, 0]

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(10)
        h = 1e-6
        pr = P(4, 0.3)
        for _ in range(30):
            x, y = rng.uniform(2 * h, 1 - 2 * h, 2)
            j = mf.jacobian(pr, x, y)
            fd = np.empty((2, 2))
            fd[:, 0] = (np.array(mf.field(pr, x + h, y)) - np.array(mf.field(pr, x - h, y))) / (2 * h)
            fd[:, 1] = (np.array(mf.field(pr, x, y + h)) - np.array(mf.field(pr, x, y - h))) / (2 * h)
            assert np.max(np.abs(fd - j)) < 1e-5


class TestEigenvalues:
    def test_center_anchor(self):
        for m in range(2, 11):
            for p in (0.0, 0.25, 0.5, 0.75):
                lm, lp = mf.eigenvalues(P(m, p), 0.5, 0.5)
                assert lp == pytest.approx(m - 1, abs=1e-9)
                assert lm == pytest.approx(m * (1 - p) - 1, abs=1e-9)

    def test_corner_anchor(self):
        for m in range(2, 11):
            for p in (0.0, 0.25, 0.5, 0.75):
                assert mf.eigenvalues(P(m, p), 0.0, 0.0)[1] == pytest.approx(-1.0, abs=1e-12)
                assert mf.eigenvalues(P(m, p), 1.0, 1.0)[1] == pytest.approx(-1.0, abs=1e-12)

    def test_ordering_and_matrix_oracle(self):
        rng = np.random.default_rng(11)
        pr = P(6, 0.45)
        for _ in range(50):
            x, y = rng.random(2)
            lm, lp = mf.eigenvalues(pr, x, y)
            assert lm <= lp
            ev = np.linalg.eigvalsh(mf.jacobian(pr, x, y))
            assert lm == pytest.approx(ev[0], abs=1e-10)
            assert lp == pytest.approx(ev[1], abs=1e-10)


class TestEquilibria:
    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_p_zero_grid(self, m):
        eqs = mf.find_equilibria(P(m, 0.0), 128, 1e-10)
        assert len(eqs) == 9
        expected = {(a, b) for a in (0.0, 0.5, 1.0) for b in (0.0, 0.5, 1.0)}
        got = {(round(e.x, 8), round(e.y, 8)) for e in eqs}
        assert got == expected

    def test_off_center_in_strip(self):
        for m, p in [(3, 0.2), (5, 0.3), (3, 0.4)]:
            eqs = mf.find_equilibria(P(m, p))
            core = {(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)}
            for e in eqs:
                if (round(e.x, 9), round(e.y, 9)) in core:
                    continue
                in_upper = 0 < e.x < 0.5 < e.y < 1
                in_lower = 0 < e.y < 0.5 < e.x < 1
                assert in_upper or in_lower

    def test_mirror_symmetry(self):
        eqs = mf.find_equilibria(P(4, 0.25))
        locs = [(e.x, e.y) for e in eqs]
        for x, y in locs:
            assert any(math.hypot(1 - x - a, 1 - y - b) < 1e-7 for a, b in locs)

    def test_residuals_small(self):
        for e in mf.find_equilibria(P(5, 0.3), tol=1e-10):
            assert e.residual < 1e-10

    def test_classification_consistent(self):
        for e in mf.find_equilibria(P(3, 0.2)):
            if e.stability == "strictly_stable":
                assert e.lambda_plus < 0
            elif e.stability == "unstable":
                assert e.lambda_plus > 0

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            mf.find_equilibria(P(3, 0.3), grid_n=32)


class TestSolveUm:
    def test_p_zero(self):
        assert mf.solve_um(P(5, 0.0)) == 0.0

    def test_m2_closed_form(self):
        assert mf.solve_um(P(2, 0.18)) == pytest.approx(0.1, abs=1e-12)
        for p in np.linspace(0.0, 0.49, 100):
            u = mf.solve_um(P(2, float(p)))
            assert u == pytest.approx(0.5 - 0.5 * math.sqrt(1 - 2 * p), abs=1e-10)

    def test_residual(self):
        for m, p in [(3, 0.1), (5, 0.42), (9, 0.25)]:
            u = mf.solve_um(P(m, p))
            g = -u + (1 - p) * mf.power_ratio(m, u) + p / 2
            assert abs(g) < 1e-12
            assert 0 < u < 0.5

    def test_rejects_large_p(self):
        with pytest.raises(ValueError):
            mf.solve_um(P(3, 0.5))


class TestStabilityMargin:
    def test_small_p_margin_near_minus_one(self):
        for m in (2, 4, 8):
            assert mf.um_stability_margin(P(m, 1e-6)) == pytest.approx(-1.0, abs=1e-3)

    def test_m2_threshold(self):
        lo, hi = 0.2, 0.4
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if mf.um_stability_margin(P(2, mid)) < 0:
                lo = mid
            else:
                hi = mid
        assert 0.5 * (lo + hi) == pytest.approx(1 - math.sqrt(2) / 2, abs=1e-6)

    def test_matches_direct_eigenvalue(self):
        pr = P(3, 0.2)
        u = mf.solve_um(pr)
        assert mf.um_stability_margin(pr) == pytest.approx(
            mf.eigenvalues(pr, u, 1 - u)[1], abs=1e-12
        )


class TestUpperBranch:
    def test_h_at_one(self):
        for m, p in [(3, 0.2), (6, 0.3), (12, 0.45)]:
            assert mf.h_of_z(P(m, p), 1.0) == pytest.approx(1.0, abs=1e-10)

    def test_h_above_z(self):
        pr = P(6, 0.3)
        for z in (0.55, 0.6, 0.7, 0.85, 0.95):
            assert mf.h_of_z(pr, z) > z

    def test_derivative_formula(self):
        pr = P(5, 0.25)
        h = 1e-6
        for z in (0.58, 0.65, 0.72):
            fd = (mf.h_of_z(pr, z + h) - mf.h_of_z(pr, z - h)) / (2 * h)
            assert fd == pytest.approx(mf.h_of_z_prime(pr, z), abs=1e-4)

    def test_rejects_large_p(self):
        with pytest.raises(ValueError):
            mf.h_of_z(P(3, 0.6), 0.8)


class TestSolveSm:
    def test_approaches_corner_limit(self):
        dists = []
        for m in (10, 20, 30, 40):
            eq = mf.solve_sm(P(m, 0.3))
            assert eq.stability == "strictly_stable"
            dists.append(math.hypot(eq.x - 0.3, eq.y - 1.0))
        assert all(a > b for a, b in zip(dists, dists[1:]))

    def test_lambda_plus_tends_to_minus_one(self):
        lams = [mf.solve_sm(P(m, 0.3)).lambda_plus for m in (10, 20, 40)]
        assert all(abs(b + 1) < abs(a + 1) + 1e-12 for a, b in zip(lams, lams[1:]))
        assert lams[-1] == pytest.approx(-1.0, abs=1e-3)

    def test_matches_find_equilibria(self):
        eq = mf.solve_sm(P(12, 0.3))
        found = mf.find_equilibria(P(12, 0.3))
        assert any(math.hypot(e.x - eq.x, e.y - eq.y) < 1e-7 for e in found)

    def test_small_m_not_found(self):
        with pytest.raises(ConditionViolation):
            mf.solve_sm(P(2, 0.05))

    def test_validation(self):
        with pytest.raises(ValueError):
            mf.solve_sm(P(20, 0.0))
        with pytest.raises(ValueError):
            mf.solve_sm(P(20, 0.3), delta=0.4)

    def test_mismatch_derivative_trend(self):
        zs = np.linspace(0.55, 0.70, 31)
        devs = []
        for m in (10, 20, 40, 80):
            pr = P(m, 0.3)
            devs.append(max(abs(mf.pair_mismatch_prime(pr, float(z)) - 2.0) for z in zs))
        assert all(a > b for a, b in zip(devs, devs[1:]))


class TestFlow:
    def test_stationary_at_equilibrium(self):
        pr = P(3, 0.2)
        stable = [e for e in mf.find_equilibria(pr) if e.stability == "strictly_stable"]
        eq = next(e for e in stable if 0 < e.x < 0.5)
        tr = mf.flow(pr, eq.x, eq.y, 5.0, 0.01)
        assert np.max(np.abs(tr.states - tr.states[0])) < 1e-8

    def test_potential_monotone(self):
        tr = mf.flow(P(3, 0.4), 0.3, 0.8, 20.0, 0.01)
        assert np.min(np.diff(tr.potential)) > -1e-12

    def test_diagonal_invariant(self):
        tr = mf.flow(P(4, 0.6), 0.3, 0.3, 10.0, 0.01)
        assert np.max(np.abs(tr.states[:, 0] - tr.states[:, 1])) < 1e-10

    def test_validation(self):
        with pytest.raises(ValueError):
            mf.flow(P(2, 0.1), 0.5, 0.5, 1.0, 0.0)


class TestSampleField:
    def test_row_count(self):
        assert mf.sample_field(P(3, 0.5), 3).shape == (9, 4)
        assert mf.sample_field(P(3, 0.5), 25).shape == (625, 4)

    def test_corners_are_zeros(self):
        rows = mf.sample_field(P(3, 0.5), 3)
        by_xy = {(r[0], r[1]): (r[2], r[3]) for r in rows}
        assert by_xy[(0.0, 0.0)] == (0.0, 0.0)
        assert by_xy[(1.0, 1.0)] == (0.0, 0.0)

    def test_sign_changes_bracket_equilibria(self):
        pr = P(3, 0.4)
        rows = mf.sample_field(pr, 41)
        f1 = rows[:, 2].reshape(41, 41)
        f2 = rows[:, 3].reshape(41, 41)
        eqs = [e for e in mf.find_equilibria(pr) if 0 < e.x < 1 and 0 < e.y < 1]
        for e in eqs:
            i = min(int(e.x * 40), 39)
            j = min(int(e.y * 40), 39)
            c1 = f1[i : i + 2, j : j + 2]
            c2 = f2[i : i + 2, j : j + 2]
            assert c1.min() <= 0 <= c1.max()
            assert c2.min() <= 0 <= c2.max()

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            mf.sample_field(P(2, 0.2), 1)


class TestInequalityMargins:
    def test_odd_ratio_spot(self):
        # ((1+h)^3 - (1-h)^3) / ((1+h)^3 + (1-h)^3) at h = 0.2: 1.216/2.24
        assert mf.odd_power_ratio(3, 0.2) == pytest.approx(1.216 / 2.24, rel=1e-12)

    def test_beta_spot(self):
        h = 0.3
        m = 2
        direct = 0.5 * ((1 + h) ** 2 - (1 - h) ** 2) / ((1 + h) ** 2 + (1 - h) ** 2)
        direct += 0.5 * h**2 / (h**2 + (1 - h) ** 2) - h
        assert mf.beta_margin(m, h) == pytest.approx(direct, rel=1e-12)


class TestQuadrature:
    def test_polynomial_exact(self):
        assert adaptive_simpson(lambda t: t**3, 0.0, 2.0) == pytest.approx(4.0, abs=1e-12)
        assert adaptive_simpson(lambda t: t**3, 2.0, 0.0) == pytest.approx(-4.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_panel_raises_instead_of_refining(self, bad):
        # refining such a panel never settles: it doubled the panel count on every level
        def f(t):
            return np.where(t < 0.25, bad, t)

        with pytest.raises(ConditionViolation, match="not finite"):
            adaptive_simpson(f, 0.0, 1.0)
