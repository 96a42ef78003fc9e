"""Experiment harness behavior at small desk scale."""

import threading

import numpy as np
import pytest

from carlat import (
    AnnularRegion,
    ConjugationContext,
    LatticeFunction,
    LatticeSpec,
    SweepConfig,
    WeightParams,
    caccioppoli_ratio,
    caccioppoli_sweep,
    carleman_sweep,
    coarsen_check,
    ball_input,
    harmonic_polynomial,
    in_window,
    localization_diagnostic,
    log_convexity_scan,
    random_bump,
    rescaled_three_balls,
    singular_potential_experiment,
    three_balls_experiment,
)
from carlat.experiments import _cell_seed, ball_norms, singular_field_data
from carlat.solver import DirichletProblem, dirichlet_solve


def poly_on_ball(d, h, kind="mixed_jk", radius=4.0):
    spec = LatticeSpec.ball_box(d, h, radius, pad_sites=2)
    return harmonic_polynomial(spec, kind)


class TestLogConvexity:
    def test_constant_solution_bounded_by_one(self):
        u = poly_on_ball(2, 1 / 16, "const")
        report = log_convexity_scan(u, tau_grid=[6.0, 10.0, 30.0, 80.0],
                                    tau0=5.0, delta0=0.1)
        # large tau: e^{c1 tau} |u|_{B_1/2} alone dominates |u|_{B_1}
        big_tau_rows = [r for r in report.rows if r["tau"] >= 30.0]
        assert all(r["c_emp"] <= 1.0 for r in big_tau_rows)

    def test_window_enforcement(self):
        # window at h=1/64 is (5, 6.4): only tau=6 contributes
        u = poly_on_ball(2, 1 / 64, "mixed_jk")
        report = log_convexity_scan(u, tau_grid=[0.5, 6.0, 1000.0],
                                    tau0=5.0, delta0=0.1)
        admissible = [r for r in report.rows if r["admissible"]]
        assert [r["tau"] for r in admissible] == [6.0]
        assert report.fitted["c_emp_max"].value == pytest.approx(
            admissible[0]["c_emp"])

    def test_no_admissible_tau_warns(self):
        u = poly_on_ball(2, 1 / 16, "mixed_jk")
        report = log_convexity_scan(u, tau_grid=[1000.0], tau0=5.0, delta0=0.1)
        assert report.warnings and "admissible" in report.warnings[0]
        assert "c_emp_max" not in report.fitted

    def test_degenerate_input_rejected(self):
        spec = LatticeSpec.ball_box(2, 1 / 16, 4.0, pad_sites=2)
        with pytest.raises(ValueError, match="degenerate"):
            log_convexity_scan(LatticeFunction.zeros(spec), tau_grid=[6.0])

    def test_scale_invariance(self):
        u = poly_on_ball(2, 1 / 16, "deg3")
        a = log_convexity_scan(u, tau_grid=[6.0, 12.0])
        b = log_convexity_scan(u.with_values(100.0 * u.values), tau_grid=[6.0, 12.0])
        for ra, rb in zip(a.rows, b.rows):
            assert ra["c_emp"] == pytest.approx(rb["c_emp"], rel=1e-12)


class TestThreeBalls:
    def test_alpha_frozen_value(self):
        report = three_balls_experiment([poly_on_ball(2, 1 / 16)])
        assert report.config["alpha"] == pytest.approx(0.7750253371607894, rel=1e-12)

    def test_constant_input_stays_bounded(self):
        sols = [poly_on_ball(2, h, "const") for h in (1 / 8, 1 / 16, 1 / 32)]
        report = three_balls_experiment(sols)
        assert report.passed is True
        assert all(not r["active"] for r in report.rows)
        assert report.fitted["ratio_max"].value < 3.0

    def test_deg3_sweep_bounded(self):
        sols = [poly_on_ball(2, h, "deg3") for h in (1 / 8, 1 / 16, 1 / 32)]
        report = three_balls_experiment(sols)
        assert report.passed is True
        assert report.fitted["ratio_max"].value < 10.0

    def test_repeated_spacing_rejected(self):
        u = poly_on_ball(2, 1 / 16)
        with pytest.raises(ValueError, match="strictly descending"):
            three_balls_experiment([u, u, u])

    def test_insufficient_sweep_for_fit(self):
        # a tiny bound constant forces the correction branch with too few rows
        with pytest.raises(ValueError, match="insufficient sweep"):
            three_balls_experiment([poly_on_ball(2, 1 / 16)], bound_constant=1e-9)

    def test_fit_branch_produces_diagnostics(self):
        sols = [poly_on_ball(2, h, "deg3") for h in (1 / 8, 1 / 16, 1 / 32)]
        report = three_balls_experiment(sols, bound_constant=1e-9)
        fit = report.fitted["c0_emp"]
        assert fit.n == 3
        assert fit.r_squared is not None

    def test_scale_invariance_of_ratio(self):
        u = poly_on_ball(2, 1 / 16, "deg3")
        a = three_balls_experiment([u])
        b = three_balls_experiment([u.with_values(1e6 * u.values)])
        assert a.rows[0]["ratio"] == pytest.approx(b.rows[0]["ratio"], rel=1e-12)


class TestRescaledThreeBalls:
    def test_m1_identical_to_plain(self):
        u = poly_on_ball(2, 1 / 16, "mixed_jk")
        plain = three_balls_experiment([u])
        rescaled = rescaled_three_balls(u, 1)
        assert rescaled.rows == plain.rows

    def test_m2_report_bounded(self):
        u = poly_on_ball(2, 1 / 32, "mixed_jk", radius=4.0)
        report = rescaled_three_balls(u, 2)
        assert report.rows[0]["h"] == pytest.approx(1 / 16)
        assert report.rows[0]["ratio"] < 10.0
        assert report.config["m"] == 2

    def test_non_harmonic_input_rejected(self, rng_seed):
        rng = np.random.default_rng(rng_seed)
        spec = LatticeSpec.ball_box(2, 1 / 16, 4.0, pad_sites=2)
        u = LatticeFunction(spec, rng.standard_normal(spec.shape))
        with pytest.raises(ValueError, match="not discrete harmonic"):
            rescaled_three_balls(u, 2)


class TestCaccioppoli:
    def test_constant_has_zero_gradient(self):
        u = poly_on_ball(2, 1 / 32, "const", radius=2.5)
        rec = caccioppoli_ratio(u, 1.0, 2.0)
        assert rec.lhs == 0.0 and rec.ratio == 0.0

    def test_linear_function_enumeration_oracle(self):
        h = 1 / 32
        u = poly_on_ball(2, h, "linear_j", radius=2.5)
        rec = caccioppoli_ratio(u, 1.0, 2.0)
        # forward difference of x_1 is exactly h: lhs = h^2 * #B_1 sites
        count_b1 = count_b2sum = 0.0
        m = int(np.ceil(2.5 / h)) + 2
        for n1 in range(-m, m + 1):
            for n2 in range(-m, m + 1):
                r2 = (h * n1) ** 2 + (h * n2) ** 2
                if r2 < 1.0:
                    count_b1 += 1
                if r2 < 4.0:
                    count_b2sum += (h * n1) ** 2
        assert rec.lhs == pytest.approx(h ** 2 * count_b1, rel=1e-12)
        assert rec.rhs == pytest.approx(h ** 2 * count_b2sum, rel=1e-12)

    def test_gap_condition(self):
        u = poly_on_ball(2, 1 / 8, "mixed_jk", radius=2.5)
        with pytest.raises(ValueError, match="radii too close"):
            caccioppoli_ratio(u, 1.0, 2.0)  # r1 + 10h = 2.25 > 2

    def test_box_coverage(self):
        u = poly_on_ball(2, 1 / 32, "mixed_jk", radius=1.5)
        with pytest.raises(ValueError, match="does not cover"):
            caccioppoli_ratio(u, 1.0, 2.0)

    @pytest.mark.parametrize("h_grid, message", [
        ((1 / 16, 1 / 16), "strictly descending"),
        ((1 / 16, 1 / 32, 1 / 16), "strictly descending"),
        ((1 / 16,), "at least two spacings"),
    ])
    def test_sweep_needs_two_descending_spacings(self, h_grid, message):
        # the relative spread compares spacings: one h would read 0
        with pytest.raises(ValueError, match=message):
            caccioppoli_sweep("mixed_jk", 2, h_grid)

    def test_sweep_ratio_stability(self):
        report = caccioppoli_sweep("mixed_jk", 2, (1 / 16, 1 / 32, 1 / 64))
        assert report.fitted["relative_spread"].value < 0.1

    def test_scale_invariance(self):
        u = poly_on_ball(2, 1 / 32, "deg3", radius=2.5)
        a = caccioppoli_ratio(u, 1.0, 2.0)
        b = caccioppoli_ratio(u.with_values(-17.0 * u.values), 1.0, 2.0)
        assert a.ratio == pytest.approx(b.ratio, rel=1e-12)

    def test_degenerate_input_rejected(self):
        spec = LatticeSpec.ball_box(2, 1 / 32, 2.5, pad_sites=2)
        with pytest.raises(ValueError, match="degenerate"):
            caccioppoli_ratio(LatticeFunction.zeros(spec), 1.0, 2.0)


class TestCarlemanSweep:
    def test_empty_sample_count(self):
        cfg = SweepConfig(d=2, h_grid=(1 / 16,), tau_rule="grid", tau_grid=(1.5,),
                          tau0=1.0, n_samples=0)
        report = carleman_sweep(cfg)
        assert report.rows == []
        assert report.passed is None

    @pytest.mark.parametrize("kwargs, message", [
        ({"tau_rule": "fixed"}, "unknown tau rule"),
        ({"tau_rule": "grid"}, "nonempty tau_grid"),
        ({"tau_rule": "fraction", "tau_grid": (2.0,)}, "only read by the 'grid'"),
        ({"h_grid": (1 / 16, 1 / 16)}, "strictly descending"),
        ({"tau_fraction": 1.0}, "tau_fraction must lie in"),
    ])
    def test_tau_rule_validation(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            SweepConfig(**kwargs)

    def test_default_config_measures_every_spacing(self):
        # tau = 0.5 * delta0 / h is 1.6, 3.2 and 6.4, inside (tau0, delta0/h)
        cfg = SweepConfig(n_samples=1)
        report = carleman_sweep(cfg)
        assert report.warnings == []
        assert [r["h"] for r in report.rows] == list(cfg.h_grid)
        assert all(r["admissible"] and np.isfinite(r["ratio"]) for r in report.rows)

    def test_jobs_below_one_rejected(self):
        cfg = SweepConfig(d=2, h_grid=(1 / 16,), tau0=1.0, n_samples=1)
        with pytest.raises(ValueError, match="jobs"):
            carleman_sweep(cfg, jobs=0)

    def test_out_of_window_tau_warns(self):
        cfg = SweepConfig(d=2, h_grid=(1 / 2,), tau_rule="grid", tau_grid=(1000.0,),
                          n_samples=3)
        report = carleman_sweep(cfg)
        assert report.warnings
        assert all(r["admissible"] is False for r in report.rows)

    def test_small_sweep_finite_and_deterministic(self):
        cfg = SweepConfig(d=2, h_grid=(1 / 32, 1 / 64), tau_rule="fraction",
                          tau_fraction=0.5, tau0=1.0, delta0=0.1, n_samples=4,
                          seed=11)
        a = carleman_sweep(cfg)
        b = carleman_sweep(cfg, jobs=3)
        assert a.rows == b.rows
        ratios = [r["ratio"] for r in a.rows if r["ratio"] is not None]
        assert ratios and all(np.isfinite(v) and v > 0 for v in ratios)
        assert a.passed is not None

    def test_parallel_sweep_builds_tables_before_the_threads(self, monkeypatch):
        # _cache is filled without a lock: no worker thread may fill it
        builders = []
        table = ConjugationContext._table

        def recording(ctx, name):
            if name not in ctx._cache:
                builders.append(threading.current_thread() is threading.main_thread())
            return table(ctx, name)

        monkeypatch.setattr(ConjugationContext, "_table", recording)
        cfg = SweepConfig(d=2, h_grid=(1 / 16, 1 / 32), tau_rule="fraction",
                          tau_fraction=0.5, tau0=1.0, delta0=0.1, n_samples=3, seed=5)
        carleman_sweep(cfg, jobs=3)
        assert builders and all(builders)


class TestLocalization:
    def ctx_and_bump(self, tau, h=1 / 24, seed=3):
        spec = LatticeSpec.ball_box(2, h, 2.0, pad_sites=4)
        ctx = ConjugationContext.from_weight(spec, WeightParams(tau, 0.01))
        f = random_bump(spec, AnnularRegion.origin(2, 0.5, 2.0), seed)
        return ctx, f

    def test_single_piece_is_exact(self):
        # scale = 1/(eps0 sqrt(tau)) = 8 >= 4*r_out: the support sits inside
        # one plateau, where the piece is identically one
        ctx, f = self.ctx_and_bump(tau=4.0)
        report = localization_diagnostic(f, ctx, eps0=1 / 16)
        assert report.config["n_pieces"] == 1
        for row in report.rows:
            assert row["sum_pieces"] == pytest.approx(row["norm_whole"], rel=1e-14)

    def test_minkowski_direction_and_bounded_constants(self):
        for tau in (4.0, 9.0, 16.0):
            ctx, f = self.ctx_and_bump(tau=tau)
            report = localization_diagnostic(f, ctx, eps0=0.5)
            assert report.config["n_pieces"] > 1
            for row in report.rows:
                assert row["minkowski_ok"]
                assert 0 < row["c_emp"] < 10.0

    def test_eps0_validation(self):
        ctx, f = self.ctx_and_bump(tau=4.0)
        with pytest.raises(ValueError, match="eps0"):
            localization_diagnostic(f, ctx, eps0=1.5)


class TestSingularPotential:
    ARGS = dict(d=2, h_grid=(1 / 8, 1 / 16), tau_fraction=0.5, tau0=0.2, delta0=0.5,
                seed=4)

    def test_zero_strength_reduces_to_plain_convexity(self):
        report = singular_potential_experiment(0.0, **self.ARGS)
        u = poly_on_ball(2, 1 / 8, "deg3")
        n_half, n_one, n_two = ball_norms(u)
        row = report.rows[0]
        assert row["norm_one"] == pytest.approx(n_one, rel=1e-9)
        assert report.passed is True

    def test_saturating_fields_solve_and_certify(self):
        report = singular_potential_experiment(0.05, **self.ARGS)
        assert report.rows
        for row in report.rows:
            assert row["residual"] <= 1e-8 * 70.0  # scale of deg3 data on B_4
            assert row["chat2"] > 0
        assert report.passed is True

    def test_rows_are_log_convexity_on_the_solved_input(self):
        args = self.ARGS
        report = singular_potential_experiment(0.05, **args)
        assert [row["h"] for row in report.rows] == list(args["h_grid"])
        for ih, row in enumerate(report.rows):
            def fields(spec):
                return singular_field_data(spec, 0.05, _cell_seed(args["seed"], ih))

            u, facts = ball_input(2, row["h"], "solve", fields=fields, tol=1e-8)
            scan = log_convexity_scan(u, [row["tau"]], tau0=args["tau0"],
                                      delta0=args["delta0"])
            assert scan.rows[0]["admissible"] and row["residual"] == facts["residual"]
            for key in ("c_emp", "norm_half", "norm_one", "norm_two"):
                assert row[key] == scan.rows[0][key]

    def test_repeated_spacing_rejected(self):
        with pytest.raises(ValueError, match="strictly descending"):
            singular_potential_experiment(0.0, **{**self.ARGS, "h_grid": (1 / 8, 1 / 8)})


# (tau, h, tau0, delta0, inside the window); tau0 < tau < delta0/h and 1 < tau
WINDOW_CASES = [
    (0.8, 1 / 8, 0.5, 0.5, False),  # tau0 < tau <= 1
    (1.0, 1 / 8, 0.5, 0.5, False),  # tau = 1
    (2.0, 1 / 8, 2.0, 0.5, False),  # tau = tau0, the open lower end
    (4.0, 1 / 8, 0.5, 0.5, False),  # tau = delta0/h, the open upper end
    (2.0, 1 / 8, 0.5, 0.5, True),
    (3.0, 1 / 8, 2.5, 0.5, True),
]


@pytest.mark.parametrize("tau, h, tau0, delta0, inside", WINDOW_CASES)
def test_one_window_for_sweep_scan_and_singular_potential(tau, h, tau0, delta0, inside):
    assert in_window(tau, h, tau0, delta0) is inside
    sweep = carleman_sweep(SweepConfig(d=2, h_grid=(h,), tau_rule="grid", tau_grid=(tau,),
                                       tau0=tau0, delta0=delta0, n_samples=1))
    assert all(r["admissible"] is inside for r in sweep.rows)
    assert bool(sweep.warnings) is not inside
    scan = log_convexity_scan(poly_on_ball(2, h), [tau], tau0=tau0, delta0=delta0)
    assert scan.rows[0]["admissible"] is inside
    # the fraction tau * h / delta0 reproduces tau exactly at these values
    fraction = tau * h / delta0
    if fraction == 1:
        # tau on the open upper end: the fraction rule refuses it up front
        with pytest.raises(ValueError, match="tau_fraction must lie in"):
            singular_potential_experiment(0.0, 2, (h,), fraction, tau0, delta0)
        return
    singular = singular_potential_experiment(0.0, 2, (h,), fraction, tau0, delta0)
    assert [r["tau"] for r in singular.rows] == ([tau] if inside else [])
    assert bool(singular.warnings) is not inside


class TestCoarsenCheck:
    def test_polynomial_input_passes(self):
        u = poly_on_ball(2, 1 / 32, "mixed_jk")
        report = coarsen_check(u, factors=(2, 3, 4))
        assert report.passed is True
        assert all(r["residual_rel"] == 0.0 for r in report.rows)

    def test_solver_input_passes(self):
        spec = LatticeSpec.ball_box(2, 1 / 32, 4.0, pad_sites=2)
        g = harmonic_polynomial(spec, "deg3")
        problem = DirichletProblem.on_ball(spec, 4.0, g)
        u = dirichlet_solve(problem, tol=1e-10)
        report = coarsen_check(u, factors=(2, 3, 4), radius=4.0)
        assert report.passed is True

    def test_empty_measurement_rejected(self):
        # at m = 4 no coarse site lies inside radius - (m + 1) h = -0.5
        spec = LatticeSpec.ball_box(2, 1 / 2, 2.0, pad_sites=2)
        noise = LatticeFunction(spec, np.random.default_rng(0).standard_normal(spec.shape))
        with pytest.raises(ValueError, match="no interior site"):
            coarsen_check(noise, factors=(4,), radius=2.0)
