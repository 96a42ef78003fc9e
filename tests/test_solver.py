"""Dirichlet solves, closed-form harmonic polynomials, seeded bumps."""

import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse.linalg

from carlat import solver
from carlat import (
    AnnularRegion,
    DirichletProblem,
    FieldData,
    LatticeFunction,
    LatticeSpec,
    SolverError,
    ball_input,
    dirichlet_solve,
    harmonic_polynomial,
    laplacian,
    random_bump,
    residual,
    schrodinger_apply,
)
from carlat.experiments import singular_field_data
from carlat.solver import _bump_window


def ball_spec(d, h, radius=2.0):
    return LatticeSpec.ball_box(d, h, radius, pad_sites=2)


def full_grid_bump(spec, region, seed, modes=6):
    """random_bump's defining formula, one cos pass per mode on the full coordinate mesh."""
    margin = max(2 * spec.h, 0.05)
    a, b = region.inner.radius + margin, region.outer.radius - margin
    ramp = min(0.25 * (b - a), 0.2)
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(modes)
    freqs = rng.uniform(-1.0, 1.0, size=(modes, spec.d)) * (2 * np.pi / region.width)
    phases = rng.uniform(0.0, 2 * np.pi, size=modes)

    def smoothstep(t):
        t = np.clip(t, 0.0, 1.0)
        return t ** 3 * (10.0 + t * (-15.0 + 6.0 * t))

    x = spec.coords()
    r = np.sqrt(((x - np.reshape(region.outer.center, (-1,) + (1,) * spec.d)) ** 2).sum(axis=0))
    window = smoothstep((r - a) / ramp) * smoothstep((b - r) / ramp)
    wave = np.zeros(spec.shape)
    for m in range(modes):
        wave += amps[m] * np.cos(np.tensordot(freqs[m], x, axes=(0, 0)) + phases[m])
    return window * np.exp(wave / np.sqrt(modes))


class TestHarmonicPolynomials:
    def test_exact_integer_harmonicity(self):
        # h = 1 keeps all values integral, so the cancellations are exact
        spec = LatticeSpec(2, 1.0, (-6, -6), (6, 6))
        for kind in ("const", "linear_j", "mixed_jk", "diff_squares", "deg3"):
            f = harmonic_polynomial(spec, kind)
            inner = laplacian(f).values[1:-1, 1:-1]
            assert np.all(inner == 0.0), kind

    def test_deg3_expansion_oracle(self):
        # direct expansion: Lap_1 x^3 = 6 x h^2 and Lap_2 (-3 x y^2) = -6 x h^2
        h = 0.25
        spec = LatticeSpec(2, h, (-8, -8), (8, 8))
        x = spec.coords()
        d1 = (x[0] + h) ** 3 + (x[0] - h) ** 3 - 2 * x[0] ** 3
        np.testing.assert_allclose(d1, 6 * x[0] * h ** 2, atol=1e-14)
        d2 = -3 * x[0] * ((x[1] + h) ** 2 + (x[1] - h) ** 2 - 2 * x[1] ** 2)
        np.testing.assert_allclose(d2, -6 * x[0] * h ** 2, atol=1e-14)

    def test_dimension_requirements(self):
        spec = LatticeSpec(1, 1.0, (-3,), (3,))
        with pytest.raises(ValueError, match="dimension"):
            harmonic_polynomial(spec, "mixed_jk")
        with pytest.raises(ValueError, match="unknown"):
            harmonic_polynomial(spec, "quartic")


class TestBallInput:
    def test_solve_is_the_deg3_dirichlet_problem_on_b4(self):
        u, facts = ball_input(2, 1 / 8, "solve")
        spec = LatticeSpec.ball_box(2, 1 / 8, 4.0, pad_sites=2)
        problem = DirichletProblem.on_ball(spec, 4.0, harmonic_polynomial(spec, "deg3"))
        expected = dirichlet_solve(problem)
        assert u.spec == spec and np.array_equal(u.values, expected.values)
        assert facts["h"] == 1 / 8 and facts["residual"] == residual(problem, expected)

    def test_fields_enter_the_solve(self, rng_seed):
        rng = np.random.default_rng(rng_seed)

        def fields(spec):
            v = LatticeFunction(spec, rng.uniform(-1.0, 1.0, spec.shape))
            return FieldData(v, (LatticeFunction.zeros(spec),) * spec.d)

        u, facts = ball_input(1, 1 / 16, "solve", fields=fields, tol=1e-9)
        plain, _ = ball_input(1, 1 / 16, "solve")
        assert facts["residual"] <= 1e-9 * 5.0  # measured with V: linear_j data has sup|g| < 5 on B_4
        assert not np.array_equal(u.values, plain.values)

    def test_polynomial_kinds_are_exact(self):
        u, facts = ball_input(2, 1 / 8, "mixed_jk")
        spec = LatticeSpec.ball_box(2, 1 / 8, 4.0, pad_sites=2)
        assert facts == {"h": 1 / 8, "residual": 0.0}
        assert np.array_equal(u.values, harmonic_polynomial(spec, "mixed_jk").values)

    def test_polynomial_residual_is_measured_on_b4(self):
        # at non-dyadic h the exact polynomial leaves rounding in P_h u
        u, facts = ball_input(2, 1 / 48, "deg3")
        problem = DirichletProblem.on_ball(u.spec, 4.0, u)
        assert facts["residual"] > 0.0
        assert facts["residual"] == residual(problem, u)

    def test_solve_applies_p_h_once(self, monkeypatch):
        calls = []
        measure = solver.residual

        def counting(p, u):
            calls.append(u)
            return measure(p, u)

        monkeypatch.setattr(solver, "residual", counting)
        u, facts = ball_input(2, 1 / 8, "solve")
        assert len(calls) == 1 and calls[0] is u
        assert facts["residual"] == measure(
            DirichletProblem.on_ball(u.spec, 4.0, harmonic_polynomial(u.spec, "deg3")), u)

    def test_large_d3_solve_fails_before_assembly(self, monkeypatch):
        def no_assembly(*args, **kwargs):
            raise AssertionError("assembled past the d = 3 limit")

        monkeypatch.setattr(solver, "stencil_matrix", no_assembly)
        start = time.perf_counter()
        with pytest.raises(SolverError, match="interior unknowns exceed"):
            ball_input(3, 1 / 8, "solve")
        assert time.perf_counter() - start < 1.0


class TestDirichletSolve:
    def test_reproduces_mixed_polynomial(self):
        spec = ball_spec(2, 1 / 16)
        g = harmonic_polynomial(spec, "mixed_jk")
        problem = DirichletProblem.on_ball(spec, 2.0, g)
        u = dirichlet_solve(problem, tol=1e-10)
        mask = problem.interior
        assert np.abs(u.values[mask] - g.values[mask]).max() <= 1e-10

    def test_constant_boundary_gives_constant(self):
        spec = ball_spec(2, 1 / 16)
        one = LatticeFunction(spec, np.ones(spec.shape))
        problem = DirichletProblem.on_ball(spec, 2.0, one)
        u = dirichlet_solve(problem, tol=1e-12)
        np.testing.assert_allclose(u.values[problem.interior], 1.0, rtol=1e-12)

    def test_reproduces_deg3_polynomial(self):
        spec = LatticeSpec.ball_box(2, 1 / 64, 2.0, pad_sites=2)
        g = harmonic_polynomial(spec, "deg3")
        problem = DirichletProblem.on_ball(spec, 2.0, g)
        u = dirichlet_solve(problem, tol=1e-9)
        mask = problem.interior
        scale = np.abs(g.values[mask]).max()
        assert np.abs(u.values[mask] - g.values[mask]).max() <= 1e-9 * scale

    def test_maximum_principle(self, rng_seed):
        rng = np.random.default_rng(rng_seed)
        spec = ball_spec(2, 1 / 12)
        data = LatticeFunction(spec, rng.uniform(-1.0, 2.0, spec.shape))
        problem = DirichletProblem.on_ball(spec, 2.0, data)
        u = dirichlet_solve(problem, tol=1e-10)
        g = problem.boundary_values[problem.boundary]
        assert u.values[problem.interior].min() >= g.min() - 1e-10
        assert u.values[problem.interior].max() <= g.max() + 1e-10

    def test_linearity(self, rng_seed):
        rng = np.random.default_rng(rng_seed)
        spec = ball_spec(2, 1 / 10)
        g1 = LatticeFunction(spec, rng.standard_normal(spec.shape))
        g2 = LatticeFunction(spec, rng.standard_normal(spec.shape))
        combo = LatticeFunction(spec, 2.0 * g1.values - 0.5 * g2.values)
        u1 = dirichlet_solve(DirichletProblem.on_ball(spec, 2.0, g1), tol=1e-10)
        u2 = dirichlet_solve(DirichletProblem.on_ball(spec, 2.0, g2), tol=1e-10)
        uc = dirichlet_solve(DirichletProblem.on_ball(spec, 2.0, combo), tol=1e-10)
        np.testing.assert_allclose(uc.values, 2.0 * u1.values - 0.5 * u2.values,
                                   atol=1e-9)

    def test_nontrivial_fields_residual_certificate(self, rng_seed):
        rng = np.random.default_rng(rng_seed)
        spec = ball_spec(2, 1 / 12)
        v = LatticeFunction(spec, rng.uniform(-1.0, 1.0, spec.shape))
        b = tuple(LatticeFunction(spec, rng.uniform(-1.0, 1.0, spec.shape))
                  for _ in range(2))
        fields = FieldData(v, b)
        g = harmonic_polynomial(spec, "mixed_jk")
        problem = DirichletProblem.on_ball(spec, 2.0, g, fields)
        u = dirichlet_solve(problem, tol=1e-8)
        assert residual(problem, u) <= 1e-8 * max(1.0, np.abs(g.values).max())

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_residual_is_interior_sup_of_schrodinger_apply(self, d, rng_seed):
        rng = np.random.default_rng(rng_seed + d)
        spec = ball_spec(d, 1 / 4, radius=1.5)
        fields = FieldData(LatticeFunction(spec, rng.uniform(-9.0, 9.0, spec.shape)),
                           tuple(LatticeFunction(spec, rng.uniform(-3.0, 3.0, spec.shape))
                                 for _ in range(d)))
        problem = DirichletProblem.on_ball(spec, 1.5, LatticeFunction(spec, spec.coords()[0]),
                                           fields)
        u = LatticeFunction(spec, rng.standard_normal(spec.shape))
        applied = schrodinger_apply(u, fields).values
        assert residual(problem, u) == np.abs(applied[problem.interior]).max()

    def test_impossible_tolerance_raises_with_residual(self):
        spec = ball_spec(2, 1 / 8)
        g = harmonic_polynomial(spec, "diff_squares")
        problem = DirichletProblem.on_ball(spec, 2.0, g)
        with pytest.raises(SolverError) as err:
            dirichlet_solve(problem, tol=1e-30)
        assert err.value.residual is not None and err.value.residual > 0

    def test_boundary_values_off_the_boundary_are_ignored(self, rng_seed):
        rng = np.random.default_rng(rng_seed)
        spec = ball_spec(2, 1 / 12)
        fields = FieldData(LatticeFunction(spec, rng.uniform(-1.0, 1.0, spec.shape)),
                           tuple(LatticeFunction(spec, rng.uniform(-1.0, 1.0, spec.shape))
                                 for _ in range(2)))
        clean = DirichletProblem.on_ball(spec, 2.0, harmonic_polynomial(spec, "deg3"), fields)
        dirty = np.where(clean.interior, np.nan, clean.boundary_values)
        noisy = DirichletProblem(spec, clean.interior, clean.boundary, dirty, fields)
        u = dirichlet_solve(clean, tol=1e-10)
        assert np.array_equal(dirichlet_solve(noisy, tol=1e-10).values, u.values)

    def test_deterministic(self):
        spec = ball_spec(2, 1 / 12)
        g = harmonic_polynomial(spec, "deg3")
        problem = DirichletProblem.on_ball(spec, 2.0, g)
        a = dirichlet_solve(problem, tol=1e-10)
        b = dirichlet_solve(problem, tol=1e-10)
        assert np.array_equal(a.values, b.values)

    def test_d3_limit_counts_interior_unknowns(self, monkeypatch):
        spec = LatticeSpec.ball_box(3, 1 / 2, 4.0, pad_sites=2)
        problem = DirichletProblem.on_ball(spec, 4.0, harmonic_polynomial(spec, "deg3"))
        unknowns = int(problem.interior.sum())
        monkeypatch.setattr(solver, "LU_MAX_UNKNOWNS_3D", unknowns - 1)
        with pytest.raises(SolverError, match=f"{unknowns} interior unknowns"):
            dirichlet_solve(problem)
        monkeypatch.setattr(solver, "LU_MAX_UNKNOWNS_3D", unknowns)
        stats = {}
        dirichlet_solve(problem, lu_stats=stats)
        assert stats["unknowns"] == unknowns
        # d = 2 solves never meet the limit
        monkeypatch.setattr(solver, "LU_MAX_UNKNOWNS_3D", 0)
        _, facts = ball_input(2, 1 / 8, "solve")
        assert facts["unknowns"] > 0


class TestLuOrdering:
    """The reordered, refined solve against SuperLU's default column ordering."""

    @pytest.mark.parametrize("d, singular", [(2, False), (2, True), (1, False)])
    def test_matches_the_default_ordering(self, d, singular, rng_seed, monkeypatch):
        spec = LatticeSpec.ball_box(d, 1 / 16, 4.0, pad_sites=2)
        data = harmonic_polynomial(spec, "deg3" if d >= 2 else "linear_j")
        # B != 0 makes the matrix non-symmetric, with the same sparsity pattern
        fields = singular_field_data(spec, 1.0, rng_seed) if singular else None
        problem = DirichletProblem.on_ball(spec, 4.0, data, fields)
        # dirichlet_solve raises unless its residual certificate holds
        u = dirichlet_solve(problem)
        monkeypatch.setattr(solver, "splu", lambda mat, **_: scipy.sparse.linalg.splu(mat))
        reference = dirichlet_solve(problem)
        sup = np.abs(reference.values).max()
        assert np.abs(u.values - reference.values).max() <= 1e-10 * sup

    def test_fill_stays_halved(self, monkeypatch):
        fills = []
        factor = solver.splu

        def recording(mat, **kwargs):
            lu = factor(mat, **kwargs)
            fills.append(lu.L.nnz + lu.U.nnz)
            return lu

        monkeypatch.setattr(solver, "splu", recording)
        _, stats = ball_input(2, 1 / 32, "solve")
        # 2,716,308 with MMD on A + A^T; SuperLU's default ordering gives 5,194,276
        assert len(fills) == 1 and fills[0] <= 3.0e6
        assert stats["fill_nnz"] == fills[0]
        assert stats["unknowns"] == 51429 and stats["h"] == 1 / 32
        assert 0.0 < stats["factor_s"] < 60.0


class TestRandomBump:
    def annulus(self, d=2):
        return AnnularRegion.origin(d, 0.5, 2.0)

    def test_support_inside_annulus(self):
        spec = LatticeSpec.ball_box(2, 1 / 32, 2.0, pad_sites=4)
        u = random_bump(spec, self.annulus(), seed=5)
        r = spec.radii()
        h = spec.h
        nz = u.values != 0.0
        assert np.all(r[nz] > 0.5 + 2 * h)
        assert np.all(r[nz] < 2.0 - 2 * h)

    def test_seed_determinism(self):
        spec = LatticeSpec.ball_box(2, 1 / 32, 2.0, pad_sites=4)
        a = random_bump(spec, self.annulus(), seed=123)
        b = random_bump(spec, self.annulus(), seed=123)
        c = random_bump(spec, self.annulus(), seed=124)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_site_count_matches_enumeration(self):
        h = 1 / 64
        spec = LatticeSpec.ball_box(2, h, 2.0, pad_sites=4)
        u = random_bump(spec, self.annulus(), seed=9)
        # oracle: window is positive strictly between the shrunk radii
        margin = max(2 * h, 0.05)
        a, b = 0.5 + margin, 2.0 - margin
        count = 0
        for n1 in range(spec.lo[0], spec.hi[0] + 1):
            for n2 in range(spec.lo[1], spec.hi[1] + 1):
                if a < np.hypot(h * n1, h * n2) < b:
                    count += 1
        assert int((u.values != 0).sum()) == count

    @pytest.mark.parametrize("d,h", [(1, 1 / 32), (1, 1 / 128), (2, 1 / 32), (2, 1 / 128),
                                     (3, 1 / 8), (3, 1 / 16)])
    def test_matches_full_grid_formula(self, d, h):
        spec = LatticeSpec.ball_box(d, h, 2.0, pad_sites=4)
        for seed in (0, 11, 2024):
            u = random_bump(spec, self.annulus(d), seed).values
            want = full_grid_bump(spec, self.annulus(d), seed)
            assert np.array_equal(u != 0.0, want != 0.0)
            assert np.abs(u - want).max() <= 1e-14 * np.abs(want).max()

    def test_cached_window_is_read_only(self):
        spec = LatticeSpec.ball_box(2, 1 / 32, 2.0, pad_sites=4)
        # the a, b and ramp random_bump uses at h = 1/32: margin 2h, ramp 0.2
        key = (spec, self.annulus(), 0.5625, 1.9375, 0.2)
        random_bump(spec, self.annulus(), seed=0)
        hits = _bump_window.cache_info().hits
        window = _bump_window(*key)
        assert _bump_window.cache_info().hits == hits + 1
        assert window is _bump_window(*key)
        with pytest.raises(ValueError, match="read-only"):
            window[0, 0] = 1.0

    def test_writing_a_bump_leaves_the_next_one_alone(self):
        spec = LatticeSpec.ball_box(2, 1 / 32, 2.0, pad_sites=4)
        u = random_bump(spec, self.annulus(), seed=3)
        before = u.values.copy()
        u.values[...] = 7.0
        assert np.array_equal(random_bump(spec, self.annulus(), seed=3).values, before)

    def test_threads_sharing_the_window_cache(self):
        spec = LatticeSpec.ball_box(2, 1 / 32, 2.0, pad_sites=4)
        seeds = range(16)
        serial = [random_bump(spec, self.annulus(), s).values for s in seeds]
        _bump_window.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(random_bump, spec, self.annulus(), s) for s in seeds]
                threaded = [f.result(timeout=60).values for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(a, b) for a, b in zip(serial, threaded))

    def test_region_too_thin(self):
        spec = LatticeSpec.ball_box(2, 1 / 4, 2.0, pad_sites=2)
        with pytest.raises(ValueError, match="too thin"):
            random_bump(spec, AnnularRegion.origin(2, 1.0, 1.5), seed=0)


class TestProblemValidation:
    def test_masks_must_not_overlap(self):
        spec = LatticeSpec(1, 0.5, (-4,), (4,))
        m = np.zeros(spec.shape, dtype=bool)
        m[3:6] = True
        with pytest.raises(ValueError, match="overlap"):
            DirichletProblem(spec, m, m, np.zeros(spec.shape))

    def test_uncovered_neighbor_rejected(self):
        spec = LatticeSpec(1, 0.5, (-4,), (4,))
        interior = np.zeros(spec.shape, dtype=bool)
        interior[4] = True
        boundary = np.zeros(spec.shape, dtype=bool)
        boundary[3] = True  # right neighbor missing
        with pytest.raises(ValueError, match="uncovered"):
            DirichletProblem(spec, interior, boundary, np.zeros(spec.shape))
