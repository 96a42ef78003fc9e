"""Dirichlet solves, closed-form harmonic polynomials, seeded bumps."""

import gc
import itertools
import math
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from carlat import solver
from carlat import (
    BallRegion,
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
    rounding_floor,
    schrodinger_apply,
)
from carlat._kernels import overlap_slices
from carlat.conjugate import CARLEMAN_ANNULUS, _bump_window
from carlat.experiments import singular_field_data
from carlat.lattice import schrodinger_stencil


def ball_spec(d, h, radius=2.0):
    return LatticeSpec.ball_box(d, h, radius, pad_sites=2)


def box_matrix(spec, offsets, coeffs):
    """The CSR matrix M on the C-ordered sites of the whole box with
    M @ f.ravel() == apply_stencil_var(f, offsets, coeffs).ravel(), assembled
    offset by offset through COO."""
    sites = np.arange(math.prod(spec.shape)).reshape(spec.shape)
    rows, cols, vals = [], [], []
    for off, coeff in zip(offsets, coeffs):
        pair = overlap_slices(spec.shape, off)
        if pair is None:
            continue
        dst, src = pair
        rows.append(sites[dst].ravel())
        cols.append(sites[src].ravel())
        vals.append(coeff[dst].ravel())
    return scipy.sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(sites.size, sites.size))


def site_list_prolongation(sites, even):
    """Linear interpolation from the ``even`` rows of ``sites`` (lattice indices,
    one row per unknown) to all of them, assembled offset by offset through
    COO over a numbering of the padded bounding box."""
    lo = sites.min(axis=0) - 1
    number = np.full(tuple(sites.max(axis=0) - lo + 2), -1)
    number[tuple((sites - lo).T)] = np.arange(len(sites))
    coarse = sites[even] - lo
    cols = np.arange(len(coarse))
    rows, col_parts, vals = [], [], []
    for off in itertools.product((-1, 0, 1), repeat=sites.shape[1]):
        fine = number[tuple((coarse + off).T)]
        hit = fine >= 0
        rows.append(fine[hit])
        col_parts.append(cols[hit])
        vals.append(np.full(hit.sum(), math.prod(1 - abs(o) / 2 for o in off)))
    return scipy.sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(col_parts))),
        shape=(len(sites), len(coarse)))


def full_grid_bump(spec, seed, modes=6):
    """random_bump's defining formula, one cos pass per mode on the full coordinate mesh."""
    region = CARLEMAN_ANNULUS
    margin = max(2 * spec.h, 0.05)
    a, b = region.inner + margin, region.outer - margin
    ramp = min(0.25 * (b - a), 0.2)
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(modes)
    freqs = rng.uniform(-1.0, 1.0, size=(modes, spec.d)) * (2 * np.pi / region.width)
    phases = rng.uniform(0.0, 2 * np.pi, size=modes)

    def smoothstep(t):
        t = np.clip(t, 0.0, 1.0)
        return t ** 3 * (10.0 + t * (-15.0 + 6.0 * t))

    x = spec.coords()
    r = np.sqrt((x ** 2).sum(axis=0))
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

        u, facts = ball_input(1, 1 / 16, "solve", fields=fields)
        plain, _ = ball_input(1, 1 / 16, "solve")
        assert facts["residual"] <= 1e-9 * 5.0  # measured with V: linear_j data has sup|g| < 5 on B_4
        assert not np.array_equal(u.values, plain.values)

    def test_polynomial_kinds_are_exact(self):
        u, facts = ball_input(2, 1 / 8, "mixed_jk")
        spec = LatticeSpec.ball_box(2, 1 / 8, 4.0, pad_sites=2)
        bound = solver.FLOOR_MULTIPLE * rounding_floor(DirichletProblem.on_ball(spec, 4.0, u), u)
        assert facts == {"h": 1 / 8, "residual": 0.0, "residual_bound": bound}
        assert np.array_equal(u.values, harmonic_polynomial(spec, "mixed_jk").values)

    def test_polynomial_residual_is_measured_on_b4(self):
        # at non-dyadic h the exact polynomial leaves rounding in P_h u
        u, facts = ball_input(2, 1 / 48, "deg3")
        problem = DirichletProblem.on_ball(u.spec, 4.0, u)
        assert facts["residual"] > 0.0
        assert facts["residual"] == residual(problem, u)

    @pytest.mark.parametrize("h", [1 / 1024, 1 / 4096])
    def test_fine_d1_solve_meets_its_certificate(self, h):
        # the rounding floor of P_h u grows as h^-2: a residual target that
        # stays fixed as h shrinks rejects these solves, exact as they are
        u, facts = ball_input(1, h, "solve")
        x1 = harmonic_polynomial(u.spec, "linear_j")
        problem = DirichletProblem.on_ball(u.spec, 4.0, x1)
        assert facts["residual"] <= facts["residual_bound"]
        error = np.abs(u.values - x1.values)[problem.interior].max()
        assert error <= 1e-12 * np.abs(u.values).max()

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
        # the limit guards the LU, the path of solves with fields
        def no_assembly(*args, **kwargs):
            raise AssertionError("assembled past the d = 3 limit")

        monkeypatch.setattr(solver, "_interior_rows", no_assembly)
        start = time.perf_counter()
        with pytest.raises(SolverError, match="interior unknowns exceed"):
            ball_input(3, 1 / 8, "solve", fields=FieldData.zero)
        assert time.perf_counter() - start < 1.0

    def test_d3_solve_past_the_lu_limit_meets_its_certificate(self):
        u, facts = ball_input(3, 1 / 8, "solve")
        assert facts["unknowns"] == 137059 > solver.LU_MAX_UNKNOWNS_3D
        assert facts["levels"] >= 1 and 0 < facts["iterations"] < 50
        # deg3 data is discrete harmonic, so the solution is the data itself
        data = harmonic_polynomial(u.spec, "deg3")
        problem = DirichletProblem.on_ball(u.spec, 4.0, data)
        scale = np.abs(data.values[problem.boundary]).max()
        assert facts["residual"] == residual(problem, u) <= 1e-10 * scale
        assert np.abs(u.values - data.values)[problem.interior].max() <= 1e-9 * scale


class TestDirichletSolve:
    def test_reproduces_mixed_polynomial(self):
        spec = ball_spec(2, 1 / 16)
        g = harmonic_polynomial(spec, "mixed_jk")
        problem = DirichletProblem.on_ball(spec, 2.0, g)
        u = dirichlet_solve(problem)
        mask = problem.interior
        assert np.abs(u.values[mask] - g.values[mask]).max() <= 1e-10

    def test_constant_boundary_gives_constant(self):
        spec = ball_spec(2, 1 / 16)
        one = LatticeFunction(spec, np.ones(spec.shape))
        problem = DirichletProblem.on_ball(spec, 2.0, one)
        u = dirichlet_solve(problem)
        np.testing.assert_allclose(u.values[problem.interior], 1.0, rtol=1e-12)

    def test_reproduces_deg3_polynomial(self):
        spec = LatticeSpec.ball_box(2, 1 / 64, 2.0, pad_sites=2)
        g = harmonic_polynomial(spec, "deg3")
        problem = DirichletProblem.on_ball(spec, 2.0, g)
        u = dirichlet_solve(problem)
        mask = problem.interior
        scale = np.abs(g.values[mask]).max()
        assert np.abs(u.values[mask] - g.values[mask]).max() <= 1e-9 * scale

    def test_maximum_principle(self, rng_seed):
        rng = np.random.default_rng(rng_seed)
        spec = ball_spec(2, 1 / 12)
        data = LatticeFunction(spec, rng.uniform(-1.0, 2.0, spec.shape))
        problem = DirichletProblem.on_ball(spec, 2.0, data)
        u = dirichlet_solve(problem)
        g = problem.boundary_values[problem.boundary]
        assert u.values[problem.interior].min() >= g.min() - 1e-10
        assert u.values[problem.interior].max() <= g.max() + 1e-10

    def test_linearity(self, rng_seed):
        rng = np.random.default_rng(rng_seed)
        spec = ball_spec(2, 1 / 10)
        g1 = LatticeFunction(spec, rng.standard_normal(spec.shape))
        g2 = LatticeFunction(spec, rng.standard_normal(spec.shape))
        combo = LatticeFunction(spec, 2.0 * g1.values - 0.5 * g2.values)
        u1 = dirichlet_solve(DirichletProblem.on_ball(spec, 2.0, g1))
        u2 = dirichlet_solve(DirichletProblem.on_ball(spec, 2.0, g2))
        uc = dirichlet_solve(DirichletProblem.on_ball(spec, 2.0, combo))
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
        u = dirichlet_solve(problem)
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

    @pytest.mark.parametrize("d, h", [(1, 1 / 12), (2, 1 / 12), (3, 1 / 3)])
    def test_floor_norm_is_the_largest_row_sum(self, d, h, rng_seed):
        # ||P_h||_inf = 4d/h^2 without fields: the row sums of zero fields
        spec = ball_spec(d, h)
        u = LatticeFunction(spec, np.random.default_rng(rng_seed).standard_normal(spec.shape))
        plain = DirichletProblem.on_ball(spec, 2.0, u)
        zero = DirichletProblem.on_ball(spec, 2.0, u, FieldData.zero(spec))
        eps = np.finfo(float).eps
        sup = np.abs(u.values[plain.interior | plain.boundary]).max()
        assert rounding_floor(plain, u) == eps * 4 * d / h ** 2 * sup
        assert rounding_floor(zero, u) == pytest.approx(rounding_floor(plain, u), rel=1e-15)

    def test_impossible_tolerance_raises_with_residual(self, monkeypatch):
        # no rounding floor admitted: only an exact zero residual would pass
        monkeypatch.setattr(solver, "FLOOR_MULTIPLE", 0.0)
        spec = ball_spec(2, 1 / 8)
        g = harmonic_polynomial(spec, "diff_squares")
        problem = DirichletProblem.on_ball(spec, 2.0, g)
        with pytest.raises(SolverError, match="certificate bound 0.000e[+]00") as err:
            dirichlet_solve(problem)
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
        u = dirichlet_solve(clean)
        assert np.array_equal(dirichlet_solve(noisy).values, u.values)

    def test_deterministic(self):
        spec = ball_spec(2, 1 / 12)
        g = harmonic_polynomial(spec, "deg3")
        problem = DirichletProblem.on_ball(spec, 2.0, g)
        a = dirichlet_solve(problem)
        b = dirichlet_solve(problem)
        assert np.array_equal(a.values, b.values)

    def test_d3_limit_counts_interior_unknowns(self, monkeypatch):
        spec = LatticeSpec.ball_box(3, 1 / 2, 4.0, pad_sites=2)
        data = harmonic_polynomial(spec, "deg3")
        problem = DirichletProblem.on_ball(spec, 4.0, data, FieldData.zero(spec))
        unknowns = int(problem.interior.sum())
        monkeypatch.setattr(solver, "LU_MAX_UNKNOWNS_3D", unknowns - 1)
        with pytest.raises(SolverError, match=f"{unknowns} interior unknowns"):
            dirichlet_solve(problem)
        # field-free solves take the multigrid path, which the limit does not guard
        stats = {}
        dirichlet_solve(DirichletProblem.on_ball(spec, 4.0, data), stats=stats)
        assert stats["unknowns"] == unknowns and "levels" in stats
        monkeypatch.setattr(solver, "LU_MAX_UNKNOWNS_3D", unknowns)
        stats = {}
        dirichlet_solve(problem, stats=stats)
        assert stats["unknowns"] == unknowns and "fill_nnz" in stats
        # d = 2 solves never meet the limit
        monkeypatch.setattr(solver, "LU_MAX_UNKNOWNS_3D", 0)
        _, facts = ball_input(2, 1 / 8, "solve", fields=FieldData.zero)
        assert facts["unknowns"] > 0


class TestInteriorRows:
    """-P_h's interior rows against the whole-box matrix, assembled through COO."""

    @pytest.mark.parametrize("d, lo, hi", [(1, (-5,), (6,)),
                                           (2, (-3, -2), (4, 3)),
                                           (3, (-2, -1, -2), (2, 3, 1))])
    @pytest.mark.parametrize("with_fields", [False, True])
    def test_equal_the_negated_box_rows(self, d, lo, hi, with_fields, rng_seed):
        rng = np.random.default_rng(rng_seed + d)
        spec = LatticeSpec(d, 1 / 3, lo, hi)
        fields = None
        if with_fields:
            fields = FieldData(LatticeFunction(spec, rng.uniform(-9.0, 9.0, spec.shape)),
                               tuple(LatticeFunction(spec, rng.uniform(-3.0, 3.0, spec.shape))
                                     for _ in range(d)))
        # every site one step from the box edge is interior, the edge is boundary
        interior = np.zeros(spec.shape, dtype=bool)
        interior[tuple(slice(1, -1) for _ in range(d))] = True
        problem = DirichletProblem(spec, interior, ~interior,
                                   rng.standard_normal(spec.shape), fields)
        rows = solver._interior_rows(problem)
        expected = -box_matrix(spec, *schrodinger_stencil(spec, fields))[
            np.flatnonzero(interior)]
        assert rows.shape == expected.shape == (interior.sum(), interior.size)
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(rows, part), getattr(expected, part))

    @pytest.mark.parametrize("d, h", [(1, 1 / 16), (2, 1 / 8), (3, 1 / 4)])
    def test_equal_the_negated_box_rows_on_b4(self, d, h, rng_seed):
        spec = LatticeSpec.ball_box(d, h, 4.0, pad_sites=2)
        data = harmonic_polynomial(spec, "deg3" if d >= 2 else "linear_j")
        fields = singular_field_data(spec, 0.3, rng_seed)
        for problem in (DirichletProblem.on_ball(spec, 4.0, data),
                        DirichletProblem.on_ball(spec, 4.0, data, fields)):
            rows = solver._interior_rows(problem)
            expected = -box_matrix(spec, *schrodinger_stencil(spec, problem.fields))[
                np.flatnonzero(problem.interior)]
            for part in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(rows, part), getattr(expected, part))

    def test_d3_solve_allocates_less_than_32_box_arrays(self):
        # the whole-box assembly of P_h peaked at 59 box arrays here
        spec = LatticeSpec.ball_box(3, 1 / 8, 4.0, pad_sites=2)
        problem = DirichletProblem.on_ball(spec, 4.0, harmonic_polynomial(spec, "deg3"))
        tracemalloc.start()
        try:
            dirichlet_solve(problem)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * problem.boundary_values.nbytes


class TestProlongation:
    """Every level's R = P^T against the transpose of the site-list assembly
    of P it replaced."""

    @pytest.mark.parametrize("d, lo, hi, radius", [
        (1, (-40,), (37,), 9.0), (1, (-37,), (40,), 9.0),
        (2, (-10, -9), (9, 10), 2.4), (2, (-9, -10), (11, 8), 2.4),
        (3, (-6, -6, -5), (5, 6, 6), 1.4), (3, (-5, -6, -7), (6, 5, 4), 1.4)])
    def test_equals_the_site_list_assembly_on_every_level(self, d, lo, hi, radius, monkeypatch):
        # a ball cut by the box less its edge layer: coarse sites on the cut
        # have fine neighbours that are not unknowns
        monkeypatch.setattr(solver, "COARSEST_UNKNOWNS", 1)
        spec = LatticeSpec(d, 1 / 4, lo, hi)
        interior = np.zeros(spec.shape, dtype=bool)
        interior[tuple(slice(1, -1) for _ in range(d))] = True
        interior &= BallRegion(radius).mask(spec)
        problem = DirichletProblem(spec, interior, ~interior, np.zeros(spec.shape))
        a = solver._interior_rows(problem)[:, interior.ravel()]
        levels, _ = solver._hierarchy(interior, spec.lo, a)
        sites = np.argwhere(interior) + spec.lo
        assert len(levels) >= 3
        for _, r, _ in levels:
            even = (sites % 2 == 0).all(axis=1)
            expected = site_list_prolongation(sites, even).T.tocsr()
            assert r.format == "csr" and r.shape == expected.shape
            for part in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(r, part), getattr(expected, part))
            sites = sites[even] // 2

    def test_only_the_coarsest_matrix_is_converted_to_csc(self, monkeypatch):
        # the levels keep R in CSR form and multiply R a R^T as CSR products,
        # so no level's matrix is copied to CSC; the coarsest one is, for its LU
        monkeypatch.setattr(solver, "COARSEST_UNKNOWNS", 100)
        spec = LatticeSpec.ball_box(2, 1 / 16, 4.0, pad_sites=2)
        problem = DirichletProblem.on_ball(spec, 4.0, harmonic_polynomial(spec, "deg3"))
        a = solver._interior_rows(problem)[:, problem.interior.ravel()]
        shapes = []
        tocsc = scipy.sparse.csr_matrix.tocsc

        def recording(self, copy=False):
            shapes.append(self.shape)
            return tocsc(self, copy=copy)

        monkeypatch.setattr(scipy.sparse.csr_matrix, "tocsc", recording)
        levels, coarsest = solver._hierarchy(problem.interior, spec.lo, a)
        assert len(levels) >= 3
        assert shapes == [(coarsest.shape[0],) * 2]


class TestLuOrdering:
    """The reordered, refined solve against SuperLU's default column ordering."""

    @pytest.mark.parametrize("d, singular", [(2, False), (2, True), (1, False)])
    def test_matches_the_default_ordering(self, d, singular, rng_seed, monkeypatch):
        spec = LatticeSpec.ball_box(d, 1 / 16, 4.0, pad_sites=2)
        data = harmonic_polynomial(spec, "deg3" if d >= 2 else "linear_j")
        # B != 0 makes the matrix non-symmetric, with the same sparsity pattern;
        # zero fields keep the symmetric matrix on the LU path
        fields = singular_field_data(spec, 1.0, rng_seed) if singular else FieldData.zero(spec)
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
        # fields keep the solve on the LU path; at singular-potential's default
        # mu0 the fill is the one the field-free matrix had
        _, stats = ball_input(2, 1 / 32, "solve",
                              fields=lambda spec: singular_field_data(spec, 0.05, 0))
        # 2,716,308 with MMD on A + A^T; SuperLU's default ordering gives 5,194,276
        assert len(fills) == 1 and fills[0] <= 3.0e6
        assert stats["fill_nnz"] == fills[0]
        assert stats["unknowns"] == 51429 and stats["h"] == 1 / 32
        assert 0.0 < stats["factor_s"] < 60.0

    def test_each_solve_factors_once_through_solver_splu(self, monkeypatch):
        # the benchmark tracer's solver.lu.* metrics wrap this name
        shapes = []
        factor = solver.splu

        def counting(mat, **kwargs):
            shapes.append(mat.shape[0])
            return factor(mat, **kwargs)

        monkeypatch.setattr(solver, "splu", counting)
        spec = LatticeSpec.ball_box(2, 1 / 32, 4.0, pad_sites=2)
        data = harmonic_polynomial(spec, "deg3")
        stats = {}
        dirichlet_solve(DirichletProblem.on_ball(spec, 4.0, data), stats=stats)
        # the multigrid factors its coarsest level only
        assert stats["levels"] == 2 and len(shapes) == 1
        assert shapes[0] <= solver.COARSEST_UNKNOWNS < stats["unknowns"]
        dirichlet_solve(DirichletProblem.on_ball(spec, 4.0, data, FieldData.zero(spec)), stats=stats)
        assert shapes[1:] == [stats["unknowns"]]


class TestStencilMemory:
    def test_field_free_residual_allocates_less_than_3_box_arrays(self):
        # P_h's 2d + 1 coefficients filled as box arrays took this to 9
        spec = LatticeSpec.ball_box(3, 1 / 8, 4.0, pad_sites=2)
        data = harmonic_polynomial(spec, "deg3")
        problem = DirichletProblem.on_ball(spec, 4.0, data)
        tracemalloc.start()
        try:
            residual(problem, data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * data.values.nbytes


class TestMultigrid:
    """Field-free solves: conjugate gradients preconditioned with a multigrid V-cycle."""

    @pytest.mark.parametrize("d, h, levels", [(1, 1 / 64, 0), (2, 1 / 32, 2), (3, 1 / 4, 1)])
    def test_matches_the_lu(self, d, h, levels):
        spec = LatticeSpec.ball_box(d, h, 4.0, pad_sites=2)
        data = harmonic_polynomial(spec, "deg3" if d >= 2 else "linear_j")
        stats = {}
        u = dirichlet_solve(DirichletProblem.on_ball(spec, 4.0, data), stats=stats)
        # zero fields give the same operator, solved by the LU
        reference = dirichlet_solve(DirichletProblem.on_ball(spec, 4.0, data, FieldData.zero(spec)))
        assert stats["levels"] == levels and 0 < stats["iterations"] < 20
        sup = np.abs(reference.values).max()
        assert np.abs(u.values - reference.values).max() <= 1e-10 * sup

    def test_impossible_tolerance_with_levels_raises_with_residual(self, monkeypatch):
        monkeypatch.setattr(solver, "FLOOR_MULTIPLE", 0.0)
        spec = LatticeSpec.ball_box(2, 1 / 32, 4.0, pad_sites=2)
        problem = DirichletProblem.on_ball(spec, 4.0, harmonic_polynomial(spec, "deg3"))
        stats = {}
        start = time.perf_counter()
        with pytest.raises(SolverError) as err:
            dirichlet_solve(problem, stats=stats)
        assert time.perf_counter() - start < 5.0
        assert stats["levels"] >= 1
        assert err.value.residual is not None and err.value.residual == stats["residual"] > 0

    def test_repeated_solves_hold_no_memory(self):
        # without the cyclic collector, levels caught in a reference cycle
        # would stay allocated after each solve
        spec = LatticeSpec.ball_box(2, 1 / 32, 4.0, pad_sites=2)
        problem = DirichletProblem.on_ball(spec, 4.0, harmonic_polynomial(spec, "deg3"))
        gc.disable()
        tracemalloc.start()
        try:
            dirichlet_solve(problem)
            one, _ = tracemalloc.get_traced_memory()
            for _ in range(4):
                dirichlet_solve(problem)
            five, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        assert five - one < 2 << 20


class TestRandomBump:
    def test_support_inside_annulus(self):
        spec = LatticeSpec.ball_box(2, 1 / 32, 2.0, pad_sites=4)
        u = random_bump(spec, seed=5)
        r = spec.radii()
        h = spec.h
        nz = u.values != 0.0
        assert np.all(r[nz] > 0.5 + 2 * h)
        assert np.all(r[nz] < 2.0 - 2 * h)

    def test_seed_determinism(self):
        spec = LatticeSpec.ball_box(2, 1 / 32, 2.0, pad_sites=4)
        a = random_bump(spec, seed=123)
        b = random_bump(spec, seed=123)
        c = random_bump(spec, seed=124)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_site_count_matches_enumeration(self):
        h = 1 / 64
        spec = LatticeSpec.ball_box(2, h, 2.0, pad_sites=4)
        u = random_bump(spec, seed=9)
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
            u = random_bump(spec, seed).values
            want = full_grid_bump(spec, seed)
            assert np.array_equal(u != 0.0, want != 0.0)
            assert np.abs(u - want).max() <= 1e-14 * np.abs(want).max()

    def test_cached_window_is_read_only(self):
        spec = LatticeSpec.ball_box(2, 1 / 32, 2.0, pad_sites=4)
        # the a, b and ramp random_bump uses at h = 1/32: margin 2h, ramp 0.2
        key = (spec, 0.5625, 1.9375, 0.2)
        random_bump(spec, seed=0)
        hits = _bump_window.cache_info().hits
        window = _bump_window(*key)
        assert _bump_window.cache_info().hits == hits + 1
        assert window is _bump_window(*key)
        with pytest.raises(ValueError, match="read-only"):
            window[0, 0] = 1.0

    def test_one_bump_allocates_less_than_one_and_a_half_box_arrays(self):
        # the wave is divided, exponentiated and windowed in place; the
        # window is cached by the first call
        spec = LatticeSpec.ball_box(2, 1 / 128, 2.0, pad_sites=4)
        random_bump(spec, seed=0)
        tracemalloc.start()
        try:
            u = random_bump(spec, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * u.values.nbytes

    def test_writing_a_bump_leaves_the_next_one_alone(self):
        spec = LatticeSpec.ball_box(2, 1 / 32, 2.0, pad_sites=4)
        u = random_bump(spec, seed=3)
        before = u.values.copy()
        u.values[...] = 7.0
        assert np.array_equal(random_bump(spec, seed=3).values, before)

    def test_threads_sharing_the_window_cache(self):
        spec = LatticeSpec.ball_box(2, 1 / 32, 2.0, pad_sites=4)
        seeds = range(16)
        serial = [random_bump(spec, s).values for s in seeds]
        _bump_window.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(random_bump, spec, s) for s in seeds]
                threaded = [f.result(timeout=60).values for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(a, b) for a, b in zip(serial, threaded))

    def test_region_too_thin(self):
        # the annulus 1/2 < |x| < 2 is 1.5 wide, under 6h for h > 1/4
        spec = LatticeSpec.ball_box(2, 0.26, 2.0, pad_sites=4)
        with pytest.raises(ValueError, match="too thin"):
            random_bump(spec, seed=0)

    def test_h_one_quarter_is_accepted(self):
        u = random_bump(LatticeSpec.ball_box(2, 1 / 4, 2.0, pad_sites=4), seed=0)
        assert (u.values != 0.0).any()


class TestProblemValidation:
    def test_on_ball_allocates_no_stencil_coefficients(self):
        # the coverage check reads P_h's offsets only; its 2d + 1 coefficient
        # arrays would be 7 box arrays here
        spec = LatticeSpec.ball_box(3, 1 / 8, 4.0, pad_sites=2)
        data = harmonic_polynomial(spec, "deg3")
        tracemalloc.start()
        try:
            DirichletProblem.on_ball(spec, 4.0, data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * data.values.nbytes

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

    @pytest.mark.parametrize("values", [
        np.zeros((9, 1)), np.zeros(8), np.zeros(9, dtype=complex), np.zeros(9, dtype=object),
        [0.0] * 9])
    def test_boundary_values_must_be_a_real_array_on_the_box(self, values):
        # a wrong shape raised IndexError, and complex data were accepted
        spec = LatticeSpec(1, 0.5, (-4,), (4,))
        interior = np.zeros(spec.shape, dtype=bool)
        interior[3:6] = True
        boundary = np.zeros(spec.shape, dtype=bool)
        boundary[[2, 6]] = True
        DirichletProblem(spec, interior, boundary, np.zeros(spec.shape))
        with pytest.raises(ValueError, match="boundary_values must be a real array on the box"):
            DirichletProblem(spec, interior, boundary, values)
