"""Difference operators, norms, the Schrodinger operator, and coarsening."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carlat import (
    CARLEMAN_ANNULUS,
    AnnularRegion,
    BallRegion,
    FieldData,
    LatticeFunction,
    LatticeSpec,
    coarsen,
    diff,
    inner_product,
    l2_norm,
    laplacian,
    schrodinger_apply,
)
from carlat.lattice import (MAX_SITES, dilate, schrodinger_stencil, shift_values,
                            stencil_offsets, stencil_rows, unit_offset)
from carlat.solver import harmonic_polynomial


def interior(values, margin=1):
    sl = tuple(slice(margin, s - margin) for s in values.shape)
    return values[sl]


def test_box_size_guard_bounds():
    # no site table is allocated either way
    assert LatticeSpec(1, 1.0, (0,), (MAX_SITES - 1,)).shape == (MAX_SITES,)
    with pytest.raises(ValueError, match=f"{MAX_SITES + 1} sites"):
        LatticeSpec(1, 1.0, (0,), (MAX_SITES,))


class TestDiff:
    def test_constant_annihilated(self):
        spec = LatticeSpec(2, 0.5, (-3, -3), (3, 3))
        f = LatticeFunction(spec, np.ones(spec.shape))
        for mode in ("forward", "backward", "symmetric"):
            for j in (1, 2):
                assert np.all(interior(diff(f, j, mode).values) == 0.0)

    def test_linear_forward_is_h(self):
        h = 0.25
        spec = LatticeSpec(1, h, (-8,), (8,))
        f = harmonic_polynomial(spec, "linear_j")
        out = diff(f, 1, "forward").values
        np.testing.assert_allclose(interior(out), h, rtol=0, atol=0)

    def test_symmetric_square_example(self):
        # f(n) = n^2 at h=1: symmetric difference at n=3 is (16-4)/2 = 6
        spec = LatticeSpec(1, 1.0, (0,), (6,))
        f = LatticeFunction(spec, (np.arange(0, 7) ** 2).astype(float))
        assert diff(f, 1, "symmetric").at((3,)) == 6.0

    def test_direction_out_of_range(self):
        spec = LatticeSpec(2, 1.0, (0, 0), (3, 3))
        f = LatticeFunction.zeros(spec)
        with pytest.raises(ValueError, match="direction out of range"):
            diff(f, 3)
        with pytest.raises(ValueError, match="direction out of range"):
            diff(f, 0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_unit_offset_takes_directions_one_to_d(self, d):
        for j in range(1, d + 1):
            assert np.array_equal(unit_offset(d, j), np.eye(d, dtype=np.int64)[j - 1])
        for j in (0, -1, d + 1):
            with pytest.raises(ValueError, match="direction out of range"):
                unit_offset(d, j)

    def test_unknown_mode(self):
        spec = LatticeSpec(1, 1.0, (0,), (3,))
        with pytest.raises(ValueError, match="mode"):
            diff(LatticeFunction.zeros(spec), 1, "sideways")


class TestLaplacian:
    def test_mixed_monomial_harmonic(self):
        spec = LatticeSpec(2, 1.0, (-5, -5), (5, 5))
        f = harmonic_polynomial(spec, "mixed_jk")
        assert np.all(interior(laplacian(f).values) == 0.0)

    def test_difference_of_squares_harmonic(self):
        spec = LatticeSpec(2, 0.5, (-6, -6), (6, 6))
        f = harmonic_polynomial(spec, "diff_squares")
        np.testing.assert_allclose(interior(laplacian(f).values), 0.0, atol=1e-14)

    def test_square_gives_2h2(self):
        h = 0.25
        spec = LatticeSpec(1, h, (-8,), (8,))
        f = LatticeFunction(spec, spec.coords()[0] ** 2)
        np.testing.assert_allclose(interior(laplacian(f).values), 2 * h * h,
                                   rtol=1e-13)

    def test_backward_forward_composition_is_laplacian(self):
        # D_-j D_+j f equals the per-direction second difference, exactly
        # on integer valued input
        rng = np.random.default_rng(7)
        spec = LatticeSpec(2, 0.5, (-4, -4), (4, 4))
        f = LatticeFunction(spec, rng.integers(-9, 10, spec.shape).astype(float))
        total = np.zeros(spec.shape)
        for j in (1, 2):
            total += diff(diff(f, j, "forward"), j, "backward").values
        assert np.array_equal(interior(total), interior(laplacian(f).values))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2 ** 31))
def test_second_difference_identity_property(size, seed):
    rng = np.random.default_rng(seed)
    spec = LatticeSpec(1, 1.0, (0,), (size,))
    f = LatticeFunction(spec, rng.integers(-50, 51, spec.shape).astype(float))
    lhs = diff(diff(f, 1, "forward"), 1, "backward").values
    # zero extension makes the identity exact away from the edges only
    assert np.array_equal(interior(lhs, 1), interior(laplacian(f).values, 1))


class TestProductRule:
    def test_cutoff_expansion_exact(self):
        # Lap(theta f) - theta Lap f splits into the gradient coupling and
        # per-direction second-difference terms, an exact identity
        rng = np.random.default_rng(11)
        spec = LatticeSpec(2, 0.25, (-8, -8), (8, 8))
        f = rng.standard_normal(spec.shape)
        theta = rng.standard_normal(spec.shape)
        ff = LatticeFunction(spec, f)
        lhs = laplacian(LatticeFunction(spec, theta * f)).values - theta * laplacian(ff).values
        rhs = np.zeros(spec.shape)
        for j in (1, 2):
            e = np.zeros(2, dtype=int)
            e[j - 1] = 1
            tp = shift_values(theta, e) - theta
            tm = shift_values(theta, -e) - theta
            rhs += tp * (shift_values(f, e) - shift_values(f, -e))
            rhs += (tm + tp) * shift_values(f, -e)
        scale = np.abs(lhs).max()
        assert np.abs(interior(lhs - rhs)).max() <= 1e-13 * scale


class TestSchrodinger:
    def test_stencil_offsets_are_the_stencil_order(self):
        assert stencil_offsets(2).tolist() == [[1, 0], [-1, 0], [0, 1], [0, -1], [0, 0]]
        for d in (1, 2, 3):
            spec = LatticeSpec(d, 0.5, (-2,) * d, (2,) * d)
            assert np.array_equal(schrodinger_stencil(spec, None)[0], stencil_offsets(d))

    def test_constant_coefficients_are_read_only_numbers(self, rng_seed):
        # without fields each of the 2d + 1 = 7 coefficients is one number
        # broadcast over the box, not a filled box array
        spec = LatticeSpec.ball_box(3, 1 / 8, 4.0, pad_sites=2)
        tracemalloc.start()
        try:
            coeffs = schrodinger_stencil(spec, None)[1]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 8 * math.prod(spec.shape)
        h = spec.h
        for c, value in zip(coeffs, [1 / h ** 2] * 6 + [-6 / h ** 2]):
            assert c.shape == spec.shape and c.strides == (0, 0, 0)
            assert not c.flags.writeable and c[0, 0, 0] == value
        # with fields, B_j enters +e_j's coefficient and the centre only
        rng = np.random.default_rng(rng_seed)
        small = LatticeSpec(2, 0.5, (-3, -3), (3, 3))
        fields = FieldData(LatticeFunction(small, rng.standard_normal(small.shape)),
                           tuple(LatticeFunction(small, rng.standard_normal(small.shape))
                                 for _ in range(2)))
        coeffs = schrodinger_stencil(small, fields)[1]
        assert not any(c.flags.writeable for c in coeffs)
        assert [c.strides == (0, 0) for c in coeffs] == [False, True, False, True, False]

    def test_harmonic_with_zero_fields(self):
        spec = LatticeSpec(2, 0.5, (-5, -5), (5, 5))
        f = harmonic_polynomial(spec, "mixed_jk")
        out = schrodinger_apply(f, FieldData.zero(spec))
        np.testing.assert_allclose(interior(out.values), 0.0, atol=1e-12)

    def test_potential_only(self):
        spec = LatticeSpec(2, 0.5, (-4, -4), (4, 4))
        one = LatticeFunction(spec, np.ones(spec.shape))
        fields = FieldData(one, (LatticeFunction.zeros(spec),) * 2)
        out = schrodinger_apply(one, fields)
        np.testing.assert_allclose(interior(out.values), 1.0, rtol=0, atol=0)

    def test_drift_on_linear_function(self):
        # d=1, h=0.5, B=2, V=0, f = h n: h^-1 * 2 * (f(n+h)-f(n)) = 2
        h = 0.5
        spec = LatticeSpec(1, h, (-6,), (6,))
        f = harmonic_polynomial(spec, "linear_j")
        fields = FieldData(LatticeFunction.zeros(spec),
                           (LatticeFunction(spec, np.full(spec.shape, 2.0)),))
        out = schrodinger_apply(f, fields)
        np.testing.assert_allclose(interior(out.values), 2.0, rtol=1e-14)

    def test_field_coverage_error(self):
        big = LatticeSpec(1, 0.5, (-6,), (6,))
        small = LatticeSpec(1, 0.5, (-3,), (3,))
        f = LatticeFunction.zeros(big)
        with pytest.raises(ValueError, match="field coverage"):
            schrodinger_apply(f, FieldData.zero(small))

    def test_field_coverage_error_names_both_boxes(self):
        big = LatticeSpec(2, 0.5, (-6, -5), (6, 5))
        small = LatticeSpec(2, 0.5, (-3, -4), (3, 4))
        fields = FieldData.zero(small)
        for call in (lambda: schrodinger_apply(LatticeFunction.zeros(big), fields),
                     lambda: schrodinger_stencil(big, fields)):
            with pytest.raises(ValueError, match="field coverage") as err:
                call()
            message = str(err.value)
            assert repr(small) in message and repr(big) in message
            assert message.index(repr(small)) < message.index(repr(big))

    def test_fields_on_superset_box(self):
        big = LatticeSpec(1, 0.5, (-8,), (8,))
        small = LatticeSpec(1, 0.5, (-4,), (4,))
        f = harmonic_polynomial(small, "linear_j")
        one = LatticeFunction(big, np.ones(big.shape))
        fields = FieldData(one, (LatticeFunction.zeros(big),))
        out = schrodinger_apply(f, fields)
        np.testing.assert_allclose(interior(out.values),
                                   interior(f.values), rtol=0, atol=0)

    @pytest.mark.parametrize("d, lo, hi", [(1, (-5,), (6,)),
                                           (2, (-3, -2), (4, 3)),
                                           (3, (-2, -1, -2), (2, 3, 1))])
    def test_matches_loop_oracle(self, d, lo, hi, rng_seed):
        # P_h f(n) = h^-2 sum_j [f(n+e_j) + f(n-e_j) - 2 f(n)]
        #          + h^-1 sum_j B_j(n) [f(n+e_j) - f(n)] + V(n) f(n), zero outside
        rng = np.random.default_rng(rng_seed + d)
        h = 1 / 3
        spec = LatticeSpec(d, h, lo, hi)
        f = LatticeFunction(spec, rng.standard_normal(spec.shape))
        fields = FieldData(LatticeFunction(spec, rng.uniform(-9.0, 9.0, spec.shape)),
                           tuple(LatticeFunction(spec, rng.uniform(-3.0, 3.0, spec.shape))
                                 for _ in range(d)))
        oracle = np.zeros(spec.shape)
        for pos in np.ndindex(*spec.shape):
            n = np.add(pos, lo)
            acc = fields.V.values[pos] * f.at(n)
            for j in range(d):
                e = np.eye(d, dtype=np.int64)[j]
                acc += (f.at(n + e) + f.at(n - e) - 2 * f.at(n)) / h ** 2
                acc += fields.B[j].values[pos] * (f.at(n + e) - f.at(n)) / h
            oracle[pos] = acc
        out = schrodinger_apply(f, fields).values
        assert np.abs(out - oracle).max() <= 1e-13 * np.abs(oracle).max()
        # the sparse writer: P_h's rows at the sites off the box edge, over
        # every site of the box
        inside = np.zeros(spec.shape, dtype=bool)
        inside[tuple(slice(1, -1) for _ in range(d))] = True
        rows = stencil_rows(inside, np.ones_like(inside), *schrodinger_stencil(spec, fields))
        flat = rows @ f.values.ravel()
        assert np.abs(flat - oracle[inside]).max() <= 1e-13 * np.abs(oracle).max()


class TestDilate:
    @pytest.mark.parametrize("steps", [0, 1, 3])
    def test_grows_by_lattice_distance_within_the_box(self, steps):
        # oracle: sites within l1 distance `steps` of a seed site, clipped
        spec = LatticeSpec(3, 1.0, (0, 0, 0), (5, 4, 6))
        seeds = [(1, 1, 5), (4, 3, 0)]
        mask = np.zeros(spec.shape, dtype=bool)
        for seed in seeds:
            mask[seed] = True
        expected = np.zeros(spec.shape, dtype=bool)
        for pos in np.ndindex(*spec.shape):
            expected[pos] = any(np.abs(np.subtract(pos, seed)).sum() <= steps
                                for seed in seeds)
        grown = dilate(mask, steps)
        assert grown.dtype == bool
        assert np.array_equal(grown, expected)


class TestNorms:
    def test_zero_function(self):
        spec = LatticeSpec(2, 1.0, (-2, -2), (2, 2))
        assert l2_norm(LatticeFunction.zeros(spec)) == 0.0

    def test_three_site_ball(self):
        spec = LatticeSpec(1, 1.0, (-1,), (1,))
        f = LatticeFunction(spec, np.ones(3))
        assert l2_norm(f, BallRegion(2.0)) == pytest.approx(np.sqrt(3.0))

    def test_constant_on_ball_site_enumeration(self):
        # independent oracle: enumerate sites of B_1 with an explicit loop
        h, c = 0.5, 3.0
        spec = LatticeSpec(2, h, (-6, -6), (6, 6))
        count = 0
        for n1 in range(-6, 7):
            for n2 in range(-6, 7):
                if (h * n1) ** 2 + (h * n2) ** 2 < 1.0:
                    count += 1
        f = LatticeFunction(spec, np.full(spec.shape, c))
        expected = c * np.sqrt(h ** 2 * count)
        assert l2_norm(f, BallRegion(1.0)) == pytest.approx(expected, rel=1e-14)

    def test_ball_monotonicity(self):
        rng = np.random.default_rng(5)
        spec = LatticeSpec(2, 0.25, (-10, -10), (10, 10))
        f = LatticeFunction(spec, rng.standard_normal(spec.shape))
        radii = [0.4, 0.9, 1.7, 2.4]
        norms = [l2_norm(f, BallRegion(r)) for r in radii]
        assert all(a <= b for a, b in zip(norms, norms[1:]))

    def test_inner_product_examples(self):
        spec = LatticeSpec(1, 1.0, (0,), (1,))
        f = LatticeFunction(spec, np.array([1.0, 2.0]))
        g = LatticeFunction(spec, np.array([3.0, -1.0]))
        assert inner_product(f, g) == pytest.approx(1.0)
        assert inner_product(f, f) == pytest.approx(l2_norm(f) ** 2)
        # orthogonal indicator functions
        e1 = LatticeFunction(spec, np.array([1.0, 0.0]))
        e2 = LatticeFunction(spec, np.array([0.0, 1.0]))
        assert inner_product(e1, e2) == 0.0

    def test_inner_product_spec_mismatch(self):
        f = LatticeFunction.zeros(LatticeSpec(1, 1.0, (0,), (3,)))
        g = LatticeFunction.zeros(LatticeSpec(1, 0.5, (0,), (3,)))
        with pytest.raises(ValueError, match="mismatch"):
            inner_product(f, g)

    def test_inner_product_overlapping_boxes(self):
        # zero extension: only the overlap contributes
        f = LatticeFunction(LatticeSpec(1, 1.0, (0,), (4,)), np.ones(5))
        g = LatticeFunction(LatticeSpec(1, 1.0, (3,), (8,)), np.ones(6))
        assert inner_product(f, g) == pytest.approx(2.0)


class TestRegions:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_annulus_is_open_at_both_radii(self, d):
        # at h = 1/16, 1/2 < |h n| < 2 reads 8^2 < |n|^2 < 32^2 in integers
        spec = LatticeSpec.ball_box(d, 1 / 16, 2.0, pad_sites=2)
        n2 = (spec.indices() ** 2).sum(axis=0)
        mask = CARLEMAN_ANNULUS.mask(spec)
        assert np.array_equal(mask, (8 ** 2 < n2) & (n2 < 32 ** 2))
        on_edge = (n2 == 8 ** 2) | (n2 == 32 ** 2)
        assert on_edge.sum() >= 4 and not mask[on_edge].any()

    @pytest.mark.parametrize("d,inv_h", [(1, 4), (1, 128), (2, 4), (2, 32), (2, 128),
                                         (3, 4), (3, 16)])
    def test_radii_and_masks_are_the_mesh_formula_bit_for_bit(self, d, inv_h):
        # the Carleman box about the origin, and one off the origin
        for spec in (LatticeSpec.ball_box(d, 1 / inv_h, 2.0, pad_sites=4),
                     LatticeSpec(d, 1 / inv_h, (-3,) + (1,) * (d - 1), (7,) + (9,) * (d - 1))):
            r2 = (spec.coords() ** 2).sum(axis=0)
            mesh = np.sqrt(r2)
            radii = spec.radii()
            assert radii.shape == spec.shape and radii.tobytes() == mesh.tobytes()
            assert np.array_equal(BallRegion(1.3).mask(spec), r2 < 1.3 ** 2)
            assert np.array_equal(AnnularRegion(0.5, 2.0).mask(spec),
                                  (r2 < 2.0 ** 2) & (mesh > 0.5))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_axes_are_the_mesh_axes(self, d):
        spec = LatticeSpec(d, 1 / 12, (-3,) + (1,) * (d - 1), (7,) + (9,) * (d - 1))
        mesh = np.stack(np.meshgrid(*spec.axes(), indexing="ij"))
        assert mesh.tobytes() == spec.coords().tobytes()

    def test_radii_validated(self):
        for radii in ((0.0, 1.0), (1.0, 1.0), (2.0, 1.0)):
            with pytest.raises(ValueError, match="0 < inner < outer"):
                AnnularRegion(*radii)
        with pytest.raises(ValueError, match="positive"):
            BallRegion(0.0)


class TestCoarsen:
    def test_identity_at_m1(self):
        spec = LatticeSpec(2, 0.5, (-4, -4), (4, 4))
        f = harmonic_polynomial(spec, "mixed_jk")
        g = coarsen(f, 1)
        assert g.spec == f.spec
        assert np.array_equal(g.values, f.values)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_harmonic_polynomial_stays_harmonic(self, m):
        spec = LatticeSpec(2, 1 / 16, (-33, -33), (33, 33))
        f = harmonic_polynomial(spec, "mixed_jk")
        g = coarsen(f, m)
        assert np.all(interior(laplacian(g).values) == 0.0)

    def test_values_are_sublattice_restriction(self):
        spec = LatticeSpec(1, 0.25, (-5,), (6,))
        f = LatticeFunction(spec, np.arange(-5, 7, dtype=float))
        g = coarsen(f, 2)
        assert g.spec.lo == (-2,) and g.spec.hi == (3,)
        assert g.spec.h == 0.5
        np.testing.assert_array_equal(g.values, [-4.0, -2.0, 0.0, 2.0, 4.0, 6.0])

    def test_empty_coarse_lattice(self):
        spec = LatticeSpec(1, 0.25, (1,), (3,))
        with pytest.raises(ValueError, match="empty coarse lattice"):
            coarsen(LatticeFunction.zeros(spec), 4)

    def test_admissible_range_guard(self):
        spec = LatticeSpec(1, 1.0, (-4,), (4,))
        with pytest.raises(ValueError, match="admissible"):
            coarsen(LatticeFunction.zeros(spec), 3)


class TestValidation:
    def test_nonfinite_rejected(self):
        spec = LatticeSpec(1, 1.0, (0,), (2,))
        with pytest.raises(ValueError, match="finite"):
            LatticeFunction(spec, np.array([0.0, np.nan, 1.0]))

    def test_bad_box(self):
        with pytest.raises(ValueError, match="lo <= hi"):
            LatticeSpec(1, 1.0, (3,), (1,))
        with pytest.raises(ValueError, match="positive"):
            LatticeSpec(1, -0.5, (0,), (1,))
