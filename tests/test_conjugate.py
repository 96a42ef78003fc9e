"""Conjugated operator identities: split, symmetry, commutators, ratios."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carlat import (
    ConjugationContext,
    LatticeFunction,
    LatticeSpec,
    WeightParams,
    antisym_apply,
    carleman_ratio,
    commutator_coeffs,
    commutator_form,
    conjugate_apply,
    diff,
    inner_product,
    laplacian,
    random_bump,
    sym_apply,
    sym_diff_sum,
)
from carlat import conjugate
from carlat.conjugate import (PHI_OVERFLOW_LIMIT, RATIO_TABLES, SUPPORT_REACH, carleman_box,
                              identity_errors, slab_rows, weight_table)
from carlat.lattice import dilate

ANNULUS_SPECS = {d: (carleman_box(d, h), h) for d, h in ((1, 1 / 32), (2, 1 / 24), (3, 1 / 12))}


def bump(d, seed):
    spec, _ = ANNULUS_SPECS[d]
    return random_bump(spec, seed)


def ctx_for(d, tau=2.0, c_ps=0.01):
    spec, _ = ANNULUS_SPECS[d]
    return ConjugationContext.from_weight(spec, WeightParams(tau, c_ps))


def rel(a, b, floor=1e-300):
    return abs(a - b) / max(abs(a), abs(b), floor)


def guard_tau(spec, c_ps, load):
    """The tau whose peak |phi| on the box is ``load`` of the overflow guard."""
    peak_per_tau = np.abs(weight_table(spec, WeightParams(2.0, c_ps))[0]).max() / 2.0
    return load * PHI_OVERFLOW_LIMIT / peak_per_tau


class TestZeroWeightLimit:
    @pytest.mark.parametrize("d", [1, 2])
    def test_all_parts_reduce_to_laplacian(self, d, rng_seed):
        spec, h = ANNULUS_SPECS[d]
        ctx = ConjugationContext.from_table(spec, np.zeros(spec.shape))
        f = bump(d, rng_seed)
        lap = laplacian(f).values / h ** 2
        np.testing.assert_allclose(conjugate_apply(f, ctx).values, lap,
                                   rtol=0, atol=1e-12 * np.abs(lap).max())
        np.testing.assert_allclose(sym_apply(f, ctx).values, lap,
                                   rtol=0, atol=1e-12 * np.abs(lap).max())
        assert np.all(antisym_apply(f, ctx).values == 0.0)
        assert commutator_form(f, ctx, "expansion") == 0.0


class TestSplit:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_sym_plus_antisym_equals_conjugated(self, d, rng_seed):
        ctx = ctx_for(d)
        for s in range(3):
            f = bump(d, rng_seed + s)
            lhs = sym_apply(f, ctx).values + antisym_apply(f, ctx).values
            rhs = conjugate_apply(f, ctx).values
            assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(rhs).max()

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_conjugated_matches_weighted_laplacian(self, d, rng_seed):
        # L f = e^phi h^-2 Lap(e^-phi f), through the constant-weight kernel,
        # which shares no offset bookkeeping with the context's tables
        ctx = ctx_for(d)
        _, h = ANNULUS_SPECS[d]
        for s in range(3):
            f = bump(d, rng_seed + s)
            got = conjugate_apply(f, ctx).values
            want = np.exp(ctx.phi) * laplacian(
                f.with_values(np.exp(-ctx.phi) * f.values)).values / h ** 2
            assert np.abs(got - want).max() <= 1e-12 * np.abs(got).max()

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bilinear_symmetries(self, d, rng_seed):
        ctx = ctx_for(d)
        n_pairs = {1: 40, 2: 40, 3: 20}[d]
        for s in range(n_pairs):
            f = bump(d, rng_seed + 2 * s)
            g = bump(d, rng_seed + 2 * s + 1)
            sf_g = inner_product(sym_apply(f, ctx), g)
            f_sg = inner_product(f, sym_apply(g, ctx))
            assert rel(sf_g, f_sg) <= 1e-12
            af_g = inner_product(antisym_apply(f, ctx), g)
            f_ag = inner_product(f, antisym_apply(g, ctx))
            assert rel(af_g, -f_ag) <= 1e-12


class TestLinearPhase:
    def test_constant_coefficients_match_hand_formula(self, rng_seed):
        # phi(n) = lam*h*n with lam*h dyadic: differences are exact and the
        # conjugated operator has constant coefficients e^{-lam h}, e^{lam h}
        spec = LatticeSpec(1, 0.5, (-40,), (40,))
        lam_h = 0.25
        phi = lam_h * np.arange(-40, 41, dtype=float)
        ctx = ConjugationContext.from_table(spec, phi)
        rng = np.random.default_rng(rng_seed)
        v = np.zeros(spec.shape)
        v[5:-5] = rng.standard_normal(spec.shape[0] - 10)
        f = LatticeFunction(spec, v)
        got = conjugate_apply(f, ctx).values
        h = spec.h
        vp = np.roll(v, -1)
        vm = np.roll(v, 1)
        want = (np.exp(-lam_h) * vp + np.exp(lam_h) * vm - 2 * v) / h ** 2
        np.testing.assert_allclose(got[2:-2], want[2:-2], rtol=1e-13)

    def test_commutator_coefficients_vanish_exactly(self):
        spec = LatticeSpec(2, 0.5, (-10, -10), (10, 10))
        idx = spec.indices()
        phi = 0.25 * idx[0] + 0.5 * idx[1]
        ctx = ConjugationContext.from_table(spec, phi.astype(float))
        for n in [(0, 0), (3, -2), (-5, 7)]:
            for j, k in [(1, 1), (1, 2), (2, 1), (2, 2)]:
                c = commutator_coeffs(n, j, k, ctx)
                assert np.all(c.simplified == 0.0)
                assert np.all(c.raw == 0.0)


class TestCommutatorCoeffs:
    def test_raw_equals_simplified_at_random_sites(self, rng_seed):
        ctx = ctx_for(2, tau=1.6)
        spec = ctx.spec
        rng = np.random.default_rng(rng_seed)
        checked = 0
        while checked < 300:
            n = rng.integers(np.add(spec.lo, 2), np.add(spec.hi, -1))
            if np.linalg.norm(np.asarray(n) * spec.h) < 0.3:
                continue
            j, k = (int(v) for v in rng.integers(1, 3, size=2))
            c = commutator_coeffs(n, j, k, ctx)
            np.testing.assert_allclose(c.raw, c.simplified, rtol=1e-12, atol=1e-15)
            checked += 1

    def test_out_of_box_neighbors(self):
        ctx = ctx_for(2)
        with pytest.raises(ValueError, match="outside box"):
            commutator_coeffs(ctx.spec.lo, 1, 2, ctx)

    def test_direction_validation(self):
        ctx = ctx_for(2)
        with pytest.raises(ValueError, match="direction out of range"):
            commutator_coeffs((0, 0), 1, 3, ctx)


class TestCommutatorForm:
    @pytest.mark.parametrize("d,h", [(1, 1 / 32), (1, 1 / 64), (2, 1 / 32), (2, 1 / 64)])
    def test_two_path_equality(self, d, h, rng_seed):
        spec = carleman_box(d, h)
        ctx = ConjugationContext.from_weight(spec, WeightParams(0.05 / h, 0.01))
        for s in range(5):
            assert identity_errors(random_bump(spec, rng_seed + s),
                                   ctx)["two_path"] <= 1e-11

    @pytest.mark.parametrize("d,h", [(1, 1 / 64), (2, 1 / 16), (3, 1 / 8)])
    def test_expansion_finite_near_the_overflow_guard(self, d, h, rng_seed):
        # beside the singular origin sinh * cosh of the phi differences
        # overflows from a peak |phi| of about 355; the form never needs them
        spec = carleman_box(d, h)
        ctx = ConjugationContext.from_weight(spec, WeightParams(guard_tau(spec, 0.01, 0.96), 0.01))
        errors = identity_errors(random_bump(spec, rng_seed), ctx)
        assert all(err <= 1e-11 for err in errors.values()), errors

    def test_energy_identity(self, rng_seed):
        for d in (1, 2):
            ctx = ctx_for(d, tau=1.8)
            for s in range(5):
                assert identity_errors(bump(d, rng_seed + s), ctx)["energy"] <= 1e-11

    def test_one_dimensional_quadratic_form_identity(self, rng_seed):
        # d=1, j=k: the commutator form reduces to
        # sum 4 sinh(Lap phi)|Ds f|^2 - Lap[sinh(Lap phi)]|f|^2
        #     + 2 sinh(Lap phi)(cosh(2 Ds phi) - 1)|f|^2
        spec, h = ANNULUS_SPECS[1]
        ctx = ctx_for(1, tau=2.2)
        f = bump(1, rng_seed)
        phi = LatticeFunction(spec, ctx.phi)
        lap_phi = laplacian(phi).values
        sinh_lap = np.sinh(lap_phi)
        lap_sinh = laplacian(LatticeFunction(spec, sinh_lap)).values
        ds_f = sym_diff_sum(f).values
        ds_phi = sym_diff_sum(phi).values
        total = np.sum(4 * sinh_lap * ds_f ** 2
                       - lap_sinh * f.values ** 2
                       + 2 * sinh_lap * (np.cosh(2 * ds_phi) - 1) * f.values ** 2)
        assembled = total * h ** (1 - 4)
        composition = commutator_form(f, ctx, "composition")
        assert rel(assembled, composition) <= 1e-11

    def test_zero_weight_gives_zero(self, rng_seed):
        spec, _ = ANNULUS_SPECS[2]
        ctx = ConjugationContext.from_table(spec, np.zeros(spec.shape))
        f = bump(2, rng_seed)
        assert commutator_form(f, ctx, "expansion") == 0.0
        assert abs(commutator_form(f, ctx, "composition")) <= 1e-20


def support_oracle(f, ctx):
    """The whole-box support rule: the support's extent along every axis,
    then its SUPPORT_REACH dilation against the singular sites."""
    if f.spec != ctx.spec:
        raise ValueError("function and context lattice specs differ")
    nz = f.values != 0.0
    if not nz.any():
        return
    for a, size in enumerate(ctx.spec.shape):
        axis_any = np.moveaxis(nz, a, 0).reshape(size, -1).any(axis=1)
        hit = np.nonzero(axis_any)[0]
        if hit[0] < SUPPORT_REACH or hit[-1] > size - 1 - SUPPORT_REACH:
            raise ValueError(
                "support too close to the box boundary "
                f"(need a margin of {SUPPORT_REACH} sites)")
    if ctx.singular.any() and (dilate(nz, SUPPORT_REACH) & ctx.singular).any():
        raise ValueError("weight singularity: support touches the singular site")


def raised(check, *args):
    """The message of the ValueError check(*args) raises, None if it returns."""
    try:
        check(*args)
    except ValueError as err:
        return str(err)
    return None


@st.composite
def supports(draw):
    """A small box, a context on it with or without a singular site, and a
    few nonzero sites, drawn mostly 0 to 3 sites from an edge or the origin."""
    d = draw(st.integers(1, 3))
    lo = [draw(st.integers(-6, 2)) for _ in range(d)]
    hi = [draw(st.integers(max(a, -2), 6)) for a in lo]
    spec = LatticeSpec(d, 1 / 8, lo, hi)
    if draw(st.booleans()):
        ctx = ConjugationContext.from_weight(spec, WeightParams(1.5, 0.01))
    else:
        ctx = ConjugationContext.from_table(spec, np.zeros(spec.shape))
    near = [sorted({n for n in (a, a + 1, a + 2, a + 3, b - 3, b - 2, b - 1, b, -3, -2, -1,
                                0, 1, 2, 3) if a <= n <= b}) for a, b in zip(lo, hi)]
    site = st.tuples(*[st.one_of(st.sampled_from(ns), st.integers(a, b))
                       for ns, a, b in zip(near, lo, hi)])
    v = np.zeros(spec.shape)
    for n in draw(st.lists(site, max_size=4)):
        v[tuple(np.subtract(n, lo))] = draw(st.sampled_from((1.0, -2.5, 1e-300)))
    return LatticeFunction(spec, v), ctx


class TestSupportChecks:
    @settings(max_examples=300, deadline=None)
    @given(case=supports())
    def test_frame_and_table_checks_match_the_dilation_rule(self, case):
        f, ctx = case
        assert raised(ctx.check_support, f) == raised(support_oracle, f, ctx)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("steps", [1, 2, 3])
    def test_spikes_beside_the_edge_and_the_origin(self, d, steps):
        spec = LatticeSpec(d, 1 / 8, (-6,) * d, (6,) * d)
        ctxs = (ConjugationContext.from_weight(spec, WeightParams(1.5, 0.01)),
                ConjugationContext.from_table(spec, np.zeros(spec.shape)))
        for ctx in ctxs:
            for index in (steps - 1, 6 + steps, spec.shape[0] - steps):
                v = np.zeros(spec.shape)
                v[(index,) + (6,) * (d - 1)] = 1.0
                f = LatticeFunction(spec, v)
                assert raised(ctx.check_support, f) == raised(support_oracle, f, ctx)

    def test_support_near_edge_rejected(self):
        spec = LatticeSpec(1, 0.5, (-6,), (6,))
        ctx = ConjugationContext.from_table(spec, np.zeros(spec.shape))
        v = np.zeros(spec.shape)
        v[0] = 1.0
        with pytest.raises(ValueError, match="margin"):
            sym_apply(LatticeFunction(spec, v), ctx)

    def test_support_touching_origin_rejected(self):
        spec = LatticeSpec.ball_box(2, 0.25, 2.0, pad_sites=3)
        ctx = ConjugationContext.from_weight(spec, WeightParams(1.5, 0.01))
        v = np.zeros(spec.shape)
        v[spec.shape[0] // 2 + 1, spec.shape[1] // 2] = 1.0  # next to the origin
        with pytest.raises(ValueError, match="weight singularity"):
            sym_apply(LatticeFunction(spec, v), ctx)

    def test_overflow_guard(self):
        spec = LatticeSpec.ball_box(1, 1 / 64, 2.0, pad_sites=2)
        with pytest.raises(ValueError, match="overflow"):
            ConjugationContext.from_weight(spec, WeightParams(500.0, 0.01))


class TestCarlemanRatio:
    def test_zero_input(self):
        ctx = ctx_for(2)
        u = LatticeFunction.zeros(ctx.spec)
        rec = carleman_ratio(u, ctx)
        assert rec.lhs == rec.rhs == rec.ratio == 0.0

    def test_single_spike_is_finite(self):
        ctx = ctx_for(2, tau=1.5)
        spec = ctx.spec
        v = np.zeros(spec.shape)
        site = np.array(spec.shape) // 2 + int(1.0 / spec.h) * np.array([1, 0])
        v[tuple(site)] = 1.0
        rec = carleman_ratio(LatticeFunction(spec, v), ctx)
        assert 0 < rec.ratio < np.inf
        assert rec.rhs > 0

    def test_support_outside_annulus_rejected(self):
        ctx = ctx_for(2)
        spec = ctx.spec
        v = np.zeros(spec.shape)
        v[3, 3] = 1.0  # far corner, outside B_2
        with pytest.raises(ValueError, match="support outside annulus"):
            carleman_ratio(LatticeFunction(spec, v), ctx)

    def test_support_on_the_inner_sphere_rejected(self):
        # site (16, 0) at h = 1/32 has |h n| = 1/2, on the annulus's open edge
        spec = carleman_box(2, 1 / 32)
        ctx = ConjugationContext.from_weight(spec, WeightParams(2.0, 0.01))
        v = np.zeros(spec.shape)
        v[16 - spec.lo[0], -spec.lo[1]] = 1.0
        with pytest.raises(ValueError, match="support outside annulus"):
            carleman_ratio(LatticeFunction(spec, v), ctx)

    def test_scale_invariance(self, rng_seed):
        ctx = ctx_for(2, tau=1.5)
        u = bump(2, rng_seed)
        a = carleman_ratio(u, ctx)
        b = carleman_ratio(u.with_values(37.0 * u.values), ctx)
        assert rel(a.ratio, b.ratio) <= 1e-12

    def test_ds_mode_variants(self, rng_seed):
        ctx = ctx_for(2, tau=1.5)
        u = bump(2, rng_seed)
        ratios = {mode: carleman_ratio(u, ctx, ds_mode=mode).ratio
                  for mode in ("symmetric", "forward", "backward")}
        assert all(0 < r < np.inf for r in ratios.values())
        # the choice of difference changes the value but not the scale
        vals = list(ratios.values())
        assert max(vals) / min(vals) < 10.0

    @staticmethod
    def spikes(ctx, *sites):
        """Values on ctx's box: 0, and each (offset, value) in ``sites`` at
        that offset from a site at |h n| = 1."""
        spec = ctx.spec
        v = np.zeros(spec.shape)
        centre = np.array(spec.shape) // 2 + round(1 / spec.h) * np.array([1, 0])
        for off, value in sites:
            v[tuple(centre + off)] = value
        return LatticeFunction(spec, v)

    @pytest.mark.parametrize("ds_mode", ["symmetric", "forward", "backward"])
    def test_an_overflowing_difference_is_refused(self, ds_mode):
        # finite spikes whose sum in D u at the centre site is inf
        u = self.spikes(ctx_for(2, tau=1.5), ((1, 0), 1.5e308), ((0, 1), 1.5e308))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="values must be finite"):
                carleman_ratio(u, ctx_for(2, tau=1.5), ds_mode)

    @pytest.mark.parametrize("ds_mode", ["symmetric", "forward", "backward"])
    def test_overflowing_weighted_squares_are_returned(self, ds_mode):
        # D u, D^2 u and Lap u are finite; their weighted squares are not
        u = self.spikes(ctx_for(2, tau=1.5), ((0, 0), 1e200))
        with np.errstate(over="ignore", invalid="ignore"):
            rec = carleman_ratio(u, ctx_for(2, tau=1.5), ds_mode)
        assert rec.lhs == rec.rhs == rec.term_l2 == rec.term_d1 == rec.term_d2 == np.inf
        assert math.isnan(rec.ratio)

    def test_exp_table_is_the_weight_with_the_singular_site_zeroed(self):
        ctx = ctx_for(2, tau=1.5)
        table = ctx._table("exp")
        assert ctx.singular.sum() == 1
        assert table[ctx.singular] == 0.0
        np.testing.assert_array_equal(table[~ctx.singular], np.exp(ctx.phi[~ctx.singular]))

    def test_requires_weight_params(self, rng_seed):
        spec, _ = ANNULUS_SPECS[2]
        ctx = ConjugationContext.from_table(spec, np.zeros(spec.shape))
        with pytest.raises(ValueError, match="weight parameters"):
            carleman_ratio(bump(2, rng_seed), ctx)


def ratio_oracle(u, ctx, ds_mode):
    """carleman_ratio's defining formula evaluated on the whole box at once:
    (lhs, rhs, ratio)."""
    spec, h, tau = u.spec, u.spec.h, ctx.params.tau
    exp_phi = np.exp(ctx.phi)
    exp_phi[ctx.singular] = 0.0

    def dop(g):
        if ds_mode == "symmetric":
            return sym_diff_sum(g)
        acc = np.zeros(spec.shape)
        for j in range(1, spec.d + 1):
            acc += diff(g, j, ds_mode).values
        return g.with_values(acc)

    def wnorm2(values):
        return float(h ** spec.d * np.sum((exp_phi * values) ** 2))

    du = dop(u)
    d2u = dop(du)
    lhs = (tau ** 3 * wnorm2(u.values) + tau * wnorm2(du.values / h)
           + tau ** -1 * wnorm2(d2u.values / h ** 2))
    rhs = wnorm2(laplacian(u).values / h ** 2)
    return lhs, rhs, lhs / rhs


def assert_matches_oracle(u, ctx, ds_mode="symmetric"):
    got = carleman_ratio(u, ctx, ds_mode)
    np.testing.assert_allclose((got.lhs, got.rhs, got.ratio), ratio_oracle(u, ctx, ds_mode),
                               rtol=1e-13, atol=0)


class TestBlockedRatio:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("ds_mode", ["symmetric", "forward", "backward"])
    @pytest.mark.parametrize("rows", [None, 1, 2, 8])
    def test_matches_the_whole_box_formula(self, d, ds_mode, rows, monkeypatch, rng_seed):
        # rows=None keeps SLAB_SITES; 2 and 8 rows divide none of the boxes' row counts
        ctx = ctx_for(d, tau=1.5)
        if rows is not None:
            monkeypatch.setattr(conjugate, "SLAB_SITES", rows * math.prod(ctx.spec.shape[1:]))
            assert slab_rows(ctx.spec) == rows
        for s in range(2):
            assert_matches_oracle(bump(d, rng_seed + s), ctx, ds_mode)

    def test_spikes_on_the_first_and_last_rows_of_a_slab(self):
        spec = carleman_box(2, 1 / 128)
        ctx = ConjugationContext.from_weight(spec, WeightParams(6.4, 0.01))
        step = slab_rows(spec)
        assert step == 62 and spec.shape[0] % step != 0
        for row in (4 * step - 1, 4 * step, 5 * step - 1, 5 * step):
            v = np.zeros(spec.shape)
            v[row, 128 - spec.lo[1]] = 1.0  # |h n| between 1 and 1.1
            assert_matches_oracle(LatticeFunction(spec, v), ctx)

    def test_one_call_allocates_less_than_one_box_array(self):
        spec = carleman_box(2, 1 / 128)
        ctx = ConjugationContext.from_weight(spec, WeightParams(6.4, 0.01))
        ctx.build_tables(*RATIO_TABLES)
        u = random_bump(spec, 7)
        tracemalloc.start()
        try:
            carleman_ratio(u, ctx)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < u.values.nbytes


    def test_one_call_builds_no_spec_or_function(self, monkeypatch):
        spec = carleman_box(2, 1 / 128)
        ctx = ConjugationContext.from_weight(spec, WeightParams(6.4, 0.01))
        ctx.build_tables(*RATIO_TABLES)
        u = random_bump(spec, 7)
        built = []
        for cls in (LatticeSpec, LatticeFunction):
            monkeypatch.setattr(cls, "__post_init__",
                                lambda self, real=cls.__post_init__: built.append(type(self))
                                or real(self))
        carleman_ratio(u, ctx)
        assert built == []
        # the count sees a construction
        LatticeFunction.zeros(spec)
        assert built == [LatticeFunction]

# -- identities up to the overflow guard --------------------------------------

spacings = st.one_of(st.tuples(st.sampled_from((1, 2)), st.integers(8, 32)),
                     st.tuples(st.just(3), st.integers(4, 8)))


@settings(max_examples=25, deadline=None)
@given(dim_inv_h=spacings, c_ps=st.floats(0.0, 0.1),
       load=st.floats(0.01, 1.0), seed=st.integers(0, 2 ** 31))
def test_operator_identities_up_to_the_overflow_guard(dim_inv_h, c_ps, load, seed):
    # tau runs from 1 up to a peak |phi| of 0.99 of the guard
    d, inv_h = dim_inv_h
    spec = carleman_box(d, 1.0 / inv_h)
    tau = 1.0 + load * (guard_tau(spec, c_ps, 0.99) - 1.0)
    ctx = ConjugationContext.from_weight(spec, WeightParams(tau, c_ps))
    errors = identity_errors(random_bump(spec, seed), ctx)
    assert all(err <= 1e-11 for err in errors.values()), errors
