"""The zero-extended stencil kernels and shift against a loop oracle, and
both kernels, on either read of f(n + off), against the per-axis slice
kernels they replaced."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carlat import _kernels as K
from carlat import solver
from carlat.conjugate import (ConjugationContext, carleman_box, carleman_ratio, conjugate_apply,
                              random_bump)
from carlat.lattice import (FieldData, LatticeFunction, LatticeSpec, schrodinger_stencil,
                            shift_values, stencil_offsets)
from carlat.weight import WeightParams


def loop_oracle_const(values, offsets, weights):
    out = np.zeros_like(values)
    for pos in np.ndindex(values.shape):
        acc = 0.0
        for off, w in zip(offsets, weights):
            src = tuple(p + int(o) for p, o in zip(pos, off))
            if all(0 <= s < n for s, n in zip(src, values.shape)):
                acc += w * values[src]
        out[pos] = acc
    return out


def slice_oracle(values, offsets, weights):
    """The constant kernel as it was before it moved to flat steps: one
    ``overlap_slices`` update per offset, on the d-dimensional array."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    out = np.zeros_like(values)
    for o, w in zip(np.asarray(offsets, dtype=np.int64), np.asarray(weights, dtype=np.float64)):
        pair = K.overlap_slices(values.shape, o)
        if pair is None:
            continue
        dst, src = pair
        if w == 1.0:
            out[dst] += values[src]
        elif w == -1.0:
            out[dst] -= values[src]
        else:
            out[dst] += w * values[src]
    return out


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    assert got.flags.c_contiguous
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def slice_oracle_var(values, offsets, coeffs):
    """The variable kernel as it was before it took flat steps: one
    ``overlap_slices`` update per offset, on the d-dimensional array."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    out = np.zeros_like(values)
    for o, c in zip(np.asarray(offsets, dtype=np.int64), coeffs):
        pair = K.overlap_slices(values.shape, o)
        if pair is None:
            continue
        dst, src = pair
        out[dst] += c[dst] * values[src]
    return out


def loop_oracle_var(values, offsets, coeffs):
    out = np.zeros_like(values)
    for pos in np.ndindex(values.shape):
        acc = 0.0
        for off, c in zip(offsets, coeffs):
            src = tuple(p + int(o) for p, o in zip(pos, off))
            if all(0 <= s < n for s, n in zip(src, values.shape)):
                acc += c[pos] * values[src]
        out[pos] = acc
    return out


@pytest.mark.parametrize("shape", [(13,), (7, 9), (5, 6, 4)])
def test_const_matches_loop_oracle(shape, rng_seed):
    rng = np.random.default_rng(rng_seed)
    values = rng.standard_normal(shape)
    offsets = rng.integers(-2, 3, size=(5, len(shape)))
    weights = rng.standard_normal(5)
    got = K.apply_stencil_const(values, offsets, weights)
    want = loop_oracle_const(values, offsets, weights)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


@pytest.mark.parametrize("shape", [(13,), (7, 9), (5, 6, 4)])
def test_var_matches_loop_oracle(shape, rng_seed):
    rng = np.random.default_rng(rng_seed + 1)
    values = rng.standard_normal(shape)
    offsets = rng.integers(-2, 3, size=(6, len(shape)))
    coeffs = [rng.standard_normal(shape) for _ in range(6)]
    got = K.apply_stencil_var(values, offsets, coeffs)
    want = loop_oracle_var(values, offsets, coeffs)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


def test_offsets_beyond_the_box_read_zero(rng_seed):
    # |offset| >= size along an axis: zero extension wipes everything
    rng = np.random.default_rng(rng_seed)
    values = rng.standard_normal((4, 5))
    offsets = np.array([[7, 0], [0, -9], [4, 0], [0, 5]])
    out = K.apply_stencil_const(values, offsets, [1.0, 1.0, 1.0, 1.0])
    assert np.all(out == 0.0)


@pytest.mark.parametrize("shape", [(13,), (7, 9), (5, 6, 4)])
def test_shift_values_matches_loop_oracle(shape, rng_seed):
    rng = np.random.default_rng(rng_seed + 2)
    values = rng.standard_normal(shape)
    d = len(shape)
    offsets = [rng.integers(-2, 3, size=d) for _ in range(4)]
    # beyond the box along one axis, at and past the edge
    offsets += [np.eye(d, dtype=np.int64)[0] * shape[0],
                -np.eye(d, dtype=np.int64)[-1] * (shape[-1] + 3)]
    for off in offsets:
        want = loop_oracle_const(values, [off], [1.0])
        np.testing.assert_array_equal(shift_values(values, off), want)


def test_offset_shape_validation():
    with pytest.raises(ValueError, match="offsets"):
        K.apply_stencil_const(np.zeros((3, 3)), np.zeros((2, 3), dtype=int), [1.0, 1.0])


@st.composite
def framed_cases(draw):
    """A box of d <= 3 axes, random values set to zero on a frame of 0-3
    layers of the trailing axes (-0.0 on the far side), and 0-6 offsets with
    components in [-2, 2] or [-9, 9]."""
    d = draw(st.integers(1, 3))
    shape = tuple(draw(st.lists(st.integers(1, 7), min_size=d, max_size=d)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = rng.standard_normal(shape)
    frame = draw(st.integers(0, 3))
    for a in range(1, d):
        head = (slice(None),) * a
        values[head + (slice(0, frame),)] = 0.0
        # the far side of the frame holds negative zeros
        values[head + (slice(max(shape[a] - frame, 0), shape[a]),)] = -0.0
    k = draw(st.integers(0, 6))
    component = st.one_of(st.integers(-2, 2), st.integers(-9, 9))
    offsets = np.array(draw(st.lists(st.lists(component, min_size=d, max_size=d),
                                     min_size=k, max_size=k)), dtype=np.int64).reshape(k, d)
    return shape, values, offsets


@st.composite
def var_cases(draw):
    """Framed values with per-site coefficient arrays (zeros of both signs
    among them), stride-0 broadcasts of numbers, or P_h's own stencil from
    ``schrodinger_stencil``, with fields or without."""
    shape, values, offsets = draw(framed_cases())
    kind = draw(st.sampled_from(["per_site", "broadcast", "p_h", "p_h_fields"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "per_site":
        coeffs = [np.where(rng.random(shape) < 0.2, rng.choice([0.0, -0.0], shape),
                           rng.standard_normal(shape)) for _ in offsets]
    elif kind == "broadcast":
        coeffs = [np.broadcast_to(w, shape) for w in rng.choice([1.0, -1.0, -0.0, 2.5], len(offsets))]
    else:
        spec = LatticeSpec(len(shape), 0.25, (0,) * len(shape), tuple(n - 1 for n in shape))
        fields = None
        if kind == "p_h_fields":
            fields = FieldData(LatticeFunction(spec, rng.standard_normal(shape)),
                               tuple(LatticeFunction(spec, rng.standard_normal(shape))
                                     for _ in shape))
        offsets, coeffs = schrodinger_stencil(spec, fields)
    return values, offsets, coeffs


@st.composite
def const_cases(draw):
    """Framed values (the flat path when the frame covers the offsets, else
    the slice path) and weights, in one of three layouts."""
    shape, values, offsets = draw(framed_cases())
    k = len(offsets)
    weights = draw(st.lists(st.sampled_from([1.0, -1.0, 0.5, -2.0, 3.25]), min_size=k, max_size=k))
    layout = draw(st.sampled_from(["contiguous", "strided", "float32"]))
    if layout == "strided":
        wide = np.zeros(shape[:-1] + (2 * shape[-1],))
        wide[..., ::2] = values
        values = wide[..., ::2]
    elif layout == "float32":
        values = values.astype(np.float32)
    return values, offsets, weights


class TestFlatConstKernel:
    @settings(max_examples=300, deadline=None)
    @given(case=const_cases())
    def test_bit_equal_to_the_slice_kernel(self, case):
        values, offsets, weights = case
        got = K.apply_stencil_const(values, offsets, weights)
        assert_same_bits(got, slice_oracle(values, offsets, weights))

    @pytest.mark.parametrize("shape", [(13,), (7, 9), (5, 6, 4)])
    def test_both_paths_match_the_loop_oracle(self, shape, rng_seed):
        rng = np.random.default_rng(rng_seed + 3)
        offsets = stencil_offsets(len(shape))
        weights = rng.standard_normal(len(offsets))
        framed = np.zeros(shape)
        framed[(slice(None),) + (slice(1, -1),) * (len(shape) - 1)] = rng.standard_normal(
            shape[:1] + tuple(n - 2 for n in shape[1:]))
        for values in (framed, rng.standard_normal(shape)):
            np.testing.assert_allclose(K.apply_stencil_const(values, offsets, weights),
                                       loop_oracle_const(values, offsets, weights),
                                       rtol=0, atol=1e-14)

    @staticmethod
    def peak_bytes(values, offsets, weights):
        tracemalloc.start()
        try:
            K.apply_stencil_const(values, offsets, weights)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_zero_framed_input_allocates_no_padded_copy(self, rng_seed):
        rng = np.random.default_rng(rng_seed)
        values = np.zeros((513, 513))
        values[:, 2:-2] = rng.standard_normal((513, 509))
        # +-1 weights: the kernel makes no product temporary either
        offsets, weights = stencil_offsets(2)[:-1], [1.0, -1.0, 1.0, -1.0]
        # the output alone
        assert self.peak_bytes(values, offsets, weights) < 1.1 * values.nbytes
        values[:, 0] = 1.0
        # a nonzero frame reads through slices: the output and the ufuncs'
        # iteration buffers, no padded copy of the box
        assert self.peak_bytes(values, offsets, weights) < 1.25 * values.nbytes


def test_stencil_offsets_are_cached_read_only():
    off = stencil_offsets(2)
    assert stencil_offsets(2) is off
    assert not off.flags.writeable
    with pytest.raises(ValueError):
        off[0, 0] = 5
    assert stencil_offsets(2).tolist() == [[1, 0], [-1, 0], [0, 1], [0, -1], [0, 0]]


@pytest.mark.parametrize("kernel, terms, name", [
    (K.apply_stencil_const, [1.0, -1.0, 2.0], "weights"),
    (K.apply_stencil_var, [np.ones((3, 3))] * 3, "coefficient arrays"),
])
def test_term_count_mismatch_is_refused(kernel, terms, name):
    offsets = np.array([[1, 0], [0, 1]])
    with pytest.raises(ValueError, match=f"2 offsets but 3 {name}"):
        kernel(np.ones((3, 3)), offsets, terms)
    with pytest.raises(ValueError, match=f"3 offsets but 2 {name}"):
        kernel(np.ones((3, 3)), np.vstack([offsets, [[0, 0]]]), terms[:2])


@settings(max_examples=300, deadline=None)
@given(case=var_cases())
def test_var_bit_equal_to_the_slice_kernel(case):
    values, offsets, coeffs = case
    got = K.apply_stencil_var(values, offsets, coeffs)
    assert_same_bits(got, slice_oracle_var(values, offsets, coeffs))


def test_framed_inputs_take_the_flat_path(monkeypatch):
    """The Carleman ratio, S, A and L after ``check_support`` and a solve's
    residual read no slices; a residual on a polynomial, nonzero on the
    box's frame, does."""
    calls = []
    real = K.overlap_slices
    monkeypatch.setattr(K, "overlap_slices", lambda *a: calls.append(a) or real(*a))
    spec = carleman_box(2, 1 / 16)
    ctx = ConjugationContext.from_weight(spec, WeightParams(1.5, 0.01))
    u = random_bump(spec, 3)
    carleman_ratio(u, ctx)
    conjugate_apply(u, ctx)
    solver.ball_input(2, 1 / 8, "solve")
    assert calls == []
    solver.ball_input(2, 1 / 8, "deg3")
    assert len(calls) > 0


# (d, read): in d = 1 every input takes the flat read
READS = [(1, "flat"), (2, "flat"), (2, "slice"), (3, "flat"), (3, "slice")]


def stencil_cases(d, read, kind, rng):
    """Values on a box that take the given read, and P_h's offsets in three
    orders: the centre first with weight -2.5, +e_1 first with weight 1 and
    -e_1 first with weight -1, each followed by mixed weights; or, for
    ``kind="var"``, coefficient arrays."""
    shape = (7, 6, 5)[:d]
    values = rng.standard_normal(shape)
    if read == "flat":
        for a in range(1, d):
            values[(slice(None),) * a + ([0, -1],)] = 0.0
    cases = []
    for shift, first in ((1, -2.5), (0, 1.0), (-1, -1.0)):
        offsets = np.roll(stencil_offsets(d), shift, axis=0)
        if kind == "const":
            coeffs = [first] + rng.choice([1.0, -1.0, 0.75], 2 * d).tolist()
        else:
            coeffs = [rng.standard_normal(shape) for _ in offsets]
        cases.append((offsets, coeffs))
    return values, cases


def apply(values, offsets, coeffs, out=None):
    """The kernel entry for the coefficients' kind, with ``out``."""
    if isinstance(coeffs[0], float):
        return K.apply_stencil_const(values, offsets, coeffs, out=out)
    return K._apply(values, offsets, coeffs, "coefficient arrays", out)


def count_slice_reads(monkeypatch):
    calls = []
    real = K.overlap_slices
    monkeypatch.setattr(K, "overlap_slices", lambda *a: calls.append(a) or real(*a))
    return calls


class TestOut:
    @pytest.mark.parametrize("kind", ["const", "var"])
    @pytest.mark.parametrize("d, read", READS)
    def test_out_gets_the_bits_of_the_allocating_call(self, d, read, kind, monkeypatch, rng_seed):
        values, cases = stencil_cases(d, read, kind, np.random.default_rng(rng_seed))
        calls = count_slice_reads(monkeypatch)
        for offsets, coeffs in cases:
            calls.clear()
            want = apply(values, offsets, coeffs)
            assert (len(calls) > 0) == (read == "slice")
            # stale contents must not leak into the result
            out = np.full(values.shape, np.nan)
            assert apply(values, offsets, coeffs, out=out) is out
            assert_same_bits(out, want)
            assert_same_bits(out, slice_oracle(values, offsets, coeffs) if kind == "const"
                             else slice_oracle_var(values, offsets, coeffs))

    @pytest.mark.parametrize("kind", ["const", "var"])
    @pytest.mark.parametrize("d, read", READS)
    def test_a_negative_zero_first_term_stores_plus_zero(self, d, read, kind):
        shape = (7, 6, 5)[:d]
        values = np.zeros(shape)
        if read == "slice":
            values[(0,) * d] = 1.0  # a nonzero frame site
        # laplacian's centre weight -2d alone (it reaches no frame, so it
        # reads flat), then with -1 neighbours: -2d * (+0.0) = -0.0, and
        # -0.0 - (+0.0) stays -0.0
        centre_first = np.roll(stencil_offsets(d), 1, axis=0)
        for offsets in (centre_first[:1], centre_first):
            weights = [-2.0 * d] + [-1.0] * (len(offsets) - 1)
            coeffs = weights if kind == "const" else [np.full(shape, w) for w in weights]
            for out in (None, np.full(shape, -0.0)):
                got = apply(values, offsets, coeffs, out=out)
                zeros = got == 0.0
                assert zeros.sum() >= got.size - 2 * d - 1
                assert not np.signbit(got[zeros]).any()

    @pytest.mark.parametrize("kind", ["const", "var"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bad_out_is_refused(self, d, kind, rng_seed):
        values, [(offsets, coeffs), *_] = stencil_cases(d, "flat", kind,
                                                        np.random.default_rng(rng_seed))
        shape, n = values.shape, values.size
        wide = np.empty(shape[:-1] + (2 * shape[-1],))
        # the input and an out one element further on, in one buffer
        shared = np.append(values.ravel(), 0.0)
        for f, out, match in ((values, np.empty(shape[:-1] + (shape[-1] + 1,)), "shape"),
                              (values, np.empty(shape, dtype=np.float32), "float64"),
                              (values, wide[..., ::2], "C-contiguous"),
                              (values, values, "overlap"),
                              (shared[:n].reshape(shape), shared[1:].reshape(shape), "overlap")):
            with pytest.raises(ValueError, match=match):
                apply(f, offsets, coeffs, out=out)
