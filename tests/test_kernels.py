"""The zero-extended stencil kernels and shift against a loop oracle."""

import numpy as np
import pytest

from carlat import _kernels as K
from carlat.lattice import shift_values


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
