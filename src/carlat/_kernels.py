"""Zero-extended stencil kernels (NumPy slice-and-accumulate).

Every lattice operator in this package reduces to one of two primitives,
evaluated with zero extension outside the array:

* ``apply_stencil_const``: out(n) = sum_k w_k * f(n + off_k), scalar weights
* ``apply_stencil_var``:   out(n) = sum_k c_k(n) * f(n + off_k), per-site
  coefficient arrays

Both, and ``lattice.shift_values``, read f(n + off) through ``overlap_slices``.
"""

import numpy as np

# The stencil kernels have one implementation, in NumPy.
kernel_backend = "python"


def overlap_slices(shape, off):
    """Slice pair (dst, src) so that out[dst] reads f[src] = f(n + off).

    Returns None when the offset moves everything outside the array.
    """
    dst, src = [], []
    for o, size in zip(off, shape):
        o = int(o)
        if abs(o) >= size:
            return None
        if o >= 0:
            dst.append(slice(0, size - o))
            src.append(slice(o, size))
        else:
            dst.append(slice(-o, size))
            src.append(slice(0, size + o))
    return tuple(dst), tuple(src)


def _as_offsets(offsets, ndim):
    off = np.asarray(offsets, dtype=np.int64)
    if off.ndim != 2 or off.shape[1] != ndim:
        raise ValueError("offsets must have shape (k, d)")
    return off


def apply_stencil_const(values, offsets, weights):
    values = np.ascontiguousarray(values, dtype=np.float64)
    off = _as_offsets(offsets, values.ndim)
    out = np.zeros_like(values)
    for o, w in zip(off, np.asarray(weights, dtype=np.float64)):
        pair = overlap_slices(values.shape, o)
        if pair is None:
            continue
        dst, src = pair
        out[dst] += w * values[src]
    return out


def apply_stencil_var(values, offsets, coeffs):
    values = np.ascontiguousarray(values, dtype=np.float64)
    off = _as_offsets(offsets, values.ndim)
    out = np.zeros_like(values)
    for o, c in zip(off, coeffs):
        pair = overlap_slices(values.shape, o)
        if pair is None:
            continue
        dst, src = pair
        out[dst] += c[dst] * values[src]
    return out
