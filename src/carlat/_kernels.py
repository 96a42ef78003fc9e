"""Zero-extended stencil kernels (NumPy shift-and-accumulate).

Every lattice operator in this package reduces to one of two primitives,
evaluated with zero extension outside the array:

* ``apply_stencil_const``: out(n) = sum_k w_k * f(n + off_k), scalar weights
* ``apply_stencil_var``:   out(n) = sum_k c_k(n) * f(n + off_k), per-site
  coefficient arrays

The constant kernel works on the C-order flat index.  An offset o is one
fixed step ``o @ strides`` there, so each offset is a single contiguous
1-D update ``out.ravel()[dst] += f.ravel()[src]`` instead of a strided
d-dimensional one.  Steps that leave the flat range read nothing, which is
the zero extension along axis 0.  A flat step wraps across the trailing
axes, though: where n + o leaves the box along a trailing axis, the flat
read lands on the outermost ``reach`` layers of the innermost such axis
(``reach`` the largest |o_a| over the trailing axes), not outside the box.
When f is zero on that frame, each wrapped read adds a zero, as the zero
extension would, and the result is bit-equal to the per-axis slices'.  The
accumulator starts at +0.0 and an exact zero sum rounds to +0.0, so it
never holds -0.0 and adding a zero changes no bit.  Any other input is
first copied into a buffer with ``reach`` zero layers after each trailing
axis, where every wrapped read lands in that padding.

The variable kernel, and ``lattice.shift_values``, read f(n + off) through
``overlap_slices``: P_h's broadcast constant coefficients
(``lattice.schrodinger_stencil``) are stride-0 views with no flat range to
shift, and a shift is one copy, not an accumulation.
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


def _as_offsets(offsets, ndim, terms, name):
    off = np.asarray(offsets, dtype=np.int64)
    if off.ndim != 2 or off.shape[1] != ndim:
        raise ValueError("offsets must have shape (k, d)")
    if len(off) != len(terms):
        raise ValueError(f"{len(off)} offsets but {len(terms)} {name}")
    return off


def _zero_frame(values, reach):
    """True when values vanish on the outermost ``reach`` layers of every
    trailing axis."""
    for a, size in enumerate(values.shape[1:], start=1):
        head = (slice(None),) * a
        if (values[head + (slice(0, reach),)].any()
                or values[head + (slice(max(size - reach, 0), size),)].any()):
            return False
    return True


def _flat_shifts(values, steps, weights):
    """sum_k w_k f(i + step_k) on the flat index i, reads outside [0, N) zero."""
    flat = values.reshape(-1)
    out = np.zeros_like(values)
    acc, n = out.reshape(-1), flat.size
    product = None
    for k, w in zip(steps, weights):
        dst, src = (slice(0, n - k), slice(k, n)) if k >= 0 else (slice(-k, n), slice(0, n + k))
        # weights +-1 add or subtract in place; other products share one buffer
        if w == 1.0:
            acc[dst] += flat[src]
        elif w == -1.0:
            acc[dst] -= flat[src]
        else:
            if product is None:
                product = np.empty(n)
            term = np.multiply(flat[src], w, out=product[:n - abs(k)])
            acc[dst] += term
    return out


def apply_stencil_const(values, offsets, weights):
    values = np.ascontiguousarray(values, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64).tolist()
    shape = values.shape
    # offsets that move everything outside the box read nothing
    kept = [(o, w) for o, w in zip(_as_offsets(offsets, values.ndim, weights, "weights").tolist(),
                                   weights)
            if all(abs(c) < size for c, size in zip(o, shape))]
    reach = max((abs(c) for o, _ in kept for c in o[1:]), default=0)
    padded = reach > 0 and not _zero_frame(values, reach)
    src = values
    if padded:
        box = tuple(slice(0, size) for size in shape)
        src = np.empty(shape[:1] + tuple(size + reach for size in shape[1:]))
        src[box] = values
        for a, size in enumerate(shape[1:], start=1):
            src[(slice(None),) * a + (slice(size, None),)] = 0.0
    strides = [s // src.itemsize for s in src.strides]
    steps = [sum(c * s for c, s in zip(o, strides)) for o, _ in kept]
    out = _flat_shifts(src, steps, [w for _, w in kept])
    if not padded:
        return out
    # the padded buffer is read no more: its head takes the cut, in C order
    cut = src.reshape(-1)[:values.size].reshape(shape)
    cut[...] = out[box]
    return cut


def apply_stencil_var(values, offsets, coeffs):
    values = np.ascontiguousarray(values, dtype=np.float64)
    off = _as_offsets(offsets, values.ndim, coeffs, "coefficient arrays")
    out = np.zeros_like(values)
    for o, c in zip(off, coeffs):
        pair = overlap_slices(values.shape, o)
        if pair is None:
            continue
        dst, src = pair
        out[dst] += c[dst] * values[src]
    return out
