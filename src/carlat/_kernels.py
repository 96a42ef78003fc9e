"""Zero-extended stencil kernels (NumPy shift-and-accumulate).

Every lattice operator in this package is out(n) = sum_k c_k(n) f(n + off_k),
evaluated with zero extension outside the array, through one routine with
two entries:

* ``apply_stencil_const``: each c_k a number (the weights of D, D^2, Lap)
* ``apply_stencil_var``:   each c_k a box-shaped array (P_h, S, A, L),
  stride-0 broadcasts of a number included

Offsets that move everything outside the box read nothing and are dropped.
How f(n + off) is read is chosen from the input.  When f is zero on the
outermost ``reach`` layers of every trailing axis (``reach`` the largest
|off_a| over the trailing axes), each offset is one fixed step
``off @ C-strides`` of the flat index (``flat_steps``) and one contiguous
1-D update ``acc[dst] += c.reshape(-1)[dst] * f.ravel()[src]``.  A step
that leaves the flat range reads nothing, the zero extension along axis 0;
a read that wraps across a trailing axis lands on the zero frame and adds
c * (+-0).  The accumulator starts at +0.0 and an exact zero sum rounds to
+0.0, so it never holds -0.0 and, for finite c, such a term changes no
bit.  Any other input is read through ``overlap_slices``, one
d-dimensional slice pair per offset.  Both reads give the same bits.
"""

import math

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


def flat_steps(shape, offsets):
    """Each offset's step ``o @ C-strides`` on the C-order flat index of a
    box of ``shape``: exact for the sites whose neighbour n + o is in the box."""
    strides = [math.prod(shape[a + 1:]) for a in range(len(shape))]
    return [sum(c * s for c, s in zip(o, strides)) for o in offsets]


def zero_frame(values, reach, axes):
    """True when values vanish on the outermost ``reach`` layers of each of
    ``axes``."""
    for a in axes:
        head, size = (slice(None),) * a, values.shape[a]
        if (values[head + (slice(0, reach),)].any()
                or values[head + (slice(max(size - reach, 0), size),)].any()):
            return False
    return True


def _apply(values, offsets, coeffs, name):
    """out(n) = sum_k c_k(n) f(n + off_k), each c_k a float or a box-shaped array."""
    f = np.ascontiguousarray(values, dtype=np.float64)
    shape = f.shape
    off = np.asarray(offsets, dtype=np.int64)
    if off.ndim != 2 or off.shape[1] != f.ndim:
        raise ValueError("offsets must have shape (k, d)")
    if len(off) != len(coeffs):
        raise ValueError(f"{len(off)} offsets but {len(coeffs)} {name}")
    # offsets that move everything outside the box read nothing
    kept = [(o, c) for o, c in zip(off.tolist(), coeffs)
            if all(abs(a) < size for a, size in zip(o, shape))]
    reach = max((abs(a) for o, _ in kept for a in o[1:]), default=0)
    out = acc = np.zeros_like(f)
    if zero_frame(f, reach, range(1, f.ndim)):
        acc, f, n = out.reshape(-1), f.reshape(-1), f.size
        pairs = [(slice(0, n - k), slice(k, n)) if k >= 0 else (slice(-k, n), slice(0, n + k))
                 for k in flat_steps(shape, [o for o, _ in kept])]
    else:
        pairs = [overlap_slices(shape, o) for o, _ in kept]
    buf = None
    for (dst, src), (_, c) in zip(pairs, kept):
        read = f[src]
        if isinstance(c, float):
            # weights +-1 add or subtract in place
            if c == 1.0:
                acc[dst] += read
                continue
            if c == -1.0:
                acc[dst] -= read
                continue
        else:
            # a per-site array, indexed like the accumulator
            c = c.reshape(acc.shape)[dst]
        # the other products share one buffer
        if buf is None:
            buf = np.empty(out.size)
        acc[dst] += np.multiply(read, c, out=buf[:read.size].reshape(read.shape))
    return out


def apply_stencil_const(values, offsets, weights):
    return _apply(values, offsets, np.asarray(weights, dtype=np.float64).tolist(), "weights")


def apply_stencil_var(values, offsets, coeffs):
    return _apply(values, offsets, coeffs, "coefficient arrays")
