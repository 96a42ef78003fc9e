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
c * (+-0).  Any other input is read through ``overlap_slices``, one
d-dimensional slice pair per offset.  Both reads give the same bits.

The result is written in place of a zero-filled accumulator: the first
term is stored as 0.0 + c * read, and only the sites it misses are set to
+0.0.  Since 0.0 + x = x + 0.0 bit for bit, that is the zero-filled sum's
first addition, and +0.0 + (-0.0) = +0.0, so the result holds no -0.0
where c * read gives one.  Later terms add to a value that is never -0.0,
and an exact zero sum rounds to +0.0, so for finite c a wrapped flat read
changes no bit.  The shapes and offsets fix which offsets are kept, the
reach and the flat slice pairs; that plan is computed once per (shape,
offsets) and cached.
"""

import functools
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


@functools.lru_cache(maxsize=256)
def _plan(shape, offsets):
    """The read plan of ``offsets`` (a tuple of tuples) on a box of ``shape``:
    the indices of the offsets that read something, their reach over the
    trailing axes, and each kept offset's flat (dst, src) slice pair."""
    kept = tuple(k for k, o in enumerate(offsets)
                 if all(abs(a) < size for a, size in zip(o, shape)))
    reach = max((abs(a) for k in kept for a in offsets[k][1:]), default=0)
    n = math.prod(shape)
    # a kept offset's step is below n in size
    flat = tuple(((slice(0, n - s),), (slice(s, n),)) if s >= 0 else ((slice(-s, n),), (slice(0, n + s),))
                 for s in flat_steps(shape, [offsets[k] for k in kept]))
    return kept, reach, flat


def _apply(values, offsets, coeffs, name, out=None):
    """out(n) = sum_k c_k(n) f(n + off_k), each c_k a float or a box-shaped
    array.  ``out``, when given, is a C-contiguous float64 array of the
    input's shape that does not overlap it; it is written and returned."""
    f = np.ascontiguousarray(values, dtype=np.float64)
    shape = f.shape
    off = np.asarray(offsets, dtype=np.int64)
    if off.ndim != 2 or off.shape[1] != f.ndim:
        raise ValueError("offsets must have shape (k, d)")
    if len(off) != len(coeffs):
        raise ValueError(f"{len(off)} offsets but {len(coeffs)} {name}")
    if out is None:
        out = np.empty_like(f)
    elif not (isinstance(out, np.ndarray) and out.shape == shape
              and out.dtype == np.float64 and out.flags.c_contiguous):
        raise ValueError("out must be a C-contiguous float64 array of the input's shape")
    elif np.may_share_memory(out, f):
        raise ValueError("out must not overlap the input")
    kept, reach, flat = _plan(shape, tuple(map(tuple, off.tolist())))
    if not kept:
        out.fill(0.0)
        return out
    acc = out
    if zero_frame(f, reach, range(1, f.ndim)):
        acc, f, pairs = out.reshape(-1), f.reshape(-1), flat
    else:
        pairs = [overlap_slices(shape, off[k]) for k in kept]
    # the sites the first term misses start at +0.0
    for a, s in enumerate(pairs[0][0]):
        head = (slice(None),) * a
        acc[head + (slice(0, s.start),)] = 0.0
        acc[head + (slice(s.stop, acc.shape[a]),)] = 0.0
    buf = None
    for i, ((dst, src), k) in enumerate(zip(pairs, kept)):
        read, c, part = f[src], coeffs[k], acc[dst]
        if isinstance(c, float) and abs(c) == 1.0:
            # weights +-1 add or subtract in place; the first stores 0.0 +- read
            (np.add if c > 0 else np.subtract)(part if i else 0.0, read, out=part)
            continue
        if not isinstance(c, float):
            # a per-site array, indexed like the accumulator
            c = c.reshape(acc.shape)[dst]
        if i == 0:
            np.multiply(read, c, out=part)
            part += 0.0
            continue
        # the other products share one buffer
        if buf is None:
            buf = np.empty(out.size)
        part += np.multiply(read, c, out=buf[:read.size].reshape(read.shape))
    return out


def apply_stencil_const(values, offsets, weights, out=None):
    return _apply(values, offsets, np.asarray(weights, dtype=np.float64).tolist(), "weights", out)


def apply_stencil_var(values, offsets, coeffs):
    return _apply(values, offsets, coeffs, "coefficient arrays")
