"""Lattice geometry, difference operators, and the discrete Schrodinger operator.

Functions live on a finite index box of the lattice (h*Z)^d and are extended
by zero outside it.  All difference operators are UNSCALED (no 1/h factors);
every h^-1 or h^-2 appears explicitly at the call site, so the Schrodinger
operator reads

    P_h f(n) = h^-2 Lap f(n) + h^-1 sum_j B_j(n) (f(n+h e_j) - f(n)) + V(n) f(n)

with Lap f(n) = sum_j f(n+h e_j) + f(n-h e_j) - 2 f(n).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import apply_stencil_const, apply_stencil_var, flat_steps, overlap_slices

# Largest box a LatticeSpec accepts, as for a SymbolGrid: one float64 table
# on it is 256 MiB, and a context or an LU solve holds several.
MAX_SITES = 2 ** 25


@dataclass(frozen=True)
class LatticeSpec:
    """Dimension, spacing and inclusive index box of a finite lattice patch.

    The physical coordinate of index n is h*n componentwise.
    """

    d: int
    h: float
    lo: tuple
    hi: tuple

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        if not self.h > 0:
            raise ValueError("spacing h must be positive")
        lo = tuple(int(v) for v in self.lo)
        hi = tuple(int(v) for v in self.hi)
        if len(lo) != self.d or len(hi) != self.d:
            raise ValueError("box endpoints must have length d")
        if any(a > b for a, b in zip(lo, hi)):
            raise ValueError("box must satisfy lo <= hi componentwise")
        sites = math.prod(b - a + 1 for a, b in zip(lo, hi))
        if sites > MAX_SITES:
            raise ValueError(f"lattice box has {sites} sites, above MAX_SITES = {MAX_SITES}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def shape(self):
        return tuple(b - a + 1 for a, b in zip(self.lo, self.hi))

    def indices(self):
        """Multi-index array of shape (d,) + shape."""
        grids = np.indices(self.shape, dtype=np.int64)
        for a in range(self.d):
            grids[a] += self.lo[a]
        return grids

    def coords(self):
        """Physical coordinates h*n, shape (d,) + shape."""
        return self.indices() * self.h

    def radii(self):
        """Euclidean distance of every site from the origin."""
        r = self._squared_radii()
        return np.sqrt(r, out=r)

    def axes(self):
        """The d coordinate axes h*n as 1-D arrays; ``coords()`` is their mesh."""
        return tuple(np.arange(lo, hi + 1, dtype=np.int64) * self.h
                     for lo, hi in zip(self.lo, self.hi))

    def _squared_radii(self):
        """|h n|^2 of every site, summed axis by axis in the order of
        ``(coords() ** 2).sum(axis=0)``, without the (d,) + shape mesh."""
        r2 = 0.0
        for a, x in enumerate(self.axes()):
            r2 = r2 + (x ** 2).reshape((-1,) + (1,) * (self.d - 1 - a))
        return r2

    def covers(self, other: "LatticeSpec") -> bool:
        return (self.d == other.d and self.h == other.h
                and all(a <= b for a, b in zip(self.lo, other.lo))
                and all(a >= b for a, b in zip(self.hi, other.hi)))

    @classmethod
    def ball_box(cls, d: int, h: float, radius: float, pad_sites: int = 0):
        """Smallest box containing the ball of the given radius, plus padding."""
        m = int(np.floor(radius / h)) + pad_sites
        return cls(d, h, (-m,) * d, (m,) * d)


@dataclass(frozen=True, eq=False)
class LatticeFunction:
    """Real values on the sites of a box; zero outside it by convention."""

    spec: LatticeSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != self.spec.shape:
            raise ValueError("values shape does not match the lattice box")
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "values", v)

    def with_values(self, values) -> "LatticeFunction":
        return LatticeFunction(self.spec, values)

    def at(self, n) -> float:
        """Value at multi-index n (zero outside the box)."""
        pos = tuple(int(c) - l for c, l in zip(n, self.spec.lo))
        if any(p < 0 or p >= s for p, s in zip(pos, self.spec.shape)):
            return 0.0
        return float(self.values[pos])

    @classmethod
    def zeros(cls, spec: LatticeSpec) -> "LatticeFunction":
        return cls(spec, np.zeros(spec.shape))


@dataclass(frozen=True)
class BallRegion:
    """Open Euclidean ball about the origin; a site n belongs to it iff |h n| < radius."""

    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("radius must be positive")

    def mask(self, spec: LatticeSpec) -> np.ndarray:
        return spec._squared_radii() < self.radius ** 2


@dataclass(frozen=True)
class AnnularRegion:
    """Open annulus inner < |h n| < outer about the origin."""

    inner: float
    outer: float

    def __post_init__(self):
        if not 0 < self.inner < self.outer:
            raise ValueError("radii must satisfy 0 < inner < outer")

    def mask(self, spec: LatticeSpec) -> np.ndarray:
        # the outer ball less the closed inner ball |h n| <= inner
        return BallRegion(self.outer).mask(spec) & (spec.radii() > self.inner)

    @property
    def width(self) -> float:
        return self.outer - self.inner


@dataclass(frozen=True, eq=False)
class FieldData:
    """Potential V and tensor field B = (B_1, ..., B_d) entering P_h."""

    V: LatticeFunction
    B: tuple

    def __post_init__(self):
        B = tuple(self.B)
        if len(B) != self.V.spec.d:
            raise ValueError("B must have one component per direction")
        for b in B:
            if b.spec != self.V.spec:
                raise ValueError("field components must share one lattice spec")
        object.__setattr__(self, "B", B)

    @property
    def spec(self) -> LatticeSpec:
        return self.V.spec

    @classmethod
    def zero(cls, spec: LatticeSpec) -> "FieldData":
        z = LatticeFunction.zeros(spec)
        return cls(z, (z,) * spec.d)


def unit_offset(d: int, j: int) -> np.ndarray:
    """e_j in d dimensions; directions are 1-based, 1 <= j <= d."""
    if not 1 <= j <= d:
        raise ValueError("direction out of range")
    off = np.zeros(d, dtype=np.int64)
    off[j - 1] = 1
    return off


@functools.cache
def stencil_offsets(d: int) -> np.ndarray:
    """P_h's stencil offsets: +e_j, -e_j for j = 1..d, then the centre.

    Built once per d and shared, so the array is read-only.
    """
    off = np.stack([s * unit_offset(d, j) for j in range(1, d + 1) for s in (1, -1)]
                   + [np.zeros(d, dtype=np.int64)])
    off.flags.writeable = False
    return off


@functools.cache
def _centre_first(d: int) -> np.ndarray:
    """``stencil_offsets(d)`` with the centre first: the summation order of
    the recorded Carleman ratios, read-only."""
    off = np.roll(stencil_offsets(d), 1, axis=0)
    off.flags.writeable = False
    return off


def shift_values(values: np.ndarray, off) -> np.ndarray:
    """values(n + off) with zero extension."""
    out = np.zeros_like(values)
    pair = overlap_slices(values.shape, off)
    if pair is not None:
        dst, src = pair
        out[dst] = values[src]
    return out


def dilate(mask: np.ndarray, steps: int = 1) -> np.ndarray:
    """mask grown by ``steps`` unit-neighbour steps, clipped to the box."""
    for _ in range(steps):
        grown = mask.copy()
        for off in stencil_offsets(mask.ndim)[:-1]:
            grown |= shift_values(mask, off)
        mask = grown
    return mask


def _values(f: LatticeFunction | np.ndarray) -> np.ndarray:
    return f.values if isinstance(f, LatticeFunction) else f


def _like(f: LatticeFunction | np.ndarray, values: np.ndarray):
    """``values`` as the kind ``f`` is: a LatticeFunction on f's box, or the array."""
    return f.with_values(values) if isinstance(f, LatticeFunction) else values


def diff(f: LatticeFunction | np.ndarray, j: int, mode: str = "forward", out=None):
    """Unscaled difference in direction j (1-based).

    forward:   f(n+h e_j) - f(n)
    backward:  f(n) - f(n-h e_j)
    symmetric: (f(n+h e_j) - f(n-h e_j)) / 2

    ``f`` is a LatticeFunction or a values array on a box, and the result is
    of the same kind; ``out`` is as for ``apply_stencil_const``.
    """
    v = _values(f)
    e = unit_offset(v.ndim, j)
    if mode == "forward":
        offsets, weights = np.stack([e, 0 * e]), [1.0, -1.0]
    elif mode == "backward":
        offsets, weights = np.stack([0 * e, -e]), [1.0, -1.0]
    elif mode == "symmetric":
        offsets, weights = np.stack([e, -e]), [0.5, -0.5]
    else:
        raise ValueError(f"unknown difference mode {mode!r}")
    return _like(f, apply_stencil_const(v, offsets, weights, out=out))


def laplacian(f: LatticeFunction | np.ndarray, out=None):
    """Unscaled discrete Laplacian sum_j f(n+h e_j) + f(n-h e_j) - 2 f(n),
    of the kind of ``f`` and into ``out`` as ``diff``."""
    v = _values(f)
    d = v.ndim
    weights = [-2.0 * d] + [1.0] * (2 * d)
    return _like(f, apply_stencil_const(v, _centre_first(d), weights, out=out))


def sym_diff_sum(f: LatticeFunction | np.ndarray, out=None):
    """Summed symmetric difference sum_j (f(n+h e_j) - f(n-h e_j)) / 2, of the
    kind of ``f`` and into ``out`` as ``diff``."""
    v = _values(f)
    # P_h's offsets less the centre: +e_j, -e_j for j = 1..d
    out = apply_stencil_const(v, stencil_offsets(v.ndim)[:-1], [1.0, -1.0] * v.ndim, out=out)
    # halving the +-1 sum is exact, so this equals the +-0.5 weights' sum
    out *= 0.5
    return _like(f, out)


def _fields_on(fields: FieldData, spec: LatticeSpec):
    """Restrict field arrays to the box of spec; fields must cover it."""
    fs = fields.spec
    if not fs.covers(spec):
        raise ValueError(f"field coverage: fields on {fs} do not cover {spec}")
    sl = tuple(slice(a - b, a - b + s) for a, b, s in zip(spec.lo, fs.lo, spec.shape))
    return fields.V.values[sl], [b.values[sl] for b in fields.B]


def schrodinger_stencil(spec: LatticeSpec, fields: FieldData | None):
    """Offsets and per-site coefficient arrays of P_h on the box of spec.

    The order is that of ``stencil_offsets``: +e_j, -e_j for j = 1..d, then
    the centre -2d/h^2 + V - sum_j B_j/h, all read-only; a constant one (each
    without fields, -e_j's always) is its value broadcast over the box.
    ``fields=None`` stands for V = 0, B = 0; given fields must cover the box.
    """
    d, h = spec.d, spec.h
    v, bs = (0.0, (0.0,) * d) if fields is None else _fields_on(fields, spec)
    center = -2.0 * d / h ** 2 + v
    coeffs = []
    for j in range(1, d + 1):
        b = bs[j - 1] / h
        center = center - b
        coeffs += [1.0 / h ** 2 + b, 1.0 / h ** 2]
    return stencil_offsets(d), [np.broadcast_to(c, spec.shape) for c in coeffs + [center]]


def schrodinger_apply(f: LatticeFunction, fields: FieldData | None) -> LatticeFunction:
    """P_h f through ``schrodinger_stencil``; ``fields=None`` is V = 0, B = 0."""
    return f.with_values(apply_stencil_var(f.values, *schrodinger_stencil(f.spec, fields)))


def stencil_rows(rows: np.ndarray, cols: np.ndarray, offsets: np.ndarray, coeffs):
    """The stencil with coeffs[k] (a number or an array on the box) at
    offsets[k], as CSR rows at the sites of the mask ``rows`` over those of
    the mask ``cols`` on the same box, each counted in C order.  A row's
    neighbours lie in the box, so an offset is one flat-index step; sorted
    steps give a canonical CSR's order, and neighbours off ``cols`` drop out.
    SciPy is loaded at the first call."""
    from scipy import sparse

    steps = np.array(flat_steps(rows.shape, offsets.tolist()))
    order = np.argsort(steps)
    # int32 column numbers, SciPy's index type, and -1 off ``cols``
    number = np.where(cols.ravel(), np.cumsum(cols, dtype=np.int32) - 1, -1)
    col = number[np.flatnonzero(rows)[:, None] + steps[order]]
    keep = col >= 0
    col = col[keep]
    data = np.empty(keep.shape)
    for j, k in enumerate(order):
        data[:, j] = np.broadcast_to(coeffs[k], rows.shape)[rows]
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    return sparse.csr_matrix((data[keep], col, indptr), shape=(len(keep), np.count_nonzero(cols)))


def l2_norm(f: LatticeFunction, region: BallRegion | AnnularRegion | None = None) -> float:
    """sqrt(h^d * sum of f^2 over the region), whole box when region is None."""
    if region is None:
        total = float((f.values ** 2).sum())
    else:
        total = float((f.values[region.mask(f.spec)] ** 2).sum())
    return float(np.sqrt(f.spec.h ** f.spec.d * total))


def inner_product(f: LatticeFunction, g: LatticeFunction) -> float:
    """h^d weighted dot product; functions vanish outside their boxes."""
    fs, gs = f.spec, g.spec
    if fs.d != gs.d or fs.h != gs.h:
        raise ValueError("lattice spec mismatch")
    lo = tuple(max(a, b) for a, b in zip(fs.lo, gs.lo))
    hi = tuple(min(a, b) for a, b in zip(fs.hi, gs.hi))
    if any(a > b for a, b in zip(lo, hi)):
        return 0.0
    slf = tuple(slice(a - b, a - b + (c - a + 1)) for a, b, c in zip(lo, fs.lo, hi))
    slg = tuple(slice(a - b, a - b + (c - a + 1)) for a, b, c in zip(lo, gs.lo, hi))
    return float(fs.h ** fs.d * np.sum(f.values[slf] * g.values[slg]))


def coarsen(f: LatticeFunction, m: int) -> LatticeFunction:
    """Restriction to the sublattice (m h Z)^d, reindexed with spacing m*h."""
    if m < 1:
        raise ValueError("coarsening factor must be a positive integer")
    spec = f.spec
    if m * spec.h > 2:
        raise ValueError("coarse spacing m*h exceeds the admissible range (m*h <= 2)")
    lo_c = tuple(int(np.ceil(a / m)) for a in spec.lo)
    hi_c = tuple(int(np.floor(b / m)) for b in spec.hi)
    if any(a > b for a, b in zip(lo_c, hi_c)):
        raise ValueError("empty coarse lattice")
    sl = tuple(slice(m * a - l, m * b - l + 1, m)
               for a, b, l in zip(lo_c, hi_c, spec.lo))
    return LatticeFunction(LatticeSpec(spec.d, m * spec.h, lo_c, hi_c),
                           f.values[sl].copy())


def stretch(f: LatticeFunction, m: int) -> LatticeFunction:
    """Same index values reinterpreted on the lattice with spacing m*h.

    This is the rescaling u_m(x) = u(x/m): the value at physical point m*h*n
    of the result is the value of f at h*n.
    """
    if m < 1:
        raise ValueError("stretch factor must be a positive integer")
    spec = f.spec
    return LatticeFunction(LatticeSpec(spec.d, m * spec.h, spec.lo, spec.hi),
                           f.values.copy())

