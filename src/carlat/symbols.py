"""Fourier symbols of the frozen-coefficient operators and margin scans.

Freezing the weight derivatives at a base point turns the symmetric and
antisymmetric parts into constant-coefficient stencils diagonalized by the
lattice Fourier transform, with real symbols (theta_j = h xi_j)

    p_r(xi) = sum_j [-4 h^-2 sin^2(theta_j/2) + g_j^2 cos(theta_j)]
    p_i(xi) = sum_j 2 g_j h^-1 sin(theta_j)

where g = grad phi(x_bar), and the commutator quadratic form has symbol

    q(xi) = sum_jk [4 h^-2 sin(theta_j) sin(theta_k) H_jk
                    + H_jk ((g_j+g_k)^2 cos(theta_j - theta_k)
                            - (g_j-g_k)^2 cos(theta_j + theta_k))]

with H = hess phi(x_bar).  The scan of

    margin(xi) = (p_r^2 + p_i^2 + c0 tau q)
                 / (tau^4 + tau^2 sum_j h^-2 sin^2 + sum_j h^-4 sin^4)

over the frequency torus measures how much ellipticity plus commutator
positivity survive; its minimum sits near the joint characteristic set
{|xi| = |g|, g . xi = 0}.  Each term is a sum of per-axis factors, so the
scans evaluate the trig on the 1-D frequency axis and broadcast; the
pointwise functions below are their reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .weight import WeightParams, phi_eval

FREQUENCY_AXES_MIN = 8
# Largest grid a SymbolGrid accepts: 4096^2 and 256^3 pass, 512^3 does not.
MAX_GRID_POINTS = 2 ** 25
# scan_table, the --grid-csv table, holds five float64 grids at its peak
# (measured at 4096^2); lower_bound_margin streams and holds none.
SCAN_BYTES_PER_POINT = 40
# Grid points per slab of lower_bound_margin (slab sizes in notes/decisions.md).
SCAN_BLOCK_POINTS = 2 ** 17
# search of empirical_c1 for the high-frequency region split
C1_CANDIDATES = tuple(range(1, 41))
C1_FLOOR = 1.0 / 256.0


@dataclass(frozen=True, eq=False)
class FrozenPoint:
    """Base point with frozen weight gradient/Hessian plus (tau, h)."""

    x_bar: tuple
    grad_phi: np.ndarray
    hess_phi: np.ndarray
    tau: float
    h: float

    def __post_init__(self):
        x = tuple(float(c) for c in self.x_bar)
        g = np.asarray(self.grad_phi, dtype=np.float64)
        hs = np.asarray(self.hess_phi, dtype=np.float64)
        d = len(x)
        if g.shape != (d,) or hs.shape != (d, d):
            raise ValueError("gradient/Hessian shapes do not match the point")
        if not np.allclose(hs, hs.T, rtol=0, atol=1e-14):
            raise ValueError("Hessian must be symmetric")
        if not (self.tau > 0 and self.h > 0):
            raise ValueError("tau and h must be positive")
        object.__setattr__(self, "x_bar", x)
        object.__setattr__(self, "grad_phi", g)
        object.__setattr__(self, "hess_phi", hs)

    @property
    def d(self) -> int:
        return len(self.x_bar)

    @classmethod
    def from_weight(cls, x_bar, params: WeightParams, h: float) -> "FrozenPoint":
        x = np.asarray(x_bar, dtype=np.float64)
        r = float(np.linalg.norm(x))
        if not 0.5 < r < 2.0:
            raise ValueError("base point must lie in the annulus 1/2 < |x| < 2")
        ev = phi_eval(x, params)
        return cls(tuple(x), ev.gradient, ev.hessian, params.tau, h)


@dataclass(frozen=True)
class SymbolGrid:
    """Uniform frequency grid covering the torus (-pi/h, pi/h]^d."""

    d: int
    h: float
    resolution: int = 64

    def __post_init__(self):
        if self.resolution < FREQUENCY_AXES_MIN:
            raise ValueError(f"resolution must be at least {FREQUENCY_AXES_MIN}")
        points = self.resolution ** self.d
        if points > MAX_GRID_POINTS:
            raise ValueError(
                f"frequency grid {self.resolution}^{self.d} has {points} points, above "
                f"MAX_GRID_POINTS = {MAX_GRID_POINTS}; its per-frequency table (scan_table, "
                f"the --grid-csv output) would need about {points * SCAN_BYTES_PER_POINT} "
                f"bytes")

    def axis(self) -> np.ndarray:
        step = 2 * np.pi / (self.h * self.resolution)
        return -np.pi / self.h + step * np.arange(1, self.resolution + 1)

    def mesh(self) -> np.ndarray:
        """Frequency points, shape (d,) + (resolution,)*d."""
        ax = self.axis()
        return np.stack(np.meshgrid(*([ax] * self.d), indexing="ij"))


def _bc(vec, xi):
    """Broadcast a length-d vector against a (d,)+grid frequency array."""
    return np.asarray(vec).reshape((-1,) + (1,) * (np.ndim(xi) - 1))


def symbol_pr(xi, fp: FrozenPoint):
    """Symbol of the frozen symmetric part."""
    xi = np.asarray(xi, dtype=np.float64)
    th = fp.h * xi
    g2 = _bc(fp.grad_phi ** 2, xi)
    out = (-4.0 / fp.h ** 2 * np.sin(th / 2) ** 2 + g2 * np.cos(th)).sum(axis=0)
    return out if np.ndim(out) else float(out)


def symbol_pi(xi, fp: FrozenPoint):
    """Symbol of i times the frozen antisymmetric part."""
    xi = np.asarray(xi, dtype=np.float64)
    th = fp.h * xi
    g = _bc(fp.grad_phi, xi)
    out = (2.0 * g / fp.h * np.sin(th)).sum(axis=0)
    return out if np.ndim(out) else float(out)


def symbol_q(xi, fp: FrozenPoint):
    """Exact trigonometric symbol of the frozen commutator form."""
    xi = np.asarray(xi, dtype=np.float64)
    th = fp.h * xi
    g = fp.grad_phi
    hess = fp.hess_phi
    out = np.zeros(th.shape[1:])
    for j in range(fp.d):
        for k in range(fp.d):
            out += 4.0 / fp.h ** 2 * np.sin(th[j]) * np.sin(th[k]) * hess[j, k]
            out += hess[j, k] * ((g[j] + g[k]) ** 2 * np.cos(th[j] - th[k])
                                 - (g[j] - g[k]) ** 2 * np.cos(th[j] + th[k]))
    return out if np.ndim(out) else float(out)


def char_set_distance(xi, fp: FrozenPoint):
    """Euclidean distance to the equator set {|z| = |g|, g . z = 0}.

    Splitting xi into components parallel and perpendicular to g, the
    nearest point of the set is the perpendicular direction rescaled to
    radius |g|, so the distance is hypot(parallel, |perp| - |g|); for xi on
    the g axis every equator point is nearest, at hypot(parallel, |g|),
    which the same expression yields.  In one dimension the set is empty.
    """
    rho = float(np.linalg.norm(fp.grad_phi))
    if rho == 0.0:
        raise ValueError("degenerate frozen point")
    xi = np.asarray(xi, dtype=np.float64)
    if fp.d == 1:
        shape = xi.shape[1:] if xi.ndim > 1 else ()
        out = np.full(shape, np.inf)
        return out if shape else float("inf")
    ghat = _bc(fp.grad_phi / rho, xi)
    par = (xi * ghat).sum(axis=0)
    # vector residual instead of sqrt(|xi|^2 - par^2): no cancellation blowup
    # for xi nearly parallel to the gradient
    perp = np.sqrt(((xi - par * ghat) ** 2).sum(axis=0))
    out = np.hypot(par, perp - rho)
    return out if np.ndim(out) else float(out)


def margin_denominator(xi, fp: FrozenPoint):
    th = fp.h * np.asarray(xi, dtype=np.float64)
    s2 = np.sin(th) ** 2
    return (fp.tau ** 4 + fp.tau ** 2 / fp.h ** 2 * s2.sum(axis=0)
            + (s2 ** 2).sum(axis=0) / fp.h ** 4)


@dataclass(frozen=True)
class RegionStat:
    min_margin: float | None
    argmin_xi: tuple | None
    count: int


@dataclass(frozen=True)
class MarginScan:
    """Result of a full-torus margin scan."""

    min_margin: float
    argmin_xi: tuple
    resolution: int
    c0: float
    gamma0: float
    c1_split: float | None
    regions: dict


def _along(v, j: int, d: int) -> np.ndarray:
    """Per-axis vector v laid along axis j of a d-dimensional grid."""
    return v.reshape((1,) * j + (-1,) + (1,) * (d - 1 - j))


def _outer_sum(vectors, start=0.0, out=None) -> np.ndarray:
    """start + sum_j v_j(xi_j) on the grid, summed in axis order like a mesh.

    Only the last addition spans the whole grid; it goes into ``out``.
    """
    d = len(vectors)
    head = start
    for j in range(d - 1):
        head = head + _along(vectors[j], j, d)
    return np.add(head, _along(vectors[-1], d - 1, d), out=out)


def _slabs(res: int, d: int) -> list:
    """Row slices of axis 0 of a res^d block holding about SCAN_BLOCK_POINTS points each."""
    step = max(1, SCAN_BLOCK_POINTS // res ** (d - 1))
    return [slice(r0, min(r0 + step, res)) for r0 in range(0, res, step)]


def _run(keep: np.ndarray) -> slice:
    """Indices of the sorted frequency axis where ``keep`` holds, for a
    predicate like |xi_j| <= r that holds on one run of the axis."""
    idx = np.flatnonzero(keep)
    return slice(idx[0], idx[-1] + 1) if idx.size else slice(0, 0)


def _on_slab(v: np.ndarray, rows: slice, d: int) -> list:
    """Per-axis copies of the 1-D axis vector v, axis 0 cut to the slab's rows."""
    return [v[rows]] + [v] * (d - 1)


def _axis_trig(fp: FrozenPoint, grid: SymbolGrid):
    """Axis, sin(theta), cos(theta) and sin^2(theta/2) on the 1-D axis."""
    ax = grid.axis()
    th = fp.h * ax
    return ax, np.sin(th), np.cos(th), np.sin(th / 2) ** 2


def _slab_pr(fp: FrozenPoint, trig, rows: slice) -> np.ndarray:
    """``symbol_pr`` on the slab, with the same per-point arithmetic."""
    _, _, c, w = trig
    return _outer_sum([-4.0 / fp.h ** 2 * wj + gj ** 2 * cj for gj, wj, cj
                       in zip(fp.grad_phi, _on_slab(w, rows, fp.d), _on_slab(c, rows, fp.d))])


def _slab_norm(ax: np.ndarray, rows: slice, d: int) -> np.ndarray:
    norm = _outer_sum([v ** 2 for v in _on_slab(ax, rows, d)])
    return np.sqrt(norm, out=norm)


def _pair(u: float, v: float, s: np.ndarray, c: np.ndarray, rows: slice) -> np.ndarray:
    """u s_j s_k + v c_j c_k on rows of axis j by all of axis k, as one product.

    numpy hands a one-row product to gemv, which rounds differently from the
    gemm that every longer slab gets, so a one-row slab is computed as two.
    """
    lo = min(rows.start, s.size - 2)
    hi = max(rows.stop, lo + 2)
    pair = np.stack([u * s[lo:hi], v * c[lo:hi]], axis=1) @ np.stack([s, c])
    return pair[rows.start - lo:rows.stop - lo]


def _margin_terms(fp: FrozenPoint, trig, c0: float, rows: slice) -> dict:
    """p_r, p_i, q and the margin on the slab axis[rows] x axis^(d-1), from
    ``_axis_trig``'s trig on the 1-D axis, computed once per scan.

    p_r, p_i and the denominator are outer sums of per-axis vectors.  With
    cos(a -+ b) = cos a cos b +- sin a sin b, the diagonal of q is the outer
    sum of H_jj (4 h^-2 s_j^2 + 4 g_j^2) and each off-diagonal pair, both
    orders together, adds the rank-2 product
    2 H_jk [(4 h^-2 + 2 (g_j^2 + g_k^2)) s_j s_k + 4 g_j g_k c_j c_k].
    Only the axis-0 vectors are cut to the slab, so each point gets the
    arithmetic of the whole grid and the same bits.
    """
    d, h, tau = fp.d, fp.h, fp.tau
    g, hess = fp.grad_phi, fp.hess_phi
    ax, s, c, _ = trig
    sv = _on_slab(s, rows, d)
    pr = _slab_pr(fp, trig, rows)
    pi = _outer_sum([2.0 * gj / h * sj for gj, sj in zip(g, sv)])
    q = _outer_sum([hess[j, j] * (4.0 / h ** 2 * sv[j] ** 2 + 4.0 * g[j] ** 2)
                    for j in range(d)])
    for j in range(d):
        for k in range(j + 1, d):
            a = 2.0 * hess[j, k] * (4.0 / h ** 2 + 2.0 * (g[j] ** 2 + g[k] ** 2))
            b = 8.0 * hess[j, k] * g[j] * g[k]
            pair = _pair(a, b, s, c, rows if j == 0 else slice(0, s.size))
            q += pair.reshape([q.shape[i] if i in (j, k) else 1 for i in range(d)])
            del pair  # the whole slab at d = 2
    margin = np.multiply(pr, pr)
    tmp = np.multiply(pi, pi)
    margin += tmp
    margin += np.multiply(q, c0 * tau, out=tmp)
    s2 = [sj ** 2 for sj in sv]
    den = _outer_sum([tau ** 2 / h ** 2 * v + v ** 2 / h ** 4 for v in s2],
                     start=tau ** 4, out=tmp)
    margin /= den
    return {"axis": ax, "p_r": pr, "p_i": pi, "q": q, "denominator": den,
            "margin": margin}


def scan_table(fp: FrozenPoint, grid: SymbolGrid, c0: float):
    """Per-frequency table used by the CSV emitter: the 1-D axis and the
    flattened (C-order) p_r, p_i, q and margin over ``grid.mesh()``.

    The values are those ``lower_bound_margin`` minimizes.  This table is
    the one caller that holds whole grids: five float64 grids at its peak.
    """
    t = _margin_terms(fp, _axis_trig(fp, grid), c0, slice(0, grid.resolution))
    return {
        "axis": t["axis"],
        "p_r": t["p_r"].ravel(),
        "p_i": t["p_i"].ravel(),
        "q": t["q"].ravel(),
        "margin": t["margin"].ravel(),
    }


def _slab_worst(fp: FrozenPoint, trig, rows: slice) -> float:
    """Largest |xi| on the slab with p_r^2 < C1_FLOOR |xi|^4 or a NaN ratio, or -inf."""
    pr, norm = _slab_pr(fp, trig, rows), _slab_norm(trig[0], rows, fp.d)
    # pr ** 2 / norm ** 4, written into pr: three slabs at the peak
    np.square(pr, out=pr)
    with np.errstate(divide="ignore", invalid="ignore"):
        bad = ~(np.divide(pr, np.power(norm, 4.0), out=pr) >= C1_FLOOR)
    return float(norm[bad].max()) if bad.any() else -np.inf


def empirical_c1(fp: FrozenPoint, grid: SymbolGrid) -> float | None:
    """Smallest region-split constant with p_r^2 >= C1_FLOOR * |xi|^4 beyond C1*tau.

    The floor keeps headroom for absorbing the commutator term; bare
    positivity right at the sign change would be useless for the split.
    Returns None when no candidate of C1_CANDIDATES achieves it on a
    nonempty region.

    A candidate's region {|xi| >= c1 tau} passes when it holds no point with
    p_r^2 < C1_FLOOR |xi|^4 (or a NaN ratio), i.e. when c1 tau exceeds the
    largest |xi| among those points (``worst``) and no more than the
    largest |xi| of all (``top``).

    No such point lies far out: sin^2(theta/2) >= (theta/pi)^2 on
    |theta| <= pi and g_j^2 cos(theta_j) <= g_j^2 give
    -p_r >= (4/pi^2) |xi|^2 - |g|^2, which is at least sqrt(C1_FLOOR) |xi|^2
    once |xi|^2 >= |g|^2 / (4/pi^2 - sqrt(C1_FLOOR)).  So ``worst`` is found
    on the box |xi_j| <= twice that reach plus one grid step, walked in
    slabs; outside it |p_r| clears sqrt(C1_FLOOR) |xi|^2 by a factor of
    about 5, far beyond rounding.  ``top`` is the norm at the corner
    |xi_j| = max|axis|: the computed norm grows with every |xi_j|.
    """
    trig = _axis_trig(fp, grid)
    ax, d = trig[0], fp.d
    rho2 = float(np.sum(fp.grad_phi ** 2))
    slack = 4.0 / np.pi ** 2 - np.sqrt(C1_FLOOR)
    box = slice(0, grid.resolution)
    if slack > 0.0 and rho2 > 0.0:
        box = _run(np.abs(ax) <= 2.0 * np.sqrt(rho2 / slack) + (ax[1] - ax[0]))
    trig = tuple(v[box] for v in trig)
    worst = max((_slab_worst(fp, trig, rows) for rows in _slabs(trig[0].size, d)),
                default=-np.inf)
    top = float(_slab_norm(np.abs(ax).max(keepdims=True), slice(0, 1), d).max())
    for c1 in C1_CANDIDATES:
        if not c1 * fp.tau <= top:
            return None
        if c1 * fp.tau > worst:
            return float(c1)
    return None


REGIONS = ("high_frequency", "characteristic_neighborhood", "low_frequency")


def _fold(found: dict, keys: tuple, values: np.ndarray, start: tuple) -> None:
    """Keep the smallest of ``values`` and its grid index under each of ``keys``.

    ``values`` is the block of the grid whose first point has index
    ``start``.  Blocks come in C order of their rows, and a later block must
    be strictly smaller, so ties keep the first point in C order, as one
    argmin over the whole grid would.
    """
    at = np.unravel_index(int(np.argmin(values)), values.shape)
    v = float(values[at])
    index = tuple(int(s + i) for s, i in zip(start, at))
    for key in keys:
        if key not in found or v < found[key][0]:
            found[key] = (v, index)


def lower_bound_margin(fp: FrozenPoint, c0: float, grid: SymbolGrid,
                       gamma0: float = 0.05) -> MarginScan:
    """Minimize the normalized symbol margin over the frequency grid.

    The breakdown reports the minimum separately over the high-frequency
    elliptic region |xi| >= C1 tau, the neighborhood of the joint
    characteristic set (distance <= gamma0 tau), and the remaining
    low-frequency region.  Ties resolve to the lexicographically smallest
    grid index (C-order argmin).

    The grid is scanned in slabs of about SCAN_BLOCK_POINTS points along
    frequency axis 0, keeping only running minima, argmins and counts.  C1
    is ``empirical_c1``, which walks only a box around the origin.  A point
    with some |xi_j| >= C1 tau is high-frequency, since sqrt(fl(x x)) = |x|
    and more non-negative squares only raise the sum; so the regions are
    told apart only on the box |xi_j| < C1 tau, and a slab outside it is
    all high.

    For the convexified weight the minimum is positive only when the
    coupling stays below the pseudoconvexity, c0 < c_ps/(1 + log^2|x_bar|):
    radially around the characteristic set the numerator bottoms out at
    about 4 c0 tau^4 (varphi'/r)^2 (c_ps/(1 + log^2 r) - c0).  That is the
    continuum threshold; the h-corrections of the discrete symbols shift
    it (upward, by about 1.65x at tau = 20, h = 1/128, c_ps = 0.01).
    """
    d, tau, res = fp.d, fp.tau, grid.resolution
    c1_split = empirical_c1(fp, grid)
    trig = _axis_trig(fp, grid)
    ax = trig[0]
    t = np.inf if c1_split is None else c1_split * tau
    box = _run(np.abs(ax) < t)
    b0, b1 = box.start, box.stop
    lo = hi = 0
    rho = float(np.linalg.norm(fp.grad_phi))
    if d > 1 and rho > 0.0:
        # |xi| <= rho + distance: the neighborhood lies in this box, and one
        # more grid step absorbs rounding; outside the region box it is high
        run = _run((np.abs(ax) <= rho + gamma0 * tau + (ax[1] - ax[0])) & (np.abs(ax) < t))
        lo, hi = run.start, run.stop
        if lo < hi:
            box_xi = np.stack(np.meshgrid(*[ax[lo:hi]] * d, indexing="ij"))
            near_box = char_set_distance(box_xi, fp) <= gamma0 * tau

    found, counts = {}, dict.fromkeys(REGIONS, 0)
    for rows in _slabs(res, d):
        margin = _margin_terms(fp, trig, c0, rows)["margin"]
        start = (rows.start,) + (0,) * (d - 1)
        # the slab's rows of the region box, if any
        r0, r1 = max(rows.start, b0), min(rows.stop, b1)
        if r0 >= r1:
            counts["high_frequency"] += margin.size
            _fold(found, ("grid", "high_frequency"), margin, start)
            continue
        _fold(found, ("grid",), margin, start)
        # the slab's points of the box that are not high, and which of them are near
        other = _slab_norm(ax[box], slice(r0 - b0, r1 - b0), d) < t
        near = np.zeros(other.shape, bool)
        n0, n1 = max(r0, lo), min(r1, hi)
        if n0 < n1:
            cut = (slice(n0 - r0, n1 - r0),) + (slice(lo - b0, hi - b0),) * (d - 1)
            near[cut] = near_box[n0 - lo:n1 - lo] & other[cut]
        sub = (slice(r0 - rows.start, r1 - rows.start),) + (box,) * (d - 1)
        block_start = (r0,) + (b0,) * (d - 1)
        for name, mask in zip(REGIONS[1:], (near, other & ~near)):
            n = int(np.count_nonzero(mask))
            if n:
                counts[name] += n
                _fold(found, (name,), np.where(mask, margin[sub], np.inf), block_start)
        n = margin.size - int(np.count_nonzero(other))
        if n:
            counts["high_frequency"] += n
            margin[sub][other] = np.inf  # in place; the slab's points outside the box are high
            _fold(found, ("high_frequency",), margin, start)

    def stat(key):
        value, index = found[key]
        return value, tuple(float(ax[i]) for i in index)

    regions = {name: RegionStat(*stat(name), counts[name]) if counts[name]
               else RegionStat(None, None, 0) for name in REGIONS}
    return MarginScan(*stat("grid"), res, c0, gamma0, c1_split, regions)
