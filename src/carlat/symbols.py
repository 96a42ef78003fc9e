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
pointwise functions below are their reference.  Every step of the scans is
elementwise, with no BLAS call, so their bits do not depend on the BLAS
kernel the CPU gets.  The scans walk the grid in tiles cut on every axis,
and ``lower_bound_margin`` skips the high-frequency tiles whose interval
lower bound on the margin lies above the running minimum; the rounding
argument is in notes/decisions.md.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .weight import WeightParams, phi_eval

FREQUENCY_AXES_MIN = 8
# Largest grid a SymbolGrid accepts: 4096^2 and 256^3 pass, 512^3 does not.
MAX_GRID_POINTS = 2 ** 25
# scan_table, the --grid-csv table, holds five float64 grids at its peak
# (measured at 4096^2); lower_bound_margin streams and holds none.
SCAN_BYTES_PER_POINT = 40
# Grid points per tile of lower_bound_margin and empirical_c1, at most: a
# tile cuts every axis into runs of the same length (_runs), 64 at d = 2 and
# 16 at d = 3 (tile sizes in notes/decisions.md).
SCAN_TILE_POINTS = 2 ** 12
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
        r = float(np.sqrt(np.sum(x ** 2)))
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
    rho = float(np.sqrt(np.sum(fp.grad_phi ** 2)))
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
    # grid points whose margin the scan computed; the rest were bounded
    points_evaluated: int = field(compare=False)


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


def _runs(n: int, d: int) -> list:
    """An axis of n points cut into runs of the tile edge, the largest e with
    e^d <= SCAN_TILE_POINTS (at least 1), in order."""
    edge = round(SCAN_TILE_POINTS ** (1.0 / d))
    edge = max(1, edge if edge ** d <= SCAN_TILE_POINTS else edge - 1)
    return [slice(i, min(i + edge, n)) for i in range(0, n, edge)]


def _rows(runs: list, d: int) -> list:
    """The tiles on ``runs``^d a row at a time: the tiles that share their
    runs on every axis but the last, taken together as one block.

    numpy 2.4 buffers a three-operand broadcast whose rows are shorter than
    8192 / 3 points: on a 2-core VM an outer sum took about 1.2 ns a point
    on 128 x 128 against 0.3 ns on 32 x 4096.  So a row of tiles, with its
    one set of numpy calls, costs less than its tiles one by one.  A row of
    a 1-D grid is one tile.
    """
    if d == 1 or not runs:
        return [(r,) for r in runs]
    span = slice(runs[0].start, runs[-1].stop)
    return [rs + (span,) for rs in itertools.product(runs, repeat=d - 1)]


def _clip(tile: tuple, lo: int, hi: int) -> tuple:
    """The tile's part of the box [lo, hi)^d (some runs empty if they miss it)."""
    return tuple(slice(max(r.start, lo), min(r.stop, hi)) for r in tile)


def _relative(inner: tuple, outer: tuple) -> tuple:
    """The runs of ``inner`` counted from the starts of ``outer``."""
    return tuple(slice(i.start - o.start, i.stop - o.start) for i, o in zip(inner, outer))


def _run(keep: np.ndarray) -> slice:
    """Indices of the sorted frequency axis where ``keep`` holds, for a
    predicate like |xi_j| <= r that holds on one run of the axis."""
    idx = np.flatnonzero(keep)
    return slice(idx[0], idx[-1] + 1) if idx.size else slice(0, 0)


def _cut(vectors: list, tile: tuple) -> list:
    """Per-axis vectors, each cut to the tile's run of its axis."""
    return [v[r] for v, r in zip(vectors, tile)]


def _axis_trig(fp: FrozenPoint, grid: SymbolGrid):
    """Axis, sin(theta), cos(theta) and sin^2(theta/2) on the 1-D axis."""
    ax = grid.axis()
    th = fp.h * ax
    return ax, np.sin(th), np.cos(th), np.sin(th / 2) ** 2


def _pr_parts(fp: FrozenPoint, trig) -> list:
    """Per-axis vectors whose outer sum is ``symbol_pr``, with its per-point arithmetic."""
    _, _, c, w = trig
    return [-4.0 / fp.h ** 2 * w + gj ** 2 * c for gj in fp.grad_phi]


def _axis_parts(fp: FrozenPoint, trig) -> dict:
    """The per-axis vectors of the margin on the whole 1-D axis, once per scan.

    For each grid axis, the vectors whose outer sums are p_r, p_i, the
    diagonal of q and the denominator less tau^4; for each off-diagonal pair
    j < k of q, which adds a s_j s_k + b c_j c_k, its two rank-1 terms
    (j, k, a s, s) and (j, k, b c, c), each the product of a vector along
    axis j and one along axis k.
    """
    d, h, tau = fp.d, fp.h, fp.tau
    g, hess = fp.grad_phi, fp.hess_phi
    ax, s, c, _ = trig
    s2 = s ** 2
    pairs = []
    for j in range(d):
        for k in range(j + 1, d):
            a = 2.0 * hess[j, k] * (4.0 / h ** 2 + 2.0 * (g[j] ** 2 + g[k] ** 2))
            b = 8.0 * hess[j, k] * g[j] * g[k]
            pairs += [(j, k, a * s, s), (j, k, b * c, c)]
    return {"axis": ax, "p_r": _pr_parts(fp, trig),
            "p_i": [2.0 * gj / h * s for gj in g],
            "q": [hess[j, j] * (4.0 / h ** 2 * s ** 2 + 4.0 * g[j] ** 2) for j in range(d)],
            "denominator": [tau ** 2 / h ** 2 * s2 + s2 ** 2 / h ** 4] * d,
            "pairs": pairs}


def _norm(squares: np.ndarray, tile: tuple) -> np.ndarray:
    """|xi| on the tile, from the squared axis."""
    norm = _outer_sum(_cut([squares] * len(tile), tile))
    return np.sqrt(norm, out=norm)


def _margin_terms(fp: FrozenPoint, parts: dict, c0: float, tile: tuple) -> dict:
    """p_r, p_i, q and the margin on the tile, one run of the axis per grid
    axis, from ``_axis_parts``' vectors on the 1-D axis.

    p_r, p_i and the denominator are outer sums of per-axis vectors.  With
    cos(a -+ b) = cos a cos b +- sin a sin b, the diagonal of q is the outer
    sum of H_jj (4 h^-2 s_j^2 + 4 g_j^2) and each off-diagonal pair, both
    orders together, adds
    2 H_jk [(4 h^-2 + 2 (g_j^2 + g_k^2)) s_j s_k + 4 g_j g_k c_j c_k],
    whose two rank-1 terms are added to q one after the other, each an
    elementwise product of a vector along axis j and one along axis k.  The
    per-axis vectors are only cut to the tile and every step is elementwise,
    so each point gets the arithmetic of the whole grid and the same bits,
    with no BLAS call whose rounding could depend on the CPU.
    """
    d, tau = fp.d, fp.tau
    pr, pi, q = (_outer_sum(_cut(parts[key], tile)) for key in ("p_r", "p_i", "q"))
    tmp = np.empty_like(q)
    for j, k, x, y in parts["pairs"]:
        # the product spans axes j and k of the scratch tile, broadcast over the rest
        term = tmp[tuple(slice(None) if i in (j, k) else slice(1) for i in range(d))]
        q += np.multiply(_along(x[tile[j]], j, d), _along(y[tile[k]], k, d), out=term)
    margin = np.multiply(pr, pr)
    margin += np.multiply(pi, pi, out=tmp)
    margin += np.multiply(q, c0 * tau, out=tmp)
    den = _outer_sum(_cut(parts["denominator"], tile), start=tau ** 4, out=tmp)
    margin /= den
    return {"axis": parts["axis"], "p_r": pr, "p_i": pi, "q": q, "denominator": den,
            "margin": margin}


def scan_table(fp: FrozenPoint, grid: SymbolGrid, c0: float):
    """Per-frequency table used by the CSV emitter: the 1-D axis and the
    flattened (C-order) p_r, p_i, q and margin over ``grid.mesh()``.

    The values are those ``lower_bound_margin`` minimizes.  This table is
    the one caller that holds whole grids: five float64 grids at its peak.
    """
    parts = _axis_parts(fp, _axis_trig(fp, grid))
    t = _margin_terms(fp, parts, c0, (slice(0, grid.resolution),) * fp.d)
    return {
        "axis": t["axis"],
        "p_r": t["p_r"].ravel(),
        "p_i": t["p_i"].ravel(),
        "q": t["q"].ravel(),
        "margin": t["margin"].ravel(),
    }


def _worst(pr_parts: list, squares: np.ndarray, tile: tuple) -> float:
    """Largest |xi| on the tile with p_r^2 < C1_FLOOR |xi|^4 or a NaN ratio, or -inf."""
    pr, norm = _outer_sum(_cut(pr_parts, tile)), _norm(squares, tile)
    # pr ** 2 / norm ** 4, written into pr: three tiles at the peak
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
    tiles; outside it |p_r| clears sqrt(C1_FLOOR) |xi|^2 by a factor of
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
    pr_parts, squares = _pr_parts(fp, trig), trig[0] ** 2
    rows = _rows(_runs(box.stop - box.start, d), d)
    worst = max((_worst(pr_parts, squares, row) for row in rows), default=-np.inf)
    top = float(_norm(np.abs(ax).max(keepdims=True) ** 2, (slice(0, 1),) * d).max())
    for c1 in C1_CANDIDATES:
        if not c1 * fp.tau <= top:
            return None
        if c1 * fp.tau > worst:
            return float(c1)
    return None


REGIONS = ("high_frequency", "characteristic_neighborhood", "low_frequency")


def _square_floor(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Lower bound of fl(x x) for x in [lo, hi]: zero when the range holds 0."""
    return np.where(lo > 0.0, lo * lo, np.where(hi < 0.0, hi * hi, 0.0))


def _tile_bounds(fp: FrozenPoint, parts: dict, c0: float, runs: list) -> np.ndarray:
    """A lower bound of the computed margin on each tile, shape (len(runs),)*d.

    Interval arithmetic on each tile's per-axis minima and maxima of the
    vectors of ``_axis_parts``, with the operations of ``_margin_terms`` in
    their order, on all tiles at once as outer sums over the grid of tiles.
    Correctly rounded +, x and / are monotone (fl(x + y) >= fl(x' + y') when
    x >= x' and y >= y'), so the bound is at most every margin computed on
    its tile.  Each rank-1 term of q is bounded by the least of its four
    corner products and added where ``_margin_terms`` adds the term, so on a
    tile of one point the bound is the computed margin.  A negative coupling
    c0 tau would need an upper bound of q, so it bounds every tile by -inf.
    """
    d, tau, k = fp.d, fp.tau, c0 * fp.tau
    if not k >= 0.0:
        return np.full((len(runs),) * d, -np.inf)
    starts = [r.start for r in runs]

    def ranges(v):
        return np.minimum.reduceat(v, starts), np.maximum.reduceat(v, starts)

    lo, hi = {}, {}
    for key in ("p_r", "p_i", "q", "denominator"):
        lo[key], hi[key] = zip(*(ranges(v) for v in parts[key]))
    pr2 = _square_floor(_outer_sum(lo["p_r"]), _outer_sum(hi["p_r"]))
    pi2 = _square_floor(_outer_sum(lo["p_i"]), _outer_sum(hi["p_i"]))
    q = _outer_sum(lo["q"])
    for j, kk, x, y in parts["pairs"]:
        q = q + np.minimum.reduce([_along(xe, j, d) * _along(ye, kk, d)
                                   for xe in ranges(x) for ye in ranges(y)])
    num = pr2 + pi2 + q * k
    den = [_outer_sum(ends["denominator"], start=tau ** 4) for ends in (lo, hi)]
    # a larger denominator lowers a non-negative numerator's ratio
    bound = num / np.where(num >= 0.0, den[1], den[0])
    # a NaN bound, from terms that overflowed, proves nothing
    return np.where(np.isnan(bound), -np.inf, bound)


def _fold(found: dict, key: str, values: np.ndarray, tile: tuple) -> None:
    """Keep the least (value, grid index) of ``values`` and ``found[key]``.

    ``values`` is the block of the grid on the runs of ``tile``.  Within it
    ``np.argmin`` returns the first minimum in C order, which is the least
    grid index among its minima, so the fold keeps the lexicographic
    minimum of (value, index) whatever order blocks come in: ties keep the
    first point in C order, as one argmin over the whole grid would.
    """
    at = np.unravel_index(int(np.argmin(values)), values.shape)
    best = (float(values[at]), tuple(int(r.start + i) for r, i in zip(tile, at)))
    if key not in found or best < found[key]:
        found[key] = best


def lower_bound_margin(fp: FrozenPoint, c0: float, grid: SymbolGrid,
                       gamma0: float = 0.05) -> MarginScan:
    """Minimize the normalized symbol margin over the frequency grid.

    The breakdown reports the minimum separately over the high-frequency
    elliptic region |xi| >= C1 tau, the neighborhood of the joint
    characteristic set (distance <= gamma0 tau), and the remaining
    low-frequency region.  Ties resolve to the lexicographically smallest
    grid index (C-order argmin).

    The grid is walked in tiles of at most SCAN_TILE_POINTS points, cut on
    every frequency axis, keeping only running minima, argmins and counts.
    C1 is ``empirical_c1``, which walks only a box around the origin.  A
    point with some |xi_j| >= C1 tau is high-frequency, since
    sqrt(fl(x x)) = |x| and more non-negative squares only raise the sum; so
    the regions are told apart only on the box |xi_j| < C1 tau, and a tile
    that misses the box is all high.  The tiles that meet the box are always
    evaluated, a row of them at a time (``_rows``).  The all-high tiles are
    evaluated in ascending order of ``_tile_bounds``, a lower bound of each
    tile's computed margins, until a bound lies strictly above the running
    high-frequency minimum: no point of the tiles left can change a minimum
    or win a tie.  The grid minimum is the least of the regions', the
    high-frequency count is what the other two leave, and
    ``points_evaluated`` counts the points of the evaluated tiles.  With
    c1 = None the box is the whole grid and nothing is skipped.

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
    lo = hi = 0
    rho = float(np.sqrt(np.sum(fp.grad_phi ** 2)))
    if d > 1 and rho > 0.0:
        # |xi| <= rho + distance: the neighborhood lies in this box, and one
        # more grid step absorbs rounding; outside the region box it is high
        run = _run((np.abs(ax) <= rho + gamma0 * tau + (ax[1] - ax[0])) & (np.abs(ax) < t))
        lo, hi = run.start, run.stop
        if lo < hi:
            box_xi = np.stack(np.meshgrid(*[ax[lo:hi]] * d, indexing="ij"))
            near_box = char_set_distance(box_xi, fp) <= gamma0 * tau

    parts, squares = _axis_parts(fp, trig), ax ** 2
    runs = _runs(res, d)
    inside = np.array([r.start < box.stop and box.start < r.stop for r in runs])
    meets = np.ones((len(runs),) * d, bool)  # the tiles with a point in the region box
    for j in range(d):
        meets &= _along(inside, j, d)
    found, counts, evaluated = {}, dict.fromkeys(REGIONS, 0), 0
    for block in _rows([r for r, x in zip(runs, inside) if x], d):
        margin = _margin_terms(fp, parts, c0, block)["margin"]
        evaluated += margin.size
        # the block's part of the region box, its points there that are not
        # high, and which of those are near
        part = _clip(block, box.start, box.stop)
        other = _norm(squares, part) < t
        near = np.zeros(other.shape, bool)
        near_part = _clip(part, lo, hi)
        if all(r.start < r.stop for r in near_part):
            at = _relative(near_part, part)
            near[at] = near_box[_relative(near_part, (slice(lo, hi),) * d)] & other[at]
        sub = _relative(part, block)
        for name, mask in zip(REGIONS[1:], (near, other & ~near)):
            n = int(np.count_nonzero(mask))
            if n:
                counts[name] += n
                _fold(found, name, np.where(mask, margin[sub], np.inf), part)
        if margin.size > np.count_nonzero(other):
            margin[sub][other] = np.inf  # in place; the block's points outside the box are high
            _fold(found, "high_frequency", margin, block)
    if not meets.all():
        tiles = list(itertools.product(runs, repeat=d))
        bounds = _tile_bounds(fp, parts, c0, runs).ravel()
        high = np.flatnonzero(~meets)
        for i in high[np.argsort(bounds[high], kind="stable")]:
            if "high_frequency" in found and bounds[i] > found["high_frequency"][0]:
                break
            margin = _margin_terms(fp, parts, c0, tiles[i])["margin"]
            evaluated += margin.size
            _fold(found, "high_frequency", margin, tiles[i])
    counts["high_frequency"] = res ** d - counts[REGIONS[1]] - counts[REGIONS[2]]

    def stat(value, index):
        return value, tuple(float(ax[i]) for i in index)

    regions = {name: RegionStat(*stat(*found[name]), counts[name]) if counts[name]
               else RegionStat(None, None, 0) for name in REGIONS}
    return MarginScan(*stat(*min(found.values())), res, c0, gamma0, c1_split, regions,
                      evaluated)
