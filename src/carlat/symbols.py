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
# A margin scan holds five float64 grids at its peak (measured at 4096^2).
SCAN_BYTES_PER_POINT = 40
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
                f"MAX_GRID_POINTS = {MAX_GRID_POINTS}; a margin scan on it would need "
                f"about {points * SCAN_BYTES_PER_POINT} bytes")

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


def symbol_q_taylor(xi, fp: FrozenPoint):
    """Leading-order form 4 (xi.H xi + g.H g), the small-(h xi) limit of q."""
    xi = np.asarray(xi, dtype=np.float64)
    g = fp.grad_phi
    hess = fp.hess_phi
    quad = np.einsum("i...,ij,j...->...", xi, hess, xi)
    out = 4.0 * (quad + float(g @ hess @ g))
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


def _axis_trig(fp: FrozenPoint, grid: SymbolGrid):
    """Axis, sin(theta), cos(theta) and sin^2(theta/2) on the 1-D axis."""
    ax = grid.axis()
    th = fp.h * ax
    return ax, np.sin(th), np.cos(th), np.sin(th / 2) ** 2


def _grid_pr(fp: FrozenPoint, trig) -> np.ndarray:
    """``symbol_pr`` on the grid, with the same per-point arithmetic."""
    _, _, c, w = trig
    return _outer_sum([-4.0 / fp.h ** 2 * w + gj ** 2 * c for gj in fp.grad_phi])


def _grid_norm(ax: np.ndarray, d: int) -> np.ndarray:
    norm = _outer_sum([ax ** 2] * d)
    return np.sqrt(norm, out=norm)


def _margin_terms(fp: FrozenPoint, grid: SymbolGrid, c0: float) -> dict:
    """p_r, p_i, q and the margin on the grid, from trig on the 1-D axis.

    p_r, p_i and the denominator are outer sums of per-axis vectors.  With
    cos(a -+ b) = cos a cos b +- sin a sin b, the diagonal of q is the outer
    sum of H_jj (4 h^-2 s_j^2 + 4 g_j^2) and each off-diagonal pair, both
    orders together, adds the rank-2 product
    2 H_jk [(4 h^-2 + 2 (g_j^2 + g_k^2)) s_j s_k + 4 g_j g_k c_j c_k].
    """
    d, h, tau = fp.d, fp.h, fp.tau
    g, hess = fp.grad_phi, fp.hess_phi
    trig = _axis_trig(fp, grid)
    ax, s, c, _ = trig
    pr = _grid_pr(fp, trig)
    pi = _outer_sum([2.0 * gj / h * s for gj in g])
    q = _outer_sum([hess[j, j] * (4.0 / h ** 2 * s ** 2 + 4.0 * g[j] ** 2)
                    for j in range(d)])
    for j in range(d):
        for k in range(j + 1, d):
            a = 2.0 * hess[j, k] * (4.0 / h ** 2 + 2.0 * (g[j] ** 2 + g[k] ** 2))
            b = 8.0 * hess[j, k] * g[j] * g[k]
            pair = np.stack([a * s, b * c], axis=1) @ np.stack([s, c])
            q += pair.reshape([grid.resolution if i in (j, k) else 1 for i in range(d)])
            del pair  # a full grid at d = 2
    margin = np.multiply(pr, pr)
    tmp = np.multiply(pi, pi)
    margin += tmp
    margin += np.multiply(q, c0 * tau, out=tmp)
    s2 = s ** 2
    den = _outer_sum([tau ** 2 / h ** 2 * s2 + s2 ** 2 / h ** 4] * d,
                     start=tau ** 4, out=tmp)
    margin /= den
    return {"axis": ax, "p_r": pr, "p_i": pi, "q": q, "denominator": den,
            "margin": margin}


def scan_table(fp: FrozenPoint, grid: SymbolGrid, c0: float):
    """Per-frequency table used by the CSV emitter: the 1-D axis and the
    flattened (C-order) p_r, p_i, q and margin over ``grid.mesh()``.

    The values are those ``lower_bound_margin`` minimizes.
    """
    t = _margin_terms(fp, grid, c0)
    return {
        "axis": t["axis"],
        "p_r": t["p_r"].ravel(),
        "p_i": t["p_i"].ravel(),
        "q": t["q"].ravel(),
        "margin": t["margin"].ravel(),
    }


def empirical_c1(fp: FrozenPoint, grid: SymbolGrid) -> float | None:
    """Smallest region-split constant with p_r^2 >= C1_FLOOR * |xi|^4 beyond C1*tau.

    The floor keeps headroom for absorbing the commutator term; bare
    positivity right at the sign change would be useless for the split.
    Returns None when no candidate of C1_CANDIDATES achieves it on a
    nonempty region.
    """
    trig = _axis_trig(fp, grid)
    return _c1_split(_grid_pr(fp, trig), _grid_norm(trig[0], fp.d), fp.tau)


def _c1_split(pr, norm, tau):
    """``empirical_c1`` on precomputed p_r and |xi| grids.

    A candidate's region {|xi| >= c1 tau} passes when it holds no point with
    p_r^2 < C1_FLOOR |xi|^4 (or a NaN ratio), i.e. when c1 tau exceeds the
    largest |xi| among those points.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        bad = ~(pr ** 2 / norm ** 4 >= C1_FLOOR)
    worst = float(norm[bad].max()) if bad.any() else -np.inf
    top = float(norm.max())
    for c1 in C1_CANDIDATES:
        if not c1 * tau <= top:
            return None
        if c1 * tau > worst:
            return float(c1)
    return None


def _grid_char_distance(fp: FrozenPoint, ax: np.ndarray) -> np.ndarray:
    """``char_set_distance`` on the grid over ``ax``, with the same arithmetic."""
    rho = float(np.linalg.norm(fp.grad_phi))
    ghat = fp.grad_phi / rho
    par = _outer_sum([ax * gj for gj in ghat])
    # the vector residual, as in char_set_distance: no cancellation blowup
    perp = np.zeros(par.shape)
    for j, gj in enumerate(ghat):
        perp += (_along(ax, j, fp.d) - par * gj) ** 2
    return np.hypot(par, np.sqrt(perp) - rho)


def lower_bound_margin(fp: FrozenPoint, c0: float, grid: SymbolGrid,
                       gamma0: float = 0.05,
                       c1_split: float | None = None) -> MarginScan:
    """Minimize the normalized symbol margin over the frequency grid.

    The breakdown reports the minimum separately over the high-frequency
    elliptic region |xi| >= C1 tau, the neighborhood of the joint
    characteristic set (distance <= gamma0 tau), and the remaining
    low-frequency region.  Ties resolve to the lexicographically smallest
    grid index (C-order argmin).

    For the convexified weight the minimum is positive only when the
    coupling stays below the pseudoconvexity, c0 < c_ps/(1 + log^2|x_bar|):
    radially around the characteristic set the numerator bottoms out at
    about 4 c0 tau^4 (varphi'/r)^2 (c_ps/(1 + log^2 r) - c0).  That is the
    continuum threshold; the h-corrections of the discrete symbols shift
    it (upward, by about 1.65x at tau = 20, h = 1/128, c_ps = 0.01).
    """
    t = _margin_terms(fp, grid, c0)
    ax, pr, margin = t["axis"], t["p_r"], t["margin"]
    # free p_i, q and the denominator (p_r below): 128 MB each at 4096^2
    del t

    def point(flat):
        return tuple(float(ax[i]) for i in np.unravel_index(flat, margin.shape))

    flat = np.argmin(margin.ravel())
    norm = _grid_norm(ax, fp.d)
    if c1_split is None:
        c1_split = _c1_split(pr, norm, fp.tau)
    del pr
    high = (norm >= c1_split * fp.tau) if c1_split is not None else np.zeros(margin.shape, bool)
    del norm
    near = np.zeros(margin.shape, bool)
    rho = float(np.linalg.norm(fp.grad_phi))
    if fp.d > 1 and rho > 0.0:
        # |xi| <= rho + distance: the neighborhood lies in this box, and one
        # more grid step absorbs rounding
        idx = np.flatnonzero(np.abs(ax) <= rho + gamma0 * fp.tau + (ax[1] - ax[0]))
        if idx.size:
            box = (slice(idx[0], idx[-1] + 1),) * fp.d
            near[box] = (_grid_char_distance(fp, ax[idx]) <= gamma0 * fp.tau) & ~high[box]
    low = ~(high | near)

    regions = {}
    for name, mask in (("high_frequency", high),
                       ("characteristic_neighborhood", near),
                       ("low_frequency", low)):
        if mask.any():
            vals = np.where(mask, margin, np.inf)
            j = np.argmin(vals.ravel())
            regions[name] = RegionStat(float(vals.ravel()[j]), point(j), int(mask.sum()))
        else:
            regions[name] = RegionStat(None, None, 0)

    return MarginScan(float(margin.ravel()[flat]), point(flat), grid.resolution,
                      c0, gamma0, c1_split, regions)

