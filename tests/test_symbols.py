"""Symbols of the frozen operators: Parseval cross-checks and margin scans."""

import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carlat import (
    FrozenPoint,
    SymbolGrid,
    WeightParams,
    char_set_distance,
    lower_bound_margin,
    symbol_pi,
    symbol_pr,
    symbol_q,
)
from carlat import symbols
from carlat.symbols import (
    C1_CANDIDATES,
    C1_FLOOR,
    MAX_GRID_POINTS,
    MarginScan,
    RegionStat,
    SCAN_BYTES_PER_POINT,
    _margin_terms,
    empirical_c1,
    margin_denominator,
)
from conftest import output_under_two_blas_kernels, x86_64_only


def frozen(d=2, tau=20.0, h=1 / 128, c_ps=0.01, x_bar=None):
    if x_bar is None:
        x_bar = (1.0,) + (0.0,) * (d - 1)
    return FrozenPoint.from_weight(x_bar, WeightParams(tau, c_ps), h)


def symbol_q_taylor(xi, fp: FrozenPoint):
    """Leading-order form 4 (xi.H xi + g.H g), the small-(h xi) limit of q."""
    xi = np.asarray(xi, dtype=np.float64)
    g = fp.grad_phi
    hess = fp.hess_phi
    quad = np.einsum("i...,ij,j...->...", xi, hess, xi)
    out = 4.0 * (quad + float(g @ hess @ g))
    return out if np.ndim(out) else float(out)


# -- periodic-box oracle ----------------------------------------------------

def roll(a, off):
    """a(n + off) on the periodic box."""
    return np.roll(a, shift=[-int(o) for o in off], axis=range(a.ndim))


def frozen_apply_sym(f, fp, h):
    out = np.zeros_like(f)
    d = f.ndim
    for j in range(d):
        e = np.zeros(d, dtype=int)
        e[j] = 1
        out += (roll(f, e) + roll(f, -e) - 2 * f) / h ** 2
        out += fp.grad_phi[j] ** 2 / 2 * (roll(f, e) + roll(f, -e))
    return out


def frozen_apply_anti(f, fp, h):
    out = np.zeros_like(f)
    d = f.ndim
    for j in range(d):
        e = np.zeros(d, dtype=int)
        e[j] = 1
        out += -fp.grad_phi[j] / h * (roll(f, e) - roll(f, -e))
    return out


def frozen_comm_form(f, fp, h):
    d = f.ndim
    total = 0.0
    for j in range(d):
        ej = np.zeros(d, dtype=int)
        ej[j] = 1
        dj = (roll(f, ej) - roll(f, -ej)) / h
        for k in range(d):
            ek = np.zeros(d, dtype=int)
            ek[k] = 1
            dk = (roll(f, ek) - roll(f, -ek)) / h
            gjk = fp.hess_phi[j, k]
            total += gjk * np.sum(dj * dk)
            total += 0.5 * gjk * (
                (fp.grad_phi[j] + fp.grad_phi[k]) ** 2
                * np.sum(roll(f, ej) * roll(f, ek) + roll(f, -ej) * roll(f, -ek))
                - (fp.grad_phi[j] - fp.grad_phi[k]) ** 2
                * np.sum(roll(f, ej) * roll(f, -ek) + roll(f, -ej) * roll(f, ek)))
    return total


@pytest.mark.parametrize("d", [1, 2])
def test_parseval_against_fft_diagonalization(d, rng_seed):
    n = 64
    h = 1 / 128
    fp = frozen(d=d, tau=15.0, h=h)
    rng = np.random.default_rng(rng_seed)
    f = rng.standard_normal((n,) * d)
    fh = np.fft.fftn(f)
    k = np.fft.fftfreq(n, d=1.0) * 2 * np.pi / h
    xi = np.stack(np.meshgrid(*([k] * d), indexing="ij"))

    lhs_s = np.sum(frozen_apply_sym(f, fp, h) ** 2)
    rhs_s = np.sum(symbol_pr(xi, fp) ** 2 * np.abs(fh) ** 2) / n ** d
    assert abs(lhs_s - rhs_s) / lhs_s <= 1e-9

    lhs_a = np.sum(frozen_apply_anti(f, fp, h) ** 2)
    rhs_a = np.sum(symbol_pi(xi, fp) ** 2 * np.abs(fh) ** 2) / n ** d
    assert abs(lhs_a - rhs_a) / lhs_a <= 1e-9

    lhs_c = frozen_comm_form(f, fp, h)
    rhs_c = np.sum(symbol_q(xi, fp) * np.abs(fh) ** 2) / n ** d
    assert abs(lhs_c - rhs_c) / abs(lhs_c) <= 1e-9


class TestPointValues:
    def test_zero_frequency(self):
        fp = frozen()
        assert symbol_pi(np.zeros(2), fp) == 0.0
        assert symbol_pr(np.zeros(2), fp) == pytest.approx(
            float(np.sum(fp.grad_phi ** 2)), rel=1e-14)

    def test_torus_corner(self):
        fp = frozen()
        xi = np.full(2, np.pi / fp.h)
        # sin(pi)=0 up to roundoff, cos(pi)=-1
        assert symbol_pi(xi, fp) == pytest.approx(0.0, abs=1e-8)
        expected = -4 * 2 / fp.h ** 2 - float(np.sum(fp.grad_phi ** 2))
        assert symbol_pr(xi, fp) == pytest.approx(expected, rel=1e-12)

    def test_q_zero_for_linear_weight(self):
        fp = FrozenPoint((1.0, 0.0), np.array([2.0, -1.0]), np.zeros((2, 2)),
                         tau=5.0, h=1 / 64)
        xi = np.array([3.0, -7.0])
        assert symbol_q(xi, fp) == 0.0

    def test_q_at_zero_matches_gradient_square_form(self):
        fp = frozen(d=1, x_bar=(1.0,))
        got = symbol_q(np.zeros(1), fp)
        g, hess = fp.grad_phi, fp.hess_phi
        assert got == pytest.approx(float(4 * hess[0, 0] * g[0] ** 2), rel=1e-13)

    def test_q_small_frequency_taylor_refinement(self):
        # |q - taylor| at fixed xi*h scales like the remainder: halving h
        # with xi fixed shrinks the gap by about 4
        errs = []
        for h in (1 / 64, 1 / 128, 1 / 256):
            fp = frozen(h=h, tau=10.0)
            xi = np.array([3.0, 4.0])
            errs.append(abs(symbol_q(xi, fp) - symbol_q_taylor(xi, fp)))
        assert errs[1] < errs[0] and errs[2] < errs[1]
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.3)

    def test_parity(self, rng_seed):
        fp = frozen()
        rng = np.random.default_rng(rng_seed)
        for _ in range(20):
            xi = rng.uniform(-np.pi / fp.h, np.pi / fp.h, size=2)
            assert symbol_pr(-xi, fp) == pytest.approx(symbol_pr(xi, fp), rel=1e-13)
            assert symbol_pi(-xi, fp) == pytest.approx(-symbol_pi(xi, fp), rel=1e-13)
            assert symbol_q(-xi, fp) == pytest.approx(symbol_q(xi, fp), rel=1e-12)


class TestCharSetDistance:
    def test_on_set_distance_zero(self):
        fp = frozen()
        rho = np.linalg.norm(fp.grad_phi)
        ghit = fp.grad_phi / rho
        perp = np.array([-ghit[1], ghit[0]])
        assert char_set_distance(rho * perp, fp) == pytest.approx(0.0, abs=1e-12)

    def test_distance_from_origin(self):
        fp = frozen()
        rho = np.linalg.norm(fp.grad_phi)
        assert char_set_distance(np.zeros(2), fp) == pytest.approx(rho, rel=1e-14)

    def test_parallel_point_against_sampled_minimization(self):
        fp = frozen(d=3, x_bar=(0.8, 0.4, -0.2))
        rho = float(np.linalg.norm(fp.grad_phi))
        xi = fp.grad_phi.copy()  # parallel to the gradient, norm rho
        got = char_set_distance(xi, fp)
        # oracle: dense sampling of the equator circle
        g = fp.grad_phi / rho
        a = np.array([1.0, 0.0, 0.0])
        if abs(g @ a) > 0.9:
            a = np.array([0.0, 1.0, 0.0])
        u = np.cross(g, a)
        u /= np.linalg.norm(u)
        v = np.cross(g, u)
        angles = np.linspace(0, 2 * np.pi, 20000, endpoint=False)
        pts = rho * (np.outer(np.cos(angles), u) + np.outer(np.sin(angles), v))
        oracle = np.linalg.norm(pts - xi, axis=1).min()
        assert got == pytest.approx(oracle, rel=1e-7)
        assert got == pytest.approx(np.sqrt(2.0) * rho, rel=1e-12)

    def test_random_points_against_sampled_minimization(self, rng_seed):
        fp = frozen()
        rho = float(np.linalg.norm(fp.grad_phi))
        g = fp.grad_phi / rho
        perp = np.array([-g[1], g[0]])
        rng = np.random.default_rng(rng_seed)
        # d=2: the characteristic set is the two points +-rho*perp
        for _ in range(50):
            xi = rng.uniform(-3 * rho, 3 * rho, size=2)
            oracle = min(np.linalg.norm(xi - rho * perp), np.linalg.norm(xi + rho * perp))
            assert char_set_distance(xi, fp) == pytest.approx(oracle, rel=1e-12)

    def test_one_dimensional_set_is_empty(self):
        fp = frozen(d=1, x_bar=(1.0,))
        assert char_set_distance(np.array([3.0]), fp) == np.inf

    def test_degenerate_point_rejected(self):
        fp = FrozenPoint((1.0, 0.0), np.zeros(2), np.zeros((2, 2)), tau=2.0, h=0.1)
        with pytest.raises(ValueError, match="degenerate frozen point"):
            char_set_distance(np.ones(2), fp)


class TestMarginScan:
    def test_positive_margin_below_critical_coupling(self):
        # commutator coupling below the pseudoconvexity strength: the scan
        # stays positive and successive refinements agree
        fp = frozen()
        scans = [lower_bound_margin(fp, 0.0025, SymbolGrid(2, fp.h, res))
                 for res in (256, 512, 1024)]
        a, b = scans[-2].min_margin, scans[-1].min_margin
        assert abs(a - b) / max(abs(a), abs(b), 1e-300) <= 0.05
        assert scans[-1].min_margin > 0

    def test_characteristic_point_without_commutator(self):
        # at a constructed characteristic frequency with c0 = 0 both symbols
        # nearly vanish: the margin there is tiny compared to tau^4/denominator
        fp = frozen()
        rho = np.linalg.norm(fp.grad_phi)
        g = fp.grad_phi / rho
        xi = rho * np.array([-g[1], g[0]])
        num = symbol_pr(xi, fp) ** 2 + symbol_pi(xi, fp) ** 2
        local = num / margin_denominator(xi, fp)
        assert local <= 1e-4  # leading orders cancel; only h-corrections remain

    def test_monotone_degradation_towards_limiting_weight(self):
        c0 = 0.0005
        margins = {}
        for c_ps in (0.01, 0.001, 0.0):
            fp = frozen(c_ps=c_ps)
            scan = lower_bound_margin(fp, c0, SymbolGrid(2, fp.h, 512))
            margins[c_ps] = scan.min_margin
        assert margins[0.01] > margins[0.001] > margins[0.0]
        assert margins[0.0] >= -1e-5

    def test_limiting_weight_neighborhood_collapses_under_refinement(self):
        # nested refinements can only lower the minimum; for the limiting
        # weight it collapses to 0, which the grid approaches as it starts
        # resolving the characteristic circle
        fp = frozen(c_ps=0.0)
        mins = []
        for res in (128, 256, 512, 1024, 2048):
            scan = lower_bound_margin(fp, 0.0, SymbolGrid(2, fp.h, res), gamma0=0.2)
            near = scan.regions["characteristic_neighborhood"]
            assert near.count > 0
            mins.append(near.min_margin)
        assert all(a >= b for a, b in zip(mins, mins[1:]))
        assert mins[-1] >= 0.0  # c0 = 0 keeps the numerator a sum of squares
        assert mins[-1] <= 1e-5

    def test_high_frequency_ellipticity(self):
        for x_bar in ((1.0, 0.0), (0.6, 0.5), (0.0, 1.4)):
            fp = frozen(x_bar=x_bar)
            grid = SymbolGrid(2, fp.h, 256)
            c1 = empirical_c1(fp, grid)
            assert c1 is not None
            xi = grid.mesh()
            norm = np.sqrt((xi ** 2).sum(axis=0))
            mask = norm >= c1 * fp.tau
            ratio = symbol_pr(xi, fp)[mask] ** 2 / norm[mask] ** 4
            assert ratio.min() >= 1.0 / 256.0

    def test_region_breakdown_covers_grid(self):
        fp = frozen()
        grid = SymbolGrid(2, fp.h, 128)
        scan = lower_bound_margin(fp, 0.0025, grid)
        total = sum(stat.count for stat in scan.regions.values())
        assert total == grid.resolution ** 2
        assert scan.c1_split is not None

    def test_scan_deterministic(self):
        fp = frozen()
        grid = SymbolGrid(2, fp.h, 128)
        a = lower_bound_margin(fp, 0.0025, grid)
        b = lower_bound_margin(fp, 0.0025, grid)
        assert a.min_margin == b.min_margin
        assert a.argmin_xi == b.argmin_xi


# -- axis-separable grid path against the pointwise symbols on the mesh ------

@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 3), tau=st.floats(2.0, 40.0), inv_h=st.integers(8, 256),
       c0=st.floats(0.0, 0.1), radius=st.floats(0.6, 1.9),
       direction=st.lists(st.floats(0.2, 1.0), min_size=3, max_size=3),
       signs=st.lists(st.sampled_from((-1.0, 1.0)), min_size=3, max_size=3),
       resolution=st.integers(8, 20),
       starts=st.lists(st.integers(0, 19), min_size=3, max_size=3),
       widths=st.lists(st.integers(1, 20), min_size=3, max_size=3))
def test_separable_terms_match_pointwise_symbols(d, tau, inv_h, c0, radius, direction,
                                                 signs, resolution, starts, widths):
    x = np.array(direction[:d]) * np.array(signs[:d])
    fp = frozen(d=d, tau=tau, h=1.0 / inv_h, x_bar=tuple(radius * x / np.linalg.norm(x)))
    if d > 1:
        assert np.count_nonzero(fp.hess_phi - np.diag(np.diag(fp.hess_phi))) > 0
    grid = SymbolGrid(d, fp.h, resolution)
    xi = grid.mesh()
    want = {"p_r": symbol_pr(xi, fp), "p_i": symbol_pi(xi, fp), "q": symbol_q(xi, fp),
            "denominator": margin_denominator(xi, fp)}
    squares = want["p_r"] ** 2 + want["p_i"] ** 2
    coupling = c0 * fp.tau
    want["margin"] = (squares + coupling * want["q"]) / want["denominator"]
    scale = {key: np.abs(value).max() for key, value in want.items()}
    scale["margin"] = ((squares + coupling * np.abs(want["q"])) / want["denominator"]).max()
    parts = symbols._axis_parts(fp, symbols._axis_trig(fp, grid))
    got = _margin_terms(fp, parts, c0, (slice(0, resolution),) * d)
    for key, value in want.items():
        assert got[key].shape == value.shape
        np.testing.assert_allclose(got[key], value, rtol=0, atol=1e-12 * scale[key],
                                   err_msg=key)
    # a block of one run per axis, runs of one point included, gets the whole grid's bits
    lows = [min(start, resolution - 1) for start in starts[:d]]
    tile = tuple(slice(lo, min(lo + width, resolution)) for lo, width in zip(lows, widths))
    block = _margin_terms(fp, parts, c0, tile)
    for key in want:
        np.testing.assert_array_equal(block[key], got[key][tile], err_msg=key)


def mesh_scan(fp, c0, grid, gamma0=0.05):
    """The margin scan written on the stacked (d,)+R^d mesh with the pointwise symbols."""
    d, tau = fp.d, fp.tau
    xi = grid.mesh()
    pr = symbol_pr(xi, fp)
    margin = ((pr ** 2 + symbol_pi(xi, fp) ** 2 + c0 * tau * symbol_q(xi, fp))
              / margin_denominator(xi, fp))
    norm = np.sqrt((xi ** 2).sum(axis=0))
    c1_split = None
    for c1 in C1_CANDIDATES:
        mask = norm >= c1 * tau
        if not mask.any():
            break
        if (pr[mask] ** 2 / norm[mask] ** 4).min() >= C1_FLOOR:
            c1_split = float(c1)
            break
    high = norm >= c1_split * tau if c1_split is not None else np.zeros(margin.shape, bool)
    dist = char_set_distance(xi, fp)
    near = (dist <= gamma0 * tau) & ~high
    low = ~high & ~near
    points = xi.reshape(d, -1)

    def at(values):
        j = np.argmin(values.ravel())
        return float(values.ravel()[j]), tuple(float(v) for v in points[:, j])

    regions = {}
    for name, mask in (("high_frequency", high), ("characteristic_neighborhood", near),
                       ("low_frequency", low)):
        regions[name] = (*at(np.where(mask, margin, np.inf)), int(mask.sum()))
    return (*at(margin), c1_split, regions, margin)


@pytest.mark.parametrize("gamma0", [-1.0, float("nan")])
def test_scan_refuses_a_negative_or_nan_gamma0(gamma0):
    fp = frozen()
    with pytest.raises(ValueError, match="gamma0 must be a nonnegative number"):
        lower_bound_margin(fp, 0.0025, SymbolGrid(2, fp.h, 64), gamma0=gamma0)


# want_c1, where given, pins the derived split besides the mesh scan's
@pytest.mark.parametrize("d, x_bar, tau, h, c0, resolution, gamma0, want_c1", [
    (2, (1.0, 0.0), 20.0, 1 / 128, 0.0025, 512, 0.05, None),
    (2, (0.6, 0.5), 20.0, 1 / 128, 0.0025, 256, 0.05, None),
    (2, (-0.3, 1.2), 15.0, 1 / 64, 0.05, 128, 0.2, 1.0),
    (3, (0.8, 0.4, -0.2), 10.0, 1 / 64, 0.002, 40, 0.1, None),
    (1, (1.0,), 20.0, 1 / 128, 0.0025, 256, 0.05, None),
    (2, (0.0, 1.0), 20.0, 1 / 128, 0.0025, 512, 0.05, None),
    # tau above the grid's largest |xi| (8 pi sqrt 2 = 35.5): c1 is None, and
    # the region box is the whole grid
    (2, (1.0, 0.0), 40.0, 1 / 8, 0.0025, 64, 0.05, None),
    # near the inner radius |g| > 2 tau, so the split needs c1 = 3
    (2, (-0.401, 0.3), 10.0, 1 / 64, 0.0025, 128, 0.1, 3.0),
    # the margin_scan benchmark's x_bar at seed 7, at angle 2 pi frac(7 (sqrt 5 - 1)/2)
    (2, (-0.4609070247133709, 0.8874484292452537), 20.0, 1 / 128, 0.0025, 1024, 0.05, 2.0),
])
def test_scan_matches_the_dense_mesh_scan(d, x_bar, tau, h, c0, resolution, gamma0,
                                          want_c1, monkeypatch):
    fp = frozen(d=d, tau=tau, h=h, x_bar=x_bar)
    grid = SymbolGrid(d, h, resolution)
    scan = lower_bound_margin(fp, c0, grid, gamma0=gamma0)
    # tiles of edge 3 and 7 (which divide no resolution here, and leave runs
    # of one point at 1024, 512, 256, 64 and 40) and the whole grid as one
    # tile fold to the same scan
    for edge in (3, 7, resolution):
        monkeypatch.setattr(symbols, "SCAN_TILE_POINTS", edge ** d)
        assert lower_bound_margin(fp, c0, grid, gamma0=gamma0) == scan
    if scan.c1_split is None:
        # the region box is the whole grid: no tile is skipped
        assert scan.points_evaluated == resolution ** d
    if resolution == 1024:
        # the default tiles skip all-high tiles at the benchmark's x_bar
        assert scan.points_evaluated < resolution ** d
    want_min, want_argmin, mesh_c1, want_regions, margin = mesh_scan(fp, c0, grid, gamma0)
    assert scan.argmin_xi == want_argmin
    assert scan.min_margin == pytest.approx(want_min, rel=1e-12)
    assert scan.c1_split == mesh_c1
    if want_c1 is not None:
        assert scan.c1_split == want_c1
    for name, (value, argmin, count) in want_regions.items():
        stat = scan.regions[name]
        assert stat.count == count
        if count:
            assert stat.argmin_xi == argmin
            assert stat.min_margin == pytest.approx(value, rel=1e-12)
        else:
            assert stat.min_margin is None and stat.argmin_xi is None
    assert sum(stat.count for stat in scan.regions.values()) == resolution ** d
    if x_bar == (1.0, 0.0):
        # g along e_1 and a diagonal Hessian: the margin is even in xi_2, and
        # the C-order argmin is the first of the tied pair, at xi_2 < 0
        i, j = np.unravel_index(np.argmin(margin), margin.shape)
        assert margin[i, resolution - 2 - j] == margin[i, j]
        assert scan.argmin_xi[1] < 0
    if x_bar == (0.0, 1.0):
        # the same along axis 0: the tied pair lies in two different slabs,
        # and the first slab's point, at xi_1 < 0, is kept
        i, j = np.unravel_index(np.argmin(margin), margin.shape)
        assert margin[resolution - 2 - i, j] == margin[i, j]
        assert scan.argmin_xi[0] < 0


def test_scan_computes_the_axis_trig_once_per_pass(monkeypatch):
    """``empirical_c1`` and the tile walk each compute the 1-D trig once,
    however many tiles the scan walks."""
    fp = frozen(d=2, tau=20.0, h=1 / 128, x_bar=(1.0, 0.0))
    grid = SymbolGrid(2, fp.h, 256)
    monkeypatch.setattr(symbols, "SCAN_TILE_POINTS", 16)  # 64^2 tiles of 4 x 4 points
    calls = []
    real = symbols._axis_trig
    monkeypatch.setattr(symbols, "_axis_trig", lambda *args: calls.append(args) or real(*args))
    lower_bound_margin(fp, 0.0025, grid)
    assert len(calls) == 2
    calls.clear()
    symbols.scan_table(fp, grid, 0.0025)
    assert len(calls) == 1


@pytest.mark.parametrize("shape", [(7,), (3, 5), (3, 2, 4), (2, 3, 2, 3)])
def test_row_tiles_cover_a_flat_range_in_order(shape):
    """Every flat range of the grid is its tiles' points in C order, in at
    most 2 d - 1 tiles, and a range of whole blocks along axis 0 is one tile."""
    index = np.arange(np.prod(shape)).reshape(shape)
    block = index[0].size
    for start, stop in itertools.combinations(range(index.size + 1), 2):
        tiles = symbols._row_tiles(start, stop, shape)
        assert len(tiles) <= 2 * len(shape) - 1
        np.testing.assert_array_equal(np.concatenate([index[t].ravel() for t in tiles]),
                                      np.arange(start, stop))
        if start % block == 0 and stop % block == 0:
            assert len(tiles) == 1
    assert symbols._row_tiles(3, 3, shape) == []


def test_scan_columns_share_one_evaluation_per_run(monkeypatch):
    """The four columns read one run of rows from one pass of
    ``_margin_terms`` over its tiles, not one pass per column."""
    fp = frozen(d=2, tau=20.0, h=1 / 128, x_bar=(1.0, 0.0))
    table = symbols.scan_table(fp, SymbolGrid(2, fp.h, 16), 0.0025)
    calls = []
    real = symbols._margin_terms
    monkeypatch.setattr(symbols, "_margin_terms", lambda *args: calls.append(args) or real(*args))
    # rows 20..59 of 16-point lines: the end of line 1, line 2, the start of line 3
    runs = [table[k][20:60] for k in ("p_r", "p_i", "q", "margin")]
    assert [r.shape for r in runs] == [(40,)] * 4
    assert [args[3] for args in calls] == [(slice(1, 2), slice(4, 16)), (slice(2, 3), slice(0, 16)),
                                           (slice(3, 4), slice(0, 12))]
    assert len(table["q"]) == 256 and table["q"][250:300].shape == (6,)
    with pytest.raises(ValueError, match="consecutive rows"):
        table["q"][::2]


def whole_grid_c1(fp, grid):
    """``empirical_c1`` as one pass over every grid point, the pass its box replaced."""
    trig = symbols._axis_trig(fp, grid)
    whole = (slice(0, grid.resolution),) * fp.d
    pr = symbols._outer_sum(symbols._pr_parts(fp, trig))
    norm = symbols._norm(trig[0] ** 2, whole)
    with np.errstate(divide="ignore", invalid="ignore"):
        bad = ~(pr ** 2 / norm ** 4 >= C1_FLOOR)
    worst, top = float(norm[bad].max()) if bad.any() else -np.inf, float(norm.max())
    for c1 in symbols.C1_CANDIDATES:
        if not c1 * fp.tau <= top:
            return None
        if c1 * fp.tau > worst:
            return float(c1)
    return None


def whole_grid_scan(fp, c0, grid, gamma0):
    """``lower_bound_margin`` with every region mask on the whole grid, as the
    scan made them before it confined them to the box |xi_j| < c1 tau."""
    d, res, ax = fp.d, grid.resolution, grid.axis()
    whole = (slice(0, res),) * d
    parts = symbols._axis_parts(fp, symbols._axis_trig(fp, grid))
    margin = _margin_terms(fp, parts, c0, whole)["margin"]
    c1 = whole_grid_c1(fp, grid)
    high = np.zeros(margin.shape, bool)
    if c1 is not None:
        high = symbols._norm(ax ** 2, whole) >= c1 * fp.tau
    near = (char_set_distance(grid.mesh(), fp) <= gamma0 * fp.tau) & ~high

    def stat(values, count):
        at = np.unravel_index(np.argmin(values), values.shape)
        return RegionStat(float(values[at]), tuple(float(ax[i]) for i in at), count)

    regions = {name: stat(np.where(mask, margin, np.inf), int(np.count_nonzero(mask)))
               if mask.any() else RegionStat(None, None, 0)
               for name, mask in zip(symbols.REGIONS, (high, near, ~(high | near)))}
    whole = stat(margin, margin.size)
    return MarginScan(whole.min_margin, whole.argmin_xi, res, c0, gamma0, c1, regions,
                      margin.size)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 3), tau=st.floats(1.5, 40.0), inv_h=st.integers(4, 256),
       c_ps=st.floats(0.01, 1.0), radius=st.floats(0.51, 1.99),
       direction=st.lists(st.floats(0.2, 1.0), min_size=3, max_size=3),
       signs=st.lists(st.sampled_from((-1.0, 1.0)), min_size=3, max_size=3),
       resolution=st.integers(8, 48), c0=st.floats(-0.02, 0.1), gamma0=st.floats(0.01, 0.5),
       edge=st.integers(2, 19))
def test_boxed_scan_matches_the_whole_grid(d, tau, inv_h, c_ps, radius, direction, signs,
                                           resolution, c0, gamma0, edge):
    x = np.array(direction[:d]) * np.array(signs[:d])
    fp = frozen(d=d, tau=tau, h=1.0 / inv_h, c_ps=c_ps,
                x_bar=tuple(radius * x / np.linalg.norm(x)))
    grid = SymbolGrid(d, fp.h, resolution)
    assert empirical_c1(fp, grid) == whole_grid_c1(fp, grid)
    # candidates tau/64 apart, up to the grid's largest |xi|, pin the largest
    # |xi| that fails the floor to within tau/64
    fine = np.arange(1, 64 * np.pi * np.sqrt(d) / (fp.h * fp.tau) + 2) / 64
    with mock.patch.object(symbols, "C1_CANDIDATES", tuple(fine.tolist())):
        assert empirical_c1(fp, grid) == whole_grid_c1(fp, grid)
    # on the dense mesh every point failing the floor lies within the reach
    # |g| / sqrt(4/pi^2 - sqrt(C1_FLOOR)), half the c1 box's
    xi = grid.mesh()
    norm = np.sqrt((xi ** 2).sum(axis=0))
    with np.errstate(divide="ignore", invalid="ignore"):
        bad = ~(symbol_pr(xi, fp) ** 2 / norm ** 4 >= C1_FLOOR)
    reach = np.linalg.norm(fp.grad_phi) / np.sqrt(4 / np.pi ** 2 - np.sqrt(C1_FLOOR))
    assert np.all(norm[bad] <= reach)
    # the region box against whole-grid masks, with tiles crossing it
    # anywhere and small enough that all-high tiles are skipped (none at a
    # negative c0, whose bounds are -inf)
    with mock.patch.object(symbols, "SCAN_TILE_POINTS", edge ** d):
        assert lower_bound_margin(fp, c0, grid, gamma0=gamma0) == whole_grid_scan(
            fp, c0, grid, gamma0)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 3), tau=st.floats(1.5, 40.0), inv_h=st.integers(4, 256),
       c_ps=st.floats(0.01, 1.0), radius=st.floats(0.51, 1.99),
       direction=st.lists(st.floats(0.2, 1.0), min_size=3, max_size=3),
       signs=st.lists(st.sampled_from((-1.0, 1.0)), min_size=3, max_size=3),
       resolution=st.integers(8, 48), c0=st.floats(0.0, 1.0), edge=st.integers(1, 19))
def test_tile_bounds_hold_on_every_tile(d, tau, inv_h, c_ps, radius, direction, signs,
                                        resolution, c0, edge):
    """Every margin computed on a tile is at least the tile's bound, on every
    tile of the grid, the all-high tiles the scan skips among them.

    The bounds are tightest without the commutator term (c0 = 0), where a
    tile across p_r = 0 near the characteristic set needs the straddle
    case, and on tiles of one point, where each bound is the computed margin.
    """
    x = np.array(direction[:d]) * np.array(signs[:d])
    fp = frozen(d=d, tau=tau, h=1.0 / inv_h, c_ps=c_ps,
                x_bar=tuple(radius * x / np.linalg.norm(x)))
    grid = SymbolGrid(d, fp.h, resolution)
    parts = symbols._axis_parts(fp, symbols._axis_trig(fp, grid))
    for coupling, e in itertools.product((0.0, c0), (1, edge)):
        with mock.patch.object(symbols, "SCAN_TILE_POINTS", e ** d):
            runs = symbols._runs(resolution, d)
        bounds = symbols._tile_bounds(fp, parts, coupling, runs)
        # the whole grid's margins have each tile's bits; reduce them per tile
        least = _margin_terms(fp, parts, coupling, (slice(0, resolution),) * d)["margin"]
        for axis in range(d):
            least = np.minimum.reduceat(least, [r.start for r in runs], axis=axis)
        assert bounds.shape == least.shape == (len(runs),) * d
        assert np.all(least >= bounds)
        if e == 1:
            # one-point tiles: the bound repeats the computed margin's rounded
            # steps in their order, so it is that margin bit for bit
            np.testing.assert_array_equal(bounds, least)


# Run in a fresh interpreter, so that OpenBLAS reads the core type when it loads
SCAN_HASHES = """
import dataclasses, hashlib, math, pickle
from carlat import FrozenPoint, SymbolGrid, WeightParams, lower_bound_margin
from carlat.symbols import scan_table
# the margin_scan benchmark's x_bar at seed 7, then a d = 3 point
for x_bar, res, tau, h in (((-0.4609070247133709, 0.8874484292452537), 256, 20.0, 1 / 128),
                           ((0.8, 0.4, -0.2), 40, 10.0, 1 / 64)):
    fp = FrozenPoint.from_weight(x_bar, WeightParams(tau, 0.01), h)
    grid = SymbolGrid(len(x_bar), h, res)
    scan = lower_bound_margin(fp, 0.0025, grid)
    compared = [getattr(scan, f.name) for f in dataclasses.fields(scan) if f.compare]
    table = scan_table(fp, grid, 0.0025)
    # the table's rows as the grid CSV reads them, in runs that cut lines mid-line
    runs = [slice(i, i + 300) for i in range(0, grid.resolution ** len(x_bar), 300)]
    data = [pickle.dumps(compared)] + [b"".join(table[k][r].tobytes() for r in runs)
                                       for k in ("p_r", "p_i", "q", "margin")]
    print(len(x_bar), *(hashlib.sha256(b).hexdigest() for b in data))
# frozen points at the margin_scan benchmark's base points of seeds 0 to 63,
# some of whose radii np.linalg.norm's BLAS dot rounds by the kernel
golden = (5 ** 0.5 - 1) / 2
points = [FrozenPoint.from_weight((math.cos(a), math.sin(a)), WeightParams(20.0, 0.01), 1 / 128)
          for a in (2 * math.pi * (seed * golden % 1) for seed in range(64))]
print(hashlib.sha256(b"".join(p.grad_phi.tobytes() + p.hess_phi.tobytes()
                              for p in points)).hexdigest())
"""


@x86_64_only
def test_scan_bits_do_not_depend_on_the_blas_kernel():
    """The scan, its table and the frozen points have the same bits under
    OpenBLAS's default kernel and its oldest x86-64 one."""
    runs = output_under_two_blas_kernels(SCAN_HASHES)
    assert len(runs[0].splitlines()) == 3
    assert runs[0] == runs[1]


def test_scan_holds_no_whole_grid():
    # five float64 grids at 4096^2 would be 671 MB; the c1 pass holds three
    # float64 arrays on a row of tiles of its box, the scan a row's or a
    # tile's margin terms and the bounds of all its tiles
    fp = frozen()
    grid = SymbolGrid(2, fp.h, 4096)
    for run, bound in ((lambda: empirical_c1(fp, grid), 4 << 20),
                       (lambda: lower_bound_margin(fp, 0.0025, grid), 16 << 20)):
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound


class TestGridGuard:
    def test_largest_scanned_grids_pass(self):
        assert SymbolGrid(2, 1 / 128, 4096).resolution ** 2 <= MAX_GRID_POINTS
        assert SymbolGrid(3, 1 / 128, 256).resolution ** 3 <= MAX_GRID_POINTS

    def test_oversized_grid_refused_before_allocating(self):
        points = 512 ** 3
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as info:
                SymbolGrid(3, 1 / 128, 512)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        message = str(info.value)
        assert f"{points} points" in message
        assert f"near-set box (lower_bound_margin), which can span the whole grid, would need " \
               f"up to about {points * SCAN_BYTES_PER_POINT} bytes" in message
        assert peak < 1 << 20

    def test_refinement_cannot_pass_the_guard(self):
        with pytest.raises(ValueError, match="MAX_GRID_POINTS"):
            SymbolGrid(2, 1 / 128, 8192)


class TestFrozenPoint:
    def test_from_weight_consistency(self):
        from carlat import phi_eval

        params = WeightParams(12.0, 0.01)
        fp = FrozenPoint.from_weight((0.9, 0.7), params, 1 / 64)
        ev = phi_eval(np.array([0.9, 0.7]), params)
        np.testing.assert_allclose(fp.grad_phi, ev.gradient, rtol=1e-12)
        np.testing.assert_allclose(fp.hess_phi, ev.hessian, rtol=1e-12)

    def test_annulus_enforced(self):
        with pytest.raises(ValueError, match="annulus"):
            FrozenPoint.from_weight((3.0, 0.0), WeightParams(2.0), 1 / 32)
        with pytest.raises(ValueError, match="annulus"):
            FrozenPoint.from_weight((0.1, 0.0), WeightParams(2.0), 1 / 32)

    def test_asymmetric_hessian_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            FrozenPoint((1.0, 0.0), np.ones(2), np.array([[1.0, 2.0], [0.0, 1.0]]),
                        tau=2.0, h=0.1)
