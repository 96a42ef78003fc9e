"""Desk-scale measurements of the propagation-of-smallness inequalities.

Every experiment is a deterministic function of its configuration and seeds
and returns an ExperimentReport.  Norm conventions (h^d weight, strictly
open balls) come from the lattice module; the two-term convexity exponents
c1, c2 and the interpolation exponent alpha come from the weight module.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .conjugate import (
    RATIO_TABLES,
    ConjugationContext,
    antisym_apply,
    carleman_annulus,
    carleman_box,
    carleman_ratio,
    conjugate_apply,
    sym_apply,
)
from .lattice import (
    BallRegion,
    FieldData,
    LatticeFunction,
    LatticeSpec,
    diff,
    l2_norm,
    laplacian,
    coarsen,
    stretch,
)
from .reports import ExperimentReport, FittedConstant, linear_fit
from .solver import _smoothstep, ball_input, harmonic_polynomial, random_bump
from .weight import WeightParams, weight_constants


def in_window(tau: float, h: float, tau0: float, delta0: float) -> bool:
    """The admissible window of the large parameter, open at both ends; every
    tau rule and the log-convexity scan classify tau with it."""
    return tau > 1 and tau0 < tau < delta0 / h


def window_taus(h: float, tau0: float, delta0: float) -> tuple:
    """Default log-convexity tau grid: 12 geometric points 1% inside the ends
    of ``in_window``, max(1, tau0) and delta0/h, or the lower one alone."""
    lo, hi = max(1.0, tau0) * 1.01, delta0 / h * 0.99
    return tuple(np.geomspace(lo, hi, 12)) if hi > lo else (lo,)


def h_sweep(h_grid) -> tuple:
    """The spacings of an h sweep as floats: positive, strictly descending."""
    hs = tuple(float(h) for h in h_grid)
    if any(h <= 0 for h in hs):
        raise ValueError("spacings must be positive")
    if any(a <= b for a, b in zip(hs, hs[1:])):
        raise ValueError("spacings must be strictly descending")
    return hs


def _check_fraction_rule(tau_fraction: float, tau0: float, delta0: float) -> None:
    # tau_fraction = 1 puts tau on the window's open upper end, delta0/h
    if not 0 < tau_fraction < 1:
        raise ValueError("tau_fraction must lie in (0, 1)")
    if not (delta0 > 0 and tau0 > 0):
        raise ValueError("delta0 and tau0 must be positive")


@dataclass(frozen=True)
class SweepConfig:
    """Parameters of the Carleman sweep.

    The ``"fraction"`` rule measures tau = tau_fraction * delta0 / h at each
    h; the ``"grid"`` rule measures every tau of ``tau_grid`` at each h.
    Only taus inside ``in_window`` are measured.  The window bounds are
    empirical knobs (reported, never asserted to match any canonical value)
    and every report echoes them.
    """

    d: int = 2
    h_grid: tuple = (1 / 32, 1 / 64, 1 / 128)
    tau_rule: str = "fraction"
    tau_fraction: float = 0.5
    tau_grid: tuple = ()
    tau0: float = 1.0
    delta0: float = 0.1
    c_ps: float = 0.01
    seed: int = 0
    n_samples: int = 8
    growth_cap: float = 2.0
    ds_mode: str = "symmetric"

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        hs = h_sweep(self.h_grid)
        taus = tuple(float(t) for t in self.tau_grid)
        if self.tau_rule not in ("fraction", "grid"):
            raise ValueError(f"unknown tau rule {self.tau_rule!r}")
        if self.tau_rule == "grid" and not taus:
            raise ValueError("tau rule 'grid' needs a nonempty tau_grid")
        if self.tau_rule == "fraction" and taus:
            raise ValueError("tau_grid is only read by the 'grid' tau rule")
        _check_fraction_rule(self.tau_fraction, self.tau0, self.delta0)
        object.__setattr__(self, "h_grid", hs)
        object.__setattr__(self, "tau_grid", taus)


def _cell_seed(root: int, *indices: int) -> int:
    mixed = np.random.SeedSequence((root,) + indices).generate_state(1)[0]
    return int(mixed)


def ball_norms(u: LatticeFunction) -> tuple:
    return tuple(l2_norm(u, BallRegion.origin(u.spec.d, r)) for r in (0.5, 1.0, 2.0))


def harmonic_residual(u: LatticeFunction, radius: float | None = None) -> float:
    """sup of the unscaled Laplacian over interior sites.

    The box's edge layer is excluded; when ``radius`` is given only sites
    with |h n| < radius are measured (for inputs certified harmonic on a
    ball only).  A measurement with no site raises ``ValueError``.
    """
    res = np.abs(laplacian(u).values)
    mask = np.zeros(u.spec.shape, dtype=bool)
    mask[tuple(slice(1, s - 1) for s in u.spec.shape)] = True
    if radius is not None:
        mask &= u.spec.radii() < radius
    if not mask.any():
        raise ValueError("no interior site to measure the harmonic residual on")
    return float(res[mask].max())


# ---------------------------------------------------------------------------
# logarithmic convexity
# ---------------------------------------------------------------------------

def log_convexity_scan(u: LatticeFunction, tau_grid, c_ps: float = 0.01,
                       tau0: float = 5.0, delta0: float = 0.1) -> ExperimentReport:
    """Two-term convexity constants C_emp(tau) over a tau grid.

    C_emp(tau) = |u|_B1 / (e^{c1 tau} |u|_B1/2 + e^{-c2 tau} |u|_B2) with
    c1, c2 evaluated from the weight profile.  Only taus inside
    ``in_window`` contribute to the fitted maximum.
    """
    c1, c2, alpha = weight_constants(c_ps)
    h = u.spec.h
    n_half, n_one, n_two = ball_norms(u)
    if n_two == 0.0:
        raise ValueError("degenerate input: u vanishes on B_2")
    report = ExperimentReport("log_convexity", {
        "h": h, "d": u.spec.d, "c_ps": c_ps, "tau0": tau0, "delta0": delta0,
        "c1": c1, "c2": c2, "alpha": alpha, "tau_grid": [float(t) for t in tau_grid],
    })
    best = None
    for tau in tau_grid:
        tau = float(tau)
        admissible = in_window(tau, h, tau0, delta0)
        denom = math.exp(c1 * tau) * n_half + math.exp(-c2 * tau) * n_two
        c_emp = n_one / denom
        report.add_row(tau=tau, admissible=admissible, c_emp=c_emp,
                       norm_half=n_half, norm_one=n_one, norm_two=n_two)
        if admissible and (best is None or c_emp > best):
            best = c_emp
    if best is None:
        report.warn("no tau in the admissible window (tau0, delta0/h)")
    else:
        report.fit("c_emp_max", FittedConstant(best, n=len(report.rows)))
    return report


# ---------------------------------------------------------------------------
# three balls
# ---------------------------------------------------------------------------

def three_balls_experiment(solutions, c_ps: float = 0.01,
                           bound_constant: float = 10.0) -> ExperimentReport:
    """Interpolation ratios R(h) and, where they exceed the bound, the
    exponential-correction fit.

    R(h) = |u|_B1 / (|u|_B1/2^alpha |u|_B2^(1-alpha)) with
    alpha = c2/(c1+c2).  Rows with R(h) > bound_constant feed a linear fit of
    log(excess/|u|_B2) against 1/h whose negated slope estimates the
    correction exponent.
    """
    solutions = list(solutions)
    if not solutions:
        raise ValueError("need at least one solution")
    h_sweep(u.spec.h for u in solutions)
    c1, c2, alpha = weight_constants(c_ps)
    report = ExperimentReport("three_balls", {
        "c_ps": c_ps, "c1": c1, "c2": c2, "alpha": alpha,
        "bound_constant": bound_constant,
        "h_grid": [u.spec.h for u in solutions],
        "d": solutions[0].spec.d,
    })
    for u in solutions:
        n_half, n_one, n_two = ball_norms(u)
        if n_two == 0.0:
            raise ValueError("degenerate input: u vanishes on B_2")
        geom = n_half ** alpha * n_two ** (1.0 - alpha)
        ratio = n_one / geom if geom > 0 else float("inf")
        excess = n_one - bound_constant * geom
        report.add_row(h=u.spec.h, norm_half=n_half, norm_one=n_one,
                       norm_two=n_two, ratio=ratio, excess=excess,
                       excess_rel=excess / n_two,
                       active=bool(excess > 0.0))
    ratios = [row["ratio"] for row in report.rows]
    report.fit("ratio_max", FittedConstant(max(ratios), n=len(ratios)))
    active = [row for row in report.rows if row["active"]]
    if active:
        if len(active) < 3:
            raise ValueError("insufficient sweep")
        x = np.array([1.0 / row["h"] for row in active])
        y = np.log(np.maximum([row["excess_rel"] for row in active], 1e-300))
        slope, _, r2, rms = linear_fit(x, y)
        report.fit("c0_emp", FittedConstant(-slope, n=len(active),
                                            r_squared=r2, residual=rms))
        report.passed = bool(-slope > 0 and r2 >= 0.9)
    else:
        report.passed = True
    return report


def rescaled_three_balls(u: LatticeFunction, m: int) -> ExperimentReport:
    """Three-balls ratios for u_m(x) = u(x/m) on the stretched lattice.

    Requires u discrete-harmonic on its whole box and its m-coarsening
    harmonic as well (both verified here); the stretched function is then
    harmonic with spacing m*h and the plain three-balls measurement applies
    to it, which is the rescaled inequality for u on the balls of radius
    1/m, 1/(2m), 2/m.
    """
    if m < 1:
        raise ValueError("rescaling factor must be a positive integer")
    tol = 1e-10 * max(1.0, float(np.abs(u.values).max()))
    if harmonic_residual(u) > tol:
        raise ValueError("input function is not discrete harmonic")
    if harmonic_residual(coarsen(u, m)) > tol:
        raise ValueError("coarsened function is not harmonic")
    um = stretch(u, m)
    report = three_balls_experiment([um])
    report.name = "rescaled_three_balls"
    report.config["m"] = m
    report.config["h_fine"] = u.spec.h
    return report


# ---------------------------------------------------------------------------
# Carleman sweep
# ---------------------------------------------------------------------------

def carleman_sweep(cfg: SweepConfig, jobs: int = 1) -> ExperimentReport:
    """Carleman-ratio statistics over seeded annulus bumps and an h sweep.

    At each admissible (h, tau) the ratio of the three-term weighted energy
    to the weighted source norm is recorded for n_samples seeded bumps; the
    per-h maximum must not grow by more than growth_cap from one h to the
    next, which is the h-uniformity of the estimate's constant.

    The cells run on ``jobs`` threads.  The context tables they read are
    built on the calling thread first, because ``_cache`` has no lock.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    report = ExperimentReport("carleman_sweep", asdict(cfg))
    annulus = carleman_annulus(cfg.d)

    cells = []
    contexts = {}
    for ih, h in enumerate(cfg.h_grid):
        taus = cfg.tau_grid if cfg.tau_rule == "grid" else (cfg.tau_fraction * cfg.delta0 / h,)
        for tau in taus:
            if not in_window(tau, h, cfg.tau0, cfg.delta0):
                report.warn(f"tau={tau:g} outside the window (tau0, delta0/h) at h={h:g}; skipped")
                report.add_row(h=h, tau=tau, admissible=False, seed=None,
                               ratio=None, lhs=None, rhs=None)
                continue
            if (ih, tau) not in contexts:
                contexts[ih, tau] = ConjugationContext.from_weight(
                    carleman_box(cfg.d, h), WeightParams(tau, cfg.c_ps))
            for s in range(cfg.n_samples):
                cells.append((ih, h, tau, s))

    def run_cell(cell):
        ih, h, tau, s = cell
        ctx = contexts[ih, tau]
        u = random_bump(ctx.spec, annulus, _cell_seed(cfg.seed, ih, s))
        r = carleman_ratio(u, ctx, ds_mode=cfg.ds_mode)
        return cell, r

    for ctx in contexts.values():
        ctx.build_tables(*RATIO_TABLES)
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        results = list(pool.map(run_cell, cells))

    per_h = {}
    for (ih, h, tau, s), r in results:
        report.add_row(h=h, tau=tau, admissible=True, seed=s,
                       ratio=r.ratio, lhs=r.lhs, rhs=r.rhs)
        per_h.setdefault((ih, h), []).append(r.ratio)

    growth_ok = None
    prev_max = None
    for (ih, h), ratios in sorted(per_h.items()):
        rmax = max(ratios)
        med = float(np.median(ratios))
        report.fit(f"ratio_max_h={h:g}", FittedConstant(rmax, n=len(ratios)))
        report.fit(f"ratio_median_h={h:g}", FittedConstant(med, n=len(ratios)))
        if prev_max is not None:
            growth = rmax / prev_max
            ok = growth <= cfg.growth_cap
            growth_ok = ok if growth_ok is None else (growth_ok and ok)
            report.fit(f"growth_h={h:g}", FittedConstant(growth, n=len(ratios)))
        prev_max = rmax
    report.passed = growth_ok
    return report


# ---------------------------------------------------------------------------
# Caccioppoli
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CaccioppoliRatio:
    lhs: float
    rhs: float
    ratio: float


def caccioppoli_ratio(u: LatticeFunction, r1: float, r2: float) -> CaccioppoliRatio:
    """Interior gradient energy on B_r1 against the solution norm on B_r2.

    lhs = sum_j |h^-1 (u(.+h e_j) - u)|^2 on B_r1, rhs = |u|^2 on B_r2.
    The radii must leave room for a cutoff: 10h < r1 and r1 + 10h < r2.
    """
    spec = u.spec
    h = spec.h
    if not (10 * h < r1 and r1 + 10 * h < r2):
        raise ValueError("radii too close for h")
    reach = int(math.floor(r2 / h))
    if any(-lo < reach or hi < reach for lo, hi in zip(spec.lo, spec.hi)):
        raise ValueError(f"lattice box does not cover B_{r2:g}")
    inner = BallRegion.origin(spec.d, r1)
    outer = BallRegion.origin(spec.d, r2)
    lhs = 0.0
    for j in range(1, spec.d + 1):
        lhs += l2_norm(diff(u, j, "forward"), inner) ** 2 / h ** 2
    rhs = l2_norm(u, outer) ** 2
    if rhs == 0.0:
        raise ValueError(f"degenerate input: u vanishes on B_{r2:g}")
    return CaccioppoliRatio(lhs, rhs, lhs / rhs)


def caccioppoli_sweep(kind: str, d: int, h_grid, r1: float = 1.0,
                      r2: float = 2.0) -> ExperimentReport:
    """Caccioppoli ratios of one harmonic polynomial across two or more spacings."""
    hs = h_sweep(h_grid)
    if len(hs) < 2:
        raise ValueError("the ratio spread needs at least two spacings")
    report = ExperimentReport("caccioppoli", {
        "kind": kind, "d": d, "h_grid": list(hs), "r1": r1, "r2": r2,
    })
    ratios = []
    for h in hs:
        spec = LatticeSpec.ball_box(d, h, r2, pad_sites=2)
        u = harmonic_polynomial(spec, kind)
        rec = caccioppoli_ratio(u, r1, r2)
        report.add_row(h=h, lhs=rec.lhs, rhs=rec.rhs, ratio=rec.ratio)
        ratios.append(rec.ratio)
    report.fit("ratio_max", FittedConstant(max(ratios), n=len(ratios)))
    spread = max(ratios) / min(ratios) - 1.0
    report.fit("relative_spread", FittedConstant(spread, n=len(ratios)))
    return report


# ---------------------------------------------------------------------------
# localization
# ---------------------------------------------------------------------------

def _axis_profile(t):
    """Plateau/ramp profile: 1 on |t|<=1/4, smooth to 0 at |t|=3/4.

    Integer translates sum to 1, neighboring pieces overlap pairwise per
    axis, and a piece is identically 1 on its plateau where all neighbors
    vanish.
    """
    return _smoothstep((0.75 - np.abs(t)) * 2.0)


def partition_pieces(f: LatticeFunction, scale: float):
    """Cubic partition-of-unity pieces of the given scale covering supp f."""
    spec = f.spec
    x = spec.coords()
    nz = f.values != 0.0
    if not nz.any():
        return []
    pieces = []
    ranges = []
    for a in range(spec.d):
        vals = x[a][nz]
        k_lo = int(math.floor(vals.min() / scale - 0.75)) + 1
        k_hi = int(math.ceil(vals.max() / scale + 0.75)) - 1
        ranges.append(range(k_lo, k_hi + 1))
    grid = np.meshgrid(*[np.array(list(r)) for r in ranges], indexing="ij")
    ks = np.stack([g.ravel() for g in grid], axis=-1) if ranges else np.zeros((1, 0))
    for k in ks:
        psi = np.ones(spec.shape)
        for a in range(spec.d):
            psi = psi * _axis_profile(x[a] / scale - float(k[a]))
        if np.any(psi[nz] != 0.0):
            pieces.append((tuple(int(c) for c in k), psi))
    return pieces


def localization_diagnostic(f: LatticeFunction, ctx: ConjugationContext,
                            eps0: float) -> ExperimentReport:
    """Partition-of-unity localization constants for S, A and L.

    Builds the cubic partition at scale eps0^-1 tau^-1/2, splits f into the
    pieces, and reports sum_k |Op f_k| against |Op f| plus the derivative and
    L2 norms that bound the localization error; the empirical constant is
    the ratio of the left side to the summed right side.  When the scale
    exceeds the support a single piece covers it and the sum is exact.
    """
    if ctx.params is None:
        raise ValueError("localization needs a context built from weight parameters")
    if not 0 < eps0 < 1:
        raise ValueError("eps0 must lie in (0, 1)")
    tau = ctx.params.tau
    h = ctx.spec.h
    scale = 1.0 / (eps0 * math.sqrt(tau))
    pieces = partition_pieces(f, scale)
    if not pieces:
        raise ValueError("degenerate input: f vanishes")
    total = np.zeros(ctx.spec.shape)
    for _, psi in pieces:
        total += psi
    nz = f.values != 0.0
    if not np.allclose(total[nz], 1.0, rtol=0, atol=1e-12):
        raise AssertionError("partition pieces do not sum to 1 on supp f")

    norm_f = l2_norm(f)
    t_ds = sum(l2_norm(diff(f, j, "symmetric")) / h for j in range(1, ctx.spec.d + 1))
    report = ExperimentReport("localization", {
        "eps0": eps0, "tau": tau, "h": h, "scale": scale,
        "n_pieces": len(pieces), "d": ctx.spec.d,
    })
    ops = {
        "S": (sym_apply, [("norm_op", 1.0), ("ds", math.sqrt(tau) * eps0),
                          ("l2", tau * eps0 + tau ** 2.5 * h * eps0)]),
        "A": (antisym_apply, [("norm_op", 1.0), ("l2", tau ** 1.5 * eps0)]),
        "L": (conjugate_apply, [("norm_op", 1.0), ("ds", math.sqrt(tau) * eps0),
                                ("l2", tau * eps0 + tau ** 1.5 * eps0 + tau ** 2.5 * h * eps0)]),
    }
    for name, (op, weights) in ops.items():
        whole = l2_norm(op(f, ctx))
        split = sum(l2_norm(op(f.with_values(f.values * psi), ctx))
                    for _, psi in pieces)
        ingredients = {"norm_op": whole, "ds": t_ds, "l2": norm_f}
        denom = sum(w * ingredients[key] for key, w in weights)
        c_emp = split / denom if denom > 0 else float("inf")
        report.add_row(op=name, norm_whole=whole, sum_pieces=split,
                       c_emp=c_emp,
                       minkowski_ok=bool(whole <= split * (1 + 1e-12) + 1e-300))
        report.fit(f"c_emp_{name}", FittedConstant(c_emp, n=len(pieces)))
    return report


# ---------------------------------------------------------------------------
# singular potentials
# ---------------------------------------------------------------------------

def singular_field_data(spec: LatticeSpec, mu0: float, seed: int) -> FieldData:
    """Random V, B saturating |V| <= mu0 h^-3/2 and |B| <= mu0 h^-1/2."""
    rng = np.random.default_rng(seed)
    h = spec.h
    v = LatticeFunction(spec, mu0 * h ** -1.5 * rng.uniform(-1.0, 1.0, spec.shape))
    bs = tuple(LatticeFunction(spec, mu0 * h ** -0.5 * rng.uniform(-1.0, 1.0, spec.shape))
               for _ in range(spec.d))
    return FieldData(v, bs)


def singular_potential_experiment(mu0: float, d: int, h_grid, tau_fraction: float,
                                  tau0: float, delta0: float, c_ps: float = 0.01,
                                  seed: int = 0, solve_tol: float = 1e-8) -> ExperimentReport:
    """Convexity measurement with potentials growing as h^-3/2.

    At each h with tau = tau_fraction * delta0 / h inside ``in_window``, the
    B_4 Dirichlet problem with h-saturating random fields is solved and
    ``log_convexity_scan`` gives C_emp at tau.  The exponents per 1/h,
    chat_i = c_i * tau * h, do not depend on h under this tau rule.  The
    facts of each solve go to the sidecar, ``report.meta["inputs"]``.
    """
    if mu0 < 0:
        raise ValueError("mu0 must be nonnegative")
    hs = h_sweep(h_grid)
    _check_fraction_rule(tau_fraction, tau0, delta0)
    c1, c2, _ = weight_constants(c_ps)
    report = ExperimentReport("singular_potential", {
        "d": d, "h_grid": list(hs), "tau_fraction": tau_fraction, "tau0": tau0,
        "delta0": delta0, "c_ps": c_ps, "seed": seed, "mu0": mu0,
        "solve_tol": solve_tol, "c1": c1, "c2": c2,
    })
    for ih, h in enumerate(hs):
        tau = tau_fraction * delta0 / h
        if not in_window(tau, h, tau0, delta0):
            report.warn(f"no admissible tau at h={h:g}; skipped")
            continue
        u, facts = ball_input(d, h, "solve", tol=solve_tol,
                              fields=lambda spec: singular_field_data(spec, mu0, _cell_seed(seed, ih)))
        report.meta.setdefault("inputs", []).append(facts)
        row = log_convexity_scan(u, (tau,), c_ps, tau0, delta0).rows[0]
        report.add_row(h=h, tau=tau, residual=facts["residual"],
                       chat1=c1 * tau * h, chat2=c2 * tau * h,
                       **{k: row[k] for k in ("c_emp", "norm_half", "norm_one", "norm_two")})
    if report.rows:
        chat2_min = min(row["chat2"] for row in report.rows)
        report.fit("c_emp_max", FittedConstant(
            max(row["c_emp"] for row in report.rows), n=len(report.rows)))
        report.fit("chat2_min", FittedConstant(chat2_min, n=len(report.rows)))
        report.passed = bool(chat2_min > 0)
    return report


# ---------------------------------------------------------------------------
# coarsening
# ---------------------------------------------------------------------------

def coarsen_check(u: LatticeFunction, factors=(2, 3, 4), tol: float = 1e-12,
                  radius: float | None = None) -> ExperimentReport:
    """Harmonicity of coarsened restrictions, relative to the input norm.

    ``radius`` restricts the residual measurement to the ball on which the
    input is certified harmonic (solver outputs are harmonic inside the
    solved ball only); the measured ball shrinks by m*h per factor so that
    every fine stencil the coarse one telescopes into stays certified.
    """
    scale = l2_norm(u)
    if scale == 0.0:
        raise ValueError("degenerate input: u vanishes")
    report = ExperimentReport("coarsen_check", {
        "h": u.spec.h, "d": u.spec.d, "factors": list(factors), "tol": tol,
        "radius": radius,
    })
    h = u.spec.h
    fine_res = harmonic_residual(u, radius=None if radius is None else radius - h)
    ok = True
    for m in factors:
        uc = coarsen(u, m)
        r_eff = None if radius is None else radius - (m + 1) * h
        res = harmonic_residual(uc, radius=r_eff)
        rel = res / scale
        within = bool(rel <= tol)
        ok = ok and within
        report.add_row(m=m, h_coarse=uc.spec.h, residual=res,
                       residual_rel=rel, within_tol=within)
    report.fit("fine_residual", FittedConstant(fine_res, n=1))
    report.passed = ok
    return report
