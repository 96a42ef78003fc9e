"""Desk-scale measurements of the propagation-of-smallness inequalities.

Every experiment is a deterministic function of its configuration and seeds
and returns an ExperimentReport.  Norm conventions (h^d weight, strictly
open balls) come from the lattice module; the two-term convexity exponents
c1, c2 and the interpolation exponent alpha come from the weight module.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .conjugate import (
    RATIO_TABLES,
    ConjugationContext,
    antisym_apply,
    carleman_ratio,
    conjugate_apply,
    sym_apply,
)
from .lattice import (
    AnnularRegion,
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
from .solver import (
    DirichletProblem,
    _smoothstep,
    dirichlet_solve,
    harmonic_polynomial,
    random_bump,
    residual,
)
from .weight import WeightParams, weight_constants


@dataclass(frozen=True)
class SweepConfig:
    """Shared sweep parameters.

    The admissible window for the large parameter is (tau0, delta0/h).  The
    ``"fraction"`` rule measures tau = tau_fraction * delta0 / h at each h;
    the ``"grid"`` rule measures every tau of ``tau_grid`` at each h.  The
    window bounds are empirical knobs (reported, never asserted to match any
    canonical value) and every report echoes them.
    """

    d: int = 2
    h_grid: tuple = (1 / 32, 1 / 64, 1 / 128)
    tau_rule: str = "fraction"
    tau_fraction: float = 0.5
    tau_grid: tuple = ()
    tau0: float = 5.0
    delta0: float = 0.1
    c_ps: float = 0.01
    seed: int = 0
    n_samples: int = 8
    growth_cap: float = 2.0
    ds_mode: str = "symmetric"

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        hs = tuple(float(h) for h in self.h_grid)
        if any(h <= 0 for h in hs):
            raise ValueError("spacings must be positive")
        if list(hs) != sorted(hs, reverse=True):
            raise ValueError("h_grid must be strictly descending")
        taus = tuple(float(t) for t in self.tau_grid)
        if self.tau_rule not in ("fraction", "grid"):
            raise ValueError(f"unknown tau rule {self.tau_rule!r}")
        if self.tau_rule == "grid" and not taus:
            raise ValueError("tau rule 'grid' needs a nonempty tau_grid")
        if self.tau_rule == "fraction" and taus:
            raise ValueError("tau_grid is only read by the 'grid' tau rule")
        if not 0 < self.tau_fraction <= 1:
            raise ValueError("tau_fraction must lie in (0, 1]")
        if not (self.delta0 > 0 and self.tau0 > 0):
            raise ValueError("delta0 and tau0 must be positive")
        object.__setattr__(self, "h_grid", hs)
        object.__setattr__(self, "tau_grid", taus)

    def taus_for(self, h: float) -> tuple:
        if self.tau_rule == "fraction":
            return (self.tau_fraction * self.delta0 / h,)
        return self.tau_grid

    def admissible(self, tau: float, h: float) -> bool:
        return tau > 1 and self.tau0 < tau < self.delta0 / h

    def echo(self) -> dict:
        return {
            "d": self.d, "h_grid": list(self.h_grid), "tau_rule": self.tau_rule,
            "tau_fraction": self.tau_fraction, "tau_grid": list(self.tau_grid),
            "tau0": self.tau0, "delta0": self.delta0, "c_ps": self.c_ps, "seed": self.seed,
            "n_samples": self.n_samples, "growth_cap": self.growth_cap,
            "ds_mode": self.ds_mode,
        }


def _cell_seed(root: int, *indices: int) -> int:
    mixed = np.random.SeedSequence((root,) + indices).generate_state(1)[0]
    return int(mixed)


def ball_norms(u: LatticeFunction, radii=(0.5, 1.0, 2.0), center=None) -> tuple:
    c = (0.0,) * u.spec.d if center is None else tuple(center)
    return tuple(l2_norm(u, BallRegion(c, r)) for r in radii)


def harmonic_residual(u: LatticeFunction, shrink: int = 1,
                      radius: float | None = None) -> float:
    """sup of the unscaled Laplacian over interior sites.

    Sites closer than ``shrink`` to the box edge are excluded; when
    ``radius`` is given only sites with |h n| < radius are measured (for
    inputs certified harmonic on a ball only).
    """
    res = np.abs(laplacian(u).values)
    mask = np.zeros(u.spec.shape, dtype=bool)
    sl = tuple(slice(shrink, s - shrink) for s in u.spec.shape)
    mask[sl] = True
    if radius is not None:
        mask &= u.spec.radii() < radius
    return float(res[mask].max()) if mask.any() else 0.0


# ---------------------------------------------------------------------------
# logarithmic convexity
# ---------------------------------------------------------------------------

def log_convexity_scan(u: LatticeFunction, tau_grid, c_ps: float = 0.01,
                       tau0: float = 5.0, delta0: float = 0.1,
                       center=None) -> ExperimentReport:
    """Two-term convexity constants C_emp(tau) over a tau grid.

    C_emp(tau) = |u|_B1 / (e^{c1 tau} |u|_B1/2 + e^{-c2 tau} |u|_B2) with
    c1, c2 evaluated from the weight profile.  Only admissible taus
    contribute to the fitted maximum.
    """
    c1, c2, alpha = weight_constants(c_ps)
    h = u.spec.h
    n_half, n_one, n_two = ball_norms(u, center=center)
    if n_two == 0.0:
        raise ValueError("degenerate input: u vanishes on B_2")
    report = ExperimentReport("log_convexity", {
        "h": h, "d": u.spec.d, "c_ps": c_ps, "tau0": tau0, "delta0": delta0,
        "c1": c1, "c2": c2, "alpha": alpha, "tau_grid": [float(t) for t in tau_grid],
    })
    best = None
    for tau in tau_grid:
        tau = float(tau)
        admissible = tau0 < tau < delta0 / h
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

def _three_balls_rows(report: ExperimentReport, solutions, alpha: float,
                      bound_constant: float, center=None):
    for u in solutions:
        n_half, n_one, n_two = ball_norms(u, center=center)
        if n_two == 0.0:
            raise ValueError("degenerate input: u vanishes on B_2")
        geom = n_half ** alpha * n_two ** (1.0 - alpha)
        ratio = n_one / geom if geom > 0 else float("inf")
        excess = n_one - bound_constant * geom
        report.add_row(h=u.spec.h, norm_half=n_half, norm_one=n_one,
                       norm_two=n_two, ratio=ratio, excess=excess,
                       excess_rel=excess / n_two,
                       active=bool(excess > 0.0))


def three_balls_experiment(solutions, c_ps: float = 0.01,
                           bound_constant: float = 10.0,
                           center=None) -> ExperimentReport:
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
    c1, c2, alpha = weight_constants(c_ps)
    report = ExperimentReport("three_balls", {
        "c_ps": c_ps, "c1": c1, "c2": c2, "alpha": alpha,
        "bound_constant": bound_constant,
        "h_grid": [u.spec.h for u in solutions],
        "d": solutions[0].spec.d,
    })
    _three_balls_rows(report, solutions, alpha, bound_constant, center)
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


def rescaled_three_balls(u: LatticeFunction, m: int, c_ps: float = 0.01,
                         bound_constant: float = 10.0,
                         harmonic_tol: float = 1e-10,
                         certified_radius: float | None = None,
                         center=None) -> ExperimentReport:
    """Three-balls ratios for u_m(x) = u(x/m) on the stretched lattice.

    Requires u discrete-harmonic on its lattice and its m-coarsening
    harmonic as well (verified here, inside ``certified_radius`` when the
    input comes from a ball solve); the stretched function is then harmonic
    with spacing m*h and the plain three-balls measurement applies to it,
    which is the rescaled inequality for u on the balls of radius
    1/m, 1/(2m), 2/m.
    """
    if m < 1:
        raise ValueError("rescaling factor must be a positive integer")
    h = u.spec.h
    scale = max(1.0, float(np.abs(u.values).max()))
    fine_r = None if certified_radius is None else certified_radius - h
    coarse_r = None if certified_radius is None else certified_radius - (m + 1) * h
    if harmonic_residual(u, radius=fine_r) > harmonic_tol * scale:
        raise ValueError("input function is not discrete harmonic")
    if harmonic_residual(coarsen(u, m), radius=coarse_r) > harmonic_tol * scale:
        raise ValueError("coarsened function is not harmonic")
    um = stretch(u, m)
    report = three_balls_experiment([um], c_ps, bound_constant, center=center)
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
    report = ExperimentReport("carleman_sweep", cfg.echo())
    annulus = AnnularRegion.origin(cfg.d, 0.5, 2.0)

    cells = []
    contexts = {}
    for ih, h in enumerate(cfg.h_grid):
        for tau in cfg.taus_for(h):
            if not cfg.admissible(tau, h):
                report.warn(f"tau={tau:g} outside the window (tau0, delta0/h) at h={h:g}; skipped")
                report.add_row(h=h, tau=tau, admissible=False, seed=None,
                               ratio=None, lhs=None, rhs=None)
                continue
            if (ih, tau) not in contexts:
                spec = LatticeSpec.ball_box(cfg.d, h, 2.0, pad_sites=4)
                contexts[ih, tau] = ConjugationContext.from_weight(
                    spec, WeightParams(tau, cfg.c_ps))
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
    """Caccioppoli ratios of one harmonic polynomial across an h sweep."""
    report = ExperimentReport("caccioppoli", {
        "kind": kind, "d": d, "h_grid": [float(h) for h in h_grid],
        "r1": r1, "r2": r2,
    })
    ratios = []
    for h in h_grid:
        spec = LatticeSpec.ball_box(d, float(h), r2, pad_sites=2)
        u = harmonic_polynomial(spec, kind)
        rec = caccioppoli_ratio(u, r1, r2)
        report.add_row(h=float(h), lhs=rec.lhs, rhs=rec.rhs, ratio=rec.ratio)
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


def singular_potential_experiment(mu0: float, cfg: SweepConfig,
                                  solve_tol: float = 1e-8) -> ExperimentReport:
    """Convexity measurement with potentials growing as h^-3/2.

    For each h a Dirichlet problem with the h-saturating random fields is
    solved on B_4 and the two-term bound is evaluated with the exponents
    rewritten per 1/h: chat_i = c_i * tau * h, so that e^{c_i tau} =
    e^{chat_i / h}.  Under the fractional tau rule the chat values are the
    h-independent empirical exponents of the modified estimate.
    """
    if mu0 < 0:
        raise ValueError("mu0 must be nonnegative")
    c1, c2, alpha = weight_constants(cfg.c_ps)
    report = ExperimentReport("singular_potential", {
        **cfg.echo(), "mu0": mu0, "solve_tol": solve_tol,
        "c1": c1, "c2": c2,
    })
    kind = "deg3" if cfg.d >= 2 else "linear_j"
    chat2_values = []
    for ih, h in enumerate(cfg.h_grid):
        taus = [t for t in cfg.taus_for(h) if cfg.admissible(t, h)]
        if not taus:
            report.warn(f"no admissible tau at h={h:g}; skipped")
            continue
        tau = taus[0]
        spec = LatticeSpec.ball_box(cfg.d, h, 4.0, pad_sites=2)
        fields = (FieldData.zero(spec) if mu0 == 0.0
                  else singular_field_data(spec, mu0, _cell_seed(cfg.seed, ih)))
        data = harmonic_polynomial(spec, kind)
        problem = DirichletProblem.on_ball(spec, 4.0, data, fields)
        u = dirichlet_solve(problem, tol=solve_tol)
        res = residual(problem, u)
        n_half, n_one, n_two = ball_norms(u)
        chat1 = c1 * tau * h
        chat2 = c2 * tau * h
        denom = math.exp(chat1 / h) * n_half + math.exp(-chat2 / h) * n_two
        report.add_row(h=h, tau=tau, residual=res, chat1=chat1, chat2=chat2,
                       c_emp=n_one / denom, norm_half=n_half, norm_one=n_one,
                       norm_two=n_two)
        chat2_values.append(chat2)
    if report.rows:
        report.fit("c_emp_max", FittedConstant(
            max(row["c_emp"] for row in report.rows), n=len(report.rows)))
        report.fit("chat2_min", FittedConstant(min(chat2_values), n=len(chat2_values)))
        report.passed = bool(min(chat2_values) > 0)
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
        res = harmonic_residual(uc, shrink=1, radius=r_eff)
        rel = res / scale
        within = bool(rel <= tol)
        ok = ok and within
        report.add_row(m=m, h_coarse=uc.spec.h, residual=res,
                       residual_rel=rel, within_tol=within)
    report.fit("fine_residual", FittedConstant(fine_res, n=1))
    report.passed = ok
    return report
