"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test registers a PASS/FAIL line that the conftest prints in the
terminal summary.  Tolerances are pinned here, not configured elsewhere.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from carlat import (
    AnnularRegion,
    ConjugationContext,
    DirichletProblem,
    FrozenPoint,
    LatticeFunction,
    LatticeSpec,
    SweepConfig,
    SymbolGrid,
    WeightParams,
    admissibility_check,
    antisym_apply,
    caccioppoli_sweep,
    carleman_sweep,
    coarsen_check,
    commutator_coeffs,
    commutator_form,
    conjugate_apply,
    dirichlet_solve,
    harmonic_polynomial,
    inner_product,
    l2_norm,
    lower_bound_margin,
    pseudoconvexity_margin,
    random_bump,
    residual,
    sym_apply,
    symbol_pi,
    symbol_pr,
    symbol_q,
    three_balls_experiment,
    varphi,
    weight_constants,
)
from carlat.cli import main as cli_main
from conftest import record_acceptance


def rel(a, b, floor=1e-300):
    return abs(a - b) / max(abs(a), abs(b), floor)


# -- criterion 1 -------------------------------------------------------------

def test_criterion_1_operator_identities():
    """S+A=L, energy identity, and commutator two-path equality at 1e-11
    over 100 seeded inputs, d in {1,2}, h in {1/32, 1/64}, under a minute."""
    t0 = time.perf_counter()
    worst = {"split": 0.0, "energy": 0.0, "two_path": 0.0}
    seeds_per_combo = 25
    for d in (1, 2):
        for h in (1 / 32, 1 / 64):
            spec = LatticeSpec.ball_box(d, h, 2.0, pad_sites=4)
            tau = 0.5 * 0.1 / h
            ctx = ConjugationContext.from_weight(spec, WeightParams(tau, 0.01))
            annulus = AnnularRegion.origin(d, 0.5, 2.0)
            for s in range(seeds_per_combo):
                f = random_bump(spec, annulus, seed=1000 * d + s)
                sf = sym_apply(f, ctx)
                af = antisym_apply(f, ctx)
                lf = conjugate_apply(f, ctx)
                split = float(np.abs(sf.values + af.values - lf.values).max()
                              / np.abs(lf.values).max())
                expansion = commutator_form(f, ctx, "expansion")
                composition = commutator_form(f, ctx, "composition")
                two_path = rel(expansion, composition)
                lhs = inner_product(lf, lf)
                rhs = l2_norm(sf) ** 2 + l2_norm(af) ** 2 + expansion
                energy = rel(lhs, rhs)
                # np.maximum keeps a NaN error; Python max(0.0, nan) is 0.0
                measured = {"split": split, "energy": energy, "two_path": two_path}
                worst = {key: float(np.maximum(worst[key], val))
                         for key, val in measured.items()}
    elapsed = time.perf_counter() - t0
    ok = all(v <= 1e-11 for v in worst.values()) and elapsed < 60.0
    record_acceptance(1, "operator identities (split, energy, two-path)", ok,
                      f"worst rel {np.max(list(worst.values())):.2e}, {elapsed:.1f}s")
    assert worst["split"] <= 1e-11
    assert worst["energy"] <= 1e-11
    assert worst["two_path"] <= 1e-11
    assert elapsed < 60.0


# -- criterion 2 -------------------------------------------------------------

def test_criterion_2_trig_simplification():
    """Raw and simplified commutator coefficients agree to 1e-12 relative at
    1000 random sites/pairs; a linear weight gives exact zeros."""
    h = 1 / 32
    spec = LatticeSpec.ball_box(2, h, 2.0, pad_sites=4)
    ctx = ConjugationContext.from_weight(spec, WeightParams(1.6, 0.01))
    rng = np.random.default_rng(42)
    worst = 0.0
    checked = 0
    while checked < 1000:
        n = rng.integers(np.add(spec.lo, 2), np.add(spec.hi, -1))
        if np.linalg.norm(np.asarray(n) * h) < 0.3:
            continue  # keep clear of the weight singularity
        j, k = (int(v) for v in rng.integers(1, 3, size=2))
        c = commutator_coeffs(n, j, k, ctx)
        # relative agreement; the atol floor only matters where a
        # coefficient itself sits at the roundoff scale of its factors
        np.testing.assert_allclose(c.raw, c.simplified, rtol=1e-12, atol=1e-15)
        err = np.abs(c.raw - c.simplified)
        scale = np.maximum(np.abs(c.simplified), 1e-3)
        worst = max(worst, float((err / scale).max()))
        checked += 1

    # linear override weight: all second differences vanish identically
    lin_spec = LatticeSpec(2, 0.5, (-12, -12), (12, 12))
    idx = lin_spec.indices()
    lin_ctx = ConjugationContext.from_table(
        lin_spec, 0.25 * idx[0] - 0.125 * idx[1])
    zeros_exact = True
    for n in [(0, 0), (4, -3), (-7, 2)]:
        for j, k in [(1, 1), (1, 2), (2, 2)]:
            c = commutator_coeffs(n, j, k, lin_ctx)
            zeros_exact = zeros_exact and np.all(c.raw == 0.0) and np.all(c.simplified == 0.0)
    record_acceptance(2, "commutator coefficient simplification", zeros_exact,
                      f"1000 sites at rtol 1e-12, linear zeros exact={zeros_exact}")
    assert zeros_exact


# -- criterion 3 -------------------------------------------------------------

def test_criterion_3_weight_margin():
    """Margin closed form vs derivative form at 1e-12; positivity on [1,4]
    for c_ps = 0.01; exact value c_ps at |x| = 1; zero at c_ps = 0."""
    rng = np.random.default_rng(3)
    worst = 0.0
    for r in rng.uniform(0.26, 3.9, size=1000):
        derivative_form = varphi(r, 1, 0.01) ** 2 * (
            varphi(r, 2, 0.01) + varphi(r, 1, 0.01) / r)
        closed = pseudoconvexity_margin(np.array([r, 0.0]), 0.01)
        worst = max(worst, rel(closed, derivative_form))
    positive = all(pseudoconvexity_margin(np.array([r, 0.0]), 0.01) > 0
                   for r in np.linspace(1.0, 4.0, 2000))
    exact_at_one = pseudoconvexity_margin(np.array([1.0, 0.0]), 0.01) == 0.01
    limiting_zero = all(pseudoconvexity_margin(np.array([r, 0.0]), 0.0) == 0.0
                        for r in np.linspace(0.3, 4.0, 50))
    ok = worst <= 1e-12 and positive and exact_at_one and limiting_zero
    record_acceptance(3, "pseudoconvexity margin of the weight", ok,
                      f"two-form agreement {worst:.2e}")
    assert worst <= 1e-12
    assert positive and exact_at_one and limiting_zero


# -- criterion 4 -------------------------------------------------------------

def _periodic_roll(a, off):
    return np.roll(a, shift=[-int(o) for o in off], axis=range(a.ndim))


def _parseval_errors(d, rng):
    n, h = 64, 1 / 128
    fp = FrozenPoint.from_weight((1.0,) + (0.0,) * (d - 1),
                                 WeightParams(15.0, 0.01), h)
    f = rng.standard_normal((n,) * d)
    fh = np.fft.fftn(f)
    k = np.fft.fftfreq(n, d=1.0) * 2 * np.pi / h
    xi = np.stack(np.meshgrid(*([k] * d), indexing="ij"))
    errs = []

    s_real = np.zeros_like(f)
    a_real = np.zeros_like(f)
    c_real = 0.0
    for j in range(d):
        ej = np.zeros(d, dtype=int)
        ej[j] = 1
        s_real += ((_periodic_roll(f, ej) + _periodic_roll(f, -ej) - 2 * f) / h ** 2
                   + fp.grad_phi[j] ** 2 / 2 * (_periodic_roll(f, ej) + _periodic_roll(f, -ej)))
        a_real += -fp.grad_phi[j] / h * (_periodic_roll(f, ej) - _periodic_roll(f, -ej))
    for j in range(d):
        ej = np.zeros(d, dtype=int)
        ej[j] = 1
        dj = (_periodic_roll(f, ej) - _periodic_roll(f, -ej)) / h
        for kk in range(d):
            ek = np.zeros(d, dtype=int)
            ek[kk] = 1
            dk = (_periodic_roll(f, ek) - _periodic_roll(f, -ek)) / h
            gjk = fp.hess_phi[j, kk]
            c_real += gjk * np.sum(dj * dk)
            c_real += 0.5 * gjk * (
                (fp.grad_phi[j] + fp.grad_phi[kk]) ** 2
                * np.sum(_periodic_roll(f, ej) * _periodic_roll(f, ek)
                         + _periodic_roll(f, -ej) * _periodic_roll(f, -ek))
                - (fp.grad_phi[j] - fp.grad_phi[kk]) ** 2
                * np.sum(_periodic_roll(f, ej) * _periodic_roll(f, -ek)
                         + _periodic_roll(f, -ej) * _periodic_roll(f, ek)))
    errs.append(rel(np.sum(s_real ** 2),
                    np.sum(symbol_pr(xi, fp) ** 2 * np.abs(fh) ** 2) / n ** d))
    errs.append(rel(np.sum(a_real ** 2),
                    np.sum(symbol_pi(xi, fp) ** 2 * np.abs(fh) ** 2) / n ** d))
    errs.append(rel(c_real,
                    np.sum(symbol_q(xi, fp) * np.abs(fh) ** 2) / n ** d))
    return errs


def _admissible(c_ps):
    """admissibility_check's verdict; the ValueError it raises is a failure."""
    try:
        admissibility_check(c_ps)
    except ValueError:
        return False
    return True


def _critical_coupling(x_bar, c_ps):
    """c0_crit = r^2 (varphi'' + varphi'/r) = c_ps/(1 + log^2 r), r = |x_bar|.

    Radially around the characteristic set the margin numerator bottoms out
    at about 4 c0 tau^4 (varphi'/r)^2 (c0_crit - c0), so the continuum scan
    is positive exactly for c0 < c0_crit; h-corrections raise the discrete
    threshold, by about 1.1x to 1.65x at h = 1/128 (notes/decisions.md).
    """
    r = float(np.linalg.norm(x_bar))
    return (pseudoconvexity_margin(np.asarray(x_bar), c_ps)
            * r ** 2 / varphi(r, 1, c_ps) ** 2)


def test_criterion_4_symbol_scan():
    """Parseval cross-check at 1e-9 on periodic 64^d boxes (d = 1, 2), and
    the sign of the margin scan at (d=2, tau=20, h=1/128, c0=0.05) on the
    grids 512, 1024, 2048, checked from both sides of the critical coupling
    c0_crit = c_ps/(1 + log^2|x_bar|):

    (a) c_ps = 0.1, so c0_crit = 2 c0: the weight is admissible, the scan is
        positive and the last two grids agree within 5 percent;
    (b) c_ps = 0.01, the default weight, so c0 = 5 c0_crit: every grid has a
        negative minimum.  A grid point is a real frequency, so a negative
        value there is an exact witness and needs no agreement check.

    The expected sign comes from c0_crit, and c0 must lie outside
    [c0_crit, 2 c0_crit], the band where h-corrections can flip it.  See
    notes/decisions.md for the derivation and the oracle numbers.
    """
    rng = np.random.default_rng(4)
    parseval_worst = max(max(_parseval_errors(1, rng)), max(_parseval_errors(2, rng)))
    parseval_ok = parseval_worst <= 1e-9

    x_bar, tau, h, c0 = (1.0, 0.0), 20.0, 1 / 128, 0.05
    mins, expected_signs, failures = {}, set(), []
    for c_ps in (0.1, 0.01):
        c0_crit = _critical_coupling(x_bar, c_ps)
        assert not c0_crit <= c0 <= 2 * c0_crit, (
            f"c0={c0} lies in [c0_crit, 2 c0_crit] = [{c0_crit}, {2 * c0_crit}]")
        params = WeightParams(tau, c_ps)
        fp = FrozenPoint.from_weight(x_bar, params, h)
        m = [lower_bound_margin(fp, c0, SymbolGrid(2, h, res)).min_margin
             for res in (512, 1024, 2048)]
        mins[c_ps] = m
        positive = c0 < c0_crit
        expected_signs.add(positive)
        if positive and not (_admissible(c_ps) and m[-1] > 0
                             and rel(m[-2], m[-1]) <= 0.05):
            failures.append(f"c_ps={c_ps} (c0 < c0_crit): minima {m} must be "
                            "positive and agree within 5 percent, and the "
                            "weight must be admissible")
        if not positive and max(m) >= 0:
            failures.append(f"c_ps={c_ps} (c0 > 2 c0_crit): minima {m} must "
                            "all be negative")
    # one side of the threshold each, or the clause checks only one sign
    assert expected_signs == {True, False}

    above, below = mins[0.1], mins[0.01]
    record_acceptance(
        4, "symbol Parseval + margin sign at c0=0.05 on both sides of c0_crit",
        parseval_ok and not failures,
        f"parseval {parseval_worst:.2e}; c_ps=0.1 min {above[-1]:.3e} "
        f"(agreement {rel(above[-2], above[-1]):.1%}); "
        f"c_ps=0.01 witness {below[-1]:.3e}; see decisions ledger")
    assert parseval_ok
    assert not failures, "; ".join(failures)


def test_margin_positive_below_critical_coupling():
    """Companion to criterion 4: the same scan with the commutator coupling
    below the pseudoconvexity strength is positive and grid-converged.

    The dip sits in a thin radial shell around the characteristic set, so
    resolving it needs a fine grid; 2048 and 4096 land on the same minimum.
    """
    fp = FrozenPoint.from_weight((1.0, 0.0), WeightParams(20.0, 0.01), 1 / 128)
    scans = [lower_bound_margin(fp, 0.0025, SymbolGrid(2, 1 / 128, res))
             for res in (2048, 4096)]
    a, b = scans[-2].min_margin, scans[-1].min_margin
    assert scans[-1].min_margin > 0
    assert abs(a - b) / max(abs(a), abs(b)) <= 0.05


# -- criterion 5 -------------------------------------------------------------

def test_criterion_5_coarsening():
    """Coarsenings of certified discrete-harmonic functions stay harmonic
    with residual <= 1e-12 * |u| for m in {2,3,4}, d in {1,2}."""
    ok = True
    details = []
    cases = []
    for d in (1, 2):
        spec = LatticeSpec.ball_box(d, 1 / 32, 4.0, pad_sites=2)
        cases.append(("poly", harmonic_polynomial(spec, "mixed_jk" if d == 2 else "linear_j"), None))
        g = harmonic_polynomial(spec, "deg3" if d == 2 else "linear_j")
        problem = DirichletProblem.on_ball(spec, 4.0, g)
        u = dirichlet_solve(problem, tol=1e-10)
        cases.append((f"solve_d{d}", u, 4.0))
    for label, u, radius in cases:
        report = coarsen_check(u, factors=(2, 3, 4), tol=1e-12, radius=radius)
        ok = ok and report.passed
        worst = max(row["residual_rel"] for row in report.rows)
        details.append(f"{label}:{worst:.1e}")
    record_acceptance(5, "coarsening preserves harmonicity", ok, ", ".join(details))
    assert ok


# -- criterion 6 -------------------------------------------------------------

def test_criterion_6_caccioppoli_stability():
    """Gradient/solution ratio varies by at most 10 percent across
    h in {1/32, 1/64, 1/128} for fixed harmonic inputs at r1=1, r2=2."""
    ok = True
    details = []
    for kind in ("mixed_jk", "deg3"):
        report = caccioppoli_sweep(kind, 2, (1 / 32, 1 / 64, 1 / 128), 1.0, 2.0)
        spread = report.fitted["relative_spread"].value
        ok = ok and spread <= 0.10
        details.append(f"{kind} spread {spread:.3%}")
    record_acceptance(6, "Caccioppoli ratio h-stability", ok, ", ".join(details))
    assert ok


# -- criterion 7 -------------------------------------------------------------

def test_criterion_7_carleman_stability():
    """Max weighted-energy ratio over 50 seeded bumps grows at most 2x per
    h halving at tau = 0.5 delta0/h, h in {1/32, 1/64, 1/128}, d = 2.

    tau0 = 1 lets the window admit the stated tau at every h (tau0 = 5
    with delta0 = 0.1 leaves (tau0, delta0/h) empty for h >= 1/50; the
    window bounds are config knobs by design).
    """
    t0 = time.perf_counter()
    cfg = SweepConfig(d=2, h_grid=(1 / 32, 1 / 64, 1 / 128), tau_rule="fraction",
                      tau_fraction=0.5, tau0=1.0, delta0=0.1, c_ps=0.01,
                      seed=7, n_samples=50, growth_cap=2.0)
    report = carleman_sweep(cfg)
    elapsed = time.perf_counter() - t0
    growths = [v.value for k, v in report.fitted.items() if k.startswith("growth")]
    ok = report.passed is True and elapsed < 600.0
    record_acceptance(7, "Carleman ratio h-uniformity", ok,
                      f"growth factors {[f'{g:.2f}' for g in growths]}, {elapsed:.0f}s")
    assert report.passed is True
    assert elapsed < 600.0


# -- criterion 8 -------------------------------------------------------------

def test_criterion_8_three_balls():
    """With alpha = c2/(c1+c2) from the weight, R(h) stays below the fixed
    bound for every certified harmonic input, or the excess decays like
    exp(-c/h) with a positive fitted rate and R^2 >= 0.9."""
    c1, c2, alpha = weight_constants(0.01)
    alpha_ok = abs(alpha - 0.7750253371607894) <= 1e-10
    h_grid = (1 / 32, 1 / 64, 1 / 128)
    ok = alpha_ok
    details = [f"alpha={alpha:.4f}"]
    for kind in ("mixed_jk", "diff_squares", "deg3"):
        sols = [harmonic_polynomial(LatticeSpec.ball_box(2, h, 4.0, pad_sites=2), kind)
                for h in h_grid]
        report = three_balls_experiment(sols, c_ps=0.01, bound_constant=10.0)
        ok = ok and report.passed is True
        details.append(f"{kind} R_max {report.fitted['ratio_max'].value:.2f}")
    # solver-certified input at the two coarser spacings
    sols = []
    for h in (1 / 32, 1 / 64):
        spec = LatticeSpec.ball_box(2, h, 4.0, pad_sites=2)
        g = harmonic_polynomial(spec, "deg3")
        problem = DirichletProblem.on_ball(spec, 4.0, g)
        u = dirichlet_solve(problem, tol=1e-9)
        assert residual(problem, u) <= 1e-9 * np.abs(g.values).max()
        sols.append(u)
    report = three_balls_experiment(sols, c_ps=0.01, bound_constant=10.0)
    ok = ok and report.passed is True
    details.append(f"solve R_max {report.fitted['ratio_max'].value:.2f}")
    record_acceptance(8, "three-balls interpolation bound", ok, ", ".join(details))
    assert ok


# -- criterion 9 -------------------------------------------------------------

def test_criterion_9_cli_determinism(tmp_path):
    """Identical manifests produce byte-identical data files."""
    runs = {
        "three-balls": ["three-balls", "--d", "2", "--h", "1/16,1/32",
                        "--c-ps", "0.01"],
        "carleman-sweep": ["carleman-sweep", "--h", "1/16,1/32",
                           "--tau-fraction", "0.5", "--tau0", "1.0",
                           "--samples", "3", "--seed", "5"],
        "symbol-scan": ["symbol-scan", "--h", "1/64", "--tau", "10",
                        "--c0", "0.0025", "--resolution", "64,128"],
    }
    ok = True
    for name, argv in runs.items():
        out_a = tmp_path / name / "a"
        out_b = tmp_path / name / "b"
        assert cli_main(argv + ["--out", str(out_a)]) == 0
        assert cli_main(argv + ["--out", str(out_b)]) == 0
        files_a = sorted(p for p in out_a.iterdir() if not p.name.endswith(".meta.json"))
        files_b = sorted(p for p in out_b.iterdir() if not p.name.endswith(".meta.json"))
        same = ([p.name for p in files_a] == [p.name for p in files_b]
                and all(a.read_bytes() == b.read_bytes()
                        for a, b in zip(files_a, files_b)))
        ok = ok and same and len(files_a) >= 2
    record_acceptance(9, "CLI determinism (byte-identical reports)", ok)
    assert ok
