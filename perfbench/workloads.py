"""The four benchmark workloads: inputs made from a seed, the timed operation,
and the checks that make a fast wrong answer count as a failure.

Each workload is a class.  Constructing it is the set-up (input generation),
``run()`` is one timed operation, and ``check(output)`` returns a list of
problems, empty when the output is correct.  Every call into carlat goes
through a module attribute (``experiments.carleman_sweep``, ...), so the
tracer can wrap it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

from carlat import cli, experiments, solver, symbols
from carlat import io as lattice_io
from carlat.lattice import LatticeFunction, LatticeSpec
from carlat.weight import WeightParams

REFERENCES = json.loads(Path(__file__).with_name("references.json").read_text())

# The companion margin scan's weight and frozen point (README, criterion 4).
MARGIN_H = 1 / 128
MARGIN_TAU = 20.0
MARGIN_C0 = 0.0025
MARGIN_C_PS = 0.01

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def base_point(seed: int) -> tuple:
    """x_bar on the unit circle at angle 2 pi frac(seed * golden); seed 0 is (1, 0).

    Moving x_bar off the axis keeps a scan optimisation from being tuned to
    a gradient parallel to e_1.
    """
    angle = 2.0 * math.pi * ((seed * GOLDEN) % 1.0)
    return (math.cos(angle), math.sin(angle))


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


class CarlemanSweep:
    """Criterion-7 sweep: bump generation, context tables and stencils."""

    name = "carleman_sweep"
    sizes = {"full": {"h_grid": (1 / 32, 1 / 64, 1 / 128), "samples": 50},
             "smoke": {"h_grid": (1 / 32, 1 / 64), "samples": 3}}

    def __init__(self, seed: int, size: str, workdir: Path):
        s = self.sizes[size]
        self.reference = REFERENCES[self.name].get(str(seed)) if size == "full" else None
        self.cfg = experiments.SweepConfig(
            d=2, h_grid=s["h_grid"], tau_rule="fraction", tau_fraction=0.5,
            tau0=1.0, delta0=0.1, c_ps=0.01, seed=seed, n_samples=s["samples"])

    def run(self):
        return experiments.carleman_sweep(self.cfg, jobs=1)

    @staticmethod
    def summary(report) -> dict:
        return {k: v.value for k, v in report.fitted.items() if k.startswith("ratio_max")}

    def check(self, report) -> list:
        problems = []
        if report.passed is not True:
            problems.append(f"sweep verdict is {report.passed!r}")
        expected = len(self.cfg.h_grid) * self.cfg.n_samples
        ratios = [row["ratio"] for row in report.rows if row["admissible"]]
        if len(ratios) != expected or not all(math.isfinite(r) and r > 0 for r in ratios):
            problems.append(f"expected {expected} finite positive ratios")
        if self.reference is not None:
            got = self.summary(report)
            for key, want in self.reference.items():
                if key not in got or not _close(got[key], want, 1e-9):
                    problems.append(f"{key} = {got.get(key)!r}, reference {want!r}")
        return problems


def _margin_formula(xi, g, hess, tau, h, c0) -> float:
    """The module docstring's symbol margin at one frequency, in plain math."""
    th = [h * x for x in xi]
    pr = sum(-4.0 / h ** 2 * math.sin(t / 2) ** 2 + gj ** 2 * math.cos(t) for t, gj in zip(th, g))
    pi = sum(2.0 * gj / h * math.sin(t) for t, gj in zip(th, g))
    q = 0.0
    for j, tj in enumerate(th):
        for k, tk in enumerate(th):
            q += 4.0 / h ** 2 * math.sin(tj) * math.sin(tk) * hess[j][k]
            q += hess[j][k] * ((g[j] + g[k]) ** 2 * math.cos(tj - tk)
                               - (g[j] - g[k]) ** 2 * math.cos(tj + tk))
    s2 = [math.sin(t) ** 2 for t in th]
    denom = tau ** 4 + tau ** 2 / h ** 2 * sum(s2) + sum(s * s for s in s2) / h ** 4
    return (pr ** 2 + pi ** 2 + c0 * tau * q) / denom


class MarginScan:
    """Companion margin scan at two resolutions: trig symbol evaluation.

    Off the axis the two minima need not agree: the uniform grid does not
    resolve the thin shell around the characteristic set, so the relative
    gap is reported (``symbols.refinement_gap``), not gated.
    """

    name = "margin_scan"
    sizes = {"full": (2048, 4096), "smoke": (256, 512)}

    def __init__(self, seed: int, size: str, workdir: Path):
        self.resolutions = self.sizes[size]
        self.reference = REFERENCES[self.name].get(str(seed)) if size == "full" else None
        self.fp = symbols.FrozenPoint.from_weight(
            base_point(seed), WeightParams(MARGIN_TAU, MARGIN_C_PS), MARGIN_H)

    def run(self):
        return [symbols.lower_bound_margin(self.fp, MARGIN_C0, symbols.SymbolGrid(2, MARGIN_H, r))
                for r in self.resolutions]

    @staticmethod
    def summary(scans) -> list:
        return [s.min_margin for s in scans]

    def check(self, scans) -> list:
        problems = []
        a, b = scans[-2].min_margin, scans[-1].min_margin
        # each grid holds every point of the coarser one (resolutions double)
        if not b <= a + 1e-12 * abs(a):
            problems.append(f"finer minimum {b!r} above the coarser one {a!r}")
        fp = self.fp
        xi = np.asarray(scans[-1].argmin_xi)
        library = ((symbols.symbol_pr(xi, fp) ** 2 + symbols.symbol_pi(xi, fp) ** 2
                    + MARGIN_C0 * fp.tau * symbols.symbol_q(xi, fp))
                   / symbols.margin_denominator(xi, fp))
        formula = _margin_formula(xi.tolist(), fp.grad_phi.tolist(), fp.hess_phi.tolist(),
                                  fp.tau, fp.h, MARGIN_C0)
        for label, value in (("symbols", library), ("formula", formula)):
            if not _close(float(value), b, 1e-9):
                problems.append(f"{label} margin {float(value)!r} at the argmin, scan says {b!r}")
        if self.reference is not None:
            for got, want in zip(self.summary(scans), self.reference):
                if not _close(got, want, 1e-9):
                    problems.append(f"minimum {got!r}, reference {want!r}")
        return problems


class BallSolves:
    """Dirichlet solves on B_4 plus the three-balls and coarsening reports."""

    name = "ball_solves"
    sizes = {"full": (1 / 32, 1 / 64), "smoke": (1 / 8, 1 / 16)}
    radius = 4.0

    def __init__(self, seed: int, size: str, workdir: Path):
        rng = np.random.default_rng(seed)
        # |c| in [0.5, 2] with a random sign: no term of the combination vanishes
        coeffs = rng.uniform(0.5, 2.0, 3) * rng.choice((-1.0, 1.0), 3)
        self.data = []
        for h in self.sizes[size]:
            spec = LatticeSpec.ball_box(2, h, self.radius, pad_sites=2)
            g = sum(c * solver.harmonic_polynomial(spec, kind).values
                    for c, kind in zip(coeffs, ("mixed_jk", "diff_squares", "deg3")))
            self.data.append(LatticeFunction(spec, g))

    def run(self):
        solutions = []
        for g in self.data:
            problem = solver.DirichletProblem.on_ball(g.spec, self.radius, g)
            solutions.append((problem, solver.dirichlet_solve(problem)))
        us = [u for _, u in solutions]
        three = experiments.three_balls_experiment(us)
        coarse = [experiments.coarsen_check(u, factors=(2, 3, 4), radius=self.radius) for u in us]
        return solutions, three, coarse

    def check(self, output) -> list:
        solutions, three, coarse = output
        problems = []
        for g, (problem, u) in zip(self.data, solutions):
            inside = problem.interior
            sup_g = float(np.abs(g.values[inside | problem.boundary]).max())
            err = float(np.abs(u.values[inside] - g.values[inside]).max())
            if not err <= 1e-8 * sup_g:
                problems.append(f"h={g.spec.h:g}: |u - g| = {err:.3e} > 1e-8 sup|g| = {sup_g:.3e}")
        if three.passed is not True:
            problems.append(f"three-balls verdict is {three.passed!r}")
        for report in coarse:
            if report.passed is not True:
                problems.append(f"coarsen-check verdict at h={report.config['h']:g} is {report.passed!r}")
        return problems


class ReportIO:
    """symbol-scan with its grid CSV through the CLI, then lattice-function I/O."""

    name = "report_io"
    sizes = {"full": {"resolution": 1024, "sites": 517},
             "smoke": {"resolution": 64, "sites": 33}}

    def __init__(self, seed: int, size: str, workdir: Path):
        s = self.sizes[size]
        self.resolution = s["resolution"]
        self.workdir = workdir
        x, y = base_point(seed)
        self.argv = ["symbol-scan", "--h", "1/128", "--tau", repr(MARGIN_TAU),
                     "--c0", repr(MARGIN_C0), "--resolution", str(self.resolution),
                     "--grid-csv", "1", f"--x-bar={x!r},{y!r}", "--jobs", "1"]
        m = s["sites"] // 2
        spec = LatticeSpec(2, 1 / 128, (-m, -m), (m, m))
        self.function = LatticeFunction(
            spec, np.random.default_rng(seed).standard_normal(spec.shape))
        self.ops = 0

    def run(self):
        self.ops += 1
        out = self.workdir / f"op{self.ops}"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self.argv + ["--out", str(out)])
        loaded = {}
        for fmt in ("csv", "binary"):
            base = out / f"function_{fmt}"
            lattice_io.save_lattice_function(self.function, base, fmt)
            loaded[fmt] = lattice_io.load_lattice_function(base)
        return code, out, loaded

    def check(self, output) -> list:
        code, out, loaded = output
        try:
            return self._check(code, out, loaded)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check(self, code, out, loaded) -> list:
        problems = []
        if code != 0:
            return [f"symbol-scan exited with {code}"]
        for fmt, f in loaded.items():
            if f.spec != self.function.spec or not np.array_equal(f.values, self.function.values):
                problems.append(f"{fmt} round trip is not exact")
        reports = [p for p in out.glob("symbol_scan_*.json") if not p.name.endswith(".meta.json")]
        grids = list(out.glob("symbol_scan_*_grid.csv"))
        if len(reports) != 1 or len(grids) != 1:
            return problems + ["expected one report and one grid CSV"]
        reported = json.loads(reports[0].read_text())["rows"][0]["min_margin"]
        margin = np.loadtxt(grids[0], delimiter=",", skiprows=1, usecols=(5,), ndmin=1)
        if margin.size != self.resolution ** 2:
            problems.append(f"grid CSV has {margin.size} rows, expected {self.resolution ** 2}")
        elif not _close(float(margin.min()), reported, 1e-12):
            problems.append(f"grid CSV minimum {float(margin.min())!r}, report {reported!r}")
        return problems


WORKLOADS = {cls.name: cls for cls in (CarlemanSweep, MarginScan, BallSolves, ReportIO)}
