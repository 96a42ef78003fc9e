"""Span tracing from outside carlat, and the per-layer metrics built on it.

``Tracer.install()`` replaces each traced function at the module, class or
dict attribute its caller looks up (``carlat.experiments.random_bump``,
``carlat.solver.splu``, ...) with a wrapper that records a span: name,
start, end and parent.  Spans stay in memory until the run ends.  A span's
layer is the carlat module its name starts with; its self time is its
duration minus the durations of its child spans (one thread, so children
never overlap).  ``uninstall()`` puts the original attributes back.
"""

from __future__ import annotations

import functools
import statistics
import time
from pathlib import Path

import numpy as np

from carlat import _kernels, cli, conjugate, experiments, lattice, reports, solver, symbols
from carlat import io as lattice_io

LAYERS = ("cli", "experiments", "conjugate", "solver", "symbols", "lattice",
          "kernels", "weight", "reports", "io")

TRIG = ("symbols.symbol_pr", "symbols.symbol_pi", "symbols.symbol_q",
        "symbols.margin_denominator")
STENCIL = ("kernels.stencil_const", "kernels.stencil_var")


def _size(*paths) -> int:
    return sum(Path(p).stat().st_size for p in paths if Path(p).exists())


def stencil_work(n: int, k: int, var: bool) -> tuple:
    """Computed, not measured: (flops, bytes) of a k-offset stencil on n sites.

    2 flops per site and offset; compulsory float64 traffic: read f once,
    write out once, and with per-site coefficients read each array once.
    """
    return 2 * k * n, 8 * n * (2 + (k if var else 0))


# Counters computed from a traced call's arguments and result.

def _stencil_counts(tracer, args, result, var):
    flops, nbytes = stencil_work(np.size(args[0]), len(args[1]), var)
    tracer.count("kernels.stencil.flops", flops)
    tracer.count("kernels.stencil.bytes", nbytes)


def _trig_points(tracer, args, result):
    xi = np.asarray(args[0])
    tracer.count("symbols.points", xi.size // xi.shape[0])


def _lu_fill(tracer, args, result):
    tracer.count("solver.lu.unknowns", args[0].shape[0])
    tracer.count("solver.lu.fill_nnz", result.L.nnz + result.U.nnz)


def _scan_minimum(tracer, args, result):
    tracer.minima.append(result.min_margin)


def _report_bytes(tracer, args, result):
    tracer.count("reports.write.bytes", _size(*result))


def _save_bytes(tracer, args, result):
    tracer.count("io.save.bytes", _size(result, Path(args[1]).with_suffix(".json")))


def _load_bytes(tracer, args, result):
    base = Path(args[0])
    tracer.count("io.load.bytes", _size(*(base.with_suffix(s) for s in (".json", ".bin", ".csv"))))


def _grid_bytes(tracer, args, result):
    tracer.count("cli.grid_csv.bytes", _size(*Path(args[0].out).glob("symbol_scan_*_grid.csv")))


def _targets():
    """(owner, attribute, span name, counter) for every traced call site."""
    Spec, Ctx = lattice.LatticeSpec, conjugate.ConjugationContext
    return [
        (cli, "main", "cli.main", None),
        (cli._HANDLERS, "symbol-scan", "cli.cmd_symbol_scan", _grid_bytes),
        (cli, "admissibility_check", "weight.admissibility_check", None),
        (cli, "lower_bound_margin", "symbols.lower_bound_margin", _scan_minimum),
        (cli, "scan_table", "symbols.scan_table", None),
        (symbols.FrozenPoint, "from_weight", "symbols.frozen_point", None),
        (experiments, "carleman_sweep", "experiments.carleman_sweep", None),
        (experiments, "three_balls_experiment", "experiments.three_balls_experiment", None),
        (experiments, "coarsen_check", "experiments.coarsen_check", None),
        (experiments, "harmonic_residual", "experiments.harmonic_residual", None),
        (experiments, "ball_norms", "experiments.ball_norms", None),
        (experiments, "random_bump", "solver.random_bump", None),
        (experiments, "carleman_ratio", "conjugate.carleman_ratio", None),
        (experiments, "weight_constants", "weight.weight_constants", None),
        (experiments, "laplacian", "lattice.laplacian", None),
        (experiments, "l2_norm", "lattice.l2_norm", None),
        (experiments, "coarsen", "lattice.coarsen", None),
        (experiments, "stretch", "lattice.stretch", None),
        (Ctx, "from_weight", "conjugate.from_weight", None),
        (Ctx, "check_support", "conjugate.check_support", None),
        (conjugate, "varphi", "weight.varphi", None),
        (conjugate, "sym_diff_sum", "lattice.sym_diff_sum", None),
        (conjugate, "laplacian", "lattice.laplacian", None),
        (conjugate, "diff", "lattice.diff", None),
        (conjugate, "shift_values", "lattice.shift_values", None),
        (conjugate, "apply_stencil_var", "kernels.stencil_var",
         functools.partial(_stencil_counts, var=True)),
        (lattice, "apply_stencil_const", "kernels.stencil_const",
         functools.partial(_stencil_counts, var=False)),
        (lattice, "apply_stencil_var", "kernels.stencil_var",
         functools.partial(_stencil_counts, var=True)),
        (Spec, "coords", "lattice.coords", None),
        (lattice.BallRegion, "mask", "lattice.ball_mask", None),
        (lattice.AnnularRegion, "mask", "lattice.annulus_mask", None),
        (lattice.LatticeFunction, "__post_init__", "lattice.function_init", None),
        (solver, "dirichlet_solve", "solver.dirichlet_solve", None),
        (solver.DirichletProblem, "on_ball", "solver.on_ball", None),
        (solver, "splu", "solver.splu", _lu_fill),
        (solver, "residual", "solver.residual", None),
        (solver, "shift_values", "lattice.shift_values", None),
        (symbols, "lower_bound_margin", "symbols.lower_bound_margin", _scan_minimum),
        (symbols, "empirical_c1", "symbols.empirical_c1", None),
        (symbols, "char_set_distance", "symbols.char_set_distance", None),
        (symbols, "phi_eval", "weight.phi_eval", None),
        (symbols.SymbolGrid, "mesh", "symbols.mesh", None),
        *[(symbols, name.split(".")[1], name, _trig_points) for name in TRIG],
        (reports.ExperimentReport, "write", "reports.write", _report_bytes),
        (lattice_io, "save_lattice_function", "io.save", _save_bytes),
        (lattice_io, "load_lattice_function", "io.load", _load_bytes),
    ]


class Tracer:
    """In-memory span recorder; spans are parallel lists indexed by span id."""

    def __init__(self):
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self.counters = {}
        self.minima = []
        self.enabled = False
        self._stack = []
        self._undo = []

    def count(self, key: str, value: float):
        self.counters[key] = self.counters.get(key, 0) + value

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            i = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(None)
            self._stack.append(i)
            self.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[i] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                counter(self, args, result)
            return result
        return traced

    def _wrap_table(self, fn):
        """ConjugationContext._table: only a cache miss is a table build."""
        traced = self._wrap(fn, "conjugate.table_build", None)

        @functools.wraps(fn)
        def table(ctx, name):
            return fn(ctx, name) if name in ctx._cache else traced(ctx, name)
        return table

    def install(self):
        for owner, attr, name, counter in _targets():
            self._replace(owner, attr, lambda fn, n=name, c=counter: self._wrap(fn, n, c))
        self._replace(conjugate.ConjugationContext, "_table", self._wrap_table)

    def _replace(self, owner, attr, make):
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = make(original)
        elif isinstance(owner, type):
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                setattr(owner, attr, classmethod(make(original.__func__)))
            else:
                setattr(owner, attr, make(original))
        else:
            original = getattr(owner, attr)
            setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    def reset(self):
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self.counters = {}
        self.minima = []

    def spans(self) -> list:
        return [[n, s, e, p] for n, s, e, p in
                zip(self.names, self.starts, self.ends, self.parents)]

    def summary(self, wall: float) -> dict:
        """Per-layer metrics of the spans recorded since the last reset."""
        names, parents = self.names, self.parents
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(dur)
        for i, p in enumerate(parents):
            if p >= 0:
                child[p] += dur[i]
        own = [d - c for d, c in zip(dur, child)]

        def calls(*group):
            return sum(1 for n in names if n in group)

        def busy(*group):
            """Duration of the group's spans that no other group span encloses."""
            inside = [False] * len(names)
            total = 0.0
            for i, n in enumerate(names):
                p = parents[i]
                inside[i] = p >= 0 and (inside[p] or names[p] in group)
                if n in group and not inside[i]:
                    total += dur[i]
            return total

        def self_time(*group):
            return sum(t for n, t in zip(names, own) if n in group)

        m = {f"{layer}.self_s": sum(t for n, t in zip(names, own) if n.split(".")[0] == layer)
             for layer in LAYERS}
        roots = sum(d for d, p in zip(dur, parents) if p < 0)
        m.update({
            "trace.spans": len(names),
            "trace.unattributed_s": wall - roots,
            "solver.random_bump.calls": calls("solver.random_bump"),
            "solver.random_bump.busy_s": busy("solver.random_bump"),
            "lattice.coords.calls": calls("lattice.coords"),
            "lattice.coords.busy_s": busy("lattice.coords"),
            "conjugate.context.busy_s": busy("conjugate.from_weight", "conjugate.table_build"),
            "conjugate.tables.builds": calls("conjugate.table_build"),
            "conjugate.carleman_ratio.calls": calls("conjugate.carleman_ratio"),
            "conjugate.carleman_ratio.busy_s": busy("conjugate.carleman_ratio"),
            "kernels.stencil.calls": calls(*STENCIL),
            "kernels.stencil.busy_s": busy(*STENCIL),
            "symbols.trig.busy_s": busy(*TRIG),
            "symbols.lower_bound_margin.busy_s": busy("symbols.lower_bound_margin"),
            "symbols.lower_bound_margin.self_s": self_time("symbols.lower_bound_margin"),
            "symbols.empirical_c1.busy_s": busy("symbols.empirical_c1"),
            "symbols.scan_table.busy_s": busy("symbols.scan_table"),
            "solver.dirichlet_solve.busy_s": busy("solver.dirichlet_solve"),
            "solver.lu.factor_s": busy("solver.splu"),
            "solver.residual.busy_s": busy("solver.residual"),
            "experiments.three_balls_experiment.busy_s": busy("experiments.three_balls_experiment"),
            "experiments.coarsen_check.busy_s": busy("experiments.coarsen_check"),
            # the grid CSV is written inline in the symbol-scan handler
            "cli.grid_csv.self_s": self_time("cli.cmd_symbol_scan"),
            "reports.write.busy_s": busy("reports.write"),
            "io.save.busy_s": busy("io.save"),
            "io.load.busy_s": busy("io.load"),
        })
        if len(self.minima) >= 2:
            # relative change of the scan minimum under the last refinement
            a, b = self.minima[-2:]
            m["symbols.refinement_gap"] = abs(a - b) / max(abs(a), abs(b))
        else:
            m["symbols.refinement_gap"] = 0.0
        for key in ("kernels.stencil.flops", "kernels.stencil.bytes", "symbols.points",
                    "solver.lu.unknowns", "solver.lu.fill_nnz", "cli.grid_csv.bytes",
                    "reports.write.bytes", "io.save.bytes", "io.load.bytes"):
            m[key] = self.counters.get(key, 0)
        return m


# The four stencil shapes of benchmarks/bench_kernels.py, on the active backend.
STENCIL_CASES = (("d1_16385", (16385,), 3), ("d2_257", (257, 257), 5),
                 ("d2_513", (513, 513), 5), ("d3_65", (65, 65, 65), 7))


def _padded_reference(f, offsets, coeffs):
    """Zero-extended stencil through a padded copy, independent of the kernels."""
    pad = int(np.abs(offsets).max())
    fp = np.pad(f, pad)
    out = np.zeros_like(f)
    for off, c in zip(offsets, coeffs):
        out += c * fp[tuple(slice(pad + o, pad + o + s) for o, s in zip(off, f.shape))]
    return out


def stencil_cases(seed: int, repeats: int = 7):
    """Time each case; returns (metrics, problems).  Flops and bytes are computed."""
    rng = np.random.default_rng(seed)
    metrics, problems = {}, []
    for label, shape, k in STENCIL_CASES:
        d = len(shape)
        f = rng.standard_normal(shape)
        offsets = np.zeros((k, d), dtype=np.int64)
        for i in range(1, k):
            offsets[i, (i - 1) % d] = 1 if i % 2 else -1
        weights = rng.standard_normal(k)
        coeffs = [rng.standard_normal(shape) for _ in range(k)]
        for kind, call, ref_coeffs in (
                ("const", lambda: _kernels.apply_stencil_const(f, offsets, weights), weights),
                ("var", lambda: _kernels.apply_stencil_var(f, offsets, coeffs), coeffs)):
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                out = call()
                times.append(time.perf_counter() - t0)
            if not np.allclose(out, _padded_reference(f, offsets, ref_coeffs), rtol=1e-12, atol=1e-12):
                problems.append(f"stencil case {label} {kind} differs from the padded reference")
            flops, nbytes = stencil_work(f.size, k, kind == "var")
            metrics[f"kernels.{label}.{kind}_s"] = statistics.median(times)
            metrics[f"kernels.{label}.{kind}_flops"] = flops
            metrics[f"kernels.{label}.{kind}_bytes"] = nbytes
    return metrics, problems
