"""Command-line front end.

Every experiment and diagnostic is exposed as a subcommand writing JSON and
CSV reports into an output directory.  A flat ``key = value`` config file
can seed any flag; explicit flags override the file.  Numeric flags accept
exact rationals like ``1/64``.  Exit codes: 0 success, 1 assertion or
validation failure, 2 usage or config-schema error.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

from .experiments import (
    SweepConfig,
    caccioppoli_sweep,
    carleman_sweep,
    coarsen_check,
    commutator_check,
    h_sweep,
    localization_diagnostic,
    log_convexity_scan,
    singular_potential_experiment,
    three_balls_experiment,
    window_taus,
)
from .reports import ExperimentReport, FittedConstant, MeshAxis, csv_blocks, csv_workers
from .solver import BALL_RADIUS, SolverError, ball_input
from .symbols import FrozenPoint, SymbolGrid, lower_bound_margin, scan_table
from .weight import WeightParams, admissibility_check


def parse_number(text: str) -> float:
    """Finite float or exact rational like '1/64'."""
    text = text.strip()
    if "/" in text:
        try:
            return float(Fraction(text))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None
        except OverflowError:
            raise ValueError(f"not a finite number: {text!r}") from None
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def parse_number_list(text: str):
    return _parse_list(text, parse_number)


def parse_int_list(text: str):
    return _parse_list(text, int)


def _parse_list(text: str, parse_item) -> tuple:
    values = tuple(parse_item(t) for t in text.split(",") if t.strip())
    if not values:
        raise ValueError(f"empty list: {text!r}")
    return values


def parse_bool(text: str) -> bool:
    val = text.strip().lower()
    if val in ("1", "true", "yes", "on"):
        return True
    if val in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


_KINDS = {
    "float": parse_number,
    "float_list": parse_number_list,
    "int": int,
    "int_list": parse_int_list,
    "str": str,
    "bool": parse_bool,
}

# flag name -> (kind, default, help); every subcommand takes these
_COMMON = {
    "out": ("str", "carlat-out", "output directory for report files"),
    "d": ("int", 2, "lattice dimension"),
    "strict": ("bool", False, "exit 1 on warnings or failed assertions"),
}

# flags some subcommands take; each lists only those its handler reads
_SHARED = {
    "seed": ("int", 0, "root seed for all randomness"),
    "c-ps": ("float", 0.01, "convexification strength of the weight"),
    "tau0": ("float", 1.0, "lower end of the admissible tau window"),
    "delta0": ("float", 0.1, "tau window upper end is delta0/h"),
    "jobs": ("int", 1, "parallel sweep jobs"),
}


def _shared(*flags) -> dict:
    return {flag: _SHARED[flag] for flag in flags}


_SUBCOMMANDS = {
    "carleman-sweep": {
        **_shared("seed", "c-ps", "tau0", "delta0", "jobs"),
        "h": ("float_list", (1 / 32, 1 / 64), "spacing sweep, descending"),
        "tau": ("float_list", (), "taus measured at every h (default: one tau per h, from tau-fraction)"),
        "tau-fraction": ("float", 0.5, "tau = fraction * delta0 / h"),
        "samples": ("int", 8, "seeded bumps per (h, tau) cell"),
        "growth-cap": ("float", 2.0, "max allowed ratio growth per h step"),
        "ds-mode": ("str", "symmetric", "difference in the energy: symmetric|forward|backward"),
    },
    "log-convexity": {
        **_shared("c-ps", "delta0"),
        "h": ("float", 1 / 64, "lattice spacing"),
        "tau0": ("float", 5.0, "lower end of the admissible tau window"),
        "input": ("str", "mixed_jk", "harmonic input: const|linear_j|mixed_jk|diff_squares|deg3|solve"),
        "tau": ("float_list", (), "tau grid (default: 12 points in the window)"),
    },
    "three-balls": {
        **_shared("c-ps"),
        "h": ("float_list", (1 / 32, 1 / 64), "spacing sweep, descending"),
        "input": ("str", "mixed_jk", "harmonic input kind or 'solve'"),
        "bound-constant": ("float", 10.0, "bound C above which the correction fit activates"),
    },
    "symbol-scan": {
        # no scan reads --jobs, and it does not set the number of processes
        # that format the grid CSV (reports.csv_workers does); it stays
        # because the report_io benchmark workload passes --jobs 1, and goes
        # when that benchmark changes
        **_shared("c-ps", "jobs"),
        "h": ("float", 1 / 128, "lattice spacing"),
        "tau": ("float", 20.0, "large parameter"),
        "c0": ("float", 0.0025, "commutator coupling in the margin"),
        "x-bar": ("float_list", (), "base point (default 1,0,...)"),
        "resolution": ("int_list", (128, 256, 512), "grid resolutions per axis"),
        "gamma0": ("float", 0.05, "characteristic neighborhood radius, in units of tau"),
        "grid-csv": ("bool", True, "emit the per-frequency table at the first resolution"),
    },
    "commutator-check": {
        **_shared("seed", "c-ps"),
        "h": ("float", 1 / 32, "lattice spacing"),
        "tau": ("float", 1.5, "large parameter"),
        "samples": ("int", 5, "seeded bump inputs"),
        "tol": ("float", 1e-11, "relative tolerance for the identities"),
        "coeff-sites": ("int", 200, "random sites for the coefficient identity"),
    },
    "caccioppoli": {
        "h": ("float_list", (1 / 32, 1 / 64), "spacing sweep, descending"),
        "input": ("str", "mixed_jk", "harmonic polynomial kind"),
        "r1": ("float", 1.0, "inner radius"),
        "r2": ("float", 2.0, "outer radius"),
    },
    "coarsen-check": {
        "h": ("float", 1 / 64, "lattice spacing"),
        "input": ("str", "mixed_jk", "harmonic input kind or 'solve'"),
        "m": ("int_list", (2, 3, 4), "coarsening factors"),
        "tol": ("float", 1e-12, "relative residual tolerance"),
    },
    "localize": {
        **_shared("seed", "c-ps"),
        "h": ("float", 1 / 32, "lattice spacing"),
        "tau": ("float", 8.0, "large parameter"),
        "eps0": ("float", 0.25, "localization scale is 1/(eps0 sqrt(tau))"),
    },
    "singular-potential": {
        **_shared("seed", "c-ps", "tau0"),
        "h": ("float_list", (1 / 16, 1 / 32), "spacing sweep, descending"),
        "delta0": ("float", 0.5, "tau window upper end is delta0/h"),
        "mu0": ("float", 0.05, "field strength: |V| <= mu0 h^-3/2, |B| <= mu0 h^-1/2"),
        "tau-fraction": ("float", 0.5, "tau = fraction * delta0 / h"),
    },
}


def _flag_specs(sub: str) -> dict:
    return {**_COMMON, **_SUBCOMMANDS[sub]}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="carlat",
        description="Lattice Schrodinger operators: weighted estimates and sweeps")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    subparsers = {}
    for name in _SUBCOMMANDS:
        sp = subs.add_parser(name, description=f"run the {name} experiment")
        sp.add_argument("--config", default=None, help="flat key = value config file")
        for flag, (kind, default, help_text) in _flag_specs(name).items():
            sp.add_argument(f"--{flag}", dest=flag.replace("-", "_"),
                            type=_KINDS[kind], default=default, help=help_text)
        subparsers[name] = sp
    return parser, subparsers


def load_config(path: str, sub: str) -> dict:
    """Parse and type-check a flat config file against the subcommand schema."""
    specs = _flag_specs(sub)
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not UTF-8
        raise ConfigError(f"{path}: cannot read the config file: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        raw_key = key.strip()
        key = raw_key.replace("_", "-")
        if key == "subcommand":
            if val.strip() != sub:
                raise ConfigError(f"{path}:{lineno}: file is for subcommand '{val.strip()}'")
            continue
        if key not in specs:
            raise ConfigError(f"{path}:{lineno}: unknown config field '{raw_key}'")
        kind = specs[key][0]
        try:
            values[key.replace("-", "_")] = _KINDS[kind](val.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for '{raw_key}': {exc}") from exc
    return values


class ConfigError(Exception):
    pass


_RUNTIME_ONLY = ("out", "jobs", "strict")


def _manifest(args, sub: str) -> dict:
    """Resolved configuration identifying the run, keyed by argparse dest.

    Runtime-only knobs (output directory, job count, strictness) do not
    change results, so they stay out of the echo and of the config hash:
    identical manifests give byte-identical data files wherever written.
    """
    dests = [flag.replace("-", "_") for flag in _flag_specs(sub) if flag not in _RUNTIME_ONLY]
    return {**{dest: getattr(args, dest) for dest in dests}, "subcommand": sub}


# -- handlers ---------------------------------------------------------------
# Each turns its flags into a library call and returns the report, or the
# report and the paths of the extra files it wrote; main does the rest.

def cmd_carleman_sweep(args) -> ExperimentReport:
    cfg = SweepConfig(d=args.d, h_grid=args.h, tau_rule="grid" if args.tau else "fraction",
                      tau_fraction=args.tau_fraction, tau_grid=args.tau,
                      tau0=args.tau0, delta0=args.delta0, c_ps=args.c_ps,
                      seed=args.seed, n_samples=args.samples,
                      growth_cap=args.growth_cap, ds_mode=args.ds_mode)
    return carleman_sweep(cfg, jobs=args.jobs)


def cmd_log_convexity(args) -> ExperimentReport:
    u, facts = ball_input(args.d, args.h, args.input)
    taus = args.tau or window_taus(args.h, args.tau0, args.delta0)
    report = log_convexity_scan(u, taus, args.c_ps, args.tau0, args.delta0)
    report.meta["inputs"] = [facts]
    return report


def cmd_three_balls(args) -> ExperimentReport:
    # the sweep is checked before any input is built: 'solve' runs one solve per h
    solutions, inputs = zip(*(ball_input(args.d, h, args.input) for h in h_sweep(args.h)))
    report = three_balls_experiment(solutions, c_ps=args.c_ps,
                                    bound_constant=args.bound_constant)
    report.meta["inputs"] = list(inputs)
    return report


def cmd_symbol_scan(args) -> tuple:
    x_bar = args.x_bar or ((1.0,) + (0.0,) * (args.d - 1))
    if len(x_bar) != args.d:
        raise ConfigError("x-bar must have d components")
    tau = args.tau
    fp = FrozenPoint.from_weight(x_bar, WeightParams(tau, args.c_ps), args.h)
    # the grid CSV is named by the final config hash, so the report starts
    # from the whole manifest, which main's merge then leaves unchanged
    report = ExperimentReport("symbol_scan", {
        **_manifest(args, args.subcommand), "x_bar": list(x_bar),
    })
    # every grid is checked against the size guard before any scan runs
    grids = [SymbolGrid(args.d, args.h, res) for res in args.resolution]
    if any(a >= b for a, b in zip(args.resolution, args.resolution[1:])):
        raise ValueError(f"resolutions {','.join(map(str, args.resolution))} are not strictly "
                         "ascending: the refinement check compares each grid with a finer one")
    scans = []
    report.meta["scans"] = []
    for grid in grids:
        start = time.perf_counter()
        scan = lower_bound_margin(fp, args.c0, grid, gamma0=args.gamma0)
        report.meta["scans"].append({"resolution": grid.resolution,
                                     "points": grid.resolution ** args.d,
                                     "points_evaluated": scan.points_evaluated,
                                     "scan_s": time.perf_counter() - start})
        scans.append(scan)
        row = {"resolution": grid.resolution, "min_margin": scan.min_margin,
               "c1_split": scan.c1_split}
        for key, stat in scan.regions.items():
            row[f"min_{key}"] = stat.min_margin
            row[f"count_{key}"] = stat.count
        report.add_row(**row)
    report.fit("min_margin", FittedConstant(scans[-1].min_margin, n=len(scans)))
    if len(scans) >= 2:
        a, b = scans[-2].min_margin, scans[-1].min_margin
        gap = abs(a - b) / max(abs(a), abs(b), 1e-300)
        report.fit("refinement_agreement", FittedConstant(gap, n=2))
        report.passed = bool(gap <= 0.05 and b > 0)
    if not args.grid_csv:
        return report, ()
    table = scan_table(fp, grids[0], args.c0)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"symbol_scan_{report.config_hash}_grid.csv"
    shape = (grids[0].resolution,) * args.d
    start = time.perf_counter()
    with open(path, "w") as fh:
        fh.writelines(csv_blocks(
            [f"xi_{a+1}" for a in range(args.d)] + ["p_r", "p_i", "q", "margin"],
            [*(MeshAxis(table["axis"], shape, a) for a in range(args.d)),
             table["p_r"], table["p_i"], table["q"], table["margin"]]))
    report.meta["grid_csv"] = {"rows": len(table["margin"]), "bytes": path.stat().st_size,
                               "write_s": time.perf_counter() - start,
                               "workers": csv_workers(len(table["margin"]))}
    return report, (path,)


def cmd_commutator_check(args) -> ExperimentReport:
    return commutator_check(args.d, args.h, args.tau, args.c_ps, args.samples, args.seed,
                            args.coeff_sites, args.tol)


def cmd_caccioppoli(args) -> ExperimentReport:
    return caccioppoli_sweep(args.input, args.d, args.h, args.r1, args.r2)


def cmd_coarsen_check(args) -> ExperimentReport:
    u, facts = ball_input(args.d, args.h, args.input)
    radius = BALL_RADIUS if args.input == "solve" else None
    report = coarsen_check(u, factors=args.m, tol=args.tol, radius=radius)
    report.meta["inputs"] = [facts]
    return report


def cmd_localize(args) -> ExperimentReport:
    return localization_diagnostic(args.d, args.h, args.tau, args.eps0, args.c_ps, args.seed)


def cmd_singular_potential(args) -> ExperimentReport:
    return singular_potential_experiment(args.mu0, args.d, args.h, args.tau_fraction, args.tau0,
                                         args.delta0, args.c_ps, args.seed)


_HANDLERS = {
    "carleman-sweep": cmd_carleman_sweep,
    "log-convexity": cmd_log_convexity,
    "three-balls": cmd_three_balls,
    "symbol-scan": cmd_symbol_scan,
    "commutator-check": cmd_commutator_check,
    "caccioppoli": cmd_caccioppoli,
    "coarsen-check": cmd_coarsen_check,
    "localize": cmd_localize,
    "singular-potential": cmd_singular_potential,
}


def main(argv=None) -> int:
    parser, subparsers = build_parser()
    args = parser.parse_args(argv)
    sub = args.subcommand
    try:
        if args.config:
            # config values become subcommand defaults; explicit flags win
            defaults = load_config(args.config, sub)
            subparsers[sub].set_defaults(**defaults)
            args = parser.parse_args(argv)
        if "c-ps" in _flag_specs(sub):
            admissibility_check(args.c_ps)
        result = _HANDLERS[sub](args)
        report, extra = result if isinstance(result, tuple) else (result, ())
        # one key per setting: where the experiment echoes a setting under
        # its dest name, its resolved value wins over the flag's
        report.config = {**_manifest(args, sub), **report.config}
        for path in (*report.write(args.out), *extra):
            print(path)
        return 1 if args.strict and (report.warnings or report.passed is False) else 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, AssertionError, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
