"""CLI behavior: subcommands, config files, determinism, exit codes."""

import ast
import json
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy

import carlat
from carlat import cli, conjugate, experiments, reports, solver, symbols
from carlat.cli import main, parse_number
from carlat.conjugate import CommutatorCoeffs
from carlat.lattice import MAX_SITES, BallRegion, LatticeSpec
from carlat.solver import ball_input
from carlat.symbols import MAX_GRID_POINTS, SCAN_BYTES_PER_POINT, FrozenPoint, SymbolGrid
from carlat.weight import WeightParams


def run(args):
    return main(args)


def data_files(out_dir):
    """Report data files (excluding the .meta.json sidecars), sorted."""
    return sorted(p for p in Path(out_dir).iterdir()
                  if not p.name.endswith(".meta.json"))


def report_json(out_dir):
    [path] = [p for p in data_files(out_dir) if p.suffix == ".json"]
    return json.loads(path.read_text())


# one small argv per subcommand
SUBCOMMAND_ARGV = {
    "carleman-sweep": ["--h", "1/16", "--tau0", "1", "--tau", "2,3", "--delta0", "0.25",
                       "--samples", "2"],
    "log-convexity": ["--h", "1/32", "--d", "2", "--tau0", "1.0"],
    "three-balls": ["--d", "2", "--h", "1/16,1/32", "--c-ps", "0.01", "--input", "deg3"],
    "symbol-scan": ["--h", "1/64", "--tau", "10", "--c0", "0.0025", "--resolution", "64,128"],
    "commutator-check": ["--h", "1/16", "--tau", "1.5", "--samples", "2",
                         "--coeff-sites", "50"],
    "caccioppoli": ["--h", "1/16,1/32"],
    "coarsen-check": ["--h", "1/32", "--m", "2,3"],
    "localize": ["--h", "1/24", "--tau", "4.0", "--eps0", "0.0625"],
    "singular-potential": ["--h", "1/8,1/16", "--mu0", "0.02", "--tau0", "0.2",
                           "--delta0", "0.5"],
}


def check_config_echo(sub, out_dir):
    """Run `sub` on its small argv; its report's config names each setting once."""
    assert run([sub, *SUBCOMMAND_ARGV[sub], "--out", str(out_dir)]) == 0
    report = report_json(out_dir)
    config = report["config"]
    assert len({key.replace("-", "_") for key in config}) == len(config)
    settings = {flag.replace("-", "_") for flag in cli._flag_specs(sub)
                if flag not in cli._RUNTIME_ONLY}
    assert settings <= set(config)
    assert config["subcommand"] == sub
    if sub == "symbol-scan":
        grids = [p.name for p in data_files(out_dir) if p.name.endswith("_grid.csv")]
        assert grids == [f"symbol_scan_{report['config_hash']}_grid.csv"]


class TestParsing:
    def test_rational_spacings(self):
        assert parse_number("1/64") == 1.0 / 64.0
        assert parse_number("0.125") == 0.125
        assert parse_number(" 3/4 ") == 0.75

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["symbol-scan", "--help"])
        assert exc.value.code == 0
        assert "symbol-scan" in capsys.readouterr().out

    def test_unknown_flag_exits_two(self, capsys):
        # --config is a subcommand flag; before the subcommand it is unknown
        for argv in (["caccioppoli", "--no-such-flag", "1"],
                     ["--config", "run.cfg", "caccioppoli"]):
            with pytest.raises(SystemExit) as exc:
                run(argv)
            assert exc.value.code == 2

    def test_zero_denominator_exits_two(self, capsys):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_number("1/0")
        with pytest.raises(SystemExit) as exc:
            run(["caccioppoli", "--h", "1/0"])
        assert exc.value.code == 2
        assert "1/0" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_non_finite_number_exits_two(self, text, capsys):
        with pytest.raises(ValueError, match="not a finite number"):
            parse_number(text)
        with pytest.raises(SystemExit) as exc:
            # the = form keeps argparse from reading "-inf" as an option
            run(["caccioppoli", f"--h={text}"])
        assert exc.value.code == 2
        assert text in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["symbol-scan", "--resolution", ","],
        ["coarsen-check", "--m", ",", "--strict", "1"],
        ["carleman-sweep", "--h", ",", "--strict", "1"],
        ["caccioppoli", "--h", ","],
    ])
    def test_empty_list_exits_two(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "','" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2

    def test_every_subcommand_flag_is_read_by_its_handler(self):
        # a flag no handler reads changes the config hash and nothing else;
        # reads inside the module helpers a handler calls count, and so do
        # the flags main reads for every subcommand
        tree = ast.parse(Path(cli.__file__).read_text())
        functions = {node.name: node for node in tree.body
                     if isinstance(node, ast.FunctionDef)}

        def reads(name, seen):
            seen.add(name)
            attrs = set()
            for n in ast.walk(functions[name]):
                if (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                        and n.value.id == "args"):
                    attrs.add(n.attr)
                if (isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                        and n.func.id in functions and n.func.id not in seen):
                    attrs |= reads(n.func.id, seen)
            return attrs

        by_main = reads("main", set())
        unread = [f"{sub} --{flag}"
                  for sub, handler in cli._HANDLERS.items()
                  for flag in cli._flag_specs(sub)
                  if flag.replace("-", "_") not in reads(handler.__name__, set()) | by_main]
        # the report_io benchmark workload passes --jobs 1 to symbol-scan
        assert unread == ["symbol-scan --jobs"]

    def test_handlers_build_no_carleman_or_ball_input(self):
        # the box, weight context and bump of the Carleman setting, and the
        # lattice and polynomial of a ball input, are built by the library
        # call a handler makes, not by the handler or a cli helper it calls
        tree = ast.parse(Path(cli.__file__).read_text())
        functions = {node.name: node for node in tree.body
                     if isinstance(node, ast.FunctionDef)}
        builders = {"carleman_box", "ConjugationContext", "from_weight", "random_bump",
                    "LatticeSpec", "harmonic_polynomial"}

        def names(name, seen):
            seen.add(name)
            found = set()
            for n in ast.walk(functions[name]):
                if isinstance(n, ast.Name):
                    found.add(n.id)
                    if n.id in functions and n.id not in seen:
                        found |= names(n.id, seen)
                elif isinstance(n, ast.Attribute):
                    found.add(n.attr)
            return found

        built = {sub: sorted(names(handler.__name__, set()) & builders)
                 for sub, handler in cli._HANDLERS.items() if sub != "symbol-scan"}
        assert built == {sub: [] for sub in built}

    def test_every_library_parameter_is_read_by_its_function(self):
        # a parameter its function never reads does nothing; closures and
        # nested functions count as the body that reads it
        unread = []
        for path in sorted(Path(cli.__file__).parent.glob("*.py")):
            for fn in ast.walk(ast.parse(path.read_text())):
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    continue
                a = fn.args
                params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                          *filter(None, (a.vararg, a.kwarg)))]
                body = fn.body if isinstance(fn.body, list) else [fn.body]
                loaded = {n.id for stmt in body for n in ast.walk(stmt)
                          if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                name = getattr(fn, "name", "<lambda>")
                unread += [f"{path.name}:{fn.lineno} {name}({p})" for p in params
                           if p not in loaded]
        assert unread == []

    def test_readme_commands_parse(self):
        # parses only, runs nothing: the documented flags follow the parser
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = readme.split("```")[1::2]
        commands = [shlex.split(line)[1:] for block in blocks
                    for line in block.splitlines() if line.startswith("carlat ")]
        parser, _ = cli.build_parser()
        for argv in commands:
            assert parser.parse_args(argv).subcommand == argv[0]
        assert {argv[0] for argv in commands} == set(cli._HANDLERS)

    def test_readme_python_blocks_run(self, capsys):
        # a library example that names a removed entry point fails here
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = [b[len("python\n"):] for b in readme.split("```")[1::2]
                  if b.startswith("python\n")]
        assert blocks
        for block in blocks:
            exec(compile(block, "README.md", "exec"), {})
        assert capsys.readouterr().out


class TestConfigFile:
    def test_config_seeds_flags_and_flags_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("""
# caccioppoli sweep setup
h = 1/16,1/32
input = mixed_jk
r1 = 1.0
r2 = 2.0
out = {}
""".format(tmp_path / "out_a"))
        assert run(["caccioppoli", "--config", str(cfg)]) == 0
        files_a = data_files(tmp_path / "out_a")
        assert len(files_a) == 2
        # flag overrides the config value: different config hash
        assert run(["caccioppoli", "--config", str(cfg),
                    "--out", str(tmp_path / "out_b"), "--r1", "0.9"]) == 0
        ja = json.loads([p for p in files_a if p.suffix == ".json"][0].read_text())
        jb = json.loads([p for p in data_files(tmp_path / "out_b")
                         if p.suffix == ".json"][0].read_text())
        assert ja["config"]["r1"] == 1.0
        assert jb["config"]["r1"] == 0.9

    def test_unknown_config_field_exits_two(self, tmp_path, capsys):
        # caccioppoli reads no seed, so it takes none
        for key in ("no_such_key", "seed"):
            cfg = tmp_path / "bad.cfg"
            cfg.write_text(f"{key} = 7\n")
            assert run(["caccioppoli", "--config", str(cfg)]) == 2
            assert f"'{key}'" in capsys.readouterr().err

    def test_removed_solve_tol_exits_two(self, tmp_path, capsys):
        # solves certify against their rounding floor; an old config that
        # still sets a residual tolerance fails loudly instead of being ignored
        cfg = tmp_path / "old.cfg"
        cfg.write_text("solve_tol = 1e-8\n")
        argv = ["singular-potential", *SUBCOMMAND_ARGV["singular-potential"]]
        assert run([*argv, "--config", str(cfg), "--out", str(tmp_path / "a")]) == 2
        assert "unknown config field 'solve_tol'" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()
        with pytest.raises(SystemExit) as exc:
            run([*argv, "--solve-tol", "1e-8"])
        assert exc.value.code == 2

    def test_subcommand_key_must_name_the_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("subcommand = three-balls\nr1 = 0.9\n")
        assert run(["caccioppoli", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 2
        assert "three-balls" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()
        cfg.write_text("subcommand = caccioppoli\nh = 1/16,1/32\n")
        assert run(["caccioppoli", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0

    def test_bad_config_value_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("r1 = not-a-number\n")
        assert run(["caccioppoli", "--config", str(cfg)]) == 2
        assert "r1" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["missing", "directory", "latin-1"])
    def test_unreadable_config_file_exits_two(self, kind, tmp_path):
        # these raised a traceback and exited 1, or exited 1 with the codec's message
        cfg = tmp_path / "run.cfg"
        if kind == "directory":
            cfg.mkdir()
        elif kind == "latin-1":
            cfg.write_bytes("r1 = 1.0  # r\u00e9glage\n".encode("latin-1"))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(Path(carlat.__file__).resolve().parents[1]),
                          os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "carlat.cli", "caccioppoli", "--config",
                               str(cfg), "--out", str(tmp_path / "out")],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 2
        assert done.stderr.startswith(f"config error: {cfg}: ")
        assert "Traceback" not in done.stderr
        assert not (tmp_path / "out").exists()


class TestDeterminism:
    def test_identical_manifests_identical_bytes(self, tmp_path):
        argv = ["three-balls", "--d", "2", "--h", "1/16,1/32", "--c-ps", "0.01",
                "--input", "deg3"]
        assert run(argv + ["--out", str(tmp_path / "a")]) == 0
        assert run(argv + ["--out", str(tmp_path / "b")]) == 0
        files_a = data_files(tmp_path / "a")
        files_b = data_files(tmp_path / "b")
        assert [p.name for p in files_a] == [p.name for p in files_b]
        for pa, pb in zip(files_a, files_b):
            assert pa.read_bytes() == pb.read_bytes()

    def test_meta_sidecar_records_versions_outside_the_data_files(self, tmp_path):
        # criterion 9's symbol-scan manifest
        argv = ["symbol-scan", "--h", "1/64", "--tau", "10", "--c0", "0.0025",
                "--resolution", "64,128"]
        assert run(argv + ["--out", str(tmp_path / "a")]) == 0
        assert run(argv + ["--out", str(tmp_path / "b")]) == 0
        files_a = data_files(tmp_path / "a")
        files_b = data_files(tmp_path / "b")
        assert [p.name for p in files_a] == [p.name for p in files_b]
        for pa, pb in zip(files_a, files_b):
            assert pa.read_bytes() == pb.read_bytes()
        for data in files_a:
            assert "scipy" not in data.read_text()
        metas = sorted((tmp_path / "a").glob("*.meta.json"))
        assert len(metas) == 1
        meta = json.loads(metas[0].read_text())
        assert meta["scipy"] == scipy.__version__
        assert meta["kernel_backend"] == carlat.kernel_backend == "python"
        assert {"numpy", "written_at"} <= set(meta)

    def test_carleman_sweep_deterministic_across_jobs(self, tmp_path):
        argv = ["carleman-sweep", "--h", "1/16,1/32", "--tau-fraction", "0.5",
                "--tau0", "1.0", "--samples", "3", "--seed", "3"]
        assert run(argv + ["--out", str(tmp_path / "a"), "--jobs", "1"]) == 0
        assert run(argv + ["--out", str(tmp_path / "b"), "--jobs", "4"]) == 0
        for pa, pb in zip(data_files(tmp_path / "a"), data_files(tmp_path / "b")):
            if pa.suffix == ".csv":
                assert pa.read_bytes() == pb.read_bytes()

    def test_carleman_sweep_sidecar_records_stage_times_per_h(self, tmp_path, monkeypatch):
        argv = ["carleman-sweep", "--h", "1/32,1/64", "--tau-fraction", "0.5",
                "--tau0", "1.0", "--samples", "3", "--seed", "3"]
        assert run(argv + ["--out", str(tmp_path / "a")]) == 0
        # a clock that jumps 1000 s per reading changes the timings and no data byte
        ticks = iter(range(0, 10 ** 6, 1000))
        monkeypatch.setattr(experiments, "time",
                            SimpleNamespace(perf_counter=lambda: float(next(ticks))))
        assert run(argv + ["--out", str(tmp_path / "b")]) == 0
        metas = [json.loads(next((tmp_path / side).glob("*.meta.json")).read_text())
                 for side in "ab"]
        for meta in metas:
            assert [(t["h"], t["cells"], t["slab_rows"]) for t in meta["per_h"]] == [
                (h, 3, conjugate.slab_rows(conjugate.carleman_box(2, h)))
                for h in (1 / 32, 1 / 64)]
        assert all(0.0 < t["bump_s"] < 60.0 and 0.0 < t["ratio_s"] < 60.0
                   for t in metas[0]["per_h"])
        assert all(t["bump_s"] == t["ratio_s"] == 3000.0 for t in metas[1]["per_h"])
        files_a, files_b = data_files(tmp_path / "a"), data_files(tmp_path / "b")
        assert [p.name for p in files_a] == [p.name for p in files_b]
        for pa, pb in zip(files_a, files_b):
            assert pa.read_bytes() == pb.read_bytes()
            assert "bump_s" not in pa.read_text()


class TestWindowAndStrict:
    def test_out_of_window_tau_warns_but_succeeds(self, tmp_path):
        argv = ["carleman-sweep", "--h", "0.5", "--tau", "1000", "--samples", "2",
                "--out", str(tmp_path)]
        assert run(argv) == 0
        report = json.loads([p for p in data_files(tmp_path)
                             if p.suffix == ".json"][0].read_text())
        assert report["warnings"]

    def test_short_three_balls_sweep_above_the_bound_writes_its_report(self, tmp_path):
        # one row above the bound: kept and reported, with no exp(-c/h) fit
        argv = ["three-balls", "--h", "1/16", "--bound-constant", "1e-9"]
        assert run([*argv, "--out", str(tmp_path / "a")]) == 0
        report = report_json(tmp_path / "a")
        assert [row["active"] for row in report["rows"]] == [True]
        assert report["warnings"] and report["passed"] is False
        assert "c0_emp" not in report["fitted"]
        assert run([*argv, "--strict", "1", "--out", str(tmp_path / "b")]) == 1

    def test_carleman_sweep_defaults_lie_in_the_window(self, tmp_path):
        # tau = 0.5 * delta0 / h is 1.6 and 3.2, inside (tau0, delta0/h)
        assert run(["carleman-sweep", "--samples", "2", "--out", str(tmp_path)]) == 0
        report = json.loads([p for p in data_files(tmp_path)
                             if p.suffix == ".json"][0].read_text())
        ratios = [row["ratio"] for row in report["rows"]]
        assert len(ratios) == 4
        assert all(r is not None and math.isfinite(r) for r in ratios)
        assert report["warnings"] == []
        assert report["passed"] is not None

    def test_singular_potential_defaults_lie_in_the_window(self, tmp_path):
        # tau = 0.5 * delta0 / h is 4 and 8, inside (tau0, delta0/h)
        assert run(["singular-potential", "--strict", "1", "--out", str(tmp_path)]) == 0
        report = json.loads([p for p in data_files(tmp_path)
                             if p.suffix == ".json"][0].read_text())
        assert [row["tau"] for row in report["rows"]] == [4.0, 8.0]
        assert report["warnings"] == []
        assert report["passed"] is True

    @pytest.mark.parametrize("argv", [["caccioppoli", "--h", "1/16,1/16"],
                                      ["three-balls", "--h", "1/16,1/16,1/16"]])
    def test_repeated_spacing_exits_one(self, argv, tmp_path, capsys):
        assert run(argv + ["--strict", "1", "--out", str(tmp_path / "out")]) == 1
        assert "strictly descending" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_tau_fraction_one_exits_one(self, tmp_path, capsys):
        # tau = 1 * delta0 / h is the window's open upper end: nothing to measure
        assert run(["singular-potential", "--tau-fraction", "1",
                    "--out", str(tmp_path / "out")]) == 1
        assert "tau_fraction must lie in (0, 1)" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_gamma0_exits_one(self, tmp_path, capsys):
        assert run(["symbol-scan", *SUBCOMMAND_ARGV["symbol-scan"], "--gamma0", "-1",
                    "--out", str(tmp_path / "out")]) == 1
        assert "gamma0 must be a nonnegative number" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_strict_turns_warning_into_failure(self, tmp_path):
        argv = ["carleman-sweep", "--h", "0.5", "--tau", "1000", "--samples", "2",
                "--out", str(tmp_path), "--strict", "1"]
        assert run(argv) == 1


class TestSubcommands:
    def test_symbol_scan_emits_grid_csv_and_summary(self, tmp_path):
        assert run(["symbol-scan", "--h", "1/64", "--tau", "10", "--c0", "0.0025",
                    "--resolution", "64,128", "--out", str(tmp_path)]) == 0
        names = [p.name for p in data_files(tmp_path)]
        assert any(n.endswith("_grid.csv") for n in names)
        grid = [p for p in data_files(tmp_path) if p.name.endswith("_grid.csv")][0]
        header = grid.read_text().splitlines()[0]
        assert header == "xi_1,xi_2,p_r,p_i,q,margin"
        assert len(grid.read_text().splitlines()) == 1 + 64 * 64
        summary = json.loads([p for p in data_files(tmp_path)
                              if p.suffix == ".json"][0].read_text())
        assert "min_margin" in summary["fitted"]

    def test_symbol_scan_grid_csv_matches_the_materialized_mesh(self, tmp_path, monkeypatch):
        """The grid CSV's text against the whole grid's arithmetic: the mesh,
        and ``_margin_terms`` on the one tile of the whole grid, formatted row
        by row.  Serial blocks of 300 rows and forked chunks of 1000 cut the
        4096-, 64- and 16-point lines of d = 1, 2 and 3 mid-line, so the rows
        are read in runs that start and stop inside lines and planes."""
        monkeypatch.setattr(reports, "CSV_BLOCK_ROWS", 300)
        monkeypatch.setattr(reports, "PARALLEL_CHUNK_ROWS", 1000)
        monkeypatch.setattr(reports, "PARALLEL_MIN_ROWS", 1024)
        keys = ("p_r", "p_i", "q", "margin")
        for d, resolution in ((1, 4096), (2, 64), (3, 16)):
            argv = ["symbol-scan", "--d", str(d), "--h", "1/64", "--tau", "10", "--c0", "0.0025",
                    "--resolution", str(resolution)]
            texts = []
            for cpus in ({0}, {0, 1}):
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus,
                                    raising=False)
                out = tmp_path / f"d{d}_{len(cpus)}"
                assert run(argv + ["--out", str(out)]) == 0
                [meta_path] = out.glob("*.meta.json")
                assert json.loads(meta_path.read_text())["grid_csv"]["workers"] == len(cpus)
                [path] = out.glob("*_grid.csv")
                texts.append(path.read_text())
            config = report_json(out)["config"]
            fp = FrozenPoint.from_weight(config["x_bar"],
                                         WeightParams(config["tau"], config["c_ps"]), config["h"])
            grid = SymbolGrid(d, config["h"], resolution)
            parts = symbols._axis_parts(fp, symbols._axis_trig(fp, grid))
            terms = symbols._margin_terms(fp, parts, config["c0"], (slice(0, resolution),) * d)
            columns = [*grid.mesh().reshape(d, -1).tolist(),
                       *(terms[k].ravel().tolist() for k in keys)]
            expected = ",".join([f"xi_{a + 1}" for a in range(d)] + list(keys)) + "\n" + "".join(
                ",".join(map(repr, row)) + "\n" for row in zip(*columns))
            assert texts == [expected, expected]

    def test_symbol_scan_grid_csv_holds_no_whole_grid(self, tmp_path, monkeypatch):
        """A serial 512^2 grid CSV holds one block of rows at a time: the
        run's traced peak, its scan included, stays under three quarters of
        one 512^2 float64 grid, where a table of five whole grids is 10 MiB."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        tracemalloc.start()
        try:
            code = run(["symbol-scan", "--resolution", "512", "--grid-csv", "1",
                        "--out", str(tmp_path)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        [meta_path] = tmp_path.glob("*.meta.json")
        stats = json.loads(meta_path.read_text())["grid_csv"]
        assert (stats["rows"], stats["workers"]) == (512 ** 2, 1)
        # measured 0.98 MiB: a block of CSV_BLOCK_ROWS = 1024 rows as cell
        # strings, or the scan's row of 64 x 512-point tiles
        assert peak < 512 ** 2 * 8 * 3 // 4

    def test_symbol_scan_grid_csv_formatted_by_workers_is_the_same(self, tmp_path, monkeypatch):
        argv = ["symbol-scan", *SUBCOMMAND_ARGV["symbol-scan"], "--out"]
        assert run(argv + [str(tmp_path / "serial")]) == 0
        monkeypatch.setattr(reports, "PARALLEL_MIN_ROWS", 1024)
        monkeypatch.setattr(reports, "PARALLEL_CHUNK_ROWS", 300)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert run(argv + [str(tmp_path / "forked")]) == 0
        serial, forked = data_files(tmp_path / "serial"), data_files(tmp_path / "forked")
        assert [p.read_bytes() for p in serial] == [p.read_bytes() for p in forked]
        workers = [json.loads(next((tmp_path / run).glob("*.meta.json")).read_text())
                   ["grid_csv"]["workers"] for run in ("serial", "forked")]
        assert workers == [1, 2]

    def test_symbol_scan_sidecar_records_the_grid_csv(self, tmp_path):
        assert run(["symbol-scan", *SUBCOMMAND_ARGV["symbol-scan"], "--out", str(tmp_path)]) == 0
        [path] = tmp_path.glob("*_grid.csv")
        [meta_path] = tmp_path.glob("*.meta.json")
        stats = json.loads(meta_path.read_text())["grid_csv"]
        assert stats["rows"] == 64 * 64
        assert stats["bytes"] == path.stat().st_size
        assert 0.0 <= stats["write_s"] < 60.0
        assert stats["workers"] == 1
        for data in data_files(tmp_path):
            assert "write_s" not in data.read_text()
        assert set(report_json(tmp_path)) == {"schema", "name", "config", "config_hash",
                                              "fitted", "warnings", "passed", "rows"}

    def test_symbol_scan_sidecar_records_each_scan(self, tmp_path, monkeypatch):
        argv = ["symbol-scan", *SUBCOMMAND_ARGV["symbol-scan"]]
        assert run([*argv, "--out", str(tmp_path / "a")]) == 0
        # a clock that jumps 1000 s per reading, and scan tiles of 8 x 8 points,
        # change the timings and the points evaluated and no data byte
        ticks = iter(range(0, 10 ** 6, 1000))
        monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: float(next(ticks))))
        monkeypatch.setattr(symbols, "SCAN_TILE_POINTS", 64)
        assert run([*argv, "--out", str(tmp_path / "b")]) == 0
        metas = [json.loads(next((tmp_path / side).glob("*.meta.json")).read_text())
                 for side in "ab"]
        for meta in metas:
            assert [(s["resolution"], s["points"]) for s in meta["scans"]] == [
                (64, 64 * 64), (128, 128 * 128)]
        assert all(0.0 <= s["scan_s"] < 60.0 for s in metas[0]["scans"])
        assert all(s["scan_s"] == 1000.0 for s in metas[1]["scans"])
        # every default tile meets the region box |xi_j| < c1 tau; 8 x 8 tiles skip some
        assert [s["points_evaluated"] for s in metas[0]["scans"]] == [64 * 64, 128 * 128]
        assert all(0 < s["points_evaluated"] < s["points"] for s in metas[1]["scans"])
        files_a, files_b = data_files(tmp_path / "a"), data_files(tmp_path / "b")
        assert sorted(p.suffix for p in files_a) == [".csv", ".csv", ".json"]
        assert [p.name for p in files_a] == [p.name for p in files_b]
        for pa, pb in zip(files_a, files_b):
            assert pa.read_bytes() == pb.read_bytes()
            assert "scan_s" not in pa.read_text()
            assert "points_evaluated" not in pa.read_text()

    @pytest.mark.parametrize("sub, argv, hs", [
        ("three-balls", ["--h", "1/16,1/32", "--input", "solve"], [1 / 16, 1 / 32]),
        ("coarsen-check", ["--h", "1/32", "--input", "solve", "--m", "2"], [1 / 32]),
        ("log-convexity", ["--h", "1/32", "--input", "solve", "--tau0", "1.0"], [1 / 32]),
    ])
    def test_field_free_solves_record_multigrid(self, sub, argv, hs, tmp_path):
        assert run([sub, *argv, "--out", str(tmp_path)]) == 0
        inputs = self.solve_inputs(tmp_path, hs)
        for facts in inputs:
            assert set(facts) == {"h", "residual", "residual_bound", "unknowns", "levels",
                                  "iterations", "solve_s"}
            assert facts["levels"] >= 1 and 0 < facts["iterations"] < 50
            assert 0 < facts["unknowns"] and 0.0 < facts["solve_s"] < 60.0

    @pytest.mark.parametrize("sub, argv, hs", [
        ("singular-potential", SUBCOMMAND_ARGV["singular-potential"], [1 / 8, 1 / 16]),
        ("singular-potential", [*SUBCOMMAND_ARGV["singular-potential"], "--d", "1"],
         [1 / 8, 1 / 16]),
    ])
    def test_solve_inputs_record_their_lu_in_the_sidecar(self, sub, argv, hs, tmp_path):
        assert run([sub, *argv, "--out", str(tmp_path)]) == 0
        for facts in self.solve_inputs(tmp_path, hs):
            assert set(facts) == {"h", "residual", "residual_bound", "unknowns", "fill_nnz",
                                  "factor_s"}
            assert 0 < facts["unknowns"] < facts["fill_nnz"] and 0.0 < facts["factor_s"] < 60.0

    def test_vanishing_fields_solve_d3_past_the_lu_limit(self, tmp_path):
        # mu0 = 0 draws fields of +-0.0, which the problem drops: the multigrid
        # solves what the LU limit refused
        assert run(["singular-potential", "--mu0", "0", "--d", "3", "--h", "1/8",
                    "--delta0", "2", "--tau0", "1", "--out", str(tmp_path)]) == 0
        [facts] = self.solve_inputs(tmp_path, [1 / 8])
        assert facts["unknowns"] == 137059 > solver.LU_MAX_UNKNOWNS_3D
        assert facts["levels"] >= 1 and 0 < facts["iterations"] < 50 and "fill_nnz" not in facts

    @staticmethod
    def solve_inputs(out_dir, hs):
        """The sidecar's input records, one per h with a residual, kept out of the data files."""
        [meta_path] = out_dir.glob("*.meta.json")
        inputs = json.loads(meta_path.read_text())["inputs"]
        assert [facts["h"] for facts in inputs] == hs
        assert all(0.0 < facts["residual"] <= facts["residual_bound"] < 1e-6 for facts in inputs)
        for data in data_files(out_dir):
            text = data.read_text()
            assert not any(key in text for key in ("residual_bound", "unknowns", "fill_nnz",
                                                   "factor_s", "levels", "iterations",
                                                   "solve_s"))
        return inputs

    def test_polynomial_inputs_record_no_lu(self, tmp_path):
        assert run(["coarsen-check", *SUBCOMMAND_ARGV["coarsen-check"], "--out", str(tmp_path)]) == 0
        [meta_path] = tmp_path.glob("*.meta.json")
        meta = json.loads(meta_path.read_text())
        assert "lu" not in meta
        assert meta["inputs"] == [ball_input(2, 1 / 32, "mixed_jk")[1]]
        assert meta["inputs"][0]["residual"] == 0.0 < meta["inputs"][0]["residual_bound"]

    @pytest.mark.parametrize("sub, argv", [
        ("log-convexity", SUBCOMMAND_ARGV["log-convexity"]),
        ("three-balls", SUBCOMMAND_ARGV["three-balls"]),
        ("coarsen-check", SUBCOMMAND_ARGV["coarsen-check"]),
        ("coarsen-check", ["--h", "1/16", "--input", "solve", "--m", "2"]),
        ("singular-potential", SUBCOMMAND_ARGV["singular-potential"]),
    ])
    def test_input_facts_stay_out_of_the_config(self, sub, argv, tmp_path):
        assert run([sub, *argv, "--out", str(tmp_path)]) == 0
        config = report_json(tmp_path)["config"]
        assert not {"input_residual", "input_residuals"} & set(config)
        [meta_path] = tmp_path.glob("*.meta.json")
        assert all("residual" in facts for facts in json.loads(meta_path.read_text())["inputs"])

    # the other five subcommands run the same check in the named tests below
    @pytest.mark.parametrize("sub", ["carleman-sweep", "three-balls", "symbol-scan",
                                     "caccioppoli"])
    def test_config_echoes_each_setting_once(self, sub, tmp_path):
        check_config_echo(sub, tmp_path)

    def test_log_convexity_runs(self, tmp_path):
        check_config_echo("log-convexity", tmp_path)

    def test_localize_runs(self, tmp_path):
        check_config_echo("localize", tmp_path)

    def test_coarsen_check_runs(self, tmp_path):
        check_config_echo("coarsen-check", tmp_path)

    def test_commutator_check_runs(self, tmp_path):
        check_config_echo("commutator-check", tmp_path)

    def test_singular_potential_runs(self, tmp_path):
        check_config_echo("singular-potential", tmp_path)

    def test_log_convexity_default_grid_lies_in_the_window(self, tmp_path):
        # the window's lower end is max(1, tau0), above tau0 = 0.5
        assert run(["log-convexity", "--h", "1/32", "--tau0", "0.5",
                    "--out", str(tmp_path)]) == 0
        rows = report_json(tmp_path)["rows"]
        assert len(rows) == 12
        assert rows[0]["tau"] == 1.01
        assert all(row["admissible"] for row in rows)

    def test_log_convexity_tau_list(self, tmp_path):
        assert run(["log-convexity", "--h", "1/32", "--tau", "6,12",
                    "--out", str(tmp_path)]) == 0
        report = json.loads([p for p in data_files(tmp_path)
                             if p.suffix == ".json"][0].read_text())
        assert [row["tau"] for row in report["rows"]] == [6.0, 12.0]

    @pytest.mark.parametrize("samples", ["0", "-2"])
    def test_carleman_sweep_without_samples_exits_1(self, samples, tmp_path, capsys):
        assert run(["carleman-sweep", "--h", "1/32,1/64", "--samples", samples,
                    "--strict", "1", "--out", str(tmp_path)]) == 1
        assert "n_samples must be >= 1" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_log_convexity_refuses_a_tau_past_the_overflow_limit(self, tmp_path, capsys):
        # e^{c2 tau} overflows from tau = 509.2 at the default c_ps
        assert run(["log-convexity", "--h", "1/16", "--tau", "3000",
                    "--out", str(tmp_path / "big")]) == 1
        assert "log(float max) = 709.783" in capsys.readouterr().err
        assert not (tmp_path / "big").exists()
        assert run(["log-convexity", "--h", "1/16", "--tau", "509",
                    "--out", str(tmp_path / "near")]) == 0
        assert [row["tau"] for row in report_json(tmp_path / "near")["rows"]] == [509.0]

    def test_carleman_sweep_tau_list(self, tmp_path):
        assert run(["carleman-sweep", "--h", "1/16", "--tau0", "1", "--tau", "2,3",
                    "--delta0", "0.25", "--samples", "2", "--out", str(tmp_path)]) == 0
        report = json.loads([p for p in data_files(tmp_path)
                             if p.suffix == ".json"][0].read_text())
        assert report["config"]["tau_rule"] == "grid"
        assert [row["tau"] for row in report["rows"]] == [2.0, 2.0, 3.0, 3.0]
        assert all(row["admissible"] and math.isfinite(row["ratio"])
                   for row in report["rows"])

    def test_commutator_check_near_the_overflow_guard(self, tmp_path):
        # peak |phi| is 671, under the guard's 700; sinh * cosh of the phi
        # differences beside the origin overflow from about 355
        assert run(["commutator-check", "--h", "1/16", "--tau", "240", "--strict", "1",
                    "--out", str(tmp_path)]) == 0
        report = report_json(tmp_path)
        assert report["passed"] is True
        assert all(math.isfinite(float(row[key])) for row in report["rows"]
                   for key in ("split_rel", "energy_rel", "two_path_rel"))

    def test_commutator_check_without_coefficient_sites_exits_1(self, tmp_path, capsys):
        # at h = 2.2 no site of the box lies in 0.45 < |h n| < 2.1
        assert run(["commutator-check", "--h", "2.2", "--samples", "0",
                    "--out", str(tmp_path)]) == 1
        assert "no site" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_commutator_check_tol_bounds_the_coefficient_identity(self, tmp_path, monkeypatch):
        # raw coefficients off by 1e-9 of their scale: inside --tol 1e-8, outside 1e-10
        coeffs = experiments.commutator_coeffs

        def perturbed(n, j, k, ctx):
            c = coeffs(n, j, k, ctx)
            scale = max(float(np.max(np.abs(c.simplified))), 1e-3)
            return CommutatorCoeffs(c.simplified, c.simplified + 1e-9 * scale)

        monkeypatch.setattr(experiments, "commutator_coeffs", perturbed)
        verdicts = []
        for tol in ("1e-8", "1e-10"):
            out = tmp_path / tol
            assert run(["commutator-check", *SUBCOMMAND_ARGV["commutator-check"],
                        "--tol", tol, "--out", str(out)]) == 0
            report = report_json(out)
            assert report["fitted"]["max_coeff_rel"]["value"] == pytest.approx(1e-9, rel=1e-6)
            verdicts.append(report["passed"])
        assert verdicts == [True, False]

    @pytest.mark.parametrize("flag", ["--samples", "--coeff-sites"])
    def test_commutator_check_refuses_a_negative_count(self, flag, tmp_path, capsys):
        # a negative count used to measure nothing and exit 0
        assert run(["commutator-check", "--h", "1/16", flag, "-3",
                    "--out", str(tmp_path)]) == 1
        assert "must be nonnegative" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("samples", ["0"])
    def test_commutator_check_measuring_nothing_has_no_verdict(self, samples, tmp_path):
        argv = ["commutator-check", "--h", "1/16", "--samples", samples, "--coeff-sites", "0"]
        assert run(argv + ["--out", str(tmp_path / "a")]) == 0
        report = report_json(tmp_path / "a")
        assert report["passed"] is None
        assert report["warnings"] == ["nothing measured: no bump sample and no coefficient site"]
        assert all(fit["n"] == 0 for fit in report["fitted"].values())
        assert run(argv + ["--strict", "1", "--out", str(tmp_path / "b")]) == 1

    def test_commutator_check_fails_on_nan(self, tmp_path, monkeypatch):
        # one function identity_errors calls returns NaN for each identity in
        # turn; A f is a stand-in, as a LatticeFunction holds finite values only
        form = conjugate.commutator_form
        breaks = {
            "split": ("antisym_apply",
                      lambda f, ctx: SimpleNamespace(spec=f.spec, values=f.values * math.nan)),
            "energy": ("l2_norm", lambda f: math.nan),
            "two_path": ("commutator_form", lambda f, ctx, method: (
                math.nan if method == "composition" else form(f, ctx, method))),
        }
        for key, (name, broken) in breaks.items():
            with monkeypatch.context() as patch:
                patch.setattr(conjugate, name, broken)
                assert run(["commutator-check", *SUBCOMMAND_ARGV["commutator-check"],
                            "--strict", "1", "--out", str(tmp_path / key)]) == 1
            report = report_json(tmp_path / key)
            assert report["passed"] is False
            assert report["fitted"][f"max_{key}_rel"]["value"] == "nan"

    def test_three_balls_checks_the_sweep_before_any_solve(self, tmp_path, capsys,
                                                           monkeypatch):
        solves = []
        monkeypatch.setattr(solver, "dirichlet_solve", lambda *a, **k: solves.append(a))
        assert run(["three-balls", "--input", "solve", "--h", "1/64,1/64",
                    "--out", str(tmp_path / "out")]) == 1
        assert "strictly descending" in capsys.readouterr().err
        assert solves == []

    def test_symbol_scan_refuses_an_oversized_grid_up_front(self, tmp_path, capsys):
        points = 512 ** 3
        assert points > MAX_GRID_POINTS
        tracemalloc.start()
        try:
            code = run(["symbol-scan", "--d", "3", "--resolution", "512",
                        "--out", str(tmp_path / "out")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1
        err = capsys.readouterr().err
        assert f"{points} points" in err
        assert f"near-set box (lower_bound_margin), which can span the whole grid, would need " \
               f"up to about {points * SCAN_BYTES_PER_POINT} bytes" in err
        assert peak < 8 << 20  # one 512^3 float64 grid alone is 1 GiB
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("resolution", ["64,64", "128,64"])
    def test_symbol_scan_refuses_resolutions_that_do_not_ascend(self, resolution, tmp_path,
                                                                 capsys, monkeypatch):
        # a grid compared with itself passed with refinement_agreement 0.0
        scans = []
        monkeypatch.setattr(cli, "lower_bound_margin", lambda *a, **k: scans.append(a))
        assert run(["symbol-scan", "--resolution", resolution, "--grid-csv", "0",
                    "--out", str(tmp_path / "out")]) == 1
        assert f"resolutions {resolution} are not strictly ascending" in capsys.readouterr().err
        assert scans == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("resolution", ["64,128", "64"])
    def test_symbol_scan_runs_ascending_resolutions(self, resolution, tmp_path):
        assert run(["symbol-scan", "--h", "1/64", "--tau", "10", "--c0", "0.0025",
                    "--resolution", resolution, "--grid-csv", "0", "--out", str(tmp_path)]) == 0
        report = report_json(tmp_path)
        assert [row["resolution"] for row in report["rows"]] == [
            int(r) for r in resolution.split(",")]
        # one resolution refines nothing, so it gets no verdict
        refined = "," in resolution
        assert ("refinement_agreement" in report["fitted"]) is refined
        assert (report["passed"] is not None) is refined

    def test_three_balls_refuses_an_oversized_box_up_front(self, tmp_path, capsys):
        h = 1 / 100000
        m = int(math.floor(4.0 / h)) + 2  # LatticeSpec.ball_box(2, h, 4.0, pad_sites=2)
        sites = (2 * m + 1) ** 2
        assert sites > MAX_SITES
        tracemalloc.start()
        try:
            code = run(["three-balls", "--h", "1/100000", "--out", str(tmp_path / "out")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1
        assert f"{sites} sites" in capsys.readouterr().err
        assert peak < 8 << 20
        assert not (tmp_path / "out").exists()

    def test_singular_potential_refuses_a_large_d3_solve_up_front(self, tmp_path, capsys,
                                                                   monkeypatch):
        # the limit guards the LU, the path of solves with nonzero fields
        def no_assembly(*args, **kwargs):
            raise AssertionError("assembled past the d = 3 limit")

        monkeypatch.setattr(solver, "stencil_rows", no_assembly)
        code = run(["singular-potential", *SUBCOMMAND_ARGV["singular-potential"], "--d", "3",
                    "--h", "1/8", "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        spec = LatticeSpec.ball_box(3, 1 / 8, solver.BALL_RADIUS, pad_sites=2)
        unknowns = int(BallRegion(solver.BALL_RADIUS).mask(spec).sum())
        assert unknowns > solver.LU_MAX_UNKNOWNS_3D
        assert f"{unknowns} interior unknowns" in err
        assert not (tmp_path / "out").exists()

    def test_inadmissible_weight_exits_one(self, tmp_path, capsys):
        # c_ps large enough to break monotonicity fails the startup check
        assert run(["log-convexity", "--h", "1/32", "--c-ps", "10.0",
                    "--out", str(tmp_path)]) == 1
        assert "inadmissible" in capsys.readouterr().err
