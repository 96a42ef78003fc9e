"""CLI behavior: subcommands, config files, determinism, exit codes."""

import ast
import json
import math
import os
import shlex
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy

import carlat
from carlat import cli, reports, solver
from carlat.cli import main, parse_number
from carlat.conjugate import CommutatorCoeffs
from carlat.lattice import MAX_SITES, BallRegion, LatticeSpec
from carlat.symbols import (MAX_GRID_POINTS, SCAN_BYTES_PER_POINT, FrozenPoint, SymbolGrid,
                            scan_table)
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


class TestWindowAndStrict:
    def test_out_of_window_tau_warns_but_succeeds(self, tmp_path):
        argv = ["carleman-sweep", "--h", "0.5", "--tau", "1000", "--samples", "2",
                "--out", str(tmp_path)]
        assert run(argv) == 0
        report = json.loads([p for p in data_files(tmp_path)
                             if p.suffix == ".json"][0].read_text())
        assert report["warnings"]

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

    def test_symbol_scan_grid_csv_matches_the_materialized_mesh(self, tmp_path):
        assert run(["symbol-scan", *SUBCOMMAND_ARGV["symbol-scan"], "--out", str(tmp_path)]) == 0
        config = report_json(tmp_path)["config"]
        fp = FrozenPoint.from_weight(config["x_bar"], WeightParams(config["tau"], config["c_ps"]),
                                     config["h"])
        grid = SymbolGrid(2, config["h"], 64)
        table = scan_table(fp, grid, config["c0"])
        columns = [*grid.mesh().reshape(2, -1).tolist(),
                   *(table[k].tolist() for k in ("p_r", "p_i", "q", "margin"))]
        expected = "xi_1,xi_2,p_r,p_i,q,margin\n" + "".join(
            ",".join(map(repr, row)) + "\n" for row in zip(*columns))
        [path] = tmp_path.glob("*_grid.csv")
        assert path.read_text() == expected

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
        # a clock that jumps 1000 s per reading changes the timings and no data byte
        ticks = iter(range(0, 10 ** 6, 1000))
        monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: float(next(ticks))))
        assert run([*argv, "--out", str(tmp_path / "b")]) == 0
        metas = [json.loads(next((tmp_path / side).glob("*.meta.json")).read_text())
                 for side in "ab"]
        for meta in metas:
            assert [(s["resolution"], s["points"]) for s in meta["scans"]] == [
                (64, 64 * 64), (128, 128 * 128)]
        assert all(0.0 <= s["scan_s"] < 60.0 for s in metas[0]["scans"])
        assert all(s["scan_s"] == 1000.0 for s in metas[1]["scans"])
        files_a, files_b = data_files(tmp_path / "a"), data_files(tmp_path / "b")
        assert sorted(p.suffix for p in files_a) == [".csv", ".csv", ".json"]
        assert [p.name for p in files_a] == [p.name for p in files_b]
        for pa, pb in zip(files_a, files_b):
            assert pa.read_bytes() == pb.read_bytes()
            assert "scan_s" not in pa.read_text()

    @pytest.mark.parametrize("sub, argv, hs", [
        ("three-balls", ["--h", "1/16,1/32", "--input", "solve"], [1 / 16, 1 / 32]),
        ("coarsen-check", ["--h", "1/32", "--input", "solve", "--m", "2"], [1 / 32]),
        ("log-convexity", ["--h", "1/32", "--input", "solve", "--tau0", "1.0"], [1 / 32]),
        ("singular-potential", SUBCOMMAND_ARGV["singular-potential"], [1 / 8, 1 / 16]),
    ])
    def test_solve_inputs_record_their_lu_in_the_sidecar(self, sub, argv, hs, tmp_path):
        assert run([sub, *argv, "--out", str(tmp_path)]) == 0
        [meta_path] = tmp_path.glob("*.meta.json")
        inputs = json.loads(meta_path.read_text())["inputs"]
        assert [facts["h"] for facts in inputs] == hs
        for facts in inputs:
            assert set(facts) == {"h", "residual", "unknowns", "fill_nnz", "factor_s"}
            assert 0 < facts["unknowns"] < facts["fill_nnz"] and 0.0 < facts["factor_s"] < 60.0
            assert 0.0 < facts["residual"] < 1e-6
        for data in data_files(tmp_path):
            text = data.read_text()
            assert not any(key in text for key in ("fill_nnz", "factor_s", "unknowns"))

    def test_polynomial_inputs_record_no_lu(self, tmp_path):
        assert run(["coarsen-check", *SUBCOMMAND_ARGV["coarsen-check"], "--out", str(tmp_path)]) == 0
        [meta_path] = tmp_path.glob("*.meta.json")
        meta = json.loads(meta_path.read_text())
        assert "lu" not in meta
        assert meta["inputs"] == [{"h": 1 / 32, "residual": 0.0}]

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
        coeffs = cli.commutator_coeffs

        def perturbed(n, j, k, ctx):
            c = coeffs(n, j, k, ctx)
            scale = max(float(np.max(np.abs(c.simplified))), 1e-3)
            return CommutatorCoeffs(c.simplified, c.simplified + 1e-9 * scale)

        monkeypatch.setattr(cli, "commutator_coeffs", perturbed)
        verdicts = []
        for tol in ("1e-8", "1e-10"):
            out = tmp_path / tol
            assert run(["commutator-check", *SUBCOMMAND_ARGV["commutator-check"],
                        "--tol", tol, "--out", str(out)]) == 0
            report = report_json(out)
            assert report["fitted"]["max_coeff_rel"]["value"] == pytest.approx(1e-9, rel=1e-6)
            verdicts.append(report["passed"])
        assert verdicts == [True, False]

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_commutator_check_measuring_nothing_has_no_verdict(self, samples, tmp_path):
        argv = ["commutator-check", "--h", "1/16", "--samples", samples, "--coeff-sites", "0"]
        assert run(argv + ["--out", str(tmp_path / "a")]) == 0
        report = report_json(tmp_path / "a")
        assert report["passed"] is None
        assert report["warnings"] == ["nothing measured: no bump sample and no coefficient site"]
        assert all(fit["n"] == 0 for fit in report["fitted"].values())
        assert run(argv + ["--strict", "1", "--out", str(tmp_path / "b")]) == 1

    def test_commutator_check_fails_on_nan(self, tmp_path, monkeypatch):
        composition = cli.commutator_form
        monkeypatch.setattr(cli, "commutator_form", lambda f, ctx, method: (
            math.nan if method == "expansion" else composition(f, ctx, method)))
        assert run(["commutator-check", *SUBCOMMAND_ARGV["commutator-check"],
                    "--strict", "1", "--out", str(tmp_path)]) == 1
        report = report_json(tmp_path)
        assert report["passed"] is False
        assert report["fitted"]["max_two_path_rel"]["value"] == "nan"

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
        assert f"{points * SCAN_BYTES_PER_POINT} bytes" in err
        assert peak < 8 << 20  # one 512^3 float64 grid alone is 1 GiB
        assert not (tmp_path / "out").exists()

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

    def test_three_balls_refuses_a_large_d3_solve_up_front(self, tmp_path, capsys, monkeypatch):
        def no_assembly(*args, **kwargs):
            raise AssertionError("assembled past the d = 3 limit")

        monkeypatch.setattr(solver, "stencil_matrix", no_assembly)
        code = run(["three-balls", "--d", "3", "--h", "1/8", "--input", "solve",
                    "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        spec = LatticeSpec.ball_box(3, 1 / 8, solver.BALL_RADIUS, pad_sites=2)
        unknowns = int(BallRegion.origin(3, solver.BALL_RADIUS).mask(spec).sum())
        assert unknowns > solver.LU_MAX_UNKNOWNS_3D
        assert f"{unknowns} interior unknowns" in err
        assert not (tmp_path / "out").exists()

    def test_inadmissible_weight_exits_one(self, tmp_path, capsys):
        # c_ps large enough to break monotonicity fails the startup check
        assert run(["log-convexity", "--h", "1/32", "--c-ps", "10.0",
                    "--out", str(tmp_path)]) == 1
        assert "inadmissible" in capsys.readouterr().err
