"""No module under src/carlat or tests imports a name it never loads.  This
AST scan stands in for a linter, which the toolchain lacks; package
``__init__.py`` files are skipped, as their imports are re-exports."""

import ast
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that no expression loads."""
    tree = ast.parse(source)
    loaded = {n.id for n in ast.walk(tree)
              if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    imports = [n for n in ast.walk(tree) if isinstance(n, ast.Import)
               or isinstance(n, ast.ImportFrom) and n.module != "__future__"]
    bound = [(n.lineno, a.asname or a.name.split(".")[0])  # "import a.b" binds a
             for n in imports for a in n.names]
    return [(line, name) for line, name in bound if name not in loaded]


def test_the_scan_finds_unused_imports():
    source = "import os.path\nimport json as j\nfrom a import b, c as d\nd(b)\nj = 1\n"
    assert unused_imports(source) == [(1, "os"), (2, "j")]


def test_no_module_imports_a_name_it_never_uses():
    modules = [p for folder in ("src/carlat", "tests")
               for p in sorted((ROOT / folder).glob("*.py")) if p.name != "__init__.py"]
    assert len(modules) > 20
    unused = [f"{p.relative_to(ROOT)}:{line} {name}"
              for p in modules for line, name in unused_imports(p.read_text())]
    assert unused == []


# Run in a fresh interpreter, whose sys.modules no other test has touched
LAZY_SCIPY = """
import json, sys
import carlat, carlat.cli
seen = {"import": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}
out = sys.argv[1]
assert carlat.cli.main(["symbol-scan", "--h", "1/64", "--tau", "10", "--c0", "0.0025",
                        "--resolution", "64,128", "--grid-csv", "0", "--out", out]) == 0
assert carlat.cli.main(["carleman-sweep", "--h", "1/16", "--tau0", "1", "--tau", "2,3",
                        "--delta0", "0.25", "--samples", "2", "--out", out]) == 0
seen["cli"] = "scipy.sparse" in sys.modules
spec = carlat.LatticeSpec.ball_box(2, 1 / 8, 4.0, pad_sites=2)
data = carlat.harmonic_polynomial(spec, "deg3")
carlat.dirichlet_solve(carlat.DirichletProblem.on_ball(spec, 4.0, data))
seen["solve"] = "scipy.sparse" in sys.modules
print(json.dumps(seen))
"""


def test_scipy_loads_at_the_first_solve(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", LAZY_SCIPY, str(tmp_path)], env=env,
                          capture_output=True, text=True, check=True)
    assert time.perf_counter() - start < 3.0
    seen = json.loads(done.stdout.splitlines()[-1])
    # symbol-scan and carleman-sweep never build a sparse matrix; a solve does
    assert seen == {"import": [], "cli": False, "solve": True}
