"""No module under src/carlat or tests imports a name it never loads.  This
AST scan stands in for a linter, which the toolchain lacks; package
``__init__.py`` files are skipped, as their imports are re-exports."""

import ast
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
