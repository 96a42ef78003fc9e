"""Structured experiment reports with deterministic JSON/CSV serialization.

Data files carry no timestamps; run metadata (wall-clock time, numpy and
scipy versions, the stencil kernel path) goes into a ``.meta.json`` sidecar
so identical configurations produce byte-identical data files.  File
basenames embed a hash of the resolved configuration.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from ._kernels import kernel_backend

REPORT_SCHEMA = "carlat-report/1"


def _builtin(value):
    """Recursively convert numpy scalars/arrays for JSON output."""
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_builtin(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): _builtin(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_builtin(v) for v in value]
    if isinstance(value, float) and (np.isnan(value) or np.isinf(value)):
        return repr(value)
    return value


@dataclass(frozen=True)
class FittedConstant:
    """A fitted or aggregated constant with its regression diagnostics."""

    value: float
    n: int
    r_squared: float | None = None
    residual: float | None = None

    def as_dict(self):
        return _builtin({"value": self.value, "n": self.n,
                         "r_squared": self.r_squared, "residual": self.residual})


def linear_fit(x, y):
    """Least-squares line fit returning (slope, intercept, r_squared, rms)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size < 2:
        raise ValueError("need at least two points for a linear fit")
    a = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    pred = a @ coef
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(coef[0]), float(coef[1]), r2, float(np.sqrt(ss_res / x.size))


@dataclass
class ExperimentReport:
    """Config echo, row table, fitted constants, warnings, and a verdict."""

    name: str
    config: dict
    rows: list = field(default_factory=list)
    fitted: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)
    passed: bool | None = None
    schema: str = REPORT_SCHEMA

    def add_row(self, **kwargs):
        self.rows.append(_builtin(kwargs))

    def warn(self, message: str):
        self.warnings.append(str(message))

    def fit(self, key: str, constant: FittedConstant):
        self.fitted[key] = constant

    @property
    def config_hash(self) -> str:
        blob = json.dumps(_builtin(self.config), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]

    def to_json_dict(self) -> dict:
        return {
            "schema": self.schema,
            "name": self.name,
            "config": _builtin(self.config),
            "config_hash": self.config_hash,
            "fitted": {k: v.as_dict() for k, v in sorted(self.fitted.items())},
            "warnings": list(self.warnings),
            "passed": self.passed,
            "rows": self.rows,
        }

    def csv_text(self) -> str:
        if not self.rows:
            return ""
        keys = list(self.rows[0].keys())
        if any(list(row.keys()) != keys for row in self.rows):
            raise ValueError("report rows carry inconsistent columns")
        return "".join(csv_blocks(keys, [[row[k] for row in self.rows] for k in keys],
                                  _csv_cell))

    def write(self, out_dir: str | Path, basename: str | None = None):
        """Write <base>.json, <base>.csv and <base>.meta.json; returns paths."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        base = basename or f"{self.name}_{self.config_hash}"
        json_path = out / f"{base}.json"
        csv_path = out / f"{base}.csv"
        meta_path = out / f"{base}.meta.json"
        json_path.write_text(
            json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n")
        csv_path.write_text(self.csv_text())
        meta_path.write_text(json.dumps({
            "written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "kernel_backend": kernel_backend,
        }, sort_keys=True, indent=2) + "\n")
        return json_path, csv_path, meta_path


# rows per block of csv_blocks; larger blocks write a 1024^2 grid CSV no
# faster and leave a higher peak RSS (8192 rows: 4 MB more)
CSV_BLOCK_ROWS = 1024


def csv_blocks(header, columns, cell=repr):
    """CSV text of equal-length columns, yielded a block of rows at a time.

    Each column of a block is formatted on its own, ``map(cell, ...)``:
    ``repr`` writes floats round-trip exact and ints plainly.  NumPy columns
    go through ``tolist()`` first, so cells are Python scalars.  Blocks
    bound the memory a million-row table takes while it is formatted.
    """
    yield ",".join(header) + "\n"
    for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
        block = [col[start:start + CSV_BLOCK_ROWS] for col in columns]
        cells = [map(cell, b.tolist() if isinstance(b, np.ndarray) else b) for b in block]
        yield "\n".join(map(",".join, zip(*cells))) + "\n"


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)
