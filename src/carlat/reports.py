"""Structured experiment reports with deterministic JSON/CSV serialization.

Data files carry no timestamps; run metadata (wall-clock time, numpy and
scipy versions, the stencil kernel path) goes into a ``.meta.json`` sidecar
so identical configurations produce byte-identical data files.  File
basenames embed a hash of the resolved configuration.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._kernels import kernel_backend

REPORT_SCHEMA = "carlat-report/1"


def _builtin(value):
    """Recursively convert numpy scalars/arrays for JSON output.

    A NumPy scalar (``np.bool_`` included) becomes its Python value first and
    then meets the same rules, so ``np.float64('nan')`` is ``"nan"`` too.
    """
    if isinstance(value, np.generic):
        value = value.item()
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
    # sidecar-only run facts (sizes, timings): merged into .meta.json by
    # write(), never into the hashed data files
    meta: dict = field(default_factory=dict)

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
            "schema": REPORT_SCHEMA,
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

    def write(self, out_dir: str | Path):
        """Write <name>_<hash>.json, .csv and .meta.json; returns paths."""
        import scipy  # here, so that importing carlat loads no SciPy

        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        base = f"{self.name}_{self.config_hash}"
        json_path = out / f"{base}.json"
        csv_path = out / f"{base}.csv"
        meta_path = out / f"{base}.meta.json"
        json_path.write_text(
            json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n")
        csv_path.write_text(self.csv_text())
        meta_path.write_text(json.dumps(_builtin({
            **self.meta,
            "written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "kernel_backend": kernel_backend,
        }), sort_keys=True, indent=2) + "\n")
        return json_path, csv_path, meta_path


# rows per block of csv_blocks; larger blocks write a 1024^2 grid CSV no
# faster and leave a higher peak RSS (8192 rows: 4 MB more).  A mesh-axis
# column takes one index array of this many rows per block, never a column.
CSV_BLOCK_ROWS = 1024
# tables of at least this many rows are formatted in forked processes; a
# smaller table formats in well under 0.3 s, and forking gains little or loses
PARALLEL_MIN_ROWS = 1 << 16
# rows per task of a forked worker; twice as many tasks as workers are in
# flight, so the parent holds at most that many spans of text
PARALLEL_CHUNK_ROWS = 1 << 13


@dataclass(frozen=True)
class MeshAxis:
    """Coordinate ``axis`` of a C-order mesh of ``shape``, as a CSV column.

    Row r of the flattened mesh holds ``values[(r // stride) % shape[axis]]``,
    where stride is the product of the extents after ``axis``; ``values`` is
    the 1-D axis (an array, list or range).
    """

    values: object
    shape: tuple
    axis: int

    def __post_init__(self):
        if len(self.values) != self.shape[self.axis]:
            raise ValueError(f"axis {self.axis} has {len(self.values)} values, "
                             f"the mesh {self.shape[self.axis]}")

    def __len__(self):
        return math.prod(self.shape)


def csv_blocks(header, columns, cell=repr):
    """CSV text of equal-length columns, yielded a block of rows at a time.

    A plain column is formatted a block at a time, ``map(cell, ...)``:
    ``repr`` writes floats round-trip exact and ints plainly.  NumPy columns
    go through ``tolist()`` first, so cells are Python scalars.  A
    ``MeshAxis`` column formats its axis values once with ``cell`` and
    looks each row's string up by its index on the axis, so the text is the
    same as that of the materialized mesh column.  Blocks bound the memory
    a million-row table takes while it is formatted.

    A table of ``csv_workers(nrows) > 1`` is formatted by that many forked
    processes, ``PARALLEL_CHUNK_ROWS`` rows per task, and yielded in row
    order; the text is the same, as every row goes through ``_rows_text``.
    """
    yield ",".join(header) + "\n"
    nrows = len(columns[0])
    blocks = [_column_cells(col, cell) for col in columns]
    workers = csv_workers(nrows)
    if workers > 1:
        yield from _forked_rows(blocks, nrows, workers)
        return
    for start in range(0, nrows, CSV_BLOCK_ROWS):
        yield _rows_text(blocks, start, min(start + CSV_BLOCK_ROWS, nrows))


def csv_workers(nrows: int) -> int:
    """Processes that format a table of ``nrows`` rows; 1 is the serial path.

    One per CPU this process may run on, no more than there are chunks, and
    1 below ``PARALLEL_MIN_ROWS`` rows, where the CPU set is unknown, or
    while other threads run: a forked child can deadlock on a lock one of
    them held.
    """
    if (nrows < PARALLEL_MIN_ROWS or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 1
    return min(len(os.sched_getaffinity(0)), -(-nrows // PARALLEL_CHUNK_ROWS))


def _rows_text(blocks, start, stop):
    """Rows ``start`` to ``stop`` of the table, each ended by a newline."""
    return "\n".join(map(",".join, zip(*(b(start, stop) for b in blocks)))) + "\n"


# the blocks a forked worker formats, set in the worker by _inherit
_worker_blocks = None


def _inherit(blocks):
    global _worker_blocks
    _worker_blocks = blocks


def _format_span(start, stop):
    return _rows_text(_worker_blocks, start, stop)


def _forked_rows(blocks, nrows, workers):
    """``_rows_text`` of each chunk of rows, formatted by ``workers`` forked processes."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # a forked worker gets the initializer's arguments without pickling, so
    # no column is copied and a ``cell`` may be a lambda
    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                               initializer=_inherit, initargs=(blocks,))
    try:
        pending = deque()
        for start in range(0, nrows, PARALLEL_CHUNK_ROWS):
            pending.append(pool.submit(_format_span, start, min(start + PARALLEL_CHUNK_ROWS, nrows)))
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def _column_cells(col, cell):
    """(start, stop) -> the formatted cells of those rows of one column."""
    if not isinstance(col, MeshAxis):
        return lambda start, stop: map(cell, _scalars(col[start:stop]))
    labels = np.array(list(map(cell, _scalars(col.values))), dtype=object)
    stride = math.prod(col.shape[col.axis + 1:])
    n = col.shape[col.axis]
    return lambda start, stop: labels[np.arange(start, stop) // stride % n].tolist()


def _scalars(values):
    return values.tolist() if isinstance(values, np.ndarray) else values


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)
