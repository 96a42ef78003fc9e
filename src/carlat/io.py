"""Serialization of lattice functions.

A function is stored as a JSON header plus a data file of (multi-index,
value) rows covering every site of the box, in C (row-major) index order:

* header ``<base>.json``: {"schema", "d", "h", "lo", "hi", "format",
  "byte_order"}; byte_order is always "little"
* binary ``<base>.bin``: per row, d little-endian int64 indices followed by
  one little-endian float64 value
* csv ``<base>.csv``: header ``n_1,...,n_d,value``; values via repr
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .lattice import LatticeFunction, LatticeSpec
from .reports import MeshAxis, csv_blocks

HEADER_SCHEMA = "carlat-lattice-function/1"


def save_lattice_function(f: LatticeFunction, base: str | Path, fmt: str = "binary"):
    """Write <base>.json plus <base>.bin or <base>.csv; returns the data path."""
    if fmt not in ("binary", "csv"):
        raise ValueError(f"unknown serialization format {fmt!r}")
    base = Path(base)
    base.parent.mkdir(parents=True, exist_ok=True)
    header = {
        "schema": HEADER_SCHEMA,
        "d": f.spec.d,
        "h": f.spec.h,
        "lo": list(f.spec.lo),
        "hi": list(f.spec.hi),
        "format": fmt,
        "byte_order": "little",
    }
    base.with_suffix(".json").write_text(json.dumps(header, sort_keys=True, indent=2) + "\n")
    vals = f.values.ravel()
    if fmt == "binary":
        path = base.with_suffix(".bin")
        rows = np.empty(vals.size, dtype=[("n", "<i8", (f.spec.d,)), ("value", "<f8")])
        rows["n"] = f.spec.indices().reshape(f.spec.d, -1).T
        rows["value"] = vals
        rows.tofile(path)
    else:
        path = base.with_suffix(".csv")
        sites = [MeshAxis(range(lo, hi + 1), f.spec.shape, a)
                 for a, (lo, hi) in enumerate(zip(f.spec.lo, f.spec.hi))]
        with open(path, "w") as fh:
            fh.writelines(csv_blocks([f"n_{a+1}" for a in range(f.spec.d)] + ["value"],
                                     [*sites, vals]))
    return path


def load_lattice_function(base: str | Path) -> LatticeFunction:
    """Read what save_lattice_function wrote: one row per site of the box."""
    base = Path(base)
    header = json.loads(base.with_suffix(".json").read_text())
    if header.get("schema") != HEADER_SCHEMA:
        raise ValueError("unrecognized lattice function header schema")
    if header.get("byte_order") != "little":
        raise ValueError(f"unsupported byte order {header.get('byte_order')!r}")
    missing = [key for key in ("d", "h", "lo", "hi") if key not in header]
    if missing:
        raise ValueError(f"lattice function header lacks {', '.join(missing)}")
    d, h, lo, hi = (header[key] for key in ("d", "h", "lo", "hi"))
    if not (_is_int(d) and d >= 1):
        raise ValueError(f"header d must be an integer >= 1, not {d!r}")
    if isinstance(h, bool) or not isinstance(h, (int, float)) or not 0 < h < math.inf:
        raise ValueError(f"header h must be a finite positive number, not {h!r}")
    for key, ends in (("lo", lo), ("hi", hi)):
        if not (isinstance(ends, list) and len(ends) == d and all(map(_is_int, ends))):
            raise ValueError(f"header {key} must be a list of {d} integers, not {ends!r}")
    spec = LatticeSpec(d, h, tuple(lo), tuple(hi))
    values = np.zeros(spec.shape)
    fmt = header.get("format")
    if fmt == "binary":
        rows = np.fromfile(base.with_suffix(".bin"),
                           dtype=[("n", "<i8", (spec.d,)), ("value", "<f8")])
        if rows.size != values.size:
            raise ValueError(f"expected {values.size} rows, read {rows.size}")
        idx = rows["n"]
        vals = rows["value"]
    elif fmt == "csv":
        data = np.loadtxt(base.with_suffix(".csv"), delimiter=",", skiprows=1, ndmin=2)
        if data.shape != (values.size, spec.d + 1):
            raise ValueError(f"expected {values.size} rows of {spec.d + 1} columns, "
                             f"read {data.shape[0]} of {data.shape[1]}")
        idx = data[:, :spec.d].astype(np.int64)
        if np.any(idx != data[:, :spec.d]):
            raise ValueError("non-integral site index")
        vals = data[:, spec.d]
    else:
        raise ValueError(f"unknown serialization format {fmt!r}")
    if np.any((idx < spec.lo) | (idx > spec.hi)):
        raise ValueError("row index outside the box")
    site = tuple((idx - spec.lo).T)
    seen = np.zeros(spec.shape, dtype=bool)
    seen[site] = True
    # as many rows as sites, so a site left out means another one named twice
    if not seen.all():
        raise ValueError("duplicate site index")
    values[site] = vals
    return LatticeFunction(spec, values)


def _is_int(v) -> bool:
    """Whether a JSON value is an integer; JSON's true and false are not."""
    return isinstance(v, int) and not isinstance(v, bool)
