"""Round trips of the lattice function serialization."""

import json
import os

import numpy as np
import pytest

from carlat import LatticeFunction, LatticeSpec, load_lattice_function, save_lattice_function
from carlat import reports
from carlat.reports import CSV_BLOCK_ROWS


@pytest.mark.parametrize("fmt", ["binary", "csv"])
def test_round_trip(fmt, tmp_path, rng_seed):
    rng = np.random.default_rng(rng_seed)
    spec = LatticeSpec(2, 0.125, (-3, -2), (4, 5))
    f = LatticeFunction(spec, rng.standard_normal(spec.shape))
    base = tmp_path / "field"
    save_lattice_function(f, base, fmt=fmt)
    g = load_lattice_function(base)
    assert g.spec == f.spec
    np.testing.assert_array_equal(g.values, f.values)


def test_binary_layout_is_little_endian(tmp_path):
    spec = LatticeSpec(1, 0.5, (2,), (4,))
    f = LatticeFunction(spec, np.array([1.5, -2.0, 0.25]))
    base = tmp_path / "row"
    path = save_lattice_function(f, base, fmt="binary")
    raw = np.fromfile(path, dtype=[("n", "<i8"), ("value", "<f8")])
    assert list(raw["n"]) == [2, 3, 4]
    assert list(raw["value"]) == [1.5, -2.0, 0.25]
    header = json.loads((tmp_path / "row.json").read_text())
    assert header["byte_order"] == "little"
    assert header["lo"] == [2] and header["hi"] == [4]


def test_unknown_format_rejected(tmp_path):
    spec = LatticeSpec(1, 1.0, (0,), (1,))
    with pytest.raises(ValueError, match="format"):
        save_lattice_function(LatticeFunction.zeros(spec), tmp_path / "x", fmt="hdf5")


def test_bad_header_schema(tmp_path):
    (tmp_path / "x.json").write_text(json.dumps({"schema": "other/9"}))
    with pytest.raises(ValueError, match="schema"):
        load_lattice_function(tmp_path / "x")


def test_csv_rows_span_several_blocks(tmp_path, rng_seed):
    spec = LatticeSpec(1, 0.5, (-3,), (2 * CSV_BLOCK_ROWS,))
    f = LatticeFunction(spec, np.random.default_rng(rng_seed).standard_normal(spec.shape))
    path = save_lattice_function(f, tmp_path / "long", fmt="csv")
    rows = [f"{n},{float(v)!r}" for n, v in zip(range(-3, 2 * CSV_BLOCK_ROWS + 1), f.values)]
    assert path.read_text() == "n_1,value\n" + "\n".join(rows) + "\n"


def test_csv_matches_the_materialized_index_mesh_in_3d(tmp_path, rng_seed):
    spec = LatticeSpec(3, 0.25, (-5, -7, 2), (3, 5, 12))
    assert np.prod(spec.shape) > CSV_BLOCK_ROWS
    f = LatticeFunction(spec, np.random.default_rng(rng_seed).standard_normal(spec.shape))
    path = save_lattice_function(f, tmp_path / "cube", fmt="csv")
    columns = [*spec.indices().reshape(3, -1).tolist(), f.values.ravel().tolist()]
    rows = [",".join(map(repr, row)) for row in zip(*columns)]
    assert path.read_text() == "n_1,n_2,n_3,value\n" + "\n".join(rows) + "\n"


def test_csv_formatted_by_workers_is_the_same(tmp_path, rng_seed, monkeypatch):
    spec = LatticeSpec(3, 0.25, (-5, -7, 2), (3, 5, 12))
    f = LatticeFunction(spec, np.random.default_rng(rng_seed).standard_normal(spec.shape))
    serial = save_lattice_function(f, tmp_path / "serial", fmt="csv").read_bytes()
    monkeypatch.setattr(reports, "PARALLEL_MIN_ROWS", 512)
    monkeypatch.setattr(reports, "PARALLEL_CHUNK_ROWS", 100)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert reports.csv_workers(np.prod(spec.shape)) == 3
    assert save_lattice_function(f, tmp_path / "forked", fmt="csv").read_bytes() == serial


def _saved(tmp_path, fmt):
    spec = LatticeSpec(1, 0.5, (0,), (3,))
    f = LatticeFunction(spec, np.array([1.5, -2.0, 0.25, 4.0]))
    return tmp_path / "f", save_lattice_function(f, tmp_path / "f", fmt=fmt)


def _rewrite_rows(path, fmt, edit):
    """Apply edit to the data rows: text lines for csv, a record array for binary."""
    if fmt == "csv":
        header, *rows = path.read_text().splitlines()
        path.write_text("\n".join([header] + edit(rows)) + "\n")
    else:
        rows = np.fromfile(path, dtype=[("n", "<i8", (1,)), ("value", "<f8")])
        edit(rows).tofile(path)


@pytest.mark.parametrize("fmt", ["binary", "csv"])
def test_missing_row_rejected(fmt, tmp_path):
    base, path = _saved(tmp_path, fmt)
    _rewrite_rows(path, fmt, lambda rows: rows[:-1])
    with pytest.raises(ValueError, match="expected 4 rows"):
        load_lattice_function(base)


@pytest.mark.parametrize("fmt", ["binary", "csv"])
def test_index_outside_the_box_rejected(fmt, tmp_path):
    def first_index_minus_one(rows):
        if fmt == "csv":
            return ["-1" + rows[0][1:]] + rows[1:]
        rows["n"][0] = -1
        return rows

    base, path = _saved(tmp_path, fmt)
    _rewrite_rows(path, fmt, first_index_minus_one)
    with pytest.raises(ValueError, match="outside the box"):
        load_lattice_function(base)


def test_unknown_header_format_rejected(tmp_path):
    base, path = _saved(tmp_path, "csv")
    header = json.loads(base.with_suffix(".json").read_text())
    header["format"] = "hdf5"
    base.with_suffix(".json").write_text(json.dumps(header))
    with pytest.raises(ValueError, match="format 'hdf5'"):
        load_lattice_function(base)


@pytest.mark.parametrize("byte_order", ["big", None])
def test_other_byte_order_rejected(byte_order, tmp_path):
    base, path = _saved(tmp_path, "binary")
    header = json.loads(base.with_suffix(".json").read_text())
    if byte_order is None:
        del header["byte_order"]
    else:
        header["byte_order"] = byte_order
    base.with_suffix(".json").write_text(json.dumps(header))
    with pytest.raises(ValueError, match=f"byte order {byte_order!r}"):
        load_lattice_function(base)


@pytest.mark.parametrize("key", ["d", "h", "lo", "hi"])
def test_header_without_a_box_field_rejected(key, tmp_path):
    base, path = _saved(tmp_path, "binary")
    header = json.loads(base.with_suffix(".json").read_text())
    del header[key]
    base.with_suffix(".json").write_text(json.dumps(header))
    with pytest.raises(ValueError, match=f"header lacks {key}$"):
        load_lattice_function(base)


@pytest.mark.parametrize("key, value", [
    ("d", "1"), ("d", 1.0), ("d", True), ("h", "0.5"), ("h", True), ("h", float("inf")),
    ("lo", [-0.5]), ("hi", [3.9]), ("lo", [False]), ("lo", ["0"]), ("lo", "0"), ("hi", 3)])
def test_header_field_of_the_wrong_type_rejected(key, value, tmp_path):
    # each was coerced by the lattice spec or escaped as another error
    base, path = _saved(tmp_path, "binary")
    header = json.loads(base.with_suffix(".json").read_text())
    header[key] = value
    base.with_suffix(".json").write_text(json.dumps(header))
    with pytest.raises(ValueError, match=f"header {key} must be"):
        load_lattice_function(base)


@pytest.mark.parametrize("fmt", ["binary", "csv"])
def test_duplicate_index_rejected(fmt, tmp_path):
    def second_row_names_site_zero(rows):
        if fmt == "csv":
            return [rows[0], "0" + rows[1][1:]] + rows[2:]
        rows["n"][1] = 0
        return rows

    base, path = _saved(tmp_path, fmt)
    _rewrite_rows(path, fmt, second_row_names_site_zero)
    with pytest.raises(ValueError, match="duplicate site index"):
        load_lattice_function(base)


def test_fractional_csv_index_rejected(tmp_path):
    base, path = _saved(tmp_path, "csv")
    # 0.7 would truncate onto site 0
    _rewrite_rows(path, "csv", lambda rows: ["0.7" + rows[0][1:]] + rows[1:])
    with pytest.raises(ValueError, match="non-integral site index"):
        load_lattice_function(base)
