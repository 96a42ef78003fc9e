"""Report serialization and fitting helpers."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carlat.reports import (CSV_BLOCK_ROWS, ExperimentReport, FittedConstant, MeshAxis,
                            csv_blocks, linear_fit)


def test_linear_fit_recovers_exact_line():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    slope, intercept, r2, rms = linear_fit(x, -2.5 * x + 0.75)
    assert slope == pytest.approx(-2.5, rel=1e-12)
    assert intercept == pytest.approx(0.75, rel=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    assert rms <= 1e-12


def test_linear_fit_needs_two_points():
    with pytest.raises(ValueError, match="two points"):
        linear_fit([1.0], [2.0])


def test_report_roundtrip_and_hash(tmp_path):
    report = ExperimentReport("demo", {"h": [0.5, 0.25], "seed": 3})
    report.add_row(h=0.5, value=np.float64(1.25))
    report.add_row(h=0.25, value=2.5)
    report.fit("best", FittedConstant(2.5, n=2, r_squared=0.99))
    j1, c1, m1 = report.write(tmp_path)
    data = json.loads(j1.read_text())
    assert data["schema"] == "carlat-report/1"
    assert data["rows"][0]["value"] == 1.25
    assert data["fitted"]["best"]["r_squared"] == 0.99
    # identical content => identical files regardless of when it is written
    again = ExperimentReport("demo", {"h": [0.5, 0.25], "seed": 3})
    again.add_row(h=0.5, value=1.25)
    again.add_row(h=0.25, value=2.5)
    again.fit("best", FittedConstant(2.5, n=2, r_squared=0.99))
    j2, c2, m2 = again.write(tmp_path / "other")
    assert j1.read_bytes() == j2.read_bytes()
    assert c1.read_bytes() == c2.read_bytes()
    assert report.config_hash == again.config_hash


def test_csv_requires_uniform_columns():
    report = ExperimentReport("demo", {})
    report.add_row(a=1)
    report.add_row(b=2)
    with pytest.raises(ValueError, match="columns"):
        report.csv_text()


def test_csv_cells():
    report = ExperimentReport("demo", {})
    report.add_row(x=0.1, flag=True, label="run", missing=None)
    assert report.csv_text().splitlines()[1] == "0.1,true,run,"


def test_numpy_bool_is_a_json_bool(tmp_path):
    report = ExperimentReport("demo", {"flag": np.bool_(True)})
    report.add_row(ok=np.bool_(False), n=np.int64(3))
    json_path, csv_path, _ = report.write(tmp_path)
    data = json.loads(json_path.read_text())
    assert data["config"]["flag"] is True
    assert data["rows"][0]["ok"] is False
    assert csv_path.read_text().splitlines() == ["ok,n", "false,3"]


def test_numpy_nan_follows_the_python_nan_rule(tmp_path):
    numpy_nan = ExperimentReport("demo", {"x": np.float64("nan"), "y": np.float32("-inf")})
    python_nan = ExperimentReport("demo", {"x": math.nan, "y": -math.inf})
    numpy_nan.add_row(v=np.float64("nan"))
    python_nan.add_row(v=math.nan)
    assert numpy_nan.config_hash == python_nan.config_hash
    j1, c1, _ = numpy_nan.write(tmp_path / "np")
    j2, c2, _ = python_nan.write(tmp_path / "py")
    assert j1.read_bytes() == j2.read_bytes()
    assert c1.read_bytes() == c2.read_bytes()
    data = json.loads(j1.read_text())
    assert data["config"] == {"x": "nan", "y": "-inf"}
    assert data["rows"] == [{"v": "nan"}]


def test_meta_stays_out_of_the_data_files(tmp_path):
    report = ExperimentReport("demo", {"seed": 3})
    report.add_row(x=1.5)
    plain_json, plain_csv, _ = report.write(tmp_path / "plain")
    report.meta["grid_csv"] = {"rows": np.int64(4), "write_s": 0.25}
    json_path, csv_path, meta_path = report.write(tmp_path / "meta")
    assert json_path.name == plain_json.name
    assert json_path.read_bytes() == plain_json.read_bytes()
    assert csv_path.read_bytes() == plain_csv.read_bytes()
    assert json.loads(meta_path.read_text())["grid_csv"] == {"rows": 4, "write_s": 0.25}


# axis values a formatter could get wrong: signed zeros, nan, infinities, subnormals
SPECIAL = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -2.5e-320,
           2.2250738585072014e-308, 0.1, -1e300]
MESH_EXTENT = {1: 3 * CSV_BLOCK_ROWS, 2: 64, 3: 16}


def _mesh_case(shape, pool, seed, plain):
    """Mesh axes drawn from `pool`, with a plain column before each index in `plain`."""
    rng = np.random.default_rng(seed)
    axes = [np.array(pool)[rng.integers(len(pool), size=n)] for n in shape]
    # half the axes as Python lists, half as arrays
    columns = [MeshAxis(a if k % 2 else a.tolist(), shape, k) for k, a in enumerate(axes)]
    expected = [m.ravel().tolist() for m in np.meshgrid(*axes, indexing="ij")]
    nrows = math.prod(shape)
    for i, at in enumerate(sorted(plain, reverse=True)):
        values = rng.standard_normal(nrows) * np.exp2(rng.integers(-1074, 1000, nrows))
        values[rng.integers(nrows, size=3)] = rng.choice(pool, size=3)
        columns.insert(at, values if i % 2 else values.tolist())
        expected.insert(at, values.tolist())
    return columns, expected


@settings(max_examples=60, deadline=None)
@given(shape=st.integers(1, 3).flatmap(
           lambda d: st.tuples(*[st.integers(1, MESH_EXTENT[d])] * d)),
       pool=st.lists(st.one_of(st.sampled_from(SPECIAL), st.floats()), min_size=1, max_size=8),
       seed=st.integers(0, 2 ** 32 - 1),
       plain=st.lists(st.integers(0, 3), max_size=3))
@example(shape=(CSV_BLOCK_ROWS + 1,), pool=SPECIAL, seed=0, plain=[0, 1])
@example(shape=(2 * CSV_BLOCK_ROWS + 7,), pool=SPECIAL, seed=1, plain=[])
@example(shape=(3, 700), pool=SPECIAL, seed=2, plain=[2])
@example(shape=(11, 13, 9), pool=SPECIAL, seed=3, plain=[0, 3])
def test_mesh_axis_columns_match_the_materialized_mesh(shape, pool, seed, plain):
    columns, expected = _mesh_case(shape, pool, seed, [min(at, len(shape)) for at in plain])
    header = [f"c{k}" for k in range(len(columns))]
    text = "".join(csv_blocks(header, columns))
    rows = [",".join(map(repr, row)) for row in zip(*expected)]
    assert text == ",".join(header) + "\n" + "\n".join(rows) + "\n"


def test_mesh_axis_length_must_match_the_shape():
    with pytest.raises(ValueError, match="axis 1 has 3 values"):
        MeshAxis([0.0, 1.0, 2.0], (3, 4), 1)
