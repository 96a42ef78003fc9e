"""Report serialization and fitting helpers."""

import json
import math
import multiprocessing
import os
import signal
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carlat import reports
from conftest import output_under_two_blas_kernels, x86_64_only
from carlat.reports import (CSV_BLOCK_ROWS, ExperimentReport, FittedConstant, MeshAxis,
                            _csv_cell, csv_blocks, csv_workers, linear_fit)


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


def test_linear_fit_refuses_a_constant_x():
    with pytest.raises(ValueError, match="constant x"):
        linear_fit([2.0, 2.0, 2.0], [1.0, 2.0, 4.0])


def test_linear_fit_agrees_with_least_squares():
    rng = np.random.default_rng(2)
    for _ in range(300):
        k = int(rng.integers(3, 12))
        x = rng.uniform(1.0, 200.0, k)
        y = rng.standard_normal(k) - 0.3 * x
        a = np.stack([x, np.ones_like(x)], axis=1)
        (slope, intercept), *_ = np.linalg.lstsq(a, y, rcond=None)
        ss_res = float(((y - a @ [slope, intercept]) ** 2).sum())
        ss_tot = float(((y - y.mean()) ** 2).sum())
        got = linear_fit(x, y)
        assert got[0] == pytest.approx(slope, rel=1e-12)
        # the intercept is y's mean less slope times x's, compared on that scale
        assert abs(got[1] - intercept) <= 1e-12 * (abs(intercept) + abs(slope * x.mean()))
        assert got[2] == pytest.approx(1.0 - ss_res / ss_tot, abs=1e-12)
        assert got[3] == pytest.approx(math.sqrt(ss_res / k), rel=1e-12)


# Run in a fresh interpreter, so that OpenBLAS reads the core type when it loads
FIT_HASH = """
import hashlib
import numpy as np
from carlat.reports import linear_fit
rng = np.random.default_rng(0)
fits = []
for _ in range(300):
    k = int(rng.integers(3, 12))
    x = np.sort(rng.uniform(1.0, 200.0, k))
    fits.append(np.array(linear_fit(x, rng.standard_normal(k) - 0.3 * x)).tobytes())
print(hashlib.sha256(b"".join(fits)).hexdigest())
"""


@x86_64_only
def test_linear_fit_bits_do_not_depend_on_the_blas_kernel():
    """300 fits have the same bits under OpenBLAS's default kernel and its
    oldest x86-64 one."""
    runs = output_under_two_blas_kernels(FIT_HASH)
    assert runs[0] and runs[0] == runs[1]


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


# thresholds small enough that a table of a few hundred rows takes the forked
# path: blocks of 8 rows, chunks of 16, forked from 64 rows on, 3 CPUs
SMALL = {"CSV_BLOCK_ROWS": 8, "PARALLEL_CHUNK_ROWS": 16, "PARALLEL_MIN_ROWS": 64}


def _forking(monkeypatch, cpus=3):
    for name, value in SMALL.items():
        monkeypatch.setattr(reports, name, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def _both(header, columns, cell=repr):
    """(serial, forked) text of one table; the forked text from 3 workers."""
    serial = "".join(csv_blocks(header, columns, cell))
    with pytest.MonkeyPatch.context() as mp:
        _forking(mp)
        nrows = len(columns[0])
        assert csv_workers(nrows) == (1 if nrows < 64 else min(3, -(-nrows // 16)))
        forked = "".join(csv_blocks(header, columns, cell))
    return serial, forked


@pytest.fixture
def deadline():
    """Fail a test that runs for more than 60 s, where a pool would hang it."""
    def expire(signum, frame):
        raise TimeoutError("csv_blocks hung")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


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
    serial, forked = _both(header, columns)
    rows = [",".join(map(repr, row)) for row in zip(*expected)]
    assert serial == forked == ",".join(header) + "\n" + "\n".join(rows) + "\n"


def test_mesh_axis_length_must_match_the_shape():
    with pytest.raises(ValueError, match="axis 1 has 3 values"):
        MeshAxis([0.0, 1.0, 2.0], (3, 4), 1)


# at and around the forking threshold (64), chunk (16) and block (8) edges
@pytest.mark.parametrize("nrows", [63, 64, 65, 80, 81, 95, 96, 97, 11 * 16 + 1])
def test_forked_rows_match_the_serial_rows(nrows, deadline):
    rng = np.random.default_rng(nrows)
    floats = rng.standard_normal(nrows) * np.exp2(rng.integers(-1074, 1000, nrows))
    floats[rng.integers(nrows, size=len(SPECIAL))] = SPECIAL
    columns = [MeshAxis(np.array(SPECIAL)[rng.integers(len(SPECIAL), size=nrows)], (nrows,), 0),
               floats, floats.tolist(), list(range(-nrows, nrows, 2))]
    serial, forked = _both(["m", "a", "l", "i"], columns)
    assert forked == serial
    assert serial.count("\n") == 1 + nrows


@pytest.mark.parametrize("shape", [(9, 11), (4, 5, 6), (2, 100)])
def test_forked_mesh_axis_columns_match_the_serial_rows(shape, deadline):
    rng = np.random.default_rng(len(shape))
    columns = [MeshAxis(rng.choice(SPECIAL, n), shape, a) for a, n in enumerate(shape)]
    columns.insert(1, rng.standard_normal(math.prod(shape)))
    serial, forked = _both([f"c{k}" for k in range(len(columns))], columns)
    assert forked == serial


def test_forked_report_cells_match_the_serial_cells(deadline):
    values = [True, False, None, 0, -7, 2 ** 70, "label", -0.0, math.nan, math.inf, 5e-324]
    column = [values[k % len(values)] for k in range(150)]
    serial, forked = _both(["v", "w"], [column, column[::-1]], _csv_cell)
    assert forked == serial == "v,w\n" + "".join(
        f"{_csv_cell(v)},{_csv_cell(w)}\n" for v, w in zip(column, column[::-1]))


class Boom(Exception):
    pass


def test_a_cell_error_in_a_worker_reaches_the_caller(monkeypatch, deadline):
    _forking(monkeypatch)

    def cell(value):
        if value == 150:
            raise Boom(value)
        return repr(value)

    with pytest.raises(Boom):
        "".join(csv_blocks(["n"], [list(range(200))], cell))
    assert multiprocessing.active_children() == []


def test_closing_the_generator_stops_the_workers(monkeypatch, deadline):
    _forking(monkeypatch)
    blocks = csv_blocks(["n"], [np.arange(1000.0)])
    assert next(blocks) == "n\n"
    assert next(blocks) == "".join(f"{float(k)!r}\n" for k in range(16))
    assert len(multiprocessing.active_children()) == 3
    blocks.close()
    assert multiprocessing.active_children() == []


def test_one_cpu_formats_in_process(monkeypatch):
    _forking(monkeypatch, cpus=1)

    def no_pool(*args):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    values = np.linspace(0.0, 1.0, 500)
    assert csv_workers(values.size) == 1
    text = "".join(csv_blocks(["x"], [values]))
    assert text == "x\n" + "".join(f"{v!r}\n" for v in values.tolist())


def test_a_running_thread_keeps_the_formatting_in_process(monkeypatch):
    _forking(monkeypatch)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert csv_workers(500) == 1
    finally:
        release.set()
        thread.join()
    assert csv_workers(500) == 3


def test_csv_workers():
    assert csv_workers(reports.PARALLEL_MIN_ROWS - 1) == 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    assert csv_workers(reports.PARALLEL_MIN_ROWS) == min(
        cpus, reports.PARALLEL_MIN_ROWS // reports.PARALLEL_CHUNK_ROWS)
    assert csv_workers(10 ** 9) == cpus
