"""The benchmark tracer's call sites still exist in carlat.

``perfbench/tracing.py`` wraps carlat functions at the module, class or dict
attribute their callers look up.  A wrapper around a name that a refactor has
moved or renamed would fail to install, and one around a name nobody calls
any more would leave its per-layer metrics at zero without an error.  These
tests read ``perfbench/`` without changing it.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

from carlat import conjugate, solver  # noqa: E402
from carlat.lattice import LatticeSpec  # noqa: E402


def _lookup(owner, attr):
    """The attribute the tracer replaces, looked up the way it does."""
    if isinstance(owner, dict):
        return owner.get(attr)
    if isinstance(owner, type):
        return owner.__dict__.get(attr)
    return getattr(owner, attr, None)


def test_every_traced_attribute_exists():
    targets = [(owner, attr) for owner, attr, _, _ in tracing._targets()]
    targets.append((conjugate.ConjugationContext, "_table"))
    missing = [f"{getattr(owner, '__name__', 'dict')}.{attr}" for owner, attr in targets
               if _lookup(owner, attr) is None]
    assert missing == []


def test_sweep_spans_are_recorded(tmp_path):
    wl = workloads.WORKLOADS["carleman_sweep"](0, "smoke", tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        report = wl.run()
        tracer.enabled = False
    finally:
        tracer.uninstall()
    assert wl.check(report) == []
    m = tracer.summary(wall=0.0)
    bumps = len(wl.cfg.h_grid) * wl.cfg.n_samples
    assert m["solver.random_bump.calls"] == bumps
    assert m["conjugate.carleman_ratio.calls"] == bumps
    # radii and region masks are summed axis by axis: the sweep builds no
    # coordinate mesh (the ball inputs still do, see below)
    assert m["lattice.coords.calls"] == 0
    assert "lattice.annulus_mask" in tracer.names
    assert m["solver.random_bump.busy_s"] > 0
    # carleman_ratio's slabs go through the operators the tracer wraps in
    # conjugate, and those through the constant kernel it wraps in lattice
    for name in ("lattice.sym_diff_sum", "lattice.laplacian", "kernels.stencil_const"):
        assert name in tracer.names


def test_coords_spans_are_recorded_by_the_ball_inputs():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        solver.harmonic_polynomial(LatticeSpec(2, 1 / 8, (-4, -4), (4, 4)), "deg3")
        tracer.enabled = False
    finally:
        tracer.uninstall()
    assert tracer.summary(wall=0.0)["lattice.coords.calls"] == 1
