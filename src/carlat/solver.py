"""Discrete Dirichlet problems and closed-form harmonic inputs.

Solutions of P_h u = 0 on a ball are produced by assembling the stencil into
a sparse matrix over the interior sites and factorizing it directly (SuperLU
through scipy).  P_h's stencil is structurally symmetric (B only weights the
forward differences), so the columns are ordered by minimum degree on A + A^T
with diagonal pivots preferred: about half the L+U fill of SuperLU's default
COLAMD ordering.  Threshold pivoting stays on for the non-symmetric B != 0
case, and one step of iterative refinement brings the residual back below
that of the default ordering.  Direct factorization keeps runs deterministic
and leaves a residual certificate.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import splu

from .lattice import (
    AnnularRegion,
    BallRegion,
    FieldData,
    LatticeFunction,
    LatticeSpec,
    dilate,
    schrodinger_apply,
    schrodinger_stencil,
    shift_values,
    stencil_matrix,
)


# d >= 3 LU fill grows about as unknowns^1.6.  On B_4 with deg3 data (2-core
# VM, one BLAS thread): 57,747 unknowns (h = 1/6) factor in 17-18 s with
# 44.5M L+U nonzeros, and 137k (h = 1/8) did not finish in 120 s
LU_MAX_UNKNOWNS_3D = 60_000


class SolverError(RuntimeError):
    """Raised when a solve fails or misses its residual target."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True, eq=False)
class DirichletProblem:
    """Interior/boundary masks, boundary values, and coefficient fields."""

    spec: LatticeSpec
    interior: np.ndarray
    boundary: np.ndarray
    boundary_values: np.ndarray
    fields: FieldData | None = None

    def __post_init__(self):
        for name in ("interior", "boundary"):
            arr = getattr(self, name)
            if arr.shape != self.spec.shape or arr.dtype != bool:
                raise ValueError(f"{name} mask must be a boolean array on the box")
        if (self.interior & self.boundary).any():
            raise ValueError("interior and boundary masks overlap")
        if not np.all(np.isfinite(self.boundary_values[self.boundary])):
            raise ValueError("boundary data must be finite")
        # every stencil neighbor of an interior site must carry a value
        known = self.interior | self.boundary
        for off in schrodinger_stencil(self.spec, None)[0]:
            if (self.interior & ~shift_values(known, off)).any():
                raise ValueError("interior site with an uncovered stencil neighbor")

    @classmethod
    def on_ball(cls, spec: LatticeSpec, radius: float, data: LatticeFunction,
                fields: FieldData | None = None) -> "DirichletProblem":
        """Interior = ball sites; boundary = their out-of-ball stencil neighbors.

        The boundary values are those of ``data``, a function on the same box.
        """
        interior = BallRegion.origin(spec.d, radius).mask(spec)
        boundary = dilate(interior) & ~interior
        if data.spec != spec:
            raise ValueError("boundary data lattice spec mismatch")
        g = np.zeros(spec.shape)
        g[boundary] = data.values[boundary]
        return cls(spec, interior, boundary, g, fields)


def dirichlet_solve(p: DirichletProblem, tol: float = 1e-10,
                    lu_stats: dict | None = None) -> LatticeFunction:
    """Solve P_h u = 0 inside, u = boundary data on the boundary ring.

    The system is solved by direct sparse LU, ordered by minimum degree on
    A + A^T (``MMD_AT_PLUS_A`` in SuperLU's symmetric mode), followed by one
    step of iterative refinement x += LU^-1 (b - A x).  The result carries
    the boundary data exactly and zero outside interior and boundary; a
    residual above tol * max(1, sup|g|) raises SolverError with the
    residual attached.  A ``lu_stats`` dict receives the factorization's
    h, unknowns, L+U nonzeros (fill_nnz), factor time in seconds and the
    residual.  For d >= 3 more than ``LU_MAX_UNKNOWNS_3D`` unknowns raise
    SolverError before anything is assembled.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    spec = p.spec
    inside = np.flatnonzero(p.interior)
    n = inside.size
    if n == 0:
        raise SolverError("empty interior")
    if spec.d >= 3 and n > LU_MAX_UNKNOWNS_3D:
        raise SolverError(f"{n} interior unknowns exceed the d >= 3 direct-solve limit "
                          f"of {LU_MAX_UNKNOWNS_3D}")
    # P_h's interior rows: their boundary columns times the data go to the
    # right side; the box rows are dropped before the factorization
    rows = stencil_matrix(spec, *schrodinger_stencil(spec, p.fields))[inside]
    rhs = rows @ np.where(p.boundary, -p.boundary_values, 0.0).ravel()
    mat = rows.tocsc()[:, inside]
    del rows
    try:
        start = time.perf_counter()
        lu = splu(mat, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})
        factor_s = time.perf_counter() - start
        x = lu.solve(rhs)
        x += lu.solve(rhs - mat @ x)
    except RuntimeError as exc:  # singular factorization
        raise SolverError(f"sparse factorization failed: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise SolverError("solver produced non-finite values")

    out = np.zeros(spec.shape)
    out[p.interior] = x
    out[p.boundary] = p.boundary_values[p.boundary]
    u = LatticeFunction(spec, out)
    res = residual(p, u)
    if lu_stats is not None:
        lu_stats.update(h=spec.h, residual=res, unknowns=n, fill_nnz=int(lu.nnz),
                        factor_s=factor_s)
    scale = max(1.0, float(np.abs(p.boundary_values[p.boundary]).max(initial=0.0)))
    if res > tol * scale:
        raise SolverError(
            f"residual {res:.3e} exceeds tolerance {tol * scale:.3e}", residual=res)
    return u


def residual(p: DirichletProblem, u: LatticeFunction) -> float:
    """sup norm of P_h u over the interior sites; u lives on the problem box."""
    return float(np.abs(schrodinger_apply(u, p.fields).values[p.interior]).max())


HARMONIC_KINDS = ("const", "linear_j", "mixed_jk", "diff_squares", "deg3")
BALL_RADIUS = 4.0


def ball_input(d: int, h: float, kind: str, fields=None, tol: float = 1e-10):
    """An input u on the box of B_4, and its facts for the report's sidecar.

    ``kind`` names a harmonic polynomial or is ``"solve"``: the Dirichlet
    solution on B_4 with deg3 data (linear_j for d = 1) and residual target
    ``tol``.  ``fields``, a function from the box to its FieldData, puts V
    and B into P_h.  Every kind is measured on the same B_4 problem: the
    facts are ``h`` and ``residual``, the sup of P_h u inside B_4, and a
    solve adds its LU facts as ``dirichlet_solve`` records them.
    """
    spec = LatticeSpec.ball_box(d, h, BALL_RADIUS, pad_sites=2)
    poly = ("deg3" if d >= 2 else "linear_j") if kind == "solve" else kind
    data = harmonic_polynomial(spec, poly)
    problem = DirichletProblem.on_ball(spec, BALL_RADIUS, data,
                                       None if fields is None else fields(spec))
    if kind != "solve":
        return data, {"h": h, "residual": residual(problem, data)}
    facts = {}
    return dirichlet_solve(problem, tol=tol, lu_stats=facts), facts


def harmonic_polynomial(spec: LatticeSpec, kind: str) -> LatticeFunction:
    """Exactly discrete-harmonic polynomial samples on the box.

    const: 1; linear_j: x_1; mixed_jk: x_1 x_2;
    diff_squares: x_1^2 - x_2^2; deg3: x_1^3 - 3 x_1 x_2^2.
    Each one satisfies Lap f = 0 identically (the h^2 terms cancel).
    """
    if kind not in HARMONIC_KINDS:
        raise ValueError(f"unknown harmonic polynomial kind {kind!r}")
    x = spec.coords()
    if kind == "const":
        return LatticeFunction(spec, np.ones(spec.shape))
    if kind == "linear_j":
        return LatticeFunction(spec, x[0].copy())
    if spec.d < 2:
        raise ValueError(f"kind {kind!r} needs dimension >= 2")
    if kind == "mixed_jk":
        return LatticeFunction(spec, x[0] * x[1])
    if kind == "diff_squares":
        return LatticeFunction(spec, x[0] ** 2 - x[1] ** 2)
    return LatticeFunction(spec, x[0] ** 3 - 3.0 * x[0] * x[1] ** 2)


def _smoothstep(t):
    t = np.clip(t, 0.0, 1.0)
    return t ** 3 * (10.0 + t * (-15.0 + 6.0 * t))


@functools.lru_cache(maxsize=8)
def _bump_window(spec: LatticeSpec, region: AnnularRegion, a: float, b: float,
                 ramp: float) -> np.ndarray:
    """Read-only smoothstep window of ``random_bump``; it does not depend on the seed."""
    rel = spec.coords() - np.asarray(region.outer.center).reshape((-1,) + (1,) * spec.d)
    r = np.sqrt((rel ** 2).sum(axis=0))
    window = _smoothstep((r - a) / ramp) * _smoothstep((b - r) / ramp)
    window.flags.writeable = False
    return window


def _plane_wave_sum(spec: LatticeSpec, amps, freqs, phases) -> np.ndarray:
    """sum_m amps[m] cos(freqs[m] . x + phases[m]) on the box, axis by axis.

    Each mode is Re(amps[m] e^{i phases[m]} prod_j e^{i freqs[m, j] x_j}):
    outer products of per-axis factors build the leading axes, and one real
    matmul contracts the modes against the last axis.
    """
    x = [spec.h * np.arange(lo, hi + 1) for lo, hi in zip(spec.lo, spec.hi)]
    lead = (amps * np.exp(1j * phases))[:, None]
    for f, xa in zip(freqs.T[:-1], x[:-1]):
        factor = np.exp(1j * np.outer(f, xa))
        lead = (lead[:, :, None] * factor[:, None, :]).reshape(len(amps), -1)
    last = np.exp(1j * np.outer(freqs[:, -1], x[-1]))
    # Re(lead^T last) = Re lead^T Re last - Im lead^T Im last, as one real product
    wave = np.hstack([lead.real.T, -lead.imag.T]) @ np.vstack([last.real, last.imag])
    return wave.reshape(spec.shape)


def random_bump(spec: LatticeSpec, region: AnnularRegion, seed: int) -> LatticeFunction:
    """Seeded smooth bump supported strictly inside the annulus.

    The profile vanishes within max(2h, 0.05) of the annulus boundary, so
    second differences of the result stay supported in the annulus.  The
    random part is a fixed small sum of plane waves whose parameters depend
    only on the seed, not on h: refining the lattice samples the same
    underlying function, which keeps h-sweeps comparable.
    """
    if region.width < 6 * spec.h:
        raise ValueError("region too thin (< 6h)")
    margin = max(2 * spec.h, 0.05)
    a = region.inner.radius + margin
    b = region.outer.radius - margin
    if not a < b:
        raise ValueError("region too thin (< 6h)")
    ramp = min(0.25 * (b - a), 0.2)

    rng = np.random.default_rng(seed)
    modes = 6
    amps = rng.standard_normal(modes)
    freqs = rng.uniform(-1.0, 1.0, size=(modes, spec.d)) * (2 * np.pi / region.width)
    phases = rng.uniform(0.0, 2 * np.pi, size=modes)

    wave = _plane_wave_sum(spec, amps, freqs, phases)
    # exp keeps the modulation strictly positive: the support is exactly
    # the window's, which site-counting tests rely on
    field = np.exp(wave / np.sqrt(modes))
    return LatticeFunction(spec, _bump_window(spec, region, a, b, ramp) * field)
