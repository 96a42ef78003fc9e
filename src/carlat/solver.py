"""Discrete Dirichlet problems and closed-form harmonic inputs.

Solutions of P_h u = 0 on a ball are produced by assembling the stencil into
a sparse matrix over the interior sites and solving it, by one of two paths
chosen from the problem itself.

Without fields, -P_h = -Lap/h^2 is symmetric positive definite, and the
system is solved by conjugate gradients preconditioned with one multigrid
V-cycle: geometric coarsening onto the sites with even indices (the
sublattice of ``lattice.coarsen(., 2)``), linear interpolation, Galerkin
coarse operators and damped Jacobi smoothing, with the coarsest level
factored directly.  The iteration count does not grow as h shrinks, so
d = 3 solves run past the direct solver's limit.

With fields, B != 0 makes P_h non-symmetric and V can make it indefinite,
so the system is factorized directly (SuperLU through scipy).  P_h's stencil
is structurally symmetric (B only weights the forward differences), so the
columns are ordered by minimum degree on A + A^T with diagonal pivots
preferred: about half the L+U fill of SuperLU's default COLAMD ordering.
Threshold pivoting stays on for the non-symmetric case, and one step of
iterative refinement brings the residual back below that of the default
ordering.

Both paths are deterministic and pass the same certificate: sup|P_h u|
over the interior is held against the float64 floor of evaluating P_h u,
eps * ||P_h||_inf * sup|u|, so no residual tolerance is set anywhere.

Both paths use ``scipy.sparse``, and nothing else in carlat does, so SciPy
is not loaded when this module is imported: ``_stencil_rows``, the one
writer of sparse matrices, and ``splu``, the one factorization, load it at
their first call.  A run that solves nothing never pays its import.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from ._kernels import flat_steps
from .lattice import (
    BallRegion,
    FieldData,
    LatticeFunction,
    LatticeSpec,
    dilate,
    schrodinger_apply,
    schrodinger_stencil,
    shift_values,
    stencil_offsets,
)


# d >= 3 LU fill grows about as unknowns^1.6.  On B_4 with deg3 data (2-core
# VM, one BLAS thread): 57,747 unknowns (h = 1/6) factor in 17-18 s with
# 44.5M L+U nonzeros, and 137k (h = 1/8) did not finish in 120 s.  Only
# solves with fields take the LU path
LU_MAX_UNKNOWNS_3D = 60_000

# SuperLU's column ordering for P_h's structurally symmetric matrices
LU_ORDERING = {"permc_spec": "MMD_AT_PLUS_A", "options": {"SymmetricMode": True}}

# The solve certificate admits sup|P_h u| up to FLOOR_MULTIPLE rounding
# floors eps * ||P_h||_inf * sup|u|; the multigrid PCG stops at a tenth of
# that (notes/decisions.md, "The solve certificate")
FLOOR_MULTIPLE = 64.0


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
        for name, kind in (("interior", "boolean"), ("boundary", "boolean"),
                           ("boundary_values", "real")):
            arr = getattr(self, name)
            if not (isinstance(arr, np.ndarray) and arr.shape == self.spec.shape
                    and arr.dtype.kind in {"boolean": "b", "real": "iuf"}[kind]):
                raise ValueError(f"{name} must be a {kind} array on the box")
        if (self.interior & self.boundary).any():
            raise ValueError("interior and boundary masks overlap")
        if not np.all(np.isfinite(self.boundary_values[self.boundary])):
            raise ValueError("boundary data must be finite")
        # every stencil neighbor of an interior site must carry a value; the
        # centre is the site itself, in ``known`` by construction
        known = self.interior | self.boundary
        for off in stencil_offsets(self.spec.d)[:-1]:
            if (self.interior & ~shift_values(known, off)).any():
                raise ValueError("interior site with an uncovered stencil neighbor")

    @classmethod
    def on_ball(cls, spec: LatticeSpec, radius: float, data: LatticeFunction,
                fields: FieldData | None = None) -> "DirichletProblem":
        """Interior = ball sites; boundary = their out-of-ball stencil neighbors.

        The boundary values are those of ``data``, a function on the same box.
        """
        interior = BallRegion(radius).mask(spec)
        boundary = dilate(interior) & ~interior
        if data.spec != spec:
            raise ValueError("boundary data lattice spec mismatch")
        return cls(spec, interior, boundary, np.where(boundary, data.values, 0.0), fields)


def dirichlet_solve(p: DirichletProblem, stats: dict | None = None) -> LatticeFunction:
    """Solve P_h u = 0 inside, u = boundary data on the boundary ring.

    Without fields, -P_h = -Lap/h^2 is symmetric positive definite and the
    system is solved by conjugate gradients preconditioned with one
    multigrid V-cycle (``_hierarchy``), until sup|b - A x| is below a tenth
    of the certificate bound or stops decreasing.  With fields it is solved
    by direct sparse LU, ordered by minimum degree on A + A^T
    (``MMD_AT_PLUS_A`` in SuperLU's symmetric mode), followed by one step of
    iterative refinement x += LU^-1 (b - A x).  The result carries the
    boundary data exactly and zero outside interior and boundary; a residual
    above the certificate bound FLOOR_MULTIPLE * ``rounding_floor(p, u)``
    raises SolverError with the residual attached.  A ``stats`` dict
    receives h, the unknowns, the residual and that ``residual_bound``, and
    for a multigrid solve the coarse ``levels``, the PCG ``iterations`` and
    ``solve_s`` (seconds building the levels and iterating), for an LU solve
    the L+U nonzeros ``fill_nnz`` and ``factor_s``.  For d >= 3 an LU solve
    of more than ``LU_MAX_UNKNOWNS_3D`` unknowns raises SolverError before
    anything is assembled.
    """
    spec = p.spec
    n = int(np.count_nonzero(p.interior))
    if n == 0:
        raise SolverError("empty interior")
    if p.fields is not None and spec.d >= 3 and n > LU_MAX_UNKNOWNS_3D:
        raise SolverError(f"{n} interior unknowns exceed the d >= 3 direct-solve limit "
                          f"of {LU_MAX_UNKNOWNS_3D}")
    # -P_h's interior rows: their boundary columns times the data go to the
    # right side, and the interior columns are the system both paths solve
    rows = _interior_rows(p)
    rhs = rows @ np.where(p.boundary, -p.boundary_values, 0.0).ravel()
    mat = rows[:, p.interior.ravel()]
    del rows
    if p.fields is None:
        # the discrete maximum principle: sup|u| = sup|g| without fields
        sup_g = float(np.abs(p.boundary_values[p.boundary]).max(initial=0.0))
        x, facts = _multigrid_solve(p.interior, spec.lo, mat, rhs,
                                    0.1 * FLOOR_MULTIPLE * _floor(p, sup_g))
    else:
        x, facts = _lu_solve(mat.tocsc(), rhs)
    if not np.all(np.isfinite(x)):
        raise SolverError("solver produced non-finite values")

    out = np.zeros(spec.shape)
    out[p.interior] = x
    out[p.boundary] = p.boundary_values[p.boundary]
    u = LatticeFunction(spec, out)
    res, floor = residual(p, u), rounding_floor(p, u)
    bound = FLOOR_MULTIPLE * floor
    if stats is not None:
        stats.update(h=spec.h, residual=res, residual_bound=bound, unknowns=n, **facts)
    if res > bound:
        raise SolverError(
            f"residual {res:.3e} exceeds the certificate bound {bound:.3e}: it is "
            f"{res / floor:.3g} rounding floors eps * ||P_h||_inf * sup|u| = {floor:.3e}, "
            f"{FLOOR_MULTIPLE:g} are admitted", residual=res)
    return u


def _interior_rows(p: DirichletProblem) -> "sparse.csr_matrix":
    """-P_h's rows at the interior sites, over the box's C-ordered sites; the
    coverage check keeps each row's 2d+1 columns in the box."""
    offsets, coeffs = schrodinger_stencil(p.spec, p.fields)
    return _stencil_rows(p.interior, offsets, [-c[p.interior] for c in coeffs])


def _stencil_rows(mask, offsets, data) -> "sparse.csr_matrix":
    """The rows at the sites of ``mask``, over its box's C-ordered sites, of
    the stencil with data[k] (one per row, or one number) at offsets[k].
    Every neighbour lies in the box, so an offset is one fixed step of the
    flat index; sorted steps give a canonical CSR's order."""
    from scipy import sparse

    steps = np.array(flat_steps(mask.shape, offsets.tolist()))
    order = np.argsort(steps)
    sites = np.flatnonzero(mask)
    data = np.stack([np.broadcast_to(data[k], sites.shape) for k in order], axis=1)
    indices = sites[:, None] + steps[order]
    return sparse.csr_matrix(
        (data.ravel(), indices.ravel(), np.arange(0, data.size + 1, len(order))),
        shape=(len(sites), mask.size))


def splu(a, **options):
    """SciPy's sparse LU of ``a``; SciPy is loaded at the first call.  The
    solves look this name up when they factor, so it can be wrapped."""
    from scipy.sparse.linalg import splu

    return splu(a, **options)


def _lu_solve(mat, rhs):
    """x with mat x = rhs by one LU and one refinement step, and the LU facts."""
    try:
        start = time.perf_counter()
        lu = splu(mat, **LU_ORDERING)
        factor_s = time.perf_counter() - start
        x = lu.solve(rhs)
        x += lu.solve(rhs - mat @ x)
    except RuntimeError as exc:  # singular factorization
        raise SolverError(f"sparse factorization failed: {exc}") from exc
    return x, {"fill_nnz": int(lu.nnz), "factor_s": factor_s}


# The multigrid of field-free solves.  Levels are coarsened until at most
# COARSEST_UNKNOWNS remain, which one LU solves; each level above is smoothed
# by JACOBI_SWEEPS damped Jacobi sweeps before and after its coarse correction
COARSEST_UNKNOWNS = 4000
JACOBI_OMEGA = 0.8
JACOBI_SWEEPS = 2


def _multigrid_solve(mask, lo, a, b, target):
    """x with sup|b - a x| <= target, by CG on the symmetric positive definite
    ``a`` preconditioned with one V-cycle, and the multigrid facts.

    ``a``'s rows are the sites of ``mask``, a box with lower corner ``lo``, in
    C order.  The iteration also stops, keeping its best x, once the true
    residual's sup stops decreasing: the rounding floor is reached.
    """
    start = time.perf_counter()
    levels, coarsest = _hierarchy(mask, lo, a)
    x = np.zeros_like(b)
    r = b.copy()
    best = float(np.abs(r).max())
    z = _vcycle(levels, coarsest, r)
    direction = z
    rz = r @ z
    iterations = 0
    while best > target:
        x_new = x + (rz / (direction @ (a @ direction))) * direction
        r = b - a @ x_new
        iterations += 1
        sup = float(np.abs(r).max())
        if not sup < best:
            break
        x, best = x_new, sup
        z = _vcycle(levels, coarsest, r)
        rz, rz_old = r @ z, rz
        direction = z + (rz / rz_old) * direction
    return x, {"levels": len(levels), "iterations": iterations,
               "solve_s": time.perf_counter() - start}


def _hierarchy(mask, lo, a):
    """The multigrid levels of ``a`` on the unknowns ``mask`` of a box with
    lower corner ``lo``: (a, restriction, omega/diag a) for each level that
    is coarsened, finest first, and the coarsest level's LU.

    The coarse unknowns are the sites whose indices are all even, the
    sublattice ``lattice.coarsen(., 2)`` keeps, on the box whose corner is
    the even corner halved.  The prolongation P interpolates tensor-product
    linearly: the coarse site at fine offset o in {-1, 0, 1}^d has weight
    prod_j (1 - |o_j|/2).  The coarse operator is the Galerkin product
    R a R^T with R = P^T, so every level stays symmetric positive definite.
    """
    levels = []
    while a.shape[0] > COARSEST_UNKNOWNS:
        start = [-l % 2 for l in lo]
        coarse = mask[tuple(slice(s, None, 2) for s in start)]
        if not coarse.any():
            break
        r = _restriction(mask, start, coarse)
        levels.append((a, r, JACOBI_OMEGA / a.diagonal()))
        mask, lo, a = coarse, [(l + s) // 2 for l, s in zip(lo, start)], r @ a @ r.T
    return levels, splu(a.tocsc(), **LU_ORDERING)


def _restriction(fine, start, coarse):
    """R = P^T, the transpose of linear interpolation from the ``coarse``
    unknowns, fine[start::2], to the ``fine`` ones, as CSR rows on the fine box
    padded by one site: coarse unknown j sits at 2j + start + 1 there (``at``),
    and keeping the columns of fine unknowns drops the neighbours that are not."""
    at = np.zeros(np.add(fine.shape, 2), dtype=bool)
    at[tuple(slice(s + 1, s + 1 + 2 * n, 2) for s, n in zip(start, coarse.shape))] = coarse
    offsets = np.array(list(itertools.product((-1, 0, 1), repeat=fine.ndim)))
    rows = _stencil_rows(at, offsets, np.prod(1 - np.abs(offsets) / 2, axis=1))
    return rows[:, np.pad(fine, 1).ravel()]


def _vcycle(levels, coarsest, b, k=0):
    """One symmetric V-cycle for levels[k]'s matrix and right side b, from zero.

    A module function over the level list, not a closure: a recursive closure
    would form a reference cycle that keeps every level's matrices alive
    until the cyclic garbage collector runs.
    """
    if k == len(levels):
        return coarsest.solve(b)
    a, r, smooth = levels[k]
    x = smooth * b
    for _ in range(JACOBI_SWEEPS - 1):
        x += smooth * (b - a @ x)
    x += r.T @ _vcycle(levels, coarsest, r @ (b - a @ x), k + 1)
    for _ in range(JACOBI_SWEEPS):
        x += smooth * (b - a @ x)
    return x


def residual(p: DirichletProblem, u: LatticeFunction) -> float:
    """sup norm of P_h u over the interior sites; u lives on the problem box."""
    return float(np.abs(schrodinger_apply(u, p.fields).values[p.interior]).max())


def rounding_floor(p: DirichletProblem, u: LatticeFunction) -> float:
    """eps * ||P_h||_inf * sup|u|, the float64 error of evaluating P_h u,
    with sup|u| over the interior and boundary sites that P_h reads."""
    return _floor(p, float(np.abs(u.values[p.interior | p.boundary]).max()))


def _floor(p: DirichletProblem, sup_u: float) -> float:
    """eps * ||P_h||_inf * sup_u, with ||P_h||_inf the largest interior row
    sum of |stencil coefficients|."""
    norm = sum(np.abs(c[p.interior]) for c in schrodinger_stencil(p.spec, p.fields)[1]).max()
    return float(np.finfo(float).eps) * float(norm) * sup_u


HARMONIC_KINDS = ("const", "linear_j", "mixed_jk", "diff_squares", "deg3")
BALL_RADIUS = 4.0


def ball_input(d: int, h: float, kind: str, fields=None):
    """An input u on the box of B_4, and its facts for the report's sidecar.

    ``kind`` names a harmonic polynomial or is ``"solve"``: the Dirichlet
    solution on B_4 with deg3 data (linear_j for d = 1).  ``fields``, a
    function from the box to its FieldData, puts V and B into P_h.  Every
    kind is measured on the same B_4 problem: the facts are ``h``,
    ``residual``, the sup of P_h u inside B_4, and ``residual_bound``, the
    certificate's bound on it, and a solve adds the facts of its path
    (multigrid, or LU with fields) as ``dirichlet_solve`` records them.
    """
    spec = LatticeSpec.ball_box(d, h, BALL_RADIUS, pad_sites=2)
    poly = ("deg3" if d >= 2 else "linear_j") if kind == "solve" else kind
    data = harmonic_polynomial(spec, poly)
    problem = DirichletProblem.on_ball(spec, BALL_RADIUS, data,
                                       None if fields is None else fields(spec))
    if kind != "solve":
        return data, {"h": h, "residual": residual(problem, data),
                      "residual_bound": FLOOR_MULTIPLE * rounding_floor(problem, data)}
    facts = {}
    return dirichlet_solve(problem, stats=facts), facts


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

