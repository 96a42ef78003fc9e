"""The conjugated Laplacian, its symmetric/antisymmetric split, and commutators.

Conjugating h^-2 Lap by e^phi gives L f = h^-2 e^phi Lap(e^-phi f) = (S + A) f
with, per direction j,

    S_j f(n) = h^-2 [cosh(Dp_j phi) f(n+e_j) + cosh(Dm_j phi) f(n-e_j) - 2 f(n)]
    A_j f(n) = h^-2 [sinh(Dm_j phi) f(n-e_j) - sinh(Dp_j phi) f(n+e_j)]

where Dp_j/Dm_j are the unscaled forward/backward differences and e_j stands
for the lattice step h e_j.  S is symmetric and A antisymmetric for the h^d
weighted inner product on compactly supported functions.  The commutator
h^4 [S_j, A_k] is a four point operator whose coefficients admit both a raw
(products of cosh/sinh at neighboring sites) and a simplified (single
sinh * cosh) evaluation; both are provided and must agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import apply_stencil_var
from .lattice import (
    AnnularRegion,
    LatticeFunction,
    LatticeSpec,
    laplacian,
    diff,
    dilate,
    inner_product,
    schrodinger_stencil,
    shift_values,
    sym_diff_sum,
    unit_offset,
)
from .weight import WeightParams, varphi

PHI_OVERFLOW_LIMIT = 700.0
# sites between an operand's support and the box edge or a singular site
SUPPORT_REACH = 2

# S, A and L weight P_h's coefficient at offset o by w(x) of the step
# x = phi(n + o) - phi(n), as e^phi(n) e^-phi(n + o) = e^-x; L goes through exp
_STEP_WEIGHTS = {"sym": np.cosh, "anti": lambda x: -np.sinh(x), "conj": lambda x: np.exp(-x)}


def carleman_annulus(d: int) -> AnnularRegion:
    """Where Carleman test functions live: 1/2 < |x| < 2."""
    return AnnularRegion.origin(d, 0.5, 2.0)


def carleman_box(d: int, h: float) -> LatticeSpec:
    """The box of the Carleman measurements: B_2 and four sites to spare."""
    return LatticeSpec.ball_box(d, h, 2.0, pad_sites=4)


def weight_table(spec: LatticeSpec, params: WeightParams):
    """Site table of phi = tau*varphi(|h n|); the origin site is masked."""
    r = spec.radii()
    singular = r == 0.0
    phi = np.zeros(spec.shape)
    phi[~singular] = params.tau * varphi(r[~singular], 0, params.c_ps)
    return phi, singular


@dataclass(frozen=True, eq=False)
class ConjugationContext:
    """Precomputed weight tables for one lattice box.

    ``phi`` is the full weight (tau included).  The tables "sym", "anti"
    and "conj" of S, A and L are ``schrodinger_stencil(spec, None)`` with
    weighted coefficients (``_STEP_WEIGHTS``).  Coefficient tables of the
    outermost site layer involve out-of-box neighbors and are not meaningful;
    operations therefore require the support of their argument to stay
    ``SUPPORT_REACH`` sites away from the box boundary and from singular sites.
    """

    spec: LatticeSpec
    params: WeightParams | None
    phi: np.ndarray
    singular: np.ndarray

    def __post_init__(self):
        if self.phi.shape != self.spec.shape:
            raise ValueError("phi table shape does not match the lattice box")
        peak = float(np.abs(self.phi).max())
        if peak >= PHI_OVERFLOW_LIMIT:
            raise ValueError(
                f"weight magnitude {peak:.1f} would overflow exp; lower tau")
        object.__setattr__(self, "_cache", {})

    @classmethod
    def from_weight(cls, spec: LatticeSpec, params: WeightParams) -> "ConjugationContext":
        phi, singular = weight_table(spec, params)
        return cls(spec, params, phi, singular)

    @classmethod
    def from_table(cls, spec: LatticeSpec, phi_values) -> "ConjugationContext":
        """Context with an arbitrary site-wise weight (no singular sites)."""
        phi = np.asarray(phi_values, dtype=np.float64)
        if not np.all(np.isfinite(phi)):
            raise ValueError("weight table must be finite")
        return cls(spec, None, phi, np.zeros(spec.shape, dtype=bool))

    # -- lazy table bundles -------------------------------------------------

    def build_tables(self, *names):
        """Fill the named tables now.  ``_cache`` is filled without a lock, so
        a context shared by threads must be built before they start."""
        for name in names:
            self._table(name)

    def _table(self, name):
        cache = self._cache
        if name in cache:
            return cache[name]
        if name == "exp":
            # e^phi, the weight of carleman_ratio's norms; 0 at singular sites
            val = np.exp(self.phi)
            val[self.singular] = 0.0
        elif name == "annulus":
            # the support region carleman_ratio accepts
            val = carleman_annulus(self.spec.d).mask(self.spec)
            val.flags.writeable = False
        elif name in _STEP_WEIGHTS:
            offsets, coeffs = schrodinger_stencil(self.spec, None)
            if name == "anti":  # A has no centre term, the stencil's last
                offsets, coeffs = offsets[:-1], coeffs[:-1]
            val = (offsets, [c * _STEP_WEIGHTS[name](shift_values(self.phi, off) - self.phi)
                             for off, c in zip(offsets, coeffs)])
        else:
            raise KeyError(name)
        cache[name] = val
        return val

    # -- support validation -------------------------------------------------

    def check_support(self, f: LatticeFunction):
        if f.spec != self.spec:
            raise ValueError("function and context lattice specs differ")
        nz = f.values != 0.0
        if not nz.any():
            return
        for a, size in enumerate(self.spec.shape):
            axis_any = np.moveaxis(nz, a, 0).reshape(size, -1).any(axis=1)
            hit = np.nonzero(axis_any)[0]
            if hit[0] < SUPPORT_REACH or hit[-1] > size - 1 - SUPPORT_REACH:
                raise ValueError(
                    "support too close to the box boundary "
                    f"(need a margin of {SUPPORT_REACH} sites)")
        if self.singular.any() and (dilate(nz, SUPPORT_REACH) & self.singular).any():
            raise ValueError("weight singularity: support touches the singular site")


def _apply(values: np.ndarray, ctx: ConjugationContext, table: str) -> np.ndarray:
    offsets, coeffs = ctx._table(table)
    return apply_stencil_var(values, offsets, coeffs)


def sym_apply(f: LatticeFunction, ctx: ConjugationContext) -> LatticeFunction:
    """Symmetric part S of the conjugated operator."""
    ctx.check_support(f)
    return f.with_values(_apply(f.values, ctx, "sym"))


def antisym_apply(f: LatticeFunction, ctx: ConjugationContext) -> LatticeFunction:
    """Antisymmetric part A of the conjugated operator."""
    ctx.check_support(f)
    return f.with_values(_apply(f.values, ctx, "anti"))


def conjugate_apply(f: LatticeFunction, ctx: ConjugationContext) -> LatticeFunction:
    """L f = h^-2 e^phi Lap(e^-phi f), evaluated with exp coefficients."""
    ctx.check_support(f)
    return f.with_values(_apply(f.values, ctx, "conj"))


def commutator_apply(f: LatticeFunction, ctx: ConjugationContext) -> LatticeFunction:
    """[S, A] f by operator composition.

    Valid on the support of f (the outermost box layer of the result may not
    be meaningful, which the inner product against f never sees).
    """
    ctx.check_support(f)
    sa = _apply(_apply(f.values, ctx, "anti"), ctx, "sym")
    as_ = _apply(_apply(f.values, ctx, "sym"), ctx, "anti")
    return f.with_values(sa - as_)


@dataclass(frozen=True, eq=False)
class CommutatorCoeffs:
    """Coefficients of the four point operator h^4 [S_j, A_k] at one site.

    Both arrays hold a, b, c, e, which multiply f at n+e_j+e_k, n-e_j-e_k,
    n+e_j-e_k, n-e_j+e_k.  The simplified values are canonical; the raw ones
    re-evaluate the defining cosh/sinh products for cross-checking.
    """

    simplified: np.ndarray
    raw: np.ndarray


def commutator_coeffs(n, j: int, k: int, ctx: ConjugationContext) -> CommutatorCoeffs:
    """Raw and simplified commutator coefficients at multi-index n."""
    spec = ctx.spec
    for jj in (j, k):
        if not 1 <= jj <= spec.d:
            raise ValueError("direction out of range")
    n = np.asarray(n, dtype=np.int64)
    if np.any(n - 2 < spec.lo) or np.any(n + 2 > spec.hi):
        raise ValueError("commutator stencil neighbors outside box")

    def phi_at(off):
        pos = tuple(int(c) for c in (n + off - np.asarray(spec.lo)))
        return float(ctx.phi[pos])

    ej = unit_offset(spec.d, j)
    ek = unit_offset(spec.d, k)

    def dp(base, e):
        return phi_at(base + e) - phi_at(base)

    def dm(base, e):
        return phi_at(base) - phi_at(base - e)

    z = np.zeros(spec.d, dtype=np.int64)
    raw_a = (-np.cosh(dp(z, ej)) * np.sinh(dp(ej, ek))
             + np.sinh(dp(z, ek)) * np.cosh(dp(ek, ej)))
    raw_b = (np.cosh(dm(z, ej)) * np.sinh(dm(-ej, ek))
             - np.sinh(dm(z, ek)) * np.cosh(dm(-ek, ej)))
    raw_c = (np.cosh(dp(z, ej)) * np.sinh(dm(ej, ek))
             - np.sinh(dm(z, ek)) * np.cosh(dp(-ek, ej)))
    raw_e = (-np.cosh(dm(z, ej)) * np.sinh(dp(-ej, ek))
             + np.sinh(dp(z, ek)) * np.cosh(dm(ek, ej)))

    # second mixed differences for the simplified forms
    dpp = dp(ej, ek) - dp(z, ek)
    dmm = dm(z, ek) - dm(-ej, ek)
    dpm = dm(ej, ek) - dm(z, ek)
    dmp = dp(z, ek) - dp(-ej, ek)
    a = -np.sinh(dpp) * np.cosh(dp(z, ej) - dp(z, ek))
    b = -np.sinh(dmm) * np.cosh(dm(z, ej) - dm(z, ek))
    c = np.sinh(dpm) * np.cosh(dp(z, ej) + dm(z, ek))
    e = np.sinh(dmp) * np.cosh(dm(z, ej) + dp(z, ek))
    return CommutatorCoeffs(np.array([a, b, c, e]), np.array([raw_a, raw_b, raw_c, raw_e]))


def commutator_form(f: LatticeFunction, ctx: ConjugationContext,
                    method: str = "expansion") -> float:
    """<f, [S,A] f> for the h^d weighted inner product.

    ``expansion`` assembles the quadratic form from the sinh/cosh coefficient
    tables directly; ``composition`` evaluates <f, S(Af) - A(Sf)>.  Both must
    agree on compactly supported f.
    """
    ctx.check_support(f)
    if method == "composition":
        return inner_product(f, commutator_apply(f, ctx))
    if method != "expansion":
        raise ValueError(f"unknown commutator form method {method!r}")

    spec = ctx.spec
    d = spec.d
    phi = ctx.phi
    v = f.values
    total = 0.0
    for j in range(1, d + 1):
        ej = unit_offset(d, j)
        fpj = shift_values(v, ej)
        fmj = shift_values(v, -ej)
        for k in range(1, d + 1):
            ek = unit_offset(d, k)
            fpk = shift_values(v, ek)
            fmk = shift_values(v, -ek)
            # second differences of phi with every sign combination
            ppk = shift_values(phi, ek) - phi
            pmk = phi - shift_values(phi, -ek)
            dpp = shift_values(ppk, ej) - ppk
            dmm = pmk - shift_values(pmk, -ej)
            dpm = shift_values(pmk, ej) - pmk
            dmp = ppk - shift_values(ppk, -ej)
            wpp = _on_support(fpj, fpk, dpp, shift_values(phi, ej + ek) - phi)
            wmm = _on_support(fmj, fmk, dmm, shift_values(phi, -ej - ek) - phi)
            wpm = _on_support(fpj, fmk, dpm, shift_values(phi, ej - ek) - phi)
            wmp = _on_support(fmj, fpk, dmp, shift_values(phi, -ej + ek) - phi)
            total += float(np.sum(wpp * fpj * fpk + wmm * fmj * fmk
                                  - wpm * fpj * fmk - wmp * fmj * fpk))
    return total * spec.h ** (spec.d - 4)


def _on_support(fa: np.ndarray, fb: np.ndarray, second: np.ndarray,
                first: np.ndarray) -> np.ndarray:
    """sinh(second) * cosh(first) where fa and fb are both nonzero, else 0.

    Beside the singular origin these phi differences overflow sinh * cosh
    once the peak |phi| passes about 355, and inf * 0 would put a NaN in the
    sum; the support check keeps the products of f away from there.
    """
    live = (fa != 0) & (fb != 0)
    w = np.zeros(fa.shape)
    w[live] = np.sinh(second[live]) * np.cosh(first[live])
    return w


@dataclass(frozen=True)
class CarlemanRatio:
    """Weighted three-term energy against the weighted source norm."""

    lhs: float
    rhs: float
    ratio: float
    term_l2: float
    term_d1: float
    term_d2: float


# the context tables carleman_ratio reads
RATIO_TABLES = ("annulus", "exp")


def carleman_ratio(u: LatticeFunction, ctx: ConjugationContext,
                   ds_mode: str = "symmetric") -> CarlemanRatio:
    """Evaluate the weighted a priori inequality on one test function.

    lhs = tau^3 |e^phi u|^2 + tau |e^phi h^-1 D u|^2 + tau^-1 |e^phi h^-2 D^2 u|^2
    rhs = |e^phi g|^2 with g = h^-2 Lap u.  D is the summed symmetric
    difference by default; forward/backward variants are exposed through
    ``ds_mode``.
    """
    if ctx.params is None:
        raise ValueError("carleman_ratio needs a context built from weight parameters")
    if u.spec != ctx.spec:
        raise ValueError("function and context lattice specs differ")
    if np.any(u.values[~ctx._table("annulus")] != 0.0):
        raise ValueError("support outside annulus")
    spec = u.spec
    ctx.check_support(u)

    h = spec.h
    tau = ctx.params.tau
    exp_phi = ctx._table("exp")

    def dop(g):
        if ds_mode == "symmetric":
            return sym_diff_sum(g)
        if ds_mode in ("forward", "backward"):
            acc = np.zeros(spec.shape)
            for j in range(1, spec.d + 1):
                acc += diff(g, j, ds_mode).values
            return g.with_values(acc)
        raise ValueError(f"unknown ds_mode {ds_mode!r}")

    def wnorm2(values):
        return float(h ** spec.d * np.sum((exp_phi * values) ** 2))

    du = dop(u)
    d2u = dop(du)
    g = laplacian(u).values / h ** 2

    term_l2 = tau ** 3 * wnorm2(u.values)
    term_d1 = tau * wnorm2(du.values / h)
    term_d2 = tau ** -1 * wnorm2(d2u.values / h ** 2)
    lhs = term_l2 + term_d1 + term_d2
    rhs = wnorm2(g)
    if rhs == 0.0:
        ratio = 0.0 if lhs == 0.0 else float("inf")
    else:
        ratio = lhs / rhs
    return CarlemanRatio(lhs, rhs, ratio, term_l2, term_d1, term_d2)
