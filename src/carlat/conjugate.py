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
sinh * cosh) evaluation; both are provided and must agree.  The Carleman
setting these act on, its box, annulus and seeded test functions, lives here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import apply_stencil_var, zero_frame
from .lattice import (
    AnnularRegion,
    LatticeFunction,
    LatticeSpec,
    laplacian,
    diff,
    dilate,
    inner_product,
    l2_norm,
    schrodinger_stencil,
    shift_values,
    sym_diff_sum,
    unit_offset,
)
from .weight import WeightParams, varphi

PHI_OVERFLOW_LIMIT = 700.0
# sites between an operand's support and the box edge or a singular site
SUPPORT_REACH = 2
# sites per slab of axis-0 rows in carleman_ratio: its temporaries stay
# slab-sized, not box-sized
SLAB_SITES = 2 ** 15

# S, A and L weight P_h's coefficient at offset o by w(x) of the step
# x = phi(n + o) - phi(n), as e^phi(n) e^-phi(n + o) = e^-x; L goes through exp
_STEP_WEIGHTS = {"sym": np.cosh, "anti": lambda x: -np.sinh(x), "conj": lambda x: np.exp(-x)}


# where Carleman test functions live: 1/2 < |x| < 2
CARLEMAN_ANNULUS = AnnularRegion(0.5, 2.0)


def carleman_box(d: int, h: float) -> LatticeSpec:
    """The box of the Carleman measurements: B_2 and four sites to spare."""
    return LatticeSpec.ball_box(d, h, 2.0, pad_sites=4)


def _smoothstep(t):
    t = np.clip(t, 0.0, 1.0)
    return t ** 3 * (10.0 + t * (-15.0 + 6.0 * t))


@functools.lru_cache(maxsize=8)
def _bump_window(spec: LatticeSpec, a: float, b: float, ramp: float) -> np.ndarray:
    """Read-only smoothstep window of ``random_bump``; it does not depend on the seed."""
    r = spec.radii()
    window = _smoothstep((r - a) / ramp) * _smoothstep((b - r) / ramp)
    window.flags.writeable = False
    return window


def _plane_wave_sum(spec: LatticeSpec, amps, freqs, phases) -> np.ndarray:
    """sum_m amps[m] cos(freqs[m] . x + phases[m]) on the box, axis by axis.

    Each mode is Re(amps[m] e^{i phases[m]} prod_j e^{i freqs[m, j] x_j}):
    outer products of per-axis factors build the leading axes, and one real
    matmul contracts the modes against the last axis.
    """
    x = spec.axes()
    lead = (amps * np.exp(1j * phases))[:, None]
    for f, xa in zip(freqs.T[:-1], x[:-1]):
        factor = np.exp(1j * np.outer(f, xa))
        lead = (lead[:, :, None] * factor[:, None, :]).reshape(len(amps), -1)
    last = np.exp(1j * np.outer(freqs[:, -1], x[-1]))
    # Re(lead^T last) = Re lead^T Re last - Im lead^T Im last, as one real product
    wave = np.hstack([lead.real.T, -lead.imag.T]) @ np.vstack([last.real, last.imag])
    return wave.reshape(spec.shape)


def random_bump(spec: LatticeSpec, seed: int) -> LatticeFunction:
    """Seeded smooth bump supported strictly inside ``CARLEMAN_ANNULUS``.

    The profile vanishes within max(2h, 0.05) of the annulus boundary, so
    second differences of the result stay supported in the annulus; for
    h > 1/4 the annulus is under 6h wide and refused.  The random part is
    a fixed small sum of plane waves whose parameters depend only on the
    seed, not on h: refining the lattice samples the same underlying
    function, which keeps h-sweeps comparable.
    """
    if CARLEMAN_ANNULUS.width < 6 * spec.h:
        raise ValueError("annulus too thin for h: width < 6h")
    margin = max(2 * spec.h, 0.05)
    a = CARLEMAN_ANNULUS.inner + margin
    b = CARLEMAN_ANNULUS.outer - margin
    ramp = min(0.25 * (b - a), 0.2)

    rng = np.random.default_rng(seed)
    modes = 6
    amps = rng.standard_normal(modes)
    freqs = rng.uniform(-1.0, 1.0, size=(modes, spec.d)) * (2 * np.pi / CARLEMAN_ANNULUS.width)
    phases = rng.uniform(0.0, 2 * np.pi, size=modes)

    # the wave, divided, exponentiated and windowed in place: exp keeps the
    # modulation strictly positive, so the support is exactly the window's,
    # which site-counting tests rely on
    field = _plane_wave_sum(spec, amps, freqs, phases)
    field /= np.sqrt(modes)
    np.exp(field, out=field)
    field *= _bump_window(spec, a, b, ramp)
    return LatticeFunction(spec, field)


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
        elif name == "outside_annulus":
            # flat indices of the sites outside the support carleman_ratio accepts
            val = np.flatnonzero(~CARLEMAN_ANNULUS.mask(self.spec))
        elif name == "near_singular":
            # flat indices of the sites within SUPPORT_REACH steps of a singular
            # site; dilation by unit steps inside the box is symmetric, so f
            # is nonzero here iff its dilated support touches a singular site
            val = np.flatnonzero(dilate(self.singular, SUPPORT_REACH))
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
        v = f.values
        # only the SUPPORT_REACH-wide frame of the box is read
        if not zero_frame(v, SUPPORT_REACH, range(v.ndim)):
            raise ValueError(
                "support too close to the box boundary "
                f"(need a margin of {SUPPORT_REACH} sites)")
        if v.ravel()[self._table("near_singular")].any():
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
        sa = _apply(_apply(f.values, ctx, "anti"), ctx, "sym")
        as_ = _apply(_apply(f.values, ctx, "sym"), ctx, "anti")
        return inner_product(f, f.with_values(sa - as_))
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


def identity_errors(f: LatticeFunction, ctx: ConjugationContext) -> dict:
    """Relative errors of S + A = L ("split"), of |Lf|^2 = |Sf|^2 + |Af|^2 +
    <f, [S,A] f> ("energy") and of the commutator form's two paths ("two_path")."""
    sf, af, lf = sym_apply(f, ctx), antisym_apply(f, ctx), conjugate_apply(f, ctx)
    split = float(np.abs(sf.values + af.values - lf.values).max()
                  / max(np.abs(lf.values).max(), 1e-300))
    comm = commutator_form(f, ctx, "expansion")
    comp = commutator_form(f, ctx, "composition")
    lhs = inner_product(lf, lf)
    rhs = l2_norm(sf) ** 2 + l2_norm(af) ** 2 + comm
    return {"split": split,
            "energy": abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300),
            "two_path": abs(comm - comp) / max(abs(comm), abs(comp), 1e-300)}


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
RATIO_TABLES = ("outside_annulus", "near_singular", "exp")


def slab_rows(spec: LatticeSpec) -> int:
    """Axis-0 rows per slab of ``carleman_ratio``: about SLAB_SITES sites,
    at least one row and at most the box."""
    return min(spec.shape[0], max(1, SLAB_SITES // math.prod(spec.shape[1:])))


def carleman_ratio(u: LatticeFunction, ctx: ConjugationContext,
                   ds_mode: str = "symmetric") -> CarlemanRatio:
    """Evaluate the weighted a priori inequality on one test function.

    lhs = tau^3 |e^phi u|^2 + tau |e^phi h^-1 D u|^2 + tau^-1 |e^phi h^-2 D^2 u|^2
    rhs = |e^phi g|^2 with g = h^-2 Lap u.  D is the summed symmetric
    difference by default; forward/backward variants are exposed through
    ``ds_mode``.

    The box is walked in slabs of ``slab_rows`` axis-0 rows, on bare value
    arrays.  D and Lap reach one row, so D^2 u on a slab's rows is exact on
    the slab and two halo rows each side (clipped to the box, where u's zero
    extension is the box's own); D u, D^2 u and Lap u of that sub-box are
    written into three buffers allocated once per call, and only the slab's
    rows are summed.  A slab whose weighted sum is not finite has its rows
    of D u, D^2 u and Lap u checked: a non-finite entry raises, as it would
    in a LatticeFunction, and finite entries whose weighted squares overflow
    give a non-finite lhs, rhs or ratio.
    """
    if ctx.params is None:
        raise ValueError("carleman_ratio needs a context built from weight parameters")
    if u.spec != ctx.spec:
        raise ValueError("function and context lattice specs differ")
    if u.values.ravel()[ctx._table("outside_annulus")].any():
        raise ValueError("support outside annulus")
    spec = u.spec
    ctx.check_support(u)
    if ds_mode not in ("symmetric", "forward", "backward"):
        raise ValueError(f"unknown ds_mode {ds_mode!r}")

    h = spec.h
    tau = ctx.params.tau
    exp_phi = ctx._table("exp")

    def dop(g, out):
        if ds_mode == "symmetric":
            return sym_diff_sum(g, out=out)
        # the first difference holds no -0.0, so it equals 0.0 plus itself
        diff(g, 1, ds_mode, out=out)
        for j in range(2, spec.d + 1):
            out += diff(g, j, ds_mode)
        return out

    rows, step = spec.shape[0], slab_rows(spec)
    buf = np.empty((step,) + spec.shape[1:])
    # D u, D^2 u and Lap u of a slab and its halo rows
    du_buf, d2u_buf, lap_buf = np.empty((3, min(step + 4, rows)) + spec.shape[1:])
    # sums of (e^phi u)^2, (e^phi D u)^2, (e^phi D^2 u)^2, (e^phi Lap u)^2
    sums = [0.0] * 4
    for r0 in range(0, rows, step):
        r1 = min(r0 + step, rows)
        lo, hi = max(r0 - 2, 0), min(r1 + 2, rows)
        sub = u.values[lo:hi]
        du = dop(sub, du_buf[:hi - lo])
        d2u = dop(du, d2u_buf[:hi - lo])
        lap = laplacian(sub, out=lap_buf[:hi - lo])
        own = slice(r0 - lo, r1 - lo)
        weight, out = exp_phi[r0:r1], buf[:r1 - r0]
        flat = out.reshape(-1)
        for k, values in enumerate((sub, du, d2u, lap)):
            np.multiply(values[own], weight, out=out)
            # einsum's own loop, not BLAS: the same bits for any BLAS thread count
            total = float(np.einsum("i,i->", flat, flat))
            if not math.isfinite(total) and not np.isfinite(values[own]).all():
                raise ValueError("values must be finite")
            sums[k] += total

    # the unscaled sums times h^d, over h^0, h^2, h^4 and h^4
    norm2 = [h ** spec.d * total / h ** p for total, p in zip(sums, (0, 2, 4, 4))]
    term_l2 = tau ** 3 * norm2[0]
    term_d1 = tau * norm2[1]
    term_d2 = tau ** -1 * norm2[2]
    lhs = term_l2 + term_d1 + term_d2
    rhs = norm2[3]
    if rhs == 0.0:
        ratio = 0.0 if lhs == 0.0 else float("inf")
    else:
        ratio = lhs / rhs
    return CarlemanRatio(lhs, rhs, ratio, term_l2, term_d1, term_d2)
