"""The convexified logarithmic weight and its pseudoconvexity margin.

The radial profile is

    varphi(t) = -log t + c_ps * (log t * arctan(log t) - log(1 + log^2 t) / 2)

and the full weight is phi(x) = tau * varphi(|x|).  For c_ps = 0 this is the
limiting weight -tau*log|x| whose pseudoconvexity degenerates; a small
c_ps > 0 restores a positive margin

    (varphi')^2 (varphi'' + varphi'/t)
        = c_ps * (-1 + c_ps*arctan(log t))^2 / (t^4 (1 + log^2 t)).

Closed-form derivatives (s = log t):

    varphi'(t)  = (-1 + c_ps*arctan(s)) / t
    varphi''(t) = (1 - c_ps*arctan(s) + c_ps/(1+s^2)) / t^2

both validated against central finite differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_C_PS = 0.01


@dataclass(frozen=True)
class WeightParams:
    """Large parameter tau and convexification strength c_ps."""

    tau: float
    c_ps: float = DEFAULT_C_PS

    def __post_init__(self):
        if not self.tau > 1:
            raise ValueError("tau must exceed 1")
        if not self.c_ps >= 0:
            raise ValueError("c_ps must be nonnegative")


@dataclass(frozen=True, eq=False)
class WeightEval:
    """Value, gradient and Hessian of phi = tau*varphi(|x|) at one point."""

    value: float
    gradient: np.ndarray
    hessian: np.ndarray


def varphi(t, order: int = 0, c_ps: float = DEFAULT_C_PS):
    """Radial profile or its first or second derivative; t may be an array."""
    t = np.asarray(t, dtype=np.float64)
    if np.any(t <= 0):
        raise ValueError("radial argument must be positive")
    s = np.log(t)
    if order == 0:
        out = -s + c_ps * (s * np.arctan(s) - 0.5 * np.log1p(s ** 2))
    elif order == 1:
        out = (-1.0 + c_ps * np.arctan(s)) / t
    elif order == 2:
        out = (1.0 - c_ps * np.arctan(s) + c_ps / (1.0 + s ** 2)) / t ** 2
    else:
        raise ValueError("order must be 0, 1 or 2")
    return out if out.ndim else float(out)


def phi_eval(x, params: WeightParams) -> WeightEval:
    """Weight value, gradient and Hessian at the point x (away from 0).

    gradient = tau*varphi'(r) x/r and the Hessian has eigenvalue
    tau*varphi''(r) on x/r and tau*varphi'(r)/r on its orthogonal complement.
    """
    x = np.asarray(x, dtype=np.float64)
    # a plain sum of squares: np.linalg.norm's BLAS dot rounds by the CPU kernel
    r = float(np.sqrt(np.sum(x ** 2)))
    if r == 0.0:
        raise ValueError("weight singularity at the origin")
    xh = x / r
    d1 = varphi(r, 1, params.c_ps)
    d2 = varphi(r, 2, params.c_ps)
    grad = params.tau * d1 * xh
    hess = params.tau * (d1 / r * np.eye(x.size)
                         + (d2 - d1 / r) * np.outer(xh, xh))
    return WeightEval(params.tau * varphi(r, 0, params.c_ps), grad, hess)


def pseudoconvexity_margin(r, c_ps: float = DEFAULT_C_PS):
    """Margin (varphi')^2 (varphi'' + varphi'/r) at tau = 1 and radius r = |x|.

    Evaluated through the equivalent closed form
    c_ps*(-1 + c_ps*arctan(log r))^2 / (r^4 (1+log^2 r)), which avoids
    the cancellation of the derivative form (and is exactly c_ps at r = 1).
    ``r`` may be an array; a radius r <= 0 raises ``ValueError``.
    """
    r = np.asarray(r, dtype=np.float64)
    if np.any(r <= 0.0):
        raise ValueError("weight singularity at the origin")
    s = np.log(r)
    out = c_ps * (-1.0 + c_ps * np.arctan(s)) ** 2 / (r ** 4 * (1.0 + s ** 2))
    return out if out.ndim else float(out)


def admissibility_check(c_ps: float) -> None:
    """Raise ValueError unless varphi' < 0 and the margin is positive on
    1/4 <= |x| <= 4, which holds exactly when 0 < c_ps < 1/arctan(log 4).

    Both conditions are checked at r = 4 alone.  On [1/4, 1) varphi' < -1
    and the margin is at least c_ps; on [1, 4], while c_ps*arctan(log 4)
    <= 1, varphi' increases and the margin decreases, so both extremes sit
    at r = 4.  For larger c_ps, varphi'(4) >= 0 (notes/decisions.md).
    """
    slope = varphi(4.0, 1, c_ps)
    margin = pseudoconvexity_margin(4.0, c_ps)
    failures = []
    if not margin > 0:
        failures.append(f"margin {margin:.3e} <= 0 at radius 4")
    if not slope < 0:
        failures.append(f"varphi' {slope:.3e} >= 0 at radius 4")
    if failures:
        raise ValueError("inadmissible weight parameters: " + "; ".join(failures))


def weight_constants(c_ps: float = DEFAULT_C_PS):
    """Convexity exponents c1 = |varphi(3/2) - varphi(1)|, c2 = varphi(1/4) - varphi(1)
    and the interpolation exponent alpha = c1/(c1+c2) of the small ball.

    e^phi is largest at small radii, so the Carleman bound reads
    |u|_B1 <= e^{c2 tau}|u|_B1/2 + e^{-c1 tau}|u|_B2, and its minimum over
    tau puts alpha on B_1/2 (notes/decisions.md, "The two-term exponents")."""
    base = varphi(1.0, 0, c_ps)
    c1 = abs(varphi(1.5, 0, c_ps) - base)
    c2 = varphi(0.25, 0, c_ps) - base
    return c1, c2, c1 / (c1 + c2)
