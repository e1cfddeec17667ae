"""Scalar Gaussian utilities shared across the package.

Density, CDF and inverse CDF of the standard normal, the option-value
function ``g(d) = phi(d) - d*Phi(-d)`` with its inverse, and the expected
exceedance of a Gaussian over a threshold.  All functions are pure and
accept scalars or numpy arrays.

Only Phi on an array needs scipy (``scipy.special.erfc``), and it is
imported there, so a process that works on scalars never loads it: Phi
on a scalar is ``math.erfc`` and the inverse CDF is the standard
library's ``statistics.NormalDist.inv_cdf`` (Wichura's AS 241).
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

SQRT2 = math.sqrt(2.0)
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_INV_CDF = np.vectorize(NormalDist().inv_cdf, otypes=[np.float64])


def std_normal_pdf(d):
    """Standard normal density phi(d)."""
    d = np.asarray(d, dtype=np.float64)
    if not d.ndim:
        return float(INV_SQRT_2PI * np.exp(-0.5 * d * d))
    # the scalar's operations in order, in one buffer
    out = np.multiply(-0.5, d)
    out *= d
    np.exp(out, out=out)
    out *= INV_SQRT_2PI
    return out


def std_normal_cdf(d):
    """Standard normal CDF Phi(d), accurate in both tails (via erfc)."""
    d = np.asarray(d, dtype=np.float64)
    if not d.ndim:
        return 0.5 * math.erfc(-float(d) / SQRT2)
    from scipy import special
    out = np.negative(d)
    out /= SQRT2
    special.erfc(out, out=out)
    out *= 0.5
    return out


def std_normal_sf(d):
    """Upper tail probability Phi(-d) = 1 - Phi(d), without cancellation."""
    return std_normal_cdf(np.negative(np.asarray(d, dtype=np.float64)))


def std_normal_quantile(p):
    """Inverse CDF: the d with Phi(d) = p.  Requires p in (0, 1)."""
    p_arr = np.asarray(p, dtype=np.float64)
    if not np.all((p_arr > 0.0) & (p_arr < 1.0)):
        raise ValueError("quantile argument must lie strictly in (0, 1)")
    out = _INV_CDF(p_arr)
    return out if out.ndim else float(out)


def g(d):
    """Option-value function g(d) = phi(d) - d*Phi(-d).

    Strictly decreasing bijection from R onto (0, inf): g(d) -> 0+ as
    d -> +inf and g(d) ~ -d as d -> -inf.
    """
    d = np.asarray(d, dtype=np.float64)
    out = std_normal_pdf(d) - d * std_normal_sf(d)
    return out if np.ndim(out) else float(out)


def g_inverse(y: float) -> float:
    """Solve g(d) = y for d.  Requires y > 0.

    Safeguarded bisection/Newton on the bracket [-y - 1, hi]; the lower
    end works because g(d) > -d for every d, the upper end is pushed out
    until g falls below y.
    """
    if not y > 0.0:
        raise ValueError("g_inverse requires a strictly positive argument")
    lo, hi = -y - 1.0, 10.0
    while g(hi) > y:
        hi *= 2.0
        if hi > 1e12:  # pragma: no cover - unreachable for finite y > 0
            raise ArithmeticError("failed to bracket g_inverse")
    # Bisection with a Newton step whenever it stays inside the bracket.
    d = 0.5 * (lo + hi)
    for _ in range(200):
        gd = g(d)
        if gd > y:
            lo = d
        else:
            hi = d
        # g'(d) = -Phi(-d)
        deriv = -std_normal_sf(d)
        d_newton = d - (gd - y) / deriv if deriv != 0.0 else d
        if hi - lo < 1e-12 * max(1.0, abs(d)):
            break
        d = d_newton if lo < d_newton < hi else 0.5 * (lo + hi)
    return float(d)


def gaussian_upside(mean, sd, threshold):
    """E[(X - a)^+] for X ~ N(mean, sd^2) and a = threshold.

    Equals sd*phi(d) - (a - mean)*Phi(-d) with d = (a - mean)/sd, which is
    sd * g(d).
    """
    sd = np.asarray(sd, dtype=np.float64)
    if np.any(sd <= 0.0):
        raise ValueError("gaussian_upside requires sd > 0")
    d = (np.asarray(threshold, dtype=np.float64) - np.asarray(mean, dtype=np.float64)) / sd
    out = sd * g(d)
    return out if np.ndim(out) else float(out)
