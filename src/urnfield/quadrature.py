"""Adaptive Simpson quadrature with a breadth-first, vectorized refinement
loop.

The integrand must accept an ndarray of abscissae and return an ndarray of
values.  Panels are refined simultaneously level by level, which keeps the
per-call overhead at a handful of numpy operations instead of a Python
recursion per panel.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from .errors import ConditionViolation

_MAX_LEVELS = 60


def adaptive_simpson(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float = 1e-10,
    panels: int = 1,
) -> float:
    """Integrate ``f`` over ``[a, b]`` to absolute tolerance ``tol``, starting
    from ``panels`` equal panels; over a reversed interval, exactly minus
    that.  A non-finite value of ``f`` raises :class:`ConditionViolation`:
    refining its panel could never settle."""
    if b == a:
        return 0.0
    if b < a:
        return -adaptive_simpson(f, b, a, tol, panels)

    def finite_f(x):
        y = f(x)
        if not np.isfinite(y).all():
            raise ConditionViolation(f"integrand is not finite on a panel of [{a}, {b}]")
        return y

    edges = np.linspace(float(a), float(b), panels + 1)
    lo, hi = edges[:-1], edges[1:]
    flo = finite_f(lo)
    fhi = finite_f(hi)
    mid = 0.5 * (lo + hi)
    fmid = finite_f(mid)
    coarse = (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    total = 0.0
    width = b - a
    for _ in range(_MAX_LEVELS):
        lmid = 0.5 * (lo + mid)
        rmid = 0.5 * (mid + hi)
        flmid = finite_f(lmid)
        frmid = finite_f(rmid)
        left = (mid - lo) / 6.0 * (flo + 4.0 * flmid + fmid)
        right = (hi - mid) / 6.0 * (fmid + 4.0 * frmid + fhi)
        fine = left + right
        err = (fine - coarse) / 15.0

        # local error budget proportional to panel width
        accept = np.abs(err) <= tol * (hi - lo) / width
        total += float(np.sum((fine + err)[accept]))
        if accept.all():
            return total

        keep = ~accept
        # split the surviving panels in two
        lo = np.concatenate([lo[keep], mid[keep]])
        hi = np.concatenate([mid[keep], hi[keep]])
        mid = np.concatenate([lmid[keep], rmid[keep]])
        flo = np.concatenate([flo[keep], fmid[keep]])
        fhi = np.concatenate([fmid[keep], fhi[keep]])
        fmid = np.concatenate([flmid[keep], frmid[keep]])
        coarse = np.concatenate([left[keep], right[keep]])

    # refinement exhausted: return the best composite estimate
    return total + float(np.sum(coarse))


def adaptive_simpson_scalar(
    f: Callable[[float], float], a: float, b: float, tol: float = 1e-10
) -> float:
    """Recursive adaptive Simpson for a scalar integrand; cheaper than the
    vectorized variant on short intervals."""
    if b == a:
        return 0.0
    fa, fb = f(a), f(b)
    mid = 0.5 * (a + b)
    fmid = f(mid)
    whole = (b - a) / 6.0 * (fa + 4.0 * fmid + fb)
    return _simpson_rec(f, a, b, fa, fmid, fb, whole, tol, 48)


def _simpson_rec(f, a, b, fa, fm, fb, whole, tol, depth):
    mid = 0.5 * (a + b)
    lm = 0.5 * (a + mid)
    rm = 0.5 * (mid + b)
    flm = f(lm)
    frm = f(rm)
    left = (mid - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - mid) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    half = 0.5 * tol
    return _simpson_rec(f, a, mid, fa, flm, fm, left, half, depth - 1) + _simpson_rec(
        f, mid, b, fm, frm, fb, right, half, depth - 1
    )
