"""The planar mean-field system for two interacting urns with polynomial
reinforcement of degree ``m`` and interaction strength ``p``.

The drift field is

    F1(x, y) = -x + (1-p) * R(x) + p * R((x+y)/2)
    F2(x, y) = -y + (1-p) * R(y) + p * R((x+y)/2)

with ``R(t) = t^m / (t^m + (1-t)^m)``.  The system is a gradient ascent:
``F = grad L`` for the potential assembled in :func:`lyapunov`.  This module
evaluates the field, its Jacobian and eigenvalues, the potential, locates
and classifies equilibria (grid scan + Newton refinement, plus the special
structured solvers for the near-diagonal and near-corner branches), and
integrates the flow.

All operations are pure functions of their arguments.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConditionViolation, InternalConsistencyError
from .formats import json_fields
from .quadrature import adaptive_simpson, adaptive_simpson_scalar

_DEADBAND = 1e-9  # |lambda_+| below this is reported as (nonstrictly) stable
_QUAD_TOL = 1e-10
_EXP_CLIP = float(np.log(np.finfo(float).max))  # math.exp overflows above this


@dataclass(frozen=True)
class ModelParams:
    """Degree ``m >= 2`` and interaction parameter ``p`` in [0, 1]."""

    m: int
    p: float

    def __post_init__(self):
        if int(self.m) != self.m or self.m < 2:
            raise ValueError(f"degree m must be an integer >= 2, got {self.m}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {self.p}")


# ---------------------------------------------------------------------------
# scalar kernels


def power_ratio(m: int, t: float) -> float:
    """``t^m / (t^m + (1-t)^m)`` computed as ``1/(1 + ((1-t)/t)^m)`` in log
    space; endpoint limits 0 and 1."""
    if t <= 0.0:
        return 0.0
    if t >= 1.0:
        return 1.0
    d = m * (math.log1p(-t) - math.log(t))
    if d > _EXP_CLIP:
        return 0.0  # what 1 / (1 + inf) gives in _power_ratio_arr
    return 1.0 / (1.0 + math.exp(d))


def f_weight(m: int, t: float) -> float:
    """``t^{m-1} (1-t)^{m-1} / (t^m + (1-t)^m)^2``, the curvature kernel of
    the power ratio: ``R'(t) = m f(t)``.  Normalized so f(1/2) = 1."""
    if t <= 0.0 or t >= 1.0:
        return 0.0
    hi = max(t, 1.0 - t)
    sm = math.exp(m * (math.log(min(t, 1.0 - t)) - math.log(hi)))
    lf = (
        (m - 1) * (math.log(t) + math.log1p(-t))
        - 2.0 * m * math.log(hi)
        - 2.0 * math.log1p(sm)
    )
    return math.exp(lf) if lf < _EXP_CLIP else math.inf


def _power_ratio_arr(m: int, t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    lo = t <= 0.0
    hi = t >= 1.0
    out[lo] = 0.0
    out[hi] = 1.0
    mid = ~(lo | hi)
    tm = t[mid]
    with np.errstate(over="ignore"):
        out[mid] = 1.0 / (1.0 + np.exp(m * (np.log1p(-tm) - np.log(tm))))
    return out


# ---------------------------------------------------------------------------
# field, Jacobian, eigenvalues


def field(params: ModelParams, x: float, y: float) -> tuple[float, float]:
    """Drift vector (F1, F2) at (x, y) in [0, 1]^2."""
    x = _check_unit(x, "x")
    y = _check_unit(y, "y")
    m, p = params.m, params.p
    shared = p * power_ratio(m, 0.5 * (x + y))
    return (
        -x + (1.0 - p) * power_ratio(m, x) + shared,
        -y + (1.0 - p) * power_ratio(m, y) + shared,
    )


def _check_unit(v: float, name: str) -> float:
    if not -1e-9 <= v <= 1.0 + 1e-9:
        raise ValueError(f"{name}={v} outside [0, 1]")
    return min(max(v, 0.0), 1.0)


def _field_clipped(params: ModelParams, x: float, y: float) -> tuple[float, float]:
    return field(params, min(max(x, 0.0), 1.0), min(max(y, 0.0), 1.0))


def field_grid(params: ModelParams, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized field on broadcastable coordinate arrays."""
    m, p = params.m, params.p
    shared = p * _power_ratio_arr(m, 0.5 * (xs + ys))
    f1 = -xs + (1.0 - p) * _power_ratio_arr(m, xs) + shared
    f2 = -ys + (1.0 - p) * _power_ratio_arr(m, ys) + shared
    return f1, f2


def jacobian(params: ModelParams, x: float, y: float) -> np.ndarray:
    """Symmetric 2x2 derivative matrix of the field."""
    m, p = params.m, params.p
    half_coupling = 0.5 * m * p * f_weight(m, 0.5 * (x + y))
    return np.array(
        [
            [-1.0 + m * (1.0 - p) * f_weight(m, x) + half_coupling, half_coupling],
            [half_coupling, -1.0 + m * (1.0 - p) * f_weight(m, y) + half_coupling],
        ]
    )


def eigenvalues(params: ModelParams, x: float, y: float) -> tuple[float, float]:
    """Real Jacobian eigenvalues (lambda_minus, lambda_plus)."""
    m, p = params.m, params.p
    fx = f_weight(m, x)
    fy = f_weight(m, y)
    fz = f_weight(m, 0.5 * (x + y))
    base = -1.0 + 0.5 * m * p * fz + 0.5 * m * (1.0 - p) * (fx + fy)
    disc = 0.5 * math.hypot(m * (1.0 - p) * (fx - fy), m * p * fz)
    return base - disc, base + disc


# ---------------------------------------------------------------------------
# potential


_N_SEGMENTS = 256


@lru_cache(maxsize=64)
def _potential_prefix(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative integrals of R over a fixed partition of [0, 1], each
    segment by adaptive Simpson at a share of the total tolerance."""
    edges = np.linspace(0.0, 1.0, _N_SEGMENTS + 1)
    parts = [
        adaptive_simpson(
            lambda u: _power_ratio_arr(m, u), edges[i], edges[i + 1], _QUAD_TOL / _N_SEGMENTS
        )
        for i in range(_N_SEGMENTS)
    ]
    return edges, np.concatenate([[0.0], np.cumsum(parts)])


@lru_cache(maxsize=1 << 17)
def _potential_1d(m: int, t: float) -> float:
    """``int_0^t R(u) du`` by composite adaptive Simpson: cached full
    segments plus one partial-segment integral."""
    if t <= 0.0:
        return 0.0
    t = min(t, 1.0)
    edges, prefix = _potential_prefix(m)
    i = min(int(t * _N_SEGMENTS), _N_SEGMENTS - 1)
    total = float(prefix[i])
    if t > edges[i]:
        total += adaptive_simpson_scalar(
            lambda u: power_ratio(m, u), edges[i], t, _QUAD_TOL / _N_SEGMENTS
        )
    return total


def lyapunov(params: ModelParams, x: float, y: float) -> float:
    """Potential with ``grad L = F``; normalized so L(0, 0) = 0.

    Assembled from the one-dimensional integral ``G(t) = int_0^t R(u) du``
    as ``(1-p)(G(x) + G(y)) + 2p G((x+y)/2) - (x^2 + y^2)/2``.
    """
    x = _check_unit(x, "x")
    y = _check_unit(y, "y")
    m, p = params.m, params.p
    g = (1.0 - p) * (_potential_1d(m, x) + _potential_1d(m, y))
    g += 2.0 * p * _potential_1d(m, 0.5 * (x + y))
    return g - 0.5 * (x * x + y * y)


def lyapunov_closed(m: int, p: float, x: float, y: float) -> float:
    """Closed-form potential, available for m = 2 and m = 3."""
    if m == 2:
        return (
            0.25 * (1.0 - p) * math.log(x * x + (1.0 - x) ** 2)
            + 0.25 * (1.0 - p) * math.log(y * y + (1.0 - y) ** 2)
            + 0.5 * p * math.log((x + y) ** 2 + (2.0 - x - y) ** 2)
            - p * math.log(2.0)
            - 0.5 * x * x + 0.5 * x - 0.5 * y * y + 0.5 * y
        )
    if m == 3:
        return (
            (1.0 - p) / 9.0 * (math.log(x**3 + (1.0 - x) ** 3) + math.log(y**3 + (1.0 - y) ** 3))
            + 2.0 * p / 9.0 * math.log((x + y) ** 3 + (2.0 - x - y) ** 3)
            - 2.0 * p / 3.0 * math.log(2.0)
            - (4.0 + p) / 12.0 * (x * x + y * y)
            + p * x * y / 6.0
            + (x + y) / 3.0
        )
    raise ValueError(f"closed form available only for m in {{2, 3}}, got {m}")


# ---------------------------------------------------------------------------
# equilibria


@dataclass(frozen=True)
class Equilibrium:
    x: float
    y: float
    residual: float
    lambda_minus: float
    lambda_plus: float
    stability: str  # strictly_stable | stable | unstable
    provenance: str  # exact_known | newton_refined

    @property
    def location(self) -> tuple[float, float]:
        return (self.x, self.y)

    def to_json(self) -> dict:
        return {**json_fields(self, ("stability",)), "class": self.stability}


def _classify(lambda_plus: float) -> str:
    if lambda_plus < -_DEADBAND:
        return "strictly_stable"
    if lambda_plus > _DEADBAND:
        return "unstable"
    return "stable"


def _make_equilibrium(params: ModelParams, x: float, y: float, provenance: str) -> Equilibrium:
    f1, f2 = field(params, x, y)
    lm, lp = eigenvalues(params, x, y)
    return Equilibrium(x, y, max(abs(f1), abs(f2)), lm, lp, _classify(lp), provenance)


def _newton(params: ModelParams, x: float, y: float, tol: float, max_iter: int = 80):
    for _ in range(max_iter):
        f1, f2 = _field_clipped(params, x, y)
        if max(abs(f1), abs(f2)) < tol:
            return x, y
        j = jacobian(params, min(max(x, 0.0), 1.0), min(max(y, 0.0), 1.0))
        det = j[0, 0] * j[1, 1] - j[0, 1] * j[1, 0]
        if abs(det) < 1e-14:
            return None
        x -= (j[1, 1] * f1 - j[0, 1] * f2) / det
        y -= (j[0, 0] * f2 - j[1, 0] * f1) / det
        if not (-0.1 <= x <= 1.1 and -0.1 <= y <= 1.1):
            return None
    return None


def find_equilibria(params: ModelParams, grid_n: int = 128, tol: float = 1e-10) -> list[Equilibrium]:
    """All zeros of the field found by a sign-change grid scan with Newton
    refinement, merged with the known exact equilibria and classified.

    The grid resolution is a completeness knob: the scan reports whatever it
    finds and cannot certify there is nothing finer.
    """
    if grid_n < 64:
        raise ValueError("grid_n must be at least 64")
    known = [(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)]
    if params.p == 0.0:
        known = [(a, b) for a in (0.0, 0.5, 1.0) for b in (0.0, 0.5, 1.0)]
    results = [_make_equilibrium(params, x, y, "exact_known") for x, y in known]

    axis = np.linspace(0.0, 1.0, grid_n + 1)
    xs, ys = np.meshgrid(axis, axis, indexing="ij")
    f1, f2 = field_grid(params, xs, ys)
    s1 = np.sign(f1)
    s2 = np.sign(f2)

    def cell_mixed(s):
        corners = np.stack([s[:-1, :-1], s[1:, :-1], s[:-1, 1:], s[1:, 1:]])
        return (corners.min(axis=0) < 0) & (corners.max(axis=0) > 0)

    seeds = np.argwhere(cell_mixed(s1) & cell_mixed(s2))
    merge_radius = 10.0 * tol
    dropped = 0
    for i, j in seeds:
        got = _newton(params, 0.5 * (axis[i] + axis[i + 1]), 0.5 * (axis[j] + axis[j + 1]), tol)
        if got is None:
            dropped += 1
            continue
        x, y = got
        if not (1e-7 < x < 1.0 - 1e-7 and 1e-7 < y < 1.0 - 1e-7):
            # boundary zeros are matched against the exact set, never refined
            continue
        if any(math.hypot(x - e.x, y - e.y) <= max(merge_radius, 1e-7) for e in results):
            continue
        results.append(_make_equilibrium(params, x, y, "newton_refined"))
    if dropped:
        logging.getLogger(__name__).debug(
            "equilibrium scan at (m=%d, p=%g): %d of %d seeds did not converge",
            params.m, params.p, dropped, len(seeds),
        )
    return sorted(results, key=lambda e: (e.x, e.y))


# ---------------------------------------------------------------------------
# structured solvers


def _local_gap(params: ModelParams, t: float) -> float:
    """Coupling input needed to hold coordinate ``t`` stationary:
    ``t - (1-p) R(t)``."""
    return t - (1.0 - params.p) * power_ratio(params.m, t)


def _shared_input(params: ModelParams, z: float) -> float:
    """Coupling input actually supplied at mean level ``z``: ``p R(z)``."""
    return params.p * power_ratio(params.m, z)


def _bisect(fn, lo: float, hi: float, iters: int = 200) -> float:
    flo = fn(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fmid = fn(mid)
        if (fmid < 0.0) == (flo < 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def solve_um(params: ModelParams) -> float:
    """The unique root in [0, 1/2) of ``-u + (1-p) R(u) + p/2``; the x
    coordinate of the candidate non-dominated limit (u, 1-u).  Requires
    p < 1/2; equals 0 exactly when p = 0."""
    m, p = params.m, params.p
    if p >= 0.5:
        raise ValueError(f"solve_um requires p < 1/2, got p={p}")
    if p == 0.0:
        return 0.0

    def g(u: float) -> float:
        return -u + (1.0 - p) * power_ratio(m, u) + 0.5 * p

    hi = 0.5 - 1e-3
    while g(hi) >= 0.0:
        hi = 0.5 - 0.5 * (0.5 - hi)
        if 0.5 - hi < 1e-15:
            raise InternalConsistencyError("no sign change located left of 1/2")
    u = _bisect(g, 0.0, hi)
    if abs(g(u)) > 1e-12:
        raise InternalConsistencyError(f"root residual {g(u)} exceeds tolerance")
    return u


def um_stability_margin(params: ModelParams) -> float:
    """``lambda_plus`` at (u, 1-u): negative iff that point is strictly
    stable.  Cross-checked against the equivalent closed-form inequality
    ``u < 1/2 - sqrt((m-1)(1-p) / (m-1+p+mp-mp^2)) / 2``."""
    m, p = params.m, params.p
    u = solve_um(params)
    margin = eigenvalues(params, u, 1.0 - u)[1]
    if p > 0.0:
        rhs = 0.5 - 0.5 * math.sqrt((m - 1) * (1.0 - p) / (m - 1 + p + m * p - m * p * p))
        if abs(margin) > 1e-8 and abs(u - rhs) > 1e-12 and (margin < 0.0) != (u < rhs):
            raise InternalConsistencyError(
                f"margin sign {margin} disagrees with threshold form u={u}, rhs={rhs}"
            )
    return margin


def _gap_valley(params: ModelParams) -> float:
    """Location in (1/2, 1) where the local gap stops decreasing: the root
    of ``1 - m (1-p) f(t)``."""
    m, p = params.m, params.p
    return _bisect(lambda t: 1.0 - m * (1.0 - p) * f_weight(m, t), 0.5, 1.0)


def h_of_z(params: ModelParams, z: float) -> float:
    """The upper coordinate ``y  in (valley, 1]`` balancing the coupling
    supplied at mean level ``z``:  solves local_gap(y) = shared_input(z) on
    the increasing branch.  h(1) = 1."""
    if params.p >= 0.5:
        raise ValueError("h_of_z requires p < 1/2")
    target = _shared_input(params, z)
    t0 = _gap_valley(params)
    if target < _local_gap(params, t0) - 1e-15:
        raise ValueError(f"no solution: coupling input {target} below the branch minimum")
    y = _bisect(lambda t: _local_gap(params, t) - target, t0, 1.0)
    return y


def h_of_z_prime(params: ModelParams, z: float) -> float:
    """Derivative of :func:`h_of_z`:  ``m p f(z) / (1 - m (1-p) f(h(z)))``."""
    m, p = params.m, params.p
    hz = h_of_z(params, z)
    return m * p * f_weight(m, z) / (1.0 - m * (1.0 - p) * f_weight(m, hz))


def pair_mismatch(params: ModelParams, z: float) -> float:
    """Residual of the off-diagonal equilibrium system reduced to the mean
    coordinate: local_gap(2z - h(z)) - shared_input(z)."""
    hz = h_of_z(params, z)
    return _local_gap(params, 2.0 * z - hz) - _shared_input(params, z)


def pair_mismatch_prime(params: ModelParams, z: float) -> float:
    """Derivative of :func:`pair_mismatch`; tends to 2 uniformly on interior
    brackets as m grows."""
    m, p = params.m, params.p
    hz = h_of_z(params, z)
    hp = h_of_z_prime(params, z)
    return (1.0 - m * (1.0 - p) * f_weight(m, 2.0 * z - hz)) * (2.0 - hp) - m * p * f_weight(m, z)


def solve_sm(params: ModelParams, delta: float | None = None) -> Equilibrium:
    """The off-diagonal equilibrium ``(2z - h(z), h(z))`` with mean
    coordinate ``z`` root of :func:`pair_mismatch` in
    ``(1/2 + delta, 3/4 - delta)``.  Exists (and is strictly stable,
    approaching (p, 1)) once m is large for the given p < 1/2."""
    m, p = params.m, params.p
    if not 0.0 < p < 0.5:
        raise ValueError(f"solve_sm requires 0 < p < 1/2, got p={p}")
    if delta is None:
        delta = min(0.5 - p, p) / 4.0
    if not 0.0 < 2.0 * delta < min(0.5 - p, p):
        raise ValueError(f"delta={delta} incompatible with p={p}")
    lo, hi = 0.5 + delta, 0.75 - delta
    if not (pair_mismatch(params, lo) < 0.0 < pair_mismatch(params, hi)):
        raise ConditionViolation(
            f"no sign change on [{lo}, {hi}]: m={m} too small for p={p}"
        )
    z = _bisect(lambda t: pair_mismatch(params, t), lo, hi)
    hz = h_of_z(params, z)
    eq = _make_equilibrium(params, 2.0 * z - hz, hz, "newton_refined")
    if eq.residual > 1e-9:
        raise InternalConsistencyError(f"field residual {eq.residual} at the located point")
    return eq


# ---------------------------------------------------------------------------
# flow integration and field sampling


@dataclass(frozen=True)
class FlowTrajectory:
    times: np.ndarray
    states: np.ndarray  # shape (k, 2)
    potential: np.ndarray  # L along the path


def flow(params: ModelParams, x0: float, y0: float, T: float, dt: float) -> FlowTrajectory:
    """Classical RK4 integration of the flow from (x0, y0), clamped to the
    unit square; records the potential along the path."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    x = _check_unit(x0, "x0")
    y = _check_unit(y0, "y0")
    n_steps = max(0, int(round(T / dt)))
    times = np.arange(n_steps + 1) * dt
    states = np.empty((n_steps + 1, 2))
    pot = np.empty(n_steps + 1)
    states[0] = (x, y)
    pot[0] = lyapunov(params, x, y)
    for k in range(1, n_steps + 1):
        a1, b1 = _field_clipped(params, x, y)
        a2, b2 = _field_clipped(params, x + 0.5 * dt * a1, y + 0.5 * dt * b1)
        a3, b3 = _field_clipped(params, x + 0.5 * dt * a2, y + 0.5 * dt * b2)
        a4, b4 = _field_clipped(params, x + dt * a3, y + dt * b3)
        x += dt * (a1 + 2.0 * a2 + 2.0 * a3 + a4) / 6.0
        y += dt * (b1 + 2.0 * b2 + 2.0 * b3 + b4) / 6.0
        x = min(max(x, 0.0), 1.0)
        y = min(max(y, 0.0), 1.0)
        states[k] = (x, y)
        pot[k] = lyapunov(params, x, y)
    return FlowTrajectory(times, states, pot)


def sample_field(params: ModelParams, resolution: int) -> np.ndarray:
    """Uniform grid of field samples: rows (x, y, F1, F2), resolution^2 of
    them, endpoints included."""
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    axis = np.linspace(0.0, 1.0, resolution)
    xs, ys = np.meshgrid(axis, axis, indexing="ij")
    f1, f2 = field_grid(params, xs, ys)
    return np.column_stack([xs.ravel(), ys.ravel(), f1.ravel(), f2.ravel()])


# ---------------------------------------------------------------------------
# inequality margins used by the property suite


def odd_power_ratio(m: int, h: float) -> float:
    """``((1+h)^m - (1-h)^m) / ((1+h)^m + (1-h)^m)`` = tanh(m atanh(h));
    at least ``2h`` on (0, 1/sqrt(5)) for every m >= 3."""
    return math.tanh(m * math.atanh(h))


def beta_margin(m: int, h: float) -> float:
    """Positive on (0, 1/2) for every m >= 2; the strict margin that rules
    out off-diagonal rest points on the antidiagonal at p = 1/2."""
    return 0.5 * odd_power_ratio(m, h) + 0.5 * power_ratio(m, h) - h
