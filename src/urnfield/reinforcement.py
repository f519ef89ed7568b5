"""Reinforcement weight sequences and numeric condition checks.

A reinforcement sequence assigns a nonnegative weight ``W(n)`` to a ball
count ``n``; draw probabilities in the urn simulators are proportional to
these weights.  Three kinds are supported:

* ``polynomial`` -- ``W(n) = a_m n^m + ... + a_0`` with ``a_m > 0`` and all
  other coefficients nonnegative,
* ``exponential`` -- ``W(n) = rho^n`` with ``rho > 1``,
* ``table`` -- explicit leading values, optionally extended by a periodic
  closed-form tail rule (e.g. different formulas on even/odd indices).

The checkers estimate, from truncated sums plus analytic tail bounds where
the kind provides one, whether the sequence is reciprocally summable,
whether ``W(n) * sum_k |1/W(k) - 1/W(k+1)|`` stays bounded, whether
``W(n) * Rem(n)`` stays bounded, and whether the remainder-ratio decay
conditions hold.  These conditions are asymptotic statements; the verdicts
are explicitly finite-horizon heuristics (a plateau detector decides
"holds" for sup-type quantities) and report ``inconclusive`` whenever the
truncated computation cannot separate the outcomes.  Each check walks
``log W`` down from its horizon ``_CHUNK`` entries at a time and keeps only
what its verdict reads (sums, sups, and remainders at a few points), so no
array as long as the horizon is built.

Sequences are immutable after construction and safe for concurrent reads.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConditionViolation
from .formats import is_json_number, json_fields
from .quadrature import adaptive_simpson

DEFAULT_HORIZON = 1_000_000
_PLATEAU_RTOL = 1e-6  # sup considered settled when it moved less than this
_EM_EXPLICIT_TERMS = 512  # explicit terms before the Euler-Maclaurin tail


def _horner(coeffs, x):
    """Evaluate a_0 + a_1 x + ... + a_m x^m (vectorized in x).  Zero
    coefficients of the highest powers are skipped: at finite x they only
    add exact zeros, and ``n^2000`` has 2000 of them in log space."""
    m = len(coeffs)
    while m > 1 and coeffs[m - 1] == 0:
        m -= 1
    x = np.asarray(x, dtype=float)
    if m == 1:
        return np.full_like(x, coeffs[0])
    # x a_m gives the bits of a fill of a_m times x: IEEE products commute
    result = np.multiply(x, coeffs[m - 1], out=np.empty_like(x))
    result += coeffs[m - 2]
    for c in reversed(coeffs[: m - 2]):
        result *= x
        result += c
    return result


def _finite(values, what: str) -> tuple[float, ...]:
    """``values`` as floats; a ValueError names the first that is not finite."""
    values = tuple(float(v) for v in values)
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{what} must be finite, got {v}")
    return values


# ---------------------------------------------------------------------------
# tail-rule branches


@dataclass(frozen=True)
class PolyBranch:
    """Tail branch ``k -> a_0 + a_1 k + ... + a_m k^m`` (a_m > 0)."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        _finite(self.coeffs, "tail branch coefficients")
        if not self.coeffs or self.coeffs[-1] <= 0:
            raise ValueError("polynomial tail branch needs a positive leading coefficient")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def values(self, k):
        with np.errstate(over="ignore"):
            return _horner(self.coeffs, np.asarray(k, dtype=float))

    def log_values(self, k):
        k = np.asarray(k, dtype=float)
        if k.min(initial=1.0) > 0:
            return self._log_values_positive(k)
        at0 = k == 0
        out = np.empty(k.shape, dtype=float)
        with np.errstate(divide="ignore"):
            out[at0] = np.log(self.coeffs[0]) if len(self.coeffs) else -np.inf
        out[~at0] = self._log_values_positive(k[~at0])
        return out

    def _log_values_positive(self, k: np.ndarray) -> np.ndarray:
        # W(k) = k^m * (a_m + a_{m-1}/k + ... + a_0/k^m); the inner sum is
        # positive wherever W is, so the log never sees an overflowed value.
        buf = np.divide(1.0, k, out=np.empty_like(k))
        inner = _horner(tuple(reversed(self.coeffs)), buf)
        np.log(inner, out=inner)
        log_k = np.log(k, out=buf)
        log_k *= self.degree
        log_k += inner
        return log_k

    def summable(self, power: int) -> bool:
        return self.degree * power >= 2

    def log_recip_tail(self, k0: int, power: int) -> float:
        """log of ``sum_{k >= k0} branch(k)^{-power}`` (``inf`` if divergent).
        Every term from ``k0`` on counts: the branch must be positive there."""
        if not self.summable(power):
            return math.inf
        big_k = max(k0, self._increasing_from) + _EM_EXPLICIT_TERMS
        ks = np.arange(k0, big_k)
        log_explicit = _logsumexp(-power * self.log_values(ks))
        log_tail = self._log_em_tail(big_k, power)
        return np.logaddexp(log_explicit, log_tail)

    def _log_em_tail(self, big_k: int, power: int) -> float:
        """Euler-Maclaurin estimate of log sum_{k >= K} q(k)^{-power}: the
        integral from K, f(K)/2 and -f'(K)/12 with f = q^{-power}."""
        m, coeffs = self.degree, self.coeffs
        lead = coeffs[-1]
        log_integral = self._log_integral_from(max(big_k, self._cauchy_bound), power)
        if big_k < self._cauchy_bound:
            log_integral = np.logaddexp(log_integral, self._log_integral_between(big_k, self._cauchy_bound, power))
        log_qk = float(self.log_values(np.array([big_k]))[0])
        log_half = math.log(0.5) - power * log_qk
        base = np.logaddexp(log_integral, log_half)
        # add -f'(K)/12: f' < 0, as q'(K) > 0 from K >= _increasing_from on;
        # q'(K) = a_m K^(m-1) s with s = m + (m-1) a_{m-1}/(a_m K) + ..., in log space
        dq = _poly_derivative(coeffs)
        s = float(_horner(tuple(c / lead for c in reversed(dq)), 1.0 / big_k)) if dq else 0.0
        if s > 0:
            log_qprime = math.log(lead) + (m - 1) * math.log(big_k) + math.log(s)
            log_corr = math.log(power / 12.0) + log_qprime - (power + 1) * log_qk
            base += math.log1p(math.exp(log_corr - base))
        return float(base)

    def _log_integral_from(self, big_k: int, power: int) -> float:
        """log of int_K^inf q(x)^{-power} dx for K at or beyond the Cauchy bound."""
        m, coeffs = self.degree, self.coeffs
        mp = m * power
        # K^{1-mp} a_m^{-power} J with J = int_0^1 t^{mp-2} / r(t)^power dt,
        # r(t) = 1 + (a_{m-1}/a_m) t/K + ...; beyond the Cauchy bound every
        # term after the 1 is at most 1 in size and q, hence r, is positive;
        # dividing by a_m keeps r^power in float range whatever the leading
        # coefficient, and K^-i, not K^i, keeps its coefficients in range
        # whatever the degree
        lead = coeffs[-1]
        rev = tuple(c / lead * float(big_k) ** -i for i, c in enumerate(reversed(coeffs)))

        def reduced(t):
            # adaptive_simpson rejects a value that is not finite
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                return t ** (mp - 2) / _horner(rev, t) ** power

        j_val = adaptive_simpson(reduced, 0.0, 1.0, tol=1e-14)  # > 0: r(1)^power is finite
        return (1 - mp) * math.log(big_k) + math.log(j_val) - power * math.log(lead)

    def _log_integral_between(self, lo: int, hi: int, power: int) -> float:
        """log of int_lo^hi q(x)^{-power} dx, taken over s = log x: below the
        Cauchy bound q can change its scale anywhere (1e300 + x^2 turns at
        x = 1e150), while over s the log of the integrand moves by at most
        ``m * power`` per unit.  A grid of step 1/4 finds its top; where it
        stays 40 below (for non-negative coefficients it is concave in s),
        the integrand adds under e^-40 of the integral and is left out."""
        mp, rev = self.degree * power, tuple(reversed(self.coeffs))

        def log_f(s, at):
            # log(x q(x)^-power) - (1 - mp) log(at) at x = at e^s, with
            # q(x) = x^m R(1/x); s stays small where it counts, so that
            # rounding s does not show in the integrand
            return (1 - mp) * s - power * np.log(_horner(rev, np.exp(-s) / at))

        grid = np.linspace(0.0, math.log(hi / lo), 4 * math.ceil(math.log(hi / lo)) + 1)
        log_grid = log_f(grid, lo)
        top = int(np.argmax(log_grid))
        near = np.flatnonzero(log_grid >= log_grid[top] - 40.0)
        at = lo * math.exp(grid[top])
        a, b = grid[max(near[0] - 1, 0)] - grid[top], grid[min(near[-1] + 1, grid.size - 1)] - grid[top]
        log_top = float(log_f(np.array([0.0]), at)[0])

        def scaled(s):
            with np.errstate(over="ignore"):
                return np.exp(log_f(s, at) - log_top)

        j_val = adaptive_simpson(scaled, a, b, tol=1e-14, panels=math.ceil(b - a))
        return (1 - mp) * math.log(at) + log_top + math.log(j_val)

    @cached_property
    def _cauchy_bound(self) -> int:
        # q(x) > 0 for x beyond 1 + max |a_i|/a_m
        bound = max(abs(c) for c in self.coeffs) / self.coeffs[-1]
        if bound > sys.float_info.max:
            raise ConditionViolation(f"polynomial tail {self.coeffs}: its Cauchy bound leaves float range")
        return 1 + math.ceil(bound)

    @cached_property
    def _increasing_from(self) -> int:
        # q(x) > 0 and q'(x) > 0 for x >= 1 + max(|a_i| : a_i < 0)/a_m, the
        # bound make_table checks a tail positive up to; with no negative
        # coefficient that is every x >= 1
        return 1 + math.ceil(max((-c for c in self.coeffs if c < 0), default=0.0) / self.coeffs[-1])

    def to_json(self):
        return {"poly": list(self.coeffs)}


@dataclass(frozen=True)
class ExpBranch:
    """Tail branch ``k -> scale * rho^k`` (both positive)."""

    rho: float
    scale: float = 1.0

    def __post_init__(self):
        _finite((self.rho, self.scale), "exponential tail branch parameters")
        if self.rho <= 0 or self.scale <= 0:
            raise ValueError("exponential tail branch needs rho > 0 and scale > 0")

    def values(self, k):
        with np.errstate(over="ignore"):
            return self.scale * np.exp(np.asarray(k, dtype=float) * math.log(self.rho))

    def log_values(self, k):
        out = np.asarray(k, dtype=float) * math.log(self.rho)
        out += math.log(self.scale)
        return out

    def summable(self, power: int) -> bool:
        return self.rho > 1.0

    def log_recip_tail(self, k0: int, power: int) -> float:
        if not self.summable(power):
            return math.inf
        lr = math.log(self.rho)
        # geometric: scale^-p rho^{-p k0} / (1 - rho^{-p})
        return -power * (math.log(self.scale) + k0 * lr) - math.log1p(-math.exp(-power * lr))

    def to_json(self):
        return {"exp": {"rho": self.rho, "scale": self.scale}}


@dataclass(frozen=True)
class ConstBranch:
    """Tail branch with a constant positive value."""

    value: float

    def __post_init__(self):
        _finite((self.value,), "constant tail branch value")
        if self.value <= 0:
            raise ValueError("constant tail branch needs a positive value")

    def values(self, k):
        return np.full(np.shape(k), self.value, dtype=float)

    def log_values(self, k):
        return np.full(np.shape(k), math.log(self.value), dtype=float)

    def summable(self, power: int) -> bool:
        return False

    def log_recip_tail(self, k0: int, power: int) -> float:
        return math.inf

    def to_json(self):
        return {"const": self.value}


Branch = PolyBranch | ExpBranch | ConstBranch


@dataclass(frozen=True)
class TailRule:
    """Periodic closed-form extension: index ``n`` maps to branch ``n mod P``
    evaluated at ``n // P`` where ``P = len(branches)``."""

    branches: tuple[Branch, ...]

    def __post_init__(self):
        if not self.branches:
            raise ValueError("tail rule needs at least one branch")

    @property
    def period(self) -> int:
        return len(self.branches)

    def to_json(self):
        return {"branches": [b.to_json() for b in self.branches]}

    @staticmethod
    def from_json(obj) -> "TailRule":
        branches = _json_field(obj, "branches", "tail rule")
        if not isinstance(branches, list):
            raise ValueError(f"tail field 'branches' must be a list, got {branches!r}")
        return TailRule(tuple(_branch_from_json(b) for b in branches))


def _branch_from_json(obj) -> Branch:
    if isinstance(obj, dict):
        if "poly" in obj:
            return PolyBranch(tuple(_json_numbers(obj["poly"], "poly")))
        if "exp" in obj:
            rho = _json_number(_json_field(obj["exp"], "rho", "exp branch"), "rho")
            return ExpBranch(rho, _json_number(obj["exp"].get("scale", 1.0), "scale"))
        if "const" in obj:
            return ConstBranch(_json_number(obj["const"], "const"))
    raise ValueError(f"unknown tail branch: {obj!r}")


# parsed-JSON readers: a malformed field is a ValueError that names it


def _json_field(obj, key: str, what: str):
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {obj!r}")
    if key not in obj:
        raise ValueError(f"{what} needs the field {key!r}")
    return obj[key]


def _json_number(value, key: str) -> float:
    try:
        number = float(value) if is_json_number(value) else math.nan
    except OverflowError:  # an integer beyond float range
        number = math.nan
    if not math.isfinite(number):
        raise ValueError(f"field {key!r} must be a finite number, got {value!r}")
    return number


def _json_numbers(value, key: str) -> list[float]:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"field {key!r} must be a list of numbers, got {value!r}")
    return [_json_number(v, key) for v in value]


def _poly_derivative(coeffs):
    return tuple(i * c for i, c in enumerate(coeffs))[1:]


def _logsumexp(a: np.ndarray) -> float:
    a = np.asarray(a, dtype=float)
    hi = np.max(a) if a.size else -math.inf
    if not np.isfinite(hi):
        return float(hi)
    return float(hi + np.log(np.sum(np.exp(a - hi))))


# Suffix sums go a block at a time: one cumsum of exp(x - block max) per
# block instead of a logaddexp (a libm exp and log1p) per entry.  At 10^6
# entries, on a 2-core x86 machine with numpy 2.4, blocks of 64, 128 and 256
# took 13.3, 11.9 and 11.4 ms against 45-65 ms for np.logaddexp.accumulate;
# 64 keeps log-slopes down to -_SUFFIX_SPAN / 63 ~ -7.9 per index on the
# fast path (rho^-n up to rho ~ 2800; 128 would stop at rho ~ 50).
_SUFFIX_BLOCK = 64
# A block is summed this way only while every suffix sum stays above
# exp(-_SUFFIX_SPAN) ~ 7e-218 of its max, well clear of the subnormal range.
_SUFFIX_SPAN = 500.0
# check-w walks log W down from the horizon _CHUNK entries at a time (a
# multiple of _SUFFIX_BLOCK), so that no array as long as the horizon is
# built and a chunk's arrays stay in cache.  On a 2-core x86 machine (2 MB L2
# a core) with numpy 2.4 and glibc's malloc, chunks of 2^15 and 2^16 entries
# page-faulted on every chunk once the heap top was trimmed between chunks
# (about 2400 faults per check at 10^6 in a fresh check-w process); 2^14 did
# not.  check-w --horizon 1000000 on (n+1)^3 took 0.089-0.103 s in process
# at 2^14 against 0.100-0.124 s at 2^15, and the checks of the monopoly-p1
# benchmark took the same time at both.
_CHUNK = 1 << 14


def _log_suffix_sums(x: np.ndarray, log_init: float = -math.inf) -> tuple[np.ndarray, float]:
    """``log(sum_{j >= i} exp(x_j) + exp(log_init))`` for every ``i``, and the
    carry: the log of the whole sum as the chain over the blocks leaves it.

    ``x`` is cut into blocks of ``_SUFFIX_BLOCK`` entries aligned with its
    end.  Each block is shifted by its max, and one reversed cumsum of the
    shifted exponentials gives its suffix sums.  A logaddexp accumulation
    over the block totals, seeded with ``log_init``, gives the sum after each
    block, and one log finishes.  A block whose max is not finite, or whose
    suffix sums could fall below ``exp(-_SUFFIX_SPAN)`` of its max (its last
    entry that far below the max, and the sum after it too), takes the exact
    path: one ``np.logaddexp.accumulate`` over all such blocks at once, each
    seeded with the sum after it.  So do the ``len(x) % _SUFFIX_BLOCK``
    leading entries.  The cumsum adds at most ``_SUFFIX_BLOCK`` terms in a
    row, so the error stays below that of one logaddexp per entry.

    Seeded with the carry, a call on the entries before ``x`` continues the
    chain: where ``x`` holds whole blocks, the two calls give the bits of
    one call over both.
    """
    x = np.asarray(x, dtype=float)
    head, n_blocks = x.size % _SUFFIX_BLOCK, x.size // _SUFFIX_BLOCK
    out = np.empty(x.size)
    carry = log_init
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if n_blocks:
            body = x[head:].reshape(n_blocks, _SUFFIX_BLOCK)
            sums = out[head:].reshape(n_blocks, _SUFFIX_BLOCK)
            top = body.max(axis=1)
            shift = np.where(np.isfinite(top), top, 0.0)[:, None]
            np.subtract(body, shift, out=sums)
            np.exp(sums, out=sums)
            np.cumsum(sums[:, ::-1], axis=1, out=sums[:, ::-1])
            totals = shift[:, 0] + np.log(sums[:, 0])
            chain = np.logaddexp.accumulate(np.concatenate(([log_init], totals[::-1])))
            after, carry = chain[-2::-1], chain[-1]  # the sum after each block, and after them all
            ref = np.maximum(top, after)
            sums *= np.exp(top - ref)[:, None]
            sums += np.exp(after - ref)[:, None]
            np.log(sums, out=sums)
            sums += ref[:, None]
            floor = np.maximum(body[:, -1], after)  # no suffix sum in the block is below exp(floor)
            exact = ~(np.isfinite(top) & (after < math.inf) & (floor >= top - _SUFFIX_SPAN))
            if exact.any():
                rows = np.empty((int(exact.sum()), _SUFFIX_BLOCK + 1))
                rows[:, 0] = after[exact]
                rows[:, 1:] = body[exact, ::-1]
                np.logaddexp.accumulate(rows, axis=1, out=rows)
                sums[exact] = rows[:, :0:-1]
        if head:
            row = np.logaddexp.accumulate(np.concatenate(([carry], x[head - 1 :: -1])))
            out[:head] = row[:0:-1]
            carry = row[-1]
    return out, float(carry)


# ---------------------------------------------------------------------------
# the sequence itself


@dataclass(frozen=True)
class ReinforcementSeq:
    """Immutable reinforcement sequence.  Construct via :func:`make_polynomial`,
    :func:`make_exponential` or :func:`make_table`."""

    kind: str
    coeffs: tuple[float, ...] | None = None
    rho: float | None = None
    table: tuple[float, ...] | None = None
    tail: TailRule | None = None

    # -- unified view: explicit prefix + periodic branch region --------------

    @cached_property
    def _explicit(self) -> tuple[float, ...]:
        return self.table if self.kind == "table" else ()

    @cached_property
    def _branches(self) -> tuple[Branch, ...] | None:
        if self.kind == "polynomial":
            return (PolyBranch(self.coeffs),)
        if self.kind == "exponential":
            return (ExpBranch(self.rho),)
        return self.tail.branches if self.tail is not None else None

    @cached_property
    def domain_start(self) -> int:
        """Smallest n with W(n) > 0."""
        for n in range(len(self._explicit)):
            if self._explicit[n] > 0:
                return n
        base = len(self._explicit)
        if self._branches is None:
            raise ValueError("table sequence with no positive value and no tail rule")
        for n in range(base, base + 10_000):
            if self._value_raw(n) > 0:
                return n
        raise ValueError("no positive weight found in the first 10000 indices")

    @property
    def last_index(self) -> float:
        """The largest n with a weight: the table's last index when no tail
        rule extends it, ``inf`` otherwise."""
        return len(self._explicit) - 1 if self._branches is None else math.inf

    def _value_raw(self, n: int) -> float:
        if n < len(self._explicit):
            return float(self._explicit[n])
        if self._branches is None:
            raise self._past_table(n)
        period = len(self._branches)
        k, r = divmod(n, period)
        return float(self._branches[r].values(k))

    def _past_table(self, n: int) -> ValueError:
        return ValueError(f"W({n}) is outside the table of {len(self._explicit)} values and no tail rule is set")

    # -- evaluation -----------------------------------------------------------

    def value(self, n: int) -> float:
        """W(n).  Values above float range saturate to ``inf``; use
        :meth:`log_value` when the magnitude matters at that scale."""
        if n < self.domain_start:
            raise ValueError(f"W({n}) requested below domain_start={self.domain_start}")
        return self._value_raw(n)

    def log_value(self, n: int) -> float:
        if n < self.domain_start:
            raise ValueError(f"W({n}) requested below domain_start={self.domain_start}")
        return float(self.log_values(range(n, n + 1))[0])

    def log_values(self, ns: range) -> np.ndarray:
        """log W(n) on the step-1 range ``ns`` of indices ``n >= 0``; ``-inf``
        where W(n) == 0.  The table is read through a slice, then each branch
        on its residue class."""
        if not isinstance(ns, range) or ns.step != 1:
            raise ValueError(f"log W is read over a step-1 range, got {ns!r}")
        start, stop = ns.start, ns.stop
        if start < 0:
            raise ValueError(f"W(n) is defined for n >= 0, got n = {start}")
        explicit_len = len(self._explicit)
        branches = self._branches
        cut = min(max(start, explicit_len), stop)  # the first index past the table
        if cut < stop and branches is None:
            raise self._past_table(cut)
        if cut == start and cut < stop and len(branches) == 1:
            return branches[0].log_values(np.arange(start, stop, dtype=float))
        out = np.empty(max(stop - start, 0), dtype=float)
        out[: cut - start] = self._explicit[start:cut]
        with np.errstate(divide="ignore"):
            np.log(out[: cut - start], out=out[: cut - start])
        period = len(branches) if cut < stop else 0
        for r in range(period):
            first = cut + (r - cut) % period  # the first index in branch r's class
            ks = np.arange(first // period, (stop - 1 - r) // period + 1, dtype=float)
            out[first - start :: period] = branches[r].log_values(ks)
        return out

    # -- tail analysis --------------------------------------------------------

    def reciprocal_summable(self, power: int = 1) -> bool | None:
        """Whether sum W(n)^-power converges: True/False, or None if the
        sequence is a finite table with no tail rule."""
        if self._branches is None:
            return None
        return all(b.summable(power) for b in self._branches)

    def log_recip_tail(self, n: int, power: int = 1) -> float | None:
        """log of ``sum_{k >= n} W(k)^{-power}``; ``inf`` when the sum
        diverges, ``None`` when no tail rule makes it computable."""
        summable = self.reciprocal_summable(power)
        if summable is None:
            return None
        if not summable:
            return math.inf
        parts = []
        explicit_len = len(self._explicit)
        lo = max(n, self.domain_start)
        if lo < explicit_len:
            parts.append(_logsumexp(-power * self.log_values(range(lo, explicit_len))))
        base = max(lo, explicit_len)
        period = len(self._branches)
        for r, branch in enumerate(self._branches):
            # smallest k with period*k + r >= base
            k0 = max(0, -(-(base - r) // period))
            parts.append(branch.log_recip_tail(k0, power))
        return float(np.logaddexp.reduce(parts))

    def non_decreasing_up_to(self, nmax: int) -> bool:
        """Numeric monotonicity check of W on [domain_start, nmax]."""
        if self.kind in ("polynomial", "exponential"):
            return True  # nonnegative coefficients / rho > 1
        lw = self.log_values(range(self.domain_start, nmax + 1))
        return bool(np.all(np.diff(lw) >= -1e-12))

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        obj: dict = {"kind": self.kind}
        if self.kind == "polynomial":
            obj["coeffs"] = list(self.coeffs)
        elif self.kind == "exponential":
            obj["rho"] = self.rho
        else:
            obj["table"] = list(self.table)
            obj["tail"] = self.tail.to_json() if self.tail is not None else None
        return obj

    @staticmethod
    def from_json(obj: dict) -> "ReinforcementSeq":
        kind = _json_field(obj, "kind", "sequence")
        if kind == "polynomial":
            return make_polynomial(_json_numbers(_json_field(obj, "coeffs", "polynomial"), "coeffs"))
        if kind == "exponential":
            return make_exponential(_json_number(_json_field(obj, "rho", "exponential"), "rho"))
        if kind == "table":
            tail = obj.get("tail")
            return make_table(
                _json_numbers(obj.get("table", []), "table"),
                TailRule.from_json(tail) if tail else None,
            )
        raise ValueError(f"unknown sequence kind: {kind!r}")


# ---------------------------------------------------------------------------
# constructors


def make_polynomial(coeffs) -> ReinforcementSeq:
    """Sequence ``W(n) = a_0 + a_1 n + ... + a_m n^m`` from ``[a_0..a_m]``."""
    coeffs = _finite(coeffs, "polynomial coefficients")
    if len(coeffs) < 1:
        raise ValueError("at least one coefficient required")
    if coeffs[-1] <= 0:
        raise ValueError("leading coefficient must be positive")
    if any(c < 0 for c in coeffs[:-1]):
        raise ValueError("coefficients must be nonnegative")
    seq = ReinforcementSeq(kind="polynomial", coeffs=coeffs)
    seq.domain_start  # force validation
    return seq


def make_exponential(rho: float) -> ReinforcementSeq:
    """Sequence ``W(n) = rho^n`` with ``rho > 1``."""
    (rho,) = _finite([rho], "rho")
    if rho <= 1.0:
        raise ValueError(f"rho must exceed 1, got {rho}")
    return ReinforcementSeq(kind="exponential", rho=rho)


def make_table(values, tail: TailRule | None = None) -> ReinforcementSeq:
    """Sequence from explicit ``values`` with an optional periodic tail rule.

    Values may be zero before the first positive entry; every value beyond
    it must be positive.  With an empty ``values`` list the tail rule covers
    the whole index range.
    """
    values = _finite(values, "table values")
    if not values and tail is None:
        raise ValueError("table sequence needs values or a tail rule")
    if any(v < 0 for v in values):
        raise ValueError("table values must be nonnegative")
    seq = ReinforcementSeq(kind="table", table=values, tail=tail)
    ds = seq.domain_start
    if any(v <= 0 for v in values[ds:]):
        raise ValueError("table values beyond domain_start must be positive")
    if tail is not None:
        _validate_tail_positive(seq, tail, len(values))
    return seq


def _validate_tail_positive(seq: ReinforcementSeq, tail: TailRule, base: int) -> None:
    period = tail.period
    start = max(base, seq.domain_start)
    for r, branch in enumerate(tail.branches):
        k0 = max(0, -(-(start - r) // period))
        if isinstance(branch, PolyBranch):
            # q(k) > 0 for k >= 1 + max(|a_i| : a_i < 0) / a_m: scan the values before that
            positive_from = 1 + max((-c for c in branch.coeffs if c < 0), default=0.0) / branch.coeffs[-1]
            if positive_from + 2 - k0 > 1e6:
                raise ValueError(f"tail branch {r}: checking it positive needs more than 1000000 values")
            ks = np.arange(k0, max(k0 + 4, math.ceil(positive_from) + 2))
            if np.any(branch.values(ks) <= 0):
                raise ValueError(f"tail branch {r} takes a nonpositive value beyond domain_start")


# ---------------------------------------------------------------------------
# remainders and condition checks


@dataclass(frozen=True)
class ConditionVerdict:
    condition: str  # summable | variation_bound | remainder_bound | rem_ratio | squared_rem_ratio
    horizon: int
    estimate: float
    verdict: str  # holds | fails | inconclusive

    def to_json(self) -> dict:
        return json_fields(self)


def remainder(seq: ReinforcementSeq, n: int, horizon: int = DEFAULT_HORIZON) -> float:
    """``Rem(n) = sum_{i >= n} 1/W(i)``: truncated sum to ``horizon`` plus the
    analytic tail when the kind provides one.  Raises
    :class:`ConditionViolation` when the tail is certainly divergent."""
    value, _ = remainder_detail(seq, n, horizon)
    return value


def remainder_detail(seq: ReinforcementSeq, n: int, horizon: int = DEFAULT_HORIZON) -> tuple[float, bool]:
    """Like :func:`remainder` but also reports whether the value includes a
    guaranteed analytic bound for the part beyond the horizon."""
    if n < seq.domain_start:
        raise ValueError(f"remainder start {n} below domain_start={seq.domain_start}")
    if horizon < n:
        raise ValueError("horizon must be >= n")
    summable = seq.reciprocal_summable()
    if summable is False:
        raise ConditionViolation("reciprocal sum diverges for this sequence")
    partials = (_recip_sum(logw) for _, logw in _log_w_chunks(seq, n, horizon + 1))
    return _linear_rem(seq, partials, horizon, summable is True), summable is True


def _exp(x: float) -> float:
    """``math.exp(x)``, or ``inf`` where that leaves float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _log_w_chunks(seq: ReinforcementSeq, start: int, stop: int, overlap: int = 0):
    """``(lo, log W[lo : hi + overlap])`` for chunks ``[lo, hi)`` that cover
    ``[start, stop)`` from ``stop`` down, each ``_CHUNK`` entries long but the
    last.  They are aligned to ``stop``, so a scan that ends there is cut into
    ``_log_suffix_sums``'s blocks at the same indices chunk by chunk as whole."""
    for hi in range(stop, start, -_CHUNK):
        lo = max(hi - _CHUNK, start)
        yield lo, seq.log_values(range(lo, hi + overlap))


def _recip_sum(logw: np.ndarray) -> float:
    """``sum 1/W`` over a chunk of ``log W``; ``inf`` beyond float range."""
    recip = np.negative(logw)
    with np.errstate(over="ignore"):
        return float(np.sum(np.exp(recip, out=recip)))


def _linear_rem(seq: ReinforcementSeq, partials, stop: int, tail_known: bool) -> float:
    """The sum of ``partials``, the chunk sums of ``1/W`` over a scan that
    ends at ``stop``, plus the analytic tail beyond it when that is known."""
    partial = sum(partials, 0.0)
    return (partial + _exp(seq.log_recip_tail(stop + 1))) if tail_known else partial


class _RunningSup:
    """The sup of values over ``[start, horizon]`` fed a chunk at a time, and
    the sup over the first tenth of that range."""

    def __init__(self, start: int, horizon: int):
        if horizon < start:
            raise ValueError(f"horizon must be at least {start} for this sequence, got {horizon}")
        self.size = horizon - start + 1
        self.early_stop = start + max(1, self.size // 10)
        self.tops: list[float] = []
        self.early_tops: list[float] = []

    def add(self, lo: int, values: np.ndarray) -> None:
        """Take ``values`` at the indices from ``lo`` on."""
        self.tops.append(values.max())
        if lo < self.early_stop:
            self.early_tops.append(values[: self.early_stop - lo].max())

    def growth(self) -> tuple[float, float]:
        """The sup, and the relative growth of the running sup of
        ``exp(values)`` after the first tenth (``nan`` for an infinite sup)."""
        sup_all, sup_early = float(np.max(self.tops)), float(np.max(self.early_tops))
        if not (math.isfinite(sup_all) and math.isfinite(sup_early)):
            return sup_all, math.nan
        return sup_all, _exp(sup_all - sup_early) - 1.0


def _verdict(holds: bool, fails: bool) -> str:
    return "holds" if holds else "fails" if fails else "inconclusive"


def _sup_verdict(condition: str, horizon: int, running: _RunningSup, tail_known: bool) -> ConditionVerdict:
    """Sup-type verdict: the estimate is the sup of ``exp(values)``; holds
    when the running sup stopped moving over the final decade of the scan,
    fails when it is still clearly growing."""
    sup, growth = running.growth()
    with np.errstate(over="ignore"):  # numpy's exp, not math's: they can differ in the last bit
        estimate = float(np.exp(sup))
    long_enough = running.size >= 10
    verdict = _verdict(long_enough and growth < _PLATEAU_RTOL and tail_known, long_enough and growth > 0.5)
    return ConditionVerdict(condition, horizon, estimate, verdict)


def check_strong(seq: ReinforcementSeq, horizon: int = DEFAULT_HORIZON, tol: float = 1e-9) -> ConditionVerdict:
    """Reciprocal summability check (sum over n >= 1 of 1/W(n)).

    Kinds with a tail rule are decided analytically.  A finite table can
    still be certified divergent when ``W(n) <= c n`` along the horizon
    (the running sup of ``W(n)/n`` plateaus within ``tol`` relative change
    over the final decade); otherwise the truncated sum is reported as
    inconclusive rather than guessed.  The estimate adds up ``1/W`` a chunk
    of ``_CHUNK`` entries at a time from the horizon down, and the
    certificate keeps a running sup over the same chunks.
    """
    if horizon < 10:
        raise ValueError("horizon must be at least 10")
    start, summable = max(1, seq.domain_start), seq.reciprocal_summable()
    w_over_n = _RunningSup(start, horizon) if summable is None else None  # log(W(n)/n), a finite table's certificate
    partials = []
    for lo, logw in _log_w_chunks(seq, start, horizon + 1):
        partials.append(_recip_sum(logw))
        if w_over_n is not None:
            w_over_n.add(lo, logw - np.log(np.arange(lo, lo + logw.size)))
    certified = w_over_n is not None and w_over_n.growth()[1] < max(tol, 1e-12)
    verdict = _verdict(summable is True, summable is False or certified)
    return ConditionVerdict("summable", horizon, _linear_rem(seq, partials, horizon, summable is True), verdict)


def _log_sub(hi: float, lo: float) -> float:
    """log(exp(hi) - exp(lo)) for hi >= lo."""
    if hi == lo:
        return -math.inf
    return hi + math.log1p(-math.exp(lo - hi))


def _tail_settled(seq: ReinforcementSeq, start: int, stop: int) -> bool:
    """Whether ``1/W(k) - 1/W(k+1)`` keeps its sign on each residue class of
    the tail's period over the final tenth (at least 16 steps) of the scan
    ``[start, stop)``, read a chunk at a time."""
    width = min(stop - start - 1, max(16, (stop - start - 1) // 10))
    period = len(seq._branches)
    first = [None] * period  # each class's sign, from the first chunk that has one
    for lo, logw in _log_w_chunks(seq, stop - 1 - width, stop - 1, overlap=1):
        signs = np.sign(np.diff(logw))  # at k = lo, lo + 1, ...
        for r in range(period):
            lane = signs[(r - lo) % period :: period]
            if lane.size and first[r] is None:
                first[r] = lane[0]
            if not np.all(lane == first[r]):
                return False
    return True


def _log_variation_tail(seq: ReinforcementSeq, from_n: int) -> float:
    """log of ``sum_{k >= from_n} |1/W(k) - 1/W(k+1)|`` for a sequence whose
    reciprocal sum converges.

    For the built-in monotone kinds the sum telescopes exactly.  For table
    tails it is assembled per residue class: beyond the branches' sign-settling
    range each pairwise difference series has constant sign, so the sum of
    absolute differences equals the absolute difference of the two tail sums
    (``_tail_settled`` tests that range).
    """
    if seq.kind in ("polynomial", "exponential"):
        return -seq.log_value(from_n)
    period = len(seq._branches)
    parts = []
    for r in range(period):
        # smallest k >= from_n with k % period == r, then its branch index j0
        k_first = from_n + (r - from_n) % period
        j0 = k_first // period
        nxt = (r + 1) % period
        shift = 1 if r == period - 1 else 0
        ta = seq._branches[r].log_recip_tail(j0, 1)
        tb = seq._branches[nxt].log_recip_tail(j0 + shift, 1)
        parts.append(_log_sub(max(ta, tb), min(ta, tb)))
    return float(np.logaddexp.reduce(parts))


def check_variation_bound(seq: ReinforcementSeq, horizon: int = DEFAULT_HORIZON) -> ConditionVerdict:
    """sup_n W(n) * sum_{k>=n} |1/W(k) - 1/W(k+1)| over the scanned range.

    A table's tail settles first, in a walk over the final tenth.  The main
    walk then goes down from the horizon a chunk at a time, each chunk one
    entry longer than it steps, and carries the suffix sum across chunks."""
    start = max(1, seq.domain_start)
    running = _RunningSup(start, horizon)
    log_tail = None
    if seq.reciprocal_summable() is True and (seq.kind != "table" or _tail_settled(seq, start, horizon + 2)):
        log_tail = _log_variation_tail(seq, horizon + 2)
    carry = -math.inf if log_tail is None else log_tail
    for lo, logw in _log_w_chunks(seq, start, horizon + 1, overlap=1):
        # log |1/W(k) - 1/W(k+1)| = hi + log1p(-exp(lo - hi)) with hi >= lo the two logs of 1/W, built in place
        logdiff = np.minimum(logw[:-1], logw[1:])
        gap = np.maximum(logw[:-1], logw[1:])
        np.subtract(logdiff, gap, out=gap)  # lo - hi
        np.negative(logdiff, out=logdiff)  # hi
        with np.errstate(divide="ignore", invalid="ignore"):
            np.exp(gap, out=gap)
            np.negative(gap, out=gap)
            np.log1p(gap, out=gap)
            logdiff += gap
        logdiff[np.isnan(logdiff)] = -np.inf
        logv, carry = _log_suffix_sums(logdiff, carry)
        logv += logw[:-1]  # times W(n)
        running.add(lo, logv)
    return _sup_verdict("variation_bound", horizon, running, log_tail is not None)


def check_remainder_bound(seq: ReinforcementSeq, horizon: int = DEFAULT_HORIZON) -> ConditionVerdict:
    """sup_n W(n) * Rem(n) over the scanned range, a chunk at a time from the
    horizon down, the suffix sum carried across chunks."""
    start = max(1, seq.domain_start)
    running = _RunningSup(start, horizon)
    tail_known = seq.reciprocal_summable() is True
    carry = seq.log_recip_tail(horizon + 1) if tail_known else -math.inf
    for lo, logw in _log_w_chunks(seq, start, horizon + 1):
        recip = np.negative(logw, out=logw)  # log 1/W
        log_rem, carry = _log_suffix_sums(recip, carry)
        log_rem -= recip  # times W(n)
        running.add(lo, log_rem)
    return _sup_verdict("remainder_bound", horizon, running, tail_known)


def _log_rems_at(seq: ReinforcementSeq, start: int, horizon: int, points) -> dict[int, np.ndarray]:
    """``log sum_{k >= n} W(k)^-power`` for power 1 and 2 at each ``n`` of
    ``points`` (in ``[start, horizon]``), with the analytic tails beyond the
    horizon when the sum is known to converge.  One walk down adds the chunks
    up, each cut at the points in it and each piece summed under its own max."""
    tail_known = seq.reciprocal_summable() is True
    carry = np.array([seq.log_recip_tail(horizon + 1, p) if tail_known else -math.inf for p in (1, 2)])
    rems = {}
    for lo, logw in _log_w_chunks(seq, start, horizon + 1):
        hi = logw.size
        for n in sorted({lo, *(n for n in points if lo <= n < lo + hi)}, reverse=True):
            piece = np.negative(logw[n - lo : hi])
            top = piece.max()
            if math.isfinite(top):
                piece -= top
                np.exp(piece, out=piece)
                total = np.sum(piece)
                piece *= piece  # not np.dot: BLAS threads cost more than the sum
                logs = np.log([total, np.sum(piece)]) + [top, 2.0 * top]
            else:
                logs = np.array([top, 2.0 * top])
            carry = np.logaddexp(carry, logs)
            rems[n], hi = carry, n - lo
    return {n: rems[n] for n in points}


def check_mdrem_conditions(
    seq: ReinforcementSeq,
    horizons=(100, 1_000, 10_000),
    K_list=(2, 4, 8, 16),
    horizon: int = DEFAULT_HORIZON,
) -> tuple[ConditionVerdict, ConditionVerdict]:
    """Remainder decay checks: ``Rem(K n)/Rem(n)`` shrinking as K grows, and
    ``(sum_{i>=n} W(i)^-2) / Rem(n)^2`` vanishing along ``horizons``.

    Both remainders are read at the ``n`` and ``K n`` these need and nowhere
    else, from one walk down from the horizon (at least 4 ``K n``)."""
    horizons = sorted(int(h) for h in horizons)
    K_list = sorted(int(k) for k in K_list)
    if not horizons or not K_list:
        raise ValueError("horizons and K_list must be non-empty")
    need = K_list[-1] * horizons[-1]
    if horizon < 4 * need:
        horizon = 4 * need
    if seq.reciprocal_summable() is False:
        raise ConditionViolation("remainder conditions are undefined for a divergent tail")
    start = max(1, seq.domain_start)
    rems = _log_rems_at(seq, start, horizon, {max(k * n, start) for k in (1, *K_list) for n in horizons})

    def lrem(n, power):
        return float(rems[max(n, start)][power - 1])

    # condition (i): worst Rem(Kn)/Rem(n) over the n grid, per K
    ratios_by_k = [
        max(_exp(lrem(k * n, 1) - lrem(n, 1)) for n in horizons)
        for k in K_list
    ]
    last = ratios_by_k[-1]
    decreasing = all(b <= a * (1 + 1e-9) for a, b in zip(ratios_by_k, ratios_by_k[1:]))
    tail_known = seq.reciprocal_summable() is True
    verdict1 = _verdict(last < 0.05 and decreasing and tail_known, last >= 0.2)
    rem_ratio = ConditionVerdict("rem_ratio", horizons[-1], last, verdict1)

    # condition (ii): squared-reciprocal tail over Rem^2 along the n grid
    r2 = [_exp(lrem(n, 2) - 2.0 * lrem(n, 1)) for n in horizons]
    decr2 = all(b < a for a, b in zip(r2, r2[1:]))
    verdict2 = _verdict(decr2 and r2[-1] <= 0.25 * r2[0] and tail_known, r2[-1] >= 0.8 * r2[0])
    sq_ratio = ConditionVerdict("squared_rem_ratio", horizons[-1], r2[-1], verdict2)
    return rem_ratio, sq_ratio


# ---------------------------------------------------------------------------
# weight lookup tables for the simulators


def log_weight_table(seq: ReinforcementSeq, nmax: int) -> np.ndarray:
    """``log W(n)`` for n = 0..nmax: ``-inf`` below ``domain_start``, checked finite from it on."""
    table = np.full(nmax + 1, -np.inf)
    ds = seq.domain_start
    if ds <= nmax:
        table[ds:] = seq.log_values(range(ds, nmax + 1))
        if not np.isfinite(table[ds:]).all():
            raise ConditionViolation(f"log W(n) is not finite at n = {ds + np.isfinite(table[ds:]).argmin()}")
    return table

