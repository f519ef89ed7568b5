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
whether ``W(n) * sum_k |1/W(kis) - 1/W(k+1)|`` stays bounded, whether
``W(n) * Rem(n)`` stays bounded, and whether the remainder-ratio decay
conditions hold.  These conditions are asymptotic statements; the verdicts
are explicitly finite-horizon heuristics (a plateau detector decides
"holds" for sup-type quantities) and report ``inconclusive`` whenever the
truncated computation cannot separate the outcomes.

Sequences are immutable after construction and safe for concurrent reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConditionViolation
from .quadrature import adaptive_simpson

DEFAULT_HORIZON = 1_000_000
_PLATEAU_RTOL = 1e-6  # sup considered settled when it moved less than this
_EM_EXPLICIT_TERMS = 512  # explicit terms before the Euler-Maclaurin tail


def _horner(coeffs, x):
    """Evaluate a_0 + a_1 x + ... + a_m x^m (vectorized in x)."""
    result = np.full_like(np.asarray(x, dtype=float), coeffs[-1])
    for c in reversed(coeffs[:-1]):
        result = result * x + c
    return result


# ---------------------------------------------------------------------------
# tail-rule branches


@dataclass(frozen=True)
class PolyBranch:
    """Tail branch ``k -> a_0 + a_1 k + ... + a_m k^m`` (a_m > 0)."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
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
        out = np.empty(k.shape, dtype=float)
        at0 = k == 0
        with np.errstate(divide="ignore"):
            out[at0] = np.log(self.coeffs[0]) if len(self.coeffs) else -np.inf
        kk = k[~at0]
        # W(k) = k^m * (a_m + a_{m-1}/k + ... + a_0/k^m); the inner sum is
        # positive wherever W is, so the log never sees an overflowed value.
        inner = _horner(tuple(reversed(self.coeffs)), 1.0 / kk)
        out[~at0] = self.degree * np.log(kk) + np.log(inner)
        return out

    def summable(self, power: int) -> bool:
        return self.degree * power >= 2

    def log_recip_tail(self, k0: int, power: int) -> float:
        """log of ``sum_{k >= k0} branch(k)^{-power}`` (``inf`` if divergent)."""
        if not self.summable(power):
            return math.inf
        k0 = max(k0, self._positive_from)
        ks = np.arange(k0, k0 + _EM_EXPLICIT_TERMS)
        log_explicit = _logsumexp(-power * self.log_values(ks))
        big_k = k0 + _EM_EXPLICIT_TERMS
        log_tail = self._log_em_tail(big_k, power)
        return np.logaddexp(log_explicit, log_tail)

    def _log_em_tail(self, big_k: int, power: int) -> float:
        """Euler-Maclaurin estimate of log sum_{k >= K} q(k)^{-power}."""
        m, coeffs = self.degree, self.coeffs
        mp = m * power
        # integral: K^{1-mp} * J with J = int_0^1 t^{mp-2} / r(t)^power dt,
        # r(t) = a_m + a_{m-1} t/K + ... (positive near t=0; K is beyond the
        # Cauchy bound so q, hence r, is positive on the whole range)
        rev = tuple(c / big_k ** i for i, c in enumerate(reversed(coeffs)))

        def reduced(t):
            return t ** (mp - 2) / _horner(rev, t) ** power

        j_val = adaptive_simpson(reduced, 0.0, 1.0, tol=1e-14)
        log_integral = (1 - mp) * math.log(big_k) + math.log(j_val)
        log_qk = float(self.log_values(np.array([big_k]))[0])
        log_half = math.log(0.5) - power * log_qk
        base = np.logaddexp(log_integral, log_half)
        # subtract f'(K)/12 with f = q^{-power}; q'(K) > 0 this far out
        dq = _poly_derivative(coeffs)
        qprime = float(_horner(dq, float(big_k))) if dq else 0.0
        if qprime > 0:
            log_corr = math.log(power * qprime / 12.0) - (power + 1) * log_qk
            base += math.log1p(-math.exp(log_corr - base))
        return float(base)

    @cached_property
    def _positive_from(self) -> int:
        # Cauchy bound: q(k) > 0 for k beyond 1 + max |a_i|/a_m
        return 1 + math.ceil(max(abs(c) for c in self.coeffs) / self.coeffs[-1])

    def to_json(self):
        return {"poly": list(self.coeffs)}


@dataclass(frozen=True)
class ExpBranch:
    """Tail branch ``k -> scale * rho^k`` (both positive)."""

    rho: float
    scale: float = 1.0

    def __post_init__(self):
        if self.rho <= 0 or self.scale <= 0:
            raise ValueError("exponential tail branch needs rho > 0 and scale > 0")

    def values(self, k):
        with np.errstate(over="ignore"):
            return self.scale * np.exp(np.asarray(k, dtype=float) * math.log(self.rho))

    def log_values(self, k):
        return math.log(self.scale) + np.asarray(k, dtype=float) * math.log(self.rho)

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
        return TailRule(tuple(_branch_from_json(b) for b in obj["branches"]))


def _branch_from_json(obj) -> Branch:
    if "poly" in obj:
        return PolyBranch(tuple(float(c) for c in obj["poly"]))
    if "exp" in obj:
        return ExpBranch(float(obj["exp"]["rho"]), float(obj["exp"].get("scale", 1.0)))
    if "const" in obj:
        return ConstBranch(float(obj["const"]))
    raise ValueError(f"unknown tail branch: {obj!r}")


def _poly_derivative(coeffs):
    return tuple(i * c for i, c in enumerate(coeffs))[1:]


def _logsumexp(a: np.ndarray) -> float:
    a = np.asarray(a, dtype=float)
    hi = np.max(a) if a.size else -math.inf
    if not np.isfinite(hi):
        return float(hi)
    return float(hi + np.log(np.sum(np.exp(a - hi))))


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

    def _value_raw(self, n: int) -> float:
        if n < len(self._explicit):
            return float(self._explicit[n])
        if self._branches is None:
            raise ValueError(f"W({n}) is outside the table and no tail rule is set")
        period = len(self._branches)
        k, r = divmod(n, period)
        return float(self._branches[r].values(k))

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
        return float(self.log_values(np.array([n]))[0])

    def log_values(self, ns) -> np.ndarray:
        """log W(n) elementwise; ``-inf`` where W(n) == 0."""
        return self._values_dispatch(ns, log=True)

    def values(self, ns) -> np.ndarray:
        """W(n) elementwise in linear scale (``inf`` beyond float range)."""
        return self._values_dispatch(ns, log=False)

    def _values_dispatch(self, ns, log: bool) -> np.ndarray:
        ns = np.asarray(ns)
        explicit_len = len(self._explicit)
        branches = self._branches
        if branches is not None and len(branches) == 1 and ns.min(initial=explicit_len) >= explicit_len:
            # every index is in a one-branch tail, which is evaluated at n itself
            vals = branches[0].log_values(ns) if log else branches[0].values(ns)
            return np.asarray(vals, dtype=float)
        out = np.empty(ns.shape, dtype=float)
        exp_mask = ns < explicit_len
        if exp_mask.any():
            vals = np.asarray(self._explicit, dtype=float)[ns[exp_mask]]
            if log:
                with np.errstate(divide="ignore"):
                    vals = np.log(vals)
            out[exp_mask] = vals
        rest = ns[~exp_mask]
        if rest.size:
            if self._branches is None:
                raise ValueError("evaluation beyond the table requires a tail rule")
            period = len(self._branches)
            ks, rs = np.divmod(rest, period)
            sub = np.empty(rest.shape, dtype=float)
            for r, branch in enumerate(self._branches):
                sel = rs == r
                if sel.any():
                    sub[sel] = branch.log_values(ks[sel]) if log else branch.values(ks[sel])
            out[~exp_mask] = sub
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
        if n < explicit_len:
            lo = max(n, self.domain_start)
            ks = np.arange(lo, explicit_len)
            if ks.size:
                parts.append(_logsumexp(-power * self.log_values(ks)))
        base = max(n, explicit_len)
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
        ns = np.arange(self.domain_start, nmax + 1)
        lw = self.log_values(ns)
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
        kind = obj.get("kind")
        if kind == "polynomial":
            return make_polynomial(obj["coeffs"])
        if kind == "exponential":
            return make_exponential(obj["rho"])
        if kind == "table":
            tail = obj.get("tail")
            return make_table(
                obj.get("table", []),
                TailRule.from_json(tail) if tail else None,
            )
        raise ValueError(f"unknown sequence kind: {kind!r}")


# ---------------------------------------------------------------------------
# constructors


def make_polynomial(coeffs) -> ReinforcementSeq:
    """Sequence ``W(n) = a_0 + a_1 n + ... + a_m n^m`` from ``[a_0..a_m]``."""
    coeffs = tuple(float(c) for c in coeffs)
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
    rho = float(rho)
    if rho <= 1.0:
        raise ValueError(f"rho must exceed 1, got {rho}")
    return ReinforcementSeq(kind="exponential", rho=rho)


def make_table(values, tail: TailRule | None = None) -> ReinforcementSeq:
    """Sequence from explicit ``values`` with an optional periodic tail rule.

    Values may be zero before the first positive entry; every value beyond
    it must be positive.  With an empty ``values`` list the tail rule covers
    the whole index range.
    """
    values = tuple(float(v) for v in values)
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
            ks = np.arange(k0, max(k0 + 4, branch._positive_from + 2))
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
        return {
            "condition": self.condition,
            "horizon": self.horizon,
            "estimate": self.estimate,
            "verdict": self.verdict,
        }


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
    ns = np.arange(n, horizon + 1)
    partial = float(np.sum(np.exp(-seq.log_values(ns))))
    if summable is None:
        return partial, False
    tail = seq.log_recip_tail(horizon + 1)
    return partial + math.exp(tail), True


def check_strong(seq: ReinforcementSeq, horizon: int = DEFAULT_HORIZON, tol: float = 1e-9) -> ConditionVerdict:
    """Reciprocal summability check (sum over n >= 1 of 1/W(n)).

    Kinds with a tail rule are decided analytically.  A finite table can
    still be certified divergent when ``W(n) <= c n`` along the horizon
    (the running sup of ``W(n)/n`` plateaus within ``tol`` relative change
    over the final decade); otherwise the truncated sum is reported as
    inconclusive rather than guessed.
    """
    if horizon < 10:
        raise ValueError("horizon must be at least 10")
    start = max(1, seq.domain_start)
    ns = np.arange(start, horizon + 1)
    logw = seq.log_values(ns)
    partial = float(np.sum(np.exp(-logw)))
    summable = seq.reciprocal_summable()
    if summable is True:
        estimate = partial + math.exp(seq.log_recip_tail(horizon + 1))
        verdict = "holds"
    elif summable is False:
        estimate, verdict = partial, "fails"
    else:
        estimate, verdict = partial, "inconclusive"
        growth = logw - np.log(ns)  # log of W(n)/n
        sup_all = float(np.max(growth))
        sup_early = float(np.max(growth[: max(1, growth.size // 10)]))
        if math.exp(sup_all - sup_early) - 1.0 < max(tol, 1e-12):
            verdict = "fails"
    return ConditionVerdict("summable", horizon, estimate, verdict)


def _plateau_verdict(log_estimates: np.ndarray, tail_known: bool) -> str:
    """Sup-type verdict: holds when the running sup stopped moving over the
    final decade of the scan, fails when it is still clearly growing."""
    n = log_estimates.size
    if n < 10:
        return "inconclusive"
    sup_all = float(np.max(log_estimates))
    sup_early = float(np.max(log_estimates[: max(1, n // 10)]))
    if not np.isfinite(sup_all) or not np.isfinite(sup_early):
        return "inconclusive"
    growth = math.exp(sup_all - sup_early) - 1.0
    if growth < _PLATEAU_RTOL:
        return "holds" if tail_known else "inconclusive"
    if growth > 0.5:
        return "fails"
    return "inconclusive"


def _log_sub(hi: float, lo: float) -> float:
    """log(exp(hi) - exp(lo)) for hi >= lo."""
    if hi == lo:
        return -math.inf
    return hi + math.log1p(-math.exp(lo - hi))


def _log_variation_tail(seq: ReinforcementSeq, from_n: int, sign_steps: np.ndarray) -> float | None:
    """log of ``sum_{k >= from_n} |1/W(k) - 1/W(k+1)|`` for a sequence whose
    reciprocal sum converges.

    For the built-in monotone kinds the sum telescopes exactly.  For table
    tails it is assembled per residue class: beyond the branches' sign-settling
    range each pairwise difference series has constant sign, so the sum of
    absolute differences equals the absolute difference of the two tail sums.
    ``sign_steps`` carries the signs of ``1/W(k) - 1/W(k+1)`` over the tail
    end of the numeric scan; a sign flip there means the series has not
    settled and the tail cannot be trusted (returns None).
    """
    if seq.kind in ("polynomial", "exponential"):
        return float(-seq.log_values(np.array([from_n]))[0])
    window = sign_steps[-max(16, sign_steps.size // 10):]
    period = len(seq._branches)
    lanes_settled = all(
        lane.size == 0 or np.all(lane == lane[0])
        for lane in (window[off::period] for off in range(period))
    )
    if not lanes_settled:
        return None
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
    """sup_n W(n) * sum_{k>=n} |1/W(k) - 1/W(k+1)| over the scanned range."""
    start = max(1, seq.domain_start)
    ns = np.arange(start, horizon + 2)
    logw = seq.log_values(ns)
    logr = -logw
    hi = np.maximum(logr[:-1], logr[1:])
    lo = np.minimum(logr[:-1], logr[1:])
    with np.errstate(divide="ignore", invalid="ignore"):
        logdiff = hi + np.log1p(-np.exp(lo - hi))
    logdiff = np.where(np.isnan(logdiff), -np.inf, logdiff)

    logv = np.logaddexp.accumulate(logdiff[::-1])[::-1]
    tail_known = False
    if seq.reciprocal_summable() is True:
        signs = np.sign(logr[:-1] - logr[1:]).astype(np.int8)
        log_tail = _log_variation_tail(seq, horizon + 2, signs)
        if log_tail is not None:
            logv = np.logaddexp(logv, log_tail)
            tail_known = True
    log_estimates = logw[:-1] + logv
    with np.errstate(over="ignore"):
        estimate = float(np.exp(np.max(log_estimates)))
    return ConditionVerdict(
        "variation_bound", horizon, estimate, _plateau_verdict(log_estimates, tail_known)
    )


def check_remainder_bound(seq: ReinforcementSeq, horizon: int = DEFAULT_HORIZON) -> ConditionVerdict:
    """sup_n W(n) * Rem(n) over the scanned range."""
    start = max(1, seq.domain_start)
    ns = np.arange(start, horizon + 1)
    logw = seq.log_values(ns)
    log_rem = np.logaddexp.accumulate(-logw[::-1])[::-1]
    summable = seq.reciprocal_summable()
    tail_known = summable is True
    if tail_known:
        log_rem = np.logaddexp(log_rem, seq.log_recip_tail(horizon + 1))
    log_estimates = logw + log_rem
    with np.errstate(over="ignore"):
        estimate = float(np.exp(np.max(log_estimates)))
    return ConditionVerdict(
        "remainder_bound", horizon, estimate, _plateau_verdict(log_estimates, tail_known)
    )


def check_mdrem_conditions(
    seq: ReinforcementSeq,
    horizons=(100, 1_000, 10_000),
    K_list=(2, 4, 8, 16),
    horizon: int = DEFAULT_HORIZON,
) -> tuple[ConditionVerdict, ConditionVerdict]:
    """Remainder decay checks: ``Rem(K n)/Rem(n)`` shrinking as K grows, and
    ``(sum_{i>=n} W(i)^-2) / Rem(n)^2`` vanishing along ``horizons``."""
    horizons = sorted(int(h) for h in horizons)
    K_list = sorted(int(k) for k in K_list)
    if not horizons or not K_list:
        raise ValueError("horizons and K_list must be non-empty")
    need = K_list[-1] * horizons[-1]
    if horizon < 4 * need:
        horizon = 4 * need
    start = max(1, seq.domain_start)
    summable = seq.reciprocal_summable()
    if summable is False:
        raise ConditionViolation("remainder conditions are undefined for a divergent tail")
    ns = np.arange(start, horizon + 1)
    logw = seq.log_values(ns)
    log_rem = np.logaddexp.accumulate(-logw[::-1])[::-1]
    log_rem2 = np.logaddexp.accumulate(-2.0 * logw[::-1])[::-1]
    tail_known = summable is True
    if tail_known:
        log_rem = np.logaddexp(log_rem, seq.log_recip_tail(horizon + 1, 1))
        log_rem2 = np.logaddexp(log_rem2, seq.log_recip_tail(horizon + 1, 2))

    def lrem(n, arr):
        idx = max(n, start) - start
        return float(arr[idx])

    # condition (i): worst Rem(Kn)/Rem(n) over the n grid, per K
    ratios_by_k = [
        max(math.exp(lrem(k * n, log_rem) - lrem(n, log_rem)) for n in horizons)
        for k in K_list
    ]
    last = ratios_by_k[-1]
    decreasing = all(b <= a * (1 + 1e-9) for a, b in zip(ratios_by_k, ratios_by_k[1:]))
    if last < 0.05 and decreasing and tail_known:
        verdict1 = "holds"
    elif last >= 0.2:
        verdict1 = "fails"
    else:
        verdict1 = "inconclusive"
    rem_ratio = ConditionVerdict("rem_ratio", horizons[-1], last, verdict1)

    # condition (ii): squared-reciprocal tail over Rem^2 along the n grid
    r2 = [math.exp(lrem(n, log_rem2) - 2.0 * lrem(n, log_rem)) for n in horizons]
    decr2 = all(b < a for a, b in zip(r2, r2[1:]))
    if decr2 and r2[-1] <= 0.25 * r2[0] and tail_known:
        verdict2 = "holds"
    elif r2[-1] >= 0.8 * r2[0]:
        verdict2 = "fails"
    else:
        verdict2 = "inconclusive"
    sq_ratio = ConditionVerdict("squared_rem_ratio", horizons[-1], r2[-1], verdict2)
    return rem_ratio, sq_ratio


# ---------------------------------------------------------------------------
# weight lookup tables for the simulators


def log_weight_table(seq: ReinforcementSeq, nmax: int) -> np.ndarray:
    """``log W(n)`` for n = 0..nmax, with ``-inf`` wherever W(n) == 0."""
    table = np.full(nmax + 1, -np.inf)
    ds = seq.domain_start
    if ds <= nmax:
        table[ds:] = seq.log_values(np.arange(ds, nmax + 1))
    return table


def weight_table(seq: ReinforcementSeq, nmax: int) -> np.ndarray:
    """Linear weights for n = 0..nmax (``inf`` where the value overflows)."""
    table = np.zeros(nmax + 1)
    ds = seq.domain_start
    if ds <= nmax:
        table[ds:] = seq.values(np.arange(ds, nmax + 1))
    return table
