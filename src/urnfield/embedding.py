"""Continuous-time embedding of the multi-color urn with delayed rate
updates.

A single-vertex graph carries ``nc`` loop edges.  Each edge holds a timer
with a remaining unit-exponential mass and a current rate; the edge whose
remaining time ``mass / rate`` is smallest is crossed next.  A crossed edge
re-arms with a fresh Exp(1) mass at the rate given by the edge's visit
count *as of the last refresh*: rates are refreshed for all edges only
every ``d`` jumps.  Because a rate change preserves the remaining mass, the
timers are stored as (mass, rate) pairs and the refresh transformation is
exact.

Read off at the refresh times, the visit counts have the same law as the
multi-color urn adding ``d`` balls per step, which :func:`compare_laws`
tests empirically.

The jump-count budget is the simulation horizon; for strongly reinforcing
weights the total elapsed time stays finite, so a time budget would be
ill-conditioned.

:func:`advance_to_next_jump` is the per-jump reference, which also keeps
the jump log and the holding-time decompositions.  The lockstep paths, the
shared-stream sampler and the per-run-stream embedding ensemble, drive one
array step, ``_jump``.  Every rate comes from ``_rate_table``: the timers
hold linear-scale rates, so a weight beyond float range at a reachable
count is a ConditionViolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy import stats

from .errors import ConditionViolation, InternalConsistencyError
from .reinforcement import ReinforcementSeq, log_weight_table, weight_table
from .urns import EnsembleRaw, _drive, _multicolor_step, _streams, init_multicolor

_MASS_TOL = 1e-12


@dataclass(frozen=True)
class JumpEvent:
    time: float
    edge: int
    z: tuple[int, ...]
    refresh: bool  # True iff this jump landed on a rate-refresh boundary


@dataclass
class EmbeddingState:
    nc: int
    d: int
    seq: ReinforcementSeq
    rng: np.random.Generator
    seed: int | None
    a: tuple[int, ...]
    z: np.ndarray  # visit counts including the initial a
    z_ref: np.ndarray  # counts at the last refresh boundary
    n: int  # jumps so far
    time: float
    mass: np.ndarray  # remaining Exp(1) mass per edge
    rate: np.ndarray  # current rate per edge
    xi: np.ndarray  # total mass drawn for the live timer per edge
    segments: list  # per edge: [[rate, consumed], ...] for the live timer
    rates: np.ndarray  # W(n) lookup, grown on demand by _rate_of
    jump_log: list = dc_field(default_factory=list)
    visit_decomp: dict = dc_field(default_factory=dict)
    refresh_log: list = dc_field(default_factory=list)


def _rate_table(seq: ReinforcementSeq, nmax: int, need: int) -> np.ndarray:
    """Timer rates W(n) for n = 0..nmax, cut before the first rate that is
    not finite.  The timers hold linear-scale rates, so a rate beyond float
    range at or below the count ``need`` is a ConditionViolation."""
    with np.errstate(over="ignore"):
        table = weight_table(seq, nmax)
    bad = np.flatnonzero(~np.isfinite(table))
    if bad.size and bad[0] <= need:
        raise ConditionViolation(
            f"W({bad[0]}) exceeds float range; the embedding's timers need finite "
            f"rates up to n = {need}"
        )
    return table[: bad[0]] if bad.size else table


def init_embedding(nc: int, a, d: int, seq: ReinforcementSeq, seed: int) -> EmbeddingState:
    """Arm one timer per edge at rate W(a_i) with fresh Exp(1) mass."""
    if nc < 2:
        raise ValueError("need at least two edges")
    if d < 1:
        raise ValueError("refresh block size d must be >= 1")
    a = tuple(int(v) for v in a)
    if len(a) != nc:
        raise ValueError(f"initial counts must have length nc={nc}")
    if min(a) < 0:
        raise ValueError("initial counts must be nonnegative")
    rates = _rate_table(seq, max(256, max(a)), max(a))
    for i, ai in enumerate(a):
        if rates[ai] <= 0.0:
            raise ValueError(f"edge {i + 1}: W({ai}) must be positive")
    rng = np.random.Generator(np.random.PCG64(seed))
    xi = rng.exponential(size=nc)
    rate = rates[list(a)]
    z = np.array(a, dtype=np.int64)
    return EmbeddingState(
        nc=nc, d=d, seq=seq, rng=rng, seed=seed, a=a,
        z=z, z_ref=z.copy(), n=0, time=0.0,
        mass=xi.copy(), rate=rate, xi=xi.copy(),
        segments=[[[float(r), 0.0]] for r in rate],
        rates=rates,
        refresh_log=[tuple(a)],
    )


def _rate_of(state: EmbeddingState, count: int) -> float:
    if count >= state.rates.size:
        state.rates = _rate_table(state.seq, max(count, 2 * state.rates.size), count)
    return float(state.rates[count])


def refresh_rates(state: EmbeddingState) -> EmbeddingState:
    """Re-rate every timer from the current counts, preserving the remaining
    masses.  Valid only at block boundaries (n = 0 mod d)."""
    if state.n % state.d != 0:
        raise ValueError(f"refresh at n={state.n} is not a block boundary (d={state.d})")
    if (state.mass < -_MASS_TOL).any():
        raise InternalConsistencyError(f"negative remaining mass: {state.mass.min()}")
    np.maximum(state.mass, 0.0, out=state.mass)
    state.z_ref = state.z.copy()
    for j in range(state.nc):
        new_rate = _rate_of(state, int(state.z_ref[j]))
        if new_rate != state.rate[j]:
            state.rate[j] = new_rate
            seg = state.segments[j]
            if seg[-1][1] == 0.0:
                seg[-1][0] = new_rate
            else:
                seg.append([new_rate, 0.0])
    return state


def advance_to_next_jump(state: EmbeddingState) -> tuple[EmbeddingState, JumpEvent]:
    """Cross the edge with the least remaining time, consume every timer's
    mass for the elapsed interval, and re-arm the crossed edge."""
    with np.errstate(divide="ignore"):
        remaining = state.mass / state.rate
    if not np.isfinite(remaining).any():
        raise ConditionViolation("no timer can ring: all rates are zero")
    winner = int(np.argmin(remaining))
    dt = float(remaining[winner])
    state.time += dt

    consumed = state.rate * dt
    consumed[winner] = state.mass[winner]  # by construction the full mass
    state.mass -= consumed
    state.mass[winner] = 0.0
    for j in range(state.nc):
        if consumed[j] > 0.0:
            state.segments[j][-1][1] += float(consumed[j])

    # close the winner's timer and log its holding-time decomposition
    decomp = tuple((r, c) for r, c in state.segments[winner] if c > 0.0)
    total = sum(c for _, c in decomp)
    if abs(total - state.xi[winner]) > _MASS_TOL * max(1.0, state.xi[winner]):
        raise InternalConsistencyError(
            f"timer mass mismatch on edge {winner}: {total} vs {state.xi[winner]}"
        )
    state.n += 1
    state.z[winner] += 1
    state.visit_decomp[(winner, int(state.z[winner]))] = decomp

    # re-arm: fresh mass, rate from the last refresh snapshot
    fresh = float(state.rng.exponential())
    state.xi[winner] = fresh
    state.mass[winner] = fresh
    state.rate[winner] = _rate_of(state, int(state.z_ref[winner]))
    state.segments[winner] = [[state.rate[winner], 0.0]]

    on_boundary = state.n % state.d == 0
    if on_boundary:
        # the boundary convention: freshly armed timers take the new snapshot
        refresh_rates(state)
        state.refresh_log.append(tuple(int(v) for v in state.z))
    event = JumpEvent(state.time, winner, tuple(int(v) for v in state.z), on_boundary)
    state.jump_log.append(event)
    return state, event


def sigma_decomposition(state: EmbeddingState, edge: int, n: int) -> list[tuple[float, float]]:
    """Decomposition of the holding interval ending at the (n+1)-th visit of
    ``edge``: pairs (rate, mass) with the masses summing to the timer's
    Exp(1) draw and ``sum mass/rate`` equal to the interval length."""
    key = (edge, n + 1)
    if key not in state.visit_decomp:
        raise ValueError(f"visit {n + 1} of edge {edge} not realized")
    return list(state.visit_decomp[key])


def extract_discrete(state: EmbeddingState, k: int) -> tuple[int, ...]:
    """Visit counts at the k-th refresh boundary (k = 0 gives the initial
    composition)."""
    if k < 0 or k >= len(state.refresh_log):
        raise ValueError(f"refresh {k} not realized (have {len(state.refresh_log)})")
    return state.refresh_log[k]


def visit_times(state: EmbeddingState, edge: int) -> list[float]:
    """Realized visit clock of an edge: the jump times at which its count
    advanced, up to the simulation horizon."""
    if not 0 <= edge < state.nc:
        raise ValueError(f"edge {edge} out of range")
    return [ev.time for ev in state.jump_log if ev.edge == edge]


def save_jump_log(state: EmbeddingState, path) -> None:
    """Write the realized jumps as CSV: jump_index, tau, edge, the count
    snapshot, and the refresh flag."""
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(
            ["jump_index", "tau", "edge"]
            + [f"Z_{i + 1}" for i in range(state.nc)]
            + ["refresh_flag"]
        )
        for idx, ev in enumerate(state.jump_log, start=1):
            w.writerow(
                [idx, format(ev.time, ".17g"), ev.edge + 1]
                + list(ev.z)
                + [int(ev.refresh)]
            )


# ---------------------------------------------------------------------------
# vectorized sampling of the embedded counts


def _jump(z, z_ref, mass, rate, rates, fresh, rows, refresh: bool) -> np.ndarray:
    """One jump of every copy (rows of the (n, nc) arrays) in lockstep, as
    :func:`advance_to_next_jump` makes it: the timer with the least
    remaining time rings, every timer spends ``rate * dt`` of its mass, and
    the winner re-arms with its ``fresh`` Exp(1) mass at the rate of the
    last refresh snapshot.  ``refresh`` then re-rates every timer from the
    new counts.  Returns the winning edge per copy."""
    with np.errstate(divide="ignore"):
        remaining = mass / rate
    win = np.argmin(remaining, axis=1)
    dt = remaining[rows, win]
    mass -= rate * dt[:, None]
    np.maximum(mass, 0.0, out=mass)
    z[rows, win] += 1
    mass[rows, win] = fresh
    if refresh:
        z_ref[:] = z
        rate[:] = rates[z]
    else:
        rate[rows, win] = rates[z_ref[rows, win]]
    return win


def sample_embedding_counts(
    seq: ReinforcementSeq,
    nc: int,
    a,
    d: int,
    k: int,
    n_samples: int,
    seed: int,
    refresh_every_jump: bool = False,
) -> np.ndarray:
    """Counts at the k-th refresh for ``n_samples`` independent copies of
    the jump process, advanced in lockstep on one shared stream.

    ``refresh_every_jump=True`` deliberately breaks the construction by
    re-rating all timers after every jump (negative control for the law
    tests; with d = 1 it coincides with the correct dynamics).
    """
    a = tuple(int(v) for v in a)
    init_embedding(nc, a, d, seq, seed=0)  # validates arguments
    rng = np.random.Generator(np.random.PCG64(seed))
    rates = _rate_table(seq, max(a) + k * d, max(a) + k * d)
    z = np.tile(np.array(a, dtype=np.int64), (n_samples, 1))
    z_ref = z.copy()
    mass = rng.exponential(size=(n_samples, nc))
    rate = rates[z]
    rows = np.arange(n_samples)
    for j in range(1, k * d + 1):
        fresh = rng.exponential(size=n_samples)
        _jump(z, z_ref, mass, rate, rates, fresh, rows, refresh_every_jump or j % d == 0)
    return z


def run_embedding_ensemble(
    seq: ReinforcementSeq, nc: int, a, d: int, n_steps: int, n_runs: int,
    master_seed: int, run_offset: int = 0, record_every: int = 100,
) -> EnsembleRaw:
    """Embedding runs in lockstep, one step being one refresh block of d
    jumps.  Run ``i`` consumes the stream a standalone
    ``init_embedding(..., seed=derive_seed(master, offset+i))`` would: nc
    initial masses, then one per jump."""
    a = tuple(int(v) for v in a)
    init_embedding(nc, a, d, seq, seed=0)  # validates arguments
    rates = _rate_table(seq, max(a) + d * n_steps, max(a) + d * n_steps)
    seeds, gens = _streams(master_seed, run_offset, n_runs)
    z = np.tile(np.array(a, dtype=np.int64), (n_runs, 1))
    z_ref = z.copy()
    mass = np.stack([g.exponential(size=nc) for g in gens])
    rate = rates[z]
    rows = np.arange(n_runs)
    last_add = np.zeros((n_runs, nc), dtype=np.int64)

    def advance(step, fresh):
        for j in range(d):
            win = _jump(z, z_ref, mass, rate, rates, fresh[:, j], rows, j == d - 1)
            last_add[rows, win] = step

    steps, props = _drive(
        gens, d, n_steps, record_every, advance, lambda step: z / z.sum(axis=1, keepdims=True), "exponential"
    )
    return EnsembleRaw(steps, np.stack(props, axis=1), last_add, z, seeds)


def sample_multicolor_counts(
    seq: ReinforcementSeq, nc: int, a, d: int, k: int, n_samples: int, seed: int
) -> np.ndarray:
    """Counts after k steps of the discrete multi-color urn (d balls per
    step), for ``n_samples`` independent copies in lockstep on one shared
    stream."""
    a = tuple(int(v) for v in a)
    init_multicolor(nc, a, d, seq, seed=0)  # validates arguments
    rng = np.random.Generator(np.random.PCG64(seed))
    logw = log_weight_table(seq, max(a) + k * d + 1)
    counts = np.tile(np.array(a, dtype=np.int64), (n_samples, 1))
    rows = np.arange(n_samples)
    for _ in range(k):
        _multicolor_step(counts, logw, rng.random(size=(n_samples, d)), rows)
    return counts


# ---------------------------------------------------------------------------
# two-sample law comparison


@dataclass(frozen=True)
class LawTestReport:
    method: str  # chi_square | ks
    statistic: float
    dof: int
    p_value: float
    n_a: int
    n_b: int
    categories: tuple
    counts_a: tuple
    counts_b: tuple

    def to_json(self) -> dict:
        return {
            "method": self.method,
            "statistic": self.statistic,
            "dof": self.dof,
            "p_value": self.p_value,
            "n_a": self.n_a,
            "n_b": self.n_b,
            "categories": [list(c) for c in self.categories],
            "counts_a": list(self.counts_a),
            "counts_b": list(self.counts_b),
        }


def _row_categories(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of an integer array in lexicographic order, and each
    row's index among them.  Each column's 1-D codes are folded into one
    integer key, first column most significant; the key is re-compressed to
    dense codes after every fold, so it stays below ``len(rows)**2``."""
    key = np.zeros(len(rows), dtype=np.int64)
    for col in rows.T:
        values, codes = np.unique(col, return_inverse=True)
        _, key = np.unique(key * len(values) + codes, return_inverse=True)
    first = np.empty(int(key.max()) + 1, dtype=np.intp)
    first[key] = np.arange(len(key))  # any occurrence: equal keys are equal rows
    return rows[first], key


def compare_laws(samples_a: np.ndarray, samples_b: np.ndarray) -> LawTestReport:
    """Two-sample test that both count samples follow one law: chi-square
    over the observed outcome categories (rare bins pooled), falling back to
    Kolmogorov-Smirnov on the first coordinate for large outcome spaces.
    Categories come back in lexicographic row order."""
    samples_a = np.asarray(samples_a)
    samples_b = np.asarray(samples_b)
    n_a, n_b = len(samples_a), len(samples_b)
    if n_a < 100 or n_b < 100:
        raise ValueError("need at least 100 samples on each side")
    pooled = np.concatenate([samples_a, samples_b])
    cats, inverse = _row_categories(pooled)
    if len(cats) > 64:
        stat, p = stats.ks_2samp(samples_a[:, 0], samples_b[:, 0])
        return LawTestReport(
            "ks", float(stat), 0, float(p), n_a, n_b, (), (), ()
        )
    ca = np.bincount(inverse[:n_a], minlength=len(cats)).astype(float)
    cb = np.bincount(inverse[n_a:], minlength=len(cats)).astype(float)
    cats_list = [tuple(int(v) for v in c) for c in cats]
    ca, cb, cats_list = _pool_rare(ca, cb, cats_list, n_a, n_b)
    if len(ca) < 2:
        # a single outcome on both sides is a perfect match
        return LawTestReport("chi_square", 0.0, 0, 1.0, n_a, n_b,
                             tuple(cats_list), tuple(ca), tuple(cb))
    tot = ca + cb
    ea = tot * (n_a / (n_a + n_b))
    eb = tot * (n_b / (n_a + n_b))
    stat = float(np.sum((ca - ea) ** 2 / ea) + np.sum((cb - eb) ** 2 / eb))
    dof = len(ca) - 1
    p = float(stats.chi2.sf(stat, dof))
    return LawTestReport(
        "chi_square", stat, dof, p, n_a, n_b,
        tuple(cats_list), tuple(int(v) for v in ca), tuple(int(v) for v in cb),
    )


def _pool_rare(ca, cb, cats, n_a, n_b, min_expected: float = 5.0):
    """Merge the smallest categories until every expected count is adequate."""
    share = min(n_a, n_b) / (n_a + n_b)
    while len(ca) > 2:
        expected = (ca + cb) * share
        if expected.min() >= min_expected:
            break
        order = np.argsort(expected)
        i, j = int(order[0]), int(order[1])
        ca[j] += ca[i]
        cb[j] += cb[i]
        cats[j] = ("pooled",)
        ca = np.delete(ca, i)
        cb = np.delete(cb, i)
        del cats[i]
    return ca, cb, cats
