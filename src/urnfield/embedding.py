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
array step, ``_jump``.  Every rate comes from ``_rate_table``, ``np.exp``
of the checked log-weight table the urn simulators read: the timers hold
linear-scale rates, so a weight beyond float range (or one that underflows
to 0) at a reachable count is a ConditionViolation.

The two law samplers draw each step's variates for all their rows in one
call, then run the step's kernel (``_jump``, ``_multicolor_step``) over
tiles of ``_TILE`` rows, so that a kernel's arrays and temporaries stay in
cache instead of sweeping whole-sample arrays through memory a dozen times
a step.  Rows never interact, so the tiling changes no output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy import special

from .errors import ConditionViolation, InternalConsistencyError
from .formats import csv_bytes, json_fields
from .reinforcement import ReinforcementSeq, log_weight_table
from .seeds import stream
from .urns import (
    EnsembleRaw, _check_steps, _color_shares, _drive, _multicolor_step, _streams, _whole_counts, init_multicolor,
)

_MASS_TOL = 1e-12
_TILE = 8192  # rows per kernel call in the law samplers; 4096 and 16384 timed no faster


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
    """Timer rates W(n) for n = 0..nmax, ``np.exp`` of the checked
    ``log_weight_table``, cut before the first rate from ``domain_start`` on
    that is not finite or not positive.  The timers hold linear-scale rates,
    so a weight beyond float range (or one that underflows to 0) at or below
    the count ``need`` is a ConditionViolation.  Every rate a timer reads is
    therefore positive and finite."""
    with np.errstate(over="ignore"):
        table = np.exp(log_weight_table(seq, nmax))
    ds = seq.domain_start
    bad = ds + np.flatnonzero(~((table[ds:] > 0.0) & (table[ds:] < np.inf)))
    if bad.size and bad[0] <= need:
        what = "exceeds float range" if table[bad[0]] > 0 else "underflows to 0"
        raise ConditionViolation(
            f"W({bad[0]}) {what}; the embedding's timers need positive finite rates up to n = {need}"
        )
    return table[: bad[0]] if bad.size else table


def init_embedding(nc: int, a, d: int, seq: ReinforcementSeq, seed: int) -> EmbeddingState:
    """Arm one timer per edge at rate W(a_i) with fresh Exp(1) mass."""
    if nc < 2:
        raise ValueError("need at least two edges")
    if d < 1:
        raise ValueError("refresh block size d must be >= 1")
    a = tuple(_whole_counts(a).tolist())
    if len(a) != nc:
        raise ValueError(f"initial counts must have length nc={nc}")
    if min(a) < 0:
        raise ValueError("initial counts must be nonnegative")
    rates = _rate_table(seq, max(min(256, seq.last_index), max(a)), max(a))
    for i, ai in enumerate(a):
        if rates[ai] <= 0.0:
            raise ValueError(f"edge {i + 1}: W({ai}) must be positive")
    rng = stream(seed)
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
        state.rates = _rate_table(state.seq, max(count, min(2 * state.rates.size, state.seq.last_index)), count)
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
    remaining = state.mass / state.rate  # _rate_table's rates are positive and finite
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
    header = ["jump_index", "tau", "edge", *(f"Z_{i + 1}" for i in range(state.nc)), "refresh_flag"]
    rows = ([idx, ev.time, ev.edge + 1, *ev.z, int(ev.refresh)] for idx, ev in enumerate(state.jump_log, start=1))
    with open(path, "wb") as fh:
        fh.write(csv_bytes(header, rows))


# ---------------------------------------------------------------------------
# vectorized sampling of the embedded counts


def _jump(z, mass, rate, rates, fresh, base, refresh: bool) -> np.ndarray:
    """One jump of every copy (rows of the row-major (n, nc) arrays) in
    lockstep, as :func:`advance_to_next_jump` makes it: the timer with the
    least remaining time rings, every timer spends ``rate * dt`` of its
    mass, and the winner re-arms with its ``fresh`` Exp(1) mass at the rate
    of the last refresh snapshot, which is the rate it already has.
    ``refresh`` then re-rates every timer from the new counts.

    The winner is taken column by column with a strict ``<``, so a tie goes
    to the first timer, as with ``argmin``; a remaining time is never NaN,
    as masses are finite and ``_rate_table`` gives only positive finite
    rates.  ``base`` is ``arange(n) * nc`` for the n rows passed, which
    the law samplers pass a tile at a time: ``base + winner`` indexes each
    copy's winner in the flattened arrays, which is returned."""
    remaining = (mass / rate).T
    dt = remaining[0]
    win = np.zeros(len(dt), dtype=np.intp)
    for c in range(1, len(remaining)):
        win += (remaining[c] < dt) * (c - win)
        dt = np.minimum(dt, remaining[c])
    mass -= rate * dt[:, None]
    np.maximum(mass, 0.0, out=mass)
    win += base
    z.ravel()[win] += 1
    mass.ravel()[win] = fresh
    if refresh:
        np.take(rates, z, out=rate)
    return win


def _tiles(n: int) -> list[slice]:
    """Row slices of at most ``_TILE`` rows that cover ``range(n)``."""
    return [slice(t, min(t + _TILE, n)) for t in range(0, n, _TILE)]


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
    a = init_embedding(nc, a, d, seq, seed=0).a  # the validated counts
    if k < 0 or n_samples < 1:
        raise ValueError(f"k must be >= 0 and n_samples >= 1, got k = {k}, n_samples = {n_samples}")
    rng = stream(seed)
    rates = _rate_table(seq, max(a) + k * d, max(a) + k * d)
    z = np.tile(np.array(a, dtype=np.int64), (n_samples, 1))
    mass = rng.exponential(size=(n_samples, nc))
    rate = rates[z]
    tiles = _tiles(n_samples)
    base = np.arange(0, tiles[0].stop * nc, nc)
    for j in range(1, k * d + 1):
        fresh = rng.exponential(size=n_samples)
        refresh = refresh_every_jump or j % d == 0
        for rows in tiles:
            _jump(z[rows], mass[rows], rate[rows], rates, fresh[rows], base[: rows.stop - rows.start], refresh)
    return z


def run_embedding_ensemble(
    seq: ReinforcementSeq, nc: int, a, d: int, n_steps: int, n_runs: int,
    master_seed: int, run_offset: int = 0, record_every: int = 100,
) -> EnsembleRaw:
    """Embedding runs in lockstep, one step being one refresh block of d
    jumps.  Run ``i`` consumes the stream a standalone
    ``init_embedding(..., seed=derive_seed(master, offset+i))`` would: nc
    initial masses, then one per jump."""
    a = init_embedding(nc, a, d, seq, seed=0).a  # the validated counts
    _check_steps(n_steps, record_every)
    rates = _rate_table(seq, max(a) + d * n_steps, max(a) + d * n_steps)
    seeds, gens = _streams(master_seed, run_offset, n_runs)
    z = np.tile(np.array(a, dtype=np.int64), (n_runs, 1))
    mass = np.array([g.exponential(size=nc) for g in gens]).reshape(n_runs, nc)
    rate = rates[z]
    base = np.arange(0, n_runs * nc, nc)
    last_add = np.zeros((n_runs, nc), dtype=np.int64)

    def advance(start, block, cuts, i):
        for step, draws in enumerate(block[:, cuts[i]:cuts[i + 1]].swapaxes(0, 1), start + cuts[i] + 1):
            for j in range(d):
                win = _jump(z, mass, rate, rates, draws[:, j], base, j == d - 1)
                last_add.ravel()[win] = step

    steps, props = _drive(
        gens, d, n_steps, record_every, advance, lambda step: _color_shares(z, step), "standard_exponential"
    )
    return EnsembleRaw(steps, np.stack(props, axis=1), last_add, z, seeds, 0, n_runs * n_steps)


def sample_multicolor_counts(
    seq: ReinforcementSeq, nc: int, a, d: int, k: int, n_samples: int, seed: int
) -> np.ndarray:
    """Counts after k steps of the discrete multi-color urn (d balls per
    step), for ``n_samples`` independent copies in lockstep on one shared
    stream."""
    a = init_multicolor(nc, a, d, seq, seed=0).a  # the validated counts
    if k < 0 or n_samples < 1:
        raise ValueError(f"k must be >= 0 and n_samples >= 1, got k = {k}, n_samples = {n_samples}")
    rng = stream(seed)
    logw = log_weight_table(seq, max(a) + k * d + 1)
    counts = np.tile(np.array(a, dtype=np.int64), (n_samples, 1))
    tiles = _tiles(n_samples)
    for _ in range(k):
        u = rng.random(size=(n_samples, d))
        for rows in tiles:
            _multicolor_step(counts[rows], logw, u[rows])
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
        return json_fields(self)


_KEY_ROOM = 4  # count categories over a key space of up to this many times the rows


def _row_categories(samples_a: np.ndarray, samples_b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct rows of two integer arrays in lexicographic order, and
    how often each occurs in either array.

    Each column's values are shifted by the column's min over both arrays,
    and the columns are read as the digits of a mixed-radix key with radix
    ``max - min + 1`` per column, first column most significant; key order
    is lexicographic row order.  One ``bincount`` of the keys per array then
    counts the categories.  When the key space is more than ``_KEY_ROOM``
    times the row count, ``np.unique`` over the rows finds them instead."""
    lo = [min(int(a.min()), int(b.min())) for a, b in zip(samples_a.T, samples_b.T)]
    hi = [max(int(a.max()), int(b.max())) for a, b in zip(samples_a.T, samples_b.T)]
    radix = [h - l + 1 for l, h in zip(lo, hi)]
    size, n_a = math.prod(radix), len(samples_a)
    if size > _KEY_ROOM * (n_a + len(samples_b)):
        cats, key = np.unique(np.concatenate([samples_a, samples_b]), axis=0, return_inverse=True)
        key = key.ravel()  # some numpy versions return it 2-D
        return cats, np.bincount(key[:n_a], minlength=len(cats)), np.bincount(key[n_a:], minlength=len(cats))

    def keys(samples):
        key = np.zeros(len(samples), dtype=np.intp)
        for col, l, r in zip(samples.T, lo, radix):
            key *= r
            key += col
            key -= l
        return key

    counts_a = np.bincount(keys(samples_a), minlength=size)
    counts_b = np.bincount(keys(samples_b), minlength=size)
    seen = np.flatnonzero(counts_a + counts_b)
    cats = np.stack(np.unravel_index(seen, radix), axis=1) + lo
    return cats, counts_a[seen], counts_b[seen]


def compare_laws(samples_a: np.ndarray, samples_b: np.ndarray) -> LawTestReport:
    """Two-sample test that both count samples follow one law: chi-square
    over the observed outcome categories (rare bins pooled), falling back to
    Kolmogorov-Smirnov on the first coordinate for large outcome spaces.
    Categories come back in lexicographic row order."""
    samples_a = np.asarray(samples_a)
    samples_b = np.asarray(samples_b)
    if any(s.ndim != 2 or s.dtype.kind not in "iu" for s in (samples_a, samples_b)) or \
            samples_a.shape[1] != samples_b.shape[1]:
        raise ValueError(f"need two 2-D integer arrays of equal width, got shapes {samples_a.shape} "
                         f"({samples_a.dtype}) and {samples_b.shape} ({samples_b.dtype})")
    n_a, n_b = len(samples_a), len(samples_b)
    if n_a < 100 or n_b < 100:
        raise ValueError("need at least 100 samples on each side")
    cats, ca, cb = _row_categories(samples_a, samples_b)
    if len(cats) > 64:
        from scipy.stats import ks_2samp  # importing scipy.stats takes about a second

        stat, p = ks_2samp(samples_a[:, 0], samples_b[:, 0])
        return LawTestReport(
            "ks", float(stat), 0, float(p), n_a, n_b, (), (), ()
        )
    cats_list = [tuple(int(v) for v in c) for c in cats]
    ca, cb, cats_list = _pool_rare(ca.astype(float), cb.astype(float), cats_list, n_a, n_b)
    counts = tuple(cats_list), tuple(int(v) for v in ca), tuple(int(v) for v in cb)
    if len(ca) < 2:
        # a single outcome on both sides is a perfect match
        return LawTestReport("chi_square", 0.0, 0, 1.0, n_a, n_b, *counts)
    tot = ca + cb
    ea = tot * (n_a / (n_a + n_b))
    eb = tot * (n_b / (n_a + n_b))
    stat = float(np.sum((ca - ea) ** 2 / ea) + np.sum((cb - eb) ** 2 / eb))
    dof = len(ca) - 1
    p = float(special.chdtrc(dof, stat))
    return LawTestReport("chi_square", stat, dof, p, n_a, n_b, *counts)


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
