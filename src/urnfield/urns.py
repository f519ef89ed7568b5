"""Discrete-time urn simulators.

Three mechanisms share the same reinforcement machinery:

* the interacting urn mechanism: ``d`` urns of black/red balls, each urn
  drawing once per step either from the pooled counts (probability ``p``)
  or from itself (probability ``1-p``), with color probability proportional
  to ``W(count)``;
* the single-urn multi-color model: ``d`` balls added per step, colors
  multinomial with probabilities ``W(N_i)/sum_j W(N_j)`` held fixed within
  the step;
* the sequential two-urn process, which adds one ball per sub-step,
  alternating urns, always weighing a urn's own black count against the
  pooled red count.

RNG contract: a state owns one PCG64 stream.  An interacting-urn step
consumes exactly ``2 d`` uniforms in urn order (interaction draw first,
then the color uniform); a multi-color step consumes ``d`` uniforms; a
sequential (macro) step consumes two, one per sub-step, urn 0 first.  The
lockstep ensemble runners consume per-run streams in the identical order,
so run ``i`` of an ensemble reproduces a standalone simulation seeded with
``derive_seed(master, i)``.

Each mechanism is wired up once, in a frozen ``_Mechanism`` record:
``_ium(d, p)``, ``_multicolor(d)`` and ``_sequential(first)``.  ``_dispatch``
gives a state's record and count arrays, and the two drivers read nothing
else: ``_run_sides``, which ``run`` calls with one state and ``run_coupled``
with the coupled pair as two sides on one stream, and the one ensemble
driver, ``_ensemble``.  Each record defines its leader path once, as
``path``, which moves one state or each row of an ensemble.  A record pairs
a lockstep kernel (``_ium_step``, ``_multicolor_step``,
``_sequential_step``), which steps an ensemble's rows, with a block stepper
(``_ium_steps``, ``_multicolor_steps``, ``_sequential_steps``), which steps
whole sub-blocks of one state, as the public ``step_*`` step it once.  A
block stepper keeps the counts in Python ints and reads log weights as
Python floats, with its kernel's arithmetic on one run.  The kernels,
checked against exact laws, are the reference the block steppers are
tested against.  One loop, ``_drive``, draws and records for every driver;
it cuts each block of draws into sub-blocks that end at every record step.
An advance may cover several sub-blocks at once and hand back the samples
at the record steps inside them.

Both drivers screen each sub-block against the leader path.  Under
strong reinforcement almost every step adds the leader's balls, so each
kernel has a screen beside it that bounds the leader's probability over
the whole sub-block from the floor of the log-weight table, the least
log W at any count from a count on (``_floor``), and tests every uniform
of the sub-block against that bound, shrunk by a relative margin.  The
floor bounds log W along any path that gains balls, monotone table or
not; on a non-decreasing table it is the table.  Ensembles and single
runs read the same floor and end their screens in the same interval
test, ``_inside``.  Runs that pass advance along the leader path in bulk;
the others step through the kernel, or, in ``_run_sides``, through the
block stepper.  A single run has one row to screen, and a screen of 16
rows costs about as much as one; so once a run passes, it screens the
sub-blocks ahead of it in one call, a row each at the state the leader
path reaches, and leaps through the rows that pass (``_paced``), the rows
that pass with one leader in one leap.  A coupled pair is screened and
leapt as one, each side along its own leader.  The first such stack
holds 16 sub-blocks and each stack that passes whole doubles the next,
up to the end of the drawn block, so a settled run screens and leaps a
block in a call or two.  Every sub-block outside a wait is screened,
however short.  A run that fails a screen goes unscreened for a wait
after it, and steps that sub-block and its wait as one stretch, in one
call.  The record samples inside a leap or a stretch are read off its
count path in one pass (``_along``), not sampled a step at a time.

One resolver, ``_resolve``, decides the draws of the black/red runs that
a screen leaves, a mixed limit's minority draws included: each urn gains
one ball a step, so the draws decided before a step bound every count
there, and on a non-decreasing table a color uniform outside the black
share bounded that way has its color whatever the other draws do.  Only
the steps with a draw left open go through the kernel, in rounds over
row subsets.  Each pass after the first bounds the open draws with the
draws decided so far, and a pass follows only one that decided at least
half of its draws, up to ``_PASSES``.  An ensemble resolves the runs that
fail a screen this way, and a single run or coupled pair each stretch it
leaves unscreened, in one call.  A run-step is counted as screened when
a bound decides it, leaped or resolved, in ensembles, ``run`` and
``run_coupled`` alike, and as exact when it goes through the kernel or
the block stepper.  Screening changes
neither the RNG contract nor any output: every uniform is still drawn in
the same order, and counts, last-change steps and recorded proportions
are bit for bit those of stepping every run.

Counts and probabilities are handled through log weights, so exponential
reinforcement never overflows.  ``log_weight_table`` checks each table once,
as it is made, and ``init_*`` rule out a draw between zero weights, so the
kernels and block steppers do not check weights again.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import formats
from .errors import InternalConsistencyError
from .reinforcement import ReinforcementSeq, log_weight_table
from .seeds import derive_seed, stream

_LOG_EXP_CLIP = float(np.log(np.finfo(float).max))  # math.exp overflows above this


class _LogW:
    """Growable table of log W(n) for one state, empty until ``run``,
    ``run_coupled`` or a block stepper covers every count it can reach;
    ``-inf`` marks zero weight.  It also holds the table's ``floor``
    (``_floor``), which ``run`` screens that state with, made anew."""

    def __init__(self, seq: ReinforcementSeq):
        self.seq = seq
        self.table = np.empty(0)
        self.floor = self.table

    def cover(self, n: int) -> None:
        """Grow the table, at least doubling it (up to a finite table's last
        index), until it holds log W(n)."""
        if n >= self.table.size:
            self.table = log_weight_table(self.seq, max(n, min(2 * self.table.size, self.seq.last_index)))
            self.floor = _floor(self.table)


def _prob_first(log_a: float, log_b: float) -> float:
    """weight_a / (weight_a + weight_b) from log weights (``-inf`` for zero)."""
    d = log_b - log_a
    if d > _LOG_EXP_CLIP:
        return 0.0  # what 1 / (1 + inf) gives in _share
    return 1.0 / (1.0 + math.exp(d))


def _share(log_a: np.ndarray, log_b: np.ndarray) -> np.ndarray:
    """weight_a / (weight_a + weight_b) elementwise; NaN where both are zero."""
    with np.errstate(over="ignore", invalid="ignore"):
        return 1.0 / (1.0 + np.exp(log_b - log_a))


def _shares(counts: np.ndarray, totals: np.ndarray, step: int) -> np.ndarray:
    """``counts / totals``, the proportions of an urn's current balls.  Only
    an urn that starts empty has a zero total, and only before its first
    ball, within step 0; its proportion is undefined there and recorded as
    NaN, without a warning."""
    if step:
        return counts / totals
    with np.errstate(invalid="ignore"):
        return counts / totals


def _black_shares(black: np.ndarray, red: np.ndarray, step: int) -> np.ndarray:
    """Black-ball proportion per urn at ``step``: ``B(i) / (B(i) + R(i))``."""
    return _shares(black, black + red, step)


def _color_shares(counts: np.ndarray, step: int) -> np.ndarray:
    """Proportion of each color at ``step``, along the last axis."""
    return _shares(counts, counts.sum(axis=-1, keepdims=True), step)


# ---------------------------------------------------------------------------
# trajectories


@dataclass
class Trajectory:
    """Recorded time series of a single run.

    ``proportions`` holds one column per urn (or per color for the
    multi-color model); ``color_totals`` the per-color system totals at the
    same sample steps.  Sample steps are strictly increasing.  ``last_change``
    holds, per color, the last step at which its total grew (0 if it never
    did); ``run`` and ``run_coupled`` record it exactly, whatever the
    cadence.  The steps split into those a bound decided, advanced in bulk
    along a leader path or resolved, and those stepped exactly; both sides
    of ``run_coupled`` carry the pair's split, in which a step is decided
    when it is on both sides.
    """

    steps: np.ndarray
    proportions: np.ndarray
    color_totals: np.ndarray
    counts: np.ndarray | None = None
    seed: int | None = None
    last_change: np.ndarray | None = None
    run_steps_screened: int = 0
    run_steps_exact: int = 0

    def csv_bytes(self, what: str = "proportions") -> bytes:
        """CSV of the samples: ``step``, then ``x_i`` per urn or color or,
        with ``what="counts"``, ``c_i`` per count."""
        if what == "proportions":
            prefix, data = "x", self.proportions
        elif what == "counts":
            if self.counts is None:
                raise ValueError("trajectory was recorded without counts")
            prefix, data = "c", self.counts
        else:
            raise ValueError(f"unknown export: {what}")
        header = ["step"] + [f"{prefix}_{i + 1}" for i in range(data.shape[1])]
        return formats.csv_bytes(header, ([s, *row] for s, row in zip(self.steps.tolist(), data.tolist())))

    def to_csv(self, path, what: str = "proportions") -> None:
        with open(path, "wb") as fh:
            fh.write(self.csv_bytes(what))


def monopoly_labels(last_change: np.ndarray, n_steps: int, window: int | None = None):
    """The finite-horizon monopoly proxy of runs of ``n_steps`` steps, one
    per row of ``last_change`` (each color's last-change step): the single
    color whose total changed over the final ``window`` steps, by default
    the final fifth (at least one step), or none.  Colors are named
    ``black`` and ``red`` when there are two, ``color<i>`` otherwise.
    Returns the window, the color names followed by ``"none"``, and each
    row's index into them."""
    if window is None:
        window = max(1, n_steps // 5)
    changed = last_change > n_steps - window
    n_colors = changed.shape[1]
    names = ["black", "red"] if n_colors == 2 else [f"color{c}" for c in range(n_colors)]
    return window, names + ["none"], np.where(changed.sum(axis=1) == 1, changed.argmax(axis=1), n_colors)


def detect_monopoly(traj: Trajectory, window: int) -> str:
    """The monopoly label of a trajectory over its final ``window`` steps.

    With ``last_change`` the window is exact.  Without it, totals being
    nondecreasing, a color counts as unchanged iff it is equal at the last
    recorded sample at or before the window's start and at the end."""
    if window <= 0:
        raise ValueError("window must be positive")
    steps = traj.steps
    final = int(steps[-1])
    base_candidates = np.nonzero(steps <= final - window)[0]
    if base_candidates.size == 0:
        raise ValueError(f"window {window} exceeds the recorded span")
    last_change = traj.last_change
    if last_change is None:
        base = base_candidates[-1]
        last_change = np.where(traj.color_totals[-1] != traj.color_totals[base], final, 0)
    _, names, label = monopoly_labels(last_change[None], final, window)
    return names[label[0]]


def classify_limits(props: np.ndarray, targets, radius: float) -> np.ndarray:
    """Per run of ``props`` (n_runs, k, dim): the index of the target nearest
    the endpoint, provided the final quarter of samples stays within
    ``radius`` of it; -1 otherwise."""
    targets = np.asarray(targets, dtype=float)
    tail = props[:, -max(1, -(-props.shape[1] // 4)):, :]
    end = props[:, -1, :]
    nearest = np.argmin(np.linalg.norm(end[:, None, :] - targets[None, :, :], axis=2), axis=1)
    confined = np.linalg.norm(tail - targets[nearest][:, None, :], axis=2).max(axis=1) <= radius
    return np.where(confined, nearest, -1)


def classify_limit(traj: Trajectory, equilibria, radius: float):
    """Index of the equilibrium nearest the endpoint, provided the final
    quarter of samples stays within ``radius`` of it; ``None`` otherwise."""
    if not equilibria:
        raise ValueError("empty equilibria list")
    pts = [getattr(e, "location", e) for e in equilibria]
    j = int(classify_limits(traj.proportions[None], pts, radius)[0])
    return None if j < 0 else j


# ---------------------------------------------------------------------------
# interacting urn mechanism


@dataclass
class UrnState:
    d: int
    black: np.ndarray
    red: np.ndarray
    n: int
    p: float
    seq: ReinforcementSeq
    rng: np.random.Generator
    seed: int | None
    logw: _LogW

    @property
    def total_black(self) -> int:
        return int(self.black.sum())

    @property
    def total_red(self) -> int:
        return int(self.red.sum())


def _whole_counts(values) -> np.ndarray:
    """Initial counts as an int64 array; a ValueError names the first that
    is not a whole number."""
    counts = np.asarray(values)
    if counts.dtype.kind not in "biu":
        for v in counts.ravel().tolist():
            if not isinstance(v, (int, float)) or not float(v).is_integer():
                raise ValueError(f"initial counts must be whole numbers, got {v!r}")
    return counts.astype(np.int64)


def _check_composition(seq: ReinforcementSeq, black, red) -> None:
    black = np.asarray(black)
    red = np.asarray(red)
    if (black < 0).any() or (red < 0).any():
        raise ValueError("counts must be nonnegative")
    if seq.domain_start > 0:
        if black.sum() < 1 or red.sum() < 1:
            raise ValueError(
                "W(0) = 0 requires at least one ball of each color in the system"
            )
    for i in range(black.size):
        if black[i] < seq.domain_start and red[i] < seq.domain_start:
            raise ValueError(f"urn {i + 1} has zero weight in both pools")


def init_ium(d: int, black0, red0, p: float, seq: ReinforcementSeq, seed: int) -> UrnState:
    """Fresh interacting-urn state at step 0."""
    if d < 1:
        raise ValueError("need at least one urn")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    black, red = _whole_counts(black0), _whole_counts(red0)
    if black.shape != (d,) or red.shape != (d,):
        raise ValueError(f"initial compositions must have length d={d}")
    _check_composition(seq, black, red)
    if black.sum() < seq.domain_start and red.sum() < seq.domain_start:
        raise ValueError("system-wide pools both have zero weight")
    return UrnState(
        d=d, black=black, red=red, n=0, p=p, seq=seq, rng=stream(seed), seed=seed, logw=_LogW(seq)
    )


def _ium_steps(state: UrnState, rows, start: int, last_change: list, path: list | None = None) -> None:
    """``_ium_step`` on the state as one run, over a block: one step per
    row of ``rows``, each the step's 2d uniforms in urn order, setting
    ``last_change[c]`` to the step (numbered from ``start + 1``) whenever
    color ``c``'s total grows.  A ``path`` list gets the counts after each
    step, the urns' black counts then their red ones."""
    d, p = state.d, state.p
    black, red = state.black.tolist(), state.red.tolist()
    total_b, total_r = sum(black), sum(red)
    state.logw.cover(max(total_b, total_r) + d * len(rows))  # every count the block can reach
    logw = state.logw.table.item
    for step, us in enumerate(rows, start + 1):
        q_global = None
        n_black = 0
        for i in range(d):
            if us[2 * i] < p:
                if q_global is None:
                    q_global = _prob_first(logw(total_b), logw(total_r))
                q = q_global
            else:
                q = _prob_first(logw(black[i]), logw(red[i]))
            if us[2 * i + 1] < q:
                black[i] += 1
                n_black += 1
            else:
                red[i] += 1
        total_b += n_black
        total_r += d - n_black
        if n_black:
            last_change[0] = step
        if n_black < d:
            last_change[1] = step
        if path is not None:
            path.append(black + red)
    state.black[:] = black
    state.red[:] = red
    state.n += len(rows)


def step_ium(state: UrnState) -> UrnState:
    """One synchronous step: each urn draws from the pooled counts with
    probability p, from itself otherwise."""
    _ium_steps(state, state.rng.random((1, 2 * state.d)).tolist(), 0, [0, 0])
    return state


def proportions(state: UrnState) -> np.ndarray:
    """Black-ball proportion per urn: B_n(i) / (B_n(i) + R_n(i))."""
    return _black_shares(state.black, state.red, state.n)


def run(state, n_steps: int, record_every: int = 1, record_counts: bool = False) -> Trajectory:
    """Advance any simulator state ``n_steps`` steps, recording proportions
    at the given cadence (step 0 and the final step are always recorded).
    Consecutive runs of a state continue its one stream.

    The state runs as the lone side of the single-run driver,
    ``_run_sides``, and reads every draw.  Its weight table is first sized
    to every count the run can reach, as ``_ensemble`` sizes its table, so
    a table with no tail rule that the run could pass fails before the
    first step."""
    (traj,) = _run_sides([state], [slice(None)], n_steps, record_every, record_counts)
    return traj


def _run_sides(states, takes, n_steps: int, record_every: int, record_counts: bool = False,
               leapt=lambda leaders, length: None, stepped=lambda *counts: None):
    """The single-run driver of ``run`` and ``run_coupled``: advance the
    ``states`` ("sides") ``n_steps`` steps together on the first one's
    stream, side ``k`` reading the slice ``takes[k]`` of each step's draws,
    each on a weight table sized to every count it can reach.

    Sub-blocks are screened at ``_paced``'s cadence and pass where every
    side passes; they leap every side along its own leader (a lone side's
    leader is its screen's, several sides' a row of one per side).  Other
    stretches step exactly (``_stepper``), a step counting as decided where
    a bound decides it on every side.  The record steps inside either are
    read off each side's count path (``_along``).  ``leapt(leaders,
    length)`` sees each leap before the sides move, ``stepped(*counts)``
    each stepped stretch's counts.  Returns one ``Trajectory`` per side,
    all with the same counters."""
    sides = [_dispatch(state) for state in states]
    for state, (mech, arrays) in zip(states, sides):
        state.logw.cover(mech.balls * n_steps + sum(mech.totals(*arrays)) + 1)
    lasts = [[0] * len(mech.totals(*arrays)) for mech, arrays in sides]
    screens, steppers = [_screen_of(state) for state in states], [_stepper(state) for state in states]
    lone = len(states) == 1

    def sample(step):
        return [(mech.shares(*arrays, step), mech.totals(*arrays), np.concatenate(arrays) if record_counts else None)
                for mech, arrays in sides]

    def screen(u, leader, cuts):
        leaders = []
        for k, (screen_k, take) in enumerate(zip(screens, takes)):
            passed, lead = screen_k(u[..., take], leader if lone else leader and leader[k], cuts)
            ok = passed if k == 0 else ok & passed
            leaders.append(lead)
            if not ok[0]:
                break  # the stack fails at its first row, whatever the sides after it decide
        return ok, leaders[0] if len(leaders) == 1 else np.stack(leaders, axis=1)

    def leap(leader, end, length):
        leaders = [leader] if lone else leader
        leapt(leaders, length)
        inner = []
        for state, (mech, arrays), last, lead in zip(states, sides, lasts, leaders):
            inner.append(_along(mech, functools.partial(mech.path, *arrays, lead), end - length, length, record_every))
            _advance_state(state, arrays, mech.path(*arrays, lead, length), length)
            last[int(lead)] = end
        return list(zip(*inner))

    def exact(start, u):
        paths, decided = zip(*(steps_k(start, u[:, take], last) for steps_k, take, last in zip(steppers, takes, lasts)))
        stepped(*paths)
        inner = zip(*(_along(mech, _rows_of(counts, len(arrays)), start, len(u), record_every)
                      for (mech, arrays), counts in zip(sides, paths)))
        return np.count_nonzero(functools.reduce(operator.and_, decided)), list(inner)

    advance, counters = _paced(screen, leap, exact)
    steps, recorded = _drive([states[0].rng], sides[0][0].per_step, n_steps, record_every, advance, sample)
    trajectories = []
    for state, last, side in zip(states, lasts, zip(*recorded)):
        props, totals, counts = zip(*side)
        trajectories.append(Trajectory(
            steps=steps.copy(),
            proportions=np.array(props, dtype=float),
            color_totals=np.array(totals, dtype=np.int64),
            counts=np.array(counts, dtype=np.int64) if record_counts else None,
            seed=state.seed,
            last_change=np.array(last, dtype=np.int64),
            run_steps_screened=counters[0],
            run_steps_exact=n_steps - counters[0],
        ))
    return trajectories


def _screen_of(state):
    """The leader-path screen of ``state``: ``screen(u, leader, cuts)``
    screens row ``j`` of ``u`` (rows, steps, uniforms), steps ``cuts[j] + 1
    .. cuts[j + 1]`` from now, at the state the run reaches by step
    ``cuts[j]`` if every step adds the ``leader``'s balls.  It reads the
    table as it stands: ``_run_sides`` covers each side's reach first."""
    mech, arrays = _dispatch(state)
    return lambda u, leader, cuts: mech.screen(
        *mech.path(*arrays, leader, cuts[:-1, None]), state.logw.table, state.logw.floor, u
    )


def _stepper(state):
    """The exact stepper of ``state`` in ``run`` and ``run_coupled``:
    ``steps(start, u, last_change)`` steps the stretch ``u`` (steps,
    uniforms) from step ``start`` as the block stepper does.  It returns the
    counts after each step, one row per step, ``_dispatch``'s arrays
    joined, and which steps a bound decided, or False for none.

    On a non-decreasing table, one that is its own ``logw.floor``, a
    black/red state plans a stretch of at least ``_MIN_PLAN`` steps in one
    call of ``_resolve`` on one row, one open step costing about
    ``_OPEN_COST`` steps of the block stepper; a stretch it does not plan
    goes through the block stepper.  It reads its covered table as it
    stands."""
    mech, arrays = _dispatch(state)
    resolvable = mech.decide is not None and state.logw.floor is state.logw.table

    def steps(start, u, last_change):
        resolved = resolvable and len(u) >= _MIN_PLAN and _resolve(
            mech, state.black[None].copy(), state.red[None].copy(), state.logw.table, u[None], _OPEN_COST)
        if not resolved:
            path = []
            mech.steps(state, u.tolist(), start, last_change, path)  # Python floats compare faster than numpy scalars
            return path, False
        cum = np.cumsum(resolved[0][0], axis=0)  # each urn's black balls by each step
        counts = np.concatenate(arrays) + np.concatenate([cum, np.arange(1, len(u) + 1)[:, None] - cum], axis=1)
        last = np.array([last_change])
        _set_last_add(last, mech.grew(resolved[0]), start)
        last_change[:] = last[0].tolist()
        _advance_state(state, arrays, np.split(counts[-1], 2), len(u))
        return counts, ~resolved[1][0]

    return steps


def _advance_state(state, arrays, now, length: int) -> None:
    """Move a single state ``length`` steps on: its ``arrays`` to the
    counts ``now``, and its step count."""
    for array, counts in zip(arrays, now):
        array[:] = counts
    if isinstance(state, SequentialState):
        state.substep += 2 * length
    else:
        state.n += length


def _paced(screen, leap, exact):
    """``_drive``'s ``advance`` for a single run.  Every sub-block outside
    a wait is screened: the next sub-blocks of the drawn block in one call,
    as rows padded with copies of their last step, each at the state the
    run reaches if the rows before it pass with the same leader.  The run
    leaps the rows that do, so each decides as it would alone: the rows
    that pass with the run's leader, up to the first that does not, in one
    call of ``leap(leader, end, length)``.  A stack holds one sub-block
    until a pass, up to ``_STACK`` after it, and each stack whose rows all
    pass with the same leader doubles the next, so a settled run screens
    and leaps a drawn block in a call or two.  A call costs about as much
    at 16 rows as at one, 32-46 µs or 15-37 steps of a block stepper, so a
    failed screen's sub-block goes unscreened with the wait after it, up
    to the first cut at least ``_SUB_BLOCK`` steps on, twice as many after
    each further failed screen, at most ``_MAX_WAIT``, or up to the drawn
    block's end.  ``exact(start, u)`` steps such a stretch ``u`` and
    returns the steps of it that a bound decided, which count as screened.
    ``leap`` and ``exact`` return the samples at the record steps inside
    what they cover, for ``_drive``."""
    # the stack's rows to come, last first; the last pass's leader; the next stack's most rows; the next wait
    counters, ahead, lead, size, wait = [0], [], [None], [1], [_SUB_BLOCK]

    def advance(start, block, cuts, i):
        a, k = cuts[i], 1
        if not ahead:
            c = np.array(cuts[i:i + size[0] + 1])
            rows = np.take(block[0], np.minimum(c[:-1, None] + _STEPS, c[1:, None] - 1), axis=0)
            ok, leaders = screen(rows, lead[0], c - a)
            ahead[:] = zip(ok.tolist()[::-1], leaders.tolist()[::-1])
        ok, leader = ahead.pop()
        if ok and leader == lead[0]:
            while ahead and ahead[-1] == (True, leader):  # the rows that pass with it, leapt with it
                ahead.pop()
                k += 1
            if not ahead:  # the whole stack passed
                size[0] *= 2
        else:
            ahead.clear()  # the rows ahead lie on a path the run left
            size[0] = _STACK if ok else 1
        lead[0] = leader if ok else None
        if ok:
            wait[0] = _SUB_BLOCK
            b = cuts[i + k]
            counters[0] += b - a
            return k, leap(leader, start + b, b - a)
        k = min(bisect.bisect_left(cuts, cuts[i + 1] + wait[0], i + 1), len(cuts) - 1) - i
        wait[0] = min(2 * wait[0], _MAX_WAIT)
        b = cuts[i + k]
        decided, inner = exact(start + a, block[0, a:b])
        counters[0] += int(decided)
        return k, inner

    return advance, counters


# ---------------------------------------------------------------------------
# single-urn multi-color model (the p = 1 mechanism, d balls per step)


@dataclass
class MultiColorState:
    nc: int
    counts: np.ndarray
    a: tuple[int, ...]
    d: int
    n: int
    seq: ReinforcementSeq
    rng: np.random.Generator
    seed: int | None
    logw: _LogW


def init_multicolor(nc: int, a, d: int, seq: ReinforcementSeq, seed: int) -> MultiColorState:
    if nc < 2:
        raise ValueError("need at least two colors")
    if d < 1:
        raise ValueError("d (balls per step) must be >= 1")
    a = tuple(_whole_counts(a).tolist())
    if len(a) != nc:
        raise ValueError(f"initial counts must have length nc={nc}")
    if any(v < 0 for v in a):
        raise ValueError("initial counts must be nonnegative")
    if any(v == 0 and seq.domain_start > 0 for v in a):
        raise ValueError("a_i = 0 is not allowed when W(0) = 0")
    if all(v < seq.domain_start for v in a):
        raise ValueError("every color has zero weight")
    return MultiColorState(
        nc=nc, counts=np.array(a, dtype=np.int64), a=a, d=d, n=0,
        seq=seq, rng=stream(seed), seed=seed, logw=_LogW(seq),
    )


def _multicolor_steps(state: MultiColorState, rows, start: int, last_change: list, path: list | None = None) -> None:
    """``_multicolor_step`` on the state as one run, over a block as in
    ``_ium_steps``: one step per row of ``rows``, each the step's d
    uniforms, and a ``path`` list gets each color's count after each step.
    The weights are summed, and the cut points accumulated, left to right,
    as in the kernel."""
    counts = state.counts.tolist()
    state.logw.cover(max(counts) + state.d * len(rows))  # every count the block can reach
    logw = state.logw.table.item
    for step, us in enumerate(rows, start + 1):
        lw = [logw(c) for c in counts]
        hi = max(lw)
        w = [math.exp(v - hi) for v in lw]
        total = functools.reduce(operator.add, w)  # sum() compensates from Python 3.12
        cuts = list(itertools.accumulate([v / total for v in w[:-1]]))
        for u in us:
            c = bisect.bisect_left(cuts, u)  # the cut points below u
            counts[c] += 1
            last_change[c] = step
        if path is not None:
            path.append(counts.copy())
    state.counts[:] = counts
    state.n += len(rows)


def step_multicolor(state: MultiColorState) -> MultiColorState:
    """Add d balls, colors drawn from the weight distribution frozen at the
    step's start (a multinomial increment)."""
    _multicolor_steps(state, state.rng.random((1, state.d)).tolist(), 0, [0] * state.nc)
    return state


# ---------------------------------------------------------------------------
# sequential two-urn process


@dataclass
class SequentialState:
    black: np.ndarray
    red: np.ndarray
    substep: int  # sub-steps completed; macro step = substep // 2
    seq: ReinforcementSeq
    rng: np.random.Generator
    seed: int | None
    logw: _LogW


def init_sequential(black0, red0, seq: ReinforcementSeq, seed: int) -> SequentialState:
    black, red = _whole_counts(black0), _whole_counts(red0)
    if black.shape != (2,) or red.shape != (2,):
        raise ValueError("the sequential process runs on exactly two urns")
    _check_composition(seq, black, red)
    return SequentialState(
        black=black, red=red, substep=0, seq=seq, rng=stream(seed), seed=seed, logw=_LogW(seq)
    )


def _sequential_steps(state: SequentialState, rows, start: int, last_change: list, path: list | None = None) -> None:
    """``_sequential_step`` on the state as one run, over a block: one
    sub-step per uniform of ``rows``, starting at the state's active urn;
    each row is one step for ``last_change`` and ``path``, as in
    ``_ium_steps``."""
    black, red = state.black.tolist(), state.red.tolist()
    total_r = sum(red)
    urn = state.substep % 2
    n_sub = sum(map(len, rows))
    state.logw.cover(max(black + [total_r]) + n_sub)  # every count the block can reach
    logw = state.logw.table.item
    for step, us in enumerate(rows, start + 1):
        for u in us:
            if u < _prob_first(logw(black[urn]), logw(total_r)):
                black[urn] += 1
                last_change[0] = step
            else:
                red[urn] += 1
                total_r += 1
                last_change[1] = step
            urn = 1 - urn
        if path is not None:
            path.append(black + red)
    state.black[:] = black
    state.red[:] = red
    state.substep += n_sub


def step_sequential(state: SequentialState) -> SequentialState:
    """One sub-step: the active urn (alternating) weighs its own black count
    against the pooled red count."""
    _sequential_steps(state, [[state.rng.random()]], 0, [0, 0])
    return state


def sequential_proportions(state: SequentialState) -> np.ndarray:
    """Black-ball proportion per urn of its current balls, at any sub-step."""
    return _black_shares(state.black, state.red, state.substep // 2)


# ---------------------------------------------------------------------------
# pathwise coupling of the interacting and sequential processes


def run_coupled(
    black0,
    red0,
    p: float,
    seq: ReinforcementSeq,
    seed: int,
    n_steps: int,
    record_every: int = 1,
) -> tuple[Trajectory, Trajectory, int]:
    """Run the two-urn interacting mechanism and the sequential process on
    shared uniforms (one interaction draw and one color uniform per urn per
    macro step; the sequential side reuses the color uniforms).

    Requires a non-decreasing weight sequence.  Returns both trajectories
    and the number of violations of the dominance inequalities
    ``seq_red >= ium_red`` and ``seq_black <= ium_black`` (surely 0).

    The pair runs as the two sides of ``_run_sides``, the single-run
    driver, on one weight table sized to the pair's reach: the interacting
    side reads every draw of a step and the sequential side its color
    uniforms.
    A stretch advances in bulk only where both sides pass their screens,
    each along its own leader, and the violations along both leader paths
    are counted in closed form over the leap's whole length
    (``_leap_violations``); over a stretch stepped exactly (``_stepper``)
    they are counted along the stepped counts.  Both trajectories carry
    the pair's counters, in which a step is decided when it is on both
    sides.
    """
    ium = init_ium(2, black0, red0, p, seq, seed)
    seqp = init_sequential(black0, red0, seq, seed)
    if not seq.non_decreasing_up_to(2 * n_steps + ium.total_black + ium.total_red + 1):  # the pair's reach
        raise ValueError("the coupling requires a non-decreasing weight sequence")
    seqp.logw = ium.logw  # one table, sized to the pair's reach
    violations = [0]

    def leapt(to_red, length):
        gaps = (ium.black - seqp.black).tolist() + (seqp.red - ium.red).tolist()
        violations[0] += _leap_violations(gaps, to_red, length)

    def stepped(counts_i, counts_s):
        violations[0] += _violations(counts_i, counts_s)

    takes = [slice(None), slice(1, None, 2)]  # every draw, and the color uniforms
    ti, ts = _run_sides([ium, seqp], takes, n_steps, record_every, leapt=leapt, stepped=stepped)
    return ti, ts, violations[0]


def _along(mech, path, begin: int, length: int, record_every: int):
    """The record samples of a leap or a stretch of ``length`` steps from
    step ``begin``, at the record steps strictly inside it: per record
    step, the shares, each color's total and the counts (the arrays
    joined), which sampling the state there gives, read in one pass off
    ``path(offsets)``, the state's arrays after each of ``offsets`` (a
    column) steps, one row per offset."""
    offsets = range(record_every - begin % record_every, length, record_every)
    if not offsets:
        return []
    arrays = path(np.array(offsets)[:, None])
    return list(zip(mech.shares(*arrays, begin + 1), mech.totals(*arrays), np.concatenate(arrays, axis=1)))


def _rows_of(counts: np.ndarray, n: int):
    """``path(offsets)``, as ``_along`` reads it, of a stretch whose counts
    after each step are the rows of ``counts``, ``n`` arrays joined."""
    return lambda offsets: np.split(np.asarray(counts)[offsets[:, 0] - 1], n, axis=1)


def _leap_violations(gaps: list, to_red, length: int) -> int:
    """``_violations`` along a leap of ``length`` steps with each side on
    its leader path, ``to_red`` per side.  ``gaps`` holds by how much each
    inequality holds at the start: each interacting black count less the
    sequential one, then each sequential red count less the interacting
    one.  Each urn gains one ball a step on both sides, so a gap ``h``
    moves by ``k = to_red[1] - to_red[0]`` a step, and the steps ``s = 1 ..
    length`` with ``h + k s < 0`` are a clamp of ``h``."""
    k = int(to_red[1]) - int(to_red[0])
    if k > 0:
        return sum(min(max(-h - 1, 0), length) for h in gaps)
    if k < 0:
        return sum(length - min(max(h, 0), length) for h in gaps)
    return length * sum(h < 0 for h in gaps)


def _violations(ium, seq) -> int:
    """Violations of the coupling's dominance inequalities over a stretch of
    exactly stepped steps: ``ium`` and ``seq`` hold each side's counts after
    each step, one row per step, black per urn then red per urn.  Each
    sequential black count above its interacting one, and each sequential
    red count below it, is one violation."""
    ium, seq = np.asarray(ium), np.asarray(seq)
    d = ium.shape[1] // 2
    return int(np.count_nonzero(seq[:, :d] > ium[:, :d]) + np.count_nonzero(seq[:, d:] < ium[:, d:]))


# ---------------------------------------------------------------------------
# vectorized ensemble engines (lockstep across runs, per-run streams)

_SUB_BLOCK = 64  # most steps an ensemble screens at once; measured faster than 32 or 48
_MARGIN = 1e-12  # relative shrink of a screened interval; the kernels round far finer
_MAX_WAIT = 1024  # most steps a single run steps unscreened after failed screens
_STACK = _MAX_WAIT // _SUB_BLOCK  # sub-blocks of a single run's first stacked screen after a pass, a wait's worth
_STEPS = np.arange(_SUB_BLOCK)  # the steps of a stacked row, padded to a full sub-block
_SIGN = np.array([[1], [-1]])  # a resolver's bound from below, then from above
_SHARE_MARGIN = np.array([[1.0 - _MARGIN], [1.0 + _MARGIN]])
_MIN_PLAN = 4 * _SUB_BLOCK  # fewest steps a single run plans at once; 2 or 3 sub-blocks timed no faster (2-core x86)
_PASSES = 4  # most passes of ``_resolve``; a mixed-limit run's minority draws take two or three
_OPEN_COST = 14  # block-stepper steps (1.9 µs) an open step of a plan counts as; a one-row kernel takes ~26 µs


@dataclass
class EnsembleRaw:
    """Raw per-run output of a vectorized ensemble: recorded proportion
    samples, per-color last-change steps, and final counts.  The run-steps
    split into those a bound decided, advanced in bulk along a leader path
    or resolved by ``_resolve`` (black/red runs on a non-decreasing table),
    and those stepped through the kernel."""

    steps: np.ndarray  # (k,)
    proportions: np.ndarray  # (n_runs, k, d_or_nc)
    last_add: np.ndarray  # (n_runs, n_colors) step of last count change
    final_counts: np.ndarray  # (n_runs, ...) model specific
    seeds: np.ndarray  # (n_runs,)
    run_steps_screened: int = 0
    run_steps_exact: int = 0


def _streams(master_seed: int, run_offset: int, n_runs: int):
    """Per-run seeds ``derive_seed(master, offset + i)`` and their streams."""
    seeds = np.array([derive_seed(master_seed, run_offset + i) for i in range(n_runs)], dtype=np.uint64)
    return seeds, [stream(int(s)) for s in seeds]


def _check_steps(n_steps: int, record_every: int) -> None:
    if n_steps < 0 or record_every < 1:
        raise ValueError("n_steps must be >= 0 and record_every >= 1")


def _drive(gens, per_step: int, n_steps: int, record_every: int, advance, sample, draw: str = "random"):
    """Advance all runs in lockstep.  Each step's ``per_step`` draws from
    every run's stream are taken in bounded blocks in step order, each cut
    into sub-blocks that end at every record step and hold at most
    ``_SUB_BLOCK`` steps.  ``advance(start, block, cuts, i)`` advances
    sub-block ``i``, ``block[:, cuts[i]:cuts[i + 1]]`` of the (n_runs,
    length, per_step) block of steps ``start + 1 ..``; it may read the
    sub-blocks after it.  It returns ``(k, inner)``: it covered ``k >= 1``
    sub-blocks from ``i`` on, and ``inner`` holds the samples at the record
    steps strictly inside them, in order.  The step that ends the covered
    sub-blocks is sampled from the state.  Returns the recorded
    steps (0, every ``record_every`` and ``n_steps``) and their
    ``sample(step)`` values."""
    _check_steps(n_steps, record_every)
    record = {0: sample(0)}
    chunk = max(1, min(4096, (1 << 23) // max(1, len(gens) * per_step)))
    for start in range(0, n_steps, chunk):
        length = min(chunk, n_steps - start)
        block = np.empty((len(gens), length, per_step))
        for g, row in zip(gens, block):
            getattr(g, draw)(out=row.reshape(-1))
        cuts = [0]
        for mark in [*range((-start) % record_every or record_every, length, record_every), length]:
            cuts += range(cuts[-1] + _SUB_BLOCK, mark, _SUB_BLOCK)
            cuts.append(mark)
        i = 0
        while i < len(cuts) - 1:
            k, inner = advance(start, block, cuts, i)
            marks = [start + e for e in cuts[i + 1:i + k] if (start + e) % record_every == 0]
            if not 1 <= k < len(cuts) - i or len(inner) != len(marks):
                raise InternalConsistencyError(
                    f"an advance from sub-block {i} of {len(cuts) - 1} covered {k} with {len(inner)} inner "
                    f"samples, for {len(marks)} record steps")
            record.update(zip(marks, inner))
            i += k
            end = start + cuts[i]
            if end % record_every == 0 or end == n_steps:
                record[end] = sample(end)
    return np.fromiter(record, dtype=np.int64), list(record.values())


def _ium_step(black: np.ndarray, red: np.ndarray, logw: np.ndarray, p: float, u: np.ndarray) -> np.ndarray:
    """One synchronous interacting-urn step of every run: ``black`` and
    ``red`` are (n_runs, d), ``u`` holds each run's 2d uniforms in urn order
    (interaction draw, then color).  Returns the black increments."""
    q_global = _share(logw[black.sum(axis=1)], logw[red.sum(axis=1)])
    q_local = _share(logw[black], logw[red])
    q = np.where(u[:, 0::2] < p, q_global[:, None], q_local)
    add = (u[:, 1::2] < q).astype(np.int64)
    black += add
    red += 1 - add
    return add


def _multicolor_step(counts: np.ndarray, logw: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Add one ball per column of ``u`` to every row of ``counts``, colors
    drawn from the log weights frozen at the step's start.  Returns the
    balls each color got, shaped like ``counts``."""
    lw = logw[counts].T
    # column by column: faster than max(axis=1) and a broadcast over a few columns
    hi = functools.reduce(np.maximum, lw)
    w = [np.exp(col - hi) for col in lw]
    total = functools.reduce(operator.add, w)  # left to right, as _multicolor_steps sums
    # a ball's color is the number of cut points (cumulative probabilities,
    # summed left to right) below its uniform among the first nc - 1; the
    # last, which rounding can leave below 1, is skipped
    added = np.empty_like(counts)
    at_least = u.shape[1]  # balls of color >= c
    cut = w[0] / total
    for c in range(counts.shape[1] - 1):
        above = sum(u[:, j] > cut for j in range(u.shape[1]))
        added[:, c] = at_least - above
        at_least = above
        if c + 1 < counts.shape[1] - 1:
            cut = cut + w[c + 1] / total
    added[:, -1] = at_least
    counts += added
    return added


def _sequential_step(black: np.ndarray, red: np.ndarray, logw: np.ndarray, u: np.ndarray, first: int = 0) -> np.ndarray:
    """One macro step of every run of the sequential process: ``black`` and
    ``red`` are (n_runs, 2), ``u`` holds each run's two uniforms in draw
    order.  Urn ``first``'s sub-step comes first, and the other urn's sees
    its pooled red count.  Returns the black increments, one column per
    urn."""
    add = np.empty_like(black)
    for urn in (first, 1 - first):
        q = _share(logw[black[:, urn]], logw[red[:, 0] + red[:, 1]])
        add[:, urn] = u[:, urn ^ first] < q
        black[:, urn] += add[:, urn]
        red[:, urn] += 1 - add[:, urn]
    return add


# Leader-path screening (see the module docstring).  A uniform that passes
# lies inside the leader's interval at every step of the sub-block by the
# relative margin _MARGIN, so the kernel would give the leader's color
# whatever its rounding.


def _floor(logw: np.ndarray) -> np.ndarray:
    """``out[n]``: the least log W at any count from ``n`` to the table's
    end, a lower bound on log W along any path from count ``n`` that stays
    in the table, whatever the balls it gains per step.  Ensembles,
    ``run`` and ``run_coupled`` size their tables to every count their
    horizon can reach.  A non-decreasing table is its own floor and is
    returned as it is, with no second array to build (about 5 ns an
    entry) or hold, so a caller tells such a table by ``floor is logw``."""
    return logw if (logw[1:] >= logw[:-1]).all() else np.minimum.accumulate(logw[::-1])[::-1]


def _inside(u: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per run, whether every draw of its sub-block ``u`` (n_runs, length,
    k) lies strictly inside its interval (``lo``, ``hi``).  An infinite
    bound is not tested and a NaN bound fails; reducing only the rows a
    bound tests costs less than reducing every row."""
    ok = np.ones(len(u), dtype=bool)
    for reduce, bound, inside, untested in ((np.min, lo, np.greater, -np.inf), (np.max, hi, np.less, np.inf)):
        rows = np.flatnonzero(bound != untested)
        if rows.size:
            ok[rows] &= inside(reduce(u if rows.size == len(u) else u[rows], axis=(1, 2)), bound[rows])
    return ok


def _black_red_screen(qb: np.ndarray, qr: np.ndarray, uc: np.ndarray):
    """Screen of a black/red mechanism from per-urn bounds on the black
    share: ``qb`` from below along the all-black path, ``qr`` from above
    along the all-red path, both (n_runs, urns).  ``uc`` holds the color
    uniforms, (n_runs, length, urns); a ball is black iff its uniform is
    below the share.  Each run takes the path with the larger bound on the
    leader's share.  Returns the passing runs and which of them go red."""
    qb = qb.min(axis=1) * (1.0 - _MARGIN)
    qr = qr.max(axis=1) * (1.0 + _MARGIN)
    to_red = 1.0 - qr > qb  # false where a bound is NaN
    return _inside(uc, np.where(to_red, qr, -np.inf), np.where(to_red, np.inf, qb)), to_red


def _ium_screen(black, red, logw, floor, u):
    """Screen of ``_ium_step``.  On the black path the black counts only
    grow and the red ones stay, so the floor at each urn's black count and
    at the pooled black total bounds both black shares from below, and a
    color uniform under both is black whatever the interaction draw.  The
    red path mirrors it."""
    total_b, total_r = black.sum(axis=1), red.sum(axis=1)
    qb = np.minimum(_share(floor[total_b], logw[total_r])[:, None], _share(floor[black], logw[red]))
    qr = np.maximum(_share(logw[total_b], floor[total_r])[:, None], _share(logw[black], floor[red]))
    return _black_red_screen(qb, qr, u[:, :, 1::2])


def _sequential_screen(black, red, logw, floor, u, first: int = 0):
    """Screen of ``_sequential_step``.  On the black path each urn's own
    black count grows by one per step against the fixed pooled red count.
    On the red path the pooled red count grows by one per sub-step, so urn
    k first sees it at offset k, or at offset 1 - k when urn ``first`` = 1
    draws first (a state left mid-step by ``step_sequential``), and the
    floor there bounds it from below."""
    total_r = red.sum(axis=1)[:, None]
    qb = _share(floor[black], logw[total_r])
    qr = _share(logw[black], floor[total_r + [first, 1 - first]])
    return _black_red_screen(qb, qr, u)


def _multicolor_screen(counts, logw, floor, u):
    """Screen of ``_multicolor_step``.  The leader, the color of largest
    weight, takes all d balls of every step and the other weights stay,
    so the floor of its log weight bounds its cut-point interval from
    within: the cut point below it falls, and the one above it rises, as
    its weight grows.  The first color has no lower cut point and the last
    no upper one.  Returns the passing runs and their leaders."""
    nc = counts.shape[1]
    rows = np.arange(len(counts))
    lw = logw[counts]
    leader = lw.argmax(axis=1)
    lw[rows, leader] = floor[counts[rows, leader]]
    w = np.exp(lw - lw.max(axis=1, keepdims=True))
    cw = np.cumsum(w, axis=1)
    lo = np.where(leader > 0, cw[rows, leader - 1] / cw[:, -1] * (1.0 + _MARGIN), -np.inf)
    hi = np.where(leader < nc - 1, cw[rows, leader] / cw[:, -1] * (1.0 - _MARGIN), np.inf)
    return _inside(u, lo, hi), leader


def _summed(c: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The sums over the urns of ``c`` (2, rows, urns, steps) at the step
    of each draw ``at``, draws being numbered as in ``_resolve``."""
    _, _, d, n = c.shape
    return c.sum(axis=2).reshape(2, -1)[:, at // (d * n) * n + at % n]


def _ium_decide(black, red, u, p):
    """``_resolve``'s bounds for ``_ium_step`` from ``black`` and ``red``
    (rows, d) over ``u`` (rows, steps, 2d): the color uniforms, one per
    draw, and ``bounds(c, at)``, the black and red counts the draws ``at``
    weigh at their bounds, given ``c`` (2, rows, d, steps), each urn's
    black and red draws decided before each step (none where ``c`` is
    None).  Before step ``t`` urn ``i`` holds ``black[i] + red[i] + t``
    balls, at least ``c`` of them added black and red, and the pooled
    counts hold ``d t`` added balls, bounded by the sums over the urns."""
    rows, n, _ = u.shape
    d = black.shape[1]
    pooled = (u[:, :, 0::2] < p).transpose(0, 2, 1).ravel()
    base = np.where(pooled, black.sum(axis=1).repeat(d * n), black.repeat(n))  # the black count drawn from, at step 0
    grow = np.where(pooled, d, 1) * np.tile(np.arange(n), rows * d)
    x0 = np.stack([base, base + grow])
    size = np.where(pooled, (black.sum(axis=1) + red.sum(axis=1)).repeat(d * n), (black + red).repeat(n)) + grow

    def bounds(c, at):
        x = x0[:, at]
        if c is not None:
            x = x + _SIGN * np.where(pooled[at], _summed(c, at), c.reshape(2, -1)[:, at])
        return x, size[at] - x

    return u[:, :, 1::2].transpose(0, 2, 1).ravel(), bounds


def _sequential_decide(black, red, u, first=0):
    """``_resolve``'s bounds for ``_sequential_step``, as ``_ium_decide``
    gives them: urn ``k`` weighs its black count, bounded as an
    interacting urn's, against the pooled red count, which has gained at
    least the decided red draws before step ``t`` and at most ``2 t``
    balls less the decided black ones, plus the first draw of step ``t``
    at the second."""
    rows, n, _ = u.shape
    k = [first, 1 - first]  # the draw of each urn in a step, and so whether it draws second
    t, own, total_r = np.tile(np.arange(n), 2 * rows), black.repeat(n), red.sum(axis=1).repeat(2 * n)
    x0, y0 = np.stack([own, own + t]), np.stack([total_r + 2 * t + np.tile(np.repeat(k, n), rows), total_r])

    def bounds(c, at):
        if c is None:
            return x0[:, at], y0[:, at]
        return x0[:, at] + _SIGN * c.reshape(2, -1)[:, at], y0[:, at] - _SIGN * _summed(c, at)

    return u[:, :, k].transpose(0, 2, 1).ravel(), bounds


def _resolve(mech, black, red, logw, u, cost: int):
    """The steps of a black/red mechanism over ``u`` (rows, steps,
    uniforms) from ``black`` and ``red`` (rows, urns), with only the steps
    whose draws bounds leave open stepped through the kernel.

    Each urn gains one ball a step, so the draws of each urn decided before
    a step bound its counts and the pooled counts there; the first pass
    knows none.  On a non-decreasing table, which the callers tell by its
    being its own ``_floor``, the black share of a draw lies between the
    shares at the counts ``mech.decide`` bounds it by, so a color uniform
    below the lower one, shrunk by ``_MARGIN``, is black and one above the
    upper one red.  Each further pass bounds the draws still open with the
    draws decided so far.  A pass follows only one that decided at least half
    of the draws it bounded, up to ``_PASSES`` passes: at counts of a few
    balls the bounds span most shares, a pass decides under half, and more
    passes would cost more than the kernel rounds they save.  A step with a
    draw left open goes through ``mech.kernel`` on its exact state: the
    start counts, plus the decided balls before it, plus the kernel's balls
    at the row's earlier open steps.  Round ``k`` steps the ``k``-th open
    step of every row that has one; rows sorted by their open steps make
    each round's rows a prefix.

    Advances ``black`` and ``red`` to the end and returns each step's black
    balls per urn (rows, steps, urns) and which steps were open (rows,
    steps).  Where one round costs ``cost`` steps of the fallback and the
    rounds would cost more than stepping every step, it advances nothing
    and returns None."""
    rows, n, _ = u.shape
    d = black.shape[1]
    color, bounds = mech.decide(black, red, u)  # draw (r * d + i) * n + t is urn i's at step t of row r
    is_black, open_, c = np.empty(color.size, dtype=bool), slice(None), None
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(_PASSES):
            x, y = bounds(c, open_)  # (bound, draws): from below, then from above
            share = _SHARE_MARGIN / (1.0 + np.exp(logw[y] - logw[x]))  # as _share, shrunk by _MARGIN
            u_open = color[open_]
            is_black[open_] = black_now = u_open < share[0]
            keep = ~(black_now | (u_open > share[1]))  # a NaN bound decides nothing
            left = np.flatnonzero(keep) if c is None else open_[keep]
            if k + 1 == _PASSES or not left.size or 2 * left.size > keep.size:
                open_ = left
                break
            won = np.stack([is_black, ~is_black])
            won[:, left] = False
            won = won.reshape(2, rows, d, n)  # each urn's decided black, then red, draws at each step
            open_, c = left, np.cumsum(won, axis=3) - won
    open_steps = np.zeros((rows, n), dtype=bool)
    open_steps.reshape(-1)[open_ // (d * n) * n + open_ % n] = True
    n_open = np.count_nonzero(open_steps, axis=1)
    rounds = int(n_open.max(initial=0))
    if cost * rounds > n:
        return None
    inc = is_black.reshape(rows, d, n).astype(np.int64)  # each urn's black ball at each step
    if rounds:
        row, t = np.divmod(np.flatnonzero(open_steps), n)  # the open steps, row by row
        inc[row, :, t] = 0  # an open step's balls are the kernel's
        before = np.cumsum(inc, axis=2)[row, :, t]
        order = np.argsort(-n_open, kind="stable")
        first = (np.cumsum(n_open) - n_open)[order]  # where each row's open steps start in ``row``
        live = np.count_nonzero(n_open > np.arange(rounds)[:, None], axis=1)
        now, size = black[order], (black + red)[order]  # black counts with the kernel's balls so far
        for k in range(rounds):
            m = live[k]
            pos = first[:m] + k
            b = now[:m] + before[pos]
            grew = mech.kernel(b, size[:m] + t[pos, None] - b, logw, u[row[pos], t[pos]])
            now[:m] += grew
            inc[row[pos], :, t[pos]] = grew
    grown = inc.sum(axis=2)
    black += grown
    red += n - grown
    return inc.transpose(0, 2, 1), open_steps


def _screened(arrays, screen, leap, step):
    """``_drive``'s ``advance`` for a screened ensemble whose per-run state
    is ``arrays`` (rows are runs).  Per sub-block, ``screen(u)`` gives the
    passing runs and their leaders, ``leap(ok, leader, end, length)``
    advances those along their leader paths and ``step(*rows, start, u)``
    steps the others on their row subset; when fewer than half pass, every
    row steps in place instead.  ``step`` returns the run-steps it stepped
    through the kernel, or None for all of them.  Returns the advance and
    its [screened] counter, the run-steps decided by a bound, leaped or
    not; the others are stepped through the kernel."""
    counters = [0]

    def advance(start, block, cuts, i):
        u = block[:, cuts[i]:cuts[i + 1]]
        start, (n_runs, length) = start + cuts[i], u.shape[:2]
        ok, leader = screen(u)
        if 2 * np.count_nonzero(ok) < n_runs:
            ok, exact = np.zeros_like(ok), step(*arrays, start, u)  # every row steps
        else:
            leap(ok, leader, start + length, length)
            flagged, exact = np.flatnonzero(~ok), 0
            if flagged.size:
                part = [a[flagged] for a in arrays]
                exact = step(*part, start, u[flagged])
                for a, rows in zip(arrays, part):
                    a[flagged] = rows
        counters[0] += int(np.count_nonzero(ok) * length if exact is None else n_runs * length - exact)
        return 1, []

    return advance, counters


def _set_last_add(last_add: np.ndarray, grew: np.ndarray, start: int) -> None:
    """Set each run's last-change step per color from ``grew`` (runs, length,
    colors), whether the color grew at step ``start + 1 + t``."""
    np.copyto(last_add, start + grew.shape[1] - grew[:, ::-1].argmax(axis=1), where=grew.any(axis=1))


@dataclass(frozen=True)
class _Mechanism:
    """One urn mechanism, as ``_run_sides`` (the driver of ``run`` and
    ``run_coupled``) and ``_ensemble`` read it.  ``arrays`` are the counts
    ``_dispatch`` gives: rows are runs in an ensemble, and a single state's
    arrays are 1-D.  Both leap along ``path``, whose leader and step count
    ``t`` broadcast against the counts: a column ``t`` gives one state's
    arrays after each count, and a leader and count per row move each row."""

    per_step: int  # uniforms per step
    balls: int  # balls per step
    kernel: Callable  # (*arrays, logw, u) -> balls added: the lockstep step of an ensemble's rows
    grew: Callable  # (balls added (runs, length, k)) -> whether each color grew (runs, length, colors)
    screen: Callable  # (*arrays, logw, floor, u) -> (ok, leader), ``floor`` the table's ``_floor``
    path: Callable  # (*arrays, leader, t) -> the arrays after ``t`` steps along the leader's path
    shares: Callable  # (*arrays, step): the recorded proportions
    steps: Callable  # (state, rows, start, last_change, path): a single state's block stepper
    totals: Callable  # (*arrays) -> each color's total, of one state or of each row of a path
    decide: Callable | None  # (black, red, u) -> (color uniforms, bounds): ``_resolve``'s bounds


def _black_red_grew(n_black: np.ndarray) -> np.ndarray:
    """Whether black and red grew at each step of a black/red mechanism
    (runs, length, 2), from each urn's black balls (runs, length, urns)."""
    n = n_black.sum(axis=2)
    return np.stack([n > 0, n < n_black.shape[2]], axis=2)


def _black_red_path(black, red, to_red, t):
    """The counts after ``t`` steps along the all-black or all-red path."""
    return black + t * (to_red == 0), red + t * (to_red != 0)


def _black_red_totals(black, red):
    """Each color's total: two ints for one state's counts, a row per step
    for a path's.  One state's are summed as Python ints, ten times faster
    than a numpy reduction."""
    if black.ndim == 1:
        return sum(black.tolist()), sum(red.tolist())
    return np.stack([black.sum(axis=1), red.sum(axis=1)], axis=1)


def _ium(d: int, p: float) -> _Mechanism:
    """The interacting urns at ``p``."""

    def kernel(black, red, logw, u):
        return _ium_step(black, red, logw, p, u)

    return _Mechanism(
        per_step=2 * d, balls=d, kernel=kernel, grew=_black_red_grew, screen=_ium_screen,
        path=_black_red_path, shares=_black_shares, steps=_ium_steps, totals=_black_red_totals,
        decide=functools.partial(_ium_decide, p=p),
    )


def _multicolor(d: int) -> _Mechanism:
    """The single urn of ``d`` balls a step."""

    def path(counts, leader, t):
        return (counts + d * t * (np.arange(counts.shape[-1]) == leader),)

    return _Mechanism(
        per_step=d, balls=d, kernel=lambda counts, logw, u: _multicolor_step(counts, logw, u),
        grew=lambda added: added > 0, screen=_multicolor_screen, path=path, shares=_color_shares,
        steps=_multicolor_steps, totals=lambda counts: counts.tolist(), decide=None,
    )


def _sequential(first: int) -> _Mechanism:
    """The sequential process, urn ``first`` drawing first in each step: 1
    in a state left mid-step by ``step_sequential``, 0 otherwise."""

    def kernel(black, red, logw, u):
        return _sequential_step(black, red, logw, u, first)

    return _Mechanism(
        per_step=2, balls=2, kernel=kernel, grew=_black_red_grew,
        screen=functools.partial(_sequential_screen, first=first), path=_black_red_path,
        shares=_black_shares, steps=_sequential_steps, totals=_black_red_totals,
        decide=functools.partial(_sequential_decide, first=first),
    )


def _dispatch(state):
    """The mechanism of a simulator state and its count arrays."""
    if isinstance(state, UrnState):
        return _ium(state.d, state.p), (state.black, state.red)
    if isinstance(state, MultiColorState):
        return _multicolor(state.d), (state.counts,)
    if isinstance(state, SequentialState):
        return _sequential(state.substep % 2), (state.black, state.red)
    raise TypeError(f"unknown state type: {type(state)!r}")


def _ensemble(state, n_steps: int, n_runs: int, master_seed: int, run_offset: int, record_every: int) -> EnsembleRaw:
    """Screened lockstep ensemble of ``n_runs`` runs from ``state``'s
    counts: run ``i`` consumes the stream ``derive_seed(master, offset +
    i)``, as a standalone run of the state at that seed would.  On a
    non-decreasing table, its own ``_floor``, a black/red ensemble resolves
    the runs that fail a screen in ``_resolve``, in up to ``_PASSES``
    passes, falling back to the kernel where the rounds would outnumber
    half the sub-block's steps; other runs step through the kernel."""
    mech, arrays = _dispatch(state)
    totals = mech.totals(*arrays)
    arrays = [np.tile(a, (n_runs, 1)) for a in arrays]
    logw = log_weight_table(state.seq, mech.balls * n_steps + sum(totals) + 1)
    floor = _floor(logw)
    resolvable = mech.decide is not None and floor is logw
    seeds, gens = _streams(master_seed, run_offset, n_runs)
    last_add = np.zeros((n_runs, len(totals)), dtype=np.int64)

    def step(*rows):
        *counts, last, start, u = rows
        resolved = _resolve(mech, *counts, logw, u, 2) if resolvable else None
        if resolved is None:
            added, exact = np.stack([mech.kernel(*counts, logw, us) for us in u.swapaxes(0, 1)], axis=1), None
        else:
            added, exact = resolved[0], np.count_nonzero(resolved[1])
        _set_last_add(last, mech.grew(added), start)
        return exact

    def leap(ok, leader, end, length):
        # every row along its leader's path, a row that fails the screen by no step
        for a, now in zip(arrays, mech.path(*arrays, leader[:, None], length * ok[:, None])):
            a[:] = now
        last_add[ok, leader[ok].astype(np.intp)] = end

    advance, counters = _screened((*arrays, last_add), lambda u: mech.screen(*arrays, logw, floor, u), leap, step)
    steps, props = _drive(gens, mech.per_step, n_steps, record_every, advance, lambda step: mech.shares(*arrays, step))
    screened = counters[0]
    return EnsembleRaw(steps, np.stack(props, axis=1), last_add, np.concatenate(arrays, axis=1), seeds, screened,
                       n_runs * n_steps - screened)


def run_ium_ensemble(
    seq: ReinforcementSeq, p: float, d: int, black0, red0, n_steps: int, n_runs: int,
    master_seed: int, run_offset: int = 0, record_every: int = 100,
) -> EnsembleRaw:
    """All runs advanced in lockstep; run ``i`` consumes the same stream a
    standalone ``init_ium(..., seed=derive_seed(master, offset+i))`` would."""
    return _ensemble(init_ium(d, black0, red0, p, seq, seed=0), n_steps, n_runs, master_seed, run_offset, record_every)


def run_multicolor_ensemble(
    seq: ReinforcementSeq, nc: int, a, d: int, n_steps: int, n_runs: int,
    master_seed: int, run_offset: int = 0, record_every: int = 100,
) -> EnsembleRaw:
    """All runs advanced in lockstep, run ``i`` as a standalone
    ``init_multicolor(..., seed=derive_seed(master, offset+i))``."""
    return _ensemble(init_multicolor(nc, a, d, seq, seed=0), n_steps, n_runs, master_seed, run_offset, record_every)


def run_sequential_ensemble(
    seq: ReinforcementSeq, black0, red0, n_steps: int, n_runs: int,
    master_seed: int, run_offset: int = 0, record_every: int = 100,
) -> EnsembleRaw:
    """All runs of the sequential process advanced in lockstep; run ``i``
    consumes the same two uniforms per macro step a standalone
    ``init_sequential(..., seed=derive_seed(master, offset+i))`` would."""
    return _ensemble(init_sequential(black0, red0, seq, seed=0), n_steps, n_runs, master_seed, run_offset, record_every)
