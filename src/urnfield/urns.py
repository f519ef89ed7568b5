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

Each mechanism has one lockstep kernel (``_ium_step``, ``_multicolor_step``,
``_sequential_step``) that ensembles drive; single runs keep the scalar
steppers, the per-step references the kernels are tested against.  One
loop, ``_drive``, draws and records for ensembles, ``run`` and
``run_coupled`` alike.

Counts and probabilities are handled through log weights, so exponential
reinforcement never overflows.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ConditionViolation
from .reinforcement import ReinforcementSeq, log_weight_table
from .seeds import derive_seed

_LOG_EXP_CLIP = float(np.log(np.finfo(float).max))  # math.exp overflows above this
MONOPOLY_LABELS_2 = ("black", "red")


class _LogW:
    """Growable lookup of log W(n); ``-inf`` marks zero weight."""

    def __init__(self, seq: ReinforcementSeq, initial: int = 256):
        self.seq = seq
        self.table = log_weight_table(seq, initial)

    def __call__(self, n: int) -> float:
        if n >= self.table.size:
            self.table = log_weight_table(self.seq, max(n, 2 * self.table.size))
        return float(self.table[n])


def _prob_first(log_a: float, log_b: float) -> float:
    """weight_a / (weight_a + weight_b) from log weights."""
    if log_a == -math.inf:
        if log_b == -math.inf:
            raise ConditionViolation("both pool weights are zero")
        return 0.0
    if log_b == -math.inf:
        return 1.0
    d = log_b - log_a
    if d > _LOG_EXP_CLIP:
        return 0.0  # what 1 / (1 + inf) gives in _vec_prob
    return 1.0 / (1.0 + math.exp(d))


def _vec_prob(log_a: np.ndarray, log_b: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        q = 1.0 / (1.0 + np.exp(log_b - log_a))
    if np.isnan(q).any():
        raise ConditionViolation("both pool weights are zero")
    return q


# ---------------------------------------------------------------------------
# trajectories


@dataclass
class Trajectory:
    """Recorded time series of a single run.

    ``proportions`` holds one column per urn (or per color for the
    multi-color model); ``color_totals`` the per-color system totals at the
    same sample steps.  Sample steps are strictly increasing.
    """

    steps: np.ndarray
    proportions: np.ndarray
    color_totals: np.ndarray
    counts: np.ndarray | None = None
    events: dict = dc_field(default_factory=dict)
    seed: int | None = None
    meta: dict = dc_field(default_factory=dict)

    def csv_bytes(self, what: str = "proportions") -> bytes:
        """CSV of the samples: ``step``, then ``x_i`` per urn or color (17
        significant digits) or, with ``what="counts"``, ``c_i`` per count."""
        if what == "proportions":
            prefix, data, cell = "x", self.proportions, lambda v: format(v, ".17g")
        elif what == "counts":
            if self.counts is None:
                raise ValueError("trajectory was recorded without counts")
            prefix, data, cell = "c", self.counts, int
        else:
            raise ValueError(f"unknown export: {what}")
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["step"] + [f"{prefix}_{i + 1}" for i in range(data.shape[1])])
        w.writerows([int(s)] + [cell(v) for v in row] for s, row in zip(self.steps, data))
        return buf.getvalue().encode()

    def to_csv(self, path, what: str = "proportions") -> None:
        with open(path, "wb") as fh:
            fh.write(self.csv_bytes(what))


def detect_monopoly(traj: Trajectory, window: int) -> str:
    """Finite-horizon monopoly proxy: the label of the single color whose
    total changed over the final ``window`` steps, or ``"none"``.

    Totals are nondecreasing, so a color is unchanged over the window iff it
    is equal at the window's first recorded sample and at the end."""
    if window <= 0:
        raise ValueError("window must be positive")
    steps = traj.steps
    final = int(steps[-1])
    base_candidates = np.nonzero(steps <= final - window)[0]
    if base_candidates.size == 0:
        raise ValueError(f"window {window} exceeds the recorded span")
    base = base_candidates[-1]
    changed = np.nonzero(traj.color_totals[-1] != traj.color_totals[base])[0]
    if changed.size != 1:
        return "none"
    c = int(changed[0])
    n_colors = traj.color_totals.shape[1]
    return MONOPOLY_LABELS_2[c] if n_colors == 2 else f"color{c}"


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
    initial_totals: np.ndarray  # per-urn black0 + red0
    logw: _LogW

    @property
    def total_black(self) -> int:
        return int(self.black.sum())

    @property
    def total_red(self) -> int:
        return int(self.red.sum())


def _check_composition(seq: ReinforcementSeq, black, red, logw: _LogW) -> None:
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
        if logw(int(black[i])) == -math.inf and logw(int(red[i])) == -math.inf:
            raise ValueError(f"urn {i + 1} has zero weight in both pools")


def init_ium(d: int, black0, red0, p: float, seq: ReinforcementSeq, seed: int) -> UrnState:
    """Fresh interacting-urn state at step 0."""
    if d < 1:
        raise ValueError("need at least one urn")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    black = np.asarray(black0, dtype=np.int64).copy()
    red = np.asarray(red0, dtype=np.int64).copy()
    if black.shape != (d,) or red.shape != (d,):
        raise ValueError(f"initial compositions must have length d={d}")
    logw = _LogW(seq)
    _check_composition(seq, black, red, logw)
    if logw(int(black.sum())) == -math.inf and logw(int(red.sum())) == -math.inf:
        raise ValueError("system-wide pools both have zero weight")
    rng = np.random.Generator(np.random.PCG64(seed))
    return UrnState(
        d=d, black=black, red=red, n=0, p=p, seq=seq, rng=rng, seed=seed,
        initial_totals=black + red, logw=logw,
    )


def _step_ium_core(state: UrnState, uniforms: np.ndarray) -> np.ndarray:
    """Advance one step given the 2d uniforms of this step; returns the
    black-increment vector.  All urns see the step-n counts."""
    logw = state.logw
    p = state.p
    log_gb = logw(state.total_black)
    log_gr = logw(state.total_red)
    q_global = None
    add = np.empty(state.d, dtype=np.int64)
    for i in range(state.d):
        if uniforms[2 * i] < p:
            if q_global is None:
                q_global = _prob_first(log_gb, log_gr)
            q = q_global
        else:
            q = _prob_first(logw(int(state.black[i])), logw(int(state.red[i])))
        add[i] = uniforms[2 * i + 1] < q
    state.black += add
    state.red += 1 - add
    state.n += 1
    return add


def step_ium(state: UrnState) -> UrnState:
    """One synchronous step: each urn draws from the pooled counts with
    probability p, from itself otherwise."""
    _step_ium_core(state, state.rng.random(2 * state.d))
    return state


def proportions(state: UrnState) -> np.ndarray:
    """Black-ball proportion per urn: B_n(i) / (n + B_0(i) + R_0(i))."""
    return state.black / (state.n + state.initial_totals)


def run(state, n_steps: int, record_every: int = 1, record_counts: bool = False) -> Trajectory:
    """Advance any simulator state ``n_steps`` steps, recording proportions
    at the given cadence (step 0 and the final step are always recorded).
    Consecutive runs of a state continue its one stream."""
    if n_steps < 0 or record_every < 1:
        raise ValueError("n_steps must be >= 0 and record_every >= 1")
    per_step, step_core, props_of, totals_of, counts_of, meta = _dispatch(state)

    def sample(step):
        return props_of(state), totals_of(state), counts_of(state) if record_counts else None

    def advance(step, u):
        step_core(state, u[0].tolist())  # Python floats compare faster than numpy scalars

    steps, samples = _drive([state.rng], per_step, n_steps, record_every, advance, sample)
    props, totals, counts = zip(*samples)
    return Trajectory(
        steps=steps,
        proportions=np.array(props, dtype=float),
        color_totals=np.array(totals, dtype=np.int64),
        counts=np.array(counts, dtype=np.int64) if record_counts else None,
        seed=state.seed,
        meta=meta(state),
    )


def _dispatch(state):
    """Uniforms per step, the scalar stepper fed them, and what a trajectory records."""
    if isinstance(state, UrnState):
        return (
            2 * state.d,
            _step_ium_core,
            proportions,
            lambda s: (s.total_black, s.total_red),
            lambda s: np.concatenate([s.black, s.red]),
            lambda s: {"model": "ium", "d": s.d, "p": s.p, "seq": s.seq.to_json()},
        )
    if isinstance(state, MultiColorState):
        return (
            state.d,
            _step_multicolor_core,
            lambda s: s.counts / s.counts.sum(),
            lambda s: tuple(s.counts),
            lambda s: s.counts.copy(),
            lambda s: {"model": "multicolor", "nc": s.nc, "d": s.d, "seq": s.seq.to_json()},
        )
    if isinstance(state, SequentialState):
        return (
            2,
            _step_sequential_pair,
            sequential_proportions,
            lambda s: (int(s.black.sum()), int(s.red.sum())),
            lambda s: np.concatenate([s.black, s.red]),
            lambda s: {"model": "sequential", "seq": s.seq.to_json()},
        )
    raise TypeError(f"unknown state type: {type(state)!r}")


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
    a = tuple(int(v) for v in a)
    if len(a) != nc:
        raise ValueError(f"initial counts must have length nc={nc}")
    if any(v < 0 for v in a):
        raise ValueError("initial counts must be nonnegative")
    logw = _LogW(seq)
    if any(v == 0 and seq.domain_start > 0 for v in a):
        raise ValueError("a_i = 0 is not allowed when W(0) = 0")
    if all(logw(v) == -math.inf for v in a):
        raise ValueError("every color has zero weight")
    rng = np.random.Generator(np.random.PCG64(seed))
    return MultiColorState(
        nc=nc, counts=np.array(a, dtype=np.int64), a=a, d=d, n=0,
        seq=seq, rng=rng, seed=seed, logw=logw,
    )


def _color_probs(logw_vals: np.ndarray) -> np.ndarray:
    hi = logw_vals.max()
    if hi == -math.inf:
        raise ConditionViolation("every color has zero weight")
    w = np.exp(logw_vals - hi)
    return w / w.sum()


def _step_multicolor_core(state: MultiColorState, uniforms: np.ndarray) -> None:
    lw = np.array([state.logw(int(c)) for c in state.counts])
    cum = np.cumsum(_color_probs(lw))
    for u in uniforms:
        idx = min(int((u > cum).sum()), state.nc - 1)
        state.counts[idx] += 1
    state.n += 1


def step_multicolor(state: MultiColorState) -> MultiColorState:
    """Add d balls, colors drawn from the weight distribution frozen at the
    step's start (a multinomial increment)."""
    _step_multicolor_core(state, state.rng.random(state.d))
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
    initial_totals: np.ndarray
    logw: _LogW


def init_sequential(black0, red0, seq: ReinforcementSeq, seed: int) -> SequentialState:
    black = np.asarray(black0, dtype=np.int64).copy()
    red = np.asarray(red0, dtype=np.int64).copy()
    if black.shape != (2,) or red.shape != (2,):
        raise ValueError("the sequential process runs on exactly two urns")
    logw = _LogW(seq)
    _check_composition(seq, black, red, logw)
    rng = np.random.Generator(np.random.PCG64(seed))
    return SequentialState(
        black=black, red=red, substep=0, seq=seq, rng=rng, seed=seed,
        initial_totals=black + red, logw=logw,
    )


def _step_sequential_core(state: SequentialState, u: float) -> None:
    urn = state.substep % 2
    q = _prob_first(
        state.logw(int(state.black[urn])), state.logw(int(state.red.sum()))
    )
    if u < q:
        state.black[urn] += 1
    else:
        state.red[urn] += 1
    state.substep += 1


def step_sequential(state: SequentialState) -> SequentialState:
    """One sub-step: the active urn (alternating) weighs its own black count
    against the pooled red count."""
    _step_sequential_core(state, float(state.rng.random()))
    return state


def _step_sequential_pair(state: SequentialState, uniforms) -> None:
    """One macro step from its two uniforms: urn 0's sub-step, then urn 1's."""
    for u in uniforms:
        _step_sequential_core(state, u)


def sequential_proportions(state: SequentialState) -> np.ndarray:
    n = state.substep // 2
    return state.black / (n + state.initial_totals)


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
    """
    total0 = int(np.sum(black0) + np.sum(red0))
    bound = 2 * n_steps + total0 + 2
    if not seq.non_decreasing_up_to(bound):
        raise ValueError("the coupling requires a non-decreasing weight sequence")
    ium = init_ium(2, black0, red0, p, seq, seed)
    seqp = init_sequential(black0, red0, seq, seed)
    violations = 0

    def advance(step, u):
        nonlocal violations
        us = u[0].tolist()
        _step_ium_core(ium, us)
        _step_sequential_pair(seqp, us[1::2])
        violations += int(seqp.red[0] < ium.red[0]) + int(seqp.red[1] < ium.red[1])
        violations += int(seqp.black[0] > ium.black[0]) + int(seqp.black[1] > ium.black[1])

    def sample(step):
        seq_totals = (int(seqp.black.sum()), int(seqp.red.sum()))
        return proportions(ium), sequential_proportions(seqp), (ium.total_black, ium.total_red), seq_totals

    rng = np.random.Generator(np.random.PCG64(seed))
    steps, samples = _drive([rng], 4, n_steps, record_every, advance, sample)
    props_i, props_s, totals_i, totals_s = zip(*samples)

    def mk(props, totals, model):
        return Trajectory(
            steps=steps.copy(),
            proportions=np.array(props, dtype=float),
            color_totals=np.array(totals, dtype=np.int64),
            seed=seed,
            meta={"model": model, "p": p, "seq": seq.to_json()},
        )

    return mk(props_i, totals_i, "ium"), mk(props_s, totals_s, "sequential"), violations


# ---------------------------------------------------------------------------
# vectorized ensemble engines (lockstep across runs, per-run streams)


@dataclass
class EnsembleRaw:
    """Raw per-run output of a vectorized ensemble: recorded proportion
    samples, per-color last-change steps, and final counts."""

    steps: np.ndarray  # (k,)
    proportions: np.ndarray  # (n_runs, k, d_or_nc)
    last_add: np.ndarray  # (n_runs, n_colors) step of last count change
    final_counts: np.ndarray  # (n_runs, ...) model specific
    seeds: np.ndarray  # (n_runs,)


def _streams(master_seed: int, run_offset: int, n_runs: int):
    """Per-run seeds ``derive_seed(master, offset + i)`` and their streams."""
    seeds = np.array([derive_seed(master_seed, run_offset + i) for i in range(n_runs)], dtype=np.uint64)
    return seeds, [np.random.Generator(np.random.PCG64(int(s))) for s in seeds]


def _drive(gens, per_step: int, n_steps: int, record_every: int, advance, sample, draw: str = "random"):
    """Advance all runs in lockstep: each step's ``per_step`` draws from
    every run's stream, taken in bounded blocks in step order, go to
    ``advance(step, draws)`` as an (n_runs, per_step) array.  Returns the
    recorded steps and the list of ``sample(step)`` values, taken at step
    0, every ``record_every`` steps and at ``n_steps``."""
    steps, samples = [0], [sample(0)]
    chunk = max(1, min(4096, (1 << 23) // max(1, len(gens) * per_step)))
    for start in range(0, n_steps, chunk):
        length = min(chunk, n_steps - start)
        block = np.stack([getattr(g, draw)(size=length * per_step) for g in gens])
        for step, draws in enumerate(block.reshape(len(gens), length, per_step).swapaxes(0, 1), start + 1):
            advance(step, draws)
            if step % record_every == 0 or step == n_steps:
                steps.append(step)
                samples.append(sample(step))
    return np.array(steps, dtype=np.int64), samples


def _ium_step(black: np.ndarray, red: np.ndarray, logw: np.ndarray, p: float, u: np.ndarray) -> np.ndarray:
    """One synchronous interacting-urn step of every run: ``black`` and
    ``red`` are (n_runs, d), ``u`` holds each run's 2d uniforms in urn order
    (interaction draw, then color).  Returns the black increments."""
    q_global = _vec_prob(logw[black.sum(axis=1)], logw[red.sum(axis=1)])
    q_local = _vec_prob(logw[black], logw[red])
    q = np.where(u[:, 0::2] < p, q_global[:, None], q_local)
    add = (u[:, 1::2] < q).astype(np.int64)
    black += add
    red += 1 - add
    return add


def _multicolor_step(counts: np.ndarray, logw: np.ndarray, u: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Add one ball per column of ``u`` to every row of ``counts``, colors
    drawn from the log weights frozen at the step's start.  Returns the
    drawn colors, one column per ball."""
    lw = logw[counts]
    hi = functools.reduce(np.maximum, lw.T)  # faster than max(axis=1) over a few columns
    if np.isneginf(hi).any():
        raise ConditionViolation("every color has zero weight")
    w = np.exp(lw - hi[:, None])
    cum = np.cumsum(w / w.sum(axis=1, keepdims=True), axis=1)
    # a color is the number of cut points below u; cum never decreases, so
    # skipping the last cut point is the scalar stepper's clip to nc - 1
    idx = np.zeros(u.shape, dtype=np.int64)
    for c in range(counts.shape[1] - 1):
        idx += u > cum[:, c, None]
    for j in range(u.shape[1]):
        counts[rows, idx[:, j]] += 1
    return idx


def _sequential_step(black: np.ndarray, red: np.ndarray, logw: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One macro step of every run of the sequential process: ``black`` and
    ``red`` are (n_runs, 2), ``u`` holds each run's two uniforms.  Urn 0's
    sub-step comes first, and urn 1's sees its pooled red count.  Returns
    the black increments, one column per urn."""
    add = np.empty_like(black)
    for urn in (0, 1):
        q = _vec_prob(logw[black[:, urn]], logw[red[:, 0] + red[:, 1]])
        add[:, urn] = u[:, urn] < q
        black[:, urn] += add[:, urn]
        red[:, urn] += 1 - add[:, urn]
    return add


def _black_red_ensemble(kernel, per_step, seq, black0, red0, n_steps, n_runs, master_seed, run_offset, record_every):
    """Lockstep driver of a black/red mechanism whose ``kernel(black, red,
    logw, u)`` advances every run one step, each urn gaining one ball, and
    returns the black increments."""
    black = np.tile(np.asarray(black0, dtype=np.int64), (n_runs, 1))
    red = np.tile(np.asarray(red0, dtype=np.int64), (n_runs, 1))
    init_totals = black[0] + red[0]
    logw = log_weight_table(seq, black.shape[1] * n_steps + int(init_totals.sum()) + 1)
    seeds, gens = _streams(master_seed, run_offset, n_runs)
    last_add = np.zeros((n_runs, 2), dtype=np.int64)

    def advance(step, u):
        add = kernel(black, red, logw, u)
        last_add[add.any(axis=1), 0] = step
        last_add[(add == 0).any(axis=1), 1] = step

    steps, props = _drive(gens, per_step, n_steps, record_every, advance, lambda step: black / (step + init_totals))
    return EnsembleRaw(steps, np.stack(props, axis=1), last_add, np.concatenate([black, red], axis=1), seeds)


def run_ium_ensemble(
    seq: ReinforcementSeq,
    p: float,
    d: int,
    black0,
    red0,
    n_steps: int,
    n_runs: int,
    master_seed: int,
    run_offset: int = 0,
    record_every: int = 100,
) -> EnsembleRaw:
    """All runs advanced in lockstep; run ``i`` consumes the same stream a
    standalone ``init_ium(..., seed=derive_seed(master, offset+i))`` would."""
    init_ium(d, black0, red0, p, seq, seed=0)  # validates arguments
    return _black_red_ensemble(
        lambda black, red, logw, u: _ium_step(black, red, logw, p, u), 2 * d,
        seq, black0, red0, n_steps, n_runs, master_seed, run_offset, record_every,
    )


def run_multicolor_ensemble(
    seq: ReinforcementSeq,
    nc: int,
    a,
    d: int,
    n_steps: int,
    n_runs: int,
    master_seed: int,
    run_offset: int = 0,
    record_every: int = 100,
) -> EnsembleRaw:
    init_multicolor(nc, a, d, seq, seed=0)  # validates arguments
    counts = np.tile(np.asarray(a, dtype=np.int64), (n_runs, 1))
    logw = log_weight_table(seq, int(np.sum(a)) + d * n_steps + 1)
    rows = np.arange(n_runs)
    seeds, gens = _streams(master_seed, run_offset, n_runs)
    last_add = np.zeros((n_runs, nc), dtype=np.int64)

    def advance(step, u):
        last_add[rows[:, None], _multicolor_step(counts, logw, u, rows)] = step

    steps, props = _drive(
        gens, d, n_steps, record_every, advance, lambda step: counts / counts.sum(axis=1, keepdims=True)
    )
    return EnsembleRaw(steps, np.stack(props, axis=1), last_add, counts, seeds)


def run_sequential_ensemble(
    seq: ReinforcementSeq, black0, red0, n_steps: int, n_runs: int,
    master_seed: int, run_offset: int = 0, record_every: int = 100,
) -> EnsembleRaw:
    """All runs of the sequential process advanced in lockstep; run ``i``
    consumes the same two uniforms per macro step a standalone
    ``init_sequential(..., seed=derive_seed(master, offset+i))`` would."""
    init_sequential(black0, red0, seq, seed=0)  # validates arguments
    return _black_red_ensemble(
        _sequential_step, 2, seq, black0, red0, n_steps, n_runs, master_seed, run_offset, record_every
    )
