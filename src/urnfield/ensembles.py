"""Seeded Monte Carlo ensembles over the simulators.

An ensemble is fully identified by its configuration plus a master seed;
run ``i`` uses the stream ``derive_seed(seed, run_offset + i)``, so reports
are bit-identical across re-runs, and a run-index range reproduces the same
runs of a larger ensemble.  The ium, multicolor and embedding models run in
lockstep across runs; the sequential model runs one run at a time.

Almost-sure statements about the models are reported here only as finite
sample frequencies with Wilson confidence intervals.  Limit classification
and monopoly detection are finite-horizon proxies: a run is classified to
an equilibrium cell when its final quarter of recorded samples stays within
the configured radius of it, and a color monopolizes when no other color's
count changed over the final window of steps.  Unresolved runs are reported
as such, never folded into a cell.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dc_field, replace

import numpy as np
from scipy import stats

from . import embedding, meanfield, urns
from .reinforcement import ReinforcementSeq
from .seeds import derive_seed

_CONFIG_SCHEMA = 1


def wilson_interval(successes: int, trials: int, level: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1 or not 0 <= successes <= trials:
        raise ValueError(f"bad counts: {successes}/{trials}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    z = float(stats.norm.ppf(0.5 * (1.0 + level)))
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2.0 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


@dataclass(frozen=True)
class EnsembleConfig:
    """Everything needed to reproduce an ensemble bit for bit."""

    model: str  # ium | multicolor | sequential | embedding
    seq: ReinforcementSeq
    n_steps: int
    n_runs: int
    seed: int
    p: float = 0.0
    d: int = 2
    black0: tuple[int, ...] = (1, 1)
    red0: tuple[int, ...] = (1, 1)
    nc: int = 2
    a: tuple[int, ...] = (1, 1)
    record_every: int = 100
    radius: float = 0.05
    window: int | None = None  # default: final 20% of steps
    run_offset: int = 0

    def __post_init__(self):
        if self.model not in ("ium", "multicolor", "sequential", "embedding"):
            raise ValueError(f"unknown model: {self.model}")
        if self.n_runs < 1:
            raise ValueError("n_runs must be >= 1")
        if self.n_steps < 0:
            raise ValueError("n_steps must be >= 0")
        if not 0.0 < self.radius < 0.5:
            raise ValueError("radius must lie in (0, 0.5)")
        if self.window is not None and not 0 < self.window <= self.n_steps:
            raise ValueError("window must lie in (0, n_steps]")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")

    @property
    def effective_window(self) -> int:
        if self.window is not None:
            return self.window
        return max(1, self.n_steps // 5)

    def to_json(self) -> dict:
        return {
            "schema": _CONFIG_SCHEMA,
            "model": self.model,
            "seq": self.seq.to_json(),
            "n_steps": self.n_steps,
            "n_runs": self.n_runs,
            "seed": self.seed,
            "p": self.p,
            "d": self.d,
            "black0": list(self.black0),
            "red0": list(self.red0),
            "nc": self.nc,
            "a": list(self.a),
            "record_every": self.record_every,
            "radius": self.radius,
            "window": self.window,
            "run_offset": self.run_offset,
        }

    @staticmethod
    def from_json(obj: dict) -> "EnsembleConfig":
        if not isinstance(obj, dict):
            raise ValueError("config must be a JSON object")
        if obj.get("schema") != _CONFIG_SCHEMA:
            raise ValueError(f"unsupported config schema: {obj.get('schema')!r}")
        known = {
            "schema", "model", "seq", "n_steps", "n_runs", "seed", "p", "d",
            "black0", "red0", "nc", "a", "record_every", "radius", "window",
            "run_offset",
        }
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        required = {"model", "seq", "n_steps", "n_runs", "seed"}
        missing = required - set(obj)
        if missing:
            raise ValueError(f"missing config fields: {sorted(missing)}")
        kwargs = {k: obj[k] for k in known - {"schema", "seq"} if k in obj}
        for key in ("black0", "red0", "a"):
            if key in kwargs and kwargs[key] is not None:
                kwargs[key] = tuple(kwargs[key])
        return EnsembleConfig(seq=ReinforcementSeq.from_json(obj["seq"]), **kwargs)


@dataclass(frozen=True)
class CellCount:
    location: tuple[float, ...]
    count: int
    frequency: float
    ci: tuple[float, float]
    stability: str | None = None

    def to_json(self) -> dict:
        return {
            "location": list(self.location),
            "count": self.count,
            "frequency": self.frequency,
            "ci": list(self.ci),
            "stability": self.stability,
        }


@dataclass
class McReport:
    config: EnsembleConfig
    cells: list[CellCount]
    unresolved: int
    monopoly_counts: dict[str, int]
    monopoly_frequency: float
    monopoly_ci: tuple[float, float]
    domination_count: int
    domination_frequency: float
    domination_ci: tuple[float, float]
    window: int
    run_rows: list = dc_field(default_factory=list)  # (run_index, seed, label, final...)
    runtime_s: float = 0.0

    def to_json(self) -> dict:
        """Deterministic report body; runtime is deliberately excluded so
        identical configurations produce byte-identical files."""
        return {
            "config": self.config.to_json(),
            "n_runs": self.config.n_runs,
            "cells": [c.to_json() for c in self.cells],
            "unresolved": self.unresolved,
            "monopoly_counts": self.monopoly_counts,
            "monopoly_frequency": self.monopoly_frequency,
            "monopoly_ci": list(self.monopoly_ci),
            "domination_count": self.domination_count,
            "domination_frequency": self.domination_frequency,
            "domination_ci": list(self.domination_ci),
            "window": self.window,
        }


def _classification_targets(config: EnsembleConfig, equilibria):
    """Cell centers for limit classification, plus the corner indices that
    define domination."""
    if config.model in ("multicolor", "embedding"):
        pts = [tuple(1.0 if j == i else 0.0 for j in range(config.nc)) for i in range(config.nc)]
        return pts, list(range(config.nc)), [None] * config.nc
    if equilibria is None:
        if (
            config.model == "ium"
            and config.d == 2
            and config.seq.kind == "polynomial"
            and len(config.seq.coeffs) >= 3
        ):
            params = meanfield.ModelParams(len(config.seq.coeffs) - 1, config.p)
            equilibria = meanfield.find_equilibria(params)
        else:
            dims = config.d if config.model == "ium" else 2
            pts = [tuple([0.0] * dims), tuple([1.0] * dims)]
            return pts, [0, 1], [None, None]
    else:
        _validate_equilibria(config, equilibria)
    pts = [e.location for e in equilibria]
    stab = [e.stability for e in equilibria]
    corners = [
        i
        for i, pt in enumerate(pts)
        if all(abs(v) < 1e-9 for v in pt) or all(abs(v - 1.0) < 1e-9 for v in pt)
    ]
    return pts, corners, stab


def _validate_equilibria(config: EnsembleConfig, equilibria) -> None:
    """A supplied classification list must be consistent with this model's
    drift; guards against reusing a list computed at different parameters."""
    if config.seq.kind != "polynomial":
        raise ValueError("explicit equilibria only make sense for polynomial weights")
    params = meanfield.ModelParams(len(config.seq.coeffs) - 1, config.p)
    for e in equilibria:
        f1, f2 = meanfield.field(params, e.x, e.y)
        if max(abs(f1), abs(f2)) > 1e-6:
            raise ValueError(
                f"equilibrium {(e.x, e.y)} is not a rest point at (m={params.m}, p={config.p})"
            )


def _run_raw(config: EnsembleConfig) -> urns.EnsembleRaw:
    if config.model == "ium":
        return urns.run_ium_ensemble(
            config.seq, config.p, config.d, config.black0, config.red0,
            config.n_steps, config.n_runs, config.seed, config.run_offset, config.record_every,
        )
    if config.model == "sequential":
        return _run_sequential(config)
    engine = urns.run_multicolor_ensemble if config.model == "multicolor" else embedding.run_embedding_ensemble
    return engine(
        config.seq, config.nc, config.a, config.d,
        config.n_steps, config.n_runs, config.seed, config.run_offset, config.record_every,
    )


def _run_sequential(config: EnsembleConfig) -> urns.EnsembleRaw:
    """Per-run scalar loop for the sequential model."""
    all_props, last_adds, finals, seeds = [], [], [], []
    for i in range(config.n_runs):
        seed = derive_seed(config.seed, config.run_offset + i)
        seeds.append(seed)
        st = urns.init_sequential(config.black0, config.red0, config.seq, seed)
        traj = urns.run(st, config.n_steps, config.record_every)
        moved = np.diff(traj.color_totals, axis=0) > 0
        last_adds.append([traj.steps[np.flatnonzero(m)[-1] + 1] if m.any() else 0 for m in moved.T])
        all_props.append(traj.proportions)
        finals.append(np.concatenate([st.black, st.red]))
    return urns.EnsembleRaw(
        steps=traj.steps,
        proportions=np.stack(all_props),
        last_add=np.array(last_adds, dtype=np.int64),
        final_counts=np.stack(finals),
        seeds=np.array(seeds, dtype=np.uint64),
    )


def run_ensemble(config: EnsembleConfig, equilibria=None) -> McReport:
    """Run the ensemble and classify every run.

    ``equilibria`` optionally supplies the classification cells for the
    two-urn model (they are validated against the configured parameters);
    by default they are computed from the mean-field system when the weight
    sequence is polynomial.
    """
    t0 = time.perf_counter()
    pts, corner_idx, stab = _classification_targets(config, equilibria)
    raw = _run_raw(config)
    end = raw.proportions[:, -1, :]
    labels = urns.classify_limits(raw.proportions, pts, config.radius)
    if config.n_steps == 0:
        labels[:] = -1  # a zero-step run carries no limit information

    window = config.effective_window
    unchanged = raw.last_add <= config.n_steps - window
    n_colors = raw.last_add.shape[1]
    mono_label = np.full(config.n_runs, -1, dtype=np.int64)
    changed_count = (~unchanged).sum(axis=1)
    single = changed_count == 1
    mono_label[single] = np.argmax(~unchanged[single], axis=1)
    if config.n_steps == 0:
        mono_label[:] = -1

    color_names = (
        list(urns.MONOPOLY_LABELS_2)
        if n_colors == 2
        else [f"color{c}" for c in range(n_colors)]
    )
    monopoly_counts = {name: int(np.sum(mono_label == c)) for c, name in enumerate(color_names)}
    monopoly_counts["none"] = int(np.sum(mono_label < 0))
    mono_n = config.n_runs - monopoly_counts["none"]

    cells = []
    for j, pt in enumerate(pts):
        cnt = int(np.sum(labels == j))
        cells.append(
            CellCount(
                location=tuple(float(v) for v in pt),
                count=cnt,
                frequency=cnt / config.n_runs,
                ci=wilson_interval(cnt, config.n_runs),
                stability=stab[j],
            )
        )
    unresolved = int(np.sum(labels < 0))
    dom = int(np.sum(np.isin(labels, corner_idx)))

    def cell_name(j):
        return "(" + ",".join(format(v, ".6g") for v in pts[j]) + ")"

    rows = [
        (
            int(config.run_offset + i),
            int(raw.seeds[i]),
            "unresolved" if labels[i] < 0 else cell_name(labels[i]),
            *[float(v) for v in end[i]],
        )
        for i in range(config.n_runs)
    ]
    return McReport(
        config=config,
        cells=cells,
        unresolved=unresolved,
        monopoly_counts=monopoly_counts,
        monopoly_frequency=mono_n / config.n_runs,
        monopoly_ci=wilson_interval(mono_n, config.n_runs),
        domination_count=dom,
        domination_frequency=dom / config.n_runs,
        domination_ci=wilson_interval(dom, config.n_runs),
        window=window,
        run_rows=rows,
        runtime_s=time.perf_counter() - t0,
    )


@dataclass(frozen=True)
class MonopolyEstimate:
    frequency: float
    ci: tuple[float, float]
    by_color: dict
    window: int
    n_runs: int

    def to_json(self) -> dict:
        return {
            "frequency": self.frequency,
            "ci": list(self.ci),
            "by_color": self.by_color,
            "window": self.window,
            "n_runs": self.n_runs,
        }


def estimate_monopoly_prob(config: EnsembleConfig) -> MonopolyEstimate:
    """Frequency of a detected monopoly at the horizon: a finite-horizon
    lower-bound-style proxy for the monopoly probability."""
    report = run_ensemble(config)
    return MonopolyEstimate(
        frequency=report.monopoly_frequency,
        ci=report.monopoly_ci,
        by_color=report.monopoly_counts,
        window=report.window,
        n_runs=config.n_runs,
    )


@dataclass
class PhaseCurve:
    m: int
    p_grid: list[float]
    frequencies: list[float]
    cis: list[tuple[float, float]]
    threshold: float
    threshold_crossing: float | None  # smallest grid p with frequency >= threshold

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "p_grid": self.p_grid,
            "domination_frequencies": self.frequencies,
            "cis": [list(c) for c in self.cis],
            "threshold": self.threshold,
            "threshold_crossing": self.threshold_crossing,
        }


def scan_p(m: int, p_grid, per_point: EnsembleConfig, threshold: float = 0.99) -> PhaseCurve:
    """Domination frequency along a grid of interaction strengths for the
    degree-m two-urn model.  The reported crossing is an empirical proxy
    for the critical parameter under the given threshold convention, not an
    estimate of the parameter itself."""
    p_grid = [float(p) for p in p_grid]
    if not p_grid:
        raise ValueError("empty p grid")
    seq = per_point.seq
    if seq.kind != "polynomial" or len(seq.coeffs) - 1 != m:
        raise ValueError(f"scan_p needs degree-{m} polynomial weights, got {seq.to_json()}")
    freqs, cis = [], []
    for i, p in enumerate(p_grid):
        config = replace(per_point, model="ium", p=p, seed=derive_seed(per_point.seed, i))
        report = run_ensemble(config)
        freqs.append(report.domination_frequency)
        cis.append(report.domination_ci)
    crossing = next((p for p, f in zip(p_grid, freqs) if f >= threshold), None)
    return PhaseCurve(m, p_grid, freqs, cis, threshold, crossing)
