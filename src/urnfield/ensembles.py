"""Seeded Monte Carlo ensembles over the simulators.

An ensemble is fully identified by its configuration plus a master seed;
run ``i`` uses the stream ``derive_seed(seed, run_offset + i)``, so reports
are bit-identical across re-runs, and a run-index range reproduces the same
runs of a larger ensemble.  Every model runs in lockstep across runs on
its mechanism's one kernel.  The sequential driver gives each run two
uniforms per macro step from its own stream, urn 0's sub-step first, as a
standalone ``urns.run`` at that run's seed does.  Monopoly verdicts use
each color's exact last-change step, whatever ``record_every`` is.

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
from dataclasses import MISSING, dataclass, field as dc_field, fields, replace

import numpy as np

from . import embedding, formats, meanfield, urns
from .reinforcement import ReinforcementSeq
from .seeds import check_seed, derive_seed


_Z95 = 1.959963984540054  # scipy.special.ndtri(0.975) to the bit; NormalDist().inv_cdf(0.975) is another double


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials < 1 or not 0 <= successes <= trials:
        raise ValueError(f"bad counts: {successes}/{trials}")
    phat = successes / trials
    denom = 1.0 + _Z95 * _Z95 / trials
    center = (phat + _Z95 * _Z95 / (2.0 * trials)) / denom
    half = _Z95 * math.sqrt(phat * (1.0 - phat) / trials + _Z95 * _Z95 / (4.0 * trials * trials)) / denom
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
    window: int | None = None  # None: urns.monopoly_labels chooses
    run_offset: int = 0

    def __post_init__(self):
        if self.model not in ("ium", "multicolor", "sequential", "embedding"):
            raise ValueError(f"unknown model: {self.model}")
        check_seed(self.seed)
        if self.model == "sequential" and self.d != 2:
            raise ValueError(f"d must be 2 for the sequential model, which runs two urns; got {self.d}")
        if self.model != "ium" and self.p != 0.0:
            raise ValueError(f"p applies to the ium model only; got p = {self.p} with model {self.model}")
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

    def to_json(self) -> dict:
        return {"schema": formats.SCHEMA, **formats.json_fields(self)}

    @staticmethod
    def from_json(obj: dict) -> "EnsembleConfig":
        types = {f.name: f.type for f in fields(EnsembleConfig)}
        required = [f.name for f in fields(EnsembleConfig) if f.default is MISSING]
        kwargs = formats.read_fields(obj, types, required, "config")
        return EnsembleConfig(seq=ReinforcementSeq.from_json(kwargs.pop("seq")), **kwargs)


@dataclass(frozen=True)
class CellCount:
    location: tuple[float, ...]
    count: int
    frequency: float
    ci: tuple[float, float]
    stability: str | None = None

    def to_json(self) -> dict:
        return formats.json_fields(self)


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
    run_steps_screened: int = 0  # decided by a bound: leaped along a leader path or resolved
    run_steps_exact: int = 0  # stepped through the kernel

    def to_json(self) -> dict:
        """Deterministic report body; runtime and the run-step counters are
        deliberately excluded so identical configurations produce
        byte-identical files."""
        skip = ("run_rows", "runtime_s", "run_steps_screened", "run_steps_exact")
        return {**formats.json_fields(self, skip), "n_runs": self.config.n_runs}


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


def _run_raw(c: EnsembleConfig) -> urns.EnsembleRaw:
    tail = (c.n_steps, c.n_runs, c.seed, c.run_offset, c.record_every)
    if c.model == "ium":
        return urns.run_ium_ensemble(c.seq, c.p, c.d, c.black0, c.red0, *tail)
    if c.model == "sequential":
        return urns.run_sequential_ensemble(c.seq, c.black0, c.red0, *tail)
    engine = urns.run_multicolor_ensemble if c.model == "multicolor" else embedding.run_embedding_ensemble
    return engine(c.seq, c.nc, c.a, c.d, *tail)


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

    window, names, mono_label = urns.monopoly_labels(raw.last_add, config.n_steps, config.window)
    monopoly_counts = dict(zip(names, np.bincount(mono_label, minlength=len(names)).tolist()))
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
        run_steps_screened=raw.run_steps_screened,
        run_steps_exact=raw.run_steps_exact,
    )


@dataclass(frozen=True)
class MonopolyEstimate:
    frequency: float
    ci: tuple[float, float]
    by_color: dict
    window: int
    n_runs: int

    def to_json(self) -> dict:
        return formats.json_fields(self)


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
        return {**formats.json_fields(self, ("frequencies",)), "domination_frequencies": self.frequencies}


def scan_p(m: int, p_grid, per_point: EnsembleConfig, threshold: float = 0.99) -> PhaseCurve:
    """Domination frequency along a grid of interaction strengths for the
    degree-m two-urn model.  The reported crossing is an empirical proxy
    for the critical parameter under the given threshold convention, not an
    estimate of the parameter itself."""
    p_grid = [float(p) for p in p_grid]
    if not p_grid:
        raise ValueError("empty p grid")
    if not all(0.0 <= p <= 1.0 for p in p_grid):
        raise ValueError(f"every p of the grid must be in [0, 1], got {p_grid}")
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    if per_point.model != "ium":
        raise ValueError(f"scan_p scans the two-urn ium model, got model {per_point.model!r}")
    seq = per_point.seq
    if seq.kind != "polynomial" or len(seq.coeffs) - 1 != m:
        raise ValueError(f"scan_p needs degree-{m} polynomial weights, got {seq.to_json()}")
    freqs, cis = [], []
    for i, p in enumerate(p_grid):
        config = replace(per_point, p=p, seed=derive_seed(per_point.seed, i))
        report = run_ensemble(config)
        freqs.append(report.domination_frequency)
        cis.append(report.domination_ci)
    crossing = next((p for p, f in zip(p_grid, freqs) if f >= threshold), None)
    return PhaseCurve(m, p_grid, freqs, cis, threshold, crossing)
