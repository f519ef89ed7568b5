"""Spans and counts at urnfield's layer boundaries, recorded from outside.

A wrapper replaces a public function on the module attribute its caller
looks up (``ensembles`` calls ``urns.run_ium_ensemble``, so the wrapper goes
on ``urns``), records a span (name, start, end, parent, round) around the
call, and attaches counts derived from the call's arguments and result.
Spans stay in memory until the run ends.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
from collections import defaultdict
from time import perf_counter

from urnfield import cli, embedding, ensembles, meanfield, reinforcement, urns

_CHECKS = ("check_strong", "check_variation_bound", "check_remainder_bound", "check_mdrem_conditions")


def _ensemble_counts(per_step: int):
    def counts(a, result):
        run_steps = a["n_steps"] * a["n_runs"]
        return {"run_steps": run_steps, "uniforms": per_step * a["d"] * run_steps}
    return counts


def _run_counts(a, result):
    # uniforms per step by the RNG contract: 2d (ium), d (multicolor), and one
    # per sub-step, two sub-steps per step (sequential)
    state = a["state"]
    if isinstance(state, urns.UrnState):
        per_step = 2 * state.d
    elif isinstance(state, urns.MultiColorState):
        per_step = state.d
    else:
        per_step = 2
    return {"steps": a["n_steps"], "uniforms": per_step * a["n_steps"]}


# (module, attribute, span name, counts from the bound arguments and result)
BOUNDARIES = (
    *[(reinforcement, name, f"reinforcement.{name}", None) for name in _CHECKS],
    (urns, "log_weight_table", "reinforcement.log_weight_table", None),
    (meanfield, "find_equilibria", "meanfield.find_equilibria", None),
    (urns, "run_ium_ensemble", "urns.run_ium_ensemble", _ensemble_counts(2)),
    (urns, "run_multicolor_ensemble", "urns.run_multicolor_ensemble", _ensemble_counts(1)),
    (urns, "run", "urns.run", _run_counts),
    (urns, "run_coupled", "urns.run_coupled",
     lambda a, r: {"steps": a["n_steps"], "uniforms": 4 * a["n_steps"]}),
    (embedding, "sample_embedding_counts", "embedding.sample_embedding_counts",
     lambda a, r: {"jumps": a["k"] * a["d"] * a["n_samples"]}),
    (embedding, "sample_multicolor_counts", "embedding.sample_multicolor_counts", None),
    (embedding, "compare_laws", "embedding.compare_laws",
     lambda a, r: {"categories": len(r.categories)}),
    (embedding, "advance_to_next_jump", "embedding.advance_to_next_jump", None),
    (ensembles, "run_ensemble", "ensembles.run_ensemble", None),
    (ensembles, "scan_p", "ensembles.scan_p", None),
    (cli, "main", "cli.main", None),
)

# per-layer metric name -> unit, in the order they are reported
LAYER_METRICS = {
    "reinforcement.check_s": "s",
    "reinforcement.log_weight_table_s": "s",
    "meanfield.find_equilibria_s": "s",
    "urns.ium_ensemble_s": "s",
    "urns.ium_ensemble_ns_per_run_step": "ns",
    "urns.ium_ensemble_run_steps": "count",
    "urns.multicolor_ensemble_s": "s",
    "urns.multicolor_ensemble_ns_per_run_step": "ns",
    "urns.multicolor_ensemble_run_steps": "count",
    "urns.run_us_per_step": "us",
    "urns.run_coupled_us_per_step": "us",
    "urns.uniforms_drawn": "count",
    "embedding.sample_embedding_counts_s": "s",
    "embedding.sample_ns_per_jump": "ns",
    "embedding.sample_multicolor_counts_s": "s",
    "embedding.compare_laws_s": "s",
    "embedding.law_categories": "count",
    "embedding.advance_to_next_jump_us": "us",
    "ensembles.run_ensemble_self_s": "s",
    "ensembles.scan_p_self_s": "s",
    "cli.main_self_s": "s",
}


class Tracer:
    """Installs span wrappers at every boundary and keeps the spans."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, round, counts]
        self.round = 0
        self._open: list[int] = []
        self._installed: list[tuple] = []

    def install(self) -> None:
        for module, attr, name, counts in BOUNDARIES:
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name, counts))
            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name, counts):
        signature = inspect.signature(fn)
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, self.round, None]
            open_.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                open_.pop()
            if counts is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[5] = counts(bound.arguments, result)
            return result

        return wrapper

    def layer_metrics(self, rounds) -> dict[str, float]:
        """Each per-layer metric as the median over ``rounds`` of its value
        in one round."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        per_round = {r: defaultdict(float) for r in rounds}
        for index, (name, start, end, _, rnd, counts) in enumerate(self.spans):
            if rnd not in per_round:
                continue
            acc = per_round[rnd]
            acc[name + ":s"] += end - start
            acc[name + ":self"] += end - start - child_time[index]
            acc[name + ":calls"] += 1
            for key, value in (counts or {}).items():
                acc[f"{name}:{key}"] += value
        values = [_derive(acc) for acc in per_round.values()]
        return {key: statistics.median(v[key] for v in values) for key in LAYER_METRICS}

    def write(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for name, start, end, parent, rnd, counts in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "round": rnd, "counts": counts}) + "\n")


def _ratio(num: float, den: float, scale: float) -> float:
    return scale * num / den if den else 0.0


def _derive(acc) -> dict[str, float]:
    ium_s, mc_s = acc["urns.run_ium_ensemble:s"], acc["urns.run_multicolor_ensemble:s"]
    ium_steps = acc["urns.run_ium_ensemble:run_steps"]
    mc_steps = acc["urns.run_multicolor_ensemble:run_steps"]
    return {
        "reinforcement.check_s": sum(acc[f"reinforcement.{c}:s"] for c in _CHECKS),
        "reinforcement.log_weight_table_s": acc["reinforcement.log_weight_table:s"],
        "meanfield.find_equilibria_s": acc["meanfield.find_equilibria:s"],
        "urns.ium_ensemble_s": ium_s,
        "urns.ium_ensemble_ns_per_run_step": _ratio(ium_s, ium_steps, 1e9),
        "urns.ium_ensemble_run_steps": ium_steps,
        "urns.multicolor_ensemble_s": mc_s,
        "urns.multicolor_ensemble_ns_per_run_step": _ratio(mc_s, mc_steps, 1e9),
        "urns.multicolor_ensemble_run_steps": mc_steps,
        "urns.run_us_per_step": _ratio(acc["urns.run:s"], acc["urns.run:steps"], 1e6),
        "urns.run_coupled_us_per_step": _ratio(acc["urns.run_coupled:s"], acc["urns.run_coupled:steps"], 1e6),
        "urns.uniforms_drawn": sum(acc[f"urns.{n}:uniforms"] for n in
                                   ("run_ium_ensemble", "run_multicolor_ensemble", "run", "run_coupled")),
        "embedding.sample_embedding_counts_s": acc["embedding.sample_embedding_counts:s"],
        "embedding.sample_ns_per_jump": _ratio(acc["embedding.sample_embedding_counts:s"],
                                               acc["embedding.sample_embedding_counts:jumps"], 1e9),
        "embedding.sample_multicolor_counts_s": acc["embedding.sample_multicolor_counts:s"],
        "embedding.compare_laws_s": acc["embedding.compare_laws:s"],
        "embedding.law_categories": acc["embedding.compare_laws:categories"],
        "embedding.advance_to_next_jump_us": _ratio(acc["embedding.advance_to_next_jump:s"],
                                                    acc["embedding.advance_to_next_jump:calls"], 1e6),
        "ensembles.run_ensemble_self_s": acc["ensembles.run_ensemble:self"],
        "ensembles.scan_p_self_s": acc["ensembles.scan_p:self"],
        "cli.main_self_s": acc["cli.main:self"],
    }
