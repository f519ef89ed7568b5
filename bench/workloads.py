"""The benchmark's four workloads.

Each workload builds its inputs from the benchmark seed, runs one round of
timed operations through urnfield's public functions, and checks the round's
outputs against the exact laws of ``oracle`` (computed without urnfield), a
closed form, or a property the method must have.  Checks run outside the
timed operations, on the first round; every later round must reproduce the
first bit for bit.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import special, stats

from urnfield import cli, embedding, ensembles, reinforcement, urns
from urnfield.seeds import derive_seed

import oracle
from clock import Clock

# Acceptance level of every goodness-of-fit and binomial check on correct
# outputs.  A run makes up to ten such tests and accepting the benchmark takes
# about a hundred runs: at 1e-3 a correct program would fail some run in about
# two evaluations of five, at 1e-6 in about one of two thousand.  The negative
# control, the one planted fault, gets p = 0 from both of its tests.
ALPHA = 1e-6
# Rejection level the negative control must reach.
REJECT = 1e-3


def seed_for(seed: int, tag: str) -> int:
    """A 63-bit seed for one input of a workload, fixed by the benchmark seed."""
    digest = hashlib.sha256(f"{seed}/{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def example_i():
    """The paper's example I: W(2k) = k^4, W(2k+1) = k^4 - k^3 + 1."""
    return reinforcement.make_table([], reinforcement.TailRule((
        reinforcement.PolyBranch((0, 0, 0, 0, 1)),
        reinforcement.PolyBranch((1, 0, 0, -1, 1)),
    )))


def n_power(m: int):
    return reinforcement.make_polynomial([0] * m + [1])


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        elif isinstance(part, bytes):
            h.update(part)
        else:
            h.update(json.dumps(part, sort_keys=True, default=float).encode())
    return h.hexdigest()


@dataclass
class Checks:
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def fit(self, label: str, samples, law: dict) -> None:
        p_value, bins = oracle.goodness_of_fit(samples, law)
        self.notes.append(f"{label}: oracle GOF p={p_value:.3g} over {bins} bins")
        self.expect(p_value > ALPHA, f"{label}: exact-law GOF p={p_value:.3g} <= {ALPHA}")


# ---------------------------------------------------------------------------
# phase-scan


class PhaseScan:
    """scan_p for W = n^2 and n^3 from the mixed-limit regime to domination."""

    name = "phase-scan"
    GRID = (0.2, 0.35, 0.6, 0.75)
    N_STEPS, N_RUNS, RECORD_EVERY = 3000, 200, 50

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.per_point = {
            m: ensembles.EnsembleConfig(
                model="ium", seq=n_power(m), p=0.0, d=2, black0=(1, 1), red0=(1, 1),
                n_steps=self.N_STEPS, n_runs=self.N_RUNS, seed=seed_for(seed, f"scan-m{m}"),
                record_every=self.RECORD_EVERY,
            )
            for m in (2, 3)
        }
        self.steps = len(self.per_point) * len(self.GRID) * self.N_STEPS * self.N_RUNS
        self._reports: list = []
        self._clock: Clock | None = None
        original = ensembles.run_ensemble

        # one operation is one scan-point ensemble: time each as scan_p makes it
        @functools.wraps(original)
        def timed_point(config, *args, **kwargs):
            report = self._clock.op(original, config, *args, **kwargs)
            self._reports.append(report)
            return report

        ensembles.run_ensemble = timed_point

    def run_round(self, clock: Clock):
        self._clock, self._reports = clock, []
        curves = {m: ensembles.scan_p(m, self.GRID, cfg, 0.95) for m, cfg in self.per_point.items()}
        reports = dict(zip([(m, p) for m in self.per_point for p in self.GRID], self._reports))
        fingerprint = _digest([c.to_json() for c in curves.values()],
                              [(r.to_json(), r.run_rows) for r in reports.values()])
        return (curves, reports), fingerprint

    def check(self, outputs) -> Checks:
        curves, reports = outputs
        ck = Checks()
        # exact law of the lockstep ium engine at a small horizon
        for m, p, k in ((2, 0.2, 6), (3, 0.6, 5)):
            raw = urns.run_ium_ensemble(n_power(m), p, 2, (1, 1), (1, 1), k, 10_000,
                                        seed_for(self.seed, f"oracle-m{m}"))
            law = oracle.ium_law(oracle.WEIGHTS[f"n^{m}"], p, (1, 1), (1, 1), k)
            ck.fit(f"run_ium_ensemble m={m} p={p} k={k}", raw.final_counts[:, :2], law)

        for (m, p), report in reports.items():
            def cells_at(point, tol=1e-6):
                return [c for c in report.cells if math.dist(c.location, point) < tol]

            if m == 2 and p < 0.25:
                u = (1.0 - math.sqrt(1.0 - 2.0 * p)) / 2.0
                mixed = cells_at((u, 1.0 - u))
                ck.expect(len(mixed) == 1, f"m=2 p={p}: no cell at the closed form u={u:.12g}")
                ck.expect(bool(mixed) and mixed[0].count > 0, f"m=2 p={p}: mixed cell got no runs")
                if mixed:
                    ck.notes.append(f"m=2 p={p}: mixed cell ({u:.6f}, {1 - u:.6f}) got {mixed[0].count} runs")
            if m == 3 and p >= 0.5:
                ck.expect(report.domination_frequency >= 0.95,
                          f"m=3 p={p}: domination {report.domination_frequency} < 0.95")
            low, high = (sum(c.count for c in cells_at(corner)) for corner in ((0.0, 0.0), (1.0, 1.0)))
            p_fair = stats.binomtest(low, low + high, 0.5).pvalue if low + high else 1.0
            ck.expect(p_fair > ALPHA, f"m={m} p={p}: corners {low}/{high} not fair (p={p_fair:.3g})")
            ck.notes.append(f"m={m} p={p}: domination {report.domination_frequency}, "
                            f"corners {low}/{high}, unresolved {report.unresolved}")
        for m, curve in curves.items():
            ck.expect(curve.frequencies == [reports[(m, p)].domination_frequency for p in self.GRID],
                      f"m={m}: curve disagrees with its scan-point reports")

        # run 0 of a scan point is the standalone run at its derived seed
        for m, cfg in self.per_point.items():
            index = len(self.GRID) - 1
            p = self.GRID[index]
            run_seed = derive_seed(derive_seed(cfg.seed, index), 0)
            state = urns.init_ium(2, (1, 1), (1, 1), p, cfg.seq, run_seed)
            final = urns.run(state, cfg.n_steps, cfg.record_every).proportions[-1]
            row = reports[(m, p)].run_rows[0]
            ck.expect(row[1] == run_seed and list(row[3:]) == final.tolist(),
                      f"m={m} p={p}: run 0 {row} differs from the standalone run {final.tolist()}")
        return ck


# ---------------------------------------------------------------------------
# monopoly-p1


class MonopolyP1:
    """check-w at 10^6 plus multicolor ensembles (nc = 2, 3; d = 2) at p = 1."""

    name = "monopoly-p1"
    N_STEPS, N_RUNS, RECORD_EVERY, HORIZON = 1500, 150, 100, 1_000_000
    STRONG = ("(n+1)^3", "example-I", "exp1.5")

    def __init__(self, seed: int, workdir: Path):
        self.seqs = {
            "(n+1)^3": reinforcement.make_polynomial([1, 3, 3, 1]),
            "example-I": example_i(),
            "exp1.5": reinforcement.make_exponential(1.5),
            "n": reinforcement.make_polynomial([0, 1]),
        }
        self.configs = {
            (name, nc): ensembles.EnsembleConfig(
                model="multicolor", seq=seq, nc=nc, a=(1,) * nc, d=2, n_steps=self.N_STEPS,
                n_runs=self.N_RUNS, seed=seed_for(seed, f"{name}-nc{nc}"), record_every=self.RECORD_EVERY,
            )
            for name, seq in self.seqs.items()
            for nc in (2, 3)
        }
        self.seed = seed
        self.steps = len(self.configs) * self.N_STEPS * self.N_RUNS

    def _check_w(self, seq):
        verdicts = [reinforcement.check_strong(seq, self.HORIZON),
                    reinforcement.check_variation_bound(seq, self.HORIZON),
                    reinforcement.check_remainder_bound(seq, self.HORIZON)]
        try:
            verdicts.extend(reinforcement.check_mdrem_conditions(seq, horizon=self.HORIZON))
        except reinforcement.ConditionViolation as exc:
            # the documented answer for a divergent reciprocal sum
            verdicts.append(f"ConditionViolation: {exc}")
        return verdicts

    def _verdict(self, name):
        verdicts = self._check_w(self.seqs[name])
        reports = {nc: ensembles.run_ensemble(self.configs[(name, nc)]) for nc in (2, 3)}
        return verdicts, reports

    def run_round(self, clock: Clock):
        out = {name: clock.op(self._verdict, name) for name in self.seqs}
        fingerprint = _digest({name: ([v if isinstance(v, str) else v.to_json() for v in verdicts],
                                      {nc: (r.to_json(), r.run_rows) for nc, r in reports.items()})
                               for name, (verdicts, reports) in out.items()})
        return out, fingerprint

    def check(self, outputs) -> Checks:
        ck = Checks()
        closed = {"(n+1)^3": float(special.zeta(3.0)) - 1.0, "exp1.5": 1.0 / (1.5 - 1.0)}
        for name, (verdicts, reports) in outputs.items():
            strong = verdicts[0]
            if name in self.STRONG:
                ck.expect(strong.verdict == "holds", f"{name}: check_strong says {strong.verdict}")
                if name in closed:
                    rel = abs(strong.estimate - closed[name]) / closed[name]
                    ck.expect(rel <= 1e-9, f"{name}: sum 1/W = {strong.estimate!r}, closed form "
                                           f"{closed[name]!r} (relative error {rel:.3g})")
                ck.expect(all(not isinstance(v, str) for v in verdicts),
                          f"{name}: remainder conditions raised: {verdicts[-1]}")
            else:
                ck.expect(strong.verdict == "fails", f"{name}: check_strong says {strong.verdict}")
                ck.expect(isinstance(verdicts[-1], str),
                          f"{name}: remainder conditions computed for a divergent tail")
            ck.notes.append(f"{name}: check-w " + ", ".join(
                v if isinstance(v, str) else f"{v.condition}={v.verdict}" for v in verdicts))
            for nc, report in reports.items():
                freq = report.monopoly_frequency
                if name in self.STRONG:
                    ck.expect(freq >= 0.95, f"{name} nc={nc}: monopoly frequency {freq} < 0.95")
                else:
                    ck.expect(freq <= 0.05, f"{name} nc={nc}: monopoly frequency {freq} > 0.05")
                ck.notes.append(f"{name} nc={nc}: monopoly {freq}, "
                                f"non-leading draws {self._minority_share(report):.4%}")

        # exact law of the lockstep multicolor engine at a small horizon
        for name, nc, k in (("example-I", 3, 4), ("exp1.5", 2, 6)):
            a = (1,) * nc
            raw = urns.run_multicolor_ensemble(self.seqs[name], nc, a, 2, k, 10_000,
                                               seed_for(self.seed, f"oracle-{name}"))
            law = oracle.multicolor_law(oracle.WEIGHTS[name], a, 2, k)
            ck.fit(f"run_multicolor_ensemble {name} nc={nc} k={k}", raw.final_counts, law)
        return ck

    def _minority_share(self, report) -> float:
        """Share of all draws that went to a color other than the run's final
        leader, from the final proportions of every run."""
        cfg = report.config
        total = sum(cfg.a) + cfg.d * cfg.n_steps
        added = 0
        for row in report.run_rows:
            counts = [round(x * total) for x in row[3:]]
            added += sum(counts) - max(counts) - (sum(cfg.a) - cfg.a[counts.index(max(counts))])
        return added / (len(report.run_rows) * cfg.d * cfg.n_steps)


# ---------------------------------------------------------------------------
# embed-law


class EmbedLaw:
    """The embed-test path: embedding sampler against the discrete urn,
    k = 1, 2, 3, plus the per-jump-refresh negative control."""

    name = "embed-law"
    SAMPLES, NC, A, D = 100_000, 2, (1, 1), 2
    PAIRS = ((1, "n^2", False), (2, "n^2", False), (3, "n^2", False), (3, "exp4", True))

    def __init__(self, seed: int, workdir: Path):
        self.seqs = {"n^2": n_power(2), "exp4": reinforcement.make_exponential(4.0)}
        self.seeds = [(seed_for(seed, f"embed-{i}"), seed_for(seed, f"urn-{i}")) for i in range(len(self.PAIRS))]
        jumps = sum(k * self.D * self.SAMPLES for k, _, _ in self.PAIRS)
        urn_steps = sum(k * self.SAMPLES for k, _, _ in self.PAIRS)
        self.steps = jumps + urn_steps

    def _law_test(self, k, seq, broken, seeds):
        za = embedding.sample_embedding_counts(seq, self.NC, self.A, self.D, k, self.SAMPLES,
                                               seeds[0], refresh_every_jump=broken)
        zb = embedding.sample_multicolor_counts(seq, self.NC, self.A, self.D, k, self.SAMPLES, seeds[1])
        return za, zb, embedding.compare_laws(za, zb)

    def run_round(self, clock: Clock):
        out = [clock.op(self._law_test, k, self.seqs[w], broken, seeds)
               for (k, w, broken), seeds in zip(self.PAIRS, self.seeds)]
        fingerprint = _digest(*[part for za, zb, rep in out for part in (za, zb, rep.to_json())])
        return out, fingerprint

    def check(self, outputs) -> Checks:
        ck = Checks()
        for (k, w, broken), (za, zb, rep) in zip(self.PAIRS, outputs):
            label = f"{w} k={k}" + (" per-jump refresh" if broken else "")
            law = oracle.multicolor_law(oracle.WEIGHTS[w], self.A, self.D, k)
            p_embed, _ = oracle.goodness_of_fit(za, law)
            ck.fit(f"{label}: sample_multicolor_counts", zb, law)
            ck.notes.append(f"{label}: embedding oracle GOF p={p_embed:.3g}, compare_laws p={rep.p_value:.3g}")
            if broken:
                ck.expect(rep.p_value < REJECT, f"{label}: compare_laws p={rep.p_value:.3g} did not reject")
                ck.expect(p_embed < REJECT, f"{label}: oracle GOF p={p_embed:.3g} did not reject")
            else:
                ck.expect(p_embed > ALPHA, f"{label}: embedding exact-law GOF p={p_embed:.3g} <= {ALPHA}")
                ck.expect(rep.p_value > ALPHA, f"{label}: compare_laws rejected a correct pair "
                                               f"(p={rep.p_value:.3g})")
            if rep.method == "chi_square" and ("pooled",) not in rep.categories and len(rep.categories) > 1:
                table = np.array([rep.counts_a, rep.counts_b], dtype=float)
                want = float(stats.chi2_contingency(table, correction=False)[0])
                ck.expect(abs(rep.statistic - want) <= 1e-9 * max(1.0, abs(want)),
                          f"{label}: compare_laws statistic {rep.statistic!r} != chi2_contingency {want!r}")
        return ck


# ---------------------------------------------------------------------------
# trajectories


class Trajectories:
    """One-run paths: CLI simulate, run_coupled over many seeds, and the
    per-run scalar ensembles (sequential and embedding models)."""

    name = "trajectories"
    SIM_STEPS, RECORD_EVERY = 20_000, 100
    COUPLED = ((0.2, 0), (0.8, 1), (0.2, 2), (0.8, 3))  # (p, seed index)
    COUPLED_STEPS = 5_000
    SEQ_RUNS, SEQ_STEPS = 10, 2_000
    EMB_RUNS, EMB_STEPS = 10, 250

    def __init__(self, seed: int, workdir: Path):
        self.n2 = n_power(2)
        self.masters = {tag: seed_for(seed, tag) for tag in ("ium", "multicolor", "sequential")}
        common = ["--steps", str(self.SIM_STEPS), "--record-every", str(self.RECORD_EVERY)]
        sims = {
            "ium": ["--model", "ium", "--m", "3", "--p", "0.2", "--d", "2"],
            "multicolor": ["--model", "multicolor", "--m", "3", "--nc", "3", "--a", "1,1,1", "--d", "2"],
            "sequential": ["--model", "sequential", "--m", "2"],
        }
        self.argv = {
            model: ["simulate", *args, *common,
                    "--seed", str(derive_seed(self.masters[model], 0)),
                    "--out", str(workdir / f"{model}.csv")]
            for model, args in sims.items()
        }
        self.coupled_seeds = [(p, seed_for(seed, f"coupled-{i}")) for p, i in self.COUPLED]
        self.ensembles = {
            "sequential": ensembles.EnsembleConfig(
                model="sequential", seq=self.n2, n_steps=self.SEQ_STEPS, n_runs=self.SEQ_RUNS,
                seed=seed_for(seed, "seq-ensemble"), record_every=self.RECORD_EVERY),
            "embedding": ensembles.EnsembleConfig(
                model="embedding", seq=self.n2, nc=2, a=(1, 1), d=2, n_steps=self.EMB_STEPS,
                n_runs=self.EMB_RUNS, seed=seed_for(seed, "emb-ensemble"), record_every=10),
        }
        self.steps = (len(sims) * self.SIM_STEPS + len(self.COUPLED) * self.COUPLED_STEPS
                      + self.SEQ_RUNS * self.SEQ_STEPS + self.EMB_RUNS * self.EMB_STEPS * 2)

    def run_round(self, clock: Clock):
        codes = {model: clock.op(cli.main, argv) for model, argv in self.argv.items()}
        coupled = [clock.op(urns.run_coupled, (1, 1), (1, 1), p, self.n2, s, self.COUPLED_STEPS,
                            self.RECORD_EVERY) for p, s in self.coupled_seeds]
        reports = {name: clock.op(ensembles.run_ensemble, cfg) for name, cfg in self.ensembles.items()}
        files = {model: Path(argv[-1]).read_bytes() for model, argv in self.argv.items()}
        fingerprint = _digest(codes, *files.values(),
                              *[part for ti, ts, v in coupled for part in (ti.proportions, ts.proportions, v)],
                              [(r.to_json(), r.run_rows) for r in reports.values()])
        return (codes, coupled, reports), fingerprint

    def check(self, outputs) -> Checks:
        codes, coupled, reports = outputs
        ck = Checks()
        for model, argv in self.argv.items():
            ck.expect(codes[model] == 0, f"simulate {model}: exit code {codes[model]}")
            out = Path(argv[-1])
            manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
            for entry in manifest["outputs"]:
                actual = hashlib.sha256(Path(entry["path"]).read_bytes()).hexdigest()
                ck.expect(actual == entry["sha256"], f"simulate {model}: manifest digest of {entry['path']} "
                                                     f"is {entry['sha256']}, file digest {actual}")
        rows = {model: self._csv(Path(argv[-1])) for model, argv in self.argv.items()}

        # scalar CLI runs equal run 0 of the lockstep ensemble at the same master seed
        ium = urns.run_ium_ensemble(n_power(3), 0.2, 2, (1, 1), (1, 1), self.SIM_STEPS, 1,
                                    self.masters["ium"], 0, self.RECORD_EVERY)
        mc = urns.run_multicolor_ensemble(n_power(3), 3, (1, 1, 1), 2, self.SIM_STEPS, 1,
                                          self.masters["multicolor"], 0, self.RECORD_EVERY)
        for model, raw in (("ium", ium), ("multicolor", mc)):
            ck.expect(rows[model] == [[int(s), *p] for s, p in zip(raw.steps.tolist(), raw.proportions[0].tolist())],
                      f"simulate {model}: trajectory differs from the ensemble run at the same seed")
        ck.expect(abs(sum(rows["multicolor"][-1][1:]) - 1.0) <= 1e-12,
                  f"simulate multicolor: final proportions sum to {sum(rows['multicolor'][-1][1:])!r}")
        seq_state = urns.init_sequential((1, 1), (1, 1), n_power(2), derive_seed(self.masters["sequential"], 0))
        seq_final = urns.run(seq_state, self.SIM_STEPS, self.RECORD_EVERY).proportions[-1].tolist()
        ck.expect(rows["sequential"][-1][1:] == seq_final, "simulate sequential: CLI differs from urns.run")

        # the coupling: zero violations, and its ium side is the plain ium run
        for (p, seed), (ti, ts, violations) in zip(self.coupled_seeds, coupled):
            ck.expect(violations == 0, f"run_coupled p={p} seed={seed}: {violations} violations")
            alone = urns.run(urns.init_ium(2, (1, 1), (1, 1), p, self.n2, seed), self.COUPLED_STEPS,
                             self.RECORD_EVERY)
            ck.expect(np.array_equal(alone.proportions, ti.proportions),
                      f"run_coupled p={p} seed={seed}: ium side differs from the standalone run")

        # scalar-loop ensembles: run i is the standalone run at its derived seed
        cfg, report = self.ensembles["sequential"], reports["sequential"]
        for i in (0, cfg.n_runs - 1):
            state = urns.init_sequential(cfg.black0, cfg.red0, cfg.seq, derive_seed(cfg.seed, i))
            final = urns.run(state, cfg.n_steps, cfg.record_every).proportions[-1].tolist()
            ck.expect(list(report.run_rows[i][3:]) == final, f"sequential ensemble run {i} differs")
        cfg, report = self.ensembles["embedding"], reports["embedding"]
        for i in (0, cfg.n_runs - 1):
            state = embedding.init_embedding(cfg.nc, cfg.a, cfg.d, cfg.seq, derive_seed(cfg.seed, i))
            for _ in range(cfg.n_steps * cfg.d):
                embedding.advance_to_next_jump(state)
            final = (state.z / state.z.sum()).tolist()
            ck.expect(list(report.run_rows[i][3:]) == final, f"embedding ensemble run {i} differs")
        worst = max(abs(sum(row[3:]) - 1.0) for row in report.run_rows)
        ck.expect(worst <= 1e-12, f"embedding ensemble: final proportions off 1 by {worst:.3g}")
        return ck

    @staticmethod
    def _csv(path: Path) -> list[list]:
        with open(path, newline="") as fh:
            body = list(csv.reader(fh))[1:]
        return [[int(r[0]), *(float(v) for v in r[1:])] for r in body]


WORKLOADS = {w.name: w for w in (PhaseScan, MonopolyP1, EmbedLaw, Trajectories)}
