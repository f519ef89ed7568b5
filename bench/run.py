"""urnfield benchmark: time to a verdict on four workloads.

Run one workload (the last line of stdout is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``)::

    python3 bench/run.py --workload phase-scan --seed 1 --seconds 16 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics from spans recorded at urnfield's layer boundaries.  Run
every workload, untraced and traced, each in its own process::

    python3 bench/run.py --workload all --seed 1 --seconds 16

The program is imported from ``src/`` of the checkout this file sits in;
nothing is installed and nothing outside the checkout is read or written.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import traceback
from pathlib import Path
from time import perf_counter

from clock import Clock, probe, scale

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / "results"
WORKLOAD_NAMES = ("phase-scan", "monopoly-p1", "embed-law", "trajectories")
SETUP_SAMPLES = 3  # set-ups per run: this process plus two set-up-only children
MIN_ROUNDS = 3  # at least, per untraced run

# Load is this one process; BLAS pools are capped at the cores it may use.
# Set before numpy is first imported.
_CORES = str(len(os.sched_getaffinity(0)))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = _CORES


def set_up(workload: str, seed: int, workdir: Path):
    """Import urnfield from this checkout and build the workload's inputs;
    returns the workload and the set-up time scaled to reference speed."""
    before = probe()
    t0 = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import urnfield

    where = Path(urnfield.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise ImportError(f"urnfield was imported from {where}, not from {ROOT / 'src'}")
    import workloads

    instance = workloads.WORKLOADS[workload](seed, workdir)
    elapsed = perf_counter() - t0
    return instance, scale(elapsed, before, probe())


def _child_setup_seconds(args) -> float:
    out = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    return float(out.strip().splitlines()[-1])


class Rounds:
    """Whole rounds of a workload's operations.  The first round's outputs
    are checked; every later round must reproduce them bit for bit."""

    def __init__(self, workload):
        self.workload = workload
        self.clocks: list[Clock] = []  # untraced rounds
        self.traced_clocks: list[Clock] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: list[str] = []
        self._fingerprint = None

    def op_medians(self) -> list[float]:
        """Each operation's median scaled time over the untraced rounds."""
        return [statistics.median(times) for times in zip(*(c.scaled for c in self.clocks))]

    def run(self, seconds: float, min_rounds: int, tracer=None) -> None:
        """Run rounds for ``seconds``; with a tracer, every second round is
        traced, so traced and untraced rounds see the same conditions."""
        t0 = perf_counter()
        n = 0
        while perf_counter() - t0 < seconds or n < min_rounds:
            traced = tracer is not None and n % 2 == 1
            n += 1
            clock = Clock()
            if traced:
                tracer.round += 1
                tracer.install()
            try:
                outputs, fingerprint = self.workload.run_round(clock)
            except Exception:
                traceback.print_exc()
                outputs = None
            finally:
                if traced:
                    tracer.uninstall()
            self.attempted += len(clock.raw)
            self.failed += clock.failed
            if threading.active_count() != 1:
                self.problems.append(f"round {n} left {threading.active_count() - 1} threads running")
            if outputs is None:
                continue
            (self.traced_clocks if traced else self.clocks).append(clock)
            if self._fingerprint is None:
                self._fingerprint = fingerprint
                checks = self.workload.check(outputs)  # untimed
                self.problems += checks.problems
                self.notes += checks.notes
            elif fingerprint != self._fingerprint:
                self.problems.append(f"round {n} output differs from round 1")


def _median_round(clocks) -> float:
    return statistics.median(sum(c.scaled) for c in clocks)


def run_workload(args) -> int:
    RESULTS.mkdir(exist_ok=True)
    workdir = RESULTS / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        try:
            workload, setup_s = set_up(args.workload, args.seed, workdir)
        except ImportError as exc:
            print(f"error: cannot import urnfield from this checkout: {exc}", file=sys.stderr)
            return 2
        import oracle

        setups = [setup_s]
        if not args.trace:
            setups += [_child_setup_seconds(args) for _ in range(SETUP_SAMPLES - 1)]
        rounds = Rounds(workload)
        rounds.problems += oracle.self_test()
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            rounds.run(args.seconds, 4, tracer)  # at least two traced and two untraced
        else:
            rounds.run(args.seconds, MIN_ROUNDS)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not rounds.clocks or (args.trace and not rounds.traced_clocks):
        print(f"error: no round of {args.workload} completed", file=sys.stderr)
        return 1

    if args.trace:
        trace_wall = _median_round(rounds.traced_clocks)
        metrics = {name: (value, tracing.LAYER_METRICS[name])
                   for name, value in tracer.layer_metrics(range(1, tracer.round + 1)).items()}
        metrics["trace.wall_s"] = (trace_wall, "s")
        metrics["trace.overhead_s"] = (trace_wall - _median_round(rounds.clocks), "s")
        metrics["bench.probe_ms"] = (1e3 * statistics.median(
            p for c in rounds.traced_clocks for p in c.probes), "ms")
        tracer.write(RESULTS / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        # Time to every verdict is the sum of each operation's median time
        # over the rounds, at reference speed (see clock.py): steadier than
        # the median round under noise that comes and goes within a round.
        op_medians = rounds.op_medians()
        wall = sum(op_medians)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (wall, "s"),
            "op_p50_s": (statistics.median(op_medians), "s"),
            "steps_per_s": (workload.steps / wall, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    for note in rounds.notes:
        print(f"  {note}")
    for problem in rounds.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"{args.workload}: {len(rounds.clocks)} untraced and {len(rounds.traced_clocks)} traced rounds, "
          f"{rounds.attempted} operations ({rounds.failed} failed), op_p50_s over "
          f"{len(rounds.clocks[0].raw)} operations, {workload.steps} steps per round, "
          f"set-up samples {[round(s, 4) for s in setups]}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:16.6f} {unit}")
    result = {
        "correct": not rounds.problems,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({**result, "setups": setups, "notes": rounds.notes, "problems": rounds.problems,
                   "rounds": [{"traced": traced, "raw": c.raw, "scaled": c.scaled, "probes": c.probes}
                              for traced, clocks in ((False, rounds.clocks), (True, rounds.traced_clocks))
                              for c in clocks]}, fh, indent=1)
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a process of its own."""
    ok = True
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            ok = ok and result is not None and result["correct"] and not result["failed"]
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=16.0, help="measured time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        print(set_up(args.workload, args.seed, RESULTS)[1])  # writes nothing
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
