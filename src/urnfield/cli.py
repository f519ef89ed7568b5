"""Command-line surface.

Subcommands: field, equilibria, um, sm, simulate, mc, scan, check-w,
embed-test.  Every command that writes data files also writes a manifest
(``<out>.manifest.json``) carrying the full argument echo, the seed, the
tool version and a sha256 digest of each output, so a run can be repeated
bit for bit.  Data files are deterministic given identical arguments and
seed; manifests differ only in their timestamp, which is not part of any
digest.

Exit codes: 0 success, 2 argument or config parse error, 3 condition
violation, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import hashlib
import json
import os
import sys

from . import __version__, embedding, ensembles, meanfield, reinforcement, urns
from .errors import ConditionViolation
from .formats import csv_bytes, json_bytes, read_fields
from .reinforcement import (
    DEFAULT_HORIZON,
    ReinforcementSeq,
    make_polynomial,
)


def _emit(args, payloads: dict[str, bytes], echo: dict) -> int:
    """Write output files plus a manifest, or print to stdout when no --out
    was given.  ``payloads`` maps file paths ('' = primary) to bytes."""
    out = getattr(args, "out", None)
    if out is None:
        primary = payloads[""]
        sys.stdout.write(primary.decode())
        return 0
    written = []
    for suffix, blob in payloads.items():
        path = out if suffix == "" else _derived_path(out, suffix)
        with open(path, "wb") as fh:
            fh.write(blob)
        written.append({"path": str(path), "sha256": hashlib.sha256(blob).hexdigest()})
    manifest = {
        "command": args.command,
        "arguments": echo,
        "seed": echo.get("seed"),
        "version": __version__,
        "outputs": written,
        "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    with open(str(out) + ".manifest.json", "wb") as fh:
        fh.write(json_bytes(manifest))
    return 0


def _derived_path(out: str, suffix: str) -> str:
    root, ext = os.path.splitext(str(out))
    return f"{root}.{suffix}"


def _echo(args, skip=("func", "command")) -> dict:
    return {k: v for k, v in vars(args).items() if k not in skip and v is not None}


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _load_seq(args) -> ReinforcementSeq:
    if getattr(args, "seq", None):
        return ReinforcementSeq.from_json(_load_json(args.seq))
    if getattr(args, "m", None):
        return make_polynomial([0.0] * args.m + [1.0])
    raise ValueError("provide --seq FILE or --m DEGREE")


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def _unit_interval(text: str) -> float:
    v = float(text)
    if not 0.0 <= v <= 1.0:
        raise argparse.ArgumentTypeError(f"{v} outside [0, 1]")
    return v


def _degree(text: str) -> int:
    v = int(text)
    if v < 2:
        raise argparse.ArgumentTypeError("degree must be >= 2")
    return v


# ---------------------------------------------------------------------------
# commands


def cmd_field(args) -> int:
    params = meanfield.ModelParams(args.m, args.p)
    rows = meanfield.sample_field(params, args.resolution)
    if args.format == "json":
        blob = json_bytes(
            {"m": args.m, "p": args.p, "rows": [list(map(float, r)) for r in rows]}
        )
    else:
        blob = csv_bytes(["x", "y", "F1", "F2"], [tuple(map(float, r)) for r in rows])
    return _emit(args, {"": blob}, _echo(args))


def cmd_equilibria(args) -> int:
    params = meanfield.ModelParams(args.m, args.p)
    eqs = meanfield.find_equilibria(params, args.grid, args.tol)
    if args.format == "json":
        blob = json_bytes({"m": args.m, "p": args.p, "equilibria": [e.to_json() for e in eqs]})
    else:
        blob = csv_bytes(
            ["x", "y", "lambda_minus", "lambda_plus", "class"],
            [(e.x, e.y, e.lambda_minus, e.lambda_plus, e.stability) for e in eqs],
        )
    return _emit(args, {"": blob}, _echo(args))


def cmd_um(args) -> int:
    params = meanfield.ModelParams(args.m, args.p)
    u = meanfield.solve_um(params)
    margin = meanfield.um_stability_margin(params)
    blob = json_bytes(
        {
            "m": args.m,
            "p": args.p,
            "u": u,
            "point": [u, 1.0 - u],
            "stability_margin": margin,
            "strictly_stable": margin < 0.0,
        }
    )
    return _emit(args, {"": blob}, _echo(args))


def cmd_sm(args) -> int:
    params = meanfield.ModelParams(args.m, args.p)
    eq = meanfield.solve_sm(params, args.delta)
    blob = json_bytes({"m": args.m, "p": args.p, "delta": args.delta, **eq.to_json()})
    return _emit(args, {"": blob}, _echo(args))


def cmd_simulate(args) -> int:
    if args.model in ("coupled", "sequential") and args.d != 2:
        raise ValueError(f"--d must be 2 with --model {args.model}, which runs two urns; got {args.d}")
    if args.model in ("multicolor", "sequential") and args.p != 0.0:
        raise ValueError(f"--p applies to --model ium and coupled only; got {args.p} with --model {args.model}")
    seq = _load_seq(args)
    if args.model == "coupled":
        if args.counts:
            raise ValueError("--counts is not supported with --model coupled, which writes proportions")
        ti, ts, violations = urns.run_coupled(
            args.black0, args.red0, args.p, seq, args.seed, args.steps, args.record_every
        )
        rows = [
            (
                int(ti.steps[k]),
                *(float(v) for v in ti.proportions[k]),
                *(float(v) for v in ts.proportions[k]),
                violations if k == len(ti.steps) - 1 else 0,
            )
            for k in range(len(ti.steps))
        ]
        blob = csv_bytes(
            ["step", "x_1", "x_2", "seq_x_1", "seq_x_2", "violations"], rows
        )
        return _emit(args, {"": blob}, {**_echo(args), "violations": violations, **_counters(ti)})

    if args.model == "ium":
        state = urns.init_ium(args.d, args.black0, args.red0, args.p, seq, args.seed)
    elif args.model == "multicolor":
        state = urns.init_multicolor(args.nc, args.a, args.d, seq, args.seed)
    elif args.model == "sequential":
        state = urns.init_sequential(args.black0, args.red0, seq, args.seed)
    else:
        raise ValueError(f"unknown model {args.model}")
    traj = urns.run(state, args.steps, args.record_every, record_counts=args.counts)
    _, names, label = urns.monopoly_labels(traj.last_change[None], args.steps)
    events = {"monopoly": names[label[0]]} if args.steps > 0 else {}
    blob = traj.csv_bytes("counts" if args.counts else "proportions")
    return _emit(args, {"": blob}, {**_echo(args), "events": events, **_counters(traj)})


def _counters(traj) -> dict:
    """A trajectory's run-step counters, for the manifest."""
    return {"run_steps_screened": traj.run_steps_screened, "run_steps_exact": traj.run_steps_exact}


def cmd_mc(args) -> int:
    config = ensembles.EnsembleConfig.from_json(_load_json(args.config))
    report = ensembles.run_ensemble(config)
    payloads = {"": json_bytes(report.to_json())}
    if args.runs_csv:
        d = len(report.run_rows[0]) - 3 if report.run_rows else 0
        header = ["run_index", "seed", "label"] + [f"x_{i + 1}_final" for i in range(d)]
        payloads["runs.csv"] = csv_bytes(header, report.run_rows)
    echo = _echo(args)
    echo["seed"] = config.seed
    echo["runtime_s"] = report.runtime_s
    echo["run_steps_screened"] = report.run_steps_screened
    echo["run_steps_exact"] = report.run_steps_exact
    return _emit(args, payloads, echo)


def cmd_scan(args) -> int:
    types = {"m": "int", "p_grid": "tuple[float, ...]", "threshold": "float", "per_point": "EnsembleConfig"}
    obj = read_fields(_load_json(args.config), types, ("m", "p_grid", "per_point"), "scan config")
    per_point = ensembles.EnsembleConfig.from_json(obj["per_point"])
    curve = ensembles.scan_p(obj["m"], obj["p_grid"], per_point, float(obj.get("threshold", 0.99)))
    if args.format == "csv":
        rows = [(p, f, lo, hi) for p, f, (lo, hi) in zip(curve.p_grid, curve.frequencies, curve.cis)]
        blob = csv_bytes(["p", "domination_frequency", "ci_lo", "ci_hi"], rows)
    else:
        blob = json_bytes(curve.to_json())
    echo = _echo(args)
    echo["seed"] = per_point.seed
    return _emit(args, {"": blob}, echo)


def cmd_check_w(args) -> int:
    seq = ReinforcementSeq.from_json(_load_json(args.seq))
    results = {
        "strong": reinforcement.check_strong(seq, args.horizon).to_json(),
        "variation_bound": reinforcement.check_variation_bound(seq, args.horizon).to_json(),
        "remainder_bound": reinforcement.check_remainder_bound(seq, args.horizon).to_json(),
    }
    if results["strong"]["verdict"] == "holds":
        horizon = max(args.horizon, DEFAULT_HORIZON)
        rem_ratio, sq_ratio = reinforcement.check_mdrem_conditions(seq, horizon=horizon)
        results["rem_ratio"] = rem_ratio.to_json()
        results["squared_rem_ratio"] = sq_ratio.to_json()
    blob = json_bytes({"seq": seq.to_json(), "horizon": args.horizon, "checks": results})
    return _emit(args, {"": blob}, _echo(args))


def cmd_embed_test(args) -> int:
    seq = _load_seq(args)
    za = embedding.sample_embedding_counts(
        seq, args.nc, args.a, args.d, args.k, args.samples, args.seed
    )
    zb = embedding.sample_multicolor_counts(
        seq, args.nc, args.a, args.d, args.k, args.samples, args.seed + 1
    )
    report = embedding.compare_laws(za, zb)
    blob = json_bytes(
        {
            "nc": args.nc,
            "a": list(args.a),
            "d": args.d,
            "k": args.k,
            "samples": args.samples,
            "seed": args.seed,
            # a timer armed exactly on a block boundary is rated from the
            # just-refreshed snapshot (the other admissible convention rates
            # it from the previous one; the laws agree)
            "boundary_rate_convention": "refreshed_snapshot",
            **report.to_json(),
        }
    )
    return _emit(args, {"": blob}, _echo(args))


# ---------------------------------------------------------------------------
# parser


@functools.cache  # one parser a process: a build takes about 1.7 ms, a settled simulate about 10
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="urnfield",
        description="Interacting urn models with strong reinforcement: "
        "simulation, mean-field analysis, Monte Carlo estimation.",
    )
    parser.add_argument("--version", action="version", version=f"urnfield {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False, fmt=True):
        p.add_argument("--out", help="output file (default: print to stdout)")
        if fmt:
            p.add_argument("--format", choices=("csv", "json"), default="csv")
        if seed:
            p.add_argument("--seed", type=int, required=True, help="master 64-bit seed")

    p = sub.add_parser("field", help="sample the mean-field drift on a grid")
    p.add_argument("--m", type=_degree, required=True)
    p.add_argument("--p", type=_unit_interval, required=True)
    p.add_argument("--resolution", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_field)

    p = sub.add_parser("equilibria", help="locate and classify equilibria")
    p.add_argument("--m", type=_degree, required=True)
    p.add_argument("--p", type=_unit_interval, required=True)
    p.add_argument("--grid", type=int, default=128)
    p.add_argument("--tol", type=float, default=1e-10)
    common(p)
    p.set_defaults(func=cmd_equilibria)

    p = sub.add_parser("um", help="the near-diagonal candidate limit point")
    p.add_argument("--m", type=_degree, required=True)
    p.add_argument("--p", type=_unit_interval, required=True)
    common(p, fmt=False)
    p.set_defaults(func=cmd_um)

    p = sub.add_parser("sm", help="the off-diagonal equilibrium for large m")
    p.add_argument("--m", type=_degree, required=True)
    p.add_argument("--p", type=_unit_interval, required=True)
    p.add_argument("--delta", type=float, default=None)
    common(p, fmt=False)
    p.set_defaults(func=cmd_sm)

    p = sub.add_parser("simulate", help="run one trajectory")
    p.add_argument("--model", choices=("ium", "multicolor", "sequential", "coupled"), required=True)
    p.add_argument("--m", type=_degree, help="polynomial degree shortcut: W(n) = n^m")
    p.add_argument("--seq", help="weight sequence JSON file")
    p.add_argument("--p", type=_unit_interval, default=0.0)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--black0", type=_int_list, default=(1, 1))
    p.add_argument("--red0", type=_int_list, default=(1, 1))
    p.add_argument("--nc", type=int, default=2)
    p.add_argument("--a", type=_int_list, default=(1, 1))
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--record-every", type=int, default=1)
    p.add_argument("--counts", action="store_true", help="export counts instead of proportions")
    common(p, seed=True, fmt=False)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("mc", help="run a Monte Carlo ensemble from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--runs-csv", action="store_true", help="also write per-run rows")
    common(p, fmt=False)
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("scan", help="domination frequency along a p grid")
    p.add_argument("--config", required=True)
    common(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("check-w", help="reinforcement condition checks")
    p.add_argument("--seq", required=True, help="weight sequence JSON file")
    p.add_argument("--horizon", type=int, default=1_000_000)
    common(p, fmt=False)
    p.set_defaults(func=cmd_check_w)

    p = sub.add_parser("embed-test", help="law comparison: embedding vs discrete urn")
    p.add_argument("--nc", type=int, required=True)
    p.add_argument("--a", type=_int_list, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=_degree)
    p.add_argument("--seq")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    common(p, seed=True, fmt=False)
    p.set_defaults(func=cmd_embed_test)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConditionViolation as exc:
        print(f"condition violation: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
