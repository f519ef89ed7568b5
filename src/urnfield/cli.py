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
import csv
import datetime
import hashlib
import io
import json
import os
import sys

import numpy as np

from . import __version__, embedding, ensembles, meanfield, urns
from .errors import ConditionViolation
from .reinforcement import (
    ReinforcementSeq,
    check_mdrem_conditions,
    check_remainder_bound,
    check_strong,
    check_variation_bound,
    make_polynomial,
)

_FLOAT_FMT = ".17g"


def _np_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True, default=_np_default) + "\n").encode()


def _csv_bytes(header, rows) -> bytes:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow(
            [format(v, _FLOAT_FMT) if isinstance(v, float) else v for v in row]
        )
    return buf.getvalue().encode()


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
        fh.write(_json_bytes(manifest))
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
        blob = _json_bytes(
            {"m": args.m, "p": args.p, "rows": [list(map(float, r)) for r in rows]}
        )
    else:
        blob = _csv_bytes(["x", "y", "F1", "F2"], [tuple(map(float, r)) for r in rows])
    return _emit(args, {"": blob}, _echo(args))


def cmd_equilibria(args) -> int:
    params = meanfield.ModelParams(args.m, args.p)
    eqs = meanfield.find_equilibria(params, args.grid, args.tol)
    if args.format == "json":
        blob = _json_bytes({"m": args.m, "p": args.p, "equilibria": [e.to_json() for e in eqs]})
    else:
        blob = _csv_bytes(
            ["x", "y", "lambda_minus", "lambda_plus", "class"],
            [(e.x, e.y, e.lambda_minus, e.lambda_plus, e.stability) for e in eqs],
        )
    return _emit(args, {"": blob}, _echo(args))


def cmd_um(args) -> int:
    params = meanfield.ModelParams(args.m, args.p)
    u = meanfield.solve_um(params)
    margin = meanfield.um_stability_margin(params)
    blob = _json_bytes(
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
    blob = _json_bytes({"m": args.m, "p": args.p, "delta": args.delta, **eq.to_json()})
    return _emit(args, {"": blob}, _echo(args))


def cmd_simulate(args) -> int:
    seq = _load_seq(args)
    if args.model == "coupled":
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
        blob = _csv_bytes(
            ["step", "x_1", "x_2", "seq_x_1", "seq_x_2", "violations"], rows
        )
        return _emit(args, {"": blob}, {**_echo(args), "violations": violations})

    if args.model == "ium":
        state = urns.init_ium(args.d, args.black0, args.red0, args.p, seq, args.seed)
    elif args.model == "multicolor":
        state = urns.init_multicolor(args.nc, args.a, args.d, seq, args.seed)
    elif args.model == "sequential":
        state = urns.init_sequential(args.black0, args.red0, seq, args.seed)
    else:
        raise ValueError(f"unknown model {args.model}")
    traj = urns.run(state, args.steps, args.record_every, record_counts=args.counts)
    if args.steps > 0:
        traj.events["monopoly"] = urns.detect_monopoly(traj, max(1, args.steps // 5))
    if args.counts:
        width = traj.counts.shape[1]
        blob = _csv_bytes(
            ["step"] + [f"c_{i + 1}" for i in range(width)],
            [(int(s), *(int(v) for v in row)) for s, row in zip(traj.steps, traj.counts)],
        )
    else:
        width = traj.proportions.shape[1]
        blob = _csv_bytes(
            ["step"] + [f"x_{i + 1}" for i in range(width)],
            [(int(s), *(float(v) for v in row)) for s, row in zip(traj.steps, traj.proportions)],
        )
    return _emit(args, {"": blob}, {**_echo(args), "events": traj.events})


def cmd_mc(args) -> int:
    config = ensembles.EnsembleConfig.from_json(_load_json(args.config))
    report = ensembles.run_ensemble(config)
    payloads = {"": _json_bytes(report.to_json())}
    if args.runs_csv:
        d = len(report.run_rows[0]) - 3 if report.run_rows else 0
        header = ["run_index", "seed", "label"] + [f"x_{i + 1}_final" for i in range(d)]
        payloads["runs.csv"] = _csv_bytes(header, report.run_rows)
    echo = _echo(args)
    echo["seed"] = config.seed
    echo["runtime_s"] = report.runtime_s
    return _emit(args, payloads, echo)


def cmd_scan(args) -> int:
    obj = _load_json(args.config)
    if not isinstance(obj, dict) or obj.get("schema") != 1:
        raise ValueError("scan config must be an object with schema = 1")
    unknown = set(obj) - {"schema", "m", "p_grid", "threshold", "per_point"}
    if unknown:
        raise ValueError(f"unknown scan config fields: {sorted(unknown)}")
    per_point = ensembles.EnsembleConfig.from_json(obj["per_point"])
    curve = ensembles.scan_p(
        int(obj["m"]), obj["p_grid"], per_point, float(obj.get("threshold", 0.99))
    )
    if args.format == "csv":
        blob = _csv_bytes(
            ["p", "domination_frequency", "ci_lo", "ci_hi"],
            [
                (p, f, lo, hi)
                for p, f, (lo, hi) in zip(curve.p_grid, curve.frequencies, curve.cis)
            ],
        )
    else:
        blob = _json_bytes(curve.to_json())
    echo = _echo(args)
    echo["seed"] = per_point.seed
    return _emit(args, {"": blob}, echo)


def cmd_check_w(args) -> int:
    seq = ReinforcementSeq.from_json(_load_json(args.seq))
    results = {}
    checks = [
        ("strong", lambda: check_strong(seq, args.horizon)),
        ("variation_bound", lambda: check_variation_bound(seq, args.horizon)),
        ("remainder_bound", lambda: check_remainder_bound(seq, args.horizon)),
    ]
    for name, fn in checks:
        try:
            results[name] = fn().to_json()
        except ConditionViolation as exc:
            results[name] = {"error": str(exc)}
    if results["strong"].get("verdict") == "holds":
        try:
            rem_ratio, sq_ratio = check_mdrem_conditions(seq)
            results["rem_ratio"] = rem_ratio.to_json()
            results["squared_rem_ratio"] = sq_ratio.to_json()
        except (ConditionViolation, ValueError) as exc:
            results["rem_ratio"] = results["squared_rem_ratio"] = {"error": str(exc)}
    blob = _json_bytes({"seq": seq.to_json(), "horizon": args.horizon, "checks": results})
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
    blob = _json_bytes(
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
