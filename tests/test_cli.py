import hashlib
import json
import math
import os
import subprocess
import sys

import pytest

import urnfield
from urnfield import cli, ensembles, reinforcement as rf, urns
from urnfield.cli import main
from urnfield.reinforcement import make_polynomial

N2_JSON = {"kind": "polynomial", "coeffs": [0, 0, 1]}


def mc_config(tmp_path, **over):
    cfg = {
        "schema": 1,
        "model": "ium",
        "seq": N2_JSON,
        "p": 0.2,
        "d": 2,
        "black0": [1, 1],
        "red0": [1, 1],
        "n_steps": 500,
        "n_runs": 12,
        "record_every": 50,
        "seed": 99,
    }
    cfg.update(over)
    path = tmp_path / "mc.json"
    path.write_text(json.dumps(cfg))
    return path


class TestExitCodes:
    def test_success(self, tmp_path, capsys):
        assert main(["field", "--m", "3", "--p", "0.5", "--resolution", "3"]) == 0
        assert capsys.readouterr().out.startswith("x,y,F1,F2")

    def test_argument_error(self, capsys):
        assert main(["field", "--m", "3", "--p", "1.5", "--resolution", "3"]) == 2
        assert main(["field", "--m", "1", "--p", "0.5", "--resolution", "3"]) == 2
        assert main(["nonsense"]) == 2

    def test_condition_violation(self, capsys):
        # m far too small for an off-diagonal equilibrium at this p
        assert main(["sm", "--m", "2", "--p", "0.05"]) == 3

    def test_non_finite_weight_is_a_condition_violation(self, nan_weights_from_300, capsys):
        assert main(["simulate", "--model", "ium", "--m", "2", "--steps", "400", "--seed", "1"]) == 3
        assert "not finite at n = 300" in capsys.readouterr().err

    def test_sm_large_p_is_argument_error(self):
        assert main(["sm", "--m", "2", "--p", "0.6"]) == 2

    def test_io_error(self, tmp_path):
        rc = main(
            ["field", "--m", "3", "--p", "0.5", "--resolution", "3",
             "--out", str(tmp_path / "missing_dir" / "x.csv")]
        )
        assert rc == 4

    def test_malformed_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all")
        assert main(["mc", "--config", str(bad)]) == 2

    def test_unknown_config_field(self, tmp_path, capsys):
        path = mc_config(tmp_path)
        blob = json.loads(path.read_text())
        blob["typo"] = True
        path.write_text(json.dumps(blob))
        assert main(["mc", "--config", str(path)]) == 2
        assert capsys.readouterr().err == "error: unknown config fields: ['typo']\n"

    def test_threads_rejected(self, tmp_path):
        path = mc_config(tmp_path, threads=2)
        assert main(["mc", "--config", str(path)]) == 2
        assert main(["mc", "--config", str(mc_config(tmp_path)), "--threads", "2"]) == 2


class TestField:
    def test_row_count(self, tmp_path):
        out = tmp_path / "f.csv"
        assert main(["field", "--m", "3", "--p", "0.5", "--resolution", "25", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 626  # header + 625 rows
        manifest = json.loads((tmp_path / "f.csv.manifest.json").read_text())
        assert manifest["command"] == "field"
        assert manifest["outputs"][0]["path"] == str(out)

    def test_manifest_digest_matches(self, tmp_path):
        import hashlib

        out = tmp_path / "f.csv"
        main(["field", "--m", "2", "--p", "0.3", "--resolution", "5", "--out", str(out)])
        manifest = json.loads((tmp_path / "f.csv.manifest.json").read_text())
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert manifest["outputs"][0]["sha256"] == digest


class TestEquilibriaCommand:
    def test_nine_rows_at_p_zero(self, tmp_path):
        out = tmp_path / "e.csv"
        assert main(["equilibria", "--m", "3", "--p", "0", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,y,lambda_minus,lambda_plus,class"
        assert len(lines) == 10

    def test_json_format(self, capsys):
        assert main(["equilibria", "--m", "2", "--p", "0.2", "--format", "json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        classes = {e["class"] for e in blob["equilibria"]}
        assert "strictly_stable" in classes
        xs = sorted(round(e["x"], 6) for e in blob["equilibria"])
        assert 0.112702 in xs  # the mixed stable point at p = 0.2


class TestPointCommands:
    def test_um_value(self, capsys):
        assert main(["um", "--m", "2", "--p", "0.18"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["u"] == pytest.approx(0.1, abs=1e-10)
        assert blob["strictly_stable"] is True

    def test_sm_near_corner(self, capsys):
        assert main(["sm", "--m", "30", "--p", "0.3"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["x"] == pytest.approx(0.3, abs=0.01)
        assert blob["y"] == pytest.approx(1.0, abs=0.01)
        assert blob["class"] == "strictly_stable"


class TestSimulate:
    def test_deterministic_outputs(self, tmp_path):
        args = ["simulate", "--model", "ium", "--m", "3", "--p", "0.2",
                "--steps", "500", "--seed", "7", "--record-every", "100"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_parser_is_built_once(self, tmp_path):
        # main reuses one parser, and its runs write the same bytes
        args = ["simulate", "--model", "coupled", "--m", "3", "--p", "0.2", "--steps", "500", "--seed", "7",
                "--record-every", "100"]
        cli.build_parser.cache_clear()
        outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for out in outs:
            assert main(args + ["--out", str(out)]) == 0
        assert cli.build_parser.cache_info().misses == 1
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_multicolor_counts(self, tmp_path):
        out = tmp_path / "m.csv"
        rc = main(["simulate", "--model", "multicolor", "--m", "3", "--nc", "3",
                   "--a", "1,1,1", "--d", "2", "--steps", "200", "--seed", "5",
                   "--counts", "--record-every", "50", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "step,c_1,c_2,c_3"
        last = [int(v) for v in lines[-1].split(",")]
        assert sum(last[1:]) == 3 + 2 * 200

    @pytest.mark.parametrize("flags", [["--record-every", "0"], ["--steps", "-3"]], ids=["cadence-0", "negative-steps"])
    def test_coupled_rejects_bad_horizon(self, tmp_path, capsys, flags):
        # run_coupled checks its steps and cadence as run does
        argv = ["simulate", "--model", "coupled", "--m", "2", "--steps", "10", "--seed", "1",
                "--out", str(tmp_path / "c.csv"), *flags]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "c.csv").exists()

    def test_coupled_rejects_counts(self, tmp_path, capsys):
        # the coupled CSV holds proportions only; --counts must not pass silently
        argv = ["simulate", "--model", "coupled", "--m", "2", "--steps", "10", "--seed", "1", "--counts",
                "--out", str(tmp_path / "c.csv")]
        assert main(argv) == 2
        assert "--counts" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("model", ["coupled", "sequential"])
    def test_two_urn_models_reject_d(self, tmp_path, capsys, model):
        # both models run two urns; a --d other than 2 must not run them and echo the wrong d
        argv = ["simulate", "--model", model, "--m", "2", "--steps", "10", "--seed", "1", "--d", "3",
                "--out", str(tmp_path / "c.csv")]
        assert main(argv) == 2
        assert "--d" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        argv[argv.index("3")] = "2"
        assert main(argv) == 0
        assert json.loads((tmp_path / "c.csv.manifest.json").read_text())["arguments"]["d"] == 2

    @pytest.mark.parametrize("model", ["multicolor", "sequential"])
    def test_models_that_ignore_p_reject_it(self, tmp_path, capsys, model):
        # neither model reads p; a --p other than 0 must not run and echo a p it ignored
        argv = ["simulate", "--model", model, "--m", "2", "--steps", "10", "--seed", "1", "--p", "0.7",
                "--out", str(tmp_path / "c.csv")]
        assert main(argv) == 2
        assert "--p" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        argv[argv.index("0.7")] = "0"
        assert main(argv) == 0
        assert json.loads((tmp_path / "c.csv.manifest.json").read_text())["arguments"]["p"] == 0.0

    def test_coupled_violations_column(self, tmp_path):
        out = tmp_path / "c.csv"
        rc = main(["simulate", "--model", "coupled", "--m", "2", "--p", "0.4",
                   "--steps", "500", "--seed", "3", "--record-every", "100",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "step,x_1,x_2,seq_x_1,seq_x_2,violations"
        assert lines[-1].endswith(",0")
        args = json.loads((tmp_path / "c.csv.manifest.json").read_text())["arguments"]
        assert args["run_steps_screened"] > 0
        assert args["run_steps_screened"] + args["run_steps_exact"] == 500

    @pytest.mark.parametrize("counts", [False, True])
    @pytest.mark.parametrize(
        "model, init",
        [
            ("ium", lambda seq: urns.init_ium(2, (1, 1), (1, 1), 0.2, seq, 7)),
            ("multicolor", lambda seq: urns.init_multicolor(2, (1, 1), 2, seq, 7)),
            ("sequential", lambda seq: urns.init_sequential((1, 1), (1, 1), seq, 7)),
        ],
    )
    def test_out_is_the_trajectory_csv(self, tmp_path, model, init, counts):
        out = tmp_path / "t.csv"
        argv = ["simulate", "--model", model, "--m", "3", "--steps", "300",
                "--record-every", "25", "--seed", "7", "--out", str(out)]
        argv += ["--p", "0.2"] if model == "ium" else []
        assert main(argv + (["--counts"] if counts else [])) == 0
        traj = urns.run(init(make_polynomial([0, 0, 0, 1])), 300, 25, record_counts=counts)
        ref = tmp_path / "ref.csv"
        traj.to_csv(ref, "counts" if counts else "proportions")
        assert out.read_bytes() == ref.read_bytes()

    def test_missing_weights(self):
        assert main(["simulate", "--model", "ium", "--steps", "10", "--seed", "1"]) == 2

    @pytest.mark.parametrize(
        "model_args, n_cols",
        [
            (["--model", "ium", "--d", "1", "--black0", "0", "--red0", "0"], 1),
            (["--model", "multicolor", "--a", "0,0"], 2),
            (["--model", "sequential", "--black0", "0,0", "--red0", "0,0"], 2),
        ],
    )
    def test_empty_urn_has_no_step_0_proportion(self, tmp_path, recwarn, model_args, n_cols):
        seq = tmp_path / "c3.json"
        seq.write_text(json.dumps({"kind": "polynomial", "coeffs": [1, 3, 3, 1]}))
        out = tmp_path / "t.csv"
        argv = ["simulate", *model_args, "--steps", "3", "--seq", str(seq), "--seed", "1", "--out", str(out)]
        assert main(argv) == 0
        rows = out.read_text().splitlines()
        assert rows[1] == ",".join(["0"] + ["nan"] * n_cols)
        assert "nan" not in "".join(rows[2:]) and len(rows) == 5
        assert not recwarn.list


class TestMcAndScan:
    def test_mc_report(self, tmp_path):
        cfg = mc_config(tmp_path)
        out = tmp_path / "rep.json"
        assert main(["mc", "--config", str(cfg), "--out", str(out), "--runs-csv"]) == 0
        rep = json.loads(out.read_text())
        assert rep["n_runs"] == 12
        total = sum(c["count"] for c in rep["cells"]) + rep["unresolved"]
        assert total == 12
        runs = (tmp_path / "rep.runs.csv").read_text().splitlines()
        assert runs[0] == "run_index,seed,label,x_1_final,x_2_final"
        assert len(runs) == 13

    def test_mc_deterministic(self, tmp_path):
        cfg = mc_config(tmp_path)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["mc", "--config", str(cfg), "--out", str(a)])
        main(["mc", "--config", str(cfg), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_scan(self, tmp_path):
        scan = {
            "schema": 1,
            "m": 2,
            "p_grid": [0.1, 0.45],
            "threshold": 0.9,
            "per_point": {
                "schema": 1, "model": "ium", "seq": N2_JSON,
                "n_steps": 500, "n_runs": 10, "seed": 3,
            },
        }
        path = tmp_path / "scan.json"
        path.write_text(json.dumps(scan))
        out = tmp_path / "curve.csv"
        assert main(["scan", "--config", str(path), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "p,domination_frequency,ci_lo,ci_hi"
        assert len(lines) == 3

    def test_scan_rejects_models_other_than_ium(self, tmp_path, capsys):
        scan = {
            "schema": 1, "m": 2, "p_grid": [0.2],
            "per_point": {"schema": 1, "model": "sequential", "seq": N2_JSON, "n_steps": 50, "n_runs": 2, "seed": 3},
        }
        path = tmp_path / "scan.json"
        path.write_text(json.dumps(scan))
        assert main(["scan", "--config", str(path)]) == 2
        assert "ium" in capsys.readouterr().err

    def test_scan_rejects_weights_not_of_degree_m(self, tmp_path, capsys):
        scan = {
            "schema": 1, "m": 3, "p_grid": [0.2],
            "per_point": {"schema": 1, "model": "ium", "seq": N2_JSON, "n_steps": 50, "n_runs": 2, "seed": 3},
        }
        path = tmp_path / "scan.json"
        path.write_text(json.dumps(scan))
        assert main(["scan", "--config", str(path)]) == 2
        assert "degree-3" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("threshold", 7, "threshold must be in (0, 1]"), ("p_grid", [0.3, 1.7], "must be in [0, 1]"),
    ])
    def test_scan_rejects_values_out_of_range_before_any_ensemble(self, tmp_path, capsys, monkeypatch, key, value,
                                                                   message):
        scan = {
            "schema": 1, "m": 2, "p_grid": [0.3], key: value,
            "per_point": {"schema": 1, "model": "ium", "seq": N2_JSON, "n_steps": 50, "n_runs": 2, "seed": 3},
        }
        path = tmp_path / "scan.json"
        path.write_text(json.dumps(scan))

        def no_ensemble(config):
            raise AssertionError(f"an ensemble ran at p = {config.p}")

        monkeypatch.setattr(ensembles, "run_ensemble", no_ensemble)
        assert main(["scan", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err


class TestCheckW:
    def test_verdicts(self, tmp_path, capsys):
        seq_path = tmp_path / "seq.json"
        seq_path.write_text(json.dumps(N2_JSON))
        assert main(["check-w", "--seq", str(seq_path), "--horizon", "100000"]) == 0
        blob = json.loads(capsys.readouterr().out)
        checks = blob["checks"]
        assert checks["strong"]["verdict"] == "holds"
        assert checks["variation_bound"]["verdict"] == "holds"
        assert checks["remainder_bound"]["verdict"] == "fails"

    def test_linear_fails(self, tmp_path, capsys):
        seq_path = tmp_path / "seq.json"
        seq_path.write_text(json.dumps({"kind": "polynomial", "coeffs": [0, 1]}))
        assert main(["check-w", "--seq", str(seq_path), "--horizon", "10000"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["checks"]["strong"]["verdict"] == "fails"
        assert "rem_ratio" not in blob["checks"]


class TestSimulateEvents:
    def test_monopoly_annotation_in_manifest(self, tmp_path):
        out = tmp_path / "t.csv"
        rc = main(["simulate", "--model", "multicolor", "--m", "3", "--nc", "2",
                   "--a", "1,1", "--d", "2", "--steps", "3000", "--seed", "2",
                   "--record-every", "100", "--out", str(out)])
        assert rc == 0
        manifest = json.loads((tmp_path / "t.csv.manifest.json").read_text())
        assert "monopoly" in manifest["arguments"]["events"]

    @pytest.mark.parametrize("seed", [5, 23, 27, 37])
    def test_monopoly_event_independent_of_record_every(self, tmp_path, seed):
        # the last red draw of these runs falls within 300 steps before the window's start
        events = []
        for every in (1, 300):
            out = tmp_path / f"t{every}.csv"
            assert main(["simulate", "--model", "ium", "--m", "2", "--p", "0.5", "--steps", "1000",
                         "--seed", str(seed), "--record-every", str(every), "--out", str(out)]) == 0
            manifest = json.loads((tmp_path / f"t{every}.csv.manifest.json").read_text())
            events.append(manifest["arguments"]["events"]["monopoly"])
        assert events == ["black", "black"]


class TestNoTraceback:
    @pytest.mark.parametrize("red", [1, 1040, 1100])
    @pytest.mark.parametrize("model", ["ium", "multicolor", "sequential", "coupled"])
    def test_simulate_under_exponential_weights(self, tmp_path, model, red):
        # log W gaps of 1040 log 2 ~ 721 lie beyond math.exp's range, 1100 log 2 ~ 762 beyond
        # the old clip at 745
        seq = tmp_path / "e2.json"
        seq.write_text(json.dumps({"kind": "exponential", "rho": 2}))
        init = {
            "ium": ["--d", "1", "--black0", "1", "--red0", str(red)],
            "multicolor": ["--nc", "2", "--a", f"1,{red}", "--d", "1"],
        }.get(model, ["--black0", "1,1", "--red0", f"{red},1"])
        for steps in ("3", "200"):
            rc = main(["simulate", "--model", model, "--seq", str(seq), *init, "--steps", steps,
                       "--seed", "1", "--out", str(tmp_path / "t.csv")])
            assert rc in (0, 2, 3)

    # weights at the float-range edge: log W gaps near 1030 log 2 under
    # rho = 2, log W(2) beyond float range under rho = 1e300 and under n^2000,
    # and a polynomial whose coefficient is near the largest double
    EDGE_SEQS = {
        "rho=2": {"kind": "exponential", "rho": 2},
        "rho=1e300": {"kind": "exponential", "rho": 1e300},
        "1e300 n^2": {"kind": "polynomial", "coeffs": [0, 0, 1e300]},
        "n^2000": {"kind": "polynomial", "coeffs": [0] * 2000 + [1]},
    }

    @staticmethod
    def write(tmp_path, name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    @pytest.mark.parametrize("seq", EDGE_SEQS)
    def test_check_w(self, tmp_path, seq):
        path = self.write(tmp_path, "seq.json", self.EDGE_SEQS[seq])
        for horizon in ("1030", "100000"):
            assert main(["check-w", "--seq", path, "--horizon", horizon]) in (0, 2, 3)

    @pytest.mark.parametrize("seq", EDGE_SEQS)
    def test_embed_test(self, tmp_path, seq):
        path = self.write(tmp_path, "seq.json", self.EDGE_SEQS[seq])
        for a in ("1,1", "1030,1", "1,1025"):
            for d in ("1", "2"):
                rc = main(["embed-test", "--seq", path, "--nc", "2", "--a", a, "--d", d, "--k", "2",
                           "--samples", "200", "--seed", "1"])
                assert rc in (0, 2, 3)

    def test_embed_test_at_degree_2000(self):
        rc = main(["embed-test", "--m", "2000", "--nc", "2", "--a", "1,1", "--d", "2", "--k", "2",
                   "--samples", "200", "--seed", "1"])
        assert rc in (0, 2, 3)

    @pytest.mark.parametrize("seq", EDGE_SEQS)
    @pytest.mark.parametrize("model", ["ium", "multicolor", "sequential", "embedding"])
    def test_mc(self, tmp_path, seq, model):
        for init in ({"black0": [1, 1030], "red0": [1025, 1], "a": [1030, 1]}, {}):
            cfg = {"schema": 1, "model": model, "seq": self.EDGE_SEQS[seq], "n_steps": 50, "n_runs": 4,
                   "seed": 3, "record_every": 10, "p": 0.5 if model == "ium" else 0.0, **init}
            path = self.write(tmp_path, "mc.json", cfg)
            assert main(["mc", "--config", path, "--out", str(tmp_path / "r.json"), "--runs-csv"]) in (0, 2, 3)

    @pytest.mark.parametrize("seq", EDGE_SEQS)
    def test_scan(self, tmp_path, seq):
        obj = self.EDGE_SEQS[seq]
        for init in ({"black0": [1, 1030], "red0": [1025, 1]}, {}):
            cfg = {"schema": 1, "m": len(obj.get("coeffs", "012")) - 1, "p_grid": [0.0, 0.5, 1.0], "per_point": {
                "schema": 1, "model": "ium", "seq": obj, "n_steps": 50, "n_runs": 4, "seed": 3, "record_every": 10,
                **init}}
            path = self.write(tmp_path, "scan.json", cfg)
            for fmt in ("csv", "json"):
                assert main(["scan", "--config", path, "--format", fmt]) in (0, 2, 3)

    @pytest.mark.parametrize("m", ["2", "2000"])
    def test_equilibria(self, m):
        for p in ("0", "0.3", "1"):
            for fmt in ("csv", "json"):
                assert main(["equilibria", "--m", m, "--p", p, "--grid", "64", "--format", fmt]) in (0, 2, 3)


class TestSeedRange:
    SIMULATE = ["simulate", "--m", "2", "--steps", "3"]

    @pytest.mark.parametrize("argv", [
        SIMULATE + ["--model", "ium", "--seed", "-1"],
        SIMULATE + ["--model", "ium", "--seed", str(2**64)],
        SIMULATE + ["--model", "multicolor", "--seed", "-1"],
        SIMULATE + ["--model", "sequential", "--seed", str(2**64)],
        SIMULATE + ["--model", "coupled", "--seed", "-1"],
        # the discrete side of embed-test draws from seed + 1
        ["embed-test", "--nc", "2", "--a", "1,1", "--d", "2", "--m", "2", "--k", "2", "--samples", "200",
         "--seed", str(2**64 - 1)],
    ], ids=["ium-below", "ium-above", "multicolor-below", "sequential-above", "coupled-below", "embed-test-above"])
    def test_seed_outside_64_bits_is_named(self, capsys, argv):
        assert main(argv) == 2
        assert "seed must lie in [0, 2**64)" in capsys.readouterr().err

    def test_largest_seed_runs(self, capsys):
        assert main(self.SIMULATE + ["--model", "ium", "--seed", str(2**64 - 1)]) == 0


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes about a second to import; no command needs it up front
    code = "import sys, urnfield.cli; sys.exit('scipy.stats' in sys.modules)"
    src = os.path.dirname(os.path.dirname(urnfield.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


# sha256 of the README commands' output, pinned with numpy 2.4.6 and scipy
# 1.17.1.  The bytes come from integer counts, exact divisions and a
# chi-square over integer tallies, so only a draw within rounding of a weight
# share or a different scipy chdtrc could move them.
README_DIGESTS = {
    "simulate --model ium --m 3 --p 0.2 --steps 100000 --seed 7 --record-every 100":
        "89a31b936157851a9ec25a24280ae1ebeb1674088419adade3cedbf148ade59f",
    "simulate --model coupled --m 2 --p 0.4 --steps 10000 --seed 1":
        "5afac6e0d539a7f3e721636f7d80b6dc9a63a83e144e9e7e8485bfa4271724c7",
    "embed-test --nc 2 --a 1,1 --d 2 --m 2 --k 3 --samples 100000 --seed 5":
        "84a0c7319d7a7628a487d0080c0e1976cb1d3cef09a12bd2b7d98e7a33784e42",
}


def test_readme_outputs_are_byte_identical(capsys):
    for command, digest in README_DIGESTS.items():
        assert main(command.split()) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, command


class TestEmbedTest:
    def test_report(self, tmp_path, capsys):
        rc = main(["embed-test", "--nc", "2", "--a", "1,1", "--d", "2", "--m", "2",
                   "--k", "2", "--samples", "2000", "--seed", "5"])
        assert rc == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["method"] == "chi_square"
        assert blob["p_value"] > 1e-3

    def test_weights_beyond_float_range(self, tmp_path, capsys):
        seq = tmp_path / "e2.json"
        seq.write_text(json.dumps({"kind": "exponential", "rho": 2}))
        rc = main(["embed-test", "--nc", "2", "--a", "1030,1", "--d", "1", "--k", "3",
                   "--samples", "200", "--seed", "1", "--seq", str(seq)])
        assert rc == 3
        assert "exceeds float range" in capsys.readouterr().err

    def test_too_few_samples(self):
        rc = main(["embed-test", "--nc", "2", "--a", "1,1", "--d", "2", "--m", "2",
                   "--k", "2", "--samples", "10", "--seed", "5"])
        assert rc == 2

    @pytest.mark.parametrize("k, samples, error", [("-1", "200", "k must be >= 0"), ("2", "0", "n_samples")])
    def test_negative_k_or_no_samples_is_named(self, capsys, k, samples, error):
        rc = main(["embed-test", "--nc", "2", "--a", "1,1", "--d", "2", "--m", "2",
                   "--k", k, "--samples", samples, "--seed", "5"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and error in err


DROP = object()


class TestMalformedInput:
    # each malformed sequence and what its error names
    SEQS = [
        ({"kind": "polynomial"}, "'coeffs'"),
        ({"kind": "polynomial", "coeffs": 5}, "'coeffs'"),
        ({"kind": "table", "table": [1, 2], "tail": {"branches": [{"exp": {}}]}}, "'rho'"),
        ([1, 2], "sequence"),
        ({"kind": "exponential", "rho": None}, "'rho'"),
        ({"kind": "polynomial", "coeffs": [0, 0, True]}, "'coeffs'"),
        ({"kind": "polynomial", "coeffs": ["0", "0", "1"]}, "'coeffs'"),
        ({"kind": "exponential", "rho": "2"}, "'rho'"),
        ({"kind": "table", "table": [1, 2], "tail": {"branches": [{"const": "3"}]}}, "'const'"),
        ({"kind": "table", "table": [1, "2", 4]}, "'table'"),
        ({"kind": "exponential", "rho": 10**400}, "'rho'"),  # an integer beyond float range
        ({"kind": "table", "table": [1], "tail": {"branches": [{"poly": [-1e9, 0, 1]}]}}, "tail branch 0"),
    ]

    @pytest.mark.parametrize("seq, field", SEQS, ids=["no-coeffs", "scalar-coeffs", "exp-without-rho",
                                                      "list", "null-rho", "bool-coeff", "string-coeff",
                                                      "string-rho", "string-const", "string-table",
                                                      "huge-rho", "tail-scan-too-long"])
    @pytest.mark.parametrize("command", [
        ["check-w"],
        ["simulate", "--model", "ium", "--steps", "10", "--seed", "1"],
        ["embed-test", "--nc", "2", "--a", "1,1", "--d", "1", "--k", "2", "--samples", "200",
         "--seed", "1"],
        ["mc"],
    ], ids=["check-w", "simulate", "embed-test", "mc"])
    def test_malformed_sequence_exits_2(self, tmp_path, capsys, command, seq, field):
        if command == ["mc"]:
            argv = ["mc", "--config", str(mc_config(tmp_path, seq=seq))]
        else:
            path = tmp_path / "seq.json"
            path.write_text(json.dumps(seq))
            argv = [*command, "--seq", str(path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err

    @pytest.mark.parametrize("field, value", [
        ("black0", 5), ("a", [1, "x"]), ("n_runs", "12"), ("p", None),
        ("n_runs", True), ("n_steps", True), ("record_every", True), ("p", True), ("black0", [1, True]),
        ("window", 2.5),
    ])
    def test_mistyped_mc_field_exits_2(self, tmp_path, capsys, field, value):
        assert main(["mc", "--config", str(mc_config(tmp_path, **{field: value}))]) == 2
        assert capsys.readouterr().err.startswith(f"error: config field '{field}'")

    @pytest.mark.parametrize("field", ["seed", "n_steps"])
    def test_missing_mc_field_exits_2(self, tmp_path, capsys, field):
        path = mc_config(tmp_path)
        cfg = json.loads(path.read_text())
        del cfg[field]
        path.write_text(json.dumps(cfg))
        assert main(["mc", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: missing config fields: ['{field}']\n"

    @pytest.mark.parametrize("seed", [-1, 2**64])
    @pytest.mark.parametrize("command", ["mc", "scan"])
    def test_seed_outside_64_bits_exits_2(self, tmp_path, capsys, command, seed):
        # derive_seed reduces a master seed mod 2^64, so -1 would alias 2^64 - 1
        path = mc_config(tmp_path, seed=seed)
        if command == "scan":
            scan = {"schema": 1, "m": 2, "p_grid": [0.1], "per_point": json.loads(path.read_text())}
            path.write_text(json.dumps(scan))
        assert main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: seed")

    @pytest.mark.parametrize("key, value", [
        ("per_point", DROP), ("p_grid", DROP), ("m", DROP),
        ("m", "2"), ("p_grid", 0.1), ("p_grid", [0.1, None]), ("threshold", None),
        ("m", True), ("p_grid", [True]), ("threshold", False), ("n_steps", 100),
    ])
    def test_malformed_scan_config_exits_2(self, tmp_path, capsys, key, value):
        cfg = {"schema": 1, "m": 2, "p_grid": [0.1], "per_point": json.loads(mc_config(tmp_path).read_text())}
        if value is DROP:
            del cfg[key]
        else:
            cfg[key] = value
        path = tmp_path / "scan.json"
        path.write_text(json.dumps(cfg))
        assert main(["scan", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"'{key}'" in err

    @pytest.mark.parametrize("command", ["mc", "scan"])
    @pytest.mark.parametrize("schema", [2, DROP], ids=["schema-2", "no-schema"])
    def test_config_without_schema_1_exits_2(self, tmp_path, capsys, command, schema):
        cfg = json.loads(mc_config(tmp_path).read_text())
        if command == "scan":
            cfg = {"schema": 1, "m": 2, "p_grid": [0.1], "per_point": cfg}
        if schema is DROP:
            del cfg["schema"]
        else:
            cfg["schema"] = schema
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main([command, "--config", str(path)]) == 2
        what = "scan config" if command == "scan" else "config"
        assert capsys.readouterr().err == f"error: {what} must be a JSON object with schema = 1\n"


class TestCheckWFloatRange:
    def run(self, tmp_path, capsys, seq, horizon):
        path = tmp_path / "seq.json"
        path.write_text(json.dumps(seq))
        rc = main(["check-w", "--seq", str(path), "--horizon", str(horizon)])
        out, err = capsys.readouterr()
        return rc, out, err

    def test_sup_beyond_float_range_is_reported_as_infinity(self, tmp_path, capsys):
        seq = {"kind": "table", "table": [0, 2, 2],
               "tail": {"branches": [{"exp": {"rho": 2.0}}, {"poly": [1, 1, 1]}]}}
        rc, out, _ = self.run(tmp_path, capsys, seq, 10_000)
        assert rc == 0
        checks = json.loads(out)["checks"]
        for name in ("variation_bound", "remainder_bound"):
            assert checks[name]["verdict"] == "fails"
            assert checks[name]["estimate"] == float("inf")
        assert '"estimate": Infinity' in out

    @pytest.mark.parametrize("horizon, scanned", [(1_000, 1_000_000), (2_000_000, 2_000_000)])
    def test_remainder_decay_checks_follow_a_horizon_above_the_default(
        self, tmp_path, capsys, monkeypatch, horizon, scanned
    ):
        seen, checks = [], rf.check_mdrem_conditions

        def spy(seq, **kwargs):
            seen.append(kwargs["horizon"])
            return checks(seq, **kwargs)

        monkeypatch.setattr(rf, "check_mdrem_conditions", spy)
        rc, out, _ = self.run(tmp_path, capsys, N2_JSON, horizon)
        assert rc == 0
        assert seen == [scanned]
        assert {"rem_ratio", "squared_rem_ratio"} <= json.loads(out)["checks"].keys()

    def test_cauchy_bound_beyond_float_range_exits_3(self, tmp_path, capsys):
        rc, out, err = self.run(tmp_path, capsys, {"kind": "polynomial", "coeffs": [1e300, 0, 1e-10]}, 10_000)
        assert rc == 3
        assert out == ""
        assert err.startswith("condition violation:") and "leaves float range" in err

    # W(K) beyond float range where the Euler-Maclaurin tail starts: k^2000
    # and k^120 at K = 513, and k^2 at a tail that starts near index 1e300
    @pytest.mark.parametrize("coeffs", [[0] * 2000 + [1], [0] * 120 + [1], [1e300, 0, 1]],
                             ids=["n^2000", "n^120", "1e300 + n^2"])
    def test_polynomial_tail_past_float_range_is_checked(self, tmp_path, capsys, coeffs):
        rc, out, _ = self.run(tmp_path, capsys, {"kind": "polynomial", "coeffs": coeffs}, 10_000)
        assert rc == 0
        strong = json.loads(out)["checks"]["strong"]
        assert (strong["condition"], strong["verdict"]) == ("summable", "holds")
        if coeffs[0] == 0:
            assert strong["estimate"] == 1.0  # 2^-m and beyond vanish next to W(1)^-1 = 1

    @staticmethod
    def verdicts(out):
        return {name: check["verdict"] for name, check in json.loads(out)["checks"].items()}

    @pytest.mark.parametrize("coeffs", [[0, 0, 1e160], [0, 0, 1e200], [1e-300, 0, 1e-300]],
                             ids=["1e160 n^2", "1e200 n^2", "1e-300 (n^2+1)"])
    def test_scaled_n2_checks_like_n2(self, tmp_path, capsys, coeffs):
        # the tail of W^-2 is integrated as (W / a_m)^-2, so a_m^2 beyond float range does not matter
        rc, out, _ = self.run(tmp_path, capsys, {"kind": "polynomial", "coeffs": coeffs}, 10_000)
        assert rc == 0
        assert self.verdicts(out) == self.verdicts(self.run(tmp_path, capsys, N2_JSON, 10_000)[1])
        if coeffs[:2] == [0, 0]:
            estimate = json.loads(out)["checks"]["strong"]["estimate"]
            assert estimate == pytest.approx(math.pi**2 / 6 / coeffs[2], rel=1e-12, abs=0.0)


class TestTableWithoutTail:
    """``{(n+1)^2 : n < 12}``: every command runs as far as its entries reach."""

    T3 = {"kind": "table", "table": [1, 4, 9, 16, 25, 36, 49, 64, 81, 100, 121, 144]}

    def test_simulate_equals_run_0_of_the_ensemble(self, tmp_path):
        seq = TestNoTraceback.write(tmp_path, "t3.json", self.T3)
        cfg = mc_config(tmp_path, seq=self.T3, n_steps=3, n_runs=2, record_every=1, seed=1)
        assert main(["mc", "--config", str(cfg), "--out", str(tmp_path / "rep.json"), "--runs-csv"]) == 0
        run_0 = (tmp_path / "rep.runs.csv").read_text().splitlines()[1].split(",")
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--model", "ium", "--seq", seq, "--p", "0.2", "--steps", "3",
                     "--seed", run_0[1], "--out", str(out)]) == 0
        assert out.read_text().splitlines()[-1].split(",")[1:] == run_0[3:]

    def test_simulate_and_mc_exit_alike_at_every_seed(self, tmp_path, capsys):
        # on {(n+1)^2 : n < 60} the pooled totals of 27 steps reach W(58), those of 40 steps W(84)
        t60 = {"kind": "table", "table": [(n + 1) ** 2 for n in range(60)]}
        seq = TestNoTraceback.write(tmp_path, "t60.json", t60)
        for steps, code in ((27, 0), (40, 2)):
            cfg = mc_config(tmp_path, seq=t60, p=0.0, n_steps=steps, n_runs=2, record_every=1, seed=1)
            assert main(["mc", "--config", str(cfg), "--out", str(tmp_path / "rep.json")]) == code
            for seed in range(12):
                assert main(["simulate", "--model", "ium", "--seq", seq, "--p", "0", "--steps", str(steps),
                             "--record-every", "1", "--seed", str(seed), "--out", str(tmp_path / "traj.csv")]) == code
        assert "W(60) is outside the table of 60 values" in capsys.readouterr().err

    def test_embed_test(self, tmp_path):
        seq = TestNoTraceback.write(tmp_path, "t3.json", self.T3)
        assert main(["embed-test", "--nc", "2", "--a", "1,1", "--d", "2", "--seq", seq, "--k", "3",
                     "--samples", "200", "--seed", "1", "--out", str(tmp_path / "e.json")]) == 0

    def test_check_w_names_the_index_past_the_table(self, tmp_path, capsys):
        # the variation check reads W(horizon + 1), so 10 is the largest horizon that runs
        seq = TestNoTraceback.write(tmp_path, "t3.json", self.T3)
        assert main(["check-w", "--seq", seq, "--horizon", "10"]) == 0
        capsys.readouterr()
        assert main(["check-w", "--seq", seq, "--horizon", "11"]) == 2
        assert "W(12) is outside the table of 12 values" in capsys.readouterr().err
