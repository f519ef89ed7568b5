import json

import pytest

from urnfield import urns
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

    def test_unknown_config_field(self, tmp_path):
        path = mc_config(tmp_path)
        blob = json.loads(path.read_text())
        blob["typo"] = True
        path.write_text(json.dumps(blob))
        assert main(["mc", "--config", str(path)]) == 2

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

    def test_coupled_violations_column(self, tmp_path):
        out = tmp_path / "c.csv"
        rc = main(["simulate", "--model", "coupled", "--m", "2", "--p", "0.4",
                   "--steps", "500", "--seed", "3", "--record-every", "100",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "step,x_1,x_2,seq_x_1,seq_x_2,violations"
        assert lines[-1].endswith(",0")

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
        argv = ["simulate", "--model", model, "--m", "3", "--p", "0.2", "--steps", "300",
                "--record-every", "25", "--seed", "7", "--out", str(out)]
        assert main(argv + (["--counts"] if counts else [])) == 0
        traj = urns.run(init(make_polynomial([0, 0, 0, 1])), 300, 25, record_counts=counts)
        ref = tmp_path / "ref.csv"
        traj.to_csv(ref, "counts" if counts else "proportions")
        assert out.read_bytes() == ref.read_bytes()

    def test_missing_weights(self):
        assert main(["simulate", "--model", "ium", "--steps", "10", "--seed", "1"]) == 2


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
