"""The exact JSON and CSV that records and configs are written as."""

import csv
import io

import numpy as np
from hypothesis import given, strategies as st

from urnfield import embedding, ensembles, meanfield
from urnfield.formats import csv_bytes
from urnfield.reinforcement import ConditionVerdict, make_polynomial

N2 = make_polynomial([0, 0, 1])


def config(**over):
    return ensembles.EnsembleConfig(model="ium", seq=N2, n_steps=10, n_runs=4, seed=3, **over)


CONFIG_JSON = {
    "schema": 1, "model": "ium", "seq": {"kind": "polynomial", "coeffs": [0.0, 0.0, 1.0]},
    "n_steps": 10, "n_runs": 4, "seed": 3, "p": 0.0, "d": 2, "black0": [1, 1], "red0": [1, 1],
    "nc": 2, "a": [1, 1], "record_every": 100, "radius": 0.05, "window": None, "run_offset": 0,
}


class TestRecordJson:
    def test_condition_verdict(self):
        v = ConditionVerdict("summable", 1000, 1.5, "holds")
        assert v.to_json() == {"condition": "summable", "horizon": 1000, "estimate": 1.5, "verdict": "holds"}

    def test_equilibrium_writes_stability_as_class(self):
        e = meanfield.Equilibrium(0.5, 0.25, 1e-12, -2.0, -1.0, "strictly_stable", "exact_known")
        assert e.to_json() == {"x": 0.5, "y": 0.25, "residual": 1e-12, "lambda_minus": -2.0,
                               "lambda_plus": -1.0, "class": "strictly_stable", "provenance": "exact_known"}

    def test_law_test_report_writes_nested_tuples_as_lists(self):
        rep = embedding.LawTestReport("chi_square", 0.5, 1, 0.48, 100, 200, ((0, 3), ("pooled",)), (40, 60),
                                      (90, 110))
        assert rep.to_json() == {"method": "chi_square", "statistic": 0.5, "dof": 1, "p_value": 0.48,
                                 "n_a": 100, "n_b": 200, "categories": [[0, 3], ["pooled"]],
                                 "counts_a": [40, 60], "counts_b": [90, 110]}

    def test_cell_count(self):
        cell = ensembles.CellCount((1.0, 0.0), 3, 0.75, (0.3, 0.95), "stable")
        assert cell.to_json() == {"location": [1.0, 0.0], "count": 3, "frequency": 0.75, "ci": [0.3, 0.95],
                                  "stability": "stable"}

    def test_monopoly_estimate(self):
        est = ensembles.MonopolyEstimate(0.5, (0.2, 0.8), {"black": 1, "red": 1, "none": 2}, 2, 4)
        assert est.to_json() == {"frequency": 0.5, "ci": [0.2, 0.8], "by_color": {"black": 1, "red": 1, "none": 2},
                                 "window": 2, "n_runs": 4}

    def test_ensemble_config_round_trips(self):
        assert config().to_json() == CONFIG_JSON
        assert ensembles.EnsembleConfig.from_json(CONFIG_JSON) == config()

    def test_mc_report_adds_n_runs_and_leaves_out_run_data(self):
        cell = ensembles.CellCount((0.0, 0.0), 4, 1.0, (0.5, 1.0))
        report = ensembles.McReport(config(), [cell], 0, {"black": 4, "red": 0, "none": 0}, 1.0, (0.5, 1.0),
                                    4, 1.0, (0.5, 1.0), 2, run_rows=[(0, 1, "x", 0.0)], runtime_s=1.5,
                                    run_steps_screened=30, run_steps_exact=10)
        assert report.to_json() == {
            "config": CONFIG_JSON, "n_runs": 4, "cells": [cell.to_json()], "unresolved": 0,
            "monopoly_counts": {"black": 4, "red": 0, "none": 0}, "monopoly_frequency": 1.0,
            "monopoly_ci": [0.5, 1.0], "domination_count": 4, "domination_frequency": 1.0,
            "domination_ci": [0.5, 1.0], "window": 2,
        }

    def test_phase_curve_writes_frequencies_as_domination_frequencies(self):
        curve = ensembles.PhaseCurve(2, [0.1, 0.5], [0.0, 1.0], [(0.0, 0.4), (0.6, 1.0)], 0.99, 0.5)
        assert curve.to_json() == {"m": 2, "p_grid": [0.1, 0.5], "domination_frequencies": [0.0, 1.0],
                                   "cis": [[0.0, 0.4], [0.6, 1.0]], "threshold": 0.99, "threshold_crossing": 0.5}


class TestJumpLog:
    def test_exact_text(self, tmp_path):
        state = embedding.init_embedding(2, (1, 2), 2, N2, seed=1)
        state.jump_log = [embedding.JumpEvent(0.5, 0, (2, 2), False), embedding.JumpEvent(1 / 3, 1, (2, 3), True),
                          embedding.JumpEvent(2.0, 1, (2, 4), False)]
        path = tmp_path / "log.csv"
        embedding.save_jump_log(state, path)
        assert path.read_bytes() == (b"jump_index,tau,edge,Z_1,Z_2,refresh_flag\n"
                                     b"1,0.5,1,2,2,0\n2,0.33333333333333331,2,2,3,1\n3,2,2,2,4,0\n")


def csv_module_bytes(header, rows) -> bytes:
    """The reference for ``csv_bytes``: every row through csv.writer, floats
    pre-formatted to 17 significant digits."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows([format(v, ".17g") if isinstance(v, float) else v for v in row] for row in rows)
    return buf.getvalue().encode()


class TestCsvBytes:
    ROWS = [
        (0, 0.1, 1e-320, -0.0),
        (-7, float("nan"), float("inf"), float("-inf")),
        (2**70, 1e300, -2.5e-8, 1.0),
        (True, False, 3, 0.5),  # a bool is an int that csv writes as True
        (1, "a,b", 'say "hi"', None),
        (np.int64(4), np.float64(0.1), np.float32(0.1), 5),
        (),
        [3, 0.25],
        (1, 2, 3, 4),
    ]

    def test_matches_the_csv_module(self):
        header = ["a", "b", "c", "d"]
        assert csv_bytes(header, self.ROWS) == csv_module_bytes(header, self.ROWS)
        assert csv_bytes(header, iter(self.ROWS)) == csv_module_bytes(header, self.ROWS)

    @given(st.lists(st.lists(st.one_of(st.integers(), st.floats(), st.booleans(), st.text()), max_size=5),
                    max_size=20))
    def test_matches_the_csv_module_on_any_cells(self, rows):
        assert csv_bytes(["x"], rows) == csv_module_bytes(["x"], rows)
