import hashlib
import math

import numpy as np
import pytest

from urnfield import embedding as emb, ensembles as ens, meanfield as mf, reinforcement as rf, urns
from urnfield.seeds import derive_seed

N2 = rf.make_polynomial([0, 0, 1])
N3 = rf.make_polynomial([0, 0, 0, 1])


def small_config(**over):
    base = dict(
        model="ium", seq=N2, p=0.2 if over.get("model", "ium") == "ium" else 0.0, d=2, black0=(1, 1), red0=(1, 1),
        n_steps=2_000, n_runs=40, record_every=100, seed=7,
    )
    base.update(over)
    return ens.EnsembleConfig(**base)


class TestWilson:
    def test_zero_successes(self):
        lo, hi = ens.wilson_interval(0, 100)
        assert lo == 0.0
        assert hi == pytest.approx(0.036994, abs=1e-5)

    def test_symmetric_at_half(self):
        lo, hi = ens.wilson_interval(50, 100)
        assert lo + hi == pytest.approx(1.0, abs=1e-12)

    def test_full_successes(self):
        lo, hi = ens.wilson_interval(100, 100)
        assert hi == 1.0
        assert lo > 0.9

    def test_contained_in_unit_interval(self):
        for s, n in [(1, 3), (2, 7), (5, 5), (0, 1)]:
            lo, hi = ens.wilson_interval(s, n)
            assert 0.0 <= lo <= hi <= 1.0

    def test_z_is_the_normal_quantile_to_the_bit(self):
        from scipy import special

        assert ens._Z95 == float(special.ndtri(0.975))

    def test_bits_on_a_grid(self):
        # sha256 of the intervals as computed with z = scipy.special.ndtri(0.975)
        grid = [(s, n) for n in (1, 2, 3, 7, 12, 40, 100, 999, 10_000)
                for s in sorted({0, 1, n // 3, n // 2, n - 1, n})]
        got = np.array([ens.wilson_interval(s, n) for s, n in grid]).tobytes()
        assert hashlib.sha256(got).hexdigest() == "691e3b5573a13de97eddc3d755de0439e8b9c3d3b112a78b049b56ec995107b8"

    def test_validation(self):
        with pytest.raises(ValueError):
            ens.wilson_interval(5, 3)
        with pytest.raises(ValueError):
            ens.wilson_interval(1, 0)


class TestConfig:
    def test_roundtrip(self):
        cfg = small_config()
        assert ens.EnsembleConfig.from_json(cfg.to_json()) == cfg

    def test_unknown_field_rejected(self):
        blob = small_config().to_json()
        blob["surprise"] = 1
        with pytest.raises(ValueError):
            ens.EnsembleConfig.from_json(blob)

    def test_threads_field_rejected(self):
        blob = small_config().to_json()
        assert "threads" not in blob
        blob["threads"] = 1
        with pytest.raises(ValueError, match="threads"):
            ens.EnsembleConfig.from_json(blob)

    def test_missing_field_rejected(self):
        blob = small_config().to_json()
        del blob["seed"]
        with pytest.raises(ValueError):
            ens.EnsembleConfig.from_json(blob)

    def test_schema_version_enforced(self):
        blob = small_config().to_json()
        blob["schema"] = 2
        with pytest.raises(ValueError):
            ens.EnsembleConfig.from_json(blob)

    def test_field_validation(self):
        with pytest.raises(ValueError):
            small_config(n_runs=0)
        with pytest.raises(ValueError):
            small_config(radius=0.7)
        with pytest.raises(ValueError):
            small_config(window=5_000)
        with pytest.raises(ValueError):
            small_config(model="polya")

    def test_sequential_model_runs_two_urns(self):
        with pytest.raises(ValueError, match=r"\bd\b"):
            small_config(model="sequential", d=3)
        assert small_config(model="sequential", d=2).d == 2

    @pytest.mark.parametrize("model", ["multicolor", "sequential", "embedding"])
    def test_models_that_ignore_p_reject_it(self, model):
        with pytest.raises(ValueError, match=r"\bp\b"):
            small_config(model=model, p=0.7)
        assert small_config(model=model, p=0.0).p == 0.0

    def test_default_window_is_a_fifth(self):
        assert ens.run_ensemble(small_config(n_runs=1)).window == 400
        assert ens.run_ensemble(small_config(n_runs=1, window=123)).window == 123


class TestRunEnsemble:
    def test_trivial_single_run(self):
        rep = ens.run_ensemble(small_config(n_runs=1, n_steps=0, window=None))
        assert rep.unresolved == 1
        assert rep.monopoly_counts["none"] == 1

    def test_partition_invariant(self):
        rep = ens.run_ensemble(small_config(n_runs=60))
        assert sum(c.count for c in rep.cells) + rep.unresolved == 60

    def test_reproducible(self):
        r1 = ens.run_ensemble(small_config())
        r2 = ens.run_ensemble(small_config())
        assert r1.to_json() == r2.to_json()
        assert r1.run_rows == r2.run_rows

    def test_run_ranges_reproduce_the_ensemble(self):
        whole = ens.run_ensemble(small_config(n_runs=30))
        head = ens.run_ensemble(small_config(n_runs=15))
        tail = ens.run_ensemble(small_config(n_runs=15, run_offset=15))
        assert head.run_rows + tail.run_rows == whole.run_rows

    def test_disjoint_ranges_are_independent(self):
        r1 = ens.run_ensemble(small_config(n_runs=120, n_steps=500))
        r2 = ens.run_ensemble(small_config(n_runs=120, n_steps=500, run_offset=120))
        a = np.array([row[3] for row in r1.run_rows])
        b = np.array([row[3] for row in r2.run_rows])
        seeds1 = {row[1] for row in r1.run_rows}
        seeds2 = {row[1] for row in r2.run_rows}
        assert not seeds1 & seeds2  # no stream reuse
        c = np.corrcoef(a, b)[0, 1]
        assert abs(c) < 4.0 / math.sqrt(len(a))

    def test_supplied_equilibria_validated(self):
        eqs = mf.find_equilibria(mf.ModelParams(2, 0.4))
        with pytest.raises(ValueError):
            ens.run_ensemble(small_config(p=0.2), equilibria=eqs)

    def test_supplied_equilibria_accepted(self):
        eqs = mf.find_equilibria(mf.ModelParams(2, 0.2))
        rep = ens.run_ensemble(small_config(p=0.2), equilibria=eqs)
        assert sum(c.count for c in rep.cells) + rep.unresolved == 40

    def test_multicolor_model(self):
        cfg = ens.EnsembleConfig(
            model="multicolor", seq=N3, nc=3, a=(1, 1, 1), d=2,
            n_steps=3_000, n_runs=30, record_every=150, seed=11,
        )
        rep = ens.run_ensemble(cfg)
        assert sum(c.count for c in rep.cells) + rep.unresolved == 30
        assert set(rep.monopoly_counts) == {"color0", "color1", "color2", "none"}
        # strong reinforcement at p=1 monopolizes quickly
        assert rep.monopoly_frequency > 0.8

    def test_sequential_model(self):
        cfg = ens.EnsembleConfig(
            model="sequential", seq=N2, black0=(1, 1), red0=(1, 1),
            n_steps=400, n_runs=8, record_every=40, seed=13,
        )
        rep = ens.run_ensemble(cfg)
        assert sum(c.count for c in rep.cells) + rep.unresolved == 8

    def test_sequential_monopolies_do_not_depend_on_record_every(self):
        # verdicts come from each run's exact last-change step, not from
        # the recorded samples
        counts = [
            ens.run_ensemble(ens.EnsembleConfig(
                model="sequential", seq=rf.make_polynomial([0, 1]), n_steps=1_000, n_runs=200,
                window=150, record_every=every, seed=3,
            )).monopoly_counts
            for every in (1, 100)
        ]
        assert counts[0] == counts[1]
        assert counts[0]["red"] > 0

    def test_embedding_model(self):
        cfg = ens.EnsembleConfig(
            model="embedding", seq=N2, nc=2, a=(1, 1), d=2,
            n_steps=150, n_runs=6, record_every=15, seed=17,
        )
        rep = ens.run_ensemble(cfg)
        assert sum(c.count for c in rep.cells) + rep.unresolved == 6

    def test_embedding_runs_are_standalone_runs(self):
        cfg = ens.EnsembleConfig(
            model="embedding", seq=N2, nc=2, a=(1, 1), d=2,
            n_steps=150, n_runs=4, record_every=15, seed=17, run_offset=3,
        )
        rep = ens.run_ensemble(cfg)
        for i, row in enumerate(rep.run_rows):
            st = emb.init_embedding(2, (1, 1), 2, N2, seed=derive_seed(17, 3 + i))
            for _ in range(150 * 2):
                emb.advance_to_next_jump(st)
            assert row[:2] == (3 + i, derive_seed(17, 3 + i))
            assert list(row[3:]) == (st.z / st.z.sum()).tolist()


class TestMonopolyEstimate:
    def test_strong_weights_monopolize(self):
        cfg = ens.EnsembleConfig(
            model="multicolor", seq=N3, nc=2, a=(1, 1), d=2,
            n_steps=5_000, n_runs=60, record_every=250, seed=19,
        )
        est = ens.estimate_monopoly_prob(cfg)
        assert est.frequency > 0.9
        assert est.ci[0] > 0.5

    def test_linear_weights_do_not(self):
        lin = rf.make_polynomial([0, 1])
        cfg = ens.EnsembleConfig(
            model="multicolor", seq=lin, nc=2, a=(1, 1), d=2,
            n_steps=5_000, n_runs=40, record_every=250, seed=23,
        )
        est = ens.estimate_monopoly_prob(cfg)
        assert est.frequency < 0.1


    @pytest.mark.parametrize("model, seq, init", [
        ("ium", N2, lambda seq, seed: urns.init_ium(2, (1, 1), (1, 1), 0.5, seq, seed)),
        ("sequential", rf.make_polynomial([0, 1]), lambda seq, seed: urns.init_sequential((1, 1), (1, 1), seq, seed)),
        ("multicolor", N2, lambda seq, seed: urns.init_multicolor(3, (1, 1, 1), 2, seq, seed)),
    ])
    def test_verdicts_match_single_runs(self, model, seq, init):
        cfg = small_config(model=model, seq=seq, p=0.5 if model == "ium" else 0.0, nc=3, a=(1, 1, 1),
                           n_steps=1_000, n_runs=30, seed=5)
        rep = ens.run_ensemble(cfg)
        labels = [urns.detect_monopoly(urns.run(init(seq, derive_seed(5, i)), 1_000, 100), rep.window)
                  for i in range(cfg.n_runs)]
        assert rep.monopoly_counts == {name: labels.count(name) for name in rep.monopoly_counts}
        assert len(set(labels)) > 1


class TestScan:
    def test_curve_shape_and_crossing(self):
        per_point = small_config(n_runs=30, n_steps=2_000)
        curve = ens.scan_p(2, [0.1, 0.48], per_point, threshold=0.9)
        assert len(curve.frequencies) == 2
        assert all(0 <= f <= 1 for f in curve.frequencies)
        assert curve.frequencies[1] > curve.frequencies[0]
        blob = curve.to_json()
        assert blob["threshold"] == 0.9

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            ens.scan_p(2, [], small_config())

    def test_rejects_weights_not_of_degree_m(self):
        for seq in (rf.make_exponential(2.0), N2):
            per_point = small_config(seq=seq, n_runs=5, n_steps=200)
            with pytest.raises(ValueError, match="degree-3"):
                ens.scan_p(3, [0.2], per_point)

    @pytest.mark.parametrize("grid, threshold", [
        ([0.3, 1.7], 0.9), ([0.3, -0.1], 0.9), ([0.3], 7.0), ([0.3], 0.0), ([0.3], math.nan),
    ])
    def test_rejects_a_grid_or_threshold_out_of_range_before_any_ensemble(self, monkeypatch, grid, threshold):
        ran = []
        monkeypatch.setattr(ens, "run_ensemble", lambda config: ran.append(config.p))
        with pytest.raises(ValueError, match=r"grid must be in \[0, 1\]|threshold must be in \(0, 1\]"):
            ens.scan_p(2, grid, small_config(), threshold)
        assert ran == []

    def test_rejects_models_other_than_ium(self):
        for model in ("multicolor", "sequential", "embedding"):
            per_point = small_config(model=model, nc=3, a=(1, 1, 1), n_runs=5, n_steps=100)
            with pytest.raises(ValueError, match="ium"):
                ens.scan_p(2, [0.3], per_point)
