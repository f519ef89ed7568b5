import math

import numpy as np
import pytest

from urnfield import reinforcement as rf, urns
from urnfield.seeds import derive_seed

N2 = rf.make_polynomial([0, 0, 1])
N3 = rf.make_polynomial([0, 0, 0, 1])


class TestInit:
    def test_basic(self):
        st = urns.init_ium(2, (1, 1), (1, 1), 0.3, N2, seed=1)
        assert st.n == 0
        assert np.allclose(urns.proportions(st), [0.5, 0.5])

    def test_empty_color_rejected_when_w0_zero(self):
        with pytest.raises(ValueError):
            urns.init_ium(2, (0, 0), (1, 1), 0.3, N2, seed=1)

    def test_empty_urn_rejected_when_w0_zero(self):
        with pytest.raises(ValueError):
            urns.init_ium(2, (0, 0), (0, 2), 0.3, N2, seed=1)

    def test_zero_counts_fine_with_positive_w0(self):
        seq = rf.make_polynomial([1, 0, 1])
        st = urns.init_ium(2, (0, 0), (0, 0), 0.5, seq, seed=1)
        assert st.total_black == 0

    def test_totals(self):
        st = urns.init_ium(5, (1, 2, 0, 4, 1), (2, 1, 1, 0, 3), 0.2, N2, seed=9)
        assert st.total_black == 8
        assert st.total_red == 7

    def test_param_validation(self):
        with pytest.raises(ValueError):
            urns.init_ium(0, (), (), 0.3, N2, seed=1)
        with pytest.raises(ValueError):
            urns.init_ium(2, (1, 1), (1, 1), 1.5, N2, seed=1)
        with pytest.raises(ValueError):
            urns.init_ium(2, (1,), (1, 1), 0.3, N2, seed=1)


class TestStepProbabilities:
    def test_isolated_urn_probability(self):
        # p = 0, counts (3,1), W(n)=n^2: P(black) = 9/10; force uniforms
        st = urns.init_ium(1, (3,), (1,), 0.0, N2, seed=1)
        add = urns._step_ium_core(st, np.array([0.99, 0.8999]))
        assert add[0] == 1  # 0.8999 < 0.9
        st2 = urns.init_ium(1, (3,), (1,), 0.0, N2, seed=1)
        add2 = urns._step_ium_core(st2, np.array([0.99, 0.9001]))
        assert add2[0] == 0

    def test_full_interaction_uses_totals(self):
        # p = 1: urn-local counts are irrelevant, only totals matter
        st = urns.init_ium(2, (3, 0), (0, 1), 1.0, N2, seed=1)
        q = urns._prob_first(st.logw(st.total_black), st.logw(st.total_red))
        assert q == pytest.approx(9 / 10)
        add = urns._step_ium_core(st, np.array([0.0, 0.8999, 0.0, 0.8999]))
        assert add.tolist() == [1, 1]

    def test_synchronous_update(self):
        # both urns must see the step-n totals even after urn 1 updates
        st = urns.init_ium(2, (1, 1), (1, 1), 1.0, N2, seed=1)
        urns._step_ium_core(st, np.array([0.0, 0.0, 0.0, 0.49]))
        # totals were (2,2): P(black)=1/2 for both draws; second uniform
        # 0.49 < 0.5 so urn 2 also got black despite urn 1's update
        assert st.black.tolist() == [2, 2]

    def test_forced_monopoly(self):
        st = urns.init_ium(2, (1, 1), (1, 1), 0.5, N2, seed=1)
        for _ in range(50):
            urns._step_ium_core(st, np.array([0.9, 1e-12, 0.9, 1e-12]))
        assert st.total_red == 2  # frozen red counts: monopoly by definition
        assert st.total_black == 102

    def test_color_swap_symmetry(self):
        # swapped colors with complementary color-uniforms mirror exactly
        rng = np.random.default_rng(12)
        a = urns.init_ium(2, (2, 1), (1, 3), 0.35, N2, seed=1)
        b = urns.init_ium(2, (1, 3), (2, 1), 0.35, N2, seed=1)
        for _ in range(300):
            us = rng.random(4)
            swapped = us.copy()
            swapped[1] = 1.0 - us[1]
            swapped[3] = 1.0 - us[3]
            urns._step_ium_core(a, us)
            urns._step_ium_core(b, swapped)
        assert a.black.tolist() == b.red.tolist()
        assert a.red.tolist() == b.black.tolist()

    def test_independence_at_p_zero(self):
        # constant weights keep the draws non-degenerate (strong reinforcement
        # would freeze each urn onto one color, leaving nothing to correlate)
        flat = rf.make_table([1.0], rf.TailRule((rf.ConstBranch(1.0),)))
        st = urns.init_ium(2, (1, 1), (1, 1), 0.0, flat, seed=77)
        draws = np.empty((20_000, 2), dtype=np.int64)
        for k in range(draws.shape[0]):
            before = st.black.copy()
            urns.step_ium(st)
            draws[k] = st.black - before
        c = np.corrcoef(draws[:, 0], draws[:, 1])[0, 1]
        assert abs(c) < 3.0 / math.sqrt(draws.shape[0])


class TestLogSpaceClip:
    GAPS = (709.0, 709.8, 720.0, 745.0, 746.0)

    @pytest.mark.parametrize("gap", GAPS)
    def test_scalar_matches_lockstep_beyond_exp_range(self, gap):
        # math.exp overflows above log(max float) ~ 709.78, np.exp gives inf
        for log_a, log_b in ((0.0, gap), (gap, 0.0), (3.5, 3.5 + gap), (3.5 + gap, 3.5)):
            q = urns._prob_first(log_a, log_b)
            assert q == float(urns._vec_prob(np.array([log_a]), np.array([log_b]))[0])
        assert urns._prob_first(0.0, gap) < 1e-300


class TestConservation:
    @pytest.mark.parametrize("p", [0.0, 0.4, 1.0])
    def test_counts_conserved(self, p):
        st = urns.init_ium(3, (1, 2, 1), (1, 1, 2), p, N3, seed=5)
        for _ in range(500):
            urns.step_ium(st)
        assert np.all(st.black + st.red == st.initial_totals + st.n)
        assert st.total_black + st.total_red == 3 * st.n + 8


class TestRun:
    def test_zero_steps(self):
        st = urns.init_ium(2, (1, 1), (1, 1), 0.3, N2, seed=1)
        tr = urns.run(st, 0)
        assert tr.steps.tolist() == [0]
        assert tr.proportions.shape == (1, 2)

    def test_deterministic(self):
        t1 = urns.run(urns.init_ium(2, (1, 1), (1, 1), 0.3, N2, seed=42), 2000, 100)
        t2 = urns.run(urns.init_ium(2, (1, 1), (1, 1), 0.3, N2, seed=42), 2000, 100)
        assert np.array_equal(t1.proportions, t2.proportions)
        assert np.array_equal(t1.color_totals, t2.color_totals)

    def test_steps_strictly_increasing_and_final_included(self):
        st = urns.init_ium(2, (1, 1), (1, 1), 0.3, N2, seed=2)
        tr = urns.run(st, 1003, record_every=100)
        assert np.all(np.diff(tr.steps) > 0)
        assert tr.steps[-1] == 1003

    def test_proportions_in_unit_interval(self):
        st = urns.init_ium(2, (1, 1), (1, 1), 0.7, N3, seed=3)
        tr = urns.run(st, 3000, 50)
        assert tr.proportions.min() >= 0.0 and tr.proportions.max() <= 1.0

    @pytest.mark.parametrize(
        "make",
        [
            lambda seed: urns.init_ium(3, (1, 2, 1), (2, 1, 1), 0.4, N2, seed),
            lambda seed: urns.init_multicolor(3, (1, 1, 2), 2, N2, seed),
            lambda seed: urns.init_sequential((1, 2), (2, 1), N2, seed),
        ],
        ids=["ium", "multicolor", "sequential"],
    )
    def test_consecutive_runs_continue_one_stream(self, make):
        split, whole = make(8), make(8)
        urns.run(split, 150, 7)
        urns.run(split, 250, 7)
        urns.run(whole, 400, 7)
        for name in ("black", "red", "counts", "n", "substep"):
            if hasattr(whole, name):
                assert np.array_equal(getattr(split, name), getattr(whole, name))
        assert split.rng.bit_generator.state == whole.rng.bit_generator.state

    def test_csv_roundtrip(self, tmp_path):
        st = urns.init_ium(2, (1, 1), (1, 1), 0.3, N2, seed=2)
        tr = urns.run(st, 100, 10, record_counts=True)
        path = tmp_path / "t.csv"
        tr.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,x_1,x_2"
        assert len(lines) == len(tr.steps) + 1
        tr.to_csv(path, what="counts")
        assert path.read_text().splitlines()[0] == "step,c_1,c_2,c_3,c_4"


class TestDetectMonopoly:
    def _traj(self, totals, steps=None):
        totals = np.asarray(totals)
        steps = np.arange(totals.shape[0]) if steps is None else np.asarray(steps)
        return urns.Trajectory(
            steps=steps,
            proportions=np.zeros((totals.shape[0], 2)),
            color_totals=totals,
        )

    def test_black_when_red_frozen(self):
        totals = [(2, 2), (4, 2), (6, 2), (8, 2), (10, 2)]
        assert urns.detect_monopoly(self._traj(totals), window=2) == "black"

    def test_none_when_both_grow(self):
        totals = [(2, 2), (3, 3), (4, 4), (5, 5)]
        assert urns.detect_monopoly(self._traj(totals), window=2) == "none"

    def test_window_too_large(self):
        with pytest.raises(ValueError):
            urns.detect_monopoly(self._traj([(2, 2), (4, 2)]), window=5)

    def test_monotone_in_window(self):
        st = urns.init_ium(2, (1, 1), (1, 1), 0.6, N3, seed=8)
        tr = urns.run(st, 5000, 50)
        verdicts = [urns.detect_monopoly(tr, w) for w in (2000, 1000, 500)]
        if verdicts[0] != "none":
            assert verdicts[1] == verdicts[0]
            assert verdicts[2] == verdicts[0]

    def test_multicolor_label(self):
        totals = np.array([(1, 1, 1), (4, 1, 1), (7, 1, 1)])
        tr = urns.Trajectory(
            steps=np.array([0, 1, 2]),
            proportions=np.zeros((3, 3)),
            color_totals=totals,
        )
        assert urns.detect_monopoly(tr, window=1) == "color0"

    def test_exact_window_at_a_coarse_cadence(self):
        coarse = urns.run(urns.init_ium(2, (1, 1), (1, 1), 0.5, N2, seed=5), 1000, 300)
        fine = urns.run(urns.init_ium(2, (1, 1), (1, 1), 0.5, N2, seed=5), 1000, 1)
        assert coarse.last_change.tolist() == fine.last_change.tolist()
        assert urns.detect_monopoly(coarse, 200) == urns.detect_monopoly(fine, 200) == "black"
        # without last_change the recorded samples bound the window: 300..1000 here
        coarse.last_change = None
        assert urns.detect_monopoly(coarse, 200) == "none"

    @pytest.mark.parametrize("model", ["ium", "multicolor", "sequential"])
    def test_last_change_equals_ensemble_last_add(self, model):
        if model == "ium":
            raw = urns.run_ium_ensemble(N2, 0.3, 3, (1, 2, 1), (2, 1, 1), 500, 1, 31, 4, 70)
            st = urns.init_ium(3, (1, 2, 1), (2, 1, 1), 0.3, N2, seed=derive_seed(31, 4))
        elif model == "multicolor":
            raw = urns.run_multicolor_ensemble(N2, 3, (1, 1, 1), 2, 500, 1, 31, 4, 70)
            st = urns.init_multicolor(3, (1, 1, 1), 2, N2, seed=derive_seed(31, 4))
        else:
            raw = urns.run_sequential_ensemble(N2, (1, 2), (2, 1), 500, 1, 31, 4, 70)
            st = urns.init_sequential((1, 2), (2, 1), N2, seed=derive_seed(31, 4))
        assert urns.run(st, 500, 70).last_change.tolist() == raw.last_add[0].tolist()


class TestClassifyLimit:
    def _traj(self, props):
        props = np.asarray(props, dtype=float)
        return urns.Trajectory(
            steps=np.arange(props.shape[0]),
            proportions=props,
            color_totals=np.zeros((props.shape[0], 2), dtype=np.int64),
        )

    def test_corner(self):
        pts = [(0.0, 0.0), (1.0, 1.0)]
        props = [[0.5, 0.5]] * 10 + [[0.999, 0.999]] * 10
        assert urns.classify_limit(self._traj(props), pts, 0.05) == 1

    def test_oscillation_unresolved(self):
        pts = [(0.0, 0.0), (1.0, 1.0)]
        props = [[0.01, 0.01], [0.99, 0.99]] * 10
        assert urns.classify_limit(self._traj(props), pts, 0.05) is None

    def test_empty_list(self):
        with pytest.raises(ValueError):
            urns.classify_limit(self._traj([[0.5, 0.5]]), [], 0.05)


class TestMulticolor:
    def test_validation(self):
        with pytest.raises(ValueError):
            urns.init_multicolor(1, (1,), 1, N2, seed=1)
        with pytest.raises(ValueError):
            urns.init_multicolor(2, (0, 1), 1, N2, seed=1)  # W(0) = 0
        with pytest.raises(ValueError):
            urns.init_multicolor(3, (1, 1), 1, N2, seed=1)

    def test_total_growth(self):
        st = urns.init_multicolor(3, (1, 1, 1), 2, N2, seed=6)
        for _ in range(100):
            urns.step_multicolor(st)
        assert st.counts.sum() == 3 + 2 * 100

    def test_equal_counts_uniform_probs(self):
        st = urns.init_multicolor(4, (3, 3, 3, 3), 1, N3, seed=6)
        lw = np.array([st.logw(int(c)) for c in st.counts])
        probs = urns._color_probs(lw)
        assert np.allclose(probs, 0.25)

    def test_two_color_reduction_matches_full_interaction_urn(self):
        # nc=2, d=1 draws a black ball with the same pooled probability the
        # two-color mechanism at p=1 uses
        st = urns.init_multicolor(2, (3, 1), 1, N2, seed=1)
        lw = np.array([st.logw(int(c)) for c in st.counts])
        assert urns._color_probs(lw)[0] == pytest.approx(9 / 10)

    def test_forced_draw(self):
        st = urns.init_multicolor(3, (1, 1, 1), 2, N2, seed=1)
        urns._step_multicolor_core(st, np.array([1e-9, 1.0 - 1e-9]))
        assert st.counts.tolist() == [2, 1, 2]


class TestSequential:
    def test_first_substep_probability(self):
        st = urns.init_sequential((1, 1), (1, 1), N2, seed=2)
        q = urns._prob_first(st.logw(1), st.logw(2))
        assert q == pytest.approx(0.2)

    def test_forced_all_black_keeps_red_frozen(self):
        st = urns.init_sequential((1, 1), (1, 1), N2, seed=2)
        for _ in range(40):
            urns._step_sequential_core(st, 1e-12)
        assert st.red.sum() == 2
        assert st.substep == 40

    def test_alternation(self):
        st = urns.init_sequential((1, 1), (1, 1), N2, seed=2)
        urns._step_sequential_core(st, 0.5)
        assert st.black[1] + st.red[1] == 2  # urn 2 untouched on sub-step 1
        urns._step_sequential_core(st, 0.5)
        assert st.black.sum() + st.red.sum() == 6

    def test_second_substep_sees_updated_red_total(self):
        st = urns.init_sequential((1, 1), (1, 1), N2, seed=2)
        urns._step_sequential_core(st, 0.999)  # red to urn 1: red total 3
        q = urns._prob_first(st.logw(int(st.black[1])), st.logw(int(st.red.sum())))
        assert q == pytest.approx(1 / (1 + 9))  # W(1)=1 vs W(3)=9

    def test_run_macro_steps(self):
        st = urns.init_sequential((1, 1), (1, 1), N2, seed=3)
        tr = urns.run(st, 100, 10)
        assert st.substep == 200
        assert tr.steps[-1] == 100
        assert tr.proportions[-1].min() >= 0


class TestCoupled:
    def test_initial_equality(self):
        ti, ts, violations = urns.run_coupled((1, 1), (1, 1), 0.3, N2, seed=1, n_steps=0)
        assert violations == 0
        assert np.array_equal(ti.proportions[0], ts.proportions[0])

    def test_no_violations_across_seeds(self):
        for seed in range(5):
            _, _, violations = urns.run_coupled(
                (1, 1), (1, 1), 0.4, N2, seed=seed, n_steps=2000, record_every=2000
            )
            assert violations == 0

    def test_dominance_holds_pathwise(self):
        ti, ts, _ = urns.run_coupled((2, 1), (1, 2), 0.7, N2, seed=9, n_steps=3000, record_every=100)
        # sequential proportions never exceed the interacting ones
        assert np.all(ts.proportions <= ti.proportions + 1e-12)

    def test_decreasing_sequence_rejected(self):
        dec = rf.make_table([4, 3, 2, 1, 1, 1, 1, 1])
        with pytest.raises(ValueError):
            urns.run_coupled((1, 1), (1, 1), 0.3, dec, seed=1, n_steps=2)

    def test_ium_side_matches_standalone(self):
        ti, _, _ = urns.run_coupled((1, 1), (1, 1), 0.4, N2, seed=33, n_steps=500, record_every=50)
        st = urns.init_ium(2, (1, 1), (1, 1), 0.4, N2, seed=33)
        tr = urns.run(st, 500, 50)
        assert np.array_equal(ti.proportions, tr.proportions)


class TestEnsembleEngines:
    @pytest.mark.parametrize("p", [0.0, 0.4, 1.0])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_ium_matches_scalar_runs(self, d, p):
        black0, red0 = (1, 2, 1)[:d], (2, 1, 1)[:d]
        raw = urns.run_ium_ensemble(
            N2, p, d, black0, red0, 400, 6, master_seed=123, run_offset=2, record_every=40
        )
        for i in range(6):
            st = urns.init_ium(d, black0, red0, p, N2, seed=derive_seed(123, 2 + i))
            tr = urns.run(st, 400, 1)
            assert np.array_equal(raw.proportions[i], tr.proportions[raw.steps])
            assert np.array_equal(raw.final_counts[i], np.concatenate([st.black, st.red]))
            # last step at which some urn drew black (column 0) and red (column 1)
            grew = np.diff(tr.color_totals, axis=0) > 0
            last = [int(np.flatnonzero(grew[:, c])[-1]) + 1 if grew[:, c].any() else 0 for c in range(2)]
            assert raw.last_add[i].tolist() == last

    def test_multicolor_matches_scalar_runs(self):
        raw = urns.run_multicolor_ensemble(
            N3, 3, (1, 1, 1), 2, 300, 5, master_seed=55, run_offset=0, record_every=30
        )
        for i in range(5):
            st = urns.init_multicolor(3, (1, 1, 1), 2, N3, seed=derive_seed(55, i))
            urns.run(st, 300, 30)
            assert np.array_equal(raw.final_counts[i], st.counts)

    def test_last_add_tracks_monopoly(self):
        raw = urns.run_ium_ensemble(
            N3, 1.0, 2, (1, 1), (1, 1), 3000, 16, master_seed=9, record_every=300
        )
        # strong reinforcement at p=1: most runs freeze one color early
        frozen = (raw.last_add <= 3000 - 600).any(axis=1)
        assert frozen.mean() > 0.8

    @pytest.mark.parametrize("offset", [0, 15])
    @pytest.mark.parametrize("seq", [N2, rf.make_exponential(2.0)], ids=["n^2", "2^n"])
    def test_sequential_matches_scalar_runs(self, seq, offset):
        # under 2^n the pooled red count drifts through log-weight gaps
        # beyond math.exp's range (1024-1075 balls ahead of a black count)
        raw = urns.run_sequential_ensemble(
            seq, (1, 2), (2, 1), 1200, 5, master_seed=77, run_offset=offset, record_every=60
        )
        for i in range(5):
            st = urns.init_sequential((1, 2), (2, 1), seq, seed=derive_seed(77, offset + i))
            tr = urns.run(st, 1200, 1)
            assert np.array_equal(raw.proportions[i], tr.proportions[raw.steps])
            assert np.array_equal(raw.final_counts[i], np.concatenate([st.black, st.red]))
            grew = np.diff(tr.color_totals, axis=0) > 0
            last = [int(np.flatnonzero(grew[:, c])[-1]) + 1 if grew[:, c].any() else 0 for c in range(2)]
            assert raw.last_add[i].tolist() == last

    def test_exponential_weights_no_overflow(self):
        seq = rf.make_exponential(2.0)
        raw = urns.run_ium_ensemble(
            seq, 0.5, 2, (1, 1), (1, 1), 2000, 4, master_seed=3, record_every=500
        )
        assert np.isfinite(raw.proportions).all()
