import functools
import math
import operator

import numpy as np
import pytest

from urnfield import reinforcement as rf, urns
from urnfield.errors import ConditionViolation
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


class TestWholeCounts:
    """Every initial count must be a whole number; the first that is not is
    named, where ``int`` would have truncated it."""

    def test_ium(self):
        with pytest.raises(ValueError, match=r"whole numbers, got 1\.5"):
            urns.init_ium(2, (1.5, 1), (1, 1), 0.5, N2, seed=1)
        with pytest.raises(ValueError, match=r"got 0\.25"):
            urns.init_ium(2, (1, 1), (2, np.float64(0.25)), 0.5, N2, seed=1)
        assert urns.init_ium(2, (2.0, 1), (1, np.int32(1)), 0.5, N2, seed=1).black.tolist() == [2, 1]

    def test_sequential(self):
        with pytest.raises(ValueError, match=r"got 2\.9"):
            urns.init_sequential((2.9, 1), (1, 1), N2, seed=1)

    def test_multicolor(self):
        with pytest.raises(ValueError, match=r"got 1\.5"):
            urns.init_multicolor(3, (1, 1.5, 2.5), 2, N2, seed=1)
        with pytest.raises(ValueError, match="got 'a'"):
            urns.init_multicolor(2, ("a", 1), 2, N2, seed=1)

    def test_coupled(self):
        with pytest.raises(ValueError, match=r"got 1\.5"):
            urns.run_coupled((1.5, 1), (1, 1), 0.5, N2, 1, 10)

    def test_ensemble(self):
        with pytest.raises(ValueError, match=r"got 1\.5"):
            urns.run_ium_ensemble(N2, 0.5, 2, (1.5, 1), (1, 1), 10, 2, 1)


class TestEmptyStart:
    """An urn, or the multi-color urn, may start without balls when W(0) > 0;
    its step-0 proportion is undefined and recorded as NaN, without a
    warning (the suite turns RuntimeWarnings into errors)."""

    C3 = rf.make_polynomial([1, 3, 3, 1])

    @pytest.mark.parametrize(
        "init, nan_cols",
        [
            (lambda seq: urns.init_ium(1, (0,), (0,), 0.0, seq, 1), [0]),
            (lambda seq: urns.init_ium(2, (0, 2), (0, 1), 0.5, seq, 1), [0]),
            (lambda seq: urns.init_multicolor(2, (0, 0), 1, seq, 1), [0, 1]),
            (lambda seq: urns.init_sequential((0, 0), (0, 0), seq, 1), [0, 1]),
        ],
    )
    def test_run(self, init, nan_cols):
        tr = urns.run(init(self.C3), 40, 20)
        first = tr.proportions[0]
        assert np.isnan(first[nan_cols]).all()
        assert np.isfinite(np.delete(first, nan_cols)).all()
        assert np.isfinite(tr.proportions[1:]).all()

    def test_ensembles(self):
        from urnfield import embedding

        raws = [
            urns.run_ium_ensemble(self.C3, 0.0, 1, [0], [0], 1, 1, 0),
            urns.run_ium_ensemble(self.C3, 0.4, 2, (0, 0), (0, 0), 30, 4, 2, record_every=10),
            urns.run_multicolor_ensemble(self.C3, 2, (0, 0), 1, 30, 4, 2, record_every=10),
            urns.run_sequential_ensemble(self.C3, (0, 0), (0, 0), 30, 4, 2, record_every=10),
            embedding.run_embedding_ensemble(self.C3, 2, (0, 0), 1, 30, 4, 2, record_every=10),
        ]
        for raw in raws:
            assert np.isnan(raw.proportions[:, 0]).all()
            assert np.isfinite(raw.proportions[:, 1:]).all()

    def test_first_sequential_substep(self):
        # urn 0 gets its first ball on sub-step 1, still within step 0
        st = urns.init_sequential((0, 1), (0, 1), rf.make_polynomial([1, 2, 1]), seed=3)
        urns.step_sequential(st)
        assert st.black.tolist() == [1, 1] and st.red.tolist() == [0, 1]
        assert urns.sequential_proportions(st).tolist() == [1.0, 0.5]


def ium_step(st, us):
    """Step ``st`` once through its block stepper on the forced uniforms
    ``us``; returns the black increments."""
    before = st.black.copy()
    urns._ium_steps(st, [list(us)], st.n, [0, 0])
    return st.black - before


class TestStepProbabilities:
    def test_isolated_urn_probability(self):
        # p = 0, counts (3,1), W(n)=n^2: P(black) = 9/10; force uniforms
        st = urns.init_ium(1, (3,), (1,), 0.0, N2, seed=1)
        add = ium_step(st, [0.99, 0.8999])
        assert add[0] == 1  # 0.8999 < 0.9
        st2 = urns.init_ium(1, (3,), (1,), 0.0, N2, seed=1)
        add2 = ium_step(st2, [0.99, 0.9001])
        assert add2[0] == 0

    def test_full_interaction_uses_totals(self):
        # p = 1: urn-local counts are irrelevant, only totals matter
        st = urns.init_ium(2, (3, 0), (0, 1), 1.0, N2, seed=1)
        q = urns._prob_first(N2.log_value(st.total_black), N2.log_value(st.total_red))
        assert q == pytest.approx(9 / 10)
        add = ium_step(st, [0.0, 0.8999, 0.0, 0.8999])
        assert add.tolist() == [1, 1]

    def test_synchronous_update(self):
        # both urns must see the step-n totals even after urn 1 updates
        st = urns.init_ium(2, (1, 1), (1, 1), 1.0, N2, seed=1)
        ium_step(st, [0.0, 0.0, 0.0, 0.49])
        # totals were (2,2): P(black)=1/2 for both draws; second uniform
        # 0.49 < 0.5 so urn 2 also got black despite urn 1's update
        assert st.black.tolist() == [2, 2]

    def test_forced_monopoly(self):
        st = urns.init_ium(2, (1, 1), (1, 1), 0.5, N2, seed=1)
        for _ in range(50):
            ium_step(st, [0.9, 1e-12, 0.9, 1e-12])
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
            ium_step(a, us)
            ium_step(b, swapped)
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
        # math.exp overflows above log(max float) ~ 709.78, np.exp gives inf;
        # a zero weight (-inf) against a positive one needs no special case
        zero = -math.inf
        for log_a, log_b in ((0.0, gap), (gap, 0.0), (3.5, 3.5 + gap), (3.5 + gap, 3.5),
                             (zero, 0.0), (0.0, zero), (zero, 3.5)):
            q = urns._prob_first(log_a, log_b)
            assert q == float(urns._share(np.array([log_a]), np.array([log_b]))[0])
        assert urns._prob_first(0.0, gap) < 1e-300


class TestConservation:
    @pytest.mark.parametrize("p", [0.0, 0.4, 1.0])
    def test_counts_conserved(self, p):
        st = urns.init_ium(3, (1, 2, 1), (1, 1, 2), p, N3, seed=5)
        for _ in range(500):
            urns.step_ium(st)
        assert np.all(st.black + st.red == np.array((1, 2, 1)) + (1, 1, 2) + st.n)
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


class TestBlockSteppers:
    """``run`` steps whole sub-blocks of one run through the block steppers;
    with screening off, that must equal the lockstep kernel stepping the
    same run as one row, one step at a time, from the same stream."""

    SEQS = {
        "n^3": N3,
        "2^n": rf.make_exponential(2.0),
        "table W(0)=0": rf.make_table([0, 2, 1, 6], rf.TailRule((rf.PolyBranch((1, 2, 1)),))),
    }

    @pytest.fixture(autouse=True)
    def screening_off(self, monkeypatch):
        """Every screen of ``run`` fails without evaluating a bound, and no
        stretch is planned, so every step goes through the block stepper."""
        monkeypatch.setattr(urns, "_screen_of", lambda state: lambda u, leader, cuts: (
            np.zeros(len(u), dtype=bool), np.zeros(len(u), dtype=np.int64)))
        monkeypatch.setattr(urns, "_resolve", lambda *args: None)

    @staticmethod
    def kernel_path(seed, n_steps, per_step, n_colors, step):
        """Draw each step's ``per_step`` uniforms from the stream ``seed``
        starts and pass them as one row to ``step``, which returns the
        colors that grew; returns each color's last-change step and the
        stream."""
        rng = np.random.Generator(np.random.PCG64(seed))
        last = [0] * n_colors
        for t in range(1, n_steps + 1):
            for c in step(rng.random((1, per_step))):
                last[c] = t
        return last, rng

    @staticmethod
    def black_red_grew(add):
        """The colors that grew in a one-row step with black increments ``add``."""
        return [c for c, grew in enumerate((add.any(), (add == 0).any())) if grew]

    @staticmethod
    def one_at_a_time(state, n_steps, step, totals):
        """Step ``state`` with ``step``; returns each color's last-change step."""
        last = [0, 0]
        for t in range(1, n_steps + 1):
            before = totals(state)
            step(state)
            for c, (a, b) in enumerate(zip(before, totals(state))):
                if b > a:
                    last[c] = t
        return last

    @pytest.mark.parametrize("seq", SEQS.values(), ids=SEQS.keys())
    @pytest.mark.parametrize("d, p", [(1, 0.0), (2, 0.2), (3, 0.6)])
    @pytest.mark.parametrize("seed", [1, 7])
    def test_ium(self, seq, d, p, seed):
        blocked = urns.init_ium(d, (1,) * d, (2,) * d, p, seq, seed)
        tr = urns.run(blocked, 1000, 100)
        black, red = np.ones((1, d), dtype=np.int64), np.full((1, d), 2)
        logw = rf.log_weight_table(seq, 3 * d + d * 1000)
        last, rng = self.kernel_path(
            seed, 1000, 2 * d, 2, lambda u: self.black_red_grew(urns._ium_step(black, red, logw, p, u))
        )
        assert tr.run_steps_screened == 0
        assert blocked.black.tolist() == black[0].tolist()
        assert blocked.red.tolist() == red[0].tolist()
        assert blocked.n == 1000
        assert tr.last_change.tolist() == last
        assert blocked.rng.bit_generator.state == rng.bit_generator.state

    @pytest.mark.parametrize("seq", SEQS.values(), ids=SEQS.keys())
    @pytest.mark.parametrize("nc, d", [(2, 1), (3, 2), (9, 3)])
    @pytest.mark.parametrize("seed", [1, 7])
    def test_multicolor(self, seq, nc, d, seed):
        a = [1 + c % 2 for c in range(nc)]
        blocked = urns.init_multicolor(nc, a, d, seq, seed)
        tr = urns.run(blocked, 1000, 100)
        counts = np.array([a])
        logw = rf.log_weight_table(seq, sum(a) + d * 1000)
        last, rng = self.kernel_path(
            seed, 1000, d, nc, lambda u: np.flatnonzero(urns._multicolor_step(counts, logw, u)[0])
        )
        assert tr.run_steps_screened == 0
        assert blocked.counts.tolist() == counts[0].tolist()
        assert blocked.n == 1000
        assert tr.last_change.tolist() == last
        assert blocked.rng.bit_generator.state == rng.bit_generator.state

    @pytest.mark.parametrize("seq", SEQS.values(), ids=SEQS.keys())
    @pytest.mark.parametrize("odd", [False, True], ids=["urn 0 first", "urn 1 first"])
    def test_sequential(self, seq, odd):
        blocked = urns.init_sequential((1, 2), (2, 1), seq, 5)
        if odd:
            urns.step_sequential(blocked)
        tr = urns.run(blocked, 1000, 100)
        if odd:
            # the kernel starts every step at urn 0: step one sub-step at a time
            single = urns.init_sequential((1, 2), (2, 1), seq, 5)
            urns.step_sequential(single)

            def macro_step(s):
                urns.step_sequential(s)
                urns.step_sequential(s)

            last = self.one_at_a_time(single, 1000, macro_step, lambda s: (int(s.black.sum()), int(s.red.sum())))
            black, red, rng = single.black, single.red, single.rng
        else:
            black, red = np.array([[1, 2]]), np.array([[2, 1]])
            logw = rf.log_weight_table(seq, 6 + 2 * 1000)
            last, rng = self.kernel_path(
                5, 1000, 2, 2, lambda u: self.black_red_grew(urns._sequential_step(black, red, logw, u))
            )
            black, red = black[0], red[0]
        assert blocked.black.tolist() == black.tolist()
        assert blocked.red.tolist() == red.tolist()
        assert blocked.substep == 2000 + odd
        assert tr.last_change.tolist() == last
        assert blocked.rng.bit_generator.state == rng.bit_generator.state


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
        # four equal weights cut [0, 1) at 1/4, 1/2 and 3/4
        st = urns.init_multicolor(4, (3, 3, 3, 3), 6, N3, seed=6)
        us = [0.25 - 1e-12, 0.25 + 1e-12, 0.5 - 1e-12, 0.5 + 1e-12, 0.75 - 1e-12, 0.75 + 1e-12]
        urns._multicolor_steps(st, [us], 0, [0] * 4)
        assert st.counts.tolist() == [4, 5, 5, 4]

    def test_two_color_reduction_matches_full_interaction_urn(self):
        # nc=2 draws color 0 with the probability 9/10 the two-color
        # mechanism at p=1 gives black from the same pooled counts
        st = urns.init_multicolor(2, (3, 1), 2, N2, seed=1)
        urns._multicolor_steps(st, [[0.8999, 0.9001]], 0, [0, 0])
        assert st.counts.tolist() == [4, 2]
        ium = urns.init_ium(2, (3, 0), (0, 1), 1.0, N2, seed=1)
        assert ium_step(ium, (0.0, 0.8999, 0.0, 0.9001)).tolist() == [1, 0]

    def test_forced_draw(self):
        st = urns.init_multicolor(3, (1, 1, 1), 2, N2, seed=1)
        urns._multicolor_steps(st, [[1e-9, 1.0 - 1e-9]], 0, [0] * 3)
        assert st.counts.tolist() == [2, 1, 2]


class TestSequential:
    def test_first_substep_probability(self):
        st = urns.init_sequential((1, 1), (1, 1), N2, seed=2)
        q = urns._prob_first(N2.log_value(1), N2.log_value(2))
        assert q == pytest.approx(0.2)

    def test_forced_all_black_keeps_red_frozen(self):
        st = urns.init_sequential((1, 1), (1, 1), N2, seed=2)
        for _ in range(40):
            urns._sequential_steps(st, [[1e-12]], 0, [0, 0])
        assert st.red.sum() == 2
        assert st.substep == 40

    def test_alternation(self):
        st = urns.init_sequential((1, 1), (1, 1), N2, seed=2)
        urns._sequential_steps(st, [[0.5]], 0, [0, 0])
        assert st.black[1] + st.red[1] == 2  # urn 2 untouched on sub-step 1
        urns._sequential_steps(st, [[0.5]], 0, [0, 0])
        assert st.black.sum() + st.red.sum() == 6

    def test_second_substep_sees_updated_red_total(self):
        st = urns.init_sequential((1, 1), (1, 1), N2, seed=2)
        urns._sequential_steps(st, [[0.999]], 0, [0, 0])  # red to urn 1: red total 3
        q = urns._prob_first(N2.log_value(int(st.black[1])), N2.log_value(int(st.red.sum())))
        assert q == pytest.approx(1 / (1 + 9))  # W(1)=1 vs W(3)=9

    def test_proportions_at_an_odd_substep(self):
        st = urns.init_sequential((1, 1), (1, 1), N2, seed=2)
        urns.step_sequential(st)  # a red ball to urn 0
        assert urns.sequential_proportions(st).tolist() == [1 / 3, 1 / 2]
        tr = urns.run(st, 1)  # urn 1, then urn 0: both red
        assert tr.proportions.tolist() == [[1 / 3, 1 / 2], [1 / 4, 1 / 3]]
        assert np.array_equal(tr.proportions[-1], st.black / (st.black + st.red))

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

    @pytest.mark.parametrize("record_every", [1, 7, 100])
    @pytest.mark.parametrize("p, seed", [(0.8, 1), (0.2, 3)], ids=["settles", "mixed"])
    def test_ium_side_matches_standalone(self, p, seed, record_every):
        # the pair leaps, plans and steps where both sides allow it, the
        # standalone run where its one side does; the ium side is the same
        ti, _, _ = urns.run_coupled((1, 1), (1, 1), p, N2, seed=seed, n_steps=3000, record_every=record_every)
        tr = urns.run(urns.init_ium(2, (1, 1), (1, 1), p, N2, seed=seed), 3000, record_every)
        for name in ("steps", "proportions", "color_totals", "last_change"):
            assert np.array_equal(getattr(ti, name), getattr(tr, name)), name

    def test_last_change_is_the_last_growth_of_each_total(self):
        for tr in urns.run_coupled((1, 1), (1, 1), 0.4, N2, seed=5, n_steps=300)[:2]:
            grew = np.diff(tr.color_totals, axis=0) > 0
            assert tr.last_change.tolist() == [int(tr.steps[1:][g].max(initial=0)) for g in grew.T]


class TestTableWithoutTail:
    """A table with no tail rule runs as far as its entries reach."""

    T3 = rf.make_table([float((n + 1) ** 2) for n in range(12)])
    T60 = rf.make_table([float((n + 1) ** 2) for n in range(60)])
    INITS = {
        "ium": (lambda seq, seed: urns.init_ium(2, (1, 1), (1, 1), 0.3, seq, seed),
                lambda seq, n_steps, **kw: urns.run_ium_ensemble(seq, 0.3, 2, (1, 1), (1, 1), n_steps, **kw)),
        "multicolor": (lambda seq, seed: urns.init_multicolor(2, (1, 1), 2, seq, seed),
                       lambda seq, n_steps, **kw: urns.run_multicolor_ensemble(seq, 2, (1, 1), 2, n_steps, **kw)),
        "sequential": (lambda seq, seed: urns.init_sequential((1, 1), (1, 1), seq, seed),
                       lambda seq, n_steps, **kw: urns.run_sequential_ensemble(seq, (1, 1), (1, 1), n_steps, **kw)),
        "ium at p = 0": (lambda seq, seed: urns.init_ium(2, (1, 1), (1, 1), 0.0, seq, seed),
                         lambda seq, n_steps, **kw: urns.run_ium_ensemble(seq, 0.0, 2, (1, 1), (1, 1), n_steps, **kw)),
    }

    @pytest.mark.parametrize("model", INITS)
    def test_single_run_equals_ensemble_run(self, model):
        init, ensemble = self.INITS[model]
        raw = ensemble(self.T3, 3, n_runs=2, master_seed=1, record_every=1)
        for i in range(2):
            st = init(self.T3, derive_seed(1, i))
            tr = urns.run(st, 3)
            assert np.array_equal(raw.proportions[i], tr.proportions)
            assert np.array_equal(raw.last_add[i], tr.last_change)

    @pytest.mark.parametrize("model", INITS)
    def test_runs_of_20_steps_stay_on_60_entries(self, model):
        init, ensemble = self.INITS[model]
        for record_every in (1, 20):
            tr = urns.run(init(self.T60, 3), 20, record_every)
            assert tr.color_totals[-1].max() < 60
        ensemble(self.T60, 20, n_runs=4, master_seed=3)

    def test_coupled_run_of_20_steps_stays_on_60_entries(self):
        urns.run_coupled((1, 1), (1, 1), 0.3, self.T60, 3, 20)

    def test_reach_past_the_table_is_an_error(self):
        init, ensemble = self.INITS["ium"]
        # the pooled totals can reach 2 + 2 * 40
        with pytest.raises(ValueError, match=r"W\(60\) is outside the table of 60 values"):
            urns.run(init(self.T60, 3), 40, 40)
        with pytest.raises(ValueError, match=r"W\(60\) is outside the table of 60 values"):
            ensemble(self.T60, 40, n_runs=4, master_seed=3)

    @pytest.mark.parametrize("model", [*INITS, "coupled"])
    def test_single_run_and_ensemble_decide_alike(self, model):
        # whether a run passes the table's end is decided from its state and
        # horizon alone: not from its path, nor from its record cadence
        init, ensemble = self.INITS["ium" if model == "coupled" else model]
        for n_steps in (20, 27, 28, 40):
            try:
                ensemble(self.T60, n_steps, n_runs=1, master_seed=0)
                runs = True
            except ValueError:
                runs = False
            for seed in range(12):
                for record_every in (1, 7, n_steps):
                    try:
                        if model == "coupled":
                            urns.run_coupled((1, 1), (1, 1), 0.3, self.T60, seed, n_steps, record_every)
                        else:
                            urns.run(init(self.T60, seed), n_steps, record_every)
                        assert runs, (n_steps, seed, record_every)
                    except ValueError as exc:
                        assert not runs and "W(60) is outside the table of 60 values" in str(exc)


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

    @pytest.mark.parametrize("nc", [3, 8, 9, 12])
    def test_multicolor_matches_scalar_runs(self, nc):
        a = (1,) * nc
        raw = urns.run_multicolor_ensemble(
            N3, nc, a, 2, 300, 5, master_seed=55, run_offset=0, record_every=30
        )
        for i in range(5):
            st = urns.init_multicolor(nc, a, 2, N3, seed=derive_seed(55, i))
            tr = urns.run(st, 300, 30)
            assert np.array_equal(raw.steps, tr.steps)
            assert np.array_equal(raw.proportions[i], tr.proportions)
            assert np.array_equal(raw.final_counts[i], st.counts)
            assert raw.last_add[i].tolist() == tr.last_change.tolist()

    @pytest.mark.parametrize("nc", [8, 12])
    def test_multicolor_cut_point_summed_left_to_right(self, nc):
        # weights whose left-to-right sum is not numpy's pairwise w.sum(), and
        # a uniform on the cut point that moves between the two sums: the
        # kernel and the block stepper give the ball the same color
        rng = np.random.default_rng(nc)
        for _ in range(1000):
            values = rng.uniform(0.5, 2.0, size=nc)
            seq = rf.make_table(values.tolist(), rf.TailRule((rf.ConstBranch(1.0),)))
            logw = rf.log_weight_table(seq, nc - 1)
            w = np.exp(logw - logw.max())
            total = functools.reduce(operator.add, w.tolist())
            cuts = np.cumsum(w[:-1] / total)
            pairwise = np.cumsum(w[:-1] / w.sum())
            if (cuts != pairwise).any():
                break
        else:
            pytest.fail("no weights found whose sums differ")
        c = int(np.flatnonzero(cuts != pairwise)[0])
        u = max(cuts[c], pairwise[c])  # a ball lands above exactly one of the two
        picks = {int(np.sum(u > cuts)), int(np.sum(u > pairwise))}
        assert len(picks) == 2
        counts = np.array([range(nc)])
        added = urns._multicolor_step(counts, logw, np.array([[u]]))
        st = urns.init_multicolor(nc, range(nc), 1, seq, seed=1)
        urns._multicolor_steps(st, [[u]], 0, [0] * nc)
        assert added[0].tolist() == (st.counts - np.arange(nc)).tolist()
        assert int(np.flatnonzero(added[0])[0]) == int(np.sum(u > cuts))

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

    @pytest.mark.parametrize("run_ensemble", [
        lambda: urns.run_ium_ensemble(N2, 0.2, 2, (1, 1), (1, 1), 200, 4, master_seed=1),
        lambda: urns.run_multicolor_ensemble(N2, 3, (1, 1, 1), 2, 200, 4, master_seed=1),
        lambda: urns.run_sequential_ensemble(N2, (1, 1), (1, 1), 200, 4, master_seed=1),
    ], ids=["ium", "multicolor", "sequential"])
    def test_non_finite_weight_raises(self, nan_weights_from_300, run_ensemble):
        # the kernels do not check weights: the table they read is checked once
        with pytest.raises(ConditionViolation, match="not finite at n = 300"):
            run_ensemble()

    @pytest.mark.parametrize("run_ensemble, shares, colors, counts", [
        (lambda n: urns.run_ium_ensemble(N2, 0.2, 2, (1, 1), (1, 1), 200, n, master_seed=1), 2, 2, 4),
        (lambda n: urns.run_multicolor_ensemble(N2, 3, (1, 1, 1), 2, 200, n, master_seed=1), 3, 3, 3),
        (lambda n: urns.run_sequential_ensemble(N2, (1, 1), (1, 1), 200, n, master_seed=1), 2, 2, 4),
    ], ids=["ium", "multicolor", "sequential"])
    def test_zero_runs(self, run_ensemble, shares, colors, counts):
        raw = run_ensemble(0)
        assert raw.steps.tolist() == [0, 100, 200]
        assert raw.proportions.shape == (0, 3, shares)
        assert raw.last_add.shape == (0, colors) and raw.final_counts.shape == (0, counts)
        assert raw.seeds.shape == (0,) and raw.run_steps_screened == raw.run_steps_exact == 0

    def test_exponential_weights_no_overflow(self):
        seq = rf.make_exponential(2.0)
        raw = urns.run_ium_ensemble(
            seq, 0.5, 2, (1, 1), (1, 1), 2000, 4, master_seed=3, record_every=500
        )
        assert np.isfinite(raw.proportions).all()
