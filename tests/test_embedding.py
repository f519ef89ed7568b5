import math
import warnings

import numpy as np
import pytest
from scipy import stats

from urnfield import embedding as emb, reinforcement as rf
from urnfield.errors import ConditionViolation, InternalConsistencyError
from urnfield.seeds import derive_seed

N2 = rf.make_polynomial([0, 0, 1])
N3 = rf.make_polynomial([0, 0, 0, 1])


class TestInit:
    def test_unit_rates(self):
        st = emb.init_embedding(2, (1, 1), 1, N2, seed=1)
        assert st.rate.tolist() == [1.0, 1.0]

    def test_mixed_rates(self):
        st = emb.init_embedding(3, (2, 1, 1), 1, N2, seed=1)
        assert st.rate.tolist() == [4.0, 1.0, 1.0]

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            emb.init_embedding(2, (0, 1), 1, N2, seed=1)

    def test_rate_beyond_float_range_is_a_condition_violation(self):
        # W(1030) = 2^1030 does not fit a float
        with pytest.raises(ConditionViolation):
            emb.init_embedding(2, (1030, 1), 1, rf.make_exponential(2.0), seed=1)

    def test_rates_hold_up_to_float_range(self):
        # W(n) = 2^(n-1) is finite up to n = 1024: the rate table grows past
        # its initial size to get there and stops at the first overflow
        rho = rf.make_exponential(2.0)
        st = emb.init_embedding(2, (1000, 1000), 1, rho, seed=1)
        assert st.rate.tolist() == [rho.value(1000)] * 2
        with pytest.raises(ConditionViolation):
            for _ in range(60):
                emb.advance_to_next_jump(st)
        assert st.z.max() == 1025

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            emb.init_embedding(1, (1,), 1, N2, seed=1)
        with pytest.raises(ValueError):
            emb.init_embedding(2, (1, 1, 1), 1, N2, seed=1)
        with pytest.raises(ValueError):
            emb.init_embedding(2, (1, 1), 0, N2, seed=1)


class TestAdvance:
    def test_deterministic_race(self):
        st = emb.init_embedding(2, (1, 1), 2, N2, seed=1)
        st.mass[:] = [0.1, 5.0]
        st.xi[:] = [0.1, 5.0]
        st, ev = emb.advance_to_next_jump(st)
        assert ev.edge == 0
        assert ev.time == pytest.approx(0.1)
        assert st.z.tolist() == [2, 1]
        # the loser consumed rate * dt = 0.1 of its mass
        assert st.mass[1] == pytest.approx(4.9)

    def test_jump_count_invariant(self):
        st = emb.init_embedding(3, (1, 2, 1), 2, N3, seed=3)
        for k in range(1, 31):
            st, ev = emb.advance_to_next_jump(st)
            assert st.z.sum() - 4 == k
            assert ev.refresh == (k % 2 == 0)
        assert np.all(np.diff([e.time for e in st.jump_log]) > 0)

    def test_refresh_boundary_flag_and_log(self):
        st = emb.init_embedding(2, (1, 1), 3, N2, seed=5)
        for _ in range(9):
            st, _ = emb.advance_to_next_jump(st)
        assert len(st.refresh_log) == 4  # k = 0..3
        assert emb.extract_discrete(st, 0) == (1, 1)
        assert sum(emb.extract_discrete(st, 3)) == 2 + 9

    def test_refresh_precondition(self):
        st = emb.init_embedding(2, (1, 1), 2, N2, seed=5)
        st, _ = emb.advance_to_next_jump(st)
        with pytest.raises(ValueError):
            emb.refresh_rates(st)

    def test_extract_unrealized(self):
        st = emb.init_embedding(2, (1, 1), 2, N2, seed=5)
        with pytest.raises(ValueError):
            emb.extract_discrete(st, 1)


class TestDecomposition:
    def test_single_rate_for_d1(self):
        st = emb.init_embedding(2, (1, 1), 1, N2, seed=7)
        xi0 = st.xi.copy()
        st, ev = emb.advance_to_next_jump(st)
        dec = emb.sigma_decomposition(st, ev.edge, 1)
        assert len(dec) == 1
        rate, mass = dec[0]
        assert rate == 1.0  # W(1)
        assert mass == pytest.approx(xi0[ev.edge])

    def test_reconstruction_matches_holding_times(self):
        st = emb.init_embedding(2, (1, 1), 2, N2, seed=11)
        for _ in range(60):
            emb.advance_to_next_jump(st)
        sigma = {0: [0.0], 1: [0.0]}  # per-edge visit times, starting at 0
        for ev in st.jump_log:
            sigma[ev.edge].append(ev.time)
        checked = 0
        for (edge, visit), dec in st.visit_decomp.items():
            times = sigma[edge]
            idx = visit - 1  # visit v realized at the (v - a_i)-th ring
            if idx >= len(times):
                continue
            holding = sum(c / r for r, c in dec)
            assert holding == pytest.approx(times[idx] - times[idx - 1], rel=1e-10)
            assert all(c >= 0 for _, c in dec)
            checked += 1
        assert checked > 40

    def test_masses_sum_to_exponential_draw(self):
        st = emb.init_embedding(3, (1, 1, 1), 2, N3, seed=13)
        draws = {}
        for _ in range(50):
            before = {i: st.xi[i] for i in range(3)}
            st, ev = emb.advance_to_next_jump(st)
            dec = st.visit_decomp[(ev.edge, int(st.z[ev.edge]))]
            assert sum(c for _, c in dec) == pytest.approx(before[ev.edge], rel=1e-12)
            draws[ev.edge] = True

    def test_holding_time_sandwich(self):
        # each reconstruction lies between xi/max(rates) and xi/min(rates)
        st = emb.init_embedding(2, (1, 1), 3, N2, seed=17)
        for _ in range(60):
            emb.advance_to_next_jump(st)
        for (edge, visit), dec in st.visit_decomp.items():
            xi = sum(c for _, c in dec)
            holding = sum(c / r for r, c in dec)
            rates = [r for r, _ in dec]
            assert xi / max(rates) <= holding * (1 + 1e-12)
            assert holding <= xi / min(rates) * (1 + 1e-12)

    def test_at_most_two_rates_per_timer(self):
        # an armed timer's count is frozen, so only the arming-block snapshot
        # and the settled count can appear as denominators
        st = emb.init_embedding(2, (1, 1), 4, N2, seed=19)
        for _ in range(80):
            emb.advance_to_next_jump(st)
        for dec in st.visit_decomp.values():
            assert len({r for r, _ in dec}) <= 2

    def test_unrealized_visit(self):
        st = emb.init_embedding(2, (1, 1), 2, N2, seed=5)
        with pytest.raises(ValueError):
            emb.sigma_decomposition(st, 0, 500)


class TestRaceDistribution:
    def test_first_jump_probability(self):
        # rates (4, 1): edge 1 wins with probability 0.8
        counts = emb.sample_embedding_counts(N2, 2, (2, 1), 1, 1, 100_000, seed=23)
        frac = float(np.mean(counts[:, 0] == 3))
        assert abs(frac - 0.8) < 3 * math.sqrt(0.8 * 0.2 / 100_000)

    def test_symmetric_first_block(self):
        counts = emb.sample_embedding_counts(N2, 2, (1, 1), 1, 1, 50_000, seed=29)
        frac = float(np.mean(counts[:, 0] == 2))
        assert abs(frac - 0.5) < 3 * math.sqrt(0.25 / 50_000)

    def test_totals_exact(self):
        counts = emb.sample_embedding_counts(N3, 3, (1, 2, 1), 2, 4, 5_000, seed=31)
        assert np.all(counts.sum(axis=1) == 4 + 8)


class TestEnsembleEngine:
    @pytest.mark.parametrize(
        "seq, nc, a, d, offset",
        [(N2, 2, (1, 1), 2, 0), (N3, 3, (1, 2, 1), 3, 4), (rf.make_exponential(1.5), 2, (1, 1), 1, 2)],
        ids=["n^2", "n^3-nc3-d3", "exp1.5-d1"],
    )
    def test_matches_scalar_runs(self, seq, nc, a, d, offset):
        raw = emb.run_embedding_ensemble(seq, nc, a, d, 60, 5, master_seed=77, run_offset=offset, record_every=7)
        for i in range(5):
            st = emb.init_embedding(nc, a, d, seq, seed=derive_seed(77, offset + i))
            props, last = [st.z / st.z.sum()], np.zeros(nc, dtype=np.int64)
            for step in range(1, 61):
                for _ in range(d):
                    _, ev = emb.advance_to_next_jump(st)
                    last[ev.edge] = step
                props.append(st.z / st.z.sum())
            assert np.array_equal(raw.proportions[i], np.array(props)[raw.steps])
            assert np.array_equal(raw.final_counts[i], st.z)
            assert np.array_equal(raw.last_add[i], last)

    def test_horizon_beyond_float_range(self):
        # some color could reach 1 + 2 * 600 balls, and W(1201) = 2^1201
        with pytest.raises(ConditionViolation):
            emb.run_embedding_ensemble(rf.make_exponential(2.0), 2, (1, 1), 2, 600, 3, master_seed=1)


class TestMulticolorReference:
    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            emb.sample_multicolor_counts(N2, 3, (1, 1), 1, 2, 100, seed=1)

    def test_color_swap_symmetry_under_fast_weights(self):
        # from a symmetric start each color leads with probability 1/2; the
        # weights 2^1015 are far beyond the range of a linear-scale draw
        n = 20_000
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            counts = emb.sample_multicolor_counts(rf.make_exponential(2.0), 2, (1015, 1015), 1, 40, n, seed=3)
        ahead = float(np.mean(counts[:, 0] > counts[:, 1]))
        assert abs(ahead - 0.5) <= 4 * math.sqrt(0.25 / n)


class TestCompareLaws:
    def test_same_generator_two_seeds_not_rejected(self):
        rejections = 0
        for rep in range(20):
            za = emb.sample_multicolor_counts(N2, 2, (1, 1), 2, 3, 4_000, seed=1000 + rep)
            zb = emb.sample_multicolor_counts(N2, 2, (1, 1), 2, 3, 4_000, seed=5000 + rep)
            if emb.compare_laws(za, zb).p_value < 0.01:
                rejections += 1
        assert rejections <= 3

    def test_embedding_matches_discrete(self):
        za = emb.sample_embedding_counts(N2, 2, (1, 1), 2, 3, 50_000, seed=41)
        zb = emb.sample_multicolor_counts(N2, 2, (1, 1), 2, 3, 50_000, seed=42)
        assert emb.compare_laws(za, zb).p_value > 1e-3

    def test_broken_refresh_rejected(self):
        rho = rf.make_exponential(4.0)
        za = emb.sample_embedding_counts(
            rho, 2, (1, 1), 2, 3, 50_000, seed=43, refresh_every_jump=True
        )
        zb = emb.sample_multicolor_counts(rho, 2, (1, 1), 2, 3, 50_000, seed=44)
        assert emb.compare_laws(za, zb).p_value < 1e-3

    def test_refresh_every_jump_harmless_when_d1(self):
        rho = rf.make_exponential(3.0)
        za = emb.sample_embedding_counts(
            rho, 2, (1, 1), 1, 6, 40_000, seed=45, refresh_every_jump=True
        )
        zb = emb.sample_multicolor_counts(rho, 2, (1, 1), 1, 6, 40_000, seed=46)
        assert emb.compare_laws(za, zb).p_value > 1e-3

    def test_small_samples_rejected(self):
        za = np.ones((50, 2), dtype=np.int64)
        with pytest.raises(ValueError):
            emb.compare_laws(za, za)

    def test_identical_single_outcome(self):
        za = np.ones((200, 2), dtype=np.int64)
        rep = emb.compare_laws(za, za)
        assert rep.p_value == 1.0

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("ncol", [1, 2, 3, 4, 5])
    def test_categories_match_row_unique(self, ncol, dtype):
        # at most 12 distinct rows, each column spread over more than 2^21
        # and negative too, every category frequent enough that none is pooled
        rng = np.random.default_rng(100 * ncol + np.dtype(dtype).itemsize)
        span = 1 << 22
        rows = rng.integers(-span, span, size=(12, ncol)).astype(dtype)
        rows[1::3, 0] = rows[0, 0]  # shared leading entries exercise later columns
        za = rows[rng.integers(0, 12, size=2400)]
        zb = rows[rng.integers(0, 12, size=1800)]
        rep = emb.compare_laws(za, zb)
        cats, inverse = np.unique(np.concatenate([za, zb]), axis=0, return_inverse=True)
        inverse = inverse.ravel()
        ca = np.bincount(inverse[:len(za)], minlength=len(cats)).astype(float)
        cb = np.bincount(inverse[len(za):], minlength=len(cats)).astype(float)
        assert rep.categories == tuple(tuple(int(v) for v in c) for c in cats)
        assert rep.counts_a == tuple(int(v) for v in ca)
        assert rep.counts_b == tuple(int(v) for v in cb)
        ea = (ca + cb) * (len(za) / (len(za) + len(zb)))
        eb = (ca + cb) * (len(zb) / (len(za) + len(zb)))
        assert rep.statistic == pytest.approx(np.sum((ca - ea) ** 2 / ea) + np.sum((cb - eb) ** 2 / eb), rel=1e-12)
        assert rep.dof == len(cats) - 1

    def test_ks_beyond_64_categories(self):
        rng = np.random.default_rng(7)
        za = rng.integers(-50, 50, size=(500, 2))
        zb = rng.integers(-50, 50, size=(400, 2))
        rep = emb.compare_laws(za, zb)
        ks = stats.ks_2samp(za[:, 0], zb[:, 0])
        assert (rep.method, rep.categories, rep.dof) == ("ks", (), 0)
        assert (rep.statistic, rep.p_value) == (float(ks.statistic), float(ks.pvalue))

    def test_single_outcome_with_negative_entries(self):
        za = np.tile([-3, 7], (150, 1))
        rep = emb.compare_laws(za, np.tile([-3, 7], (250, 1)))
        assert rep.categories == ((-3, 7),)
        assert (rep.counts_a, rep.counts_b) == ((150,), (250,))
        assert (rep.method, rep.statistic, rep.dof, rep.p_value) == ("chi_square", 0.0, 0, 1.0)

    def test_statistic_matches_contingency_table(self):
        rng = np.random.default_rng(11)
        outcomes = np.array([[0, 3], [1, 2], [2, 1], [3, 0], [1, 1]])
        za = outcomes[rng.choice(5, size=3000, p=[0.1, 0.2, 0.3, 0.25, 0.15])]
        zb = outcomes[rng.choice(5, size=2000, p=[0.15, 0.2, 0.25, 0.25, 0.15])]
        rep = emb.compare_laws(za, zb)
        table = np.array([rep.counts_a, rep.counts_b])
        assert table.shape == (2, 5)
        ref = stats.chi2_contingency(table, correction=False)
        assert rep.statistic == pytest.approx(ref.statistic, abs=1e-9)
        assert rep.dof == ref.dof


class TestJumpLogExport:
    def test_csv_columns_and_rows(self, tmp_path):
        st = emb.init_embedding(3, (1, 1, 1), 2, N2, seed=3)
        for _ in range(10):
            emb.advance_to_next_jump(st)
        path = tmp_path / "log.csv"
        emb.save_jump_log(st, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "jump_index,tau,edge,Z_1,Z_2,Z_3,refresh_flag"
        assert len(lines) == 11
        last = lines[-1].split(",")
        assert sum(int(v) for v in last[3:6]) == 3 + 10
        assert last[-1] == "1"  # jump 10 lands on a block boundary (d=2)


class TestVisitTimes:
    def test_matches_jump_log(self):
        st = emb.init_embedding(2, (1, 1), 2, N2, seed=3)
        for _ in range(20):
            emb.advance_to_next_jump(st)
        t0 = emb.visit_times(st, 0)
        t1 = emb.visit_times(st, 1)
        assert len(t0) + len(t1) == 20
        assert len(t0) == st.z[0] - 1
        assert all(a < b for a, b in zip(t0, t0[1:]))
        with pytest.raises(ValueError):
            emb.visit_times(st, 5)


class TestMassIntegrity:
    def test_corrupted_mass_detected(self):
        st = emb.init_embedding(2, (1, 1), 2, N2, seed=3)
        emb.advance_to_next_jump(st)
        st.mass[0] = -1.0
        with pytest.raises(InternalConsistencyError):
            emb.advance_to_next_jump(st)
            emb.advance_to_next_jump(st)
            emb.refresh_rates(st)
