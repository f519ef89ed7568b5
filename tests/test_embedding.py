import hashlib
import math
import re
import tracemalloc
import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from urnfield import embedding as emb, reinforcement as rf, urns
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

    def test_rate_that_underflows_is_a_condition_violation(self):
        # W(n) = 2^-n is 0.0 in float from n = 1075 on: a timer at rate 0
        # would never ring, and its mass / rate could be 0 / 0
        seq = rf.make_table([1.0], rf.TailRule((rf.ExpBranch(0.5),)))
        assert emb.init_embedding(2, (1070, 1070), 1, seq, seed=1).rate.min() > 0.0
        with pytest.raises(ConditionViolation, match="underflows to 0"):
            emb.sample_embedding_counts(seq, 2, (1070, 1070), 1, 10, 100, seed=1)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            emb.init_embedding(1, (1,), 1, N2, seed=1)
        with pytest.raises(ValueError):
            emb.init_embedding(2, (1, 1, 1), 1, N2, seed=1)
        with pytest.raises(ValueError):
            emb.init_embedding(2, (1, 1), 0, N2, seed=1)

    def test_counts_must_be_whole_numbers(self):
        # ``int`` would have started these at (2, 1)
        for call in (lambda a: emb.init_embedding(2, a, 1, N2, seed=1),
                     lambda a: emb.sample_embedding_counts(N2, 2, a, 1, 3, 100, seed=1),
                     lambda a: emb.sample_multicolor_counts(N2, 2, a, 1, 3, 100, seed=1),
                     lambda a: emb.run_embedding_ensemble(N2, 2, a, 1, 3, 2, 1)):
            with pytest.raises(ValueError, match=r"whole numbers, got 2\.5"):
                call((2.5, 1))


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


# sha256 of the int64 counts of 3000 copies under n^2 from one ball per
# color: (embedding, embedding refreshed every jump, multicolor urn).  The
# embedding sampler is seeded 17 + nc, the urn sampler 19 + nc.
SAMPLER_DIGESTS = {
    (2, 2, 3): ("3e8e9b75d111899cfc9252c1ea8f12eb4d9dca3c04b62c6627a3cb803332ad04",
                "60a97dfda12243b6bf11a7cfcf423a3df6bab23de83473c87d27bb0750e066e0",
                "8185be66447601202a1a0c40932e21e28a5e9d8747b69e3c7f338e46591a6889"),
    (3, 2, 4): ("46ef7e89d8e825143c399148d3d47961b1b4cadf485029d275314d9073b1f7e5",
                "74eb924ab3e8c37b052a25646cfb936c3a82807e014fa51e1f748b5e5f32f25a",
                "aafe0e21b6fc5f3506649699caf7792c27550ba4caead0a4fb0219708b9b9022"),
    (5, 1, 4): ("81b912cf6fc2943a4173822887511745ebd596316e9da85eaab798c38a5de36c",
                "81b912cf6fc2943a4173822887511745ebd596316e9da85eaab798c38a5de36c",
                "28bee5472483691e60cf835edf35c15612f9cceccd292c888dc084daa3d8296d"),
    (9, 3, 3): ("18c70f7e3f76a7afe03807f7299f241ee7f3680d96322e98aef283ee465e4019",
                "777f4ce9b354aa5a8f4186ab293093a81e08d191ad3f46eb624e85849b4349cf",
                "4617a87ff9c0c6e276af2e67609d1a3ea974ff6674081055afa8f8629a130b79"),
}


def _sampler_digests(nc, d, k):
    a = (1,) * nc

    def digest(counts):
        return hashlib.sha256(np.ascontiguousarray(counts, dtype=np.int64).tobytes()).hexdigest()

    return (
        digest(emb.sample_embedding_counts(N2, nc, a, d, k, 3000, seed=17 + nc)),
        digest(emb.sample_embedding_counts(N2, nc, a, d, k, 3000, seed=17 + nc, refresh_every_jump=True)),
        digest(emb.sample_multicolor_counts(N2, nc, a, d, k, 3000, seed=19 + nc)),
    )


@pytest.mark.parametrize("nc, d, k", SAMPLER_DIGESTS, ids=[f"nc{nc}-d{d}-k{k}" for nc, d, k in SAMPLER_DIGESTS])
def test_sampler_outputs_are_pinned(nc, d, k):
    assert _sampler_digests(nc, d, k) == SAMPLER_DIGESTS[nc, d, k]


@pytest.mark.parametrize("tile", [7, 2999, 3000, 3001])
def test_sampler_outputs_do_not_depend_on_the_tile(monkeypatch, tile):
    # the 3000 copies in many ragged tiles, one tile short of or at the
    # copies, and one tile past them
    monkeypatch.setattr(emb, "_TILE", tile)
    assert {key: _sampler_digests(*key) for key in SAMPLER_DIGESTS} == SAMPLER_DIGESTS


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_samplers_at_the_tile_edge_equal_one_tile(monkeypatch, extra):
    n = emb._TILE + extra
    tiled = (emb.sample_embedding_counts(N3, 3, (1, 2, 1), 2, 3, n, seed=41),
             emb.sample_multicolor_counts(N3, 3, (1, 2, 1), 2, 3, n, seed=43))
    monkeypatch.setattr(emb, "_TILE", n)
    whole = (emb.sample_embedding_counts(N3, 3, (1, 2, 1), 2, 3, n, seed=41),
             emb.sample_multicolor_counts(N3, 3, (1, 2, 1), 2, 3, n, seed=43))
    assert all(np.array_equal(t, w) for t, w in zip(tiled, whole))


@pytest.mark.parametrize("sampler", [emb.sample_embedding_counts, emb.sample_multicolor_counts],
                         ids=["embedding", "multicolor"])
def test_sampler_memory_stays_near_its_output(sampler):
    # the kernels' temporaries cover one tile, not every row: untiled, each
    # sampler peaked at 7x its output here
    sampler(N2, 2, (1, 1), 2, 3, 1000, seed=3)  # warm up lazy imports and tables
    tracemalloc.start()
    try:
        counts = sampler(N2, 2, (1, 1), 2, 3, 100_000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * counts.nbytes


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

    def test_edge_arguments_as_in_the_urn_ensembles(self):
        # no runs give an empty result shaped as the multi-color ensemble's
        raw = emb.run_embedding_ensemble(N2, 3, (1, 2, 1), 2, 30, 0, master_seed=5, record_every=10)
        ref = urns.run_multicolor_ensemble(N2, 3, (1, 2, 1), 2, 30, 0, master_seed=5, record_every=10)
        assert np.array_equal(raw.steps, ref.steps)
        for field in ("proportions", "last_add", "final_counts", "seeds"):
            assert getattr(raw, field).shape == getattr(ref, field).shape
        for n_steps, record_every in ((-1, 10), (30, 0)):
            for run_ensemble in (emb.run_embedding_ensemble, urns.run_multicolor_ensemble):
                with pytest.raises(ValueError, match="n_steps must be >= 0 and record_every >= 1"):
                    run_ensemble(N2, 2, (1, 1), 2, n_steps, 3, master_seed=5, record_every=record_every)

    def test_table_without_tail_runs_as_far_as_it_reaches(self):
        # 12 entries: counts up to 1 + 2 * 5 = 11 stay on the table, 1 + 2 * 6 do not
        t3 = rf.make_table([float((n + 1) ** 2) for n in range(12)])
        raw = emb.run_embedding_ensemble(t3, 2, (1, 1), 2, 5, 3, master_seed=7, record_every=1)
        for i in range(3):
            st = emb.init_embedding(2, (1, 1), 2, t3, seed=derive_seed(7, i))
            for _ in range(10):
                emb.advance_to_next_jump(st)
            assert np.array_equal(raw.final_counts[i], st.z)
        with pytest.raises(ValueError, match=r"W\(12\) is outside the table of 12 values"):
            emb.run_embedding_ensemble(t3, 2, (1, 1), 2, 6, 3, master_seed=7)


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


def reference_categories(za, zb):
    """The distinct rows of both samples as sorted tuples, and how often
    each occurs in either sample."""
    a, b = (Counter(map(tuple, z.tolist())) for z in (za, zb))
    cats = sorted(a.keys() | b.keys())
    return cats, [a[c] for c in cats], [b[c] for c in cats]


def laws_and_path(za, zb, laws=emb.compare_laws):
    """What ``laws`` gives on both samples, and whether it took the wide
    path, which finds the categories by ``np.unique`` over the rows."""
    with mock.patch.object(np, "unique", wraps=np.unique) as unique:
        rep = laws(za, zb)
    return rep, any(call.kwargs.get("axis") == 0 for call in unique.call_args_list)


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

    @pytest.mark.parametrize("za, zb", [
        (np.ones((200, 2), dtype=np.int64), np.ones((200, 3), dtype=np.int64)),  # a column would be dropped
        (np.ones((200, 2), dtype=np.int64), np.ones(200, dtype=np.int64)),
        (np.ones(200, dtype=np.int64), np.ones(200, dtype=np.int64)),
        (np.ones((200, 2)), np.ones((200, 2), dtype=np.int64)),
    ], ids=["widths", "2-D and 1-D", "1-D", "float"])
    def test_samples_must_be_integer_rows_of_one_width(self, za, zb):
        with pytest.raises(ValueError, match=f"shapes {re.escape(str(za.shape))}.* and {re.escape(str(zb.shape))}"):
            emb.compare_laws(za, zb)

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
        rep, wide = laws_and_path(za, zb)
        assert wide
        cats, ca, cb = reference_categories(za, zb)
        assert rep.categories == tuple(cats)
        assert (rep.counts_a, rep.counts_b) == (tuple(ca), tuple(cb))
        ca, cb = np.array(ca, dtype=float), np.array(cb, dtype=float)
        ea = (ca + cb) * (len(za) / (len(za) + len(zb)))
        eb = (ca + cb) * (len(zb) / (len(za) + len(zb)))
        assert rep.statistic == pytest.approx(np.sum((ca - ea) ** 2 / ea) + np.sum((cb - eb) ** 2 / eb), rel=1e-12)
        assert rep.dof == len(cats) - 1

    @pytest.mark.parametrize("fallback", [False, True], ids=["counted", "fallback"])
    @given(
        dtype=st.sampled_from([np.int32, np.int64]), ncol=st.integers(1, 5),
        n_a=st.integers(100, 600), n_b=st.integers(100, 600), n_rows=st.integers(1, 150),
        skew=st.floats(0.0, 3.0), low=st.integers(-1000, 1000), seed=st.integers(0, 2**32 - 1),
    )
    def test_categories_match_numpy_unique(self, fallback, dtype, ncol, n_a, n_b, n_rows, skew, low, seed):
        # up to 150 template rows drawn with skewed frequencies, so that rare
        # categories get pooled and more than 64 send the test to KS; the
        # columns span a key space of at most 4 (n_a + n_b) keys, which are
        # counted, or of 2^22 per column, which take the wide path; either
        # matches the sorted row tuples counted in Python
        rng = np.random.default_rng(seed)
        width = 2**22 if fallback else max(1, int((4 * (n_a + n_b)) ** (1 / ncol)))
        rows = rng.integers(low, low + width, size=(n_rows, ncol))
        freq = np.arange(1, n_rows + 1) ** -skew
        za = rows[rng.choice(n_rows, size=n_a, p=freq / freq.sum())].astype(dtype)
        zb = rows[rng.choice(n_rows, size=n_b, p=freq / freq.sum())].astype(dtype)
        rep, wide = laws_and_path(za, zb)
        both = np.concatenate([za, zb])
        key_space = math.prod(int(hi) - int(lo) + 1 for lo, hi in zip(both.min(axis=0), both.max(axis=0)))
        assert wide == (key_space > 4 * (n_a + n_b))
        if not wide:  # the wide path must agree on the counted path's samples too
            with mock.patch.object(emb, "_KEY_ROOM", 0):
                assert laws_and_path(za, zb) == (rep, True)
        cats, ca, cb = reference_categories(za, zb)
        if len(cats) > 64:
            ks = stats.ks_2samp(za[:, 0], zb[:, 0])
            assert (rep.method, rep.statistic, rep.p_value) == ("ks", float(ks.statistic), float(ks.pvalue))
            return
        ca, cb, pooled = emb._pool_rare(np.array(ca, dtype=float), np.array(cb, dtype=float), cats, n_a, n_b)
        assert rep.categories == tuple(pooled)
        assert (rep.counts_a, rep.counts_b) == (tuple(int(v) for v in ca), tuple(int(v) for v in cb))
        assert rep.dof == len(ca) - 1

    @pytest.mark.parametrize("span, wide", [(4 * 400, False), (4 * 400 + 1, True)])
    def test_wide_path_starts_past_the_key_room(self, span, wide):
        # 400 rows are counted over up to _KEY_ROOM times as many keys
        z = np.random.default_rng(span).integers(-5, span - 5, size=(400, 1))
        z[:2, 0] = -5, span - 6
        (cats, ca, cb), took = laws_and_path(z[:150], z[150:], emb._row_categories)
        assert took == wide
        assert ([tuple(c) for c in cats.tolist()], ca.tolist(), cb.tolist()) == reference_categories(z[:150], z[150:])

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
        blob = rep.to_json()
        assert [type(v) for v in blob["counts_a"] + blob["counts_b"]] == [int, int]
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
