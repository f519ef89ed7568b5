import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import zeta

from urnfield import reinforcement as rf
from urnfield.errors import ConditionViolation


def example_i():
    # W(2k) = k^4, W(2k+1) = k^4 - k^3 + 1
    return rf.make_table(
        [], rf.TailRule((rf.PolyBranch((0, 0, 0, 0, 1)), rf.PolyBranch((1, 0, 0, -1, 1))))
    )


def example_ii():
    # W(2k) = e^k, W(2k+1) = e^(k-1)
    return rf.make_table(
        [], rf.TailRule((rf.ExpBranch(math.e, 1.0), rf.ExpBranch(math.e, 1.0 / math.e)))
    )


class TestConstructors:
    def test_polynomial_values(self):
        seq = rf.make_polynomial([0, 0, 1])
        assert seq.value(3) == 9.0
        assert seq.value(100) == 10_000.0
        assert seq.domain_start == 1

    def test_polynomial_with_constant_term(self):
        seq = rf.make_polynomial([1, 0, 0, 2])
        assert seq.value(0) == 1.0
        assert seq.value(2) == 17.0
        assert seq.domain_start == 0

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError):
            rf.make_polynomial([0, -1, 1])
        with pytest.raises(ValueError):
            rf.make_polynomial([0, 0, -1])
        with pytest.raises(ValueError):
            rf.make_polynomial([1, 1, 0])

    def test_exponential(self):
        seq = rf.make_exponential(2.0)
        assert seq.value(10) == 1024.0
        assert rf.make_exponential(math.e).value(3) == pytest.approx(20.0855, abs=1e-3)
        with pytest.raises(ValueError):
            rf.make_exponential(1.0)
        with pytest.raises(ValueError):
            rf.make_exponential(0.5)

    def test_exponential_log_space(self):
        seq = rf.make_exponential(2.0)
        assert seq.log_value(1000) == pytest.approx(1000 * math.log(2.0), rel=1e-15)
        assert math.isinf(seq.value(5000))  # saturates; log form stays exact

    def test_table_interleaved_polynomials(self):
        seq = example_i()
        assert seq.value(6) == 81.0
        assert seq.value(7) == 55.0
        assert seq.domain_start == 1  # W(0) = 0

    def test_table_interleaved_exponentials(self):
        seq = example_ii()
        assert seq.value(4) / seq.value(5) == pytest.approx(math.e, rel=1e-14)

    def test_table_constant_tail(self):
        seq = rf.make_table([1.0], rf.TailRule((rf.ConstBranch(1.0),)))
        assert all(seq.value(k) == 1.0 for k in range(10))

    def test_table_rejects_nonpositive_beyond_start(self):
        with pytest.raises(ValueError):
            rf.make_table([0, 1, 0, 2])
        with pytest.raises(ValueError):
            rf.make_table([1, -2])

    def test_tail_positivity_scan_stops_where_negative_coefficients_do(self):
        # positive coefficients never make a branch nonpositive: 1e12 + k^2
        # needs no scan up to its Cauchy bound near 1e12
        seq = rf.make_table([1.0], rf.TailRule((rf.PolyBranch((1e12, 0, 1)),)))
        assert seq.value(3) == 1e12 + 9
        # (k - 2)^2 - 1 is 0 at k = 1, and k^2 - 10k + 26 > 0 everywhere
        with pytest.raises(ValueError, match="nonpositive"):
            rf.make_table([1.0], rf.TailRule((rf.PolyBranch((3, -4, 1)),)))
        assert rf.make_table([1.0], rf.TailRule((rf.PolyBranch((26, -10, 1)),))).value(5) == 1.0

    def test_tail_positivity_scan_is_bounded(self):
        # k^2 - 1e9 is positive only from k = 31623 on, but proving it
        # would scan 10^9 values
        with pytest.raises(ValueError, match="more than 1000000 values"):
            rf.make_table([1.0], rf.TailRule((rf.PolyBranch((-1e9, 0, 1)),)))

    @pytest.mark.parametrize("make, arg", [
        (rf.make_table, [1, math.nan, 2]),
        (rf.make_table, [1, math.inf]),
        (rf.make_exponential, math.inf),
        (rf.make_exponential, math.nan),
        (rf.make_polynomial, [0, math.inf]),
        (rf.make_polynomial, [math.nan, 1]),
        (rf.make_polynomial, [-math.inf, 1]),
    ], ids=["table-nan", "table-inf", "exp-inf", "exp-nan", "poly-inf", "poly-nan", "poly-neg-inf"])
    def test_non_finite_values_rejected(self, make, arg):
        values = arg if isinstance(arg, list) else [arg]
        bad = next(v for v in values if not math.isfinite(v))
        with pytest.raises(ValueError, match=str(bad)):
            make(arg)

    def test_eval_below_domain_start(self):
        seq = example_i()
        with pytest.raises(ValueError):
            seq.value(0)
        seq2 = rf.make_polynomial([0, 0, 1])
        with pytest.raises(ValueError):
            seq2.value(0)

    def test_negative_index_rejected(self):
        # a table used to wrap around: W(-1) read the last table value
        for seq in (rf.make_table([1, 2, 3]), rf.make_polynomial([0, 0, 1]), example_i()):
            with pytest.raises(ValueError, match="n >= 0"):
                seq.log_values(range(-1, 2))
            # log W is read over step-1 ranges only
            for ns in (np.array([2, 1]), range(0, 4, 2)):
                with pytest.raises(ValueError, match="step-1 range"):
                    seq.log_values(ns)

    def test_reading_past_a_finite_table_names_the_index_and_the_length(self):
        seq = rf.make_table([1, 4, 9])
        for n, read in ((3, lambda: seq.log_values(range(1, 5))), (7, lambda: seq.log_values(range(7, 9))),
                        (5, lambda: seq.value(5)), (4, lambda: seq.log_value(4))):
            with pytest.raises(ValueError, match=rf"W\({n}\) is outside the table of 3 values"):
                read()

    def test_eval_is_deterministic(self):
        seq = example_i()
        first = [seq.value(n) for n in range(1, 50)]
        again = [seq.value(n) for n in range(1, 50)]
        assert first == again

    def test_eval_beyond_table_without_tail(self):
        seq = rf.make_table([1, 2, 3])
        with pytest.raises(ValueError):
            seq.value(3)


class TestSerialization:
    @pytest.mark.parametrize(
        "seq",
        [
            rf.make_polynomial([0, 0, 1]),
            rf.make_exponential(2.5),
            rf.make_table([0, 1, 4], rf.TailRule((rf.PolyBranch((0, 0, 1)),))),
            example_i(),
            example_ii(),
            rf.make_table([2.0, 3.0]),
        ],
    )
    def test_roundtrip(self, seq):
        again = rf.ReinforcementSeq.from_json(seq.to_json())
        assert again == seq
        n = max(seq.domain_start, 1)
        if seq.kind != "table" or seq.tail is not None or n + 5 < len(seq.table or ()):
            upper = n + 5
            if seq.kind == "table" and seq.tail is None:
                upper = min(upper, len(seq.table) - 1)
            for k in range(n, upper + 1):
                assert again.value(k) == seq.value(k)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            rf.ReinforcementSeq.from_json({"kind": "mystery"})


class TestRemainder:
    def test_inverse_squares(self):
        seq = rf.make_polynomial([0, 0, 1])
        assert rf.remainder(seq, 1) == pytest.approx(math.pi**2 / 6.0, abs=1e-9)

    @pytest.mark.parametrize("k", [21, 100, 1000])
    def test_polynomial_tail_is_the_hurwitz_zeta(self, k):
        # the Euler-Maclaurin tail adds -f'(K)/12; subtracting it left the sum
        # low by ~2e-9 relative
        seq = rf.make_polynomial([0, 0, 1])
        assert math.exp(seq.log_recip_tail(k, 1)) == pytest.approx(float(zeta(2, k)), rel=1e-13)

    @staticmethod
    def shifted_squares(c, n=1):
        """sum_{k >= n} 1/(c + k^2) to 40 digits: Im psi(n + i sqrt(c)) / sqrt(c),
        or pi coth(pi sqrt(c)) / (2 sqrt(c)) - 1/(2c) from n = 1"""
        with mpmath.workdps(40):
            c = mpmath.mpf(c)
            r = mpmath.sqrt(c)
            if n == 1:
                return float(mpmath.pi * mpmath.coth(mpmath.pi * r) / (2 * r) - 1 / (2 * c))
            return float(mpmath.im(mpmath.digamma(n + 1j * r)) / r)

    @pytest.mark.parametrize("horizon", [1_000, 1_000_000])
    def test_a_large_constant_term_is_summed_from_the_first_term(self, horizon):
        # the tail once began at the Cauchy bound 1 + 10^6 and dropped the
        # terms before it: at horizon 10^3 the sum read 7.861e-4
        seq = rf.make_polynomial([1e6, 0, 1])
        got = math.exp(seq.log_recip_tail(horizon + 1))
        assert got == pytest.approx(self.shifted_squares(1e6, horizon + 1), rel=1e-13)
        assert rf.check_strong(seq, horizon=horizon).estimate == pytest.approx(self.shifted_squares(1e6), rel=1e-13)

    @pytest.mark.parametrize("n", [1, 10_001])
    def test_a_constant_term_near_float_max(self, n):
        # 1e300 + k^2 turns at k = 1e150: the integral is taken over log k
        seq = rf.make_polynomial([1e300, 0, 1])
        full = self.shifted_squares(1e300)  # the terms below n add under 1e-146 of it
        assert math.exp(seq.log_recip_tail(n)) == pytest.approx(full, rel=1e-12, abs=0.0)
        assert rf.check_strong(seq, horizon=10_000).estimate == pytest.approx(full, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n", [0, 3, 15, 40, 1_000])
    def test_table_tail_with_a_negative_coefficient(self, n):
        # W(n) = (n - 10)^2 + 1 from n = 3 on is increasing only from n = 21
        # (1 + 20/1); the terms before that are summed one by one
        seq = rf.make_table([1.0, 2.0, 3.0], rf.TailRule((rf.PolyBranch((101.0, -20.0, 1.0)),)))
        with mpmath.workdps(40):
            from_zero = (1 + mpmath.pi * mpmath.coth(mpmath.pi)) / 2  # sum_{j >= 0} 1/(j^2 + 1)
            j0 = max(n, 3) - 10
            terms = mpmath.fsum(1 / (mpmath.mpf(j) ** 2 + 1) for j in range(min(j0, 0), max(j0, 0)))
            want = from_zero + (terms if j0 < 0 else -terms) + mpmath.fsum(1 / mpmath.mpf(v) for v in (1, 2, 3)[n:])
        assert math.exp(seq.log_recip_tail(n)) == pytest.approx(float(want), rel=1e-13)

    def test_strong_estimate_for_squares_at_a_short_horizon(self):
        v = rf.check_strong(rf.make_polynomial([0, 0, 1]), horizon=20)
        assert v.estimate == pytest.approx(math.pi**2 / 6.0, rel=1e-13)

    def test_geometric_closed_form(self):
        seq = rf.make_exponential(2.0)
        for k in (1, 3, 10, 40):
            assert rf.remainder(seq, k) == pytest.approx(2.0 ** (1 - k), rel=1e-12, abs=0.0)

    def test_harmonic_divergence(self):
        seq = rf.make_polynomial([0, 1])
        with pytest.raises(ConditionViolation):
            rf.remainder(seq, 1)

    def test_non_increasing_in_n(self):
        for seq in (rf.make_polynomial([0, 0, 0, 1]), example_i(), example_ii()):
            vals = [rf.remainder(seq, n, horizon=10_000) for n in range(1, 40)]
            assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_truncated_only_for_table_without_tail(self):
        seq = rf.make_table([1, 2, 4, 8, 16, 32])
        value, guaranteed = rf.remainder_detail(seq, 1, horizon=5)
        assert not guaranteed
        assert value == pytest.approx(sum(1 / 2**k for k in range(1, 6)))


class TestStrong:
    def test_quadratic_holds(self):
        v = rf.check_strong(rf.make_polynomial([0, 0, 1]))
        assert v.verdict == "holds"
        assert v.estimate == pytest.approx(math.pi**2 / 6.0, abs=1e-9)

    def test_linear_fails(self):
        assert rf.check_strong(rf.make_polynomial([0, 1])).verdict == "fails"

    def test_degree_split(self):
        for coeffs, verdict in [([0, 0, 1], "holds"), ([0, 0, 0, 5], "holds"), ([3, 2], "fails")]:
            assert rf.check_strong(rf.make_polynomial(coeffs), horizon=10_000).verdict == verdict

    def test_examples_hold(self):
        assert rf.check_strong(example_i(), horizon=100_000).verdict == "holds"
        assert rf.check_strong(example_ii(), horizon=10_000).verdict == "holds"

    def test_table_without_tail_inconclusive(self):
        ns = np.arange(0, 10_000, dtype=float)
        table = np.concatenate([[0.0], (ns[1:] * np.log(ns[1:] + 2.0) ** 2)])
        seq = rf.make_table(table.tolist())
        assert rf.check_strong(seq, horizon=9_000).verdict == "inconclusive"

    def test_table_linear_growth_certified_divergent(self):
        # W(n) <= c n along the whole horizon: divergence certificate
        seq = rf.make_table((0.5 * np.arange(0, 20_000)).tolist())
        assert rf.check_strong(seq, horizon=19_000).verdict == "fails"

    def test_horizon_validation(self):
        with pytest.raises(ValueError):
            rf.check_strong(rf.make_polynomial([0, 0, 1]), horizon=5)


class TestVariationBound:
    def test_nondecreasing_telescopes_to_one(self):
        v = rf.check_variation_bound(rf.make_polynomial([0, 0, 0, 1]), horizon=100_000)
        assert v.verdict == "holds"
        assert v.estimate == pytest.approx(1.0, abs=1e-9)
        # at the default horizon: a wrong join of suffix-sum blocks moves these, not the verdicts
        for seq in (rf.make_exponential(1.5), rf.make_polynomial([1, 3, 3, 1])):
            v = rf.check_variation_bound(seq)
            assert v.verdict == "holds"
            assert v.estimate == pytest.approx(1.0, rel=1e-9)

    def test_example_i_holds(self):
        v = rf.check_variation_bound(example_i(), horizon=200_000)
        assert v.verdict == "holds"
        assert v.estimate < 10.0

    def test_telescoping_upper_bound_for_nondecreasing(self):
        # W(n) sum_k |1/W(k) - 1/W(k+1)| <= 1 for any non-decreasing sequence
        for seq in (
            rf.make_polynomial([0, 0, 1]),
            rf.make_polynomial([2, 1, 0, 4]),
            rf.make_exponential(3.0),
        ):
            v = rf.check_variation_bound(seq, horizon=50_000)
            assert v.estimate <= 1.0 + 1e-9

    def test_alternating_blowup_fails(self):
        seq = rf.make_table(
            [], rf.TailRule((rf.ExpBranch(4.0, 1.0), rf.ExpBranch(0.25, 0.5)))
        )
        lo = rf.check_variation_bound(seq, horizon=60)
        hi = rf.check_variation_bound(seq, horizon=200)
        assert hi.estimate > 1e6 * lo.estimate
        assert hi.verdict == "fails"


class TestRemainderBound:
    def test_example_ii_holds(self):
        v = rf.check_remainder_bound(example_ii(), horizon=100_000)
        assert v.verdict == "holds"

    def test_geometric_estimate_is_two(self):
        v = rf.check_remainder_bound(rf.make_exponential(2.0), horizon=100_000)
        assert v.verdict == "holds"
        assert v.estimate == pytest.approx(2.0, rel=1e-9)

    def test_geometric_estimate_at_the_default_horizon(self):
        # W(n) Rem(n) = rho / (rho - 1) for rho^n
        v = rf.check_remainder_bound(rf.make_exponential(1.5))
        assert v.verdict == "holds"
        assert v.estimate == pytest.approx(3.0, rel=1e-9)

    def test_quadratic_grows_and_fails(self):
        v = rf.check_remainder_bound(rf.make_polynomial([0, 0, 1]), horizon=100_000)
        assert v.verdict == "fails"
        assert v.estimate > 1_000


class TestMdremConditions:
    def test_cubic_both_hold(self):
        r1, r2 = rf.check_mdrem_conditions(rf.make_polynomial([0, 0, 0, 1]))
        assert r1.verdict == "holds"
        assert r2.verdict == "holds"

    def test_geometric_ratio_vanishes(self):
        for rho in (2.0, 1.5):
            r1, r2 = rf.check_mdrem_conditions(rf.make_exponential(rho))
            assert r1.verdict == "holds"
            assert r1.estimate < 1e-30
            # the squared-tail ratio is constant (rho - 1) / (rho + 1) for a geometric sequence
            assert r2.verdict == "fails"
            assert r2.estimate == pytest.approx((rho - 1) / (rho + 1), rel=1e-9)

    def test_barely_summable_ratio_does_not_vanish(self):
        ns = np.arange(400_000, dtype=float)
        table = np.concatenate([[0.0], ns[1:] * np.log(ns[1:] + 2.0) ** 2])
        seq = rf.make_table(table.tolist())
        r1, _ = rf.check_mdrem_conditions(
            seq, horizons=(100, 1_000, 10_000), K_list=(2, 4, 8), horizon=399_000
        )
        assert r1.verdict == "fails"


@pytest.mark.parametrize("check", [rf.check_variation_bound, rf.check_remainder_bound])
@pytest.mark.parametrize("seq, horizon", [
    (rf.make_polynomial([0, 0, 1]), 0),
    (rf.make_table([0, 0, 0, 5, 1, 9], rf.TailRule((rf.PolyBranch((1, 0, 2)),))), 2),
], ids=["below-1", "below-domain-start"])
def test_horizon_below_the_scan_is_named(check, seq, horizon):
    # these once raised numpy's error for a reduction over an empty array
    with pytest.raises(ValueError, match=f"horizon must be at least .*, got {horizon}"):
        check(seq, horizon)


_CHUNKED_SEQS = {
    "(n+1)^3": rf.make_polynomial([1, 3, 3, 1]),
    "example-I": example_i(),
    "1.5^n": rf.make_exponential(1.5),
    "3000^n": rf.make_exponential(3000.0),  # every block on the exact path
    "zeros+table+poly": rf.make_table([0, 0, 0, 5, 1, 9], rf.TailRule((rf.PolyBranch((1, 0, 2)), rf.PolyBranch((3, 1, 1))))),
    "1e300+n^2": rf.make_polynomial([1e300, 0, 1]),
    "n": rf.make_polynomial([0, 1]),
}
_C = rf._CHUNK
_CHUNKED_HORIZONS = [10, 63, 64, 65, _C - 1, _C, _C + 1, 1_000_000]


class TestChunkedWalk:
    """Each check walks log W down from the horizon a chunk at a time.  It is
    compared here with a reference over arrays as long as the horizon: one
    ``_log_suffix_sums`` over the whole scan and one ``np.sum``.  The
    remainder and variation sups must agree bit for bit, wherever the horizon
    falls against the chunks and the suffix-sum blocks."""

    @staticmethod
    def sup_verdict(condition, horizon, start, values, tail_known):
        running = rf._RunningSup(start, horizon)
        running.add(start, values)
        return rf._sup_verdict(condition, horizon, running, tail_known)

    @staticmethod
    def log_tail(seq, horizon, power=1):
        return seq.log_recip_tail(horizon + 1, power) if seq.reciprocal_summable() is True else -math.inf

    @pytest.mark.parametrize("horizon", _CHUNKED_HORIZONS)
    @pytest.mark.parametrize("name", _CHUNKED_SEQS)
    def test_remainder_bound(self, name, horizon):
        seq = _CHUNKED_SEQS[name]
        start = max(1, seq.domain_start)
        logw = seq.log_values(range(start, horizon + 1))
        log_rem, _ = rf._log_suffix_sums(-logw, self.log_tail(seq, horizon))
        want = self.sup_verdict("remainder_bound", horizon, start, log_rem + logw, seq.reciprocal_summable() is True)
        assert rf.check_remainder_bound(seq, horizon) == want

    @pytest.mark.parametrize("horizon", _CHUNKED_HORIZONS)
    @pytest.mark.parametrize("name", _CHUNKED_SEQS)
    def test_variation_bound(self, name, horizon):
        seq = _CHUNKED_SEQS[name]
        start = max(1, seq.domain_start)
        logw = seq.log_values(range(start, horizon + 2))
        low, high = np.minimum(logw[:-1], logw[1:]), np.maximum(logw[:-1], logw[1:])
        with np.errstate(divide="ignore", invalid="ignore"):
            logdiff = -low + np.log1p(-np.exp(low - high))
        logdiff[np.isnan(logdiff)] = -np.inf
        log_tail = None
        if seq.reciprocal_summable() is True:
            # a table's tail counts once each residue class keeps its sign over the final tenth
            width = min(logw.size - 1, max(16, (logw.size - 1) // 10))
            signs = np.sign(np.diff(logw[-width - 1 :]))
            period = len(seq._branches)
            if seq.kind != "table" or all(np.all(signs[r::period] == signs[r]) for r in range(min(period, width))):
                log_tail = rf._log_variation_tail(seq, horizon + 2)
        logv, _ = rf._log_suffix_sums(logdiff, -math.inf if log_tail is None else log_tail)
        want = self.sup_verdict("variation_bound", horizon, start, logv + logw[:-1], log_tail is not None)
        assert rf.check_variation_bound(seq, horizon) == want

    @pytest.mark.parametrize("horizon", _CHUNKED_HORIZONS)
    @pytest.mark.parametrize("name", _CHUNKED_SEQS)
    def test_strong(self, name, horizon):
        seq = _CHUNKED_SEQS[name]
        logw = seq.log_values(range(max(1, seq.domain_start), horizon + 1))
        summable = seq.reciprocal_summable()
        want = float(np.sum(np.exp(-logw))) + (math.exp(self.log_tail(seq, horizon)) if summable else 0.0)
        got = rf.check_strong(seq, horizon)
        assert got.verdict == ("holds" if summable else "fails")
        assert got.estimate == pytest.approx(want, rel=1e-12, abs=0.0)

    @staticmethod
    def rems_from_suffix_sums(seq, start, horizon, points):
        logw = seq.log_values(range(start, horizon + 1))
        rems = [rf._log_suffix_sums(-p * logw, TestChunkedWalk.log_tail(seq, horizon, p))[0] for p in (1, 2)]
        return {n: np.array([rems[0][n - start], rems[1][n - start]]) for n in points}

    # the remainders are read at n and K n, for n on the grid: spread over the
    # scan, and around the 30th chunk boundary below 10^6
    @pytest.mark.parametrize("horizon, grid", [
        *[(h, dict(horizons=(1, 2, max(2, h // 64)), K_list=(2, 4, 16))) for h in _CHUNKED_HORIZONS],
        (1_000_000, {}),
        (1_000_000, dict(horizons=(1_000_001 - 30 * _C - 1, 1_000_001 - 30 * _C, 1_000_001 - 30 * _C + 1), K_list=(2, 4))),
    ])
    @pytest.mark.parametrize("name", [name for name in _CHUNKED_SEQS if name != "n"])
    def test_mdrem_conditions(self, name, horizon, grid, monkeypatch):
        seq = _CHUNKED_SEQS[name]
        got = rf.check_mdrem_conditions(seq, horizon=horizon, **grid)
        monkeypatch.setattr(rf, "_log_rems_at", self.rems_from_suffix_sums)
        want = rf.check_mdrem_conditions(seq, horizon=horizon, **grid)
        assert [v.verdict for v in got] == [v.verdict for v in want]
        assert [v.estimate for v in got] == pytest.approx([v.estimate for v in want], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("check", [
    rf.check_strong, rf.check_variation_bound, rf.check_remainder_bound, rf.check_mdrem_conditions,
])
@pytest.mark.parametrize("seq", [rf.make_polynomial([1, 3, 3, 1]), example_i()], ids=["(n+1)^3", "example-I"])
def test_checks_build_no_array_as_long_as_the_horizon(seq, check):
    # at the default horizon of 10^6 one float array as long as the horizon
    # takes 8 MB; whole-horizon scans peaked at 24-33 MB
    check(seq)  # fills the sequence's cached properties
    tracemalloc.start()
    try:
        check(seq)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * rf.DEFAULT_HORIZON


@pytest.mark.parametrize("seq", [
    rf.make_table([3, 1, 4, 1, 5], example_i().tail),
    rf.make_table([2, 7, 1], rf.TailRule((rf.PolyBranch((1, 0, 2)),))),
    rf.make_polynomial([1, 3, 3, 1]),
    example_i(),
    example_ii(),
    rf.make_table([1, 2], rf.TailRule((rf.PolyBranch((0, 0, 1)), rf.ConstBranch(3.0), rf.ExpBranch(1.1, 2.0)))),
], ids=["table+example-I", "table+poly", "poly", "example-I", "example-II", "table+three-branches"])
def test_vector_evaluation_matches_per_index(seq):
    # a contiguous scan, the range the checks and the simulators' tables
    # read, equals the same indices read one at a time, and so does a scan
    # from a later start: from the domain start, inside the table, at its
    # end, at each residue of the period past it and far out
    end = max(len(seq.table or ()), seq.domain_start)
    period = len(seq.tail.branches) if seq.tail else 1
    starts = {seq.domain_start, 7, 250, 1000, max(end - 2, seq.domain_start)} | {end + r for r in range(period)}
    for start in sorted(starts):
        scan = seq.log_values(range(start, 2999))
        assert np.array_equal(scan[:40], [seq.log_value(n) for n in range(start, start + 40)])
        assert np.array_equal(scan[-40:], [seq.log_value(n) for n in range(2959, 2999)])
        assert np.array_equal(scan[1:], seq.log_values(range(start + 1, 2999)))


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
def test_horner_equals_the_filled_form_bit_for_bit(degree):
    # the filled form: a_m everywhere, then multiply by x and add each lower coefficient
    rng = np.random.default_rng(degree)
    for _ in range(20):
        coeffs = tuple(rng.normal(size=degree + 1) * 10.0 ** rng.integers(-3, 4, degree + 1))
        x = rng.normal(size=200) * 10.0 ** rng.integers(-5, 6, 200)
        filled = np.full_like(x, coeffs[-1])
        for c in reversed(coeffs[:-1]):
            filled *= x
            filled += c
        got = rf._horner(coeffs, x)
        assert got.tobytes() == filled.tobytes()
        assert rf._horner(coeffs, x[0]).shape == ()


class TestLogSuffixSums:
    """``_log_suffix_sums`` against 40-digit sums at sampled indices: its worst
    error is no larger than that of ``np.logaddexp.accumulate``."""

    B = rf._SUFFIX_BLOCK

    @staticmethod
    def worst_errors(x, log_init, idx):
        got, _ = rf._log_suffix_sums(x, log_init)
        accumulated = np.logaddexp.accumulate(np.concatenate(([log_init], x[::-1])))[:0:-1]
        assert got.shape == x.shape
        worst = [0.0, 0.0]
        idx = set(int(i) for i in idx)
        with mpmath.workdps(40):
            total = mpmath.exp(log_init) if log_init > -math.inf else mpmath.mpf(0)
            for j in range(x.size - 1, min(idx) - 1, -1):
                if x[j] > -math.inf:
                    total += mpmath.exp(x[j])
                if j not in idx:
                    continue
                want = mpmath.log(total) if total > 0 else -mpmath.inf
                if mpmath.isinf(want):
                    assert got[j] == accumulated[j] == want
                    continue
                for side, value in enumerate((got[j], accumulated[j])):
                    worst[side] = max(worst[side], float(abs(want - value)))
        return worst

    def check(self, x, log_init=-math.inf, n_sampled=None):
        x = np.asarray(x, dtype=float)
        idx = np.arange(x.size)
        if n_sampled is not None:
            rng = np.random.default_rng(x.size)
            idx = np.concatenate([rng.integers(0, x.size, n_sampled), idx[:: self.B], idx[-self.B - 2 :], [0]])
        blocked, accumulated = self.worst_errors(x, log_init, idx)
        assert blocked <= accumulated

    @pytest.mark.parametrize("log_init", [-math.inf, 2.5])
    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 5 * B + 7])
    def test_short_noise(self, n, log_init):
        self.check(np.random.default_rng(n).normal(0.0, 5.0, n), log_init)

    def test_inverse_cubes(self):
        # -3 log k, the remainder of W = k^3, seeded with the rest of the sum
        n = 10**5 + 3
        self.check(-3.0 * np.log(np.arange(1.0, n + 1)), math.log(0.5) - 2 * math.log(n + 1), n_sampled=300)

    # -k log rho: at rho = 1.5 every block is summed by its cumsum; at log rho =
    # 11.5 and 20 a block's last suffix sums would fall into or below the
    # subnormal range
    @pytest.mark.parametrize("log_rho", [math.log(1.5), 11.5, 20.0])
    def test_geometric(self, log_rho):
        self.check(-np.arange(1.0, 10**4 + 4) * log_rho, n_sampled=300)

    @pytest.mark.parametrize("log_init", [-math.inf, 1.0])
    def test_minus_infinity_holes_and_an_empty_block(self, log_init):
        rng = np.random.default_rng(7)
        x = rng.normal(0.0, 5.0, 10**4 + 3)
        x[rng.random(x.size) < 0.1] = -math.inf
        x[500 : 500 + 3 * self.B] = -math.inf  # holds at least two whole blocks
        x[-5:] = -math.inf
        self.check(x, log_init, n_sampled=300)

    def test_plus_infinity(self):
        x = np.random.default_rng(8).normal(0.0, 5.0, 40 * self.B + 3)
        x[17 * self.B + 5] = math.inf
        self.check(x)

    def test_steep_walk_takes_the_exact_path(self):
        # steps of up to -1000 leave exp(x - block max) far below the subnormal range
        x = np.cumsum(np.random.default_rng(9).uniform(-1000.0, 0.0, 10**4 + 3))
        self.check(x, n_sampled=300)

    def test_calls_seeded_with_the_carry_continue_one_call(self):
        # chunks of whole blocks, cut from the end, over -3 log k (the
        # remainder of k^3) with a steep stretch on the exact path
        x = -3.0 * np.log(np.arange(1.0, 40 * self.B + 8))
        x[5 * self.B : 9 * self.B] -= 900.0 * np.arange(4 * self.B)
        whole, carry = rf._log_suffix_sums(x, 1.0)
        parts, chunk = [], 3 * self.B
        for hi in range(x.size, 0, -chunk):
            part, carry_part = rf._log_suffix_sums(x[max(hi - chunk, 0) : hi], carry_part if parts else 1.0)
            parts.append(part)
        assert np.array_equal(np.concatenate(parts[::-1]), whole)
        assert carry_part == carry

    def test_steep_and_mild_blocks_mixed(self):
        rng = np.random.default_rng(10)
        x = rng.normal(0.0, 5.0, 10**4 + 3)
        x[3000:6000] = x[3000] - 900.0 * np.arange(3000)  # rho^n at rho = e^900
        x[8000:8300] += 600.0 * np.arange(300)  # and rising steeply
        self.check(x, 1.0, n_sampled=300)


def test_log_weight_table_marks_zeros():
    tbl = rf.log_weight_table(rf.make_polynomial([0, 0, 1]), 5)
    assert tbl[0] == -math.inf
    assert tbl[2] == pytest.approx(math.log(4.0))


def _table_or_none(zeros, body, branches):
    try:
        return rf.make_table([0.0] * zeros + body, rf.TailRule(tuple(branches)))
    except ValueError:  # a polynomial branch that is not positive from domain_start on
        return None


_WEIGHT_SEQS = st.one_of(
    st.builds(
        lambda low, lead: rf.make_polynomial([*low, lead]),
        st.lists(st.floats(0.0, 1e3), max_size=3), st.floats(1e-300, 1e300),
    ),
    st.builds(rf.make_exponential, st.floats(1.0, 1e3, exclude_min=True)),
    st.builds(
        _table_or_none,
        st.integers(0, 3),
        st.lists(st.floats(1e-300, 1e300), max_size=5),
        st.lists(
            st.one_of(
                # negative lower coefficients: positive only from some k on
                st.builds(lambda low, lead: rf.PolyBranch((*low, lead)),
                          st.lists(st.integers(-20, 20).map(float), max_size=3), st.floats(1e-3, 1e3)),
                st.builds(rf.ExpBranch, st.floats(1e-3, 1.0), st.floats(1e-300, 1e-250)),
                st.builds(rf.ConstBranch, st.floats(1e-300, 1e300)),
            ),
            min_size=1, max_size=3,
        ),
    ).filter(lambda seq: seq is not None),
)


@given(seq=_WEIGHT_SEQS, nmax=st.integers(0, 3000))
def test_log_weight_table_is_finite_from_domain_start(seq, nmax):
    # every constructor guarantees what the urn kernels rely on without
    # checking: no weight is zero or non-finite from domain_start on
    table = rf.log_weight_table(seq, nmax)
    ds = seq.domain_start
    assert (table[:ds] == -math.inf).all()
    assert np.isfinite(table[ds:]).all()


def test_log_weight_table_rejects_a_non_finite_value(nan_weights_from_300):
    assert np.isfinite(rf.log_weight_table(rf.make_polynomial([0, 1]), 299)[1:]).all()
    with pytest.raises(ConditionViolation, match="not finite at n = 300"):
        rf.log_weight_table(rf.make_polynomial([0, 1]), 300)


class TestFloatRangeEdges:
    def test_alternating_exponential_tail_fails_instead_of_overflowing(self):
        # branch 0 is 2^k, branch 1 a quadratic: the sup of W(n) Rem(n) leaves float range
        seq = rf.make_table([0, 2, 2], rf.TailRule((rf.ExpBranch(2.0), rf.PolyBranch((1, 1, 1)))))
        for check in (rf.check_variation_bound, rf.check_remainder_bound):
            v = check(seq, horizon=10_000)
            assert (v.verdict, v.estimate) == ("fails", math.inf)

    def test_table_spanning_float_range_is_inconclusive(self):
        seq = rf.make_table([0] + [1e-300] * 9 + [1e300] * 3)
        assert rf.check_strong(seq, horizon=10).verdict == "inconclusive"

    def test_reciprocal_sum_beyond_float_range_is_inf(self):
        seq = rf.make_table([], rf.TailRule((rf.ExpBranch(1.00001, 1e-308),)))
        v = rf.check_strong(seq, horizon=1_000_000)
        assert (v.verdict, v.estimate) == ("holds", math.inf)
        value, guaranteed = rf.remainder_detail(seq, 0, horizon=1_000)
        assert (value, guaranteed) == (math.inf, True)

    @pytest.mark.parametrize("coeffs", [[1e-300, 0, 1e-300], [0, 0, 1e200]], ids=["1e-300 (n^2+1)", "1e200 n^2"])
    def test_squared_tail_of_scaled_n2(self, coeffs):
        # a_m^2 leaves float range, but the remainder ratios do not depend on the scale of W
        seq = rf.make_polynomial(coeffs)
        assert rf.check_strong(seq, horizon=10_000).verdict == "holds"
        got = rf.check_mdrem_conditions(seq, horizon=10_000)
        ref = rf.check_mdrem_conditions(rf.make_polynomial([0, 0, 1]), horizon=10_000)
        assert [v.verdict for v in got] == [v.verdict for v in ref]
        rel = 1e-6 if coeffs[0] else 1e-12  # the constant term moves the ratios a little
        assert [v.estimate for v in got] == pytest.approx([v.estimate for v in ref], rel=rel)

    def test_tail_start_near_1e300_is_summed(self):
        # a tail that starts near index 1e300: from K0 = 2e300 on, W = k^2 +
        # 1e300 is beyond float range and the tail is 1/K0
        branch = rf.PolyBranch((1e300, 0, 1))
        assert branch.log_recip_tail(2 * 10**300, 1) == pytest.approx(-math.log(2e300), rel=1e-14)
        assert rf.check_strong(rf.make_polynomial([1e300, 0, 1]), horizon=10_000).verdict == "holds"

    @pytest.mark.parametrize("m", [120, 2000])
    def test_tail_of_a_degree_beyond_float_range(self, m):
        # K^m leaves float range from K = 513 on, where the tail of k^-m is
        # summed from; the reference sums the terms in log space to 10^5
        k = np.arange(513.0, 100_001.0)
        got = rf.PolyBranch((0,) * m + (1,)).log_recip_tail(513, 1)
        assert got == pytest.approx(float(np.logaddexp.reduce(-m * np.log(k))), rel=1e-12)
        # the Euler-Maclaurin terms at K = 513: integral, f(K)/2 and -f'(K)/12
        log_k = math.log(513)
        terms = [(1 - m) * log_k - math.log(m - 1), math.log(0.5) - m * log_k, math.log(m / 12) - (m + 1) * log_k]
        want = float(np.logaddexp.reduce(terms))
        assert rf.PolyBranch((0,) * m + (1,))._log_em_tail(513, 1) == pytest.approx(want, rel=1e-12)


class TestFromJsonErrors:
    @pytest.mark.parametrize("obj, field", [
        ({"kind": "polynomial"}, "coeffs"),
        ({"kind": "polynomial", "coeffs": 5}, "coeffs"),
        ({"kind": "polynomial", "coeffs": [0, "x", 1]}, "coeffs"),
        ({"kind": "exponential", "rho": None}, "rho"),
        ({"kind": "table", "table": [1, 2], "tail": {"branches": [{"exp": {}}]}}, "rho"),
        ({"kind": "table", "table": [1, 2], "tail": {"branches": 3}}, "branches"),
        ({"kind": "table", "table": 7}, "table"),
        ({"kind": "table", "table": [1, float("nan"), 2]}, "table"),
        ({"kind": "exponential", "rho": float("inf")}, "rho"),
        ([1, 2], "sequence"),
    ])
    def test_malformed_field_is_named(self, obj, field):
        with pytest.raises(ValueError, match=field):
            rf.ReinforcementSeq.from_json(obj)


_CHECKS = (
    lambda seq, h: [rf.check_strong(seq, h)],
    lambda seq, h: [rf.check_variation_bound(seq, h)],
    lambda seq, h: [rf.check_remainder_bound(seq, h)],
    lambda seq, h: list(rf.check_mdrem_conditions(seq, horizons=(2, 5), K_list=(2, 4), horizon=h)),
)

_exp_branches = st.builds(rf.ExpBranch, st.floats(1.0, 10.0, exclude_min=True), st.floats(1e-308, 1e308))
# a positive constant term keeps W(0) of the branch positive
_poly_branches = st.builds(
    lambda const, mid, lead: rf.PolyBranch((const, *mid, lead)),
    st.floats(1e-3, 1e3), st.lists(st.floats(0.0, 1e3), max_size=3), st.floats(1e-3, 1e3),
)
_FLOAT_EDGE_SEQS = {
    "exp-tail": st.builds(lambda b: rf.make_table([], rf.TailRule((b,))), _exp_branches),
    "exp-poly-tail": st.builds(
        lambda e, p, swap: rf.make_table([], rf.TailRule((p, e) if swap else (e, p))),
        _exp_branches, _poly_branches, st.booleans(),
    ),
    "table": st.builds(
        lambda head, body: rf.make_table(head + body),
        st.sampled_from([[], [0.0]]),
        st.lists(st.floats(1e-300, 1e300), min_size=12, max_size=120),
    ),
}


@pytest.mark.parametrize("family", _FLOAT_EDGE_SEQS)
@given(data=st.data(), horizon=st.integers(10, 10_000), check=st.sampled_from(_CHECKS))
def test_checks_near_float_range_give_a_verdict_or_a_documented_error(family, data, horizon, check):
    seq = data.draw(_FLOAT_EDGE_SEQS[family])
    if seq.tail is None:
        horizon = min(horizon, len(seq.table) - 2)
    # any other exception fails the test, a RuntimeWarning too under the suite's filter
    try:
        verdicts = check(seq, horizon)
    except (ConditionViolation, ValueError):
        return
    assert all(v.verdict in ("holds", "fails", "inconclusive") for v in verdicts)
