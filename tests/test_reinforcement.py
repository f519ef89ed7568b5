import math

import numpy as np
import pytest

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

    def test_eval_below_domain_start(self):
        seq = example_i()
        with pytest.raises(ValueError):
            seq.value(0)
        seq2 = rf.make_polynomial([0, 0, 1])
        with pytest.raises(ValueError):
            seq2.value(0)

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

    def test_geometric_closed_form(self):
        seq = rf.make_exponential(2.0)
        for k in (1, 3, 10, 40):
            assert rf.remainder(seq, k) == pytest.approx(2.0 ** (1 - k), rel=1e-12)

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
        r1, r2 = rf.check_mdrem_conditions(rf.make_exponential(2.0))
        assert r1.verdict == "holds"
        assert r1.estimate < 1e-30
        # the squared-tail ratio is constant 1/3 for a geometric sequence
        assert r2.verdict == "fails"
        assert r2.estimate == pytest.approx(1.0 / 3.0, rel=1e-6)

    def test_barely_summable_ratio_does_not_vanish(self):
        ns = np.arange(400_000, dtype=float)
        table = np.concatenate([[0.0], ns[1:] * np.log(ns[1:] + 2.0) ** 2])
        seq = rf.make_table(table.tolist())
        r1, _ = rf.check_mdrem_conditions(
            seq, horizons=(100, 1_000, 10_000), K_list=(2, 4, 8), horizon=399_000
        )
        assert r1.verdict == "fails"


@pytest.mark.parametrize("seq", [
    rf.make_table([3, 1, 4, 1, 5], example_i().tail),
    rf.make_table([2, 7, 1], rf.TailRule((rf.PolyBranch((1, 0, 2)),))),
    rf.make_polynomial([1, 3, 3, 1]),
], ids=["table+example-I", "table+poly", "poly"])
def test_vector_evaluation_matches_per_index(seq):
    ns = np.array([9, 0, 4, 2, 1000, 3, 17, 5, 1, 6, 250, 4])
    assert np.array_equal(seq.values(ns), [seq.value(int(n)) for n in ns])
    assert np.array_equal(seq.log_values(ns), [seq.log_value(int(n)) for n in ns])
    tail = ns[ns >= 5]
    assert np.array_equal(seq.values(tail), [seq.value(int(n)) for n in tail])
    assert np.array_equal(seq.log_values(tail), [seq.log_value(int(n)) for n in tail])


def test_log_weight_table_marks_zeros():
    tbl = rf.log_weight_table(rf.make_polynomial([0, 0, 1]), 5)
    assert tbl[0] == -math.inf
    assert tbl[2] == pytest.approx(math.log(4.0))
    lin = rf.weight_table(rf.make_polynomial([0, 0, 1]), 5)
    assert lin[0] == 0.0 and lin[3] == 9.0
