"""Leader-path screening: a screened lockstep ensemble equals the same
ensemble stepped exactly through its kernel, and a screened single run the
same run stepped exactly through the block stepper, bit for bit."""

import contextlib
import dataclasses
import functools
import itertools
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from urnfield import ensembles as ens, reinforcement as rf, urns
from urnfield.cli import main
from urnfield.seeds import derive_seed, stream


def example_i():
    # W(2k) = k^4, W(2k+1) = k^4 - k^3 + 1: not monotone
    return rf.make_table(
        [], rf.TailRule((rf.PolyBranch((0, 0, 0, 0, 1)), rf.PolyBranch((1, 0, 0, -1, 1))))
    )


WEIGHTS = {
    "n^2": rf.make_polynomial([0, 0, 1]),
    "(n+1)^3": rf.make_polynomial([1, 3, 3, 1]),
    "example I": example_i(),
    "2^n": rf.make_exponential(2.0),
    # W(0) = 0, then a dip before the tail (n+1)^2
    "table W(0)=0": rf.make_table([0, 2, 1, 6], rf.TailRule((rf.PolyBranch((1, 2, 1)),))),
}
N2 = WEIGHTS["n^2"]


def failing_screen_of(state):
    """A ``_screen_of`` whose screens pass no row and evaluate no bound."""
    return lambda u, leader, cuts: (np.zeros(len(u), dtype=bool), np.zeros(len(u), dtype=np.int64))


@contextlib.contextmanager
def failed_screens():
    """Every ensemble run fails the screen, so every sub-block steps every
    row in place, and every screen of ``run`` and ``run_coupled`` fails, so
    they step every stretch exactly, in waits that grow to ``_MAX_WAIT``."""
    screened = urns._screened

    def none_pass(arrays, screen, leap, step):
        def fail_all(u):
            ok, leader = screen(u)
            return np.zeros_like(ok), leader

        return screened(arrays, fail_all, leap, step)

    with mock.patch.object(urns, "_screened", none_pass), mock.patch.object(urns, "_screen_of", failing_screen_of):
        yield


@contextlib.contextmanager
def exact_stepping():
    """Every run fails the screen and the resolver decides no draw, so no
    single run plans, and every sub-block steps every row through the
    kernel in place, or through the block stepper: the reference the
    screen, the resolver and the plans must match."""
    with failed_screens(), mock.patch.object(urns, "_resolve", lambda *args: None):
        yield


def assert_same_raw(a, b):
    assert np.array_equal(a.steps, b.steps)
    assert np.array_equal(a.proportions, b.proportions)
    assert np.array_equal(a.last_add, b.last_add)
    assert np.array_equal(a.final_counts, b.final_counts)
    assert np.array_equal(a.seeds, b.seeds)


# counts a few balls apart, and counts ~1024 balls apart: under 2^n that is
# the 709.78 log-gap where exp leaves float range
COUNT = st.integers(0, 12) | st.integers(1015, 1035)


@st.composite
def ensemble_calls(draw, models=("ium", "multicolor", "sequential")):
    """A random ensemble of one of ``models``: model, weights, initial
    state, horizon and record cadence (sub-blocks end at every record
    step)."""
    seq = WEIGHTS[draw(st.sampled_from(sorted(WEIGHTS)))]
    model = draw(st.sampled_from(models))
    tail = dict(
        n_steps=draw(st.integers(1, 200)),
        n_runs=draw(st.integers(1, 12)),
        master_seed=draw(st.integers(0, 2**32)),
        record_every=draw(st.integers(1, 150)),
    )
    if model == "multicolor":
        nc = draw(st.integers(2, 4))
        a = draw(st.lists(COUNT, min_size=nc, max_size=nc))
        args = (seq, nc, a, draw(st.integers(1, 3)))
        return urns.init_multicolor, (nc, a, args[3], seq), urns.run_multicolor_ensemble, args, tail
    d = draw(st.integers(1, 3)) if model == "ium" else 2
    black0 = draw(st.lists(COUNT, min_size=d, max_size=d))
    red0 = draw(st.lists(COUNT, min_size=d, max_size=d))
    if model == "ium":
        p = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
        return urns.init_ium, (d, black0, red0, p, seq), urns.run_ium_ensemble, (seq, p, d, black0, red0), tail
    return urns.init_sequential, (black0, red0, seq), urns.run_sequential_ensemble, (seq, black0, red0), tail


def assume_valid(init, init_args):
    try:
        state = init(*init_args, seed=0)
    except ValueError:
        assume(False)  # an initial state the model rejects
    # an urn without balls has no proportion at step 0
    assume(state.counts.sum() > 0 if init is urns.init_multicolor else (state.black + state.red).all())


@given(call=ensemble_calls())
def test_screened_ensemble_equals_exact_stepping(call):
    init, init_args, engine, args, tail = call
    assume_valid(init, init_args)
    screened = engine(*args, **tail)
    with exact_stepping():
        exact = engine(*args, **tail)
    assert_same_raw(screened, exact)
    assert exact.run_steps_screened == 0
    for raw in (screened, exact):
        assert raw.run_steps_screened + raw.run_steps_exact == tail["n_runs"] * tail["n_steps"]


@settings(max_examples=200)
@given(call=ensemble_calls(models=("ium", "sequential")))
def test_resolved_ium_ensemble_equals_exact_stepping(call):
    # every run fails the screen, so every sub-block goes to the resolver,
    # whose later passes the runs at counts near 1024 reach
    init, init_args, engine, args, tail = call
    assume_valid(init, init_args)
    with failed_screens():
        resolved = engine(*args, **tail)
    with exact_stepping():
        exact = engine(*args, **tail)
    assert_same_raw(resolved, exact)
    assert resolved.run_steps_screened + resolved.run_steps_exact == tail["n_runs"] * tail["n_steps"]


class TestMargin:
    """A uniform inside the leader's interval, but within the relative margin
    of its edge, is stepped exactly: the kernel's rounding decides it.  A
    uniform just beyond the margin passes."""

    INSIDE, BEYOND = 1e-13, 1e-11

    def test_ium(self):
        logw = rf.log_weight_table(N2, 200)
        black, red = np.array([[6, 4]]), np.array([[1, 2]])
        # W is non-decreasing: its floor is W itself, read at the sub-block start
        q = min(urns._share(logw[10], logw[3]), urns._share(logw[6], logw[1]), urns._share(logw[4], logw[2]))
        for rel, passes in ((self.INSIDE, False), (self.BEYOND, True)):
            u = np.zeros((1, 3, 4))
            u[0, 1, 3] = q * (1 - rel)  # urn 2's color uniform at the second step
            ok, to_red = urns._ium_screen(black, red, logw, urns._floor(logw), u)
            assert ok.tolist() == [passes] and to_red.tolist() == [False]

    @pytest.mark.parametrize("edge", ["lower", "upper"])
    def test_ium_resolved_draw(self, edge):
        # urn 2's color uniform at the second step, against its own black
        # share bounded over black counts 4..5 and red counts 2..3
        logw = rf.log_weight_table(N2, 200)
        black, red = np.array([[6, 4]]), np.array([[1, 2]])
        q = urns._share(logw[4], logw[3]) if edge == "lower" else urns._share(logw[5], logw[2])
        for rel, decided in ((self.INSIDE, False), (self.BEYOND, True)):
            u = np.tile([0.9, 0.0], (1, 3, 2))  # urns draw from themselves, and draw black
            u[0, 1, 3] = q * (1 - rel) if edge == "lower" else q * (1 + rel)
            b, r = black.copy(), red.copy()
            with mock.patch.object(urns, "_PASSES", 1):
                added, open_ = urns._resolve(urns._ium(2, 0.5), b, r, logw, u, 2)
            assert open_.tolist() == [[False, not decided, False]]
            kernel_b, kernel_r = black.copy(), red.copy()
            by_kernel = [urns._ium_step(kernel_b, kernel_r, logw, 0.5, u[:, t])[0].tolist() for t in range(3)]
            assert added[0].tolist() == by_kernel
            assert np.array_equal(b, kernel_b) and np.array_equal(r, kernel_r)

    @pytest.mark.parametrize("edge", ["lower", "upper"])
    def test_sequential_resolved_draw(self, edge):
        # urn 1's uniform at the second step, against its black count 2..3
        # and the pooled red count 11..14 (the three draws before it)
        logw = rf.log_weight_table(N2, 200)
        black, red = np.array([[2, 2]]), np.array([[6, 5]])
        q = urns._share(logw[2], logw[14]) if edge == "lower" else urns._share(logw[3], logw[11])
        for rel, decided in ((self.INSIDE, False), (self.BEYOND, True)):
            u = np.zeros((1, 3, 2))  # every other draw is black
            u[0, 1, 1] = q * (1 - rel) if edge == "lower" else q * (1 + rel)
            b, r = black.copy(), red.copy()
            with mock.patch.object(urns, "_PASSES", 1):
                added, open_ = urns._resolve(urns._sequential(0), b, r, logw, u, 2)
            assert open_.tolist() == [[False, not decided, False]]
            kernel_b, kernel_r = black.copy(), red.copy()
            by_kernel = [urns._sequential_step(kernel_b, kernel_r, logw, u[:, t])[0].tolist() for t in range(3)]
            assert added[0].tolist() == by_kernel
            assert np.array_equal(b, kernel_b) and np.array_equal(r, kernel_r)

    def test_sequential(self):
        logw = rf.log_weight_table(N2, 200)
        black, red = np.array([[2, 3]]), np.array([[6, 5]])
        # red path: urn 1 first sees the pooled red count 12, which only grows
        q = max(urns._share(logw[2], logw[11]), urns._share(logw[3], logw[12]))
        for rel, passes in ((self.INSIDE, False), (self.BEYOND, True)):
            u = np.full((1, 2, 2), 0.9)
            u[0, 0, 1] = q * (1 + rel)
            ok, to_red = urns._sequential_screen(black, red, logw, urns._floor(logw), u)
            assert ok.tolist() == [passes] and to_red.tolist() == [True]

    @pytest.mark.parametrize("edge", ["lower", "upper"])
    def test_multicolor_middle_color(self, edge):
        logw = rf.log_weight_table(N2, 200)
        counts = np.array([[2, 9, 3]])
        w = np.exp(logw[counts[0]] - logw[counts[0]].max())
        cut = np.cumsum(w / w.sum())
        for rel, passes in ((self.INSIDE, False), (self.BEYOND, True)):
            u = np.full((1, 2, 2), (cut[0] + cut[1]) / 2)
            u[0, 1, 0] = cut[0] * (1 + rel) if edge == "lower" else cut[1] * (1 - rel)
            ok, leader = urns._multicolor_screen(counts, logw, urns._floor(logw), u)
            assert ok.tolist() == [passes] and leader.tolist() == [1]
            # the block stepper gives every ball of the sub-block to the leader
            state = urns.init_multicolor(3, counts[0], 2, N2, seed=1)
            urns._multicolor_steps(state, u[0].tolist(), 0, [0] * 3)
            assert state.counts.tolist() == [2, 13, 3]


def counted_passes(mech):
    """``mech`` with a ``decide`` whose ``bounds`` log the draws each call
    bounds: one call a pass of ``_resolve``."""
    passes = []

    def decide(*args):
        color, bounds = mech.decide(*args)

        def counted(c, at):
            passes.append(color[at].size)
            return bounds(c, at)

        return color, counted

    return dataclasses.replace(mech, decide=decide), passes


def kernel_increments(mech, black, red, logw, u):
    """Each step's black balls per urn (rows, steps, urns), stepping every
    step of ``u`` through the kernel from copies of ``black`` and ``red``."""
    b, r = black.copy(), red.copy()
    return np.stack([mech.kernel(b, r, logw, u[:, t]) for t in range(u.shape[1])], axis=1)


@pytest.mark.parametrize("mech, d", [(urns._ium(1, 0.2), 1), (urns._ium(2, 0.2), 2), (urns._ium(3, 0.5), 3),
                                     (urns._sequential(0), 2), (urns._sequential(1), 2)])
def test_resolve_stops_after_a_pass_that_decides_under_half(mech, d):
    # at one or two balls per urn the share bounds over a sub-block span
    # most of [0, 1]: the first pass decides under half of its draws, so it
    # is the only one
    rng = np.random.default_rng(d)
    logw = rf.log_weight_table(N2, 400)
    black, red = rng.integers(1, 3, (20, d)), rng.integers(1, 3, (20, d))
    u = rng.random((20, urns._SUB_BLOCK, mech.per_step))
    counted, passes = counted_passes(mech)
    b, r, b1, r1 = black.copy(), red.copy(), black.copy(), red.copy()
    added, open_ = urns._resolve(counted, b, r, logw, u, 0)
    with mock.patch.object(urns, "_PASSES", 1):
        added_1, open_1 = urns._resolve(mech, b1, r1, logw, u, 0)
    assert len(passes) == 1
    assert np.array_equal(added, added_1) and np.array_equal(open_, open_1)
    assert np.array_equal(b, b1) and np.array_equal(r, r1)
    assert np.array_equal(added, kernel_increments(mech, black, red, logw, u))


def test_later_passes_decide_mixed_limit_draws():
    # runs at W = n^2, p = 0.2 after 1000 steps, near 1000 balls per urn,
    # each urn holding both colors: the first pass leaves the minority
    # draws open, and the passes after it decide most of them
    raw = urns.run_ium_ensemble(N2, 0.2, 2, (1, 1), (1, 1), 1000, 40, 7, record_every=1000)
    mixed = ((raw.proportions[:, -1] > 0.02) & (raw.proportions[:, -1] < 0.98)).all(axis=1)
    black, red = raw.final_counts[mixed, :2], raw.final_counts[mixed, 2:]
    assert len(black) >= 5
    logw = rf.log_weight_table(N2, 5000)
    u = np.random.default_rng(3).random((len(black), urns._SUB_BLOCK, 4))
    mech = urns._ium(2, 0.2)
    counted, passes = counted_passes(mech)
    added, open_ = urns._resolve(counted, black.copy(), red.copy(), logw, u, 0)
    with mock.patch.object(urns, "_PASSES", 1):
        _, open_1 = urns._resolve(mech, black.copy(), red.copy(), logw, u, 0)
    assert 2 <= len(passes) <= urns._PASSES and all(2 * b <= a for a, b in zip(passes, passes[1:]))
    assert np.count_nonzero(open_) < np.count_nonzero(open_1)
    assert np.array_equal(added, kernel_increments(mech, black, red, logw, u))


def test_later_passes_leave_a_phase_scan_point_unchanged():
    # a phase-scan point in the mixed-limit regime: the passes after the
    # first change nothing but the counters, and decide no fewer run-steps
    args = (N2, 0.2, 2, (1, 1), (1, 1), 1000, 50, 2025)
    passes = urns.run_ium_ensemble(*args, record_every=50)
    with mock.patch.object(urns, "_PASSES", 1):
        one = urns.run_ium_ensemble(*args, record_every=50)
    assert_same_raw(passes, one)
    assert passes.run_steps_screened >= one.run_steps_screened


def test_floor_of_every_table():
    # floor[n] is the least log W from count n to the table's end, so it
    # bounds log W along any path from n, whatever its stride; a
    # non-decreasing table is its own floor.  Weights drawn at
    # random to 300: the least of a suffix can lie anywhere in it
    drawn = rf.make_table(np.random.default_rng(0).uniform(0.5, 2.0, 301).tolist())
    monotone = []
    for seq in (*WEIGHTS.values(), drawn):
        logw = rf.log_weight_table(seq, 300)
        floor = urns._floor(logw)
        assert np.array_equal(floor, [logw[n:].min() for n in range(logw.size)]), seq.to_json()
        monotone.append(all(a <= b for a, b in zip(logw.tolist(), logw[1:].tolist())))
        if monotone[-1]:
            assert floor is logw, seq.to_json()  # bit for bit, with no second array
    assert monotone == [True, True, False, True, False, False]  # example I and both tables dip


PATH_MECHS = {
    **{f"ium d={d}": (urns._ium(d, 0.5), (d, d)) for d in (1, 2, 3)},
    **{f"sequential first={first}": (urns._sequential(first), (2, 2)) for first in (0, 1)},
    **{f"multicolor nc={nc} d={d}": (urns._multicolor(d), (nc,)) for nc in (2, 3) for d in (1, 2)},
}


def random_leaders(rng, widths, rows):
    """Leaders as the screens give them: whether each row goes red for a
    black/red mechanism, a color for the multicolor urn."""
    if len(widths) == 2:
        return rng.random(rows) < 0.5
    return rng.integers(0, widths[0], rows)


@pytest.mark.parametrize("name", PATH_MECHS)
def test_row_wise_leader_path_equals_each_rows_own(name):
    # rows, each with its own leader and its own step count, move as each
    # row's single state does along its leader's path
    mech, widths = PATH_MECHS[name]
    rng = np.random.default_rng(sum(map(ord, name)))
    rows = 8
    arrays = [rng.integers(0, 50, (rows, w)) for w in widths]
    leaders = random_leaders(rng, widths, rows)
    for t in (np.full((rows, 1), 64), rng.integers(0, 5000, (rows, 1))):
        moved = mech.path(*arrays, leaders[:, None], t)
        for r in range(rows):
            length = int(t[r, 0])
            alone = mech.path(*(a[r] for a in arrays), leaders.tolist()[r], np.array([[length]]))
            assert [m[r].tolist() for m in moved] == [a[0].tolist() for a in alone], (r, length)
            alone = mech.path(*(a[r] for a in arrays), leaders.tolist()[r], length)  # a lone step count
            assert [m[r].tolist() for m in moved] == [a.tolist() for a in alone], (r, length)
    assert sum(m.sum() for m in moved) > sum(a.sum() for a in arrays)


@pytest.mark.parametrize("engine, args, widths", [
    (urns.run_ium_ensemble, (N2, 0.5, 3, (1, 2, 3), (3, 2, 1)), (3, 3)),
    (urns.run_sequential_ensemble, (N2, (1, 2), (2, 1)), (2, 2)),
    (urns.run_multicolor_ensemble, (N2, 3, (1, 2, 3), 2), (3,)),
], ids=["ium", "sequential", "multicolor"])
def test_ensemble_leap_moves_only_passing_rows_along_their_leaders(engine, args, widths):
    # the leap ``_ensemble`` hands ``_screened``, called on chosen rows: the
    # passing rows move along their leader's path, and ``last_add`` changes
    # only in each passing row's leader column
    captured, screened = {}, urns._screened

    def capture(arrays, screen, leap, step):
        captured.update(arrays=arrays, leap=leap)
        return screened(arrays, screen, leap, step)

    rows = 8
    with mock.patch.object(urns, "_screened", capture):
        engine(*args, 0, rows, 1)
    *counts, last_add = captured["arrays"]
    last_add[:] = 7
    before = [c.copy() for c in counts]
    rng = np.random.default_rng(len(widths))
    ok, leaders = rng.random(rows) < 0.6, random_leaders(rng, widths, rows)
    ok[:2] = True, False
    captured["leap"](ok, leaders, 90, 10)
    d = args[-1] if len(widths) == 1 else 1  # balls a step each color on the path gains
    for r in range(rows):
        column = int(leaders[r])
        if len(widths) == 2:  # every urn's black or red count grows
            grown = [before[c][r] + 10 * ok[r] * (column == c) for c in (0, 1)]
        else:
            grown = [before[0][r] + d * 10 * ok[r] * (np.arange(widths[0]) == column)]
        assert [c[r].tolist() for c in counts] == [g.tolist() for g in grown], r
        want = [7] * last_add.shape[1]
        if ok[r]:
            want[column] = 90
        assert last_add[r].tolist() == want, r


def reachable_shares(model, k, logw, black, red, t, urn):
    """The black shares urn ``urn`` of a run from ``black`` and ``red`` can
    draw with at step ``t``, over every state the run can reach by then:
    its own, then the pooled ones (None for the sequential process).  ``k``
    is d for the interacting urns and urn ``first`` for the sequential
    process."""
    if model == "ium":
        d = k
        own = [urns._share(logw[black[urn] + j], logw[red[urn] + t - j]) for j in range(t + 1)]
        pooled = [urns._share(logw[black.sum() + j], logw[red.sum() + d * t - j]) for j in range(d * t + 1)]
        return own, pooled
    other = t + (urn != k)  # the other urn's draws before this one
    return [urns._share(logw[black[urn] + j], logw[red.sum() + t - j + r])
            for j in range(t + 1) for r in range(other + 1)], None


@pytest.mark.parametrize("model, k", [("ium", 1), ("ium", 2), ("ium", 3), ("sequential", 0), ("sequential", 1)])
def test_decide_bounds_enclose_every_reachable_share(model, k):
    # on a non-decreasing table, a draw's black share at every count its
    # run can reach by that step lies between the shares at the counts the
    # unrefined bounds give; refined with any subset of the draws of a path,
    # the bounds hold the counts that path weighs, and with every draw they
    # give an urn's own black count, or the pooled one, exactly
    rng = np.random.default_rng(k + 10 * (model == "ium"))
    drawn = rf.make_table(np.sort(rng.uniform(0.5, 50.0, 400)).tolist())
    d, n, rows = (k if model == "ium" else 2), 9, 3
    mech = urns._ium(d, 0.5) if model == "ium" else urns._sequential(k)
    for seq in (N2, W3, WEIGHTS["2^n"], drawn):
        logw = rf.log_weight_table(seq, 399)
        black, red = rng.integers(1, 30, (rows, d)), rng.integers(1, 30, (rows, d))
        u = rng.random((rows, n, mech.per_step))
        color, bounds = mech.decide(black, red, u)
        x, y = bounds(None, slice(None))
        lo, hi = urns._share(logw[x[0]], logw[y[0]]), urns._share(logw[x[1]], logw[y[1]])
        for r, i, t in itertools.product(range(rows), range(d), range(n)):
            f = (r * d + i) * n + t
            own, pooled = reachable_shares(model, k, logw, black[r], red[r], t, i)
            shares = pooled if model == "ium" and u[r, t, 2 * i] < 0.5 else own
            assert lo[f] <= min(shares) and max(shares) <= hi[f], (seq.to_json(), r, i, t)
        # a path through the kernel, and its draws' colors decided at random
        b, rd, added = black.copy(), red.copy(), []
        for t in range(n):
            added.append(mech.kernel(b, rd, logw, u[:, t]))
        added = np.stack(added, axis=2)  # (rows, d, n): each urn's black ball at each step
        own = black[:, :, None] + np.cumsum(added, axis=2) - added  # each urn's black count before each step
        if model == "ium":
            pooled = (u[:, :, 0::2] < 0.5).transpose(0, 2, 1)
            weighed = np.where(pooled, own.sum(axis=1, keepdims=True), own).ravel()
        else:
            weighed, reds = own.ravel(), 1 - added
            red_before = red.sum(axis=1)[:, None, None] + (np.cumsum(reds, axis=2) - reds).sum(axis=1, keepdims=True)
            second = np.arange(d) != k  # the urn drawing second also sees the first one's draw of the step
            red_before = (red_before + reds[:, k:k + 1] * second[:, None]).ravel()
        for decided in (rng.random((rows, d, n)) < 0.5, True):
            won = np.stack([added, 1 - added]) * decided
            x, y = bounds(np.cumsum(won, axis=3) - won, np.arange(color.size))
            assert (x[0] <= weighed).all() and (weighed <= x[1]).all()
            if model == "sequential":
                assert (y[1] <= red_before).all() and (red_before <= y[0]).all()
        assert (x[0] == x[1]).all()


def test_single_run_whose_window_passes_the_table_end():
    # the table is sized to the run's reach, count 622; the last
    # sub-blocks, from counts up to 600, screen against the floor of the
    # entries left at its end
    states = [urns.init_multicolor(2, (220, 1), 1, WEIGHTS["example I"], seed=9) for _ in range(2)]
    screened = urns.run(states[0], 400, 20)
    with exact_stepping():
        exact = urns.run(states[1], 400, 20)
    assert states[0].logw.table.size == 623
    assert screened.run_steps_screened == 400
    assert_same_trajectory(screened, exact)
    assert_same_state(states[0], states[1])


class TestCounters:
    @pytest.mark.parametrize("model", ["ium", "multicolor", "sequential", "embedding"])
    def test_run_steps_add_up(self, model):
        cfg = ens.EnsembleConfig(model=model, seq=N2, n_steps=300, n_runs=20, seed=4,
                                 p=0.6 if model == "ium" else 0.0, record_every=70)
        rep = ens.run_ensemble(cfg)
        assert rep.run_steps_screened + rep.run_steps_exact == 20 * 300
        assert (rep.run_steps_screened > 0) == (model != "embedding")

    def test_exact_run_steps_are_the_kernel_steps(self):
        # ium runs headed for the mixed cells, and sequential runs before
        # they settle, fail the screen; the resolver decides most of their
        # draws and steps the rest through the kernel
        for name, engine, args in (("_ium_step", urns.run_ium_ensemble, (N2, 0.2, 2, (1, 1), (1, 1))),
                                   ("_sequential_step", urns.run_sequential_ensemble, (N2, (1, 1), (1, 1)))):
            kernel, stepped = getattr(urns, name), []

            def counting(black, *args):
                stepped.append(len(black))
                return kernel(black, *args)

            with mock.patch.object(urns, name, counting):
                raw = engine(*args, 3000, 40, 2025, record_every=100)
            assert raw.run_steps_exact == sum(stepped) > 0
            assert raw.run_steps_screened + raw.run_steps_exact == 40 * 3000

    def test_counters_are_python_ints(self):
        # as Trajectory, EnsembleRaw and McReport declare them: numpy's
        # counts of decided steps are np.int64 until cast
        ti, ts, _ = urns.run_coupled((1, 1), (1, 1), 0.2, N2, 0, 3000, 100)
        planned = urns.run(urns.init_ium(2, (1, 1), (1, 1), 0.2, W3_EXACT, 3), 3000, 100)
        outs = [ti, ts, planned]
        for model in ("ium", "multicolor", "sequential", "embedding"):
            cfg = ens.EnsembleConfig(model=model, seq=N2, n_steps=300, n_runs=20, seed=4,
                                     p=0.2 if model == "ium" else 0.0, record_every=70)
            outs.append(ens.run_ensemble(cfg))
        outs += [urns.run_ium_ensemble(N2, 0.2, 2, (1, 1), (1, 1), 300, 20, 4),
                 urns.run_multicolor_ensemble(N2, 3, (1, 1, 1), 2, 300, 20, 4),
                 urns.run_sequential_ensemble(N2, (1, 1), (1, 1), 300, 20, 4)]
        assert 0 < planned.run_steps_screened < 3000
        for out in outs:
            assert type(out.run_steps_screened) is int and type(out.run_steps_exact) is int, out

    def test_strong_multicolor_is_mostly_screened(self):
        raw = urns.run_multicolor_ensemble(WEIGHTS["(n+1)^3"], 3, (1, 1, 1), 2, 4000, 200, 4040, record_every=1000)
        assert raw.run_steps_screened > 0.9 * 200 * 4000

    def test_report_and_runs_csv_bytes_unchanged(self, tmp_path):
        cfg = {
            "schema": 1, "model": "multicolor", "seq": {"kind": "polynomial", "coeffs": [1, 3, 3, 1]},
            "nc": 3, "a": [1, 1, 1], "d": 2, "n_steps": 1500, "n_runs": 60, "seed": 73, "record_every": 100,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        outs = {}
        for name, ctx in (("screened", contextlib.nullcontext()), ("exact", exact_stepping())):
            out = tmp_path / f"{name}.json"
            with ctx:
                assert main(["mc", "--config", str(path), "--out", str(out), "--runs-csv"]) == 0
            manifest = json.loads((tmp_path / f"{name}.json.manifest.json").read_text())["arguments"]
            outs[name] = out.read_bytes(), (tmp_path / f"{name}.runs.csv").read_bytes(), manifest
        (rep, runs, manifest), (rep_exact, runs_exact, manifest_exact) = outs["screened"], outs["exact"]
        assert rep == rep_exact and runs == runs_exact
        assert b"run_steps" not in rep
        assert manifest["run_steps_screened"] + manifest["run_steps_exact"] == 60 * 1500
        assert manifest["run_steps_screened"] > 0 and manifest_exact["run_steps_screened"] == 0


W3 = WEIGHTS["(n+1)^3"]


# at p = 0.8 every ium run settles, so every standalone run leaps as well
@pytest.mark.parametrize("engine, args, init", [
    (urns.run_ium_ensemble, (W3, 0.8, 2, (1, 1), (1, 1)), lambda seed: urns.init_ium(2, (1, 1), (1, 1), 0.8, W3, seed)),
    (urns.run_multicolor_ensemble, (W3, 3, (1, 1, 1), 2), lambda seed: urns.init_multicolor(3, (1, 1, 1), 2, W3, seed)),
    (urns.run_sequential_ensemble, (W3, (1, 1), (1, 1)), lambda seed: urns.init_sequential((1, 1), (1, 1), W3, seed)),
], ids=["ium", "multicolor", "sequential"])
def test_screened_runs_reproduce_standalone_runs(engine, args, init):
    # run i of a screened ensemble is still the scalar run at its derived
    # seed, with the ensemble's leap and the state's leap both taken
    raw = engine(*args, 600, 8, 31, record_every=200)
    assert raw.run_steps_screened > 0
    for i in range(8):
        tr = urns.run(init(derive_seed(31, i)), 600, 200, record_counts=True)
        assert tr.run_steps_screened > 0
        assert np.array_equal(raw.proportions[i], tr.proportions)
        assert raw.last_add[i].tolist() == tr.last_change.tolist()
        assert raw.final_counts[i].tolist() == tr.counts[-1].tolist()


# ---------------------------------------------------------------------------
# single runs: ``run`` screens a state's sub-blocks against the leader path
# and steps the others through the block stepper


def assert_same_trajectory(a, b):
    for name in ("steps", "proportions", "color_totals", "counts", "last_change"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None and y is None) or np.array_equal(x, y, equal_nan=True), name


def assert_same_state(a, b):
    for name in ("black", "red", "counts"):
        if hasattr(a, name):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert [getattr(a, k, None) for k in ("n", "substep")] == [getattr(b, k, None) for k in ("n", "substep")]
    assert a.rng.bit_generator.state == b.rng.bit_generator.state


@settings(max_examples=200)
@given(
    call=ensemble_calls(), n=st.integers(0, 600), record_counts=st.booleans(), split=st.integers(0, 600),
    odd=st.booleans(),
)
def test_screened_run_equals_exact_stepping(call, n, record_counts, split, odd):
    init, init_args, _, _, tail = call
    try:
        states = [init(*init_args, seed=tail["master_seed"]) for _ in range(3)]
    except ValueError:
        assume(False)  # an initial state the model rejects
    if odd and init is urns.init_sequential:
        for state in states:
            urns.step_sequential(state)  # urn 1 draws first from here on
    every = tail["record_every"]
    screened = urns.run(states[0], n, every, record_counts)
    with exact_stepping():
        exact = urns.run(states[1], n, every, record_counts)
    assert_same_trajectory(screened, exact)
    assert_same_state(states[0], states[1])
    assert exact.run_steps_screened == 0
    for tr in (screened, exact):
        assert tr.run_steps_screened + tr.run_steps_exact == n

    # two consecutive calls, the first ending at a record step, equal one call
    first = every * (split % (n // every + 1))
    head = urns.run(states[2], first, every, record_counts)
    rest = urns.run(states[2], n - first, every, record_counts)
    joined = urns.Trajectory(
        steps=np.concatenate([head.steps, rest.steps[1:] + first]),
        proportions=np.concatenate([head.proportions, rest.proportions[1:]]),
        color_totals=np.concatenate([head.color_totals, rest.color_totals[1:]]),
        counts=np.concatenate([head.counts, rest.counts[1:]]) if record_counts else None,
        last_change=np.where(rest.last_change > 0, rest.last_change + first, head.last_change),
    )
    assert_same_trajectory(joined, screened)
    assert_same_state(states[2], states[0])


def test_sequential_screen_when_urn_1_draws_first():
    # red path with urn 1 ahead in black balls: drawing first, urn 1 sees the
    # pooled red count 11, where its black share is largest
    logw = rf.log_weight_table(N2, 200)
    floor = urns._floor(logw)
    black, red = np.array([[2, 4]]), np.array([[6, 5]])
    q_first = urns._share(logw[4], logw[11])  # urn 1 at pooled red 11
    q_second = urns._share(logw[2], logw[12])  # urn 0 at pooled red 12
    assert q_first > max(q_second, urns._share(logw[2], logw[11]), urns._share(logw[4], logw[12]))
    u = np.full((1, 2, 2), 0.99)
    u[0, 0, 0] = q_first * (1 - 1e-9)  # urn 1's first uniform: black when urn 1 draws first
    ok, _ = urns._sequential_screen(black, red, logw, floor, u, first=1)
    assert ok.tolist() == [False]
    # with urn 0 first the same uniform clears every bound on the red path
    ok, _ = urns._sequential_screen(black, red, logw, floor, u)
    assert ok.tolist() == [True]
    u[0, 0, 0] = q_first * (1 + 1e-9)
    ok, to_red = urns._sequential_screen(black, red, logw, floor, u, first=1)
    assert ok.tolist() == [True] and to_red.tolist() == [True]


class TestRunCounters:
    SIM = ["simulate", "--model", "multicolor", "--m", "3", "--nc", "3", "--a", "1,1,1", "--d", "2"]

    def simulate(self, tmp_path, steps, every, name="out.csv"):
        out = tmp_path / name
        argv = self.SIM + ["--steps", str(steps), "--record-every", str(every), "--seed", "7", "--out", str(out)]
        assert main(argv) == 0
        return out.read_bytes(), json.loads((tmp_path / f"{name}.manifest.json").read_text())["arguments"]

    def test_strong_multicolor_run_is_mostly_screened(self, tmp_path):
        blob, args = self.simulate(tmp_path, 20_000, 100)
        assert args["run_steps_screened"] + args["run_steps_exact"] == 20_000
        assert args["run_steps_screened"] > 0.9 * 20_000
        assert b"run_steps" not in blob
        with exact_stepping():
            exact_blob, exact_args = self.simulate(tmp_path, 20_000, 100, "exact.csv")
        assert exact_blob == blob and exact_args["run_steps_screened"] == 0

    def test_screened_at_every_step(self, tmp_path):
        # at --record-every 1 every sub-block is one step long, and each is
        # screened, in stacks once the run passes
        blob, args = self.simulate(tmp_path, 500, 1)
        assert args["run_steps_screened"] + args["run_steps_exact"] == 500
        assert args["run_steps_screened"] > 0.8 * 500
        with exact_stepping():
            exact_blob, exact_args = self.simulate(tmp_path, 500, 1, "exact.csv")
        assert exact_blob == blob and exact_args["run_steps_screened"] == 0

    def test_short_runs_reuse_the_weight_table(self):
        state = urns.init_ium(2, (1, 1), (1, 1), 0.2, WEIGHTS["(n+1)^3"], seed=3)
        urns.run(state, 20_000, 1000)
        with mock.patch.object(urns, "log_weight_table", wraps=urns.log_weight_table) as built:
            for _ in range(200):
                urns.run(state, 20, 20)
        assert built.call_count <= 1  # the table at most doubles once over 4000 steps


# ---------------------------------------------------------------------------
# stacked screens: after a pass, ``run`` and ``run_coupled`` screen the
# sub-blocks ahead in one call, each row along the leader path


@contextlib.contextmanager
def one_row_screens():
    """``run`` and ``run_coupled`` screen one sub-block a call, at the state
    the run has reached: the cadence and the counters the stacked screen
    must keep.  The screen ``_paced`` is given screens only the first row
    of each stack, so every row after it is screened anew."""
    paced = urns._paced

    def one_row_paced(screen, leap, exact):
        return paced(lambda u, leader, cuts: screen(u[:1], leader, cuts[:2]), leap, exact)

    with mock.patch.object(urns, "_paced", one_row_paced):
        yield


@contextlib.contextmanager
def screen_log():
    """Logs each call of the screen that ``_paced`` is given: the steps that
    bound its rows, the leader they were built along, and what each row
    decided."""
    log, paced = [], urns._paced

    def logged_paced(screen, leap, exact):
        now = [0]

        def logged(u, leader, cuts):
            ok, leaders = screen(u, leader, cuts)
            log.append(((now[0] + cuts).tolist(), leader, ok.tolist(), leaders.tolist()))
            return ok, leaders

        advance, counters = paced(logged, leap, exact)

        def tracked(start, block, cuts, i):
            now[0] = start + cuts[i]
            return advance(start, block, cuts, i)

        return tracked, counters

    with mock.patch.object(urns, "_paced", logged_paced):
        yield log


STACK_INITS = {
    "ium": lambda seq, seed: urns.init_ium(2, (1, 2), (2, 1), 0.5, seq, seed),
    "multicolor": lambda seq, seed: urns.init_multicolor(3, (5, 6, 6), 2, seq, seed),
    "sequential": lambda seq, seed: urns.init_sequential((1, 2), (2, 1), seq, seed),
}


def assert_stacked_run_equals_exact_stepping(model, seq, record_every, n_steps):
    """Runs ``model`` stacked, with one-row screens and stepping exactly;
    checks they agree and returns the stacked run's screen log."""
    init = functools.partial(STACK_INITS[model], WEIGHTS[seq], 11)
    runs = []
    for ctx in (screen_log(), one_row_screens(), exact_stepping()):
        state = init()
        with ctx as log:
            runs.append((urns.run(state, n_steps, record_every, record_counts=True), state, log))
    (stacked, state, log), (one_row, state_1, _), (exact, state_x, _) = runs
    for tr, st in ((one_row, state_1), (exact, state_x)):
        assert_same_trajectory(stacked, tr)
        assert_same_state(state, st)
    for name in ("run_steps_screened", "run_steps_exact"):
        assert getattr(stacked, name) == getattr(one_row, name), name
    assert exact.run_steps_screened == 0 and stacked.run_steps_screened > 0.5 * n_steps
    return log


@pytest.mark.parametrize("record_every", [17, 70, 100, 140])
@pytest.mark.parametrize("seq", ["(n+1)^3", "example I"])
@pytest.mark.parametrize("model", STACK_INITS)
def test_stacked_run_equals_exact_stepping(model, seq, record_every):
    # rows of unequal length (64 and 36 steps at 100), short rows inside a
    # stack (6 steps at 70, 12 at 140), a drawn block
    # that ends at step 4096, and, under example I from nearly tied counts,
    # runs that change leader before they settle
    log = assert_stacked_run_equals_exact_stepping(model, seq, record_every, 4500)
    # stacks that pass whole double the next past the first stack's _STACK
    # rows, short rows and all
    assert max(len(ok) for _, _, ok, _ in log) > urns._STACK
    if record_every == 100:  # a stack that meets the end of the first drawn block
        assert any(cuts[-1] == 4096 and len(cuts) > 2 for cuts, _, _, _ in log)


@pytest.mark.parametrize("record_every", [17, 100])
@pytest.mark.parametrize("seq", ["(n+1)^3", "example I"])
@pytest.mark.parametrize("model", STACK_INITS)
def test_grown_stack_meets_a_drawn_blocks_end(model, seq, record_every):
    # stacks that pass whole grow past _STACK rows until the end of a drawn
    # block, at step 4096 or 8192, cuts one short (at 100 the first block
    # ends a stack of 20-30 rows and the second one of 82)
    log = assert_stacked_run_equals_exact_stepping(model, seq, record_every, 9000)
    assert max(len(ok) for cuts, _, ok, _ in log if cuts[-1] in (4096, 8192)) > urns._STACK


def test_one_row_screens_screen_one_row_a_call():
    for call in (lambda: urns.run(STACK_INITS["ium"](W3, 11), 9000, 100),
                 lambda: urns.run_coupled((1, 1), (1, 1), 0.8, N2, 1, 9000, 100)):
        with screen_log() as log:
            call()
        assert max(len(ok) for _, _, ok, _ in log) > urns._STACK
        with one_row_screens(), screen_log() as log:
            call()
        assert len(log) > 100 and all(len(ok) == 1 for _, _, ok, _ in log)


class Replay:
    """A stream that hands out given uniforms in order."""

    def __init__(self, values):
        self.values, self.at = np.asarray(values, dtype=float), 0

    def random(self, out):
        out[:] = self.values[self.at:self.at + out.size]
        self.at += out.size


def test_a_row_that_passes_with_another_leader_ends_the_stack():
    # W falls from 10 to 1 at count 40, below the 5 of color 1 at count 100.
    # Color 0 takes the first 40 balls, in two sub-blocks; the stack along
    # its path then holds a row at counts (40, 100), where color 1 leads
    # and passes, and the rows after it lie on color 0's path
    seq = rf.make_table([10.0] * 40 + [1.0] * 60 + [5.0] * 300)
    uniforms = [1e-9] * 40 + [1 - 1e-9] * 160
    runs = []
    for ctx in (screen_log(), one_row_screens(), exact_stepping()):
        state = urns.init_multicolor(2, (0, 100), 1, seq, seed=0)
        state.rng = Replay(uniforms)
        with ctx as log:
            runs.append((urns.run(state, 200, 20, record_counts=True), state, log))
    (stacked, state, log), (one_row, state_1, _), (exact, state_x, _) = runs
    assert exact.counts[-1].tolist() == [40, 260]
    for tr, st in ((one_row, state_1), (exact, state_x)):
        assert_same_trajectory(stacked, tr)
        assert st.counts.tolist() == state.counts.tolist() and st.rng.at == state.rng.at == 200
    assert stacked.run_steps_screened == one_row.run_steps_screened == 200
    cuts, leader, ok, leaders = log[1]
    assert cuts[:3] == [20, 40, 60] and leader == 0 and ok[:2] == [True, True] and leaders[:2] == [0, 1]
    assert log[2][:2] == ([60, 80, 100, 120, 140, 160, 180, 200], 1)  # a new stack, along color 1's path
    assert len(log) == 3


def test_a_failed_row_drops_the_rows_after_it():
    # equal weights: color 0 leads, and a uniform above 1/2 fails a screen.
    # Sub-blocks of 20 steps; the stack from sub-block 1 fails at sub-block
    # 2, the back-off steps 3 to 6, and sub-block 7, which also holds a red
    # draw, is screened anew, not read off the stack's stale row 3
    seq = rf.make_table([1.0] * 400)
    uniforms = np.full(200, 1e-9)
    uniforms[[45, 150]] = 0.7
    runs = []
    for ctx in (screen_log(), one_row_screens(), exact_stepping()):
        state = urns.init_multicolor(2, (1, 1), 1, seq, seed=0)
        state.rng = Replay(uniforms)
        with ctx as log:
            runs.append((urns.run(state, 200, 20, record_counts=True), state, log))
    (stacked, state, log), (one_row, _, _), (exact, _, _) = runs
    assert exact.counts[-1].tolist() == [199, 3]
    for tr in (one_row, exact):
        assert_same_trajectory(stacked, tr)
    assert stacked.run_steps_screened == one_row.run_steps_screened == 40
    stack = [True, False, True, True, True, True, False, True, True]  # sub-blocks 1 to 9
    assert [(cuts[0], ok) for cuts, _, ok, _ in log] == [(0, [True]), (20, stack), (140, [False])]


def test_coupled_run_with_one_side_failing_inside_a_stack():
    # stacks in which both sides pass rows 0 .. j - 1 and one side fails row
    # j > 0: the interacting side at the first start, the sequential side,
    # while the interacting one passes, at the second
    sides, screen_of = [], urns._screen_of

    def logged_screen_of(state):
        screen = screen_of(state)

        def logged(u, leader, cuts):
            ok, leaders = screen(u, leader, cuts)
            sides.append((isinstance(state, urns.UrnState), ok.tolist()))
            return ok, leaders

        return logged

    found = set()
    for black0, seed in (((1, 1), 0), ((3, 1), 11)):
        runs = []
        for ctx in (contextlib.nullcontext(), one_row_screens(), exact_stepping()):
            with ctx:
                runs.append(urns.run_coupled(black0, (1, 1), 0.8, N2, seed, 5000, 100))
        with mock.patch.object(urns, "_screen_of", logged_screen_of):
            urns.run_coupled(black0, (1, 1), 0.8, N2, seed, 5000, 100)
        (ti, ts, v), (ti_1, ts_1, v_1), (ti_x, ts_x, v_x) = runs
        assert v == v_1 == v_x == 0
        for a, b in ((ti, ti_1), (ti, ti_x), (ts, ts_1), (ts, ts_x)):
            assert_same_trajectory(a, b)
        assert (ti.run_steps_screened, ts.run_steps_screened) == (ti_1.run_steps_screened,) * 2
        for (ium, ok_i), (seq_side, ok_s) in zip(sides, sides[1:]):
            if ium and not seq_side:
                j = next((j for j in range(1, len(ok_i)) if not (ok_i[j] and ok_s[j])), None)
                if j is not None and all(ok_i[:j]) and all(ok_s[:j]):
                    found.add((ok_i[j], ok_s[j]))
        sides.clear()
    assert found == {(False, True), (True, False)}


def test_settled_run_screens_in_few_calls(tmp_path):
    # one call per stack, each stack that passes whole doubling the next up
    # to a drawn block's end: stacks of 1, 1, 16, 32, 30 sub-blocks, then
    # one per drawn block.  A call per sub-block made 399, stacks of at most
    # 16 sub-blocks 30
    with screen_log() as log:
        _, args = TestRunCounters().simulate(tmp_path, 20_000, 100)
    assert args["run_steps_screened"] > 0.9 * 20_000
    assert len(log) <= 9


@pytest.mark.parametrize("record_every", [70, 333])
def test_short_rows_ride_in_a_settled_runs_stacks(tmp_path, record_every):
    # each record interval ends in a short row, of 6 steps at 70 and 13 at
    # 333; such a row ends no stack, so the run screens in about as few
    # calls as at 100.  When it ended each stack, 285 and 65 calls were
    # made.  At 70 a short row is screened before the first stack, one call
    # more than when such a row stepped until the run passed
    with screen_log() as log:
        _, args = TestRunCounters().simulate(tmp_path, 20_000, record_every)
    assert args["run_steps_screened"] > 0.9 * 20_000
    assert len(log) <= {70: 10, 333: 9}[record_every]


@pytest.mark.parametrize("record_every", [1, 10])
def test_fine_cadence_run_screens_in_few_calls(tmp_path, record_every):
    # sub-blocks of one and ten steps are screened like long ones: stacks
    # of 1, 1, 16, 32, ... sub-blocks doubling up to the first drawn
    # block's end, then one a drawn block; 14 calls at 1 and 11 at 10,
    # against 20 000 and 2000 sub-blocks
    with screen_log() as log:
        _, args = TestRunCounters().simulate(tmp_path, 20_000, record_every)
    assert args["run_steps_screened"] > 0.9 * 20_000
    assert len(log) <= 14


@contextlib.contextmanager
def leap_log():
    """Logs each leap of ``run`` and ``run_coupled``: its end step and length."""
    log, paced = [], urns._paced

    def logged_paced(screen, leap, exact):
        def logged(leader, end, length):
            log.append((end, length))
            return leap(leader, end, length)

        return paced(screen, logged, exact)

    with mock.patch.object(urns, "_paced", logged_paced):
        yield log


def test_settled_run_leaps_no_more_often_than_it_screens(tmp_path):
    # each stack leaps the rows that pass with one leader in one call; a
    # call per sub-block made 398
    with screen_log() as screens, leap_log() as leaps:
        TestRunCounters().simulate(tmp_path, 20_000, 100)
    assert len(leaps) <= len(screens) <= 9


def inner_record_steps(leaps, record_every):
    """The most record steps strictly inside one leap."""
    return max((end - 1) // record_every - (end - length) // record_every for end, length in leaps)


def assert_same_bytes(a, b):
    assert_same_trajectory(a, b)
    for what in ("proportions", "counts") if a.counts is not None else ("proportions",):
        assert a.csv_bytes(what) == b.csv_bytes(what), what


@pytest.mark.parametrize("record_every", [17, 36, 100, 333])
@pytest.mark.parametrize("model", STACK_INITS)
def test_leap_over_record_steps_equals_exact_stepping(model, record_every):
    # a leap covers many sub-blocks and takes the record steps inside it off
    # the leader path; one call of 9000 steps, and two consecutive calls on
    # one state split at a record step
    split = record_every * (4500 // record_every)
    runs = []
    for ctx in (leap_log(), one_row_screens(), exact_stepping()):
        whole, halves = STACK_INITS[model](W3, 11), STACK_INITS[model](W3, 11)
        with ctx as log:
            trs = [urns.run(whole, 9000, record_every, record_counts=True),
                   urns.run(halves, split, record_every, record_counts=True),
                   urns.run(halves, 9000 - split, record_every, record_counts=True)]
        runs.append((trs, (whole, halves), log))
    (stacked, states, leaps), (one_row, states_1, _), (exact, states_x, _) = runs
    # at 333 each stretch between record steps ends in a 13-step sub-block,
    # which rides in the stack
    assert inner_record_steps(leaps, record_every) >= 2
    for trs, sts in ((one_row, states_1), (exact, states_x)):
        for a, b in zip(stacked + list(states), trs + list(sts)):
            (assert_same_bytes if isinstance(a, urns.Trajectory) else assert_same_state)(a, b)
    for a, b, x in zip(stacked, one_row, exact):
        assert (a.run_steps_screened, a.run_steps_exact) == (b.run_steps_screened, b.run_steps_exact)
        assert x.run_steps_screened == 0 and a.run_steps_screened > 0


@pytest.mark.parametrize("record_every", [17, 36, 100, 333])
@pytest.mark.parametrize("p, seed", [(0.2, 2), (0.8, 3)])
def test_coupled_leap_over_record_steps_equals_exact_stepping(p, seed, record_every):
    # at p = 0.2, seed 2, the interacting side settles on black and the
    # sequential side on red, so the violations' gaps move along each leap
    runs = []
    for ctx in (leap_log(), one_row_screens(), exact_stepping()):
        with ctx as log:
            runs.append((urns.run_coupled((1, 1), (1, 1), p, N2, seed, 9000, record_every), log))
    ((ti, ts, v), leaps), ((ti_1, ts_1, v_1), _), ((ti_x, ts_x, v_x), _) = runs
    assert inner_record_steps(leaps, record_every) >= 2
    assert v == v_1 == v_x == 0
    for a, b in ((ti, ti_1), (ti, ti_x), (ts, ts_1), (ts, ts_x)):
        assert_same_bytes(a, b)
    assert (ti.run_steps_screened, ti.run_steps_exact) == (ti_1.run_steps_screened, ti_1.run_steps_exact)
    assert ts.run_steps_screened == ti.run_steps_screened > 0 == ti_x.run_steps_screened


@pytest.mark.parametrize("covered", [(0, []), (5, [None] * 3), (2, []), (1, [None])],
                         ids=["none", "past-the-block", "missing-sample", "extra-sample"])
def test_drive_rejects_an_advance_that_misreports(covered):
    # 10 steps recorded every 3 are cut at 3, 6, 9 and 10, each cut a
    # record step; an advance from sub-block 0 covers at most 4, and each
    # one it covers before its last holds one inner sample
    def sample(step):
        return step

    with pytest.raises(urns.InternalConsistencyError):
        urns._drive([np.random.default_rng(0)], 1, 10, 3, lambda *args: covered, sample)

    def two(start, block, cuts, i):
        return 2, [f"inner {start + cuts[i + 1]}"]

    steps, samples = urns._drive([np.random.default_rng(0)], 1, 10, 3, two, sample)
    assert steps.tolist() == [0, 3, 6, 9, 10] and samples == [0, "inner 3", 6, "inner 9", 10]


@pytest.mark.parametrize("call", [
    lambda: urns.run(urns.init_ium(2, (1, 1), (1, 1), 0.8, W3, 1), 3000, 100),
    lambda: urns.run(urns.init_multicolor(3, (1, 1, 1), 2, W3, 1), 3000, 100),
    lambda: urns.run(urns.init_sequential((1, 1), (1, 1), W3, 1), 3000, 100),
    lambda: urns.run_coupled((1, 1), (1, 1), 0.8, N2, 1, 3000, 100),
], ids=["ium", "multicolor", "sequential", "coupled"])
def test_exact_stepping_makes_no_screen_call(call):
    # every screen ends in _inside; under exact stepping every screen fails
    # without evaluating a bound, so every step is the block stepper's
    with mock.patch.object(urns, "_inside", wraps=urns._inside) as inside:
        call()
        assert inside.call_count > 0
        inside.reset_mock()
        with exact_stepping():
            call()
        assert inside.call_count == 0


def test_screened_ensembles_from_empty_urns_equal_exact_stepping():
    seq = WEIGHTS["(n+1)^3"]
    calls = [
        (urns.run_ium_ensemble, (seq, 0.3, 2, (0, 0), (0, 0))),
        (urns.run_multicolor_ensemble, (seq, 3, (0, 0, 0), 2)),
        (urns.run_sequential_ensemble, (seq, (0, 0), (0, 0))),
    ]
    for engine, args in calls:
        screened = engine(*args, 300, 8, 5, record_every=100)
        with exact_stepping():
            exact = engine(*args, 300, 8, 5, record_every=100)
        assert screened.run_steps_screened > 0
        assert np.isnan(screened.proportions[:, 0]).all()
        assert not np.isnan(screened.proportions[:, 1:]).any()
        for name in ("steps", "proportions", "last_add", "final_counts"):
            assert np.array_equal(getattr(screened, name), getattr(exact, name), equal_nan=True), name


# ---------------------------------------------------------------------------
# plans: ``run`` and ``run_coupled`` decide the draws of a stretch that goes
# unscreened from count bounds, and step only the draws left open


@contextlib.contextmanager
def planned_stepping(passes=urns._PASSES, open_cost=urns._OPEN_COST):
    """Every screen of ``run`` and ``run_coupled`` fails, so the waits grow
    to ``_MAX_WAIT``, and every stretch of a black/red state on a
    non-decreasing table is planned, with at most ``passes`` passes and
    ``open_cost`` as the cost of an open step.  Yields the plans made."""
    plans, resolve = [], urns._resolve

    def logged(*args):
        plans.append(resolve(*args))
        return plans[-1]

    with mock.patch.object(urns, "_screen_of", failing_screen_of), mock.patch.object(urns, "_resolve", logged), \
            mock.patch.object(urns, "_MIN_PLAN", 1), mock.patch.object(urns, "_PASSES", passes), \
            mock.patch.object(urns, "_OPEN_COST", open_cost):
        yield plans


@settings(max_examples=150)
@given(call=ensemble_calls(models=("ium", "sequential")), n=st.integers(0, 2500), record_counts=st.booleans(),
       odd=st.booleans(), walk=st.booleans())
def test_planned_run_equals_exact_stepping(call, n, record_counts, odd, walk):
    # with walk, plans stop after one pass and step every open step they leave
    init, init_args, _, _, tail = call
    try:
        states = [init(*init_args, seed=tail["master_seed"]) for _ in range(2)]
    except ValueError:
        assume(False)  # an initial state the model rejects
    if odd and init is urns.init_sequential:
        for state in states:
            urns.step_sequential(state)  # urn 1 draws first from here on
    with planned_stepping(*((1, 1) if walk else ())):
        planned = urns.run(states[0], n, tail["record_every"], record_counts)
    with exact_stepping():
        exact = urns.run(states[1], n, tail["record_every"], record_counts)
    assert_same_trajectory(planned, exact)
    assert_same_state(states[0], states[1])


W3_EXACT = rf.make_polynomial([0, 0, 0, 1])


@contextlib.contextmanager
def stretch_log():
    """Logs each call of the ``exact`` that ``_paced`` is given: whether the
    advance that made it screened, the cuts and sub-block it advanced from,
    and the steps the call covered."""
    log, paced = [], urns._paced

    def logged_paced(screen, leap, exact):
        now = {}

        def logged_screen(u, leader, cuts):
            now["screened"] = True
            return screen(u, leader, cuts)

        def logged_exact(start, u):
            log.append((now.pop("screened", False), now["cuts"], now["i"], start - now["start"], len(u)))
            return exact(start, u)

        advance, counters = paced(logged_screen, leap, logged_exact)

        def tracked(start, block, cuts, i):
            now.update(start=start, cuts=cuts, i=i)
            return advance(start, block, cuts, i)

        return tracked, counters

    with mock.patch.object(urns, "_paced", logged_paced):
        yield log


def assert_backed_off(stretches, n_steps):
    """Checks a ``stretch_log`` of a run that never passes a screen: every
    call of ``exact`` follows a failed screen and covers its sub-block and
    the wait after it, which doubles from _SUB_BLOCK to _MAX_WAIT, up to
    the first cut past the wait or the drawn block's end."""
    wait = urns._SUB_BLOCK
    for screened, cuts, i, offset, length in stretches:
        end = next((c for c in cuts[i + 1:] if c >= cuts[i + 1] + wait), cuts[-1])
        wait = min(2 * wait, urns._MAX_WAIT)
        assert screened and (offset, length) == (cuts[i], end - cuts[i])
    assert wait == urns._MAX_WAIT and sum(length for *_, length in stretches) == n_steps


@pytest.mark.parametrize("seed", [3, 4, 5])
@pytest.mark.parametrize("record_every", [1, 17, 100, 1000])
def test_mixed_limit_run_is_planned(seed, record_every):
    # at p = 0.2 these runs go to a mixed limit and never pass a screen; the
    # plans leave the block stepper and the kernel under a tenth of the
    # steps, and the steps they decide count as screened.  Sub-blocks of
    # any length, one step at cadence 1, go unscreened only in the back-off
    stepped, ium_steps, ium_step = [], urns._ium_steps, urns._ium_step

    def counted(state, rows, *args):
        stepped.append(len(rows))
        return ium_steps(state, rows, *args)

    def counted_kernel(black, *args):
        stepped.append(len(black))
        return ium_step(black, *args)

    state, state_x = (urns.init_ium(2, (1, 1), (1, 1), 0.2, W3_EXACT, seed) for _ in range(2))
    with screen_log() as log, stretch_log() as stretches, mock.patch.object(urns, "_ium_steps", counted), \
            mock.patch.object(urns, "_ium_step", counted_kernel):
        planned = urns.run(state, 6000, record_every, record_counts=True)
    with exact_stepping():
        exact = urns.run(state_x, 6000, record_every, record_counts=True)
    assert_same_trajectory(planned, exact)
    assert_same_state(state, state_x)
    assert not any(any(ok) for _, _, ok, _ in log) and 0.05 < planned.proportions[-1].min() < 0.2
    assert planned.run_steps_exact == sum(stepped) < 0.1 * 6000
    assert_backed_off(stretches, 6000)


def test_plans_need_a_non_decreasing_table():
    # run and ensembles take a table to be non-decreasing where _floor
    # returns it as it is: example I dips and plans nothing, n^2 and n^3
    # plan, and given an equal floor that is not the table they plan nothing
    own = urns._floor
    for seq, planned in ((WEIGHTS["example I"], False), (N2, True), (W3, True)):
        for floor, want in ((own, planned), (lambda logw: own(logw).copy(), False)):
            with planned_stepping() as plans, mock.patch.object(urns, "_floor", floor):
                urns.run(urns.init_ium(2, (1, 2), (2, 1), 0.2, seq, 1), 500, 100)
                assert bool(plans) == want
                urns.run_ium_ensemble(seq, 0.2, 2, (1, 2), (2, 1), 500, 20, 1, record_every=100)
                assert bool(plans) == want


@pytest.mark.parametrize("walk", [False, True])
@pytest.mark.parametrize("p, seed", [(0.8, 1), (0.2, 3)], ids=["settles", "mixed"])
def test_planned_coupled_run_equals_the_step_loop(p, seed, walk):
    black0, red0 = (2, 1), (1, 2)
    with planned_stepping(*((1, 1) if walk else ())) as plans:
        ti, ts, violations = urns.run_coupled(black0, red0, p, N2, seed, 3000, 100)
    steps, (props_i, props_s, totals_i, totals_s), (last_i, last_s), want = coupled_by_step(
        black0, red0, p, N2, seed, 3000, 100)
    assert violations == want == 0
    for tr, props, totals, last in ((ti, props_i, totals_i, last_i), (ts, props_s, totals_s, last_s)):
        assert np.array_equal(tr.proportions, props)
        assert np.array_equal(tr.color_totals, totals)
        assert tr.last_change.tolist() == last
    assert any(plans)


# ---------------------------------------------------------------------------
# the coupling: ``run_coupled`` screens the pair as ``run`` screens one state


def coupled_by_step(black0, red0, p, seq, seed, n_steps, record_every):
    """``run_coupled`` as a loop of single steps: each step's four uniforms
    from the seed's stream go through both block steppers one row at a
    time, and the dominance inequalities are tested after every step."""
    ium = urns.init_ium(2, black0, red0, p, seq, seed)
    seqp = urns.init_sequential(black0, red0, seq, seed)
    rng = stream(seed)
    last_i, last_s = [0, 0], [0, 0]
    violations = 0

    def sample():
        return (urns.proportions(ium), urns.sequential_proportions(seqp), (ium.total_black, ium.total_red),
                (int(seqp.black.sum()), int(seqp.red.sum())))

    steps, samples = [0], [sample()]
    for step in range(n_steps):
        us = rng.random(4).tolist()
        urns._ium_steps(ium, (us,), step, last_i)
        urns._sequential_steps(seqp, (us[1::2],), step, last_s)
        violations += int(seqp.red[0] < ium.red[0]) + int(seqp.red[1] < ium.red[1])
        violations += int(seqp.black[0] > ium.black[0]) + int(seqp.black[1] > ium.black[1])
        if (step + 1) % record_every == 0 or step + 1 == n_steps:
            steps.append(step + 1)
            samples.append(sample())
    return steps, [np.array(x) for x in zip(*samples)], (last_i, last_s), violations


COUPLED_WEIGHTS = {"n^2": N2, "n^3": rf.make_polynomial([0, 0, 0, 1]), "1.5^n": rf.make_exponential(1.5)}


@pytest.mark.parametrize("n_steps, record_every", [(0, 1), (1000, 1), (517, 7), (3000, 100)])
@pytest.mark.parametrize("p, seed", [(0.8, 1), (0.2, 3)], ids=["settles", "mixed"])
@pytest.mark.parametrize("seq", COUPLED_WEIGHTS)
def test_coupled_run_equals_the_step_loop(seq, p, seed, n_steps, record_every):
    black0, red0 = (2, 1), (1, 2)
    ti, ts, violations = urns.run_coupled(black0, red0, p, COUPLED_WEIGHTS[seq], seed, n_steps, record_every)
    steps, (props_i, props_s, totals_i, totals_s), (last_i, last_s), want = coupled_by_step(
        black0, red0, p, COUPLED_WEIGHTS[seq], seed, n_steps, record_every)
    assert violations == want
    for tr, props, totals, last in ((ti, props_i, totals_i, last_i), (ts, props_s, totals_s, last_s)):
        assert tr.steps.tolist() == steps
        assert np.array_equal(tr.proportions, props)
        assert np.array_equal(tr.color_totals, totals)
        assert tr.last_change.tolist() == last
        assert (tr.run_steps_screened, tr.run_steps_exact) == (ti.run_steps_screened, ti.run_steps_exact)
        assert tr.run_steps_screened + tr.run_steps_exact == n_steps
    if record_every == 1 and n_steps:  # one-step sub-blocks are screened too
        assert ti.run_steps_screened > 0.7 * n_steps


@pytest.mark.parametrize("record_every", [1, 100])
def test_mixed_coupled_pair_backs_off(record_every):
    # the mixed pair below fails every screen; at cadence 1 as at 100 its
    # failed sub-blocks go unscreened in back-off stretches, a handful of
    # calls, not one call per sub-block
    with stretch_log() as stretches:
        ti, _, violations = urns.run_coupled((2, 1), (1, 2), 0.2, N2, 3, 3000, record_every)
    assert_backed_off(stretches, 3000)
    assert len(stretches) <= 8 and violations == 0 and ti.run_steps_screened > 0.8 * 3000


def test_coupled_cases_settle_and_mix():
    # the cases above cover a pair that leaps most of its steps and one whose
    # interacting side goes to a mixed limit and never passes a screen; its
    # plans decide most of its steps, and those count as screened
    ti, _, _ = urns.run_coupled((2, 1), (1, 2), 0.8, N2, 1, 3000, 100)
    assert ti.run_steps_screened > 0.8 * 3000
    with screen_log() as log:
        ti, _, _ = urns.run_coupled((2, 1), (1, 2), 0.2, N2, 3, 3000, 100)
    assert log and not any(any(ok) for _, _, ok, _ in log)
    assert ti.run_steps_screened > 0.8 * 3000
    assert 0.05 < ti.proportions[-1].min() and ti.proportions[-1].max() < 0.95


def test_violations_along_leaped_paths():
    # starts that break the dominance inequalities, under all four leader
    # pairs, over leaps from one step to a whole drawn block: the closed
    # form against a step-by-step tally
    rng = np.random.default_rng(11)
    broken = set()
    for to_red in itertools.product((False, True), repeat=2):
        for case in range(120):
            start_i, start_s = rng.integers(0, 60, 4), rng.integers(0, 60, 4)
            length = [int(rng.integers(1, urns._SUB_BLOCK + 1)), int(rng.integers(urns._SUB_BLOCK, 4097)), 4096][case % 3]
            s = np.arange(1, length + 1)[:, None]
            ci = start_i + s * np.repeat([1 - to_red[0], to_red[0]], 2)
            cs = start_s + s * np.repeat([1 - to_red[1], to_red[1]], 2)
            want = np.count_nonzero(cs[:, :2] > ci[:, :2]) + np.count_nonzero(cs[:, 2:] < ci[:, 2:])
            gaps = np.concatenate([start_i[:2] - start_s[:2], start_s[2:] - start_i[2:]]).tolist()
            assert urns._leap_violations(gaps, to_red, length) == want
            broken |= {(to_red, "black") for k in (0, 1) if start_s[k] > start_i[k]}
            broken |= {(to_red, "red") for k in (2, 3) if start_s[k] < start_i[k]}
    assert len(broken) == 8


def test_violations_along_block_stepper_paths():
    # the sequential side starts with the interacting side's black and red
    # counts swapped, so both inequalities break on some stepped rows
    ium = urns.init_ium(2, (5, 1), (1, 5), 0.5, N2, seed=3)
    seqp = urns.init_sequential((1, 5), (5, 1), N2, seed=3)
    u = np.random.default_rng(5).random((50, 4))
    path_i, path_s = [], []
    urns._ium_steps(ium, u.tolist(), 0, [0, 0], path_i)
    urns._sequential_steps(seqp, u[:, 1::2].tolist(), 0, [0, 0], path_s)
    want = sum(sum(s > i for i, s in zip(ri[:2], rs[:2])) + sum(s < i for i, s in zip(ri[2:], rs[2:]))
               for ri, rs in zip(path_i, path_s))
    assert urns._violations(path_i, path_s) == want > 0


@pytest.mark.parametrize("init, stepper, width", [
    (lambda: urns.init_ium(2, (1, 2), (2, 1), 0.5, N2, seed=3), urns._ium_steps, 4),
    (lambda: urns.init_sequential((1, 2), (2, 1), N2, seed=3), urns._sequential_steps, 2),
    (lambda: urns.init_multicolor(3, (1, 2, 2), 2, N2, seed=3), urns._multicolor_steps, 2),
])
def test_block_steppers_report_the_counts_after_each_step(init, stepper, width):
    block, single = init(), init()
    rows = np.random.default_rng(5).random((50, width)).tolist()
    path = []
    stepper(block, rows, 0, [0] * 3, path)
    for step, row in enumerate(rows):
        stepper(single, (row,), step, [0] * 3)
        assert path[step] == np.concatenate(urns._dispatch(single)[1]).tolist()
