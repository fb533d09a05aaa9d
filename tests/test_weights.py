import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asyncfed.core import UnsupportedConfigError
from asyncfed.engine import RunConfig, run
from asyncfed.timing import HardwareModel, PolicyKind, WaitPolicy
from asyncfed.weights import (
    WeightScheme,
    chi_square_bias,
    plan_weights,
    verify_window_assumption,
    window_counts,
    window_stats,
)

from conftest import quadratic_fleet

ASYNC = WaitPolicy(PolicyKind.ASYNCHRONOUS)
SYNC = WaitPolicy(PolicyKind.SYNCHRONOUS)


def realized_weights(taus, policy, d, n_rounds):
    """Per-round expected weights of a deterministic schedule: the realized
    weights of an engine run with per-client weights ``d``."""
    fleet = quadratic_fleet([[0.0]] * len(taus), taus=taus)
    d = plan_weights(WeightScheme.CUSTOM, fleet.importances, taus, policy, custom_d=d)
    config = RunConfig(fleet=fleet, policy=policy, d=d, full_gradient=True, rounds=n_rounds)
    return run(config).weight_matrix()


class TestPlanWeights:
    def test_async_time_based_close_form(self):
        d = plan_weights(WeightScheme.ASYNC_TIME_BASED, [0.5, 0.5], [1, 2], ASYNC)
        assert d.tolist() == [0.75, 1.5]

    def test_fedfix_time_based_close_form(self):
        policy = WaitPolicy(PolicyKind.FEDFIX, delta_t=2)
        d = plan_weights(
            WeightScheme.FEDFIX_TIME_BASED, [0.25] * 4, [3, 3, 3, 3], policy
        )
        assert d.tolist() == [0.5] * 4

    def test_fedavg_weights_are_the_importances(self):
        d = plan_weights(WeightScheme.FEDAVG, [0.2, 0.3, 0.5], [1, 2, 3], ASYNC)
        assert d.tolist() == [0.2, 0.3, 0.5]

    def test_identical_weights(self):
        d = plan_weights(WeightScheme.IDENTICAL, [0.5, 0.5], [1, 2], ASYNC)
        assert d.tolist() == [1.0, 1.0]

    def test_time_based_rejects_random_hardware(self):
        with pytest.raises(UnsupportedConfigError):
            plan_weights(
                WeightScheme.ASYNC_TIME_BASED, [0.5, 0.5], [1, 2], ASYNC,
                hw=HardwareModel("exponential"),
            )

    def test_scale_invariance_in_time_units(self):
        base = plan_weights(WeightScheme.ASYNC_TIME_BASED, [0.5, 0.5], [1, 2], ASYNC)
        for factor in (2, 3, Fraction(1, 4), 7):
            scaled = plan_weights(
                WeightScheme.ASYNC_TIME_BASED,
                [0.5, 0.5],
                [Fraction(t) * factor for t in (1, 2)],
                ASYNC,
            )
            assert scaled.tolist() == base.tolist()

    def test_fedfix_wide_window_degenerates_to_importances(self):
        policy = WaitPolicy(PolicyKind.FEDFIX, delta_t=3)
        d = plan_weights(WeightScheme.FEDFIX_TIME_BASED, [0.3, 0.7], [1, 3], policy)
        assert d.tolist() == [0.3, 0.7]

    def test_custom_table(self):
        d = plan_weights(
            WeightScheme.CUSTOM, [0.5, 0.5], [2, 2], SYNC, custom_d=[0.3, 0.6]
        )
        assert d.tolist() == [0.3, 0.6]


def window_of(policy, taus):
    return window_stats(WeightScheme.IDENTICAL, [1 / len(taus)] * len(taus), taus, policy)[0]


class TestWindowStats:
    def test_async_sum_of_cycle_counts(self):
        assert window_of(ASYNC, [1, 2, 3]) == 11

    def test_synchronous_is_one(self):
        assert window_of(SYNC, [1, 2, 3]) == 1

    def test_fedfix_lcm_of_ceilinged_periods(self):
        policy = WaitPolicy(PolicyKind.FEDFIX, delta_t=2)
        assert window_of(policy, [1, 2, 3]) == 2

    def test_sampling_is_one(self):
        policy = WaitPolicy(PolicyKind.SAMPLE_UNIFORM, m=2)
        assert window_of(policy, [1, 2, 3]) == 1

    def test_buffered_window_averages_skip_the_transient(self):
        # the clocks after round 7 repeat those after round 5 (period 2), so
        # rounds 2-3 are still transient: client 1 (tau 8) skips them but
        # delivers once in every steady period
        policy = WaitPolicy(PolicyKind.FEDBUFF, m=4)
        taus = [5, 8, 2, 6, 5, 1]
        window, q = window_stats(WeightScheme.IDENTICAL, [1 / 6] * 6, taus, policy)
        assert window == 2
        late = realized_weights(taus, policy, [1.0] * 6, 40)[-window:]
        assert q.tolist() == late.mean(axis=0).tolist()
        assert q[1] == 0.5

    def test_buffered_stats_replay_the_schedule_once(self, monkeypatch):
        import asyncfed.timing as timing

        rounds = []
        advance, replay = timing.advance_round, timing.replay_rounds

        def advanced(*args, **kwargs):
            rounds.append(1)
            return advance(*args, **kwargs)

        def replayed(*args, **kwargs):
            rounds.append(replay(*args, **kwargs))
            return rounds[-1]

        monkeypatch.setattr(timing, "advance_round", advanced)
        monkeypatch.setattr(timing, "replay_rounds", replayed)
        policy = WaitPolicy(PolicyKind.FEDBUFF, m=3)
        taus = list(range(2, 12))
        d = plan_weights(WeightScheme.IDENTICAL, [0.1] * 10, taus, policy)
        assert rounds == []
        assert d.tolist() == [1.0] * 10
        window, q = window_stats(WeightScheme.IDENTICAL, [0.1] * 10, taus, policy)
        # one replay: the clocks first repeat after round 170 with a 51-round
        # period, so the cycle starts at round 119. Brent's search runs to
        # round 127 + 51, the two meeting replays advance 51 + 2 * 119 rounds
        # and the steady period replays 51 more
        assert sum(rounds) == 178 + 51 + 2 * 119 + 51
        assert window == 51
        counts = np.array([44, 28, 23, 19, 16, 14, 12, 11, 10, 9])
        assert q.tolist() == (counts / 51).tolist()


class TestWindowCounts:
    @pytest.mark.parametrize("policy, taus, window, counts", [
        (SYNC, [1, 2, 3], 1, [1, 1, 1]),
        (ASYNC, [1, 2, 3], 11, [6, 3, 2]),
        (WaitPolicy(PolicyKind.FEDFIX, delta_t=2), [1, 2, 3, 5], 6, [6, 6, 3, 2]),
        (WaitPolicy(PolicyKind.FEDBUFF, m=4), [5, 8, 2, 6, 5, 1], 2, [2, 1, 2, 1, 2, 2]),
        (WaitPolicy(PolicyKind.SAMPLE_UNIFORM, m=2), [1, 2, 3], 1, None),
    ])
    def test_window_and_deliveries_per_window(self, policy, taus, window, counts):
        assert window_counts(policy, taus) == (window, counts)
        assert window_of(policy, taus) == window


class TestWindowAssumption:
    def test_async_time_based_satisfies_the_window_condition(self):
        p = [0.5, 0.5]
        d = plan_weights(WeightScheme.ASYNC_TIME_BASED, p, [1, 2], ASYNC)
        window = window_of(ASYNC, [1, 2])
        q = realized_weights([1, 2], ASYNC, d, 2 * window)
        report = verify_window_assumption(q, window, p, tol=1e-12)
        assert report.satisfied
        assert report.n_windows == 2
        assert not report.truncated

    def test_identical_weights_fail_on_heterogeneous_hardware(self):
        p = [0.5, 0.5]
        d = plan_weights(WeightScheme.IDENTICAL, p, [1, 2], ASYNC)
        window = window_of(ASYNC, [1, 2])
        q = realized_weights([1, 2], ASYNC, d, 2 * window)
        report = verify_window_assumption(q, window, p)
        assert not report.satisfied
        # fast client lands 2 of every 3 rounds with unit weight
        assert report.max_deviation == pytest.approx(2 / 3 - 0.5, abs=1e-12)

    def test_synchronous_importance_weights_have_zero_deviation(self):
        p = [0.3, 0.7]
        d = plan_weights(WeightScheme.FEDAVG, p, [1, 2], SYNC)
        q = realized_weights([1, 2], SYNC, d, 4)
        report = verify_window_assumption(q, 1, p, tol=1e-15)
        assert report.satisfied
        assert report.max_deviation == 0.0

    def test_incomplete_tail_is_flagged(self):
        p = [0.5, 0.5]
        d = plan_weights(WeightScheme.ASYNC_TIME_BASED, p, [1, 2], ASYNC)
        window = window_of(ASYNC, [1, 2])
        q = realized_weights([1, 2], ASYNC, d, window + 1)
        report = verify_window_assumption(q, window, p)
        assert report.truncated and report.n_windows == 1

    def test_window_averages_match_the_plan(self):
        p = [0.25, 0.25, 0.5]
        d = plan_weights(WeightScheme.ASYNC_TIME_BASED, p, [2, 3, 4], ASYNC)
        window, q_over_window = window_stats(WeightScheme.ASYNC_TIME_BASED, p, [2, 3, 4], ASYNC)
        q = realized_weights([2, 3, 4], ASYNC, d, window)
        assert np.allclose(q.mean(axis=0), q_over_window, atol=1e-15)


class TestChiSquare:
    def test_matching_vectors_give_zero(self):
        out = chi_square_bias([0.5, 0.5], [0.5, 0.5])
        assert out.value == 0.0 and not out.unrepresented

    def test_hand_computed_divergence(self):
        out = chi_square_bias([0.5, 0.5], [0.75, 0.25])
        assert out.value == pytest.approx(1 / 3, abs=1e-15)

    def test_unrepresented_distribution_is_flagged(self):
        out = chi_square_bias([0.5, 0.5], [1.0, 0.0])
        assert out.unrepresented and math.isinf(out.value)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_nonnegative_with_equality_iff_equal(self, seed):
        rng = np.random.default_rng(seed)
        r = rng.dirichlet(np.ones(4))
        s = rng.dirichlet(np.ones(4))
        out = chi_square_bias(r, s)
        assert out.value >= 0.0
        if out.value == 0.0:
            assert np.allclose(r, s)


class TestWindowIdentity:
    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_async_window_average_recovers_importances(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 5))
        taus = [int(t) for t in rng.integers(1, 7, size=m)]
        p = rng.dirichlet(np.ones(m)).tolist()
        _, q_over_window = window_stats(WeightScheme.ASYNC_TIME_BASED, p, taus, ASYNC)
        q_tilde = q_over_window / q_over_window.sum()
        assert np.max(np.abs(q_tilde - np.asarray(p))) < 1e-12
