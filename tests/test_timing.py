import json
import math
import time
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asyncfed import timing
from asyncfed.core import ConfigurationError, UnsupportedConfigError
from asyncfed.timing import (
    SCHEDULE_ROUND_CAP,
    HardwareModel,
    PolicyKind,
    Schedule,
    WaitPolicy,
    advance_round,
    fedfix_period,
    init_fleet_state,
    merged_schedule,
    participations_per_cycle,
    replay_rounds,
    staleness_bound,
    steady_period,
)

from conftest import fixed_schedule, round_durations

FIXED = HardwareModel("fixed")


class TestSynchronous:
    def test_round_waits_for_the_slowest(self):
        outcomes = fixed_schedule([1, 2], WaitPolicy(PolicyKind.SYNCHRONOUS), 3)
        for out in outcomes:
            assert out.delta_t == 2
            assert out.clients.tolist() == [0, 1]

    def test_anchors_are_always_fresh(self):
        outcomes = fixed_schedule([3, 5, 2], WaitPolicy(PolicyKind.SYNCHRONOUS), 4)
        for out in outcomes:
            assert out.staleness.tolist() == [0, 0, 0]


class TestAsynchronous:
    def test_fast_client_contributes_twice_per_cycle(self):
        outcomes = fixed_schedule([1, 2], WaitPolicy(PolicyKind.ASYNCHRONOUS), 6)
        # one contribution per round; cycle of 2 time units = 3 rounds
        assert [out.delta_t for out in outcomes] == [1, 1, 0, 1, 1, 0]
        counts = [0, 0]
        for out in outcomes:
            (client,) = out.clients.tolist()
            counts[client] += 1
        assert counts == [4, 2]

    def test_participation_counts_over_the_lcm_cycle(self):
        taus = [2, 3, 4]
        window = sum(participations_per_cycle(taus))  # lcm 12 -> 6 + 4 + 3 = 13 rounds
        assert window == 13
        outcomes = fixed_schedule(taus, WaitPolicy(PolicyKind.ASYNCHRONOUS), 2 * window)
        counts = [0, 0, 0]
        for out in outcomes[:window]:
            counts[out.clients[0]] += 1
        assert counts == [6, 4, 3]

    def test_simultaneous_finishers_are_serialized_lowest_index_first(self):
        outcomes = fixed_schedule([1, 1, 1], WaitPolicy(PolicyKind.ASYNCHRONOUS), 6)
        assert [out.delta_t for out in outcomes] == [1, 0, 0, 1, 0, 0]
        assert [out.clients.tolist() for out in outcomes] == [[0], [1], [2], [0], [1], [2]]

    def test_clock_conservation_with_waiting_allowed(self):
        state = init_fleet_state([1, 2], FIXED)
        policy = WaitPolicy(PolicyKind.ASYNCHRONOUS)
        for _ in range(10):
            before = list(state.remaining)
            out = advance_round(state, policy, [1, 2], FIXED)
            for i in range(2):
                if i not in out.clients:
                    assert state.remaining[i] == before[i] - out.delta_t
                    assert state.remaining[i] >= 0


class TestFedFix:
    def test_empty_rounds_are_legal(self):
        outcomes = fixed_schedule([5], WaitPolicy(PolicyKind.FEDFIX, delta_t=1), 5)
        sizes = [out.clients.size for out in outcomes]
        assert sizes == [0, 0, 0, 0, 1]

    def test_slow_client_lands_every_other_round(self):
        outcomes = fixed_schedule([3], WaitPolicy(PolicyKind.FEDFIX, delta_t=2), 8)
        landing = [out.clients.size for out in outcomes]
        assert landing == [0, 1, 0, 1, 0, 1, 0, 1]

    def test_wide_window_degenerates_to_full_participation(self):
        outcomes = fixed_schedule([1, 2, 3], WaitPolicy(PolicyKind.FEDFIX, delta_t=3), 4)
        for out in outcomes:
            assert out.clients.tolist() == [0, 1, 2]
            assert out.staleness.tolist() == [0, 0, 0]

    def test_nonparticipant_clocks_stay_positive(self):
        state = init_fleet_state([1, 5], FIXED)
        policy = WaitPolicy(PolicyKind.FEDFIX, delta_t=2)
        for _ in range(6):
            out = advance_round(state, policy, [1, 5], FIXED)
            for i in range(2):
                if i not in out.clients:
                    assert state.remaining[i] > 0


class TestFedBuff:
    def test_waits_for_the_mth_fastest(self):
        out = fixed_schedule([1, 2, 3], WaitPolicy(PolicyKind.FEDBUFF, m=2), 1)[0]
        assert out.delta_t == 2
        assert out.clients.tolist() == [0, 1]

    def test_stragglers_keep_training_on_stale_anchors(self):
        outcomes = fixed_schedule([1, 2, 3], WaitPolicy(PolicyKind.FEDBUFF, m=2), 3)
        staleness_of_slowest = [
            s for out in outcomes for i, s in zip(out.clients, out.staleness) if i == 2
        ]
        assert staleness_of_slowest and max(staleness_of_slowest) >= 1


class TestSampling:
    def test_uniform_sampling_selects_m_without_replacement(self):
        hw = FIXED
        state = init_fleet_state([1, 2, 3, 4], hw)
        policy = WaitPolicy(PolicyKind.SAMPLE_UNIFORM, m=2)
        rng = np.random.default_rng(0)
        for _ in range(20):
            out = advance_round(state, policy, [1, 2, 3, 4], hw, sample_rng=rng)
            assert out.clients.size == 2
            assert out.multiplicity.tolist() == [1, 1] and out.staleness.tolist() == [0, 0]
            assert out.delta_t == max(4 if 3 in out.clients else 0,
                                      *[i + 1 for i in out.clients.tolist()])

    def test_multinomial_sampling_counts_multiplicity(self):
        policy = WaitPolicy(PolicyKind.SAMPLE_MD, m=2)
        rng = np.random.default_rng(1)
        state = init_fleet_state([1, 1], FIXED)
        saw_double = False
        for _ in range(50):
            out = advance_round(
                state, policy, [1, 1], FIXED, sample_rng=rng, importances=[0.5, 0.5]
            )
            assert out.multiplicity.sum() == 2
            saw_double = saw_double or 2 in out.multiplicity
        assert saw_double

    def test_multinomial_draws_and_stream_match_generator_choice(self):
        # exponential hardware arms the drawn clients in first-appearance
        # order, so each round's length pins the order of the draws too
        p = [0.1, 0.3, 0.2, 0.25, 0.15]
        taus = [1.0, 2.0, 1.5, 3.0, 0.5]
        policy = WaitPolicy(PolicyKind.SAMPLE_MD, m=3)
        hw = HardwareModel("exponential")
        hw_rng, sample_rng = np.random.default_rng(5), np.random.default_rng(6)
        state = init_fleet_state(taus, hw, hw_rng, policy=policy)
        ref_hw, ref_sample = np.random.default_rng(5), np.random.default_rng(6)
        ref_hw.exponential(scale=np.array(taus))  # the initial clocks
        for _ in range(10_000):
            out = advance_round(state, policy, taus, hw, hw_rng=hw_rng, sample_rng=sample_rng, importances=p)
            draws = ref_sample.choice(5, size=3, replace=True, p=np.asarray(p))
            drawn = list(dict.fromkeys(draws.tolist()))
            counts = np.bincount(draws, minlength=5)
            assert out.clients.tolist() == np.flatnonzero(counts).tolist()
            assert out.multiplicity.tolist() == counts[counts > 0].tolist()
            assert out.delta_t == (ref_hw.standard_exponential(len(drawn)) * np.array(taus)[drawn]).max()
        assert sample_rng.bit_generator.state == ref_sample.bit_generator.state
        assert hw_rng.bit_generator.state == ref_hw.bit_generator.state

    def test_multinomial_sampling_reads_importances_changed_in_place(self):
        # one importance array, rewritten between rounds: each round draws
        # from the probabilities the array holds when it is played
        policy = WaitPolicy(PolicyKind.SAMPLE_MD, m=2)
        rng = np.random.default_rng(3)
        state = init_fleet_state([1, 1, 1], FIXED)
        importances = np.array([1.0, 0.0, 0.0])
        assert advance_round(state, policy, [1, 1, 1], FIXED, sample_rng=rng, importances=importances) \
            .clients.tolist() == [0]
        importances[:] = [0.0, 0.0, 1.0]
        assert advance_round(state, policy, [1, 1, 1], FIXED, sample_rng=rng, importances=importances) \
            .clients.tolist() == [2]
        importances[:] = [0.5, 0.6, -0.1]
        with pytest.raises(ConfigurationError, match="probability per client"):
            advance_round(state, policy, [1, 1, 1], FIXED, sample_rng=rng, importances=importances)

    @pytest.mark.parametrize("importances", [[0.5, 0.6], [1.5, -0.5], [1.0]])
    def test_multinomial_sampling_rejects_bad_probabilities(self, importances):
        state = init_fleet_state([1, 1], FIXED)
        policy = WaitPolicy(PolicyKind.SAMPLE_MD, m=2)
        with pytest.raises(ConfigurationError, match="probability per client"):
            advance_round(state, policy, [1, 1], FIXED, sample_rng=np.random.default_rng(0),
                          importances=importances)

    def test_sample_size_cannot_exceed_fleet(self):
        state = init_fleet_state([1, 1], FIXED)
        policy = WaitPolicy(PolicyKind.SAMPLE_UNIFORM, m=3)
        with pytest.raises(ConfigurationError):
            advance_round(state, policy, [1, 1], FIXED, sample_rng=np.random.default_rng(0))

    def test_fastest_criterion_is_deterministic(self):
        state = init_fleet_state([3, 1, 2], FIXED)
        policy = WaitPolicy(PolicyKind.SAMPLE_BIASED, m=2, criterion="fastest")
        out = advance_round(state, policy, [3, 1, 2], FIXED)
        assert out.clients.tolist() == [1, 2]

    def test_highest_loss_criterion_needs_losses(self):
        state = init_fleet_state([1, 1], FIXED)
        policy = WaitPolicy(PolicyKind.SAMPLE_BIASED, m=1, criterion="highest_loss")
        with pytest.raises(ConfigurationError):
            advance_round(state, policy, [1, 1], FIXED)
        out = advance_round(state, policy, [1, 1], FIXED, client_losses=[0.1, 0.9])
        assert out.clients.tolist() == [1]


def _counts(outcome, n_clients):
    row = np.zeros(n_clients)
    row[outcome.clients] = outcome.multiplicity
    return row


class TestParticipationCovariance:
    """The (alpha, beta) covariance of the participation counts, measured on
    the rounds the scheduler produces: E[c_i c_j] = alpha E[c_i] E[c_j] for
    i != j, and squares of the weights d_i c_i stay under beta times their
    mean."""

    def test_full_participation_counts_are_constant(self):
        for out in fixed_schedule([1, 3, 2, 5], WaitPolicy(PolicyKind.SYNCHRONOUS), 12):
            assert np.array_equal(_counts(out, 4), np.ones(4))  # alpha = 1, beta = 0

    def test_async_rounds_have_no_cross_terms_and_beta_is_the_largest_weight(self):
        d = np.array([0.75, 1.5])
        w = np.array([
            d * _counts(out, 2)
            for out in fixed_schedule([1, 2], WaitPolicy(PolicyKind.ASYNCHRONOUS), 30)
        ])
        assert np.all(w[:, 0] * w[:, 1] == 0.0)  # alpha = 0
        assert np.all(w ** 2 <= d.max() * w)
        assert np.any(w[:, 1] ** 2 == d.max() * w[:, 1])  # the bound is attained

    def test_uniform_sampling_of_everyone_recovers_full_participation(self):
        state = init_fleet_state([1, 2, 3, 4, 5], FIXED)
        policy = WaitPolicy(PolicyKind.SAMPLE_UNIFORM, m=5)
        rng = np.random.default_rng(2)
        for _ in range(20):
            out = advance_round(state, policy, [1, 2, 3, 4, 5], FIXED, sample_rng=rng)
            assert np.array_equal(_counts(out, 5), np.ones(5))

    def test_multinomial_cross_moment_gives_alpha_m_minus_one_over_m(self):
        m, n_rounds = 3, 20_000
        policy = WaitPolicy(PolicyKind.SAMPLE_MD, m=m)
        state = init_fleet_state([1, 1, 1, 1], FIXED)
        rng = np.random.default_rng(3)
        counts = np.array([
            _counts(advance_round(state, policy, [1, 1, 1, 1], FIXED, sample_rng=rng,
                                  importances=[0.25] * 4), 4)
            for _ in range(n_rounds)
        ])
        assert np.all(counts.sum(axis=1) == m)
        cross = counts[:, 0] * counts[:, 1]
        se = cross.std(ddof=1) / math.sqrt(n_rounds)
        expected = (m - 1) / m * (m / 4) ** 2  # alpha = 2/3 times E[c_0] E[c_1]
        assert abs(cross.mean() - expected) <= 4 * se


class TestDeterminism:
    def test_same_seed_same_participant_sequence(self):
        policy = WaitPolicy(PolicyKind.ASYNCHRONOUS)
        hw = HardwareModel("exponential")

        def participants(seed):
            rng = np.random.default_rng(seed)
            state = init_fleet_state([1.0, 2.0], hw, rng)
            seq = []
            for _ in range(30):
                out = advance_round(state, policy, [1.0, 2.0], hw, hw_rng=rng)
                seq.append(out.clients.tolist())
            return seq

        assert participants(123) == participants(123)
        assert participants(123) != participants(124)


class TestStalenessBound:
    def test_synchronous_is_zero(self):
        assert staleness_bound(WaitPolicy(PolicyKind.SYNCHRONOUS), FIXED, [1, 2, 3]) == 0

    def test_fixed_window_ceiling(self):
        policy = WaitPolicy(PolicyKind.FEDFIX, delta_t=2)
        assert staleness_bound(policy, FIXED, [1, 3]) == 2

    @pytest.mark.parametrize("taus, delta_t", [([1, 3], 2), ([0.3, 0.7, 0.2], 0.1), ([2.5, 1], 0.5),
                                                 ([Fraction(7, 3), 1], Fraction(2, 3))])
    def test_fixed_window_bound_is_the_longest_period(self, taus, delta_t):
        policy = WaitPolicy(PolicyKind.FEDFIX, delta_t=delta_t)
        periods = [fedfix_period(t, policy.delta_t) for t in taus]
        exact = [math.ceil(Fraction(t) / Fraction(policy.delta_t)) for t in taus]
        assert periods == exact
        assert staleness_bound(policy, FIXED, taus) == max(exact)

    def test_fixed_window_bound_dominates_realized_staleness(self):
        policy = WaitPolicy(PolicyKind.FEDFIX, delta_t=2)
        bound = staleness_bound(policy, FIXED, [3, 5])
        outcomes = fixed_schedule([3, 5], policy, 40)
        realized = max(
            (s for out in outcomes[10:] for s in out.staleness.tolist()), default=0
        )
        assert realized <= bound

    @pytest.mark.parametrize("taus, delta_t, bound", [([1, 3], 2, 2), ([0.3, 0.7, 0.2], 0.1, 7), ([2.5, 1], 0.5, 5),
                                                        ([Fraction(7, 3), 1], Fraction(2, 3), 4)])
    def test_fixed_window_bound_is_one_above_the_realized_lag(self, taus, delta_t, bound):
        # a delivery in round n trained from the model after the client's
        # previous delivery, round n - ceil(tau_i / delta_t) + 1
        policy = WaitPolicy(PolicyKind.FEDFIX, delta_t=delta_t)
        schedule = merged_schedule(init_fleet_state(taus, FIXED, policy=policy), policy, rounds=200)
        assert staleness_bound(policy, FIXED, taus) == bound
        assert int((schedule.round_of - schedule.anchors).max()) == bound - 1

    def test_async_two_client_cycle(self):
        assert staleness_bound(WaitPolicy(PolicyKind.ASYNCHRONOUS), FIXED, [1, 2]) == 2

    def test_async_equal_hardware_gives_m_minus_one(self):
        assert staleness_bound(WaitPolicy(PolicyKind.ASYNCHRONOUS), FIXED, [1, 1, 1]) == 2

    def test_async_respects_the_heterogeneity_scaling(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            m = int(rng.integers(2, 5))
            taus = sorted(int(t) for t in rng.integers(1, 9, size=m))
            measured = staleness_bound(WaitPolicy(PolicyKind.ASYNCHRONOUS), FIXED, taus)
            cap = sum(math.ceil(max(taus) / t) for t in taus)
            assert 1 <= measured <= cap

    def test_random_hardware_rejected(self):
        with pytest.raises(UnsupportedConfigError):
            staleness_bound(WaitPolicy(PolicyKind.ASYNCHRONOUS), HardwareModel("exponential"), [1, 2])


class TestPolicyValidation:
    def test_fedfix_needs_positive_window(self):
        with pytest.raises(ConfigurationError):
            WaitPolicy(PolicyKind.FEDFIX, delta_t=0)

    def test_buffered_needs_m(self):
        with pytest.raises(ConfigurationError):
            WaitPolicy(PolicyKind.FEDBUFF)

    def test_biased_needs_known_criterion(self):
        with pytest.raises(ConfigurationError):
            WaitPolicy(PolicyKind.SAMPLE_BIASED, m=1, criterion="alphabetical")


class TestInitialClocks:
    def test_offsets_shift_the_first_deliveries(self):
        outcomes = fixed_schedule(
            [2, 2], WaitPolicy(PolicyKind.FEDFIX, delta_t=1), 4, initial_clocks=[2, 1]
        )
        assert [out.clients.tolist() for out in outcomes] == [[1], [0], [1], [0]]

    def test_offsets_require_fixed_hardware(self):
        with pytest.raises(ConfigurationError):
            init_fleet_state([1.0], HardwareModel("exponential"),
                             np.random.default_rng(0), initial_clocks=[1])


class TestRoundTimeSampling:
    def test_exponential_minimum_rate(self):
        times = round_durations(WaitPolicy(PolicyKind.ASYNCHRONOUS), [1.0] * 4, 20_000, seed=5)
        se = times.std(ddof=1) / math.sqrt(times.size)
        assert abs(times.mean() - 0.25) <= 4 * se


class TestUnsortedFleets:
    def test_async_cycle_counts_do_not_depend_on_ordering(self):
        taus = [4, 1, 3, 2]
        window = sum(participations_per_cycle(taus))  # lcm 12 -> 3 + 12 + 4 + 6 = 25
        assert window == 25
        outcomes = fixed_schedule(taus, WaitPolicy(PolicyKind.ASYNCHRONOUS), window)
        counts = [0] * 4
        for out in outcomes:
            counts[out.clients[0]] += 1
        assert counts == [3, 12, 4, 6]


# the 15-client fleet of the bounds benchmark workload: an 11,685-round cycle
BOUNDS_TIMES = (2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15, 16, 18, 20)
ASYNC = WaitPolicy(PolicyKind.ASYNCHRONOUS)
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _replayed_staleness(policy, taus, max_rounds=200_000):
    """Reference: replay three schedule cycles round by round and take the
    largest staleness of the third, after a cycle of anchor warm-up."""
    state = init_fleet_state(taus, FIXED)
    seen = {tuple(state.remaining): 0}
    period = first_repeat = None
    history = []
    for _ in range(max_rounds):
        history.append(advance_round(state, policy, list(taus), FIXED))
        key = tuple(state.remaining)
        if period is None and key in seen:
            first_repeat = state.round_index
            period = first_repeat - seen[key]
        elif period is None:
            seen[key] = state.round_index
        if period is not None and state.round_index >= first_repeat + 2 * period:
            steady = history[first_repeat + period:]
            return max(s for out in steady for s in out.staleness.tolist())
    raise AssertionError("reference replay did not cycle")


def _random_fleets():
    rng = np.random.default_rng(7)
    fleets = []
    while len(fleets) < 40:
        taus = [int(t) for t in rng.integers(1, 13, size=int(rng.integers(1, 7)))]
        if sum(participations_per_cycle(taus)) <= 3000:
            fleets.append(taus)
    while len(fleets) < 70:
        m = int(rng.integers(2, 6))
        taus = [Fraction(int(a), int(b)) for a, b in zip(rng.integers(1, 10, m), rng.integers(1, 5, m))]
        if sum(participations_per_cycle(taus)) <= 3000:
            fleets.append(taus)
    return fleets


class TestAsyncStalenessAnalyzer:
    @pytest.mark.parametrize(
        "taus",
        [[1, 1, 1], [2, 2, 3, 3, 6], [4, 4, 2, 2, 1], [5], [Fraction(3, 2)], [1, 2],
         [0.5, 0.25, 1.5], [Fraction(2, 3), Fraction(3, 4), 1],
         # a 381-round cycle of ticks past int64 (the primes to 53 multiply to 3.3e19)
         [Fraction(1, p) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)]],
    )
    def test_matches_the_replay_on_tied_single_and_rational_fleets(self, taus):
        assert staleness_bound(ASYNC, FIXED, taus) == _replayed_staleness(ASYNC, taus)

    def test_matches_the_replay_on_seeded_random_fleets(self):
        for taus in _random_fleets():
            assert staleness_bound(ASYNC, FIXED, taus) == _replayed_staleness(ASYNC, taus), taus

    def test_matches_the_replay_on_the_benchmark_fleet(self):
        rng = np.random.default_rng(11)
        for taus in (list(BOUNDS_TIMES), [int(t) for t in rng.permutation(BOUNDS_TIMES)]):
            assert sum(participations_per_cycle(taus)) == 11_685
            assert staleness_bound(ASYNC, FIXED, taus) == _replayed_staleness(ASYNC, taus)

    def test_makes_no_advance_round_call(self, monkeypatch):
        expected = _replayed_staleness(ASYNC, list(BOUNDS_TIMES))

        def forbidden(*args, **kwargs):
            raise AssertionError("advance_round called")

        monkeypatch.setattr(timing, "advance_round", forbidden)
        assert staleness_bound(ASYNC, FIXED, list(BOUNDS_TIMES)) == expected

    def test_over_cap_fleet_is_unsupported_and_fast(self):
        taus = json.loads((CONFIGS / "async_logistic_heterogeneous.json").read_text())
        taus = taus["fleet"]["compute_times"]
        assert sum(participations_per_cycle(taus)) > SCHEDULE_ROUND_CAP
        started = time.perf_counter()
        with pytest.raises(UnsupportedConfigError, match=str(SCHEDULE_ROUND_CAP)):
            staleness_bound(ASYNC, FIXED, taus)
        assert time.perf_counter() - started < 1.0

    def test_participations_per_cycle_of_rational_times(self):
        # lcm of the numerators (3) over gcd of the denominators (1): nu = 3
        assert participations_per_cycle([Fraction(1, 2), Fraction(1, 3), Fraction(3, 4)]) == [6, 9, 4]
        assert participations_per_cycle([0.5, 1.5]) == [3, 1]


def _replayed_period(policy, taus, max_rounds=100_000):
    """Reference: the round count between the first two equal clock states."""
    state = init_fleet_state(taus, FIXED)
    seen = {tuple(state.remaining): 0}
    for _ in range(max_rounds):
        advance_round(state, policy, list(taus), FIXED)
        key = tuple(state.remaining)
        if key in seen:
            return state.round_index - seen[key]
        seen[key] = state.round_index
    raise AssertionError("reference replay did not cycle")


class TestScheduleRecord:
    @pytest.mark.parametrize("offsets, round_of", [([0, 1, 2, 3], [0, 1, 2]), ([0, 0, 2, 3], [1, 1, 2]),
                                                   ([0, 2, 2, 3], [0, 0, 2]), ([0], [])])
    def test_round_column(self, offsets, round_of):
        n = len(offsets) - 1
        rows = offsets[-1]
        schedule = Schedule(1, np.ones(n, dtype=np.int64), np.arange(1.0, n + 1), np.array(offsets),
                            np.zeros(rows, dtype=np.int64), np.ones(rows, dtype=np.int64), np.zeros(rows, dtype=np.int64))
        assert schedule.round_of.tolist() == round_of


class TestSteadyPeriodReplay:
    def test_buffered_period_and_staleness_match_the_reference_replays(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            m = int(rng.integers(2, 7))
            taus = [int(t) for t in rng.integers(1, 10, size=m)]
            policy = WaitPolicy(PolicyKind.FEDBUFF, m=int(rng.integers(1, m + 1)))
            _, steady = steady_period(policy, taus)
            assert len(steady) == _replayed_period(policy, taus)
            assert staleness_bound(policy, FIXED, taus) == _replayed_staleness(policy, taus)

    def test_the_steady_period_repeats(self):
        policy = WaitPolicy(PolicyKind.FEDBUFF, m=2)
        taus = [8, 2, 7]  # clocks first repeat after a transient longer than the period
        start, steady = steady_period(policy, taus)
        period = len(steady)
        later = fixed_schedule(taus, policy, start + 3 * period)
        def shape(outcomes):
            return [
                (o.delta_t, o.clients.tolist(), o.multiplicity.tolist(), o.staleness.tolist())
                for o in outcomes
            ]

        for k in (1, 2):
            assert shape(later[start + k * period:start + (k + 1) * period]) == shape(steady)
        assert steady.time.tolist() == [float(t) for t in accumulate(o.delta_t for o in later)][start:start + period]

    def test_round_cap_is_unsupported(self, monkeypatch):
        monkeypatch.setattr(timing, "SCHEDULE_ROUND_CAP", 5)
        with pytest.raises(UnsupportedConfigError, match="within 5 rounds"):
            steady_period(WaitPolicy(PolicyKind.FEDBUFF, m=2), [8, 2, 7])


def _reference_schedule(taus, policy, n_rounds):
    """The first ``n_rounds`` rounds of fresh clocks as the engine records
    them: one event merge, or replayed rounds where the ticks pass int64."""
    state = init_fleet_state(taus, FIXED, policy=policy)
    schedule = merged_schedule(state, policy, rounds=n_rounds)
    if schedule is None:
        schedule = Schedule.empty(state)
        replay_rounds(state, policy, list(taus), FIXED, n_rounds, schedule)
    return schedule


def _period_lags(schedule, first, n_rounds):
    """Clients and lags, round minus anchor, of rounds first .. first + n_rounds - 1."""
    rows = slice(schedule.offsets[first], schedule.offsets[first + n_rounds])
    return schedule.clients[rows].tolist(), (schedule.round_of - schedule.anchors)[rows].tolist()


class TestAsyncSteadyPeriod:
    @pytest.mark.parametrize("fleets", ["seeded", "primes"])
    def test_async_period_is_one_cycle_of_the_schedule(self, fleets):
        if fleets == "seeded":  # integer and rational times
            fleets = _random_fleets() + [list(BOUNDS_TIMES)]
        else:  # ticks past int64
            fleets = [[Fraction(1, p) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)]]
        for taus in fleets:
            start, steady = steady_period(ASYNC, taus)
            n = len(steady)
            assert np.bincount(steady.clients, minlength=len(taus)).tolist() == participations_per_cycle(taus)
            schedule = _reference_schedule(taus, ASYNC, start + 2 * n)
            assert steady.scale == schedule.scale
            assert steady.length.tolist() == schedule.length[start:start + n].tolist()
            assert steady.time.tolist() == schedule.time[start:start + n].tolist()
            assert steady.multiplicity.tolist() == [1] * n
            assert _period_lags(schedule, start, n) == _period_lags(schedule, start + n, n)
            clients, lags = _period_lags(schedule, start, n)
            assert steady.clients.tolist() == clients
            assert (steady.round_of - steady.anchors).tolist() == lags
            assert np.concatenate([r.staleness for r in steady]).tolist() == lags

    def test_other_policies_have_no_record(self):
        with pytest.raises(UnsupportedConfigError, match="no steady-period record"):
            steady_period(WaitPolicy(PolicyKind.FEDFIX, delta_t=1), [1, 2])


# ---------------------------------------------------------------------------
# The array clock against the list-of-Fraction scheduler it replaced
# ---------------------------------------------------------------------------

def _exact_ref(value):
    if isinstance(value, int):
        return value
    frac = Fraction(value)
    return int(frac) if frac.denominator == 1 else frac


def _draw_ref(hw, tau, rng):
    if hw.mode == "fixed":
        return _exact_ref(tau)
    return float(rng.exponential(scale=float(tau)))


class _ReferenceFleet:
    """Reference scheduler: one exact rational (or float) clock per client
    in a Python list, advanced by a per-client loop each round. A round is
    (index, delta_t, participants), with one (client, multiplicity, anchor,
    staleness) tuple per participant in ascending client order."""

    def __init__(self, taus, hw, rng=None, initial_clocks=None):
        if initial_clocks is not None:
            self.remaining = [_exact_ref(c) for c in initial_clocks]
        else:
            self.remaining = [_draw_ref(hw, tau, rng) for tau in taus]
        self.anchor = [0] * len(taus)
        self.clock = 0 if hw.mode == "fixed" else 0.0
        self.round_index = 0

    def advance(self, policy, taus, hw, *, hw_rng=None, sample_rng=None,
                client_losses=None, importances=None, time_limit=None):
        n = self.round_index
        n_clients = len(self.remaining)
        kind = policy.kind
        if policy.is_sampling:
            return self._sampling(policy, taus, hw, hw_rng, sample_rng,
                                  client_losses, importances, time_limit)
        if kind is PolicyKind.SYNCHRONOUS:
            dt = max(self.remaining)
            selected = list(range(n_clients))
        elif kind is PolicyKind.ASYNCHRONOUS:
            dt = min(self.remaining)
            selected = [self.remaining.index(dt)]
        elif kind is PolicyKind.FEDFIX:
            dt = policy.delta_t if hw.mode == "fixed" else float(policy.delta_t)
            selected = [i for i, t in enumerate(self.remaining) if t <= dt]
        else:
            dt = sorted(self.remaining)[policy.m - 1]
            selected = [i for i, t in enumerate(self.remaining) if t <= dt]
        if time_limit is not None and self.clock + dt > time_limit:
            return None
        participants = tuple((i, 1, self.anchor[i], n - self.anchor[i]) for i in selected)
        selected_set = set(selected)
        for i in range(n_clients):
            if i in selected_set:
                self.remaining[i] = _draw_ref(hw, taus[i], hw_rng)
                self.anchor[i] = n + 1
            else:
                self.remaining[i] = self.remaining[i] - dt
        self.clock = self.clock + dt
        self.round_index = n + 1
        return n, dt, participants

    def _sampling(self, policy, taus, hw, hw_rng, sample_rng, client_losses,
                  importances, time_limit):
        n = self.round_index
        n_clients = len(self.remaining)
        m = policy.m
        if policy.kind is PolicyKind.SAMPLE_UNIFORM:
            counts = {int(i): 1 for i in sample_rng.choice(n_clients, size=m, replace=False)}
        elif policy.kind is PolicyKind.SAMPLE_MD:
            counts = {}
            for i in sample_rng.choice(n_clients, size=m, replace=True,
                                       p=np.asarray(importances, dtype=float)):
                counts[int(i)] = counts.get(int(i), 0) + 1
        elif policy.criterion == "fastest":
            counts = {i: 1 for i in sorted(range(n_clients), key=lambda i: (taus[i], i))[:m]}
        else:
            order = sorted(range(n_clients), key=lambda i: (-client_losses[i], i))
            counts = {i: 1 for i in order[:m]}
        times = {i: _draw_ref(hw, taus[i], hw_rng) for i in counts}
        dt = max(times.values())
        if time_limit is not None and self.clock + dt > time_limit:
            return None
        participants = tuple((i, mult, n, 0) for i, mult in sorted(counts.items()))
        self.anchor = [n + 1] * n_clients
        self.clock = self.clock + dt
        self.round_index = n + 1
        return n, dt, participants


def _compare_with_reference(taus, policy, hw, *, seed=0, initial_clocks=None,
                            time_limit=None, n_rounds=150):
    """Advance both schedulers round by round and require the same
    participants, anchors, staleness, round lengths, clocks and hardware RNG
    state. Returns the array state and the rounds completed."""
    taus = list(taus)
    exponential = hw.mode == "exponential"
    rng_new, rng_ref = (np.random.default_rng(seed) for _ in range(2))
    sample_new, sample_ref = (np.random.default_rng(seed + 1) for _ in range(2))
    losses_rng = np.random.default_rng(seed + 2)
    importances = np.full(len(taus), 1.0 / len(taus))
    state = init_fleet_state(taus, hw, rng_new if exponential else None, initial_clocks,
                             policy=policy)
    ref = _ReferenceFleet(taus, hw, rng_ref, initial_clocks)
    for _ in range(n_rounds):
        losses = losses_rng.random(len(taus)).tolist()
        kwargs = dict(client_losses=losses, importances=importances, time_limit=time_limit)
        got = advance_round(state, policy, taus, hw, hw_rng=rng_new if exponential else None,
                            sample_rng=sample_new, **kwargs)
        want = ref.advance(policy, taus, hw, hw_rng=rng_ref if exponential else None,
                           sample_rng=sample_ref, **kwargs)
        if want is None:
            assert got is None
            break
        index, delta_t, participants = want
        clients, multiplicity, anchors, staleness = ([p[k] for p in participants] for k in range(4))
        assert got.index == index
        assert got.clients.tolist() == clients
        assert got.multiplicity.tolist() == multiplicity
        assert got.anchors.tolist() == anchors
        assert got.staleness.tolist() == staleness
        for values in (got.clients, got.multiplicity, got.anchors, got.staleness):
            assert values.dtype == np.int64
        assert got.delta_t == delta_t
        if exponential:
            assert type(got.delta_t) is float and type(delta_t) is float
            assert state.remaining.tolist() == ref.remaining
        else:
            # exact either way; the reference's int-or-Fraction depends on its
            # arithmetic history, the array clock's on the tick scale alone
            assert type(got.delta_t) is (int if state.scale == 1 else Fraction)
            assert isinstance(delta_t, (int, Fraction))
            assert [Fraction(t, state.scale) for t in state.remaining.tolist()] == ref.remaining
        assert state.time.hex() == float(ref.clock).hex()
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state
        assert sample_new.bit_generator.state == sample_ref.bit_generator.state
    return state, state.round_index


def _policies(m_clients, delta_t):
    return [
        WaitPolicy(PolicyKind.SYNCHRONOUS),
        WaitPolicy(PolicyKind.ASYNCHRONOUS),
        WaitPolicy(PolicyKind.FEDFIX, delta_t=delta_t),
        WaitPolicy(PolicyKind.FEDBUFF, m=max(1, m_clients // 2)),
        WaitPolicy(PolicyKind.FEDBUFF, m=m_clients),
        WaitPolicy(PolicyKind.SAMPLE_UNIFORM, m=max(1, m_clients - 1)),
        WaitPolicy(PolicyKind.SAMPLE_MD, m=min(2, m_clients)),
        WaitPolicy(PolicyKind.SAMPLE_BIASED, m=1, criterion="fastest"),
        WaitPolicy(PolicyKind.SAMPLE_BIASED, m=1, criterion="highest_loss"),
    ]


class TestArrayClockMatchesTheReference:
    def test_integer_times(self):
        rng = np.random.default_rng(21)
        for _ in range(8):
            taus = [int(t) for t in rng.integers(1, 13, size=int(rng.integers(1, 7)))]
            for policy in _policies(len(taus), int(rng.integers(1, 6))):
                state, _ = _compare_with_reference(taus, policy, FIXED)
                assert state.scale == 1 and state.remaining.dtype == np.int64

    def test_binary_float_times_with_a_non_integer_window(self):
        rng = np.random.default_rng(22)
        for _ in range(8):
            taus = [round(float(t), 2) for t in rng.uniform(0.5, 3.0, size=int(rng.integers(1, 7)))]
            delta_t = round(float(rng.uniform(0.3, 2.0)), 2)
            for policy in _policies(len(taus), delta_t):
                state, _ = _compare_with_reference(taus, policy, FIXED)
                assert state.scale > 1 and state.remaining.dtype == np.int64

    def test_shipped_logistic_times_over_the_time_horizon(self):
        taus = json.loads((CONFIGS / "async_logistic_heterogeneous.json").read_text())
        taus = taus["fleet"]["compute_times"]
        for policy in _policies(len(taus), 0.7):
            _, rounds = _compare_with_reference(taus, policy, FIXED, time_limit=120.0,
                                                n_rounds=2000)
            assert 0 < rounds < 2000

    def test_rational_times_and_initial_clocks(self):
        rng = np.random.default_rng(23)
        for _ in range(8):
            m = int(rng.integers(1, 6))
            taus = [Fraction(int(a), int(b)) for a, b in zip(rng.integers(1, 10, m),
                                                             rng.integers(1, 5, m))]
            clocks = [round(float(c), 3) for c in rng.uniform(0.01, 2.0, m)]
            for policy in _policies(m, Fraction(3, 4)):
                if policy.is_sampling:
                    continue  # sampling rounds never read the clocks
                _compare_with_reference(taus, policy, FIXED, initial_clocks=clocks)

    def test_time_limited_runs_stop_at_the_same_round(self):
        rng = np.random.default_rng(24)
        for limit in (7, 7.3, Fraction(22, 3), 0.1):
            taus = [round(float(t), 2) for t in rng.uniform(0.5, 3.0, size=4)]
            for policy in _policies(4, 0.45):
                state, rounds = _compare_with_reference(taus, policy, FIXED, time_limit=limit)
                assert rounds < 150 and state.time <= limit
        # a limit between two ticks: a round ending one tick past it must stop
        for limit in (7.5, 8, Fraction(17, 2)):
            for policy in _policies(4, 1):
                state, rounds = _compare_with_reference([1, 2, 3, 4], policy, FIXED,
                                                        time_limit=limit)
                state, rounds = _compare_with_reference(taus, policy, FIXED, time_limit=limit)
                assert rounds < 150 and state.time <= limit

    @pytest.mark.parametrize("m_clients, n_rounds", [(3, 300), (500, 120)])
    def test_exponential_hardware(self, m_clients, n_rounds):
        rng = np.random.default_rng(25)
        taus = [float(t) for t in rng.integers(1, 17, size=m_clients)]
        taus[0] = 1.09
        for seed, policy in enumerate(_policies(m_clients, 0.7)):
            _compare_with_reference(taus, policy, HardwareModel("exponential"), seed=seed,
                                    n_rounds=n_rounds)
            _compare_with_reference(taus, policy, HardwareModel("exponential"), seed=seed,
                                    time_limit=3.5, n_rounds=n_rounds)

    def test_ticks_beyond_int64_fall_back_to_python_ints(self):
        taus = [2.0 ** -60, 1e6, 3.5]
        for policy in _policies(3, 0.75):
            state, _ = _compare_with_reference(taus, policy, FIXED, time_limit=2e6)
            assert state.remaining.dtype == object
            assert state.scale == 2 ** 60

    def test_replay_key_is_value_based_on_python_int_ticks(self):
        policy = WaitPolicy(PolicyKind.FEDBUFF, m=2)
        big = [t * 2 ** 70 for t in (8, 2, 7)]
        assert init_fleet_state(big, FIXED, policy=policy).remaining.dtype == object
        start, steady = steady_period(policy, [8, 2, 7])
        start_big, steady_big = steady_period(policy, big)
        assert (start_big, len(steady_big)) == (start, len(steady))
        for big, small in zip(steady_big, steady, strict=True):
            for field in ("clients", "multiplicity", "anchors"):
                assert np.array_equal(getattr(big, field), getattr(small, field))

    def test_window_off_the_tick_scale_is_rejected(self):
        state = init_fleet_state([1, 2], FIXED)
        with pytest.raises(ConfigurationError, match="tick scale"):
            advance_round(state, WaitPolicy(PolicyKind.FEDFIX, delta_t=0.5), [1, 2], FIXED)


def _stepped(taus, policy, hw, blocks, *, seed, time_limit=None, per_round=False):
    """``blocks`` calls of ``replay_rounds`` (or, ``per_round``, as many
    ``advance_round`` calls a block) on fresh clocks, up to the first round
    past ``time_limit``: the schedule, the final state, whether a round
    was cut, and the hardware generator."""
    exponential = hw.mode == "exponential"
    hw_rng, sample_rng = np.random.default_rng(seed), np.random.default_rng(seed + 1)
    state = init_fleet_state(taus, hw, hw_rng if exponential else None, policy=policy)
    schedule = Schedule.empty(state)
    kwargs = dict(hw_rng=hw_rng if exponential else None, sample_rng=sample_rng,
                  client_losses=np.random.default_rng(seed + 2).random(len(taus)),
                  importances=np.full(len(taus), 1 / len(taus)), time_limit=time_limit)
    for block in blocks:
        played = 0
        if not per_round:
            played = replay_rounds(state, policy, taus, hw, block, schedule, **kwargs)
        while per_round and played < block and (out := advance_round(state, policy, taus, hw, **kwargs)):
            schedule.append([out.length], [state.time], [out.clients.size], out.clients, out.multiplicity,
                            out.anchors)
            played += 1
        if played < block:
            return schedule, state, True, hw_rng
    return schedule, state, False, hw_rng


class TestBlockReplay:
    """``replay_rounds`` over any split of n rounds into blocks gives the
    columns and the final fleet state of n ``advance_round`` calls, on
    fixed and exponential hardware, for every policy."""

    @pytest.mark.parametrize("hw", ["fixed", "exponential"])
    @pytest.mark.parametrize("policy", _policies(6, 0.7), ids=lambda p: p.criterion or f"{p.kind.value}-{p.m}")
    @given(blocks=st.lists(st.integers(1, 70), min_size=1, max_size=6), seed=st.integers(0, 2 ** 16),
           limited=st.booleans())
    @settings(max_examples=12, deadline=None)
    def test_any_split_matches_the_per_round_calls(self, policy, hw, blocks, seed, limited):
        taus = [1.5, 2, 0.75, 3, 1.25, 2.5]
        hw = HardwareModel(hw)
        # the budget ends some 40 to 120 rounds in, or 10 to 30 for the slower policies
        limit = (21.5 if policy.kind is PolicyKind.ASYNCHRONOUS else 37.5) if limited else None
        got, state, cut, rng = _stepped(taus, policy, hw, blocks, seed=seed, time_limit=limit)
        want, reference, cut_too, rng_too = _stepped(taus, policy, hw, blocks, seed=seed, time_limit=limit,
                                                     per_round=True)
        assert cut == cut_too and len(got) == len(want) == state.round_index == reference.round_index
        for column in ("length", "time", "offsets", "clients", "multiplicity", "anchors", "round_of"):
            assert getattr(got, column).tobytes() == getattr(want, column).tobytes(), column
        assert state.remaining.tobytes() == reference.remaining.tobytes()
        assert state.anchor.tolist() == reference.anchor.tolist()
        assert (state.clock, type(state.clock)) == (reference.clock, type(reference.clock))
        if not cut or policy.kind is not PolicyKind.ASYNCHRONOUS:  # a cut async block draws ahead
            assert rng.bit_generator.state == rng_too.bit_generator.state

    @pytest.mark.parametrize("hw", ["fixed", "exponential"])
    @pytest.mark.parametrize("policy", _policies(6, 0.7), ids=lambda p: p.criterion or f"{p.kind.value}-{p.m}")
    def test_a_round_past_the_limit_is_the_round_of_a_later_call(self, policy, hw):
        # a round past the limit leaves the state and the generators as they
        # were, so a later call with a larger limit plays the round that an
        # unlimited call plays; a sampling round draws its sample, and on
        # exponential hardware its clients' times, before it knows its length
        draws_first = policy.is_sampling and (hw == "exponential" or policy.kind is not PolicyKind.SAMPLE_BIASED)
        taus, hw = [1.5, 2, 0.75, 3, 1.25, 2.5], HardwareModel(hw)
        kwargs = dict(client_losses=[0.3, 0.1, 0.5, 0.2, 0.6, 0.4], importances=[1 / 6] * 6)
        states, generators = [], []
        for _ in range(2):
            rng, sample_rng = np.random.default_rng(4), np.random.default_rng(5)
            generators.append((rng, sample_rng))
            states.append(init_fleet_state(taus, hw, rng if hw.mode == "exponential" else None, policy=policy))
        (state, twin), checked = states, 0
        for _ in range(30):
            (rng, sample_rng), (rng_twin, sample_twin) = generators
            kept = state.remaining.copy(), state.anchor.copy(), state.clock, rng.bit_generator.state
            unlimited = advance_round(twin, policy, taus, hw, hw_rng=rng_twin if hw.mode == "exponential" else None,
                                      sample_rng=sample_twin, **kwargs)
            call = dict(hw_rng=rng if hw.mode == "exponential" else None, sample_rng=sample_rng, **kwargs)
            if twin.time > state.time and not draws_first:
                assert advance_round(state, policy, taus, hw, time_limit=(state.time + twin.time) / 2, **call) is None
                assert state.remaining.tobytes() == kept[0].tobytes() and state.anchor.tolist() == kept[1].tolist()
                assert state.clock == kept[2] and rng.bit_generator.state == kept[3]
                checked += 1
            later = advance_round(state, policy, taus, hw, time_limit=twin.time + 1, **call)
            assert _record([later]) == _record([unlimited])
            assert state.remaining.tobytes() == twin.remaining.tobytes() and state.clock == twin.clock
        assert checked > 10 or draws_first


def _forbidden(*args):
    raise AssertionError("Fraction arithmetic in the round step")


class TestNoFractionArithmeticPerRound:
    OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__")

    def test_binary_float_fleet(self, monkeypatch):
        taus = [1.0, 1.09, 1.18, 1.27, 1.36]
        clocks = [0.5, 1.25, 0.3, 2.0, 1.09]
        policies = [WaitPolicy(PolicyKind.SYNCHRONOUS), WaitPolicy(PolicyKind.ASYNCHRONOUS),
                    WaitPolicy(PolicyKind.FEDFIX, delta_t=0.7), WaitPolicy(PolicyKind.FEDBUFF, m=3)]
        with monkeypatch.context() as patch:
            for name in self.OPERATORS:
                patch.setattr(Fraction, name, _forbidden)
            with pytest.raises(AssertionError, match="Fraction arithmetic"):
                Fraction(1, 2) + 1
            for policy in policies:
                state = init_fleet_state(taus, FIXED, initial_clocks=clocks, policy=policy)
                rounds = 0
                while advance_round(state, policy, taus, FIXED, time_limit=60.0) is not None:
                    rounds += 1
                assert rounds > 40 and state.scale > 1

    def test_a_round_builds_no_fraction(self, monkeypatch):
        # the round keeps its tick length and scale; delta_t builds the
        # Fraction only when read
        taus = [1.0, 1.09, 1.18, 1.27, 1.36]
        policies = [WaitPolicy(PolicyKind.SYNCHRONOUS), WaitPolicy(PolicyKind.ASYNCHRONOUS),
                    WaitPolicy(PolicyKind.FEDFIX, delta_t=0.7), WaitPolicy(PolicyKind.FEDBUFF, m=3),
                    WaitPolicy(PolicyKind.SAMPLE_BIASED, m=2, criterion="fastest")]
        for policy in policies:
            state = init_fleet_state(taus, FIXED, policy=policy)
            with monkeypatch.context() as patch:
                patch.setattr(Fraction, "__new__", _forbidden)
                outcomes = [advance_round(state, policy, taus, FIXED) for _ in range(30)]
            for out in outcomes:
                assert out.scale == state.scale > 1 and type(out.length) is int
                assert out.delta_t == Fraction(out.length, out.scale) and type(out.delta_t) is Fraction


def _looped_schedule(taus, policy, *, rounds=None, time_limit=None, initial_clocks=None):
    """Reference: the rounds ``advance_round`` gives one at a time up to the
    horizon, and the server time at the end of each."""
    state = init_fleet_state(taus, FIXED, initial_clocks=initial_clocks, policy=policy)
    outcomes, times = [], []
    while rounds is None or state.round_index < rounds:
        out = advance_round(state, policy, list(taus), FIXED, time_limit=time_limit)
        if out is None:
            break
        outcomes.append(out)
        times.append(state.time)
    return outcomes, times


def _record(outcomes):
    return [(r.index, r.length, type(r.length), r.scale, r.clients.tolist(), r.multiplicity.tolist(),
             r.anchors.tolist(), r.staleness.tolist()) for r in outcomes]


def _merged_fleets(scale_kind, rng):
    """Random fleets of 1 to 9 clients whose times sit on an integer, a
    quarter-tick, a 2^52 binary-float or a 3 * 2^52 mixed tick scale, and a
    FedFix window on the same scale."""
    m = int(rng.integers(1, 10))
    if scale_kind == "integer":
        taus, window = [int(t) for t in rng.integers(1, 13, m)], int(rng.integers(1, 6))
    elif scale_kind == "quarter":
        taus, window = [Fraction(int(t), 4) for t in rng.integers(1, 41, m)], Fraction(int(rng.integers(1, 13)), 4)
    else:
        # two decimals as binary doubles (1.09 is 4909762590626775 / 2^52)
        taus, window = [round(float(t), 2) for t in rng.uniform(0.5, 3.0, m)], 0.7
        if scale_kind == "mixed":
            taus[0] = Fraction(int(rng.integers(1, 9)), 3)
    clocks = None
    if rng.random() < 0.5:
        clocks = [t * Fraction(int(k), 5) for t, k in zip(taus, rng.integers(1, 16, m))]
    return taus, window, clocks


class TestMergedSchedule:
    """The event merge gives the rounds, anchors, lengths and end times of
    ``advance_round`` run round by round, on sync, async and FedFix fleets."""

    @pytest.mark.parametrize("scale_kind", ["integer", "quarter", "binary", "mixed"])
    def test_matches_advance_round_on_random_fleets(self, scale_kind):
        rng = np.random.default_rng(["integer", "quarter", "binary", "mixed"].index(scale_kind))
        merged = past_2_53 = 0
        for _ in range(8):
            taus, window, clocks = _merged_fleets(scale_kind, rng)
            for policy in (WaitPolicy(PolicyKind.SYNCHRONOUS), WaitPolicy(PolicyKind.ASYNCHRONOUS),
                           WaitPolicy(PolicyKind.FEDFIX, delta_t=window)):
                n_rounds = int(rng.integers(1, 250))
                want, times = _looped_schedule(taus, policy, rounds=n_rounds, initial_clocks=clocks)
                # a time limit between events, and one exactly on an event
                event = Fraction(sum(r.length for r in want[: int(rng.integers(1, n_rounds + 1))]), want[0].scale)
                horizons = [dict(rounds=n_rounds), dict(time_limit=float(rng.uniform(0.1, 60.0))),
                            dict(time_limit=event)]
                for horizon in horizons:
                    want, times = _looped_schedule(taus, policy, initial_clocks=clocks, **horizon)
                    state = init_fleet_state(taus, FIXED, initial_clocks=clocks, policy=policy)
                    got = merged_schedule(state, policy, **horizon)
                    if got is None:  # only where the horizon passes int64 ticks
                        assert sum(r.length for r in want) > 2**63 - 1
                        continue
                    merged += 1
                    assert got.scale == state.scale
                    assert _record(got) == _record(want), (taus, policy, horizon)
                    assert [t.hex() for t in got.time.tolist()] == [t.hex() for t in times]
                    if "time_limit" in horizon and horizon["time_limit"] is event:
                        assert want and Fraction(int(got.length.sum()), got.scale) == event
                    past_2_53 += bool(want) and int(got.length.sum()) > 2**53
        assert merged >= 50 and past_2_53 > (0 if scale_kind in ("binary", "mixed") else -1)

    def test_the_shipped_logistic_schedule(self):
        doc = json.loads((CONFIGS / "async_logistic_heterogeneous.json").read_text())
        taus, policy = doc["fleet"]["compute_times"], WaitPolicy(PolicyKind.ASYNCHRONOUS)
        state = init_fleet_state(taus, FIXED, policy=policy)
        got = merged_schedule(state, policy, time_limit=doc["horizon"]["time"])
        want, times = _looped_schedule(taus, policy, time_limit=doc["horizon"]["time"])
        # ticks pass 2^53 on a 2^52 scale, where int64 to float64 rounds
        assert state.scale == 2**52 and int(got.length.sum()) > 2**53
        assert _record(got) == _record(want)
        assert [t.hex() for t in got.time.tolist()] == [t.hex() for t in times]

    @pytest.mark.parametrize("time_limit", [2**16 - 1, 2**16, 70_000])
    def test_async_order_on_both_sides_of_16_bit_ticks(self, time_limit):
        # ties included: 1000, 1500 and 2500 share every multiple of 15000
        taus, policy = [1500, 1000, 2500, 1499], WaitPolicy(PolicyKind.ASYNCHRONOUS)
        state = init_fleet_state(taus, FIXED, policy=policy)
        got = merged_schedule(state, policy, time_limit=time_limit)
        want, times = _looped_schedule(taus, policy, time_limit=time_limit)
        assert _record(got) == _record(want) and got.time.tolist() == times

    def test_ticks_beyond_int64_are_left_to_the_loop(self):
        policy = WaitPolicy(PolicyKind.ASYNCHRONOUS)
        big = init_fleet_state([2**70, 3 * 2**70], FIXED, policy=policy)
        assert big.remaining.dtype == object
        assert merged_schedule(big, policy, rounds=10) is None
        small = init_fleet_state([2**60, 3 * 2**60], FIXED, policy=policy)
        # deliveries at 1, 2, 3, 3, 4, 5, 6, 6, 7, 8 times 2^60 ticks: the
        # tenth lands at 2^63
        assert len(merged_schedule(small, policy, rounds=9)) == 9
        assert merged_schedule(small, policy, rounds=10) is None
        assert merged_schedule(small, policy, time_limit=2**63) is None
        # synchronous rounds end at 3 * 2^60 ticks apart, FedFix windows at 2^61
        for kind, fits in ((PolicyKind.SYNCHRONOUS, 2), (PolicyKind.FEDFIX, 3)):
            window = WaitPolicy(kind, delta_t=2**61)
            state = init_fleet_state([2**60, 3 * 2**60], FIXED, policy=window)
            assert len(merged_schedule(state, window, rounds=fits)) == fits
            assert merged_schedule(state, window, rounds=fits + 1) is None

    def test_other_policies_and_exponential_hardware_are_left_to_the_loop(self):
        for policy in (WaitPolicy(PolicyKind.FEDBUFF, m=1), WaitPolicy(PolicyKind.SAMPLE_UNIFORM, m=1)):
            assert merged_schedule(init_fleet_state([1, 2], FIXED, policy=policy), policy, rounds=5) is None
        exponential = init_fleet_state([1, 2], HardwareModel("exponential"), np.random.default_rng(0))
        assert merged_schedule(exponential, WaitPolicy(PolicyKind.ASYNCHRONOUS), rounds=5) is None

    def test_makes_no_advance_round_call(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("advance_round called")

        monkeypatch.setattr(timing, "advance_round", forbidden)
        for policy in (WaitPolicy(PolicyKind.SYNCHRONOUS), WaitPolicy(PolicyKind.ASYNCHRONOUS),
                       WaitPolicy(PolicyKind.FEDFIX, delta_t=Fraction(7, 10))):
            state = init_fleet_state(list(BOUNDS_TIMES), FIXED, policy=policy)
            assert len(merged_schedule(state, policy, rounds=5000)) == 5000
