import itertools
import math
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asyncfed.core import ConfigurationError, UnsupportedConfigError
from asyncfed.engine import Seeds, run_members, run_scalar_ensemble
from asyncfed.oracle import (
    OracleState,
    _ASYNC_MATRICES,
    _async_round,
    expectation_recursion,
    expected_round_time,
    phi,
    variance_recursion,
)

SHIPPED = Path(__file__).resolve().parent.parent / "configs" / "async_exponential_oracle.json"


def _state(scheme, phi_, rates, optima=None, theta0=0.0, m=None):
    """An :class:`OracleState`; the optima default to 0, 2, 4, ... ."""
    if optima is None:
        optima = tuple(2.0 * i for i in range(len(rates)))
    return OracleState(scheme, phi_, tuple(rates), tuple(optima), theta0, m=m)


class TestPhi:
    def test_single_half_step(self):
        assert phi(0.5, 1) == 0.5

    def test_three_small_steps(self):
        assert phi(0.1, 3) == pytest.approx(0.271, abs=1e-15)

    @given(st.floats(1e-6, 0.01), st.integers(1, 20))
    @settings(max_examples=50, deadline=None)
    def test_small_rate_linearization(self, eta, k):
        # first-order value eta*k, with second-order error at most (eta*k)^2
        assert abs(phi(eta, k) - eta * k) <= (eta * k) ** 2

    def test_rejects_nonconvergent_rates(self):
        with pytest.raises(ConfigurationError):
            phi(2.5, 1)


class TestOracleState:
    def test_the_window_scheme_is_gone(self):
        with pytest.raises(ConfigurationError):
            _state("hybrid", 0.5, (0.5, 0.5))

    def test_oversized_sample_rejected(self):
        with pytest.raises(ConfigurationError):
            _state("sync_uniform", 0.5, (0.5, 0.5), m=3)

    def test_optima_of_another_length_are_rejected(self):
        with pytest.raises(ConfigurationError, match="optima length"):
            _state("sync", 0.5, (0.5, 0.5), optima=(0.0, 1.0, 2.0))

    def test_steps_and_theta_star_are_read_off_the_state(self):
        state = _state("sync", 0.4, (0.5, 1.25), optima=(0.0, 3.0))
        assert state.steps.tolist() == [0.5 * 0.4, 1.25 * 0.4]
        assert state.theta_star == 1.5

    def test_an_asynchronous_second_moment_above_the_cap_is_unsupported(self):
        from asyncfed.engine import MAX_HELD_ANCHORS

        # the largest side whose round's matrices fit the cap is M + 1
        side = math.isqrt(MAX_HELD_ANCHORS // _ASYNC_MATRICES)
        _state("async", 0.5, (0.5,) * (side - 1)).check_second_moment()
        state = _state("async", 0.5, (0.5,) * side)
        with pytest.raises(UnsupportedConfigError, match="second moment"):
            state.check_second_moment()
        with pytest.raises(UnsupportedConfigError, match="second moment"):
            variance_recursion(state, 1)
        # fresh-anchor schemes hold no anchors
        _state("sync", 0.5, (0.5,) * side).check_second_moment()

    def test_an_asynchronous_round_holds_at_most_the_guarded_matrices(self):
        import tracemalloc

        m_clients = 400
        state = _state("async", 0.5, (0.5,) * m_clients, optima=np.arange(float(m_clients)).tolist(), theta0=1.0)
        tracemalloc.start()
        try:
            variance_recursion(state, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        matrix = 8 * (m_clients + 1) ** 2
        # the O(M) vectors of a round add well under a quarter matrix here
        assert peak < (_ASYNC_MATRICES + 0.25) * matrix


class TestExpectationRecursion:
    def test_sync_closed_form(self):
        for theta0 in (0.0, 5.0):
            mean = expectation_recursion(_state("sync", 0.5, (0.5, 0.5), theta0=theta0), 10)
            for n in range(11):
                assert mean[n] == pytest.approx(1.0 + (theta0 - 1.0) * 0.5 ** n, abs=1e-15)

    def test_zero_contraction_freezes_the_mean(self):
        state = _state("async", 0.0, (1.0, 1.0, 1.0), optima=(0.0, 1.0, 2.0), theta0=3.0)
        mean = expectation_recursion(state, 6)
        assert np.all(mean == 3.0)

    def test_async_mean_matches_monte_carlo(self):
        state = _state("async", 0.5, (1.0, 1.0))
        oracle_mean = expectation_recursion(state, 12)
        mc = run_scalar_ensemble(state, (1, 5, 12), 40_000, 5)
        assert mc.rounds.tolist() == [0, 1, 5, 12]
        for i, n in enumerate((1, 5, 12), start=1):
            assert abs(mc.mean[i] - oracle_mean[n]) <= 3 * mc.se_mean[i]

    def test_async_fedavg_mean_matches_the_engine(self):
        # fedavg weights d_i = 1/2 halve the step of identical weights; the
        # recursion reads them from the run config, and the engine runs them
        from asyncfed.cli import _oracle_state_for
        from asyncfed.config import build_experiment, load_config

        document = load_config(SHIPPED)
        document["scheme"]["weights"] = "fedavg"
        cfg = build_experiment(document)
        state = _oracle_state_for(cfg)
        assert state.steps.tolist() == [0.25, 0.25]
        oracle_mean = expectation_recursion(state, 20)
        n_members = 1000
        members = run_members([
            replace(cfg, seeds=Seeds((0, s), (1, s), (2, s))) for s in range(n_members)
        ])
        stack = np.stack([m.theta[:, 0] for m in members])
        mean, se = stack.mean(axis=0), stack.std(axis=0, ddof=1) / math.sqrt(n_members)
        for n in (1, 2, 5, 20):
            assert abs(mean[n] - oracle_mean[n]) <= 4 * se[n]
        # identical weights step twice as far: their mean is far outside
        identical = expectation_recursion(replace(state, rates=(1.0, 1.0)), 20)
        assert abs(mean[1] - identical[1]) > 20 * se[1]


class TestVarianceRecursion:
    def test_sync_contracts_by_the_squared_factor(self):
        state = _state("sync", 0.3, (0.5, 0.5), theta0=5.0)
        second = variance_recursion(state, 40)
        expected = (5.0 - 1.0) ** 2
        for n in range(41):
            assert second[n] == expected
            expected *= (1 - 0.3) ** 2

    def test_full_sampling_is_sync(self):
        rates, optima = (0.25, 0.375, 0.5), (0.0, 1.0, 2.0)
        full = _state("sync_uniform", 0.4, rates, optima, 3.0, m=3)
        sync = _state("sync", 0.4, rates, optima, 3.0)
        for recursion in (expectation_recursion, variance_recursion):
            a = recursion(full, 20)
            b = recursion(sync, 20)
            assert a.tobytes() == b.tobytes()

    def test_single_draw_fixed_point_is_one_third(self):
        state = _state("sync_uniform", 0.5, (1.0, 1.0), theta0=1.0, m=1)
        second = variance_recursion(state, 80)
        assert second[-1] == pytest.approx(1 / 3, abs=1e-14)

    def test_uniform_sampling_matches_monte_carlo(self):
        state = _state("sync_uniform", 0.5, (1.0, 1.0), theta0=1.0, m=1)
        second = variance_recursion(state, 30)
        mc = run_scalar_ensemble(state, (1, 10, 30), 20_000, 9)
        assert mc.rounds.tolist() == [0, 1, 10, 30]
        for i, n in enumerate((1, 10, 30), start=1):
            assert abs(mc.second_moment[i] - second[n]) <= 3 * mc.se_second_moment[i]

    def test_async_first_rounds_match_exact_enumeration(self):
        # M=2, optima (0, 2), phi=1/2, theta0=0: enumerating the four
        # two-round paths gives second moments 1/2 then 5/16
        state = _state("async", 0.5, (1.0, 1.0))
        second = variance_recursion(state, 2)
        assert second.tolist() == [1.0, 0.5, 0.3125]

    @pytest.mark.parametrize("seed", range(4))
    def test_async_second_moment_matches_monte_carlo(self, seed):
        rng = np.random.default_rng(seed)
        optima = tuple(rng.normal(0.0, 3.0, 5).tolist())
        eta_g = float(rng.uniform(0.5, 1.5))
        state = _state("async", 0.5, (eta_g,) * 5, optima, theta0=4.0)
        second = variance_recursion(state, 40)
        mc = run_scalar_ensemble(state, (1, 3, 10, 40), 20_000, seed)
        for i, n in enumerate((1, 3, 10, 40), start=1):
            assert abs(mc.second_moment[i] - second[n]) <= 4 * mc.se_second_moment[i]


class TestOneState:
    """The Monte-Carlo kernel and the recursions read one state: on a
    synchronous state every member is the deterministic trajectory the mean
    recursion follows."""

    @pytest.mark.parametrize("seed", range(12))
    def test_the_sync_kernel_is_the_mean_recursion(self, seed):
        rng = np.random.default_rng(seed)
        m_clients = int(rng.integers(1, 9))
        eta_g = float(rng.uniform(0.2, 1.5))
        state = _state(
            "sync", phi(float(rng.uniform(0.05, 1.0)), int(rng.integers(1, 5))),
            (eta_g / m_clients,) * m_clients, rng.normal(0.0, 3.0, m_clients).tolist(),
            float(rng.uniform(-8.0, 8.0)),
        )
        checkpoints = tuple(sorted({int(n) for n in rng.integers(1, 60, 4)}))
        mc = run_scalar_ensemble(state, checkpoints, 8, seed)
        # relative to the problem's size, since the models approach theta_star
        size = max(abs(state.theta0), *map(abs, state.optima))
        np.testing.assert_allclose(mc.mean, expectation_recursion(state, checkpoints[-1])[mc.rounds],
                                   rtol=1e-12, atol=1e-12 * size)
        # sync_uniform with m = M draws every client, in some order
        full = run_scalar_ensemble(replace(state, scheme="sync_uniform", m=m_clients), checkpoints, 8, seed)
        np.testing.assert_allclose(full.mean, mc.mean, rtol=1e-12, atol=1e-12 * size)
        np.testing.assert_allclose(full.second_moment, mc.second_moment, rtol=1e-12, atol=1e-12 * size**2)

    def test_the_kernel_refuses_unequal_rates(self):
        state = _state("async", 0.5, (1.0, 0.5))
        with pytest.raises(UnsupportedConfigError, match="equal rates"):
            run_scalar_ensemble(state, (1,), 64, 0)


class TestExactReference:
    """The float recursions against the dense jump-linear recursion in
    exact rationals, on the shipped asynchronous oracle config."""

    def test_shipped_config_moments_are_the_exact_rationals(self):
        from asyncfed.cli import _oracle_state_for
        from asyncfed.config import build_experiment, load_config

        cfg = build_experiment(load_config(SHIPPED))
        state = _oracle_state_for(cfg)
        assert state.optima == tuple(cfg.fleet.table.optima[:, 0].tolist())
        exact_mean, exact_second = _exact_async_moments(state.optima, state.steps.tolist(), state.theta0, 20)
        assert exact_mean[5] == Fraction(603, 512) and float(exact_mean[5]) == 1.177734375
        assert float(exact_mean[20]) == 1.0008179847336578
        assert exact_second[5] == Fraction(2945, 8192)
        assert float(exact_second[20]) == 0.3333673254759739
        mean = expectation_recursion(state, 20)
        second = variance_recursion(state, 20)
        assert np.max(np.abs(mean - np.array(exact_mean, dtype=float))) <= 1e-12
        assert np.max(np.abs(second - np.array(exact_second, dtype=float))) <= 1e-12

    @pytest.mark.parametrize("seed", range(20))
    def test_the_sparse_round_is_the_dense_jump_linear_update(self, seed):
        rng = np.random.default_rng(seed)
        m_clients = int(rng.integers(1, 7))
        size = m_clients + 1
        p = rng.dirichlet(np.ones(m_clients))
        d = rng.uniform(0.1, 2.0, m_clients)
        c = float(rng.uniform(0.1, 1.5)) * d * float(rng.uniform(0.1, 1.0))
        z = rng.normal(0.0, 2.0, m_clients)
        mu = rng.normal(0.0, 1.0, size)
        root = rng.normal(0.0, 1.0, (size, size))
        second = root @ root.T + np.outer(mu, mu)
        got_mu, got = _async_round(mu, second.copy(), p, c, z)
        want_mu, want = np.zeros(size), np.zeros((size, size))
        for j in range(m_clients):
            a = np.eye(size)
            a[0] = a[j + 1] = 0.0
            a[[0, j + 1], 0] = 1.0
            a[[0, j + 1], j + 1] = -c[j]
            b = np.zeros(size)
            b[[0, j + 1]] = c[j] * z[j]
            a_mu = a @ mu
            want_mu += p[j] * (a_mu + b)
            want += p[j] * (a @ second @ a.T + np.outer(a_mu, b) + np.outer(b, a_mu) + np.outer(b, b))
        assert np.max(np.abs(got_mu - want_mu)) <= 1e-12
        assert np.max(np.abs(got - want)) <= 1e-12
        assert np.array_equal(_async_round(mu, None, p, c, z)[0], got_mu)

    @pytest.mark.parametrize("m_clients, m", [(1, 1), (3, 1), (4, 2), (5, 3), (4, 4)])
    def test_fresh_anchor_moments_match_subset_enumeration(self, m_clients, m):
        rng = np.random.default_rng(10 * m_clients + m)
        optima = rng.normal(0.0, 2.0, m_clients).tolist()
        rates = tuple(rng.uniform(0.1, 0.8, m_clients).tolist())
        state = _state("sync_uniform", 0.5, rates, optima, 3.0, m=m)
        steps = state.steps.tolist()
        theta_star = Fraction(sum(map(Fraction, optima))) / m_clients
        subsets = list(itertools.combinations(range(m_clients), m))
        mean, second = Fraction(3) - theta_star, (Fraction(3) - theta_star) ** 2
        want_mean, want_second = [mean + theta_star], [second]
        for _ in range(12):
            next_mean = next_second = Fraction(0)
            for chosen in subsets:
                keep = 1 - sum(Fraction(steps[j]) for j in chosen)
                drive = sum(Fraction(steps[j]) * (Fraction(optima[j]) - theta_star) for j in chosen)
                next_mean += keep * mean + drive
                next_second += keep * keep * second + 2 * keep * drive * mean + drive * drive
            mean, second = next_mean / len(subsets), next_second / len(subsets)
            want_mean.append(mean + theta_star)
            want_second.append(second)
        got_mean = expectation_recursion(state, 12)
        got_second = variance_recursion(state, 12)
        assert np.max(np.abs(got_mean - np.array(want_mean, dtype=float))) <= 1e-12
        assert np.max(np.abs(got_second - np.array(want_second, dtype=float))) <= 1e-12


class TestExpectedRoundTime:
    def test_slowest_of_two(self):
        assert expected_round_time(_state("sync", 0.5, (1.0,) * 2), 1.0) == pytest.approx(1.5, abs=1e-15)

    def test_fastest_of_four(self):
        assert expected_round_time(_state("async", 0.5, (1.0,) * 4), 1.0) == 0.25

    def test_sampled_subset(self):
        state = _state("sync_uniform", 0.5, (1.0,) * 5, m=2)
        assert expected_round_time(state, 2.0) == pytest.approx(0.75, abs=1e-15)

    def test_matches_direct_simulation(self):
        rng = np.random.default_rng(3)
        draws = rng.exponential(1.0, size=(100_000, 3))
        for scheme, empirical in (("sync", draws.max(axis=1)), ("async", draws.min(axis=1))):
            se = empirical.std(ddof=1) / math.sqrt(empirical.shape[0])
            assert abs(empirical.mean() - expected_round_time(_state(scheme, 0.5, (1.0,) * 3), 1.0)) <= 3 * se

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown oracle scheme"):
            _state("fedbuff", 0.5, (1.0,) * 3)


class TestOracleCsvExport:
    def test_schema_matches_the_engine_with_empty_participants(self, tmp_path):
        from asyncfed.engine import trajectory_header
        from asyncfed.oracle import export_oracle_csv

        state = _state("sync", 0.5, (0.5, 0.5), theta0=5.0)
        path = tmp_path / "oracle_trajectory.csv"
        export_oracle_csv(state, *_sequences(state, 10), 1.5, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(trajectory_header(2))
        assert len(lines) == 12
        first = lines[1].split(",")
        assert first[2] == "" and first[4] == ""
        # deterministic sync: distance column contracts by (1-phi)^2 per round
        dist = [float(line.split(",")[5]) for line in lines[1:]]
        assert dist[0] == 16.0
        assert dist[1] == pytest.approx(0.25 * 16.0, abs=1e-15)
        # federated loss at the initial model: mean of 0.5*(5 - opt)^2
        assert float(first[3]) == pytest.approx(0.5 * (25 + 9) / 2, abs=1e-12)

    def test_failed_write_leaves_no_temporary_and_keeps_the_old_file(self, tmp_path, monkeypatch):
        import asyncfed.engine
        from asyncfed.oracle import export_oracle_csv

        def broken_header(n_clients):
            raise RuntimeError("disk full")

        path = tmp_path / "oracle_trajectory.csv"
        path.write_text("previous oracle\n")
        monkeypatch.setattr(asyncfed.engine, "trajectory_header", broken_header)
        state = _state("sync", 0.5, (0.5, 0.5), theta0=5.0)
        with pytest.raises(RuntimeError):
            export_oracle_csv(state, *_sequences(state, 10), 1.5, path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["oracle_trajectory.csv"]
        assert path.read_text() == "previous oracle\n"

    @pytest.mark.parametrize("n_rounds", [20, 200])
    def test_bytes_match_the_csv_writer_on_the_shipped_oracle_config(self, tmp_path, n_rounds):
        from asyncfed.cli import _oracle_round_time, _oracle_state_for
        from asyncfed.config import build_experiment, load_config
        from asyncfed.oracle import export_oracle_csv

        cfg = build_experiment(load_config(SHIPPED))
        state = _oracle_state_for(cfg)
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        round_time = _oracle_round_time(cfg, state)
        export_oracle_csv(state, *_sequences(state, n_rounds), round_time, got)
        _reference_oracle_csv(state, n_rounds, want)
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize(
        "state",
        [
            _state("sync", 0.5, (1.0,) * 3, (0.0, 2.0, -1.25), 5.0),
            _state("sync_uniform", 0.3, (1.0,) * 4, (1e-7, 3.0, -2.0, 0.5), 5.0, m=2),
            _state("async", 0.4, (0.5,) * 3, (0.0, 1.0, 2.0), 5.0),
        ],
    )
    def test_bytes_match_the_csv_writer_for_other_schemes(self, tmp_path, state):
        from asyncfed.oracle import export_oracle_csv

        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        round_time = expected_round_time(state, 1.0)
        export_oracle_csv(state, *_sequences(state, 60), round_time, got)
        _reference_oracle_csv(state, 60, want)
        assert got.read_bytes() == want.read_bytes()


def _exact_async_moments(optima, steps, theta0, n_rounds):
    """E[theta^n] and E[(theta^n - theta_star)^2] for n = 0..n_rounds in
    exact rationals, from the dense jump-linear recursion over
    y = (theta, a_1..a_M): client j with probability 1/M, mode map A_j y + b_j
    with rows 0 and j of A_j equal to e_0 - c_j e_j and b_j = c_j x_j there."""
    m_clients, size = len(optima), len(optima) + 1
    x, c = [Fraction(v) for v in optima], [Fraction(v) for v in steps]
    theta_star = sum(x) / m_clients
    mu = [Fraction(theta0)] * size
    second = [[a * b for b in mu] for a in mu]
    means, moments = [], []
    for n in range(n_rounds + 1):
        means.append(mu[0])
        moments.append(second[0][0] - 2 * theta_star * mu[0] + theta_star ** 2)
        if n == n_rounds:
            break
        next_mu = [Fraction(0)] * size
        next_second = [[Fraction(0)] * size for _ in range(size)]
        for j in range(m_clients):
            a = [[Fraction(int(i == k)) for k in range(size)] for i in range(size)]
            w = [Fraction(0)] * size
            w[0], w[j + 1] = Fraction(1), -c[j]
            a[0], a[j + 1] = w, w
            b = [Fraction(0)] * size
            b[0] = b[j + 1] = c[j] * x[j]
            a_mu = [sum(a[i][k] * mu[k] for k in range(size)) for i in range(size)]
            a_s = [[sum(a[i][k] * second[k][l] for k in range(size)) for l in range(size)] for i in range(size)]
            for i in range(size):
                next_mu[i] += (a_mu[i] + b[i]) / m_clients
                for l in range(size):
                    term = sum(a_s[i][k] * a[l][k] for k in range(size))
                    term += a_mu[i] * b[l] + b[i] * a_mu[l] + b[i] * b[l]
                    next_second[i][l] += term / m_clients
        mu, second = next_mu, next_second
    return means, moments


def _sequences(state, n_rounds):
    """The closed-form mean and second moment that oracle-check exports."""
    return expectation_recursion(state, n_rounds), variance_recursion(state, n_rounds)


def _reference_oracle_csv(state, n_rounds, path, rate=1.0):
    """The oracle CSV writer as it was before the shared encoder: csv.writer
    with one f-string per cell and a per-client list per row."""
    import csv

    from asyncfed.engine import trajectory_header

    optima = np.asarray(state.optima, dtype=float)
    theta_star = float(optima.mean())
    mean_seq, second = _sequences(state, n_rounds)
    round_time = expected_round_time(state, rate)
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(trajectory_header(len(optima)))
        for n in range(n_rounds + 1):
            drift = mean_seq[n] - theta_star
            client_losses = [
                0.5 * (second[n] + 2 * (theta_star - opt) * drift + (theta_star - opt) ** 2)
                for opt in optima
            ]
            loss_fed = sum(client_losses) / len(optima)
            writer.writerow(
                [n, f"{n * round_time:.17g}", "", f"{loss_fed:.17g}", "", f"{second[n]:.17g}"]
                + [f"{v:.17g}" for v in client_losses]
            )
