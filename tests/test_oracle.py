import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asyncfed.core import ConfigurationError, UnsupportedConfigError
from asyncfed.engine import ScalarEnsembleConfig, run_scalar_ensemble
from asyncfed.oracle import (
    OracleState,
    _staleness_laws,
    expectation_recursion,
    expected_round_time,
    phi,
    staleness_law,
    variance_recursion,
)


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


class TestStalenessLaw:
    def test_fresh_anchor_schemes_are_degenerate(self):
        for scheme in ("sync", "sync_uniform"):
            state = OracleState(scheme, 0.5, n_clients=3, m=2)
            law = staleness_law(state, 4)
            assert law[4] == 1.0 and law[:4].sum() == 0.0

    def test_two_client_geometric_values(self):
        state = OracleState("async", 0.5, n_clients=2)
        law = staleness_law(state, 2)
        assert law.tolist() == [0.25, 0.25, 0.5]

    def test_window_log_two(self):
        state = OracleState("hybrid", 0.5, n_clients=2, window=math.log(2))
        law = staleness_law(state, 1)
        assert law[0] == pytest.approx(0.5, abs=1e-15)
        assert law[1] == pytest.approx(0.5, abs=1e-15)

    def test_geometric_law_sums_to_one_exactly(self):
        state = OracleState("async", 0.5, n_clients=3)
        for n in (0, 1, 7, 50, 200):
            law = staleness_law(state, n, exact=True)
            assert sum(law) == Fraction(1)

    def test_window_law_sums_to_one_exactly(self):
        state = OracleState("hybrid", 0.5, n_clients=4, window=0.37)
        for n in (1, 13, 200):
            law = staleness_law(state, n)
            assert math.fsum(law.tolist()) == 1.0

    @pytest.mark.parametrize(
        "state",
        [OracleState("async", 0.5, n_clients=2), OracleState("async", 0.3, n_clients=10),
         OracleState("hybrid", 0.5, n_clients=4, window=0.37), OracleState("sync", 0.5)],
        ids=["async2", "async10", "hybrid", "sync"],
    )
    def test_the_law_sequence_is_each_law_bit_for_bit(self, state):
        laws = list(_staleness_laws(state, 120))
        assert len(laws) == 120
        for n, law in enumerate(laws):
            assert law.flags.c_contiguous
            assert np.array_equal(law, staleness_law(state, n))


class TestExpectationRecursion:
    def test_sync_closed_form(self):
        state = OracleState("sync", 0.5)
        seq = expectation_recursion(state, 10, 1.0, [0.0, 2.0])
        for n in range(11):
            assert seq.A[n] == pytest.approx(0.5 ** n, abs=1e-15)
            assert seq.B[n] == pytest.approx((1 - 0.5 ** n) * 1.0, abs=1e-15)

    def test_zero_contraction_freezes_the_mean(self):
        state = OracleState("async", 0.0, n_clients=3)
        seq = expectation_recursion(state, 6, 1.0, [0.0, 1.0, 2.0])
        assert np.all(seq.A == 1.0) and np.all(seq.B == 0.0)

    def test_async_mean_matches_monte_carlo(self):
        state = OracleState("async", 0.5, n_clients=2)
        seq = expectation_recursion(state, 12, 1.0, [0.0, 2.0])
        mc = run_scalar_ensemble(
            ScalarEnsembleConfig("async", (0.0, 2.0), 0.5, theta0=0.0,
                                 checkpoints=(1, 5, 12), n_runs=40_000, seed=5)
        )
        oracle_mean = seq.mean(0.0)
        assert mc.rounds.tolist() == [0, 1, 5, 12]
        for i, n in enumerate((1, 5, 12), start=1):
            assert abs(mc.mean[i] - oracle_mean[n]) <= 3 * mc.se_mean[i]


class TestVarianceRecursion:
    def test_sync_contracts_by_the_squared_factor(self):
        state = OracleState("sync", 0.3)
        out = variance_recursion(state, [0.0, 2.0], 40, theta0=5.0)
        expected = (5.0 - 1.0) ** 2
        for n in range(41):
            assert out.second_moment[n] == expected
            expected *= (1 - 0.3) ** 2

    def test_full_sampling_reduces_to_sync(self):
        full = OracleState("sync_uniform", 0.4, n_clients=3, m=3)
        sync = OracleState("sync", 0.4)
        a = variance_recursion(full, [0.0, 1.0, 2.0], 20, theta0=3.0)
        b = variance_recursion(sync, [0.0, 1.0, 2.0], 20, theta0=3.0)
        assert np.allclose(a.second_moment, b.second_moment, atol=1e-15)

    def test_single_draw_fixed_point_is_one_third(self):
        state = OracleState("sync_uniform", 0.5, n_clients=2, m=1)
        out = variance_recursion(state, [0.0, 2.0], 80, theta0=1.0)
        assert out.second_moment[-1] == pytest.approx(1 / 3, abs=1e-14)

    def test_oversized_sample_rejected(self):
        with pytest.raises(ConfigurationError):
            OracleState("sync_uniform", 0.5, n_clients=2, m=3)

    def test_uniform_sampling_matches_monte_carlo(self):
        state = OracleState("sync_uniform", 0.5, n_clients=2, m=1)
        out = variance_recursion(state, [0.0, 2.0], 30, theta0=1.0)
        mc = run_scalar_ensemble(
            ScalarEnsembleConfig("sync_uniform", (0.0, 2.0), 0.5, theta0=1.0,
                                 checkpoints=(1, 10, 30), n_runs=20_000, seed=9, m=1)
        )
        assert mc.rounds.tolist() == [0, 1, 10, 30]
        for i, n in enumerate((1, 10, 30), start=1):
            assert abs(mc.second_moment[i] - out.second_moment[n]) <= 3 * mc.se_second_moment[i]

    def test_cross_round_table_is_symmetric_with_the_moments_on_the_diagonal(self):
        state = OracleState("async", 0.5, n_clients=2)
        out = variance_recursion(state, [0.0, 2.0], 25, theta0=0.0)
        assert np.array_equal(out.u_table, out.u_table.T)
        assert np.array_equal(np.diag(out.u_table), out.second_moment)

    @pytest.mark.parametrize(
        "state, optima, theta0",
        [
            (OracleState("async", 0.5, n_clients=2), [0.0, 2.0], 0.0),
            (OracleState("async", 0.5, n_clients=10), [-4.1, 3.3, 0.2, 5.0, -1.0, 2.2, -2.9, 0.7, 1.1, -0.4], 6.5),
            (OracleState("hybrid", 0.4, n_clients=3, window=0.7), [0.0, 1.0, 5.0], 0.0),
            (OracleState("hybrid", 0.9, n_clients=5, window=2.5), [1.0, -2.0, 0.5, 3.0, 4.0], -3.0),
        ],
        ids=["async-2", "async-10", "hybrid-3", "hybrid-5"],
    )
    def test_cross_round_table_matches_the_per_row_update(self, state, optima, theta0):
        got = variance_recursion(state, optima, 200, theta0)
        want_v, want_u = _reference_variance_recursion(state, optima, 200, theta0)
        assert np.allclose(got.second_moment, want_v, rtol=1e-13, atol=0.0)
        # entries that cancel to ~1e-30 carry no relative digits; scale by the table
        assert np.allclose(got.u_table, want_u, rtol=0.0, atol=1e-13 * np.abs(want_u).max())
        assert np.array_equal(got.u_table, got.u_table.T)
        assert np.array_equal(np.diag(got.u_table), got.second_moment)

    def test_async_first_round_matches_exact_enumeration(self):
        # anchors are all the initial model at round 0, so the first round is
        # exact; the anchor-independence idealization bites from round 2 on
        # (exact enumeration for M=2, optima (0,2), phi=1/2, theta0=0 gives
        # second moments 1/2 then 5/16)
        state = OracleState("async", 0.5, n_clients=2)
        out = variance_recursion(state, [0.0, 2.0], 2, theta0=0.0)
        assert out.second_moment[1] == pytest.approx(0.5, abs=1e-15)
        assert out.second_moment[2] > 0.3125  # idealization overshoots

    def test_hybrid_recursion_runs_and_stays_positive(self):
        state = OracleState("hybrid", 0.4, n_clients=3, window=0.7)
        out = variance_recursion(state, [0.0, 1.0, 5.0], 30, theta0=0.0)
        assert np.all(out.second_moment >= 0)


class TestExpectedRoundTime:
    def test_slowest_of_two(self):
        assert expected_round_time("sync", 2, 1.0) == pytest.approx(1.5, abs=1e-15)

    def test_fastest_of_four(self):
        assert expected_round_time("async", 4, 1.0) == 0.25

    def test_sampled_subset(self):
        assert expected_round_time("sync_uniform", 5, 2.0, m=2) == pytest.approx(0.75, abs=1e-15)

    def test_matches_direct_simulation(self):
        rng = np.random.default_rng(3)
        draws = rng.exponential(1.0, size=(100_000, 3))
        for scheme, empirical in (("sync", draws.max(axis=1)), ("async", draws.min(axis=1))):
            se = empirical.std(ddof=1) / math.sqrt(empirical.shape[0])
            assert abs(empirical.mean() - expected_round_time(scheme, 3, 1.0)) <= 3 * se

    def test_unknown_scheme_rejected(self):
        with pytest.raises(UnsupportedConfigError):
            expected_round_time("fedbuff", 3, 1.0)


class TestOracleCsvExport:
    def test_schema_matches_the_engine_with_empty_participants(self, tmp_path):
        from asyncfed.engine import trajectory_header
        from asyncfed.oracle import export_oracle_csv

        state = OracleState("sync", 0.5)
        path = tmp_path / "oracle_trajectory.csv"
        export_oracle_csv(state, [0.0, 2.0], *_sequences(state, [0.0, 2.0], 5.0, 10), path)
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
        state = OracleState("sync", 0.5)
        with pytest.raises(RuntimeError):
            export_oracle_csv(state, [0.0, 2.0], *_sequences(state, [0.0, 2.0], 5.0, 10), path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["oracle_trajectory.csv"]
        assert path.read_text() == "previous oracle\n"

    @pytest.mark.parametrize("n_rounds", [20, 200])
    def test_bytes_match_the_csv_writer_on_the_shipped_oracle_config(self, tmp_path, n_rounds):
        from pathlib import Path

        from asyncfed.cli import _oracle_state_for
        from asyncfed.config import build_experiment, load_config
        from asyncfed.oracle import export_oracle_csv

        shipped = Path(__file__).resolve().parent.parent / "configs" / "async_exponential_oracle.json"
        experiment = build_experiment(load_config(shipped))
        state, theta0, _ = _oracle_state_for(experiment)
        optima = tuple(experiment.fleet.gather("optima")[:, 0].tolist())
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        export_oracle_csv(state, optima, *_sequences(state, optima, theta0, n_rounds), got)
        _reference_oracle_csv(state, optima, theta0, n_rounds, want)
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize(
        "state, optima",
        [
            (OracleState("sync", 0.5), [0.0, 2.0, -1.25]),
            (OracleState("sync_uniform", 0.3, n_clients=4, m=2), [1e-7, 3.0, -2.0, 0.5]),
            (OracleState("hybrid", 0.4, n_clients=3, window=0.7), [0.0, 1.0, 2.0]),
        ],
    )
    def test_bytes_match_the_csv_writer_for_other_schemes(self, tmp_path, state, optima):
        from asyncfed.oracle import export_oracle_csv

        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        export_oracle_csv(state, optima, *_sequences(state, optima, 5.0, 60), got)
        _reference_oracle_csv(state, optima, 5.0, 60, want)
        assert got.read_bytes() == want.read_bytes()


def _reference_variance_recursion(state, optima, n_rounds, theta0):
    """The async/window second-moment recursion as it was before the
    vectorized U-table: one ``np.dot`` per past round per round."""
    optima = np.asarray(optima, dtype=float)
    m_clients = optima.shape[0]
    theta_star = float(optima.mean())
    spread = float(np.sum((optima - theta_star) ** 2))
    p = state.phi
    if state.scheme == "async":
        cross_coeff, self_coeff = 0.0, 1.0
        drive = (p * p / m_clients) * spread
    else:
        stay = math.exp(-state.window)
        drive = stay / ((1.0 - stay) * m_clients ** 2) * p * p * spread
        self_coeff = 1.0 / (m_clients * (1.0 - stay))
        cross_coeff = (m_clients - 1) / m_clients
    v = np.empty(n_rounds + 1)
    v[0] = (theta0 - theta_star) ** 2
    u = np.zeros((n_rounds + 1, n_rounds + 1))
    u[0, 0] = v[0]
    for n in range(n_rounds):
        law = staleness_law(state, n)
        weighted_u = float(np.dot(law, u[n, : n + 1]))
        weighted_v = float(np.dot(law, v[: n + 1]))
        double_sum = float(law @ u[: n + 1, : n + 1] @ law) if cross_coeff else 0.0
        v[n + 1] = (
            v[n] - 2.0 * p * weighted_u + drive
            + p * p * self_coeff * weighted_v + p * p * cross_coeff * double_sum
        )
        for past in range(n + 1):
            u[past, n + 1] = u[past, n] - p * float(np.dot(law, u[past, : n + 1]))
            u[n + 1, past] = u[past, n + 1]
        u[n + 1, n + 1] = v[n + 1]
    return v, u


def _sequences(state, optima, theta0, n_rounds):
    """The closed-form mean and second moment that oracle-check exports."""
    mean = expectation_recursion(state, n_rounds, 1.0, optima).mean(theta0)
    return mean, variance_recursion(state, optima, n_rounds, theta0).second_moment


def _reference_oracle_csv(state, optima, theta0, n_rounds, path, rate=1.0):
    """The oracle CSV writer as it was before the shared encoder: csv.writer
    with one f-string per cell and a per-client list per row."""
    import csv

    from asyncfed.engine import trajectory_header

    optima = np.atleast_1d(np.asarray(optima, dtype=float))
    theta_star = float(optima.mean())
    mean_seq = expectation_recursion(state, n_rounds, 1.0, optima).mean(theta0)
    second = variance_recursion(state, optima, n_rounds, theta0).second_moment
    if state.scheme == "hybrid":
        round_time = state.window / rate
    else:
        round_time = expected_round_time(state.scheme, len(optima), rate, m=state.m)
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
