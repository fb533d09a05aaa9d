import csv
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from asyncfed import engine
from asyncfed.core import ConfigurationError, Fleet, StalenessCapError
from asyncfed.engine import (
    RunConfig,
    ScalarEnsembleConfig,
    Seeds,
    run,
    run_members,
    run_scalar_ensemble,
    trajectory_header,
    write_trajectory_csv,
)
from asyncfed.objectives import (
    GlmObjective,
    QuadraticObjective,
    SyntheticShardConfig,
    local_sgd,
    make_synthetic_shards,
)
from asyncfed.oracle import phi
from asyncfed.timing import HardwareModel, PolicyKind, WaitPolicy, advance_round, init_fleet_state
from asyncfed.weights import WeightPlan, WeightScheme, plan_weights

from conftest import BatchStream, bits, client_row, quadratic_fleet, reference_draws, with_seeds

SYNC = WaitPolicy(PolicyKind.SYNCHRONOUS)
ASYNC = WaitPolicy(PolicyKind.ASYNCHRONOUS)


def sync_config(fleet, **kwargs):
    plan = plan_weights(WeightScheme.FEDAVG, fleet.importances, fleet.compute_times, SYNC)
    defaults = dict(
        fleet=fleet, policy=SYNC, plan=plan, eta_g=1.0, eta_l=0.5, k_steps=1,
        full_gradient=True, rounds=10, theta0=np.full(fleet.dim, 5.0),
    )
    defaults.update(kwargs)
    return RunConfig(**defaults)


class TestSynchronousRun:
    def test_gap_contracts_by_one_minus_phi_each_round(self):
        fleet = quadratic_fleet([[0.0], [2.0]], taus=[1, 2])
        traj = run(sync_config(fleet, eta_l=0.25, k_steps=3, rounds=50))
        contraction = 1 - phi(0.25, 3)
        gaps = np.linalg.norm(traj.theta - traj.optimum, axis=1)
        for n in range(1, 51):
            assert gaps[n] == pytest.approx(gaps[0] * contraction ** n, rel=1e-12)

    def test_zero_server_rate_freezes_the_model(self):
        fleet = quadratic_fleet([[0.0], [2.0]])
        traj = run(sync_config(fleet, eta_g=0.0, rounds=7))
        assert np.all(traj.theta == 5.0)

    def test_wall_time_is_rounds_times_the_slowest(self):
        fleet = quadratic_fleet([[0.0], [2.0]], taus=[1, 3])
        traj = run(sync_config(fleet, rounds=6))
        assert traj.times.tolist() == [3.0 * n for n in range(7)]

    def test_reproducible_bit_for_bit(self):
        fleet = quadratic_fleet([[0.0], [2.0]], noise_std=0.3)
        cfg = sync_config(fleet, full_gradient=False, rounds=20)
        a, b = run(cfg), run(cfg)
        assert np.array_equal(a.theta, b.theta)


class TestTimeBudget:
    def test_async_round_count_matches_completions(self):
        taus = [1, 2, 5]
        fleet = quadratic_fleet([[0.0], [1.0], [2.0]], taus=taus)
        plan = plan_weights(WeightScheme.ASYNC_TIME_BASED, fleet.importances, taus, ASYNC)
        budget = 17.0
        cfg = RunConfig(
            fleet=fleet, policy=ASYNC, plan=plan, eta_l=0.1, full_gradient=True,
            time_budget=budget,
        )
        traj = run(cfg)
        expected = sum(math.floor(budget / t) for t in taus)
        assert abs(traj.n_rounds - expected) <= len(taus)
        assert traj.times[-1] <= budget

    def test_wall_time_accumulates_round_durations(self):
        fleet = quadratic_fleet([[0.0], [2.0]], taus=[2, 3])
        plan = plan_weights(WeightScheme.ASYNC_TIME_BASED, fleet.importances, [2, 3], ASYNC)
        cfg = RunConfig(fleet=fleet, policy=ASYNC, plan=plan, eta_l=0.1,
                        full_gradient=True, time_budget=12.0)
        traj = run(cfg)
        deltas = [float(out.delta_t) for out in traj.rounds]
        assert traj.times[-1] == pytest.approx(sum(deltas), abs=1e-12)


class TestPolicyEquivalences:
    def test_wide_fixed_window_reproduces_synchronous_training(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(16, 2))
        y = (rng.random(16) < 0.5).astype(float)
        table = GlmObjective([x, x + 0.1], [y, y], "logistic", 4)
        fleet = Fleet([(np.arange(2), table)], [1, 3], [0.5, 0.5])

        sync_plan = plan_weights(WeightScheme.FEDAVG, fleet.importances, [1, 3], SYNC)
        fedfix = WaitPolicy(PolicyKind.FEDFIX, delta_t=3)
        fix_plan = plan_weights(
            WeightScheme.FEDFIX_TIME_BASED, fleet.importances, [1, 3], fedfix
        )
        assert fix_plan.d.tolist() == sync_plan.d.tolist()

        shared = dict(fleet=fleet, eta_l=0.3, k_steps=2, rounds=12, seeds=Seeds(0, 7, 2))
        sync_traj = run(RunConfig(policy=SYNC, plan=sync_plan, **shared))
        fix_traj = run(RunConfig(policy=fedfix, plan=fix_plan, **shared))
        assert np.array_equal(sync_traj.theta, fix_traj.theta)


def _member_statistics(config, n_members):
    """Per-round mean and standard error of the models of ``n_members``
    reruns, member s seeded ``Seeds((0, s), (1, s), (2, s))``."""
    members = run_members(with_seeds(config, [Seeds((0, s), (1, s), (2, s)) for s in range(n_members)]))
    assert not any(m.diverged for m in members)
    stack = np.stack([m.theta for m in members])
    return stack.mean(axis=0), np.sqrt(stack.var(axis=0, ddof=1) / n_members)


class TestEnsembles:
    def test_deterministic_config_has_zero_cross_seed_variance(self):
        fleet = quadratic_fleet([[0.0], [2.0]])
        _, se_theta = _member_statistics(sync_config(fleet), 3)
        assert np.all(se_theta == 0.0)

    def test_diverged_members_are_excluded_and_counted(self):
        fleet = quadratic_fleet([[0.0], [2.0]], noise_std=1e11)
        cfg = sync_config(fleet, full_gradient=False, eta_l=1.9, rounds=40)
        members = run_members(with_seeds(cfg, [Seeds((0, s), (1, s), (2, s)) for s in range(4)]))
        kept = [m for m in members if not m.diverged]
        diverged = [m for m in members if m.diverged]
        assert 0 < len(diverged) < len(members) == 4
        for m in diverged:
            # models are kept up to the divergence round, with no final loss
            assert m.final_loss is None
            assert m.theta.shape[0] == m.divergence_round + 1 == m.n_rounds
        for m in kept:
            assert m.n_rounds == 40 and m.theta.shape == (41, 1)
            assert np.all(np.isfinite(m.theta)) and all(map(math.isfinite, m.final_loss))

    def test_uniform_sampling_mean_tracks_the_vectorized_simulator(self):
        fleet = quadratic_fleet([[0.0], [2.0]])
        policy = WaitPolicy(PolicyKind.SAMPLE_UNIFORM, m=1)
        plan = plan_weights(WeightScheme.IDENTICAL, fleet.importances, [1, 1], policy)
        cfg = RunConfig(
            fleet=fleet, policy=policy, plan=plan, eta_l=0.5, k_steps=1,
            full_gradient=True, rounds=10, theta0=np.array([1.0]),
        )
        mean_theta, se_theta = _member_statistics(cfg, 400)
        fast = run_scalar_ensemble(
            ScalarEnsembleConfig("sync_uniform", (0.0, 2.0), 0.5, theta0=1.0,
                                 checkpoints=(1, 5, 10), n_runs=40_000, seed=77, m=1)
        )
        from asyncfed.oracle import OracleState, expectation_recursion

        recursion = expectation_recursion(OracleState("sync_uniform", 0.5, (0.5, 0.5), m=1), [0.0, 2.0], 10, 1.0)
        for i, n in enumerate((1, 5, 10), start=1):
            se = math.hypot(se_theta[n, 0], fast.se_mean[i])
            assert abs(mean_theta[n, 0] - fast.mean[i]) <= 4 * se
            assert abs(mean_theta[n, 0] - recursion[n]) <= 4 * max(se_theta[n, 0], 1e-12)


_BLOCK = engine.ENSEMBLE_BLOCK_MEMBERS
_CHUNK = engine.ASYNC_CHUNK_ROUNDS
_BIT_IDENTITY_CASES = [
    pytest.param(scheme, m, n, seed, (12, 0, 5, 5), id=f"{scheme}-{m}-{n}-{seed}")
    for scheme in ("sync", "sync_uniform", "async")
    for m in (1, 2, 10)
    for n in (256, 257)
    for seed in (0, 7, 2024)
] + [
    # blocks of members, a partial last block, and checkpoint gaps of 1,
    # one chunk of rounds less one, one chunk and two chunks and a round;
    # M = 300 draws its clients into uint16 instead of uint8
    pytest.param("async", m, n, 11, (1, _CHUNK, 2 * _CHUNK, 4 * _CHUNK + 1), id=f"async-{m}-{n}-chunks")
    for m in (2, 10, 300)
    for n in (2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3)
] + [
    # the largest M that draws two clients per 16-bit draw (v spans the whole
    # uint16 range) and the smallest that draws one per round; the largest M
    # that draws from numpy's 16-bit generator, and the smallest that draws
    # with the default int64 call
    pytest.param("async", m, 2, 5, (3, _CHUNK + 1), id=f"async-{m}-draw-dtype")
    for m in (1 << 8, (1 << 8) + 1, 1 << 16, (1 << 16) + 1)
]


class TestScalarEnsemble:
    def test_sync_matches_the_general_engine_exactly(self):
        fleet = quadratic_fleet([[0.0], [2.0]])
        traj = run(sync_config(fleet, eta_l=0.5, rounds=10, theta0=np.array([5.0])))
        fast = run_scalar_ensemble(
            ScalarEnsembleConfig("sync", (0.0, 2.0), 0.5, theta0=5.0,
                                 checkpoints=tuple(range(11)), n_runs=3)
        )
        assert fast.rounds.tolist() == list(range(11))
        assert np.allclose(fast.mean, traj.theta[:, 0], atol=1e-12)
        assert np.all(fast.se_mean == 0.0)

    def test_async_exponential_agrees_with_the_general_engine(self):
        fleet = quadratic_fleet([[0.0], [2.0]], taus=[1.0, 1.0])
        plan = plan_weights(WeightScheme.IDENTICAL, fleet.importances, [1.0, 1.0])
        cfg = RunConfig(
            fleet=fleet, policy=ASYNC, plan=plan, hw=HardwareModel("exponential"),
            eta_l=0.5, k_steps=1, full_gradient=True, rounds=8, theta0=np.array([0.0]),
        )
        mean_theta, se_theta = _member_statistics(cfg, 500)
        fast = run_scalar_ensemble(
            ScalarEnsembleConfig("async", (0.0, 2.0), 0.5, theta0=0.0,
                                 checkpoints=(1, 4, 8), n_runs=100_000, seed=3)
        )
        for i, n in enumerate((1, 4, 8), start=1):
            se = math.hypot(se_theta[n, 0], fast.se_mean[i])
            assert abs(mean_theta[n, 0] - fast.mean[i]) <= 4 * se

    @pytest.mark.parametrize("scheme, m_clients, n_runs, seed, checkpoints", _BIT_IDENTITY_CASES)
    def test_checkpoint_statistics_are_bit_identical_to_the_per_round_kernel(
        self, scheme, m_clients, n_runs, seed, checkpoints
    ):
        _assert_bit_identical_to_the_reference(scheme, m_clients, n_runs, seed, checkpoints)

    @pytest.mark.parametrize("m_clients", [2, 10, 256, 257])
    def test_pairs_straddling_chunks_blocks_and_checkpoints_keep_their_bits(self, monkeypatch, m_clients):
        # chunks of 3 rounds cut the pairs of a 7-round gap inside one call,
        # and gaps of 1 and 3 leave a pair's second client to the next call
        monkeypatch.setattr(engine, "ASYNC_CHUNK_ROUNDS", 3)
        monkeypatch.setattr(engine, "ENSEMBLE_BLOCK_MEMBERS", 5)
        _assert_bit_identical_to_the_reference("async", m_clients, 12, 3, (1, 4, 6, 13))

    @pytest.mark.parametrize("m_clients", [1, 2, 3, 10, 255, 256])
    def test_pair_decode_hits_every_client_pair_exactly_once(self, m_clients):
        v = np.arange(m_clients * m_clients, dtype=np.uint16)
        first, second = np.empty((2, v.shape[0]), np.min_scalar_type(m_clients - 1))
        engine._split_pairs(v, np.uint16(m_clients), first, second, np.empty_like(v))
        hits = np.zeros((m_clients, m_clients), dtype=int)
        np.add.at(hits, (first, second), 1)
        assert (hits == 1).all()

    def test_only_the_schemes_that_hold_members_x_clients_arrays_cap_them(self):
        ScalarEnsembleConfig("sync", (0.0,) * 200, 0.5, n_runs=100_000)
        n_runs = engine.MAX_HELD_ANCHORS // 4 + 1
        for scheme, array in (("async", "held-anchor buffer"), ("sync_uniform", "per-round scores")):
            with pytest.raises(ConfigurationError, match=rf"^n_runs x clients must be at most .*\(the {array}\)"):
                ScalarEnsembleConfig(scheme, (0.0,) * 4, 0.5, n_runs=n_runs, m=1)
        with pytest.raises(ConfigurationError, match=r"^n_runs must be at most .*\(the member vector\)"):
            ScalarEnsembleConfig("sync", (0.0,), 0.5, n_runs=engine.MAX_HELD_ANCHORS + 1)

    def test_async_kernel_peaks_at_the_held_buffer_and_five_member_vectors(self):
        n_runs, m_clients = 100_000, 10
        cfg = ScalarEnsembleConfig(
            "async", tuple(np.linspace(-1.0, 1.0, m_clients).tolist()), 0.5,
            checkpoints=(5, 20, 50), n_runs=n_runs,
        )
        run_scalar_ensemble(replace(cfg, n_runs=2))  # numpy's first-call allocations stay untraced
        tracemalloc.start()
        try:
            run_scalar_ensemble(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        vector = 8 * n_runs
        # 64 KiB covers the small objects: the result, its arrays of rounds, views
        assert peak <= m_clients * vector + 5 * vector + (64 << 10)

    def test_checkpoints_must_include_a_round(self):
        with pytest.raises(ConfigurationError):
            ScalarEnsembleConfig("sync", (0.0, 2.0), 0.5, checkpoints=(0,))
        with pytest.raises(ConfigurationError):
            ScalarEnsembleConfig("sync", (0.0, 2.0), 0.5, checkpoints=(-1, 3))


def _assert_bit_identical_to_the_reference(scheme, m_clients, n_runs, seed, checkpoints):
    optima = tuple(np.random.default_rng(m_clients).normal(0.0, 3.0, m_clients).tolist())
    cfg = ScalarEnsembleConfig(
        scheme, optima, 0.5, eta_g=0.9, theta0=1.5, checkpoints=checkpoints,
        n_runs=n_runs, seed=seed, m=min(3, m_clients),
    )
    fast = run_scalar_ensemble(cfg)
    assert fast.rounds.tolist() == sorted({0, *checkpoints})
    want = _reference_scalar_ensemble(cfg, max(checkpoints))
    for got, ref in zip(
        (fast.mean, fast.se_mean, fast.second_moment, fast.se_second_moment), want
    ):
        assert got.tobytes() == ref[fast.rounds].tobytes()


def _reference_scalar_ensemble(cfg, n_rounds):
    """The ensemble kernel as it was before checkpoint-only statistics: fancy
    gather and scatter of the held anchors, and all four statistics at every
    round 0..n_rounds. Up to M = 256, asynchronous rounds 2k+1 and 2k+2 take
    the clients v // M and v % M of one uint16 draw v in [0, M^2); above, each
    round draws its clients as uint16 up to M = 65,536 and as numpy's default
    int64 above that."""
    rng = np.random.default_rng(cfg.seed)
    optima = np.asarray(cfg.optima, dtype=float)
    m_clients = optima.shape[0]
    theta_star = float(optima.mean())
    step = cfg.eta_g * cfg.phi

    theta = np.full(cfg.n_runs, float(cfg.theta0))
    held = np.full((cfg.n_runs, m_clients), float(cfg.theta0))
    rows = np.arange(cfg.n_runs)
    mean, se_mean, sm, se_sm = (np.empty(n_rounds + 1) for _ in range(4))

    def record(n):
        mean[n] = theta.mean()
        se_mean[n] = theta.std(ddof=1) / math.sqrt(cfg.n_runs) if cfg.n_runs > 1 else 0.0
        gap_sq = (theta - theta_star) ** 2
        sm[n] = gap_sq.mean()
        se_sm[n] = gap_sq.std(ddof=1) / math.sqrt(cfg.n_runs) if cfg.n_runs > 1 else 0.0

    draw_dtype = np.uint16 if m_clients <= 1 << 16 else np.int64
    second = None  # the second client of the last pair drawn, until its round
    record(0)
    for n in range(n_rounds):
        if cfg.scheme == "sync":
            theta = theta + step * (theta_star - theta)
        elif cfg.scheme == "sync_uniform":
            scores = rng.random((cfg.n_runs, m_clients))
            chosen = np.argpartition(scores, cfg.m - 1, axis=1)[:, : cfg.m]
            theta = theta + step * (optima[chosen].mean(axis=1) - theta)
        else:  # async
            if m_clients > 1 << 8:
                j = rng.integers(0, m_clients, cfg.n_runs, dtype=draw_dtype)
            elif second is None:
                v = rng.integers(0, m_clients * m_clients, cfg.n_runs, dtype=np.uint16).astype(np.int64)
                j, second = v // m_clients, v % m_clients
            else:
                j, second = second, None
            theta = theta + step * (optima[j] - held[rows, j])
            held[rows, j] = theta
        record(n + 1)
    return mean, se_mean, sm, se_sm


class TestGuards:
    def test_staleness_cap_enforced(self):
        fleet = quadratic_fleet([[0.0], [2.0]], taus=[1, 2])
        plan = plan_weights(WeightScheme.ASYNC_TIME_BASED, fleet.importances, [1, 2], ASYNC)
        cfg = RunConfig(fleet=fleet, policy=ASYNC, plan=plan, eta_l=0.1,
                        full_gradient=True, rounds=12, tau_max=1)
        with pytest.raises(StalenessCapError):
            run(cfg)
        relaxed = RunConfig(fleet=fleet, policy=ASYNC, plan=plan, eta_l=0.1,
                            full_gradient=True, rounds=12, tau_max=2)
        assert run(relaxed).n_rounds == 12

    def test_divergence_truncates_with_a_marker(self):
        fleet = quadratic_fleet([[0.0], [2.0]], curvature=5.0)
        traj = run(sync_config(fleet, eta_l=1.9, rounds=200))
        assert traj.diverged
        assert traj.divergence_round is not None
        assert traj.n_rounds < 200 or traj.theta.shape[0] == traj.divergence_round + 1

    def test_never_served_clients_are_counted(self):
        fleet = quadratic_fleet([[0.0], [1.0], [2.0]], taus=[1, 2, 3])
        policy = WaitPolicy(PolicyKind.SAMPLE_BIASED, m=1, criterion="fastest")
        plan = plan_weights(WeightScheme.IDENTICAL, fleet.importances, [1, 2, 3], policy)
        cfg = RunConfig(fleet=fleet, policy=policy, plan=plan, eta_l=0.1,
                        full_gradient=True, rounds=6)
        assert run(cfg).never_served == 2

    def test_two_horizons_rejected(self):
        fleet = quadratic_fleet([[0.0], [2.0]])
        plan = plan_weights(WeightScheme.FEDAVG, fleet.importances, [1, 1])
        with pytest.raises(ConfigurationError):
            RunConfig(fleet=fleet, policy=SYNC, plan=plan, rounds=5, time_budget=3.0)


class TestMetricsAndCsv:
    def test_header_and_schema(self, tmp_path):
        fleet = quadratic_fleet([[0.0], [2.0]])
        traj = run(sync_config(fleet, rounds=4))
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "n,t,participants,loss_fed,loss_surrogate,dist_sq,loss_client_0,loss_client_1"
        assert len(lines) == 6  # header + 5 model rows
        final = lines[-1].split(",")
        assert final[2] == "" and final[4] == ""

    def test_csv_is_deterministic(self, tmp_path):
        fleet = quadratic_fleet([[0.0], [2.0]], noise_std=0.2)
        cfg = sync_config(fleet, full_gradient=False, rounds=6)
        write_trajectory_csv(run(cfg), tmp_path / "a.csv")
        write_trajectory_csv(run(cfg), tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_csv_bytes_match_the_reference_writer(self, tmp_path):
        fleet = quadratic_fleet([[0.0], [2.0], [-3.0]], taus=[1, 2, 3], noise_std=0.3)
        plan = plan_weights(WeightScheme.ASYNC_TIME_BASED, fleet.importances, [1, 2, 3], ASYNC)
        normal = RunConfig(fleet=fleet, policy=ASYNC, plan=plan, eta_l=0.3, rounds=40,
                           theta0=np.array([4.0]))
        diverged = sync_config(fleet, eta_l=5.0, rounds=50)
        thinned = replace(normal, rounds=41, metric_cadence=3)
        for name, cfg in [("normal", normal), ("diverged", diverged), ("thinned", thinned)]:
            traj = run(cfg)
            got, want = tmp_path / f"{name}.csv", tmp_path / f"{name}.ref.csv"
            write_trajectory_csv(traj, got)
            _reference_trajectory_csv(traj, want)
            assert got.read_bytes() == want.read_bytes()
        assert traj.metrics.round[-1] == 41 and traj.metrics.participant_mask[-1] is None
        assert traj.metrics.round[-2] == 39
        assert run(diverged).diverged

    def test_failed_write_leaves_no_temporary_and_keeps_the_old_file(self, tmp_path):
        fleet = quadratic_fleet([[0.0], [2.0]])
        traj = run(sync_config(fleet, rounds=6))
        path = tmp_path / "trajectory.csv"
        path.write_text("previous run\n")
        losses = traj.metrics.client_losses.astype(object)
        losses[4] = (0.5, "not a number")
        traj.metrics = replace(traj.metrics, client_losses=losses)
        with pytest.raises(TypeError):
            write_trajectory_csv(traj, path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["trajectory.csv"]
        assert path.read_text() == "previous run\n"

    def test_malformed_loss_tables_raise_type_error_before_the_file_is_opened(self, tmp_path, monkeypatch):
        path = tmp_path / "trajectory.csv"
        path.write_text("previous run\n")
        leading = [(0, 0.0, b"", 1.0, b"", 0.0), (1, 1.0, b"", 1.0, b"", 0.0)]

        def refuse(*args, **kwargs):
            raise AssertionError("the loss table is checked before the file is opened")

        monkeypatch.setattr(engine, "atomic_open", refuse)
        ragged = [np.zeros(3), np.zeros(2)]
        for losses in (ragged, [np.zeros(3), np.zeros(3)], np.zeros((2, 2)), np.zeros((1, 3)),
                       np.full((2, 3), "0.5"), np.zeros((2, 3), dtype=object)):
            with pytest.raises(TypeError, match=r"expected a \(2, 3\) array"):
                engine.write_trajectory_table(path, 3, leading, losses)
            assert sorted(p.name for p in tmp_path.iterdir()) == ["trajectory.csv"]
            assert path.read_text() == "previous run\n"

    def test_csv_rows_spanning_encoder_blocks_match_the_reference_writer(self, tmp_path):
        rng = np.random.default_rng(5)
        n_clients = 700  # BLOCK_CELLS // 700 = 11 rows per encoder block
        optima = rng.standard_normal((n_clients, 1)) * 10.0 ** rng.uniform(-5, 5, (n_clients, 1))
        taus = rng.integers(1, 6, n_clients).tolist()
        fleet = quadratic_fleet(optima.tolist(), taus=taus)
        plan = plan_weights(WeightScheme.ASYNC_TIME_BASED, fleet.importances, taus, ASYNC)
        # client 0 starts at its optimum, so its first loss cell is exactly 0
        cfg = RunConfig(fleet=fleet, policy=ASYNC, plan=plan, eta_l=0.3, rounds=30,
                        theta0=optima[0].copy())
        for name, config in [("every", cfg), ("thinned", replace(cfg, metric_cadence=4))]:
            traj = run(config)
            if name == "every":
                assert len(traj.metrics) == 31 and traj.metrics.client_losses[0, 0] == 0.0
                # a row a caller replaced is written as replaced
                losses = traj.metrics.client_losses.copy()
                losses[12] = -losses[12]
                traj.metrics = replace(traj.metrics, client_losses=losses)
            got, want = tmp_path / f"{name}.csv", tmp_path / f"{name}.ref.csv"
            write_trajectory_csv(traj, got)
            _reference_trajectory_csv(traj, want)
            assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("policy", [ASYNC, WaitPolicy(PolicyKind.FEDFIX, delta_t=0.3)],
                             ids=lambda p: p.kind.value)
    def test_whole_row_blocks_match_the_reference_writer(self, tmp_path, policy):
        # 53 clients: masks up to 2^52 (async) or 0 (an empty FedFix round),
        # 59 cells a row, so 138 rows an encoder block
        rng = np.random.default_rng(6)
        fleet = quadratic_fleet(rng.normal(0.0, 3.0, (53, 1)).tolist(), taus=rng.integers(1, 6, 53).tolist())
        plan = plan_weights(WeightScheme.FEDAVG, fleet.importances, fleet.compute_times, policy)
        traj = run(RunConfig(fleet=fleet, policy=policy, plan=plan, eta_l=0.3, rounds=500))
        masks = traj.metrics.participant_mask
        assert max(masks[:-1]) >= 2**52 if policy is ASYNC else 0 in masks
        # surrogates that are not numbers, or not finite, amid whole rows
        surrogates = traj.metrics.loss_surrogate.copy()
        surrogates[[100, 101, 300]] = [math.nan, math.inf, -0.0]
        traj.metrics = replace(traj.metrics, loss_surrogate=surrogates)
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_trajectory_csv(traj, got)
        _reference_trajectory_csv(traj, want)
        assert got.read_bytes() == want.read_bytes()
        assert got.read_bytes().splitlines()[101].split(b",")[4] == b""  # round 100's NaN

    def test_client_losses_are_read_only_rows_of_one_matrix(self):
        fleet = quadratic_fleet([[0.0], [2.0], [-1.0]], taus=[1, 2, 3])
        traj = run(sync_config(fleet, rounds=5))
        losses = traj.metrics.client_losses
        assert isinstance(losses, np.ndarray) and losses.dtype == np.float64 and losses.shape == (6, 3)
        assert not losses.flags.writeable and losses.flags.c_contiguous
        with pytest.raises(ValueError):
            losses[0, 0] = 1.0

    def test_client_losses_match_per_point_values_on_unequal_shards(self):
        rng = np.random.default_rng(11)
        shards = []
        for n_samples in (5, 40, 300):
            x = rng.standard_normal((n_samples, 3))
            y = (rng.random(n_samples) < 0.5).astype(float)
            shards.append(GlmObjective([x], [y], batch_size=2))
        fleet = Fleet([(np.array([i]), shard) for i, shard in enumerate(shards)], [1, 2, 3], [1 / 3] * 3)
        plan = plan_weights(WeightScheme.ASYNC_TIME_BASED, fleet.importances, [1, 2, 3], ASYNC)
        traj = run(RunConfig(fleet=fleet, policy=ASYNC, plan=plan, eta_l=0.2, rounds=30,
                             metric_cadence=4))
        metrics = traj.metrics
        for n, client_losses, loss_fed in zip(metrics.round.tolist(), metrics.client_losses,
                                              metrics.loss_fed.tolist()):
            theta = traj.theta[n]
            want = [_logistic_reference(obj, theta) for obj in shards]
            np.testing.assert_allclose(client_losses, want, rtol=1e-12, atol=0)
            assert loss_fed == pytest.approx(sum(want) / 3, rel=1e-12)

    def test_realized_weights_match_participants(self):
        fleet = quadratic_fleet([[0.0], [2.0]], taus=[1, 2])
        plan = plan_weights(WeightScheme.ASYNC_TIME_BASED, fleet.importances, [1, 2], ASYNC)
        cfg = RunConfig(fleet=fleet, policy=ASYNC, plan=plan, eta_l=0.1,
                        full_gradient=True, rounds=6)
        traj = run(cfg)
        matrix = traj.weight_matrix()
        for n, outcome in enumerate(traj.rounds):
            for i in range(2):
                assert (matrix[n, i] > 0) == (i in outcome.clients)

    def test_final_window_loss_uses_the_tail(self):
        fleet = quadratic_fleet([[0.0], [2.0]])
        traj = run(sync_config(fleet, rounds=100))
        mean, std = engine._tail_stats(traj.metrics.loss_fed, fraction=0.05)
        tail = traj.metrics.loss_fed[-6:]
        assert mean == pytest.approx(tail.mean())

    def test_metric_cadence_thins_rows(self):
        fleet = quadratic_fleet([[0.0], [2.0]])
        traj = run(sync_config(fleet, rounds=10, metric_cadence=5))
        assert traj.metrics.round.tolist() == [0, 5, 10]

    def test_local_work_from_the_anchors_reconstructs_the_aggregation(self):
        fleet = quadratic_fleet([[0.0], [2.0]], taus=[1, 2])
        plan = plan_weights(WeightScheme.ASYNC_TIME_BASED, fleet.importances, [1, 2], ASYNC)
        cfg = RunConfig(fleet=fleet, policy=ASYNC, plan=plan, eta_g=0.8, eta_l=0.2,
                        full_gradient=True, rounds=8)
        traj = run(cfg)
        for n, outcome in enumerate(traj.rounds):
            total = np.zeros(1)
            for client, anchor in zip(outcome.clients.tolist(), outcome.anchors.tolist()):
                assert anchor <= n
                total += plan.d[client] * _delivered_delta(client_row(fleet, client), traj.theta[anchor], cfg)
            assert np.allclose(traj.theta[n] + 0.8 * total, traj.theta[n + 1], atol=1e-15)


class TestMetricBlocks:
    """Metrics rows are computed in row blocks: ``Trajectory.metrics`` and
    the CSV writer read the same blocks, and no (rows, M) matrix is held
    while the CSV is written."""

    def test_blocks_of_glm_chunks_have_the_bits_of_one_evaluation(self, tmp_path, monkeypatch):
        # 1024 samples a shard: GlmObjective.values goes in chunks of 64 rows;
        # eight encoder blocks of 20 rows make 160 rows, rounded up to 192
        shards = make_synthetic_shards(SyntheticShardConfig(6, dim=3, samples_per_client=1024, seed=3,
                                                            batch_size=16))
        fleet = Fleet([(np.arange(6), shards)], [1, 1.5, 2, 0.75, 3, 1.25], [1 / 6] * 6)
        monkeypatch.setattr(engine, "BLOCK_CELLS", 20 * 6)
        monkeypatch.setattr(engine, "_METRIC_CELLS", 8 * 20 * 6)
        assert shards.row_chunk == 64 and engine._block_rows(fleet) == 192
        plan = plan_weights(WeightScheme.FEDAVG, fleet.importances, fleet.compute_times, ASYNC)
        cfg = RunConfig(fleet=fleet, policy=ASYNC, plan=plan, eta_l=0.2, rounds=450)
        blocked, written = run(cfg), run(cfg)
        metrics = blocked.metrics
        # one evaluation of every kept row, and its federated loss as a
        # running sum in client order
        losses = fleet.losses(blocked.theta)
        loss_fed = np.add.accumulate(losses * fleet.importances, axis=1)[:, -1]
        assert len(metrics) == 451 > 2 * engine._block_rows(fleet)
        assert bits(metrics.client_losses) == bits(losses) and bits(metrics.loss_fed) == bits(loss_fed)
        write_trajectory_csv(written, tmp_path / "blocked.csv")
        blocked.metrics = replace(metrics, client_losses=losses, loss_fed=loss_fed)
        write_trajectory_csv(blocked, tmp_path / "whole.csv")
        assert (tmp_path / "blocked.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()

    @pytest.mark.parametrize("n_clients", [20, 70])  # rows encoded whole, rows that splice their masks in
    def test_rows_spanning_metric_blocks_match_the_reference_writer(self, tmp_path, monkeypatch, n_clients):
        # blocks of three encoder blocks of 7 (20 clients) or 2 (70 clients)
        # rows over 62 kept rows (cadence 3, then the final model, which
        # splices its leading cells in); some rounds of a FedFix schedule
        # have no participant: mask 0, surrogate 0
        rng = np.random.default_rng(n_clients)
        fleet = quadratic_fleet(rng.normal(0.0, 3.0, (n_clients, 1)).tolist(),
                                taus=rng.integers(1, 6, n_clients).tolist())
        monkeypatch.setattr(engine, "BLOCK_CELLS", 150)
        monkeypatch.setattr(engine, "_METRIC_CELLS", 3 * 150)
        assert engine._block_rows(fleet) == 3 * (150 // n_clients)
        for policy in (ASYNC, WaitPolicy(PolicyKind.FEDFIX, delta_t=0.3)):
            plan = plan_weights(WeightScheme.FEDAVG, fleet.importances, fleet.compute_times, policy)
            cfg = RunConfig(fleet=fleet, policy=policy, plan=plan, eta_l=0.3, rounds=181, metric_cadence=3)
            traj = run(cfg)
            got, want = tmp_path / "got.csv", tmp_path / "want.csv"
            write_trajectory_csv(traj, got)
            _reference_trajectory_csv(traj, want)
            assert got.read_bytes() == want.read_bytes()
            assert len(traj.metrics) == 62 and traj.metrics.participant_mask[-1] is None
            assert (0 in traj.metrics.participant_mask) == (policy is not ASYNC)

    @pytest.mark.parametrize("n_rows", [1, 2, 3, 16, 131])
    def test_the_federated_loss_is_a_running_sum_in_client_order(self, n_rows):
        rng = np.random.default_rng(n_rows)
        losses = rng.standard_normal((n_rows, 300)) * 10.0 ** rng.uniform(-8, 8, (n_rows, 300))
        losses[:, ::7] = -0.0
        losses[-1] = -0.0  # a row of negative zeros sums to -0.0
        weights = rng.random(300)
        terms = np.empty((300, n_rows + 5))[:, :n_rows]  # client-major, as the blocks hold them
        np.multiply(losses.T, weights[:, None], out=terms)
        want = np.add.accumulate(losses * weights, axis=1)[:, -1]
        assert bits(engine._running_sum(terms)) == bits(want)
        assert np.signbit(engine._running_sum(terms)[-1])

    def test_writing_the_csv_holds_no_loss_matrix(self, tmp_path):
        # an asynchronous M=500 fleet over 250 and 1000 rounds: the longer
        # run may hold more of the per-round record (the models and the
        # schedule's columns, in buffers that grow by doubling), not a
        # (rows, M) matrix, which would add 750 * 500 * 8 = 3 MB
        n_clients = 500
        fleet = quadratic_fleet([[(13 * i % 17 - 8) / 4] for i in range(n_clients)],
                                taus=[1 + (7 * i % 40) / 10 for i in range(n_clients)])
        plan = plan_weights(WeightScheme.IDENTICAL, fleet.importances, fleet.compute_times, ASYNC)
        cfg = RunConfig(fleet=fleet, policy=ASYNC, plan=plan, hw=HardwareModel("exponential"), eta_l=0.01,
                        full_gradient=True, rounds=20, theta0=np.array([4.0]))
        write_trajectory_csv(run(cfg), tmp_path / "warm.csv")  # numpy's first-call allocations stay untraced

        def peak(rounds):
            tracemalloc.start()
            try:
                write_trajectory_csv(run(replace(cfg, rounds=rounds)), tmp_path / "trajectory.csv")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short, long = peak(250), peak(1000)
        record = 750 * (fleet.dim + 7) * 8  # the models' and the 7 schedule columns' words a round
        assert long - short <= 2 * record + (256 << 10)


def _delivered_delta(objective, anchor_model, cfg, source=None):
    """One client's local work, computed at its delivery: one job of one
    member on the client's one-row table ``objective``."""
    out = local_sgd(objective, [0], anchor_model[None, None], cfg.k_steps, cfg.eta_l,
                    None if source is None else reference_draws(objective, [0], cfg.k_steps, [[source]]))
    return out.delta[0, 0]


class TestLocalWorkTiming:
    """Local work runs once its anchor model exists, ahead of delivery; the
    trajectory is the one computing each run at its delivery gives."""

    def _overflow_fleet(self, slow_tau):
        # client 1's quadratic leaves the finite range within 3 local steps
        table = QuadraticObjective([[0.5], [1e200]], [[-1.0], [0.0]], [0.5, 0.0])
        return Fleet([(np.arange(2), table)], [1, slow_tau], [0.5, 0.5])

    def test_an_overflow_still_in_flight_at_the_horizon_is_not_a_divergence(self, monkeypatch):
        computed = []

        def recording(table, rows, *args, **kwargs):
            out = local_sgd(table, rows, *args, **kwargs)
            computed.append((list(rows), out.overflow_step))
            return out

        monkeypatch.setattr(engine, "local_sgd", recording)
        fleet = self._overflow_fleet(slow_tau=100)
        plan = plan_weights(WeightScheme.FEDAVG, fleet.importances, fleet.compute_times, ASYNC)
        cfg = RunConfig(fleet=fleet, policy=ASYNC, plan=plan, eta_l=0.1, k_steps=3, full_gradient=True,
                        rounds=40, theta0=np.array([1.0]))
        traj = run(cfg)
        # client 1's run was computed with client 0's first one, at round 0,
        # and overflowed; it is never delivered
        assert computed[0][0] == [0, 1] and computed[0][1][:, 0].tolist() == [-1, 1]
        assert not traj.diverged and traj.n_rounds == 40
        assert all(r.clients.tolist() == [0] for r in traj.rounds)
        assert traj.never_served == 1
        longer = run(replace(cfg, rounds=None, time_budget=150.0))
        assert longer.diverged and longer.divergence_cause == "overflow"
        assert longer.rounds[longer.divergence_round].clients.tolist() == [1]

    @pytest.mark.parametrize("policy", [SYNC, ASYNC, WaitPolicy(PolicyKind.FEDFIX, delta_t=0.7)])
    def test_one_run_per_call_gives_the_stacked_trajectory(self, monkeypatch, policy):
        # a bound of one float per call leaves one run per local_sgd call;
        # the fleet has a quadratic table and two GLM tables
        shards = make_synthetic_shards(SyntheticShardConfig(3, dim=2, samples_per_client=12, seed=4,
                                                            batch_size=3))
        quadratics = QuadraticObjective.from_optima([[1.0, -1.0], [0.5, 2.0]])
        tables = [
            (np.array([0, 2]), QuadraticObjective(quadratics.a, quadratics.b, quadratics.c, [0.7, 0.0])),
            (np.array([1, 3]), GlmObjective(shards.features[:2], shards.targets[:2], batch_size=3)),
            (np.array([4]), GlmObjective(shards.features[2:, :9], shards.targets[2:, :9], batch_size=3)),
        ]
        fleet = Fleet(tables, [1, 2, 3, 1.5, 2.5], [0.2] * 5)
        plan = plan_weights(WeightScheme.FEDAVG, fleet.importances, fleet.compute_times, policy)
        cfg = RunConfig(fleet=fleet, policy=policy, plan=plan, eta_l=0.1, k_steps=3, rounds=60)
        seeds = [Seeds((0, j), (1, j), (2, j)) for j in range(3)]
        stacked = run_members(with_seeds(cfg, seeds))
        sizes = []

        def recording(table, rows, *args, **kwargs):
            sizes.append(len(rows))
            return local_sgd(table, rows, *args, **kwargs)

        monkeypatch.setattr(engine, "_LOCAL_FLOATS", 1)
        monkeypatch.setattr(engine, "local_sgd", recording)
        alone = run_members(with_seeds(cfg, seeds))
        assert set(sizes) == {1}
        for a, b in zip(stacked, alone):
            assert a.theta.tobytes() == b.theta.tobytes()

    @pytest.mark.parametrize("policy", [ASYNC, WaitPolicy(PolicyKind.FEDBUFF, m=2),
                                        WaitPolicy(PolicyKind.SAMPLE_MD, m=3)])
    @pytest.mark.parametrize("family", ["noisy_quadratic", "glm"])
    def test_trajectory_matches_a_per_delivery_replay(self, family, policy):
        if family == "glm":
            shards = make_synthetic_shards(SyntheticShardConfig(4, dim=3, samples_per_client=20, seed=2,
                                                                batch_size=4))
            fleet = Fleet([(np.arange(4), shards)], [1, 2, 3, 1], [0.25] * 4)
        else:
            fleet = quadratic_fleet([[-2.0], [1.0], [3.0], [0.5], [4.0]], taus=[1, 2, 3, 1, 5], noise_std=0.7)
        plan = plan_weights(WeightScheme.FEDAVG, fleet.importances, fleet.compute_times, policy)
        seeds = Seeds((0, 3), (1, 3), (2, 3))
        cfg = RunConfig(fleet=fleet, policy=policy, plan=plan, hw=HardwareModel("exponential"), eta_g=0.9,
                        eta_l=0.05, k_steps=3, rounds=150, seeds=seeds, theta0=np.full(fleet.dim, 2.0))
        traj = run(cfg)
        # asynchronous runs overlap; sampled clients train only when drawn
        assert max(r.staleness.max() for r in traj.rounds) >= (0 if policy.is_sampling else 3)

        assert _per_delivery_models(cfg, seeds, traj.rounds).tobytes() == traj.theta.tobytes()


def _member_source(config, seeds, i):
    """The per-member source of client ``i`` for a member with ``seeds``:
    a batch stream or noise generator keyed (batching seed, client id)."""
    batching = seeds.batching
    rng = np.random.default_rng(([batching] if isinstance(batching, int) else list(batching)) + [i])
    obj = client_row(config.fleet, i)
    if isinstance(obj, GlmObjective):
        return BatchStream(obj.n_samples, config.batch_size or obj.batch_size, rng)
    return rng


def _per_delivery_models(config, seeds, rounds):
    """The models of ``rounds`` with each run computed at its delivery from
    the member's own sources: the per-member reference path."""
    fleet, d = config.fleet, config.plan.d
    sources = [None if config.full_gradient else _member_source(config, seeds, i) for i in range(len(fleet))]
    models = [config.resolved_theta0()]
    with np.errstate(over="ignore", invalid="ignore"):
        for outcome in rounds:
            total = np.zeros(fleet.dim)
            for i, mult, anchor in zip(outcome.clients.tolist(), outcome.multiplicity.tolist(),
                                       outcome.anchors.tolist()):
                total += (mult * d[i]) * _delivered_delta(client_row(fleet, i), models[anchor], config, sources[i])
            models.append(models[-1] + config.eta_g * total)
    return np.asarray(models)


def _draw_table_fleet(case):
    """A fleet and config for one exactness case of the draw tables."""
    taus = [1, 1.5, 2, 0.75, 3, 1.25]
    policy, hw, extra = ASYNC, "fixed", {}
    if case == "quadratic_mixed_noise":
        # dim 3; rows 1 and 3 are noiseless, row 4 leaves the finite range
        # within its run and delivers late
        rng = np.random.default_rng(12)
        a = rng.uniform(0.2, 1.0, (5, 3))
        a[4] = 1e200
        table = QuadraticObjective(a, rng.normal(size=(5, 3)), 0.0, [0.7, 0.0, 1.3, 0.0, 0.4])
        fleet = Fleet([(np.arange(5), table)], [1, 1.5, 2, 0.75, 15], [0.2] * 5)
        extra = dict(k_steps=3, rounds=80)
    else:
        n, batch, k_steps = {"n_mod_b": (10, 3, 2), "batch_size_override": (12, 3, 2),
                             "k_longer_than_an_epoch": (10, 3, 7), "mid_pass_refills": (16, 3, 4),
                             "time_horizon": (11, 4, 3)}[case]
        shards = make_synthetic_shards(SyntheticShardConfig(6, dim=2, samples_per_client=n, seed=5,
                                                            batch_size=batch))
        quadratics = QuadraticObjective.from_optima([[1.0, -1.0], [0.5, 2.0]])
        tables = [(np.array([0, 2, 3, 5]), GlmObjective(shards.features[:4], shards.targets[:4], batch_size=batch)),
                  (np.array([1, 4]), QuadraticObjective(quadratics.a, quadratics.b, quadratics.c, [0.0, 0.6]))]
        fleet = Fleet(tables, taus, [1 / 6] * 6)
        extra = dict(k_steps=k_steps, rounds=60)
        if case == "batch_size_override":
            extra["batch_size"] = 5  # 12 % 5 = 2 samples dropped per epoch
        if case == "mid_pass_refills":
            policy = SYNC  # every client in every pass
        if case == "time_horizon":
            policy, hw = WaitPolicy(PolicyKind.FEDBUFF, m=2), "exponential"
            extra = dict(k_steps=k_steps, time_budget=17.3)
    plan = plan_weights(WeightScheme.FEDAVG, fleet.importances, fleet.compute_times, policy)
    return RunConfig(fleet=fleet, policy=policy, plan=plan, hw=HardwareModel(hw), eta_g=0.9, eta_l=0.05,
                     theta0=np.full(fleet.dim, 1.5), **extra)


_DRAW_TABLE_CASES = ["n_mod_b", "batch_size_override", "k_longer_than_an_epoch", "mid_pass_refills",
                     "time_horizon", "quadratic_mixed_noise"]


class TestDrawTables:
    """A local-work pass takes its runs' draws as slices of one draw table
    per objective table; every run, and so every trajectory, equals the
    per-member path's (a batch stream or per-run normals of each member's
    own generator), bit for bit."""

    @pytest.mark.parametrize("n_members", [1, 3])
    @pytest.mark.parametrize("case", _DRAW_TABLE_CASES)
    def test_runs_and_models_match_the_per_member_path(self, monkeypatch, case, n_members):
        cfg = _draw_table_fleet(case)
        if case == "mid_pass_refills":
            # rows of 53 normals (6.6 runs) and 26 sample indices (2.2 runs):
            # most passes refill some rows and not others, and runs take
            # held and fresh draws
            monkeypatch.setattr(engine, "_LOCAL_FLOATS", 2 * n_members * 53)
        seeds = _MEMBERS[:n_members]
        calls, refills = [], []
        refill = engine._DrawTable._refill

        def recording(table, rows, starts, k_steps, eta_l, draws=None):
            out = local_sgd(table, rows, starts, k_steps, eta_l, draws)
            calls.append((table, np.array(rows), starts.copy(), out))
            return out

        def recording_refill(self, g):
            refills.append((len(calls), self.n_samples, int(self.last[g, 0] - self.first[g, 0])))
            return refill(self, g)

        with monkeypatch.context() as patch:
            patch.setattr(engine, "local_sgd", recording)
            patch.setattr(engine._DrawTable, "_refill", recording_refill)
            group = engine._run_group(with_seeds(cfg, seeds))
        sources = {}
        steps = set()
        for table, rows, starts, out in calls:
            positions = next(pos for pos, t in cfg.fleet.tables if t is table)
            for p, row in enumerate(rows.tolist()):
                i = int(positions[row])
                for r, member in enumerate(seeds):
                    source = sources.setdefault((i, r), _member_source(cfg, member, i))
                    one = local_sgd(table.row(row), [0], starts[p, r][None, None], cfg.k_steps, cfg.eta_l,
                                    reference_draws(table.row(row), [0], cfg.k_steps, [[source]]))
                    assert bits(out.path[:, p, r]) == bits(one.path[:, 0, 0]), (case, p, r)
                    assert bits(out.delta[p, r]) == bits(one.delta[0, 0]), (case, p, r)
                    step = -1 if out.overflow_step is None else int(out.overflow_step[p, r])
                    assert step == (-1 if one.overflow_step is None else int(one.overflow_step[0, 0]))
                    steps.add(step)
        for r, member in enumerate(seeds):
            want = _per_delivery_models(cfg, member, group.rounds)
            got = group.models[:, r]
            assert got.tobytes() == want[: len(got)].tobytes(), (case, r)
        if case == "quadratic_mixed_noise":
            assert max(steps) >= 0 and -1 in steps
            assert group.divergence[0] is not None and group.divergence[0][1] == "overflow"
        if case == "mid_pass_refills":
            straddled = {n_samples for _, n_samples, kept in refills if kept > 0}
            partial = [n for n in {n for n, _, _ in refills}
                       if 0 < sum(m == n for m, _, _ in refills) < len(calls[n][1])]
            assert straddled == {None, 16} and partial  # both tables
        if case == "time_horizon":
            delivered = sum(int(r.multiplicity.sum()) for r in group.rounds)
            assert sum(len(rows) for _, rows, _, _ in calls) > delivered

    def test_a_pass_draws_only_in_refills(self, monkeypatch):
        counts = {"schedule": 0, "pass": 0, "refill": 0}
        phase = ["schedule"]

        class Counting:
            """A generator that counts the calls of its methods by phase."""

            def __init__(self, rng):
                self._rng = rng

            def __getattr__(self, name):
                method = getattr(self._rng, name)

                def counted(*args, **kwargs):
                    counts[phase[-1]] += 1
                    return method(*args, **kwargs)

                return counted

        def in_phase(name, fn):
            def wrapped(*args, **kwargs):
                phase.append(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    phase.pop()
            return wrapped

        refills, per_refill = [], []
        refill = engine._DrawTable._refill

        def counting_refill(self, g):
            before = counts["refill"]
            refill(self, g)
            per_refill.append(counts["refill"] - before)

        cfg = replace(_draw_table_fleet("mid_pass_refills"), rounds=120, hw=HardwareModel("exponential"))
        default_rng = np.random.default_rng
        with monkeypatch.context() as patch:
            patch.setattr(np.random, "default_rng", lambda *args: Counting(default_rng(*args)))
            patch.setattr(engine._LocalWork, "compute_pending",
                          in_phase("pass", engine._LocalWork.compute_pending))
            patch.setattr(engine._DrawTable, "_refill", in_phase("refill", counting_refill))
            traj = run(cfg)
        assert traj.n_rounds == 120 and counts["schedule"] > 0
        assert counts["pass"] == 0
        # one call of each member's generator per refill, and far fewer
        # refills than runs: 120 passes of 6 runs
        assert set(per_refill) == {1} and len(per_refill) < 120

    @pytest.mark.parametrize("full_gradient", [False, True])
    def test_jobs_per_call_count_what_a_call_holds(self, monkeypatch, full_gradient):
        # 8 clients in every pass, 2 members: a batched run holds its K + 1
        # iterates and K * B draws, samples and targets, a full-gradient run
        # its iterates and the shard's n samples and targets
        k, dim, n, batch = 5, 3, 40, 4
        shards = make_synthetic_shards(SyntheticShardConfig(8, dim=dim, samples_per_client=n, seed=3,
                                                            batch_size=batch))
        fleet = Fleet([(np.arange(8), shards)], [1] * 8, [1 / 8] * 8)
        cfg = sync_config(fleet, k_steps=k, rounds=4, full_gradient=full_gradient, eta_l=0.05)
        per_run = dim * (k + 1) + (n * (dim + 1) if full_gradient else k * batch * (dim + 2))
        sizes = []

        def recording(table, rows, *args, **kwargs):
            sizes.append(len(rows))
            return local_sgd(table, rows, *args, **kwargs)

        monkeypatch.setattr(engine, "_LOCAL_FLOATS", 3 * 2 * per_run + 2 * per_run - 1)
        monkeypatch.setattr(engine, "local_sgd", recording)
        run_members(with_seeds(cfg, _MEMBERS[:2]))
        assert sizes == [3, 3, 2] * 4


def _reference_run_group(config, member_seeds):
    """The round loop as it was before segments, the reference for
    :func:`engine._run_group`: every round gathers its participants' runs,
    adds ``(mult * d_i) * delta_i`` to a zero total in client order, steps
    the model and checks divergence on its own. Returns the recorded
    models, the round times, the rounds and the per-member divergence."""
    fleet, policy, hw, lead = config.fleet, config.policy, config.hw, member_seeds[0]
    d, taus = config.plan.d, list(fleet.compute_times)
    hw_rng = np.random.default_rng(lead.hardware) if hw.mode == "exponential" else None
    sample_rng = np.random.default_rng(lead.sampling)
    work = engine._LocalWork(with_seeds(config, member_seeds))
    by_loss = policy.kind is PolicyKind.SAMPLE_BIASED and policy.criterion == "highest_loss"
    state = init_fleet_state(taus, hw, hw_rng, config.initial_clocks, policy=policy)
    n_members = len(member_seeds)
    models = np.empty((8, n_members, fleet.dim))
    models[0] = config.resolved_theta0()
    live = np.ones(n_members, dtype=bool)
    divergence = [None] * n_members
    rounds, round_times = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        while config.rounds is None or state.round_index < config.rounds:
            n = state.round_index
            losses = fleet.losses(models[n])[0] if by_loss else None
            outcome = advance_round(state, policy, taus, hw, hw_rng=hw_rng, sample_rng=sample_rng,
                                    client_losses=losses, importances=fleet.importances,
                                    time_limit=config.time_budget)
            if outcome is None:
                break
            if config.tau_max is not None:
                engine._check_staleness(outcome, config.tau_max)
            if outcome.anchors.max(initial=-1) > work.computed_through:
                in_flight = state.anchor.copy()
                in_flight[outcome.clients] = outcome.anchors
                work.compute_pending(n, in_flight, models)
            total = np.zeros((n_members, fleet.dim))
            for i, mult in zip(outcome.clients.tolist(), outcome.multiplicity.tolist()):
                total += (mult * d[i]) * work.deltas[i]
            new_theta = models[n] + config.eta_g * total
            rounds.append(outcome)
            round_times.append(state.time)
            overflowed = (work.overflow[outcome.clients] >= 0).any(axis=0)
            failed = ~(np.abs(new_theta) <= engine.DIVERGENCE_THRESHOLD).all(axis=1) | overflowed
            for r in np.flatnonzero(failed & live).tolist():
                divergence[r] = (n, "overflow" if overflowed[r] else "threshold")
            live &= ~failed
            if not live.any():
                return models[: n + 1], round_times, rounds, divergence
            if n + 1 == len(models):
                models = np.concatenate([models, np.empty_like(models)])
            models[n + 1] = new_theta
    return models[: len(rounds) + 1], round_times, rounds, divergence


def _round_record(rounds):
    return [(r.index, r.length, r.scale, r.clients.tolist(), r.multiplicity.tolist(), r.anchors.tolist())
            for r in rounds]


def _segmented_run(monkeypatch, config, member_seeds):
    """``engine._run_group`` on ``config`` with each of ``member_seeds``, checked bit for bit
    against :func:`_reference_run_group`, and the rounds at which it ran a
    local-work pass and the segments it aggregated, as (first round, round
    after the last): a segment runs from one pass round to the next."""
    passes, segments = [], []
    compute_pending, aggregate = engine._LocalWork.compute_pending, engine._Server.aggregate

    def recording_pass(self, index, *args):
        passes.append(index)
        return compute_pending(self, index, *args)

    def recording_aggregate(self, schedule, stop, work):
        if stop > self.n_models - 1:
            segments.append((self.n_models - 1, stop))
        return aggregate(self, schedule, stop, work)

    with monkeypatch.context() as patch:
        patch.setattr(engine._LocalWork, "compute_pending", recording_pass)
        patch.setattr(engine._Server, "aggregate", recording_aggregate)
        got = engine._run_group(with_seeds(config, member_seeds))
    models, round_times, rounds, divergence = _reference_run_group(config, member_seeds)
    assert got.models.shape == models.shape and got.models.tobytes() == models.tobytes()
    assert got.rounds.time.tolist() == round_times
    assert _round_record(got.rounds) == _round_record(rounds)
    assert got.divergence == divergence
    return got, passes, segments


def _mid_segment(n, segments):
    """Whether round n was aggregated in one block with the round after it."""
    return any(start <= n and n + 1 < stop for start, stop in segments)


_MEMBERS = [Seeds((0, j), (1, j), (2, j)) for j in range(5)]
_POLICIES = [
    SYNC, ASYNC, WaitPolicy(PolicyKind.FEDFIX, delta_t=0.7), WaitPolicy(PolicyKind.FEDBUFF, m=2),
    WaitPolicy(PolicyKind.SAMPLE_UNIFORM, m=2), WaitPolicy(PolicyKind.SAMPLE_MD, m=3),
    WaitPolicy(PolicyKind.SAMPLE_BIASED, m=2, criterion="fastest"),
    WaitPolicy(PolicyKind.SAMPLE_BIASED, m=2, criterion="highest_loss"),
]


def _segment_fleet(family):
    # twelve clients, so a round of more than eight participants shows a
    # pairwise np.sum apart from the sum in client order
    taus = [1, 1.5, 2, 0.75, 3, 1.25] * 2
    if family == "glm":
        shards = make_synthetic_shards(SyntheticShardConfig(12, dim=3, samples_per_client=16, seed=6,
                                                            batch_size=4))
        return Fleet([(np.arange(12), shards)], taus, [1 / 12] * 12)
    noise = 0.5 if family == "noisy_quadratic" else 0.0
    optima = np.random.default_rng(8).normal(0.0, 3.0, (12, 1)).tolist()
    return quadratic_fleet(optima, taus=taus, noise_std=noise)


class TestSegmentAggregation:
    """The loop that aggregates the rounds between two local-work passes as
    one block gives the models, rounds, times and divergence of a loop that
    aggregates every round on its own, bit for bit."""

    @pytest.mark.parametrize("n_members", [1, 5])
    @pytest.mark.parametrize("family", ["quadratic", "noisy_quadratic", "glm"])
    @pytest.mark.parametrize("hw", ["fixed", "exponential"])
    @pytest.mark.parametrize("policy", _POLICIES, ids=lambda p: p.criterion or p.kind.value)
    def test_matches_the_per_round_loop(self, monkeypatch, policy, hw, family, n_members):
        fleet = _segment_fleet(family)
        plan = plan_weights(WeightScheme.FEDAVG, fleet.importances, fleet.compute_times, policy)
        cfg = RunConfig(fleet=fleet, policy=policy, plan=plan, hw=HardwareModel(hw), eta_g=0.9, eta_l=0.05,
                        k_steps=2, full_gradient=family == "quadratic", rounds=40,
                        theta0=np.full(fleet.dim, 2.0))
        _segmented_run(monkeypatch, cfg, _MEMBERS[:n_members])

    @pytest.mark.parametrize("family", ["noisy_quadratic", "glm"])
    @pytest.mark.parametrize("hw", ["fixed", "exponential"])
    @pytest.mark.parametrize("policy", [SYNC, ASYNC, WaitPolicy(PolicyKind.FEDFIX, delta_t=0.7)],
                             ids=lambda p: p.kind.value)
    def test_time_horizon_and_metric_cadence(self, monkeypatch, policy, hw, family):
        fleet = _segment_fleet(family)
        plan = plan_weights(WeightScheme.FEDAVG, fleet.importances, fleet.compute_times, policy)
        cfg = RunConfig(fleet=fleet, policy=policy, plan=plan, hw=HardwareModel(hw), eta_l=0.1, k_steps=2,
                        time_budget=23.5, metric_cadence=3, seeds=_MEMBERS[2])
        group, _, _ = _segmented_run(monkeypatch, cfg, [cfg.seeds])
        traj = run(cfg)
        assert traj.theta.tobytes() == group.models[:, 0].tobytes()
        assert traj.times.tolist() == [0.0] + group.rounds.time.tolist()
        metrics = traj.metrics
        kept = list(range(0, traj.n_rounds + 1, 3))
        assert metrics.round.tolist() == kept + ([traj.n_rounds] if traj.n_rounds % 3 else [])
        assert metrics.wall_time.tobytes() == traj.times[metrics.round].tobytes()
        gaps = traj.theta[metrics.round] - traj.optimum
        assert metrics.dist_sq.tobytes() == np.array([np.dot(g, g) for g in gaps]).tobytes()

    @pytest.mark.parametrize("merge", [True, False], ids=["merged", "replayed"])
    def test_a_staleness_error_is_raised_only_while_a_member_is_live(self, monkeypatch, merge):
        # client 3 delivers at round 15 with staleness 15, in the segment of
        # rounds 12-15; at eta_g = 500 the member diverges at round 13 first.
        # Replayed in blocks of 4, 8 and 16 rounds, the stale round comes in
        # the third block (rounds 12-27); the end of the first block splits
        # the segment of rounds 3-5 at round 4, and the second ends at round
        # 12, a pass anyway
        if not merge:
            monkeypatch.setattr(engine, "merged_schedule", lambda *args, **kwargs: None)
            monkeypatch.setattr(engine, "_FIRST_REPLAY_BLOCK", 4)
        fleet = quadratic_fleet([[0.0], [1.0], [2.0], [3.0]], taus=[1, 1, 1, 5])
        plan = plan_weights(WeightScheme.IDENTICAL, fleet.importances, fleet.compute_times, ASYNC)
        cfg = RunConfig(fleet=fleet, policy=ASYNC, plan=plan, eta_g=500.0, eta_l=0.5, full_gradient=True,
                        rounds=30, theta0=np.array([1.0]), tau_max=14)
        group, passes, segments = _segmented_run(monkeypatch, cfg, [cfg.seeds])
        assert group.divergence == [(13, "threshold")] and passes[-1] == 12 and segments[-1] == (12, 15)
        assert len(group.rounds) == 14
        for stable in (replace(cfg, eta_g=20.0), replace(cfg, eta_g=20.0, rounds=None, time_budget=40.0)):
            with pytest.raises(StalenessCapError, match="round 15"):
                engine._run_group([stable])
            with pytest.raises(StalenessCapError, match="round 15"):
                _reference_run_group(stable, [stable.seeds])

    def _noisy_fleet(self, noise_std):
        # client 4, the fastest, is the only noisy one; its deliveries open
        # segments of about five rounds
        taus = [1.1, 1.2, 1.3, 1.45, 1.0]
        table = QuadraticObjective.from_optima([[0.0], [1.0], [2.0], [-1.0], [0.5]])
        noisy = QuadraticObjective(table.a, table.b, table.c, [0.0, 0.0, 0.0, 0.0, noise_std])
        return Fleet([(np.arange(5), noisy)], taus, [0.2] * 5)

    def _assert_members_die_one_by_one_mid_segment(self, monkeypatch, cfg, cause):
        group, _, segments = _segmented_run(monkeypatch, cfg, _MEMBERS)
        assert {c for _, c in group.divergence} == {cause}
        deaths = sorted(n for n, _ in group.divergence)
        # a member diverges while others step on, in the middle of a segment
        assert any(n < deaths[-1] and _mid_segment(n, segments) for n in deaths)
        # the last one ends the loop in the middle of a segment: the rounds
        # after it were scheduled, then dropped
        assert _mid_segment(deaths[-1], segments) and len(group.rounds) == deaths[-1] + 1

    def test_threshold_divergence_of_one_member_and_of_all_members_mid_segment(self, monkeypatch):
        # a member diverges when its noise draw carries the model past the threshold
        fleet = self._noisy_fleet(5e12)
        plan = plan_weights(WeightScheme.FEDAVG, fleet.importances, fleet.compute_times, ASYNC)
        cfg = RunConfig(fleet=fleet, policy=ASYNC, plan=plan, eta_l=0.5, rounds=400)
        self._assert_members_die_one_by_one_mid_segment(monkeypatch, cfg, "threshold")

    def test_overflow_of_one_member_and_of_all_members_mid_segment(self, monkeypatch):
        # client 4's run overflows when its member's noise draw does; its
        # zero weight leaves a finite run without effect, so only the members
        # whose runs overflowed diverge
        fleet = self._noisy_fleet(1e308)
        plan = WeightPlan(WeightScheme.CUSTOM, np.array([0.25, 0.25, 0.25, 0.25, 0.0]))
        cfg = RunConfig(fleet=fleet, policy=ASYNC, plan=plan, eta_l=1.0, rounds=400)
        self._assert_members_die_one_by_one_mid_segment(monkeypatch, cfg, "overflow")

    def test_overflow_behind_rounds_of_other_sizes_in_one_segment(self, monkeypatch):
        # FedFix rounds of none, one or both clients: an overflow of client
        # 0, whose weight is 0, is aggregated in a segment whose earlier
        # rounds do not hold one delivery each, so its place among the
        # segment's deliveries is not its round's place in the segment
        table = QuadraticObjective.from_optima([0.0, 2.0])
        fleet = Fleet([(np.arange(2), QuadraticObjective(table.a, table.b, table.c, [1e308, 0.5]))], [1, 0.7],
                      [0.5, 0.5])
        policy = WaitPolicy(PolicyKind.FEDFIX, delta_t=0.3)
        plan = WeightPlan(WeightScheme.CUSTOM, np.array([0.0, 1.0]))
        cfg = RunConfig(fleet=fleet, policy=policy, plan=plan, eta_l=0.3, rounds=30, theta0=np.array([5.0]))
        members = [Seeds((0, j), (1, j), (2, j)) for j in range(8)]
        group, _, segments = _segmented_run(monkeypatch, cfg, members)
        deaths = [n for n, cause in filter(None, group.divergence) if cause == "overflow"]
        sizes = np.diff(group.rounds.offsets)
        assert any(start < n < stop and sizes[start:n].sum() != n - start for start, stop in segments for n in deaths)


def _per_round_replay(state, policy, taus, hw, n_rounds, schedule, **kwargs):
    """``replay_rounds`` as one ``advance_round`` call a round."""
    for played in range(n_rounds):
        outcome = advance_round(state, policy, taus, hw, **kwargs)
        if outcome is None:
            return played
        schedule.append([outcome.length], [state.time], [outcome.clients.size], outcome.clients,
                        outcome.multiplicity, outcome.anchors)
    return n_rounds


def _counted_run(monkeypatch, config, *, merge=True, per_round=False):
    """``run(config)`` and the number of rounds its replay source played;
    without ``merge`` every schedule comes from the replay source, in the
    same round loop, and with ``per_round`` that source replays one
    ``advance_round`` call a round instead of a block at a time."""
    played, replay = [], _per_round_replay if per_round else engine.replay_rounds

    def counted(*args, **kwargs):
        played.append(replay(*args, **kwargs))
        return played[-1]

    with monkeypatch.context() as patch:
        patch.setattr(engine, "replay_rounds", counted)
        if not merge:
            patch.setattr(engine, "merged_schedule", lambda *args, **kwargs: None)
        return run(config), sum(played)


def _assert_same_trajectory(got, want, tmp_path):
    assert got.theta.tobytes() == want.theta.tobytes()
    assert got.times.tobytes() == want.times.tobytes()
    assert _round_record(got.rounds) == _round_record(want.rounds)
    assert got.rounds.time.tobytes() == want.rounds.time.tobytes()
    assert (got.diverged, got.divergence_round, got.divergence_cause, got.never_served) == (
        want.diverged, want.divergence_round, want.divergence_cause, want.never_served)
    assert np.array_equal(got.weight_matrix(), want.weight_matrix())
    paths = tmp_path / "got.csv", tmp_path / "want.csv"
    write_trajectory_csv(got, paths[0])
    write_trajectory_csv(want, paths[1])
    assert paths[0].read_bytes() == paths[1].read_bytes()


class TestMergedLoop:
    """The round loop over a merged schedule gives the trajectories of the
    same loop over a replayed one, which appends a block of rounds whenever
    the loop reaches the end of the record, bit for bit, and replays no
    round on a fixed-hardware synchronous, asynchronous or FedFix fleet.
    Every other schedule's block replay gives the trajectories of one
    ``advance_round`` call a round."""

    @pytest.mark.parametrize("family", ["quadratic", "noisy_quadratic", "glm"])
    @pytest.mark.parametrize("hw", ["fixed", "exponential"])
    @pytest.mark.parametrize("policy", _POLICIES, ids=lambda p: p.criterion or p.kind.value)
    def test_matches_the_per_round_loop(self, monkeypatch, tmp_path, policy, hw, family):
        fleet = _segment_fleet(family)
        plan = plan_weights(WeightScheme.FEDAVG, fleet.importances, fleet.compute_times, policy)
        cfg = RunConfig(fleet=fleet, policy=policy, plan=plan, hw=HardwareModel(hw), eta_g=0.9, eta_l=0.05,
                        k_steps=2, full_gradient=family == "quadratic", rounds=40, metric_cadence=3,
                        theta0=np.full(fleet.dim, 2.0))
        # a budget of some 20 rounds or more
        budget = 200.5 if policy.kind is PolicyKind.SYNCHRONOUS or policy.is_sampling else 23.5
        horizons = (cfg, replace(cfg, rounds=None, time_budget=budget, metric_cadence=1))
        if hw == "exponential" or policy.kind not in (PolicyKind.SYNCHRONOUS, PolicyKind.ASYNCHRONOUS,
                                                      PolicyKind.FEDFIX):
            # nothing to merge: the block replay against one advance_round call a round
            for config in horizons:
                got, replayed = _counted_run(monkeypatch, config)
                want, _ = _counted_run(monkeypatch, config, per_round=True)
                _assert_same_trajectory(got, want, tmp_path)
                assert replayed == got.n_rounds > 16
            return
        for config in horizons + (replace(cfg, initial_clocks=(0.5, 2, 1.25, 0.3, 4, 1) * 2),):
            got, calls = _counted_run(monkeypatch, config)
            want, looped = _counted_run(monkeypatch, config, merge=False)
            _assert_same_trajectory(got, want, tmp_path)
            assert calls == 0 and looped >= got.n_rounds

    @pytest.mark.parametrize("policy", [ASYNC, WaitPolicy(PolicyKind.FEDFIX, delta_t=0.7)],
                             ids=lambda p: p.kind.value)
    def test_a_staleness_cap_ends_the_run_as_in_the_per_round_loop(self, monkeypatch, tmp_path, policy):
        # the first delivery staler than 2 comes at round 6 (async, client
        # 1) or 7 (FedFix, client 3); at eta_g = 1e5 the member diverges at
        # round 5, and the rounds before the stale one are all kept
        fleet = quadratic_fleet([[0.0], [1.0], [2.0], [3.0]], taus=[1, 1.5, 1, 5])
        plan = plan_weights(WeightScheme.IDENTICAL, fleet.importances, fleet.compute_times, policy)
        cfg = RunConfig(fleet=fleet, policy=policy, plan=plan, eta_l=0.5, full_gradient=True, rounds=60,
                        theta0=np.array([5.0]), tau_max=2)
        raised = []
        for merge in (True, False):
            with pytest.raises(StalenessCapError) as err:
                _counted_run(monkeypatch, cfg, merge=merge)
            raised.append(str(err.value))
        assert raised[0] == raised[1] and f"round {7 if policy.kind is PolicyKind.FEDFIX else 6}" in raised[0]
        unstable = replace(cfg, eta_g=1e5)
        got, _ = _counted_run(monkeypatch, unstable)
        want, _ = _counted_run(monkeypatch, unstable, merge=False)
        assert got.divergence_round == 5 and got.n_rounds == 6
        _assert_same_trajectory(got, want, tmp_path)

    def test_a_replay_stops_one_block_after_every_member_diverges(self, monkeypatch):
        # the member diverges at round 4 of a time budget of some 800,000
        # rounds, inside the replay's first block of 16 rounds
        fleet = quadratic_fleet([[float(i)] for i in range(10)], taus=[1 + 0.5 * i for i in range(10)])
        plan = plan_weights(WeightScheme.IDENTICAL, fleet.importances, fleet.compute_times, ASYNC)
        cfg = RunConfig(fleet=fleet, policy=ASYNC, plan=plan, hw=HardwareModel("exponential"), eta_g=1e5,
                        eta_l=0.5, full_gradient=True, time_budget=2e5, theta0=np.array([5.0]))
        got, calls = _counted_run(monkeypatch, cfg)
        assert got.divergence_round == 4 and got.n_rounds == 5
        assert calls <= max(16, 2 * got.n_rounds)

    def test_a_last_delivering_round_before_empty_rounds(self, monkeypatch, tmp_path):
        # FedFix round 7 serves clients 0 and 1 from rounds 4 and 6, and
        # needs a pass for client 1's run; round 8 serves nobody
        fleet = quadratic_fleet([[0.0], [2.0]], taus=[4, 2], noise_std=0.5)
        policy = WaitPolicy(PolicyKind.FEDFIX, delta_t=1)
        plan = plan_weights(WeightScheme.FEDAVG, fleet.importances, fleet.compute_times, policy)
        cfg = RunConfig(fleet=fleet, policy=policy, plan=plan, eta_l=0.2, rounds=9, theta0=np.array([3.0]))
        got, calls = _counted_run(monkeypatch, cfg)
        want, _ = _counted_run(monkeypatch, cfg, merge=False)
        assert calls == 0 and got.rounds[7].anchors.tolist() == [4, 6] and got.rounds[8].clients.size == 0
        _assert_same_trajectory(got, want, tmp_path)

    def test_ticks_beyond_int64_take_the_per_round_loop(self, monkeypatch, tmp_path):
        fleet = quadratic_fleet([[0.0], [1.0], [3.0]], taus=[2**70, 3 * 2**70, 2**71])
        plan = plan_weights(WeightScheme.FEDAVG, fleet.importances, fleet.compute_times, ASYNC)
        cfg = RunConfig(fleet=fleet, policy=ASYNC, plan=plan, eta_l=0.3, full_gradient=True, rounds=30)
        got, calls = _counted_run(monkeypatch, cfg)
        small, _ = _counted_run(monkeypatch, replace(cfg, fleet=quadratic_fleet([[0.0], [1.0], [3.0]],
                                                                                 taus=[2, 6, 4])))
        assert calls == 30 and got.theta.tobytes() == small.theta.tobytes()
        assert _round_record(got.rounds)[0][1] == 2**70 and got.times[1] == 2.0**70


class TestRoundBookkeeping:
    """The metrics rows and realized weights, read off the rounds' arrays,
    against a loop over each round's participants."""

    @pytest.mark.parametrize("policy", [
        ASYNC,
        WaitPolicy(PolicyKind.FEDFIX, delta_t=0.3),  # has empty rounds
        WaitPolicy(PolicyKind.FEDBUFF, m=2),
        WaitPolicy(PolicyKind.SAMPLE_MD, m=4),       # has repeated clients
    ])
    def test_masks_surrogates_and_weights_match_a_participant_loop(self, policy):
        fleet = quadratic_fleet([[0.0], [1.0], [-2.0], [3.5], [0.25]], taus=[1, 2, 1.5, 3, 0.5],
                                importances=[0.1, 0.3, 0.2, 0.25, 0.15], noise_std=0.3)
        plan = plan_weights(WeightScheme.FEDAVG, fleet.importances, fleet.compute_times, policy)
        traj = run(RunConfig(fleet=fleet, policy=policy, plan=plan, eta_l=0.2, rounds=90,
                             metric_cadence=2, theta0=np.array([4.0])))
        d = plan.d.tolist()
        weights = traj.weight_matrix()
        assert weights.shape == (90, 5)
        for n, outcome in enumerate(traj.rounds):
            row = np.zeros(5)
            for i, mult in zip(outcome.clients.tolist(), outcome.multiplicity.tolist()):
                row[i] = mult * d[i]
            assert np.array_equal(weights[n], row)
        assert any(r.clients.size == 0 for r in traj.rounds) == (policy.kind is PolicyKind.FEDFIX)
        metrics = traj.metrics
        for n, client_losses, participant_mask, loss_surrogate in list(zip(
            metrics.round.tolist(), metrics.client_losses, metrics.participant_mask,
            metrics.loss_surrogate.tolist(),
        ))[:-1]:
            outcome = traj.rounds[n]
            mask, surrogate = 0, 0.0
            for i, mult in zip(outcome.clients.tolist(), outcome.multiplicity.tolist()):
                mask |= 1 << i
                surrogate += mult * d[i] * float(client_losses[i])
            assert participant_mask == mask
            assert loss_surrogate == surrogate
            assert math.copysign(1.0, loss_surrogate) == math.copysign(1.0, surrogate)
        assert metrics.participant_mask[-1] is None


class TestMorePolicies:
    def test_buffered_policy_applies_stale_contributions(self):
        fleet = quadratic_fleet([[0.0], [1.0], [2.0]], taus=[1, 2, 3])
        policy = WaitPolicy(PolicyKind.FEDBUFF, m=2)
        plan = plan_weights(WeightScheme.FEDAVG, fleet.importances, [1, 2, 3], policy)
        cfg = RunConfig(fleet=fleet, policy=policy, plan=plan, eta_l=0.2,
                        full_gradient=True, rounds=8)
        traj = run(cfg)
        staleness = [s for out in traj.rounds for s in out.staleness.tolist()]
        assert max(staleness) >= 1  # the slow client lands late
        assert all(out.clients.size >= 2 for out in traj.rounds)

    def test_loss_driven_sampling_targets_the_worst_client(self, monkeypatch):
        def refuse(self, theta):
            raise AssertionError("losses must come from the batched values()")

        monkeypatch.setattr(QuadraticObjective, "value", refuse)
        fleet = quadratic_fleet([[0.0], [10.0]], taus=[1, 1])
        policy = WaitPolicy(PolicyKind.SAMPLE_BIASED, m=1, criterion="highest_loss")
        plan = plan_weights(WeightScheme.IDENTICAL, fleet.importances, [1, 1], policy)
        # small steps keep the model on client 0's side of the midpoint, so
        # the distant client always has the larger loss and is always picked
        cfg = RunConfig(fleet=fleet, policy=policy, plan=plan, eta_l=0.1,
                        full_gradient=True, rounds=5, theta0=np.array([0.0]))
        traj = run(cfg)
        assert all(out.clients.tolist() == [1] for out in traj.rounds)
        assert traj.never_served == 1


def _reference_trajectory_csv(traj, path):
    """The trajectory writer as it was before row templates: csv.writer with
    one formatted string per cell."""

    def fmt(x):
        return f"{x:.17g}"

    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(trajectory_header(len(traj.d)))
        m = traj.metrics
        for n, wall_time, mask, loss_fed, loss_surrogate, dist_sq, client_losses in zip(
            m.round.tolist(), m.wall_time.tolist(), m.participant_mask, m.loss_fed.tolist(),
            m.loss_surrogate.tolist(), m.dist_sq.tolist(), m.client_losses,
        ):
            writer.writerow(
                [
                    n,
                    fmt(wall_time),
                    "" if mask is None else mask,
                    fmt(loss_fed),
                    "" if math.isnan(loss_surrogate) else fmt(loss_surrogate),
                    fmt(dist_sq),
                ]
                + [fmt(v) for v in client_losses.tolist()]
            )


def _logistic_reference(obj, theta):
    """The mean logistic loss of the one-row table ``obj`` at ``theta``."""
    z = obj.features[0] @ theta
    yz = np.where(obj.targets[0] > 0.5, z, -z)
    return float(np.mean(np.logaddexp(0.0, -yz)))
