"""Acceptance suite: one test per exit criterion, each printing a PASS line
with its measured margin. Tolerances are fixed here, not tuned at runtime.
"""

import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from asyncfed import engine
from asyncfed.bounds import BoundInputs, epsilon_terms, fill_inputs, lr_constraint, scheme_presets
from asyncfed.core import Fleet
from asyncfed.engine import (
    RunConfig,
    Seeds,
    run,
    run_scalar_ensemble,
)
from asyncfed.cli import sweep_rows
from asyncfed.objectives import GlmObjective, QuadraticObjective, SyntheticShardConfig, make_synthetic_shards
from asyncfed.oracle import OracleState, expectation_recursion, expected_round_time, phi, variance_recursion
from asyncfed.timing import PolicyKind, WaitPolicy
from asyncfed.weights import WeightScheme, plan_weights, verify_window_assumption, window_stats

from conftest import quadratic_fleet, round_durations, trajectory_metrics


def report(number: int, message: str) -> None:
    print(f"[acceptance] criterion {number:2d}: PASS  {message}")


class TestCriterion1SynchronousContraction:
    def test_gap_follows_the_closed_form(self):
        fleet = quadratic_fleet([[0.0, 1.0], [2.0, -1.0], [4.0, 3.0]], taus=[1, 2, 3])
        d = plan_weights(
            WeightScheme.FEDAVG, fleet.importances, fleet.compute_times,
            WaitPolicy(PolicyKind.SYNCHRONOUS),
        )
        # contraction slow enough that the predicted gap stays well inside
        # double-precision range over all 100 rounds
        cfg = RunConfig(
            fleet=fleet, policy=WaitPolicy(PolicyKind.SYNCHRONOUS), d=d,
            eta_g=1.0, eta_l=0.05, k_steps=2, full_gradient=True, rounds=100,
            theta0=np.array([10.0, -7.0]),
        )
        started = time.perf_counter()
        traj = run(cfg)
        elapsed = time.perf_counter() - started

        contraction = 1.0 - phi(0.05, 2)
        gaps = np.linalg.norm(traj.theta - traj.optimum, axis=1)
        worst = 0.0
        for n in range(101):
            expected = gaps[0] * contraction ** n
            worst = max(worst, abs(gaps[n] - expected) / expected)
        assert worst < 1e-10
        assert elapsed < 1.0
        report(1, f"max relative gap error {worst:.2e} over 100 rounds in {elapsed:.3f}s")


class TestCriterion2AlternatingPairsRecursion:
    def test_second_order_recursion_and_convergence(self):
        # two data types with optima 0 and 2, two clients per type, pairs
        # alternating rounds; every round sees both types with weight 1/2
        fleet = quadratic_fleet(
            [[0.0], [0.0], [2.0], [2.0]], taus=[2, 2, 2, 2],
            distribution_ids=[0, 0, 1, 1],
        )
        policy = WaitPolicy(PolicyKind.FEDFIX, delta_t=1)
        d = plan_weights(
            WeightScheme.FEDFIX_TIME_BASED, fleet.importances, fleet.compute_times, policy
        )
        assert d.tolist() == [0.5, 0.5, 0.5, 0.5]
        cfg = RunConfig(
            fleet=fleet, policy=policy, d=d, eta_g=1.0, eta_l=0.5, k_steps=1,
            full_gradient=True, rounds=502, theta0=np.array([5.0]),
            initial_clocks=(2, 1, 2, 1),
        )
        traj = run(cfg)
        pattern = [out.clients.tolist() for out in traj.rounds[:4]]
        assert pattern == [[1, 3], [0, 2], [1, 3], [0, 2]]

        theta = traj.theta[:, 0]
        contraction = phi(0.5, 1)
        residuals = np.abs(theta[2:] - theta[1:-1] + contraction * theta[:-2] - contraction * 1.0)
        assert residuals.max() < 1e-10
        assert abs(theta[500] - 1.0) < 1e-8
        report(
            2,
            f"recursion residual max {residuals.max():.2e}, "
            f"|theta_500 - optimum| = {abs(theta[500] - 1.0):.2e}",
        )


class TestCriterion3AlternatingBiasAndRepair:
    @staticmethod
    def _run_alternating(custom_d=None, scheme=WeightScheme.CUSTOM):
        fleet = quadratic_fleet([[0.0], [2.0]], taus=[2, 2], distribution_ids=[0, 1])
        policy = WaitPolicy(PolicyKind.FEDFIX, delta_t=1)
        d = plan_weights(
            scheme, fleet.importances, fleet.compute_times, policy, custom_d=custom_d
        )
        cfg = RunConfig(
            fleet=fleet, policy=policy, d=d, eta_g=1.0, eta_l=0.5, k_steps=1,
            full_gradient=True, rounds=502, theta0=np.array([5.0]),
            initial_clocks=(1, 2),
        )
        return d, run(cfg)

    @staticmethod
    def _cycle_average(traj, d, at_round):
        # single-participant rounds oscillate on a two-cycle; the d-weighted
        # average of the anchor models over one full cycle telescopes to the
        # weighted-optima limit and converges geometrically
        total, mass = 0.0, 0.0
        for k in (at_round, at_round + 1):
            (client,) = traj.rounds[k].clients
            (anchor,) = traj.rounds[k].anchors
            weight = d[client]
            total += weight * traj.theta[anchor, 0]
            mass += weight
        return total / mass

    def test_biased_weights_settle_on_the_weighted_combination(self):
        d, traj = self._run_alternating(custom_d=[0.3, 0.6])
        limit = (0.3 * 0.0 + 0.6 * 2.0) / 0.9
        value = self._cycle_average(traj, d, 498)
        assert abs(value - limit) < 1e-8
        report(3, f"biased limit error {abs(value - limit):.2e} (window-averaged)")

    def test_window_fair_weights_repair_the_bias(self):
        d, traj = self._run_alternating(scheme=WeightScheme.FEDFIX_TIME_BASED)
        assert d.tolist() == [1.0, 1.0]
        # the fleet, policy and window of _run_alternating
        _, q_over_window = window_stats(WeightScheme.FEDFIX_TIME_BASED, [0.5, 0.5], [2, 2],
                                        WaitPolicy(PolicyKind.FEDFIX, delta_t=1))
        q_tilde = q_over_window / q_over_window.sum()
        assert np.allclose(q_tilde, [0.5, 0.5], atol=1e-15)
        value = self._cycle_average(traj, d, 498)
        assert abs(value - 1.0) < 1e-8
        report(3, f"repaired limit error {abs(value - 1.0):.2e} (window-averaged)")


class TestCriterion4UniformSamplingFixedPoint:
    def test_recursion_fixed_point_meets_monte_carlo(self):
        started = time.perf_counter()
        state = OracleState("sync_uniform", 0.5, (1.0, 1.0), (0.0, 2.0), 1.0, m=1)
        second = variance_recursion(state, 40)
        assert abs(second[-1] - 1 / 3) < 1e-12

        mc = run_scalar_ensemble(state, (40,), 10_000, 11)
        assert mc.rounds.tolist() == [0, 40]
        gap = abs(mc.second_moment[-1] - second[40])
        assert gap <= 3 * mc.se_second_moment[-1]
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0
        report(4, f"fixed point 1/3, MC gap {gap:.1e} <= 3se={3 * mc.se_second_moment[-1]:.1e}, {elapsed:.2f}s")


class TestCriterion5AsyncExpectation:
    STATE = OracleState("async", 0.5, (1.0, 1.0), (0.0, 2.0), 0.0)

    def _ensemble(self):
        mc = run_scalar_ensemble(self.STATE, (1, 5, 20), 100_000, 0)
        assert mc.rounds.tolist() == [0, 1, 5, 20]
        return mc

    def test_mean_recursion_meets_the_ensemble(self):
        oracle_mean = expectation_recursion(self.STATE, 20)
        mc = self._ensemble()
        worst_z = 0.0
        for i, n in enumerate((1, 5, 20), start=1):
            z = abs(mc.mean[i] - oracle_mean[n]) / mc.se_mean[i]
            worst_z = max(worst_z, z)
            assert z <= 3.0
        report(5, f"ensemble mean within {worst_z:.2f} standard errors at n in {{1,5,20}}")

    def test_second_moment_recursion_is_exact_and_meets_the_ensemble(self):
        # the exact rationals of the jump-linear recursion (M=2, phi=1/2)
        second = variance_recursion(self.STATE, 20)
        assert abs(second[5] - 2945 / 8192) <= 1e-12
        assert abs(second[20] - 0.3333673254759739) <= 1e-12
        mc = self._ensemble()
        worst_z = 0.0
        for i, n in enumerate((1, 5, 20), start=1):
            z = abs(mc.second_moment[i] - second[n]) / mc.se_second_moment[i]
            worst_z = max(worst_z, z)
            assert z <= 3.0
        report(5, f"ensemble second moment within {worst_z:.2f} standard errors at n in {{1,5,20}}")


class TestCriterion6ExpectedRoundTimes:
    def test_harmonic_sum_formulas(self):
        checks = [
            ("sync", WaitPolicy(PolicyKind.SYNCHRONOUS), [1.0] * 3, 3, None),
            ("sync_uniform", WaitPolicy(PolicyKind.SAMPLE_UNIFORM, m=2), [1.0] * 5, 5, 2),
            ("async", WaitPolicy(PolicyKind.ASYNCHRONOUS), [1.0] * 4, 4, None),
        ]
        margins = []
        for scheme, policy, taus, m_clients, m in checks:
            times = round_durations(policy, taus, 100_000, seed=29)
            se = times.std(ddof=1) / math.sqrt(times.size)
            state = OracleState(scheme, 0.5, (1.0,) * m_clients, (0.0,) * m_clients, 0.0, m=m)
            target = expected_round_time(state, 1.0)
            gap = abs(times.mean() - target)
            assert gap <= 3 * se
            margins.append(f"{scheme}:{gap / se:.2f}se")
        report(6, "empirical round times at " + ", ".join(margins))


class TestCriterion7WindowCloseForms:
    def test_time_based_weights_average_to_importances(self):
        rng = np.random.default_rng(1234)
        policy = WaitPolicy(PolicyKind.ASYNCHRONOUS)
        fleets = 0
        while fleets < 20:
            m = int(rng.integers(2, 7))
            taus = [int(t) for t in rng.integers(1, 13, size=m)]
            if len(set(taus)) == 1:
                continue  # identical hardware makes unit weights fair too
            p = [1.0 / m] * m
            window, _ = window_stats(WeightScheme.ASYNC_TIME_BASED, p, taus, policy)
            if window > 3000:
                continue  # keeps the schedule replay fast; the identity is exact regardless
            d = plan_weights(WeightScheme.ASYNC_TIME_BASED, p, taus, policy)
            fleet = quadratic_fleet([[float(i)] for i in range(m)], taus=taus, importances=p)
            cfg = RunConfig(fleet=fleet, policy=policy, d=d, eta_l=0.01,
                            full_gradient=True, rounds=2 * window)
            q = run(cfg).weight_matrix()
            assert q.shape == (2 * window, m)
            good = verify_window_assumption(q, window, p, tol=1e-12)
            assert good.satisfied, (taus, good.max_deviation)

            identical = plan_weights(WeightScheme.IDENTICAL, p, taus, policy)
            q_id = run(replace(cfg, d=identical)).weight_matrix()
            bad = verify_window_assumption(q_id, window, p, tol=1e-12)
            assert not bad.satisfied, taus
            fleets += 1
        report(7, "20 random fleets: time-based exact to 1e-12, unit weights rejected")


class TestCriterion8HeterogeneousLogisticTrend:
    def test_time_based_beats_identical_weights(self):
        started = time.perf_counter()
        m_clients = 10
        rng = np.random.default_rng(2025)
        taus = np.round(1.0 + 0.8 * rng.random(m_clients), 3).tolist()  # up to 80% slower
        shards = make_synthetic_shards(
            SyntheticShardConfig(n_clients=m_clients, dim=5, samples_per_client=64,
                                 concentration=0.1, seed=1, batch_size=8)
        )
        fleet = Fleet(shards, taus, [1 / m_clients] * m_clients)
        policy = WaitPolicy(PolicyKind.ASYNCHRONOUS)

        def final_losses(scheme):
            d = plan_weights(scheme, fleet.importances, fleet.compute_times, policy)
            out = []
            for seed in range(5):
                cfg = RunConfig(
                    fleet=fleet, policy=policy, d=d, eta_g=1.0, eta_l=0.02,
                    k_steps=5, time_budget=120.0, seeds=Seeds((0,), (seed,), (2,)),
                )
                out.append(engine._tail_stats(trajectory_metrics(run(cfg)).loss_fed)[0])
            return out

        time_based = final_losses(WeightScheme.ASYNC_TIME_BASED)
        identical = final_losses(WeightScheme.IDENTICAL)
        elapsed = time.perf_counter() - started
        assert float(np.mean(time_based)) < float(np.mean(identical))
        assert elapsed < 300.0
        report(
            8,
            f"time-based {np.mean(time_based):.5f} < identical {np.mean(identical):.5f} "
            f"(gap {np.mean(identical) - np.mean(time_based):.1e}, {elapsed:.1f}s, 5 seeds)",
        )


class TestCriterion9LocalWorkSweep:
    def test_u_shape_with_growing_spread(self):
        document = {
            "schema_version": 1,
            "fleet": {
                "compute_times": [1, 2, 3, 4, 5],
                "objective": {
                    "family": "quadratic",
                    "optima": [-8.0, -4.0, 0.0, 4.0, 8.0],
                    "noise_std": 1.0,
                },
            },
            "scheme": {"policy": "asynchronous", "weights": "async_time_based"},
            "optimization": {"eta_g": 1.0, "eta_l": 0.006, "k_steps": 1, "theta0": 16.0},
            "horizon": {"time": 50.0},
            "ensemble": {"n_seeds": 10, "base_seed": 0},
        }
        rows = sweep_rows(document, "k_steps", [1, 2, 4, 8, 16, 25])
        means = [row["loss_mean"] for row in rows]
        stds = [row["loss_std"] for row in rows]
        argmin = int(np.argmin(means))
        assert 0 < argmin < len(means) - 1
        for i in range(argmin):
            assert means[i] > means[i + 1]
        for i in range(argmin, len(means) - 1):
            assert means[i] < means[i + 1]
        for i in range(argmin, len(stds) - 1):
            assert stds[i] <= stds[i + 1] + 1e-12
        report(
            9,
            f"loss argmin at K={[1, 2, 4, 8, 16, 25][argmin]}, "
            f"means {np.round(means, 3).tolist()}, stds nondecreasing beyond",
        )


class TestCriterion10BoundEvaluator:
    def test_monotonicity_ordering_and_spot_values(self):
        base = BoundInputs(
            n_clients=4, k_steps=4, n_rounds=200, eta_g=1.0, eta_l=0.05,
            smoothness=1.0, tau=1, window=2, alpha=0.5, beta=0.5,
            sigma=1.0, sigma1=1.0, residual=0.5, init_gap_sq=4.0,
        )
        total = epsilon_terms(base).total
        for field_name in ("tau", "window", "alpha", "beta"):
            bumped = replace(base, **{field_name: getattr(base, field_name) * 2})
            assert epsilon_terms(bumped).total >= total

        for taus in ([1, 2], [1, 2, 4], [2, 3, 6]):
            fleet = quadratic_fleet([[float(2 * i)] for i in range(len(taus))], taus=taus)
            policy = WaitPolicy(PolicyKind.FEDFIX, delta_t=min(taus))
            shared = replace(base, n_clients=len(taus))
            totals = [
                epsilon_terms(fill_inputs(scheme_presets(name, fleet, policy, 10.0), shared)).total
                for name in ("sync", "fedfix", "async")
            ]
            assert totals[0] <= totals[1] <= totals[2]

        assert lr_constraint(1, 1.0, 1.0, 1.0, 0) == pytest.approx(1 / 144, abs=1e-18)
        report(10, "monotone totals, sync <= fedfix <= async, lr spot 1/144")


class TestCriterion11GradientCorrectness:
    def test_finite_differences_and_full_enumeration(self):
        rng = np.random.default_rng(99)

        def finite_difference(obj, theta, h=1e-6):
            grad = np.empty_like(theta)
            for j in range(theta.shape[0]):
                e = np.zeros_like(theta)
                e[j] = h
                grad[j] = (obj.value(theta + e)[0] - obj.value(theta - e)[0]) / (2 * h)
            return grad

        worst = 0.0
        for _ in range(100):
            quad = QuadraticObjective(
                [rng.uniform(0.1, 2.0, 4)], [rng.normal(size=4)], float(rng.normal())
            )
            x = rng.normal(size=(10, 4))
            y = (rng.random(10) < 0.5).astype(float)
            logistic = GlmObjective([x], [y], "logistic", batch_size=2)
            for obj in (quad, logistic):
                theta = rng.normal(size=4)
                analytic = obj.gradients(theta)[0]
                numeric = finite_difference(obj, theta)
                rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(analytic), 1e-8)
                worst = max(worst, rel)
                assert rel < 1e-5

        x = rng.normal(size=(8, 3))
        y = (rng.random(8) < 0.5).astype(float)
        obj = GlmObjective([x], [y], "logistic", batch_size=2)
        theta = rng.normal(size=3)
        batches = [list(b) for b in itertools.combinations(range(8), 2)]
        assert len(batches) == 28
        # a minibatch gradient is the full gradient of the batch's samples
        enumeration_mean = GlmObjective(x[batches], y[batches], "logistic", batch_size=2).gradients(theta).mean(axis=0)
        gap = np.max(np.abs(enumeration_mean - obj.gradients(theta)[0]))
        assert gap < 1e-12
        report(11, f"FD relative error max {worst:.1e} over 200 probes; enumeration gap {gap:.1e}")
