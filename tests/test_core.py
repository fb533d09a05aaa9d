import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asyncfed.core import (
    ClientSpec,
    ConfigurationError,
    Fleet,
    convergence_residual,
    distribution_weights,
    federated_loss,
    weighted_optimum,
)
from asyncfed.objectives import GlmObjective, QuadraticObjective

from conftest import quadratic_fleet


class TestFederatedLoss:
    def test_two_quadratics_midpoint(self, two_client_fleet):
        assert federated_loss([1.0], two_client_fleet) == pytest.approx(0.5, abs=1e-15)

    def test_single_client_at_its_optimum(self):
        fleet = quadratic_fleet([[3.0]], importances=[1.0])
        obj = fleet.objectives[0]
        assert federated_loss([3.0], fleet) == pytest.approx(obj.value([3.0]), abs=0)

    def test_matches_hand_summation_on_random_fleets(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            optima = rng.normal(size=(3, 2))
            p = rng.dirichlet(np.ones(3)).tolist()
            fleet = quadratic_fleet([o.tolist() for o in optima], importances=p)
            theta = rng.normal(size=2)
            by_hand = 0.0
            for client in fleet.clients:
                by_hand += client.importance * fleet.objective_for(client).value(theta)
            assert federated_loss(theta, fleet) == pytest.approx(by_hand, abs=1e-12)

    def test_dimension_mismatch_rejected(self, two_client_fleet):
        with pytest.raises(ConfigurationError):
            federated_loss([1.0, 2.0], two_client_fleet)


class TestConvergenceResidual:
    def test_identical_clients_full_gradient_is_exactly_zero(self):
        fleet = quadratic_fleet([[1.5], [1.5], [1.5]])
        est = convergence_residual(fleet, fleet.importances, [1.5], n_draws=10)
        assert est.value == 0.0
        assert est.stderr == 0.0

    def test_single_client_at_optimum(self):
        fleet = quadratic_fleet([[4.0]], importances=[1.0])
        est = convergence_residual(fleet, [1.0], [4.0], n_draws=5)
        assert est.value == 0.0

    def test_two_quadratics_hand_value(self, two_client_fleet):
        # gradients at the midpoint have unit squared norm for both clients
        est = convergence_residual(two_client_fleet, [0.5, 0.5], [1.0], n_draws=3)
        assert est.value == pytest.approx(1.0, abs=1e-15)

    def test_zero_draws_rejected(self, two_client_fleet):
        with pytest.raises(ConfigurationError):
            convergence_residual(two_client_fleet, [0.5, 0.5], [1.0], n_draws=0)


class TestDistributionWeights:
    def test_single_distribution(self):
        fleet = quadratic_fleet([[0.0], [1.0]], distribution_ids=[0, 0])
        out = distribution_weights(fleet, [0.2, 0.2])
        assert out.importance.tolist() == [1.0]
        assert out.expected_normalized.tolist() == [1.0]

    def test_paired_distributions_importance(self):
        fleet = quadratic_fleet([[0.0]] * 4, distribution_ids=[0, 0, 1, 1])
        out = distribution_weights(fleet, [0.25] * 4)
        assert out.importance.tolist() == [0.5, 0.5]

    def test_alternating_round_weights_normalize_evenly(self):
        fleet = quadratic_fleet([[0.0]] * 4, distribution_ids=[0, 0, 1, 1])
        out = distribution_weights(fleet, [0.5, 0.0, 0.5, 0.0])
        assert out.expected_normalized.tolist() == [0.5, 0.5]

    def test_importance_sums_to_one_and_dominates_members(self):
        rng = np.random.default_rng(3)
        p = rng.dirichlet(np.ones(5)).tolist()
        fleet = quadratic_fleet([[0.0]] * 5, importances=p, distribution_ids=[0, 1, 0, 2, 1])
        out = distribution_weights(fleet, p)
        assert math.fsum(out.importance.tolist()) == pytest.approx(1.0, abs=1e-12)
        for j, dist in enumerate(out.ids):
            members = [c.importance for c in fleet.clients if c.distribution_id == dist]
            assert out.importance[j] >= max(members) - 1e-15


class TestConvexityAlongSegments:
    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_quadratic_fleet_midpoint_bound(self, seed):
        rng = np.random.default_rng(seed)
        fleet = quadratic_fleet([rng.normal(size=2).tolist() for _ in range(3)])
        a, b = rng.normal(size=2), rng.normal(size=2)
        mid = federated_loss((a + b) / 2, fleet)
        assert mid <= 0.5 * federated_loss(a, fleet) + 0.5 * federated_loss(b, fleet) + 1e-12

    def test_logistic_fleet_midpoint_bound(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(20, 3))
        y = (rng.random(20) < 0.5).astype(float)
        obj = GlmObjective(x, y, "logistic", batch_size=4)
        fleet = Fleet([ClientSpec(0, 1.0, 1, 0)], [obj])
        for _ in range(20):
            a, b = rng.normal(size=3), rng.normal(size=3)
            mid = federated_loss((a + b) / 2, fleet)
            assert mid <= 0.5 * federated_loss(a, fleet) + 0.5 * federated_loss(b, fleet) + 1e-12


class TestWeightedOptimum:
    def test_quadratic_closed_form(self):
        fleet = quadratic_fleet([[0.0], [2.0]], importances=[0.25, 0.75])
        assert weighted_optimum(fleet)[0] == pytest.approx(1.5, abs=1e-14)

    def test_gradient_descent_reaches_stationarity(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(40, 3))
        logits = x @ np.array([1.0, -0.5, 0.2])
        y = (rng.random(40) < 1 / (1 + np.exp(-logits))).astype(float)
        obj = GlmObjective(x, y, "logistic", batch_size=4)
        fleet = Fleet([ClientSpec(0, 1.0, 1, 0)], [obj])
        opt = weighted_optimum(fleet)
        assert np.linalg.norm(obj.gradient(opt)) < 1e-10


class TestFleetValidation:
    def test_importances_must_sum_to_one(self):
        objs = [QuadraticObjective.from_optimum([0.0])] * 2
        clients = [ClientSpec(0, 0.5, 1, 0), ClientSpec(1, 0.6, 1, 1)]
        with pytest.raises(ConfigurationError):
            Fleet(clients, objs)

    def test_unresolvable_objective_ref(self):
        objs = [QuadraticObjective.from_optimum([0.0])]
        with pytest.raises(ConfigurationError):
            Fleet([ClientSpec(0, 1.0, 1, 3)], objs)

    def test_nonpositive_compute_time(self):
        with pytest.raises(ConfigurationError):
            ClientSpec(0, 1.0, 0, 0)

    def test_importances_are_one_shared_read_only_array(self, two_client_fleet):
        p = two_client_fleet.importances
        assert p is two_client_fleet.importances
        assert p.tolist() == [0.5, 0.5]
        with pytest.raises(ValueError):
            p[0] = 1.0
