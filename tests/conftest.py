import os

import numpy as np
import pytest
from hypothesis import settings

from asyncfed.core import Fleet, uniform_importances
from asyncfed.objectives import QuadraticObjective
from asyncfed.timing import HardwareModel, advance_round, init_fleet_state

# CI (GitHub Actions sets CI) prints the @reproduce_failure line of any
# counterexample, so a rare mismatch found on one matrix leg can be replayed
settings.register_profile("ci", print_blob=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")


def quadratic_fleet(optima, taus=None, importances=None, curvature=0.5, noise_std=0.0,
                    distribution_ids=None):
    """Fleet of scalar (or vector) quadratics with squared-distance losses."""
    n = len(optima)
    table = QuadraticObjective.from_optima(optima, curvature, noise_std)
    return Fleet([(np.arange(n), table)], taus or [1] * n, importances or uniform_importances(n), distribution_ids)


def client_row(fleet, i):
    """Client ``i``'s objective: the one-row table of its row."""
    return fleet.tables[fleet.table_of[i]][1].row(fleet.row_of[i])


def fixed_schedule(taus, policy, n_rounds, initial_clocks=None):
    """The first ``n_rounds`` round outcomes of ``policy`` on fixed hardware."""
    hw = HardwareModel("fixed")
    state = init_fleet_state(taus, hw, initial_clocks=initial_clocks, policy=policy)
    return [advance_round(state, policy, list(taus), hw) for _ in range(n_rounds)]


def round_durations(policy, taus, n_rounds, seed):
    """Durations of ``n_rounds`` rounds on exponential hardware, with one
    generator seeded by ``seed`` behind the clocks and the sampling."""
    hw = HardwareModel("exponential")
    rng = np.random.default_rng(seed)
    state = init_fleet_state(taus, hw, rng, policy=policy)
    return np.array([
        advance_round(state, policy, taus, hw, hw_rng=rng, sample_rng=rng).delta_t
        for _ in range(n_rounds)
    ])


@pytest.fixture
def two_client_fleet():
    return quadratic_fleet([[0.0], [2.0]], taus=[1, 2], importances=[0.5, 0.5])
