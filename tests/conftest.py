import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import settings

from asyncfed import engine
from asyncfed.core import Fleet, uniform_importances
from asyncfed.engine import Metrics
from asyncfed.objectives import GlmObjective, QuadraticObjective
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
    return Fleet(table, taus or [1] * n, importances or uniform_importances(n), distribution_ids)


def table_row(table, i: int):
    """Row ``i`` of an objective table as a one-row table of its family,
    built by the family's constructor from the row's slices."""
    if isinstance(table, QuadraticObjective):
        return QuadraticObjective(table.a[i:i + 1], table.b[i:i + 1], table.c[i:i + 1], table.noise_std[i:i + 1])
    return GlmObjective(table.features[i:i + 1], table.targets[i:i + 1], table.link, table.batch_size)


def with_seeds(config, member_seeds) -> list:
    """One member config per entry of ``member_seeds``: ``config`` with those seeds."""
    return [replace(config, seeds=seeds) for seeds in member_seeds]


def bits(x) -> bytes:
    """The bytes of an array: unlike ``array_equal``, this tells -0.0 from +0.0."""
    return np.ascontiguousarray(x).tobytes()


def trajectory_metrics(traj) -> Metrics:
    """Every metrics row of ``traj`` as one :class:`Metrics`: the row blocks
    the CSV writer computes, joined, their client losses in one (rows, M)
    matrix."""
    blocks, losses = [], []
    for block in engine._metric_blocks(traj):
        blocks.append(block)
        losses.append(block.client_losses.copy())  # the next block reuses its buffer
    return Metrics(
        np.concatenate([b.round for b in blocks]),
        np.concatenate([b.wall_time for b in blocks]),
        [mask for b in blocks for mask in b.participant_mask],
        np.concatenate([b.loss_fed for b in blocks]),
        np.concatenate([b.loss_surrogate for b in blocks]),
        np.concatenate([b.dist_sq for b in blocks]),
        np.concatenate(losses),
    )


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


class BatchStream:
    """Without-replacement minibatch indices, reshuffled every epoch: one
    member's batch source of a client as local SGD drew from it before the
    draw tables, kept as their reference."""

    def __init__(self, n_samples: int, batch_size: int, rng: np.random.Generator):
        self.n_samples, self.batch_size, self._rng = n_samples, batch_size, rng
        self._order = rng.permutation(n_samples)
        self._cursor = 0

    def next(self) -> np.ndarray:
        if self._cursor + self.batch_size > self.n_samples:
            self._order = self._rng.permutation(self.n_samples)
            self._cursor = 0
        batch = self._order[self._cursor:self._cursor + self.batch_size]
        self._cursor += self.batch_size
        return batch


def reference_draws(table, rows, k_steps, sources):
    """``local_sgd``'s (K, P, R, width) draws as the per-member path made
    them: ``sources[p][r]`` is job p's member r's source. A batch stream
    gives K ``next()`` batches, as flat indices into the table; a generator
    on a noisy quadratic row gives one ``standard_normal((K, dim))``, and a
    noiseless row reads zeros and draws nothing."""
    jobs = []
    for row, members in zip(rows, sources):
        if isinstance(table, QuadraticObjective):
            noisy = table.noise_std[row] > 0.0
            runs = [rng.standard_normal((k_steps, table.dim)) if noisy else np.zeros((k_steps, table.dim))
                    for rng in members]
        else:
            runs = [np.array([s.next() for _ in range(k_steps)]) + row * table.n_samples for s in members]
        jobs.append(np.stack(runs, axis=1))
    return np.stack(jobs, axis=1)


@pytest.fixture
def two_client_fleet():
    return quadratic_fleet([[0.0], [2.0]], taus=[1, 2], importances=[0.5, 0.5])
