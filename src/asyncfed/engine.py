"""Simulation loop: timing, local work, and weighted aggregation of delayed
contributions, with trajectory recording and ensemble statistics.

One loop advances the rounds. Ensemble members that share one schedule step
through it together as one (R, dim) model; each member keeps its own seed
material, so results do not depend on how members are grouped.

Local work runs when its result is first needed. A client's run is fixed
once the model it trains from (its anchor) exists, so when a round's
participant has no computed run, the loop computes every pending run in one
pass: each client in flight whose anchor model exists and whose run is not
yet computed, as one stacked :func:`~asyncfed.objectives.local_sgd` call
per objective table. The results wait in a per-client buffer until the
client delivers. Each client draws from its own batch stream or noise
generator in dispatch order, so the trajectory is the one that computing
each run at its delivery gives. A run still in flight at the horizon may
have drawn from its client's stream, but it is never delivered: its result,
and any overflow in it, is dropped.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import ConfigurationError, Fleet, StalenessCapError, sum_in_order, weighted_optimum
from .objectives import BatchStream, GlmObjective, local_sgd
from .textfmt import BLOCK_CELLS, format_rows
from .timing import HardwareModel, PolicyKind, Round, WaitPolicy, advance_round, init_fleet_state
from .weights import WeightPlan

DIVERGENCE_THRESHOLD = 1e12
MAX_K_STEPS = 10_000  # local steps per run
# members per sweep value: run_members holds (rounds + 1, R, dim) models and
# seeds one generator per member and noisy client (~1.2 KB and ~20 us each)
MAX_ENSEMBLE_SEEDS = 10_000
# n_runs x M of a scalar ensemble: its (n_runs, M) held-anchor buffer is
# 128 MiB at the cap, and a window round draws an array and a mask that size;
# the asynchronous rounds add an (ASYNC_CHUNK_ROUNDS, n_runs) buffer of client
# indices, one byte each up to M = 256 (8 rounds: one float64 member vector)
MAX_HELD_ANCHORS = 1 << 24
# the asynchronous scalar ensemble runs its members in blocks of this many
# (640 KiB of held anchors at M = 10, so a block stays in a 2 MiB L2 cache
# across a chunk of rounds), ASYNC_CHUNK_ROUNDS rounds per pass over them;
# a block sized in bytes instead would shrink to a few hundred members at
# M >= 300, where per-call overhead outweighs the cache
ENSEMBLE_BLOCK_MEMBERS = 8192
ASYNC_CHUNK_ROUNDS = 8
_LOCAL_FLOATS = 1 << 20  # bound on the floats one local_sgd call holds: iterates and gathered samples
CSV_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Seeds:
    """Independent seed material for the three randomness sources."""

    hardware: int | tuple = 0
    batching: int | tuple = 1
    sampling: int | tuple = 2

    @classmethod
    def override(cls, seed: int) -> Seeds:
        """The seed material one integer (``--seed``) stands for."""
        if seed < 0:
            raise ConfigurationError(f"seed must be a nonnegative integer, got {seed}")
        return cls((seed, 0), (seed, 1), (seed, 2))


@dataclass(frozen=True)
class RunConfig:
    fleet: Fleet
    policy: WaitPolicy
    plan: WeightPlan
    hw: HardwareModel = HardwareModel("fixed")
    eta_g: float = 1.0
    eta_l: float = 0.1
    k_steps: int = 1
    full_gradient: bool = False
    batch_size: int | None = None       # overrides each shard's own batch size
    rounds: int | None = None
    time_budget: float | None = None
    theta0: np.ndarray | None = None
    seeds: Seeds = Seeds()
    metric_cadence: int = 1
    tau_max: int | None = None
    initial_clocks: tuple | None = None

    def __post_init__(self):
        if (self.rounds is None) == (self.time_budget is None):
            raise ConfigurationError("set exactly one horizon: rounds or time_budget")
        if self.rounds is not None and self.rounds < 1:
            raise ConfigurationError("rounds horizon must be positive")
        if self.time_budget is not None and self.time_budget <= 0:
            raise ConfigurationError("time budget must be positive")
        if self.eta_g < 0 or self.eta_l < 0:
            raise ConfigurationError("learning rates must be nonnegative")
        if not 1 <= self.k_steps <= MAX_K_STEPS:
            raise ConfigurationError(f"k_steps must lie in [1, {MAX_K_STEPS}]")
        if len(self.plan.d) != len(self.fleet):
            raise ConfigurationError("weight plan does not match the fleet size")
        if self.metric_cadence < 1:
            raise ConfigurationError("metric cadence must be positive")
        if self.policy.kind is PolicyKind.FEDBUFF and self.policy.m > len(self.fleet):
            raise ConfigurationError("fedbuff m exceeds the fleet size")

    def resolved_theta0(self) -> np.ndarray:
        if self.theta0 is None:
            return np.zeros(self.fleet.dim)
        theta = np.atleast_1d(np.asarray(self.theta0, dtype=float))
        if theta.shape != (self.fleet.dim,):
            raise ConfigurationError("theta0 dimension does not match the fleet")
        return theta


@dataclass(frozen=True)
class MetricsRow:
    round: int
    wall_time: float
    participant_mask: int | None
    loss_fed: float
    loss_surrogate: float
    dist_sq: float
    client_losses: np.ndarray       # read-only row of the run's (rows, M) loss matrix


@dataclass
class Trajectory:
    """Global models over rounds with per-round bookkeeping."""

    theta: np.ndarray               # (n_models, dim)
    times: np.ndarray               # (n_models,)
    rounds: list[Round]             # one per completed round
    metrics: list[MetricsRow]
    optimum: np.ndarray
    diverged: bool = False
    divergence_round: int | None = None
    divergence_cause: str | None = None   # "overflow" (local work) or "threshold"
    never_served: int = 0
    d: np.ndarray | None = None
    timing_s: dict | None = None     # seconds per engine stage

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)

    def weight_matrix(self) -> np.ndarray:
        """Realized aggregation weights per round; for deterministic
        schedules these equal the expected weights q_i(n)."""
        rows, clients, multiplicity = _participations(self.rounds)
        out = np.zeros((self.n_rounds, len(self.d)))
        out[rows, clients] = multiplicity * self.d[clients]
        return out

    def loss_series(self) -> np.ndarray:
        return np.array([m.loss_fed for m in self.metrics])


def _participations(rounds) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every participation in ``rounds`` as three aligned arrays: its
    position in ``rounds``, the client and its multiplicity."""
    rows = np.repeat(np.arange(len(rounds)), [r.clients.size for r in rounds])
    empty = np.empty(0, dtype=np.int64)
    clients = np.concatenate([empty] + [r.clients for r in rounds])
    multiplicity = np.concatenate([empty] + [r.multiplicity for r in rounds])
    return rows, clients, multiplicity


def shares_schedule(config: RunConfig) -> bool:
    """Whether members of ``config`` that differ only in seed material see
    one schedule: it then draws nothing from the seeds and reads no losses.

    That holds on fixed hardware for the synchronous, asynchronous, FedFix
    and FedBuff policies and fastest-first sampling. Exponential hardware,
    uniform and multinomial sampling and the highest-loss criterion give
    every member a schedule of its own.
    """
    if config.hw.mode != "fixed":
        return False
    if config.policy.kind is PolicyKind.SAMPLE_BIASED:
        return config.policy.criterion == "fastest"
    return not config.policy.is_sampling


@dataclass
class _GroupRun:
    """What the round loop leaves for one group of members."""

    models: np.ndarray  # (n_models, R, dim) recorded global models
    round_times: list   # server time at the end of each round
    rounds: list        # Round per round
    divergence: list    # per member: None, or (round, "overflow" | "threshold")
    timing_s: dict


def _run_group(config: RunConfig, member_seeds) -> _GroupRun:
    """The round loop, for members that share one schedule (one member, or
    members of a config that :func:`shares_schedule`).

    The schedule advances once per round for all R members, which step as
    one (R, dim) model, each with its own seeded randomness. Local work is
    computed ahead of delivery by :class:`_LocalWork`. A member that is
    delivered a run that overflowed, or that passes
    ``DIVERGENCE_THRESHOLD``, diverges at that round while the others go on;
    the loop ends at the horizon or when every member has diverged.
    """
    fleet = config.fleet
    d = config.plan.d
    taus = list(fleet.compute_times)
    policy = config.policy
    hw = config.hw
    lead = member_seeds[0]

    hw_rng = np.random.default_rng(_seed_key(lead.hardware)) if hw.mode == "exponential" else None
    sample_rng = np.random.default_rng(_seed_key(lead.sampling))
    work = _LocalWork(config, member_seeds)
    by_loss = policy.kind is PolicyKind.SAMPLE_BIASED and policy.criterion == "highest_loss"

    state = init_fleet_state(taus, hw, hw_rng, config.initial_clocks, policy=policy)
    n_members = len(member_seeds)
    shape = (n_members, fleet.dim)
    # the recorded models are models[:n_models]; the buffer doubles when full
    models = np.empty((min(config.rounds or 1023, 1023) + 1,) + shape)
    models[0] = config.resolved_theta0()
    n_models = 1
    round_times = []
    rounds = []
    live = np.ones(n_members, dtype=bool)
    n_live = n_members
    divergence = [None] * n_members
    clock = time.perf_counter
    schedule_s = local_work_s = aggregate_s = 0.0

    # diverged members keep stepping on non-finite rows until the group ends
    with np.errstate(over="ignore", invalid="ignore"):
        while config.rounds is None or state.round_index < config.rounds:
            n = state.round_index
            started = clock()
            losses = fleet.losses(models[n])[0] if by_loss else None
            outcome = advance_round(
                state,
                policy,
                taus,
                hw,
                hw_rng=hw_rng,
                sample_rng=sample_rng,
                client_losses=losses,
                importances=fleet.importances,
                time_limit=config.time_budget,
            )
            scheduled = clock()
            schedule_s += scheduled - started
            if outcome is None:
                break

            if config.tau_max is not None:
                _check_staleness(outcome, config.tau_max)
            clients = outcome.clients
            deltas, overflowed = work.deliver(outcome, state.anchor, models)
            delivered = clock()
            local_work_s += delivered - scheduled

            # (mult * d_i) * delta_i added in client order from a zero start
            if clients.size:
                total = sum_in_order((outcome.multiplicity * d[clients])[:, None, None] * deltas)
            else:
                total = np.zeros(shape)
            new_theta = models[n] + config.eta_g * total
            rounds.append(outcome)
            round_times.append(state.time)
            # NaN fails the comparison, so one reduction catches it too
            bounded = np.abs(new_theta) <= DIVERGENCE_THRESHOLD
            if overflowed is not None or not bounded.all():
                failed = ~bounded.all(axis=1)
                if overflowed is not None:
                    failed |= overflowed
                for r in np.flatnonzero(failed & live).tolist():
                    cause = "overflow" if overflowed is not None and overflowed[r] else "threshold"
                    divergence[r] = (n, cause)
                live &= ~failed
                n_live = int(live.sum())
            aggregate_s += clock() - delivered
            if not n_live:
                break
            if n_models == len(models):
                models = np.concatenate([models, np.empty_like(models)])
            models[n_models] = new_theta
            n_models += 1

    return _GroupRun(
        models[:n_models], round_times, rounds, divergence,
        {"schedule": schedule_s, "local_work": local_work_s, "aggregate": aggregate_s},
    )


def run(config: RunConfig) -> Trajectory:
    """Execute the aggregation loop until the horizon (or divergence): the
    one-member case of the round loop."""
    group = _run_group(config, [config.seeds])
    clock = time.perf_counter
    started = clock()
    (divergence,) = group.divergence
    # an overflow in local work ends the run before its round is aggregated
    served = len(group.rounds) - (divergence is not None and divergence[1] == "overflow")
    _, served_ids, _ = _participations(group.rounds[:served])
    n_models = len(group.models)
    trajectory = Trajectory(
        theta=group.models[:, 0],
        times=np.asarray([0.0] + group.round_times[: n_models - 1]),
        rounds=group.rounds,
        metrics=[],
        optimum=weighted_optimum(config.fleet),
        diverged=divergence is not None,
        divergence_round=None if divergence is None else divergence[0],
        divergence_cause=None if divergence is None else divergence[1],
        never_served=len(config.fleet) - int(np.count_nonzero(np.bincount(served_ids))),
        d=config.plan.d,
    )
    trajectory.metrics = _compute_metrics(trajectory, config.fleet, config.metric_cadence)
    trajectory.timing_s = {**group.timing_s, "metrics": clock() - started}
    return trajectory


def _seed_key(seed):
    return seed if isinstance(seed, (int, np.integer)) else list(seed)


def _client_randomness(config: RunConfig, member_seeds) -> list:
    """Per client, one batch stream or gradient-noise generator per member,
    or None for a client that takes exact full gradients.

    Each member's client owns an independent stream keyed by (the member's
    batching seed, client id), so members never share mutable RNG state.
    """
    sources = [None] * len(config.fleet)
    if config.full_gradient:
        return sources
    keys = [[s.batching] if isinstance(s.batching, (int, np.integer)) else list(s.batching)
            for s in member_seeds]
    for positions, table in config.fleet.tables:
        if isinstance(table, GlmObjective):
            batch, n_samples = config.batch_size or table.batch_size, table.n_samples
            for i in positions.tolist():
                sources[i] = [BatchStream(n_samples, batch, np.random.default_rng(key + [i])) for key in keys]
        else:
            for i in positions[table.noise_std > 0.0].tolist():
                sources[i] = [np.random.default_rng(key + [i]) for key in keys]
    return sources


def _check_staleness(outcome: Round, tau_max: int) -> None:
    """Raise StalenessCapError when a delivery of the round is staler than
    ``tau_max``; called at delivery, before the round is aggregated."""
    over = np.flatnonzero(outcome.staleness > tau_max)
    if over.size:
        j = over[0]
        raise StalenessCapError(
            f"client {outcome.clients[j]} delivered at round {outcome.index} with staleness "
            f"{outcome.staleness[j]} > tau_max {tau_max}"
        )


class _LocalWork:
    """Every client's current run, computed once its anchor model exists and
    kept until the client delivers it.

    ``deltas`` (M, R, dim) and ``overflow`` (M, R) hold each client's last
    computed run. Runs are computed in passes, the last one at round
    ``computed_through``; a pass computes every run in flight whose anchor
    model exists, so a run is computed exactly when its anchor is at most
    ``computed_through``.
    """

    def __init__(self, config: RunConfig, member_seeds):
        fleet = config.fleet
        n_clients, n_members = len(fleet), len(member_seeds)
        self.config = config
        self.sources = _client_randomness(config, member_seeds)
        self.stochastic = any(src is not None for src in self.sources)
        self.deltas = np.zeros((n_clients, n_members, fleet.dim))
        self.overflow = np.full((n_clients, n_members), -1)
        self.any_overflow = False  # set once a pass has seen an overflow
        self.computed_through = -1
        self.chunks = []  # jobs per local_sgd call on each table
        for _, table in fleet.tables:
            # a job's R runs hold K + 1 iterates and, on a GLM table, at most
            # n gathered samples per step
            samples = table.n_samples if isinstance(table, GlmObjective) else 0
            per_job = n_members * fleet.dim * (config.k_steps + 1 + config.k_steps * samples)
            self.chunks.append(max(1, _LOCAL_FLOATS // per_job))

    def deliver(self, outcome: Round, anchor: np.ndarray, models: np.ndarray):
        """The participants' deltas (P, R, dim) and, when some participant's
        run overflowed, which members that hits (else None). Computes the
        pending runs first if a participant's run is not computed yet;
        ``anchor`` is the fleet state's after the round."""
        clients = outcome.clients
        if outcome.anchors.max(initial=-1) > self.computed_through:
            self._compute_pending(outcome, anchor, models)
        overflowed = None
        if self.any_overflow:
            hit = (self.overflow[clients] >= 0).any(axis=0)
            overflowed = hit if hit.any() else None
        return self.deltas[clients], overflowed

    def _compute_pending(self, outcome: Round, anchor: np.ndarray, models: np.ndarray) -> None:
        """Run every client in flight whose anchor model exists (anchor at
        most this round's index) and whose run is not computed: the
        participants, and the clients still busy on an earlier model.
        Clients that are not sampled this round are rebased past it, so
        they are left out."""
        config = self.config
        anchor = anchor.copy()
        anchor[outcome.clients] = outcome.anchors  # the participants' runs, before the round rebased them
        pending = np.flatnonzero((anchor <= outcome.index) & (anchor > self.computed_through))
        fleet = config.fleet
        for t, ((_, table), chunk) in enumerate(zip(fleet.tables, self.chunks)):
            jobs = pending if len(fleet.tables) == 1 else pending[fleet.table_of[pending] == t]
            for lo in range(0, jobs.size, chunk):
                part = jobs[lo:lo + chunk]
                out = local_sgd(
                    table, fleet.row_of[part], models[anchor[part]], config.k_steps, config.eta_l,
                    [self.sources[i] for i in part.tolist()] if self.stochastic else None,
                )
                self.deltas[part] = out.delta
                self.overflow[part] = -1 if out.overflow_step is None else out.overflow_step
                self.any_overflow |= out.overflow_step is not None
        self.computed_through = outcome.index


def _kept_rows(n_models: int, cadence: int) -> list[int]:
    """Recorded models that get a metrics row: every ``cadence``-th and the last."""
    last = n_models - 1
    return [n for n in range(last + 1) if n % cadence == 0 or n == last]


def _federated_losses(fleet: Fleet, thetas) -> tuple[np.ndarray, np.ndarray]:
    """The (rows, M) client-loss matrix at ``thetas`` and the federated loss
    of each row."""
    losses = fleet.losses(thetas)
    # cumsum adds in client order, left to right, so loss_fed keeps its bits;
    # np.sum would pair terms and move the last digit
    return losses, np.cumsum(losses * fleet.importances, axis=1)[:, -1].copy()


def _compute_metrics(traj: Trajectory, fleet: Fleet, cadence: int) -> list[MetricsRow]:
    kept = _kept_rows(traj.theta.shape[0], cadence)
    losses, loss_fed = _federated_losses(fleet, traj.theta[kept])
    losses.flags.writeable = False
    # rows with a round come first in ``kept``; the final model's row has
    # no participants and no surrogate
    recorded = [traj.rounds[n] for n in kept if n < traj.n_rounds]
    unrecorded = len(kept) - len(recorded)
    pos, clients, multiplicity = _participations(recorded)
    served = np.zeros((len(recorded), len(fleet)), dtype=bool)
    served[pos, clients] = True
    masks = [int.from_bytes(row.tobytes(), "little")
             for row in np.packbits(served, axis=1, bitorder="little")] + [None] * unrecorded
    # the surrogate: mult * d_i * loss_i summed over the participants in
    # client order, left to right. Each round's terms fill the front of its
    # row and zeros follow, which leave the cumsum unchanged; +0.0 gives an
    # all-zero row the +0 of a sum's zero start
    slot = np.arange(pos.size) - np.searchsorted(pos, pos)
    terms = np.zeros((len(recorded), int(slot.max(initial=0)) + 1))
    terms[pos, slot] = (multiplicity * traj.d[clients]) * losses[pos, clients]
    surrogates = (np.cumsum(terms, axis=1)[:, -1] + 0.0).tolist() + [math.nan] * unrecorded
    metrics = []
    for n, client_losses, fed, mask, loss_surr in zip(
        kept, losses, loss_fed.tolist(), masks, surrogates
    ):
        gap = traj.theta[n] - traj.optimum
        metrics.append(
            MetricsRow(
                round=n,
                wall_time=float(traj.times[n]),
                participant_mask=mask,
                loss_fed=fed,
                loss_surrogate=loss_surr,
                dist_sq=float(np.dot(gap, gap)),
                client_losses=client_losses,
            )
        )
    return metrics


def _window_stats(series: np.ndarray, fraction: float = 0.05) -> tuple[float, float]:
    """Mean and standard deviation of a loss series over its trailing
    fraction of recorded rounds."""
    window = max(1, math.ceil(fraction * series.shape[0]))
    tail = series[-window:]
    return float(tail.mean()), float(tail.std())


# ---------------------------------------------------------------------------
# Ensembles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MemberRun:
    """One member's recorded models, up to the round it diverged."""

    seeds: Seeds
    theta: np.ndarray                         # (n_models, dim)
    n_rounds: int
    divergence_round: int | None
    final_loss: tuple[float, float] | None    # _window_stats of the losses; None when diverged

    @property
    def diverged(self) -> bool:
        return self.divergence_round is not None


def run_members(config: RunConfig, member_seeds) -> list[MemberRun]:
    """One rerun of ``config`` per entry of ``member_seeds``, in order.

    Members that share a schedule (:func:`shares_schedule`) step through
    the round loop together as one (R, dim) model; otherwise each member is
    a group of one. Either way a member's models, round count, divergence
    round and final-window loss equal those of :func:`run` with its seeds,
    bit for bit.
    """
    member_seeds = list(member_seeds)
    groups = [member_seeds] if shares_schedule(config) else [[seeds] for seeds in member_seeds]
    members = []
    for group in groups:
        out = _run_group(config, group)
        thetas = out.models.transpose(1, 0, 2)  # (R, n_models, dim)
        for seeds, theta, divergence in zip(group, thetas, out.divergence):
            if divergence is None:
                kept = _kept_rows(theta.shape[0], config.metric_cadence)
                final = _window_stats(_federated_losses(config.fleet, theta[kept])[1])
                members.append(MemberRun(seeds, theta, len(out.rounds), None, final))
            else:
                n = divergence[0]
                members.append(MemberRun(seeds, theta[: n + 1], n + 1, n, None))
    return members


# ---------------------------------------------------------------------------
# Vectorized scalar-quadratic ensembles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarEnsembleConfig:
    """Monte-Carlo settings for the symmetric scalar-quadratic schemes that
    have closed-form counterparts. The members run to the last checkpoint;
    statistics are taken at round 0 and at each checkpoint only."""

    scheme: str                      # sync | sync_uniform | async | hybrid
    optima: tuple[float, ...]
    phi: float
    eta_g: float = 1.0
    theta0: float = 0.0
    checkpoints: tuple[int, ...] = (20,)
    n_runs: int = 10_000
    seed: int = 0
    m: int | None = None             # sync_uniform sample size
    window: float | None = None      # hybrid window (unit-rate time)

    def __post_init__(self):
        if self.scheme not in ("sync", "sync_uniform", "async", "hybrid"):
            raise ConfigurationError(f"unsupported scalar ensemble scheme {self.scheme!r}")
        if self.scheme == "sync_uniform" and not (self.m and 1 <= self.m <= len(self.optima)):
            raise ConfigurationError("sync_uniform needs 1 <= m <= M")
        if self.scheme == "hybrid" and (self.window is None or self.window <= 0):
            raise ConfigurationError("hybrid needs a positive window")
        if self.checkpoints and min(self.checkpoints) < 0:
            raise ConfigurationError("checkpoints must be nonnegative rounds")
        if self.n_runs < 1 or not self.checkpoints or max(self.checkpoints) < 1:
            raise ConfigurationError("need at least one run and one round")
        if self.n_runs * len(self.optima) > MAX_HELD_ANCHORS:
            raise ConfigurationError(
                f"n_runs x clients must be at most {MAX_HELD_ANCHORS} (the held-anchor buffer), "
                f"got {self.n_runs} x {len(self.optima)}"
            )


@dataclass(frozen=True)
class ScalarEnsembleResult:
    """Statistics at ``rounds`` (round 0 and the checkpoints, ascending and
    distinct); entry i of every array belongs to round ``rounds[i]``."""

    rounds: np.ndarray
    mean: np.ndarray            # E[theta^n] estimate
    se_mean: np.ndarray
    second_moment: np.ndarray   # E[(theta^n - theta_star)^2] estimate
    se_second_moment: np.ndarray
    n_runs: int
    theta_star: float


def run_scalar_ensemble(cfg: ScalarEnsembleConfig) -> ScalarEnsembleResult:
    """Vectorized reruns of the scalar update rule, one row per member.

    Equivalent in distribution to driving :func:`run` with the matching
    policy and symmetric exponential hardware; kept separate so oracle
    comparisons can afford 1e5 members. The members' held anchors are one
    (members, M) buffer: the asynchronous rounds run as member blocks x
    round chunks over it (:func:`_async_rounds`), and the window scheme
    overwrites it in place.
    """
    rng = np.random.default_rng(cfg.seed)
    optima = np.asarray(cfg.optima, dtype=float)
    m_clients = optima.shape[0]
    n_runs = cfg.n_runs
    theta_star = float(optima.mean())
    step = cfg.eta_g * cfg.phi
    rounds = np.array(sorted({0, *cfg.checkpoints}))

    theta = np.full(n_runs, float(cfg.theta0))
    held = np.full((n_runs, m_clients), float(cfg.theta0))
    if cfg.scheme == "hybrid":
        rate = 1.0 - math.exp(-cfg.window)
        d = 1.0 / (rate * m_clients)

    mean, se_mean, sm, se_sm = np.empty((4, rounds.shape[0]))

    def record(i):
        mean[i] = theta.mean()
        se_mean[i] = theta.std(ddof=1) / math.sqrt(n_runs) if n_runs > 1 else 0.0
        gap_sq = (theta - theta_star) ** 2
        sm[i] = gap_sq.mean()
        se_sm[i] = gap_sq.std(ddof=1) / math.sqrt(n_runs) if n_runs > 1 else 0.0

    record(0)
    for due in range(1, rounds.shape[0]):
        gap = int(rounds[due] - rounds[due - 1])
        if cfg.scheme == "async":
            _async_rounds(rng, optima, step, theta, held, gap)
        else:
            for _ in range(gap):
                if cfg.scheme == "sync":
                    theta = theta + step * (theta_star - theta)
                elif cfg.scheme == "sync_uniform":
                    scores = rng.random((n_runs, m_clients))
                    chosen = np.argpartition(scores, cfg.m - 1, axis=1)[:, : cfg.m]
                    theta = theta + step * (optima[chosen].mean(axis=1) - theta)
                else:  # hybrid
                    mask = rng.random((n_runs, m_clients)) < rate
                    contrib = (mask * (optima[None, :] - held)).sum(axis=1)
                    theta = theta + step * d * contrib
                    np.copyto(held, theta[:, None], where=mask)
        record(due)
    return ScalarEnsembleResult(rounds, mean, se_mean, sm, se_sm, n_runs, theta_star)


def _async_rounds(rng, optima, step, theta, held, n_rounds) -> None:
    """Advance the asynchronous ensemble ``n_rounds`` rounds in place.

    Each round draws one client j per member, ``rng.integers(0, M,
    members)``, and updates ``theta += step * (optima[j] - held[., j])``,
    then ``held[., j] = theta``. The rounds run in chunks of
    ``ASYNC_CHUNK_ROUNDS``: a chunk's draws are made first, one call per
    round in round order as one round at a time makes them, into a buffer
    of the smallest unsigned dtype that holds M - 1; then each block of
    ``ENSEMBLE_BLOCK_MEMBERS`` members runs all the chunk's rounds on its
    rows of ``held``, which stay in cache meanwhile. Each member sees the
    same operations in the same order, so every result has the same bits
    as a round-at-a-time loop.
    """
    n_runs, m_clients = held.shape
    block = min(ENSEMBLE_BLOCK_MEMBERS, n_runs)
    chunk = np.empty((min(ASYNC_CHUNK_ROUNDS, n_rounds), n_runs), np.min_scalar_type(m_clients - 1))
    base = np.arange(0, block * m_clients, m_clients)  # row starts of a block's flat anchors
    j, flat_j = np.empty((2, block), dtype=np.intp)
    for start in range(0, n_rounds, chunk.shape[0]):
        draws = chunk[: min(chunk.shape[0], n_rounds - start)]
        for row in draws:
            row[:] = rng.integers(0, m_clients, n_runs)
        for lo in range(0, n_runs, block):
            hi = min(lo + block, n_runs)
            theta_b, held_b = theta[lo:hi], held[lo:hi].reshape(-1)
            j_b, flat_b, base_b = j[: hi - lo], flat_j[: hi - lo], base[: hi - lo]
            for row in draws:
                np.copyto(j_b, row[lo:hi])
                pull = optima.take(j_b)
                np.add(base_b, j_b, out=flat_b)
                pull -= held_b.take(flat_b)
                pull *= step
                theta_b += pull
                held_b[flat_b] = theta_b  # one index per member, so no two writes collide


# ---------------------------------------------------------------------------
# Trajectory CSV (stable schema)
# ---------------------------------------------------------------------------

def trajectory_header(n_clients: int) -> list[str]:
    return ["n", "t", "participants", "loss_fed", "loss_surrogate", "dist_sq"] + [
        f"loss_client_{i}" for i in range(n_clients)
    ]


@contextmanager
def atomic_open(path, binary: bool = False):
    """Open a file for writing, text with LF line endings or, if ``binary``,
    bytes, that replaces ``path`` only once the block completes; if the
    block raises, the temporary ``<name>.tmp`` is removed and ``path`` keeps
    its old content."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", newline="\n") as fh:
            yield fh
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Comma-separated metrics rows, LF endings, 17 significant digits.

    The final model's row has no participant set or surrogate loss; those
    cells are left empty.
    """
    leading = [
        (
            row.round,
            row.wall_time,
            b"" if row.participant_mask is None else b"%d" % row.participant_mask,
            row.loss_fed,
            b"" if math.isnan(row.loss_surrogate) else b"%.17g" % row.loss_surrogate,
            row.dist_sq,
        )
        for row in traj.metrics
    ]
    write_trajectory_table(path, len(traj.d), leading, [row.client_losses for row in traj.metrics])


def write_trajectory_table(path, n_clients: int, leading, client_losses) -> None:
    """Write the trajectory schema: per row the cells (n, t, participants,
    loss_fed, loss_surrogate, dist_sq), participants and surrogate already
    ASCII bytes, then that row of ``client_losses`` (rows of ``n_clients``
    floats).

    Loss cells are encoded by :func:`asyncfed.textfmt.format_rows`, exactly
    as ``'%.17g' % x``, and written in blocks of about ``BLOCK_CELLS``
    cells; a row of the wrong length or a non-real cell raises ``TypeError``
    and leaves ``path`` as it was.
    """
    step = max(1, BLOCK_CELLS // n_clients)
    with atomic_open(path, binary=True) as fh:
        fh.write(",".join(trajectory_header(n_clients)).encode("ascii") + b"\n")
        for start in range(0, len(leading), step):
            stop = start + step
            block = np.asarray(client_losses[start:stop])
            if block.shape[1:] != (n_clients,):
                raise TypeError(f"expected rows of {n_clients} client losses, got shape {block.shape}")
            text = format_rows(block)
            # each row's leading cells go before its slice of the loss text
            view, pieces, pos = memoryview(text), [], 0
            for cells, _ in zip(leading[start:stop], block):
                end = text.index(b"\n", pos) + 1
                pieces += (b"%d,%.17g,%s,%.17g,%s,%.17g," % cells, view[pos:end])
                pos = end
            fh.write(b"".join(pieces))
