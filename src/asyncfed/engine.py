"""Simulation loop: timing, local work, and weighted aggregation of delayed
contributions, with trajectory recording and ensemble statistics.

One run is one logical thread. Ensemble members share only immutable
configuration and are merged by seed, so results do not depend on execution
order.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .core import (
    ConfigurationError,
    Contribution,
    Fleet,
    NumericOverflowError,
    SeedCollisionError,
    SnapshotsUnavailableError,
    StalenessCapError,
    weighted_optimum,
)
from .objectives import BatchStream, GlmObjective, local_sgd
from .textfmt import BLOCK_CELLS, format_rows
from .timing import HardwareModel, PolicyKind, WaitPolicy, advance_round, init_fleet_state
from .weights import WeightPlan

DIVERGENCE_THRESHOLD = 1e12
CSV_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Seeds:
    """Independent seed material for the three randomness sources."""

    hardware: int | tuple = 0
    batching: int | tuple = 1
    sampling: int | tuple = 2


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
    record_local_paths: bool = False
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
        if self.k_steps < 1:
            raise ConfigurationError("k_steps must be at least 1")
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
    rounds: list                    # RoundOutcome per completed round
    metrics: list[MetricsRow]
    optimum: np.ndarray
    contributions: list[list[Contribution]] | None = None  # per round
    diverged: bool = False
    divergence_round: int | None = None
    never_served: int = 0
    local_paths: list | None = None  # per round: list of (participant, (K+1, dim) path)
    eta_g: float = 1.0
    d: np.ndarray | None = None
    timing_s: dict | None = None     # seconds per engine stage

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)

    def weight_matrix(self) -> np.ndarray:
        """Realized aggregation weights per round; for deterministic
        schedules these equal the expected weights q_i(n)."""
        n_clients = len(self.d)
        out = np.zeros((self.n_rounds, n_clients))
        for row, outcome in zip(out, self.rounds):
            for part in outcome.participants:
                row[part.client_id] = part.multiplicity * self.d[part.client_id]
        return out

    def loss_series(self) -> np.ndarray:
        return np.array([m.loss_fed for m in self.metrics])


def _participant_mask(outcome) -> int:
    mask = 0
    for part in outcome.participants:
        mask |= 1 << part.client_id
    return mask


def run(config: RunConfig) -> Trajectory:
    """Execute the aggregation loop until the horizon (or divergence)."""
    fleet = config.fleet
    n_clients = len(fleet)
    d = config.plan.d
    taus = list(fleet.compute_times)
    policy = config.policy
    hw = config.hw

    hw_rng = np.random.default_rng(_seed_key(config.seeds.hardware)) if hw.mode == "exponential" else None
    sample_rng = np.random.default_rng(_seed_key(config.seeds.sampling))
    streams, noise_rngs = _client_randomness(config)

    state = init_fleet_state(taus, hw, hw_rng, config.initial_clocks, policy=policy)
    models = [config.resolved_theta0()]
    times = [0.0]
    rounds = []
    contributions = []
    local_paths = [] if config.record_local_paths else None
    participated = [False] * n_clients
    diverged = False
    divergence_round = None
    clock = time.perf_counter
    schedule_s = local_work_s = aggregate_s = 0.0

    while True:
        n = state.round_index
        if config.rounds is not None and n >= config.rounds:
            break
        started = clock()
        losses = None
        if policy.kind is PolicyKind.SAMPLE_BIASED and policy.criterion == "highest_loss":
            losses = _client_loss_matrix(fleet, models[-1][None])[0]
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

        try:
            deliveries = _collect_deliveries(config, fleet, models, outcome, streams, noise_rngs)
        except NumericOverflowError:
            local_work_s += clock() - scheduled
            diverged, divergence_round = True, n
            rounds.append(outcome)
            break
        delivered = clock()
        local_work_s += delivered - scheduled
        for part in outcome.participants:
            participated[part.client_id] = True

        total = np.zeros(fleet.dim)
        for part, update in deliveries:
            total += (part.multiplicity * d[part.client_id]) * update.delta
        new_theta = models[-1] + config.eta_g * total
        rounds.append(outcome)
        now = state.time
        contributions.append(
            [
                Contribution(part.client_id, part.anchor_round, update.delta, now)
                for part, update in deliveries
            ]
        )
        if local_paths is not None:
            local_paths.append([(part, update.path) for part, update in deliveries])
        # NaN fails the comparison, so one reduction catches it too
        finite = (np.abs(new_theta) <= DIVERGENCE_THRESHOLD).all()
        aggregate_s += clock() - delivered
        if not finite:
            diverged, divergence_round = True, n
            break
        models.append(new_theta)
        times.append(now)

    started = clock()
    optimum = weighted_optimum(fleet)
    trajectory = Trajectory(
        theta=np.asarray(models),
        times=np.asarray(times),
        rounds=rounds,
        metrics=[],
        optimum=optimum,
        contributions=contributions,
        diverged=diverged,
        divergence_round=divergence_round,
        never_served=n_clients - sum(participated),
        local_paths=local_paths,
        eta_g=config.eta_g,
        d=d,
    )
    trajectory.metrics = _compute_metrics(trajectory, fleet, config.metric_cadence)
    trajectory.timing_s = {
        "schedule": schedule_s,
        "local_work": local_work_s,
        "aggregate": aggregate_s,
        "metrics": clock() - started,
    }
    return trajectory


def _seed_key(seed):
    return seed if isinstance(seed, (int, np.integer)) else list(seed)


def _client_randomness(config: RunConfig):
    """Per-client batch streams and gradient-noise generators.

    Each client owns an independent stream keyed by (batching seed, id), so
    concurrent simulations never share mutable RNG state.
    """
    streams = {}
    noise_rngs = {}
    if config.full_gradient:
        return streams, noise_rngs
    base = config.seeds.batching
    base_key = [base] if isinstance(base, (int, np.integer)) else list(base)
    for client in config.fleet.clients:
        obj = config.fleet.objective_for(client)
        rng = np.random.default_rng(base_key + [client.id])
        if isinstance(obj, GlmObjective):
            batch = config.batch_size or obj.batch_size
            streams[client.id] = BatchStream(obj.n_samples, batch, rng)
        elif getattr(obj, "noise_std", 0.0) > 0.0:
            noise_rngs[client.id] = rng
    return streams, noise_rngs


def _collect_deliveries(config, fleet, models, outcome, streams, noise_rngs):
    deliveries = []
    for part in outcome.participants:
        if config.tau_max is not None and part.staleness > config.tau_max:
            raise StalenessCapError(
                f"client {part.client_id} delivered with staleness {part.staleness} "
                f"> cap {config.tau_max}"
            )
        client = fleet.clients[part.client_id]
        update = local_sgd(
            models[part.anchor_round],
            fleet.objective_for(client),
            config.k_steps,
            config.eta_l,
            batches=streams.get(part.client_id),
            noise_rng=noise_rngs.get(part.client_id),
            record_path=config.record_local_paths,
        )
        deliveries.append((part, update))
    return deliveries


def _client_loss_matrix(fleet: Fleet, thetas) -> np.ndarray:
    """(rows, M) matrix of every client's loss at each row of ``thetas``,
    one batched ``values`` call per client."""
    out = np.empty((len(fleet), np.shape(thetas)[0]))
    for row, client in zip(out, fleet.clients):
        row[:] = fleet.objective_for(client).values(thetas)
    return out.T


def _compute_metrics(traj: Trajectory, fleet: Fleet, cadence: int) -> list[MetricsRow]:
    last = traj.theta.shape[0] - 1
    kept = [n for n in range(last + 1) if n % cadence == 0 or n == last]
    losses = _client_loss_matrix(fleet, traj.theta[kept])
    losses.flags.writeable = False
    # cumsum adds in client order, left to right, so loss_fed keeps its bits;
    # np.sum would pair terms and move the last digit
    loss_fed = np.cumsum(losses * fleet.importances, axis=1)[:, -1]
    # every participant's loss as a Python float, in one gather; rows with
    # an outcome come first in ``kept``
    outcomes = [traj.rounds[n] for n in kept if n < traj.n_rounds]
    picked = iter(
        losses[
            [i for i, outcome in enumerate(outcomes) for _ in outcome.participants],
            [part.client_id for outcome in outcomes for part in outcome.participants],
        ].tolist()
    )
    d = traj.d.tolist()
    rows = []
    for n, client_losses, fed in zip(kept, losses, loss_fed.tolist()):
        if n < traj.n_rounds:
            outcome = traj.rounds[n]
            mask = _participant_mask(outcome)
            loss_surr = float(
                sum(part.multiplicity * d[part.client_id] * next(picked) for part in outcome.participants)
            )
        else:
            mask, loss_surr = None, math.nan
        gap = traj.theta[n] - traj.optimum
        rows.append(
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
    return rows


def virtual_sequence(traj: Trajectory, k: int) -> np.ndarray:
    """Models interpolated at local step k: the round-n model plus the
    weighted partial local work of that round's participants.

    Step 0 reproduces the round-n model and step K the round-(n+1) model,
    bit for bit.
    """
    if traj.local_paths is None:
        raise SnapshotsUnavailableError("run with record_local_paths=True")
    out = []
    for n, deliveries in enumerate(traj.local_paths):
        if deliveries and not 0 <= k < len(deliveries[0][1]):
            raise ConfigurationError(f"local step {k} outside 0..K")
        total = np.zeros(traj.theta.shape[1])
        for part, path in deliveries:
            anchor = traj.theta[part.anchor_round]
            total += (part.multiplicity * traj.d[part.client_id]) * (path[k] - anchor)
        out.append(traj.theta[n] + traj.eta_g * total)
    return np.asarray(out)


def final_window_loss(traj: Trajectory, fraction: float = 0.05) -> tuple[float, float]:
    """Mean and standard deviation of the federated loss over the trailing
    fraction of recorded rounds."""
    series = traj.loss_series()
    window = max(1, math.ceil(fraction * series.shape[0]))
    tail = series[-window:]
    return float(tail.mean()), float(tail.std())


# ---------------------------------------------------------------------------
# Ensembles
# ---------------------------------------------------------------------------

@dataclass
class EnsembleResult:
    member_seeds: tuple[int, ...]
    n_completed: int
    diverged_count: int
    mean_theta: np.ndarray      # (rounds+1, dim)
    var_theta: np.ndarray
    se_theta: np.ndarray
    mean_dist_sq: np.ndarray
    se_dist_sq: np.ndarray
    member_final_loss: tuple[float, ...]


def run_ensemble(config: RunConfig, seeds) -> EnsembleResult:
    """Independent reruns of ``config`` with per-member seed material.

    Diverged members are excluded from the statistics and counted. Seeds
    must be pairwise distinct.
    """
    seeds = [int(s) for s in seeds]
    if len(seeds) < 2:
        raise ConfigurationError("an ensemble needs at least two members")
    if len(set(seeds)) != len(seeds):
        raise SeedCollisionError("ensemble seeds must be pairwise distinct")

    thetas, dists, finals = [], [], []
    diverged = 0
    for s in seeds:
        member = replace(config, seeds=_member_seeds(config.seeds, s))
        traj = run(member)
        if traj.diverged:
            diverged += 1
            continue
        gap = traj.theta - traj.optimum
        thetas.append(traj.theta)
        dists.append(np.sum(gap * gap, axis=1))
        finals.append(final_window_loss(traj)[0])
    if not thetas:
        raise RuntimeError("every ensemble member diverged")

    n_models = min(t.shape[0] for t in thetas)
    stack = np.stack([t[:n_models] for t in thetas])
    dstack = np.stack([d[:n_models] for d in dists])
    n = stack.shape[0]
    var_theta = stack.var(axis=0, ddof=1) if n > 1 else np.zeros_like(stack[0])
    var_dist = dstack.var(axis=0, ddof=1) if n > 1 else np.zeros_like(dstack[0])
    return EnsembleResult(
        member_seeds=tuple(seeds),
        n_completed=n,
        diverged_count=diverged,
        mean_theta=stack.mean(axis=0),
        var_theta=var_theta,
        se_theta=np.sqrt(var_theta / n),
        mean_dist_sq=dstack.mean(axis=0),
        se_dist_sq=np.sqrt(var_dist / n),
        member_final_loss=tuple(finals),
    )


def _member_seeds(base: Seeds, member: int) -> Seeds:
    def derive(value):
        return (value if isinstance(value, tuple) else (value,)) + (member,)

    return Seeds(derive(base.hardware), derive(base.batching), derive(base.sampling))


# ---------------------------------------------------------------------------
# Vectorized scalar-quadratic ensembles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarEnsembleConfig:
    """Monte-Carlo settings for the symmetric scalar-quadratic schemes that
    have closed-form counterparts."""

    scheme: str                      # sync | sync_uniform | async | hybrid
    optima: tuple[float, ...]
    phi: float
    eta_g: float = 1.0
    theta0: float = 0.0
    n_rounds: int = 20
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
        if self.n_runs < 1 or self.n_rounds < 1:
            raise ConfigurationError("need at least one run and one round")


@dataclass(frozen=True)
class ScalarEnsembleResult:
    mean: np.ndarray            # E[theta^n] estimate per round
    se_mean: np.ndarray
    second_moment: np.ndarray   # E[(theta^n - theta_star)^2] estimate
    se_second_moment: np.ndarray
    n_runs: int
    theta_star: float


def run_scalar_ensemble(cfg: ScalarEnsembleConfig) -> ScalarEnsembleResult:
    """Vectorized reruns of the scalar update rule, one row per member.

    Equivalent in distribution to driving :func:`run` with the matching
    policy and symmetric exponential hardware; kept separate so oracle
    comparisons can afford 1e5 members.
    """
    rng = np.random.default_rng(cfg.seed)
    optima = np.asarray(cfg.optima, dtype=float)
    m_clients = optima.shape[0]
    theta_star = float(optima.mean())
    step = cfg.eta_g * cfg.phi

    theta = np.full(cfg.n_runs, float(cfg.theta0))
    held = np.full((cfg.n_runs, m_clients), float(cfg.theta0))
    rows = np.arange(cfg.n_runs)

    mean = np.empty(cfg.n_rounds + 1)
    se_mean = np.empty(cfg.n_rounds + 1)
    sm = np.empty(cfg.n_rounds + 1)
    se_sm = np.empty(cfg.n_rounds + 1)

    def record(n):
        mean[n] = theta.mean()
        se_mean[n] = theta.std(ddof=1) / math.sqrt(cfg.n_runs) if cfg.n_runs > 1 else 0.0
        gap_sq = (theta - theta_star) ** 2
        sm[n] = gap_sq.mean()
        se_sm[n] = gap_sq.std(ddof=1) / math.sqrt(cfg.n_runs) if cfg.n_runs > 1 else 0.0

    record(0)
    for n in range(cfg.n_rounds):
        if cfg.scheme == "sync":
            theta = theta + step * (theta_star - theta)
        elif cfg.scheme == "sync_uniform":
            scores = rng.random((cfg.n_runs, m_clients))
            chosen = np.argpartition(scores, cfg.m - 1, axis=1)[:, : cfg.m]
            theta = theta + step * (optima[chosen].mean(axis=1) - theta)
        elif cfg.scheme == "async":
            j = rng.integers(0, m_clients, cfg.n_runs)
            theta = theta + step * (optima[j] - held[rows, j])
            held[rows, j] = theta
        else:  # hybrid
            rate = 1.0 - math.exp(-cfg.window)
            d = 1.0 / (rate * m_clients)
            mask = rng.random((cfg.n_runs, m_clients)) < rate
            contrib = (mask * (optima[None, :] - held)).sum(axis=1)
            theta = theta + step * d * contrib
            held = np.where(mask, theta[:, None], held)
        record(n + 1)
    return ScalarEnsembleResult(mean, se_mean, sm, se_sm, cfg.n_runs, theta_star)


# ---------------------------------------------------------------------------
# Trajectory CSV (stable schema)
# ---------------------------------------------------------------------------

def trajectory_header(n_clients: int) -> list[str]:
    return ["n", "t", "participants", "loss_fed", "loss_surrogate", "dist_sq"] + [
        f"loss_client_{i}" for i in range(n_clients)
    ]


@contextmanager
def atomic_open(path):
    """Open a text file for writing, LF line endings, that replaces ``path``
    only once the block completes; if the block raises, the temporary
    ``<name>.tmp`` is removed and ``path`` keeps its old content."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", newline="\n") as fh:
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
            "" if row.participant_mask is None else row.participant_mask,
            row.loss_fed,
            "" if math.isnan(row.loss_surrogate) else "%.17g" % row.loss_surrogate,
            row.dist_sq,
        )
        for row in traj.metrics
    ]
    write_trajectory_table(path, len(traj.d), leading, [row.client_losses for row in traj.metrics])


def write_trajectory_table(path, n_clients: int, leading, client_losses) -> None:
    """Write the trajectory schema: per row the cells (n, t, participants,
    loss_fed, loss_surrogate, dist_sq), participants and surrogate already
    text, then that row of ``client_losses`` (rows of ``n_clients`` floats).

    Loss cells are encoded by :func:`asyncfed.textfmt.format_rows`, exactly
    as ``'%.17g' % x``, in blocks of about ``BLOCK_CELLS`` cells; a row of
    the wrong length or a non-real cell raises ``TypeError`` and leaves
    ``path`` as it was.
    """
    step = max(1, BLOCK_CELLS // n_clients)
    with atomic_open(path) as fh:
        fh.write(",".join(trajectory_header(n_clients)) + "\n")
        for start in range(0, len(leading), step):
            stop = start + step
            block = np.asarray(client_losses[start:stop])
            if block.shape[1:] != (n_clients,):
                raise TypeError(f"expected rows of {n_clients} client losses, got shape {block.shape}")
            for cells, text in zip(leading[start:stop], format_rows(block)):
                fh.write("%d,%.17g,%s,%.17g,%s,%.17g,%s\n" % (cells + (text,)))
