"""Simulation loop: timing, local work, and weighted aggregation of delayed
contributions, with trajectory recording and ensemble statistics.

One loop steps from one local-work pass to the next over a schedule record,
merged whole ahead (fixed-hardware synchronous, asynchronous and FedFix) or
replayed a block of rounds ahead. Ensemble members that share one schedule
step through it together as one (R, dim) model: reruns that differ only in
seed material the schedule does not draw from, in the local step size
``eta_l`` and in the local step count ``k_steps``, such as the values of a
``k_steps`` sweep. Each member keeps its own seed material, step size and
step count, so results do not depend on how members are grouped.

Local work runs when its result is first needed. A client's run is fixed
once the model it trains from (its anchor) exists, so when a round's
participant has no computed run, the loop computes every pending run in one
pass: each client in flight whose anchor model exists and whose run is not
yet computed, as stacked :func:`~asyncfed.objectives.local_sgd` calls on
the fleet's objective table. The results wait in a per-client buffer until
the client delivers. Each member's client has its own generator, keyed by
the member's batching seed and the client; members of one batching seed
(member j of every value of a sweep) read one stream of it, each with its
own cursor, so the fleet's draw table holds one stream per distinct (seed,
client) ahead of use. A client's runs take the values in dispatch order,
so the trajectory is the one that computing each run at its delivery
from the member's own generator gives. A run still in flight at the horizon
may have drawn from its client's stream, but it is never delivered: its
result, and any overflow in it, is dropped.

A client delivers at most once between two passes, so the rounds between
them (a segment) are aggregated as one block just before the next pass:
one gather of the participants' runs, per-round sums in client order and
the models as one running sum over the rounds.
"""

from __future__ import annotations

import copy
import math
import operator
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .core import ConfigurationError, Fleet, StalenessCapError, UnsupportedConfigError, weighted_optimum
from .objectives import GlmObjective, local_sgd
from .textfmt import BLOCK_CELLS, format_rows
from .timing import (
    HardwareModel,
    PolicyKind,
    Round,
    Schedule,
    WaitPolicy,
    init_fleet_state,
    merged_schedule,
    replay_rounds,
)

if TYPE_CHECKING:
    from .oracle import OracleState

DIVERGENCE_THRESHOLD = 1e12
MAX_K_STEPS = 10_000  # local steps per run
# members per group of run_members, which holds (rounds + 1, R, dim) models
# and seeds one generator per distinct batching seed and noisy client (~1.2
# KB and ~8 us each); also the most seeds an ensemble config may ask for
MAX_ENSEMBLE_SEEDS = 10_000
# n_runs x M of an asynchronous or sync_uniform scalar ensemble: its (n_runs,
# M) held-anchor buffer or per-round scores are 128 MiB at the cap (a sync
# ensemble holds (n_runs,) vectors only, and its n_runs alone is held to the
# cap); the asynchronous rounds add an (ASYNC_CHUNK_ROUNDS, n_runs) buffer of
# client indices, one byte each up to M = 256 (8 rounds: one float64 member
# vector), and one carried row of it. An asynchronous round of the exact
# oracle holds three (M+1)^2 matrices (its second moment, its rows and one
# temporary), and the three together are held to the same cap
MAX_HELD_ANCHORS = 1 << 24
# the asynchronous scalar ensemble runs its members in blocks of this many
# (640 KiB of held anchors at M = 10, so a block stays in a 2 MiB L2 cache
# across a chunk of rounds), ASYNC_CHUNK_ROUNDS rounds per pass over them;
# a block sized in bytes instead would shrink to a few hundred members at
# M >= 300, where per-call overhead outweighs the cache. Up to M = 256 the
# chunk's one-byte rows hold clients decoded two rounds at a time from one
# 16-bit draw
ENSEMBLE_BLOCK_MEMBERS = 8192
ASYNC_CHUNK_ROUNDS = 8
# the rounds of the first block a replayed schedule appends, and of any block
_FIRST_REPLAY_BLOCK, _REPLAY_BLOCK = 16, 1024
# bound on the floats one local_sgd call holds (iterates, its slice of the draw
# table, gathered samples), and on the values one draw table holds
_LOCAL_FLOATS = 1 << 20
# loss cells per metrics block (1 MiB of losses): the rows of a trajectory are
# computed and written a block at a time, and a block's fixed cost (its
# participations, masks and surrogates, its leading cells' text: a few dozen
# numpy calls) stays small next to its cells
_METRIC_CELLS = 1 << 17


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
    d: np.ndarray                       # per-client aggregation weights d_i
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
        if len(self.d) != len(self.fleet):
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
class Metrics:
    """A block of metrics rows of kept models (every ``metric_cadence``-th
    and the last) as columns: entry j of each belongs to model ``round[j]``.
    The final model has no round of its own, so its participant mask is None
    and its surrogate loss NaN, as are those of a closed-form sequence."""

    round: np.ndarray               # int64 model indices
    wall_time: np.ndarray
    participant_mask: list          # int bit mask of each row's participants
    loss_fed: np.ndarray
    loss_surrogate: np.ndarray
    dist_sq: np.ndarray
    client_losses: np.ndarray       # C-order (rows, M)

    def __len__(self) -> int:
        return self.round.shape[0]

    def rows(self, start: int, stop: int) -> Metrics:
        """Rows ``start`` to ``stop`` of every column."""
        return Metrics(*(getattr(self, f.name)[start:stop] for f in fields(self)))


@dataclass
class Trajectory:
    """Global models over rounds with per-round bookkeeping; its metrics rows
    are computed a block at a time (:func:`_metric_blocks`) when the CSV is
    written."""

    theta: np.ndarray               # (n_models, dim)
    times: np.ndarray               # (n_models,)
    rounds: Schedule                # the completed rounds
    fleet: Fleet
    optimum: np.ndarray
    diverged: bool = False
    divergence_round: int | None = None
    divergence_cause: str | None = None   # "overflow" (local work) or "threshold"
    never_served: int = 0
    d: np.ndarray | None = None
    metric_cadence: int = 1
    timing_s: dict | None = None     # seconds per engine stage; "metrics" sums the metric blocks

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)

    def weight_matrix(self) -> np.ndarray:
        """Realized aggregation weights per round; for deterministic
        schedules these equal the expected weights q_i(n)."""
        rows, clients, multiplicity, _ = self.rounds.participations()
        out = np.zeros((self.n_rounds, len(self.d)))
        out[rows, clients] = multiplicity * self.d[clients]
        return out


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


def _row_sums(terms: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Per row, the sum of its terms: row r owns the next ``sizes[r]``
    entries of ``terms`` along axis 0, added in order, left to right, as
    ``total += term`` from a zero ``total`` adds them, then +0.0, which
    gives a row of zeros (or none) the +0.0 of that zero start.

    Each row's terms fill the front of a padded row and zeros follow, which
    leave a running sum unchanged; np.sum would pair terms and move the
    last digit. ``np.add.accumulate`` is cumsum's running sum at less
    per-call cost."""
    n_rows = sizes.shape[0]
    width = int(sizes.max()) if n_rows else 0
    if width == 1 and terms.shape[0] == n_rows:  # one term in every row
        return terms + 0.0
    if n_rows == 1 and width:
        return np.add.accumulate(terms)[-1:] + 0.0
    pos = np.repeat(np.arange(n_rows), sizes)
    padded = np.zeros((n_rows, max(width, 1)) + terms.shape[1:])
    padded[pos, np.arange(pos.size) - np.searchsorted(pos, pos)] = terms
    return np.add.accumulate(padded, axis=1)[:, -1] + 0.0


class _Server:
    """The global models of one group of members, aggregated one segment
    of rounds at a time, and the round each member diverged at.

    ``models[:n_models]`` are the recorded models. The scheduled rounds from
    index ``n_models - 1`` on form the segment: their runs are computed,
    and they wait to be aggregated as one block."""

    def __init__(self, config: RunConfig, n_members: int):
        self.d = config.d
        self.eta_g = config.eta_g
        # the buffer doubles when a segment does not fit
        self.models = np.empty((min(config.rounds or 1023, 1023) + 1, n_members, config.fleet.dim))
        self.models[0] = config.resolved_theta0()
        self.n_models = 1
        self.live = np.ones(n_members, dtype=bool)
        self.one_each = config.policy.kind is PolicyKind.ASYNCHRONOUS  # one participation per round
        self.divergence = [None] * n_members  # per member: None, or (round, "overflow" | "threshold")
        self.seconds = 0.0

    def aggregate(self, schedule: Schedule, stop: int, work: _LocalWork) -> int | None:
        """Aggregate the segment, rounds ``n_models - 1`` to ``stop - 1`` of
        ``schedule``, from the runs in ``work``:
        theta^{n+1} = theta^n + eta_g sum_i (mult_i d_i) delta_i,
        the sum in client order. A member diverges at the first round whose
        model is not finite or passes ``DIVERGENCE_THRESHOLD`` in absolute
        value, or that delivers it a run that overflowed. Returns None
        while a member is live; once none is, the number of rounds to keep,
        up to the one the last live member diverged at, whose model is not
        recorded."""
        start = self.n_models - 1
        n_rounds = stop - start
        if n_rounds <= 0:
            return None
        started = time.perf_counter()
        if start + n_rounds >= len(self.models):
            grown = np.empty((max(2 * len(self.models), start + n_rounds + 1),) + self.models.shape[1:])
            grown[: self.n_models] = self.models[: self.n_models]
            self.models = grown
        offsets = schedule.offsets[start : stop + 1]
        rows = slice(offsets[0], offsets[-1])
        clients, multiplicity = schedule.clients[rows], schedule.multiplicity[rows]
        # one gather of the participants' runs (take costs less than fancy
        # indexing), each scaled by mult_i * d_i
        terms = (multiplicity * self.d[clients])[:, None, None] * work.deltas.take(clients, axis=0)
        if self.one_each or n_rounds == clients.shape[0] == 1:  # a round's total is its one term
            totals = terms + 0.0
        else:
            totals = _row_sums(terms, np.diff(offsets))
        block = self.models[start : start + n_rounds + 1]
        new = block[1:]
        # eta_g * total per round, then the models as running sums: the
        # accumulate adds round by round, as models[n] + eta_g * total does
        np.multiply(self.eta_g, totals, out=new)
        np.add.accumulate(block, axis=0, out=block)
        # NaN passes through the max and fails the comparison
        bounded = np.abs(new).max() <= DIVERGENCE_THRESHOLD
        overflowed = None
        if work.any_overflow:
            hit, members = np.nonzero(work.overflow[clients] >= 0)
            if hit.size:
                overflowed = np.zeros((n_rounds, len(self.live)), dtype=bool)
                overflowed[schedule.round_of[rows][hit] - start, members] = True
        kept = None
        if overflowed is not None or not bounded:
            failed = ~(np.abs(new) <= DIVERGENCE_THRESHOLD).all(axis=2)
            if overflowed is not None:
                failed |= overflowed
            failed &= self.live  # diverged members step on non-finite models
            dying = np.flatnonzero(failed.any(axis=0))
            first = failed[:, dying].argmax(axis=0)
            for r, k in zip(dying.tolist(), first.tolist()):
                cause = "overflow" if overflowed is not None and overflowed[k, r] else "threshold"
                self.divergence[r] = (start + k, cause)
            self.live[dying] = False
            if not self.live.any():
                kept = start + int(first.max()) + 1
        self.n_models = start + n_rounds + 1 if kept is None else kept
        self.seconds += time.perf_counter() - started
        return kept


@dataclass
class _GroupRun:
    """What the round loop leaves for one group of members."""

    models: np.ndarray  # (n_models, R, dim) recorded global models
    rounds: Schedule    # the kept rounds
    divergence: list    # per member: None, or (round, "overflow" | "threshold")
    timing_s: dict


def _run_group(members: list) -> _GroupRun:
    """The round loop, for members that share one schedule: their configs
    differ at most in seed material, ``eta_l`` and ``k_steps`` (see
    :func:`run_members`), and the first one's gives everything else.

    The R members step through the schedule as one (R, dim) model, each
    with its own seeded randomness, step size and step count. The rounds
    between two local-work passes of :class:`_LocalWork` (which read the
    models up to the current round) form a segment, which :class:`_Server` aggregates as one block
    right before the next pass and whenever the loop reaches the end of the
    schedule record. A member that is delivered a run that overflowed, or
    that passes ``DIVERGENCE_THRESHOLD``, diverges at that round while the
    others go on; the loop ends at the horizon or when every member has
    diverged, and then keeps the rounds up to the last divergence.

    A fixed-hardware synchronous, asynchronous or FedFix schedule comes
    whole from :func:`~asyncfed.timing.merged_schedule`; every other
    schedule grows from a :class:`_Replay` each time the loop reaches the
    end of the record. Either way :func:`_step_segments` steps from one
    pass to the next.
    """
    config = members[0]
    policy, hw, lead = config.policy, config.hw, config.seeds
    hw_rng = np.random.default_rng(lead.hardware) if hw.mode == "exponential" else None
    work = _LocalWork(members)
    server = _Server(config, len(members))
    state = init_fleet_state(list(config.fleet.compute_times), hw, hw_rng, config.initial_clocks, policy=policy)
    started = time.perf_counter()
    schedule = merged_schedule(state, policy, rounds=config.rounds, time_limit=config.time_budget)
    replay = None
    if schedule is None:
        replay = _Replay(config, state, hw_rng, np.random.default_rng(lead.sampling))
        schedule = Schedule.empty(state)
    timing_s = {"schedule": time.perf_counter() - started, "local_work": 0.0}

    # diverged members keep stepping on non-finite rows until the group ends
    with np.errstate(over="ignore", invalid="ignore"):
        kept = _step_segments(config, schedule, replay, work, server, timing_s)
    if kept is not None:
        schedule.truncate(kept)
    timing_s["aggregate"] = server.seconds
    return _GroupRun(server.models[: server.n_models], schedule, server.divergence, timing_s)


def _step_segments(config: RunConfig, schedule: Schedule, replay: _Replay | None, work: _LocalWork,
                   server: _Server, timing_s: dict) -> int | None:
    """The round loop, one segment at a time. The next pass falls at the
    round of the first participation from round n on whose anchor is past
    the last pass, and a round with a delivery staler than ``tau_max`` ends
    the segment too. When the search reaches the end of the record, its
    rounds are aggregated and ``replay`` (None: the record is whole)
    appends more. Returns what the last :meth:`_Server.aggregate`
    returns."""
    clock = time.perf_counter
    started = clock()
    rebase_all = config.policy.is_sampling  # a sampling round rebases every client
    in_flight = np.zeros(len(config.fleet), dtype=np.int64)  # each client's anchor at round n
    n = row = 0  # the search for the next pass resumes at participation ``row``
    n_rounds, stale = 0, math.inf  # the rounds read so far; the first with a delivery staler than tau_max
    while True:  # once per extension of the record
        if config.tau_max is not None:  # the rounds appended since: the loop ends at a stale one
            stale = _first_stale(schedule, n_rounds, config.tau_max)
        n_rounds, offsets, clients = len(schedule), schedule.offsets, schedule.clients
        anchors, round_of = schedule.anchors, schedule.round_of
        while True:  # once per pass
            row = _first_above(anchors, row, work.computed_through)
            end = min(n_rounds if row == anchors.shape[0] else int(round_of[row]), stale)
            timing_s["schedule"] += clock() - started
            # a pass reads the models up to round ``end``, and so does a
            # highest-loss round replayed at the end of the record; a
            # staleness error is only raised if the rounds before it leave a
            # member live
            if (kept := server.aggregate(schedule, end, work)) is not None:
                return kept
            if end == n_rounds:
                break
            if end == stale:
                _check_staleness(schedule[end], config.tau_max)  # raises
            if rebase_all:  # in flight: the participants of round ``end`` only
                in_flight.fill(end + 1)
                rows = slice(offsets[end], offsets[end + 1])
                in_flight[clients[rows]] = anchors[rows]
            else:  # rounds n to end - 1 rebase their participants on the round after
                rows = slice(offsets[n], offsets[end])
                in_flight[clients[rows]] = round_of[rows] + 1
            computing = clock()
            work.compute_pending(end, in_flight, server.models)
            started = clock()
            timing_s["local_work"] += started - computing
            # an anchor is at most its round, so round ``end`` holds no next pass
            n, row = end, int(offsets[end + 1])
        if replay is None or replay.done:
            return None
        started = clock()
        replay.extend(schedule, server.models)


def _first_above(values: np.ndarray, start: int, bound: int) -> int:
    """The first index from ``start`` on whose value exceeds ``bound``, or
    ``len(values)``: one ``argmax`` over windows that double in width, so a
    search costs about as much as the distance it covers."""
    if start < values.shape[0] and values[start] > bound:  # a pass right where the search resumes
        return start
    width = 16
    while start < values.shape[0]:
        window = values[start : start + width] > bound
        hit = int(window.argmax())
        if window[hit]:
            return start + hit
        start, width = start + width, 2 * width
    return values.shape[0]


def _first_stale(schedule: Schedule, start: int, tau_max: int) -> int | float:
    """The first round from ``start`` on with a delivery staler than
    ``tau_max``, or ``math.inf``."""
    rows = slice(schedule.offsets[start], None)
    rounds = schedule.round_of[rows]
    over = np.flatnonzero(rounds - schedule.anchors[rows] > tau_max)
    return int(rounds[over[0]]) if over.size else math.inf


class _Replay:
    """The source of a schedule that :func:`~asyncfed.timing.merged_schedule`
    does not build: :func:`~asyncfed.timing.replay_rounds` calls, one per
    block of rounds, in blocks that double from ``_FIRST_REPLAY_BLOCK`` up
    to ``_REPLAY_BLOCK``. The schedule draws from the hardware and sampling
    generators only, never from local work, so replaying ahead of the
    models gives the rounds of replaying each in turn. A highest-loss round
    reads the current model, so those rounds come one at a time.

    An asynchronous block that the time budget cuts short leaves the
    hardware generator ahead by the draws of its unplayed rounds; nothing
    reads that generator after the horizon."""

    def __init__(self, config: RunConfig, state, hw_rng, sample_rng):
        policy = config.policy
        self.config, self.state, self.hw_rng, self.sample_rng = config, state, hw_rng, sample_rng
        self.taus = list(config.fleet.compute_times)
        self.by_loss = policy.kind is PolicyKind.SAMPLE_BIASED and policy.criterion == "highest_loss"
        self.block, self.cap = (1, 1) if self.by_loss else (_FIRST_REPLAY_BLOCK, _REPLAY_BLOCK)
        self.done = False  # set once the horizon is reached

    def extend(self, schedule: Schedule, models: np.ndarray) -> None:
        """Append the next block of rounds to ``schedule``, whose models up
        to its last round are ``models``."""
        config, state, fleet = self.config, self.state, self.config.fleet
        block = self.block if config.rounds is None else min(self.block, config.rounds - state.round_index)
        losses = fleet.losses(models[state.round_index])[0] if self.by_loss else None
        played = replay_rounds(state, config.policy, self.taus, config.hw, block, schedule, hw_rng=self.hw_rng,
                               sample_rng=self.sample_rng, client_losses=losses,
                               importances=fleet.importances, time_limit=config.time_budget)
        self.done = played < block or state.round_index == config.rounds
        self.block = min(2 * self.block, self.cap)


def run(config: RunConfig) -> Trajectory:
    """Execute the aggregation loop until the horizon (or divergence): the
    one-member case of the round loop."""
    group = _run_group([config])
    (divergence,) = group.divergence
    schedule = group.rounds
    # an overflow in local work ends the run before its round is aggregated
    served = len(schedule) - (divergence is not None and divergence[1] == "overflow")
    served_ids = schedule.clients[: schedule.offsets[served]]
    n_models = len(group.models)
    return Trajectory(
        theta=group.models[:, 0],
        times=np.concatenate([[0.0], schedule.time[: n_models - 1]]),
        rounds=schedule,
        fleet=config.fleet,
        optimum=weighted_optimum(config.fleet),
        diverged=divergence is not None,
        divergence_round=None if divergence is None else divergence[0],
        divergence_cause=None if divergence is None else divergence[1],
        never_served=len(config.fleet) - int(np.count_nonzero(np.bincount(served_ids))),
        d=config.d,
        metric_cadence=config.metric_cadence,
        timing_s={**group.timing_s, "metrics": 0.0},
    )


class _DrawTable:
    """The randomness of one objective table's runs, drawn ahead: row g
    holds, for each stream of the client at row g, the next values of its
    generator, ``width`` values per local step. A stream is the generator
    of one (batching seed, client) pair, so members of one batching seed
    (member j of every value of a sweep, which share common random numbers)
    read one stream, each at its own pace, and every member reads exactly
    its own generator's values.

    On a GLM table the values are flat sample indices ``g * n + i`` for
    whole epochs, ``width`` = B: each epoch's ``n % B`` leftover samples are
    dropped, and E epochs are one ``permuted`` call on E rows of
    ``arange(n)``, the values and end state of E ``permutation(n)`` calls.
    On a quadratic table they are standard normals, ``width`` = dim, one
    ``standard_normal`` call per refill, the stream that per-run ``(K,
    dim)`` draws give; a noiseless row has no generator and reads zeros.

    ``streams`` gives each of the R members its stream, and ``k_steps`` is
    one number or one per member. Each member advances its own cursor into
    its stream, so member r's run of K_r steps is the slice ``[cursor,
    cursor + K_r * width)`` of the stream's values, and a pass takes its
    jobs' slices step-major in one ``take`` of K = max(K_r) steps, a member
    with fewer repeating its last step's values. The members of a stream
    start at its front and every pass moves each by one of its runs, so
    its leader (a member of the most steps) reads furthest ahead and its
    tail (one of the fewest) furthest behind. A row counts the passes it
    can serve before some leader holds less than one run.

    Then the row refills the streams whose leader is short: the values
    from the tail's cursor on move to the front, and the generator draws
    as much again as the stream has drawn so far, at least eight of the
    leader's runs, while the leader holds at most ``_LOCAL_FLOATS / (G *
    R)`` values (or one run and one epoch, if that is more). A member that
    would then hold more than that lags too far: it first splits off into a
    stream of its own, with its unread values and a copy of the generator.
    So a stream never holds more than one member's own table would, and a
    refill costs one generator call per stream refilled, a pass none.
    """

    def __init__(self, table, generators: list, streams, k_steps, batch_size: int | None):
        # per row: one generator per stream (a stream that splits off adds
        # its own), or None
        self.generators = [None if row is None else list(row) for row in generators]
        if isinstance(table, GlmObjective):
            n = table.n_samples
            if not 1 <= batch_size <= n:
                raise ConfigurationError("batch size must lie in [1, n_samples]")
            self.n_samples, self.width, self.unit = n, batch_size, n - n % batch_size  # unit: one epoch
            self.order = np.empty((0, n), dtype=np.intp)  # rows of arange(n), to permute
            dtype = np.intp
        else:
            self.n_samples, self.width, self.unit = None, table.dim, table.dim  # unit: one step
            dtype = float
        n_rows = len(table)
        streams = np.asarray(streams, dtype=np.intp)
        n_members, n_streams = len(streams), int(streams.max()) + 1
        k_steps = np.broadcast_to(np.asarray(k_steps, dtype=np.intp), (n_members,))
        self.need = k_steps * self.width  # per member: the values of one run
        longest = int(self.need.max())
        self.cap = max(_LOCAL_FLOATS // (n_rows * n_members), longest)
        self.bound = self.cap + self.unit - 1  # the most a leader holds after a refill
        live = np.array([g is not None for g in generators])[:, None]
        # member r's step k reads its step min(k, K_r - 1): (K, 1, R, width)
        steps = np.minimum(np.arange(k_steps.max())[:, None], k_steps - 1)
        self.offsets = (steps * self.width)[:, None, :, None] + np.arange(self.width)
        # per row: each member's stream, and each stream's leader, tail and
        # values drawn
        self.stream = np.tile(streams, (n_rows, 1))
        lead, tail = {}, {}
        for r in sorted(range(n_members), key=self.need.item):
            lead[streams.item(r)] = r  # the last is one of the most steps
            tail.setdefault(streams.item(r), r)  # one of the fewest
        self.lead = [[lead[s] for s in range(n_streams)] for _ in range(n_rows)]
        self.tail = [[tail[s] for s in range(n_streams)] for _ in range(n_rows)]
        self.drawn = [[0] * n_streams for _ in range(n_rows)]
        self._hold(np.zeros((n_rows, n_streams, longest), dtype=dtype))
        # per row: the passes it can serve (0: refill first), then the flat
        # position of each member's next value, read and moved by a pass in
        # one take and one store; ``advance`` is what a pass adds, and
        # ``last`` the flat position past each member's stream. A row
        # without generator serves every pass from its zeros.
        self.state = np.zeros((n_rows, 1 + n_members), dtype=np.intp)
        self.left, self.first = self.state[:, 0], self.state[:, 1:]
        self.left[:] = ~live[:, 0]
        self.first[:] = np.take_along_axis(self.start, self.stream, axis=1)
        self.advance = np.where(live, np.concatenate([[-1], self.need]), 0)
        self.last = self.first + np.where(live, 0, self.need)

    def _hold(self, values: np.ndarray) -> None:
        """Hold the (G, S, length) ``values``: stream s of row g starts at
        flat position ``start[g, s]``."""
        n_rows, n_slots, length = values.shape
        self.values, self.flat = values, values.reshape(-1)
        self.start = np.arange(0, values.size, length).reshape(n_rows, n_slots)

    def _resize(self, n_slots: int, length: int) -> None:
        """Hold up to ``n_slots`` streams per row of ``length`` values each,
        every cursor moving with its stream."""
        n_rows, held, old_length = self.values.shape
        grown = np.zeros((n_rows, n_slots, length), dtype=self.values.dtype)
        grown[:, :held, :old_length] = self.values
        self._hold(grown)
        rows = np.arange(n_rows)[:, None] * (n_slots * length - held * old_length)
        moved = rows + self.stream * (length - old_length)  # how far each member's stream moved
        self.first += moved
        self.last += moved

    def take(self, rows: np.ndarray) -> np.ndarray:
        """The next run's draws of each of the distinct table rows
        ``rows``, as one (K, P, R, width) array."""
        state = self.state.take(rows, axis=0)
        if np.count_nonzero(state[:, 0]) < len(rows):
            for g in rows[state[:, 0] == 0].tolist():
                self._refill(g)
            state = self.state.take(rows, axis=0)
        self.state[rows] = state + self.advance.take(rows, axis=0)
        return self.flat.take(state[:, 1:, None] + self.offsets)

    def _refill(self, g: int) -> None:
        """Refill the streams of row ``g`` whose leader holds less than one
        run, and count the passes the row can serve then."""
        plan, self.left[g] = self._plan(g)
        length = self.values.shape[2]
        if (longest := max(kept + fresh for _, _, kept, fresh in plan)) > length:
            self._resize(self.values.shape[1], max(longest, min(2 * length, self.cap + self.unit)))
        n, flat, generators, drawn = self.n_samples, self.flat, self.generators[g], self.drawn[g]
        begin, first = self.start[g].tolist(), self.first[g]
        # per stream: how far its values move to the front, and where they end
        moved, ends = [0] * len(drawn), self.last[g].take(self.lead[g]).tolist()
        for s, tail, kept, fresh in plan:
            b = begin[s]
            cursor = first.item(tail) - b  # the tail's, from the stream's front
            if kept:
                flat[b:b + kept] = flat[b + cursor:b + cursor + kept]
            out = flat[b + kept:b + kept + fresh]
            if n is None:
                generators[s].standard_normal(out=out)
            else:
                epochs = fresh // self.unit
                if epochs > len(self.order):
                    self.order = np.tile(np.arange(n), (epochs, 1))
                out[:] = generators[s].permuted(self.order[:epochs], axis=1)[:, :self.unit].reshape(-1)
                if out.min() < 0 or out.max() >= n:
                    raise ConfigurationError("batch indices out of range")
                out += g * n  # flat sample index into the table
            moved[s], ends[s] = cursor, b + kept + fresh
            drawn[s] += fresh
        if len(drawn) > 1:  # per member, that of its stream
            stream = self.stream[g]
            moved, ends = np.array(moved).take(stream), np.array(ends).take(stream)
        else:
            (moved,), (ends,) = moved, ends
        first -= moved
        self.last[g] = ends

    def _plan(self, g: int) -> tuple[list, int]:
        """The streams of row ``g`` to refill, as (stream, its tail, values
        kept, values to draw), and the passes the row can serve after the
        refill. A member that would then hold more than ``bound`` values
        first splits off."""
        while True:
            first, last = self.first[g].tolist(), self.last[g].tolist()
            plan, behind, passes = [], [], []
            for s, (lead, tail, drawn) in enumerate(zip(self.lead[g], self.tail[g], self.drawn[g])):
                kept, need = last[lead] - first[lead], self.need.item(lead)
                if kept < need:
                    fresh = max(need - kept, min(max(drawn, 8 * need), self.cap - kept))
                    fresh = -(-fresh // self.unit) * self.unit
                    passes.append((kept + fresh) // need)
                    kept = last[tail] - first[tail]
                    plan.append((s, tail, kept, fresh))
                    if kept + fresh > self.bound:
                        unread = self.last[g] - self.first[g]
                        behind += np.flatnonzero((self.stream[g] == s) & (unread + fresh > self.bound)).tolist()
                else:
                    passes.append(kept // need)
            if not behind:
                return plan, min(passes)
            self._split(g, behind)

    def _split(self, g: int, members: list) -> None:
        """Give each of ``members`` of row ``g`` a stream of its own: its
        unread values and a copy of its stream's generator."""
        lead, tail, drawn, generators = self.lead[g], self.tail[g], self.drawn[g], self.generators[g]
        left = set()
        for r in members:
            s, slot = int(self.stream[g, r]), len(drawn)
            if slot == self.values.shape[1]:
                self._resize(min(2 * slot, self.stream.shape[1]), self.values.shape[2])
            b, a, e = int(self.start[g, slot]), int(self.first[g, r]), int(self.last[g, r])
            self.flat[b:b + e - a] = self.flat[a:e]
            self.first[g, r], self.last[g, r], self.stream[g, r] = b, b + e - a, slot
            generators.append(copy.deepcopy(generators[s]))
            lead.append(r)
            tail.append(r)
            drawn.append(drawn[s])
            left.add(s)
        for s in left:  # a stream keeps its leader; its tail is now the member next behind
            stayed = np.flatnonzero(self.stream[g] == s)
            tail[s] = int(stayed[np.argmin(self.need.take(stayed))])


def _draw_table(config: RunConfig, member_seeds, k_steps) -> _DrawTable | None:
    """The fleet table's :class:`_DrawTable` for members with ``k_steps``
    (one number, or one per member), or None where every run takes exact
    full gradients (``full_gradient``, or a quadratic table without noise).

    A client's stream of a member is the generator keyed by (the member's
    batching seed, client id). Members of one batching seed read one
    stream, so the table seeds one generator per distinct seed and noisy
    client, and each member still reads its own generator's values.
    """
    table = config.fleet.table
    glm = isinstance(table, GlmObjective)
    live = np.ones(len(table), dtype=bool) if glm else table.noise_std > 0.0
    if config.full_gradient or not live.any():
        return None
    seeds = {}  # each distinct batching seed, as a tuple, and its stream
    streams = [seeds.setdefault((s.batching,) if isinstance(s.batching, (int, np.integer)) else tuple(s.batching),
                                len(seeds))
               for s in member_seeds]
    generators = [[np.random.default_rng([*key, i]) for key in seeds] if on else None
                  for i, on in enumerate(live.tolist())]
    batch_size = (config.batch_size or table.batch_size) if glm else None
    return _DrawTable(table, generators, streams, k_steps, batch_size)


def _check_staleness(outcome: Round, tau_max: int) -> None:
    """Raise StalenessCapError when a delivery of the round is staler than
    ``tau_max``; called once the rounds before it are aggregated and leave
    a member live."""
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
    ``computed_through``. ``draws`` is the fleet table's
    :class:`_DrawTable` (None where runs take full gradients); a pass hands
    each ``local_sgd`` call of ``chunk`` jobs its slice and draws nothing
    outside a refill.
    """

    def __init__(self, members: list):
        config = members[0]
        fleet = config.fleet
        table = fleet.table
        n_clients, n_members = len(fleet), len(members)
        self.config = config
        # one number where every member agrees, else one per member
        self.k_steps, self.eta_l = _member_field(members, "k_steps", np.intp), _member_field(members, "eta_l", float)
        self.draws = _draw_table(config, [m.seeds for m in members], self.k_steps)
        self.deltas = np.zeros((n_clients, n_members, fleet.dim))
        self.overflow = np.full((n_clients, n_members), -1)
        self.any_overflow = False  # set once a pass has seen an overflow
        self.computed_through = -1
        k, dim = int(np.max(self.k_steps)), fleet.dim
        # a run holds K + 1 iterates; a batched GLM run also its K * B
        # draws and the samples and targets they gather, a full-gradient
        # one its shard's n samples and targets; a noisy quadratic run its
        # K * dim draws and their scaled noise
        if isinstance(table, GlmObjective):
            held = k * self.draws.width * (dim + 2) if self.draws is not None else table.n_samples * (dim + 1)
        else:
            held = 2 * k * dim if self.draws is not None else 0
        self.chunk = max(1, _LOCAL_FLOATS // (n_members * (dim * (k + 1) + held)))  # jobs per local_sgd call

    def compute_pending(self, index: int, anchor: np.ndarray, models: np.ndarray) -> None:
        """Run every client in flight at round ``index`` whose anchor model
        exists (anchor at most ``index``) and whose run is not computed: the
        round's participants, and the clients still busy on an earlier
        model. ``anchor`` holds each client's anchor in flight: a
        participant's is that of the run it delivers in the round, and a
        client that sampling left out of the round is rebased past it, so
        it is left out. ``models`` holds the models up to round ``index``."""
        pending = np.flatnonzero((anchor <= index) & (anchor > self.computed_through))
        table, chunk, draws = self.config.fleet.table, self.chunk, self.draws
        for lo in range(0, pending.size, chunk):
            part = pending[lo:lo + chunk]
            out = local_sgd(table, part, models[anchor[part]], self.k_steps, self.eta_l,
                            None if draws is None else draws.take(part))
            self.deltas[part] = out.delta
            self.overflow[part] = -1 if out.overflow_step is None else out.overflow_step
            self.any_overflow |= out.overflow_step is not None
        self.computed_through = index


def _member_field(members: list, name: str, dtype):
    """The members' ``name``: one number where they all agree, else an
    (R,) array."""
    values = [getattr(m, name) for m in members]
    return values[0] if values.count(values[0]) == len(values) else np.array(values, dtype=dtype)


def _kept_rows(n_models: int, cadence: int) -> np.ndarray:
    """Recorded models that get a metrics row: every ``cadence``-th and the last."""
    kept = np.arange(0, n_models, cadence)
    return kept if kept[-1] == n_models - 1 else np.append(kept, n_models - 1)


def _block_rows(fleet: Fleet) -> int:
    """Rows per metrics block: whole encoder blocks (``BLOCK_CELLS`` loss
    cells each) to about ``_METRIC_CELLS`` cells, rounded up to a whole
    number of the fleet table's ``row_chunk``, so that a block's losses
    have the bits of one evaluation of every row."""
    encoder = max(1, BLOCK_CELLS // len(fleet))
    rows = encoder * max(1, _METRIC_CELLS // (encoder * len(fleet)))
    chunk = fleet.table.row_chunk
    return -(-rows // chunk) * chunk


def _loss_blocks(fleet: Fleet, thetas: np.ndarray):
    """For each block of rows of ``thetas``: its first row, its C-order
    (rows, M) client losses and the federated loss of each row.

    The losses go into one buffer that the next block overwrites. Overflow
    in a diverged model's losses gives inf or NaN cells without a
    warning."""
    n_rows, step = thetas.shape[0], _block_rows(fleet)
    held = min(step, n_rows)
    buffer = np.empty((held, len(fleet)))
    weighted = np.empty((len(fleet), held))  # client-major: row i holds client i's terms
    importances = fleet.importances[:, None]
    for lo in range(0, n_rows, step):
        hi = min(lo + step, n_rows)
        block = buffer[: hi - lo]
        w = weighted[:, : hi - lo]
        with np.errstate(over="ignore", invalid="ignore"):
            fleet.losses(thetas[lo:hi], out=block)
            np.multiply(block.T, importances, out=w)
            loss_fed = _running_sum(w)
        yield lo, block, loss_fed


def _running_sum(terms: np.ndarray) -> np.ndarray:
    """Per column of the C-order (M, rows) ``terms``, the running sum of its
    entries from the first row down, as ``total += term`` from a -0.0
    ``total`` adds them (a first term keeps its bits, a -0.0 included).

    Summed over the slow axis of two or more columns, np.add.reduce adds
    each row of terms to the columns' totals in turn; np.sum along a row (the
    fast axis) would pair terms and move the last digit, so one column is an
    ``np.add.accumulate``."""
    if terms.shape[1] == 1:
        return np.add.accumulate(terms[:, 0])[-1:]
    return np.add.reduce(terms, axis=0, initial=-0.0)


def _metric_blocks(traj: Trajectory):
    """The :class:`Metrics` of each block of kept rows, in order; the client
    losses as :func:`_loss_blocks` holds them. Each block's time is added to
    ``traj.timing_s["metrics"]``."""
    clock = time.perf_counter
    started = clock()
    kept = _kept_rows(traj.theta.shape[0], traj.metric_cadence)
    thetas = traj.theta[kept]
    for lo, block, loss_fed in _loss_blocks(traj.fleet, thetas):
        rows = kept[lo:lo + block.shape[0]]
        # rows with a round come first in ``kept``; the final model's row
        # has no participants and no surrogate
        recorded = rows[rows < traj.n_rounds]
        unrecorded = rows.shape[0] - recorded.shape[0]
        pos, clients, multiplicity, sizes = traj.rounds.participations(recorded)
        masks = _participant_masks(pos, clients, sizes, len(traj.d)) + [None] * unrecorded
        with np.errstate(over="ignore", invalid="ignore"):
            # the surrogate: mult * d_i * loss_i summed over the participants
            # in client order, left to right
            terms = (multiplicity * traj.d[clients]) * block[pos, clients]
            surrogates = np.append(_row_sums(terms, sizes), [math.nan] * unrecorded)
            # one stacked ddot per row, the BLAS call and bits of np.dot(gap, gap)
            gap = thetas[lo:lo + block.shape[0]] - traj.optimum
            dist_sq = (gap[:, None, :] @ gap[:, :, None]).reshape(-1)
        traj.timing_s["metrics"] += clock() - started
        yield Metrics(rows, traj.times[rows], masks, loss_fed, surrogates, dist_sq, block)
        started = clock()


def _participant_masks(pos: np.ndarray, clients: np.ndarray, sizes: np.ndarray, n_clients: int) -> list:
    """Per row the int whose bit i is set when client i is among the
    participations ``clients`` of that row (``pos``; ``sizes`` per row)."""
    n_rows = sizes.shape[0]
    if pos.shape[0] == n_rows and (sizes == 1).all():  # one participant a row, as asynchronous rounds have
        return [1 << client for client in clients.tolist()]
    if n_clients < 63:  # the masks fit int64
        masks = np.zeros(n_rows, dtype=np.int64)
        np.bitwise_or.at(masks, pos, np.left_shift(1, clients))
        return masks.tolist()
    served = np.zeros((n_rows, n_clients), dtype=bool)
    served[pos, clients] = True
    return [int.from_bytes(row.tobytes(), "little") for row in np.packbits(served, axis=1, bitorder="little")]


def _tail_stats(series: np.ndarray) -> tuple[float, float]:
    """Mean and standard deviation of a loss series over its trailing 5% of
    recorded rounds."""
    tail = series[-_tail_rows(series.shape[0]):]
    return float(tail.mean()), float(tail.std())


def _tail_rows(n_rows: int) -> int:
    """The rows of the trailing window :func:`_tail_stats` averages."""
    return max(1, math.ceil(0.05 * n_rows))


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
    final_loss: tuple[float, float] | None    # _tail_stats of the losses; None when diverged

    @property
    def diverged(self) -> bool:
        return self.divergence_round is not None


def run_members(members) -> list[MemberRun]:
    """One run per entry of ``members``, configs that each carry their
    member's seed material, in order.

    Members step through the round loop together as one (R, dim) model when
    they see one schedule: their configs hold the same objects in every
    field but the seed material, ``eta_l`` and ``k_steps``, as configs made
    from one by ``replace()`` do, and, unless the config
    :func:`shares_schedule`, on the hardware and sampling seeds too; a
    highest-loss schedule reads the members' own models, so each of its
    members is a group of one. A group holds at most ``MAX_ENSEMBLE_SEEDS``
    members; a larger one runs in parts. Either way a member's models, round
    count, divergence round and final-window loss equal those of :func:`run`
    with its config, bit for bit.
    """
    members = list(members)
    groups = {}
    for i, config in enumerate(members):
        groups.setdefault(_group_key(config, i), []).append(i)
    runs = [None] * len(members)
    for indices in groups.values():
        for lo in range(0, len(indices), MAX_ENSEMBLE_SEEDS):
            part = indices[lo : lo + MAX_ENSEMBLE_SEEDS]
            out = _run_group([members[i] for i in part])
            live = [j for j, divergence in enumerate(out.divergence) if divergence is None]
            finals = iter(_final_windows(members[part[0]], out.models, live))
            thetas = out.models.transpose(1, 0, 2)  # (R, n_models, dim)
            for i, theta, divergence in zip(part, thetas, out.divergence):
                config = members[i]
                if divergence is None:
                    runs[i] = MemberRun(config.seeds, theta, len(out.rounds), None, next(finals))
                else:
                    n = divergence[0]
                    runs[i] = MemberRun(config.seeds, theta[: n + 1], n + 1, n, None)
    return runs


def _final_windows(config: RunConfig, models: np.ndarray, live: list) -> list:
    """The ``final_loss`` of each member in ``live`` of a group's recorded
    models ``models`` (n_models, R, dim): the mean and standard deviation of
    its federated loss over the final window, with the bits of
    :func:`_tail_stats` over its whole series.

    The window's rows are evaluated from a whole number of the fleet
    table's row chunks, in blocks of :func:`_block_rows` rows as
    :func:`_loss_blocks` evaluates them, so every loss has the bits of an
    evaluation of all kept rows. The members go in slices of about
    ``_METRIC_CELLS`` loss cells; each block of a slice is summed over the
    clients by one :func:`_running_sum`, and the windows of all members
    are averaged along the member axis at once."""
    fleet = config.fleet
    kept = _kept_rows(models.shape[0], config.metric_cadence)
    window = _tail_rows(kept.shape[0])
    chunk = fleet.table.row_chunk
    rows = kept[(kept.shape[0] - window) // chunk * chunk:]
    n_rows, n_clients = rows.shape[0], len(fleet)
    step = min(n_rows, _block_rows(fleet))
    per = max(1, _METRIC_CELLS // (step * n_clients))  # members per slice
    losses = np.empty((min(per, len(live)) * step, n_clients))
    weighted = np.empty((n_clients, losses.shape[0]))  # client-major: row i holds client i's terms
    importances = fleet.importances[:, None]
    fed = np.empty((len(live), n_rows))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(live), per):
            part = live[lo:lo + per]
            for first in range(0, n_rows, step):
                span = rows[first:first + step]
                height, cells = span.shape[0], len(part) * span.shape[0]
                for j, member in enumerate(part):
                    fleet.losses(models[span, member], out=losses[j * height:(j + 1) * height])
                np.multiply(losses[:cells].T, importances, out=weighted[:, :cells])
                fed[lo:lo + len(part), first:first + height] = _running_sum(weighted[:, :cells]).reshape(-1, height)
    tail = fed[:, n_rows - window:]
    return list(zip(tail.mean(axis=1).tolist(), tail.std(axis=1).tolist()))


# the fields in which members of one group may differ, and the others
_MEMBER_FIELDS = ("seeds", "eta_l", "k_steps")
_shared_fields = operator.attrgetter(*(f.name for f in fields(RunConfig) if f.name not in _MEMBER_FIELDS))


def _group_key(config: RunConfig, index: int) -> tuple:
    """Members with equal keys run as one group: the identity of every field
    of ``config`` but ``_MEMBER_FIELDS`` (configs made from one by
    ``replace()`` hold the same objects), then what else fixes its schedule
    (nothing, the hardware and sampling seeds, or for highest-loss the
    member itself)."""
    key = tuple(map(id, _shared_fields(config)))
    policy = config.policy
    if policy.kind is PolicyKind.SAMPLE_BIASED and policy.criterion == "highest_loss":
        return key + (index,)
    if shares_schedule(config):
        return key
    return key + (config.seeds.hardware, config.seeds.sampling)


# ---------------------------------------------------------------------------
# Vectorized scalar-quadratic ensembles
# ---------------------------------------------------------------------------

def check_scalar_ensemble(state: OracleState, checkpoints, n_runs: int) -> None:
    """Raise ConfigurationError, before anything is allocated, unless
    :func:`run_scalar_ensemble` can run ``n_runs`` members of ``state`` to
    the last of ``checkpoints`` within ``MAX_HELD_ANCHORS`` floats a buffer;
    UnsupportedConfigError when the clients' rates differ, since a round
    moves every member by one step."""
    if any(rate != state.rates[0] for rate in state.rates):
        raise UnsupportedConfigError("the Monte-Carlo ensemble needs equal rates eta_g d_i")
    if checkpoints and min(checkpoints) < 0:
        raise ConfigurationError("checkpoints must be nonnegative rounds")
    if n_runs < 1 or not checkpoints or max(checkpoints) < 1:
        raise ConfigurationError("need at least one run and one round")
    m_clients = len(state.rates)
    if state.scheme == "sync":
        if n_runs > MAX_HELD_ANCHORS:
            raise ConfigurationError(
                f"n_runs must be at most {MAX_HELD_ANCHORS} (the member vector), got {n_runs}"
            )
    elif n_runs * m_clients > MAX_HELD_ANCHORS:
        array = "the held-anchor buffer" if state.scheme == "async" else "the per-round scores"
        raise ConfigurationError(
            f"n_runs x clients must be at most {MAX_HELD_ANCHORS} ({array}), "
            f"got {n_runs} x {m_clients}"
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


def run_scalar_ensemble(state: OracleState, checkpoints, n_runs: int, seed: int) -> ScalarEnsembleResult:
    """Vectorized reruns of ``state``'s update rule, ``n_runs`` members
    seeded by ``seed``, one row per member. The members run to the last of
    ``checkpoints``; statistics are taken at round 0 and at each checkpoint
    only.

    A round moves every member by phi times the participants' total rate
    k eta_g d times their mean pull, for k = M, m or 1 participants a round,
    which is the engine's update under equal weights. Equivalent in
    distribution to driving :func:`run` with the matching policy and
    symmetric exponential hardware; kept separate so oracle comparisons can
    afford 1e5 members. The asynchronous members' held anchors are one
    (members, M) buffer, and their rounds run as member blocks x round
    chunks over it (:func:`_async_rounds`).
    """
    check_scalar_ensemble(state, checkpoints, n_runs)
    rng = np.random.default_rng(seed)
    optima = np.asarray(state.optima, dtype=float)
    m_clients = optima.shape[0]
    theta_star = state.theta_star
    participants = {"sync": m_clients, "sync_uniform": state.m, "async": 1}[state.scheme]
    step = (state.rates[0] * participants) * state.phi
    rounds = np.array(sorted({0, *checkpoints}))

    theta = np.full(n_runs, float(state.theta0))
    # only the asynchronous members hold anchors; the others train from theta
    held = np.full((n_runs, m_clients), float(state.theta0)) if state.scheme == "async" else None

    mean, se_mean, sm, se_sm = np.empty((4, rounds.shape[0]))

    def record(i):
        mean[i] = theta.mean()
        se_mean[i] = theta.std(ddof=1) / math.sqrt(n_runs) if n_runs > 1 else 0.0
        gap_sq = (theta - theta_star) ** 2
        sm[i] = gap_sq.mean()
        se_sm[i] = gap_sq.std(ddof=1) / math.sqrt(n_runs) if n_runs > 1 else 0.0

    record(0)
    pending = None  # the second client of a pair whose first fell on a checkpoint
    for due in range(1, rounds.shape[0]):
        gap = int(rounds[due] - rounds[due - 1])
        if state.scheme == "async":
            pending = _async_rounds(rng, optima, step, theta, held, gap, pending)
        else:
            for _ in range(gap):
                if state.scheme == "sync":
                    theta = theta + step * (theta_star - theta)
                else:  # sync_uniform
                    scores = rng.random((n_runs, m_clients))
                    chosen = np.argpartition(scores, state.m - 1, axis=1)[:, : state.m]
                    theta = theta + step * (optima[chosen].mean(axis=1) - theta)
        record(due)
    return ScalarEnsembleResult(rounds, mean, se_mean, sm, se_sm, n_runs)


def _async_rounds(rng, optima, step, theta, held, n_rounds, pending):
    """Advance the asynchronous ensemble ``n_rounds`` rounds in place.

    Each round draws one client j per member and updates
    ``theta += step * (optima[j] - held[., j])``, then ``held[., j] = theta``.
    Up to M = 256, rounds 2k+1 and 2k+2 of the ensemble (counted from its
    round 0) share one draw ``v = rng.integers(0, M*M, members,
    dtype=np.uint16)``, decoded by :func:`_split_pairs` into ``v // M`` and
    ``v mod M``: a bijection of [0, M^2) onto [0, M)^2, so the two clients
    are exactly uniform and independent. Above M = 256 each round draws
    ``rng.integers(0, M, members, dtype=np.uint16)`` up to M = 65,536 and
    the default int64 call above. ``pending`` holds the clients of this
    call's first round if they are the second half of a pair drawn by the
    previous call, else it is None; the return value is the same for the
    round after this call's last, so the stream does not depend on where the
    checkpoints fall.

    The rounds run in chunks of ``ASYNC_CHUNK_ROUNDS``: a chunk's draws are
    made first, in round order as one round at a time makes them (numpy's
    16-bit generator buffers within a call, so one call for the whole chunk
    would draw other values), into a buffer of the smallest unsigned dtype
    that holds M - 1, a pair that straddles two chunks keeping its second
    client for the next one; then each block of ``ENSEMBLE_BLOCK_MEMBERS``
    members runs all the chunk's rounds on its rows of ``held``, which stay
    in cache meanwhile. Each member sees the same operations in the same
    order, so every result has the same bits as a round-at-a-time loop that
    draws the same way.
    """
    n_runs, m_clients = held.shape
    block = min(ENSEMBLE_BLOCK_MEMBERS, n_runs)
    chunk = np.empty((min(ASYNC_CHUNK_ROUNDS, n_rounds), n_runs), np.min_scalar_type(m_clients - 1))
    paired = m_clients <= 1 << 8
    if paired:
        m16 = np.uint16(m_clients)  # built only here: np.uint16(65536) would overflow
        scratch = np.empty(n_runs, np.uint16)
        carry = np.empty(n_runs, chunk.dtype)
    else:
        # numpy's 16-bit bounded generator is exactly uniform and ~1.5x
        # faster than the int64 default at 1e5 draws; it holds M up to 2^16
        draw_dtype = np.uint16 if m_clients <= 1 << 16 else np.int64
    base = np.arange(0, block * m_clients, m_clients)  # row starts of a block's flat anchors
    j, flat_j = np.empty((2, block), dtype=np.intp)
    for start in range(0, n_rounds, chunk.shape[0]):
        draws = chunk[: min(chunk.shape[0], n_rounds - start)]
        if paired:
            first = 0 if pending is None else 1
            if first:
                draws[0] = pending
            for r in range(first, draws.shape[0], 2):
                second = draws[r + 1] if r + 1 < draws.shape[0] else carry
                v = rng.integers(0, m_clients * m_clients, n_runs, dtype=np.uint16)
                _split_pairs(v, m16, draws[r], second, scratch)
            pending = carry if (draws.shape[0] - first) % 2 else None
        else:
            for row in draws:
                row[:] = rng.integers(0, m_clients, n_runs, dtype=draw_dtype)
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
    return pending


def _split_pairs(v, m16, first, second, scratch) -> None:
    """Decode uint16 draws ``v`` in [0, M^2) into ``first = v // M`` and
    ``second = v - M * (v // M)``, in place; ``m16`` is M as ``np.uint16``
    and ``scratch`` a uint16 row of ``v``'s length. The explicit uint16
    scalar and loop dtype give the same values under numpy 1.24's
    value-based casting and NEP 50 (``np.divmod`` and ``np.remainder`` are
    ~2x slower on uint16)."""
    np.floor_divide(v, m16, out=first, casting="unsafe")
    np.multiply(first, m16, out=scratch, dtype=np.uint16)
    np.subtract(v, scratch, out=second, casting="unsafe")


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
    """The metrics rows of ``traj`` in the trajectory schema, computed and
    written a block at a time (:func:`_metric_blocks`), so no (rows, M) loss
    matrix is held."""
    write_trajectory_table(path, len(traj.d), _metric_blocks(traj))


def write_trajectory_table(path, n_clients: int, blocks) -> None:
    """Write the trajectory schema, the one writer behind it: the rows of
    each :class:`Metrics` of ``blocks`` in turn, comma-separated, LF
    endings, 17 significant digits.

    A row without a participant mask (the final model's) leaves its
    participants cell empty, as a NaN surrogate loss does its cell. Rows
    are encoded by :func:`_rows_text`, their cells by
    :func:`asyncfed.textfmt.format_rows`, exactly as
    ``'%.17g' % x``. A block whose ``client_losses`` is not a
    (rows, ``n_clients``) array of real numbers raises ``TypeError`` before
    it is encoded; ``path`` then keeps its old content.
    """
    with atomic_open(path, binary=True) as fh:
        fh.write(",".join(trajectory_header(n_clients)).encode("ascii") + b"\n")
        for block in blocks:
            _check_losses(block.client_losses, (len(block), n_clients))
            fh.writelines(_rows_text(block, n_clients))


def _rows_text(m: Metrics, n_clients: int):
    """The CSV text of the rows of ``m``, in pieces; an empty block has none.

    Up to 53 clients a mask is an integer below 2^53, whose ``'%d'`` is the
    ``'%.17g'`` of its double, as is a round's, so each row is encoded
    whole, a missing mask as 0; the few lines of a chunk without a mask or
    with a NaN surrogate then get those cells blanked. Otherwise the five
    numeric leading cells of the rows are encoded as one block, the client
    losses as another, and each row joins its leading cells, the text of
    its mask (empty for none) and its losses, with a NaN surrogate's
    ``nan`` cut out."""
    masks = m.participant_mask
    no_surrogate = np.isnan(m.loss_surrogate)
    columns = (m.round, m.wall_time, m.loss_fed, m.loss_surrogate, m.dist_sq)
    if n_clients <= 53:
        whole = np.empty((len(m), 6 + n_clients))
        for j, column in zip((0, 1, 3, 4, 5), columns):
            whole[:, j] = column
        whole[:, 2] = [0 if mask is None else mask for mask in masks]
        whole[:, 6:] = m.client_losses
        blank = no_surrogate | np.array([mask is None for mask in masks], dtype=bool)
        step = max(1, BLOCK_CELLS // (6 + n_clients))
        for start in range(0, len(m), step):
            text = format_rows(whole[start:start + step])
            partial = np.flatnonzero(blank[start:start + step]).tolist()
            if partial:
                lines = text.splitlines(keepends=True)
                for j in partial:
                    cells = lines[j].split(b",", 5)
                    if masks[start + j] is None:
                        cells[2] = b""
                    if no_surrogate[start + j]:
                        cells[4] = b""
                    lines[j] = b",".join(cells)
                text = b"".join(lines)
            yield text
        return
    head = format_rows(np.stack(columns, axis=1))
    heads, at = memoryview(head), 0
    step = max(1, BLOCK_CELLS // n_clients)
    for start in range(0, len(m), step):
        text = format_rows(m.client_losses[start:start + step])
        view, pieces, pos = memoryview(text), [], 0
        for mask, nan in zip(masks[start:start + step], no_surrogate[start:start + step].tolist()):
            # "n,t," then the mask, then "fed,surrogate,dist," and the losses
            cut = head.index(b",", head.index(b",", at) + 1) + 1
            line = head.index(b"\n", cut)
            end = text.index(b"\n", pos) + 1
            mid = heads[cut:line]
            if nan:
                surrogate = head.index(b",", cut) + 1
                mid = head[cut:surrogate] + head[surrogate + 3:line]
            pieces += (heads[at:cut], b"," if mask is None else b"%d," % mask, mid, b",", view[pos:end])
            at, pos = line + 1, end
        yield b"".join(pieces)


def _check_losses(client_losses, shape) -> None:
    if not isinstance(client_losses, np.ndarray):
        raise TypeError(f"expected a {shape} array of client losses, got {type(client_losses).__name__}")
    if client_losses.dtype.kind not in "biuf" or client_losses.shape != shape:
        raise TypeError(f"expected a {shape} array of client losses, got {client_losses.dtype} "
                        f"of shape {client_losses.shape}")
