"""Client compute clocks and the server waiting-time policy.

A round advances the fleet by the policy's waiting time, collects the set of
clients whose local work lands inside it, and rebases those clients on the
round they will receive next. The fleet's clocks are one array and a round
is a few array operations on it. Fixed hardware counts integer ticks on one
exact scale, so cycle-based invariants hold without float drift.

Simultaneous completions under the purely asynchronous policy are serialized:
the lowest-index finisher gets its own round and the remaining finishers
follow in zero-duration rounds. One aggregation per contribution is what
makes the per-cycle round count equal sum(lcm/tau_i) and keeps window
averages of the expected weights exact.

On fixed hardware the synchronous, asynchronous and FedFix schedules are
known before any model exists: :func:`merged_schedule` builds a whole run's
rounds from one event merge into a columnar :class:`Schedule`, the record
that :func:`replay_rounds` extends a block of rounds at a time for every
other schedule, with one stepping loop per block (and, for an asynchronous
block on exponential hardware, one call for its draws);
:func:`advance_round` is its one-round call.
:func:`steady_period` records one period of the asynchronous and FedBuff
schedules, which the staleness and window analyses read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import ConfigurationError, UnsupportedConfigError


class PolicyKind(Enum):
    SYNCHRONOUS = "synchronous"
    ASYNCHRONOUS = "asynchronous"
    FEDFIX = "fedfix"
    FEDBUFF = "fedbuff"
    SAMPLE_UNIFORM = "sample_uniform"
    SAMPLE_MD = "sample_md"
    SAMPLE_BIASED = "sample_biased"


_SAMPLING_KINDS = frozenset(
    {PolicyKind.SAMPLE_UNIFORM, PolicyKind.SAMPLE_MD, PolicyKind.SAMPLE_BIASED}
)

BIASED_CRITERIA = ("fastest", "highest_loss")


def _exact(value) -> Fraction | int:
    """Exact representation of a time quantity; ints stay ints."""
    if isinstance(value, int):
        return value
    frac = Fraction(value)
    return int(frac) if frac.denominator == 1 else frac


@dataclass(frozen=True)
class WaitPolicy:
    """Server waiting-time policy and its parameters."""

    kind: PolicyKind
    delta_t: Fraction | float | None = None   # fedfix only
    m: int | None = None                      # fedbuff and sampling kinds
    criterion: str | None = None              # biased sampling only

    def __post_init__(self):
        if self.kind is PolicyKind.FEDFIX:
            if self.delta_t is None or self.delta_t <= 0:
                raise ConfigurationError("fedfix requires delta_t > 0")
            object.__setattr__(self, "delta_t", _exact(self.delta_t))
        if self.kind is PolicyKind.FEDBUFF or self.kind in _SAMPLING_KINDS:
            if self.m is None or self.m < 1:
                raise ConfigurationError(f"{self.kind.value} requires m >= 1")
        if self.kind is PolicyKind.SAMPLE_BIASED:
            if self.criterion not in BIASED_CRITERIA:
                raise ConfigurationError(
                    f"biased sampling criterion must be one of {BIASED_CRITERIA}"
                )

    @property
    def is_sampling(self) -> bool:
        return self.kind in _SAMPLING_KINDS


@dataclass(frozen=True)
class HardwareModel:
    """Client update-time model: deterministic or exponential with the
    client's compute_time as mean."""

    mode: str = "fixed"

    def __post_init__(self):
        if self.mode not in ("fixed", "exponential"):
            raise ConfigurationError(f"unknown hardware mode {self.mode!r}")


_INT64_MAX = int(np.iinfo(np.int64).max)
_P_ATOL = math.sqrt(np.finfo(np.float64).eps)


@dataclass(eq=False)
class FleetState:
    """Mutable per-client clocks and staleness anchors.

    ``remaining[i]`` is the time client i still needs on its current local
    work and ``period[i]`` the value its clock re-arms from. On fixed
    hardware both are integer ticks of ``1 / scale`` time units, where
    ``scale`` is the lcm of the denominators of the exact compute times,
    initial clocks and fixed window, so every event time is an exact
    integer: ``int64`` when all ticks fit, Python ints (``object``)
    otherwise. On exponential hardware ``remaining`` is in time units
    (``float64``), ``period`` holds the mean times and ``scale`` is 1.
    ``clock`` is the server time in the same units as ``remaining`` (a
    Python int or float). ``anchor[i]`` is the round of the global model
    client i trains from. Owned and mutated by exactly one simulation loop.
    """

    remaining: np.ndarray
    period: np.ndarray
    anchor: np.ndarray
    exact: bool
    scale: int = 1
    clock: int | float = 0
    round_index: int = 0

    @property
    def n_clients(self) -> int:
        return len(self.remaining)

    @cached_property
    def ones(self) -> np.ndarray:
        """Read-only int64 ones, one per client: a leading slice is the
        multiplicity of a round whose participants deliver once each, and
        costs far less than a fresh ``np.ones`` per round."""
        ones = np.ones(self.n_clients, dtype=np.int64)
        ones.flags.writeable = False
        return ones

    @property
    def time(self) -> float:
        """Server time in time units; int true division rounds correctly,
        so this is the float nearest the exact clock."""
        return self.clock / self.scale

    def ticks(self, value) -> int:
        """An exact time on this fleet's tick scale."""
        num, den = exact_ratio(value)
        if self.scale % den:
            raise ConfigurationError(
                f"time {value!r} is not on the fleet's tick scale; pass the policy "
                "to init_fleet_state"
            )
        return num * (self.scale // den)

    def limit_ticks(self, time_limit) -> int:
        """The floor of ``time_limit`` on the tick scale."""
        num, den = exact_ratio(time_limit)
        return num * self.scale // den


def exact_ratio(value) -> tuple[int, int]:
    """Numerator and denominator of an exact time, in lowest terms."""
    if not isinstance(value, (int, float, Fraction)):
        value = Fraction(value)
    return value.as_integer_ratio()


def fedfix_period(tau, delta_t) -> int:
    """ceil(tau / delta_t) in integers: the rounds between a client's
    deliveries under fixed-interval aggregation."""
    (tau_num, tau_den), (dt_num, dt_den) = exact_ratio(tau), exact_ratio(delta_t)
    return -(-tau_num * dt_den // (tau_den * dt_num))


def _tick_arrays(*groups, scale: int):
    """Exact times as integer ticks on ``scale``, one array per group, all
    ``int64`` when every tick fits and Python ints otherwise."""
    ticks = [
        [num * (scale // den) for num, den in map(exact_ratio, group)] for group in groups
    ]
    fits = max(abs(t) for group in ticks for t in group) <= _INT64_MAX
    return [np.array(group, dtype=np.int64 if fits else object) for group in ticks]


def check_initial_clocks(initial_clocks, n_clients: int, hw: HardwareModel) -> None:
    """Raise ``ConfigurationError`` unless ``initial_clocks`` is None or
    holds one offset per client on fixed hardware."""
    if initial_clocks is None:
        return
    if hw.mode != "fixed":
        raise ConfigurationError("initial clock offsets require fixed hardware")
    if len(initial_clocks) != n_clients:
        raise ConfigurationError("initial_clocks length must match the fleet")


def init_fleet_state(
    taus,
    hw: HardwareModel,
    rng: np.random.Generator | None = None,
    initial_clocks=None,
    *,
    policy: WaitPolicy | None = None,
) -> FleetState:
    """All clients start busy on the round-0 model at time 0.

    ``initial_clocks`` overrides the first remaining times (fixed hardware
    only), which phase-shifts client deliveries without changing their
    periods. ``policy`` puts a fixed window's ``delta_t`` on the tick scale;
    without it the window must already lie on the scale of the times.
    """
    taus = list(taus)
    if not taus:
        raise ConfigurationError("empty fleet")
    check_initial_clocks(initial_clocks, len(taus), hw)
    anchor = np.zeros(len(taus), dtype=np.int64)
    if hw.mode != "fixed":
        if rng is None:
            raise ConfigurationError("exponential hardware needs an RNG")
        means = np.array([float(t) for t in taus])
        return FleetState(rng.exponential(scale=means), means, anchor, exact=False, clock=0.0)
    starts = taus if initial_clocks is None else list(initial_clocks)
    window = [policy.delta_t] if policy is not None and policy.kind is PolicyKind.FEDFIX else []
    scale = math.lcm(*(exact_ratio(v)[1] for v in taus + starts + window))
    period, remaining, _ = _tick_arrays(taus, starts, window, scale=scale)
    if initial_clocks is not None and (remaining <= 0).any():
        raise ConfigurationError("initial clocks must be positive")
    return FleetState(remaining, period, anchor, exact=True, scale=scale)


class Round(NamedTuple):
    """One aggregation round: its index n, its length, and the participant
    set S_n as arrays aligned by position. ``clients`` is ascending; client
    ``clients[j]`` delivers ``multiplicity[j]`` times, trained from the model
    of round ``anchors[j]``. A named tuple, because one is built per round
    and costs a third of a frozen dataclass.

    The length is kept as the fleet state counts it, ``length`` units of
    ``1 / scale``: integer ticks on fixed hardware, a float with scale 1
    on exponential hardware. ``delta_t`` turns it into time units on
    demand, so a round builds no ``Fraction``."""

    index: int
    length: int | float
    scale: int
    clients: np.ndarray         # int64
    multiplicity: np.ndarray    # int64
    anchors: np.ndarray         # int64

    @property
    def delta_t(self) -> int | Fraction | float:
        """The round length in time units: exact (an int on scale 1, else a
        Fraction) on fixed hardware, the float itself otherwise."""
        return self.length if self.scale == 1 else Fraction(self.length, self.scale)

    @property
    def staleness(self) -> np.ndarray:
        return self.index - self.anchors


def _grown(buffer: np.ndarray, size: int) -> np.ndarray:
    """``buffer``, or a copy at least twice its size if it holds fewer than
    ``size`` entries."""
    if size <= buffer.shape[0]:
        return buffer
    grown = np.empty(max(2 * buffer.shape[0], size), dtype=buffer.dtype)
    grown[: buffer.shape[0]] = buffer
    return grown


class Schedule:
    """The rounds of a run as columns.

    Round n lasts ``length[n]`` units of ``1 / scale``, as :class:`Round`
    counts it, and ends at server time ``time[n]``. Its participations are
    rows ``offsets[n]:offsets[n + 1]`` of ``clients`` (ascending within a
    round), ``multiplicity``, ``anchors`` and ``round_of`` (n).
    ``schedule[n]`` is round n as a :class:`Round`, and iteration yields
    every round so.

    The columns are the fronts of buffers; :meth:`append` appends rounds
    and doubles a buffer they do not fit.
    """

    def __init__(self, scale: int, length, time, offsets, clients, multiplicity, anchors):
        self.scale = scale
        self.n_rounds = length.shape[0]
        self._length, self._time, self._offsets = length, time, offsets
        self._clients, self._multiplicity, self._anchors = clients, multiplicity, anchors
        rounds, ends = np.arange(self.n_rounds), offsets[: self.n_rounds + 1]
        # one participation a round, as in an asynchronous record: no repeat
        one_each = ends[-1] == self.n_rounds and (ends[1:] != ends[:-1]).all()
        self._round_of = rounds if one_each else np.repeat(rounds, np.diff(ends))

    @classmethod
    def empty(cls, state: FleetState) -> Schedule:
        """A record without rounds, whose lengths take the dtype of
        ``state``'s clocks."""
        none = np.empty(0, dtype=np.int64)
        return cls(state.scale, np.empty(0, dtype=state.remaining.dtype), np.empty(0),
                   np.zeros(1, dtype=np.int64), none, none, none)

    length = property(lambda self: self._length[: self.n_rounds])
    time = property(lambda self: self._time[: self.n_rounds])
    offsets = property(lambda self: self._offsets[: self.n_rounds + 1])
    clients = property(lambda self: self._clients[: self._offsets[self.n_rounds]])
    multiplicity = property(lambda self: self._multiplicity[: self._offsets[self.n_rounds]])
    anchors = property(lambda self: self._anchors[: self._offsets[self.n_rounds]])
    round_of = property(lambda self: self._round_of[: self._offsets[self.n_rounds]])

    def __len__(self) -> int:
        return self.n_rounds

    def __getitem__(self, n):
        if isinstance(n, slice):
            return [self[i] for i in range(*n.indices(self.n_rounds))]
        n = int(n) + (self.n_rounds if n < 0 else 0)
        if not 0 <= n < self.n_rounds:
            raise IndexError(f"round {n} of {self.n_rounds}")
        lo, hi = self._offsets[n], self._offsets[n + 1]
        return Round(n, self._length.item(n), self.scale, self._clients[lo:hi],
                     self._multiplicity[lo:hi], self._anchors[lo:hi])

    def __iter__(self):
        return (self[n] for n in range(self.n_rounds))

    def append(self, length, time, sizes, clients, multiplicity, anchors) -> None:
        """Append the next rounds, given as columns: each round's length,
        end time and number of participations, then the clients,
        multiplicities and anchors of those participations, round by
        round."""
        n, rows = self.n_rounds, int(self._offsets[self.n_rounds])
        end, stop = n + len(length), rows + clients.shape[0]
        if end > self._length.shape[0] or end >= self._offsets.shape[0]:
            self._length, self._time, self._offsets = (
                _grown(self._length, end), _grown(self._time, end), _grown(self._offsets, end + 1))
        if stop > self._round_of.shape[0]:
            columns = self._clients, self._multiplicity, self._anchors, self._round_of
            self._clients, self._multiplicity, self._anchors, self._round_of = (_grown(c, stop) for c in columns)
        self._length[n:end], self._time[n:end] = length, time
        self._clients[rows:stop], self._multiplicity[rows:stop], self._anchors[rows:stop] = (
            clients, multiplicity, anchors)
        if end == n + 1:  # one round (a highest-loss replay appends one at a time)
            self._offsets[end], self._round_of[rows:stop] = stop, n
        else:
            offsets = self._offsets[n + 1 : end + 1]
            np.cumsum(sizes, out=offsets)
            offsets += rows
            self._round_of[rows:stop] = np.arange(n, end).repeat(sizes)
        self.n_rounds = end

    def truncate(self, n_rounds: int) -> None:
        """Keep the first ``n_rounds`` rounds."""
        self.n_rounds = min(self.n_rounds, n_rounds)

    def participations(self, rounds: np.ndarray | None = None):
        """Every participation in ``rounds`` (ascending round indices; all
        rounds by default) as aligned arrays: the position of its round in
        ``rounds``, the client and the multiplicity; then the number of
        participations of each of those rounds."""
        offsets = self.offsets
        sizes = np.diff(offsets)
        if rounds is None:
            return self.round_of, self.clients, self.multiplicity, sizes
        sizes = sizes[rounds]
        ends = np.cumsum(sizes)
        rows = np.arange(ends[-1] if sizes.size else 0) + np.repeat(offsets[rounds] - (ends - sizes), sizes)
        return (np.repeat(np.arange(sizes.size), sizes), self._clients.take(rows),
                self._multiplicity.take(rows), sizes)


def fastest_first(taus) -> list[int]:
    """Client indices by compute time, ties by index: the order of the
    fastest-first sampling criterion."""
    return sorted(range(len(taus)), key=lambda i: (taus[i], i))


# the most values one standard_exponential call of an asynchronous block draws
_BLOCK_DRAWS = 1 << 16


def advance_round(
    state: FleetState,
    policy: WaitPolicy,
    taus,
    hw: HardwareModel,
    *,
    hw_rng: np.random.Generator | None = None,
    sample_rng: np.random.Generator | None = None,
    client_losses=None,
    importances=None,
    time_limit=None,
) -> Round | None:
    """Advance one aggregation round, mutating ``state``: the one-round
    call of :func:`replay_rounds`.

    Returns the participant set (with its anchors) and the round duration.
    When ``time_limit`` is given and the round would end past it, the state
    is left untouched and ``None`` is returned. Such a round has drawn
    nothing, unless it samples: to learn its length, a sampling round
    draws its uniform or multinomial sample and, on exponential hardware,
    the sampled clients' times. ``hw`` is the model the
    state was built with and ``taus`` orders the fastest-first sampling
    criterion; the clocks themselves come from ``state``.
    """
    n = state.round_index
    lengths, _, _, clients, multiplicity, anchors = _play(
        state, policy, taus, 1, hw_rng, sample_rng, client_losses, importances, time_limit)
    if not lengths:
        return None
    return Round(n, lengths[0], state.scale, clients, multiplicity, anchors)


def replay_rounds(
    state: FleetState,
    policy: WaitPolicy,
    taus,
    hw: HardwareModel,
    n_rounds: int,
    schedule: Schedule,
    *,
    hw_rng: np.random.Generator | None = None,
    sample_rng: np.random.Generator | None = None,
    client_losses=None,
    importances=None,
    time_limit=None,
) -> int:
    """Advance ``state`` by up to ``n_rounds`` rounds and append them to
    ``schedule``: the rounds and clocks of ``n_rounds`` calls of
    :func:`advance_round`, bit for bit. Returns the rounds played, fewer
    than ``n_rounds`` only when the next round would end past
    ``time_limit``.

    The rounds share one stepping loop. On exponential hardware an
    asynchronous block takes its clocks from one ``standard_exponential``
    call of up to ``_BLOCK_DRAWS`` values, the values its per-round draws
    would take in the same order; cut short by the time limit, it leaves
    ``hw_rng`` ahead by the draws of its unplayed rounds. Every other
    policy draws a round's clocks in that round. The highest-loss
    criterion ranks ``client_losses`` in every round of the block.

    Every clock is rebased by the round length rather than kept as an
    absolute finish time, because absolute times would round exponential
    clocks differently.
    """
    lengths, clocks, sizes, clients, multiplicity, anchors = _play(
        state, policy, taus, n_rounds, hw_rng, sample_rng, client_losses, importances, time_limit)
    if lengths:
        times = clocks if not state.exact else [clock / state.scale for clock in clocks]
        schedule.append(lengths, times, sizes, clients, multiplicity, anchors)
    return len(lengths)


def _play(state, policy, taus, n_rounds, hw_rng, sample_rng, client_losses, importances, time_limit):
    """Up to ``n_rounds`` rounds of ``policy``, which advance ``state``, as
    columns: their lengths (a list), the clocks they end at, their numbers
    of participations, and the clients (ascending within a round),
    multiplicities and anchors of those participations."""
    if state.exact:
        hw_rng = None
    elif hw_rng is None:
        raise ConfigurationError("exponential hardware needs an RNG")
    if time_limit is None:
        limit = None
    else:
        limit = state.limit_ticks(time_limit) if state.exact else time_limit
    if policy.kind is PolicyKind.ASYNCHRONOUS:
        return _async_rounds(state, n_rounds, hw_rng, limit)
    if policy.is_sampling:
        return _sampling_rounds(state, policy, taus, n_rounds, hw_rng, sample_rng, client_losses, importances,
                                limit)
    return _selection_rounds(state, policy, n_rounds, hw_rng, limit)


def _async_rounds(state, n_rounds, hw_rng, limit):
    """Asynchronous rounds: the first finisher delivers alone and draws
    its next clock, from one draw of up to ``_BLOCK_DRAWS`` values."""
    rem, period, anchor = state.remaining, state.period, state.anchor
    n, clock = state.round_index, state.clock
    lengths, clocks, clients, anchors = [], [], [], []
    pool, at = [], 0
    for played in range(n_rounds):
        i = int(rem.argmin())  # ties serialized, lowest index first
        dt = rem.item(i)
        if limit is not None and clock + dt > limit:
            break
        rem -= dt
        if hw_rng is None:
            rem[i] = period[i]
        else:
            if at == len(pool):
                pool, at = hw_rng.standard_exponential(min(n_rounds - played, _BLOCK_DRAWS)).tolist(), 0
            rem[i] = pool[at] * period.item(i)
            at += 1
        anchors.append(anchor.item(i))
        n += 1
        anchor[i] = n
        clock += dt
        lengths.append(dt)
        clocks.append(clock)
        clients.append(i)
    state.clock, state.round_index = clock, n
    ones = _ones(state, len(clients))
    return lengths, clocks, ones, np.array(clients, dtype=np.int64), ones, np.array(anchors, dtype=np.int64)


def _selection_rounds(state, policy, n_rounds, hw_rng, limit):
    """Synchronous, FedFix and FedBuff rounds: a round lasts as long as the
    longest clock, the window or the m-th shortest clock, and every client
    whose clock runs out within it delivers."""
    rem, period, anchor = state.remaining, state.period, state.anchor
    n, clock, exact, kind = state.round_index, state.clock, state.exact, policy.kind
    if kind is PolicyKind.FEDFIX:
        window = state.ticks(policy.delta_t) if exact else float(policy.delta_t)
    elif kind is PolicyKind.FEDBUFF:
        if policy.m > state.n_clients:
            raise ConfigurationError("fedbuff m exceeds the fleet size")
        k = policy.m - 1
    lengths, clocks, picked, anchors = [], [], [], []
    for _ in range(n_rounds):
        if kind is PolicyKind.SYNCHRONOUS:
            dt = rem.max()
        elif kind is PolicyKind.FEDFIX:
            dt = window
        else:  # the m-th shortest clock, as np.partition(rem, k)[k] gives it
            dt = rem.copy()
            dt.partition(k)
            dt = dt[k]
        selected = (rem <= dt).nonzero()[0]
        dt = int(dt) if exact else float(dt)
        if limit is not None and clock + dt > limit:
            break
        anchors.append(anchor[selected])
        rem -= dt
        times = period[selected]
        rem[selected] = times if hw_rng is None else hw_rng.standard_exponential(times.shape[0]) * times
        n += 1
        anchor[selected] = n
        clock += dt
        lengths.append(dt)
        clocks.append(clock)
        picked.append(selected)
    state.clock, state.round_index = clock, n
    return _columns(state, lengths, clocks, picked, None, anchors)


def _sampling_rounds(state, policy, taus, n_rounds, hw_rng, sample_rng, client_losses, importances, limit):
    """Per-round client sampling: selected clients train on the current
    model, everyone else idles (treated as infinitely slow for the round)."""
    n_clients, m, kind = state.n_clients, policy.m, policy.kind
    if m > n_clients:
        raise ConfigurationError("sample size m exceeds the fleet size")
    if kind is PolicyKind.SAMPLE_UNIFORM:
        if sample_rng is None:
            raise ConfigurationError("uniform sampling needs a sampling RNG")
    elif kind is PolicyKind.SAMPLE_MD:
        if sample_rng is None:
            raise ConfigurationError("multinomial sampling needs a sampling RNG")
        if importances is None:
            raise ConfigurationError("multinomial sampling needs client importances")
        p = np.asarray(importances, dtype=float)
        # choice's own checks: one per client, nonnegative, summing to 1 within sqrt(eps)
        if p.shape != (n_clients,) or not (p >= 0).all() or abs(math.fsum(p) - 1.0) > _P_ATOL:
            raise ConfigurationError("multinomial sampling needs one probability per client, summing to 1")
        # the CDF Generator.choice draws from: p.cumsum() / p.cumsum()[-1]
        cdf = p.cumsum()
        cdf /= cdf[-1]
    elif policy.criterion == "fastest":
        fixed = np.array(fastest_first(taus)[:m], dtype=np.int64)
    else:
        if client_losses is None:
            raise ConfigurationError("highest_loss criterion needs client losses")
        fixed = np.argsort(-np.asarray(client_losses, dtype=float), kind="stable")[:m]
    period, anchor = state.period, state.anchor
    n, clock, exact = state.round_index, state.clock, state.exact
    lengths, clocks, picked, counted, anchors = [], [], [], [], []
    for _ in range(n_rounds):
        clients = None
        if kind is PolicyKind.SAMPLE_UNIFORM:
            drawn = sample_rng.choice(n_clients, size=m, replace=False)
        elif kind is PolicyKind.SAMPLE_MD:
            # the draws of sample_rng.choice(n_clients, m, replace=True, p=p),
            # without rebuilding the CDF every round
            picks = cdf.searchsorted(sample_rng.random(m), side="right")
            drawn = list(dict.fromkeys(picks.tolist()))  # first-appearance order
            counts = np.bincount(picks, minlength=n_clients)
            clients = np.flatnonzero(counts)
            counts = counts[clients]
        else:
            drawn = fixed
        # draws follow the selection order, as one hardware draw per client would
        times = period[drawn]
        if hw_rng is not None:
            times = hw_rng.standard_exponential(times.shape[0]) * times
        dt = int(times.max()) if exact else float(times.max())
        if limit is not None and clock + dt > limit:
            break
        if clients is None:
            clients, counts = np.sort(drawn), state.ones[:m]
        anchors.append(anchor[clients])
        n += 1
        anchor[:] = n
        clock += dt
        lengths.append(dt)
        clocks.append(clock)
        picked.append(clients)
        counted.append(counts)
    state.clock, state.round_index = clock, n
    return _columns(state, lengths, clocks, picked, counted, anchors)


def _ones(state: FleetState, size: int) -> np.ndarray:
    """The multiplicities of ``size`` participations that deliver once
    each, as a read-only view: of ``state``'s ones, or of one 1."""
    return state.ones[:size] if size <= state.n_clients else np.broadcast_to(state.ones[:1], (size,))


def _columns(state, lengths, clocks, picked, counted, anchors):
    """:func:`_play`'s columns of rounds whose participants ``picked`` (one
    array a round) deliver ``counted`` times each (None: once each)."""
    if not picked:
        none = np.empty(0, dtype=np.int64)
        return lengths, clocks, [], none, none, none
    if len(picked) == 1:  # a round's arrays as they are
        clients, anchors = picked[0], anchors[0]
    else:
        clients, anchors = np.concatenate(picked), np.concatenate(anchors)
    if counted is None:
        multiplicity = _ones(state, clients.shape[0])
    else:
        multiplicity = counted[0] if len(counted) == 1 else np.concatenate(counted)
    return lengths, clocks, [p.shape[0] for p in picked], clients, multiplicity, anchors


_MERGED_KINDS = frozenset({PolicyKind.SYNCHRONOUS, PolicyKind.ASYNCHRONOUS, PolicyKind.FEDFIX})
# the rounds one run may record, one model a round in each member's buffer
# (128 MiB at dim 1): a horizon of more is a config error, where allocating
# its schedule would fail or replaying it would not end
MAX_ROUNDS = 1 << 24


def merged_schedule(state: FleetState, policy: WaitPolicy, *, rounds: int | None = None,
                    time_limit=None) -> Schedule | None:
    """The schedule of a fresh fixed-hardware ``state`` under the
    synchronous, asynchronous or FedFix policy up to the horizon (``rounds``
    rounds, or the rounds that end by ``time_limit``), from one event merge:
    the rounds, times and anchors :func:`advance_round` gives one round at a
    time. None where the loop must run it: exponential hardware, the other
    policies, and clocks or a horizon beyond int64 ticks.

    With first clocks s_i and periods tau_i in ticks, the asynchronous
    policy serves client i's deliveries at s_i + k tau_i in (time, client)
    order. Under FedFix client i delivers every ceil(tau_i / delta_t)
    rounds from round ceil(s_i / delta_t) - 1, and the synchronous policy
    serves every client every round. A delivery trains from the model after
    the same client's previous delivery, or from round 0's. A time horizon
    of more than ``MAX_ROUNDS`` rounds is a ConfigurationError, raised
    before anything is allocated.
    """
    if state.remaining.dtype != np.int64 or policy.kind not in _MERGED_KINDS:
        return None
    if rounds is not None and rounds > _INT64_MAX:
        return None
    limit = None if time_limit is None else state.limit_ticks(time_limit)
    if limit is not None and limit > _INT64_MAX:
        return None
    starts, period = state.remaining, state.period
    kind = policy.kind
    if kind is PolicyKind.ASYNCHRONOUS:
        if limit is None:
            limit = _async_horizon(starts, period, rounds)
            if limit is None:
                return None
        else:
            # summed as Python ints: counts near int64 each would wrap an int64 sum
            _check_horizon(sum(_delivered_by(starts, period, limit).tolist()), time_limit)
        order, ticks, client, anchors = _async_merge(starts, period, limit, rounds)
        ends, clients, anchors = ticks.take(order), client.take(order), anchors.take(order)
        offsets = np.arange(ends.shape[0] + 1)
    else:
        if kind is PolicyKind.SYNCHRONOUS:
            first, step = int(starts.max()), int(period.max())
        else:
            first = step = state.ticks(policy.delta_t)
        if limit is not None:
            rounds = 0 if limit < first else (limit - first) // step + 1
            _check_horizon(rounds, time_limit)
        if first + (rounds - 1) * step > _INT64_MAX:
            return None
        ends = first + step * np.arange(rounds)
        if kind is PolicyKind.SYNCHRONOUS:
            m = starts.shape[0]
            offsets = np.arange(rounds + 1) * m
            clients, anchors = np.tile(np.arange(m), rounds), np.repeat(np.arange(rounds), m)
        else:
            offsets, clients, anchors = _fedfix_merge(starts, period, step, rounds)
    return Schedule(state.scale, np.diff(ends, prepend=0), _tick_times(ends, state.scale), offsets,
                    clients, np.ones(clients.shape[0], dtype=np.int64), anchors)


def _check_horizon(n_rounds: int, time_limit) -> None:
    """ConfigurationError where the time horizon ``time_limit`` gives more
    than ``MAX_ROUNDS`` rounds."""
    if n_rounds > MAX_ROUNDS:
        raise ConfigurationError(f"horizon time {time_limit} gives {n_rounds} rounds, above the {MAX_ROUNDS} "
                                 "one run may record")


def _delivered_by(starts, period, tick):
    """Per client, its asynchronous deliveries s_i + k tau_i by ``tick``."""
    return np.maximum((tick - starts) // period + 1, 0)


def _async_merge(starts, period, limit, rounds=None, origin=0):
    """The asynchronous deliveries that land by tick ``limit``, client by
    client: the order that serves the first ``rounds`` of them (default:
    all), and each one's tick, client and anchor, the anchor counted from
    round ``origin``. A stable sort of the client-major sequences serves
    equal ticks lowest client first."""
    counts = _delivered_by(starts, period, limit).astype(np.int64, copy=False)
    served = counts > 0
    client = np.repeat(np.arange(counts.shape[0]), counts)
    first = (np.cumsum(counts) - counts)[served]  # each client's first entry
    k = np.arange(client.shape[0])
    k -= np.repeat(first, counts[served])
    ticks = np.repeat(period, counts)
    ticks *= k
    ticks += np.repeat(starts, counts)
    # numpy's stable sort is a radix sort on 16-bit keys, which hold ticks below 2^16
    order = np.argsort(ticks.astype(np.uint16) if limit < 1 << 16 else ticks, kind="stable")[:rounds]
    rank = np.empty(client.shape[0], dtype=np.int64)
    rank[order] = np.arange(order.shape[0])
    # a client's previous delivery is the entry before it, and is served
    # first; the anchors take the place of k
    anchors = k
    np.add(rank[:-1], 1 - origin, out=anchors[1:])
    anchors[first] = -origin
    return order, ticks, client, anchors


def _async_horizon(starts, period, rounds: int) -> int | None:
    """The tick of the ``rounds``-th asynchronous delivery, or None if it
    is past int64: a bisection on the count of deliveries by tick t,
    sum_i max(0, floor((t - s_i) / tau_i) + 1)."""

    def reached(tick):
        return np.minimum(_delivered_by(starts, period, tick), rounds).sum() >= rounds

    # the fastest client alone delivers ``rounds`` times by hi
    fits = rounds - 1 <= (_INT64_MAX - starts) // period
    lo, hi = -1, int(np.where(fits, starts + (rounds - 1) * period, _INT64_MAX).min())
    if not reached(hi):
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if reached(mid) else (mid, hi)
    return hi


def _fedfix_merge(starts, period, window, rounds):
    """The participations of ``rounds`` FedFix rounds of ``window`` ticks
    each: row offsets per round, clients and anchors."""
    first = (starts - 1) // window       # ceil(s_i / window) - 1
    every = (period - 1) // window + 1   # fedfix_period
    counts = np.maximum((rounds - 1 - first) // every + 1, 0)
    client = np.repeat(np.arange(counts.shape[0]), counts)
    k = np.arange(client.shape[0]) - np.repeat(np.cumsum(counts) - counts, counts)
    served = first.take(client) + k * every.take(client)
    order = np.argsort(served, kind="stable")
    client, k, served = client.take(order), k.take(order), served.take(order)
    anchors = np.where(k == 0, 0, served - every.take(client) + 1)
    offsets = np.concatenate([[0], np.cumsum(np.bincount(served, minlength=rounds))])
    return offsets, client, anchors


def _tick_times(ticks: np.ndarray, scale: int) -> np.ndarray:
    """``ticks / scale`` in time units, each the float nearest the exact
    quotient, as :attr:`FleetState.time` gives it. Past 2^53 an int64 does
    not convert to float64 exactly, and then only a power-of-two scale,
    which divides exactly (short of the subnormal range), keeps the
    vectorized quotient correctly rounded; Python's int division rounds the
    rest."""
    if (not scale & (scale - 1) and scale.bit_length() < 960) or (
        scale <= 1 << 53 and ticks.max(initial=0) <= 1 << 53
    ):
        times = ticks.astype(np.float64)
        if scale != 1:  # integer times need no division
            times /= float(scale)
        return times
    return np.array([t / scale for t in ticks.tolist()], dtype=np.float64)


SCHEDULE_ROUND_CAP = 200_000


def participations_per_cycle(taus) -> list[int]:
    """Deliveries per client in one cycle of the asynchronous fixed-hardware
    schedule: c_i = nu / tau_i, with nu the rational lcm of the exact times
    (lcm of the numerators over gcd of the denominators)."""
    exact = [exact_ratio(t) for t in taus]
    num = math.lcm(*(t_num for t_num, _ in exact))
    den = math.gcd(*(t_den for _, t_den in exact))
    return [(num // t_num) * (t_den // den) for t_num, t_den in exact]


def staleness_bound(policy: WaitPolicy, hw: HardwareModel, taus) -> int:
    """Maximum rounds a delivered contribution can lag behind its anchor.

    Synchronous participation and per-round sampling never lag. Fixed-window
    aggregation is bounded by the longest client period, max_i
    ceil(tau_i / delta_t) (see :func:`fedfix_period`), one above the lag it
    realizes: a delivery trains from the model after the client's previous
    one. The asynchronous and buffered bounds are the largest round minus
    anchor of their :func:`steady_period`, which raises
    UnsupportedConfigError past ``SCHEDULE_ROUND_CAP`` rounds.
    """
    if hw.mode != "fixed":
        raise UnsupportedConfigError(
            "staleness is a random variable under exponential hardware; "
            "measure it empirically from a trajectory"
        )
    kind = policy.kind
    if kind is PolicyKind.SYNCHRONOUS or policy.is_sampling:
        return 0
    if kind is PolicyKind.FEDFIX:
        return max(fedfix_period(t, policy.delta_t) for t in taus)
    if kind is PolicyKind.ASYNCHRONOUS or kind is PolicyKind.FEDBUFF:
        _, period = steady_period(policy, taus)
        return int((period.round_of - period.anchors).max())
    raise UnsupportedConfigError(f"no staleness bound for policy {kind}")


def steady_period(policy: WaitPolicy, taus) -> tuple[int, Schedule]:
    """The start round and the rounds of one steady period of the
    fixed-hardware asynchronous or FedBuff schedule of fresh clocks
    ``taus``, as a :class:`Schedule` on the fleet's tick scale whose round n
    is round ``start + n``. Its anchors count rounds from the same origin
    (round ``start`` is 0, earlier rounds are negative), so ``round_of -
    anchors``, and each round's ``staleness``, are the lags. Every anchor
    in it was set by a delivery, so its lags are the steady ones.
    An asynchronous record's multiplicities are a read-only view of ones.
    Raises UnsupportedConfigError when the period, or for FedBuff its first
    repeat plus one period, takes more than ``SCHEDULE_ROUND_CAP`` rounds.

    Asynchronous client i delivers at k tau_i, k >= 1, a pattern that
    repeats every nu, the rational lcm of the times; the period is the
    sum(c_i) rounds (:func:`participations_per_cycle`) that end in
    (2 tau_max, 2 tau_max + nu], from one event merge (ticks past int64 as
    Python ints). FedBuff is replayed until its clocks repeat, found by
    Brent's algorithm (Brent, BIT 20, 1980) with two clock arrays: a
    leading replay parks its clocks at rounds 2^k - 1 and looks up to 2^k
    rounds further for them, then two replays one period apart meet at the
    start of the cycle. The replays that compare clocks after every round
    take one :func:`advance_round` at a time, as does the head start of one
    period; the record is one :func:`replay_rounds` block.
    """
    taus = list(taus)
    cap = SCHEDULE_ROUND_CAP
    if policy.kind is PolicyKind.ASYNCHRONOUS:
        counts = participations_per_cycle(taus)
        n_rounds = sum(counts)
        if n_rounds > cap:
            raise UnsupportedConfigError(
                f"the asynchronous schedule repeats only every {n_rounds} rounds, "
                f"beyond the {cap}-round cap of the staleness analysis"
            )
        # on the fleet's tick scale nu is c_0 tau_0, and client i's clock nu / c_i
        scale = math.lcm(*(exact_ratio(t)[1] for t in taus))
        num, den = exact_ratio(taus[0])
        cycle = counts[0] * num * (scale // den)
        ticks = [cycle // c for c in counts]
        warm = 2 * max(ticks)
        start = sum(warm // t for t in ticks)  # the deliveries by 2 tau_max
        # Python ints past int64: slow, but exact
        periods = np.array(ticks, dtype=np.int64 if warm + cycle <= _INT64_MAX else object)
        order, ends, clients, anchors = _async_merge(periods, periods, warm + cycle, origin=start)
        rows = order[start : start + n_rounds]
        ends = ends.take(order[start - 1 : start + n_rounds])
        clients, anchors = clients.take(rows), anchors.take(rows)
        # each array goes before the next columns are made, and the ones are a read-only view:
        # the peak, which sets the fresh pages a call touches, stays near the merge's
        del order, rows
        length, time = np.diff(ends), _tick_times(ends[1:], scale)
        del ends
        return start, Schedule(scale, length, time, np.arange(n_rounds + 1), clients,
                               np.broadcast_to(np.int64(1), (n_rounds,)), anchors)
    if policy.kind is not PolicyKind.FEDBUFF:
        raise UnsupportedConfigError(f"no steady-period record for policy {policy.kind}")

    hw = HardwareModel("fixed")

    def replay():
        return init_fleet_state(taus, hw, policy=policy)

    def step(state):
        return advance_round(state, policy, taus, hw)

    def unsettled():
        return UnsupportedConfigError(
            f"the {policy.kind.value} schedule does not settle into a steady period "
            f"within {cap} rounds"
        )

    # a cycle that fits the cap (start + 2 period <= cap) is found before
    # round 2 cap: the clocks parked at round 2^k - 1 >= start, 2^k >= period,
    # come back at round 2^k - 1 + period < 2 start + 3 period
    lead = replay()
    parked = lead.remaining.copy()
    step(lead)
    power = period = 1
    while not np.array_equal(lead.remaining, parked):
        if lead.round_index >= 2 * cap:
            raise unsettled()
        if period == power:
            parked = lead.remaining.copy()
            power *= 2
            period = 0
        step(lead)
        period += 1

    lead, trail = replay(), replay()
    for _ in range(period):
        step(lead)
    while not np.array_equal(lead.remaining, trail.remaining):
        step(lead)
        step(trail)
    start = lead.round_index
    if start + period > cap:
        raise unsettled()
    record = Schedule.empty(lead)
    replay_rounds(lead, policy, taus, hw, period, record)
    anchors = record.anchors
    anchors -= start  # a view of the record's column
    return start, record
