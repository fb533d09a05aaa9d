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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    _limit: tuple = field(default=(None, None), repr=False)  # (time limit, its ticks)
    _cdf: tuple = field(default=(None, None), repr=False)    # (importances, their sampling CDF)

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

    def duration(self, dt):
        """A round length in time units: exact (an int on scale 1, else a
        Fraction) on fixed hardware, the float itself otherwise."""
        if not self.exact or self.scale == 1:
            return dt
        return Fraction(dt, self.scale)

    def ticks(self, value) -> int:
        """An exact time on this fleet's tick scale."""
        num, den = exact_ratio(value)
        if self.scale % den:
            raise ConfigurationError(
                f"time {value!r} is not on the fleet's tick scale; pass the policy "
                "to init_fleet_state"
            )
        return num * (self.scale // den)

    def exceeds(self, dt, time_limit) -> bool:
        """Whether a round of length ``dt`` would end past ``time_limit``.

        The exact clock compares in ticks: an integer tick count exceeds the
        limit exactly when it exceeds the floor of the limit's tick value,
        which is worked out once per limit.
        """
        if not self.exact:
            return self.clock + dt > time_limit
        if time_limit is not self._limit[0]:
            num, den = exact_ratio(time_limit)
            self._limit = (time_limit, num * self.scale // den)
        return self.clock + dt > self._limit[1]

    def sampling_cdf(self, importances) -> np.ndarray:
        """The CDF multinomial sampling draws from: ``Generator.choice``'s
        ``p.cumsum() / p.cumsum()[-1]``, worked out once per importance
        vector (told apart by identity, as the fleet's is one read-only
        array) instead of once per round."""
        if importances is not self._cdf[0]:
            p = np.asarray(importances, dtype=float)
            # choice's own checks: one per client, nonnegative, summing to 1 within sqrt(eps)
            if p.shape != (self.n_clients,) or not (p >= 0).all() or abs(math.fsum(p) - 1.0) > _P_ATOL:
                raise ConfigurationError("multinomial sampling needs one probability per client, summing to 1")
            cdf = p.cumsum()
            cdf /= cdf[-1]
            self._cdf = (importances, cdf)
        return self._cdf[1]

    def arm(self, idx, rng):
        """Fresh local-work times for clients ``idx``, in that order: the
        tick period on fixed hardware, an exponential draw with that mean
        otherwise. Scaling standard draws gives the stream and the bits of
        ``rng.exponential(scale=means)``, one draw per client, without its
        slow array path."""
        if self.exact:
            return self.period[idx]
        if rng is None:
            raise ConfigurationError("exponential hardware needs an RNG")
        return rng.standard_exponential(len(idx)) * self.period[idx]


def exact_ratio(value) -> tuple[int, int]:
    """Numerator and denominator of an exact time, in lowest terms."""
    if not isinstance(value, (int, float, Fraction)):
        value = Fraction(value)
    return value.as_integer_ratio()


def _tick_arrays(*groups, scale: int):
    """Exact times as integer ticks on ``scale``, one array per group, all
    ``int64`` when every tick fits and Python ints otherwise."""
    ticks = [
        [num * (scale // den) for num, den in map(exact_ratio, group)] for group in groups
    ]
    fits = max(abs(t) for group in ticks for t in group) <= _INT64_MAX
    return [np.array(group, dtype=np.int64 if fits else object) for group in ticks]


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
    anchor = np.zeros(len(taus), dtype=np.int64)
    if hw.mode != "fixed":
        if initial_clocks is not None:
            raise ConfigurationError("initial clock offsets require fixed hardware")
        if rng is None:
            raise ConfigurationError("exponential hardware needs an RNG")
        means = np.array([float(t) for t in taus])
        return FleetState(rng.exponential(scale=means), means, anchor, exact=False, clock=0.0)
    starts = taus if initial_clocks is None else list(initial_clocks)
    if len(starts) != len(taus):
        raise ConfigurationError("initial_clocks length must match the fleet")
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
    and costs a third of a frozen dataclass."""

    index: int
    delta_t: Fraction | float
    clients: np.ndarray         # int64
    multiplicity: np.ndarray    # int64
    anchors: np.ndarray         # int64

    @property
    def staleness(self) -> np.ndarray:
        return self.index - self.anchors


def fastest_first(taus) -> list[int]:
    """Client indices by compute time, ties by index: the order of the
    fastest-first sampling criterion."""
    return sorted(range(len(taus)), key=lambda i: (taus[i], i))


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
    """Advance one aggregation round, mutating ``state``.

    Returns the participant set (with its anchors) and the round duration.
    When ``time_limit`` is given and the round would end past it, the state
    is left untouched and ``None`` is returned. ``hw`` is the model the
    state was built with and ``taus`` orders the fastest-first sampling
    criterion; the clocks themselves come from ``state``.

    Every clock is rebased by the round length rather than kept as an
    absolute finish time, because absolute times would round exponential
    clocks differently.
    """
    n = state.round_index
    rem = state.remaining
    kind = policy.kind
    if kind is PolicyKind.ASYNCHRONOUS:
        selected = rem.argmin(keepdims=True)  # ties serialized, lowest index first
        dt = rem[selected[0]]
    else:
        if kind is PolicyKind.SYNCHRONOUS:
            dt = rem.max()
        elif kind is PolicyKind.FEDFIX:
            dt = state.ticks(policy.delta_t) if state.exact else float(policy.delta_t)
        elif kind is PolicyKind.FEDBUFF:
            if policy.m > state.n_clients:
                raise ConfigurationError("fedbuff m exceeds the fleet size")
            dt = np.partition(rem, policy.m - 1)[policy.m - 1]
        else:
            return _advance_sampling_round(
                state, policy, taus, hw_rng, sample_rng, client_losses, importances, time_limit
            )
        selected = np.flatnonzero(rem <= dt)
    dt = int(dt) if state.exact else float(dt)

    if time_limit is not None and state.exceeds(dt, time_limit):
        return None

    ones = state.ones[: selected.size]
    outcome = Round(n, state.duration(dt), selected, ones, state.anchor[selected])
    rem -= dt
    rem[selected] = state.arm(selected, hw_rng)
    state.anchor[selected] = n + 1
    state.clock += dt
    state.round_index = n + 1
    return outcome


def _advance_sampling_round(
    state, policy, taus, hw_rng, sample_rng, client_losses, importances, time_limit
):
    """Per-round client sampling: selected clients train on the current
    model, everyone else idles (treated as infinitely slow for the round)."""
    n = state.round_index
    n_clients = state.n_clients
    m = policy.m
    if m > n_clients:
        raise ConfigurationError("sample size m exceeds the fleet size")

    clients = None
    if policy.kind is PolicyKind.SAMPLE_UNIFORM:
        if sample_rng is None:
            raise ConfigurationError("uniform sampling needs a sampling RNG")
        drawn = sample_rng.choice(n_clients, size=m, replace=False)
    elif policy.kind is PolicyKind.SAMPLE_MD:
        if sample_rng is None:
            raise ConfigurationError("multinomial sampling needs a sampling RNG")
        if importances is None:
            raise ConfigurationError("multinomial sampling needs client importances")
        # the draws of sample_rng.choice(n_clients, m, replace=True, p=p),
        # without rebuilding the CDF every round
        draws = state.sampling_cdf(importances).searchsorted(sample_rng.random(m), side="right")
        drawn = list(dict.fromkeys(draws.tolist()))  # first-appearance order
        counts = np.bincount(draws, minlength=n_clients)
        clients = np.flatnonzero(counts)
        counts = counts[clients]
    elif policy.criterion == "fastest":
        drawn = np.array(fastest_first(taus)[:m], dtype=np.int64)
    else:
        if client_losses is None:
            raise ConfigurationError("highest_loss criterion needs client losses")
        drawn = np.argsort(-np.asarray(client_losses, dtype=float), kind="stable")[:m]

    # draws follow the selection order, as one hardware draw per client would
    times = state.arm(drawn, hw_rng)
    dt = int(times.max()) if state.exact else float(times.max())
    if time_limit is not None and state.exceeds(dt, time_limit):
        return None

    if clients is None:
        clients, counts = np.sort(drawn), state.ones[:m]
    outcome = Round(n, state.duration(dt), clients, counts, state.anchor[clients])
    state.anchor[:] = n + 1
    state.clock += dt
    state.round_index = n + 1
    return outcome


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
    aggregation uses the ceiling bound ceil(tau_max / delta_t). The purely
    asynchronous bound is read off the event order of one schedule cycle;
    the buffered policy has no closed form and is measured over one steady
    period of its replayed schedule. Either raises UnsupportedConfigError
    when the schedule is longer than ``SCHEDULE_ROUND_CAP`` rounds.
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
        ratio = Fraction(_exact(max(taus))) / Fraction(_exact(policy.delta_t))
        return int(math.ceil(ratio))
    if kind is PolicyKind.ASYNCHRONOUS:
        return _async_staleness(taus)
    if kind is PolicyKind.FEDBUFF:
        _, steady = replay_steady_period(policy, taus)
        return int(np.concatenate([r.staleness for r in steady]).max())
    raise UnsupportedConfigError(f"no staleness bound for policy {kind}")


def _async_staleness(taus) -> int:
    """Steady-state staleness bound of the asynchronous schedule.

    Client i's k-th delivery of a cycle lands at fraction k / c_i of it, and
    simultaneous deliveries are served lowest index first, so sorting the
    events by (k / c_i, client) gives the round order. The float key is
    exact: equal fractions round to equal doubles, and distinct fractions
    with denominators up to the round cap differ by far more than an ulp. A
    delivery's staleness is its round gap to the same client's previous
    delivery minus one; the first delivery of a cycle follows the last one
    of the previous cycle, since the schedule restarts after every cycle.
    """
    counts = participations_per_cycle(taus)
    n_rounds = sum(counts)
    if n_rounds > SCHEDULE_ROUND_CAP:
        raise UnsupportedConfigError(
            f"the asynchronous schedule repeats only every {n_rounds} rounds, "
            f"beyond the {SCHEDULE_ROUND_CAP}-round cap of the staleness analysis"
        )
    c = np.array(counts, dtype=np.int64)
    first = np.cumsum(c) - c                        # each client's first event
    client = np.repeat(np.arange(c.size), c)
    k = np.arange(1, n_rounds + 1) - first[client]  # 1..c_i within each client
    order = np.lexsort((client, k / c[client]))
    rank = np.empty(n_rounds, dtype=np.int64)
    rank[order] = np.arange(n_rounds)
    previous = np.roll(rank, 1)
    previous[first] = rank[first + c - 1] - n_rounds
    return int(np.max(rank - previous)) - 1


def replay_steady_period(policy: WaitPolicy, taus) -> tuple[int, list[Round]]:
    """Replay a fixed-hardware schedule until its clocks repeat.

    Returns the period in rounds and the rounds of the period that starts
    at the first repeat. Every client delivers within each period, so by
    then every anchor was set inside the cycle and the staleness is steady.
    Only those rounds are kept. Raises UnsupportedConfigError when this
    takes more than ``SCHEDULE_ROUND_CAP`` rounds.
    """
    hw = HardwareModel("fixed")
    state = init_fleet_state(taus, hw, policy=policy)
    taus = list(taus)
    # value-based key: the bytes of an object array are pointers
    seen = {tuple(state.remaining.tolist()): 0}
    period = None
    outcomes: list[Round] = []
    while state.round_index < SCHEDULE_ROUND_CAP:
        outcome = advance_round(state, policy, taus, hw)
        if period is not None:
            outcomes.append(outcome)
            if len(outcomes) == period:
                return period, outcomes
            continue
        key = tuple(state.remaining.tolist())
        if key in seen:
            period = state.round_index - seen[key]
        else:
            seen[key] = state.round_index
    raise UnsupportedConfigError(
        f"the {policy.kind.value} schedule does not settle into a steady period "
        f"within {SCHEDULE_ROUND_CAP} rounds"
    )
