"""Closed-form aggregation weights, participation windows, and checks of the
window-averaged fairness condition.

Weight arithmetic runs over exact rationals before rounding once to float,
so closed-form identities (scale invariance, window averages equal to the
client importances) hold to the last bit for rational inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import ConfigurationError, UnsupportedConfigError
from .timing import (
    HardwareModel,
    PolicyKind,
    WaitPolicy,
    exact_ratio,
    fastest_first,
    participations_per_cycle,
    replay_steady_period,
)


class WeightScheme(Enum):
    IDENTICAL = "identical"
    FEDAVG = "fedavg"
    ASYNC_TIME_BASED = "async_time_based"
    FEDFIX_TIME_BASED = "fedfix_time_based"
    CUSTOM = "custom"


@dataclass(frozen=True)
class WeightPlan:
    """Deterministic per-client weights plus their window statistics.

    ``window`` is the number of rounds over which the expected weights
    average out; ``q_over_window`` holds those per-client averages.
    """

    scheme: WeightScheme
    d: np.ndarray
    window: int
    q_over_window: np.ndarray


def _require_fixed(hw: HardwareModel | None, scheme: WeightScheme):
    if hw is not None and hw.mode != "fixed":
        raise UnsupportedConfigError(
            f"{scheme.value} weights need deterministic compute times"
        )


def _ceil_ratio(tau, delta_t) -> int:
    (tau_num, tau_den), (dt_num, dt_den) = exact_ratio(tau), exact_ratio(delta_t)
    return -(-tau_num * dt_den // (tau_den * dt_num))


def _over_common_den(values) -> tuple[list[int], int]:
    """Exact values as integer numerators over one common denominator."""
    ratios = [exact_ratio(v) for v in values]
    den = math.lcm(*(d for _, d in ratios))
    return [num * (den // d) for num, d in ratios], den


def _to_floats(exact: tuple[list, int]) -> np.ndarray:
    """Each numerator over the denominator, rounded once: ``int / int`` is
    correctly rounded, as ``float(Fraction)`` is."""
    nums, den = exact
    return np.array([num / den for num in nums])


def plan_weights(
    scheme: WeightScheme,
    importances,
    compute_times,
    policy: WaitPolicy | None = None,
    hw: HardwareModel | None = None,
    custom_d=None,
) -> WeightPlan:
    """Fill the per-client weights d_i for a scheme, the window size, and the
    window-averaged expected weights. Each vector is exact, as integer
    numerators over one common denominator, until it is rounded to float."""
    p = _over_common_den(map(float, importances))
    n = len(p[0])
    if len(compute_times) != n:
        raise ConfigurationError("importances and compute times disagree on fleet size")

    if scheme is WeightScheme.IDENTICAL:
        d = [1] * n, 1
    elif scheme is WeightScheme.FEDAVG:
        d = p
    elif scheme is WeightScheme.ASYNC_TIME_BASED:
        _require_fixed(hw, scheme)
        # d_i = (sum_j 1 / tau_j) tau_i p_i, with the rate sum over the lcm
        # of the time numerators and tau_i over the lcm of their denominators
        taus = [exact_ratio(t) for t in compute_times]
        num_lcm = math.lcm(*(num for num, _ in taus))
        den_lcm = math.lcm(*(den for _, den in taus))
        rate_sum = sum(den * (num_lcm // num) for num, den in taus)
        d = ([rate_sum * num * (den_lcm // den) * pn for (num, den), pn in zip(taus, p[0])],
             num_lcm * den_lcm * p[1])
    elif scheme is WeightScheme.FEDFIX_TIME_BASED:
        _require_fixed(hw, scheme)
        if policy is None or policy.kind is not PolicyKind.FEDFIX:
            raise ConfigurationError("fedfix time-based weights need a fedfix policy")
        d = [_ceil_ratio(t, policy.delta_t) * pn for t, pn in zip(compute_times, p[0])], p[1]
    elif scheme is WeightScheme.CUSTOM:
        if custom_d is None or len(custom_d) != n:
            raise ConfigurationError("custom scheme needs one weight per client")
        d = _over_common_den(map(float, custom_d))
    else:  # pragma: no cover
        raise ConfigurationError(f"unknown weight scheme {scheme}")

    window, counts = _window_counts(policy, compute_times)
    if counts is None:
        q_window = _sampled_q(policy, compute_times, d, p)
    else:
        q_window = [c * dn for c, dn in zip(counts, d[0])], d[1] * window
    return WeightPlan(scheme, _to_floats(d), window, _to_floats(q_window))


def window_size(policy: WaitPolicy | None, compute_times) -> int:
    """Smallest round count over which expected weights repeat.

    Synchronous and per-round sampling schedules repeat every round. The
    asynchronous schedule repeats after lcm({tau_i}) time units, one round
    per contribution. Fixed-interval aggregation repeats after
    lcm({ceil(tau_i / delta_t)}) rounds. The buffered policy is measured from
    its replayed schedule.
    """
    return _window_counts(policy, compute_times)[0]


def _window_counts(policy: WaitPolicy | None, taus) -> tuple[int, list[int] | None]:
    """Window size and each client's deliveries per window, from one
    analysis of the schedule. The counts are None for sampling policies,
    whose participation is random."""
    if policy is None or policy.kind is PolicyKind.SYNCHRONOUS:
        return 1, [1] * len(taus)
    if policy.is_sampling:
        return 1, None
    if policy.kind is PolicyKind.ASYNCHRONOUS:
        counts = participations_per_cycle(taus)
        return sum(counts), counts
    if policy.kind is PolicyKind.FEDFIX:
        periods = [_ceil_ratio(t, policy.delta_t) for t in taus]
        window = math.lcm(*periods)
        return window, [window // p for p in periods]
    if policy.kind is PolicyKind.FEDBUFF:
        window, steady = replay_steady_period(policy, taus)
        clients = np.concatenate([r.clients for r in steady])
        return window, np.bincount(clients, minlength=len(taus)).tolist()
    raise UnsupportedConfigError(f"no window size for policy {policy.kind}")


def _sampled_q(policy, taus, d, p):
    """Analytic inclusion probability times d for the sampling policies, as
    numerators over a denominator like ``d`` and the importances ``p``."""
    m = policy.m
    nums, den = d
    n = len(nums)
    if policy.kind is PolicyKind.SAMPLE_UNIFORM:
        return [min(m, n) * dn for dn in nums], n * den
    if policy.kind is PolicyKind.SAMPLE_MD:
        return [m * pn * dn for pn, dn in zip(p[0], nums)], p[1] * den
    if policy.kind is PolicyKind.SAMPLE_BIASED:
        if policy.criterion != "fastest":
            # loss-driven selection depends on the trajectory; there is no
            # analytic inclusion probability to report
            return [math.nan] * n, 1
        chosen = set(fastest_first(taus)[:m])
        return [dn if i in chosen else 0 for i, dn in enumerate(nums)], den
    raise UnsupportedConfigError(f"no expected weights for policy {policy.kind}")


@dataclass(frozen=True)
class WindowReport:
    satisfied: bool
    max_deviation: float
    n_windows: int
    truncated: bool


def verify_window_assumption(q_rounds, window: int, importances, tol: float = 1e-9) -> WindowReport:
    """Check that normalized window averages of q_i(n) match the importances.

    ``q_rounds`` is an (n_rounds, n_clients) array of per-round expected
    weights, e.g. the realized weights of a deterministic schedule. Rounds
    beyond the last complete window are dropped with the ``truncated`` flag
    set.
    """
    q = np.asarray(q_rounds, dtype=float)
    if q.ndim != 2:
        raise ConfigurationError("q_rounds must be a (rounds, clients) array")
    p = np.asarray(importances, dtype=float)
    n_rounds = q.shape[0]
    n_windows = n_rounds // window
    if n_windows == 0:
        raise ConfigurationError("need at least one complete window")
    truncated = n_windows * window != n_rounds

    worst = 0.0
    for s in range(n_windows):
        block = q[s * window:(s + 1) * window]
        avg = block.mean(axis=0)
        total = avg.sum()
        if total <= 0:
            worst = math.inf
            break
        deviation = float(np.max(np.abs(avg / total - p)))
        worst = max(worst, deviation)
    return WindowReport(worst < tol, worst, n_windows, truncated)


@dataclass(frozen=True)
class ChiSquare:
    value: float
    unrepresented: bool


def chi_square_bias(importance_r, expected_s_normalized) -> ChiSquare:
    """Chi-square divergence between distribution importances and their
    normalized expected weights; zero iff they coincide.

    A distribution with positive importance but zero expected weight can
    never be repaired by reweighting, so it is flagged and the divergence is
    reported as infinite.
    """
    r = np.asarray(importance_r, dtype=float)
    s = np.asarray(expected_s_normalized, dtype=float)
    if r.shape != s.shape:
        raise ConfigurationError("importance and expected-weight vectors disagree")
    if np.any((r > 0) & (s == 0)):
        return ChiSquare(math.inf, True)
    mask = s > 0
    value = float(np.sum((r[mask] - s[mask]) ** 2 / s[mask]))
    return ChiSquare(value, False)
