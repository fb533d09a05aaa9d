"""Exact moment recursions for scalar quadratic clients, used as ground
truth against simulated trajectories.

Clients have curvature 1/2, so K local steps from an anchor a end at
a + phi (x_i - a), with phi = 1 - (1 - eta_l)^K, and the server adds eta_g
d_i times that move: client i contributes c_i (x_i - a) with the step
c_i = eta_g d_i phi. Second moments are taken about the federated optimum of
identical importances, theta_star = mean(x_i).

Schemes
-------
``sync``          every client trains from the current model each round.
``sync_uniform``  m of M clients, drawn uniformly without replacement, train
                  from the current model; sync is the case m = M.
``async``         one client per round, client j with probability p_j = 1/M
                  (equal-rate memoryless hardware); it trains from the model
                  it last received, its anchor a_j, and receives the new one.

Exactness
---------
Both recursions are exact for every scheme; only floating-point rounding
separates them from the true moments. With fresh anchors the state is theta
alone: a round is theta' = (1 - C) theta + D, with C and D the sums of c_j and
c_j x_j over the participants, drawn independently of theta. The mean and
second moment then need only the first two moments of (C, D), from the
inclusion probabilities m/M and m(m-1)/(M(M-1)). The asynchronous state
y = (theta, a_1..a_M) is a jump-linear system (Costa, Fragoso & Marques,
*Discrete-Time Markov Jump Linear Systems*, 2005): in mode j,
theta' = a_j' = v_j = theta + c_j (x_j - a_j) and the other anchors stay.
Only theta and a_j move in mode j, so a round costs O(M) for the mean and
O(M^2) for the raw second moment E[y y^T], with no dense (1+M)^3 product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigurationError, UnsupportedConfigError, ordered_sum, sum_in_order
from .engine import MAX_HELD_ANCHORS, Metrics, write_trajectory_table

SCHEMES = ("sync", "sync_uniform", "async")
# (M+1)^2 matrices alive at once in an asynchronous second-moment round
_ASYNC_MATRICES = 3


def phi(eta_l: float, k_steps: int) -> float:
    """One-round contraction factor 1 - (1 - eta_l)^K of K local steps on a
    unit-curvature-halved quadratic."""
    if not 0 < eta_l < 2:
        raise ConfigurationError("eta_l must lie in (0, 2) for a contraction")
    if k_steps < 1:
        raise ConfigurationError("k_steps must be at least 1")
    return 1.0 - (1.0 - eta_l) ** k_steps


@dataclass(frozen=True)
class OracleState:
    """The closed-form problem: a scheme, the contraction phi, the clients'
    server rates eta_g d_i, their optima and the common start theta0. It is
    the only place that checks the scheme, m and the optima's length."""

    scheme: str
    phi: float
    rates: tuple[float, ...]        # eta_g d_i
    optima: tuple[float, ...]
    theta0: float
    m: int | None = None            # sync_uniform sample size

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigurationError(f"unknown oracle scheme {self.scheme!r}")
        if not 0 <= self.phi <= 1:
            raise ConfigurationError("phi must lie in [0, 1]")
        n_clients = len(self.rates)
        if n_clients < 1:
            raise ConfigurationError("the oracle needs at least one client")
        if len(self.optima) != n_clients:
            raise ConfigurationError("optima length disagrees with the client count")
        if self.scheme == "sync_uniform":
            if self.m is None or not 1 <= self.m:
                raise ConfigurationError("sync_uniform needs a sample size m >= 1")
            if self.m > n_clients:
                raise ConfigurationError("sample size m exceeds the client count")

    def check_second_moment(self) -> None:
        """Raise UnsupportedConfigError, before anything is allocated, when
        a round of :func:`variance_recursion` would hold more than
        ``MAX_HELD_ANCHORS`` floats: the asynchronous second moment's
        matrices grow as M^2, while the Monte-Carlo kernel needs no more
        than a (members, M) buffer."""
        n_clients = len(self.rates)
        held = _ASYNC_MATRICES * (n_clients + 1) ** 2
        if self.scheme == "async" and held > MAX_HELD_ANCHORS:
            raise UnsupportedConfigError(
                f"the asynchronous second moment of {n_clients} clients holds "
                f"{_ASYNC_MATRICES} {n_clients + 1}^2 matrices a round, "
                f"above {MAX_HELD_ANCHORS} floats"
            )

    @property
    def steps(self) -> np.ndarray:
        """The clients' steps c_i = eta_g d_i phi."""
        return np.asarray(self.rates, dtype=float) * self.phi

    @property
    def theta_star(self) -> float:
        """The federated optimum of identical importances, mean(x_i)."""
        return float(np.asarray(self.optima, dtype=float).mean())


def expectation_recursion(state: OracleState, n_rounds: int) -> np.ndarray:
    """E[theta^n] for n = 0..n_rounds, every model starting at theta0."""
    return _moments(state, n_rounds, second=False)[0]


def variance_recursion(state: OracleState, n_rounds: int) -> np.ndarray:
    """E[(theta^n - theta_star)^2] for n = 0..n_rounds, every model
    starting at theta0."""
    state.check_second_moment()
    return _moments(state, n_rounds, second=True)[1]


def _moments(state: OracleState, n_rounds: int, second: bool):
    """The mean of theta and, with ``second``, its second moment about
    theta_star, rounds 0..n_rounds. Both run on coordinates shifted by
    theta_star, which the update commutes with."""
    steps = state.steps
    theta_star = state.theta_star
    z = np.asarray(state.optima, dtype=float) - theta_star
    start = float(state.theta0) - theta_star
    mean, moment = np.empty((2, n_rounds + 1))
    mean[0], moment[0] = start, start * start
    if state.scheme == "async":
        p = np.full(len(z), 1.0 / len(z))
        mu = np.full(len(z) + 1, start)
        s = np.full((len(z) + 1, len(z) + 1), start * start) if second else None
        for n in range(1, n_rounds + 1):
            mu, s = _async_round(mu, s, p, steps, z)
            mean[n] = mu[0]
            if second:
                moment[n] = s[0, 0]
        return mean + theta_star, moment

    keep, drive, var_c, cov, var_d = _fresh_round(state, steps, z)
    for n in range(n_rounds):
        mean[n + 1] = keep * mean[n] + drive
        moment[n + 1] = ((keep * keep + var_c) * moment[n]
                         + 2.0 * (keep * drive - cov) * mean[n] + drive * drive + var_d)
    return mean + theta_star, moment


def _fresh_round(state: OracleState, c: np.ndarray, z: np.ndarray):
    """A fresh-anchor round theta' = (1 - C) theta + D as (1 - E C, E D,
    Var C, Cov(C, D), Var D), for m of the M clients drawn uniformly."""
    n_clients = len(c)
    m = n_clients if state.scheme == "sync" else state.m
    single = m / n_clients  # inclusion probability of a client, then of a pair
    pair = m * (m - 1) / (n_clients * (n_clients - 1)) if n_clients > 1 else 1.0
    # Cov of sum_S u and sum_S v over the draw S: (pi1 - pi2) sum u_j v_j + (pi2 - pi1^2) sum u sum v
    own, joint = single - pair, pair - single * single
    cz = c * z
    total_c, total_cz = float(c.sum()), float(cz.sum())
    return (
        1.0 - single * total_c,
        single * total_cz,
        own * float(c @ c) + joint * total_c * total_c,
        own * float(c @ cz) + joint * total_c * total_cz,
        own * float(cz @ cz) + joint * total_cz * total_cz,
    )


def _async_round(mu: np.ndarray, s: np.ndarray | None, p, c, z):
    """One asynchronous round of the mean ``mu`` and, unless ``s`` is None,
    the raw second moment ``s`` of y = (theta, a_1..a_M), which it updates in
    place: client j, with probability p_j (summing to 1), delivers
    v_j = w_j . y + b_j, where w_j = e_0 - c_j e_j and b_j = c_j z_j, and
    theta' = a_j' = v_j. At most ``_ASYNC_MATRICES`` matrices of s's size
    are alive at once: s, the rows r and one temporary."""
    anchors = mu[1:]
    b = c * z
    v = mu[0] - c * anchors + b  # E v_j
    new_mu = np.empty_like(mu)
    new_mu[0] = p @ v
    new_mu[1:] = p * v + (1.0 - p) * anchors
    if s is None:
        return new_mu, None
    clients = np.arange(len(c))
    # row j: r_j = E[v_j y] = S w_j + b_j mu
    r = s[0] - c[:, None] * s[1:]
    r += b[:, None] * mu
    r_anchors = r[:, 1:]
    own = r_anchors[clients, clients]  # E[v_j a_j]
    q = r[:, 0] - c * own + b * v  # E[v_j^2] = w_j . r_j + b_j E v_j
    # theta' a_k': v_j a_k in mode j != k, v_k^2 in mode k
    cross = p @ r_anchors + p * (q - own)
    held = s[clients + 1, clients + 1]
    # anchors i != k: mode i replaces a_i, mode k replaces a_k, others keep both
    shift = r_anchors
    shift -= s[1:, 1:]
    shift *= p[:, None]
    s[1:, 1:] += shift
    s[1:, 1:] += shift.T
    s[clients + 1, clients + 1] = (1.0 - p) * held + p * q
    s[0, 1:] = cross
    s[1:, 0] = cross
    s[0, 0] = p @ q
    return new_mu, s


def export_oracle_csv(state: OracleState, mean, second_moment, round_time: float, path) -> None:
    """Write closed-form sequences of ``state`` in the trajectory CSV schema:
    ``mean`` is E[theta^n] and ``second_moment`` E[(theta^n - theta_star)^2]
    for rounds 0..n, as computed by :func:`expectation_recursion` and
    :func:`variance_recursion`.

    The participant and surrogate columns are left empty. Round n is at
    wall time n * ``round_time``, the fleet's (expected) round duration.
    """
    optima = np.asarray(state.optima, dtype=float)
    theta_star = state.theta_star
    mean_seq = np.asarray(mean, dtype=float)
    second = np.asarray(second_moment, dtype=float)

    offset = theta_star - optima
    drift = (mean_seq - theta_star)[:, None]
    client_losses = 0.5 * (second[:, None] + 2 * offset * drift + offset**2)
    # the clients' losses in client order, as the scalar sum added them
    loss_fed = sum_in_order(np.ascontiguousarray(client_losses.T)) / len(optima)
    rounds = np.arange(len(second))
    unset = np.full(len(second), np.nan)
    metrics = Metrics(rounds, rounds * round_time, [None] * len(second), loss_fed, unset, second, client_losses)
    write_trajectory_table(path, len(optima), [metrics])


def expected_round_time(state: OracleState, rate: float) -> float:
    """Mean round duration of ``state``'s scheme under common exponential
    hardware with the given rate: harmonic sums for maxima, the
    order-statistic minimum otherwise."""
    if rate <= 0:
        raise ConfigurationError("rate must be positive")
    n_clients = len(state.rates)
    if state.scheme == "async":
        return 1.0 / (n_clients * rate)
    k = n_clients if state.scheme == "sync" else state.m
    return ordered_sum(1.0 / ((k - i) * rate) for i in range(k))
