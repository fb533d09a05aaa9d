"""Closed-form expectation and variance recursions for scalar quadratic
clients, used as ground truth against simulated trajectories.

All formulas assume the symmetric setting: equal client importance 1/M,
loss curvature 1/2 (so one local pass contracts toward the client optimum by
phi = 1 - (1 - eta_l)^K), and for the stochastic-participation schemes a
common memoryless hardware law. Heterogeneous-rate asynchronous fleets have
no closed form here and are rejected.

Schemes
-------
``sync``          every client participates, fresh anchors.
``sync_uniform``  m of M clients drawn uniformly without replacement,
                  fresh anchors, per-client weight 1/m.
``async``         one uniformly random participant per round, weight 1,
                  geometric staleness law.
``hybrid``        independent participation per fixed window of length T
                  (unit-rate exponential work), weight 1/((1-e^-T) M).

Exactness
---------
The recursions marginalize the staleness anchor with its round-n law as if
it were independent of the trajectory. For fresh-anchor schemes (sync,
sync_uniform) both recursions are exact, and for async the expectation
recursion is exact as well: the participant is uniform over clients, so the
per-client conditional biases average out. The async variance recursion and
both hybrid recursions keep the independence idealization and are exact
only for the first round (all anchors still sit at the initial model);
downstream checks treat Monte-Carlo simulation as the arbiter for those and
gate pass/fail on the exact quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import ConfigurationError, UnsupportedConfigError, ordered_sum

SCHEMES = ("sync", "sync_uniform", "async", "hybrid")


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
    """Scheme parameters for the closed-form recursions."""

    scheme: str
    phi: float
    n_clients: int | None = None
    m: int | None = None            # sync_uniform sample size
    window: float | None = None     # hybrid window length (unit-rate time)

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigurationError(f"unknown oracle scheme {self.scheme!r}")
        if not 0 <= self.phi <= 1:
            raise ConfigurationError("phi must lie in [0, 1]")
        if self.scheme in ("async", "hybrid", "sync_uniform"):
            if self.n_clients is None or self.n_clients < 1:
                raise ConfigurationError(f"{self.scheme} needs the client count")
        if self.scheme == "sync_uniform":
            if self.m is None or not 1 <= self.m:
                raise ConfigurationError("sync_uniform needs a sample size m >= 1")
            if self.m > self.n_clients:
                raise ConfigurationError("sample size m exceeds the client count")
        if self.scheme == "hybrid" and (self.window is None or self.window <= 0):
            raise ConfigurationError("hybrid needs a positive window length")


def staleness_law(state: OracleState, n: int, exact: bool = False):
    """Distribution of the anchor round k in 0..n of a round-n contribution.

    With ``exact`` the geometric law is returned in rational arithmetic so
    it sums to one identically.
    """
    if n < 0:
        raise ConfigurationError("round index must be nonnegative")
    scheme = state.scheme
    if scheme in ("sync", "sync_uniform"):
        if exact:
            return [Fraction(0)] * n + [Fraction(1)]
        law = np.zeros(n + 1)
        law[n] = 1.0
        return law
    if scheme == "async":
        m_clients = state.n_clients
        if exact:
            stay = Fraction(m_clients - 1, m_clients)
            law = [stay ** (n - k) / m_clients for k in range(n + 1)]
            law[0] = stay ** n
            return law
        stay = (m_clients - 1) / m_clients
        law = np.array([stay ** (n - k) / m_clients for k in range(n + 1)])
        law[0] = stay ** n
        return law
    times = [k * state.window for k in range(n + 1)]
    # memoryless completions form a unit-rate Poisson process: anchor k means
    # the last completion before t[n] fell inside round k-1
    decay = [math.exp(-(times[n] - t)) for t in times]
    law = np.empty(n + 1)
    law[0] = decay[0]
    for k in range(1, n + 1):
        law[k] = decay[k] - decay[k - 1]
    return law


def _staleness_laws(state: OracleState, n_rounds: int):
    """Yield ``staleness_law(state, n)`` for n = 0..n_rounds-1, one at a
    time. The asynchronous laws are slices of one table of the powers of
    (M-1)/M, so the sequence costs n_rounds Python powers where building
    each law anew costs O(n_rounds^2); the entries keep their bits."""
    if state.scheme != "async":
        for n in range(n_rounds):
            yield staleness_law(state, n)
        return
    stay = (state.n_clients - 1) / state.n_clients
    powers = np.array([stay ** j for j in range(n_rounds)])
    shares = powers / state.n_clients
    for n in range(n_rounds):
        law = shares[n::-1].copy()
        law[0] = powers[n]
        yield law


@dataclass(frozen=True)
class ExpectationSequence:
    """Affine coefficients of the expected model: E[theta^n] = A[n] * theta0 + B[n]."""

    A: np.ndarray
    B: np.ndarray

    def mean(self, theta0: float) -> np.ndarray:
        return self.A * theta0 + self.B


def expectation_recursion(
    state: OracleState, n_rounds: int, eta_g: float, optima
) -> ExpectationSequence:
    """Run A[n+1] = A[n] - eta_g phi sum_k q_{n,k} A[k] (and the matching
    intercept update pulled toward the federated optimum)."""
    optima = np.atleast_1d(np.asarray(optima, dtype=float))
    theta_star = float(optima.mean())
    a = np.empty(n_rounds + 1)
    b = np.empty(n_rounds + 1)
    a[0], b[0] = 1.0, 0.0
    step = eta_g * state.phi
    for n, law in enumerate(_staleness_laws(state, n_rounds)):
        a[n + 1] = a[n] - step * float(np.dot(law, a[: n + 1]))
        b[n + 1] = b[n] - step * float(np.dot(law, b[: n + 1])) + step * theta_star
    return ExpectationSequence(a, b)


@dataclass(frozen=True)
class VarianceSequence:
    """Second moments E[(theta^n - theta_star)^2] and, for the stale-anchor
    schemes, the cross-round inner-product table U[u, v]."""

    second_moment: np.ndarray
    u_table: np.ndarray | None = None


def variance_recursion(
    state: OracleState, optima, n_rounds: int, theta0: float
) -> VarianceSequence:
    """Second-moment sequence of the distance to the federated optimum.

    Server learning rate 1 and equal client importance are assumed, matching
    the closed forms. Scheme parameters fix the weight scale d and the
    participation covariance (gamma, R):

    - sync:          R = 1, d = 1/M, gamma = 0
    - sync_uniform:  R^2 = m(m-1)/(M(M-1)), d = 1/m, gamma = (m/M - R^2) d^2
    - async:         R = 0, d = 1, gamma = 1/M
    - hybrid:        R = 1 - e^-T, d = 1/(RM), gamma = e^-T / ((1 - e^-T) M^2)
    """
    optima = np.atleast_1d(np.asarray(optima, dtype=float))
    m_clients = optima.shape[0]
    if state.n_clients is not None and state.n_clients != m_clients:
        raise ConfigurationError("optima length disagrees with the client count")
    theta_star = float(optima.mean())
    spread = float(np.sum((optima - theta_star) ** 2))
    p = state.phi
    v = np.empty(n_rounds + 1)
    v[0] = (theta0 - theta_star) ** 2

    if state.scheme == "sync":
        for n in range(n_rounds):
            v[n + 1] = (1.0 - p) ** 2 * v[n]
        return VarianceSequence(v)

    if state.scheme == "sync_uniform":
        m = state.m
        r_sq = m * (m - 1) / (m_clients * (m_clients - 1)) if m_clients > 1 else 1.0
        d = 1.0 / m
        gamma = (m / m_clients - r_sq) * d * d
        drive = gamma * p * p * spread
        for n in range(n_rounds):
            v[n + 1] = (1.0 - 2.0 * p + p * p) * v[n] + drive
        return VarianceSequence(v)

    if state.scheme == "async":
        cross_coeff = 0.0
        self_coeff = 1.0
        drive = (p * p / m_clients) * spread
    elif state.scheme == "hybrid":
        stay = math.exp(-state.window)
        gamma = stay / ((1.0 - stay) * m_clients ** 2)
        drive = gamma * p * p * spread
        self_coeff = 1.0 / (m_clients * (1.0 - stay))
        cross_coeff = (m_clients - 1) / m_clients
    else:
        raise UnsupportedConfigError(
            "no closed-form variance for scheme " + state.scheme
        )

    u = np.zeros((n_rounds + 1, n_rounds + 1))
    u[0, 0] = v[0]
    for n, law in enumerate(_staleness_laws(state, n_rounds)):
        weighted_u = float(np.dot(law, u[n, : n + 1]))
        weighted_v = float(np.dot(law, v[: n + 1]))
        double_sum = float(law @ u[: n + 1, : n + 1] @ law) if cross_coeff else 0.0
        v[n + 1] = (
            v[n]
            - 2.0 * p * weighted_u
            + drive
            + p * p * self_coeff * weighted_v
            + p * p * cross_coeff * double_sum
        )
        u[: n + 1, n + 1] = u[: n + 1, n] - p * (u[: n + 1, : n + 1] @ law)
        u[n + 1, : n + 1] = u[: n + 1, n + 1]
        u[n + 1, n + 1] = v[n + 1]
    return VarianceSequence(v, u)


def export_oracle_csv(
    state: OracleState, optima, mean, second_moment, path, rate: float = 1.0
) -> None:
    """Write closed-form sequences in the trajectory CSV schema: ``mean`` is
    E[theta^n] and ``second_moment`` E[(theta^n - theta_star)^2] for rounds
    0..n, as computed by :func:`expectation_recursion` and
    :func:`variance_recursion` (server learning rate 1).

    The participant and surrogate columns are left empty. Wall time uses the
    scheme's expected round duration under common exponential hardware with
    the given rate (the window length itself for the fixed-window scheme).
    """
    from .engine import write_trajectory_table

    optima = np.atleast_1d(np.asarray(optima, dtype=float))
    theta_star = float(optima.mean())
    mean_seq = np.asarray(mean, dtype=float)
    second = np.asarray(second_moment, dtype=float)
    if state.scheme == "hybrid":
        round_time = state.window / rate
    else:
        round_time = expected_round_time(state.scheme, len(optima), rate, m=state.m)

    offset = theta_star - optima
    drift = (mean_seq - theta_star)[:, None]
    client_losses = 0.5 * (second[:, None] + 2 * offset * drift + offset**2)
    # cumsum adds left to right, as the scalar sum did
    loss_fed = np.cumsum(client_losses, axis=1)[:, -1] / len(optima)
    leading = [
        (n, n * round_time, b"", fed, b"", sm)
        for n, (fed, sm) in enumerate(zip(loss_fed.tolist(), second.tolist()))
    ]
    write_trajectory_table(path, len(optima), leading, client_losses)


def expected_round_time(scheme: str, n_clients: int, rate: float, m: int | None = None) -> float:
    """Mean round duration under common exponential hardware with the given
    rate: harmonic sums for maxima, the order-statistic minimum otherwise."""
    if rate <= 0:
        raise ConfigurationError("rate must be positive")
    if scheme == "sync":
        return ordered_sum(1.0 / ((n_clients - k) * rate) for k in range(n_clients))
    if scheme == "sync_uniform":
        if m is None or not 1 <= m <= n_clients:
            raise ConfigurationError("sampled-m round time needs 1 <= m <= M")
        return ordered_sum(1.0 / ((m - k) * rate) for k in range(m))
    if scheme == "async":
        return 1.0 / (n_clients * rate)
    raise UnsupportedConfigError(f"no round-time formula for scheme {scheme!r}")
