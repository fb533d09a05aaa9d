"""Shared domain vocabulary: the fleet, importance weights, and the federated
objective, gradient residual and weighted optima built from them.

Everything here is a pure function over immutable inputs and safe to call
concurrently.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

PROB_TOL = 1e-12


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class ConfigurationError(ValueError):
    """A fleet, policy, or run setup is internally inconsistent."""


class UnsupportedConfigError(ConfigurationError):
    """A combination of policy, hardware, and scheme is not supported."""


class StalenessCapError(ConfigurationError):
    """A contribution exceeded the configured maximum staleness: the
    ``tau_max`` of the config is below what its schedule delivers."""


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

class Fleet:
    """A fixed set of clients: per-client arrays plus one objective table
    whose row i is client i's objective.

    ``table`` is a :class:`~asyncfed.objectives.QuadraticObjective` or
    :class:`~asyncfed.objectives.GlmObjective` of one row per client.
    ``compute_times`` are the mean local update times as given: literal
    under fixed hardware, exponential means under stochastic hardware.
    ``distribution_ids`` groups clients sharing a data distribution. The
    engine never relies on clients being sorted by compute time.
    """

    def __init__(self, table, compute_times, importances, distribution_ids=None):
        from .objectives import GlmObjective, QuadraticObjective  # objectives imports this module

        if not isinstance(table, (QuadraticObjective, GlmObjective)):
            raise ConfigurationError(
                f"a fleet takes one QuadraticObjective or GlmObjective table, got {type(table).__name__}"
            )
        self.table = table
        self.compute_times = tuple(compute_times)
        n = len(self.compute_times)
        p = np.array(importances, dtype=float)
        if p.shape != (n,):
            raise ConfigurationError("importances length must match compute_times")
        ids = tuple(range(n)) if distribution_ids is None else tuple(distribution_ids)
        if len(ids) != n:
            raise ConfigurationError("distribution_ids length must match compute_times")
        if ((p <= 0) | (p > 1)).any() or (n and min(self.compute_times) <= 0):
            for i, (importance, compute_time) in enumerate(zip(importances, self.compute_times)):
                if importance <= 0 or importance > 1:
                    raise ConfigurationError(f"client {i}: importance must lie in (0, 1], got {importance}")
                if compute_time <= 0:
                    raise ConfigurationError(f"client {i}: compute_time must be positive, got {compute_time}")
        if not n:
            raise ConfigurationError("empty fleet")
        total = math.fsum(p.tolist())
        if abs(total - 1.0) > PROB_TOL:
            raise ConfigurationError(f"client importances sum to {total!r}, expected 1")
        if len(table) != n:
            raise ConfigurationError(f"the objective table has {len(table)} rows for {n} clients")
        self.dim = table.dim
        p.setflags(write=False)
        self.importances = p  # client importances p_i, one shared read-only array
        self.distribution_ids = ids

    def __len__(self) -> int:
        return len(self.compute_times)

    def losses(self, thetas, out=None) -> np.ndarray:
        """C-order (rows, M) loss of every client at each row of the
        (rows, dim) array ``thetas``, one evaluation of the table, written
        into ``out`` when given."""
        return self.table.values(thetas, out=out)


def uniform_importances(n_clients: int) -> list[float]:
    """Default importance vector: every client weighted 1/M."""
    return [1.0 / n_clients] * n_clients


def _as_params(model) -> np.ndarray:
    return np.atleast_1d(np.asarray(model, dtype=float))


def _as_weights(weights, n_clients: int) -> np.ndarray:
    values = np.asarray(weights, dtype=float)
    if values.shape != (n_clients,):
        raise ConfigurationError(
            f"weight vector has shape {values.shape}, expected ({n_clients},)"
        )
    return values


# ---------------------------------------------------------------------------
# Objectives over the fleet
# ---------------------------------------------------------------------------

def convergence_residual(
    fleet: Fleet,
    weights_avg,
    optimum,
    *,
    full_gradient: bool = False,
    batch_size: int | None = None,
) -> float:
    """Exact sum(q_i * E||g_i||^2) at ``optimum`` for the gradient g_i a
    run with ``full_gradient`` and ``batch_size`` (as in
    :class:`~asyncfed.engine.RunConfig`) takes: ||grad L_i||^2 from one
    ``gradients`` call of the fleet's table, plus, unless gradients are
    full, the variance from the table's ``gradient_variance``. The caller
    supplies the optimum; see :func:`weighted_optimum`."""
    q = _as_weights(weights_avg, len(fleet))
    theta = _as_params(optimum)
    squares = np.array([float(np.dot(g, g)) for g in fleet.table.gradients(theta)])
    if not full_gradient:
        squares += fleet.table.gradient_variance(theta, batch_size)
    return float(ordered_sum(qi * sq for qi, sq in zip(q, squares.tolist()) if qi != 0.0))


@dataclass(frozen=True)
class DistributionWeights:
    """Per-distribution importance r_j and expected weight s_j."""

    ids: tuple[int, ...]
    importance: np.ndarray        # r_j, sums to 1
    expected: np.ndarray          # s_j
    expected_normalized: np.ndarray  # s_j / sum(s), zeros preserved


def distribution_weights(fleet: Fleet, per_round_q) -> DistributionWeights:
    """Fold per-client importances and expected weights by distribution id."""
    q = _as_weights(per_round_q, len(fleet))
    ids = sorted(set(fleet.distribution_ids))
    index = {j: pos for pos, j in enumerate(ids)}
    r = np.zeros(len(ids))
    s = np.zeros(len(ids))
    for qi, pi, j in zip(q, fleet.importances, fleet.distribution_ids):
        pos = index[j]
        r[pos] += pi
        s[pos] += qi
    total = s.sum()
    s_tilde = s / total if total > 0 else np.zeros_like(s)
    return DistributionWeights(tuple(ids), r, s, s_tilde)


# ---------------------------------------------------------------------------
# Optima
# ---------------------------------------------------------------------------

DESCENT_MAX_ITER = 500_000  # gradient evaluations a GLM descent may take
DESCENT_GRAD_TOL = 1e-10  # the gradient norm at which a GLM descent stops


def weighted_optimum(fleet: Fleet, weights=None) -> np.ndarray:
    """Minimizer of the ``weights``-weighted objective (defaults to p_i).

    A quadratic table uses the closed form; a GLM table runs deterministic
    full-gradient descent with step 1/L until the gradient norm drops
    below ``DESCENT_GRAD_TOL``, UnsupportedConfigError where it does not
    within ``DESCENT_MAX_ITER`` gradients.
    """
    from .objectives import QuadraticObjective  # objectives imports this module

    w = fleet.importances if weights is None else _as_weights(weights, len(fleet))
    table = fleet.table
    if isinstance(table, QuadraticObjective):
        a_sum = sum_in_order(w[:, None] * table.a)
        b_sum = sum_in_order(w[:, None] * table.b)
        if np.any(a_sum <= 0):
            raise ConfigurationError("weighted quadratic has a flat direction; no finite optimum")
        return -b_sum / (2.0 * a_sum)

    smoothness = math.fsum((w * table.smoothness).tolist())
    step = 1.0 / smoothness
    active = w != 0.0
    w_active = w[active, None]
    theta, norm = np.zeros(fleet.dim), math.inf
    for _ in range(DESCENT_MAX_ITER):
        grad = sum_in_order(w_active * table.gradients(theta)[active])
        norm = np.linalg.norm(grad)
        if norm < DESCENT_GRAD_TOL:
            return theta
        theta = theta - step * grad
    raise _not_converged("the federated", norm)


def row_optima(table) -> np.ndarray:
    """(G, dim) minimizer of each row of ``table`` on its own.

    A quadratic table gives its closed-form ``optima``. A GLM table runs
    every row's descent of :func:`weighted_optimum` on a one-row fleet at
    once, as one (rows, dim) array with each row's step 1/L_g and its bits:
    a row stops, frozen, at the first iterate whose gradient norm (the
    square root of its own dot product) is below ``DESCENT_GRAD_TOL``, and
    the data of the rows still descending is gathered anew only when one
    stops. So the descent takes as many gradient calls as its slowest row.
    UnsupportedConfigError names the first row not done in
    ``DESCENT_MAX_ITER`` gradients.
    """
    from .objectives import QuadraticObjective, _glm_gradient  # objectives imports this module

    if isinstance(table, QuadraticObjective):
        return table.optima
    optima = np.empty((len(table), table.dim))
    live = np.arange(len(table))  # the rows still descending
    x, y, step = table.features, table.targets, (1.0 / table.smoothness)[:, None]
    theta, norm = np.zeros_like(optima), np.full(len(table), np.inf)
    for _ in range(DESCENT_MAX_ITER):
        grad = _glm_gradient(x, y, theta, table.link) + 0.0
        norm = np.sqrt((grad[:, None, :] @ grad[:, :, None])[:, 0, 0])
        done = norm < DESCENT_GRAD_TOL
        if done.any():
            optima[live[done]] = theta[done]
            keep = ~done
            live, theta, grad, step, norm = live[keep], theta[keep], grad[keep], step[keep], norm[keep]
            if not live.size:
                return optima
            x, y = table.features[live], table.targets[live]
        theta = theta - step * grad
    raise _not_converged(f"client {live[0]}'s", norm[0])


def _not_converged(descent: str, norm) -> UnsupportedConfigError:
    return UnsupportedConfigError(
        f"{descent} gradient descent did not reach gradient norm {DESCENT_GRAD_TOL} in {DESCENT_MAX_ITER} "
        f"iterations; its norm is {float(norm):.6g}"
    )


def sum_in_order(terms: np.ndarray) -> np.ndarray:
    """Sum of the rows of ``terms``, first to last, as ``total += row`` from
    a zero ``total`` adds them: cumsum keeps that order where ``np.sum``
    would pair terms, and adding +0.0 last gives the +0.0 a zero start
    leaves where every term is a zero. A single row is that row plus +0.0."""
    if terms.shape[0] == 1:
        return terms[0] + 0.0
    return terms.cumsum(axis=0)[-1] + 0.0


def ordered_sum(terms):
    """``sum(terms)`` added left to right, one rounding per term, on every
    Python version: from 3.12 on the builtin compensates float sums, which
    moves their last digits."""
    return functools.reduce(operator.add, terms, 0)
