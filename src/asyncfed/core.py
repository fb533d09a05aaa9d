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
    """A fixed set of clients: per-client arrays plus the objective tables
    whose rows are the clients' objectives.

    ``tables`` is a list of (client positions, table) pairs, each table a
    :class:`~asyncfed.objectives.QuadraticObjective` or
    :class:`~asyncfed.objectives.GlmObjective` whose row j belongs to the
    client at ``positions[j]``; client i is row ``row_of[i]`` of table
    ``table_of[i]``. ``compute_times`` are the mean
    local update times as given: literal under fixed hardware, exponential
    means under stochastic hardware. ``distribution_ids`` groups clients
    sharing a data distribution. The engine never relies on clients being
    sorted by compute time.
    """

    def __init__(self, tables, compute_times, importances, distribution_ids=None):
        self.tables = list(tables)
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
        listed = [positions for positions, _ in self.tables]
        if [pos.size for pos in listed] != [len(table) for _, table in self.tables] or not np.array_equal(
            np.sort(np.concatenate(listed or [[]])), np.arange(n)
        ):
            raise ConfigurationError("the objective tables must hold exactly one row per client")
        self.table_of = np.empty(n, dtype=np.intp)
        self.row_of = np.empty(n, dtype=np.intp)
        for t, positions in enumerate(listed):
            self.table_of[positions] = t
            self.row_of[positions] = np.arange(positions.size)
        dims = {table.dim for _, table in self.tables}
        if len(dims) != 1:
            raise ConfigurationError(f"clients disagree on parameter dimension: {dims}")
        self.dim = dims.pop()
        p.setflags(write=False)
        self.importances = p  # client importances p_i, one shared read-only array
        self.distribution_ids = ids

    def __len__(self) -> int:
        return len(self.compute_times)

    def gather(self, attribute: str) -> np.ndarray:
        """A per-row table array, such as ``optima`` or ``smoothness``, with
        one entry per client in client order."""
        parts = [(positions, getattr(table, attribute)) for positions, table in self.tables]
        out = np.empty((len(self),) + parts[0][1].shape[1:])
        for positions, values in parts:
            out[positions] = values
        return out

    def losses(self, thetas) -> np.ndarray:
        """C-order (rows, M) loss of every client at each row of the
        (rows, dim) array ``thetas``, one evaluation per table."""
        thetas = np.asarray(thetas, dtype=float)
        out = np.empty((thetas.shape[0], len(self)))
        for positions, table in self.tables:
            out[:, positions] = table.values(thetas)
        return out

    def gradients(self, theta) -> np.ndarray:
        """(M, dim) full gradient of every client at ``theta``."""
        out = np.empty((len(self), self.dim))
        for positions, table in self.tables:
            out[positions] = table.gradients(theta)
        return out


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
    :meth:`Fleet.gradients` call, plus, unless gradients are full, the
    variance from client i's table's ``gradient_variance``. The caller
    supplies the optimum; see :func:`weighted_optimum`."""
    q = _as_weights(weights_avg, len(fleet))
    theta = _as_params(optimum)
    squares = np.array([float(np.dot(g, g)) for g in fleet.gradients(theta)])
    if not full_gradient:
        for positions, table in fleet.tables:
            squares[positions] += table.gradient_variance(theta, batch_size)
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

def weighted_optimum(
    fleet: Fleet,
    weights=None,
    *,
    grad_tol: float = 1e-10,
    max_iter: int = 500_000,
) -> np.ndarray:
    """Minimizer of the ``weights``-weighted objective (defaults to p_i).

    All-quadratic fleets use the closed form; otherwise deterministic
    full-gradient descent with step 1/L runs until the gradient norm drops
    below ``grad_tol``.
    """
    from .objectives import QuadraticObjective  # objectives imports this module

    w = fleet.importances if weights is None else _as_weights(weights, len(fleet))
    (_, table), *others = fleet.tables
    if not others and isinstance(table, QuadraticObjective):
        a_sum = sum_in_order(w[:, None] * table.a)
        b_sum = sum_in_order(w[:, None] * table.b)
        if np.any(a_sum <= 0):
            raise ConfigurationError("weighted quadratic has a flat direction; no finite optimum")
        return -b_sum / (2.0 * a_sum)

    smoothness = math.fsum((w * fleet.gather("smoothness")).tolist())
    step = 1.0 / smoothness
    active = w != 0.0
    w_active = w[active, None]
    theta = np.zeros(fleet.dim)
    for _ in range(max_iter):
        grad = sum_in_order(w_active * fleet.gradients(theta)[active])
        if np.linalg.norm(grad) < grad_tol:
            return theta
        theta = theta - step * grad
    raise RuntimeError(
        f"gradient descent did not reach gradient norm {grad_tol} in {max_iter} iterations"
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
