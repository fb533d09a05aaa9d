"""Evaluable convergence-bound terms, the learning-rate ceiling, per-scheme
parameter presets, and the exponent conditions for asymptotic convergence.

Every big-O constant is set to 1, so the numbers are only meaningful for
ordering and trend comparisons, never as absolute predictions. Reports carry
that convention explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigurationError, Fleet, UnsupportedConfigError, ordered_sum, weighted_optimum
from .objectives import QuadraticObjective
from .timing import HardwareModel, PolicyKind, WaitPolicy, staleness_bound
from .weights import WeightScheme, plan_weights, window_counts


@dataclass(frozen=True)
class BoundInputs:
    n_clients: int
    k_steps: int
    n_rounds: int
    eta_g: float
    eta_l: float
    smoothness: float
    tau: float
    window: float
    alpha: float
    beta: float
    sigma: float = 0.0       # gradient second moment at the long-run optimum
    sigma1: float = 0.0      # per-round analog entering the local-drift term
    max_q: float = 1.0
    residual: float = 0.0    # mean surrogate-optimum gap across rounds
    init_gap_sq: float = 1.0
    chi_sq: float = 0.0
    rho: float = 1.0

    def __post_init__(self):
        numeric = (
            self.eta_g, self.eta_l, self.smoothness, self.tau, self.window,
            self.alpha, self.beta, self.sigma, self.sigma1, self.max_q,
            self.residual, self.init_gap_sq, self.chi_sq, self.rho,
        )
        if any(v < 0 for v in numeric):
            raise ConfigurationError("bound inputs must be nonnegative")
        if self.n_rounds < 1 or self.k_steps < 1 or self.n_clients < 1 or self.window < 1:
            raise ConfigurationError("N, K, M, W must be at least 1")


@dataclass(frozen=True)
class EpsilonTerms:
    eps_f: float
    eps_k: float
    eps_alpha: float
    eps_beta: float
    eps_w: float

    @property
    def total(self) -> float:
        return self.eps_f + self.eps_k + self.eps_alpha + self.eps_beta + self.eps_w


def epsilon_terms(inputs: BoundInputs) -> EpsilonTerms:
    """Evaluate the five bound terms with unit constants.

    The total is nondecreasing in each of tau, window, alpha, beta, sigma,
    sigma1, and residual when the others are held fixed.
    """
    eta = inputs.eta_g * inputs.eta_l
    k = inputs.k_steps
    if eta == 0:
        eps_f = math.inf if inputs.init_gap_sq > 0 else 0.0
    else:
        eps_f = inputs.init_gap_sq / (eta * k * inputs.n_rounds)
    eps_k = _product(_square(inputs.eta_l), (k - 1) ** 2, inputs.residual + inputs.sigma1)
    delay_factor = eta + _product(_square(eta), k ** 2, _square(inputs.tau))
    eps_alpha = _product(inputs.alpha, delay_factor, inputs.residual + inputs.max_q * inputs.sigma)
    eps_beta = _product(inputs.beta, delay_factor, inputs.residual + inputs.sigma)
    eps_w = _product(eta, inputs.window - 1, k)
    return EpsilonTerms(eps_f, eps_k, eps_alpha, eps_beta, eps_w)


def _square(x: float) -> float:
    """``x ** 2``, or inf where that overflows a double (a Python float's
    ``**`` raises ``OverflowError`` there)."""
    try:
        return x ** 2
    except OverflowError:
        return math.inf


def _product(*factors) -> float:
    """The factors multiplied left to right, or 0.0 when one of them is
    zero: a term with a zero factor is 0 even where another factor
    overflowed to inf."""
    if 0 in factors:
        return 0.0
    return math.prod(factors)


def lr_constraint(k_steps: int, smoothness: float, rho: float, eta_g: float, tau: float) -> float:
    """Largest admissible local learning rate,
    1/(48 K L) * min(1, 1/(3 rho^2 eta_g (tau + 1)))."""
    if smoothness <= 0:
        raise ConfigurationError("smoothness constant must be positive")
    if k_steps < 1:
        raise ConfigurationError("k_steps must be at least 1")
    base = 1.0 / (48.0 * k_steps * smoothness)
    damping = 3.0 * _square(rho) * eta_g * (tau + 1.0)
    return base * min(1.0, 1.0 / damping) if damping > 0 else base


@dataclass(frozen=True)
class SchemePreset:
    scheme: str
    alpha: float
    beta: float
    tau: int
    window: int
    residual: float
    n_rounds: float     # aggregations per time budget
    d: tuple[float, ...]


_PRESET_SCHEMES = ("sync", "async", "fedfix")


def scheme_presets(
    scheme: str,
    fleet: Fleet,
    policy: WaitPolicy | None = None,
    time_budget: float = 1.0,
    residual: float | None = None,
) -> SchemePreset:
    """Fill the per-scheme bound parameters for a fixed-hardware fleet.

    ``residual`` is the fleet's :func:`residual_mean_gap`, computed here when
    not given; a caller filling several presets computes it once."""
    if scheme not in _PRESET_SCHEMES:
        raise UnsupportedConfigError(f"no preset for scheme {scheme!r}")
    if scheme == "fedfix" and (policy is None or policy.kind is not PolicyKind.FEDFIX):
        raise ConfigurationError("the fedfix preset needs a fedfix policy with delta_t")
    taus = [float(t) for t in fleet.compute_times]
    tau_max = max(taus)
    hw = HardwareModel("fixed")

    if scheme == "sync":
        return SchemePreset(
            scheme, 1.0, 0.0, 0, 1, 0.0, time_budget / tau_max,
            tuple(fleet.importances),
        )
    if scheme == "async":
        policy = WaitPolicy(PolicyKind.ASYNCHRONOUS)
        weights, alpha, n_rounds = WeightScheme.ASYNC_TIME_BASED, 0.0, ordered_sum(time_budget / t for t in taus)
    else:
        weights, alpha, n_rounds = WeightScheme.FEDFIX_TIME_BASED, 1.0, time_budget / float(policy.delta_t)
    plan = plan_weights(weights, fleet.importances, fleet.compute_times, policy, hw)
    # the schedule's own terms first: a fleet whose schedule the staleness
    # analysis rejects exits before the residual's per-client descents
    window, _ = window_counts(policy, fleet.compute_times)
    tau = staleness_bound(policy, hw, fleet.compute_times)
    if residual is None:
        residual = residual_mean_gap(fleet)
    beta = float(plan.d.max()) if scheme == "async" else 0.0
    return SchemePreset(scheme, alpha, beta, tau, window, residual, n_rounds, tuple(plan.d))


def residual_mean_gap(fleet: Fleet) -> float:
    """Mean over clients of L_i(theta_star) - L_i(theta_i_star): how far the
    federated optimum sits from each client's own optimum. Exact for
    quadratic objectives."""
    theta_star = weighted_optimum(fleet)
    gaps = np.empty(len(fleet))
    for positions, table in fleet.tables:
        quadratic = isinstance(table, QuadraticObjective)
        for j, i in enumerate(positions.tolist()):
            obj = table.row(j)
            local_opt = obj.optima[0] if quadratic else weighted_optimum(Fleet([(np.arange(1), obj)], [1], [1.0]))
            gaps[i] = obj.value(theta_star)[0] - obj.value(local_opt)[0]
    return ordered_sum(gaps.tolist()) / len(fleet)


def fill_inputs(preset: SchemePreset, base: BoundInputs) -> BoundInputs:
    """Overlay a scheme preset onto shared bound inputs."""
    from dataclasses import replace

    return replace(
        base,
        alpha=preset.alpha,
        beta=preset.beta,
        tau=preset.tau,
        window=preset.window,
        residual=preset.residual,
        max_q=max(preset.d),
    )


def format_report(inputs: BoundInputs, terms: EpsilonTerms) -> str:
    """Flat machine-parseable key-value block."""
    lines = [
        "ocal_constants = 1",
        f"n_clients = {inputs.n_clients}",
        f"k_steps = {inputs.k_steps}",
        f"n_rounds = {inputs.n_rounds}",
        f"eta_g = {inputs.eta_g:.17g}",
        f"eta_l = {inputs.eta_l:.17g}",
        f"smoothness = {inputs.smoothness:.17g}",
        f"tau = {inputs.tau:.17g}",
        f"window = {inputs.window:.17g}",
        f"alpha = {inputs.alpha:.17g}",
        f"beta = {inputs.beta:.17g}",
        f"sigma = {inputs.sigma:.17g}",
        f"sigma1 = {inputs.sigma1:.17g}",
        f"max_q = {inputs.max_q:.17g}",
        f"residual = {inputs.residual:.17g}",
        f"init_gap_sq = {inputs.init_gap_sq:.17g}",
        f"chi_sq = {inputs.chi_sq:.17g}",
        f"rho = {inputs.rho:.17g}",
        f"eps_f = {terms.eps_f:.17g}",
        f"eps_k = {terms.eps_k:.17g}",
        f"eps_alpha = {terms.eps_alpha:.17g}",
        f"eps_beta = {terms.eps_beta:.17g}",
        f"eps_w = {terms.eps_w:.17g}",
        f"total = {terms.total:.17g}",
        f"lr_max = {lr_constraint(inputs.k_steps, inputs.smoothness, inputs.rho, inputs.eta_g, inputs.tau):.17g}",
    ]
    return "\n".join(lines) + "\n"
