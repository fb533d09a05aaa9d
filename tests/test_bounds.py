from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asyncfed.bounds import (
    BoundInputs,
    epsilon_terms,
    fill_inputs,
    format_report,
    lr_constraint,
    residual_mean_gap,
    scheme_presets,
)
from asyncfed.core import ConfigurationError, Fleet, UnsupportedConfigError, ordered_sum, weighted_optimum
from asyncfed.objectives import GlmObjective, QuadraticObjective
from asyncfed.timing import PolicyKind, WaitPolicy

from conftest import quadratic_fleet, table_row


def base_inputs(**overrides):
    defaults = dict(
        n_clients=4, k_steps=4, n_rounds=100, eta_g=1.0, eta_l=0.05,
        smoothness=1.0, tau=2, window=3, alpha=0.5, beta=0.5,
        sigma=1.0, sigma1=1.0, max_q=1.0, residual=0.5, init_gap_sq=4.0,
    )
    defaults.update(overrides)
    return BoundInputs(**defaults)


class TestEpsilonTerms:
    def test_degenerate_setting_leaves_only_the_initialization_term(self):
        inputs = base_inputs(alpha=0.0, beta=0.0, k_steps=1, window=1, residual=0.0)
        terms = epsilon_terms(inputs)
        assert terms.eps_k == terms.eps_alpha == terms.eps_beta == terms.eps_w == 0.0
        assert terms.total == terms.eps_f > 0.0

    def test_doubling_the_delay_strictly_increases_the_total(self):
        lo = epsilon_terms(base_inputs(tau=2))
        hi = epsilon_terms(base_inputs(tau=4))
        assert hi.total > lo.total
        assert hi.eps_alpha > lo.eps_alpha  # quadratic delay dependence

    def test_full_participation_preset_has_the_three_term_shape(self):
        inputs = base_inputs(alpha=1.0, beta=0.0, tau=0, window=1, residual=0.0)
        terms = epsilon_terms(inputs)
        assert terms.eps_beta == 0.0 and terms.eps_w == 0.0
        assert terms.eps_f > 0 and terms.eps_k > 0 and terms.eps_alpha > 0

    def test_initialization_term_vanishes_with_the_horizon(self):
        short = epsilon_terms(base_inputs(n_rounds=10))
        long = epsilon_terms(base_inputs(n_rounds=10_000_000))
        assert long.eps_f < short.eps_f
        assert long.eps_f == pytest.approx(0.0, abs=1e-3)
        # the participation terms do not decay with N
        assert long.eps_alpha == short.eps_alpha
        assert long.eps_beta == short.eps_beta

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_total_is_monotone_in_each_driver(self, seed):
        rng = np.random.default_rng(seed)
        inputs = base_inputs(
            tau=float(rng.uniform(0, 5)), window=float(rng.uniform(1, 6)),
            alpha=float(rng.uniform(0, 1)), beta=float(rng.uniform(0, 2)),
            sigma=float(rng.uniform(0, 2)), sigma1=float(rng.uniform(0, 2)),
            residual=float(rng.uniform(0, 2)),
        )
        total = epsilon_terms(inputs).total
        for field_name in ("tau", "window", "alpha", "beta", "sigma", "sigma1", "residual"):
            bumped = replace(inputs, **{field_name: getattr(inputs, field_name) * 2 + 0.1})
            assert epsilon_terms(bumped).total >= total

    def test_nonnegative_inputs_enforced(self):
        with pytest.raises(ConfigurationError):
            base_inputs(alpha=-0.1)


class TestLrConstraint:
    def test_reference_point(self):
        assert lr_constraint(1, 1.0, 1.0, 1.0, 0) == pytest.approx(1 / 144, abs=1e-18)

    def test_vanishes_for_huge_delays(self):
        assert lr_constraint(1, 1.0, 1.0, 1.0, 10 ** 6) < 1e-8

    def test_doubling_local_work_halves_the_ceiling(self):
        one = lr_constraint(1, 1.0, 1.0, 1.0, 0)
        two = lr_constraint(2, 1.0, 1.0, 1.0, 0)
        assert two == pytest.approx(one / 2, rel=1e-12)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_monotone_nonincreasing_in_every_argument(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 10))
        smooth, rho, eta_g, tau = rng.uniform(0.1, 4.0, size=4)
        base = lr_constraint(k, smooth, rho, eta_g, tau)
        assert lr_constraint(k + 1, smooth, rho, eta_g, tau) <= base
        assert lr_constraint(k, smooth * 1.5, rho, eta_g, tau) <= base
        assert lr_constraint(k, smooth, rho * 1.5, eta_g, tau) <= base
        assert lr_constraint(k, smooth, rho, eta_g * 1.5, tau) <= base
        assert lr_constraint(k, smooth, rho, eta_g, tau + 1) <= base


class TestSchemePresets:
    def test_full_participation_column(self):
        fleet = quadratic_fleet([[0.0], [2.0]], taus=[1, 2])
        preset = scheme_presets("sync", fleet, time_budget=10.0)
        assert (preset.alpha, preset.beta, preset.tau, preset.window) == (1.0, 0.0, 0, 1)
        assert preset.residual == 0.0
        assert preset.n_rounds == 5.0

    def test_async_column_for_the_two_client_fleet(self):
        fleet = quadratic_fleet([[0.0], [2.0]], taus=[1, 2])
        preset = scheme_presets("async", fleet, time_budget=2.0)
        assert preset.beta == pytest.approx(1.5)
        assert preset.tau == 2
        assert preset.window == 3
        assert preset.residual == pytest.approx(0.5, abs=1e-12)
        assert preset.n_rounds == pytest.approx(3.0)

    def test_quadratic_gap_hand_value(self):
        fleet = quadratic_fleet([[0.0], [2.0]])
        assert residual_mean_gap(fleet) == pytest.approx(0.5, abs=1e-14)

    def test_fedfix_column_needs_a_window(self):
        fleet = quadratic_fleet([[0.0], [2.0]], taus=[1, 2])
        with pytest.raises(ConfigurationError):
            scheme_presets("fedfix", fleet)
        preset = scheme_presets(
            "fedfix", fleet, WaitPolicy(PolicyKind.FEDFIX, delta_t=1), time_budget=4.0
        )
        assert (preset.alpha, preset.beta) == (1.0, 0.0)
        assert preset.tau == 2 and preset.window == 2
        assert preset.n_rounds == 4.0

    def test_unknown_scheme_rejected(self):
        fleet = quadratic_fleet([[0.0], [2.0]])
        with pytest.raises(UnsupportedConfigError):
            scheme_presets("fedbuff", fleet)

    @pytest.mark.parametrize("taus", [[1, 2], [1, 2, 4], [2, 3, 6], [1, 1, 3]])
    def test_scheme_ordering_at_equal_round_count(self, taus):
        optima = [[float(2 * i)] for i in range(len(taus))]
        fleet = quadratic_fleet(optima, taus=taus)
        policy = WaitPolicy(PolicyKind.FEDFIX, delta_t=min(taus))
        base = base_inputs(n_clients=len(taus), eta_l=0.01, k_steps=2)
        totals = {}
        for name in ("sync", "fedfix", "async"):
            inputs = fill_inputs(scheme_presets(name, fleet, policy, 10.0), base)
            totals[name] = epsilon_terms(inputs).total
        assert totals["sync"] <= totals["fedfix"] <= totals["async"]


def _reference_residual(fleet):
    """The residual as a loop over clients: each client a one-row table, a
    GLM client's optimum the descent of a one-client fleet, the gaps added
    in client order."""
    theta_star = weighted_optimum(fleet)
    quadratic = isinstance(fleet.table, QuadraticObjective)
    gaps = []
    for i in range(len(fleet)):
        obj = table_row(fleet.table, i)
        local_opt = obj.optima[0] if quadratic else weighted_optimum(Fleet(obj, [1], [1.0]))
        gaps.append(float(obj.value(theta_star)[0] - obj.value(local_opt)[0]))
    return ordered_sum(gaps) / len(fleet)


@st.composite
def heterogeneous_fleets(draw):
    """A fleet of 1-8 clients with Dirichlet importances: quadratics of dim
    1-7 with per-row curvatures, or linear or logistic shards of dim 1-3 on
    40-60 samples (random labels, so no logistic shard is separable)."""
    family = draw(st.sampled_from(["quadratic", "linear", "logistic"]))
    m = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if family == "quadratic":
        dim = draw(st.integers(1, 7))
        table = QuadraticObjective(rng.uniform(0.05, 3.0, (m, dim)), rng.normal(0.0, 2.0, (m, dim)),
                                   rng.normal(size=m))
    else:
        dim, n = draw(st.integers(1, 3)), draw(st.integers(40, 60))
        x = rng.normal(size=(m, n, dim))
        y = (x @ rng.normal(size=dim) + rng.normal(0.0, 0.5, (m, n)) if family == "linear"
             else (rng.random((m, n)) < 0.5).astype(float))
        table = GlmObjective(x, y, family, batch_size=4)
    return Fleet(table, range(1, m + 1), rng.dirichlet(np.ones(m)))


class TestResidualMeanGap:
    @settings(max_examples=40, deadline=None)
    @given(heterogeneous_fleets())
    def test_one_table_pass_is_the_per_client_loop_bit_for_bit(self, fleet):
        got = residual_mean_gap(fleet)
        want = _reference_residual(fleet)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestReport:
    def test_flat_key_value_lines(self):
        inputs = base_inputs()
        report = format_report(inputs, epsilon_terms(inputs))
        lines = report.strip().splitlines()
        assert lines[0] == "ocal_constants = 1"
        parsed = dict(line.split(" = ") for line in lines)
        assert float(parsed["total"]) == pytest.approx(epsilon_terms(inputs).total)
