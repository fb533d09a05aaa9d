import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asyncfed import core
from asyncfed.core import (
    ConfigurationError,
    Fleet,
    UnsupportedConfigError,
    convergence_residual,
    distribution_weights,
    ordered_sum,
    row_optima,
    sum_in_order,
    weighted_optimum,
)
from asyncfed.objectives import _CHUNK_FLOATS, GlmObjective, QuadraticObjective, SyntheticShardConfig
from asyncfed.objectives import make_synthetic_shards

from conftest import bits, quadratic_fleet, table_row


def _loss_fed(theta, fleet):
    """The importance-weighted loss sum(p_i * L_i(theta))."""
    return math.fsum(fleet.importances * fleet.losses(np.reshape(theta, (1, -1)))[0])


class TestOrderedSum:
    def test_adds_left_to_right_without_compensation(self):
        # 1e16 + 1.0 rounds back to 1e16, so the plain order gives 0.0;
        # the compensated builtin sum of Python 3.12+ gives 1.0
        assert ordered_sum([1e16, 1.0, -1e16]) == 0.0
        assert ordered_sum(x for x in [0.1] * 10) == 0.9999999999999999

    def test_keeps_the_zero_start_and_exact_types(self):
        assert ordered_sum([]) == 0
        assert math.copysign(1.0, ordered_sum([-0.0])) == 1.0
        assert ordered_sum([Fraction(1, 3)] * 3) == 1


def _in_order(terms):
    """Python's left-to-right loop: the rows added one at a time to a -0.0
    total, each by one ``np.add`` (scalar arithmetic may add the operands the
    other way round, which picks another NaN of two)."""
    total = np.full(terms.shape[1:], -0.0)
    for row in terms:
        total = np.add(total, row)
    return total


def _summands(rng, shape):
    """Terms over sixteen decades, so that any other order of the additions
    moves last digits, with a random share of signed zeros, infinities and
    NaN among them (none in about a third of the draws)."""
    terms = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
    share = rng.choice([0.0, 0.05, 0.5])
    special = rng.random(shape) < share
    terms[special] = rng.choice([-0.0, 0.0, np.inf, -np.inf, np.nan], p=[0.4, 0.3, 0.1, 0.1, 0.1],
                                size=int(special.sum()))
    return terms


class TestSumInOrder:
    """The one client-order total: the bits of a left-to-right loop from
    -0.0 on every shape the engine, the optima and the oracle CSV sum."""

    SHAPES = {
        "one_column": lambda rng, m: _summands(rng, (m, 1)),
        "one_value_rows": lambda rng, m: _summands(rng, (m,)),
        "columns": lambda rng, m: _summands(rng, (m, int(rng.integers(2, 40)))),
        "member_stack": lambda rng, m: _summands(rng, (m, int(rng.integers(1, 6)), int(rng.integers(1, 5)))),
        "one_row": lambda rng, m: _summands(rng, (1, int(rng.integers(1, 40)))),
        "row_strided_view": lambda rng, m: _summands(rng, (2 * m, 30))[::2, :int(rng.integers(1, 25))],
    }

    @pytest.mark.parametrize("kind", SHAPES)
    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_equals_a_left_to_right_loop(self, kind, seed):
        rng = np.random.default_rng(seed)
        terms = self.SHAPES[kind](rng, int(rng.integers(1, 300)))
        with np.errstate(invalid="ignore"):
            assert bits(sum_in_order(terms)) == bits(_in_order(terms))

    def test_starts_from_negative_zero(self):
        negative = np.full((5, 3), -0.0)
        assert bits(sum_in_order(negative)) == bits(np.full(3, -0.0))
        assert bits(sum_in_order(negative[:, :1])) == bits(np.full(1, -0.0))
        negative[2, 1] = 0.0
        assert np.signbit(sum_in_order(negative)).tolist() == [True, False, True]


class TestConvergenceResidual:
    def test_identical_clients_full_gradient_is_exactly_zero(self):
        fleet = quadratic_fleet([[1.5], [1.5], [1.5]])
        assert convergence_residual(fleet, fleet.importances, [1.5]) == 0.0

    def test_single_client_at_optimum(self):
        fleet = quadratic_fleet([[4.0]], importances=[1.0])
        assert convergence_residual(fleet, [1.0], [4.0]) == 0.0

    def test_two_quadratics_hand_value(self, two_client_fleet):
        # gradients at the midpoint have unit squared norm for both clients
        assert convergence_residual(two_client_fleet, [0.5, 0.5], [1.0]) == pytest.approx(1.0, abs=1e-15)

    def test_noise_adds_dim_times_its_variance(self):
        # gradients -8, -4, 0, 4, 8 at the mean, plus one unit of noise each
        fleet = quadratic_fleet([[-8.0], [-4.0], [0.0], [4.0], [8.0]], noise_std=1.0)
        assert convergence_residual(fleet, fleet.importances, [0.0]) == 33.0
        assert convergence_residual(fleet, fleet.importances, [0.0], full_gradient=True) == 32.0
        wide = quadratic_fleet([[1.0, 2.0, 3.0]], importances=[1.0], noise_std=0.5)
        assert convergence_residual(wide, [1.0], [1.0, 2.0, 3.0]) == 0.75

    @pytest.mark.parametrize("batch_size", [None, 2])
    def test_full_gradients_are_one_fleet_call_and_exact(self, monkeypatch, batch_size):
        fleet = _glm_fleet("logistic")
        q = np.array([0.3, 0.0, 0.1, 0.2, 0.25, 0.15])
        theta = np.array([0.4, -1.0, 0.7])
        want = ordered_sum(qi * float(np.dot(g, g)) for qi, g in
                           zip(q, (table_row(fleet.table, i).gradients(theta)[0] for i in range(len(fleet)))) if qi)
        calls = []
        original = GlmObjective.gradients
        monkeypatch.setattr(GlmObjective, "gradients", lambda self, t: calls.append(1) or original(self, t))
        assert convergence_residual(fleet, q, theta, full_gradient=True, batch_size=batch_size) == want
        assert len(calls) == 1

    @pytest.mark.parametrize("family", ["glm", "quadratic"])
    @pytest.mark.parametrize("batch_size", [None, 2, 4])
    def test_stochastic_terms_go_client_by_client(self, family, batch_size):
        # GLM shards of 6 samples, or noisy and noiseless quadratics; client
        # 2 has weight 0 and adds nothing
        rng = np.random.default_rng(11)
        if family == "glm":
            x = rng.standard_normal((5, 6, 3))
            table = GlmObjective(x, (rng.random((5, 6)) < 0.5).astype(float), "logistic", 2)
        else:
            table = QuadraticObjective(rng.uniform(0.1, 2.0, (5, 3)), rng.normal(size=(5, 3)),
                                       [0.3, 0.0, 0.1, -0.2, 0.0], [0.7, 0.0, 0.4, 1.5, 0.0])
        fleet = Fleet(table, [1] * 5, [0.2] * 5)
        q, theta = [0.3, 0.15, 0.0, 0.3, 0.25], np.array([0.3, -0.2, 0.5])
        want = 0.0
        for i, qi in enumerate(q):
            obj = table_row(fleet.table, i)
            g = obj.gradients(theta)[0]
            moment = float(np.dot(g, g))
            if isinstance(obj, GlmObjective):
                # the variance of a B-subset mean of the per-sample gradients
                n, b = obj.n_samples, batch_size or obj.batch_size
                x, y = obj.features[0], obj.targets[0]
                per_sample = [(1.0 / (1.0 + math.exp(-float(x[s] @ theta))) - y[s]) * x[s] for s in range(n)]
                spread = math.fsum(float(np.dot(gs - g, gs - g)) for gs in per_sample) / n
                moment += spread * (n - b) / (b * (n - 1))
            else:
                moment += 3 * obj.noise_std[0] ** 2
            want += qi * moment
        assert convergence_residual(fleet, q, theta, batch_size=batch_size) == pytest.approx(want, rel=1e-13)

    def test_a_batch_above_the_shard_is_rejected(self):
        fleet = _glm_fleet("linear")
        with pytest.raises(ConfigurationError, match="batch size"):
            convergence_residual(fleet, fleet.importances, np.zeros(3), batch_size=301)

    @pytest.mark.parametrize("case", ["noisy_quadratic", "glm_minibatch", "glm_whole_shard"])
    def test_sampled_one_step_gradients_match_the_closed_form(self, case):
        # 20,000 one-step gradients per client, drawn as a run draws them:
        # the engine's draw table, then one local_sgd step of size 1
        rng = np.random.default_rng(3)
        if case == "noisy_quadratic":
            table, batch_size = QuadraticObjective(rng.uniform(0.2, 1.0, (3, 2)), rng.normal(size=(3, 2)), 0.0,
                                                   [0.5, 1.0, 2.0]), None
        else:
            x = rng.standard_normal((3, 12, 3))
            table = GlmObjective(x, (rng.random((3, 12)) < 0.5).astype(float), "logistic", 5)
            batch_size = 5 if case == "glm_minibatch" else 12
        fleet, theta = Fleet(table, [1] * 3, [0.2, 0.3, 0.5]), rng.normal(size=table.dim)
        squares = (_one_step_gradients(table, theta, batch_size) ** 2).sum(axis=2)  # (clients, draws)
        for i in range(3):
            want = convergence_residual(fleet, np.eye(3)[i], theta, batch_size=batch_size)
            se = squares[i].std(ddof=1) / math.sqrt(squares.shape[1])
            # a whole-shard batch adds no variance: the draws differ from the
            # full gradient by their summation order alone
            assert abs(squares[i].mean() - want) <= max(4.0 * se, 1e-12 * want)
            full = convergence_residual(fleet, np.eye(3)[i], theta, full_gradient=True)
            assert (want == full) is (case == "glm_whole_shard")


def _one_step_gradients(table, theta, batch_size, n_passes=200, n_members=100):
    """(rows, n_passes * n_members, dim) stochastic gradients of every row
    of ``table`` at ``theta``: each member's stream on each row is its own
    generator, and a pass draws one step of every row and member."""
    from asyncfed.engine import _DrawTable
    from asyncfed.objectives import local_sgd

    rows = np.arange(len(table))
    generators = [[np.random.default_rng([g, r]) for r in range(n_members)] for g in rows.tolist()]
    draws = _DrawTable(table, generators, range(n_members), 1, batch_size)
    taken = np.concatenate([draws.take(rows) for _ in range(n_passes)], axis=1)
    starts = np.broadcast_to(theta, (n_passes * len(rows), n_members, table.dim))
    delta = local_sgd(table, np.tile(rows, n_passes), starts, 1, 1.0, taken).delta
    return -delta.reshape(n_passes, len(rows), n_members, -1).swapaxes(0, 1).reshape(len(rows), -1, table.dim)


class TestDistributionWeights:
    def test_single_distribution(self):
        fleet = quadratic_fleet([[0.0], [1.0]], distribution_ids=[0, 0])
        out = distribution_weights(fleet, [0.2, 0.2])
        assert out.importance.tolist() == [1.0]
        assert out.expected_normalized.tolist() == [1.0]

    def test_paired_distributions_importance(self):
        fleet = quadratic_fleet([[0.0]] * 4, distribution_ids=[0, 0, 1, 1])
        out = distribution_weights(fleet, [0.25] * 4)
        assert out.importance.tolist() == [0.5, 0.5]

    def test_alternating_round_weights_normalize_evenly(self):
        fleet = quadratic_fleet([[0.0]] * 4, distribution_ids=[0, 0, 1, 1])
        out = distribution_weights(fleet, [0.5, 0.0, 0.5, 0.0])
        assert out.expected_normalized.tolist() == [0.5, 0.5]

    def test_importance_sums_to_one_and_dominates_members(self):
        rng = np.random.default_rng(3)
        p = rng.dirichlet(np.ones(5)).tolist()
        fleet = quadratic_fleet([[0.0]] * 5, importances=p, distribution_ids=[0, 1, 0, 2, 1])
        out = distribution_weights(fleet, p)
        assert math.fsum(out.importance.tolist()) == pytest.approx(1.0, abs=1e-12)
        for j, dist in enumerate(out.ids):
            members = [pi for pi, k in zip(p, fleet.distribution_ids) if k == dist]
            assert out.importance[j] >= max(members) - 1e-15


class TestConvexityAlongSegments:
    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_quadratic_fleet_midpoint_bound(self, seed):
        rng = np.random.default_rng(seed)
        fleet = quadratic_fleet([rng.normal(size=2).tolist() for _ in range(3)])
        a, b = rng.normal(size=2), rng.normal(size=2)
        mid = _loss_fed((a + b) / 2, fleet)
        assert mid <= 0.5 * _loss_fed(a, fleet) + 0.5 * _loss_fed(b, fleet) + 1e-12

    def test_logistic_fleet_midpoint_bound(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(20, 3))
        y = (rng.random(20) < 0.5).astype(float)
        obj = GlmObjective([x], [y], "logistic", batch_size=4)
        fleet = Fleet(obj, [1], [1.0])
        for _ in range(20):
            a, b = rng.normal(size=3), rng.normal(size=3)
            mid = _loss_fed((a + b) / 2, fleet)
            assert mid <= 0.5 * _loss_fed(a, fleet) + 0.5 * _loss_fed(b, fleet) + 1e-12


class TestWeightedOptimum:
    def test_quadratic_closed_form(self):
        fleet = quadratic_fleet([[0.0], [2.0]], importances=[0.25, 0.75])
        assert weighted_optimum(fleet)[0] == pytest.approx(1.5, abs=1e-14)

    def test_gradient_descent_reaches_stationarity(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(40, 3))
        logits = x @ np.array([1.0, -0.5, 0.2])
        y = (rng.random(40) < 1 / (1 + np.exp(-logits))).astype(float)
        obj = GlmObjective([x], [y], "logistic", batch_size=4)
        fleet = Fleet(obj, [1], [1.0])
        opt = weighted_optimum(fleet)
        assert np.linalg.norm(obj.gradients(opt)[0]) < 1e-10


class TestFleetValidation:
    def test_importances_must_sum_to_one(self):
        table = QuadraticObjective.from_optima([0.0, 0.0])
        with pytest.raises(ConfigurationError):
            Fleet(table, [1, 1], [0.5, 0.6])

    def test_nonpositive_compute_time(self):
        table = QuadraticObjective.from_optima([0.0])
        with pytest.raises(ConfigurationError, match="client 0: compute_time must be positive, got 0"):
            Fleet(table, [0], [1.0])

    def test_importance_outside_the_unit_interval_is_named_as_given(self):
        table = QuadraticObjective.from_optima([0.0, 0.0])
        with pytest.raises(ConfigurationError, match=r"client 1: importance must lie in \(0, 1\], got 2$"):
            Fleet(table, [1, 1], [0.5, 2])

    @pytest.mark.parametrize("n_rows", [2, 4])
    def test_the_table_must_hold_one_row_per_client(self, n_rows):
        table = QuadraticObjective.from_optima([float(i) for i in range(n_rows)])
        with pytest.raises(ConfigurationError, match=f"the objective table has {n_rows} rows for 3 clients"):
            Fleet(table, [1, 1, 1], [0.25, 0.25, 0.5])

    @pytest.mark.parametrize("table", [
        [(np.arange(1), QuadraticObjective.from_optima([0.0]))],  # a list of (positions, table) pairs
        np.zeros((1, 1)),
    ], ids=["positions-table-list", "array"])
    def test_a_fleet_takes_one_objective_table(self, table):
        # each has one entry, as many as the fleet's clients, so only the
        # type check tells it from a one-row table
        with pytest.raises(ConfigurationError, match="a fleet takes one QuadraticObjective or GlmObjective table"):
            Fleet(table, [1], [1.0])

    def test_importances_are_one_shared_read_only_array(self, two_client_fleet):
        p = two_client_fleet.importances
        assert p is two_client_fleet.importances
        assert p.tolist() == [0.5, 0.5]
        with pytest.raises(ValueError):
            p[0] = 1.0


# ---------------------------------------------------------------------------
# Stacked tables: every fleet-level evaluation equals the per-shard
# computation it replaces, bit for bit
# ---------------------------------------------------------------------------

def _reference_quadratic_values(obj, thetas):
    """The losses of the one-row table ``obj`` as one quadratic computed
    them before the fleet tables."""
    return (thetas * thetas) @ obj.a[0] + thetas @ obj.b[0] + obj.c[0]


def _reference_glm_values(obj, thetas):
    """The losses of the one-row table ``obj`` as one shard computed them
    before the fleet tables: row chunks of ``_CHUNK_FLOATS // n``, one
    margin product per chunk."""
    out = np.empty(thetas.shape[0])
    step = max(1, _CHUNK_FLOATS // obj.n_samples)
    x, y = obj.features[0], obj.targets[0]
    sign = np.where(y > 0.5, -1.0, 1.0)
    for lo in range(0, thetas.shape[0], step):
        z = thetas[lo:lo + step] @ x.T
        if obj.link == "linear":
            z -= y
            out[lo:lo + step] = 0.5 * (z * z).mean(axis=1)
        else:
            z *= sign
            out[lo:lo + step] = np.logaddexp(0.0, z, out=z).mean(axis=1)
    return out


def _reference_values(obj, thetas):
    if isinstance(obj, QuadraticObjective):
        return _reference_quadratic_values(obj, thetas)
    return _reference_glm_values(obj, thetas)


def _reference_descent(fleet, w, grad_tol=1e-10):
    """The weighted GLM optimum as a per-client loop: the step from each
    shard's own smoothness, full-shard gradients one client at a time, added
    in client order, zero weights skipped."""
    objs = [table_row(fleet.table, i) for i in range(len(fleet))]
    data = [(o.features[0], o.targets[0], o.link) for o in objs]
    smoothness = [(1.0 if link == "linear" else 0.25) * float(np.linalg.eigvalsh(x.T @ x).max()) / x.shape[0]
                  for x, _, link in data]
    step = 1.0 / math.fsum(wi * s for wi, s in zip(w, smoothness))
    theta = np.zeros(fleet.dim)
    while True:
        grad = np.zeros(fleet.dim)
        for wi, (x, y, link) in zip(w, data):
            if wi != 0.0:
                z = x @ theta
                if link == "logistic":
                    e = np.exp(np.minimum(z, -z))
                    z = np.where(z >= 0, 1.0, e) / (1.0 + e)
                grad += wi * (x.T @ (z - y) / x.shape[0])
        if np.linalg.norm(grad) < grad_tol:
            return theta
        theta = theta - step * grad


def _glm_fleet(link):
    """Six clients with distinct shards of 300 samples each: one GLM table."""
    rng = np.random.default_rng(11)
    x = rng.standard_normal((6, 300, 3))
    y = (rng.random((6, 300)) < 0.5).astype(float) if link == "logistic" else x @ rng.normal(size=3)
    p = rng.dirichlet(np.ones(6))
    p[-1] = 1.0 - math.fsum(p[:-1])
    return Fleet(GlmObjective(x, y, link, batch_size=2), range(1, 7), p)


class TestFleetTables:
    def test_table_arrays_are_per_client_in_client_order(self):
        fleet = _glm_fleet("logistic")
        smoothness = fleet.table.smoothness
        assert smoothness.shape == (6,)
        assert smoothness.tolist() == [table_row(fleet.table, i).smoothness[0] for i in range(6)]
        assert len(set(smoothness.tolist())) == 6  # distinct shards
        optima = quadratic_fleet([[1.0, 2.0], [-3.0, 0.5]]).table.optima
        assert optima.tolist() == [[1.0, 2.0], [-3.0, 0.5]]

    @pytest.mark.parametrize("rows", [1, 7, 450])  # 450 rows: two chunks and a tail for 300 samples
    @pytest.mark.parametrize("link", ["linear", "logistic"])
    def test_glm_fleet_losses_are_the_per_shard_bits(self, link, rows):
        fleet = _glm_fleet(link)
        thetas = np.random.default_rng(rows).normal(0.0, 2.0, (rows, 3))
        matrix = fleet.losses(thetas)
        assert matrix.shape == (rows, len(fleet))
        for i in range(len(fleet)):
            obj = table_row(fleet.table, i)
            assert np.array_equal(matrix[:, i], _reference_values(obj, thetas))
            assert np.array_equal(matrix[:, i], obj.values(thetas)[:, 0])
        for theta in thetas[:3]:
            by_client = [pi * table_row(fleet.table, i).value(theta)[0] for i, pi in enumerate(fleet.importances)]
            assert _loss_fed(theta, fleet) == math.fsum(by_client)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_quadratic_fleet_losses_are_the_per_client_bits(self, dim):
        rng = np.random.default_rng(dim)
        rows = [(rng.uniform(0.0, 2.0, dim), rng.normal(size=dim), float(rng.normal())) for _ in range(6)]
        table = QuadraticObjective(*(np.array(column) for column in zip(*rows)))
        fleet = Fleet(table, [1] * 6, [1 / 6] * 6)
        thetas = rng.normal(0.0, 5.0, (41, dim))
        matrix = fleet.losses(thetas)
        for i in range(6):
            obj = table_row(table, i)
            assert np.array_equal(matrix[:, i], _reference_quadratic_values(obj, thetas))
            assert np.array_equal(matrix[:, i], obj.values(thetas)[:, 0])
        for theta in thetas[:5]:
            by_client = [pi * table_row(table, i).value(theta)[0] for i, pi in enumerate(fleet.importances)]
            assert _loss_fed(theta, fleet) == math.fsum(by_client)

    @pytest.mark.parametrize("link", ["linear", "logistic"])
    def test_glm_optimum_is_the_per_client_descent(self, link):
        shards = make_synthetic_shards(SyntheticShardConfig(5, dim=3, samples_per_client=20, seed=1, link=link))
        fleet = Fleet(shards, [1] * 5, [0.2] * 5)
        w = np.array([0.3, 0.0, 0.25, 0.25, 0.2])  # a zero weight is skipped
        got = weighted_optimum(fleet, w)
        assert np.array_equal(got, _reference_descent(fleet, w))
        assert np.array_equal(weighted_optimum(fleet), _reference_descent(fleet, fleet.importances))


def _one_row_optimum(table, i):
    """Row i's optimum as the federated optimum of a fleet of row i alone."""
    return weighted_optimum(Fleet(table_row(table, i), [1], [1.0]))


@pytest.fixture
def gradient_calls(monkeypatch):
    """The list of calls of the GLM gradient kernel made since it was
    cleared, one shape of theta per call."""
    from asyncfed import objectives

    calls = []
    gradient = objectives._glm_gradient
    monkeypatch.setattr(objectives, "_glm_gradient", lambda x, y, theta, link: calls.append(np.shape(theta))
                        or gradient(x, y, theta, link))
    return calls


class TestRowOptima:
    """Every row's own optimum, the GLM rows in one stacked descent."""

    TABLE = make_synthetic_shards(SyntheticShardConfig(10, samples_per_client=64, seed=1))

    def _calls_per_row(self, gradient_calls):
        """Each row's gradient calls (its iterations + 1) alone."""
        per_row = []
        for i in range(len(self.TABLE)):
            gradient_calls.clear()
            _one_row_optimum(self.TABLE, i)
            per_row.append(len(gradient_calls))
        gradient_calls.clear()
        return per_row

    @pytest.mark.parametrize("table", [
        _glm_fleet("linear").table,
        _glm_fleet("logistic").table,
        make_synthetic_shards(SyntheticShardConfig(4, dim=1, samples_per_client=64, seed=3)),
        make_synthetic_shards(SyntheticShardConfig(5, dim=4, samples_per_client=40, seed=2, link="linear")),
    ], ids=["linear", "logistic", "logistic-dim-1", "linear-synthetic"])
    def test_glm_rows_are_their_one_row_descents(self, table):
        want = np.array([_one_row_optimum(table, i) for i in range(len(table))])
        assert bits(row_optima(table)) == bits(want)

    def test_quadratic_rows_are_the_closed_form(self):
        table = QuadraticObjective([[0.5, 2.0], [0.25, 0.125]], [[1.0, 0.0], [0.0, -1.0]])
        assert bits(row_optima(table)) == bits(table.optima)

    def test_the_descent_takes_as_many_gradient_calls_as_its_slowest_row(self, gradient_calls):
        per_row = self._calls_per_row(gradient_calls)
        row_optima(self.TABLE)
        assert len(gradient_calls) == max(per_row) < sum(per_row)
        # the first call takes every row, the last the slowest alone
        assert gradient_calls[0] == (10, 5) and gradient_calls[-1] == (1, 5)

    def test_a_federated_descent_short_of_its_tolerance_is_unsupported(self, monkeypatch):
        fleet = _glm_fleet("logistic")
        monkeypatch.setattr(core, "DESCENT_MAX_ITER", 5)
        with pytest.raises(UnsupportedConfigError, match=r"^the federated gradient descent did not reach "
                                                         r"gradient norm 1e-10 in 5 iterations; its norm is ") as err:
            weighted_optimum(fleet)
        assert float(str(err.value).rsplit(" ", 1)[1]) > 1e-10

    def test_a_row_descent_short_of_its_tolerance_names_its_client(self, gradient_calls, monkeypatch):
        per_row = self._calls_per_row(gradient_calls)
        slowest = int(np.argmax(per_row))
        cap = max(per_row) - 1  # every other row is done within it
        assert sorted(per_row)[-2] <= cap
        monkeypatch.setattr(core, "DESCENT_MAX_ITER", cap)
        with pytest.raises(UnsupportedConfigError, match=rf"^client {slowest}'s gradient descent did not reach "
                                                         rf"gradient norm 1e-10 in {cap} iterations; its norm is "):
            row_optima(self.TABLE)
        with pytest.raises(UnsupportedConfigError, match=rf"^the federated gradient descent .* in {cap} iterations"):
            _one_row_optimum(self.TABLE, slowest)
