import itertools
import math
from typing import NamedTuple

import numpy as np
import pytest

from asyncfed.core import ConfigurationError
from asyncfed.objectives import (
    _CHUNK_FLOATS,
    GlmObjective,
    QuadraticObjective,
    SyntheticShardConfig,
    _glm_gradient,
    _sigmoid,
    export_shards_csv,
    local_sgd,
    make_synthetic_shards,
)

from asyncfed.engine import _DrawTable
from conftest import BatchStream, bits, reference_draws


def _local_optima(table, iters=20000):
    """Gradient descent with step 1/L from zero on every row of ``table``,
    as one (G, dim) descent: ``gradients`` gives each row of a stacked theta
    the bits of its one-row table's call, and each row steps by its own
    smoothness, which is that of its one-row table."""
    step = 1.0 / table.smoothness
    assert step.tolist() == [1.0 / table.row(g).smoothness[0] for g in range(len(table))]
    theta = np.zeros((len(table), table.dim))
    for _ in range(iters):
        theta = theta - step[:, None] * table.gradients(theta)
    return theta


def _quadratic(a, b, c=0.0, noise_std=0.0):
    """The one-row table of the quadratic with coefficient vectors a and b."""
    return QuadraticObjective([a], [b], c, noise_std)


def _at(optimum, noise_std=0.0):
    """The one-row table of the quadratic 1/2 |theta - optimum|^2."""
    return QuadraticObjective.from_optima([optimum], noise_std=noise_std)


class Run(NamedTuple):
    endpoint: np.ndarray
    delta: np.ndarray
    path: np.ndarray
    overflow_step: int  # -1 when the run stayed finite


def one_run(start, obj, k_steps, eta_l, source=None) -> Run:
    """One job of one member on the one-row table ``obj``."""
    start = np.atleast_1d(np.asarray(start, dtype=float))
    out = local_sgd(obj, [0], start[None, None], k_steps, eta_l,
                    None if source is None else reference_draws(obj, [0], k_steps, [[source]]))
    step = -1 if out.overflow_step is None else int(out.overflow_step[0, 0])
    return Run(out.endpoint[0, 0], out.delta[0, 0], out.path[:, 0, 0], step)


class TestLocalSgd:
    def test_one_step_halves_the_gap(self):
        obj = _at([2.0])  # gradient is theta - 2
        out = one_run([0.0], obj, 1, 0.5)
        assert out.endpoint[0] == pytest.approx(1.0, abs=0)
        assert out.delta[0] == pytest.approx(1.0, abs=0)

    def test_zero_learning_rate_is_identity(self):
        obj = _at([2.0])
        out = one_run([0.7], obj, 5, 0.0)
        assert out.endpoint[0] == 0.7

    def test_three_steps_match_explicit_iteration(self):
        obj = _at([3.0])
        theta = 0.4
        for _ in range(3):
            theta = theta - 0.1 * (theta - 3.0)
        out = one_run([0.4], obj, 3, 0.1)
        assert out.endpoint[0] == pytest.approx(theta, abs=1e-15)
        contraction = 1 - (1 - 0.1) ** 3
        assert contraction == pytest.approx(0.271, abs=1e-15)
        assert out.delta[0] == pytest.approx(contraction * (3.0 - 0.4), rel=1e-12)

    def test_full_gradient_quadratic_closed_form(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            opt, start = rng.normal(size=2)
            k = int(rng.integers(1, 9))
            eta = float(rng.uniform(0.01, 0.9))
            obj = _at([opt])
            out = one_run([start], obj, k, eta)
            expected = (1 - eta) ** k * start + (1 - (1 - eta) ** k) * opt
            assert out.endpoint[0] == pytest.approx(expected, abs=1e-12)

    def test_affine_in_the_start_point(self):
        obj = _at([1.0, -2.0])
        rng = np.random.default_rng(4)
        for _ in range(10):
            x, y = rng.normal(size=(2, 2))
            alpha = float(rng.random())
            fx = one_run(x, obj, 4, 0.2).endpoint
            fy = one_run(y, obj, 4, 0.2).endpoint
            fmix = one_run(alpha * x + (1 - alpha) * y, obj, 4, 0.2).endpoint
            assert np.allclose(fmix, alpha * fx + (1 - alpha) * fy, atol=1e-10)

    def test_divergence_reports_step_index(self):
        obj = _quadratic([1e200], [0.0])
        out = one_run([1.0], obj, 10, 10.0)
        assert 0 <= out.overflow_step < 10
        assert not np.isfinite(out.endpoint).all()

    def test_recorded_path_has_k_plus_one_points(self):
        obj = _at([2.0])
        out = one_run([0.0], obj, 3, 0.1)
        assert len(out.path) == 4
        assert out.path[0][0] == 0.0
        assert np.array_equal(out.path[-1], out.endpoint)

    def test_single_step_path_has_two_points(self):
        obj = _at([2.0, -1.0])
        start = np.array([0.5, 0.25])
        out = one_run(start, obj, 1, 0.3)
        assert out.path.shape == (2, 2)
        assert np.array_equal(out.path[0], start)
        assert np.array_equal(out.path[1], start - 0.3 * obj.gradients(start)[0])
        assert np.array_equal(out.delta, out.path[1] - out.path[0])


def _reference_gradient(objective, theta, batch=None, noise_rng=None):
    """One gradient of the one-row table ``objective``, as a single client
    computed it: a quadratic's 2 a theta + b, plus its Gaussian noise when
    ``noise_rng`` is given; a GLM shard's mean gradient over ``batch`` (all
    samples when None)."""
    if isinstance(objective, QuadraticObjective):
        grad = 2.0 * objective.a[0] * theta + objective.b[0]
        if noise_rng is not None:
            grad = grad + objective.noise_std[0] * noise_rng.standard_normal(objective.dim)
        return grad
    x, y = objective.features[0], objective.targets[0]
    if batch is not None:
        x, y = x[batch], y[batch]
    return _glm_gradient(x, y, theta, objective.link)


def _reference_local_sgd(start, objective, k_steps, eta_l, *, batches=None, noise_rng=None):
    """One gradient call and one finiteness check per step: the iteration
    the block-noise kernel must reproduce bit for bit. Returns the endpoint,
    the path and the first step whose iterate left the finite range (-1
    when none did)."""
    theta = np.atleast_1d(np.asarray(start, dtype=float)).copy()
    path = [theta.copy()]
    overflow_step = -1
    use_noise = noise_rng is not None and getattr(objective, "noise_std", [0.0])[0] > 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(k_steps):
            if batches is not None:
                grad = _reference_gradient(objective, theta, batch=batches.next())
            else:
                grad = _reference_gradient(objective, theta, noise_rng=noise_rng if use_noise else None)
            theta = theta - eta_l * grad
            if overflow_step < 0 and not np.all(np.isfinite(theta)):
                overflow_step = k
            path.append(theta.copy())
    return theta, np.array(path), overflow_step


def _reference_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _glm(link, seeds=(0,), n=24, dim=3):
    """A table of one shard per seed."""
    xs, ys = [], []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        xs.append(rng.normal(size=(n, dim)))
        ys.append(xs[-1] @ rng.normal(size=dim) if link == "linear" else (rng.random(n) < 0.5).astype(float))
    return GlmObjective(xs, ys, link, batch_size=5)


class TestKernelMatchesTheReference:
    """The kernel's iterates, paths, stream use and divergence steps equal
    those of the per-step reference exactly."""

    @pytest.mark.parametrize("noise_std", [0.0, 0.8])
    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("k_steps", [1, 2, 7, 25])
    def test_quadratic(self, noise_std, dim, k_steps):
        rng = np.random.default_rng([dim, k_steps])
        obj = _quadratic(rng.uniform(0.1, 2.0, dim), rng.normal(size=dim), 0.3, noise_std)
        start = rng.normal(size=dim)
        mine, ref = np.random.default_rng(7), np.random.default_rng(7)
        for _ in range(3):  # consecutive deliveries share the client's stream
            out = one_run(start, obj, k_steps, 0.13, mine)
            end, path, _ = _reference_local_sgd(start, obj, k_steps, 0.13, noise_rng=ref)
            assert np.array_equal(out.endpoint, end)
            assert np.array_equal(out.path, path)
            assert np.array_equal(out.delta, end - np.asarray(start))
            start = end
        assert mine.random() == ref.random()

    @pytest.mark.parametrize("link", ["linear", "logistic"])
    def test_glm_with_batch_stream(self, link):
        obj = _glm(link)
        mine = BatchStream(obj.n_samples, obj.batch_size, np.random.default_rng(3))
        ref = BatchStream(obj.n_samples, obj.batch_size, np.random.default_rng(3))
        start = np.array([0.4, -1.2, 2.0])
        for k_steps in (1, 7, 25):
            out = one_run(start, obj, k_steps, 0.05, mine)
            end, path, _ = _reference_local_sgd(start, obj, k_steps, 0.05, batches=ref)
            assert np.array_equal(out.endpoint, end)
            assert np.array_equal(out.path, path)
            start = end

    def test_glm_full_gradient(self):
        obj = _glm("logistic", seeds=[4])
        out = one_run([0.3, 0.1, -0.5], obj, 9, 0.5)
        end, path, _ = _reference_local_sgd([0.3, 0.1, -0.5], obj, 9, 0.5)
        assert np.array_equal(out.endpoint, end)
        assert np.array_equal(out.path, path)

    def test_sigmoid_on_the_edges(self):
        z = np.array([0.0, -0.0, 1.0, -1.0, 1e3, -1e3, np.inf, -np.inf, np.nan, -np.nan,
                      36.7, -36.7, 745.2, -745.2, 1e-300, -1e-300])
        z = np.concatenate([z, np.linspace(-40.0, 40.0, 801), z[::-1]])
        with np.errstate(over="ignore"):
            want = _reference_sigmoid(z)
        got = _sigmoid(z)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize(
        "case",
        [
            lambda: (_quadratic([1e200], [0.0]), 10.0, 10, None),
            lambda: (_quadratic([1.0, 2.0], [0.5, -1.0], noise_std=1.0), 1e50, 20,
                     np.random.default_rng(5)),
            lambda: (_glm("linear"), 1e4, 400,
                     BatchStream(24, 5, np.random.default_rng(2))),
        ],
        ids=["quadratic", "noisy_quadratic", "glm"],
    )
    def test_divergence_step_index(self, case):
        obj, eta, k_steps, source = case()
        start = np.full(obj.dim, 1.0)
        mine = one_run(start, obj, k_steps, eta, source)
        obj, eta, k_steps, source = case()
        kwargs = {"batches": source} if isinstance(source, BatchStream) else {"noise_rng": source}
        _, _, ref = _reference_local_sgd(start, obj, k_steps, eta, **kwargs)
        assert 0 <= ref < k_steps - 1
        assert mine.overflow_step == ref


class TestGlmKernel:
    """Overflow and index errors of the GLM minibatch kernel."""

    def test_overflow_is_recorded_per_member(self):
        obj = _glm("linear")
        # each step multiplies a large iterate by ~1e4, so the start sets
        # the step at which a member leaves the finite range
        starts = np.array([[1.0, -1.0, 0.5], [1e200, 1e200, 1e200], [1e300, 0.0, 0.0], [1e250, 0.0, 0.0]])
        seeds = [5, 6, 7, 8]
        out = local_sgd(obj, [0], starts[None], 40, 1e4,
                        reference_draws(obj, [0], 40, [[BatchStream(24, 5, np.random.default_rng(s)) for s in seeds]]))
        steps = [
            _reference_local_sgd(start, obj, 40, 1e4, batches=BatchStream(24, 5, np.random.default_rng(seed)))[2]
            for start, seed in zip(starts, seeds)
        ]
        assert out.overflow_step[0].tolist() == steps
        assert steps[0] == -1 and len(set(steps)) >= 3

    @pytest.mark.parametrize("n_members", [1, 2])
    def test_out_of_range_batch_indices_are_rejected_at_the_refill(self, n_members):
        class Stray:
            """A generator whose permutations leave the 24 samples."""

            def permuted(self, x, axis):
                return x + 6

        draws = _DrawTable(_glm("logistic"), [[Stray()] * n_members], range(n_members), 25, 5)
        with pytest.raises(ConfigurationError, match="out of range"):
            draws.take(np.array([0]))
        with pytest.raises(ConfigurationError, match="batch size"):
            _DrawTable(_glm("logistic"), [[np.random.default_rng(1)] * n_members], range(n_members), 25, 25)
        # the kernel holds no check of its own: numpy's take raises
        with pytest.raises(IndexError):
            local_sgd(_glm("logistic"), [0], np.zeros((1, n_members, 3)), 2, 0.1,
                      np.full((2, 1, n_members, 5), 24))


class TestMembersMatchSingleModels:
    """R members stepped together equal R single-model calls, each with its
    own stream, bit for bit."""

    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("k_steps", [1, 6])
    def test_noisy_quadratic(self, dim, k_steps):
        rng = np.random.default_rng([dim, k_steps, 1])
        obj = _quadratic(rng.uniform(0.1, 2.0, dim), rng.normal(size=dim), 0.3, 0.8)
        starts = rng.normal(size=(5, dim))
        mine = [np.random.default_rng([9, r]) for r in range(5)]
        ref = [np.random.default_rng([9, r]) for r in range(5)]
        for _ in range(3):
            out = local_sgd(obj, [0], starts[None], k_steps, 0.13, reference_draws(obj, [0], k_steps, [mine]))
            assert out.overflow_step is None and out.path.shape == (k_steps + 1, 1, 5, dim)
            for r in range(5):
                one = one_run(starts[r], obj, k_steps, 0.13, ref[r])
                assert np.array_equal(out.endpoint[0, r], one.endpoint)
                assert np.array_equal(out.delta[0, r], one.delta)
                assert np.array_equal(out.path[:, 0, r], one.path)
            starts = out.endpoint[0]
        assert [g.random() for g in mine] == [g.random() for g in ref]

    @pytest.mark.parametrize("link", ["linear", "logistic"])
    def test_glm_batch_streams_and_full_gradient(self, link):
        obj = _glm(link)
        starts = np.array([[0.4, -1.2, 2.0], [0.0, 0.1, -0.3]])
        mine = [BatchStream(obj.n_samples, obj.batch_size, np.random.default_rng(s)) for s in (3, 4)]
        ref = [BatchStream(obj.n_samples, obj.batch_size, np.random.default_rng(s)) for s in (3, 4)]
        out = local_sgd(obj, [0], starts[None], 7, 0.05, reference_draws(obj, [0], 7, [mine]))
        full = local_sgd(obj, [0], starts[None], 7, 0.05)
        for r in range(2):
            assert np.array_equal(out.endpoint[0, r], one_run(starts[r], obj, 7, 0.05, ref[r]).endpoint)
            assert np.array_equal(full.endpoint[0, r], one_run(starts[r], obj, 7, 0.05).endpoint)

    def test_overflow_is_recorded_per_member(self):
        obj = _quadratic([1.0, 2.0], [0.5, -1.0])
        # the second member starts at the optimum, where every gradient is 0
        starts = np.array([[1.0, 1.0], [-0.25, 0.25], [1e-200, 0.25], [1e100, 1e100]])
        out = local_sgd(obj, [0], starts[None], 60, 1e50)
        steps = [one_run(start, obj, 60, 1e50).overflow_step for start in starts]
        assert out.overflow_step[0].tolist() == steps
        assert steps[1] == -1 and len(set(steps)) >= 3


class TestStackedJobsMatchOneJob:
    """P jobs of R members on rows of one table, in one call, equal P*R calls
    of one job and one member on the one-row tables of those rows: the same
    bits (signed zeros included), overflow steps and stream use."""

    ROWS = [3, 0, 1, 3, 4, 2]  # a row may appear in several jobs

    def _compare(self, table, starts, k_steps, eta_l, make_sources):
        mine, ref = make_sources(), make_sources()
        out = local_sgd(table, self.ROWS, starts, k_steps, eta_l,
                        None if mine is None else reference_draws(table, self.ROWS, k_steps, mine))
        for p, row in enumerate(self.ROWS):
            for r in range(starts.shape[1]):
                one = one_run(starts[p, r], table.row(row), k_steps, eta_l, None if ref is None else ref[p][r])
                assert bits(out.path[:, p, r]) == bits(one.path), (p, r)
                assert bits(out.delta[p, r]) == bits(one.delta), (p, r)
                step = -1 if out.overflow_step is None else out.overflow_step[p, r]
                assert step == one.overflow_step, (p, r)
        return out, mine, ref

    @pytest.mark.parametrize("n_members", [1, 3])
    @pytest.mark.parametrize("k_steps", [1, 4])
    @pytest.mark.parametrize("noise", ["noiseless", "noisy", "mixed"])
    def test_quadratic_table(self, noise, k_steps, n_members):
        rng = np.random.default_rng([k_steps, n_members])
        stds = {"noiseless": [0.0] * 5, "noisy": [0.7, 0.4, 1.3, 0.2, 0.9],
                "mixed": [0.7, 0.0, 1.3, 0.0, 0.0]}[noise]
        rows = [(rng.uniform(0.1, 2.0, 2), rng.normal(size=2)) for _ in stds]
        # row 1 has b = -0.0 and c = 0, so from a -0.0 start its gradient is
        # -0.0; row 4 leaves the finite range within a few steps
        rows[1] = ([0.5, 0.5], [-0.0, -0.0])
        rows[4] = ([1e200, 1.0], [0.0, 0.5])
        a, b = (np.array(coefficients) for coefficients in zip(*rows))
        table = QuadraticObjective(a, b, [0.1, 0.0, 0.1, 0.1, 0.0], stds)
        starts = rng.normal(size=(len(self.ROWS), n_members, 2))
        starts[2] = -0.0

        def sources():
            return [[np.random.default_rng([p, r]) for r in range(n_members)] for p in range(len(self.ROWS))]

        out, mine, ref = self._compare(table, starts, k_steps, 0.13, sources)
        assert (out.overflow_step is not None) == (k_steps > 1)
        if noise != "noisy":
            # -0.0 - eta * -0.0 is +0.0; a +0.0 noise term would have kept -0.0
            assert bits(out.endpoint[2]) == bits(np.zeros((n_members, 2)))
        for p in range(len(self.ROWS)):
            # a noiseless row draws nothing from its generators
            assert [g.random() for g in mine[p]] == [g.random() for g in ref[p]]

    @pytest.mark.parametrize("n_members", [1, 3])
    @pytest.mark.parametrize("batched", [True, False])
    @pytest.mark.parametrize("link", ["linear", "logistic"])
    def test_glm_table(self, link, batched, n_members):
        starts = np.random.default_rng(n_members).normal(size=(len(self.ROWS), n_members, 3))

        def sources():
            if not batched:
                return None
            return [[BatchStream(24, 5, np.random.default_rng([p, r])) for r in range(n_members)]
                    for p in range(len(self.ROWS))]

        _, mine, ref = self._compare(_glm(link, seeds=range(5)), starts, 6, 0.05, sources)
        if batched:
            assert [s.next().tolist() for job in mine for s in job] == [s.next().tolist() for job in ref for s in job]


def _ragged_draws(table, rows, k_steps, sources):
    """``reference_draws`` for members of ``k_steps`` steps each: member r's
    own K_r steps from ``sources[p][r]``, then its last step repeated up to
    the longest run, as the engine's draw tables give them."""
    longest = max(k_steps)
    per_member = []
    for r, k in enumerate(k_steps):
        own = reference_draws(table, rows, k, [[job[r]] for job in sources])
        per_member.append(np.concatenate([own, np.repeat(own[-1:], longest - k, axis=0)]))
    return np.concatenate(per_member, axis=2)


class TestPerMemberStepsAndRates:
    """Members with their own ``k_steps`` and ``eta_l`` in one call equal
    their own calls, bit for bit: the path up to their own step count, the
    endpoint there, the delta and an overflow step that counts their own
    steps only."""

    ROWS = [3, 0, 1, 3, 4, 2]
    K_STEPS = [1, 3, 6, 3]
    ETA_L = [0.13, 0.4, 0.05, 0.13]

    def _compare(self, table, starts, k_steps, eta_l, make_sources):
        mine, ref = make_sources(), make_sources()
        draws = None if mine is None else _ragged_draws(table, self.ROWS, np.broadcast_to(k_steps, 4), mine)
        out = local_sgd(table, self.ROWS, starts, k_steps, eta_l, draws)
        assert out.path.shape[0] == np.max(k_steps) + 1
        for p, row in enumerate(self.ROWS):
            for r in range(starts.shape[1]):
                k, eta = np.broadcast_to(k_steps, 4)[r], np.broadcast_to(eta_l, 4)[r]
                one = one_run(starts[p, r], table.row(row), int(k), float(eta),
                              None if ref is None else ref[p][r])
                assert bits(out.path[: k + 1, p, r]) == bits(one.path), (p, r)
                assert bits(out.endpoint[p, r]) == bits(one.endpoint), (p, r)
                assert bits(out.delta[p, r]) == bits(one.delta), (p, r)
                step = -1 if out.overflow_step is None else out.overflow_step[p, r]
                assert step == one.overflow_step, (p, r)
        return out

    @pytest.mark.parametrize("axis", ["k_steps", "eta_l", "both"])
    @pytest.mark.parametrize("noise", ["noiseless", "mixed"])
    def test_quadratic_table(self, noise, axis):
        rng = np.random.default_rng(5)
        a = rng.uniform(0.1, 2.0, (5, 2))
        a[4] = [1e200, 1.0]  # row 4 leaves the finite range from its second step on
        table = QuadraticObjective(a, rng.normal(size=(5, 2)), 0.1,
                                   [0.0] * 5 if noise == "noiseless" else [0.7, 0.0, 1.3, 0.0, 0.4])
        starts = rng.normal(size=(len(self.ROWS), 4, 2))
        k_steps = self.K_STEPS if axis != "eta_l" else 6
        eta_l = self.ETA_L if axis != "k_steps" else 0.13

        def sources():
            if noise == "noiseless":
                return None
            return [[np.random.default_rng([p, r]) for r in range(4)] for p in range(len(self.ROWS))]

        out = self._compare(table, starts, k_steps, eta_l, sources)
        if axis != "eta_l":
            # the one-step members of row 4 stay finite, though their path does not
            p = self.ROWS.index(4)
            assert out.overflow_step[p].tolist() == [-1, 1, 1, 1]
            assert not np.isfinite(out.path[-1, p, 0]).all()

    @pytest.mark.parametrize("batched", [True, False])
    @pytest.mark.parametrize("link", ["linear", "logistic"])
    def test_glm_table(self, link, batched):
        starts = np.random.default_rng(2).normal(size=(len(self.ROWS), 4, 3))

        def sources():
            if not batched:
                return None
            return [[BatchStream(24, 5, np.random.default_rng([p, r])) for r in range(4)]
                    for p in range(len(self.ROWS))]

        self._compare(_glm(link, seeds=range(5)), starts, self.K_STEPS, self.ETA_L, sources)

    def test_per_member_arguments_are_checked(self):
        obj, starts = _at([1.0]), np.zeros((1, 2, 1))
        with pytest.raises(ConfigurationError, match="one per member"):
            local_sgd(obj, [0], starts, [1, 2, 3], 0.1)
        with pytest.raises(ConfigurationError, match="one per member"):
            local_sgd(obj, [0], starts, 2, [0.1])
        with pytest.raises(ConfigurationError, match="at least 1"):
            local_sgd(obj, [0], starts, [1, 0], 0.1)
        with pytest.raises(ConfigurationError, match="nonnegative"):
            local_sgd(obj, [0], starts, 2, [0.1, -0.1])


class TestBatchGradient:
    """A minibatch gradient is the mean gradient of the batch's samples, the
    single-shard call of :func:`_glm_gradient` that local SGD and the
    residual draws take."""

    def _logistic(self, n=8, d=3, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, d))
        y = (rng.random(n) < 0.5).astype(float)
        return GlmObjective([x], [y], "logistic", batch_size=2)

    def test_full_batch_equals_full_gradient(self):
        obj = self._logistic()
        theta = np.array([0.3, -0.1, 0.5])
        full = obj.gradients(theta)[0]
        assert np.array_equal(_reference_gradient(obj, theta, batch=np.arange(8)), full)

    def test_logistic_gradient_at_origin(self):
        obj = self._logistic()
        idx = np.array([0, 3])
        grad = _reference_gradient(obj, np.zeros(3), batch=idx)
        expected = obj.features[0, idx].T @ (0.5 - obj.targets[0, idx]) / 2
        assert np.allclose(grad, expected, atol=1e-15)

    def test_mean_over_all_batches_equals_full_gradient(self):
        obj = self._logistic(n=6)
        theta = np.array([0.1, 0.2, -0.4])
        batches = list(itertools.combinations(range(6), 2))
        mean = np.mean([_reference_gradient(obj, theta, batch=np.array(b)) for b in batches], axis=0)
        assert np.allclose(mean, obj.gradients(theta)[0], atol=1e-12)


class TestGradientChecks:
    def _finite_difference(self, obj, theta, h=1e-6):
        grad = np.empty_like(theta)
        for j in range(theta.shape[0]):
            e = np.zeros_like(theta)
            e[j] = h
            grad[j] = (obj.value(theta + e)[0] - obj.value(theta - e)[0]) / (2 * h)
        return grad

    @pytest.mark.parametrize("family", ["quadratic", "logistic", "linear"])
    def test_analytic_gradient_matches_central_differences(self, family):
        rng = np.random.default_rng(11)
        for _ in range(25):
            if family == "quadratic":
                obj = _quadratic(rng.uniform(0.1, 2.0, 3), rng.normal(size=3), float(rng.normal()))
            else:
                x = rng.normal(size=(12, 3))
                y = (rng.random(12) < 0.5).astype(float) if family == "logistic" else x @ rng.normal(size=3)
                obj = GlmObjective([x], [y], family, batch_size=3)
            theta = rng.normal(size=3)
            analytic = obj.gradients(theta)[0]
            numeric = self._finite_difference(obj, theta)
            denom = max(np.linalg.norm(analytic), 1e-8)
            assert np.linalg.norm(analytic - numeric) / denom < 1e-5

    def test_stochastic_gradients_unbiased(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(16, 2))
        y = (rng.random(16) < 0.5).astype(float)
        obj = GlmObjective([x], [y], "logistic", batch_size=4)
        theta = np.array([0.4, -0.2])
        draws = np.empty((10_000, 2))
        for s in range(draws.shape[0]):
            idx = rng.choice(16, size=4, replace=False)
            draws[s] = _reference_gradient(obj, theta, batch=idx)
        mean = draws.mean(axis=0)
        se = draws.std(axis=0, ddof=1) / math.sqrt(draws.shape[0])
        assert np.all(np.abs(mean - obj.gradients(theta)[0]) <= 4 * se)

    def test_quadratic_noise_model_unbiased(self):
        # one local step of size 1 from theta moves by the noisy gradient
        obj = _at([1.0], noise_std=0.5)
        theta = np.array([3.0])
        members = np.broadcast_to(theta, (1, 10_000, 1))
        out = local_sgd(obj, [0], members, 1, 1.0, reference_draws(obj, [0], 1, [[np.random.default_rng(8)] * 10_000]))
        draws = -out.delta[0, :, 0]
        se = draws.std(ddof=1) / 100.0
        assert abs(draws.mean() - obj.gradients(theta)[0, 0]) <= 4 * se


def _quadratic_value_reference(obj, theta):
    """Per-point loss of the one-row quadratic table ``obj`` as evaluated
    before batching."""
    theta = np.asarray(theta, dtype=float)
    return float(np.dot(obj.a[0], theta * theta) + np.dot(obj.b[0], theta) + obj.c[0])


def _glm_value_reference(obj, theta):
    """Per-point loss of the one-row GLM table ``obj`` as evaluated before
    batching."""
    z = obj.features[0] @ np.asarray(theta, dtype=float)
    if obj.link == "linear":
        r = z - obj.targets[0]
        return 0.5 * float(np.dot(r, r)) / obj.n_samples
    yz = np.where(obj.targets[0] > 0.5, z, -z)
    return float(np.mean(np.logaddexp(0.0, -yz)))


def _glm_shard(rng, n_samples, dim, link):
    x = rng.standard_normal((n_samples, dim))
    if link == "linear":
        y = x @ rng.standard_normal(dim) + 0.1 * rng.standard_normal(n_samples)
    else:
        y = (rng.random(n_samples) < 0.5).astype(float)
    return GlmObjective([x], [y], link, batch_size=1)


def _batched_matmul_values(table, thetas):
    """``QuadraticObjective.values`` as every dimension computed it before
    dim 1 went elementwise: one batched matrix-vector product per row."""
    out = (thetas * thetas) @ table.a[:, :, None]
    out += thetas @ table.b[:, :, None]
    out += table.c[:, None, None]
    return out[:, :, 0].T


class TestBatchedValues:
    def test_scalar_losses_keep_the_bits_of_the_batched_matmul(self):
        # every (a, b, c) of the edge values, a >= 0 and a = -0.0 included,
        # at every edge value of theta; a NaN's payload is not kept (the CSV
        # writes every NaN as "nan")
        edges = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, np.inf, -np.inf, np.nan, 1e300,
                          -1e300, 1e-300, -1e-300, 1.5, -2.25, 1e154, 1e-160])
        a, b, c = (grid.ravel() for grid in np.meshgrid(np.abs(edges), edges, edges, indexing="ij"))
        a[a == 0.0] = np.resize([0.0, -0.0], np.count_nonzero(a == 0.0))
        table = QuadraticObjective(a[:, None], b[:, None], c)
        thetas = edges[:, None]
        with np.errstate(all="ignore"):
            got, want = table.values(thetas), _batched_matmul_values(table, thetas)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        real = ~np.isnan(want)
        assert bits(got[real]) == bits(want[real])
        assert np.signbit(want[real & (want == 0.0)]).sum() == 0  # neither gives -0.0
        rng = np.random.default_rng(9)
        table = QuadraticObjective(rng.random((500, 1)), rng.normal(size=(500, 1)), rng.normal(size=500))
        thetas = rng.normal(0.0, 5.0, (401, 1))
        assert bits(table.values(thetas)) == bits(_batched_matmul_values(table, thetas))

    def test_scalar_quadratic_rows_are_bit_equal(self):
        rng = np.random.default_rng(3)
        for opt, curv in [(2.0, 0.5), (-7.25, 1.3), (0.0, 0.0)]:
            obj = QuadraticObjective.from_optima([opt], curv)
            thetas = np.concatenate([rng.normal(0.0, 10.0, (50, 1)), [[0.0], [1e12], [-3.5]]])
            got = obj.values(thetas)
            assert got.shape == (53, 1)
            assert got[:, 0].tolist() == [_quadratic_value_reference(obj, t) for t in thetas]
            assert [obj.value(t)[0] for t in thetas] == got[:, 0].tolist()

    def test_vector_quadratic_rows_match_the_reference(self):
        rng = np.random.default_rng(4)
        obj = _quadratic(rng.random(7), rng.normal(size=7), 1.5)
        thetas = rng.normal(0.0, 5.0, (40, 7))
        want = [_quadratic_value_reference(obj, t) for t in thetas]
        np.testing.assert_allclose(obj.values(thetas)[:, 0], want, rtol=1e-12, atol=0)
        np.testing.assert_allclose([obj.value(t)[0] for t in thetas], want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("link", ["linear", "logistic"])
    def test_glm_rows_match_the_reference_across_chunks(self, link):
        rng = np.random.default_rng(5)
        for n_samples in (3, 64, 2000):  # one chunk of 1031 rows, then 2 and 2 chunks
            obj = _glm_shard(rng, n_samples, 4, link)
            rows = min(_CHUNK_FLOATS // n_samples, 1024) + 7
            thetas = rng.normal(0.0, 3.0, (rows, 4))
            want = [_glm_value_reference(obj, t) for t in thetas]
            np.testing.assert_allclose(obj.values(thetas)[:, 0], want, rtol=1e-12, atol=0)
            np.testing.assert_allclose(obj.value(thetas[0])[0], want[0], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("dim", [1, 1024])
    def test_rows_in_blocks_of_the_row_chunk_keep_the_bits_of_one_call(self, dim):
        # a vector quadratic's matrix-vector products take row_chunk rows (64
        # at dim 1024), so evaluating rows in blocks of a multiple of it gives
        # the bits of one call, and a call writes into the columns it is given
        rng = np.random.default_rng(dim)
        obj = QuadraticObjective(rng.random((5, dim)), rng.normal(size=(5, dim)), rng.normal(size=5))
        assert obj.row_chunk == (1 if dim == 1 else _CHUNK_FLOATS // dim)
        thetas = rng.normal(0.0, 3.0, (150, dim))
        whole = obj.values(thetas)
        out = np.full((150, 7), np.nan)
        for lo in range(0, 150, 2 * obj.row_chunk):
            obj.values(thetas[lo:lo + 2 * obj.row_chunk], out=out[lo:lo + 2 * obj.row_chunk, 1:6])
        assert bits(out[:, 1:6]) == bits(whole) and np.isnan(out[:, [0, 6]]).all()
        assert bits(whole[64:128]) == bits(obj.values(thetas[64:128]))


class TestTables:
    """One class per family: a client objective is a row of its table."""

    def test_a_row_is_a_one_row_view_that_skips_the_checks(self, monkeypatch):
        rng = np.random.default_rng(1)
        quadratic = QuadraticObjective(rng.random((4, 3)), rng.normal(size=(4, 3)), rng.normal(size=4),
                                       [0.0, 0.5, 0.0, 1.0])
        glm = _glm("logistic", seeds=range(4))
        for cls in (QuadraticObjective, GlmObjective):
            monkeypatch.setattr(cls, "__init__", lambda *args: pytest.fail("a row repeats the checks"))
        for table in (quadratic, glm):
            row = table.row(2)
            assert type(row) is type(table) and len(row) == 1 and row.dim == table.dim
            assert vars(row).keys() == vars(table).keys()  # the field lists name every attribute
            for name, value in vars(table).items():
                if isinstance(value, np.ndarray):
                    assert np.shares_memory(getattr(row, name), value), name
                    assert bits(getattr(row, name)) == bits(value[2:3]), name
                else:
                    assert getattr(row, name) == value, name

    @pytest.mark.parametrize("dim", range(1, 17))
    def test_a_quadratic_loss_has_the_same_bits_in_every_table(self, dim):
        rng = np.random.default_rng(dim)
        table = QuadraticObjective(rng.random((5, dim)), rng.normal(size=(5, dim)), rng.normal(size=5))
        theta = rng.normal(0.0, 3.0, dim)
        row_vector = theta[None]
        for i in range(5):
            # the loss of one client as it evaluated itself: a 1 x dim matrix
            # times its coefficient vectors
            alone = ((row_vector * row_vector) @ table.a[i] + row_vector @ table.b[i] + table.c[i])[0]
            assert bits(table.row(i).value(theta)[0]) == bits(alone)
            assert bits(table.value(theta)[i]) == bits(alone)
        assert bits(table.value(theta)) == bits(table.values(row_vector)[0])

    def test_quadratic_optima_and_smoothness_per_row(self):
        table = QuadraticObjective.from_optima([[1.0, -2.0], [0.5, 3.0]], curvature=0.75)
        assert table.optima.tolist() == [[1.0, -2.0], [0.5, 3.0]]
        assert table.smoothness.tolist() == [1.5, 1.5]
        varied = QuadraticObjective([[0.5, 2.0], [0.25, 0.125]], [[1.0, 0.0], [0.0, -1.0]])
        assert varied.optima.tolist() == [[-1.0, -0.0], [-0.0, 4.0]]
        assert varied.smoothness.tolist() == [4.0, 0.5]
        with pytest.raises(ConfigurationError, match="flat quadratic"):
            _ = QuadraticObjective([[0.5], [0.0]], [[0.0], [1.0]]).optima

    @pytest.mark.parametrize("link", ["linear", "logistic"])
    def test_glm_smoothness_per_row_is_each_shards_own(self, link):
        table = _glm(link, seeds=range(5), n=17, dim=4)
        factor = 1.0 if link == "linear" else 0.25
        want = [factor * float(np.linalg.eigvalsh(x.T @ x).max()) / 17 for x in table.features]
        assert table.smoothness.tolist() == want
        assert table.n_samples == 17 and len(table) == 5

    @pytest.mark.parametrize("make, message", [
        (lambda: QuadraticObjective([0.5], [0.0]), "rows, dim"),
        (lambda: QuadraticObjective([[0.5, 1.0]], [[0.0]]), "rows, dim"),
        (lambda: QuadraticObjective([[0.5], [-1.0]], [[0.0], [0.0]]), "curvature must be nonnegative"),
        (lambda: QuadraticObjective.from_optima([1.0, 2.0], curvature=-0.5), "curvature must be nonnegative"),
        (lambda: QuadraticObjective([[0.5], [1.0]], [[0.0], [0.0]], noise_std=[0.1, -0.1]),
         "noise_std must be nonnegative"),
        (lambda: QuadraticObjective.from_optima([[1.0], [2.0, 3.0]]), "disagree on parameter dimension"),
        (lambda: GlmObjective(np.ones((2, 4, 3)), np.ones((2, 4)), "probit"), "unknown link"),
        (lambda: GlmObjective(np.ones((4, 3)), np.ones(4)), "disagree on sample count"),
        (lambda: GlmObjective(np.ones((2, 4, 3)), np.ones((2, 5))), "disagree on sample count"),
        (lambda: GlmObjective(np.ones((2, 4, 3)), np.ones((2, 4)), batch_size=5), "batch size"),
    ])
    def test_the_constructor_checks_the_table_once(self, make, message):
        with pytest.raises(ConfigurationError, match=message):
            make()


class TestDrawTable:
    """The engine's draw table gives every run the draws that its member's
    own source gives: K ``next()`` batches of the reference batch stream,
    or one per-run ``standard_normal((K, dim))``."""

    @pytest.mark.parametrize("n, epochs", [(1, 1), (7, 3), (24, 1), (64, 10), (300, 4)])
    def test_permuted_rows_are_successive_permutations(self, n, epochs):
        mine, ref = np.random.default_rng([5, n]), np.random.default_rng([5, n])
        got = mine.permuted(np.tile(np.arange(n), (epochs, 1)), axis=1)
        assert np.array_equal(got, [ref.permutation(n) for _ in range(epochs)])
        assert mine.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("dim", [1, 3])
    def test_one_block_of_normals_is_the_per_run_draws(self, dim):
        mine, ref = np.random.default_rng(1), np.random.default_rng(1)
        block = np.empty((40, dim))
        mine.standard_normal(out=block[:17].reshape(-1))
        mine.standard_normal(out=block[17:].reshape(-1))
        assert bits(block) == bits(np.concatenate([ref.standard_normal((5, dim)) for _ in range(8)]))
        assert mine.bit_generator.state == ref.bit_generator.state

    def test_epoch_partitions_without_replacement(self):
        draws = _DrawTable(_glm("logistic", n=8), [[np.random.default_rng(0)]], [0], 2, 4)
        assert sorted(draws.take(np.array([0])).ravel().tolist()) == list(range(8))

    @pytest.mark.parametrize("k_steps", [1, 3, 9, 17])
    @pytest.mark.parametrize("n_samples, batch_size", [(24, 5), (64, 8), (7, 7), (10, 3)])
    def test_runs_equal_repeated_next(self, n_samples, batch_size, k_steps):
        # two rows of two members; a row may sit out a pass, and runs go
        # within an epoch, across one and across several
        table = _glm("logistic", seeds=range(2), n=n_samples)
        draws = _DrawTable(table, [[np.random.default_rng([g, r]) for r in range(2)] for g in range(2)],
                           range(2), k_steps, batch_size)
        ref = [[BatchStream(n_samples, batch_size, np.random.default_rng([g, r])) for r in range(2)]
               for g in range(2)]
        for rows in ([1, 0], [0], [0], [1], [0, 1], [1, 0], [0]) * 3:
            got = draws.take(np.array(rows))
            assert got.shape == (k_steps, len(rows), 2, batch_size)
            assert np.array_equal(got, reference_draws(table, rows, k_steps, [ref[g] for g in rows]))

    @pytest.mark.parametrize("n_samples, batch_size", [(24, 5), (10, 3)])
    def test_members_of_their_own_step_counts_take_their_own_runs(self, n_samples, batch_size):
        # members of 1, 4 and 9 steps on two rows refill at their own rates;
        # each reads its own run, then repeats its last step
        k_steps = [1, 4, 9]
        table = _glm("logistic", seeds=range(2), n=n_samples)
        draws = _DrawTable(table, [[np.random.default_rng([g, r]) for r in range(3)] for g in range(2)],
                           range(3), np.array(k_steps), batch_size)
        ref = [[BatchStream(n_samples, batch_size, np.random.default_rng([g, r])) for r in range(3)]
               for g in range(2)]
        for rows in ([1, 0], [0], [0], [1], [0, 1], [1, 0], [0]) * 3:
            got = draws.take(np.array(rows))
            assert got.shape == (9, len(rows), 3, batch_size)
            assert np.array_equal(got, _ragged_draws(table, rows, k_steps, [ref[g] for g in rows]))

    def test_reshuffles_between_epochs(self):
        draws = _DrawTable(_glm("logistic", n=64), [[np.random.default_rng(0)]], [0], 2, 32)
        first, second = (draws.take(np.array([0])).ravel() for _ in range(2))
        assert sorted(first.tolist()) == sorted(second.tolist())
        assert not np.array_equal(first, second)

    @pytest.mark.parametrize("k_steps", [1, 4])
    def test_noise_rows_equal_per_run_draws_and_noiseless_rows_read_zeros(self, k_steps):
        table = QuadraticObjective(np.ones((3, 2)), np.zeros((3, 2)), 0.0, [0.5, 0.0, 1.5])
        generators = [[np.random.default_rng([g, r]) for r in range(3)] if g != 1 else None for g in range(3)]
        draws = _DrawTable(table, generators, range(3), k_steps, None)
        ref = [[np.random.default_rng([g, r]) for r in range(3)] for g in range(3)]
        for rows in ([2, 1, 0], [1], [0, 2], [2]) * 4:
            got = draws.take(np.array(rows))
            assert bits(got) == bits(reference_draws(table, rows, k_steps, [ref[g] for g in rows]))
        assert np.array_equal(draws.first[1], draws.start[1])


class TestSyntheticShards:
    def test_same_seed_is_deterministic(self):
        cfg = SyntheticShardConfig(n_clients=3, seed=42)
        a = make_synthetic_shards(cfg)
        b = make_synthetic_shards(cfg)
        assert len(a) == 3
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.targets, b.targets)

    def test_single_client_optimum_is_the_federated_optimum(self):
        from asyncfed.core import Fleet, weighted_optimum

        shards = make_synthetic_shards(SyntheticShardConfig(n_clients=1, seed=1))
        fleet = Fleet([(np.arange(1), shards)], [1], [1.0])
        fed_opt = weighted_optimum(fleet)
        assert np.allclose(fed_opt, _local_optima(shards)[0], atol=1e-5)

    def test_heterogeneity_monotone_in_inverse_concentration(self):
        def mean_pairwise_optimum_distance(concentration):
            shards = make_synthetic_shards(
                SyntheticShardConfig(n_clients=6, seed=7, concentration=concentration)
            )
            optima = _local_optima(shards)
            dists = [
                np.linalg.norm(a - b) for a, b in itertools.combinations(optima, 2)
            ]
            return float(np.mean(dists))

        assert mean_pairwise_optimum_distance(1e6) < mean_pairwise_optimum_distance(0.1)

    def test_invalid_concentration_rejected(self):
        with pytest.raises(ConfigurationError):
            SyntheticShardConfig(n_clients=2, concentration=0.0)

    def test_csv_export_roundtrip(self, tmp_path):
        shards = make_synthetic_shards(SyntheticShardConfig(n_clients=2, dim=2, samples_per_client=4, seed=3))
        paths = export_shards_csv(shards, tmp_path)
        assert [p.name for p in paths] == ["shard_000.csv", "shard_001.csv"]
        lines = paths[0].read_text().splitlines()
        assert lines[0] == "x0,x1,y"
        assert len(lines) == 5
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == shards.features[0, 0, 0]
        assert first[2] == shards.targets[0, 0]
