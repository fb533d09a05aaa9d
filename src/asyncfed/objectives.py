"""Client loss functions, stochastic batching, and the local SGD executor."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .core import ConfigurationError

_CHUNK_FLOATS = 1 << 16  # bound on the temporary of one batched GLM evaluation


class QuadraticObjective:
    """Diagonal quadratic a . theta^2 + b . theta + c.

    The coefficient vector ``a`` must be nonnegative. With a = 1/2 the
    gradient is theta - theta_star, the convention used throughout the
    closed-form checks. ``noise_std`` > 0 turns gradient evaluations into
    unbiased stochastic estimates with additive Gaussian noise.
    """

    def __init__(self, a, b, c: float = 0.0, noise_std: float = 0.0):
        self.a = np.atleast_1d(np.asarray(a, dtype=float))
        self.b = np.atleast_1d(np.asarray(b, dtype=float))
        if self.a.shape != self.b.shape:
            raise ConfigurationError("quadratic coefficients a and b disagree on dimension")
        if np.any(self.a < 0):
            raise ConfigurationError("quadratic curvature must be nonnegative")
        if noise_std < 0:
            raise ConfigurationError("noise_std must be nonnegative")
        self.c = float(c)
        self.noise_std = float(noise_std)

    @classmethod
    def from_optimum(cls, optimum, curvature: float = 0.5, noise_std: float = 0.0):
        """Quadratic with minimum value 0 at ``optimum``: a . (theta - opt)^2,
        with a = ``curvature`` in every coordinate."""
        opt = np.atleast_1d(np.asarray(optimum, dtype=float)).tolist()
        return cls.from_optima([opt], curvature, noise_std)[0]

    @classmethod
    def from_optima(cls, optima, curvature: float = 0.5, noise_std: float = 0.0) -> list:
        """One :meth:`from_optimum` quadratic per entry of ``optima``, given
        as numbers or lists: the coefficients are computed once per
        dimension as one (clients, dim) array, checked once, and each
        quadratic holds row views of them."""
        curvature, noise_std = float(curvature), float(noise_std)
        if curvature < 0:
            raise ConfigurationError("quadratic curvature must be nonnegative")
        if noise_std < 0:
            raise ConfigurationError("noise_std must be nonnegative")
        rows = [opt if isinstance(opt, (list, tuple)) else (opt,) for opt in optima]
        dims = dict.fromkeys(map(len, rows))
        out = [None] * len(rows)
        for dim in dims:  # several only when the clients disagree, which Fleet reports
            picked = range(len(rows)) if len(dims) == 1 else [i for i, r in enumerate(rows) if len(r) == dim]
            opt = np.array([rows[i] for i in picked], dtype=float).reshape(len(picked), dim)
            a = np.full_like(opt, curvature)
            b = -2.0 * a * opt
            square = opt * opt
            # c = np.dot(a, opt * opt) per row: one product for dim 1, else
            # the BLAS dot product a stacked 1 x dim @ dim x 1 takes
            c = a[:, 0] * square[:, 0] if dim == 1 else (a[:, None, :] @ square[:, :, None])[:, 0, 0]
            for i, a_row, b_row, c_row in zip(picked, a, b, c.tolist()):
                obj = out[i] = cls.__new__(cls)
                obj.a, obj.b, obj.c, obj.noise_std = a_row, b_row, c_row, noise_std
        return out

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    @property
    def optimum(self) -> np.ndarray:
        if np.any(self.a == 0):
            raise ConfigurationError("flat quadratic has no finite optimum")
        return -self.b / (2.0 * self.a)

    @property
    def smoothness(self) -> float:
        return 2.0 * float(self.a.max())

    def value(self, theta) -> float:
        return float(self.values(np.atleast_1d(np.asarray(theta, dtype=float))[None])[0])

    def values(self, thetas) -> np.ndarray:
        """Loss at each row of the (rows, dim) array ``thetas``; a column of
        :meth:`QuadraticTable.values` has these bits."""
        thetas = np.asarray(thetas, dtype=float)
        return (thetas * thetas) @ self.a + thetas @ self.b + self.c

    def gradient(self, theta) -> np.ndarray:
        return 2.0 * self.a * np.asarray(theta, dtype=float) + self.b

    def noisy_gradient(self, theta, rng: np.random.Generator) -> np.ndarray:
        return self.gradient(theta) + self.noise_std * rng.standard_normal(self.dim)


class GlmObjective:
    """Linear or logistic regression loss over a fixed data shard."""

    def __init__(self, features, targets, link: str = "logistic", batch_size: int = 8):
        self.features = np.ascontiguousarray(features, dtype=float)
        self.targets = np.asarray(targets, dtype=float).reshape(-1)
        if link not in ("linear", "logistic"):
            raise ConfigurationError(f"unknown link {link!r}")
        if self.features.ndim != 2 or self.features.shape[0] != self.targets.shape[0]:
            raise ConfigurationError("features and targets disagree on sample count")
        if not 1 <= batch_size <= self.features.shape[0]:
            raise ConfigurationError("batch size must lie in [1, n_samples]")
        self.link = link
        self.batch_size = int(batch_size)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def smoothness(self) -> float:
        # largest eigenvalue of X^T X / n, scaled by the link curvature bound
        gram_top = float(np.linalg.eigvalsh(self.features.T @ self.features).max())
        factor = 1.0 if self.link == "linear" else 0.25
        return factor * gram_top / self.n_samples

    def value(self, theta) -> float:
        return float(self.values(np.asarray(theta, dtype=float)[None])[0])

    def values(self, thetas) -> np.ndarray:
        """Loss at each row of the (rows, dim) array ``thetas``."""
        return GlmTable(self.features[None], self.targets[None], self.link).values(thetas)[:, 0]

    def gradient(self, theta) -> np.ndarray:
        return _glm_gradient(self.features, self.targets, theta, self.link)

    def batch_gradient(self, theta, batch_indices) -> np.ndarray:
        idx = np.asarray(batch_indices, dtype=int)
        _check_batch_indices(idx, self.n_samples)
        return _glm_gradient(self.features[idx], self.targets[idx], theta, self.link)


def _check_batch_indices(idx: np.ndarray, n_samples: int) -> None:
    if idx.size == 0 or idx.min() < 0 or idx.max() >= n_samples:
        raise ConfigurationError("batch indices out of range")


def _glm_gradient(x, y, theta, link: str) -> np.ndarray:
    """Mean gradient over the samples of ``x`` (n, dim) with targets ``y``
    (n,), or one such gradient per shard of a stack (G, n, dim) and (G, n),
    at one ``theta`` (dim,) or at a (G, dim) row per shard; a stacked shard
    gets the bits of its own call (the same BLAS matrix-vector and
    vector-matrix products)."""
    theta = np.asarray(theta, dtype=float)
    z = x @ theta if theta.ndim == 1 else (x @ theta[:, :, None])[:, :, 0]
    err = (z if link == "linear" else _sigmoid(z)) - y
    if x.ndim == 2:
        return err @ x / x.shape[0]
    return (err[:, None, :] @ x)[:, 0, :] / x.shape[1]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, with e = e^-|z|,
    # so neither branch overflows: the numerator e^min(z, 0) is 1 for
    # z >= 0 and e below; min(z, -z) is -|z| but, unlike -abs(z), keeps the
    # sign bit of a NaN
    e = np.exp(np.minimum(z, -z))
    return np.exp(np.minimum(z, 0.0)) / (1.0 + e)


class QuadraticTable:
    """G quadratics of one dimension stacked: ``a`` and ``b`` are (G, dim),
    ``c`` and ``noise_std`` are (G,)."""

    def __init__(self, a: np.ndarray, b: np.ndarray, c: np.ndarray, noise_std: np.ndarray):
        self.a, self.b, self.c, self.noise_std = a, b, c, noise_std
        self.two_a = 2.0 * a  # the gradient's coefficient, as gradient() computes it

    def values(self, thetas) -> np.ndarray:
        """(rows, G) loss of every quadratic at each row of ``thetas``.

        Each quadratic's column is a batched matrix-vector product, the BLAS
        call of :meth:`QuadraticObjective.values`, so a loss has the same
        bits alone and in any table; one (rows, dim) x (dim, G) product
        would sum the coordinates in another order for dim > 1.
        """
        thetas = np.asarray(thetas, dtype=float)
        out = (thetas * thetas) @ self.a[:, :, None]
        out += thetas @ self.b[:, :, None]
        out += self.c[:, None, None]
        return out[:, :, 0].T

    def gradients(self, theta) -> np.ndarray:
        """(G, dim) gradient of every quadratic at ``theta``."""
        return self.two_a * np.asarray(theta, dtype=float) + self.b


class GlmTable:
    """G GLM shards of one sample count and link stacked: ``features`` is
    (G, n, dim), ``targets`` (G, n). A single shard is the table of its own
    data."""

    def __init__(self, features: np.ndarray, targets: np.ndarray, link: str):
        self.features, self.targets, self.link = features, targets, link
        # logistic: the margin sign that turns z into -y*z for y in {-1, +1}
        self._sign = np.where(targets > 0.5, -1.0, 1.0)

    def values(self, thetas) -> np.ndarray:
        """(rows, G) mean loss of every shard at each row of ``thetas``.

        Rows go in chunks of ``_CHUNK_FLOATS // n``, as for one shard: the
        chunk fixes the shape of each BLAS product and so the bits of its
        result. Within a chunk the shards go in slices whose (shards, chunk,
        n) margin array stays near ``_CHUNK_FLOATS`` floats.
        """
        thetas = np.asarray(thetas, dtype=float)
        n_shards, n = self.targets.shape
        out = np.empty((n_shards, thetas.shape[0]))
        features_t = self.features.transpose(0, 2, 1)
        step = max(1, _CHUNK_FLOATS // n)
        for lo in range(0, thetas.shape[0], step):
            chunk = thetas[lo:lo + step]
            per = max(1, _CHUNK_FLOATS // (chunk.shape[0] * n))
            for g in range(0, n_shards, per):
                z = chunk @ features_t[g:g + per]
                if self.link == "linear":
                    z -= self.targets[g:g + per, None]
                    out[g:g + per, lo:lo + step] = 0.5 * (z * z).mean(axis=2)
                else:
                    # logaddexp(0, -y*z) is log(1 + exp(-y*z)) without
                    # overflow for large |z|
                    z *= self._sign[g:g + per, None]
                    out[g:g + per, lo:lo + step] = np.logaddexp(0.0, z, out=z).mean(axis=2)
        return out.T

    def gradients(self, theta) -> np.ndarray:
        """(G, dim) full-shard gradient of every shard at ``theta``."""
        return _glm_gradient(self.features, self.targets, theta, self.link)


def stack_objectives(objectives) -> list[tuple[np.ndarray, QuadraticTable | GlmTable]]:
    """Group per-client objectives, in client order, into stacked tables:
    every quadratic in one table, GLM shards in one table per (sample
    count, link, batch size), so the minibatches of one table's local work
    stack. Returns (client positions, table) pairs; row j of a table
    belongs to the client at position ``positions[j]``."""
    groups = {}
    for i, obj in enumerate(objectives):
        if isinstance(obj, QuadraticObjective):
            key = ("quadratic",)
        elif isinstance(obj, GlmObjective):
            key = ("glm", obj.n_samples, obj.link, obj.batch_size)
        else:
            raise ConfigurationError(f"client {i}: unsupported objective type {type(obj).__name__}")
        groups.setdefault(key, []).append(i)
    tables = []
    for key, positions in groups.items():
        members = [objectives[i] for i in positions]
        if key[0] == "quadratic":
            table = QuadraticTable(np.array([o.a for o in members]), np.array([o.b for o in members]),
                                   np.array([o.c for o in members]), np.array([o.noise_std for o in members]))
        else:
            table = GlmTable(np.array([o.features for o in members]), np.array([o.targets for o in members]),
                             key[2])
        tables.append((np.array(positions), table))
    return tables


def batch_gradient(objective, params, batch_indices) -> np.ndarray:
    """Mean gradient of ``objective`` over the given sample indices."""
    return objective.batch_gradient(params, batch_indices)


class BatchStream:
    """Without-replacement minibatch indices, reshuffled every epoch."""

    def __init__(self, n_samples: int, batch_size: int, rng: np.random.Generator):
        if not 1 <= batch_size <= n_samples:
            raise ConfigurationError("batch size must lie in [1, n_samples]")
        self.n_samples = n_samples
        self.batch_size = batch_size
        self._rng = rng
        self._order = rng.permutation(n_samples)
        self._cursor = 0

    def next(self) -> np.ndarray:
        if self._cursor + self.batch_size > self.n_samples:
            self._order = self._rng.permutation(self.n_samples)
            self._cursor = 0
        batch = self._order[self._cursor:self._cursor + self.batch_size]
        self._cursor += self.batch_size
        return batch

    def take(self, k: int) -> np.ndarray:
        """The next ``k`` batches as one (k, batch_size) array: the indices
        of ``k`` calls of :meth:`next`, and the same generator state after.
        The batches that fit in one epoch are one slice of it."""
        size = self.batch_size
        stop = self._cursor + k * size
        if stop <= self.n_samples:  # the common case: no reshuffle on the way
            batches = self._order[self._cursor:stop]
            self._cursor = stop
            return batches.reshape(k, size)
        parts = []
        while k:
            if self._cursor + size > self.n_samples:
                self._order = self._rng.permutation(self.n_samples)
                self._cursor = 0
            fit = min(k, (self.n_samples - self._cursor) // size)
            stop = self._cursor + fit * size
            parts.append(self._order[self._cursor:stop])
            self._cursor = stop
            k -= fit
        return (parts[0] if len(parts) == 1 else np.concatenate(parts)).reshape(-1, size)


class LocalUpdate(NamedTuple):
    """The runs of one :func:`local_sgd` call: P jobs of R members."""

    path: np.ndarray            # (k_steps + 1, P, R, dim) iterates
    delta: np.ndarray           # (P, R, dim) endpoint minus start
    # per job and member the index of the first step whose iterate left the
    # finite range, -1 where it stayed finite; None when every run did
    overflow_step: np.ndarray | None

    @property
    def endpoint(self) -> np.ndarray:
        return self.path[-1]


def local_sgd(table, rows, starts, k_steps: int, eta_l: float, sources=None) -> LocalUpdate:
    """Run ``k_steps`` of (stochastic) gradient descent for P jobs at once.

    Job p trains R members from ``starts[p]`` ((P, R, dim) in all) on row
    ``rows[p]`` of ``table``, a :class:`QuadraticTable` or :class:`GlmTable`;
    a lone objective is the one-row table ``stack_objectives([obj])``.
    ``sources[p]`` is the job's randomness, one entry per member: batch
    streams on a GLM table, noise generators on a quadratic one. A job
    without sources (``sources`` None, or its entry None) takes exact full
    gradients, and so does a quadratic row without noise. GLM jobs of one
    call take all batch streams or all full gradients.

    The P*R runs step as one array, row by row the operations of a run on
    its own, so a run has the same bits in any stack. Each member draws its
    K steps from its own source in one block: ``standard_normal((K, dim))``
    scaled by the row's ``noise_std`` (the raw draws of all rows are scaled
    at once), or one :meth:`BatchStream.take` and one gather of its samples.
    A noiseless row in a noisy call adds -0.0, which leaves every gradient's
    bits as they are. Each time the engine computes the runs it has
    pending, it calls this once per objective table (more often only when
    the iterates would pass a size bound); see :mod:`asyncfed.engine`.

    Runs do not raise when they leave the finite range; ``overflow_step``
    records where.
    """
    if k_steps < 1:
        raise ConfigurationError("k_steps must be at least 1")
    if eta_l < 0:
        raise ConfigurationError("eta_l must be nonnegative")
    rows = np.asarray(rows, dtype=np.intp)
    n_jobs, n_members, dim = np.shape(starts)
    path = np.empty((k_steps + 1, n_jobs, n_members, dim))
    path[0] = starts
    flat = path.reshape(k_steps + 1, n_jobs * n_members, dim)  # row p*R + r: job p, member r
    given = [] if sources is None else list(sources)
    run_rows = rows if n_members == 1 else np.repeat(rows, n_members)  # the table row of each run
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(table, QuadraticTable):
            # one coordinate per (job, member, dim) entry, so every
            # operation is on equal-shape contiguous vectors
            two_a, b = table.two_a[run_rows].reshape(-1), table.b[run_rows].reshape(-1)
            # per job its row's noise scale, or -0.0 for a job without noise
            scale = [s if src is not None and s > 0.0 else -0.0
                     for src, s in zip(given, table.noise_std[rows].tolist())] if given else []
            noise = None
            if any(s > 0.0 for s in scale):
                quiet = np.zeros((k_steps, n_members * dim))
                draws = []
                for src, s in zip(given, scale):
                    draws += [rng.standard_normal((k_steps, dim)) for rng in src] if s > 0.0 else [quiet]
                # row k holds every run's step-k noise
                noise = np.repeat(scale, n_members * dim) * np.concatenate(draws, axis=1)
            theta = flat[0].reshape(-1)
            for k in range(1, k_steps + 1):
                grad = two_a * theta + b
                if noise is not None:
                    grad += noise[k - 1]
                theta = np.subtract(theta, eta_l * grad, out=flat[k].reshape(-1))
        else:
            batched = any(src is not None for src in given)
            if batched:
                # step-major (K, P*R, B) indices, so each step's samples are one contiguous block
                idx = np.stack([stream.take(k_steps) for src in given for stream in src], axis=1)
                n_samples = table.targets.shape[1]
                _check_batch_indices(idx, n_samples)
                idx += run_rows[:, None] * n_samples  # flat sample index into the table
                x = table.features.reshape(-1, table.features.shape[2]).take(idx, axis=0)
                y = table.targets.reshape(-1).take(idx)
            else:
                x, y = table.features[run_rows], table.targets[run_rows]  # (P*R, n, dim), (P*R, n)
            theta = flat[0]
            for k in range(1, k_steps + 1):
                xk, yk = (x[k - 1], y[k - 1]) if batched else (x, y)
                grad = _glm_gradient(xk, yk, theta, table.link)
                theta = np.subtract(theta, eta_l * grad, out=flat[k])
    # a non-finite coordinate stays non-finite under theta - eta * grad, so
    # checking the endpoints alone catches every divergence
    overflow_step = None
    if not np.isfinite(flat[-1]).all():
        finite = np.isfinite(path).all(axis=3)  # (K + 1, P, R)
        overflow_step = np.where(finite[-1], -1, np.argmin(finite, axis=0) - 1)
    return LocalUpdate(path, path[-1] - path[0], overflow_step)


# ---------------------------------------------------------------------------
# Synthetic shards
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SyntheticShardConfig:
    """Desk-scale non-iid data generator settings.

    Class balance per client is drawn from a symmetric Dirichlet; smaller
    ``concentration`` means more heterogeneous shards. A fixed 5% label flip
    keeps every shard non-separable so local optima stay finite.
    """

    n_clients: int
    dim: int = 5
    samples_per_client: int = 64
    concentration: float = 0.1
    seed: int = 0
    link: str = "logistic"
    batch_size: int = 8
    label_noise: float = 0.05

    def __post_init__(self):
        if self.concentration <= 0:
            raise ConfigurationError("concentration must be positive")
        if self.n_clients < 1 or self.samples_per_client < 1 or self.dim < 1:
            raise ConfigurationError("invalid shard geometry")


def make_synthetic_shards(cfg: SyntheticShardConfig) -> list[GlmObjective]:
    """Generate one GLM shard per client, deterministic in ``cfg.seed``.

    Heterogeneity enters twice, both sharpening as ``concentration``
    shrinks: the class balance of each shard (symmetric Beta draw) and the
    class-separating feature direction (Dirichlet draw over coordinates,
    near one-hot for small concentration, near uniform for large).
    """
    rng = np.random.default_rng(cfg.seed)
    batch = min(cfg.batch_size, cfg.samples_per_client)
    shards = []
    for _ in range(cfg.n_clients):
        share = rng.beta(cfg.concentration, cfg.concentration)
        share = 0.1 + 0.8 * share  # both classes stay represented
        direction = rng.dirichlet(np.full(cfg.dim, cfg.concentration))
        direction = direction / np.linalg.norm(direction) * math.sqrt(2.0)
        labels = (rng.random(cfg.samples_per_client) < share).astype(float)
        centers = np.where(labels[:, None] > 0.5, direction, -direction)
        features = centers + rng.standard_normal((cfg.samples_per_client, cfg.dim))
        flip = rng.random(cfg.samples_per_client) < cfg.label_noise
        labels = np.where(flip, 1.0 - labels, labels)
        if cfg.link == "linear":
            targets = features @ direction + 0.1 * rng.standard_normal(cfg.samples_per_client)
            shards.append(GlmObjective(features, targets, "linear", batch))
        else:
            shards.append(GlmObjective(features, labels, "logistic", batch))
    return shards


def export_shards_csv(shards: list[GlmObjective], directory) -> list[Path]:
    """Write one CSV per shard: feature columns then the target column."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, shard in enumerate(shards):
        path = directory / f"shard_{i:03d}.csv"
        header = [f"x{j}" for j in range(shard.dim)] + ["y"]
        with open(path, "w", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row, target in zip(shard.features, shard.targets):
                writer.writerow([f"{v:.17g}" for v in row] + [f"{target:.17g}"])
        paths.append(path)
    return paths
