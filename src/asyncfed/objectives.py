"""Client loss functions, stochastic batching, and the local SGD executor."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import ConfigurationError, NumericOverflowError

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
        self._step_rows = {}

    @classmethod
    def from_optimum(cls, optimum, curvature=0.5, noise_std: float = 0.0):
        """Quadratic with minimum value 0 at ``optimum``: a . (theta - opt)^2."""
        opt = np.atleast_1d(np.asarray(optimum, dtype=float))
        a = np.full_like(opt, float(curvature)) if np.isscalar(curvature) else np.asarray(curvature, float)
        return cls(a, -2.0 * a * opt, float(np.dot(a, opt * opt)), noise_std)

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

    def quadratic_coefficients(self):
        return self.a, self.b, self.c

    def value(self, theta) -> float:
        return float(self.values(np.atleast_1d(np.asarray(theta, dtype=float))[None])[0])

    def values(self, thetas) -> np.ndarray:
        """Loss at each row of the (rows, dim) array ``thetas``."""
        thetas = np.asarray(thetas, dtype=float)
        return (thetas * thetas) @ self.a + thetas @ self.b + self.c

    def gradient(self, theta) -> np.ndarray:
        return 2.0 * self.a * np.asarray(theta, dtype=float) + self.b

    def step_coefficients(self, n_members: int) -> tuple[np.ndarray, np.ndarray]:
        """2a and b repeated for ``n_members`` models laid end to end, so a
        gradient step on R flattened members is one equal-shape operation;
        cached per member count (the coefficients are fixed at construction)."""
        rows = self._step_rows.get(n_members)
        if rows is None:
            rows = self._step_rows[n_members] = (np.tile(2.0 * self.a, n_members), np.tile(self.b, n_members))
        return rows

    def noisy_gradient(self, theta, rng: np.random.Generator) -> np.ndarray:
        return self.gradient(theta) + self.noise_std * rng.standard_normal(self.dim)


class GlmObjective:
    """Linear or logistic regression loss over a fixed data shard."""

    def __init__(self, features, targets, link: str = "logistic", batch_size: int = 8):
        self.features = np.asarray(features, dtype=float)
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
        """Loss at each row of the (rows, dim) array ``thetas``.

        Rows are processed in chunks so the (chunk, n_samples) margin array
        stays near ``_CHUNK_FLOATS`` floats.
        """
        thetas = np.asarray(thetas, dtype=float)
        out = np.empty(thetas.shape[0])
        step = max(1, _CHUNK_FLOATS // self.n_samples)
        sign = np.where(self.targets > 0.5, -1.0, 1.0)
        for lo in range(0, thetas.shape[0], step):
            z = thetas[lo:lo + step] @ self.features.T
            if self.link == "linear":
                z -= self.targets
                out[lo:lo + step] = 0.5 * (z * z).mean(axis=1)
            else:
                # z becomes -y*z for y in {-1, +1}; logaddexp(0, -y*z) is
                # log(1 + exp(-y*z)) without overflow for large |z|
                z *= sign
                out[lo:lo + step] = np.logaddexp(0.0, z, out=z).mean(axis=1)
        return out

    def gradient(self, theta) -> np.ndarray:
        return self.batch_gradient(theta, np.arange(self.n_samples))

    def batch_gradient(self, theta, batch_indices) -> np.ndarray:
        idx = np.asarray(batch_indices, dtype=int)
        if idx.size == 0 or idx.min() < 0 or idx.max() >= self.n_samples:
            raise ConfigurationError("batch indices out of range")
        x = self.features[idx]
        z = x @ np.asarray(theta, dtype=float)
        if self.link == "linear":
            err = z - self.targets[idx]
        else:
            err = _sigmoid(z) - self.targets[idx]
        return x.T @ err / idx.size


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, both from
    # e = e^-|z|, so neither branch overflows; min(z, -z) is -|z| but,
    # unlike -abs(z), keeps the sign bit of a NaN
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


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


@dataclass(frozen=True)
class LocalUpdate:
    endpoint: np.ndarray
    delta: np.ndarray
    path: np.ndarray  # (k_steps + 1, dim) iterates, (k_steps + 1, R, dim) for R members
    # members only: per member the index of the first step whose iterate left
    # the finite range, -1 for members that stayed finite; None when all did
    overflow_step: np.ndarray | None = None


def local_sgd(
    start,
    objective,
    k_steps: int,
    eta_l: float,
    *,
    batches=None,
    noise_rng=None,
) -> LocalUpdate:
    """Run ``k_steps`` of (stochastic) gradient descent from ``start``.

    ``start`` is one model, shape (dim,), or R members, shape (R, dim),
    that step together; members take a sequence of R batch streams or noise
    generators, one per member, where one model takes a single one.
    Gradients come from ``batches`` when given, from the objective's noise
    model when it has one and ``noise_rng`` is supplied, and from the exact
    full gradient otherwise. A quadratic draws the noise of all its steps as
    one (K, dim) block per member, the same stream as one draw per step, and
    steps all members as one (R, dim) array; GLM members step one at a time.

    One model that leaves the finite range raises
    :class:`NumericOverflowError` with the index of the first step whose
    iterate did; members do not raise, and ``overflow_step`` records that
    index per member.
    """
    if k_steps < 1:
        raise ConfigurationError("k_steps must be at least 1")
    if eta_l < 0:
        raise ConfigurationError("eta_l must be nonnegative")
    first = np.asarray(start, dtype=float)
    single = first.ndim < 2
    if single:
        first = np.atleast_1d(first)[None]
        batches = None if batches is None else (batches,)
        noise_rng = None if noise_rng is None else (noise_rng,)
    n_members, dim = first.shape
    path = np.empty((k_steps + 1, n_members, dim))
    path[0] = first
    with np.errstate(over="ignore", invalid="ignore"):
        if batches is not None:
            for row, stream in enumerate(batches):
                theta = path[0, row]
                for k in range(1, k_steps + 1):
                    grad = objective.batch_gradient(theta, stream.next())
                    theta = np.subtract(theta, eta_l * grad, out=path[k, row])
        elif isinstance(objective, QuadraticObjective):
            # the operation order of gradient() and noisy_gradient(), so the
            # iterates keep their bits; the members' coordinates are laid out
            # as one flat row per step, so every operation is on equal-shape
            # contiguous vectors
            two_a, b = objective.step_coefficients(n_members)
            noise = None
            if noise_rng is not None and objective.noise_std > 0.0:
                draws = [rng.standard_normal((k_steps, dim)) for rng in noise_rng]
                # row k holds every member's step-k noise; one member needs no copy
                block = draws[0] if n_members == 1 else np.concatenate(draws, axis=1)
                noise = objective.noise_std * block
            flat = path.reshape(k_steps + 1, -1)
            theta = flat[0]
            for k in range(1, k_steps + 1):
                grad = two_a * theta + b
                if noise is not None:
                    grad = grad + noise[k - 1]
                theta = np.subtract(theta, eta_l * grad, out=flat[k])
        else:
            for row in range(n_members):
                theta = path[0, row]
                for k in range(1, k_steps + 1):
                    theta = np.subtract(theta, eta_l * objective.gradient(theta), out=path[k, row])
    # a non-finite coordinate stays non-finite under theta - eta * grad, so
    # checking the endpoints alone catches every divergence
    endpoint = path[-1]
    overflow_step = None
    if not np.isfinite(endpoint).all():
        finite = np.isfinite(path).all(axis=2)  # (K + 1, R)
        overflow_step = np.where(finite[-1], -1, np.argmin(finite, axis=0) - 1)
        if single:
            raise NumericOverflowError(int(overflow_step[0]))
    if single:
        return LocalUpdate(endpoint[0], endpoint[0] - path[0, 0], path[:, 0])
    return LocalUpdate(endpoint, endpoint - path[0], path, overflow_step)


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
