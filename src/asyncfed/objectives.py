"""Client loss functions and the local SGD executor."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .core import ConfigurationError

_CHUNK_FLOATS = 1 << 16  # bound on the temporary of one batched GLM evaluation


class _Table:
    """Client objectives of one family stacked as rows of (G, ...) arrays;
    a single client is a one-row table."""

    _ROW_FIELDS: tuple[str, ...] = ()  # the per-row arrays, first axis the row
    _SHARED_FIELDS: tuple[str, ...] = ()  # the attributes every row shares

    def row(self, i: int):
        """Row ``i`` as a one-row table holding views of the table's arrays;
        the constructor's checks are not repeated."""
        obj = type(self).__new__(type(self))
        for name in self._ROW_FIELDS:
            setattr(obj, name, getattr(self, name)[i:i + 1])
        for name in self._SHARED_FIELDS:
            setattr(obj, name, getattr(self, name))
        return obj

    def value(self, theta) -> np.ndarray:
        """(G,) loss of every row at one ``theta``."""
        return self.values(np.atleast_1d(np.asarray(theta, dtype=float))[None])[0]


class QuadraticObjective(_Table):
    """G diagonal quadratics of one dimension, row g the loss
    a_g . theta^2 + b_g . theta + c_g: ``a`` and ``b`` are (G, dim), ``c``
    and ``noise_std`` are (G,) or one number for every row.

    Curvatures must be nonnegative. With a = 1/2 the gradient is
    theta - theta_star, the convention used throughout the closed-form
    checks. A row's ``noise_std`` > 0 turns its local gradients into
    unbiased stochastic estimates with additive Gaussian noise.
    """

    _ROW_FIELDS = ("a", "b", "c", "noise_std", "two_a")

    def __init__(self, a, b, c=0.0, noise_std=0.0):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        if a.ndim != 2 or a.shape != b.shape:
            raise ConfigurationError("quadratic coefficients a and b must be (rows, dim) arrays of one shape")
        if (a < 0).any():
            raise ConfigurationError("quadratic curvature must be nonnegative")
        self.a, self.b, self.c, self.noise_std = a, b, np.empty(len(a)), np.empty(len(a))
        self.c[:], self.noise_std[:] = c, noise_std  # one number fills every row
        if (self.noise_std < 0).any():
            raise ConfigurationError("noise_std must be nonnegative")
        self.two_a = 2.0 * a  # the gradient's coefficient

    @classmethod
    def from_optima(cls, optima, curvature: float = 0.5, noise_std: float = 0.0) -> QuadraticObjective:
        """One quadratic a . (theta - opt)^2, minimum 0 and a = ``curvature``
        in every coordinate, per entry of ``optima``, given as numbers or
        lists: the coefficients are computed once as (clients, dim) arrays."""
        rows = [opt if isinstance(opt, (list, tuple)) else (opt,) for opt in optima]
        dims = set(map(len, rows))
        if len(dims) != 1:
            raise ConfigurationError(f"clients disagree on parameter dimension: {dims}")
        (dim,) = dims
        opt = np.array(rows, dtype=float).reshape(len(rows), dim)
        a = np.full_like(opt, float(curvature))
        b = -2.0 * a * opt
        square = opt * opt
        # c = np.dot(a, opt * opt) per row: one product for dim 1, else the
        # BLAS dot product a stacked 1 x dim @ dim x 1 takes
        c = a[:, 0] * square[:, 0] if dim == 1 else (a[:, None, :] @ square[:, :, None])[:, 0, 0]
        return cls(a, b, c, float(noise_std))

    def __len__(self) -> int:
        return self.a.shape[0]

    @property
    def dim(self) -> int:
        return self.a.shape[1]

    @property
    def optima(self) -> np.ndarray:
        """(G, dim) minimizer of every row."""
        if np.any(self.a == 0):
            raise ConfigurationError("flat quadratic has no finite optimum")
        return -self.b / (2.0 * self.a)

    @property
    def smoothness(self) -> np.ndarray:
        """(G,) gradient Lipschitz constant of every row."""
        return 2.0 * self.a.max(axis=1)

    @property
    def row_chunk(self) -> int:
        """Rows of ``thetas`` per matrix product in :meth:`values`: 1 where
        the loss is elementwise (dim 1)."""
        return 1 if self.dim == 1 else max(1, _CHUNK_FLOATS // self.dim)

    def values(self, thetas, out=None) -> np.ndarray:
        """(rows, G) loss of every quadratic at each row of ``thetas``,
        written into ``out`` when given.

        Each quadratic's column is a batched matrix-vector product, so a
        loss has the same bits in its one-row table and in any other; one
        (rows, dim) x (dim, G) product would sum the coordinates in another
        order for dim > 1. Rows go in chunks of ``row_chunk``: the chunk
        fixes the shape of each BLAS product and so the bits of its result.
        For dim 1 the loss is elementwise,
        (theta^2 a + theta b) + (c + 0.0), with the bits of the matrix
        products: those add each one-term product to a zero, so they differ
        from the elementwise terms only in the sign of a zero and never give
        -0.0, and neither does a sum whose last term is c + 0.0 (a NaN may
        carry another payload).
        """
        thetas = np.asarray(thetas, dtype=float)
        if out is None:
            out = np.empty((thetas.shape[0], len(self)))
        if self.dim == 1:
            np.multiply(thetas * thetas, self.a[:, 0], out=out)
            out += thetas * self.b[:, 0]
            out += self.c + 0.0
            return out
        step = self.row_chunk
        for lo in range(0, thetas.shape[0], step):
            chunk = thetas[lo:lo + step]
            column = (chunk * chunk) @ self.a[:, :, None]
            column += chunk @ self.b[:, :, None]
            column += self.c[:, None, None]
            out[lo:lo + step] = column[:, :, 0].T
        return out

    def gradients(self, theta) -> np.ndarray:
        """(G, dim) gradient of every quadratic at ``theta``."""
        return self.two_a * np.asarray(theta, dtype=float) + self.b

    def gradient_variance(self, theta, batch_size: int | None = None) -> np.ndarray:
        """(G,) variance E||g - grad||^2 of every row's stochastic gradient
        g at any ``theta``: :func:`local_sgd` adds noise_std * N(0, I_dim).
        A quadratic has no minibatches to size."""
        return self.dim * (self.noise_std * self.noise_std)


class GlmObjective(_Table):
    """G linear or logistic regression losses over fixed data shards of one
    sample count, link and batch size: ``features`` is (G, n, dim),
    ``targets`` (G, n)."""

    _ROW_FIELDS = ("features", "targets", "_sign")
    _SHARED_FIELDS = ("link", "batch_size")

    def __init__(self, features, targets, link: str = "logistic", batch_size: int = 8):
        features, targets = np.ascontiguousarray(features, dtype=float), np.asarray(targets, dtype=float)
        if link not in ("linear", "logistic"):
            raise ConfigurationError(f"unknown link {link!r}")
        if features.ndim != 3 or targets.shape != features.shape[:2]:
            raise ConfigurationError("features and targets disagree on sample count")
        if not 1 <= batch_size <= features.shape[1]:
            raise ConfigurationError("batch size must lie in [1, n_samples]")
        self.features, self.targets, self.link, self.batch_size = features, targets, link, int(batch_size)
        # logistic: the margin sign that turns z into -y*z for y in {-1, +1}
        self._sign = np.where(targets > 0.5, -1.0, 1.0)

    def __len__(self) -> int:
        return self.targets.shape[0]

    @property
    def n_samples(self) -> int:
        return self.features.shape[1]

    @property
    def dim(self) -> int:
        return self.features.shape[2]

    @property
    def smoothness(self) -> np.ndarray:
        """(G,) gradient Lipschitz bound of every shard: the largest
        eigenvalue of X^T X / n, scaled by the link's curvature bound."""
        gram_top = np.linalg.eigvalsh(self.features.transpose(0, 2, 1) @ self.features).max(axis=1)
        factor = 1.0 if self.link == "linear" else 0.25
        return factor * gram_top / self.n_samples

    @property
    def row_chunk(self) -> int:
        """Rows of ``thetas`` per margin product in :meth:`values`."""
        return max(1, _CHUNK_FLOATS // self.n_samples)

    def values(self, thetas, out=None) -> np.ndarray:
        """(rows, G) mean loss of every shard at each row of ``thetas``,
        written into ``out`` when given.

        Rows go in chunks of ``row_chunk`` (``_CHUNK_FLOATS // n``), as for
        one shard: the chunk fixes the shape of each BLAS product and so the
        bits of its result. Within a chunk the shards go in slices whose
        (shards, chunk, n) margin array stays near ``_CHUNK_FLOATS`` floats.
        """
        thetas = np.asarray(thetas, dtype=float)
        n_shards, n = self.targets.shape
        if out is None:
            out = np.empty((thetas.shape[0], n_shards))
        by_shard = out.T
        features_t = self.features.transpose(0, 2, 1)
        step = self.row_chunk
        for lo in range(0, thetas.shape[0], step):
            chunk = thetas[lo:lo + step]
            per = max(1, _CHUNK_FLOATS // (chunk.shape[0] * n))
            for g in range(0, n_shards, per):
                z = chunk @ features_t[g:g + per]
                if self.link == "linear":
                    z -= self.targets[g:g + per, None]
                    by_shard[g:g + per, lo:lo + step] = 0.5 * (z * z).mean(axis=2)
                else:
                    # logaddexp(0, -y*z) is log(1 + exp(-y*z)) without
                    # overflow for large |z|
                    z *= self._sign[g:g + per, None]
                    by_shard[g:g + per, lo:lo + step] = np.logaddexp(0.0, z, out=z).mean(axis=2)
        return out

    def gradients(self, theta) -> np.ndarray:
        """(G, dim) full-shard gradient of every shard at ``theta``."""
        return _glm_gradient(self.features, self.targets, theta, self.link)

    def gradient_variance(self, theta, batch_size: int | None = None) -> np.ndarray:
        """(G,) variance E||g - grad||^2 at ``theta`` of every shard's
        gradient g over a uniform B-subset of its n samples, as each batch
        of an epoch permutation is (B = ``batch_size``, else the table's):
        V (n - B) / (B (n - 1)), V = (1/n) sum_s ||g_s - grad||^2."""
        n, b = self.n_samples, batch_size or self.batch_size
        if not 1 <= b <= n:
            raise ConfigurationError("batch size must lie in [1, n_samples]")
        if b == n:
            return np.zeros(len(self))
        z = self.features @ np.asarray(theta, dtype=float)
        err = (z if self.link == "linear" else _sigmoid(z)) - self.targets
        per_sample = err[:, :, None] * self.features  # (G, n, dim)
        spread = per_sample - per_sample.mean(axis=1, keepdims=True)
        return (spread * spread).sum(axis=2).mean(axis=1) * (n - b) / (b * (n - 1))


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


class LocalUpdate(NamedTuple):
    """The runs of one :func:`local_sgd` call: P jobs of R members."""

    path: np.ndarray            # (K + 1, P, R, dim) iterates, K the most steps of any member
    delta: np.ndarray           # (P, R, dim) endpoint minus start
    # per job and member the index of the first of its steps whose iterate
    # left the finite range, -1 where it stayed finite; None when every run did
    overflow_step: np.ndarray | None
    endpoint: np.ndarray        # (P, R, dim) each member's last iterate, path[K_r]


def local_sgd(table, rows, starts, k_steps, eta_l, draws=None) -> LocalUpdate:
    """Run (stochastic) gradient descent for P jobs of R members at once.

    Job p trains R members from ``starts[p]`` ((P, R, dim) in all) on row
    ``rows[p]`` of ``table``, a :class:`QuadraticObjective` or
    :class:`GlmObjective` (a lone client is its one-row table). ``k_steps``
    and ``eta_l`` are one number for every member or an (R,) array, member
    r taking ``k_steps[r]`` steps of size ``eta_l[r]``. ``draws`` holds the
    runs' randomness, step-major, for K = ``max(k_steps)`` steps, and None
    means exact full gradients:

    - on a quadratic table, (K, P, R, dim) standard normals, each scaled by
      its row's ``noise_std``. A noiseless row's entries must be 0.0: they
      add -0.0, which leaves every gradient's bits as they are;
    - on a GLM table, (K, P, R, B) flat sample indices into the table's
      ``G * n`` samples (row g's are ``g * n`` to ``g * n + n - 1``), the
      minibatch of every step, gathered step-major in one ``take``.

    The P*R runs step as one array, row by row the operations of a run on
    its own, so a run has the same bits in any stack. Every run takes K
    steps; a member with fewer reads its endpoint at ``path[K_r]``, and the
    steps past it, whose draws must still be valid (the engine repeats the
    member's last step's), are not its own. The kernel holds no generator:
    the engine draws ahead into one table per objective table and hands
    each call its slice (see :mod:`asyncfed.engine`), once per objective
    table each time it computes the runs it has pending (more often only
    when a call would pass a size bound).

    Runs do not raise when they leave the finite range; ``overflow_step``
    records where, counting only each member's own steps.
    """
    rows = np.asarray(rows, dtype=np.intp)
    n_jobs, n_members, dim = np.shape(starts)
    n_steps = fewest = k_steps
    per_member = not isinstance(k_steps, (int, np.integer))
    if per_member:  # one step count per member
        k_steps = _per_member(k_steps, n_members, np.intp, "k_steps")
        n_steps, fewest = int(k_steps.max(initial=1)), k_steps.min(initial=1)
    if fewest < 1:
        raise ConfigurationError("k_steps must be at least 1")
    smallest = eta_l
    if not isinstance(eta_l, (float, int, np.floating, np.integer)):  # one step size per member
        eta_l = _per_member(eta_l, n_members, float, "eta_l")
        smallest = eta_l.min(initial=0.0)
    if smallest < 0:
        raise ConfigurationError("eta_l must be nonnegative")
    path = np.empty((n_steps + 1, n_jobs, n_members, dim))
    path[0] = starts
    flat = path.reshape(n_steps + 1, n_jobs * n_members, dim)  # row p*R + r: job p, member r
    run_rows = rows if n_members == 1 else np.repeat(rows, n_members)  # the table row of each run
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(table, QuadraticObjective):
            # one coordinate per (job, member, dim) entry, so every
            # operation is on equal-shape contiguous vectors
            two_a, b = table.two_a[run_rows].reshape(-1), table.b[run_rows].reshape(-1)
            if isinstance(eta_l, np.ndarray):  # each entry its member's step size
                eta_l = np.broadcast_to(eta_l[:, None], (n_jobs, n_members, dim)).reshape(-1)
            noise = None
            if draws is not None:
                # per job its row's noise scale, or -0.0 for a noiseless row;
                # row k holds every run's step-k noise
                std = table.noise_std[rows]
                scale = np.repeat(np.where(std > 0.0, std, -0.0), n_members * dim)
                noise = np.reshape(draws, (n_steps, -1)) * scale
            steps = path.reshape(n_steps + 1, -1)
            theta, grad = steps[0], np.empty(steps.shape[1])
            for k in range(1, n_steps + 1):
                # (2a * theta + b + noise) * eta_l in place, then theta - that
                np.multiply(two_a, theta, out=grad)
                grad += b
                if noise is not None:
                    grad += noise[k - 1]
                grad *= eta_l
                theta = np.subtract(theta, grad, out=steps[k])
        else:
            if isinstance(eta_l, np.ndarray):  # each run's row its member's step size
                eta_l = np.tile(eta_l, n_jobs)[:, None]
            if draws is not None:
                # (K, P*R, B): each step's samples are one contiguous block
                idx = np.reshape(draws, (n_steps, n_jobs * n_members, -1))
                x = table.features.reshape(-1, dim).take(idx, axis=0)
                y = table.targets.reshape(-1).take(idx)
            else:
                x, y = table.features[run_rows], table.targets[run_rows]  # (P*R, n, dim), (P*R, n)
            theta = flat[0]
            for k in range(1, n_steps + 1):
                xk, yk = (x[k - 1], y[k - 1]) if draws is not None else (x, y)
                grad = _glm_gradient(xk, yk, theta, table.link)
                theta = np.subtract(theta, eta_l * grad, out=flat[k])
    endpoint = path[-1]
    if per_member:  # member r's endpoint is path[k_steps[r]]
        endpoint = path[k_steps, np.arange(n_jobs)[:, None], np.arange(n_members)]
    # a non-finite coordinate stays non-finite under theta - eta * grad, so
    # checking the endpoints alone catches every divergence, and a member
    # whose endpoint is not finite left the range within its own steps
    overflow_step = None
    if not np.isfinite(endpoint).all():
        finite = np.isfinite(path).all(axis=3)  # (K + 1, P, R)
        overflow_step = np.where(np.isfinite(endpoint).all(axis=2), -1, np.argmin(finite, axis=0) - 1)
    return LocalUpdate(path, endpoint - path[0], overflow_step, endpoint)


def _per_member(values, n_members: int, dtype, name: str) -> np.ndarray:
    """``values`` as the (R,) array of one value per member."""
    values = np.asarray(values, dtype=dtype)
    if values.shape != (n_members,):
        raise ConfigurationError(f"{name} must be one number or one per member, got shape {values.shape}")
    return values


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


def make_synthetic_shards(cfg: SyntheticShardConfig) -> GlmObjective:
    """Generate one GLM shard per client, row i of one table for client i,
    deterministic in ``cfg.seed``.

    Heterogeneity enters twice, both sharpening as ``concentration``
    shrinks: the class balance of each shard (symmetric Beta draw) and the
    class-separating feature direction (Dirichlet draw over coordinates,
    near one-hot for small concentration, near uniform for large).
    """
    rng = np.random.default_rng(cfg.seed)
    n = cfg.samples_per_client
    features = np.empty((cfg.n_clients, n, cfg.dim))
    targets = np.empty((cfg.n_clients, n))
    for i in range(cfg.n_clients):
        share = rng.beta(cfg.concentration, cfg.concentration)
        share = 0.1 + 0.8 * share  # both classes stay represented
        direction = rng.dirichlet(np.full(cfg.dim, cfg.concentration))
        direction = direction / np.linalg.norm(direction) * math.sqrt(2.0)
        labels = (rng.random(n) < share).astype(float)
        centers = np.where(labels[:, None] > 0.5, direction, -direction)
        features[i] = centers + rng.standard_normal((n, cfg.dim))
        flip = rng.random(n) < cfg.label_noise
        if cfg.link == "linear":
            targets[i] = features[i] @ direction + 0.1 * rng.standard_normal(n)
        else:
            targets[i] = np.where(flip, 1.0 - labels, labels)
    return GlmObjective(features, targets, cfg.link, min(cfg.batch_size, n))


def export_shards_csv(shards: GlmObjective, directory) -> list[Path]:
    """Write one CSV per row of ``shards``: feature columns then the target
    column. Each file is replaced only once it is complete (see
    :func:`~asyncfed.engine.atomic_open`)."""
    from .engine import atomic_open  # the engine imports this module

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    header = [f"x{j}" for j in range(shards.dim)] + ["y"]
    for i, (features, targets) in enumerate(zip(shards.features, shards.targets)):
        path = directory / f"shard_{i:03d}.csv"
        with atomic_open(path) as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row, target in zip(features, targets):
                writer.writerow([f"{v:.17g}" for v in row] + [f"{target:.17g}"])
        paths.append(path)
    return paths
