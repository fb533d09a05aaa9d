"""The member axis: reruns that share a schedule step as one (R, dim) model,
whether they differ in seeds, ``eta_l`` or ``k_steps``. Every member must
equal a separate ``run`` with its config, bit for bit, and ensemble
statistics over the members must equal those of the per-member loop."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from asyncfed import cli, engine
from asyncfed.core import Fleet, weighted_optimum
from asyncfed.engine import RunConfig, Seeds, run, run_members, shares_schedule
from asyncfed.objectives import QuadraticObjective, SyntheticShardConfig, make_synthetic_shards
from asyncfed.timing import HardwareModel, PolicyKind, WaitPolicy
from asyncfed.weights import WeightScheme, plan_weights

from conftest import bits, quadratic_fleet, trajectory_metrics, with_seeds

SYNC = WaitPolicy(PolicyKind.SYNCHRONOUS)
ASYNC = WaitPolicy(PolicyKind.ASYNCHRONOUS)
FEDFIX = WaitPolicy(PolicyKind.FEDFIX, delta_t=0.7)
FEDBUFF = WaitPolicy(PolicyKind.FEDBUFF, m=2)
FASTEST = WaitPolicy(PolicyKind.SAMPLE_BIASED, m=2, criterion="fastest")
UNIFORM = WaitPolicy(PolicyKind.SAMPLE_UNIFORM, m=2)
HIGHEST_LOSS = WaitPolicy(PolicyKind.SAMPLE_BIASED, m=1, criterion="highest_loss")

OPTIMA_1D = [[-2.0], [1.0], [3.0], [0.5]]
OPTIMA_3D = [[-2.0, 1.0, 0.5], [1.0, 0.0, 2.0], [3.0, -1.0, 0.0], [0.0, 0.5, 1.0]]
TAUS = [1.09, 2, 3.5, 1]


def _config(fleet, policy, scheme=WeightScheme.IDENTICAL, **kwargs):
    d = plan_weights(scheme, fleet.importances, fleet.compute_times, policy)
    settings = dict(fleet=fleet, policy=policy, d=d, eta_l=0.05, k_steps=3,
                    time_budget=25.0, theta0=np.full(fleet.dim, 2.0))
    settings.update(kwargs)
    return RunConfig(**settings)


def _noisy(optima, taus=TAUS, noise_std=0.7):
    return quadratic_fleet(optima, taus=taus, noise_std=noise_std)


def _glm_fleet(link="logistic"):
    shards = make_synthetic_shards(SyntheticShardConfig(4, dim=3, samples_per_client=20, seed=2,
                                                        link=link, batch_size=4))
    return Fleet(shards, TAUS, [0.25] * 4)


def _threshold_config():
    # stable on average but noisy enough that some members pass the
    # divergence threshold partway through and others never do
    fleet = quadratic_fleet([[0.0], [2.0]], noise_std=1e11)
    d = plan_weights(WeightScheme.FEDAVG, fleet.importances, [1, 1], SYNC)
    return RunConfig(fleet=fleet, policy=SYNC, d=d, eta_l=1.9, rounds=40, theta0=np.array([5.0]))


def _overflow_config(policy=SYNC, taus=(1, 1), rounds=12):
    # client 0's gradient noise overflows to inf on about 7% of draws, which
    # ends that member inside local SGD; its zero weight keeps the finite
    # members' models untouched by it
    optima = QuadraticObjective.from_optima([0.0, 2.0])
    table = QuadraticObjective(optima.a, optima.b, optima.c, [1e308, 0.5])
    fleet = Fleet(table, list(taus), [0.5, 0.5])
    d = plan_weights(WeightScheme.CUSTOM, fleet.importances, fleet.compute_times, policy, custom_d=[0.0, 1.0])
    return RunConfig(fleet=fleet, policy=policy, d=d, eta_l=0.3, rounds=rounds, theta0=np.array([5.0]))


CASES = {
    "sync_dim1": lambda: _config(_noisy(OPTIMA_1D), SYNC),
    "async_dim3": lambda: _config(_noisy(OPTIMA_3D), ASYNC, WeightScheme.ASYNC_TIME_BASED),
    "fedfix_dim1": lambda: _config(_noisy(OPTIMA_1D), FEDFIX, WeightScheme.FEDFIX_TIME_BASED),
    "fedbuff_dim3": lambda: _config(_noisy(OPTIMA_3D), FEDBUFF, WeightScheme.FEDAVG),
    "fastest_dim1": lambda: _config(_noisy(OPTIMA_1D), FASTEST),
    "async_k1_rounds": lambda: _config(_noisy(OPTIMA_1D), ASYNC, k_steps=1, time_budget=None,
                                       rounds=60, metric_cadence=7),
    "exponential_async": lambda: _config(_noisy(OPTIMA_3D, taus=[1, 2, 3, 1]), ASYNC,
                                         hw=HardwareModel("exponential")),
    "uniform_sampling": lambda: _config(_noisy(OPTIMA_1D), UNIFORM),
    "highest_loss": lambda: _config(_noisy(OPTIMA_1D), HIGHEST_LOSS),
    "glm_minibatch": lambda: _config(_glm_fleet(), ASYNC, WeightScheme.ASYNC_TIME_BASED),
    "glm_full_gradient": lambda: _config(_glm_fleet("linear"), FEDBUFF, full_gradient=True),
    "threshold": _threshold_config,
    "overflow": _overflow_config,
    # FedFix rounds of none, one or both clients, aggregated several to a
    # segment, in which an overflow may come after an empty round
    "overflow_fedfix": lambda: _overflow_config(WaitPolicy(PolicyKind.FEDFIX, delta_t=0.3), taus=(1, 0.7),
                                                rounds=30),
}

SHARED = {"sync_dim1", "async_dim3", "fedfix_dim1", "fedbuff_dim3", "fastest_dim1", "async_k1_rounds",
          "glm_minibatch", "glm_full_gradient", "threshold", "overflow", "overflow_fedfix"}

MEMBER_SEEDS = [Seeds((0, j), (1, j), (2, j)) for j in range(8)]


def _separate_runs(config, member_seeds):
    """The reference: one full run per member."""
    return [run(replace(config, seeds=seeds)) for seeds in member_seeds]


@pytest.mark.parametrize("name", sorted(CASES))
def test_members_equal_separate_runs(name):
    config = CASES[name]()
    assert shares_schedule(config) == (name in SHARED)
    members = run_members(with_seeds(config, MEMBER_SEEDS))
    reference = _separate_runs(config, MEMBER_SEEDS)
    assert [m.seeds for m in members] == MEMBER_SEEDS
    for member, traj in zip(members, reference):
        assert member.theta.shape == traj.theta.shape
        assert np.array_equal(member.theta, traj.theta)
        assert member.n_rounds == traj.n_rounds
        assert member.diverged == traj.diverged
        assert member.divergence_round == traj.divergence_round
        if traj.diverged:
            assert member.final_loss is None
        else:
            assert member.final_loss == engine._tail_stats(trajectory_metrics(traj).loss_fed)
    if name in ("threshold", "overflow", "overflow_fedfix"):
        rounds = [m.divergence_round for m in members]
        assert any(r is None for r in rounds)
        assert len({r for r in rounds if r is not None}) >= 2, rounds


def test_the_final_window_has_the_bits_of_the_whole_series_over_row_chunks(monkeypatch):
    # 1024 samples a shard: GLM losses are evaluated in chunks of 64 rows;
    # 451 kept rows give a 23-row window from row 428, evaluated from row 384
    shards = make_synthetic_shards(SyntheticShardConfig(4, dim=3, samples_per_client=1024, seed=2,
                                                        batch_size=16))
    fleet = Fleet(shards, TAUS, [0.25] * 4)
    assert fleet.table.row_chunk == 64
    config = _config(fleet, ASYNC, WeightScheme.ASYNC_TIME_BASED, k_steps=1, time_budget=None, rounds=450)
    member_seeds = MEMBER_SEEDS[:3]
    evaluated, losses = [], Fleet.losses

    def recorded(fleet, thetas, out=None):
        evaluated.append(np.array(thetas))
        return losses(fleet, thetas, out)

    monkeypatch.setattr(Fleet, "losses", recorded)
    members = run_members(with_seeds(config, member_seeds))
    monkeypatch.undo()
    reference = _separate_runs(config, member_seeds)
    # one evaluation per member, of its rows 384 to 450
    assert [thetas.shape[0] for thetas in evaluated] == [451 - 384] * 3
    for thetas, traj in zip(evaluated, reference):
        assert bits(thetas) == bits(traj.theta[384:])
    for member, traj in zip(members, reference):
        loss_fed = trajectory_metrics(traj).loss_fed
        assert loss_fed.shape == (451,)
        assert bits(member.final_loss) == bits(engine._tail_stats(loss_fed))


@pytest.mark.parametrize("cells, sums", [
    # a member's 51-row window holds 15,300 loss cells: 8 members a slice
    (engine._METRIC_CELLS, [(300, 8 * 51)] * 5),
    # 2000 cells: blocks of 27 rows, so one member a slice, in two blocks
    (2000, [(300, 27), (300, 24)] * 40),
])
def test_a_group_in_several_member_slices_equals_separate_runs(monkeypatch, cells, sums):
    # M=300 clients and 40 members of 1000 rounds
    fleet = quadratic_fleet([[float(i % 7) - 3.0] for i in range(300)], taus=[1 + i % 5 for i in range(300)],
                            noise_std=0.5)
    config = _config(fleet, ASYNC, WeightScheme.ASYNC_TIME_BASED, k_steps=2, time_budget=None, rounds=1000)
    member_seeds = [Seeds((0, j), (1, j), (2, j)) for j in range(40)]
    calls, running_sum = [], engine._running_sum

    def counted(terms):
        calls.append(terms.shape)
        return running_sum(terms)

    monkeypatch.setattr(engine, "_METRIC_CELLS", cells)
    monkeypatch.setattr(engine, "_running_sum", counted)
    members = run_members(with_seeds(config, member_seeds))
    monkeypatch.undo()
    assert calls == sums
    for member, config_j in zip(members, with_seeds(config, member_seeds)):
        _assert_equals_its_run(member, config_j)


def test_an_overflowing_member_ends_inside_local_work():
    config = _overflow_config()
    for seeds in MEMBER_SEEDS:
        traj = run(replace(config, seeds=seeds))
        if traj.diverged:
            # local work raised before the round was aggregated
            assert traj.divergence_cause == "overflow"
            assert traj.theta.shape[0] == traj.n_rounds
            assert traj.divergence_round == traj.n_rounds - 1
            return
    pytest.fail("no member overflowed")


def test_a_shared_schedule_advances_once_per_round(monkeypatch):
    played, merges = [], []
    original, merge = engine.replay_rounds, engine.merged_schedule

    def counted(*args, **kwargs):
        played.append(original(*args, **kwargs))
        return played[-1]

    def counted_merge(*args, **kwargs):
        merges.append(1)
        return merge(*args, **kwargs)

    monkeypatch.setattr(engine, "replay_rounds", counted)
    monkeypatch.setattr(engine, "merged_schedule", counted_merge)
    # a fixed-hardware asynchronous schedule is merged once for the group,
    # and no round is replayed on its own
    shared = CASES["async_k1_rounds"]()
    run_members(with_seeds(shared, MEMBER_SEEDS))
    assert len(merges) == 1 and played == []
    own = CASES["uniform_sampling"]()
    n_rounds = [m.n_rounds for m in run_members(with_seeds(own, MEMBER_SEEDS))]
    # every member replays its own rounds, once each
    assert sum(played) == sum(n_rounds)


def _assert_equals_its_run(member, config):
    traj = run(config)
    assert member.seeds == config.seeds
    assert member.theta.shape == traj.theta.shape
    assert np.array_equal(member.theta, traj.theta)
    assert (member.n_rounds, member.divergence_round) == (traj.n_rounds, traj.divergence_round)
    assert member.final_loss == (None if traj.diverged else engine._tail_stats(trajectory_metrics(traj).loss_fed))


def _recorded_groups(monkeypatch):
    """The member count of every group ``run_members`` runs, in order."""
    sizes = []
    run_group = engine._run_group

    def recording(members):
        sizes.append(len(members))
        return run_group(members)

    monkeypatch.setattr(engine, "_run_group", recording)
    return sizes


def _expected_groups(name, n_values, n_seeds):
    """One group per schedule: all members where it is shared, one group
    per seed where each seed draws its own, and a group of one per member
    where the schedule reads the members' models."""
    if name == "highest_loss":
        return [1] * (n_values * n_seeds)
    if name in SHARED:
        return [n_values * n_seeds]
    return [n_values] * n_seeds


@pytest.mark.parametrize("axis", ["k_steps", "eta_l"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_members_of_other_step_counts_and_rates_equal_separate_runs(monkeypatch, name, axis):
    config = CASES[name]()
    values = [1, 3, 6] if axis == "k_steps" else [config.eta_l * f for f in (1.0, 0.5, 1.25)]
    seeds = MEMBER_SEEDS
    members = [replace(config, seeds=s, **{axis: v}) for v in values for s in seeds]
    sizes = _recorded_groups(monkeypatch)
    got = run_members(members)
    assert sizes == _expected_groups(name, len(values), len(seeds))
    monkeypatch.undo()
    for member, member_config in zip(got, members):
        _assert_equals_its_run(member, member_config)
    if name in ("threshold", "overflow", "overflow_fedfix"):
        rounds = [m.divergence_round for m in got]
        assert any(r is None for r in rounds)
        assert len({r for r in rounds if r is not None}) >= 2, rounds


def test_a_group_past_the_cap_runs_in_parts_with_the_same_members(monkeypatch):
    config = CASES["async_dim3"]()
    members = [replace(config, seeds=s, k_steps=k) for k in (1, 3, 6) for s in MEMBER_SEEDS[:4]]
    whole = run_members(members)
    monkeypatch.setattr(engine, "MAX_ENSEMBLE_SEEDS", 5)
    sizes = _recorded_groups(monkeypatch)
    parts = run_members(members)
    assert sizes == [5, 5, 2]
    for a, b in zip(whole, parts):
        assert a.seeds == b.seeds and a.theta.tobytes() == b.theta.tobytes()
        assert (a.n_rounds, a.divergence_round, a.final_loss) == (b.n_rounds, b.divergence_round, b.final_loss)


def _sweep_document(policy):
    scheme = {"fedfix": {"policy": "fedfix", "delta_t": 0.7, "weights": "fedfix_time_based"},
              "fedbuff": {"policy": "fedbuff", "m": 2, "weights": "fedavg"},
              "uniform": {"policy": "sample_uniform", "m": 2, "weights": "identical"},
              "asynchronous": {"policy": "asynchronous", "weights": "async_time_based"}}[policy]
    return {
        "schema_version": 1,
        "fleet": {"compute_times": [1.09, 2, 3.5, 1],
                  "objective": {"family": "quadratic", "optima": [-2.0, 1.0, 3.0, 0.5], "noise_std": 0.7}},
        "scheme": scheme,
        "optimization": {"eta_g": 1.0, "eta_l": 0.05, "k_steps": 3, "theta0": 2.0},
        "horizon": {"time": 25.0},
        "ensemble": {"n_seeds": 3, "base_seed": 4},
    }


@pytest.mark.parametrize("policy, axis, values, n_groups", [
    ("fedfix", "delta_t", [0.5, 0.7, 1.3], 3),      # each value its own schedule
    ("fedbuff", "m", [1, 2, 3], 3),
    ("uniform", "m", [1, 3], 6),                    # and within it one per seed
    ("asynchronous", "k_steps", [1, 4, 2], 1),      # one schedule for every value
    ("uniform", "eta_l", [0.05, 0.1], 3),           # one per seed for every value
])
def test_a_sweep_equals_its_values_swept_one_at_a_time(monkeypatch, policy, axis, values, n_groups):
    document = _sweep_document(policy)
    sizes = _recorded_groups(monkeypatch)
    rows = cli.sweep_rows(document, axis, values)
    assert len(sizes) == n_groups
    sizes.clear()
    alone = [row for value in values for row in cli.sweep_rows(document, axis, [value])]
    assert rows == alone
    assert [row["value"] for row in rows] == values


SHIPPED_SWEEP = Path(__file__).resolve().parents[1] / "configs" / "k_sweep_noisy_quadratic.json"


def test_the_shipped_sweep_merges_its_schedule_once_and_steps_its_values_together(monkeypatch):
    document = json.loads(SHIPPED_SWEEP.read_text())
    values = document["sweep"]["values"]
    merges, local_work = [], []
    merge, local_sgd = engine.merged_schedule, engine.local_sgd

    def counted_merge(*args, **kwargs):
        merges.append(1)
        return merge(*args, **kwargs)

    def counted_local_sgd(*args, **kwargs):
        local_work.append(1)
        return local_sgd(*args, **kwargs)

    monkeypatch.setattr(engine, "merged_schedule", counted_merge)
    monkeypatch.setattr(engine, "local_sgd", counted_local_sgd)
    cli.sweep_rows(document, "k_steps", values)
    sweep_merges, sweep_calls = len(merges), len(local_work)
    merges.clear()
    local_work.clear()
    cli.sweep_rows(document, "k_steps", values[:1])
    # one schedule for the six values, and the local-work passes of one
    assert sweep_merges == len(merges) == 1
    assert sweep_calls == len(local_work) and 0 < sweep_calls < 100


def _ensemble_statistics(config, thetas, finals):
    """Mean, variance and standard error over the completed members (a
    ``final`` of None marks a diverged one, which is only counted) of the
    models and of their squared distances to the optimum, truncated to the
    shortest completed member."""
    kept = [(t, f) for t, f in zip(thetas, finals) if f is not None]
    n_models = min(t.shape[0] for t, _ in kept)
    stack = np.stack([t[:n_models] for t, _ in kept])
    gap = stack - weighted_optimum(config.fleet)
    dstack = np.sum(gap * gap, axis=2)
    n = len(kept)
    var_theta = stack.var(axis=0, ddof=1) if n > 1 else np.zeros_like(stack[0])
    var_dist = dstack.var(axis=0, ddof=1) if n > 1 else np.zeros_like(dstack[0])
    return {
        "n_completed": n, "diverged": len(thetas) - n, "final_loss": [f for _, f in kept],
        "mean_theta": stack.mean(axis=0), "var_theta": var_theta, "se_theta": np.sqrt(var_theta / n),
        "mean_dist_sq": dstack.mean(axis=0), "se_dist_sq": np.sqrt(var_dist / n),
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_ensemble_equals_the_per_member_loop(name):
    # unordered, non-contiguous member seeds
    config = CASES[name]()
    member_seeds = [Seeds((0, s), (1, s), (2, s)) for s in (3, 1, 4, 15, 9, 2, 6)]
    members = run_members(with_seeds(config, member_seeds))
    assert [m.seeds for m in members] == member_seeds
    got = _ensemble_statistics(config, [m.theta for m in members], [m.final_loss for m in members])
    reference = _separate_runs(config, member_seeds)
    finals = [None if t.diverged else engine._tail_stats(trajectory_metrics(t).loss_fed) for t in reference]
    want = _ensemble_statistics(config, [t.theta for t in reference], finals)
    if name in ("threshold", "overflow", "overflow_fedfix"):
        assert 0 < got["diverged"] < len(member_seeds)
    assert (got["n_completed"], got["diverged"]) == (want["n_completed"], want["diverged"])
    assert got["final_loss"] == want["final_loss"]
    for field in ("mean_theta", "var_theta", "se_theta", "mean_dist_sq", "se_dist_sq"):
        assert np.array_equal(got[field], want[field], equal_nan=True), field


@pytest.mark.parametrize("values", [(1, 25), (1, 20, 25)])
@pytest.mark.parametrize("family", ["noisy_quadratic", "glm_minibatch"])
def test_members_that_lag_their_stream_split_off_and_still_equal_their_runs(monkeypatch, family, values):
    # k_steps values on shared seeds: each seed's k_steps=25 member leads
    # the stream they read, and the k_steps=1 member falls 24 steps further
    # behind every pass. With a small _LOCAL_FLOATS it lags past what one
    # member's own table may hold and splits off into a stream of its own
    # (with 20 steps, the stream keeps a member behind its leader); the
    # table never holds more than that per member
    fleet = _noisy(OPTIMA_1D) if family == "noisy_quadratic" else _glm_fleet()
    config = _config(fleet, ASYNC, WeightScheme.ASYNC_TIME_BASED, time_budget=60.0)
    members = [replace(config, seeds=s, k_steps=k) for k in values for s in MEMBER_SEEDS[:3]]
    n_rows, n_members = len(fleet), len(members)
    monkeypatch.setattr(engine, "_LOCAL_FLOATS", n_rows * n_members * 250)
    splits, refills = [], []
    split, refill = engine._DrawTable._split, engine._DrawTable._refill

    def counted_split(self, g, behind):
        splits.append(len(behind))
        return split(self, g, behind)

    def checked_refill(self, g):
        refill(self, g)
        refills.append(g)
        # what one member's own table held at most: a refill leaves under
        # one run and one epoch (or one step) past the cap
        cap = max(engine._LOCAL_FLOATS // (n_rows * n_members), int(self.need.max()))
        assert (self.last - self.first).max() <= cap + self.unit - 1
        assert self.values.size <= n_rows * n_members * (cap + self.unit)

    monkeypatch.setattr(engine._DrawTable, "_split", counted_split)
    monkeypatch.setattr(engine._DrawTable, "_refill", checked_refill)
    got = run_members(members)
    monkeypatch.undo()
    assert len(splits) >= n_rows and len(refills) > len(splits)  # every row splits, and refills go on
    for member, member_config in zip(got, members):
        _assert_equals_its_run(member, member_config)


def _counted_draws(monkeypatch):
    """Counts of the generators ``np.random.default_rng`` seeds and of the
    normals they draw."""
    counts = {"generators": 0, "normals": 0}
    default_rng = np.random.default_rng

    class Counted:
        """A generator that counts the normals it draws into ``out``."""

        def __init__(self, rng):
            self._rng = rng

        def standard_normal(self, *, out):
            counts["normals"] += out.size
            return self._rng.standard_normal(out=out)

        def __getattr__(self, name):
            return getattr(self._rng, name)

    def counted(*args):
        counts["generators"] += 1
        return Counted(default_rng(*args))

    monkeypatch.setattr(np.random, "default_rng", counted)
    return counts


def test_the_shipped_sweep_seeds_one_generator_per_seed_and_client(monkeypatch):
    # member j of every value shares seed material, so the 60 members of
    # the six values read 10 seeds x 5 noisy clients = 50 streams, and the
    # streams draw what the k_steps=25 members, which lead them, read
    document = json.loads(SHIPPED_SWEEP.read_text())
    counts = _counted_draws(monkeypatch)
    cli.sweep_rows(document, "k_steps", document["sweep"]["values"])
    assert counts == {"generators": 50, "normals": 40_000}
    counts.update(generators=0, normals=0)
    cli.sweep_rows(document, "k_steps", [25])
    assert counts == {"generators": 50, "normals": 40_000}
