"""Set-up equals the per-client construction it replaced: the schema walk's
messages, the quadratic fleet table and the weight plan, bit for bit.

The references below are the earlier implementations, kept here as the
definition of the expected output: the stock jsonschema walk, each
client's quadratic built alone with its own ``np.dot``, and the weight plan
in ``Fraction`` arithmetic.
"""

import copy
import math
from fractions import Fraction

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asyncfed.config import CONFIG_SCHEMA, _StrictValidator, build_fleet, validate_config
from asyncfed.core import ConfigurationError, UnsupportedConfigError
from asyncfed.objectives import QuadraticObjective, stack_objectives
from asyncfed.timing import HardwareModel, PolicyKind, WaitPolicy, fastest_first, replay_steady_period
from asyncfed.weights import WeightScheme, plan_weights

# ---------------------------------------------------------------------------
# validate_config against the stock walk
# ---------------------------------------------------------------------------

_STOCK = jsonschema.validators.extend(
    jsonschema.Draft202012Validator, type_checker=_StrictValidator.TYPE_CHECKER
)(CONFIG_SCHEMA)


def stock_messages(document):
    errors = sorted(_STOCK.iter_errors(document), key=lambda e: list(e.absolute_path))
    return [f"{'/'.join(str(p) for p in e.absolute_path) or '<root>'}: {e.message}" for e in errors]


def _document(optima, theta0):
    return {
        "schema_version": 1,
        "fleet": {
            "compute_times": [1, 2.5, 3],
            "importances": [0.2, 0.3, 0.5],
            "initial_clocks": [1, 0.5, 2],
            "distribution_ids": [0, 1, 1],
            "objective": {"family": "quadratic", "optima": optima},
        },
        "scheme": {"policy": "synchronous", "weights": "custom", "custom_d": [0, 1.5, 2]},
        "optimization": {"theta0": theta0},
        "horizon": {"rounds": 5},
        "oracle_check": {"checkpoints": [0, 1, 5]},
        "sweep": {"axis": "eta_l", "values": [0.5, 1, 2.25]},
    }


BASES = (_document([0.0, 2, -1.5], 1.0), _document([[0.0, 1], [2.0, -1.0], [1, 3.5]], [1.0, -2]))

ARRAY_PATHS = (
    ("fleet", "compute_times"),
    ("fleet", "importances"),
    ("fleet", "initial_clocks"),
    ("fleet", "distribution_ids"),
    ("fleet", "objective", "optima"),
    ("scheme", "custom_d"),
    ("oracle_check", "checkpoints"),
    ("sweep", "values"),
    ("optimization", "theta0"),
)

MUTANTS = st.one_of(
    st.booleans(),
    st.text(max_size=2),
    st.none(),
    st.sampled_from([0, 0.0, -0.0, -1, -2.5, 2.0, 1e3, 3, 1e300, -1e-300, 10**30, -(10**30), math.nan]),
    st.integers(-5, 5),
    st.floats(width=64, allow_infinity=False),
    st.lists(st.one_of(st.integers(-2, 2), st.floats(-3, 3), st.booleans(), st.none()), max_size=3),
    st.lists(st.lists(st.integers(0, 2), max_size=2), max_size=2),
)


def _locate(document, path):
    *outer, key = path
    for step in outer:
        document = document[step]
    return document, key


def _mutate(data, items: list) -> list:
    items = list(items)
    for _ in range(data.draw(st.integers(1, 3))):
        if items and data.draw(st.booleans()):
            i = data.draw(st.integers(0, len(items) - 1))
            if isinstance(items[i], list) and data.draw(st.booleans()):
                items[i] = _mutate(data, items[i])  # inside a vector item
            else:
                items[i] = data.draw(MUTANTS)
        elif data.draw(st.booleans()):
            items.append(data.draw(MUTANTS))
        else:
            del items[data.draw(st.integers(0, len(items))):]
    return items


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_validation_messages_match_the_stock_walk(data):
    document = copy.deepcopy(data.draw(st.sampled_from(BASES)))
    for path in data.draw(st.lists(st.sampled_from(ARRAY_PATHS), min_size=1, max_size=3, unique=True)):
        parent, key = _locate(document, path)
        if isinstance(parent[key], list) and data.draw(st.integers(0, 9)):
            parent[key] = _mutate(data, parent[key])
        else:
            parent[key] = data.draw(MUTANTS)
    assert validate_config(document) == stock_messages(document)


@pytest.mark.parametrize("base", BASES, ids=["scalar_optima", "vector_optima"])
def test_valid_documents_pass_both_walks(base):
    assert validate_config(base) == stock_messages(base) == []


@pytest.mark.parametrize(
    "path, items",
    [
        (("fleet", "objective", "optima"), [[], 1.0, 2]),
        (("fleet", "objective", "optima"), [[1.0, True], [2.0, 1]]),
        (("fleet", "objective", "optima"), [[[1.0]], 2.0]),
        (("fleet", "objective", "optima"), [True, 1.0]),
        (("fleet", "compute_times"), [math.nan, -1.0, 2]),
        (("fleet", "compute_times"), [2, math.nan, 0]),
        (("fleet", "distribution_ids"), [0, 1.0, 2]),
        (("oracle_check", "checkpoints"), [0, -1, 10**30]),
        (("scheme", "custom_d"), [-0.0, 0, 1e-300]),
        (("scheme", "custom_d"), [0, -1e-300, 2]),
        (("sweep", "values"), []),
        (("optimization", "theta0"), []),
    ],
)
def test_edge_arrays_get_the_stock_messages(path, items):
    document = copy.deepcopy(BASES[0])
    parent, key = _locate(document, path)
    parent[key] = items
    assert validate_config(document) == stock_messages(document)


# ---------------------------------------------------------------------------
# the quadratic fleet table
# ---------------------------------------------------------------------------

def seeded_optima(m, dim, seed):
    rng = np.random.default_rng([seed, m, dim])
    values = np.round(rng.normal(0.0, 4.0, (m, dim)), 6)
    values[::3] = np.round(values[::3])  # some integral values, as JSON ints below
    rows = [[int(x) if x.is_integer() else x for x in row] for row in values.tolist()]
    return [row[0] for row in rows] if dim == 1 else rows


def reference_objective(optimum, curvature, noise_std):
    """One client's quadratic as it was built alone, with its own np.dot."""
    opt = np.atleast_1d(np.asarray(optimum, dtype=float))
    a = np.full_like(opt, float(curvature))
    return QuadraticObjective(a, -2.0 * a * opt, float(np.dot(a, opt * opt)), noise_std)


def quadratic_document(optima, curvature=None, noise_std=None):
    objective = {"family": "quadratic", "optima": optima}
    if curvature is not None:
        objective["curvature"] = curvature
    if noise_std is not None:
        objective["noise_std"] = noise_std
    return {
        "schema_version": 1,
        "fleet": {"compute_times": [1] * len(optima), "objective": objective},
        "scheme": {"policy": "synchronous", "weights": "fedavg"},
        "optimization": {},
        "horizon": {"rounds": 1},
    }


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("m", [1, 7, 500])
@pytest.mark.parametrize("dim", [1, 2, 5])
@pytest.mark.parametrize("curvature, noise_std", [(None, None), (0.37, 0.3)])
def test_quadratic_fleet_table_matches_per_client_construction(m, dim, curvature, noise_std):
    optima = seeded_optima(m, dim, seed=5)
    assert validate_config(quadratic_document(optima, curvature, noise_std)) == []
    fleet, _ = build_fleet(quadratic_document(optima, curvature, noise_std))
    reference = [
        reference_objective(opt, 0.5 if curvature is None else curvature, 0.0 if noise_std is None else noise_std)
        for opt in optima
    ]
    (_, table), = fleet.tables
    (_, want), = stack_objectives(reference)
    for name in ("a", "b", "c", "two_a", "noise_std"):
        _same_bits(getattr(table, name), getattr(want, name))
    for got, ref in zip(fleet.objectives, reference):
        _same_bits(got.a, ref.a)
        _same_bits(got.b, ref.b)
        assert type(got.c) is float and got.c.hex() == ref.c.hex()
        assert got.noise_std == ref.noise_std


def test_ragged_optima_report_the_dimensions():
    with pytest.raises(ConfigurationError, match=r"clients disagree on parameter dimension: \{1, 2\}"):
        build_fleet(quadratic_document([1.0, [2.0, 3.0], [4.0]]))
    # a scalar and a one-vector agree
    fleet, _ = build_fleet(quadratic_document([1.0, [2.0]]))
    assert fleet.dim == 1


# ---------------------------------------------------------------------------
# the weight plan
# ---------------------------------------------------------------------------

def reference_plan(scheme, importances, compute_times, policy, custom_d=None):
    """The weight plan in Fraction arithmetic, rounded to float once."""
    p = [Fraction(float(x)) for x in importances]
    taus = [Fraction(t) for t in compute_times]
    n = len(p)

    def ceil_ratio(tau):
        return math.ceil(Fraction(tau) / Fraction(policy.delta_t))

    if scheme is WeightScheme.IDENTICAL:
        d = [Fraction(1)] * n
    elif scheme is WeightScheme.FEDAVG:
        d = list(p)
    elif scheme is WeightScheme.ASYNC_TIME_BASED:
        rate_sum = sum(1 / t for t in taus)
        d = [rate_sum * t * pi for t, pi in zip(taus, p)]
    elif scheme is WeightScheme.FEDFIX_TIME_BASED:
        d = [ceil_ratio(t) * pi for t, pi in zip(taus, p)]
    else:
        d = [Fraction(float(x)) for x in custom_d]

    kind = policy.kind
    counts = None
    if kind is PolicyKind.SYNCHRONOUS:
        window, counts = 1, [1] * n
    elif policy.is_sampling:
        window = 1
    elif kind is PolicyKind.ASYNCHRONOUS:
        num = math.lcm(*(t.numerator for t in taus))
        den = math.gcd(*(t.denominator for t in taus))
        counts = [(num // t.numerator) * (t.denominator // den) for t in taus]
        window = sum(counts)
    elif kind is PolicyKind.FEDFIX:
        periods = [ceil_ratio(t) for t in taus]
        window = math.lcm(*periods)
        counts = [window // q for q in periods]
    else:
        window, steady = replay_steady_period(policy, taus)
        counts = np.bincount(np.concatenate([r.clients for r in steady]), minlength=n).tolist()

    if counts is not None:
        q = [c * di / window for c, di in zip(counts, d)]
    elif kind is PolicyKind.SAMPLE_UNIFORM:
        q = [Fraction(min(policy.m, n), n) * di for di in d]
    elif kind is PolicyKind.SAMPLE_MD:
        q = [policy.m * pi * di for pi, di in zip(p, d)]
    elif policy.criterion != "fastest":
        q = [math.nan] * n
    else:
        chosen = set(fastest_first(taus)[:policy.m])
        q = [di if i in chosen else Fraction(0) for i, di in enumerate(d)]
    return np.array([float(x) for x in d]), window, np.array([float(x) for x in q])


def seeded_plan_inputs(m, decimal, seed=3):
    rng = np.random.default_rng([seed, m, decimal])
    if decimal:
        taus = [round(float(x), 2) for x in rng.uniform(0.5, 4.0, m)]
    else:
        taus = [int(x) for x in rng.integers(1, 17, m)]
    importances = rng.dirichlet(np.ones(m)).tolist()
    custom_d = np.round(rng.uniform(0.0, 3.0, m), 3).tolist()
    return importances, taus, custom_d


def policies(m, decimal):
    sample = min(3, m)
    yield WaitPolicy(PolicyKind.SYNCHRONOUS)
    yield WaitPolicy(PolicyKind.ASYNCHRONOUS)
    yield WaitPolicy(PolicyKind.FEDFIX, delta_t=1.5)
    if not decimal and m <= 7:  # replayed: decimal times do not cycle within the cap
        yield WaitPolicy(PolicyKind.FEDBUFF, m=min(2, m))
    yield WaitPolicy(PolicyKind.SAMPLE_UNIFORM, m=sample)
    yield WaitPolicy(PolicyKind.SAMPLE_MD, m=sample)
    yield WaitPolicy(PolicyKind.SAMPLE_BIASED, m=sample, criterion="fastest")
    yield WaitPolicy(PolicyKind.SAMPLE_BIASED, m=sample, criterion="highest_loss")


@pytest.mark.parametrize("m", [1, 7, 500])
@pytest.mark.parametrize("decimal", [False, True], ids=["integer_times", "decimal_times"])
@pytest.mark.parametrize("scheme", list(WeightScheme), ids=lambda s: s.value)
def test_weight_plan_matches_fraction_arithmetic(m, decimal, scheme):
    importances, taus, custom_d = seeded_plan_inputs(m, decimal)
    hw = HardwareModel("fixed")
    for policy in policies(m, decimal):
        if scheme is WeightScheme.FEDFIX_TIME_BASED and policy.kind is not PolicyKind.FEDFIX:
            with pytest.raises(ConfigurationError, match="need a fedfix policy"):
                plan_weights(scheme, importances, taus, policy, hw, custom_d=custom_d)
            continue
        plan = plan_weights(scheme, importances, taus, policy, hw, custom_d=custom_d)
        d, window, q = reference_plan(scheme, importances, taus, policy, custom_d=custom_d)
        assert plan.window == window, policy
        _same_bits(plan.d, d)
        _same_bits(plan.q_over_window, q)


def test_time_based_weights_still_need_fixed_hardware():
    with pytest.raises(UnsupportedConfigError):
        plan_weights(WeightScheme.ASYNC_TIME_BASED, [0.5, 0.5], [1, 2], WaitPolicy(PolicyKind.ASYNCHRONOUS),
                     HardwareModel("exponential"))
