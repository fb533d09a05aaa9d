"""Set-up equals the per-client construction it replaced: the schema walk's
messages, the parsed config, the quadratic fleet table, the synthetic
shards and the weights d_i, bit for bit.

The references below are the earlier implementations, kept here as the
definition of the expected output: the stock jsonschema walk, the parse
with a hook per number, each client's quadratic built alone with its own
``np.dot``, the optima table built row by row, each client's shard drawn
and computed alone, and the weights d_i in ``Fraction`` arithmetic.
"""

import copy
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import asyncfed
from asyncfed import config
from asyncfed.config import _KEYWORDS, CONFIG_SCHEMA, build_experiment, build_fleet, load_config, validate_config
from asyncfed.core import ConfigurationError, UnsupportedConfigError
from asyncfed.engine import MAX_ENSEMBLE_SEEDS, MAX_K_STEPS
from asyncfed.objectives import QuadraticObjective, SyntheticShardConfig, make_synthetic_shards
from asyncfed.timing import HardwareModel, PolicyKind, WaitPolicy, fastest_first, steady_period
from asyncfed.weights import WeightScheme, plan_weights, window_stats

# ---------------------------------------------------------------------------
# validate_config against the stock walk
# ---------------------------------------------------------------------------

# the stock Draft 2020-12 validator with the config's one deviation: an
# "integer" is a Python int (2.0 is not one), never a bool
_STOCK = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda checker, instance: isinstance(instance, int) and not isinstance(instance, bool)
    ),
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
            "hardware": "fixed",
            "objective": {"family": "quadratic", "optima": optima},
        },
        "scheme": {"policy": "synchronous", "weights": "custom", "custom_d": [0, 1.5, 2]},
        "optimization": {"theta0": theta0, "k_steps": 2, "full_gradient": False},
        "horizon": {"rounds": 5},
        "ensemble": {"n_seeds": 3},
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

OBJECT_PATHS = (
    (),
    ("fleet",),
    ("fleet", "objective"),
    ("scheme",),
    ("optimization",),
    ("horizon",),
    ("ensemble",),
    ("sweep",),
)

# known keys of several objects, and unknown ones
KEYS = st.sampled_from(
    ["schema_version", "fleet", "hardware", "family", "policy", "k_steps", "theta0", "rounds", "time",
     "n_seeds", "axis", "values", "x", "zz"]
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
    st.dictionaries(st.sampled_from(["rounds", "time", "x"]), st.integers(-1, 2), max_size=3),
)


def _locate(document, path):
    *outer, key = path
    for step in outer:
        document = document[step]
    return document, key


def _mutate_object(data, obj: dict) -> dict:
    obj = dict(obj)
    for _ in range(data.draw(st.integers(1, 3))):
        if obj and data.draw(st.booleans()):
            del obj[data.draw(st.sampled_from(sorted(obj)))]
        else:
            obj[data.draw(KEYS)] = data.draw(MUTANTS)
    return obj


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


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_object_mutations_get_the_stock_messages(data):
    document = copy.deepcopy(data.draw(st.sampled_from(BASES)))
    # deepest first, so a replaced parent does not hide a later path
    for path in sorted(data.draw(st.lists(st.sampled_from(OBJECT_PATHS), min_size=1, max_size=3, unique=True)),
                       key=len, reverse=True):
        if not path:
            document = _mutate_object(data, document) if data.draw(st.integers(0, 4)) else data.draw(MUTANTS)
            continue
        parent, key = _locate(document, path)
        if isinstance(parent[key], dict) and data.draw(st.integers(0, 4)):
            parent[key] = _mutate_object(data, parent[key])
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


_DELETE = object()


@pytest.mark.parametrize(
    "edits, n_messages",
    [
        ({("schema_version",): 2}, 1),
        ({("schema_version",): 1.0}, 0),  # 1.0 equals 1 in JSON
        ({("schema_version",): True}, 1),
        ({("fleet", "hardware"): "gpu"}, 1),
        ({("fleet",): _DELETE}, 1),
        ({("bogus",): 1}, 1),
        ({("bogus",): 1, ("zz",): [2]}, 1),
        ({("horizon",): {}}, 1),
        ({("horizon",): {"rounds": 5, "time": 2.0}}, 1),
        ({("optimization", "k_steps"): MAX_K_STEPS + 1}, 1),
        ({("ensemble", "n_seeds"): MAX_ENSEMBLE_SEEDS + 1}, 1),
        ({(): []}, 1),
        ({(): "x"}, 1),
        ({("fleet",): []}, 1),
        ({("optimization", "theta0"): "x"}, 1),
        ({("optimization", "theta0"): []}, 1),
        ({("optimization", "theta0"): [True]}, 1),
    ],
    ids=["const_2", "const_1.0", "const_true", "enum", "required", "one_unknown_key", "two_unknown_keys",
         "min_properties", "max_properties", "k_steps_maximum", "n_seeds_maximum", "root_array",
         "root_string", "fleet_array", "theta0_string", "theta0_empty", "theta0_bool_item"],
)
def test_object_keywords_get_the_stock_messages(edits, n_messages):
    document = copy.deepcopy(BASES[0])
    for path, value in edits.items():
        if not path:
            document = value
            continue
        parent, key = _locate(document, path)
        if value is _DELETE:
            del parent[key]
        else:
            parent[key] = value
    messages = validate_config(document)
    assert messages == stock_messages(document)
    assert len(messages) == n_messages


def _schema_keywords(schema) -> set:
    found = set(schema)
    for keyword, value in schema.items():
        if keyword == "properties":
            subschemas = value.values()
        elif keyword in ("anyOf", "allOf", "oneOf", "prefixItems"):
            subschemas = value
        elif isinstance(value, dict):  # items, additionalProperties, not, ...
            subschemas = [value]
        else:
            subschemas = []
        for sub in subschemas:
            found |= _schema_keywords(sub)
    return found


def test_the_walker_handles_exactly_the_keywords_of_the_schema():
    assert _schema_keywords(CONFIG_SCHEMA) == set(_KEYWORDS)


def test_importing_the_cli_does_not_import_jsonschema():
    src = str(Path(asyncfed.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, asyncfed.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'jsonschema'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120,
                         check=True)
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# the config parse against the parse with a hook per number
# ---------------------------------------------------------------------------

REPO = Path(__file__).resolve().parents[1]
SHIPPED_JSON = sorted((REPO / "configs").glob("*.json")) + sorted((REPO / "tests" / "golden").glob("*.json"))


def hooked_parse(text):
    """The parse every config took before: a hook on every number, the
    first overflow or syntax error in text order raised."""
    try:
        return json.loads(text, parse_constant=config._reject_constant, parse_float=config._finite_float,
                          parse_int=config._finite_int)
    except json.JSONDecodeError as err:
        raise ConfigurationError(f"config is not valid JSON: {err}") from err


def typed(value):
    """``value`` with every scalar as (type, value), floats by their bits."""
    if isinstance(value, dict):
        return {key: typed(item) for key, item in value.items()}
    if isinstance(value, list):
        return [typed(item) for item in value]
    return type(value), value.hex() if type(value) is float else value


def test_shipped_json_is_found():
    assert len(SHIPPED_JSON) >= 7


@pytest.mark.parametrize("path", SHIPPED_JSON, ids=lambda path: path.name)
def test_shipped_configs_parse_as_the_hooked_parse(path):
    assert typed(load_config(path)) == typed(hooked_parse(path.read_text(encoding="utf-8")))


def counting_hooks(monkeypatch):
    calls = {"_finite_float": 0, "_finite_int": 0}
    for name in calls:
        hook = getattr(config, name)

        def counted(text, name=name, hook=hook):
            calls[name] += 1
            return hook(text)

        monkeypatch.setattr(config, name, counted)
    return calls


@pytest.mark.parametrize("path", SHIPPED_JSON, ids=lambda path: path.name)
def test_shipped_configs_call_no_number_hook(monkeypatch, path):
    calls = counting_hooks(monkeypatch)
    load_config(path)
    assert calls == {"_finite_float": 0, "_finite_int": 0}


def base_document():
    return _document([1.0, [2.0], 3], 0.5)


@pytest.mark.parametrize(
    "literal, message",
    [
        ("1e400", "config number 1e400 overflows a double"),
        ("-1e400", "config number -1e400 overflows a double"),
        ("1" + "0" * 400, "config integer of 401 digits overflows a double"),
        ("9" * 5000, "config integer of 5000 digits overflows a double"),
    ],
    ids=["float", "negative_float", "401_digits", "5000_digits"],
)
def test_out_of_range_numbers_take_the_hooked_parse(monkeypatch, tmp_path, literal, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base_document()).replace('"k_steps": 2', f'"k_steps": {literal}'))
    calls = counting_hooks(monkeypatch)
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        load_config(path)
    assert calls["_finite_float"] + calls["_finite_int"] > 0


@pytest.mark.parametrize(
    "text",
    [
        '{"a": [1, 2.5, 1e400], "b": }',  # the overflow comes first
        '{"a": [1, 2.5, 1%s], "b": }' % ("0" * 400),
        '{"a": [1, 2.5], "b": , "c": 1e400}',  # the syntax error comes first
        '{"a": [1, 2.5], "b": , "c": 1%s}' % ("0" * 400),
        '{"a": NaN, "b": 1e400}',
        '{"a": 1e400, "b": NaN}',
        '{"a": [1, 2.5]',
        '{"a": [1, {"b": -Infinity}, 1e999]}',
    ],
)
def test_the_first_error_in_text_order_is_reported(tmp_path, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    with pytest.raises(ConfigurationError) as want:
        hooked_parse(text)
    with pytest.raises(ConfigurationError) as got:
        load_config(path)
    assert str(got.value) == str(want.value)
    assert str(want.value).startswith(("config number", "config integer", "config holds", "config is not valid JSON"))


def test_finite_numbers_whose_sum_overflows_load_as_they_are(tmp_path):
    document = base_document()
    document["fleet"]["compute_times"] = [1.7e308, 1.7e308, 3]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(document))
    assert typed(load_config(path)) == typed(document)


def test_an_underflowing_number_loads_as_zero(tmp_path):
    document = base_document()
    document["optimization"]["theta0"] = 5.0
    path = tmp_path / "config.json"
    path.write_text(json.dumps(document).replace("5.0", "1e-400"))
    theta0 = load_config(path)["optimization"]["theta0"]
    assert type(theta0) is float and theta0.hex() == "0x0.0p+0"


@settings(max_examples=200, deadline=None)
@given(st.recursive(
    st.none() | st.booleans() | st.text(max_size=3) | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([1e308, -1e308, 1.7e308, -1.7e308])  # 1e308 is written 1e400 below
    | st.sampled_from([10**308, -(10**308), 2**1024, -(2**1024), 10**400, 2**1024 - 2**970, 2**1024 - 2**970 - 1]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=2), inner, max_size=4),
    max_leaves=12,
))
def test_any_document_parses_as_the_hooked_parse(document):
    """Numbers in and out of the double range, in lists of numbers and
    mixed lists and objects, and finite numbers whose sum overflows: the
    parse returns or raises as the hooked one."""
    text = json.dumps(document).replace("1e+308", "1e+400")  # a float literal past the double range
    try:
        want = typed(hooked_parse(text))
    except ConfigurationError as err:
        with pytest.raises(ConfigurationError, match=f"^{re.escape(str(err))}$"):
            config._parse(text)
    else:
        assert typed(config._parse(text)) == want


# ---------------------------------------------------------------------------
# the quadratic fleet table
# ---------------------------------------------------------------------------

def seeded_optima(m, dim, seed):
    rng = np.random.default_rng([seed, m, dim])
    values = np.round(rng.normal(0.0, 4.0, (m, dim)), 6)
    values[::3] = np.round(values[::3])  # some integral values, as JSON ints below
    rows = [[int(x) if x.is_integer() else x for x in row] for row in values.tolist()]
    return [row[0] for row in rows] if dim == 1 else rows


def reference_coefficients(optimum, curvature):
    """One client's quadratic coefficients a, b and c as it computed them
    alone, c with its own np.dot."""
    opt = np.atleast_1d(np.asarray(optimum, dtype=float))
    a = np.full_like(opt, float(curvature))
    return a, -2.0 * a * opt, float(np.dot(a, opt * opt))


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
    reference = [reference_coefficients(opt, 0.5 if curvature is None else curvature) for opt in optima]
    a, b, c = (np.array(column) for column in zip(*reference))
    table = fleet.table
    for got, want in ((table.a, a), (table.b, b), (table.c, c), (table.two_a, 2.0 * a),
                      (table.noise_std, np.full(m, 0.0 if noise_std is None else noise_std))):
        _same_bits(got, want)


# counts the objectives that set-up and a run construct; run in a child
# process, since CPython leaves a class whose __new__ was patched and then
# deleted unable to construct with arguments
_COUNT_OBJECTIVES = """
import json, sys
from asyncfed.config import build_experiment
from asyncfed.engine import run
from asyncfed.objectives import GlmObjective, QuadraticObjective

made = []

def counting_new(cls, *args, **kwargs):
    made.append(cls.__name__)
    return object.__new__(cls)

for cls in (QuadraticObjective, GlmObjective):
    cls.__new__ = staticmethod(counting_new)
QuadraticObjective([[0.5]], [[0.0]])  # the counter sees a construction
seen = made[:]
with open(sys.argv[1]) as fh:
    cfg = build_experiment(json.load(fh))
table = cfg.fleet.table
traj = run(cfg)
print(json.dumps([seen, traj.n_rounds, made[len(seen):], len(table)]))
"""


def test_set_up_and_run_hold_one_table(tmp_path):
    """The fleet's one table is the only form of its objectives: building
    and running a noisy quadratic fleet constructs one objective, the
    table of all 500 clients."""
    document = quadratic_document(seeded_optima(500, 1, seed=3), noise_std=0.3)
    document["scheme"] = {"policy": "asynchronous", "weights": "async_time_based"}
    document["fleet"]["compute_times"] = [1 + i % 7 for i in range(500)]
    document["horizon"] = {"rounds": 50}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(document))
    src = str(Path(asyncfed.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _COUNT_OBJECTIVES, str(path)], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert json.loads(out.stdout) == [["QuadraticObjective"], 50, ["QuadraticObjective"], 500]


def test_ragged_optima_report_the_dimensions():
    with pytest.raises(ConfigurationError, match=r"clients disagree on parameter dimension: \{1, 2\}"):
        build_fleet(quadratic_document([1.0, [2.0, 3.0], [4.0]]))
    # a scalar and a one-vector agree
    fleet, _ = build_fleet(quadratic_document([1.0, [2.0]]))
    assert fleet.dim == 1


def row_by_row_from_optima(optima, curvature=0.5):
    """The optima table as every config built it before: each optimum a
    row, and the coefficients computed once as (clients, dim) arrays."""
    rows = [opt if isinstance(opt, (list, tuple)) else (opt,) for opt in optima]
    dims = set(map(len, rows))
    if len(dims) != 1:
        raise ConfigurationError(f"clients disagree on parameter dimension: {dims}")
    (dim,) = dims
    opt = np.array(rows, dtype=float).reshape(len(rows), dim)
    a = np.full_like(opt, float(curvature))
    b = -2.0 * a * opt
    square = opt * opt
    c = a[:, 0] * square[:, 0] if dim == 1 else (a[:, None, :] @ square[:, :, None])[:, 0, 0]
    return a, b, c, 2.0 * a


@pytest.mark.parametrize(
    "optima",
    [
        [0.25, -1.5, 3.0, 1e150, -0.0, 5e-324],
        [1, -2, 0, 3, 2**53 + 1, 10**150],
        [1, 2.5, -3, 0.1],
        [[1.0, -2.0], [0.5, 3.0], [-0.0, 7]],
        [1.0, [2.0], 3, [-0.5]],
        [[1.0], [2.0]],
        [(1.0, 2.0), (3.0, 4.0)],
        [[]],
        np.array([0.5, -1.25]),
    ],
    ids=["floats", "integers", "mixed_numbers", "dim_2", "numbers_and_one_lists", "one_lists", "tuples", "empty_row",
         "array"],
)
@pytest.mark.parametrize("curvature", [0.5, 0.37, 3])
def test_from_optima_has_the_bits_of_the_row_by_row_table(optima, curvature):
    table = QuadraticObjective.from_optima(optima, curvature)
    for got, want in zip((table.a, table.b, table.c, table.two_a), row_by_row_from_optima(optima, curvature)):
        _same_bits(got, want)


@given(st.lists(st.floats(allow_nan=False) | st.integers(-(10**300), 10**300), min_size=1, max_size=40),
       st.floats(0.0, 10.0))
@settings(max_examples=100, deadline=None)
def test_from_optima_on_any_numbers_has_the_bits_of_the_row_by_row_table(optima, curvature):
    with np.errstate(over="ignore", invalid="ignore"):
        got = QuadraticObjective.from_optima(optima, curvature)
        want = row_by_row_from_optima(optima, curvature)
    for got_array, want_array in zip((got.a, got.b, got.c, got.two_a), want):
        _same_bits(got_array, want_array)


@pytest.mark.parametrize("optima", [[], [[1.0], [2.0, 3.0]], [1.0, [2.0, 3.0]]], ids=repr)
def test_from_optima_reports_the_dimensions_as_before(optima):
    with pytest.raises(ConfigurationError) as want:
        row_by_row_from_optima(optima)
    with pytest.raises(ConfigurationError, match=f"^{re.escape(str(want.value))}$"):
        QuadraticObjective.from_optima(optima)


# ---------------------------------------------------------------------------
# the synthetic shards
# ---------------------------------------------------------------------------

def client_by_client_shards(cfg):
    """The shards as each client's were drawn and computed alone."""
    rng = np.random.default_rng(cfg.seed)
    n = cfg.samples_per_client
    features = np.empty((cfg.n_clients, n, cfg.dim))
    targets = np.empty((cfg.n_clients, n))
    for i in range(cfg.n_clients):
        share = rng.beta(cfg.concentration, cfg.concentration)
        share = 0.1 + 0.8 * share
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
    return features, targets


@settings(max_examples=60, deadline=None)
@given(
    link=st.sampled_from(["logistic", "linear"]),
    n_clients=st.integers(1, 12),
    dim=st.integers(1, 40),
    samples=st.integers(1, 70),
    concentration=st.sampled_from([0.01, 0.1, 0.5, 1.0, 7.0, 1e4]),
    seed=st.integers(0, 2**32 - 1),
)
def test_shards_have_the_bits_of_the_client_by_client_draws(link, n_clients, dim, samples, concentration, seed):
    cfg = SyntheticShardConfig(n_clients, dim=dim, samples_per_client=samples, concentration=concentration,
                               seed=seed, link=link)
    shards = make_synthetic_shards(cfg)
    features, targets = client_by_client_shards(cfg)
    _same_bits(shards.features, features)
    _same_bits(shards.targets, targets)


@pytest.mark.parametrize("link", ["logistic", "linear"])
def test_shards_of_the_shipped_geometry_have_the_reference_bits(link):
    cfg = SyntheticShardConfig(10, dim=5, samples_per_client=64, concentration=0.1, seed=1, link=link)
    shards = make_synthetic_shards(cfg)
    features, targets = client_by_client_shards(cfg)
    _same_bits(shards.features, features)
    _same_bits(shards.targets, targets)


# ---------------------------------------------------------------------------
# the weights d_i
# ---------------------------------------------------------------------------

def reference_plan(scheme, importances, compute_times, policy, custom_d=None):
    """The weights d_i, window and window-averaged weights in Fraction
    arithmetic, rounded to float once."""
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
        _, steady = steady_period(policy, taus)
        window = len(steady)
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
        got_d = plan_weights(scheme, importances, taus, policy, hw, custom_d=custom_d)
        d, window, q = reference_plan(scheme, importances, taus, policy, custom_d=custom_d)
        _same_bits(got_d, d)
        got_window, got_q = window_stats(scheme, importances, taus, policy, custom_d=custom_d)
        assert got_window == window, policy
        _same_bits(got_q, q)


def test_time_based_weights_still_need_fixed_hardware():
    with pytest.raises(UnsupportedConfigError):
        plan_weights(WeightScheme.ASYNC_TIME_BASED, [0.5, 0.5], [1, 2], WaitPolicy(PolicyKind.ASYNCHRONOUS),
                     HardwareModel("exponential"))


def test_plan_weights_returns_the_weights_only():
    """``plan_weights`` returns d_i alone, one double per client, for every
    scheme; the window statistics are :func:`window_stats`'s, and building a
    run analyses no schedule (the test below)."""
    m = 7
    importances, taus, custom_d = seeded_plan_inputs(m, decimal=False)
    for scheme in WeightScheme:
        d = plan_weights(scheme, importances, taus, WaitPolicy(PolicyKind.FEDFIX, delta_t=1.5), custom_d=custom_d)
        assert type(d) is np.ndarray and d.dtype == np.float64 and d.shape == (m,), scheme


_ANALYSES = ("participations_per_cycle", "steady_period")


@pytest.mark.parametrize("decimal", [False, True], ids=["integer_times", "decimal_times"])
def test_set_up_never_analyses_the_schedule(monkeypatch, decimal):
    """Building an experiment fills the weights d_i only: the schedule
    analyses behind the window statistics raise wherever they are bound."""
    def forbidden(*args, **kwargs):
        raise AssertionError("the schedule was analysed during set-up")

    # a renamed analysis would leave nothing to patch
    assert all(hasattr(asyncfed.timing, name) for name in _ANALYSES)
    for module in [m for name, m in sys.modules.items() if name.startswith("asyncfed")]:
        for name in _ANALYSES:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    m = 7
    importances, taus, custom_d = seeded_plan_inputs(m, decimal)
    document = quadratic_document(seeded_optima(m, 1, seed=5))
    document["fleet"].update(compute_times=taus, importances=importances)
    built = 0
    # FedBuff on decimal times too: its replay would not cycle within the cap
    for policy in policies(m, decimal=False):
        scheme_cfg = {"policy": policy.kind.value}
        if policy.kind is PolicyKind.FEDFIX:
            scheme_cfg["delta_t"] = float(policy.delta_t)
        scheme_cfg.update({k: v for k, v in (("m", policy.m), ("criterion", policy.criterion)) if v is not None})
        for scheme in WeightScheme:
            if scheme is WeightScheme.FEDFIX_TIME_BASED and policy.kind is not PolicyKind.FEDFIX:
                continue
            extra = {"custom_d": custom_d} if scheme is WeightScheme.CUSTOM else {}
            document["scheme"] = dict(scheme_cfg, weights=scheme.value, **extra)
            assert len(build_experiment(document).d) == m
            built += 1
    assert built == 8 * 4 + 1
