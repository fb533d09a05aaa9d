"""Experiment configuration: JSON schema, validation, and builders that turn
a config document into fleet, policy, aggregation weights, and run settings.

The format is versioned (``schema_version``) and strict: unknown keys are
rejected at every level so typos fail loudly before any compute happens.
``CONFIG_SCHEMA`` is a Draft 2020-12 JSON Schema and the only statement of
the format; ``validate_config`` walks it with the keywords it uses and no
jsonschema import, giving the stock walk's messages in its order.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .core import ConfigurationError, Fleet, uniform_importances
from .engine import MAX_ENSEMBLE_SEEDS, MAX_K_STEPS, RunConfig, Seeds
from .objectives import QuadraticObjective, SyntheticShardConfig, make_synthetic_shards
from .timing import BIASED_CRITERIA, HardwareModel, PolicyKind, WaitPolicy, check_initial_clocks
from .weights import WeightScheme, plan_weights

SCHEMA_VERSION = 1

_NUMBER = {"type": "number"}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_VECTOR = {"type": "array", "items": _NUMBER, "minItems": 1}
_NUMBER_OR_VECTOR = {"anyOf": [_NUMBER, _VECTOR]}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["schema_version", "fleet", "scheme", "optimization", "horizon"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "fleet": {
            "type": "object",
            "additionalProperties": False,
            "required": ["compute_times", "objective"],
            "properties": {
                "compute_times": {"type": "array", "items": _POSITIVE, "minItems": 1},
                "importances": _VECTOR,
                "hardware": {"enum": ["fixed", "exponential"]},
                "initial_clocks": {"type": "array", "items": _POSITIVE},
                "distribution_ids": {"type": "array", "items": {"type": "integer", "minimum": 0}},
                "objective": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["family"],
                    "properties": {
                        "family": {"enum": ["quadratic", "logistic", "linear"]},
                        "optima": {
                            "type": "array",
                            "items": _NUMBER_OR_VECTOR,
                            "minItems": 1,
                        },
                        "curvature": _POSITIVE,
                        "noise_std": {"type": "number", "minimum": 0},
                        "dim": {"type": "integer", "minimum": 1},
                        "samples_per_client": {"type": "integer", "minimum": 1},
                        "concentration": _POSITIVE,
                        "seed": {"type": "integer", "minimum": 0},
                        "batch_size": {"type": "integer", "minimum": 1},
                    },
                },
            },
        },
        "scheme": {
            "type": "object",
            "additionalProperties": False,
            "required": ["policy", "weights"],
            "properties": {
                "policy": {"enum": [k.value for k in PolicyKind]},
                "delta_t": _POSITIVE,
                "m": {"type": "integer", "minimum": 1},
                "criterion": {"enum": list(BIASED_CRITERIA)},
                "weights": {"enum": [s.value for s in WeightScheme]},
                "custom_d": {"type": "array", "items": {"type": "number", "minimum": 0}},
            },
        },
        "optimization": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "eta_g": {"type": "number", "minimum": 0},
                "eta_l": {"type": "number", "minimum": 0},
                "k_steps": {"type": "integer", "minimum": 1, "maximum": MAX_K_STEPS},
                "batch_size": {"type": "integer", "minimum": 1},
                "full_gradient": {"type": "boolean"},
                "theta0": _NUMBER_OR_VECTOR,
            },
        },
        "horizon": {
            "type": "object",
            "additionalProperties": False,
            "minProperties": 1,
            "maxProperties": 1,
            "properties": {"rounds": {"type": "integer", "minimum": 1}, "time": _POSITIVE},
        },
        "ensemble": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_seeds": {"type": "integer", "minimum": 1, "maximum": MAX_ENSEMBLE_SEEDS},
                "base_seed": {"type": "integer", "minimum": 0},
            },
        },
        "outputs": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"cadence": {"type": "integer", "minimum": 1}},
        },
        "seeds": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "hardware": {"type": "integer", "minimum": 0},
                "batching": {"type": "integer", "minimum": 0},
                "sampling": {"type": "integer", "minimum": 0},
            },
        },
        "tau_max": {"type": "integer", "minimum": 0},
        "oracle_check": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "checkpoints": {"type": "array", "items": {"type": "integer", "minimum": 0}, "minItems": 1},
                "n_runs": {"type": "integer", "minimum": 2},
                "seed": {"type": "integer", "minimum": 0},
            },
        },
        "bounds": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "time_budget": _POSITIVE,
                "smoothness": _POSITIVE,
                "rho": {"type": "number", "minimum": 0},
                "sigma": {"type": "number", "minimum": 0},
                "sigma1": {"type": "number", "minimum": 0},
                "delta_t": _POSITIVE,
            },
        },
        "sweep": {
            "type": "object",
            "additionalProperties": False,
            "required": ["axis", "values"],
            "properties": {
                "axis": {"enum": ["eta_l", "k_steps", "delta_t", "m"]},
                "values": {"type": "array", "items": _POSITIVE, "minItems": 1},
            },
        },
    },
}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# "integer" is a Python int, not JSON Schema's integral number: the builders
# need an int, so 2.0 is a config error
_IS_TYPE = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "number": _is_number,
    "integer": lambda value: isinstance(value, int) and not isinstance(value, bool),
    "boolean": lambda value: isinstance(value, bool),
}
_LEAF_TYPES = {"number": {int, float}, "integer": {int}}  # bool is neither
_LEAF_KEYS = {"type", "minimum", "exclusiveMinimum"}


def _items_pass(schema, values: list) -> bool:
    """True when every value meets ``schema`` and the schema is a numeric
    leaf (``type`` with ``minimum``/``exclusiveMinimum``) or the
    number-or-vector ``anyOf``; False also when unsure. Each check covers
    the whole list at once."""
    if schema == _NUMBER_OR_VECTOR:
        numbers = _LEAF_TYPES["number"]
        return set(map(type, values)) <= numbers or all(
            type(v) in numbers or (type(v) is list and len(v) > 0 and _items_pass(_NUMBER, v))
            for v in values
        )
    kinds = _LEAF_TYPES.get(schema.get("type"))
    if kinds is None or not schema.keys() <= _LEAF_KEYS or not set(map(type, values)) <= kinds:
        return False
    if not values:
        return True
    # min ignores a NaN past the first item, which every bound check passes
    low = min(values)
    return low >= schema.get("minimum", -math.inf) and low > schema.get("exclusiveMinimum", -math.inf)


def _equal(one, two) -> bool:
    """JSON equality for a scalar ``two`` (every ``const`` and ``enum`` value
    of the schema is one): 1.0 equals 1, True does not."""
    return one == two and isinstance(one, bool) == isinstance(two, bool)


# Each keyword of Draft 2020-12 that CONFIG_SCHEMA uses, as
# check(value, instance, schema, path, errors): it appends (path, message)
# pairs with the stock jsonschema message texts, and a subschema's errors
# in the stock walk's order (schema-dict order, depth first)


def _type(name, instance, schema, path, errors):
    if not _IS_TYPE[name](instance):
        errors.append((path, f"{instance!r} is not of type {name!r}"))


def _properties(properties, instance, schema, path, errors):
    if isinstance(instance, dict):
        for key, subschema in properties.items():
            if key in instance:
                _walk(subschema, instance[key], (*path, key), errors)


def _required(names, instance, schema, path, errors):
    if isinstance(instance, dict):
        errors.extend((path, f"{name!r} is a required property") for name in names if name not in instance)


def _additional_properties(allowed, instance, schema, path, errors):
    # the schema sets it to False only: no key outside ``properties``
    extras = isinstance(instance, dict) and not allowed and instance.keys() - schema.get("properties", {})
    if extras:
        verb = "was" if len(extras) == 1 else "were"
        joined = ", ".join(map(repr, sorted(extras, key=str)))
        errors.append((path, f"Additional properties are not allowed ({joined} {verb} unexpected)"))


def _items(subschema, instance, schema, path, errors):
    if isinstance(instance, list) and not _items_pass(subschema, instance):
        for index, item in enumerate(instance):
            _walk(subschema, item, (*path, index), errors)


def _min_items(count, instance, schema, path, errors):
    if isinstance(instance, list) and len(instance) < count:
        errors.append((path, f"{instance!r} {'should be non-empty' if count == 1 else 'is too short'}"))


def _min_properties(count, instance, schema, path, errors):
    if isinstance(instance, dict) and len(instance) < count:
        text = "should be non-empty" if count == 1 else "does not have enough properties"
        errors.append((path, f"{instance!r} {text}"))


def _max_properties(count, instance, schema, path, errors):
    if isinstance(instance, dict) and len(instance) > count:
        text = "is expected to be empty" if count == 0 else "has too many properties"
        errors.append((path, f"{instance!r} {text}"))


# a NaN fails no comparison, so it passes every bound, as in the stock walk
def _minimum(bound, instance, schema, path, errors):
    if _is_number(instance) and instance < bound:
        errors.append((path, f"{instance!r} is less than the minimum of {bound!r}"))


def _exclusive_minimum(bound, instance, schema, path, errors):
    if _is_number(instance) and instance <= bound:
        errors.append((path, f"{instance!r} is less than or equal to the minimum of {bound!r}"))


def _maximum(bound, instance, schema, path, errors):
    if _is_number(instance) and instance > bound:
        errors.append((path, f"{instance!r} is greater than the maximum of {bound!r}"))


def _enum(values, instance, schema, path, errors):
    if not any(_equal(instance, value) for value in values):
        errors.append((path, f"{instance!r} is not one of {values!r}"))


def _const(value, instance, schema, path, errors):
    if not _equal(instance, value):
        errors.append((path, f"{value!r} was expected"))


def _any_of(subschemas, instance, schema, path, errors):
    for subschema in subschemas:
        failed = []
        _walk(subschema, instance, path, failed)
        if not failed:
            return
    errors.append((path, f"{instance!r} is not valid under any of the given schemas"))


_KEYWORDS = {
    "$schema": lambda *args: None,  # names the draft, checks nothing
    "type": _type,
    "properties": _properties,
    "required": _required,
    "additionalProperties": _additional_properties,
    "items": _items,
    "minItems": _min_items,
    "minProperties": _min_properties,
    "maxProperties": _max_properties,
    "minimum": _minimum,
    "exclusiveMinimum": _exclusive_minimum,
    "maximum": _maximum,
    "enum": _enum,
    "const": _const,
    "anyOf": _any_of,
}


def _walk(schema, instance, path, errors):
    for keyword, value in schema.items():
        _KEYWORDS[keyword](value, instance, schema, path, errors)


def _subschemas(schema):
    yield schema
    items = [schema["items"]] if "items" in schema else []
    for sub in (*schema.get("properties", {}).values(), *items, *schema.get("anyOf", ())):
        yield from _subschemas(sub)


_UNHANDLED = {keyword for sub in _subschemas(CONFIG_SCHEMA) for keyword in sub} - _KEYWORDS.keys()
if _UNHANDLED:
    raise ImportError(f"CONFIG_SCHEMA uses keywords the validator does not handle: {sorted(_UNHANDLED)}")


def validate_config(document) -> list[str]:
    """All schema violations, formatted with their JSON paths, in the order
    and with the messages of the stock Draft 2020-12 walk."""
    errors = []
    _walk(CONFIG_SCHEMA, document, (), errors)
    errors.sort(key=lambda error: error[0])  # stable: walk order within a path
    return [f"{'/'.join(map(str, path)) or '<root>'}: {message}" for path, message in errors]


def _reject_constant(name):
    raise ConfigurationError(f"config holds {name}; only finite numbers are allowed")


def _finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ConfigurationError(f"config number {text} overflows a double")
    return value


def _finite_int(text):
    if len(text) < 309:  # at most 308 digits: inside the double range
        return int(text)
    try:
        value = int(text)  # ValueError past Python's digit limit
        float(value)  # OverflowError beyond the double range
    except (OverflowError, ValueError):
        raise ConfigurationError(f"config integer of {len(text.lstrip('-'))} digits overflows a double") from None
    return value


def _in_double_range(document) -> bool:
    """True when every number of a natively parsed JSON ``document`` (which
    holds no NaN) is a finite double or an int inside the double range.

    Each list is one ``sum`` from 0.0, item by item only when an item is
    not a number: the float sum is finite only when every item is, and an
    int beyond the double range raises ``OverflowError`` as it is added. A
    sum that overflows from finite items reads False too."""
    stack = [document]
    try:
        while stack:
            node = stack.pop()
            if type(node) is dict:
                stack.extend(node.values())
            elif type(node) is list:
                try:
                    if not math.isfinite(sum(node, 0.0)):
                        return False
                except TypeError:  # an item that is not a number
                    stack.extend(node)
            elif type(node) in (int, float) and not math.isfinite(node):
                return False
    except OverflowError:  # an int beyond the double range
        return False
    return True


def _parse(text: str):
    """The JSON document of ``text``, with the numbers of its hooked parse.

    Numbers are parsed natively and checked once; a document that fails
    the check or the native parse is parsed again through the hooks, which
    raise the first of its errors in text order."""
    try:
        document = json.loads(text, parse_constant=_reject_constant)
    except (ConfigurationError, ValueError):  # ValueError: invalid JSON, or Python's int digit limit
        pass
    else:
        if _in_double_range(document):
            return document
    try:
        return json.loads(text, parse_constant=_reject_constant, parse_float=_finite_float, parse_int=_finite_int)
    except json.JSONDecodeError as err:
        raise ConfigurationError(f"config is not valid JSON: {err}") from err


def load_config(path) -> dict:
    """Read, parse and validate a config file; every failure to do so,
    unreadable or non-UTF-8 files, NaN/Infinity and numbers beyond the
    double range (integers too) included, is a ``ConfigurationError``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigurationError(f"cannot read config {path}: {err}") from err
    document = _parse(text)
    problems = validate_config(document)
    if problems:
        raise ConfigurationError("invalid config:\n" + "\n".join(problems))
    return document


# the families that read each optional key of ``fleet/objective``
_FAMILY_KEYS = {
    **dict.fromkeys(("optima", "curvature", "noise_std"), {"quadratic"}),
    **dict.fromkeys(("dim", "samples_per_client", "concentration", "seed", "batch_size"), {"logistic", "linear"}),
}


def build_fleet(document: dict) -> tuple[Fleet, HardwareModel]:
    """The configured fleet and hardware; an objective key the family does
    not read is a config error rather than being silently ignored."""
    fcfg = document["fleet"]
    taus = fcfg["compute_times"]
    n = len(taus)
    importances = fcfg.get("importances") or uniform_importances(n)
    if len(importances) != n:
        raise ConfigurationError("importances length must match compute_times")
    hw = HardwareModel(fcfg.get("hardware", "fixed"))

    ocfg = fcfg["objective"]
    family = ocfg["family"]
    for key, readers in _FAMILY_KEYS.items():
        if key in ocfg and family not in readers:
            raise ConfigurationError(f"fleet/objective/{key} is not read by the {family} family")
    if family == "quadratic":
        optima = ocfg.get("optima")
        if optima is None or len(optima) != n:
            raise ConfigurationError("quadratic objective needs one optimum per client")
        table = QuadraticObjective.from_optima(optima, ocfg.get("curvature", 0.5), ocfg.get("noise_std", 0.0))
    else:
        shard_cfg = SyntheticShardConfig(
            n_clients=n,
            dim=ocfg.get("dim", 5),
            samples_per_client=ocfg.get("samples_per_client", 64),
            concentration=ocfg.get("concentration", 0.1),
            seed=ocfg.get("seed", 0),
            link=family,
            batch_size=ocfg.get("batch_size", 8),
        )
        table = make_synthetic_shards(shard_cfg)
    return Fleet(table, taus, importances, fcfg.get("distribution_ids")), hw


# the policies that read each optional policy key of ``scheme``
_POLICY_KEYS = {
    "delta_t": {PolicyKind.FEDFIX},
    "m": {PolicyKind.FEDBUFF, PolicyKind.SAMPLE_UNIFORM, PolicyKind.SAMPLE_MD, PolicyKind.SAMPLE_BIASED},
    "criterion": {PolicyKind.SAMPLE_BIASED},
}


def build_policy(document: dict) -> WaitPolicy:
    """The configured waiting policy; a policy key the policy does not read
    is a config error rather than being silently ignored."""
    scfg = document["scheme"]
    kind = PolicyKind(scfg["policy"])
    for key, readers in _POLICY_KEYS.items():
        if key in scfg and kind not in readers:
            raise ConfigurationError(f"scheme/{key} is not read by the {kind.value} policy")
    return WaitPolicy(
        kind,
        delta_t=scfg.get("delta_t"),
        m=scfg.get("m"),
        criterion=scfg.get("criterion"),
    )


def build_experiment(document: dict, seed_override: int | None = None) -> RunConfig:
    """The run a validated config ``document`` describes: its fleet, policy,
    hardware, weights d_i and settings; ``seed_override`` replaces every
    seed of the document (``--seed``)."""
    fleet, hw = build_fleet(document)
    # checked here, not only when a run starts, so bounds rejects them too
    check_initial_clocks(document["fleet"].get("initial_clocks"), len(fleet), hw)
    policy = build_policy(document)
    scfg = document["scheme"]
    scheme = WeightScheme(scfg["weights"])
    if "custom_d" in scfg and scheme is not WeightScheme.CUSTOM:
        raise ConfigurationError(f"scheme/custom_d is not read by {scheme.value} weights")
    d = plan_weights(
        scheme,
        fleet.importances,
        fleet.compute_times,
        policy,
        hw,
        custom_d=scfg.get("custom_d"),
    )
    finite = np.isfinite(d)
    if not finite.all():
        i = int(finite.argmin())
        raise ConfigurationError(f"scheme/weights {scheme.value} gives client {i} the weight d_{i} = {d[i]}, "
                                 "beyond the double range")
    opt = document.get("optimization", {})
    horizon = document["horizon"]
    seeds_cfg = document.get("seeds", {})
    seeds = Seeds(
        seeds_cfg.get("hardware", 0),
        seeds_cfg.get("batching", 1),
        seeds_cfg.get("sampling", 2),
    )
    if seed_override is not None:
        seeds = Seeds.override(seed_override)

    theta0 = opt.get("theta0")
    if theta0 is not None:
        theta0 = np.atleast_1d(np.asarray(theta0, dtype=float))
        if theta0.shape == (1,) and fleet.dim > 1:
            theta0 = np.full(fleet.dim, theta0[0])

    initial_clocks = document["fleet"].get("initial_clocks")
    return RunConfig(
        fleet=fleet,
        policy=policy,
        d=d,
        hw=hw,
        eta_g=opt.get("eta_g", 1.0),
        eta_l=opt.get("eta_l", 0.1),
        k_steps=opt.get("k_steps", 1),
        full_gradient=opt.get("full_gradient", False),
        batch_size=opt.get("batch_size"),
        rounds=horizon.get("rounds"),
        time_budget=horizon.get("time"),
        theta0=theta0,
        seeds=seeds,
        metric_cadence=document.get("outputs", {}).get("cadence", 1),
        tau_max=document.get("tau_max"),
        initial_clocks=None if initial_clocks is None else tuple(initial_clocks),
    )
