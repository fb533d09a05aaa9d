"""Experiment configuration: JSON schema, validation, and builders that turn
a config document into fleet, policy, weight plan, and run settings.

The format is versioned (``schema_version``) and strict: unknown keys are
rejected at every level so typos fail loudly before any compute happens.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import jsonschema
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


def _is_strict_integer(checker, instance) -> bool:
    return isinstance(instance, int) and not isinstance(instance, bool)


_LEAF_TYPES = {"number": {int, float}, "integer": {int}}  # bool is neither
_LEAF_KEYS = {"type", "minimum", "exclusiveMinimum"}
_STOCK_ITEMS = jsonschema.Draft202012Validator.VALIDATORS["items"]


def _items_pass(schema, values: list) -> bool:
    """True when every value meets ``schema`` and the schema is a numeric
    leaf (``type`` with ``minimum``/``exclusiveMinimum``) or the
    number-or-vector ``anyOf``; False also when unsure. Each check covers
    the whole list at once."""
    if not isinstance(schema, dict):
        return False
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


def _items(validator, items, instance, schema):
    """The ``items`` keyword in one pass over an array of numeric leaves; an
    array that does not pass whole goes to the stock keyword, so the errors
    and their order are the stock walk's."""
    if type(instance) is list and "prefixItems" not in schema and _items_pass(items, instance):
        return
    yield from _STOCK_ITEMS(validator, items, instance, schema)


# JSON Schema counts 2.0 as an integer; the builders need a Python int, so
# "integer" here means exactly that (an integral float is a config error)
_StrictValidator = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    validators={"items": _items},
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", _is_strict_integer
    ),
)
_VALIDATOR = _StrictValidator(CONFIG_SCHEMA)


def validate_config(document: dict) -> list[str]:
    """All schema violations, formatted with their JSON paths."""
    errors = sorted(_VALIDATOR.iter_errors(document), key=lambda e: list(e.absolute_path))
    out = []
    for err in errors:
        where = "/".join(str(p) for p in err.absolute_path) or "<root>"
        out.append(f"{where}: {err.message}")
    return out


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


def load_config(path) -> dict:
    """Read, parse and validate a config file; every failure to do so,
    unreadable or non-UTF-8 files, NaN/Infinity and numbers beyond the
    double range (integers too) included, is a ``ConfigurationError``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigurationError(f"cannot read config {path}: {err}") from err
    try:
        document = json.loads(
            text, parse_constant=_reject_constant, parse_float=_finite_float, parse_int=_finite_int
        )
    except json.JSONDecodeError as err:
        raise ConfigurationError(f"config is not valid JSON: {err}") from err
    problems = validate_config(document)
    if problems:
        raise ConfigurationError("invalid config:\n" + "\n".join(problems))
    return document


@dataclass(frozen=True)
class Experiment:
    """Everything needed to run one configured experiment."""

    fleet: Fleet
    policy: WaitPolicy
    hw: HardwareModel
    run_config: RunConfig


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


def build_experiment(document: dict, seed_override: int | None = None) -> Experiment:
    fleet, hw = build_fleet(document)
    # checked here, not only when a run starts, so bounds rejects them too
    check_initial_clocks(document["fleet"].get("initial_clocks"), len(fleet), hw)
    policy = build_policy(document)
    scfg = document["scheme"]
    scheme = WeightScheme(scfg["weights"])
    if "custom_d" in scfg and scheme is not WeightScheme.CUSTOM:
        raise ConfigurationError(f"scheme/custom_d is not read by {scheme.value} weights")
    plan = plan_weights(
        scheme,
        fleet.importances,
        fleet.compute_times,
        policy,
        hw,
        custom_d=scfg.get("custom_d"),
    )
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
    run_config = RunConfig(
        fleet=fleet,
        policy=policy,
        plan=plan,
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
    return Experiment(fleet, policy, hw, run_config)
