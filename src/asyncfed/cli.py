"""Command-line driver: run simulations, sweeps, closed-form cross-checks,
and bound reports from a JSON config.

Subcommands
-----------
simulate      one run; writes trajectory.csv and run_log.json
oracle-check  closed-form recursions vs a Monte-Carlo ensemble
bounds        per-scheme bound parameters and evaluated terms
sweep         one summary row per value of a swept hyperparameter
gen-shards    export the configured synthetic shards as CSV

Exit codes: 0 success (a diverged run is a result, not a failure),
2 invalid config (a ``tau_max`` the schedule exceeds included), 3 scheme
without a closed form or a schedule too long to analyze, 141 (128 + SIGPIPE)
standard output closed by its reader, with nothing printed to stderr.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import BoundInputs, epsilon_terms, fill_inputs, format_report, scheme_presets
from .config import build_experiment, load_config
from .core import ConfigurationError, UnsupportedConfigError, convergence_residual, weighted_optimum
from .engine import (
    RunConfig,
    Seeds,
    atomic_open,
    check_scalar_ensemble,
    run,
    run_members,
    run_scalar_ensemble,
    write_trajectory_csv,
)
from .objectives import QuadraticObjective, export_shards_csv
from .oracle import OracleState, expectation_recursion, expected_round_time, export_oracle_csv, phi, variance_recursion
from .timing import PolicyKind, WaitPolicy

_EXIT_BAD_CONFIG = 2
_EXIT_UNSUPPORTED = 3
_EXIT_BROKEN_PIPE = 128 + 13  # SIGPIPE's number


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _config_digest(document: dict) -> str:
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    document = load_config(args.config)
    cfg = build_experiment(document, seed_override=args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    started = time.perf_counter()
    trajectory = run(cfg)
    csv_path = out_dir / "trajectory.csv"
    written = time.perf_counter()
    # the metrics rows are computed block by block as they are written
    write_trajectory_csv(trajectory, csv_path)
    finished = time.perf_counter()
    wall = finished - started
    timing_s = {**trajectory.timing_s, "io": finished - written - trajectory.timing_s["metrics"]}
    log = {
        "schema_version": document["schema_version"],
        "package_version": __version__,
        "config": document,
        "config_sha256": _config_digest(document),
        "seed_override": args.seed,
        "seeds_resolved": {
            "hardware": list(np.atleast_1d(cfg.seeds.hardware).tolist()),
            "batching": list(np.atleast_1d(cfg.seeds.batching).tolist()),
            "sampling": list(np.atleast_1d(cfg.seeds.sampling).tolist()),
        },
        "n_rounds": trajectory.n_rounds,
        "final_time": float(trajectory.times[-1]),
        "diverged": trajectory.diverged,
        "divergence": None if not trajectory.diverged else {
            "round": trajectory.divergence_round,
            "cause": trajectory.divergence_cause,
        },
        "never_served": trajectory.never_served,
        "wall_time_s": wall,
        "timing_s": timing_s,
        "outputs": {"trajectory": csv_path.name},
    }
    with atomic_open(out_dir / "run_log.json") as fh:
        fh.write(json.dumps(log, indent=2, sort_keys=True) + "\n")
    _say(args, f"{trajectory.n_rounds} rounds in {wall:.2f}s -> {csv_path}")
    if trajectory.diverged:
        _say(
            args,
            f"run diverged at round {trajectory.divergence_round} "
            f"({trajectory.divergence_cause}; recorded, not a failure)",
        )
    if trajectory.never_served:
        _say(args, f"warning: {trajectory.never_served} client(s) never received an updated model")
    return 0


# ---------------------------------------------------------------------------
# oracle-check
# ---------------------------------------------------------------------------

def _oracle_state_for(cfg: RunConfig) -> OracleState:
    """Map a configured run onto its closed-form problem. Raises
    UnsupportedConfigError with an explicit reason when no closed form or
    no kernel applies.
    """
    fleet = cfg.fleet
    table = fleet.table
    if fleet.dim != 1 or not isinstance(table, QuadraticObjective):
        raise UnsupportedConfigError("closed forms cover scalar quadratic fleets only")
    if np.any(np.abs(table.a - 0.5) > 1e-12):
        raise UnsupportedConfigError("closed forms assume curvature 1/2 (unit-contraction gradients)")
    if np.any(table.noise_std > 0) and not cfg.full_gradient:
        raise UnsupportedConfigError("closed forms assume noiseless local gradients")
    p = fleet.importances
    if np.max(np.abs(p - 1.0 / len(fleet))) > 1e-12:
        raise UnsupportedConfigError("closed forms assume identical client importance")
    d = cfg.d
    if np.any(d != d[0]):
        raise UnsupportedConfigError("the Monte-Carlo ensemble needs equal weights d_i")
    problem = functools.partial(
        OracleState,
        phi=phi(cfg.eta_l, cfg.k_steps),
        rates=tuple((cfg.eta_g * d).tolist()),
        optima=tuple(table.optima[:, 0].tolist()),
        theta0=float(cfg.resolved_theta0()[0]),
    )
    taus = [float(t) for t in fleet.compute_times]

    kind = cfg.policy.kind
    if kind is PolicyKind.SYNCHRONOUS:
        return problem("sync")
    if kind is PolicyKind.SAMPLE_UNIFORM:
        return problem("sync_uniform", m=cfg.policy.m)
    if kind is PolicyKind.ASYNCHRONOUS:
        if cfg.hw.mode != "exponential":
            raise UnsupportedConfigError(
                "the asynchronous closed form needs memoryless (exponential) hardware"
            )
        if max(taus) - min(taus) > 1e-12:
            raise UnsupportedConfigError(
                "the Monte-Carlo ensemble draws asynchronous clients at equal rates; "
                "measure heterogeneous-rate fleets empirically instead"
            )
        state = problem("async")
        state.check_second_moment()
        return state
    raise UnsupportedConfigError(f"no closed form for policy {kind.value!r}")


def _oracle_round_time(cfg: RunConfig, state: OracleState) -> float:
    """The round duration the oracle CSV's ``t`` steps by: a fixed-hardware
    round's slowest time, or the expected one at rate 1/tau on exponential
    hardware with one mean time tau. UnsupportedConfigError otherwise."""
    taus = cfg.fleet.compute_times
    common = len(set(taus)) == 1
    if cfg.hw.mode == "exponential":
        if common:
            return expected_round_time(state, 1.0 / taus[0])
        raise UnsupportedConfigError("the oracle CSV's time column needs one mean time on exponential hardware")
    if cfg.initial_clocks is not None:
        raise UnsupportedConfigError("the oracle CSV's time column needs every clock to start at 0")
    if state.scheme == "sync":
        return float(max(taus))
    if common:
        return float(taus[0])
    raise UnsupportedConfigError("the oracle CSV's time column needs one compute time for a sampled round")


def cmd_oracle_check(args) -> int:
    document = load_config(args.config)
    cfg = build_experiment(document, seed_override=args.seed)
    state = _oracle_state_for(cfg)
    round_time = _oracle_round_time(cfg, state) if args.out else None
    if args.seed is not None:
        document.setdefault("oracle_check", {})["seed"] = args.seed

    check_cfg = document.get("oracle_check", {})
    checkpoints = sorted(check_cfg.get("checkpoints", [1, 5, 20]))
    n_runs = check_cfg.get("n_runs", 10_000)
    seed = check_cfg.get("seed", 0)
    horizon = max(checkpoints)

    check_scalar_ensemble(state, checkpoints, n_runs)
    oracle_mean = expectation_recursion(state, horizon)
    oracle_m2 = variance_recursion(state, horizon)

    mc = run_scalar_ensemble(state, checkpoints, n_runs, seed)
    at = {n: i for i, n in enumerate(mc.rounds.tolist())}

    rows = []
    for n in checkpoints:
        i = at[n]
        rows.append({
            "n": n,
            "oracle_mean": oracle_mean[n],
            "mc_mean": mc.mean[i],
            "se_mean": mc.se_mean[i],
            "mean_gate": "checked",
            "mean_pass": abs(mc.mean[i] - oracle_mean[n]) <= max(3.0 * mc.se_mean[i], 1e-9),
            "oracle_m2": oracle_m2[n],
            "mc_m2": mc.second_moment[i],
            "se_m2": mc.se_second_moment[i],
            "m2_gate": "checked",
            "m2_pass": abs(mc.second_moment[i] - oracle_m2[n]) <= max(3.0 * mc.se_second_moment[i], 1e-9),
        })
    overall = all(row["mean_pass"] and row["m2_pass"] for row in rows)

    print(f"scheme = {state.scheme}")
    print(f"phi = {_fmt(state.phi)}   n_runs = {n_runs}")
    print("     n   oracle_mean        mc_mean           3se_mean          mean"
          "   oracle_m2         mc_m2             3se_m2            m2")
    for row in rows:
        print(
            f"{row['n']:6d}   {row['oracle_mean']:<+16.9g} {row['mc_mean']:<+16.9g} "
            f"{3 * row['se_mean']:<17.3g} {'pass' if row['mean_pass'] else 'FAIL'}"
            f"   {row['oracle_m2']:<+16.9g} {row['mc_m2']:<+16.9g} "
            f"{3 * row['se_m2']:<17.3g} {'pass' if row['m2_pass'] else 'FAIL'}"
        )
    print(f"overall_pass = {str(overall).lower()}")

    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        payload = {
            "scheme": state.scheme,
            "phi": state.phi,
            "n_runs": n_runs,
            "checkpoints": [
                {k: (bool(v) if isinstance(v, (bool, np.bool_)) else v if isinstance(v, (int, str)) else float(v))
                 for k, v in row.items()}
                for row in rows
            ],
            "overall_pass": bool(overall),
        }
        with atomic_open(out_dir / "oracle_check.json") as fh:
            fh.write(json.dumps(payload, indent=2) + "\n")
        export_oracle_csv(state, oracle_mean, oracle_m2, round_time, out_dir / "oracle_trajectory.csv")
    return 0


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def cmd_bounds(args) -> int:
    document = load_config(args.config)
    cfg = build_experiment(document)
    fleet = cfg.fleet
    bcfg = document.get("bounds", {})

    smoothness = bcfg.get("smoothness")
    if smoothness is None:
        smoothness = float(fleet.table.smoothness.max())
        note = "smoothness defaulted to the largest client curvature"
    else:
        note = None

    theta_star = weighted_optimum(fleet)
    theta0 = cfg.resolved_theta0()
    gap = theta0 - theta_star
    sigma = bcfg.get("sigma")
    if sigma is None:
        sigma = convergence_residual(fleet, fleet.importances, theta_star,
                                     full_gradient=cfg.full_gradient, batch_size=cfg.batch_size)
    sigma1 = bcfg.get("sigma1", sigma)

    delta_t = (
        float(cfg.policy.delta_t)
        if cfg.policy.kind is PolicyKind.FEDFIX
        else bcfg.get("delta_t", max(float(t) for t in fleet.compute_times))
    )
    fedfix_policy = WaitPolicy(PolicyKind.FEDFIX, delta_t=delta_t)
    time_budget = bcfg.get("time_budget", document["horizon"].get("time", 1.0))

    # the async preset computes residual_mean_gap; fedfix reuses it
    presets = {name: scheme_presets(name, fleet, fedfix_policy, time_budget) for name in ("sync", "async")}
    presets["fedfix"] = scheme_presets("fedfix", fleet, fedfix_policy, time_budget, presets["async"].residual)

    if note:
        print(f"note: {note} ({_fmt(smoothness)})")
    print(f"time_budget = {_fmt(time_budget)}   fedfix_delta_t = {_fmt(delta_t)}")
    print("parameter        sync              async             fedfix")
    grid = [
        ("alpha", lambda pr: pr.alpha),
        ("beta", lambda pr: pr.beta),
        ("tau", lambda pr: pr.tau),
        ("window", lambda pr: pr.window),
        ("residual", lambda pr: pr.residual),
        ("rounds_in_T", lambda pr: pr.n_rounds),
        ("max_d", lambda pr: max(pr.d)),
    ]
    for label, pick in grid:
        cells = "".join(f"{pick(presets[s]):<18.6g}" for s in ("sync", "async", "fedfix"))
        print(f"{label:<16} {cells}")
    print()

    n_rounds = cfg.rounds
    if n_rounds is None:
        per_budget = presets["sync"].n_rounds
        # a count beyond the double range is the exact quotient's floor
        n_rounds = (max(1, int(per_budget)) if math.isfinite(per_budget)
                    else int(Fraction(time_budget) / Fraction(max(fleet.compute_times))))
    base = BoundInputs(
        n_clients=len(fleet),
        k_steps=cfg.k_steps,
        n_rounds=n_rounds,
        eta_g=cfg.eta_g,
        eta_l=cfg.eta_l,
        smoothness=smoothness,
        tau=0,
        window=1,
        alpha=1.0,
        beta=0.0,
        sigma=sigma,
        sigma1=sigma1,
        residual=0.0,
        init_gap_sq=float(np.dot(gap, gap)),
        rho=bcfg.get("rho", 1.0),
    )
    reports = []
    for name in ("sync", "fedfix", "async"):
        inputs = fill_inputs(presets[name], base)
        reports.append(f"scheme = {name}\n" + format_report(inputs, epsilon_terms(inputs)))
    print("\n".join(reports))

    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        with atomic_open(out_dir / "bounds_report.txt") as fh:
            fh.write("\n".join(reports))
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

_AXIS_PATH = {
    "eta_l": ("optimization", "eta_l", float),
    "k_steps": ("optimization", "k_steps", int),
    "delta_t": ("scheme", "delta_t", float),
    "m": ("scheme", "m", int),
}

SWEEP_HEADER = [
    "axis", "value", "n_seeds", "loss_mean", "loss_std",
    "within_run_std", "mean_rounds", "diverged",
]


def _axis_value(axis: str, value):
    """A sweep value as the axis takes it; an integer axis rejects values
    with a fractional part instead of truncating them."""
    cast = _AXIS_PATH[axis][2]
    if cast is int and not float(value).is_integer():
        raise ConfigurationError(f"sweep axis {axis} takes integers, got {value!r}")
    return cast(value)


def sweep_rows(document: dict, axis: str, values) -> list[dict]:
    """One row per value: the run config is built once per sweep on
    ``eta_l`` and ``k_steps`` (each value's run config is the built one
    with that field replaced) and once per value on ``delta_t`` and ``m``;
    either way every value is checked before any run. The
    ``ensemble.n_seeds`` members of every value (seeds ``base_seed + j``)
    run in one :func:`run_members` call, which steps the values that share
    a schedule through it together."""
    section, key, _ = _AXIS_PATH[axis]
    ensemble = document.get("ensemble", {})
    n_seeds = ensemble.get("n_seeds", 1)
    base_seed = ensemble.get("base_seed", 0)
    member_seeds = [Seeds.override(base_seed + j) for j in range(n_seeds)]
    values = [_axis_value(axis, v) for v in values]
    if section == "optimization":
        # eta_l and k_steps only set the run config's field of that name,
        # whose own checks reject a bad value
        built = build_experiment(document)
        configs = [replace(built, **{key: value}) for value in values]
    else:
        configs = []
        for value in values:
            patched = json.loads(json.dumps(document))
            patched.setdefault(section, {})[key] = value
            configs.append(build_experiment(patched))
    runs = run_members([replace(config, seeds=seeds) for config in configs for seeds in member_seeds])
    rows = []
    for i, value in enumerate(values):
        members = runs[i * n_seeds : (i + 1) * n_seeds]
        kept = [m for m in members if not m.diverged]
        finals = [m.final_loss[0] for m in kept]
        withins = [m.final_loss[1] for m in kept]
        lengths = [m.n_rounds for m in kept]
        rows.append(
            {
                "axis": axis,
                "value": value,
                "n_seeds": n_seeds,
                "loss_mean": float(np.mean(finals)) if finals else math.nan,
                "loss_std": float(np.std(finals, ddof=1)) if len(finals) > 1 else 0.0,
                "within_run_std": float(np.mean(withins)) if withins else math.nan,
                "mean_rounds": float(np.mean(lengths)) if lengths else 0.0,
                "diverged": len(members) - len(kept),
            }
        )
    return rows


def _sweep_value(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigurationError(f"--values entry {text!r} is not a number") from None
    if not math.isfinite(value):
        raise ConfigurationError(f"--values entry {text!r} is not finite")
    return value


def write_sweep_csv(rows: list[dict], path: Path) -> None:
    with atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SWEEP_HEADER)
        for row in rows:
            writer.writerow(
                [
                    row["axis"],
                    _fmt(row["value"]) if isinstance(row["value"], float) else row["value"],
                    row["n_seeds"],
                    _fmt(row["loss_mean"]),
                    _fmt(row["loss_std"]),
                    _fmt(row["within_run_std"]),
                    _fmt(row["mean_rounds"]),
                    row["diverged"],
                ]
            )


def cmd_sweep(args) -> int:
    document = load_config(args.config)
    sweep_cfg = document.get("sweep")
    axis = args.axis or (sweep_cfg or {}).get("axis")
    if axis is None or axis not in _AXIS_PATH:
        raise ConfigurationError("sweep needs an axis: one of eta_l, k_steps, delta_t, m")
    if args.values:
        values = [_sweep_value(v) for v in args.values.split(",") if v]
    else:
        values = (sweep_cfg or {}).get("values")
    if not values:
        raise ConfigurationError("sweep needs a nonempty values list")
    if args.seed is not None:
        document.setdefault("ensemble", {})["base_seed"] = args.seed

    rows = sweep_rows(document, axis, values)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "sweep.csv"
    write_sweep_csv(rows, path)
    _say(args, f"{len(rows)} sweep rows -> {path}")
    return 0


# ---------------------------------------------------------------------------
# gen-shards
# ---------------------------------------------------------------------------

def cmd_gen_shards(args) -> int:
    document = load_config(args.config)
    fleet = build_experiment(document).fleet
    family = document["fleet"]["objective"]["family"]
    if family == "quadratic":
        raise ConfigurationError("gen-shards needs a logistic or linear objective family")
    out_dir = Path(args.out)
    paths = export_shards_csv(fleet.table, out_dir)
    manifest = {
        "families": family,
        "n_clients": len(fleet),
        "files": [p.name for p in paths],
        "config_sha256": _config_digest(document),
    }
    with atomic_open(out_dir / "manifest.json") as fh:
        fh.write(json.dumps(manifest, indent=2) + "\n")
    _say(args, f"{len(paths)} shard files -> {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache  # six parsers per build; each parse_args call fills a fresh namespace
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="asyncfed", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_out=True):
        p.add_argument("--config", required=True, help="path to the JSON config")
        if needs_out:
            p.add_argument("--out", required=True, help="output directory")
        else:
            p.add_argument("--out", default=None, help="optional output directory")
        p.add_argument("--seed", type=int, default=None, help="override all seed material")
        p.add_argument("--quiet", action="store_true")

    common(sub.add_parser("simulate", help="run one simulation"))
    common(sub.add_parser("oracle-check", help="compare closed forms with Monte Carlo"), needs_out=False)
    common(sub.add_parser("bounds", help="evaluate bound terms and presets"), needs_out=False)
    sweep = sub.add_parser("sweep", help="sweep one hyperparameter")
    common(sweep)
    sweep.add_argument("--axis", choices=sorted(_AXIS_PATH), default=None)
    sweep.add_argument("--values", default=None, help="comma-separated values")
    common(sub.add_parser("gen-shards", help="export synthetic shards as CSV"))
    return parser


_COMMANDS = {
    "simulate": cmd_simulate,
    "oracle-check": cmd_oracle_check,
    "bounds": cmd_bounds,
    "sweep": cmd_sweep,
    "gen-shards": cmd_gen_shards,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed reader shows here, not in the exit flush
        return code
    except BrokenPipeError:
        # the exit flush of what is still buffered cannot raise on devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _EXIT_BROKEN_PIPE
    except UnsupportedConfigError as err:
        print(f"unsupported: {err}", file=sys.stderr)
        return _EXIT_UNSUPPORTED
    except ConfigurationError as err:
        print(f"config error: {err}", file=sys.stderr)
        return _EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
