"""Benchmark workloads: seeded config generation, the CLI operations of one
pass, and the checks on each operation's outputs.

Every input the program sees is a config file generated here from the
benchmark seed; shipped configs are copied with their seed material
replaced. The amount of work in a pass does not depend on the seed (fixed
round or time horizons, fixed fleet sizes, fixed compute-time multisets), so
runs with different seeds are comparable.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from asyncfed import cli
from hostspeed import HostSpeed

REFERENCE_SEED = 0
OP_TIME_LIMIT_S = 60        # an operation running longer than this has failed
RTOL = 1e-9                 # loss columns may move by a few ULP, not more
ATOL = 1e-12
MISS_SE = 3.0               # oracle-check's own agreement criterion
GATED_SE = 5.0              # a gated comparison beyond this fails the run

SHIPPED_LOGISTIC = Path("configs/async_logistic_heterogeneous.json")
SHIPPED_SWEEP = Path("configs/k_sweep_noisy_quadratic.json")


# ---------------------------------------------------------------------------
# Config generation
# ---------------------------------------------------------------------------

def _rng(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng([seed, int.from_bytes(tag.encode(), "little") % 2**32])


def _seed_material(rng) -> dict:
    hardware, batching, sampling = (int(x) for x in rng.integers(0, 2**31, 3))
    return {"hardware": hardware, "batching": batching, "sampling": sampling}


def logistic_configs(seed: int) -> dict:
    """The shipped M=10 logistic fleet with fresh batching seeds."""
    doc = json.loads(SHIPPED_LOGISTIC.read_text())
    doc["seeds"] = _seed_material(_rng(seed, "logistic"))
    return {"simulate": doc}


def wide_configs(seed: int) -> dict:
    """M=500 scalar quadratics, exponential hardware, identical weights, K=1."""
    rng = _rng(seed, "wide")
    m = 500
    return {
        "simulate": {
            "schema_version": 1,
            "fleet": {
                "compute_times": [int(x) for x in rng.integers(1, 17, m)],
                "hardware": "exponential",
                "objective": {
                    "family": "quadratic",
                    "optima": [round(float(x), 6) for x in rng.normal(0.0, 4.0, m)],
                },
            },
            "scheme": {"policy": "asynchronous", "weights": "identical"},
            "optimization": {"eta_g": 1.0, "eta_l": 0.5, "k_steps": 1, "full_gradient": True},
            "horizon": {"rounds": 400},
            "seeds": _seed_material(rng),
        }
    }


def ensemble_configs(seed: int) -> dict:
    """An equal-rate exponential async fleet for oracle-check (M=10, 1e5
    members, 200 rounds) and the shipped K sweep with a fresh base seed."""
    rng = _rng(seed, "ensembles")
    m = 10
    oracle = {
        "schema_version": 1,
        "fleet": {
            "compute_times": [1.0] * m,
            "hardware": "exponential",
            "objective": {
                "family": "quadratic",
                "optima": [round(float(x), 6) for x in rng.normal(0.0, 3.0, m)],
            },
        },
        "scheme": {"policy": "asynchronous", "weights": "identical"},
        "optimization": {
            "eta_g": 1.0, "eta_l": 0.5, "k_steps": 1, "full_gradient": True,
            "theta0": round(float(rng.uniform(-8.0, 8.0)), 6),
        },
        "horizon": {"rounds": 200},
        "oracle_check": {
            "checkpoints": [1, 5, 20, 50, 100, 200],
            "n_runs": 100_000,
            "seed": int(rng.integers(0, 2**31)),
        },
    }
    sweep = json.loads(SHIPPED_SWEEP.read_text())
    sweep["ensemble"]["base_seed"] = int(rng.integers(0, 2**31))
    return {"oracle": oracle, "sweep": sweep}


BOUNDS_TIMES = (2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15, 16, 18, 20)


def bounds_configs(seed: int) -> dict:
    """Integer compute times (a seeded order of BOUNDS_TIMES) on fixed
    hardware: the async cycle has sum(lcm / tau_i) = 11685 rounds."""
    rng = _rng(seed, "bounds")
    m = len(BOUNDS_TIMES)
    return {
        "bounds": {
            "schema_version": 1,
            "fleet": {
                "compute_times": [int(x) for x in rng.permutation(BOUNDS_TIMES)],
                "objective": {
                    "family": "quadratic",
                    "optima": [round(float(x), 6) for x in rng.normal(0.0, 2.0, m)],
                },
            },
            "scheme": {"policy": "asynchronous", "weights": "async_time_based"},
            "optimization": {"eta_g": 1.0, "eta_l": 0.05, "k_steps": 2, "full_gradient": True},
            "horizon": {"time": 100.0},
            "bounds": {"time_budget": 100.0},
        }
    }


def async_cycle_rounds(taus) -> int:
    """Rounds in one cycle of the fixed-hardware async schedule."""
    nu = math.lcm(*taus)
    return sum(nu // t for t in taus)


# ---------------------------------------------------------------------------
# Running one CLI operation
# ---------------------------------------------------------------------------

class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout(f"exceeded the {OP_TIME_LIMIT_S} s operation time limit")


def call_cli(argv: list[str]) -> tuple[int | None, str, float, str | None]:
    """Run ``cli.main`` in this process with its output captured.

    Returns (exit code, captured stdout, seconds, problem); the exit code is
    None when the call raised.
    """
    captured = io.StringIO()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, OP_TIME_LIMIT_S)
    started = time.perf_counter()
    code, problem = None, None
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = cli.main(argv)
    except SystemExit as err:
        code = err.code if isinstance(err.code, int) else 1
    except Exception as err:  # a crash of the measured program is a result
        problem = f"raised {type(err).__name__}: {err}"
    finally:
        seconds = time.perf_counter() - started
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    if problem is None and code != 0:
        problem = f"exit code {code}"
    return code, captured.getvalue(), seconds, problem


@dataclass
class OpResult:
    label: str
    seconds: float              # at the reference host speed when sampled
    raw_seconds: float          # as measured
    problems: list = field(default_factory=list)
    rounds: int = 0             # simulated rounds the op produced
    misses: int = 0             # oracle comparisons beyond MISS_SE
    digest: str = ""            # identifies the op's outputs, for determinism
    values: dict = field(default_factory=dict)  # compared with the reference


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _close(name, got, want, problems):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        problems.append(f"{name}: shape {got.shape} != reference {want.shape}")
    elif not np.allclose(got, want, rtol=RTOL, atol=ATOL, equal_nan=True):
        worst = float(np.max(np.abs(got - want) / (ATOL + RTOL * np.abs(want))))
        problems.append(f"{name}: differs from the reference ({worst:.3g} x tolerance)")


# ---------------------------------------------------------------------------
# Output checks, one per command
# ---------------------------------------------------------------------------

def check_simulate(doc, out: Path, stdout: str, result: OpResult, detail: bool):
    data = (out / "trajectory.csv").read_bytes()
    result.digest = _sha(data)
    lines = data.decode().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    n_clients = len(doc["fleet"]["compute_times"])
    n_rounds = len(rows) - 1
    masks = [row[2] for row in rows[:-1]]
    for n, mask in enumerate(masks):
        value = int(mask)
        if value.bit_count() != 1 or value >> n_clients:
            result.problems.append(f"round {n}: async mask {mask} is not one client")
            break
    if rows[-1][2] != "":
        result.problems.append("final row has a participant mask")
    log = json.loads((out / "run_log.json").read_text())
    if log["n_rounds"] != n_rounds:
        result.problems.append(f"run_log n_rounds {log['n_rounds']} != CSV rows {n_rounds}")
    horizon = doc["horizon"].get("rounds")
    if horizon is not None and n_rounds != horizon:
        result.problems.append(f"{n_rounds} rounds, configured {horizon}")
    result.rounds = n_rounds
    result.values = {"n_rounds": n_rounds, "mask_sha256": _sha(",".join(masks).encode())}
    if detail:
        clients = np.array([[float(x) for x in row[6:]] for row in rows])
        result.values.update(
            loss_fed=[float(row[3]) for row in rows],
            dist_sq=[float(row[5]) for row in rows],
            client_loss_sums=clients.sum(axis=0).tolist(),
            client_loss_final=clients[-1].tolist(),
        )


def compare_schedule(values, ref, problems):
    for key in ("n_rounds", "mask_sha256"):
        if values[key] != ref[key]:
            problems.append(f"{key} {values[key]} != reference {ref[key]}")


def compare_simulate(values, ref, problems):
    compare_schedule(values, ref, problems)
    for key in ("loss_fed", "dist_sq", "client_loss_sums", "client_loss_final"):
        if key in values:
            _close(key, values[key], ref[key], problems)


def check_oracle(doc, out: Path, stdout: str, result: OpResult, detail: bool):
    data = (out / "oracle_check.json").read_bytes()
    result.digest = _sha(data)
    payload = json.loads(data)
    for row in payload["checkpoints"]:
        for kind in ("mean", "m2"):
            if f"oracle_{kind}" not in row:
                continue
            gap = abs(row[f"mc_{kind}"] - row[f"oracle_{kind}"])
            se = row[f"se_{kind}"]
            if gap > max(MISS_SE * se, 1e-9):
                result.misses += 1
            if row[f"{kind}_gate"] == "checked" and gap > max(GATED_SE * se, 1e-9):
                result.problems.append(
                    f"gated {kind} at n={row['n']}: |mc - oracle| = {gap:.4g} > {GATED_SE} SE"
                )
    result.values = {"oracle_mean": [row["oracle_mean"] for row in payload["checkpoints"]]}


def compare_oracle(values, ref, problems):
    _close("oracle_mean", values["oracle_mean"], ref["oracle_mean"], problems)


def check_sweep(doc, out: Path, stdout: str, result: OpResult, detail: bool):
    data = (out / "sweep.csv").read_bytes()
    result.digest = _sha(data)
    rows = list(csv.DictReader(io.StringIO(data.decode())))
    wanted = doc["sweep"]["values"]
    if [float(r["value"]) for r in rows] != [float(v) for v in wanted]:
        result.problems.append("sweep rows do not match the configured values")
    result.rounds = round(sum(
        (int(r["n_seeds"]) - int(r["diverged"])) * float(r["mean_rounds"]) for r in rows
    ))
    result.values = {
        key: [float(r[key]) for r in rows]
        for key in ("diverged", "mean_rounds", "loss_mean", "loss_std", "within_run_std")
    }


def compare_sweep(values, ref, problems):
    new = [i for i, (got, was) in enumerate(zip(values["diverged"], ref["diverged"])) if got > was]
    if new:
        problems.append(f"sweep rows {new} have new diverged members")
    if values["mean_rounds"] != ref["mean_rounds"]:
        problems.append("sweep mean_rounds differ from the reference")
    for key in ("loss_mean", "loss_std", "within_run_std"):
        _close(key, values[key], ref[key], problems)


def check_bounds(doc, out: Path, stdout: str, result: OpResult, detail: bool):
    result.digest = _sha(stdout.encode())
    cycle = async_cycle_rounds(doc["fleet"]["compute_times"])
    windows = [line.split() for line in stdout.splitlines() if line.startswith("window ")]
    if not windows or float(windows[0][2]) != cycle:
        result.problems.append(f"async window {windows[0][2] if windows else None} != cycle {cycle}")
    result.rounds = cycle
    result.values = {"report": stdout.split()}


def compare_bounds(values, ref, problems):
    got, want = values["report"], ref["report"]
    if len(got) != len(want):
        problems.append("bounds report has a different layout than the reference")
        return
    for a, b in zip(got, want):
        try:
            x, y = float(a), float(b)
        except ValueError:
            if a != b:
                problems.append(f"bounds report token {a!r} != reference {b!r}")
                return
            continue
        if not math.isclose(x, y, rel_tol=1e-6, abs_tol=1e-12) and not (math.isnan(x) and math.isnan(y)):
            problems.append(f"bounds report value {a} != reference {b}")
            return


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Op:
    command: str                # asyncfed subcommand, also the op's label
    config: str                 # key into the workload's generated configs
    check: object               # (doc, out dir, stdout, OpResult, detail) -> None
    compare: object             # (values, reference values, problems) -> None


@dataclass(frozen=True)
class Workload:
    name: str
    make_configs: object        # seed -> {config key: document}
    ops: tuple
    fixed_schedule: bool = False  # rounds and masks do not depend on the seed
    probe: tuple | None = None    # a known-defect CLI call, run once per run


SIMULATE = Op("simulate", "simulate", check_simulate, compare_simulate)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("logistic_async", logistic_configs, (SIMULATE,), fixed_schedule=True),
        Workload("wide_quadratic", wide_configs, (SIMULATE,)),
        Workload(
            "ensembles",
            ensemble_configs,
            (
                Op("oracle-check", "oracle", check_oracle, compare_oracle),
                Op("sweep", "sweep", check_sweep, compare_sweep),
            ),
        ),
        Workload(
            "bounds_replay",
            bounds_configs,
            (Op("bounds", "bounds", check_bounds, compare_bounds),),
            probe=("bounds", "--config", str(SHIPPED_LOGISTIC)),
        ),
    )
}


def write_configs(workload: Workload, seed: int, directory: Path) -> dict:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for key, doc in workload.make_configs(seed).items():
        path = directory / f"{key}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
        paths[key] = path
    return paths


def run_op(op: Op, config_path: Path, out: Path, detail: bool, scale: bool) -> OpResult:
    out.mkdir(parents=True, exist_ok=True)
    argv = [op.command, "--config", str(config_path), "--out", str(out), "--quiet"]
    with HostSpeed(enabled=scale) as host:
        _, stdout, seconds, problem = call_cli(argv)
    result = OpResult(op.command, host.scaled(seconds), seconds)
    if problem is not None:
        result.problems.append(problem)
        return result
    doc = json.loads(config_path.read_text())
    try:
        op.check(doc, out, stdout, result, detail)
    except (OSError, ValueError, KeyError, IndexError) as err:
        result.problems.append(f"unreadable output: {type(err).__name__}: {err}")
    return result


def run_pass(workload: Workload, paths: dict, out: Path, *, detail: bool = False,
             scale: bool = False) -> list[OpResult]:
    """One pass of the workload's operations; ``scale`` samples host speed."""
    return [run_op(op, paths[op.config], out / op.command, detail, scale) for op in workload.ops]


def compare_with_reference(workload: Workload, results: list[OpResult], reference: dict):
    for op, result in zip(workload.ops, results):
        if result.problems:
            continue
        op.compare(result.values, reference[op.command], result.problems)
