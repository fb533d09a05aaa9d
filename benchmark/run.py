"""asyncfed benchmark: CLI workloads timed end to end, plus a traced run that
splits each workload's time across the package's modules.

Run from the repository root:

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of logistic_async, wide_quadratic, ensembles, bounds_replay, or
``all`` (each workload in its own child process, then a summary table).

A run generates the workload's configs from the seed, runs one untimed pass
on the reference seed whose outputs are compared with ``reference.json``
(written from the program by ``make_reference.py``), then repeats timed
passes through ``asyncfed.cli.main`` for S seconds, each preceded by a
set-up sample (``load_config`` + ``build_experiment``). Every operation's
outputs are checked; two passes on one seed must write identical bytes.

--trace 0 prints the end-to-end metrics: setup_s (median of the per-pass
samples), wall_s (mean pass time), rounds_per_s (rounds over op seconds),
peak_rss_mb, and also error_rate and oracle_misses. Times are scaled to the
host's reference speed (see hostspeed.py). --trace 1 alternates untraced and
traced passes and prints the per-module metrics and the tracing overhead
(traced minus untraced mean pass time). The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Artifacts (configs, outputs, result.json, spans.npz) go to .bench_out/.
"""

import os

# One BLAS/OpenMP thread; this must happen before numpy is imported.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("logistic_async", "wide_quadratic", "ensembles", "bounds_replay")
MIN_PASSES = 3
SETUP_MIN_REPEATS = 3
SETUP_MIN_S = 0.1
CHILD_TIMEOUT_S = 180


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program():
    """Put the checkout's ``src`` first on the path; fail if it is absent."""
    missing = [p for p in ("src/asyncfed/__init__.py", "configs") if not (ROOT / p).exists()]
    if missing:
        raise SystemExit(f"benchmark: run from the repository root; missing {', '.join(missing)}")
    sys.path.insert(0, str(ROOT / "src"))
    import asyncfed

    if Path(asyncfed.__file__).resolve().parent != (ROOT / "src" / "asyncfed").resolve():
        raise SystemExit(f"benchmark: imported asyncfed from {asyncfed.__file__}, not ./src")


def provenance() -> dict:
    import numpy as np

    sha = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted(ROOT.glob("src/**/*.py")) + sorted(ROOT.glob("configs/*.json")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


@dataclass
class Pass:
    traced: bool
    results: list = field(default_factory=list)   # one OpResult per operation
    setup: float = 0.0                            # mean set-up seconds before the pass
    summary: dict | None = None                   # span summary of a traced pass

    @property
    def wall(self) -> float:
        return sum(r.seconds for r in self.results)

    def scaled_summary(self) -> dict:
        """The span summary with times at the reference host speed."""
        factor = self.wall / sum(r.raw_seconds for r in self.results)
        return {span: {**row, "s": row["s"] * factor, "self_s": row["self_s"] * factor}
                for span, row in self.summary.items()}


def time_setup(paths: dict) -> float:
    """Mean seconds of load_config + build_experiment over the configs,
    repeated for at least SETUP_MIN_S, at the reference host speed."""
    from asyncfed.config import build_experiment, load_config
    from hostspeed import HostSpeed

    repeats = 0
    with HostSpeed() as host:
        started = time.perf_counter()
        while repeats < SETUP_MIN_REPEATS or time.perf_counter() - started < SETUP_MIN_S:
            for path in paths.values():
                build_experiment(load_config(path))
            repeats += 1
        seconds = time.perf_counter() - started
    return host.scaled(seconds) / repeats


def per_layer_metrics(summaries: list, probe_summary: dict | None) -> dict:
    """Per-pass medians of the traced passes; counts repeat exactly."""

    def med(span, key):
        return statistics.median([s[span][key] for s in summaries])

    def per(span, key, base_span, base_key):
        """Microseconds of ``span`` per unit of ``base_span``'s count; 0 without any."""
        return statistics.median([1e6 * s[span][key] / s[base_span][base_key]
                                  if s[base_span][base_key] else 0.0 for s in summaries])

    metrics = {
        "config.build_experiment.s": (med("config.build_experiment", "s"), "s"),
        "config.build_experiment.calls": (med("config.build_experiment", "calls"), "count"),
        "weights.plan_weights.s": (med("weights.plan_weights", "s"), "s"),
        "objectives.make_synthetic_shards.s": (med("objectives.make_synthetic_shards", "s"), "s"),
        "objectives.local_sgd.calls": (med("objectives.local_sgd", "calls"), "count"),
        "objectives.local_sgd.us_per_round":
            (per("objectives.local_sgd", "s", "engine.run", "work"), "us/round"),
        "objectives.value.calls": (med("objectives.value", "calls"), "count"),
        "objectives.value.us_per_round":
            (per("objectives.value", "s", "engine.run", "work"), "us/round"),
        "timing.advance_round.calls": (med("timing.advance_round", "calls"), "count"),
        "timing.advance_round.us_per_call":
            (per("timing.advance_round", "s", "timing.advance_round", "calls"), "us/call"),
        "timing.staleness_bound.s": (med("timing.staleness_bound", "s"), "s"),
        "bounds.scheme_presets.s": (med("bounds.scheme_presets", "s"), "s"),
        "core.weighted_optimum.s": (med("core.weighted_optimum", "s"), "s"),
        "core.weighted_optimum.calls": (med("core.weighted_optimum", "calls"), "count"),
        "engine.run.self_us_per_round": (per("engine.run", "self_s", "engine.run", "work"), "us/round"),
        "engine.write_trajectory_csv.s": (med("engine.write_trajectory_csv", "s"), "s"),
        "engine.write_trajectory_csv.bytes": (med("engine.write_trajectory_csv", "work"), "B"),
        "engine.run_scalar_ensemble.s": (med("engine.run_scalar_ensemble", "s"), "s"),
        "engine.run_scalar_ensemble.member_rounds":
            (med("engine.run_scalar_ensemble", "work"), "count"),
        "oracle.expectation_recursion.s": (med("oracle.expectation_recursion", "s"), "s"),
        "oracle.variance_recursion.s": (med("oracle.variance_recursion", "s"), "s"),
        "cli.main.self_s": (med("cli.main", "self_s"), "s"),
    }
    for span in summaries[0]:
        errors = med(span, "errors") + (probe_summary[span]["errors"] if probe_summary else 0)
        metrics[f"{span}.errors"] = (errors, "count")
    return metrics


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads as wl
    from spans import Tracer

    workload = wl.WORKLOADS[name]
    out = OUT / name
    shutil.rmtree(out, ignore_errors=True)
    reference = json.loads((HERE / "reference.json").read_text())[name]
    paths = wl.write_configs(workload, seed, out / "configs")
    ref_paths = wl.write_configs(workload, wl.REFERENCE_SEED, out / "reference_configs")

    ref_results = wl.run_pass(workload, ref_paths, out / "reference", detail=True)
    wl.compare_with_reference(workload, ref_results, reference)

    tracer = Tracer() if trace else None
    passes = []
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES * (1 + trace) or time.perf_counter() < deadline:
        timed = Pass(traced=trace and len(passes) % 2 == 1)
        if not trace:
            timed.setup = time_setup(paths)
        if timed.traced:
            tracer.reset()
            tracer.install()
        try:
            timed.results = wl.run_pass(workload, paths, out / "passes", scale=True)
        finally:
            if timed.traced:
                tracer.uninstall()
                timed.summary = tracer.summary()
        passes.append(timed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if trace:
        tracer.save(out / "spans.npz")

    first = passes[0].results
    for timed in passes:
        for result, first_result in zip(timed.results, first):
            if not result.problems and not first_result.problems and result.digest != first_result.digest:
                result.problems.append("outputs differ from the first pass on the same seed")
            if workload.fixed_schedule and not result.problems:
                wl.compare_schedule(result.values, reference[result.label], result.problems)

    probe = None
    probe_summary = None
    if workload.probe:
        if trace:
            tracer.reset()
            tracer.install()
        try:
            code, _, probe_s, problem = wl.call_cli(list(workload.probe))
        finally:
            if trace:
                tracer.uninstall()
                probe_summary = tracer.summary()
        failed = problem is not None and code not in (0, 3)
        probe = {"argv": list(workload.probe), "seconds": probe_s, "failed": failed,
                 "outcome": problem or f"exit code {code}"}

    every_op = ref_results + [r for timed in passes for r in timed.results]
    untraced = [timed for timed in passes if not timed.traced]
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "provenance": provenance(),
        "timed_passes": len(passes),
        "attempted": len(every_op),
        "failed": sum(1 for r in every_op if r.problems),
        "problems": [f"{r.label}: {p}" for r in every_op for p in r.problems],
        "oracle_misses": statistics.median([sum(r.misses for r in timed.results) for timed in passes]),
        "known_defect_probe": probe,
        "passes": [{"traced": timed.traced, "setup_s": timed.setup,
                    "op_seconds": [r.seconds for r in timed.results]} for timed in passes],
    }
    if trace:
        traced = [timed for timed in passes if timed.traced]
        metrics = per_layer_metrics([t.scaled_summary() for t in traced], probe_summary)
        metrics["trace.overhead_s"] = (statistics.mean(t.wall for t in traced)
                                       - statistics.mean(t.wall for t in untraced), "s")
        metrics["oracle.misses"] = (report["oracle_misses"], "count")
    else:
        producing = [(r.rounds, r.seconds) for t in untraced for r in t.results if r.rounds]
        metrics = {
            "setup_s": (statistics.median(t.setup for t in untraced), "s"),
            "wall_s": (statistics.mean(t.wall for t in untraced), "s"),
            "rounds_per_s": (sum(n for n, _ in producing) / sum(s for _, s in producing), "rounds/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    report["metrics"] = {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}
    (out / "result.json").write_text(json.dumps(report, indent=1) + "\n")
    return report


def print_report(report: dict) -> None:
    prov = report["provenance"]
    print(f"workload {report['workload']}  seed {report['seed']}  seconds {report['seconds']:g}"
          f"  trace {report['trace']}  timed passes {report['timed_passes']}")
    print("provenance: " + "  ".join(f"{k}={v}" for k, v in prov.items()))
    for key, metric in report["metrics"].items():
        print(f"  {key:<44} {metric['value']:<14.6g} {metric['unit']}")
    attempted, failed = report["attempted"], report["failed"]
    print(f"  {'error_rate':<44} {failed / attempted:<14.6g} failed/attempted ({failed} of {attempted} ops)")
    print(f"  {'oracle_misses':<44} {report['oracle_misses']:<14g} count per pass")
    probe = report["known_defect_probe"]
    if probe:
        verdict = "FAILED" if probe["failed"] else "ok"
        print(f"  known-defect probe: {' '.join(probe['argv'])} -> {verdict}: "
              f"{probe['outcome']} after {probe['seconds']:.1f} s")
    for problem in report["problems"]:
        print(f"  problem: {problem}")


def result_line(report: dict) -> str:
    return json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    })


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS belongs to it."""
    reports = []
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"benchmark: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        reports.append((name, json.loads(proc.stdout.splitlines()[-1])))
    metric_names = list(reports[0][1]["metrics"])
    print()
    print(f"{'metric':<44}" + "".join(f"{name:>16}" for name, _ in reports))
    for metric in metric_names:
        print(f"{metric:<44}" + "".join(f"{r['metrics'][metric]['value']:>16.6g}" for _, r in reports))
    print(json.dumps({
        "correct": all(r["correct"] for _, r in reports),
        "attempted": sum(r["attempted"] for _, r in reports),
        "failed": sum(r["failed"] for _, r in reports),
        "metrics": {f"{name}.{k}": v for name, r in reports for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    _import_program()
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(report)
    print(result_line(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
