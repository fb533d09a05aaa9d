import csv
import json
import math
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import asyncfed
from asyncfed import cli, core
from asyncfed.cli import main, write_sweep_csv
from asyncfed.config import load_config, validate_config
from asyncfed.core import ConfigurationError
from asyncfed.engine import (
    MAX_ENSEMBLE_SEEDS,
    MAX_HELD_ANCHORS,
    MAX_K_STEPS,
    check_scalar_ensemble,
    run_scalar_ensemble,
)
from asyncfed.objectives import SyntheticShardConfig, export_shards_csv, make_synthetic_shards
from asyncfed.oracle import OracleState, phi


def base_config(**overrides):
    document = {
        "schema_version": 1,
        "fleet": {
            "compute_times": [1, 2],
            "objective": {"family": "quadratic", "optima": [0.0, 2.0]},
        },
        "scheme": {"policy": "synchronous", "weights": "fedavg"},
        "optimization": {
            "eta_g": 1.0, "eta_l": 0.5, "k_steps": 1,
            "full_gradient": True, "theta0": 5.0,
        },
        "horizon": {"rounds": 20},
    }
    document.update(overrides)
    return document


def write_config(tmp_path, document, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return path


def read_csv_column(path, column):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    idx = header.index(column)
    return [line.split(",")[idx] for line in lines[1:]]


class TestValidation:
    # a removed key must not pass as accepted and ignored
    @pytest.mark.parametrize("section, key", [("fleet", "typo_key"), (None, "record_local_paths")])
    def test_unknown_keys_are_rejected_with_a_path(self, section, key, tmp_path, capsys):
        document = base_config()
        (document if section is None else document[section])[key] = True
        problems = validate_config(document)
        assert problems and key in problems[0]
        path = write_config(tmp_path, document)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scheme, key",
        [
            ({"policy": "synchronous", "delta_t": 2.0}, "delta_t"),
            ({"policy": "fedbuff", "m": 1, "delta_t": 2.0}, "delta_t"),
            ({"policy": "asynchronous", "m": 1}, "m"),
            ({"policy": "fedfix", "delta_t": 2.0, "m": 1}, "m"),
            ({"policy": "sample_uniform", "m": 1, "criterion": "fastest"}, "criterion"),
            ({"policy": "fedbuff", "m": 1, "criterion": "fastest"}, "criterion"),
            ({"policy": "synchronous", "custom_d": [1.0, 1.0]}, "custom_d"),
        ],
    )
    def test_scheme_keys_the_policy_ignores_are_rejected(self, scheme, key, tmp_path, capsys):
        path = write_config(tmp_path, base_config(scheme={**scheme, "weights": "fedavg"}))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"scheme/{key} is not read" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "family, key, value",
        [
            ("logistic", "optima", [1.0, 2.0]),
            ("linear", "curvature", 0.5),
            ("logistic", "noise_std", 0.1),
            ("quadratic", "dim", 2),
            ("quadratic", "samples_per_client", 16),
            ("quadratic", "concentration", 0.5),
            ("quadratic", "seed", 3),
            ("quadratic", "batch_size", 4),
        ],
    )
    def test_objective_keys_the_family_ignores_are_rejected(self, family, key, value, tmp_path, capsys):
        objective = {"family": family, key: value}
        if family == "quadratic":
            objective["optima"] = [0.0, 2.0]
        path = write_config(tmp_path, base_config(fleet={"compute_times": [1, 2], "objective": objective}))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: fleet/objective/{key} is not read by the {family} family\n"
        assert not (tmp_path / "out").exists()

    def test_bad_config_exits_nonzero(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(horizon={"rounds": 0}))
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "horizon" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new",
        [
            ('"compute_times": [1,', '"compute_times": [NaN,'),
            ('"eta_l": 0.5', '"eta_l": Infinity'),
            ('"eta_l": 0.5', '"eta_l": 1e400'),
            ('"theta0": 5.0', '"theta0": -Infinity'),
        ],
        ids=["nan_compute_time", "infinite_eta_l", "overflowing_eta_l", "negative_infinite_theta0"],
    )
    def test_non_finite_numbers_exit_2(self, tmp_path, capsys, old, new):
        text = json.dumps(base_config())
        assert old in text
        path = tmp_path / "config.json"
        path.write_text(text.replace(old, new))
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error:") and "Traceback" not in err
        assert not (tmp_path / "out" / "trajectory.csv").exists()

    def test_a_fedfix_weight_beyond_the_double_range_exits_2(self, tmp_path, capsys):
        # d_i = ceil(tau_i / delta_t) p_i ~ 5e309 is a rational no double holds
        document = base_config(scheme={"policy": "fedfix", "delta_t": 1e-300, "weights": "fedfix_time_based"})
        document["fleet"]["compute_times"] = [1e10, 2e10]
        path = write_config(tmp_path, document)
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 2
        assert capsys.readouterr().err == ("config error: scheme/weights fedfix_time_based gives client 0 "
                                           "the weight d_0 = inf, beyond the double range\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "hardware, old, new",
        [
            ("fixed", '"optima": [0.0, 2.0]', '"optima": [0.0, 1%s]' % ("0" * 400)),
            ("fixed", '"compute_times": [1, 2]', '"compute_times": [1, 1%s]' % ("0" * 400)),
            ("exponential", '"compute_times": [1, 2]', '"compute_times": [1, 1%s]' % ("0" * 400)),
            ("fixed", '"rounds": 20', '"rounds": %s' % ("9" * 5000)),  # past Python's digit limit
        ],
        ids=["optimum", "fixed_compute_time", "exponential_compute_time", "rounds"],
    )
    def test_integers_beyond_the_double_range_exit_2(self, tmp_path, capsys, hardware, old, new):
        document = base_config()
        document["fleet"]["hardware"] = hardware
        text = json.dumps(document)
        assert old in text
        path = tmp_path / "config.json"
        path.write_text(text.replace(old, new))
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: config integer of") and "overflows a double" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_integers_inside_the_double_range_stay_exact(self, tmp_path):
        text = json.dumps(base_config(tau_max=10**308))
        path = tmp_path / "config.json"
        path.write_text(text)
        tau_max = load_config(path)["tau_max"]
        assert type(tau_max) is int and tau_max == 10**308
        path.write_text(text.replace(str(10**308), str(2**1024)))  # 309 digits, past the largest double
        with pytest.raises(ConfigurationError, match="config integer of 309 digits overflows a double"):
            load_config(path)

    @pytest.mark.parametrize(
        "key, message",
        [
            ("distribution_ids", "distribution_ids length must match compute_times"),
            ("initial_clocks", "initial_clocks length must match the fleet"),
        ],
    )
    def test_empty_per_client_lists_exit_2(self, tmp_path, capsys, key, message):
        document = base_config()
        document["fleet"][key] = []
        path = write_config(tmp_path, document)
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out" / "trajectory.csv").exists()

    @pytest.mark.parametrize("command", ["simulate", "bounds"])
    @pytest.mark.parametrize(
        "fleet, message",
        [
            ({"initial_clocks": [1]}, "initial_clocks length must match the fleet"),
            ({"initial_clocks": []}, "initial_clocks length must match the fleet"),
            ({"initial_clocks": [1, 2], "hardware": "exponential"}, "initial clock offsets require fixed hardware"),
        ],
    )
    def test_initial_clocks_the_fleet_cannot_use_exit_2(self, tmp_path, capsys, command, fleet, message):
        document = base_config()
        document["fleet"].update(fleet)
        out = tmp_path / "out"
        code = main([command, "--config", str(write_config(tmp_path, document)), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not list(out.glob("*"))

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error:") and "absent.json" in err and "Traceback" not in err

    def test_non_utf8_config_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(json.dumps(base_config()).replace("quadratic", "quadr\xe4tic").encode("latin-1"))
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error:") and "Traceback" not in err

    @pytest.mark.parametrize("command", ["simulate", "oracle-check", "sweep"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, command):
        path = write_config(tmp_path, base_config(sweep={"axis": "eta_l", "values": [0.5]}))
        code = main([command, "--config", str(path), "--out", str(tmp_path / "out"), "--seed", "-3"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error:") and "-3" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_a_tau_max_the_schedule_exceeds_exits_2(self, tmp_path, capsys, command):
        # client 2 (tau 9) delivers with staleness 13 under the asynchronous policy
        document = base_config(
            fleet={"compute_times": [1, 2, 9], "objective": {"family": "quadratic", "optima": [0.0, 1.0, 2.0]}},
            scheme={"policy": "asynchronous", "weights": "async_time_based"},
            sweep={"axis": "eta_l", "values": [0.5]},
            tau_max=3,
        )
        out = tmp_path / "out"
        code = main([command, "--config", str(write_config(tmp_path, document)), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error:") and "tau_max 3" in err and "Traceback" not in err
        assert not list(out.glob("*"))
        document["tau_max"] = 13
        assert main([command, "--config", str(write_config(tmp_path, document)), "--out", str(out)]) == 0

    def test_k_steps_above_the_maximum_exits_2(self, tmp_path, capsys):
        text = json.dumps(base_config())
        path = tmp_path / "config.json"
        path.write_text(text.replace('"k_steps": 1', '"k_steps": 1e30'))
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error:") and "k_steps" in err and "Traceback" not in err
        document = base_config()
        document["optimization"]["k_steps"] = MAX_K_STEPS
        assert validate_config(document) == []

    def test_ensemble_sizes_above_their_caps_exit_2(self, tmp_path, capsys, monkeypatch):
        def started(*args):
            raise AssertionError("an ensemble started")

        monkeypatch.setattr("asyncfed.cli.run_scalar_ensemble", started)
        monkeypatch.setattr("asyncfed.cli.expectation_recursion", started)
        monkeypatch.setattr("asyncfed.cli.variance_recursion", started)
        monkeypatch.setattr("asyncfed.cli.sweep_rows", started)
        oracle = base_config(scheme={"policy": "asynchronous", "weights": "identical"},
                             oracle_check={"checkpoints": [1], "n_runs": 10**13})
        oracle["fleet"].update(hardware="exponential", compute_times=[1.0, 1.0])
        path = write_config(tmp_path, oracle)
        assert main(["oracle-check", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: n_runs x clients must be at most") and "Traceback" not in err
        sweep = base_config(ensemble={"n_seeds": 10**12}, sweep={"axis": "eta_l", "values": [0.5]})
        path = write_config(tmp_path, sweep)
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "ensemble/n_seeds" in err and "Traceback" not in err

    def test_the_largest_ensemble_sizes_in_use_stay_allowed(self):
        assert validate_config(base_config(ensemble={"n_seeds": MAX_ENSEMBLE_SEEDS})) == []
        def state(m):
            return OracleState("async", 0.5, (1.0,) * m, (0.0,) * m, 0.0)

        for n_runs, m in [(100_000, 10), (MAX_HELD_ANCHORS // 4, 4)]:
            check_scalar_ensemble(state(m), (20,), n_runs)
        with pytest.raises(ConfigurationError, match="n_runs x clients"):
            check_scalar_ensemble(state(4), (20,), MAX_HELD_ANCHORS // 4 + 1)

    @pytest.mark.parametrize(
        "command, section, key, value",
        [
            ("simulate", "optimization", "k_steps", 2.0),
            ("oracle-check", "oracle_check", "n_runs", 1000.0),
            ("oracle-check", "oracle_check", "seed", 5.0),
            ("oracle-check", "oracle_check", "checkpoints", [1, 3.0]),
            ("simulate", "horizon", "rounds", 20.0),
        ],
        ids=["k_steps", "n_runs", "oracle_seed", "checkpoints", "rounds"],
    )
    def test_integral_floats_in_integer_fields_exit_2(self, tmp_path, capsys, command, section, key, value):
        document = base_config()
        document.setdefault(section, {})[key] = value
        path = write_config(tmp_path, document)
        code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error:") and key in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_two_horizons_rejected(self, tmp_path):
        path = write_config(tmp_path, base_config(horizon={"rounds": 5, "time": 2.0}))
        with pytest.raises(ConfigurationError):
            load_config(path)


class TestSimulate:
    def test_contraction_run_has_strictly_decreasing_distance(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out), "--quiet"]) == 0
        dist = [float(v) for v in read_csv_column(out / "trajectory.csv", "dist_sq")]
        assert all(b < a for a, b in zip(dist, dist[1:]))

    def test_identical_configs_give_byte_identical_csv(self, tmp_path):
        document = base_config()
        document["fleet"]["objective"]["noise_std"] = 0.3
        document["optimization"]["full_gradient"] = False
        path = write_config(tmp_path, document)
        for name in ("a", "b"):
            assert main(["simulate", "--config", str(path), "--out", str(tmp_path / name), "--quiet"]) == 0
        assert (tmp_path / "a/trajectory.csv").read_bytes() == (tmp_path / "b/trajectory.csv").read_bytes()

    def test_sync_fedavg_surrogate_is_the_federated_loss_bit_for_bit(self, tmp_path):
        # every client delivers once with d_i = p_i, so both columns add the
        # same products in client order; a compensated sum would move digits
        document = base_config(horizon={"rounds": 60})
        document["fleet"]["compute_times"] = [1, 2, 3, 4, 5, 6, 7]
        document["fleet"]["objective"] = {
            "family": "quadratic", "optima": [0.0, 1.0, -2.0, 3.5, 0.25, 7.0, -1.5], "noise_std": 0.4,
        }
        document["optimization"].update(full_gradient=False, eta_l=0.3)
        path = write_config(tmp_path, document)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out), "--quiet"]) == 0
        surrogate = read_csv_column(out / "trajectory.csv", "loss_surrogate")
        federated = read_csv_column(out / "trajectory.csv", "loss_fed")
        assert len(surrogate) == 61 and surrogate[-1] == ""
        assert surrogate[:-1] == federated[:-1]

    def test_time_budget_row_count_tracks_completions(self, tmp_path):
        document = base_config(
            scheme={"policy": "asynchronous", "weights": "async_time_based"},
            horizon={"time": 30.0},
        )
        document["fleet"]["compute_times"] = [1, 2, 5]
        document["fleet"]["objective"]["optima"] = [0.0, 1.0, 2.0]
        document["optimization"]["eta_l"] = 0.1
        path = write_config(tmp_path, document)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out), "--quiet"]) == 0
        rows = read_csv_column(out / "trajectory.csv", "n")
        n_rounds = len(rows) - 1  # final model row
        expected = sum(math.floor(30.0 / t) for t in (1, 2, 5))
        assert abs(n_rounds - expected) <= 3

    def test_run_log_carries_the_reexecution_material(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        main(["simulate", "--config", str(path), "--out", str(out), "--quiet"])
        log = json.loads((out / "run_log.json").read_text())
        assert log["schema_version"] == 1
        assert log["config"]["horizon"] == {"rounds": 20}
        assert "config_sha256" in log and "seeds_resolved" in log
        assert log["diverged"] is False and log["divergence"] is None

    @pytest.mark.parametrize("diverge", [False, True])
    def test_run_log_times_each_stage_within_the_command_wall_time(self, tmp_path, diverge):
        document = base_config(
            scheme={"policy": "asynchronous", "weights": "identical"}, horizon={"time": 40.0}
        )
        if diverge:
            document["fleet"]["objective"]["curvature"] = 5.0
            document["optimization"]["eta_l"] = 1.9
        path = write_config(tmp_path, document)
        out = tmp_path / "out"
        started = time.perf_counter()
        assert main(["simulate", "--config", str(path), "--out", str(out), "--quiet"]) == 0
        wall = time.perf_counter() - started
        log = json.loads((out / "run_log.json").read_text())
        assert log["diverged"] is diverge
        timing = log["timing_s"]
        assert set(timing) == {"schedule", "local_work", "aggregate", "metrics", "io"}
        assert all(isinstance(v, float) and v >= 0.0 for v in timing.values())
        assert sum(timing.values()) <= wall
        assert sum(v for k, v in timing.items() if k != "io") <= log["wall_time_s"]

    def test_divergence_is_reported_but_not_a_failure(self, tmp_path):
        document = base_config()
        document["fleet"]["objective"]["curvature"] = 5.0
        document["optimization"]["eta_l"] = 1.9
        document["horizon"] = {"rounds": 300}
        path = write_config(tmp_path, document)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out), "--quiet"]) == 0
        log = json.loads((out / "run_log.json").read_text())
        assert log["diverged"] is True
        # the model passes the divergence threshold after the last CSV row
        n_rows = len(read_csv_column(out / "trajectory.csv", "n"))
        assert log["divergence"] == {"round": n_rows - 1, "cause": "threshold"}

    @pytest.mark.filterwarnings("error")
    def test_an_overflowing_model_is_recorded_without_warnings(self, tmp_path):
        # theta0 = 1e308: its losses and squared distance overflow to inf and
        # NaN in the metrics rows, which the run records without a warning
        document = load_config(Path(__file__).resolve().parents[1] / "configs" / "sync_quadratic.json")
        document["optimization"]["theta0"] = 1e308
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(write_config(tmp_path, document)), "--out", str(out),
                     "--quiet"]) == 0
        log = json.loads((out / "run_log.json").read_text())
        assert log["divergence"] == {"round": 0, "cause": "threshold"}
        first = (out / "trajectory.csv").read_text().splitlines()[1].split(",")
        assert first[3:6] == ["nan", "", "inf"]  # loss_fed, loss_surrogate (NaN: empty), dist_sq


class TestSweep:
    def test_single_value_matches_the_simulate_summary(self, tmp_path):
        document = base_config(ensemble={"n_seeds": 1, "base_seed": 0})
        path = write_config(tmp_path, document)
        out = tmp_path / "sweep"
        assert main([
            "sweep", "--config", str(path), "--out", str(out),
            "--axis", "eta_l", "--values", "0.5", "--quiet",
        ]) == 0
        sweep_lines = (out / "sweep.csv").read_text().splitlines()
        assert sweep_lines[0] == "axis,value,n_seeds,loss_mean,loss_std,within_run_std,mean_rounds,diverged"
        loss_mean = float(sweep_lines[1].split(",")[3])

        sim_out = tmp_path / "sim"
        main(["simulate", "--config", str(path), "--out", str(sim_out), "--seed", "0", "--quiet"])
        fed = [float(v) for v in read_csv_column(sim_out / "trajectory.csv", "loss_fed")]
        window = max(1, math.ceil(0.05 * len(fed)))
        assert loss_mean == pytest.approx(float(np.mean(fed[-window:])), rel=1e-12)

    def test_wide_fixed_windows_reproduce_the_synchronous_result(self, tmp_path):
        document = base_config(
            scheme={"policy": "fedfix", "delta_t": 2.0, "weights": "fedfix_time_based"},
            ensemble={"n_seeds": 1, "base_seed": 0},
        )
        path = write_config(tmp_path, document)
        out = tmp_path / "sweep"
        assert main([
            "sweep", "--config", str(path), "--out", str(out),
            "--axis", "delta_t", "--values", "2,4", "--quiet",
        ]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        losses = [float(r.split(",")[3]) for r in rows]
        assert losses[0] == losses[1]

        sync_out = tmp_path / "sync"
        sync_path = write_config(tmp_path, base_config(ensemble={"n_seeds": 1}), name="sync.json")
        main(["simulate", "--config", str(sync_path), "--out", str(sync_out), "--seed", "0", "--quiet"])
        fed = [float(v) for v in read_csv_column(sync_out / "trajectory.csv", "loss_fed")]
        window = max(1, math.ceil(0.05 * len(fed)))
        assert losses[0] == pytest.approx(float(np.mean(fed[-window:])), rel=1e-12)

    def test_missing_values_rejected(self, tmp_path):
        path = write_config(tmp_path, base_config())
        code = main(["sweep", "--config", str(path), "--out", str(tmp_path / "o"), "--axis", "eta_l"])
        assert code == 2

    def test_seed_overrides_the_base_seed(self, tmp_path):
        noisy = base_config(ensemble={"n_seeds": 3, "base_seed": 0})
        noisy["optimization"]["full_gradient"] = False
        noisy["fleet"]["objective"]["noise_std"] = 0.5
        args = ["--axis", "eta_l", "--values", "0.1,0.3", "--quiet"]
        outputs = {}
        for name, document, extra in [
            ("plain", noisy, []),
            ("seeded", noisy, ["--seed", "5"]),
            ("base5", dict(noisy, ensemble={"n_seeds": 3, "base_seed": 5}), []),
        ]:
            path = write_config(tmp_path, document, name=f"{name}.json")
            out = tmp_path / name
            assert main(["sweep", "--config", str(path), "--out", str(out)] + extra + args) == 0
            outputs[name] = (out / "sweep.csv").read_bytes()
        assert outputs["seeded"] == outputs["base5"]
        assert outputs["seeded"] != outputs["plain"]

    @pytest.mark.parametrize("axis, value", [("k_steps", 1.5), ("m", 2.5)])
    def test_fractional_values_on_integer_axes_exit_2(self, tmp_path, capsys, axis, value):
        document = base_config(scheme={"policy": "fedbuff", "m": 1, "weights": "fedavg"},
                               sweep={"axis": axis, "values": [1, value]})
        path = write_config(tmp_path, document)
        for extra in ([], ["--values", f"1,{value}"]):  # from sweep.values, then from --values
            code = main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")] + extra)
            err = capsys.readouterr().err
            assert code == 2
            assert err.startswith("config error:") and str(value) in err and "Traceback" not in err
        assert not (tmp_path / "o" / "sweep.csv").exists()

    @pytest.mark.parametrize("values", ["1e30", "abc", "nan"])
    def test_bad_values_exit_2(self, tmp_path, capsys, values):
        path = write_config(tmp_path, base_config())
        code = main(["sweep", "--config", str(path), "--out", str(tmp_path / "o"),
                     "--axis", "k_steps", "--values", values])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error:") and "Traceback" not in err

    @pytest.mark.parametrize("axis, scheme, values, builds", [
        ("k_steps", {"policy": "asynchronous", "weights": "async_time_based"}, "1,2,4", 1),
        ("eta_l", {"policy": "asynchronous", "weights": "async_time_based"}, "0.1,0.2,0.4", 1),
        ("delta_t", {"policy": "fedfix", "delta_t": 1.0, "weights": "fedfix_time_based"}, "0.5,1,2", 3),
        ("m", {"policy": "fedbuff", "m": 1, "weights": "fedavg"}, "1,2", 2),
    ])
    def test_the_experiment_is_built_once_per_sweep_on_member_axes(self, tmp_path, monkeypatch, axis, scheme,
                                                                   values, builds):
        # eta_l and k_steps values replace a field of one run config; a
        # delta_t or m value changes the policy, so each builds its own
        calls, build = [], cli.build_experiment

        def counted(document, *args, **kwargs):
            calls.append(document)
            return build(document, *args, **kwargs)

        monkeypatch.setattr(cli, "build_experiment", counted)
        path = write_config(tmp_path, base_config(scheme=scheme, ensemble={"n_seeds": 2}))
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(path), "--out", str(out), "--axis", axis, "--values", values,
                     "--quiet"]) == 0
        assert len(calls) == builds
        assert len((out / "sweep.csv").read_text().splitlines()) == 1 + len(values.split(","))

    @pytest.mark.parametrize("axis, values, message", [
        ("k_steps", "1,0", f"k_steps must lie in [1, {MAX_K_STEPS}]"),
        ("eta_l", "0.5,-0.1", "learning rates must be nonnegative"),
    ])
    def test_an_out_of_range_member_value_exits_2_before_any_run(self, tmp_path, capsys, monkeypatch, axis,
                                                                 values, message):
        def started(*args):
            raise AssertionError("a run started")

        monkeypatch.setattr(cli, "run_members", started)
        path = write_config(tmp_path, base_config())
        code = main(["sweep", "--config", str(path), "--out", str(tmp_path / "o"), "--axis", axis,
                     "--values", values])
        assert code == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "o" / "sweep.csv").exists()

    def test_failed_write_leaves_no_temporary_and_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "sweep.csv"
        path.write_text("previous sweep\n")
        row = {"axis": "eta_l", "value": 0.5, "n_seeds": 1, "loss_mean": 1.0, "loss_std": 0.0,
               "within_run_std": 0.0, "mean_rounds": 20.0, "diverged": 0}
        with pytest.raises(ValueError):
            write_sweep_csv([row, dict(row, loss_mean="not a number")], path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.csv"]
        assert path.read_text() == "previous sweep\n"


class TestOracleCheck:
    def test_deterministic_scheme_passes_exactly(self, tmp_path, capsys):
        document = base_config(oracle_check={"checkpoints": [1, 5], "n_runs": 16, "seed": 0})
        path = write_config(tmp_path, document)
        assert main(["oracle-check", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "overall_pass = true" in out

    def test_single_draw_sampling_fixed_point(self, tmp_path, capsys):
        document = base_config(
            scheme={"policy": "sample_uniform", "m": 1, "weights": "identical"},
            oracle_check={"checkpoints": [1, 10, 40], "n_runs": 4000, "seed": 1},
        )
        document["fleet"]["compute_times"] = [1, 1]
        document["optimization"]["theta0"] = 1.0
        path = write_config(tmp_path, document)
        assert main(["oracle-check", "--config", str(path)]) == 0
        assert "overall_pass = true" in capsys.readouterr().out

    def test_each_closed_form_is_computed_once(self, tmp_path, monkeypatch, capsys):
        import asyncfed.cli
        import asyncfed.oracle

        calls = {"expectation_recursion": 0, "variance_recursion": 0}

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls[fn.__name__] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            wrapper = counted(getattr(asyncfed.oracle, name))
            monkeypatch.setattr(asyncfed.oracle, name, wrapper)
            monkeypatch.setattr(asyncfed.cli, name, wrapper)
        document = base_config(
            scheme={"policy": "asynchronous", "weights": "identical"},
            oracle_check={"checkpoints": [1, 5], "n_runs": 64, "seed": 0},
        )
        document["fleet"]["hardware"] = "exponential"
        document["fleet"]["compute_times"] = [1.0, 1.0]
        path = write_config(tmp_path, document)
        out = tmp_path / "oc"
        assert main(["oracle-check", "--config", str(path), "--out", str(out)]) == 0
        assert (out / "oracle_trajectory.csv").exists()
        assert calls == {"expectation_recursion": 1, "variance_recursion": 1}

    def test_seed_replaces_the_ensemble_seed(self, tmp_path, capsys):
        def oracle_json(name, seed, extra):
            document = base_config(
                scheme={"policy": "asynchronous", "weights": "identical"},
                oracle_check={"checkpoints": [1, 5], "n_runs": 64, "seed": seed},
            )
            document["fleet"]["hardware"] = "exponential"
            document["fleet"]["compute_times"] = [1.0, 1.0]
            path = write_config(tmp_path, document, name=f"{name}.json")
            out = tmp_path / name
            assert main(["oracle-check", "--config", str(path), "--out", str(out)] + extra) == 0
            return (out / "oracle_check.json").read_bytes()

        outputs = {
            "plain": oracle_json("plain", 0, []),
            "seeded0": oracle_json("seeded0", 0, ["--seed", "0"]),
            "seeded1": oracle_json("seeded1", 0, ["--seed", "1"]),
            "seeded2": oracle_json("seeded2", 0, ["--seed", "2"]),
            "config2": oracle_json("config2", 2, []),
        }
        assert outputs["seeded0"] == outputs["plain"]
        assert outputs["seeded2"] == outputs["config2"]
        mc_means = {
            name: [row["mc_mean"] for row in json.loads(data)["checkpoints"]]
            for name, data in outputs.items()
        }
        assert mc_means["seeded1"] != mc_means["seeded2"]
        # without --seed the ensemble is the kernel's on oracle_check.seed
        direct = run_scalar_ensemble(OracleState("async", phi(0.5, 1), (1.0, 1.0), (0.0, 2.0), 5.0), (1, 5), 64, 0)
        assert mc_means["plain"] == direct.mean[1:].tolist()

    SHIPPED = Path(__file__).resolve().parents[1] / "configs" / "async_exponential_oracle.json"

    def test_the_shipped_async_config_gates_every_column(self, tmp_path, capsys):
        out = tmp_path / "oc"
        assert main(["oracle-check", "--config", str(self.SHIPPED), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "FAIL" not in stdout and "(" not in stdout
        assert stdout.splitlines()[-1] == "overall_pass = true"
        payload = json.loads((out / "oracle_check.json").read_text())
        rows = {row["n"]: row for row in payload["checkpoints"]}
        assert all(row["mean_gate"] == row["m2_gate"] == "checked" for row in rows.values())
        assert all(row["mean_pass"] and row["m2_pass"] for row in rows.values())
        # the exact rationals of the jump-linear recursion
        assert abs(rows[5]["oracle_m2"] - 2945 / 8192) <= 1e-12
        assert abs(rows[20]["oracle_m2"] - 0.3333673254759739) <= 1e-12
        assert abs(rows[5]["oracle_mean"] - 1.177734375) <= 1e-12
        assert abs(rows[20]["oracle_mean"] - 1.0008179847336578) <= 1e-12

    def test_the_configured_weights_set_the_step(self, tmp_path, capsys):
        def oracle_json(weights):
            document = load_config(self.SHIPPED)
            document["scheme"]["weights"] = weights
            document["oracle_check"]["n_runs"] = 20_000
            out = tmp_path / weights
            assert main(["oracle-check", "--config", str(write_config(tmp_path, document)), "--out", str(out)]) == 0
            assert capsys.readouterr().out.splitlines()[-1] == "overall_pass = true"
            return json.loads((out / "oracle_check.json").read_text())["checkpoints"]

        identical, fedavg = oracle_json("identical"), oracle_json("fedavg")
        # one round from theta0 = 0 moves the mean by c (E x_j - 0): c = 1/2, then 1/4
        assert identical[0]["oracle_mean"] == 0.5 and fedavg[0]["oracle_mean"] == 0.25
        assert identical[0]["mc_mean"] != fedavg[0]["mc_mean"]

    def test_unequal_weights_are_unsupported(self, tmp_path, capsys):
        document = load_config(self.SHIPPED)
        document["scheme"] = {"policy": "asynchronous", "weights": "custom", "custom_d": [1.0, 0.5]}
        assert main(["oracle-check", "--config", str(write_config(tmp_path, document))]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("unsupported: ") and "equal weights" in err

    def test_a_fleet_above_the_second_moment_cap_exits_3_before_allocating(self, tmp_path, capsys, monkeypatch):
        import tracemalloc

        def started(*args):
            raise AssertionError("an ensemble started")

        monkeypatch.setattr("asyncfed.cli.run_scalar_ensemble", started)
        m_clients = 4096  # one (M+1)^2 matrix alone passes MAX_HELD_ANCHORS: 134 MB
        assert (m_clients + 1) ** 2 > MAX_HELD_ANCHORS
        document = load_config(self.SHIPPED)
        document["fleet"]["compute_times"] = [1.0] * m_clients
        document["fleet"]["objective"]["optima"] = [float(i % 7) for i in range(m_clients)]
        path = write_config(tmp_path, document)
        tracemalloc.start()
        try:
            code = main(["oracle-check", "--config", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("unsupported: ") and "second moment" in err
        assert peak < (16 << 20)

    def test_oracle_csv_time_is_the_simulated_time_on_fixed_sync(self, tmp_path, capsys):
        # fixed times 1 and 2: every synchronous round lasts 2
        config = str(self.SHIPPED.parent / "sync_quadratic.json")
        assert main(["simulate", "--config", config, "--out", str(tmp_path / "sim"), "--quiet"]) == 0
        assert main(["oracle-check", "--config", config, "--out", str(tmp_path / "oc")]) == 0
        got = read_csv_column(tmp_path / "oc" / "oracle_trajectory.csv", "t")
        assert got == read_csv_column(tmp_path / "sim" / "trajectory.csv", "t")[:len(got)]
        assert got[:3] == ["0", "2", "4"]

    def test_oracle_csv_time_steps_by_the_mean_round_at_the_fleets_rate(self, tmp_path, capsys):
        # two exponential clients of mean 2: the first of them delivers
        # after 1 on average
        document = base_config(
            fleet={"compute_times": [2.0, 2.0], "hardware": "exponential",
                   "objective": {"family": "quadratic", "optima": [0.0, 2.0]}},
            scheme={"policy": "asynchronous", "weights": "identical"},
            oracle_check={"checkpoints": [1, 5], "n_runs": 64, "seed": 0},
        )
        out = tmp_path / "oc"
        assert main(["oracle-check", "--config", str(write_config(tmp_path, document)), "--out", str(out)]) == 0
        assert read_csv_column(out / "oracle_trajectory.csv", "t") == [str(n) for n in range(6)]

    @pytest.mark.parametrize(
        "fleet, scheme, reason",
        [
            ({"compute_times": [1.0, 2.0], "hardware": "exponential"}, {"policy": "synchronous", "weights": "fedavg"},
             "needs one mean time on exponential hardware"),
            ({"compute_times": [1, 2]}, {"policy": "sample_uniform", "m": 1, "weights": "fedavg"},
             "needs one compute time for a sampled round"),
            ({"compute_times": [1, 2], "initial_clocks": [1, 1]}, {"policy": "synchronous", "weights": "fedavg"},
             "needs every clock to start at 0"),
        ],
    )
    def test_fleets_without_a_round_duration_exit_3_before_the_ensemble(self, tmp_path, capsys, monkeypatch,
                                                                         fleet, scheme, reason):
        def started(*args):
            raise AssertionError("an ensemble started")

        monkeypatch.setattr("asyncfed.cli.run_scalar_ensemble", started)
        fleet["objective"] = {"family": "quadratic", "optima": [0.0, 2.0]}
        document = base_config(fleet=fleet, scheme=scheme,
                               oracle_check={"checkpoints": [1, 5], "n_runs": 64, "seed": 0})
        out = tmp_path / "oc"
        assert main(["oracle-check", "--config", str(write_config(tmp_path, document)), "--out", str(out)]) == 3
        stdout, err = capsys.readouterr()
        assert stdout == "" and err == f"unsupported: the oracle CSV's time column {reason}\n"
        assert not out.exists()

    def test_heterogeneous_async_is_unsupported(self, tmp_path, capsys):
        document = base_config(scheme={"policy": "asynchronous", "weights": "identical"})
        document["fleet"]["hardware"] = "exponential"
        document["fleet"]["compute_times"] = [1.0, 3.0]
        path = write_config(tmp_path, document)
        assert main(["oracle-check", "--config", str(path)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("unsupported: ")


def report_terms(out):
    """Each ``scheme = `` report of the ``bounds`` output, as a dict of its
    ``key = value`` lines, by scheme."""
    reports = out.split("scheme = ")[1:]
    return {report.split("\n")[0]: dict(line.split(" = ") for line in report.splitlines()[1:] if " = " in line)
            for report in reports}


class TestBoundsCommand:
    SHIPPED = Path(__file__).resolve().parents[1] / "configs"

    def test_residual_gap_is_computed_once(self, tmp_path, monkeypatch, capsys):
        # on a GLM fleet each residual_mean_gap call is a descent of every
        # client's optimum
        from asyncfed import bounds

        calls = []
        gap = bounds.residual_mean_gap
        monkeypatch.setattr(bounds, "residual_mean_gap", lambda fleet: calls.append(fleet) or gap(fleet))
        document = base_config(fleet={
            "compute_times": [1, 2, 3],
            "objective": {"family": "logistic", "dim": 5, "samples_per_client": 32, "concentration": 0.1,
                          "seed": 1},
        })
        assert main(["bounds", "--config", str(write_config(tmp_path, document))]) == 0
        assert len(calls) == 1
        assert "scheme = fedfix" in capsys.readouterr().out

    def test_preset_table_and_report(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        assert main(["bounds", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "parameter        sync              async             fedfix" in out
        assert "scheme = sync" in out and "scheme = async" in out
        # the full-participation column needs no delay or window slack
        sync_section = out.split("scheme = sync")[1].split("scheme =")[0]
        assert "tau = 0" in sync_section
        assert "window = 1" in sync_section
        assert "note: smoothness defaulted" in out

    def test_report_file_written(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out_dir = tmp_path / "rep"
        assert main(["bounds", "--config", str(path), "--out", str(out_dir)]) == 0
        text = (out_dir / "bounds_report.txt").read_text()
        assert "ocal_constants = 1" in text

    @pytest.mark.parametrize("key, value", [("eta_l", 1e160), ("eta_l", 1e200), ("eta_g", 1e300)])
    def test_terms_that_overflow_report_inf(self, tmp_path, capsys, key, value):
        # squares of these step sizes overflow a double: the terms are inf,
        # and a term with a zero factor (k_steps - 1 = 0, a sync delay of 0)
        # stays 0
        document = load_config(self.SHIPPED / "sync_quadratic.json")
        document["optimization"][key] = value
        assert main(["bounds", "--config", str(write_config(tmp_path, document))]) == 0
        terms = report_terms(capsys.readouterr().out)
        assert terms["async"]["eps_beta"] == terms["fedfix"]["eps_alpha"] == "inf"
        assert terms["async"]["total"] == terms["fedfix"]["total"] == "inf"
        assert all(t["eps_k"] == "0" for t in terms.values())
        assert math.isfinite(float(terms["sync"]["eps_alpha"])) and math.isfinite(float(terms["sync"]["total"]))

    def test_an_overflowing_rho_gives_a_zero_rate_ceiling(self, tmp_path, capsys):
        # rho^2 overflows: the damping is inf and the admissible local rate 0
        document = load_config(self.SHIPPED / "sync_quadratic.json")
        document["bounds"] = {"rho": 1e200}
        assert main(["bounds", "--config", str(write_config(tmp_path, document))]) == 0
        out = capsys.readouterr().out
        assert out.count("lr_max = 0\n") == 3

    @pytest.mark.parametrize("scheme", [
        None,
        {"policy": "fedfix", "delta_t": 1e-300, "weights": "fedfix_time_based"},
    ], ids=["bounds_delta_t", "fedfix_policy"])
    def test_a_fedfix_staleness_beyond_the_double_range_gives_inf_terms(self, tmp_path, capsys, scheme):
        # ceil(tau / delta_t) ~ 2e300 is an int whose exact square is beyond
        # the double range: the square is inf, the delay terms with it, and
        # a term with a zero factor (beta = 0) stays 0
        document = load_config(self.SHIPPED / "sync_quadratic.json")
        if scheme is None:
            document["bounds"] = {"delta_t": 1e-300}
        else:
            document["scheme"] = scheme
        assert main(["bounds", "--config", str(write_config(tmp_path, document))]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        fedfix = report_terms(out)["fedfix"]
        assert 1e300 < float(fedfix["tau"]) < 3e300
        assert fedfix["eps_alpha"] == fedfix["total"] == "inf"
        assert fedfix["eps_beta"] == "0"
        # the synchronous and asynchronous reports read no delta_t
        golden = (self.SHIPPED.parent / "tests" / "golden" / "bounds_sync_quadratic.txt").read_text()
        assert out.split("scheme = sync")[1].split("scheme = fedfix")[0] == \
            golden.split("scheme = sync")[1].split("scheme = fedfix")[0]
        assert out.split("scheme = async")[1] == golden.split("scheme = async")[1]

    def test_a_fedfix_period_beyond_the_double_range_is_an_inf_staleness_and_window(self, tmp_path, capsys):
        # ceil(1e-15 / 5e-324) ~ 2e308 rounds, an int no double holds: tau
        # and the window are inf, and so are the terms they enter
        document = load_config(self.SHIPPED / "sync_quadratic.json")
        document["fleet"]["compute_times"] = [1e-15, 1e-15]
        document["bounds"] = {"delta_t": 5e-324}
        assert main(["bounds", "--config", str(write_config(tmp_path, document))]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        fedfix = report_terms(out)["fedfix"]
        assert fedfix["tau"] == fedfix["window"] == fedfix["eps_w"] == fedfix["total"] == "inf"
        assert fedfix["lr_max"] == "0"

    def test_a_fedfix_weight_beyond_the_double_range_is_an_inf_max_d(self, tmp_path, capsys):
        # the FedFix preset's d_i ~ 5e309 is inf; its report reads no d
        document = load_config(self.SHIPPED / "sync_quadratic.json")
        document["fleet"]["compute_times"] = [1e10, 2e10]
        document["bounds"] = {"delta_t": 1e-300}
        assert main(["bounds", "--config", str(write_config(tmp_path, document))]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        max_d = next(line for line in out.splitlines() if line.startswith("max_d"))
        assert max_d.split() == ["max_d", "0.5", "1.5", "inf"]
        assert set(report_terms(out)) == {"sync", "async", "fedfix"}

    def test_an_int_step_size_whose_square_is_beyond_the_double_range_gives_inf_terms(self, tmp_path, capsys):
        # eta_l = 10**200 is an int, and its exact square no double holds
        document = load_config(self.SHIPPED / "sync_quadratic.json")
        document["optimization"].update(eta_l=10**200, k_steps=2)
        assert main(["bounds", "--config", str(write_config(tmp_path, document))]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert all(terms["eps_k"] == terms["total"] == "inf" for terms in report_terms(out).values())

    def test_rounds_in_a_budget_beyond_the_double_range_count_exactly(self, tmp_path, capsys):
        # T / max(tau) overflows a double: the rounds in T are the exact
        # quotient's floor, printed as an integer, and eps_f, whose
        # denominator overflows, is 0
        document = load_config(self.SHIPPED / "k_sweep_noisy_quadratic.json")
        document["fleet"]["compute_times"] = [t * 0.125 for t in document["fleet"]["compute_times"]]
        document["bounds"] = {"time_budget": 1.7e308}
        assert main(["bounds", "--config", str(write_config(tmp_path, document))]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert "rounds_in_T      inf               inf               inf" in out
        n_rounds = str(int(Fraction(1.7e308) / Fraction(0.625)))
        assert len(n_rounds) == 309
        for terms in report_terms(out).values():
            assert terms["n_rounds"] == n_rounds
            assert terms["eps_f"] == "0"
            assert math.isfinite(float(terms["total"])) and float(terms["total"]) > 0


class TestGenShards:
    def test_writes_one_csv_per_client(self, tmp_path):
        document = base_config()
        document["fleet"]["compute_times"] = [1, 2, 3]
        document["fleet"]["objective"] = {
            "family": "logistic", "dim": 3, "samples_per_client": 8,
            "concentration": 0.5, "seed": 2, "batch_size": 4,
        }
        document["scheme"] = {"policy": "synchronous", "weights": "fedavg"}
        path = write_config(tmp_path, document)
        out = tmp_path / "shards"
        assert main(["gen-shards", "--config", str(path), "--out", str(out), "--quiet"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["files"] == ["shard_000.csv", "shard_001.csv", "shard_002.csv"]
        header = (out / "shard_000.csv").read_text().splitlines()[0]
        assert header == "x0,x1,x2,y"

    @pytest.mark.parametrize("family", ["logistic", "linear"])
    def test_shard_files_are_the_generated_shards(self, tmp_path, family):
        objective = {"family": family, "dim": 3, "samples_per_client": 8, "concentration": 0.5, "seed": 2,
                     "batch_size": 4}
        document = base_config(fleet={"compute_times": [1, 2, 3], "objective": objective})
        out = tmp_path / "shards"
        assert main(["gen-shards", "--config", str(write_config(tmp_path, document)), "--out", str(out),
                     "--quiet"]) == 0
        shards = make_synthetic_shards(SyntheticShardConfig(3, dim=3, samples_per_client=8, concentration=0.5,
                                                            seed=2, link=family, batch_size=4))
        want = export_shards_csv(shards, tmp_path / "want")
        assert len(want) == 3
        for path in want:
            assert (out / path.name).read_bytes() == path.read_bytes()

    def test_failed_shard_write_leaves_no_temporary_and_keeps_the_old_file(self, tmp_path):
        shards = make_synthetic_shards(SyntheticShardConfig(1, dim=2, samples_per_client=4))
        # row 1 of the table fails on its first cell
        broken = SimpleNamespace(dim=2, features=[shards.features[0], [[1.0, "not a number"]]],
                                 targets=[shards.targets[0], [1.0]])
        (tmp_path / "shard_001.csv").write_text("previous shard\n")
        with pytest.raises(ValueError):
            export_shards_csv(broken, tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["shard_000.csv", "shard_001.csv"]
        assert (tmp_path / "shard_001.csv").read_text() == "previous shard\n"

    def test_quadratic_fleets_are_rejected(self, tmp_path):
        path = write_config(tmp_path, base_config())
        assert main(["gen-shards", "--config", str(path), "--out", str(tmp_path / "s")]) == 2


class TestShippedConfigs:
    @pytest.mark.parametrize(
        "name",
        [
            "sync_quadratic.json",
            "async_exponential_oracle.json",
            "async_logistic_heterogeneous.json",
            "k_sweep_noisy_quadratic.json",
        ],
    )
    def test_config_validates(self, name):
        path = Path(__file__).resolve().parents[1] / "configs" / name
        document = load_config(path)
        assert document["schema_version"] == 1


class TestShippedBounds:
    """``bounds`` on every shipped config ends promptly with 0 or 3; the
    reports that exit 0 match the golden files byte for byte."""

    ROOT = Path(__file__).resolve().parents[1]

    @pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.json")), ids=lambda p: p.stem)
    def test_exits_0_or_3_within_ten_seconds(self, path, capsys):
        started = time.perf_counter()
        code = main(["bounds", "--config", str(path)])
        assert time.perf_counter() - started < 10.0
        out, err = capsys.readouterr()
        golden = self.ROOT / "tests" / "golden" / f"bounds_{path.stem}.txt"
        if path.name == "async_logistic_heterogeneous.json":
            # binary-float compute times make the asynchronous cycle ~1e137 rounds
            assert code == 3
            assert err.startswith("unsupported: ")
        else:
            assert code == 0
            assert out == golden.read_text()

    def test_logistic_fleet_exits_before_the_residual(self, monkeypatch, capsys):
        # the rejected asynchronous schedule ends the command before the
        # residual's GLM descent starts
        from asyncfed import bounds

        def no_residual(fleet):
            raise AssertionError("residual_mean_gap ran before the schedule check")

        monkeypatch.setattr(bounds, "residual_mean_gap", no_residual)
        assert main(["bounds", "--config", str(self.ROOT / "configs" / "async_logistic_heterogeneous.json")]) == 3
        assert capsys.readouterr().err.startswith("unsupported: the asynchronous schedule repeats only every ")

    INTEGER_TIMES = ROOT / "tests" / "golden" / "bounds_logistic_integer_times.json"

    def test_logistic_fleet_on_integer_times_matches_its_golden(self, capsys):
        # the shipped logistic fleet on times whose asynchronous cycle is
        # short: pins the GLM residual, weighted optimum and smoothness
        assert main(["bounds", "--config", str(self.INTEGER_TIMES)]) == 0
        golden = self.ROOT / "tests" / "golden" / "bounds_logistic_integer_times.txt"
        assert capsys.readouterr().out == golden.read_text()

    def test_a_fleet_with_one_slow_client_descent_matches_its_golden(self, tmp_path, capsys):
        # objective seed 5: client 6's own optimum takes ~1.5e5 descent
        # steps, the other clients' at most ~2.5e3; the rows done early stay
        # frozen while the slow one descends alone
        document = load_config(self.INTEGER_TIMES)
        document["fleet"]["objective"]["seed"] = 5
        assert main(["bounds", "--config", str(write_config(tmp_path, document))]) == 0
        golden = self.ROOT / "tests" / "golden" / "bounds_logistic_integer_times_seed5.txt"
        assert capsys.readouterr().out == golden.read_text()

    def test_a_client_descent_short_of_its_tolerance_exits_3(self, monkeypatch, capsys):
        # the federated descent takes 105 gradients and clients 1 and 2 more
        # than 1,000, so a cap of 1,000 stops at client 1
        monkeypatch.setattr(core, "DESCENT_MAX_ITER", 1000)
        assert main(["bounds", "--config", str(self.INTEGER_TIMES)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("unsupported: client 1's gradient descent did not reach gradient norm 1e-10 in "
                              "1000 iterations; its norm is ")

    @pytest.mark.parametrize("command", ["bounds", "simulate"])
    def test_a_federated_descent_short_of_its_tolerance_exits_3(self, command, tmp_path, monkeypatch, capsys):
        # two clients of four samples each in five dimensions: the federated
        # descent's gradient norm is still ~4e-6 after the default 500,000
        # iterations; a cap of 50 keeps the test short
        monkeypatch.setattr(core, "DESCENT_MAX_ITER", 50)
        document = load_config(self.INTEGER_TIMES)
        document["fleet"]["compute_times"] = [1, 2]
        document["fleet"]["objective"].update(samples_per_client=4, batch_size=4)
        code = main([command, "--config", str(write_config(tmp_path, document)), "--out", str(tmp_path / "out"),
                     "--quiet"])
        assert code == 3
        assert capsys.readouterr().err.startswith(
            "unsupported: the federated gradient descent did not reach gradient norm 1e-10 in 50 iterations; "
            "its norm is ")


# the exit code of each command on each shipped config; oracle-check has no
# closed form for the fixed-hardware asynchronous fleet of the K sweep nor
# for the logistic fleet
SHIPPED_EXIT_CODES = {
    ("simulate", "async_exponential_oracle"): 0,
    ("simulate", "async_logistic_heterogeneous"): 0,
    ("simulate", "k_sweep_noisy_quadratic"): 0,
    ("simulate", "sync_quadratic"): 0,
    ("oracle-check", "async_exponential_oracle"): 0,
    ("oracle-check", "async_logistic_heterogeneous"): 3,
    ("oracle-check", "k_sweep_noisy_quadratic"): 3,
    ("oracle-check", "sync_quadratic"): 0,
    ("gen-shards", "async_exponential_oracle"): 2,
    ("gen-shards", "async_logistic_heterogeneous"): 0,
    ("gen-shards", "k_sweep_noisy_quadratic"): 2,
    ("gen-shards", "sync_quadratic"): 2,
}


class TestShippedCommands:
    """``simulate``, ``oracle-check`` and ``gen-shards`` on every shipped
    config, and ``sweep`` on the shipped sweep, end promptly with their
    pinned exit codes."""

    ROOT = Path(__file__).resolve().parents[1]

    def test_every_shipped_config_has_its_exit_codes(self):
        stems = sorted(path.stem for path in (self.ROOT / "configs").glob("*.json"))
        assert sorted({stem for _, stem in SHIPPED_EXIT_CODES}) == stems

    @pytest.mark.parametrize("command, stem", sorted(SHIPPED_EXIT_CODES), ids="-".join)
    def test_exits_with_its_pinned_code_within_ten_seconds(self, command, stem, tmp_path, capsys):
        started = time.perf_counter()
        code = main([command, "--config", str(self.ROOT / "configs" / f"{stem}.json"), "--out", str(tmp_path),
                     "--quiet"])
        assert time.perf_counter() - started < 10.0
        assert code == SHIPPED_EXIT_CODES[command, stem]
        if code == 3:
            assert capsys.readouterr().err.startswith("unsupported: ")

    def test_sweeping_a_key_the_policy_ignores_is_rejected(self, tmp_path, capsys):
        # delta_t means nothing to the synchronous policy, so every value
        # would give the same row
        code = main(["sweep", "--config", str(self.ROOT / "configs" / "sync_quadratic.json"),
                     "--out", str(tmp_path), "--axis", "delta_t", "--values", "0.5,3", "--quiet"])
        assert code == 2
        assert "scheme/delta_t" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_sweep_matches_the_golden_csv(self, tmp_path):
        started = time.perf_counter()
        code = main(["sweep", "--config", str(self.ROOT / "configs" / "k_sweep_noisy_quadratic.json"),
                     "--out", str(tmp_path), "--quiet"])
        assert time.perf_counter() - started < 10.0
        assert code == 0
        golden = self.ROOT / "tests" / "golden" / "sweep_k_sweep_noisy_quadratic.csv"
        assert (tmp_path / "sweep.csv").read_bytes() == golden.read_bytes()

    def test_logistic_k_sweep_matches_the_golden_csv(self, tmp_path):
        # 4 values x 4 seeds of 320 rounds: each member's trailing window of
        # 17 rows is averaged with numpy's pairwise sums; dim 1 and one
        # sample a batch make every GLM product a single term, so no BLAS
        # build sums one in another order
        golden = self.ROOT / "tests" / "golden"
        assert main(["sweep", "--config", str(golden / "sweep_logistic_k_steps.json"), "--out", str(tmp_path),
                     "--quiet"]) == 0
        assert (tmp_path / "sweep.csv").read_bytes() == (golden / "sweep_logistic_k_steps.csv").read_bytes()

    @pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.json")), ids=lambda p: p.stem)
    def test_simulate_matches_the_golden_trajectory(self, path, tmp_path):
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path), "--quiet"]) == 0
        written = tmp_path / "trajectory.csv"
        golden = self.ROOT / "tests" / "golden" / f"simulate_{path.stem}.csv"
        if path.name != "async_logistic_heterogeneous.json":
            assert written.read_bytes() == golden.read_bytes()
            return
        # the logistic golden keeps four columns; loss cells rest on BLAS dot
        # products, which another BLAS build may sum in another order
        with open(written, newline="") as fh:
            rows = list(csv.DictReader(fh))
        with open(golden, newline="") as fh:
            want = list(csv.DictReader(fh))
        assert [(r["n"], r["participants"]) for r in rows] == [(r["n"], r["participants"]) for r in want]
        for column in ("loss_fed", "dist_sq"):
            got = np.array([float(r[column]) for r in rows])
            np.testing.assert_allclose(got, [float(r[column]) for r in want], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("stem", ["async_exponential_oracle", "sync_quadratic"])
    def test_oracle_check_matches_the_golden_trajectory(self, stem, tmp_path):
        # the closed-form mean and second moment in the trajectory schema
        assert main(["oracle-check", "--config", str(self.ROOT / "configs" / f"{stem}.json"),
                     "--out", str(tmp_path), "--quiet"]) == 0
        golden = self.ROOT / "tests" / "golden" / f"oracle_{stem}.csv"
        assert (tmp_path / "oracle_trajectory.csv").read_bytes() == golden.read_bytes()


class TestEntryPoint:
    def test_back_to_back_calls_share_one_parser_and_nothing_else(self, monkeypatch):
        from asyncfed import cli

        seen = []
        for command in cli._COMMANDS:
            monkeypatch.setitem(cli._COMMANDS, command, lambda args: seen.append(vars(args)) or 0)
        calls = [
            ["sweep", "--config", "a.json", "--out", "o", "--seed", "3", "--quiet", "--axis", "eta_l",
             "--values", "0.5,1"],
            ["bounds", "--config", "b.json"],
            ["sweep", "--config", "c.json", "--out", "o2"],
            ["oracle-check", "--config", "d.json", "--seed", "9"],
        ]
        assert [main(argv) for argv in calls] == [0] * len(calls)
        assert seen == [
            {"command": "sweep", "config": "a.json", "out": "o", "seed": 3, "quiet": True, "axis": "eta_l",
             "values": "0.5,1"},
            {"command": "bounds", "config": "b.json", "out": None, "seed": None, "quiet": False},
            {"command": "sweep", "config": "c.json", "out": "o2", "seed": None, "quiet": False, "axis": None,
             "values": None},
            {"command": "oracle-check", "config": "d.json", "out": None, "seed": 9, "quiet": False},
        ]
        assert cli._parser() is cli._parser()

    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    def test_a_closed_stdout_exits_141_in_silence(self, unbuffered):
        # the reader is gone before the first write: unbuffered, the first
        # print meets the closed pipe; buffered, the flush at the end does
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = str(Path(asyncfed.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        config = Path(__file__).resolve().parents[1] / "configs" / "k_sweep_noisy_quadratic.json"
        try:
            out = subprocess.run([sys.executable, "-m", "asyncfed.cli", "bounds", "--config", str(config)],
                                 env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=120)
        finally:
            os.close(write_end)
        assert (out.returncode, out.stderr) == (141, b"")


class TestBlockEdgeGoldens:
    """An exponential-hardware fleet replays its schedule in blocks of 16,
    32, 64 and 128 rounds; these time horizons end inside the fifth block.
    Pins both trajectories byte for byte across the block edges and the
    time-limit cut."""

    ROOT = Path(__file__).resolve().parents[1]

    @pytest.mark.parametrize("name, scheme, budget", [
        ("async", {"policy": "asynchronous"}, 9.0),  # 190 rounds
        ("fedbuff", {"policy": "fedbuff", "m": 3}, 30.0),  # 204 rounds
    ])
    def test_simulate_matches_the_golden_trajectory(self, tmp_path, name, scheme, budget):
        n_clients = 50
        document = {
            "schema_version": 1,
            "fleet": {
                "compute_times": [1 + (7 * i % 40) / 10 for i in range(n_clients)],
                "hardware": "exponential",
                "objective": {"family": "quadratic", "optima": [(13 * i % 17 - 8) / 4 for i in range(n_clients)]},
            },
            "scheme": {**scheme, "weights": "identical"},
            "optimization": {"eta_g": 1.0, "eta_l": 0.3, "k_steps": 1, "full_gradient": True, "theta0": 4.0},
            "horizon": {"time": budget},
            "seeds": {"hardware": 7, "batching": 8, "sampling": 9},
        }
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(write_config(tmp_path, document)), "--out", str(out),
                     "--quiet"]) == 0
        golden = self.ROOT / "tests" / "golden" / f"simulate_block_edges_{name}.csv"
        assert (out / "trajectory.csv").read_bytes() == golden.read_bytes()


class TestWideGolden:
    """An asynchronous M=300 quadratic fleet (tests/golden/simulate_wide_async.json):
    every row joins its leading cells and the text of its participant mask,
    of up to 299 bits, to its loss text; 42 kept rows (cadence 2, then the
    final model, which has no mask) over two encoder blocks of 27 rows."""

    ROOT = Path(__file__).resolve().parents[1]

    def test_simulate_matches_the_golden_trajectory(self, tmp_path):
        golden = self.ROOT / "tests" / "golden"
        assert main(["simulate", "--config", str(golden / "simulate_wide_async.json"), "--out", str(tmp_path),
                     "--quiet"]) == 0
        assert (tmp_path / "trajectory.csv").read_bytes() == (golden / "simulate_wide_async.csv").read_bytes()


class TestGoldenRows:
    def test_trajectory_first_row_hand_computed(self, tmp_path):
        # theta0 = 5: client losses 12.5 and 4.5, federated loss 8.5,
        # squared distance to the optimum (1) is 16, both clients in round 0
        path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        main(["simulate", "--config", str(path), "--out", str(out), "--quiet"])
        first = (out / "trajectory.csv").read_text().splitlines()[1]
        assert first == "0,0,3,8.5,8.5,16,12.5,4.5"

    def test_oracle_check_writes_its_report(self, tmp_path):
        document = base_config(oracle_check={"checkpoints": [1, 3], "n_runs": 64, "seed": 0})
        path = write_config(tmp_path, document)
        out = tmp_path / "oc"
        assert main(["oracle-check", "--config", str(path), "--out", str(out)]) == 0
        payload = json.loads((out / "oracle_check.json").read_text())
        assert payload["scheme"] == "sync" and payload["overall_pass"] is True
        header = (out / "oracle_trajectory.csv").read_text().splitlines()[0]
        assert header.startswith("n,t,participants,loss_fed")

    def test_oracle_check_on_fedfix_with_exponential_hardware_is_unsupported(self, tmp_path, capsys, monkeypatch):
        def started(*args):
            raise AssertionError("an ensemble started")

        monkeypatch.setattr("asyncfed.cli.run_scalar_ensemble", started)
        document = base_config(
            fleet={"compute_times": [1.0, 1.0], "hardware": "exponential",
                   "objective": {"family": "quadratic", "optima": [0.0, 2.0]}},
            scheme={"policy": "fedfix", "delta_t": 1.5, "weights": "identical"},
            oracle_check={"checkpoints": [1, 5, 20], "n_runs": 2000, "seed": 0},
        )
        out = tmp_path / "oc"
        assert main(["oracle-check", "--config", str(write_config(tmp_path, document)), "--out", str(out)]) == 3
        stdout, err = capsys.readouterr()
        assert stdout == "" and err == "unsupported: no closed form for policy 'fedfix'\n"
        assert not out.exists()


def fedbuff_config(n_clients, hardware, rounds=300):
    """FedBuff (m=5, identical weights) on a seeded quadratic fleet: 2-decimal
    uniform(1, 5) mean times on exponential hardware, times 1..16 on fixed."""
    rng = np.random.default_rng(5)
    if hardware == "exponential":
        taus = [round(float(x), 2) for x in rng.uniform(1.0, 5.0, n_clients)]
    else:
        taus = [1 + i % 16 for i in range(n_clients)]
    optima = [round(float(x), 6) for x in rng.normal(0.0, 2.0, n_clients)]
    return base_config(
        fleet={"compute_times": taus, "hardware": hardware,
               "objective": {"family": "quadratic", "optima": optima}},
        scheme={"policy": "fedbuff", "m": 5, "weights": "identical"},
        horizon={"rounds": rounds},
    )


def _limit_address_space():
    limit = 2 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


class TestFedBuffRuns:
    """A run needs the weights d_i only, so FedBuff runs without replaying
    its mean-time schedule to a steady period."""

    def test_large_exponential_fleet_simulates_in_bounded_memory(self, tmp_path):
        # the replay kept one tuple of M clocks per round and ran out of memory
        path = write_config(tmp_path, fedbuff_config(1000, "exponential"))
        src = str(Path(asyncfed.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run(
            [sys.executable, "-m", "asyncfed.cli", "simulate", "--config", str(path),
             "--out", str(tmp_path / "out"), "--quiet"],
            env=env, preexec_fn=_limit_address_space, capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert len((tmp_path / "out" / "trajectory.csv").read_text().splitlines()) == 302

    def test_schedule_without_a_short_period_simulates(self, tmp_path, capsys):
        # times 1..16 do not settle within the replay's round cap
        path = write_config(tmp_path, fedbuff_config(100, "fixed"))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 0
        assert capsys.readouterr().err == ""
