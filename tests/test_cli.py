import csv
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from asyncfed.cli import main, write_sweep_csv
from asyncfed.config import load_config, validate_config
from asyncfed.core import ConfigurationError
from asyncfed.engine import MAX_ENSEMBLE_SEEDS, MAX_HELD_ANCHORS, MAX_K_STEPS, ScalarEnsembleConfig


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
        for n_runs, m in [(100_000, 10), (MAX_HELD_ANCHORS // 4, 4)]:
            ScalarEnsembleConfig("async", (0.0,) * m, 0.5, n_runs=n_runs)
        with pytest.raises(ConfigurationError, match="n_runs x clients"):
            ScalarEnsembleConfig("async", (0.0,) * 4, 0.5, n_runs=MAX_HELD_ANCHORS // 4 + 1)

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

    def test_heterogeneous_async_is_unsupported(self, tmp_path, capsys):
        document = base_config(scheme={"policy": "asynchronous", "weights": "identical"})
        document["fleet"]["hardware"] = "exponential"
        document["fleet"]["compute_times"] = [1.0, 3.0]
        path = write_config(tmp_path, document)
        assert main(["oracle-check", "--config", str(path)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("unsupported: ")


class TestBoundsCommand:
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


class TestShippedCommands:
    """``simulate`` and ``oracle-check`` on every shipped config, and
    ``sweep`` on the shipped sweep, end promptly with 0 or 3."""

    ROOT = Path(__file__).resolve().parents[1]

    @pytest.mark.parametrize("command", ["simulate", "oracle-check"])
    @pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.json")), ids=lambda p: p.stem)
    def test_exits_0_or_3_within_ten_seconds(self, command, path, tmp_path, capsys):
        started = time.perf_counter()
        code = main([command, "--config", str(path), "--out", str(tmp_path), "--quiet"])
        assert time.perf_counter() - started < 10.0
        assert code in (0, 3)
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
