"""Experiment loop, logging, export formats and policy comparison."""

import dataclasses
import json

import numpy as np
import pytest

from flipreset import harness
from flipreset.config import config_from_dict
from flipreset.harness import (
    CSV_HEADER,
    ExperimentLog,
    LogRow,
    build_model,
    build_schedule,
    compare_policies,
    export_log,
    import_log_jsonl,
    run_experiment,
)
from flipreset.learner import DivergenceError, predict
from flipreset.policy import (
    POLICY_KINDS,
    BalancedReset,
    FixedInterval,
    HardReset,
    NoReset,
    RandomTiming,
)
from flipreset.stream import SourceDistribution, sample_batch


def small_config(**overrides):
    base = {
        "stream": {"num_domains": 4, "batches_per_domain": 25},
        "learner": {
            "loss": "entropy",
            "learning_rate": 0.1,
            "pretrain": {"samples_per_class": 100, "epochs": 60},
        },
        "policy": {"kind": "abr"},
        "batch_size": 16,
        "seeds": [0, 1],
    }
    base.update(overrides)
    return config_from_dict(base)


def rows_equal(a, b):
    return len(a.rows) == len(b.rows) and all(x == y for x, y in zip(a.rows, b.rows))


class TestRunExperiment:
    def test_bitwise_determinism(self):
        cfg = small_config()
        a = run_experiment(cfg, 3)
        b = run_experiment(cfg, 3)
        assert rows_equal(a, b)

    def test_log_is_labelled_with_the_policy_kind(self):
        cfg = small_config(stream={"num_domains": 1, "batches_per_domain": 12})
        policies = {
            "no_reset": NoReset(),
            "fixed_interval": FixedInterval(period=5),
            "random_timing": RandomTiming(times=(3, 7)),
            "hard_reset": HardReset(),
            "abr": BalancedReset(),
        }
        assert policies.keys() == POLICY_KINDS.keys()
        model, _ = build_model(cfg, 0)
        for kind, policy in policies.items():
            assert run_experiment(cfg, 0, policy=policy, model=model).policy_name == kind

    def test_one_row_per_batch(self):
        cfg = small_config()
        log = run_experiment(cfg, 0)
        assert len(log.rows) == 100
        assert [r.t for r in log.rows] == list(range(1, 101))
        assert all(0.0 <= r.accuracy <= 1.0 for r in log.rows)

    def test_row_values_are_builtin_numbers(self):
        # numpy scalars would print the same but cost more to store and serialise
        log = run_experiment(small_config(), 0)
        for row in log.rows:
            for name, value in dataclasses.asdict(row).items():
                expected = (int,) if name in ("t", "domain", "reset") else (float, type(None))
                assert type(value) in expected, (row.t, name, type(value))

    def test_frozen_learner_reproduces_source_accuracy(self):
        cfg = small_config(
            learner={
                "loss": "entropy",
                "learning_rate": 0.0,
                "momentum": 0.0,
                "pretrain": {"samples_per_class": 100, "epochs": 60},
            },
            policy={"kind": "no_reset"},
        )
        log = run_experiment(cfg, 1)
        assert log.reset_count() == 0
        # independent recomputation: frozen source model scored on the same stream
        model, _ = build_model(cfg, 1)
        schedule = build_schedule(cfg, 1)
        source = SourceDistribution()
        for row in log.rows:
            batch = sample_batch(schedule, row.t, source, cfg.batch_size)
            pred = predict(model.theta_source, batch.features)
            assert row.accuracy == pytest.approx(float(np.mean(pred.classes == batch.labels)), abs=1e-15)
            assert row.lf_raw == 0.0

    def test_reset_rows_match_decisions(self):
        cfg = small_config(policy={"kind": "fixed_interval", "period": 30})
        log = run_experiment(cfg, 0)
        assert log.reset_steps() == [30, 60, 90]
        for row in log.rows:
            assert (row.lam is not None) == bool(row.reset)
            if row.reset:
                assert row.lam == 1.0

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_divergence_aborts_with_partial_rows(self):
        cfg = small_config(
            learner={
                "loss": "entropy",
                "learning_rate": 1.0,
                "momentum": 25.0,  # runaway velocity forces non-finite weights
                "pretrain": {"samples_per_class": 100, "epochs": 60},
            },
            stream={"num_domains": 10, "batches_per_domain": 50},
        )
        with pytest.raises(DivergenceError) as excinfo:
            run_experiment(cfg, 0)
        err = excinfo.value
        assert err.step is not None and err.log is not None
        assert err.log.aborted_at == err.step
        assert len(err.log.rows) == err.step - 1
        assert all(np.isfinite(r.accuracy) for r in err.log.rows)

    def test_explicit_domains_override(self):
        cfg = small_config(
            stream={
                "batches_per_domain": 10,
                "domains": [
                    {"kind": "mean_shift", "severity": 3.0},
                    {"kind": "gaussian_noise", "severity": 1.0},
                ],
            }
        )
        schedule = build_schedule(cfg, 5)
        assert len(schedule.domains) == 2
        assert schedule.seed == 5
        log = run_experiment(cfg, 5)
        assert len(log.rows) == 20

    def test_shared_model_left_unchanged(self):
        cfg = small_config()
        model, _ = build_model(cfg, 2)
        theta = model.theta.tobytes()
        # neither policy resets at the last of the 100 steps, which would
        # restore the source weights anyway
        for policy in (NoReset(), FixedInterval(period=30)):
            shared = run_experiment(cfg, 2, policy=policy, model=model)
            assert model.theta.tobytes() == theta
            assert model.theta_prev_snapshot.tobytes() == theta
            assert not model.velocity.any()
            assert rows_equal(shared, run_experiment(cfg, 2, policy=policy))

    def test_build_model_carries_adaptation_settings(self):
        cfg = small_config(learner={"learning_rate": 0.03, "momentum": 0.5})
        model, _ = build_model(cfg, 2)
        assert (model.learning_rate, model.momentum) == (0.03, 0.5)
        assert model.theta.tobytes() == model.theta_source.tobytes()
        assert model.theta_prev_snapshot.tobytes() == model.theta.tobytes()
        assert not model.velocity.any()

    def test_given_model_restarts_at_source_weights(self):
        cfg = small_config()
        model, _ = build_model(cfg, 2)
        model.replace_weights(model.theta + 1.0)
        model.velocity += 1.0
        assert rows_equal(run_experiment(cfg, 2, model=model), run_experiment(cfg, 2))


def make_log(accs, resets=()):
    rows = [
        LogRow(
            t=i + 1,
            domain=0,
            accuracy=a,
            lf_raw=0.0,
            lf_ema=0.0,
            lf_min=0.0,
            slope=None,
            threshold=None,
            reset=int(i + 1 in resets),
            lam=1.0 if i + 1 in resets else None,
        )
        for i, a in enumerate(accs)
    ]
    return ExperimentLog(policy_name="x", seed=0, rows=rows)


class TestExperimentLog:
    def test_summary_statistics(self):
        log = make_log([0.0] * 90 + [1.0] * 10, resets={5, 50})
        assert log.mean_accuracy() == pytest.approx(0.1)
        assert log.final_window_accuracy() == pytest.approx(1.0)
        assert log.reset_count() == 2
        assert log.reset_steps() == [5, 50]


class TestExport:
    def test_csv_header_and_shape(self, tmp_path):
        log = make_log([0.5, 0.25, 1.0], resets={2})
        path = export_log(log, tmp_path / "log.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4
        fields = lines[2].split(",")
        assert fields[0] == "2" and fields[-2] == "1" and fields[-1] == "1"
        # empty lambda and slope/threshold columns on non-reset rows
        assert lines[1].split(",")[-1] == ""
        assert lines[1].split(",")[6] == ""

    def test_empty_log_is_header_only(self, tmp_path):
        path = export_log(ExperimentLog("x", 0), tmp_path / "empty.csv")
        assert path.read_text() == CSV_HEADER + "\n"

    def test_nine_significant_digits(self, tmp_path):
        log = make_log([1.0 / 3.0])
        path = export_log(log, tmp_path / "log.csv")
        assert path.read_text().splitlines()[1].split(",")[2] == "0.333333333"

    def test_jsonl_round_trip(self, tmp_path):
        cfg = small_config()
        log = run_experiment(cfg, 0)
        path = export_log(log, tmp_path / "log.jsonl")
        back = import_log_jsonl(path)
        assert back.policy_name == log.policy_name
        assert back.seed == log.seed
        assert back.aborted_at is None
        assert rows_equal(back, log)

    def test_jsonl_meta_line(self, tmp_path):
        log = ExperimentLog("abr", 7, aborted_at=3)
        path = export_log(log, tmp_path / "log.jsonl")
        meta = json.loads(path.read_text().splitlines()[0])
        assert meta == {"policy": "abr", "seed": 7, "aborted_at": 3}

    def test_jsonl_rows_are_json_dumps_text(self, tmp_path):
        # numpy floats, an int in a float column, None and extreme floats
        # are written exactly as json.dumps writes the row's dict
        row = LogRow(
            t=3, domain=1, accuracy=np.float64(0.1), lf_raw=1e-300, lf_ema=-0.0, lf_min=1e16,
            slope=None, threshold=np.float64(2.5e-7), reset=1, lam=1,
        )
        path = export_log(ExperimentLog("x", 0, rows=[row]), tmp_path / "log.jsonl")
        expected = json.dumps(dict(zip(CSV_HEADER.split(","), dataclasses.astuple(row))))
        assert path.read_text().splitlines()[1] == expected

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", ["lf_raw", "lam"])
    def test_jsonl_non_finite_float_names_its_row(self, tmp_path, column, bad):
        log = make_log([0.5, 0.25, 1.0], resets={2})
        log.rows[1] = dataclasses.replace(log.rows[1], **{column: bad})
        with pytest.raises(ValueError, match="non-finite value in the log row at t=2"):
            export_log(log, tmp_path / "log.jsonl")

    def test_jsonl_import_skips_blank_lines(self, tmp_path):
        log = make_log([0.5, 0.25], resets={2})
        path = export_log(log, tmp_path / "log.jsonl")
        lines = path.read_text().splitlines()
        path.write_text("\n" + "\r\n\n".join(lines) + "\n\n", newline="")
        back = import_log_jsonl(path)
        assert back.policy_name == "x" and rows_equal(back, log)

    @pytest.mark.parametrize("text", ["", "\n\n"])
    def test_jsonl_import_of_empty_file_rejected(self, tmp_path, text):
        path = tmp_path / "log.jsonl"
        path.write_text(text)
        with pytest.raises(ValueError, match="empty log file"):
            import_log_jsonl(path)

    def test_format_inference_and_validation(self, tmp_path):
        log = ExperimentLog("x", 0)
        with pytest.raises(ValueError, match="must end in .csv or .jsonl"):
            export_log(log, tmp_path / "log.parquet")
        assert not (tmp_path / "log.parquet").exists()


class TestComparePolicies:
    def test_policy_against_itself_identical(self):
        cfg = small_config()
        summary = compare_policies(dataclasses.replace(cfg, seeds=(0, 1), policies={"a": NoReset(), "b": NoReset()}))
        for seed in (0, 1):
            assert summary.cells["a"][seed] == summary.cells["b"][seed]
        assert summary.aggregate("a", "mean_accuracy") == summary.aggregate("b", "mean_accuracy")

    def test_pretrains_each_seed_once(self, monkeypatch):
        calls = []

        def counted(config, seed):
            calls.append(seed)
            return build_model(config, seed)

        monkeypatch.setattr(harness, "build_model", counted)
        policies = {"no_reset": NoReset(), "fixed": FixedInterval(period=20), "abr": small_config().policy}
        compare_policies(dataclasses.replace(small_config(), seeds=(0, 1), policies=policies))
        assert calls == [0, 1]

    def test_cells_equal_standalone_runs(self):
        cfg = small_config()
        policies = {"no_reset": NoReset(), "fixed": FixedInterval(period=20), "abr": cfg.policy}
        summary = compare_policies(dataclasses.replace(cfg, seeds=(0, 1), policies=policies))
        for name, policy in policies.items():
            for seed in (0, 1):
                log = run_experiment(cfg, seed, policy=policy, policy_name=name)
                assert summary.cells[name][seed] == {
                    "mean_accuracy": log.mean_accuracy(),
                    "final_accuracy": log.final_window_accuracy(),
                    "reset_count": log.reset_count(),
                }

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_pretraining_divergence_fails_every_cell_of_the_seed(self, monkeypatch):
        calls = []

        def counted(config, seed):
            calls.append(seed)
            return build_model(config, seed)

        monkeypatch.setattr(harness, "build_model", counted)
        cfg = small_config(
            stream={"num_domains": 2, "batches_per_domain": 5, "class_separation": 1e200},
            learner={"pretrain": {"samples_per_class": 20, "epochs": 3, "learning_rate": 1e30}},
        )
        policies = {"a": NoReset(), "b": NoReset(), "c": FixedInterval(period=2)}
        summary = compare_policies(dataclasses.replace(cfg, seeds=(0, 1), policies=policies))
        failed = {"failed": True, "aborted_at": 1}
        assert summary.cells == {name: {0: failed, 1: failed} for name in policies}
        # the failed pretraining is not repeated for the seed's other cells
        assert calls == [0, 1]

    def test_needs_two_policies(self):
        cfg = small_config()
        with pytest.raises(ValueError, match="two policies"):
            compare_policies(dataclasses.replace(cfg, policies={"a": NoReset()}))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_divergent_cell_marked_not_fatal(self):
        cfg = small_config(
            learner={
                "loss": "entropy",
                "learning_rate": 1.0,
                "momentum": 25.0,
                "pretrain": {"samples_per_class": 100, "epochs": 60},
            },
            stream={"num_domains": 10, "batches_per_domain": 50},
        )
        # frequent full resets keep the runaway optimizer in check
        policies = {"no_reset": NoReset(), "fixed_5": FixedInterval(period=5)}
        summary = compare_policies(dataclasses.replace(cfg, seeds=(0,), policies=policies))
        assert summary.cells["no_reset"][0]["failed"]
        # the diverged cell left the seed's shared source model as it was
        log = run_experiment(cfg, 0, policy=FixedInterval(period=5))
        assert summary.cells["fixed_5"][0] == {
            "mean_accuracy": log.mean_accuracy(),
            "final_accuracy": log.final_window_accuracy(),
            "reset_count": log.reset_count(),
        }
        assert "diverged" in summary.table()

    def test_table_layout(self):
        cfg = small_config()
        summary = compare_policies(
            dataclasses.replace(cfg, seeds=(0,), policies={"no_reset": NoReset(), "fixed": FixedInterval(50)})
        )
        table = summary.table()
        lines = table.splitlines()
        assert lines[0].split() == ["policy", "mean_acc", "final_acc", "resets"]
        assert lines[1].startswith("no_reset")
        assert "±" in lines[1]
