"""Experiment loop, logging, export formats and policy comparison."""

import dataclasses
import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flipreset import harness, learner
from flipreset.config import config_from_dict
from flipreset.harness import (
    CSV_HEADER,
    ExperimentLog,
    LogColumns,
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
        assert err.step is not None and err.log is not None and err.epoch is None
        assert err.log.aborted_at == err.step
        assert len(err.log.rows) == err.step - 1
        assert all(np.isfinite(r.accuracy) for r in err.log.rows)

    def test_non_finite_predictions_abort_the_run(self, monkeypatch):
        adapt_batch = harness.adapt_batch
        steps = itertools.count(1)

        def nan_at_step_3(*args):
            prev_pred, curr_pred = adapt_batch(*args)
            if next(steps) == 3:  # as logits that overflow for the previous-step weights alone give
                prev_pred = prev_pred._replace(confidence=np.full_like(prev_pred.confidence, np.nan))
            return prev_pred, curr_pred

        monkeypatch.setattr(harness, "adapt_batch", nan_at_step_3)
        with pytest.raises(DivergenceError, match="non-finite predictions") as excinfo:
            run_experiment(small_config(), 0)
        err = excinfo.value
        assert err.step == err.log.aborted_at == 3
        assert len(err.log.rows) == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_abort_the_run(self, monkeypatch, bad):
        adapt_batch = harness.adapt_batch
        steps = itertools.count(1)

        def bad_bias_at_step_3(model, *args):
            out = adapt_batch(model, *args)
            if next(steps) == 3:
                model.theta[-1] = bad
            return out

        monkeypatch.setattr(harness, "adapt_batch", bad_bias_at_step_3)
        with pytest.raises(DivergenceError, match="^non-finite parameters$") as excinfo:
            run_experiment(small_config(), 0)
        err = excinfo.value
        assert err.step == err.log.aborted_at == 3
        assert len(err.log.rows) == 2

    def test_a_fault_inside_a_step_propagates_unchanged(self, planted_fault):
        with pytest.raises(ValueError) as excinfo:
            run_experiment(small_config(), 0)
        assert excinfo.value is planted_fault

    def test_a_fault_inside_adapt_batch_on_finite_features_propagates_unchanged(self, monkeypatch):
        fault = ValueError("planted gradient fault")

        def adapt_gradient(*args):
            raise fault

        monkeypatch.setattr(learner, "adapt_gradient", adapt_gradient)
        with pytest.raises(ValueError) as excinfo:
            run_experiment(small_config(), 0)
        assert excinfo.value is fault

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_abort_the_run(self, monkeypatch, bad):
        sample = harness.sample_batch

        def bad_at_step_3(schedule, t, *args):
            batch = sample(schedule, t, *args)
            if t == 3:
                batch.features[5, 7] = bad
            return batch

        monkeypatch.setattr(harness, "sample_batch", bad_at_step_3)
        with pytest.raises(DivergenceError, match="^non-finite features$") as excinfo:
            run_experiment(small_config(), 0)
        err = excinfo.value
        assert err.step == err.log.aborted_at == 3
        assert len(err.log.rows) == 2
        assert err.log.rows.column("t").tolist() == [1, 2]

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
        model, _ = build_model(cfg, 3)
        theta = model.theta.tobytes()
        # no policy resets at the last of the 100 steps, which would restore
        # the source weights anyway; the config's abr policy resets during the
        # run, after sgd_step has updated the velocity in place
        for policy in (NoReset(), FixedInterval(period=30), cfg.policy):
            shared = run_experiment(cfg, 3, policy=policy, model=model)
            assert model.theta.tobytes() == theta
            assert model.theta_prev_snapshot.tobytes() == theta
            assert not model.velocity.any()
            assert rows_equal(shared, run_experiment(cfg, 3, policy=policy))

    def test_given_model_adapts_with_the_configs_settings(self):
        pretrain = {"samples_per_class": 100, "epochs": 60}
        adapting = small_config(learner={"learning_rate": 0.1, "momentum": 0.9, "pretrain": pretrain})
        frozen = small_config(learner={"learning_rate": 0.0, "momentum": 0.0, "pretrain": pretrain})
        model, _ = build_model(adapting, 2)
        assert model.theta.tobytes() == model.theta_source.tobytes()
        assert model.theta_prev_snapshot.tobytes() == model.theta.tobytes()
        assert not model.velocity.any()
        # the frozen config's learning rate and momentum, not the model's origin, set the run
        given = run_experiment(frozen, 2, model=model).rows.column("accuracy")
        alone = run_experiment(frozen, 2).rows.column("accuracy")
        assert given.tobytes() == alone.tobytes()

    def test_given_model_restarts_at_source_weights(self):
        cfg = small_config()
        model, _ = build_model(cfg, 2)
        model.replace_weights(model.theta + 1.0)
        model.velocity += 1.0
        assert rows_equal(run_experiment(cfg, 2, model=model), run_experiment(cfg, 2))


def make_rows(accs, resets=()):
    return [
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


def make_log(accs, resets=()):
    return ExperimentLog(policy_name="x", seed=0, rows=make_rows(accs, resets))


class TestExperimentLog:
    def test_summary_statistics(self):
        log = make_log([0.0] * 90 + [1.0] * 10, resets={5, 50})
        assert log.mean_accuracy() == pytest.approx(0.1)
        assert log.final_window_accuracy() == pytest.approx(1.0)
        assert log.reset_count() == 2
        assert log.reset_steps() == [5, 50]

    @pytest.mark.filterwarnings("error")
    def test_summary_of_a_run_diverged_at_its_first_batch(self, monkeypatch, tmp_path):
        sample = harness.sample_batch

        def nan_features(*args):
            batch = sample(*args)
            batch.features[0, 0] = np.nan
            return batch

        monkeypatch.setattr(harness, "sample_batch", nan_features)
        with pytest.raises(DivergenceError) as excinfo:
            run_experiment(small_config(), 0)
        log = excinfo.value.log
        back = import_log_jsonl(export_log(log, tmp_path / "diverged.jsonl"))
        for empty in (log, back, ExperimentLog("x", 0)):
            assert len(empty.rows) == 0
            summary = empty.summary()
            assert math.isnan(summary["mean_accuracy"]) and math.isnan(summary["final_accuracy"])
            assert summary["reset_count"] == 0


class TestLogColumns:
    # longer than one chunk of the store, with slope, threshold and lam on some rows
    GIVEN = [
        dataclasses.replace(r, slope=r.t * 1e-6, threshold=2.5e-7) if r.t % 3 else r
        for r in make_rows([(i % 7) / 7 for i in range(2500)], resets=set(range(5, 2500, 11)))
    ]

    def test_reads_as_the_given_rows(self):
        given = self.GIVEN
        rows = ExperimentLog("x", 0, rows=given).rows
        assert len(rows) == len(given)
        assert list(rows) == given
        assert [rows[i] for i in (0, 1, 1024, len(given) - 1)] == [given[i] for i in (0, 1, 1024, -1)]
        assert [rows[-i] for i in (1, 2, len(given))] == [given[-i] for i in (1, 2, len(given))]
        for index in (slice(None), slice(1000, 1100), slice(-3, None), slice(None, None, 7), slice(30, 10, -3)):
            assert rows[index] == given[index]
            assert type(rows[index]) is list
        assert rows[3000:] == []
        for index in (len(given), -len(given) - 1):
            with pytest.raises(IndexError):
                rows[index]

    def test_append_fills_the_store_up_to_its_capacity(self):
        rows = LogColumns(5)
        for row in self.GIVEN[:5]:
            rows.append(dataclasses.astuple(row))
        assert list(rows) == self.GIVEN[:5]
        with pytest.raises(IndexError):
            rows.append(dataclasses.astuple(self.GIVEN[5]))
        assert len(rows) == 5

    @pytest.mark.parametrize("name", ["lambda", "_columns"])
    def test_column_names_an_unknown_field_and_lists_the_fields(self, name):
        rows = ExperimentLog("x", 0, rows=self.GIVEN[:3]).rows
        fields = "t, domain, accuracy, lf_raw, lf_ema, lf_min, slope, threshold, reset, lam"
        with pytest.raises(ValueError, match=re.escape(f"no log field {name!r}; the fields are {fields}") + "$"):
            rows.column(name)

    def test_replace_round_trips(self):
        log = ExperimentLog("x", 0, rows=self.GIVEN)
        assert dataclasses.replace(log, rows=list(log.rows)) == log
        changed = [dataclasses.replace(r, lf_ema=0.5) if r.t == 2 else r for r in log.rows]
        other = dataclasses.replace(log, rows=changed)
        assert other != log and list(other.rows) == changed

    def test_diverged_run_keeps_its_completed_rows(self, tmp_path):
        cfg = small_config(
            learner={
                "loss": "entropy",
                "learning_rate": 1.0,
                "momentum": 25.0,
                "pretrain": {"samples_per_class": 100, "epochs": 60},
            },
            stream={"num_domains": 10, "batches_per_domain": 50},
        )
        with pytest.raises(DivergenceError) as excinfo:
            run_experiment(cfg, 0)
        err = excinfo.value
        rows = list(err.log.rows)
        assert [r.t for r in rows] == list(range(1, err.step))
        text = export_log(err.log, tmp_path / "diverged.csv").read_text()
        # the CSV holds those rows and nothing of the store's unfilled capacity
        assert text == export_log(ExperimentLog("x", 0, rows=rows), tmp_path / "rows.csv").read_text()
        assert len(text.splitlines()) == err.step

    def test_a_long_store_holds_eighty_bytes_a_row(self):
        tracemalloc.start()
        try:
            rows = LogColumns(20_000)
            for t in range(1, 20_001):
                rows.append((t, 0, 0.5, 0.0, 0.0, 0.0, None, None, 0, None))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(rows) == 20_000 and rows[-1].t == 20_000
        assert held <= 1.7 * 2**20


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
        # a run that aborts at step 3 has logged two rows
        log = ExperimentLog("abr", 7, rows=make_rows([0.5, 0.25]), aborted_at=3)
        path = export_log(log, tmp_path / "log.jsonl")
        meta = json.loads(path.read_text().splitlines()[0])
        assert meta == {"policy": "abr", "seed": 7, "aborted_at": 3}
        back = import_log_jsonl(path)
        assert back.aborted_at == 3
        assert rows_equal(back, log)
        # the export writes no abort step that the import rejects
        for bad in (2, 7):
            log.aborted_at = bad
            with pytest.raises(ValueError, match=f"row count plus one, 3, got {bad}"):
                export_log(log, tmp_path / "bad.jsonl")
        assert not (tmp_path / "bad.jsonl").exists()

    # meta values that json.dumps writes, or fails on, and the import rejects
    BAD_EXPORT_META = [
        (("abr", np.int64(0), None), "seed must be an integer >= 0, got np.int64(0)"),
        (("abr", -1, None), "seed must be an integer >= 0, got -1"),
        (("abr", True, None), "seed must be an integer >= 0, got True"),
        ((None, 0, None), "policy must be a string, got None"),
        ((7, 0, None), "policy must be a string, got 7"),
        (("abr", 0, np.int64(3)), "aborted_at must be null or an integer >= 1, got np.int64(3)"),
    ]

    @pytest.mark.parametrize(
        ("meta", "named"),
        BAD_EXPORT_META,
        ids=["seed a numpy integer", "seed -1", "seed true", "policy null", "policy a number",
             "aborted_at a numpy integer"],
    )
    def test_jsonl_export_refuses_a_meta_value_and_writes_no_file(self, tmp_path, meta, named):
        log = ExperimentLog(*meta[:2], rows=make_rows([0.5, 0.25]), aborted_at=meta[2])
        path = tmp_path / "sub" / "log.jsonl"
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: the meta line's {re.escape(named)}$"):
            export_log(log, path)
        assert list(tmp_path.iterdir()) == []

    @settings(max_examples=200, deadline=None)
    @given(
        policy_name=st.none() | st.integers(-1, 1) | st.text(max_size=3),
        seed=st.none() | st.booleans() | st.integers(-2, 2) | st.floats(-1, 1) | st.builds(np.int64, st.integers(0, 2)),
        aborted_at=st.none() | st.booleans() | st.integers(-1, 4) | st.builds(np.int64, st.integers(0, 4)),
    )
    def test_every_jsonl_file_the_export_writes_reads_back(self, tmp_path_factory, policy_name, seed, aborted_at):
        log = ExperimentLog(policy_name, seed, rows=make_rows([0.5, 0.25]), aborted_at=aborted_at)
        path = tmp_path_factory.mktemp("export") / "log.jsonl"
        try:
            export_log(log, path)
        except ValueError:
            assert not path.exists()
            return
        back = import_log_jsonl(path)
        assert (back.policy_name, back.seed, back.aborted_at) == (policy_name, seed, aborted_at)
        assert rows_equal(back, log)

    def test_jsonl_rows_are_json_dumps_text(self, tmp_path):
        # numpy floats, an int in a float column, None and extreme floats
        # are written exactly as json.dumps writes the row's dict
        row = LogRow(
            t=1, domain=1, accuracy=np.float64(0.1), lf_raw=1e-300, lf_ema=-0.0, lf_min=1e16,
            slope=None, threshold=np.float64(2.5e-7), reset=1, lam=1,
        )
        log = ExperimentLog("x", 0, rows=[row])
        path = export_log(log, tmp_path / "log.jsonl")
        # a float column holds the int lam as the float 1.0
        stored = log.rows[0]
        assert type(stored.lam) is float and stored.lam == 1.0
        expected = json.dumps(dict(zip(CSV_HEADER.split(","), dataclasses.astuple(stored))))
        assert path.read_text().splitlines()[1] == expected

    def test_each_line_is_its_row_formatted_alone(self, tmp_path):
        # longer than one chunk, with 0.0 and -0.0 in one column of one chunk,
        # values repeated across chunks, None in every nullable field, ints in
        # float columns and extreme floats: formatting each distinct value once
        # gives every row's text as formatting the row alone does
        rows = [
            LogRow(
                t=t, domain=t // 300, accuracy=(t % 7) / 7, lf_raw=(0.0, -0.0, 1e-300)[t % 3],
                lf_ema=1e16 if t % 5 == 0 else t * 1e-3, lf_min=1 if t % 4 == 0 else -0.0 if t % 2 else 0.0,
                slope=None if t % 4 == 0 else t * 1e-6, threshold=None if t % 5 == 0 else 2.5e-7,
                reset=int(t % 11 == 5), lam=(1, 0.5, -0.0)[t % 3] if t % 11 == 5 else None,
            )
            for t in range(1, 2501)
        ]
        log = ExperimentLog("x", 0, rows=rows)
        csv = export_log(log, tmp_path / "log.csv").read_text().splitlines()[1:]
        jsonl = export_log(log, tmp_path / "log.jsonl").read_text().splitlines()[1:]
        assert len(csv) == len(jsonl) == len(rows)
        for row, csv_line, json_line in zip(log.rows, csv, jsonl):
            values = dataclasses.astuple(row)
            cells = ["" if v is None else "%d" % v if isinstance(v, int) else "%.9g" % v for v in values]
            assert csv_line == ",".join(cells)
            assert json_line == json.dumps(dict(zip(CSV_HEADER.split(","), values)))
        assert {line.split(",")[3] for line in csv} == {"0", "-0", "1e-300"}

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", ["lf_raw", "lam"])
    def test_jsonl_non_finite_float_names_its_row(self, column, bad):
        rows = make_rows([0.5, 0.25, 1.0], resets={2})
        rows[1] = dataclasses.replace(rows[1], **{column: bad})
        with pytest.raises(ValueError, match="non-finite value in the log row at t=2"):
            ExperimentLog("x", 0, rows=rows)

    def test_row_with_an_empty_required_field_is_rejected(self, tmp_path):
        rows = make_rows([0.5, 0.25])
        with pytest.raises(ValueError, match="empty required field in the log row at t=2"):
            ExperimentLog("x", 0, rows=[rows[0], dataclasses.replace(rows[1], accuracy=None)])
        path = export_log(ExperimentLog("x", 0, rows=rows), tmp_path / "log.jsonl")
        path.write_text(path.read_text().replace('"accuracy": 0.25', '"accuracy": null'))
        with pytest.raises(ValueError, match="log.jsonl: empty required field in the log row at t=2"):
            import_log_jsonl(path)

    # (field, value, what the error names): a bool, a fraction or a float
    # in an int field, a reset that is not a flag, and a string, a bool or a
    # list in a float field
    BAD_FIELDS = [
        ("t", 1.5, "non-integer value in an integer field"),
        ("domain", 0.9, "non-integer value in an integer field"),
        ("reset", True, "non-integer value in an integer field"),
        ("reset", 1.0, "non-integer value in an integer field"),
        ("reset", 7, "reset other than 0 or 1"),
        ("reset", -1, "reset other than 0 or 1"),
        ("slope", "0.1", "non-numeric value in a float field"),
        ("accuracy", True, "non-numeric value in a float field"),
        ("threshold", [1.0], "non-numeric value in a float field"),
        ("accuracy", 7.5, "accuracy outside [0, 1]"),
        ("accuracy", -0.25, "accuracy outside [0, 1]"),
    ]

    @pytest.mark.parametrize(("column", "value", "named"), BAD_FIELDS)
    def test_row_with_a_bad_int_field_is_rejected(self, column, value, named):
        rows = make_rows([0.5, 0.25, 1.0])
        rows[1] = dataclasses.replace(rows[1], **{column: value})
        with pytest.raises(ValueError, match=f"{re.escape(named)} .*log row at t={rows[1].t}"):
            ExperimentLog("x", 0, rows=rows)

    @pytest.mark.parametrize(("column", "value", "named"), BAD_FIELDS)
    def test_jsonl_import_rejects_a_bad_int_field(self, tmp_path, column, value, named):
        path = export_log(make_log([0.5, 0.25, 1.0]), tmp_path / "log.jsonl")
        meta, *rows = path.read_text().splitlines()
        row = json.loads(rows[1])
        row[column] = value
        rows[1] = json.dumps(row)
        path.write_text("\n".join([meta, *rows]) + "\n")
        with pytest.raises(ValueError, match=f"log.jsonl: {re.escape(named)} in the log row at t={row['t']}"):
            import_log_jsonl(path)

    # an integer past the float range, and one past 2**53 that a float would round
    NO_FLOAT_HOLDS = pytest.mark.parametrize(
        ("column", "value"),
        [("t", 10**400), ("accuracy", 10**400), ("t", 2**53 + 1)],
        ids=["t past the float range", "accuracy past the float range", "t of 2**53 + 1"],
    )

    @NO_FLOAT_HOLDS
    def test_row_with_an_integer_no_float_holds_is_rejected(self, column, value):
        rows = make_rows([0.5, 0.25, 1.0])
        rows[1] = dataclasses.replace(rows[1], **{column: value})
        with pytest.raises(ValueError, match=f"integer that no float64 holds exactly in the log row at t={rows[1].t}"):
            ExperimentLog("x", 0, rows=rows)

    @NO_FLOAT_HOLDS
    def test_jsonl_import_rejects_an_integer_no_float_holds(self, tmp_path, column, value):
        path = export_log(make_log([0.5, 0.25, 1.0]), tmp_path / "log.jsonl")
        meta, *rows = path.read_text().splitlines()
        row = json.loads(rows[1])
        row[column] = value
        rows[1] = json.dumps(row)
        path.write_text("\n".join([meta, *rows]) + "\n")
        with pytest.raises(ValueError, match=f"log.jsonl: integer that no float64 holds exactly in the log row at t={row['t']}"):
            import_log_jsonl(path)

    # the meta line's text, and what the error names
    BAD_META = [
        ('{"policy": "abr", "seed": "3", "aborted_at": null}', "meta line's seed must be an integer >= 0, got '3'"),
        ('{"policy": "abr", "seed": 1.5, "aborted_at": null}', "meta line's seed must be an integer >= 0, got 1.5"),
        ('{"policy": "abr", "seed": true, "aborted_at": null}', "meta line's seed must be an integer >= 0, got True"),
        ('{"policy": "abr", "seed": -1, "aborted_at": null}', "meta line's seed must be an integer >= 0, got -1"),
        ('{"policy": 7, "seed": 3, "aborted_at": null}', "meta line's policy must be a string, got 7"),
        ('{"policy": "abr", "seed": 3, "aborted_at": "x"}', "meta line's aborted_at must be null or an integer >= 1, got 'x'"),
        ('{"policy": "abr", "seed": 3, "aborted_at": 0}', "meta line's aborted_at must be null or an integer >= 1, got 0"),
        # a run that aborts at step t has logged t - 1 rows, and this log has 2
        ('{"policy": "abr", "seed": 3, "aborted_at": 7}', "meta line's aborted_at must be null or the row count plus one, 3, got 7"),
        ('{"policy": "abr", "seed": 3, "aborted_at": 2}', "meta line's aborted_at must be null or the row count plus one, 3, got 2"),
        ('{"policy": "abr", "seed": 3}', "meta line must be an object of exactly the keys policy, seed, aborted_at"),
        ('{"policy": "abr", "seed": 3, "aborted_at": null, "note": 1}', "meta line must be an object of exactly the keys"),
        ('["abr", 3, null]', "meta line must be an object of exactly the keys"),
        ('{"policy": "abr", "seed": 3, "aborted_at": nul', "meta line is not readable JSON: Expecting value at column 44"),
        (
            '{"policy": "abr", "seed": ' + "1" * 5001 + ', "aborted_at": null}',
            "meta line is not readable JSON: Exceeds the limit (4300 digits) for integer string conversion",
        ),
    ]

    @pytest.mark.parametrize(
        ("line", "named"),
        BAD_META,
        ids=["seed a string", "seed a fraction", "seed true", "seed -1", "policy a number",
             "aborted_at a string", "aborted_at 0", "aborted_at past the rows", "aborted_at on the last row",
             "missing key", "extra key", "a list", "truncated", "seed past the digit limit"],
    )
    def test_jsonl_import_rejects_a_bad_meta_line(self, tmp_path, line, named):
        path = export_log(make_log([0.5, 0.25]), tmp_path / "log.jsonl")
        meta, *rows = path.read_text().splitlines()
        path.write_text("\n".join([line, *rows]) + "\n")
        with pytest.raises(ValueError, match=f"log.jsonl: the {re.escape(named)}"):
            import_log_jsonl(path)

    # how the second row is changed: a missing key, an extra key, and a row
    # that is not an object
    @pytest.mark.parametrize(
        "change",
        [
            lambda row: {k: v for k, v in row.items() if k != "t"},
            lambda row: {**row, "lam": 1.0},
            lambda row: list(row.values()),
            lambda row: 0.25,
        ],
        ids=["missing key", "extra key", "list", "number"],
    )
    def test_jsonl_import_rejects_a_row_of_other_keys(self, tmp_path, change):
        path = export_log(make_log([0.5, 0.25, 1.0]), tmp_path / "log.jsonl")
        meta, *rows = path.read_text().splitlines()
        rows[1] = json.dumps(change(json.loads(rows[1])))
        # the blank line is counted, so the second row is the file's fourth line
        path.write_text("\n".join([meta, "", *rows]) + "\n")
        with pytest.raises(ValueError, match=f"log.jsonl: line 4 must be an object of exactly the keys {CSV_HEADER}$"):
            import_log_jsonl(path)

    # (row index, lambda) in a log whose second row resets: the reset row
    # without lambda, lambdas on a row that did not reset, and lambdas
    # outside [0, 1]
    BAD_LAMBDAS = [(1, None), (0, 1.0), (0, 0.0), (1, 5.0), (1, -0.5)]
    LAMBDA_RULE = re.escape("lambda outside [0, 1] on a reset row or not empty on another")

    @pytest.mark.parametrize(("i", "lam"), BAD_LAMBDAS)
    def test_row_whose_lambda_disagrees_with_its_reset_is_rejected(self, i, lam):
        rows = make_rows([0.5, 0.25, 1.0], resets={2})
        rows[i] = dataclasses.replace(rows[i], lam=lam)
        with pytest.raises(ValueError, match=f"{self.LAMBDA_RULE} in the log row at t={i + 1}$"):
            ExperimentLog("x", 0, rows=rows)

    @pytest.mark.parametrize(("i", "lam"), BAD_LAMBDAS)
    def test_jsonl_import_rejects_a_lambda_that_disagrees_with_its_reset(self, tmp_path, i, lam):
        path = export_log(make_log([0.5, 0.25, 1.0], resets={2}), tmp_path / "log.jsonl")
        meta, *rows = path.read_text().splitlines()
        row = json.loads(rows[i])
        row["lambda"] = lam
        rows[i] = json.dumps(row)
        path.write_text("\n".join([meta, *rows]) + "\n")
        with pytest.raises(ValueError, match=f"log.jsonl: {self.LAMBDA_RULE} in the log row at t={i + 1}$"):
            import_log_jsonl(path)

    def test_lambdas_at_the_ends_of_the_range_are_accepted(self, tmp_path):
        rows = make_rows([0.5, 0.25, 1.0], resets={1, 3})
        rows[0] = dataclasses.replace(rows[0], lam=0.0)
        log = ExperimentLog("x", 0, rows=rows)
        assert log.rows.column("lam").tolist()[::2] == [0.0, 1.0]
        assert rows_equal(import_log_jsonl(export_log(log, tmp_path / "log.jsonl")), log)

    def test_jsonl_import_keeps_large_integers_that_floats_hold(self, tmp_path):
        path = export_log(make_log([0.5, 0.25]), tmp_path / "log.jsonl")
        row_two = '"t": 2, "domain": 0, "accuracy": 0.25, "lf_raw": 0.0'
        text = path.read_text().replace(row_two, f'"t": 2, "domain": {2**53}, "accuracy": 0.25, "lf_raw": {2**60}')
        path.write_text(text)
        row = import_log_jsonl(path).rows[1]
        assert (row.domain, row.lf_raw) == (2**53, 2.0**60)

    def test_rows_out_of_t_sequence_are_rejected(self):
        rows = make_rows([0.5, 0.25])
        with pytest.raises(ValueError, match=r"t out of sequence \(expected 2\) in the log row at t=1$"):
            ExperimentLog("x", 0, rows=[rows[0], rows[0]])

    def test_jsonl_import_rejects_rows_out_of_t_sequence(self, tmp_path):
        # the abort step fits two rows, but rows at t = 7, 7 are not t = 1, 2
        path = export_log(ExperimentLog("x", 0, rows=make_rows([0.5, 0.25]), aborted_at=3), tmp_path / "log.jsonl")
        meta, *rows = path.read_text().splitlines()
        path.write_text("\n".join([meta, *(row.replace(f'"t": {t}', '"t": 7') for t, row in enumerate(rows, 1))]) + "\n")
        with pytest.raises(ValueError, match=r"log.jsonl: t out of sequence \(expected 1\) in the log row at t=7$"):
            import_log_jsonl(path)

    def test_rows_breaking_two_rules_name_the_earlier_row(self):
        rows = make_rows([0.5, 0.25, 1.0])
        # the later row breaks the rule that is checked first
        rows[0] = dataclasses.replace(rows[0], accuracy=7.5)
        rows[2] = dataclasses.replace(rows[2], domain=None)
        with pytest.raises(ValueError, match=r"accuracy outside \[0, 1\] in the log row at t=1$"):
            ExperimentLog("x", 0, rows=rows)

    def test_jsonl_import_counts_t_across_chunks(self, tmp_path):
        path = export_log(make_log([0.5] * 2500), tmp_path / "log.jsonl")
        meta, *rows = path.read_text().splitlines()
        del rows[1499]  # t = 1500, in the second chunk of 1,024 rows
        path.write_text("\n".join([meta, *rows]) + "\n")
        with pytest.raises(ValueError, match=r"log.jsonl: t out of sequence \(expected 1500\) in the log row at t=1501$"):
            import_log_jsonl(path)

    def test_row_with_numpy_int_fields_is_accepted(self):
        row = dataclasses.replace(make_rows([0.5])[0], t=np.int64(1), domain=np.int32(0), reset=np.int64(0))
        assert ExperimentLog("x", 0, rows=[row]).rows == make_rows([0.5])

    def test_jsonl_import_skips_blank_lines(self, tmp_path):
        log = make_log([0.5, 0.25], resets={2})
        path = export_log(log, tmp_path / "log.jsonl")
        lines = path.read_text().splitlines()
        path.write_text("\n" + "\r\n\n".join(lines) + "\n\n", newline="")
        back = import_log_jsonl(path)
        assert back.policy_name == "x" and rows_equal(back, log)

    @pytest.mark.parametrize("value", ["NaN", "-Infinity", "1e999"])
    def test_jsonl_import_rejects_non_finite_floats(self, tmp_path, value):
        path = export_log(make_log([0.5, 0.25]), tmp_path / "log.jsonl")
        path.write_text(path.read_text().replace('"lf_raw": 0.0', f'"lf_raw": {value}', 1))
        with pytest.raises(ValueError, match="log.jsonl: non-finite value in the log row at t=1"):
            import_log_jsonl(path)

    # how the row lines are changed, and what the error names: the file's
    # line, counting the meta line, and the column within it
    @pytest.mark.parametrize(
        ("change", "named"),
        [
            (lambda rows: [", ".join(rows[:2]), *rows[2:]], "line 2 is not readable JSON: Extra data at column 146"),
            (
                lambda rows: [rows[0], rows[1].replace(", ", ",\n", 1), *rows[2:]],
                "line 3 is not readable JSON: Expecting property name enclosed in double quotes at column 10",
            ),
            (lambda rows: [rows[0], rows[1][:140], *rows[2:]], "line 3 is not readable JSON: Expecting value at column 142"),
            (
                lambda rows: [rows[0], rows[1].replace('"t": 2', '"t": ' + "1" * 5001), *rows[2:]],
                "line 3 is not readable JSON: Exceeds the limit (4300 digits) for integer string conversion",
            ),
        ],
        ids=["two rows on a line", "a row on two lines", "a truncated row", "an integer past the digit limit"],
    )
    def test_jsonl_import_reads_one_row_per_line(self, tmp_path, change, named):
        path = export_log(make_log([0.5, 0.25, 1.0]), tmp_path / "log.jsonl")
        meta, *rows = path.read_text().splitlines()
        path.write_text("\n".join([meta, *change(rows)]) + "\n")
        with pytest.raises(ValueError, match=f"log.jsonl: {re.escape(named)}"):
            import_log_jsonl(path)

    # how a row line is broken, and what the error names for it on file line n
    FAULTS = {
        "rule": (lambda line: line.replace('"accuracy": 0.5', '"accuracy": 7.5'), "accuracy outside [0, 1] in the log row at t={t}"),
        "not JSON": (lambda line: "{oops", "line {n} is not readable JSON"),
        "other keys": (lambda line: line.replace("}", ', "note": 1}'), "line {n} must be an object of exactly the keys"),
    }

    # two faults, each as (fault, file line), the first in the file first; the
    # first chunk of 1,024 rows ends on line 1,025, after the meta line
    @pytest.mark.parametrize(
        ("first", "second"),
        [
            (("rule", 4), ("not JSON", 901)),
            (("not JSON", 4), ("rule", 901)),
            (("rule", 4), ("not JSON", 1101)),
            (("not JSON", 4), ("rule", 1101)),
            (("rule", 4), ("other keys", 901)),
            (("other keys", 4), ("rule", 901)),
        ],
        ids=["rule fault, then not JSON", "not JSON, then rule fault",
             "rule fault, then not JSON in the next chunk", "not JSON, then rule fault in the next chunk",
             "rule fault, then other keys", "other keys, then rule fault"],
    )
    def test_jsonl_import_names_the_first_bad_line(self, tmp_path, first, second):
        path = export_log(make_log([0.5] * 1500), tmp_path / "log.jsonl")
        lines = path.read_text().splitlines()
        for fault, n in (first, second):
            lines[n - 1] = self.FAULTS[fault][0](lines[n - 1])
        path.write_text("\n".join(lines) + "\n")
        fault, n = first
        named = self.FAULTS[fault][1].format(n=n, t=n - 1)
        with pytest.raises(ValueError, match=f"log.jsonl: {re.escape(named)}"):
            import_log_jsonl(path)

    @pytest.mark.parametrize(
        "line",
        ['{"policy": "x", "seed": 3, "seed": 0, "aborted_at": null}', '{"policy": "x", "s\\u0065ed": 3, "seed": 0, "aborted_at": null}'],
        ids=["plain", "through an escape"],
    )
    def test_jsonl_import_rejects_a_meta_line_that_repeats_a_key(self, tmp_path, line):
        path = export_log(make_log([0.5, 0.25]), tmp_path / "log.jsonl")
        meta, *rows = path.read_text().splitlines()
        path.write_text("\n".join([line, *rows]) + "\n")
        with pytest.raises(ValueError, match="log.jsonl: the meta line must be an object of exactly the keys policy, seed, aborted_at$"):
            import_log_jsonl(path)

    # (row index, its text, the text put in its place) and what the import
    # names: the log has a blank line after its meta line, so row i is on file
    # line i + 3, and the first chunk of 1,024 lines ends on file line 1,025
    ROW_TEXTS = [
        ((1, '{"t": 2,', '{"t": 9, "t": 2,'), f"line 4 must be an object of exactly the keys {CSV_HEADER}"),
        ((1300, '"accuracy": 0.5,', '"accuracy": 7.5, "accuracy": 0.5,'), f"line 1303 must be an object of exactly the keys {CSV_HEADER}"),
        ((500, '{"t": 501,', '{"\\u0074": 9, "t": 501,'), f"line 503 must be an object of exactly the keys {CSV_HEADER}"),
        ((1, '"domain": 0,', '"domain": "0",'), "non-integer value in an integer field in the log row at t=2"),
        ((1, '"accuracy": 0.5,', '"accuracy": "0.5",'), "non-numeric value in a float field in the log row at t=2"),
        ((1, '"domain"', '"dom\\"ain"'), f"line 4 must be an object of exactly the keys {CSV_HEADER}"),
    ]

    @pytest.mark.parametrize(
        ("change", "named"),
        ROW_TEXTS,
        ids=["a key twice", "a key twice past the first chunk", "a key twice through an escape",
             "a string in an int field", "a string in a float field", "a key holding an escaped quote"],
    )
    def test_jsonl_import_names_a_row_of_repeated_keys_or_quoted_text(self, tmp_path, change, named):
        path = export_log(make_log([0.5] * 1500), tmp_path / "log.jsonl")
        meta, *rows = path.read_text().splitlines()
        i, old, new = change
        assert old in rows[i]
        rows[i] = rows[i].replace(old, new)
        path.write_text("\n".join([meta, "", *rows]) + "\n")
        with pytest.raises(ValueError, match=f"log.jsonl: {re.escape(named)}$"):
            import_log_jsonl(path)

    @settings(max_examples=50, deadline=None)
    @given(key=st.sampled_from(CSV_HEADER.split(",")), i=st.integers(0, 1099))
    def test_jsonl_import_names_any_row_that_repeats_a_key(self, tmp_path_factory, key, i):
        path = export_log(make_log([0.5, 0.25] * 550, resets={7}), tmp_path_factory.mktemp("repeat") / "log.jsonl")
        meta, *rows = path.read_text().splitlines()
        # the row writes the key once more, first, with the value it holds
        rows[i] = f'{{"{key}": {json.dumps(json.loads(rows[i])[key])}, ' + rows[i][1:]
        path.write_text("\n".join([meta, *rows]) + "\n")
        with pytest.raises(ValueError, match=f"log.jsonl: line {i + 2} must be an object of exactly the keys {CSV_HEADER}$"):
            import_log_jsonl(path)

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
        failed = {"failed": True, "pretraining_epoch": 1}
        assert summary.cells == {name: {0: failed, 1: failed} for name in policies}
        # the failed pretraining is not repeated for the seed's other cells
        assert calls == [0, 1]

    def test_a_fault_inside_a_step_is_not_a_failed_cell(self, planted_fault):
        cfg = dataclasses.replace(small_config(), policies={"a": NoReset(), "b": FixedInterval(period=5)})
        with pytest.raises(ValueError) as excinfo:
            compare_policies(cfg)
        assert excinfo.value is planted_fault

    def test_needs_two_policies(self):
        cfg = small_config()
        with pytest.raises(ValueError, match="two policies"):
            compare_policies(dataclasses.replace(cfg, policies={"a": NoReset()}))

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
        with pytest.raises(DivergenceError) as excinfo:
            run_experiment(cfg, 0, policy=NoReset())
        # the cell names the step its run diverged at, as the run log's aborted_at does
        assert summary.cells["no_reset"][0] == {"failed": True, "aborted_at": excinfo.value.step}
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
