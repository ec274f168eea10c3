"""CLI contracts: subcommands, flags, exit codes, deterministic output."""

import json
import re
import warnings

import pytest

from flipreset import cli, harness
from flipreset.cli import main
from flipreset.config import load_config
from flipreset.harness import CSV_HEADER, build_model, import_log_jsonl

SMALL = {
    "stream": {"num_domains": 4, "batches_per_domain": 25},
    "learner": {
        "loss": "entropy",
        "learning_rate": 0.1,
        "pretrain": {"samples_per_class": 100, "epochs": 60},
    },
    "policy": {"kind": "abr"},
    "policies": {
        "no_reset": {"kind": "no_reset"},
        "abr": {"kind": "abr"},
    },
    "batch_size": 16,
    "seeds": [0, 1],
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL))
    return str(path)


@pytest.fixture
def diverging_pretraining(tmp_path):
    """SMALL with a pretraining rate whose loss goes non-finite at epoch 1."""
    cfg = dict(SMALL, learner={"pretrain": {"samples_per_class": 100, "epochs": 60, "learning_rate": 1e308}})
    path = tmp_path / "diverging.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture
def runaway_momentum(tmp_path):
    """SMALL with a momentum whose weights go non-finite within the run."""
    cfg = dict(SMALL, stream={"num_domains": 10, "batches_per_domain": 50})
    cfg["learner"] = {
        "loss": "entropy",
        "learning_rate": 1.0,
        "momentum": 25.0,
        "pretrain": {"samples_per_class": 100, "epochs": 60},
    }
    path = tmp_path / "runaway.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestExitCodes:
    def test_missing_config_names_path(self, capsys):
        code = main(["run", "--config", "missing.json"])
        assert code == 1
        assert "missing.json" in capsys.readouterr().err

    def test_invalid_json_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", "--config", str(bad)]) == 1
        assert "JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        [
            # Python's json reads at most 4,300 digits into an int
            b'{"stream": {"class_separation": 1' + b"0" * 5000 + b"}}",
            b'{"batch_size": 16, "note": "\xff"}',
        ],
        ids=["integer past the digit limit", "not UTF-8"],
    )
    def test_unreadable_json_exits_one(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_bytes(text)
        assert main(["run", "--config", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "not readable JSON" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        ("text", "key"),
        [
            ('{"batch_size": 32, "batch_size": 64}', "batch_size"),
            ('{"policy": {"kind": "abr", "beta": 1e-6, "beta": 2e-6}}', "beta"),
        ],
        ids=["top level", "in policy"],
    )
    def test_repeated_key_exits_one_naming_the_file_and_the_key(self, tmp_path, capsys, text, key):
        path = tmp_path / "repeats.json"
        path.write_text(text)
        assert main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: config file {path} repeats the key {key!r} in one object\n"

    def test_unknown_flag_rejected(self, config_path, capsys):
        assert main(["run", "--config", config_path, "--frobnicate"]) == 1
        capsys.readouterr()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = dict(SMALL)
        cfg["reset_policy"] = {}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path)]) == 1
        assert "reset_policy" in capsys.readouterr().err

    def test_divergence_exits_two_and_flushes_rows(self, runaway_momentum, tmp_path, capsys):
        out = tmp_path / "partial.csv"
        code = main(["run", "--config", runaway_momentum, "--out", str(out)])
        assert code == 2
        assert "(t=" in capsys.readouterr().err
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) > 1  # completed rows flushed before the abort

    def test_divergence_is_reported_by_its_aborted_line_alone(self, runaway_momentum, capsys):
        # numpy's overflow in the momentum step would be a second report
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", "--config", runaway_momentum]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"aborted: non-finite parameters \(t=\d+\)\n", captured.err)

    def test_non_finite_stream_exits_two_and_flushes_rows(self, tmp_path, capsys):
        cfg = dict(SMALL)
        # a finite severity whose scaled features overflow to inf
        cfg["stream"] = {
            "batches_per_domain": 5,
            "domains": [
                {"kind": "gaussian_noise", "severity": 0.5},
                {"kind": "feature_scale", "severity": 1e308},
            ],
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "partial.csv"
        code = main(["run", "--config", str(path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "aborted: non-finite features (t=6)" in err
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 6  # the five batches of the first domain

    def test_a_fault_inside_a_step_does_not_exit_two(self, config_path, planted_fault, capsys):
        # a fault of the program ends in a traceback, not in a divergence's exit code 2
        with pytest.raises(ValueError) as excinfo:
            main(["run", "--config", config_path, "--quiet"])
        assert excinfo.value is planted_fault
        assert "aborted" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_negative_seed_override_rejected(self, command, config_path, capsys):
        assert main([command, "--config", config_path, "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert "seeds must be non-negative" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["run"])
    def test_pretraining_divergence_names_epoch(self, command, diverging_pretraining, capsys):
        assert main([command, "--config", diverging_pretraining]) == 2
        err = capsys.readouterr().err
        assert "aborted: pretraining loss non-finite at epoch 1" in err
        assert "(t=" not in err

    def test_compare_marks_the_seeds_whose_pretraining_diverges(self, diverging_pretraining, capsys):
        assert main(["compare", "--config", diverging_pretraining]) == 0
        captured = capsys.readouterr()
        rows = captured.out.splitlines()[1:]
        assert len(rows) == 2 and all(row.endswith("[diverged: seeds [0, 1]]") for row in rows)
        assert "aborted" not in captured.err and "Traceback" not in captured.err


class TestRun:
    def test_writes_csv_with_full_horizon(self, config_path, tmp_path, capsys):
        out = tmp_path / "log.csv"
        assert main(["run", "--config", config_path, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 4 * 25
        stdout = capsys.readouterr().out
        assert "mean_acc=" in stdout and "seed=0" in stdout

    def test_seed_override(self, config_path, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["run", "--config", config_path, "--out", str(a), "--seed", "1"])
        main(["run", "--config", config_path, "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_repeat_runs_bitwise_identical(self, config_path, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["run", "--config", config_path, "--out", str(a), "--quiet"])
        main(["run", "--config", config_path, "--out", str(b), "--quiet"])
        assert a.read_bytes() == b.read_bytes()

    def test_reports_the_source_holdout_accuracy(self, config_path, capsys):
        assert main(["run", "--config", config_path]) == 0
        _, holdout = build_model(load_config(config_path), 0)
        assert f" holdout_acc={holdout:.4f} " in capsys.readouterr().out

    def test_reports_nan_when_pretraining_holds_no_sample_out(self, tmp_path, capsys):
        learner = dict(SMALL["learner"], pretrain=dict(SMALL["learner"]["pretrain"], holdout_fraction=0))
        path = tmp_path / "no_holdout.json"
        path.write_text(json.dumps(dict(SMALL, learner=learner)))
        assert main(["run", "--config", str(path)]) == 0
        assert " holdout_acc=nan " in capsys.readouterr().out

    def test_pretrains_once(self, config_path, monkeypatch, capsys):
        calls = []

        def counted(config, seed):
            calls.append(seed)
            return build_model(config, seed)

        monkeypatch.setattr(cli, "build_model", counted)
        monkeypatch.setattr(harness, "build_model", counted)
        assert main(["run", "--config", config_path, "--seed", "1", "--quiet"]) == 0
        assert calls == [1]

    def test_quiet_suppresses_stdout(self, config_path, capsys):
        assert main(["run", "--config", config_path, "--quiet"]) == 0
        assert capsys.readouterr().out == ""


class TestCompare:
    def test_deterministic_stdout(self, config_path, capsys):
        assert main(["compare", "--config", config_path, "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(["compare", "--config", config_path, "--seed", "7"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "no_reset" in first and "abr" in first

    def test_policy_flag_is_rejected(self, config_path, capsys):
        # a subset of the policies is run by listing it in the config's policies map
        assert main(["compare", "--config", config_path, "--policy", "abr"]) == 1
        assert "--policy" in capsys.readouterr().err

    def test_single_policy_fails_contract(self, tmp_path, capsys):
        # comparison is defined over >= 2 policies
        path = tmp_path / "one.json"
        path.write_text(json.dumps({**SMALL, "policies": {"abr": {"kind": "abr"}}}))
        assert main(["compare", "--config", str(path)]) == 1
        assert "at least two policies" in capsys.readouterr().err

    def test_config_without_policies_fails_contract(self, tmp_path, capsys):
        path = tmp_path / "none.json"
        path.write_text(json.dumps({k: v for k, v in SMALL.items() if k != "policies"}))
        assert main(["compare", "--config", str(path)]) == 1
        assert capsys.readouterr().err == "error: compare requires a 'policies' map in the config\n"

    def test_table_written_to_out(self, config_path, tmp_path, capsys):
        out = tmp_path / "table.txt"
        main(["compare", "--config", config_path, "--out", str(out), "--quiet"])
        assert "policy" in out.read_text().splitlines()[0]


class TestExportAndPretrain:
    def test_export_jsonl_round_trip(self, config_path, tmp_path, capsys):
        out = tmp_path / "log.jsonl"
        assert main(["run", "--config", config_path, "--out", str(out)]) == 0
        log = import_log_jsonl(out)
        assert len(log.rows) == 100
        assert log.seed == 0

    def test_export_requires_out_with_known_suffix(self, config_path, tmp_path, monkeypatch, capsys):
        runs = []
        monkeypatch.setattr(cli, "run_experiment", lambda *args, **kwargs: runs.append(args))
        out = tmp_path / "x.txt"
        assert main(["run", "--config", config_path, "--out", str(out)]) == 1
        assert "--out must end in .csv or .jsonl" in capsys.readouterr().err
        assert runs == [] and not out.exists()
        # removed subcommands: run writes the log, and reports the source model's holdout accuracy
        for removed in ("export", "pretrain"):
            assert main([removed, "--config", config_path, "--out", "x.csv"]) == 1
            err = capsys.readouterr().err
            assert removed in err and "Traceback" not in err

    @pytest.mark.parametrize(("command", "name"), [("run", "log.csv"), ("compare", "table.txt")])
    def test_unwritable_out_rejected_before_any_work(self, command, name, config_path, tmp_path, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("the work started before --out was checked")

        for attr in ("run_experiment", "build_model", "compare_policies"):
            monkeypatch.setattr(cli, attr, never)
        afile = tmp_path / "afile"
        afile.write_text("")
        (tmp_path / name).mkdir()
        # a parent that is a file, and a directory given as the output file
        for out in (afile / name, tmp_path / name):
            assert main([command, "--config", config_path, "--out", str(out)]) == 1
            assert f"--out {str(out)!r}" in capsys.readouterr().err
        # the empty path, which run rejects by its suffix and compare as the
        # working directory: Path('') is '.'
        empty = {"run": "--out must end in .csv or .jsonl, got ''", "compare": "--out '' is a directory"}
        assert main([command, "--config", config_path, "--out", ""]) == 1
        assert empty[command] in capsys.readouterr().err


class TestOutputDirOverride:
    def test_relative_out_rerooted(self, config_path, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("FLIPRESET_OUTDIR", str(tmp_path))
        assert main(["run", "--config", config_path, "--out", "nested/log.csv", "--quiet"]) == 0
        assert (tmp_path / "nested" / "log.csv").exists()

    def test_absolute_out_untouched(self, config_path, tmp_path, monkeypatch):
        monkeypatch.setenv("FLIPRESET_OUTDIR", str(tmp_path / "elsewhere"))
        target = tmp_path / "direct.csv"
        assert main(["run", "--config", config_path, "--out", str(target), "--quiet"]) == 0
        assert target.exists()
        assert not (tmp_path / "elsewhere").exists()

    @pytest.mark.parametrize(
        ("command", "name"),
        [("run", "log.csv"), ("compare", "table.txt")],
    )
    def test_every_command_reroots_out(self, config_path, tmp_path, monkeypatch, command, name):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("FLIPRESET_OUTDIR", str(tmp_path / "outdir"))
        assert main([command, "--config", config_path, "--out", f"sub/{name}", "--quiet"]) == 0
        assert (tmp_path / "outdir" / "sub" / name).exists()
        assert not (tmp_path / "sub").exists()
