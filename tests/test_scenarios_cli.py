"""The ``python -m repro scenarios`` command-line surface."""

import json
import re

import pytest

import repro.experiments.report as report_mod
from repro.scenarios.catalog import scenario_names
from repro.scenarios.cli import main


@pytest.fixture(autouse=True)
def _redirect_results(tmp_path, monkeypatch):
    monkeypatch.setattr(report_mod, "RESULTS_DIR", str(tmp_path))
    return tmp_path


def test_help(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "scenarios run" in out


def test_list_shows_all_catalog_entries(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in scenario_names():
        assert name in out


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 2


def test_unknown_scenario_exits_with_choices():
    with pytest.raises(SystemExit, match="flash-crowd"):
        main(["run", "nope"])


def test_unknown_option_rejected():
    with pytest.raises(SystemExit, match="--frob"):
        main(["run", "flash-crowd", "--frob", "--quick"])


@pytest.mark.parametrize(
    "flag, value, noun",
    [
        ("--seed", "abc", "an integer"),
        ("--t-rate", "abc", "a number"),
        ("--n0-scale", "abc", "a number"),
        ("--snapshot-interval", "x", "a number"),
    ],
)
def test_non_numeric_option_exits_before_running(monkeypatch, flag, value, noun):
    monkeypatch.setattr(
        "repro.scenarios.cli.run_catalog", lambda **kw: pytest.fail("catalog ran")
    )
    with pytest.raises(SystemExit, match=f"{flag} expects {noun}, got '{value}'"):
        main(["run", "flash-crowd", flag, value])


@pytest.mark.parametrize(
    "args, message",
    [
        (["--n0-scale", "-1"], "--n0-scale must be > 0, got -1"),
        (["--snapshot-interval", "5"], "--snapshot-interval requires --progress"),
        (["--t-rate", "-5"], "--t-rate must be >= 0, got -5"),
        (["--t-rate", "nan"], "--t-rate must be >= 0, got nan"),
    ],
)
def test_bad_option_value_exits_before_running(monkeypatch, args, message):
    monkeypatch.setattr(
        "repro.scenarios.cli.run_catalog", lambda **kw: pytest.fail("catalog ran")
    )
    with pytest.raises(SystemExit, match=re.escape(message)):
        main(["run", "flash-crowd"] + args)


def test_zero_t_rate_runs_without_an_adversary(tmp_path, _redirect_results):
    json_path = tmp_path / "out.json"
    code = main(
        [
            "run", "flash-crowd", "--defense", "Null", "--quick",
            "--t-rate", "0", "--jobs", "1", "--json", str(json_path),
        ]
    )
    assert code == 0
    (row,) = json.loads(json_path.read_text())["rows"]
    assert row["t_rate"] == 0.0
    assert row["adversary_spend"] == 0.0
    assert row["good_joins"] > 0


def test_unknown_defense_fails_fast():
    # A typo'd defense must not surface as a worker-process KeyError.
    with pytest.raises(SystemExit, match="Ergo"):
        main(["run", "flash-crowd", "--defense", "Ergo", "--quick"])


def test_run_writes_metrics_json(tmp_path, capsys, _redirect_results):
    json_path = tmp_path / "out.json"
    code = main(
        [
            "run", "flash-crowd",
            "--defense", "Null",
            "--quick",
            "--seed", "3",
            "--jobs", "1",
            "--json", str(json_path),
        ]
    )
    assert code == 0
    report = json.loads(json_path.read_text())
    assert report["scenarios"] == ["flash-crowd"]
    assert report["defenses"] == ["Null"]
    (row,) = report["rows"]
    assert row["scenario"] == "flash-crowd"
    assert row["good_joins"] > 0
    # The default report lands in results/ too.
    assert (_redirect_results / "scenarios.json").exists()
    out = capsys.readouterr().out
    assert "flash-crowd" in out


class TestResilience:
    ARGS = [
        "run", "flash-crowd",
        "--defense", "Null",
        "--quick",
        "--seed", "3",
        "--jobs", "1",
    ]

    def test_injected_transient_fault_recovered(self, _redirect_results):
        code = main(
            self.ARGS + ["--max-retries", "2", "--fault-spec", "raise@0"]
        )
        assert code == 0
        report = json.loads(
            (_redirect_results / "scenarios.json").read_text()
        )
        assert report["failures"] == []
        assert report["retries"] >= 1
        # A clean run leaves no checkpoint behind.
        assert not (
            _redirect_results / "checkpoints" / "scenarios.ckpt"
        ).exists()

    def test_permanent_failure_exits_1_and_keeps_checkpoint(
        self, _redirect_results, capsys
    ):
        # Two points (two defenses); every attempt of point 1 fails
        # ("raise@1x*") with no retry budget, point 0 completes and is
        # journaled.
        args = self.ARGS + ["--defense", "ERGO"]
        code = main(
            args + ["--max-retries", "0", "--fault-spec", "raise@1x*"]
        )
        assert code == 1
        report = json.loads(
            (_redirect_results / "scenarios.json").read_text()
        )
        assert len(report["rows"]) == 1  # the surviving point
        (failure,) = report["failures"]
        assert failure["index"] == 1
        assert failure["attempts"] == 1
        assert "injected fault" in failure["error"]
        out = capsys.readouterr().out
        assert "failed after retries" in out
        # The journal survives a failed run so --resume can pick it up.
        ckpt = _redirect_results / "checkpoints" / "scenarios.ckpt"
        assert ckpt.exists()
        # ... and a --resume re-run (faults gone) completes cleanly.
        assert main(args + ["--resume"]) == 0
        assert not ckpt.exists()
        report = json.loads(
            (_redirect_results / "scenarios.json").read_text()
        )
        assert report["failures"] == []
        assert report["resumed"] == 1
        assert len(report["rows"]) == 2

    def test_bad_fault_spec_fails_before_running(self, _redirect_results):
        with pytest.raises(SystemExit, match="explode"):
            main(self.ARGS + ["--fault-spec", "explode@1"])


def test_run_same_seed_same_json(tmp_path, _redirect_results):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        main(
            [
                "run", "mass-exodus",
                "--defense", "ERGO",
                "--quick",
                "--seed", "5",
                "--jobs", "1",
                "--json", str(path),
            ]
        )
    assert paths[0].read_text() == paths[1].read_text()
