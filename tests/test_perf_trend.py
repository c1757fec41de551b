"""The CI perf trend report (benchmarks/perf_trend.py)."""

import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def trend():
    spec = importlib.util.spec_from_file_location(
        "perf_trend", REPO / "benchmarks" / "perf_trend.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _micro(eps=400_000, sweep=7.5):
    return {
        "engine_events_per_sec": eps,
        "sweep_serial_s": sweep,
    }


def _scale(wall=0.6, eps=300_000):
    return {"runs": [{"defense": "null", "wall_s": wall, "events_per_sec": eps}]}


class TestCompare:
    def test_no_regression_within_threshold(self, trend):
        rows = trend.collect_rows(
            _micro(eps=390_000), _micro(), _scale(wall=0.65), _scale(), 0.2
        )
        assert rows
        assert not any(r["regressed"] for r in rows)

    def test_throughput_drop_flagged(self, trend):
        rows = trend.collect_rows(_micro(eps=200_000), _micro(), None, None, 0.2)
        flagged = {r["metric"] for r in rows if r["regressed"]}
        assert "micro: engine events/sec (fast path)" in flagged

    def test_wall_time_growth_flagged(self, trend):
        rows = trend.collect_rows(None, None, _scale(wall=1.0), _scale(), 0.2)
        flagged = {r["metric"] for r in rows if r["regressed"]}
        assert "scale/null: wall (s)" in flagged

    def test_throughput_gain_not_flagged(self, trend):
        rows = trend.collect_rows(_micro(eps=900_000), _micro(), None, None, 0.2)
        assert not any(r["regressed"] for r in rows)

    def test_missing_baseline_yields_no_rows(self, trend):
        assert trend.collect_rows(_micro(), None, _scale(), None, 0.2) == []


class TestLimits:
    def test_overhead_within_budget_not_flagged(self, trend):
        micro = dict(_micro(), sweep_checkpoint_overhead_pct=2.5)
        rows = trend.collect_rows(micro, _micro(), None, None, 0.2)
        row = next(
            r for r in rows if "journaling overhead" in r["metric"]
        )
        assert not row["regressed"]

    def test_overhead_over_budget_flagged_without_baseline(self, trend):
        # Absolute budgets guard even a first run: no committed
        # baseline (micro_base=None), yet the limit row still appears.
        micro = dict(_micro(), sweep_checkpoint_overhead_pct=7.5)
        rows = trend.collect_rows(micro, None, None, None, 0.2)
        (row,) = rows
        assert "journaling overhead" in row["metric"]
        assert row["baseline"] == 5.0
        assert row["regressed"]


class TestRender:
    def test_regression_shows_warning(self, trend):
        rows = trend.collect_rows(_micro(eps=100_000), _micro(), None, None, 0.2)
        text = trend.render_markdown(rows, 0.2, [])
        assert "regressed" in text
        assert ":warning:" in text

    def test_clean_run_reports_ok(self, trend):
        rows = trend.collect_rows(_micro(), _micro(), _scale(), _scale(), 0.2)
        text = trend.render_markdown(rows, 0.2, [])
        assert "No regressions" in text


class TestMain:
    def test_writes_github_summary(self, trend, tmp_path, monkeypatch, capsys):
        fresh = tmp_path / "BENCH_micro.json"
        fresh.write_text(json.dumps(_micro(eps=100_000)))
        summary = tmp_path / "summary.md"
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
        # Baselines resolve at the fresh file's repo-relative path.
        monkeypatch.setattr(trend, "REPO_ROOT", tmp_path)

        def fake_git(cmd, **kwargs):
            class Result:
                stdout = json.dumps(_micro())
            if cmd[:2] == ["git", "show"]:
                return Result()
            raise AssertionError(cmd)

        monkeypatch.setattr(trend.subprocess, "run", fake_git)
        code = trend.main(["--micro", str(fresh), "--scale", str(tmp_path / "nope.json")])
        assert code == 0  # advisory by default
        assert summary.exists()
        assert ":warning:" in summary.read_text()
        assert trend.main(
            ["--micro", str(fresh), "--scale", str(tmp_path / "nope.json"), "--strict"]
        ) == 1

    def test_exit_zero_without_snapshots(self, trend, tmp_path, monkeypatch):
        monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
        code = trend.main(
            ["--micro", str(tmp_path / "a.json"), "--scale", str(tmp_path / "b.json")]
        )
        assert code == 0

    def test_fresh_file_outside_repo_has_no_baseline(self, trend, tmp_path):
        # A same-named committed file must NOT be used as the baseline
        # for a fresh snapshot living somewhere else.
        outside = tmp_path / "BENCH_micro.json"
        outside.write_text(json.dumps(_micro()))
        assert trend.load_baseline(str(outside), "HEAD") is None
