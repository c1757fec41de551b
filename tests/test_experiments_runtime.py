"""The fault-tolerant sweep runtime: retry, timeout, rebuild, resume.

Every failure here is *injected deterministically* through
:mod:`repro.faults`, so the recovery paths (pool rebuild on worker
crash, per-point timeout, retry with backoff, checkpoint/resume,
graceful interrupt) are exercised without real flakiness.
"""

import os
import pickle

import pytest

from repro.faults import FaultInjected
from repro.resilience import NO_DELAY
from repro.experiments import figure8
from repro.experiments.config import Figure8Config
from repro.experiments.runtime import (
    CheckpointMismatch,
    ExecutionPolicy,
    SweepInterrupted,
    cli_policy,
    exit_on_interrupt,
    fingerprint_tasks,
    render_failures,
    run_tasks,
)
from concurrent.futures.process import BrokenProcessPool


def _double(x):
    """Module-level so it pickles into fork workers."""
    return x * 2


def _interruptible(x):
    """Raises KeyboardInterrupt at item 2 when the env switch is set."""
    if x == 2 and os.environ.get("REPRO_TEST_INTERRUPT"):
        raise KeyboardInterrupt
    return x * 2


def _fast_policy(**overrides):
    overrides.setdefault("backoff", NO_DELAY)
    return ExecutionPolicy(**overrides)


class TestSerial:
    def test_plain_run_returns_rows_in_order(self):
        report = run_tasks(_double, [3, 1, 2])
        assert report.rows == [6, 2, 4]
        assert report.failures == []
        assert report.retries == 0

    def test_injected_raise_is_retried(self):
        report = run_tasks(
            _double,
            [0, 1, 2, 3],
            policy=_fast_policy(max_retries=2, fault_spec="raise@1x2"),
        )
        assert report.rows == [0, 2, 4, 6]
        assert report.retries == 2  # attempts 1 and 2 both injected

    def test_exhausted_retries_raise_by_default(self):
        with pytest.raises(FaultInjected):
            run_tasks(
                _double,
                [0, 1],
                policy=_fast_policy(max_retries=1, fault_spec="raise@1x*"),
            )

    def test_collect_mode_keeps_other_rows(self):
        report = run_tasks(
            _double,
            [0, 1, 2],
            policy=_fast_policy(
                max_retries=1, fault_spec="raise@1x*", on_failure="collect"
            ),
        )
        assert report.rows == [0, None, 4]
        assert report.completed == [0, 4]
        (failure,) = report.failures
        assert failure.index == 1
        assert failure.attempts == 2  # 1 try + 1 retry
        assert "FaultInjected" in failure.error

    def test_retry_timeline_is_deterministic(self):
        # Two identical injected runs must retry the same points the
        # same number of times -- no wall-clock nondeterminism.
        # ("0x..." would read as a digest prefix, so count point 1.)
        policy = _fast_policy(max_retries=3, fault_spec="raise@1x2;raise@2")
        a = run_tasks(_double, [5, 6, 7], policy=policy)
        b = run_tasks(_double, [5, 6, 7], policy=policy)
        assert a.rows == b.rows == [10, 12, 14]
        assert a.retries == b.retries == 3


class TestCheckpoint:
    def test_checkpoint_removed_after_full_success(self, tmp_path):
        ckpt = tmp_path / "run.ckpt"
        report = run_tasks(
            _double, [1, 2], policy=_fast_policy(checkpoint=str(ckpt))
        )
        assert report.rows == [2, 4]
        assert not ckpt.exists()

    def test_checkpoint_kept_on_failure_and_resume_retries_only_failures(
        self, tmp_path
    ):
        ckpt = tmp_path / "run.ckpt"
        first = run_tasks(
            _double,
            [0, 1, 2, 3],
            policy=_fast_policy(
                max_retries=0,
                fault_spec="raise@2x*",
                on_failure="collect",
                checkpoint=str(ckpt),
            ),
        )
        assert first.rows == [0, 2, None, 6]
        assert ckpt.exists()  # journal retained for --resume
        second = run_tasks(
            _double,
            [0, 1, 2, 3],
            policy=_fast_policy(checkpoint=str(ckpt), resume=True),
        )
        assert second.rows == [0, 2, 4, 6]
        assert second.resumed == 3  # only the failed point was recomputed
        assert not ckpt.exists()

    def test_resumed_rows_are_byte_identical(self, tmp_path):
        ckpt = tmp_path / "run.ckpt"
        baseline = run_tasks(_double, list(range(6)))
        with pytest.raises(FaultInjected):
            run_tasks(
                _double,
                list(range(6)),
                policy=_fast_policy(
                    max_retries=0, fault_spec="raise@3x*", checkpoint=str(ckpt)
                ),
            )
        assert ckpt.exists()
        resumed = run_tasks(
            _double,
            list(range(6)),
            policy=_fast_policy(checkpoint=str(ckpt), resume=True),
        )
        # Per-row comparison: whole-list pickles differ on string-object
        # identity (memo backrefs), which equality rightly ignores.
        assert [pickle.dumps(r) for r in resumed.rows] == [
            pickle.dumps(r) for r in baseline.rows
        ]
        assert resumed.resumed == 3  # rows 0-2 came from the journal

    def test_resume_rejects_foreign_checkpoint(self, tmp_path):
        ckpt = tmp_path / "run.ckpt"
        with pytest.raises(FaultInjected):
            run_tasks(
                _double,
                [0, 1, 2],
                policy=_fast_policy(
                    max_retries=0, fault_spec="raise@2x*", checkpoint=str(ckpt)
                ),
            )
        with pytest.raises(CheckpointMismatch, match="different sweep"):
            run_tasks(
                _double,
                [0, 1, 2, 99],  # task list changed
                policy=_fast_policy(checkpoint=str(ckpt), resume=True),
            )

    def test_fresh_run_replaces_stale_journal(self, tmp_path):
        ckpt = tmp_path / "run.ckpt"
        ckpt.write_text("{not even json")
        report = run_tasks(
            _double, [1, 2], policy=_fast_policy(checkpoint=str(ckpt))
        )
        assert report.rows == [2, 4]
        assert not ckpt.exists()

    def test_fingerprint_covers_fn_star_and_items(self):
        base = fingerprint_tasks(_double, [1, 2], False, ["a", "b"])
        assert fingerprint_tasks(_double, [1, 2], True, ["a", "b"]) != base
        assert fingerprint_tasks(_double, [1, 2], False, ["a", "c"]) != base
        assert fingerprint_tasks(_interruptible, [1, 2], False, ["a", "b"]) != base


class TestInterrupt:
    def test_ctrl_c_flushes_checkpoint_and_raises_sweep_interrupted(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TEST_INTERRUPT", "1")
        ckpt = tmp_path / "run.ckpt"
        with pytest.raises(SweepInterrupted) as info:
            run_tasks(
                _interruptible,
                [0, 1, 2, 3],
                policy=_fast_policy(checkpoint=str(ckpt)),
            )
        assert info.value.done == 2
        assert info.value.total == 4
        assert "--resume" in info.value.summary()
        assert ckpt.exists()

        monkeypatch.delenv("REPRO_TEST_INTERRUPT")
        resumed = run_tasks(
            _interruptible,
            [0, 1, 2, 3],
            policy=_fast_policy(checkpoint=str(ckpt), resume=True),
        )
        assert resumed.rows == [0, 2, 4, 6]
        assert resumed.resumed == 2

    def test_exit_on_interrupt_turns_it_into_status_130(self, capsys):
        with pytest.raises(SystemExit) as info:
            with exit_on_interrupt():
                raise SweepInterrupted("ck.ckpt", 3, 10)
        assert info.value.code == 130
        assert "3/10" in capsys.readouterr().out


class TestOnRow:
    """The ``on_row`` streaming hook the service's sqlite store rides."""

    def test_on_row_fires_once_per_completed_row(self):
        seen = []
        report = run_tasks(
            _double, [3, 1, 2], on_row=lambda i, row: seen.append((i, row))
        )
        assert sorted(seen) == [(0, 6), (1, 2), (2, 4)]
        assert report.rows == [6, 2, 4]

    def test_on_row_skips_failed_points_in_collect_mode(self):
        seen = []
        run_tasks(
            _double,
            [0, 1, 2],
            policy=_fast_policy(
                max_retries=0, fault_spec="raise@1x*", on_failure="collect"
            ),
            on_row=lambda i, row: seen.append(i),
        )
        assert sorted(seen) == [0, 2]

    def test_on_row_redelivers_journaled_rows_on_resume(self, tmp_path):
        # A consumer that lost its sink (e.g. the service's sqlite store
        # was fine but the process died) must see *every* row on resume,
        # including the ones that came from the journal.
        ckpt = tmp_path / "run.ckpt"
        run_tasks(
            _double,
            [0, 1, 2, 3],
            policy=_fast_policy(
                max_retries=0, fault_spec="raise@2x*", on_failure="collect",
                checkpoint=str(ckpt),
            ),
        )
        seen = []
        resumed = run_tasks(
            _double,
            [0, 1, 2, 3],
            policy=_fast_policy(checkpoint=str(ckpt), resume=True),
            on_row=lambda i, row: seen.append((i, row)),
        )
        assert resumed.resumed == 3
        assert sorted(seen) == [(0, 0), (1, 2), (2, 4), (3, 6)]

    def test_on_row_works_with_process_pool(self):
        seen = []
        run_tasks(
            _double, list(range(4)), jobs=2,
            on_row=lambda i, row: seen.append((i, row)),
        )
        assert sorted(seen) == [(0, 0), (1, 2), (2, 4), (3, 6)]


class TestCheckpointDir:
    """``$REPRO_CHECKPOINT_DIR`` relocates journals (like $REPRO_TRACE_DIR)."""

    def test_env_var_overrides_journal_location(self, tmp_path, monkeypatch):
        from repro.experiments.runtime import default_checkpoint_path

        target = tmp_path / "relocated" / "ckpts"
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(target))
        path = default_checkpoint_path("figure8")
        assert path == str(target / "figure8.ckpt")
        assert target.is_dir()  # created eagerly so the journal can land

    def test_default_lands_under_results_checkpoints(
        self, tmp_path, monkeypatch
    ):
        import repro.experiments.report as report_mod
        from repro.experiments.runtime import default_checkpoint_path

        monkeypatch.delenv("REPRO_CHECKPOINT_DIR", raising=False)
        monkeypatch.setattr(report_mod, "RESULTS_DIR", str(tmp_path))
        path = default_checkpoint_path("figure8")
        assert path.endswith(os.path.join("checkpoints", "figure8.ckpt"))
        assert path.startswith(str(tmp_path))


class TestSigterm:
    """SIGTERM must behave exactly like Ctrl-C: flush the journal,
    print the ``--resume`` hint, exit 130 (satellite of the service PR:
    this is what makes ``kill <sweep-pid>`` lossless)."""

    DRIVER = """\
import sys, time
from repro.experiments.runtime import (
    ExecutionPolicy, exit_on_interrupt, run_tasks,
)

CKPT = sys.argv[1]

def work(x):
    print(f"POINT {x}", flush=True)
    if x > 0:
        time.sleep(30)
    return x * 2

with exit_on_interrupt():
    run_tasks(work, [0, 1, 2], policy=ExecutionPolicy(checkpoint=CKPT))
print("COMPLETED", flush=True)
"""

    def test_sigterm_flushes_journal_and_exits_130(self, tmp_path):
        import signal
        import subprocess
        import sys as _sys

        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        script = tmp_path / "driver.py"
        script.write_text(self.DRIVER)
        ckpt = tmp_path / "sweep.ckpt"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(repo, "src"), env.get("PYTHONPATH"))
            if p
        )
        process = subprocess.Popen(
            [_sys.executable, "-u", str(script), str(ckpt)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env, cwd=repo,
        )
        # Point 0 completes instantly (journaled); point 1 announces
        # itself then sleeps -- that is the mid-sweep moment to kill.
        for line in process.stdout:
            if "POINT 1" in line:
                break
        process.send_signal(signal.SIGTERM)
        output, _ = process.communicate(timeout=60)
        assert process.returncode == 130, output
        assert "--resume" in output
        assert "COMPLETED" not in output
        assert ckpt.exists()  # the flushed journal carries row 0


def _run_python(source: str):
    """Run ``source`` in a fresh interpreter with ``src`` importable."""
    import subprocess
    import sys as _sys

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(repo, "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [_sys.executable, "-c", source], capture_output=True, text=True,
        env=env, cwd=repo, timeout=120,
    )


class TestWorkerSigterm:
    """Pool workers must die quietly and at once when the pool is torn
    down, whatever SIGTERM handler the coordinator has installed."""

    def test_pooled_sweep_leaves_no_worker_traceback(self):
        done = _run_python(
            "from repro.experiments.runtime import run_tasks\n"
            "print(run_tasks(abs, [-1, -2, -3, -4], jobs=2).rows)\n"
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[1, 2, 3, 4]"
        assert "Traceback" not in done.stderr, done.stderr

    def test_hung_worker_dies_on_sigterm_under_a_non_exiting_handler(self):
        # The service's stop handler only sets a flag, and the service
        # runs sweeps off the main thread, so the pool's workers inherit
        # that handler.  A hung worker must still die on the first
        # SIGTERM rather than wait out the SIGKILL escalation.
        done = _run_python(
            "import signal, threading, time\n"
            "from repro.experiments.runtime import ExecutionPolicy, run_tasks\n"
            "signal.signal(signal.SIGTERM, lambda signum, frame: None)\n"
            "out = {}\n"
            "def sweep():\n"
            "    out['rows'] = run_tasks(abs, [-1, -2, -3, -4], jobs=2,\n"
            "        policy=ExecutionPolicy(point_timeout=0.5,\n"
            "                               fault_spec='hang@1:30')).rows\n"
            "started = time.monotonic()\n"
            "worker = threading.Thread(target=sweep)\n"
            "worker.start()\n"
            "worker.join()\n"
            "print(out['rows'], time.monotonic() - started)\n"
        )
        assert done.returncode == 0, done.stderr
        rows, elapsed = done.stdout.rsplit(" ", 1)
        assert rows == "[1, 2, 3, 4]"
        assert float(elapsed) < 5.0, done.stdout


class TestParallel:
    def test_worker_crash_rebuilds_pool_and_recovers(self):
        report = run_tasks(
            _double,
            list(range(6)),
            jobs=2,
            policy=_fast_policy(max_retries=2, fault_spec="crash@2"),
        )
        assert report.rows == [0, 2, 4, 6, 8, 10]
        assert report.pool_rebuilds >= 1

    def test_crash_every_attempt_exhausts_budget_in_collect_mode(self):
        report = run_tasks(
            _double,
            list(range(4)),
            jobs=2,
            policy=_fast_policy(
                max_retries=3, fault_spec="crash@1x*", on_failure="collect"
            ),
        )
        # The crasher exhausts its budget and fails permanently instead
        # of wedging the sweep.  A pool break cannot name its culprit,
        # so a neighbour in flight with the crasher may be charged too
        # ("suspicion") -- but no point is ever *silently* lost: every
        # slot is either a correct row or a structured failure.
        assert report.rows[1] is None
        assert any(f.index == 1 for f in report.failures)
        failed = {f.index for f in report.failures}
        for i in (0, 2, 3):
            assert report.rows[i] == i * 2 or i in failed
        # The last point was never in flight with the crasher still
        # pending, so it must have completed.
        assert report.rows[3] == 6

    def test_hang_recovered_by_timeout_without_losing_neighbours(self):
        report = run_tasks(
            _double,
            list(range(4)),
            jobs=2,
            policy=_fast_policy(
                max_retries=2, point_timeout=0.75, fault_spec="hang@1:60"
            ),
        )
        assert report.rows == [0, 2, 4, 6]
        assert report.retries >= 1  # the hang was charged and retried
        assert report.pool_rebuilds >= 1  # the stuck worker was killed

    def test_injected_exception_collects_across_workers(self):
        report = run_tasks(
            _double,
            list(range(5)),
            jobs=2,
            policy=_fast_policy(
                max_retries=0, fault_spec="raise@3x*", on_failure="collect"
            ),
        )
        assert report.completed == [0, 2, 4, 8]
        (failure,) = report.failures
        assert failure.index == 3


class TestAcceptance:
    """The ISSUE acceptance: kill mid-sweep, resume, byte-identical rows."""

    CONFIG = Figure8Config(
        networks=["gnutella"], t_exponents=[0, 4, 8],
        horizon=120.0, n0_scale=0.1,
    )

    def test_killed_then_resumed_sweep_matches_serial_run(self, tmp_path):
        ckpt = tmp_path / "figure8.ckpt"
        serial_rows = figure8.run(self.CONFIG, jobs=1)

        # An injected worker crash at --jobs 4 with no retry budget
        # kills the sweep mid-run; the journal survives the failure.
        with pytest.raises(BrokenProcessPool):
            figure8.run(
                self.CONFIG,
                jobs=4,
                policy=ExecutionPolicy(
                    checkpoint=str(ckpt), max_retries=0, fault_spec="crash@4"
                ),
            )
        assert ckpt.exists()

        resumed = figure8.run_report(
            self.CONFIG,
            jobs=4,
            policy=ExecutionPolicy(checkpoint=str(ckpt), resume=True),
        )
        assert resumed.resumed >= 1  # journaled rows were not recomputed
        assert [pickle.dumps(r) for r in resumed.rows] == [
            pickle.dumps(r) for r in serial_rows
        ]
        assert not ckpt.exists()

    def test_hang_recovered_within_timeout_keeping_other_points(self, tmp_path):
        report = figure8.run_report(
            self.CONFIG,
            jobs=4,
            policy=ExecutionPolicy(
                max_retries=2, point_timeout=20.0, fault_spec="hang@2:600",
                checkpoint=str(tmp_path / "hang.ckpt"),
            ),
        )
        assert report.failures == []
        serial_rows = figure8.run(self.CONFIG, jobs=1)
        assert [pickle.dumps(r) for r in report.rows] == [
            pickle.dumps(r) for r in serial_rows
        ]


class TestCliPlumbing:
    def test_cli_policy_pops_shared_flags(self, tmp_path, monkeypatch):
        import repro.experiments.report as report_mod

        monkeypatch.setattr(report_mod, "RESULTS_DIR", str(tmp_path))
        args = [
            "--quick", "--resume", "--max-retries", "5",
            "--point-timeout", "30", "--fault-spec", "crash@1", "--jobs", "2",
        ]
        policy = cli_policy(args, name="figure8")
        assert args == ["--quick", "--jobs", "2"]
        assert policy.resume is True
        assert policy.max_retries == 5
        assert policy.point_timeout == 30.0
        assert policy.fault_spec == "crash@1"
        assert policy.on_failure == "collect"
        assert policy.checkpoint.endswith(os.path.join("checkpoints", "figure8.ckpt"))

    def test_cli_policy_no_checkpoint(self, tmp_path, monkeypatch):
        import repro.experiments.report as report_mod

        monkeypatch.setattr(report_mod, "RESULTS_DIR", str(tmp_path))
        policy = cli_policy(["--no-checkpoint"], name="x")
        assert policy.checkpoint is None

    def test_cli_policy_rejects_bad_values(self):
        with pytest.raises(SystemExit):
            cli_policy(["--max-retries", "-1", "--no-checkpoint"], name="x")
        with pytest.raises(SystemExit):
            cli_policy(
                ["--fault-spec", "explode@1", "--no-checkpoint"], name="x"
            )

    def test_render_failures_is_a_table(self):
        from repro.experiments.runtime import FailureRow

        text = render_failures(
            [FailureRow(3, "PointSpec(...)", 2, "FaultInjected: x", 0.5)]
        )
        assert "PointSpec" in text
        assert "attempts" in text

    def test_print_failures_signals_nonzero_exit(self, capsys):
        from repro.experiments.runtime import (
            FailureRow, RunReport, print_failures,
        )

        clean = RunReport(rows=[1], failures=[])
        assert print_failures(clean) is False
        failed = RunReport(
            rows=[None],
            failures=[FailureRow(0, "p", 3, "FaultInjected: x", 0.1)],
            checkpoint_path="/tmp/run.ckpt",
        )
        assert print_failures(failed) is True
        out = capsys.readouterr().out
        assert "--resume" in out  # points at the recovery command
