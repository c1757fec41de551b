"""The repo-wide lint self-check: the tree is clean, and stays clean.

This is the tier-1 teeth behind the CI lint step: any future violation
fails the test suite itself, not just an optional workflow.  The
regression half asserts the linter still *bites* -- that reverting a
satellite writer fix, or sneaking a wall-clock read into the engine,
comes back as a file:line diagnostic naming the rule.
"""

import subprocess
import sys
from pathlib import Path

import repro.devtools  # noqa: F401  -- registers the rules
from repro.devtools.walker import lint_file, lint_paths

REPO = Path(__file__).resolve().parents[1]
LINT_TARGETS = [REPO / name for name in ("src", "benchmarks", "scripts")]


class TestTreeIsClean:
    def test_repo_lints_clean(self):
        violations, files = lint_paths(LINT_TARGETS)
        rendered = "\n".join(v.render() for v in violations)
        assert not violations, f"repo no longer lints clean:\n{rendered}"
        assert files > 100  # the whole tree, not an accidentally-empty walk

    def test_cli_entry_point_exits_zero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint",
             "src", "benchmarks", "scripts"],
            cwd=REPO,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 violations" in proc.stdout


class TestLinterStillBites:
    """Acceptance regressions: un-fixing a satellite must fail the lint."""

    def test_wall_clock_injected_into_engine_is_caught(self):
        engine = REPO / "src" / "repro" / "sim" / "engine.py"
        source = engine.read_text()
        mutated = source + "\n\nimport time\n_T0 = time.time()\n"
        violations = lint_file(engine, source=mutated)
        hits = [v for v in violations if v.rule == "R001"]
        assert hits, "injected time.time() in engine.py was not flagged"
        assert hits[0].line > len(source.splitlines())  # the injected line
        assert "wall-clock" in hits[0].message

    def test_reverted_tracing_writer_is_caught(self):
        # the pre-fix shape of TraceRecorder.write_jsonl
        source = (
            "class TraceRecorder:\n"
            "    def write_jsonl(self, path):\n"
            '        with open(path, "w") as fh:\n'
            "            fh.write(self.to_jsonl())\n"
        )
        violations = lint_file(
            REPO / "src" / "repro" / "sim" / "tracing.py", source=source
        )
        assert [v.rule for v in violations] == ["R002"]

    def test_reverted_bench_json_writer_is_caught(self):
        # a plain-open JSON writer in a benchmark file
        source = (
            "import json\n"
            "def emit(path, report):\n"
            '    with open(path, "w") as fh:\n'
            "        json.dump(report, fh)\n"
        )
        violations = lint_file(
            REPO / "benchmarks" / "scale_gates.py", source=source
        )
        assert [v.rule for v in violations] == ["R002"]

    def test_unjustified_broad_except_is_caught(self):
        source = (
            "def maintenance(self):\n"
            "    try:\n"
            "        self._pass()\n"
            "    except Exception:\n"
            "        pass\n"
        )
        violations = lint_file(
            REPO / "src" / "repro" / "serve" / "supervisor.py", source=source
        )
        assert [v.rule for v in violations] == ["R005"]
