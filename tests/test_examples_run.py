"""Smoke-run every example script so the examples can't rot.

The cheap examples run in-process; the heavier ones (``SLOW_EXAMPLES``,
tens of seconds each) run as subprocesses.  No marker separates them:
both kinds are part of the default run.  The two examples too heavy
for that are left out by name in ``test_every_example_is_covered``.
"""

import runpy
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

FAST_EXAMPLES = [
    "estimating_join_rate.py",
    "ddos_pricing.py",
]

SLOW_EXAMPLES = [
    "quickstart.py",
    "decentralized_committee.py",
    "sybil_resistant_dht.py",
    "custom_churn_model.py",
]


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_fast_example_runs(script, capsys):
    runpy.run_path(str(EXAMPLES / script), run_name="__main__")
    out = capsys.readouterr().out
    assert len(out) > 100  # produced a real report


@pytest.mark.parametrize("script", SLOW_EXAMPLES)
def test_slow_example_runs(script):
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert len(completed.stdout) > 100


def test_every_example_is_covered():
    on_disk = {p.name for p in EXAMPLES.glob("*.py")}
    covered = set(FAST_EXAMPLES) | set(SLOW_EXAMPLES)
    heavy = {"bitcoin_under_attack.py", "classifier_defense.py"}
    assert on_disk - heavy == covered
