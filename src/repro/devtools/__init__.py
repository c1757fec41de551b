"""Static analysis for the repo's reproducibility contracts.

Every result this repository produces rests on invariants that runtime
tests can only catch *after* a violation lands: seeding must be the
sole entropy source inside the deterministic core (or metrics stop
being byte-identical across ``--jobs``, crash-resume and profiling or
snapshots on/off), result and checkpoint files must be written
atomically (or a kill mid-write leaves a torn results file or
checkpoint journal behind), and the serve layer's sqlite connections
must stay behind the per-thread accessor (or a connection quietly hops
threads under load).

``repro lint`` enforces those contracts statically, at review time:

* a shared AST-walker framework (:mod:`repro.devtools.walker`) with
  per-file parsing, import/alias resolution, ``# lint: allow[rule]``
  inline suppressions and unused-suppression detection;
* a rule registry (:mod:`repro.devtools.registry`) with one module per
  rule: R001 determinism, R002 atomic writes, R003 serve thread
  safety, R004 defense hook contracts, R005 broad excepts;
* the determinism-boundary map (:mod:`repro.devtools.config`): which
  packages form the deterministic core and which layers are
  legitimately wall-clock;
* text/JSON reporters and the ``python -m repro lint`` CLI.

The repo's own tree lints clean (asserted by a tier-1 test), so any
future nondeterministic call or torn write fails the suite with a
``file:line`` diagnostic naming the violated rule.
"""

from repro.devtools.config import DEFAULT_CONFIG, LintConfig
from repro.devtools.registry import all_rules, get_rule
from repro.devtools.walker import FileContext, Rule, Violation, lint_file, lint_paths

# Importing the rule modules registers them; keep this list in sync
# with the registry (each module self-registers on import).
from repro.devtools import (  # noqa: F401  (imported for registration)
    rules_atomic,
    rules_determinism,
    rules_except,
    rules_hooks,
    rules_serve,
)

__all__ = [
    "DEFAULT_CONFIG",
    "LintConfig",
    "FileContext",
    "Rule",
    "Violation",
    "all_rules",
    "get_rule",
    "lint_file",
    "lint_paths",
]
