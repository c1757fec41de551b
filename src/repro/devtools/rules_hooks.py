"""R004 ``hook-contracts`` -- batch/per-event defense hook pairing.

The engine applies every run of good-churn rows, single rows
included, via the batch hooks (``process_good_join_batch``,
``process_good_departure_batch``; scheduled Sybil withdrawals via
``process_bad_departure_batch``), whose defaults loop over the
per-event hooks.  The equivalence tests run a naive per-event oracle
that calls only the per-event good-churn hooks and assert identical
metrics -- which silently stops being tested the moment a Defense
subclass overrides a batch hook without also defining the per-event
counterpart it is supposed to be exactly equivalent to (it would
inherit some ancestor's per-event semantics while batching its own).

The rule enforces, for every class whose bases look like a Defense:

* a batch-hook override requires the per-event counterpart to be
  defined *in the same class*;
* batch hooks and ``on_snapshot`` bodies must not introduce RNG draws
  -- no use of an ``*rng*``-named object, no ``random``/
  ``numpy.random`` calls.  Snapshot emission and batch application
  must consume zero randomness, or the fast path and the per-event
  oracle drift apart (the engine's snapshot hook is documented to read
  counters only), and per-event vs batch runs stop drawing the same
  stream.  Passing an ``rng`` *through* to a per-event helper is
  still a use and is still flagged: the per-event counterpart is
  where the draw belongs.

The rule also covers the cost-attribution profiler
(``config.profiling_packages``): *every* function there -- wrappers,
accounting primitives, report builders -- executes interleaved with
the engine loop under ``--profile``, so any RNG draw would make a
profiled run diverge from an unprofiled one and break the profiler's
byte-identical-metrics contract.  The same zero-RNG check applies to
every function body in those files, not just the named hook methods.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.config import LintConfig
from repro.devtools.registry import register
from repro.devtools.walker import FileContext, Rule, Violation, terminal_name

#: batch hook -> required per-event counterpart
HOOK_PAIRS = {
    "process_good_join_batch": "process_good_join",
    "process_good_departure_batch": "process_good_departure",
    "process_bad_departure_batch": "process_bad_departure",
}

#: Methods whose bodies must be RNG-free.
RNG_FREE_METHODS = frozenset(HOOK_PAIRS) | {"on_snapshot"}

#: Known defense base-class names (beyond the ``*Defense`` suffix
#: heuristic) so ``class Fast(Ergo)`` is covered too.
DEFENSE_BASES = frozenset(
    {"Defense", "Ergo", "CCom", "Remp", "SybilControl", "NullDefense"}
)


def _is_defense_class(node: ast.ClassDef) -> bool:
    for base in node.bases:
        name = terminal_name(base)
        if name is None:
            continue
        if name in DEFENSE_BASES or name.endswith("Defense"):
            return True
    return False


def _method_names(node: ast.ClassDef) -> set:
    return {
        item.name
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _rng_uses(
    ctx: FileContext, method: ast.FunctionDef
) -> Iterator[ast.AST]:
    """AST nodes inside ``method`` that read or draw randomness."""
    for node in ast.walk(method):
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(
            getattr(node, "ctx", None), ast.Load
        ):
            name = terminal_name(node)
            if name is not None and "rng" in name.lower():
                yield node
        elif isinstance(node, ast.Call):
            qualified = ctx.imports.qualified(node.func)
            if qualified and (
                qualified.startswith("random.")
                or qualified.startswith("numpy.random.")
            ):
                yield node


@register
class HookContractRule(Rule):
    id = "R004"
    name = "hook-contracts"
    summary = (
        "a Defense overriding a batch hook must define its per-event "
        "counterpart; batch hooks, on_snapshot, and all profiler span "
        "bodies draw no RNG"
    )
    explain = __doc__ or ""

    def check(
        self, ctx: FileContext, config: LintConfig
    ) -> Iterator[Violation]:
        if not config.in_core(ctx.path):
            return
        if config.in_profiling(ctx.path):
            yield from self._check_profiling(ctx)
            return
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.ClassDef) and _is_defense_class(node)):
                continue
            defined = _method_names(node)
            for item in node.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                counterpart = HOOK_PAIRS.get(item.name)
                if counterpart is not None and counterpart not in defined:
                    yield ctx.violation(
                        self,
                        item,
                        f"{node.name}.{item.name} overrides a batch hook "
                        f"without defining {counterpart}; the fast path "
                        f"batches what the per-event hook does one row at "
                        f"a time, and inheriting the per-event half breaks "
                        f"that equivalence contract",
                    )
                if item.name in RNG_FREE_METHODS:
                    seen = set()
                    for use in _rng_uses(ctx, item):
                        key = (use.lineno, use.col_offset)
                        if key in seen:
                            continue
                        seen.add(key)
                        yield ctx.violation(
                            self,
                            use,
                            f"RNG use inside {node.name}.{item.name}: batch "
                            f"hooks and on_snapshot must consume zero "
                            f"randomness, or fast-path and heap-path runs "
                            f"draw different streams",
                        )

    def _check_profiling(self, ctx: FileContext) -> Iterator[Violation]:
        """Profiler files: no function body may touch randomness."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            seen = set()
            for use in _rng_uses(ctx, node):
                key = (use.lineno, use.col_offset)
                if key in seen:
                    continue
                seen.add(key)
                yield ctx.violation(
                    self,
                    use,
                    f"RNG use inside profiler function {node.name}: span "
                    f"bodies run interleaved with the engine loop, so any "
                    f"draw here makes profiled runs diverge from "
                    f"unprofiled ones",
                )
