"""R002 ``atomic-write`` -- no torn result, checkpoint, or trace files.

The crash-recovery story (checkpoint journals, ``--resume``, the serve
layer's kill -9 drill) only works because a reader never observes a
half-written file: every durable artifact is written to a
same-directory temp file and ``os.replace``d over the target.  A plain
``open(path, "w")`` breaks that contract -- a SIGKILL between the
``write`` and the close leaves a torn results file or journal that the
next consumer (``--resume``, the service, a dashboard) parses as
garbage or, worse, as truncated-but-valid data.

This rule flags every ``open()`` (including ``io.open`` / ``gzip.open``)
whose mode creates or truncates (``w``, ``a``, ``x``) unless the
enclosing function also calls ``os.replace`` -- the temp+rename idiom,
which is exactly how :func:`repro.resilience.atomic_write_text` and
the trace cache are built.  The fix is almost always one line::

    from repro.resilience import atomic_write_text
    atomic_write_text(path, text)

Reads are never flagged, and a non-constant mode argument is skipped
(not statically decidable).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.devtools.config import LintConfig
from repro.devtools.registry import register
from repro.devtools.walker import FileContext, Rule, Violation

#: Callables treated as file-opening (resolved via the import map for
#: the dotted forms; bare ``open`` is the builtin unless shadowed).
OPEN_CALLS = frozenset({"io.open", "gzip.open", "bz2.open", "lzma.open"})

#: Mode characters that create/truncate and therefore can tear.
WRITE_CHARS = frozenset("wax")


def _open_mode(node: ast.Call) -> Optional[str]:
    """The constant mode string of an open-like call, or None."""
    mode: Optional[ast.expr] = None
    if len(node.args) >= 2:
        mode = node.args[1]
    for keyword in node.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if mode is None:
        return "r"  # open() defaults to read
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return None  # dynamic mode: not statically decidable


def _is_open_call(ctx: FileContext, node: ast.Call) -> bool:
    if isinstance(node.func, ast.Name):
        # the builtin, unless an import rebinds the name to something else
        resolved = ctx.imports.resolve(node.func.id)
        if node.func.id == "open":
            return resolved is None or resolved in OPEN_CALLS
        return resolved in OPEN_CALLS
    qualified = ctx.imports.qualified(node.func)
    return qualified in OPEN_CALLS


def _scope_has_replace(ctx: FileContext, scope: ast.AST) -> bool:
    """True when the scope also calls ``os.replace`` (temp+rename)."""
    for node in ast.walk(scope):
        if isinstance(node, ast.Call):
            qualified = ctx.imports.qualified(node.func)
            if qualified in ("os.replace", "os.rename"):
                return True
    return False


@register
class AtomicWriteRule(Rule):
    id = "R002"
    name = "atomic-write"
    summary = (
        "files must be written via resilience.atomic_write_text or the "
        "temp+rename idiom, never a bare open(.., 'w')"
    )
    explain = __doc__ or ""

    def check(
        self, ctx: FileContext, config: LintConfig
    ) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call) and _is_open_call(ctx, node)):
                continue
            mode = _open_mode(node)
            if mode is None or not (set(mode) & WRITE_CHARS):
                continue
            scope = ctx.enclosing_scope(node)
            if _scope_has_replace(ctx, scope):
                continue  # temp+rename: the write is already atomic
            yield ctx.violation(
                self,
                node,
                f"open(..., {mode!r}) writes in place; a crash mid-write "
                f"leaves a torn file.  Use repro.resilience."
                f"atomic_write_text (or temp file + os.replace in this "
                f"function)",
            )
