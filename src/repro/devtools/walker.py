"""The shared AST-walker framework under every lint rule.

One parse per file, shared by all rules: a :class:`FileContext` holds
the source, the AST, a parent map (for "what function encloses this
call?" questions), an import/alias map (so ``from time import
perf_counter as pc`` and ``import numpy as np`` both resolve to their
canonical dotted names), and the file's inline suppressions.

Suppressions are source comments of the form::

    something()  # lint: allow[R001] -- why this line is exempt
    except Exception:  # lint: allow[broad-except] -- worker must survive

A suppression names one or more rules (by id or by name, comma
separated) and silences only violations *on its own line*.  A
suppression that silences nothing is itself reported
(``W001[unused-suppression]``), so stale exemptions cannot linger
after the offending code is gone.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.devtools.config import DEFAULT_CONFIG, LintConfig

#: Matches the suppression comment syntax (one or more rule ids or
#: names in brackets, an optional ``-- reason`` tail); see the module
#: docstring for examples.
ALLOW_RE = re.compile(r"#\s*lint:\s*allow\[([^\]]+)\]\s*(?:--\s*(.*))?")

#: Synthetic rule id/name for unused suppressions and parse failures.
UNUSED_ID, UNUSED_NAME = "W001", "unused-suppression"
PARSE_ID, PARSE_NAME = "E999", "parse-error"


@dataclass(frozen=True)
class Violation:
    """One diagnostic: ``path:line:col: R001[determinism] message``."""

    rule: str
    name: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule}[{self.name}] {self.message}"
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "name": self.name,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


@dataclass
class Suppression:
    """One ``# lint: allow[...]`` comment, with use tracking."""

    line: int
    rules: Tuple[str, ...]
    reason: str
    used: Set[str] = field(default_factory=set)

    def allows(self, violation: Violation) -> bool:
        return violation.rule in self.rules or violation.name in self.rules


def parse_suppressions(source: str) -> Dict[int, Suppression]:
    """Line number -> suppression for every allow *comment* in ``source``.

    Tokenize-based, so ``allow[...]`` examples inside docstrings and
    string literals (this repo documents the syntax in a few places)
    are not mistaken for live suppressions.
    """
    out: Dict[int, Suppression] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [
            (token.start[0], token.string)
            for token in tokens
            if token.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return out  # unparseable source is reported as E999 elsewhere
    for lineno, text in comments:
        match = ALLOW_RE.search(text)
        if match is None:
            continue
        rules = tuple(
            token.strip() for token in match.group(1).split(",") if token.strip()
        )
        if rules:
            out[lineno] = Suppression(
                line=lineno, rules=rules, reason=(match.group(2) or "").strip()
            )
    return out


class ImportMap:
    """Local name -> canonical dotted module path, from import statements.

    ``import numpy as np`` binds ``np -> numpy``; ``from time import
    perf_counter as pc`` binds ``pc -> time.perf_counter``; relative
    imports keep their tail (``from .store import JobStore`` binds
    ``JobStore -> store.JobStore``) -- good enough for the rules here,
    which only match absolute stdlib/numpy names.
    """

    def __init__(self, tree: ast.AST) -> None:
        self._names: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self._names[local] = target
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    target = f"{module}.{alias.name}" if module else alias.name
                    self._names[local] = target

    def resolve(self, name: str) -> Optional[str]:
        return self._names.get(name)

    def qualified(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted name of a Name/Attribute chain, or None.

        Returns ``None`` when the chain is not rooted in an imported
        name (locals, ``self.<x>``, computed receivers), which the
        rules treat as "not statically resolvable, do not flag".
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.resolve(node.id)
        if root is None:
            return None
        parts.append(root)
        return ".".join(reversed(parts))


class FileContext:
    """Everything a rule needs about one parsed file."""

    def __init__(self, path: Union[str, Path], source: str) -> None:
        self.path = str(path)
        self.source = source
        self.tree: ast.Module = ast.parse(source, filename=self.path)
        self.imports = ImportMap(self.tree)
        self.suppressions = parse_suppressions(source)
        self._parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent

    @classmethod
    def from_path(cls, path: Union[str, Path]) -> "FileContext":
        text = Path(path).read_text(encoding="utf-8", errors="replace")
        return cls(path, text)

    # -- tree navigation ----------------------------------------------
    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self._parents.get(node)
        while current is not None:
            yield current
            current = self._parents.get(current)

    def enclosing_function(
        self, node: ast.AST
    ) -> Optional[Union[ast.FunctionDef, ast.AsyncFunctionDef]]:
        """The innermost function containing ``node`` (None: module level)."""
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return ancestor
        return None

    def enclosing_scope(self, node: ast.AST) -> ast.AST:
        """Innermost function, else the module -- the temp+rename scope."""
        return self.enclosing_function(node) or self.tree

    def enclosing_class(self, node: ast.AST) -> Optional[ast.ClassDef]:
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, ast.ClassDef):
                return ancestor
        return None

    # -- convenience ---------------------------------------------------
    def violation(
        self, rule: "Rule", node: ast.AST, message: str
    ) -> Violation:
        return Violation(
            rule=rule.id,
            name=rule.name,
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


class Rule:
    """Base class: one contract, one module, one ``check`` generator."""

    #: Stable short id (``R001``) -- what diagnostics and CI grep for.
    id: str = ""
    #: Human name (``determinism``) -- accepted in ``allow[...]`` too.
    name: str = ""
    #: One-line summary for ``--list-rules``.
    summary: str = ""
    #: Multi-paragraph rationale for ``--explain``.
    explain: str = ""

    def check(
        self, ctx: FileContext, config: LintConfig
    ) -> Iterator[Violation]:
        raise NotImplementedError


def terminal_name(node: ast.AST) -> Optional[str]:
    """The final identifier of a Name/Attribute chain (``self._lock``
    -> ``_lock``), or None for computed expressions."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


# ----------------------------------------------------------------------
# the per-file driver
# ----------------------------------------------------------------------
def lint_file(
    path: Union[str, Path],
    *,
    config: LintConfig = DEFAULT_CONFIG,
    rules: Optional[Sequence[Rule]] = None,
    source: Optional[str] = None,
) -> List[Violation]:
    """Run every rule over one file; returns surviving violations.

    Inline suppressions are applied here (one shared mechanism instead
    of five per-rule ones), and suppressions that matched nothing are
    converted into :data:`UNUSED_ID` violations.
    """
    from repro.devtools.registry import all_rules  # late: avoid cycle

    if rules is None:
        rules = all_rules()
    path_str = str(path)
    try:
        if source is None:
            ctx = FileContext.from_path(path)
        else:
            ctx = FileContext(path, source)
    except SyntaxError as exc:
        return [
            Violation(
                rule=PARSE_ID,
                name=PARSE_NAME,
                path=path_str,
                line=exc.lineno or 1,
                col=(exc.offset or 0) + 1,
                message=f"file does not parse: {exc.msg}",
            )
        ]

    raw: List[Violation] = []
    for rule in rules:
        raw.extend(rule.check(ctx, config))

    kept: List[Violation] = []
    for violation in raw:
        suppression = ctx.suppressions.get(violation.line)
        if suppression is not None and suppression.allows(violation):
            suppression.used.add(violation.rule)
            continue
        kept.append(violation)

    for lineno in sorted(ctx.suppressions):
        suppression = ctx.suppressions[lineno]
        if not suppression.used:
            kept.append(
                Violation(
                    rule=UNUSED_ID,
                    name=UNUSED_NAME,
                    path=path_str,
                    line=lineno,
                    col=1,
                    message=(
                        f"suppression allow[{', '.join(suppression.rules)}] "
                        f"matched no violation; remove it (stale exemptions "
                        f"hide future regressions)"
                    ),
                )
            )
    kept.sort(key=lambda v: (v.line, v.col, v.rule))
    return kept


def iter_python_files(paths: Iterable[Union[str, Path]]) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated .py list."""
    seen: Set[Path] = set()
    out: List[Path] = []
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            candidates = sorted(
                p for p in entry.rglob("*.py") if "__pycache__" not in p.parts
            )
        else:
            candidates = [entry]
        for candidate in candidates:
            if candidate not in seen:
                seen.add(candidate)
                out.append(candidate)
    return out


def lint_paths(
    paths: Iterable[Union[str, Path]],
    *,
    config: LintConfig = DEFAULT_CONFIG,
    rules: Optional[Sequence[Rule]] = None,
) -> Tuple[List[Violation], int]:
    """Lint every .py file under ``paths``; (violations, files seen)."""
    files = iter_python_files(paths)
    violations: List[Violation] = []
    for file in files:
        violations.extend(lint_file(file, config=config, rules=rules))
    return violations, len(files)
