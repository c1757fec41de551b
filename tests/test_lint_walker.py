"""The shared AST-walker framework: imports, suppressions, driver."""

import textwrap

import repro.devtools  # noqa: F401  -- registers the rules
from repro.devtools.walker import (
    PARSE_ID,
    UNUSED_ID,
    FileContext,
    iter_python_files,
    lint_file,
    parse_suppressions,
)

CORE = "src/repro/sim/fixture.py"


def ctx_for(source: str, path: str = CORE) -> FileContext:
    return FileContext(path, textwrap.dedent(source))


# ----------------------------------------------------------------------
# import/alias resolution
# ----------------------------------------------------------------------
class TestImportMap:
    def test_plain_and_aliased_imports(self):
        ctx = ctx_for(
            """
            import time
            import numpy as np
            from time import perf_counter as pc
            from numpy.random import default_rng
            """
        )
        imports = ctx.imports
        assert imports.resolve("time") == "time"
        assert imports.resolve("np") == "numpy"
        assert imports.resolve("pc") == "time.perf_counter"
        assert imports.resolve("default_rng") == "numpy.random.default_rng"
        assert imports.resolve("never_imported") is None

    def test_qualified_attribute_chains(self):
        import ast

        ctx = ctx_for(
            """
            import numpy as np
            import datetime
            x = np.random.normal
            y = datetime.datetime.now
            """
        )
        loads = [
            node
            for node in ast.walk(ctx.tree)
            if isinstance(node, ast.Attribute)
        ]
        names = {ctx.imports.qualified(node) for node in loads}
        assert "numpy.random.normal" in names
        assert "datetime.datetime.now" in names

    def test_unresolvable_roots_return_none(self):
        import ast

        ctx = ctx_for(
            """
            class C:
                def m(self):
                    return self.time.time()
            """
        )
        calls = [n for n in ast.walk(ctx.tree) if isinstance(n, ast.Call)]
        assert ctx.imports.qualified(calls[0].func) is None


# ----------------------------------------------------------------------
# suppression comments
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_parse_with_reason_and_multiple_rules(self):
        source = (
            "x = 1  # lint: allow[R001] -- because reasons\n"
            "y = 2  # lint: allow[R002, broad-except]\n"
        )
        sups = parse_suppressions(source)
        assert sups[1].rules == ("R001",)
        assert sups[1].reason == "because reasons"
        assert sups[2].rules == ("R002", "broad-except")

    def test_docstring_examples_are_not_suppressions(self):
        source = '"""Docs show `# lint: allow[R001]` syntax."""\nx = 1\n'
        assert parse_suppressions(source) == {}

    def test_string_literal_is_not_a_suppression(self):
        source = 'MSG = "# lint: allow[R002]"\n'
        assert parse_suppressions(source) == {}

    def test_suppression_silences_matching_violation(self):
        violations = lint_file(
            CORE,
            source="import time\nnow = time.time()  "
            "# lint: allow[R001] -- fixture\n",
        )
        assert violations == []

    def test_suppression_matches_by_name_too(self):
        violations = lint_file(
            CORE,
            source="import time\nnow = time.time()  "
            "# lint: allow[determinism] -- fixture\n",
        )
        assert violations == []

    def test_suppression_for_other_rule_does_not_silence(self):
        violations = lint_file(
            CORE,
            source="import time\nnow = time.time()  "
            "# lint: allow[R002] -- wrong rule\n",
        )
        rules = {v.rule for v in violations}
        assert "R001" in rules          # still reported
        assert UNUSED_ID in rules       # and the stale allow is flagged

    def test_unused_suppression_is_flagged(self):
        violations = lint_file(CORE, source="x = 1  # lint: allow[R001]\n")
        assert [v.rule for v in violations] == [UNUSED_ID]
        assert "allow[R001]" in violations[0].message

    def test_one_line_may_suppress_multiple_rules(self):
        source = (
            "import time\n"
            "import random  # lint: allow[R001] -- fixture\n"
        )
        assert lint_file(CORE, source=source) == []


# ----------------------------------------------------------------------
# the per-file driver
# ----------------------------------------------------------------------
class TestLintFile:
    def test_syntax_error_becomes_parse_violation(self):
        violations = lint_file(CORE, source="def broken(:\n")
        assert len(violations) == 1
        assert violations[0].rule == PARSE_ID
        assert "parse" in violations[0].message

    def test_violations_sorted_by_position(self):
        source = (
            "import time\n"
            "a = time.time()\n"
            "b = time.monotonic()\n"
        )
        violations = lint_file(CORE, source=source)
        assert [v.line for v in violations] == sorted(v.line for v in violations)

    def test_render_is_grepable(self):
        violations = lint_file(CORE, source="import random\n")
        rendered = violations[0].render()
        assert rendered.startswith(f"{CORE}:1:")
        assert "R001[determinism]" in rendered


class TestIterPythonFiles:
    def test_expands_dirs_skips_pycache_dedups(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "a.py").write_text("x = 1\n")
        (tmp_path / "b.py").write_text("x = 1\n")
        files = iter_python_files(
            [tmp_path, tmp_path / "b.py", tmp_path / "pkg"]
        )
        names = [f.name for f in files]
        assert names.count("b.py") == 1
        assert all("__pycache__" not in str(f) for f in files)
        assert len(files) == 2
