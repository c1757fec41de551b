"""Cost-attribution profiler: identity, additivity, export, surfaces.

The profiler's load-bearing promise is negative: turning it on changes
*nothing* about the simulation, checked here with profiling on and off
for three defenses -- the same surface the snapshot-hook tests use.
The positive claims -- additivity of the span tree, self-time coverage
of the wall, a valid speedscope export, the sweep/service plumbing --
are asserted on top.
"""

import heapq
import json
import re

import numpy as np
import pytest

from repro.adversary.strategies import GreedyJoinAdversary
from repro.core.ergo import Ergo
from repro.profiling import (
    ProfileReport,
    SpanProfiler,
    to_speedscope,
    validate_speedscope,
)
from repro.profiling import cli as profile_cli
from repro.scenarios.catalog import get_scenario
from repro.scenarios.run import (
    ScenarioPointSpec,
    resolve_t_rate,
    run_catalog,
    run_spec_point,
)
from repro.sim.blocks import ChurnBlock
from repro.sim.engine import Simulation, SimulationConfig
from repro.sim.events import BadDepartureBatch

SCENARIO = "flash-crowd"
N0_SCALE = 0.05

#: Wall-clock slop for additivity checks: perf_counter deltas are
#: exact sums in theory, but each span boundary pays ~2 clock reads
#: that land on one side or the other of the subtraction.
EPS_S = 2e-3


def make_point(defense: str, seed: int = 11):
    spec = get_scenario(SCENARIO)
    point = ScenarioPointSpec(
        scenario=SCENARIO,
        defense=defense,
        seed=seed,
        t_rate=resolve_t_rate(spec, None),
        n0_scale=N0_SCALE,
    )
    return spec, point


def profiled_report(defense="ERGO"):
    spec, point = make_point(defense)
    row = run_spec_point(spec, point, profile=True)
    return row, ProfileReport.from_dict(row["profile"])


def build_ergo_sim():
    """A hand-built ERGO run: session churn, a greedy Sybil attack and
    one scheduled Sybil withdrawal (a heap-dispatched handler)."""
    n = 2_000
    block = ChurnBlock(
        (np.arange(n) + 1) * 0.1,
        np.zeros(n, dtype=np.uint8),
        sessions=np.full(n, 5.0),
    )
    sim = Simulation(
        SimulationConfig(horizon=300.0, tick_interval=1.0, seed=1),
        Ergo(),
        [block],
        adversary=GreedyJoinAdversary(rate=20.0),
    )
    sim.queue.push(BadDepartureBatch(time=100.0, count=5))
    return sim


def result_json(result):
    """A finished run's summary and sampled series, for equality."""
    doc = {k: v for k, v in vars(result).items() if k != "metrics"}
    doc["bad_fraction"] = result.metrics.bad_fraction.values.tolist()
    doc["system_size"] = result.metrics.system_size.values.tolist()
    return json.dumps(doc, sort_keys=True)


def assert_balanced(report):
    """Per node, children sum within the parent and self = total - kids."""
    by_path = {row.path: row for row in report.rows}
    children = {}
    for row in report.rows:
        if row.parent:
            children.setdefault(row.parent, []).append(row)
    assert children, "expected a nested span tree"
    for parent_path, kids in children.items():
        parent = by_path[parent_path]
        child_total = sum(k.total_s for k in kids)
        assert child_total <= parent.total_s + EPS_S, (
            f"{parent_path}: children sum {child_total:.6f}s over "
            f"parent total {parent.total_s:.6f}s"
        )
        assert parent.self_s == pytest.approx(
            parent.total_s - child_total, abs=EPS_S
        )


class TestByteIdentityMatrix:
    """Profiling on vs off: the row must not change by a single byte."""

    @pytest.mark.parametrize("defense", ["Null", "ERGO", "SybilControl"])
    def test_row_identical_with_and_without_profiling(self, defense):
        spec, point = make_point(defense)
        base = run_spec_point(spec, point)
        profiled = run_spec_point(spec, point, profile=True)
        breakdown = profiled.pop("profile")
        assert breakdown["spans"], "profiled run produced no spans"
        assert json.dumps(profiled, sort_keys=True) == json.dumps(
            base, sort_keys=True
        )

    def test_no_policy_means_no_profile_key(self):
        spec, point = make_point("Null")
        row = run_spec_point(spec, point)
        assert "profile" not in row


def shadowed_hooks(sim):
    """Callable instance attributes that shadow a class attribute (what
    ``SpanProfiler._shadow`` installs) on the simulation, its adversary,
    the defense, its pricing window and its membership set."""
    defense = sim.defense
    owners = (
        sim, sim.adversary, defense, defense._window, defense.population.good
    )
    return [
        name
        for obj in owners
        for name, value in vars(obj).items()
        if callable(value) and hasattr(type(obj), name)
    ]


class TestDisabledPath:
    """An uninstrumented run installs nothing: no wrapped seam anywhere."""

    def run_ergo(self, profile):
        sim = build_ergo_sim()
        if profile:
            SpanProfiler().instrument(sim)
        sim.run()
        return sim

    def test_no_profiler_and_no_shadowed_hooks(self):
        sim = self.run_ergo(profile=False)
        assert shadowed_hooks(sim) == []
        assert sim._heap_ops == (heapq.heappush, heapq.heappop, heapq.heappop)
        assert all(h.__self__ is sim for h in sim._handlers.values())

    def test_enabled_profiler_shadows_hooks(self):
        # The check above can see a shadow: profiling on installs them.
        sim = self.run_ergo(profile=True)
        assert {
            "run", "_sample_now", "act",
            "process_good_join_batch", "quote_record_run", "add_batch",
        } <= set(shadowed_hooks(sim))


class TestInstrument:
    """``instrument(sim)`` on a hand-built simulation."""

    def test_seams_nest_under_one_root_and_metrics_match(self):
        expected = result_json(build_ergo_sim().run())
        sim = build_ergo_sim()
        prof = SpanProfiler()
        prof.instrument(sim)
        assert result_json(sim.run()) == expected
        report = prof.report()
        assert [r.path for r in report.rows if not r.parent] == ["engine.run"]
        paths = {row.path for row in report.rows}
        for span in (
            "engine.heap_pop", "adversary.act", "engine.handle.BadDepartureBatch"
        ):
            assert f"engine.run;{span}" in paths
        assert (
            "engine.run;defense.Ergo.join_batch;defense.Ergo.price_batch"
            in paths
        )
        assert_balanced(report)


class TestReportInvariants:
    def test_children_sum_within_parent_total(self):
        _, report = profiled_report()
        assert_balanced(report)

    def test_self_times_cover_the_wall(self):
        # The acceptance bar: spans account for >= 90% of the run wall.
        _, report = profiled_report()
        assert report.wall_s > 0
        assert all(row.self_s >= 0.0 for row in report.rows)
        assert report.coverage() >= 0.9

    def test_heap_ops_attributed_separately_from_defense_hooks(self):
        _, report = profiled_report()
        spans = {row.span for row in report.rows}
        assert "engine.heap_pop" in spans
        assert any(s.startswith("defense.Ergo.") for s in spans)
        # pricing/membership internals nest under the defense hooks
        assert "defense.Ergo.price_batch" in spans
        assert "membership.add" in spans

    def test_batch_spans_count_rows_as_events(self):
        row, report = profiled_report()
        joined = sum(
            r.events for r in report.rows
            if r.span == "defense.Ergo.join_batch"
        )
        assert joined == row["good_joins"]


class TestReportSerde:
    def test_as_dict_round_trips(self):
        _, report = profiled_report(defense="Null")
        doc = report.as_dict()
        json.dumps(doc)  # persistence channels require JSON-able rows
        assert ProfileReport.from_dict(doc) == report

    def test_merged_sums_by_path(self):
        _, a = profiled_report(defense="Null")
        merged = ProfileReport.merged([a.as_dict(), a.as_dict()])
        assert {r.path for r in merged.rows} == {r.path for r in a.rows}
        by_path = {r.path: r for r in merged.rows}
        for row in a.rows:
            twice = by_path[row.path]
            assert twice.calls == 2 * row.calls
            assert twice.events == 2 * row.events
            assert twice.total_s == pytest.approx(2 * row.total_s)
        assert merged.wall_s == pytest.approx(2 * a.wall_s)

    def test_table_sorts_by_self_time_and_honors_top(self):
        _, report = profiled_report()
        table = report.table(top=3)
        lines = table.splitlines()
        assert len(lines) == 5  # header + 3 rows + footer
        assert "% of" in lines[-1]
        full = report.table()
        assert f"{len(report.rows)} spans cover" in full

    def test_report_survives_exception_mid_run(self):
        sim = build_ergo_sim()
        on_tick = sim.defense.on_tick

        def failing_on_tick(now):
            if now >= 50.0:
                raise RuntimeError("hook failed")
            on_tick(now)

        sim.defense.on_tick = failing_on_tick
        prof = SpanProfiler()
        prof.instrument(sim)
        with pytest.raises(RuntimeError, match="hook failed"):
            sim.run()
        assert prof._stack == []
        report = prof.report()
        by_path = {row.path: row for row in report.rows}
        assert by_path["engine.run"].calls == 1
        assert (
            "engine.run;engine.handle._TickMarker;defense.Ergo.on_tick"
            in by_path
        )
        assert report.wall_s > 0
        assert_balanced(report)


class TestSpeedscope:
    def test_export_validates_cleanly(self):
        _, report = profiled_report()
        doc = to_speedscope(report, name="test")
        assert validate_speedscope(doc) == []
        json.dumps(doc)
        profile = doc["profiles"][0]
        assert profile["type"] == "evented"
        assert profile["events"], "expected open/close events"
        assert len(doc["shared"]["frames"]) >= 2

    def test_validator_catches_unbalanced_events(self):
        _, report = profiled_report(defense="Null")
        doc = to_speedscope(report)
        doc["profiles"][0]["events"].pop()  # drop a close
        assert validate_speedscope(doc)

    def test_validator_catches_missing_frames(self):
        _, report = profiled_report(defense="Null")
        doc = to_speedscope(report)
        doc["shared"]["frames"] = doc["shared"]["frames"][:1]
        assert validate_speedscope(doc)


class TestSweepPlumbing:
    def test_run_catalog_profile_attaches_rows_and_rollup(self):
        report = run_catalog(
            scenarios=[SCENARIO], defenses=["Null"], seed=11,
            n0_scale=N0_SCALE, profile=True,
        )
        assert all("profile" in row for row in report["rows"])
        rollup = report["profile"]
        assert rollup["spans"]
        assert rollup["wall_s"] > 0

    def test_unprofiled_catalog_has_no_rollup(self):
        report = run_catalog(
            scenarios=[SCENARIO], defenses=["Null"], seed=11,
            n0_scale=N0_SCALE,
        )
        assert "profile" not in report
        assert all("profile" not in row for row in report["rows"])


class TestCli:
    def run_cli(self, *args):
        return profile_cli.main(list(args))

    def test_profile_command_prints_table(self, capsys, tmp_path):
        json_path = tmp_path / "prof.json"
        scope_path = tmp_path / "prof.speedscope.json"
        rc = self.run_cli(
            SCENARIO, "--defense", "ergo", "--n0-scale", str(N0_SCALE),
            "--check", "--top", "5",
            "--json", str(json_path), "--speedscope", str(scope_path),
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "flash-crowd / ERGO" in out
        assert "spans cover" in out
        assert "byte-identical" in out
        row = json.loads(json_path.read_text())
        assert row["profile"]["spans"]
        doc = json.loads(scope_path.read_text())
        assert validate_speedscope(doc) == []

    def test_defense_name_is_case_insensitive(self):
        assert profile_cli.resolve_defense("ergo") == "ERGO"
        assert profile_cli.resolve_defense("sybilcontrol") == "SybilControl"
        with pytest.raises(SystemExit, match="unknown defense"):
            profile_cli.resolve_defense("nope")

    def test_unknown_scenario_fails_fast(self):
        with pytest.raises(SystemExit, match="unknown scenario"):
            self.run_cli("no-such-scenario")

    def test_requires_exactly_one_scenario(self):
        with pytest.raises(SystemExit, match="exactly one scenario"):
            self.run_cli(SCENARIO, "diurnal")

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit, match="unknown option"):
            self.run_cli(SCENARIO, "--granularity", "fine")

    @pytest.mark.parametrize(
        "flag, value, noun",
        [
            ("--seed", "abc", "an integer"),
            ("--t-rate", "abc", "a number"),
            ("--n0-scale", "abc", "a number"),
            ("--top", "x", "an integer"),
        ],
    )
    def test_non_numeric_option_exits_before_running(
        self, monkeypatch, flag, value, noun
    ):
        monkeypatch.setattr(
            profile_cli, "profile_point",
            lambda *a, **kw: pytest.fail("profiled run started"),
        )
        with pytest.raises(
            SystemExit, match=f"{flag} expects {noun}, got '{value}'"
        ):
            self.run_cli(SCENARIO, flag, value)

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--top", "0", "--top must be >= 1, got 0"),
            ("--top", "-2", "--top must be >= 1, got -2"),
            ("--n0-scale", "-1", "--n0-scale must be > 0, got -1"),
        ],
    )
    def test_out_of_range_option_exits_before_running(
        self, monkeypatch, flag, value, message
    ):
        monkeypatch.setattr(
            profile_cli, "profile_point",
            lambda *a, **kw: pytest.fail("profiled run started"),
        )
        with pytest.raises(SystemExit, match=re.escape(message)):
            self.run_cli(SCENARIO, flag, value)

    def test_coarse_flag_is_unknown(self):
        with pytest.raises(SystemExit, match="unknown option.*--coarse"):
            self.run_cli(SCENARIO, "--coarse")


class TestServeProfile:
    """The service surface: endpoint, metrics counter, gauge hygiene."""

    def make_supervisor(self, tmp_path):
        from repro.serve.store import JobStore
        from repro.serve.supervisor import Supervisor

        store = JobStore(tmp_path / "jobs.sqlite3")
        return store, Supervisor(store, tmp_path / "ckpt", max_workers=1)

    def test_profiled_job_feeds_endpoint_and_metrics(self, tmp_path):
        store, sup = self.make_supervisor(tmp_path)
        record = store.submit("a" * 12, {
            "scenarios": [SCENARIO], "defenses": ["Null"], "seed": 7,
            "t_rate": None, "n0_scale": N0_SCALE, "jobs": 1,
            "max_retries": 0, "point_timeout": None, "fault_spec": None,
            "snapshot_interval": 0.0, "profile": True,
        })
        sup._run_job(record.id)
        final = store.get(record.id)
        assert final.state == "succeeded"
        assert final.summary["profile_spans"] > 0
        spans = store.profile(record.id)
        assert spans
        assert spans == sorted(
            spans, key=lambda s: (-s["self_s"], s["path"])
        )
        totals = dict(store.profile_span_totals())
        assert "engine.run" in totals
        text = sup.metrics_text()
        assert "# TYPE repro_serve_job_span_seconds_total counter" in text
        assert 'repro_serve_job_span_seconds_total{span="engine.run"}' in text

    def test_unprofiled_job_stores_no_spans(self, tmp_path):
        store, sup = self.make_supervisor(tmp_path)
        record = store.submit("b" * 12, {
            "scenarios": [SCENARIO], "defenses": ["Null"], "seed": 7,
            "t_rate": None, "n0_scale": N0_SCALE, "jobs": 1,
            "max_retries": 0, "point_timeout": None, "fault_spec": None,
            "snapshot_interval": 0.0, "profile": False,
        })
        sup._run_job(record.id)
        assert store.get(record.id).state == "succeeded"
        assert store.profile(record.id) == []
        assert "span_seconds_total" not in sup.metrics_text()

    def test_profile_endpoint_over_http(self, tmp_path):
        import threading
        import urllib.error
        import urllib.request

        from repro.serve.api import make_server

        store, sup = self.make_supervisor(tmp_path)
        server = make_server(sup, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            record = store.submit("c" * 12, {
                "scenarios": [SCENARIO], "defenses": ["Null"], "seed": 7,
                "t_rate": None, "n0_scale": N0_SCALE, "jobs": 1,
                "max_retries": 0, "point_timeout": None, "fault_spec": None,
                "snapshot_interval": 0.0, "profile": True,
            })
            sup._run_job(record.id)
            with urllib.request.urlopen(
                f"{base}/jobs/{record.id}/profile", timeout=10
            ) as resp:
                doc = json.loads(resp.read())
            assert doc["state"] == "succeeded"
            assert doc["profiled"] is True
            assert doc["spans"]
            assert {"path", "span", "parent", "calls", "events",
                    "total_s", "self_s"} <= set(doc["spans"][0])
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(
                    f"{base}/jobs/{'d' * 12}/profile", timeout=10
                )
            assert info.value.code == 404
        finally:
            server.shutdown()
            server.server_close()
            store.close()

    def test_terminal_job_gauges_do_not_linger(self, tmp_path, monkeypatch):
        """Regression: a job finishing between ``running_ids()`` and the
        per-record ``get()`` must not keep exporting live gauges off its
        lingering (not-yet-pruned) snapshots."""
        store, sup = self.make_supervisor(tmp_path)
        record = store.submit("e" * 12, {
            "scenarios": [SCENARIO], "defenses": ["Null"],
        })
        store.mark_running(record.id)
        store.put_snapshot(record.id, {"sim_time": 5.0, "system_size": 10})
        assert f'{{job="{record.id}"}}' in sup.metrics_text()
        store.finish(record.id, "succeeded")
        # Simulate the race window: the id list still carries the job.
        monkeypatch.setattr(store, "running_ids", lambda: [record.id])
        text = sup.metrics_text()
        assert f'{{job="{record.id}"}}' not in text
        assert "repro_serve_job_sim_time" not in text


class TestJobSpecProfile:
    def test_parse_and_round_trip(self):
        from repro.serve.jobs import parse_job, spec_from_dict

        spec = parse_job({"scenarios": [SCENARIO], "profile": True})
        assert spec.profile is True
        assert spec_from_dict(spec.as_dict()).profile is True
        # omitted / null / pre-profiler persisted specs default off
        assert parse_job({"scenarios": [SCENARIO]}).profile is False
        assert parse_job(
            {"scenarios": [SCENARIO], "profile": None}
        ).profile is False
        legacy = spec.as_dict()
        del legacy["profile"]
        assert spec_from_dict(legacy).profile is False

    def test_non_boolean_profile_rejected(self):
        from repro.serve.jobs import JobValidationError, parse_job

        with pytest.raises(JobValidationError, match="'profile'"):
            parse_job({"scenarios": [SCENARIO], "profile": "yes"})


class TestLintProfilingExtension:
    """R004's profiling scan: every function body there is RNG-free."""

    PROF = "src/repro/profiling/fixture.py"

    def lint(self, source, path):
        import textwrap

        import repro.devtools  # noqa: F401  -- registers the rules
        from repro.devtools.walker import lint_file

        return lint_file(path, source=textwrap.dedent(source))

    def test_rng_use_in_profiling_function_flagged(self):
        source = """
        def jitter(stream):
            return stream.rng.normal()
        """
        violations = self.lint(source, self.PROF)
        assert "R004" in {v.rule for v in violations}
        assert any("profiler function" in v.message for v in violations)

    def test_same_function_outside_profiling_not_flagged(self):
        source = """
        def jitter(stream):
            return stream.rng.normal()
        """
        violations = self.lint(source, "src/repro/sim/fixture.py")
        assert "R004" not in {v.rule for v in violations}

    def test_clean_profiling_function_passes(self):
        source = """
        def wrap(name, fn):
            def timed(*args):
                return fn(*args)
            return timed
        """
        assert [
            v for v in self.lint(source, self.PROF) if v.rule == "R004"
        ] == []
