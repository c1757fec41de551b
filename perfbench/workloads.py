"""The benchmark's workloads, each run in a fresh child process.

``run.py`` starts this file with the program's ``src/`` and this
directory on ``PYTHONPATH`` and with fresh, empty ``REPRO_TRACE_DIR`` /
``REPRO_CHECKPOINT_DIR`` directories inside a temporary run directory::

    python perfbench/workloads.py --workload flash-xl --seed 1 \\
        --seconds 20 --trace 0 --tmp RUN_DIR --out RESULT.json

Every input is generated here from ``--seed``; the program receives only
those inputs (churn blocks, a synthetic trace spec, job payloads).  The
result file carries the metrics, the correctness verdict and a run
manifest; ``run.py`` prints it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import re
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

_clock = time.perf_counter

#: Flash crowd of block-mode joins, shaped like bench_scale's XL tier
#: but sized so two rounds over three defenses fit one run: the
#: standing population ends near 7.3e5 IDs.
FLASH = {
    "n_joins": 800_000,
    "burst_s": 200.0,
    "mean_session_s": 3_000.0,
    "horizon_s": 400.0,
}

#: Consensus-flap trace in the shape of the ``synthetic-flap-xl``
#: registry entry (5000 relays, ~3.4k standing), cut to 1000 simulated
#: seconds (~1.4e5 events): a call lasts 1-3 s, so a run holds five to
#: seven rounds and each defense's rate spans that many calls.
TRACE = {
    "relays": 5_000,
    "duration_s": 1_000.0,
    "mean_uptime_s": 48.0,
    "uptime_shape": 0.55,
    "mean_downtime_s": 24.0,
    "diurnal_amplitude": 0.6,
    "n0": 2_000,
    "mean_session_s": 3_000.0,
}

#: Closed loop of ``clients`` against ``repro serve`` (default flags).
SERVICE = {
    "clients": 2,
    "poll_interval_s": 0.025,
    "min_jobs": 100,
    "job_timeout_s": 60.0,
}

#: How many times a run sets its workload up (the median is reported).
SETUP_REPEATS = 3

#: Hard stop for the measured loop; keeps a run inside its time limit.
MAX_MEASURE_S = 120.0

#: A traced run fails when named layers cover less of its wall.
MIN_COVERAGE_PCT = 90.0

#: Report name -> scenario-suite defense name.
DEFENSES = (("null", "Null"), ("sybilcontrol", "SybilControl"), ("ergo", "ERGO"))

#: Row keys describing *how* a point was computed, not what it computed
#: (the scenario-row view of ``repro.sim.engine.PATH_COUNTERS``).
ROW_PATH_KEYS = ("fast_join_fraction", "churn_events_fast",
                 "churn_events_heap", "queue_max_size")

DIGESTS_FILE = HERE / "digests.json"


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------
def derive_seed(seed: int, *parts) -> int:
    """A 31-bit seed for one input, derived from the workload seed."""
    text = json.dumps([seed, *parts])
    return int(hashlib.sha256(text.encode()).hexdigest()[:8], 16) & 0x7FFFFFFF


def _digest(doc) -> str:
    text = json.dumps(doc, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def result_digest(result) -> str:
    """Digest of one run's simulated outcome (path counters excluded)."""
    from repro.sim.engine import PATH_COUNTERS

    return _digest({
        "good_spend": result.good_spend,
        "adversary_spend": result.adversary_spend,
        "good_spend_rate": result.good_spend_rate,
        "adversary_spend_rate": result.adversary_spend_rate,
        "max_bad_fraction": result.max_bad_fraction,
        "final_size": result.final_system_size,
        "counters": {
            key: value for key, value in result.counters.items()
            if key not in PATH_COUNTERS
        },
    })


def rows_digest(rows: List[dict]) -> str:
    """Digest of one job's rows in point order (path keys excluded)."""
    return _digest([
        {k: v for k, v in row.items() if k not in ROW_PATH_KEYS}
        for row in rows
    ])


def percentile(values: List[float], q: int) -> float:
    """The ``q``-th percentile (inclusive interpolation)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def recorded_digests(workload: str, seed: int) -> Optional[Dict[str, str]]:
    try:
        table = json.loads(DIGESTS_FILE.read_text())
    except (OSError, ValueError):
        return None
    return table.get("digests", {}).get(workload, {}).get(str(seed))


class Verdict:
    """Operations attempted, failed, and why."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(message)
        return ok


def compare_recorded(verdict: Verdict, workload: str, seed: int,
                     observed: Dict[str, str]) -> None:
    """Check observed digests against the recorded ones for ``seed``."""
    expected = recorded_digests(workload, seed)
    if expected is None:
        return
    for key, digest in sorted(observed.items()):
        verdict.check(
            expected.get(key) == digest,
            f"{key}: digest {digest} != recorded {expected.get(key)}",
        )


def source_digest() -> str:
    """SHA-256 over the program's Python sources (path + bytes)."""
    sha = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        sha.update(str(path.relative_to(ROOT)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()[:16]


def git_sha() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def manifest(args, params: dict) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "params": params,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# in-process workloads: flash-xl and trace-replay
# ----------------------------------------------------------------------
def measure_rounds(call: Callable[[str], dict], seconds: float,
                   rounds: Optional[int] = None):
    """Run rounds of one call per defense.

    Returns ``(samples, wall_s, rounds)``.  Only whole rounds run, so
    every defense has the same number of samples.  Without ``rounds``,
    another round starts only while the previous one would still fit in
    ``seconds`` (at least one runs).  Each call starts from a collected
    heap: a finished simulation is a reference cycle (engine <->
    defense) holding ~10^6 objects, and leaving it to the cyclic
    collector would bill its sweep, at an arbitrary point, to whichever
    later call triggers it.  Those collections are the benchmark's own
    work, so ``wall_s`` leaves them out.
    """
    samples = []
    start = _clock()
    collect_s = 0.0
    done = 0
    while True:
        round_start = _clock()
        for name, _ in DEFENSES:
            t0 = _clock()
            gc.collect()
            collect_s += _clock() - t0
            samples.append(call(name))
        done += 1
        round_s = _clock() - round_start
        elapsed = _clock() - start
        if rounds is not None:
            if done >= rounds:
                break
        elif elapsed + round_s > seconds or elapsed > MAX_MEASURE_S:
            break
    return samples, _clock() - start - collect_s, done


def in_process_metrics(samples: List[dict], wall_s: float,
                       setup_s: List[float]) -> dict:
    walls = [s["wall_s"] for s in samples]
    metrics = {"setup_s": statistics.median(setup_s)}
    for name, _ in DEFENSES:
        # Events over seconds summed across the run's calls: it spans
        # the whole run, which evens out the host's slow spells better
        # than the median of a few calls does.
        mine = [s for s in samples if s["defense"] == name]
        metrics[f"events_per_sec.{name}"] = (
            sum(s["events"] for s in mine) / sum(s["wall_s"] for s in mine))
    metrics["peak_rss_mb"] = peak_rss_mb()
    # In process the caller's "job" is one call and its row arrives
    # when the call returns, so first-row latency is the call latency.
    metrics["job_latency_p50_s"] = statistics.median(walls)
    metrics["job_latency_p90_s"] = percentile(walls, 90)
    metrics["first_row_p50_s"] = metrics["job_latency_p50_s"]
    metrics["first_row_p90_s"] = metrics["job_latency_p90_s"]
    metrics["jobs_per_sec"] = len(samples) / wall_s
    return metrics


def check_in_process(verdict: Verdict, workload: str, seed: int,
                     samples: List[dict]) -> Dict[str, str]:
    """Determinism, invariants and recorded digests for a call series."""
    digests: Dict[str, str] = {}
    joins = set()
    for sample in samples:
        name = sample["defense"]
        first = digests.setdefault(name, sample["digest"])
        verdict.check(sample["digest"] == first,
                      f"{name}: digest changed between calls "
                      f"({first} -> {sample['digest']})")
        verdict.check(sample["events"] > 0, f"{name}: no events simulated")
        verdict.check(sample["fast_fraction"] >= 0.95,
                      f"{name}: only {sample['fast_fraction']:.1%} of joins "
                      "on the fast path")
        joins.add(sample["good_joins"])
    verdict.check(len(joins) == 1,
                  f"defenses saw different good-join counts: {sorted(joins)}")
    compare_recorded(verdict, workload, seed, digests)
    return digests


def sample_from(name: str, wall_s: float, result) -> dict:
    counters = result.counters
    joins = counters.get("good_join_events", 0)
    return {
        "defense": name,
        "wall_s": wall_s,
        "events": counters["queue_pops"] + counters["churn_events_fast"],
        "digest": result_digest(result),
        "good_joins": joins,
        "fast_fraction": counters.get("good_joins_fast", 0) / max(joins, 1),
    }


class FlashXL:
    """In-process ``Simulation.run`` over a Poisson flash crowd."""

    name = "flash-xl"
    params = FLASH

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.blocks = None

    def setup(self) -> None:
        from repro.churn import generators
        from repro.churn.sessions import ExponentialSessions
        from repro.sim.rng import RngRegistry

        self.blocks = None  # release the previous set-up's blocks first
        p = FLASH
        self.blocks = list(generators.poisson_join_blocks(
            rate=p["n_joins"] / p["burst_s"],
            session_dist=ExponentialSessions(p["mean_session_s"]),
            rng=RngRegistry(seed=derive_seed(self.seed, "flash-xl")).stream(
                "perfbench.flash-xl"),
            horizon=p["burst_s"],
        ))
        for name, _ in DEFENSES:
            self.simulation(name)

    def simulation(self, name: str):
        from repro.baselines.sybilcontrol import SybilControl
        from repro.core.ergo import Ergo
        from repro.sim.engine import Simulation, SimulationConfig
        from repro.sim.null_defense import NullDefense

        defense = {"null": NullDefense, "sybilcontrol": SybilControl,
                   "ergo": Ergo}[name]()
        config = SimulationConfig(
            horizon=FLASH["horizon_s"], tick_interval=1.0, seed=self.seed
        )
        return Simulation(config, defense, iter(self.blocks))

    def call(self, name: str) -> dict:
        sim = self.simulation(name)
        t0 = _clock()
        result = sim.run()
        return sample_from(name, _clock() - t0, result)


class TraceReplayWorkload:
    """Streamed synthetic consensus-flap replay via ``run_spec_point``."""

    name = "trace-replay"
    params = TRACE

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.spec = None
        self.setups = 0
        self._results: list = []
        from repro.sim.engine import Simulation

        # Keep each run's SimulationResult: the scenario row omits the
        # counters the digest and events/sec need.  One call per run.
        run = Simulation.run
        results = self._results

        def capture(sim):
            result = run(sim)
            results.append(result)
            return result

        Simulation.run = capture

    def flap_spec(self):
        from repro.traces.synthetic import SyntheticFlapSpec

        p = TRACE
        return SyntheticFlapSpec(
            relays=p["relays"],
            duration=p["duration_s"],
            seed=derive_seed(self.seed, "trace-replay"),
            mean_uptime=p["mean_uptime_s"],
            uptime_shape=p["uptime_shape"],
            mean_downtime=p["mean_downtime_s"],
            diurnal_amplitude=p["diurnal_amplitude"],
            diurnal_period=p["duration_s"] / 2.0,
        )

    def setup(self) -> None:
        from repro.scenarios.spec import (
            AttackSchedule, ScenarioSpec, SessionSpec, TraceReplay)
        from repro.traces.source import TraceSource, fetch_trace, register_trace

        # A fresh, empty cache directory each time: nothing is reused.
        cache = Path(os.environ["REPRO_TRACE_DIR"]) / f"setup-{self.setups}"
        self.setups += 1
        os.environ["REPRO_TRACE_DIR"] = str(cache)
        trace_name = "perfbench-flap"
        register_trace(
            TraceSource(name=trace_name, synthetic=self.flap_spec()),
            replace=True,
        )
        fetch_trace(trace_name)
        self.spec = ScenarioSpec(
            name="perfbench-trace-replay",
            description="synthetic consensus flap, streamed",
            phases=(TraceReplay(path=trace_name, duration=TRACE["duration_s"]),),
            n0=TRACE["n0"],
            sessions=SessionSpec(kind="exponential",
                                 mean=TRACE["mean_session_s"]),
            attack=AttackSchedule(profile="off"),
        )

    def call(self, name: str) -> dict:
        from repro.scenarios import run as scenarios_run

        suite = dict(DEFENSES)[name]
        point = scenarios_run.ScenarioPointSpec(
            scenario=self.spec.name, defense=suite,
            seed=derive_seed(self.seed, "trace-replay", "point"), t_rate=0.0,
        )
        del self._results[:]
        t0 = _clock()
        scenarios_run.run_spec_point(self.spec, point)
        wall = _clock() - t0
        return sample_from(name, wall, self._results[-1])


def run_in_process(workload, args, verdict: Verdict) -> dict:
    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = _clock()
        workload.setup()
        setup_s.append(_clock() - t0)
    out: dict = {"setup_s_samples": setup_s}
    if not args.trace:
        samples, wall, rounds = measure_rounds(workload.call, args.seconds)
        out["metrics"] = in_process_metrics(samples, wall, setup_s)
        out["samples"] = len(samples)
        out["rounds"] = rounds
    else:
        import layers
        from tracer import Tracer

        # Untraced reference first, then the same rounds traced.
        reference, ref_wall, rounds = measure_rounds(
            workload.call, args.seconds / 2.0)
        tracer = Tracer()
        tracer.calibrate()
        layers.install(tracer)
        try:
            workload.setup()
            covered0 = tracer.root_total_s()
            samples, wall, _ = measure_rounds(workload.call, 0.0, rounds)
            covered = tracer.root_total_s() - covered0
        finally:
            tracer.uninstall()
        traced_s = sum(s["wall_s"] for s in samples)
        untraced_s = sum(s["wall_s"] for s in reference)
        out["metrics"] = layer_metrics(
            tracer.report(), tracer.counters, rounds, tracer.wrapper_s,
            coverage=covered / wall,
            overhead=(traced_s - untraced_s) / untraced_s,
        )
        out["layers"] = tracer.report()
        out["overhead_s"] = traced_s - untraced_s
        out["samples"] = len(samples)
        out["rounds"] = rounds
        samples = reference + samples
    out["digests"] = check_in_process(verdict, workload.name, args.seed, samples)
    return out


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
PER_LAYER_DEFENSES = ("core.ergo", "baselines.sybilcontrol", "sim.null_defense")


def layer_metrics(report: dict, counters: dict, units: float,
                  wrapper_s: float, coverage: float, overhead: float,
                  service: Optional[dict] = None) -> dict:
    """Per-layer metrics from a traced run, per round or per job.

    ``units`` is the number of rounds (in process) or jobs (service)
    the traced run made; times and counts are divided by it so runs of
    different lengths compare.  Times are calibrated self times.
    """
    units = max(units, 1)

    def get(layer, key):
        return report.get(layer, {}).get(key, 0)

    def self_s(layer):
        return get(layer, "self_s") / units

    def ratio(a, b):
        return a / b if b else 0.0

    events = counters.get("sim.events", 0)
    m = {
        "sim.self_ns_per_event": ratio(get("sim", "self_s"), events) * 1e9,
        "sim.queue_pops": counters.get("sim.queue_pops", 0) / units,
        "sim.queue_pushes": counters.get("sim.queue_pushes", 0) / units,
        "sim.queue_max_size": counters.get("sim.queue_max_size", 0),
        "sim.fast_fraction": ratio(counters.get("sim.good_joins_fast", 0),
                                   counters.get("sim.good_joins", 0)),
    }
    for layer in PER_LAYER_DEFENSES:
        m[f"{layer}.join_batch_s"] = self_s(f"{layer}.join_batch")
        m[f"{layer}.depart_batch_s"] = self_s(f"{layer}.depart_batch")
        m[f"{layer}.join_rows_per_call"] = ratio(
            get(f"{layer}.join_batch", "rows"), get(f"{layer}.join_batch", "calls"))
        m[f"{layer}.depart_rows_per_call"] = ratio(
            get(f"{layer}.depart_batch", "rows"),
            get(f"{layer}.depart_batch", "calls"))
        m[f"{layer}.on_tick_s"] = self_s(f"{layer}.on_tick")
    for layer, name in (("core.goodjest", "core.goodjest"),
                        ("sim.metrics.quote_record_run",
                         "sim.metrics.quote_record_run"),
                        ("rb.ledger", "rb.ledger")):
        m[f"{name}.s"] = self_s(layer)
        m[f"{name}.calls"] = get(layer, "calls") / units
        m[f"{name}.rows"] = get(layer, "rows") / units
    m["identity.membership.s"] = self_s("identity.membership")
    m["identity.membership.rows"] = get("identity.membership", "rows") / units
    m["identity.membership.ns_per_row"] = ratio(
        get("identity.membership", "self_s"),
        get("identity.membership", "rows")) * 1e9
    for layer in ("churn.generators", "traces.reader"):
        m[f"{layer}.ms_per_block"] = ratio(
            get(layer, "self_s"), get(layer, "calls")) * 1e3
        m[f"{layer}.rows_per_block"] = ratio(get(layer, "rows"),
                                             get(layer, "calls"))
    m["scenarios.compile.compile_s"] = self_s("scenarios.compile")
    m["scenarios.compile.summary_s"] = self_s("scenarios.compile.summary")
    m["adversary.act_s"] = self_s("adversary")
    m["adversary.act_calls"] = get("adversary", "calls") / units
    m["experiments.runtime.overhead_s"] = max(
        get("experiments.runtime", "total_s")
        - get("scenarios.run", "total_s"), 0.0) / units
    for name in ("put_row", "put_snapshot", "heartbeat"):
        m[f"serve.store.{name}_s"] = self_s(f"serve.store.{name}")
        m[f"serve.store.{name}_calls"] = get(f"serve.store.{name}", "calls") / units
    service = service or {}
    m["serve.supervisor.queue_wait_p50_s"] = service.get("queue_wait_p50_s", 0.0)
    m["serve.api.post_jobs_p50_ms"] = service.get("post_p50_ms", 0.0)
    m["serve.api.get_job_p50_ms"] = service.get("get_p50_ms", 0.0)
    m["trace.coverage_pct"] = coverage * 100.0
    m["trace.overhead_pct"] = overhead * 100.0
    m["trace.wrapper_ns"] = wrapper_s * 1e9
    return m


# ----------------------------------------------------------------------
# catalog-service: python -m repro serve under a closed loop
# ----------------------------------------------------------------------
def http(method: str, url: str, payload=None, timeout: float = 30.0):
    body = json.dumps(payload).encode() if payload is not None else None
    req = urllib.request.Request(url, data=body, method=method)
    if body is not None:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        return exc.code, {"error": exc.read().decode("utf-8", "replace")}


class Server:
    """One ``repro serve`` child on an ephemeral port."""

    def __init__(self, data_dir: Path, traced: bool, spans_out: Path,
                 log: Path) -> None:
        self.spans_out = spans_out
        serve_args = ["--port", "0", "--data-dir", str(data_dir)]
        if traced:
            cmd = [sys.executable, "-u", str(HERE / "serve_launcher.py"),
                   "--spans-out", str(spans_out), "--"] + serve_args
        else:
            cmd = [sys.executable, "-u", "-m", "repro", "serve"] + serve_args
        self.log = open(log, "w")
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self.log, text=True, cwd=ROOT,
        )
        self.url = None

    def wait_ready(self, timeout: float = 60.0) -> None:
        line = self.proc.stdout.readline()
        match = re.search(r"listening on (http://[\w.:]+)", line)
        if match is None:
            raise RuntimeError(f"service did not start: {line!r}")
        self.url = match.group(1)
        deadline = _clock() + timeout
        while _clock() < deadline:
            try:
                status, doc = http("GET", self.url + "/healthz", timeout=5.0)
                if status == 200 and doc.get("status") == "ok":
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("service never reported healthy")

    def vm_hwm_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        kb = int(re.search(r"VmHWM:\s+(\d+)\s+kB", status).group(1))
        return kb / 1024.0

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=40.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10.0)
        self.proc.stdout.close()
        self.log.close()
        return self.proc.returncode


class CatalogService:
    """Closed-loop clients submitting one-scenario catalog jobs."""

    name = "catalog-service"
    params = SERVICE

    def __init__(self, seed: int, tmp: Path) -> None:
        from repro.scenarios.catalog import scenario_names

        self.seed = seed
        self.tmp = tmp
        self.scenarios = scenario_names()
        self.boots = 0

    def payload(self, scenario: str) -> dict:
        return {"scenarios": [scenario],
                "seed": derive_seed(self.seed, "catalog-service", scenario)}

    def boot(self, traced: bool = False) -> Server:
        n = self.boots
        self.boots += 1
        server = Server(self.tmp / f"serve-{n}", traced,
                        self.tmp / f"spans-{n}.json", self.tmp / f"serve-{n}.log")
        try:
            server.wait_ready()
        except BaseException:
            server.stop()
            raise
        return server

    def run_job(self, url: str, scenario: str) -> dict:
        poll = SERVICE["poll_interval_s"]
        job = {"scenario": scenario, "error": None, "get_s": []}
        t_submit = _clock()
        status, doc = http("POST", url + "/jobs", self.payload(scenario))
        job["post_s"] = _clock() - t_submit
        if status != 201:
            job["error"] = f"POST /jobs -> {status}: {doc}"
            return job
        job_id = doc["id"]
        first_row = None
        while True:
            time.sleep(poll)
            t0 = _clock()
            status, record = http("GET", f"{url}/jobs/{job_id}")
            now = _clock()
            job["get_s"].append(now - t0)
            if status != 200:
                job["error"] = f"GET /jobs/{job_id} -> {status}"
                return job
            if first_row is None and record.get("row_count", 0) > 0:
                first_row = now - t_submit
            if record["state"] in ("succeeded", "failed"):
                break
            if now - t_submit > SERVICE["job_timeout_s"]:
                job["error"] = f"job {job_id} still {record['state']}"
                return job
        job["latency_s"] = now - t_submit
        job["first_row_s"] = first_row if first_row is not None else now - t_submit
        job["queue_wait_s"] = record["started_at"] - record["submitted_at"]
        if record["state"] != "succeeded":
            job["error"] = f"job {job_id} ended {record['state']}: {record['error']}"
            return job
        status, rows = http("GET", f"{url}/jobs/{job_id}/rows")
        if status != 200:
            job["error"] = f"GET rows -> {status}"
            return job
        job["rows"] = [r["row"] for r in sorted(rows["rows"],
                                                key=lambda r: r["index"])]
        status, live = http("GET", f"{url}/jobs/{job_id}/live?since=-1")
        if status != 200:
            job["error"] = f"GET live -> {status}"
            return job
        job["terminal"] = {
            s["snapshot"]["point"]: (s["snapshot"]["events"],
                                     s["snapshot"]["wall_time_s"])
            for s in live["snapshots"] if s["snapshot"].get("last")
        }
        return job

    def closed_loop(self, url: str, seconds: float,
                    min_jobs: int = 0, counts: Optional[List[int]] = None):
        """Run the clients; returns (jobs, wall_s, jobs per client).

        Client ``c`` submits scenarios ``c, c + n, c + 2n, ...`` of the
        catalog (mod its size).  With ``counts`` each client runs
        exactly that many jobs; otherwise the loop stops once
        ``seconds`` have passed and ``min_jobs`` jobs have finished.
        """
        n = SERVICE["clients"]
        jobs: List[dict] = []
        per_client = [0] * n
        lock = threading.Lock()
        start = _clock()

        def client(c: int) -> None:
            i = 0
            while True:
                if counts is not None:
                    if i >= counts[c]:
                        return
                else:
                    with lock:
                        finished = len(jobs)
                    elapsed = _clock() - start
                    if (elapsed >= seconds and finished >= min_jobs) or (
                            elapsed > MAX_MEASURE_S):
                        return
                scenario = self.scenarios[(c + n * i) % len(self.scenarios)]
                try:
                    job = self.run_job(url, scenario)
                except OSError as exc:
                    job = {"scenario": scenario, "error": repr(exc), "get_s": []}
                with lock:
                    jobs.append(job)
                    per_client[c] += 1
                i += 1
                if job["error"] is not None and counts is None:
                    return

        threads = [threading.Thread(target=client, args=(c,)) for c in range(n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return jobs, _clock() - start, per_client

    def expected_rows(self, scenario: str) -> List[dict]:
        """The job's rows computed in process, as they come back as JSON."""
        from repro.scenarios.catalog import get_scenario
        from repro.scenarios.run import (
            SCENARIO_DEFENSES, build_points, run_spec_point)

        points = build_points([scenario], SCENARIO_DEFENSES,
                              self.payload(scenario)["seed"])
        rows = [run_spec_point(get_scenario(scenario), p) for p in points]
        return json.loads(json.dumps(rows))

    def verify(self, verdict: Verdict, jobs: List[dict]) -> Dict[str, str]:
        """Each job's rows must equal in-process ``run_spec_point`` rows."""
        expected: Dict[str, list] = {}
        digests: Dict[str, str] = {}
        for job in jobs:
            if not verdict.check(job["error"] is None,
                                 f"{job['scenario']}: {job['error']}"):
                continue
            name = job["scenario"]
            if name not in expected:
                expected[name] = self.expected_rows(name)
                digests[name] = rows_digest(expected[name])
            verdict.check(job["rows"] == expected[name],
                          f"{name}: service rows differ from in-process rows")
        compare_recorded(verdict, self.name, self.seed, digests)
        return digests

    def run(self, args, verdict: Verdict) -> dict:
        out: dict = {}
        setup_s = []
        jobs: List[dict] = []
        server = None
        try:
            for i in range(SETUP_REPEATS):
                t0 = _clock()
                server = self.boot()
                setup_s.append(_clock() - t0)
                if i < SETUP_REPEATS - 1:
                    server.stop()
                    server = None
            out["setup_s_samples"] = setup_s
            if not args.trace:
                jobs, wall, _ = self.closed_loop(
                    server.url, args.seconds, SERVICE["min_jobs"])
                out["metrics"] = self.end_to_end(jobs, wall, setup_s, server)
            else:
                reference, _, counts = self.closed_loop(
                    server.url, args.seconds / 2.0)
                server.stop()
                server = self.boot(traced=True)
                jobs, wall, _ = self.closed_loop(server.url, 0.0, counts=counts)
                code = server.stop()
                spans = server.spans_out
                server = None
                verdict.check(code == 0, f"traced service exited {code}")
                dump = json.loads(spans.read_text())
                out["metrics"], out["overhead_s"] = self.traced(
                    jobs, reference, dump)
                out["layers"] = dump["layers"]
                jobs = reference + jobs
            out["samples"] = len(jobs)
        finally:
            if server is not None:
                code = server.stop()
                verdict.check(code == 0, f"service exited {code}")
        out["digests"] = self.verify(verdict, jobs)
        return out

    def end_to_end(self, jobs, wall, setup_s, server) -> dict:
        ok = [j for j in jobs if j["error"] is None]
        lat = [j["latency_s"] for j in ok] or [float("nan")]
        first = [j["first_row_s"] for j in ok] or [float("nan")]
        metrics = {"setup_s": statistics.median(setup_s)}
        for name, suite in DEFENSES:
            events = wall_s = 0.0
            for job in ok:
                for index, row in enumerate(job["rows"]):
                    if row["defense"] == suite and index in job["terminal"]:
                        events += job["terminal"][index][0]
                        wall_s += job["terminal"][index][1]
            metrics[f"events_per_sec.{name}"] = events / wall_s if wall_s else 0.0
        metrics["peak_rss_mb"] = server.vm_hwm_mb()
        metrics["job_latency_p50_s"] = statistics.median(lat)
        metrics["job_latency_p90_s"] = percentile(lat, 90)
        metrics["first_row_p50_s"] = statistics.median(first)
        metrics["first_row_p90_s"] = percentile(first, 90)
        metrics["jobs_per_sec"] = len(ok) / wall
        return metrics

    def traced(self, jobs, reference, dump):
        """Per-layer metrics and the tracing overhead in seconds."""
        ok = [j for j in jobs if j["error"] is None]
        traced_s = sum(j.get("latency_s", 0.0) for j in jobs)
        untraced_s = sum(j.get("latency_s", 0.0) for j in reference)
        layers_report = dump["layers"]
        run_job_s = layers_report.get("serve.supervisor", {}).get("root_s", 0.0)
        # A job's latency is its POST, its wait in the queue, and the
        # worker's run of it; what is left is the client's poll lag.
        covered = (sum(j["post_s"] for j in ok)
                   + sum(j["queue_wait_s"] for j in ok) + run_job_s)
        gets = [g for j in ok for g in j["get_s"]] or [0.0]
        service = {
            "queue_wait_p50_s": statistics.median(
                [j["queue_wait_s"] for j in ok] or [0.0]),
            "post_p50_ms": statistics.median(
                [j["post_s"] for j in ok] or [0.0]) * 1e3,
            "get_p50_ms": statistics.median(gets) * 1e3,
        }
        metrics = layer_metrics(
            layers_report, dump["counters"], len(ok), dump["wrapper_s"],
            coverage=covered / traced_s if traced_s else 0.0,
            overhead=(traced_s - untraced_s) / untraced_s if untraced_s else 0.0,
            service=service,
        )
        return metrics, traced_s - untraced_s


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
WORKLOADS = ("flash-xl", "trace-replay", "catalog-service")


def record(workload: str, seed: int, tmp: Path) -> Dict[str, str]:
    """Digests of one workload's outputs at ``seed``, computed in process."""
    if workload == "catalog-service":
        service = CatalogService(seed, tmp)
        return {name: rows_digest(service.expected_rows(name))
                for name in service.scenarios}
    instance = (FlashXL if workload == "flash-xl" else TraceReplayWorkload)(seed)
    instance.setup()
    return {name: instance.call(name)["digest"] for name, _ in DEFENSES}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    if args.record:
        doc = {"digests": record(args.workload, args.seed, args.tmp)}
    else:
        verdict = Verdict()
        if args.workload == "flash-xl":
            workload = FlashXL(args.seed)
        elif args.workload == "trace-replay":
            workload = TraceReplayWorkload(args.seed)
        else:
            workload = CatalogService(args.seed, args.tmp)
        params = dict(workload.params)
        try:
            if args.workload == "catalog-service":
                doc = workload.run(args, verdict)
            else:
                doc = run_in_process(workload, args, verdict)
        except Exception as exc:  # a workload that fails still reports why
            verdict.check(False, f"{type(exc).__name__}: {exc}")
            doc = {}
        if args.trace and "metrics" in doc:
            coverage = doc["metrics"]["trace.coverage_pct"]
            verdict.check(coverage >= MIN_COVERAGE_PCT,
                          f"named layers cover only {coverage:.1f}% of the "
                          f"traced wall (< {MIN_COVERAGE_PCT}%)")
        doc["manifest"] = manifest(args, params)
        doc["attempted"] = verdict.attempted
        doc["failed"] = verdict.failed
        doc["errors"] = verdict.errors
        doc["recorded_seed"] = recorded_digests(args.workload, args.seed) is not None
    tmp_out = args.out.with_suffix(".tmp")
    tmp_out.write_text(json.dumps(doc, indent=1, sort_keys=True))
    os.replace(tmp_out, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
