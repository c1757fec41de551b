"""Job schema: what ``POST /jobs`` accepts and how a job executes.

A job is one scenario x defense sweep -- exactly what
``python -m repro scenarios run`` computes -- described by a small
JSON object::

    {
      "scenarios":     ["flash-crowd", ...],   # default: whole catalog
      "defenses":      ["ERGO", "Null", ...],  # default: full suite
      "seed":          2021,
      "t_rate":        null,                   # override adversary rate
      "n0_scale":      1.0,                    # population scale
      "jobs":          1,                      # worker *processes*
      "max_retries":   2,                      # per-point retry budget
      "point_timeout": null,                   # seconds (processes only)
      "fault_spec":    null,                   # repro.faults grammar
      "snapshot_interval": 1.0,                # live telemetry cadence
                                               #   (sim seconds; 0 = off)
      "profile":       false                   # span-level cost
    }                                          #   attribution per point

Validation happens at admission time (:func:`parse_job` raises
:class:`JobValidationError` -> HTTP 400), so a job that reaches the
queue cannot fail on a typo hours later.  Execution
(:func:`execute_job`) runs on the fault-tolerant sweep runtime with
the retry/timeout/fault-injection policy the job asked for, a per-job
checkpoint journal for resume-after-crash, and an ``on_row`` callback
that streams each completed point into the sqlite store.

Note on ``fault_spec`` + ``jobs``: an injected ``crash`` fault calls
``os._exit`` in whatever process runs the point.  With ``jobs >= 2``
that is a worker process (the runtime rebuilds the pool and retries --
the chaos-testing path); with ``jobs = 1`` the point runs inside the
service itself, so the crash kills the *service* -- which is precisely
the kill-recovery drill, not a bug.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro import faults
from repro.experiments.runtime import ExecutionPolicy
from repro.scenarios.catalog import get_scenario, scenario_names
from repro.scenarios.run import SCENARIO_DEFENSES, run_catalog


class JobValidationError(ValueError):
    """A job payload that must be rejected at admission (HTTP 400)."""


@dataclass(frozen=True)
class JobSpec:
    """A validated, immutable job description (JSON round-trippable)."""

    scenarios: Tuple[str, ...]
    defenses: Tuple[str, ...]
    seed: int = 2021
    t_rate: Optional[float] = None
    n0_scale: float = 1.0
    jobs: int = 1
    max_retries: int = 2
    point_timeout: Optional[float] = None
    fault_spec: Optional[str] = None
    #: Simulated seconds between live telemetry snapshots
    #: (``GET /jobs/<id>/live``); ``0`` disables snapshotting.
    snapshot_interval: float = 1.0
    #: Run every point with span-level cost attribution
    #: (``GET /jobs/<id>/profile``).  Metrics stay byte-identical.
    profile: bool = False

    def as_dict(self) -> Dict[str, Any]:
        doc = asdict(self)
        doc["scenarios"] = list(self.scenarios)
        doc["defenses"] = list(self.defenses)
        return doc

    @property
    def points(self) -> int:
        return len(self.scenarios) * len(self.defenses)


#: Payload keys :func:`parse_job` understands (anything else is a 400 --
#: silently ignoring a misspelled ``n0_scale`` would run the wrong job).
_KNOWN_KEYS = frozenset(
    ("scenarios", "defenses", "seed", "t_rate", "n0_scale", "jobs",
     "max_retries", "point_timeout", "fault_spec", "snapshot_interval",
     "profile")
)


def _want(payload: Dict, key: str, kinds, default):
    value = payload.get(key, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise JobValidationError(
            f"{key!r} must be {' or '.join(k.__name__ for k in kinds)}, "
            f"got {value!r}"
        )
    return value


def parse_job(payload: Any) -> JobSpec:
    """Validate a ``POST /jobs`` payload into a :class:`JobSpec`."""
    if not isinstance(payload, dict):
        raise JobValidationError("job payload must be a JSON object")
    unknown = sorted(set(payload) - _KNOWN_KEYS)
    if unknown:
        raise JobValidationError(
            f"unknown job field(s): {', '.join(unknown)}; "
            f"known: {', '.join(sorted(_KNOWN_KEYS))}"
        )

    scenarios = payload.get("scenarios") or scenario_names()
    if (not isinstance(scenarios, (list, tuple))
            or not all(isinstance(s, str) for s in scenarios)):
        raise JobValidationError("'scenarios' must be a list of names")
    for name in scenarios:
        try:
            get_scenario(name)
        except KeyError as exc:
            raise JobValidationError(str(exc.args[0])) from None

    defenses = payload.get("defenses") or list(SCENARIO_DEFENSES)
    if (not isinstance(defenses, (list, tuple))
            or not all(isinstance(d, str) for d in defenses)):
        raise JobValidationError("'defenses' must be a list of names")
    unknown_defenses = [d for d in defenses if d not in SCENARIO_DEFENSES]
    if unknown_defenses:
        raise JobValidationError(
            f"unknown defense(s): {', '.join(unknown_defenses)}; "
            f"choose from: {', '.join(SCENARIO_DEFENSES)}"
        )

    # An explicit JSON ``null`` means "use the default" for every
    # scalar knob, matching an omitted key.
    seed = _want(payload, "seed", (int,), 2021)
    seed = 2021 if seed is None else seed
    t_rate = _want(payload, "t_rate", (int, float), None)
    if t_rate is not None and t_rate < 0:
        raise JobValidationError("'t_rate' must be >= 0")
    n0_scale = _want(payload, "n0_scale", (int, float), 1.0)
    n0_scale = 1.0 if n0_scale is None else n0_scale
    if n0_scale <= 0:
        raise JobValidationError("'n0_scale' must be > 0")
    jobs = _want(payload, "jobs", (int,), 1)
    jobs = 1 if jobs is None else jobs
    # Floor the cap at 4 so crash-injection chaos (which needs worker
    # processes) stays expressible on single-core CI boxes;
    # oversubscribing cores is legal, unbounded fan-out is not.
    max_procs = max(4, os.cpu_count() or 1)
    if jobs < 1 or jobs > max_procs:
        raise JobValidationError(
            f"'jobs' (worker processes) must be in 1..{max_procs}"
        )
    max_retries = _want(payload, "max_retries", (int,), 2)
    max_retries = 2 if max_retries is None else max_retries
    if max_retries < 0:
        raise JobValidationError("'max_retries' must be >= 0")
    point_timeout = _want(payload, "point_timeout", (int, float), None)
    if point_timeout is not None and point_timeout <= 0:
        raise JobValidationError("'point_timeout' must be positive seconds")
    fault_spec = _want(payload, "fault_spec", (str,), None)
    if fault_spec:
        try:
            faults.parse_fault_spec(fault_spec)
        except faults.FaultSpecError as exc:
            raise JobValidationError(str(exc)) from None
    else:
        fault_spec = None
    snapshot_interval = _want(payload, "snapshot_interval", (int, float), 1.0)
    snapshot_interval = 1.0 if snapshot_interval is None else snapshot_interval
    if snapshot_interval < 0:
        raise JobValidationError(
            "'snapshot_interval' must be >= 0 (0 disables snapshots)"
        )
    profile = payload.get("profile", False)
    if profile is None:
        profile = False
    if not isinstance(profile, bool):
        raise JobValidationError(
            f"'profile' must be a boolean, got {profile!r}"
        )

    return JobSpec(
        scenarios=tuple(scenarios),
        defenses=tuple(defenses),
        seed=int(seed),
        t_rate=float(t_rate) if t_rate is not None else None,
        n0_scale=float(n0_scale),
        jobs=int(jobs),
        max_retries=int(max_retries),
        point_timeout=float(point_timeout) if point_timeout else None,
        fault_spec=fault_spec,
        snapshot_interval=float(snapshot_interval),
        profile=profile,
    )


def spec_from_dict(doc: Dict[str, Any]) -> JobSpec:
    """Rehydrate a spec persisted by the store (already validated)."""
    return JobSpec(
        scenarios=tuple(doc["scenarios"]),
        defenses=tuple(doc["defenses"]),
        seed=doc["seed"],
        t_rate=doc["t_rate"],
        n0_scale=doc["n0_scale"],
        jobs=doc["jobs"],
        max_retries=doc["max_retries"],
        point_timeout=doc["point_timeout"],
        fault_spec=doc["fault_spec"],
        # Specs persisted before the telemetry vertical lack the key;
        # ditto "profile" from before the cost-attribution vertical.
        snapshot_interval=float(doc.get("snapshot_interval", 1.0)),
        profile=bool(doc.get("profile", False)),
    )


def execute_job(
    spec: JobSpec,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    on_row: Optional[Callable[[int, Dict], None]] = None,
    on_snapshot: Optional[Callable[[int, Any], None]] = None,
) -> Dict:
    """Run one job on the fault-tolerant runtime; returns the report.

    ``on_failure="collect"`` turns points that exhaust their retry
    budget into structured failure entries in the report -- the
    supervisor marks such jobs ``failed`` with the table attached, it
    never dies with them.  The checkpoint journal is flushed as rows
    land and removed by the runtime on full success, so a job
    interrupted by a service crash resumes exactly where it stopped.

    ``on_snapshot(point_index, snapshot)`` receives the engine's live
    telemetry (when the spec's ``snapshot_interval`` is nonzero) -- the
    supervisor persists these for ``GET /jobs/<id>/live``.  Snapshots
    are observational only: the report stays byte-identical with them
    on or off, and a resumed job re-delivers none.
    """
    policy = ExecutionPolicy(
        max_retries=spec.max_retries,
        point_timeout=spec.point_timeout,
        checkpoint=checkpoint,
        resume=resume,
        fault_spec=spec.fault_spec,
        on_failure="collect",
    )
    return run_catalog(
        scenarios=list(spec.scenarios),
        defenses=list(spec.defenses),
        seed=spec.seed,
        t_rate=spec.t_rate,
        n0_scale=spec.n0_scale,
        jobs=spec.jobs,
        policy=policy,
        on_row=on_row,
        snapshot_interval=(
            spec.snapshot_interval
            if on_snapshot is not None and spec.snapshot_interval > 0
            else None
        ),
        on_snapshot=on_snapshot,
        profile=spec.profile,
    )
