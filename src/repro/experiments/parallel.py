"""Process-parallel sweep execution.

The paper's headline figures are Cartesian sweeps (networks x defenses x
21 attack rates, 10,000 simulated seconds each).  Every point is an
independent simulation, so the sweep layer is embarrassingly parallel:
this module fans picklable :class:`PointSpec` descriptions out over the
fault-tolerant runtime (:mod:`repro.experiments.runtime` -- per-point
futures on a ``ProcessPoolExecutor`` with crash recovery, retry/backoff,
per-point timeouts, and checkpoint/resume) and collects
:class:`~repro.experiments.runner.SweepResult` rows back **in
submission order**, so a parallel sweep is row-for-row identical to a
serial one.

Design constraints:

* **Picklability.**  Defense factories are usually closures over a
  config (not picklable), so workers rebuild them: a *factory provider*
  -- a module-level callable such as ``figure8.defense_factories`` --
  is pickled by reference together with its (dataclass) argument, and
  each worker calls it to materialize the ``{label: factory}`` dict.
* **Determinism.**  Each point's seed is derived from the experiment
  seed and the point's coordinates via SHA-256 (:func:`derive_seed`),
  never from worker identity or scheduling order.  ``jobs=1`` runs the
  exact same specs serially in the same order, producing bit-identical
  rows.
* **Serial fallback.**  ``jobs=1`` (the library default) never touches
  multiprocessing, so tests and nested callers pay zero overhead.

``--jobs N`` on the experiment CLIs routes here; the CLI default is
``os.cpu_count()`` (:func:`resolve_jobs`).
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.adversary.base import Adversary
from repro.adversary.strategies import GreedyJoinAdversary, LowerBoundAdversary
from repro.churn.datasets import NETWORKS
from repro.cliutil import pop_number
from repro.experiments.config import scaled_n0
from repro.experiments.runner import SweepResult, run_point

#: Named adversary factories a :class:`PointSpec` can reference (the
#: spec must stay picklable, so it carries a key instead of a callable).
#: ``None`` in the spec means "strongest implemented attack for the
#: defense" (:func:`repro.experiments.runner.adversary_for`).
ADVERSARIES: Dict[str, Callable[[float], Adversary]] = {
    "greedy": lambda t: GreedyJoinAdversary(rate=t),
    "lower-bound": lambda t: LowerBoundAdversary(rate=t),
}


@dataclass(frozen=True)
class PointSpec:
    """One picklable (network, defense, T) sweep point."""

    network: str
    defense: str
    t_rate: float
    seed: int
    horizon: float
    n0: Optional[int] = None
    #: key into :data:`ADVERSARIES`; ``None`` = defense-appropriate default
    adversary: Optional[str] = None


def derive_seed(base_seed: int, *coords) -> int:
    """A per-point seed, stable across processes and Python versions.

    Hashes the experiment seed together with the point coordinates
    (network, defense, T, ...) so that every sweep point gets an
    independent RNG stream, yet re-running the sweep -- serially or in
    any parallel schedule -- reproduces it exactly.
    """
    text = ":".join([str(int(base_seed))] + [str(c) for c in coords])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % (2**63)


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a jobs request (``None``/``0`` = all cores)."""
    if jobs is None or jobs <= 0:
        return max(1, os.cpu_count() or 1)
    return int(jobs)


def parse_jobs(args: Sequence[str]) -> int:
    """Extract ``--jobs N`` / ``--jobs=N`` from CLI args (default: all cores)."""
    return resolve_jobs(pop_number(list(args), "--jobs", int))


def factories_from_dict(factories: Dict[str, Callable]) -> Dict[str, Callable]:
    """Provider for callers that already hold a picklable factory dict."""
    return factories


def run_spec(
    spec: PointSpec,
    factory_provider: Callable,
    provider_arg=None,
) -> SweepResult:
    """Simulate one sweep point (this is the worker-side entry point)."""
    factories = (
        factory_provider(provider_arg)
        if provider_arg is not None
        else factory_provider()
    )
    adversary_factory = ADVERSARIES[spec.adversary] if spec.adversary else None
    row = run_point(
        factories[spec.defense],
        NETWORKS[spec.network],
        spec.t_rate,
        horizon=spec.horizon,
        seed=spec.seed,
        n0=spec.n0,
        adversary_factory=adversary_factory,
    )
    row.defense = spec.defense
    return row


def build_sweep_specs(
    networks: Sequence[str],
    defenses: Sequence[str],
    t_rates: Sequence[float],
    horizon: float,
    seed: int,
    n0_scale: float = 1.0,
    adversary: Optional[str] = None,
) -> List[PointSpec]:
    """The Cartesian product the figure sweeps run, as picklable specs."""
    specs: List[PointSpec] = []
    for network_name in networks:
        n0 = scaled_n0(NETWORKS[network_name].n0, n0_scale)
        for label in defenses:
            for t_rate in t_rates:
                specs.append(
                    PointSpec(
                        network=network_name,
                        defense=label,
                        t_rate=float(t_rate),
                        seed=derive_seed(seed, network_name, label, float(t_rate)),
                        horizon=horizon,
                        n0=n0,
                        adversary=adversary,
                    )
                )
    return specs


def execute_report(
    specs: Sequence[PointSpec],
    factory_provider: Callable,
    provider_arg=None,
    jobs: int = 1,
    policy=None,
):
    """Run every spec in order, optionally across worker processes.

    Returns the runtime's full ``RunReport``: rows in submission order,
    failure rows, retry/rebuild counts and checkpoint accounting.
    """
    tasks = [(spec, factory_provider, provider_arg) for spec in specs]
    return map_report(run_spec, tasks, jobs=jobs, star=True, policy=policy)


def map_report(
    fn: Callable,
    items: Sequence,
    jobs: int = 1,
    star: bool = False,
    policy=None,
    on_row=None,
    on_snapshot=None,
):
    """Order-preserving (optionally process-parallel) map.

    For experiment harnesses whose per-point result is not a
    :class:`SweepResult` (figure 9 cells, ablations, catalog points).
    ``fn`` must be a module-level callable and every item picklable;
    ``star=True`` unpacks each item as ``fn(*item)``.  Execution is
    delegated to the fault-tolerant runtime
    (:mod:`repro.experiments.runtime`): one future per point, pool
    rebuild on worker crash, deterministic retry/backoff, and -- when
    ``policy`` asks for them -- per-point timeouts and checkpoint/
    resume.  Returns the runtime's full ``RunReport``; its ``rows`` are
    in submission order.

    ``on_row(index, row)`` is forwarded to the runtime: it fires on the
    coordinator as each row lands (including resumed rows), the hook
    incremental persistence rides on.  ``on_snapshot(index, snapshot)``
    enables intra-point telemetry (``fn`` must then accept an
    ``emit_snapshot`` keyword); see
    :func:`repro.experiments.runtime.run_tasks`.
    """
    from repro.experiments import runtime

    jobs = min(resolve_jobs(jobs), max(1, len(items)))
    return runtime.run_tasks(
        fn, items, jobs=jobs, star=star, policy=policy, on_row=on_row,
        on_snapshot=on_snapshot,
    )
