"""Which calls into the program the traced run wraps, and under what name.

Each layer is named after the module whose code runs inside its spans.
:func:`install` resolves every original first and only then patches, so
a subclass wrapper never wraps its base class's wrapper.  Nothing here
edits the program: the wrappers are attributes set on its classes and
modules for the life of one process.
"""

from __future__ import annotations

import importlib

from tracer import Tracer

#: Defense classes whose hooks are timed, and the layer each reports as.
DEFENSE_LAYERS = (
    ("repro.core.ergo", "Ergo", "core.ergo"),
    ("repro.baselines.ccom", "CCom", "baselines.ccom"),
    ("repro.baselines.sybilcontrol", "SybilControl", "baselines.sybilcontrol"),
    ("repro.baselines.remp", "Remp", "baselines.remp"),
    ("repro.sim.null_defense", "NullDefense", "sim.null_defense"),
)

#: Defense hook -> span-name suffix.
DEFENSE_HOOKS = (
    ("process_good_join_batch", "join_batch"),
    ("process_good_departure_batch", "depart_batch"),
    ("on_tick", "on_tick"),
    ("process_bad_join_batch", "bad_join_batch"),
    ("process_bad_departure_batch", "bad_depart_batch"),
    ("bootstrap", "bootstrap"),
)

ADVERSARY_MODULES = (
    "repro.adversary.base",
    "repro.adversary.adaptive",
    "repro.adversary.schedule",
    "repro.adversary.strategies",
)


def _rows_arg(index: int):
    return lambda args: len(args[index])


def _one(args) -> int:
    return 1


def _count_arg(args) -> int:
    return int(args[1])


def _targets():
    """``(owners, attribute, layer, rows, kind)`` for every wrapped call."""
    mod = importlib.import_module
    targets = []

    def method(module, cls, name, layer, rows=None, kind="call"):
        targets.append(
            ([getattr(mod(module), cls)], name, layer, rows, kind)
        )

    method("repro.sim.engine", "Simulation", "run", "sim", kind="sim")
    for module, cls, layer in DEFENSE_LAYERS:
        for hook, suffix in DEFENSE_HOOKS:
            rows = _rows_arg(1) if suffix in ("join_batch", "depart_batch") else None
            method(module, cls, hook, f"{layer}.{suffix}", rows)
    membership = "repro.identity.membership"
    method(membership, "ArenaMembershipSet", "add", "identity.membership", _one)
    method(membership, "ArenaMembershipSet", "add_batch", "identity.membership",
           _rows_arg(1))
    method(membership, "ArenaMembershipSet", "remove", "identity.membership", _one)
    method(membership, "ArenaMembershipSet", "discard", "identity.membership", _one)
    method(membership, "ArenaMembershipSet", "remove_batch",
           "identity.membership", _rows_arg(1))
    ledger = "repro.rb.ledger"
    method(ledger, "CostAccountant", "charge_good", "rb.ledger", _one)
    method(ledger, "CostAccountant", "charge_good_batch", "rb.ledger", _rows_arg(1))
    method(ledger, "CostAccountant", "charge_good_bulk", "rb.ledger", _count_arg)
    method(ledger, "CostAccountant", "charge_adversary", "rb.ledger", _one)
    goodjest = "repro.core.goodjest"
    method(goodjest, "GoodJEst", "on_event", "core.goodjest", _one)
    for name in ("joins_until_update", "departures_until_update_bound",
                 "apply_deferred", "initialize"):
        method(goodjest, "GoodJEst", name, "core.goodjest")
    method("repro.sim.metrics", "SlidingWindowCounter", "quote_record_run",
           "sim.metrics.quote_record_run", _rows_arg(1))
    for module in ADVERSARY_MODULES:
        for value in vars(mod(module)).values():
            if (isinstance(value, type) and value.__module__ == module
                    and "act" in vars(value)
                    and not getattr(vars(value)["act"], "__isabstractmethod__", False)):
                targets.append(([value], "act", "adversary", None, "call"))

    generators = mod("repro.churn.generators")
    compile_mod = mod("repro.scenarios.compile")
    run_mod = mod("repro.scenarios.run")
    for name in ("poisson_join_blocks", "modulated_join_blocks"):
        owners = [generators] + (
            [compile_mod] if vars(compile_mod).get(name) is getattr(generators, name)
            else []
        )
        targets.append((owners, name, "churn.generators", None, "generator"))
    targets.append(([mod("repro.traces.reader")], "stream_trace_blocks",
                     "traces.reader", None, "generator"))
    targets.append(([compile_mod, run_mod], "compile_scenario",
                     "scenarios.compile", None, "call"))
    method("repro.scenarios.compile", "CompiledScenario", "summary",
           "scenarios.compile.summary")
    targets.append(([run_mod], "run_spec_point", "scenarios.run", None, "call"))
    targets.append(([mod("repro.experiments.runtime")], "run_tasks",
                     "experiments.runtime", None, "call"))
    store = "repro.serve.store"
    for name in ("put_row", "put_snapshot", "heartbeat"):
        method(store, "JobStore", name, f"serve.store.{name}")
    for name in ("mark_running", "finish", "put_profile"):
        method(store, "JobStore", name, "serve.store")
    method("repro.serve.supervisor", "Supervisor", "_run_job", "serve.supervisor")
    return targets


def _sim_run(tracer: Tracer, run):
    """``Simulation.run`` as the ``sim`` span, also tallying its counters."""
    timed = tracer.wrap("sim", run)

    def wrapper(self):
        result = timed(self)
        counters = result.counters
        events = counters["queue_pops"] + counters["churn_events_fast"]
        tracer.count("sim.events", events)
        tracer.count("sim.queue_pops", counters["queue_pops"])
        tracer.count("sim.queue_pushes", counters["queue_pushes"])
        tracer.count("sim.queue_max_size", counters["queue_max_size"], "max")
        tracer.count("sim.good_joins", counters.get("good_join_events", 0))
        tracer.count("sim.good_joins_fast", counters.get("good_joins_fast", 0))
        return result

    wrapper.__wrapped__ = run
    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every target; :meth:`Tracer.uninstall` undoes it."""
    resolved = []
    for owners, name, layer, rows, kind in _targets():
        original = getattr(owners[0], name)
        resolved.append((owners, name, layer, rows, kind, original))
    for owners, name, layer, rows, kind, original in resolved:
        if kind == "sim":
            replacement = _sim_run(tracer, original)
        elif kind == "generator":
            replacement = tracer.wrap_generator(layer, original)
        else:
            replacement = tracer.wrap(layer, original, rows)
        for owner in owners:
            tracer.patch(owner, name, replacement)
