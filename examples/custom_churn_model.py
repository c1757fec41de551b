"""Bring your own churn: a diurnal network model and its (α, β).

Defines a custom network whose arrival rate swings day/night, measures
the effective ABC-model smoothness (α, β) of the generated trace, runs
Ergo on it, and compares the measured cost against the Theorem 1 bound
evaluated at the measured (α, β).

    python examples/custom_churn_model.py
"""

import numpy as np

import repro
from repro.analysis.bounds import ergo_spend_rate_bound
from repro.churn.epochs import find_epochs
from repro.churn.generators import diurnal_rate, modulated_join_blocks
from repro.churn.sessions import LogNormalSessions
from repro.churn.smoothness import estimate_smoothness
from repro.churn.traces import InitialMember
from repro.sim.engine import Simulation, SimulationConfig


def main() -> None:
    rng = np.random.default_rng(13)
    horizon = 4_000.0
    n0 = 1_500
    sessions = LogNormalSessions(mu=7.5, sigma=1.0)  # mean ~3000 s
    base_rate = n0 / sessions.mean()
    rate_fn = diurnal_rate(base_rate, amplitude=0.6, period=2_000.0)

    blocks = list(
        modulated_join_blocks(
            rate_fn,
            max_rate=base_rate * 1.6,
            session_dist=sessions,
            rng=rng,
            horizon=horizon,
        )
    )
    times = np.concatenate([b.times for b in blocks]).tolist()
    session_times = np.concatenate([b.sessions for b in blocks]).tolist()
    print(f"generated {len(times)} joins over {horizon:,.0f}s "
          f"(base rate {base_rate:.2f}/s, diurnal amplitude 0.6)")

    # Measure the effective ABC parameters of the join process.
    named = [
        repro.sim.events.GoodJoin(time=t, ident=f"j{i}", session=s)
        for i, (t, s) in enumerate(zip(times, session_times))
    ]
    epochs = find_epochs(named, [f"init-{i}" for i in range(n0)])
    smoothness = estimate_smoothness(named, epochs)
    print(f"measured smoothness over {smoothness.epochs} epochs: "
          f"alpha={smoothness.alpha:.2f}, beta={smoothness.beta:.2f}")

    # Run Ergo against a flood on this custom churn.
    defense = repro.Ergo()
    adversary = repro.GreedyJoinAdversary(rate=10_000.0)
    initial = [InitialMember(ident=f"init-{i}") for i in range(n0)]
    sim = Simulation(
        SimulationConfig(horizon=horizon),
        defense,
        blocks,
        adversary=adversary,
        initial_members=initial,
    )
    result = sim.run()

    j_rate = result.counters["good_join_events"] / horizon
    bound = ergo_spend_rate_bound(
        result.adversary_spend_rate,
        j_rate,
        alpha=max(smoothness.alpha, 1.0),
        beta=max(smoothness.beta, 1.0),
    )
    print()
    print(f"good spend rate (A)     : {result.good_spend_rate:,.1f}/s")
    print(f"adversary rate (T)      : {result.adversary_spend_rate:,.1f}/s")
    print(f"Theorem 1 bound at (α,β): {bound:,.1f}/s  (measured A must be below)")
    print(f"max bad fraction        : {result.max_bad_fraction:.4f}")
    assert result.good_spend_rate < bound
    print("\nErgo's measured cost sits below the Theorem 1 envelope.")


if __name__ == "__main__":
    main()
