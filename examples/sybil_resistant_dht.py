"""A Sybil-resistant DHT driven by Ergo's membership (future work, §13.2).

Runs Ergo under a flood, mirrors its membership into a Chord ring with
swarm-vouched routing, and measures lookup correctness -- showing how
DefID's set-level bound (Sybils < 1/6) lifts to application-level
guarantees.

    python examples/sybil_resistant_dht.py
"""

import numpy as np

import repro
from repro.applications.dht import SybilResistantDHT


def main() -> None:
    rngs = repro.RngRegistry(seed=9)
    network = repro.churn.NETWORKS["gnutella"]
    horizon = 500.0
    scenario = network.scenario(horizon=horizon, rng=rngs.stream("churn"), n0=1_500)
    defense = repro.Ergo()
    sim = repro.Simulation(
        repro.SimulationConfig(horizon=horizon),
        defense,
        scenario.events,
        adversary=repro.GreedyJoinAdversary(rate=5_000.0),
        rngs=rngs,
        initial_members=scenario.initial,
    )
    result = sim.run()
    good_ids = defense.population.good.good_ids()
    bad_count = defense.population.bad_count
    print("=== Ergo membership after a 5,000/s flood ===")
    print(f"good IDs: {len(good_ids)}, Sybil IDs: {bad_count} "
          f"(fraction {defense.bad_fraction():.3f} < 1/6)")

    dht = SybilResistantDHT(redundancy=3, swarm_size=15)
    # Ring positions hash node names, so name each integer ident.
    dht.sync_membership(
        [f"g#{ident}" for ident in good_ids],
        [f"sybil{i}" for i in range(bad_count)],
    )
    stats = dht.swarm_stats()
    print(f"\n=== Chord ring with swarm-vouched routing ===")
    print(f"swarms: {stats['swarms']} (size {dht.swarm_size}), "
          f"bad-majority swarms: {stats['bad_majority_fraction']:.4f}")

    rng = np.random.default_rng(1)
    stored = 300
    wrong = 0
    for k in range(stored):
        dht.put(f"key{k}", f"value{k}")
    for k in range(stored):
        if not dht.lookup(f"key{k}", rng).correct:
            wrong += 1
    print(f"\nlookups: {stored}, incorrect: {wrong} "
          f"({100 * (1 - wrong / stored):.2f}% correct)")
    print("\nBecause Ergo caps the Sybil fraction below 1/6 and hashing")
    print("spreads Sybils uniformly, a bad-majority swarm is exponentially")
    print("unlikely -- DefID becomes an application-level guarantee.")


if __name__ == "__main__":
    main()
