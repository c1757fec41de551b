"""GoodJEst in isolation: tracking a join rate that doubles every epoch.

Builds an exactly α,β-smooth trace whose epoch rates rise exponentially
(α = 2), feeds it to the estimation harness, and prints the estimate
against the truth at every interval -- including how the Theorem 2
envelope contains the ratio.

    python examples/estimating_join_rate.py
"""

import numpy as np

from repro.analysis.bounds import goodjest_envelope
from repro.analysis.plotting import format_table
from repro.churn.generators import smooth_trace
from repro.churn.traces import InitialMember
from repro.experiments.estimation import EstimationHarness
from repro.sim.blocks import blocks_from_events
from repro.sim.engine import Simulation, SimulationConfig


def main() -> None:
    rng = np.random.default_rng(11)
    n0 = 400
    epoch_rates = [0.5, 1.0, 2.0, 4.0, 8.0]  # alpha = 2, exponential rise
    events = smooth_trace(n0=n0, epoch_rates=epoch_rates, rng=rng, beta=1.0)
    horizon = events[-1].time + 1.0

    harness = EstimationHarness()
    sim = Simulation(
        SimulationConfig(horizon=horizon),
        harness,
        list(blocks_from_events(events)),
        initial_members=[InitialMember(ident=f"init-{i}") for i in range(n0)],
    )
    sim.run()

    envelope = goodjest_envelope(alpha=2.0, beta=1.0)
    rows = []
    for sample in harness.ratios:
        rows.append(
            [
                f"{sample.time:,.0f}",
                sample.true_rate,
                sample.estimate,
                sample.ratio,
                "yes" if envelope.contains(sample.estimate, sample.true_rate) else "NO",
            ]
        )
    print("Join rate doubling every epoch (alpha=2, beta=1):")
    print(
        format_table(
            ["t (s)", "true J", "estimate J̃", "ratio", "in Thm-2 envelope"], rows
        )
    )
    print(
        f"\nTheorem 2 envelope for alpha=2, beta=1: "
        f"[{envelope.lower_factor:.2e}, {envelope.upper_factor:.2e}] x true rate"
    )
    print(
        "The estimate tracks the doubling rate within a small constant "
        "factor -- far inside the worst-case envelope."
    )


if __name__ == "__main__":
    main()
