"""Ablation: why ACCUBENCH uses a fully CPU-bound workload.

The paper's π task was chosen so performance tracks frequency exactly
(Section IV-B reads performance deltas off mean-frequency deltas).  A
memory-bound workload would blunt the methodology twice over: stalls make
retire rate insensitive to the clock, and idle pipelines burn less power,
so the thermal differences between bins barely express themselves.
"""

from repro.core.experiments import unconstrained
from repro.core.protocol import Accubench
from repro.device.fleet import PAPER_FLEETS, build_device
from repro.instruments.monsoon import MonsoonPowerMonitor
from benchmarks.conftest import bench_accubench_config


def fleet_spread(memory_boundedness: float) -> float:
    """Nexus 5 bin-0 vs bin-3 performance spread under a given workload."""
    bench = Accubench(
        bench_accubench_config(iterations=1, memory_boundedness=memory_boundedness)
    )
    scores = {}
    for index in (0, 3):
        device = build_device(PAPER_FLEETS["Nexus 5"][index])
        device.connect_supply(MonsoonPowerMonitor(3.8))
        result = bench.run_iteration(device, unconstrained())
        scores[index] = result.iterations_completed
    return (scores[0] - scores[3]) / scores[3]


def test_ablation_workload_boundedness(benchmark):
    def sweep():
        return {beta: fleet_spread(beta) for beta in (0.0, 0.3, 0.6)}

    spreads = benchmark.pedantic(sweep, rounds=1, iterations=1)

    print("\nAblation — workload memory-boundedness vs observed variation:")
    for beta, spread in spreads.items():
        print(f"  β = {beta:.1f}: bin-0 over bin-3 by {spread:6.1%}")

    # The CPU-bound workload exposes the full Figure 6 spread...
    assert spreads[0.0] > 0.10
    # ...and the visible variation shrinks monotonically as the workload
    # becomes memory-bound.
    assert spreads[0.0] > spreads[0.3] > spreads[0.6]
    assert spreads[0.6] < 0.6 * spreads[0.0]
