"""Calibration harness: prints headline numbers vs the paper's targets.

Run after editing catalog constants:

    python scripts/calibrate.py [model ...]

Targets (paper Table II and figures):
  SD-800/Nexus 5     perf 14%   energy 19%
  SD-805/Nexus 6     perf  2%   energy  2%
  SD-810/Nexus 6P    perf 10%   energy 12%
  SD-820/LG G5       perf  4%   energy 10%
  SD-821/Pixel       perf  5%   energy  9%
  FIXED-FREQ perf repeatability RSD < ~3%
  Fig 13: SD-805 less efficient than SD-800
"""

from __future__ import annotations

import sys
import time

from repro import (
    AccubenchConfig,
    CampaignConfig,
    CampaignRunner,
    device_spec,
)
from repro.core.analysis import performance_variation
from repro.device.catalog import DEVICE_NAMES

TARGETS = {
    "Nexus 5": (0.14, 0.19),
    "Nexus 6": (0.02, 0.02),
    "Nexus 6P": (0.10, 0.12),
    "LG G5": (0.04, 0.10),
    "Google Pixel": (0.05, 0.09),
}


def main() -> None:
    models = sys.argv[1:] or list(DEVICE_NAMES)
    config = CampaignConfig(accubench=AccubenchConfig(iterations=2))
    runner = CampaignRunner(config)
    efficiencies = {}
    for model in models:
        target_perf, target_energy = TARGETS[model]
        spec = device_spec(model)
        start = time.time()
        perf, energy = runner.run_model(model)
        wall = time.time() - start
        fixed_perf_rsd = performance_variation(
            [d.performance for d in energy.devices]
        )
        eff = {d.serial: d.efficiency_iters_per_kj for d in perf.devices}
        efficiencies[model] = sum(eff.values()) / len(eff)
        print(f"\n=== {model} ({spec.soc_name})  wall={wall:.0f}s ===")
        print(f"  perf variation   {perf.performance_variation:6.1%}  (target {target_perf:.0%})")
        print(f"  energy variation {energy.energy_variation:6.1%}  (target {target_energy:.0%})")
        print(f"  fixed-freq perf spread {fixed_perf_rsd:6.2%} (want < ~3%)")
        print(f"  mean perf RSD    {perf.mean_performance_rsd:6.2%}")
        for d in perf.devices:
            it = d.iterations[0]
            print(
                f"    {d.serial:12s} perf={d.performance:7.1f}"
                f" meanfreq={d.mean_freq_mhz:6.0f}"
                f" maxT={it.max_cpu_temp_c:5.1f}C"
                f" throttled={it.time_throttled_s:5.0f}s"
                f" cooldown={it.cooldown_s:5.0f}s"
                f" eff={eff[d.serial]:6.1f} it/kJ"
            )
        for d in energy.devices:
            print(
                f"    {d.serial:12s} E={d.energy_j:7.1f}J"
                f" perf={d.performance:7.1f}"
                f" maxT={d.iterations[0].max_cpu_temp_c:5.1f}C"
            )
    print("\nEfficiency (UNCONSTRAINED iters/kJ):")
    for model, value in efficiencies.items():
        print(f"  {model:14s} {value:7.1f}")


if __name__ == "__main__":
    main()
