"""Batched fleet engine throughput: lock-step vectorization vs serial.

Measures the tentpole claim of the batched engine: advancing N same-model
units as one ``(N, nodes)`` matrix through a shared propagator must beat
N independent per-unit worlds by a wide margin, *without* changing the
physics.  Two benches:

* end-to-end ``run_fleet`` on a 32-unit synthetic Nexus 5 fleet,
  interleaved A/B (``batch=True`` vs ``batch=False``), best-of per arm;
  unit-steps per second come from the ``engine.steps`` counter over the
  measured wall time, so both arms are scored on the same work unit.
  The speedup floor is asserted unless ``REPRO_BENCH_SKIP_RATE_ASSERT``
  is set; per-unit agreement against :data:`~repro.check.BATCH_SPEC`
  gates unconditionally — a fast engine that drifts is a bug, not a win.
* batch-size scaling at N ∈ {1, 3, 4, 5, 8, 10, 32, 128}: batched vs
  serial rate at each fleet size, recorded (never asserted) to document
  where the vectorization pays for its per-step fixed cost.  The small
  sizes are the Table II fleets (3-5 units per workload, 8-10 per merged
  study cohort); the same small sizes are also swept on an RBCPR part
  (:data:`RBCPR_MODEL`), whose per-step voltage adjust recomputes the
  voltage-dependent half of the batched governor block every step.
  Each arm's rate is the median of :data:`SCALING_REPEATS` interleaved
  runs, recorded with its interquartile range (as a percentage of the
  median) so a small-N reading comes with its spread.
* mixed-fleet scaling at N ∈ {8, 32, 128} over two interleaved models:
  the cohort facade advances per-model blocks sequentially, so its
  speedup is bounded by the largest cohort — recorded per size (best of
  :data:`MIXED_REPEATS`), with a lower env-gated floor (≥3x at N=32)
  than the homogeneous bench and the same unconditional
  :data:`~repro.check.BATCH_SPEC` parity gate.  Two binned models keep
  every cohort's governor block fully on its replay cache; a longer
  workload than the homogeneous sweep amortizes the per-cohort world
  setup inside the measured wall.

Results land in ``BENCH_batch.json`` at the repository root.
"""

from __future__ import annotations

import os
import statistics
import time

import pytest

from benchmarks.test_perf_campaign import _merge_results
from repro.check.differential import BATCH_SPEC
from repro.core.config import AccubenchConfig
from repro.core.experiments import unconstrained
from repro.core.runner import CampaignConfig, CampaignRunner
from repro.device.fleet import synthetic_fleet
from repro.obs import MetricsRegistry, use_registry

RESULTS_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_batch.json")

MODEL = "Nexus 5"
FLEET_N = 32
MIN_BATCH_SPEEDUP = 5.0
REPEATS = 3
SCALE = 0.3
SCALING_FLEET_SIZES = (1, 3, 4, 5, 8, 10, 32, 128)
RBCPR_MODEL = "LG G5"
RBCPR_SCALING_SIZES = (3, 4, 5, 10)
SCALING_SCALE = 0.15
SCALING_REPEATS = 5
MIXED_REPEATS = 2
MIXED_MODELS = ("Nexus 5", "Nexus 6")
MIXED_FLEET_SIZES = (8, 32, 128)
MIXED_SCALE = 0.4
MIXED_GATE_N = 32
MIN_MIXED_BATCH_SPEEDUP = 3.0


def _config(batch: bool) -> CampaignConfig:
    accubench = AccubenchConfig(
        thermal_solver="expm", iterations=1, batch=batch
    ).scaled(SCALE)
    return CampaignConfig(accubench=accubench, jobs=1)


def _fleet(count: int, model: str = MODEL):
    return synthetic_fleet(
        model, count, thermal_solver="expm", initial_temp_c=26.0
    )


def _mixed_fleet(count: int):
    """``count`` units cycling through :data:`MIXED_MODELS`, interleaved
    (distinct lots keep serials unique across models)."""
    per_model = (count + len(MIXED_MODELS) - 1) // len(MIXED_MODELS)
    pools = [
        synthetic_fleet(
            model,
            per_model,
            lot_name=f"mix-{index}",
            thermal_solver="expm",
            initial_temp_c=26.0,
        )
        for index, model in enumerate(MIXED_MODELS)
    ]
    devices = []
    for row in range(per_model):
        for pool in pools:
            devices.append(pool[row])
    return devices[:count]


def _fleet_rate(
    count: int,
    batch: bool,
    scale: float = SCALE,
    mixed: bool = False,
    model: str = MODEL,
):
    """One fleet campaign; returns (unit-steps/sec, ExperimentResult)."""
    accubench = AccubenchConfig(
        thermal_solver="expm", iterations=1, batch=batch
    ).scaled(scale)
    # Several models never share a batched THERMABOX run (such a fleet
    # takes the serial path), so the mixed sweep runs chamber-free.
    runner = CampaignRunner(
        CampaignConfig(accubench=accubench, use_thermabox=not mixed, jobs=1)
    )
    registry = MetricsRegistry(enabled=True)
    devices = _mixed_fleet(count) if mixed else _fleet(count, model)
    label = "+".join(MIXED_MODELS) if mixed else model
    start = time.perf_counter()
    with use_registry(registry):
        result = runner.run_fleet(label, unconstrained(), devices=devices)
    wall = time.perf_counter() - start
    steps = registry.snapshot()["counters"]["engine.steps"]
    return steps / wall, result


def test_batched_fleet_speedup():
    # Interleaved A/B so host-load drift cancels; best-of per arm.  Both
    # arms retire the same engine.steps (draw-for-draw replay), so the
    # rate ratio is also the wall-clock ratio.
    best = {"serial": 0.0, "batched": 0.0}
    results = {}
    for _ in range(REPEATS):
        for arm, batch in (("serial", False), ("batched", True)):
            rate, result = _fleet_rate(FLEET_N, batch)
            best[arm] = max(best[arm], rate)
            results[arm] = result
    speedup = best["batched"] / best["serial"]
    divergences = BATCH_SPEC.compare_experiment(
        results["serial"], results["batched"]
    )
    _merge_results(
        {
            "batch_fleet_n": FLEET_N,
            "batch_serial_steps_per_sec": round(best["serial"], 1),
            "batch_batched_steps_per_sec": round(best["batched"], 1),
            "batch_speedup": round(speedup, 3),
            "batch_divergent_fields": len(divergences),
        },
        path=RESULTS_PATH,
    )
    print(
        f"\n{FLEET_N}-unit fleet: serial {best['serial']:,.0f} "
        f"unit-steps/s, batched {best['batched']:,.0f} ({speedup:.2f}x)"
    )
    # Physics agreement gates unconditionally, host speed never excuses it.
    assert divergences == [], "\n".join(str(d) for d in divergences)
    if os.environ.get("REPRO_BENCH_SKIP_RATE_ASSERT"):
        pytest.skip("rate floor assertion disabled by environment")
    assert speedup >= MIN_BATCH_SPEEDUP, (
        f"batched engine speedup {speedup:.2f}x below "
        f"{MIN_BATCH_SPEEDUP}x at N={FLEET_N}"
    )


def _median_iqr_pct(values):
    """Median of ``values`` and their interquartile range as a percentage
    of it."""
    median = statistics.median(values)
    lower, _, upper = statistics.quantiles(values, n=4, method="inclusive")
    return median, 100.0 * (upper - lower) / median


def _scaling_sweep(model: str, sizes) -> dict:
    """Median batched vs serial unit-steps/sec per fleet size, with spread."""
    scaling = {}
    for count in sizes:
        rates = {"serial": [], "batched": []}
        for _ in range(SCALING_REPEATS):
            for arm, batch in (("serial", False), ("batched", True)):
                rate, _ = _fleet_rate(
                    count, batch, scale=SCALING_SCALE, model=model
                )
                rates[arm].append(rate)
        serial, serial_iqr = _median_iqr_pct(rates["serial"])
        batched, batched_iqr = _median_iqr_pct(rates["batched"])
        scaling[count] = {
            "serial": round(serial, 1),
            "batched": round(batched, 1),
            "speedup": round(batched / serial, 3),
            "serial_iqr_pct": round(serial_iqr, 1),
            "batched_iqr_pct": round(batched_iqr, 1),
        }
        print(
            f"\n{model} N={count}: serial {serial:,.0f} unit-steps/s "
            f"(IQR {serial_iqr:.1f}%), batched {batched:,.0f} "
            f"(IQR {batched_iqr:.1f}%) ({scaling[count]['speedup']:.2f}x)"
        )
    return scaling


def test_batch_size_scaling():
    # Recorded, never asserted: where does lock-step stepping pay off?
    # The batched arm's per-step fixed cost (mask bookkeeping, cohort
    # checks) is amortized over N rows, so N=1 is expected to lose.
    scaling = _scaling_sweep(MODEL, SCALING_FLEET_SIZES)
    rbcpr = _scaling_sweep(RBCPR_MODEL, RBCPR_SCALING_SIZES)
    record = {
        "batch_cpu_count": len(os.sched_getaffinity(0)),
        "batch_scaling_repeats": SCALING_REPEATS,
        "batch_rbcpr_model": RBCPR_MODEL,
    }
    for prefix, sweep in (("batch_scaling", scaling), ("batch_rbcpr_scaling", rbcpr)):
        for count, entry in sweep.items():
            record[f"{prefix}[{count}]"] = entry["speedup"]
            record[f"{prefix}_serial_iqr_pct[{count}]"] = entry["serial_iqr_pct"]
            record[f"{prefix}_batched_iqr_pct[{count}]"] = entry["batched_iqr_pct"]
    for count, entry in scaling.items():
        record[f"batch_scaling_batched_steps_per_sec[{count}]"] = entry["batched"]
    _merge_results(record, path=RESULTS_PATH)


def test_mixed_fleet_scaling():
    # Heterogeneous fleets run as per-model cohort blocks within one
    # world; the serial arm is the same per-unit loop either way, so the
    # sweep documents what cohort sequencing costs against the
    # homogeneous speedup.  Parity at the gate size is unconditional.
    scaling = {}
    gate_results = {}
    for count in MIXED_FLEET_SIZES:
        best = {"serial": 0.0, "batched": 0.0}
        for _ in range(MIXED_REPEATS):
            for arm, batch in (("serial", False), ("batched", True)):
                rate, result = _fleet_rate(
                    count, batch, scale=MIXED_SCALE, mixed=True
                )
                best[arm] = max(best[arm], rate)
                if count == MIXED_GATE_N:
                    gate_results[arm] = result
        scaling[count] = {
            "serial": round(best["serial"], 1),
            "batched": round(best["batched"], 1),
            "speedup": round(best["batched"] / best["serial"], 3),
        }
        print(
            f"\nmixed N={count}: serial {best['serial']:,.0f} "
            f"unit-steps/s, batched {best['batched']:,.0f} "
            f"({scaling[count]['speedup']:.2f}x)"
        )
    divergences = BATCH_SPEC.compare_experiment(
        gate_results["serial"], gate_results["batched"]
    )
    _merge_results(
        {
            f"batch_mixed_scaling[{count}]": entry["speedup"]
            for count, entry in scaling.items()
        }
        | {
            f"batch_mixed_batched_steps_per_sec[{count}]": entry["batched"]
            for count, entry in scaling.items()
        }
        | {
            "batch_mixed_models": "+".join(MIXED_MODELS),
            "batch_mixed_speedup": scaling[MIXED_GATE_N]["speedup"],
            "batch_mixed_divergent_fields": len(divergences),
        },
        path=RESULTS_PATH,
    )
    assert divergences == [], "\n".join(str(d) for d in divergences)
    if os.environ.get("REPRO_BENCH_SKIP_RATE_ASSERT"):
        pytest.skip("rate floor assertion disabled by environment")
    assert scaling[MIXED_GATE_N]["speedup"] >= MIN_MIXED_BATCH_SPEEDUP, (
        f"mixed-fleet batched speedup {scaling[MIXED_GATE_N]['speedup']:.2f}x "
        f"below {MIN_MIXED_BATCH_SPEEDUP}x at N={MIXED_GATE_N}"
    )
