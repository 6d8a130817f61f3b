"""Text rendering of the paper's tables and figures.

Benchmarks print these so a run of the harness visually mirrors what the
paper reports: Table I (voltage bins), Table II (variation summary), the
per-SoC normalized bars of Figures 6–9, and the Figure 13 efficiency
series.
"""

from __future__ import annotations

from typing import Mapping, Sequence, Tuple

from repro.core.analysis import normalize
from repro.core.efficiency import EfficiencyPoint
from repro.core.results import ExperimentResult
from repro.silicon.vf_tables import VoltageFrequencyTable


def render_table1(table: VoltageFrequencyTable, title: str = "Nexus 5") -> str:
    """Table I: per-bin voltages at each frequency anchor."""
    header_cells = "".join(f"{int(f):>7d}" for f in table.frequencies_mhz)
    lines = [
        f"Voltage (mV) vs Frequency (MHz) across bins — {title}",
        f"{'bin':<8s}{header_cells}",
    ]
    for bin_index in range(table.bin_count):
        row = table.row_mv(bin_index)
        cells = "".join(f"{int(v):>7d}" for v in row)
        lines.append(f"Bin-{bin_index:<4d}{cells}")
    return "\n".join(lines)


def render_table2(
    rows: Mapping[str, Tuple[str, int, float, float]]
) -> str:
    """Table II: per-model (soc, n_devices, perf_variation, energy_variation)."""
    lines = [
        f"{'Chipset':<8s} {'Model':<14s} {'#Dev':>4s} {'Perf':>7s} {'Energy':>7s}",
    ]
    for model, (soc, count, perf, energy) in rows.items():
        lines.append(
            f"{soc:<8s} {model:<14s} {count:>4d} {perf:>6.0%} {energy:>6.0%}"
        )
    return "\n".join(lines)


def render_normalized_bars(
    values: Mapping[str, float],
    metric: str,
    reference: str = "max",
    width: int = 40,
) -> str:
    """A per-SoC figure (6a/6b style): normalized horizontal bars."""
    serials = list(values)
    normalized = normalize([values[s] for s in serials], reference=reference)
    lines = [f"Normalized {metric} (reference = {reference})"]
    for serial, fraction in zip(serials, normalized):
        bar = "#" * max(1, round(fraction * width))
        lines.append(f"  {serial:<14s} {fraction:6.3f} {bar}")
    return "\n".join(lines)


def render_experiment(result: ExperimentResult, metric: str = "performance") -> str:
    """One fleet experiment as a normalized bar figure."""
    if metric == "performance":
        values = result.performances()
        reference = "max"
    elif metric == "energy":
        values = result.energies_j()
        reference = "min"
    else:
        raise ValueError(f"unknown metric {metric!r}")
    title = f"{result.model} — {result.workload} {metric}"
    return title + "\n" + render_normalized_bars(values, metric, reference=reference)


def render_efficiency(points: Sequence[EfficiencyPoint], width: int = 40) -> str:
    """Figure 13: relative efficiency per SoC generation."""
    if not points:
        return "no efficiency data"
    peak = max(point.mean_iters_per_kj for point in points)
    lines = ["Relative efficiency of smartphone SoCs (iterations/kJ)"]
    for point in points:
        fraction = point.mean_iters_per_kj / peak
        bar = "#" * max(1, round(fraction * width))
        lines.append(
            f"  {point.soc:<8s} {point.mean_iters_per_kj:7.1f} {bar}"
        )
    return "\n".join(lines)
