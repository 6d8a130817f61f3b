"""JSON serialization of campaign results.

Campaigns are cheap to rerun but studies accumulate: the CLI and any
longer-lived analysis want results on disk.  Traces are intentionally not
serialized (they are engine-grid time series, megabytes each, and fully
reproducible from the config + seed); everything else round-trips exactly.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.core.results import DeviceResult, ExperimentResult, IterationResult
from repro.errors import AnalysisError

#: Schema version stamped into every document.
SCHEMA_VERSION = 1


def iteration_to_dict(result: IterationResult) -> Dict[str, Any]:
    """One iteration as plain data (trace dropped)."""
    return {
        "model": result.model,
        "serial": result.serial,
        "workload": result.workload,
        "iterations_completed": result.iterations_completed,
        "energy_j": result.energy_j,
        "mean_power_w": result.mean_power_w,
        "mean_freq_mhz": result.mean_freq_mhz,
        "max_cpu_temp_c": result.max_cpu_temp_c,
        "cooldown_s": result.cooldown_s,
        "time_throttled_s": result.time_throttled_s,
    }


def iteration_from_dict(data: Dict[str, Any]) -> IterationResult:
    """Inverse of :func:`iteration_to_dict`."""
    try:
        return IterationResult(
            model=data["model"],
            serial=data["serial"],
            workload=data["workload"],
            iterations_completed=float(data["iterations_completed"]),
            energy_j=float(data["energy_j"]),
            mean_power_w=float(data["mean_power_w"]),
            mean_freq_mhz=float(data["mean_freq_mhz"]),
            max_cpu_temp_c=float(data["max_cpu_temp_c"]),
            cooldown_s=float(data["cooldown_s"]),
            time_throttled_s=float(data["time_throttled_s"]),
        )
    except KeyError as missing:
        raise AnalysisError(f"iteration document missing field {missing}") from None


def device_to_dict(result: DeviceResult) -> Dict[str, Any]:
    """One unit's result as plain data."""
    return {
        "model": result.model,
        "serial": result.serial,
        "workload": result.workload,
        "iterations": [iteration_to_dict(it) for it in result.iterations],
    }


def device_from_dict(data: Dict[str, Any]) -> DeviceResult:
    """Inverse of :func:`device_to_dict`."""
    try:
        return DeviceResult(
            model=data["model"],
            serial=data["serial"],
            workload=data["workload"],
            iterations=tuple(
                iteration_from_dict(it) for it in data["iterations"]
            ),
        )
    except KeyError as missing:
        raise AnalysisError(f"device document missing field {missing}") from None


def experiment_to_dict(result: ExperimentResult) -> Dict[str, Any]:
    """One fleet experiment as plain data, with summary convenience keys.

    Variation metrics need at least two units; single-device documents
    carry ``None`` there rather than failing.
    """
    multi_unit = len(result.devices) >= 2
    return {
        "schema_version": SCHEMA_VERSION,
        "model": result.model,
        "workload": result.workload,
        "devices": [device_to_dict(d) for d in result.devices],
        "summary": {
            "performance_variation": (
                result.performance_variation if multi_unit else None
            ),
            "energy_variation": result.energy_variation if multi_unit else None,
            "best_serial": result.best_serial,
            "worst_serial": result.worst_serial,
        },
    }


def experiment_from_dict(data: Dict[str, Any]) -> ExperimentResult:
    """Inverse of :func:`experiment_to_dict` (summary keys are ignored —
    they are recomputed properties)."""
    version = data.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise AnalysisError(
            f"unsupported schema version {version} (supported: {SCHEMA_VERSION})"
        )
    try:
        return ExperimentResult(
            model=data["model"],
            workload=data["workload"],
            devices=tuple(device_from_dict(d) for d in data["devices"]),
        )
    except KeyError as missing:
        raise AnalysisError(f"experiment document missing field {missing}") from None
