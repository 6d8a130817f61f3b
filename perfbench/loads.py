"""The benchmark's workloads, their output checks and result digests.

Each workload calls one public entry point of the program, the way a user
runs it:

``table2-default``
    ``CampaignRunner(...).run_study()`` with only protocol length and
    iteration count set: serial, Euler, in-process, THERMABOX on.
``table2-parallel``
    The same study with the exact ``expm`` solver, automatic batching,
    full traces kept, ``jobs`` = usable CPUs and the automatic backend,
    all in one dispatch.
``crowd-stream``
    ``run_streaming_crowd_study`` on the default single-model population
    with ``jobs`` = usable CPUs, checkpointing after every cohort.

Every operation's output is checked: a unit x experiment run for the
Table II workloads, a user for the crowd.  The digest covers every result
scalar (as exact float hex) and every trace byte, so two runs of the same
code can be shown identical.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence

WORKLOADS = ("table2-default", "table2-parallel", "crowd-stream")

#: Run sizes: long enough that fixed costs do not dominate a repetition,
#: short enough for several fresh-interpreter repetitions per run.
SIZES: Dict[str, Dict[str, Any]] = {
    "table2-default": {"scale": 0.25, "iterations": 1},
    "table2-parallel": {"scale": 0.5, "iterations": 1},
    "crowd-stream": {"users": 1024, "cohort_size": 128},
}

#: Scalar fields of an ``IterationResult``, in digest order.
ITERATION_FIELDS = (
    "iterations_completed",
    "energy_j",
    "mean_power_w",
    "mean_freq_mhz",
    "max_cpu_temp_c",
    "cooldown_s",
    "time_throttled_s",
)

#: Phases every protocol trace must carry, in order.
PHASES = ("warmup", "cooldown", "workload")


def usable_cpus() -> int:
    """CPUs this process may run on (what ``nproc`` reports)."""
    return len(os.sched_getaffinity(0))


@dataclass
class Outcome:
    """What one workload repetition produced and what its checks found."""

    attempted: int
    failed: int
    digest: str
    problems: List[str] = field(default_factory=list)
    facts: Dict[str, Any] = field(default_factory=dict)


def run(name: str, seed: int, workdir: str, size: Optional[Dict[str, Any]] = None):
    """Run one workload; returns the program's own result object."""
    params = dict(SIZES[name], **(size or {}))
    if name == "crowd-stream":
        return run_crowd(seed, workdir, **params)
    return run_table2(name, seed, **params)


def check(name: str, result: Any, workdir: str,
          size: Optional[Dict[str, Any]] = None) -> Outcome:
    """Check one workload's outputs and digest them."""
    params = dict(SIZES[name], **(size or {}))
    if name == "crowd-stream":
        return check_crowd(result, workdir, params["users"])
    return check_table2(result, params["iterations"],
                        keep_traces=name == "table2-parallel")


# -- Table II ---------------------------------------------------------------


def table2_config(name: str, seed: int, scale: float, iterations: int):
    from repro.core.config import AccubenchConfig
    from repro.core.runner import CampaignConfig

    protocol = replace(AccubenchConfig().scaled(scale), iterations=iterations)
    if name == "table2-default":
        return CampaignConfig(accubench=protocol, root_seed=seed)
    protocol = replace(protocol, thermal_solver="expm", keep_traces=True)
    return CampaignConfig(accubench=protocol, root_seed=seed,
                          jobs=usable_cpus())


def run_table2(name: str, seed: int, scale: float, iterations: int,
               models: Optional[Sequence[str]] = None):
    from repro.core.runner import CampaignRunner

    config = table2_config(name, seed, scale, iterations)
    return CampaignRunner(config).run_study(models)


def check_table2(study: Dict[str, Any], iterations: int,
                 keep_traces: bool) -> Outcome:
    """Check every unit x experiment run of a Table II study."""
    from repro.core.paper_targets import TABLE2_TARGETS, in_band

    digest = hashlib.sha256()
    attempted = failed = bands = 0
    problems: List[str] = []
    variations: Dict[str, List[float]] = {}
    for model, experiments in study.items():
        target = TABLE2_TARGETS[model]
        for experiment in experiments:
            digest.update(f"{model}|{experiment.workload}".encode())
            if len(experiment.devices) != target.device_count:
                problems.append(
                    f"{model} {experiment.workload}: "
                    f"{len(experiment.devices)} units, "
                    f"expected {target.device_count}")
                failed += target.device_count - len(experiment.devices)
                attempted += target.device_count - len(experiment.devices)
            for device in experiment.devices:
                attempted += 1
                found = _device_problems(device, iterations, keep_traces)
                _digest_device(digest, device)
                if found:
                    failed += 1
                    problems.extend(found)
        performance, energy = experiments
        pair = [performance.performance_variation, energy.energy_variation]
        if not all(math.isfinite(value) for value in pair):
            problems.append(f"{model}: variation is not finite")
        variations[model] = pair
        bands += in_band(pair[0], target.performance_band)
        bands += in_band(pair[1], target.energy_band)
    missing = set(TABLE2_TARGETS) - set(study)
    if missing:
        problems.append(f"models missing: {sorted(missing)}")
    return Outcome(
        attempted=attempted,
        failed=failed,
        digest=digest.hexdigest(),
        problems=problems,
        facts={"bands_passed": bands, "variations": variations},
    )


def _device_problems(device: Any, iterations: int, keep_traces: bool) -> List[str]:
    label = f"{device.model} {device.serial} {device.workload}"
    if len(device.iterations) != iterations:
        return [f"{label}: {len(device.iterations)} iterations, "
                f"expected {iterations}"]
    problems = []
    for iteration in device.iterations:
        values = [getattr(iteration, name) for name in ITERATION_FIELDS]
        if not all(math.isfinite(value) for value in values):
            problems.append(f"{label}: non-finite result field")
        elif min(values[:4]) <= 0 or min(values[4:]) < 0:
            problems.append(f"{label}: result field out of range")
        if keep_traces:
            problems.extend(_trace_problems(label, iteration.trace))
        elif iteration.trace is not None:
            problems.append(f"{label}: trace kept although not asked for")
    return problems


def _trace_problems(label: str, trace: Any) -> List[str]:
    import numpy as np

    if trace is None or len(trace) == 0:
        return [f"{label}: trace missing"]
    samples = trace.samples()
    if not np.isfinite(samples).all():
        return [f"{label}: trace holds non-finite samples"]
    times = samples[:, 0]
    if (np.diff(times) <= 0).any():
        return [f"{label}: trace times do not increase"]
    phases = trace.phases
    if tuple(span.name for span in phases) != PHASES:
        return [f"{label}: trace phases {[s.name for s in phases]}"]
    end = phases[-1].end_s
    step = float(np.median(np.diff(times))) if len(times) > 1 else 0.0
    if times[-1] < end - 2 * step:
        return [f"{label}: trace ends at {times[-1]:.1f} s, "
                f"before its workload phase ({end:.1f} s)"]
    return []


def _digest_device(digest: Any, device: Any) -> None:
    digest.update(f"{device.serial}|{len(device.iterations)}".encode())
    for iteration in device.iterations:
        for name in ITERATION_FIELDS:
            digest.update(float(getattr(iteration, name)).hex().encode())
        trace = iteration.trace
        if trace is not None:
            digest.update(trace.samples().tobytes())
            for span in trace.phases:
                digest.update(
                    f"{span.name}|{span.start_s.hex()}|{span.end_s.hex()}".encode())


# -- streamed crowd ---------------------------------------------------------


def checkpoint_path(workdir: str) -> str:
    return os.path.join(workdir, "crowd-checkpoint.json")


def crowd_config(seed: int, users: int):
    from repro.core.crowd import CrowdConfig

    default = CrowdConfig()
    return CrowdConfig(
        user_count=users,
        root_seed=seed,
        protocol=replace(default.protocol, thermal_solver="expm"),
    )


def run_crowd(seed: int, workdir: str, users: int, cohort_size: int):
    from repro.core.crowd_stream import run_streaming_crowd_study

    return run_streaming_crowd_study(
        crowd_config(seed, users),
        cohort_size=cohort_size,
        jobs=usable_cpus(),
        checkpoint_path=checkpoint_path(workdir),
        checkpoint_every=1,
    )


def check_crowd(result: Any, workdir: str, users: int) -> Outcome:
    """Every user accounted for, a sane rho, and a checkpoint that parses."""
    from repro.core.crowd_stream import load_checkpoint
    from repro.errors import ReproError

    problems: List[str] = []
    dropped = sum(result.dropped.values())
    missing = users - result.users_simulated
    if result.submission_count + dropped != result.users_simulated:
        problems.append(
            f"submissions {result.submission_count} + dropped {dropped} "
            f"!= users simulated {result.users_simulated}")
    if missing:
        problems.append(f"{missing} users never simulated")
    if not result.complete:
        problems.append("campaign incomplete")
    rho = result.ranking_quality_filtered
    if rho is None or not math.isfinite(rho) or not -1.0 <= rho <= 1.0:
        problems.append(f"filtered rank rho {rho!r} is not a correlation")
    scalars = [result.score_mean, result.score_std, result.energy_mean_j,
               result.ambient_error_mean_c, result.ambient_error_std_c]
    if not all(math.isfinite(value) for value in scalars):
        problems.append("non-finite crowd estimate")
    try:
        document = load_checkpoint(checkpoint_path(workdir), result.fingerprint)
    except (OSError, ValueError, ReproError) as error:
        problems.append(f"checkpoint unreadable: {error}")
    else:
        if document["cohorts_done"] != result.cohorts_total:
            problems.append("checkpoint cursor short of the last cohort")
        if document["estimators"]["users_done"] != result.users_simulated:
            problems.append("checkpoint user count disagrees with the result")
    summary = json.dumps(result.to_dict(), sort_keys=True)
    failed = dropped + max(missing, 0)
    if problems:
        failed = max(failed, 1)
    return Outcome(
        attempted=users,
        failed=failed,
        digest=hashlib.sha256(summary.encode()).hexdigest(),
        problems=problems,
        facts={"rank_rho": rho, "dropped": dropped,
               "submissions": result.submission_count},
    )
