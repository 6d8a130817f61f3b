"""Self-describing run manifests: ``repro-manifest-v1``.

Comparable benchmark results need their provenance captured at run time
(Wang et al.'s consistent-CPU-evaluation argument): *which* configuration,
*which* code, *which* seed, on *what* host, spending wall time *where*.
A manifest is a small JSON document written atomically next to every
checkpoint and result file:

* identity — the campaign's config fingerprint (the same SHA-256 the
  streamed crowd engine refuses to resume across) and root seed;
* provenance — host, Python, package versions, best-effort git commit;
* cost — per-phase wall/sim timings harvested from the span registry;
* outcome — the final counter/gauge snapshot and a result summary.

The fingerprint is the contract between a checkpoint and its manifest:
an interrupted campaign and its resumed continuation write manifests
that agree on ``fingerprint`` and ``root_seed`` even though their wall
timings differ (tested in ``tests/core/test_crowd_telemetry.py``).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import subprocess
import tempfile
import time
from functools import lru_cache
from pathlib import Path
from typing import IO, Any, Callable, Dict, Optional, Union

from repro.errors import ObservabilityError
from repro.obs.export import aggregate_spans
from repro.obs.metrics import MetricsRegistry

#: Format marker carried by every manifest document.
MANIFEST_FORMAT = "repro-manifest-v1"

#: Required top-level fields and the types a valid manifest carries.
_SCHEMA: Dict[str, type] = {
    "format": str,
    "kind": str,
    "created_unix": float,
    "fingerprint": str,
    "root_seed": int,
    "host": dict,
    "packages": dict,
    "phase_timings": dict,
    "metrics": dict,
}


def fingerprint_payload(payload: Any) -> str:
    """SHA-256 of a canonical JSON rendering of ``payload``.

    The same construction :mod:`repro.core.crowd_stream` uses for its
    checkpoint fingerprint — dataclasses go through ``asdict`` upstream,
    unknown leaves stringify — so any configuration object gets a stable
    identity.
    """
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


@lru_cache(maxsize=1)
def _git_info() -> Optional[Dict[str, Any]]:
    """Best-effort commit identity of the working tree, cached per process."""
    try:
        here = os.path.dirname(os.path.abspath(__file__))
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=here, capture_output=True, text=True, timeout=5.0,
        )
        if sha.returncode != 0:
            return None
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=here, capture_output=True, text=True, timeout=5.0,
        )
        return {
            "sha": sha.stdout.strip(),
            "dirty": bool(status.stdout.strip()) if status.returncode == 0 else None,
        }
    except (OSError, subprocess.SubprocessError):
        return None


def _host_info() -> Dict[str, Any]:
    return {
        "hostname": platform.node(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }


def _package_versions() -> Dict[str, str]:
    import numpy

    from repro import __version__

    return {"repro": __version__, "numpy": numpy.__version__}


def build_manifest(
    kind: str,
    fingerprint: str,
    root_seed: int,
    registry: Optional[MetricsRegistry] = None,
    status: Optional[Dict[str, Any]] = None,
    result: Optional[Dict[str, Any]] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble a ``repro-manifest-v1`` document.

    Parameters
    ----------
    kind:
        What produced it: ``"fleet"``, ``"crowd-stream"``,
        ``"crowd-stream-checkpoint"``...
    fingerprint / root_seed:
        The campaign identity (see :func:`fingerprint_payload`).
    registry:
        When given and enabled, its aggregated spans become
        ``phase_timings`` and its counters/gauges the ``metrics`` block.
    status:
        A :meth:`~repro.obs.progress.ProgressBus.status` snapshot to
        embed (live-run cursor at write time).
    result:
        The run's final summary dict, when it has one.
    extra:
        Free-form caller fields (checkpoint cursor, output paths...).
    """
    phase_timings: Dict[str, Any] = {}
    metrics: Dict[str, Any] = {"counters": {}, "gauges": {}}
    if registry is not None and registry.enabled:
        snapshot = registry.snapshot()
        metrics = {
            "counters": snapshot["counters"],
            "gauges": snapshot["gauges"],
        }
        phase_timings = {
            name: {
                "count": int(stats["count"]),
                "wall_s": round(stats["wall_s"], 6),
                "sim_s": round(stats["sim_s"], 3),
            }
            for name, stats in aggregate_spans(snapshot).items()
        }
    document: Dict[str, Any] = {
        "format": MANIFEST_FORMAT,
        "kind": kind,
        "created_unix": float(time.time()),
        "fingerprint": fingerprint,
        "root_seed": int(root_seed),
        "host": _host_info(),
        "packages": _package_versions(),
        "git": _git_info(),
        "phase_timings": phase_timings,
        "metrics": metrics,
    }
    if status is not None:
        document["status"] = dict(status)
    if result is not None:
        document["result"] = dict(result)
    if extra:
        document["extra"] = dict(extra)
    validate_manifest(document)
    return document


def validate_manifest(document: Dict[str, Any]) -> Dict[str, Any]:
    """Schema-check a manifest; returns it for chaining.

    Raises :class:`ObservabilityError` naming the first offending field —
    the round-trip contract ``repro-bench watch <manifest>`` and the CI
    smoke job rely on.
    """
    if not isinstance(document, dict):
        raise ObservabilityError("manifest must be a JSON object")
    if document.get("format") != MANIFEST_FORMAT:
        raise ObservabilityError(
            f"not a manifest (format {document.get('format')!r}, "
            f"expected {MANIFEST_FORMAT!r})"
        )
    for field, expected in _SCHEMA.items():
        if field not in document:
            raise ObservabilityError(f"manifest missing required field {field!r}")
        value = document[field]
        if expected is float and isinstance(value, int):
            value = float(value)
        if not isinstance(value, expected):
            raise ObservabilityError(
                f"manifest field {field!r} must be {expected.__name__}, "
                f"got {type(value).__name__}"
            )
    git = document.get("git")
    if git is not None and not isinstance(git, dict):
        raise ObservabilityError("manifest field 'git' must be object or null")
    if len(document["fingerprint"]) != 64:
        raise ObservabilityError("manifest fingerprint must be a SHA-256 hex digest")
    return document


def manifest_path_for(path: Union[str, Path]) -> Path:
    """Where the manifest for a checkpoint/result file lives: beside it."""
    return Path(f"{path}.manifest.json")


def write_atomic(path: Union[str, Path], dump: Callable[[IO[str]], None]) -> None:
    """Write a file all or nothing: ``dump`` fills a temp file, then rename.

    The temp file is private to this call (``mkstemp`` beside the target,
    so concurrent writers never share one and a stale ``{path}.tmp`` is
    left alone), synced before the rename, and removed if ``dump`` or the
    write fails.  Readers see the previous file or the new one, never a
    torn one.  The file is created with ``mkstemp``'s mode, 0600.
    """
    path = os.fspath(path)
    fd, tmp = tempfile.mkstemp(
        dir=os.path.dirname(os.path.abspath(path)),
        prefix=f"{os.path.basename(path)}.",
        suffix=".tmp",
    )
    try:
        with os.fdopen(fd, "w") as fp:
            dump(fp)
            fp.flush()
            os.fsync(fp.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def write_manifest(
    document: Dict[str, Any], path: Union[str, Path]
) -> Path:
    """Atomically write a validated manifest (see :func:`write_atomic`)."""
    validate_manifest(document)
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)

    def dump(fp: IO[str]) -> None:
        json.dump(document, fp, indent=2, sort_keys=True)
        fp.write("\n")

    write_atomic(target, dump)
    return target


def read_manifest(path: Union[str, Path]) -> Dict[str, Any]:
    """Load and validate a manifest written by :func:`write_manifest`."""
    source = Path(path)
    try:
        with source.open() as fp:
            document = json.load(fp)
    except (OSError, json.JSONDecodeError) as error:
        raise ObservabilityError(f"{source}: unreadable manifest ({error})")
    return validate_manifest(document)


def format_manifest(document: Dict[str, Any]) -> str:
    """Human-readable rendering, for ``repro-bench watch <manifest>``."""
    validate_manifest(document)
    created = time.strftime(
        "%Y-%m-%d %H:%M:%S", time.localtime(document["created_unix"])
    )
    git = document.get("git")
    git_label = "unknown"
    if git and git.get("sha"):
        git_label = git["sha"][:12] + (" (dirty)" if git.get("dirty") else "")
    lines = [
        f"{document['kind']} run manifest ({MANIFEST_FORMAT})",
        f"  created      {created}",
        f"  fingerprint  {document['fingerprint'][:16]}…",
        f"  root seed    {document['root_seed']}",
        f"  host         {document['host'].get('hostname')} "
        f"({document['host'].get('platform')}, "
        f"python {document['host'].get('python')})",
        f"  packages     "
        + ", ".join(f"{k} {v}" for k, v in sorted(document["packages"].items())),
        f"  git          {git_label}",
    ]
    timings = document["phase_timings"]
    if timings:
        lines.append("  phase timings")
        width = max(len(name) for name in timings)
        for name, stats in timings.items():
            sim = stats.get("sim_s") or 0.0
            lines.append(
                f"    {name:<{width}s}  n={stats['count']:<5d} "
                f"wall {stats['wall_s']:.3f} s  sim {sim:.1f} s"
            )
    counters = document["metrics"].get("counters", {})
    if counters:
        lines.append("  final counters")
        width = max(len(name) for name in counters)
        for name, value in sorted(counters.items()):
            lines.append(f"    {name:<{width}s}  {value:,.10g}")
    status = document.get("status")
    if status:
        tasks = status.get("tasks", {})
        lines.append(
            f"  status       {status.get('state')} "
            f"({tasks.get('completed')}/{tasks.get('total')} tasks)"
        )
    extra = document.get("extra")
    if extra:
        lines.append(
            "  extra        "
            + ", ".join(f"{k}={v}" for k, v in sorted(extra.items()))
        )
    return "\n".join(lines) + "\n"
