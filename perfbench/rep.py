"""One repetition of one workload, in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  Writes one JSON
record to ``--out``:

* ``setup_s``: host seconds from the launch of this interpreter
  (``--launched``, a monotonic timestamp taken by the parent just before
  it started us) to the first task dispatch;
* ``wall_s`` / ``cpu_s``: from the first dispatch to the end of the
  workload, in host seconds and in CPU seconds of this process plus its
  reaped workers;
* ``peak_rss_mb``: the peak resident set of this process;
* ``probe_s``: the drift probe's time, taken in this process right after
  the workload, so it sees the CPU and the moment the workload saw;
* the output checks, the result digest and, with ``--trace 1``, the raw
  per-layer figures and the in-memory spans.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import time


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--size", default=None,
                        help="JSON overrides of the workload size (tests)")
    args = parser.parse_args()

    import host
    import layers
    import loads

    size = json.loads(args.size) if args.size else None
    clock = layers.DispatchClock()
    clock.install()
    tracer = registry = None
    if args.trace:
        from repro.obs.metrics import MetricsRegistry, set_default_registry

        registry = MetricsRegistry(enabled=True)
        set_default_registry(registry)
        tracer = layers.Tracer()
        tracer.install()

    os.makedirs(args.workdir, exist_ok=True)
    try:
        result = loads.run(args.workload, args.seed, args.workdir, size)
        ended = time.monotonic()
        cpu_end = layers.cpu_seconds()
        if clock.started is None:
            raise RuntimeError("the workload never dispatched a task")
        probe_s = host.probe()
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "traced": bool(args.trace),
            "setup_s": clock.started - args.launched,
            "wall_s": ended - clock.started,
            "cpu_s": cpu_end - clock.cpu_at_start,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "probe_s": probe_s,
        }
        outcome = loads.check(args.workload, result, args.workdir, size)
    finally:
        if tracer is not None:
            tracer.uninstall()
        clock.uninstall()
        shutil.rmtree(args.workdir, ignore_errors=True)
    record.update(
        attempted=outcome.attempted,
        failed=outcome.failed,
        digest=outcome.digest,
        problems=outcome.problems[:20],
        facts=outcome.facts,
    )
    if tracer is not None:
        registry.merge_snapshot(tracer.take())
        snapshot = registry.snapshot()
        workers_rss = resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        record["layers"] = layers.layer_metrics(snapshot, workers_rss)
        record["spans"] = snapshot["spans"]
    with open(args.out, "w") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
