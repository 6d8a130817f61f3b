#!/usr/bin/env python
"""Live-telemetry smoke test: scrape a streamed crowd run over HTTP.

Launches the real CLI (``repro.cli crowd --serve 0``) as a
subprocess, discovers the ephemeral endpoint from its stderr banner,
then — while the campaign is still folding cohorts — polls ``/status``
and ``/metrics`` like an external monitoring agent would:

* ``/status`` must answer well-formed ``repro-status-v1`` documents and
  ``campaign.users_done`` must advance between two mid-run scrapes,
* ``/metrics`` must parse under the strict reference Prometheus parser
  and carry the headline ``repro_engine_steps`` counter,
* after exit the run's ``repro-manifest-v1`` manifest must round-trip
  and agree with the summary document on the campaign fingerprint.

Exits nonzero on any failure. Tunables: ``--users``, ``--scale``,
``--out`` (artifact directory, default a temp dir).
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import urllib.request

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.obs.export import parse_prometheus_text  # noqa: E402
from repro.obs.manifest import read_manifest  # noqa: E402

BANNER = re.compile(r"serving telemetry at (http://\S+)")
STARTUP_TIMEOUT_S = 60.0
RUN_TIMEOUT_S = 300.0


def fetch(url: str, timeout: float = 5.0) -> str:
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.read().decode()


def fail(message: str) -> "NoReturn":  # noqa: F821 - py3.11 stdlib typing
    print(f"FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def scrape_until_exit(proc, url):
    """Poll the endpoint until the run finishes; return what we saw."""
    progress = []  # distinct users_done values observed mid-run
    metrics_names = set()
    scrapes = 0
    while proc.poll() is None:
        try:
            status = json.loads(fetch(f"{url}/status"))
        except OSError:
            continue  # endpoint winding down as the run finishes
        scrapes += 1
        if status.get("format") != "repro-status-v1":
            fail(f"/status answered {status.get('format')!r}")
        done = status.get("campaign", {}).get("users_done", 0)
        if done and (not progress or done != progress[-1]):
            progress.append(done)
        try:
            parsed = parse_prometheus_text(fetch(f"{url}/metrics"))
        except OSError:
            continue
        metrics_names |= {sample["name"] for sample in parsed["samples"]}
        time.sleep(0.05)
    return progress, metrics_names, scrapes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--users", type=int, default=64)
    parser.add_argument("--scale", type=float, default=0.2)
    parser.add_argument("--cohort-size", type=int, default=8)
    parser.add_argument(
        "--out", default=None,
        help="directory for the summary + manifest artifacts "
        "(default: a temp dir)",
    )
    args = parser.parse_args(argv)

    out_dir = args.out or tempfile.mkdtemp(prefix="telemetry-smoke-")
    os.makedirs(out_dir, exist_ok=True)
    summary_path = os.path.join(out_dir, "smoke-crowd.json")

    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    command = [
        sys.executable, "-m", "repro.cli", "crowd",
        "--users", str(args.users), "--scale", str(args.scale),
        "--seed", "11", "--cohort-size", str(args.cohort_size),
        "--serve", "0", "--json", summary_path,
    ]
    print(f"launching: {' '.join(command)}")
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=env,
    )
    try:
        started = time.monotonic()
        url = None
        for line in proc.stderr:
            match = BANNER.search(line)
            if match:
                url = match.group(1)
                break
            if time.monotonic() - started > STARTUP_TIMEOUT_S:
                break
        if url is None:
            fail("no 'serving telemetry at' banner on stderr")
        print(f"scraping {url}")

        progress, metrics_names, scrapes = scrape_until_exit(proc, url)
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        fail(f"crowd run exited {proc.returncode}\n{stdout}")

    if len(progress) < 2:
        fail(
            f"users_done advanced through {progress} over {scrapes} "
            f"scrapes — need two distinct mid-run values (raise --users "
            f"or --scale so the run outlives the scraper)"
        )
    if "repro_engine_steps" not in metrics_names:
        fail(f"/metrics never carried repro_engine_steps: {metrics_names}")

    with open(summary_path) as fp:
        summary = json.load(fp)
    manifest = read_manifest(summary_path + ".manifest.json")
    if manifest["kind"] != "crowd-stream":
        fail(f"manifest kind {manifest['kind']!r}")
    if manifest["fingerprint"] != summary["fingerprint"]:
        fail("manifest and summary disagree on the campaign fingerprint")

    print(
        f"PASS: {scrapes} scrapes, users_done advanced "
        f"{progress[0]} -> {progress[-1]}, "
        f"{len(metrics_names)} metric series, manifest "
        f"{manifest['fingerprint'][:16]}… round-trips (artifacts in "
        f"{out_dir})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
