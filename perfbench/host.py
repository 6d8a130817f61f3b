"""Host description, thread pinning and the drift probe.

Every result carries a host block, so figures from different machines or
library builds are never compared by accident.  ``probe`` times a fixed
loop in every repetition, right after the workload: it shows how fast the
host itself was while the run measured.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess
import sys
import time
from typing import Any, Dict, Optional

#: Stamp on every record this benchmark writes.
SCHEMA = "perfbench-v1"

#: Thread pools pinned to one thread in the benchmark's processes and in
#: the program's workers, which inherit the environment.
PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def probe() -> float:
    """Seconds taken by a fixed loop of Python arithmetic and small NumPy
    matrix-vector products, like the program's own hot loops."""
    import numpy as np

    matrix = np.linspace(0.0, 1.0, 49).reshape(7, 7) / 7.0
    vector = np.ones(7)
    started = time.perf_counter()
    total = 0.0
    for i in range(40_000):
        vector = matrix @ vector + 1.0
        total += (i % 7) * 0.5
    elapsed = time.perf_counter() - started
    if not np.isfinite(vector).all() or total <= 0:
        raise RuntimeError("probe arithmetic went wrong")
    return elapsed


def blas_threads() -> Optional[int]:
    """Threads the loaded OpenBLAS will use, if it can be asked."""
    import numpy as np

    folder = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(folder, "libscipy_openblas*")):
        library = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads"):
            getter = getattr(library, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def source_digest(root: str) -> str:
    """SHA-256 over the program's source files, for checkouts without git."""
    digest = hashlib.sha256()
    base = os.path.join(root, "src")
    for folder, dirs, files in sorted(os.walk(base)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, base).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def git_sha(root: str) -> Optional[str]:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def describe(root: str) -> Dict[str, Any]:
    """The host block recorded beside every result."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "schema": SCHEMA,
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "pinned_threads": {k: os.environ.get(k) for k in PINNED_THREADS},
        "load_avg_1m": os.getloadavg()[0],
        "git_sha": git_sha(root),
        "source_sha256": source_digest(root),
        "executable": os.path.basename(sys.executable),
    }

