"""Yardsticks for the speed of the shared box, and the CLI environment.

The box these numbers come from changes speed by up to 1.6x within seconds
to minutes. The benchmark takes a yardstick's slowness (its time over its
reference time, 1.0 at the reference speed) next to every request and
divides the request's time by it (see README.md). No yardstick runs
ordloc code, so no change to ordloc can move one. Changing a yardstick, or
its reference time, changes every scaled timing: keep them fixed.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KERNEL_REF_S = 0.006       # kernel_time() at the reference speed
NUMPY_START_REF_S = 0.150  # numpy_start() at the reference speed


def cli_env() -> dict:
    """The environment of a CLI subprocess: the package comes from src/."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def kernel_time() -> float:
    """Seconds taken by a fixed kernel: the yardstick for in-process work.

    It mixes what ordloc spends its time on: short bitmask rows with bit
    tests, ORs and dict updates, then wide 2048-bit rows over a working set
    of about half a megabyte. A plain counting loop follows the box's speed
    changes less well.
    """
    t0 = time.perf_counter()
    m = 256
    full = (1 << m) - 1
    rows = [((i + 1) * 0x9E3779B97F4A7C15) ** 4 & full for i in range(m)]
    seen = {}
    for u in range(m):
        acc = 0
        r = rows[u]
        for v in range(0, m, 4):
            if r >> v & 1:
                acc |= rows[v]
        seen[u, acc & 0xFFFF] = bin(acc).count("1")
    m = 2048
    full = (1 << m) - 1
    wide = [((i + 1) * 0x9E3779B97F4A7C15) ** 30 & full for i in range(m)]
    acc = 0
    for u in range(0, m, 2):
        acc ^= wide[(u * 7919) % m] | (wide[u] >> (u % 61))
    if len(seen) != 256 or not acc:
        raise RuntimeError("speed kernel lost its rows")
    return time.perf_counter() - t0


def interpreter_start() -> float:
    """Seconds to start and stop a bare interpreter."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=cli_env(), cwd=ROOT,
                   check=True, timeout=60)
    return time.perf_counter() - t0


def slowness() -> float:
    """The kernel's slowness: the yardstick for work inside one process."""
    return kernel_time() / KERNEL_REF_S


def numpy_start() -> float:
    """Seconds to start an interpreter, import numpy and stop."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=cli_env(), cwd=ROOT,
                   check=True, timeout=60)
    return time.perf_counter() - t0


def process_slowness() -> float:
    """The slowness of a fresh interpreter that imports numpy.

    The yardstick for work in fresh processes (cli-session requests and
    set-up samples). Their time goes mostly to starting the interpreter and
    loading extension modules. On a shared 2-core host that speed drifted
    apart from the kernel's: within minutes CLI requests sped up by a fifth
    while the kernel and a bare `python -c pass` stayed level, and only the
    numpy import followed them (see README.md).
    """
    return numpy_start() / NUMPY_START_REF_S
