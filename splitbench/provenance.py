"""Machine and source facts recorded in every result file."""

from __future__ import annotations

import hashlib
import os
import platform
import sys

from session import BLAS_THREADS, role_cpus


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cpu_ticks() -> dict:
    """Machine-wide busy and steal ticks from /proc/stat (Linux)."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return {}
    # user nice system idle iowait irq softirq steal ...
    return {"busy": sum(fields[:3]) + sum(fields[5:7]), "steal": fields[7]}


def machine_facts() -> dict:
    """Facts that can change during a run; taken before and after it."""
    return {"loadavg": list(os.getloadavg()), "ticks": _cpu_ticks()}


def _git_commit(root: str) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(root, ".git", name)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == name:
                    return parts[0]
    except OSError:
        pass
    return None


def _source_digest(root: str) -> str:
    """sha256 over the program's source files, for checkouts without .git."""
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _blas() -> dict:
    import numpy as np

    try:
        deps = np.__config__.CONFIG["Build Dependencies"]
        return {k: deps[k] for k in ("blas", "lapack") if k in deps}
    except (AttributeError, KeyError):
        return {}


def _steal_share(before: dict, after: dict) -> float | None:
    if not before or not after:
        return None
    steal = after["steal"] - before["steal"]
    busy = after["busy"] - before["busy"]
    return steal / (steal + busy) if steal + busy else 0.0


def collect(before: dict, seed: int, root: str) -> dict:
    import numpy as np
    import scipy
    import workloads

    after = machine_facts()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_before": before["loadavg"],
        "loadavg_after": after["loadavg"],
        # share of the run's CPU ticks the hypervisor gave to other guests
        "steal_share": _steal_share(before["ticks"], after["ticks"]),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_threads_per_role": {"device": BLAS_THREADS, "server": BLAS_THREADS},
        "role_cpus": role_cpus(),
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root),
        "seeds": {"task": seed, "heldout_task": workloads.HELDOUT_SEED,
                  "backbone": workloads.BACKBONE_SEED, "side": workloads.SIDE_SEED},
    }
