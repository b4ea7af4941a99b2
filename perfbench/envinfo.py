"""The environment a result was measured in.

Reads files only (no subprocess): the git SHA from ``.git`` when the
checkout has one, the CPU model from ``/proc/cpuinfo``, the last-level
cache from sysfs, and the OpenBLAS thread count through the library numpy
already loaded.
"""

import ctypes
import os
import platform
from pathlib import Path

import numpy as np

import softpu
from softpu import kernels

UNKNOWN = "unknown"


def git_sha(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return UNKNOWN


def _blas_library():
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                path = line.split()[-1]
                if "openblas" in os.path.basename(path).lower():
                    return path
    except OSError:
        pass
    return None


def blas() -> dict:
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = UNKNOWN
    path = _blas_library()
    if path is not None:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads = fn()
                break
    return {"name": info.get("name", UNKNOWN), "version": info.get("version", UNKNOWN),
            "threads": threads}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or UNKNOWN


def llc() -> str:
    """Size of the highest-level cache of CPU 0, as sysfs writes it."""
    best = (0, UNKNOWN)
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if level > best[0]:
            best = (level, f"L{level} {size}")
    return best[1]


def environment(root: Path, working_set_bytes: int) -> dict:
    return {
        "git_sha": git_sha(root),
        "softpu": softpu.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas(),
        "kernels_backend": kernels.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "llc": llc(),
        "working_set_bytes": working_set_bytes,
    }
