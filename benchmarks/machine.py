"""Machine and input facts recorded with every benchmark result."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
from pathlib import Path

import numpy as np

import nbwalk


def facts(root):
    """Machine, toolchain and source facts recorded with every result."""
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nbwalk": nbwalk.__version__,
        "machine": platform.machine(),
        "cpu": _cpu_model(),
        "l3_cache": _l3_size(),
        "blas": _blas_info(),
        "commit": _commit(root),
        "source_sha256": _source_digest(root),
    }


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _l3_size():
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            if (index / "level").read_text().strip() == "3":
                return (index / "size").read_text().strip()
    except OSError:
        pass
    return None


def _blas_info():
    info = {"threads_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"] = deps.get("name")
        info["version"] = deps.get("version")
    except Exception:  # show_config layout differs across numpy versions
        info["vendor"] = None
    info["threads"] = _openblas_threads()
    return info


def _openblas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit(root):
    """The checked-out commit, or None outside a git work tree."""
    try:
        ref = (root / ".git" / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _source_digest(root):
    h = hashlib.sha256()
    for path in sorted((root / "src" / "nbwalk").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()
