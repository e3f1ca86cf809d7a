"""Environment block recorded with every benchmark result.

numpy and scipy each bundle their own OpenBLAS, and at small n the thread
count of those pools decides the cost, so the block names both loaded
builds with the thread count each reports. The benchmark never sets a
thread count itself; it only records what it ran with.
"""

import ctypes
import os
import platform

import numpy as np
import scipy

# Symbol prefixes differ between the 64-bit-integer build numpy ships
# (``scipy_openblas_*64_``) and scipy's own build (``scipy_openblas_*``).
_THREADS_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
_CONFIG_SYMBOLS = (
    "scipy_openblas_get_config64_",
    "scipy_openblas_get_config",
    "openblas_get_config64_",
    "openblas_get_config",
)


def _first_symbol(lib, names):
    for name in names:
        try:
            return getattr(lib, name)
        except AttributeError:
            continue
    return None


def _loaded_openblas_paths():
    with open("/proc/self/maps") as fh:
        fields = (line.split() for line in fh)
        paths = {f[-1] for f in fields if len(f) >= 6 and f[-1].startswith("/")}
    return sorted(p for p in paths if "openblas" in os.path.basename(p).lower())


def blas_builds():
    """One entry per OpenBLAS shared library loaded into this process."""
    builds = []
    for path in _loaded_openblas_paths():
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path), "config": None, "threads": None}
        get_threads = _first_symbol(lib, _THREADS_SYMBOLS)
        if get_threads is not None:
            get_threads.argtypes = []
            get_threads.restype = ctypes.c_int
            entry["threads"] = int(get_threads())
        get_config = _first_symbol(lib, _CONFIG_SYMBOLS)
        if get_config is not None:
            get_config.argtypes = []
            get_config.restype = ctypes.c_char_p
            entry["config"] = get_config().decode(errors="replace").strip()
        builds.append(entry)
    return builds


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment():
    """Versions, BLAS builds and thread counts, `*_NUM_THREADS`, nproc, CPU."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_builds(),
        "num_threads_env": {
            k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")
        },
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }
