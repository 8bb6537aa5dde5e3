"""Machine record and sgemm probe, from the standard library and numpy only.

    python3 perfbench/machine.py    # prints the sgemm rate in GFLOP/s

``record`` runs the probe in a child process, so its matrices do not
count towards the high-water mark of the workload's process.
"""

import ctypes
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

SGEMM_N = 2048


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return {"name": "unknown", "version": "unknown"}
    return {"name": blas.get("name", "unknown"), "version": blas.get("version", "unknown")}


def _openblas(*symbols):
    """The first of ``symbols`` exported by the loaded OpenBLAS, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in symbols:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return fn
    return None


def blas_threads():
    """Threads OpenBLAS uses now, asked of the loaded library; None if it cannot say."""
    fn = _openblas("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads")
    if fn is None:
        return None
    fn.argtypes = []
    fn.restype = ctypes.c_int
    return int(fn())


def set_blas_threads(n):
    """Make OpenBLAS use ``n`` threads from now on; nothing if ``n`` is None or no OpenBLAS."""
    fn = _openblas("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                   "openblas_set_num_threads")
    if n is None or fn is None:
        return
    fn.argtypes = [ctypes.c_int]
    fn.restype = None
    fn(n)


def sgemm_gflops(reps: int = 3) -> float:
    """Median rate of a 2048x2048 float32 matrix product, after one warm-up."""
    rng = np.random.default_rng(0)
    a = rng.random((SGEMM_N, SGEMM_N), dtype=np.float32)
    b = rng.random((SGEMM_N, SGEMM_N), dtype=np.float32)
    out = np.empty_like(a)
    np.matmul(a, b, out=out)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        np.matmul(a, b, out=out)
        times.append(time.perf_counter() - t0)
    return 2.0 * SGEMM_N**3 / statistics.median(times) / 1e9


def record() -> dict:
    return {
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "sgemm_gflops": float(subprocess.run(
            [sys.executable, __file__], capture_output=True, text=True, timeout=120, check=True,
        ).stdout),
    }


if __name__ == "__main__":
    print(sgemm_gflops())
