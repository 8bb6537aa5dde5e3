"""OpenBLAS's thread count, and how many shards of a training batch run at once.

The thread count is read and set through the loaded OpenBLAS library,
found by its exported symbols on the first call that needs it; without
OpenBLAS, ``blas_threads`` is None and ``set_blas_threads`` does nothing.
"""

import functools
import os
from contextlib import contextmanager

_GET = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
        "openblas_get_num_threads")
_SET = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
        "openblas_set_num_threads")


@functools.cache
def _thread_functions():
    """OpenBLAS's get and set thread-count functions, or None unless it exports both."""
    import ctypes  # here, not at import: only a step that shards its batch needs it

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
        get = next((getattr(lib, s) for s in _GET if hasattr(lib, s)), None)
        set_ = next((getattr(lib, s) for s in _SET if hasattr(lib, s)), None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


def blas_threads() -> int | None:
    """Threads OpenBLAS uses now; None if the loaded library cannot both report and set it."""
    functions = _thread_functions()
    return None if functions is None else int(functions[0]())


def set_blas_threads(n: int):
    """Make OpenBLAS use ``n`` threads from now on; nothing where ``blas_threads`` is None."""
    functions = _thread_functions()
    if functions is not None:
        functions[1](n)


def shard_count(batch: int) -> int:
    """How many shards of a ``batch`` to run at once, one per thread.

    That is OpenBLAS's thread count, capped by the usable cores and by
    ``batch``, so 1 when OpenBLAS runs on one thread or its count cannot be
    read and set. A batch of 1 looks nothing up.
    """
    threads = blas_threads() if batch > 1 else None
    return 1 if threads is None else min(threads, len(os.sched_getaffinity(0)), batch)


@contextmanager
def one_thread():
    """OpenBLAS on one thread, for the whole process, inside the block; its count is
    restored on exit."""
    threads = blas_threads()
    set_blas_threads(1)
    try:
        yield
    finally:
        if threads is not None:
            set_blas_threads(threads)
