"""OpenBLAS's thread count, and the lanes: threads that run a batch's shards at once.

The thread count is read and set through the loaded OpenBLAS library,
found by its exported symbols on the first call that needs it; without
OpenBLAS, ``blas_threads`` is None and ``set_blas_threads`` does nothing.
"""

import functools
import os
import threading

_GET = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
        "openblas_get_num_threads")
_SET = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
        "openblas_set_num_threads")


@functools.cache
def _thread_functions():
    """OpenBLAS's get and set thread-count functions, or None unless it exports both."""
    import ctypes  # here, not at import: only a forward or a training step needs it

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


def single_thread():
    """Set OpenBLAS to one thread, for the whole process and for good, so that each lane
    keeps one core and every product sums in the same order on any host; nothing where
    the count already reads 1 or cannot be read."""
    if blas_threads() not in (1, None):
        set_blas_threads(1)


def lane_count(shards: int) -> int:
    """Threads, or lanes, to run ``shards`` shards on at once: the usable cores, capped
    by ``shards``; 1 when OpenBLAS's count cannot be read and set, as each lane must
    run it at one thread. One shard looks nothing up."""
    if shards <= 1 or blas_threads() is None:
        return 1
    return min(len(os.sched_getaffinity(0)), shards)


def each_lane(lanes: int, work) -> list:
    """``work(j)`` for each lane j, in lane order: lane 0 on this thread, each other lane
    on a thread of its own, ``fer_forge-lane-<j>``, started here. Every lane's thread is
    joined before this returns or raises; the first lane's error, in lane order, is
    raised."""
    out, errors = [None] * lanes, [None] * lanes

    def run(j):
        try:
            out[j] = work(j)
        except BaseException as exc:  # raised on the calling thread, below
            errors[j] = exc

    started = []
    try:
        for j in range(1, lanes):
            thread = threading.Thread(target=run, args=(j,), name=f"fer_forge-lane-{j}")
            thread.start()
            started.append(thread)
        out[0] = work(0)
    finally:
        for thread in started:
            thread.join()
    for error in errors:
        if error is not None:
            raise error
    return out
