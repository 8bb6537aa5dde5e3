"""OpenBLAS's thread count, and the lanes: threads that run a batch's shards at once.

The thread count is read and set through the loaded OpenBLAS library,
found by its exported symbols on the first call that needs it; without
OpenBLAS, ``blas_threads`` is None and ``set_blas_threads`` does nothing.
"""

import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
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


def lane_count(shards: int) -> int:
    """Threads, or lanes, to run ``shards`` shards on at once: the usable cores, capped
    by ``shards``; 1 when OpenBLAS's count cannot be read and set, as each lane must
    hold it at one thread. One shard looks nothing up."""
    if shards <= 1 or blas_threads() is None:
        return 1
    return min(len(os.sched_getaffinity(0)), shards)


_lock = threading.Lock()
_holders, _held_from = 0, None  # threads inside ``one_thread``; the count the first found
_lanes: list[ThreadPoolExecutor] = []  # lane j > 0 is the one thread of _lanes[j - 1]


@contextmanager
def one_thread():
    """OpenBLAS on one thread, for the whole process, inside the block. Callers may
    overlap: the first one in saves the count and sets 1, the last one out restores it."""
    global _holders, _held_from
    with _lock:
        if _holders == 0:
            _held_from = blas_threads()
            set_blas_threads(1)
        _holders += 1
    try:
        yield
    finally:
        with _lock:
            _holders -= 1
            if _holders == 0 and _held_from is not None:
                set_blas_threads(_held_from)


def each_lane(lanes: int, work) -> list:
    """``work(j)`` for each lane j, in lane order: lane 0 on this thread, each other lane
    on a thread of its own, started by the first call that needs it and kept for the
    life of the process. While the lanes run, OpenBLAS runs on one thread, so that
    each lane keeps one core. Every lane ends before this returns or raises; the
    first lane's error, in lane order, is raised."""
    with one_thread():
        with _lock:
            while len(_lanes) < lanes - 1:
                _lanes.append(ThreadPoolExecutor(1, f"fer_forge-lane-{len(_lanes) + 1}"))
            rest = [_lanes[j - 1].submit(work, j) for j in range(1, lanes)]
        try:
            first = work(0)
        finally:
            wait(rest)
    return [first, *(done.result() for done in rest)]


def _after_fork_in_child():
    """A forked child has none of the lanes' threads; ``one_thread``'s state starts anew."""
    global _lock, _holders
    _lock, _holders = threading.Lock(), 0
    _lanes.clear()


os.register_at_fork(after_in_child=_after_fork_in_child)
