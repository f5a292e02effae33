"""One BLAS thread for the duration of a command, and one extra thread.

numpy and scipy each bundle an OpenBLAS with its own thread pool. A
fixed count of one keeps the blocked kernels' summation order, and so
every output byte, independent of the caller's OPENBLAS_NUM_THREADS; a
pool of two changes the bits, and its idle workers busy-wait before
they sleep. The pools are found in the process's memory map when the
pin starts, a caller's scipy among them; commands import numpy alone
and use only its pool. A pool's size is process-wide: threads of one
process that run commands at once share one setting.

A command uses the second CPU through pair() instead, which runs
linalg.matmul's two parts of a large product and pipeline.in_order's
two lanes. Its one extra thread runs one job at a time, so at most two
threads are busy, and a one-thread OpenBLAS gives concurrent callers
the bits it gives one.

Importing this module, which the package does first, loads numpy. When
numpy is not loaded yet and the caller has not set
OPENBLAS_THREAD_TIMEOUT, the import sets that variable to 4, OpenBLAS's
floor, and deletes it again, so os.environ and child processes see the
caller's environment. OpenBLAS reads it once, when the library loads:
an idle worker then busy-waits 2**4 cycles before it sleeps, instead of
about 2**28 (some 0.1 s of a CPU, spent after every load). It decides
only how long an idle worker waits for work, never how work is split,
so no output bit depends on it.
"""

import contextlib
import contextvars
import ctypes
import os
import sys
import threading


def _load_numpy():
    """Import numpy with OpenBLAS's idle workers set to sleep at once
    (see the module docstring), unless numpy is loaded already or the
    caller set OPENBLAS_THREAD_TIMEOUT; the environment is restored."""
    if "numpy" in sys.modules or "OPENBLAS_THREAD_TIMEOUT" in os.environ:
        return
    os.environ["OPENBLAS_THREAD_TIMEOUT"] = "4"  # log2 of the spin cycles
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_THREAD_TIMEOUT"]


_load_numpy()

# (get, set) thread-count entry points of the 64-bit-integer build numpy
# bundles, the 32-bit one scipy bundles, and a system OpenBLAS
_THREAD_CALLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def openblas_pools():
    """(get, set) thread-count functions of every OpenBLAS mapped into
    this process; empty when there is none or no memory map to read."""
    try:
        with open("/proc/self/maps") as fh:
            paths = dict.fromkeys(
                line.split(maxsplit=5)[5].strip() for line in fh if "openblas" in line.lower()
            )
    except OSError:
        return []
    pools = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for get_name, set_name in _THREAD_CALLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                pools.append((get, set_))
                break
    return pools


# one entry per single_thread() block open in the process (a list's
# append and pop are atomic)
_pins = []


def pinned():
    """Whether a single_thread() block is open in this process."""
    return bool(_pins)


@contextlib.contextmanager
def single_thread():
    """Run every OpenBLAS pool on one thread inside the block (or the
    decorated function), then give each pool back its previous size."""
    pools = openblas_pools()
    previous = [get() for get, _ in pools]
    for _, set_ in pools:
        set_(1)
    _pins.append(None)
    try:
        yield
    finally:
        _pins.pop()
        for (_, set_), size in zip(pools, previous):
            set_(size)


# the extra thread, made on first use, and the lock its job holds; a
# forked child makes both again, since it inherits neither the thread
# nor the release of a lock held at the fork
_worker = None
_busy = threading.Lock()


def _forget_worker():
    global _worker, _busy
    _worker, _busy = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_worker)


def _cpus():
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _job(context, other):
    try:
        context.run(other)
    finally:
        _busy.release()  # before the caller sees the job end


def pair(own, other):
    """Run other() on the extra thread, in a copy of the caller's context
    (so its np.errstate holds there), while the caller runs own(); return
    once both have ended, raising own's error, else other's. Outside a
    single_thread() block, with one CPU, or while the thread runs another
    pair's job, run other() and then own() on the caller instead."""
    global _worker
    if not (pinned() and _cpus() > 1 and _busy.acquire(blocking=False)):
        try:
            other()
        finally:
            own()
        return
    try:
        if _worker is None:
            from concurrent.futures import ThreadPoolExecutor

            _worker = ThreadPoolExecutor(1, thread_name_prefix="mvsc-pair")
        job = _worker.submit(_job, contextvars.copy_context(), other)
    except BaseException:
        _busy.release()
        raise
    try:
        own()
    except BaseException:
        job.exception()  # wait for other(); own's error wins
        raise
    job.result()
