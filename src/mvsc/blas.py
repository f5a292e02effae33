"""One BLAS thread for the duration of a command.

numpy and scipy each bundle an OpenBLAS with its own thread pool. A
fixed count of one keeps the blocked kernels' summation order, and so
every output byte, independent of the caller's OPENBLAS_NUM_THREADS;
a pool of two changes the bits. Two threads are faster for a large
product (a 1200^3 GEMM takes 59-77 ms on one, 37-42 ms on two), but
the pool's workers spin between calls: with the pool at two, mvsc run
at n = 1200 took 8.1 s of wall time instead of 10.2 s, and 15.5 s of
CPU time instead of 9.4 s (2 vCPUs, medians of 3 runs). The fit's
large products use the second CPU through linalg.matmul instead, which
splits each into two one-thread calls by its shapes alone and runs
them at once only inside the pin (pinned()). A one-thread OpenBLAS
gives concurrent callers the bits it gives one.

The pools are found in the process's memory map when the pin starts;
commands load only numpy's, and the one path that imports scipy pins
again once it has. A pool's size is process-wide: threads of one
process that run commands at once share one setting.
"""

import contextlib
import ctypes
import threading

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


# single_thread() blocks open in the process, counted under the lock
_open_pins = 0
_pin_lock = threading.Lock()


def _count_pin(step):
    global _open_pins
    with _pin_lock:
        _open_pins += step


def pinned():
    """Whether a single_thread() block is open in this process."""
    return _open_pins > 0


@contextlib.contextmanager
def single_thread():
    """Run every OpenBLAS pool on one thread inside the block (or the
    decorated function), then give each pool back its previous size."""
    pools = openblas_pools()
    previous = [get() for get, _ in pools]
    for _, set_ in pools:
        set_(1)
    _count_pin(1)
    try:
        yield
    finally:
        _count_pin(-1)
        for (_, set_), size in zip(pools, previous):
            set_(size)
