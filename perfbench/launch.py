"""Child-process entry points of the mvsc benchmark.

    python launch.py prepare SPEC_JSON OUT_DIR
        generate a planted-subspace dataset, write it as a manifest, and
        print the BLAS/thread environment this interpreter sees, as JSON
    python launch.py cli STAMP_FILE MODE [SPANS_FILE] -- MVSC_ARGS...
        run `mvsc MVSC_ARGS` the way the console script does, writing the
        monotonic time at which the dataset is loaded and normalized to
        STAMP_FILE. MODE is `full` (run the command), `setup` (exit as
        soon as the dataset is ready) or `trace` (run the command under
        the span tracer and write the spans to SPANS_FILE).

mvsc must be importable (the benchmark puts the checkout's src/ on
PYTHONPATH).
"""

import json
import os
import sys
import time


def _stamp_setup(stamp_file, setup_only):
    """Record when pipeline.resolve_dataset's normalize_views returns."""
    import mvsc.pipeline as pipeline

    normalize = pipeline.normalize_views

    def normalize_and_stamp(ds, mode):
        out = normalize(ds, mode)
        with open(stamp_file, "w") as fh:
            fh.write(repr(time.monotonic()))
        if setup_only:
            os._exit(0)
        return out

    pipeline.normalize_views = normalize_and_stamp


def cmd_cli(argv):
    stamp_file, mode = argv[0], argv[1]
    rest = argv[2:]
    spans_file = None
    if mode == "trace":
        spans_file, rest = rest[0], rest[1:]
    if rest[:1] != ["--"] or mode not in ("full", "setup", "trace"):
        raise SystemExit("usage: launch.py cli STAMP_FILE MODE [SPANS_FILE] -- ARGS")
    mvsc_args = rest[1:]
    tracer = None
    if mode == "trace":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    _stamp_setup(stamp_file, setup_only=mode == "setup")
    from mvsc.cli import main

    code = main(mvsc_args)
    if tracer is not None:
        tracer.dump(spans_file)
    return code


# (configuration, thread count) entry points of the 64-bit-integer build
# numpy bundles, the 32-bit one scipy bundles, and a system OpenBLAS
OPENBLAS_QUERIES = (
    ("scipy_openblas_get_config64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_get_config", "scipy_openblas_get_num_threads"),
    ("openblas_get_config", "openblas_get_num_threads"),
)


def _openblas_libs():
    """OpenBLAS builds mapped into this process, with their configuration
    string and thread-pool size as each reports them."""
    import ctypes

    paths = []
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in path.lower() and path not in paths:
                paths.append(path)
    libs = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"file": os.path.basename(path), "dir": os.path.basename(os.path.dirname(path))}
        for config_name, threads_name in OPENBLAS_QUERIES:
            config = getattr(lib, config_name, None)
            threads = getattr(lib, threads_name, None)
            if config is not None and threads is not None:
                config.restype, config.argtypes = ctypes.c_char_p, []
                threads.restype, threads.argtypes = ctypes.c_int, []
                entry.update(config=config().decode(), threads=threads())
                break
        libs.append(entry)
    return libs


def cmd_prepare(argv):
    import platform

    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (maps scipy's own OpenBLAS)
    from mvsc.data import SyntheticSpec, generate_synthetic, write_dataset

    spec = SyntheticSpec(**json.loads(argv[0]))
    write_dataset(generate_synthetic(spec), argv[1])
    record = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_libs(),
        "child_env": {
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MVSC_THREADS")
        },
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    commands = {"cli": cmd_cli, "prepare": cmd_prepare}
    sys.exit(commands[sys.argv[1]](sys.argv[2:]))
