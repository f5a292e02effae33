"""The one-thread BLAS pin: finds the OpenBLAS pools, sets them to one
thread inside a command and gives each its previous size back; and
pair, which runs a second call on the one extra thread."""

import contextlib
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from mvsc import blas, pipeline
from mvsc.solver import HyperParams

POOLS = blas.openblas_pools()
needs_pools = pytest.mark.skipif(not POOLS, reason="no OpenBLAS mapped into this process")


def sizes():
    return [get() for get, _ in POOLS]


@pytest.fixture
def two_threads():
    """Every pool at two threads for the test, then back to its own size."""
    before = sizes()
    for _, set_ in POOLS:
        set_(2)
    try:
        yield
    finally:
        for (_, set_), size in zip(POOLS, before):
            set_(size)


@needs_pools
def test_pin_sets_one_thread_and_restores(two_threads):
    with blas.single_thread():
        assert sizes() == [1] * len(POOLS)
        with blas.single_thread():  # nesting is harmless
            assert sizes() == [1] * len(POOLS)
        assert sizes() == [1] * len(POOLS)
    assert sizes() == [2] * len(POOLS)


@needs_pools
def test_pin_restores_after_an_exception(two_threads):
    with pytest.raises(RuntimeError, match="boom"):
        with blas.single_thread():
            assert sizes() == [1] * len(POOLS)
            raise RuntimeError("boom")
    assert sizes() == [2] * len(POOLS)


@needs_pools
def test_pin_is_a_no_op_without_pools(two_threads, monkeypatch):
    monkeypatch.setattr(blas, "openblas_pools", lambda: [])
    with blas.single_thread():
        assert sizes() == [2] * len(POOLS)
    assert sizes() == [2] * len(POOLS)


def test_no_memory_map_finds_no_pools(monkeypatch):
    def missing(*args, **kwargs):
        raise FileNotFoundError("/proc/self/maps")

    monkeypatch.setattr(blas, "open", missing, raising=False)
    assert blas.openblas_pools() == []
    with blas.single_thread():
        pass


@needs_pools
def test_commands_run_single_threaded_and_restore(two_threads, tmp_path, monkeypatch):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "n": 24, "clusters": 2, "dims": [5, 6], "subspace_rank": 2,
        "noise_sigma": 0.05, "seed": 3,
    }))
    seen = []
    real_fit = pipeline.fit

    def recording_fit(*args, **kwargs):
        seen.append(sizes())
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(pipeline, "fit", recording_fit)
    config = pipeline.RunConfig(
        params=HyperParams(max_iter=100), out_dir=tmp_path / "out",
        synthetic=spec, restarts=1,
    )
    for command in (pipeline.cmd_run, pipeline.cmd_ablate):
        assert command(config) == 0
        assert sizes() == [2] * len(POOLS)
    assert pipeline.cmd_sweep(config, (0.5,), (1.0,)) == 0
    assert sizes() == [2] * len(POOLS)
    ds = pipeline.resolve_dataset(config)
    pipeline.run_restarts(ds, config.params, 1)
    assert sizes() == [2] * len(POOLS)
    assert len(seen) == 1 + 5 + 1 + 1  # ablate: lrr-bsv fits each of 2 views
    assert all(s == [1] * len(POOLS) for s in seen)


def test_pinned_while_a_pin_is_open():
    # blas.pair uses the extra thread only inside a pin
    assert not blas.pinned()
    with blas.single_thread():
        assert blas.pinned()
        with blas.single_thread():
            assert blas.pinned()
        assert blas.pinned()
    assert not blas.pinned()
    with pytest.raises(RuntimeError, match="boom"):
        with blas.single_thread():
            raise RuntimeError("boom")
    assert not blas.pinned()


def test_pins_opened_from_many_threads_all_close():
    # the open pins are shared by every thread
    def pin_often():
        start.wait()
        for _ in range(50):
            with blas.single_thread():
                assert blas.pinned()

    start = threading.Barrier(4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=pin_often) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not blas.pinned()


# ------------------------------------------- numpy's load, made by import mvsc
SRC = str(Path(__file__).resolve().parents[1] / "src")


def in_fresh_interpreter(code, **env):
    """stdout of code run by a new interpreter that finds mvsc, with no
    OPENBLAS_THREAD_TIMEOUT in its environment but for env's."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, base.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env={**base, **env},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.skipif(blas._cpus() < 2, reason="one CPU in the affinity mask")
def test_idle_blas_workers_sleep_at_once_after_import():
    # an OpenBLAS worker that busy-waits its default 2**28 cycles after
    # numpy loads takes some 0.1 s of a second CPU
    others = in_fresh_interpreter(
        "import resource, time\n"
        "import mvsc\n"
        "time.sleep(0.3)\n"
        "usage = resource.getrusage(resource.RUSAGE_SELF)\n"
        "print(usage.ru_utime + usage.ru_stime - time.thread_time())\n"
    )
    assert float(others) < 0.020


@pytest.mark.parametrize("before, env", [
    ("", {}),
    ("", {"OPENBLAS_THREAD_TIMEOUT": "7"}),
    ("import numpy", {}),
], ids=["unset", "callers-value", "numpy-first"])
def test_import_leaves_the_environment_as_it_found_it(before, env):
    seen = in_fresh_interpreter(
        "import ctypes, json, os\n"
        f"{before}\n"
        "environ = dict(os.environ)\n"
        "import mvsc\n"
        "getenv = ctypes.CDLL(None).getenv\n"
        "getenv.restype, getenv.argtypes = ctypes.c_char_p, [ctypes.c_char_p]\n"
        "value = getenv(b'OPENBLAS_THREAD_TIMEOUT')\n"
        "print(json.dumps([dict(os.environ) == environ, value and value.decode()]))\n",
        **env,
    )
    assert json.loads(seen) == [True, env.get("OPENBLAS_THREAD_TIMEOUT")]


# ------------------------------------------------------------------- pair
def calls_on(log, name):
    """A call that logs its name and thread."""
    return lambda: log.append((name, threading.get_ident()))


@pytest.mark.parametrize("case", ["unpinned", "one-cpu", "busy"])
def test_pair_runs_other_then_own_on_the_caller(case, paired, monkeypatch):
    log, done = [], threading.Event()
    if case == "one-cpu":
        monkeypatch.setattr(blas, "_cpus", lambda: 1)

    def inner():
        blas.pair(calls_on(log, "own"), calls_on(log, "other"))
        done.set()

    with contextlib.nullcontext() if case == "unpinned" else blas.single_thread():
        if case == "busy":
            # the inner pair starts while the outer one's job holds the thread
            blas.pair(inner, lambda: done.wait(timeout=60))
        else:
            inner()
    me = threading.get_ident()
    assert log == [("other", me), ("own", me)]
    assert paired.jobs == (case == "busy")


def test_pair_runs_other_on_the_thread_inside_a_pin(paired):
    log = []
    with blas.single_thread():
        blas.pair(calls_on(log, "own"), calls_on(log, "other"))
    threads = dict(log)
    assert threads["own"] == threading.get_ident() != threads["other"]
    assert paired.jobs == 1


def failing(name, ended, delay=0.0):
    def call():
        time.sleep(delay)
        ended.append(name)
        raise ValueError(name)
    return call


@pytest.mark.parametrize("cpus", [1, 2])
def test_pair_raises_owns_error_over_others_once_both_have_ended(cpus, paired,
                                                                  monkeypatch):
    monkeypatch.setattr(blas, "_cpus", lambda: cpus)
    ended = []
    with blas.single_thread():
        with pytest.raises(ValueError, match="own"):
            blas.pair(failing("own", ended), failing("other", ended, delay=0.2))
        assert sorted(ended) == ["other", "own"]
    assert paired.jobs == (cpus > 1)


@pytest.mark.parametrize("cpus", [1, 2])
def test_pair_raises_others_error_and_frees_the_thread(cpus, paired, monkeypatch):
    monkeypatch.setattr(blas, "_cpus", lambda: cpus)
    ended = []
    with blas.single_thread():
        with pytest.raises(ValueError, match="other"):
            blas.pair(lambda: ended.append("own"), failing("other", ended))
        assert sorted(ended) == ["other", "own"]
        blas.pair(lambda: None, lambda: None)
    assert paired.jobs == (2 if cpus > 1 else 0)


def test_pair_frees_the_thread_when_the_job_cannot_be_submitted(paired):
    submit = paired.submit

    def refuse_once(*args):
        paired.submit = submit
        raise RuntimeError("cannot schedule new futures after shutdown")

    paired.submit = refuse_once
    with blas.single_thread():
        with pytest.raises(RuntimeError, match="shutdown"):
            blas.pair(lambda: None, lambda: None)
        blas.pair(lambda: None, lambda: None)
    assert paired.jobs == 1


def test_pair_runs_other_under_the_callers_errstate(paired):
    seen = []
    with blas.single_thread(), np.errstate(over="raise", under="ignore"):
        blas.pair(lambda: None, lambda: seen.append(np.geterr()))
    assert paired.jobs == 1
    assert seen[0]["over"] == "raise" and seen[0]["under"] == "ignore"
