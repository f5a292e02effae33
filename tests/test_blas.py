"""The one-thread BLAS pin: finds the OpenBLAS pools, sets them to one
thread inside a command and gives each its previous size back."""

import json

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
