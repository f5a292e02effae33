"""Fixtures shared by the tests of blas.pair's callers."""

import threading
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import pytest

from mvsc import blas


class RecordingWorker:
    """An executor in place of blas.pair's extra thread that counts the
    jobs submitted to it and the most it ever ran at once. It has two
    threads, so two jobs submitted together would overlap."""

    def __init__(self):
        self.jobs = self.running = self.most = 0
        self._lock = threading.Lock()
        self._pool = ThreadPoolExecutor(2)

    def submit(self, job, context, other):
        with self._lock:
            self.jobs += 1
        return self._pool.submit(job, context, partial(self._watch, other))

    def _watch(self, other):
        with self._lock:
            self.running += 1
            self.most = max(self.most, self.running)
        try:
            other()
        finally:
            with self._lock:
                self.running -= 1


@pytest.fixture
def paired(monkeypatch):
    """Two CPUs, and a RecordingWorker as blas.pair's extra thread."""
    spy = RecordingWorker()
    monkeypatch.setattr(blas, "_worker", spy)
    monkeypatch.setattr(blas, "_cpus", lambda: 2)
    yield spy
    spy._pool.shutdown()
