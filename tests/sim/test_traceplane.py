"""The engine's persistent thread pool: reuse, rebuild and teardown."""

import pytest

from repro.sim import engine
from repro.sim.engine import (clear_device_caches, run_evaluation,
                              shutdown_worker_pool)
from repro.sim.tracegen import cached_trace_arrays


@pytest.fixture(autouse=True)
def clean_pool():
    yield
    shutdown_worker_pool()


class TestPersistentPool:
    def test_clear_device_caches_tears_everything_down(self):
        run_evaluation(architectures=("EPCM-MM",), workloads=("gcc", "mcf"),
                       num_requests=200, workers=2)
        assert engine._THREAD_POOL is not None
        assert cached_trace_arrays.cache_info().currsize > 0
        clear_device_caches()
        assert engine._THREAD_POOL is None
        assert cached_trace_arrays.cache_info().currsize == 0


class TestThreadPool:
    def test_thread_pool_persists_and_rebuilds(self):
        kwargs = dict(architectures=("EPCM-MM",), workloads=("gcc", "mcf"),
                      num_requests=200)
        run_evaluation(workers=2, **kwargs)
        pool = engine._THREAD_POOL
        assert pool is not None and pool[1] == 2
        run_evaluation(workers=2, **kwargs)
        assert engine._THREAD_POOL is pool
        run_evaluation(workers=3, **kwargs)
        assert engine._THREAD_POOL is not pool
        assert engine._THREAD_POOL[1] == 3
