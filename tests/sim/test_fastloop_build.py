"""Build-cache behavior of the compiled twin: sanitizer builds land in
separate cache entries (salted hash + filename suffix, never colliding
with the production ``.so``), a corrupt/partial cached artifact triggers
one rebuild instead of a ctypes load error, and unknown
``REPRO_FASTLOOP_SANITIZE`` tokens fail loudly rather than silently
handing back an uninstrumented twin."""

import os
import re
import subprocess
import sys

import numpy as np
import pytest

from repro.sim import _fastloop

requires_cc = pytest.mark.skipif(
    not _fastloop.available(), reason="no C toolchain in this environment")


@pytest.fixture
def fresh_cache(monkeypatch, tmp_path):
    """Point the twin at an empty cache dir and re-probe around the
    test, so nothing here can disturb the session-wide artifact."""
    monkeypatch.setenv(_fastloop.CACHE_ENV_VAR, str(tmp_path))
    monkeypatch.delenv(_fastloop.SANITIZE_ENV_VAR, raising=False)
    _fastloop.reset_probe()
    yield tmp_path
    _fastloop.reset_probe()


def _probe_in_subprocess(cache):
    """Probe the twin in a fresh interpreter.  dlopen caches handles by
    pathname within a process, so corrupt-then-rebuild behavior is only
    observable from a process that has not loaded the artifact yet —
    which is also the real failure scenario (a cold process finding a
    partial artifact a killed build left behind)."""
    env = dict(os.environ, REPRO_FASTLOOP_CACHE=str(cache))
    env.pop(_fastloop.SANITIZE_ENV_VAR, None)
    return subprocess.run(
        [sys.executable, "-c",
         "import sys; from repro.sim import _fastloop; "
         "sys.exit(0 if _fastloop.available() else 1)"],
        env=env, capture_output=True, timeout=180)


#: One cell per path through the fused entry: per-bank chains, the
#: in-C revert to the global queue (a queue slice under one entry per
#: bank), the shared bus with refresh and open rows, closed page, and
#: COSMOS's global queue with its write-occupancy override.
_CELLS = (("COMET", None), ("COMET", 8), ("2D_DDR3", None),
          ("3D_DDR4-closed", None), ("COSMOS", None))


def _run_cells():
    """Every output of the fused entry for each of ``_CELLS``."""
    from repro.sim.engine import controller_for
    from repro.sim.tracegen import cached_trace_arrays
    trace = cached_trace_arrays("mcf", 600, 3)
    results = []
    for arch, queue_depth in _CELLS:
        controller = (controller_for(arch) if queue_depth is None
                      else controller_for(arch, queue_depth=queue_depth))
        spec = controller._twin_spec()
        results.append(_fastloop.run_cell(
            trace.addresses, trace.is_read, trace.arrivals_ns, spec,
            service=True))
    return results


class TestSanitizeTokens:
    def test_parsing_dedupes_sorts_and_normalizes(self, monkeypatch):
        monkeypatch.setenv(_fastloop.SANITIZE_ENV_VAR,
                           " ubsan , UBSAN,, asan")
        assert _fastloop.sanitize_tokens() == ("asan", "ubsan")

    def test_empty_means_production(self, monkeypatch):
        monkeypatch.delenv(_fastloop.SANITIZE_ENV_VAR, raising=False)
        assert _fastloop.sanitize_tokens() == ()
        monkeypatch.setenv(_fastloop.SANITIZE_ENV_VAR, " , ")
        assert _fastloop.sanitize_tokens() == ()

    def test_unknown_token_raises(self, monkeypatch):
        monkeypatch.setenv(_fastloop.SANITIZE_ENV_VAR, "asan,bogus")
        with pytest.raises(ValueError, match="bogus"):
            _fastloop.sanitize_tokens()

    def test_unknown_token_fails_the_probe_loudly(self, monkeypatch,
                                                  tmp_path):
        """A typo'd sanitizer list must not quietly produce an
        uninstrumented twin: the availability probe itself raises."""
        monkeypatch.setenv(_fastloop.CACHE_ENV_VAR, str(tmp_path))
        monkeypatch.setenv(_fastloop.SANITIZE_ENV_VAR, "adsan")
        _fastloop.reset_probe()
        try:
            with pytest.raises(ValueError, match="adsan"):
                _fastloop.available()
        finally:
            _fastloop.reset_probe()

    def test_unknown_token_fails_under_the_kill_switch(self, monkeypatch):
        """The token is parsed before ``REPRO_FASTLOOP=0`` is honored,
        so a typo fails the toolchain-free CI leg too."""
        monkeypatch.setenv(_fastloop.FASTLOOP_ENV_VAR, "0")
        monkeypatch.setenv(_fastloop.SANITIZE_ENV_VAR, "tsna")
        with pytest.raises(ValueError, match="tsna"):
            _fastloop.available()


@requires_cc
class TestBuildCache:
    def test_production_artifact_has_no_sanitizer_suffix(self,
                                                         fresh_cache):
        assert _fastloop.available()
        names = sorted(p.name for p in fresh_cache.glob("*.so"))
        assert len(names) == 1
        assert re.fullmatch(r"fastloop-[0-9a-f]{16}\.so", names[0])

    def test_corrupt_cached_so_triggers_rebuild(self, tmp_path):
        """Garbage where the cached artifact should be (a build killed
        mid-copy) must rebuild in the next process, not surface a
        ctypes load error or a permanent fallback_toolchain."""
        assert _probe_in_subprocess(tmp_path).returncode == 0
        [artifact] = tmp_path.glob("*.so")
        artifact.write_bytes(b"not an ELF file")
        assert _probe_in_subprocess(tmp_path).returncode == 0
        assert artifact.read_bytes()[:4] == b"\x7fELF"

    def test_truncated_so_triggers_rebuild(self, tmp_path):
        """A valid-ELF-prefix truncation (partial copy) also rebuilds."""
        assert _probe_in_subprocess(tmp_path).returncode == 0
        [artifact] = tmp_path.glob("*.so")
        artifact.write_bytes(artifact.read_bytes()[:100])
        assert _probe_in_subprocess(tmp_path).returncode == 0
        assert artifact.stat().st_size > 100

    def test_ubsan_build_is_separate_and_bit_identical(self, fresh_cache,
                                                       monkeypatch):
        """The UBSan twin lands in its own cache entry (distinct digest
        *and* a human-readable suffix) and its fused cell entry returns
        results bit-identical to the production twin on every path:
        every output array, busy time and the other totals."""
        assert _fastloop.available()
        baseline = _run_cells()
        assert any(cell.reverted for cell in baseline)

        monkeypatch.setenv(_fastloop.SANITIZE_ENV_VAR, "ubsan")
        _fastloop.reset_probe()
        if not _fastloop.available():
            pytest.skip("toolchain lacks UBSan support")
        names = sorted(p.name for p in fresh_cache.glob("*.so"))
        assert len(names) == 2
        assert any(n.endswith("-ubsan.so") for n in names)
        prod, sanitized = [n for n in names if "-" not in n[9:]], \
            [n for n in names if n.endswith("-ubsan.so")]
        assert prod and sanitized
        assert prod[0][:25] != sanitized[0][:25]  # digests differ too

        for got, want in zip(_run_cells(), baseline):
            for name in ("latencies", "admitted", "start", "finish"):
                assert np.array_equal(getattr(got, name),
                                      getattr(want, name)), name
            # first admission, busy, last completion, reads, row
            # hits/misses, reverted
            assert got[4:] == want[4:]

    def test_asan_without_preload_degrades_to_unavailable(self,
                                                          fresh_cache,
                                                          monkeypatch):
        """An ASan twin cannot dlopen into plain CPython — the runtime
        hard-exits the calling process from inside dlopen unless it was
        preloaded.  The probe test-loads sanitized artifacts in a
        subprocess first, so here it must degrade to the ordinary
        unavailable -> fallback_toolchain path (and production must
        recover afterwards), not take the interpreter down."""
        monkeypatch.delenv("LD_PRELOAD", raising=False)
        monkeypatch.setenv(_fastloop.SANITIZE_ENV_VAR, "asan")
        _fastloop.reset_probe()
        assert _fastloop.available() is False

        monkeypatch.delenv(_fastloop.SANITIZE_ENV_VAR)
        _fastloop.reset_probe()
        assert _fastloop.available()
