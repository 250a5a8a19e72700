"""Shared fixtures and suite configuration.

Expensive objects (mode-solver-backed cells, programmers, architecture
facades) are session-scoped: they are immutable for test purposes and the
underlying solvers cache by configuration.

Tests marked ``slow`` (full-size evaluation grids) are skipped by
default so tier-1 stays fast; run them with ``pytest --runslow``.

Every test runs under an environment guard: a test that leaves a
``REPRO_*`` variable or ``CC`` changed fails, because CI legs are
configured through exactly those variables (``REPRO_FASTLOOP=0`` is a
whole leg) and a leaked change silently reconfigures every later test.
Use ``monkeypatch.setenv`` / ``delenv``, which restore on teardown.

A second guard fails any test during which the ``asyncio`` logger
receives an ERROR record.
"""

from __future__ import annotations

import json
import logging
import os

import pytest

from repro.arch import CometArchitecture
from repro.device import CellProgrammer, MultiLevelCell, OpticalGstCell
from repro.materials import get_material
from repro.sim import _fastloop
from repro.sim.stats import pack_frame, unpack_frame


def pytest_addoption(parser):
    parser.addoption(
        "--runslow", action="store_true", default=False,
        help="run tests marked slow (full-size evaluation grids)")


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: full-size grid test, skipped unless --runslow")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip_slow = pytest.mark.skip(reason="slow test: pass --runslow to run")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


def _guarded_environment():
    return {key: value for key, value in os.environ.items()
            if key.startswith("REPRO_") or key == "CC"}


@pytest.fixture(autouse=True)
def environment_guard():
    """Fail any test that leaves ``REPRO_*`` or ``CC`` changed.

    Set up before (and so torn down after) every fixture the test
    requests, ``monkeypatch`` included, so its restores count."""
    before = _guarded_environment()
    yield
    after = _guarded_environment()
    leaked = sorted(key for key in before.keys() | after.keys()
                    if before.get(key) != after.get(key))
    if leaked:
        pytest.fail(f"test left environment variables changed: {leaked}; "
                    f"use monkeypatch.setenv/delenv", pytrace=False)


class _RecordCollector(logging.Handler):
    def __init__(self) -> None:
        super().__init__(level=logging.ERROR)
        self.records = []

    def emit(self, record: logging.LogRecord) -> None:
        self.records.append(record)


@pytest.fixture(autouse=True)
def asyncio_error_guard():
    """Fail any test during which asyncio logs an ERROR record.

    asyncio reports a callback that raised, or a task exception nobody
    retrieved, through its logger, not as a warning, so ``-W error``
    cannot catch it: a connection handler still pending when its event
    loop closes is cancelled and logged this way."""
    collector = _RecordCollector()
    logger = logging.getLogger("asyncio")
    logger.addHandler(collector)
    try:
        yield
    finally:
        logger.removeHandler(collector)
    if collector.records:
        messages = "; ".join(record.getMessage()
                             for record in collector.records)
        pytest.fail(f"asyncio logged {len(collector.records)} ERROR "
                    f"record(s): {messages}", pytrace=False)


@pytest.fixture
def expected_dispatch():
    """``expected(per_bank=, shared_bus=, global_queue=, reverted=,
    device=)`` -> the exact kernel counters those auto-dispatched cells
    leave behind in this process's configuration.

    With the compiled twin every eligible cell is a compiled hit, and
    a reverted per-bank cell counts ``fallback_admission`` plus a
    global-queue hit.  Without it (``REPRO_FASTLOOP=0``, no C
    toolchain) the Python mirror serves every eligible cell, reverted
    ones included, as a ``fallback_toolchain``; a reverted cell still
    counts ``fallback_admission``.  ``device`` counts cells of devices
    with no dispatch class."""
    def expected(per_bank=0, shared_bus=0, global_queue=0, reverted=0,
                 device=0):
        twin = _fastloop.available()
        eligible = per_bank + shared_bus + global_queue + reverted
        return {
            "fast": eligible if twin else 0,
            "fast_per_bank": per_bank if twin else 0,
            "fast_shared_bus": shared_bus if twin else 0,
            "fast_global_queue": global_queue + reverted if twin else 0,
            "fallback_device": device,
            "fallback_admission": reverted,
            "fallback_toolchain": 0 if twin else eligible,
        }
    return expected


@pytest.fixture
def edit_entry():
    """``edit_entry(path, edit)`` rewrites a result-store entry file:
    ``edit`` changes its decoded header in place (the samples are
    ``header["stats"]["latencies_ns"]``), and the file is written back
    as a frame again, so it still decodes."""
    def edit_entry(path, edit):
        entry = unpack_frame(path.read_bytes(), json.loads,
                             lambda header: [header["stats"]])
        edit(entry)
        path.write_bytes(b"".join(pack_frame(entry, json.dumps)))
    return edit_entry


@pytest.fixture(scope="session")
def gst():
    return get_material("GST")


@pytest.fixture(scope="session")
def gst_cell(gst):
    return OpticalGstCell(gst)


@pytest.fixture(scope="session")
def mlc4(gst_cell):
    return MultiLevelCell.for_cell(gst_cell, 4)


@pytest.fixture(scope="session")
def programmer(gst_cell):
    return CellProgrammer(gst_cell)


@pytest.fixture(scope="session")
def comet():
    return CometArchitecture()
