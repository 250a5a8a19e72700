"""Request primitives and the NVMain trace format."""

import io
from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import ReproError, SimulationError, TraceError
from repro.sim import _fastloop
from repro.sim.engine import controller_for
from repro.sim.request import MemRequest, OpType
from repro.sim.trace import (
    TraceReader,
    TraceWriter,
    format_trace_line,
    parse_trace_line,
    roundtrip,
)
from repro.sim.tracegen import TraceArrays


class TestRequest:
    def test_basics(self):
        req = MemRequest(address=0x1000, op=OpType.READ, arrival_ns=5.0)
        assert req.is_read
        assert req.size_bytes == 128

    def test_latency_requires_simulation(self):
        req = MemRequest(address=0, op=OpType.WRITE, arrival_ns=0.0)
        with pytest.raises(SimulationError):
            _ = req.latency_ns
        req.completion_ns = 42.0
        assert req.latency_ns == pytest.approx(42.0)

    def test_validation(self):
        with pytest.raises(SimulationError):
            MemRequest(address=-1, op=OpType.READ, arrival_ns=0.0)
        with pytest.raises(SimulationError):
            MemRequest(address=0, op=OpType.READ, arrival_ns=-1.0)
        with pytest.raises(SimulationError):
            MemRequest(address=0, op=OpType.READ, arrival_ns=0.0, size_bytes=0)

    @pytest.mark.parametrize("address,arrival", [
        (-128, 0.0), (0, -1.0), (0, float("nan")), (0, float("inf")),
        (0, float("-inf")),
    ])
    def test_both_apis_reject_the_same_inputs(self, address, arrival):
        """The column store and the request objects share one set of
        input invariants: non-negative addresses (the compiled twin's
        bank mapping relies on it) and finite, non-negative arrivals (a
        NaN slips past the sortedness check into a NaN latency)."""
        with pytest.raises(SimulationError) as object_error:
            MemRequest(address=address, op=OpType.READ, arrival_ns=arrival)
        with pytest.raises(TraceError) as array_error:
            TraceArrays(name="bad",
                        addresses=np.array([0, address], dtype=np.int64),
                        is_read=np.array([True, True]),
                        arrivals_ns=np.array([0.0, arrival]))
        for error in (object_error.value, array_error.value):
            assert isinstance(error, ReproError)
            assert ("negative address -0x80" in str(error)
                    if address < 0 else "arrival time" in str(error))
        assert "at request 1" in str(array_error.value)

    def test_twin_rejects_a_negative_address_it_is_handed(self):
        """A duck-typed trace that skips the TraceArrays invariants gets
        the same structured error from the compiled twin and from the
        Python mirror, never a bank index outside the twin's tables or
        a silent schedule of the shorter column.  As in the C scan, the
        first failing request wins, and at one index the sortedness
        check comes first."""
        cases = [
            ([0, -128], [True, True], [0.0, 1.0], "negative address -0x80"),
            ([0, 64, 128], [True, False], [0.0, 1.0, 2.0],
             "trace columns must have equal length"),
            ([0, -128, 64], [True] * 3, [0.0, 2.0, 1.0],
             "negative address -0x80"),
            ([0, 64, -128], [True] * 3, [0.0, 2.0, 1.0],
             "requests must be sorted by arrival"),
        ]
        controller = controller_for("COMET")
        spec = controller._twin_spec()
        for addresses, is_read, arrivals, message in cases:
            trace = SimpleNamespace(
                name="bad", addresses=np.array(addresses),
                is_read=np.array(is_read), arrivals_ns=np.array(arrivals),
                total_bytes=128 * len(addresses))
            columns = (trace.addresses, trace.is_read, trace.arrivals_ns)
            runs = [lambda: controller.run_arrays(trace, fast=False),
                    lambda: controller.run_arrays(trace, fast=True),
                    lambda: _fastloop.run_cell_python(*columns, spec)]
            if _fastloop.available():
                runs.append(lambda: _fastloop.run_cell(*columns, spec))
            for run in runs:
                with pytest.raises(SimulationError, match=message):
                    run()

    def test_op_token_parsing(self):
        assert OpType.from_token("R") is OpType.READ
        assert OpType.from_token("write") is OpType.WRITE
        with pytest.raises(SimulationError):
            OpType.from_token("X")


class TestTraceFormat:
    def test_parse_compact_line(self):
        req = parse_trace_line("2000 R 0x1F40 0", cpu_freq_ghz=2.0)
        assert req.address == 0x1F40
        assert req.is_read
        assert req.arrival_ns == pytest.approx(1000.0)

    def test_parse_nvmain_line_with_data(self):
        line = "150 W 0xDEADBEEF " + "AB" * 64 + " 3"
        req = parse_trace_line(line)
        assert req.address == 0xDEADBEEF
        assert not req.is_read
        assert req.thread_id == 3

    def test_malformed_lines_rejected(self):
        for bad in ("", "1 R", "x R 0x10", "1 Q 0x10", "1 R zz", "-5 R 0x10"):
            with pytest.raises(TraceError):
                parse_trace_line(bad)

    def test_format_parse_inverse(self):
        req = MemRequest(address=0xABC000, op=OpType.WRITE, arrival_ns=321.5)
        line = format_trace_line(req, cpu_freq_ghz=2.0)
        back = parse_trace_line(line, cpu_freq_ghz=2.0)
        assert back.address == req.address
        assert back.op == req.op
        assert back.arrival_ns == pytest.approx(req.arrival_ns, abs=0.5)


class TestReaderWriter:
    def test_roundtrip_preserves_stream(self):
        requests = [
            MemRequest(address=128 * i, op=OpType.READ if i % 3 else OpType.WRITE,
                       arrival_ns=float(10 * i))
            for i in range(50)
        ]
        recovered = roundtrip(requests)
        assert len(recovered) == 50
        assert [r.address for r in recovered] == [r.address for r in requests]
        assert [r.op for r in recovered] == [r.op for r in requests]

    def test_reader_skips_comments_and_blanks(self):
        stream = io.StringIO("# header\n\n100 R 0x80 0\n")
        requests = TraceReader(stream).read_all()
        assert len(requests) == 1

    def test_writer_counts(self):
        sink = io.StringIO()
        count = TraceWriter(sink).write([
            MemRequest(address=0, op=OpType.READ, arrival_ns=0.0)])
        assert count == 1
        assert sink.getvalue().strip() == "0 R 0x0 0"

    def test_bad_frequency(self):
        with pytest.raises(TraceError):
            parse_trace_line("1 R 0x0", cpu_freq_ghz=0.0)
