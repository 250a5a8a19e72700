"""SimStats metrics, the device factory, and end-to-end simulator runs."""

import json
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, SimulationError
from repro.sim import ARCHITECTURE_NAMES, MainMemorySimulator, build_device
from repro.sim.engine import EvalTask, evaluate_cell
from repro.sim.stats import (HIST_EDGES_NS, SimStats, geometric_mean,
                             summarize_latencies)


def make_stats(**overrides):
    base = dict(
        device_name="X", workload_name="w", num_requests=10,
        num_reads=7, num_writes=3, total_bytes=1280,
        sim_time_ns=1000.0, busy_time_ns=500.0, active_time_ns=250.0,
        latencies_ns=[100.0] * 10, op_energy_j=1e-9,
        background_power_w=1.0, active_power_w=2.0,
    )
    base.update(overrides)
    return SimStats(**base)


class TestStats:
    def test_bandwidth(self):
        stats = make_stats()
        assert stats.bandwidth_gbps == pytest.approx(1.28)   # B/ns = GB/s

    def test_latency_percentiles(self):
        stats = make_stats(latencies_ns=list(range(1, 101)))
        assert stats.avg_latency_ns == pytest.approx(50.5)
        assert stats.p95_latency_ns == pytest.approx(95.05, rel=0.01)
        assert stats.max_latency_ns == 100.0

    def test_energy_composition(self):
        stats = make_stats()
        expected = (1.0 * 1000e-9) + (2.0 * 250e-9) + 1e-9
        assert stats.total_energy_j == pytest.approx(expected)

    def test_epb(self):
        stats = make_stats()
        assert stats.energy_per_bit_pj == pytest.approx(
            stats.total_energy_j / (1280 * 8) * 1e12)

    def test_bw_per_epb(self):
        stats = make_stats()
        assert stats.bw_per_epb == pytest.approx(
            stats.bandwidth_gbps / stats.energy_per_bit_pj)

    def test_as_row_keys(self):
        row = make_stats().as_row()
        assert {"device", "workload", "bandwidth_gbps", "epb_pj"} <= set(row)

    def test_empty_latencies_row_is_nan_not_crash(self):
        """A cell with no completed requests keeps its table row: latency
        columns come back NaN instead of raising mid-table."""
        stats = make_stats(latencies_ns=[])
        row = stats.as_row()
        assert math.isnan(row["avg_latency_ns"])
        assert math.isnan(row["p95_latency_ns"])
        assert row["bandwidth_gbps"] == pytest.approx(1.28)
        latency = stats.latency_row()
        assert all(math.isnan(latency[key]) for key in
                   ("avg_latency_ns", "p95_latency_ns", "max_latency_ns"))
        # Direct property access still surfaces the inconsistency.
        with pytest.raises(SimulationError):
            stats.avg_latency_ns

    def test_empty_latencies_survive_summarize(self):
        from repro.sim import summarize
        summary = summarize({"X": {"w": make_stats(latencies_ns=[])}})
        assert math.isnan(summary["X"]["avg_latency_ns"])
        assert summary["X"]["bandwidth_gbps"] == pytest.approx(1.28)


@pytest.fixture(scope="module")
def cell_stats():
    return evaluate_cell(EvalTask("COMET", "mcf", 2000, 3))


class TestStatsSerialization:
    def test_round_trip_is_bit_identical(self):
        stats = make_stats(latencies_ns=[1.5, 2.25, 1e-7])
        payload = json.loads(json.dumps(stats.to_dict()))
        assert SimStats.from_dict(payload) == stats

    def test_unknown_keys_ignored(self):
        payload = make_stats().to_dict()
        payload["future_field"] = 42
        assert SimStats.from_dict(payload) == make_stats()

    def test_to_dict_without_latencies(self):
        stats = make_stats()
        payload = stats.to_dict(latencies=False)
        assert payload["latencies_ns"] == []
        restored = SimStats.from_dict(payload)
        assert restored.num_requests == 10
        # The trimmed payload carries a fixed-bin latency summary, so
        # mean/max reload exactly and percentiles interpolate instead
        # of degrading to NaN.
        assert restored.avg_latency_ns == stats.avg_latency_ns
        assert restored.max_latency_ns == stats.max_latency_ns
        assert restored.p95_latency_ns <= restored.max_latency_ns

    def test_no_samples_and_no_summary_is_nan(self):
        payload = make_stats().to_dict(latencies=False)
        payload.pop("latency_summary")      # pre-summary producer
        restored = SimStats.from_dict(payload)
        assert math.isnan(restored.as_row()["avg_latency_ns"])

    def test_evaluate_cell_returns_float64_samples(self, cell_stats):
        samples = cell_stats.latencies_ns
        assert isinstance(samples, np.ndarray)
        assert samples.dtype == np.float64
        assert samples.shape == (cell_stats.num_requests,)

    def test_wire_encoding_matches_a_list_of_floats(self, cell_stats):
        """The JSON (and the pickle) of ``to_dict`` are byte-identical to
        the same dict built from a per-sample list of Python floats."""
        payload = cell_stats.to_dict()
        as_list = dict(payload, latencies_ns=[
            float(v) for v in cell_stats.latencies_ns])
        assert json.dumps(payload) == json.dumps(as_list)
        assert pickle.dumps(payload) == pickle.dumps(as_list)

    def test_json_and_pickle_round_trips_compare_equal(self, cell_stats):
        via_json = SimStats.from_dict(
            json.loads(json.dumps(cell_stats.to_dict())))
        via_pickle = pickle.loads(pickle.dumps(cell_stats))
        assert via_json == cell_stats
        assert via_pickle == cell_stats
        assert via_json.latencies_ns.dtype == np.float64

    def test_one_ulp_in_one_sample_breaks_equality(self, cell_stats):
        samples = cell_stats.latencies_ns.copy()
        middle = len(samples) // 2
        samples[middle] = np.nextafter(samples[middle], np.inf)
        assert replace(cell_stats, latencies_ns=samples) != cell_stats
        assert replace(cell_stats, latencies_ns=samples.copy()) \
            == replace(cell_stats, latencies_ns=samples)

    def test_scalar_field_change_breaks_equality(self, cell_stats):
        assert replace(cell_stats, row_hits=cell_stats.row_hits + 1) \
            != cell_stats

    def test_equality_with_other_types_is_false(self, cell_stats):
        assert (cell_stats == object()) is False
        assert cell_stats != object()
        assert SimStats.__hash__ is None

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 100.0]) == pytest.approx(10.0)
        with pytest.raises(SimulationError):
            geometric_mean([1.0, 0.0])

    def test_invalid_sim_time(self):
        with pytest.raises(SimulationError):
            make_stats(sim_time_ns=0.0)


def reference_summary(samples):
    """The latency summary binned one sample at a time: the bin of each
    sample is the number of edges at or below it."""
    samples = np.asarray(samples, dtype=np.float64)
    counts = np.bincount(np.searchsorted(HIST_EDGES_NS, samples,
                                         side="right"),
                         minlength=len(HIST_EDGES_NS) + 1)
    return {
        "count": int(len(samples)),
        "mean_ns": float(np.mean(samples)),
        "min_ns": float(np.min(samples)),
        "max_ns": float(np.max(samples)),
        "counts": counts.tolist(),
    }


#: Every bin edge and the doubles one ulp either side of it, plus the
#: values no device produces but a summary must still place.
EDGE_CASES = np.concatenate([
    HIST_EDGES_NS, np.nextafter(HIST_EDGES_NS, np.inf),
    np.nextafter(HIST_EDGES_NS, -np.inf),
    [0.0, -0.0, -1.0, -1e300, np.inf, -np.inf, np.nan]]).tolist()


class TestLatencySummary:
    @given(st.lists(st.one_of(st.sampled_from(EDGE_CASES), st.floats()),
                    min_size=1, max_size=300))
    @example([float("nan")])
    @example([1.0])
    @example(EDGE_CASES)
    @settings(max_examples=400, deadline=None)
    def test_matches_per_sample_binning(self, samples):
        with np.errstate(all="ignore"):    # inf - inf in the mean
            got = summarize_latencies(samples)
            want = reference_summary(samples)
        # repr: NaN and -0.0 compare by their bits, not by ==.
        assert repr(got) == repr(want)
        assert all(type(count) is int for count in got["counts"])

    def test_matches_on_a_full_size_cell(self, cell_stats):
        samples = cell_stats.latencies_ns
        assert summarize_latencies(samples) == reference_summary(samples)

    def test_empty_samples_rejected(self):
        with pytest.raises(SimulationError):
            summarize_latencies([])


class TestFactory:
    @pytest.mark.parametrize("name", ARCHITECTURE_NAMES)
    def test_every_architecture_builds(self, name):
        device = build_device(name)
        assert device.name == name
        assert device.line_bytes == 128
        assert device.banks >= 4

    def test_unknown_architecture(self):
        with pytest.raises(ConfigError):
            build_device("HBM3")

    def test_comet_device_shape(self):
        device = build_device("COMET")
        assert device.banks == 32            # 8 channels x 4 banks
        assert device.channels == 8
        assert not device.shared_bus
        assert device.read_occupancy_ns == pytest.approx(10.0)
        assert device.refresh is None        # non-volatile

    def test_cosmos_device_shape(self):
        device = build_device("COSMOS")
        assert device.banks == 64            # 8 channels x 8 banks
        assert device.row_buffer is not None  # subarray buffer
        assert device.write_occupancy_ns == pytest.approx(1600.0)

    def test_dram_has_refresh(self):
        device = build_device("2D_DDR3")
        assert device.refresh is not None
        assert device.refresh.interval_ns == pytest.approx(7800.0)

    def test_photonic_power_higher_than_dram_background(self):
        comet = build_device("COMET")
        ddr3 = build_device("2D_DDR3")
        assert comet.energy.active_power_w > 10 * ddr3.energy.background_power_w


class TestSimulatorRuns:
    def test_workload_run_produces_stats(self):
        simulator = MainMemorySimulator("COMET")
        stats = simulator.run_workload("gcc", num_requests=1500)
        assert stats.num_requests == 1500
        assert stats.bandwidth_gbps > 0.0
        assert stats.avg_latency_ns > 0.0

    def test_requests_sorted_internally(self):
        from repro.sim.request import MemRequest, OpType
        simulator = MainMemorySimulator("EPCM-MM")
        requests = [
            MemRequest(address=256, op=OpType.READ, arrival_ns=50.0),
            MemRequest(address=0, op=OpType.READ, arrival_ns=0.0),
        ]
        stats = simulator.run(requests)
        assert stats.num_requests == 2

    def test_comet_faster_than_cosmos_on_any_workload(self):
        comet = MainMemorySimulator("COMET").run_workload("milc", 2000)
        cosmos = MainMemorySimulator("COSMOS").run_workload("milc", 2000)
        assert comet.bandwidth_gbps > cosmos.bandwidth_gbps
        assert comet.avg_latency_ns < cosmos.avg_latency_ns


class TestArrivalOrderHandling:
    """The simulator sorts only when it must (the tracegen paths always
    emit arrival-ordered streams, so the common case skips the sort)."""

    @staticmethod
    def _trace(arrivals):
        from repro.sim.request import MemRequest, OpType
        return [MemRequest(address=128 * i, op=OpType.READ, arrival_ns=t)
                for i, t in enumerate(arrivals)]

    def test_out_of_order_equals_presorted(self):
        shuffled = [70.0, 10.0, 40.0, 0.0, 90.0, 40.0]
        simulator = MainMemorySimulator("EPCM-MM")
        scrambled = simulator.run(self._trace(shuffled))
        ordered = simulator.run(self._trace(sorted(shuffled)))
        assert np.array_equal(scrambled.latencies_ns, ordered.latencies_ns)
        assert scrambled.sim_time_ns == ordered.sim_time_ns

    def test_sorted_input_not_copied(self, monkeypatch):
        """An already-ordered stream must reach the controller as-is —
        no O(n log n) re-sort, no list copy."""
        simulator = MainMemorySimulator("EPCM-MM")
        requests = self._trace([0.0, 5.0, 5.0, 20.0])
        seen = []
        original = simulator.controller.run

        def spy(reqs, workload_name="trace"):
            seen.append(reqs)
            return original(reqs, workload_name=workload_name)

        monkeypatch.setattr(simulator.controller, "run", spy)
        simulator.run(requests)
        assert seen[0] is requests

    def test_unsorted_input_is_sorted_not_rejected(self):
        """The controller itself rejects unsorted streams; the simulator
        front door repairs them instead."""
        from repro.errors import SimulationError
        simulator = MainMemorySimulator("EPCM-MM")
        trace = self._trace([30.0, 0.0])
        with pytest.raises(SimulationError):
            simulator.controller.run(self._trace([30.0, 0.0]))
        stats = simulator.run(trace)
        assert stats.num_requests == 2
