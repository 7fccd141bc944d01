"""Unit tests for machine parameter models."""

import numpy as np
import pytest

from repro.errors import MachineError
from repro.ironman.bindings import binding_for
from repro.machine import apply_overrides, pack_variants, t3d
from repro.machine.params import (
    ComputeParams,
    Machine,
    NetworkParams,
    PrimitiveCost,
    ReductionParams,
)
from repro.runtime.instrument import Instrumentation
from repro.runtime.timing import TimingEngine


class TestPrimitiveCost:
    def test_flat_below_knee(self):
        p = PrimitiveCost("p", fixed=10e-6, knee_bytes=4096, per_byte_beyond=1e-9)
        assert p.sw(100) == p.sw(4096) == 10e-6

    def test_linear_beyond_knee(self):
        p = PrimitiveCost("p", fixed=10e-6, knee_bytes=4096, per_byte_beyond=1e-9)
        assert p.sw(4096 + 1000) == pytest.approx(10e-6 + 1000e-9)

    def test_per_byte_applies_everywhere(self):
        p = PrimitiveCost("p", fixed=0.0, per_byte=2e-9)
        assert p.sw(500) == pytest.approx(1e-6)

    def test_combining_neutral_beyond_knee(self):
        """per_byte_beyond ~ fixed/knee makes combining two knee-size
        messages a wash — the paper's 512-double rule."""
        p = PrimitiveCost(
            "p", fixed=12e-6, knee_bytes=4096, per_byte_beyond=12e-6 / 4096
        )
        two = 2 * p.sw(4096)
        one = p.sw(8192)
        assert one == pytest.approx(two, rel=0.01)

    def test_combining_wins_below_knee(self):
        p = PrimitiveCost("p", fixed=12e-6, knee_bytes=4096, per_byte_beyond=3e-9)
        assert p.sw(2048 * 2) < 2 * p.sw(2048)


class TestNetworkParams:
    def test_transfer_time(self):
        net = NetworkParams(latency=10e-6, bandwidth=100e6)
        assert net.transfer_time(1000) == pytest.approx(10e-6 + 1e-5)

    def test_raw_latency_defaults_to_latency(self):
        net = NetworkParams(latency=10e-6, bandwidth=100e6)
        assert net.raw == 10e-6

    def test_raw_wire_uses_raw_latency(self):
        net = NetworkParams(latency=10e-6, bandwidth=100e6, raw_latency=1e-6)
        assert net.transfer_time(0, raw_wire=True) == pytest.approx(1e-6)
        assert net.transfer_time(0, raw_wire=False) == pytest.approx(10e-6)


class TestComputeParams:
    def test_stmt_time_scales_with_work(self):
        """The timing core charges a whole-array statement its loop
        overhead plus flops x elements x flop time; a rank without
        elements pays nothing."""
        comp = {"compute.flop_time": 10e-9, "compute.loop_overhead": 1e-6}
        core = TimingEngine(pack_variants([apply_overrides(t3d(4), comp)]), Instrumentation(4))
        cost = core.array_cost(4, np.array([100, 200, 0, 100]))
        small, large = 1e-6 + 4 * 100 * 10e-9, 1e-6 + 4 * 200 * 10e-9
        assert cost.tolist() == pytest.approx([small, large, 0.0, small])


class TestReductionParams:
    def test_tree_depth(self):
        red = ReductionParams(stage_cost=10e-6)
        assert red.time(64) == pytest.approx(2 * 6 * 10e-6)
        assert red.time(65) == pytest.approx(2 * 7 * 10e-6)

    def test_single_processor(self):
        assert ReductionParams(stage_cost=10e-6).time(1) == 10e-6


class TestMachineValidation:
    def _machine(self, grid, nprocs=4, primitives=None):
        prims = primitives if primitives is not None else {
            "pvm_send": PrimitiveCost("pvm_send", 1e-6),
            "pvm_recv": PrimitiveCost("pvm_recv", 1e-6),
        }
        return Machine(
            name="m",
            clock_mhz=100,
            timer_granularity=1e-7,
            nprocs=nprocs,
            grid_shape=grid,
            library="pvm",
            binding=binding_for("pvm"),
            primitives=prims,
            network=NetworkParams(1e-6, 1e8),
            compute=ComputeParams(1e-8),
            reduction=ReductionParams(1e-5),
        )

    def test_grid_must_tile_processors(self):
        with pytest.raises(MachineError, match="does not tile"):
            self._machine((3, 2), nprocs=4)

    def test_binding_primitives_must_have_costs(self):
        with pytest.raises(MachineError, match="pvm_send"):
            self._machine((2, 2), primitives={})

    def test_noop_primitive_is_free(self):
        m = self._machine((2, 2))
        assert m.primitive("noop").sw(10_000) == 0.0

    def test_unknown_primitive_rejected(self):
        m = self._machine((2, 2))
        with pytest.raises(MachineError):
            m.primitive("csend")

    def test_exposed_overhead_sums_bound_calls(self):
        m = self._machine((2, 2))
        assert m.exposed_overhead(8) == pytest.approx(2e-6)
