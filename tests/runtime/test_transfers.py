"""Unit tests for transfer plans (message computation)."""

import numpy as np
import pytest

from repro.ir.nodes import CommDescriptor, CommEntry
from repro.lang.regions import Direction, Region
from repro.runtime.grid import ProcessorGrid
from repro.runtime.layout import ProblemLayout
from repro.runtime.transfers import PlanCache, TransferPlan
from tests.runtime.test_plan_oracle import plan_messages


def make_plan(direction, use_region=None, rows=2, cols=2, n=8, arrays=("A",)):
    grid = ProcessorGrid(rows, cols)
    domain = Region("R", (1, 1), (n, n))
    layout = ProblemLayout(grid, {name: domain for name in arrays})
    use = use_region or Region("In", (2, 2), (n - 1, n - 1))
    desc = CommDescriptor(
        direction=direction,
        entries=[CommEntry(array=name, use_region=use) for name in arrays],
    )
    return TransferPlan(desc, layout, grid.nprocs), layout


class TestAxisTransfers:
    def test_east_shift_moves_column_strips(self):
        plan, layout = make_plan(Direction("east", (0, 1)))
        # 2x2 mesh: each left-column rank receives from its right neighbour
        assert plan.message_count == 2
        for msg in plan_messages(plan):
            assert layout.grid.coords(msg.sender)[1] == 1
            assert layout.grid.coords(msg.receiver)[1] == 0

    def test_strip_contents_are_boundary_columns(self):
        plan, _ = make_plan(Direction("east", (0, 1)))
        for msg in plan_messages(plan):
            (copy,) = msg.copies
            lo, hi = copy.box.lows[1], copy.box.highs[1]
            assert lo == hi == 5  # first column of the east block

    def test_bytes_match_strip_sizes(self):
        plan, _ = make_plan(Direction("east", (0, 1)))
        for msg in plan_messages(plan):
            assert msg.nbytes == msg.copies[0].box.size * 8

    def test_boundary_ranks_send_nothing_west(self):
        plan, layout = make_plan(Direction("west", (0, -1)))
        senders = {layout.grid.coords(m.sender)[1] for m in plan_messages(plan)}
        assert senders == {0}


class TestDiagonalTransfers:
    def test_se_shift_involves_three_neighbor_classes(self):
        plan, layout = make_plan(Direction("se", (1, 1)), rows=3, cols=3, n=9)
        # the top-left rank receives an east strip, a south strip, and a
        # corner from the south-east neighbour
        senders = sorted(
            m.sender for m in plan_messages(plan) if m.receiver == 0
        )
        assert senders == [1, 3, 4]

    def test_corner_message_is_single_cell(self):
        plan, layout = make_plan(Direction("se", (1, 1)), rows=3, cols=3, n=9)
        corner = [
            m for m in plan_messages(plan) if m.receiver == 0 and m.sender == 4
        ]
        assert corner[0].copies[0].box.size == 1


class TestCombinedTransfers:
    def test_combined_entries_share_messages(self):
        single, _ = make_plan(Direction("east", (0, 1)), arrays=("A",))
        combined, _ = make_plan(Direction("east", (0, 1)), arrays=("A", "B"))
        assert combined.message_count == single.message_count
        assert combined.nbytes.sum() == 2 * single.nbytes.sum()

    def test_combined_message_carries_both_strips(self):
        plan, _ = make_plan(Direction("east", (0, 1)), arrays=("A", "B"))
        for msg in plan_messages(plan):
            assert sorted(c.array for c in msg.copies) == ["A", "B"]


class TestLocalShifts:
    def test_rank3_local_dim_shift_has_no_messages(self):
        grid = ProcessorGrid(2, 2)
        domain = Region("R", (1, 1, 1), (4, 4, 8))
        layout = ProblemLayout(grid, {"U": domain})
        desc = CommDescriptor(
            direction=Direction("zup", (0, 0, 1)),
            entries=[
                CommEntry(
                    array="U", use_region=Region("In", (1, 1, 1), (4, 4, 7))
                )
            ],
        )
        plan = TransferPlan(desc, layout, 4)
        assert plan.message_count == 0

    def test_single_processor_has_no_messages(self):
        plan, _ = make_plan(Direction("east", (0, 1)), rows=1, cols=1)
        assert plan.message_count == 0


class TestParticipants:
    def test_participants_cover_senders_and_receivers(self):
        plan, _ = make_plan(Direction("east", (0, 1)))
        assert plan.participant_count == 4  # every rank sends or receives

    def test_plan_cache_reuses_plans(self):
        grid = ProcessorGrid(2, 2)
        domain = Region("R", (1, 1), (8, 8))
        layout = ProblemLayout(grid, {"A": domain})
        cache = PlanCache(layout, 4)
        desc = CommDescriptor(
            direction=Direction("east", (0, 1)),
            entries=[CommEntry("A", Region("In", (2, 2), (7, 7)))],
        )
        assert cache.plan(desc) is cache.plan(desc)


class TestPrimVectors:
    def test_cumulative_send_costs(self):
        from repro.ironman.calls import CallKind
        from repro.machine import apply_overrides, pack_variants, t3d
        from repro.runtime.costs import PlanTable, price

        plan, _ = make_plan(Direction("se", (1, 1)), rows=3, cols=3, n=9)
        # a flat 10us send on a 9-rank machine (plan geometry is the mesh)
        machine = apply_overrides(
            t3d(9, "pvm"),
            {"prim.*.fixed": 10e-6, "prim.*.per_byte": 0, "prim.*.per_byte_beyond": 0},
        )
        (costs,) = price(PlanTable([plan]), CallKind.SR, pack_variants([machine]))
        costs = costs.row(0)
        # rank 4 (center) sends 3 messages: cumulative 10, 20, 30us
        cums = sorted(
            costs.cum_sw[i]
            for i in range(plan.message_count)
            if plan.senders[i] == 4
        )
        assert np.allclose(cums, [10e-6, 20e-6, 30e-6])
        assert costs.rank_sw[4] == pytest.approx(30e-6)


class TestCostModelCacheKeys:
    """Plans are shared process-wide across machines by geometry and
    hold no cost state; two machines differing only in cost fields must
    still get their own times."""

    def test_variant_times_differ_through_shared_plans(self):
        """End to end: two simulations in one process, same geometry,
        cost model moved between them — the shared plan cache must not
        leak the first machine's costs into the second's times."""
        from repro import ExecutionMode, OptimizationConfig, compile_program, simulate, t3d
        from repro.machine import apply_overrides
        from tests.conftest import MINI_SOURCE

        program = compile_program(
            MINI_SOURCE, "mini.zl", opt=OptimizationConfig.full()
        )
        base = t3d(4)
        variant = apply_overrides(
            base, {"prim.*.knee_bytes": 8, "prim.*.per_byte_beyond": 1e-5}
        )
        t_base = simulate(program, base, ExecutionMode.TIMING).time
        t_variant = simulate(program, variant, ExecutionMode.TIMING).time
        assert t_variant > t_base
