"""Unit tests for running the passes, the pass signatures, the report
and the verifier."""

import pytest

from repro import compile_program
from repro.__main__ import ALL_KEYS
from repro.comm import (
    OptimizationConfig,
    PassStats,
    PipelineReport,
    optimize_with_report,
    static_comm_count,
)
from repro.comm.passes import run_block, verify_block, verify_plan
from repro.comm.planning import plan_naive
from repro.errors import OptimizationError
from repro.experiments_registry import EXPERIMENT_KEYS, experiment_spec
from repro.ir.nodes import CommCall
from repro.ironman.calls import CallKind
from repro.obs import MemorySink, recording
from tests.conftest import DEMO_SOURCE

#: B is ready after the first statement but only used two statements
#: later, and never written after that use.
HOIST_SOURCE = """
program hoist;
config n : integer = 8;
region R  = [1..n, 1..n];
region In = [1..n, 1..n-1];
direction east = [0, 1];
var A, B, C : [R] double;
procedure main();
begin
  [R] B := index1 + index2;
  [R] C := index1 - index2;
  [In] A := B@east;
end;
"""


class TestConfigFactory:
    """OptimizationConfig.signature() names the passes each key runs.

    The signatures are a job-fingerprint input: a drift here would turn
    every cached result into a miss without any error."""

    EXPECTED = {
        "baseline": (),
        "rr": ("redundancy",),
        "cc": ("redundancy", "combining[max_combining]"),
        "pl": ("redundancy", "combining[max_combining]", "pipelining"),
        "pl_shmem": ("redundancy", "combining[max_combining]", "pipelining"),
        "pl_maxlat": ("redundancy", "combining[max_latency]", "pipelining"),
        "cc_only": ("combining[max_combining]",),
        "pl_only": ("pipelining",),
    }

    def test_every_experiment_key_signature(self):
        assert tuple(self.EXPECTED) == ALL_KEYS
        for key in ALL_KEYS:
            assert experiment_spec(key).opt.signature() == self.EXPECTED[key], key

    def test_interblock_rides_behind_redundancy(self):
        cfg = OptimizationConfig(rr=True, rr_interblock=True)
        assert cfg.signature() == ("redundancy", "interblock")

    def test_has(self):
        signature = OptimizationConfig.full().signature()
        assert "combining[max_combining]" in signature
        assert "interblock" not in signature

    def test_describe(self):
        """The optimize:pipeline span names the passes in order."""
        lowered = compile_program(DEMO_SOURCE, "demo.zl")
        sink = MemorySink()
        with recording(sink):
            optimize_with_report(lowered, OptimizationConfig.baseline())
            optimize_with_report(lowered, OptimizationConfig.full())
        assert [s["attrs"]["signature"] for s in sink.spans("optimize:pipeline")] == [
            "(empty)",
            "redundancy -> combining[max_combining] -> pipelining",
        ]


class TestRunBlock:
    def _block(self):
        lowered = compile_program(DEMO_SOURCE, "demo.zl")
        return next(b for b in lowered.walk_blocks() if plan_naive(b).comms)

    def test_one_span_and_counter_pair_per_pass_in_order(self):
        config = OptimizationConfig(
            rr=True, rr_interblock=True, cc=True, pl=True,
            combine_heuristic="max_latency",
        )
        sink = MemorySink()
        with recording(sink):
            block, planned, stats = run_block(self._block(), config, {}, verify=True)
        names = ["redundancy", "interblock", "combining", "pipelining"]
        assert [s.name for s in stats] == names
        spans = [s for s in sink.spans() if s["name"].startswith("pass:")]
        assert [s["name"] for s in spans] == [f"pass:{n}" for n in names]
        assert [s["attrs"]["signature"] for s in spans] == list(config.signature())
        # each counter's last running total
        totals = {r["name"]: r["value"] for r in sink.of_type("counter")}
        for s in stats:
            assert totals.get(f"opt.pass.{s.name}.removed", 0) == s.removed
            assert totals.get(f"opt.pass.{s.name}.merged", 0) == s.merged
        final = len(block.descriptors())
        assert planned - sum(s.removed + s.merged for s in stats) == final

    def test_interblock_without_an_available_set_does_nothing(self):
        config = OptimizationConfig(rr=True, rr_interblock=True)
        _, _, stats = run_block(self._block(), config)
        assert [s.name for s in stats] == ["redundancy", "interblock"]
        assert stats[1].removed == 0

    def test_available_set_is_updated_to_the_exit_state(self):
        (block,) = compile_program(HOIST_SOURCE, "hoist.zl").walk_blocks()
        config = OptimizationConfig(rr=True, rr_interblock=True)
        avail = {("A", (0, 1), False): None}  # A is written: dropped
        run_block(block, config, avail)
        assert list(avail) == [("B", (0, 1), False)]


class TestReport:
    def test_stats_add_rejects_name_mismatch(self):
        with pytest.raises(OptimizationError, match="merge stats"):
            PassStats("redundancy").add(PassStats("combining"))

    def test_paper_keys_reconcile_on_demo(self):
        lowered = compile_program(DEMO_SOURCE, "demo.zl")
        baseline_count = static_comm_count(
            compile_program(
                DEMO_SOURCE, "demo.zl", opt=OptimizationConfig.baseline()
            )
        )
        for key in EXPERIMENT_KEYS:
            spec = experiment_spec(key)
            program, report = optimize_with_report(
                lowered, spec.opt, verify=True
            )
            assert report.signature == spec.opt.signature()
            assert report.blocks > 0
            assert report.planned == baseline_count
            assert report.final == static_comm_count(program)
            assert report.reconciles(), key

    def test_redundancy_and_combining_both_fire_on_demo(self):
        lowered = compile_program(DEMO_SOURCE, "demo.zl")
        _, report = optimize_with_report(lowered, OptimizationConfig.full())
        by = {s.name: s for s in report.passes}
        assert by["redundancy"].removed > 0
        assert by["combining"].merged > 0
        assert by["combining"].distance_gained <= 0
        assert by["pipelining"].distance_gained >= 0
        assert "inlining" not in by
        assert all(s.wall_s >= 0.0 for s in report.passes)

    def test_pipelining_reports_hoisting_distance(self):
        # B is ready after the first statement but only used two
        # statements later: pipelining hoists DR/SR across the gap and
        # the report shows the span it opened
        lowered = compile_program(HOIST_SOURCE, "hoist.zl")
        _, report = optimize_with_report(
            lowered, OptimizationConfig(rr=True, pl=True)
        )
        (pipelining,) = [s for s in report.passes if s.name == "pipelining"]
        assert pipelining.distance_gained > 0

    def test_report_dict_roundtrip(self):
        lowered = compile_program(DEMO_SOURCE, "demo.zl")
        _, report = optimize_with_report(
            lowered, OptimizationConfig.full_max_latency()
        )
        data = report.as_dict()
        assert PipelineReport.from_dict(data) == report
        # and the dict form is JSON-safe
        import json

        assert json.loads(json.dumps(data)) == data


class TestVerifier:
    def _comm_block(self):
        program = compile_program(
            DEMO_SOURCE, "demo.zl", opt=OptimizationConfig.full()
        )
        for block in program.walk_blocks():
            if block.comm_calls():
                return block
        raise AssertionError("demo program has no communicating block")

    def test_verify_block_accepts_optimized_output(self):
        program = compile_program(
            DEMO_SOURCE, "demo.zl", opt=OptimizationConfig.full()
        )
        for block in program.walk_blocks():
            verify_block(block)

    def test_verify_block_catches_missing_call(self):
        block = self._comm_block()
        dropped = next(
            s
            for s in block.stmts
            if isinstance(s, CommCall) and s.kind is CallKind.SV
        )
        block.stmts.remove(dropped)
        with pytest.raises(OptimizationError, match="missing"):
            verify_block(block)

    def test_verify_block_catches_duplicate_call(self):
        block = self._comm_block()
        dup = next(s for s in block.stmts if isinstance(s, CommCall))
        block.stmts.append(dup)
        with pytest.raises(OptimizationError, match="duplicate"):
            verify_block(block)

    def test_verify_plan_catches_empty_transfer(self):
        lowered = compile_program(DEMO_SOURCE, "demo.zl")
        plan = next(
            p
            for p in (plan_naive(b) for b in lowered.walk_blocks())
            if p.comms
        )
        plan.comms[0].members.clear()
        with pytest.raises(OptimizationError, match="no members"):
            verify_plan(plan)
