"""Settling: the counters and the per-rank account from op-list executions.

No dispatched op records a counter or an account amount.  A run counts
how many times each of its template's op lists ran, and
:func:`repro.runtime.schedule.settle` derives every counter and the
account from those counts when the run ends, on the compiled path and on
the walk alike.  The cores used to add each executed op's amounts as it
ran; that accumulation is kept below as the oracle
(:class:`AccountingEngine`: the scalar core whose vector ops, which the
walk runs, add their amounts again in execution order).

* The compiled path and the walk settle to the same bits on every
  counter and account vector, extrapolated loops included: the 24 paper
  cells at t3d/64 under each key's library, and generated programs at
  ``niters=6``, where most loops extrapolate, on t3d/4 and paragon/4.
* The settled counters equal the oracle's exactly, and the settled
  compute, comm-sw and wait are within 1e-12 of the clock of the
  oracle's.
* The residual: no wait is negative, compute + comm-sw + wait is the
  clock within 4 ulps, and a rank the oracle saw wait 0.0 waits 0.0.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro import (
    ExecutionMode,
    OptimizationConfig,
    SimOptions,
    machine_by_name,
    optimize,
    paragon,
    simulate,
    t3d,
)
from repro.experiments_registry import EXPERIMENT_KEYS, experiment_spec
from repro.machine.params import SyncKind
from repro.programs import BENCHMARKS, build_benchmark
from repro.programs import generate as gen
from repro.runtime.executor import _Simulation
from repro.runtime.instrument import Instrumentation, settled_mismatches
from repro.runtime.timing import TimingEngine, _per_sender
from tests.runtime.test_arrivals import scatter_counts

#: the account's three per-rank vectors
ACCOUNT = ("compute_time", "comm_sw_time", "wait_time")
#: and the transfer counters
COUNTERS = ("dynamic_comms", "messages", "bytes_moved")


# ---------------------------------------------------------------------------
# the oracle: the per-op accumulation the cores dropped
# ---------------------------------------------------------------------------


def record_calls(inst, primitive, count):
    """``count`` executions of ``primitive`` across all ranks; ``noop``
    and empty calls are not counted."""
    if primitive == "noop" or count == 0:
        return
    inst.call_counts[primitive] = inst.call_counts.get(primitive, 0) + count


class AccountingEngine(TimingEngine):
    """The scalar core, adding each executed op's counts and amounts to
    :attr:`oracle` as the op runs."""

    def __init__(self, matrix, instrument):
        super().__init__(matrix, instrument)
        self.oracle = Instrumentation(self.machine.nprocs)

    def charge_array_vec(self, cost, label=""):
        super().charge_array_vec(cost, label)
        self.oracle.compute_time += cost

    def charge_scalar_cost(self, cost):
        super().charge_scalar_cost(cost)
        self.oracle.compute_time += cost

    def charge_reduction_vec(self, partial, tree_time):
        combined = self.clock + partial
        super().charge_reduction_vec(partial, tree_time)
        self.oracle.compute_time += partial
        self.oracle.wait_time += self.clock - combined
        self.oracle.reductions += 1

    def _do_send(self, desc, plan, costs):
        dr = self._dr_times.get(desc.id)
        if dr is not None and desc.id not in self._inflight:
            senders = plan.senders_unique
            flags = _per_sender(dr, plan, self.machine.network.raw)
            self.oracle.wait_time[senders] += np.maximum(
                0.0, flags - self.clock[senders]
            )
        super()._do_send(desc, plan, costs)
        self.oracle.comm_sw_time += costs.rank_sw
        scatter_counts(self.oracle, plan)
        record_calls(self.oracle, costs.name, costs.calls)

    def _do_complete(self, desc, plan, costs):
        receivers = plan.receivers_unique
        arrivals, clock = self._inflight.get(desc.id), self.clock[receivers]
        super()._do_complete(desc, plan, costs)
        waited = np.maximum(0.0, arrivals - clock)
        self.oracle.wait_time[receivers] += waited
        if costs.sync is SyncKind.RENDEZVOUS:
            surcharge = costs.spread_penalty * np.minimum(waited, costs.spread_cap)
            self.oracle.comm_sw_time[receivers] += costs.fixed + surcharge
        else:
            self.oracle.comm_sw_time[receivers] += costs.rank_sw[receivers]
        record_calls(self.oracle, costs.name, costs.calls)

    def _do_pre(self, desc, plan, costs):
        super()._do_pre(desc, plan, costs)
        if costs.sync is SyncKind.RENDEZVOUS:
            self.oracle.comm_sw_time[plan.receivers_unique] += costs.fixed
        else:
            self.oracle.comm_sw_time += costs.rank_sw
        record_calls(self.oracle, costs.name, costs.calls)

    def _do_volatile(self, desc, plan, costs):
        super()._do_volatile(desc, plan, costs)
        self.oracle.comm_sw_time += costs.rank_sw
        record_calls(self.oracle, costs.name, costs.calls)


def oracle_walk(program, machine):
    """The walk on the accounting core: its settled run and the oracle's
    accumulation."""
    sim = _Simulation(program, machine, ExecutionMode.TIMING)
    sim.timing = AccountingEngine(sim.timing.matrix, sim.instrument)
    return sim.run(), sim.timing.oracle


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def assert_same_account(fast, walk):
    """Every counter and account vector, bit for bit."""
    assert settled_mismatches(fast.instrument, walk.instrument) == []


def assert_matches_oracle(run, oracle):
    inst = run.instrument
    assert inst.counts.dtype == oracle.counts.dtype == np.int64
    for field in COUNTERS:
        assert np.array_equal(getattr(inst, field), getattr(oracle, field)), field
    assert inst.call_counts == oracle.call_counts
    assert inst.reductions == oracle.reductions
    for field in ACCOUNT:
        gap = np.abs(getattr(inst, field) - getattr(oracle, field))
        assert (gap <= 1e-12 * run.clocks).all(), field


def assert_residual(run, oracle):
    inst = run.instrument
    assert (inst.wait_time >= 0.0).all()
    total = inst.compute_time + inst.comm_sw_time + inst.wait_time
    assert (np.abs(total - run.clocks) <= 4 * np.spacing(run.clocks)).all()
    idle = oracle.wait_time == 0.0
    assert (inst.wait_time[idle] == 0.0).all()


def check(program, machine):
    """Compiled run against the oracle walk; the compiled run's stats."""
    fast = simulate(program, machine, options=SimOptions.timing())
    walk, oracle = oracle_walk(program, machine)
    assert fast.clocks.tobytes() == walk.clocks.tobytes()
    assert repr(fast.time) == repr(walk.time)
    assert_same_account(fast, walk)
    assert_matches_oracle(walk, oracle)
    assert_residual(walk, oracle)
    return fast.fastpath


# ---------------------------------------------------------------------------
# the corpus
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("key", EXPERIMENT_KEYS)
@pytest.mark.parametrize("bench", BENCHMARKS)
def test_paper_cell_settles_like_the_oracle(bench, key):
    spec = experiment_spec(key)
    program = build_benchmark(bench, opt=spec.opt)
    check(program, machine_by_name("t3d", 64, spec.library))


#: six trips per loop: most generated loops extrapolate
EXTRAPOLATING = replace(gen.DEFAULT_PROFILE, niters=6)


@pytest.mark.parametrize("seed", range(8))
def test_generated_program_settles_like_the_oracle(seed):
    lowered = gen.generate_program(seed, EXTRAPOLATING)
    extrapolated = 0
    for opt in (OptimizationConfig.baseline(), OptimizationConfig.full()):
        program = optimize(lowered, opt)
        for machine in (t3d(4), paragon(4)):
            extrapolated += check(program, machine).extrapolated_trips
    assert extrapolated > 0
