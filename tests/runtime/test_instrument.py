"""Unit tests for instrumentation counters.

No op records a counter as it runs: :func:`repro.runtime.schedule.settle`
fills them from how many times each op list ran.  A one-transfer program
run for ``k`` trips checks the counting rules on the compiled path and
on the walk (at five trips the compiled loop extrapolates).
"""

from repro import OptimizationConfig, SimOptions, compile_program, simulate, t3d
from repro.runtime.instrument import Instrumentation
from repro.runtime.schedule import schedule_template

#: one eastward transfer of ``A`` per trip
SRC = """
program one;
config n : integer = 8;
config k : integer = 1;
region R = [1..n, 1..n];
region In = [2..n-1, 2..n-1];
direction east = [0, 1];
var A, B : [R] double;
procedure main();
begin
  [R] A := index1 * 2.0 + index2;
  for t := 1 to k do
    [In] B := A@east;
  end;
end;
"""

def runs(trips=1, machine=None):
    """The program at ``trips`` trips on ``machine`` (t3d/4 PVM), compiled
    and walked, each with the plan of its one transfer (None when it
    moves nothing)."""
    machine = machine or t3d(4, "pvm")
    program = compile_program(
        SRC, "one.zl", config={"k": trips}, opt=OptimizationConfig.baseline()
    )
    for fast in (True, False):
        result = simulate(program, machine, options=SimOptions.timing(fast=fast))
        plans = schedule_template(program, machine).lowered.plans
        assert len(plans) <= 1
        yield result, plans[0] if plans else None


def test_transfer_counts_participants_once():
    for result, plan in runs():
        inst = result.instrument
        assert inst.dynamic_comms.sum() == plan.participant_count
        assert inst.dynamic_comm_count == 1


def test_repeated_transfers_accumulate():
    for result, _ in runs(trips=5):
        assert result.instrument.dynamic_comm_count == 5


def test_messages_and_bytes_attributed_to_senders():
    for result, plan in runs():
        inst = result.instrument
        assert inst.total_messages == plan.message_count
        assert inst.total_bytes == int(plan.nbytes.sum())
        assert inst.messages[plan.senders].sum() == plan.message_count


def test_empty_plan_not_counted():
    for result, plan in runs(machine=t3d(1)):
        assert plan is None
        assert result.instrument.dynamic_comm_count == 0
        assert not result.instrument.counts.any()


def test_call_counts_skip_noop():
    # PVM binds DR and SV to noop; each trip's send and receive run on
    # every sender and receiver of the transfer
    for (once, plan), (five, _) in zip(runs(), runs(trips=5)):
        senders, receivers = len(plan.senders_unique), len(plan.receivers_unique)
        assert once.instrument.call_counts == {
            "pvm_send": senders,
            "pvm_recv": receivers,
        }
        assert five.instrument.call_counts == {
            "pvm_send": 5 * senders,
            "pvm_recv": 5 * receivers,
        }


def test_call_counts_of_one_primitive_accumulate_across_calls():
    # SHMEM binds both DR and DN to ``synch``
    for result, plan in runs(trips=5, machine=t3d(4, "shmem")):
        receivers = len(plan.receivers_unique)
        assert result.instrument.call_counts["synch"] == 2 * 5 * receivers
        assert "noop" not in result.instrument.call_counts


def test_warnings_deduplicated():
    inst = Instrumentation(4)
    inst.warn("same thing")
    inst.warn("same thing")
    assert inst.warnings == ["same thing"]


def test_warnings_keep_first_seen_order():
    inst = Instrumentation(4)
    for msg in ("b", "a", "c", "a", "b", "d"):
        inst.warn(msg)
    assert inst.warnings == ["b", "a", "c", "d"]


def test_warn_dedup_scales_linearly():
    # the dedup is set-backed: re-warning must not rescan the list
    # (it used to be an O(n^2) `in list` probe per call)
    inst = Instrumentation(4)
    for i in range(5000):
        inst.warn(f"w{i % 50}")
    assert len(inst.warnings) == 50
    assert inst._warned == set(inst.warnings)


def test_warn_surfaces_through_the_event_sink():
    from repro.obs import MemorySink, recording

    inst = Instrumentation(4)
    sink = MemorySink()
    with recording(sink):
        inst.warn("trouble")
        inst.warn("trouble")  # deduped: emitted once
    (event,) = sink.events("warning")
    assert event["attrs"] == {"message": "trouble"}


def test_warn_is_silent_when_tracing_off():
    inst = Instrumentation(4)
    inst.warn("trouble")  # must not raise or require a recorder
    assert inst.warnings == ["trouble"]
