"""Tests of the benchmark itself: smoke runs, seeded inputs, the ledger.

    PYTHONPATH=src python -m pytest benchmarks/perf/test_perf.py -q
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _smoke(*flags) -> dict:
    """``workload -> metric -> (value, unit)`` from a smoke run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", *flags],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 4
    out: dict = {}
    for line in lines[:-1]:
        workload, metric, value, unit, _ = line.split()
        out.setdefault(workload, {})[metric] = (float(value), unit)
    return out


@pytest.mark.parametrize("flags, section", [((), "end_to_end"), (("--trace",), "per_layer")])
def test_smoke_prints_every_metric(flags, section):
    printed = _smoke(*flags)
    assert sorted(printed) == sorted(w["name"] for w in SPEC["workloads"])
    for workload, metrics in printed.items():
        assert metrics["fail_ratio"] == (0.0, "ratio")
        for metric in SPEC[section]:
            assert metrics[metric["name"]][1] == metric["unit"], (workload, metric)
        if section == "end_to_end":
            assert all(metrics[m["name"]][0] > 0 for m in SPEC[section])
        else:
            assert metrics["trace.coverage"][0] >= 0.95, workload


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_fixed_seed_fixes_the_inputs(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    first = cls(1, tmp_path).inputs()
    assert cls(1, tmp_path).inputs() == first
    assert cls(2, tmp_path).inputs() != first
    json.dumps(first)  # the inputs are plain data


def test_times_are_scaled_by_the_nearby_probes():
    ref = run.PROBE_REF_S
    # the host runs at half speed for the last block: probe and ops take twice as long
    child = {
        "op_s": [0.1] * 30 + [0.2] * 30,
        "probe_s": [(ref, ref)] * 30 + [(2 * ref, 2 * ref)] * 30,
        "blocks": [(30, 0.5), (30, 1.0)],
        "setup_s": 0.8,
        "setup_probe_s": 2 * ref,
    }
    op_ms, ops_per_s = run._scaled_ops(child)
    assert op_ms == pytest.approx([100.0] * 60)
    assert ops_per_s == pytest.approx(60 / (6.0 + 0.5 + 0.5))
    assert run._scaled_setup(child) == pytest.approx(0.4)


def test_corrupted_golden_fails_the_check(tmp_path):
    w = workloads.PaperCold(0, tmp_path, smoke=True)
    w.setup()
    cell = ("simple", "rr")
    w.begin_block(0)
    study = w.op(cell)
    assert w.check(cell, study) == []
    w.goldens = copy.deepcopy(w.goldens)
    w.goldens["simple"]["rr"]["dynamic_count"] += 1
    assert w.check(cell, study) == [
        f"simple/rr: dynamic_count expected "
        f"{w.goldens['simple']['rr']['dynamic_count']!r}, "
        f"got {w.goldens['simple']['rr']['dynamic_count'] - 1!r}"
    ]
    w.end_block()


# ---------------------------------------------------------------------------
# the ledger on a synthetic module with a fake clock
# ---------------------------------------------------------------------------

FAKE_SOURCE = '''
clock = None

def inner():
    clock.tick(5)

def outer():
    clock.tick(1)
    inner()
    clock.tick(2)

def recurse(n):
    clock.tick(1)
    if n:
        recurse(n - 1)

def boom():
    clock.tick(4)
    raise ValueError("boom")

class Box:
    def get(self):
        clock.tick(2)
        inner()
'''

FAKE_TABLE = (
    ("a", "perf_fake", "outer"),
    ("b", "perf_fake", "inner"),
    ("r", "perf_fake", "recurse"),
    ("x", "perf_fake", "boom"),
    ("m", "perf_fake", "Box.get"),
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def fake(monkeypatch):
    module = types.ModuleType("perf_fake")
    exec(FAKE_SOURCE, module.__dict__)
    module.clock = FakeClock()
    user = types.ModuleType("perf_fake.user")
    user.inner = module.inner  # a second binding site
    monkeypatch.setitem(sys.modules, "perf_fake", module)
    monkeypatch.setitem(sys.modules, "perf_fake.user", user)
    return module


def _ledger(fake) -> layers.Ledger:
    return layers.Ledger(
        FAKE_TABLE,
        nested_hits={"b_in_a": ("outer", "inner")},
        clock=fake.clock,
    )


def test_self_time_of_nested_spans(fake):
    with _ledger(fake) as ledger:
        fake.outer()
        sys.modules["perf_fake.user"].inner()
        fake.Box().get()
    assert ledger.self_s["a"] == 3 and ledger.calls["a"] == 1
    assert ledger.self_s["b"] == 15 and ledger.calls["b"] == 3
    assert ledger.self_s["m"] == 2 and ledger.calls["m"] == 1
    assert ledger.total_self_s() == fake.clock.now
    assert ledger.ratios()["b_in_a"] == 0.0  # the one outer call built


def test_recursion_counts_one_call_and_all_self_time(fake):
    with _ledger(fake) as ledger:
        fake.recurse(3)
    assert ledger.self_s["r"] == 4
    assert ledger.calls["r"] == 1
    assert ledger.entry_calls["recurse"] == 4


def test_raised_exception_closes_its_span(fake):
    with _ledger(fake) as ledger:
        with pytest.raises(ValueError):
            fake.boom()
        fake.outer()
    assert ledger.self_s["x"] == 4 and ledger.self_s["a"] == 3
    assert ledger._stack == []
    assert [e[0] for e in ledger.events] == ["x", "b", "a"]


def test_fake_bindings_are_restored(fake):
    before = {name: getattr(fake, name) for name in ("outer", "inner", "recurse")}
    get = fake.Box.__dict__["get"]
    with _ledger(fake):
        assert fake.inner is not before["inner"]
        assert sys.modules["perf_fake.user"].inner is fake.inner
        late = types.ModuleType("perf_fake.late")
        late.outer = fake.outer  # bound while the ledger was installed
        sys.modules["perf_fake.late"] = late
    try:
        assert {name: getattr(fake, name) for name in before} == before
        assert sys.modules["perf_fake.user"].inner is before["inner"]
        assert late.outer is before["outer"]
        assert fake.Box.__dict__["get"] is get
    finally:
        del sys.modules["perf_fake.late"]


def test_program_bindings_are_identical_after_a_traced_run():
    import repro

    def snapshot() -> dict:
        return {
            (name, key): value
            for name, module in list(sys.modules.items())
            if name == "repro" or name.startswith("repro.")
            for key, value in list(vars(module).items())
            if callable(value)
        }

    classes = [
        (getattr(sys.modules[module], attr.split(".")[0]), attr.split(".")[1])
        for _, module, attr in layers.LAYERS
        if "." in attr
    ]
    ledger = layers.Ledger()
    ledger.install()
    ledger.uninstall()  # imports every module the table names
    before = snapshot()
    methods = [vars(cls)[name] for cls, name in classes]
    with layers.Ledger() as ledger:
        assert repro.simulate is repro.runtime.executor.simulate
        assert repro.simulate is not before["repro", "simulate"]
        program = repro.compile_program(
            """
            program demo;
            config n : integer = 16;
            region R  = [1..n, 1..n];
            region In = [2..n-1, 2..n-1];
            direction east = [0, 1];  direction west = [0, -1];
            var A, B : [R] double;
            procedure main();
            begin
              [R] A := index1 + index2;
              [In] B := 0.5 * (A@east + A@west);
            end;
            """,
            opt=repro.OptimizationConfig.full(),
        )
        repro.simulate(program, repro.t3d(4), repro.ExecutionMode.TIMING)
    assert ledger.calls["runtime.simulate"] == 1
    assert ledger.calls["frontend.parse"] == 1
    after = snapshot()
    assert {k: v for k, v in after.items() if k in before} == before
    assert [vars(cls)[name] for cls, name in classes] == methods
