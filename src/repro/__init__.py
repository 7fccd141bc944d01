"""repro — reproduction of Choi & Snyder, "Quantifying the Effects of
Communication Optimizations" (ICPP 1997).

A from-scratch implementation of the paper's entire system:

* **ZL**, a ZPL-like data-parallel array sublanguage (regions,
  directions, the ``@`` shift operator, reductions) with a full front
  end — :mod:`repro.frontend`;
* an SPMD intermediate representation with source-level basic blocks —
  :mod:`repro.ir`;
* the paper's machine-independent **communication optimizer**: redundant
  communication removal, communication combination (two heuristics), and
  communication pipelining, each individually switchable —
  :mod:`repro.comm`;
* the **IRONMAN** four-call communication interface and its per-library
  bindings — :mod:`repro.ironman`;
* cost-model simulations of the **Intel Paragon** (NX) and **Cray T3D**
  (PVM + SHMEM) — :mod:`repro.machine`;
* a discrete-event **SPMD runtime** with distributed arrays, fluff
  regions, real data movement and per-processor clocks —
  :mod:`repro.runtime`;
* the paper's four **benchmark programs** (TOMCATV, SWM, SIMPLE, SP) and
  its synthetic overhead benchmark — :mod:`repro.programs`;
* the **experiment harness** regenerating every figure and table —
  :mod:`repro.analysis`;
* a parallel, content-addressed **experiment engine** running the
  whole-program study as a cached job matrix — :mod:`repro.engine`,
  fronted by :func:`run_study`:

  >>> study = run_study(benchmarks=("swm",), nprocs=16, jobs=4)  # doctest: +SKIP

* a **parameter-sweep subsystem** deriving validated machine variants
  (latencies, bandwidths, primitive-cost fields, processor counts) and
  running the study matrix over every point, with scaling curves and
  automatic win/loss crossover detection — :mod:`repro.sweep` and
  :mod:`repro.analysis.scaling`, fronted by :func:`run_sweep`:

  >>> sweep = run_sweep(axes=[SweepAxis("nprocs", (4, 16, 64))])  # doctest: +SKIP

* a unified **observability layer** — hierarchical spans, a metrics
  registry, JSONL / Perfetto (Chrome trace-event) / in-memory sinks,
  and telemetry-driven regression baselines — :mod:`repro.obs`, wired
  through the whole stack and zero-cost when disabled (the default):

  >>> from repro.obs import MemorySink, recording  # doctest: +SKIP
  >>> with recording(MemorySink()) as rec:         # doctest: +SKIP
  ...     run_study(benchmarks=("simple",))

Quickstart
----------

>>> from repro import compile_program, OptimizationConfig, t3d, simulate
>>> source = '''
... program demo;
... config n : integer = 16;
... region R  = [1..n, 1..n];
... region In = [2..n-1, 2..n-1];
... direction east = [0, 1];  direction west = [0, -1];
... var A, B : [R] double;
... procedure main();
... begin
...   [R] A := index1 + index2;
...   [In] B := 0.5 * (A@east + A@west);
... end;
... '''
>>> program = compile_program(source, opt=OptimizationConfig.full())
>>> result = simulate(program, t3d(16))
>>> result.dynamic_comm_count
2
"""

from repro.comm import (
    OptimizationConfig,
    PipelineReport,
    optimize,
    optimize_with_report,
    static_comm_count,
)
from repro.experiments_registry import ExperimentSpec, experiment_spec
from repro.engine import (
    ExperimentEngine,
    Job,
    MachineSpec,
    StudyResult,
    load_telemetry,
    run_study,
)
from repro.errors import (
    BaselineError,
    LexError,
    MachineError,
    OptimizationError,
    ParseError,
    ReproError,
    RuntimeFault,
    SemanticError,
)
from repro import obs
from repro.fit import FitResult, FitTarget, fit_machine, load_target, synthesize_target
from repro.sweep import RefinedSweep, SweepAxis, run_refined_sweep, run_sweep
from repro.frontend import analyze, parse
from repro.ir import emit_c, lower
from repro.machine import Machine, machine_by_name, paragon, t3d
from repro.programs.common import compile_source as compile_program
from repro.programs.generate import (
    GeneratorProfile,
    generate_program,
    generate_source,
)
from repro.runtime import (
    BatchRun,
    ExecutionMode,
    RunResult,
    SimOptions,
    reference_run,
    simulate,
    simulate_many,
)

__version__ = "1.0.0"

#: Lazily re-exported names (PEP 562): the composition study lives in
#: the analysis layer, which sits *above* the engine — importing it
#: eagerly here would make ``import repro.engine`` load the analysis
#: package and break the layering the registry split established.
_LAZY_EXPORTS = {
    "run_composition": "repro.analysis.composition",
    "CompositionCell": "repro.analysis.composition",
    "CompositionResult": "repro.analysis.composition",
}


def __getattr__(name):
    target = _LAZY_EXPORTS.get(name)
    if target is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(target), name)

__all__ = [
    # compilation
    "parse",
    "analyze",
    "lower",
    "optimize",
    "compile_program",
    "emit_c",
    "OptimizationConfig",
    "PipelineReport",
    "optimize_with_report",
    "static_comm_count",
    # program generation
    "GeneratorProfile",
    "generate_program",
    "generate_source",
    # the experiment engine
    "run_study",
    "run_composition",
    "CompositionCell",
    "CompositionResult",
    "run_sweep",
    "run_refined_sweep",
    "RefinedSweep",
    "SweepAxis",
    "load_telemetry",
    "ExperimentEngine",
    "ExperimentSpec",
    "experiment_spec",
    "Job",
    "MachineSpec",
    "StudyResult",
    # machines
    "Machine",
    "paragon",
    "t3d",
    "machine_by_name",
    # calibration
    "fit_machine",
    "load_target",
    "synthesize_target",
    "FitResult",
    "FitTarget",
    # execution
    "simulate",
    "simulate_many",
    "reference_run",
    "ExecutionMode",
    "RunResult",
    "BatchRun",
    "SimOptions",
    # observability
    "obs",
    # errors
    "ReproError",
    "BaselineError",
    "LexError",
    "ParseError",
    "SemanticError",
    "OptimizationError",
    "MachineError",
    "RuntimeFault",
    "__version__",
]
