"""Property-based tests of the optimizer over every pass selection.

The passes run in one fixed order, and every :class:`OptimizationConfig`
selects a subset of them: 3 removal states x 3 combining states x 2
placement states = 18 configurations.  Running any of them must
preserve program semantics while its
:class:`~repro.comm.PipelineReport` exactly explains the static-count
delta.  These tests enumerate all 18 against random ZL programs.
"""

import numpy as np
from hypothesis import given, settings

from repro import (
    ExecutionMode,
    OptimizationConfig,
    compile_program,
    reference_run,
    simulate,
    t3d,
)
from repro.comm import optimize_with_report, static_comm_count
from tests.property.test_optimizer_properties import (
    ARRAYS,
    FOOTER,
    HEADER,
    program_bodies,
)

def _legal_configs():
    """Every OptimizationConfig: each selection of the passes."""
    configs = []
    for rr, interblock in ((False, False), (True, False), (True, True)):
        for heuristic in (None, "max_combining", "max_latency"):
            for pl in (False, True):
                configs.append(
                    OptimizationConfig(
                        rr=rr,
                        rr_interblock=interblock,
                        cc=heuristic is not None,
                        combine_heuristic=heuristic or "max_combining",
                        pl=pl,
                    )
                )
    return configs


LEGAL_CONFIGS = _legal_configs()


def test_legal_subset_count():
    assert len(LEGAL_CONFIGS) == 18
    assert len({c.signature() for c in LEGAL_CONFIGS}) == 18


@given(program_bodies())
@settings(max_examples=15, deadline=None)
def test_every_legal_pipeline_matches_reference(body):
    """Semantics: all 18 configs compute what the sequential reference
    computes, on random stencil programs."""
    source = HEADER + body + FOOTER
    ref = reference_run(compile_program(source, "fuzz.zl"))
    for config in LEGAL_CONFIGS:
        program = compile_program(source, "fuzz.zl", opt=config)
        res = simulate(program, t3d(4, "pvm"), ExecutionMode.NUMERIC)
        for array in ARRAYS:
            assert np.allclose(
                res.array(array), ref.array(array), rtol=1e-12, atol=1e-12
            ), f"{config.signature()}: {array} diverged\n{source}"


@given(program_bodies())
@settings(max_examples=15, deadline=None)
def test_every_report_reconciles_with_static_counts(body):
    """Instrumentation: for every config, planned equals the naive
    static count, final equals the optimized static count, and the
    per-pass removal/merge totals account for the whole delta — with the
    post-pass verifier enabled throughout."""
    source = HEADER + body + FOOTER
    lowered = compile_program(source, "fuzz.zl")
    naive = static_comm_count(
        compile_program(source, "fuzz.zl", opt=OptimizationConfig.baseline())
    )
    for config in LEGAL_CONFIGS:
        program, report = optimize_with_report(lowered, config, verify=True)
        assert report.signature == config.signature()
        assert report.planned == naive
        assert report.final == static_comm_count(program)
        assert report.reconciles(), config.signature()
