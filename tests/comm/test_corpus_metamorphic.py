"""Metamorphic optimizer properties over the whole program corpus.

The corpus is the paper's four benchmarks' little siblings: the three
classic kernels plus a batch of seeded generated programs.  Three
relations must hold for *every* member:

* every one of the 18 pass selections runs verifier-clean and its
  :class:`~repro.comm.PipelineReport` exactly reconciles the static
  count delta;
* along the paper's cumulative chain (baseline -> rr -> cc -> pl) the
  static and dynamic transfer counts are monotone non-increasing — an
  "optimization" that adds communication is a bug wherever it appears;
* pipelining never changes transfer *counts* at all (it only moves
  sends earlier), so the cc -> pl step is count-neutral by identity.
"""

import pytest

from repro import OptimizationConfig, SimOptions, compile_program, simulate, t3d
from repro.comm import optimize_with_report, static_comm_count
from repro.programs import KERNELS, benchmark_source, small_config
from repro.programs.generate import GEN_SMALL_CONFIG, generate_source
from tests.property.test_pipeline_properties import LEGAL_CONFIGS

GENERATED = tuple(f"gen_{seed}" for seed in range(6))
CORPUS = KERNELS + GENERATED

#: The paper's cumulative chain, weakest to strongest.
CHAIN = (
    ("baseline", OptimizationConfig.baseline()),
    ("rr", OptimizationConfig.rr_only()),
    ("cc", OptimizationConfig.rr_cc()),
    ("pl", OptimizationConfig.full()),
)


def _source_and_config(name):
    if name in KERNELS:
        return benchmark_source(name), small_config(name)
    return generate_source(int(name.split("_")[1])), dict(GEN_SMALL_CONFIG)


@pytest.mark.parametrize("name", CORPUS)
def test_every_legal_pipeline_is_verifier_clean(name):
    """All 18 pass selections run with the post-pass verifier enabled,
    and each report accounts for the whole static-count delta."""
    source, config = _source_and_config(name)
    lowered = compile_program(source, f"{name}.zl", config=config)
    naive = static_comm_count(
        compile_program(
            source, f"{name}.zl", config=config,
            opt=OptimizationConfig.baseline(),
        )
    )
    for opt in LEGAL_CONFIGS:
        program, report = optimize_with_report(lowered, opt, verify=True)
        assert report.planned == naive, opt.signature()
        assert report.final == static_comm_count(program)
        assert report.reconciles(), f"{name}: {opt.signature()}"


@pytest.mark.parametrize("name", CORPUS)
def test_cumulative_chain_counts_are_monotone(name):
    """baseline >= rr >= cc >= pl in both static and dynamic transfer
    counts, and the cc -> pl step is exactly count-neutral."""
    source, config = _source_and_config(name)
    machine = t3d(4, "pvm")
    static, dynamic = [], []
    for _, opt in CHAIN:
        program = compile_program(source, f"{name}.zl", config=config, opt=opt)
        result = simulate(program, machine, options=SimOptions.timing())
        static.append(result.static_comm_count)
        dynamic.append(result.dynamic_comm_count)
    for prev, cur in zip(static, static[1:]):
        assert cur <= prev, f"{name}: static counts not monotone: {static}"
    for prev, cur in zip(dynamic, dynamic[1:]):
        assert cur <= prev, f"{name}: dynamic counts not monotone: {dynamic}"
    assert static[3] == static[2], f"{name}: pipelining changed static counts"
    assert dynamic[3] == dynamic[2], f"{name}: pipelining changed dynamic counts"


def test_corpus_is_not_optimization_neutral():
    """At least part of the corpus must give each pass real work;
    otherwise the monotone property above is vacuous."""
    shrunk_by_rr = shrunk_by_cc = 0
    for name in CORPUS:
        source, config = _source_and_config(name)
        counts = {
            key: static_comm_count(
                compile_program(source, f"{name}.zl", config=config, opt=opt)
            )
            for key, opt in CHAIN[:3]
        }
        shrunk_by_rr += counts["rr"] < counts["baseline"]
        shrunk_by_cc += counts["cc"] < counts["rr"]
    assert shrunk_by_rr >= 2
    assert shrunk_by_cc >= 2
