"""Regeneration of every figure and table in the paper's evaluation.

Each ``figure*``/``table*`` function returns ``(headers, rows)`` ready
for :func:`repro.analysis.report.format_table`.  Functions over the
whole-program study are *pure consumers* of precomputed engine results —
any mapping of ``benchmark -> [ExperimentResult, ...]`` in key order,
such as the :class:`repro.engine.StudyResult` of :func:`repro.run_study`.
One grid of simulations feeds Figures 8, 10, 11, 12 and Tables 1-4 —
mirroring how the paper derives all of them from one set of runs — and
the figures never trigger simulation themselves.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

from repro.comm import OptimizationConfig
from repro.experiments_registry import EXPERIMENT_KEYS, ExperimentResult
from repro.ir import emit_c
from repro.machine import paragon, t3d
from repro.programs import BENCHMARKS, build_benchmark
from repro.programs.synthetic import DEFAULT_SIZES, measured_overhead

Rows = Tuple[List[str], List[List]]

_PAPER_TABLES: Dict[str, Dict[str, Tuple[int, int, float]]] = {
    # benchmark -> experiment -> (static, dynamic, time) from Tables 1-4
    "tomcatv": {
        "baseline": (46, 40400, 2.491051),
        "rr": (22, 39200, 2.327301),
        "cc": (10, 13200, 1.901393),
        "pl": (10, 13200, 1.875820),
        "pl_shmem": (10, 13200, 2.029861),
        "pl_maxlat": (22, 39200, 2.148066),
    },
    "swm": {
        "baseline": (29, 8602, 6.809007),
        "rr": (22, 7202, 6.323369),
        "cc": (16, 6002, 6.191816),
        "pl": (16, 6002, 5.922135),
        "pl_shmem": (16, 6002, 5.454957),
        "pl_maxlat": (16, 6002, 5.477305),
    },
    "simple": {
        "baseline": (266, 28188, 66.749756),
        "rr": (103, 21433, 61.193568),
        "cc": (79, 10993, 53.962579),
        "pl": (79, 10993, 48.077192),
        "pl_shmem": (79, 10993, 33.720775),
        "pl_maxlat": (84, 16143, 43.637907),
    },
    "sp": {
        "baseline": (212, 85982, 22.572110),
        "rr": (114, 70094, 20.381131),
        "cc": (84, 44286, 19.274767),
        "pl": (84, 44286, 18.149760),
        "pl_shmem": (84, 44286, 19.079338),
        # the paper could not run SP under pl_maxlat (library bug);
        # counts are from its Table 4, the time is absent
        "pl_maxlat": (92, 53487, float("nan")),
    },
}


def paper_value(benchmark: str, experiment: str) -> Tuple[int, int, float]:
    """(static, dynamic, time) the paper reports for one table cell."""
    return _PAPER_TABLES[benchmark][experiment]


def has_paper_values(benchmark: str) -> bool:
    """Whether the paper reports a table for ``benchmark`` — False for
    kernels and generated programs, which get measured-only tables."""
    return benchmark in _PAPER_TABLES


# ---------------------------------------------------------------------------
# machine-description figures
# ---------------------------------------------------------------------------


def figure3_machines() -> Rows:
    """Machine parameters and communication libraries (paper Figure 3)."""
    rows = [
        [
            "Intel Paragon (50 MHz)",
            "NX (message passing)",
            "~100 ns",
        ],
        [
            "Cray T3D (150 MHz)",
            "PVM (message passing), SHMEM (shared memory)",
            "~150 ns",
        ],
    ]
    return (["machine", "communication library", "timer granularity"], rows)


def figure5_bindings() -> Rows:
    """IRONMAN bindings on the Paragon and T3D (paper Figure 5)."""
    from repro.ironman.bindings import BINDINGS

    order = ["nx", "nx_async", "nx_callback", "pvm", "shmem"]
    headers = ["call"] + order
    rows = []
    for call in ("DR", "SR", "DN", "SV"):
        row: List = [call]
        for lib in order:
            binding = BINDINGS[lib]
            prim = dict(binding.as_rows())[call]
            row.append("no-op" if prim == "noop" else prim)
        rows.append(row)
    return (headers, rows)


# ---------------------------------------------------------------------------
# Figure 6: exposed communication cost
# ---------------------------------------------------------------------------


def figure6_overhead(
    sizes: Sequence[int] = DEFAULT_SIZES, reps: int = 1000
) -> Rows:
    """Exposed communication costs vs message size for all five
    primitive sets (paper Figure 6), measured through the simulator."""
    curves = {
        "csend/crecv": measured_overhead(paragon, "nx", sizes, reps),
        "isend/irecv": measured_overhead(paragon, "nx_async", sizes, reps),
        "hsend/hrecv": measured_overhead(paragon, "nx_callback", sizes, reps),
        "pvm": measured_overhead(t3d, "pvm", sizes, reps),
        "shmem": measured_overhead(t3d, "shmem", sizes, reps),
    }
    headers = ["doubles"] + [f"{name} (us)" for name in curves]
    rows = []
    for i, size in enumerate(sizes):
        row: List = [int(size)]
        for points in curves.values():
            row.append(points[i].exposed_microseconds)
        rows.append(row)
    return (headers, rows)


# ---------------------------------------------------------------------------
# Figure 7: benchmark programs
# ---------------------------------------------------------------------------

_DESCRIPTIONS = {
    "tomcatv": "Thompson solver and grid generation (SPEC)",
    "swm": "Weather prediction (shallow water model)",
    "simple": "Hydrodynamics simulation (Livermore Labs)",
    "sp": "CFD computation (NAS Application Benchmarks)",
}

#: Line counts of the original benchmarks' generated C (paper Figure 7).
PAPER_LINE_COUNTS = {"tomcatv": 598, "swm": 1570, "simple": 2293, "sp": 7866}


def figure7_programs() -> Rows:
    """Benchmark programs with generated-C line counts excluding
    communication (paper Figure 7)."""
    rows = []
    for name in BENCHMARKS:
        program = build_benchmark(name, opt=OptimizationConfig.full())
        emitted = emit_c(program)
        rows.append(
            [
                name,
                _DESCRIPTIONS[name],
                emitted.lines_excluding_comm,
                PAPER_LINE_COUNTS[name],
            ]
        )
    return (
        ["program", "description", "C lines (ours)", "C lines (paper)"],
        rows,
    )


# ---------------------------------------------------------------------------
# whole-program figures/tables (over precomputed suite results)
# ---------------------------------------------------------------------------


def _by_key(results: List[ExperimentResult]) -> Dict[str, ExperimentResult]:
    return {r.experiment: r for r in results}


def figure8_counts(results: Mapping[str, List[ExperimentResult]]) -> Rows:
    """Static and dynamic communication counts for rr and cc, scaled to
    baseline (paper Figure 8)."""
    headers = [
        "benchmark",
        "rr static",
        "cc static",
        "rr dynamic",
        "cc dynamic",
    ]
    rows = []
    for bench, res in results.items():
        by = _by_key(res)
        base = by["baseline"]
        rows.append(
            [
                bench,
                by["rr"].static_count / base.static_count,
                by["cc"].static_count / base.static_count,
                by["rr"].dynamic_count / base.dynamic_count,
                by["cc"].dynamic_count / base.dynamic_count,
            ]
        )
    return (headers, rows)


def figure10a_times(results: Mapping[str, List[ExperimentResult]]) -> Rows:
    """Scaled execution times using PVM (paper Figure 10(a))."""
    headers = ["benchmark", "baseline", "rr", "cc", "pl"]
    rows = []
    for bench, res in results.items():
        by = _by_key(res)
        base = by["baseline"]
        rows.append(
            [bench]
            + [by[k].scaled_to(base) for k in ("baseline", "rr", "cc", "pl")]
        )
    return (headers, rows)


def figure10b_times(results: Mapping[str, List[ExperimentResult]]) -> Rows:
    """Scaled execution times: pl vs pl with shmem (paper Figure 10(b))."""
    headers = ["benchmark", "pl", "pl with shmem"]
    rows = []
    for bench, res in results.items():
        by = _by_key(res)
        base = by["baseline"]
        rows.append(
            [bench, by["pl"].scaled_to(base), by["pl_shmem"].scaled_to(base)]
        )
    return (headers, rows)


def figure11_heuristic_counts(
    results: Mapping[str, List[ExperimentResult]]
) -> Rows:
    """Counts under the two combining heuristics, scaled to baseline
    (paper Figure 11)."""
    headers = [
        "benchmark",
        "max-comb static",
        "max-lat static",
        "max-comb dynamic",
        "max-lat dynamic",
    ]
    rows = []
    for bench, res in results.items():
        by = _by_key(res)
        base = by["baseline"]
        rows.append(
            [
                bench,
                by["pl_shmem"].static_count / base.static_count,
                by["pl_maxlat"].static_count / base.static_count,
                by["pl_shmem"].dynamic_count / base.dynamic_count,
                by["pl_maxlat"].dynamic_count / base.dynamic_count,
            ]
        )
    return (headers, rows)


def figure12_heuristic_times(
    results: Mapping[str, List[ExperimentResult]]
) -> Rows:
    """Scaled running times under the two combining heuristics (paper
    Figure 12).  Unlike the paper — whose library bug blocked SP — every
    benchmark runs."""
    headers = ["benchmark", "pl with shmem", "pl with max latency"]
    rows = []
    for bench, res in results.items():
        by = _by_key(res)
        base = by["baseline"]
        rows.append(
            [
                bench,
                by["pl_shmem"].scaled_to(base),
                by["pl_maxlat"].scaled_to(base),
            ]
        )
    return (headers, rows)


def table_full(
    benchmark: str, results: Mapping[str, List[ExperimentResult]]
) -> Rows:
    """One of Tables 1-4: full counts and times for every experiment,
    with the paper's values alongside.  Benchmarks the paper does not
    report (kernels, generated programs) get measured-only tables."""
    headers = [
        "experiment",
        "static",
        "dynamic",
        "time (s)",
        "scaled",
    ]
    with_paper = has_paper_values(benchmark)
    if with_paper:
        headers += ["paper static", "paper dynamic", "paper scaled"]
    by = _by_key(results[benchmark])
    base = by["baseline"]
    p_base = paper_value(benchmark, "baseline") if with_paper else None
    rows = []
    for key in EXPERIMENT_KEYS:
        r = by[key]
        row = [
            key,
            r.static_count,
            r.dynamic_count,
            r.execution_time,
            r.scaled_to(base),
        ]
        if with_paper:
            ps, pd, pt = paper_value(benchmark, key)
            row += [ps, pd, pt / p_base[2]]
        rows.append(row)
    return (headers, rows)
