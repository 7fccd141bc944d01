"""Tables 1–4 and Figures 3–12, with the paper's findings.

Tables 1–4 and Figures 8, 10, 11 and 12 read the session's one cold
t3d/64 paper study (``paper_study`` in ``tests/conftest.py``).
``tests/goldens/experiments.txt`` and ``figure6.txt`` pin Tables 1–4
and Figure 6 byte for byte (``tests/test_rendered_golden.py``), so their
tests here only assert; every other table, with its paper columns, must
equal its file in ``tests/goldens/paper/``.  Re-render those with

    PYTHONPATH=src python -m tests.paper.test_figures
"""

import pytest

from repro import OptimizationConfig, emit_c
from repro.analysis import format_table
from repro.analysis.figures import (
    figure3_machines,
    figure5_bindings,
    figure6_overhead,
    figure7_programs,
    figure8_counts,
    figure10a_times,
    figure10b_times,
    figure11_heuristic_counts,
    figure12_heuristic_times,
    paper_value,
    table_full,
)
from repro.ironman import BINDINGS, CallKind
from repro.machine import paragon, t3d
from repro.programs import build_benchmark
from tests.paper import assert_golden, write_golden


def _table(bench, study):
    """``bench``'s full table, its rows by experiment key."""
    _, rows = table_full(bench, study)
    return {row[0]: row for row in rows}


# ---------------------------------------------------------------------------
# Tables 1-4: counts and times for every experiment key
# ---------------------------------------------------------------------------


def test_table1(paper_study):
    """TOMCATV."""
    by = _table("tomcatv", paper_study)
    # Table 1's qualitative content: rr barely moves the dynamic count,
    # cc cuts it to about a third, max-latency equals rr exactly
    assert 0.95 < by["rr"][2] / by["baseline"][2] < 1.0
    assert by["cc"][2] / by["baseline"][2] < 0.4
    assert by["pl_maxlat"][1] == by["rr"][1]
    assert by["pl_maxlat"][2] == by["rr"][2]
    # time ordering of Table 1
    scaled = {k: by[k][4] for k in by}
    assert scaled["pl"] < scaled["cc"] < scaled["rr"] < scaled["baseline"]
    assert scaled["pl"] < scaled["pl_shmem"] < scaled["pl_maxlat"] < 1.0


def test_table2(paper_study):
    """SWM: the reduced software overhead of ``shmem_put`` hides more of
    the latency."""
    by = _table("swm", paper_study)
    # Table 2's qualitative content: max-latency keeps cc's counts, and
    # SHMEM improves on PVM
    assert by["pl_maxlat"][1] == by["cc"][1]
    assert by["pl_maxlat"][2] == by["cc"][2]
    scaled = {k: by[k][4] for k in by}
    assert scaled["pl_shmem"] < scaled["pl"] < scaled["cc"] < scaled["rr"] < 1.0
    # the paper's two SHMEM heuristic runs differ only by noise; ours are
    # exactly equal (same counts, same placements)
    assert abs(scaled["pl_maxlat"] - scaled["pl_shmem"]) < 0.02


def test_table3(paper_study):
    """SIMPLE: the paper's largest one-way-communication win."""
    by = _table("simple", paper_study)
    # Table 3's qualitative content: huge rr gains, max-latency strictly
    # between rr and cc in both counts, every optimization pays, and
    # SHMEM is the best configuration of all
    assert by["rr"][1] < 0.6 * by["baseline"][1]
    assert by["cc"][1] < by["pl_maxlat"][1] < by["rr"][1]
    assert by["cc"][2] < by["pl_maxlat"][2] < by["rr"][2]
    scaled = {k: by[k][4] for k in by}
    assert scaled["pl"] < scaled["cc"] < scaled["rr"] < 1.0
    assert scaled["pl_shmem"] == min(scaled.values())
    assert scaled["pl_shmem"] < scaled["pl_maxlat"] < scaled["pl"]


def test_table4(paper_study):
    """SP.  Unlike the paper (whose library bug blocked SP under
    max-latency combining), this fills in the missing cell."""
    by = _table("sp", paper_study)
    scaled = {k: by[k][4] for k in by}
    # Table 4's qualitative content: every optimization pays under PVM,
    # and SHMEM degrades (inherently sequential line solves)
    assert scaled["pl"] < scaled["cc"] < scaled["rr"] < 1.0
    assert scaled["pl"] < scaled["pl_shmem"] < 1.0
    # the cell the paper could not produce
    assert scaled["pl_maxlat"] > 0


# ---------------------------------------------------------------------------
# Figures 3, 5, 6 and 7: machines, bindings, overheads, programs
# ---------------------------------------------------------------------------


def figure3():
    machines = (
        paragon(2, "nx"),
        paragon(2, "nx_async"),
        paragon(2, "nx_callback"),
        t3d(64, "pvm"),
        t3d(64, "shmem"),
    )
    headers, rows = figure3_machines()
    text = format_table(headers, rows, title="Figure 3 — machine parameters")
    return text + "\n\nsimulated instances:\n" + "\n".join(
        f"  {m.describe()}" for m in machines
    )


def test_figure3():
    assert_golden("figure03_machines", figure3())


def figure5():
    headers, rows = figure5_bindings()
    return format_table(headers, rows, title="Figure 5 — IRONMAN bindings")


def test_figure5():
    resolved = [binding.primitive(kind) for binding in BINDINGS.values() for kind in CallKind]
    assert len(resolved) == 20
    assert_golden("figure05_bindings", figure5())


def test_figure6():
    """Exposed communication cost vs message size: the paper's synthetic
    two-node program through the whole stack, for all five primitive
    sets."""
    _, rows = figure6_overhead(sizes=(8, 32, 128, 512, 1024, 2048, 4096), reps=500)
    # the paper's stated relationships, asserted on the measured data
    by_size = {row[0]: row[1:] for row in rows}
    csend, isendr, hsend, pvm, shmem = range(5)
    assert by_size[8][pvm] == pytest.approx(by_size[512][pvm], rel=1e-6)  # flat to the knee
    assert by_size[1024][pvm] > by_size[512][pvm]  # rising past it
    assert by_size[512][shmem] < by_size[512][pvm]  # shmem cheaper
    assert by_size[512][isendr] >= by_size[512][csend]  # async no better
    assert by_size[512][hsend] > by_size[512][csend]  # callback worse


def figure7():
    headers, rows = figure7_programs()
    text = format_table(
        headers,
        rows,
        title="Figure 7 — benchmark programs (generated C lines, excluding communication)",
    )
    return text + (
        "\n\npaper line counts are for the original full applications; "
        "ours are re-derived ZL implementations preserving the paper's "
        "communication structure (see DESIGN.md)."
    )


def test_figure7():
    emitted = emit_c(build_benchmark("tomcatv", opt=OptimizationConfig.full()))
    assert emitted.total_lines > emitted.lines_excluding_comm
    assert_golden("figure07_programs", figure7())


# ---------------------------------------------------------------------------
# Figures 8, 10, 11 and 12: the study, beside the paper's values
# ---------------------------------------------------------------------------


def figure8(study):
    """Communication count reduction from rr and cc, static and dynamic,
    scaled to baseline."""
    headers, rows = figure8_counts(study)
    headers = headers + ["paper rr dyn", "paper cc dyn"]
    for row in rows:
        base = paper_value(row[0], "baseline")
        row.append(paper_value(row[0], "rr")[1] / base[1])
        row.append(paper_value(row[0], "cc")[1] / base[1])
    text = format_table(
        headers, rows, title="Figure 8 — communication count reduction (scaled to baseline)"
    )
    return text, rows


def test_figure8(paper_study):
    text, rows = figure8(paper_study)
    assert_golden("figure08_counts", text)
    for row in rows:
        rr_s, cc_s, rr_d, cc_d = row[1:5]
        assert cc_s <= rr_s <= 1.0
        assert cc_d <= rr_d <= 1.0


def figure10a(study):
    """Each optimization under PVM, scaled to baseline."""
    headers, rows = figure10a_times(study)
    headers += ["paper rr", "paper cc", "paper pl"]
    for row in rows:
        base_t = paper_value(row[0], "baseline")[2]
        row.extend(paper_value(row[0], key)[2] / base_t for key in ("rr", "cc", "pl"))
    text = format_table(headers, rows, title="Figure 10(a) — scaled execution times, PVM")
    return text, rows


def figure10b(study):
    """Full optimization under PVM vs SHMEM, scaled to baseline."""
    headers, rows = figure10b_times(study)
    headers += ["paper pl", "paper pl+shmem"]
    for row in rows:
        base_t = paper_value(row[0], "baseline")[2]
        row.append(paper_value(row[0], "pl")[2] / base_t)
        row.append(paper_value(row[0], "pl_shmem")[2] / base_t)
    text = format_table(headers, rows, title="Figure 10(b) — pl vs pl with shmem")
    return text, rows


def test_figure10(paper_study):
    text_a, rows_a = figure10a(paper_study)
    text_b, rows_b = figure10b(paper_study)
    assert_golden("figure10a_times_pvm", text_a)
    assert_golden("figure10b_times_shmem", text_b)

    # the paper's headline orderings
    a = {row[0]: row for row in rows_a}
    for bench in a:
        base, rr, cc, pl = a[bench][1:5]
        assert base >= rr >= cc >= pl

    b = {row[0]: row for row in rows_b}
    for bench in ("swm", "simple"):
        assert b[bench][2] < b[bench][1], "shmem improves SWM/SIMPLE"
    for bench in ("tomcatv", "sp"):
        assert b[bench][2] > b[bench][1], "shmem degrades TOMCATV/SP"


def figure11(study):
    """Communication counts under the two combining heuristics."""
    headers, rows = figure11_heuristic_counts(study)
    headers += ["paper max-comb dyn", "paper max-lat dyn"]
    for row in rows:
        base = paper_value(row[0], "baseline")[1]
        row.append(paper_value(row[0], "pl")[1] / base)
        row.append(paper_value(row[0], "pl_maxlat")[1] / base)
    text = format_table(
        headers, rows, title="Figure 11 — combining heuristics, counts scaled to baseline"
    )
    return text, rows


def test_figure11(paper_study):
    text, rows = figure11(paper_study)
    assert_golden("figure11_heuristic_counts", text)
    by = {row[0]: row for row in rows}
    # the paper's structural findings
    assert by["tomcatv"][4] > by["tomcatv"][3], "TOMCATV: max-latency combines nothing"
    assert by["swm"][4] == by["swm"][3], "SWM: max-latency keeps every combination"
    assert by["simple"][3] < by["simple"][4] < 1.0, "SIMPLE: in between"


def figure12(study):
    """Running times under the two combining heuristics (both with
    SHMEM), scaled to baseline.  The paper could not run SP under
    max-latency (a library bug fixed "by the final paper"); this runs
    all four."""
    headers, rows = figure12_heuristic_times(study)
    headers += ["paper pl+shmem", "paper max-lat"]
    for row in rows:
        base_t = paper_value(row[0], "baseline")[2]
        row.append(paper_value(row[0], "pl_shmem")[2] / base_t)
        ml = paper_value(row[0], "pl_maxlat")[2]
        row.append(ml / base_t if ml == ml else "n/a (paper bug)")
    text = format_table(
        headers, rows, title="Figure 12 — combining heuristics, scaled times (SHMEM)"
    )
    return text, rows


def test_figure12(paper_study):
    text, rows = figure12(paper_study)
    assert_golden("figure12_heuristic_times", text)
    # "the benchmark versions compiled for maximized combining always
    # performed better than those compiled maximized latency hiding"
    for row in rows:
        assert row[1] <= row[2] + 1e-9


if __name__ == "__main__":
    from tests.conftest import cold_paper_study

    study = cold_paper_study()
    write_golden("figure03_machines", figure3())
    write_golden("figure05_bindings", figure5())
    write_golden("figure07_programs", figure7())
    for name, render in (
        ("figure08_counts", figure8),
        ("figure10a_times_pvm", figure10a),
        ("figure10b_times_shmem", figure10b),
        ("figure11_heuristic_counts", figure11),
        ("figure12_heuristic_times", figure12),
    ):
        write_golden(name, render(study)[0])
