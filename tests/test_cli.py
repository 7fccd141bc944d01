"""Tests of the ``python -m repro`` command-line interface."""

from pathlib import Path

import pytest

from repro.__main__ import main
from tests.conftest import MINI_SOURCE


@pytest.fixture
def mini_file(tmp_path):
    path = tmp_path / "mini.zl"
    path.write_text(MINI_SOURCE)
    return str(path)


def test_compile_prints_pseudo_c(mini_file, capsys):
    assert main(["compile", mini_file]) == 0
    out = capsys.readouterr().out
    assert "SR(A, east);" in out
    assert "excluding communication" in out


def test_compile_respects_config_override(mini_file, capsys):
    main(["compile", mini_file, "--config", "n=4"])
    out = capsys.readouterr().out
    assert "_i1 <= 4" in out


def test_run_reports_counts(mini_file, capsys):
    assert main(["run", mini_file, "--procs", "4"]) == 0
    out = capsys.readouterr().out
    assert "dynamic comms" in out
    assert "Cray T3D" in out


def test_run_numeric_mode(mini_file, capsys):
    assert main(["run", mini_file, "--procs", "4", "--numeric"]) == 0


def test_run_on_paragon(mini_file, capsys):
    assert main(["run", mini_file, "--machine", "paragon", "--procs", "2"]) == 0
    out = capsys.readouterr().out
    assert "Paragon" in out


def test_figure6_subcommand(capsys):
    assert main(["figure6", "--reps", "20"]) == 0
    out = capsys.readouterr().out
    assert "pvm" in out and "shmem" in out


def test_bad_config_syntax(mini_file):
    with pytest.raises(SystemExit):
        main(["compile", mini_file, "--config", "n:4"])


def test_config_accepts_scientific_notation(mini_file, capsys):
    # 1e1 == 10: an integral float is a valid integer-config override
    # (this used to crash in --config parsing before reaching the front end)
    assert main(["compile", mini_file, "--config", "n=1e1"]) == 0
    out = capsys.readouterr().out
    assert "_i1 <= 10" in out


def test_bad_config_value_exits_cleanly(mini_file):
    with pytest.raises(SystemExit, match="config value"):
        main(["compile", mini_file, "--config", "n=ten"])


def test_experiments_engine_flags(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    telemetry = tmp_path / "telemetry.json"
    argv = [
        "experiments",
        "--bench", "swm",
        "--procs", "16",
        "--config", "n=16",
        "--config", "nsteps=3",
        "--jobs", "2",
        "--cache-dir", str(cache_dir),
        "--telemetry", str(telemetry),
    ]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert "Figure 8" in cold and "Table 1 — swm" in cold
    assert telemetry.exists()
    assert cache_dir.exists()

    # warm re-run over the cache renders byte-identical tables
    assert main(argv) == 0
    assert capsys.readouterr().out == cold


def test_passes_lists_the_registry(capsys):
    """The four passes, one line each in the order they run, each with
    the OptimizationConfig field that turns it on."""
    assert main(["passes"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == [
        "redundancy", "interblock", "combining", "pipelining",
    ]
    assert [line.rsplit("[", 1)[1] for line in lines] == [
        "rr]", "rr_interblock; needs rr]", "cc]", "pl]",
    ]


def test_passes_dumps_a_key_pipeline(capsys):
    assert main(["passes", "--key", "pl_maxlat"]) == 0
    out = capsys.readouterr().out
    assert "redundancy -> combining[max_latency] -> pipelining" in out

    assert main(["passes", "--key", "baseline"]) == 0
    assert "(empty)" in capsys.readouterr().out


def test_experiments_explain_appends_attribution(tmp_path, capsys):
    assert main([
        "experiments", "--bench", "swm", "--procs", "16",
        "--config", "n=16", "--config", "nsteps=2",
        "--no-cache", "--cache-dir", str(tmp_path), "--explain",
    ]) == 0
    out = capsys.readouterr().out
    assert "Figure 8, by pass" in out
    assert "Per-pass attribution" in out
    assert "combining" in out and "share" in out


def test_experiments_explain_is_reproducible(capsys):
    """Two cold ``--explain`` runs print the same bytes: the tables hold
    counts and shares only, no host wall time."""
    from repro.engine import clear_compile_cache

    outs = []
    for _ in range(2):
        clear_compile_cache()
        assert main([
            "experiments", "--bench", "swm", "--procs", "16",
            "--config", "n=16", "--config", "nsteps=2",
            "--explain", "--no-cache",
        ]) == 0
        outs.append(capsys.readouterr().out)
    assert "Per-pass attribution" in outs[0]
    assert outs[0] == outs[1]


def test_trace_writes_perfetto_and_jsonl(tmp_path, capsys):
    import json

    from repro.engine import clear_compile_cache

    # a cold compile cache, so the study compiles in the trace
    clear_compile_cache()
    trace = tmp_path / "trace.json"
    jsonl = tmp_path / "events.jsonl"
    assert main([
        "trace", "swm", "--out", str(trace), "--jsonl", str(jsonl),
        "--procs", "4", "--ranks", "2",
        "--config", "n=16", "--config", "nsteps=2",
    ]) == 0
    out = capsys.readouterr().out
    assert "trace written" in out and "bridged timelines" in out

    doc = json.loads(trace.read_text())
    events = doc["traceEvents"]
    span_names = {e["name"] for e in events if e["ph"] == "X" and e["pid"] == 1}
    assert "compile" in span_names
    assert any(n.startswith("pass:") for n in span_names)
    counter_names = {e["name"] for e in events if e["ph"] == "C"}
    assert "engine.result_cache.miss" in counter_names
    # bridged per-rank timelines land under their own process
    assert {e["tid"] for e in events if e["ph"] == "X" and e["pid"] == 2} == {0, 1}
    assert doc["otherData"]["metrics"]["counters"]["engine.result_cache.miss"] == 6

    lines = [json.loads(line) for line in jsonl.read_text().splitlines()]
    assert {r["type"] for r in lines} >= {"span", "counter", "rank_event", "metrics"}
    # one trace id, and every span's parent chain reaches the root
    # "trace" span
    assert len({r["trace"] for r in lines}) == 1
    spans = [r for r in lines if r["type"] == "span"]
    by_id = {r["id"]: r for r in spans}
    (root,) = [r for r in spans if r["name"] == "trace"]
    for span in spans:
        seen = set()
        while "parent" in span:
            assert span["parent"] not in seen
            seen.add(span["parent"])
            span = by_id[span["parent"]]
        assert span["id"] == root["id"]


def test_trace_compiles_each_program_once(tmp_path):
    """The bridged key's program comes from the compile cache the study
    filled: one front-end pass for the study's one config, one optimizer
    pipeline per distinct optimization of its six keys, and no more."""
    import json

    from repro.engine import clear_compile_cache
    from repro.experiments_registry import EXPERIMENT_KEYS, experiment_spec

    clear_compile_cache()
    jsonl = tmp_path / "events.jsonl"
    assert main([
        "trace", "simple", "--out", str(tmp_path / "t.json"),
        "--jsonl", str(jsonl), "--ranks", "2", "--nprocs", "16",
        "--config", "n=16", "--config", "niters=2", "--config", "ncond=2",
    ]) == 0
    lines = [json.loads(line) for line in jsonl.read_text().splitlines()]
    names = [r["name"] for r in lines if r["type"] == "span"]
    opts = {experiment_spec(key).opt for key in EXPERIMENT_KEYS}
    assert len(opts) == 5
    for name, count in [
        ("compile", 1),
        ("frontend:parse", 1),
        ("ir:lower", 1),
        ("optimize:pipeline", len(opts)),
    ]:
        assert names.count(name) == count, name


def test_trace_leaves_tracing_disabled_after(tmp_path):
    from repro.obs import core as obs

    assert main([
        "trace", "swm", "--out", str(tmp_path / "t.json"),
        "--procs", "4", "--ranks", "1",
        "--config", "n=16", "--config", "nsteps=2",
    ]) == 0
    assert not obs.enabled()


COMPARE_SCALE = [
    "--bench", "swm", "--procs", "4",
    "--config", "n=16", "--config", "nsteps=2",
]


def test_compare_update_then_clean_rerun(tmp_path, capsys):
    baseline = tmp_path / "baselines" / "swm.json"
    cache = ["--cache-dir", str(tmp_path / "cache")]
    assert main(
        ["compare", "--baseline", str(baseline), "--update"]
        + COMPARE_SCALE + cache
    ) == 0
    assert "baseline updated" in capsys.readouterr().out

    # identical rerun: exit 0, no drift; benchmarks/shape come from the
    # baseline itself (no --bench/--procs needed)
    code = main(
        ["compare", "--baseline", str(baseline),
         "--config", "n=16", "--config", "nsteps=2"] + cache
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "no drift from baseline" in out


def test_compare_detects_count_drift(tmp_path, capsys):
    import json

    baseline = tmp_path / "swm.json"
    cache = ["--cache-dir", str(tmp_path / "cache")]
    assert main(
        ["compare", "--baseline", str(baseline), "--update"]
        + COMPARE_SCALE + cache
    ) == 0
    capsys.readouterr()

    doc = json.loads(baseline.read_text())
    doc["benchmarks"]["swm"]["pl"]["total_messages"] += 7
    baseline.write_text(json.dumps(doc))
    code = main(
        ["compare", "--baseline", str(baseline),
         "--config", "n=16", "--config", "nsteps=2"] + cache
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "swm/pl: total_messages" in out


def test_compare_missing_baseline_needs_update(tmp_path):
    with pytest.raises(SystemExit, match="does not exist"):
        main(["compare", "--baseline", str(tmp_path / "nope.json")]
             + COMPARE_SCALE)


def test_compare_rejects_corrupt_baseline(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ nope")
    with pytest.raises(SystemExit, match="not valid JSON"):
        main(["compare", "--baseline", str(bad)] + COMPARE_SCALE)


def test_experiments_no_cache_leaves_no_cache_dir(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    assert main([
        "experiments", "--bench", "swm", "--procs", "16",
        "--config", "n=16", "--config", "nsteps=2",
        "--no-cache", "--cache-dir", str(cache_dir),
    ]) == 0
    assert not cache_dir.exists()


# ---------------------------------------------------------------------------
# sweep subcommand
# ---------------------------------------------------------------------------

SWEEP_SCALE = [
    "--bench", "simple",
    "--keys", "baseline", "cc",
    "--nprocs", "4",
    "--config", "n=16", "--config", "niters=2", "--config", "ncond=2",
    "--jobs", "2",
]


def test_sweep_smoke_and_golden(tmp_path, capsys):
    import csv
    import json

    csv_path = tmp_path / "scaling.csv"
    json_path = tmp_path / "scaling.json"
    argv = [
        "sweep", "--axis", "net.latency=1e-6,1e-4",
        "--csv", str(csv_path), "--json", str(json_path),
        "--cache-dir", str(tmp_path / "cache"),
    ] + SWEEP_SCALE
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "sweep: 2 points x 2 cells" in out
    assert "Scaling sweep" in out
    assert "scaling CSV written" in out and "scaling JSON written" in out

    with csv_path.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "net.latency", "benchmark", "experiment", "library", "variant",
        "static", "dynamic", "time", "vs_baseline", "vs_prev",
    ]
    assert len(rows) == 5  # header + 2 points x 2 keys

    doc = json.loads(json_path.read_text())
    assert doc["schema"] == 1
    assert doc["axes"] == [{"name": "net.latency", "values": [1e-6, 1e-4]}]
    assert doc["keys"] == ["baseline", "cc"]
    assert len(doc["rows"]) == 4


def test_sweep_default_cache_reuses_results(tmp_path, capsys):
    cache = ["--cache-dir", str(tmp_path / "cache")]
    argv = ["sweep", "--axis", "nprocs=2,4"] + SWEEP_SCALE + cache
    assert main(argv) == 0
    assert "4 cache hits" not in capsys.readouterr().out
    assert main(argv) == 0
    assert "4 cells, 4 cache hits, 0 simulated" in capsys.readouterr().out


def test_sweep_no_cache_reruns(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    argv = (
        ["sweep", "--axis", "nprocs=2,4", "--no-cache",
         "--cache-dir", str(cache_dir)]
        + SWEEP_SCALE
    )
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "0 cache hits, 4 simulated" in out
    assert not cache_dir.exists()


def test_sweep_bad_axis_exits_cleanly(tmp_path):
    with pytest.raises(SystemExit, match="sweep:"):
        main(["sweep", "--axis", "net.color=1,2"] + SWEEP_SCALE)
    with pytest.raises(SystemExit, match="sweep:"):
        main(["sweep", "--axis", "nprocs=0,4"] + SWEEP_SCALE)


@pytest.mark.parametrize(
    "axis, named",
    [
        ("nprocs=nan,4", "'nprocs': 'nan'"),
        ("nprocs=4,inf", "'nprocs': 'inf'"),
        ("net.latency=-inf", "'net.latency': '-inf'"),
    ],
)
def test_sweep_non_finite_axis_value_is_named(axis, named):
    with pytest.raises(SystemExit, match=f"sweep: sweep axis {named} is not a finite number"):
        main(["sweep", "--axis", axis] + SWEEP_SCALE)


def test_sweep_nprocs_zero_exits_cleanly(tmp_path):
    with pytest.raises(SystemExit, match="positive"):
        main([
            "sweep", "--axis", "net.latency=1e-6,1e-4",
            "--bench", "simple", "--nprocs", "0",
        ])


def test_experiments_nprocs_zero_exits_cleanly(tmp_path):
    with pytest.raises(SystemExit, match="positive"):
        main([
            "experiments", "--bench", "simple", "--nprocs", "0",
            "--config", "n=16", "--config", "niters=2", "--config", "ncond=2",
            "--no-cache", "--cache-dir", str(tmp_path),
        ])


# ---------------------------------------------------------------------------
# unified flags: --set / --nprocs across subcommands
# ---------------------------------------------------------------------------


def test_experiments_set_override_moves_times(tmp_path, capsys):
    base = [
        "experiments", "--bench", "simple", "--nprocs", "4",
        "--config", "n=16", "--config", "niters=2", "--config", "ncond=2",
        "--no-cache", "--cache-dir", str(tmp_path),
    ]
    assert main(base) == 0
    plain = capsys.readouterr().out
    assert main(base + ["--set", "net.latency=0.01"]) == 0
    slowed = capsys.readouterr().out
    assert plain != slowed


def test_experiments_bad_set_exits_cleanly(tmp_path):
    with pytest.raises(SystemExit, match="--set"):
        main([
            "experiments", "--bench", "simple",
            "--set", "net.latency:0.01",
        ])


def test_trace_accepts_set_and_nprocs(tmp_path, capsys):
    out = tmp_path / "trace.json"
    argv = [
        "trace", "simple", "--out", str(out),
        "--nprocs", "4", "--ranks", "1",
        "--set", "net.latency=1e-5",
        "--config", "n=16", "--config", "niters=2", "--config", "ncond=2",
    ]
    assert main(argv) == 0
    assert out.exists()
    assert "bridged timelines:  1 ranks" in capsys.readouterr().out


def test_cache_stats_and_prune(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    assert main([
        "experiments", "--bench", "swm", "--procs", "16",
        "--config", "n=16", "--config", "nsteps=3",
        "--cache-dir", cache_dir,
    ]) == 0
    capsys.readouterr()

    assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert f"dir backend at {cache_dir}: 6 entries" in out

    # prune refuses to empty the store without an explicit filter
    with pytest.raises(SystemExit, match="--older-than"):
        main(["cache", "prune", "--cache-dir", cache_dir])
    assert main([
        "cache", "prune", "--cache-dir", cache_dir, "--older-than", "7d",
    ]) == 0
    assert "pruned 0 records" in capsys.readouterr().out
    assert main(["cache", "prune", "--cache-dir", cache_dir, "--all"]) == 0
    assert f"pruned 6 records from dir backend at {cache_dir}" in (
        capsys.readouterr().out
    )


def test_cache_prune_rejects_bad_duration(tmp_path):
    with pytest.raises(SystemExit):
        main([
            "cache", "prune", "--cache-dir", str(tmp_path),
            "--older-than", "fortnight",
        ])


# ---------------------------------------------------------------------------
# a trace records one process (repro trace has no --jobs)
# ---------------------------------------------------------------------------


def test_trace_rejects_jobs(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([
            "trace", "swm", "--out", str(tmp_path / "trace.json"),
            "--jobs", "2",
        ])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def test_frontier_refine_localizes_crossover(tmp_path, capsys):
    assert main([
        "frontier",
        "--refine", "prim.*.per_byte_beyond=0:1e-6",
        "--tol", "1e-8",
        "--coarse", "5",
        "--nprocs", "16",
        "--bench", "simple",
        "--keys", "baseline", "rr", "cc",
        "--set", "prim.*.knee_bytes=32",
        "--config", "n=16", "--config", "niters=2", "--config", "ncond=2",
        "--cache-dir", str(tmp_path / "cache"),
        "--json", str(tmp_path / "refined.json"),
        "--csv", str(tmp_path / "refined.csv"),
    ]) == 0
    out = capsys.readouterr().out
    assert "Refined prim.*.per_byte_beyond" in out
    assert "Localized crossovers" in out
    assert "win->loss" in out
    assert (tmp_path / "refined.json").exists()
    assert (tmp_path / "refined.csv").exists()


def test_frontier_dense_two_axis_map(tmp_path, capsys):
    assert main([
        "frontier",
        "--axis", "prim.*.per_byte_beyond=0,5e-7,1e-6",
        "--axis", "net.latency=1e-5,5e-5",
        "--nprocs", "16",
        "--bench", "simple",
        "--keys", "baseline", "cc",
        "--config", "n=16", "--config", "niters=2", "--config", "ncond=2",
        "--cache-dir", str(tmp_path / "cache"),
    ]) == 0
    out = capsys.readouterr().out
    assert "Winner grid" in out


def test_frontier_requires_exactly_one_mode(tmp_path):
    with pytest.raises(SystemExit):
        main(["frontier", "--bench", "simple"])
    with pytest.raises(SystemExit):
        main([
            "frontier",
            "--refine", "net.latency=0:1",
            "--tol", "1e-3",
            "--axis", "net.latency=1,2",
            "--axis", "net.bandwidth=1e8,2e8",
        ])


@pytest.mark.parametrize("span", ["0:nan", "0:inf", "-inf:1e-6", "nan:nan"])
def test_frontier_refine_non_finite_range_is_named(span):
    with pytest.raises(SystemExit, match="--refine: .* needs finite LO and HI"):
        main([
            "frontier", "--bench", "simple", "--keys", "rr", "cc",
            "--refine", f"prim.*.per_byte_beyond={span}", "--tol", "1e-8",
            "--no-cache",
        ])


@pytest.mark.parametrize("span", ["0:nan", "0:inf", "nan:1e-4"])
def test_fit_non_finite_bound_is_named(span):
    with pytest.raises(SystemExit, match="--bound: .* needs finite LO and HI"):
        main([
            "fit", "--synthetic", "net.latency=3.2e-5", "--nprocs", "4",
            "--config", "n=8", "--config", "niters=1", "--config", "ncond=1",
            "--bound", f"net.latency={span}",
        ])


def test_fit_synthetic_recovers_latency(tmp_path, capsys):
    assert main([
        "fit",
        "--synthetic", "net.latency=3.2e-5",
        "--nprocs", "16",
        "--keys", "baseline",
        "--config", "n=16", "--config", "niters=2", "--config", "ncond=2",
        "--rounds", "10",
        "--json", str(tmp_path / "fit.json"),
        "--write-target", str(tmp_path / "target.json"),
    ]) == 0
    out = capsys.readouterr().out
    assert "Fitted t3d/16" in out
    assert "Recovery vs synthetic ground truth" in out
    assert (tmp_path / "fit.json").exists()
    assert (tmp_path / "target.json").exists()


def test_fit_from_target_file(tmp_path, capsys):
    assert main([
        "fit",
        "--synthetic", "net.latency=3.2e-5",
        "--nprocs", "16",
        "--keys", "baseline",
        "--config", "n=16", "--config", "niters=2", "--config", "ncond=2",
        "--rounds", "2",
        "--write-target", str(tmp_path / "target.json"),
    ]) == 0
    capsys.readouterr()
    assert main([
        "fit", str(tmp_path / "target.json"),
        "--fit", "net.latency",
        "--rounds", "4",
    ]) == 0
    assert "Fitted t3d/16" in capsys.readouterr().out


_TARGET = {
    "schema": 1,
    "machine": "t3d",
    "nprocs": 4,
    "library": None,
    "overrides": {},
    "config": {"simple": {"n": 8, "niters": 1, "ncond": 1}},
    "observations": [
        {"benchmark": "simple", "experiment": "baseline", "time": 1e-3}
    ],
}


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


@pytest.mark.parametrize(
    "text, message",
    [
        (None, "cannot read fit target .*missing.json"),
        ("{", "fit target .* is not valid JSON"),
        ([1, 2], "must hold a JSON object"),
        (_without(_TARGET, "machine"), "machine must be a string"),
        (_without(_TARGET, "nprocs"), "nprocs must be an integer"),
        (dict(_TARGET, nprocs=4.5), "nprocs must be an integer, got 4.5"),
        (_without(_TARGET, "observations"), "observations must be a non-empty list"),
        (
            dict(_TARGET, observations=[{"benchmark": "simple", "time": 1e-3}]),
            r"observations\[0\]\.experiment must be a string",
        ),
        (
            dict(
                _TARGET,
                observations=[
                    {"benchmark": "simple", "experiment": "baseline", "time": "x"}
                ],
            ),
            r"observations\[0\]\.time must be a finite positive number",
        ),
        (
            dict(_TARGET, config={"simple": {"n": "x"}}),
            "config.simple.n must be a number",
        ),
        (
            dict(_TARGET, overrides={"net.latency": "x"}),
            "overrides.net.latency must be a number",
        ),
    ],
    ids=[
        "missing-file", "not-json", "array", "no-machine", "no-nprocs",
        "float-nprocs", "no-observations", "observation-field", "string-time",
        "string-config", "string-override",
    ],
)
def test_fit_malformed_target_fails_at_the_boundary(tmp_path, text, message):
    import json

    path = tmp_path / "missing.json"
    if text is not None:
        path = tmp_path / "target.json"
        path.write_text(text if isinstance(text, str) else json.dumps(text))
    with pytest.raises(SystemExit, match=f"^fit: .*{message}"):
        main(["fit", str(path), "--fit", "net.latency", "--rounds", "1"])


def test_fit_rejects_target_plus_synthetic(tmp_path):
    with pytest.raises(SystemExit):
        main([
            "fit", str(tmp_path / "nope.json"),
            "--synthetic", "net.latency=1e-5",
        ])


# ---------------------------------------------------------------------------
# generate / compose (the synthetic-corpus and composition-study commands)
# ---------------------------------------------------------------------------


def test_generate_prints_deterministic_source(capsys):
    assert main(["generate", "7"]) == 0
    first = capsys.readouterr().out
    assert "program gen_7;" in first
    assert main(["generate", "7"]) == 0
    assert capsys.readouterr().out == first


def test_generate_check_passes(capsys):
    assert main(["generate", "1", "--check"]) == 0
    assert "ok gen_1" in capsys.readouterr().out


def test_generate_check_reports_a_fault_as_that_seeds_failure(monkeypatch, capsys):
    import repro.__main__ as cli
    from repro.errors import RuntimeFault

    simulate = cli.simulate

    def faulty(program, *args, **kwargs):
        if program.name == "gen_1":
            raise RuntimeFault("transfer comm#9 initiated twice without completion")
        return simulate(program, *args, **kwargs)

    monkeypatch.setattr(cli, "simulate", faulty)
    assert main(["generate", "0", "--count", "3", "--check"]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["ok gen_0", "ok gen_2"]
    err = captured.err.splitlines()
    assert (
        "FAIL gen_1: RuntimeFault: transfer comm#9 initiated twice without completion"
        in err
    )
    assert "  python -m repro generate 1 --check" in err
    assert not any("generate 0" in line or "generate 2" in line for line in err)


def test_generate_batch_to_directory(tmp_path, capsys):
    out = tmp_path / "corpus"
    assert main(["generate", "4", "--count", "3", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "gen_4.zl", "gen_5.zl", "gen_6.zl"
    ]
    assert "program gen_5;" in (out / "gen_5.zl").read_text()


def test_generate_profile_steers_output(capsys):
    assert main(["generate", "0", "--profile", "phases=3",
                 "--profile", "n=12"]) == 0
    out = capsys.readouterr().out
    assert "config n      : integer = 12;" in out
    assert "procedure phase2" in out


def test_generate_rejects_bad_profile():
    with pytest.raises(SystemExit, match="unknown field"):
        main(["generate", "0", "--profile", "bogus=3"])
    with pytest.raises(SystemExit, match="expects int"):
        main(["generate", "0", "--profile", "phases=many"])
    with pytest.raises(SystemExit):
        main(["generate", "0", "--profile", "arrays=1"])


def test_generate_rejects_negative_seed():
    with pytest.raises(SystemExit, match="non-negative"):
        main(["generate", "-3"])


def test_compose_over_kernels_and_generated(tmp_path, capsys):
    csv_path = tmp_path / "comp.csv"
    json_path = tmp_path / "comp.json"
    assert main([
        "compose", "--small", "--nprocs", "4",
        "--bench", "jacobi", "--bench", "rbgs",
        "--gen", "1", "--gen-seed", "2",
        "--variant", "net.latency=6e-5",
        "--no-cache",
        "--csv", str(csv_path), "--json", str(json_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "Composition study — 3 programs x 2 variants" in out
    assert "Composition factor (measured/predicted)" in out
    assert "gen_2" in out
    header = csv_path.read_text().splitlines()[0]
    assert header.startswith("benchmark,machine,nprocs,variant,overrides,t_baseline")
    import json as _json

    doc = _json.loads(json_path.read_text())
    assert doc["schema"] == 1
    assert doc["benchmarks"] == ["jacobi", "rbgs", "gen_2"]


def test_compose_rejects_unknown_benchmark(capsys):
    with pytest.raises(SystemExit):
        main(["compose", "--bench", "linpack"])


#: two benchmarks whose iteration counts have different names: SIMPLE's
#: ``niters``, SWM's ``nsteps``
TWO_BENCH_CONFIG = [
    "--bench", "simple", "--bench", "swm", "--nprocs", "4",
    "--config", "n=16", "--config", "niters=2", "--config", "nsteps=2",
]


@pytest.mark.parametrize(
    "command",
    [
        ["experiments"],
        ["sweep", "--keys", "baseline", "cc", "--axis", "net.latency=1e-6,2e-5"],
        ["compose", "--variant", "net.latency=6e-5"],
    ],
    ids=lambda command: command[0],
)
def test_config_goes_to_each_benchmark_that_declares_it(command, tmp_path, capsys):
    """Each ``--config`` NAME reaches the selected benchmarks that declare
    it: SIMPLE runs at ``niters=2`` and SWM at ``nsteps=2``, each with its
    other defaults."""
    import json

    telemetry = tmp_path / "t.json"
    argv = command + TWO_BENCH_CONFIG + ["--no-cache", "--telemetry", str(telemetry)]
    assert main(argv) == 0
    records = json.loads(telemetry.read_text())["records"]
    assert {r["benchmark"]: r["config"] for r in records} == {
        "simple": {"n": 16, "niters": 2, "ncond": 14},
        "swm": {"n": 16, "nsteps": 2},
    }


BASELINE = str(Path(__file__).resolve().parents[1] / "baselines" / "paper.json")


@pytest.mark.parametrize(
    "command",
    [
        ["experiments"],
        ["compare", "--baseline", BASELINE],
        ["sweep", "--axis", "net.latency=1e-6,2e-5"],
        ["frontier", "--refine", "net.latency=0:1e-5", "--tol", "1e-6"],
        ["frontier", "--axis", "net.latency=1e-6,2e-5", "--axis", "prim.*.fixed=0,1e-6"],
        ["fit", "--synthetic", "net.latency=3.2e-5"],
        ["compose"],
    ],
    ids=["experiments", "compare", "sweep", "frontier-refine", "frontier-map", "fit", "compose"],
)
def test_config_no_selected_benchmark_declares_exits(command, tmp_path):
    """A NAME that neither SIMPLE nor SP declares exits before any work
    (``fit`` keeps no result cache)."""
    cache = [] if command[0] == "fit" else ["--cache-dir", str(tmp_path / "cache")]
    with pytest.raises(SystemExit) as exc:
        main(command + ["--bench", "simple", "--bench", "sp", "--config", "nsteps=2"] + cache)
    assert str(exc.value) == f"{command[0]}: --config nsteps: no selected benchmark declares it"
    assert not (tmp_path / "cache").exists()


def test_config_for_one_benchmark_passes_whole():
    """One benchmark gets every override, as before the fan-out fix."""
    from repro.__main__ import _config_per_benchmark

    config = {"n": 16, "niters": 2}
    assert _config_per_benchmark("sweep", ["simple"], config) == {"simple": config}
    assert _config_per_benchmark("sweep", ["simple"], {}) is None


def test_study_commands_accept_kernels_and_gen_names(tmp_path, capsys):
    # the --bench relaxation: sweep takes a kernel, with composition keys
    assert main([
        "sweep", "--axis", "nprocs=4,8",
        "--bench", "jacobi", "--keys", "baseline", "cc_only",
        "--config", "n=12", "--config", "niters=1",
        "--no-cache",
    ]) == 0
    out = capsys.readouterr().out
    assert "jacobi" in out and "cc_only" in out


def test_passes_explains_composition_keys(capsys):
    assert main(["passes", "--key", "cc_only"]) == 0
    out = capsys.readouterr().out
    assert "combining communication alone" in out
    assert "combining[max_combining]" in out

    assert main(["passes", "--key", "pl_only"]) == 0
    assert "pipelining" in capsys.readouterr().out


def test_experiments_renders_measured_only_table_for_corpus_names(
    tmp_path, capsys
):
    # regression: table_full crashed with KeyError('gen_1') for any
    # benchmark the paper has no table for — kernels and generated
    # programs must render measured-only tables instead
    assert main([
        "experiments", "--bench", "gen_1", "--nprocs", "4",
        "--config", "n=12", "--config", "niters=1",
        "--cache-dir", str(tmp_path / "cache"),
    ]) == 0
    out = capsys.readouterr().out
    assert "Table 1 — gen_1" in out
    assert "scaled" in out
    assert "paper static" not in out


# ---------------------------------------------------------------------------
# bad input to compile / run exits with the command's name, no traceback
# ---------------------------------------------------------------------------


@pytest.fixture
def swm_file(tmp_path):
    from repro.programs import benchmark_source

    path = tmp_path / "swm.zl"
    path.write_text(benchmark_source("swm"))
    return str(path)


@pytest.mark.parametrize("command", ["compile", "run"])
def test_missing_file_exits_cleanly(command, tmp_path):
    with pytest.raises(SystemExit, match=f"^{command}: .*No such file"):
        main([command, str(tmp_path / "nosuch.zl")])


@pytest.mark.parametrize("command", ["compile", "run"])
def test_directory_exits_cleanly(command, tmp_path):
    with pytest.raises(SystemExit, match=f"^{command}: .*Is a directory"):
        main([command, str(tmp_path)])


@pytest.mark.parametrize("command", ["compile", "run"])
def test_non_utf8_file_exits_cleanly(command, tmp_path):
    path = tmp_path / "binary.zl"
    path.write_bytes(b"\xff\xfeprogram x;")
    with pytest.raises(SystemExit, match=f"^{command}: .*binary.zl: not UTF-8"):
        main([command, str(path)])


@pytest.mark.parametrize("command", ["compile", "run"])
def test_syntax_error_exits_cleanly(command, tmp_path):
    path = tmp_path / "bad.zl"
    path.write_text("program x;\nbegin\n")
    with pytest.raises(SystemExit, match=f"^{command}: .*bad.zl:2:1: expected"):
        main([command, str(path)])


@pytest.mark.parametrize("command", ["compile", "run"])
def test_empty_region_exits_cleanly(command, swm_file):
    with pytest.raises(SystemExit, match=f"^{command}: .*region 'R' is empty"):
        main([command, swm_file, "--config", "n=0"])


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--procs", "0"], "processor count must be positive, got 0"),
        (["--machine", "nosuch"], "unknown machine 'nosuch'"),
        (["--library", "nx"], "the T3D model supports pvm / shmem, not 'nx'"),
    ],
)
def test_run_bad_machine_exits_cleanly(flags, message, swm_file):
    with pytest.raises(SystemExit, match=f"^run: {message}"):
        main(["run", swm_file, "--config", "n=16"] + flags)


@pytest.mark.parametrize("reps", ["0", "-2"])
def test_figure6_rejects_non_positive_reps(reps, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["figure6", "--reps", reps])
    assert exc.value.code == 2
    assert f"argument --reps: must be >= 1, got {reps}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# output files in a missing directory fail at parse time, before any work
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv, flag, command",
    [
        (["experiments", "--telemetry", "{out}"], "--telemetry", "cmd_experiments"),
        (["trace", "simple", "--out", "{out}"], "--out", "cmd_trace"),
        (["sweep", "--axis", "net.latency=1e-6", "--csv", "{out}"], "--csv", "cmd_sweep"),
        (
            ["frontier", "--refine", "net.latency=0:1e-4", "--tol", "1e-6",
             "--json", "{out}"],
            "--json",
            "cmd_frontier",
        ),
        (["fit", "--synthetic", "net.latency=3e-5", "--json", "{out}"], "--json", "cmd_fit"),
        (["compose", "--small", "--csv", "{out}"], "--csv", "cmd_compose"),
        (["generate", "3", "--out", "{out}"], "--out", "cmd_generate"),
    ],
    ids=lambda x: x[0] if isinstance(x, list) else None,
)
def test_output_file_in_missing_directory_fails_before_work(
    argv, flag, command, tmp_path, capsys, monkeypatch
):
    import repro.__main__ as cli

    def started(args):
        raise AssertionError(f"{command} ran")

    monkeypatch.setattr(cli, command, started)
    missing = tmp_path / "missing"
    out = str(missing / "out.file")
    with pytest.raises(SystemExit) as exc:
        main([arg.format(out=out) for arg in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: directory {str(missing)!r} does not exist" in err
    assert not missing.exists()
