"""Tests for the experiment harness."""

import warnings

import pytest

from repro.analysis import (
    EXPERIMENT_KEYS,
    ExperimentSpec,
    experiment_spec,
    run_experiment,
)
from repro.analysis.experiments import run_benchmark_suite
from repro.comm import OptimizationConfig
from repro.errors import ExperimentError
from repro.programs import small_config


def test_keys_match_paper_figure9():
    assert EXPERIMENT_KEYS == (
        "baseline",
        "rr",
        "cc",
        "pl",
        "pl_shmem",
        "pl_maxlat",
    )


def test_specs_are_cumulative():
    base = experiment_spec("baseline").opt
    rr = experiment_spec("rr").opt
    cc = experiment_spec("cc").opt
    pl = experiment_spec("pl").opt
    assert not base.rr and rr.rr and not rr.cc
    assert cc.rr and cc.cc and not cc.pl
    assert pl.rr and pl.cc and pl.pl


def test_shmem_keys_use_shmem_library():
    for key in ("pl_shmem", "pl_maxlat"):
        assert experiment_spec(key).library == "shmem"


def test_unknown_key_rejected():
    with pytest.raises(ExperimentError, match="valid"):
        experiment_spec("super_opt")


def test_spec_is_a_named_dataclass():
    spec = experiment_spec("pl_maxlat")
    assert isinstance(spec, ExperimentSpec)
    assert spec.key == "pl_maxlat"
    assert spec.opt == OptimizationConfig.full_max_latency()
    assert spec.library == "shmem"
    assert "latency" in spec.description


def test_named_field_access_is_warning_free():
    """The ExperimentSpec named-field path — including the pipeline
    factory — raises no DeprecationWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        spec = experiment_spec("pl")
        assert spec.key == "pl"
        assert spec.opt.pl
        assert spec.library == "pvm"
        assert "pipelining" in spec.description
        assert spec.pipeline().has("pipelining")


def test_registry_module_is_the_single_source():
    """repro.analysis re-exports the shared registry objects unchanged,
    so both historical import paths resolve to the same definitions."""
    import repro.analysis as analysis
    import repro.analysis.experiments as experiments
    import repro.experiments_registry as registry

    for module in (analysis, experiments):
        assert module.EXPERIMENT_KEYS is registry.EXPERIMENT_KEYS
        assert module.ExperimentSpec is registry.ExperimentSpec
        assert module.ExperimentResult is registry.ExperimentResult
        assert module.experiment_spec is registry.experiment_spec


def test_run_experiment_returns_counts_and_time():
    res = run_experiment(
        "swm", "cc", nprocs=16, config=small_config("swm")
    )
    assert res.benchmark == "swm"
    assert res.library == "pvm"
    assert res.static_count > 0
    assert res.dynamic_count > 0
    assert res.execution_time > 0


def test_suite_grid_shape():
    results = run_benchmark_suite(
        ["swm"],
        keys=("baseline", "cc"),
        nprocs=16,
        config_overrides={"swm": small_config("swm")},
    )
    assert set(results) == {"swm"}
    assert [r.experiment for r in results["swm"]] == ["baseline", "cc"]


def test_scaled_to_baseline():
    results = run_benchmark_suite(
        ["swm"],
        keys=("baseline", "cc"),
        nprocs=16,
        config_overrides={"swm": small_config("swm")},
    )
    base, cc = results["swm"]
    assert cc.scaled_to(base) == cc.execution_time / base.execution_time
