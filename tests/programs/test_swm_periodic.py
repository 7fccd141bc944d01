"""Tests for the periodic SWM variant."""

import numpy as np
import pytest

from repro import ExecutionMode, OptimizationConfig, reference_run, simulate, t3d
from repro.programs import build_benchmark, small_config, swm_periodic
from repro.programs.common import compile_source


def _small(opt=None):
    """The periodic SWM at its small config (``opt=None``: lowered only)."""
    return compile_source(
        swm_periodic.SOURCE, "swm_periodic.zl", swm_periodic.SMALL_CONFIG, opt
    )


def test_every_transfer_is_periodic():
    prog = _small(OptimizationConfig.full())
    descs = prog.all_descriptors()
    assert descs
    assert all(d.wrap for d in descs)


@pytest.mark.parametrize("lib", ["pvm", "shmem"])
def test_numerics_match_reference(lib):
    base = _small()
    ref = reference_run(base)
    prog = _small(OptimizationConfig.full())
    res = simulate(prog, t3d(16, lib), ExecutionMode.NUMERIC)
    for name in ("P", "U", "V"):
        assert np.allclose(res.array(name), ref.array(name))


def test_every_rank_participates_in_every_transfer():
    """On the torus there are no edge processors: the per-rank dynamic
    counts are identical everywhere."""
    prog = _small(OptimizationConfig.full())
    res = simulate(prog, t3d(16), ExecutionMode.TIMING)
    assert res.dynamic_comms.min() == res.dynamic_comms.max() > 0


def test_torus_moves_more_messages_than_bounded_mesh():
    """A periodic axis transfer involves every processor pair around the
    ring (16 messages on a 4x4 mesh), where the bounded variant's edge
    column has no partner (12 messages)."""
    periodic = simulate(
        _small(OptimizationConfig.full()),
        t3d(16),
        ExecutionMode.TIMING,
    )
    bounded = simulate(
        build_benchmark(
            "swm", config=small_config("swm"), opt=OptimizationConfig.full()
        ),
        t3d(16),
        ExecutionMode.TIMING,
    )
    per_transfer_periodic = (
        periodic.instrument.total_messages / periodic.instrument.dynamic_comms.max()
    )
    per_transfer_bounded = (
        bounded.instrument.total_messages / bounded.instrument.dynamic_comms.max()
    )
    assert per_transfer_periodic > per_transfer_bounded


def test_maxlat_still_keeps_every_combination():
    """The phase structure is unchanged, so the SWM heuristic signature
    carries over to the torus."""
    cc = _small(OptimizationConfig.rr_cc())
    ml = _small(OptimizationConfig.full_max_latency())
    assert len(ml.all_descriptors()) == len(cc.all_descriptors())
