"""Engine parity over the whole corpus.

Three TIMING engines must agree bit for bit: the interpreted walk
(``SimOptions.timing(fast=False)``), the compiled schedule (``simulate``)
and the batched core (``simulate_many``).  A NUMERIC run is the walk with
array data, so its clocks and counters are the TIMING walk's, and its
arrays are what the sequential reference computes.

This harness checks every pair over one corpus: the paper's four
programs, the three kernels and ``gen_0`` .. ``gen_7``, each in its small
configuration under the five distinct optimizations of the paper's keys
(``pl_shmem`` is ``pl`` on the SHMEM binding, so it adds no program):
75 cases.  Each case runs on every IRONMAN binding at 16 ranks:

* compiled == walk (:func:`assert_same_run`);
* one ``simulate_many`` over :data:`DIVERSE_OVERRIDES`, each row equal to
  that variant's compiled run (:func:`assert_same_row`);

and on t3d/16 PVM, NUMERIC equals the TIMING walk on time, clocks and
counters, and every array is within 1e-12 of ``reference_run`` on the
lowered program.

Each binding's runs of a case are simulated once per session
(:func:`corpus_runs`, :func:`assert_corpus_rows`): the paper-matrix
tests of ``test_fastpath.py`` and ``test_batch.py`` and the block-form
corpus of ``test_block_forms.py`` are views of these cases and read the
same runs.  The other parity tests (hypothesis differentials, the
``-m slow`` matrices, edge-case programs) hold their runs with the same
two assertions.
"""

from functools import lru_cache

import numpy as np
import pytest

from repro import (
    ExecutionMode,
    SimOptions,
    optimize,
    reference_run,
    simulate,
    simulate_many,
)
from repro.experiments_registry import EXPERIMENT_KEYS, experiment_spec
from repro.machine import apply_overrides, paragon, t3d
from repro.programs import BENCHMARKS, KERNELS, build_benchmark, small_config
from repro.runtime.instrument import settled_mismatches

#: every IRONMAN binding on 16 ranks
BINDINGS = (
    t3d(16, "pvm"),
    t3d(16, "shmem"),
    paragon(16, "nx"),
    paragon(16, "nx_async"),
    paragon(16, "nx_callback"),
)

#: the first of the paper's keys with each distinct optimization
_FIRST_KEY = {}
for _key in EXPERIMENT_KEYS:
    _FIRST_KEY.setdefault(experiment_spec(_key).opt, _key)
KEYS = tuple(_FIRST_KEY.values())

CORPUS = BENCHMARKS + KERNELS + tuple(f"gen_{seed}" for seed in range(8))
CASES = [(name, key) for name in CORPUS for key in KEYS]

# A spread of overrides that together exercise every dispatch path the
# batched engine vectorizes: wire cost, raw DR latency, software
# overhead (flat and past the knee), rendezvous spread surcharge, and
# compute rate.
DIVERSE_OVERRIDES = [
    {},
    {"net.latency": 1e-6, "net.bandwidth": 5e7},
    {"net.raw_latency": 9e-5},
    {"prim.*.fixed": 8e-5, "prim.*.spread_penalty": 5e-6},
    {"prim.*.knee_bytes": 32, "prim.*.per_byte_beyond": 1e-6},
    {"compute.flop_time": 2e-8, "compute.loop_overhead": 1e-6},
]


def _variants(base, override_sets):
    return [apply_overrides(base, o) if o else base for o in override_sets]


#: each binding's cost variants by library, the binding itself first;
#: built once, so every case reuses their packed costs
VARIANTS = {base.library: _variants(base, DIVERSE_OVERRIDES) for base in BINDINGS}


# ---------------------------------------------------------------------------
# the two assertions
# ---------------------------------------------------------------------------


def assert_same_run(walk, fast, where=""):
    """The compiled run ``fast`` is the walk ``walk``, bit for bit: time,
    clocks, static and dynamic counts, every settled counter and account
    vector, warnings and scalars."""
    assert walk.fastpath is None and fast.fastpath is not None, where
    assert repr(fast.time) == repr(walk.time), where
    assert fast.clocks.tobytes() == walk.clocks.tobytes(), where
    assert fast.static_comm_count == walk.static_comm_count, where
    assert fast.dynamic_comm_count == walk.dynamic_comm_count, where
    assert settled_mismatches(fast.instrument, walk.instrument) == [], where
    assert fast.warnings == walk.warnings, where
    assert fast.scalars == walk.scalars, where


def run_pair(program, machine, where=""):
    """The walk and the compiled run of ``program`` on ``machine``, held
    equal by :func:`assert_same_run`."""
    walk = simulate(program, machine, options=SimOptions.timing(fast=False))
    fast = simulate(program, machine, options=SimOptions.timing())
    assert_same_run(walk, fast, where)
    return walk, fast


def assert_same_row(run, v, scalar, where=""):
    """Row ``v`` of the ``BatchRun`` ``run`` is the scalar run of that
    variant, bit for bit: time, clocks, static and dynamic counts, the
    three counter rows, reductions, warnings and scalars (the batch
    keeps no call counts or account)."""
    assert repr(float(run.times[v])) == repr(scalar.time), where
    assert run.clocks[v].tobytes() == scalar.clocks.tobytes(), where
    assert run.static_comm_count == scalar.static_comm_count, where
    assert run.dynamic_comm_count == scalar.dynamic_comm_count, where
    assert run.instrument.counts.tobytes() == scalar.instrument.counts.tobytes(), where
    assert run.instrument.reductions == scalar.instrument.reductions, where
    assert run.warnings == scalar.warnings, where
    assert run.scalars == scalar.scalars, where


# ---------------------------------------------------------------------------
# the corpus
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _lowered(name):
    """``name`` in its small configuration, lowered once per session:
    every case optimizes it (``optimize`` leaves its input unchanged)."""
    return build_benchmark(name, config=small_config(name))


@lru_cache(maxsize=None)
def _reference(name):
    return reference_run(_lowered(name))


def corpus_key(key):
    """The harness's key for a paper key: the first with its optimization
    (``pl_shmem`` -> ``pl``)."""
    return _FIRST_KEY[experiment_spec(key).opt]


@lru_cache(maxsize=None)
def corpus_program(name, key):
    """Case ``(name, key)``: ``name`` in its small configuration under
    ``key``'s optimization, built once per session."""
    return optimize(_lowered(name), experiment_spec(key).opt)


@lru_cache(maxsize=None)
def corpus_runs(name, key, library):
    """The walk of case ``(name, key)`` on ``library``'s binding and the
    compiled run of each of its :data:`VARIANTS`, the first held equal to
    the walk by :func:`assert_same_run`.  Simulated once per session; a
    failed check caches nothing, so every caller sees it fail."""
    program = corpus_program(name, key)
    variants = VARIANTS[library]
    walk, fast = run_pair(program, variants[0], f"{name} {key} on {library}")
    rest = (simulate(program, machine, ExecutionMode.TIMING) for machine in variants[1:])
    return walk, (fast, *rest)


@lru_cache(maxsize=None)
def assert_corpus_rows(name, key, library):
    """One ``simulate_many`` of case ``(name, key)`` over ``library``'s
    :data:`VARIANTS`, each row held equal to that variant's compiled run
    by :func:`assert_same_row`; once per session, like
    :func:`corpus_runs`."""
    _, scalars = corpus_runs(name, key, library)
    run = simulate_many(corpus_program(name, key), VARIANTS[library])
    for v, scalar in enumerate(scalars):
        assert_same_row(run, v, scalar, f"{name} {key} on {library} variant {v}")


def test_corpus_reaches_every_distinct_optimization():
    assert KEYS == ("baseline", "rr", "cc", "pl", "pl_maxlat")
    assert len(CASES) == 75


@pytest.mark.parametrize("name, key", CASES, ids=lambda x: x)
def test_engines_agree(name, key):
    for library in VARIANTS:
        assert_corpus_rows(name, key, library)

    walk, _ = corpus_runs(name, key, "pvm")
    numeric = simulate(corpus_program(name, key), BINDINGS[0], ExecutionMode.NUMERIC)
    assert repr(numeric.time) == repr(walk.time)
    assert numeric.clocks.tobytes() == walk.clocks.tobytes()
    assert numeric.instrument.counts.tobytes() == walk.instrument.counts.tobytes()
    reference = _reference(name)
    for array in sorted(reference.arrays):
        assert np.allclose(
            numeric.array(array), reference.array(array), rtol=1e-12, atol=1e-12
        ), array
