"""The experiment-key registry (the paper's Figure 9), engine-neutral.

==================  =============================================  ========
key                 description                                    library
==================  =============================================  ========
baseline            message vectorization                          pvm
rr                  baseline + redundant communication removal     pvm
cc                  rr + communication combination                 pvm
pl                  cc + communication pipelining                  pvm
pl_shmem            pl using shmem_put                             shmem
pl_maxlat           pl with shmem, combining for max latency       shmem
==================  =============================================  ========

The paper's experiments are *cumulative* — each key adds one
optimization — and the library is an orthogonal axis that the last two
keys flip to SHMEM.

This module deliberately sits below both :mod:`repro.engine` and
:mod:`repro.analysis`: the engine needs to resolve keys to optimization
pipelines when fingerprinting jobs, and the analysis layer needs the
same table to drive figures — importing the table from either side used
to create a deferred-import cycle (``engine.jobs`` reached into
``analysis.experiments`` inside function bodies).  Both now import from
here; :mod:`repro.analysis.experiments` re-exports every name so the
historical import paths keep working.

An experiment key resolves to an :class:`ExperimentSpec` (key, opt,
library, description), read by field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.comm import OptimizationConfig
from repro.errors import ExperimentError

#: Experiment keys in the paper's presentation order.
EXPERIMENT_KEYS: Tuple[str, ...] = (
    "baseline",
    "rr",
    "cc",
    "pl",
    "pl_shmem",
    "pl_maxlat",
)

#: The composition study's keys (:mod:`repro.analysis.composition`).
#: The paper's keys are *cumulative* (``cc`` means rr+cc), so ratios
#: between adjacent keys multiply to exactly the combined ratio — a
#: circular calculation that would make every composition factor 1 by
#: construction.  Independent prediction needs each optimization
#: measured *alone*; ``cc_only``/``pl_only`` exist for that and are
#: deliberately not part of the paper's key set above.
COMPOSITION_KEYS: Tuple[str, ...] = (
    "baseline",
    "rr",
    "cc_only",
    "pl_only",
    "pl",
)


@dataclass(frozen=True)
class ExperimentSpec:
    """One of the paper's experiment configurations, by name.

    Attributes
    ----------
    key:
        The experiment key (``"baseline"`` ... ``"pl_maxlat"``).
    opt:
        The resolved :class:`~repro.comm.OptimizationConfig`.
    library:
        The communication library the paper pairs with the key (``pvm``
        for the message-passing keys, ``shmem`` for the last two).
    description:
        The paper's cumulative description of the configuration.
    """

    key: str
    opt: OptimizationConfig
    library: str
    description: str

    def pipeline(self, verify: bool = False):
        """The resolved :class:`~repro.comm.passes.PassPipeline` this key
        compiles to (what the engine fingerprints)."""
        return self.opt.pipeline(verify=verify)


_SPECS: Dict[str, ExperimentSpec] = {
    spec.key: spec
    for spec in (
        ExperimentSpec(
            "baseline",
            OptimizationConfig.baseline(),
            "pvm",
            "message vectorization",
        ),
        ExperimentSpec(
            "rr",
            OptimizationConfig.rr_only(),
            "pvm",
            "baseline with removing redundant communication",
        ),
        ExperimentSpec(
            "cc",
            OptimizationConfig.rr_cc(),
            "pvm",
            "rr with combining communication",
        ),
        ExperimentSpec(
            "pl",
            OptimizationConfig.full(),
            "pvm",
            "cc with pipelining",
        ),
        ExperimentSpec(
            "pl_shmem",
            OptimizationConfig.full(),
            "shmem",
            "pl using shmem_put",
        ),
        ExperimentSpec(
            "pl_maxlat",
            OptimizationConfig.full_max_latency(),
            "shmem",
            "pl with shmem, combining for maximum latency hiding",
        ),
        # single-optimization keys for the composition study: each
        # optimization alone over the vectorized baseline (the pass
        # legality model admits both — combining's redundancy ordering
        # is a soft constraint, pipelining is merely terminal)
        ExperimentSpec(
            "cc_only",
            OptimizationConfig(cc=True),
            "pvm",
            "combining communication alone (composition study)",
        ),
        ExperimentSpec(
            "pl_only",
            OptimizationConfig(pl=True),
            "pvm",
            "pipelining alone (composition study)",
        ),
    )
}


def experiment_spec(key: str) -> ExperimentSpec:
    """The :class:`ExperimentSpec` for an experiment key."""
    try:
        return _SPECS[key]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {key!r} (valid: {', '.join(_SPECS)})"
        ) from None


@dataclass(frozen=True)
class ExperimentResult:
    """One cell of a Table 1-4 style table."""

    benchmark: str
    experiment: str
    library: str
    static_count: int
    dynamic_count: int
    execution_time: float

    def scaled_to(self, baseline: "ExperimentResult") -> float:
        """Execution time relative to a baseline run (the paper's plots)."""
        return self.execution_time / baseline.execution_time


__all__ = [
    "COMPOSITION_KEYS",
    "EXPERIMENT_KEYS",
    "ExperimentResult",
    "ExperimentSpec",
    "experiment_spec",
]
