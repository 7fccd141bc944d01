"""Job model for the experiment engine.

A :class:`Job` is one cell of the whole-program study's matrix —
``experiment key x benchmark x machine`` — described entirely by
picklable value objects so it can cross a ``ProcessPoolExecutor``
boundary, and entirely by *content* so it can be fingerprinted for the
on-disk result cache.

The fingerprint is a SHA-256 over a canonical JSON document containing
everything that can change the simulation's outcome: the benchmark's ZL
source hash, the resolved :class:`~repro.comm.OptimizationConfig` *and*
the signature of the passes it runs (so re-ordering or re-naming
passes invalidates old entries even when the config booleans read the
same), the machine binding (name, processor count, library), the
*merged* config constants (defaults + overrides, so editing a
benchmark's ``DEFAULT_CONFIG`` invalidates old entries), the execution
mode, and the engine/package versions.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Mapping, Optional, Tuple, Union

from repro.errors import ExperimentError, MachineError
from repro.experiments_registry import experiment_spec
from repro.machine import Machine, machine_by_name
from repro.machine.variants import (
    OverrideValue,
    apply_overrides,
    normalize_overrides,
    variant_id,
)
from repro.programs import benchmark_source, default_config

#: Bump to invalidate every existing cache entry (schema or semantics
#: changes in the engine itself).  2: job fingerprints cover the resolved
#: pass-pipeline signature and records carry its per-pass report.
#: 3: TIMING clocks use the epoch + rebased-offset representation (times
#: shift by ulps) and records carry the fast-path counters.
#: 4: loops whose state cycles extrapolate too, so records' fast-path
#: counters changed (times did not).
ENGINE_VERSION = 4

ConfigValue = Union[int, float]


@lru_cache(maxsize=256)
def _text_sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def source_sha(benchmark: str) -> str:
    """SHA-256 of a bundled benchmark's ZL source text.

    The memo is keyed on the source *text* (bounded LRU), not the
    benchmark name: redefining a benchmark's ``SOURCE`` inside one
    long-lived process yields the new hash immediately instead of a
    stale per-name entry."""
    return _text_sha(benchmark_source(benchmark))


@dataclass(frozen=True)
class MachineSpec:
    """A machine described by value, not by object.

    ``library=None`` defers to the experiment key's library (PVM for the
    message-passing keys, SHMEM for ``pl_shmem``/``pl_maxlat``) — the
    paper's default binding.  An explicit library overrides the key.

    ``overrides`` derives a swept machine *variant*: a sorted tuple of
    ``(path, value)`` parameter overrides (see
    :mod:`repro.machine.variants`) applied on top of the named factory
    machine.  Non-empty overrides flow into the job fingerprint through
    their content, so every variant caches independently.
    """

    name: str = "t3d"
    nprocs: int = 64
    library: Optional[str] = None
    overrides: Tuple[Tuple[str, OverrideValue], ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.nprocs, int) or isinstance(self.nprocs, bool):
            raise MachineError(
                f"processor count must be an integer, got {self.nprocs!r}"
            )
        if self.nprocs < 1:
            raise MachineError(
                f"processor count must be positive, got {self.nprocs}"
            )
        # canonicalize + validate eagerly: a bad path fails at spec
        # construction, not inside a pool worker
        object.__setattr__(
            self, "overrides", normalize_overrides(dict(self.overrides))
        )

    @property
    def variant(self) -> str:
        """Content-stable variant identifier (``"base"`` unswept)."""
        return variant_id(dict(self.overrides))

    def build(self, default_library: Optional[str] = None) -> Machine:
        """Materialize the simulated machine (with overrides applied)."""
        machine = machine_by_name(
            self.name, self.nprocs, self.library or default_library
        )
        if self.overrides:
            machine = apply_overrides(machine, dict(self.overrides))
        return machine

    @classmethod
    def coerce(
        cls,
        machine: Union["MachineSpec", str, None],
        nprocs: Optional[int] = None,
        library: Optional[str] = None,
        overrides: Optional[Mapping[str, OverrideValue]] = None,
    ) -> "MachineSpec":
        """Accept a spec, a machine name, or None (the paper's T3D)."""
        if machine is None:
            machine = cls()
        elif isinstance(machine, str):
            machine = cls(name=machine)
        elif not isinstance(machine, MachineSpec):
            raise ExperimentError(
                f"machine must be a name or MachineSpec, not {machine!r}"
            )
        if nprocs is not None:
            machine = dataclasses.replace(machine, nprocs=nprocs)
        if library is not None:
            machine = dataclasses.replace(machine, library=library)
        if overrides is not None:
            machine = dataclasses.replace(
                machine, overrides=tuple(sorted(overrides.items()))
            )
        return machine


@dataclass(frozen=True)
class Job:
    """One engine job: run ``benchmark`` under ``experiment`` on
    ``machine`` with ``config`` overrides.

    ``config`` is a sorted tuple of ``(name, value)`` pairs (hashable and
    picklable); build jobs through :meth:`make` to pass a plain dict.
    """

    benchmark: str
    experiment: str
    machine: MachineSpec = MachineSpec()
    config: Tuple[Tuple[str, ConfigValue], ...] = ()
    mode: str = "timing"

    @classmethod
    def make(
        cls,
        benchmark: str,
        experiment: str,
        machine: Union[MachineSpec, str, None] = None,
        config: Optional[Mapping[str, ConfigValue]] = None,
        mode: str = "timing",
    ) -> "Job":
        return cls(
            benchmark=benchmark,
            experiment=experiment,
            machine=MachineSpec.coerce(machine),
            config=tuple(sorted((config or {}).items())),
            mode=mode,
        )

    def merged_config(self) -> Dict[str, ConfigValue]:
        """The benchmark's defaults with this job's overrides applied."""
        merged = default_config(self.benchmark)
        merged.update(dict(self.config))
        return merged

    def effective_library(self) -> str:
        """The library the job will actually bind (spec or key default)."""
        return self.machine.library or experiment_spec(self.experiment).library

    def fingerprint(self) -> str:
        """Content hash identifying this job for the result cache."""
        import repro

        spec = experiment_spec(self.experiment)
        machine_payload = {
            "name": self.machine.name,
            "nprocs": self.machine.nprocs,
            "library": self.machine.library or spec.library,
        }
        if self.machine.overrides:
            # swept variants fingerprint by override content; the base
            # machine's payload (and so every pre-sweep cache entry)
            # stays byte-identical
            machine_payload["overrides"] = [
                list(item) for item in self.machine.overrides
            ]
        payload = {
            "engine": ENGINE_VERSION,
            "repro": repro.__version__,
            "benchmark": self.benchmark,
            "source": source_sha(self.benchmark),
            "experiment": self.experiment,
            "opt": dataclasses.asdict(spec.opt),
            "pipeline": list(spec.opt.signature()),
            "machine": machine_payload,
            "config": self.merged_config(),
            "mode": self.mode,
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()
