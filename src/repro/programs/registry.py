"""Registry mapping program names to sources and configs.

Three name families resolve here, and everything downstream — the
engine's job fingerprints (:meth:`repro.engine.Job.fingerprint` hashes
``benchmark_source``), the worker's compile cache, sweeps, frontier
refinement, composition — accepts all of them uniformly:

* the paper's four whole-program benchmarks (:data:`BENCHMARKS`);
* the classic-kernel corpus (:data:`KERNELS` — Jacobi, red-black
  Gauss-Seidel, a multigrid ladder);
* generated synthetic programs, addressed as ``gen_<seed>`` and
  manufactured on demand by :mod:`repro.programs.generate` (the default
  feature profile; build :func:`~repro.programs.generate.generate_source`
  directly for custom profiles).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.comm import OptimizationConfig
from repro.errors import ExperimentError
from repro.ir.nodes import IRProgram
from repro.programs.common import compile_source


def _modules():
    # local import to avoid import cycles at package load
    from repro.programs import jacobi, multigrid, rbgs, simple, sp, swm, tomcatv

    return {
        "tomcatv": tomcatv,
        "swm": swm,
        "simple": simple,
        "sp": sp,
        "jacobi": jacobi,
        "rbgs": rbgs,
        "multigrid": multigrid,
    }


#: Names of the paper's four whole-program benchmarks, in Figure 7 order.
BENCHMARKS = ("tomcatv", "swm", "simple", "sp")

#: Names of the classic-kernel corpus (not in the paper; see each module).
KERNELS = ("jacobi", "rbgs", "multigrid")


def available_benchmarks() -> Tuple[str, ...]:
    """Every registered fixed program name (benchmarks then kernels).

    Generated programs (``gen_<seed>``) are not enumerable — any
    non-negative seed is valid — so they are not listed here.
    """
    return BENCHMARKS + KERNELS


def _generated_seed(name: str) -> Optional[int]:
    from repro.programs.generate import generated_seed

    return generated_seed(name) if isinstance(name, str) else None


def validate_benchmark(name: str) -> str:
    """Check that ``name`` resolves (fixed program or ``gen_<seed>``)
    and return it unchanged; raises :class:`ExperimentError` otherwise.
    The CLI uses this as an argparse ``type=``."""
    if name not in _modules() and _generated_seed(name) is None:
        raise ExperimentError(
            f"unknown benchmark {name!r} (valid: "
            f"{', '.join(available_benchmarks())}, or gen_<seed>)"
        )
    return name


def _module(name: str):
    mods = _modules()
    try:
        return mods[name]
    except KeyError:
        raise ExperimentError(
            f"unknown benchmark {name!r} (valid: "
            f"{', '.join(available_benchmarks())}, or gen_<seed>)"
        ) from None


def build_benchmark(
    name: str,
    config: Optional[Dict[str, float]] = None,
    opt: Optional[OptimizationConfig] = None,
) -> IRProgram:
    """Compile a registered program by name: its source under its
    default config updated by ``config``, optimized by ``opt`` (None:
    the lowered program without communication)."""
    merged = default_config(name)
    if config:
        merged.update(config)
    return compile_source(benchmark_source(name), f"{name}.zl", merged, opt)


def benchmark_source(name: str) -> str:
    """The ZL source text of a registered program."""
    seed = _generated_seed(name)
    if seed is not None:
        from repro.programs.generate import generate_source

        return generate_source(seed)
    return _module(name).SOURCE


def small_config(name: str) -> Dict[str, int]:
    """A reduced configuration suitable for tests (small mesh, few
    iterations); every program defines one."""
    seed = _generated_seed(name)
    if seed is not None:
        from repro.programs.generate import GEN_SMALL_CONFIG

        return dict(GEN_SMALL_CONFIG)
    return dict(_module(name).SMALL_CONFIG)


def default_config(name: str) -> Dict[str, int]:
    """The full-scale configuration of a registered program."""
    seed = _generated_seed(name)
    if seed is not None:
        from repro.programs.generate import GEN_DEFAULT_CONFIG

        return dict(GEN_DEFAULT_CONFIG)
    return dict(_module(name).DEFAULT_CONFIG)
