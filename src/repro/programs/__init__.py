"""The benchmark programs, written in ZL.

The paper evaluates four substantial data-parallel programs (its
Figure 7) plus a synthetic two-node overhead benchmark (its Figure 6).
The original ZPL sources are not available; these are re-derived
implementations that preserve the *communication structure* the paper
describes and depends on:

``tomcatv``
    Thompson solver / mesh generation (SPEC).  One large main-loop basic
    block containing the paper's exact Figure 4 fragment (its redundancy
    and combining behaviour is analyzed in the text), a tridiagonal-style
    relaxation with cross-iteration dependences that limit pipelining,
    and a narrow-band sequential phase.

``swm``
    Shallow-water weather prediction.  Three phase procedures per time
    step (block boundaries at call sites), with each shift direction
    confined to a single statement per block — the structure under which
    the max-latency-hiding heuristic retains every combination.

``simple``
    Livermore hydrodynamics.  Many long basic blocks with heavily
    repeated stencil references (large redundancy-removal gains), mixed
    same/different-statement direction groups (partial max-latency
    combining), and all communication in the main body (pipelining and
    one-sided communication pay off).

``sp``
    NAS SP-like 3-D ADI solver: rank-3 arrays distributed over the 2-D
    mesh with a local third dimension (z sweeps communicate nothing),
    x/y line-solve sweeps with cross-iteration dependences, and
    band-confined phases.

Beyond the paper's four, the registry also serves a classic-kernel
corpus (``jacobi``, ``rbgs``, ``multigrid`` — see each module for why
its communication shape adds coverage the paper's programs lack) and
*generated* synthetic programs: any ``gen_<seed>`` name resolves
through :mod:`repro.programs.generate`, the seeded ZL program
generator.  All three families flow through every surface (studies,
sweeps, frontier, composition) identically.

Each module holds ``SOURCE`` (the ZL text), ``DEFAULT_CONFIG`` and
``SMALL_CONFIG``; :mod:`repro.programs.registry` maps names to them.
:func:`~repro.programs.registry.build_benchmark` compiles a name's
source under its default config updated by the caller's, into an
:class:`~repro.ir.nodes.IRProgram`, as the engine's compile cache does.
"""

from repro.programs.registry import (
    BENCHMARKS,
    KERNELS,
    available_benchmarks,
    build_benchmark,
    benchmark_source,
    default_config,
    small_config,
    validate_benchmark,
)

__all__ = [
    "BENCHMARKS",
    "KERNELS",
    "available_benchmarks",
    "build_benchmark",
    "benchmark_source",
    "default_config",
    "small_config",
    "validate_benchmark",
]
