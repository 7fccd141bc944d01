"""Seeded generator of valid ZL programs — the synthetic corpus.

The paper evaluates the optimizer on four whole programs.  This module
manufactures an unbounded family of further inputs: given a seed (and
optionally a :class:`GeneratorProfile`), :func:`generate_source` emits a
complete, semantically valid ZL program exercising the constructs the
optimizer cares about — shifted stencil reads (``@``), periodic wrap
reads (``@@``), region-scoped statement blocks, counted and ``repeat``
loop nests, scalar reductions, branches, and multiple phase procedures
whose call sites bound basic blocks.

Three properties the rest of the repo builds on:

**Validity by construction.**  Every program compiles through the real
lexer/parser/semantic phases with no special cases.  The interior region
leaves a margin of ``profile.max_offset`` cells on every side, so plain
``@`` reads can never leave an array's domain; wrap reads use offsets
bounded by the margin, far below the domain extent; loop variables are
drawn from a reserved pool so they can never shadow a declaration; and
``repeat`` loops count a dedicated scalar upward so they terminate
without relying on array values.

**Determinism.**  The same ``(seed, profile)`` pair yields byte-identical
source text, on any platform, in any process: all randomness flows
through one :class:`random.Random` and every numeric literal is chosen
from a fixed pool of literal *strings* (never formatted floats).  The
program is named ``gen_<seed>``, and the registry resolves that name
back through :func:`generated_seed`, which makes generated programs
first-class benchmarks: ``run_study(benchmarks=("gen_7",))`` works, as
do sweeps, the frontier tools, and composition — engine fingerprints
key on the generated *source text*, so cached results stay correct even
if the generator evolves.

**Numeric boundedness.**  Stencil updates are damped convex-ish
combinations with coefficients well below 1 over initial data of
magnitude ``O(n)``, so NUMERIC-mode differential runs (compiled fast
path vs interpreted oracle, batched vs scalar) stay finite over the
short iteration counts the corpus uses.  Control flow never depends on
array contents: branch and ``repeat`` conditions read only *control
scalars* updated by literal arithmetic, keeping TIMING-mode runs exact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from random import Random
from typing import Dict, List, Optional, Tuple

from repro.comm import OptimizationConfig
from repro.errors import ExperimentError
from repro.ir.nodes import IRProgram
from repro.programs.common import compile_source

__all__ = [
    "DEFAULT_PROFILE",
    "GEN_DEFAULT_CONFIG",
    "GEN_SMALL_CONFIG",
    "GeneratorProfile",
    "generate_program",
    "generate_source",
    "generated_name",
    "generated_seed",
]

#: Coefficient pool for damped stencil updates.  Literal *strings*, so
#: the emitted source is byte-stable and never passes through float
#: formatting.  All values are small enough that any statement this
#: module emits is a bounded update of bounded inputs.
_COEFFS = ("0.5", "0.25", "0.125", "0.1", "0.05", "0.2", "0.3", "0.15")

#: Scalar seed literals for control-scalar initialization.
_SCALAR_LITS = ("0.0", "1.0", "2.0", "0.5", "3.0")

#: Reduction operators (``<<`` spelled by the emitter).
_REDUCTIONS = ("+", "max", "min")

#: One-argument intrinsics safe on any finite input.
_UNARY = ("abs", "sin", "cos", "tanh")

_GENERATED_RE = re.compile(r"^gen_(\d{1,9})$")

#: Config defaults/smalls for generated programs (mirrors the bundled
#: benchmark modules' ``DEFAULT_CONFIG``/``SMALL_CONFIG`` contract).
GEN_DEFAULT_CONFIG: Dict[str, int] = {"n": 16, "niters": 2}
GEN_SMALL_CONFIG: Dict[str, int] = {"n": 12, "niters": 1}


@dataclass(frozen=True)
class GeneratorProfile:
    """The feature profile of a generated program.

    Each field biases one axis of the emitted corpus; the defaults give
    compact programs (~40 statements) that still exercise every
    construct.  Profiles are plain frozen dataclasses so hypothesis
    strategies can build them directly.

    Attributes
    ----------
    arrays:
        Parallel arrays declared over the full region (>= 2).
    scalars:
        Data scalars fed by reductions (>= 1); two *control* scalars are
        always added on top for branch/repeat conditions.
    directions:
        Distinct direction vectors to declare (>= 1; deduplicated by
        offset, so fewer may be emitted for tiny ``max_offset``).
    max_offset:
        Bound on each direction component's magnitude (>= 1); also the
        interior-region margin, so ``@`` reads are valid by construction.
    phases:
        Phase procedures called from the main loop (>= 1).
    statements:
        Array statements per phase (>= 1).
    terms:
        Maximum shifted terms on one statement's right-hand side (>= 1).
    reduction_prob, wrap_prob, scope_block_prob, branch_prob:
        Per-opportunity probabilities of emitting a scalar reduction
        statement, using a wrap (``@@``) read, wrapping a statement run
        in a ``[In] begin .. end`` scope block, or emitting a branch.
    repeat_prob:
        Probability that a phase call in ``main`` is driven by a counted
        ``repeat`` loop instead of being called once per iteration.
    inner_loop_prob:
        Probability that a phase body nests part of itself in a counted
        ``for`` loop.
    n, niters:
        Config defaults baked into the source (overridable at compile
        time like any benchmark config).  ``n`` must leave a usable
        interior: ``n >= 2 * max_offset + 4``.
    """

    arrays: int = 4
    scalars: int = 2
    directions: int = 4
    max_offset: int = 2
    phases: int = 2
    statements: int = 5
    terms: int = 3
    reduction_prob: float = 0.3
    wrap_prob: float = 0.2
    scope_block_prob: float = 0.3
    repeat_prob: float = 0.25
    branch_prob: float = 0.2
    inner_loop_prob: float = 0.25
    n: int = 16
    niters: int = 2

    def __post_init__(self) -> None:
        for field_name, minimum in (
            ("arrays", 2),
            ("scalars", 1),
            ("directions", 1),
            ("max_offset", 1),
            ("phases", 1),
            ("statements", 1),
            ("terms", 1),
            ("niters", 1),
        ):
            value = getattr(self, field_name)
            if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
                raise ExperimentError(
                    f"generator profile {field_name} must be an integer "
                    f">= {minimum}, got {value!r}"
                )
        for field_name in (
            "reduction_prob",
            "wrap_prob",
            "scope_block_prob",
            "repeat_prob",
            "branch_prob",
            "inner_loop_prob",
        ):
            value = getattr(self, field_name)
            if not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
                raise ExperimentError(
                    f"generator profile {field_name} must be in [0, 1], "
                    f"got {value!r}"
                )
        floor = 2 * self.max_offset + 4
        if not isinstance(self.n, int) or self.n < floor:
            raise ExperimentError(
                f"generator profile n must be an integer >= {floor} "
                f"(2 * max_offset + 4) so the interior region is non-empty, "
                f"got {self.n!r}"
            )


DEFAULT_PROFILE = GeneratorProfile()


def generated_name(seed: int) -> str:
    """The registry name of the generated program for ``seed``."""
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ExperimentError(f"generator seed must be a non-negative integer, got {seed!r}")
    return f"gen_{seed}"


def generated_seed(name: str) -> Optional[int]:
    """The seed encoded in a ``gen_<seed>`` benchmark name, else None."""
    match = _GENERATED_RE.match(name)
    return int(match.group(1)) if match else None


class _Emitter:
    """Indentation-tracking line buffer."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.depth = 0

    def emit(self, text: str = "") -> None:
        self.lines.append(("  " * self.depth + text) if text else "")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


class _Generator:
    def __init__(self, seed: int, profile: GeneratorProfile) -> None:
        self.rng = Random(seed)
        self.seed = seed
        self.p = profile
        self.out = _Emitter()
        self.arrays = [f"A{i}" for i in range(profile.arrays)]
        self.scalars = [f"s{i}" for i in range(profile.scalars)]
        # control scalars: drive branches and repeat loops with literal
        # arithmetic only, so control flow never depends on array data
        self.controls = ["c0", "c1"]
        self.directions = self._pick_directions()
        self.loop_vars = 0

    # -- declarations -----------------------------------------------------

    def _pick_directions(self) -> List[Tuple[str, Tuple[int, int]]]:
        """Distinct non-zero offset vectors within ``max_offset``."""
        m = self.p.max_offset
        seen = set()
        picked: List[Tuple[str, Tuple[int, int]]] = []
        # axis-unit directions first: every generated program has at
        # least one classic nearest-neighbour exchange
        pool = [(0, 1), (0, -1), (1, 0), (-1, 0)]
        while len(picked) < self.p.directions:
            if pool:
                off = pool.pop(0)
            else:
                off = (
                    self.rng.randint(-m, m),
                    self.rng.randint(-m, m),
                )
                if off == (0, 0) or off in seen:
                    # bounded retry through the while loop
                    if len(seen) >= (2 * m + 1) ** 2 - 1:
                        break
                    continue
            if off in seen:
                continue
            seen.add(off)
            picked.append((f"d{len(picked)}", off))
        return picked

    def _fresh_loop_var(self) -> str:
        self.loop_vars += 1
        return f"i{self.loop_vars}"

    # -- expression pieces ------------------------------------------------

    def _coeff(self) -> str:
        return self.rng.choice(_COEFFS)

    def _shifted_ref(self) -> str:
        array = self.rng.choice(self.arrays)
        dname, _ = self.rng.choice(self.directions)
        op = "@@" if self.rng.random() < self.p.wrap_prob else "@"
        return f"{array}{op}{dname}"

    def _stencil_rhs(self, target: str) -> str:
        """A damped update: ``c0 * target + sum(ci * shifted-or-local)``.

        Coefficients come from a pool bounded by 0.5 and each statement
        divides the sum by the term count, so iterates stay bounded.
        """
        nterms = self.rng.randint(1, self.p.terms)
        terms = []
        for _ in range(nterms):
            ref = self._shifted_ref()
            if self.rng.random() < 0.2:
                ref = f"{self.rng.choice(_UNARY)}({ref})"
            terms.append(f"{self._coeff()} * {ref}")
        body = " + ".join(terms)
        return f"{self._coeff()} * {target} + ({body}) / {nterms}.0"

    # -- statements -------------------------------------------------------

    def _array_statement(self) -> str:
        target = self.rng.choice(self.arrays)
        return f"{target} := {self._stencil_rhs(target)};"

    def _reduction_statement(self) -> str:
        scalar = self.rng.choice(self.scalars)
        op = self.rng.choice(_REDUCTIONS)
        array = self.rng.choice(self.arrays)
        operand = f"abs({array})" if op in ("max", "min") else f"{self._coeff()} * {array}"
        return f"{scalar} := {op}<< {operand};"

    def _emit_statement_run(self, count: int) -> None:
        """``count`` region statements, possibly grouped in a scope block."""
        out = self.out
        if count > 1 and self.rng.random() < self.p.scope_block_prob:
            out.emit("[In] begin")
            out.depth += 1
            for _ in range(count):
                out.emit(self._array_statement())
            out.depth -= 1
            out.emit("end;")
        else:
            for _ in range(count):
                out.emit(f"[In] {self._array_statement()}")

    def _emit_phase_body(self) -> None:
        out = self.out
        remaining = self.p.statements
        while remaining > 0:
            run = self.rng.randint(1, min(3, remaining))
            roll = self.rng.random()
            if roll < self.p.branch_prob:
                # branch on a control scalar; both arms do array work so
                # either path exercises communication
                control = self.rng.choice(self.controls)
                out.emit(f"if {control} > {self.rng.choice(_SCALAR_LITS)} then")
                out.depth += 1
                self._emit_statement_run(run)
                out.depth -= 1
                out.emit("else")
                out.depth += 1
                out.emit(f"[In] {self._array_statement()}")
                out.depth -= 1
                out.emit("end;")
            elif roll < self.p.branch_prob + self.p.inner_loop_prob:
                var = self._fresh_loop_var()
                trips = self.rng.randint(2, 3)
                out.emit(f"for {var} := 1 to {trips} do")
                out.depth += 1
                self._emit_statement_run(run)
                out.depth -= 1
                out.emit("end;")
            else:
                self._emit_statement_run(run)
            if self.rng.random() < self.p.reduction_prob:
                out.emit(f"[In] {self._reduction_statement()}")
            remaining -= run

    # -- whole program ----------------------------------------------------

    def generate(self) -> str:
        p, out = self.p, self.out
        margin = p.max_offset
        out.emit(f"program gen_{self.seed};")
        out.emit()
        out.emit("-- generated by repro.programs.generate:")
        out.emit(f"--   seed={self.seed} profile={_profile_tag(p)}")
        out.emit()
        out.emit(f"config n      : integer = {p.n};")
        out.emit(f"config niters : integer = {p.niters};")
        out.emit()
        out.emit("region R  = [1..n, 1..n];")
        out.emit(f"region In = [{1 + margin}..n-{margin}, {1 + margin}..n-{margin}];")
        out.emit()
        for name, (di, dj) in self.directions:
            out.emit(f"direction {name} = [{di}, {dj}];")
        out.emit()
        out.emit(f"var {', '.join(self.arrays)} : [R] double;")
        out.emit(f"var {', '.join(self.scalars + self.controls + ['chk'])} : double;")
        out.emit()

        out.emit("procedure init();")
        out.emit("begin")
        out.depth += 1
        for i, array in enumerate(self.arrays):
            ca, cb, cc = self._coeff(), self._coeff(), self._coeff()
            trig = self.rng.choice(("sin", "cos"))
            out.emit(
                f"[R] {array} := {ca} * index1 + {cb} * index2 "
                f"+ {cc} * {trig}(index1 + {i}.0);"
            )
        for scalar in self.scalars + self.controls:
            out.emit(f"{scalar} := {self.rng.choice(_SCALAR_LITS)};")
        out.depth -= 1
        out.emit("end;")
        out.emit()

        for phase in range(p.phases):
            out.emit(f"procedure phase{phase}();")
            out.emit("begin")
            out.depth += 1
            self._emit_phase_body()
            out.depth -= 1
            out.emit("end;")
            out.emit()

        out.emit("procedure main();")
        out.emit("begin")
        out.depth += 1
        out.emit("init();")
        loop_var = self._fresh_loop_var()
        out.emit(f"for {loop_var} := 1 to niters do")
        out.depth += 1
        for phase in range(p.phases):
            if self.rng.random() < p.repeat_prob:
                # a counted repeat loop: the control scalar is reset and
                # stepped with literals, so termination is data-independent
                trips = self.rng.randint(2, 3)
                out.emit("c0 := 0.0;")
                out.emit("repeat")
                out.depth += 1
                out.emit("c0 := c0 + 1.0;")
                out.emit(f"phase{phase}();")
                out.depth -= 1
                out.emit(f"until c0 >= {trips}.0;")
            else:
                out.emit(f"phase{phase}();")
        out.depth -= 1
        out.emit("end;")
        out.emit("[In] chk := +<< A0;")
        out.depth -= 1
        out.emit("end;")
        return self.out.text()


def _profile_tag(p: GeneratorProfile) -> str:
    """Compact profile fingerprint for the generated header comment."""
    return (
        f"a{p.arrays}s{p.scalars}d{p.directions}o{p.max_offset}"
        f"p{p.phases}t{p.statements}x{p.terms}n{p.n}i{p.niters}"
    )


def generate_source(seed: int, profile: Optional[GeneratorProfile] = None) -> str:
    """Deterministically generate the ZL source for ``seed``.

    Byte-identical for identical ``(seed, profile)`` inputs.  The
    program is named ``gen_<seed>`` so it can be addressed through the
    benchmark registry; see the module docstring for the validity and
    boundedness guarantees.
    """
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ExperimentError(
            f"generator seed must be a non-negative integer, got {seed!r}"
        )
    return _Generator(seed, profile or DEFAULT_PROFILE).generate()


def generate_program(
    seed: int,
    profile: Optional[GeneratorProfile] = None,
    config: Optional[Dict[str, float]] = None,
    opt: Optional[OptimizationConfig] = None,
) -> IRProgram:
    """Generate and compile the program for ``seed`` in one step."""
    p = profile or DEFAULT_PROFILE
    merged = {"n": p.n, "niters": p.niters}
    if config:
        merged.update(config)
    source = generate_source(seed, profile)
    return compile_source(source, f"gen_{seed}.zl", merged, opt)
