"""The four benchmark workloads.

Each workload turns ``--seed`` into its inputs, warms up, and then runs
*blocks* of ops.  One op is one user-visible call into the program; the
runner times each op, then checks its output outside the timed region.
Nothing here imports :mod:`repro` at module level, so a child process can
time its own import as part of set-up.

Why these four (see README.md for the measured layer shares):

* ``paper_cold`` — the paper study from cold caches, one cell per op:
  transfer-plan build and scalar dispatch dominate.
* ``sweep_batched`` — cost-only variant sweeps over warm compile and plan
  caches: batched dispatch dominates and plan build is absent.
* ``frontier_refine`` — crossover bisection: many small batched calls and
  single-point scalar rounds, so per-call overhead and cache I/O show.
* ``corpus_check`` — the generator differential on distinct programs:
  front end, optimizer, interpreted walk, NUMERIC mode and reference.
"""

from __future__ import annotations

import json
import random
import shutil
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "goldens" / "paper_t3d64.json"

#: ops per block of a smoke run, which is one short block per workload
SMOKE_BLOCK = 3


def paper_cells(benchmarks, keys) -> List[tuple]:
    return [(b, k) for b in benchmarks for k in keys]


def golden_fields(record: dict) -> dict:
    """What the golden file pins for one cell of the paper study."""
    r = record["result"]
    return {
        "static_count": r["static_count"],
        "dynamic_count": r["dynamic_count"],
        "execution_time": repr(r["execution_time"]),
        "total_messages": r["total_messages"],
        "total_bytes": r["total_bytes"],
    }


def load_goldens(path: Path = GOLDEN_PATH) -> Dict[str, Dict[str, dict]]:
    return json.loads(path.read_text())["cells"]


def write_goldens(path: Path = GOLDEN_PATH) -> Path:
    """Recompute every paper cell cold on t3d/64 and pin it."""
    from repro import run_study
    from repro.experiments_registry import EXPERIMENT_KEYS
    from repro.programs import BENCHMARKS

    cells: Dict[str, Dict[str, dict]] = {}
    study = run_study(
        benchmarks=BENCHMARKS, keys=EXPERIMENT_KEYS, jobs=1, cache=False
    )
    for outcome in study.outcomes:
        job = outcome.job
        cells.setdefault(job.benchmark, {})[job.experiment] = golden_fields(
            outcome.record
        )
    doc = {"schema": 1, "machine": "t3d", "nprocs": 64, "cells": cells}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return path


def _compare(what: str, expected: dict, actual: dict) -> List[str]:
    return [
        f"{what}: {field} expected {value!r}, got {actual.get(field)!r}"
        for field, value in expected.items()
        if actual.get(field) != value
    ]


class Workload:
    """Base class: inputs from the seed, set-up, blocks of ops, checks.

    Ops look entry points up on the ``repro`` package at call time rather
    than keeping references from set-up: the ledger replaces them at
    their binding sites, and a kept reference would bypass it."""

    name = ""
    #: ops per block; a run ends with a whole block, so short blocks
    #: keep it close to its measuring time
    BLOCK = 12
    #: an untraced run ends with a whole cycle of this many blocks
    CYCLE = 1
    #: at least this many ops per untraced run, so p90 has about ten
    #: samples beyond it; more would make the slowest workloads too long
    #: to repeat
    MIN_OPS = 96

    def __init__(self, seed: int, workdir: Path, smoke: bool = False) -> None:
        self.seed = seed
        self.workdir = Path(workdir)
        self.smoke = smoke
        self.block_size = SMOKE_BLOCK if smoke else self.BLOCK

    def inputs(self) -> dict:
        """The generated inputs of the first block (JSON-safe)."""
        raise NotImplementedError

    def setup(self) -> None:
        """Import, generate inputs and warm up (untimed, in set-up)."""
        raise NotImplementedError

    def block(self, index: int) -> list:
        raise NotImplementedError

    def begin_block(self, index: int) -> None:
        """Untimed reset before a block's ops."""

    def before_op(self, spec) -> None:
        """Untimed preparation of one op."""

    def op(self, spec):
        raise NotImplementedError

    def finish(self, specs: list, outputs: list) -> Optional[str]:
        """Timed per-block work after a complete block (rendering)."""
        return None

    def check(self, spec, output) -> List[str]:
        raise NotImplementedError

    def end_block(self) -> None:
        """Untimed clean-up after a block has been checked."""

    def _fresh_dir(self) -> Path:
        return Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.workdir))


class PaperCold(Workload):
    """The paper study from cold caches on t3d/64, one cell per op.

    Each block clears the compile cache, the plan memo and the batch
    evaluators and opens a fresh result cache, runs all 24 cells, then
    renders Tables 1–4 and Figures 8 and 10–12.  The seed rotates the
    benchmark order."""

    name = "paper_cold"

    def inputs(self) -> dict:
        from repro.programs import BENCHMARKS

        shift = self.seed % len(BENCHMARKS)
        order = BENCHMARKS[shift:] + BENCHMARKS[:shift]
        if self.smoke:
            order = order[:1]
        return {"order": list(order)}

    def setup(self) -> None:
        import repro
        from repro.analysis import figures, report
        from repro.engine import worker
        from repro.experiments_registry import EXPERIMENT_KEYS
        from repro.runtime import clear_batch_evaluators
        from repro.runtime.transfers import PlanCache

        self.cells = paper_cells(self.inputs()["order"], EXPERIMENT_KEYS)
        self.goldens = load_goldens()
        self._repro, self._fig, self._report = repro, figures, report
        self._clears = (
            worker.clear_compile_cache,
            PlanCache.clear_global,
            clear_batch_evaluators,
        )
        # fixed warm-up: one small cell loads every lazily imported module
        repro.run_study(
            benchmarks=("swm",),
            keys=("baseline",),
            nprocs=4,
            config_overrides={"swm": {"n": 16, "nsteps": 2}},
            jobs=1,
            cache=False,
        )
        self._cache_dir: Optional[Path] = None

    def block(self, index: int) -> list:
        return list(self.cells)

    def begin_block(self, index: int) -> None:
        for clear in self._clears:
            clear()
        self._cache_dir = self._fresh_dir()

    def op(self, cell):
        bench, key = cell
        return self._repro.run_study(
            benchmarks=(bench,), keys=(key,), jobs=1, cache_dir=self._cache_dir
        )

    def finish(self, specs: list, outputs: list) -> Optional[str]:
        results: Dict[str, list] = {}
        for (bench, _), study in zip(specs, outputs):
            results.setdefault(bench, []).extend(study[bench])
        fig, table = self._fig, self._report.format_table
        parts = [
            table(*fig.figure8_counts(results), title="Figure 8"),
            table(*fig.figure10a_times(results), title="Figure 10(a)"),
            table(*fig.figure10b_times(results), title="Figure 10(b)"),
            table(*fig.figure11_heuristic_counts(results), title="Figure 11"),
            table(*fig.figure12_heuristic_times(results), title="Figure 12"),
        ]
        parts += [
            table(*fig.table_full(bench, results), title=f"Table — {bench}")
            for bench in results
        ]
        return "\n\n".join(parts)

    def check(self, cell, study) -> List[str]:
        bench, key = cell
        (outcome,) = study.outcomes
        problems = [f"{bench}/{key}: served from cache"] if outcome.cached else []
        return problems + _compare(
            f"{bench}/{key}", self.goldens[bench][key], golden_fields(outcome.record)
        )

    def end_block(self) -> None:
        if self._cache_dir is not None:
            shutil.rmtree(self._cache_dir, ignore_errors=True)
            self._cache_dir = None


class SweepBatched(Workload):
    """A cost-only sweep of 16 variants per cell over all 24 paper cells,
    one cell's ``run_sweep`` per op, with warm compile and plan caches and
    no result cache.  Each op sweeps four ``net.latency`` by four
    ``prim.*.fixed`` values: one of :attr:`GRIDS` fixed grids of its cell.
    The seed decides which block uses which grid of each cell, and the
    variant each op may spot-check.

    The effect of the values on op time is large and erratic: a variant
    whose clocks never settle into a bitwise steady state stops the
    batched loop extrapolation for the whole batch, and a tomcatv cell
    then takes about seven times as long.  So every :attr:`GRIDS`
    blocks sweep every grid of every cell once, in an order drawn from
    the seed, an untraced run holds whole cycles of them, and the seed
    does not change the mix of ops."""

    name = "sweep_batched"
    #: one block is one op per paper cell
    BLOCK = 24
    GRIDS = 4
    CYCLE = GRIDS

    def _block_specs(self, index: int) -> List[tuple]:
        from repro.experiments_registry import EXPERIMENT_KEYS
        from repro.programs import BENCHMARKS

        cells = paper_cells(BENCHMARKS, EXPERIMENT_KEYS)[: self.block_size]
        pool = random.Random(f"{self.name}:grids")

        def four(lo: float, hi: float) -> Tuple[float, ...]:
            values: set = set()
            while len(values) < 4:
                values.add(float(f"{pool.uniform(lo, hi):.3g}"))
            return tuple(sorted(values))

        grids = [
            [(four(2e-6, 40e-6), four(1e-6, 30e-6)) for _ in range(self.GRIDS)]
            for _ in cells
        ]
        order = random.Random(f"{self.name}:{self.seed}")
        turns = [order.sample(range(self.GRIDS), self.GRIDS) for _ in cells]
        pick = random.Random(f"{self.name}:{self.seed}:{index}")
        specs = []
        for (bench, key), grid, turn in zip(cells, grids, turns):
            latency, fixed = grid[turn[index % self.GRIDS]]
            spot = (pick.choice(latency), pick.choice(fixed))
            specs.append((bench, key, latency, fixed, spot))
        return specs

    def inputs(self) -> dict:
        return {"ops": [list(spec) for spec in self._block_specs(0)]}

    def setup(self) -> None:
        import repro
        from repro.engine.worker import execute_job

        self.goldens = load_goldens()
        self._repro, self._execute_job = repro, execute_job
        self._clear_packs = repro.machine.clear_pack_cache
        self._verified: set = set()
        # warm-up: one scalar run of every cell fills the compile cache
        # and the plan memo
        for bench, key, *_ in self._block_specs(0):
            repro.run_study(benchmarks=(bench,), keys=(key,), jobs=1, cache=False)

    def block(self, index: int) -> list:
        return self._block_specs(index)

    def begin_block(self, index: int) -> None:
        # a traced rerun of the block packs its variants again too
        self._clear_packs()

    def op(self, spec):
        bench, key, latency, fixed, _ = spec
        SweepAxis = self._repro.SweepAxis
        return self._repro.run_sweep(
            axes=[SweepAxis("net.latency", latency), SweepAxis("prim.*.fixed", fixed)],
            benchmarks=(bench,),
            keys=(key,),
            cache=False,
        )

    def check(self, spec, sweep) -> List[str]:
        bench, key, _, _, spot = spec
        golden = self.goldens[bench][key]
        counts = {f: golden[f] for f in ("static_count", "dynamic_count")}
        problems = []
        if len(sweep.outcomes) != 16:
            problems.append(f"{bench}/{key}: {len(sweep.outcomes)} variants, not 16")
        for outcome in sweep.outcomes:
            if not outcome.record.get("batched"):
                problems.append(f"{bench}/{key}: variant not batched")
            problems += _compare(
                f"{bench}/{key} {outcome.job.machine.variant}",
                counts,
                outcome.record["result"],
            )
        if (bench, key) in self._verified:
            return problems
        # the first op of each cell also checks one variant against the
        # scalar simulator
        (pick,) = [
            o
            for o in sweep.outcomes
            if dict(o.job.machine.overrides)
            == {"net.latency": spot[0], "prim.*.fixed": spot[1]}
        ]
        scalar = self._execute_job(pick.job)["result"]["execution_time"]
        if scalar != pick.record["result"]["execution_time"]:
            problems.append(
                f"{bench}/{key} {pick.job.machine.variant}: batched "
                f"{pick.record['result']['execution_time']!r} != scalar {scalar!r}"
            )
        self._verified.add((bench, key))
        return problems


class FrontierRefine(Workload):
    """One op is one ``run_refined_sweep`` knee bisection of
    ``prim.*.per_byte_beyond`` on SIMPLE (n=16, niters=1) on t3d/16, into a
    fresh result cache, with no batch evaluator or packed variant left
    from earlier ops.  It refines the ``rr`` and ``cc`` keys, whose
    crossover the check verifies; ``baseline`` as a third key made an op
    cost 80% more and added no crossover.  The seed draws :attr:`NKNEES`
    distinct ``prim.*.knee_bytes`` from 8 to 52, and each block bisects
    at each of them twice, in an order drawn from the seed; from 56 up
    the cc/rr crossover leaves the searched range.

    Set-up bisects once at each knee.  The transfer plans keep the cost
    vectors of every network they priced, so the first op at a knee cost
    a fifth to a half more than the ops after it: with no warm-up, the
    share of such first ops, and with it the median op, varied with the
    number of ops a run held.  A fixed number of knees also keeps the
    peak RSS of a run, which grows with each new knee, the same."""

    name = "frontier_refine"
    KNEES = (8, 52)
    NKNEES = 6
    LO, HI, TOL = 0.0, 1e-6, 1e-8
    KEYS = ("rr", "cc")
    CONFIG = {"n": 16, "niters": 1}

    def _knees(self) -> List[int]:
        lo, hi = self.KNEES
        return sorted(
            random.Random(f"{self.name}:{self.seed}").sample(range(lo, hi + 1), self.NKNEES)
        )

    def inputs(self) -> dict:
        return {"knee_bytes": self._knees(), "first_block": self.block(0)}

    def setup(self) -> None:
        import repro
        from repro.engine.jobs import Job, MachineSpec
        from repro.engine.worker import execute_job
        from repro.runtime import clear_batch_evaluators

        self._repro, self._execute_job = repro, execute_job
        self._Job, self._MachineSpec = Job, MachineSpec
        self._clears = (clear_batch_evaluators, repro.machine.clear_pack_cache)
        self._dirs: List[Path] = []
        # warm-up: compiles the SIMPLE programs and prices every knee
        for knee in self._knees():
            self.before_op(knee)
            self.op(knee)
        self.end_block()

    def block(self, index: int) -> list:
        knees = self._knees()
        order = [knees[n % len(knees)] for n in range(self.block_size)]
        random.Random(f"{self.name}:{self.seed}:{index}").shuffle(order)
        return order

    def _machine(self, knee: int, beyond: Optional[float] = None):
        overrides = {"prim.*.knee_bytes": knee}
        if beyond is not None:
            overrides["prim.*.per_byte_beyond"] = beyond
        return self._MachineSpec.coerce("t3d", nprocs=16, overrides=overrides)

    def before_op(self, knee) -> None:
        # an op reuses the batch evaluators and packed variants of earlier
        # ops with its knee, which makes later ops of a run cheaper, by up
        # to a quarter; clearing them makes every op start alike
        for clear in self._clears:
            clear()
        self._dirs.append(self._fresh_dir())

    def op(self, knee):
        return self._repro.run_refined_sweep(
            axis="prim.*.per_byte_beyond",
            lo=self.LO,
            hi=self.HI,
            tol=self.TOL,
            coarse=5,
            benchmarks=("simple",),
            keys=self.KEYS,
            machine=self._machine(knee),
            config_overrides={"simple": self.CONFIG},
            cache_dir=self._dirs[-1],
        )

    def _scalar_time(self, knee: int, key: str, beyond: float) -> float:
        job = self._Job.make(
            "simple", key, machine=self._machine(knee, beyond), config=self.CONFIG
        )
        return self._execute_job(job)["result"]["execution_time"]

    def check(self, knee, refined) -> List[str]:
        where = f"knee {knee}"
        pairs = {(c.experiment, c.reference) for c in refined.crossovers}
        problems = [] if ("cc", "rr") in pairs else [f"{where}: no cc/rr crossover"]
        evaluated = {
            (o.job.experiment, dict(o.job.machine.overrides)["prim.*.per_byte_beyond"]):
            o.record["result"]["execution_time"]
            for o in refined.sweep.outcomes
        }
        for c in refined.crossovers:
            if not c.x_high - c.x_low <= self.TOL:
                problems.append(f"{where}: bracket {c.x_high - c.x_low!r} > tol")
            gaps = []
            for x in (c.x_low, c.x_high):
                times = {k: self._scalar_time(knee, k, x) for k in (c.experiment, c.reference)}
                for k, t in times.items():
                    if evaluated.get((k, x)) != t:
                        problems.append(f"{where}: {k} at {x!r} differs from scalar")
                gaps.append(times[c.experiment] - times[c.reference])
            if not gaps[0] * gaps[1] < 0:
                problems.append(
                    f"{where}: {c.experiment}/{c.reference} does not flip "
                    f"across [{c.x_low!r}, {c.x_high!r}]"
                )
        return problems

    def end_block(self) -> None:
        for path in self._dirs:
            shutil.rmtree(path, ignore_errors=True)
        self._dirs = []


class CorpusCheck(Workload):
    """The ``repro generate --check`` differential, one generated program
    per op, through the function behind that command: compiled fast path
    vs interpreted walk in TIMING mode on both machines at baseline and
    full optimization, then optimized NUMERIC vs the sequential reference.
    Program seeds are ``seed*100000 + i``, all distinct, and the plan memo
    is cleared before each op, so no compile or plan work is reused across
    ops.

    Op times differ from program to program, so the median op of a run
    depends on which programs the seed drew: over 15 s runs of 190–300
    programs, one seed's median sat about 6% below another's on every
    rerun.
    :attr:`MIN_OPS` makes the sample larger and its size less dependent
    on the host's speed."""

    name = "corpus_check"
    MIN_OPS = 360

    def _seeds(self, index: int) -> List[int]:
        start = self.seed * 100000 + index * self.block_size
        return list(range(start, start + self.block_size))

    def inputs(self) -> dict:
        return {"program_seeds": self._seeds(0)}

    def setup(self) -> None:
        import repro.__main__
        from repro.programs.generate import DEFAULT_PROFILE
        from repro.runtime.transfers import PlanCache

        self._main, self._profile = repro.__main__, DEFAULT_PROFILE
        self._clear_plans = PlanCache.clear_global
        # fixed warm-up on a program seed no run uses
        self.op(99999)

    def block(self, index: int) -> list:
        return self._seeds(index)

    def before_op(self, program_seed) -> None:
        self._clear_plans()

    def op(self, program_seed):
        return self._main._check_generated(program_seed, self._profile)

    def check(self, program_seed, problems) -> List[str]:
        return [f"gen_{program_seed}: {problem}" for problem in problems]


WORKLOADS = {
    w.name: w for w in (PaperCold, SweepBatched, FrontierRefine, CorpusCheck)
}
