"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``compile FILE``
    Compile a ZL source file and print the generated pseudo-C
    (``--opt`` selects the experiment key; ``--config name=value`` sets
    config constants).

``run FILE``
    Compile and simulate a ZL program, printing time and counts
    (``--machine t3d|paragon``, ``--procs N``, ``--numeric``).

``experiments``
    Run the whole-program study (Figures 8/10/11/12 and Tables 1-4)
    through the experiment engine and print every regenerated table
    (``--bench`` to restrict, ``--jobs N`` to parallelize, ``--no-cache``
    to bypass the on-disk result cache, ``--telemetry PATH`` to dump
    per-job run records, ``--explain`` to append the per-pass
    attribution tables built from the pipeline telemetry).

``experiments``, ``trace``, and ``sweep`` share one flag vocabulary:
``--nprocs`` (``--procs`` stays as an alias) and ``--set PATH=VALUE`` for
machine-parameter overrides.  Where a command runs several benchmarks,
each ``--config NAME=VALUE`` goes to the selected benchmarks whose
default config declares ``NAME`` (SIMPLE's ``niters``, SWM's
``nsteps``); a ``NAME`` none of them declares exits with an error.

``passes``
    Print the optimizer passes in their fixed order, each with the
    ``OptimizationConfig`` field that turns it on; with ``--key KEY``,
    print that experiment key's description, optimization config and
    pass signature (the passes it runs, in order).

``trace BENCH``
    Run one benchmark's whole study with tracing on and write a Chrome
    trace-event file (``--out``, Perfetto-loadable) containing the
    compiler/pass/engine/simulation spans, the cache and IRONMAN
    counters, and the bridged per-rank simulated timelines
    (``--ranks``); ``--jsonl PATH`` additionally writes the raw
    structured event log.  The trace records one process: every job
    runs inline, so there is no ``--jobs``.  The result cache stays off
    unless ``--cache-dir`` is given, so every compile/simulate span is
    captured; the bridged timelines (``--opt``) reuse the program the
    study compiled, so each program compiles once.

``compare``
    Re-run a study and diff its counts and times against a committed
    baseline (``--baseline PATH``); communication counts must match
    exactly, model times within ``--tolerance``.  Exits nonzero on any
    drift; ``--update`` (re)writes the baseline instead.

``sweep``
    Expand ``--axis name=v1,v2,...`` axes (processor counts, network
    parameters, primitive-cost fields) into derived machine variants and
    run the benchmark x experiment matrix over every point through the
    cached engine; prints the scaling report with detected crossovers
    and optionally emits it (``--csv``/``--json``).  ``--set`` pins a
    machine override at every point; the engine evaluates the cost
    variants of each cell and processor count through the batched
    simulator, and ``--jobs`` runs the rest; see ``docs/SWEEPS.md``.

``frontier``
    The adaptive frontier engine.  ``--refine PATH=LO:HI --tol T``
    localizes every crossover of one cost axis by coarse-grid bisection
    — only intervals still containing a ratio crossing or a winner flip
    are subdivided, so localization costs a fraction of a dense sweep.
    Two ``--axis`` flags instead map the crossover contours and winner
    grid over a 2-D parameter plane.  ``--csv``/``--json`` emit the
    frontier documents; see ``docs/SWEEPS.md``.

``fit``
    Calibrate machine cost parameters against measured curves: load a
    target document (or synthesize one with ``--synthetic PATH=VALUE``
    ground truth) and fit the ``--fit PATH`` parameters by batched
    joint-grid refinement, reporting the fitted values, loss, and —
    for synthetic targets — the recovery error; see ``docs/SWEEPS.md``.

``compose``
    Run the optimization-composition study: measure each optimization
    *alone* (``rr``, ``cc_only``, ``pl_only``) plus the full pipeline
    over a program x machine-variant grid and report the composition
    factor — the measured combined speedup over the product of the
    single-optimization speedups (1 = multiplicative, <1 = overlapping
    savings, >1 = enabling).  Accepts the paper's benchmarks, the
    classic kernels, and generated ``gen_<seed>`` programs (``--gen N``
    appends a seeded batch); ``--variant PATH=VALUE[,...]`` adds
    machine variants to the default base + high-latency pair;
    ``--small`` runs every program at its test-sized config;
    ``--csv``/``--json`` emit the artifacts.  See ``docs/PROGRAMS.md``.

``generate``
    Emit a seeded synthetic ZL program (the ``gen_<seed>`` family):
    print or ``--out`` the deterministic source, ``--count N`` for a
    batch, ``--profile FIELD=VALUE`` to steer the feature profile, and
    ``--check`` to run the differential harness (compiled fast path vs
    interpreted oracle on both machines under baseline and full
    optimization, then optimized numerics vs the sequential reference),
    exiting nonzero with a copy-pasteable repro line per failing seed.
    A fault raised while checking a seed (a ``RuntimeFault``, say) is
    printed as that seed's failure and the later seeds are still
    checked.

``cache``
    Inspect and maintain the result cache (``--cache-dir``): ``cache
    stats`` prints the entry/byte totals and per-schema census, and
    ``cache prune`` removes entries by age (``--older-than 7d``) and/or
    stored schema version (``--schema N``).

``figure6``
    Run the synthetic overhead benchmark and print the Figure 6 curves.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from repro import (
    BaselineError,
    ExecutionMode,
    MachineError,
    OptimizationConfig,
    SimOptions,
    compile_program,
    emit_c,
    machine_by_name,
    obs,
    run_study,
    run_sweep,
    simulate,
)
from repro.analysis import attribution as attr
from repro.analysis import figures as fig
from repro.analysis import format_table, scaling
from repro.engine import DirCache, Job, MachineSpec
from repro.engine.worker import compile_cached
from repro.errors import ExperimentError, ReproError
from repro.experiments_registry import (
    COMPOSITION_KEYS,
    EXPERIMENT_KEYS,
    experiment_spec,
)
from repro.frontend import parse_config_assignments
from repro.programs import BENCHMARKS, KERNELS, default_config, validate_benchmark
from repro.sweep.axes import parse_axes

#: Every key the CLI accepts: the paper's six plus the composition
#: study's single-optimization keys.
ALL_KEYS = EXPERIMENT_KEYS + tuple(
    k for k in COMPOSITION_KEYS if k not in EXPERIMENT_KEYS
)


def _parse_config(pairs):
    try:
        return parse_config_assignments(pairs)
    except ValueError as exc:
        raise SystemExit(f"--config: {exc}") from None


def _config_per_benchmark(command: str, benches, config):
    """``--config`` overrides per benchmark: each NAME goes to the
    selected benchmarks whose default config declares it (None without
    overrides); a NAME that none of them declares exits."""
    if not config:
        return None
    declared = {bench: default_config(bench) for bench in benches}
    for name in config:
        if not any(name in names for names in declared.values()):
            raise SystemExit(
                f"{command}: --config {name}: no selected benchmark declares it"
            )
    per_bench = {
        bench: {name: value for name, value in config.items() if name in names}
        for bench, names in declared.items()
    }
    return {bench: c for bench, c in per_bench.items() if c}


def _opt_for(key: str) -> OptimizationConfig:
    return experiment_spec(key).opt


def _benchmark(text: str) -> str:
    """Argparse ``type=`` accepting any registry name — the paper's
    benchmarks, the kernel corpus, and ``gen_<seed>``."""
    try:
        return validate_benchmark(text)
    except ExperimentError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _output_path(text: str) -> str:
    """Argparse ``type=`` for an output file: its directory must exist
    when the arguments are parsed, before any work starts (it is never
    created)."""
    parent = Path(text).parent
    if not parent.is_dir():
        raise argparse.ArgumentTypeError(f"directory {str(parent)!r} does not exist")
    return text


def _parse_set(pairs):
    try:
        return parse_config_assignments(pairs)
    except ValueError as exc:
        raise SystemExit(f"--set: {exc}") from None


def _sim_parent(nprocs_default):
    """The simulation flags every study-running subcommand shares —
    ``experiments``, ``trace``, and ``sweep`` spell them identically
    (``--procs`` stays as a legacy alias for ``--nprocs``)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--nprocs", "--procs", dest="nprocs", type=int,
        default=nprocs_default, metavar="N",
        help="processor count"
        + (f" (default {nprocs_default})" if nprocs_default
           else " (default: the machine's)"),
    )
    parent.add_argument(
        "--set", action="append", metavar="PATH=VALUE",
        help="machine-parameter override (e.g. prim.*.per_byte_beyond=1e-6; "
        "repeatable)",
    )
    return parent


def _cache_parent():
    """The result-cache location flag (the study commands and
    ``cache``)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result cache root (default .repro-cache/ or $REPRO_CACHE_DIR)",
    )
    return parent


def _engine_parent(jobs: bool = True):
    """The engine knobs the study commands share; ``trace`` takes them
    without ``--jobs``, since a traced run executes inline."""
    parent = argparse.ArgumentParser(add_help=False, parents=[_cache_parent()])
    if jobs:
        parent.add_argument(
            "--jobs", type=_positive_int, default=1, metavar="N",
            help="worker processes for the job matrix (default 1)",
        )
    parent.add_argument(
        "--no-cache", action="store_true",
        help="bypass the result cache entirely",
    )
    parent.add_argument(
        "--telemetry", type=_output_path, default=None, metavar="PATH",
        help="write per-job telemetry records as JSON",
    )
    return parent


def _engine_kwargs(args) -> dict:
    """Resolve the shared engine flags into ``run_study``/``run_sweep``
    keyword arguments."""
    return {
        "jobs": args.jobs,
        "cache": not args.no_cache,
        "cache_dir": args.cache_dir,
    }


#: what bad input to ``compile`` and ``run`` raises: a file that cannot be
#: read, bytes that are not UTF-8, and every error of the package itself
_BAD_INPUT = (OSError, UnicodeDecodeError, ReproError)


def _bad_input(command: str, path: str, exc: Exception) -> SystemExit:
    """The clean exit for bad input to a command that reads ``path``."""
    if isinstance(exc, UnicodeDecodeError):
        return SystemExit(f"{command}: {path}: not UTF-8 text ({exc})")
    return SystemExit(f"{command}: {exc}")


def _compile_file(args):
    source = Path(args.file).read_text(encoding="utf-8")
    return compile_program(
        source, args.file, config=_parse_config(args.config), opt=_opt_for(args.opt)
    )


def cmd_compile(args) -> int:
    try:
        program = _compile_file(args)
    except _BAD_INPUT as exc:
        raise _bad_input("compile", args.file, exc) from None
    emitted = emit_c(program)
    print(emitted.text)
    print(
        f"/* {emitted.total_lines} lines, {emitted.comm_lines} communication "
        f"lines, {emitted.lines_excluding_comm} excluding communication */"
    )
    return 0


def cmd_run(args) -> int:
    mode = ExecutionMode.NUMERIC if args.numeric else ExecutionMode.TIMING
    try:
        program = _compile_file(args)
        machine = machine_by_name(args.machine, args.procs, args.library)
        result = simulate(program, machine, mode)
    except _BAD_INPUT as exc:
        raise _bad_input("run", args.file, exc) from None
    print(f"machine:            {machine.describe()}")
    print(f"experiment:         {args.opt}")
    print(f"execution time:     {result.time:.6f} model seconds")
    print(f"static comms:       {result.static_comm_count}")
    print(f"dynamic comms:      {result.dynamic_comm_count} (per processor)")
    print(f"messages:           {result.instrument.total_messages}")
    print(f"bytes moved:        {result.instrument.total_bytes}")
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return 0


def cmd_experiments(args) -> int:
    benches = args.bench or list(BENCHMARKS)
    overrides = _config_per_benchmark(
        "experiments", benches, _parse_config(args.config)
    )
    pinned = _parse_set(args.set)
    try:
        results = run_study(
            benchmarks=benches,
            machine=MachineSpec.coerce(None, overrides=pinned or None),
            nprocs=args.nprocs,
            config_overrides=overrides,
            telemetry=args.telemetry,
            **_engine_kwargs(args),
        )
    except (MachineError, ExperimentError) as exc:
        raise SystemExit(f"experiments: {exc}") from None
    print(format_table(*fig.figure8_counts(results), title="Figure 8 — comm count reduction (scaled to baseline)"))
    print()
    print(format_table(*fig.figure10a_times(results), title="Figure 10(a) — scaled times, PVM"))
    print()
    print(format_table(*fig.figure10b_times(results), title="Figure 10(b) — pl vs pl with shmem"))
    print()
    print(format_table(*fig.figure11_heuristic_counts(results), title="Figure 11 — combining heuristics, counts"))
    print()
    print(format_table(*fig.figure12_heuristic_times(results), title="Figure 12 — combining heuristics, times"))
    for i, bench in enumerate(benches, start=1):
        print()
        print(
            format_table(
                *fig.table_full(bench, results),
                title=f"Table {i} — {bench} ({args.nprocs} processors)",
            )
        )
    if args.explain:
        print()
        print(
            format_table(
                *attr.figure8_by_pass(results),
                title="Figure 8, by pass — fraction of naive static count",
            )
        )
        print()
        print(
            format_table(
                *attr.pass_attribution(results),
                title="Per-pass attribution (all cells)",
            )
        )
    return 0


#: The optimizer's passes in the order they run, each with the
#: OptimizationConfig field that turns it on.
_PASSES = (
    ("redundancy", "rr",
     "Remove transfers whose data an earlier same-block transfer moved."),
    ("interblock", "rr_interblock; needs rr",
     "Remove transfers already available from preceding blocks (dataflow)."),
    ("combining", "cc",
     "Merge same-direction transfers of different arrays into one message."),
    ("pipelining", "pl",
     "Hoist transfer initiation (DR/SR) to the data's ready point."),
)


def cmd_passes(args) -> int:
    if args.key:
        spec = experiment_spec(args.key)
        print(f"{args.key}: {spec.description}")
        print(f"  opt:      {spec.opt.describe()}")
        print(f"  pipeline: {' -> '.join(spec.opt.signature()) or '(empty)'}")
        return 0
    for name, switch, description in _PASSES:
        print(f"{name:12s} {description}  [{switch}]")
    return 0


def cmd_trace(args) -> int:
    overrides = _parse_config(args.config)
    pinned = _parse_set(args.set)
    try:
        mspec = MachineSpec.coerce(
            args.machine, nprocs=args.nprocs, overrides=pinned or None
        )
    except MachineError as exc:
        raise SystemExit(f"trace: {exc}") from None
    sinks = [obs.ChromeTraceSink(args.out)]
    if args.jsonl:
        sinks.append(obs.JsonlSink(args.jsonl))
    recorder = obs.configure(*sinks)
    try:
        with recorder.span("trace", benchmark=args.bench):
            run_study(
                benchmarks=(args.bench,),
                nprocs=args.nprocs,
                machine=mspec,
                config_overrides={args.bench: overrides} if overrides else None,
                # uncached by default, so every compile phase, optimizer
                # pass, and cache counter lands in the trace; an explicit
                # --cache-dir opts the result cache in instead
                cache=bool(args.cache_dir) and not args.no_cache,
                cache_dir=args.cache_dir,
                telemetry=args.telemetry,
            )
            # bridge per-rank simulated timelines at the chosen key into
            # the same trace document (model time, separate process row);
            # the study just compiled the key's program in this process
            spec = experiment_spec(args.opt)
            job = Job.make(
                benchmark=args.bench,
                experiment=args.opt,
                machine=mspec,
                config=overrides or None,
            )
            program = compile_cached(
                job.benchmark, tuple(sorted(job.merged_config().items())), spec.opt
            )[0]
            machine = job.machine.build(spec.library)
            bridged = 0
            for rank in range(min(args.ranks, args.nprocs)):
                result = simulate(
                    program, machine, options=SimOptions.timing(trace_rank=rank)
                )
                bridged += obs.bridge_rank_trace(result.trace, rank=rank)
    finally:
        metrics = obs.shutdown() or {}
    counters = metrics.get("counters", {})
    cache_hits = counters.get("engine.result_cache.hit", 0)
    cache_misses = counters.get("engine.result_cache.miss", 0)
    print(f"trace written:      {args.out}")
    if args.jsonl:
        print(f"event log written:  {args.jsonl}")
    print(f"engine cells:       {cache_hits + cache_misses} "
          f"({cache_hits} cache hits, {cache_misses} misses)")
    print(f"bridged timelines:  {min(args.ranks, args.nprocs)} ranks, "
          f"{bridged} events ({args.opt} on {args.machine}/{args.nprocs})")
    print(f"counters recorded:  {len(counters)}")
    print(f"trace id:           {recorder.trace_id}")
    return 0


def cmd_compare(args) -> int:
    baseline_path = Path(args.baseline)
    try:
        try:
            existing = (
                obs.load_baseline(baseline_path)
                if baseline_path.exists()
                else None
            )
        except BaselineError:
            # --update exists to replace stale documents (old schema,
            # truncated file); without it the load error is the answer
            if not args.update:
                raise
            existing = None
        if existing is None and not args.update:
            raise SystemExit(
                f"baseline {baseline_path} does not exist "
                "(create it with --update)"
            )
        benches = args.bench or (
            sorted(existing["benchmarks"]) if existing else None
        )
        if not benches:
            raise SystemExit(
                "nothing to compare: pass --bench or point --baseline at "
                "an existing baseline"
            )
        procs = args.procs or (existing["nprocs"] if existing else 64)
        machine = args.machine or (existing["machine"] if existing else "t3d")
        study = run_study(
            benchmarks=benches,
            nprocs=procs,
            machine=machine,
            config_overrides=_config_per_benchmark(
                "compare", benches, _parse_config(args.config)
            ),
            jobs=args.jobs,
            cache=not args.no_cache,
            cache_dir=args.cache_dir,
        )
        cells = sum(len(v) for v in study.results.values())
        snapshot = obs.snapshot_study(
            study, note=f"repro compare --update ({', '.join(benches)})"
        )
        if args.update:
            obs.write_baseline(baseline_path, snapshot)
            print(f"baseline updated: {baseline_path} ({cells} cells)")
            return 0
        drifts = obs.diff_baseline(
            snapshot, existing, time_tolerance=args.tolerance
        )
    except BaselineError as exc:
        raise SystemExit(f"compare: {exc}") from None
    print(
        f"compared {cells} cells against {baseline_path} "
        f"(counts exact, times within {args.tolerance:.0%})"
    )
    print(obs.format_drifts(drifts))
    return 1 if drifts else 0


def cmd_sweep(args) -> int:
    benches = args.bench or list(BENCHMARKS)
    keys = tuple(args.keys or EXPERIMENT_KEYS)
    config = _config_per_benchmark("sweep", benches, _parse_config(args.config))
    pinned = _parse_set(args.set)
    try:
        axes = parse_axes(args.axis)
        sweep = run_sweep(
            axes=axes,
            benchmarks=benches,
            keys=keys,
            machine=MachineSpec.coerce(args.machine, nprocs=args.nprocs),
            library=args.library,
            overrides=pinned or None,
            config_overrides=config,
            telemetry=args.telemetry,
            **_engine_kwargs(args),
        )
    except (MachineError, ExperimentError) as exc:
        raise SystemExit(f"sweep: {exc}") from None
    crossovers = scaling.detect_crossovers(sweep)
    print(
        f"sweep: {len(sweep.points)} points x {sweep.cells_per_point} cells "
        f"({', '.join(a.describe() for a in axes)}) on {args.machine}"
    )
    print(
        f"engine: {sweep.cells} cells, {sweep.cache_hits} cache hits, "
        f"{sweep.cells - sweep.cache_hits} simulated"
    )
    print()
    print(scaling.format_scaling_report(sweep, crossovers))
    if args.csv:
        print(f"\nscaling CSV written:  {scaling.write_csv(args.csv, sweep)}")
    if args.json:
        print(
            "scaling JSON written: "
            f"{scaling.write_json(args.json, sweep, crossovers)}"
        )
    return 0


def _parse_range(text: str, flag: str):
    """``PATH=LO:HI`` -> (path, lo, hi), both ends finite."""
    try:
        path, _, span = text.partition("=")
        lo, _, hi = span.partition(":")
        lo, hi = float(lo), float(hi)
    except ValueError:
        raise SystemExit(
            f"{flag}: {text!r} is not PATH=LO:HI (e.g. "
            "net.latency=1e-6:1e-3)"
        ) from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise SystemExit(
            f"{flag}: {text!r} needs finite LO and HI, got {lo!r}:{hi!r}"
        )
    return path, lo, hi


def cmd_frontier(args) -> int:
    from repro.analysis import frontier as fr
    from repro.sweep import run_refined_sweep

    benches = args.bench or list(BENCHMARKS)
    keys = tuple(args.keys or EXPERIMENT_KEYS)
    config = _config_per_benchmark("frontier", benches, _parse_config(args.config))
    pinned = _parse_set(args.set)
    if (args.refine is None) == (not args.axis or len(args.axis) != 2):
        raise SystemExit(
            "frontier: pass either --refine PATH=LO:HI --tol T (adaptive "
            "1-D localization) or exactly two --axis flags (dense 2-D map)"
        )
    try:
        if args.refine is not None:
            if args.tol is None:
                raise SystemExit("frontier: --refine requires --tol")
            path, lo, hi = _parse_range(args.refine, "--refine")
            refined = run_refined_sweep(
                axis=path,
                lo=lo,
                hi=hi,
                tol=args.tol,
                coarse=args.coarse,
                benchmarks=benches,
                keys=keys,
                machine=MachineSpec.coerce(args.machine, nprocs=args.nprocs),
                library=args.library,
                overrides=pinned or None,
                config_overrides=config,
                **_engine_kwargs(args),
            )
            print(fr.format_refined_report(refined))
            if args.csv:
                print(
                    "\nscaling CSV written:  "
                    f"{scaling.write_csv(args.csv, refined.sweep)}"
                )
            if args.json:
                print(
                    "frontier JSON written: "
                    f"{fr.write_refined_json(args.json, refined)}"
                )
        else:
            axes = parse_axes(args.axis)
            x_axis, y_axis = axes[0].name, axes[1].name
            sweep = run_sweep(
                axes=axes,
                benchmarks=benches,
                keys=keys,
                machine=MachineSpec.coerce(args.machine, nprocs=args.nprocs),
                library=args.library,
                overrides=pinned or None,
                config_overrides=config,
                **_engine_kwargs(args),
            )
            print(fr.format_frontier_report(sweep, x_axis, y_axis))
            if args.csv:
                print(
                    "\nfrontier CSV written:  "
                    f"{fr.write_frontier_csv(args.csv, fr.crossover_map(sweep, x_axis, y_axis), x_axis, y_axis)}"
                )
            if args.json:
                print(
                    "frontier JSON written: "
                    f"{fr.write_frontier_json(args.json, sweep, x_axis, y_axis)}"
                )
    except (MachineError, ExperimentError) as exc:
        raise SystemExit(f"frontier: {exc}") from None
    return 0


def cmd_fit(args) -> int:
    from repro import fit as fitmod

    if (args.target is None) == (not args.synthetic):
        raise SystemExit(
            "fit: pass either TARGET.json (measured curves) or --synthetic "
            "PATH=VALUE ground truth to generate one"
        )
    config = _parse_config(args.config)
    bounds = {}
    for spec in args.bound or []:
        path, lo, hi = _parse_range(spec, "--bound")
        bounds[path] = (lo, hi)
    try:
        if args.synthetic:
            truth = _parse_set(args.synthetic)
            benches = args.bench or ["simple"]
            keys = tuple(args.keys or ("baseline", "cc"))
            target = fitmod.synthesize_target(
                machine=args.machine,
                nprocs=args.nprocs or 16,
                truth=truth,
                benchmarks=benches,
                keys=keys,
                library=args.library,
                overrides=_parse_set(args.set) or None,
                config=_config_per_benchmark("fit", benches, config),
            )
        else:
            target = fitmod.load_target(args.target)
            truth = None
        paths = args.fit or (sorted(truth) if truth else None)
        if not paths:
            raise SystemExit("fit: pass --fit PATH for each free parameter")
        result = fitmod.fit_machine(
            target,
            paths,
            bounds=bounds or None,
            rounds=args.rounds,
            samples=args.samples,
        )
    except (MachineError, ExperimentError) as exc:
        raise SystemExit(f"fit: {exc}") from None
    print(result.describe())
    if truth:
        rows = [
            [
                p,
                truth[p],
                result.fitted[p],
                abs(result.fitted[p] - truth[p]) / abs(truth[p])
                if truth[p]
                else float("nan"),
            ]
            for p in paths
            if p in truth
        ]
        print()
        print(
            format_table(
                ["path", "truth", "fitted", "rel_error"],
                rows,
                float_fmt=".6g",
                title="Recovery vs synthetic ground truth",
            )
        )
    if args.write_target:
        print(f"\ntarget JSON written: {target.write_json(args.write_target)}")
    if args.json:
        print(f"fit JSON written: {result.write_json(args.json)}")
    return 0


def _parse_variant(text: str):
    """One ``--variant`` flag: comma-separated ``PATH=VALUE`` overrides."""
    try:
        return parse_config_assignments([p for p in text.split(",") if p])
    except ValueError as exc:
        raise SystemExit(f"--variant: {exc}") from None


def cmd_compose(args) -> int:
    from repro.analysis import composition as comp
    from repro.programs import small_config

    benches = list(args.bench or (BENCHMARKS + KERNELS))
    if args.gen:
        benches.extend(
            f"gen_{seed}"
            for seed in range(args.gen_seed, args.gen_seed + args.gen)
        )
    config = _config_per_benchmark("compose", benches, _parse_config(args.config)) or {}
    pinned = _parse_set(args.set)
    config_overrides = {}
    for bench in benches:
        merged = dict(small_config(bench)) if args.small else {}
        merged.update(config.get(bench, {}))
        if merged:
            config_overrides[bench] = merged
    variants = None
    if args.variant:
        # the unswept base machine always anchors the grid
        variants = [{}] + [_parse_variant(v) for v in args.variant]
    try:
        result = comp.run_composition(
            benchmarks=benches,
            machine=MachineSpec.coerce(
                args.machine, overrides=pinned or None
            ),
            nprocs=args.nprocs,
            library=args.library,
            variants=variants,
            config_overrides=config_overrides or None,
            telemetry=args.telemetry,
            **_engine_kwargs(args),
        )
    except (MachineError, ExperimentError) as exc:
        raise SystemExit(f"compose: {exc}") from None
    print(comp.format_composition_report(result))
    if args.csv:
        print(f"\ncomposition CSV written:  {comp.write_csv(args.csv, result)}")
    if args.json:
        print(f"composition JSON written: {comp.write_json(args.json, result)}")
    return 0


def _parse_profile(pairs):
    """``--profile FIELD=VALUE`` pairs -> GeneratorProfile (None if empty)."""
    from dataclasses import fields, replace

    from repro.programs.generate import DEFAULT_PROFILE, GeneratorProfile

    if not pairs:
        return None
    names = {f.name for f in fields(GeneratorProfile)}
    kwargs = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep:
            raise SystemExit(f"--profile: {pair!r} is not FIELD=VALUE")
        if name not in names:
            raise SystemExit(
                f"--profile: unknown field {name!r} "
                f"(valid: {', '.join(sorted(names))})"
            )
        kind = type(getattr(DEFAULT_PROFILE, name))
        try:
            kwargs[name] = kind(value)
        except ValueError:
            raise SystemExit(
                f"--profile: {name} expects {kind.__name__}, got {value!r}"
            ) from None
    try:
        return replace(DEFAULT_PROFILE, **kwargs)
    except ExperimentError as exc:
        raise SystemExit(f"--profile: {exc}") from None


def _check_generated(seed, profile):
    """The differential harness behind ``generate --check``: compiled
    fast path vs interpreted oracle (TIMING, both machines, baseline and
    full optimization), then full-optimization NUMERIC vs the sequential
    reference.  Returns human-readable mismatch descriptions.

    The source is generated, parsed, analyzed and lowered once.  That one
    communication-free program is optimized at both levels
    (:func:`~repro.comm.optimize` never changes its input) and is what
    the reference runs.  All of it stays local to the call, so a long
    ``--count`` run keeps no earlier seed's programs alive."""
    import numpy as np

    from repro import optimize, reference_run, t3d
    from repro.machine import paragon
    from repro.programs import generate as gen

    problems = []
    lowered = gen.generate_program(seed, profile)
    programs = {
        key: optimize(lowered, opt)
        for key, opt in (
            ("baseline", OptimizationConfig.baseline()),
            ("full", OptimizationConfig.full()),
        )
    }
    for machine_name, machine in (("t3d", t3d(4)), ("paragon", paragon(4))):
        for opt_name, program in programs.items():
            fast = simulate(program, machine, options=SimOptions.timing())
            slow = simulate(
                program, machine, options=SimOptions.timing(fast=False)
            )
            if fast.time != slow.time or not np.array_equal(
                fast.clocks, slow.clocks
            ):
                problems.append(
                    f"fast path diverges from oracle ({opt_name} on "
                    f"{machine_name}: {fast.time!r} vs {slow.time!r})"
                )
    ref = reference_run(lowered)
    num = simulate(programs["full"], t3d(4), ExecutionMode.NUMERIC)
    for name in sorted(ref.arrays):
        if not np.allclose(
            num.array(name), ref.array(name), rtol=1e-9, atol=1e-9
        ):
            problems.append(
                f"optimized numerics diverge from the reference "
                f"(array {name!r})"
            )
    return problems


def cmd_generate(args) -> int:
    from repro.programs import generate as gen

    profile = _parse_profile(args.profile)
    out_dir = None
    if args.out and args.count > 1:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
    failures = []
    for seed in range(args.seed, args.seed + args.count):
        try:
            source = gen.generate_source(seed, profile)
        except ExperimentError as exc:
            raise SystemExit(f"generate: {exc}") from None
        name = gen.generated_name(seed)
        if out_dir is not None:
            (out_dir / f"{name}.zl").write_text(source)
        elif args.out:
            Path(args.out).write_text(source)
        elif not args.check:
            print(source, end="" if source.endswith("\n") else "\n")
        if args.check:
            try:
                problems = _check_generated(seed, profile)
            except ReproError as exc:
                # a fault is this seed's failure; the later seeds still run
                problems = [f"{type(exc).__name__}: {exc}"]
            if problems:
                failures.append(seed)
                for problem in problems:
                    print(f"FAIL {name}: {problem}", file=sys.stderr)
            else:
                print(f"ok {name}")
    if args.out:
        where = out_dir if out_dir is not None else args.out
        print(f"wrote {args.count} program(s) to {where}", file=sys.stderr)
    if failures:
        profile_flags = "".join(
            f" --profile {pair}" for pair in (args.profile or [])
        )
        print(
            "generate: differential check failed; reproduce with:",
            file=sys.stderr,
        )
        for seed in failures:
            print(
                f"  python -m repro generate {seed}{profile_flags} --check",
                file=sys.stderr,
            )
        return 1
    return 0


_DURATION_UNITS = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}


def _duration(text: str) -> float:
    """An age in seconds: a plain number, or one with an s/m/h/d suffix
    (``--older-than 7d``)."""
    raw = text.strip().lower()
    scale = 1.0
    if raw and raw[-1] in _DURATION_UNITS:
        scale = _DURATION_UNITS[raw[-1]]
        raw = raw[:-1]
    try:
        value = float(raw) * scale
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a duration (use e.g. 90, 30m, 12h, 7d)"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"duration must be >= 0, got {text!r}")
    return value


def cmd_cache_stats(args) -> int:
    print(DirCache(args.cache_dir).stats().describe())
    return 0


def cmd_cache_prune(args) -> int:
    if args.older_than is None and args.schema is None and not args.all:
        raise SystemExit(
            "cache prune: pass --older-than and/or --schema, or --all to "
            "empty the store"
        )
    cache = DirCache(args.cache_dir)
    removed = cache.prune(older_than=args.older_than, schema=args.schema)
    print(f"pruned {removed} records from {cache.kind} backend at {cache.root}")
    return 0


def cmd_figure6(args) -> int:
    headers, rows = fig.figure6_overhead(reps=args.reps)
    print(format_table(headers, rows, float_fmt=".1f", title="Figure 6 — exposed communication cost (us)"))
    return 0


#: the ``--config`` help of every command that runs several benchmarks
_CONFIG_HELP = (
    "program config override, repeatable; it goes to each selected "
    "benchmark whose default config declares NAME"
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Quantifying the Effects of Communication Optimizations "
        "(ICPP 1997) — reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile ZL to pseudo-C")
    p.add_argument("file")
    p.add_argument("--opt", default="pl", choices=ALL_KEYS)
    p.add_argument("--config", action="append", metavar="NAME=VALUE")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("run", help="compile and simulate a ZL program")
    p.add_argument("file")
    p.add_argument("--opt", default="pl", choices=ALL_KEYS)
    p.add_argument("--config", action="append", metavar="NAME=VALUE")
    p.add_argument("--machine", default="t3d")
    p.add_argument("--library", default=None)
    p.add_argument("--procs", type=int, default=64)
    p.add_argument("--numeric", action="store_true")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "experiments",
        help="run the whole-program study",
        parents=[_sim_parent(64), _engine_parent()],
    )
    p.add_argument("--bench", action="append", type=_benchmark,
                   metavar="BENCH")
    p.add_argument("--config", action="append", metavar="NAME=VALUE",
                   help=_CONFIG_HELP)
    p.add_argument("--explain", action="store_true",
                   help="append per-pass attribution tables (which pass "
                   "accounts for how much of each reduction)")
    p.set_defaults(func=cmd_experiments)

    p = sub.add_parser(
        "passes", help="list optimizer passes or dump a key's pipeline"
    )
    p.add_argument("--key", default=None, choices=ALL_KEYS,
                   help="show the pipeline this experiment key compiles to")
    p.set_defaults(func=cmd_passes)

    p = sub.add_parser(
        "trace",
        help="run one benchmark's study with tracing on",
        parents=[_sim_parent(64), _engine_parent(jobs=False)],
    )
    p.add_argument("bench", type=_benchmark, metavar="BENCH")
    p.add_argument("--out", required=True, type=_output_path, metavar="PATH",
                   help="Chrome trace-event output file (open in Perfetto)")
    p.add_argument("--jsonl", type=_output_path, default=None, metavar="PATH",
                   help="also write the raw structured event log")
    p.add_argument("--opt", default="pl", choices=ALL_KEYS,
                   help="experiment key for the bridged per-rank timelines")
    p.add_argument("--machine", default="t3d")
    p.add_argument("--config", action="append", metavar="NAME=VALUE")
    p.add_argument("--ranks", type=_positive_int, default=4, metavar="N",
                   help="how many per-rank timelines to bridge (default 4)")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "compare", help="diff a study's metrics against a baseline"
    )
    p.add_argument("--baseline", required=True, metavar="PATH")
    p.add_argument("--bench", action="append", type=_benchmark,
                   metavar="BENCH",
                   help="benchmarks to run (default: the baseline's)")
    p.add_argument("--procs", type=int, default=None,
                   help="processor count (default: the baseline's)")
    p.add_argument("--machine", default=None,
                   help="machine name (default: the baseline's)")
    p.add_argument("--config", action="append", metavar="NAME=VALUE",
                   help=_CONFIG_HELP)
    p.add_argument("--jobs", type=_positive_int, default=1, metavar="N")
    p.add_argument("--no-cache", action="store_true")
    p.add_argument("--cache-dir", default=None, metavar="DIR")
    p.add_argument("--tolerance", type=float, default=0.05,
                   help="relative tolerance for model times (default 0.05)")
    p.add_argument("--update", action="store_true",
                   help="(re)write the baseline instead of comparing")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser(
        "sweep",
        help="sweep machine/processor axes and report scaling crossovers",
        parents=[_sim_parent(None), _engine_parent()],
    )
    p.add_argument("--axis", action="append", required=True,
                   metavar="NAME=V1,V2,...",
                   help="a swept axis: nprocs, net.latency, net.bandwidth, "
                   "net.raw_latency, compute.*, reduction.stage_cost, or "
                   "prim.<name|*>.<field> (repeatable; grid is the product)")
    p.add_argument("--bench", action="append", type=_benchmark,
                   metavar="BENCH")
    p.add_argument("--keys", nargs="+", choices=ALL_KEYS, default=None,
                   help="experiment keys to run at every point "
                   "(default: the paper's six)")
    p.add_argument("--machine", default="t3d",
                   help="base machine the variants derive from (t3d/paragon)")
    p.add_argument("--library", default=None,
                   help="communication library override (default: each "
                   "key's library)")
    p.add_argument("--config", action="append", metavar="NAME=VALUE",
                   help=_CONFIG_HELP)
    p.add_argument("--csv", type=_output_path, default=None, metavar="PATH",
                   help="write the per-cell scaling table as CSV")
    p.add_argument("--json", type=_output_path, default=None, metavar="PATH",
                   help="write the full scaling document (axes, rows, "
                   "crossovers) as JSON")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "frontier",
        help="adaptively localize crossovers or map them over two axes",
        parents=[_sim_parent(None), _engine_parent()],
    )
    p.add_argument("--refine", default=None, metavar="PATH=LO:HI",
                   help="adaptive mode: bisect this cost axis toward its "
                   "crossovers (e.g. prim.*.per_byte_beyond=0:1e-6)")
    p.add_argument("--tol", type=float, default=None, metavar="T",
                   help="crossover localization tolerance for --refine "
                   "(axis units)")
    p.add_argument("--coarse", type=_positive_int, default=9, metavar="N",
                   help="initial grid size for --refine (default 9)")
    p.add_argument("--axis", action="append", metavar="NAME=V1,V2,...",
                   help="dense mode: exactly two cost axes — the first is "
                   "scanned for crossings at each value of the second")
    p.add_argument("--bench", action="append", type=_benchmark,
                   metavar="BENCH")
    p.add_argument("--keys", nargs="+", choices=ALL_KEYS, default=None)
    p.add_argument("--machine", default="t3d",
                   help="base machine the variants derive from (t3d/paragon)")
    p.add_argument("--library", default=None)
    p.add_argument("--config", action="append", metavar="NAME=VALUE",
                   help=_CONFIG_HELP)
    p.add_argument("--csv", type=_output_path, default=None, metavar="PATH",
                   help="write the contour table (dense mode) or per-cell "
                   "scaling table (refine mode) as CSV")
    p.add_argument("--json", type=_output_path, default=None, metavar="PATH",
                   help="write the full frontier document as JSON")
    p.set_defaults(func=cmd_frontier)

    p = sub.add_parser(
        "fit",
        help="fit machine cost parameters to measured curves",
        parents=[_sim_parent(None)],
    )
    p.add_argument("target", nargs="?", default=None, metavar="TARGET.json",
                   help="measured fit target (see docs/SWEEPS.md for the "
                   "schema); omit with --synthetic")
    p.add_argument("--fit", action="append", metavar="PATH",
                   help="free parameter to fit (repeatable; with "
                   "--synthetic, defaults to the truth paths)")
    p.add_argument("--synthetic", action="append", metavar="PATH=VALUE",
                   help="generate a synthetic target by simulating with "
                   "these ground-truth overrides (repeatable)")
    p.add_argument("--bound", action="append", metavar="PATH=LO:HI",
                   help="search bracket for one path (default: around the "
                   "base machine's value)")
    p.add_argument("--rounds", type=_positive_int, default=16,
                   help="grid-refinement rounds (default 16)")
    p.add_argument("--samples", type=_positive_int, default=9,
                   help="samples per path per round; the full cartesian "
                   "product is evaluated per round (default 9)")
    p.add_argument("--bench", action="append", type=_benchmark,
                   metavar="BENCH",
                   help="benchmarks for --synthetic cells (default simple)")
    p.add_argument("--keys", nargs="+", choices=ALL_KEYS, default=None,
                   help="experiment keys for --synthetic cells "
                   "(default baseline cc)")
    p.add_argument("--library", default=None)
    p.add_argument("--machine", default="t3d")
    p.add_argument("--config", action="append", metavar="NAME=VALUE",
                   help=_CONFIG_HELP + " (the --synthetic cells)")
    p.add_argument("--write-target", type=_output_path, default=None,
                   metavar="PATH",
                   help="also write the (synthetic) target document")
    p.add_argument("--json", type=_output_path, default=None, metavar="PATH",
                   help="write the fit result document as JSON")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser(
        "compose",
        help="run the optimization-composition study",
        parents=[_sim_parent(64), _engine_parent()],
    )
    p.add_argument("--bench", action="append", type=_benchmark,
                   metavar="BENCH",
                   help="programs to measure (repeatable; default: the "
                   "paper's four plus the kernel corpus; gen_<seed> works)")
    p.add_argument("--gen", type=_positive_int, default=None, metavar="N",
                   help="also measure N generated programs "
                   "(seeds --gen-seed .. --gen-seed+N-1)")
    p.add_argument("--gen-seed", type=int, default=0, metavar="S",
                   help="first seed for --gen (default 0)")
    p.add_argument("--variant", action="append",
                   metavar="PATH=VALUE[,PATH=VALUE...]",
                   help="a machine variant's overrides (repeatable; the "
                   "unswept base is always included; default: base plus "
                   "a 10x-latency variant)")
    p.add_argument("--machine", default="t3d",
                   help="base machine the variants derive from (t3d/paragon)")
    p.add_argument("--library", default=None,
                   help="communication library override (default pvm)")
    p.add_argument("--small", action="store_true",
                   help="run every program at its test-sized config")
    p.add_argument("--config", action="append", metavar="NAME=VALUE",
                   help=_CONFIG_HELP)
    p.add_argument("--csv", type=_output_path, default=None, metavar="PATH",
                   help="write the per-cell composition table as CSV")
    p.add_argument("--json", type=_output_path, default=None, metavar="PATH",
                   help="write the full composition document as JSON")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser(
        "generate",
        help="emit a seeded synthetic ZL program (gen_<seed>)",
    )
    p.add_argument("seed", type=int,
                   help="generator seed (the program is named gen_<seed>)")
    p.add_argument("--count", type=_positive_int, default=1, metavar="N",
                   help="emit N programs (seeds seed .. seed+N-1)")
    p.add_argument("--profile", action="append", metavar="FIELD=VALUE",
                   help="feature-profile override (repeatable; e.g. "
                   "phases=3, wrap_prob=0.5; see GeneratorProfile)")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the source here instead of stdout "
                   "(a directory of <name>.zl files when --count > 1)")
    p.add_argument("--check", action="store_true",
                   help="run the differential harness per seed (fast path "
                   "vs oracle on both machines, optimized numerics vs the "
                   "sequential reference); exit 1 with a repro line per "
                   "failing seed")
    p.set_defaults(func=cmd_generate)
    generate_parser = p

    p = sub.add_parser(
        "cache", help="inspect and maintain the result cache"
    )
    cache_sub = p.add_subparsers(dest="cache_command", required=True)

    pc = cache_sub.add_parser(
        "stats", help="entry/byte totals and per-schema census",
        parents=[_cache_parent()],
    )
    pc.set_defaults(func=cmd_cache_stats)

    pc = cache_sub.add_parser(
        "prune", help="remove entries by age and/or schema version",
        parents=[_cache_parent()],
    )
    pc.add_argument("--older-than", type=_duration, default=None,
                    metavar="AGE",
                    help="remove entries older than AGE (90, 30m, 12h, 7d)")
    pc.add_argument("--schema", type=int, default=None, metavar="N",
                    help="remove entries stored under schema version N")
    pc.add_argument("--all", action="store_true",
                    help="remove every entry (no age/schema filter)")
    pc.set_defaults(func=cmd_cache_prune)

    p = sub.add_parser("figure6", help="run the synthetic overhead benchmark")
    p.add_argument("--reps", type=_positive_int, default=1000)
    p.set_defaults(func=cmd_figure6)

    args = parser.parse_args(argv)
    if args.command == "generate" and args.out and args.count == 1:
        # one program is written to a file, whose directory must exist;
        # a batch creates its directory
        try:
            _output_path(args.out)
        except argparse.ArgumentTypeError as exc:
            generate_parser.error(f"argument --out: {exc}")
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
