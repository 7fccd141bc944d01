"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python benchmarks/perf/run.py                       # every workload, untraced
    python benchmarks/perf/run.py --workload paper_cold --seed 3
    python benchmarks/perf/run.py --trace 1             # per-layer ledger
    python benchmarks/perf/run.py --smoke               # one short block each
    python benchmarks/perf/run.py --repeat 5 --json out.json

Each run of a workload is one fresh child ``python`` process:
single-threaded, one caller waiting on each op (a closed loop).  The
child sets up, then runs blocks of ops for ``--seconds`` of timed wall
time (default: ``run_seconds`` in BENCHMARK.json; callers of its
``command`` pass it explicitly).  A traced run runs every block twice,
plain and under the :class:`layers.Ledger`, and reports per-layer self
time per op, hit ratios, trace coverage and tracing overhead.

Every metric prints as ``workload metric value unit``; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Any failed op makes the exit code 1.

The host's speed drifts by a third and more within minutes, so every
end-to-end time is given at a reference host speed: the child runs a
fixed loop that uses nothing of the program (:func:`host_probe`) just
before and just after each op and after set-up, and each time is scaled
by the loop's reference time over its time nearby.  A change to the
program cannot move the probe, so it moves the scaled times as it moves
the raw ones.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS, write_goldens  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: scratch space for result caches and Chrome traces
WORK = HERE / ".perfbench"

#: every child of one run must have ended by then
DEADLINE_S = 170
#: set-ups per untraced run; ``setup_s`` is their median
SETUP_RUNS = 3

#: iterations of the host-speed probe, which take about 1 ms on a
#: 2.1 GHz x86-64 core with CPython 3.11
PROBE_LOOPS = 8000
#: the probe time that scaled times refer to
PROBE_REF_S = 1e-3
#: an op is scaled by the median of the probes around it and around the
#: ops this many either side of it: the host's speed changes within a
#: second, and one probe is noisy alone.  Over ten seeds, this window
#: spread the op percentiles about a quarter less than ten ops either
#: side of the probes before each op alone.
PROBE_WINDOW = 1
#: probes after each set-up, whose median scales that set-up
SETUP_PROBES = 21

END_TO_END = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
#: samples of the metrics read per run rather than per op
SAMPLES = {"setup_s": SETUP_RUNS, "peak_rss_mb": 1, "import_ms": 1}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def host_probe() -> float:
    """Seconds that a fixed pure-Python loop takes now.  It calls nothing
    of the program and allocates no tracked objects, so only the host's
    speed moves it: a loop that allocated objects ran the collector over
    the program's heap now and then."""
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(PROBE_LOOPS):
        total += i * i % 7
        table[i % 500] = total
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# child process: set up, then measure
# ---------------------------------------------------------------------------


def _child(args) -> None:
    args.workdir.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="child-", dir=args.workdir))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, smoke=args.smoke)
        start = time.perf_counter()
        import repro  # noqa: F401  (the import is what is timed)

        import_s = time.perf_counter() - start
        workload.setup()
        out = {"setup_s": time.perf_counter() - _T0, "import_s": import_s}
        out["setup_probe_s"] = statistics.median(host_probe() for _ in range(SETUP_PROBES))
        if not args.setup_only:
            out.update(_measure(workload, args))
            out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))


def _measure(workload, args) -> dict:
    """Run whole blocks of ops until ``args.seconds`` of timed wall time
    have passed and, untraced, at least the workload's ``MIN_OPS`` ops
    and a whole cycle of its blocks have run; the last block may overrun.
    Whole blocks keep the mix of ops the same in every run.  Each plain
    pass of a block records its op count and the time of its timed
    per-block work, and each of its ops the :func:`host_probe` runs just
    before and just after it, outside the timed region.

    Untraced, each block runs once.  Traced, each block runs twice over
    the same ops, plain and under the ledger, alternating which goes
    first; the plain pass is the base of the tracing overhead."""
    from layers import Ledger

    clock = time.perf_counter
    ledger = Ledger() if args.trace else None
    wall = {False: 0.0, True: 0.0}
    plain_ops: list = []
    probes: list = []
    blocks: list = []
    traced_ops = 0
    attempted = failed = 0
    problems: list = []
    index = 0
    while index == 0 or not args.smoke and (
        sum(wall.values()) < args.seconds
        or ledger is None and (len(plain_ops) < workload.MIN_OPS or index % workload.CYCLE)
    ):
        specs = workload.block(index)
        passes = (False,) if ledger is None else ((False, True), (True, False))[index % 2]
        for traced in passes:
            workload.begin_block(index)
            if traced:
                ledger.install()
            results = []
            render_error = None
            try:
                for n, spec in enumerate(specs):
                    workload.before_op(spec)
                    if traced:
                        ledger.op = f"{index}.{n}"
                    else:
                        before = host_probe()
                    start = clock()
                    try:
                        output, error = workload.op(spec), None
                    except Exception as exc:  # an op that raises is a failed op
                        output, error = None, exc
                    elapsed = clock() - start
                    wall[traced] += elapsed
                    if traced:
                        traced_ops += 1
                    else:
                        probes.append((before, host_probe()))
                        plain_ops.append(elapsed)
                    results.append((spec, output, error))
                if traced:
                    ledger.op = f"{index}.finish"
                start = clock()
                try:
                    workload.finish(specs, [output for _, output, _ in results])
                except Exception as exc:
                    render_error = exc
                elapsed = clock() - start
                wall[traced] += elapsed
                if not traced:
                    blocks.append((len(specs), elapsed))
            finally:
                if traced:
                    ledger.uninstall()
            for spec, output, error in results:
                attempted += 1
                if error is not None:
                    found = [f"{spec}: raised {error!r}"]
                else:
                    try:
                        found = workload.check(spec, output)
                    except Exception as exc:
                        found = [f"{spec}: check raised {exc!r}"]
                if render_error is not None:
                    found = found + [f"block {index}: rendering raised {render_error!r}"]
                if found:
                    failed += 1
                    problems.extend(found)
            workload.end_block()
        index += 1

    out = {
        "op_s": plain_ops,
        "probe_s": probes,
        "blocks": blocks,
        "timed_s": wall[False],
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:50],
    }
    if ledger is not None:
        out["traced_s"] = wall[True]
        out["traced_ops"] = traced_ops
        out["self_s"] = ledger.self_s
        out["calls"] = dict(ledger.calls)
        out["ratios"] = ledger.ratios()
        out["coverage"] = ledger.total_self_s() / wall[True]
        traces = WORK / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        path = traces / f"{workload.name}-seed{args.seed}.json"
        out["chrome_trace"] = str(ledger.write_chrome_trace(path).relative_to(ROOT))
    return out


# ---------------------------------------------------------------------------
# parent process: orchestrate children, compute and print metrics
# ---------------------------------------------------------------------------


def _spawn(workload: str, args, deadline: float, setup_only: bool = False) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    # one thread per process, and a fixed hash seed so set and dict
    # layouts do not vary between runs
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_CACHE_DIR"] = str(args.workdir / "default-cache")
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--child",
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", str(args.workdir),
    ] + (["--smoke"] if args.smoke else []) + (["--setup-only"] if setup_only else [])
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(deadline - time.monotonic(), 0.1),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: run exceeded {DEADLINE_S} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{workload}: run exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _p90(values) -> float:
    """The 90th percentile as ``statistics.quantiles`` gives it."""
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def _scaled_setup(child: dict) -> float:
    return child["setup_s"] * PROBE_REF_S / child["setup_probe_s"]


def _scaled_ops(child: dict) -> tuple:
    """Op times in ms, and ops per second over the whole run, at the
    reference host speed.  An op is scaled by the median of the probes
    around it and its neighbours, a block's timed per-block work as its
    last op.  The rate is over every block together: the blocks of one
    run differ in their mix of ops, so a rate per block would vary with
    the seed."""
    pairs = child["probe_s"]
    scale = [
        PROBE_REF_S / statistics.median(
            p for pair in pairs[max(i - PROBE_WINDOW, 0): i + PROBE_WINDOW + 1] for p in pair
        )
        for i in range(len(pairs))
    ]
    op_s = [seconds * k for seconds, k in zip(child["op_s"], scale)]
    finish_s, last = 0.0, -1
    for ops, seconds in child["blocks"]:
        last += ops
        finish_s += seconds * scale[last]
    return [1000 * s for s in op_s], len(op_s) / (sum(op_s) + finish_s)


def run_workload(workload: str, args) -> dict:
    """One run of one workload: the JSON result plus bookkeeping.  An
    untraced run first sets the workload up in :data:`SETUP_RUNS` − 1
    children of its own, so ``setup_s`` is a median."""
    deadline = time.monotonic() + DEADLINE_S
    setups = [] if args.trace else [
        _spawn(workload, args, deadline, setup_only=True)
        for _ in range(SETUP_RUNS - 1)
    ]
    child = _spawn(workload, args, deadline)

    if args.trace:
        ops = child["traced_ops"]
        metrics = {}
        for layer, seconds in child["self_s"].items():
            metrics[f"{layer}.self_ms"] = (1000 * seconds / ops, "ms/op")
            metrics[f"{layer}.calls"] = (child["calls"].get(layer, 0) / ops, "calls/op")
        for name, value in child["ratios"].items():
            metrics[name] = (value, "ratio")
        metrics["trace.coverage"] = (child["coverage"], "ratio")
        metrics["trace.overhead"] = (child["traced_s"] / child["timed_s"] - 1, "ratio")
        metrics["import_ms"] = (1000 * child["import_s"], "ms")
        samples = ops
    else:
        op_ms, ops_per_s = _scaled_ops(child)
        metrics = {
            "setup_s": statistics.median(_scaled_setup(c) for c in setups + [child]),
            "op_ms_p50": statistics.median(op_ms),
            "op_ms_p90": _p90(op_ms),
            "ops_per_s": ops_per_s,
            "peak_rss_mb": child["peak_rss_mb"],
        }
        metrics = {name: (value, END_TO_END[name]) for name, value in metrics.items()}
        samples = len(op_ms)

    run = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "smoke": args.smoke,
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "samples": samples,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "problems": child["problems"],
    }
    if not args.trace:
        run["host_probe_ms"] = 1000 * statistics.median(
            p for pair in child["probe_s"] for p in pair
        )
    if args.trace:
        run["layer_ranking"] = sorted(
            ((layer, 1000 * s / ops) for layer, s in child["self_s"].items()),
            key=lambda item: -item[1],
        )
        run["chrome_trace"] = child["chrome_trace"]
    return run


def _print_run(run: dict) -> None:
    name = run["workload"]
    for metric, m in run["metrics"].items():
        n = SAMPLES.get(metric, run["samples"])
        print(f"{name} {metric} {m['value']:.6g} {m['unit']} n={n}")
    fail_ratio = run["failed"] / run["attempted"]
    print(f"{name} fail_ratio {fail_ratio:.6g} ratio n={run['attempted']}")
    if "host_probe_ms" in run:
        print(f"{name} host_probe_ms {run['host_probe_ms']:.6g} ms n={run['samples']}")
    for problem in run["problems"]:
        print(f"{name} FAIL {problem}", file=sys.stderr)


def _summary_line(runs: list) -> dict:
    """The final JSON line: the run itself, or medians over several."""
    line = {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
    }
    if len(runs) == 1:
        line["metrics"] = runs[0]["metrics"]
        return line
    grouped: dict = {}
    for r in runs:
        for metric, m in r["metrics"].items():
            key = f"{r['workload']}.{metric}"
            grouped.setdefault(key, (m["unit"], []))[1].append(m["value"])
    line["metrics"] = {
        key: {"value": statistics.median(values), "unit": unit}
        for key, (unit, values) in grouped.items()
    }
    return line


def summarize(runs: list) -> dict:
    """Per workload: run counts, end-to-end medians, the latest layer
    ranking and every measured tracing overhead."""
    out: dict = {}
    for r in runs:
        w = out.setdefault(
            r["workload"], {"untraced_runs": 0, "traced_runs": 0, "medians": {}}
        )
        if r["trace"]:
            w["traced_runs"] += 1
            w["layer_ranking"] = r["layer_ranking"]
            w.setdefault("trace.overhead", []).append(
                r["metrics"]["trace.overhead"]["value"]
            )
            w["trace.coverage"] = r["metrics"]["trace.coverage"]["value"]
        else:
            w["untraced_runs"] += 1
    for name, w in out.items():
        values: dict = {}
        for r in runs:
            if r["workload"] == name and not r["trace"]:
                for metric, m in r["metrics"].items():
                    values.setdefault(metric, []).append(m["value"])
        w["medians"] = {m: statistics.median(v) for m, v in values.items()}
    return out


def write_results(path: Path, runs: list, wall_s: float) -> None:
    """Append this invocation's runs to the result set at ``path``."""
    doc = {"schema": 1, "runs": [], "total_s": 0.0}
    if path.exists():
        doc = json.loads(path.read_text())
    doc["runs"].extend(runs)
    doc["total_s"] += wall_s
    doc["summary"] = summarize(doc["runs"])
    path.write_text(json.dumps(doc, indent=1) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=tuple(WORKLOADS), action="append",
                   help="workload to run (repeatable; default: all four)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float,
                   help="timed wall time per run (default: run_seconds in BENCHMARK.json)")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                   help="1: per-layer metrics from a traced run")
    p.add_argument("--smoke", action="store_true",
                   help="one short block per workload")
    p.add_argument("--repeat", type=int, default=1, help="runs of each workload")
    p.add_argument("--json", type=Path, help="append every run to this result set")
    p.add_argument("--write-goldens", action="store_true",
                   help="recompute goldens/paper_t3d64.json and exit")
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--workdir", type=Path, default=WORK, help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no program source at {SRC}", file=sys.stderr)
        return 2
    if args.child:
        args.workload = args.workload[0]
        _child(args)
        return 0
    if args.write_goldens:
        sys.path.insert(0, str(SRC))
        print(f"wrote {write_goldens()}")
        return 0
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.repeat < 1 or args.seconds <= 0:
        p.error("--repeat and --seconds must be positive")

    # SIGTERM unwinds like ^C, so subprocess.run kills the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    started = time.monotonic()
    WORK.mkdir(exist_ok=True)
    # the children's scratch space; removed even when a child is killed
    args.workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    runs = []
    try:
        for _ in range(args.repeat):
            for workload in args.workload or WORKLOADS:
                run = run_workload(workload, args)
                _print_run(run)
                runs.append(run)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    if args.json is not None:
        write_results(args.json, runs, time.monotonic() - started)
    line = _summary_line(runs)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
