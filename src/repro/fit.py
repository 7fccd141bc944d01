"""Machine-parameter calibration: fit cost fields to measured curves.

The paper's cost models (Figure 3) came from microbenchmarks on real
hardware.  ``repro fit`` inverts that: given *measured* (or target)
execution times per ``benchmark x experiment`` cell, recover the
machine cost parameters — any :mod:`repro.machine.variants` override
path (``net.latency``, ``prim.*.per_byte``, ``reduction.stage_cost``,
...) — that make the simulator reproduce them.  This is the
measure-then-tune loop of modern communication benchmarks, run against
the simulator itself.

The optimizer is a batched **joint grid refinement**: every round
samples each free path's bracket, evaluates the full cartesian product
of those samples (``itertools.product``, capped at :data:`MAX_CANDIDATES`)
in one :func:`repro.simulate_many` call per cell, and moves every path
at once to the best candidate.  Each bracket then shrinks around an
interior winner or slides with an edge winner; a round in which no
candidate improves contracts every bracket.  Derivative free, monotone
in loss, and embarrassingly batched.

:func:`synthesize_target` generates ground-truth observations from a
known parameter set, so recovery is testable end to end; see
``tests/fit/`` and ``docs/SWEEPS.md``.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.engine.worker import compile_cached
from repro.errors import MachineError
from repro.experiments_registry import experiment_spec
from repro.machine import (
    apply_overrides,
    default_bounds,
    machine_by_name,
    override_value,
    validate_override_path,
)
from repro.obs import core as obs
from repro.programs.registry import default_config
from repro.runtime import simulate_many

__all__ = [
    "FIT_SCHEMA",
    "FitObservation",
    "FitResult",
    "FitTarget",
    "fit_machine",
    "load_target",
    "synthesize_target",
]

#: Schema version of fit target/result JSON documents.
FIT_SCHEMA = 1


@dataclass(frozen=True)
class FitObservation:
    """One measured cell: the execution time of ``benchmark`` under
    ``experiment`` on the machine being calibrated."""

    benchmark: str
    experiment: str
    time: float


@dataclass
class FitTarget:
    """What calibration fits against: a machine identity plus measured
    times.

    ``overrides`` pins known parameters (they apply to every candidate,
    exactly like sweep overrides); ``config`` optionally overrides each
    benchmark's problem configuration (synthetic targets use small
    ones so tests run in seconds).
    """

    machine: str
    nprocs: int
    observations: Tuple[FitObservation, ...]
    library: Optional[str] = None
    overrides: Dict[str, float] = field(default_factory=dict)
    config: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.observations:
            raise MachineError("fit target has no observations")
        seen = set()
        for ob in self.observations:
            cell = (ob.benchmark, ob.experiment)
            if cell in seen:
                raise MachineError(
                    f"duplicate observation for {cell} in fit target"
                )
            seen.add(cell)
            if not ob.time > 0:
                raise MachineError(
                    f"observation {cell} has non-positive time {ob.time!r}"
                )

    def as_dict(self) -> dict:
        return {
            "schema": FIT_SCHEMA,
            "machine": self.machine,
            "nprocs": self.nprocs,
            "library": self.library,
            "overrides": dict(self.overrides),
            "config": {b: dict(c) for b, c in self.config.items()},
            "observations": [asdict(ob) for ob in self.observations],
        }

    def write_json(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(
            json.dumps(self.as_dict(), indent=1, sort_keys=True) + "\n"
        )
        return path


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def load_target(path: Union[str, Path]) -> FitTarget:
    """Read a versioned fit-target JSON document.

    The document's shape and types are checked here: anything malformed
    raises :class:`MachineError` naming the file and the field."""
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise MachineError(
            f"cannot read fit target {path}: {exc.strerror}"
        ) from None
    except ValueError as exc:
        raise MachineError(
            f"fit target {path} is not valid JSON: {exc}"
        ) from None

    def bad(field: str, want: str, got: object) -> MachineError:
        return MachineError(
            f"fit target {path}: {field} must be {want}, got {got!r}"
        )

    def numbers(value: object, field: str) -> Dict[str, float]:
        if not isinstance(value, dict):
            raise bad(field, "an object", value)
        for name, number in value.items():
            if not _is_number(number):
                raise bad(f"{field}.{name}", "a number", number)
        return dict(value)

    if not isinstance(doc, dict):
        raise MachineError(f"fit target {path} must hold a JSON object")
    schema = doc.get("schema")
    if schema != FIT_SCHEMA:
        raise MachineError(
            f"fit target {path} has schema {schema!r}; this build reads "
            f"schema {FIT_SCHEMA}"
        )
    if not isinstance(doc.get("machine"), str):
        raise bad("machine", "a string", doc.get("machine"))
    nprocs = doc.get("nprocs")
    if not isinstance(nprocs, int) or isinstance(nprocs, bool):
        raise bad("nprocs", "an integer", nprocs)
    library = doc.get("library")
    if library is not None and not isinstance(library, str):
        raise bad("library", "a string or null", library)
    observations = doc.get("observations")
    if not isinstance(observations, list) or not observations:
        raise bad("observations", "a non-empty list", observations)
    for i, ob in enumerate(observations):
        where = f"observations[{i}]"
        if not isinstance(ob, dict):
            raise bad(where, "an object", ob)
        for key in ("benchmark", "experiment"):
            if not isinstance(ob.get(key), str):
                raise bad(f"{where}.{key}", "a string", ob.get(key))
        t = ob.get("time")
        if not (_is_number(t) and math.isfinite(t) and t > 0):
            raise bad(f"{where}.time", "a finite positive number", t)
    config = doc.get("config") or {}
    if not isinstance(config, dict):
        raise bad("config", "an object", config)
    return FitTarget(
        machine=doc["machine"],
        nprocs=nprocs,
        library=library,
        overrides=numbers(doc.get("overrides") or {}, "overrides"),
        config={b: numbers(c, f"config.{b}") for b, c in config.items()},
        observations=tuple(
            FitObservation(
                benchmark=ob["benchmark"],
                experiment=ob["experiment"],
                time=float(ob["time"]),
            )
            for ob in observations
        ),
    )


# ---------------------------------------------------------------------------
# evaluation cells
# ---------------------------------------------------------------------------


@dataclass
class _Cell:
    """One (benchmark, experiment) group of observations, compiled."""

    benchmark: str
    experiment: str
    library: str
    program: object
    obs_index: int  # row of the observation vector
    measured: float


def _build_cells(target: FitTarget) -> List[_Cell]:
    cells: List[_Cell] = []
    for i, ob in enumerate(target.observations):
        spec = experiment_spec(ob.experiment)
        library = target.library or spec.library
        merged = default_config(ob.benchmark)
        merged.update(target.config.get(ob.benchmark, {}))
        config_items = tuple(sorted(merged.items()))
        program, _, _, _, _, _ = compile_cached(
            ob.benchmark, config_items, spec.opt
        )
        cells.append(
            _Cell(
                benchmark=ob.benchmark,
                experiment=ob.experiment,
                library=library,
                program=program,
                obs_index=i,
                measured=ob.time,
            )
        )
    return cells


def _evaluate(
    target: FitTarget,
    cells: Sequence[_Cell],
    candidates: Sequence[Mapping[str, float]],
) -> np.ndarray:
    """Simulated times, shape ``(len(candidates), len(cells))`` — one
    batched call per cell, every candidate a variant row."""
    times = np.empty((len(candidates), len(cells)), dtype=np.float64)
    machines_by_lib: Dict[str, list] = {}
    for j, cell in enumerate(cells):
        if cell.library not in machines_by_lib:
            base = machine_by_name(
                target.machine, target.nprocs, cell.library
            )
            machines_by_lib[cell.library] = [
                apply_overrides(base, {**target.overrides, **cand})
                for cand in candidates
            ]
        run = simulate_many(cell.program, machines_by_lib[cell.library])
        times[:, j] = run.times
    return times


def _loss_vector(times: np.ndarray, measured: np.ndarray) -> np.ndarray:
    """Mean squared *relative* error per candidate row."""
    rel = (times - measured[None, :]) / measured[None, :]
    return np.mean(rel * rel, axis=1)


class _Coordinate:
    """One fitted path's search state: a bracket that *recenters on the
    current value every round* and shrinks only when the winner lands in
    its interior (or nothing improves).

    Positive-bounded parameters search multiplicatively (cost fields
    are scale-free: a latency is as likely 1e-6 as 1e-4); parameters
    whose lower bound is 0 search linearly.  Edge wins slide the
    bracket instead of shrinking it, so a bad initial guess walks to
    the optimum at constant resolution instead of fencing itself in —
    the standard compass-search escape.
    """

    def __init__(
        self, path: str, lo: float, hi: float, integral: bool
    ) -> None:
        self.path = path
        self.lo = lo
        self.hi = hi
        self.integral = integral
        self.multiplicative = lo > 0
        if self.multiplicative:
            self.span = (hi / lo) ** 0.5  # factor: bracket = c/span..c*span
        else:
            self.span = (hi - lo) / 2.0  # half-width
        self._last: List[float] = []

    def sample(self, center: float, samples: int) -> List[float]:
        if self.multiplicative:
            a = max(self.lo, center / self.span)
            b = min(self.hi, center * self.span)
            vals = np.geomspace(a, b, samples) if a < b else np.array([a])
        else:
            a = max(self.lo, center - self.span)
            b = min(self.hi, center + self.span)
            vals = np.linspace(a, b, samples) if a < b else np.array([a])
        out: List[float] = []
        for v in vals:
            v = float(v)
            if self.integral:
                v = float(int(round(v)))
            if not out or v != out[-1]:
                out.append(v)
        self._last = out
        return out

    def won(self, value: float) -> None:
        """The accepted point landed on this coordinate's grid: shrink
        to ~2 sample spacings around interior winners; edge winners
        keep their resolution (the bracket slides with the new center,
        so a bad initial guess walks toward the optimum instead of
        fencing itself in)."""
        vals = self._last
        i = vals.index(value)
        if 0 < i < len(vals) - 1 and len(vals) > 2:
            if self.multiplicative:
                spacing = (vals[-1] / vals[0]) ** (1.0 / (len(vals) - 1))
                self.span = max(spacing**2, 1.0 + 1e-12)
            else:
                spacing = (vals[-1] - vals[0]) / (len(vals) - 1)
                self.span = spacing * 2.0

    def shrink(self) -> None:
        """No candidate of the round improved: contract toward the
        current center."""
        self.span = self.span**0.5 if self.multiplicative else self.span / 2.0

    def resolved(self, center: float, rel_tol: float) -> bool:
        if self.multiplicative:
            return self.span <= 1.0 + rel_tol
        return self.span <= rel_tol * max(abs(center), (self.hi - self.lo) * 1e-12, 1e-300)


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------


@dataclass
class FitResult:
    """A calibration run: the fitted parameters and how we got there."""

    target: FitTarget
    paths: Tuple[str, ...]
    fitted: Dict[str, float]
    loss: float
    initial_loss: float
    rounds: int
    evaluations: int
    #: per accepted move: ``{"round", "path", "value", "loss"}``
    history: List[dict] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "schema": FIT_SCHEMA,
            "machine": self.target.machine,
            "nprocs": self.target.nprocs,
            "library": self.target.library,
            "paths": list(self.paths),
            "fitted": dict(self.fitted),
            "loss": self.loss,
            "initial_loss": self.initial_loss,
            "rounds": self.rounds,
            "evaluations": self.evaluations,
            "history": list(self.history),
        }

    def write_json(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(
            json.dumps(self.as_dict(), indent=1, sort_keys=True) + "\n"
        )
        return path

    def describe(self) -> str:
        # lazy: repro.fit is reachable from the repro facade, which the
        # engine layer must be importable without dragging analysis in
        from repro.analysis.report import format_table

        rows = [
            [path, self.fitted[path]] for path in self.paths
        ]
        table = format_table(
            ["path", "fitted"],
            rows,
            float_fmt=".6g",
            title=f"Fitted {self.target.machine}/{self.target.nprocs} — "
            f"loss {self.loss:.3g} (from {self.initial_loss:.3g}) in "
            f"{self.rounds} rounds, {self.evaluations} evaluations",
        )
        return table


# ---------------------------------------------------------------------------
# the optimizer
# ---------------------------------------------------------------------------

#: the most joint candidates one round evaluates
MAX_CANDIDATES = 4096
#: stop once the mean squared relative error falls to this
LOSS_TOL = 1e-10
#: or once every bracket's relative width falls to this
REL_TOL = 1e-4


def fit_machine(
    target: FitTarget,
    paths: Iterable[str],
    *,
    bounds: Optional[Mapping[str, Tuple[float, float]]] = None,
    rounds: int = 16,
    samples: int = 9,
) -> FitResult:
    """Fit ``paths`` so the simulator reproduces ``target``.

    Parameters
    ----------
    target:
        The measured cells and machine identity.
    paths:
        The override paths to free (everything else stays at the base
        machine's values, plus ``target.overrides``).
    bounds:
        Optional ``{path: (lo, hi)}`` search brackets; defaults come
        from :func:`repro.machine.default_bounds` around the base
        machine's current value.
    rounds / samples:
        At most ``rounds`` grid-refinement rounds.  Each round samples
        ``samples`` values per free path and evaluates the **full
        cartesian product** — every joint combination, up to
        :data:`MAX_CANDIDATES` of them — in one batched call per
        observation cell; joint sampling separates coupled parameters
        (latency vs per-byte cost) that per-coordinate line searches
        conflate.  When ``samples ** len(paths)`` exceeds
        :data:`MAX_CANDIDATES`, per-path sampling density is reduced to
        fit.  The fit stops early when the mean squared relative error
        falls to :data:`LOSS_TOL`, or when every bracket's relative
        width falls to :data:`REL_TOL`.

    Loss is the mean over observations of the squared relative time
    error, so cells of very different magnitudes weigh equally.
    """
    paths = tuple(paths)
    if not paths:
        raise MachineError("fit_machine needs at least one path to fit")
    if samples < 3:
        raise MachineError(f"samples must be >= 3, got {samples}")
    per_path = samples
    while per_path > 3 and per_path ** len(paths) > MAX_CANDIDATES:
        per_path -= 1
    spec_lib = target.library or experiment_spec(
        target.observations[0].experiment
    ).library
    probe = apply_overrides(
        machine_by_name(target.machine, target.nprocs, spec_lib),
        dict(target.overrides),
    )
    coords: Dict[str, _Coordinate] = {}
    current: Dict[str, float] = {}
    for path in paths:
        validate_override_path(path)
        integral = path.rsplit(".", 1)[-1] == "knee_bytes"
        if bounds and path in bounds:
            lo, hi = bounds[path]
            lo, hi = float(lo), float(hi)
            if not lo < hi:
                raise MachineError(
                    f"bound for {path} is empty: [{lo:g}, {hi:g}]"
                )
        else:
            lo, hi = default_bounds(probe, path)
        coords[path] = _Coordinate(path, lo, hi, integral)
        cur = float(override_value(probe, path))
        current[path] = min(max(cur, lo), hi)

    cells = _build_cells(target)
    measured = np.array([c.measured for c in cells], dtype=np.float64)

    evaluations = 0
    history: List[dict] = []

    def loss_of(candidates: List[Dict[str, float]]) -> np.ndarray:
        nonlocal evaluations
        times = _evaluate(target, cells, candidates)
        evaluations += len(candidates)
        if obs.enabled():
            obs.add("fit.evaluations", len(candidates))
        return _loss_vector(times, measured)

    with obs.span(
        "fit:machine",
        machine=target.machine,
        nprocs=target.nprocs,
        paths=" ".join(paths),
        cells=len(cells),
    ):
        current_loss = float(loss_of([dict(current)])[0])
        initial_loss = current_loss
        done_rounds = 0
        for _ in range(rounds):
            if current_loss <= LOSS_TOL:
                break
            if all(
                coords[p].resolved(current[p], REL_TOL) for p in paths
            ):
                break
            # the full cartesian grid over every coordinate's bracket,
            # evaluated in ONE batched pass per cell — joint sampling
            # is what separates coupled parameters (latency vs
            # per-byte) that per-coordinate line searches cannot
            candidates: List[Dict[str, float]] = []
            grids = [
                coords[p].sample(current[p], per_path) for p in paths
            ]
            for combo in itertools.product(*grids):
                candidates.append(dict(zip(paths, combo)))
            losses = loss_of(candidates)
            best = int(np.argmin(losses))
            done_rounds += 1
            if losses[best] < current_loss:
                current = dict(candidates[best])
                current_loss = float(losses[best])
                for path in paths:
                    coords[path].won(current[path])
                history.append(
                    {
                        "round": done_rounds,
                        "point": dict(current),
                        "loss": current_loss,
                    }
                )
                if obs.enabled():
                    obs.add("fit.improvements", 1)
            else:
                # the optimum sits between grid points: contract every
                # bracket toward the current point and resample
                for path in paths:
                    coords[path].shrink()
            if obs.enabled():
                obs.add("fit.rounds", 1)

    result = FitResult(
        target=target,
        paths=paths,
        fitted=dict(current),
        loss=current_loss,
        initial_loss=initial_loss,
        rounds=done_rounds,
        evaluations=evaluations,
        history=history,
    )
    return result


# ---------------------------------------------------------------------------
# synthetic targets
# ---------------------------------------------------------------------------


def synthesize_target(
    *,
    machine: str,
    nprocs: int,
    truth: Mapping[str, float],
    benchmarks: Union[str, Iterable[str]],
    keys: Iterable[str],
    library: Optional[str] = None,
    overrides: Optional[Mapping[str, float]] = None,
    config: Optional[Mapping[str, Mapping[str, int]]] = None,
) -> FitTarget:
    """A :class:`FitTarget` whose observations come from simulating the
    machine with ``truth`` applied — ground truth for recovery tests:
    fitting the ``truth`` paths against this target must drive the loss
    to ~0 at the known values."""
    if isinstance(benchmarks, str):
        benchmarks = (benchmarks,)
    target = FitTarget(
        machine=machine,
        nprocs=nprocs,
        library=library,
        overrides=dict(overrides or {}),
        config={b: dict(c) for b, c in (config or {}).items()},
        observations=tuple(
            FitObservation(benchmark=b, experiment=k, time=1.0)
            for b in benchmarks
            for k in keys
        ),
    )
    cells = _build_cells(target)
    times = _evaluate(target, cells, [dict(truth)])[0]
    target.observations = tuple(
        FitObservation(
            benchmark=cell.benchmark,
            experiment=cell.experiment,
            time=float(times[i]),
        )
        for i, cell in enumerate(cells)
    )
    return target
