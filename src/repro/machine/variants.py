"""Derived machine variants for parameter sweeps.

The two calibrated machines (:func:`~repro.machine.factories.paragon`,
:func:`~repro.machine.factories.t3d`) fix every cost parameter at the
value that reproduces the paper's two data points.  A *variant* is the
same machine with a small set of named parameters replaced — latency
halved, the combining knee moved, a primitive's overhead scaled — so a
sweep can turn each of the paper's findings into a curve.

Overrides are flat ``path -> value`` mappings over a closed set of
sweepable fields:

==============================  =============================================
path                            field
==============================  =============================================
``net.latency``                 :class:`~repro.machine.params.NetworkParams`
``net.bandwidth``               (message-passing wire)
``net.raw_latency``             one-sided wire latency (T3D SHMEM)
``compute.flop_time``           :class:`~repro.machine.params.ComputeParams`
``compute.loop_overhead``
``reduction.stage_cost``        :class:`~repro.machine.params.ReductionParams`
``prim.<name>.<field>``         one :class:`~repro.machine.params.PrimitiveCost`
``prim.*.<field>``              every primitive of the machine
==============================  =============================================

where ``<field>`` is one of ``fixed``, ``per_byte``, ``knee_bytes``,
``per_byte_beyond``, ``spread_penalty``, ``spread_cap``.

:func:`apply_overrides` derives a new frozen :class:`Machine` through
``dataclasses.replace`` — the base machine is never mutated — and
:func:`variant_id` gives every override set a content-stable identifier
that flows into the engine's job fingerprints, so swept cells cache
independently of the calibrated machines and of each other.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from functools import lru_cache
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import MachineError
from repro.machine.params import Machine, PrimitiveCost, SyncKind

__all__ = [
    "NETWORK_FIELDS",
    "PRIMITIVE_FIELDS",
    "SCALAR_PATHS",
    "PrimColumns",
    "VariantMatrix",
    "apply_overrides",
    "clear_pack_cache",
    "default_bounds",
    "describe_overrides",
    "normalize_overrides",
    "override_value",
    "pack_cache_info",
    "pack_variant_specs",
    "pack_variants",
    "validate_override_path",
    "variant_id",
]

OverrideValue = Union[int, float]

#: Sweepable fields of :class:`NetworkParams`.
NETWORK_FIELDS = ("latency", "bandwidth", "raw_latency")

#: Sweepable fields of :class:`PrimitiveCost`.
PRIMITIVE_FIELDS = (
    "fixed",
    "per_byte",
    "knee_bytes",
    "per_byte_beyond",
    "spread_penalty",
    "spread_cap",
)

#: Non-primitive paths and the (section, field) they resolve to.
SCALAR_PATHS: Dict[str, Tuple[str, str]] = {
    **{f"net.{f}": ("network", f) for f in NETWORK_FIELDS},
    "compute.flop_time": ("compute", "flop_time"),
    "compute.loop_overhead": ("compute", "loop_overhead"),
    "reduction.stage_cost": ("reduction", "stage_cost"),
}

#: Fields that must stay strictly positive for the cost model to make
#: sense (a zero-bandwidth wire divides by zero).
_STRICTLY_POSITIVE = {"bandwidth"}

#: Fields holding byte counts — coerced to int, must be integral.
_INTEGRAL = {"knee_bytes"}


def _valid_paths_hint() -> str:
    return (
        "valid paths: "
        + ", ".join(sorted(SCALAR_PATHS))
        + ", prim.<name|*>.{"
        + ",".join(PRIMITIVE_FIELDS)
        + "}"
    )


def validate_override_path(path: str) -> None:
    """Check that ``path`` names a sweepable parameter (shape only —
    primitive names are checked against a concrete machine when the
    override is applied).  Raises :class:`MachineError` otherwise."""
    if path in SCALAR_PATHS:
        return
    parts = path.split(".")
    if len(parts) == 3 and parts[0] == "prim":
        if parts[2] in PRIMITIVE_FIELDS:
            return
        raise MachineError(
            f"unknown primitive-cost field {parts[2]!r} in override "
            f"{path!r}; {_valid_paths_hint()}"
        )
    raise MachineError(f"unknown override path {path!r}; {_valid_paths_hint()}")


def _check_value(path: str, field: str, value: OverrideValue) -> OverrideValue:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MachineError(
            f"override {path} must be a number, got {value!r}"
        )
    value = float(value)
    if not math.isfinite(value):
        raise MachineError(f"override {path} must be finite, got {value!r}")
    if value < 0:
        raise MachineError(
            f"override {path} must be non-negative, got {value!r}"
        )
    if field in _STRICTLY_POSITIVE and value == 0:
        raise MachineError(f"override {path} must be positive, got {value!r}")
    if field in _INTEGRAL:
        if value != int(value):
            raise MachineError(
                f"override {path} must be an integral byte count, "
                f"got {value!r}"
            )
        return int(value)
    return value


def normalize_overrides(
    overrides: Mapping[str, OverrideValue],
) -> Tuple[Tuple[str, OverrideValue], ...]:
    """Validate paths/values and return the canonical (sorted, typed)
    override tuple — the hashable form :class:`~repro.engine.MachineSpec`
    carries and :func:`variant_id` hashes."""
    out = []
    for path in sorted(overrides):
        validate_override_path(path)
        field = path.rsplit(".", 1)[1]
        out.append((path, _check_value(path, field, overrides[path])))
    return tuple(out)


def variant_id(overrides: Mapping[str, OverrideValue]) -> str:
    """Content-stable identifier of an override set.

    ``"base"`` for no overrides; otherwise a 12-hex-digit SHA-256 prefix
    of the canonical JSON form, independent of mapping order.
    """
    items = normalize_overrides(overrides)
    if not items:
        return "base"
    canonical = json.dumps(items, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def describe_overrides(overrides: Mapping[str, OverrideValue]) -> str:
    """Human-readable ``path=value`` list in canonical order."""
    items = normalize_overrides(overrides)
    if not items:
        return "base"
    return ",".join(f"{path}={value:g}" for path, value in items)


def apply_overrides(
    base: Machine, overrides: Mapping[str, OverrideValue]
) -> Machine:
    """Derive a new :class:`Machine` with ``overrides`` applied.

    Purely functional: every touched dataclass is rebuilt through
    ``dataclasses.replace`` and the base machine (including its
    primitives mapping) is left untouched.  Unknown paths, unknown
    primitive names, and out-of-domain values raise
    :class:`MachineError`.
    """
    items = normalize_overrides(overrides)
    if not items:
        return base

    section_fields: Dict[str, Dict[str, OverrideValue]] = {}
    prim_fields: Dict[str, Dict[str, OverrideValue]] = {}
    for path, value in items:
        if path in SCALAR_PATHS:
            section, field = SCALAR_PATHS[path]
            section_fields.setdefault(section, {})[field] = value
        else:
            _, prim_name, field = path.split(".")
            prim_fields.setdefault(prim_name, {})[field] = value

    changes: Dict[str, object] = {}
    for section, fields in section_fields.items():
        changes[section] = dataclasses.replace(
            getattr(base, section), **fields
        )

    if prim_fields:
        star = prim_fields.pop("*", {})
        for prim_name in prim_fields:
            if prim_name not in base.primitives:
                raise MachineError(
                    f"machine {base.name!r} has no primitive {prim_name!r} "
                    f"to override (has: {', '.join(sorted(base.primitives))})"
                )
        primitives: Dict[str, PrimitiveCost] = {}
        for name, prim in base.primitives.items():
            fields = {**star, **prim_fields.get(name, {})}
            primitives[name] = (
                dataclasses.replace(prim, **fields) if fields else prim
            )
        changes["primitives"] = primitives

    return dataclasses.replace(base, **changes)


# ---------------------------------------------------------------------------
# variant cost-matrix packing (the batched evaluator's parameter layout)
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True, eq=False)
class PrimColumns:
    """One primitive's cost fields across every variant.

    Each array has shape ``(V,)`` — one row per variant, in
    :func:`pack_variants` order.  The structural fields (``sync``,
    ``raw_wire``) are required to agree across variants: they change the
    *shape* of the dispatch, not its coefficients, so a batch can't mix
    them.
    """

    name: str
    sync: SyncKind
    raw_wire: bool
    fixed: np.ndarray
    per_byte: np.ndarray
    knee_bytes: np.ndarray
    per_byte_beyond: np.ndarray
    spread_penalty: np.ndarray
    spread_cap: np.ndarray

    def sw_matrix(self, nbytes: np.ndarray) -> np.ndarray:
        """``(M, V)`` software cost of each message under each variant,
        the variant axis innermost as in the price tables
        (:func:`~repro.runtime.costs.price`) — the batched
        :meth:`~repro.machine.params.PrimitiveCost.sw`, with the same
        operation order so every entry is bit-identical to the scalar
        call."""
        nbytes = nbytes[:, None]
        extra = np.maximum(0, nbytes - self.knee_bytes)
        return self.fixed + self.per_byte * nbytes + self.per_byte_beyond * extra


@dataclasses.dataclass(frozen=True, eq=False)
class VariantMatrix:
    """A stack of cost-only machine variants as ``(V,)`` parameter
    columns — the input layout of :func:`repro.simulate_many`.

    Every variant must share the base machine's *shape*: name, processor
    count, grid, library, binding, primitive set, and each primitive's
    ``sync`` / ``raw_wire`` flags.  Only the numeric cost coefficients
    may differ.
    """

    machines: Tuple[Machine, ...]
    flop_time: np.ndarray
    loop_overhead: np.ndarray
    net_latency: np.ndarray
    net_raw: np.ndarray
    net_bandwidth: np.ndarray
    #: full reduction-tree time at the machine's nprocs, per variant
    reduction_time: np.ndarray
    prims: Dict[str, PrimColumns]

    @property
    def base(self) -> Machine:
        return self.machines[0]

    @property
    def nvariants(self) -> int:
        return len(self.machines)


def _require(cond: bool, what: str, index: int) -> None:
    if not cond:
        raise MachineError(
            f"cannot pack variants: machine #{index} differs from the "
            f"base in {what} — batched evaluation needs cost-only "
            "variants (same name, nprocs, grid, library, binding, and "
            "primitive structure)"
        )


def pack_variants(machines: Iterable[Machine]) -> VariantMatrix:
    """Stack cost-only variants of one machine into parameter columns.

    The first machine is the *base*; every other machine must be a
    cost-only variant of it (same shape, see :class:`VariantMatrix`).
    Raises :class:`MachineError` on any structural difference.
    """
    machines = tuple(machines)
    if not machines:
        raise MachineError("pack_variants needs at least one machine")
    base = machines[0]
    for i, m in enumerate(machines[1:], start=1):
        _require(m.name == base.name, "name", i)
        _require(m.nprocs == base.nprocs, "nprocs", i)
        _require(m.grid_shape == base.grid_shape, "grid_shape", i)
        _require(m.library == base.library, "library", i)
        _require(m.binding.as_rows() == base.binding.as_rows(), "binding", i)
        _require(
            set(m.primitives) == set(base.primitives), "primitive set", i
        )

    def column(values, dtype=np.float64):
        return np.array(values, dtype=dtype)

    prims: Dict[str, PrimColumns] = {}
    for name in sorted(set(base.primitives) | {"noop"}):
        cols = [m.primitive(name) for m in machines]
        head = cols[0]
        for i, p in enumerate(cols[1:], start=1):
            _require(p.sync is head.sync, f"prim.{name}.sync", i)
            _require(p.raw_wire == head.raw_wire, f"prim.{name}.raw_wire", i)
        prims[name] = PrimColumns(
            name=name,
            sync=head.sync,
            raw_wire=head.raw_wire,
            fixed=column([p.fixed for p in cols]),
            per_byte=column([p.per_byte for p in cols]),
            knee_bytes=column([p.knee_bytes for p in cols], dtype=np.int64),
            per_byte_beyond=column([p.per_byte_beyond for p in cols]),
            spread_penalty=column([p.spread_penalty for p in cols]),
            spread_cap=column([p.spread_cap for p in cols]),
        )

    return VariantMatrix(
        machines=machines,
        flop_time=column([m.compute.flop_time for m in machines]),
        loop_overhead=column([m.compute.loop_overhead for m in machines]),
        net_latency=column([m.network.latency for m in machines]),
        net_raw=column([m.network.raw for m in machines]),
        net_bandwidth=column([m.network.bandwidth for m in machines]),
        reduction_time=column(
            [m.reduction.time(m.nprocs) for m in machines]
        ),
        prims=prims,
    )


#: sized above any realistic sweep's distinct (library x variant-list)
#: combinations, mirroring the TransferPlan LRU from the fast path
_PACK_CACHE_SIZE = 64

OverrideItems = Tuple[Tuple[str, OverrideValue], ...]


@lru_cache(maxsize=_PACK_CACHE_SIZE)
def _pack_specs_cached(
    name: str,
    nprocs: int,
    library: Optional[str],
    overrides_list: Tuple[OverrideItems, ...],
) -> VariantMatrix:
    from repro.machine.factories import machine_by_name

    base = machine_by_name(name, nprocs, library)
    machines = [apply_overrides(base, dict(items)) for items in overrides_list]
    return pack_variants(machines)


def pack_variant_specs(
    name: str,
    nprocs: int,
    library: Optional[str],
    overrides_list: Sequence[Mapping[str, OverrideValue]],
) -> VariantMatrix:
    """A :class:`VariantMatrix` for a list of override sets of one named
    machine, memoized by content.

    A sweep's ``benchmark x experiment`` cells all share one variant
    list, so the cost-tensor packing (building every derived machine and
    stacking its parameter columns) is paid once per
    ``(machine, nprocs, library, variant-list)`` — not once per cell —
    through a process-wide LRU keyed by the canonical override tuples.
    """
    key = tuple(
        items
        if isinstance(items, tuple)
        else normalize_overrides(dict(items))
        for items in overrides_list
    )
    return _pack_specs_cached(name, nprocs, library, key)


def pack_cache_info():
    """The packing LRU's ``functools`` cache statistics."""
    return _pack_specs_cached.cache_info()


def clear_pack_cache() -> None:
    """Drop every memoized :func:`pack_variant_specs` matrix."""
    _pack_specs_cached.cache_clear()


# ---------------------------------------------------------------------------
# calibration targets: reading parameters back out, and default bounds
# ---------------------------------------------------------------------------


def override_value(machine: Machine, path: str) -> OverrideValue:
    """The current value of an override path on a concrete machine.

    ``prim.*.<field>`` reads the *largest* value across the machine's
    primitives (the conservative anchor for a bound that must contain
    every primitive's current value).
    """
    validate_override_path(path)
    if path in SCALAR_PATHS:
        section, field = SCALAR_PATHS[path]
        value = getattr(getattr(machine, section), field)
        if value is None:  # net.raw_latency unset falls back to latency
            value = machine.network.latency
        return value
    _, prim_name, field = path.split(".")
    if prim_name == "*":
        values = [getattr(p, field) for p in machine.primitives.values()]
        if not values:
            raise MachineError(f"machine {machine.name!r} has no primitives")
        return max(values)
    prim = machine.primitive(prim_name)
    return getattr(prim, field)


#: Per-field fallback upper bounds for parameters whose calibrated value
#: is zero (a zero base gives a degenerate multiplicative bracket).
_FALLBACK_HI: Dict[str, float] = {
    "fixed": 1e-3,
    "per_byte": 1e-7,
    "knee_bytes": 65536,
    "per_byte_beyond": 1e-6,
    "spread_penalty": 4.0,
    "spread_cap": 1e-3,
    "latency": 1e-3,
    "raw_latency": 1e-4,
    "bandwidth": 1e9,
    "flop_time": 1e-6,
    "loop_overhead": 1e-4,
    "stage_cost": 1e-3,
}


def default_bounds(
    machine: Machine, path: str, span: float = 16.0
) -> Tuple[float, float]:
    """A calibration search bracket for one override path.

    Centered multiplicatively on the machine's current value —
    ``(value / span, value * span)`` — so a fit started from a
    calibrated machine brackets plausible re-measurements.  Zero-valued
    parameters get ``(0, fallback)`` from a per-field table; bandwidth
    stays strictly positive.
    """
    if span <= 1.0:
        raise MachineError(f"bounds span must exceed 1, got {span!r}")
    field = path.rsplit(".", 1)[1]
    base = float(override_value(machine, path))
    if base > 0.0:
        lo, hi = base / span, base * span
    else:
        lo, hi = 0.0, _FALLBACK_HI[field]
    if field in _STRICTLY_POSITIVE and lo == 0.0:
        lo = hi / span**2
    if field in _INTEGRAL:
        lo, hi = float(int(lo)), float(max(int(math.ceil(hi)), int(lo) + 1))
    return lo, hi
