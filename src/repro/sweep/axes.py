"""Sweep axes: one swept parameter and its values.

An axis is either the special ``nprocs`` axis (processor counts,
factored through :func:`~repro.machine.factories.square_ish_grid` when
the variant machine is built) or a machine-parameter path from
:mod:`repro.machine.variants` (``net.latency``, ``prim.*.knee_bytes``,
...).  Axis values are validated eagerly so a malformed sweep fails
before any job is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Tuple, Union

from repro.errors import MachineError
from repro.machine.variants import validate_override_path

__all__ = ["NPROCS_AXIS", "SweepAxis", "parse_axis"]

#: The processor-count axis name (swept through ``MachineSpec.nprocs``
#: rather than a parameter override).
NPROCS_AXIS = "nprocs"

AxisValue = Union[int, float]


@dataclass(frozen=True)
class SweepAxis:
    """One swept parameter: an axis name and its ordered values."""

    name: str
    values: Tuple[AxisValue, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise MachineError(f"sweep axis {self.name!r} has no values")
        object.__setattr__(self, "values", tuple(self.values))
        if len(set(self.values)) != len(self.values):
            raise MachineError(
                f"sweep axis {self.name!r} repeats a value: {self.values}"
            )
        if self.name == NPROCS_AXIS:
            coerced = []
            for v in self.values:
                if isinstance(v, bool) or (
                    not isinstance(v, int) and float(v) != int(v)
                ):
                    raise MachineError(
                        f"nprocs axis values must be integers, got {v!r}"
                    )
                v = int(v)
                if v < 1:
                    raise MachineError(
                        f"processor count must be positive, got {v}"
                    )
                coerced.append(v)
            object.__setattr__(self, "values", tuple(coerced))
        else:
            # value domains (non-negative, bandwidth > 0, integral byte
            # counts) are checked per value by normalize_overrides when
            # points are expanded; the path shape is checked here
            validate_override_path(self.name)

    def describe(self) -> str:
        return f"{self.name}=" + ",".join(f"{v:g}" for v in self.values)


def parse_axis(text: str) -> SweepAxis:
    """Parse a CLI axis spec, ``"name=v1,v2,..."``.

    Values parse as int when integral (``4`` or ``1e2``), float
    otherwise; domain validation happens in :class:`SweepAxis` and
    :func:`~repro.machine.variants.normalize_overrides`.
    """
    name, sep, rest = text.partition("=")
    name = name.strip()
    if not sep or not name:
        raise MachineError(
            f"malformed sweep axis {text!r} (expected name=v1,v2,...)"
        )
    values = []
    for piece in rest.split(","):
        piece = piece.strip()
        if not piece:
            raise MachineError(
                f"sweep axis {name!r} has an empty value in {rest!r}"
            )
        try:
            value: AxisValue = int(piece, 10)
        except ValueError:
            try:
                value = float(piece)
            except ValueError:
                raise MachineError(
                    f"sweep axis {name!r}: {piece!r} is not a number"
                ) from None
            if not math.isfinite(value):
                raise MachineError(
                    f"sweep axis {name!r}: {piece!r} is not a finite number"
                )
            if value == int(value) and abs(value) < 2**53:
                value = int(value)
        values.append(value)
    return SweepAxis(name=name, values=tuple(values))


def parse_axes(texts: Iterable[str]) -> Tuple[SweepAxis, ...]:
    """Parse several CLI axis specs, rejecting duplicate axis names."""
    axes = tuple(parse_axis(t) for t in texts)
    seen = set()
    for axis in axes:
        if axis.name in seen:
            raise MachineError(f"sweep axis {axis.name!r} given twice")
        seen.add(axis.name)
    return axes
