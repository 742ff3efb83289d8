"""Declarative sweeps: a grid of :class:`~repro.api.SearchSpec` scenarios.

Every headline result of the paper is a sweep — Tables II–V vary client
count × level × dispatcher, Table VI varies the cluster repartition.  A
:class:`SweepSpec` makes that a first-class object: a frozen, JSON-round-
trippable description of a base spec plus named axes, expanding
*deterministically* into one :class:`SweepCell` per point of the Cartesian
product.  Determinism matters because the expansion order defines each
cell's index and the ``repeats`` axis derives each repeat's seed; two
processes expanding the same document must agree cell for cell, which is
what lets :class:`repro.lab.store.ResultStore` resume an interrupted sweep.

Axes name either a ``SearchSpec`` field (``n_clients``, ``level``,
``dispatcher``, ``workload``, ...) or an algorithm parameter via a dotted
``params.<name>`` key::

    SweepSpec(
        base=SearchSpec(workload="morpion-small", backend="sim-cluster", max_steps=1),
        axes={"dispatcher": ("rr", "lm"), "n_clients": (1, 4, 16, 64)},
    )

By default every cell keeps the base seed, so scores are comparable across
the grid and the engine's job cache is shared (the paper's tables compare
*times* of the same search).  ``repeats=k`` adds an outermost repetition axis
whose seeds are derived from the base seed with :func:`repro.prng.derive_seed`,
for sweeps that want score statistics instead.

Cells are independent by construction (each is a complete, serialisable
:class:`~repro.api.SearchSpec`), which is what lets the engine shard a grid
across the persistent worker-*process* pool (``executor="process"`` /
``repro sweep --processes N``; see :mod:`repro.lab.procpool`) with results
identical to the inline run.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import sys
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.api import SearchSpec
from repro.prng import derive_seed

__all__ = ["SweepSpec", "SweepCell", "PARAM_AXIS_PREFIX"]

#: Axis-name prefix selecting an algorithm parameter instead of a spec field.
PARAM_AXIS_PREFIX = "params."

_SPEC_FIELDS = {f.name for f in dataclasses.fields(SearchSpec)}


@dataclass(frozen=True)
class SweepCell:
    """One point of an expanded sweep: its index, grid coordinates and spec."""

    index: int
    coords: Mapping[str, Any]
    spec: SearchSpec

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", MappingProxyType(dict(self.coords)))


@dataclass(frozen=True)
class SweepSpec:
    """A frozen, serialisable description of a grid of search scenarios.

    Attributes
    ----------
    base:
        The :class:`SearchSpec` every cell starts from.
    axes:
        Ordered mapping of axis name to the values it sweeps.  Axis names are
        ``SearchSpec`` field names or ``params.<name>`` dotted keys; axis
        order defines the expansion order (first axis varies slowest).
    name:
        Label recorded in exports and progress output.
    repeats:
        Number of repetitions of the whole grid.  ``1`` (default) keeps the
        base seed everywhere; ``k > 1`` adds an outermost ``repeat`` axis
        whose cells get seeds derived from ``base.seed`` and the repeat
        index, so repetitions are independent but reproducible.
    """

    base: SearchSpec = field(default_factory=SearchSpec)
    axes: Mapping[str, Tuple[Any, ...]] = field(default_factory=dict, hash=False)
    name: str = "sweep"
    repeats: int = 1

    def __post_init__(self) -> None:
        normalized: Dict[str, Tuple[Any, ...]] = {}
        for axis, values in dict(self.axes).items():
            if not isinstance(axis, str):
                raise ValueError(f"axis names must be strings, got {axis!r}")
            target = axis[len(PARAM_AXIS_PREFIX):] if axis.startswith(PARAM_AXIS_PREFIX) else None
            if target is not None:
                if not target:
                    raise ValueError("empty param axis name 'params.'")
            elif axis == "params":
                raise ValueError(
                    "sweep over individual algorithm parameters with 'params.<name>' "
                    "axes, not over the whole params mapping"
                )
            elif axis not in _SPEC_FIELDS:
                known = ", ".join(sorted(_SPEC_FIELDS - {"params"}))
                raise ValueError(
                    f"unknown sweep axis {axis!r}; axes name a SearchSpec field "
                    f"({known}) or an algorithm parameter via 'params.<name>'"
                )
            if isinstance(values, (str, bytes)) or not isinstance(values, Sequence):
                raise ValueError(f"axis {axis!r} needs a sequence of values, got {values!r}")
            if not values:
                raise ValueError(f"axis {axis!r} has no values")
            normalized[axis] = tuple(values)
            if target is None:
                # SearchSpec checks each field on its own, so checking every
                # value once against the base fails a bad cell at
                # construction, not mid-sweep, in time linear in the axes.
                for value in normalized[axis]:
                    self.base.replace(**{axis: value})
        object.__setattr__(self, "axes", MappingProxyType(normalized))
        if isinstance(self.repeats, bool) or not isinstance(self.repeats, int):
            raise ValueError(
                f"malformed SweepSpec: repeats must be an integer, got {self.repeats!r}"
            )
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if self.repeats > 1 and "seed" in normalized:
            raise ValueError("a 'seed' axis and repeats > 1 both drive the seed; use one")
        n_cells = self.__len__()  # len() itself would overflow past sys.maxsize
        if n_cells > sys.maxsize:
            raise ValueError(f"a sweep has at most {sys.maxsize} cells, this one {n_cells}")

    def __len__(self) -> int:
        n = self.repeats
        for values in self.axes.values():
            n *= len(values)
        return n

    def cells(self) -> Iterator[SweepCell]:
        """Expand into :class:`SweepCell`\\ s, deterministically.

        The Cartesian product runs in axis order (first axis slowest); with
        ``repeats > 1`` the repetition is the outermost axis and each
        repetition's seed is ``derive_seed(base.seed, "sweep-repeat", r)``.
        """
        names = list(self.axes)
        index = 0
        for repeat in range(self.repeats):
            for combo in itertools.product(*self.axes.values()):
                coords: Dict[str, Any] = dict(zip(names, combo))
                overrides: Dict[str, Any] = {}
                params: Optional[Dict[str, Any]] = None
                for axis, value in coords.items():
                    if axis.startswith(PARAM_AXIS_PREFIX):
                        if params is None:
                            params = dict(self.base.params)
                        params[axis[len(PARAM_AXIS_PREFIX):]] = value
                    else:
                        overrides[axis] = value
                if params is not None:
                    overrides["params"] = params
                if self.repeats > 1:
                    coords["repeat"] = repeat
                    overrides["seed"] = derive_seed(self.base.seed, "sweep-repeat", repeat)
                yield SweepCell(index=index, coords=coords, spec=self.base.replace(**overrides))
                index += 1

    def specs(self) -> List[SearchSpec]:
        """The expanded per-cell specs, in cell-index order."""
        return [cell.spec for cell in self.cells()]

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form; round-trips via :meth:`from_dict`."""
        return {
            "name": self.name,
            "base": self.base.to_dict(),
            "axes": {axis: list(values) for axis, values in self.axes.items()},
            "repeats": self.repeats,
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """Canonical JSON form: every key sorted except the axis names.

        Axis order defines cell order, so it is kept; the rest is sorted so
        that equal sweeps give equal documents (the service's in-flight
        dedup key hashes this text).
        """
        data = json.loads(json.dumps(self.to_dict(), sort_keys=True))
        data["axes"] = {axis: data["axes"][axis] for axis in self.axes}
        return json.dumps(data, indent=indent)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepSpec":
        """Build a sweep from a dict; ``ValueError`` for any malformed document."""
        if not isinstance(data, Mapping):
            raise ValueError(f"a SweepSpec document must be an object, got {data!r}")
        known = {"name", "base", "axes", "repeats"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown SweepSpec fields: {', '.join(unknown)}; "
                f"known fields: {', '.join(sorted(known))}"
            )
        base = data.get("base", {})
        if isinstance(base, Mapping):
            base = SearchSpec.from_dict(base)
        elif not isinstance(base, SearchSpec):
            raise ValueError(f"a SweepSpec base must be a SearchSpec object, got {base!r}")
        axes = data.get("axes", {})
        if not isinstance(axes, Mapping):
            raise ValueError(f"SweepSpec axes must be an object, got {axes!r}")
        try:
            return cls(
                base=base,
                axes=axes,
                name=data.get("name", "sweep"),
                repeats=data.get("repeats", 1),
            )
        except TypeError as exc:  # e.g. a string freq_ghz on an axis
            raise ValueError(f"malformed SweepSpec: {exc}") from None

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("a SweepSpec JSON document must be an object")
        return cls.from_dict(data)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SweepSpec):
            return NotImplemented
        return (
            self.base == other.base
            and dict(self.axes) == dict(other.axes)
            and list(self.axes) == list(other.axes)  # axis order defines cell order
            and self.name == other.name
            and self.repeats == other.repeats
        )

    def __hash__(self) -> int:
        return hash((self.base, tuple(self.axes.items()), self.name, self.repeats))
