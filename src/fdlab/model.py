"""Tables with incomplete information: standard, vague, and disjunctive models.

A vague tuple stores a non-empty finite set of candidate values per cell; a
disjunctive tuple stores a finite set of alternative standard rows.  Every
valuation (one value per cell, or one disjunct per tuple) yields a standard
row; a valuation of a whole table yields a standard table with duplicates
removed, called a possible world.

Values are checked once, where they enter the program: the tuple
constructors (and `Table.standard`/`vague`/`disjunctive`), `parse_table` and
`generate_3dm_reduction` check and intern them.  With `checked=True` the
constructors trust their input instead: it must already be in the stored
form (a tuple of values, a tuple of frozenset cells, a frozenset of rows)
built from `check_value` results, with the schema's arity.  Tables and
tuples derived from checked ones (worlds, witnesses, projections) are built
that way, so nothing is re-checked.

All types here are immutable and hashable.  Values are plain strings with a
total order (lexicographic), used only to make iteration and serialization
deterministic.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Optional, Sequence, Union

from .errors import ModelError, SchemaError, ValuationBudgetExceeded, WorldLimitExceeded

DEFAULT_VALUATION_CAP = 1_000_000


class Model(str, Enum):
    STANDARD = "standard"
    VAGUE = "vague"
    DISJUNCTIVE = "disjunctive"


Row = tuple  # raw value row: tuple[str, ...]


@dataclass(frozen=True)
class Schema:
    """Ordered list of uniquely named attributes."""

    attributes: tuple

    def __init__(self, attributes: Iterable[str]):
        attrs = tuple(attributes)
        for a in attrs:
            if not isinstance(a, str) or not a or a != a.strip():
                raise SchemaError(f"attribute name {a!r} must be a non-empty trimmed string")
            if not _RESERVED.isdisjoint(a):
                raise SchemaError(f"attribute name {a!r}: characters ,|{{}}() are reserved")
            if a[0] == "#":
                raise SchemaError(f"attribute name {a!r} must not begin with '#', which starts a comment line")
        if len(set(attrs)) != len(attrs):
            raise SchemaError(f"duplicate attribute names in {attrs}")
        object.__setattr__(self, "attributes", attrs)

    def __len__(self) -> int:
        return len(self.attributes)

    def __iter__(self) -> Iterator[str]:
        return iter(self.attributes)

    def __contains__(self, name: str) -> bool:
        return name in self.attributes

    def positions(self, attrs: Iterable[str]) -> tuple:
        """Positions of `attrs`, in schema order; rejects unknown names."""
        wanted = set(attrs)
        unknown = wanted - set(self.attributes)
        if unknown:
            raise SchemaError(f"unknown attributes {sorted(unknown)} for schema {self.attributes}")
        return tuple(i for i, a in enumerate(self.attributes) if a in wanted)

    def restrict(self, attrs: Iterable[str]) -> "Schema":
        return Schema(self.attributes[i] for i in self.positions(attrs))


_CELL_OPEN, _CELL_SEP, _CELL_CLOSE = "{", "|", "}"
_RESERVED = frozenset(",|{}()\n")


def check_value(v: str) -> str:
    """Values must be plain non-empty strings free of structural characters,
    not beginning with `#` (a table file line that does is a comment).

    Returned interned, since the same value typically recurs across many
    cells, bindings, and map keys.
    """
    if not isinstance(v, str) or not v or v != v.strip():
        raise SchemaError(f"bad value {v!r}: must be a non-empty trimmed string")
    if not _RESERVED.isdisjoint(v):
        raise SchemaError(f"bad value {v!r}: characters ,|{{}}() are reserved")
    if v[0] == "#":
        raise SchemaError(f"bad value {v!r}: must not begin with '#', which starts a comment line")
    return sys.intern(v)


class Memo(dict):
    """key -> fn(key), computed once per distinct key."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        self[key] = value = self.fn(key)
        return value


def _as_cell(value) -> frozenset:
    if isinstance(value, str):
        return frozenset((check_value(value),))
    return frozenset(check_value(v) for v in value)


def render_cell(cell: frozenset) -> str:
    """Canonical text for a set-valued cell; singletons render bare."""
    vals = sorted(cell)
    if len(vals) == 1:
        return vals[0]
    return _CELL_OPEN + _CELL_SEP.join(vals) + _CELL_CLOSE


@dataclass(frozen=True)
class StandardTuple:
    """One known value per attribute."""

    schema: Schema
    values: tuple

    def __init__(self, schema: Schema, values: Sequence[str], *, checked: bool = False):
        if not checked:
            values = tuple(check_value(v) for v in values)
            if len(values) != len(schema):
                raise SchemaError(f"arity {len(values)} does not match schema {schema.attributes}")
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "values", values)

    @property
    def model(self) -> Model:
        return Model.STANDARD

    def valuations(self) -> Iterator[Row]:
        return iter((self.values,))

    def valuation_count(self) -> int:
        return 1

    def sort_key(self):
        return self.values

    def render(self) -> str:
        return ",".join(self.values)


@dataclass(frozen=True)
class VagueTuple:
    """A non-empty finite set of candidate values per attribute."""

    schema: Schema
    cells: tuple

    def __init__(self, schema: Schema, cells: Sequence, *, checked: bool = False):
        if not checked:
            cells = tuple(_as_cell(c) for c in cells)
            if len(cells) != len(schema):
                raise SchemaError(f"arity {len(cells)} does not match schema {schema.attributes}")
            for attr, cell in zip(schema, cells):
                if not cell:
                    raise SchemaError(f"empty cell for attribute {attr}")
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "cells", cells)

    @property
    def model(self) -> Model:
        return Model.VAGUE

    def valuations(self) -> Iterator[Row]:
        """All standard rows obtainable from this tuple, in value order."""
        return itertools.product(*(sorted(c) for c in self.cells))

    def valuation_count(self) -> int:
        return math.prod(map(len, self.cells))

    def render(self) -> str:
        return ",".join(render_cell(c) for c in self.cells)


@dataclass(frozen=True)
class DisjunctiveTuple:
    """A finite, non-empty disjunction of standard rows over one schema."""

    schema: Schema
    disjuncts: frozenset

    def __init__(self, schema: Schema, disjuncts: Iterable[Sequence[str]], *, checked: bool = False):
        if not checked:
            disjuncts = frozenset(tuple(check_value(v) for v in row) for row in disjuncts)
            if not disjuncts:
                raise SchemaError("disjunctive tuple needs at least one disjunct")
            for row in disjuncts:
                if len(row) != len(schema):
                    raise SchemaError(f"disjunct arity {len(row)} does not match schema {schema.attributes}")
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "disjuncts", disjuncts)

    @property
    def model(self) -> Model:
        return Model.DISJUNCTIVE

    def valuations(self) -> Iterator[Row]:
        return iter(sorted(self.disjuncts))

    def valuation_count(self) -> int:
        return len(self.disjuncts)

    def sort_key(self):
        return tuple(sorted(self.disjuncts))

    def render(self) -> str:
        return "||".join("(" + ",".join(row) + ")" for row in sorted(self.disjuncts))


AnyTuple = Union[StandardTuple, VagueTuple, DisjunctiveTuple]

_MODEL_TYPES = {
    Model.STANDARD: StandardTuple,
    Model.VAGUE: VagueTuple,
    Model.DISJUNCTIVE: DisjunctiveTuple,
}


@dataclass(frozen=True)
class Table:
    """A set of tuples of one uniform model; duplicates collapse eagerly."""

    schema: Schema
    model: Model
    tuples: tuple

    def __init__(self, schema: Schema, model: Model, tuples: Iterable[AnyTuple]):
        model = Model(model)
        expected = _MODEL_TYPES[model]
        unique = set(tuples)
        for t in unique:
            if not isinstance(t, expected):
                raise ModelError(f"{model.value} table cannot hold a {type(t).__name__}")
            if t.schema is not schema and t.schema != schema:
                raise SchemaError(f"tuple schema {t.schema.attributes} differs from table schema {schema.attributes}")
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "model", model)
        if model is Model.VAGUE:  # each distinct cell is sorted once, not per occurrence
            sorted_cells = Memo(lambda cell: tuple(sorted(cell)))
            key = lambda t: tuple(map(sorted_cells.__getitem__, t.cells))
        else:
            key = lambda t: t.sort_key()
        object.__setattr__(self, "tuples", tuple(sorted(unique, key=key)))

    @classmethod
    def standard(cls, attrs: Iterable[str], rows: Iterable[Sequence[str]]) -> "Table":
        schema = attrs if isinstance(attrs, Schema) else Schema(attrs)
        return cls(schema, Model.STANDARD, (StandardTuple(schema, r) for r in rows))

    @classmethod
    def vague(cls, attrs: Iterable[str], rows: Iterable[Sequence]) -> "Table":
        schema = attrs if isinstance(attrs, Schema) else Schema(attrs)
        return cls(schema, Model.VAGUE, (VagueTuple(schema, r) for r in rows))

    @classmethod
    def disjunctive(cls, attrs: Iterable[str], rows: Iterable[Iterable[Sequence[str]]]) -> "Table":
        schema = attrs if isinstance(attrs, Schema) else Schema(attrs)
        return cls(schema, Model.DISJUNCTIVE, (DisjunctiveTuple(schema, r) for r in rows))

    def __len__(self) -> int:
        return len(self.tuples)

    def __iter__(self) -> Iterator[AnyTuple]:
        return iter(self.tuples)

    def valuation_count(self) -> int:
        return math.prod(t.valuation_count() for t in self.tuples)


World = Table  # a possible world is a standard table


def _world(schema: Schema, rows: Iterable[Row]) -> Table:
    """The standard table of `rows`, valuations of checked tuples over `schema`."""
    return Table(schema, Model.STANDARD, (StandardTuple(schema, r, checked=True) for r in rows))


def project_tuple(t: AnyTuple, attrs: Iterable[str]) -> AnyTuple:
    """t[X]; preserves the tuple model."""
    pos = t.schema.positions(attrs)
    sub = t.schema.restrict(attrs)
    if isinstance(t, StandardTuple):
        return StandardTuple(sub, tuple(t.values[i] for i in pos), checked=True)
    if isinstance(t, VagueTuple):
        return VagueTuple(sub, tuple(t.cells[i] for i in pos), checked=True)
    return DisjunctiveTuple(sub, frozenset(tuple(row[i] for i in pos) for row in t.disjuncts), checked=True)


def project_table(table: Table, attrs: Iterable[str]) -> Table:
    """pi_X(R): project every tuple; duplicates collapse."""
    sub = table.schema.restrict(attrs)
    return Table(sub, table.model, (project_tuple(t, attrs) for t in table.tuples))


def enumerate_worlds(table: Table, limit: Optional[int] = None, cap: int = DEFAULT_VALUATION_CAP) -> list:
    """All distinct possible worlds, canonically ordered: one per valuation
    of the table, with equal worlds collapsed.

    Raises WorldLimitExceeded as soon as the number of distinct worlds passes
    `limit`.  Cost: one product step per valuation of the table; a table with
    more than `cap` of them raises ValuationBudgetExceeded before any world
    is built.
    """
    if table.valuation_count() > cap:
        raise ValuationBudgetExceeded(cap)
    seen = set()
    for combo in itertools.product(*(t.valuations() for t in table.tuples)):
        seen.add(_world(table.schema, combo))
        if limit is not None and len(seen) > limit:
            raise WorldLimitExceeded(limit)
    return sorted(seen, key=lambda w: tuple(t.sort_key() for t in w.tuples))


def to_disjunctive_tuple(t: AnyTuple) -> DisjunctiveTuple:
    if isinstance(t, DisjunctiveTuple):
        return t
    return DisjunctiveTuple(t.schema, frozenset(t.valuations()), checked=True)


def to_disjunctive(table: Table) -> Table:
    """Equivalent disjunctive table (same set of possible worlds)."""
    return Table(table.schema, Model.DISJUNCTIVE, (to_disjunctive_tuple(t) for t in table.tuples))
