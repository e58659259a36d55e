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
built from `check_value` results, with the schema's arity.  Tables, tuples
and schemas derived from checked ones (worlds, witnesses, projections,
`Schema.restrict`) are built that way, so nothing is re-checked.

All types here are immutable and hashable.  Values are plain strings with a
total order (lexicographic), used only to make iteration and serialization
deterministic.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
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

    def positions(self, attrs: Iterable[str]) -> tuple:
        """Positions of `attrs`, in schema order; rejects unknown names."""
        wanted = set(attrs)
        unknown = wanted - set(self.attributes)
        if unknown:
            raise SchemaError(f"unknown attributes {sorted(unknown)} for schema {self.attributes}")
        return tuple(i for i, a in enumerate(self.attributes) if a in wanted)

    def restrict(self, attrs: Iterable[str]) -> "Schema":
        sub = object.__new__(Schema)  # its names are checked already
        object.__setattr__(sub, "attributes", tuple(self.attributes[i] for i in self.positions(attrs)))
        return sub


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


def _in_order(items: Iterable) -> Iterable:
    """A set of several items sorted by `repr` (which never raises), anything else
    as given, so the first bad item an error names does not depend on the hash seed."""
    return sorted(items, key=repr) if isinstance(items, (set, frozenset)) and len(items) > 1 else items


def _as_cell(value) -> frozenset:
    return frozenset(map(check_value, (value,) if isinstance(value, str) else _in_order(value)))


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
            values = tuple(map(check_value, _in_order(values)))
            if len(values) != len(schema):
                raise SchemaError(f"arity {len(values)} does not match schema {schema.attributes}")
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "values", values)

    def valuations(self) -> Iterator[Row]:
        return iter((self.values,))

    def valuation_count(self) -> int:
        return 1

    def render(self) -> str:
        return ",".join(self.values)


@dataclass(frozen=True)
class VagueTuple:
    """A non-empty finite set of candidate values per attribute."""

    schema: Schema
    cells: tuple

    def __init__(self, schema: Schema, cells: Sequence, *, checked: bool = False):
        if not checked:
            cells = tuple(map(_as_cell, _in_order(cells)))
            if len(cells) != len(schema):
                raise SchemaError(f"arity {len(cells)} does not match schema {schema.attributes}")
            for attr, cell in zip(schema, cells):
                if not cell:
                    raise SchemaError(f"empty cell for attribute {attr}")
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "cells", cells)

    def valuations(self) -> Iterator[Row]:
        """All standard rows obtainable from this tuple, in value order."""
        return itertools.product(*map(sorted, self.cells))

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
            disjuncts = [tuple(map(check_value, row)) for row in _in_order(disjuncts)]
            if not disjuncts:
                raise SchemaError("disjunctive tuple needs at least one disjunct")
            for row in disjuncts:
                if len(row) != len(schema):
                    raise SchemaError(f"disjunct arity {len(row)} does not match schema {schema.attributes}")
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "disjuncts", frozenset(disjuncts))  # a frozenset comes back as is

    def valuations(self) -> Iterator[Row]:
        return iter(sorted(self.disjuncts))

    def valuation_count(self) -> int:
        return len(self.disjuncts)

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
            if t.schema.attributes != schema.attributes:
                raise SchemaError(f"tuple schema {t.schema.attributes} differs from table schema {schema.attributes}")
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "model", model)
        if model is Model.VAGUE:  # each distinct cell is sorted once, not per occurrence
            sorted_cells = Memo(lambda cell: tuple(sorted(cell)))
            key = lambda t: tuple(map(sorted_cells.__getitem__, t.cells))
        elif model is Model.DISJUNCTIVE:
            key = lambda t: sorted(t.disjuncts)
        else:
            key = operator.attrgetter("values")
        object.__setattr__(self, "tuples", tuple(sorted(unique, key=key)))

    @classmethod
    def _of(cls, model: Model, attrs: Iterable[str], rows: Iterable) -> "Table":
        """The `model` table of `rows`, each checked by the model's tuple constructor."""
        schema = attrs if isinstance(attrs, Schema) else Schema(attrs)
        return cls(schema, model, (_MODEL_TYPES[model](schema, r) for r in rows))

    standard = functools.partialmethod(_of, Model.STANDARD)
    vague = functools.partialmethod(_of, Model.VAGUE)
    disjunctive = functools.partialmethod(_of, Model.DISJUNCTIVE)

    def __len__(self) -> int:
        return len(self.tuples)

    def __iter__(self) -> Iterator[AnyTuple]:
        return iter(self.tuples)

    def valuation_count(self) -> int:
        return math.prod(t.valuation_count() for t in self.tuples)


def _world(schema: Schema, rows: Iterable[Row]) -> Table:
    """The standard table of `rows`, valuations of checked tuples over `schema`.
    It equals `Table.__init__`'s, built from the sorted distinct rows (it
    keys a standard tuple by its row) without its per-tuple checks, hashes
    and keyed sort."""
    world = object.__new__(Table)
    tuples = tuple(StandardTuple(schema, r, checked=True) for r in sorted(set(rows)))
    vars(world).update(schema=schema, model=Model.STANDARD, tuples=tuples)
    return world


def _projector(schema: Schema, attrs: Iterable[str], kind: type):
    """The sub-schema of `attrs` and t -> t[X] for `kind` tuples over `schema`."""
    pos, sub = schema.positions(attrs), schema.restrict(attrs)
    cut = lambda row: tuple(row[i] for i in pos)
    if kind is DisjunctiveTuple:
        return sub, lambda t: DisjunctiveTuple(sub, frozenset(map(cut, t.disjuncts)), checked=True)
    return sub, lambda t: kind(sub, cut(t.values if kind is StandardTuple else t.cells), checked=True)


def project_tuple(t: AnyTuple, attrs: Iterable[str]) -> AnyTuple:
    """t[X]; preserves the tuple model."""
    return _projector(t.schema, attrs, type(t))[1](t)


def project_table(table: Table, attrs: Iterable[str]) -> Table:
    """pi_X(R): project every tuple, the names resolved once; duplicates collapse."""
    sub, project = _projector(table.schema, attrs, _MODEL_TYPES[table.model])
    return Table(sub, table.model, map(project, table.tuples))


def enumerate_worlds(table: Table, limit: Optional[int] = None, cap: int = DEFAULT_VALUATION_CAP) -> list:
    """All distinct possible worlds, canonically ordered: one per valuation
    of the table, with equal worlds collapsed.

    Raises WorldLimitExceeded as soon as the number of distinct worlds passes
    `limit`.  Cost: one product step per valuation of the table, and one
    world built per distinct world; a table with more than `cap` valuations
    raises ValuationBudgetExceeded before the first step.
    """
    if table.valuation_count() > cap:
        raise ValuationBudgetExceeded(cap)
    seen = set()  # each world as its set of rows
    for combo in itertools.product(*(t.valuations() for t in table.tuples)):
        seen.add(frozenset(combo))
        if limit is not None and len(seen) > limit:
            raise WorldLimitExceeded(limit)
    return [_world(table.schema, rows) for rows in sorted(seen, key=sorted)]


def to_disjunctive_tuple(t: AnyTuple) -> DisjunctiveTuple:
    if isinstance(t, DisjunctiveTuple):
        return t
    return DisjunctiveTuple(t.schema, frozenset(t.valuations()), checked=True)


def _require_within(tuples: Iterable, cap: int) -> None:
    """Raise ValuationBudgetExceeded if a tuple has more than `cap` valuations."""
    if any(t.valuation_count() > cap for t in tuples):
        raise ValuationBudgetExceeded(cap)


def to_disjunctive(table: Table) -> Table:
    """Equivalent disjunctive table (same set of possible worlds); more than
    DEFAULT_VALUATION_CAP valuations of a tuple raise before any is listed."""
    _require_within(table.tuples, DEFAULT_VALUATION_CAP)
    return Table(table.schema, Model.DISJUNCTIVE, (to_disjunctive_tuple(t) for t in table.tuples))
