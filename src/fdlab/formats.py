"""Text formats for tables and dependency lists.

Table files: an optional `#model: <name>` directive, a comma-separated header
row naming the attributes, then one row per tuple.

* standard rows:     `a1,b1,c1`
* vague cells:       `a1,{b1|b2},c1`   (singletons written bare)
* disjunctive rows:  `(a1,b1,c1)||(a1,b2,c2)`

Without a directive the model is inferred: any parenthesized row makes the
table disjunctive, else any braced cell makes it vague, else it is standard.
File extensions `.stab`, `.vtab`, `.dtab` carry the same three meanings for
CLI users.

FD files: one `A B -> C D` per line; a `#` that begins a word (at the start
of a line or after whitespace) starts a comment, so `B#` is a name.
"""

from __future__ import annotations

import re
from typing import Iterable, Optional

from .errors import ParseError
from .model import (
    DisjunctiveTuple,
    Memo,
    Model,
    Schema,
    StandardTuple,
    Table,
    VagueTuple,
    check_value,
)
from .semantics import FunctionalDependency

MODEL_DIRECTIVE = "#model:"
_COMMENT = re.compile(r"(?:^|\s)#.*")  # no name may begin with '#'
EXTENSION_MODELS = {".stab": Model.STANDARD, ".vtab": Model.VAGUE, ".dtab": Model.DISJUNCTIVE}


def _split_row(line: str, no: int) -> list:
    parts = [p.strip() for p in line.split(",")]
    if "" in parts:
        raise ParseError("empty field in row", no)
    return parts


def _parse_cell(text: str, no: int) -> list:
    """The cell's unchecked values, in text order."""
    if text.startswith("{"):
        if not text.endswith("}"):
            raise ParseError(f"unterminated cell {text!r}", no)
        values = [v.strip() for v in text[1:-1].split("|")]
        if "" in values:
            raise ParseError(f"empty value in cell {text!r}", no)
        return values
    if "}" in text or "|" in text:
        raise ParseError(f"stray cell syntax in {text!r}", no)
    return [text]


def _parse_disjunctive_row(line: str, no: int, arity: int) -> list:
    chunks = [c.strip() for c in line.split("||")]
    rows = []
    for chunk in chunks:
        if not (chunk.startswith("(") and chunk.endswith(")")):
            raise ParseError(f"disjunct {chunk!r} must be parenthesized", no)
        values = _split_row(chunk[1:-1], no)
        if len(values) != arity:
            raise ParseError(
                f"disjunct has {len(values)} fields, expected {arity}", no
            )
        rows.append(tuple(values))
    return rows


def _detect_model(body: list) -> Model:
    if any(line.lstrip().startswith("(") for _, line in body):
        return Model.DISJUNCTIVE
    if any("{" in line for _, line in body):
        return Model.VAGUE
    return Model.STANDARD


def parse_table(text: str, model: Optional[Model] = None) -> Table:
    """Parse table text; explicit `model` wins over directive and inference.

    Cost: linear in the text.  Each distinct field text is split and checked
    once per call: a memo kept for this call maps it to its checked cell or
    value, and the tuples are built from that checked input without a second
    check.  The canonical sort is O(n log n) in the n rows.
    """
    lines = [(i + 1, ln.strip()) for i, ln in enumerate(text.splitlines())]
    lines = [(no, ln) for no, ln in lines if ln]

    directive = None
    if lines and lines[0][1].lower().startswith(MODEL_DIRECTIVE):
        no, ln = lines[0]
        name = ln[len(MODEL_DIRECTIVE) :].strip().lower()
        try:
            directive = Model(name)
        except ValueError:
            raise ParseError(f"unknown model {name!r}", no) from None
        lines = lines[1:]
    lines = [(no, ln) for no, ln in lines if not ln.startswith("#")]

    if not lines:
        raise ParseError("missing header row")
    head_no, head = lines[0]
    attrs = _split_row(head, head_no)
    try:
        schema = Schema(attrs)
    except Exception as exc:
        raise ParseError(str(exc), head_no) from None

    body = lines[1:]
    table_model = model or directive or _detect_model(body)
    arity = len(schema)

    values = Memo(check_value)  # field text -> checked value
    cells = {}  # vague field text -> checked cell
    tuples = []
    for no, line in body:
        try:
            if line.startswith("("):
                if table_model is not Model.DISJUNCTIVE:
                    raise ParseError(f"disjunctive row in a {table_model.value} table", no)
                rows = _parse_disjunctive_row(line, no, arity)
                disjuncts = frozenset(tuple(map(values.__getitem__, row)) for row in rows)
                tuples.append(DisjunctiveTuple(schema, disjuncts, checked=True))
                continue
            fields = _split_row(line, no)
            if len(fields) != arity:
                raise ParseError(f"row has {len(fields)} fields, expected {arity}", no)
            if table_model is Model.VAGUE:
                new = [f for f in fields if f not in cells]
                # Every cell's syntax comes before any value check; a cell's values are checked in text order.
                for f, vals in zip(new, [_parse_cell(f, no) for f in new]):
                    cells[f] = frozenset(map(check_value, vals))
                tuples.append(VagueTuple(schema, tuple(map(cells.__getitem__, fields)), checked=True))
                continue
            if table_model is Model.STANDARD:
                for f in fields:
                    if f not in values and ("{" in f or "}" in f or "|" in f):
                        raise ParseError(f"set-valued cell {f!r} in a standard table", no)
            row = tuple(map(values.__getitem__, fields))
            if table_model is Model.DISJUNCTIVE:
                tuples.append(DisjunctiveTuple(schema, frozenset((row,)), checked=True))
            else:
                tuples.append(StandardTuple(schema, row, checked=True))
        except ParseError:
            raise
        except Exception as exc:
            raise ParseError(str(exc), no) from None
    return Table(schema, table_model, tuples)


def serialize_table(table: Table) -> str:
    """Canonical text: model directive, header, rows in canonical order."""
    lines = [f"{MODEL_DIRECTIVE} {table.model.value}", ",".join(table.schema.attributes)]
    lines.extend(t.render() for t in table.tuples)
    return "\n".join(lines) + "\n"


def parse_fds(text: str) -> list:
    """One `A B -> C D` per line; attribute names are resolved at check time."""
    fds = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.sub("", raw, count=1).strip()
        if not line:
            continue
        if line.count("->") != 1:
            raise ParseError(f"expected exactly one '->' in {line!r}", no)
        left, right = line.split("->")
        fds.append(FunctionalDependency(left.split(), right.split()))
    return fds


def serialize_fds(fds: Iterable[FunctionalDependency]) -> str:
    return "\n".join(str(fd) for fd in fds) + "\n"
