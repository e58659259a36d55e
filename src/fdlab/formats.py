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

FD files: one `A B -> C D` per line, `#` starts a comment.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .errors import ParseError
from .model import (
    DisjunctiveTuple,
    Model,
    Schema,
    StandardTuple,
    Table,
    VagueTuple,
)
from .semantics import FunctionalDependency

MODEL_DIRECTIVE = "#model:"
EXTENSION_MODELS = {".stab": Model.STANDARD, ".vtab": Model.VAGUE, ".dtab": Model.DISJUNCTIVE}


def _split_row(line: str, no: int) -> list:
    parts = [p.strip() for p in line.split(",")]
    if any(not p for p in parts):
        raise ParseError("empty field in row", no)
    return parts


def _parse_cell(text: str, no: int) -> frozenset:
    if text.startswith("{"):
        if not text.endswith("}"):
            raise ParseError(f"unterminated cell {text!r}", no)
        values = [v.strip() for v in text[1:-1].split("|")]
        if not values or any(not v for v in values):
            raise ParseError(f"empty value in cell {text!r}", no)
        return frozenset(values)
    if "}" in text or "|" in text:
        raise ParseError(f"stray cell syntax in {text!r}", no)
    return frozenset((text,))


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
    """Parse table text; explicit `model` wins over directive and inference."""
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

    tuples = []
    for no, line in body:
        try:
            if line.startswith("("):
                if table_model is not Model.DISJUNCTIVE:
                    raise ParseError(f"disjunctive row in a {table_model.value} table", no)
                tuples.append(DisjunctiveTuple(schema, _parse_disjunctive_row(line, no, len(schema))))
                continue
            fields = _split_row(line, no)
            if len(fields) != len(schema):
                raise ParseError(f"row has {len(fields)} fields, expected {len(schema)}", no)
            if table_model is Model.DISJUNCTIVE:
                tuples.append(DisjunctiveTuple(schema, (tuple(fields),)))
            elif table_model is Model.VAGUE:
                tuples.append(VagueTuple(schema, tuple(_parse_cell(f, no) for f in fields)))
            else:
                for f in fields:
                    if "{" in f or "}" in f or "|" in f:
                        raise ParseError(f"set-valued cell {f!r} in a standard table", no)
                tuples.append(StandardTuple(schema, tuple(fields)))
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
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.count("->") != 1:
            raise ParseError(f"expected exactly one '->' in {line!r}", no)
        left, right = line.split("->")
        fds.append(FunctionalDependency(left.split(), right.split()))
    return fds


def serialize_fds(fds: Iterable[FunctionalDependency]) -> str:
    return "\n".join(str(fd) for fd in fds) + "\n"
