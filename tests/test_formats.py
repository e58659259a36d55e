"""parse_table checks each distinct field once: the same tables, in the same
order, and the same errors as checking every occurrence."""

import random

import pytest

import fdlab.formats
from fdlab import Model, ParseError, parse_table, serialize_table
from gen import (
    grouped_vague_table,
    rand_disjunctive_table,
    rand_standard_table,
    rand_vague_table,
    unique_lhs_vague_table,
)

RANDOM_TABLES = {
    "standard": rand_standard_table,
    "vague": rand_vague_table,
    "disjunctive": rand_disjunctive_table,
}


@pytest.mark.parametrize("model", sorted(RANDOM_TABLES))
def test_round_trip_keeps_the_table_and_its_order(model):
    rng = random.Random(11)
    for _ in range(150):
        table = RANDOM_TABLES[model](rng, max_attrs=4, max_tuples=8)
        text = serialize_table(table)
        assert parse_table(text).tuples == table.tuples
        # Rows out of canonical order sort back into it.
        head, rows = text.splitlines()[:2], text.splitlines()[2:]
        rng.shuffle(rows)
        assert parse_table("\n".join(head + rows)) == table


@pytest.mark.parametrize("make", [
    lambda rng: grouped_vague_table(rng, 300)[0],
    lambda rng: unique_lhs_vague_table(rng, 300)[0],
], ids=["grouped", "unique_lhs"])
def test_round_trip_of_tables_that_repeat_fields(make):
    table = make(random.Random(3))
    assert parse_table(serialize_table(table)).tuples == table.tuples


@pytest.mark.parametrize("text, model, message", [
    # All cell syntax in a row comes before any value check.
    ("A,B,C\na,#b,{c\n", None, "line 2: unterminated cell '{c'"),
    ("A,B\n(a,#b)||(a\n", None, "line 2: disjunct '(a' must be parenthesized"),
    # A bad value seen twice is reported where it is first seen.
    ("A,B\na,x(y\nb,c\nc,d\nd,x(y\n", None, "line 2: bad value 'x(y': characters ,|{}() are reserved"),
    # A bad value first seen late is reported on its own line, after the
    # good fields around it were checked and remembered.
    ("A,B\na,b\na,c\nb,#c\n", None,
     "line 4: bad value '#c': must not begin with '#', which starts a comment line"),
    ("A,B\na,{b|c}\na,{b|#c}\n", None,
     "line 3: bad value '#c': must not begin with '#', which starts a comment line"),
    ("A,B\n(a,b)||(a,c)\n(a,b)||(a,#c)\n", None,
     "line 3: bad value '#c': must not begin with '#', which starts a comment line"),
    # In a standard table a set-valued cell wins over a bad value, wherever it stands.
    ("A,B,C\na,#b,{c|d}\n", Model.STANDARD, "line 2: set-valued cell '{c|d}' in a standard table"),
    ("A,B,C\na,{c|d},#b\n", Model.STANDARD, "line 2: set-valued cell '{c|d}' in a standard table"),
    ("A,B\na,b\nb,{a|b}\n", Model.STANDARD, "line 3: set-valued cell '{a|b}' in a standard table"),
])
def test_errors_are_pinned(text, model, message):
    with pytest.raises(ParseError) as err:
        parse_table(text, model=model)
    assert str(err.value) == message


def test_tuples_are_built_through_the_imported_names(monkeypatch):
    # Tracing swaps these names for plain functions; the parser must call
    # them, once per row, duplicates included.
    cases = [
        ("A,B\na,b\na,c\na,b\n", 3),
        ("A,B\na,{b|c}\na,b\na,{c|b}\nb,{b|c}\n", 4),
        ("A,B\n(a,b)||(a,c)\na,b\n(a,c)||(a,b)\n", 3),
    ]
    want = [parse_table(text) for text, _ in cases]
    calls = []
    for name in ("StandardTuple", "VagueTuple", "DisjunctiveTuple"):
        def counted(*args, _make=getattr(fdlab.formats, name), **kwargs):
            calls.append(_make)
            return _make(*args, **kwargs)
        monkeypatch.setattr(fdlab.formats, name, counted)
    for (text, rows), table in zip(cases, want):
        calls.clear()
        assert parse_table(text) == table
        assert len(calls) == rows
