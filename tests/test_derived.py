"""Tables and tuples derived from checked ones reuse their values: building
them never calls `check_value`, and gives what the validating constructors
give from the same rows."""

import importlib
import pkgutil
import random

import pytest

import fdlab
import fdlab.model
from fdlab import (
    DisjunctiveTuple,
    StandardTuple,
    Table,
    check_pfd,
    check_seamless,
    enumerate_worlds,
    generate_3dm_reduction,
    project_table,
    seamless_valuation_pfd,
    to_disjunctive_tuple,
)
from fdlab.semantics import find_strong_violation, find_vertical_violation

from gen import (
    grouped_vague_table,
    rand_3dm_instance,
    rand_disjunctive_table,
    rand_fd,
    rand_fd_set,
    rand_standard_table,
    rand_vague_table,
)
from tables import fd

RANDOM_TABLES = {
    "standard": rand_standard_table,
    "vague": rand_vague_table,
    "disjunctive": rand_disjunctive_table,
}


@pytest.fixture
def checks(monkeypatch):
    """The values passed to `check_value`, under every name fdlab binds it to."""
    calls = []
    real = fdlab.model.check_value

    def counted(v):
        calls.append(v)
        return real(v)

    patched = set()
    for info in pkgutil.iter_modules(fdlab.__path__):
        module = importlib.import_module(f"fdlab.{info.name}")
        if getattr(module, "check_value", None) is real:
            monkeypatch.setattr(module, "check_value", counted)
            patched.add(info.name)
    assert patched >= {"model", "formats", "valuation"}
    return calls


def validated(table: Table) -> Table:
    """`table` rebuilt through the validating constructors."""
    attrs = table.schema.attributes
    if table.model is fdlab.Model.STANDARD:
        return Table.standard(attrs, [t.values for t in table.tuples])
    if table.model is fdlab.Model.VAGUE:
        return Table.vague(attrs, [t.cells for t in table.tuples])
    return Table.disjunctive(attrs, [t.disjuncts for t in table.tuples])


def test_seamless_witness_of_a_large_standard_table(checks):
    rng = random.Random(5)
    table = Table.standard(("A", "B"), [(f"a{i:05d}", f"b{rng.randrange(50)}") for i in range(1500)])
    checks.clear()
    world = check_seamless(table, [fd("A", "B")])
    assert checks == []
    assert world == table


def test_valuation_world(checks):
    table, fds = grouped_vague_table(random.Random(2), 300)
    checks.clear()
    world = seamless_valuation_pfd(table, fds, seed=3)
    assert checks == []
    assert world == validated(world)


def test_enumerated_worlds(checks):
    table = Table.vague(("A", "B"), [("a", {"b1", "b2"}), ({"a", "c"}, "b1")])
    checks.clear()
    worlds = enumerate_worlds(table)
    assert checks == []
    assert len(worlds) == 4
    assert worlds == [validated(w) for w in worlds]


def test_strong_witness(checks):
    table = Table.vague(("A", "B"), [("a", {"b1", "b2"}), ("a", "b1")])
    checks.clear()
    hit = find_strong_violation(table, fd("A", "B"))
    assert checks == []
    assert hit.tuples == (StandardTuple(table.schema, ("a", "b1")), StandardTuple(table.schema, ("a", "b2")))


def test_vertical_witness_conversion(checks):
    table = Table.vague(("A", "B"), [("a", {"b1", "b2"}), ("a", "b1")])
    checks.clear()
    hit = find_vertical_violation(table, fd("A", "B"))
    assert checks == []
    assert hit.tuples == tuple(DisjunctiveTuple(table.schema, list(t.valuations())) for t in table.tuples)


def test_projection(checks):
    table = Table.disjunctive(("A", "B", "C"), [[("a", "b", "c"), ("a", "b2", "c")]])
    checks.clear()
    sub = project_table(table, ["A", "C"])
    assert checks == []
    assert sub == Table.disjunctive(("A", "C"), [[("a", "c")]])


def test_reduction_checks_each_element_and_id_once(checks):
    inst = rand_3dm_instance(random.Random(7), 5)
    checks.clear()
    reduction = generate_3dm_reduction(inst)
    distinct = {*inst.x_elements, *inst.y_elements, *inst.z_elements, *inst.triple_ids()}
    assert sorted(checks) == sorted(distinct)
    assert reduction.table == validated(reduction.table)


@pytest.mark.parametrize("model", sorted(RANDOM_TABLES))
def test_derived_tables_equal_the_validated_ones(model):
    rng = random.Random(19)
    for _ in range(120):
        table = RANDOM_TABLES[model](rng, max_attrs=3, max_tuples=4)
        attrs = table.schema.attributes
        for world in enumerate_worlds(table):
            assert world == validated(world)
        world = check_seamless(table, rand_fd_set(rng, attrs, max_fds=3))
        if world is not None:
            assert world == validated(world)
        for t in table.tuples:
            assert to_disjunctive_tuple(t) == DisjunctiveTuple(t.schema, list(t.valuations()))
        sub = project_table(table, [a for a in attrs if rng.random() < 0.6])
        assert sub == validated(sub)
        f = rand_fd(rng, attrs)
        hit = find_strong_violation(table, f)
        if hit is not None:
            assert hit.tuples == tuple(StandardTuple(table.schema, u.values) for u in hit.tuples)
        if model == "vague" and check_pfd(table, f):
            world = seamless_valuation_pfd(table, [f], seed=rng.randrange(100))
            assert world == validated(world)
