"""The hash-linear finders agree with their pairwise definitions."""

import random

import pytest

from fdlab import FunctionalDependency, PfdIndex, Table, ValuationBudgetExceeded
from fdlab.semantics import (
    _fd_positions,
    answer_set,
    contributions,
    find_pfd_violation,
    find_rm_violation,
    find_standard_violation,
    find_vertical_violation,
)

import oracles as O
from gen import rand_disjunctive_table, rand_fd, rand_standard_table, rand_vague_table

GENERATORS = (rand_standard_table, rand_vague_table, rand_disjunctive_table)


def random_cases(seed, count=600):
    rng = random.Random(seed)
    for k in range(count):
        table = GENERATORS[k % 3](rng, max_attrs=4, max_tuples=7)
        yield table, rand_fd(rng, table.schema.attributes)


def test_finders_return_the_oracles_violations():
    violated = 0
    for table, f in random_cases(11):
        want = O.find_pfd_violation(table, f)
        violated += want is not None
        assert find_pfd_violation(table, f) == want
        assert find_vertical_violation(table, f) == O.find_vertical_violation(table, f)
        if table.model.value == "standard":
            assert find_standard_violation(table, f) == O.find_standard_violation(table, f)
        if table.model.value != "disjunctive":
            for variant in ("max", "min"):
                assert find_rm_violation(table, f, variant) == O.find_rm_violation(table, f, variant)
    assert violated > 100  # enough violations that witnesses, not only verdicts, get compared


def test_contributions_follow_the_definition():
    for table, f in random_cases(12):
        x_attrs = tuple(table.schema.restrict(f.lhs).attributes)
        y_attrs = tuple(table.schema.restrict(f.rhs).attributes)
        x_pos, y_pos = _fd_positions(table.schema, f)
        for t in table.tuples:
            want = [(b, answer_set(t, x_attrs, b, y_attrs)) for b in sorted(O.bindings(t, x_attrs))]
            assert contributions(t, x_pos, y_pos) == want


def test_lhs_binding_product_over_the_cap_raises():
    eight = {f"v{i}" for i in range(8)}
    attrs = [f"A{i}" for i in range(8)] + ["B"]
    table = Table.vague(attrs, [[eight] * 8 + ["b1"], [eight] * 8 + ["b2"]])
    f = FunctionalDependency(attrs[:8], {"B"})
    with pytest.raises(ValuationBudgetExceeded):
        find_pfd_violation(table, f)
    with pytest.raises(ValuationBudgetExceeded):
        PfdIndex(f, table.schema).insert(table.tuples[0])
    with pytest.raises(ValuationBudgetExceeded):
        find_pfd_violation(table, FunctionalDependency(attrs[:2], {"B"}), valuation_cap=63)
    assert find_pfd_violation(table, FunctionalDependency(attrs[:2], {"B"}), valuation_cap=64)
