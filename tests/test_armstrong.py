"""Closure, implication, and proof construction/checking."""

import random

import pytest

from fdlab import (
    Derivation,
    DerivationStep,
    attribute_closure,
    check_derivation,
    check_pfd,
    check_weak,
    derive,
    implies,
)
from fdlab.armstrong import AUGMENTATION, GIVEN, REFLEXIVITY, TRANSITIVITY

import tables as T
from tables import fd
from gen import rand_fd, rand_fd_set, rand_vague_table


class TestClosure:
    def test_transitive_chain(self):
        assert attribute_closure([fd("A", "B"), fd("B", "C")], {"A"}) == {"A", "B", "C"}

    def test_empty_fd_set(self):
        assert attribute_closure([], {"A", "B"}) == {"A", "B"}

    def test_hand_fixpoint(self):
        assert attribute_closure([fd("A B", "C"), fd("C", "A")], {"B", "C"}) == {"A", "B", "C"}

    def test_closure_operator_laws(self):
        rng = random.Random(0)
        attrs = ["A", "B", "C", "D"]
        for _ in range(100):
            fds = rand_fd_set(rng, attrs)
            x = frozenset(a for a in attrs if rng.random() < 0.5)
            y = x | frozenset(a for a in attrs if rng.random() < 0.3)
            cx = attribute_closure(fds, x)
            assert x <= cx                                   # extensive
            assert cx <= attribute_closure(fds, y)           # monotone
            assert attribute_closure(fds, cx) == cx          # idempotent


class TestImplies:
    def test_transitivity(self):
        assert implies([fd("A", "B"), fd("B", "C")], fd("A", "C"))

    def test_no_reverse(self):
        assert not implies([fd("A", "B")], fd("B", "A"))

    def test_augmentation(self):
        assert implies([fd("A", "B")], fd("A C", "B C"))


class TestDerive:
    def test_transitivity_proof(self):
        fds = [fd("A", "B"), fd("B", "C")]
        d = derive(fds, fd("A", "C"))
        assert d is not None and check_derivation(fds, d)
        assert d.conclusion == fd("A", "C")

    def test_reflexivity_only(self):
        d = derive([], fd("A B", "A"))
        assert d is not None and len(d.steps) == 1
        assert d.steps[0].rule == REFLEXIVITY
        assert check_derivation([], d)

    def test_augmentation_proof(self):
        fds = [fd("A", "B")]
        d = derive(fds, fd("A", "A B"))
        assert d is not None and check_derivation(fds, d)

    def test_not_implied_returns_none(self):
        assert derive([fd("A", "B")], fd("B", "A")) is None

    def test_phase_order(self):
        fds = [fd("A", "B"), fd("B", "C"), fd("C", "D")]
        d = derive(fds, fd("A", "D"))
        phases = [s.rule for s in d.steps]
        order = {GIVEN: 0, REFLEXIVITY: 1, AUGMENTATION: 2, TRANSITIVITY: 3}
        assert phases == sorted(phases, key=order.__getitem__)

    def test_derive_matches_implies(self):
        rng = random.Random(1)
        attrs = ["A", "B", "C", "D", "E"]
        for _ in range(300):
            fds = rand_fd_set(rng, attrs)
            target = rand_fd(rng, attrs)
            d = derive(fds, target)
            assert (d is not None) == implies(fds, target)
            if d is not None:
                assert check_derivation(fds, d)
                assert d.conclusion == target


class TestCheckDerivation:
    def test_missing_premise_index(self):
        bad = Derivation(
            fd("A", "C"),
            (DerivationStep(TRANSITIVITY, fd("A", "C"), (0, 5)),),
        )
        assert not check_derivation([fd("A", "B"), fd("B", "C")], bad)

    def test_mismatched_middle_sets(self):
        fds = [fd("A", "B"), fd("C", "D")]
        bad = Derivation(
            fd("A", "D"),
            (
                DerivationStep(GIVEN, fd("A", "B")),
                DerivationStep(GIVEN, fd("C", "D")),
                DerivationStep(TRANSITIVITY, fd("A", "D"), (0, 1)),
            ),
        )
        assert not check_derivation(fds, bad)

    def test_given_must_be_in_base(self):
        bad = Derivation(fd("A", "B"), (DerivationStep(GIVEN, fd("A", "B")),))
        assert not check_derivation([fd("A", "C")], bad)

    def test_reflexivity_side_condition(self):
        bad = Derivation(fd("A", "B"), (DerivationStep(REFLEXIVITY, fd("A", "B")),))
        assert not check_derivation([], bad)

    def test_unknown_rule_is_malformed(self):
        bad = Derivation(fd("A", "A"), (DerivationStep("voodoo", fd("A", "A")),))
        with pytest.raises(ValueError):
            check_derivation([], bad)

    @pytest.mark.parametrize("step", [
        DerivationStep(AUGMENTATION, fd("A C", "B C"), (0, 0), frozenset("C")),
        DerivationStep(AUGMENTATION, fd("A C", "B"), (0,), frozenset("C")),
        DerivationStep(TRANSITIVITY, fd("A", "C"), (0,)),
        DerivationStep(TRANSITIVITY, fd("A", "B C"), (0, 1)),
    ], ids=["augmentation-premises", "augmentation-conclusion", "transitivity-premises", "transitivity-conclusion"])
    def test_rule_application_must_match_its_rule(self, step):
        base = [fd("A", "B"), fd("B", "C")]
        given = (DerivationStep(GIVEN, base[0]), DerivationStep(GIVEN, base[1]))
        assert not check_derivation(base, Derivation(step.conclusion, given + (step,)))

    def test_conclusion_must_match_last_step(self):
        d = Derivation(fd("A", "B"), (DerivationStep(REFLEXIVITY, fd("A", "A")),))
        assert not check_derivation([], d)


class TestSoundnessAgainstSemantics:
    def test_implied_fds_hold_wherever_the_base_holds(self):
        rng = random.Random(2)
        checked = 0
        while checked < 60:
            table = rand_vague_table(rng)
            attrs = table.schema.attributes
            base = [f for f in rand_fd_set(rng, attrs, max_fds=4) if check_pfd(table, f)]
            target = rand_fd(rng, attrs)
            if implies(base, target):
                assert check_pfd(table, target), (table, base, target)
                checked += 1

    def test_weak_satisfaction_is_not_transitive(self):
        # Fixed regression: this vague table weakly satisfies A->B and B->C
        # but not A->C, so weak verdicts cannot back the transitivity rule.
        assert check_weak(T.TRANSITIVITY_TRAP, T.AB)
        assert check_weak(T.TRANSITIVITY_TRAP, T.BC)
        assert not check_weak(T.TRANSITIVITY_TRAP, T.AC)
