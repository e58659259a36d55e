"""Syntactic reasoning over FD sets: closure, implication, and checkable proofs.

The three inference rules are the classical ones:

* reflexivity:   Y subset-of X        gives X -> Y
* augmentation:  X -> Y               gives XZ -> YZ
* transitivity:  X -> Y and Y -> Z    gives X -> Z

`attribute_closure`, `implies` and `derive` run LinClosure (Beeri & Bernstein
1979): each FD counts its lhs attributes outside the closure, ready at 0.  The
fixpoint does not depend on firing order, so `attribute_closure` and `implies`
fire ready FDs in any order, in O(total FD size).  `derive` cites them in a
fixed order (of the ready FDs whose rhs is uncovered, the least by sorted lhs,
then sorted rhs) and emits proofs in a fixed phase order (base citations, one
reflexivity step, augmentations, transitivities) so golden tests stay stable;
`check_derivation` replays them in place, in membership tests linear in size.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Optional

from .semantics import FunctionalDependency

GIVEN = "given"
REFLEXIVITY = "reflexivity"
AUGMENTATION = "augmentation"
TRANSITIVITY = "transitivity"
_RULES = (GIVEN, REFLEXIVITY, AUGMENTATION, TRANSITIVITY)


def _counts(fds: list, closure) -> tuple:
    """LinClosure's counters: per FD, its lhs attributes outside `closure`;
    per attribute, the FDs waiting for it; and the FDs with none missing."""
    missing, waiting, ready = [0] * len(fds), {}, []
    for i, f in enumerate(fds):
        for a in f.lhs:
            if a not in closure:
                missing[i] += 1
                waiting.setdefault(a, []).append(i)
        if not missing[i]:
            ready.append(i)
    return missing, waiting, ready


def attribute_closure(fds: Iterable[FunctionalDependency], attrs: Iterable[str]) -> frozenset:
    """Fixpoint of `attrs` under the FD set: LinClosure, firing ready FDs in any order."""
    fds = list(fds)
    closure = set(attrs)
    missing, waiting, ready = _counts(fds, closure)
    while ready:
        for a in fds[ready.pop()].rhs:
            if a not in closure:
                closure.add(a)
                for j in waiting.get(a, ()):
                    missing[j] -= 1
                    if not missing[j]:
                        ready.append(j)
    return frozenset(closure)


def implies(fds: Iterable[FunctionalDependency], fd: FunctionalDependency) -> bool:
    """Semantic implication, decided syntactically via the closure."""
    return fd.rhs <= attribute_closure(fds, fd.lhs)


@dataclass(frozen=True)
class DerivationStep:
    """One rule application; premises are indices of earlier steps."""

    rule: str
    conclusion: FunctionalDependency
    premises: tuple = ()
    augment_with: frozenset = frozenset()


@dataclass(frozen=True)
class Derivation:
    conclusion: FunctionalDependency
    steps: tuple


def _firings(fds: Iterable[FunctionalDependency], target: FunctionalDependency) -> Optional[list]:
    """The FDs `derive` cites for `target`, each as (f, S_i, S_{i+1}) with the
    closure sets before and after it fires; None if `target` is not implied.

    Citation order: of the ready FDs whose rhs is not covered, the least by
    (sorted lhs, sorted rhs) fires next, until the target rhs is covered.  An
    FD is keyed, and pushed on a heap as (key, index), only when it becomes
    ready with its rhs uncovered; one whose rhs is covered when it pops, such
    as a duplicate after its twin, can never grow the closure and is dropped.
    """
    fds = list(fds)
    closure = frozenset(target.lhs)
    missing, waiting, ready = _counts(fds, closure)
    heap = [(sorted(fds[i].lhs), sorted(fds[i].rhs), i) for i in ready if not fds[i].rhs <= closure]
    heapq.heapify(heap)
    used = []
    while not target.rhs <= closure:
        if not heap:
            return None
        f = fds[heapq.heappop(heap)[2]]
        if f.rhs <= closure:
            continue
        grown = closure | f.rhs
        used.append((f, closure, grown))
        for a in f.rhs - closure:
            for j in waiting.get(a, ()):
                missing[j] -= 1
                if not missing[j] and not fds[j].rhs <= grown:
                    heapq.heappush(heap, (sorted(fds[j].lhs), sorted(fds[j].rhs), j))
        closure = grown
    return used


def derive(fds: Iterable[FunctionalDependency], fd: FunctionalDependency) -> Optional[Derivation]:
    """A machine-checkable proof of `fd` from `fds`, or None if not implied.

    Shape: each used base FD is cited once, in `_firings` order; a single
    reflexivity step brings the target rhs under the closure; augmentation
    steps grow the lhs chain; transitivity steps stitch the chain together.
    """
    used = _firings(fds, fd)  # (f, S_i, S_{i+1})
    if used is None:
        return None
    if not used:
        return Derivation(fd, (DerivationStep(REFLEXIVITY, fd),))

    steps = [DerivationStep(GIVEN, f) for f, _, _ in used]
    reflex_index = len(steps)
    steps.append(DerivationStep(REFLEXIVITY, FunctionalDependency(used[-1][2], fd.rhs)))

    # Augmentations: (S_i -> S_{i+1}) from used FD i (step i), padding by S_i.
    aug_indices = range(len(steps), len(steps) + len(used))
    for given, (f, before, after) in enumerate(used):
        steps.append(DerivationStep(AUGMENTATION, FunctionalDependency(before, after), (given,), before))

    # Transitivity chain: X -> S_1 -> ... -> S_k, then S_k -> rhs.
    chain = aug_indices[0]
    for idx in aug_indices[1:]:
        prev = steps[chain].conclusion
        nxt = steps[idx].conclusion
        steps.append(
            DerivationStep(TRANSITIVITY, FunctionalDependency(prev.lhs, nxt.rhs), (chain, idx))
        )
        chain = len(steps) - 1
    last = FunctionalDependency(steps[chain].conclusion.lhs, fd.rhs)
    steps.append(DerivationStep(TRANSITIVITY, last, (chain, reflex_index)))
    return Derivation(fd, tuple(steps))


def _is_union(c: frozenset, p: frozenset, z) -> bool:
    return len(c) == len(z) + len(p - z) and (z is c or z <= c) and p <= c


def check_derivation(fds: Iterable[FunctionalDependency], derivation: Derivation) -> bool:
    """Validate every step in place against the base set and earlier conclusions."""
    base = set(fds)
    seen = []
    for step in derivation.steps:
        if step.rule not in _RULES:
            raise ValueError(f"unknown rule {step.rule!r}")
        if any(not isinstance(p, int) or p < 0 or p >= len(seen) for p in step.premises):
            return False
        c = step.conclusion
        if step.rule == GIVEN:
            if step.premises or c not in base:
                return False
        elif step.rule == REFLEXIVITY:
            if step.premises or not c.rhs <= c.lhs:
                return False
        elif step.rule == AUGMENTATION:
            if len(step.premises) != 1:
                return False
            p, z = seen[step.premises[0]], step.augment_with
            p.lhs - z  # a z that is no set raises TypeError here, as p.lhs | z would
            if type(c) is not FunctionalDependency or not (_is_union(c.lhs, p.lhs, z) and _is_union(c.rhs, p.rhs, z)):
                return False
        else:  # transitivity; derive shares each side between the steps it links
            if len(step.premises) != 2:
                return False
            p1, p2 = (seen[i] for i in step.premises)
            if not ((p1.rhs is p2.lhs or p1.rhs == p2.lhs) and type(c) is FunctionalDependency
                    and (c.lhs is p1.lhs or c.lhs == p1.lhs) and (c.rhs is p2.rhs or c.rhs == p2.rhs)):
                return False
        seen.append(c)
    return bool(seen) and seen[-1] == derivation.conclusion
