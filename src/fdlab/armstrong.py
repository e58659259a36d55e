"""Syntactic reasoning over FD sets: closure, implication, and checkable proofs.

The three inference rules are the classical ones:

* reflexivity:   Y subset-of X        gives X -> Y
* augmentation:  X -> Y               gives XZ -> YZ
* transitivity:  X -> Y and Y -> Z    gives X -> Z

`attribute_closure`, `implies` and `derive` share one closure loop, LinClosure
(Beeri & Bernstein 1979), linear in total FD size up to a heap's log factor.
`derive` emits proofs in a fixed phase order (base citations, one reflexivity
step, augmentations, transitivities) so golden tests stay stable, and
`check_derivation` replays them in place, in membership tests linear in proof size.
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


def _sorted_fds(fds: Iterable[FunctionalDependency]) -> list:
    return sorted(set(fds), key=lambda f: (tuple(sorted(f.lhs)), tuple(sorted(f.rhs))))


def _firings(fds: Iterable[FunctionalDependency], attrs: Iterable[str]) -> tuple:
    """LinClosure: the FDs that grow `attrs` in firing order, and the closure.

    Each FD counts its lhs attributes outside the closure and, at 0, joins a
    heap of `_sorted_fds` positions.  The least FD in the heap fires unless its
    rhs is covered; then it can never grow the closure.  So each FD fires at
    most once, always the least one that grows it: the order `derive` cites.
    """
    base = _sorted_fds(fds)
    closure = set(attrs)
    missing, waiting, ready = [0] * len(base), {}, []
    for i, f in enumerate(base):
        for a in f.lhs:
            if a not in closure:
                missing[i] += 1
                waiting.setdefault(a, []).append(i)
        if not missing[i]:
            ready.append(i)  # ascending, so a heap
    fired = []
    while ready:
        f = base[heapq.heappop(ready)]
        if f.rhs <= closure:
            continue
        fired.append(f)
        for a in f.rhs - closure:
            closure.add(a)
            for j in waiting.get(a, ()):
                missing[j] -= 1
                if not missing[j]:
                    heapq.heappush(ready, j)
    return fired, frozenset(closure)


def attribute_closure(fds: Iterable[FunctionalDependency], attrs: Iterable[str]) -> frozenset:
    """Fixpoint of `attrs` under the FD set."""
    return _firings(fds, attrs)[1]


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


def derive(fds: Iterable[FunctionalDependency], fd: FunctionalDependency) -> Optional[Derivation]:
    """A machine-checkable proof of `fd` from `fds`, or None if not implied.

    Shape: each used base FD is cited once; a single reflexivity step brings
    the target rhs under the closure; augmentation steps grow the lhs chain;
    transitivity steps stitch the chain together.
    """
    fired, closure = _firings(fds, fd.lhs)
    if not fd.rhs <= closure:
        return None
    # Keep the firings up to the first set S_k that covers the target rhs.
    used = []  # (f, S_i, S_{i+1})
    final_set = frozenset(fd.lhs)
    for f in fired:
        if fd.rhs <= final_set:
            break
        grown = final_set | f.rhs
        used.append((f, final_set, grown))
        final_set = grown

    if not used:
        return Derivation(fd, (DerivationStep(REFLEXIVITY, fd),))

    steps = [DerivationStep(GIVEN, f) for f, _, _ in used]
    reflex_index = len(steps)
    steps.append(DerivationStep(REFLEXIVITY, FunctionalDependency(final_set, fd.rhs)))

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
    steps.append(
        DerivationStep(
            TRANSITIVITY,
            FunctionalDependency(steps[chain].conclusion.lhs, fd.rhs),
            (chain, reflex_index),
        )
    )
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
