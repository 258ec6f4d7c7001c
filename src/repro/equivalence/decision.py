"""One-call equivalence façade with explainable verdicts.

``decide_equivalence`` wraps the Σ-aware equivalence tests of Theorems 2.2,
6.1, and 6.2 and returns an :class:`EquivalenceVerdict` carrying not just the
boolean answer but also the chased queries it was decided on, so examples,
benchmarks, and users can see *why* the verdict holds.  ``decide_all``
evaluates all three semantics at once and asserts the Proposition 6.1
implication chain (bag ⇒ bag-set ⇒ set) on its results.

Both are thin delegating shims over the :class:`repro.session.Session`
engine: ``decide_all`` in particular routes through a Session's chase cache,
so each input query is chased at most once per semantics per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..core.query import ConjunctiveQuery
from ..dependencies.base import Dependency, DependencySet
from ..semantics import Semantics
from ..chase.set_chase import DEFAULT_MAX_STEPS


@dataclass(frozen=True)
class EquivalenceVerdict:
    """The outcome of a Σ-aware equivalence test, with its evidence."""

    equivalent: bool
    semantics: Semantics
    chased_left: ConjunctiveQuery
    chased_right: ConjunctiveQuery

    def __bool__(self) -> bool:
        return self.equivalent

    def __str__(self) -> str:
        relation = "≡" if self.equivalent else "≢"
        return (
            f"[{self.semantics}] {self.chased_left.head_predicate} {relation} "
            f"{self.chased_right.head_predicate}  "
            f"(chased: {self.chased_left} | {self.chased_right})"
        )


def decide_equivalence(
    q1: ConjunctiveQuery,
    q2: ConjunctiveQuery,
    dependencies: DependencySet | Sequence[Dependency] = (),
    semantics: Semantics | str = Semantics.BAG_SET,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> EquivalenceVerdict:
    """Decide ``Q1 ≡Σ,X Q2`` and return the verdict with its chased evidence."""
    # Imported lazily: the session engine imports EquivalenceVerdict from
    # this module, so a top-level import would be circular.
    from ..session.engine import Session

    session = Session(dependencies=dependencies, max_steps=max_steps)
    return session.decide(q1, q2, semantics)


def decide_all(
    q1: ConjunctiveQuery,
    q2: ConjunctiveQuery,
    dependencies: DependencySet | Sequence[Dependency] = (),
    max_steps: int = DEFAULT_MAX_STEPS,
) -> Mapping[Semantics, EquivalenceVerdict]:
    """Verdicts under all three semantics, chased through a shared Session cache.

    Each input query is chased at most once per semantics (the three
    per-semantics chases genuinely differ, but no chase is repeated within
    the call), and by Proposition 6.1 the verdicts always satisfy
    bag ⇒ bag-set ⇒ set — which is asserted before returning.
    """
    from ..session.engine import Session

    session = Session(dependencies=dependencies, max_steps=max_steps)
    return session.decide_all(q1, q2)
