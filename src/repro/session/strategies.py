"""Dispatch on the paper's three semantics.

Each :class:`~repro.semantics.Semantics` member has

* one *sound chase* (Section 4 of the paper),
* one *dependency-free equivalence test* applied to terminal chase results
  (Theorem 2.2 for set, Theorem 6.1 / 4.2 for bag, Theorem 6.2 for bag-set),
* one *C&B variant* (Appendix A / Theorem 6.4 / Theorem K.1), run by
  :func:`repro.reformulation.cb.chase_and_backchase`.

:func:`chase` and :func:`equivalent_chased` look ``sound_chase`` and the
three tests up in this module's globals at call time, so a wrapper set on
this module (a tracer, a counting test) sees every call the engine makes.
"""

from __future__ import annotations

from ..chase.plans import PlanCache
from ..chase.set_chase import DEFAULT_MAX_STEPS, ChaseResult
from ..chase.sound_chase import sound_chase
from ..core.bag_equivalence import (
    is_bag_equivalent_with_set_enforced,
    is_bag_set_equivalent,
)
from ..core.containment import is_set_equivalent
from ..core.query import ConjunctiveQuery
from ..dependencies.base import DependencySet
from ..exceptions import SemanticsError, UnknownSemanticsError
from ..semantics import Semantics

#: The canonical semantics names, as :class:`UnknownSemanticsError` lists them.
NAMES = ("bag", "bag-set", "set")


def resolve(semantics: object) -> Semantics:
    """The :class:`Semantics` member *semantics* names (a member, a name or an alias)."""
    if isinstance(semantics, Semantics):
        return semantics
    if not isinstance(semantics, str):
        raise SemanticsError(
            f"semantics must be a Semantics member or a name, got {semantics!r}"
        )
    try:
        return Semantics.from_name(semantics)
    except ValueError:
        raise UnknownSemanticsError(semantics, NAMES) from None


def chase(
    query: ConjunctiveQuery,
    dependencies: DependencySet,
    semantics: Semantics,
    max_steps: int = DEFAULT_MAX_STEPS,
    plan_cache: PlanCache | None = None,
) -> ChaseResult:
    """The chase that is sound for *semantics*."""
    return sound_chase(query, dependencies, semantics, max_steps, plan_cache=plan_cache)


def equivalent_chased(
    chased1: ConjunctiveQuery,
    chased2: ConjunctiveQuery,
    dependencies: DependencySet,
    semantics: Semantics,
) -> bool:
    """The dependency-free equivalence test of *semantics* on terminal chase results."""
    if semantics is Semantics.SET:
        return is_set_equivalent(chased1, chased2)
    if semantics is Semantics.BAG:
        return is_bag_equivalent_with_set_enforced(
            chased1, chased2, dependencies.set_valued_predicates
        )
    return is_bag_set_equivalent(chased1, chased2)
