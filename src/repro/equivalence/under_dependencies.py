"""Equivalence tests for CQ queries in presence of embedded dependencies.

These are the paper's headline decision procedures.  All three reduce the
Σ-aware equivalence question to a dependency-free test on terminal chase
results, and all three are sound and complete whenever the *set* chase of
the inputs terminates:

* **set semantics** (Theorem 2.2):   Q ≡Σ,S Q′  iff  (Q)Σ,S ≡S (Q′)Σ,S;
* **bag semantics** (Theorem 6.1):   Q ≡Σ,B Q′  iff  (Q)Σ,B ≡B (Q′)Σ,B
  in the absence of all dependencies other than the set-enforcing ones —
  i.e. the Theorem 4.2 test (isomorphism after dropping duplicate subgoals
  over set-valued relations);
* **bag-set semantics** (Theorem 6.2): Q ≡Σ,BS Q′ iff (Q)Σ,BS ≡BS (Q′)Σ,BS
  (isomorphism of canonical representations).

Σ-containment under set semantics (used by C&B's backchase) is provided as
well, via the same chase-then-dependency-free-test route.

The decision procedures are served by the :class:`repro.session.Session`
engine (``session.decide(q1, q2, semantics)``); the generic
:func:`equivalent_under_dependencies` dispatcher is the functional entry
point over it.
"""

from __future__ import annotations

from typing import Sequence

from ..core.containment import is_set_contained
from ..core.query import ConjunctiveQuery
from ..dependencies.base import Dependency, DependencySet
from ..semantics import Semantics
from ..chase.set_chase import DEFAULT_MAX_STEPS
from ..chase.sound_chase import sound_chase


def contained_under_dependencies_set(
    q1: ConjunctiveQuery,
    q2: ConjunctiveQuery,
    dependencies: DependencySet | Sequence[Dependency],
    max_steps: int = DEFAULT_MAX_STEPS,
) -> bool:
    """Decide ``Q1 ⊑Σ,S Q2`` by chasing both sides and testing set containment."""
    dependencies = DependencySet.coerce(dependencies)
    chased1 = sound_chase(q1, dependencies, Semantics.SET, max_steps).query
    chased2 = sound_chase(q2, dependencies, Semantics.SET, max_steps).query
    return is_set_contained(chased1, chased2)


def equivalent_under_dependencies(
    q1: ConjunctiveQuery,
    q2: ConjunctiveQuery,
    dependencies: DependencySet | Sequence[Dependency],
    semantics: Semantics | str = Semantics.BAG_SET,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> bool:
    """Decide ``Q1 ≡Σ,X Q2`` for the chosen semantics X."""
    from ..session.engine import Session

    session = Session(dependencies=dependencies, max_steps=max_steps)
    return session.decide(q1, q2, semantics).equivalent
