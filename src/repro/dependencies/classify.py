"""Classification of dependencies: fd-shaped egds, positional keys, key-based tgds.

Definition 5.1 of the paper introduces *key-based* tgds (equivalent to
Deutsch's UWDs): a tgd ``φ(X̄,Ȳ) → ∃Z̄ ψ(Ȳ,Z̄)`` is key based when, for every
conclusion atom, the positions carrying universally quantified terms form a
superkey of the relation and the relation is set valued in every instance.
Every chase step with a key-based tgd is assignment fixing, but the converse
fails (Example 4.8 / 5.1): the paper's assignment-fixing notion is strictly
more general, which is why the sound chase in :mod:`repro.chase` uses the
latter.  This module provides the key-based test so the two notions can be
compared (tests and the E2 benchmark do exactly that).

Key information is extracted from the egds of the dependency set: an egd is
*fd shaped* when its premise consists of two constant-free atoms over the
same predicate, neither repeating a variable, that share exactly the
variables on a set of "determinant" positions, and its conclusion equates
the two variables at one other position.  Such a premise matches *every*
pair of tuples agreeing on the determinant, so the egd is an unconditional
positional fd; those fds feed the standard attribute-closure computation.

The superkey half of Definition 5.1 (:func:`is_keyed_by_universal_positions`)
is shared with the chase: :class:`repro.chase.plans.AssignmentFixingRule`
uses it, without the set-valuedness clause, to decide Definition 4.3 for
key-determined tgds without running the test chase.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from ..core.atoms import Atom
from ..core.terms import Constant, Variable
from .base import EGD, TGD, Dependency, DependencySet

PositionalFD = tuple[frozenset[int], int]


def egd_as_positional_fd(dependency: Dependency) -> tuple[str, PositionalFD] | None:
    """Recognise an fd-shaped egd and return ``(relation, (determinant, dependent))``.

    Returns None unless the egd has the functional-dependency shape of
    Appendix B: two premise atoms over one predicate, with no constant and
    no repeated variable, sharing exactly the variables at the determinant
    positions, and one equality between the two variables of one other
    position.  A constant or a repeated variable restricts which tuples the
    premise matches (``r(X,a,Y1) & r(X,a,Y2) -> Y1 = Y2`` only constrains
    tuples with ``a`` in the middle), so such an egd is a conditional fd
    and must not count towards a key.
    """
    if not isinstance(dependency, EGD):
        return None
    if len(dependency.premise) != 2 or len(dependency.equalities) != 1:
        return None
    first, second = dependency.premise
    if first.predicate != second.predicate or first.arity != second.arity:
        return None
    for atom in (first, second):
        if len(set(atom.terms)) != atom.arity:
            return None  # a repeated variable
        if any(isinstance(term, Constant) for term in atom.terms):
            return None
    determinant = frozenset(
        position
        for position, (term1, term2) in enumerate(zip(first.terms, second.terms))
        if term1 == term2
    )
    shared = set(first.terms) & set(second.terms)
    if shared != {first.terms[position] for position in determinant}:
        return None  # a variable shared across different positions
    equality = dependency.equalities[0]
    equated = {equality.left, equality.right}
    for position, (term1, term2) in enumerate(zip(first.terms, second.terms)):
        # Positions where the two atoms differ and are not the equated pair
        # are "don't care" positions (the Z̄ / Z̄' of Appendix B).
        if term1 != term2 and {term1, term2} == equated:
            return first.predicate, (determinant, position)
    return None


def extract_positional_fds(
    dependencies: Iterable[Dependency],
) -> dict[tuple[str, int], list[PositionalFD]]:
    """All fd-shaped egds of *dependencies*, grouped by ``(relation, arity)``.

    An egd only matches atoms of its own arity, so a key derived for one
    arity of an overloaded predicate name says nothing about the other.
    """
    result: dict[tuple[str, int], list[PositionalFD]] = {}
    for dependency in dependencies:
        recognised = egd_as_positional_fd(dependency)
        if recognised is not None:
            result.setdefault(dependency.premise[0].signature, []).append(recognised[1])
    return result


def positions_closure(
    start: Iterable[int], fds: Sequence[PositionalFD]
) -> frozenset[int]:
    """Closure of a set of positions under positional fds."""
    closure = set(start)
    changed = True
    while changed:
        changed = False
        for determinant, dependent in fds:
            if determinant <= closure and dependent not in closure:
                closure.add(dependent)
                changed = True
    return frozenset(closure)


def is_superkey_positions(
    relation: str,
    arity: int,
    positions: Iterable[int],
    dependencies: Iterable[Dependency],
) -> bool:
    """Do *positions* form a superkey of *relation* given the set's fd-shaped egds?"""
    fds = extract_positional_fds(dependencies).get((relation, arity), [])
    closure = positions_closure(positions, fds)
    return set(range(arity)) <= closure


def universal_positions(atom: Atom, universal_variables: Iterable[Variable]) -> set[int]:
    """Positions of *atom* holding universally quantified variables or constants."""
    universal = set(universal_variables)
    positions = set()
    for index, term in enumerate(atom.terms):
        if isinstance(term, Constant) or term in universal:
            positions.add(index)
    return positions


def is_keyed_by_universal_positions(
    tgd: TGD, fds: Mapping[tuple[str, int], Sequence[PositionalFD]]
) -> bool:
    """Is every conclusion atom of *tgd* keyed by its universal positions?

    The superkey clause of Definition 5.1, over fds grouped as
    :func:`extract_positional_fds` groups them.
    """
    universal = set(tgd.universal_variables())
    for atom in tgd.conclusion:
        closure = positions_closure(
            universal_positions(atom, universal), fds.get(atom.signature, ())
        )
        if not set(range(atom.arity)) <= closure:
            return False
    return True


def is_key_based_tgd(tgd: TGD, dependencies: DependencySet) -> bool:
    """Definition 5.1: is *tgd* key based with respect to *dependencies*?

    For every conclusion atom, (i) the positions carrying universal terms
    must be a superkey of the relation under the fd-shaped egds of the set,
    and (ii) the relation must be set valued in every instance (per the
    dependency set's set-valuedness markers).
    """
    if not all(dependencies.is_set_valued(atom.predicate) for atom in tgd.conclusion):
        return False
    return is_keyed_by_universal_positions(tgd, extract_positional_fds(dependencies))


def classify_dependency(dependency: Dependency) -> str:
    """A human-readable classification used by diagnostics and examples."""
    if isinstance(dependency, EGD):
        if egd_as_positional_fd(dependency) is not None:
            return "egd (functional dependency)"
        return "egd"
    if dependency.is_full():
        return "full tgd"
    if dependency.is_inclusion_dependency():
        return "inclusion dependency"
    return "tgd"
