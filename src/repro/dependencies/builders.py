"""Convenience constructors for common integrity constraints as dependencies.

Embedded dependencies are expressive enough to state all the usual integrity
constraints (Section 2.4): keys, functional dependencies, foreign keys,
inclusion dependencies.  This module builds the corresponding tgds/egds over
positional relation schemas so that callers (and the SQL DDL translator) do
not have to spell the atoms out by hand.
"""

from __future__ import annotations

from typing import Sequence

from ..core.atoms import Atom, EqualityAtom
from ..core.terms import Variable
from ..exceptions import DependencyError
from ..schema.keys import FunctionalDependency
from ..schema.schema import RelationSchema
from .base import EGD, TGD


def _positional_variables(prefix: str, arity: int) -> list[Variable]:
    return [Variable(f"{prefix}{i + 1}") for i in range(arity)]


def functional_dependency_egd(
    relation: str,
    arity: int,
    determinant_positions: Sequence[int],
    dependent_position: int,
    name: str = "",
) -> EGD:
    """The egd stating that *determinant_positions* determine *dependent_position*.

    Positions are 0-based.  Example: ``functional_dependency_egd("s", 2, [0], 1)``
    produces ``s(X1, Y1) ∧ s(X1, Y2) → Y1 = Y2``.
    """
    if dependent_position in determinant_positions:
        raise DependencyError("dependent position must not be a determinant position")
    if not all(0 <= p < arity for p in [*determinant_positions, dependent_position]):
        raise DependencyError(
            f"positions out of range for arity-{arity} relation {relation}"
        )
    left_terms: list[Variable] = []
    right_terms: list[Variable] = []
    for position in range(arity):
        if position in determinant_positions:
            shared = Variable(f"X{position + 1}")
            left_terms.append(shared)
            right_terms.append(shared)
        else:
            left_terms.append(Variable(f"Y{position + 1}a"))
            right_terms.append(Variable(f"Y{position + 1}b"))
    equality = EqualityAtom(
        left_terms[dependent_position], right_terms[dependent_position]
    )
    return EGD(
        [Atom(relation, left_terms), Atom(relation, right_terms)],
        [equality],
        name=name,
    )


def key_egds(
    relation: str,
    arity: int,
    key_positions: Sequence[int],
    name_prefix: str = "",
) -> list[EGD]:
    """Egds stating that *key_positions* form a superkey of *relation*.

    One egd per non-key position (Appendix B's σ(K|A) family).
    """
    egds = []
    for position in range(arity):
        if position in key_positions:
            continue
        name = f"{name_prefix}_{relation}_pos{position}" if name_prefix else ""
        egds.append(
            functional_dependency_egd(relation, arity, key_positions, position, name)
        )
    return egds


def fd_to_egd(
    relation: RelationSchema, fd: FunctionalDependency, name: str = ""
) -> list[EGD]:
    """Translate an attribute-level functional dependency into egds.

    One egd is produced per dependent attribute (an fd with a multi-attribute
    right-hand side is split).
    """
    if fd.relation != relation.name:
        raise DependencyError(
            f"fd is over {fd.relation}, relation schema is {relation.name}"
        )
    determinant = [relation.attribute_position(a) for a in fd.lhs]
    egds = []
    for attribute in sorted(fd.rhs - fd.lhs):
        dependent = relation.attribute_position(attribute)
        egds.append(
            functional_dependency_egd(
                relation.name, relation.arity, determinant, dependent, name
            )
        )
    return egds


def inclusion_dependency(
    source_relation: str,
    source_arity: int,
    source_positions: Sequence[int],
    target_relation: str,
    target_arity: int,
    target_positions: Sequence[int],
    name: str = "",
) -> TGD:
    """The tgd ``source[positions] ⊆ target[positions]``.

    Example: ``inclusion_dependency("orders", 3, [1], "customer", 2, [0])``
    produces ``orders(X1, X2, X3) → ∃Y2 customer(X2, Y2)``.
    """
    if len(source_positions) != len(target_positions):
        raise DependencyError("source and target position lists must have equal length")
    source_terms = _positional_variables("X", source_arity)
    target_terms: list[Variable] = []
    mapping = dict(zip(target_positions, source_positions))
    for position in range(target_arity):
        if position in mapping:
            target_terms.append(source_terms[mapping[position]])
        else:
            target_terms.append(Variable(f"Y{position + 1}"))
    return TGD(
        [Atom(source_relation, source_terms)],
        [Atom(target_relation, target_terms)],
        name=name,
    )


def foreign_key(
    source_relation: str,
    source_arity: int,
    source_positions: Sequence[int],
    target_relation: str,
    target_arity: int,
    target_positions: Sequence[int],
    name: str = "",
) -> list[TGD | EGD]:
    """A foreign key: inclusion dependency plus key egds on the target.

    The referenced positions are required to be a key of the target relation,
    which is how SQL's ``FOREIGN KEY ... REFERENCES`` semantics translate to
    embedded dependencies.
    """
    dependencies: list[TGD | EGD] = [
        inclusion_dependency(
            source_relation,
            source_arity,
            source_positions,
            target_relation,
            target_arity,
            target_positions,
            name=name,
        )
    ]
    dependencies.extend(
        key_egds(target_relation, target_arity, list(target_positions), name_prefix=name)
    )
    return dependencies
