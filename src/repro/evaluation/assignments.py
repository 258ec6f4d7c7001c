"""Enumeration of satisfying assignments for a conjunction of atoms.

An *assignment* γ maps the variables of a conjunction of atoms to constants
(and constants to themselves); it satisfies the conjunction with respect to a
database when each atom, instantiated by γ, is a tuple of the corresponding
relation (Section 2.1).  Query evaluation under every semantics, dependency
satisfaction, and the counterexample constructions all enumerate satisfying
assignments, so this module implements the enumeration once, as a
backtracking join:

* relations are indexed per column on demand,
* at each step the next atom joined is the one with the fewest candidate
  tuples given the variables bound so far (most-constrained-first),
* assignments are yielded as plain ``{Variable: value}`` dictionaries.

The join runs on the same compiled representation as the homomorphism
kernel: the conjunction is compiled (once, via
:class:`~repro.core.plan.MatchPlan` — query bodies memoize theirs through
:meth:`~repro.core.query.ConjunctiveQuery.body_plan`) into per-atom
slot/constant codes, and the working assignment is a slot-indexed array of
database values instead of a dictionary keyed by term objects.  Variables
and values reappear only at the yield boundary, so the enumeration order and
the yielded dictionaries are identical to the pre-plan implementation.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

from ..core.atoms import Atom
from ..core.plan import MatchPlan
from ..core.terms import Constant, Variable
from ..database.instance import DatabaseInstance, Relation

Assignment = dict[Variable, object]

#: Slot sentinel: distinguishes "unbound" from bound-to-a-falsy-or-None
#: database value.
_UNBOUND = object()


class _RelationIndex:
    """Per-column hash indexes over a relation's distinct tuples, built lazily."""

    def __init__(self, relation: Relation):
        self.relation = relation
        self.tuples = list(relation)
        self._by_column: dict[int, dict[object, list[tuple]]] = {}

    def column_index(self, position: int) -> dict[object, list[tuple]]:
        if position not in self._by_column:
            index: dict[object, list[tuple]] = {}
            for row in self.tuples:
                index.setdefault(row[position], []).append(row)
            self._by_column[position] = index
        return self._by_column[position]

    def candidates(self, bound: Sequence[tuple[int, object]]) -> list[tuple]:
        """Distinct tuples compatible with the given (position, value) bindings."""
        if not bound:
            return self.tuples
        # Probe the index of the first bound column, then filter on the rest.
        first_position, first_value = bound[0]
        rows = self.column_index(first_position).get(first_value, [])
        if len(bound) == 1:
            return rows
        rest = bound[1:]
        return [row for row in rows if all(row[p] == v for p, v in rest)]


class InstanceIndex:
    """Indexes for every relation of a database instance, built lazily and shared
    across multiple evaluations of queries against the same instance."""

    def __init__(self, instance: DatabaseInstance):
        self.instance = instance
        self._indexes: dict[str, _RelationIndex] = {}

    def for_predicate(self, predicate: str) -> _RelationIndex | None:
        if predicate not in self._indexes:
            if not self.instance.has_relation(predicate):
                return None
            self._indexes[predicate] = _RelationIndex(self.instance.relation(predicate))
        return self._indexes[predicate]


def iter_satisfying_assignments(
    atoms: Sequence[Atom],
    instance: DatabaseInstance,
    index: InstanceIndex | None = None,
    fixed: Mapping[Variable, object] | None = None,
    plan: MatchPlan | None = None,
) -> Iterator[Assignment]:
    """Yield every assignment of the variables of *atoms* satisfied by *instance*.

    ``fixed`` pre-binds some variables (used by tgd-satisfaction checks where
    the premise assignment is extended over the conclusion); ``plan`` lets
    callers that evaluate the same conjunction repeatedly pass its compiled
    :class:`~repro.core.plan.MatchPlan` (it must be compiled from exactly
    *atoms*).
    """
    if index is None:
        index = InstanceIndex(instance)
    if plan is None:
        plan = MatchPlan(atoms)
    base: Assignment = dict(fixed or {})

    plan_atoms = plan.atoms
    atom_codes = plan.codes
    slot_vars = plan.slot_vars
    # Constant positions, precomputed per atom as (position, value) pairs —
    # the codes encode constants as ~uid, but the join compares raw database
    # values, so the values are pulled from the source terms once here.
    const_bound: list[tuple[tuple[int, object], ...]] = [
        tuple(
            (position, atom.terms[position].value)  # type: ignore[union-attr]
            for position, code in enumerate(codes)
            if code < 0
        )
        for atom, codes in zip(plan_atoms, atom_codes)
    ]

    values: list[object] = [_UNBOUND] * len(slot_vars)
    slot_of = plan.slot_of
    for key, value in base.items():
        slot = slot_of.get(key.uid)
        if slot is not None:
            values[slot] = value

    def candidate_rows(source_pos: int) -> list[tuple]:
        atom = plan_atoms[source_pos]
        relation_index = index.for_predicate(atom.predicate)
        if relation_index is None:
            return []
        if relation_index.relation.arity != atom.arity:
            return []
        bound = list(const_bound[source_pos])
        for position, code in enumerate(atom_codes[source_pos]):
            if code >= 0:
                value = values[code]
                if value is not _UNBOUND:
                    bound.append((position, value))
        return relation_index.candidates(bound)

    remaining = list(range(len(plan_atoms)))
    trail: list[int] = []
    scratch = [0] * plan.max_arity

    def search() -> Iterator[Assignment]:
        if not remaining:
            result = dict(base)
            for slot in trail:
                result[slot_vars[slot]] = values[slot]
            yield result
            return
        # Most-constrained-first atom selection.
        best_at = 0
        best_rows: list[tuple] | None = None
        for position, source_pos in enumerate(remaining):
            rows = candidate_rows(source_pos)
            if best_rows is None or len(rows) < len(best_rows):
                best_at, best_rows = position, rows
                if not rows:
                    return
        source_pos = remaining.pop(best_at)
        codes = atom_codes[source_pos]
        consts = const_bound[source_pos]
        assert best_rows is not None
        for row in best_rows:
            # Match the row against the atom's codes, binding free slots.
            ok = True
            for position, value in consts:
                if row[position] != value:
                    ok = False
                    break
            touched = 0
            if ok:
                for position, code in enumerate(codes):
                    if code < 0:
                        continue
                    bound_value = values[code]
                    row_value = row[position]
                    if bound_value is _UNBOUND:
                        values[code] = row_value
                        scratch[touched] = code
                        touched += 1
                    elif bound_value != row_value:
                        ok = False
                        break
            if not ok:
                while touched:
                    touched -= 1
                    values[scratch[touched]] = _UNBOUND
                continue
            trail.extend(scratch[:touched])
            yield from search()
            while touched:
                touched -= 1
                values[trail.pop()] = _UNBOUND
        remaining.insert(best_at, source_pos)

    yield from search()


def instantiate_terms(
    terms: Sequence, assignment: Mapping[Variable, object]
) -> tuple:
    """Apply an assignment to a term vector, producing a tuple of values."""
    values = []
    for term in terms:
        if isinstance(term, Constant):
            values.append(term.value)
        else:
            values.append(assignment[term])
    return tuple(values)
