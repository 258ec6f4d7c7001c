"""Conjunctive queries (CQ queries), with memoized canonical forms.

A conjunctive query ``Q(X̄) :- p1(...), ..., pn(...)`` (Section 2.1 of the
paper) is represented by :class:`ConjunctiveQuery`: a head predicate name, a
tuple of head terms, and a tuple of body atoms.  The body is an *ordered
sequence* rather than a set because bag semantics distinguishes duplicate
subgoals (Theorem 2.1 and Theorem 4.2 hinge on subgoal multiplicities).

Key operations provided here:

* safety validation (every head variable occurs in the body),
* canonical representation (duplicate subgoals dropped — used by the
  Chaudhuri–Vardi bag-set equivalence test),
* variable renaming / freshening (used everywhere by the chase),
* structural equality and a normal form useful for deduplicating
  reformulation outputs.

Queries are immutable, so every derived form that decision procedures ask
for repeatedly — the normal form, the :meth:`structural_key` that cache keys
are built from, the canonical representation, the distinct
variable/constant lists, the set-valued-deduplication results — is computed
at most once per query object and memoized on the instance.  The
:class:`~repro.session.cache.ChaseCache` in particular keys on
``structural_key()``; before memoization every warm lookup re-ran the full
normal-form renaming.  :data:`CANONICALIZATION_STATS` counts memo hits and
misses process-wide; the chase drivers and the Session report the deltas in
their profiles.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Iterable, Mapping, Sequence

from ..exceptions import QueryError
from .atoms import Atom, atoms_constants, atoms_variables, substitute_atoms
from .plan import MatchPlan
from .terms import (
    Constant,
    FreshVariableFactory,
    HitMissStats,
    Term,
    Variable,
    term_from_value,
)


#: Hit/miss counters of the per-query ``structural_key`` memo.
CANONICALIZATION_STATS = HitMissStats()

#: Slot sentinel: distinguishes "not computed yet" from computed values that
#: may legitimately be falsy.
_UNSET = object()

#: Memo sentinel for "the derived form is the query itself".  Storing the
#: query in its own memo would put it in a reference cycle, so it would
#: outlive its last reference until the cyclic collector ran, and with it
#: every weak-keyed memo entry on it; readers resolve the sentinel instead.
_SELF = object()


class ConjunctiveQuery:
    """A safe conjunctive query ``head_predicate(head_terms) :- body``."""

    __slots__ = (
        "head_predicate",
        "head_terms",
        "body",
        "_hash",
        "_structural_key",
        "_normal_form",
        "_canonical",
        "_body_vars",
        "_all_vars",
        "_constants",
        "_variable_names",
        "_dedup",
        "_body_plan",
        "__weakref__",
    )

    head_predicate: str
    head_terms: tuple[Term, ...]
    body: tuple[Atom, ...]
    # Memo slots: hold _UNSET until first computed (Any: the sentinel shares
    # the slot with the cached value).
    _hash: Any
    _structural_key: Any
    _normal_form: Any
    _canonical: Any
    _body_vars: Any
    _all_vars: Any
    _constants: Any
    _variable_names: Any
    _dedup: Any
    _body_plan: Any

    def __init__(
        self,
        head_predicate: str,
        head_terms: Sequence[object],
        body: Sequence[Atom],
        validate: bool = True,
    ):
        self._fill(head_predicate, tuple(term_from_value(t) for t in head_terms), tuple(body))
        if validate:
            self._validate()

    def _fill(
        self, head_predicate: str, head_terms: tuple[Term, ...], body: tuple[Atom, ...]
    ) -> None:
        set_slot = object.__setattr__
        set_slot(self, "head_predicate", head_predicate)
        set_slot(self, "head_terms", head_terms)
        set_slot(self, "body", body)
        set_slot(self, "_hash", _UNSET)
        set_slot(self, "_structural_key", _UNSET)
        set_slot(self, "_normal_form", _UNSET)
        set_slot(self, "_canonical", _UNSET)
        set_slot(self, "_body_vars", _UNSET)
        set_slot(self, "_all_vars", _UNSET)
        set_slot(self, "_constants", _UNSET)
        set_slot(self, "_variable_names", _UNSET)
        set_slot(self, "_dedup", _UNSET)
        set_slot(self, "_body_plan", _UNSET)

    # ------------------------------------------------------------------ #
    # Immutability, equality, pickling
    # ------------------------------------------------------------------ #
    def __setattr__(self, attr: str, value: object) -> None:
        raise AttributeError(f"ConjunctiveQuery is immutable; cannot set {attr!r}")

    def __delattr__(self, attr: str) -> None:
        raise AttributeError(f"ConjunctiveQuery is immutable; cannot delete {attr!r}")

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if isinstance(other, ConjunctiveQuery):
            return (
                self.head_predicate == other.head_predicate
                and self.head_terms == other.head_terms
                and self.body == other.body
            )
        return NotImplemented

    def __hash__(self) -> int:
        cached = self._hash
        if cached is _UNSET:
            cached = hash((self.head_predicate, self.head_terms, self.body))
            object.__setattr__(self, "_hash", cached)
        return cached  # type: ignore[return-value]

    def __reduce__(
        self,
    ) -> tuple[type["ConjunctiveQuery"], tuple[str, tuple[Term, ...], tuple[Atom, ...], bool]]:
        # Rebuild through the constructor (skipping re-validation: the query
        # was validated when first built) so terms and atoms re-intern and
        # the memo slots start fresh in the receiving process.
        return (ConjunctiveQuery, (self.head_predicate, self.head_terms, self.body, False))

    # ------------------------------------------------------------------ #
    # Validation and basic accessors
    # ------------------------------------------------------------------ #
    def _validate(self) -> None:
        if not self.body:
            raise QueryError(
                f"query {self.head_predicate} has an empty body; CQ queries "
                "must have a nonempty conjunction of atoms"
            )
        body_vars = set(self.body_variables())
        for term in self.head_terms:
            if isinstance(term, Variable) and term not in body_vars:
                raise QueryError(
                    f"query {self.head_predicate} is unsafe: head variable "
                    f"{term} does not occur in the body"
                )

    def head_variables(self) -> list[Variable]:
        """Distinct head variables in first-occurrence order."""
        seen: dict[Variable, None] = {}
        for term in self.head_terms:
            if isinstance(term, Variable):
                seen.setdefault(term, None)
        return list(seen)

    def body_variables(self) -> list[Variable]:
        """Distinct body variables in first-occurrence order."""
        cached = self._body_vars
        if cached is _UNSET:
            cached = tuple(atoms_variables(self.body))
            object.__setattr__(self, "_body_vars", cached)
        return list(cached)  # type: ignore[arg-type]

    def existential_variables(self) -> list[Variable]:
        """Body variables that do not occur in the head."""
        head = set(self.head_variables())
        return [v for v in self.body_variables() if v not in head]

    def all_variables(self) -> list[Variable]:
        """Distinct variables of head and body, body order first."""
        cached = self._all_vars
        if cached is _UNSET:
            seen: dict[Variable, None] = {}
            for var in self.body_variables():
                seen.setdefault(var, None)
            for var in self.head_variables():
                seen.setdefault(var, None)
            cached = tuple(seen)
            object.__setattr__(self, "_all_vars", cached)
        return list(cached)  # type: ignore[arg-type]

    def variable_names(self) -> frozenset[str]:
        """The names of every variable of the query (head or body), memoized.

        The chase consults this set once per applied step (fresh existential
        variables must not collide with any query variable).
        """
        cached = self._variable_names
        if cached is _UNSET:
            cached = frozenset(v.name for v in self.all_variables())
            object.__setattr__(self, "_variable_names", cached)
        return cached  # type: ignore[return-value]

    def constants(self) -> list[Constant]:
        """Distinct constants occurring in head or body."""
        cached = self._constants
        if cached is _UNSET:
            seen: dict[Constant, None] = {}
            for const in atoms_constants(self.body):
                seen.setdefault(const, None)
            for term in self.head_terms:
                if isinstance(term, Constant):
                    seen.setdefault(term, None)
            cached = tuple(seen)
            object.__setattr__(self, "_constants", cached)
        return list(cached)  # type: ignore[arg-type]

    def body_plan(self) -> MatchPlan:
        """The body compiled as a :class:`~repro.core.plan.MatchPlan`, memoized.

        Used when this query's body is the *source* side of a homomorphism
        search — containment mappings, assignment enumeration — so the slot
        assignment is computed once per query object.
        """
        cached = self._body_plan
        if cached is _UNSET:
            cached = MatchPlan(self.body)
            object.__setattr__(self, "_body_plan", cached)
        return cached  # type: ignore[return-value]

    def predicates(self) -> set[str]:
        """The set of predicate names used in the body."""
        return {atom.predicate for atom in self.body}

    def predicate_counts(self) -> Counter[str]:
        """Multiplicity of each predicate among the body subgoals."""
        return Counter(atom.predicate for atom in self.body)

    @property
    def head_atom(self) -> Atom:
        """The head rendered as an atom (useful for printing and hashing)."""
        return Atom(self.head_predicate, self.head_terms)

    # ------------------------------------------------------------------ #
    # Transformations
    # ------------------------------------------------------------------ #
    def canonical_representation(self) -> "ConjunctiveQuery":
        """Drop duplicate body atoms (the paper's canonical representation).

        Used by Theorem 2.1(2): two CQ queries are bag-set equivalent iff
        their canonical representations are bag equivalent (isomorphic).
        Memoized: the bag-set equivalence test canonicalizes both sides on
        every decide, which on a warm session is always the same two query
        objects.
        """
        cached = self._canonical
        if cached is _UNSET:
            seen: dict[Atom, None] = {}
            for atom in self.body:
                seen.setdefault(atom, None)
            if len(seen) == len(self.body):
                cached = _SELF
            else:
                cached = ConjunctiveQuery(
                    self.head_predicate, self.head_terms, tuple(seen)
                )
            object.__setattr__(self, "_canonical", cached)
        return self if cached is _SELF else cached  # type: ignore[return-value]

    def drop_duplicates_for(
        self, set_valued_predicates: Iterable[str]
    ) -> "ConjunctiveQuery":
        """Drop duplicate subgoals only for predicates in *set_valued_predicates*.

        This is the transformation of Theorem 4.2: only subgoals whose
        relations are forced to be set valued may be deduplicated without
        changing the query's bag semantics.  Memoized per distinct predicate
        set (the Theorem 4.2 equivalence test re-applies it to the same
        chased queries on every warm decide).
        """
        allowed = frozenset(set_valued_predicates)
        memo = self._dedup
        if memo is _UNSET:
            memo = {}
            object.__setattr__(self, "_dedup", memo)
        result = memo.get(allowed)  # type: ignore[union-attr]
        if result is None:
            kept: list[Atom] = []
            seen: set[Atom] = set()
            for atom in self.body:
                if atom.predicate in allowed:
                    if atom in seen:
                        continue
                    seen.add(atom)
                kept.append(atom)
            if len(kept) == len(self.body):
                result = _SELF
            else:
                result = ConjunctiveQuery(
                    self.head_predicate, self.head_terms, tuple(kept)
                )
            memo[allowed] = result  # type: ignore[index]
        return self if result is _SELF else result  # type: ignore[return-value]

    def substitute(self, mapping: Mapping[Term, Term]) -> "ConjunctiveQuery":
        """Apply a term substitution to head and body.

        Safety is re-checked because an arbitrary substitution could in
        principle break it; substitutions produced by the chase never do.
        """
        head = tuple(mapping.get(t, t) for t in self.head_terms)
        return ConjunctiveQuery(
            self.head_predicate, head, substitute_atoms(self.body, mapping)
        )

    def rename_variables(
        self, mapping: Mapping[Variable, Variable]
    ) -> "ConjunctiveQuery":
        """Rename variables according to *mapping* (a special-case substitute)."""
        return self.substitute(dict(mapping))

    def freshen(
        self, avoid: Iterable[Variable] = (), prefix: str = "_r"
    ) -> tuple["ConjunctiveQuery", dict[Variable, Variable]]:
        """Return a variable-disjoint copy plus the renaming that produced it.

        Every variable of the query is renamed to a fresh variable whose name
        collides neither with *avoid* nor with the query's own variables.
        """
        avoid_names = {v.name for v in avoid} | self.variable_names()
        factory = FreshVariableFactory(avoid_names, prefix=prefix)
        renaming = {v: factory(hint=f"{prefix}_{v.name}") for v in self.all_variables()}
        return self.rename_variables(renaming), renaming

    def with_body(self, body: Sequence[Atom]) -> "ConjunctiveQuery":
        """Return a copy of the query with *body* as its new body."""
        return ConjunctiveQuery(self.head_predicate, self.head_terms, tuple(body))

    def with_safe_body(self, body: tuple[Atom, ...]) -> "ConjunctiveQuery":
        """:meth:`with_body` for a nonempty, safe *body*: not validated, head not re-coerced."""
        query = object.__new__(ConjunctiveQuery)
        query._fill(self.head_predicate, self.head_terms, body)
        return query

    def add_atoms(self, atoms: Sequence[Atom]) -> "ConjunctiveQuery":
        """Return a copy with *atoms* appended to the body."""
        return self.with_body(self.body + tuple(atoms))

    def drop_atom_at(self, index: int) -> "ConjunctiveQuery":
        """Return a copy with the body atom at *index* removed."""
        if not 0 <= index < len(self.body):
            raise QueryError(f"no body atom at index {index}")
        body = self.body[:index] + self.body[index + 1 :]
        return ConjunctiveQuery(self.head_predicate, self.head_terms, body)

    # ------------------------------------------------------------------ #
    # Normal form, equality, display
    # ------------------------------------------------------------------ #
    def normal_form(self) -> "ConjunctiveQuery":
        """A deterministic renaming of variables used for deduplication.

        Variables are renamed to ``V0, V1, ...`` in order of first occurrence
        (head first, then body, in body order).  Two queries that are
        identical up to variable renaming have equal normal forms; the
        operation is idempotent.  It deliberately does **not** canonicalise
        body order or detect general isomorphism — use
        :func:`repro.core.homomorphism.are_isomorphic` for the real test.
        """
        cached = self._normal_form
        if cached is _UNSET:
            order: dict[Variable, Variable] = {}

            def canon(term: Term) -> Term:
                if isinstance(term, Variable):
                    renamed = order.get(term)
                    if renamed is None:
                        renamed = Variable(f"V{len(order)}")
                        order[term] = renamed
                    return renamed
                return term

            head = tuple(canon(t) for t in self.head_terms)
            body = tuple(
                Atom(a.predicate, [canon(t) for t in a.terms]) for a in self.body
            )
            cached = ConjunctiveQuery(self.head_predicate, head, body)
            # The normal form is idempotent; short-circuit repeat calls on it.
            object.__setattr__(cached, "_normal_form", _SELF)
            object.__setattr__(self, "_normal_form", cached)
        return self if cached is _SELF else cached  # type: ignore[return-value]

    def structural_key(self) -> tuple:
        """Hashable key of the normal form, for dictionaries and set lookups.

        Memoized: the same tuple object is returned on every call, so
        containers holding it (the chase cache, the assignment-fixing memo)
        compare mostly by element identity.
        """
        cached = self._structural_key
        if cached is _UNSET:
            CANONICALIZATION_STATS.misses += 1
            nf = self.normal_form()
            cached = (nf.head_predicate, nf.head_terms, nf.body)
            object.__setattr__(self, "_structural_key", cached)
        else:
            CANONICALIZATION_STATS.hits += 1
        return cached  # type: ignore[return-value]

    def __str__(self) -> str:
        body = ", ".join(str(atom) for atom in self.body)
        return f"{self.head_atom} :- {body}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ConjunctiveQuery({self!s})"


def cq(head: str, head_terms: Sequence[object], *body: Atom) -> ConjunctiveQuery:
    """Small convenience constructor: ``cq("Q", ["X"], Atom("p", ["X", "Y"]))``."""
    return ConjunctiveQuery(head, head_terms, list(body))
