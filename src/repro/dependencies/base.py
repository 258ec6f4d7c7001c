"""Embedded dependencies: tuple-generating and equality-generating dependencies.

Section 2.4 of the paper: an embedded dependency has the form

    σ : φ(Ū, W̄) → ∃V̄ ψ(Ū, V̄)

where φ and ψ are conjunctions of atoms possibly including equations.  Every
set of embedded dependencies is equivalent to a set of *tgds* (conclusion is
relational atoms only) and *egds* (conclusion is equations only); this module
provides the three classes plus the normalisation, and a
:class:`DependencySet` container that also records which relations are
required to be set valued (the constraint the paper encodes via tuple-ID
egds, Appendix C, and which drives Theorem 4.1's soundness conditions).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable, Iterator, Mapping, Sequence, Union

from ..core.atoms import Atom, EqualityAtom, atoms_variables
from ..core.terms import FreshVariableFactory, Term, Variable
from ..exceptions import DependencyError


@dataclass(frozen=True)
class TGD:
    """A tuple-generating dependency ``premise → ∃Z̄ conclusion``.

    The existential variables are implicit: every conclusion variable that
    does not occur in the premise is existentially quantified.
    """

    premise: tuple[Atom, ...]
    conclusion: tuple[Atom, ...]
    name: str = ""

    def __init__(
        self,
        premise: Sequence[Atom],
        conclusion: Sequence[Atom],
        name: str = "",
    ):
        object.__setattr__(self, "premise", tuple(premise))
        object.__setattr__(self, "conclusion", tuple(conclusion))
        object.__setattr__(self, "name", name)
        if not self.premise:
            raise DependencyError("tgd needs a nonempty premise")
        if not self.conclusion:
            raise DependencyError("tgd needs a nonempty conclusion")

    # ------------------------------------------------------------------ #
    def universal_variables(self) -> list[Variable]:
        """Variables of the premise (all universally quantified)."""
        return atoms_variables(self.premise)

    def existential_variables(self) -> list[Variable]:
        """Conclusion variables that do not occur in the premise."""
        universal = set(self.universal_variables())
        return [v for v in atoms_variables(self.conclusion) if v not in universal]

    def frontier_variables(self) -> list[Variable]:
        """Premise variables that also occur in the conclusion."""
        conclusion_vars = set(atoms_variables(self.conclusion))
        return [v for v in self.universal_variables() if v in conclusion_vars]

    def is_full(self) -> bool:
        """True when the tgd has no existential variables."""
        return not self.existential_variables()

    def is_inclusion_dependency(self) -> bool:
        """A tgd with a single relational atom on each side (footnote 9)."""
        return len(self.premise) == 1 and len(self.conclusion) == 1

    def predicates(self) -> set[str]:
        """All predicate names mentioned by the dependency."""
        return {a.predicate for a in self.premise} | {
            a.predicate for a in self.conclusion
        }

    def all_variables(self) -> list[Variable]:
        """Distinct variables of premise and conclusion."""
        seen: dict[Variable, None] = {}
        for var in atoms_variables(self.premise):
            seen.setdefault(var, None)
        for var in atoms_variables(self.conclusion):
            seen.setdefault(var, None)
        return list(seen)

    def rename_variables(self, mapping: Mapping[Variable, Variable]) -> "TGD":
        """Apply a variable renaming to both sides."""
        substitution: dict[Term, Term] = dict(mapping)
        return TGD(
            [a.substitute(substitution) for a in self.premise],
            [a.substitute(substitution) for a in self.conclusion],
            name=self.name,
        )

    def freshen(self, avoid: Iterable[Variable]) -> "TGD":
        """Rename every variable so none collides with *avoid*.

        The chase assumes w.l.o.g. that the query being chased shares no
        variables with the dependency; this produces such a copy.
        """
        avoid_names = {v.name for v in avoid}
        own = self.all_variables()
        if not any(v.name in avoid_names for v in own):
            return self
        factory = FreshVariableFactory(avoid_names | {v.name for v in own})
        renaming = {v: factory(hint=v.name) for v in own}
        return self.rename_variables(renaming)

    def __str__(self) -> str:
        premise = " ∧ ".join(str(a) for a in self.premise)
        conclusion = " ∧ ".join(str(a) for a in self.conclusion)
        existentials = self.existential_variables()
        prefix = ""
        if existentials:
            prefix = "∃" + ",".join(v.name for v in existentials) + " "
        label = f"{self.name}: " if self.name else ""
        return f"{label}{premise} → {prefix}{conclusion}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TGD({self!s})"


@dataclass(frozen=True)
class EGD:
    """An equality-generating dependency ``premise → U1 = U2 ∧ ...``."""

    premise: tuple[Atom, ...]
    equalities: tuple[EqualityAtom, ...]
    name: str = ""

    def __init__(
        self,
        premise: Sequence[Atom],
        equalities: Sequence[EqualityAtom] | EqualityAtom,
        name: str = "",
    ):
        if isinstance(equalities, EqualityAtom):
            equalities = [equalities]
        object.__setattr__(self, "premise", tuple(premise))
        object.__setattr__(self, "equalities", tuple(equalities))
        object.__setattr__(self, "name", name)
        if not self.premise:
            raise DependencyError("egd needs a nonempty premise")
        if not self.equalities:
            raise DependencyError("egd needs at least one equality")
        premise_vars = set(atoms_variables(self.premise))
        for eq in self.equalities:
            for var in eq.variables():
                if var not in premise_vars:
                    raise DependencyError(
                        f"egd equality variable {var} does not occur in the premise"
                    )

    def universal_variables(self) -> list[Variable]:
        """Variables of the premise."""
        return atoms_variables(self.premise)

    def predicates(self) -> set[str]:
        """Predicate names used by the premise."""
        return {a.predicate for a in self.premise}

    def all_variables(self) -> list[Variable]:
        """Distinct variables of the dependency."""
        return self.universal_variables()

    def rename_variables(self, mapping: Mapping[Variable, Variable]) -> "EGD":
        """Apply a variable renaming."""
        substitution: dict[Term, Term] = dict(mapping)
        return EGD(
            [a.substitute(substitution) for a in self.premise],
            [eq.substitute(substitution) for eq in self.equalities],
            name=self.name,
        )

    def freshen(self, avoid: Iterable[Variable]) -> "EGD":
        """Rename variables away from *avoid* (see :meth:`TGD.freshen`)."""
        avoid_names = {v.name for v in avoid}
        own = self.all_variables()
        if not any(v.name in avoid_names for v in own):
            return self
        factory = FreshVariableFactory(avoid_names | {v.name for v in own})
        renaming = {v: factory(hint=v.name) for v in own}
        return self.rename_variables(renaming)

    def __str__(self) -> str:
        premise = " ∧ ".join(str(a) for a in self.premise)
        conclusion = " ∧ ".join(str(eq) for eq in self.equalities)
        label = f"{self.name}: " if self.name else ""
        return f"{label}{premise} → {conclusion}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EGD({self!s})"


Dependency = Union[TGD, EGD]


def normalise_embedded_dependency(
    premise: Sequence[Atom],
    conclusion: Sequence[Atom | EqualityAtom],
    name: str = "",
) -> list[Dependency]:
    """Split a general embedded dependency into tgds and egds.

    A conclusion mixing relational atoms and equations is split into (at
    most) one tgd carrying the relational atoms and one egd carrying the
    equations — the standard equivalence cited in Section 2.4.
    """
    relational = [a for a in conclusion if isinstance(a, Atom)]
    equalities = [a for a in conclusion if isinstance(a, EqualityAtom)]
    result: list[Dependency] = []
    if relational:
        result.append(TGD(premise, relational, name=name or ""))
    if equalities:
        egd_name = name if not relational else (f"{name}_eq" if name else "")
        result.append(EGD(premise, equalities, name=egd_name))
    if not result:
        raise DependencyError("embedded dependency has an empty conclusion")
    return result


class HashedKey:
    """A hashable value that computes its hash once.

    Pickling recomputes the hash: string hashes differ between processes.
    """

    __slots__ = ("value", "_hash")

    def __init__(self, value: Hashable):
        self.value = value
        self._hash = hash(value)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, HashedKey):
            return NotImplemented
        return self._hash == other._hash and self.value == other.value

    def __reduce__(self) -> tuple[type["HashedKey"], tuple[Hashable]]:
        return (HashedKey, (self.value,))


@dataclass(frozen=True)
class DependencySet:
    """A finite set Σ of embedded dependencies plus set-valuedness information.

    ``set_valued_predicates`` lists the relation names required to be set
    valued in every instance of the schema.  Under bag semantics those
    constraints behave like the tuple-ID egds of Appendix C; recording them
    as names keeps the queries over the original (un-augmented) schema while
    the full tuple-ID encoding is available from
    :mod:`repro.dependencies.tuple_ids`.

    A set is an immutable value, like the dependencies it holds:
    ``dependencies`` is a tuple and ``set_valued_predicates`` a frozenset,
    and neither can be reassigned.  A different Σ is a new set, built with
    the constructor, :meth:`with_set_valued`, :meth:`restricted_to` or
    :meth:`without`.  So :attr:`fingerprint` and :attr:`plan_key` are
    computed at most once per set, and whatever holds a set (a Session, a
    chase checkpoint) holds the caller's object, not a copy.
    """

    dependencies: tuple[Dependency, ...]
    set_valued_predicates: frozenset[str]

    def __init__(
        self,
        dependencies: Iterable[Dependency] = (),
        set_valued_predicates: Iterable[str] = (),
    ):
        object.__setattr__(self, "dependencies", tuple(dependencies))
        object.__setattr__(
            self, "set_valued_predicates", frozenset(set_valued_predicates)
        )

    @classmethod
    def coerce(
        cls, dependencies: "DependencySet | Iterable[Dependency]"
    ) -> "DependencySet":
        """*dependencies* as a :class:`DependencySet` (pass-through when it is one).

        The single coercion point for every module that accepts either a
        dependency set or a plain sequence of dependencies.
        """
        if isinstance(dependencies, DependencySet):
            return dependencies
        return cls(dependencies)

    @cached_property
    def fingerprint(self) -> HashedKey:
        """A hashable, name-insensitive fingerprint of the set, computed once.

        Dependency order is preserved (the deterministic chase strategy tries
        dependencies in order, so reordering Σ may legitimately produce a
        different — equivalent — terminal result); display names are dropped
        (they never influence chasing).  The key carries its hash, so a
        chase key built over it never re-walks Σ; its ``value`` is what the
        chase store encodes.
        """
        parts: list[Hashable] = []
        for dependency in self.dependencies:
            if isinstance(dependency, TGD):
                parts.append(("tgd", dependency.premise, dependency.conclusion))
            elif isinstance(dependency, EGD):
                parts.append(("egd", dependency.premise, dependency.equalities))
            else:  # pragma: no cover - future dependency kinds
                parts.append(("dep", repr(dependency)))
        return HashedKey((tuple(parts), self.set_valued_predicates))

    @cached_property
    def plan_key(self) -> HashedKey:
        """The fingerprint plus the display names, as one key hashed once.

        :class:`~repro.chase.plans.PlanCache` keys its compiled plans on
        this (names split entries because step records print them).
        """
        return HashedKey((self.fingerprint, tuple(d.name for d in self.dependencies)))

    def __iter__(self) -> Iterator[Dependency]:
        return iter(self.dependencies)

    def __len__(self) -> int:
        return len(self.dependencies)

    def __contains__(self, dependency: Dependency) -> bool:
        return dependency in self.dependencies

    def tgds(self) -> list[TGD]:
        """The tuple-generating dependencies of the set."""
        return [d for d in self.dependencies if isinstance(d, TGD)]

    def egds(self) -> list[EGD]:
        """The equality-generating dependencies of the set."""
        return [d for d in self.dependencies if isinstance(d, EGD)]

    def predicates(self) -> set[str]:
        """Every predicate mentioned by some dependency."""
        result: set[str] = set()
        for dependency in self.dependencies:
            result |= dependency.predicates()
        return result

    def is_set_valued(self, predicate: str) -> bool:
        """Is *predicate* required to be set valued in every instance?"""
        return predicate in self.set_valued_predicates

    def without(self, dependency: Dependency) -> "DependencySet":
        """A copy of the set with one dependency removed."""
        remaining = [d for d in self.dependencies if d is not dependency and d != dependency]
        return DependencySet(remaining, self.set_valued_predicates)

    def with_set_valued(self, predicates: Iterable[str]) -> "DependencySet":
        """A copy with additional set-valued predicates recorded."""
        return DependencySet(
            self.dependencies,
            self.set_valued_predicates | frozenset(predicates),
        )

    def restricted_to(self, dependencies: Iterable[Dependency]) -> "DependencySet":
        """A copy containing only *dependencies* (set-valuedness preserved)."""
        return DependencySet(dependencies, self.set_valued_predicates)

    def __str__(self) -> str:
        lines = [str(d) for d in self.dependencies]
        if self.set_valued_predicates:
            lines.append(
                "set-valued: {" + ", ".join(sorted(self.set_valued_predicates)) + "}"
            )
        return "\n".join(lines)
