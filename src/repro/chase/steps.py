"""Individual chase steps with tgds and egds (Section 2.4 of the paper).

* A **tgd chase step** with ``σ : φ → ∃V̄ ψ`` applies to a query Q when there
  is a homomorphism h from φ to Q's body that cannot be extended to a
  homomorphism from φ ∧ ψ; the step adds ψ(h(X̄), V̄') to the body, with V̄'
  fresh variables.
* An **egd chase step** with ``e : φ → U1 = U2`` applies when there is a
  homomorphism h from φ to the body with h(U1) ≠ h(U2) and at least one of
  the two a variable; the step replaces the variable by the other term
  throughout the query.  If both images are distinct constants the chase
  *fails* (the query is unsatisfiable under the dependencies) — reported via
  :class:`ChaseFailedError`.

Each applied step is recorded in a :class:`ChaseStepRecord`, which the
higher-level chase drivers accumulate for provenance / debugging and which
the tests use to assert what the chase actually did.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping

from ..core.atoms import Atom
from ..core.homomorphism import (
    Homomorphism,
    TargetIndex,
    find_match,
    has_match_from_binding,
    iter_binding_matches,
)
from ..core.query import ConjunctiveQuery
from ..core.terms import Constant, FreshVariableFactory, Term, Variable
from ..dependencies.base import EGD, TGD, Dependency
from ..exceptions import ChaseError
from .plans import EGDPlan, TGDPlan


class ChaseFailedError(ChaseError):
    """An egd tried to equate two distinct constants: the chase fails."""


@dataclass
class ChaseStepRecord:
    """Provenance of one applied chase step."""

    dependency: Dependency
    homomorphism: Homomorphism
    kind: str  # "tgd" or "egd"
    added_atoms: tuple[Atom, ...] = ()
    substitution: dict[Term, Term] = field(default_factory=dict)

    def __str__(self) -> str:
        name = self.dependency.name or self.kind
        if self.kind == "tgd":
            added = ", ".join(str(a) for a in self.added_atoms)
            return f"tgd step [{name}]: added {added}"
        pairs = ", ".join(f"{k}→{v}" for k, v in self.substitution.items())
        return f"egd step [{name}]: identified {pairs}"


# ---------------------------------------------------------------------- #
# TGD steps
# ---------------------------------------------------------------------- #

#: One binding-level premise match: the kernel's slot-uid array, the parallel
#: term array, and the trail of slots bound during the search (in binding
#: order).  All three are borrowed from the kernel and reused between yields;
#: :func:`trigger_homomorphism` is the copy-out boundary.
BindingMatch = tuple[list[int], "list[Term | None]", list[int]]


def trigger_homomorphism(plan: TGDPlan | EGDPlan, match: BindingMatch) -> Homomorphism:
    """Materialize one binding-level premise match as a ``{variable: term}`` dict.

    Built in trail (binding) order, exactly the dictionary the kernel's own
    result boundary (:func:`repro.core.homomorphism.iter_matches`) would have
    produced for the same match — chase step records stay byte-identical to
    the frozen reference engines.
    """
    _, bound_terms, trail = match
    slot_vars = plan.premise.slot_vars
    result: Homomorphism = {}
    for slot in trail:
        result[slot_vars[slot]] = bound_terms[slot]  # type: ignore[assignment]
    return result


def iter_applicable_tgd_bindings(
    query: ConjunctiveQuery,
    tgd: TGD,
    *,
    index: TargetIndex | None = None,
    plan: TGDPlan | None = None,
) -> Iterator[BindingMatch]:
    """Binding-level applicable-trigger scan: no dict per premise match.

    Yields one :data:`BindingMatch` per premise homomorphism that cannot be
    extended to cover the conclusion; the extension probe runs directly on
    the premise slot array through the plan's precompiled
    ``conclusion_links`` (:func:`~repro.core.homomorphism.
    has_match_from_binding`), so premise matches that are already satisfied
    are discharged without ever materializing a ``{variable: term}``
    dictionary.  The yielded arrays are borrowed — callers that keep a
    trigger must copy it out (:func:`trigger_homomorphism`).  ``index`` /
    ``plan`` play the same sharing roles as in
    :func:`iter_applicable_tgd_homomorphisms`.
    """
    if index is None:
        index = TargetIndex(query.body)
    if plan is None:
        plan = TGDPlan(tgd)
    conclusion = plan.conclusion
    links = plan.conclusion_links
    for match in iter_binding_matches(plan.premise, index):
        index.extension_probes += 1
        if has_match_from_binding(conclusion, index, links, match[0]):
            index.dicts_avoided += 1
            continue
        yield match


def iter_applicable_tgd_homomorphisms(
    query: ConjunctiveQuery,
    tgd: TGD,
    *,
    index: TargetIndex | None = None,
    plan: TGDPlan | None = None,
) -> Iterator[Homomorphism]:
    """Yield the homomorphisms from the tgd's premise that make a step applicable.

    A homomorphism h from the premise to the query body triggers a step only
    when it cannot be extended to also cover the conclusion (otherwise the
    dependency is already satisfied for this match).  This is the dict-yielding
    API boundary over :func:`iter_applicable_tgd_bindings` — the scan itself
    runs at the binding level and only applicable triggers are materialized.
    ``index`` lets a chase driver share one :class:`TargetIndex` over the
    query body across every dependency probe of a round; ``plan`` lets it
    reuse the tgd's compiled premise/conclusion
    :class:`~repro.chase.plans.TGDPlan` across rounds (when given it must be
    compiled from exactly *tgd*).
    """
    if plan is None:
        plan = TGDPlan(tgd)
    for match in iter_applicable_tgd_bindings(query, tgd, index=index, plan=plan):
        yield trigger_homomorphism(plan, match)


def is_tgd_applicable(query: ConjunctiveQuery, tgd: TGD) -> bool:
    """Is a chase step with *tgd* applicable to *query*?"""
    for _ in iter_applicable_tgd_bindings(query, tgd):
        return True
    return False


def is_recorded_trigger_applicable(
    query: ConjunctiveQuery,
    tgd: TGD,
    homomorphism: Mapping[Term, Term],
    *,
    index: TargetIndex | None = None,
    plan: TGDPlan | None = None,
) -> bool:
    """Is the *recorded* premise homomorphism still an applicable trigger?

    The incremental chase replays checkpointed step provenance against a
    state that has grown since the step originally fired.  A recorded
    trigger is still applicable exactly when (a) it still maps the premise
    into the current body — atom by atom, no search — and (b) it still
    cannot be extended to cover the conclusion.  Unlike premise validity,
    (b) is *not* monotone in the body: atoms added by a delta can satisfy
    the conclusion, in which case re-adding the recorded atoms would no
    longer be a chase step at all and the caller must fall back to a cold
    run.
    """
    if index is None:
        index = TargetIndex(query.body)
    if plan is None:
        plan = TGDPlan(tgd)
    body = set(query.body)
    if any(atom.substitute(homomorphism) not in body for atom in tgd.premise):
        return False
    return find_match(plan.conclusion, index, fixed=homomorphism) is None


def conclusion_instantiation(
    query: ConjunctiveQuery,
    tgd: TGD,
    homomorphism: Mapping[Term, Term],
    used_names: set[str] | None = None,
) -> tuple[tuple[Atom, ...], dict[Variable, Variable]]:
    """Instantiate the tgd's conclusion for one chase step.

    Universal variables are replaced by their image under *homomorphism*;
    existential variables are replaced by fresh variables that collide
    neither with the query nor with the dependency.  Returns the new atoms
    and the existential-variable renaming used.

    ``used_names`` lets a chase driver forbid *every* variable name it has
    ever produced, not just the names currently occurring in the query:
    without it, a name eliminated by an earlier egd step could be reused for
    an unrelated fresh variable, which would confuse provenance-based checks
    such as the assignment-fixing test (Definition 4.3).  The set is updated
    in place with the names generated here.
    """
    existential = tgd.existential_variables()
    forbidden = set(query.variable_names())
    forbidden |= {v.name for v in tgd.all_variables()}
    if used_names is not None:
        forbidden |= used_names
    factory = FreshVariableFactory(forbidden)
    fresh: dict[Variable, Variable] = {
        var: factory(hint=var.name) for var in existential
    }
    if used_names is not None:
        used_names.update(v.name for v in fresh.values())
    substitution: dict[Term, Term] = dict(homomorphism)
    substitution.update(fresh.items())
    atoms = tuple(atom.substitute(substitution) for atom in tgd.conclusion)
    return atoms, fresh


def _compiled_instantiation(
    plan: TGDPlan, homomorphism: Mapping[Term, Term], used_names: set[str]
) -> tuple[Atom, ...]:
    """:func:`conclusion_instantiation` from a compiled plan.

    Fresh names avoid *used_names* and the plan's variable names only; with
    *used_names* covering every variable of the query, that is the same
    forbidden set, so the names (and the atoms) are the same.
    """
    substitution: dict[Term, Term] = dict(homomorphism)
    own_names = plan.variable_names
    for variable in plan.existential:
        hint = candidate = variable.name
        suffix = 0
        while candidate in used_names or candidate in own_names:
            suffix += 1
            candidate = f"{hint}_{suffix}"
        used_names.add(candidate)
        substitution[variable] = Variable(candidate)
    return tuple(atom.substitute(substitution) for atom in plan.tgd.conclusion)


def apply_tgd_step(
    query: ConjunctiveQuery,
    tgd: TGD,
    homomorphism: Mapping[Term, Term],
    used_names: set[str] | None = None,
    *,
    plan: TGDPlan | None = None,
) -> tuple[ConjunctiveQuery, ChaseStepRecord]:
    """Apply one tgd chase step and return the rewritten query plus its record.

    ``plan`` (compiled from exactly *tgd*) makes the step's cost follow what
    it adds: fresh names are checked against *used_names* and the plan's
    variable names only, which requires *used_names* to hold every variable
    name of *query* — the chase loop's run-wide set does — and the grown
    query skips the safety check, which appending atoms cannot fail.
    """
    if plan is None:
        atoms, _ = conclusion_instantiation(query, tgd, homomorphism, used_names)
        new_query = query.add_atoms(atoms)
    else:
        if used_names is None:
            used_names = set(query.variable_names())
        atoms = _compiled_instantiation(plan, homomorphism, used_names)
        new_query = ConjunctiveQuery(
            query.head_predicate, query.head_terms, query.body + atoms, validate=False
        )
    record = ChaseStepRecord(
        dependency=tgd,
        homomorphism=dict(homomorphism),
        kind="tgd",
        added_atoms=atoms,
    )
    return new_query, record


# ---------------------------------------------------------------------- #
# EGD steps
# ---------------------------------------------------------------------- #
def iter_applicable_egd_bindings(
    query: ConjunctiveQuery,
    egd: EGD,
    *,
    index: TargetIndex | None = None,
    plan: EGDPlan | None = None,
) -> Iterator[tuple[BindingMatch, Term, Term]]:
    """Binding-level egd trigger scan: ``(match, image_left, image_right)``.

    The equality images are read straight off the premise match's term array
    through the plan's precompiled ``equality_codes`` — a premise match none
    of whose equalities fire is discharged without materializing a dict.
    Applicable means the two images differ; the yielded match is borrowed
    (copy out via :func:`trigger_homomorphism`).
    """
    if index is None:
        index = TargetIndex(query.body)
    if plan is None:
        plan = EGDPlan(egd)
    equality_codes = plan.equality_codes
    for match in iter_binding_matches(plan.premise, index):
        bound_terms = match[1]
        for left_slot, left_term, right_slot, right_term in equality_codes:
            left = bound_terms[left_slot] if left_slot >= 0 else left_term
            right = bound_terms[right_slot] if right_slot >= 0 else right_term
            if left != right:
                yield match, left, right  # type: ignore[misc]


def iter_applicable_egd_homomorphisms(
    query: ConjunctiveQuery,
    egd: EGD,
    *,
    index: TargetIndex | None = None,
    plan: EGDPlan | None = None,
) -> Iterator[tuple[Homomorphism, Term, Term]]:
    """Yield ``(h, image_left, image_right)`` for applicable egd steps.

    Applicable means the two images differ; the caller decides how to unify
    them (or to fail when both are constants).  This is the dict-yielding API
    boundary over :func:`iter_applicable_egd_bindings`; one dictionary is
    built per premise match with at least one firing equality (shared across
    that match's equalities, as before).  ``index`` and ``plan`` play the
    same sharing roles as in :func:`iter_applicable_tgd_homomorphisms`.
    """
    if plan is None:
        plan = EGDPlan(egd)
    hom: Homomorphism | None = None
    last_match: BindingMatch | None = None
    for match, left, right in iter_applicable_egd_bindings(
        query, egd, index=index, plan=plan
    ):
        if match is not last_match:
            hom = trigger_homomorphism(plan, match)
            last_match = match
        assert hom is not None
        yield hom, left, right


def is_egd_applicable(query: ConjunctiveQuery, egd: EGD) -> bool:
    """Is a chase step with *egd* applicable (or failing) on *query*?"""
    for _ in iter_applicable_egd_bindings(query, egd):
        return True
    return False


def apply_egd_step(
    query: ConjunctiveQuery,
    egd: EGD,
    homomorphism: Mapping[Term, Term],
    left: Term,
    right: Term,
) -> tuple[ConjunctiveQuery, ChaseStepRecord]:
    """Apply one egd chase step, identifying *left* and *right* in the query.

    A variable is replaced by the other term (preferring to keep constants);
    two distinct constants raise :class:`ChaseFailedError`.
    """
    if isinstance(left, Constant) and isinstance(right, Constant):
        raise ChaseFailedError(
            f"egd {egd} forces distinct constants {left} = {right}; "
            "the query is unsatisfiable under the dependencies"
        )
    if isinstance(left, Variable):
        substitution: dict[Term, Term] = {left: right}
    else:
        substitution = {right: left}
    new_query = query.substitute(substitution)
    record = ChaseStepRecord(
        dependency=egd,
        homomorphism=dict(homomorphism),
        kind="egd",
        substitution=substitution,
    )
    return new_query, record


def deduplicate_body(
    query: ConjunctiveQuery, predicates: set[str] | None = None
) -> ConjunctiveQuery:
    """Drop duplicate subgoals, optionally only for the given predicates.

    After an egd step identifies variables, duplicate subgoals can appear.
    Under set and bag-set semantics they may always be dropped; under bag
    semantics only subgoals over set-valued relations may be dropped
    (Theorem 4.1, item 2, justified by Theorem 4.2).
    """
    if predicates is None:
        return query.canonical_representation()
    return query.drop_duplicates_for(predicates)
