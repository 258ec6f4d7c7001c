"""Per-Σ compiled match plans, cached across chase runs.

A chase run probes the same dependency premises and conclusions against the
evolving query body every round, and the same Σ is typically chased many
times — every equivalence decision chases both inputs, a C&B run chases
dozens of candidates, and every assignment-fixing verdict (Definition 4.3)
runs a nested set chase under the same regularized Σ.  This module compiles
each dependency's atoms into :class:`~repro.core.plan.MatchPlan` int plans
**once per Σ** and caches the result:

* :class:`TGDPlan` / :class:`EGDPlan` — one dependency's compiled premise
  (and, for tgds, conclusion) plus its premise predicate set (consumed by
  the :class:`~repro.chase.delta.TriggerIndex`), the premise's delta
  sub-plans, and for an egd its two-atom gate;
* :class:`SigmaPlans` — one regularized dependency list's plans, split by
  kind exactly the way the chase loop splits dependencies, plus the
  premise-predicate trigger maps shared by every run's ``TriggerIndex`` and
  a bounded memo of the Definition 4.3 verdicts its test chases gave;
* :class:`AssignmentFixingRule` — Σ's chase-free Definition 4.3 verdicts
  for key-determined tgds, built lazily once per :class:`SigmaPlans`;
* :class:`BackchaseSigma` — what C&B's verdict table needs of Σ alone, built
  lazily once per :class:`SigmaPlans`, semantics and set-valued markers;
* :class:`PlanCache` — a bounded LRU keyed by the
  :attr:`~repro.dependencies.base.DependencySet.plan_key` of Σ (its
  fingerprint plus the dependency display names, which the fingerprint
  deliberately drops but which appear verbatim in step records).

The cache also amortizes regularization itself: a hit returns the already
regularized dependency list, so the nested Definition 4.3 test chases stop
re-regularizing Σ on every verdict.  Regularization is deterministic, so a
cached entry is interchangeable with a fresh one — the applied step
sequences stay byte-identical to the frozen reference drivers.

A process-wide default cache (:func:`default_plan_cache`) serves module
level chase calls; a :class:`~repro.session.Session` owns a reference to it
(or to an injected instance) and surfaces its hit/miss statistics.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Iterable, Sequence

from ..core.atoms import Atom, atoms_constants
from ..core.plan import MatchPlan, shared_slot_links
from ..core.query import ConjunctiveQuery
from ..core.terms import Constant, Term, Variable
from ..dependencies.base import EGD, TGD, Dependency, DependencySet
from ..dependencies.classify import (
    PositionalFD,
    egd_as_positional_fd,
    extract_positional_fds,
    is_keyed_by_universal_positions,
)
from ..dependencies.regularize import regularize_dependencies
from ..semantics import Semantics


class TGDPlan:
    """Compiled premise and conclusion plans of one tgd.

    ``conclusion_links`` are the ``(conclusion_slot, premise_slot)`` pairs of
    the tgd's shared (universal, conclusion-occurring) variables: a completed
    premise match seeds the conclusion plan's slot array through them, so the
    applicability probe (can this match be extended to the conclusion?) runs
    entirely at the binding level — see
    :func:`repro.core.homomorphism.has_match_from_binding`.

    ``existential`` and ``variable_names`` compile the step itself: the
    variables a step instantiates fresh (none for a full tgd, Proposition
    4.3), and the names a fresh variable must avoid besides the run's used
    names (see :func:`repro.chase.steps.apply_tgd_step`).

    ``premise_rests`` are the premise's delta sub-plans (see
    :func:`premise_rests`).
    """

    __slots__ = (
        "tgd",
        "premise",
        "conclusion",
        "conclusion_links",
        "premise_predicates",
        "premise_rests",
        "existential",
        "variable_names",
    )

    def __init__(self, tgd: TGD):
        self.tgd = tgd
        self.premise = MatchPlan(tgd.premise)
        self.conclusion = MatchPlan(tgd.conclusion)
        self.conclusion_links = shared_slot_links(self.premise, self.conclusion)
        self.premise_predicates = frozenset(a.predicate for a in tgd.premise)
        self.premise_rests = premise_rests(self.premise)
        self.existential: tuple[Variable, ...] = tuple(tgd.existential_variables())
        self.variable_names = frozenset(v.name for v in tgd.all_variables())


class EGDPlan:
    """Compiled premise plan of one egd.

    ``equality_codes`` compile the egd's equalities for the binding-level
    trigger scan: one ``(left_slot, left_term, right_slot, right_term)``
    tuple per equality, where a slot ``>= 0`` reads the term's image from
    the premise match's slot arrays and ``-1`` means the term maps to
    itself (a constant, or a variable not occurring in the premise).

    ``gate`` is the egd's two-atom gate (see :func:`self_join_gate`): the
    signatures whose body atom counts can prove the egd trigger free
    without a scan, or ``None``.  ``premise_rests`` are the premise's delta
    sub-plans (see :func:`premise_rests`).
    """

    __slots__ = (
        "egd",
        "premise",
        "equality_codes",
        "premise_predicates",
        "gate",
        "premise_rests",
    )

    def __init__(self, egd: EGD):
        self.egd = egd
        self.premise = MatchPlan(egd.premise)
        slot_of = self.premise.slot_of
        self.equality_codes: tuple[tuple[int, Term, int, Term], ...] = tuple(
            (
                slot_of.get(equality.left.uid, -1),
                equality.left,
                slot_of.get(equality.right.uid, -1),
                equality.right,
            )
            for equality in egd.equalities
        )
        self.premise_predicates = frozenset(a.predicate for a in egd.premise)
        self.gate = self_join_gate(egd)
        self.premise_rests = premise_rests(self.premise)


def premise_rests(premise: MatchPlan) -> tuple[MatchPlan, ...]:
    """Per premise atom, the rest of the premise over the same slots.

    The sub-plans a delta probe pins one atom and searches the others with
    (:func:`repro.core.homomorphism.iter_binding_matches` with ``since``),
    compiled once per Σ with the plan that owns them; empty for a one-atom
    premise, whose delta is a suffix of its candidate list.
    """
    if len(premise) < 2:
        return ()
    return tuple(premise.without(position) for position in range(len(premise)))


def self_join_gate(egd: EGD) -> tuple[int, ...] | None:
    """The signatures whose body counts can prove *egd* trigger free, or ``None``.

    Unify, position by position, the premise atoms that share a signature
    (a key egd's or an fd's two copies of its relation).  When that
    unification identifies both sides of every equality, the result is the
    premise's repeated signatures: while each has fewer than two atoms in
    the body, every premise match sends all atoms of a signature onto the
    same body atom, so it unifies them and factors through the unifier,
    and no equality can fire.  ``None`` when the unification fails on two
    constants or leaves some equality's sides apart: a cross-predicate egd,
    or one that equates a term to a constant the premise does not force.
    """
    by_signature: dict[int, list[Atom]] = {}
    for atom in egd.premise:
        by_signature.setdefault(atom.sig_id, []).append(atom)
    parent: dict[Term, Term] = {}

    def find(term: Term) -> Term:
        while term in parent:
            term = parent[term]
        return term

    repeated = tuple(sig for sig, atoms in by_signature.items() if len(atoms) > 1)
    for sig in repeated:
        first, *others = by_signature[sig]
        for other in others:
            for left, right in zip(first.terms, other.terms):
                left, right = find(left), find(right)
                if left == right:
                    continue
                if isinstance(left, Constant):
                    if isinstance(right, Constant):
                        return None
                    left, right = right, left
                parent[left] = right
    for equality in egd.equalities:
        if find(equality.left) != find(equality.right):
            return None
    return repeated


def _trigger_map(
    plans: "list[EGDPlan] | list[TGDPlan]",
) -> dict[str, tuple[int, ...]]:
    """Premise predicate → positions of the dependencies mentioning it.

    The per-run :class:`~repro.chase.delta.TriggerIndex` shares this map
    read-only across every run under the same Σ.
    """
    by_predicate: dict[str, list[int]] = {}
    for position, plan in enumerate(plans):
        for predicate in plan.premise_predicates:
            by_predicate.setdefault(predicate, []).append(position)
    return {predicate: tuple(ids) for predicate, ids in by_predicate.items()}


def _dependency_has_constant(dependency: Dependency) -> bool:
    if isinstance(dependency, TGD):
        return bool(atoms_constants(dependency.premise + dependency.conclusion))
    return bool(atoms_constants(dependency.premise)) or any(
        isinstance(term, Constant)
        for equality in dependency.equalities
        for term in (equality.left, equality.right)
    )


class AssignmentFixingRule:
    """Definition 4.3 decided without a test chase, for key-determined tgds.

    The test chase of Q^{σ,h,θ} starts from Q's body plus two copies of σ's
    conclusion that agree on every universal position.  The rule answers
    "assignment fixing" without chasing when three gates hold:

    1. every conclusion atom of σ is keyed by its universal positions under
       Σ's fd-shaped egds (the superkey clause of Definition 5.1, shared
       with :func:`repro.dependencies.is_key_based_tgd`; its set-valuedness
       clause is not needed, the test chase runs under set semantics);
    2. Σ mentions no constant;
    3. no body atom of Q holding a constant has a predicate that some
       premise of Σ mentions.

    Gates 2 and 3 keep every atom a trigger can match constant free for the
    whole test chase (tgd steps add images of such atoms plus fresh
    variables, egd steps equate two variables), so the chase never fails.
    A terminal state has no applicable egd, so by gate 1 the two conclusion
    copies, which start equal on the universal positions, end equal on the
    whole key closure, i.e. everywhere: each pair (Zᵢ, θ(Zᵢ)) has been
    identified, and at most one member survives.  The verdict is therefore
    True whenever the test chase terminates, and the rule returns it
    without running the chase.  The one observable difference: a chase
    whose nested test would exhaust its step budget goes on instead of
    raising :class:`~repro.exceptions.ChaseNonTerminationError`.

    Built once per :class:`SigmaPlans` (see
    :meth:`SigmaPlans.assignment_fixing_rule`); the per-tgd gate-1 verdicts
    are memoized, so a hot call costs two dict lookups plus, when Q holds
    constants, one pass over its body.  A sound-chase run asks
    :meth:`holds_for` once, on its start state, and then only
    :meth:`is_key_determined` per tgd (see :meth:`holds_for` for why that is
    exact).
    """

    __slots__ = ("constant_free", "premise_predicates", "_fds", "_keyed")

    def __init__(self, dependencies: Sequence[Dependency]):
        self.constant_free = not any(_dependency_has_constant(d) for d in dependencies)
        self.premise_predicates = frozenset(
            atom.predicate for dependency in dependencies for atom in dependency.premise
        )
        self._fds = extract_positional_fds(dependencies)
        self._keyed: dict[TGD, bool] = {}

    def is_key_determined(self, tgd: TGD) -> bool:
        """Gate 1 for *tgd*: is every conclusion atom keyed by its universal positions?

        A tgd from outside Σ must also be constant free, with premise
        predicates among Σ's premise predicates, so that gate 3 covers the
        atoms its trigger maps into; every tgd of a constant-free Σ is.
        """
        keyed = self._keyed.get(tgd)
        if keyed is None:
            keyed = (
                not _dependency_has_constant(tgd)
                and all(atom.predicate in self.premise_predicates for atom in tgd.premise)
                and is_keyed_by_universal_positions(tgd, self._fds)
            )
            self._keyed[tgd] = keyed
        return keyed

    def holds_for(self, query: ConjunctiveQuery) -> bool:
        """Gates 2 and 3 on *query*: the tgd-independent half of the rule.

        A chase under Σ decides them once, on its start state, because
        every state it reaches gives the same answer.  Gate 2 is a property
        of Σ alone.  Suppose gate 3 holds as well: no atom whose predicate a
        premise mentions holds a constant.  A trigger maps a premise into
        such atoms, so its images are variables; a tgd step then adds those
        images plus fresh variables, and an egd step equates two variables.
        So no step puts a constant into such an atom, and gate 3 keeps
        holding.  Conversely, no step removes a constant from the body: tgd
        steps only append, an egd step replaces a variable (never a
        constant), and deduplication keeps one copy of each atom.  So a
        failed gate 3 keeps failing.
        """
        if not self.constant_free:
            return False
        if query.constants():
            premise_predicates = self.premise_predicates
            for atom in query.body:
                if atom.predicate in premise_predicates and atoms_constants((atom,)):
                    return False
        return True

    def decides(self, query: ConjunctiveQuery, tgd: TGD) -> bool:
        """Is *tgd* assignment fixing w.r.t. *query* by this rule alone?

        False means "not decided here" (run the test chase), not "not
        assignment fixing".
        """
        return self.holds_for(query) and self.is_key_determined(tgd)


class BackchaseSigma:
    """The Σ side of C&B's verdict table (see :mod:`repro.reformulation.cb`).

    ``guided`` lists, in Σ's order, each tgd plan whose steps can be sound in
    every state, with whether that needs the universal plan to pass gates 2
    and 3 of the :class:`AssignmentFixingRule`: every tgd under set
    semantics; under bag-set a full one (Proposition 4.3) or, gated, a
    key-determined one; under bag as under bag-set, when every conclusion
    predicate is set valued (Theorem 4.1(1)).  ``regime`` is rule 5's
    conditions (a), without the gates, (b) and (c); ``reach`` rule 1's tgds
    as ``(premise, conclusion)`` bitmasks over ``predicate_bits``.
    """

    __slots__ = ("guided", "needs_gates", "regime", "predicate_bits", "reach")

    def __init__(self, plans: "SigmaPlans", semantics: Semantics, set_valued: frozenset[str]):
        rule = plans.assignment_fixing_rule()
        guided: list[tuple[TGDPlan, bool]] = []
        for plan in plans.tgd_plans:
            tgd = plan.tgd
            gated = semantics is not Semantics.SET and bool(plan.existential)
            if gated and not rule.is_key_determined(tgd):
                continue
            if semantics is Semantics.BAG and not all(
                atom.predicate in set_valued for atom in tgd.conclusion
            ):
                continue
            guided.append((plan, gated))
        self.guided = tuple(guided)
        self.needs_gates = any(gated for _, gated in guided)
        every_state = len(guided) == len(plans.tgd_plans)
        self.regime = semantics is not Semantics.SET and every_state and _fd_regime(plans)
        self.predicate_bits: dict[str, int] = {}
        self.reach = tuple(
            (self._bits(tgd.premise), self._bits(tgd.conclusion)) for tgd in plans.tgds
        )

    def _bits(self, atoms: Sequence[Atom]) -> int:
        """The bits of *atoms*' predicates; a new predicate takes the next bit."""
        bits = self.predicate_bits
        mask = 0
        for atom in atoms:
            mask |= bits.setdefault(atom.predicate, 1 << len(bits))
        return mask


def _fd_regime(plans: "SigmaPlans") -> bool:
    """Rule 5's conditions (b) and (c) on the compiled Σ."""
    fds: dict[tuple[str, int], list[PositionalFD]] = {}
    for egd in plans.egds:
        recognised = egd_as_positional_fd(egd)
        if recognised is None:
            return False  # (c): an egd that is no fd
        fds.setdefault(egd.premise[0].signature, []).append(recognised[1])
    for plan in plans.tgd_plans:
        conclusion = plan.tgd.conclusion
        if len(conclusion) != 1:
            return False  # (b)
        terms = conclusion[0].terms
        if any(not isinstance(term, Variable) for term in terms) or any(
            terms.count(variable) != 1 for variable in plan.existential
        ):
            return False  # (b)
        universal = frozenset(i for i, term in enumerate(terms) if term not in plan.existential)
        if any(
            not universal <= determinant
            for determinant, _ in fds.get(conclusion[0].signature, ())
        ):
            return False  # (c)
    return True


class SigmaPlans:
    """Compiled plans for one dependency list, regularized first."""

    __slots__ = (
        "items",
        "egds",
        "tgds",
        "egd_plans",
        "tgd_plans",
        "egd_trigger_map",
        "tgd_trigger_map",
        "verdicts",
        "_sigma",
        "_af_rule",
        "_backchase",
    )

    def __init__(self, dependencies: Iterable[Dependency]):
        items = regularize_dependencies(list(dependencies))
        self.items: list[Dependency] = items
        self.egds: list[EGD] = [d for d in items if isinstance(d, EGD)]
        self.tgds: list[TGD] = [d for d in items if isinstance(d, TGD)]
        self.egd_plans: list[EGDPlan] = [EGDPlan(egd) for egd in self.egds]
        self.tgd_plans: list[TGDPlan] = [TGDPlan(tgd) for tgd in self.tgds]
        self.egd_trigger_map = _trigger_map(self.egd_plans)
        self.tgd_trigger_map = _trigger_map(self.tgd_plans)
        self.verdicts: OrderedDict[Hashable, bool] = OrderedDict()
        self._sigma: DependencySet | None = None
        self._af_rule: AssignmentFixingRule | None = None
        self._backchase: dict[tuple[Semantics, frozenset[str]], BackchaseSigma] = {}

    def assignment_fixing_rule(self) -> AssignmentFixingRule:
        """The chase-free Definition 4.3 rule for these items, built on first use."""
        rule = self._af_rule
        if rule is None:
            rule = self._af_rule = AssignmentFixingRule(self.items)
        return rule

    def backchase_sigma(
        self, semantics: Semantics, set_valued: frozenset[str]
    ) -> BackchaseSigma:
        """C&B's Σ side under *semantics* and Σ's *set_valued* markers, built on first use."""
        key = (semantics, set_valued)
        side = self._backchase.get(key)
        if side is None:
            side = self._backchase[key] = BackchaseSigma(self, semantics, set_valued)
        return side

    def dependency_set(self) -> DependencySet:
        """The compiled items wrapped as a :class:`DependencySet`, memoized.

        Repeated callers under the same cached plans (every
        ``is_sound_chase_step`` of a sigma-subset scan, every nested
        Definition 4.3 test chase) share one wrapper — and through it one
        memoized fingerprint — instead of re-wrapping the list per call.
        Set-valued predicate annotations are deliberately not carried: the
        wrapper feeds nested *set*-semantics test chases, which ignore them.
        """
        sigma = self._sigma
        if sigma is None:
            sigma = DependencySet(self.items)
            self._sigma = sigma
        return sigma


class PlanCache:
    """A bounded LRU of :class:`SigmaPlans` per dependency set.

    Keys are Σ's :attr:`~repro.dependencies.base.DependencySet.plan_key` —
    its fingerprint plus the dependency display names (two Σs equal up to
    names must not share plans — step records print the names) — which an
    immutable set computes, with its hash, once; so a warm lookup is one
    dict probe and never walks Σ.
    ``hits`` / ``misses`` / ``evictions`` mirror the chase cache's counters;
    every chase run folds its deltas into its
    :class:`~repro.chase.profile.ChaseProfile` as ``plans_reused`` /
    ``plans_compiled``.
    """

    __slots__ = ("maxsize", "_entries", "hits", "misses", "evictions")

    def __init__(self, maxsize: int = 256):
        if maxsize < 1:
            raise ValueError(f"plan cache maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
        self._entries: OrderedDict[Hashable, SigmaPlans] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def plans_for(self, dependencies: DependencySet | Iterable[Dependency]) -> SigmaPlans:
        """The compiled plans of *dependencies*, regularized, compiling on first use."""
        sigma = DependencySet.coerce(dependencies)
        key = sigma.plan_key
        entries = self._entries
        plans = entries.get(key)
        if plans is not None:
            entries.move_to_end(key)
            self.hits += 1
            return plans
        self.misses += 1
        plans = SigmaPlans(sigma.dependencies)
        entries[key] = plans
        while len(entries) > self.maxsize:
            entries.popitem(last=False)
            self.evictions += 1
        return plans

    def snapshot(self) -> tuple[int, int]:
        """The current ``(hits, misses)`` pair, for per-run delta accounting."""
        return (self.hits, self.misses)

    def invalidate(self) -> None:
        """Drop every compiled plan, and with them their verdicts (counters survive)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PlanCache(size={len(self._entries)}/{self.maxsize}, "
            f"hits={self.hits}, misses={self.misses})"
        )


#: The process-wide cache used when a caller does not supply one — plans,
#: like the term intern tables, are process-level state.
_DEFAULT_PLAN_CACHE = PlanCache()


def default_plan_cache() -> PlanCache:
    """The process-wide :class:`PlanCache` shared by every chase run."""
    return _DEFAULT_PLAN_CACHE
