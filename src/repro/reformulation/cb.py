"""Chase & Backchase (C&B) and its bag / bag-set variants (Section 6.3, Appendix A).

The generic driver :func:`chase_and_backchase` implements the two-phase
algorithm:

1. **chase phase** — chase the input query under Σ (with the chase that is
   sound for the chosen semantics) to obtain the *universal plan*;
2. **backchase phase** — enumerate the safe subqueries of the universal
   plan, chase each candidate (unless the verdict table below settles it),
   and keep the candidates whose chase result is equivalent to the
   universal plan under the dependency-free test matching the semantics
   (Theorem 2.2 / 6.1 / 6.2).

The result records the universal plan, every equivalent reformulation found,
and the Σ-minimal ones among them.  Under set, bag and bag-set semantics
this is the paper's C&B, Bag-C&B and Bag-Set-C&B (Theorems A.1, 6.4, K.1),
served by :meth:`repro.session.Session.reformulate`; all are sound and
complete whenever the set chase of the input terminates.

**The verdict table.**  The algorithms need only each candidate's verdict
against the universal plan U, and many verdicts follow from others.  The
backchase records every verdict in a table keyed by the candidate's U-body
positions (candidates still come smallest first, and a candidate's query is
built only when it is chased or accepted) and settles a candidate without
chasing it by five exact rules, tried in the order 2, 1, 4, 5:

1. *refutation* (every semantics): each semantics' test needs every predicate
   of U in the chased candidate, a tgd adds its conclusion predicates only
   once its premise predicates are present, and egds add none; so if Σ's
   tgds cannot reach every predicate of U from the candidate's predicates,
   the verdict is False;
2. *upward closure* (set semantics): a candidate S that contains an
   accepted candidate S′ is accepted, since U ⊑ S ⊑ S′ ≡Σ U;
3. *minimality from the table*: a Σ-minimality probe whose shortened query
   is a sub-multiset of U's body (always the case under the identity
   substitution) gets that candidate's verdict, since each semantics' test
   is an equivalence relation and the probed reformulation is equivalent to
   U.  Only the other probes call :meth:`Session.decide`.  Under the
   identity substitution the probe is the reformulation's position mask
   less one bit, kept when it meets the positions of every head variable;
   every such mask has a verdict already, since candidates come smallest
   first.  Only the endomorphism substitutions build a shortened query;
4. *re-derivation* (every semantics): a candidate from which U can be
   rebuilt, inside U, by chase steps sound for the semantics is accepted.
   Starting from T := S, a *guided step* uses a tgd σ of the compiled,
   regularized Σ whose steps are sound in every state: any tgd under set
   semantics; under bag-set semantics a full tgd (Proposition 4.3) or, when
   U passes gates 2 and 3 of
   :class:`~repro.chase.plans.AssignmentFixingRule`, a key-determined one;
   under bag semantics as under bag-set, with every conclusion predicate
   set valued (Theorem 4.1(1)).  The step needs a premise match h into T
   (an atom U holds twice is in T when either copy is) that is applicable
   in T, i.e. no extension of h maps σ's conclusion into T, and an
   extension h′ of h that maps the conclusion onto atoms C of U outside T,
   one position per conclusion atom, each an atom U holds once, with σ's
   existential variables sent to distinct variables that occur nowhere in
   T.  It sets T := T ∪ C.  When the steps reach every position of U, the
   verdict is True; otherwise the candidate is chased.

   *Proof.*  Up to renaming the fresh variables, T ∪ C is the result of the
   chase step (σ, h) on T: the trigger is applicable, and the existential
   images are distinct and absent from T.  Every such step is sound for
   the semantics (Theorems 4.1 and 4.3, Proposition 4.3, and the proof on
   :class:`~repro.chase.plans.AssignmentFixingRule`): gate 2 is about Σ
   alone, and gate 3, which holds on U, holds on every T ⊆ U.  So S ≡Σ U
   under the semantics, and since U is Q's sound chase, S is a
   reformulation of Q: by the completeness of the test C&B relies on,
   chasing S and testing the result would have answered True.  Like the
   assignment-fixing rule, the proof takes the Definition 4.3 test chases
   of key-determined tgds to terminate;
5. *refutation by re-derivation* (bag and bag-set semantics): in the
   key/foreign-key regime below, a candidate S is rejected when no
   *embedding* f of S into U has a rule-4 closure from f(S) that reaches
   every position of U.  An embedding fixes the head, sends S's variables
   to distinct variables of U, and so sends S's atoms to distinct
   positions; rule 4 is the identity embedding.  The rule is applied only
   to a candidate each of whose atoms has a predicate that U holds once:
   each such atom can only go to itself, so the identity is the
   candidate's one embedding, and rule 4's closure has just failed from
   it.  A candidate with a predicate U holds more than once is chased.
   Its embeddings are not searched: a candidate of k atoms e(X,Yᵢ) out of
   U's n has n^k head-fixing maps into U, where one chase of it is cheap.
   The regime is checked once per table, on the compiled, regularized Σ:

   (a) every tgd's steps are sound in every state, as in rule 4;
   (b) every tgd has one conclusion atom, with no constant, in which each
       existential variable occurs once;
   (c) every egd is fd shaped, and every fd on a conclusion atom's
       predicate has that atom's universal positions inside its
       determinant;
   (d) U holds no atom twice.

   *Proof.*  Three steps.

   *One extension, no witness.*  U is a terminal chase state, so it
   satisfies Σ's fds.  Take a premise match h into U of a tgd σ.  If σ is
   full, h is its only extension.  Otherwise σ is key-determined by (a):
   the universal positions of its conclusion atom are a superkey under
   the fds.  Two extensions' images agree on those positions, hence
   everywhere, so by (d) they are one position.  By (b) that image fixes
   the extension.  So a guided step adds one atom and has no witness.  It
   fires in T when its premise is in T, and neither its atom nor a
   variable at one of its existential positions is.

   *Greedy order is harmless.*  Suppose steps s₁ … sₙ lead from T₀ to U,
   adding a₁ … aₙ, with Tₖ = T₀ ∪ {a₁ … aₖ}.  Suppose too that the closure
   from T₀ stops at R ≠ U.  Let k be least with aₖ ∉ R.  Then Tₖ₋₁ ⊆ R
   holds sₖ's premise, and sₖ does not fire in R.  So R holds a variable V
   at an existential position of sₖ, and V ∉ Tₖ₋₁.  Let c be the first
   atom the closure added that holds V, and τ the step that added it.  V
   was new then, so it sits only at existential positions of τ.  c is not
   in Tₖ₋₁ and is not aₖ, so c = aⱼ for some j > k.  In sⱼ, V ∈ Tⱼ₋₁, so V
   sits only at universal positions of sⱼ.  Take a position i of c that
   holds V: it is existential in τ and universal in sⱼ.  By (c) every fd
   on c's predicate has i in its determinant.  So no fd can add i to the
   closure of τ's universal positions.  That contradicts (a), by which τ's
   tgd is key-determined.  So every maximal firing order reaches U when
   one sequence does.

   *Rejection.*  Suppose chasing S would accept it.  S ⊆ U satisfies the
   fds, and by (c) every egd is one.  An egd could fire only on two atoms
   that agree on a determinant, one of them added by a tgd step.  Say A is
   the later of the two, and B the other.  By (c), B agrees with A on the
   universal positions of A's step.  By (b), sending each existential
   variable to B's term at its one position maps the conclusion onto B.
   So A's trigger was satisfied, and its step was not applicable.  So the
   sound chase of S is a sequence of tgd steps.  Each adds an atom absent
   before: a full step because its trigger was applicable, and an
   existential one because the atom holds a fresh variable.  So the result
   S* holds no atom twice, and neither does U, and the bag and bag-set
   tests both ask for an isomorphism g from S* onto U.  g fixes the head
   and maps S to an embedding f(S) ⊆ U.  It carries the tgd steps onto
   guided steps from f(S) that reach U: g is a bijection of terms that
   fixes constants, so applicability and fresh images carry over.  By the
   second step, the closure from f(S) reaches U.  So if no embedding's
   closure does, the chase would have rejected S.

**What is built when.**  What the rules need of Σ alone is built once per
compiled Σ, semantics and set-valued markers
(:meth:`~repro.chase.plans.SigmaPlans.backchase_sigma`): each tgd's class
for rule 4 (sound in every state, sound when U passes gates 2 and 3, or
never), the Σ half of rule 5's regime, and rule 1's tgds as predicate
bitmasks.  Rule 1 reads the compiled tgds, which is exact: regularization
(Definition 4.1) keeps each premise and only splits conclusions, so the
predicates the tgds reach from a set of predicates do not change.  A table,
one per C&B call, adds U's gates (asked only when a tgd needs them),
condition (d), and the guided steps as bitmasks over U's positions, so
rules 1, 4 and 5 cost a candidate two integer closures: no query, no chase
key, no chase, no equivalence test.  A query is built only for a candidate
that is chased or accepted.  An accepted candidate that meets no position
of a predicate U holds twice skips the isomorphism test: isomorphic queries
have equal predicate multisets, another such candidate is another subset
of the predicates U holds once, and every other candidate holds a repeated
predicate that it lacks.  Every candidate of the repo benchmark's C&B
inputs is settled without a chase: under bag and bag-set semantics they
are in the regime and use each predicate once.  The rules change no
output; the one observable difference is that a candidate settled by a
rule is never chased, so it can no longer raise from its own chase (e.g.
by exhausting its step budget), and its chase lands in neither the chase
cache nor an attached store.
``ReformulationResult.candidates_chased`` counts the candidates that were
chased.  :mod:`repro.reformulation.reference` is the C&B without the table,
which chases every candidate; the differential tests compare the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

from ..core import homomorphism
from ..core.homomorphism import Homomorphism, TargetIndex, are_isomorphic
from ..core.plan import MatchPlan
from ..core.query import ConjunctiveQuery
from ..dependencies.base import Dependency, DependencySet
from ..semantics import Semantics
from ..chase.plans import PlanCache
from ..chase.set_chase import DEFAULT_MAX_STEPS, ChaseResult
from ..chase.sound_chase import sound_chase
from ..session import strategies
from .candidates import head_holders, iter_candidates, iter_subqueries, subquery_at
from .minimality import _candidate_substitutions, _drops_to_an_equivalent

if TYPE_CHECKING:
    from ..session.engine import Session


@dataclass
class ReformulationResult:
    """Output of a C&B run."""

    query: ConjunctiveQuery
    semantics: Semantics
    universal_plan: ConjunctiveQuery
    reformulations: list[ConjunctiveQuery] = field(default_factory=list)
    minimal_reformulations: list[ConjunctiveQuery] = field(default_factory=list)
    candidates_examined: int = 0
    #: Candidates whose verdict needed a chase (cache hits included); the
    #: others were settled by the verdict table's rules.
    candidates_chased: int = 0
    chase_result: ChaseResult | None = None

    def __iter__(self) -> Iterator[ConjunctiveQuery]:
        return iter(self.minimal_reformulations)

    def __len__(self) -> int:
        return len(self.minimal_reformulations)

    def contains_isomorphic(self, query: ConjunctiveQuery, minimal_only: bool = False) -> bool:
        """Is some (minimal) reformulation isomorphic to *query*?"""
        pool = self.minimal_reformulations if minimal_only else self.reformulations
        return any(are_isomorphic(candidate, query) for candidate in pool)

    def __str__(self) -> str:
        lines = [
            f"C&B under {self.semantics} for {self.query}",
            f"  universal plan: {self.universal_plan}",
            f"  {len(self.reformulations)} equivalent reformulations, "
            f"{len(self.minimal_reformulations)} Σ-minimal",
        ]
        lines.extend(f"    {query}" for query in self.minimal_reformulations)
        return "\n".join(lines)


def chase_and_backchase(
    query: ConjunctiveQuery,
    dependencies: DependencySet | Sequence[Dependency],
    semantics: object = Semantics.SET,
    max_steps: int = DEFAULT_MAX_STEPS,
    max_candidate_size: int | None = None,
    check_sigma_minimality: bool = True,
    engine: "Session | None" = None,
) -> ReformulationResult:
    """Run C&B (or its bag / bag-set variant) on *query* under *dependencies*.

    ``max_candidate_size`` caps the body size of backchase candidates (useful
    on large universal plans); ``check_sigma_minimality`` controls whether
    the Definition 3.1 Σ-minimality filter is applied to produce
    ``minimal_reformulations`` (the full list of equivalent reformulations is
    always reported).  ``engine`` is an optional
    :class:`~repro.session.Session`: every chase — the universal plan, each
    backchase candidate, and the Σ-minimality probes — is served from its
    chase cache.  Without one, an ephemeral Session over *dependencies* is
    built, so direct functional callers get the same candidate-chase caching
    within the call.  Candidates and probes the verdict table settles (see
    the module docstring) are not chased at all.
    """
    sigma = DependencySet.coerce(dependencies)

    if engine is None:
        from ..session.engine import Session

        engine = Session(dependencies=sigma)
        sigma = engine.dependencies
    elif engine.dependencies is not sigma:
        # The engine chases (and probes minimality) under its own Σ while the
        # dependency-free test below uses *dependencies*; mixing two Σs would
        # silently produce reformulations equivalent under neither.  Session
        # callers pass engine.dependencies itself, so the identity check
        # skips even the (memoized) fingerprint comparison on that hot path.
        from ..exceptions import ReformulationError

        if engine.dependencies.fingerprint != sigma.fingerprint:
            raise ReformulationError(
                "chase_and_backchase was given an engine whose dependency "
                "set differs from the dependencies argument; use "
                "Session.reformulate, or pass engine.dependencies"
            )
    session = engine

    semantics = strategies.resolve(semantics)
    chase: Callable[[ConjunctiveQuery], ChaseResult] = lambda q: session.chase(q, semantics, max_steps)  # noqa: E731

    chase_result = chase(query)
    universal_plan = chase_result.query
    table = _VerdictTable(universal_plan, sigma, semantics, session.plan_cache)

    def minimality_equivalent(shortened: ConjunctiveQuery, original: ConjunctiveQuery) -> bool:
        verdict = table.lookup(shortened)
        if verdict is None:
            verdict = bool(session.decide(shortened, original, semantics, max_steps))
        return verdict

    reformulations: list[ConjunctiveQuery] = []
    #: The U-body positions of each reformulation, as a bitmask.
    masks: list[int] = []
    distinct = IsomorphismBuckets()
    examined = chased = 0
    for positions, mask in iter_candidates(universal_plan, max_size=max_candidate_size):
        examined += 1
        verdict = table.settle(positions, mask)
        if verdict is False:
            continue
        candidate = subquery_at(universal_plan, positions)
        if verdict is None:
            chased += 1
            verdict = strategies.equivalent_chased(
                chase(candidate).query, universal_plan, sigma, semantics
            )
            table.record(mask, verdict)
        # A candidate off U's repeated predicates has a predicate set no
        # other candidate has, so it is isomorphic to none of them.
        if verdict and (not mask & table.repeated or distinct.add_if_new(candidate)):
            reformulations.append(candidate)
            masks.append(mask)

    if check_sigma_minimality:
        # Definition 3.1's probes: the identity substitution on masks
        # (rule 3), then the endomorphisms, whose shortened queries are built.
        minimal = [
            candidate
            for candidate, mask in zip(reformulations, masks)
            if not table.drops_to_an_accepted(mask)
            and not _drops_to_an_equivalent(
                candidate,
                islice(_candidate_substitutions(candidate), 1, None),
                minimality_equivalent,
            )
        ]
    else:
        # Fall back to subset-minimality: keep candidates none of whose
        # accepted strict sub-bodies is also accepted.
        minimal = [
            candidate
            for candidate, mask in zip(reformulations, masks)
            if not any(other != mask and other & ~mask == 0 for other in masks)
        ]

    return ReformulationResult(
        query=query,
        semantics=semantics,
        universal_plan=universal_plan,
        reformulations=reformulations,
        minimal_reformulations=minimal,
        candidates_examined=examined,
        candidates_chased=chased,
        chase_result=chase_result,
    )


#: One guided step of rule 4 as bitmasks over U's body positions:
#: ``(need, choices, blocked, added, witnesses)``.  ``need`` holds the
#: images of the premise atoms that U holds once, ``choices`` the copies of
#: each other premise atom's image; ``added`` the conclusion's images;
#: ``blocked`` those plus every position holding an existential variable's
#: image; ``witnesses``, per other extension of the premise match into U,
#: the copies of each conclusion image.  In rule 5's regime ``choices`` and
#: ``witnesses`` are empty, and a step is two ``&`` tests.
_GuidedStep = tuple[int, tuple[int, ...], int, int, tuple[tuple[int, ...], ...]]


class _VerdictTable:
    """Backchase verdicts keyed by U-body positions, and the five rules.

    See the module docstring for the rules and their proofs.  Positions and
    predicates are held as bitmasks: the upward-closure test is one ``&`` per
    accepted candidate, a minimality probe under the identity one dict probe
    per atom, a refutation and a re-derivation one closure each.
    """

    __slots__ = (
        "_plan",
        "_plans",
        "_side",
        "_semantics",
        "_verdicts",
        "_predicate_bits",
        "_needed",
        "_accepted",
        "_copies",
        "_holders",
        "repeated",
        "_full",
        "_steps",
        "_in_regime",
    )

    def __init__(
        self,
        universal_plan: ConjunctiveQuery,
        sigma: DependencySet,
        semantics: Semantics,
        plan_cache: PlanCache,
    ):
        body = universal_plan.body
        self._plan = universal_plan
        self._plans = plan_cache.plans_for(sigma)
        self._side = side = self._plans.backchase_sigma(semantics, sigma.set_valued_predicates)
        self._semantics = semantics
        self._verdicts: dict[int, bool] = {}
        #: Rule 1: each position's predicate bit, Σ's bits extended by the
        #: predicates of U that no tgd mentions.
        bits = side.predicate_bits
        own: dict[str, int] = {}
        self._predicate_bits: list[int] = []
        #: Each atom of U, as ``(sig_id, term uids)`` → its positions.
        self._copies: dict[tuple[int, tuple[int, ...]], int] = {}
        seen = twice = 0
        for position, atom in enumerate(body):
            bit = bits.get(atom.predicate) or own.setdefault(
                atom.predicate, 1 << (len(bits) + len(own))
            )
            self._predicate_bits.append(bit)
            twice |= seen & bit
            seen |= bit
            key = (atom.sig_id, atom.term_ids)
            self._copies[key] = self._copies.get(key, 0) | 1 << position
        self._needed = seen
        #: The positions whose predicate U holds more than once: rule 5
        #: settles no candidate that meets them, and only the candidates
        #: that meet them need the isomorphism buckets.
        self.repeated = sum(
            1 << position for position, bit in enumerate(self._predicate_bits) if bit & twice
        )
        #: Masks of the candidates accepted by a chase or by rule 4; under
        #: upward closure every other accepted candidate contains one of them.
        self._accepted: list[int] = []
        #: Per head variable, the positions holding it: a subset is safe
        #: when it meets every one of them.
        self._holders = head_holders(universal_plan)
        self._full = (1 << len(body)) - 1
        self._steps: list[_GuidedStep] | None = None
        #: Whether rule 5's regime holds; decided with the guided steps,
        #: which rule 4's first closure computes.
        self._in_regime = False

    def settle(self, positions: Sequence[int], mask: int) -> bool | None:
        """Rules 2, 1, 4 and 5: the verdict of the candidate at *positions* (*mask*), or None."""
        if self._semantics is Semantics.SET and any(
            mask & accepted == accepted for accepted in self._accepted
        ):
            self._verdicts[mask] = True
            return True
        held = 0
        predicate_bits = self._predicate_bits
        for position in positions:
            held |= predicate_bits[position]
        if not self._reaches_needed(held):
            self._verdicts[mask] = False
            return False
        if self._rederives(mask):
            self.record(mask, True)
            return True
        if self._in_regime and not mask & self.repeated:
            # Rule 5: the identity is the one embedding, and it failed.
            self._verdicts[mask] = False
            return False
        return None

    def record(self, mask: int, verdict: bool) -> None:
        """Store the verdict a chase or rule 4 gave the candidate at *mask*."""
        self._verdicts[mask] = verdict
        if verdict:
            self._accepted.append(mask)

    def lookup(self, query: ConjunctiveQuery) -> bool | None:
        """Rule 3: the verdict of *query* when its body is a sub-multiset of U's body.

        Each atom takes the first of its positions in U not taken yet.
        """
        copies = self._copies
        mask = 0
        for atom in query.body:
            free = copies.get((atom.sig_id, atom.term_ids), 0) & ~mask
            if not free:
                return None
            mask |= free & -free
        return self._verdicts.get(mask)

    def drops_to_an_accepted(self, mask: int) -> bool:
        """Rule 3 under the identity substitution: is a safe one-atom drop of *mask* accepted?

        The candidate at *mask* was accepted, and candidates come smallest
        first, so every safe proper subset of it has a verdict already.
        """
        if not mask & (mask - 1):
            return False  # one atom: nothing to drop
        rest = mask
        while rest:
            bit = rest & -rest
            rest ^= bit
            shortened = mask ^ bit
            if all(holder & shortened for holder in self._holders) and self._verdicts[shortened]:
                return True
        return False

    def _reaches_needed(self, reached: int) -> bool:
        """Can Σ's tgds, fired from the predicate bits *reached*, produce every predicate of U?"""
        needed = self._needed
        pending: Sequence[tuple[int, int]] = self._side.reach
        while reached & needed != needed:
            waiting = []
            for premise, conclusion in pending:
                if premise & reached == premise:
                    reached |= conclusion
                else:
                    waiting.append((premise, conclusion))
            if len(waiting) == len(pending):
                return False
            pending = waiting
        return True

    def _rederives(self, mask: int) -> bool:
        """Rule 4: do guided steps grow the candidate at *mask* to all of U?"""
        pending = self._steps
        if pending is None:
            pending = self._steps = self._guided_steps()
        reached = mask
        while reached != self._full:
            waiting = []
            fired = False
            for step in pending:
                need, choices, blocked, added, witnesses = step
                if reached & blocked:
                    continue  # reached only grows, so the step stays blocked
                if (
                    need & reached == need
                    and (not choices or all(copies & reached for copies in choices))
                    and not (witnesses and any(
                        all(copies & reached for copies in witness) for witness in witnesses
                    ))
                ):
                    reached |= added
                    fired = True
                else:
                    waiting.append(step)
            if not fired:
                return False
            pending = waiting
        return True

    def _guided_steps(self) -> list[_GuidedStep]:
        """Every guided step inside U of a tgd whose steps are sound in every state.

        Also decides whether rule 5's regime holds: Σ's half comes with the
        tgds, and U adds gates 2 and 3, when some tgd needs them, and (d).
        """
        side = self._side
        body = self._plan.body
        # Gates 2 and 3 on U, asked only when some tgd needs them.
        gates_hold = not side.needs_gates or self._plans.assignment_fixing_rule().holds_for(
            self._plan
        )
        self._in_regime = side.regime and gates_hold and len(self._copies) == len(body)  # (d)
        copies = self._copies
        #: Each variable of U, by uid → the positions holding it.
        holding: dict[int, int] = {}
        for position, atom in enumerate(body):
            for variable in atom.variables():
                holding[variable.uid] = holding.get(variable.uid, 0) | 1 << position
        index = TargetIndex(body)
        # A dict keeps the first of equal steps (U's duplicate atoms repeat matches).
        steps: dict[_GuidedStep, None] = {}
        for plan, gated in side.guided:
            if gated and not gates_hold:
                continue
            for match in homomorphism.iter_matches(plan.premise, index):
                need = 0
                choices = []
                for image in _images(plan.premise, match):
                    held = copies[image]
                    if held & (held - 1):
                        choices.append(held)
                    else:
                        need |= held
                extensions = list(homomorphism.iter_matches(plan.conclusion, index, match))
                images = [
                    tuple([copies[image] for image in _images(plan.conclusion, extension)])
                    for extension in extensions
                ]
                for chosen, (extension, targets) in enumerate(zip(extensions, images)):
                    # Each conclusion atom onto its own position of an atom U holds once.
                    if any(target & (target - 1) for target in targets):
                        continue
                    added = 0
                    for target in targets:
                        added |= target
                    if added.bit_count() != len(targets):
                        continue
                    # Existential variables onto distinct variables: only
                    # variables have a uid in holding.
                    fresh = {extension[variable].uid for variable in plan.existential}
                    if len(fresh) != len(plan.existential) or not all(
                        uid in holding for uid in fresh
                    ):
                        continue
                    blocked = added
                    for uid in fresh:
                        blocked |= holding[uid]
                    witnesses = tuple(
                        witness for other, witness in enumerate(images) if other != chosen
                    )
                    steps[(need, tuple(choices), blocked, added, witnesses)] = None
        return list(steps)


def _images(plan: MatchPlan, match: Homomorphism) -> list[tuple[int, tuple[int, ...]]]:
    """Each atom of *plan* under *match*, as ``(sig_id, term uids)``, without building it."""
    uids = [match[variable].uid for variable in plan.slot_vars]
    return [
        (sig_id, tuple([uids[code] if code >= 0 else ~code for code in codes]))
        for sig_id, codes in zip(plan.sig_ids, plan.codes)
    ]


class IsomorphismBuckets:
    """Accepted queries, each admitted only if no isomorphic one was.

    Queries are bucketed by their sorted body predicates, which isomorphic
    queries always share, so a new query is compared only within its bucket.
    ``are_isomorphic`` is looked up in this module at call time.
    """

    __slots__ = ("_buckets",)

    def __init__(self) -> None:
        self._buckets: dict[tuple[str, ...], list[ConjunctiveQuery]] = {}

    def add_if_new(self, query: ConjunctiveQuery) -> bool:
        """Admit *query* unless it is isomorphic to an admitted one."""
        key = tuple(sorted(atom.predicate for atom in query.body))
        bucket = self._buckets.setdefault(key, [])
        if any(are_isomorphic(query, existing) for existing in bucket):
            return False
        bucket.append(query)
        return True


def naive_bag_c_and_b(
    query: ConjunctiveQuery,
    dependencies: DependencySet | Sequence[Dependency],
    max_steps: int = DEFAULT_MAX_STEPS,
    **kwargs: Any,
) -> ReformulationResult:
    """The *unsound* naive extension of C&B discussed in Section 4.1.

    It chases with the ordinary set chase and merely swaps in the
    dependency-free bag-equivalence test (query isomorphism).  Example 4.1
    shows this accepts reformulations that are not bag equivalent to the
    input; it is provided so tests and the E9 benchmark can reproduce that
    failure mode and contrast it with Bag-C&B
    (``Session.reformulate(query, "bag")``).
    """
    semantics = Semantics.BAG
    dependencies = DependencySet.coerce(dependencies)
    chase_result = sound_chase(query, dependencies, Semantics.SET, max_steps)
    universal_plan = chase_result.query
    reformulations: list[ConjunctiveQuery] = []
    distinct = IsomorphismBuckets()
    examined = 0
    for candidate in iter_subqueries(universal_plan, max_size=kwargs.get("max_candidate_size")):
        examined += 1
        chased_candidate = sound_chase(
            candidate, dependencies, Semantics.SET, max_steps
        ).query
        # The naive test of Section 4.1: plain bag equivalence (isomorphism,
        # Theorem 2.1) between the set-chase results.
        if are_isomorphic(chased_candidate, universal_plan) and distinct.add_if_new(candidate):
            reformulations.append(candidate)
    return ReformulationResult(
        query=query,
        semantics=semantics,
        universal_plan=universal_plan,
        reformulations=reformulations,
        minimal_reformulations=list(reformulations),
        candidates_examined=examined,
        candidates_chased=examined,
        chase_result=chase_result,
    )
