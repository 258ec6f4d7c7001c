"""Assignment-fixing tgds (Definitions 4.3 and 4.4 of the paper).

A regularized tgd σ applicable to a query Q via homomorphism h is
*assignment fixing* w.r.t. (Q, h) when, in the terminal set-chase result of
the associated test query Q^{σ,h,θ}, at most one variable of each pair
(Zi, θ(Zi)) survives — intuitively, the dependencies force the existential
witnesses to be unique, so adding the conclusion to Q cannot change answer
multiplicities under bag or bag-set semantics.

Full tgds (no existential variables) are assignment fixing w.r.t. every
query they apply to (Proposition 4.3).  Key-determined tgds are settled
without a chase too: when every conclusion atom is keyed by its universal
positions under Σ's fd-shaped egds, Σ has no constants, and Q's constants
sit only in atoms no premise of Σ mentions, the test chase can neither fail
nor keep both members of a pair, so its verdict is True whenever it
terminates (Definition 5.1's superkey argument; the gates and the proof are
on :class:`repro.chase.plans.AssignmentFixingRule`).

The notion is *query dependent* (Example 5.1) and strictly generalises
key-based tgds / UWDs (Definition 5.1, Example 4.8); the comparison helper
:func:`compare_with_key_based` makes that relationship easy to inspect.
"""

from __future__ import annotations

from typing import Hashable, Mapping, MutableMapping, Sequence

from ..core.query import ConjunctiveQuery
from ..core.terms import Term
from ..dependencies.base import TGD, Dependency, DependencySet
from ..dependencies.classify import is_key_based_tgd
from .plans import PlanCache, TGDPlan, default_plan_cache
from .profile import ChaseProfile
from .set_chase import DEFAULT_MAX_STEPS, set_chase
from .steps import iter_applicable_tgd_bindings, trigger_homomorphism
from .test_query import AssociatedTestQuery, associated_test_query


def _canonical_verdict_key(test: AssociatedTestQuery, max_steps: int) -> Hashable:
    """A key under which structurally identical Definition 4.3 tests coincide.

    The verdict is a pure function of (test query, monitored pairs, Σ,
    max_steps).  The query contributes its structural key (a deterministic
    variable renaming), and each monitored variable is represented by its
    first-occurrence position in the head-then-body term stream — the same
    order the renaming canonicalizes on — so two alpha-variant tests that
    monitor corresponding variables share a key.  Σ is fixed by the memo's
    owner (one memo per chase run), so it does not appear in the key.
    """
    query = test.query
    positions: dict[Term, int] = {}
    for term in query.head_terms:
        positions.setdefault(term, len(positions))
    for atom in query.body:
        for term in atom.terms:
            positions.setdefault(term, len(positions))
    pair_positions = tuple(
        (positions.get(z_var, -1), positions.get(theta_var, -1))
        for z_var, theta_var in test.existential_pairs
    )
    return (query.structural_key(), pair_positions, max_steps)


def is_assignment_fixing_for(
    query: ConjunctiveQuery,
    tgd: TGD,
    homomorphism: Mapping[Term, Term],
    dependencies: DependencySet | Sequence[Dependency],
    max_steps: int = DEFAULT_MAX_STEPS,
    *,
    memo: MutableMapping[Hashable, bool] | None = None,
    profile: ChaseProfile | None = None,
    plan_cache: PlanCache | None = None,
) -> bool:
    """Is *tgd* assignment fixing w.r.t. (*query*, *homomorphism*)?

    Definition 4.3: chase the associated test query under set semantics and
    check that at most one of Zi and θ(Zi) survives for every existential
    variable.  Two cases skip the chase: full tgds (Proposition 4.3) and
    key-determined tgds under the gates of
    :class:`~repro.chase.plans.AssignmentFixingRule`, which is consulted
    through ``plan_cache`` (default: the process-wide cache) and counted as
    ``assignment_fixing_static`` on ``profile``.  Wherever the test chase
    terminates, the verdict is the one it would give.

    Definition 4.3 is stated for regularized tgds; the test itself is well
    defined for any tgd, and the paper applies it verbatim to tgds such as
    σ4 of Example 4.3 (which admits a nonshared partition), so no
    regularization is enforced here.  The *sound chase* always regularizes
    its dependency set first, so soundness is unaffected.

    ``memo`` caches verdicts per canonicalized test query within one chase
    run (the owner must keep Σ and the step budget fixed for the memo's
    lifetime); the verdict being a pure function of the canonical test, a
    hit is exact, not approximate.  ``profile`` receives the test/hit
    counters and the index counters of the test chase; ``plan_cache`` is
    handed to the test chase so it reuses the caller's compiled plans.
    """
    if tgd.is_full():
        # Proposition 4.3.
        return True
    cache = plan_cache if plan_cache is not None else default_plan_cache()
    if cache.plans_for(dependencies).assignment_fixing_rule().decides(query, tgd):
        if profile is not None:
            profile.assignment_fixing_static += 1
        return True
    test = associated_test_query(query, tgd, homomorphism)
    if memo is not None:
        key = _canonical_verdict_key(test, max_steps)
        cached = memo.get(key)
        if cached is not None:
            if profile is not None:
                profile.assignment_fixing_cache_hits += 1
            return cached
    chased = set_chase(test.query, dependencies, max_steps=max_steps, plan_cache=cache)
    if profile is not None:
        profile.assignment_fixing_tests += 1
        if chased.profile is not None:
            profile.index_lookups += chased.profile.index_lookups
            profile.index_hits += chased.profile.index_hits
            # Keep the kernel counter consistent with the index counters it
            # is read against: every lookup happens inside a kernel search,
            # so the nested chase's searches belong to this profile too.
            profile.kernel_searches += chased.profile.kernel_searches
    surviving = {v for atom in chased.query.body for v in atom.variables()}
    verdict = True
    for z_var, theta_var in test.existential_pairs:
        if z_var in surviving and theta_var in surviving:
            verdict = False
            break
    if memo is not None:
        memo[key] = verdict
    return verdict


def is_assignment_fixing(
    query: ConjunctiveQuery,
    tgd: TGD,
    dependencies: DependencySet | Sequence[Dependency],
    max_steps: int = DEFAULT_MAX_STEPS,
) -> bool:
    """Is *tgd* assignment fixing w.r.t. *query* (for some applicable homomorphism)?

    Returns False when the tgd is not applicable to the query at all.
    """
    plan = TGDPlan(tgd)
    for match in iter_applicable_tgd_bindings(query, tgd, plan=plan):
        homomorphism = trigger_homomorphism(plan, match)
        if is_assignment_fixing_for(query, tgd, homomorphism, dependencies, max_steps):
            return True
    return False


def compare_with_key_based(
    query: ConjunctiveQuery,
    tgd: TGD,
    dependencies: DependencySet,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> dict[str, bool]:
    """Compare the assignment-fixing and key-based classifications of *tgd*.

    Returns ``{"assignment_fixing": ..., "key_based": ...}``.  Key-based
    implies assignment fixing (for applicable tgds); the converse fails —
    Example 4.8 of the paper — which this helper lets tests and the ablation
    benchmark demonstrate directly.
    """
    return {
        "assignment_fixing": is_assignment_fixing(query, tgd, dependencies, max_steps),
        "key_based": is_key_based_tgd(tgd, dependencies),
    }
