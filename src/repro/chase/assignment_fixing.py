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

from typing import Hashable, Mapping, Sequence

from ..core.query import ConjunctiveQuery
from ..core.terms import Term, Variable
from ..dependencies.base import TGD, Dependency, DependencySet
from ..dependencies.classify import is_key_based_tgd
from .plans import PlanCache, TGDPlan, default_plan_cache
from .profile import ChaseProfile
from .set_chase import DEFAULT_MAX_STEPS, set_chase
from .steps import iter_applicable_tgd_bindings, trigger_homomorphism
from .test_query import associated_test_query


#: How many Definition 4.3 verdicts one compiled Σ keeps (least recently used
#: first out); see :attr:`repro.chase.plans.SigmaPlans.verdicts`.
VERDICT_MEMO_SIZE = 256


def _verdict_key(
    query: ConjunctiveQuery,
    tgd: TGD,
    existential: Sequence[Variable],
    homomorphism: Mapping[Term, Term],
    max_steps: int,
) -> Hashable:
    """The memo key of one Definition 4.3 test, read straight off the atoms.

    The verdict is a pure function of the test query's body up to renaming
    (the test chase reads nothing else), Σ, which the memo's owner fixes,
    and ``max_steps``.  That body is Q's body plus two copies of σ's
    conclusion, so Q's body, σ and h's frontier images determine it.  In
    the stream, each body atom leads with its signature id and ``None``
    ends the body, so it reads back one way only; variables are numbered
    by first occurrence and constants stand for themselves.
    """
    numbers: dict[Term, int] = {}
    number = numbers.setdefault
    stream: list[object] = []
    push = stream.append
    for atom in query.body:
        push(atom.sig_id)
        for term in atom.terms:
            push(number(term, len(numbers)) if type(term) is Variable else term)
    push(None)
    for atom in tgd.conclusion:
        for term in atom.terms:
            if term not in existential:
                image = homomorphism.get(term, term)
                push(number(image, len(numbers)) if type(image) is Variable else image)
    return (tgd, max_steps, tuple(stream))


def is_assignment_fixing_for(
    query: ConjunctiveQuery,
    tgd: TGD,
    homomorphism: Mapping[Term, Term],
    dependencies: DependencySet | Sequence[Dependency],
    max_steps: int = DEFAULT_MAX_STEPS,
    *,
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

    Test-chase verdicts are kept on Σ's compiled plans in ``plan_cache``
    (:attr:`~repro.chase.plans.SigmaPlans.verdicts`, an LRU of
    :data:`VERDICT_MEMO_SIZE`), so a compiled Σ runs each test once across
    chase runs.  A hit builds no test query and is exact; ``profile``
    counts it, the tests and the test chases' index counters.
    """
    existential = tgd.existential_variables()
    if not existential:
        # Proposition 4.3.
        return True
    cache = plan_cache if plan_cache is not None else default_plan_cache()
    plans = cache.plans_for(dependencies)
    if plans.assignment_fixing_rule().decides(query, tgd):
        if profile is not None:
            profile.assignment_fixing_static += 1
        return True
    verdicts = plans.verdicts
    key = _verdict_key(query, tgd, existential, homomorphism, max_steps)
    # Pop and re-insert: a concurrent eviction costs a test chase, not a KeyError.
    cached = verdicts.pop(key, None)
    if cached is not None:
        verdicts[key] = cached
        if profile is not None:
            profile.assignment_fixing_cache_hits += 1
        return cached
    test = associated_test_query(query, tgd, homomorphism)
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
    verdicts[key] = verdict
    if len(verdicts) > VERDICT_MEMO_SIZE:
        verdicts.popitem(last=False)
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
