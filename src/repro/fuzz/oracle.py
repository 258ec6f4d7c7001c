"""The differential oracle: every cheap invariant this repository can check.

Given a :class:`~repro.fuzz.generator.FuzzCase` (a query pair plus Σ), the
oracle runs six independent families of checks and reports every mismatch:

1. **Engine differential** — the accelerated chase drivers
   (:func:`repro.chase.sound_chase.sound_chase`, delta-driven, indexed) must
   reproduce the frozen reference drivers
   (:mod:`repro.chase.reference`) *step for step*: same step records, same
   terminal query, and the same outcome kind when the chase fails or runs
   out of budget.  One difference is permitted: under bag / bag-set
   semantics the accelerated chase decides key-determined Definition 4.3
   tests without a nested chase, so it may terminate where the reference
   exhausts its budget inside a nested test; the reference is then re-run
   at :data:`REFERENCE_RETRY_FACTOR` times the budget and must terminate
   with the same terminal query and step records.  The homomorphism
   engines are compared the same way, and so are the binding-level
   applicability probes: for every dependency of Σ, the
   zero-materialization trigger enumeration of :mod:`repro.chase.steps`
   must yield the same homomorphisms, with the same key order, as the
   frozen pre-kernel path.
2. **Proposition 6.1** — the bag ⇒ bag-set ⇒ set implication chain must hold
   across the three verdicts of a :class:`~repro.session.Session`; each
   verdict is additionally recomputed from the *reference* chase results, so
   a chase divergence that happens to produce a plausible query still trips
   the oracle.
3. **Datalog round trip** — rendering a query or dependency and parsing it
   back must reproduce the object (dependency names are rendering-invisible
   and are compared structurally).
4. **SQL round trip** — rendering a query to SQL against the case's derived
   schema and translating it back must yield an isomorphic query.
5. **Static analysis** — the chase-free analyzer must agree with
   :func:`repro.dependencies.is_weakly_acyclic` on every Σ, its termination
   certificate (or witness cycle) must machine-verify, and on weakly
   acyclic Σ the certificate's static chase-depth bound must dominate the
   rounds every terminated reference chase actually took.
6. **Incremental resume** — replaying the case as a *delta sequence* (a
   head-safe prefix of the query grown one atom at a time, then the second
   half of Σ one dependency at a time) through
   :func:`repro.chase.incremental.resume_chase` must land on a genuine
   fixpoint (no applicable step remains) that is Σ-equivalent to a cold
   chase of the same accumulated state, with agreeing outcome kinds when a
   chase fails.

Every check is pure: the oracle never mutates the case and builds a fresh
:class:`Session` per report, so corpus replays and shrink probes are
hermetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..chase.incremental import (
    ChaseDelta,
    apply_delta,
    chase_with_checkpoint,
    has_applicable_step,
    resume_chase,
)
from ..chase.reference import (
    _iter_applicable_egd_homomorphisms as _reference_egd_triggers,
    _iter_applicable_tgd_homomorphisms as _reference_tgd_triggers,
    sound_chase_reference,
)
from ..chase.sound_chase import sound_chase
from ..chase.steps import (
    ChaseFailedError,
    iter_applicable_egd_homomorphisms,
    iter_applicable_tgd_homomorphisms,
)
from ..core.homomorphism import find_isomorphism, iter_homomorphisms
from ..core.query import ConjunctiveQuery
from ..core.reference import iter_homomorphisms_reference
from ..dependencies.base import EGD, TGD, Dependency, DependencySet
from ..dependencies.weak_acyclicity import is_weakly_acyclic
from ..datalog import parse_dependency, parse_query, render_dependency, render_query
from ..equivalence.decision import EquivalenceVerdict
from ..exceptions import ChaseNonTerminationError, ReproError
from ..schema.schema import DatabaseSchema
from ..semantics import Semantics
from ..session import strategies
from ..session.engine import Session, assert_proposition_6_1
from ..sql import query_to_sql, translate_sql
from .generator import FuzzCase

#: Order matters: Proposition 6.1 reads bag ⇒ bag-set ⇒ set.
ALL_SEMANTICS = (Semantics.BAG, Semantics.BAG_SET, Semantics.SET)

#: Budget multiplier for re-running a reference chase that ran out of steps
#: where the accelerated one terminated (see check 1 above).
REFERENCE_RETRY_FACTOR = 10


@dataclass(frozen=True)
class OracleMismatch:
    """One invariant violation: which check tripped, and the evidence."""

    check: str
    detail: str

    def __str__(self) -> str:
        return f"{self.check}: {self.detail}"


@dataclass
class CaseReport:
    """Everything one oracle pass over one case produced."""

    case: FuzzCase
    mismatches: list[OracleMismatch] = field(default_factory=list)
    #: Verdicts per semantics, for campaign statistics; absent when a chase
    #: failed or exhausted its budget.
    verdicts: dict[Semantics, bool] = field(default_factory=dict)
    #: True when some chase of the case ran out of its step budget (the
    #: engines still had to agree on that outcome for the case to pass).
    budget_exhausted: bool = False

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def failed_checks(self) -> list[str]:
        return [mismatch.check for mismatch in self.mismatches]

    def __str__(self) -> str:
        status = "ok" if self.ok else "; ".join(map(str, self.mismatches))
        return f"{self.case.origin}: {status}"


# --------------------------------------------------------------------------- #
# Chase outcomes
# --------------------------------------------------------------------------- #
def _chase_outcome(chase_fn, query, dependencies, semantics, max_steps):
    """Normalize a chase run into a comparable (kind, payload) pair."""
    try:
        result = chase_fn(query, dependencies, semantics, max_steps)
    except ChaseNonTerminationError:
        return ("budget-exhausted", None)
    except ChaseFailedError:
        return ("chase-failed", None)
    return ("terminated", result)


def _describe(outcome) -> str:
    kind, result = outcome
    if result is None:
        return kind
    return f"{kind}: {result.query} after {result.step_count} steps"


def _compare_chases(case: FuzzCase, report: CaseReport) -> dict:
    """Run both engines on both queries under all semantics; return the
    reference outcomes keyed by (which-query, semantics) for reuse."""
    reference_outcomes: dict[tuple[str, Semantics], tuple] = {}
    for label, query in (("query", case.query), ("other", case.other)):
        for semantics in ALL_SEMANTICS:
            fast = _chase_outcome(
                sound_chase, query, case.dependencies, semantics, case.max_steps
            )
            slow = _chase_outcome(
                sound_chase_reference,
                query,
                case.dependencies,
                semantics,
                case.max_steps,
            )
            budget = ""
            if slow[0] == "budget-exhausted":
                report.budget_exhausted = True
                if fast[0] == "terminated" and semantics is not Semantics.SET:
                    # The permitted difference: a Definition 4.3 test the
                    # accelerated chase decided without the nested chase that
                    # exhausted the reference.  With more budget the reference
                    # must reproduce the accelerated run exactly.
                    budget = f" at {REFERENCE_RETRY_FACTOR}x the budget"
                    slow = _chase_outcome(
                        sound_chase_reference,
                        query,
                        case.dependencies,
                        semantics,
                        case.max_steps * REFERENCE_RETRY_FACTOR,
                    )
            reference_outcomes[(label, semantics)] = slow
            if fast[0] != slow[0]:
                report.mismatches.append(
                    OracleMismatch(
                        f"chase-differential[{semantics}]",
                        f"{label}: accelerated {_describe(fast)} vs "
                        f"reference {_describe(slow)}{budget}",
                    )
                )
                continue
            if fast[0] != "terminated":
                continue
            fast_result, slow_result = fast[1], slow[1]
            if fast_result.query != slow_result.query:
                report.mismatches.append(
                    OracleMismatch(
                        f"chase-differential[{semantics}]",
                        f"{label}: terminal queries differ — accelerated "
                        f"{fast_result.query} vs reference {slow_result.query}{budget}",
                    )
                )
            elif fast_result.steps != slow_result.steps:
                report.mismatches.append(
                    OracleMismatch(
                        f"chase-differential[{semantics}]",
                        f"{label}: step records diverge at step "
                        f"{_first_divergence(fast_result.steps, slow_result.steps)}{budget}",
                    )
                )
    return reference_outcomes


def _first_divergence(left: list, right: list) -> int:
    for position, (a, b) in enumerate(zip(left, right)):
        if a != b:
            return position
    return min(len(left), len(right))


def _compare_homomorphism_engines(case: FuzzCase, report: CaseReport) -> None:
    """Indexed vs reference homomorphism search between the two bodies."""
    fast = list(iter_homomorphisms(case.query.body, case.other.body))
    slow = list(iter_homomorphisms_reference(case.query.body, case.other.body))
    if fast != slow:
        report.mismatches.append(
            OracleMismatch(
                "homomorphism-differential",
                f"{len(fast)} indexed vs {len(slow)} reference homomorphisms "
                "(or a different enumeration order)",
            )
        )


def _compare_applicability_probes(case: FuzzCase, report: CaseReport) -> None:
    """Binding-level trigger enumeration vs the frozen pre-kernel path.

    The chase differential (check 1) compares what the drivers *applied*;
    this compares what the applicability layer *offered*: for every
    dependency of Σ against both queries, the zero-materialization probe of
    :mod:`repro.chase.steps` must yield the same applicable triggers — same
    dicts, same key order (hence the ``items()`` comparison), same
    equality images — as the frozen backtracking enumeration.
    """
    for label, query in (("query", case.query), ("other", case.other)):
        for dependency in case.dependencies:
            if isinstance(dependency, TGD):
                fast = [
                    list(hom.items())
                    for hom in iter_applicable_tgd_homomorphisms(query, dependency)
                ]
                slow = [
                    list(hom.items())
                    for hom in _reference_tgd_triggers(query, dependency)
                ]
            else:
                fast = [
                    (list(hom.items()), left, right)
                    for hom, left, right in iter_applicable_egd_homomorphisms(
                        query, dependency
                    )
                ]
                slow = [
                    (list(hom.items()), left, right)
                    for hom, left, right in _reference_egd_triggers(query, dependency)
                ]
            if fast != slow:
                report.mismatches.append(
                    OracleMismatch(
                        "probe-differential",
                        f"{label}/{dependency.name}: binding-level probe "
                        f"offered {len(fast)} triggers vs {len(slow)} "
                        "reference (or a different order)",
                    )
                )


# --------------------------------------------------------------------------- #
# Proposition 6.1 and verdict differentials
# --------------------------------------------------------------------------- #
def _check_verdicts(
    case: FuzzCase,
    report: CaseReport,
    reference_outcomes: dict,
    session: Session | None,
    precomputed: dict[Semantics, EquivalenceVerdict] | None = None,
) -> None:
    """Session verdicts: Proposition 6.1 chain + reference-chase recomputation.

    ``precomputed`` lets a campaign runner supply verdicts it already
    obtained through ``Session.decide_many`` (exercising the batch
    pipelines); otherwise a session is consulted directly.
    """
    if session is None:
        session = Session(
            dependencies=case.dependencies, max_steps=case.max_steps
        )
    verdicts: dict[Semantics, EquivalenceVerdict] = {}
    for semantics in ALL_SEMANTICS:
        if precomputed is not None and semantics in precomputed:
            verdicts[semantics] = precomputed[semantics]
            continue
        try:
            verdicts[semantics] = session.decide(
                case.query, case.other, semantics, case.max_steps
            )
        except (ChaseNonTerminationError, ChaseFailedError):
            continue  # outcome-kind agreement was already checked above
    report.verdicts = {
        semantics: bool(verdict) for semantics, verdict in verdicts.items()
    }
    try:
        assert_proposition_6_1(verdicts)
    except AssertionError as error:
        report.mismatches.append(OracleMismatch("proposition-6.1", str(error)))

    # Recompute each verdict from the *reference* chase results: the session
    # must agree with the decision the frozen engines would have made.
    for semantics, verdict in verdicts.items():
        left = reference_outcomes.get(("query", semantics))
        right = reference_outcomes.get(("other", semantics))
        if not left or not right:
            continue
        if left[0] != "terminated" or right[0] != "terminated":
            continue
        expected = strategies.equivalent_chased(
            left[1].query, right[1].query, session.dependencies, semantics
        )
        if bool(verdict) != bool(expected):
            report.mismatches.append(
                OracleMismatch(
                    f"verdict-differential[{semantics}]",
                    f"session decided {bool(verdict)} but the reference "
                    f"chases decide {expected}",
                )
            )


# --------------------------------------------------------------------------- #
# Round trips
# --------------------------------------------------------------------------- #
def _dependency_signature(dependency: Dependency) -> tuple:
    """Structural identity of a dependency, ignoring its (unrendered) name."""
    if isinstance(dependency, TGD):
        return ("tgd", dependency.premise, dependency.conclusion)
    assert isinstance(dependency, EGD)
    return ("egd", dependency.premise, dependency.equalities)


def _check_datalog_round_trip(case: FuzzCase, report: CaseReport) -> None:
    for label, query in (("query", case.query), ("other", case.other)):
        rendered = render_query(query)
        try:
            parsed = parse_query(rendered)
        except ReproError as error:
            report.mismatches.append(
                OracleMismatch(
                    "datalog-roundtrip",
                    f"{label}: {rendered!r} failed to parse back: {error}",
                )
            )
            continue
        if parsed != query:
            report.mismatches.append(
                OracleMismatch(
                    "datalog-roundtrip",
                    f"{label}: {rendered!r} parsed back as {parsed}",
                )
            )
    for dependency in case.dependencies:
        rendered = render_dependency(dependency)
        try:
            parsed = parse_dependency(rendered)
        except ReproError as error:
            report.mismatches.append(
                OracleMismatch(
                    "datalog-roundtrip",
                    f"dependency {rendered!r} failed to parse back: {error}",
                )
            )
            continue
        if len(parsed) != 1 or _dependency_signature(
            parsed[0]
        ) != _dependency_signature(dependency):
            report.mismatches.append(
                OracleMismatch(
                    "datalog-roundtrip",
                    f"dependency {rendered!r} parsed back as "
                    f"{[str(d) for d in parsed]}",
                )
            )


def _check_sql_round_trip(case: FuzzCase, report: CaseReport) -> None:
    if not case.has_consistent_arities():
        return  # hand-made corpus cases may overload a predicate name
    schema = DatabaseSchema.from_arities(
        case.arities(), set_valued=case.dependencies.set_valued_predicates
    )
    for label, query in (("query", case.query), ("other", case.other)):
        if not query.head_terms:
            continue  # SELECT needs at least one output column
        try:
            sql = query_to_sql(query, schema, Semantics.BAG_SET)
            translated = translate_sql(sql, schema).query
        except ReproError as error:
            report.mismatches.append(
                OracleMismatch(
                    "sql-roundtrip", f"{label}: round trip raised {error}"
                )
            )
            continue
        if not isinstance(translated, ConjunctiveQuery):
            report.mismatches.append(
                OracleMismatch(
                    "sql-roundtrip",
                    f"{label}: {sql!r} translated back as a non-CQ query",
                )
            )
            continue
        # The translator names every query "Q" and invents variable names;
        # isomorphism (head-respecting bijection of subgoal occurrences) is
        # the right notion of "came back unchanged".
        renamed = ConjunctiveQuery(
            query.head_predicate, translated.head_terms, translated.body
        )
        if find_isomorphism(query, renamed) is None:
            report.mismatches.append(
                OracleMismatch(
                    "sql-roundtrip",
                    f"{label}: {sql!r} translated back as non-isomorphic "
                    f"{translated}",
                )
            )


# --------------------------------------------------------------------------- #
# Incremental resume
# --------------------------------------------------------------------------- #
def _delta_sequence(case: FuzzCase):
    """Decompose the case into a start state and a list of monotone deltas.

    The start query is the shortest head-safe body prefix; every further
    body atom becomes one atom delta.  The start Σ is the first half of the
    case's dependency set (all set-valued markers included from the start,
    so only dependencies are ever delta'd); the second half arrives one
    dependency at a time.  Returns ``None`` when the case offers no delta
    to replay.
    """
    from ..core.terms import Variable

    head_variables = set(case.query.head_variables())
    covered: set = set()
    prefix_length = 1  # a CQ body is a nonempty conjunction
    for position, atom in enumerate(case.query.body):
        covered |= {term for term in atom.terms if isinstance(term, Variable)}
        if covered >= head_variables:
            prefix_length = position + 1
            break
    atom_deltas = case.query.body[prefix_length:]

    all_dependencies = list(case.dependencies)
    split = len(all_dependencies) // 2
    base_sigma = DependencySet(
        all_dependencies[:split] if split else all_dependencies,
        case.dependencies.set_valued_predicates,
    )
    dependency_deltas = all_dependencies[split:] if split else []
    if not atom_deltas and not dependency_deltas:
        return None

    base_query = ConjunctiveQuery(
        case.query.head_predicate,
        case.query.head_terms,
        case.query.body[:prefix_length],
    )
    deltas = [ChaseDelta.atoms(atom) for atom in atom_deltas]
    deltas.extend(ChaseDelta.dependencies(dep) for dep in dependency_deltas)
    return base_query, base_sigma, deltas


def _check_incremental_resume(case: FuzzCase, report: CaseReport) -> None:
    """Resumed delta replay vs cold chase of the same accumulated state.

    Each delta step must (a) agree with a cold chase on the outcome *kind*
    (terminated / chase-failed; budget exhaustion on either side skips the
    rest of the sequence — step accounting legitimately differs between the
    two paths), (b) land on a genuine fixpoint per the trust-nothing
    :func:`~repro.chase.incremental.has_applicable_step` probe, and (c) be
    Σ-equivalent to the cold result under the step's semantics.
    """
    decomposed = _delta_sequence(case)
    if decomposed is None:
        return
    base_query, sigma, deltas = decomposed
    semantics = ALL_SEMANTICS[(case.index or 0) % len(ALL_SEMANTICS)]
    try:
        _, checkpoint = chase_with_checkpoint(
            base_query, sigma, semantics, case.max_steps
        )
    except ChaseNonTerminationError:
        report.budget_exhausted = True
        return
    except ChaseFailedError:
        return  # kind agreement on full states is covered by check 1

    for position, delta in enumerate(deltas):
        try:
            outcome = resume_chase(checkpoint, delta)
        except ChaseNonTerminationError:
            report.budget_exhausted = True
            return
        except ChaseFailedError:
            outcome = None
        if outcome is not None:
            new_sigma = outcome.checkpoint.sigma
            new_query = outcome.checkpoint.base_query
        else:
            new_query, new_sigma = apply_delta(checkpoint.base_query, checkpoint.sigma, delta)
        cold = _chase_outcome(
            sound_chase, new_query, new_sigma, semantics, case.max_steps
        )
        if cold[0] == "budget-exhausted":
            report.budget_exhausted = True
            return
        resumed_kind = "terminated" if outcome is not None else "chase-failed"
        if resumed_kind != cold[0]:
            report.mismatches.append(
                OracleMismatch(
                    f"incremental-resume[{semantics}]",
                    f"delta {position}: resumed chase {resumed_kind} but cold "
                    f"chase {cold[0]}",
                )
            )
            return
        if outcome is None:
            return  # both failed; the accumulated state is inconsistent
        if has_applicable_step(
            outcome.result.query, new_sigma, semantics, case.max_steps
        ):
            report.mismatches.append(
                OracleMismatch(
                    f"incremental-resume[{semantics}]",
                    f"delta {position}: resumed result "
                    f"{outcome.result.query} is not a fixpoint "
                    f"(resumed={outcome.resumed})",
                )
            )
            return
        if not strategies.equivalent_chased(
            outcome.result.query, cold[1].query, new_sigma, semantics
        ):
            report.mismatches.append(
                OracleMismatch(
                    f"incremental-resume[{semantics}]",
                    f"delta {position}: resumed result {outcome.result.query} "
                    f"not Σ-equivalent to cold result {cold[1].query} "
                    f"(resumed={outcome.resumed})",
                )
            )
            return
        checkpoint = outcome.checkpoint


# --------------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------------- #
def _check_static_analysis(
    case: FuzzCase, report: CaseReport, reference_outcomes: dict
) -> None:
    """Analyzer verdict agreement, certificate validity, and bound dominance."""
    from ..analysis.static import analyze

    static = analyze(case.dependencies, queries=(case.query, case.other))
    expected = is_weakly_acyclic(case.dependencies)
    if static.certified != expected:
        report.mismatches.append(
            OracleMismatch(
                "static-analysis",
                f"analyzer certified={static.certified} but "
                f"is_weakly_acyclic={expected}",
            )
        )
        return
    if static.certificate is not None:
        certificate = static.certificate
        if not certificate.verify(case.dependencies):
            report.mismatches.append(
                OracleMismatch(
                    "static-analysis", "termination certificate fails verify()"
                )
            )
            return
        for (label, semantics), outcome in reference_outcomes.items():
            kind, result = outcome
            if kind != "terminated":
                continue
            query = case.query if label == "query" else case.other
            bound = certificate.chase_depth_bound(query)
            observed_rounds = result.step_count + 1
            if observed_rounds > bound:
                report.mismatches.append(
                    OracleMismatch(
                        "static-analysis",
                        f"{label}[{semantics}]: observed {observed_rounds} "
                        f"chase rounds exceed the static depth bound {bound}",
                    )
                )
    else:
        assert static.witness is not None
        if not static.witness.verify(case.dependencies):
            report.mismatches.append(
                OracleMismatch("static-analysis", "witness cycle fails verify()")
            )


def run_oracle(
    case: FuzzCase,
    *,
    session: Session | None = None,
    precomputed_verdicts: dict[Semantics, EquivalenceVerdict] | None = None,
) -> CaseReport:
    """Run every check on *case* and return the full report.

    ``session`` (optional) lets a campaign reuse one Session — and hence one
    chase cache — across a block of cases sharing Σ; ``precomputed_verdicts``
    lets it feed in verdicts obtained through the batch pipelines.
    """
    report = CaseReport(case=case)
    reference_outcomes = _compare_chases(case, report)
    _compare_homomorphism_engines(case, report)
    _compare_applicability_probes(case, report)
    _check_verdicts(case, report, reference_outcomes, session, precomputed_verdicts)
    _check_datalog_round_trip(case, report)
    _check_sql_round_trip(case, report)
    _check_static_analysis(case, report, reference_outcomes)
    _check_incremental_resume(case, report)
    return report
