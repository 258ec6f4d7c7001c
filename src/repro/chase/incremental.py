"""Incremental chase: resumable fixpoints for instance and Σ deltas.

A cold chase run throws away everything it learned the moment it returns:
the terminal atoms, the trigger frontier (which dependencies were proven
unable to fire), the provenance of every applied step, and the labeled-null
state (which variable names the run consumed).  This module captures that
state as a :class:`ChaseCheckpoint` and *resumes* from it when the base
query gains atoms or Σ gains a dependency — seeding only the delta into the
trigger index instead of rechasing from scratch.

Soundness is semantics-dependent and the resume strategy differs
accordingly:

* **Set semantics** — every checkpointed step stays equivalence-preserving
  on the grown base: a recorded tgd step whose trigger became satisfied by
  the delta is still an *oblivious* chase step (its atoms are homomorphically
  implied), and oblivious steps preserve set equivalence under Σ.  The resume
  therefore starts directly from ``fixpoint ∪ σ(Δ)`` — the checkpointed
  fixpoint plus the delta atoms rewritten by the run's composed egd
  substitution — with the trigger frontier seeded from the checkpoint and
  dirtied only for the delta's predicates.  No step is re-examined.
  The continuation ends in a terminal state Σ-equivalent to the cold chase
  of the new base (terminal chase results of set-equivalent inputs are
  homomorphically equivalent), though not in general *syntactically* equal
  to it: restricted-chase applicability is non-monotone, so a resumed run
  may carry an atom a cold run never generates.

* **Bag / bag-set semantics** — Definition 4.3's assignment-fixing verdict
  is taken against the *whole current query* and is non-monotone: a step
  that was sound against the old base may be unsound against the grown one.
  The resume therefore **replay-validates** the checkpointed provenance in
  order against states rebuilt with the delta present: egd records re-apply
  their recorded substitution (always sound — Theorems 4.1/4.3 item 2); tgd
  records re-check that the recorded trigger is still applicable and still
  assignment-fixing under the new Σ.  Any flip aborts to a cold run.  A
  successful replay *is* a sound-chase prefix of the new base, so by the
  uniqueness theorems (5.1 / G.1) the continuation's terminal result is
  bag-equivalent to the cold one.

Both strategies build only a start state — the seeded query, the carried
records and the trigger frontier — and then run the one chase loop of
:mod:`repro.chase.set_chase` with the semantics' tgd-step policy, exactly
as a cold run does.

Non-monotone edits — removing an atom or a dependency — always fall back to
a cold run, as does a delta whose atoms reuse a variable name the
checkpointed run generated (the name would silently alias a labeled null).
Every fallback is reported with a stable ``fallback_reason`` slug in the
:class:`ResumeOutcome`, and the cold run itself produces a fresh checkpoint,
so a fallback never breaks the resume chain.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Hashable, Iterable, Mapping, Sequence

import time

from ..core.atoms import Atom
from ..core.homomorphism import TargetIndex
from ..core.query import ConjunctiveQuery
from ..core.terms import Constant, Term, Variable
from ..dependencies.base import EGD, TGD, Dependency, DependencySet
from ..exceptions import ChaseError, DeltaRejectedError, QueryError
from ..semantics import Semantics
from .assignment_fixing import is_assignment_fixing_for
from .delta import ChaseCapture, TriggerIndex
from .plans import PlanCache, SigmaPlans, default_plan_cache
from .profile import ChaseProfile, snapshot_core_stats
from .set_chase import (
    DEFAULT_MAX_STEPS,
    ChaseResult,
    _drive_chase,
    _first_applicable_egd_step,
)
from .sound_chase import dedup_predicates, sound_chase, tgd_step_policy
from .steps import (
    ChaseStepRecord,
    deduplicate_body,
    is_recorded_trigger_applicable,
)

__all__ = [
    "ChaseCheckpoint",
    "ChaseDelta",
    "ResumableChase",
    "ResumeOutcome",
    "apply_delta_to_query",
    "apply_delta_to_sigma",
    "chase_with_checkpoint",
    "has_applicable_step",
    "resume_chase",
    "sigma_extension_suffix",
    "validate_delta",
]


# ---------------------------------------------------------------------- #
# Deltas
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ChaseDelta:
    """One edit to a chase input: atoms for the base query, dependencies for Σ.

    Additions are the monotone, resumable direction; removals force a cold
    fallback but are accepted so callers can express the full edit in one
    delta.  ``set_valued`` lists extra set-valued markers accompanying added
    dependencies (markers may only grow through a delta — shrinking them
    would invalidate checkpointed bag-soundness verdicts, so there is no
    removal field for them).
    """

    added_atoms: tuple[Atom, ...] = ()
    added_dependencies: tuple[Dependency, ...] = ()
    removed_atoms: tuple[Atom, ...] = ()
    removed_dependencies: tuple[Dependency, ...] = ()
    set_valued: frozenset[str] = frozenset()

    @property
    def is_empty(self) -> bool:
        return not (
            self.added_atoms
            or self.added_dependencies
            or self.removed_atoms
            or self.removed_dependencies
            or self.set_valued
        )

    @property
    def is_monotone(self) -> bool:
        """Only additions: the delta is eligible for a resumed run."""
        return not (self.removed_atoms or self.removed_dependencies)

    @classmethod
    def atoms(cls, *atoms: Atom) -> "ChaseDelta":
        return cls(added_atoms=tuple(atoms))

    @classmethod
    def dependencies(
        cls, *dependencies: Dependency, set_valued: Iterable[str] = ()
    ) -> "ChaseDelta":
        return cls(
            added_dependencies=tuple(dependencies), set_valued=frozenset(set_valued)
        )


def _dependency_key(dependency: Dependency) -> Hashable:
    """Structural identity of a dependency (names and object identity ignored)."""
    if isinstance(dependency, TGD):
        return ("tgd", dependency.premise, dependency.conclusion)
    if isinstance(dependency, EGD):
        return ("egd", dependency.premise, dependency.equalities)
    raise ChaseError(f"unsupported dependency {dependency!r}")


def _known_arities(
    query: ConjunctiveQuery, sigma: DependencySet
) -> dict[str, int]:
    arities: dict[str, int] = {}
    for atom in query.body:
        arities.setdefault(atom.predicate, atom.arity)
    for dependency in sigma:
        atoms: Iterable[Atom] = dependency.premise
        if isinstance(dependency, TGD):
            atoms = list(dependency.premise) + list(dependency.conclusion)
        for atom in atoms:
            arities.setdefault(atom.predicate, atom.arity)
    return arities


def validate_delta(
    query: ConjunctiveQuery, sigma: DependencySet, delta: ChaseDelta
) -> None:
    """Reject structurally invalid deltas before any state is touched.

    Raises :class:`DeltaRejectedError` with a stable ``reason`` slug:
    ``empty-delta``, ``unknown-atom`` (removing an atom the base query does
    not contain, counting multiplicity), ``unknown-dependency`` (removing a
    dependency Σ does not contain), or ``arity-conflict`` (an added atom or
    dependency disagrees with a predicate's known arity).
    """
    if delta.is_empty:
        raise DeltaRejectedError("the delta is empty", reason="empty-delta")
    if delta.removed_atoms:
        available = Counter(query.body)
        for atom in delta.removed_atoms:
            if available[atom] <= 0:
                raise DeltaRejectedError(
                    f"cannot remove {atom}: not in the base query body",
                    reason="unknown-atom",
                )
            available[atom] -= 1
    if delta.removed_dependencies:
        available_deps = Counter(_dependency_key(d) for d in sigma)
        for dependency in delta.removed_dependencies:
            key = _dependency_key(dependency)
            if available_deps[key] <= 0:
                raise DeltaRejectedError(
                    f"cannot remove dependency {dependency}: not in Σ",
                    reason="unknown-dependency",
                )
            available_deps[key] -= 1
    arities = _known_arities(query, sigma)
    new_atoms: list[Atom] = list(delta.added_atoms)
    for dependency in delta.added_dependencies:
        new_atoms.extend(dependency.premise)
        if isinstance(dependency, TGD):
            new_atoms.extend(dependency.conclusion)
    for atom in new_atoms:
        known = arities.setdefault(atom.predicate, atom.arity)
        if known != atom.arity:
            raise DeltaRejectedError(
                f"atom {atom} has arity {atom.arity} but predicate "
                f"{atom.predicate!r} is used with arity {known}",
                reason="arity-conflict",
            )


def apply_delta_to_query(
    query: ConjunctiveQuery, delta: ChaseDelta
) -> ConjunctiveQuery:
    """The base query after the delta: removals first, additions appended."""
    body = list(query.body)
    for atom in delta.removed_atoms:
        try:
            body.remove(atom)
        except ValueError:
            raise DeltaRejectedError(
                f"cannot remove {atom}: not in the base query body",
                reason="unknown-atom",
            ) from None
    body.extend(delta.added_atoms)
    try:
        return query.with_body(body)
    except QueryError as exc:
        raise DeltaRejectedError(
            f"delta leaves the query malformed: {exc}", reason="unsafe-removal"
        ) from exc


def sigma_extension_suffix(
    old: DependencySet, new: DependencySet
) -> tuple[tuple[Dependency, ...], frozenset[str]] | None:
    """If *new* extends *old*, the dependency suffix and new markers to add.

    *new* extends *old* when old's dependencies are a structural prefix of
    new's (in order) and old's set-valued markers a subset of new's.  The
    Session uses this to catch up a checkpoint taken under an earlier Σ:
    folding the returned suffix into a delta's added dependencies makes the
    checkpoint resumable against the current session state.  Returns ``None``
    when *new* is not an extension (the checkpoint can only be used cold).
    """
    old_deps = list(old.dependencies)
    new_deps = list(new.dependencies)
    if len(old_deps) > len(new_deps):
        return None
    for previous, current in zip(old_deps, new_deps):
        if _dependency_key(previous) != _dependency_key(current):
            return None
    if not old.set_valued_predicates <= new.set_valued_predicates:
        return None
    return (
        tuple(new_deps[len(old_deps):]),
        new.set_valued_predicates - old.set_valued_predicates,
    )


def apply_delta_to_sigma(sigma: DependencySet, delta: ChaseDelta) -> DependencySet:
    """Σ after the delta: removals first, additions appended, markers grown."""
    remaining = list(sigma.dependencies)
    for dependency in delta.removed_dependencies:
        key = _dependency_key(dependency)
        for position, existing in enumerate(remaining):
            if _dependency_key(existing) == key:
                del remaining[position]
                break
        else:
            raise DeltaRejectedError(
                f"cannot remove dependency {dependency}: not in Σ",
                reason="unknown-dependency",
            )
    remaining.extend(delta.added_dependencies)
    return DependencySet(
        remaining, sigma.set_valued_predicates | delta.set_valued
    )


# ---------------------------------------------------------------------- #
# Checkpoints
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ChaseCheckpoint:
    """Everything a terminated chase run needs to be resumed.

    ``base_query`` is the *un-chased* input; ``result`` its terminal
    :class:`ChaseResult` (fixpoint atoms plus fired-step provenance);
    ``sigma`` the dependency set the run was chased under (frozen copy);
    ``used_names`` every variable name the run ever produced — the labeled
    null state, so continuation steps never reuse an eliminated name; and
    ``egd_clean`` / ``tgd_clean`` the terminal trigger frontier over the
    *regularized* Σ (growth-stable "cannot fire" verdicts, see
    :mod:`repro.chase.delta`).
    """

    base_query: ConjunctiveQuery
    result: ChaseResult
    sigma: DependencySet
    semantics: Semantics
    max_steps: int
    used_names: frozenset[str]
    egd_clean: tuple[bool, ...]
    tgd_clean: tuple[bool, ...]

    @classmethod
    def of(
        cls,
        base: ConjunctiveQuery,
        result: ChaseResult,
        sigma: DependencySet,
        max_steps: int,
        capture: ChaseCapture,
    ) -> "ChaseCheckpoint":
        """The checkpoint of *result*, the terminated run of *base* under *sigma*.

        *capture* is the run's filled capture slot: its used-name set and
        terminal trigger frontier.
        """
        return cls(
            base_query=base,
            result=result,
            sigma=sigma,
            semantics=result.semantics,
            max_steps=max_steps,
            used_names=capture.used_names,
            egd_clean=capture.egd_clean,
            tgd_clean=capture.tgd_clean,
        )

    def composed_substitution(self) -> dict[Term, Term]:
        """The run's egd substitutions, composed into one mapping.

        Applying this to an atom of the base query yields the atom as it
        appears in the fixpoint; a delta atom that mentions a base variable
        the run later eliminated must be rewritten through it before being
        seeded into a resumed state.
        """
        composed: dict[Term, Term] = {}
        for record in self.result.steps:
            if record.kind != "egd":
                continue
            step = record.substitution
            for variable, image in composed.items():
                composed[variable] = step.get(image, image)
            for variable, image in step.items():
                composed.setdefault(variable, image)
        return composed

    def chase_generated_names(self) -> frozenset[str]:
        """Names invented by the run (labeled nulls): unusable in deltas."""
        return self.used_names - self.base_query.variable_names()

    # ------------------------------------------------------------------ #
    # Serialization.  Step provenance references the *regularized* items of
    # Σ by position; regularization is deterministic, so the positions are
    # stable across a render/parse round trip of the original Σ.
    # ------------------------------------------------------------------ #
    def as_dict(self) -> dict[str, Any]:
        from ..datalog import render_dependency, render_query

        from ..dependencies.regularize import regularize_dependencies

        items = regularize_dependencies(self.sigma.dependencies)
        positions = {id(item): position for position, item in enumerate(items)}
        item_keys = {
            _dependency_key(item): position for position, item in enumerate(items)
        }

        def dependency_position(dependency: Dependency) -> int:
            position = positions.get(id(dependency))
            if position is None:
                position = item_keys.get(_dependency_key(dependency))
            if position is None:
                raise ChaseError(
                    f"checkpoint step references {dependency}, which is not "
                    "part of the regularized Σ"
                )
            return position

        return {
            "version": 1,
            "base_query": render_query(self.base_query),
            "fixpoint": render_query(self.result.query),
            "semantics": self.semantics.value,
            "max_steps": self.max_steps,
            "used_names": sorted(self.used_names),
            "egd_clean": list(self.egd_clean),
            "tgd_clean": list(self.tgd_clean),
            "sigma": {
                "dependencies": [
                    {"text": render_dependency(d), "name": d.name} for d in self.sigma
                ],
                "set_valued": sorted(self.sigma.set_valued_predicates),
            },
            "steps": [
                {
                    "kind": record.kind,
                    "dependency": dependency_position(record.dependency),
                    "homomorphism": _mapping_to_list(record.homomorphism),
                    "added_atoms": [_atom_to_dict(a) for a in record.added_atoms],
                    "substitution": _mapping_to_list(record.substitution),
                }
                for record in self.result.steps
            ],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ChaseCheckpoint":
        from ..datalog import parse_dependency, parse_query

        from ..dependencies.regularize import regularize_dependencies

        dependencies: list[Dependency] = []
        for entry in payload["sigma"]["dependencies"]:
            parsed = parse_dependency(entry["text"], name=entry.get("name", ""))
            if len(parsed) != 1:
                raise ChaseError(
                    f"checkpoint dependency {entry['text']!r} did not round-trip "
                    "to a single dependency"
                )
            dependencies.append(parsed[0])
        sigma = DependencySet(dependencies, payload["sigma"]["set_valued"])
        items = regularize_dependencies(sigma.dependencies)
        steps = []
        for entry in payload["steps"]:
            position = entry["dependency"]
            if not 0 <= position < len(items):
                raise ChaseError(
                    f"checkpoint step references dependency {position}, but the "
                    f"regularized Σ has {len(items)} items"
                )
            steps.append(
                ChaseStepRecord(
                    dependency=items[position],
                    homomorphism=_mapping_from_list(entry["homomorphism"]),
                    kind=entry["kind"],
                    added_atoms=tuple(
                        _atom_from_dict(a) for a in entry["added_atoms"]
                    ),
                    substitution=_mapping_from_list(entry["substitution"]),
                )
            )
        semantics = Semantics.from_name(payload["semantics"])
        result = ChaseResult(
            query=parse_query(payload["fixpoint"]),
            steps=steps,
            semantics=semantics,
            terminated=True,
            profile=None,
        )
        return cls(
            base_query=parse_query(payload["base_query"]),
            result=result,
            sigma=sigma,
            semantics=semantics,
            max_steps=int(payload["max_steps"]),
            used_names=frozenset(payload["used_names"]),
            egd_clean=tuple(bool(b) for b in payload["egd_clean"]),
            tgd_clean=tuple(bool(b) for b in payload["tgd_clean"]),
        )


def _term_to_dict(term: Term) -> dict[str, Any]:
    if isinstance(term, Variable):
        return {"var": term.name}
    if isinstance(term, Constant):
        return {"const": term.value}
    raise ChaseError(f"unsupported term {term!r}")


def _term_from_dict(payload: Mapping[str, Any]) -> Term:
    if "var" in payload:
        return Variable(payload["var"])
    return Constant(payload["const"])


def _atom_to_dict(atom: Atom) -> dict[str, Any]:
    return {"p": atom.predicate, "t": [_term_to_dict(t) for t in atom.terms]}


def _atom_from_dict(payload: Mapping[str, Any]) -> Atom:
    return Atom(payload["p"], [_term_from_dict(t) for t in payload["t"]])


def _mapping_to_list(mapping: Mapping[Term, Term]) -> list[list[dict[str, Any]]]:
    return [[_term_to_dict(k), _term_to_dict(v)] for k, v in mapping.items()]


def _mapping_from_list(payload: Iterable[Sequence[Mapping[str, Any]]]) -> dict[Term, Term]:
    return {_term_from_dict(k): _term_from_dict(v) for k, v in payload}


# ---------------------------------------------------------------------- #
# Outcomes
# ---------------------------------------------------------------------- #
@dataclass
class ResumeOutcome:
    """What one delta application did: the result, the new checkpoint, and
    how much work the resume avoided.

    ``replayed_steps`` counts checkpointed steps carried into the new run
    without a trigger search (under bag semantics each was re-validated
    against the grown state; under set semantics they are reused outright);
    ``new_steps`` counts steps the continuation actually searched for and
    applied.  ``fallback_reason`` is ``None`` on a resumed run and a stable
    slug (``"non-monotone-delta"``, ``"name-collision"``,
    ``"replay-trigger-invalid"``, ``"replay-not-assignment-fixing"``, ...)
    when the run fell back cold.
    """

    result: ChaseResult
    checkpoint: "ChaseCheckpoint | None"
    resumed: bool
    fallback_reason: str | None
    replayed_steps: int
    new_steps: int

    @property
    def steps_saved(self) -> int:
        """Checkpointed steps the resume did not have to re-derive by search."""
        return self.replayed_steps


class _ResumeAbandoned(Exception):
    """Internal: the resume path proved itself inapplicable; go cold."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


# ---------------------------------------------------------------------- #
# Cold runs with capture
# ---------------------------------------------------------------------- #
def chase_with_checkpoint(
    query: ConjunctiveQuery,
    dependencies: DependencySet | Sequence[Dependency],
    semantics: Semantics | str = Semantics.SET,
    max_steps: int = DEFAULT_MAX_STEPS,
    *,
    plan_cache: PlanCache | None = None,
) -> tuple[ChaseResult, ChaseCheckpoint]:
    """A cold sound chase that also captures a resumable checkpoint.

    Raises exactly what :func:`~repro.chase.sound_chase.sound_chase` raises;
    a checkpoint exists only for terminated runs.
    """
    semantics = Semantics.from_name(semantics)
    sigma = DependencySet.coerce(dependencies)
    # Freeze Σ: DependencySet is mutable and the checkpoint must not drift
    # under a caller's later add().
    frozen = DependencySet(list(sigma.dependencies), sigma.set_valued_predicates)
    capture = ChaseCapture()
    result = sound_chase(
        query, frozen, semantics, max_steps, plan_cache=plan_cache, capture=capture
    )
    return result, ChaseCheckpoint.of(query, result, frozen, max_steps, capture)


def has_applicable_step(
    query: ConjunctiveQuery,
    dependencies: DependencySet | Sequence[Dependency],
    semantics: Semantics | str = Semantics.SET,
    max_steps: int = DEFAULT_MAX_STEPS,
    *,
    plan_cache: PlanCache | None = None,
) -> bool:
    """Does *query* admit any (sound) chase step under *semantics*?

    A direct, trust-nothing fixpoint probe: one full scan with an all-dirty
    trigger index, through the chase loop's own egd scan and the semantics'
    tgd-step policy.  The fuzz oracle and the tests use it to assert that a
    resumed run's terminal state is a genuine fixpoint rather than an
    artifact of wrongly-seeded clean bits.
    """
    semantics = Semantics.from_name(semantics)
    sigma = DependencySet.coerce(dependencies)
    cache = plan_cache if plan_cache is not None else default_plan_cache()
    plans = cache.plans_for(sigma)
    profile = ChaseProfile(semantics=str(semantics))
    index = TargetIndex(query.body)
    egd_state = TriggerIndex.from_trigger_map(len(plans.egds), plans.egd_trigger_map)
    if _first_applicable_egd_step(query, plans.egd_plans, index, egd_state, profile) is not None:
        return True
    tgd_state = TriggerIndex.from_trigger_map(len(plans.tgds), plans.tgd_trigger_map)
    tgd_step = tgd_step_policy(
        query, plans, semantics, sigma.set_valued_predicates, max_steps, cache
    )
    return tgd_step(query, index, tgd_state, profile) is not None


# ---------------------------------------------------------------------- #
# Resume
# ---------------------------------------------------------------------- #
def _check_sigma_extends(old_plans: SigmaPlans, new_plans: SigmaPlans) -> None:
    """The checkpointed regularized Σ must be a prefix of the new one.

    Regularization is per-dependency and order-preserving, and deltas only
    append, so this holds by construction; the check guards against callers
    that hand-build a reordered Σ, where seeded clean bits and positional
    provenance would silently misattribute verdicts.
    """
    for kind, old_items, new_items in (
        ("egd", old_plans.egds, new_plans.egds),
        ("tgd", old_plans.tgds, new_plans.tgds),
    ):
        if len(old_items) > len(new_items):
            raise _ResumeAbandoned("sigma-not-extended")
        for old, new in zip(old_items, new_items):
            if _dependency_key(old) != _dependency_key(new):
                raise _ResumeAbandoned(f"sigma-reordered-{kind}")


def _replay(
    checkpoint: ChaseCheckpoint,
    new_base: ConjunctiveQuery,
    plans: SigmaPlans,
    set_valued: frozenset[str],
    max_steps: int,
    cache: PlanCache,
    memo: dict[Hashable, bool],
    profile: ChaseProfile,
) -> tuple[ConjunctiveQuery, list[ChaseStepRecord]]:
    """The start state of a bag or bag-set resume: the records, replayed on *new_base*.

    Replay-validates the checkpointed provenance in order against states
    that include the delta.  Theorems 4.1/4.3: egd steps are always sound;
    tgd steps must still be applicable (non-satisfied) triggers and still
    assignment-fixing against the grown state and Σ, or the resume is
    abandoned.  The Definition 4.3 re-checks share the run's *memo* and
    count on its *profile*.  One body index serves the replay: tgd records
    grow it, egd records (which rewrite terms) drop it, and the next tgd
    record rebuilds it.
    """
    semantics = checkpoint.semantics
    items_sigma = plans.dependency_set()
    dedup = dedup_predicates(semantics, set_valued)
    tgd_positions = {
        _dependency_key(tgd): position for position, tgd in enumerate(plans.tgds)
    }
    current = new_base
    records: list[ChaseStepRecord] = []
    index: TargetIndex | None = None
    for record in checkpoint.result.steps:
        if record.kind == "egd":
            body = set(current.body)
            if any(
                atom.substitute(record.homomorphism) not in body
                for atom in record.dependency.premise
            ):
                raise _ResumeAbandoned("replay-premise-lost")
            current = current.substitute(record.substitution)
            current = deduplicate_body(current, dedup)
            records.append(record)
            index = None
            continue
        tgd = record.dependency
        assert isinstance(tgd, TGD)
        if semantics is Semantics.BAG and not all(
            atom.predicate in set_valued for atom in tgd.conclusion
        ):
            raise _ResumeAbandoned("replay-set-valued-lost")
        position = tgd_positions.get(_dependency_key(tgd))
        if position is None:
            raise _ResumeAbandoned("replay-dependency-lost")
        if index is None:
            index = TargetIndex(current.body)
        if not is_recorded_trigger_applicable(
            current, tgd, record.homomorphism,
            index=index, plan=plans.tgd_plans[position],
        ):
            raise _ResumeAbandoned("replay-trigger-invalid")
        if not is_assignment_fixing_for(
            current, tgd, record.homomorphism, items_sigma, max_steps,
            memo=memo, profile=profile, plan_cache=cache,
        ):
            raise _ResumeAbandoned("replay-not-assignment-fixing")
        current = current.add_atoms(record.added_atoms)
        index.extend(record.added_atoms)
        records.append(record)
    return current, records


def _resume(
    checkpoint: ChaseCheckpoint,
    delta: ChaseDelta,
    new_base: ConjunctiveQuery,
    new_sigma: DependencySet,
    max_steps: int,
    cache: PlanCache,
) -> ResumeOutcome:
    """Run the chase loop on from *checkpoint* with *delta* applied.

    Only the start state depends on the semantics.  A set run starts from
    ``fixpoint ∪ σ(Δ)`` and keeps every checkpointed record; a bag or
    bag-set run replay-validates the records on the new base
    (:func:`_replay`).  Either way the trigger frontier is seeded from the
    checkpoint and dirtied for the delta's predicates, and the loop runs
    with the semantics' tgd-step policy, which shares the replay's
    Definition 4.3 memo.
    """
    semantics = checkpoint.semantics
    set_valued = new_sigma.set_valued_predicates
    plan_stats = cache.snapshot()
    old_plans = cache.plans_for(checkpoint.sigma)
    plans = cache.plans_for(new_sigma)
    _check_sigma_extends(old_plans, plans)

    profile = ChaseProfile(semantics=str(semantics))
    started = time.perf_counter()
    core_stats = snapshot_core_stats()
    memo: dict[Hashable, bool] = {}
    added: Sequence[Atom] = delta.added_atoms
    if semantics is Semantics.SET:
        # The delta atoms, rewritten by the run's composed egd substitution.
        # An exact duplicate adds nothing under set semantics; skipping it
        # keeps the resumed body close to what a cold run would build.
        substitution = checkpoint.composed_substitution()
        fixpoint = checkpoint.result.query
        body = set(fixpoint.body)
        seeded = (atom.substitute(substitution) for atom in delta.added_atoms)
        added = [atom for atom in seeded if atom not in body]
        current = fixpoint.add_atoms(added)
        records = list(checkpoint.result.steps)
    else:
        current, records = _replay(
            checkpoint, new_base, plans, set_valued, max_steps, cache, memo, profile
        )
    replayed = len(records)
    used_names = set(checkpoint.used_names)
    used_names.update(current.variable_names())
    egd_state = TriggerIndex.from_snapshot(
        len(plans.egds), plans.egd_trigger_map, checkpoint.egd_clean
    )
    tgd_state = TriggerIndex.from_snapshot(
        len(plans.tgds), plans.tgd_trigger_map, checkpoint.tgd_clean
    )
    added_predicates = {atom.predicate for atom in added}
    egd_state.note_added(added_predicates)
    tgd_state.note_added(added_predicates)

    tgd_step = tgd_step_policy(current, plans, semantics, set_valued, max_steps, cache, memo)
    terminal = _drive_chase(
        current, plans, tgd_step, dedup_predicates(semantics, set_valued),
        egd_state, tgd_state, used_names, records, profile, max_steps,
    )
    profile.record_core_stats(core_stats)
    profile.record_plan_stats(plan_stats, cache)
    profile.wall_time = time.perf_counter() - started
    capture = ChaseCapture()
    capture.record(egd_state, tgd_state, used_names)
    result = ChaseResult(terminal, records, semantics, terminated=True, profile=profile)
    return ResumeOutcome(
        result=result,
        checkpoint=ChaseCheckpoint.of(new_base, result, new_sigma, max_steps, capture),
        resumed=True,
        fallback_reason=None,
        replayed_steps=replayed,
        new_steps=len(records) - replayed,
    )


def resume_chase(
    checkpoint: ChaseCheckpoint,
    delta: ChaseDelta,
    *,
    max_steps: int | None = None,
    plan_cache: PlanCache | None = None,
) -> ResumeOutcome:
    """Apply *delta* to a checkpointed fixpoint, resuming where possible.

    Monotone deltas (additions only, no labeled-null name collisions) resume
    from the checkpoint; anything else falls back to a cold run of the new
    state, reported via ``fallback_reason``.  Either way the outcome carries
    a fresh checkpoint for the new state, so deltas chain indefinitely.

    Raises :class:`DeltaRejectedError` for structurally invalid deltas (no
    state exists for them at all), and propagates
    :class:`~repro.chase.steps.ChaseFailedError` /
    :class:`~repro.exceptions.ChaseNonTerminationError` exactly like a cold
    chase of the new state would.

    ``max_steps`` overrides the continuation budget (default: the
    checkpoint's); the budget counts continuation rounds only — replayed
    steps are free.
    """
    validate_delta(checkpoint.base_query, checkpoint.sigma, delta)
    new_base = apply_delta_to_query(checkpoint.base_query, delta)
    new_sigma = apply_delta_to_sigma(checkpoint.sigma, delta)
    budget = checkpoint.max_steps if max_steps is None else max_steps
    cache = plan_cache if plan_cache is not None else default_plan_cache()

    def cold(reason: str) -> ResumeOutcome:
        result, new_checkpoint = chase_with_checkpoint(
            new_base, new_sigma, checkpoint.semantics, budget, plan_cache=cache
        )
        return ResumeOutcome(
            result=result,
            checkpoint=new_checkpoint,
            resumed=False,
            fallback_reason=reason,
            replayed_steps=0,
            new_steps=result.step_count,
        )

    if not delta.is_monotone:
        return cold("non-monotone-delta")
    if not checkpoint.result.terminated:
        return cold("checkpoint-not-terminal")
    delta_names = {
        v.name for atom in delta.added_atoms for v in atom.variables()
    }
    if delta_names & checkpoint.chase_generated_names():
        return cold("name-collision")

    try:
        return _resume(checkpoint, delta, new_base, new_sigma, budget, cache)
    except _ResumeAbandoned as abandoned:
        return cold(abandoned.reason)


# ---------------------------------------------------------------------- #
# Stateful wrapper
# ---------------------------------------------------------------------- #
class ResumableChase:
    """A chase fixpoint maintained under a stream of deltas.

    Wraps :func:`chase_with_checkpoint` / :func:`resume_chase` with the
    obvious state machine: ``run()`` performs (or returns) the cold run,
    ``apply(delta)`` advances the base/Σ and resumes.  ``stats()`` reports
    resumed-vs-cold counts and the steps the resumes saved — the same
    numbers ``Session.stats()`` aggregates across queries.
    """

    def __init__(
        self,
        query: ConjunctiveQuery,
        dependencies: DependencySet | Sequence[Dependency] = (),
        semantics: Semantics | str = Semantics.SET,
        max_steps: int = DEFAULT_MAX_STEPS,
        *,
        plan_cache: PlanCache | None = None,
    ):
        self._query = query
        self._sigma = DependencySet.coerce(dependencies)
        self._semantics = Semantics.from_name(semantics)
        self._max_steps = max_steps
        self._plan_cache = plan_cache if plan_cache is not None else default_plan_cache()
        self._checkpoint: ChaseCheckpoint | None = None
        self._result: ChaseResult | None = None
        self._counters = {
            "deltas_applied": 0,
            "resumed_runs": 0,
            "cold_runs": 0,
            "steps_replayed": 0,
            "steps_executed": 0,
        }

    @property
    def query(self) -> ConjunctiveQuery:
        """The current (delta-accumulated) base query."""
        return self._query

    @property
    def dependencies(self) -> DependencySet:
        """The current (delta-accumulated) Σ."""
        return self._sigma

    @property
    def checkpoint(self) -> ChaseCheckpoint | None:
        return self._checkpoint

    def run(self) -> ChaseResult:
        """The chase result for the current state (cold on first call)."""
        if self._result is None:
            self._result, self._checkpoint = chase_with_checkpoint(
                self._query,
                self._sigma,
                self._semantics,
                self._max_steps,
                plan_cache=self._plan_cache,
            )
            self._counters["cold_runs"] += 1
            self._counters["steps_executed"] += self._result.step_count
        return self._result

    def apply(self, delta: ChaseDelta) -> ResumeOutcome:
        """Apply *delta* and return the (resumed or cold) outcome."""
        self.run()
        assert self._checkpoint is not None
        outcome = resume_chase(
            self._checkpoint, delta, plan_cache=self._plan_cache
        )
        self._counters["deltas_applied"] += 1
        if outcome.resumed:
            self._counters["resumed_runs"] += 1
        else:
            self._counters["cold_runs"] += 1
        self._counters["steps_replayed"] += outcome.replayed_steps
        self._counters["steps_executed"] += outcome.new_steps
        self._checkpoint = outcome.checkpoint
        self._result = outcome.result
        if outcome.checkpoint is not None:
            self._query = outcome.checkpoint.base_query
            self._sigma = outcome.checkpoint.sigma
        return outcome

    def stats(self) -> dict[str, int]:
        return dict(self._counters)
