"""Differential campaign: the binding-level chase kernel vs the frozen path.

The binding-level extension probe (:func:`repro.core.homomorphism.
has_match_from_binding` + :func:`repro.chase.steps.
iter_applicable_tgd_bindings`) replaced the ``find_match(..., fixed=hom)``
idiom on the tgd-applicability hot path, and the sigma-subset scans now share
one compiled-plan set per Σ through the :class:`~repro.chase.plans.
PlanCache`.  Everything the chase produces must stay *byte-identical* to the
frozen reference engines (:mod:`repro.core.reference` /
:mod:`repro.chase.reference`): the applicable-trigger enumeration — same
dicts, same key order, same trigger order — and the chase step records.

Three layers of evidence:

* a seeded ≥300-case campaign over the fuzz generator's queries and Σ,
  comparing the applicable-trigger streams dependency by dependency (raw
  and regularized) and the full chase step records per semantics;
* a replay of the committed regression corpus through the same probe-level
  comparison (the corpus cases are the shapes that broke something once);
* pinned :class:`~repro.chase.profile.ChaseProfile` counters on the paper's
  Example 4.1 / Theorem 4.2 fixtures — the binding-level layer must not just
  agree, it must actually *run* (extension probes > 0, dicts avoided where
  the conclusion extends, plan-cache hits across a sigma-subset scan).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.chase.reference import (
    _iter_applicable_egd_homomorphisms as reference_egd_triggers,
    _iter_applicable_tgd_homomorphisms as reference_tgd_triggers,
    sound_chase_reference,
)
from repro.chase.sigma_subset import max_bag_sigma_subset
from repro.chase.sound_chase import sound_chase
from repro.chase.steps import (
    ChaseFailedError,
    iter_applicable_egd_homomorphisms,
    iter_applicable_tgd_homomorphisms,
)
from repro.dependencies.base import EGD, TGD
from repro.dependencies.regularize import regularize_dependencies
from repro.exceptions import ChaseNonTerminationError
from repro.fuzz import load_corpus_file
from repro.fuzz.corpus import iter_corpus_paths
from repro.fuzz.generator import generate_case
from repro.semantics import Semantics

CASES = 300
SEED = 0xB1ED
CORPUS_PATHS = list(iter_corpus_paths(Path(__file__).parent / "corpus"))
#: One semantics per campaign case, rotated so every third case exercises
#: each chase flavour (the probe-level comparison is semantics-free).
ROTATION = (Semantics.BAG, Semantics.BAG_SET, Semantics.SET)


def _trigger_stream(query, dependencies):
    """Applicable-trigger stream of the binding-level engine, order-pinned.

    Dicts compare equal regardless of insertion order, so the stream records
    ``list(hom.items())`` — any reordering of the keys (the dict is built
    from the kernel's binding trail) breaks byte-identity with the reference
    enumeration even when the mappings agree as sets.
    """
    stream = []
    for dependency in dependencies:
        if isinstance(dependency, TGD):
            for hom in iter_applicable_tgd_homomorphisms(query, dependency):
                stream.append((dependency.name, list(hom.items())))
        elif isinstance(dependency, EGD):
            for hom, left, right in iter_applicable_egd_homomorphisms(
                query, dependency
            ):
                stream.append((dependency.name, list(hom.items()), left, right))
    return stream


def _reference_trigger_stream(query, dependencies):
    """The same stream from the frozen pre-kernel backtracking engine."""
    stream = []
    for dependency in dependencies:
        if isinstance(dependency, TGD):
            for hom in reference_tgd_triggers(query, dependency):
                stream.append((dependency.name, list(hom.items())))
        elif isinstance(dependency, EGD):
            for hom, left, right in reference_egd_triggers(query, dependency):
                stream.append((dependency.name, list(hom.items()), left, right))
    return stream


def _assert_probes_identical(query, dependencies, label):
    """Probe every dependency (raw and regularized) through both engines."""
    raw = list(dependencies)
    assert _trigger_stream(query, raw) == _reference_trigger_stream(query, raw), (
        f"{label}: applicable-trigger streams diverge on raw Σ"
    )
    regularized = regularize_dependencies(raw)
    assert _trigger_stream(query, regularized) == _reference_trigger_stream(
        query, regularized
    ), f"{label}: applicable-trigger streams diverge on regularized Σ"


def _chase_outcome(chase_fn, query, dependencies, semantics, max_steps):
    try:
        result = chase_fn(query, dependencies, semantics, max_steps)
    except ChaseNonTerminationError:
        return "budget-exhausted"
    except ChaseFailedError:
        return "chase-failed"
    return [str(step) for step in result.steps] + [str(result.query)]


@pytest.mark.parametrize("index", range(CASES))
def test_campaign_case_binding_probe_matches_reference(index):
    """Seeded campaign: trigger streams and step records, case by case."""
    case = generate_case(SEED, index)
    for label, query in (("query", case.query), ("other", case.other)):
        _assert_probes_identical(query, case.dependencies, f"case {index}/{label}")
    semantics = ROTATION[index % len(ROTATION)]
    fast = _chase_outcome(
        sound_chase, case.query, case.dependencies, semantics, case.max_steps
    )
    slow = _chase_outcome(
        sound_chase_reference, case.query, case.dependencies, semantics, case.max_steps
    )
    assert fast == slow, (
        f"case {index}: {semantics} chase records diverge from the reference"
    )


@pytest.mark.parametrize(
    "path", CORPUS_PATHS, ids=[path.stem for path in CORPUS_PATHS]
)
def test_corpus_case_replays_through_binding_probe(path):
    """Every committed corpus shape replays clean through the new probe."""
    entry = load_corpus_file(path)
    case = entry.case
    for label, query in (("query", case.query), ("other", case.other)):
        _assert_probes_identical(query, case.dependencies, f"{entry.name}/{label}")


class TestFixtureCounters:
    """The new ChaseProfile counters on the paper fixtures (pinned values)."""

    def test_example_4_1_sigma_subset_scan_counters(self, ex41):
        result = max_bag_sigma_subset(ex41.q4, ex41.dependencies)
        assert sorted(d.name for d in result.removed) == ["sigma3", "sigma4"]
        profile = result.scan_profile
        assert profile is not None
        # Structural counts — independent of plan-cache warmth: the scan
        # probes five premise matches at the binding level and discharges
        # three of them (their conclusions extend) without a trigger dict.
        assert profile.extension_probes == 5
        assert profile.dicts_avoided == 3
        # Σ's plan set is warmed by the initial sound chase through the same
        # cache, so at minimum every non-vacuous dependency's Σ lookup hits.
        assert profile.subset_plans_reused >= 3

    def test_example_4_1_chase_profile_counts_probes(self, ex41):
        result = sound_chase(ex41.q4, ex41.dependencies, Semantics.BAG_SET)
        profile = result.profile
        assert profile is not None
        assert profile.extension_probes > 0
        # The applied triggers must cross the dict boundary, the discharged
        # ones must not.
        assert profile.dicts_avoided < profile.extension_probes

    def test_theorem_4_2_fixture_counters(self, ex41):
        """Theorem 4.2's uniqueness fixtures all exercise the probe layer."""
        for query in (ex41.q1, ex41.q2, ex41.q3, ex41.q4):
            for semantics in (Semantics.BAG, Semantics.BAG_SET):
                result = sound_chase(query, ex41.dependencies, semantics)
                profile = result.profile
                assert profile is not None
                assert profile.extension_probes > 0, (
                    f"{query.head_predicate}/{semantics}: no binding-level probes ran"
                )

    def test_counters_reach_session_stats(self, ex41):
        from repro.session import Session

        session = Session(dependencies=ex41.dependencies)
        session.sigma_subset(ex41.q4, "bag")
        profile = session.stats()["profile"]
        assert profile["extension_probes"] > 0
        assert profile["dicts_avoided"] > 0
        assert profile["subset_plans_reused"] > 0


#: Per-chase ChaseProfile counters summed over every backchase candidate of
#: the C&B universal plan, with the candidate count.  They guard that the
#: per-step shortcuts (one index grown across a run, the one-atom match loop,
#: Definition 4.3 gates decided once per run) change what a step costs,
#: never what the chase searches.
BACKCHASE_COUNTERS = {
    "star6": (127, {
        "kernel_searches": 2484, "index_lookups": 3636, "index_hits": 0,
        "extension_probes": 576, "dicts_avoided": 384, "triggers_examined": 192,
        "rounds": 319, "assignment_fixing_static": 192,
    }),
    "chain6": (32, {
        "kernel_searches": 1090, "index_lookups": 1722, "index_hits": 378,
        "extension_probes": 418, "dicts_avoided": 258, "triggers_examined": 160,
        "rounds": 192, "assignment_fixing_static": 160,
    }),
}


class TestBackchaseCandidateCounters:
    """The C&B candidate chases do exactly the pinned work under each semantics.

    The search is the same under all three; only the tgd-step policy tells
    them apart, so a policy mix-up shows in ``assignment_fixing_static``.
    """

    @pytest.mark.parametrize("label", sorted(BACKCHASE_COUNTERS))
    @pytest.mark.parametrize("semantics", (Semantics.BAG, Semantics.BAG_SET, Semantics.SET))
    def test_candidate_chase_counters_are_pinned(self, label, semantics):
        from repro.paperlib import chain_workload, star_workload
        from repro.reformulation.candidates import iter_indexed_subqueries

        workload = star_workload(6) if label == "star6" else chain_workload(6)
        expected_count, expected = BACKCHASE_COUNTERS[label]
        if semantics is Semantics.SET:
            # The set policy fires every applicable trigger: no Definition 4.3 verdict.
            expected = {**expected, "assignment_fixing_static": 0}
        universal = sound_chase(workload.query, workload.dependencies, semantics).query
        totals = dict.fromkeys(expected, 0)
        count = 0
        for _, candidate in iter_indexed_subqueries(universal):
            profile = sound_chase(candidate, workload.dependencies, semantics).profile
            assert profile is not None
            count += 1
            for name in totals:
                totals[name] += getattr(profile, name)
        assert (count, totals) == (expected_count, expected)
