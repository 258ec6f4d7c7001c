"""The incremental trigger search fires what a full rescan fires.

:mod:`repro.chase.delta` lets a chase round skip or shorten a dependency
scan in three ways: the two-atom gate of self-join egds, the watermark
delta probe, and resuming a tgd's scan where it last fired.  Each test here
pins one of them against the frozen reference engine
(:func:`repro.chase.reference.sound_chase_reference`), on a state built so
that getting the mechanism wrong changes a step record or a counter: the
pinned order meeting a different trigger than the scan order, a tgd whose
own conclusion grows its premise, an egd step between two tgd steps, a
tested tgd whose refused match must be examined again, and a conclusion
probe that visits a later atom than the trigger it discharges.  Each was
checked against a deliberately broken copy of the mechanism.
"""

from __future__ import annotations

import pytest

from repro.chase import ChaseCapture, sound_chase
from repro.chase.plans import EGDPlan, TGDPlan
from repro.chase.reference import sound_chase_reference
from repro.chase.steps import (
    iter_applicable_egd_bindings,
    iter_applicable_tgd_bindings,
    trigger_homomorphism,
)
from repro.cli import main
from repro.core.homomorphism import TargetIndex
from repro.core.terms import Variable
from repro.datalog import parse_dependencies, parse_dependency, parse_query
from repro.dependencies import EGD, TGD
from repro.paperlib import clique_workload
from repro.semantics import Semantics
from repro.session import Session

ALL_SEMANTICS = (Semantics.SET, Semantics.BAG_SET, Semantics.BAG)


def _records(result) -> list[object]:
    """Each step's text, homomorphism and substitution in order, then the query."""
    return [
        (str(step), list(step.homomorphism.items()), list(step.substitution.items()))
        for step in result.steps
    ] + [str(result.query)]


def _chase_like_the_reference(query_text, sigma_text, semantics, set_valued=()):
    query = parse_query(query_text)
    sigma = parse_dependencies(sigma_text, set_valued=list(set_valued))
    fast = sound_chase(query, sigma, semantics)
    slow = sound_chase_reference(query, sigma, semantics)
    assert _records(fast) == _records(slow)
    return fast


def _egd(text: str) -> EGD:
    (egd,) = [d for d in parse_dependency(text) if isinstance(d, EGD)]
    return egd


def _tgd(text: str) -> TGD:
    (tgd,) = [d for d in parse_dependency(text) if isinstance(d, TGD)]
    return tgd


# --------------------------------------------------------------------------- #
# The two-atom gate
# --------------------------------------------------------------------------- #
class TestTwoAtomGate:
    @pytest.mark.parametrize(
        "text",
        [
            "r(X,Y) & r(X,Z) -> Y = Z",
            "r(X,Y,Z) & r(X,Y,W) -> Z = W",
            "r(X,Y,Z) & r(X,V,W) -> Y = V & Z = W",
            "r(X,c) & r(X,Y) -> Y = c",
        ],
        ids=["key", "two-position key", "two equalities", "constant forced by the premise"],
    )
    def test_self_join_egds_are_gated_on_their_signature(self, text):
        egd = _egd(text)
        assert EGDPlan(egd).gate == (egd.premise[0].sig_id,)

    @pytest.mark.parametrize(
        "text",
        [
            "p(X,Y) & q(X,Z) -> Y = Z",
            "r(X,Y) & r(X,Z) -> Y = c",
            "r(X,Y) -> Y = c",
            "r(X,Y,Z) & r(X,V,W) -> Y = W",
            "r(X,c,Y) & r(X,d,Z) -> Y = Z",
        ],
        ids=[
            "cross predicate",
            "equates to a constant",
            "one atom, constant",
            "equates different positions",
            "constants clash",
        ],
    )
    def test_other_egds_are_not_gated(self, text):
        assert EGDPlan(_egd(text)).gate is None

    @pytest.mark.parametrize("semantics", ALL_SEMANTICS)
    def test_gated_egd_scans_and_fires_once_its_signature_has_two_atoms(self, semantics):
        result = _chase_like_the_reference(
            "Q(K) :- r(K,A), go(K,B)",
            "r(X,Y) & r(X,Z) -> Y = Z\ngo(X,Y) -> r(X,Y)",
            semantics,
            set_valued=("r",),
        )
        assert result.profile.egd_steps == 1
        # Gated while r holds one atom: before the tgd adds the second, and
        # after the egd step merges the two.
        assert result.profile.egd_scans_gated == 2

    @pytest.mark.parametrize("semantics", ALL_SEMANTICS)
    def test_cross_predicate_egd_is_scanned_with_one_atom_per_predicate(self, semantics):
        result = _chase_like_the_reference(
            "Q(K) :- p(K,A), q(K,B)", "p(X,Y) & q(X,Z) -> Y = Z", semantics
        )
        assert result.profile.egd_steps == 1
        assert result.profile.egd_scans_gated == 0

    def test_a_gated_scan_never_reaches_the_search(self):
        result = _chase_like_the_reference(
            "Q(K) :- r(K,A), p(K)",
            "r(X,Y) & r(X,Z) -> Y = Z\np(X) -> s(X)",
            Semantics.SET,
        )
        profile = result.profile
        assert (profile.egd_scans_gated, profile.tgd_steps) == (1, 1)
        # The tgd's scan and its conclusion probe, twice: no egd premise search.
        assert profile.kernel_searches == 3


# --------------------------------------------------------------------------- #
# The watermark delta probe
# --------------------------------------------------------------------------- #
#: σ's premise has two atoms.  go fires s, then one step of the producer adds
#: a(C,V), b(V,W) and b(B,W): two new triggers of σ at once, one through the
#: old atom a(A,B).  The scan order meets that one first; pinning σ's first
#: premise atom to the new atoms meets the other one first.
PROBE_QUERY = "Q(A) :- a(A,B), go(C,B)"
#: The keys on a and b make the producer assignment fixing, so it fires
#: under bag and bag-set semantics too.
PRODUCER = (
    "s(U,Y) -> a(U,V) & b(V,W) & b(Y,W)\ngo(U,Y) -> s(U,Y)\n"
    "a(X,Y) & a(X,Z) -> Y = Z\nb(X,Y) & b(X,Z) -> Y = Z"
)
PROBE_SIGMAS = {
    "tgd": "a(X,Y) & b(Y,Z) -> c(X,Z)\n" + PRODUCER,
    "egd": "a(X,Y) & b(Y,Z) -> X = Z\n" + PRODUCER,
}


class TestDeltaProbeFallback:
    def test_pinned_order_meets_another_trigger_first(self):
        query = parse_query("Q(A) :- a(A,B), go(C,B), s(C,B), a(C,V), b(V,W), b(B,W)")
        since = 2  # σ's watermark: the body before go fired
        tgd_plan = TGDPlan(_tgd("a(X,Y) & b(Y,Z) -> c(X,Z)"))
        egd_plan = EGDPlan(_egd("a(X,Y) & b(Y,Z) -> X = Z"))
        index = TargetIndex(query.body)

        def first_tgd(**kwargs):
            match = next(iter_applicable_tgd_bindings(
                query, tgd_plan.tgd, index=index, plan=tgd_plan, **kwargs
            ))
            return trigger_homomorphism(tgd_plan, match)

        def first_egd(**kwargs):
            match, _, _ = next(iter_applicable_egd_bindings(
                query, egd_plan.egd, index=index, plan=egd_plan, **kwargs
            ))
            return trigger_homomorphism(egd_plan, match)

        for first in (first_tgd, first_egd):
            full, pinned = first(), first(since=since)
            assert str(full[Variable("X")]) == "A"
            assert str(pinned[Variable("X")]) == "C"

    @pytest.mark.parametrize("kind", sorted(PROBE_SIGMAS))
    @pytest.mark.parametrize("semantics", ALL_SEMANTICS)
    def test_a_probe_that_finds_a_trigger_fires_the_full_scans_first(self, kind, semantics):
        result = _chase_like_the_reference(
            PROBE_QUERY, PROBE_SIGMAS[kind], semantics, set_valued=("a", "b", "c", "s")
        )
        assert result.profile.delta_probes >= 1
        first = next(step for step in result.steps if step.dependency.name == "sigma_1")
        assert str(first.homomorphism[Variable("X")]) == "A"

    @pytest.mark.parametrize("semantics", ALL_SEMANTICS)
    def test_a_probe_that_finds_nothing_marks_the_dependency_clean(self, semantics):
        # σ is dirtied by the b-atoms go adds, none of which joins an a-atom.
        result = _chase_like_the_reference(
            "Q(A) :- a(A,B), go(C,D), go(E,F)",
            "a(X,Y) & b(Y,Z) -> c(X,Z)\ngo(U,Y) -> b(U,Y)",
            semantics,
            set_valued=("b", "c"),
        )
        # σ is probed twice and found clean twice; the go tgd's second and
        # third scans start at its watermark too.
        assert result.profile.delta_probes == 4
        assert result.profile.tgd_steps == 2


# --------------------------------------------------------------------------- #
# Invalidation: cursors, watermarks and fired atom ids
# --------------------------------------------------------------------------- #
class TestInvalidation:
    @pytest.mark.parametrize("semantics", ALL_SEMANTICS)
    @pytest.mark.parametrize("length", (3, 5, 7))
    def test_a_conclusion_that_feeds_its_own_premise_drops_the_cursor(self, semantics, length):
        body = ", ".join(f"e(X{i},X{i + 1})" for i in range(1, length + 1))
        result = _chase_like_the_reference(
            f"Q(X1) :- {body}", "e(X,Y) & e(Y,Z) -> e(X,Z)", semantics, set_valued=("e",)
        )
        assert result.profile.tgd_steps == length * (length - 1) // 2

    @pytest.mark.parametrize("semantics", ALL_SEMANTICS)
    def test_a_resumed_scan_stays_exact_while_other_predicates_grow(self, semantics):
        # The triangle scan resumes every round: its steps only add t-atoms.
        workload = clique_workload(6, 2)
        fast = sound_chase(workload.query, workload.dependencies, semantics)
        slow = sound_chase_reference(workload.query, workload.dependencies, semantics)
        assert _records(fast) == _records(slow)
        assert fast.profile.scans_resumed == fast.profile.tgd_steps == 20

    @pytest.mark.parametrize("semantics", ALL_SEMANTICS)
    def test_an_egd_step_between_tgd_steps_drops_every_watermark(self, semantics):
        # The egd's step merges B into D, which makes p(A,B), q(D) a match
        # of old atoms only, below the watermark σ had before the egd fired.
        result = _chase_like_the_reference(
            "Q(A) :- p(A,B), q(D), r(K,B), go(K,D)",
            "r(X,Y) & r(X,Z) -> Y = Z\np(X,Y) & q(Y) -> out(X)\ngo(X,Z) -> r(X,Z)",
            semantics,
            set_valued=("r", "out"),
        )
        assert [step.kind for step in result.steps] == ["tgd", "egd", "tgd"]

    @pytest.mark.parametrize("semantics", (Semantics.BAG_SET, Semantics.BAG))
    @pytest.mark.parametrize(
        "premise", ("p(X)", "p(X) & m(X)"), ids=["one-atom premise", "two-atom premise"]
    )
    def test_a_tested_tgd_rescans_the_matches_it_passed(self, semantics, premise):
        # σ's match for A fails Definition 4.3 (no ok(A)); its match for B
        # passes.  After B's step the full rescan tests A's match again and
        # leaves σ dirty; a scan resumed after B would skip it.
        capture = ChaseCapture()
        query = parse_query("Q(A) :- p(A), m(A), p(B), m(B), ok(B)")
        sigma = parse_dependencies(
            f"s(X,Y) & s(X,Z) & ok(X) -> Y = Z\n{premise} -> s(X,W)",
            set_valued=["s"],
        )
        result = sound_chase(query, sigma, semantics, capture=capture)
        reference = sound_chase_reference(query, sigma, semantics)
        assert _records(result) == _records(reference)
        assert [str(step.added_atoms[0]) for step in result.steps] == ["s(B, W_1)"]
        profile = result.profile
        assert profile.triggers_examined == 3
        assert profile.assignment_fixing_tests + profile.assignment_fixing_cache_hits == 3
        assert capture.tgd_clean == (False,)

    @pytest.mark.parametrize("semantics", ALL_SEMANTICS)
    def test_the_fired_atom_id_is_the_premise_match(self, semantics):
        # The conclusion probe for p(A) visits r(A,C), a later atom than
        # p(B): resuming past the atom it visited would skip p(B).
        result = _chase_like_the_reference(
            "Q(A) :- p(A), p(B), r(A,C), r(D,A)",
            "p(X) -> r(X,X)",
            semantics,
            set_valued=("r",),
        )
        assert [str(step.added_atoms[0]) for step in result.steps] == ["r(A, A)", "r(B, B)"]


# --------------------------------------------------------------------------- #
# The saving, and where it is reported
# --------------------------------------------------------------------------- #
class TestCounters:
    def test_the_clique_tier_does_not_reprobe_satisfied_triggers(self):
        workload = clique_workload(12, 12)
        result = sound_chase(workload.query, workload.dependencies, Semantics.BAG_SET)
        profile = result.profile
        assert result.step_count == 220
        assert profile.dicts_avoided <= 220
        assert profile.scans_resumed == 220

    def test_session_stats_and_cli_profile(self, capsys):
        sigma = "r(X,Y) & r(X,Z) -> Y = Z\ngo(X,Y) -> r(X,Y)\np(X) -> q(X)"
        session = Session(dependencies=parse_dependencies(sigma))
        session.chase(parse_query("Q(K) :- r(K,A), go(K,B), p(K), p(A)"), "set")
        profile = session.stats()["profile"]
        # The key egd is gated before go's step and after its own; it is
        # probed once, and p's tgd resumes twice through its watermark.
        assert profile["egd_scans_gated"] == 2
        assert profile["delta_probes"] == 3
        assert profile["scans_resumed"] == 0

        code = main([
            "chase",
            "--query", "Q(X1) :- e(X1,X2), e(X2,X3), e(X1,X3), e(X3,X4), e(X2,X4), e(X1,X4)",
            "--dependencies", "e(X,Y) & e(Y,Z) & e(X,Z) -> t(X,Y,Z)",
            "--profile",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "incremental scans: 0 egd scans gated, 0 delta probes, 4 scans resumed" in out
