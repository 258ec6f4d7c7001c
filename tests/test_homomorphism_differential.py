"""Differential tests: indexed homomorphism engine vs the frozen reference.

The indexed engine of :mod:`repro.core.homomorphism` must be *extensionally
identical* to the plain backtracking search it replaced (kept verbatim in
:mod:`repro.core.reference`): same homomorphisms, in the same order — the
deterministic chase step sequences, and therefore every pinned fixture in
this repository, depend on that order.

The generator is seeded and covers the hard spots deliberately: constants
(matching and clashing), repeated variables within and across atoms,
repeated predicates (many candidate atoms per predicate), mixed arities on
one predicate name, and non-empty ``fixed`` mappings.

Since the uid-kernel refactor the campaign runs 500 cases and each case is
additionally replayed through an explicitly precompiled
:class:`~repro.core.plan.MatchPlan`, pinning both entry points of the int
kernel against the frozen reference backtracker.

Two campaigns pin the chase's per-step shortcuts: an index grown in place by
:meth:`~repro.core.homomorphism.TargetIndex.extend` must equal a fresh index
over the same body, and the kernel's flat one-atom loop must give the
backtracking search's matches, order, trails and counters.  A third pins
the semi-naive delta search the incremental chase probes with: exactly the
matches that use a target atom from a given id on.
"""

from __future__ import annotations

import random

import pytest

from repro.core.atoms import Atom
from repro.core.homomorphism import (
    TargetIndex,
    _backtracking_search,
    _one_atom_search,
    find_homomorphism,
    has_match_from_binding,
    iter_binding_matches,
    iter_homomorphisms,
    iter_matches,
)
from repro.core.plan import MatchPlan
from repro.core.reference import (
    find_homomorphism_reference,
    iter_homomorphisms_reference,
)
from repro.core.terms import Constant, Variable

CASES = 500
PREDICATES = ("p", "q", "r")  # few names → plenty of repeated predicates
VARIABLES = tuple(Variable(f"X{i}") for i in range(5))
CONSTANTS = tuple(Constant(value) for value in (0, 1, "a"))


def _random_term(rng: random.Random, constant_bias: float):
    if rng.random() < constant_bias:
        return rng.choice(CONSTANTS)
    return rng.choice(VARIABLES)


def _random_atoms(rng: random.Random, count: int, constant_bias: float) -> list[Atom]:
    atoms = []
    for _ in range(count):
        predicate = rng.choice(PREDICATES)
        arity = rng.randint(1, 3)
        atoms.append(
            Atom(predicate, [_random_term(rng, constant_bias) for _ in range(arity)])
        )
    return atoms


def _random_case(rng: random.Random):
    constant_bias = rng.choice((0.0, 0.2, 0.4))
    source = _random_atoms(rng, rng.randint(1, 4), constant_bias)
    target = _random_atoms(rng, rng.randint(1, 6), constant_bias)
    fixed = None
    if rng.random() < 0.3:
        # Pre-bind a source variable to a target term (possibly one that
        # makes the search unsatisfiable — both engines must agree there too).
        source_vars = [t for atom in source for t in atom.terms if isinstance(t, Variable)]
        target_terms = [t for atom in target for t in atom.terms]
        if source_vars and target_terms:
            fixed = {rng.choice(source_vars): rng.choice(target_terms)}
    return source, target, fixed


@pytest.mark.parametrize("seed", range(CASES))
def test_indexed_engine_matches_reference(seed):
    rng = random.Random(0xC0FFEE + seed)
    source, target, fixed = _random_case(rng)

    expected = list(iter_homomorphisms_reference(source, target, fixed))
    actual = list(iter_homomorphisms(source, target, fixed))
    assert actual == expected  # same mappings, same order

    # The precompiled-plan entry point yields exactly the same enumeration.
    plan = MatchPlan(source)
    index = TargetIndex(target)
    assert list(iter_matches(plan, index, fixed)) == expected

    # find-one agrees with iterate-all (and with the reference find-one).
    assert find_homomorphism(source, target, fixed) == (
        expected[0] if expected else None
    )
    assert find_homomorphism_reference(source, target, fixed) == (
        expected[0] if expected else None
    )


def test_reusable_index_is_equivalent_to_fresh_builds():
    rng = random.Random(0xBEEF)
    for _ in range(40):
        source_a, target, _ = _random_case(rng)
        source_b, _, _ = _random_case(rng)
        index = TargetIndex(target)
        for source in (source_a, source_b, source_a):
            with_index = list(iter_homomorphisms(source, target, index=index))
            fresh = list(iter_homomorphisms(source, target))
            assert with_index == fresh


def test_index_counters_track_narrowing():
    target = [Atom("p", [Constant(i), Variable("Y")]) for i in range(10)]
    index = TargetIndex(target)
    # A constant-position probe must narrow to a single posting list.
    assert index.candidate_ids(Atom("p", [Constant(3), Variable("Z")]), {}) == [2 + 1]
    assert index.lookups == 1
    assert index.narrowed == 1
    # An unconstrained probe scans the whole predicate group: no narrowing.
    assert len(index.candidate_ids(Atom("p", [Variable("A"), Variable("B")]), {})) == 10
    assert index.lookups == 2
    assert index.narrowed == 1


# --------------------------------------------------------------------------- #
# An index grown in place equals a fresh build
# --------------------------------------------------------------------------- #
def _random_binding(rng: random.Random, plan: MatchPlan, uids: list[int]) -> list[int]:
    """Each slot unbound, bound to a target uid, or bound to an absent uid."""
    binding = []
    for _ in plan.slot_vars:
        roll = rng.random()
        if roll < 0.4 or not uids:
            binding.append(-1)
        elif roll < 0.9:
            binding.append(rng.choice(uids))
        else:
            binding.append(Variable("Absent").uid)
    return binding


@pytest.mark.parametrize("seed", range(120))
def test_extended_index_equals_fresh_index(seed):
    """Random chunks fed to ``extend`` leave the index a fresh build would give."""
    rng = random.Random(0xE7E4D + seed)
    constant_bias = rng.choice((0.0, 0.2, 0.4))
    target = _random_atoms(rng, rng.randint(1, 12), constant_bias)
    uids = [uid for atom in target for uid in atom.term_ids]
    end = rng.randint(0, len(target) - 1)
    grown = TargetIndex(target[:end])
    while end < len(target):
        step = rng.randint(1, len(target) - end)
        grown.extend(target[end:end + step])
        end += step
        fresh = TargetIndex(target[:end])
        assert grown.atoms == fresh.atoms
        assert grown._groups == fresh._groups
        assert grown._postings == fresh._postings
        before = (grown.lookups, grown.narrowed)
        for _ in range(8):
            (atom,) = _random_atoms(rng, 1, constant_bias)
            plan = MatchPlan([atom])
            binding = _random_binding(rng, plan, uids)
            args = (plan.sig_ids[0], plan.codes[0], binding)
            assert list(grown.candidate_ids_coded(*args)) == list(
                fresh.candidate_ids_coded(*args)
            )
        after = (grown.lookups - before[0], grown.narrowed - before[1])
        assert after == (fresh.lookups, fresh.narrowed)


# --------------------------------------------------------------------------- #
# One-atom plans: the flat loop vs the backtracking search and the reference
# --------------------------------------------------------------------------- #
def _one_atom_case(rng: random.Random):
    """A one-atom source (sometimes ``r(X,X)``-shaped) and a target."""
    constant_bias = rng.choice((0.0, 0.2, 0.4))
    (source,) = _random_atoms(rng, 1, constant_bias)
    if rng.random() < 0.3:
        variable = rng.choice(VARIABLES)
        tail = [_random_term(rng, constant_bias) for _ in range(rng.randint(0, 1))]
        source = Atom(source.predicate, [variable, variable, *tail])
    target = _random_atoms(rng, rng.randint(1, 8), constant_bias)
    for _ in range(rng.randint(0, 2)):
        # Targets with repeated terms, so repeated source variables can match.
        term = _random_term(rng, constant_bias)
        target.append(Atom(source.predicate, [term] * source.arity))
    rng.shuffle(target)
    return source, target


def _run_search(search, plan, index, prebound):
    """Every match as ``[(slot, term), ...]`` in trail order, plus the final binding."""
    binding = [-1] * plan.n_slots
    bound_terms = [None] * plan.n_slots
    for slot, term in prebound.items():
        binding[slot] = term.uid
        bound_terms[slot] = term
    matches = [
        [(slot, bound_terms[slot]) for slot in trail]
        for trail in search(plan, index, binding, bound_terms)
    ]
    return matches, binding


@pytest.mark.parametrize("seed", range(300))
def test_one_atom_loop_matches_backtracking_and_reference(seed):
    rng = random.Random(0x1A70 + seed)
    source, target = _one_atom_case(rng)
    plan = MatchPlan([source])
    target_terms = [term for atom in target for term in atom.terms]
    # Pre-bind some slots, as has_match_from_binding does through its links.
    prebound = {
        slot: rng.choice(target_terms)
        for slot in range(plan.n_slots)
        if rng.random() < 0.4
    }

    flat_index, backtracking_index = TargetIndex(target), TargetIndex(target)
    flat, flat_binding = _run_search(_one_atom_search, plan, flat_index, prebound)
    backtracking, backtracking_binding = _run_search(
        _backtracking_search, plan, backtracking_index, prebound
    )
    assert flat == backtracking  # same matches, order and trails
    assert flat_binding == backtracking_binding  # every trail slot unbound again
    assert (flat_index.lookups, flat_index.narrowed) == (
        backtracking_index.lookups,
        backtracking_index.narrowed,
    )

    fixed = {plan.slot_vars[slot]: term for slot, term in prebound.items()}
    expected = list(iter_homomorphisms_reference([source], target, fixed))
    assert list(iter_matches(plan, TargetIndex(target), fixed)) == expected

    links = tuple((slot, position) for position, slot in enumerate(prebound))
    source_binding = [term.uid for term in prebound.values()]
    probe_index = TargetIndex(target)
    assert has_match_from_binding(plan, probe_index, links, source_binding) == bool(
        expected
    )
    assert (probe_index.searches, probe_index.lookups) == (1, 1)


# --------------------------------------------------------------------------- #
# The delta search: the matches through target atoms from `since` on
# --------------------------------------------------------------------------- #
def _binding_matches(plan, index, since=0, rests=()):
    """Each binding-level match as ``(atom_id, {variable: term})``, copied out."""
    return [
        (atom_id, {plan.slot_vars[slot]: bound_terms[slot] for slot in trail})
        for _, bound_terms, trail, atom_id in iter_binding_matches(plan, index, since, rests)
    ]


@pytest.mark.parametrize("seed", range(300))
def test_delta_search_is_the_full_search_through_new_atoms(seed):
    rng = random.Random(0xDE17A + seed)
    constant_bias = rng.choice((0.0, 0.2, 0.4))
    source = _random_atoms(rng, rng.randint(1, 3), constant_bias)
    target = _random_atoms(rng, rng.randint(1, 8), constant_bias)
    since = rng.randint(1, len(target))
    plan = MatchPlan(source)
    index = TargetIndex(target)

    full = _binding_matches(plan, index)
    delta = _binding_matches(plan, index, since)
    if len(source) == 1:
        # A suffix of the full enumeration, in its order, with its atom ids.
        assert delta == [(atom_id, hom) for atom_id, hom in full if atom_id >= since]
        return
    new_atoms = set(target[since:])

    def key(hom):
        return frozenset(hom.items())

    expected = {
        key(hom)
        for _, hom in full
        if any(atom.substitute(hom) in new_atoms for atom in source)
    }
    assert {key(hom) for _, hom in delta} == expected
    assert all(atom_id >= since for atom_id, _ in delta)
    rests = [plan.without(position) for position in range(len(source))]
    assert _binding_matches(plan, index, since, rests) == delta
