"""Homomorphisms, containment mappings, and query isomorphism.

These are the workhorse procedures of the whole library:

* :func:`find_homomorphism` / :func:`iter_homomorphisms` — find mappings
  ``h`` from the variables of one conjunction of atoms to the terms of
  another such that every source atom is mapped onto some target atom and
  constants are preserved (Section 2.1 of the paper).
* :func:`find_containment_mapping` — a homomorphism between query bodies
  that also maps the head vector onto the head vector; existence of a
  containment mapping from ``Q2`` to ``Q1`` characterises set containment
  ``Q1 ⊑S Q2`` (Chandra–Merlin).
* :func:`find_isomorphism` / :func:`are_isomorphic` — a bijection between
  the two queries' subgoal occurrences compatible with a variable renaming;
  isomorphism characterises bag equivalence (Theorem 2.1(1)).

The search is backtracking with a most-constrained-atom-first heuristic,
run entirely over ints by :func:`iter_matches` — the **compiled match
kernel**:

* the source conjunction is compiled once into a
  :class:`~repro.core.plan.MatchPlan` (per-atom ``sig_id``, per-position
  slot/constant-uid codes, one dense *slot* per distinct variable);
* the working mapping is a preallocated int array indexed by slot — binding
  a variable writes a target term's intern ``uid`` into its slot, undoing a
  binding writes ``-1`` back — so the inner loops compare and assign small
  ints instead of hashing term objects into dictionaries;
* candidates come from a :class:`TargetIndex`: target atoms are indexed per
  ``sig_id`` and additionally per ``(sig_id, position, uid)`` posting list,
  so a source atom with a constant or an already-bound slot at some
  position is only checked against that position's posting list instead of
  every atom of its predicate;
* term objects reappear only at the result boundary, where the slot
  bindings are translated back into the ``{variable: term}`` dictionaries
  callers expect.

Selecting the atom with the fewest verified candidates doubles as forward
checking — a remaining atom with no candidate prunes the branch
immediately.  The enumeration order is *identical* to the plain
backtracking search this replaced (preserved verbatim in
:mod:`repro.core.reference`): candidates are verified in target-body order
and ties in the selection break toward the earlier source atom, so every
chase strategy built on top keeps its deterministic step sequence.  (The
kernel stops counting an atom's candidates once it has as many as the
current best — a count that large can never win the strictly-fewer
selection — which skips verification work without affecting the choice.)

Both halves of a search are reusable: a ``TargetIndex`` can be built once
and passed to many searches against the same target conjunction
(``iter_homomorphisms(..., index=...)``), and a ``MatchPlan`` can be
compiled once and passed to many searches from the same source
(``iter_homomorphisms(..., plan=...)``).  The chase drivers do exactly that
— every dependency probe of a run hits the same index over the query body
(one index per run, grown in place by tgd steps through
:meth:`TargetIndex.extend` and rebuilt only after egd steps, which rewrite
terms), and the per-dependency premise/conclusion plans are compiled once
per Σ and reused across rounds *and runs* (see :mod:`repro.chase.plans`).
:func:`iter_binding_matches` also runs the semi-naive form of a search,
only the matches through target atoms from a given id on, which the chase
uses to probe a dependency through the atoms a step added.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from collections import Counter
from typing import Iterator, Mapping, Sequence

from .atoms import Atom
from .plan import MatchPlan
from .query import ConjunctiveQuery
from .terms import Constant, Term, Variable

Homomorphism = dict[Term, Term]

#: One binding-level match: the kernel's slot-uid array, the parallel term
#: array, the trail of slots bound during the search (in binding order),
#: and the id of the target atom a one-atom plan matched (or, for a delta
#: match, the pinned one; ``-1`` otherwise).  The three lists are borrowed
#: from the kernel and reused between yields.
BindingMatch = tuple[list[int], "list[Term | None]", list[int], int]


def _compatible(
    source_atom: Atom, target_atom: Atom, mapping: Homomorphism
) -> Homomorphism | None:
    """Try to match *source_atom* onto *target_atom* under *mapping*.

    Returns the (new bindings only) extension of the mapping, or None when
    the atoms cannot be unified in the homomorphism direction.
    """
    if source_atom.predicate != target_atom.predicate:
        return None
    if source_atom.arity != target_atom.arity:
        return None
    new_bindings: Homomorphism = {}
    for s_term, t_term in zip(source_atom.terms, target_atom.terms):
        if isinstance(s_term, Constant):
            if s_term != t_term:
                return None
            continue
        bound = mapping.get(s_term, new_bindings.get(s_term))
        if bound is None:
            new_bindings[s_term] = t_term
        elif bound != t_term:
            return None
    return new_bindings


_EMPTY_IDS: tuple[int, ...] = ()


class TargetIndex:
    """Posting-list index over one target conjunction of atoms.

    Two layers are kept, both storing atom positions (indexes into the
    target sequence) in increasing order, so that any candidate list derived
    from them enumerates atoms in target-body order:

    * ``sig_id → [ids]`` — the full group a source atom could in principle
      map onto, keyed by the interned ``(predicate, arity)`` signature int;
    * ``(sig_id, position, term uid) → [ids]`` — atoms carrying the term
      with that intern uid at *position*, used to narrow the group through
      the source atom's constants and already-bound variables.

    The index is reusable across any number of searches against the same
    target, and grows with it: :meth:`extend` appends atoms (a tgd chase
    step's additions) in place, leaving every candidate list equal to the
    one a fresh index over the grown target would give.  It touches only
    the groups and postings of the signatures it adds.  So a search
    suspended across growth resumes exactly as a fresh search over the
    grown target would continue, provided no atom of its plan's signatures
    was added: a one-atom search iterates a posting list directly, and a
    backtracking search has verified candidate lists in hand.  The rule is
    therefore **no growth of a suspended search's signatures**; the chase
    keeps a tgd's premise search suspended across rounds on it, and drops
    the search when its premise predicates grow (see
    :mod:`repro.chase.delta`).  ``lookups`` /
    ``narrowed`` count how often a candidate lookup happened and how often a
    posting list strictly narrowed (or emptied) the predicate group — the
    chase profiler reports their ratio as the index hit rate — and
    ``searches`` counts the kernel searches run against the index.
    """

    __slots__ = (
        "atoms",
        "_groups",
        "_postings",
        "lookups",
        "narrowed",
        "searches",
        "extension_probes",
        "dicts_avoided",
    )

    def __init__(self, atoms: Sequence[Atom]):
        self.atoms: tuple[Atom, ...] = ()
        self._groups: dict[int, list[int]] = {}
        self._postings: dict[tuple[int, int, int], list[int]] = {}
        self.extend(atoms)
        self.lookups = 0
        self.narrowed = 0
        self.searches = 0
        # Binding-level applicability accounting, incremented by the chase
        # steps layer (see repro.chase.steps): conclusion probes run directly
        # on a premise slot array, and premise matches discharged there
        # without ever materializing a {variable: term} dict.
        self.extension_probes = 0
        self.dicts_avoided = 0

    def extend(self, atoms: Sequence[Atom]) -> None:
        """Append *atoms* to the target, indexing only them.

        New atom ids follow the existing ones, so every group and posting
        list stays in target-body order.  Only the groups and postings of
        the added atoms' signatures change, and none of a suspended
        search's signatures may be among them (see the class docstring).
        """
        added = tuple(atoms)
        start = len(self.atoms)
        self.atoms += added
        groups, postings = self._groups, self._postings
        for atom_id, atom in enumerate(added, start):
            sig_id = atom.sig_id
            group = groups.get(sig_id)
            if group is None:
                groups[sig_id] = [atom_id]
            else:
                group.append(atom_id)
            for position, term_uid in enumerate(atom.term_ids):
                key = (sig_id, position, term_uid)
                posting = postings.get(key)
                if posting is None:
                    postings[key] = [atom_id]
                else:
                    posting.append(atom_id)

    def candidate_ids(
        self, atom: Atom, mapping: Mapping[Term, Term]
    ) -> Sequence[int]:
        """Ids of target atoms *atom* could map onto under *mapping*.

        A superset of the true candidates (within-atom repeated variables are
        left to :func:`_compatible`), narrowed through the most selective
        constant or bound position, in target-body order.
        """
        self.lookups += 1
        best = self._groups.get(atom.sig_id)
        if best is None:
            return _EMPTY_IDS
        group_size = len(best)
        sig_id = atom.sig_id
        for position, term in enumerate(atom.terms):
            if isinstance(term, Constant):
                image: Term = term
            else:
                bound = mapping.get(term)
                if bound is None:
                    continue
                image = bound
            posting = self._postings.get((sig_id, position, image.uid))
            if posting is None:
                self.narrowed += 1
                return _EMPTY_IDS
            if len(posting) < len(best):
                best = posting
        if len(best) < group_size:
            self.narrowed += 1
        return best

    def candidate_ids_coded(
        self, sig_id: int, codes: Sequence[int], binding: Sequence[int]
    ) -> Sequence[int]:
        """The int-kernel variant of :meth:`candidate_ids`.

        *codes* are a :class:`~repro.core.plan.MatchPlan` atom's per-position
        codes and *binding* the kernel's slot array; the narrowing walk is the
        same as the term-based lookup (first-to-last position, keep the
        strictly smallest posting) but never touches a term object.
        """
        self.lookups += 1
        best = self._groups.get(sig_id)
        if best is None:
            return _EMPTY_IDS
        group_size = len(best)
        postings = self._postings
        for position, code in enumerate(codes):
            if code >= 0:
                uid = binding[code]
                if uid < 0:
                    continue
            else:
                uid = ~code
            posting = postings.get((sig_id, position, uid))
            if posting is None:
                self.narrowed += 1
                return _EMPTY_IDS
            if len(posting) < len(best):
                best = posting
        if len(best) < group_size:
            self.narrowed += 1
        return best

    def group_size(self, sig_id: int) -> int:
        """How many target atoms have the signature *sig_id*."""
        group = self._groups.get(sig_id)
        return 0 if group is None else len(group)

    def __len__(self) -> int:
        return len(self.atoms)


_NO_CAP = sys.maxsize


def _kernel_search(
    plan: MatchPlan,
    index: TargetIndex,
    binding: list[int],
    bound_terms: list[Term | None],
) -> Iterator[list[int]]:
    """The shared search core of the compiled match kernel.

    *binding* / *bound_terms* are the caller's slot arrays, possibly
    pre-bound (``-1`` = unbound); the search mutates them in place and
    yields its *trail* — the slots bound during the search, in binding
    order — once per full match.  At yield time every plan slot that any
    matched atom touches is bound; the arrays and the trail are reused
    between yields, so callers must copy whatever they keep.  Candidate
    exploration order is identical to the pre-kernel reference search
    (:func:`repro.core.reference.iter_homomorphisms_reference`).

    Most probes have a one-atom source (a single-atom tgd conclusion, a
    single-atom premise); those run the flat loop of
    :func:`_one_atom_search`, every other plan the backtracking search.
    """
    if len(plan.codes) == 1:
        return _one_atom_search(plan, index, binding, bound_terms)
    return _backtracking_search(plan, index, binding, bound_terms)


def _one_atom_matches(
    sig_id: int,
    codes: Sequence[int],
    index: TargetIndex,
    binding: list[int],
    bound_terms: list[Term | None],
    trail: list[int],
    since: int = 0,
) -> Iterator[int]:
    """The flat loop of a one-atom search: yields each matched target atom's id.

    One candidate lookup, then one loop that verifies and binds in position
    order.  *trail* is the caller's empty list: at each yield it holds the
    slots the match bound, in binding order, and it is unwound and emptied
    before the next candidate.  Candidates with an id below *since* are
    skipped; the rest come in target-body order, so the matches are a
    suffix of the full search's.  The loop runs over the index's own
    candidate list when *since* is 0, which is why the index must not grow
    this signature while the search is suspended.
    """
    target_atoms = index.atoms
    candidates = index.candidate_ids_coded(sig_id, codes, binding)
    if since:
        candidates = candidates[bisect_left(candidates, since):]
    for atom_id in candidates:
        target_atom = target_atoms[atom_id]
        term_ids = target_atom.term_ids
        terms = target_atom.terms
        for position, code in enumerate(codes):
            uid = term_ids[position]
            if code >= 0:
                bound = binding[code]
                if bound < 0:
                    binding[code] = uid
                    bound_terms[code] = terms[position]
                    trail.append(code)
                elif bound != uid:
                    break
            elif ~code != uid:
                break
        else:
            yield atom_id
        for slot in trail:
            binding[slot] = -1
        trail.clear()


def _one_atom_search(
    plan: MatchPlan,
    index: TargetIndex,
    binding: list[int],
    bound_terms: list[Term | None],
) -> Iterator[list[int]]:
    """:func:`_kernel_search` for a one-atom plan: one lookup, one loop.

    The backtracking search would verify every candidate of the single atom
    and then re-apply each verified one.  Binding while verifying, in
    position order (:func:`_one_atom_matches`), gives the same matches in
    the same order, the same trail and the same lookup count, without the
    search's setup.
    """
    trail: list[int] = []
    for _ in _one_atom_matches(plan.sig_ids[0], plan.codes[0], index, binding, bound_terms, trail):
        yield trail


def _backtracking_search(
    plan: MatchPlan,
    index: TargetIndex,
    binding: list[int],
    bound_terms: list[Term | None],
) -> Iterator[list[int]]:
    """:func:`_kernel_search` for any plan: most-constrained-first backtracking."""
    atom_codes = plan.codes
    sig_ids = plan.sig_ids
    target_atoms = index.atoms
    candidate_ids = index.candidate_ids_coded
    remaining = list(range(len(atom_codes)))
    # Slots bound during the search, in binding order (excludes any
    # pre-bound slots, which the caller owns).
    trail: list[int] = []
    # Per-candidate scratch of tentatively bound slots (avoids allocating a
    # list per verification).
    scratch = [0] * plan.max_arity
    # Free list of (empty) candidate lists: every search level runs one
    # verified_ids call per remaining atom and keeps only the winner, so
    # without pooling the kernel allocates a list per (level, atom) pair.
    pool: list[list[int]] = []

    def verified_ids(source_pos: int, cap: int) -> list[int] | None:
        """Target atom ids matching source atom *source_pos* under `binding`.

        Returns None as soon as *cap* candidates verify: the caller only
        wants strictly-fewer-than-cap lists, so a capped atom cannot win.
        The returned list is pool-owned — the caller releases it back via
        ``pool.append`` after clearing it.
        """
        codes = atom_codes[source_pos]
        ids: list[int] = pool.pop() if pool else []
        for atom_id in candidate_ids(sig_ids[source_pos], codes, binding):
            term_ids = target_atoms[atom_id].term_ids
            touched = 0
            ok = True
            for position, code in enumerate(codes):
                uid = term_ids[position]
                if code >= 0:
                    bound = binding[code]
                    if bound < 0:
                        binding[code] = uid
                        scratch[touched] = code
                        touched += 1
                    elif bound != uid:
                        ok = False
                        break
                elif ~code != uid:
                    ok = False
                    break
            while touched:
                touched -= 1
                binding[scratch[touched]] = -1
            if ok:
                ids.append(atom_id)
                if len(ids) >= cap:
                    ids.clear()
                    pool.append(ids)
                    return None
        return ids

    def search() -> Iterator[list[int]]:
        if not remaining:
            yield trail
            return
        # Most-constrained-first with forward checking: pick the remaining
        # atom with the fewest verified candidates under the current binding;
        # an atom with none prunes the branch outright.
        best_at = 0
        best_ids: list[int] | None = None
        cap = _NO_CAP
        for position, source_pos in enumerate(remaining):
            ids = verified_ids(source_pos, cap)
            if ids is None:
                continue
            if best_ids is not None:
                best_ids.clear()
                pool.append(best_ids)
            best_at, best_ids = position, ids
            if not ids:
                pool.append(ids)
                return
            cap = len(ids)
        source_pos = remaining.pop(best_at)
        codes = atom_codes[source_pos]
        assert best_ids is not None
        for atom_id in best_ids:
            target_atom = target_atoms[atom_id]
            term_ids = target_atom.term_ids
            terms = target_atom.terms
            bound_here = 0
            # Re-application of a verified candidate cannot fail: the binding
            # state is exactly what verified_ids checked it under.
            for position, code in enumerate(codes):
                if code >= 0 and binding[code] < 0:
                    binding[code] = term_ids[position]
                    bound_terms[code] = terms[position]
                    trail.append(code)
                    bound_here += 1
            yield from search()
            while bound_here:
                bound_here -= 1
                binding[trail.pop()] = -1
        remaining.insert(best_at, source_pos)
        best_ids.clear()
        pool.append(best_ids)

    yield from search()


def iter_matches(
    plan: MatchPlan,
    index: TargetIndex,
    fixed: Mapping[Term, Term] | None = None,
) -> Iterator[Homomorphism]:
    """The compiled match kernel: every homomorphism of *plan* into *index*.

    The working mapping is a slot-indexed int array (``-1`` = unbound); a
    parallel array of term objects records what each slot is bound to, so
    the result boundary — and nothing before it — builds the
    ``{variable: term}`` dictionaries callers consume.  Enumeration order is
    identical to :func:`repro.core.reference.iter_homomorphisms_reference`.
    """
    index.searches += 1
    base: Homomorphism = dict(fixed or {})
    # Constants in the fixed mapping must be identity (defensive check,
    # mirroring the reference search).
    for key, value in base.items():
        if isinstance(key, Constant) and key != value:
            return

    binding = [-1] * len(plan.slot_vars)
    bound_terms: list[Term | None] = [None] * len(plan.slot_vars)
    slot_of = plan.slot_of
    for key, value in base.items():
        if isinstance(key, Variable):
            slot = slot_of.get(key.uid)
            if slot is not None:
                binding[slot] = value.uid
                bound_terms[slot] = value

    slot_vars = plan.slot_vars
    for trail in _kernel_search(plan, index, binding, bound_terms):
        result = dict(base)
        for slot in trail:
            result[slot_vars[slot]] = bound_terms[slot]  # type: ignore[assignment]
        yield result


def iter_binding_matches(
    plan: MatchPlan,
    index: TargetIndex,
    since: int = 0,
    rests: Sequence[MatchPlan] = (),
) -> Iterator[BindingMatch]:
    """Binding-level kernel matches: no dictionaries, only slot arrays.

    Yields one :data:`BindingMatch` ``(binding, bound_terms, trail,
    atom_id)`` per full match of *plan* into *index*: the kernel's slot-uid
    array, the parallel term array, the slots bound in binding order, and,
    for a one-atom plan, the id of the target atom it matched (``-1`` for
    longer plans).  The first three are **borrowed**: the kernel reuses
    them between yields and unwinds them on resumption, so a caller that
    keeps a match must copy what it needs (see
    :func:`repro.chase.steps.trigger_homomorphism` for the dict boundary).
    Enumeration order is identical to :func:`iter_matches` with no ``fixed``
    mapping.  Counts as one kernel search.

    With *since* > 0, only the matches that map some atom onto a target
    atom with id ≥ *since* come: the semi-naive delta of the search.  For a
    one-atom plan that is a suffix of the full enumeration, in the same
    order, with the same ``atom_id``s.  A longer plan pins each of its atoms
    in turn to each such target atom (that atom's ``atom_id``) and searches
    the rest through ``rests[i] == plan.without(i)`` (compiled here when
    not given), pre-bound by the pin; for a key egd's premise that is one
    posting lookup per pin.  A match that uses several new atoms then
    comes once per pin, and the order is not the full search's, so a
    longer plan's delta answers "is there such a match?", not "which match
    comes first?".
    """
    index.searches += 1
    binding = [-1] * len(plan.slot_vars)
    bound_terms: list[Term | None] = [None] * len(plan.slot_vars)
    trail: list[int] = []
    if len(plan.codes) == 1:
        for atom_id in _one_atom_matches(
            plan.sig_ids[0], plan.codes[0], index, binding, bound_terms, trail, since
        ):
            yield binding, bound_terms, trail, atom_id
        return
    if not since:
        for full_trail in _backtracking_search(plan, index, binding, bound_terms):
            yield binding, bound_terms, full_trail, -1
        return
    if not rests:
        rests = [plan.without(position) for position in range(len(plan.codes))]
    for position, rest in enumerate(rests):
        for atom_id in _one_atom_matches(
            plan.sig_ids[position], plan.codes[position], index,
            binding, bound_terms, trail, since,
        ):
            for rest_trail in _kernel_search(rest, index, binding, bound_terms):
                yield binding, bound_terms, trail + rest_trail, atom_id


def has_match_from_binding(
    plan: MatchPlan,
    index: TargetIndex,
    links: Sequence[tuple[int, int]],
    source_binding: Sequence[int],
) -> bool:
    """Does *plan* match into *index* under pre-bindings from another plan?

    The binding-level extension probe: *links* are ``(plan_slot,
    source_slot)`` pairs (see :func:`repro.core.plan.shared_slot_links`) and
    *source_binding* a completed slot array of the source plan; each linked
    slot of *plan* is seeded with the uid the source search bound, and the
    kernel then searches for one full match.  No ``{variable: term}``
    dictionary is built on either side — this replaces the
    ``find_match(plan, index, fixed=hom)`` idiom on the chase's tgd
    applicability hot path.
    """
    index.searches += 1
    binding = [-1] * len(plan.slot_vars)
    bound_terms: list[Term | None] = [None] * len(plan.slot_vars)
    for plan_slot, source_slot in links:
        binding[plan_slot] = source_binding[source_slot]
    matches: Iterator[object]
    if len(plan.codes) == 1:
        matches = _one_atom_matches(
            plan.sig_ids[0], plan.codes[0], index, binding, bound_terms, []
        )
    else:
        matches = _backtracking_search(plan, index, binding, bound_terms)
    for _ in matches:
        return True
    return False


def find_match(
    plan: MatchPlan,
    index: TargetIndex,
    fixed: Mapping[Term, Term] | None = None,
) -> Homomorphism | None:
    """The first kernel match of *plan* into *index*, or None."""
    for match in iter_matches(plan, index, fixed):
        return match
    return None


def iter_homomorphisms(
    source: Sequence[Atom],
    target: Sequence[Atom],
    fixed: Mapping[Term, Term] | None = None,
    *,
    index: TargetIndex | None = None,
    plan: MatchPlan | None = None,
) -> Iterator[Homomorphism]:
    """Yield every homomorphism from *source* to *target* extending *fixed*.

    The yielded dictionaries map variables of *source* (and the keys of
    *fixed*) to terms of *target*.  Constants are required to be preserved
    but are not recorded in the mapping.  ``index`` lets callers that probe
    the same target repeatedly (the chase) reuse one :class:`TargetIndex`
    instead of rebuilding it per call; ``plan`` likewise lets callers that
    search from the same source repeatedly reuse one compiled
    :class:`~repro.core.plan.MatchPlan`.  When given, they must index /
    compile exactly *target* / *source*.
    """
    if index is None:
        index = TargetIndex(target)
    if plan is None:
        plan = MatchPlan(source)
    yield from iter_matches(plan, index, fixed)


def find_homomorphism(
    source: Sequence[Atom],
    target: Sequence[Atom],
    fixed: Mapping[Term, Term] | None = None,
    *,
    index: TargetIndex | None = None,
    plan: MatchPlan | None = None,
) -> Homomorphism | None:
    """Return one homomorphism from *source* to *target*, or None."""
    for hom in iter_homomorphisms(source, target, fixed, index=index, plan=plan):
        return hom
    return None


def can_extend_homomorphism(
    mapping: Mapping[Term, Term],
    extra_source: Sequence[Atom],
    target: Sequence[Atom],
    *,
    index: TargetIndex | None = None,
) -> bool:
    """Can *mapping* be extended to also cover *extra_source* atoms?

    This is exactly the applicability condition of a tgd chase step
    (Section 2.4): the chase with ``φ → ∃V̄ ψ`` applies when a homomorphism
    from φ exists that can *not* be extended to φ ∧ ψ.
    """
    return find_homomorphism(extra_source, target, fixed=mapping, index=index) is not None


def _head_fixed_mapping(
    q_from: ConjunctiveQuery, q_to: ConjunctiveQuery
) -> Homomorphism | None:
    """Initial mapping forcing h(head of q_from) = head of q_to."""
    if len(q_from.head_terms) != len(q_to.head_terms):
        return None
    fixed: Homomorphism = {}
    for s_term, t_term in zip(q_from.head_terms, q_to.head_terms):
        if isinstance(s_term, Constant):
            if s_term != t_term:
                return None
            continue
        if s_term in fixed and fixed[s_term] != t_term:
            return None
        fixed[s_term] = t_term
    return fixed


def iter_containment_mappings(
    q_from: ConjunctiveQuery, q_to: ConjunctiveQuery
) -> Iterator[Homomorphism]:
    """Yield all containment mappings from *q_from* to *q_to*."""
    fixed = _head_fixed_mapping(q_from, q_to)
    if fixed is None:
        return
    # The compiled body plan is memoized per query object, so repeated
    # containment tests against the same q_from (every equivalence decision
    # runs several) compile it once.
    yield from iter_homomorphisms(
        q_from.body, q_to.body, fixed=fixed, plan=q_from.body_plan()
    )


def find_containment_mapping(
    q_from: ConjunctiveQuery, q_to: ConjunctiveQuery
) -> Homomorphism | None:
    """Return one containment mapping from *q_from* to *q_to*, or None."""
    for mapping in iter_containment_mappings(q_from, q_to):
        return mapping
    return None


# ---------------------------------------------------------------------- #
# Isomorphism (bag equivalence, Theorem 2.1(1))
# ---------------------------------------------------------------------- #
def _atom_occurrence_bijection(
    q1: ConjunctiveQuery, q2: ConjunctiveQuery
) -> Iterator[Homomorphism]:
    """Search for a variable renaming inducing a bijection of subgoal occurrences.

    The mapping must (i) send the head vector of q1 onto the head vector of
    q2, (ii) be injective on variables, and (iii) match the body subgoals of
    q1 one-to-one onto the body subgoals of q2 (occurrences, not just atom
    values, so duplicate subgoals are respected).
    """
    if len(q1.body) != len(q2.body):
        return
    if Counter(a.predicate for a in q1.body) != Counter(a.predicate for a in q2.body):
        return
    fixed = _head_fixed_mapping(q1, q2)
    if fixed is None:
        return
    # Variables may not rename to constants in an isomorphism.
    if any(isinstance(image, Constant) for image in fixed.values()):
        return
    # Injectivity of the initial head mapping.
    images = [v for v in fixed.values()]
    if len(set(images)) != len(images):
        # Two distinct q1 head variables forced onto the same q2 term can
        # still be fine only if they are the same variable; distinct keys
        # with equal values break injectivity.
        keys = list(fixed.keys())
        if len(set(keys)) == len(keys) and len(set(images)) != len(keys):
            return

    target_atoms = list(q2.body)

    def search(
        remaining: list[Atom],
        available: list[bool],
        mapping: Homomorphism,
        used_targets: set[Term],
    ) -> Iterator[Homomorphism]:
        if not remaining:
            yield dict(mapping)
            return
        atom = remaining[0]
        rest = remaining[1:]
        for idx, target_atom in enumerate(target_atoms):
            if not available[idx]:
                continue
            extension = _compatible(atom, target_atom, mapping)
            if extension is None:
                continue
            # An isomorphism is a variable *renaming*: variables may not be
            # mapped to constants (otherwise the mapping has no inverse).
            if any(isinstance(image, Constant) for image in extension.values()):
                continue
            # Enforce injectivity on variables.
            new_images = list(extension.values())
            if any(img in used_targets for img in new_images):
                continue
            if len(set(new_images)) != len(new_images):
                continue
            available[idx] = False
            mapping.update(extension)
            used_targets.update(new_images)
            yield from search(rest, available, mapping, used_targets)
            for key, img in extension.items():
                del mapping[key]
                used_targets.discard(img)
            available[idx] = True

    initial_used = set(fixed.values())
    yield from search(list(q1.body), [True] * len(target_atoms), dict(fixed), initial_used)


def find_isomorphism(
    q1: ConjunctiveQuery, q2: ConjunctiveQuery
) -> Homomorphism | None:
    """Return a query isomorphism from *q1* to *q2*, or None.

    An isomorphism is a renaming of variables under which the two queries
    have identical heads and identical bodies *as bags of subgoals*.
    """
    for mapping in _atom_occurrence_bijection(q1, q2):
        return mapping
    return None


def are_isomorphic(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    """True when the two queries are isomorphic (Theorem 2.1(1))."""
    return find_isomorphism(q1, q2) is not None
