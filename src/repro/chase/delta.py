"""Delta trigger tracking: which dependency scans a round can skip or shorten.

The chase loop is a deterministic first-trigger loop: every round scans
the dependencies in Σ order and applies the first applicable (sound) step,
and a dependency's scan walks its premise matches in the match kernel's
order and stops at the first trigger.  Rescanning every dependency against
the whole body every round is what made the cold chase quadratic and
worse.  This module keeps, per dependency, what earlier scans proved, so a
round can skip a scan or start it late **without changing which trigger
fires**.  Every mechanism below is exact, and this docstring is its proof.

Two facts carry all of it.  A premise match of an egd is *applicable* when
the images of some equality differ, and a premise match of a tgd when it
cannot be extended to the conclusion.  Between egd steps the body only
grows, because tgd steps append atoms, and then:

* (F1) an egd match stays applicable or not: that depends on the match
  alone;
* (F2) a satisfied tgd match stays satisfied: extendability to the
  conclusion is monotone in the body.

An egd step rewrites terms, so :meth:`TriggerIndex.reset` forgets
everything below.  Scans are counted as searches of a
:class:`~repro.core.homomorphism.TargetIndex` whose atom ids are body
positions: appended atoms get the next ids.

**Clean bits.**  A dependency is marked clean when a scan proved it has no
applicable match.  While added atoms miss its premise predicates its
premise matches are unchanged, so by F1/F2 the verdict holds;
:meth:`TriggerIndex.note_added` dirties exactly the dependencies whose
premise mentions an added predicate.  A sound-policy tgd scan that found
applicable matches, all refused by the Definition 4.3 test, is not clean:
that verdict is taken against the whole current query and can flip to
sound as the query grows (the per-run memo of
:mod:`repro.chase.sound_chase` absorbs the repeated tests).

**Watermarks: the delta probe.**  With each clean verdict the index
records the body length *w*, the dependency's watermark.  Invariant: every
applicable match of the dependency maps some premise atom onto an atom
with id ≥ *w*.  It holds when recorded, since there is no applicable match
at all.  Afterwards only atoms with ids ≥ *w* arrive, and a match into the
atoms below *w* existed at the verdict and was not applicable then, so by
F1/F2 it is not applicable now.  Tgd steps therefore keep watermarks (a
dirtied dependency keeps its own), and only an egd step drops them.  A
dirtied dependency with a watermark is probed through the new atoms only
(``since=w`` on :func:`~repro.chase.steps.iter_applicable_tgd_bindings` /
:func:`~repro.chase.steps.iter_applicable_egd_bindings`):

* a one-atom premise scans its candidates from id *w* on.  Its full scan
  walks its candidate list, which is in id order, so this is the full scan
  minus a prefix that holds no applicable match: it finds the same first
  trigger, and the sound policy examines the same applicable matches;
* a longer premise pins each premise atom in turn to each new atom and
  searches the rest through a sub-plan over the same slots
  (:func:`~repro.core.homomorphism.iter_binding_matches` with ``since``).
  If no pinned match is applicable, the dependency is clean again, at the
  new length.
  If one is, the loop runs the full scan, because the pinned order is not
  the scan order and the fired trigger must be the full scan's first.

**The two-atom gate (egds).**  An egd whose premise atoms sharing a
signature unify, position by position, into a premise on which both sides
of every equality coincide (key egds and fds; see
:func:`~repro.chase.plans.self_join_gate`) cannot fire while each such
signature has fewer than two atoms in the body: every match then sends all
atoms of a signature onto the same body atom, unifies them, and factors
through the unifier.  The loop marks such an egd clean, at the current
length, without a scan.

**Resumed scans.**  When a tgd fires, every match its scan passed before
the fired one was satisfied, and the step satisfies the fired one, so by
F2 all of them stay satisfied.  That lets the next scan start after the
fired match, provided every applicable match the scan meets would have
fired: true under the set policy, and under the sound policy for the tgds
it decides without a Definition 4.3 test (full tgds, Proposition 4.3, and
key-determined tgds, :class:`~repro.chase.plans.AssignmentFixingRule`).
A tgd whose matches are tested keeps the full scan, because a passed
match the test refused can turn sound as the query grows.

* A one-atom premise raises its watermark to the fired atom's id + 1
  (:meth:`TriggerIndex.advance`): the invariant above holds for that value,
  and the new atoms land past it.  The id travels with the match the scan
  yields (a :data:`~repro.core.homomorphism.BindingMatch`), so nothing the
  step or the conclusion probe does can change it.
* A longer premise keeps its premise search suspended
  (:meth:`TriggerIndex.suspend`) and resumes it next round.  While no atom
  of the premise's signatures arrives, the premise matches and their
  kernel order are those of a fresh full scan (``TargetIndex.extend``
  touches only the added signatures' candidate lists), so the resumed
  search meets exactly the matches a full rescan would meet after the
  fired one.  :meth:`TriggerIndex.note_added` drops the search together
  with the clean bit of every dependency whose premise predicates grew,
  and the watermark probe takes over; a search that runs out proves the
  tgd clean.

Every mechanism yields the verdict or the trigger a full rescan would, so
the clean bits stay those of a full rescan at every round, and the
terminal frontier a :class:`ChaseCapture` records is unchanged.  Resumes
seed clean bits only: they start with no watermarks and no suspended
searches.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

from ..core.homomorphism import BindingMatch
from ..dependencies.base import Dependency


class TriggerIndex:
    """Clean bits, watermarks and suspended scans of one dependency list in a run.

    The predicate → dependency-positions map is per-Σ, not per-run: runs
    holding a compiled :class:`~repro.chase.plans.SigmaPlans` construct the
    index through :meth:`from_trigger_map`, sharing the plans' precomputed
    map read-only across runs; only the per-dependency state is allocated
    per run.  A watermark of 0 means "no watermark": a scan from atom 0 is
    the full scan.
    """

    __slots__ = ("_clean", "_marks", "_cursors", "_by_predicate")

    def __init__(self, dependencies: Sequence[Dependency]):
        by_predicate: dict[str, list[int]] = {}
        for position, dependency in enumerate(dependencies):
            for predicate in {atom.predicate for atom in dependency.premise}:
                by_predicate.setdefault(predicate, []).append(position)
        self._by_predicate: Mapping[str, Sequence[int]] = by_predicate
        self._start([False] * len(dependencies))

    def _start(self, clean: list[bool]) -> None:
        self._clean = clean
        self._marks = [0] * len(clean)
        self._cursors: dict[int, Iterator[BindingMatch]] = {}

    @classmethod
    def from_trigger_map(
        cls, count: int, by_predicate: Mapping[str, Sequence[int]]
    ) -> "TriggerIndex":
        """A fresh all-dirty index over *count* dependencies sharing *by_predicate*.

        The map is borrowed, never mutated; the caller (a
        :class:`~repro.chase.plans.SigmaPlans`) owns it.
        """
        self = cls.__new__(cls)
        self._by_predicate = by_predicate
        self._start([False] * count)
        return self

    @classmethod
    def from_snapshot(
        cls,
        count: int,
        by_predicate: Mapping[str, Sequence[int]],
        clean: Sequence[bool],
    ) -> "TriggerIndex":
        """An index over *count* dependencies seeded from a prior run's bits.

        The incremental chase resumes a run whose terminal clean bits were
        captured by :meth:`snapshot`.  The seeded list may be shorter than
        *count* — dependencies appended to Σ since the snapshot start dirty.
        A seed *longer* than the current dependency list would silently
        misattribute verdicts, so it is rejected.  Watermarks and suspended
        scans are not seeded.
        """
        if len(clean) > count:
            raise ValueError(
                f"trigger snapshot covers {len(clean)} dependencies "
                f"but the current list has only {count}"
            )
        self = cls.__new__(cls)
        self._by_predicate = by_predicate
        self._start(list(clean) + [False] * (count - len(clean)))
        return self

    def snapshot(self) -> tuple[bool, ...]:
        """The clean bits, frozen — the trigger frontier of a checkpoint.

        Each ``True`` bit is a growth-stable "no trigger" verdict (see the
        module docstring): it remains valid for any future state that only
        *adds* atoms, provided :meth:`note_added` is called with the added
        predicates.  That is exactly the contract the resumable chase relies
        on when it seeds a continuation run via :meth:`from_snapshot`.
        """
        return tuple(self._clean)

    def is_clean(self, position: int) -> bool:
        """Can the dependency at *position* be skipped this round?"""
        return self._clean[position]

    def watermark(self, position: int) -> int:
        """The first atom id an applicable match of the dependency can use."""
        return self._marks[position]

    def cursor(self, position: int) -> Iterator[BindingMatch] | None:
        """The dependency's suspended premise scan, if it may resume."""
        return self._cursors.get(position)

    def mark_clean(self, position: int, watermark: int = 0) -> None:
        """Record a no-trigger verdict over a body of *watermark* atoms."""
        self._clean[position] = True
        self._marks[position] = watermark
        self._cursors.pop(position, None)

    def advance(self, position: int, watermark: int) -> None:
        """A one-atom premise fired on atom ``watermark - 1``: resume past it."""
        self._marks[position] = watermark

    def suspend(self, position: int, scan: Iterator[BindingMatch]) -> None:
        """A longer premise fired on *scan*'s last match: resume *scan* next."""
        self._cursors[position] = scan

    def note_added(self, predicates: Iterable[str]) -> None:
        """A tgd step added atoms over *predicates*: dirty the affected deps.

        Their suspended scans go too; their watermarks stay valid.
        """
        clean = self._clean
        cursors = self._cursors
        for predicate in predicates:
            for position in self._by_predicate.get(predicate, ()):
                clean[position] = False
                if cursors:
                    cursors.pop(position, None)

    def reset(self) -> None:
        """An egd step rewrote the query: every dependency must rescan in full."""
        self._start([False] * len(self._clean))


class ChaseCapture:
    """Terminal-state capture slot passed into a chase run.

    A cold run (:func:`~repro.chase.set_chase.set_chase` /
    :func:`~repro.chase.sound_chase.sound_chase`) or a resume fills this in
    exactly once, when the chase loop has proved the fixpoint: the trigger
    frontier (clean bits of both :class:`TriggerIndex` instances) and the
    full set of variable names the run ever produced (the labeled-null
    counter state — fresh-variable generation forbids every name in it).
    :meth:`repro.chase.incremental.ChaseCheckpoint.of` turns a filled
    capture plus the run's :class:`~repro.chase.set_chase.ChaseResult` into
    a checkpoint.

    A capture belongs to one run: runs overwrite, never merge.  ``filled``
    distinguishes "run never terminated" from "terminated with empty state".
    """

    __slots__ = ("egd_clean", "tgd_clean", "used_names", "filled")

    def __init__(self) -> None:
        self.egd_clean: tuple[bool, ...] = ()
        self.tgd_clean: tuple[bool, ...] = ()
        self.used_names: frozenset[str] = frozenset()
        self.filled: bool = False

    def record(
        self,
        egd_state: TriggerIndex,
        tgd_state: TriggerIndex,
        used_names: Iterable[str],
    ) -> None:
        """Snapshot the terminal trigger frontier and the used-name set."""
        self.egd_clean = egd_state.snapshot()
        self.tgd_clean = tgd_state.snapshot()
        self.used_names = frozenset(used_names)
        self.filled = True
