"""Delta trigger tracking: which dependencies can still fire after a step.

The chase loop is a deterministic first-trigger loop: every round scans
the dependencies in order and applies the first applicable (sound) step.
Rescanning every dependency against the whole current query each round is
what made the cold chase quadratic-and-worse; this module supplies the
bookkeeping that lets a round skip dependencies *provably* unable to
produce a new trigger, without changing which trigger fires.

The invariant is exact, not heuristic.  A dependency is marked **clean**
when a full scan found no applicable step whose absence is *stable under
adding atoms*:

* an egd scan that found no trigger stays trigger-free while the body only
  grows with atoms whose predicates miss the premise — the premise
  homomorphisms are then unchanged, and an egd trigger depends only on the
  homomorphism (the equality images);
* a tgd scan that found **no applicable premise homomorphism at all** stays
  that way under the same condition — extendability of each homomorphism to
  the conclusion is monotone in the body, so satisfied matches stay
  satisfied;
* a tgd scan that found applicable homomorphisms which merely failed the
  assignment-fixing test is *not* marked clean: Definition 4.3's verdict is
  computed against the whole current query, and growing the query can flip
  it from unsound to sound, so such dependencies are re-examined every
  round (their test chases are what the per-run memo of the sound
  tgd-step policy in :mod:`repro.chase.sound_chase` exists for).

After a tgd step, exactly the clean dependencies whose premise mentions a
predicate of the added atoms are dirtied (:meth:`TriggerIndex.note_added`);
an egd step rewrites the whole query, so :meth:`TriggerIndex.reset` drops
every clean mark.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from ..dependencies.base import Dependency


class TriggerIndex:
    """Clean/dirty state for one ordered dependency list within a chase run.

    The predicate → dependency-positions map is per-Σ, not per-run: runs
    holding a compiled :class:`~repro.chase.plans.SigmaPlans` construct the
    index through :meth:`from_trigger_map`, sharing the plans' precomputed
    map read-only across runs; only the clean/dirty bit vector is allocated
    per run.
    """

    __slots__ = ("_clean", "_by_predicate")

    def __init__(self, dependencies: Sequence[Dependency]):
        self._clean = [False] * len(dependencies)
        by_predicate: dict[str, list[int]] = {}
        for position, dependency in enumerate(dependencies):
            for predicate in {atom.predicate for atom in dependency.premise}:
                by_predicate.setdefault(predicate, []).append(position)
        self._by_predicate: Mapping[str, Sequence[int]] = by_predicate

    @classmethod
    def from_trigger_map(
        cls, count: int, by_predicate: Mapping[str, Sequence[int]]
    ) -> "TriggerIndex":
        """A fresh all-dirty index over *count* dependencies sharing *by_predicate*.

        The map is borrowed, never mutated; the caller (a
        :class:`~repro.chase.plans.SigmaPlans`) owns it.
        """
        self = cls.__new__(cls)
        self._clean = [False] * count
        self._by_predicate = by_predicate
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
        misattribute verdicts, so it is rejected.
        """
        if len(clean) > count:
            raise ValueError(
                f"trigger snapshot covers {len(clean)} dependencies "
                f"but the current list has only {count}"
            )
        self = cls.__new__(cls)
        self._clean = list(clean) + [False] * (count - len(clean))
        self._by_predicate = by_predicate
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

    def mark_clean(self, position: int) -> None:
        """Record a completed scan whose no-trigger verdict is growth-stable."""
        self._clean[position] = True

    def note_added(self, predicates: Iterable[str]) -> None:
        """A tgd step added atoms over *predicates*: dirty the affected deps."""
        clean = self._clean
        for predicate in predicates:
            for position in self._by_predicate.get(predicate, ()):
                clean[position] = False

    def reset(self) -> None:
        """An egd step rewrote the query: every dependency must rescan."""
        for position in range(len(self._clean)):
            self._clean[position] = False


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
