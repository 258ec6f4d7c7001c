"""Chase profiling: what a chase run actually did, and what it skipped.

A :class:`ChaseProfile` is attached to every :class:`~repro.chase.set_chase.
ChaseResult` produced by a chase run of this package: a cold set, bag or
bag-set chase, or a resume.  It records the work visible at the chase level
— rounds, steps by kind, candidate triggers examined, dependencies skipped
by the delta trigger index, Definition 4.3 verdicts — plus the
homomorphism-index counters (lookups and posting-list narrowings) retired
from every :class:`~repro.core.homomorphism.TargetIndex` the run built,
including the ones built by nested assignment-fixing test chases.  A
resume's profile also counts its replay of the checkpointed steps.  Wall
time is measured with :func:`time.perf_counter` around the whole run.

Profiles are plain mutable counters: the Session engine merges the profile
of every cold chase into a per-session aggregate, and the CLI's
``chase --profile`` flag prints one run's summary.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..core.query import CANONICALIZATION_STATS
from ..core.terms import INTERN_STATS

if TYPE_CHECKING:  # imported for annotations only (profile sits below both)
    from ..core.homomorphism import TargetIndex
    from .plans import PlanCache

#: ``((intern hits, intern misses), (structural-key hits, misses))``.
CoreStatsSnapshot = tuple[tuple[int, int], tuple[int, int]]


def snapshot_core_stats() -> CoreStatsSnapshot:
    """Snapshot the process-wide interning / canonicalization counters.

    Every chase run takes one at its start and folds the delta into its
    profile via :meth:`ChaseProfile.record_core_stats`.
    """
    return (INTERN_STATS.snapshot(), CANONICALIZATION_STATS.snapshot())


@dataclass
class ChaseProfile:
    """Counters describing one chase run (or an aggregate of several)."""

    #: Semantics label the profiled chase ran under ("" for aggregates).
    semantics: str = ""
    #: Number of chase runs merged into this profile (1 for a single run).
    runs: int = 1
    #: Outer-loop iterations: one per applied step, plus the final
    #: no-step-found round.
    rounds: int = 0
    egd_steps: int = 0
    tgd_steps: int = 0
    #: Candidate triggers the run inspected: applicable egd (hom,
    #: equality) pairs plus tgd premise homomorphisms tested for soundness.
    triggers_examined: int = 0
    #: Dependency scans skipped because the delta trigger index proved no
    #: new trigger can exist since the dependency's last clean scan.
    dependencies_skipped: int = 0
    #: Dirty egds proved clean by their two-atom gate, without a scan.
    egd_scans_gated: int = 0
    #: Dependency scans run only through the atoms past a watermark: a
    #: one-atom premise's candidates from there on, or a longer premise's
    #: pinned probe (see :mod:`repro.chase.delta`).
    delta_probes: int = 0
    #: Suspended premise scans of a longer tgd premise resumed where they
    #: last fired (a one-atom premise resumes through its watermark, as a
    #: delta probe).
    scans_resumed: int = 0
    #: TargetIndex candidate lookups / lookups narrowed by a posting list.
    index_lookups: int = 0
    index_hits: int = 0
    #: Compiled-match-kernel searches run (one per premise / conclusion /
    #: containment probe against a TargetIndex).
    kernel_searches: int = 0
    #: Binding-level tgd-conclusion extension probes run directly on a
    #: premise slot array, and premise matches those probes discharged
    #: without ever materializing a ``{variable: term}`` dictionary.
    extension_probes: int = 0
    dicts_avoided: int = 0
    #: Per-Σ plan sets a sigma-subset scan's ``is_sound_chase_step`` calls
    #: served from the PlanCache instead of re-regularizing / re-compiling
    #: (zero outside sigma-subset scans).
    subset_plans_reused: int = 0
    #: Per-Σ plan sets compiled vs served from the PlanCache during the run
    #: (the nested Definition 4.3 test chases consult the cache too, so a
    #: single run typically records many reuses).
    plans_compiled: int = 0
    plans_reused: int = 0
    #: Assignment-fixing verdicts computed via a test-query chase vs served
    #: from the compiled Σ's verdict memo, which outlives the run.
    assignment_fixing_tests: int = 0
    assignment_fixing_cache_hits: int = 0
    #: Assignment-fixing verdicts settled without a test chase by the
    #: key-determined rule (:class:`~repro.chase.plans.AssignmentFixingRule`).
    assignment_fixing_static: int = 0
    #: Term intern-table hits / misses (Variable + Constant constructions
    #: served from / added to the per-process intern tables) during the run.
    intern_hits: int = 0
    intern_misses: int = 0
    #: ``structural_key()`` calls served from the per-query memo vs computed
    #: (a miss runs the full normal-form renaming once per query object).
    structural_key_hits: int = 0
    structural_key_misses: int = 0
    #: Chase-cache keys the Session built, and the wall time spent building
    #: them (Session-level: cold chase runs leave these at zero).
    cache_keys_built: int = 0
    key_build_time: float = 0.0
    wall_time: float = 0.0

    @property
    def steps(self) -> int:
        """Total applied chase steps."""
        return self.egd_steps + self.tgd_steps

    @property
    def index_hit_rate(self) -> float:
        """Fraction of index lookups a posting list narrowed (0.0 when unused)."""
        return self.index_hits / self.index_lookups if self.index_lookups else 0.0

    # ------------------------------------------------------------------ #
    def record_core_stats(self, baseline: CoreStatsSnapshot) -> None:
        """Fold in the interning / structural-key activity since *baseline*.

        The counters are process-global, so the delta attributes to this
        profile everything the run did — including nested test chases, whose
        construction work genuinely belongs to the outer run.
        """
        (intern_hits, intern_misses), (key_hits, key_misses) = baseline
        self.intern_hits += INTERN_STATS.hits - intern_hits
        self.intern_misses += INTERN_STATS.misses - intern_misses
        self.structural_key_hits += CANONICALIZATION_STATS.hits - key_hits
        self.structural_key_misses += CANONICALIZATION_STATS.misses - key_misses

    def retire_index(self, index: "TargetIndex") -> None:
        """Fold a :class:`TargetIndex`'s counters in and zero them out."""
        self.index_lookups += index.lookups
        self.index_hits += index.narrowed
        self.kernel_searches += index.searches
        self.extension_probes += index.extension_probes
        self.dicts_avoided += index.dicts_avoided
        index.lookups = 0
        index.narrowed = 0
        index.searches = 0
        index.extension_probes = 0
        index.dicts_avoided = 0

    def record_plan_stats(
        self, baseline: tuple[int, int], cache: "PlanCache"
    ) -> None:
        """Fold in the plan-cache activity since *baseline* (a cache snapshot).

        Like :meth:`record_core_stats`, the delta attributes to this profile
        everything the run did, including the plan lookups of nested
        assignment-fixing test chases that used the same cache.
        """
        hits, misses = baseline
        self.plans_reused += cache.hits - hits
        self.plans_compiled += cache.misses - misses

    def merge(self, other: "ChaseProfile") -> None:
        """Accumulate *other* into this profile (used for aggregates)."""
        if self.runs == 0:
            self.semantics = other.semantics
        elif self.semantics != other.semantics:
            self.semantics = ""  # mixed-semantics aggregate
        self.runs += other.runs
        self.rounds += other.rounds
        self.egd_steps += other.egd_steps
        self.tgd_steps += other.tgd_steps
        self.triggers_examined += other.triggers_examined
        self.dependencies_skipped += other.dependencies_skipped
        self.egd_scans_gated += other.egd_scans_gated
        self.delta_probes += other.delta_probes
        self.scans_resumed += other.scans_resumed
        self.index_lookups += other.index_lookups
        self.index_hits += other.index_hits
        self.kernel_searches += other.kernel_searches
        self.extension_probes += other.extension_probes
        self.dicts_avoided += other.dicts_avoided
        self.subset_plans_reused += other.subset_plans_reused
        self.plans_compiled += other.plans_compiled
        self.plans_reused += other.plans_reused
        self.assignment_fixing_tests += other.assignment_fixing_tests
        self.assignment_fixing_cache_hits += other.assignment_fixing_cache_hits
        self.assignment_fixing_static += other.assignment_fixing_static
        self.intern_hits += other.intern_hits
        self.intern_misses += other.intern_misses
        self.structural_key_hits += other.structural_key_hits
        self.structural_key_misses += other.structural_key_misses
        self.cache_keys_built += other.cache_keys_built
        self.key_build_time += other.key_build_time
        self.wall_time += other.wall_time

    def as_dict(self) -> dict[str, object]:
        """A JSON-able snapshot of every counter plus the derived metrics.

        Used by :meth:`repro.session.Session.stats` (and through it the
        ``repro serve`` ``stats`` endpoint); a plain ``asdict`` would miss
        the derived ``steps`` / ``index_hit_rate`` properties.
        """
        snapshot: dict[str, object] = dataclasses.asdict(self)
        snapshot["steps"] = self.steps
        snapshot["index_hit_rate"] = self.index_hit_rate
        return snapshot

    def summary_lines(self) -> list[str]:
        """Human-readable summary, one counter per line (used by the CLI)."""
        label = self.semantics or "mixed"
        lines = [
            f"chase profile ({label}, {self.runs} run{'s' if self.runs != 1 else ''}):",
            f"  steps            : {self.steps} ({self.tgd_steps} tgd, {self.egd_steps} egd) in {self.rounds} rounds",
            f"  triggers examined: {self.triggers_examined} "
            f"({self.dependencies_skipped} dependency scans delta-skipped)",
            f"  index lookups    : {self.index_lookups} ({self.index_hit_rate:.1%} narrowed by postings)",
        ]
        if self.egd_scans_gated or self.delta_probes or self.scans_resumed:
            lines.append(
                f"  incremental scans: {self.egd_scans_gated} egd scans gated, "
                f"{self.delta_probes} delta probes, {self.scans_resumed} scans resumed"
            )
        if self.kernel_searches:
            lines.append(f"  kernel searches  : {self.kernel_searches}")
        if self.extension_probes:
            lines.append(
                f"  extension probes : {self.extension_probes} binding-level "
                f"({self.dicts_avoided} trigger dicts avoided)"
            )
        if self.subset_plans_reused:
            lines.append(
                f"  subset plan reuse: {self.subset_plans_reused} cache hits"
            )
        if self.plans_compiled or self.plans_reused:
            lines.append(
                f"  match plans      : {self.plans_reused} reused, "
                f"{self.plans_compiled} compiled"
            )
        if (
            self.assignment_fixing_tests
            or self.assignment_fixing_cache_hits
            or self.assignment_fixing_static
        ):
            lines.append(
                f"  assignment-fixing: {self.assignment_fixing_tests} test chases, "
                f"{self.assignment_fixing_cache_hits} memo hits, "
                f"{self.assignment_fixing_static} decided without a chase"
            )
        if self.intern_hits or self.intern_misses:
            lines.append(
                f"  term interning   : {self.intern_hits} hits, "
                f"{self.intern_misses} new terms"
            )
        if self.structural_key_hits or self.structural_key_misses:
            lines.append(
                f"  structural keys  : {self.structural_key_hits} memo hits, "
                f"{self.structural_key_misses} computed"
            )
        if self.cache_keys_built:
            lines.append(
                f"  cache keys       : {self.cache_keys_built} built "
                f"({self.key_build_time * 1000:.2f} ms building)"
            )
        lines.append(f"  wall time        : {self.wall_time * 1000:.2f} ms")
        return lines

    def __str__(self) -> str:
        return "\n".join(self.summary_lines())
