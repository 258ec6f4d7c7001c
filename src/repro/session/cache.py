"""Chase-result caching.

The sound chase dominates the cost of every decision procedure in the
library: an equivalence test chases both inputs, ``decide_all`` chases them
under three semantics, and a C&B run chases the input plus every backchase
candidate.  Across a workload the same (query, Σ, semantics, step-budget)
combinations recur constantly — C&B candidates are re-decided, dashboards
re-ask the same pairs — so the Session keeps terminal chase results in a
bounded LRU cache.

Keys are *canonicalized*: the query contributes its
:meth:`~repro.core.query.ConjunctiveQuery.structural_key` (deterministic
variable renaming, so alpha-variant queries share an entry), Σ contributes
its dependencies in order (chase strategy is order-sensitive) minus their
display names, plus the set-valued predicate markers.  The structural key
is memoized on the query object, and the Σ fingerprint, with its hash, on
the immutable :class:`~repro.dependencies.base.DependencySet`, so building
a key costs the same whatever the size of Σ.  Cached
:class:`~repro.chase.set_chase.ChaseResult` objects are immutable in
practice and shared by reference; the chase result of an alpha-variant hit
differs from a fresh chase only by a variable renaming, which every
downstream test (homomorphism, isomorphism, C&B) is invariant under.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable

from ..core.query import ConjunctiveQuery
from ..dependencies.base import HashedKey


class _Missing:
    """Sentinel type for :data:`MISSING`; never stored as a cache value."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<cache MISSING>"


#: Returned by :meth:`ChaseCache.get` on a miss.  A dedicated sentinel rather
#: than ``None`` so legitimately cached falsy values (``None``, ``False``,
#: ``0``, empty containers) are distinguishable from absence — comparing the
#: result against ``None`` would silently recompute them and double-count the
#: lookup as a miss.
MISSING = _Missing()


class ChaseKey:
    """One chase-cache key, with its hash computed exactly once.

    ``parts`` is ``(structural key, Σ fingerprint, semantics, max_steps)``:
    equality compares it (identical parts compare by pointer, so a warm hit
    is cheap) and the store digests it.  The fingerprint carries its own
    hash, so hashing the parts never walks Σ.  Equality with anything but a
    ``ChaseKey`` is ``NotImplemented``, so the key is safe to mix with
    arbitrary keys in one cache.
    """

    __slots__ = ("parts", "_hash")

    def __init__(
        self,
        query: ConjunctiveQuery,
        fingerprint: HashedKey,
        semantics: Hashable,
        max_steps: int,
    ):
        self.parts = (query.structural_key(), fingerprint, semantics, max_steps)
        self._hash = hash(self.parts)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if isinstance(other, ChaseKey):
            return self._hash == other._hash and self.parts == other.parts
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ChaseKey({self.parts!r})"


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time snapshot of cache effectiveness counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    size: int = 0
    maxsize: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ChaseCache:
    """A bounded LRU cache for terminal chase results."""

    def __init__(self, maxsize: int = 4096):
        if maxsize < 1:
            raise ValueError(f"cache maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0

    # ------------------------------------------------------------------ #
    def get(self, key: Hashable):
        """The cached value for *key*, or :data:`MISSING` (counts a hit/miss).

        Compare the result against ``MISSING`` (by identity), never against
        ``None``: falsy values are valid cache entries and count as hits.
        """
        try:
            value = self._entries[key]
        except KeyError:
            self._misses += 1
            return MISSING
        self._entries.move_to_end(key)
        self._hits += 1
        return value

    def put(self, key: Hashable, value: object) -> None:
        """Insert *value*, evicting the least recently used entry if full."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self._evictions += 1

    def invalidate(self) -> None:
        """Drop every entry (counters other than ``invalidations`` survive)."""
        self._entries.clear()
        self._invalidations += 1

    # ------------------------------------------------------------------ #
    @property
    def stats(self) -> CacheStats:
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            evictions=self._evictions,
            invalidations=self._invalidations,
            size=len(self._entries),
            maxsize=self.maxsize,
        )

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        stats = self.stats
        return (
            f"ChaseCache(size={stats.size}/{stats.maxsize}, "
            f"hits={stats.hits}, misses={stats.misses})"
        )
