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
display names, plus the set-valued predicate markers.  Both parts are
memoized at their source — the structural key on the query object, the Σ
fingerprint on the :class:`~repro.dependencies.base.DependencySet` — and the
assembled :class:`ChaseKey` caches its own hash, so a warm lookup hashes one
precomputed int instead of re-walking the query and Σ.  Cached
:class:`~repro.chase.set_chase.ChaseResult` objects are immutable in
practice and shared by reference; the chase result of an alpha-variant hit
differs from a fresh chase only by a variable renaming, which every
downstream test (homomorphism, isomorphism, C&B) is invariant under.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, Iterable

from ..core.query import ConjunctiveQuery
from ..dependencies.base import Dependency, DependencySet


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


def sigma_fingerprint(dependencies: DependencySet | Iterable[Dependency]) -> Hashable:
    """A hashable, name-insensitive fingerprint of a dependency set.

    Delegates to :attr:`~repro.dependencies.base.DependencySet.fingerprint`,
    which memoizes the value per set object; a plain iterable of
    dependencies is coerced (and fingerprinted with no set-valued markers).
    """
    return DependencySet.coerce(dependencies).fingerprint


class ChaseKey:
    """An assembled chase-cache key with its hash computed exactly once.

    A key tuple's hash is recomputed by the dict on *every* ``get`` and
    ``move_to_end``, walking the whole structural key and Σ fingerprint.
    Wrapping the tuple caches that hash; equality keeps the full value
    comparison (identical parts compare by pointer, so a warm hit is cheap),
    making the wrapper safe to mix with arbitrary keys in one cache.
    """

    __slots__ = ("parts", "_hash")

    def __init__(self, parts: tuple):
        self.parts = parts
        self._hash = hash(parts)

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


def chase_cache_key(
    query: ConjunctiveQuery,
    dependencies: DependencySet | Iterable[Dependency],
    semantics: Hashable,
    max_steps: int,
    *,
    sigma_key: Hashable | None = None,
) -> Hashable:
    """The canonical cache key of one chase invocation.

    ``semantics`` is any hashable semantics discriminator — the Session
    passes a frozen (name, class path) pair per semantics.  ``sigma_key``
    lets callers that already hold ``sigma_fingerprint(Σ)`` (the Session
    memoizes it per Σ) skip recomputing it.  The Session additionally
    memoizes the returned :class:`ChaseKey` per live query object, so on a
    warm session this function is not even called.
    """
    if sigma_key is None:
        sigma_key = sigma_fingerprint(dependencies)
    return ChaseKey((query.structural_key(), sigma_key, semantics, max_steps))


class WeakKeyLRU:
    """A weak-keyed memo bounded by the chase cache's LRU policy.

    The Session's per-query :class:`ChaseKey` memo is weak keyed so it can
    never pin a query a caller has dropped — but weak keys alone do not
    bound it: a pathological caller holding millions of distinct live
    queries would pay one entry each for as long as it holds them.  This
    wrapper adds the same least-recently-used eviction the
    :class:`ChaseCache` applies, so the memo's footprint is capped no matter
    what the caller keeps alive.

    Keys are stored as :class:`weakref.ref` objects (which hash and compare
    like their referents while alive), with a death callback that drops the
    entry — the same semantics as a ``WeakKeyDictionary``, plus recency
    tracking and a size bound.
    """

    __slots__ = ("maxsize", "_entries", "evictions")

    def __init__(self, maxsize: int):
        if maxsize < 1:
            raise ValueError(f"memo maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
        self._entries: "OrderedDict[weakref.ref, Any]" = OrderedDict()
        self.evictions = 0

    def get(self, key: object) -> Any:
        """The memoized value for *key* (refreshing its recency), or None."""
        ref = weakref.ref(key)
        value = self._entries.get(ref)
        if value is not None:
            self._entries.move_to_end(ref)
        return value

    def put(self, key: object, value: object) -> None:
        """Memoize *value* for *key*, evicting the least recently used entry."""
        entries = self._entries
        probe = weakref.ref(key)
        if probe in entries:
            # Keep the stored ref (it carries the death callback).
            entries[probe] = value
            entries.move_to_end(probe)
            return

        def _drop(ref: weakref.ref, _entries: OrderedDict = entries) -> None:
            _entries.pop(ref, None)

        entries[weakref.ref(key, _drop)] = value
        while len(entries) > self.maxsize:
            entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (the eviction counter survives)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WeakKeyLRU(size={len(self._entries)}/{self.maxsize})"


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
