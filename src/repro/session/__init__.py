"""The unified Session engine API.

One façade object — :class:`Session` — owns the three components every
scaling feature plugs into:

* :class:`SemanticsRegistry` — pluggable semantics → strategy dispatch
  (:mod:`repro.session.registry`, :mod:`repro.session.strategies`);
* :class:`ChaseCache` — canonicalized chase-result caching
  (:mod:`repro.session.cache`);
* batch pipelines with per-item error capture and optional multiprocessing
  (:mod:`repro.session.batch`).

``Session.decide`` and ``Session.reformulate`` are the entry points for the
paper's equivalence tests and C&B variants under every semantics; the
functional helpers (``equivalent_under_dependencies``,
``decide_equivalence``, ``chase_and_backchase``) build a Session per call.
"""

from .batch import BatchItem, BatchReport, decide_many, reformulate_many
from .cache import CacheStats, ChaseCache, chase_cache_key, sigma_fingerprint
from .engine import ChaseResultStore, Session, assert_proposition_6_1
from .registry import SemanticsRegistry, default_registry, normalize_semantics_name
from .strategies import (
    BUILTIN_STRATEGIES,
    BagSetStrategy,
    BagStrategy,
    SemanticsStrategy,
    SetStrategy,
)

__all__ = [
    "BUILTIN_STRATEGIES",
    "BagSetStrategy",
    "BagStrategy",
    "BatchItem",
    "BatchReport",
    "CacheStats",
    "ChaseCache",
    "ChaseResultStore",
    "SemanticsRegistry",
    "SemanticsStrategy",
    "Session",
    "SetStrategy",
    "assert_proposition_6_1",
    "chase_cache_key",
    "decide_many",
    "default_registry",
    "normalize_semantics_name",
    "reformulate_many",
    "sigma_fingerprint",
]
