"""The unified Session engine API.

One façade object — :class:`Session` — dispatches on the paper's three
semantics (:mod:`repro.session.strategies`: the sound chase and the
equivalence test of each) and owns the components every scaling feature
plugs into:

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
from .cache import CacheStats, ChaseCache
from .engine import ChaseResultStore, Session, assert_proposition_6_1

__all__ = [
    "BatchItem",
    "BatchReport",
    "CacheStats",
    "ChaseCache",
    "ChaseResultStore",
    "Session",
    "assert_proposition_6_1",
    "decide_many",
    "reformulate_many",
]
