"""repro — Equivalence of SQL queries in presence of embedded dependencies.

A from-scratch Python implementation of Chirkova & Genesereth,
"Equivalence of SQL Queries in Presence of Embedded Dependencies"
(PODS 2009, arXiv:0812.2195): sound chase under bag and bag-set semantics,
Σ-aware equivalence tests for conjunctive and aggregate queries, and the
C&B / Bag-C&B / Bag-Set-C&B / Max-Min-C&B / Sum-Count-C&B reformulation
algorithms — plus the substrates they need (query model, bag-valued database
engine, dependency machinery, SQL and datalog front ends).

Typical use — the :class:`Session` engine binds Σ once and serves chases,
decisions, and reformulations under set, bag and bag-set semantics through
a shared cache::

    from repro import Session, parse_dependencies, parse_query

    sigma = parse_dependencies('''
        p(X,Y) -> t(X,Y,W)
        t(X,Y,Z) & t(X,Y,W) -> Z = W
    ''', set_valued=["t"])
    session = Session(dependencies=sigma)
    q1 = parse_query("Q1(X) :- p(X,Y)")
    q2 = parse_query("Q2(X) :- p(X,Y), t(X,Y,W)")
    verdict = session.decide(q1, q2, semantics="bag")
    assert verdict.equivalent

The flat functional API (``decide_equivalence``, ``sound_chase``,
``chase_and_backchase``, ...) remains available and delegates to the same
engine.
"""

from .core import (
    AggregateFunction,
    AggregateQuery,
    AggregateTerm,
    Atom,
    ConjunctiveQuery,
    Constant,
    EqualityAtom,
    Variable,
    are_isomorphic,
    cq,
    is_bag_equivalent,
    is_bag_equivalent_with_set_enforced,
    is_bag_set_equivalent,
    is_set_contained,
    is_set_equivalent,
    minimize,
)
from .chase import (
    ChaseResult,
    bag_chase,
    bag_set_chase,
    chase,
    is_assignment_fixing,
    max_bag_set_sigma_subset,
    max_bag_sigma_subset,
    set_chase,
    sound_chase,
)
from .database import (
    DatabaseInstance,
    Relation,
    canonical_database,
    satisfies,
    satisfies_all,
)
from .datalog import (
    parse_aggregate_query,
    parse_dependencies,
    parse_dependency,
    parse_query,
    render_dependency,
    render_query,
)
from .dependencies import (
    EGD,
    TGD,
    DependencySet,
    is_weakly_acyclic,
    regularize,
)
from .equivalence import (
    EquivalenceVerdict,
    decide_all,
    decide_equivalence,
    equivalent_aggregate_queries,
    equivalent_aggregate_queries_under_dependencies,
    equivalent_under_dependencies,
)
from .evaluation import Bag, evaluate, evaluate_aggregate
from .analysis import AnalysisReport, Diagnostic, TerminationCertificate, analyze
from .exceptions import (
    ChaseError,
    ChaseNonTerminationError,
    DependencyError,
    EvaluationError,
    ParseError,
    PrecheckFailedError,
    QueryError,
    ReformulationError,
    ReproError,
    SchemaError,
    SemanticsError,
    TranslationError,
    UnknownSemanticsError,
)
from .fuzz import (
    CampaignResult,
    FuzzCase,
    GeneratorConfig,
    generate_case,
    run_campaign,
    run_oracle,
)
from .reformulation import (
    ReformulationResult,
    chase_and_backchase,
    max_min_c_and_b,
    reformulate_aggregate_query,
    sum_count_c_and_b,
)
from .schema import DatabaseSchema, RelationSchema
from .semantics import Semantics
from .session import (
    BatchItem,
    BatchReport,
    CacheStats,
    ChaseCache,
    Session,
)
from .sql import query_to_sql, schema_from_ddl, translate_sql
from .views import ViewDefinition, ViewSet, rewrite_query_using_views
from .witnesses import CounterexampleWitness, find_counterexample

__version__ = "1.0.0"

__all__ = [
    "AggregateFunction",
    "AggregateQuery",
    "AggregateTerm",
    "Atom",
    "AnalysisReport",
    "Bag",
    "BatchItem",
    "BatchReport",
    "CacheStats",
    "CampaignResult",
    "FuzzCase",
    "GeneratorConfig",
    "ChaseCache",
    "ChaseError",
    "ChaseNonTerminationError",
    "ChaseResult",
    "ConjunctiveQuery",
    "Constant",
    "CounterexampleWitness",
    "DatabaseInstance",
    "DatabaseSchema",
    "Diagnostic",
    "DependencyError",
    "DependencySet",
    "EGD",
    "EqualityAtom",
    "EquivalenceVerdict",
    "EvaluationError",
    "ParseError",
    "QueryError",
    "PrecheckFailedError",
    "ReformulationError",
    "ReformulationResult",
    "Relation",
    "RelationSchema",
    "ReproError",
    "SchemaError",
    "Semantics",
    "SemanticsError",
    "Session",
    "TGD",
    "TerminationCertificate",
    "TranslationError",
    "UnknownSemanticsError",
    "Variable",
    "ViewDefinition",
    "ViewSet",
    "analyze",
    "are_isomorphic",
    "bag_chase",
    "bag_set_chase",
    "canonical_database",
    "chase",
    "chase_and_backchase",
    "cq",
    "decide_all",
    "decide_equivalence",
    "equivalent_aggregate_queries",
    "equivalent_aggregate_queries_under_dependencies",
    "equivalent_under_dependencies",
    "evaluate",
    "evaluate_aggregate",
    "find_counterexample",
    "generate_case",
    "is_assignment_fixing",
    "is_bag_equivalent",
    "is_bag_equivalent_with_set_enforced",
    "is_bag_set_equivalent",
    "is_set_contained",
    "is_set_equivalent",
    "is_weakly_acyclic",
    "max_bag_set_sigma_subset",
    "max_bag_sigma_subset",
    "max_min_c_and_b",
    "minimize",
    "parse_aggregate_query",
    "parse_dependencies",
    "parse_dependency",
    "parse_query",
    "query_to_sql",
    "reformulate_aggregate_query",
    "regularize",
    "rewrite_query_using_views",
    "render_dependency",
    "render_query",
    "run_campaign",
    "run_oracle",
    "satisfies",
    "satisfies_all",
    "schema_from_ddl",
    "set_chase",
    "sound_chase",
    "sum_count_c_and_b",
    "translate_sql",
]
