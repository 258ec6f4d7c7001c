"""Exception hierarchy for the :mod:`repro` library.

All errors raised by the library derive from :class:`ReproError`, so callers
can catch a single base class.  More specific subclasses communicate *which*
stage of the pipeline failed (parsing, schema validation, chase,
reformulation, evaluation).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class QueryError(ReproError):
    """A conjunctive or aggregate query is malformed (e.g. unsafe head)."""


class SchemaError(ReproError):
    """A database schema, relation schema, or instance violates arity rules."""


class DependencyError(ReproError):
    """An embedded dependency is malformed or cannot be normalised."""


class PrecheckFailedError(DependencyError):
    """A strict Session precheck refused Σ before any chase step ran.

    Raised by ``Session(precheck="strict")`` (and by the serve daemon's
    strict ``analyze`` op) when the static analyzer produced error-severity
    diagnostics — a non-weakly-acyclic Σ or an arity conflict.  ``report``
    carries the full :class:`repro.analysis.static.AnalysisReport` (typed as
    ``object`` here to keep the exceptions module dependency-free), so
    callers can render the witness cycle or serialize the diagnostics.
    """

    def __init__(self, message: str, report: object | None = None):
        super().__init__(message)
        self.report = report


class ChaseError(ReproError):
    """The chase could not be carried out (internal inconsistency)."""


class DeltaRejectedError(ChaseError):
    """An instance/Σ delta cannot be applied to a chase state.

    Raised by the incremental-chase layer (:mod:`repro.chase.incremental`)
    and by ``Session.apply_delta`` when a delta is structurally invalid:
    empty, removing an atom the base query does not contain, removing a
    dependency Σ does not contain, or adding an atom whose arity conflicts
    with the predicate's known arity.  ``reason`` carries a stable
    machine-readable slug (``"empty-delta"``, ``"unknown-atom"``,
    ``"unknown-dependency"``, ``"arity-conflict"``) that the serve daemon
    forwards in its structured ``delta-rejected`` error responses.
    """

    def __init__(self, message: str, reason: str = "invalid-delta"):
        super().__init__(message)
        self.reason = reason


class ChaseNonTerminationError(ChaseError):
    """The chase exceeded its step budget without reaching a terminal result.

    Chase under arbitrary embedded dependencies may not terminate; callers
    can either supply weakly acyclic dependencies (guaranteed termination,
    see :mod:`repro.dependencies.weak_acyclicity`) or raise the ``max_steps``
    budget.
    """

    def __init__(self, message: str, steps_taken: int):
        super().__init__(message)
        self.steps_taken = steps_taken


class ParseError(ReproError):
    """Raised by the SQL and datalog parsers on invalid input."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class TranslationError(ReproError):
    """SQL could not be translated to a conjunctive / aggregate query."""


class EvaluationError(ReproError):
    """Query evaluation against a database instance failed."""


class ReformulationError(ReproError):
    """A reformulation algorithm received inputs it cannot handle."""


class SemanticsError(ReproError):
    """A problem with a query-evaluation semantics."""


class UnknownSemanticsError(SemanticsError, KeyError):
    """A name that is none of the paper's three semantics (nor an alias of one).

    Raised by every :class:`repro.session.Session` entry point, and by
    ``Session(default_semantics=...)`` itself.  ``known`` lists the
    canonical names, so the error message doubles as discovery.
    """

    def __init__(self, name: object, known: "tuple[str, ...]" = ()):
        message = f"unknown semantics {name!r}"
        if known:
            message += f"; known semantics: {', '.join(known)}"
        # Bypass KeyError.__str__'s repr-of-args behaviour.
        Exception.__init__(self, message)
        self.name = name
        self.known = tuple(known)

    def __reduce__(self):
        # Default pickling would re-run __init__ with the formatted message
        # as `name`, double-wrapping it after a worker-process round trip.
        return (type(self), (self.name, self.known))

    def __str__(self) -> str:
        return self.args[0]
