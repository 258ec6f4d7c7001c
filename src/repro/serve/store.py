"""Disk-backed chase-result store: restarts start warm.

The in-memory :class:`~repro.session.cache.ChaseCache` dies with its
process, so every daemon restart used to pay the full cold-chase cost for
each distinct (query, Σ, semantics, budget) all over again.  The
:class:`ChaseStore` persists terminal chase results to an append-only JSONL
file keyed by a stable digest of the session's :class:`~repro.session.cache.
ChaseKey`, and a :class:`~repro.session.Session` constructed with
``store=ChaseStore(path)`` consults it on every in-memory miss and
writes through every cold chase.

Design notes:

* **Keys are digests, not pickles.**  A ``ChaseKey`` already canonicalizes
  everything that determines a chase result — the query's structural key
  (alpha-variants collide on purpose), Σ's name-insensitive fingerprint, the
  semantics' frozen (name, class path) pair, and the step budget.  The store
  walks that structure and hashes a canonical JSON encoding of it (terms
  tagged by kind, sets sorted), so the digest is stable across processes,
  Python versions, and hash-seed randomization — none of which is true of
  ``hash()``.
* **Values are re-parseable text, not pickles.**  The stored value is the
  terminal query in the library's own rule notation (plus the semantics
  name, termination flag, and step count).  Loading re-parses and therefore
  re-interns in the loading process; nothing in the file format depends on
  interpreter internals, and a hostile store file can at worst fail to
  parse — it cannot execute anything.
* **Corruption degrades to cold, never to wrong.**  Each line is
  self-contained; unreadable or version-mismatched lines, and lines whose
  semantics is not ``set``, ``bag`` or ``bag-set``, are counted and
  skipped at load, and a completely unparseable file simply yields an empty
  store.  A digest collision would require breaking SHA-256.
* **Restored results carry no step trace or profile** (``steps=[]``,
  ``profile=None``): the decision procedures consume only the terminal
  ``.query``, and re-deriving the trace would be exactly the chase the store
  exists to skip.  ``store_hit`` on the record distinguishes them.
* **Σ is encoded once per Σ value.**  The canonical JSON of a key is
  ``'["T",[' + ",".join(<JSON of each part>) + "]]"`` — byte for byte what
  encoding the whole part tuple gives — so the Σ fingerprint's JSON is
  memoized by value and joined in.  The fingerprint carries its hash, so a
  memo lookup never re-hashes Σ, and it is encoded as its value, so the
  digest bytes (and every existing store file) are those of the plain
  fingerprint.  A daemon that flips Σ between two values re-encodes
  neither.
* **Records are held compactly and restored once.**  The store keeps each
  record as a ``(query text, semantics name, terminated, steps)`` tuple, not
  as its decoded JSON dict, and memoizes the restored result on that tuple:
  a record re-read after the chase cache was invalidated is not parsed
  again, and a rewritten record is a new tuple, so it misses.  The restored
  result is shared by reference, as the chase cache shares results.
* **Identical rewrites are not appended.**  ``put`` of the record already
  held for a digest writes nothing; ``writes`` counts appended lines.
* **A torn tail does not swallow the next record.**  When the file does not
  end in a newline (a crash cut its last line), one is written before the
  first append, so the fragment stays one corrupt line of its own.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from typing import IO, Any

from ..chase.set_chase import ChaseResult
from ..core.atoms import Atom, EqualityAtom
from ..core.terms import Constant, Variable
from ..datalog.parser import parse_query
from ..datalog.render import render_query
from ..dependencies.base import HashedKey
from ..exceptions import ReproError
from ..semantics import Semantics
from ..session import strategies
from ..session.cache import ChaseKey

#: Bumped when the digest encoding or record layout changes incompatibly;
#: records with another version are skipped at load (a cold start, not an
#: error).
STORE_VERSION = 1

#: Distinct Σ fingerprints whose canonical JSON the digest keeps.
_SIGMA_MEMO_SIZE = 16
#: Held records whose restored result :meth:`ChaseStore.get` keeps.
_RESTORED_MEMO_SIZE = 256

#: A held record: (query text, semantics name, terminated, step count).
_Held = tuple[str, str, bool, int]


class StoreError(ReproError):
    """The chase store could not be opened or written."""


# --------------------------------------------------------------------------- #
# Canonical key encoding
# --------------------------------------------------------------------------- #
def _encode(node: Any) -> Any:
    """Encode one node of a ChaseKey part tree as canonical JSON data.

    Every composite is tagged by kind so distinct structures can never
    collide textually (a Variable named "x" vs a Constant "x", a tuple vs a
    frozenset).  Frozensets are sorted by their encoded JSON so the encoding
    is order-insensitive exactly where the key is.
    """
    if node is None or isinstance(node, (bool, int, float, str)):
        return node
    if isinstance(node, Variable):
        return ["V", node.name]
    if isinstance(node, Constant):
        return ["C", _encode(node.value)]
    if isinstance(node, Atom):
        return ["A", node.predicate, [_encode(t) for t in node.terms]]
    if isinstance(node, EqualityAtom):
        return ["E", _encode(node.left), _encode(node.right)]
    if isinstance(node, tuple):
        return ["T", [_encode(item) for item in node]]
    if isinstance(node, (frozenset, set)):
        encoded = [_encode(item) for item in node]
        encoded.sort(key=lambda item: json.dumps(item, sort_keys=True))
        return ["S", encoded]
    if isinstance(node, HashedKey):  # Σ's fingerprint: the value alone keeps digests' bytes
        return _encode(node.value)
    raise StoreError(
        f"cannot build a stable store digest over {type(node).__name__!r}; "
        "extend repro.serve.store._encode for new key part types"
    )


def _canonical_json(node: Any) -> str:
    return json.dumps(_encode(node), separators=(",", ":"))


@functools.lru_cache(maxsize=_SIGMA_MEMO_SIZE)
def _sigma_json(fingerprint: Any) -> str:
    """The canonical JSON of a Σ fingerprint, memoized by value."""
    return _canonical_json(fingerprint)


def key_digest(key: ChaseKey) -> str:
    """A stable hex digest of a chase-cache key, usable across processes.

    The hashed text is ``_canonical_json(key.parts)``, assembled part by part
    so the Σ fingerprint (``parts[1]``) is encoded once per Σ value.
    """
    query, sigma, *rest = key.parts
    parts = [_canonical_json(query), _sigma_json(sigma)]
    parts.extend(_canonical_json(part) for part in rest)
    canonical = '["T",[' + ",".join(parts) + "]]"
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------- #
# Result (de)serialization
# --------------------------------------------------------------------------- #
def _held_record(result: ChaseResult) -> _Held:
    return (
        render_query(result.query),
        result.semantics.value,
        bool(result.terminated),
        result.step_count,
    )


def _line_of(digest: str, held: _Held) -> str:
    query, semantics, terminated, steps = held
    record = {
        "v": STORE_VERSION,
        "k": digest,
        "query": query,
        "semantics": semantics,
        "terminated": terminated,
        "steps": steps,
    }
    return json.dumps(record, separators=(",", ":")) + "\n"


def _held_from_line(line: str) -> tuple[str, _Held]:
    """``(digest, held record)`` of one store line; ``ValueError`` if malformed."""
    record = json.loads(line)
    if (
        not isinstance(record, dict)
        or record.get("v") != STORE_VERSION
        or not isinstance(record.get("k"), str)
        or not isinstance(record.get("query"), str)
        or record.get("semantics") not in strategies.NAMES
        or not isinstance(record.get("steps", 0), int)
    ):
        raise ValueError("malformed store record")
    held = (
        record["query"],
        record["semantics"],
        bool(record.get("terminated", True)),
        record.get("steps", 0),
    )
    return record["k"], held


@functools.lru_cache(maxsize=_RESTORED_MEMO_SIZE)
def _result_from_record(held: _Held) -> ChaseResult:
    """The result a held record restores to; a parse failure is not cached."""
    query, name, terminated, _ = held
    return ChaseResult(
        query=parse_query(query),
        steps=[],
        semantics=Semantics(name),
        terminated=terminated,
        profile=None,
    )


# --------------------------------------------------------------------------- #
class ChaseStore:
    """An append-only JSONL store of terminal chase results.

    The whole file is loaded into memory at open (records are tiny — one
    rendered query each — and lookups must be as cheap as the in-memory
    cache they back); writes append one line and flush, so a crash loses at
    most the line being written and a truncated tail is skipped on the next
    load (the next append starts on a fresh line).  Duplicate keys are legal
    — the *last* record for a digest wins at load, so rewriting an entry is
    just appending it again.

    Instances are not thread-safe by themselves; the Session serializes
    access (the serve daemon funnels every chase through one Session).
    """

    def __init__(self, path: str | os.PathLike[str]):
        self.path = os.fspath(path)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.corrupt_entries = 0
        self._records: dict[str, _Held] = {}
        #: The file's last line lacks its newline: write one before appending.
        self._torn_tail = False
        self._load()
        try:
            self._file: IO[str] | None = open(self.path, "a", encoding="utf-8")
        except OSError as exc:
            raise StoreError(f"cannot open chase store {self.path!r}: {exc}") from exc

    # ------------------------------------------------------------------ #
    def _load(self) -> None:
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                lines = handle.readlines()
        except FileNotFoundError:
            return
        except OSError as exc:
            raise StoreError(f"cannot read chase store {self.path!r}: {exc}") from exc
        self._torn_tail = bool(lines) and not lines[-1].endswith("\n")
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                digest, held = _held_from_line(line)
            except ValueError:
                # One bad line (partial write, hand edit, version skew) costs
                # one cold chase, not the store.
                self.corrupt_entries += 1
                continue
            self._records[digest] = held

    # ------------------------------------------------------------------ #
    def get(self, key: ChaseKey) -> ChaseResult | None:
        """The stored terminal result for *key*, restored, or ``None``.

        A record that fails to re-parse (e.g. written by a newer grammar) is
        dropped and counted corrupt — the caller falls back to a cold chase.
        """
        digest = key_digest(key)
        held = self._records.get(digest)
        if held is None:
            self.misses += 1
            return None
        try:
            result = _result_from_record(held)
        except ReproError:
            self.corrupt_entries += 1
            self.misses += 1
            del self._records[digest]
            return None
        self.hits += 1
        return result

    def put(self, key: ChaseKey, result: ChaseResult) -> None:
        """Persist *result* under *key* (append + flush; last record wins).

        A record identical to the one held for *key* is not appended again.
        """
        if self._file is None:
            raise StoreError(f"chase store {self.path!r} is closed")
        digest = key_digest(key)
        held = _held_record(result)
        if self._records.get(digest) == held:
            return
        self._records[digest] = held
        if self._torn_tail:
            self._file.write("\n")
            self._torn_tail = False
        self._file.write(_line_of(digest, held))
        self._file.flush()
        self.writes += 1

    def close(self) -> None:
        """Flush and release the file handle (idempotent)."""
        if self._file is not None:
            self._file.close()
            self._file = None

    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, int | str]:
        """JSON-able counters for the ``stats`` endpoint and tests."""
        return {
            "path": self.path,
            "entries": len(self._records),
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "corrupt_entries": self.corrupt_entries,
        }

    def __len__(self) -> int:
        return len(self._records)

    def __enter__(self) -> "ChaseStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ChaseStore({self.path!r}, entries={len(self._records)})"
