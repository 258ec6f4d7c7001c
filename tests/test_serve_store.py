"""Tests for the disk-backed chase-result store (src/repro/serve/store.py)
and the warm-state plumbing it rides on: ``Session.stats()``, the
``Session(store=...)`` read-through/write-through path, and the interned-term
snapshot handoff used by multi-process serving.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import pytest

import repro.serve.store as store_module
from repro.chase.set_chase import ChaseResult
from repro.core.terms import (
    Constant,
    Variable,
    export_interned_terms,
    pin_interned_terms,
)
from repro.datalog import parse_dependencies, parse_query, render_query
from repro.serve import ChaseStore, ReproClient, ReproServer, key_digest
from repro.semantics import Semantics
from repro.serve.ops import execute_op
from repro.session import Session

#: A store file written before the Σ part of the digest was memoized.
STORE_V1_FIXTURE = Path(__file__).parent / "fixtures" / "chase_store_v1.jsonl"

#: Example 4.1's Σ plus a 12-relation key chain (29 dependencies): the Σ of
#: the daemon churn workload.
_CHAIN = [f"r{i}" for i in range(1, 13)]
CHURN_SIGMA = "\n".join(
    [
        "p(X,Y) -> s(X,Z) & t(X,V,W)",
        "p(X,Y) -> t(X,Y,W)",
        "p(X,Y) -> r(X)",
        "p(X,Y) -> u(X,Z) & t(X,Y,W)",
        "s(X,Y) & s(X,Z) -> Y = Z",
        "t(X,Y,Z) & t(X,Y,W) -> Z = W",
    ]
    + [f"{rel}(X1,Y2a) & {rel}(X1,Y2b) -> Y2a = Y2b" for rel in _CHAIN]
    + [f"{a}(X1,X2) -> {b}(X2,Y1)" for a, b in zip(_CHAIN, _CHAIN[1:])]
)
CHURN_SET_VALUED = ["s", "t", *_CHAIN]
CHURN_QUERY = "Q(X0) :- r1(X0, X1)"

#: Digests of fixed keys, computed before the Σ part was memoized.  Changing
#: any of them orphans every store file already written.
GOLDEN_DIGESTS = {
    ("ex41.q1", "set"): "d3b6c04e0b85be6f2c7bc2071e25157de5cc293108d84f04310f2427d0659516",
    ("ex41.q1", "bag"): "9c4c356bcaf1872494814cf6357421852d427f3b5ac338bca008bffa3cd3f228",
    ("ex41.q1", "bag-set"): "20142612977eec5d1548a263837d10984eb74e3d5219d819a14018c831fe809c",
    ("ex41.q4", "set"): "76b15e0f1a98a29396910cd0345538840561870365e0d0b3d731e6f80c07e60a",
    ("ex41.q4", "bag"): "3f25c2050f8bcae1f61acb3a3f8d270d81f07fc5b122d347243ebef8417791d1",
    ("ex41.q4", "bag-set"): "c1be9e4932980fd68dfcb3f77ab2753e35c27fdfb6e6c3eb95c5c1c77118b018",
    ("churn", "set"): "43c0663cae7bf60cff3415ff5c7b2a0f256b083836a41e4e128aafbad8b071b9",
    ("churn", "bag"): "ca7bd6dcc85fc08f87b742adb6d966c703de75eecc32a11ea554a0dfe92d8ed3",
    ("churn", "bag-set"): "cbb407f74eb34f6b007ba0c62c71693b27d16ad919c62fa6589d046c4ac7066d",
}
SEMANTICS = ("set", "bag", "bag-set")


def _key(session: Session, query, semantics: str = "bag"):
    return session._chase_key(query, Semantics(semantics), session.max_steps)


def _churn_session(**kwargs) -> Session:
    return Session(
        dependencies=parse_dependencies(CHURN_SIGMA, set_valued=CHURN_SET_VALUED),
        **kwargs,
    )


def _whole_key_digest(key) -> str:
    """The digest as one encoding of the whole key: what every store holds."""
    canonical = json.dumps(store_module._encode(key.parts), separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _counting(monkeypatch, module, name: str) -> list:
    """Wrap ``module.name`` so each call's first argument is recorded."""
    calls: list = []
    real = getattr(module, name)

    def counting(arg, *args, **kwargs):
        calls.append(arg)
        return real(arg, *args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


# --------------------------------------------------------------------------- #
class TestKeyDigest:
    def test_digest_is_stable_and_alpha_invariant(self, ex41):
        session = Session(dependencies=ex41.dependencies)
        key = _key(session, ex41.q1)
        assert key_digest(key) == key_digest(key)
        # An alpha-renamed copy of Q1 canonicalizes to the same ChaseKey,
        # hence the same digest — the on-disk entry is shared.
        renamed, _ = ex41.q1.freshen()
        assert key_digest(_key(session, renamed)) == key_digest(key)

    def test_digest_distinguishes_semantics_and_queries(self, ex41):
        session = Session(dependencies=ex41.dependencies)
        digests = {
            key_digest(_key(session, query, semantics))
            for query in (ex41.q1, ex41.q4)
            for semantics in ("set", "bag")
        }
        assert len(digests) == 4

    def test_digest_survives_process_boundary(self, ex41):
        """The digest must not depend on PYTHONHASHSEED or intern uids.

        Simulated here by recomputing through a fresh Session (fresh
        canonicalization) rather than a fresh interpreter; the subprocess
        variant is covered by the CI smoke job's restart-warm assertion.
        """
        first = key_digest(_key(Session(dependencies=ex41.dependencies), ex41.q1))
        second = key_digest(_key(Session(dependencies=ex41.dependencies), ex41.q1))
        assert first == second

    def test_golden_digests(self, ex41):
        """The digest bytes are pinned: existing store files keep hitting."""
        ex41_session = Session(dependencies=ex41.dependencies)
        churn = _churn_session()
        keys = {
            ("ex41.q1", semantics): _key(ex41_session, ex41.q1, semantics)
            for semantics in SEMANTICS
        }
        keys.update(
            (("ex41.q4", semantics), _key(ex41_session, ex41.q4, semantics))
            for semantics in SEMANTICS
        )
        keys.update(
            (("churn", semantics), _key(churn, parse_query(CHURN_QUERY), semantics))
            for semantics in SEMANTICS
        )
        store_module._sigma_json.cache_clear()
        for _ in range(2):  # memo misses, then memo hits
            assert {name: key_digest(key) for name, key in keys.items()} == GOLDEN_DIGESTS
        assert store_module.STORE_VERSION == 1

    def test_digest_equals_whole_key_encoding(self, ex41, ex42):
        """Joining per-part JSON gives the bytes of encoding the whole key."""
        store_module._sigma_json.cache_clear()
        sessions = [Session(dependencies=ex41.dependencies), _churn_session()]
        sessions.append(Session(dependencies=ex42.dependencies))
        queries = [ex41.q1, ex41.q2, ex41.q4, ex42.query, parse_query(CHURN_QUERY)]
        for _ in range(2):  # memo misses, then memo hits
            for session in sessions:
                for query in queries:
                    for semantics in SEMANTICS:
                        key = _key(session, query, semantics)
                        assert key_digest(key) == _whole_key_digest(key)

    def test_sigma_encoded_once_per_value(self, tmp_path, monkeypatch):
        """Σ flips between two values; each value is encoded once, not per
        digest and not per fingerprint object."""
        store_module._sigma_json.cache_clear()
        encoded = _counting(monkeypatch, store_module, "_canonical_json")
        session = _churn_session(
            store=ChaseStore(tmp_path / "store.jsonl"), chase_resumable=True
        )
        fingerprints = [session.dependencies.fingerprint]
        params = {"query": CHURN_QUERY, "semantics": "bag-set"}
        for _ in range(3):
            for edit in ("add_dependencies", "remove_dependencies"):
                execute_op(session, "apply-delta", dict(params, **{edit: "r1(X,Y) -> w(X)"}))
                execute_op(
                    session,
                    "decide",
                    {"query": CHURN_QUERY, "other": "Q(X0) :- r1(X0, X1), r2(X1, X2)"},
                )
                fingerprints.append(session.dependencies.fingerprint)
        session.store.close()
        assert len({id(fingerprint) for fingerprint in fingerprints}) == 7
        assert len(set(fingerprints)) == 2
        stats = session.store.stats()
        assert stats["hits"] + stats["misses"] + stats["writes"] > 6
        sigma_encodings = [node for node in encoded if node in set(fingerprints)]
        assert len(sigma_encodings) == 2


# --------------------------------------------------------------------------- #
class TestStoreFormat:
    def test_store_written_before_the_memo_is_hit(self, tmp_path, ex41):
        """A version-1 store file from the unmemoized encoder serves every
        lookup off disk: nine hits, no chase, nothing appended."""
        path = tmp_path / "store.jsonl"
        shutil.copyfile(STORE_V1_FIXTURE, path)
        store = ChaseStore(path)
        assert len(store) == 9 and store.corrupt_entries == 0
        ex41_session = Session(dependencies=ex41.dependencies, store=store)
        churn = _churn_session(store=store)
        for semantics in SEMANTICS:
            ex41_session.chase(ex41.q1, semantics)
            ex41_session.chase(ex41.q4, semantics)
            churn.chase(parse_query(CHURN_QUERY), semantics)
        store.close()
        assert ex41_session.chase_profile().runs == 0
        assert churn.chase_profile().runs == 0
        stats = store.stats()
        assert (stats["hits"], stats["misses"], stats["writes"]) == (9, 0, 0)
        assert path.read_bytes() == STORE_V1_FIXTURE.read_bytes()

    def test_record_appended_after_torn_tail_survives(self, tmp_path, ex41):
        """A crash tore the last line; the next record must not be glued to
        the fragment (the fragment stays one corrupt line of its own)."""
        path = tmp_path / "store.jsonl"
        writer = Session(dependencies=ex41.dependencies, store=ChaseStore(path))
        writer.decide(ex41.q1, ex41.q4, "bag")
        writer.store.close()
        path.write_bytes(path.read_bytes()[:-40])

        rechase = Session(dependencies=ex41.dependencies, store=ChaseStore(path))
        assert rechase.store.corrupt_entries == 1
        rechase.decide(ex41.q1, ex41.q4, "bag")
        assert rechase.chase_profile().runs == 1  # the lost record's query
        assert rechase.store.stats()["writes"] == 1
        rechase.store.close()

        reader = Session(dependencies=ex41.dependencies, store=ChaseStore(path))
        reader.decide(ex41.q1, ex41.q4, "bag")
        reader.store.close()
        stats = reader.store.stats()
        assert (stats["hits"], stats["misses"]) == (2, 0)
        assert reader.chase_profile().runs == 0
        assert stats["corrupt_entries"] == 1

    def test_reopening_a_torn_store_leaves_it_alone(self, tmp_path):
        """The newline is written before the first append, not at open."""
        path = tmp_path / "store.jsonl"
        path.write_text('{"v":1,"k":"ab')
        ChaseStore(path).close()
        assert path.read_text() == '{"v":1,"k":"ab'


# --------------------------------------------------------------------------- #
class TestStoreMemos:
    def test_repeated_hit_returns_the_same_result_without_parsing(
        self, tmp_path, ex41, monkeypatch
    ):
        path = tmp_path / "store.jsonl"
        writer = Session(dependencies=ex41.dependencies, store=ChaseStore(path))
        writer.decide(ex41.q1, ex41.q4, "bag")
        writer.store.close()
        store_module._result_from_record.cache_clear()
        parses = _counting(monkeypatch, store_module, "parse_query")

        store = ChaseStore(path)
        key = _key(Session(dependencies=ex41.dependencies), ex41.q1)
        first = store.get(key)
        assert first is not None and len(parses) == 1
        assert store.get(key) is first
        # A Σ edit invalidates a session's chase cache; the store re-reads
        # the record without parsing it again.
        session = Session(dependencies=ex41.dependencies, store=store)
        assert session.chase(ex41.q1, "bag") is first
        session.set_dependencies(ex41.dependencies)
        assert session.chase(ex41.q1, "bag") is first
        assert len(parses) == 1
        assert store.stats()["hits"] == 4
        store.close()

    def test_parse_failure_is_not_cached(self, tmp_path, ex41, monkeypatch):
        path = tmp_path / "store.jsonl"
        writer = Session(dependencies=ex41.dependencies, store=ChaseStore(path))
        writer.chase(ex41.q1, "bag")
        writer.store.close()
        record = json.loads(path.read_text())
        record["query"] = "Q1(X) :- p(X,"
        path.write_text(json.dumps(record) + "\n")
        store_module._result_from_record.cache_clear()
        parses = _counting(monkeypatch, store_module, "parse_query")
        key = _key(Session(dependencies=ex41.dependencies), ex41.q1)
        for _ in range(2):
            store = ChaseStore(path)
            assert store.get(key) is None
            assert store.stats()["corrupt_entries"] == 1
            assert len(store) == 0
            store.close()
        assert len(parses) == 2

    def test_identical_put_appends_nothing_and_changed_put_appends(
        self, tmp_path, ex41
    ):
        path = tmp_path / "store.jsonl"
        session = Session(dependencies=ex41.dependencies)
        key = _key(session, ex41.q1)
        result = session.chase(ex41.q1, "bag")
        store = ChaseStore(path)
        store.put(key, result)
        restored = store.get(key)
        store.put(key, result)
        assert store.stats()["writes"] == 1
        assert len(path.read_text().splitlines()) == 1
        # The live result is not what a hit returns: restored results carry
        # no step trace or profile.
        assert restored is not result
        assert restored.steps == [] and restored.profile is None
        assert render_query(restored.query) == render_query(result.query)

        changed = ChaseResult(
            query=session.chase(ex41.q4, "bag").query,
            steps=list(result.steps),
            semantics=result.semantics,
        )
        store.put(key, changed)
        assert store.stats()["writes"] == 2
        assert len(path.read_text().splitlines()) == 2
        assert render_query(store.get(key).query) == render_query(changed.query)
        store.close()
        reopened = ChaseStore(path)
        assert render_query(reopened.get(key).query) == render_query(changed.query)
        reopened.close()


# --------------------------------------------------------------------------- #
class TestChaseStore:
    def test_round_trip(self, tmp_path, ex41):
        path = tmp_path / "store.jsonl"
        writer = Session(dependencies=ex41.dependencies, store=ChaseStore(path))
        writer.decide(ex41.q1, ex41.q4, "bag")
        writer.store.close()
        assert writer.store.stats()["writes"] >= 2

        reader = ChaseStore(path)
        assert len(reader) >= 2
        key = _key(Session(dependencies=ex41.dependencies), ex41.q1)
        restored = reader.get(key)
        assert restored is not None
        assert restored.terminated is True
        assert reader.stats()["hits"] == 1
        reader.close()

    def test_restart_serves_warm(self, tmp_path, ex41):
        """The acceptance criterion: after restart, request one is a store
        hit, not a cold chase (profile runs stay at zero)."""
        path = tmp_path / "store.jsonl"
        cold = Session(dependencies=ex41.dependencies, store=ChaseStore(path))
        verdict = cold.decide(ex41.q1, ex41.q4, "bag")
        cold_runs = cold.chase_profile().runs
        assert cold_runs >= 2
        cold.store.close()

        warm = Session(dependencies=ex41.dependencies, store=ChaseStore(path))
        assert warm.decide(ex41.q1, ex41.q4, "bag").equivalent == verdict.equivalent
        assert warm.chase_profile().runs == 0  # every chase came off disk
        assert warm.store.stats()["hits"] >= 2
        warm.store.close()

    def test_corrupted_lines_are_skipped(self, tmp_path, ex41):
        path = tmp_path / "store.jsonl"
        session = Session(dependencies=ex41.dependencies, store=ChaseStore(path))
        session.decide(ex41.q1, ex41.q4, "bag")
        session.store.close()

        good_lines = path.read_text().splitlines()
        path.write_text(
            "not json at all\n"
            + good_lines[0]
            + "\n"
            + json.dumps({"v": 999, "k": "deadbeef"})
            + "\n"
            + json.dumps({**json.loads(good_lines[0]), "k": "cafe", "semantics": "prob"})
            + "\n"
            + "\n".join(good_lines[1:])
            + "\n"
        )
        store = ChaseStore(path)
        assert store.corrupt_entries == 3
        assert len(store) == len(good_lines)
        store.close()

    def test_totally_corrupt_store_falls_back_to_cold(self, tmp_path, ex41):
        path = tmp_path / "store.jsonl"
        path.write_text("garbage\x00garbage\nmore garbage\n")
        session = Session(dependencies=ex41.dependencies, store=ChaseStore(path))
        assert session.store.corrupt_entries >= 1
        assert len(session.store) == 0
        # Decisions still work; they just chase cold and repopulate the file.
        assert session.decide(ex41.q1, ex41.q4, "set").equivalent is True
        assert session.store.stats()["writes"] >= 2
        session.store.close()

    def test_last_record_wins(self, tmp_path, ex41):
        path = tmp_path / "store.jsonl"
        session = Session(dependencies=ex41.dependencies, store=ChaseStore(path))
        session.decide(ex41.q1, ex41.q1, "set")
        session.store.close()
        lines = path.read_text().splitlines()
        # Duplicate every record; the store must load each key once.
        path.write_text("\n".join(lines + lines) + "\n")
        store = ChaseStore(path)
        assert len(store) == len({json.loads(line)["k"] for line in lines})
        store.close()


# --------------------------------------------------------------------------- #
class TestServedStore:
    def test_serve_shutdown_restart_warm(self, tmp_path, ex41):
        """End-to-end through the daemon: serve, stop, restart on the same
        store file — the restarted daemon's first decide is warm."""
        from repro.datalog import render_query

        path = tmp_path / "store.jsonl"
        q1, q4 = render_query(ex41.q1), render_query(ex41.q4)

        first = ReproServer(
            Session(dependencies=ex41.dependencies), port=0, store=ChaseStore(path)
        )
        with first.start_in_thread() as handle:
            with ReproClient(handle.host, handle.port) as client:
                client.decide(q1, q4, "bag")
                stats = client.stats()
                assert stats["store"]["writes"] >= 2
                assert stats["profile"]["runs"] >= 2  # cold chases happened

        second = ReproServer(
            Session(dependencies=ex41.dependencies), port=0, store=ChaseStore(path)
        )
        with second.start_in_thread() as handle:
            with ReproClient(handle.host, handle.port) as client:
                served = client.decide(q1, q4, "bag")
                assert served["equivalent"] is False
                stats = client.stats()
                assert stats["store"]["hits"] >= 2  # served from disk...
                assert stats["profile"]["runs"] == 0  # ...not re-chased
                assert client.health()["store"] is True


# --------------------------------------------------------------------------- #
class TestSessionStats:
    def test_sections_and_counters(self, ex41):
        session = Session(dependencies=ex41.dependencies)
        session.decide(ex41.q1, ex41.q4, "bag")
        session.decide(ex41.q1, ex41.q4, "bag")
        stats = session.stats()
        assert stats["chase_cache"]["hits"] >= 2
        assert stats["chase_cache"]["misses"] >= 2
        assert 0.0 <= stats["chase_cache"]["hit_rate"] <= 1.0
        assert stats["profile"]["runs"] == 2
        assert stats["intern"]["variables"] > 0
        assert "store" not in stats  # no store attached

    def test_store_section_present_when_attached(self, tmp_path, ex41):
        session = Session(
            dependencies=ex41.dependencies, store=ChaseStore(tmp_path / "s.jsonl")
        )
        stats = session.stats()
        assert stats["store"]["entries"] == 0
        session.store.close()

    def test_profile_as_dict_derivations(self, ex41):
        session = Session(dependencies=ex41.dependencies)
        session.decide(ex41.q1, ex41.q4, "bag")
        profile = session.chase_profile().as_dict()
        assert profile["steps"] == profile["tgd_steps"] + profile["egd_steps"]
        assert 0.0 <= profile["index_hit_rate"] <= 1.0


# --------------------------------------------------------------------------- #
class TestInternSnapshot:
    def test_export_and_pin_round_trip(self):
        x, c = Variable("snapx"), Constant("snapc")
        snapshot = export_interned_terms()
        assert ("V", "snapx") in snapshot and ("C", "snapc") in snapshot
        # Pinning in the same process re-interns to the identical objects.
        pinned = pin_interned_terms(snapshot)
        assert pinned == len(snapshot)
        assert Variable("snapx") is x and Constant("snapc") is c

    def test_pin_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            pin_interned_terms([("Q", "nope")])
