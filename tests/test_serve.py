"""Tests for the ``repro serve`` daemon (src/repro/serve/server.py, client.py).

The fixtures run the real asyncio server in-process on an event-loop thread
(``ReproServer.start_in_thread`` — the same code path as the CLI daemon,
minus the process boundary) and drive it through the real TCP client, so
what is tested is the full wire round trip: framing, dispatch, executor
offload, error mapping, and the warm shared state that is the daemon's
reason to exist.
"""

from __future__ import annotations

import json
import logging
import socket
import threading
import time
import types

import pytest

import repro.serve.ops as ops
from repro.datalog import parse_dependencies, render_query
from repro.serve import ReproClient, ReproServer, ServerError
from repro.serve.protocol import ProtocolError
from repro.session import Session

#: A cyclic dependency set: the chase runs to its step budget and fails.
CYCLIC = "p(X,Y) -> p(Y,Z)"


@pytest.fixture()
def server41(ex41):
    """A running server over Example 4.1's Σ, plus a direct twin Session."""
    server = ReproServer(Session(dependencies=ex41.dependencies), port=0)
    with server.start_in_thread() as handle:
        yield handle


@pytest.fixture()
def client(server41):
    with ReproClient(server41.host, server41.port) as client:
        yield client


def _q(query) -> str:
    return render_query(query)


# --------------------------------------------------------------------------- #
class TestEndpoints:
    def test_health(self, client, ex41):
        health = client.health()
        assert health["status"] == "ok"
        assert set(health["semantics"]) == {"set", "bag", "bag-set"}
        assert health["dependencies"] == len(ex41.dependencies)
        assert health["store"] is False

    def test_decide_matches_direct_session(self, client, ex41):
        """Verdicts over the wire equal direct Session calls (Example 4.1)."""
        direct = Session(dependencies=ex41.dependencies)
        for semantics in ("set", "bag", "bag-set"):
            served = client.decide(_q(ex41.q1), _q(ex41.q4), semantics)
            expected = direct.decide(ex41.q1, ex41.q4, semantics)
            assert served["equivalent"] == expected.equivalent, semantics
        # The paper's headline: Q1 ≡Σ,S Q4 but not under bag / bag-set.
        assert client.decide(_q(ex41.q1), _q(ex41.q4), "set")["equivalent"]
        assert not client.decide(_q(ex41.q1), _q(ex41.q4), "bag")["equivalent"]

    def test_decide_default_semantics(self, client, ex41):
        served = client.decide(_q(ex41.q1), _q(ex41.q4))
        assert served["semantics"] == "bag-set"

    def test_reformulate(self, client, ex41):
        direct = Session(dependencies=ex41.dependencies)
        served = client.reformulate(_q(ex41.q4), "bag")
        expected = direct.reformulate(
            ex41.q4, "bag", check_sigma_minimality=False
        )
        assert served["universal_plan"] == render_query(expected.universal_plan)
        assert sorted(served["reformulations"]) == sorted(
            render_query(q) for q in expected.reformulations
        )

    def test_reformulate_reports_candidate_counts(self, client, ex41):
        served = client.reformulate(_q(ex41.q4), "bag")
        expected = Session(dependencies=ex41.dependencies).reformulate(
            ex41.q4, "bag", check_sigma_minimality=False
        )
        assert served["candidates_examined"] == expected.candidates_examined
        assert served["candidates_chased"] == expected.candidates_chased
        assert 0 <= served["candidates_chased"] <= served["candidates_examined"]
        assert served["candidates_examined"] > 0

    def test_reformulate_minimal_only(self, client, ex41):
        served = client.reformulate(_q(ex41.q4), "bag", minimal_only=True)
        assert "minimal_reformulations" in served
        assert set(served["minimal_reformulations"]) <= set(served["reformulations"])

    def test_batch(self, client, ex41):
        report = client.batch(
            [[_q(ex41.q1), _q(ex41.q4)], [_q(ex41.q1), _q(ex41.q1)]], "set"
        )
        assert report["ok_count"] == 2 and report["error_count"] == 0
        assert [item["equivalent"] for item in report["items"]] == [True, True]

    def test_batch_isolates_bad_items(self, client, ex41):
        report = client.batch([[_q(ex41.q1), "broken(("], [_q(ex41.q1), _q(ex41.q1)]])
        assert report["ok_count"] == 1 and report["error_count"] == 1
        assert report["items"][0]["error"]["code"] == "parse-error"
        assert report["items"][1]["equivalent"] is True

    def test_stats_shape(self, client):
        stats = client.stats()
        for section in ("chase_cache", "plan_cache", "intern", "profile", "server"):
            assert section in stats, section
        assert stats["server"]["connections_accepted"] >= 1

    def test_request_ids_echoed(self, client):
        response = client.request("health", check=False)
        assert response["id"] == client._next_id


# --------------------------------------------------------------------------- #
class TestWarmState:
    def test_second_identical_request_is_cache_served(self, client, ex41):
        """The tentpole's point: request two is answered from warm state.

        After the first decide, the second identical decide increases the
        chase-cache hit counter by exactly its two lookups and performs no
        new chase (the cold-run counter on the profile stays put).
        """
        client.decide(_q(ex41.q1), _q(ex41.q4), "bag")
        before = client.stats()
        client.decide(_q(ex41.q1), _q(ex41.q4), "bag")
        after = client.stats()
        assert (
            after["chase_cache"]["hits"] == before["chase_cache"]["hits"] + 2
        )
        assert after["chase_cache"]["misses"] == before["chase_cache"]["misses"]
        assert after["profile"]["runs"] == before["profile"]["runs"]

    def test_warm_state_shared_across_connections(self, server41, ex41):
        """A second client benefits from the first client's chases."""
        with ReproClient(server41.host, server41.port) as first:
            first.decide(_q(ex41.q1), _q(ex41.q4), "bag")
            runs_after_first = first.stats()["profile"]["runs"]
        with ReproClient(server41.host, server41.port) as second:
            second.decide(_q(ex41.q1), _q(ex41.q4), "bag")
            stats = second.stats()
        assert stats["profile"]["runs"] == runs_after_first  # no new cold chase
        assert stats["server"]["connections_accepted"] >= 2

    def test_concurrent_clients_agree_with_direct_session(self, server41, ex41):
        """Many threads hammering one daemon all get the direct-call verdicts."""
        direct = Session(dependencies=ex41.dependencies)
        cases = [
            (_q(ex41.q1), _q(ex41.q4), "set", direct.decide(ex41.q1, ex41.q4, "set").equivalent),
            (_q(ex41.q1), _q(ex41.q4), "bag", direct.decide(ex41.q1, ex41.q4, "bag").equivalent),
            (_q(ex41.q2), _q(ex41.q4), "bag-set", direct.decide(ex41.q2, ex41.q4, "bag-set").equivalent),
            (_q(ex41.q3), _q(ex41.q4), "bag", direct.decide(ex41.q3, ex41.q4, "bag").equivalent),
        ]
        failures: list[str] = []

        def hammer(worker: int) -> None:
            try:
                with ReproClient(server41.host, server41.port) as client:
                    for repeat in range(3):
                        for query, other, semantics, expected in cases:
                            got = client.decide(query, other, semantics)["equivalent"]
                            if got != expected:
                                failures.append(
                                    f"worker {worker} repeat {repeat}: "
                                    f"{semantics} got {got}, want {expected}"
                                )
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                failures.append(f"worker {worker}: {type(exc).__name__}: {exc}")

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not failures, failures


# --------------------------------------------------------------------------- #
class TestErrorPaths:
    def test_malformed_json(self, server41):
        with socket.create_connection((server41.host, server41.port), timeout=10) as sock:
            stream = sock.makefile("rwb")
            stream.write(b"this is not json\n")
            stream.flush()
            response = json.loads(stream.readline())
        assert response["ok"] is False
        assert response["error"]["code"] == "parse-error"

    def test_non_object_request(self, server41):
        with socket.create_connection((server41.host, server41.port), timeout=10) as sock:
            stream = sock.makefile("rwb")
            stream.write(b"[1, 2, 3]\n")
            stream.flush()
            response = json.loads(stream.readline())
        assert response["error"]["code"] == "invalid-request"

    def test_unknown_op_echoes_id(self, client):
        response = client.request("frobnicate", check=False)
        assert response["error"]["code"] == "unknown-op"
        assert response["id"] == client._next_id

    def test_missing_params(self, client):
        response = client.request("decide", {"query": "Q(X) :- p(X)"}, check=False)
        assert response["error"]["code"] == "invalid-request"
        assert "other" in response["error"]["message"]

    def test_unparseable_query(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.decide("garbage((", "Q(X) :- p(X)")
        assert excinfo.value.code == "parse-error"

    def test_unknown_semantics(self, client, ex41):
        response = client.request(
            "decide",
            {"query": _q(ex41.q1), "other": _q(ex41.q4), "semantics": "probabilistic"},
            check=False,
        )
        assert response["error"]["code"] == "unknown-semantics"

    def test_bad_max_steps(self, client, ex41):
        response = client.request(
            "decide",
            {"query": _q(ex41.q1), "other": _q(ex41.q4), "max_steps": "soon"},
            check=False,
        )
        assert response["error"]["code"] == "invalid-request"

    @pytest.mark.parametrize("semantics", [3, ["bag"], True])
    @pytest.mark.parametrize("op", ["decide", "reformulate", "batch", "apply-delta"])
    def test_semantics_that_is_no_name(self, client, ex41, op, semantics):
        params = {
            "decide": {"query": _q(ex41.q1), "other": _q(ex41.q4)},
            "reformulate": {"query": _q(ex41.q4)},
            "batch": {"pairs": [[_q(ex41.q1), _q(ex41.q4)]]},
            "apply-delta": {"query": _q(ex41.q4), "add_atoms": "r(X)"},
        }[op]
        response = client.request(op, {**params, "semantics": semantics}, check=False)
        assert response["error"]["code"] == "invalid-request"
        assert "params.semantics" in response["error"]["message"]

    @pytest.mark.parametrize("value", ["false", 1])
    def test_minimal_only_that_is_no_boolean(self, client, ex41, value):
        response = client.request(
            "reformulate", {"query": _q(ex41.q4), "minimal_only": value}, check=False
        )
        assert response["error"]["code"] == "invalid-request"
        assert "params.minimal_only" in response["error"]["message"]

    def test_internal_error_is_logged(self, ex41, caplog):
        """An unanticipated failure answers ``internal`` and logs one error."""
        session = Session(dependencies=ex41.dependencies)

        def broken_decide(*args, **kwargs):
            raise RuntimeError("boom")

        session.decide = broken_decide  # type: ignore[method-assign]
        server = ReproServer(session, port=0)
        with caplog.at_level(logging.ERROR, logger="repro.serve.server"):
            with server.start_in_thread() as handle:
                with ReproClient(handle.host, handle.port) as client:
                    response = client.request(
                        "decide",
                        {"query": _q(ex41.q1), "other": _q(ex41.q4)},
                        check=False,
                    )
                    assert client.health()["status"] == "ok"
        assert response["error"]["code"] == "internal"
        records = [r for r in caplog.records if r.name == "repro.serve.server"]
        assert [(r.levelno, r.getMessage()) for r in records] == [
            (logging.ERROR, "repro serve: internal error on op 'decide': RuntimeError: boom")
        ]

    def test_chase_failed_is_structured(self, ex41):
        """A budget-exhausting chase answers chase-failed and keeps serving."""
        session = Session(
            dependencies=parse_dependencies(CYCLIC), max_steps=20
        )
        server = ReproServer(session, port=0)
        with server.start_in_thread() as handle:
            with ReproClient(handle.host, handle.port) as client:
                response = client.request(
                    "decide",
                    {"query": "Q(X) :- p(X,Y)", "other": "Q(X) :- p(X,Z)"},
                    check=False,
                )
                assert response["error"]["code"] == "chase-failed"
                assert response["error"]["steps_taken"] >= 20
                # The failure did not take the server down.
                assert client.health()["status"] == "ok"

    def test_timeout_is_structured_and_non_fatal(self, ex41):
        """A request over budget gets a timeout error; the server survives."""
        session = Session(dependencies=ex41.dependencies)
        server = ReproServer(session, port=0, timeout=0.05)
        # A deterministic slow op: sleeping releases the GIL, so the event
        # loop reliably fires the timeout while the "engine" is busy.
        verdict = types.SimpleNamespace(
            semantics="set", chased_left=ex41.q1, chased_right=ex41.q1
        )

        def slow_decide(*args, **kwargs):
            time.sleep(0.5)
            return verdict

        session.decide = slow_decide  # type: ignore[method-assign]
        with server.start_in_thread() as handle:
            with ReproClient(handle.host, handle.port) as client:
                response = client.request(
                    "decide",
                    {"query": "Q(X) :- p(X,Y)", "other": "Q(X) :- p(X,Y)"},
                    check=False,
                )
                assert response["error"]["code"] == "timeout"
                # stats/health run on the loop, not the (busy) engine thread.
                assert client.health()["status"] == "ok"

    def test_oversized_request_refused_and_connection_closed(self, ex41):
        server = ReproServer(
            Session(dependencies=ex41.dependencies), port=0, max_request_bytes=256
        )
        with server.start_in_thread() as handle:
            with socket.create_connection((handle.host, handle.port), timeout=10) as sock:
                stream = sock.makefile("rwb")
                stream.write(b'{"op": "health", "padding": "' + b"x" * 1024 + b'"}\n')
                stream.flush()
                response = json.loads(stream.readline())
                assert response["error"]["code"] == "request-too-large"
                # The server closed this connection (the frame boundary is
                # unrecoverable) but keeps accepting new ones.
                assert stream.readline() == b""
            with ReproClient(handle.host, handle.port) as client:
                assert client.health()["status"] == "ok"

    def test_blank_lines_are_keepalives(self, server41):
        with socket.create_connection((server41.host, server41.port), timeout=10) as sock:
            stream = sock.makefile("rwb")
            stream.write(b"\n\n" + json.dumps({"op": "health"}).encode() + b"\n")
            stream.flush()
            response = json.loads(stream.readline())
        assert response["ok"] is True


# --------------------------------------------------------------------------- #
class TestAnalyzeOp:
    """The ``analyze`` op: the static analyzer over the wire."""

    def test_analyze_session_sigma(self, client, ex41):
        result = client.request("analyze", {})
        assert result["ok"] is True
        assert "Σ certified" in result["summary"]
        codes = {d["code"] for d in result["diagnostics"]}
        assert "sigma-certified" in codes
        assert result["certificate"] is not None

    def test_analyze_explicit_cyclic_sigma(self, client):
        result = client.request("analyze", {"dependencies": CYCLIC})
        assert result["ok"] is False
        assert result["witness"] is not None
        codes = {d["code"] for d in result["diagnostics"]}
        assert "sigma-not-weakly-acyclic" in codes

    def test_analyze_strict_answers_precheck_failed(self, client):
        response = client.request(
            "analyze", {"dependencies": CYCLIC, "strict": True}, check=False
        )
        assert response["error"]["code"] == "precheck-failed"
        # The structured report rides along for programmatic clients.
        assert response["error"]["report"]["witness"] is not None
        # The refusal did not take the server down.
        assert client.health()["status"] == "ok"

    def test_analyze_queries_feed_the_lint_passes(self, client):
        result = client.request(
            "analyze", {"queries": ["Q(X) :- r0(X, X), zz(Y, Y)"]}
        )
        codes = {d["code"] for d in result["diagnostics"]}
        assert "query-cross-product" in codes

    def test_analyze_rejects_non_list_queries(self, client):
        response = client.request(
            "analyze", {"queries": "Q(X) :- p(X)"}, check=False
        )
        assert response["error"]["code"] == "invalid-request"

    def test_analyze_unparseable_sigma(self, client):
        response = client.request(
            "analyze", {"dependencies": "not a rule (("}, check=False
        )
        assert response["error"]["code"] == "parse-error"


# --------------------------------------------------------------------------- #
class TestQueryTextMemo:
    """``_param_query`` parses a repeated request text once."""

    @pytest.fixture()
    def parses(self, monkeypatch):
        ops._parsed_query.cache_clear()
        calls: list[str] = []
        real = ops.parse_query

        def counting(text):
            calls.append(text)
            return real(text)

        monkeypatch.setattr(ops, "parse_query", counting)
        yield calls
        ops._parsed_query.cache_clear()

    @staticmethod
    def _query(text):
        return ops._param_query({"query": text}, "query")

    def test_repeated_text_returns_the_same_query(self, parses):
        first = self._query("Q(X) :- p(X, Y)")
        assert self._query("Q(X) :- p(X, Y)") is first
        assert parses == ["Q(X) :- p(X, Y)"]
        # A different spelling is a different text: parsed on its own.
        assert self._query("Q(X) :- p(X,Y)") is not first
        assert len(parses) == 2

    def test_parse_error_is_never_cached(self, parses):
        for _ in range(2):
            with pytest.raises(ProtocolError) as excinfo:
                self._query("Q(X) :- p(X,")
            assert excinfo.value.code == "parse-error"
            assert "params.query" in str(excinfo.value)
        assert parses == ["Q(X) :- p(X,"] * 2

    def test_least_recently_used_text_is_evicted(self, parses):
        texts = [f"Q(X) :- p(X, c{i})" for i in range(ops._QUERY_MEMO_SIZE + 1)]
        held = [self._query(text) for text in texts[:-1]]
        assert self._query(texts[0]) is held[0]  # texts[1] is now the oldest
        self._query(texts[-1])  # one distinct text too many
        assert parses == texts
        assert all(self._query(text) is held[i] for i, text in enumerate(texts[2:-1], 2))
        assert self._query(texts[0]) is held[0]
        assert parses == texts  # every text but texts[1] is still held
        assert self._query(texts[1]) is not held[1]
        assert parses == texts + [texts[1]]

    def test_decides_reuse_parsed_queries(self, parses, ex41):
        session = Session(dependencies=ex41.dependencies)
        params = {"query": _q(ex41.q1), "other": _q(ex41.q4), "semantics": "bag"}
        answers = [ops.execute_op(session, "decide", params) for _ in range(3)]
        assert answers[0] == answers[1] == answers[2]
        assert parses == [_q(ex41.q1), _q(ex41.q4)]
