#!/usr/bin/env python3
"""Quickstart: deciding query equivalence under embedded dependencies.

This walks through the paper's motivating Example 4.1 end to end, using the
unified :class:`repro.Session` engine:

1. declare the dependencies Σ (tgds, key egds, set-enforced relations),
2. open a Session over Σ — it owns the chase cache,
3. state the queries Q1 and Q4 in rule notation,
4. ask whether they are equivalent under set, bag-set, and bag semantics,
5. inspect the sound chase results the verdicts are based on (all served
   from the session cache — nothing is re-chased),
6. double-check the negative verdicts on the paper's counterexample database.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import DatabaseInstance, Session, evaluate, parse_dependencies, parse_query
from repro.semantics import Semantics


def main() -> None:
    # ------------------------------------------------------------------ #
    # 1. The dependencies of Example 4.1.  Relations S and T are required
    #    to be set valued in every instance (the paper encodes this with
    #    tuple-ID egds; here it is a marker on the dependency set).
    # ------------------------------------------------------------------ #
    sigma = parse_dependencies(
        """
        p(X,Y) -> s(X,Z) & t(X,V,W)
        p(X,Y) -> t(X,Y,W)
        p(X,Y) -> r(X)
        p(X,Y) -> u(X,Z) & t(X,Y,W)
        s(X,Y) & s(X,Z) -> Y = Z
        t(X,Y,Z) & t(X,Y,W) -> Z = W
        """,
        set_valued=["s", "t"],
    )

    # ------------------------------------------------------------------ #
    # 2. One Session per workload: it binds Σ once and then serves every
    #    chase, decision, and reformulation through a shared cache.
    # ------------------------------------------------------------------ #
    session = Session(dependencies=sigma)

    # ------------------------------------------------------------------ #
    # 3. The queries.
    # ------------------------------------------------------------------ #
    q4 = parse_query("Q4(X) :- p(X,Y)")
    q1 = parse_query("Q1(X) :- p(X,Y), t(X,Y,W), s(X,Z), r(X), u(X,U)")

    print("Q4:", q4)
    print("Q1:", q1)
    print()

    # ------------------------------------------------------------------ #
    # 4. Equivalence under all three semantics (Theorems 2.2, 6.1, 6.2).
    #    decide_all also asserts the Proposition 6.1 chain on its verdicts.
    # ------------------------------------------------------------------ #
    verdicts = session.decide_all(q1, q4)
    for semantics, verdict in verdicts.items():
        status = "equivalent" if verdict else "NOT equivalent"
        print(f"under {semantics!s:8s}: Q1 and Q4 are {status}")
    print()

    # ------------------------------------------------------------------ #
    # 5. The sound chase results behind those verdicts (Section 4).  The
    #    session already chased these queries for the decisions above, so
    #    every call below is a cache hit.
    # ------------------------------------------------------------------ #
    for semantics in (Semantics.SET, Semantics.BAG_SET, Semantics.BAG):
        chased = session.chase(q4, semantics)
        print(f"sound {semantics!s:8s} chase of Q4: {chased.query}")
    stats = session.cache_stats()
    print(f"(chase cache: {stats.hits} hits, {stats.misses} misses)")
    print()

    # ------------------------------------------------------------------ #
    # 6. The counterexample database of Example 4.1: it satisfies Σ, yet the
    #    two queries return different bags.
    # ------------------------------------------------------------------ #
    database = DatabaseInstance.from_dict(
        {
            "p": [(1, 2)],
            "r": [(1,)],
            "s": [(1, 3)],
            "t": [(1, 2, 4)],
            "u": [(1, 5), (1, 6)],
        }
    )
    print("on the counterexample database D:")
    print("  Q4(D, bag)     =", evaluate(q4, database, "bag"))
    print("  Q1(D, bag)     =", evaluate(q1, database, "bag"))
    print("  Q4(D, bag-set) =", evaluate(q4, database, "bag-set"))
    print("  Q1(D, bag-set) =", evaluate(q1, database, "bag-set"))


if __name__ == "__main__":
    main()
