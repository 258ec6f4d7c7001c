"""Compute ``expected.json``: every answer the workloads check, pinned once.

Usage (from the repository root)::

    python e2ebench/pin_expected.py

The answers come from the frozen reference engines only:
``repro.chase.reference.sound_chase_reference`` for every chase and
``repro.core.reference`` homomorphisms for the dependency-free equivalence
tests (Theorem 2.1 and Theorem 4.2), and a plain subset enumeration for the
backchase.  None of the engine under test's chase, index, cache or
isomorphism code runs here, so a change to the engine cannot move what the
benchmark counts as correct.  The answers do not depend on the seed: a seed
only renames variables and reorders operations.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
from collections import Counter
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402
from repro.chase.reference import sound_chase_reference  # noqa: E402
from repro.core.query import ConjunctiveQuery  # noqa: E402
from repro.core.reference import iter_homomorphisms_reference  # noqa: E402
from repro.core.terms import Variable  # noqa: E402
from repro.datalog.parser import parse_dependencies, parse_query  # noqa: E402

MAX_STEPS = 5000
#: Homomorphisms tried per isomorphism test before the test gives up.
ISOMORPHISM_BUDGET = 200_000


def sigma_set(sigma: inputs.Sigma) -> Any:
    return parse_dependencies(sigma.text(), set_valued=list(sigma.set_valued))


def chase(query: ConjunctiveQuery, sigma: Any, semantics: str) -> ConjunctiveQuery:
    return sound_chase_reference(query, sigma, semantics, MAX_STEPS).query


def _head_mapping(q_from: ConjunctiveQuery, q_to: ConjunctiveQuery) -> dict | None:
    if len(q_from.head_terms) != len(q_to.head_terms):
        return None
    fixed: dict = {}
    for source, target in zip(q_from.head_terms, q_to.head_terms):
        if not isinstance(source, Variable):
            if source != target:
                return None
            continue
        if fixed.setdefault(source, target) != target:
            return None
    return fixed


def contained_in(q_from: ConjunctiveQuery, q_to: ConjunctiveQuery) -> bool:
    """A containment mapping from *q_from* to *q_to* exists (Chandra-Merlin)."""
    fixed = _head_mapping(q_from, q_to)
    if fixed is None:
        return False
    for _ in iter_homomorphisms_reference(list(q_from.body), list(q_to.body), fixed):
        return True
    return False


def isomorphic(body1: list, q1: ConjunctiveQuery, body2: list, q2: ConjunctiveQuery) -> bool:
    """Bodies (as multisets) related by a head-fixing variable bijection."""
    target = Counter(body2)
    if len(body1) != len(body2) or Counter(a.predicate for a in body1) != Counter(
        a.predicate for a in body2
    ):
        return False
    fixed = _head_mapping(q1, q2)
    if fixed is None:
        return False
    for tried, hom in enumerate(iter_homomorphisms_reference(body1, body2, fixed)):
        if tried > ISOMORPHISM_BUDGET:
            raise RuntimeError("isomorphism search budget exhausted")
        images = [hom.get(v, v) for v in {v for a in body1 for v in a.variables()}]
        if len(set(images)) != len(images):
            continue
        if Counter(a.substitute(hom) for a in body1) == target:
            return True
    return False


def dedup(body: tuple, predicates: set[str] | None) -> list:
    """Drop duplicate atoms (all of them, or only over *predicates*)."""
    seen: set = set()
    out = []
    for atom in body:
        if atom in seen and (predicates is None or atom.predicate in predicates):
            continue
        seen.add(atom)
        out.append(atom)
    return out


def equivalent(c1: ConjunctiveQuery, c2: ConjunctiveQuery, semantics: str, set_valued: set[str]) -> bool:
    """The dependency-free test on two terminal chase results."""
    if semantics == "set":
        return contained_in(c1, c2) and contained_in(c2, c1)
    predicates = None if semantics == "bag-set" else set_valued
    return isomorphic(dedup(c1.body, predicates), c1, dedup(c2.body, predicates), c2)


def decide(sigma: Any, left: str, right: str, semantics: str) -> dict[str, Any]:
    c1 = chase(parse_query(left), sigma, semantics)
    c2 = chase(parse_query(right), sigma, semantics)
    return {
        "equivalent": equivalent(c1, c2, semantics, set(sigma.set_valued_predicates)),
        "left": len(c1.body),
        "right": len(c2.body),
    }


def reformulations(sigma: Any, query: str, semantics: str) -> dict[str, Any]:
    """C&B by subset enumeration over the universal plan."""
    plan = chase(parse_query(query), sigma, semantics)
    head_vars = {t for t in plan.head_terms if isinstance(t, Variable)}
    set_valued = set(sigma.set_valued_predicates)
    accepted: set[str] = set()
    for size in range(1, len(plan.body) + 1):
        for atoms in itertools.combinations(plan.body, size):
            if not head_vars <= {v for atom in atoms for v in atom.variables()}:
                continue
            candidate = ConjunctiveQuery(plan.head_predicate, plan.head_terms, atoms)
            if equivalent(chase(candidate, sigma, semantics), plan, semantics, set_valued):
                accepted.add(checks.canonical_form(plan.head_terms, atoms))
    return {"universal_plan": len(plan.body), "reformulations": sorted(accepted)}


def main() -> None:
    text = inputs.Query.text
    expected: dict[str, Any] = {}

    ex41 = sigma_set(inputs.example_4_1_sigma())
    warm: dict[str, Any] = {}
    for a, b in inputs.warm_serve_pairs():
        left, right = text(inputs.EX41_QUERIES[a]), text(inputs.EX41_QUERIES[b])
        warm[f"{a}|{b}"] = {sem: decide(ex41, left, right, sem) for sem in inputs.SEMANTICS}
    expected["warm-serve"] = warm
    print("warm-serve pinned", flush=True)

    cold: dict[str, Any] = {}
    for family in inputs.cold_decide_families():
        sigma = sigma_set(family.sigma)
        cold[family.key] = {
            sem: decide(sigma, text(family.left), text(family.right), sem)
            for sem in inputs.SEMANTICS
        }
        print(f"cold-decide {family.key} pinned", flush=True)
    expected["cold-decide"] = cold

    reform: dict[str, Any] = {}
    for key, sigma_spec, query in inputs.reformulate_inputs():
        sigma = sigma_set(sigma_spec)
        reform[key] = {sem: reformulations(sigma, text(query), sem) for sem in inputs.SEMANTICS}
        print(f"reformulate {key} pinned", flush=True)
    expected["reformulate"] = reform

    expected["delta-churn"] = churn_expectations()
    print("delta-churn pinned", flush=True)

    with open(checks.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")


def churn_expectations() -> dict[str, Any]:
    sem = inputs.CHURN_SEMANTICS
    queries = {name: inputs.Query.text(q) for name, q in inputs.churn_queries().items()}
    cold = inputs.Query.text(inputs.churn_cold_query("c0"))
    sigma0 = inputs.churn_sigma()
    sigma1 = inputs.Sigma("churn+d", sigma0.lines + (inputs.CHURN_DEPENDENCY,), sigma0.set_valued)
    before, after = sigma_set(sigma0), sigma_set(sigma1)
    return {
        # step 1: the atom delta, resumed from the base checkpoint
        "grow": {"resumed": True, "fallback_reason": None,
                 "chased": len(chase(parse_query(queries["grown"]), before, sem).body)},
        # step 3: the Σ delta, resumed with Σ catch-up
        "add_dependency": {"resumed": True, "fallback_reason": None,
                           "chased": len(chase(parse_query(queries["base"]), after, sem).body)},
        # step 5: removing it is not monotone, so the chase runs cold
        "remove_dependency": {"resumed": False, "fallback_reason": "non-monotone-delta",
                              "chased": len(chase(parse_query(queries["base"]), before, sem).body)},
        # steps 2 and 6 decide under Σ, step 4 under Σ plus the added tgd
        "decide_grown_base": decide(before, queries["grown"], queries["base"], sem),
        "decide_base_base2": decide(before, queries["base"], queries["base2"], sem),
        "decide_cold_base": decide(after, cold, queries["base"], sem),
        "decide_cold_base2": decide(after, cold, queries["base2"], sem),
    }


if __name__ == "__main__":
    main()
