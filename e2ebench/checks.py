"""Answer checks and the statistics the workloads report.

The checks compare the program's answers with ``expected.json``, which
``pin_expected.py`` computes once with the frozen reference engines.  They
read only plain data (response JSON, or the terms and atoms of a query), so
a later change to the engine cannot change what counts as correct.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Any, Iterable, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

#: Proposition 6.1: bag equivalence implies bag-set, which implies set.
PROPOSITION_6_1 = (("bag", "bag-set"), ("bag-set", "set"))


def load_expected() -> dict[str, Any]:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def atom_count(rendered: str) -> int:
    """Body atoms of a rendered ``Head(...) :- a(...), b(...)`` query."""
    return rendered.split(":-", 1)[1].count("(")


def _term_key(term: Any) -> tuple[str, str]:
    name = getattr(term, "name", None)
    if name is not None:
        return ("V", name)
    return ("C", repr(getattr(term, "value", term)))


def canonical_form(head_terms: Sequence[Any], atoms: Iterable[Any]) -> str:
    """A spelling-free form of a query whose body predicates are distinct.

    Atoms are sorted by predicate and variables renamed by first occurrence
    (head first).  For the reformulation workload every body predicate is
    distinct, which makes this a true canonical form there.
    """
    body = sorted(
        ((atom.predicate, [_term_key(t) for t in atom.terms]) for atom in atoms),
        key=lambda item: (item[0], len(item[1])),
    )
    names: dict[tuple[str, str], str] = {}

    def rename(term: tuple[str, str]) -> str:
        if term[0] == "C":
            return term[1]
        if term not in names:
            names[term] = f"V{len(names)}"
        return names[term]

    head = ",".join(rename(_term_key(t)) for t in head_terms)
    rendered = ",".join(f"{pred}({','.join(rename(t) for t in terms)})" for pred, terms in body)
    return f"({head}):-{rendered}"


def proposition_6_1_violations(verdicts: dict[str, bool]) -> list[str]:
    """Implications of the chain that *verdicts* (by semantics) break."""
    return [
        f"{stronger} => {weaker}"
        for stronger, weaker in PROPOSITION_6_1
        if verdicts.get(stronger) and verdicts.get(weaker) is False
    ]


def report_wrong(kind: str, detail: str) -> None:
    print(f"wrong answer ({kind}): {detail}", file=sys.stderr)


# --------------------------------------------------------------------------- #
def quantile(values: Sequence[float], q: float) -> float:
    """The *q*-quantile (0..1) by linear interpolation, as numpy's default."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def quiet(values: Sequence[float], better: str = "lower") -> float:
    """The quartile of repeated readings on their better side.

    The machine slows down for seconds to minutes at a time, and a slowdown
    only ever makes a reading worse; the better quartile of a run's readings
    follows its quieter stretches.
    """
    return quantile(values, 0.25 if better == "lower" else 0.75)
