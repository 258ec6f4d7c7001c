"""Seeded inputs of the four workloads, as the texts the program reads.

Every workload sees only what this module generates: dependency sets Σ in
rule notation (one dependency per line, plus the set-valued relations), query
texts, and delta texts.  The families are written out here rather than taken
from ``repro.paperlib`` so that a later change to the library's own workload
generators cannot silently change what the benchmark measures.

The seed decides two things and nothing else: the spelling of every query
(a seeded suffix on variables, and on the constants that make delta-churn's
queries new, so the program cannot key on spelling) and the order in which
operations are sent.  The multiset of operations in one cycle of
a workload is fixed, so runs with different seeds do the same work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

Atom = tuple[str, tuple[str, ...]]


@dataclass(frozen=True)
class Query:
    """A conjunctive query before variable renaming."""

    head: str
    head_terms: tuple[str, ...]
    body: tuple[Atom, ...]

    def text(self, suffix: str = "") -> str:
        """Rule notation; variables (upper-case terms) get *suffix* appended."""

        def term(name: str) -> str:
            return name + suffix if name[:1].isupper() else name

        head = f"{self.head}({', '.join(term(t) for t in self.head_terms)})"
        body = ", ".join(
            f"{pred}({', '.join(term(t) for t in terms)})" for pred, terms in self.body
        )
        return f"{head} :- {body}"


@dataclass(frozen=True)
class Sigma:
    """A dependency set: rule-notation lines and the set-valued relations."""

    name: str
    lines: tuple[str, ...]
    set_valued: tuple[str, ...]

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"

    def plus(self, name: str, other: "Sigma") -> "Sigma":
        return Sigma(
            name,
            self.lines + other.lines,
            tuple(sorted(set(self.set_valued) | set(other.set_valued))),
        )


def _q(head: str, head_terms: str, body: str) -> Query:
    """Parse the tiny ``p(X,Y), t(X,Y,W)`` notation used in this module."""
    atoms = []
    for chunk in body.replace(" ", "").split("),"):
        pred, _, args = chunk.rstrip(")").partition("(")
        atoms.append((pred, tuple(args.split(","))))
    return Query(head, tuple(head_terms.split(",")), tuple(atoms))


# --------------------------------------------------------------------------- #
# Dependency families (the shapes of bench_chase_scaling's tiers)
# --------------------------------------------------------------------------- #
def example_4_1_sigma() -> Sigma:
    return Sigma(
        "ex41",
        (
            "p(X,Y) -> s(X,Z) & t(X,V,W)",
            "p(X,Y) -> t(X,Y,W)",
            "p(X,Y) -> r(X)",
            "p(X,Y) -> u(X,Z) & t(X,Y,W)",
            "s(X,Y) & s(X,Z) -> Y = Z",
            "t(X,Y,Z) & t(X,Y,W) -> Z = W",
        ),
        ("s", "t"),
    )


def _key(rel: str) -> str:
    return f"{rel}(X1,Y2a) & {rel}(X1,Y2b) -> Y2a = Y2b"


def _inert(count: int) -> list[str]:
    return [f"d{i}(X1,X2) -> d{i}(X2,Y1)" for i in range(1, count + 1)]


def chain_sigma(length: int) -> Sigma:
    rels = [f"r{i}" for i in range(1, length + 1)]
    lines = [_key(rel) for rel in rels]
    lines += [f"{rels[i]}(X1,X2) -> {rels[i + 1]}(X2,Y1)" for i in range(length - 1)]
    return Sigma(f"chain{length}", tuple(lines), tuple(rels))


def star_sigma(spokes: int, distractors: int) -> Sigma:
    lines: list[str] = []
    for i in range(1, spokes + 1):
        lines += [f"hub(X) -> s{i}(X,Y)", _key(f"s{i}")]
    lines += _inert(distractors)
    return Sigma(
        f"star{spokes}", tuple(lines), tuple(f"s{i}" for i in range(1, spokes + 1))
    )


def clique_sigma(distractors: int) -> Sigma:
    lines = ["e(X,Y) & e(Y,Z) & e(X,Z) -> t(X,Y,Z)"] + _inert(distractors)
    return Sigma(f"clique-d{distractors}", tuple(lines), ("e", "t"))


def h_sigma(m: int) -> Sigma:
    rels = [f"p{i}" for i in range(1, m + 1)]
    lines: list[str] = []
    for i in range(m):
        for j in range(i + 1, m):
            lines.append(f"{rels[i]}(X,Y) -> {rels[j]}(Z,X)")
            lines.append(f"{rels[i]}(X,Y) -> {rels[j]}(Y,W)")
    for rel in rels:
        lines.append(f"{rel}(X1,Y2a) & {rel}(X1,Y2b) -> Y2a = Y2b")
        lines.append(f"{rel}(Y1a,X2) & {rel}(Y1b,X2) -> Y1a = Y1b")
    return Sigma(f"h{m}", tuple(lines), tuple(rels))


def orders_sigma() -> Sigma:
    return Sigma(
        "orders",
        (
            _key("customer"),
            _key("product"),
            "orders(X1,X2,X3) -> customer(X2,Y2)",
            "orders(X1,X2,X3) -> product(X3,Y2)",
        ),
        ("customer", "product"),
    )


def chain_query(first: int, last: int) -> Query:
    """``Q(X{first-1}) :- r{first}(...), ..., r{last}(...)``."""
    body = tuple(
        (f"r{i}", (f"X{i - 1}", f"X{i}")) for i in range(first, last + 1)
    )
    return Query("Q", (f"X{first - 1}",), body)


def star_query(spokes: int) -> Query:
    body = (("hub", ("X",)),) + tuple(
        (f"s{i}", ("X", f"Y{i}")) for i in range(1, spokes + 1)
    )
    return Query("Q", ("X",), body)


def clique_query(size: int, with_triangles: bool = False) -> Query:
    nodes = [f"X{i}" for i in range(1, size + 1)]
    body = [("e", (nodes[i], nodes[j])) for i in range(size) for j in range(i + 1, size)]
    if with_triangles:
        body += [
            ("t", (nodes[i], nodes[j], nodes[k]))
            for i in range(size)
            for j in range(i + 1, size)
            for k in range(j + 1, size)
        ]
    return Query("Q", (nodes[0],), tuple(body))


EX41_QUERIES = {
    "q1": _q("Q1", "X", "p(X,Y), t(X,Y,W), s(X,Z), r(X), u(X,U)"),
    "q2": _q("Q2", "X", "p(X,Y), t(X,Y,W), s(X,Z), r(X)"),
    "q3": _q("Q3", "X", "p(X,Y), t(X,Y,W), s(X,Z)"),
    "q4": _q("Q4", "X", "p(X,Y)"),
    "q5": _q("Q5", "X", "p(X,Y), t(X,Y,W), s(X,Z), s(X,Z)"),
    "q7": _q("Q7", "X", "p(X,Y), r(X), r(X)"),
    "q8": _q("Q8", "X", "p(X,Y), r(X)"),
}

SEMANTICS = ("bag", "bag-set", "set")


# --------------------------------------------------------------------------- #
# Workload catalogues: every input a workload can send, keyed by a stable id
# that the pinned answers in expected.json use.
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class DecidePair:
    """One decision input: a family's Σ and two queries."""

    key: str
    sigma: Sigma
    left: Query
    right: Query


def warm_serve_pairs() -> list[tuple[str, str]]:
    """The 21 unordered pairs over q1..q5, q7, q8."""
    names = list(EX41_QUERIES)
    return [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]


#: The tiers of bench_chase_scaling.  cold-decide runs the medium tier, whose
#: decisions take 5-200 ms, so one run repeats every op class many times;
#: the large tier (about 1 s per chase) is what breakdown.py re-measures.
COLD_TIERS = {
    "medium": {"chain": 32, "star": (20, 20), "clique": (9, 8)},
    "large": {"chain": 64, "star": (40, 40), "clique": (12, 12)},
}


def cold_decide_families() -> list[DecidePair]:
    """One Σ family per entry, with the pair each cold decision chases."""
    sizes = COLD_TIERS["medium"]
    length = sizes["chain"]
    spokes, star_distractors = sizes["star"]
    size, clique_distractors = sizes["clique"]
    return [
        DecidePair("chain-medium", chain_sigma(length), chain_query(1, 1), chain_query(1, length)),
        DecidePair(
            "star-medium", star_sigma(spokes, star_distractors),
            star_query(0), star_query(spokes // 2),
        ),
        DecidePair(
            "clique-medium", clique_sigma(clique_distractors),
            clique_query(size), clique_query(size, with_triangles=True),
        ),
        DecidePair("h4", h_sigma(4), _q("Q", "X,Y", "p1(X,Y)"), _q("Q", "X,Y", "p2(X,Y)")),
        DecidePair("ex41", example_4_1_sigma(), EX41_QUERIES["q2"], EX41_QUERIES["q4"]),
    ]


def cold_decide_ops() -> list[tuple[str, str]]:
    """``(family, semantics)`` of one cycle: every family under every semantics."""
    return [(family.key, sem) for family in cold_decide_families() for sem in SEMANTICS]


def reformulate_inputs() -> list[tuple[str, Sigma, Query]]:
    """The C&B inputs.  A chain of 7 (about 0.6 s per request under bag and
    bag-set) is left out, so one run repeats every op class many times."""
    orders = _q("Q", "O", "orders(O,C,P), customer(C,CName), product(P,PName)")
    items = [("orders", orders_sigma(), orders)]
    for length in (5, 6):
        items.append((f"chain{length}", chain_sigma(length), chain_query(1, length)))
    items.append(("star6", star_sigma(6, 0), star_query(0)))
    return items


def reformulate_ops() -> list[tuple[str, str]]:
    return [(key, sem) for key, _, _ in reformulate_inputs() for sem in SEMANTICS]


# --------------------------------------------------------------------------- #
# delta-churn: Example 4.1's Σ plus a mid-size chain Σ
# --------------------------------------------------------------------------- #
CHURN_CHAIN = 12
CHURN_SEMANTICS = "bag-set"
CHURN_STORE_ENTRIES = 3000


def churn_sigma() -> Sigma:
    return example_4_1_sigma().plus("churn", chain_sigma(CHURN_CHAIN))


#: The Σ delta added and removed every cycle: a full tgd on the chain's head.
CHURN_DEPENDENCY = "r1(X,Y) -> w(X)"
#: The atoms added to the base query every cycle (fire Example 4.1's tgds).
CHURN_ATOMS = ("p", ("X0", "Y9"))


def churn_queries() -> dict[str, Query]:
    base = chain_query(1, 1)
    return {
        "base": base,
        "base2": chain_query(1, 2),
        "grown": Query(base.head, base.head_terms, base.body + (CHURN_ATOMS,)),
    }


def churn_cold_query(tag: str) -> Query:
    """A chain query made new by a constant, so its chase is always cold."""
    base = chain_query(1, 1)
    return Query(base.head, base.head_terms, base.body + (("v", ("X0", tag)),))


def churn_seed_query(index: int) -> Query:
    """One of the pre-seeded store's entries (never read by the cycle)."""
    return Query("Q", ("X",), (("v", ("X", f"k{index}")),))


# --------------------------------------------------------------------------- #
@dataclass
class Inputs:
    """Everything one run sends, derived from its seed."""

    seed: int
    rng: random.Random = field(init=False)
    suffix: str = field(init=False)

    def __post_init__(self) -> None:
        self.rng = random.Random(self.seed)
        letters = "abcdefghjkmnpqrstuvwxyz"
        self.suffix = "_" + "".join(self.rng.choice(letters) for _ in range(4))

    def text(self, query: Query) -> str:
        return query.text(self.suffix)

    def shuffled(self, items: list) -> list:
        out = list(items)
        self.rng.shuffle(out)
        return out

    def request_stream(self, count: int, universe: int) -> list[int]:
        """A seeded sequence of *count* indexes into a universe of inputs."""
        return [self.rng.randrange(universe) for _ in range(count)]
