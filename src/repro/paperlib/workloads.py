"""Synthetic workload generators used by the benchmark harness.

The paper's complexity claims (Theorem 5.2, Examples H.1/H.2) and its
reformulation algorithms are exercised on three families of workloads:

* :func:`h_family` — the explicit lower-bound family of Examples H.1/H.2:
  ``m`` binary relations, the tgds σ(1)_{i,j} / σ(2)_{i,j}, and the fds that
  make every tgd key based; the terminal chase of ``Q(X,Y) :- p1(X,Y)``
  has size exponential in ``m``.
* :func:`chain_workload` — path-shaped queries ``Q(X0,Xn) :- r1(X0,X1),
  ..., rn(X_{n-1},Xn)`` with key and inclusion dependencies; chase output
  grows linearly with query size, which is the "polynomial in |Q|" half of
  Theorem 5.2.
* :func:`orders_workload` — a small order/customer/product schema with
  primary-key and foreign-key constraints, used by the SQL end-to-end
  experiment (E10) and the reformulation experiment (E9): the foreign keys
  make some joins redundant under set semantics but not under bag semantics.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.atoms import Atom
from ..core.query import ConjunctiveQuery
from ..core.terms import Variable
from ..dependencies.base import TGD, Dependency, DependencySet
from ..dependencies.builders import (
    functional_dependency_egd,
    inclusion_dependency,
    key_egds,
)
from ..schema.schema import DatabaseSchema


@dataclass(frozen=True)
class Workload:
    """A benchmark workload: a schema, a dependency set, and a query."""

    name: str
    schema: DatabaseSchema
    dependencies: DependencySet
    query: ConjunctiveQuery
    parameters: dict


def h_family(m: int, key_based: bool = True) -> Workload:
    """The Examples H.1/H.2 family on ``m`` binary relations p1..pm.

    Tgds: for every i < j,  σ(1)_{i,j}: p_i(X,Y) → ∃Z p_j(Z,X)  and
    σ(2)_{i,j}: p_i(X,Y) → ∃W p_j(Y,W).  With ``key_based=True`` the fds of
    Example H.2 are added (each attribute of each p_i is a key) and every
    relation is marked set valued, which makes every tgd key based and hence
    the sound bag / bag-set chase applies all of them — producing a chase
    result of size exponential in m.
    """
    if m < 1:
        raise ValueError("the H family needs at least one relation")
    relation_names = [f"p{i}" for i in range(1, m + 1)]
    schema = DatabaseSchema.from_arities(
        {name: 2 for name in relation_names},
        set_valued=relation_names if key_based else (),
    )
    dependencies: list[Dependency] = []
    x, y, z, w = Variable("X"), Variable("Y"), Variable("Z"), Variable("W")
    for i in range(1, m):
        for j in range(i + 1, m + 1):
            source, target = f"p{i}", f"p{j}"
            dependencies.append(
                _tgd_from_atoms(
                    [Atom(source, [x, y])], [Atom(target, [z, x])],
                    name=f"sigma1_{i}_{j}",
                )
            )
            dependencies.append(
                _tgd_from_atoms(
                    [Atom(source, [x, y])], [Atom(target, [y, w])],
                    name=f"sigma2_{i}_{j}",
                )
            )
    if key_based:
        for name in relation_names:
            dependencies.append(
                functional_dependency_egd(name, 2, [0], 1, name=f"fd1_{name}")
            )
            dependencies.append(
                functional_dependency_egd(name, 2, [1], 0, name=f"fd2_{name}")
            )
    query = ConjunctiveQuery("Q", [x, y], [Atom("p1", [x, y])])
    return Workload(
        name=f"h_family(m={m})",
        schema=schema,
        dependencies=DependencySet(
            dependencies, set_valued_predicates=relation_names if key_based else ()
        ),
        query=query,
        parameters={"m": m, "key_based": key_based},
    )


def _tgd_from_atoms(
    premise: list[Atom], conclusion: list[Atom], name: str = ""
) -> TGD:
    return TGD(premise, conclusion, name=name)


def chain_workload(length: int, with_keys: bool = True) -> Workload:
    """A chain (path) query of the given length with key + inclusion dependencies.

    Query: ``Q(X0) :- r1(X0, X1), r2(X1, X2), ..., rn(X_{n-1}, Xn)``.
    Dependencies: the first attribute of each r_i is its key (egd), every
    relation is set valued, and r_i[1] ⊆ r_{i+1}[0] (inclusion tgds), so the
    chase of a prefix of the query regenerates the remaining subgoals and
    C&B can shorten the query all the way down to its first subgoal.
    """
    if length < 1:
        raise ValueError("chain length must be at least 1")
    relation_names = [f"r{i}" for i in range(1, length + 1)]
    schema = DatabaseSchema.from_arities(
        {name: 2 for name in relation_names}, set_valued=relation_names
    )
    dependencies: list[Dependency] = []
    if with_keys:
        for name in relation_names:
            dependencies.extend(key_egds(name, 2, [0], name_prefix=f"key_{name}"))
    for index in range(length - 1):
        dependencies.append(
            inclusion_dependency(
                relation_names[index], 2, [1],
                relation_names[index + 1], 2, [0],
                name=f"inc_{index + 1}",
            )
        )
    variables = [Variable(f"X{i}") for i in range(length + 1)]
    body = [
        Atom(relation_names[i], [variables[i], variables[i + 1]])
        for i in range(length)
    ]
    query = ConjunctiveQuery("Q", [variables[0]], body)
    return Workload(
        name=f"chain(length={length})",
        schema=schema,
        dependencies=DependencySet(
            dependencies, set_valued_predicates=relation_names
        ),
        query=query,
        parameters={"length": length, "with_keys": with_keys},
    )


def star_workload(spokes: int, distractors: int = 0) -> Workload:
    """A hub relation fanning out to *spokes* distinct spoke relations.

    Query: ``Q(X) :- hub(X)``.  Dependencies: for every spoke relation
    ``s_i``, a tgd ``hub(X) → ∃Y s_i(X, Y)`` plus the fd ``s_i[0] → s_i[1]``
    that makes the tgd assignment fixing (the key forces the witness to be
    unique), with every spoke set valued.  The sound chase applies each tgd
    exactly once, so the chase takes ``spokes`` tgd steps while Σ holds
    ``2·spokes`` dependencies — a worst case for drivers that rescan all of
    Σ every round and the best case for the delta trigger index.

    ``distractors`` appends inert inclusion dependencies over relations the
    query never mentions, growing Σ without changing the chase — the
    "growing Σ" axis of the scaling benchmark.
    """
    if spokes < 1:
        raise ValueError("the star needs at least one spoke")
    spoke_names = [f"s{i}" for i in range(1, spokes + 1)]
    arities = {"hub": 1}
    arities.update({name: 2 for name in spoke_names})
    dependencies: list[Dependency] = []
    x, y = Variable("X"), Variable("Y")
    for name in spoke_names:
        dependencies.append(
            _tgd_from_atoms([Atom("hub", [x])], [Atom(name, [x, y])], name=f"spoke_{name}")
        )
        dependencies.append(
            functional_dependency_egd(name, 2, [0], 1, name=f"fd_{name}")
        )
    distractor_names = [f"d{i}" for i in range(1, distractors + 1)]
    for index, name in enumerate(distractor_names):
        arities[name] = 2
        dependencies.append(
            inclusion_dependency(name, 2, [1], name, 2, [0], name=f"inert_{index + 1}")
        )
    schema = DatabaseSchema.from_arities(arities, set_valued=spoke_names)
    query = ConjunctiveQuery("Q", [x], [Atom("hub", [x])])
    return Workload(
        name=f"star(spokes={spokes}, distractors={distractors})",
        schema=schema,
        dependencies=DependencySet(dependencies, set_valued_predicates=spoke_names),
        query=query,
        parameters={"spokes": spokes, "distractors": distractors},
    )


def clique_workload(size: int, distractors: int = 0) -> Workload:
    """A clique query over one edge relation, saturated by a triangle tgd.

    Query: ``Q(X1) :- e(Xi, Xj)`` for every ``i < j`` — ``size·(size-1)/2``
    subgoals over a *single* predicate, the worst case for homomorphism
    search without per-position filtering.  The full tgd
    ``e(X,Y) ∧ e(Y,Z) ∧ e(X,Z) → t(X,Y,Z)`` materialises one triangle per
    step (``C(size, 3)`` steps in total; full tgds are assignment fixing by
    Proposition 4.3, so every step is sound under bag and bag-set
    semantics).  Each round re-matches the three-atom premise and checks
    conclusion extendability against a body that keeps growing with
    ``t``-atoms: the indexed engine narrows both through bound positions,
    where the old search scanned every same-predicate atom.

    ``distractors`` adds inert dependencies exactly as in
    :func:`star_workload`.
    """
    if size < 3:
        raise ValueError("the clique needs at least three nodes")
    variables = [Variable(f"X{i}") for i in range(1, size + 1)]
    body = [
        Atom("e", [variables[i], variables[j]])
        for i in range(size)
        for j in range(i + 1, size)
    ]
    x, y, z = Variable("X"), Variable("Y"), Variable("Z")
    dependencies: list[Dependency] = [
        _tgd_from_atoms(
            [Atom("e", [x, y]), Atom("e", [y, z]), Atom("e", [x, z])],
            [Atom("t", [x, y, z])],
            name="triangle",
        )
    ]
    arities = {"e": 2, "t": 3}
    distractor_names = [f"d{i}" for i in range(1, distractors + 1)]
    for index, name in enumerate(distractor_names):
        arities[name] = 2
        dependencies.append(
            inclusion_dependency(name, 2, [1], name, 2, [0], name=f"inert_{index + 1}")
        )
    schema = DatabaseSchema.from_arities(arities, set_valued=("e", "t"))
    query = ConjunctiveQuery("Q", [variables[0]], body)
    return Workload(
        name=f"clique(size={size}, distractors={distractors})",
        schema=schema,
        dependencies=DependencySet(dependencies, set_valued_predicates=("e", "t")),
        query=query,
        parameters={"size": size, "distractors": distractors},
    )


def orders_workload() -> Workload:
    """An orders/customer/product schema with PK + FK constraints.

    The query joins ``orders`` with ``customer`` and ``product``; the foreign
    keys make both lookups redundant under set semantics (the set-semantics
    C&B finds the single-subgoal reformulation) while under bag and bag-set
    semantics the sound algorithms keep exactly the joins whose multiplicity
    contribution is pinned down by the key constraints.
    """
    schema = DatabaseSchema.from_arities(
        {"orders": 3, "customer": 2, "product": 2},
        set_valued=("customer", "product"),
    )
    dependencies: list[Dependency] = []
    dependencies.extend(key_egds("customer", 2, [0], name_prefix="pk_customer"))
    dependencies.extend(key_egds("product", 2, [0], name_prefix="pk_product"))
    dependencies.append(
        inclusion_dependency("orders", 3, [1], "customer", 2, [0], name="fk_customer")
    )
    dependencies.append(
        inclusion_dependency("orders", 3, [2], "product", 2, [0], name="fk_product")
    )
    o, c, pr, cn, pn = (
        Variable("O"),
        Variable("C"),
        Variable("P"),
        Variable("CName"),
        Variable("PName"),
    )
    query = ConjunctiveQuery(
        "Q",
        [o],
        [
            Atom("orders", [o, c, pr]),
            Atom("customer", [c, cn]),
            Atom("product", [pr, pn]),
        ],
    )
    return Workload(
        name="orders",
        schema=schema,
        dependencies=DependencySet(
            dependencies, set_valued_predicates=("customer", "product")
        ),
        query=query,
        parameters={},
    )


ORDERS_DDL = """
CREATE TABLE customer (cid INT PRIMARY KEY, cname TEXT);
CREATE TABLE product (pid INT PRIMARY KEY, pname TEXT);
CREATE TABLE orders (
    oid INT,
    cid INT,
    pid INT,
    FOREIGN KEY (cid) REFERENCES customer (cid),
    FOREIGN KEY (pid) REFERENCES product (pid)
);
"""
