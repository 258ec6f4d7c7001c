"""Associated test queries (Definition 4.2 of the paper).

Given a CQ query Q, a regularized tgd σ : φ(X̄,Ȳ) → ∃Z̄ ψ(X̄,Z̄) applicable to
Q via homomorphism h, and a substitution θ replacing every existential
variable by a fresh one, the *associated test query* is

    Q^{σ,h,θ}(Ā) :- body(Q) ∧ ψ(h(X̄), Z̄) ∧ ψ(h(X̄), θ(Z̄))

— the body of Q extended with *two* copies of the instantiated conclusion,
one using fresh existentials Z̄ and one using a second, disjoint set θ(Z̄).
The tgd is *assignment fixing* with respect to Q and h (Definition 4.3)
exactly when the set chase of the test query identifies each pair
(Zi, θ(Zi)), i.e. at most one of the two survives in the terminal chase
result.  When σ has no existential variables the two copies coincide and the
test query degenerates to an ordinary chase step (Equation 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..core.atoms import Atom
from ..core.query import ConjunctiveQuery
from ..core.terms import FreshVariableFactory, Term, Variable
from ..dependencies.base import TGD


@dataclass(frozen=True)
class AssociatedTestQuery:
    """The test query Q^{σ,h,θ} together with the variable pairs to monitor."""

    query: ConjunctiveQuery
    #: For each existential variable of the tgd: the (Zi, θ(Zi)) pair used in
    #: the two conclusion copies.
    existential_pairs: tuple[tuple[Variable, Variable], ...]
    first_copy: tuple[Atom, ...]
    second_copy: tuple[Atom, ...]


def associated_test_query(
    query: ConjunctiveQuery, tgd: TGD, homomorphism: Mapping[Term, Term]
) -> AssociatedTestQuery:
    """Build the associated test query for (*query*, *tgd*, *homomorphism*).

    The existential variables of the tgd are renamed to fresh variables Z̄
    (so the "w.l.o.g. Q has none of the variables V̄" assumption of the paper
    holds by construction), and θ maps them to a second set of fresh
    variables.  Both copies of the conclusion are appended to the query body;
    for a full tgd both copies coincide and the duplicate atoms are dropped.
    """
    existential = tgd.existential_variables()
    used_names = {v.name for v in query.all_variables()}
    used_names |= {v.name for v in tgd.all_variables()}
    factory = FreshVariableFactory(used_names)

    z_vars = {var: factory(hint=var.name) for var in existential}
    theta_vars = {var: factory(hint=f"{var.name}_theta") for var in existential}

    base_substitution: dict[Term, Term] = dict(homomorphism)
    first_substitution = dict(base_substitution)
    first_substitution.update(z_vars.items())
    second_substitution = dict(base_substitution)
    second_substitution.update(theta_vars.items())

    first_copy = tuple(atom.substitute(first_substitution) for atom in tgd.conclusion)
    second_copy = tuple(atom.substitute(second_substitution) for atom in tgd.conclusion)

    new_atoms: list[Atom] = list(first_copy)
    if existential:
        new_atoms.extend(second_copy)
    else:
        # Full tgd: Equation 3 — a single copy, duplicates dropped below.
        second_copy = first_copy

    # Drop literal duplicates introduced by a full tgd (Equation 3).
    deduplicated = list(query.body)
    original = set(deduplicated)
    seen = set(original)
    for atom in new_atoms:
        if atom in original or atom not in seen:
            deduplicated.append(atom)
            seen.add(atom)

    test = ConjunctiveQuery(query.head_predicate, query.head_terms, tuple(deduplicated))
    pairs = tuple((z_vars[var], theta_vars[var]) for var in existential)
    return AssociatedTestQuery(test, pairs, first_copy, second_copy)
