"""Compiled match plans: a conjunction of atoms as flat int arrays.

Every homomorphism search walks the same source conjunction — a tgd premise,
a tgd conclusion, an egd premise, a query body — thousands of times per chase
run, and before this module each walk re-discovered the same structure from
the term objects: which positions hold constants, which variables repeat,
which variable a position binds.  A :class:`MatchPlan` extracts that
structure **once**:

* every distinct variable of the source gets a dense *slot* index, assigned
  in first-occurrence order (head-to-tail through the atoms), so a working
  mapping is a preallocated int array indexed by slot instead of a hash
  dictionary keyed by term objects;
* every atom is compiled to its interned ``sig_id`` plus a tuple of per
  position *codes*: a code ``>= 0`` is the slot of the variable at that
  position, a code ``< 0`` encodes the intern ``uid`` of the constant there
  (``code == ~uid``), so the match kernel decides constant-vs-variable with
  a sign test instead of an ``isinstance`` call.

The int-array search kernel itself lives in
:mod:`repro.core.homomorphism` (:func:`~repro.core.homomorphism.iter_matches`)
next to the :class:`~repro.core.homomorphism.TargetIndex` it probes; plans
are pure data and carry no search state, so one plan serves any number of
concurrent searches against any number of targets.

Like term uids and ``sig_id``s, the compiled codes are **process-local**:
they embed intern uids, so plans must never be pickled or shared across
processes (they are not — the chase's plan cache is per process).
"""

from __future__ import annotations

from typing import Sequence

from .atoms import Atom
from .terms import Constant, Variable


class MatchPlan:
    """A source conjunction compiled to flat int arrays (see module docs).

    The plan is immutable with respect to its inputs: ``atoms`` keeps the
    original atoms alive (their terms anchor the uids the codes embed),
    ``slot_vars`` maps a slot back to its :class:`Variable` for the result
    boundary, and ``slot_of`` maps a variable's intern uid to its slot for
    pre-binding ``fixed`` mappings.
    """

    __slots__ = ("atoms", "sig_ids", "codes", "slot_vars", "slot_of", "max_arity")

    #: The source atoms, in the order they were given.
    atoms: tuple[Atom, ...]
    #: Per atom, its interned ``(predicate, arity)`` signature int.
    sig_ids: tuple[int, ...]
    #: Per atom, per position: slot index (``>= 0``) or ``~uid`` of a constant.
    codes: tuple[tuple[int, ...], ...]
    #: Slot index → the variable bound by that slot.
    slot_vars: tuple[Variable, ...]
    #: Variable intern uid → slot index.
    slot_of: dict[int, int]
    #: Widest atom arity (sizes the kernel's per-candidate scratch array).
    max_arity: int

    def __init__(self, atoms: Sequence[Atom]):
        source = tuple(atoms)
        slot_of: dict[int, int] = {}
        slot_vars: list[Variable] = []
        sig_ids: list[int] = []
        codes: list[tuple[int, ...]] = []
        max_arity = 0
        for atom in source:
            sig_ids.append(atom.sig_id)
            atom_codes: list[int] = []
            for term in atom.terms:
                if isinstance(term, Constant):
                    atom_codes.append(~term.uid)
                else:
                    uid = term.uid
                    slot = slot_of.get(uid)
                    if slot is None:
                        slot = len(slot_vars)
                        slot_of[uid] = slot
                        slot_vars.append(term)
                    atom_codes.append(slot)
            codes.append(tuple(atom_codes))
            if len(atom_codes) > max_arity:
                max_arity = len(atom_codes)
        set_slot = object.__setattr__
        set_slot(self, "atoms", source)
        set_slot(self, "sig_ids", tuple(sig_ids))
        set_slot(self, "codes", tuple(codes))
        set_slot(self, "slot_vars", tuple(slot_vars))
        set_slot(self, "slot_of", slot_of)
        set_slot(self, "max_arity", max_arity)

    def __setattr__(self, attr: str, value: object) -> None:
        raise AttributeError(f"MatchPlan is immutable; cannot set {attr!r}")

    def __delattr__(self, attr: str) -> None:
        raise AttributeError(f"MatchPlan is immutable; cannot delete {attr!r}")

    def without(self, position: int) -> "MatchPlan":
        """This plan minus the atom at *position*, over the same slots.

        The rest of a conjunction once one atom is pinned to a target atom
        (see :func:`repro.core.homomorphism.iter_binding_matches`): the codes
        keep this plan's slot numbers, so a slot array filled by the pinned
        atom pre-binds the rest's search and the full match reads off the
        same array.
        """
        rest = object.__new__(MatchPlan)
        keep = [i for i in range(len(self.atoms)) if i != position]
        codes = tuple(self.codes[i] for i in keep)
        set_slot = object.__setattr__
        set_slot(rest, "atoms", tuple(self.atoms[i] for i in keep))
        set_slot(rest, "sig_ids", tuple(self.sig_ids[i] for i in keep))
        set_slot(rest, "codes", codes)
        set_slot(rest, "slot_vars", self.slot_vars)
        set_slot(rest, "slot_of", self.slot_of)
        set_slot(rest, "max_arity", max((len(c) for c in codes), default=0))
        return rest

    @property
    def n_slots(self) -> int:
        """Number of distinct variables in the source conjunction."""
        return len(self.slot_vars)

    @property
    def n_atoms(self) -> int:
        """Number of source atoms."""
        return len(self.atoms)

    def __len__(self) -> int:
        return len(self.atoms)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MatchPlan({len(self.atoms)} atoms, {len(self.slot_vars)} slots)"
        )


def shared_slot_links(
    source: MatchPlan, extension: MatchPlan
) -> tuple[tuple[int, int], ...]:
    """``(extension_slot, source_slot)`` pairs for the variables both plans bind.

    A completed *source* search (e.g. a tgd premise match) fixes exactly the
    shared variables of an *extension* plan (the tgd's conclusion); the kernel
    extension probe (:func:`repro.core.homomorphism.has_match_from_binding`)
    seeds the extension's slot array through these links straight from the
    source's slot array — slot to slot, uid to uid, no term objects.  The
    pairs are ordered by extension slot.  Like the plans themselves the links
    embed nothing process-portable and are compiled once per dependency (see
    :class:`repro.chase.plans.TGDPlan`).
    """
    source_slot_of = source.slot_of
    links: list[tuple[int, int]] = []
    for extension_slot, variable in enumerate(extension.slot_vars):
        source_slot = source_slot_of.get(variable.uid)
        if source_slot is not None:
            links.append((extension_slot, source_slot))
    return tuple(links)
