"""Reference initial-world enumeration and effect-condition grounding for
differential tests.

`enumerate_initial_worlds` is the backtracking the package used before it
indexed the axioms' conjuncts by atom: after every assignment it
re-evaluates every grounded initial axiom over the partial assignment,
starting with the empty one.

`instantiate_gamma` and `ground_effects` are how `theory.ground_op`
grounded effect conditions before it bound the successor axiom's
parameters in `logic.ground`'s environment: per atom, substitute the
atom's arguments for the parameters, fold the operation equalities,
anchor at s0 and ground, for every ground primitive atom.
"""

from typing import Iterator

from robovalid.logic import Formula, Obj, PFormula, S0, anchor, peval, substitute_all
from robovalid.theory import (
    ActionTheory, GroundAtom, GroundOp, WorldState, ground_state_formula,
    initial_formulas, instantiate_op_equalities,
)


def instantiate_gamma(gamma: Formula, params: tuple[str, ...],
                      atom_args: tuple[str, ...], op: GroundOp) -> Formula:
    """Instantiate an effect condition for one ground atom and operation."""
    phi = substitute_all(gamma, dict(zip(params, map(Obj, atom_args))))
    return instantiate_op_equalities(phi, op)


def ground_effects(theory: ActionTheory, op: GroundOp
                   ) -> dict[GroundAtom, tuple[PFormula, PFormula]]:
    """(gamma+, gamma-) of every ground primitive atom for `op`, each
    instantiated and grounded on its own."""
    out = {}
    for atom in theory.all_primitive_atoms():
        sa = theory.successor[atom[0]]
        out[atom] = tuple(
            ground_state_formula(theory, anchor(instantiate_gamma(g, sa.params, atom[1], op), S0))
            for g in (sa.gamma_plus, sa.gamma_minus))
    return out


def enumerate_initial_worlds(theory: ActionTheory) -> Iterator[WorldState]:
    atoms = theory.all_primitive_atoms()
    axioms = [ground_state_formula(theory, f) for f in initial_formulas(theory)]
    assigned: dict[GroundAtom, bool] = {}

    def consistent() -> bool:
        return all(peval(ax, assigned) is not False for ax in axioms)

    def rec(i: int) -> Iterator[WorldState]:
        if i == len(atoms):
            yield WorldState(frozenset(a for a, v in assigned.items() if v))
            return
        for value in (False, True):
            assigned[atoms[i]] = value
            if consistent():
                yield from rec(i + 1)
            del assigned[atoms[i]]

    if consistent():
        yield from rec(0)
