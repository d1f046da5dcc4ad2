"""Reference initial-world enumeration for differential tests.

`enumerate_initial_worlds` is the backtracking the package used before it
indexed the axioms' conjuncts by atom: after every assignment it
re-evaluates every grounded initial axiom over the partial assignment,
starting with the empty one.
"""

from typing import Iterator

from robovalid.logic import S0, peval
from robovalid.theory import (
    ActionTheory, GroundAtom, WorldState, ground_primitive, initial_formulas,
)


def enumerate_initial_worlds(theory: ActionTheory) -> Iterator[WorldState]:
    atoms = theory.all_primitive_atoms()
    axioms = [ground_primitive(theory, f, S0) for f in initial_formulas(theory)]
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
