import dataclasses
import itertools
import warnings

import pytest
from hypothesis import example, given, strategies as st

import ctgen_oracle
from robovalid import cli, ctgen
from robovalid.ctgen import (
    CtError, CtModel, CtParameter, build_model, check_assignment,
    enumerate_valid, generate_covering_array,
    realize_configuration, verify_covering_array,
)
from robovalid.logic import (
    TRUE, PAnd, PEq, PNot, POr, Rigid, ground, peval,
)
from robovalid.tasks import EPSILON, Grammar, enumerate_derivations
from robovalid.theory import (
    GrammarRule, WorldState, enumerate_initial_worlds, ground_state_formula,
    initial_formulas, state_truth,
)
from robovalid.wp import holds_at, wp


def test_peval_kleene():
    f = POr((PEq("p", "a"), PNot(PEq("q", "b"))))
    assert peval(f, {"p": "a"}) is True
    assert peval(f, {"p": "x"}) is None  # q still unknown
    assert peval(f, {"p": "x", "q": "b"}) is False
    assert peval(PAnd((PEq("p", "a"), PEq("q", "b"))), {"p": "x"}) is False


@pytest.fixture(scope="module")
def put_model(putfrag, putfrag_grammar):
    return build_model(putfrag, putfrag_grammar, 3, 1)


@pytest.fixture(scope="module")
def put_valid(put_model):
    return sorted(enumerate_valid(put_model))


def test_put_fragment_parameters(put_model):
    names = [p.name for p in put_model.parameters]
    assert names[:3] == ["d1", "d2", "d3"]
    assert {"Loc_1_1", "Loc_1_2", "Loc_2_1", "Loc_2_2"} <= set(names)


def test_put_fragment_symmetry_forces_sources(put_model, put_valid):
    """Only bread and plate are placeable, so after symmetry breaking the
    first tuple carries o_b and the second o_p."""
    idx = ctgen_oracle.param_index(put_model)
    for row in put_valid:
        assert row[idx["Loc_1_1"]] == "o_b"
        assert row[idx["Loc_2_1"]] == "o_p"


def test_put_fragment_triplet_count(put_model, put_valid):
    """Eight valid (moved, source, destination) combinations."""
    trips = set()
    for row in put_valid:
        cfg = realize_configuration(put_model, row)
        o1, o3 = cfg.task.op.args
        o2 = next(args[1] for (f, args) in cfg.initial_world.true_atoms
                  if f == "Loc" and args[0] == o1)
        trips.add((o1, o2, o3))
    assert len(trips) == 8
    assert ("o_b", "o_p", "o_m") in trips
    assert ("o_b", "o_m", "o_p") in trips


def test_put_fragment_one_way_array(put_model, put_valid):
    rows = generate_covering_array(put_model, 1, put_valid)
    assert len(rows) == 3
    assert verify_covering_array(put_model, rows, 1, put_valid)


def test_decode_is_injective(put_model, put_valid):
    seen = set()
    for row in put_valid:
        cfg = realize_configuration(put_model, row)
        key = (cfg.initial_world.true_atoms, cfg.task)
        assert key not in seen
        seen.add(key)


def test_full_strength_returns_all_valid(put_model, put_valid):
    assert generate_covering_array(put_model, "full", put_valid) == put_valid


def test_every_configuration_accomplishable(put_model, put_valid, putfrag):
    worlds = list(enumerate_initial_worlds(putfrag))
    keys = {w.true_atoms for w in worlds}
    for row in put_valid:
        cfg = realize_configuration(put_model, row)
        assert cfg.initial_world.true_atoms in keys
        phi = wp(TRUE, cfg.task, putfrag).formula
        assert holds_at(phi, putfrag, cfg.initial_world)


def test_kitchen_full_matches_cross_product_oracle(kitchen, kitchen_grammar,
                                                   kitchen_worlds):
    model = build_model(kitchen, kitchen_grammar, 4, "full")
    valid = sorted(enumerate_valid(model))
    oracle = sum(1 for _, task in enumerate_derivations(kitchen_grammar, 4, kitchen)
                 for w in kitchen_worlds
                 if holds_at(wp(TRUE, task, kitchen).formula, kitchen, w))
    assert len(valid) == oracle == 33


def test_kitchen_arrays_sound_covered_monotone(kitchen, kitchen_grammar):
    model = build_model(kitchen, kitchen_grammar, 4, 2)
    valid = sorted(enumerate_valid(model))
    sizes = []
    for t in (1, 2, 3):
        rows = generate_covering_array(model, t, valid)
        assert verify_covering_array(model, rows, t, valid)
        for row in rows:
            assert check_assignment(model, row)
        sizes.append(len(rows))
    assert sizes == sorted(sizes)


def test_coverable_tuples_only_from_valid_rows(put_model, put_valid):
    tuples = ctgen_oracle.coverable_tuples(put_model, 1, put_valid)
    idx = ctgen_oracle.param_index(put_model)
    # d1 can only ever be the single task rule
    d1_vals = {pair[0][1] for pair in tuples if pair[0][0] == idx["d1"]}
    assert d1_vals == {"r_t1"}


def test_strength_above_parameter_count_covers_whole_rows(put_model, put_valid):
    """With 7 parameters, strength 8 asks for every row, whole."""
    assert len(put_model.parameters) == 7
    assert generate_covering_array(put_model, 8, put_valid) == put_valid
    assert verify_covering_array(put_model, put_valid, 8, put_valid)
    assert not verify_covering_array(put_model, put_valid[:1], 8, put_valid)


def test_bad_strength_rejected(put_model, putfrag, putfrag_grammar, monkeypatch):
    """generate_covering_array rejects a bad strength, and build_model
    rejects it before it enumerates a single world."""
    for bad in (0, "partial"):
        with pytest.raises(CtError):
            generate_covering_array(put_model, bad)
    monkeypatch.setattr(ctgen, "enumerate_initial_worlds",
                        lambda theory: pytest.fail("worlds enumerated first"))
    for bad in (0, "partial"):
        with pytest.raises(CtError):
            build_model(putfrag, putfrag_grammar, 3, bad)


@pytest.mark.parametrize("name,depth,strengths", [("kitchen", 4, (1, 2, 3)),
                                                  ("kitchen", 6, (1, 2, 3)),
                                                  ("putfrag", 3, (1, 2, 3, 8)),
                                                  ("kitchen", 6, (4,))])
def test_covering_array_matches_rescan_oracle(request, name, depth, strengths):
    """The lazy greedy over bit masks picks the rows, in order, that a full
    rescan of every row's tuple set picks.  putfrag has 7 parameters, so
    strength 8 is clamped.  The greedy counts gains over the varying
    columns only, and these models have constant ones: at depth 6, 9 of
    kitchen4's 18 parameters hold one value in every valid row."""
    theory = request.getfixturevalue(name)
    model = build_model(theory, request.getfixturevalue(name + "_grammar"), depth, 2)
    valid = list(enumerate_valid(model))
    for t in strengths:
        assert (generate_covering_array(model, t, valid)
                == ctgen_oracle.generate_covering_array(model, t, valid))


@st.composite
def synthetic_rows(draw):
    """A model of 2-6 parameters with 2 or 3 values each, and distinct
    rows over it: small domains make many rows tie on gain.  Some
    columns, none, a few or all, are pinned to one value in every row,
    as the valid rows of a real model pin some parameters."""
    sizes = draw(st.lists(st.integers(2, 3), min_size=2, max_size=6))
    model = CtModel([CtParameter("p%d" % i, ("a", "b", "c")[:n])
                     for i, n in enumerate(sizes)])
    pinned = draw(st.sets(st.integers(0, len(sizes) - 1)))
    row = st.tuples(*(st.just(draw(st.sampled_from(p.domain))) if i in pinned
                      else st.sampled_from(p.domain)
                      for i, p in enumerate(model.parameters)))
    return model, draw(st.lists(row, unique=True, max_size=40))


_AB3 = CtModel([CtParameter("p%d" % i, ("a", "b")) for i in range(3)])


@given(synthetic_rows(), st.integers(1, 5))
@example((CtModel([CtParameter("p0", ("a", "b")), CtParameter("p1", ("a", "b"))]),
          []), 2)
# all columns constant: one row, and strength above the parameter count
@example((_AB3, [("a", "b", "a")]), 2)
@example((_AB3, [("a", "b", "a")]), 5)
# one constant column, at strength 3, above the two varying ones, and at 2
@example((_AB3, [("a", "a", "a"), ("a", "b", "a"), ("a", "a", "b"), ("a", "b", "b")]), 3)
@example((_AB3, [("a", "a", "a"), ("a", "b", "a"), ("a", "a", "b"), ("a", "b", "b")]), 2)
def test_covering_array_matches_rescan_oracle_on_synthetic_rows(model_rows, t):
    model, rows = model_rows
    assert (generate_covering_array(model, t, rows)
            == ctgen_oracle.generate_covering_array(model, t, rows))


@pytest.mark.parametrize("name,depth", [("putfrag", d) for d in (1, 2, 3)]
                         + [("kitchen", d) for d in range(1, 7)]
                         + [("tiny", 6)])
def test_enumerate_valid_matches_solver_oracle(request, name, depth):
    """The rows built from worlds x WPs are the rows the constraint solver
    finds, in the same order, and each one satisfies every constraint."""
    theory = request.getfixturevalue(name)
    model = build_model(theory, request.getfixturevalue(name + "_grammar"), depth, 2)
    rows = list(enumerate_valid(model))
    assert rows == list(ctgen_oracle.enumerate_valid(model))
    assert all(check_assignment(model, row) for row in rows)


def test_wp_computed_once_per_accomplishable_derivation(kitchen, monkeypatch):
    """Generating computes no WP.  The first read of `wps` computes each
    accomplishable derivation's WP once, in derivation order; the
    constraints reuse them, and a second read of the constraints is the
    same list, grounded no further."""
    tasks, grounded = [], []
    compute_wp, ground_ = ctgen.compute_wp, ctgen.ground
    monkeypatch.setattr(ctgen, "compute_wp",
                        lambda phi, task, theory: tasks.append(task)
                        or compute_wp(phi, task, theory))
    monkeypatch.setattr(ctgen, "ground",
                        lambda *a: grounded.append(a) or ground_(*a))
    model, _, _, _ = cli._generate(kitchen, 4, 2)
    assert tasks == grounded == []
    accomplishable = [steps for steps in model.derivations if steps in model.wp_worlds]
    assert list(model.wps) == accomplishable
    assert tasks == [model.derivations[steps] for steps in accomplishable]
    assert len(tasks) == 8
    constraints = model.constraints
    assert len(tasks) == 8 and grounded
    grounded.clear()
    assert model.constraints is constraints
    assert len(tasks) == 8 and grounded == []


def test_realize_accepts_exactly_the_worlds_its_grounded_wp_holds_in(
        kitchen, kitchen_grammar):
    """Every accomplishable derivation's steps with every initial world's
    encoding realizes exactly when the derivation's WP, grounded over the
    state, holds there, and is "not accomplishable" otherwise: the
    membership check against the worlds run forward is the WP check."""
    model = build_model(kitchen, kitchen_grammar, 4, 2)
    held = rejected = 0
    for steps, wpf in model.wps.items():
        grounded = ground_state_formula(kitchen, wpf)
        for w in model.worlds:
            row = steps + ctgen.encode_world(model, w)
            if peval(grounded, state_truth(kitchen, w)) is True:
                assert realize_configuration(model, row).initial_world == w
                held += 1
            else:
                with pytest.raises(CtError, match="not accomplishable"):
                    realize_configuration(model, row)
                rejected += 1
    assert held == len(list(enumerate_valid(model))) == 33
    assert rejected > 0


@pytest.fixture(scope="module")
def kitchen_choice_grammar(kitchen):
    """The kitchen grammar plus a choice between two actions, so tasks
    have more than one branch."""
    return Grammar(dataclasses.replace(
        kitchen, grammar=kitchen.grammar + [GrammarRule("r_or", "T", ("[", "A", "|", "A", "]"))]))


@pytest.mark.parametrize("name,grammar,depth",
                         [("kitchen", "kitchen_grammar", d) for d in range(1, 8)]
                         + [("putfrag", "putfrag_grammar", d) for d in (1, 2, 3)]
                         + [("tiny", "tiny_grammar", 6),
                            ("kitchen", "kitchen_choice_grammar", 5)])
def test_accomplishing_worlds_match_grounded_wp_oracle(request, name, grammar,
                                                       depth):
    """Running each task forward finds exactly the worlds that satisfy its
    grounded weakest precondition, derivation by derivation."""
    theory = request.getfixturevalue(name)
    grammar = request.getfixturevalue(grammar)
    worlds = list(enumerate_initial_worlds(theory))
    got = list(enumerate_derivations(grammar, depth, theory, worlds))
    want = [(steps, task, sat) for steps, task, _, sat
            in ctgen_oracle.derivation_wps(theory, grammar, depth, worlds)]
    assert got == want


def test_never_true_family_gets_no_tuple_parameters(tiny, tiny_grammar):
    """R/2 is false in every initial world, so its instance bound is 0;
    Near/2 holds of at most two pairs, so its bound is 2."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = build_model(tiny, tiny_grammar, 6, 2)
    assert model.tuple_params["R"] == []
    assert [p.name for p in model.parameters][6:] == [
        "Near_1_1", "Near_1_2", "Near_2_1", "Near_2_2", "Up_a", "Up_b", "On"]
    rows = list(enumerate_valid(model))
    assert len(rows) == 12 * 4
    assert rows == list(ctgen_oracle.enumerate_valid(model))
    for row in rows:
        cfg = realize_configuration(model, row)
        assert ctgen.encode_world(model, cfg.initial_world) == row[6:]


def test_realize_rejects_a_flipped_world(kitchen, kitchen_grammar, kitchen_worlds):
    """Flipping one unary parameter of a valid row gives a world outside
    the initial worlds, which is the "violates the initial axioms" error,
    or another initial world, which realizes exactly when the task's WP
    holds there."""
    model = build_model(kitchen, kitchen_grammar, 4, 2)
    index = ctgen_oracle.param_index(model)
    worlds = {w.true_atoms for w in kitchen_worlds}
    violations = 0
    for row in enumerate_valid(model):
        steps = row[:model.depth]
        for pname, atom in model.unary_params.items():
            i = index[pname]
            flipped = row[:i] + ({"true": "false", "false": "true"}[row[i]],) + row[i + 1:]
            world = realize_configuration(model, row).initial_world.true_atoms ^ {atom}
            if world not in worlds:
                violations += 1
                with pytest.raises(CtError, match="violates the initial axioms"):
                    realize_configuration(model, flipped)
            elif holds_at(model.wps[steps], kitchen, WorldState(world)):
                assert realize_configuration(model, flipped).initial_world.true_atoms == world
            else:
                with pytest.raises(CtError, match="not accomplishable"):
                    realize_configuration(model, flipped)
    assert violations > 0


def test_realize_agrees_with_check_assignment(kitchen, kitchen_grammar):
    """A valid row with two instances of a family swapped breaks the
    symmetry breaking: it is no initial world's encoding, and the
    constraints reject it.  A valid row with one tuple component set to
    any value of its domain, epsilon included, realizes exactly when it
    satisfies the constraints."""
    model = build_model(kitchen, kitchen_grammar, 4, 2)
    index = ctgen_oracle.param_index(model)
    comps = [index[c] for insts in model.tuple_params.values()
             for inst in insts for c in inst]
    swapped = realized = rejected = 0
    for row in enumerate_valid(model):
        for insts in model.tuple_params.values():
            for x, y in itertools.combinations(insts, 2):
                values = list(row)
                for a, b in zip(x, y):
                    values[index[a]], values[index[b]] = row[index[b]], row[index[a]]
                if tuple(values) != row:
                    swapped += 1
                    assert not check_assignment(model, tuple(values))
                    with pytest.raises(CtError, match="violates the initial axioms"):
                        realize_configuration(model, tuple(values))
        for mutant in {row[:i] + (v,) + row[i + 1:]
                       for i in comps for v in model.parameters[i].domain}:
            try:
                realize_configuration(model, mutant)
            except CtError:
                assert not check_assignment(model, mutant)
                rejected += 1
            else:
                assert check_assignment(model, mutant)
                realized += 1
    assert swapped > 0 and realized > 0 and rejected > 0


def test_realize_rejects_an_unknown_derivation(put_model, put_valid):
    row = (EPSILON,) * put_model.depth + put_valid[0][put_model.depth:]
    with pytest.raises(CtError, match="is not a valid one"):
        realize_configuration(put_model, row)


@pytest.mark.parametrize("name,depth", [("kitchen", 4), ("putfrag", 3)])
def test_constraints_equal_an_unmemoized_regrounding(request, name, depth):
    """Each initial-axiom and WP constraint equals its formula grounded
    again through an atom callback that builds every encoding afresh."""
    theory = request.getfixturevalue(name)
    model = build_model(theory, request.getfixturevalue(name + "_grammar"), depth, 2)
    unary = {atom: pname for pname, atom in model.unary_params.items()}

    def atom(node, args):
        if isinstance(node, Rigid):
            return (node.name, args) in theory.rigid_truths
        if (node.name, args) in unary:
            return PEq(unary[(node.name, args)], "true")
        return POr(tuple(PAnd(tuple(PEq(c, a) for c, a in zip(inst, args)))
                         for inst in model.tuple_params[node.name]))

    want = [("initial axiom %d" % i, ground(phi, theory.objects, atom))
            for i, phi in enumerate(initial_formulas(theory), 1)]
    for steps, wpf in model.wps.items():
        ant = PAnd(tuple(PEq("d%d" % k, v) for k, v in enumerate(steps, 1)))
        want.append(("WP of derivation %s" % ",".join(s for s in steps if s != EPSILON),
                     POr((PNot(ant), ground(wpf, theory.objects, atom)))))
    labels = {label for label, _ in want}
    assert len(labels) == len(want) > len(model.wps)
    assert [(c.label, c.formula) for c in model.constraints if c.label in labels] == want
