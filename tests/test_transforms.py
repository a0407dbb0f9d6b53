"""CNF normal forms: ordering and occurrence reduction, SAT-preserving."""

import random

import pytest

from majdim import (
    CnfFormula,
    ThreeCnf,
    brute_force_sat,
    random_three_cnf,
    solve,
    to_ordered3,
    to_reducedfew,
)
from majdim.cnf import from_dimacs, to_dimacs


def test_three_cnf_validation():
    with pytest.raises(ValueError):
        ThreeCnf.of(2, [(1, 2, 3)])  # variable out of range
    with pytest.raises(ValueError):
        ThreeCnf.of(3, [(1, 1, 2)])  # repeated variable
    with pytest.raises(ValueError):
        ThreeCnf.of(3, [(1, -1, 2)])  # complementary pair
    with pytest.raises(ValueError):
        ThreeCnf.of(3, [(0, 1, 2)])  # zero literal
    with pytest.raises(ValueError, match="negative variable count"):
        ThreeCnf.of(-1, [])
    with pytest.raises(ValueError, match="empty clause"):
        ThreeCnf.of(3, [(1, 2), ()])
    with pytest.raises(ValueError, match="1..3 literals"):
        ThreeCnf.of(4, [(1, -2, 3, 4)])
    ThreeCnf.of(3, [(1, -2, 3), (-1, 2)])  # widths 2 and 3 are fine


def test_ordered_predicate():
    # three literals everywhere, positive occurrences before negative ones
    ordered = ThreeCnf.of(3, [(1, 2, 3), (-1, -2, -3)])
    unordered = ThreeCnf.of(3, [(-1, 2, 3), (1, -2, -3)])
    two_wide = ThreeCnf.of(3, [(1, 2), (-1, -2, 3)])
    assert ordered.is_ordered
    assert not unordered.is_ordered
    assert not two_wide.is_ordered


def test_reduced_few_predicate():
    ok = ThreeCnf.of(3, [(1, 2, 3), (-1, -2)])
    assert ok.is_reduced_few
    # variables 1..3 each sit in two different 3-clauses
    two_triples = ThreeCnf.of(3, [(1, 2, 3), (-1, -2, -3)])
    assert not two_triples.is_reduced_few
    # four occurrences of variable 1
    crowded = ThreeCnf.of(
        3, [(1, 2), (1, 3), (-1, 2), (-1, 3)]
    )
    assert not crowded.is_reduced_few


def test_brute_force_sat_on_known_formulas():
    assert brute_force_sat(ThreeCnf.of(2, [(1, 2)]))
    assert brute_force_sat(ThreeCnf.of(1, [(1,)]))
    assert not brute_force_sat(ThreeCnf.of(1, [(1,), (-1,)]))
    # pigeonhole-flavoured contradiction on two variables
    assert not brute_force_sat(
        ThreeCnf.of(2, [(1, 2), (1, -2), (-1, 2), (-1, -2)])
    )


def test_random_three_cnf_is_reproducible():
    a = random_three_cnf(random.Random(7), 6, 10)
    b = random_three_cnf(random.Random(7), 6, 10)
    assert a == b
    assert all(len(c) == 3 for c in a.clauses)


def test_ordered3_output_is_ordered():
    rng = random.Random(3)
    for _ in range(40):
        f = random_three_cnf(rng, rng.randrange(2, 7), rng.randrange(1, 6))
        g = to_ordered3(f)
        assert g.is_ordered
        assert all(len(c) == 3 for c in g.clauses)


def test_reducedfew_output_is_reduced():
    rng = random.Random(4)
    for _ in range(40):
        f = random_three_cnf(rng, rng.randrange(2, 7), rng.randrange(1, 6))
        g = to_reducedfew(f)
        assert g.is_reduced_few


def _solver_sat(g):
    # transformed outputs overflow the truth-table cap; the SAT backend
    # (validated independently against exhaustive search) decides them
    return solve(g).is_sat


def test_transforms_preserve_satisfiability():
    rng = random.Random(5)
    sat_seen = unsat_seen = 0
    for _ in range(120):
        nv = rng.randrange(2, 6)
        f = random_three_cnf(
            rng,
            nv,
            rng.randrange(nv, 4 * nv + 2),
            exactly_three=rng.random() < 0.5,
        )
        verdict = brute_force_sat(f)
        sat_seen += verdict
        unsat_seen += not verdict
        assert _solver_sat(to_ordered3(f)) == verdict
        assert _solver_sat(to_reducedfew(f)) == verdict
    # the sample has to contain both answers for the check to mean anything
    assert sat_seen > 10 and unsat_seen > 10


def test_transforms_preserve_truth_table_verdicts():
    # small enough that both sides fit under the exhaustive oracle
    rng = random.Random(9)
    checked = 0
    while checked < 15:
        f = random_three_cnf(rng, 3, 2, exactly_three=rng.random() < 0.5)
        g = to_ordered3(f)
        h = to_reducedfew(f)
        if g.num_vars > 20 or h.num_vars > 20:
            continue
        checked += 1
        verdict = brute_force_sat(f)
        assert brute_force_sat(g) == verdict
        assert brute_force_sat(h) == verdict


def test_transforms_compose():
    rng = random.Random(6)
    for _ in range(25):
        f = random_three_cnf(rng, 5, 4)
        g = to_reducedfew(to_ordered3(f))
        assert g.is_reduced_few
        assert _solver_sat(g) == brute_force_sat(f)


def test_rewrites_feed_dimacs_and_the_solver_directly():
    # a ThreeCnf is a CnfFormula, so the rewrites' output needs no conversion
    rng = random.Random(11)
    checked = 0
    while checked < 30:
        f = random_three_cnf(
            rng, 3, rng.randrange(1, 4), exactly_three=rng.random() < 0.5
        )
        for g in (to_ordered3(f), to_reducedfew(f)):
            assert isinstance(g, CnfFormula)
            back = from_dimacs(to_dimacs(g))
            assert (back.num_vars, back.clauses) == (g.num_vars, g.clauses)
            if g.num_vars > 20:
                continue
            checked += 1
            assert solve(g).is_sat == brute_force_sat(g) == brute_force_sat(f)
