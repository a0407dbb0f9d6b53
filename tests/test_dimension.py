"""Dimension search, fast paths, and the SAT-free 3-inducibility oracle."""

import importlib
import itertools
from pathlib import Path

import pytest

from majdim import (
    Digraph,
    Profile,
    SolverTimeout,
    canonical_form,
    check_k_majority,
    decompose,
    dimension,
    enumerate_tournaments,
    induces,
    min_fas_size,
    qr_tournament,
    two_partition_check_3,
    two_voter_orders,
)
from majdim.encoding import ModelInconsistencyError

from conftest import (
    HEX_NOT_2,
    TOURNAMENT_5,
    acyclic_by_search,
    exhaustive_k_inducible,
    orientation_compatible,
    random_digraph,
    random_tournament,
)


def test_transitive_tournament_has_dimension_one():
    g = Digraph.from_arcs(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    res = dimension(g)
    assert res.dim == 1 and res.method == "fast_path_1"
    assert induces(res.witness, g)


def test_three_cycle_has_dimension_three():
    res = dimension(Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)]))
    assert res.dim == 3 and res.method == "sat"
    assert res.witness.k == 3


def test_two_voter_fast_path():
    g = Digraph.from_arcs(4, [(0, 1), (2, 3)])
    res = dimension(g)
    assert res.dim == 2 and res.method == "fast_path_2"
    assert induces(res.witness, g)


def test_two_voter_fast_path_checks_its_witness(monkeypatch):
    # two identical orders induce a transitive tournament, not these arcs
    module = importlib.import_module("majdim.dimension")  # not the function
    monkeypatch.setattr(module, "two_voter_orders", lambda g: ([0, 1, 2, 3],) * 2)
    with pytest.raises(ModelInconsistencyError):
        dimension(Digraph.from_arcs(4, [(0, 1), (2, 3)]))


def test_known_tournament_dimension():
    res = dimension(TOURNAMENT_5)
    assert res.dim == 3
    assert induces(res.witness, TOURNAMENT_5)


def test_obstructed_incomparability_needs_four_voters():
    assert two_voter_orders(HEX_NOT_2) is None
    res = dimension(HEX_NOT_2)
    assert res.dim == 4
    assert induces(res.witness, HEX_NOT_2)


def test_dimension_parity_matches_completeness(rng):
    for _ in range(15):
        g = random_digraph(5, rng)
        res = dimension(g)
        assert res.dim is not None
        assert res.dim % 2 == (1 if g.is_tournament() else 0)
        assert induces(res.witness, g)


def test_unknown_when_bound_exhausted():
    cyc = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    res = dimension(cyc, max_k=1)
    assert res.dim is None and res.witness is None
    assert res.to_record() == {"dim": None, "max_k": 1}


def test_check_k_witness_has_k_voters():
    p = check_k_majority(TOURNAMENT_5, 5)
    assert p is not None and p.k == 5
    assert induces(p, TOURNAMENT_5)


def test_is_2_inducible_matches_exhaustive_search(rng):
    agree_yes = 0
    for _ in range(40):
        g = random_digraph(4, rng)
        if g.is_tournament():
            continue
        expected = exhaustive_k_inducible(g, 2) is not None
        assert (two_voter_orders(g) is not None) == expected
        agree_yes += expected
    assert agree_yes > 3


def test_is_2_inducible_agrees_with_solver(rng):
    for _ in range(25):
        g = random_digraph(5, rng)
        if g.is_tournament():
            continue
        assert (two_voter_orders(g) is not None) == (
            check_k_majority(g, 2) is not None
        )
    # 2-dimensional posets, the pairs two seeded random orders agree on,
    # are 2-inducible by construction
    for n in (20, 30, 40):
        for _ in range(3):
            ranks = []
            for _ in range(2):
                order = list(range(n))
                rng.shuffle(order)
                ranks.append({v: i for i, v in enumerate(order)})
            g = Digraph.from_arcs(
                n,
                [
                    (u, v)
                    for u, v in itertools.permutations(range(n), 2)
                    if all(r[u] < r[v] for r in ranks)
                ],
            )
            orders = two_voter_orders(g)
            assert orders is not None
            assert induces(Profile.of(n, *orders), g)


def test_two_partition_split_is_well_formed():
    split = two_partition_check_3(TOURNAMENT_5)
    assert split is not None
    e1, e2 = split
    assert e1.is_transitive()
    assert acyclic_by_search(e2)
    assert orientation_compatible(e1, e2)
    merged = set(e1.arcs()) | set(e2.arcs())
    assert merged == set(TOURNAMENT_5.arcs())


def test_two_partition_agrees_with_solver_on_small_tournaments(rng):
    for n in (3, 4, 5, 6):
        for _ in range(8):
            t = random_tournament(n, rng)
            split = two_partition_check_3(t)
            witness = check_k_majority(t, 3)
            assert (split is not None) == (witness is not None)
    for n in range(1, 8):
        for t in enumerate_tournaments(n):
            split = two_partition_check_3(t)
            assert (split is not None) == (check_k_majority(t, 3) is not None)


BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_two_partition_refutes_exactly_the_listed_8_classes(monkeypatch):
    # the census's 96 SAT refutations at n = 8, checked without a solver
    monkeypatch.syspath_prepend(str(BENCH))
    from checks import decode_key

    lines = (BENCH / "data" / "n8_not3.txt").read_text().splitlines()
    keys = [line.strip() for line in lines if line.strip() and line[0] != "#"]
    listed = {canonical_form(Digraph(*decode_key(key))) for key in keys}
    assert len(listed) == 96
    refuted = set()
    for t in enumerate_tournaments(8):
        split = two_partition_check_3(t)
        if split is None:
            refuted.add(canonical_form(t))
            continue
        e1, e2 = split
        assert [a | b for a, b in zip(e1.rows, e2.rows)] == list(t.rows)
        assert not any(a & b for a, b in zip(e1.rows, e2.rows))
        assert acyclic_by_search(e2) and two_voter_orders(e1) is not None
    assert refuted == listed


def test_two_partition_rejects_oversized_input(rng):
    with pytest.raises(ValueError):
        two_partition_check_3(random_tournament(9, rng))


def test_two_partition_rejects_non_tournaments():
    with pytest.raises(ValueError, match="requires a tournament"):
        two_partition_check_3(HEX_NOT_2)


def _least_inducing_k(t):
    k = 1
    while check_k_majority(t, k) is None:
        k += 2
    return k


def test_composite_tournaments_take_the_decomposition_route(rng):
    methods = set()
    for n in (6, 7):
        for _ in range(8):
            t = random_tournament(n, rng)
            res = dimension(t)
            assert res.dim == _least_inducing_k(t)
            assert induces(res.witness, t)
            composite = not t.is_transitive() and len(decompose(t).components) < n
            assert (res.method == "decomposition") == composite
            methods.add(res.method)
    assert {"sat", "decomposition"} <= methods


def test_planted_composite_recurses_into_its_prime_block():
    # Q_11 substituted for one vertex of a 3-cycle: block -> 11 -> 12 -> block
    q11 = qr_tournament(11)
    arcs = q11.arcs() + [(11, 12)]
    arcs += [(v, 11) for v in range(11)] + [(12, v) for v in range(11)]
    t = Digraph.from_arcs(13, arcs)
    res = dimension(t)
    assert res.dim == 5 and res.method == "decomposition"
    assert induces(res.witness, t)


# ---------------------------------------------------------------------------
# feedback arc sets


def _min_fas_by_permutation(g):
    best = g.arc_count
    for order in itertools.permutations(range(g.n)):
        pos = {v: i for i, v in enumerate(order)}
        back = sum(1 for u, v in g.arcs() if pos[u] > pos[v])
        best = min(best, back)
    return best


def test_min_fas_known_values():
    assert min_fas_size(Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])) == 1
    transitive = Digraph.from_arcs(
        4, [(i, j) for i in range(4) for j in range(i + 1, 4)]
    )
    assert min_fas_size(transitive) == 0


def test_min_fas_matches_permutation_scan(rng):
    for _ in range(15):
        g = random_digraph(6, rng)
        assert min_fas_size(g) == _min_fas_by_permutation(g)


def test_min_fas_rejects_oversized_input():
    with pytest.raises(ValueError):
        min_fas_size(Digraph.empty(17))


def test_exhausted_budget_raises_timeout():
    # refuting k = 5 on Q_19 takes hundreds of thousands of conflicts,
    # seconds at the least, so a 0.2 s budget always runs out
    with pytest.raises(SolverTimeout, match="k=5"):
        check_k_majority(qr_tournament(19), 5, timeout=0.2)
