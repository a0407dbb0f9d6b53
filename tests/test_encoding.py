"""CNF compilation of the k-voter inducibility check.

The faithful mode's formula sizes follow closed forms: with m = floor(k/2)+1
and s = C(k, m), a complete digraph on n vertices compiles to

    variables   n^2 (k + s)
    clauses     k (n^3 + n^2)  +  C(n,2) (1 + s m)

and each unoriented pair of an incomplete digraph adds two at-least-k/2
disjunction blocks on top: C(k, k/2) n^2 extra variables once, and
2 (1 + C(k, k/2) k/2) extra clauses per missing pair.  These counts are the
oracle here; the acceptance suite sweeps the full grid.
"""

import itertools
from math import comb

import pytest

from majdim import (
    CnfFormula,
    Digraph,
    ParityError,
    decode_model,
    encode_check_k,
    induces,
    majority_threshold,
    solve,
)
from majdim.cnf import from_dimacs, to_dimacs
from majdim.encoding import ModelInconsistencyError

from conftest import (
    TOURNAMENT_5,
    exhaustive_k_inducible,
    random_digraph,
    random_tournament,
)


def predicted_vars(n: int, k: int, complete: bool) -> int:
    s = comb(k, majority_threshold(k))
    total = n * n * (k + s)
    if not complete:
        total += comb(k, k // 2) * n * n
    return total


def predicted_clauses(n: int, k: int, num_arcs: int, missing: int) -> int:
    m = majority_threshold(k)
    s = comb(k, m)
    total = k * (n**3 + n**2) + num_arcs * (1 + s * m)
    total += 2 * missing * (1 + comb(k, k // 2) * (k // 2))
    return total


def test_majority_threshold_values():
    assert [majority_threshold(k) for k in (1, 2, 3, 4, 5)] == [1, 2, 2, 3, 3]


def test_worked_count_example_n5_k3():
    f, _ = encode_check_k(TOURNAMENT_5, 3, mode="paper_faithful")
    assert f.num_vars == 150
    assert len(f.clauses) == 520


def test_faithful_counts_on_tournaments(rng):
    for n in (3, 4, 6):
        for k in (1, 3, 5):
            g = random_tournament(n, rng)
            f, _ = encode_check_k(g, k, mode="paper_faithful")
            assert f.num_vars == predicted_vars(n, k, complete=True)
            assert len(f.clauses) == predicted_clauses(n, k, g.arc_count, 0)


def test_faithful_counts_on_incomplete_digraphs(rng):
    for _ in range(10):
        g = random_digraph(5, rng)
        if g.is_tournament():
            continue
        missing = 5 * 4 // 2 - g.arc_count
        for k in (2, 4):
            f, _ = encode_check_k(g, k, mode="paper_faithful")
            assert f.num_vars == predicted_vars(5, k, complete=False)
            assert len(f.clauses) == predicted_clauses(5, k, g.arc_count, missing)


def test_parity_violations_are_rejected():
    cyc = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    incomplete = Digraph.from_arcs(3, [(0, 1)])
    with pytest.raises(ParityError):
        encode_check_k(cyc, 2)
    with pytest.raises(ParityError):
        encode_check_k(incomplete, 3)
    with pytest.raises(ValueError):
        encode_check_k(cyc, 0)


def test_varmap_literals_are_injective():
    n, k = 5, 3
    pairs = list(itertools.combinations(range(n), 2))
    for mode in ("paper_faithful", "optimized"):
        _, vm = encode_check_k(TOURNAMENT_5, k, mode=mode)
        seen = set()
        for i in range(k):
            for a in range(n):
                for b in range(n):
                    if a == b:
                        continue
                    lit = vm.preference_literal(i, a, b)
                    assert lit not in seen
                    seen.add(lit)
                    if mode == "paper_faithful":
                        assert lit == 1 + i * n * n + a * n + b
                    else:
                        rank = pairs.index((min(a, b), max(a, b)))
                        var = 1 + i * comb(n, 2) + rank
                        assert lit == (var if a < b else -var)
        for bad in ((k, 0, 1), (-1, 0, 1), (0, n, 1), (0, 1, -1)):
            with pytest.raises(ValueError, match="out of range"):
                vm.preference_literal(*bad)
        for a in range(n):
            if mode == "paper_faithful":
                assert vm.preference_literal(1, a, a) == 1 + n * n + a * n + a
            else:
                with pytest.raises(ValueError, match="diagonal"):
                    vm.preference_literal(1, a, a)


def _model_ranking(vm, beats):
    """Model in which voter i ranks a above b exactly for (a, b) in beats[i]."""
    model = {}
    for i, pairs in enumerate(beats):
        for a, b in pairs:
            for x, y, value in ((a, b, True), (b, a, False)):
                lit = vm.preference_literal(i, x, y)
                model[abs(lit)] = (lit > 0) == value
    return model


def test_decode_rejects_a_cyclic_voter():
    transitive = Digraph.from_arcs(3, [(0, 1), (1, 2), (0, 2)])
    for mode in ("paper_faithful", "optimized"):
        _, vm = encode_check_k(transitive, 1, mode=mode)
        model = _model_ranking(vm, [[(0, 1), (1, 2), (2, 0)]])
        with pytest.raises(ModelInconsistencyError, match="not transitive"):
            decode_model(model, vm, 3, 1)


def test_decode_rejects_both_directions_in_faithful_mode():
    transitive = Digraph.from_arcs(3, [(0, 1), (1, 2), (0, 2)])
    _, vm = encode_check_k(transitive, 1, mode="paper_faithful")
    model = _model_ranking(vm, [[(0, 1), (1, 2), (0, 2)]])
    assert decode_model(model, vm, 3, 1).voters == ((0, 1, 2),)
    model[vm.preference_literal(0, 2, 1)] = True
    with pytest.raises(ModelInconsistencyError, match="inconsistently"):
        decode_model(model, vm, 3, 1)


def test_decode_rejects_a_foreign_shape():
    f, vm = encode_check_k(TOURNAMENT_5, 3)
    model = solve(f).model
    for n, k in ((4, 3), (5, 1), (6, 5)):
        with pytest.raises(ValueError, match="built for n=5, k=3"):
            decode_model(model, vm, n, k)


def test_solve_trivial_formulas():
    assert solve(CnfFormula(1, ((1,),))).is_sat
    assert solve(CnfFormula(1, ((1,), (-1,)))).is_unsat


def test_solve_model_satisfies_clauses():
    f = CnfFormula(3, ((1, -2), (2, 3), (-1, -3)))
    res = solve(f)
    assert res.is_sat
    for clause in f.clauses:
        assert any(
            res.model[abs(lit)] == (lit > 0) for lit in clause
        )


def test_three_cycle_is_3_inducible_via_solver():
    cyc = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    f, vm = encode_check_k(cyc, 3)
    res = solve(f)
    assert res.is_sat
    p = decode_model(res.model, vm, 3, 3)
    assert induces(p, cyc)


@pytest.mark.parametrize("mode", ["paper_faithful", "optimized"])
def test_round_trip_on_random_instances(mode, rng):
    hits = 0
    for _ in range(30):
        g = random_digraph(rng.randrange(2, 6), rng)
        k = rng.choice((3, 5)) if g.is_tournament() else rng.choice((2, 4))
        f, vm = encode_check_k(g, k, mode=mode)
        res = solve(f)
        if res.is_sat:
            hits += 1
            p = decode_model(res.model, vm, g.n, k)
            assert p.k == k
            assert induces(p, g)
    assert hits > 5  # the sample must actually exercise the SAT branch


def test_modes_agree_on_satisfiability(rng):
    for _ in range(25):
        g = random_digraph(rng.randrange(2, 6), rng)
        k = 3 if g.is_tournament() else 2
        a = solve(encode_check_k(g, k, mode="paper_faithful")[0])
        b = solve(encode_check_k(g, k, mode="optimized")[0])
        assert a.is_sat == b.is_sat


def test_sat_matches_exhaustive_search_small():
    # every digraph on 3 vertices, every legal k up to 3
    for bits in itertools.product((0, 1, 2), repeat=3):
        arcs = []
        for idx, (a, b) in enumerate(itertools.combinations(range(3), 2)):
            if bits[idx] == 1:
                arcs.append((a, b))
            elif bits[idx] == 2:
                arcs.append((b, a))
        g = Digraph.from_arcs(3, arcs)
        ks = (1, 3) if g.is_tournament() else (2,)
        for k in ks:
            expected = exhaustive_k_inducible(g, k) is not None
            got = solve(encode_check_k(g, k)[0]).is_sat
            assert got == expected, (arcs, k)


def test_dimacs_round_trip():
    f = CnfFormula(4, ((1, -3), (2, 3, -4), (-1,)))
    text = to_dimacs(f)
    assert text.startswith("p cnf 4 3")
    assert from_dimacs(text) == f
