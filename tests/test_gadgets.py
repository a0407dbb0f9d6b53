"""Formula-to-tournament compilers and their constant-size witnesses.

Every builder certifies its own output (the constructor re-checks that the
witness profile induces the graph), so constructing on a random formula
battery is already an end-to-end check; the tests below add the voter-count
contracts, the block decomposition structure, weight sets, and desk-scale
semantic probes.
"""

import hashlib
import itertools
import random

import pytest

from majdim import (
    Digraph,
    ThreeCnf,
    UndirectedGraph,
    WeightedDigraph,
    banks_tournament,
    brute_force_sat,
    combine_blocks,
    induces,
    kemeny_subdivide,
    min_fas_size,
    random_three_cnf,
    rp_digraph,
    rp_tournament,
    slater_tournament,
    teq_tournament,
    to_ordered3,
    to_reducedfew,
    transitive_orientation,
    two_voter_orders,
    two_voter_profile,
)
from majdim.profiles import weighted_majority

from conftest import (
    orientation_compatible,
    random_digraph,
    reference_banks_tournament,
    reference_slater_tournament,
    reference_teq_tournament,
)

BATTERY = 30  # formulas per builder here; the acceptance suite runs 100+


def random_ordered_formula(rng) -> ThreeCnf:
    """Rejection-sample an ordered formula, nudged by a positives-first sort."""
    while True:
        f = random_three_cnf(
            rng, rng.randrange(2, 7), rng.randrange(1, 7), exactly_three=True
        )
        nudged = ThreeCnf.of(
            f.num_vars,
            sorted(f.clauses, key=lambda c: sum(lit < 0 for lit in c)),
        )
        if nudged.is_ordered:
            return nudged
        if f.is_ordered:
            return f


def random_reduced_formula(rng) -> ThreeCnf:
    while True:
        f = random_three_cnf(
            rng,
            rng.randrange(2, 5),
            rng.randrange(1, 3),
            exactly_three=rng.random() < 0.7,
        )
        g = to_reducedfew(f)
        if g.clauses:  # unit propagation can solve the input outright
            return g


def support_arcs(g) -> set:
    if isinstance(g, WeightedDigraph):
        return {(u, v) for u, v, _ in g.positive_arcs()}
    return set(g.arcs())


def assert_block_structure(out):
    """Named blocks are mutually compatible and cover the graph exactly.

    The completion entry (a full linear-order closure, when present) may
    re-orient pairs already settled by the named blocks, so only its residue
    on uncovered pairs counts toward the coverage identity.
    """
    named = [(n, b) for n, b in out.block_trace if n != "completion"]
    completions = [b for n, b in out.block_trace if n == "completion"]
    for i, (_, a) in enumerate(named):
        for _, b in named[i + 1:]:
            assert orientation_compatible(a, b)
    union = set()
    for _, block in named:
        union |= set(block.arcs())
    sup = support_arcs(out.graph)
    assert union <= sup
    covered = {frozenset(a) for a in union}
    residue = set()
    for comp in completions:
        residue |= {a for a in comp.arcs() if frozenset(a) not in covered}
    assert union | residue == sup


# ---------------------------------------------------------------------------
# building blocks


def test_two_voter_profile_margins(rng):
    for _ in range(30):
        g = random_digraph(6, rng)
        if not g.is_transitive():
            continue
        try:
            p = two_voter_profile(g)
        except ValueError:
            continue  # incomparability graph not orientable
        assert p.k == 2
        assert induces(p, g)
        w = weighted_majority(p)
        assert all(w.weight(u, v) == 2 for u, v in g.arcs())


def test_two_voter_orders_on_zero_and_one_vertex():
    assert two_voter_orders(Digraph.empty(0)) == ([], [])
    assert two_voter_orders(Digraph.empty(1)) == ([0], [0])


def test_two_voter_profile_rejects_intransitive():
    with pytest.raises(ValueError):
        two_voter_profile(Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)]))


def test_combine_blocks_stacks_voters():
    e1 = Digraph.from_arcs(4, [(0, 1)])
    e2 = Digraph.from_arcs(4, [(2, 3)])
    p = combine_blocks(
        [two_voter_profile(e1), two_voter_profile(e2)], (0, 1, 2, 3)
    )
    assert p.k == 5
    assert induces(p, Digraph.from_arcs(4, [(0, 1), (2, 3), (0, 2), (0, 3), (1, 2), (1, 3)]))


def test_combine_blocks_rejects_conflicting_blocks():
    e1 = Digraph.from_arcs(2, [(0, 1)])
    e2 = Digraph.from_arcs(2, [(1, 0)])
    with pytest.raises(ValueError):
        combine_blocks([two_voter_profile(e1), two_voter_profile(e2)])


# ---------------------------------------------------------------------------
# the six compilers


def test_banks_battery(rng):
    for _ in range(BATTERY):
        f = random_ordered_formula(rng)
        out = banks_tournament(f)
        assert out.witness.k == 5
        assert out.decision_vertex == 0
        assert out.graph.is_tournament()
        assert_block_structure(out)


def test_banks_vertex_count():
    one = banks_tournament(ThreeCnf.of(3, [(1, 2, 3)]))
    assert one.graph.n == 5
    two = banks_tournament(ThreeCnf.of(3, [(1, 2, 3), (-1, -2, -3)]))
    assert two.graph.n == 11


def test_banks_rejects_unordered():
    with pytest.raises(ValueError):
        banks_tournament(ThreeCnf.of(2, [(-1, 2), (1, -2)]))


def test_teq_battery(rng):
    for _ in range(BATTERY):
        f = random_ordered_formula(rng)
        out = teq_tournament(f)
        assert out.witness.k == 7
        assert out.decision_vertex == 0
        assert out.graph.is_tournament()
        assert_block_structure(out)


def test_teq_vertex_count():
    assert teq_tournament(ThreeCnf.of(3, [(1, 2, 3)])).graph.n == 5
    three = teq_tournament(
        ThreeCnf.of(4, [(1, 2, 3), (2, 3, 4), (-1, -2, -4)])
    )
    assert three.graph.n == 29


def test_kemeny_battery(rng):
    for _ in range(BATTERY):
        g = random_digraph(rng.randrange(2, 7), rng)
        if g.arc_count == 0:
            continue
        out = kemeny_subdivide(g)
        assert out.witness.k == 4
        assert out.decision_vertex is None
        assert out.graph.n == g.n + g.arc_count
        assert_block_structure(out)


def test_kemeny_subdivision_shape():
    g = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    out = kemeny_subdivide(g)
    # each original arc becomes a length-2 path through a fresh midpoint
    assert out.graph.n == 6
    assert out.graph.arc_count == 6
    for idx, (a, b) in enumerate(g.arcs()):
        mid = 3 + idx
        assert out.graph.has_arc(a, mid)
        assert out.graph.has_arc(mid, b)


def test_kemeny_preserves_min_fas(rng):
    for _ in range(12):
        g = random_digraph(rng.randrange(3, 7), rng)
        if not 0 < g.arc_count <= 10:
            continue
        out = kemeny_subdivide(g)
        assert min_fas_size(out.graph) == min_fas_size(g)


def test_slater_battery(rng):
    for _ in range(BATTERY):
        f = random_reduced_formula(rng)
        out = slater_tournament(f)
        assert out.witness.k == 7
        assert out.decision_vertex is None  # decided by score, not a vertex
        assert out.graph.is_tournament()
        # conflicting blocks by design: the trace is checked through margins
        blocks = dict(out.block_trace)
        w = weighted_majority(out.witness)
        for u, v in out.graph.arcs():
            margin = 1 if blocks["E1"].has_arc(u, v) else -1
            for name in ("E2", "E3", "E4"):
                if blocks[name].has_arc(u, v):
                    margin += 2
                elif blocks[name].has_arc(v, u):
                    margin -= 2
            assert margin == 1
            assert w.weight(u, v) == 1


def test_slater_rejects_unreduced_and_wide():
    with pytest.raises(ValueError):
        slater_tournament(ThreeCnf.of(3, [(1, 2, 3), (-1, -2, -3)]))
    with pytest.raises(ValueError):
        slater_tournament(ThreeCnf.of(1, [(1,)]))
    with pytest.raises(ValueError):
        slater_tournament(ThreeCnf.of(2, [(1, 2)]), component_size=0)


def test_slater_component_expansion():
    f = to_reducedfew(ThreeCnf.of(3, [(1, 2, 3)]))
    small = slater_tournament(f)
    big = slater_tournament(f, component_size=2)
    assert small.graph.n == 19
    assert big.graph.n == 37  # every non-decision vertex doubled
    assert big.witness.k == 7
    w = weighted_majority(big.witness)
    assert all(w.weight(u, v) == 1 for u, v in big.graph.arcs())


def test_rp_digraph_battery(rng):
    for _ in range(BATTERY):
        f = random_three_cnf(
            rng, rng.randrange(3, 6), rng.randrange(1, 7), exactly_three=True
        )
        out = rp_digraph(f)
        assert out.witness.k == 8
        assert out.decision_vertex == 0
        assert isinstance(out.graph, WeightedDigraph)
        weights = {w for _, _, w in out.graph.positive_arcs()}
        assert weights <= {2, 4}
        assert_block_structure(out)


def test_rp_digraph_shape():
    out = rp_digraph(ThreeCnf.of(3, [(1, 2, 3)]))
    assert out.graph.n == 1 + 4 * 3 + 1


def test_rp_tournament_battery(rng):
    for _ in range(BATTERY):
        f = random_three_cnf(
            rng, rng.randrange(3, 6), rng.randrange(1, 7), exactly_three=True
        )
        out = rp_tournament(f)
        assert out.witness.k == 11
        assert out.decision_vertex == 0
        assert isinstance(out.graph, WeightedDigraph)
        assert out.graph.arc_digraph().is_tournament()
        weights = {w for _, _, w in out.graph.positive_arcs()}
        assert weights <= {1, 3, 5}
        assert_block_structure(out)


def test_rp_tournament_completes_rp_digraph_by_vertex_order(rng):
    for _ in range(BATTERY):
        f = random_three_cnf(
            rng, rng.randrange(1, 6), rng.randrange(1, 8), exactly_three=False
        )
        digraph, tournament = rp_digraph(f).graph, rp_tournament(f).graph
        for u in range(digraph.n):
            for v in range(u + 1, digraph.n):
                w = digraph.weight(u, v)
                if w == 0:
                    # a pair outside the support runs forward at margin 1
                    assert tournament.weight(u, v) == 1
                else:
                    # a support arc keeps its side, 4 -> 5 and 2 -> 3
                    assert tournament.weight(u, v) == w + (1 if w > 0 else -1)


def test_rp_rejects_empty():
    with pytest.raises(ValueError):
        rp_digraph(ThreeCnf.of(3, []))


# ---------------------------------------------------------------------------
# desk-scale semantics
#
# Reduced-occurrence admissibility keeps unsatisfiable inputs above the
# feedback-arc-set DP's 16-vertex cap, so only the satisfiable side of the
# score correspondence is observable here.  What is checkable: every
# single-clause two-variable instance lands on the same optimal score
# regardless of literal signs (satisfiability never varies, so the score
# must not either), and that score is met, not beaten.


def test_slater_score_is_sign_invariant_at_desk_scale():
    scores = set()
    for signs in itertools.product((1, -1), repeat=2):
        f = ThreeCnf.of(2, [(signs[0] * 1, signs[1] * 2)])
        assert brute_force_sat(f)
        out = slater_tournament(f)
        assert out.graph.n == 13
        scores.add(min_fas_size(out.graph))
    assert scores == {7}


# ---------------------------------------------------------------------------
# golden outputs
#
# The constructions are deterministic, so each compiler's output over a
# fixed seeded battery, and transitive_orientation over seeded graphs, is
# pinned by a digest.  A rewrite of the 2-voter core or of the block
# assembly must leave every digest unchanged.

GOLDEN = {
    "banks_tournament": "ca7a033d1b84985f16aec837c2c604218c5de2e883c5448d9c472e0104631d2b",
    "teq_tournament": "abcfe699a6d032d36b47903f4e868d7f6e61bdab1aae8362b5474ed6414fbcc2",
    "slater_tournament": "afc9c9fd9ef7437141e743eeb116cfded4e281e3296b559a442eee8c54975fd1",
    "rp_digraph": "3d45112f5bcfe7942fac792e229f3c40e2b4f014fe0445ea8871a0fe9190802f",
    "rp_tournament": "3275a54e5aa9af8d8384d3bf0001832f296d8c508eb66329b0460249f4bb27e6",
    "kemeny_subdivide": "133ffd17d74aa73db5c0af84a8f2e55fe5bb444acb41f3e3462e739c9d402c79",
    "two_voter_profile": "1d259b9ae36813d9465ce17e40482092749630b85ab468aea0bbb40057e61f8b",
    "transitive_orientation": "736e4cf62c36b538e488d3575b96e0d1c26e5efeaba45c6ff6cb6048a265f75f",
}


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
    return h.hexdigest()


def _output_key(out):
    return (
        out.graph,
        out.decision_vertex,
        out.witness.voters,
        [(name, block.rows) for name, block in out.block_trace],
    )


def _random_poset(n: int, rng) -> Digraph:
    """Transitive closure of a random DAG on a shuffled vertex order."""
    order = list(range(n))
    rng.shuffle(order)
    density = rng.random()
    rows = [0] * n
    for i in reversed(range(n)):
        for j in range(i + 1, n):
            if rng.random() < density * 0.5:
                rows[order[i]] |= 1 << order[j] | rows[order[j]]
    return Digraph(n, tuple(rows))


def _random_undirected(n: int, rng) -> UndirectedGraph:
    if rng.random() < 0.5:
        # a comparability graph, so that an orientation exists
        p = _random_poset(n, rng)
        return UndirectedGraph(n, tuple(r | m for r, m in zip(p.rows, p.in_masks())))
    density = rng.random()
    return UndirectedGraph.from_edges(
        n,
        [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density],
    )


def golden_digests() -> dict:
    rng = random.Random(20170419)
    ordered = [random_ordered_formula(rng) for _ in range(12)]
    ordered += [to_ordered3(random_three_cnf(rng, 4, 2)) for _ in range(2)]
    reduced = [random_reduced_formula(rng) for _ in range(12)]
    plain = [
        random_three_cnf(rng, rng.randrange(3, 6), rng.randrange(1, 7))
        for _ in range(12)
    ]
    digraphs = [random_digraph(rng.randrange(2, 9), rng) for _ in range(12)]
    outputs = {
        "banks_tournament": [banks_tournament(f) for f in ordered],
        "teq_tournament": [teq_tournament(f) for f in ordered],
        "slater_tournament": [slater_tournament(f) for f in reduced]
        + [slater_tournament(f, component_size=2) for f in reduced[:3]],
        "rp_digraph": [rp_digraph(f) for f in plain],
        "rp_tournament": [rp_tournament(f) for f in plain],
        "kemeny_subdivide": [kemeny_subdivide(g) for g in digraphs if g.arc_count],
    }
    digests = {
        name: _digest(_output_key(out) for out in outs)
        for name, outs in outputs.items()
    }

    def two_voter_key(e):
        try:
            return two_voter_profile(e).voters
        except ValueError as exc:
            return str(exc)

    posets = [_random_poset(rng.randrange(2, 13), rng) for _ in range(150)]
    digests["two_voter_profile"] = _digest(map(two_voter_key, posets))

    def orientation_key(h):
        oriented = transitive_orientation(h)
        return None if oriented is None else oriented.rows

    graphs = [_random_undirected(rng.randrange(2, 13), rng) for _ in range(500)]
    digests["transitive_orientation"] = _digest(map(orientation_key, graphs))
    return digests


def test_golden_outputs():
    assert golden_digests() == GOLDEN


# ---------------------------------------------------------------------------
# row-built graphs against the arc-set reference
#
# GOLDEN pins small formulas and component size 2 only; these compare the
# compilers with the arc-set constructions in conftest on formulas of up
# to 20 clauses and on every component size from 1 to 4.


def ordered_formula_of(rng, variables: int, clauses: int) -> ThreeCnf:
    """Random ordered formula: each variable turns negative after a random
    number of its occurrences."""
    picks = [rng.sample(range(1, variables + 1), 3) for _ in range(clauses)]
    total = {v: sum(c.count(v) for c in picks) for v in range(1, variables + 1)}
    positives = {v: rng.randrange(k + 1) for v, k in total.items()}
    seen = dict.fromkeys(total, 0)
    out = []
    for clause in picks:
        lits = []
        for v in clause:
            lits.append(v if seen[v] < positives[v] else -v)
            seen[v] += 1
        out.append(tuple(lits))
    return ThreeCnf.of(variables, out)


@pytest.mark.parametrize("clauses", [1, 2, 3, 5, 8, 13, 20])
def test_banks_and_teq_match_arc_set_reference(clauses):
    rng = random.Random(clauses)
    for _ in range(2):
        f = ordered_formula_of(rng, rng.randrange(3, 3 + clauses), clauses)
        assert f.is_ordered and len(f.clauses) == clauses
        assert _output_key(banks_tournament(f)) == _output_key(
            reference_banks_tournament(f)
        )
        assert _output_key(teq_tournament(f)) == _output_key(
            reference_teq_tournament(f)
        )


@pytest.mark.parametrize("component_size", [1, 2, 3, 4])
def test_slater_matches_arc_set_reference(component_size):
    rng = random.Random(component_size)
    sizes = []
    while len(sizes) < 5:
        f = to_reducedfew(random_three_cnf(rng, rng.randrange(3, 7), len(sizes) + 1))
        if not f.clauses or len(f.clauses) > 20:
            continue
        sizes.append(len(f.clauses))
        assert _output_key(slater_tournament(f, component_size)) == _output_key(
            reference_slater_tournament(f, component_size)
        )
    assert max(sizes) >= 18
