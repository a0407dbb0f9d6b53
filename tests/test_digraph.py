"""Core digraph structures: predicates, canonical keys, orientations."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from majdim.digraph import (
    Digraph,
    UndirectedGraph,
    WeightedDigraph,
    canonical_form,
    decompose,
    digraph_from_text,
    digraph_to_text,
    incomparability_graph,
    linear_order,
    order_rows,
    transitive_orientation,
    weighted_from_text,
    weighted_to_text,
)

from majdim.cultures import qr_tournament

from conftest import (
    HEX_NOT_2,
    forcing_orientation,
    orientation_compatible,
    random_digraph,
    random_tournament,
)


def test_from_arcs_rejects_both_directions():
    with pytest.raises(ValueError):
        Digraph.from_arcs(2, [(0, 1), (1, 0)])


def test_from_arcs_rejects_loops():
    with pytest.raises(ValueError):
        Digraph.from_arcs(2, [(0, 0)])


def test_arcs_round_trip():
    arcs = [(0, 2), (2, 1), (3, 0)]
    g = Digraph.from_arcs(4, arcs)
    assert sorted(g.arcs()) == sorted(arcs)
    assert g.arc_count == 3


def test_converse_is_involution(rng):
    for _ in range(20):
        g = random_digraph(6, rng)
        assert g.converse().converse() == g
        assert sorted(g.converse().arcs()) == sorted((b, a) for a, b in g.arcs())


def test_induced_subgraph_keeps_internal_arcs():
    g = Digraph.from_arcs(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    h = g.induced([1, 2, 3])
    # vertices renumbered in the order given
    assert sorted(h.arcs()) == [(0, 1), (1, 2)]


@pytest.mark.parametrize(
    "vertices, message",
    [
        ([0, 0, 1], "vertex 0 listed twice"),
        ([2, 1, 2], "vertex 2 listed twice"),
        ([0, 5], "vertex 5 outside 0..2"),
        ([-1, 1], "vertex -1 outside 0..2"),
    ],
)
def test_induced_rejects_repeated_and_out_of_range_vertices(vertices, message):
    g = Digraph.from_arcs(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match=message):
        g.induced(vertices)


def _transitive_by_triples(g):
    for x, y, z in itertools.permutations(range(g.n), 3):
        if g.has_arc(x, y) and g.has_arc(y, z) and not g.has_arc(x, z):
            return False
    return True


def test_predicates_match_brute_force(rng):
    for _ in range(60):
        g = random_digraph(5, rng)
        assert g.is_transitive() == _transitive_by_triples(g)


def _ranking_by_search(n, rows):
    """The order whose forward pairs are exactly the bits of ``rows``, or None."""
    arcs = {(u, v) for u in range(n) for v in range(n) if rows[u] >> v & 1}
    for order in itertools.permutations(range(n)):
        if arcs == set(itertools.combinations(order, 2)):
            return list(order)
    return None


def test_linear_order_matches_search_on_all_small_tournaments():
    for n in range(6):
        pairs = list(itertools.combinations(range(n), 2))
        transitive = 0
        for flips in range(1 << len(pairs)):
            arcs = [(v, u) if flips >> i & 1 else (u, v) for i, (u, v) in enumerate(pairs)]
            g = Digraph.from_arcs(n, arcs)
            expected = _ranking_by_search(n, g.rows)
            assert linear_order(g.rows) == expected
            transitive += expected is not None
        assert transitive == math.factorial(n)


def test_linear_order_rejects_all_but_transitive_tournaments(rng):
    for _ in range(300):
        n = rng.randrange(7)
        g = random_digraph(n, rng)
        assert linear_order(g.rows) == _ranking_by_search(n, g.rows)
    # raw masks with loops and two-way pairs, some with every out-degree
    # n-1..0 exactly once, so only the final comparison of masks catches them
    for _ in range(300):
        n = rng.randrange(1, 6)
        if rng.random() < 0.5:
            degrees = rng.sample(range(n), n)
            rows = [sum(1 << v for v in rng.sample(range(n), d)) for d in degrees]
        else:
            rows = [rng.getrandbits(n) for _ in range(n)]
        assert linear_order(rows) == _ranking_by_search(n, rows)
    assert linear_order([0b110, 0b001, 0b000]) is None  # 0 <-> 1, degrees 2, 1, 0


def test_order_rows_round_trip(rng):
    for n in range(13):
        for _ in range(10):
            order = list(range(n))
            rng.shuffle(order)
            rows = order_rows(order)
            closure = Digraph.from_arcs(n, itertools.combinations(order, 2))
            assert rows == list(closure.rows)
            assert linear_order(rows) == order
            assert linear_order(tuple(rows)) == order


def _slow_rejection(n, rows):
    """The constructor's error message, checked the slow way, or None."""
    if n < 0 or len(rows) != n:
        return "rows must have length n"
    for u, row in enumerate(rows):
        if row & ~((1 << n) - 1):
            return "arc to a vertex id >= n"
        if row >> u & 1:
            return "self-loop at %d" % u
    for u in range(n):
        for v in range(n):
            if rows[u] >> v & 1 and rows[v] >> u & 1:
                return "asymmetry violated on (%d,%d)" % (u, v)
    return None


def test_constructor_rejections_keep_their_messages(rng):
    cases = [
        (2, (0,)),
        (2, (0b100, 0)),
        (2, (-1, 0)),
        (3, (0, 0b10, 0)),
        (4, (0, 0b1100, 0, 0b11)),  # 1<->3 before 3->0 is checked
        (4, (0b1000, 0, 0b1000, 0b101)),
    ]
    for _ in range(300):
        n = rng.randrange(1, 8)
        rows = [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(n)]
        for u in range(n):
            if rng.random() < 0.8:
                rows[u] &= ~(1 << u)
        cases.append((n, tuple(rows)))
    rejected = 0
    for n, rows in cases:
        expected = _slow_rejection(n, rows)
        if expected is None:
            assert Digraph(n, rows).rows == rows
            continue
        rejected += 1
        with pytest.raises(ValueError) as info:
            Digraph(n, rows)
        assert str(info.value) == expected
    assert rejected > 100
    assert _slow_rejection(4, (0, 0b1100, 0, 0b11)) == "asymmetry violated on (1,3)"


def test_undirected_rejections():
    with pytest.raises(ValueError, match="adj must have length n"):
        UndirectedGraph(2, (0,))
    with pytest.raises(ValueError, match="self-loop"):
        UndirectedGraph(2, (0b1, 0))
    with pytest.raises(ValueError, match="not symmetric"):
        UndirectedGraph(3, (0b10, 0, 0))
    with pytest.raises(ValueError, match="vertex id >= n"):
        UndirectedGraph(2, (0b100, 0))
    assert UndirectedGraph(3, (0b110, 0b1, 0b1)).edges() == [(0, 1), (0, 2)]


def test_in_masks_are_a_copy(rng):
    g = random_digraph(9, rng)
    masks = g.in_masks()
    assert masks == [
        sum(1 << u for u in range(g.n) if g.has_arc(u, v)) for v in range(g.n)
    ]
    masks[0] ^= 1
    masks.append(7)
    assert g.in_masks() == list(g.converse().rows)
    assert len(g.in_masks()) == g.n
    # the kept masks are not part of the value
    assert g == Digraph.from_arcs(g.n, g.arcs())
    assert hash(g) == hash(Digraph(g.n, g.rows))
    assert repr(g) == "Digraph(n=9, rows=%r)" % (g.rows,)


# ---------------------------------------------------------------------------
# canonical form


def _relabel(g, perm):
    return Digraph.from_arcs(g.n, [(perm[a], perm[b]) for a, b in g.arcs()])


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_canonical_form_is_permutation_invariant(r):
    g = random_tournament(r.randrange(2, 7), r)
    perm = list(range(g.n))
    r.shuffle(perm)
    assert canonical_form(g) == canonical_form(_relabel(g, perm))


def test_canonical_form_separates_nonisomorphic_tournaments():
    # the four unlabeled 4-tournaments
    keys = set()
    seen = set()
    for bits in itertools.product([0, 1], repeat=6):
        arcs = []
        for idx, (a, b) in enumerate(itertools.combinations(range(4), 2)):
            arcs.append((a, b) if bits[idx] else (b, a))
        key = canonical_form(Digraph.from_arcs(4, arcs))
        keys.add(key)
        seen.add(bits)
    assert len(keys) == 4


def test_canonical_form_rejects_non_tournaments():
    with pytest.raises(ValueError):
        canonical_form(Digraph.from_arcs(3, [(0, 1)]))


def test_canonical_form_caps_the_order():
    assert len(canonical_form(random_tournament(10, random.Random(1)))) == 45
    with pytest.raises(ValueError, match="cap"):
        canonical_form(random_tournament(11, random.Random(1)))


def _all_tournaments(n):
    pairs = list(itertools.combinations(range(n), 2))
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        yield Digraph.from_arcs(
            n, [(a, b) if s else (b, a) for (a, b), s in zip(pairs, bits)]
        )


def _isomorphic(g, h):
    """Oracle: try every vertex permutation (tournaments, so equal arc counts)."""
    target = set(h.arcs())
    return any(
        all((perm[u], perm[v]) in target for u, v in g.arcs())
        for perm in itertools.permutations(range(g.n))
    )


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_canonical_form_equal_exactly_on_isomorphic_tournaments(n):
    classes = {}
    for g in _all_tournaments(n):
        classes.setdefault(canonical_form(g), []).append(g)
    reps = [members[0] for members in classes.values()]
    # equal keys: every member is isomorphic to its class's first member
    for members in classes.values():
        assert all(_isomorphic(members[0], g) for g in members[1:])
    # different keys: no two class representatives are isomorphic
    for a, b in itertools.combinations(reps, 2):
        assert not _isomorphic(a, b)
    assert len(classes) == (1, 2, 4, 12)[n - 2]


def _rotational(n, connection):
    return Digraph.from_arcs(
        n, [(i, (i + s) % n) for i in range(n) for s in connection]
    )


@pytest.mark.parametrize(
    "g",
    [
        qr_tournament(7),
        Digraph(7, (112, 49, 67, 7, 76, 28, 42)),
        _rotational(9, (1, 2, 3, 4)),
        _rotational(9, (1, 3, 5, 7)),
        random_tournament(8, random.Random(8)),
        random_tournament(9, random.Random(9)),
        random_tournament(10, random.Random(10)),
    ],
    ids=["qr7", "reg7", "rot9a", "rot9b", "rand8", "rand9", "rand10"],
)
def test_canonical_form_survives_relabelling(g):
    # In the regular ones refinement cannot split the first cell, so the
    # search must branch.  reg7 is not vertex-transitive (some out-
    # neighbourhoods are transitive triples, some 3-cycles): trying only
    # one vertex of a stalled cell would give it label-dependent keys.
    r = random.Random(g.n)
    key = canonical_form(g)
    for _ in range(10):
        perm = list(range(g.n))
        r.shuffle(perm)
        assert canonical_form(_relabel(g, perm)) == key


# ---------------------------------------------------------------------------
# incomparability and transitive orientation


def brute_force_transitive_orientation(h):
    """Oracle: try all 2^|edges| orientations.  Only sensible for tiny graphs."""
    edges = h.edges()
    for signs in itertools.product((0, 1), repeat=len(edges)):
        arcs = [
            (u, v) if s == 0 else (v, u) for (u, v), s in zip(edges, signs)
        ]
        g = Digraph.from_arcs(h.n, arcs)
        if g.is_transitive():
            return g
    return None


def test_incomparability_edges_are_the_unoriented_pairs():
    g = Digraph.from_arcs(4, [(0, 1), (2, 3)])
    h = incomparability_graph(g)
    assert sorted(h.edges()) == [(0, 2), (0, 3), (1, 2), (1, 3)]


def _valid_orientation(h, d):
    if d is None or not d.is_transitive():
        return False
    oriented = {frozenset(a) for a in d.arcs()}
    return oriented == {frozenset(e) for e in h.edges()}


def test_path_p4_is_orientable():
    h = UndirectedGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert _valid_orientation(h, transitive_orientation(h))


def test_odd_hole_c5_is_not_orientable():
    h = UndirectedGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert transitive_orientation(h) is None
    assert brute_force_transitive_orientation(h) is None


def test_orientation_agrees_with_brute_force(rng):
    for _ in range(80):
        n = rng.randrange(2, 7)
        edges = [
            e
            for e in itertools.combinations(range(n), 2)
            if rng.random() < 0.5
        ]
        h = UndirectedGraph.from_edges(n, edges)
        fast = transitive_orientation(h)
        slow = brute_force_transitive_orientation(h)
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert _valid_orientation(h, fast)


# transitive_orientation splits the graph into components and co-components
# before forcing; it must return exactly what forcing on the whole graph
# returns (conftest.forcing_orientation), rows or None.  Every family is
# relabelled at random so that the parts interleave in vertex order.


def _relabelled(h, rng):
    perm = list(range(h.n))
    rng.shuffle(perm)
    return UndirectedGraph.from_edges(
        h.n, [(perm[u], perm[v]) for u, v in h.edges()]
    )


def _substitute(quotient, parts):
    """Replace vertex i of ``quotient`` by the graph ``parts[i]``."""
    starts = list(itertools.accumulate([0] + [p.n for p in parts]))
    edges = [
        (starts[i] + u, starts[i] + v)
        for i, p in enumerate(parts)
        for u, v in p.edges()
    ]
    edges += [
        (a, b)
        for i, j in quotient.edges()
        for a in range(starts[i], starts[i + 1])
        for b in range(starts[j], starts[j + 1])
    ]
    return UndirectedGraph.from_edges(starts[-1], edges)


def _union(a, b, join=False):
    quotient = UndirectedGraph.from_edges(2, [(0, 1)] if join else [])
    return _substitute(quotient, [a, b])


def _random_graph(n, p, rng):
    return UndirectedGraph.from_edges(
        n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    )


def _random_cograph(n, rng):
    if n == 1:
        return UndirectedGraph(1, (0,))
    k = rng.randrange(1, n)
    return _union(
        _random_cograph(k, rng), _random_cograph(n - k, rng), rng.random() < 0.5
    )


def _poset_incomparability(n, dim, rng):
    """Pairs ordered differently by some two of ``dim`` random orders."""
    ranks = []
    for _ in range(dim):
        order = list(range(n))
        rng.shuffle(order)
        ranks.append({v: i for i, v in enumerate(order)})
    return UndirectedGraph.from_edges(
        n,
        [
            (u, v)
            for u, v in itertools.combinations(range(n), 2)
            if len({r[u] < r[v] for r in ranks}) == 2
        ],
    )


def _complement(h):
    full = (1 << h.n) - 1
    adj = tuple(full ^ (1 << v) ^ a for v, a in enumerate(h.adj))
    return UndirectedGraph(h.n, adj)


def _assert_same_as_forcing(h):
    split = transitive_orientation(h)
    assert split == forcing_orientation(h)
    return split


def test_split_orientation_matches_forcing_on_disjoint_unions():
    rng = random.Random(11)
    for _ in range(40):
        h = UndirectedGraph(0, ())
        for _ in range(rng.randrange(2, 5)):
            n = rng.randrange(1, 9)
            piece = rng.choice(
                [
                    _random_graph(n, rng.random(), rng),
                    _random_cograph(n, rng),
                    _poset_incomparability(n, 2, rng),
                ]
            )
            h = _union(h, piece)
        _assert_same_as_forcing(_relabelled(h, rng))


def test_split_orientation_matches_forcing_on_complements_of_sparse_graphs():
    rng = random.Random(12)
    nones = 0
    for n in (6, 12, 30, 60):
        for _ in range(10):
            sparse = _random_graph(n, rng.choice((0.02, 0.05, 0.1, 3 / n)), rng)
            nones += _assert_same_as_forcing(_complement(sparse)) is None
    assert 0 < nones < 40


def test_split_orientation_matches_forcing_on_random_cographs():
    rng = random.Random(13)
    for n in (2, 5, 9, 20, 45):
        for _ in range(8):
            h = _relabelled(_random_cograph(n, rng), rng)
            # a cograph has no induced P4, so it is always orientable
            assert _assert_same_as_forcing(h) is not None


@pytest.mark.parametrize("n", [20, 60, 120])
def test_split_orientation_matches_forcing_on_poset_incomparability(n):
    rng = random.Random(n)
    results = []
    for dim in (2, 2, 3, 3, 3):
        results.append(_assert_same_as_forcing(_poset_incomparability(n, dim, rng)))
    # the incomparability graph of a 2-dimensional poset is a comparability graph
    assert results[0] is not None and results[1] is not None


def test_split_orientation_finds_an_obstruction_inside_a_part():
    rng = random.Random(14)
    c5 = UndirectedGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    hex_h = incomparability_graph(HEX_NOT_2)
    for bad in (c5, hex_h):
        for _ in range(10):
            other = _random_cograph(rng.randrange(1, 12), rng)
            for h in (
                _union(bad, other, join=True),  # bad inside one co-component
                _union(other, bad),  # bad inside one component
                _union(_union(other, bad, join=True), other),  # two levels down
                _union(_union(bad, other), other, join=True),
            ):
                assert _assert_same_as_forcing(_relabelled(h, rng)) is None


def _random_modular_graph(n, depth, rng):
    """Modules nested up to ``depth`` levels under parallel, series and
    prime nodes; the innermost ones are random graphs, orientable or not."""
    p4 = UndirectedGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    c5 = UndirectedGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    k = rng.randrange(2, 4)
    parallel = UndirectedGraph(k, (0,) * k)
    quotient = rng.choice([parallel, _complement(parallel), p4, c5])
    if depth == 0 or n < quotient.n:
        return rng.choice(
            [
                _random_graph(n, rng.random(), rng),
                _poset_incomparability(n, 2, rng),
                _complement(_poset_incomparability(n, 3, rng)),
            ]
        )
    cuts = [0] + sorted(rng.sample(range(1, n), quotient.n - 1)) + [n]
    parts = [
        _random_modular_graph(b - a, depth - 1, rng) for a, b in zip(cuts, cuts[1:])
    ]
    return _substitute(quotient, parts)


def _flip_pair(h, rng):
    """``h`` with the adjacency of one random vertex pair toggled."""
    u, v = rng.sample(range(h.n), 2)
    adj = list(h.adj)
    adj[u] ^= 1 << v
    adj[v] ^= 1 << u
    return UndirectedGraph(h.n, tuple(adj))


def test_split_orientation_matches_forcing_on_nested_modules():
    # transitive_orientation returns None only on a forcing conflict and
    # checks no transitivity; forcing_orientation checks the whole graph.
    # Flipping one pair breaks some of the nested modules and keeps the
    # rest, which gives non-comparability graphs with nested modules: a
    # kept orientation that is not transitive would show there
    rng = random.Random(15)
    flips = random.Random(16)
    nones = flipped_nones = 0
    for _ in range(2000):
        h = _random_modular_graph(rng.randrange(4, 17), rng.randrange(1, 4), rng)
        h = _relabelled(h, rng)
        nones += _assert_same_as_forcing(h) is None
        flipped_nones += _assert_same_as_forcing(_flip_pair(h, flips)) is None
    assert 200 < nones < 1800
    assert 200 < flipped_nones < 1800


def test_split_orientation_matches_forcing_on_every_small_graph():
    # every labelled graph on 1..6 vertices; the reference also tests the
    # y-side forcing step for a conflict, which transitive_orientation
    # leaves to the x-side one
    total = nones = 0
    for n in range(1, 7):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            h = UndirectedGraph.from_edges(
                n, [pair for i, pair in enumerate(pairs) if bits >> i & 1]
            )
            nones += _assert_same_as_forcing(h) is None
            total += 1
    assert (total, nones) == (33867, 2616)


def test_orientation_compatible_detects_conflict():
    a = Digraph.from_arcs(3, [(0, 1)])
    b = Digraph.from_arcs(3, [(1, 0), (1, 2)])
    c = Digraph.from_arcs(3, [(0, 1), (1, 2)])
    assert not orientation_compatible(a, b)
    assert orientation_compatible(a, c)


# ---------------------------------------------------------------------------
# decomposition


def test_decompose_recovers_planted_components(rng):
    # blocks {0,1,2}, {3,4}, {5}: uniform arcs between blocks
    arcs = [(0, 1), (1, 2), (2, 0), (3, 4)]
    for u in (0, 1, 2):
        for v in (3, 4):
            arcs.append((u, v))
        arcs.append((5, u))
    for v in (3, 4):
        arcs.append((v, 5))
    t = Digraph.from_arcs(6, arcs)
    dec = decompose(t)
    blocks = sorted(tuple(sorted(b)) for b in dec.components)
    assert blocks == [(0, 1, 2), (3, 4), (5,)]


def _planted_composite(rng) -> Digraph:
    """Random pieces substituted into a random summary, on shuffled ids."""
    sizes = [rng.randrange(1, 5) for _ in range(rng.randrange(2, 5))]
    while sum(sizes) > 12:
        sizes.pop()
    ids = list(range(sum(sizes)))
    rng.shuffle(ids)
    blocks = []
    for size in sizes:
        blocks.append(ids[:size])
        ids = ids[size:]
    summary = random_tournament(len(blocks), rng)
    arcs = []
    for i, block in enumerate(blocks):
        piece = random_tournament(len(block), rng)
        arcs += [(block[a], block[b]) for a, b in piece.arcs()]
        for j, other in enumerate(blocks):
            if summary.has_arc(i, j):
                arcs += [(u, v) for u in block for v in other]
    return Digraph.from_arcs(sum(sizes), arcs)


def _decompose_cases(rng):
    for n in range(1, 6):
        yield from _all_tournaments(n)
    for _ in range(300):
        yield _planted_composite(rng)


def test_decompose_blocks_are_uniform_outside(rng):
    for t in _decompose_cases(rng):
        dec = decompose(t)
        for block in dec.components:
            members = set(block)
            for u in block:
                for w in range(t.n):
                    if w in members:
                        continue
                    # every member relates to w the same way
                    assert t.has_arc(u, w) == t.has_arc(block[0], w)


def test_decompose_summary_matches_block_arcs(rng):
    for t in _decompose_cases(rng):
        dec = decompose(t)
        for i, bi in enumerate(dec.components):
            for j, bj in enumerate(dec.components):
                if i != j:
                    for u in bi:
                        for v in bj:
                            assert dec.summary.has_arc(i, j) == t.has_arc(u, v)


# ---------------------------------------------------------------------------
# weighted graphs and text formats


def test_weighted_from_pairs_and_queries():
    w = WeightedDigraph.from_pairs(3, {(0, 1): 3, (2, 1): 1})
    assert w.weight(0, 1) == 3
    assert w.weight(1, 0) == -3
    assert w.weight(0, 2) == 0
    assert sorted(w.positive_arcs()) == [(0, 1, 3), (2, 1, 1)]
    assert sorted(w.arc_digraph().arcs()) == [(0, 1), (2, 1)]


def test_weighted_rejects_conflicting_pairs():
    with pytest.raises(ValueError):
        WeightedDigraph.from_pairs(2, {(0, 1): 2, (1, 0): 1})


@settings(max_examples=50, deadline=None)
@given(st.randoms(use_true_random=False))
def test_digraph_text_round_trip(r):
    g = random_digraph(r.randrange(1, 8), r)
    assert digraph_from_text(digraph_to_text(g)) == g


def test_weighted_text_round_trip(rng):
    for _ in range(20):
        n = rng.randrange(2, 7)
        pairs = {}
        for a, b in itertools.combinations(range(n), 2):
            wgt = rng.randrange(-3, 4)
            if wgt > 0:
                pairs[(a, b)] = wgt
            elif wgt < 0:
                pairs[(b, a)] = -wgt
        w = WeightedDigraph.from_pairs(n, pairs)
        assert weighted_from_text(weighted_to_text(w)) == w


@pytest.mark.parametrize("arc", ["-1 0", "5 0", "0 3"])
def test_digraph_text_rejects_out_of_range_ids(arc):
    with pytest.raises(ValueError, match="outside 0..2"):
        digraph_from_text("3 1\n%s\n" % arc)


@pytest.mark.parametrize("arc", ["-1 5 2", "0 -1 1", "3 0 1"])
def test_weighted_text_rejects_out_of_range_ids(arc):
    with pytest.raises(ValueError, match="outside 0..2"):
        weighted_from_text("3 1\n%s\n" % arc)


def test_digraph_text_rejects_repeated_arc():
    with pytest.raises(ValueError, match=r"arc \(0, 1\) listed twice"):
        digraph_from_text("2 2\n0 1\n0 1\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("3 3\n0 1\n0 1\n0 5\n", r"arc \(0, 1\) listed twice"),
        ("3 3\n0 5\n0 1\n0 1\n", r"arc \(0, 5\) names a vertex outside"),
    ],
)
def test_digraph_text_reports_the_first_faulty_line(text, message):
    # a repeated arc and an out-of-range id, in either order
    with pytest.raises(ValueError, match=message):
        digraph_from_text(text)


def test_weighted_text_rejects_repeated_arc():
    with pytest.raises(ValueError, match=r"arc \(0, 1\) listed twice"):
        weighted_from_text("2 2\n0 1 3\n0 1 2\n")


# every public constructor rejects a vertex id outside 0..n-1 by name, as
# the text readers do
OUT_OF_RANGE = [(-1, 0), (0, -1), (3, 0), (0, 5)]


def _raises_outside(arc):
    return pytest.raises(
        ValueError, match=r"arc \(%d, %d\) names a vertex outside 0\.\.2" % arc
    )


@pytest.mark.parametrize("arc", OUT_OF_RANGE)
def test_from_arcs_rejects_out_of_range_vertices(arc):
    with _raises_outside(arc):
        Digraph.from_arcs(3, [(0, 1), arc])


@pytest.mark.parametrize("arc", OUT_OF_RANGE)
def test_from_edges_rejects_out_of_range_vertices(arc):
    with _raises_outside(arc):
        UndirectedGraph.from_edges(3, [(0, 1), arc])


@pytest.mark.parametrize("arc", OUT_OF_RANGE)
def test_from_pairs_rejects_out_of_range_vertices(arc):
    with _raises_outside(arc):
        WeightedDigraph.from_pairs(3, {(0, 1): 1, arc: 2})
