"""Core digraph structures: predicates, canonical keys, orientations."""

import itertools
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
    transitive_orientation,
    weighted_from_text,
    weighted_to_text,
)

from majdim.cultures import qr_tournament

from conftest import orientation_compatible, random_digraph, random_tournament


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


def _transitive_by_triples(g):
    for x, y, z in itertools.permutations(range(g.n), 3):
        if g.has_arc(x, y) and g.has_arc(y, z) and not g.has_arc(x, z):
            return False
    return True


def _acyclic_by_search(g):
    color = [0] * g.n

    def visit(u):
        color[u] = 1
        for v in range(g.n):
            if g.has_arc(u, v):
                if color[v] == 1:
                    return False
                if color[v] == 0 and not visit(v):
                    return False
        color[u] = 2
        return True

    return all(color[u] or visit(u) for u in range(g.n))


def test_predicates_match_brute_force(rng):
    for _ in range(60):
        g = random_digraph(5, rng)
        assert g.is_transitive() == _transitive_by_triples(g)
        assert g.is_acyclic() == _acyclic_by_search(g)


def _lowest_id_first(g, order):
    """Is ``order`` the topological order taking the lowest ready id each step?"""
    placed = set()
    for v in order:
        ready = [
            w
            for w in range(g.n)
            if w not in placed
            and all(u in placed for u in range(g.n) if g.has_arc(u, w))
        ]
        if not ready or v != min(ready):
            return False
        placed.add(v)
    return len(placed) == g.n


def test_topological_order_respects_arcs(rng):
    for _ in range(20):
        perm = list(range(6))
        rng.shuffle(perm)
        g = Digraph.from_arcs(
            6, [(perm[i], perm[j]) for i in range(6) for j in range(i + 1, 6)]
        )
        order = g.topological_order()
        pos = {v: i for i, v in enumerate(order)}
        assert all(pos[u] < pos[v] for u, v in g.arcs())
    # sparse DAGs leave many vertices ready at once, so ties are broken
    for _ in range(200):
        n = rng.randrange(1, 12)
        perm = list(range(n))
        rng.shuffle(perm)
        density = rng.choice((0.1, 0.3, 0.6))
        g = Digraph.from_arcs(
            n,
            [
                (perm[i], perm[j])
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < density
            ],
        )
        order = g.topological_order()
        assert sorted(order) == list(range(n))
        assert _lowest_id_first(g, order)
        assert g.is_acyclic()
    with pytest.raises(ValueError, match="directed cycle"):
        Digraph.from_arcs(4, [(3, 0), (0, 1), (1, 2), (2, 0)]).topological_order()


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


def test_decompose_blocks_are_uniform_outside(rng):
    for _ in range(25):
        t = random_tournament(7, rng)
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
    for _ in range(25):
        t = random_tournament(6, rng)
        dec = decompose(t)
        for i, bi in enumerate(dec.components):
            for j, bj in enumerate(dec.components):
                if i != j:
                    assert dec.summary.has_arc(i, j) == t.has_arc(bi[0], bj[0])


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
