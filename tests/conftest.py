"""Shared fixtures: small named graphs and exhaustive-search oracles."""

from __future__ import annotations

import itertools
import random

import pytest

from majdim import (
    CnfFormula,
    Digraph,
    Profile,
    UndirectedGraph,
    induces,
    majority_digraph,
)

# A 5-vertex tournament known to be 3-inducible; INDUCING_PROFILE is a
# hand-checked witness, used as an oracle for encoder round-trip tests.
TOURNAMENT_5 = Digraph.from_arcs(
    5,
    [
        (0, 1), (1, 2), (0, 2),
        (3, 0), (1, 3), (2, 3),
        (4, 0), (4, 1), (2, 4), (3, 4),
    ],
)
INDUCING_PROFILE_5 = Profile(
    n=5, voters=((0, 1, 2, 3, 4), (3, 4, 0, 1, 2), (2, 4, 1, 3, 0))
)

# Transitive 6-vertex digraph whose incomparability graph has no transitive
# orientation, so it is not 2-inducible despite passing the easy necessary
# conditions.
HEX_NOT_2 = Digraph.from_arcs(
    6,
    [
        (0, 1), (1, 2), (0, 2),
        (3, 4), (4, 2), (3, 2),
        (0, 5), (3, 5),
    ],
)


def all_linear_orders(n: int):
    return list(itertools.permutations(range(n)))


def exhaustive_k_inducible(g: Digraph, k: int) -> Profile | None:
    """Try every k-tuple of linear orders; tiny n and k only."""
    orders = all_linear_orders(g.n)
    for combo in itertools.product(orders, repeat=k):
        p = Profile(n=g.n, voters=combo)
        if induces(p, g):
            return p
    return None


def random_tournament(n: int, rng: random.Random) -> Digraph:
    arcs = []
    for a in range(n):
        for b in range(a + 1, n):
            arcs.append((a, b) if rng.random() < 0.5 else (b, a))
    return Digraph.from_arcs(n, arcs)


def random_digraph(n: int, rng: random.Random) -> Digraph:
    """Arbitrary orientation or absence for every pair."""
    arcs = []
    for a in range(n):
        for b in range(a + 1, n):
            roll = rng.randrange(3)
            if roll == 0:
                arcs.append((a, b))
            elif roll == 1:
                arcs.append((b, a))
    return Digraph.from_arcs(n, arcs)


def orientation_compatible(e1: Digraph, e2: Digraph) -> bool:
    """True iff no pair is oriented one way in e1 and the other way in e2."""
    if e1.n != e2.n:
        raise ValueError("vertex counts differ")
    return not any(e2.has_arc(b, a) for a, b in e1.arcs())


def acyclic_by_search(g: Digraph) -> bool:
    """True iff ``g`` has no directed cycle, by depth-first search."""
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


def forcing_orientation(h: UndirectedGraph) -> Digraph | None:
    """Reference transitive orientation: forcing closure on the whole graph.

    Forcing-closure method: orient one edge, propagate every orientation it
    forces (an arc x->y forces x->c whenever xc is an edge but yc is not,
    and c->y whenever yc is an edge but xc is not), remove the finished
    class, repeat on the remaining graph.  A class forcing both directions
    of some edge means no transitive orientation exists.
    """
    n = h.n
    far = [~(a | 1 << v) for v, a in enumerate(h.adj)]  # neither v nor adjacent
    cur = list(h.adj)  # adjacency of the not-yet-oriented part
    out = [0] * n  # arcs oriented so far, as out- and in-neighbour masks
    into = [0] * n
    for u in range(n):
        while cur[u]:
            v = (cur[u] & -cur[u]).bit_length() - 1
            out[u] |= 1 << v
            into[v] |= 1 << u
            stack = [(u, v)]
            touched = [u, v]
            while stack:
                x, y = stack.pop()
                forced = cur[x] & far[y]
                if forced & into[x]:
                    return None
                forced &= ~out[x]
                out[x] |= forced
                bit = 1 << x
                while forced:
                    low = forced & -forced
                    forced ^= low
                    c = low.bit_length() - 1
                    into[c] |= bit
                    stack.append((x, c))
                    touched.append(c)
                forced = cur[y] & far[x]
                if forced & out[y]:
                    return None
                forced &= ~into[y]
                into[y] |= forced
                bit = 1 << y
                while forced:
                    low = forced & -forced
                    forced ^= low
                    c = low.bit_length() - 1
                    out[c] |= bit
                    stack.append((c, y))
                    touched.append(c)
            # clear the class only once it closes: clearing its edges
            # earlier would hide forcings that conflict with them
            for w in touched:
                cur[w] &= ~(out[w] | into[w])
    oriented = Digraph(n, tuple(out))
    if not oriented.is_transitive():
        return None
    return oriented


def reference_to_dimacs(f: CnfFormula) -> str:
    """Reference DIMACS writer: one join per clause, one for the file.

    ``majdim.cnf.to_dimacs`` must give the same bytes, since the bundled
    solver's search depends on the exact text.
    """
    out = ["p cnf %d %d" % (f.num_vars, len(f.clauses))]
    for clause in f.clauses:
        out.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(out) + "\n"


def majority_of(voters) -> Digraph:
    p = Profile(n=len(voters[0]), voters=tuple(tuple(v) for v in voters))
    return majority_digraph(p)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
