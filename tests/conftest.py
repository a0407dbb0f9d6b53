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
from majdim.gadgets import GadgetOutput, _certified, _order_closure, two_voter_profile

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


# --- reference gadget graphs ------------------------------------------------
#
# The Banks, TEQ and Slater compilers as they were when every graph was an
# arc set handed to ``Digraph.from_arcs``.  ``majdim.gadgets`` builds the
# same graphs as out-neighbour rows and must match these bit for bit:
# graph, witness and block trace.


def reference_chassis(f, spacing: int):
    """Positions, vertex count, blocks and literal exception arcs."""
    m = spacing * (len(f.clauses) - 1) + 1
    n = m + 1
    u_ids = [[]]
    labels = {}
    for i in range(1, m + 1):
        ids = [n, n + 1, n + 2] if i % 2 == 1 else [n]
        if (i - 1) % spacing == 0:
            labels.update(zip(ids, f.clauses[(i - 1) // spacing]))
        n += len(ids)
        u_ids.append(ids)
    by_literal = {}
    for i in range(1, m + 1):
        for vid in u_ids[i]:
            lit = labels.get(vid)
            if lit is not None:
                by_literal.setdefault(lit, []).append((i, vid))
    phi = set()
    for lit, negatives in by_literal.items():
        if lit >= 0:
            continue
        for bi, neg_id in negatives:
            for bj, pos_id in by_literal.get(-lit, ()):
                if bi > bj:
                    phi.add((neg_id, pos_id))
    return m, n, u_ids, phi


def reference_chassis_arcs(m: int, u_ids, skip) -> set:
    """Arcs between clause vertices and blocks, bar the reverses of ``skip``."""
    arcs = set()
    for j in range(m + 1):
        for i in range(j):
            arcs.add((j, i))
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            for a in u_ids[i]:
                for b in u_ids[j]:
                    if (b, a) not in skip:
                        arcs.add((a, b))
    for i in range(m + 1):
        for j in range(1, m + 1):
            if i != j:
                for b in u_ids[j]:
                    arcs.add((i, b))
    for i in range(1, m + 1):
        for a in u_ids[i]:
            arcs.add((a, i))
    return arcs


def reference_banks_tournament(f):
    m, n, u_ids, phi = reference_chassis(f, 2)
    arcs = reference_chassis_arcs(m, u_ids, phi) | phi
    for i in range(1, m + 1):  # transitive triple inside each block
        ids = u_ids[i]
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                arcs.add((ids[a], ids[b]))
    e1 = Digraph.from_arcs(n, [(a, i) for i in range(1, m + 1) for a in u_ids[i]])
    completion = list(range(m, -1, -1))
    for i in range(1, m + 1):
        completion.extend(u_ids[i])
    return _certified(
        Digraph.from_arcs(n, arcs), 0, [e1, Digraph.from_arcs(n, phi)], completion
    )


def reference_teq_tournament(f):
    m, n, u_ids, phi = reference_chassis(f, 4)
    link = set()
    for i in range(3, m + 1, 4):
        for a in range(3):
            for b in range(3):
                if a != b:
                    link.add((u_ids[i][a], u_ids[i - 2][b]))
    skip = phi | link
    arcs = reference_chassis_arcs(m, u_ids, skip) | skip
    for i in range(1, m + 1):  # 3-cycle inside each triple
        ids = u_ids[i]
        if len(ids) == 3:
            arcs.update([(ids[0], ids[1]), (ids[1], ids[2]), (ids[2], ids[0])])
    e1_arcs = []
    for i in range(m + 1):
        for j in range(i):
            e1_arcs.append((i, j))
            e1_arcs.extend((i, b) for b in u_ids[j])
    for i in range(1, m + 1):
        ids = u_ids[i]
        if len(ids) == 3:
            e1_arcs.append((ids[2], ids[0]))
    for i in range(3, m + 1, 4):
        e1_arcs.append((u_ids[i][0], u_ids[i - 2][1]))
        e1_arcs.append((u_ids[i][2], u_ids[i - 2][1]))
    e1 = Digraph.from_arcs(n, e1_arcs)
    e3 = Digraph.from_arcs(n, link - set(e1.arcs()))
    completion = [0]
    for i in range(1, m + 1):
        completion.extend(u_ids[i])
        completion.append(i)
    return _certified(
        Digraph.from_arcs(n, arcs),
        0,
        [e1, Digraph.from_arcs(n, phi), e3],
        completion,
    )


def reference_slater_tournament(f, component_size: int = 1):
    m = f.variables
    num_clauses = len(f.clauses)
    n = 6 * m + num_clauses

    def t(i, j):
        return 6 * (i - 1) + (j - 1)

    def c(j):
        return 6 * m + (j - 1)

    arcs = set()
    for i in range(1, m + 1):
        arcs.update([(t(i, 1), t(i, 2)), (t(i, 2), t(i, 3)), (t(i, 3), t(i, 1))])
        for upper in (4, 5, 6):
            for lower in range(1, upper):
                arcs.add((t(i, lower), t(i, upper)))
    for i1 in range(1, m + 1):
        for i2 in range(i1 + 1, m + 1):
            for a in range(1, 7):
                for b in range(1, 7):
                    arcs.add((t(i1, a), t(i2, b)))
    for j1 in range(1, num_clauses + 1):
        for j2 in range(j1 + 1, num_clauses + 1):
            arcs.add((c(j1), c(j2)))
    for i in range(1, m + 1):
        for j in range(1, num_clauses + 1):
            arcs.add((t(i, 6), c(j)))
            arcs.add((c(j), t(i, 1)))
    for j, clause in enumerate(f.clauses, start=1):
        polarity = {abs(lit): lit > 0 for lit in clause}
        for i in range(1, m + 1):
            if polarity.get(i) is True:
                arcs.update(
                    [(t(i, 2), c(j)), (c(j), t(i, 3)), (c(j), t(i, 4)), (t(i, 5), c(j))]
                )
            elif polarity.get(i) is False:
                arcs.update(
                    [(c(j), t(i, 2)), (t(i, 3), c(j)), (t(i, 4), c(j)), (c(j), t(i, 5))]
                )
            else:
                arcs.update(
                    [(c(j), t(i, 2)), (c(j), t(i, 3)), (t(i, 4), c(j)), (t(i, 5), c(j))]
                )
    graph = Digraph.from_arcs(n, arcs)

    backbone = [t(i, j) for i in range(1, m + 1) for j in range(1, 7)]
    backbone += [c(j) for j in range(1, num_clauses + 1)]
    e2 = Digraph.from_arcs(
        n,
        [
            (c(j), t(i, a))
            for j in range(1, num_clauses + 1)
            for i in range(1, m + 1)
            for a in (1, 2, 3)
        ],
    )
    e3_arcs = {(t(i, 3), t(i, 1)) for i in range(1, m + 1)}
    e4_arcs = set()
    for j, clause in enumerate(f.clauses, start=1):
        for lit in clause:
            i = abs(lit)
            if len(clause) == 2:
                e3_arcs.add((t(i, 2), c(j)) if lit > 0 else (t(i, 3), c(j)))
                e4_arcs.add((c(j), t(i, 4)) if lit > 0 else (c(j), t(i, 5)))
            else:
                e3_arcs.add((c(j), t(i, 4)) if lit > 0 else (c(j), t(i, 5)))
                e4_arcs.add((t(i, 2), c(j)) if lit > 0 else (t(i, 3), c(j)))
    e3 = Digraph.from_arcs(n, e3_arcs)
    e4 = Digraph.from_arcs(n, e4_arcs)

    voters = (tuple(backbone),)
    for block in (e2, e3, e4):
        voters += two_voter_profile(block).voters
    witness = Profile(n, voters)
    trace = (("E1", _order_closure(backbone)), ("E2", e2), ("E3", e3), ("E4", e4))
    if component_size > 1:
        graph, witness, trace = reference_replicate(
            graph, witness, trace, 6 * m, component_size
        )
    return GadgetOutput(
        graph=graph, decision_vertex=None, witness=witness, block_trace=trace
    )


def reference_replicate(graph, witness, trace, head: int, copies: int):
    """Blow the first ``head`` vertices up into transitive chains, arc by arc."""
    n = head * copies + graph.n - head

    def span(v):
        if v < head:
            return range(v * copies, (v + 1) * copies)
        base = head * copies + (v - head)
        return range(base, base + 1)

    def lifted(g):
        return [(a2, b2) for a, b in g.arcs() for a2 in span(a) for b2 in span(b)]

    arcs = lifted(graph)
    for v in range(head):
        chain = list(span(v))
        arcs.extend(
            (chain[i], chain[j]) for i in range(copies) for j in range(i + 1, copies)
        )
    new_voters = []
    for idx, order in enumerate(witness.voters):
        ranked = []
        for v in order:
            chain = list(span(v))
            ranked.extend(chain if idx in (0, 1, 3, 5) else reversed(chain))
        new_voters.append(tuple(ranked))
    new_trace = tuple(
        (name, _order_closure(new_voters[0]))
        if name == "E1"
        else (name, Digraph.from_arcs(n, lifted(block)))
        for name, block in trace
    )
    return Digraph.from_arcs(n, arcs), Profile(n, tuple(new_voters)), new_trace
