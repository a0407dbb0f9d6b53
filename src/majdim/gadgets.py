"""Formula-to-tournament compilers with constant-size certifying profiles.

Each compiler turns a CNF-shaped input into a hardness graph for some
majoritarian voting rule and certifies the construction with an explicit
voter profile whose (weighted) majority relation reproduces the graph
exactly.  The profiles are assembled from reusable pieces:

* an arc set that is transitive and whose incomparability graph admits a
  transitive reorientation is induced by two voters at margin 2
  (``two_voter_profile``), which covers star forests and bilevel sets;
* blocks drawn from a common supergraph never orient a pair in opposite
  directions and can therefore be concatenated (``combine_blocks``);
* one extra voter whose order extends the leftover arcs settles those at
  margin 1.

Voter counts are constants fixed by the constructions: 5 (Banks), 7
(tournament equilibrium set), 4 (Kemeny arc subdivision), 7 (Slater),
8 (ranked pairs digraph), and 11 (ranked pairs tournament).
"""

from __future__ import annotations

from dataclasses import dataclass

from .digraph import (
    Digraph,
    WeightedDigraph,
    incomparability_graph,
    linear_order,
    order_rows,
    transitive_orientation,
)
from .profiles import LinearOrder, Profile, induces, majority_digraph
from .transforms import ThreeCnf

BlockTrace = tuple[tuple[str, Digraph], ...]


@dataclass(frozen=True)
class GadgetOutput:
    """A compiled hardness graph together with its certifying profile.

    ``block_trace`` records the arc-set decomposition behind the witness:
    each entry names an arc set whose voters went into the profile, in
    order.  2-voter blocks appear as their induced arc sets, single
    completion voters as the full transitive closure of their order.
    """

    graph: Digraph | WeightedDigraph
    decision_vertex: int | None
    witness: Profile
    block_trace: BlockTrace

    def __post_init__(self):
        if not induces(self.witness, self.graph):
            raise ValueError("witness profile does not induce the gadget graph")


def two_voter_orders(e: Digraph) -> tuple[list[int], list[int]] | None:
    """Two orders whose majority is exactly ``e``, or None if none exist.

    ``e`` is 2-inducible exactly when it is transitive and its
    incomparability graph has a transitive orientation.  Given a transitive
    reorientation E' of the incomparable pairs, both E u E' and E u conv(E')
    are transitive tournaments; the two corresponding orders agree
    precisely on E.  So neither ``linear_order`` call can return None:
    E u E' is a linear order whenever E is transitive and E' transitively
    orients E's incomparability graph (Dushnik & Miller 1941; Pnueli,
    Lempel & Even 1971), and conv(E') is such an orientation too.
    """
    if not e.is_transitive():
        return None
    reorient = transitive_orientation(incomparability_graph(e))
    if reorient is None:
        return None
    first = linear_order([a | b for a, b in zip(e.rows, reorient.rows)])
    second = linear_order([a | b for a, b in zip(e.rows, reorient.in_masks())])
    return first, second


def two_voter_profile(e: Digraph) -> Profile:
    """Two voters whose majority is exactly ``e``, every arc at margin 2.

    Requires ``e`` to be 2-inducible; see ``two_voter_orders``.
    """
    orders = two_voter_orders(e)
    if orders is None:
        if not e.is_transitive():
            raise ValueError("arc set is not transitive, hence not 2-inducible")
        raise ValueError(
            "incomparability graph of the arc set has no transitive "
            "orientation, hence the arc set is not 2-inducible"
        )
    return Profile.of(e.n, *orders)


def _first_conflict(e1: Digraph, e2: Digraph) -> tuple[int, int] | None:
    in2 = e2.in_masks()
    for u in range(e1.n):
        clash = e1.rows[u] & in2[u]
        if clash:
            return u, (clash & -clash).bit_length() - 1
    return None


def combine_blocks(blocks, completion: LinearOrder | None = None) -> Profile:
    """Concatenate 2-voter blocks and an optional completion voter.

    The blocks' induced arc sets must be pairwise orientation compatible.
    The concatenated majority is then the union of the block arc sets
    (margin at least 2, doubled where blocks overlap) plus, at margin 1,
    any pair settled by the completion voter alone.
    """
    blocks = list(blocks)
    if not blocks and completion is None:
        raise ValueError("need at least one block or a completion order")
    sizes = {b.n for b in blocks}
    if completion is not None:
        sizes.add(len(completion))
    if len(sizes) != 1:
        raise ValueError("blocks and completion disagree on the vertex count")
    n = sizes.pop()
    arc_sets = []
    for idx, block in enumerate(blocks):
        if block.k != 2:
            raise ValueError("block %d has %d voters, expected 2" % (idx, block.k))
        arc_sets.append(majority_digraph(block))
    for i in range(len(arc_sets)):
        for j in range(i + 1, len(arc_sets)):
            clash = _first_conflict(arc_sets[i], arc_sets[j])
            if clash is not None:
                raise ValueError(
                    "blocks %d and %d orient the pair %r in opposite directions"
                    % (i, j, clash)
                )
    voters = [order for block in blocks for order in block.voters]
    if completion is not None:
        voters.append(tuple(completion))
    return Profile(n, tuple(voters))


def _order_closure(order) -> Digraph:
    """Transitive tournament ranking the vertices exactly as ``order`` does."""
    return Digraph(len(order), tuple(order_rows(order)))


def _certified(graph, decision_vertex, blocks, completion=None) -> GadgetOutput:
    """Certify ``graph`` by two voters per block plus the completion voter.

    The trace names the blocks E1..Ek in order, then the completion.
    """
    witness = combine_blocks([two_voter_profile(e) for e in blocks], completion)
    trace = tuple(("E%d" % i, e) for i, e in enumerate(blocks, start=1))
    if completion is not None:
        trace += (("completion", _order_closure(completion)),)
    return GadgetOutput(
        graph=graph,
        decision_vertex=decision_vertex,
        witness=witness,
        block_trace=trace,
    )


def _certify_completion(graph: Digraph, covered, completion) -> None:
    """Check that every arc outside ``covered`` runs forward in ``completion``.

    The completion voter may only be asked to settle an acyclic remainder;
    a backward residual arc means the block decomposition is wrong, so
    this guards the constructions below rather than their callers.
    """
    below = order_rows(completion)
    for u, row in enumerate(graph.rows):
        for block in covered:
            row &= ~block.rows[u]
        backward = row & ~below[u]
        if backward:
            raise RuntimeError(
                "completion order does not extend the residual arc (%d, %d)"
                % (u, (backward & -backward).bit_length() - 1)
            )


# --- Banks and tournament equilibrium set --------------------------------
#
# Both compilers share the same chassis: clause vertices c_0..c_m, one
# vertex block U_i per position 1..m, literal labels on designated blocks,
# and exception arcs that let later negative-literal tokens beat earlier
# positive tokens of the same variable.  They differ in the block spacing,
# the orientation inside a block (transitive triple vs 3-cycle), and the
# extra links between consecutive labeled blocks.


def _literal_exception_arcs(u_ids, labels) -> set[tuple[int, int]]:
    # token of ~p in a later block beats every token of p in an earlier
    # block; with an ordered formula this forms one bilevel set per
    # variable, and distinct variables use disjoint tokens
    by_literal: dict[int, list[tuple[int, int]]] = {}
    for i in range(1, len(u_ids)):
        for vid in u_ids[i]:
            lit = labels.get(vid)
            if lit is not None:
                by_literal.setdefault(lit, []).append((i, vid))
    arcs: set[tuple[int, int]] = set()
    for lit, negatives in by_literal.items():
        if lit >= 0:
            continue
        for bi, neg_id in negatives:
            for bj, pos_id in by_literal.get(-lit, ()):
                if bi > bj:
                    arcs.add((neg_id, pos_id))
    return arcs


def _require_ordered(f: ThreeCnf) -> None:
    if not f.is_ordered:
        raise ValueError(
            "formula must be ordered: three literals per clause and, for "
            "each variable, positive occurrences before negative ones"
        )
    if not f.clauses:
        raise ValueError("formula needs at least one clause")


def _chassis_blocks(f: ThreeCnf, spacing: int):
    """Positions, vertex count, blocks and literal exception arcs.

    Triples sit at odd positions and singletons at even ones; the triple
    at every ``spacing``-th position from 1 carries the next clause's
    literals.
    """
    m = spacing * (len(f.clauses) - 1) + 1
    n = m + 1
    u_ids: list[list[int]] = [[]]  # position 0 carries no block
    labels: dict[int, int] = {}
    for i in range(1, m + 1):
        ids = [n, n + 1, n + 2] if i % 2 == 1 else [n]
        if (i - 1) % spacing == 0:
            labels.update(zip(ids, f.clauses[(i - 1) // spacing]))
        n += len(ids)
        u_ids.append(ids)
    return m, n, u_ids, _literal_exception_arcs(u_ids, labels)


def _chassis_arcs(m: int, u_ids, skip) -> set[tuple[int, int]]:
    """Arcs between clause vertices and blocks, bar the reverses of ``skip``.

    Callers add their own arcs to the returned set in place: a union into
    a new set would hold two copies of tens of thousands of arcs at once.
    """
    arcs: set[tuple[int, int]] = set()
    for j in range(m + 1):  # later clause vertices beat earlier ones
        for i in range(j):
            arcs.add((j, i))
    for i in range(1, m + 1):  # earlier blocks beat later ones, bar skip
        for j in range(i + 1, m + 1):
            for a in u_ids[i]:
                for b in u_ids[j]:
                    if (b, a) not in skip:
                        arcs.add((a, b))
    for i in range(m + 1):  # clause vertices beat every foreign block
        for j in range(1, m + 1):
            if i != j:
                for b in u_ids[j]:
                    arcs.add((i, b))
    for i in range(1, m + 1):  # but lose to their own block
        for a in u_ids[i]:
            arcs.add((a, i))
    return arcs


def banks_tournament(f: ThreeCnf) -> GadgetOutput:
    """Tournament whose Banks-set membership question encodes ``f``.

    The input must be ordered: every clause has three literals and, per
    variable, all positive occurrences precede all negative ones.  The
    decision vertex is c_0.  The certifying profile has 5 voters: a star
    forest block (each U_i beating its own c_i), one bilevel block per
    variable (the literal exception arcs), and a completion voter ranking
    the clause vertices in descending position followed by the U blocks in
    ascending position.
    """
    _require_ordered(f)
    m, n, u_ids, phi = _chassis_blocks(f, 2)
    arcs = _chassis_arcs(m, u_ids, phi)
    arcs |= phi
    for i in range(1, m + 1):  # transitive triple inside each block
        ids = u_ids[i]
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                arcs.add((ids[a], ids[b]))
    graph = Digraph.from_arcs(n, arcs)

    e1 = Digraph.from_arcs(
        n, [(a, i) for i in range(1, m + 1) for a in u_ids[i]]
    )
    e2 = Digraph.from_arcs(n, phi)
    completion = list(range(m, -1, -1))
    for i in range(1, m + 1):
        completion.extend(u_ids[i])
    _certify_completion(graph, (e1, e2), completion)
    return _certified(graph, 0, [e1, e2], completion)


def teq_tournament(f: ThreeCnf) -> GadgetOutput:
    """Tournament whose equilibrium-set membership question encodes ``f``.

    Ordered input as for ``banks_tournament``.  Here the blocks sit four
    positions apart: literal-labeled triples at positions 1 mod 4,
    unlabeled triples at 3 mod 4, singletons in between.  Every triple
    carries a 3-cycle, and each unlabeled triple additionally beats the
    labeled triple two positions earlier on all mixed-superscript pairs.
    The certifying profile has 7 voters.
    """
    _require_ordered(f)
    m, n, u_ids, phi = _chassis_blocks(f, 4)
    link: set[tuple[int, int]] = set()  # unlabeled triple beats its upstream
    for i in range(3, m + 1, 4):
        for a in range(3):
            for b in range(3):
                if a != b:
                    link.add((u_ids[i][a], u_ids[i - 2][b]))

    skip = phi | link
    arcs = _chassis_arcs(m, u_ids, skip)
    arcs |= skip
    for i in range(1, m + 1):  # 3-cycle inside each triple
        ids = u_ids[i]
        if len(ids) == 3:
            arcs.update([(ids[0], ids[1]), (ids[1], ids[2]), (ids[2], ids[0])])
    graph = Digraph.from_arcs(n, arcs)

    # first block: every clause vertex beats everything at lower positions,
    # each triple's third token beats its first, and each unlabeled triple's
    # outer tokens beat the middle token two positions back; transitivity
    # of this set is what lets two voters carry it
    e1_arcs: list[tuple[int, int]] = []
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
    e2 = Digraph.from_arcs(n, phi)
    e3 = Digraph.from_arcs(n, link - set(e1.arcs()))

    completion = [0]
    for i in range(1, m + 1):
        completion.extend(u_ids[i])
        completion.append(i)
    _certify_completion(graph, (e1, e2, e3), completion)
    return _certified(graph, 0, [e1, e2, e3], completion)


# --- Kemeny --------------------------------------------------------------


def kemeny_subdivide(g: Digraph) -> GadgetOutput:
    """Subdivide every arc of ``g`` and certify the result with 4 voters.

    Each arc (a, b) becomes a fresh midpoint s with arcs (a, s) and (s, b).
    The arcs into midpoints form one star forest, the arcs out of midpoints
    another, so two 2-voter blocks suffice.  Subdivision preserves the
    minimum feedback arc set size.
    """
    base = g.arcs()
    n = g.n + len(base)
    into_mid = []
    out_of_mid = []
    for idx, (a, b) in enumerate(base):
        s = g.n + idx
        into_mid.append((a, s))
        out_of_mid.append((s, b))
    graph = Digraph.from_arcs(n, into_mid + out_of_mid)
    return _certified(
        graph,
        None,
        [Digraph.from_arcs(n, into_mid), Digraph.from_arcs(n, out_of_mid)],
    )


# --- Slater --------------------------------------------------------------


def slater_tournament(f: ThreeCnf, component_size: int = 1) -> GadgetOutput:
    """Tournament whose Slater-score question encodes ``f``, 7 voters.

    The input must be in reduced occurrence form (literals at most twice,
    variables at most three times, at most one three-literal clause per
    variable, at most one two-literal clause per literal) with clauses of
    width two or three.

    Each variable i owns six vertices t_i^1..t_i^6 (a 3-cycle on the
    first three, everything ahead of the last three), followed by one
    vertex per clause.  ``component_size`` > 1 replicates every t_i^j
    into a transitive chain of that length; the witness substitutes the
    chain orders into the 7 contracted voters, which keeps all margins
    at 1.
    """
    if component_size < 1:
        raise ValueError("component_size must be at least 1")
    if not f.is_reduced_few:
        raise ValueError("formula must be in reduced occurrence form")
    if not f.clauses:
        raise ValueError("formula needs at least one clause")
    if any(len(c) == 1 for c in f.clauses):
        raise ValueError("clauses must have two or three literals")

    m = f.variables
    num_clauses = len(f.clauses)
    n = 6 * m + num_clauses

    def t(i: int, j: int) -> int:
        return 6 * (i - 1) + (j - 1)

    def c(j: int) -> int:
        return 6 * m + (j - 1)

    arcs: set[tuple[int, int]] = set()
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

    # single-voter backbone: all variable blocks in position order, then
    # the clause vertices; the three 2-voter blocks overturn exactly the
    # pairs on which the gadget disagrees with this order
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
    e3_arcs: set[tuple[int, int]] = {(t(i, 3), t(i, 1)) for i in range(1, m + 1)}
    e4_arcs: set[tuple[int, int]] = set()
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
    voters += two_voter_profile(e2).voters
    voters += two_voter_profile(e3).voters
    voters += two_voter_profile(e4).voters
    witness = Profile(n, voters)
    trace: BlockTrace = (
        ("E1", _order_closure(backbone)),
        ("E2", e2),
        ("E3", e3),
        ("E4", e4),
    )
    if component_size > 1:
        graph, witness, trace = _replicate_components(
            graph, witness, trace, 6 * m, component_size
        )
    return GadgetOutput(
        graph=graph, decision_vertex=None, witness=witness, block_trace=trace
    )


def _replicate_components(
    graph: Digraph, witness: Profile, trace: BlockTrace, head: int, copies: int
):
    """Blow the first ``head`` vertices up into transitive chains.

    Arcs between original vertices are lifted to full products between the
    chains.  Four of the seven voters rank each chain ascending and three
    descending, so chain-internal pairs end up at margin 1 just like
    everything else.
    """
    tail = graph.n - head
    n = head * copies + tail

    def span(v: int) -> range:
        if v < head:
            return range(v * copies, (v + 1) * copies)
        base = head * copies + (v - head)
        return range(base, base + 1)

    arcs: list[tuple[int, int]] = []
    for a, b in graph.arcs():
        arcs.extend((a2, b2) for a2 in span(a) for b2 in span(b))
    for v in range(head):
        chain = list(span(v))
        arcs.extend(
            (chain[i], chain[j])
            for i in range(copies)
            for j in range(i + 1, copies)
        )
    new_graph = Digraph.from_arcs(n, arcs)

    ascending_voters = {0, 1, 3, 5}
    new_voters = []
    for idx, order in enumerate(witness.voters):
        ranked: list[int] = []
        for v in order:
            chain = list(span(v))
            ranked.extend(chain if idx in ascending_voters else reversed(chain))
        new_voters.append(tuple(ranked))
    new_witness = Profile(n, tuple(new_voters))

    new_trace = []
    for name, block in trace:
        if name == "E1":
            new_trace.append((name, _order_closure(new_voters[0])))
            continue
        lifted = [
            (a2, b2)
            for a, b in block.arcs()
            for a2 in span(a)
            for b2 in span(b)
        ]
        new_trace.append((name, Digraph.from_arcs(n, lifted)))
    return new_graph, new_witness, tuple(new_trace)


# --- ranked pairs --------------------------------------------------------
#
# One decision vertex d, a 4-cycle u^1 -> u^2 -> u^3 -> u^4 -> u^1 per
# variable, and one vertex per clause.  d beats u^1 and u^3, clause
# vertices beat d, and each clause vertex is beaten by the tokens of its
# literals: u^2 for a positive occurrence, u^4 for a negative one.  The
# cycle arcs (u^2, u^3) and (u^4, u^1) are the heavy ones.


def _rp_skeleton(f: ThreeCnf):
    if not f.clauses:
        raise ValueError("formula needs at least one clause")
    if f.variables < 1:
        raise ValueError("formula needs at least one variable")
    m, num_clauses = f.variables, len(f.clauses)
    n = 1 + 4 * m + num_clauses

    def u(i: int, j: int) -> int:
        return 1 + 4 * (i - 1) + (j - 1)

    def x(j: int) -> int:
        return 1 + 4 * m + (j - 1)

    sigma: list[tuple[int, int]] = []
    for i in range(1, m + 1):
        sigma += [(0, u(i, 1)), (0, u(i, 3))]
        sigma += [
            (u(i, 1), u(i, 2)),
            (u(i, 2), u(i, 3)),
            (u(i, 3), u(i, 4)),
            (u(i, 4), u(i, 1)),
        ]
    for j in range(1, num_clauses + 1):
        sigma.append((x(j), 0))

    # clause arcs ranked per target so the blocks can split them three
    # ways with at most one arc per clause vertex in each block
    ranked_phi: list[list[tuple[int, int]]] = []
    for j, clause in enumerate(f.clauses, start=1):
        sources = sorted(
            u(abs(lit), 2 if lit > 0 else 4) for lit in clause
        )
        ranked_phi.append([(s, x(j)) for s in sources])

    heavy = []
    for i in range(1, m + 1):
        heavy += [(u(i, 2), u(i, 3)), (u(i, 4), u(i, 1))]
    return n, m, num_clauses, u, x, sigma, ranked_phi, heavy


def _rp_blocks(n, m, num_clauses, u, x, ranked_phi, heavy):
    banks: list[list[tuple[int, int]]] = [[], [], []]
    for ranked in ranked_phi:
        for slot, arc in enumerate(ranked):
            banks[slot].append(arc)
    e1 = Digraph.from_arcs(n, heavy + banks[0])
    e2 = Digraph.from_arcs(n, heavy + banks[1])
    e3 = Digraph.from_arcs(
        n,
        banks[2]
        + [(0, u(i, 1)) for i in range(1, m + 1)]
        + [(0, u(i, 3)) for i in range(1, m + 1)],
    )
    e4 = Digraph.from_arcs(
        n,
        [(x(j), 0) for j in range(1, num_clauses + 1)]
        + [(u(i, 1), u(i, 2)) for i in range(1, m + 1)]
        + [(u(i, 3), u(i, 4)) for i in range(1, m + 1)],
    )
    return e1, e2, e3, e4


def rp_digraph(f: ThreeCnf) -> GadgetOutput:
    """Weighted digraph whose ranked-pairs winner question encodes ``f``.

    Weight 4 on the cycle arcs (u^2, u^3) and (u^4, u^1), weight 2 on all
    other arcs.  The certifying profile has 8 voters: four 2-voter star
    forest blocks, the first two sharing the heavy arcs so those margins
    double.
    """
    n, m, num_clauses, u, x, sigma, ranked_phi, heavy = _rp_skeleton(f)
    weights: dict[tuple[int, int], int] = {arc: 2 for arc in sigma}
    for ranked in ranked_phi:
        for arc in ranked:
            weights[arc] = 2
    for arc in heavy:
        weights[arc] = 4
    graph = WeightedDigraph.from_pairs(n, weights)

    return _certified(
        graph, 0, _rp_blocks(n, m, num_clauses, u, x, ranked_phi, heavy)
    )


def rp_tournament(f: ThreeCnf) -> GadgetOutput:
    """Weighted tournament version of ``rp_digraph``, 11 voters.

    The digraph is completed by low-priority arcs: d over u^2 and u^4,
    non-literal tokens over clause vertices, the in-block diagonals
    (u^1, u^3) and (u^2, u^4), and ascending block and clause chains.
    Weights become 5 on the heavy cycle arcs, 3 on the other original
    arcs, 1 on the completion arcs.  A fifth block doubles the clause
    arcs into d and the (u^4, u^1) cycle arcs, and a final voter ranks
    d, then the blocks, then the clause vertices, which leaves every
    completion arc at margin exactly 1.
    """
    n, m, num_clauses, u, x, sigma, ranked_phi, heavy = _rp_skeleton(f)
    phi_arcs = {arc for ranked in ranked_phi for arc in ranked}

    completion_arcs: list[tuple[int, int]] = []
    for i in range(1, m + 1):
        completion_arcs += [(0, u(i, 2)), (0, u(i, 4))]
        completion_arcs += [(u(i, 1), u(i, 3)), (u(i, 2), u(i, 4))]
    for i1 in range(1, m + 1):
        for i2 in range(i1 + 1, m + 1):
            for a in range(1, 5):
                for b in range(1, 5):
                    completion_arcs.append((u(i1, a), u(i2, b)))
    for j1 in range(1, num_clauses + 1):
        for j2 in range(j1 + 1, num_clauses + 1):
            completion_arcs.append((x(j1), x(j2)))
    for i in range(1, m + 1):
        for a in range(1, 5):
            for j in range(1, num_clauses + 1):
                if (u(i, a), x(j)) not in phi_arcs:
                    completion_arcs.append((u(i, a), x(j)))

    heavy_set = set(heavy)
    weights: dict[tuple[int, int], int] = {}
    for arc in sigma:
        weights[arc] = 5 if arc in heavy_set else 3
    for arc in phi_arcs:
        weights[arc] = 3
    for arc in completion_arcs:
        weights[arc] = 1
    graph = WeightedDigraph.from_pairs(n, weights)

    e5 = Digraph.from_arcs(
        n,
        [(x(j), 0) for j in range(1, num_clauses + 1)]
        + [(u(i, 4), u(i, 1)) for i in range(1, m + 1)],
    )
    completion = [0]
    for i in range(1, m + 1):
        completion.extend(u(i, a) for a in range(1, 5))
    completion.extend(x(j) for j in range(1, num_clauses + 1))

    blocks = _rp_blocks(n, m, num_clauses, u, x, ranked_phi, heavy)
    return _certified(graph, 0, [*blocks, e5], completion)
