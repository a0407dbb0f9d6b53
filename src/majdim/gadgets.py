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

The unweighted compilers write their graphs and dense blocks straight
into out-neighbour rows; ``Digraph.from_arcs`` takes only the sparse arc
sets listed one by one (exception arcs, links, star forests, Kemeny).
The weighted ranked-pairs compilers share one skeleton of arcs and star
forest blocks and give each arc its margin by its role; the tournament
completes the digraph from the lower vertex id to the higher, the order
of its completion voter.
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
    return m, n, u_ids, Digraph.from_arcs(n, _literal_exception_arcs(u_ids, labels))


def _chassis_rows(u_ids, skip: Digraph) -> list[int]:
    """Out-neighbour rows of ``skip`` plus every chassis arc it does not reverse.

    The chassis arcs: later clause vertices beat earlier ones, earlier
    blocks beat later ones, and each clause vertex beats every block but
    its own, to which it loses.  Only arcs between blocks can run against
    ``skip``; masking each block vertex's later blocks with its in-mask
    in ``skip`` leaves them out.
    """
    rows = list(skip.rows)
    skip_in = skip.in_masks()
    masks = [sum(1 << a for a in ids) for ids in u_ids]
    blocks = later = sum(masks)
    for i, ids in enumerate(u_ids):
        rows[i] |= (1 << i) - 1 | blocks & ~masks[i]
        later &= ~masks[i]
        for a in ids:
            rows[a] |= later & ~skip_in[a] | 1 << i
    return rows


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
    m, n, u_ids, e2 = _chassis_blocks(f, 2)
    rows = _chassis_rows(u_ids, e2)
    for ids in u_ids:  # transitive triple inside each block
        if len(ids) == 3:
            a, b, c = ids
            rows[a] |= 1 << b | 1 << c
            rows[b] |= 1 << c
    graph = Digraph(n, tuple(rows))

    e1 = Digraph.from_arcs(n, [(a, i) for i, ids in enumerate(u_ids) for a in ids])
    completion = list(range(m, -1, -1)) + [a for ids in u_ids for a in ids]
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
    m, n, u_ids, e2 = _chassis_blocks(f, 4)
    link = Digraph.from_arcs(  # unlabeled triple beats its upstream
        n,
        [
            (u_ids[i][a], u_ids[i - 2][b])
            for i in range(3, m + 1, 4)
            for a in range(3)
            for b in range(3)
            if a != b
        ],
    )
    rows = _chassis_rows(
        u_ids, Digraph(n, tuple(a | b for a, b in zip(e2.rows, link.rows)))
    )
    for ids in u_ids:  # 3-cycle inside each triple
        if len(ids) == 3:
            a, b, c = ids
            rows[a] |= 1 << b
            rows[b] |= 1 << c
            rows[c] |= 1 << a
    graph = Digraph(n, tuple(rows))

    # first block: every clause vertex beats everything at lower positions,
    # each triple's third token beats its first, and each unlabeled triple's
    # outer tokens beat the middle token two positions back; transitivity
    # of this set is what lets two voters carry it
    e1_rows = [0] * n
    earlier = 0
    for i, ids in enumerate(u_ids):
        e1_rows[i] = (1 << i) - 1 | earlier
        earlier |= sum(1 << a for a in ids)
        if len(ids) == 3:
            e1_rows[ids[2]] |= 1 << ids[0]
    for i in range(3, m + 1, 4):
        middle = 1 << u_ids[i - 2][1]
        e1_rows[u_ids[i][0]] |= middle
        e1_rows[u_ids[i][2]] |= middle
    e1 = Digraph(n, tuple(e1_rows))
    e3 = Digraph(n, tuple(a & ~b for a, b in zip(link.rows, e1_rows)))

    completion = [0] + [v for i in range(1, m + 1) for v in (*u_ids[i], i)]
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

    m = f.num_vars
    num_clauses = len(f.clauses)
    n = 6 * m + num_clauses

    def t(i: int, j: int) -> int:
        return 6 * (i - 1) + (j - 1)

    def c(j: int) -> int:
        return 6 * m + (j - 1)

    rows = [0] * n
    tokens = (1 << 6 * m) - 1  # every t_i^j
    firsts = sum(1 << t(i, 1) for i in range(1, m + 1))
    for i in range(1, m + 1):
        later = tokens ^ ((1 << 6 * i) - 1)  # the tokens of later variables
        for a in range(1, 7):
            rows[t(i, a)] |= later
        for a, b in ((1, 2), (2, 3), (3, 1)):
            rows[t(i, a)] |= 1 << t(i, b)
        for upper in (4, 5, 6):
            for lower in range(1, upper):
                rows[t(i, lower)] |= 1 << t(i, upper)
        rows[t(i, 6)] |= tokens ^ ((1 << n) - 1)  # every clause vertex
    # the two of t_i^2..t_i^5 that beat c_j, by the sign of variable i in
    # clause j (None: absent)
    beaters = {True: (2, 5), False: (3, 4), None: (4, 5)}
    for j, clause in enumerate(f.clauses, start=1):
        rows[c(j)] |= (1 << n) - (2 << c(j)) | firsts  # later c_j', every t_i^1
        polarity = {abs(lit): lit > 0 for lit in clause}
        for i in range(1, m + 1):
            beats = beaters[polarity.get(i)]
            for a in (2, 3, 4, 5):
                if a in beats:
                    rows[t(i, a)] |= 1 << c(j)
                else:
                    rows[c(j)] |= 1 << t(i, a)
    graph = Digraph(n, tuple(rows))

    # single-voter backbone: all variable blocks in position order, then
    # the clause vertices; the three 2-voter blocks overturn exactly the
    # pairs on which the gadget disagrees with this order
    backbone = [t(i, j) for i in range(1, m + 1) for j in range(1, 7)]
    backbone += [c(j) for j in range(1, num_clauses + 1)]

    lows = sum(1 << t(i, a) for i in range(1, m + 1) for a in (1, 2, 3))
    e2 = Digraph(n, (0,) * 6 * m + (lows,) * num_clauses)
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
    n = graph.n + head * (copies - 1)
    spans = [range(v * copies, (v + 1) * copies) for v in range(head)]
    spans += [range(v, v + 1) for v in range(head * copies, n)]
    masks = [(1 << s.stop) - (1 << s.start) for s in spans]

    def lift(block: Digraph) -> list[int]:
        # each copy of v beats the spans of all of v's out-neighbours
        rows = [0] * n
        for v, row in enumerate(block.rows):
            lifted = 0
            while row:
                low = row & -row
                lifted |= masks[low.bit_length() - 1]
                row ^= low
            for v2 in spans[v]:
                rows[v2] = lifted
        return rows

    rows = lift(graph)
    for v in range(head):  # each chain ascending
        for v2 in spans[v]:
            rows[v2] |= masks[v] & -(2 << v2)
    new_graph = Digraph(n, tuple(rows))

    ascending_voters = {0, 1, 3, 5}
    new_voters = []
    for idx, order in enumerate(witness.voters):
        ranked: list[int] = []
        for v in order:
            ranked.extend(spans[v] if idx in ascending_voters else reversed(spans[v]))
        new_voters.append(tuple(ranked))
    new_witness = Profile(n, tuple(new_voters))

    # the backbone E1 comes first and is the first voter's closure again
    new_trace = (("E1", _order_closure(new_voters[0])),)
    new_trace += tuple((name, Digraph(n, tuple(lift(b)))) for name, b in trace[1:])
    return new_graph, new_witness, new_trace


# --- ranked pairs --------------------------------------------------------
#
# One decision vertex d, a 4-cycle u^1 -> u^2 -> u^3 -> u^4 -> u^1 per
# variable, and one vertex per clause.  d beats u^1 and u^3, clause
# vertices beat d, and each clause vertex is beaten by the tokens of its
# literals: u^2 for a positive occurrence, u^4 for a negative one.  The
# cycle arcs (u^2, u^3) and (u^4, u^1) are the heavy ones.  The ids run
# d = 0, then u_i^1..u_i^4 = 4i-3..4i, then the clause vertices.


def _rp_skeleton(f: ThreeCnf):
    """Vertex count, arcs, heavy arcs and 2-voter blocks E1..E4 of ``f``."""
    if not f.clauses:
        raise ValueError("formula needs at least one clause")
    if f.num_vars < 1:
        raise ValueError("formula needs at least one variable")
    first_clause = 1 + 4 * f.num_vars
    n = first_clause + len(f.clauses)
    out_d: list[tuple[int, int]] = []
    heavy: list[tuple[int, int]] = []
    light: list[tuple[int, int]] = []
    for u1 in range(1, first_clause, 4):
        out_d += [(0, u1), (0, u1 + 2)]
        heavy += [(u1 + 1, u1 + 2), (u1 + 3, u1)]
        light += [(u1, u1 + 1), (u1 + 2, u1 + 3)]
    into_d = [(x, 0) for x in range(first_clause, n)]

    # clause arcs ranked per target so the banks split them three ways
    # with at most one arc per clause vertex in each block
    banks: list[list[tuple[int, int]]] = [[], [], []]
    for x, clause in enumerate(f.clauses, start=first_clause):
        sources = sorted(4 * abs(lit) - (2 if lit > 0 else 0) for lit in clause)
        for bank, s in zip(banks, sources):
            bank.append((s, x))

    blocks = (
        Digraph.from_arcs(n, heavy + banks[0]),
        Digraph.from_arcs(n, heavy + banks[1]),
        Digraph.from_arcs(n, banks[2] + out_d),
        Digraph.from_arcs(n, into_d + light),
    )
    arcs = out_d + heavy + light + into_d + banks[0] + banks[1] + banks[2]
    return n, arcs, set(heavy), blocks


def rp_digraph(f: ThreeCnf) -> GadgetOutput:
    """Weighted digraph whose ranked-pairs winner question encodes ``f``.

    Weight 4 on the cycle arcs (u^2, u^3) and (u^4, u^1), weight 2 on all
    other arcs.  The certifying profile has 8 voters: four 2-voter star
    forest blocks, the first two sharing the heavy arcs so those margins
    double.
    """
    n, arcs, heavy, blocks = _rp_skeleton(f)
    weights = {arc: 4 if arc in heavy else 2 for arc in arcs}
    return _certified(WeightedDigraph.from_pairs(n, weights), 0, blocks)


def rp_tournament(f: ThreeCnf) -> GadgetOutput:
    """Weighted tournament version of ``rp_digraph``, 11 voters.

    The digraph is completed by weight-1 arcs from the lower id to the
    higher on every pair it leaves open: d over u^2 and u^4, the in-block
    diagonals (u^1, u^3) and (u^2, u^4), non-literal tokens over clause
    vertices, and ascending block and clause chains.  Weights become 5 on
    the heavy cycle arcs and 3 on the other original arcs.  A fifth block
    doubles the arcs that run from a higher id to a lower, the clause arcs
    into d and the (u^4, u^1) cycle arcs, and a final voter ranks the ids
    in order, which leaves every completion arc at margin exactly 1.
    """
    n, arcs, heavy, blocks = _rp_skeleton(f)
    weights = {arc: 5 if arc in heavy else 3 for arc in arcs}
    for a in range(n):
        for b in range(a + 1, n):
            if (a, b) not in weights and (b, a) not in weights:
                weights[a, b] = 1
    graph = WeightedDigraph.from_pairs(n, weights)
    e5 = Digraph.from_arcs(n, [(a, b) for a, b in arcs if a > b])
    return _certified(graph, 0, [*blocks, e5], list(range(n)))
