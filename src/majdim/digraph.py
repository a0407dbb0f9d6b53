"""Directed-graph value types and the structural predicates built on them.

Vertices are always ids 0..n-1.  Arc sets are kept as per-vertex
out-neighbour bitmasks (Python ints), which makes the predicates cheap at
the scales this package works at (n up to a few hundred).
All types are immutable values and safe to share across worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass


def _popcount(x: int) -> int:
    return bin(x).count("1")


@dataclass(frozen=True)
class Digraph:
    """Asymmetric irreflexive digraph; ``rows[u]`` is the out-neighbour mask of u."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0 or len(self.rows) != self.n:
            raise ValueError("rows must have length n")
        full = (1 << self.n) - 1
        for u, row in enumerate(self.rows):
            if row & ~full:
                raise ValueError("arc to a vertex id >= n")
            if row >> u & 1:
                raise ValueError("self-loop at %d" % u)
        for u in range(self.n):
            for v in _bits(self.rows[u]):
                if self.rows[v] >> u & 1:
                    raise ValueError("asymmetry violated on (%d,%d)" % (u, v))

    @staticmethod
    def from_arcs(n: int, arcs) -> "Digraph":
        rows = [0] * n
        for u, v in arcs:
            rows[u] |= 1 << v
        return Digraph(n, tuple(rows))

    @staticmethod
    def empty(n: int) -> "Digraph":
        return Digraph(n, (0,) * n)

    def has_arc(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def arcs(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in _bits(self.rows[u])]

    @property
    def arc_count(self) -> int:
        return sum(_popcount(r) for r in self.rows)

    def in_masks(self) -> list[int]:
        masks = [0] * self.n
        for u in range(self.n):
            for v in _bits(self.rows[u]):
                masks[v] |= 1 << u
        return masks

    def converse(self) -> "Digraph":
        return Digraph(self.n, tuple(self.in_masks()))

    def induced(self, vertices) -> "Digraph":
        """Subgraph on the given vertices, relabelled 0..len-1 in the given order."""
        index = {v: i for i, v in enumerate(vertices)}
        rows = [0] * len(index)
        for v, i in index.items():
            for w in _bits(self.rows[v]):
                if w in index:
                    rows[i] |= 1 << index[w]
        return Digraph(len(index), tuple(rows))

    def is_tournament(self) -> bool:
        # complete: every unordered pair carries exactly one arc
        in_m = self.in_masks()
        full = (1 << self.n) - 1
        return all(
            (self.rows[u] | in_m[u]) == full & ~(1 << u) for u in range(self.n)
        )

    def is_transitive(self) -> bool:
        # u->v implies out(v) subseteq out(u); asymmetry guarantees u not in out(v)
        return all(
            self.rows[v] & ~self.rows[u] == 0
            for u in range(self.n)
            for v in _bits(self.rows[u])
        )

    def is_acyclic(self) -> bool:
        indeg = [_popcount(m) for m in self.in_masks()]
        queue = [v for v in range(self.n) if indeg[v] == 0]
        seen = 0
        while queue:
            v = queue.pop()
            seen += 1
            for w in _bits(self.rows[v]):
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
        return seen == self.n

    def topological_order(self) -> list[int]:
        """One topological order; raises if the digraph has a cycle.

        Ties are broken by vertex id so the result is deterministic.
        """
        indeg = [_popcount(m) for m in self.in_masks()]
        import heapq

        heap = [v for v in range(self.n) if indeg[v] == 0]
        heapq.heapify(heap)
        out = []
        while heap:
            v = heapq.heappop(heap)
            out.append(v)
            for w in _bits(self.rows[v]):
                indeg[w] -= 1
                if indeg[w] == 0:
                    heapq.heappush(heap, w)
        if len(out) != self.n:
            raise ValueError("digraph has a directed cycle")
        return out


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class GraphClass:
    tournament: bool
    transitive: bool
    acyclic: bool


def classify(g: Digraph) -> GraphClass:
    return GraphClass(g.is_tournament(), g.is_transitive(), g.is_acyclic())


@dataclass(frozen=True)
class UndirectedGraph:
    """Simple undirected graph as symmetric adjacency bitmasks."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if len(self.adj) != self.n:
            raise ValueError("adj must have length n")
        for u in range(self.n):
            if self.adj[u] >> u & 1:
                raise ValueError("self-loop")
            for v in _bits(self.adj[u]):
                if not self.adj[v] >> u & 1:
                    raise ValueError("adjacency not symmetric")

    @staticmethod
    def from_edges(n: int, edges) -> "UndirectedGraph":
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError("self-loop")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return UndirectedGraph(n, tuple(adj))

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in _bits(self.adj[u]) if u < v]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)


def incomparability_graph(g: Digraph) -> UndirectedGraph:
    """Undirected graph on the pairs carrying no arc in either direction."""
    in_m = g.in_masks()
    full = (1 << g.n) - 1
    adj = tuple(
        full & ~(1 << u) & ~(g.rows[u] | in_m[u]) for u in range(g.n)
    )
    return UndirectedGraph(g.n, adj)


def transitive_orientation(h: UndirectedGraph) -> Digraph | None:
    """Orient every edge of ``h`` so the result is transitive, or None.

    Forcing-closure method: orient one edge, propagate every orientation it
    forces (an arc x->y forces x->c whenever xc is an edge but yc is not,
    and c->y whenever yc is an edge but xc is not), remove the finished
    class, repeat on the remaining graph.  A class forcing both directions
    of some edge means no transitive orientation exists.
    """
    n = h.n
    adj = h.adj
    cur = list(adj)  # adjacency of the not-yet-oriented part
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
                forced = cur[x] & ~adj[y] & ~(1 << y)
                if forced & into[x]:
                    return None
                forced &= ~out[x]
                out[x] |= forced
                for c in _bits(forced):
                    into[c] |= 1 << x
                    stack.append((x, c))
                    touched.append(c)
                forced = cur[y] & ~adj[x] & ~(1 << x)
                if forced & out[y]:
                    return None
                forced &= ~into[y]
                into[y] |= forced
                for c in _bits(forced):
                    out[c] |= 1 << y
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


def orientation_compatible(e1: Digraph, e2: Digraph) -> bool:
    """True iff no pair is oriented one way in e1 and the other way in e2."""
    if e1.n != e2.n:
        raise ValueError("vertex counts differ")
    in2 = e2.in_masks()
    return all(e1.rows[u] & in2[u] == 0 for u in range(e1.n))


@dataclass(frozen=True)
class Decomposition:
    """Partition of a tournament into components plus the summary tournament.

    Between any two blocks all arcs run the same way, matching the summary.
    """

    components: tuple[tuple[int, ...], ...]
    summary: Digraph

    def __post_init__(self):
        ids = sorted(v for block in self.components for v in block)
        if ids != list(range(len(ids))):
            raise ValueError("components must partition 0..n-1")
        if self.summary.n != len(self.components):
            raise ValueError("summary order must match the block count")


def _component_closure(t: Digraph, seed: int) -> int:
    """Smallest component (mask) of the tournament containing the seed mask.

    A vertex outside S that beats part of S and loses to another part
    must join S; iterate to a fixpoint.
    """
    s = seed
    size = _popcount(s)
    changed = True
    while changed:
        changed = False
        for w in range(t.n):
            if s >> w & 1:
                continue
            beats = _popcount(t.rows[w] & s)
            if 0 < beats < size:
                s |= 1 << w
                size += 1
                changed = True
    return s


def decompose(t: Digraph) -> Decomposition:
    """Partition ``t`` into maximal proper components (singletons if prime)."""
    if not t.is_tournament():
        raise ValueError("decompose expects a tournament")
    n = t.n
    full = (1 << n) - 1
    proper = set()
    for u in range(n):
        for v in range(u + 1, n):
            c = _component_closure(t, (1 << u) | (1 << v))
            if c != full:
                proper.add(c)
    blocks: list[int] = []
    covered = 0
    for c in sorted(proper, key=_popcount, reverse=True):
        if c & covered == 0:
            blocks.append(c)
            covered |= c
    for v in range(n):
        if not covered >> v & 1:
            blocks.append(1 << v)
    components = tuple(
        sorted((tuple(_bits(b)) for b in blocks), key=lambda blk: blk[0])
    )
    # summary arcs read off any cross pair; validate uniformity as we go
    p = len(components)
    rows = [0] * p
    for q in range(p):
        for r in range(q + 1, p):
            mask_r = 0
            for v in components[r]:
                mask_r |= 1 << v
            wins = [_popcount(t.rows[u] & mask_r) for u in components[q]]
            if all(w == len(components[r]) for w in wins):
                rows[q] |= 1 << r
            elif all(w == 0 for w in wins):
                rows[r] |= 1 << q
            else:
                raise AssertionError("non-uniform pair of blocks")
    return Decomposition(components, Digraph(p, tuple(rows)))


CANONICAL_CAP = 10


def canonical_form(t: Digraph) -> str:
    """Label-invariant key for a tournament on at most ``CANONICAL_CAP``
    vertices, by colour refinement and individualization.

    Refinement splits every cell of an ordered vertex partition by the
    vector of its vertices' out-neighbour counts into each cell, orders
    the sub-cells by that vector (never by vertex id) and repeats until no
    cell splits.  Where it stalls short of singletons, each vertex of the
    first non-singleton cell in turn is placed in a cell of its own ahead
    of the rest, and the search refines and recurses.  Every discrete
    partition reached is a vertex order; the key is the smallest of their
    bitstrings.  The search tree depends on the arcs alone, so relabelled
    copies reach the same set of bitstrings.

    The bitstring of an order has n(n-1)/2 bits, read column by column:
    for v = 1..n-1 and i = 0..v-1, the bit is 1 when order[i] beats
    order[v].
    """
    if not t.is_tournament():
        raise ValueError("canonical_form expects a tournament")
    n = t.n
    if n > CANONICAL_CAP:
        raise ValueError(
            "n=%d above the canonical_form cap (%d)" % (n, CANONICAL_CAP)
        )
    if n <= 1:
        return ""

    rows = t.rows
    width = n.bit_length()  # a count into one cell is at most n - 1

    def refine(cells: list[int]) -> list[int]:
        while True:
            split = []
            for cell in cells:
                if cell & (cell - 1) == 0:
                    split.append(cell)
                    continue
                parts: dict[int, int] = {}
                rest = cell
                while rest:
                    low = rest & -rest
                    rest ^= low
                    row = rows[low.bit_length() - 1]
                    sig = 0
                    for c in cells:
                        sig = sig << width | (row & c).bit_count()
                    parts[sig] = parts.get(sig, 0) | low
                split.extend(parts[sig] for sig in sorted(parts))
            if len(split) == len(cells):
                return cells
            cells = split

    size = n * (n - 1) // 2
    best = 1 << size
    stack = [refine([(1 << n) - 1])]
    while stack:
        cells = stack.pop()
        if len(cells) == n:
            order = [c.bit_length() - 1 for c in cells]
            key = 0
            for v in range(1, n):
                col = order[v]
                for i in range(v):
                    key = key << 1 | rows[order[i]] >> col & 1
            best = min(best, key)
            continue
        i = next(j for j, c in enumerate(cells) if c & (c - 1))
        target = cells[i]
        rest = target
        while rest:
            low = rest & -rest
            rest ^= low
            stack.append(refine(cells[:i] + [low, target ^ low] + cells[i + 1:]))
    return format(best, "0%db" % size)


@dataclass(frozen=True)
class WeightedDigraph:
    """Digraph with an antisymmetric integer margin on every ordered pair."""

    n: int
    w: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.w) != self.n or any(len(r) != self.n for r in self.w):
            raise ValueError("weight matrix must be n x n")
        for u in range(self.n):
            if self.w[u][u] != 0:
                raise ValueError("diagonal weights must be 0")
            for v in range(u + 1, self.n):
                if self.w[u][v] != -self.w[v][u]:
                    raise ValueError("weights must be antisymmetric")

    @staticmethod
    def from_pairs(n: int, pairs: dict[tuple[int, int], int]) -> "WeightedDigraph":
        w = [[0] * n for _ in range(n)]
        seen = set()
        for (u, v), weight in pairs.items():
            if frozenset((u, v)) in seen:
                raise ValueError("pair (%d, %d) specified twice" % (u, v))
            seen.add(frozenset((u, v)))
            w[u][v] = weight
            w[v][u] = -weight
        return WeightedDigraph(n, tuple(tuple(r) for r in w))

    def weight(self, u: int, v: int) -> int:
        return self.w[u][v]

    def arc_digraph(self) -> Digraph:
        """Unweighted digraph of the strictly positive pairs."""
        rows = [0] * self.n
        for u in range(self.n):
            for v in range(self.n):
                if self.w[u][v] > 0:
                    rows[u] |= 1 << v
        return Digraph(self.n, tuple(rows))

    def positive_arcs(self) -> list[tuple[int, int, int]]:
        return [
            (u, v, self.w[u][v])
            for u in range(self.n)
            for v in range(self.n)
            if self.w[u][v] > 0
        ]


# --- text formats ---------------------------------------------------------
#
# Digraph:          line 1 "n m", then m lines "u v" (0-based ids).
# WeightedDigraph:  line 1 "n m", then m lines "u v w", positive w only.


def digraph_to_text(g: Digraph) -> str:
    lines = ["%d %d" % (g.n, g.arc_count)]
    lines += ["%d %d" % (u, v) for u, v in g.arcs()]
    return "\n".join(lines) + "\n"


def digraph_from_text(text: str) -> Digraph:
    tokens = _header_and_rows(text, 2)
    n, m = tokens[0]
    arcs = tokens[1:]
    if len(arcs) != m:
        raise ValueError("expected %d arc lines, got %d" % (m, len(arcs)))
    return Digraph.from_arcs(n, arcs)


def weighted_to_text(g: WeightedDigraph) -> str:
    pos = g.positive_arcs()
    lines = ["%d %d" % (g.n, len(pos))]
    lines += ["%d %d %d" % (u, v, w) for u, v, w in pos]
    return "\n".join(lines) + "\n"


def weighted_from_text(text: str) -> WeightedDigraph:
    rows = _header_and_rows(text, None)
    n, m = rows[0][0], rows[0][1]
    pairs = {}
    for row in rows[1:]:
        if len(row) != 3:
            raise ValueError("weighted arc lines need 'u v w'")
        u, v, w = row
        if w <= 0:
            raise ValueError("only positive weights may be listed")
        pairs[(u, v)] = w
    if len(pairs) != m:
        raise ValueError("expected %d arc lines, got %d" % (m, len(pairs)))
    return WeightedDigraph.from_pairs(n, pairs)


def _header_and_rows(text: str, width: int | None):
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = [int(tok) for tok in line.split()]
        if rows and width is not None and len(parts) != width:
            raise ValueError("expected %d fields per line" % width)
        rows.append(tuple(parts))
    if not rows or len(rows[0]) != 2:
        raise ValueError("missing 'n m' header line")
    return rows

