"""Directed-graph value types and the structural predicates built on them.

Vertices are always ids 0..n-1.  Arc sets are kept as per-vertex
out-neighbour bitmasks (Python ints), which makes the predicates cheap at
the scales this package works at (n up to a few hundred).  Every
``Digraph`` is checked once, when it is built: the constructor transposes
the rows into in-neighbour masks, reads asymmetry off the two, and keeps
the masks, so ``in_masks``, ``is_tournament``, ``converse`` and
``incomparability_graph`` never walk the arcs again.  Rankings and the
masks of their transitive tournaments convert both ways directly
(``order_rows``, ``linear_order``).  Only majorities, in ``profiles``, are
counted in bit planes: plane j holds bit j of every count.  All types are
immutable values and safe to share across worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def _transpose(n: int, rows) -> list[int]:
    """In-neighbour masks of the out-neighbour masks ``rows`` (ids < n).

    Rows averaging more than 8 arcs are transposed as n strings of n
    binary digits, which walks the n^2 entries in C; sparser ones arc by
    arc, which is faster below that.
    """
    if sum(row.bit_count() for row in rows) > 8 * n:
        width = "0%db" % n
        # the digit at column n-1-v of row u's string is bit v of rows[u];
        # rows are read last first so that u = 0 lands in the lowest digit
        cols = zip(*[format(row, width) for row in reversed(rows)])
        return [int("".join(col), 2) for col in cols][::-1]
    into = [0] * n
    for u, row in enumerate(rows):
        bit = 1 << u
        while row:
            low = row & -row
            into[low.bit_length() - 1] |= bit
            row ^= low
    return into


@dataclass(frozen=True)
class Digraph:
    """Asymmetric irreflexive digraph; ``rows[u]`` is the out-neighbour mask of u."""

    n: int
    rows: tuple[int, ...]
    # in-neighbour masks, built by the constructor's check
    _in: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, rows = self.n, self.rows
        if n < 0 or len(rows) != n:
            raise ValueError("rows must have length n")
        for u, row in enumerate(rows):
            if row >> n:
                raise ValueError("arc to a vertex id >= n")
            if row >> u & 1:
                raise ValueError("self-loop at %d" % u)
        into = _transpose(n, rows)
        for u in range(n):
            clash = rows[u] & into[u]
            if clash:
                raise ValueError(
                    "asymmetry violated on (%d,%d)"
                    % (u, (clash & -clash).bit_length() - 1)
                )
        object.__setattr__(self, "_in", tuple(into))

    @staticmethod
    def from_arcs(n: int, arcs) -> "Digraph":
        rows = [0] * n
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise _outside(n, u, v)
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
        return sum(r.bit_count() for r in self.rows)

    def in_masks(self) -> list[int]:
        return list(self._in)

    def converse(self) -> "Digraph":
        return Digraph(self.n, self._in)

    def induced(self, vertices) -> "Digraph":
        """Subgraph on the given vertices, relabelled 0..len-1 in the given order."""
        index = {}
        for i, v in enumerate(vertices):
            if not 0 <= v < self.n:
                raise ValueError("vertex %d outside 0..%d" % (v, self.n - 1))
            if v in index:
                raise ValueError("vertex %d listed twice" % v)
            index[v] = i
        rows = [0] * len(index)
        for v, i in index.items():
            for w in _bits(self.rows[v]):
                if w in index:
                    rows[i] |= 1 << index[w]
        return Digraph(len(index), tuple(rows))

    def is_tournament(self) -> bool:
        # complete: every unordered pair carries exactly one arc
        full = (1 << self.n) - 1
        return all(
            (row | into) == full ^ (1 << u)
            for u, (row, into) in enumerate(zip(self.rows, self._in))
        )

    def is_transitive(self) -> bool:
        # u->v implies out(v) subseteq out(u); asymmetry guarantees u not in out(v)
        rows = self.rows
        for row in rows:
            rest = row
            while rest:
                low = rest & -rest
                if rows[low.bit_length() - 1] & ~row:
                    return False
                rest ^= low
        return True


def order_rows(order) -> list[int]:
    """Mask of the vertices ranked below each vertex in ``order``."""
    below = [0] * len(order)
    rest = 0
    for v in reversed(order):
        below[v] = rest
        rest |= 1 << v
    return below


def linear_order(rows) -> list[int] | None:
    """The ranking whose ``order_rows`` equal the masks ``rows``, or None.

    A tournament is transitive exactly when its out-degrees are n-1, ...,
    1, 0 (Landau 1953), so the ranking puts each vertex at place n-1 minus
    its out-degree.  A shared or negative place rules the input out; any
    other non-transitive input fails the final comparison of masks.
    """
    n = len(rows)
    order = [-1] * n
    for v, row in enumerate(rows):
        place = n - 1 - row.bit_count()
        if place < 0 or order[place] >= 0:
            return None
        order[place] = v
    if order_rows(order) != list(rows):
        return None
    return order


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class UndirectedGraph:
    """Simple undirected graph as symmetric adjacency bitmasks."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        n, adj = self.n, self.adj
        if len(adj) != n:
            raise ValueError("adj must have length n")
        for u, row in enumerate(adj):
            if row >> n:
                raise ValueError("edge to a vertex id >= n")
            if row >> u & 1:
                raise ValueError("self-loop")
        if _transpose(n, adj) != list(adj):
            raise ValueError("adjacency not symmetric")

    @staticmethod
    def from_edges(n: int, edges) -> "UndirectedGraph":
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise _outside(n, u, v)
            if u == v:
                raise ValueError("self-loop")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return UndirectedGraph(n, tuple(adj))

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in _bits(self.adj[u]) if u < v]


def incomparability_graph(g: Digraph) -> UndirectedGraph:
    """Undirected graph on the pairs carrying no arc in either direction."""
    full = (1 << g.n) - 1
    adj = tuple(
        full ^ (1 << u) ^ (row | into)
        for u, (row, into) in enumerate(zip(g.rows, g._in))
    )
    return UndirectedGraph(g.n, adj)


def _parts(rows, s: int) -> list[int]:
    """Connected parts of the vertex set ``s`` under ``rows``, lowest vertex first."""
    parts = []
    while s:
        left = s & s - 1  # not yet reached: all but the lowest vertex
        new = s ^ left
        while new:
            reach = 0
            while new:
                low = new & -new
                reach |= rows[low.bit_length() - 1]
                new ^= low
            new = reach & left
            left ^= new
        parts.append(s ^ left)
        s = left
    return parts


def transitive_orientation(h: UndirectedGraph) -> Digraph | None:
    """Orient every edge of ``h`` so the result is transitive, or None.

    The vertex set is first split along the parallel and series nodes of
    its modular decomposition (Gallai 1967), on a stack of vertex sets
    that starts with all of them:

    - a disconnected set is replaced by its components;
    - a set whose complement is disconnected is a series node: every edge
      between two of its co-components is oriented from the co-component
      with the lower minimum vertex to the other, and each co-component is
      pushed;
    - a set that is both connected and co-connected goes to forcing
      closure: orient one edge, propagate every orientation it forces (an
      arc x->y forces x->c whenever xc is an edge but yc is not, and c->y
      whenever yc is an edge but xc is not), remove the finished class,
      repeat on the set's remaining edges.  A class forcing both
      directions of some edge means no transitive orientation exists.

    Only the x-side step tests for that conflict (x->c forced while c->x is
    there).  Testing the y-side step too (c->y forced while y->c is there)
    would change no result.  Take the first step of a class that orients an
    edge against an arc already present, and let it be the y-side step of
    x->y.  Then x lies in ``cur[y] & far[c]``, and (y, c) went on the class's
    stack when y->c was oriented.  If it was popped before x->y existed,
    it oriented y->x, so orienting x->y was an earlier such step (seeds
    are unoriented edges).  If it was popped after, its x-side test found
    x in ``into[y]`` and returned None.  If it is still on the stack, it
    does so before the class closes.

    The result is the one forcing on the whole graph gives, bit for bit:
    each class is oriented from its smallest edge {u<v} as u->v, since
    each seed is the smallest edge still unoriented.  No transitivity is
    checked, because a run without a conflict is transitive:

    1. Each forcing class inside a set on the stack is an implication
       class of ``h``: every such set is a module, forcing never leaves a
       module (a vertex outside sees both ends of an inner edge or
       neither), and a class is cleared only once it has closed.
    2. So no conflict means that no class meets its own reverse, which
       holds exactly for comparability graphs (Golumbic 1980, ch. 5).
    3. Inside a connected, co-connected set the classes amount to one
       choice per node of its modular decomposition.  The edges between
       the children of a prime node form one class pair; with no conflict,
       each class points one way between two children and orients the
       node's quotient transitively (Gallai 1967).  Between two co-components C_a, C_b of
       a nested series node the class is seeded at {min C_a, min C_b}, so
       the co-components are ordered by their minima, as the stack orders
       those of a series set.
    4. Any transitive choice per node composes into a transitive
       orientation (Gallai 1967): for a->b->c, the lowest node holding all
       three has children A, B, C holding them; A = C is impossible, A = B
       or B = C gives a->c since arcs between two children point one way,
       and otherwise the node's choice gives A->C.
    """
    n, adj = h.n, h.adj
    far = [~(a | 1 << v) for v, a in enumerate(adj)]  # neither v nor adjacent
    # adjacency of the not-yet-oriented part; a series step drops the edges
    # it orients, so cur[v] stays inside the set on the stack that holds v
    cur = list(adj)
    out = [0] * n  # arcs oriented so far, as out- and in-neighbour masks
    into = [0] * n
    sets = [(1 << n) - 1]
    while sets:
        s = sets.pop()
        if not s & s - 1:
            continue  # at most one vertex, no edge
        parts = _parts(adj, s)
        if len(parts) > 1:
            sets += parts
            continue
        parts = _parts(far, s)
        if len(parts) > 1:
            earlier, later = 0, s
            for part in parts:
                later ^= part
                for v in _bits(part):
                    out[v] |= later
                    into[v] |= earlier
                    cur[v] &= part
                earlier |= part
            sets += parts
            continue
        for u in _bits(s):
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
                    forced = cur[y] & far[x] & ~into[y]
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
    return Digraph(n, tuple(out))


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
    size = s.bit_count()
    changed = True
    while changed:
        changed = False
        for w in range(t.n):
            if s >> w & 1:
                continue
            beats = (t.rows[w] & s).bit_count()
            if 0 < beats < size:
                s |= 1 << w
                size += 1
                changed = True
    return s


def decompose(t: Digraph) -> Decomposition:
    """Partition ``t`` into maximal proper components (singletons if prime).

    The summary is the sub-tournament on the first vertex of each block.
    That is exact because two disjoint components A and B are joined one
    way: say a0 -> b0.  Then b0 lies outside A, so every a in A beats b0,
    and each such a lies outside B, so it beats all of B.
    """
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
    for c in sorted(proper, key=int.bit_count, reverse=True):
        if c & covered == 0:
            blocks.append(c)
            covered |= c
    for v in range(n):
        if not covered >> v & 1:
            blocks.append(1 << v)
    components = tuple(
        sorted((tuple(_bits(b)) for b in blocks), key=lambda blk: blk[0])
    )
    return Decomposition(components, t.induced([blk[0] for blk in components]))


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
            if not (0 <= u < n and 0 <= v < n):
                raise _outside(n, u, v)
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
    # the first faulty arc line is reported
    rows = [0] * n
    for u, v in arcs:
        if not (0 <= u < n and 0 <= v < n):
            raise _outside(n, u, v)
        if rows[u] >> v & 1:
            raise ValueError("arc (%d, %d) listed twice" % (u, v))
        rows[u] |= 1 << v
    return Digraph(n, tuple(rows))


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
        _require_new_arc(n, u, v, pairs)
        if w <= 0:
            raise ValueError("only positive weights may be listed")
        pairs[(u, v)] = w
    if len(pairs) != m:
        raise ValueError("expected %d arc lines, got %d" % (m, len(pairs)))
    return WeightedDigraph.from_pairs(n, pairs)


def _outside(n: int, u: int, v: int) -> ValueError:
    return ValueError("arc (%d, %d) names a vertex outside 0..%d" % (u, v, n - 1))


def _require_new_arc(n: int, u: int, v: int, seen) -> None:
    if not (0 <= u < n and 0 <= v < n):
        raise _outside(n, u, v)
    if (u, v) in seen:
        raise ValueError("arc (%d, %d) listed twice" % (u, v))


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

