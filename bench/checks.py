"""Correctness checks that share no code with majdim.

Everything here works on plain data: a digraph is ``(n, rows)`` with
``rows[u]`` the out-neighbour bitmask of u, a profile is a list of
rankings (best first), and a weighted digraph is its n x n margin matrix.
Nothing is imported from majdim, so a fault in the library cannot hide
itself by also being in its checker.
"""

from __future__ import annotations

import itertools

# Isomorphism classes of tournaments on n = 1..7 vertices (OEIS A000568).
A000568 = (1, 1, 2, 4, 12, 56, 456)


class CheckError(AssertionError):
    """An output of the program is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def margins(n: int, voters) -> list[list[int]]:
    """w[u][v] = voters ranking u above v minus voters ranking v above u."""
    w = [[0] * n for _ in range(n)]
    for order in voters:
        require(sorted(order) == list(range(n)),
                "a ranking is not a permutation of 0..%d" % (n - 1))
        for i, u in enumerate(order):
            for v in order[i + 1:]:
                w[u][v] += 1
                w[v][u] -= 1
    return w


def majority_rows(n: int, voters) -> tuple[int, ...]:
    """Out-neighbour masks of the strict majority relation of a profile."""
    w = margins(n, voters)
    return tuple(
        sum(1 << v for v in range(n) if w[u][v] > 0) for u in range(n)
    )


def arc_count(rows) -> int:
    return sum(bin(r).count("1") for r in rows)


def is_tournament(n: int, rows) -> bool:
    return all(
        (rows[u] >> v & 1) + (rows[v] >> u & 1) == 1
        for u in range(n)
        for v in range(u + 1, n)
    )


def is_transitive(n: int, rows) -> bool:
    return all(
        rows[v] & ~rows[u] == 0
        for u in range(n)
        for v in range(n)
        if rows[u] >> v & 1
    )


def decode_key(key: str) -> tuple[int, tuple[int, ...]]:
    """Tournament from a canonical key (see ``make_n8_list.py``)."""
    n = 1
    while n * (n - 1) // 2 < len(key):
        n += 1
    require(n * (n - 1) // 2 == len(key) and set(key) <= {"0", "1"},
            "malformed tournament key %r" % key)
    rows = [0] * n
    bits = iter(key)
    for v in range(1, n):
        for i in range(v):
            if next(bits) == "1":
                rows[i] |= 1 << v
            else:
                rows[v] |= 1 << i
    return n, tuple(rows)


def min_fas(n: int, rows) -> int:
    """Minimum feedback arc set size, by a DP over vertex subsets."""
    best = [0] + [n * n] * ((1 << n) - 1)
    for placed in range(1 << n):
        base = best[placed]
        for v in range(n):
            if not placed >> v & 1:
                # arcs from v back into the vertices placed before it
                cost = base + bin(rows[v] & placed).count("1")
                nxt = placed | 1 << v
                if cost < best[nxt]:
                    best[nxt] = cost
    return best[-1]


def largest_fas_allowed(arcs: int, k: int) -> int:
    """Largest min FAS a digraph with ``arcs`` arcs can have if k voters induce it.

    Every arc needs a majority of k // 2 + 1 agreeing voters, so some voter
    agrees with at least ceil((k // 2 + 1) * arcs / k) arcs; reversing the
    rest makes that voter's ranking, which is acyclic.
    """
    m = k // 2 + 1
    return arcs - (-(-m * arcs // k))


def _colours(graphs) -> list[list[int]]:
    """Colour refinement by out- and in-neighbour colours, shared palette."""
    palette: dict = {}
    colours = [
        [bin(rows[v]).count("1") for v in range(n)] for n, rows in graphs
    ]
    for _ in range(3):
        refined = []
        for (n, rows), col in zip(graphs, colours):
            sig = [
                (
                    col[v],
                    tuple(sorted(col[w] for w in range(n) if rows[v] >> w & 1)),
                    tuple(sorted(col[w] for w in range(n) if rows[w] >> v & 1)),
                )
                for v in range(n)
            ]
            refined.append([palette.setdefault(s, len(palette)) for s in sig])
        colours = refined
    return colours


def _isomorphic(a, b, ca, cb) -> bool:
    (n, ra), (_, rb) = a, b
    if sorted(ca) != sorted(cb):
        return False
    image = [-1] * n

    def extend(v: int, used: int) -> bool:
        if v == n:
            return True
        for w in range(n):
            if used >> w & 1 or cb[w] != ca[v]:
                continue
            if all(
                (ra[u] >> v & 1) == (rb[image[u]] >> w & 1)
                and (ra[v] >> u & 1) == (rb[w] >> image[u] & 1)
                for u in range(v)
            ):
                image[v] = w
                if extend(v + 1, used | 1 << w):
                    return True
        image[v] = -1
        return False

    return extend(0, 0)


def require_distinct_tournaments(graphs, count: int, n: int) -> None:
    """``graphs`` are ``count`` pairwise non-isomorphic n-tournaments."""
    require(len(graphs) == count,
            "expected %d tournaments, found %d" % (count, len(graphs)))
    for size, rows in graphs:
        require(size == n and is_tournament(size, rows),
                "an entry is not a %d-tournament" % n)
    colours = _colours(graphs)
    groups: dict = {}
    for idx, col in enumerate(colours):
        groups.setdefault(tuple(sorted(col)), []).append(idx)
    for members in groups.values():
        for i, j in itertools.combinations(members, 2):
            require(
                not _isomorphic(graphs[i], graphs[j], colours[i], colours[j]),
                "entries %d and %d are isomorphic" % (i, j),
            )


def require_dimension(name: str, n: int, rows, dim: int, witness,
                      electorate: int | None = None) -> None:
    """A reported dimension is consistent, and its witness induces the digraph."""
    tournament = is_tournament(n, rows)
    require(dim % 2 == (1 if tournament else 0),
            "%s: dimension %d has the wrong parity" % (name, dim))
    require((dim == 1) == (tournament and is_transitive(n, rows)),
            "%s: dimension 1 must mean a transitive tournament" % name)
    require(electorate is None or dim <= electorate,
            "%s: dimension %d exceeds the electorate of %s"
            % (name, dim, electorate))
    require(len(witness) == dim,
            "%s: witness has %d voters, dimension is %d"
            % (name, len(witness), dim))
    require(majority_rows(n, witness) == tuple(rows),
            "%s: witness does not induce the digraph" % name)
