"""Preference profiles, majority margins, and the per-arc voter-pair construction."""

from __future__ import annotations

from dataclasses import dataclass

from .digraph import Digraph, WeightedDigraph, read_rows

# ranking as a tuple of vertex ids, best first
LinearOrder = tuple[int, ...]


@dataclass(frozen=True)
class Profile:
    n: int
    voters: tuple[LinearOrder, ...]

    def __post_init__(self):
        if len(self.voters) < 1:
            raise ValueError("a profile needs at least one voter")
        ref = list(range(self.n))
        for order in self.voters:
            if sorted(order) != ref:
                raise ValueError("each ranking must be a permutation of 0..n-1")

    @property
    def k(self) -> int:
        return len(self.voters)

    @staticmethod
    def of(n: int, *orders) -> "Profile":
        return Profile(n, tuple(tuple(o) for o in orders))


def majority_threshold(k: int) -> int:
    """Smallest number of voters forming a strict majority among k."""
    return k // 2 + 1


def _margin_matrix(p: Profile) -> list[list[int]]:
    n = p.n
    w = [[0] * n for _ in range(n)]
    for order in p.voters:
        for i, u in enumerate(order):
            wu = w[u]
            for v in order[i + 1:]:
                wu[v] += 1
                w[v][u] -= 1
    return w


def weighted_majority(p: Profile) -> WeightedDigraph:
    """Margins w(u,v) = #voters preferring u to v minus the reverse count."""
    return WeightedDigraph(p.n, tuple(tuple(r) for r in _margin_matrix(p)))


def _majority_rows(p: Profile) -> tuple[int, ...]:
    """Out-neighbour masks of the strict majority, counted in bit planes.

    Arc u->v needs at least t = majority_threshold(k) voters ranking u
    above v.  Each u keeps a binary counter per target, sliced into planes
    (plane j holds bit j of every target's count) and started at 2^L - t
    with 2^L >= t.
    A voter adds the mask of vertices ranked below u, ripple-carrying
    through the planes, and since the count never exceeds k < 2^L + t, the
    targets with count >= t are exactly plane L.
    """
    n = p.n
    t = majority_threshold(p.k)
    top = (t - 1).bit_length()  # L
    full = (1 << n) - 1
    start = (1 << top) - t
    planes = [
        [full if start >> j & 1 else 0 for j in range(top + 1)] for _ in range(n)
    ]
    for order in p.voters:
        below = 0
        for u in reversed(order):
            counter = planes[u]
            carry = below
            j = 0
            while carry:
                plane = counter[j]
                counter[j] = plane ^ carry
                carry &= plane
                j += 1
            below |= 1 << u
    return tuple(counter[top] for counter in planes)


def majority_digraph(p: Profile) -> Digraph:
    """Arc u->v iff strictly more voters rank u above v."""
    return Digraph(p.n, _majority_rows(p))


def induces(p: Profile, g) -> bool:
    """Does the profile's (weighted) majority equal g exactly?"""
    if isinstance(g, WeightedDigraph):
        if p.n != g.n:
            raise ValueError("vertex counts differ")
        return weighted_majority(p) == g
    if isinstance(g, Digraph):
        if p.n != g.n:
            raise ValueError("vertex counts differ")
        return _majority_rows(p) == g.rows
    raise TypeError("expected Digraph or WeightedDigraph")


def mcgarvey_profile(g: Digraph) -> Profile:
    """Profile with two voters per arc inducing g, every arc at margin 2.

    For arc (u,v): one voter ranks u,v on top then the rest ascending by id,
    the other ranks the rest descending, then u,v.  The pair agrees only on
    u over v; everything else cancels.
    """
    n = g.n
    voters: list[LinearOrder] = []
    for u, v in g.arcs():
        rest = [x for x in range(n) if x != u and x != v]
        voters.append(tuple([u, v] + rest))
        voters.append(tuple(rest[::-1] + [u, v]))
    if not voters:
        asc = tuple(range(n))
        voters = [asc, asc[::-1]]
    return Profile(n, tuple(voters))


# --- text format ----------------------------------------------------------
#
# line 1 "n k", then k lines of space-separated vertex ids, best first;
# comments and blank lines as in the digraph formats (read_rows).


def profile_to_text(p: Profile) -> str:
    lines = ["%d %d" % (p.n, p.k)]
    lines += [" ".join(str(v) for v in order) for order in p.voters]
    return "\n".join(lines) + "\n"


def profile_from_text(text: str) -> Profile:
    n, rankings = read_rows(text, "n k", n_wide=True)
    return Profile(n, tuple(rankings))
