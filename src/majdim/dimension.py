"""Deciding k-inducibility and computing the majority dimension.

The dimension of a digraph is the least number of voters whose strict
majority relation equals it.  Tournaments have odd dimension and incomplete
digraphs even dimension, so the search only visits parity-legal voter
counts: a constant-time transitivity test settles k = 1, a polynomial
characterization settles k = 2, and SAT calls settle everything above.  A
composite tournament is split into its components and summary, whose
maximum dimension equals the whole tournament's: the search recurses on
each and reassembles a witness by substitution.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .digraph import Digraph, UndirectedGraph, decompose, transitive_orientation
from .encoding import ModelInconsistencyError, decode_model, encode_check_k
from .gadgets import two_voter_orders
from .profiles import Profile, induces
from .solver import solve

METHODS = ("fast_path_1", "fast_path_2", "decomposition", "sat")


class SolverTimeout(RuntimeError):
    """The backend solver exceeded its time budget."""


@dataclass(frozen=True)
class DimensionResult:
    """Outcome of a dimension computation.

    dim is None when every voter count up to the search bound was exhausted
    without an answer; the true dimension may exceed any tested bound.  When
    a witness is present it has exactly dim voters and induces the input.
    """

    dim: int | None
    method: str | None
    witness: Profile | None
    max_k: int | None = None

    def __post_init__(self):
        if self.method is not None and self.method not in METHODS:
            raise ValueError("unknown method %r" % (self.method,))
        if self.witness is not None and self.witness.k != self.dim:
            raise ValueError("witness voter count differs from dim")

    @property
    def is_known(self) -> bool:
        return self.dim is not None

    def to_record(self) -> dict:
        record: dict = {"dim": self.dim}
        if self.method is not None:
            record["method"] = self.method
        if self.dim is None and self.max_k is not None:
            record["max_k"] = self.max_k
        if self.witness is not None:
            record["witness"] = [list(order) for order in self.witness.voters]
        return record


def check_k_majority(
    g: Digraph,
    k: int,
    mode: str = "optimized",
    timeout: float | None = None,
) -> Profile | None:
    """Decide whether some k-voter profile induces g.

    Returns an inducing profile on yes and None on no.  k must be
    parity-legal for g (odd for tournaments, even otherwise).  A solver
    timeout raises SolverTimeout rather than guessing.
    """
    formula, vm = encode_check_k(g, k, mode=mode)
    result = solve(formula, timeout=timeout)
    if result.status == "timeout":
        raise SolverTimeout(
            "no verdict for k=%d within %.1fs" % (k, timeout or 0.0)
        )
    if result.is_unsat:
        return None
    profile = decode_model(result.model, vm, g.n, k)
    if not induces(profile, g):
        raise ModelInconsistencyError("decoded profile does not induce input")
    return profile


def is_2_inducible(g: Digraph) -> bool:
    """Polynomial test for 2-voter inducibility.

    Holds exactly when g is transitive and its incomparability graph has a
    transitive orientation: the two voters agree on every arc and are
    opposed on a transitive reorientation of the incomparable pairs.
    """
    return two_voter_orders(g) is not None


_TWO_PARTITION_ARC_CAP = 21


def two_partition_check_3(t: Digraph) -> tuple[Digraph, Digraph] | None:
    """Exhaustive 3-inducibility test for small tournaments.

    Scans all 2-partitions E = E1 ∪ E2 of the arc set for one where E1 is
    transitive while E2 is acyclic and its underlying edge set has a
    transitive orientation; such a split exists iff the tournament is
    3-inducible.  Returns one valid split, or None.  Capped at 21 arcs
    (7 vertices) since the scan is exponential in the arc count.
    """
    if not t.is_tournament():
        raise ValueError("two-partition scan requires a tournament")
    arcs = t.arcs()
    if len(arcs) > _TWO_PARTITION_ARC_CAP:
        raise ValueError(
            "arc count %d exceeds the 2^|E| scan cap of %d"
            % (len(arcs), _TWO_PARTITION_ARC_CAP)
        )
    n = t.n
    for size in range(len(arcs), -1, -1):
        for keep in itertools.combinations(arcs, size):
            rows1 = [0] * n
            for u, v in keep:
                rows1[u] |= 1 << v
            e1 = Digraph(n, tuple(rows1))
            if not e1.is_transitive():
                continue
            e2 = Digraph(
                n, tuple(row & ~row1 for row, row1 in zip(t.rows, rows1))
            )
            if not e2.is_acyclic():
                continue
            underlying = tuple(
                row | into for row, into in zip(e2.rows, e2.in_masks())
            )
            if transitive_orientation(UndirectedGraph(n, underlying)) is None:
                continue
            return e1, e2
    return None


def dimension(
    g: Digraph,
    max_k: int = 9,
    timeout: float | None = None,
) -> DimensionResult:
    """Compute the majority dimension of g, searching k <= max_k.

    Fast paths handle k = 1 (transitive tournament) and k = 2 (the
    polynomial characterization).  A composite tournament, one whose
    ``decompose`` blocks are not all single vertices, recurses on its
    components and summary and takes the maximum, stitching the
    sub-witnesses back together by substitution; other digraphs go to the
    solver at each higher parity-legal k in ascending order.  Exhausting
    max_k yields an unknown result, not an error: the dimension may simply
    be larger.
    """
    if max_k < 1:
        raise ValueError("max_k must be at least 1")
    tournament = g.is_tournament()
    if tournament and g.is_transitive():
        order = tuple(g.topological_order())
        return DimensionResult(1, "fast_path_1", Profile(g.n, (order,)))
    if not tournament:
        if max_k < 2:
            return DimensionResult(None, None, None, max_k=max_k)
        orders = two_voter_orders(g)
        if orders is not None:
            witness = Profile.of(g.n, *orders)
            if not induces(witness, g):
                raise ModelInconsistencyError("2-voter witness does not induce input")
            return DimensionResult(2, "fast_path_2", witness)
        start = 4
    else:
        parts = decompose(g)
        if len(parts.components) < g.n:
            return _decomposition_dimension(g, parts, max_k, timeout)
        start = 3
    for k in range(start, max_k + 1, 2):
        witness = check_k_majority(g, k, timeout=timeout)
        if witness is not None:
            return DimensionResult(k, "sat", witness)
    return DimensionResult(None, None, None, max_k=max_k)


def _decomposition_dimension(
    g: Digraph, parts, max_k: int, timeout: float | None
) -> DimensionResult:
    pieces = [g.induced(c) for c in parts.components] + [parts.summary]
    results = [dimension(piece, max_k, timeout=timeout) for piece in pieces]
    if any(not r.is_known for r in results):
        return DimensionResult(None, None, None, max_k=max_k)
    dim = max(r.dim for r in results)
    padded = [_pad_with_opposed_pairs(r.witness, dim) for r in results]
    summary_profile = padded[-1]
    component_profiles = padded[:-1]
    voters = []
    for j in range(dim):
        order: list[int] = []
        for ci in summary_profile.voters[j]:
            vertices = parts.components[ci]
            order.extend(
                vertices[idx] for idx in component_profiles[ci].voters[j]
            )
        voters.append(tuple(order))
    witness = Profile(g.n, tuple(voters))
    if not induces(witness, g):
        raise ModelInconsistencyError("assembled decomposition witness fails")
    return DimensionResult(dim, "decomposition", witness)


def _pad_with_opposed_pairs(p: Profile, k: int) -> Profile:
    """Extend p to k voters by margin-neutral opposed pairs."""
    if (k - p.k) % 2:
        raise ValueError("padding would change voter parity")
    forward = tuple(range(p.n))
    backward = tuple(reversed(forward))
    extra = (forward, backward) * ((k - p.k) // 2)
    return Profile(p.n, p.voters + extra)


_MIN_FAS_VERTEX_CAP = 16


def min_fas_size(g: Digraph) -> int:
    """Minimum number of arcs to delete (or reverse) to make g acyclic.

    Dynamic program over vertex subsets: build an ordering left to right,
    paying for arcs from the new vertex back into the placed set.  Capped at
    16 vertices (2^n states).
    """
    n = g.n
    if n > _MIN_FAS_VERTEX_CAP:
        raise ValueError(
            "vertex count %d exceeds the subset DP cap of %d"
            % (n, _MIN_FAS_VERTEX_CAP)
        )
    rows = g.rows
    inf = float("inf")
    dp = [inf] * (1 << n)
    dp[0] = 0
    for state in range(1 << n):
        base = dp[state]
        if base is inf:
            continue
        for v in range(n):
            if state >> v & 1:
                continue
            cost = base + bin(rows[v] & state).count("1")
            nxt = state | 1 << v
            if cost < dp[nxt]:
                dp[nxt] = cost
    return int(dp[-1])
