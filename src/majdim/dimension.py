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

from dataclasses import dataclass

from .digraph import Digraph, decompose, linear_order
# bench/tracing.py wraps transitive_orientation here by name; keep the import
from .digraph import transitive_orientation  # noqa: F401
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
    profile = decode_model(result.model, vm)
    if not induces(profile, g):
        raise ModelInconsistencyError("decoded profile does not induce input")
    return profile


_TWO_PARTITION_CAP = 8


def two_partition_check_3(t: Digraph) -> tuple[Digraph, Digraph] | None:
    """SAT-free 3-inducibility test for tournaments of at most 8 vertices.

    A tournament is 3-inducible iff its arcs split as E1 ∪ E2 with E1
    2-inducible (``two_voter_orders``) and E2 acyclic.  Backtracking puts
    each arc into E1, then into E2, and cuts a branch once E1 holds
    u -> v -> w while u -> w is no arc or lies in E2, or once E2 gains a
    cycle.  Every cyclic triangle puts exactly one arc into E1, so the arcs
    lying on the most cyclic triangles go first, where their conflicts
    cut the largest subtrees.  Returns one valid split, or None.
    """
    if not t.is_tournament():
        raise ValueError("two-partition search requires a tournament")
    n = t.n
    if n > _TWO_PARTITION_CAP:
        raise ValueError(
            "n=%d above the two-partition cap (%d)" % (n, _TWO_PARTITION_CAP)
        )
    rows, ins = t.rows, t.in_masks()
    # u -> v lies on one cyclic triangle u -> v -> w -> u per such w
    arcs = sorted(t.arcs(), key=lambda a: -(rows[a[1]] & ins[a[0]]).bit_count())
    e1, in1, e2, in2 = ([0] * n for _ in range(4))

    def place(i: int, reach2: tuple) -> tuple[Digraph, Digraph] | None:
        if i == len(arcs):
            g1 = Digraph(n, tuple(e1))
            return (g1, Digraph(n, tuple(e2))) if two_voter_orders(g1) else None
        u, v = arcs[i]
        bu, bv = 1 << u, 1 << v
        # E1 closes u -> v -> w and w -> u -> v only with arcs E2 has not taken
        if not (e1[v] & ~(rows[u] & ~e2[u]) or in1[u] & ~(ins[v] & ~in2[v])):
            e1[u] |= bv
            in1[v] |= bu
            split = place(i + 1, reach2)
            e1[u] ^= bv
            in1[v] ^= bu
            if split:
                return split
        if reach2[v] & bu:  # v reaches u in E2: u -> v would close a cycle
            return None
        e2[u] |= bv
        in2[v] |= bu
        below = reach2[v] | bv
        split = place(i + 1, tuple(
            r | below if r & bu or x == u else r for x, r in enumerate(reach2)
        ))
        e2[u] ^= bv
        in2[v] ^= bu
        return split

    return place(0, (0,) * n)


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
    order = linear_order(g.rows)
    if order is not None:
        return DimensionResult(1, "fast_path_1", Profile(g.n, (tuple(order),)))
    tournament = g.is_tournament()
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
