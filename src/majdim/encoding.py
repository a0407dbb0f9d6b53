"""CNF encodings of the k-voter inducibility decision problem.

Given a digraph G and a voter count k, build a propositional formula that is
satisfiable iff some k-voter profile of linear orders has majority digraph
exactly G.  Two modes are provided:

``paper_faithful``
    One variable r_{i,a,b} per voter and ordered vertex pair, including the
    diagonal.  Linear-order axioms are instantiated over their full index
    ranges (the transitivity scheme over all n^3 ordered triples, degenerate
    instances included), majority and indifference thresholds are encoded as
    disjunctions over voter subsets with one auxiliary variable per subset
    and pair slot.  Formula sizes follow closed forms and are checked by the
    test suite; this mode is the oracle.

``optimized``
    Antisymmetry and completeness are folded into the literal structure,
    r_{i,b,a} = -r_{i,a,b}, so each voter contributes C(n,2) primary
    variables.  Transitivity needs only the two cycle-forbidding clauses per
    unordered triple, and subset auxiliaries are allocated lazily.  This mode
    is the workhorse for search.

Either way the preference literals are numbered once, in the table of a
:class:`VarMap`: ``lits[i][a * n + b]`` is true exactly when voter i ranks a
above b.  The encoders write their clauses from that table, auxiliaries
take the variables after it, and ``decode_model`` reads models back through
it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .cnf import CnfFormula
from .digraph import Digraph, incomparability_graph, linear_order
from .profiles import Profile, majority_threshold

MODES = ("paper_faithful", "optimized")


class ParityError(ValueError):
    """Voter count has the wrong parity for the digraph's completeness."""


class ModelInconsistencyError(RuntimeError):
    """A model violates the linear-order axioms it was meant to satisfy.

    Raised by :func:`decode_model`; indicates an encoder or solver bug, not
    bad user input.
    """


def _check_parity(g: Digraph, k: int) -> None:
    if k < 1:
        raise ValueError("voter count must be positive, got %d" % k)
    if g.is_tournament():
        if k % 2 == 0:
            raise ParityError(
                "a tournament needs an odd number of voters, got k=%d" % k
            )
    elif k % 2 == 1:
        raise ParityError(
            "an incomplete digraph needs an even number of voters, got k=%d" % k
        )


@dataclass(frozen=True)
class VarMap:
    """Mapping between DIMACS variables and preference statements.

    ``lits[i][a * n + b]`` is the literal that is true exactly when voter i
    ranks a above b.  Faithful mode numbers every ordered pair of each voter
    in turn, diagonal included: 1 + i n^2 + a n + b.  Optimized mode numbers
    only the pairs a < b, in lexicographic order, so (a, b) gets
    1 + i C(n,2) + its rank; (b, a) holds the negation and the diagonal 0.
    """

    n: int
    k: int
    lits: tuple[tuple[int, ...], ...]

    def preference_literal(self, voter: int, a: int, b: int) -> int:
        n = self.n
        if not (0 <= voter < self.k and 0 <= a < n and 0 <= b < n):
            raise ValueError("index out of range")
        lit = self.lits[voter][a * n + b]
        if not lit:
            raise ValueError("optimized mode has no diagonal variables")
        return lit


def _var_map(n: int, k: int, fresh, faithful: bool) -> VarMap:
    """Number the preference literals, drawing variables from ``fresh``."""
    lits = []
    for _ in range(k):
        row = [0] * (n * n)
        for a in range(n):
            for b in range(n) if faithful else range(a + 1, n):
                row[a * n + b] = var = next(fresh)
                if not faithful:
                    row[b * n + a] = -var
        lits.append(tuple(row))
    return VarMap(n, k, tuple(lits))


def _encode_faithful(g: Digraph, k: int) -> tuple[CnfFormula, VarMap]:
    n = g.n
    m = majority_threshold(k)
    subsets = list(itertools.combinations(range(k), m))
    slot = n * n
    fresh = itertools.count(1)
    vm = _var_map(n, k, fresh, faithful=True)
    maj_base = next(fresh)

    def s(mi: int, a: int, b: int) -> int:
        return maj_base + mi * slot + a * n + b

    clauses: list[tuple[int, ...]] = []
    for r in vm.lits:
        for x in range(n):
            clauses.append((r[x * n + x],))
        for x in range(n):
            for y in range(x + 1, n):
                clauses.append((r[x * n + y], r[y * n + x]))
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    clauses.append((-r[x * n + y], -r[y * n + z], r[x * n + z]))
        for x in range(n):
            for y in range(x + 1, n):
                clauses.append((-r[x * n + y], -r[y * n + x]))
    for x, y in g.arcs():
        clauses.append(tuple(s(mi, x, y) for mi in range(len(subsets))))
        for mi, subset in enumerate(subsets):
            for i in subset:
                clauses.append((-s(mi, x, y), vm.lits[i][x * n + y]))
    num_vars = maj_base - 1 + len(subsets) * slot
    if not g.is_tournament():
        half_subsets = list(itertools.combinations(range(k), k // 2))
        ind_base = 1 + num_vars

        def t(mi: int, a: int, b: int) -> int:
            return ind_base + mi * slot + a * n + b

        for x, y in incomparability_graph(g).edges():
            for a, b in ((x, y), (y, x)):
                clauses.append(
                    tuple(t(mi, a, b) for mi in range(len(half_subsets)))
                )
                for mi, subset in enumerate(half_subsets):
                    for i in subset:
                        clauses.append((-t(mi, a, b), vm.lits[i][a * n + b]))
        num_vars += len(half_subsets) * slot
    return CnfFormula(num_vars=num_vars, clauses=tuple(clauses)), vm


def _encode_optimized(g: Digraph, k: int) -> tuple[CnfFormula, VarMap]:
    n = g.n
    m = majority_threshold(k)
    fresh = itertools.count(1)
    vm = _var_map(n, k, fresh, faithful=False)

    clauses: list[tuple[int, ...]] = []
    for r in vm.lits:
        for x, y, z in itertools.combinations(range(n), 3):
            xy, yz, xz = r[x * n + y], r[y * n + z], r[x * n + z]
            clauses.append((-xy, -yz, xz))
            clauses.append((xy, yz, -xz))

    def at_least(count: int, a: int, b: int) -> None:
        aux = []
        for subset in itertools.combinations(range(k), count):
            sv = next(fresh)
            aux.append(sv)
            for i in subset:
                clauses.append((-sv, vm.lits[i][a * n + b]))
        clauses.append(tuple(aux))

    for x, y in g.arcs():
        at_least(m, x, y)
    if not g.is_tournament():
        for x, y in incomparability_graph(g).edges():
            at_least(k // 2, x, y)
            at_least(k // 2, y, x)

    num_vars = next(fresh) - 1
    return CnfFormula(num_vars=num_vars, clauses=tuple(clauses)), vm


def encode_check_k(
    g: Digraph, k: int, mode: str = "optimized"
) -> tuple[CnfFormula, VarMap]:
    """Encode "is g the majority digraph of some k-voter profile" as CNF.

    The formula is satisfiable iff such a profile exists; a model decodes to
    one via decode_model.  k must have the parity forced by g: odd for
    tournaments, even otherwise (a ParityError is raised if not, since no
    profile of the wrong parity can produce the required strict majorities
    and ties).
    """
    if mode not in MODES:
        raise ValueError("unknown mode %r" % (mode,))
    _check_parity(g, k)
    if mode == "paper_faithful":
        return _encode_faithful(g, k)
    return _encode_optimized(g, k)


def decode_model(model: dict[int, bool], vm: VarMap) -> Profile:
    """Read a satisfying assignment back into a k-voter profile.

    Validates that every voter's relation is a strict linear order; a
    violation means the encoder emitted a wrong formula or the solver
    returned a bogus model, so it raises ModelInconsistencyError rather
    than a user-facing error.
    """
    n = vm.n

    def holds(lit: int) -> bool:
        value = model.get(abs(lit), False)
        return value if lit > 0 else not value

    voters = []
    for i, r in enumerate(vm.lits):
        rows = [0] * n
        for a in range(n):
            for b in range(a + 1, n):
                ab, ba = holds(r[a * n + b]), holds(r[b * n + a])
                if ab == ba:
                    raise ModelInconsistencyError(
                        "voter %d ranks %d and %d inconsistently" % (i, a, b)
                    )
                if ab:
                    rows[a] |= 1 << b
                else:
                    rows[b] |= 1 << a
        order = linear_order(rows)
        if order is None:
            raise ModelInconsistencyError(
                "voter %d relation is not transitive" % i
            )
        voters.append(tuple(order))
    return Profile(n=n, voters=tuple(voters))
