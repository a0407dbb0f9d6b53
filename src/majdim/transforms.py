"""CNF normal-form reductions used by the hardness gadget compilers.

Two target fragments:

* Ordered3: every clause has exactly three distinct literals and, for every
  variable, all clauses containing it positively precede all clauses
  containing it negatively.
* ReducedFew: every literal occurs at most twice, every variable at most
  three times, every variable is in at most one three-literal clause, and
  every literal is in at most one two-literal clause.

Both reductions are satisfiability-preserving.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cnf import CnfFormula


@dataclass(frozen=True)
class ThreeCnf:
    """CNF with at most three distinct-variable literals per clause."""

    variables: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.variables < 0:
            raise ValueError("negative variable count %d" % self.variables)
        for clause in self.clauses:
            if not 1 <= len(clause) <= 3:
                raise ValueError("clauses must have 1..3 literals")
            vs = [abs(l) for l in clause]
            if len(set(vs)) != len(vs):
                raise ValueError("clause repeats a variable: %r" % (clause,))
            for lit in clause:
                if lit == 0 or abs(lit) > self.variables:
                    raise ValueError("literal %d out of range" % lit)

    @staticmethod
    def of(variables: int, clauses) -> "ThreeCnf":
        return ThreeCnf(variables, tuple(tuple(c) for c in clauses))

    @property
    def is_ordered(self) -> bool:
        if any(len(c) != 3 for c in self.clauses):
            return False
        last_pos: dict[int, int] = {}
        first_neg: dict[int, int] = {}
        for idx, clause in enumerate(self.clauses):
            for lit in clause:
                v = abs(lit)
                if lit > 0:
                    last_pos[v] = idx
                elif v not in first_neg:
                    first_neg[v] = idx
        return all(
            v not in first_neg or last_pos[v] < first_neg[v] for v in last_pos
        )

    @property
    def is_reduced_few(self) -> bool:
        lit_count: dict[int, int] = {}
        var_count: dict[int, int] = {}
        var_in_three: dict[int, int] = {}
        lit_in_two: dict[int, int] = {}
        for clause in self.clauses:
            for lit in clause:
                v = abs(lit)
                lit_count[lit] = lit_count.get(lit, 0) + 1
                var_count[v] = var_count.get(v, 0) + 1
                if len(clause) == 3:
                    var_in_three[v] = var_in_three.get(v, 0) + 1
                if len(clause) == 2:
                    lit_in_two[lit] = lit_in_two.get(lit, 0) + 1
        return (
            all(c <= 2 for c in lit_count.values())
            and all(c <= 3 for c in var_count.values())
            and all(c <= 1 for c in var_in_three.values())
            and all(c <= 1 for c in lit_in_two.values())
        )

    def to_cnf(self) -> CnfFormula:
        return CnfFormula(self.variables, self.clauses)


def _unit_propagate(clauses):
    """Fixpoint unit propagation.

    Returns (residual_clauses, status) with status one of "open" (residual
    clauses all have >= 2 literals), "sat" (everything satisfied), "unsat"
    (a clause was falsified).
    """
    work = [tuple(c) for c in clauses]
    assign: dict[int, bool] = {}
    while True:
        residual = []
        units = []
        for clause in work:
            keep = []
            satisfied = False
            for lit in clause:
                val = assign.get(abs(lit))
                if val is None:
                    keep.append(lit)
                elif val == (lit > 0):
                    satisfied = True
                    break
            if satisfied:
                continue
            if not keep:
                return [], "unsat"
            if len(keep) == 1:
                units.append(keep[0])
            residual.append(tuple(keep))
        if not units:
            if not residual:
                return [], "sat"
            return residual, "open"
        for lit in units:
            want = lit > 0
            old = assign.get(abs(lit))
            if old is None:
                assign[abs(lit)] = want
            elif old != want:
                return [], "unsat"
        work = residual


# A fixed contradictory 3-CNF over two variables, each 2-clause padded with
# a fresh variable.  Substituted when preprocessing proves the input
# unsatisfiable, so the transforms still emit a genuine instance.
def _canned_unsat() -> list[tuple[int, int, int]]:
    base = [(1, 2), (1, -2), (-1, 2), (-1, -2)]
    out = []
    for idx, (a, b) in enumerate(base):
        x = 3 + idx
        out.append((a, b, x))
        out.append((a, b, -x))
    return out


def _preprocess(f: ThreeCnf):
    """Unit simplification, 2-clause padding, in-clause variable sort.

    Returns (clauses, num_vars) where every clause has exactly three
    literals sorted by variable index.
    """
    residual, status = _unit_propagate(f.clauses)
    if status == "sat":
        return [], f.variables
    if status == "unsat":
        residual, num_vars = _canned_unsat(), 6
    else:
        num_vars = f.variables
    padded = []
    for clause in residual:
        if len(clause) == 2:
            num_vars += 1
            padded.append(clause + (num_vars,))
            padded.append(clause + (-num_vars,))
        else:
            padded.append(clause)
    return [tuple(sorted(c, key=abs)) for c in padded], num_vars


def to_ordered3(f: ThreeCnf) -> ThreeCnf:
    """Equisatisfiable Ordered3 formula: six clauses and four fresh
    variables per preprocessed clause.

    For clause (l1 | l2 | l3) with fresh x, x', y, z:
        (l1 | x | x')  (l2 | ~x | y)  (l2 | ~x' | y)
        (l3 | ~y | z)  (~x | ~y | ~z)  (~x' | ~y | ~z)
    If l1, l2, l3 are all false the first four force x|x', then y, then z,
    contradicting the last two; any true li extends to the new variables.
    Clauses are emitted grouped per original variable (positive block before
    negative block), which together with the in-clause variable sort makes
    every variable ordered.
    """
    clauses, num_vars = _preprocess(f)
    # one sort on (|carried literal|, negated, j, clause index); c1..c4
    # carry their first literal, the literal-free tails c5, c6 carry
    # num_vars + 1, so they come last, all c5 before all c6
    keyed = []
    n, tail = num_vars, num_vars + 1
    for ci, (l1, l2, l3) in enumerate(clauses):
        x, xp, y, z = n + 1, n + 2, n + 3, n + 4
        n += 4
        rows = (
            (l1, x, xp), (l2, -x, y), (l2, -xp, y), (l3, -y, z),
            (-x, -y, -z), (-xp, -y, -z),
        )
        for j, row in enumerate(rows):
            carried = row[0] if j < 4 else tail
            key = (abs(carried), carried < 0, j, ci)
            keyed.append((key, tuple(sorted(row, key=abs))))
    keyed.sort()
    return ThreeCnf(n, tuple(row for _, row in keyed))


def to_reducedfew(f: ThreeCnf) -> ThreeCnf:
    """Equisatisfiable ReducedFew formula.

    The L occurrences of each variable v become fresh copies v_1..v_L
    (keeping each occurrence's sign) and the implication cycle
    (~v_L | v_1), (~v_1 | v_2), ..., (~v_{L-1} | v_L) forces all copies to
    one value.  Single-occurrence variables get no cycle clauses.
    """
    clauses, _ = _preprocess(f)
    next_var = 0
    copies: dict[int, list[int]] = {}
    renamed = []
    for clause in clauses:
        lits = []
        for lit in clause:
            next_var += 1
            copies.setdefault(abs(lit), []).append(next_var)
            lits.append(next_var if lit > 0 else -next_var)
        renamed.append(tuple(lits))
    cycles: list[tuple[int, int]] = []
    for v in sorted(copies):
        chain = copies[v]
        if len(chain) < 2:
            continue
        cycles.append((-chain[-1], chain[0]))
        for a, b in zip(chain, chain[1:]):
            cycles.append((-a, b))
    return ThreeCnf(next_var, tuple(renamed + cycles))


def brute_force_sat(f: ThreeCnf | CnfFormula, max_vars: int = 22) -> bool:
    """Exhaustive truth-table satisfiability oracle (small formulas only)."""
    nv = f.variables if isinstance(f, ThreeCnf) else f.num_vars
    if nv > max_vars:
        raise ValueError("too many variables for the truth-table oracle")
    masks = []
    for clause in f.clauses:
        pos = neg = 0
        for lit in clause:
            if lit > 0:
                pos |= 1 << (lit - 1)
            else:
                neg |= 1 << (-lit - 1)
        masks.append((pos, neg))
    for a in range(1 << nv):
        if all(a & pos or neg & ~a for pos, neg in masks):
            return True
    return False


def random_three_cnf(rng, num_vars: int, num_clauses: int, exactly_three=True) -> ThreeCnf:
    """Random test formula; clause width 3 (or 1..3 when exactly_three=False)."""
    clauses = []
    for _ in range(num_clauses):
        width = 3 if exactly_three else rng.choice([1, 2, 3])
        width = min(width, num_vars)
        vs = rng.sample(range(1, num_vars + 1), width)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return ThreeCnf.of(num_vars, clauses)
