"""CNF formulas and DIMACS serialization (signed-integer literal convention).

``to_dimacs`` writes a fixed text: the ``p cnf V C`` line, then one line
per clause in the formula's order, its literals in clause order as
``str(lit)`` separated by single spaces and closed by `` 0``, every line
ending in a newline.  The bundled solver's search is a deterministic
function of this text, so the writer keeps it byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CnfFormula:
    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.num_vars < 0:
            raise ValueError("negative variable count %d" % self.num_vars)
        # Tautological clauses are tolerated: the faithful encoding mode
        # instantiates its quantifiers over full ranges, and the degenerate
        # instances are part of its advertised clause count.
        for clause in self.clauses:
            if not clause:
                raise ValueError("empty clause")
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError("literal %d out of range" % lit)

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


def to_dimacs(f: CnfFormula) -> str:
    # one format string per clause length, whose %s writes str(lit);
    # tuple() lets a clause given as a list fill it too
    formats: dict[int, str] = {}
    lines = ["p cnf %d %d\n" % (f.num_vars, len(f.clauses))]
    for clause in f.clauses:
        fmt = formats.get(len(clause))
        if fmt is None:
            fmt = formats[len(clause)] = "%s " * len(clause) + "0\n"
        lines.append(fmt % tuple(clause))
    return "".join(lines)


def from_dimacs(text: str) -> CnfFormula:
    header = None
    clauses: list[tuple[int, ...]] = []
    pending: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError("malformed problem line: %r" % line)
            if header is not None:
                raise ValueError("second problem line: %r" % line)
            header = int(parts[2]), int(parts[3])
            continue
        if header is None:
            raise ValueError("clause before the 'p cnf' header")
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                clauses.append(tuple(pending))
                pending = []
            else:
                pending.append(lit)
    if header is None:
        raise ValueError("missing 'p cnf' header")
    if pending:
        raise ValueError("unterminated clause at end of file")
    num_vars, declared = header
    if declared != len(clauses):
        raise ValueError(
            "header declares %d clauses, found %d" % (declared, len(clauses))
        )
    return CnfFormula(num_vars, tuple(clauses))
