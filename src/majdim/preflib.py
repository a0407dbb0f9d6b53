"""Ingestion of PrefLib-style election files.

Two grammars are supported, both with the legacy count-prefixed layout:

    <n>                      number of alternatives
    <id>,<label>             n lines, ids 1..n in order
    <voters>,<voters>,<rows> totals line
    ...                      <rows> body lines

Strict-complete-order files (any extension except .wmg) carry body lines

    <count>: <a_1>,<a_2>,...,<a_n>     (a ',' after the count also works)

where each ranking is a permutation of 1..n and <count> voters hold it.
Weighted-majority-graph files (extension .wmg) carry body lines

    <count>,<u>,<v>

meaning <count> voters prefer u to v; the parsed result is the weighted
digraph of margins count(u,v) - count(v,u).  Ties, partial orders, and
repeated alternatives are rejected.  All errors carry 1-based line
numbers.  Alternative ids are shifted down by one internally, so vertex
i corresponds to file id i+1.
"""

from __future__ import annotations

from pathlib import Path

from .digraph import WeightedDigraph
from .profiles import LinearOrder, Profile


class PrefLibError(ValueError):
    """Malformed PrefLib input; message carries the offending line."""


def _fail(lineno: int, message: str):
    raise PrefLibError("line %d: %s" % (lineno, message))


def _int(tok: str, lineno: int, what: str) -> int:
    try:
        return int(tok.strip())
    except ValueError:
        _fail(lineno, "%s is not an integer: %r" % (what, tok.strip()))


def _header(lines: list[str]) -> tuple[int, int, int, int]:
    """Parse the common header; returns (n, voters, rows, body_start)."""
    if not lines:
        raise PrefLibError("line 1: empty file")
    n = _int(lines[0], 1, "alternative count")
    if n < 1:
        _fail(1, "alternative count must be positive")
    if len(lines) < n + 2:
        _fail(len(lines), "file ends inside the alternative list")
    for i in range(1, n + 1):
        lineno = i + 1
        parts = lines[i].split(",", 1)
        if len(parts) != 2:
            _fail(lineno, "alternative lines need '<id>,<label>'")
        if _int(parts[0], lineno, "alternative id") != i:
            _fail(lineno, "alternative ids must run 1..%d in order" % n)
    totals_line = n + 2
    totals = lines[n + 1].split(",")
    if len(totals) != 3:
        _fail(totals_line, "totals line needs '<voters>,<voters>,<rows>'")
    voters = _int(totals[0], totals_line, "voter count")
    rows = _int(totals[2], totals_line, "row count")
    return n, voters, rows, n + 2


def _body_lines(raw: str) -> list[str]:
    """The file's lines, less the blank lines it may end with."""
    lines = raw.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    return lines


def parse_preflib_orders(text: str) -> Profile:
    """Parse a strict-complete-order file into a Profile."""
    lines = _body_lines(text)
    n, voters, rows, start = _header(lines)
    body = lines[start:]
    if len(body) != rows:
        _fail(len(lines), "expected %d ranking rows, found %d" % (rows, len(body)))
    ballots: list[LinearOrder] = []
    for offset, line in enumerate(body):
        lineno = start + offset + 1
        if "{" in line or "}" in line:
            _fail(lineno, "ties are not supported; orders must be strict")
        if ":" in line:
            head, _, tail = line.partition(":")
        else:
            head, _, tail = line.partition(",")
        count = _int(head, lineno, "ballot count")
        if count < 1:
            _fail(lineno, "ballot count must be positive")
        toks = [t for t in tail.split(",") if t.strip()]
        ranking = [_int(t, lineno, "alternative") for t in toks]
        if len(ranking) != n:
            _fail(
                lineno,
                "incomplete order: %d of %d alternatives" % (len(ranking), n),
            )
        if sorted(ranking) != list(range(1, n + 1)):
            _fail(lineno, "order is not a permutation of 1..%d" % n)
        ballots.extend((tuple(a - 1 for a in ranking),) * count)
    if len(ballots) != voters:
        _fail(
            n + 2,
            "totals line declares %d voters, rows sum to %d"
            % (voters, len(ballots)),
        )
    return Profile(n, tuple(ballots))


def parse_preflib_wmg(text: str) -> WeightedDigraph:
    """Parse a weighted-majority-graph file into margin form."""
    lines = _body_lines(text)
    n, _voters, rows, start = _header(lines)
    body = lines[start:]
    if len(body) != rows:
        _fail(len(lines), "expected %d pair rows, found %d" % (rows, len(body)))
    counts: dict[tuple[int, int], int] = {}
    for offset, line in enumerate(body):
        lineno = start + offset + 1
        toks = line.split(",")
        if len(toks) != 3:
            _fail(lineno, "pair lines need '<count>,<u>,<v>'")
        count = _int(toks[0], lineno, "pair count")
        u = _int(toks[1], lineno, "alternative")
        v = _int(toks[2], lineno, "alternative")
        if count < 0:
            _fail(lineno, "pair count must be nonnegative")
        for a in (u, v):
            if not 1 <= a <= n:
                _fail(lineno, "alternative %d out of range 1..%d" % (a, n))
        if u == v:
            _fail(lineno, "pair compares an alternative with itself")
        if (u, v) in counts:
            _fail(lineno, "duplicate pair %d,%d" % (u, v))
        counts[(u, v)] = count
    margins: dict[tuple[int, int], int] = {}
    for (u, v), c in counts.items():
        margin = c - counts.get((v, u), 0)
        if margin > 0:
            margins[(u - 1, v - 1)] = margin
    return WeightedDigraph.from_pairs(n, margins)


def parse_preflib(path: str | Path) -> Profile | WeightedDigraph:
    """Parse ``path``; .wmg files yield margins, all others profiles."""
    path = Path(path)
    text = path.read_text()
    if path.suffix == ".wmg":
        return parse_preflib_wmg(text)
    return parse_preflib_orders(text)


def _header_text(n: int, voters: int, rows: int) -> list[str]:
    lines = ["%d" % n]
    lines += ["%d,a%d" % (i, i) for i in range(1, n + 1)]
    lines.append("%d,%d,%d" % (voters, voters, rows))
    return lines


def serialize_preflib_orders(p: Profile) -> str:
    """Render a Profile with adjacent equal ballots run-length merged."""
    groups: list[tuple[LinearOrder, int]] = []
    for order in p.voters:
        if groups and groups[-1][0] == order:
            groups[-1] = (order, groups[-1][1] + 1)
        else:
            groups.append((order, 1))
    lines = _header_text(p.n, p.k, len(groups))
    for order, count in groups:
        lines.append(
            "%d: %s" % (count, ",".join(str(a + 1) for a in order))
        )
    return "\n".join(lines) + "\n"


def serialize_preflib_wmg(g: WeightedDigraph, voters: int | None = None) -> str:
    """Render margins as one-sided pair counts."""
    pos = g.positive_arcs()
    if voters is None:
        voters = max((w for _, _, w in pos), default=0)
    lines = _header_text(g.n, voters, len(pos))
    for u, v, w in pos:
        lines.append("%d,%d,%d" % (w, u + 1, v + 1))
    return "\n".join(lines) + "\n"
