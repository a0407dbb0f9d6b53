"""Exhaustive enumeration of small tournaments and dimension censuses.

Unlabeled tournaments are generated level by level: every kept
(n-1)-vertex tournament is extended by one new vertex in all 2^(n-1)
ways, and a child is kept exactly when its ``canonical_form`` is not yet
in the set of forms seen at that level.  ``canonical_form`` labels a
tournament by colour refinement plus individualization, so most
candidates cost one refinement and a single vertex order.  Dimension
censuses then run a bounded inducibility check per class, re-verifying
every negative answer with a second, independently encoded solver run.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator

from .digraph import Digraph, canonical_form
from .dimension import SolverTimeout, check_k_majority

ENUMERATION_CAP = 8

# Number of isomorphism classes of tournaments on 1..8 vertices.
CLASS_COUNTS = (1, 1, 2, 4, 12, 56, 456, 6880)


def _extend(t: Digraph, pattern: int) -> Digraph:
    """Add vertex t.n; bit u of ``pattern`` set means arc u -> t.n."""
    v = t.n
    rows = list(t.rows)
    new_row = 0
    for u in range(v):
        if pattern >> u & 1:
            rows[u] |= 1 << v
        else:
            new_row |= 1 << u
    rows.append(new_row)
    return Digraph(v + 1, tuple(rows))


def enumerate_tournaments(n: int) -> Iterator[Digraph]:
    """Yield one representative per isomorphism class of n-tournaments."""
    if not 1 <= n <= ENUMERATION_CAP:
        raise ValueError(
            "n must be between 1 and %d, got %d" % (ENUMERATION_CAP, n)
        )
    level = [Digraph(1, (0,))]
    for m in range(2, n + 1):
        seen: set[str] = set()
        nxt = []
        for parent in level:
            for pattern in range(1 << (m - 1)):
                child = _extend(parent, pattern)
                key = canonical_form(child)
                if key not in seen:
                    seen.add(key)
                    nxt.append(child)
        level = nxt
    yield from level


@dataclass(frozen=True)
class CensusRow:
    """Per-class outcome of a census run."""

    canonical_key: str
    n: int
    k: int
    inducible: bool | None
    method: str
    seconds: float

    def as_csv(self) -> str:
        verdict = "" if self.inducible is None else str(self.inducible).lower()
        return "%s,%d,%d,%s,%s,%.3f" % (
            self.canonical_key,
            self.n,
            self.k,
            verdict,
            self.method,
            self.seconds,
        )


CSV_HEADER = "canonical_key,n,k,inducible,method,seconds"


def _check_instance(
    t: Digraph, k: int, timeout: float | None
) -> tuple[bool | None, str, float]:
    """Bounded inducibility check with an independent recheck on no.

    The primary run uses the optimized encoding; a negative answer is
    confirmed with the direct-transcription encoding so that a bug in
    either encoder cannot silently misclassify a class.
    """
    start = time.monotonic()
    try:
        witness = check_k_majority(t, k, mode="optimized", timeout=timeout)
        if witness is not None:
            return True, "sat", time.monotonic() - start
        recheck = check_k_majority(t, k, mode="paper_faithful", timeout=timeout)
        if recheck is not None:
            raise RuntimeError(
                "encoder disagreement on class %s" % canonical_form(t)
            )
        return False, "sat+recheck", time.monotonic() - start
    except SolverTimeout:
        return None, "timeout", time.monotonic() - start


def run_census(
    n: int,
    k: int,
    jobs: int = 1,
    timeout: float | None = None,
) -> tuple[dict, list[CensusRow]]:
    """Census every n-vertex tournament class for k-inducibility.

    Returns the aggregate dict {inducible, not_inducible, failures} and
    the per-class rows.  Instances are distributed over ``jobs`` worker
    threads.  They overlap only while a solve runs in a child process
    (``MAJDIM_SAT_SOLVER`` set, or a formula above ``IN_PROCESS_CLAUSES``
    clauses): an in-process search of a census formula is short beside the
    encoding and decoding around it, which hold the GIL.  The aggregate is
    deterministic regardless of the schedule because rows are collected
    in enumeration order.
    """
    instances = list(enumerate_tournaments(n))
    keys = [canonical_form(t) for t in instances]

    def work(t: Digraph) -> tuple[bool | None, str, float]:
        return _check_instance(t, k, timeout)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(work, instances))
    else:
        outcomes = [work(t) for t in instances]

    rows = [
        CensusRow(key, n, k, verdict, method, secs)
        for key, (verdict, method, secs) in zip(keys, outcomes)
    ]
    summary = {
        "inducible": sum(1 for r in rows if r.inducible is True),
        "not_inducible": sum(1 for r in rows if r.inducible is False),
        "failures": [r.canonical_key for r in rows if r.inducible is None],
    }
    return summary, rows
