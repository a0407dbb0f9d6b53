"""Unlabeled tournament enumeration and the inducibility census."""

import pytest

from majdim import (
    CLASS_COUNTS,
    enumerate_tournaments,
    run_census,
)
from majdim.census import CSV_HEADER, CensusRow
from majdim.digraph import Digraph, canonical_form

from conftest import reference_enumerate_tournaments


@pytest.mark.parametrize(
    "n,count", [(1, 1), (2, 1), (3, 2), (4, 4), (5, 12), (6, 56), (7, 456)]
)
def test_enumeration_counts(n, count):
    ts = list(enumerate_tournaments(n))
    assert len(ts) == count
    assert CLASS_COUNTS[n - 1] == count


@pytest.mark.parametrize("n", range(1, 8))
def test_enumeration_reaches_the_classes_of_unpruned_extension(n):
    found = {canonical_form(t) for t in enumerate_tournaments(n)}
    reference = {canonical_form(t) for t in reference_enumerate_tournaments(n)}
    assert found == reference


def test_enumeration_yields_distinct_tournaments():
    ts = list(enumerate_tournaments(5))
    keys = {canonical_form(t) for t in ts}
    assert len(keys) == len(ts)
    assert all(t.is_tournament() and t.n == 5 for t in ts)


def _decode(key):
    """Tournament from a key: for v = 1..n-1 and i < v, bit 1 means i -> v."""
    n = 1
    while n * (n - 1) // 2 < len(key):
        n += 1
    bits = iter(key)
    arcs = [
        (i, v) if next(bits) == "1" else (v, i)
        for v in range(1, n)
        for i in range(v)
    ]
    return Digraph.from_arcs(n, arcs)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_canonical_keys_decode_to_their_class(n):
    for t in enumerate_tournaments(n):
        key = canonical_form(t)
        assert len(key) == n * (n - 1) // 2
        assert canonical_form(_decode(key)) == key


def test_enumeration_rejects_oversized():
    with pytest.raises(ValueError):
        list(enumerate_tournaments(9))


def test_census_small_all_inducible():
    summary, rows = run_census(5, 3)
    assert summary == {"inducible": 12, "not_inducible": 0, "failures": []}
    assert len(rows) == 12
    assert all(r.inducible for r in rows)
    assert all(r.n == 5 and r.k == 3 for r in rows)
    assert len({r.canonical_key for r in rows}) == 12


def test_census_rows_serialize():
    row = CensusRow(
        canonical_key="0101", n=4, k=3, inducible=True, method="sat", seconds=0.5
    )
    line = row.as_csv()
    assert line.split(",") == ["0101", "4", "3", "true", "sat", "0.500"]
    assert CSV_HEADER.count(",") == line.count(",")


def test_census_parallel_matches_serial():
    s1, rows1 = run_census(4, 3, jobs=1)
    s2, rows2 = run_census(4, 3, jobs=2)
    assert s1 == s2
    assert [r.canonical_key for r in rows1] == [r.canonical_key for r in rows2]
    assert [r.inducible for r in rows1] == [r.inducible for r in rows2]


def test_census_dimension_summary():
    out = run_census(4, 3)[0]
    assert out == {"inducible": 4, "not_inducible": 0, "failures": []}
