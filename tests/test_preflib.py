"""Election-file ingestion: strict-order and weighted-majority grammars."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from majdim import (
    PrefLibError,
    Profile,
    WeightedDigraph,
    parse_preflib,
    parse_preflib_orders,
    parse_preflib_wmg,
    serialize_preflib_orders,
    serialize_preflib_wmg,
)

ORDERS = """3
1,Alpha
2,Beta
3,Gamma
3,3,2
2: 1,2,3
1: 3,2,1
"""

WMG = """3
1,a
2,b
3,c
3,3,2
3,1,2
2,2,3
"""


def test_orders_expand_multiplicities():
    p = parse_preflib_orders(ORDERS)
    assert p == Profile(3, ((0, 1, 2), (0, 1, 2), (2, 1, 0)))


def test_orders_accept_comma_only_rows():
    text = ORDERS.replace("2: 1,2,3", "2,1,2,3").replace("1: 3,2,1", "1,3,2,1")
    assert parse_preflib_orders(text) == parse_preflib_orders(ORDERS)


def test_wmg_margins():
    w = parse_preflib_wmg(WMG)
    assert isinstance(w, WeightedDigraph)
    assert w.weight(0, 1) == 3
    assert w.weight(1, 2) == 2
    assert w.weight(0, 2) == 0


def test_wmg_opposed_counts_cancel():
    text = WMG.replace("3,1,2", "2,1,2").replace("2,2,3", "2,2,1")
    w = parse_preflib_wmg(text)
    assert w.weight(0, 1) == 0  # 2 each way
    assert w.positive_arcs() == []


def test_orders_round_trip():
    p = parse_preflib_orders(ORDERS)
    assert parse_preflib_orders(serialize_preflib_orders(p)) == p


def test_round_trip_keeps_interleaved_duplicates():
    p = Profile(3, ((0, 1, 2), (2, 1, 0), (0, 1, 2)))
    # only adjacent runs merge, so voter order survives exactly
    assert parse_preflib_orders(serialize_preflib_orders(p)) == p


def test_wmg_round_trip():
    w = parse_preflib_wmg(WMG)
    assert parse_preflib_wmg(serialize_preflib_wmg(w, voters=3)) == w


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_random_profile_round_trip(r):
    n = r.randrange(1, 7)
    voters = []
    for _ in range(r.randrange(1, 8)):
        order = list(range(n))
        r.shuffle(order)
        voters.append(tuple(order))
    p = Profile(n, tuple(voters))
    assert parse_preflib_orders(serialize_preflib_orders(p)) == p


def test_truncated_ranking_reports_line():
    broken = ORDERS.replace("1: 3,2,1", "1: 3,2")
    with pytest.raises(PrefLibError, match="line 7"):
        parse_preflib_orders(broken)


def test_bad_voter_total_reports_line():
    broken = ORDERS.replace("3,3,2", "4,4,2")
    with pytest.raises(PrefLibError, match="line 5"):
        parse_preflib_orders(broken)


def test_orders_ignore_trailing_blank_lines():
    expected = parse_preflib_orders(ORDERS)
    assert parse_preflib_orders(ORDERS + "\n") == expected
    assert parse_preflib_orders(ORDERS + "\n  \n\n") == expected


def test_wmg_ignores_trailing_blank_lines():
    expected = parse_preflib_wmg(WMG)
    assert parse_preflib_wmg(WMG + "\n") == expected
    assert parse_preflib_wmg(WMG + "\n  \n\n") == expected


def test_blank_line_inside_the_body_reports_line():
    gap = ORDERS.replace("2: 1,2,3\n", "2: 1,2,3\n\n")
    with pytest.raises(PrefLibError, match="line 7: ballot count"):
        parse_preflib_orders(gap.replace("3,3,2", "3,3,3"))
    wmg_gap = WMG.replace("3,1,2\n", "\n3,1,2\n")
    with pytest.raises(PrefLibError, match="line 6: pair lines"):
        parse_preflib_wmg(wmg_gap.replace("3,3,2", "3,3,3"))


def test_ties_are_rejected():
    tied = ORDERS.replace("2: 1,2,3", "2: {1,2},3")
    with pytest.raises(PrefLibError, match="tie"):
        parse_preflib_orders(tied)


def test_duplicate_wmg_pair_rejected():
    dup = WMG.replace("2,2,3", "1,1,2")
    with pytest.raises(PrefLibError):
        parse_preflib_wmg(dup)


def test_wmg_self_pair_rejected():
    bad = WMG.replace("2,2,3", "2,2,2")
    with pytest.raises(PrefLibError):
        parse_preflib_wmg(bad)


def test_path_dispatch_by_suffix(tmp_path):
    orders_file = tmp_path / "tiny.soc"
    orders_file.write_text(ORDERS)
    assert isinstance(parse_preflib(orders_file), Profile)
    wmg_file = tmp_path / "tiny.wmg"
    wmg_file.write_text(WMG)
    assert isinstance(parse_preflib(wmg_file), WeightedDigraph)
