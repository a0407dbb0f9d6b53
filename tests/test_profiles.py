"""Profiles, majority margins, and the two-voters-per-arc construction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from majdim import (
    Digraph,
    Profile,
    WeightedDigraph,
    induces,
    majority_digraph,
    mcgarvey_profile,
    weighted_majority,
)
from majdim.digraph import linear_order
from majdim.profiles import profile_from_text, profile_to_text

from conftest import (
    INDUCING_PROFILE_5,
    TOURNAMENT_5,
    random_digraph,
)


def test_profile_rejects_non_permutations():
    with pytest.raises(ValueError):
        Profile(3, ((0, 1, 1),))
    with pytest.raises(ValueError):
        Profile(3, ((0, 1),))
    with pytest.raises(ValueError):
        Profile(2, ())


def test_majority_of_known_profile():
    assert majority_digraph(INDUCING_PROFILE_5) == TOURNAMENT_5
    assert induces(INDUCING_PROFILE_5, TOURNAMENT_5)


def test_single_voter_majority_is_their_ranking():
    p = Profile.of(4, (2, 0, 3, 1))
    g = majority_digraph(p)
    assert g.is_transitive() and g.is_tournament()
    assert linear_order(g.rows) == [2, 0, 3, 1]


def test_margins_are_antisymmetric_and_bounded(rng):
    for _ in range(20):
        voters = []
        for _ in range(5):
            order = list(range(6))
            rng.shuffle(order)
            voters.append(tuple(order))
        p = Profile(6, tuple(voters))
        w = weighted_majority(p)
        for u in range(6):
            for v in range(6):
                if u == v:
                    assert w.weight(u, v) == 0
                else:
                    assert w.weight(u, v) == -w.weight(v, u)
                    assert abs(w.weight(u, v)) <= 5
                    assert w.weight(u, v) % 2 == 1  # odd electorate


def test_majority_is_positive_part_of_margins(rng):
    # every electorate size up to 33, even ones included, and orders of
    # up to 40 alternatives: the bit-plane count against the margins
    profiles = []
    for k in range(1, 34):
        for n in (1, 2, 5, rng.randrange(3, 41)):
            voters = []
            for _ in range(k):
                order = list(range(n))
                rng.shuffle(order)
                voters.append(tuple(order))
            profiles.append(Profile(n, tuple(voters)))
    # McGarvey profiles: many voters, every arc at margin exactly 2
    for n in (6, 12, 16):
        profiles.append(mcgarvey_profile(random_digraph(n, rng)))
    assert max(p.k for p in profiles) > 100
    for p in profiles:
        w = weighted_majority(p)
        g = majority_digraph(p)
        assert sorted(g.arcs()) == sorted((u, v) for u, v, _ in w.positive_arcs())
        assert induces(p, g)


def test_mcgarvey_induces_any_digraph(rng):
    for _ in range(40):
        g = random_digraph(rng.randrange(2, 7), rng)
        p = mcgarvey_profile(g)
        assert induces(p, g)
        assert p.k == max(2 * g.arc_count, 2)


def test_mcgarvey_margins_are_two(rng):
    g = random_digraph(5, rng)
    w = weighted_majority(mcgarvey_profile(g))
    for u, v in g.arcs():
        assert w.weight(u, v) == 2


def test_induces_checks_weighted_equality():
    p = Profile.of(3, (0, 1, 2), (0, 1, 2), (2, 1, 0))
    w = weighted_majority(p)
    assert induces(p, w)
    wrong = WeightedDigraph.from_pairs(3, {(0, 1): 3})
    assert not induces(p, wrong)


def test_induces_rejects_size_mismatch():
    p = Profile.of(3, (0, 1, 2))
    with pytest.raises(ValueError):
        induces(p, Digraph.empty(4))


@settings(max_examples=50, deadline=None)
@given(st.randoms(use_true_random=False))
def test_profile_text_round_trip(r):
    n = r.randrange(1, 7)
    voters = []
    for _ in range(r.randrange(1, 6)):
        order = list(range(n))
        r.shuffle(order)
        voters.append(tuple(order))
    p = Profile(n, tuple(voters))
    assert profile_from_text(profile_to_text(p)) == p


@pytest.mark.parametrize("k", [1, 2, 5])
def test_profile_text_round_trip_on_zero_alternatives(k):
    # each empty ranking is a blank line, which the reader skips
    p = Profile(0, ((),) * k)
    assert profile_to_text(p) == "0 %d\n" % k + "\n" * k
    assert profile_from_text(profile_to_text(p)) == p
