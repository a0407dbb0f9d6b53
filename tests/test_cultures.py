"""Stochastic preference cultures and the quadratic-residue construction."""

import random
from collections import Counter

import pytest

from majdim import (
    CultureSpec,
    Digraph,
    MODELS,
    Profile,
    majority_digraph,
    qr_tournament,
    sample,
)


def test_models_registry():
    assert MODELS == ("uniform_tournament", "ic", "iac", "mallows", "spatial")


def test_spec_validation():
    with pytest.raises(ValueError):
        CultureSpec(model="unknown", n=5)
    with pytest.raises(ValueError):
        CultureSpec(model="ic", n=0)
    with pytest.raises(ValueError):
        CultureSpec(model="ic", n=5, voters=10)  # even electorate
    with pytest.raises(ValueError):
        CultureSpec(model="mallows", n=5, phi=0.0)
    with pytest.raises(ValueError):
        CultureSpec(model="mallows", n=5, phi=1.5)
    with pytest.raises(ValueError):
        CultureSpec(model="spatial", n=5, dims=0)


def test_metadata_carries_model_parameters():
    spec = CultureSpec(model="mallows", n=6, voters=9, phi=0.4, seed=3)
    assert spec.metadata() == {
        "model": "mallows",
        "n": 6,
        "voters": 9,
        "phi": 0.4,
        "seed": 3,
    }
    flat = CultureSpec(model="uniform_tournament", n=6, seed=1)
    assert "voters" not in flat.metadata()


def test_seeded_samples_are_reproducible():
    for model in MODELS:
        spec = CultureSpec(model=model, n=6, voters=7, seed=99)
        assert sample(spec) == sample(spec)


def test_different_seeds_usually_differ():
    draws = {
        str(sample(CultureSpec(model="ic", n=6, voters=5, seed=s)))
        for s in range(8)
    }
    assert len(draws) == 8


def test_uniform_model_returns_tournaments():
    for s in range(10):
        g = sample(CultureSpec(model="uniform_tournament", n=8, seed=s))
        assert isinstance(g, Digraph)
        assert g.n == 8 and g.is_tournament()


def test_profile_models_return_valid_profiles():
    for model in ("ic", "iac", "mallows", "spatial"):
        p = sample(CultureSpec(model=model, n=5, voters=9, seed=4))
        assert isinstance(p, Profile)
        assert p.n == 5 and p.k == 9


def test_urn_repeats_ballots_more_than_ic():
    """The urn copies earlier ballots, so distinct-ballot counts drop."""

    def mean_distinct(model):
        total = 0
        for s in range(40):
            p = sample(CultureSpec(model=model, n=4, voters=25, seed=s))
            total += len(set(p.voters))
        return total / 40

    assert mean_distinct("iac") < mean_distinct("ic") - 2


def test_mallows_at_phi_one_is_uniform():
    rng = random.Random(17)
    counts = Counter()
    spec = CultureSpec(model="mallows", n=3, voters=101, phi=1.0)
    for _ in range(6):
        counts.update(sample(spec, rng).voters)
    total = sum(counts.values())
    assert total == 606
    assert len(counts) == 6
    for c in counts.values():
        assert 60 <= c <= 145  # loose band around the uniform 101


def test_mallows_concentrates_for_small_phi():
    p = sample(CultureSpec(model="mallows", n=6, voters=51, phi=0.05, seed=2))
    reference = tuple(range(6))
    share = sum(order == reference for order in p.voters) / p.k
    assert share >= 0.5


def test_spatial_one_dimension_gives_transitive_majorities():
    for s in range(12):
        p = sample(CultureSpec(model="spatial", n=7, voters=11, dims=1, seed=s))
        assert majority_digraph(p).is_transitive()


def test_spatial_profiles_vary_with_dims():
    a = sample(CultureSpec(model="spatial", n=6, voters=9, dims=1, seed=5))
    b = sample(CultureSpec(model="spatial", n=6, voters=9, dims=3, seed=5))
    assert a != b


# ---------------------------------------------------------------------------
# quadratic residue tournaments


def test_qr_tournament_basic_structure():
    g = qr_tournament(7)
    assert g.n == 7 and g.is_tournament()
    # doubly regular: every vertex beats (p-1)/2 others
    for v in range(7):
        assert bin(g.rows[v]).count("1") == 3


def test_qr_tournament_rotation_symmetry():
    for p in (7, 11, 19):
        g = qr_tournament(p)
        for u, v in g.arcs():
            assert g.has_arc((u + 1) % p, (v + 1) % p)


def test_qr_arc_rule():
    g = qr_tournament(7)
    residues = {(x * x) % 7 for x in range(1, 7)}
    for u in range(7):
        for v in range(7):
            if u != v:
                assert g.has_arc(u, v) == ((u - v) % 7 in residues)


def test_qr_rejects_bad_moduli():
    with pytest.raises(ValueError):
        qr_tournament(5)  # prime but 1 mod 4
    with pytest.raises(ValueError):
        qr_tournament(9)  # composite
    with pytest.raises(ValueError):
        qr_tournament(2)
