"""Stochastic preference cultures and the quadratic-residue tournament.

Profile samplers cover impartial culture, the impartial anonymous
culture (urn process), Mallows dispersion around a reference ranking,
and Euclidean spatial preferences; a direct tournament sampler draws
every pair by fair coin.  All samplers take an explicit seeded RNG so
runs are reproducible, and electorates are kept odd so that sampled
profiles always induce tournaments.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .digraph import Digraph
from .profiles import LinearOrder, Profile

MODELS = ("uniform_tournament", "ic", "iac", "mallows", "spatial")


def check_parameters(voters: int, phi: float, dims: int) -> None:
    """Raise ValueError unless ``voters``, ``phi`` and ``dims`` are in range.

    ``CultureSpec`` checks all three for every model, also those the model
    does not read, and ``majdim sample --model qr`` checks them too.
    """
    if voters < 1 or voters % 2 == 0:
        raise ValueError("voters must be odd and positive")
    if not 0.0 < phi <= 1.0:
        raise ValueError("phi must lie in (0, 1]")
    if dims < 1:
        raise ValueError("dims must be at least 1")


@dataclass(frozen=True)
class CultureSpec:
    """Parameters of one sampling run.

    Every field is range-checked for every model, also those the model
    does not read (``phi`` outside mallows, ``dims`` outside spatial).
    """

    model: str
    n: int
    voters: int = 51
    phi: float = 1.0
    dims: int = 2
    seed: int | None = None

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(
                "unknown model %r (expected one of %s)"
                % (self.model, ", ".join(MODELS))
            )
        if self.n < 1:
            raise ValueError("n must be positive")
        check_parameters(self.voters, self.phi, self.dims)

    def metadata(self) -> dict:
        meta: dict = {"model": self.model, "n": self.n, "seed": self.seed}
        if self.model != "uniform_tournament":
            meta["voters"] = self.voters
        if self.model == "mallows":
            meta["phi"] = self.phi
        if self.model == "spatial":
            meta["dims"] = self.dims
        return meta


def _uniform_tournament(n: int, rng: random.Random) -> Digraph:
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            arcs.append((u, v) if rng.random() < 0.5 else (v, u))
    return Digraph.from_arcs(n, arcs)


def _ic_order(n: int, rng: random.Random) -> LinearOrder:
    order = list(range(n))
    rng.shuffle(order)
    return tuple(order)


def _iac_profile(n: int, voters: int, rng: random.Random) -> Profile:
    # Polya urn over all n! rankings, sampled lazily: the t-th voter
    # copies a uniformly chosen earlier ballot with probability
    # t / (n! + t) and draws a fresh uniform ranking otherwise.  The
    # comparison runs in exact integer arithmetic, so huge n! is fine.
    total = math.factorial(n)
    drawn: list[LinearOrder] = []
    for t in range(voters):
        if t > 0 and rng.randrange(total + t) < t:
            drawn.append(drawn[rng.randrange(t)])
        else:
            drawn.append(_ic_order(n, rng))
    return Profile(n, tuple(drawn))


def _mallows_order(n: int, phi: float, rng: random.Random) -> LinearOrder:
    """Repeated-insertion sampler around the identity reference order.

    Item j (0-indexed) lands in slot i of the current ranking with
    weight phi^(j - i); slot j keeps the reference order, slot 0 is a
    full displacement.  This draws exactly from the Mallows
    distribution with dispersion phi.
    """
    ranking: list[int] = []
    for j in range(n):
        weights = [phi ** (j - i) for i in range(j + 1)]
        ranking.insert(rng.choices(range(j + 1), weights=weights)[0], j)
    return tuple(ranking)


def _spatial_profile(
    n: int, voters: int, dims: int, rng: random.Random
) -> Profile:
    alternatives = [
        tuple(rng.random() for _ in range(dims)) for _ in range(n)
    ]
    orders = []
    for _ in range(voters):
        ideal = tuple(rng.random() for _ in range(dims))
        # Squared Euclidean distance; equidistant pairs fall back to id.
        def key(a: int) -> tuple[float, int]:
            return (
                sum((x - y) ** 2 for x, y in zip(alternatives[a], ideal)),
                a,
            )

        orders.append(tuple(sorted(range(n), key=key)))
    return Profile(n, tuple(orders))


def sample(
    spec: CultureSpec, rng: random.Random | None = None
) -> Profile | Digraph:
    """Draw one sample; a Digraph for uniform_tournament, else a Profile."""
    if rng is None:
        rng = random.Random(spec.seed)
    if spec.model == "uniform_tournament":
        return _uniform_tournament(spec.n, rng)
    if spec.model == "ic":
        return Profile(
            spec.n,
            tuple(_ic_order(spec.n, rng) for _ in range(spec.voters)),
        )
    if spec.model == "iac":
        return _iac_profile(spec.n, spec.voters, rng)
    if spec.model == "mallows":
        return Profile(
            spec.n,
            tuple(
                _mallows_order(spec.n, spec.phi, rng)
                for _ in range(spec.voters)
            ),
        )
    return _spatial_profile(spec.n, spec.voters, spec.dims, rng)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    f = 2
    while f * f <= p:
        if p % f == 0:
            return False
        f += 1
    return True


def qr_tournament(p: int) -> Digraph:
    """Tournament on Z_p with an arc i -> j when i - j is a square mod p.

    For prime p congruent to 3 mod 4 exactly one of i - j and j - i is a
    nonzero quadratic residue, so the relation is a regular tournament
    with all out-degrees (p - 1) / 2.
    """
    if not _is_prime(p):
        raise ValueError("p must be prime, got %d" % p)
    if p % 4 != 3:
        raise ValueError("p must be congruent to 3 mod 4, got %d" % p)
    residues = {x * x % p for x in range(1, p)}
    arcs = [
        (i, j)
        for i in range(p)
        for j in range(p)
        if i != j and (i - j) % p in residues
    ]
    return Digraph.from_arcs(p, arcs)
