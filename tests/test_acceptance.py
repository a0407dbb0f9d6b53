"""End-to-end acceptance battery: one test, and one verdict line, per criterion.

Each test prints a single "[criterion NN] PASS/FAIL" line with the measured
values (visible under -rA, and on failure), then asserts the claim.  These
runs are heavier than the per-module tests: full census sweeps, solver
batteries in the hundreds, and wall-clock budgets.
"""

import itertools
import random
import time
from math import comb

import pytest

from majdim import (
    CLASS_COUNTS,
    Digraph,
    banks_tournament,
    brute_force_sat,
    check_k_majority,
    dimension,
    encode_check_k,
    enumerate_tournaments,
    expressiveness_upper_bound,
    induces,
    kemeny_subdivide,
    majority_threshold,
    min_fas_size,
    profile_count,
    qr_tournament,
    rp_digraph,
    rp_tournament,
    run_census,
    slater_tournament,
    solve,
    teq_tournament,
    to_ordered3,
    to_reducedfew,
    two_partition_check_3,
)
from majdim.cultures import CultureSpec, sample
from majdim.digraph import WeightedDigraph
from majdim.profiles import majority_digraph, weighted_majority
from majdim.transforms import random_three_cnf

from conftest import all_linear_orders, majority_of, random_digraph, random_tournament
from test_gadgets import random_ordered_formula, random_reduced_formula


def _verdict(num: int, ok: bool, claim: str) -> None:
    print("[criterion %02d] %s: %s" % (num, "PASS" if ok else "FAIL", claim))


# ---------------------------------------------------------------------------
# 1. closed-form bounds table


def test_criterion_01_bounds_table():
    expected = (18, 41, 66, 93, 122, 152, 183, 216, 249, 282)
    t0 = time.perf_counter()
    got = tuple(expressiveness_upper_bound(k) for k in range(3, 22, 2))
    elapsed = time.perf_counter() - t0
    ok = got == expected and elapsed < 1.0
    _verdict(1, ok, "bounds k=3..21 -> %s in %.3fs" % (list(got), elapsed))
    assert got == expected
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 2. every tournament class through n=7 is 3-inducible


def test_criterion_02_census_through_seven():
    t0 = time.perf_counter()
    per_n = []
    for n in range(1, 8):
        summary, rows = run_census(n, 3)
        per_n.append(summary)
        assert len(rows) == CLASS_COUNTS[n - 1]
    elapsed = time.perf_counter() - t0
    total = sum(s["inducible"] for s in per_n)
    misses = sum(s["not_inducible"] for s in per_n)
    failures = sum(len(s["failures"]) for s in per_n)
    ok = total == 532 and misses == 0 and failures == 0 and elapsed < 300
    _verdict(
        2,
        ok,
        "census n<=7 k=3: %d/532 inducible, %d misses, %d failures, %.1fs"
        % (total, misses, failures, elapsed),
    )
    assert (total, misses, failures) == (532, 0, 0)
    assert elapsed < 300


# ---------------------------------------------------------------------------
# 3. n=8: exactly 96 classes resist 3 voters, none resists 5


def test_criterion_03_census_eight():
    t0 = time.perf_counter()
    summary, rows = run_census(8, 3)
    five_ok = sum(
        1 for g in enumerate_tournaments(8) if check_k_majority(g, 5) is not None
    )
    elapsed = time.perf_counter() - t0
    ok = (
        summary["inducible"] == 6784
        and summary["not_inducible"] == 96
        and not summary["failures"]
        and five_ok == 6880
        and elapsed < 2700
    )
    _verdict(
        3,
        ok,
        "census n=8: %d/6880 3-inducible (%d not), %d/6880 5-inducible, %.1fs"
        % (summary["inducible"], summary["not_inducible"], five_ok, elapsed),
    )
    assert summary["not_inducible"] == 96
    assert summary["inducible"] == 6784
    assert summary["failures"] == []
    assert five_ok == 6880
    assert elapsed < 2700


# ---------------------------------------------------------------------------
# 4. quadratic-residue tournaments


def _largest_fas_allowed(arc_count: int, k: int) -> int:
    """Largest feedback arc set a k-voter witness permits on a tournament.

    Every arc needs at least m = majority_threshold(k) agreeing voters, so
    the k linear orders agree with at least m * arc_count arcs in total and
    some voter agrees with at least ceil(m * arc_count / k) of them.  The
    arcs that voter reverses form a feedback arc set.
    """
    m = majority_threshold(k)
    return arc_count - -(-m * arc_count // k)


def test_criterion_04_quadratic_residue_dimensions():
    t0 = time.perf_counter()
    r19 = dimension(qr_tournament(19))
    r11 = dimension(qr_tournament(11))
    elapsed = time.perf_counter() - t0
    q11 = qr_tournament(11)
    fas11 = min_fas_size(q11)
    # Certificate for dim(Q_11) = 5: the 5-voter witness induces Q_11, and
    # the counting bound rules out every smaller k (55 arcs, minFAS 20; with
    # 3 voters some voter reverses at most 55 - ceil(2*55/3) = 18 arcs).
    fas_caps = {k: _largest_fas_allowed(q11.arc_count, k) for k in range(1, 5)}
    witness_ok = (
        r11.witness is not None and r11.witness.k == 5 and induces(r11.witness, q11)
    )
    refuted = all(fas11 > cap for cap in fas_caps.values())
    ok = r19.dim == 5 and r11.dim == 5 and witness_ok and refuted and elapsed < 120
    claim = (
        "dim(Q_19)=%s, dim(Q_11)=%s (witness: %s voters, induces Q_11: %s), "
        "minFAS(Q_11)=%d > %d, the largest FAS a 3-voter witness allows, %.1fs"
        % (
            r19.dim,
            r11.dim,
            r11.witness.k if r11.witness is not None else None,
            witness_ok,
            fas11,
            fas_caps[3],
            elapsed,
        )
    )
    _verdict(4, ok, claim)
    assert r19.dim == 5
    assert elapsed < 120
    assert fas11 == 20
    assert fas11 > fas_caps[3], claim
    assert refuted, fas_caps
    assert r11.dim == 5, claim
    assert witness_ok, claim


# ---------------------------------------------------------------------------
# 5. faithful-mode formula sizes across the whole grid


def _predicted_vars(n: int, k: int, missing: int) -> int:
    s = comb(k, majority_threshold(k))
    total = n * n * (k + s)
    if missing:
        total += comb(k, k // 2) * n * n
    return total


def _predicted_clauses(n: int, k: int, num_arcs: int, missing: int) -> int:
    m = majority_threshold(k)
    s = comb(k, m)
    total = k * (n ** 3 + n ** 2) + num_arcs * (1 + s * m)
    total += 2 * missing * (1 + comb(k, k // 2) * (k // 2))
    return total


def test_criterion_05_faithful_encoding_counts():
    rng = random.Random(51)
    checked = 0
    for n in range(3, 11):
        for k in range(2, 8):
            if k % 2:
                g = random_tournament(n, rng)
            else:
                g = random_digraph(n, rng)
                if g.arc_count == comb(n, 2):  # force at least one open pair
                    g = Digraph.from_arcs(n, sorted(g.arcs())[:-1])
            missing = comb(n, 2) - g.arc_count
            f, _ = encode_check_k(g, k, mode="paper_faithful")
            assert f.num_vars == _predicted_vars(n, k, missing), (n, k)
            assert len(f.clauses) == _predicted_clauses(
                n, k, g.arc_count, missing
            ), (n, k)
            checked += 1
    ok = checked == 48
    _verdict(5, ok, "faithful var/clause counts exact on %d (n,k) grid points" % checked)
    assert checked == 48


# ---------------------------------------------------------------------------
# 6. three independent oracles agree


def _sat_inducible(g: Digraph, k: int) -> bool:
    formula, _ = encode_check_k(g, k)
    return solve(formula).is_sat


def _exhaustively_inducible_arc_sets(n: int, k: int) -> set:
    orders = all_linear_orders(n)
    reachable = set()
    for voters in itertools.product(orders, repeat=k):
        reachable.add(frozenset(majority_of(voters).arcs()))
    return reachable


def test_criterion_06_oracle_equivalence():
    classes = 0
    for n in range(1, 7):
        for g in enumerate_tournaments(n):
            classes += 1
            sat = check_k_majority(g, 3) is not None
            split = two_partition_check_3(g) is not None
            assert sat == split, "oracle split on a %d-vertex class" % n
    assert classes == 76

    compared = 0
    for n in range(2, 5):
        reachable = {k: _exhaustively_inducible_arc_sets(n, k) for k in (1, 2, 3)}
        all_pairs = list(itertools.combinations(range(n), 2))
        for orientation in itertools.product((0, 1, None), repeat=len(all_pairs)):
            arcs = []
            for (u, v), o in zip(all_pairs, orientation):
                if o == 0:
                    arcs.append((u, v))
                elif o == 1:
                    arcs.append((v, u))
            g = Digraph.from_arcs(n, arcs)
            ks = (1, 3) if g.is_tournament() else (2,)
            for k in ks:
                assert _sat_inducible(g, k) == (
                    frozenset(g.arcs()) in reachable[k]
                ), (n, k, sorted(g.arcs()))
                compared += 1
    _verdict(
        6,
        True,
        "two-partition == SAT on 76 classes; SAT == exhaustive on %d labeled cases"
        % compared,
    )


# ---------------------------------------------------------------------------
# 7. the six hardness compilers, at battery scale


def test_criterion_07_gadget_battery():
    rng = random.Random(7007)
    builders = (
        ("banks", banks_tournament, random_ordered_formula, 5),
        ("teq", teq_tournament, random_ordered_formula, 7),
        ("kemeny", kemeny_subdivide, lambda r: random_digraph(r.randrange(3, 7), r), 4),
        ("slater", slater_tournament, random_reduced_formula, 7),
        ("rp_digraph", rp_digraph, random_ordered_formula, 8),
        ("rp_tournament", rp_tournament, random_ordered_formula, 11),
    )
    failures = []
    per_rule = {}
    for name, build, draw, voters in builders:
        done = 0
        while done < 100:
            inp = draw(rng)
            if name == "kemeny" and not inp.arcs():
                continue
            out = build(inp)
            done += 1
            if out.witness.k != voters:
                failures.append("%s: %d voters" % (name, out.witness.k))
            elif isinstance(out.graph, WeightedDigraph):
                if weighted_majority(out.witness) != out.graph:
                    failures.append("%s: weighted majority mismatch" % name)
            elif not induces(out.witness, out.graph):
                failures.append("%s: witness does not induce graph" % name)
        per_rule[name] = done
    ok = not failures and all(c >= 100 for c in per_rule.values())
    _verdict(
        7,
        ok,
        "6 x 100 gadgets, voter counts 5/7/4/7/8/11, %d failures" % len(failures),
    )
    assert failures == []


# ---------------------------------------------------------------------------
# 8. satisfiability-preserving formula rewrites


def test_criterion_08_transform_battery():
    rng = random.Random(808)
    failures = 0
    for trial in range(500):
        nv = rng.randrange(2, 13)
        f = random_three_cnf(
            rng, nv, rng.randrange(1, 3 * nv + 2), exactly_three=rng.random() < 0.5
        )
        sat = brute_force_sat(f)
        ordered = to_ordered3(f)
        reduced = to_reducedfew(f)
        if not ordered.is_ordered:
            failures += 1
        elif not reduced.is_reduced_few:
            failures += 1
        # Outputs can exceed the truth-table cap, so their satisfiability is
        # measured with the CDCL solver (itself validated against the truth
        # table in the per-module suites).
        elif solve(ordered).is_sat != sat:
            failures += 1
        elif solve(reduced).is_sat != sat:
            failures += 1
    ok = failures == 0
    _verdict(8, ok, "500 formulas through both rewrites, %d failures" % failures)
    assert failures == 0


# ---------------------------------------------------------------------------
# 9. profile-space magnitudes


def test_criterion_09_profile_counts():
    a = profile_count(5, 1)
    b = profile_count(5, 3)
    ok = (a, b) == (120, 1_728_000)
    _verdict(9, ok, "profile_count(5,1)=%d, profile_count(5,3)=%d" % (a, b))
    assert a == 120
    assert b == 1_728_000


# ---------------------------------------------------------------------------
# 10. stochastic cultures behave as expected


def test_criterion_10_stochastic_cultures():
    dims = []
    for seed in range(30):
        g = sample(CultureSpec(model="uniform_tournament", n=21, seed=seed))
        dims.append(dimension(g).dim)
    mean = sum(dims) / len(dims)

    transitive = 0
    for seed in range(200):
        p = sample(CultureSpec(model="spatial", n=7, voters=11, dims=1, seed=seed))
        if majority_digraph(p).is_transitive():
            transitive += 1
    ok = mean >= 4.5 and transitive == 200
    _verdict(
        10,
        ok,
        "uniform n=21 mean dim %.2f over 30 seeds; spatial dims=1 transitive %d/200"
        % (mean, transitive),
    )
    assert mean >= 4.5
    assert transitive == 200


# ---------------------------------------------------------------------------
# 11. a single mid-size decision stays interactive


def test_criterion_11_runtime_smoke():
    rng = random.Random(1111)
    g = random_tournament(20, rng)
    t0 = time.perf_counter()
    check_k_majority(g, 3)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60
    _verdict(11, ok, "20-vertex k=3 decision in %.2fs" % elapsed)
    assert elapsed < 60
