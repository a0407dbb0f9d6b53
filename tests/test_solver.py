"""The bundled solver's two routes: in-process through the shared library,
and the executable as a child process.

Both run one search (same model, same statistics); formulas above the
clause gate and every formula for an external backend take the child.
"""

import random
import shutil
import subprocess
import threading
import time

import pytest

from majdim import cultures, encode_check_k, qr_tournament
from majdim import solver
from majdim.census import run_census
from majdim.cnf import CnfFormula, to_dimacs
from majdim.solver import (
    IN_PROCESS_CLAUSES,
    STATS,
    SolverError,
    _parse_output,
    _solve_in_child,
    _solve_in_process,
    bundled_solver_path,
    solve,
)
from majdim.transforms import brute_force_sat, random_three_cnf

from conftest import TOURNAMENT_5


def satisfies(model, f: CnfFormula) -> bool:
    return all(any(model[abs(lit)] == (lit > 0) for lit in c) for c in f.clauses)


def both_routes(f: CnfFormula):
    return _solve_in_process(to_dimacs(f), f.num_vars, None), _solve_in_child(f, None)


def pigeonhole(pigeons: int, holes: int) -> CnfFormula:
    def var(p, h):
        return p * holes + h + 1

    clauses = [tuple(var(p, h) for h in range(holes)) for p in range(pigeons)]
    for h in range(holes):
        for p in range(pigeons):
            for q in range(p + 1, pigeons):
                clauses.append((-var(p, h), -var(q, h)))
    return CnfFormula(pigeons * holes, tuple(clauses))


def test_both_routes_run_one_search():
    f, _ = encode_check_k(qr_tournament(7), 3)
    inside, child = both_routes(f)
    assert inside.status == child.status == "sat"
    assert inside.model == child.model
    assert set(inside.stats) == set(STATS) and inside.stats["decisions"] > 0
    assert inside.stats == child.stats


def test_unsat_statistics_agree():
    f, _ = encode_check_k(TOURNAMENT_5, 1)
    inside, child = both_routes(f)
    assert inside.status == child.status == "unsat"
    assert inside.stats == child.stats


def test_learnt_clause_deletion_is_pinned():
    # 19 810 clauses: a child-process search that runs reduce_db, so a
    # change of clause order, literal order or tie order moves the counts
    g = cultures.sample(cultures.CultureSpec("uniform_tournament", n=21, seed=0))
    result = solve(encode_check_k(g, 5)[0])
    assert result.is_sat
    assert result.stats == {"conflicts": 12561, "decisions": 49675, "restarts": 42}


@pytest.mark.parametrize(
    "model, error",
    [
        ("v 1 -2 0", "assigns 2 of 3 variables"),
        ("v 1 -2 3 4 0", "names variable 4 of a 3-variable formula"),
        ("v 1 -2 3 -1 0", "gives variable 1 both signs"),
        ("v 1 -2 3 0", None),
        ("v 1 -2\nv 3 1 0", None),
    ],
    ids=["missing", "out-of-range", "contradictory", "complete", "repeated"],
)
def test_backend_model_must_assign_every_variable(model, error):
    stdout = "s SATISFIABLE\n%s\n" % model
    if error is None:
        result = _parse_output(stdout, 10, "", 3)
        assert result.model == {1: True, 2: False, 3: True}
    else:
        with pytest.raises(SolverError, match=error):
            _parse_output(stdout, 10, "", 3)


def test_random_three_cnf_against_truth_tables():
    rng = random.Random(11)
    verdicts = set()
    for _ in range(60):
        nv = rng.randrange(4, 13)
        f = random_three_cnf(rng, nv, rng.randrange(nv, 6 * nv))
        expected = brute_force_sat(f)
        verdicts.add(expected)
        for result in both_routes(f):
            assert result.is_sat == expected
            if expected:
                assert satisfies(result.model, f)
    assert verdicts == {True, False}


@pytest.mark.parametrize(
    "text",
    [
        "",
        "garbage\n",
        "p dnf 2 1\n1 0\n",
        "p cnf 2 1\n1 3 0\n",
        "p cnf 2 1\n1 -2",
        "p cnf 2 2\n1 0\n",  # fewer clauses than declared
        "p cnf 2 2\n1 0\nx -1 0\n",  # a stray token
        "p cnf 9 1\n1 0\n",  # more variables than the model buffer holds
    ],
)
def test_malformed_buffer_is_a_solver_error(text):
    with pytest.raises(SolverError, match="malformed DIMACS input"):
        _solve_in_process(text, 2, None)


def test_in_process_timeout_is_a_result():
    f = pigeonhole(11, 10)
    assert (f.num_vars, f.num_clauses) == (110, 561)
    start = time.monotonic()
    result = solve(f, timeout=0.2)
    assert result.status == "timeout"
    assert time.monotonic() - start < 1.0


# above the cap, poll() on the child route overflows and mc_solve casts
# the seconds to time_t
@pytest.mark.parametrize(
    "timeout", [0, -1.0, float("nan"), float("inf"), solver.MAX_TIMEOUT + 1]
)
def test_non_positive_timeout_is_rejected_on_both_routes(timeout, monkeypatch):
    f = pigeonhole(3, 2)
    monkeypatch.delenv("MAJDIM_SAT_SOLVER", raising=False)
    with pytest.raises(ValueError, match="timeout must be positive"):
        solve(f, timeout=timeout)
    monkeypatch.setenv("MAJDIM_SAT_SOLVER", str(bundled_solver_path()))
    with pytest.raises(ValueError, match="timeout must be positive"):
        solve(f, timeout=timeout)


def test_the_timeout_cap_itself_is_accepted_on_both_routes(monkeypatch):
    f = pigeonhole(3, 2)
    monkeypatch.delenv("MAJDIM_SAT_SOLVER", raising=False)
    assert solve(f, timeout=solver.MAX_TIMEOUT).is_unsat
    monkeypatch.setenv("MAJDIM_SAT_SOLVER", str(bundled_solver_path()))
    assert solve(f, timeout=solver.MAX_TIMEOUT).is_unsat


def test_threads_solve_side_by_side():
    rng = random.Random(3)
    formulas = []
    while len(formulas) < 4:
        f = random_three_cnf(rng, 40, 120)
        if f not in formulas:
            formulas.append(f)
    results = [None] * 4

    def work(i):
        results[i] = solve(formulas[i])

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for f, result in zip(formulas, results):
        assert result.is_sat and satisfies(result.model, f)


def test_census_rows_do_not_depend_on_jobs():
    def rows(jobs):
        summary, found = run_census(6, 3, jobs=jobs)
        return summary, [(r.canonical_key, r.inducible, r.method) for r in found]

    assert rows(2) == rows(1)


def test_clause_gate_picks_the_route(monkeypatch):
    small = pigeonhole(4, 3)
    large = CnfFormula(2, ((1, 2),) * (IN_PROCESS_CLAUSES + 1))
    bundled_solver_path()  # a cold cache would launch the compiler

    def no_launch(*args, **kwargs):
        raise AssertionError("launched a child process")

    with monkeypatch.context() as m:
        m.setattr(subprocess, "run", no_launch)
        assert solve(small).is_unsat

    def not_in_process(*args, **kwargs):
        raise AssertionError("solved in-process")

    monkeypatch.setattr(solver, "_solve_in_process", not_in_process)
    assert solve(large).is_sat
    monkeypatch.setenv("MAJDIM_SAT_SOLVER", str(bundled_solver_path()))
    assert solve(small).is_unsat


def test_cache_missing_its_library_is_rebuilt(tmp_path, monkeypatch):
    monkeypatch.setenv("MAJDIM_CACHE", str(tmp_path))
    binary = bundled_solver_path()
    (library,) = tmp_path.glob("libminicdcl-*.so")
    library.unlink()
    assert solve(pigeonhole(2, 2)).is_sat
    assert library.exists() and binary.exists()


def test_unloadable_library_is_a_solver_error(tmp_path, monkeypatch):
    monkeypatch.setenv("MAJDIM_CACHE", str(tmp_path))
    bundled_solver_path()
    (library,) = tmp_path.glob("libminicdcl-*.so")
    library.write_bytes(b"not a shared object")
    with pytest.raises(SolverError, match="cannot load"):
        solve(pigeonhole(2, 2))


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_solver_source_compiles_without_warnings():
    proc = subprocess.run(
        ["cc", "-Wall", "-Wextra", "-Werror", "-fsyntax-only", str(solver._SOURCE)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
