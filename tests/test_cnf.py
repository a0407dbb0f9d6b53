"""The DIMACS writer and reader.

The bundled solver's search is a deterministic function of the DIMACS
text, so ``to_dimacs`` must give exactly the bytes of the reference
writer in conftest; the digests below were taken from it.
"""

import hashlib
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from majdim import CnfFormula, encode_check_k, qr_tournament
from majdim.census import enumerate_tournaments
from majdim.cnf import from_dimacs, to_dimacs
from majdim.encoding import MODES

from conftest import random_digraph, reference_to_dimacs


@st.composite
def formulas(draw):
    num_vars = draw(st.integers(0, 30))
    bound = max(num_vars, 1)
    lit = st.integers(1, bound) | st.integers(-bound, -1)
    clause = st.lists(lit, min_size=1, max_size=12).map(tuple)
    clauses = draw(st.lists(clause, max_size=20 if num_vars else 0))
    return CnfFormula(num_vars, tuple(clauses))


@given(formulas())
def test_writer_matches_reference_and_round_trips(f):
    text = to_dimacs(f)
    assert text == reference_to_dimacs(f)
    assert from_dimacs(text) == f


def test_list_clauses_write_as_tuples():
    f = CnfFormula(3, ([1], [-2, 3]))
    assert to_dimacs(f) == reference_to_dimacs(f) == "p cnf 3 2\n1 0\n-2 3 0\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("p cnf -3 0\n", "negative variable count -3"),
        ("p cnf 2 1\np cnf 5 1\n1 -2 0\n", "second problem line"),
        ("1 -2 0\np cnf 2 1\n", "clause before the 'p cnf' header"),
    ],
    ids=["negative-variables", "second-header", "clause-before-header"],
)
def test_reader_rejects_malformed_headers(text, message):
    with pytest.raises(ValueError, match=message):
        from_dimacs(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("c comment\np cnf x 1\n1 0\n",
         "malformed problem line: 'p cnf x 1'; line 2 has 'x'"),
        ("p cnf 2 1.0\n1 0\n",
         "malformed problem line: 'p cnf 2 1.0'; line 1 has '1.0'"),
        ("p cnf 2 2\n1 -2 0\n2 y 0\n", "line 3: 'y' is not an integer"),
    ],
    ids=["header-variables", "header-clauses", "clause"],
)
def test_reader_names_a_non_integer_token_and_its_line(text, message):
    with pytest.raises(ValueError) as exc:
        from_dimacs(text)
    assert str(exc.value) == message


def test_formula_rejects_a_negative_variable_count():
    with pytest.raises(ValueError, match="negative variable count"):
        CnfFormula(-1, ())


@pytest.mark.parametrize("mode", MODES)
def test_encoder_formulas_match_reference(mode):
    rng = random.Random(5)
    cases = [(g, 3) for n in range(1, 6) for g in enumerate_tournaments(n)]
    cases += [(random_digraph(rng.randrange(2, 6), rng), 2) for _ in range(20)]
    for g, k in cases:
        if g.is_tournament() != (k % 2 == 1):
            continue
        f, _ = encode_check_k(g, k, mode)
        assert to_dimacs(f) == reference_to_dimacs(f)


@pytest.mark.parametrize(
    "p, k, digest",
    [
        (19, 5, "074c0316bf1950661f29d10237d096b9b2e85bda66865bea81a2def1f01ef366"),
        (11, 3, "dc4374b1564dd7a93924018bc4701d5f197110376ecad079e526f84a0d8f9958"),
    ],
)
def test_pinned_dimacs_digests(p, k, digest):
    text = to_dimacs(encode_check_k(qr_tournament(p), k)[0])
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest
