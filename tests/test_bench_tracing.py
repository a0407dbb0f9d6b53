"""The benchmark's layer tracer still finds every name it wraps.

``bench/tracing.py`` times each layer by replacing a function in the module
that calls it, and a traced benchmark run fails when one of those names
has gone or a workload no longer reaches a layer through it.  This runs a
small piece of each workload under the tracer, so a hand-off that stops
going through a wrapped name fails here first.
"""

import random
from pathlib import Path

import pytest

import majdim.census
import majdim.cli
import majdim.gadgets
import majdim.transforms
from majdim.digraph import Digraph

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    t = tracing.Tracer()
    t.install()
    try:
        yield t, tracing.EXPECTED
    finally:
        t.uninstall()


def _missing(t, names):
    layer, _ = t.take_round()
    return [name for name in names if not layer["calls"].get(name)]


def _dim(tmp_path, name, g):
    path = tmp_path / (name + ".dg")
    path.write_text("%d %d\n" % (g.n, g.arc_count)
                    + "".join("%d %d\n" % a for a in g.arcs()))
    argv = ["dim", "--graph", str(path), "--out", str(tmp_path / "out.json")]
    assert majdim.cli.cli_dispatch(argv) == 0


def test_every_expected_layer_is_reached(tracer, tmp_path):
    t, expected = tracer
    # modules are looked up at each call, as the workloads do, so the
    # wrapped names are the ones called
    summary, _ = majdim.census.run_census(5, 3)
    assert summary["inducible"] == 12
    assert _missing(t, expected["census"]) == []

    _dim(tmp_path, "cycle", Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)]))
    _dim(tmp_path, "incomplete", Digraph.from_arcs(4, [(0, 1), (2, 3)]))
    assert _missing(t, expected["ladder"]) == []

    rng = random.Random(7)
    f = majdim.transforms.random_three_cnf(rng, 6, 2)
    ordered = majdim.transforms.to_ordered3(f)
    reduced = majdim.transforms.to_reducedfew(f)
    for rule in ("banks_tournament", "teq_tournament", "rp_digraph",
                 "rp_tournament"):
        getattr(majdim.gadgets, rule)(ordered)
    majdim.gadgets.slater_tournament(reduced)
    arcs = [(u, v) for u in range(8) for v in range(u + 1, 8) if rng.random() < 0.4]
    majdim.gadgets.kemeny_subdivide(Digraph.from_arcs(8, arcs))
    assert _missing(t, expected["gadgets"]) == []
