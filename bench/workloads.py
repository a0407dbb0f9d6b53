"""The benchmark's three workloads.

Each workload makes its inputs once (``make_inputs``, part of set-up) and
then runs whole rounds of the same operations (``run_round``).  Every call
into majdim goes through the round's ``Timeline``, which times it, counts
the solver launches in it and samples the machine's speed between calls
(``speed``).  A round returns the time of each operation that returned
and a line for each that failed; ``check`` then verifies the round's
outputs with ``checks``, which shares no code with majdim.
"""

from __future__ import annotations

import importlib
import json
import random
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import checks
from checks import require
from speed import Timeline

from majdim import census, cli, cultures, gadgets, transforms
from majdim.digraph import Digraph, WeightedDigraph

# Per-solve budget handed to the program.  The slowest instance (Q_19 at
# k = 5) needs 9 to 15 s on one core.
BUDGET_S = 60.0

DATA = Path(__file__).resolve().parent / "data"


class Round:
    """Outcome of one round."""

    def __init__(self):
        self.solver_calls = 0  # gadgets must make none
        self.timeline = Timeline(lambda: self.solver_calls)
        # (operation, seconds, index of the timed call it belongs to, its
        # share of that call's solver launches and solver CPU time)
        self.times: list[tuple[str, float, int, float]] = []
        self.failed: list[str] = []
        self.outputs: list = []

    @property
    def attempted(self) -> int:
        return len(self.times) + len(self.failed)


def _run_round(body) -> Round:
    """A round of ``body(round)``, with the solver launches counted."""
    r = Round()
    with _counting_solver_calls(r):
        body(r)
    r.timeline.close()
    return r


class Census:
    """``run_census(n, 3)`` for n = 1..7, every class 3-inducible."""

    name = "census"

    def __init__(self, seed: int, workdir: Path):
        self.sizes = range(1, len(checks.A000568) + 1)

    def make_inputs(self) -> None:
        pass  # the census enumerates its own inputs

    def run_round(self) -> Round:
        return _run_round(self._census)

    def _census(self, r: Round) -> None:
        for n in self.sizes:
            try:
                (summary, rows), call = r.timeline.call(
                    partial(census.run_census, n, 3, jobs=1, timeout=BUDGET_S)
                )
            except Exception as exc:  # the whole batch of size n failed
                want = checks.A000568[n - 1]
                r.failed += ["census n=%d: %r" % (n, exc)] * want
                continue
            # one operation is one class checked; the census times each
            share = 1 / len(rows)
            for row in rows:
                if row.inducible is None:
                    r.failed.append("class %s: no verdict" % row.canonical_key)
                else:
                    r.times.append((row.canonical_key, row.seconds, call, share))
            r.outputs.append((n, summary, rows))

    def check(self, r: Round) -> None:
        for n, summary, rows in r.outputs:
            want = checks.A000568[n - 1]
            require(len(rows) == want and len({x.canonical_key for x in rows}) == want,
                    "census n=%d: %d classes, expected %d" % (n, len(rows), want))
            require(summary["not_inducible"] == 0
                    and summary["inducible"] == want - len(summary["failures"]),
                    "census n=%d: summary %r" % (n, summary))
            require(all(x.inducible is not False for x in rows),
                    "census n=%d: a class below 8 vertices reported not 3-inducible" % n)


def _digraph_text(n: int, rows) -> str:
    arcs = [(u, v) for u in range(n) for v in range(n) if rows[u] >> v & 1]
    return "%d %d\n" % (n, len(arcs)) + "".join("%d %d\n" % a for a in arcs)


def _qr_rows(p: int) -> tuple[int, ...]:
    squares = {x * x % p for x in range(1, p)}
    return tuple(
        sum(1 << j for j in range(p) if j != i and (i - j) % p in squares)
        for i in range(p)
    )


class Ladder:
    """``majdim dim`` on digraph files, driven in-process through cli_dispatch."""

    name = "ladder"
    # Uniform tournaments that reach a verdict well inside BUDGET_S today
    # (n = 23 with seed 1 gives none in 20 s).
    UNIFORM = ((21, 0), (21, 1), (21, 2), (23, 0), (23, 2))
    # Calls under 0.1 s run this many times a round, so that each one's
    # median time is not one sample of a shared, bursty machine.
    PASSES = 3
    CULTURES = ("ic", "iac", "mallows", "spatial")
    DRAWS, ALTERNATIVES, ELECTORATE = 3, 9, 5

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir / "ladder"
        self.out = self.dir / "result.json"

    def _n8_list(self):
        keys = [
            line.strip()
            for line in (DATA / "n8_not3.txt").read_text().splitlines()
            if line.strip() and not line.startswith("#")
        ]
        graphs = [checks.decode_key(k) for k in keys]
        checks.require_distinct_tournaments(graphs, 96, 8)
        return graphs

    def make_inputs(self) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        # (name, n, rows, electorate or None)
        instances = [("n8-%02d" % i, n, rows, None)
                     for i, (n, rows) in enumerate(self._n8_list())]
        instances += [("Q%d" % p, p, _qr_rows(p), None) for p in (11, 19)]
        for n, s in self.UNIFORM:
            g = cultures.sample(cultures.CultureSpec("uniform_tournament", n=n, seed=s))
            instances.append(("uniform%d-%d" % (n, s), n, g.rows, None))
        rng = random.Random(self.seed)
        for model in self.CULTURES:
            for d in range(self.DRAWS):
                spec = cultures.CultureSpec(
                    model, n=self.ALTERNATIVES, voters=self.ELECTORATE,
                    phi=0.8, seed=rng.randrange(1 << 30),
                )
                voters = cultures.sample(spec).voters
                # the even electorate is the odd draw minus its last voter
                for electorate in (voters, voters[:-1]):
                    rows = checks.majority_rows(self.ALTERNATIVES, electorate)
                    instances.append(
                        ("%s%d-%dv" % (model, d, len(electorate)),
                         self.ALTERNATIVES, rows, len(electorate))
                    )
        self.instances = []
        for name, n, rows, electorate in instances:
            path = self.dir / (name + ".dg")
            path.write_text(_digraph_text(n, rows))
            self.instances.append((name, n, tuple(rows), electorate, str(path)))
        heavy = {"Q19"} | {"uniform%d-%d" % u for u in self.UNIFORM}
        light = [i for i in self.instances if i[0] not in heavy]
        self.calls = light * self.PASSES + [i for i in self.instances if i[0] in heavy]

    def run_round(self) -> Round:
        return _run_round(self._ladder)

    def _ladder(self, r: Round) -> None:
        out = str(self.out)
        for instance in self.calls:
            name, path = instance[0], instance[4]
            argv = ["dim", "--graph", path, "--timeout", str(BUDGET_S), "--out", out]
            try:
                code, call = r.timeline.call(cli.cli_dispatch, argv)
            except Exception as exc:  # a fault in one call fails that operation
                code = repr(exc)
            if code != 0:
                r.failed.append("%s: %s" % (name, code))
            else:
                r.times.append((name, r.timeline.calls[call].wall, call, 1.0))
                r.outputs.append((instance, json.loads(self.out.read_text())))

    def check(self, r: Round) -> None:
        for (name, n, rows, electorate, _), record in r.outputs:
            dim = record.get("dim")
            require(dim is not None, "%s: no dimension found" % name)
            checks.require_dimension(name, n, rows, dim, record.get("witness", []),
                                     electorate)
            if name.startswith("n8-") or name == "Q11":
                require(dim == 5, "%s: dimension %d, expected 5" % (name, dim))
        # Q_11: 5 voters suffice (witness checked above) and the feedback
        # arc set bound refutes every k <= 4.
        q11 = _qr_rows(11)
        fas, arcs = checks.min_fas(11, q11), checks.arc_count(q11)
        require(fas == 20, "Q11: min FAS %d, expected 20" % fas)
        require(all(fas > checks.largest_fas_allowed(arcs, k) for k in range(1, 5)),
                "Q11: the FAS bound no longer refutes k <= 4")


@contextmanager
def _counting_solver_calls(r: Round):
    """Count calls that reach the solver, through either name it has.

    Each is one launch of the solver process; ``speed`` bills launches
    apart from the rest of a call."""
    patches = []
    # importlib, because the package attribute ``majdim.dimension`` is the
    # function of that name, not the module
    for name in ("majdim.dimension", "majdim.solver"):
        module = importlib.import_module(name)
        original = module.solve
        patches.append((module, original))

        def counted(*args, _solve=original, **kwargs):
            r.solver_calls += 1
            return _solve(*args, **kwargs)

        module.solve = counted
    try:
        yield
    finally:
        for module, original in reversed(patches):
            module.solve = original


def _random_digraph(rng: random.Random, n: int, density: float):
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            x = rng.random()
            if x < density / 2:
                arcs.append((u, v))
            elif x < density:
                arcs.append((v, u))
    return Digraph.from_arcs(n, arcs)


class Gadgets:
    """Seeded 3-CNF formulas rewritten and compiled into every gadget."""

    name = "gadgets"
    # (variables, clauses) of the drawn formulas; Kemeny digraph sizes
    FORMULAS = ((6, 2), (8, 3)) * 2
    KEMENY = (10, 20)
    VOTERS = {
        "banks_tournament": 5,
        "teq_tournament": 7,
        "slater_tournament": 7,
        "rp_digraph": 8,
        "rp_tournament": 11,
        "kemeny_subdivide": 4,
    }
    # (compiler, the rewrite it is fed)
    PLAN = (
        ("banks_tournament", "to_ordered3"),
        ("teq_tournament", "to_ordered3"),
        ("rp_digraph", "to_ordered3"),
        ("rp_tournament", "to_ordered3"),
        ("slater_tournament", "to_reducedfew"),
    )

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def make_inputs(self) -> None:
        rng = random.Random(self.seed)
        self.formulas = [transforms.random_three_cnf(rng, v, c)
                         for v, c in self.FORMULAS]
        self.digraphs = [_random_digraph(rng, n, 0.6) for n in self.KEMENY]

    def _call(self, r: Round, op: str, fn, arg):
        try:
            result, call = r.timeline.call(fn, arg)
        except Exception as exc:  # a fault in one call fails that operation
            r.failed.append("%s: %r" % (op, exc))
            return None
        r.times.append((op, r.timeline.calls[call].wall, call, 1.0))
        return result

    def run_round(self) -> Round:
        return _run_round(self._compile_all)

    def _compile_all(self, r: Round) -> None:
        # names are looked up at each call, so the traced run sees them
        for i, f in enumerate(self.formulas):
            forms = {
                rewrite: self._call(r, "f%d.%s" % (i, rewrite),
                                    getattr(transforms, rewrite), f)
                for rewrite in ("to_ordered3", "to_reducedfew")
            }
            for rule, rewrite in self.PLAN:
                out = self._call(r, "f%d.%s" % (i, rule), getattr(gadgets, rule),
                                 forms[rewrite])
                r.outputs.append((rule, out))
        for i, g in enumerate(self.digraphs):
            out = self._call(r, "k%d" % i, gadgets.kemeny_subdivide, g)
            r.outputs.append(("kemeny_subdivide", out))

    def check(self, r: Round) -> None:
        require(r.solver_calls == 0, "gadgets made %d solver calls" % r.solver_calls)
        for rule, out in r.outputs:
            if out is None:
                continue
            voters = out.witness.voters
            require(len(voters) == self.VOTERS[rule],
                    "%s: %d voters, expected %d" % (rule, len(voters), self.VOTERS[rule]))
            n = out.graph.n
            if isinstance(out.graph, WeightedDigraph):
                w = checks.margins(n, voters)
                require(w == [list(row) for row in out.graph.w],
                        "%s: witness margins differ from the gadget's weights" % rule)
            else:
                require(checks.majority_rows(n, voters) == tuple(out.graph.rows),
                        "%s: witness does not induce the gadget" % rule)


WORKLOADS = {w.name: w for w in (Census, Ladder, Gadgets)}
