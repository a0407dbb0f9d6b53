"""Per-layer spans, recorded by wrapping majdim's functions from outside.

Each wrapper replaces one name in the module that calls it (for example
``majdim.dimension.solve``, which is what ``check_k_majority`` looks up),
so the library itself carries no tracing.  A span is ``[name, start, end,
parent]``, with ``parent`` the index of the innermost open span or -1.
Spans stay in memory and are folded into per-layer numbers at the end of
each traced round.  A name that no longer exists makes ``install`` fail
rather than leave its layer reading zero.
"""

from __future__ import annotations

import importlib
import time
import types
from collections import Counter, defaultdict

# (module that calls the function, name there, span name)
SITES = (
    ("majdim.census", "enumerate_tournaments", "census.enumerate_tournaments"),
    ("majdim.census", "canonical_form", "digraph.canonical_form"),
    ("majdim.census", "check_k_majority", "dimension.check_k_majority"),
    ("majdim.cli", "cli_dispatch", "cli.cli_dispatch"),
    ("majdim.cli", "dimension", "dimension.dimension"),
    ("majdim.dimension", "check_k_majority", "dimension.check_k_majority"),
    ("majdim.dimension", "encode_check_k", "encoding.encode_check_k"),
    ("majdim.dimension", "decode_model", "encoding.decode_model"),
    ("majdim.dimension", "solve", "solver.solve"),
    ("majdim.solver", "to_dimacs", "cnf.to_dimacs"),
    ("majdim.dimension", "induces", "profiles.induces"),
    ("majdim.gadgets", "induces", "profiles.induces"),
    ("majdim.dimension", "transitive_orientation", "digraph.transitive_orientation"),
    ("majdim.gadgets", "transitive_orientation", "digraph.transitive_orientation"),
    ("majdim.transforms", "to_ordered3", "transforms.to_ordered3"),
    ("majdim.transforms", "to_reducedfew", "transforms.to_reducedfew"),
    ("majdim.gadgets", "banks_tournament", "gadgets.banks_tournament"),
    ("majdim.gadgets", "teq_tournament", "gadgets.teq_tournament"),
    ("majdim.gadgets", "slater_tournament", "gadgets.slater_tournament"),
    ("majdim.gadgets", "rp_digraph", "gadgets.rp_digraph"),
    ("majdim.gadgets", "rp_tournament", "gadgets.rp_tournament"),
    ("majdim.gadgets", "kemeny_subdivide", "gadgets.kemeny_subdivide"),
    ("majdim.cultures", "sample", "cultures.sample"),
)

COMPILERS = tuple(s for _, _, s in SITES if s.startswith("gadgets."))
REWRITES = ("transforms.to_ordered3", "transforms.to_reducedfew")

# Spans each workload must produce; a layer that stops being reached
# through its wrapped name would otherwise read zero without notice.
EXPECTED = {
    "census": ("census.enumerate_tournaments", "digraph.canonical_form",
               "dimension.check_k_majority", "encoding.encode_check_k",
               "encoding.decode_model", "solver.solve", "cnf.to_dimacs",
               "profiles.induces"),
    "ladder": ("cli.cli_dispatch", "dimension.dimension",
               "dimension.check_k_majority", "encoding.encode_check_k",
               "encoding.decode_model", "solver.solve", "cnf.to_dimacs",
               "profiles.induces", "digraph.transitive_orientation"),
    "gadgets": REWRITES + COMPILERS + ("digraph.transitive_orientation",
                                       "profiles.induces"),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._patches: list[tuple] = []
        self._enum_keys: set | None = None

    # -- installation -------------------------------------------------

    def install(self) -> None:
        for module_name, attr, span in SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if not callable(original):
                self.uninstall()
                raise RuntimeError(
                    "traced name %s.%s no longer exists" % (module_name, attr)
                )
            self._patches.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- spans ----------------------------------------------------------

    def _enter(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        idx = len(self.spans) - 1
        self._open.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    def _wrap(self, fn, name: str):
        after = self._after.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(idx)
            if isinstance(result, types.GeneratorType):
                return tracer._resume_spans(result, name)
            if after is not None:
                # bookkeeping gets its own span so no layer is billed for it
                book = tracer._enter("tracing")
                after(tracer, result, idx)
                tracer._exit(book)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _resume_spans(self, gen, name: str):
        """Bill each resumption of a generator to ``name``."""
        enumerating = name == "census.enumerate_tournaments"
        if enumerating:
            self._enum_keys = set()
        try:
            while True:
                idx = self._enter(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._exit(idx)
                yield item
        finally:
            if enumerating:
                self.counts["classes_kept"] += len(self._enum_keys)
                self._enum_keys = None

    def _canonical_form(self, key, idx) -> None:
        if self._enum_keys is not None:
            self.counts["candidates"] += 1
            self._enum_keys.add(key)

    def _encode(self, result, idx) -> None:
        formula, _ = result
        self.counts["literals"] += sum(len(c) for c in formula.clauses)

    def _dimacs(self, text, idx) -> None:
        self.counts["dimacs_bytes"] += len(text)

    def _solve(self, result, idx) -> None:
        self.counts["solve_" + result.status] += 1
        if result.status == "unsat":
            _, start, end, _ = self.spans[idx]
            self.counts["unsat_s"] += end - start

    def _compiled(self, out, idx) -> None:
        self.counts["vertices"] += out.graph.n

    _after = {
        "digraph.canonical_form": _canonical_form,
        "encoding.encode_check_k": _encode,
        "cnf.to_dimacs": _dimacs,
        "solver.solve": _solve,
        **dict.fromkeys(COMPILERS, _compiled),
    }

    # -- per-layer numbers ----------------------------------------------

    def take_round(self) -> tuple[dict, list]:
        """Fold this round's spans into per-layer totals, then reset."""
        spans, counts = self.spans, self.counts
        if self._open:
            raise RuntimeError("a traced call is still open at round end")
        self.spans, self.counts = [], Counter()
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        child: defaultdict = defaultdict(float)
        for name, start, end, parent in spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_time: defaultdict = defaultdict(float)
        for idx, (name, start, end, _) in enumerate(spans):
            self_time[name] += end - start - child[idx]
        layer = {
            "calls": dict(calls),
            "total_s": dict(total),
            "self_s": dict(self_time),
            "counts": dict(counts),
        }
        return layer, spans


def layer_metrics(layer: dict, launch_s: float) -> dict[str, float]:
    """Per-layer numbers of one traced round, in the units BENCHMARK.json names.

    ``launch_s`` is the median one-clause solver round trip, measured apart
    from the workload; it is 0 where the workload has no solver.
    """
    calls, total, own, counts = (
        layer["calls"], layer["total_s"], layer["self_s"], layer["counts"]
    )

    def ms(seconds: float) -> float:
        return seconds * 1000.0

    def total_of(names) -> float:
        return sum(total.get(n, 0.0) for n in names)

    solve_calls = calls.get("solver.solve", 0)
    solve_ms = ms(total.get("solver.solve", 0.0))
    dimacs_ms = ms(total.get("cnf.to_dimacs", 0.0))
    candidates = counts.get("candidates", 0)
    return {
        "census.enumerate_ms": ms(own.get("census.enumerate_tournaments", 0.0)),
        "census.classes_per_candidate": (
            counts.get("classes_kept", 0) / candidates if candidates else 0.0
        ),
        "digraph.canonical_form_calls": calls.get("digraph.canonical_form", 0),
        "digraph.canonical_form_ms": ms(total.get("digraph.canonical_form", 0.0)),
        "encoding.encode_calls": calls.get("encoding.encode_check_k", 0),
        "encoding.encode_ms": ms(total.get("encoding.encode_check_k", 0.0)),
        "encoding.literals": counts.get("literals", 0),
        "encoding.decode_ms": ms(total.get("encoding.decode_model", 0.0)),
        "cnf.dimacs_ms": dimacs_ms,
        "cnf.dimacs_bytes": counts.get("dimacs_bytes", 0),
        "solver.calls": solve_calls,
        "solver.sat_calls": counts.get("solve_sat", 0),
        "solver.unsat_calls": counts.get("solve_unsat", 0),
        "solver.launch_ms": ms(launch_s),
        "solver.solve_ms": solve_ms,
        "solver.unsat_ms": ms(counts.get("unsat_s", 0.0)),
        # computed, not measured: what is left of a solve after writing
        # DIMACS and one process round trip per call
        "solver.search_ms": solve_ms - dimacs_ms - solve_calls * ms(launch_s),
        "dimension.k_checked": calls.get("dimension.check_k_majority", 0),
        "profiles.induces_calls": calls.get("profiles.induces", 0),
        "profiles.induces_ms": ms(total.get("profiles.induces", 0.0)),
        "digraph.transitive_orientation_ms": ms(
            total.get("digraph.transitive_orientation", 0.0)
        ),
        "gadgets.compile_ms": ms(total_of(COMPILERS)),
        "gadgets.vertices": counts.get("vertices", 0),
        "transforms.rewrite_ms": ms(total_of(REWRITES)),
        "cli.self_ms": ms(own.get("cli.cli_dispatch", 0.0)),
        "cultures.sample_ms": ms(total.get("cultures.sample", 0.0)),
    }
