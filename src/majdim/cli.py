"""Command-line surface.

Subcommands: dim, check, census, bounds, sample, sweep, gadget,
transform, verify.  Machine-readable results go to stdout as JSON (or to
--out files), the census and sweep tables as CSV; exit codes are 0 for
success or YES, 1 for a domain NO/UNSAT on decision subcommands, 2 for
usage errors, and 3 for infrastructure failures such as a missing solver
backend or a timeout.  The SAT backend can be overridden through the
MAJDIM_SAT_SOLVER environment variable.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys
import time
from dataclasses import replace
from pathlib import Path

from .bounds import expressiveness_upper_bound
from .census import CSV_HEADER, run_census
from .cnf import from_dimacs, to_dimacs
from .cultures import MODELS, CultureSpec, check_parameters, qr_tournament, sample
from .digraph import (
    Digraph,
    WeightedDigraph,
    digraph_to_text,
    graph_from_text,
    weighted_to_text,
)
from .dimension import SolverTimeout, check_k_majority, dimension
from .encoding import ModelInconsistencyError, ParityError
from .gadgets import (
    GadgetOutput,
    banks_tournament,
    kemeny_subdivide,
    rp_digraph,
    rp_tournament,
    slater_tournament,
    teq_tournament,
)
from .preflib import parse_preflib_orders, parse_preflib_wmg
from .profiles import induces, majority_digraph, profile_from_text, profile_to_text
from .solver import SolverError, check_timeout
from .transforms import ThreeCnf, to_ordered3, to_reducedfew

EXIT_OK = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_INFRA = 3


class UsageError(ValueError):
    """Bad arguments or unreadable/invalid input data."""


def _read_input(path: str, what: str) -> str:
    try:
        return Path(path).read_text()
    except FileNotFoundError:
        raise UsageError("%s file not found: %s" % (what, path))


def _load_graph(path: str) -> Digraph | WeightedDigraph:
    """Read a digraph file, dispatching on arc-line shape.

    PrefLib files (.soc/.wmg and friends) are accepted too; an order
    file yields the majority digraph of its profile, a .wmg file its
    weighted margins.
    """
    text = _read_input(path, "graph")
    suffix = Path(path).suffix
    if suffix == ".wmg":
        return parse_preflib_wmg(text)
    if suffix in (".soc", ".soi", ".toc", ".toi"):
        return majority_digraph(parse_preflib_orders(text))
    return graph_from_text(text)


def _require_unweighted(g: Digraph | WeightedDigraph, what: str) -> Digraph:
    if isinstance(g, WeightedDigraph):
        raise UsageError(
            "%s needs an unweighted digraph; got weighted input "
            "(margins carry more constraints than arcs)" % what
        )
    return g


def _write(path: str, text: str) -> None:
    """Write ``text`` to ``path``, cutting a longer old file to size last.

    Opening with O_TRUNC would empty an existing file first, and on ext4
    rewriting a file emptied that way waits for its writeback when it is
    closed.  Only a regular file is cut, so /dev/null and FIFOs work.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w") as f:
        f.write(text)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            f.truncate()


def _emit(payload: dict, out: str | None):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        _write(out, text + "\n")
    else:
        print(text)


def _three_cnf_from_dimacs(path: str) -> ThreeCnf:
    f = from_dimacs(_read_input(path, "formula"))
    try:
        return ThreeCnf(f.num_vars, f.clauses)
    except ValueError as exc:
        raise UsageError("not a 3-CNF with distinct variables: %s" % exc)


def _cmd_dim(args) -> int:
    g = _require_unweighted(_load_graph(args.graph), "dim")
    result = dimension(g, max_k=args.max_k, timeout=args.timeout)
    _emit(result.to_record(), args.out)
    return EXIT_OK


def _cmd_check(args) -> int:
    g = _require_unweighted(_load_graph(args.graph), "check")
    try:
        witness = check_k_majority(g, args.k, timeout=args.timeout)
    except ParityError as exc:
        _emit({"inducible": False, "reason": str(exc)}, args.out)
        return EXIT_NO
    if witness is None:
        _emit({"inducible": False, "k": args.k}, args.out)
        return EXIT_NO
    if args.witness:
        _write(args.witness, profile_to_text(witness))
    record = {"inducible": True, "k": args.k}
    if not args.witness:
        record["witness"] = [list(o) for o in witness.voters]
    _emit(record, args.out)
    return EXIT_OK


def _cmd_census(args) -> int:
    summary, rows = run_census(
        args.n, args.k, jobs=args.jobs, timeout=args.timeout
    )
    csv = "\n".join([CSV_HEADER] + [r.as_csv() for r in rows]) + "\n"
    if args.out:
        _write(args.out, csv)
        _emit(summary, None)
    else:
        sys.stdout.write(csv)
    return EXIT_INFRA if summary["failures"] else EXIT_OK


def _cmd_bounds(args) -> int:
    if args.k_max is None:
        print(expressiveness_upper_bound(args.k))
    else:
        table = {
            k: expressiveness_upper_bound(k)
            for k in range(args.k, args.k_max + 1, 2)
        }
        _emit({str(k): v for k, v in table.items()}, args.out)
    return EXIT_OK


def _cmd_sample(args) -> int:
    if args.model == "qr":
        # qr reads none of the culture flags but checks them like the rest
        check_parameters(args.voters, args.phi, args.dims)
        g = qr_tournament(args.n)
        content = digraph_to_text(g)
        meta = {"model": "qr", "p": args.n, "seed": args.seed}
    else:
        spec = CultureSpec(
            model=args.model,
            n=args.n,
            voters=args.voters,
            phi=args.phi,
            dims=args.dims,
            seed=args.seed,
        )
        drawn = sample(spec)
        content = (
            digraph_to_text(drawn)
            if isinstance(drawn, Digraph)
            else profile_to_text(drawn)
        )
        meta = spec.metadata()
    if args.out:
        _write(args.out, content)
        _write(args.out + ".json", json.dumps(meta, sort_keys=True) + "\n")
        _emit(meta, None)
    else:
        _emit({"metadata": meta, "content": content}, None)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    # every cell's parameters are checked before the first draw
    cells = [CultureSpec(model, n, args.voters, args.phi, args.dims)
             for model in args.models for n in args.n]
    print("model,n,samples,mean_dim,min_dim,max_dim,seconds")
    for cell in cells:
        t0 = time.perf_counter()
        dims = []
        for seed in range(args.seed0, args.seed0 + args.samples):
            drawn = sample(replace(cell, seed=seed))
            g = drawn if isinstance(drawn, Digraph) else majority_digraph(drawn)
            dims.append(dimension(g).dim)
        elapsed = time.perf_counter() - t0
        found = [d for d in dims if d is not None]
        if len(found) < len(dims):
            print("%s n=%d: %d samples exceeded the k<=9 search bound"
                  % (cell.model, cell.n, len(dims) - len(found)), file=sys.stderr)
        if found:
            print("%s,%d,%d,%.2f,%d,%d,%.1f" % (cell.model, cell.n, len(found),
                  sum(found) / len(found), min(found), max(found), elapsed))
    return EXIT_OK


_GADGET_RULES = {
    "banks": banks_tournament,
    "teq": teq_tournament,
    "slater": slater_tournament,
    "rp-digraph": rp_digraph,
    "rp-tournament": rp_tournament,
}


def _cmd_gadget(args) -> int:
    if args.rule == "kemeny":
        if not args.graph:
            raise UsageError("--rule kemeny reads a digraph; pass --graph")
        g = _require_unweighted(_load_graph(args.graph), "gadget kemeny")
        out = kemeny_subdivide(g)
    else:
        if not args.cnf:
            raise UsageError("--rule %s reads a formula; pass --cnf" % args.rule)
        f = _three_cnf_from_dimacs(args.cnf)
        try:
            if args.rule == "slater":
                out = slater_tournament(f, component_size=args.component_size)
            else:
                out = _GADGET_RULES[args.rule](f)
        except ValueError as exc:
            raise UsageError("formula not admissible for %s: %s" % (args.rule, exc))
    graph_text = (
        weighted_to_text(out.graph)
        if isinstance(out.graph, WeightedDigraph)
        else digraph_to_text(out.graph)
    )
    trace = {
        "rule": args.rule,
        "n": out.graph.n,
        "voters": out.witness.k,
        "decision_vertex": out.decision_vertex,
        "blocks": [
            {"name": name, "arcs": [list(a) for a in block.arcs()]}
            for name, block in out.block_trace
        ],
    }
    if args.out_graph:
        _write(args.out_graph, graph_text)
    if args.out_profile:
        _write(args.out_profile, profile_to_text(out.witness))
    _emit(trace, args.out_trace)
    if not args.out_graph:
        sys.stdout.write(graph_text)
    if not args.out_profile:
        sys.stdout.write(profile_to_text(out.witness))
    return EXIT_OK


def _cmd_transform(args) -> int:
    f = _three_cnf_from_dimacs(args.cnf)
    try:
        g = to_ordered3(f) if args.to == "ordered3" else to_reducedfew(f)
    except ValueError as exc:
        raise UsageError(str(exc))
    text = to_dimacs(g)
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    _emit(
        {
            "target": args.to,
            "variables": g.num_vars,
            "clauses": len(g.clauses),
            "ordered": g.is_ordered,
            "reduced_few": g.is_reduced_few,
        },
        None,
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    g = _load_graph(args.graph)
    profile = profile_from_text(_read_input(args.profile, "profile"))
    ok = induces(profile, g)
    _emit({"induces": ok}, args.out)
    return EXIT_OK if ok else EXIT_NO


def _timeout(text: str) -> float:
    """argparse type of ``--timeout``: seconds, as ``check_timeout`` takes them."""
    value = float(text)
    try:
        return check_timeout(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _at_least_one(name: str):
    """argparse type of an integer option ``name`` that must be at least 1."""

    def parse(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(
                "%s must be at least 1, got %s" % (name, text)
            )
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="majdim",
        description="Majority dimension toolkit",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    d = sub.add_parser("dim", help="compute the majority dimension of a digraph")
    d.add_argument("--graph", required=True)
    d.add_argument("--max-k", type=int, default=9, dest="max_k")
    d.add_argument("--timeout", type=_timeout, default=None)
    d.add_argument("--out", default=None)
    d.set_defaults(func=_cmd_dim)

    c = sub.add_parser("check", help="decide k-voter inducibility")
    c.add_argument("--graph", required=True)
    c.add_argument("-k", type=int, required=True)
    c.add_argument("--witness", default=None, help="write the inducing profile here")
    c.add_argument("--timeout", type=_timeout, default=None)
    c.add_argument("--out", default=None)
    c.set_defaults(func=_cmd_check)

    ce = sub.add_parser("census", help="k-inducibility census of all n-tournaments")
    ce.add_argument("--n", type=int, required=True)
    ce.add_argument("--k", type=int, required=True)
    ce.add_argument("--jobs", type=_at_least_one("jobs"), default=1)
    ce.add_argument("--timeout", type=_timeout, default=None)
    ce.add_argument("--out", default=None, help="CSV destination (stdout otherwise)")
    ce.set_defaults(func=_cmd_census)

    b = sub.add_parser("bounds", help="non-inducibility size bounds and counts")
    b.add_argument("--k", type=int, required=True)
    b.add_argument("--k-max", type=int, default=None, dest="k_max")
    b.add_argument("--out", default=None)
    b.set_defaults(func=_cmd_bounds)

    # --voters, --phi and --dims of sample and sweep default as in CultureSpec
    culture = argparse.ArgumentParser(add_help=False)
    culture.add_argument("--voters", type=int, default=CultureSpec.voters)
    culture.add_argument("--phi", type=float, default=CultureSpec.phi)
    culture.add_argument("--dims", type=int, default=CultureSpec.dims)

    s = sub.add_parser(
        "sample", parents=[culture], help="draw from a stochastic culture"
    )
    s.add_argument("--model", required=True, choices=MODELS + ("qr",))
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--out", default=None)
    s.set_defaults(func=_cmd_sample)

    w = sub.add_parser("sweep", parents=[culture], help="mean dimension of draws")
    w.add_argument("--models", nargs="+", choices=MODELS,
                   default=["uniform_tournament"])
    w.add_argument("--n", nargs="+", type=int, default=[5, 9, 13, 17, 21])
    w.add_argument("--samples", type=_at_least_one("samples"), default=30,
                   help="seeded draws per cell")
    w.add_argument("--seed0", type=int, default=0,
                   help="first seed; draws use seed0..seed0+samples-1")
    w.set_defaults(func=_cmd_sweep)

    g = sub.add_parser("gadget", help="compile a formula into a hardness tournament")
    g.add_argument(
        "--rule",
        required=True,
        choices=sorted(_GADGET_RULES) + ["kemeny"],
    )
    g.add_argument("--cnf", default=None, help="DIMACS input (formula rules)")
    g.add_argument("--graph", default=None, help="digraph input (kemeny)")
    g.add_argument(
        "--component-size",
        type=_at_least_one("component-size"),
        default=1,
        dest="component_size",
    )
    g.add_argument("--out-graph", default=None, dest="out_graph")
    g.add_argument("--out-profile", default=None, dest="out_profile")
    g.add_argument("--out-trace", default=None, dest="out_trace")
    g.set_defaults(func=_cmd_gadget)

    t = sub.add_parser("transform", help="normal-form CNF reductions")
    t.add_argument("--to", required=True, choices=("ordered3", "reducedfew"))
    t.add_argument("--cnf", required=True)
    t.add_argument("--out", default=None)
    t.set_defaults(func=_cmd_transform)

    v = sub.add_parser("verify", help="check that a profile induces a graph")
    v.add_argument("--graph", required=True)
    v.add_argument("--profile", required=True)
    v.add_argument("--out", default=None)
    v.set_defaults(func=_cmd_verify)

    return ap


def cli_dispatch(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except SolverTimeout as exc:
        print("timeout: %s" % exc, file=sys.stderr)
        return EXIT_INFRA
    except (SolverError, ModelInconsistencyError) as exc:
        print("solver failure: %s" % exc, file=sys.stderr)
        return EXIT_INFRA


def main():
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
