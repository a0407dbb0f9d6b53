#!/usr/bin/env python3
"""Benchmark of majdim: the census, the dimension ladder and the gadget battery.

Run from the root of the repository:

    python3 bench/run.py --workload census --seed 1 --seconds 35 --trace 0

The run sets up (imports majdim, builds the bundled solver into a fresh
cache of its own and makes the inputs; five times, the median is
``setup_s``), then runs whole rounds of the workload until ``--seconds``
would be exceeded, checks every output, and prints one JSON line with the
end-to-end metrics.  Every time it reports is at the reference speed of
``speed.py``: scaled by fixed work of the benchmark's own, timed between
the calls.  ``--trace 1`` alternates untraced and traced rounds and prints
the per-layer metrics instead.  Metric names and units come
from BENCHMARK.json at the root.  A record of the run is written under
``bench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5
LAUNCH_PROBES = 15


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:  # no git on this machine
        return None
    return proc.stdout.strip() or None


class Run:
    def __init__(self, args, spec: dict, workdir: Path):
        self.args = args
        self.spec = spec
        self.workdir = workdir
        self.walls: list[float] = []  # per round, at the reference speed
        self.cpus: list[float] = []
        self.raw: list[tuple[float, float]] = []  # per round, as measured
        self.elapsed: list[float] = []  # per round, speed samples included
        self.peak_rss: list[float] = []  # MB, after each round
        self.samples: list[tuple[float, ...]] = []  # speed samples of the rounds
        self.times: dict[str, list[float]] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.errors: list[str] = []

    def set_up(self) -> float:
        speed.warm_up()
        timeline = speed.Timeline()
        # imported here, so that the first import of majdim is timed
        _, first = timeline.call(importlib.import_module, "workloads")
        import workloads
        from majdim import solver

        self.solver = solver
        calls = [timeline.call(self._set_up_once, workloads, i)[1]
                 for i in range(SETUP_REPEATS)]
        timeline.close()
        imported = timeline.at_reference(first)[0]
        self.setup_times = [imported + timeline.at_reference(c)[0] for c in calls]
        self.setup_raw = [timeline.calls[first].wall + timeline.calls[c].wall for c in calls]
        return statistics.median(self.setup_times)

    def _set_up_once(self, workloads, i: int) -> None:
        os.environ["MAJDIM_CACHE"] = str(self.workdir / ("solver%d" % i))
        self.solver.bundled_solver_path()
        self.workload = workloads.WORKLOADS[self.args.workload](
            self.args.seed, self.workdir
        )
        self.workload.make_inputs()

    def round(self) -> float:
        from checks import CheckError

        start = time.perf_counter()
        r = self.workload.run_round()
        self.elapsed.append(time.perf_counter() - start)
        raw_wall, raw_cpu, wall, cpu = r.timeline.totals()
        self.walls.append(wall)
        self.cpus.append(cpu)
        self.raw.append((raw_wall, raw_cpu))
        self.peak_rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        self.samples += r.timeline.samples
        for op, seconds, call, share in r.times:
            at_reference = r.timeline.at_reference(call, share, seconds)[0]
            self.times.setdefault(op, []).append(at_reference)
        self.attempted += r.attempted
        self.failures += r.failed
        try:
            self.workload.check(r)
        except CheckError as exc:
            self.errors.append(str(exc))
        return wall

    def end_to_end(self) -> dict[str, float]:
        setup_s = self.set_up()
        start = time.perf_counter()
        while True:
            self.round()
            spent = time.perf_counter() - start
            if spent + statistics.median(self.elapsed) > self.args.seconds:
                break
        # Every round runs the same operations.  Each operation's time is
        # its median over its calls, so a burst of load on a shared machine
        # does not pass for a slow operation.
        per_op = [statistics.median(times) for times in self.times.values()]
        return {
            "setup_s": setup_s,
            "wall_s": statistics.median(self.walls),
            "cpu_s": statistics.median(self.cpus),
            "op_p50_ms": statistics.median(per_op) * 1000.0,
            # set-up and one round: later rounds repeat the same work, and
            # the peak then creeps by up to 2 MB with the collector's timing
            "peak_rss_mb": self.peak_rss[0],
        }

    def per_layer(self) -> dict[str, float]:
        import tracing
        from majdim.cnf import CnfFormula

        self.set_up()
        launch = 0.0
        if self.args.workload != "gadgets":
            one_clause = CnfFormula(1, ((1,),))
            probes = []
            for _ in range(LAUNCH_PROBES):
                start = time.perf_counter()
                self.solver.solve(one_clause)
                probes.append(time.perf_counter() - start)
            launch = statistics.median(probes)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.workload.make_inputs()
        finally:
            tracer.uninstall()
        sampled, _ = tracer.take_round()
        plain, traced, layers = [], [], []
        start = time.perf_counter()
        while True:
            if len(plain) <= len(traced):
                plain.append(self.round())
            else:
                tracer.install()
                try:
                    traced.append(self.round())
                finally:
                    tracer.uninstall()
                layer, self.spans = tracer.take_round()
                missing = [name for name in tracing.EXPECTED[self.args.workload]
                           if not layer["calls"].get(name)]
                if missing:
                    raise RuntimeError("traced round reached no %s" % ", ".join(missing))
                layers.append(tracing.layer_metrics(layer, launch))
                self.layers = layers
            spent = time.perf_counter() - start
            if traced and spent + statistics.median(self.elapsed) > self.args.seconds:
                break
        metrics = {name: statistics.median(layer[name] for layer in layers)
                   for name in layers[0]}
        metrics["cultures.sample_ms"] = sampled["total_s"].get("cultures.sample", 0.0) * 1000.0
        metrics["tracing.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        return metrics

    def result(self, metrics: dict[str, float]) -> dict:
        group = "per_layer" if self.args.trace else "end_to_end"
        units = {m["name"]: m["unit"] for m in self.spec[group]}
        if set(units) != set(metrics):
            raise RuntimeError(
                "metrics differ from BENCHMARK.json: missing %s, extra %s"
                % (sorted(set(units) - set(metrics)), sorted(set(metrics) - set(units)))
            )
        return {
            "correct": not self.errors,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": {
                name: {"value": metrics[name], "unit": units[name]} for name in units
            },
        }

    def record(self, result: dict) -> None:
        out = BENCH / "results"
        out.mkdir(exist_ok=True)
        a = self.args
        record = {
            "workload": a.workload,
            "seed": a.seed,
            "seconds": a.seconds,
            "trace": a.trace,
            "git_sha": git_sha(),
            "source_sha256": source_digest(),
            "nproc": os.cpu_count(),
            "rounds": len(self.walls),
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failures": self.failures,
            "errors": self.errors,
            "reference_s": {"kernel": speed.KERNEL_S, "probe": speed.PROBE_S,
                            "solve": speed.SOLVE_S},
            "sample_fields": speed.Sample._fields,
            "samples": self.samples,
            "setup_times_s": self.setup_times,
            "setup_raw_s": self.setup_raw,
            "round_wall_s": self.walls,
            "round_cpu_s": self.cpus,
            "round_raw_wall_cpu_s": self.raw,
            "peak_rss_mb_after_round": self.peak_rss,
            "op_seconds": self.times,
            "result": result,
        }
        if a.trace:
            record["per_layer_rounds"] = self.layers
            record["spans_of_last_traced_round"] = self.spans
        name = "%s-seed%d-trace%d.json" % (a.workload, a.seed, a.trace)
        (out / name).write_text(json.dumps(record) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("census", "ladder", "gadgets"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "majdim" / "__init__.py").is_file():
        print("error: majdim sources not found under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # the bundled solver only, built where this run can see it
    os.environ.pop("MAJDIM_SAT_SOLVER", None)
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    workdir = BENCH / "work" / ("%s-%d" % (args.workload, os.getpid()))
    # the solver's DIMACS files and the compiler's temporaries stay in here
    (workdir / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(workdir / "tmp")
    try:
        speed.build(workdir)
        run = Run(args, spec, workdir)
        metrics = run.per_layer() if args.trace else run.end_to_end()
        result = run.result(metrics)
        run.record(result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for message in run.errors + run.failures[:10]:
        print(message, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
