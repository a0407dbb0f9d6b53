"""The machine's speed, measured beside the workload.

The benchmark runs on a shared host whose speed changes by a factor of
two and more between runs minutes apart, in CPU time as much as in wall
time, and not by the same factor for every kind of work: in one slow
spell interpreter work ran 2.3 times slower, process launches 3 times
and the solver's search 1.7 times.  Raw times therefore spread more
between runs of the same code than any bound a regression could be
judged by.  So between the calls it measures, the benchmark takes a
*sample* of the machine's speed with fixed work of its own, one piece
for each kind of work a call does, and reports each call's time at the
*reference speed*, the speed of that work on a quiet machine:

* the *kernel*, pure interpreter work (small ints, bit operations, tuples,
  dicts, a sort), for the time a call spends in this process;
* the *probe*, one round trip of the kind the solver makes: write a small
  temporary file, run ``cat`` on it with its output captured, delete it;
  for each solver launch;
* the *reference solve*: ``ref/minicdcl.c``, a copy of the bundled solver
  as it was when the benchmark was written, built at the start of the run,
  solving a fixed random 3-CNF of 150 variables (about 11 ms); for the
  CPU time of the solver processes beyond their launch.  It is a copy so
  that it does the same kind of search as the solver and does not change
  when the solver does.

A call that launched the solver ``n`` times is split into ``n`` launches,
the solver processes' CPU time beyond the launches and the rest, spent in
this process; each part is scaled by its own reference over the time its
piece of fixed work takes now.  On a quiet machine the result is the time
measured.  None of the fixed work runs majdim code, so a change to majdim
moves the times and not the reference.
"""

from __future__ import annotations

import gc
import os
import random
import resource
import shutil
import subprocess
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

# Median times on the reference machine (a quiet 2-core Linux VM,
# Python 3.11, gcc -O2) of one kernel, one probe and the CPU time of one
# reference solve beyond its launch, so that times at the reference speed
# read as seconds there.  CPU times use the same references: on a quiet
# machine each is its wall time.
KERNEL_S = 0.0094
PROBE_S = 0.00085
SOLVE_S = 0.0090
# A call starts with a fresh sample once this long has passed since the
# last one, so about a tenth of a round goes to the samples.
GAP_S = 0.2
KERNELS, PROBES = 2, 3  # kernels and probes in a sample
# A call is scaled by the mean of this many samples on each side of it.
SIDE = 2
_PROBE_TEXT = "p cnf 3 2\n1 2 0\n-1 3 0\n" * 40
_SOLVER_SOURCE = Path(__file__).resolve().parent / "ref" / "minicdcl.c"
_reference: list[str] = []  # the reference solve's command, once built


class Sample(NamedTuple):
    kernel_wall: float
    kernel_cpu: float
    probe_wall: float  # per probe
    probe_cpu: float  # per probe, this process and cat
    probe_child_cpu: float  # per probe, cat alone
    solve_cpu: float  # the reference solve beyond its launch


def cpu_seconds() -> tuple[float, float]:
    """CPU seconds of this process and its reaped children, and of the
    children alone."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    children = kids.ru_utime + kids.ru_stime
    return own.ru_utime + own.ru_stime + children, children


def build(directory: Path) -> None:
    """Build the reference solve in ``directory``; once, before any sample."""
    cc = next((c for c in ("cc", "gcc", "clang") if shutil.which(c)), None)
    if cc is None:
        raise RuntimeError("no C compiler for the reference solver")
    binary, cnf = directory / "refsolver", directory / "reference.cnf"
    subprocess.run([cc, "-O2", "-o", str(binary), str(_SOLVER_SOURCE)], check=True)
    rng = random.Random(2)
    clauses = []
    for _ in range(639):
        clauses.append(" ".join(str(v if rng.random() < 0.5 else -v)
                                for v in rng.sample(range(1, 151), 3)) + " 0\n")
    cnf.write_text("p cnf 150 639\n" + "".join(clauses))
    _reference[:] = [str(binary), str(cnf)]


def kernel() -> int:
    rows = [(i * 7919) % 4099 for i in range(20000)]
    seen: dict[tuple[int, int], int] = {}
    acc = 0
    for i, r in enumerate(rows):
        key = (r & 255, r >> 8)
        seen[key] = seen.get(key, 0) + 1
        acc ^= (r << (i & 15)) | (acc >> 3)
    order = sorted(seen.items(), key=lambda kv: (kv[1], kv[0]))
    return acc + len(order)


def probe() -> None:
    with tempfile.NamedTemporaryFile("w", suffix=".cnf", delete=False) as handle:
        handle.write(_PROBE_TEXT)
        path = handle.name
    try:
        proc = subprocess.run(["cat", path], capture_output=True, text=True)
    finally:
        os.unlink(path)
    if proc.stdout != _PROBE_TEXT:
        raise RuntimeError("speed probe: cat returned %r" % proc.stdout[:80])


def reference_solve() -> float:
    """Run the reference solve: the CPU seconds of the solver process."""
    child = cpu_seconds()[1]
    proc = subprocess.run(_reference, capture_output=True, text=True)
    if not proc.stdout.startswith("s SATISFIABLE"):
        raise RuntimeError("reference solve: %r" % proc.stdout[:80])
    return cpu_seconds()[1] - child


def measure() -> Sample:
    """One sample.  The cycle collector is off meanwhile: the fixed work
    makes no cycles, and a collection it happened to trigger would time
    the workload's heap."""
    gc.disable()
    try:
        wall, cpu = time.perf_counter(), time.process_time()
        for _ in range(KERNELS):
            kernel()
        kernel_wall = (time.perf_counter() - wall) / KERNELS
        kernel_cpu = (time.process_time() - cpu) / KERNELS
        wall, (cpu, child) = time.perf_counter(), cpu_seconds()
        for _ in range(PROBES):
            probe()
        probe_wall = (time.perf_counter() - wall) / PROBES
        cpu_after, child_after = cpu_seconds()
        probe_child = (child_after - child) / PROBES
        solve = reference_solve() - probe_child
    finally:
        gc.enable()
    return Sample(kernel_wall, kernel_cpu, probe_wall, (cpu_after - cpu) / PROBES,
                  probe_child, solve)


def warm_up() -> None:
    for _ in range(10):
        measure()


class Call(NamedTuple):
    before: int  # index of the sample taken last before the call
    wall: float
    cpu: float  # this process and its children
    child_cpu: float  # the children alone
    launches: int


class Timeline:
    """Samples and the calls timed between them, for one round.

    ``launches`` returns how many times the solver has been launched so
    far; it is read before and after each call."""

    def __init__(self, launches=lambda: 0):
        self.launches = launches
        self.samples: list[Sample] = []
        self.calls: list[Call] = []
        self._last = 0.0
        for _ in range(SIDE):
            self.sample()

    def sample(self) -> None:
        self.samples.append(measure())
        self._last = time.perf_counter()

    def call(self, fn, *args):
        """Time ``fn(*args)``; return its result and the call's index."""
        if time.perf_counter() - self._last >= GAP_S:
            self.sample()
        before = len(self.samples) - 1
        launched = self.launches()
        wall, (cpu, child) = time.perf_counter(), cpu_seconds()
        try:
            return fn(*args), len(self.calls)
        finally:
            cpu_after, child_after = cpu_seconds()
            self.calls.append(Call(before, time.perf_counter() - wall, cpu_after - cpu,
                                   child_after - child, self.launches() - launched))

    def close(self) -> None:
        for _ in range(SIDE):
            self.sample()

    def around(self, index: int) -> Sample:
        """The mean of the ``SIDE`` samples just before a call and the
        ``SIDE`` just after it.  The first one after is the next one
        taken, so ``close`` must have run."""
        before = self.calls[index].before
        near = self.samples[before + 1 - SIDE:before + 1 + SIDE]
        return Sample(*(sum(column) / len(near) for column in zip(*near)))

    def at_reference(self, index: int, share: float = 1.0,
                     wall: float | None = None) -> tuple[float, float]:
        """Wall and CPU seconds of call ``index`` at the reference speed.

        With ``share`` and ``wall``, of a part of the call instead: one
        that holds that share of the call's launches and solver CPU time
        and took ``wall`` seconds (an operation the program timed itself)."""
        call, s = self.calls[index], self.around(index)
        n = call.launches * share
        solver = max(call.child_cpu - call.launches * s.probe_child_cpu, 0.0) * share
        if not call.launches:
            # children of a call that launched no solver (the compiler, in
            # set-up) are scaled as the rest of the call
            solver = 0.0
        solver_ref = n * PROBE_S + solver * SOLVE_S / s.solve_cpu
        wall = call.wall if wall is None else wall
        cpu = call.cpu * share
        return (
            solver_ref + (wall - n * s.probe_wall - solver) * KERNEL_S / s.kernel_wall,
            solver_ref + (cpu - n * s.probe_cpu - solver) * KERNEL_S / s.kernel_cpu,
        )

    def totals(self) -> tuple[float, float, float, float]:
        """Raw wall, raw CPU, and both at the reference speed, summed over
        the round's calls (the samples' own time is in none of them)."""
        raw_wall = raw_cpu = wall = cpu = 0.0
        for i, call in enumerate(self.calls):
            rw, rc = self.at_reference(i)
            raw_wall, raw_cpu = raw_wall + call.wall, raw_cpu + call.cpu
            wall, cpu = wall + rw, cpu + rc
        return raw_wall, raw_cpu, wall, cpu
