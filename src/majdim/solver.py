"""The bundled SAT solver, in-process or as a child process.

The bundled solver is a small CDCL solver (``backend/minicdcl.c``).  On
first use it is compiled once as a position-independent object and linked
twice, as an executable and as a shared library, both cached under
``~/.cache/majdim`` (or ``MAJDIM_CACHE``).  A formula of at most
``IN_PROCESS_CLAUSES`` clauses is solved in-process: its DIMACS text goes
to the library's ``mc_solve`` through ``ctypes``, which releases the GIL
while it searches, so census worker threads run side by side.  A larger
formula runs the executable as a child process on a temporary DIMACS file,
so that the learnt clauses of a long search never count in the caller's
memory.

Any solver that reads a DIMACS CNF file argument and prints
``s SATISFIABLE`` / ``s UNSATISFIABLE`` plus ``v`` model lines works as a
backend.  The ``MAJDIM_SAT_SOLVER`` environment variable (shell-style, may
include arguments) names one; every formula then goes to it as a child
process.
"""

from __future__ import annotations

import functools
import hashlib
import os
import shlex
import shutil
import subprocess
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from .cnf import CnfFormula, to_dimacs

ENV_BACKEND = "MAJDIM_SAT_SOLVER"
_SOURCE = Path(__file__).parent / "backend" / "minicdcl.c"

# Above this many clauses the bundled solver runs as a child process.  By
# then encoding and DIMACS cost several launches, and a long search there
# (Q_19 at k = 5 has 15k clauses) keeps its learnt clauses out of our RSS.
IN_PROCESS_CLAUSES = 4096

# The counts a bundled solve reports, in mc_solve's stats[] order; the
# executable prints them as "c conflicts N" lines.
STATS = ("conflicts", "decisions", "restarts")

# mc_solve's return codes, as minicdcl.c defines them
_MC_SAT, _MC_UNSAT = 10, 20
_MC_ERRORS = {
    -1: "out of memory",
    -2: "internal error: missing reason",
    -3: "malformed DIMACS input",
}

_loaded: dict[Path, object] = {}  # mc_solve of each loaded library


class SolverError(RuntimeError):
    """Backend missing, crashed, or spoke an unintelligible protocol."""


@dataclass(frozen=True)
class SolveResult:
    status: str  # "sat" | "unsat" | "timeout"
    model: dict[int, bool] | None = field(default=None, compare=False)
    # conflicts, decisions and restarts of the bundled solver; None when
    # the backend reports none
    stats: dict[str, int] | None = field(default=None, compare=False)

    @property
    def is_sat(self) -> bool:
        return self.status == "sat"

    @property
    def is_unsat(self) -> bool:
        return self.status == "unsat"


@functools.cache
def _source_tag() -> str:
    return hashlib.sha256(_SOURCE.read_bytes()).hexdigest()[:16]


def _cached(prefix: str, suffix: str = "") -> Path:
    cache = Path(os.environ.get("MAJDIM_CACHE", Path.home() / ".cache" / "majdim"))
    return cache / (prefix + _source_tag() + suffix)


def _build() -> None:
    """Compile the bundled solver into the cache: one object, two links."""
    cc = next(
        (c for c in ("cc", "gcc", "clang") if shutil.which(c)), None
    )
    if cc is None:
        raise SolverError(
            "no SAT backend: set %s to a DIMACS solver or install a C compiler "
            "for the bundled one" % ENV_BACKEND
        )
    binary, library = _cached("minicdcl-"), _cached("libminicdcl-", ".so")
    try:
        binary.parent.mkdir(parents=True, exist_ok=True)
        # concurrent builds each use their own directory and race benignly
        with tempfile.TemporaryDirectory(dir=binary.parent) as tmp:
            obj, lib, exe = (Path(tmp) / name for name in ("mc.o", "mc.so", "mc"))
            for args in (
                ["-O2", "-fPIC", "-c", "-o", obj, _SOURCE],
                ["-shared", "-o", lib, obj],
                ["-o", exe, obj],
            ):
                proc = subprocess.run(
                    [cc, *map(str, args)], capture_output=True, text=True
                )
                if proc.returncode != 0:
                    raise SolverError("backend compilation failed:\n" + proc.stderr)
            # library first, so that an executable in the cache implies it
            os.replace(lib, library)
            os.replace(exe, binary)
    except OSError as exc:
        raise SolverError("cannot build the bundled solver: %s" % exc) from exc


def bundled_solver_path() -> Path:
    """Compile (once) the bundled solver; return its executable."""
    binary = _cached("minicdcl-")
    if not binary.exists():
        _build()
    return binary


def _mc_solve():
    """The library's ``mc_solve``, built and loaded on first use."""
    library = _cached("libminicdcl-", ".so")
    fn = _loaded.get(library)
    if fn is None:
        if not library.exists():
            _build()
        import ctypes

        try:
            fn = ctypes.CDLL(str(library)).mc_solve
        except (OSError, AttributeError) as exc:
            raise SolverError(
                "cannot load the bundled solver library: %s" % exc
            ) from exc
        fn.restype = ctypes.c_int
        fn.argtypes = (
            ctypes.c_char_p, ctypes.c_size_t, ctypes.c_double,
            ctypes.c_char_p, ctypes.c_size_t, ctypes.POINTER(ctypes.c_longlong),
        )
        _loaded[library] = fn
    return fn


def backend_command() -> list[str]:
    env = os.environ.get(ENV_BACKEND)
    if not env:
        return [str(bundled_solver_path())]
    try:
        cmd = shlex.split(env)
    except ValueError as exc:
        raise SolverError(
            "cannot parse %s=%r: %s" % (ENV_BACKEND, env, exc)
        ) from exc
    if not cmd:
        raise SolverError("%s=%r names no command" % (ENV_BACKEND, env))
    return cmd


def solve(f: CnfFormula, timeout: float | None = None) -> SolveResult:
    """Decide ``f``.  TIMEOUT is a result, not an error.

    The bundled solver takes ``f`` in-process when it has at most
    ``IN_PROCESS_CLAUSES`` clauses; a larger ``f``, or any ``f`` when
    ``MAJDIM_SAT_SOLVER`` is set, goes to a child process.  A ``timeout``
    must be positive; None means no limit.
    """
    if timeout is not None and not timeout > 0:  # NaN too
        raise ValueError("timeout must be positive, got %g s" % timeout)
    if not os.environ.get(ENV_BACKEND) and len(f.clauses) <= IN_PROCESS_CLAUSES:
        return _solve_in_process(to_dimacs(f), f.num_vars, timeout)
    return _solve_in_child(f, timeout)


def _solve_in_process(
    text: str, num_vars: int, timeout: float | None
) -> SolveResult:
    """Run the bundled library on DIMACS ``text`` declaring ``num_vars``."""
    import ctypes

    mc_solve = _mc_solve()
    data = text.encode("ascii")
    model = ctypes.create_string_buffer(num_vars + 1)
    counts = (ctypes.c_longlong * len(STATS))()
    code = mc_solve(
        data, len(data), -1.0 if timeout is None else timeout,
        model, len(model), counts,
    )
    if code < 0:
        raise SolverError(
            "bundled solver failed: %s" % _MC_ERRORS.get(code, "code %d" % code)
        )
    stats = dict(zip(STATS, counts))
    if code == _MC_SAT:
        raw = model.raw
        return SolveResult(
            "sat", {v: raw[v] == 1 for v in range(1, num_vars + 1)}, stats
        )
    return SolveResult("unsat" if code == _MC_UNSAT else "timeout", stats=stats)


def _solve_in_child(f: CnfFormula, timeout: float | None) -> SolveResult:
    """Run the backend command on a temporary DIMACS file of ``f``."""
    cmd = backend_command()
    if not shutil.which(cmd[0]) and not Path(cmd[0]).exists():
        raise SolverError("SAT backend %r not found" % cmd[0])
    try:
        with tempfile.NamedTemporaryFile(
            "w", suffix=".cnf", prefix="majdim-", delete=False
        ) as handle:
            handle.write(to_dimacs(f))
            path = handle.name
    except OSError as exc:
        raise SolverError("cannot write the formula file: %s" % exc) from exc
    try:
        try:
            proc = subprocess.run(
                cmd + [path], capture_output=True, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired:
            return SolveResult("timeout")
        except OSError as exc:
            raise SolverError("failed to launch SAT backend: %s" % exc)
        return _parse_output(proc.stdout, proc.returncode, proc.stderr)
    finally:
        os.unlink(path)


def _parse_output(stdout: str, returncode: int, stderr: str) -> SolveResult:
    status = None
    model_lits: list[int] = []
    stats: dict[str, int] = {}
    for line in stdout.splitlines():
        line = line.strip()
        if line.startswith("s "):
            word = line[2:].strip().upper()
            if word == "SATISFIABLE":
                status = "sat"
            elif word == "UNSATISFIABLE":
                status = "unsat"
            else:
                raise SolverError("backend status %r not understood" % line)
        elif line.startswith("v ") or line == "v":
            model_lits += [int(tok) for tok in line[1:].split()]
        elif line.startswith("c "):
            # the bundled executable's counts; other comments are ignored
            parts = line.split()
            if len(parts) == 3 and parts[1] in STATS and parts[2].isdigit():
                stats[parts[1]] = int(parts[2])
    if status is None:
        raise SolverError(
            "backend produced no status line (exit %d): %s"
            % (returncode, (stderr or stdout)[:500])
        )
    if status == "unsat":
        return SolveResult("unsat", stats=stats or None)
    model: dict[int, bool] = {}
    for lit in model_lits:
        if lit == 0:
            continue
        model[abs(lit)] = lit > 0
    return SolveResult("sat", model, stats or None)
