"""Subprocess driver for DIMACS SAT backends.

Any solver that reads a DIMACS CNF file argument and prints
``s SATISFIABLE`` / ``s UNSATISFIABLE`` plus ``v`` model lines works as a
backend.  The ``MAJDIM_SAT_SOLVER`` environment variable (shell-style, may
include arguments) names one; otherwise the bundled CDCL solver is used,
which is compiled from the shipped C source on first use and cached under
``~/.cache/majdim``.
"""

from __future__ import annotations

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


class SolverError(RuntimeError):
    """Backend missing, crashed, or spoke an unintelligible protocol."""


@dataclass(frozen=True)
class SolveResult:
    status: str  # "sat" | "unsat" | "timeout"
    model: dict[int, bool] | None = field(default=None, compare=False)

    @property
    def is_sat(self) -> bool:
        return self.status == "sat"

    @property
    def is_unsat(self) -> bool:
        return self.status == "unsat"


def bundled_solver_path() -> Path:
    """Compile (once) and return the bundled solver binary."""
    source = _SOURCE.read_bytes()
    tag = hashlib.sha256(source).hexdigest()[:16]
    cache = Path(os.environ.get("MAJDIM_CACHE", Path.home() / ".cache" / "majdim"))
    binary = cache / ("minicdcl-" + tag)
    if binary.exists():
        return binary
    cc = next(
        (c for c in ("cc", "gcc", "clang") if shutil.which(c)), None
    )
    if cc is None:
        raise SolverError(
            "no SAT backend: set %s to a DIMACS solver or install a C compiler "
            "for the bundled one" % ENV_BACKEND
        )
    tmp = binary.with_suffix(".tmp%d" % os.getpid())
    try:
        cache.mkdir(parents=True, exist_ok=True)
        proc = subprocess.run(
            [cc, "-O2", "-o", str(tmp), str(_SOURCE)],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            raise SolverError("backend compilation failed:\n" + proc.stderr)
        os.replace(tmp, binary)  # atomic; concurrent compiles just race benignly
    except OSError as exc:
        raise SolverError("cannot build the bundled solver: %s" % exc) from exc
    return binary


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
    """Run the backend on ``f``.  TIMEOUT is a result, not an error."""
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
    if status is None:
        raise SolverError(
            "backend produced no status line (exit %d): %s"
            % (returncode, (stderr or stdout)[:500])
        )
    if status == "unsat":
        return SolveResult("unsat")
    model: dict[int, bool] = {}
    for lit in model_lits:
        if lit == 0:
            continue
        model[abs(lit)] = lit > 0
    return SolveResult("sat", model)
