"""Command-line dispatch: artifacts on disk and the exit-code contract.

0 = success / YES, 1 = domain NO, 2 = usage problem, 3 = infrastructure.
"""

import ast
import dataclasses
import json
import os
import shlex
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import majdim
from majdim import (
    CultureSpec,
    Digraph,
    Profile,
    check_k_majority,
    cli_dispatch,
    dimension,
    induces,
    majority_digraph,
    qr_tournament,
    sample,
    serialize_preflib_orders,
)
from majdim.cli import _build_parser
from majdim.digraph import digraph_to_text
from majdim.profiles import profile_from_text
from majdim.solver import bundled_solver_path

from conftest import HEX_NOT_2, TOURNAMENT_5


@pytest.fixture
def t5_file(tmp_path):
    p = tmp_path / "t5.dg"
    p.write_text(digraph_to_text(TOURNAMENT_5))
    return p


@pytest.fixture
def hex_file(tmp_path):
    p = tmp_path / "hexa.dg"
    p.write_text(digraph_to_text(HEX_NOT_2))
    return p


@pytest.fixture
def cnf_file(tmp_path):
    p = tmp_path / "tiny.cnf"
    p.write_text("p cnf 3 1\n1 2 3 0\n")
    return p


def test_check_yes_writes_witness(t5_file, tmp_path, capsys):
    wit = tmp_path / "w.prof"
    code = cli_dispatch(
        ["check", "--graph", str(t5_file), "-k", "3", "--witness", str(wit)]
    )
    assert code == 0
    profile = profile_from_text(wit.read_text())
    assert induces(profile, TOURNAMENT_5)
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"inducible": True, "k": 3}


def test_check_no_exits_one(hex_file, capsys):
    assert cli_dispatch(["check", "--graph", str(hex_file), "-k", "2"]) == 1
    assert json.loads(capsys.readouterr().out)["inducible"] is False


def test_check_parity_mismatch_reports_reason(t5_file, capsys):
    assert cli_dispatch(["check", "--graph", str(t5_file), "-k", "2"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["inducible"] is False and "odd" in payload["reason"]


def test_dim_matches_library(t5_file, hex_file, capsys):
    assert cli_dispatch(["dim", "--graph", str(t5_file)]) == 0
    assert json.loads(capsys.readouterr().out)["dim"] == dimension(TOURNAMENT_5).dim
    assert cli_dispatch(["dim", "--graph", str(hex_file)]) == 0
    assert json.loads(capsys.readouterr().out)["dim"] == 4


def test_dim_exhausted_bound_is_null(tmp_path, capsys):
    cyc = tmp_path / "cyc.dg"
    cyc.write_text("3 3\n0 1\n1 2\n2 0\n")
    assert cli_dispatch(["dim", "--graph", str(cyc), "--max-k", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["dim"] is None


def test_dim_out_overwrites_a_longer_file(t5_file, tmp_path, capsys):
    out = tmp_path / "dim.json"
    out.write_text("x" * 10000)
    assert cli_dispatch(["dim", "--graph", str(t5_file), "--out", str(out)]) == 0
    text = out.read_text()
    assert text.endswith("}\n") and "x" not in text
    assert json.loads(text)["dim"] == dimension(TOURNAMENT_5).dim


def test_dim_out_accepts_dev_null(t5_file, capsys):
    assert cli_dispatch(["dim", "--graph", str(t5_file), "--out", os.devnull]) == 0
    assert capsys.readouterr().out == ""


def test_dim_rejects_weighted_input(tmp_path, capsys):
    wg = tmp_path / "w.wdg"
    wg.write_text("2 1\n0 1 3\n")
    assert cli_dispatch(["dim", "--graph", str(wg)]) == 2


def test_dim_reads_preflib_orders(tmp_path, capsys):
    profile = sample(CultureSpec("ic", n=6, voters=5, seed=1))
    election = tmp_path / "e.soc"
    election.write_text(serialize_preflib_orders(profile))
    assert cli_dispatch(["dim", "--graph", str(election)]) == 0
    record = json.loads(capsys.readouterr().out)
    witness = Profile.of(6, *record["witness"])
    assert witness.k == record["dim"]
    assert induces(witness, majority_digraph(profile))


def test_dim_reports_decomposition_on_composite_input(tmp_path, capsys):
    # TOURNAMENT_5 substituted for one vertex of a 3-cycle: block -> 5 -> 6 -> block
    t = Digraph.from_arcs(
        7,
        TOURNAMENT_5.arcs() + [(5, 6)] + [(v, 5) for v in range(5)]
        + [(6, v) for v in range(5)],
    )
    path = tmp_path / "composite.dg"
    path.write_text(digraph_to_text(t))
    assert cli_dispatch(["dim", "--graph", str(path)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["dim"] == 3 and record["method"] == "decomposition"
    assert induces(Profile.of(7, *record["witness"]), t)


def test_missing_file_is_usage_error(tmp_path):
    assert cli_dispatch(["dim", "--graph", str(tmp_path / "nope.dg")]) == 2


@pytest.mark.parametrize(
    "name, arc", [("g.dg", "-1 0"), ("g.dg", "5 0"), ("w.wdg", "-1 5 2")]
)
def test_out_of_range_vertex_ids_are_usage_errors(name, arc, tmp_path, capsys):
    path = tmp_path / name
    path.write_text("3 1\n%s\n" % arc)
    assert cli_dispatch(["dim", "--graph", str(path)]) == 2
    assert "outside 0..2" in capsys.readouterr().err


def test_repeated_arc_line_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "g.dg"
    path.write_text("2 2\n0 1\n0 1\n")
    assert cli_dispatch(["dim", "--graph", str(path)]) == 2
    assert "arc (0, 1) listed twice" in capsys.readouterr().err


def test_indented_comment_does_not_make_a_file_weighted(tmp_path, capsys):
    path = tmp_path / "c3.dg"
    path.write_text("3 3\n  # u v\n0 1\n1 2\n2 0\n")
    assert cli_dispatch(["dim", "--graph", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["dim"] == 3


@pytest.mark.parametrize("timeout", ["0", "-1", "nan"])
@pytest.mark.parametrize("external", [False, True])
def test_non_positive_timeout_is_usage_error(
    timeout, external, tmp_path, monkeypatch, capsys
):
    if external:
        monkeypatch.setenv(
            "MAJDIM_SAT_SOLVER", shlex.quote(str(bundled_solver_path()))
        )
    else:
        monkeypatch.delenv("MAJDIM_SAT_SOLVER", raising=False)
    path = tmp_path / "c3.dg"
    path.write_text("3 3\n0 1\n1 2\n2 0\n")
    argv = ["check", "--graph", str(path), "-k", "3", "--timeout", timeout]
    assert cli_dispatch(argv) == 2
    assert "timeout must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("timeout", ["0", "-1", "-0.5", "nan"])
@pytest.mark.parametrize(
    "command",
    [["dim"], ["check", "-k", "1"], ["census", "--n", "3", "--k", "3"]],
    ids=["dim", "check", "census"],
)
def test_every_command_rejects_a_non_positive_timeout(
    command, timeout, tmp_path, capsys
):
    # a transitive 3-tournament: dim and check -k 1 answer it without a
    # solver call, so only the argument check can reject the timeout
    path = tmp_path / "t3.dg"
    path.write_text("3 3\n0 1\n1 2\n0 2\n")
    if command[0] != "census":
        command = command + ["--graph", str(path)]
    assert cli_dispatch(command + ["--timeout", timeout]) == 2
    assert "timeout must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_census_rejects_fewer_than_one_job(jobs, capsys):
    argv = ["census", "--n", "3", "--k", "3", "--jobs", jobs]
    assert cli_dispatch(argv) == 2
    assert "jobs must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("size", ["0", "-1"])
def test_gadget_rejects_component_size_below_one(size, cnf_file, capsys):
    argv = ["gadget", "--rule", "slater", "--cnf", str(cnf_file),
            "--component-size", size]
    assert cli_dispatch(argv) == 2
    err = capsys.readouterr().err
    assert "component-size must be at least 1" in err
    assert "formula not admissible" not in err


def test_dim_timeout_exits_three(tmp_path, capsys):
    path = tmp_path / "q19.dg"
    path.write_text(digraph_to_text(qr_tournament(19)))
    assert cli_dispatch(["dim", "--graph", str(path), "--timeout", "0.2"]) == 3
    assert capsys.readouterr().err.startswith("timeout:")


def test_unusable_solver_cache_exits_three(t5_file, tmp_path, monkeypatch, capsys):
    blocker = tmp_path / "plain"
    blocker.write_text("")
    monkeypatch.setenv("MAJDIM_CACHE", str(blocker / "cache"))
    monkeypatch.delenv("MAJDIM_SAT_SOLVER", raising=False)
    assert cli_dispatch(["dim", "--graph", str(t5_file)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver failure:") and "Not a directory" in err


@pytest.mark.parametrize(
    "value, message",
    [
        (" ", "MAJDIM_SAT_SOLVER"),
        ("'x", "MAJDIM_SAT_SOLVER"),
        ("no-such-majdim-solver", "SAT backend 'no-such-majdim-solver' not found"),
    ],
)
def test_unusable_backend_variable_exits_three(
    t5_file, value, message, monkeypatch, capsys
):
    monkeypatch.setenv("MAJDIM_SAT_SOLVER", value)
    assert cli_dispatch(["dim", "--graph", str(t5_file)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver failure:") and message in err


def test_external_backend_answers_check(t5_file, monkeypatch, capsys):
    monkeypatch.setenv("MAJDIM_SAT_SOLVER", shlex.quote(str(bundled_solver_path())))
    assert cli_dispatch(["check", "--graph", str(t5_file), "-k", "3"]) == 0
    witness = Profile.of(5, *json.loads(capsys.readouterr().out)["witness"])
    assert induces(witness, TOURNAMENT_5)


def _fake_backend(tmp_path, monkeypatch, body):
    """Point MAJDIM_SAT_SOLVER at a Python script running ``body``."""
    script = tmp_path / "fake_solver.py"
    script.write_text("import os, resource, signal, sys\n" + body)
    monkeypatch.setenv(
        "MAJDIM_SAT_SOLVER", shlex.join([sys.executable, str(script)])
    )


@pytest.fixture
def c3_file(tmp_path):
    p = tmp_path / "c3.dg"
    p.write_text("3 3\n0 1\n1 2\n2 0\n")
    return p


@pytest.mark.parametrize(
    "ending, message",
    [
        (
            # no core file from the deliberate crash
            "resource.setrlimit(resource.RLIMIT_CORE, (0, 0))\n"
            "os.kill(os.getpid(), signal.SIGSEGV)",
            "backend was killed by signal %d" % signal.SIGSEGV,
        ),
        ("sys.exit(1)", "backend exited with code 1"),
    ],
    ids=["sigsegv", "exit-1"],
)
def test_crashed_backend_verdict_is_not_trusted(
    ending, message, c3_file, tmp_path, monkeypatch, capsys
):
    body = 'print("s UNSATISFIABLE", flush=True)\n' + ending + "\n"
    _fake_backend(tmp_path, monkeypatch, body)
    assert cli_dispatch(["check", "--graph", str(c3_file), "-k", "3"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver failure:") and message in err


def test_wrong_backend_model_exits_three(c3_file, tmp_path, monkeypatch, capsys):
    _fake_backend(tmp_path, monkeypatch, 'print("s SATISFIABLE")\nprint("v 1 0")\n')
    assert cli_dispatch(["dim", "--graph", str(c3_file)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver failure:") and err.count("\n") == 1
    # rejected where it is parsed, before decoding could read it
    assert "backend model assigns" in err and "induce" not in err


def test_unknown_subcommand_is_usage_error(capsys):
    assert cli_dispatch(["frobnicate"]) == 2
    capsys.readouterr()


def test_bounds_prints_bare_value(capsys):
    assert cli_dispatch(["bounds", "--k", "3"]) == 0
    assert capsys.readouterr().out.strip() == "18"


def test_bounds_table_output(capsys):
    assert cli_dispatch(["bounds", "--k", "3", "--k-max", "7"]) == 0
    assert json.loads(capsys.readouterr().out) == {"3": 18, "5": 41, "7": 66}


def test_census_csv(tmp_path, capsys):
    out = tmp_path / "c.csv"
    code = cli_dispatch(
        ["census", "--n", "4", "--k", "3", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "canonical_key,n,k,inducible,method,seconds"
    assert len(lines) == 5
    summary = json.loads(capsys.readouterr().out)
    assert summary["inducible"] == 4 and summary["failures"] == []


def test_census_with_two_jobs_matches_one(capsys):
    outputs = []
    for jobs in ("1", "2"):
        assert cli_dispatch(["census", "--n", "4", "--k", "3", "--jobs", jobs]) == 0
        rows = capsys.readouterr().out.splitlines()
        outputs.append([row.rsplit(",", 1)[0] for row in rows])  # drop seconds
    assert outputs[0] == outputs[1] and len(outputs[0]) == 5


def test_sample_requires_seed(tmp_path, capsys):
    code = cli_dispatch(["sample", "--model", "ic", "--n", "4"])
    capsys.readouterr()
    assert code == 2


def test_sample_writes_content_and_sidecar(tmp_path, capsys):
    out = tmp_path / "p.prof"
    code = cli_dispatch(
        [
            "sample", "--model", "mallows", "--n", "5", "--voters", "7",
            "--phi", "0.5", "--seed", "42", "--out", str(out),
        ]
    )
    assert code == 0
    profile = profile_from_text(out.read_text())
    assert profile.n == 5 and profile.k == 7
    sidecar = json.loads((tmp_path / "p.prof.json").read_text())
    assert sidecar == {
        "model": "mallows", "n": 5, "voters": 7, "phi": 0.5, "seed": 42,
    }
    capsys.readouterr()


def test_sample_qr_writes_the_paley_tournament(capsys):
    assert cli_dispatch(["sample", "--model", "qr", "--n", "7", "--seed", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["metadata"] == {"model": "qr", "p": 7, "seed": 0}
    assert payload["content"] == digraph_to_text(qr_tournament(7))


def test_sample_is_reproducible(tmp_path, capsys):
    a, b = tmp_path / "a.prof", tmp_path / "b.prof"
    for out in (a, b):
        assert cli_dispatch(
            ["sample", "--model", "ic", "--n", "5", "--seed", "7",
             "--out", str(out)]
        ) == 0
    capsys.readouterr()
    assert a.read_text() == b.read_text()


def test_sweep_prints_one_row_per_cell(capsys):
    argv = ["sweep", "--models", "uniform_tournament", "ic", "--n", "5", "7",
            "--samples", "3"]
    assert cli_dispatch(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "model,n,samples,mean_dim,min_dim,max_dim,seconds"
    rows = [line.split(",") for line in lines[1:]]
    cells = [(model, int(n)) for model, n, *_ in rows]
    assert cells == [("uniform_tournament", 5), ("uniform_tournament", 7),
                     ("ic", 5), ("ic", 7)]
    for _, _, samples, mean, low, high, _ in rows:
        assert int(samples) == 3
        assert int(low) % 2 == 1 and int(high) % 2 == 1
        assert int(low) <= float(mean) <= int(high)


def test_sweep_rejects_an_even_electorate(capsys):
    code = cli_dispatch(["sweep", "--models", "ic", "--n", "5", "--voters", "4"])
    assert code == 2
    assert "error: voters must be odd" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["sample", "--model", "ic", "--n", "5", "--seed", "0"], ["sweep"]]
)
def test_culture_defaults_are_those_of_culture_spec(argv):
    args = _build_parser().parse_args(argv)
    defaults = {f.name: f.default for f in dataclasses.fields(CultureSpec)}
    for name in ("voters", "phi", "dims"):
        assert getattr(args, name) == defaults[name]


def test_gadget_artifacts_verify(cnf_file, tmp_path, capsys):
    graph = tmp_path / "g.dg"
    prof = tmp_path / "g.prof"
    trace = tmp_path / "g.json"
    code = cli_dispatch(
        [
            "gadget", "--rule", "banks", "--cnf", str(cnf_file),
            "--out-graph", str(graph), "--out-profile", str(prof),
            "--out-trace", str(trace),
        ]
    )
    assert code == 0
    capsys.readouterr()
    payload = json.loads(trace.read_text())
    assert payload["rule"] == "banks"
    assert payload["voters"] == 5
    assert payload["decision_vertex"] == 0
    assert [b["name"] for b in payload["blocks"]] == ["E1", "E2", "completion"]
    assert cli_dispatch(
        ["verify", "--graph", str(graph), "--profile", str(prof)]
    ) == 0
    capsys.readouterr()


def test_gadget_weighted_rule_round_trips(cnf_file, tmp_path, capsys):
    graph = tmp_path / "r.wdg"
    prof = tmp_path / "r.prof"
    code = cli_dispatch(
        [
            "gadget", "--rule", "rp-digraph", "--cnf", str(cnf_file),
            "--out-graph", str(graph), "--out-profile", str(prof),
        ]
    )
    assert code == 0
    capsys.readouterr()
    assert cli_dispatch(
        ["verify", "--graph", str(graph), "--profile", str(prof)]
    ) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "rule_args",
    [["kemeny", "--graph"], ["slater", "--component-size", "2", "--cnf"]],
    ids=["kemeny", "slater-component-size-2"],
)
def test_gadget_other_inputs_verify(
    rule_args, t5_file, cnf_file, tmp_path, capsys
):
    source = t5_file if rule_args[0] == "kemeny" else cnf_file
    graph = tmp_path / "g.dg"
    prof = tmp_path / "g.prof"
    code = cli_dispatch(
        ["gadget", "--rule", *rule_args, str(source),
         "--out-graph", str(graph), "--out-profile", str(prof)]
    )
    assert code == 0
    capsys.readouterr()
    assert cli_dispatch(
        ["verify", "--graph", str(graph), "--profile", str(prof)]
    ) == 0
    capsys.readouterr()


def test_gadget_inadmissible_formula_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.cnf"
    bad.write_text("p cnf 2 2\n-1 2 0\n1 -2 0\n")  # unordered
    code = cli_dispatch(["gadget", "--rule", "banks", "--cnf", str(bad)])
    capsys.readouterr()
    assert code == 2


def test_verify_mismatch_exits_one(t5_file, tmp_path, capsys):
    prof = tmp_path / "wrong.prof"
    prof.write_text("5 1\n0 1 2 3 4\n")
    code = cli_dispatch(
        ["verify", "--graph", str(t5_file), "--profile", str(prof)]
    )
    assert code == 1
    assert json.loads(capsys.readouterr().out) == {"induces": False}


def test_transform_emits_dimacs(cnf_file, tmp_path, capsys):
    out = tmp_path / "rf.cnf"
    code = cli_dispatch(
        ["transform", "--to", "reducedfew", "--cnf", str(cnf_file),
         "--out", str(out)]
    )
    assert code == 0
    assert out.read_text().startswith("p cnf")
    meta = json.loads(capsys.readouterr().out)
    assert meta["target"] == "reducedfew" and meta["reduced_few"] is True


def test_transform_rejects_a_negative_variable_count(tmp_path, capsys):
    cnf = tmp_path / "neg.cnf"
    cnf.write_text("p cnf -3 0\n")
    code = cli_dispatch(["transform", "--to", "ordered3", "--cnf", str(cnf)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: negative variable count -3" in captured.err


def test_check_exit_codes_agree_with_library(tmp_path, capsys):
    graphs = [
        Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)]),
        Digraph.from_arcs(4, [(0, 1), (2, 3)]),
        HEX_NOT_2,
        TOURNAMENT_5,
    ]
    for idx, g in enumerate(graphs):
        k = 3 if g.is_tournament() else 2
        path = tmp_path / ("g%d.dg" % idx)
        path.write_text(digraph_to_text(g))
        code = cli_dispatch(["check", "--graph", str(path), "-k", str(k)])
        capsys.readouterr()
        expected = 0 if check_k_majority(g, k) is not None else 1
        assert code == expected


_RUNTIME_IMPORTS = """
import sys
before = set(sys.modules)
import majdim
majdim.cli_dispatch(["bounds", "--k", "3"])
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(sorted(loaded - set(sys.stdlib_module_names) - {"majdim"}))
"""


def _source_env() -> dict:
    """This environment, with the tested package's source first on the path."""
    src = str(Path(majdim.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_runtime_imports_only_the_standard_library():
    proc = subprocess.run(
        [sys.executable, "-c", _RUNTIME_IMPORTS],
        capture_output=True,
        text=True,
        env=_source_env(),
        check=True,
    )
    assert proc.stdout.splitlines() == ["18", "[]"]


def test_module_entry_point_exits_with_the_answer(tmp_path):
    path = tmp_path / "c3.dg"
    path.write_text("3 3\n0 1\n1 2\n2 0\n")
    proc = subprocess.run(
        [sys.executable, "-m", "majdim", "dim", "--graph", str(path)],
        capture_output=True,
        text=True,
        env=_source_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert '"dim": 3' in proc.stdout


def test_sources_parse_as_python_3_10():
    # pyproject promises Python >= 3.10; newer syntax would break there
    src = Path(majdim.__file__).resolve().parent
    files = sorted(src.rglob("*.py"))
    assert files
    for path in files:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))
