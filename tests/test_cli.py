"""Command line behavior: exit codes, output shapes, byte stability."""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import drinfeld_forge
from drinfeld_forge import cli
from drinfeld_forge.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
PERFBENCH_CHILD = GOLDEN.parent.parent / "perfbench" / "child.py"
PERFBENCH_TESTS = PERFBENCH_CHILD.parent / "tests" / "test_perfbench.py"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_all_passes(capsys):
    code, out, err = run(capsys, "verify", "--series", "A", "--rank", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1].endswith("all passed")
    for name in ("jacobi", "closure", "pairing", "reconstruction",
                 "compatibility", "selfdual", "forminv", "delta-agree",
                 "cocycle", "cojacobi", "subbialg", "coboundary", "cybe",
                 "twist", "chain", "rep-fermionic", "rep-bosonic",
                 "casimir-form"):
        assert any(line.startswith(f"PASS {name}") for line in lines), name


def test_verify_subset(capsys):
    code, out, _ = run(capsys, "verify", "--series", "C", "--rank", "1",
                       "--checks", "jacobi,cybe")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3


def test_verify_failure_exit_code(capsys):
    code, out, _ = run(capsys, "verify", "--series", "B", "--rank", "2",
                       "--checks", "subbialg", "--sub", "Dn")
    assert code == 1
    assert "FAIL subbialg" in out


def test_bare_chain_fails_via_cli(capsys):
    code, out, _ = run(capsys, "verify", "--series", "A", "--rank", "2",
                       "--checks", "subbialg", "--sub", "An")
    assert code == 1
    code, out, _ = run(capsys, "verify", "--series", "A", "--rank", "2",
                       "--checks", "subbialg", "--sub", "Anc")
    assert code == 0


def test_json_report_shape(capsys):
    code, out, _ = run(capsys, "verify", "--series", "D", "--rank", "2",
                       "--checks", "closure,cybe", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["series"] == "D"
    assert payload["passed"] is True
    assert [r["check"] for r in payload["reports"]] == ["closure", "cybe"]
    assert all(r["pass"] for r in payload["reports"])


def test_rank_validation_exit_two(capsys):
    code, _, err = run(capsys, "verify", "--series", "D", "--rank", "1")
    assert code == 2
    assert "rank" in err


def test_unknown_check_exit_two(capsys):
    code, _, err = run(capsys, "verify", "--series", "A", "--rank", "1",
                       "--checks", "nope")
    assert code == 2
    assert "unknown check" in err


@pytest.mark.parametrize("checks", [",", "", " , "])
def test_empty_check_list_exit_two(capsys, checks):
    code, out, err = run(capsys, "verify", "--series", "A", "--rank", "1",
                         "--checks", checks)
    assert code == 2
    assert "no checks selected" in err
    assert out == ""


def test_mixed_spec_rejects_canonical_only_checks(capsys):
    code, _, err = run(capsys, "verify", "--series", "D", "--rank", "2",
                       "--spec", "mixed:pairs=1-2", "--checks", "twist")
    assert code == 2
    assert "needs the canonical splitting" in err
    code, _, err = run(capsys, "verify", "--series", "D", "--rank", "2",
                       "--spec", "mixed:pairs=1-2", "--checks", "subbialg",
                       "--sub", "An")
    assert code == 2


def test_mixed_spec_full_battery_skips_canonical_only(capsys):
    # twist alone is skipped; delta-agree covers every splitting
    code, out, _ = run(capsys, "verify", "--series", "D", "--rank", "2",
                       "--spec", "mixed:pairs=1-2")
    assert code == 0
    assert any(line.startswith("PASS delta-agree")
               for line in out.splitlines())
    assert "twist" not in out


def test_chain_under_mixed_spec_is_the_canonical_chain(capsys):
    # `chain` checks the canonical rank n -> n+1 embedding whatever the
    # splitting, so a mixed spec reports exactly what the canonical run does
    reports = []
    for spec in ("canonical", "mixed:pairs=1-2"):
        code, out, _ = run(capsys, "verify", "--series", "D", "--rank", "3",
                           "--checks", "chain", "--spec", spec, "--json")
        assert code == 0
        reports.append(json.loads(out)["reports"])
    assert reports[0] == reports[1]
    assert [r["check"] for r in reports[0]] == ["chain"]


def test_bad_spec_exit_two(capsys):
    code, _, err = run(capsys, "verify", "--series", "A", "--rank", "2",
                       "--spec", "mixed:pairs=1-2;central=9")
    assert code == 2


def test_unwritable_out_exit_three(capsys):
    for command in (["export", "--what", "pairing"],
                    ["verify", "--checks", "jacobi"]):
        code, out, err = run(capsys, *command, "--series", "A", "--rank",
                             "1", "--out", "/nonexistent/dir/x.txt")
        assert code == 3, command
        assert out == ""
        assert "cannot write /nonexistent/dir/x.txt" in err


def test_build_payload(capsys):
    code, out, _ = run(capsys, "build", "--series", "C", "--rank", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["basis"] == ["H1", "I1", "P1,1", "Q1,1"]
    assert payload["dimension"] == 4
    assert payload["spec"]["mode"] == "canonical"
    splus = payload["splitting"]["splus"]
    assert splus[0]["gen"] == "X1"
    pairing = payload["splitting"]["pairing"]
    assert all(entry["value"] == ["1", "0", "0", "0"] for entry in pairing)


def test_build_mixed_payload(capsys):
    code, out, _ = run(capsys, "build", "--series", "D", "--rank", "2",
                       "--spec", "mixed:pairs=1-2")
    assert code == 0
    payload = json.loads(out)
    assert payload["spec"]["mode"] == "mixed"
    assert "I1" not in payload["basis"]
    assert payload["dimension"] == 6


@pytest.mark.parametrize("what", ["brackets", "delta", "rmatrix", "pairing",
                                  "matrices"])
def test_exports_are_byte_stable(capsys, what):
    _, first, _ = run(capsys, "export", "--series", "B", "--rank", "2",
                      "--what", what)
    _, second, _ = run(capsys, "export", "--series", "B", "--rank", "2",
                       "--what", what)
    assert first == second
    assert first


def test_bosonic_matrices_export_golden(capsys):
    code, out, _ = run(capsys, "export", "--series", "C", "--rank", "1",
                       "--what", "matrices", "--cutoff", "2")
    assert code == 0
    # occupation basis: b+|n> = |n+1>, b|n> = n|n-1>
    assert out == ("# bosonic space_dim 3 cutoff 2\n"
                   "gen H1\n"
                   "0 0 1/2 0 0 0\n"
                   "1 1 3/2 0 0 0\n"
                   "2 2 5/2 0 0 0\n"
                   "gen I1\n"
                   "0 0 1 0 0 0\n"
                   "1 1 1 0 0 0\n"
                   "2 2 1 0 0 0\n"
                   "gen P1,1\n"
                   "2 0 0 0 1/2 0\n"
                   "gen Q1,1\n"
                   "0 2 0 0 -1 0\n")


@pytest.mark.parametrize("name,argv", [
    ("B2", ["--series", "B", "--rank", "2"]),
    ("A2_cutoff3", ["--series", "A", "--rank", "2", "--cutoff", "3"]),
])
def test_matrices_export_golden(capsys, name, argv):
    # recorded while the builders still multiplied Jordan-Wigner and
    # occupation matrices: applying the polynomials changes no byte
    code, out, _ = run(capsys, "export", "--what", "matrices", *argv)
    assert code == 0
    assert out == (GOLDEN / f"export_matrices_{name}.txt").read_text()


@pytest.mark.parametrize("series", ["A", "C"])
def test_rep_casimir_json_golden(capsys, series):
    # recorded before the rep and Casimir checks computed only the
    # protected columns: the reports must not change by a byte
    code, out, _ = run(capsys, "verify", "--series", series, "--rank", "2",
                       "--checks", "rep,casimir", "--json", "--cutoff", "4")
    assert code == 0
    golden = GOLDEN / f"verify_rep_casimir_{series}2_cutoff4.json"
    assert out == golden.read_text()


def test_export_out_file(tmp_path, capsys):
    target = tmp_path / "table.txt"
    code, out, _ = run(capsys, "export", "--series", "A", "--rank", "1",
                       "--what", "brackets", "--out", str(target))
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert text.startswith("series A rank 1")
    assert "[F1,2, F2,1]" in text


def test_config_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"series": "A", "rank": 1,
                               "checks": "jacobi"}))
    code, out, _ = run(capsys, "verify", "--config", str(cfg))
    assert code == 0
    assert out.startswith("PASS jacobi")
    # command line still wins
    code, out, _ = run(capsys, "verify", "--config", str(cfg),
                       "--checks", "cybe")
    assert code == 0
    assert out.startswith("PASS cybe")


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"series": "A", "rank": 1, "bogus": 3}))
    code, _, err = run(capsys, "verify", "--config", str(cfg))
    assert code == 2
    assert "unknown config keys" in err
    # `export --what` is required on the command line, so a config `what`
    # would never be read
    cfg.write_text(json.dumps({"series": "A", "rank": 1,
                               "what": "brackets"}))
    code, out, err = run(capsys, "export", "--what", "brackets",
                         "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "unknown config keys: what" in err


def test_unreadable_config_exit_two(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    code, out, err = run(capsys, "verify", "--config", str(missing))
    assert code == 2
    assert out == ""
    assert f"cannot read config {missing}" in err
    listed = tmp_path / "list.json"
    listed.write_text(json.dumps(["series", "A"]))
    code, out, err = run(capsys, "verify", "--config", str(listed))
    assert code == 2
    assert out == ""
    assert "config must be a JSON object" in err


@pytest.mark.parametrize("key,value", [("cutoff", 2.5), ("cutoff", [3]),
                                       ("spec", 3), ("json", "false"),
                                       ("rank", True), ("sub", "bogus"),
                                       ("series", "Z")])
def test_config_rejects_malformed_values(tmp_path, capsys, key, value):
    # a float, list or number where a string or an integer belongs, the
    # string "false" for a switch, a boolean for a count, a string outside
    # the option's choices: exit 2, key named
    cfg = tmp_path / "cfg.json"
    data = {"series": "A", "rank": 1, "checks": "subbialg"}
    data[key] = value
    cfg.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert f"config key {key!r}" in err


def test_missing_series_exit_two(capsys):
    code, _, err = run(capsys, "verify", "--rank", "1")
    assert code == 2
    assert "--series" in err


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "drinfeld_forge.cli", "verify", "--series",
         "A", "--rank", "1", "--checks", "closure"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "PASS closure" in proc.stdout


def test_oversized_rep_exit_two(capsys):
    code, out, err = run(capsys, "verify", "--series", "A", "--rank", "3",
                         "--checks", "rep", "--cutoff", "1000", "--jobs", "1")
    assert code == 2
    assert out == ""
    assert "too large" in err and "841,695,875,020" in err


@pytest.mark.parametrize("argv,size", [
    (["verify", "--series", "D", "--rank", "16", "--checks", "rep"],
     "33,554,432"),
    (["verify", "--series", "C", "--rank", "4", "--checks", "casimir",
      "--cutoff", "30"], "1,855,040"),
    (["verify", "--series", "C", "--rank", "15", "--checks", "rep",
      "--cutoff", "1"], None),
    (["verify", "--series", "A", "--rank", "3", "--checks", "casimir",
      "--cutoff", "-3"], None),
    (["export", "--series", "D", "--rank", "16", "--what", "matrices"],
     "33,554,432"),
    (["export", "--series", "C", "--rank", "4", "--what", "matrices",
      "--cutoff", "30"], "1,855,040"),
    (["export", "--series", "C", "--rank", "15", "--what", "matrices",
      "--cutoff", "1"], None),
    (["export", "--series", "A", "--rank", "3", "--what", "matrices",
      "--cutoff", "-3"], None),
])
def test_oversized_rep_exits_before_split(capsys, monkeypatch, argv, size):
    # fermionic D16 and bosonic C4 at cutoff 30 are sized from series,
    # rank and cutoff alone, and a cutoff below 2 (size None) is refused
    # before any size is estimated: in both subcommands that build a
    # representation, the algebra is never built
    def no_split(*args, **kwargs):
        raise AssertionError("split ran before the size check")

    monkeypatch.setattr("drinfeld_forge.cli.split", no_split)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    if size is None:
        assert err == "error: bosonic cutoff must be at least 2\n"
    else:
        assert err == (f"error: representation too large: about {size} "
                       "entries (states x generators), the limit is "
                       "1,000,000\n")


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_exit_two(capsys, jobs):
    code, out, err = run(capsys, "verify", "--series", "A", "--rank", "1",
                         "--checks", "jacobi", "--jobs", jobs)
    assert code == 2
    assert out == ""
    assert "--jobs" in err


@pytest.mark.parametrize("command", ["verify", "build", "export"])
def test_oversized_algebra_exit_two(capsys, command):
    argv = [command, "--series", "A", "--rank", "1000000"]
    if command == "export":
        argv += ["--what", "brackets"]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "too large" in err
    assert "1,000,003,000,002" in err and "512" in err


def test_verify_path_never_imports_numpy():
    # a fresh interpreter, so that imports made by other tests cannot leak in
    src = os.path.dirname(os.path.dirname(drinfeld_forge.__file__))
    code = ("import sys\n"
            "from drinfeld_forge import cli\n"
            "rc = cli.main(['verify', '--series', 'A', '--rank', '2', "
            "'--checks', 'jacobi,compatibility', '--jobs', '1'])\n"
            "assert rc == 0, rc\n"
            # the oscillators load only with a representation
            "for argv in (['build'], ['export', '--what', 'brackets'], "
            "['verify', '--checks', 'jacobi,cocycle']):\n"
            "    rc = cli.main(argv + ['--series', 'A', '--rank', '2'])\n"
            "    assert rc == 0, (argv, rc)\n"
            "    assert 'drinfeld_forge.oscillators' not in sys.modules, argv\n"
            "for series in ('A', 'C'):\n"
            "    rc = cli.main(['verify', '--series', series, '--rank', '2', "
            "'--checks', 'rep,casimir', '--jobs', '1'])\n"
            "    assert rc == 0, (series, rc)\n"
            "assert 'numpy' not in sys.modules\n"
            # reports are plain objects, so nothing compiles dataclasses
            "assert 'dataclasses' not in sys.modules\n"
            "assert 'inspect' not in sys.modules\n"
            "assert 'multiprocessing' not in sys.modules\n"
            "assert 'concurrent.futures' not in sys.modules\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_verify_path_never_imports_fractions():
    # the arithmetic runs on integer numerators, so neither the algebraic
    # checks nor rep,casimir load `fractions` or, through it, `decimal`;
    # the components are still Fractions once one is read
    src = os.path.dirname(os.path.dirname(drinfeld_forge.__file__))
    checks = ",".join(("jacobi", "closure", "pairing", "reconstruction",
                       "compatibility", "selfdual", "forminv", "delta-agree",
                       "cocycle", "cojacobi", "subbialg", "coboundary",
                       "cybe", "twist", "chain"))
    code = ("import sys\n"
            "from drinfeld_forge import cli\n"
            f"for argv in (['--checks', '{checks}'], "
            "['--checks', 'rep,casimir', '--cutoff', '3']):\n"
            "    rc = cli.main(['verify', '--series', 'A', '--rank', '2'] "
            "+ argv)\n"
            "    assert rc == 0, (argv, rc)\n"
            "    for name in ('fractions', 'decimal', '_decimal'):\n"
            "        assert name not in sys.modules, (argv, name)\n"
            "from fractions import Fraction\n"
            "from drinfeld_forge import HALF\n"
            "assert type(HALF.a) is Fraction and HALF.a == Fraction(1, 2)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_perfbench_stems_are_cli_attributes():
    # `perfbench/child.py --trace 1` wraps every CLI_STEMS name on the cli
    # module, so each must exist once cli is imported; the file is parsed,
    # not imported
    tree = ast.parse(PERFBENCH_CHILD.read_text())
    stems = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets]
                 == ["CLI_STEMS"])
    assert stems
    assert [name for name in stems if not hasattr(cli, name)] == []


def test_perfbench_reads_only_names_the_package_has():
    # the benchmark reads the package as `df.<name>` (`import drinfeld_forge
    # as df`) and imports names from its modules; a name that leaves that
    # surface, say one dropped from `__init__` when its module is split,
    # fails the benchmark's `setup` or `controls` children, so each one
    # must resolve; the files are parsed, not imported
    read, missing = set(), []
    for path in (PERFBENCH_CHILD, PERFBENCH_TESTS):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "df"):
                found = [("drinfeld_forge", drinfeld_forge, node.attr)]
            elif (isinstance(node, ast.ImportFrom)
                  and (node.module or "").startswith("drinfeld_forge")):
                module = importlib.import_module(node.module)
                found = [(node.module, module, alias.name)
                         for alias in node.names]
            else:
                continue
            for name, module, attr in found:
                read.add(f"{name}.{attr}")
                if not hasattr(module, attr):
                    missing.append(f"{path.name}: {name}.{attr}")
    assert {"drinfeld_forge.split", "drinfeld_forge.structure_tensors",
            "drinfeld_forge.serialize.dumps_canonical"} <= read
    assert missing == []
