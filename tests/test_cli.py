"""Exit codes, JSON schemas, and determinism of the command line."""

import json
import os
import pathlib
import shutil
import subprocess
import sys

import jsonschema
import pytest

import circmix
from circmix.cli import _build_parser, main
from circmix.config import DEFAULT_MAX_VERTICES
from circmix.fixtures import gadget_g62x
from circmix.graphs import (circular_clique, complete_graph,
                            frozen_regular_graph, path_graph, read_graph,
                            write_graph)

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCHEMAS = ROOT / "schemas"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv)
    return code, json.loads(out)


def check(name, payload):
    schema = json.loads((SCHEMAS / f"{name}.json").read_text())
    jsonschema.validate(payload, schema)


def test_exit_codes(capsys):
    ok, _, _ = run_cli(capsys, "mixing", "--graph", "clique:3",
                       "--target", "circ:9/2")
    assert ok == 0
    bad, _, err = run_cli(capsys, "mixing", "--graph", "clique:zero",
                          "--target", "circ:9/2")
    assert bad == 1 and "error:" in err
    capped, _, err = run_cli(capsys, "mixing", "--graph", "clique:3",
                             "--target", "circ:9/2", "--cap", "3")
    assert capped == 2 and "cap exceeded" in err
    miss, _, err = run_cli(capsys, "mixing", "--graph", "clique:3",
                           "--target", "circ:9/2", "--expect", "NotMixing")
    assert miss == 3 and "expected NotMixing, got Mixing" in err


def test_mixing_report_schema_and_values(capsys):
    code, payload = run_json(capsys, "mixing", "--graph", "circ:5/2",
                             "--target", "clique:3")
    assert code == 0
    check("mixing", payload)
    assert payload["verdict"] == "NotMixing"
    assert payload["hom_count"] == 30
    assert payload["class_count"] == 2
    assert payload["witnesses"] == ["0,0,1,1,2", "0,0,2,1,1"]


def test_components_schema(capsys):
    code, payload = run_json(capsys, "components", "--graph", "clique:3",
                             "--target", "circ:7/2", "--kind", "colour")
    assert code == 0
    check("components", payload)
    assert payload["classes"][0]["size"] == 21


def test_hom_and_frozen_schema(capsys):
    code, payload = run_json(capsys, "hom", "--graph", "clique:3",
                             "--target", "circ:7/2", "--pin", "0=1")
    assert code == 0
    check("hom", payload)
    assert payload == {"exists": True, "hom": "1,3,5"}
    # two colours on one vertex are an error, as in extend; a repeat is not
    args = ["hom", "--graph", "clique:3", "--target", "clique:3", "--pin", "0=0"]
    code, out, err = run_cli(capsys, *args, "--pin", "0=1")
    assert (code, out, err) == (1, "", "error: vertex 0 pinned to two colours\n")
    code, payload = run_json(capsys, *args, "--pin", "0=0")
    assert (code, payload) == (0, {"exists": True, "hom": "0,1,2"})

    code, payload = run_json(capsys, "frozen", "--graph", "gadget:g62x",
                             "--target", "gadget:g62x", "--colouring",
                             "0,1,2,3,4,5,6")
    assert code == 0
    check("frozen", payload)


def test_malformed_integers_name_the_input(capsys):
    """A pin or a cycle that is not made of integers is a usage error that
    names the bad input, as a bad fraction or colour list is."""
    hom = ["hom", "--graph", "clique:3", "--target", "clique:3"]
    extend = ["extend", "--graph", "clique:3", "--target", "clique:3"]
    sigma = ["sigma", "--graph", "clique:3", "--colouring", "0,2,4",
             "--frac", "7/2"]
    for argv, err in ((hom + ["--pin", "a=1"], "bad pin 'a=1', want v=c"),
                      (hom + ["--pin", "01"], "bad pin '01', want v=c"),
                      (extend + ["--pin", "0=x"], "bad pin '0=x', want v=c"),
                      (extend + ["--pin", "0=1=2"], "bad pin '0=1=2', want v=c"),
                      (sigma + ["--cycle", "0,1,x"],
                       "bad cycle '0,1,x', want v0,v1,...")):
        assert run_cli(capsys, *argv) == (1, "", f"error: {err}\n"), argv


def test_lower_parent_schema(capsys):
    code, payload = run_json(capsys, "lower-parent", "19", "7")
    assert code == 0
    check("lower_parent", payload)
    assert payload == {"k'": 8, "q'": 3}


def test_structure_ops_schema(capsys):
    for op in ("col", "omega", "stiff", "core", "dismantlable", "rigid",
               "self-mixing"):
        code, payload = run_json(capsys, "structure", "--graph", "circ:6/2",
                                 "--op", op)
        assert code == 0, op
        check("structure", payload)
    code, payload = run_json(capsys, "structure", "--graph", "circ:6/2",
                             "--op", "core")
    assert payload["vertices"] == [0, 2, 4]
    code, _, _ = run_cli(capsys, "structure", "--graph", "clique:1",
                         "--op", "rigid", "--expect", "True")
    assert code == 0


def test_sigma_schema(capsys):
    code, payload = run_json(capsys, "sigma", "--graph", "clique:3",
                             "--cycle", "0,1,2",
                             "--colouring", "0,2,4", "--frac", "7/2")
    assert code == 0
    check("sigma", payload)
    assert payload["sigma"] == 7 and payload["constricting"] is True


def test_certify_schema(capsys):
    code, payload = run_json(capsys, "certify-nonmixing", "--graph", "clique:3",
                             "--frac", "7/2", "--expect", "Certified")
    assert code == 0
    check("certify", payload)
    assert payload["certified"] is True
    assert payload["sigma"] == 7 and payload["sigma_reflection"] == 14
    code, _, _ = run_cli(capsys, "certify-nonmixing", "--graph", "circ:8/2",
                         "--frac", "7/2")
    assert code == 1  # bipartite input is a domain error


def test_extend_schema(capsys):
    args = ["extend", "--graph", "gadget:g62x", "--target", "clique:4"]
    pins_bad = sum((["--pin", f"{v}={c}"]
                    for v, c in enumerate((0, 1, 1, 2, 2, 3))), [])
    code, payload = run_json(capsys, *args, *pins_bad)
    assert code == 0
    check("extend", payload)
    assert payload["status"] == "NoExtension"
    assert payload["certificate"] == "exhausted backtracking over all completions"

    pins_ok = sum((["--pin", f"{v}={c}"]
                   for v, c in enumerate((0, 0, 2, 1, 1, 3))), [])
    code, payload = run_json(capsys, *args, *pins_ok, "--expect", "Extended")
    assert code == 0
    check("extend", payload)
    assert payload["extension"] == "0,0,2,1,1,3,2"


def test_scan_schema_and_rows(capsys):
    code, payload = run_json(capsys, "scan", "--graph", "clique:3",
                             "--fracs", "2/1,3/1,7/2,4/1,9/2")
    assert code == 0
    check("scan", payload)
    verdicts = [r["verdict"] for r in payload["rows"]]
    assert verdicts == ["NoColourings", "NotMixing", "NotMixing",
                        "Mixing", "Mixing"]
    assert payload["rows"][2]["witnesses"] == ["0,2,4", "0,4,2"]
    assert len(payload["bounds"]) == 10
    assert {"quantity": "m_c", "relation": ">=", "value": "4",
            "source": "non-bipartite clique lower bound",
            "certified": "theorem"} in payload["bounds"]


def test_fixtures_schema(capsys):
    code, payload = run_json(capsys, "fixtures")
    assert code == 0
    check("fixtures", payload)
    assert {"name": "g62x", "n": 7} in payload["fixtures"]


def test_gen_round_trip(tmp_path, capsys):
    out = tmp_path / "g.graph"
    code, _, _ = run_cli(capsys, "gen", "circular-clique", "6", "2",
                         "-o", str(out))
    assert code == 0
    assert read_graph(out) == circular_clique(6, 2)
    code, text, _ = run_cli(capsys, "gen", "cycle", "4", "--reflexive")
    assert code == 0
    assert "p 4" in text
    for params, want in ((["clique", "4"], complete_graph(4)),
                         (["path", "3", "--reflexive"], path_graph(3, reflexive=True)),
                         (["frozen-regular", "3", "2"], frozen_regular_graph(3, 2)),
                         (["gadget", "g62x"], gadget_g62x())):
        code, _, _ = run_cli(capsys, "gen", *params, "-o", str(out))
        assert code == 0
        assert read_graph(out) == want, params
    # each kind takes a fixed number of parameters
    for params in (["circular-clique", "6"], ["frozen-regular", "3"],
                   ["clique", "3", "4"]):
        code, _, err = run_cli(capsys, "gen", *params)
        assert code == 1 and err.startswith("error: gen ")


def test_byte_identical_output(capsys):
    base = ["scan", "--graph", "clique:3", "--fracs", "3/1,7/2,4/1"]
    outs = set()
    for extra in ([], [], ["--threads", "4"], ["--threads", "1"]):
        code, out, _ = run_cli(capsys, *base, *extra)
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_text_output_mode(capsys):
    code, out, _ = run_cli(capsys, "mixing", "--graph", "clique:3",
                           "--target", "circ:7/2", "--output", "text")
    assert code == 0
    assert out == "NotMixing (42 homs, 2 classes)\n"


def test_env_cap(capsys, monkeypatch):
    monkeypatch.setenv("CIRCMIX_CAP", "3")
    code, _, err = run_cli(capsys, "mixing", "--graph", "clique:3",
                           "--target", "circ:9/2")
    assert code == 2 and "cap exceeded" in err
    # the flag wins over the environment
    code, _, _ = run_cli(capsys, "mixing", "--graph", "clique:3",
                         "--target", "circ:9/2", "--cap", "100000")
    assert code == 0
    # a malformed value is a usage error, not a traceback
    for value in ("abc", "0"):
        monkeypatch.setenv("CIRCMIX_CAP", value)
        code, _, err = run_cli(capsys, "fixtures")
        assert code == 1
        assert err.startswith("error: CIRCMIX_CAP must be")
    # and so is a flag value the environment would reject
    monkeypatch.delenv("CIRCMIX_CAP")
    for value in ("0", "-3"):
        code, _, err = run_cli(capsys, "mixing", "--graph", "clique:3",
                               "--target", "circ:9/2", "--cap", value)
        assert code == 1
        assert err == f"error: --cap must be positive, got {value}\n"


def test_shared_parser_keeps_no_state(capsys, monkeypatch):
    assert _build_parser() is _build_parser()
    runs = [
        ({}, ["extend", "--graph", "clique:3", "--target", "circ:7/2",
              "--pin", "0=1", "--pin", "1=4"]),
        ({}, ["hom", "--graph", "clique:3", "--target", "circ:7/2"]),
        ({}, ["extend", "--graph", "clique:3", "--target", "circ:7/2"]),
        ({}, ["mixing", "--graph", "clique:3"]),
        ({"COLUMNS": "50"}, ["extend", "--help"]),
        ({"COLUMNS": "150"}, ["extend", "--help"]),
        ({"CIRCMIX_CAP": "3"}, ["mixing", "--graph", "clique:3",
                                "--target", "circ:9/2"]),
        ({}, ["mixing", "--graph", "clique:3", "--target", "circ:9/2"]),
    ]

    def play(fresh_parser):
        _build_parser.cache_clear()
        out = []
        for env, argv in runs:
            for name in ("COLUMNS", "CIRCMIX_CAP"):
                if name in env:
                    monkeypatch.setenv(name, env[name])
                else:
                    monkeypatch.delenv(name, raising=False)
            if fresh_parser:
                _build_parser.cache_clear()
            out.append(run_cli(capsys, *argv))
        return out

    shared = play(fresh_parser=False)
    assert shared == play(fresh_parser=True)
    assert [code for code, _, _ in shared] == [0, 0, 0, 1, 0, 0, 2, 0]
    assert shared[4][1] != shared[5][1]  # the help wraps at the new width


def test_vertex_limit_runs(tmp_path, capsys):
    path = tmp_path / "path.graph"
    write_graph(path_graph(DEFAULT_MAX_VERTICES), path)
    code, payload = run_json(capsys, "hom", "--graph", f"file:{path}",
                             "--target", "clique:3")
    assert code == 0 and payload["exists"]
    code, payload = run_json(capsys, "mixing", "--graph", f"file:{path}",
                             "--target", "clique:2")
    assert code == 0
    assert (payload["verdict"], payload["hom_count"]) == ("NotMixing", 2)
    # 3 * 2^4095 colourings: the first box alone passes the default cap
    for cmd in ("mixing", "components"):
        code, out, err = run_cli(capsys, cmd, "--graph", f"file:{path}",
                                 "--target", "clique:3")
        assert (code, out) == (2, "")
        assert err.startswith("cap exceeded: ")
        assert err.endswith("(homomorphism count for n=4096)\n")
    code, payload = run_json(capsys, "structure", "--graph", f"file:{path}",
                             "--op", "stiff")
    assert code == 0 and len(payload["steps"]) == DEFAULT_MAX_VERTICES - 2
    assert payload["terminal"] == {"n": 2, "edges": [[0, 1]]}
    code, payload = run_json(capsys, "structure", "--graph", f"file:{path}",
                             "--op", "dismantlable")
    assert code == 0 and payload["value"] is False
    code, payload = run_json(capsys, "structure", "--graph", f"file:{path}",
                             "--op", "col")
    assert code == 0 and payload["value"] == 2
    code, payload = run_json(capsys, "structure", "--graph", "clique:1100",
                             "--op", "omega")
    assert code == 0 and payload["value"] == 1100


def test_null_graph_runs(tmp_path, capsys):
    path = tmp_path / "null.graph"
    path.write_text("p 0\n")
    code, payload = run_json(capsys, "structure", "--graph", f"file:{path}",
                             "--op", "col")
    assert code == 0 and payload["value"] == 0
    check("structure", payload)
    code, payload = run_json(capsys, "scan", "--graph", f"file:{path}",
                             "--fracs", "2/1,5/2")
    assert code == 0
    check("scan", payload)
    assert [(r["verdict"], r["hom_count"], r["class_count"])
            for r in payload["rows"]] == [("Mixing", 1, 1)] * 2
    code, payload = run_json(capsys, "mixing", "--graph", f"file:{path}",
                             "--target", "circ:5/2")
    assert code == 0
    assert (payload["verdict"], payload["hom_count"]) == ("Mixing", 1)


# What an installed launcher does: import module:attr and exit with its call.
LAUNCHER = """\
import importlib, sys
module = importlib.import_module(sys.argv.pop(1))
entry = getattr(module, sys.argv.pop(1))
sys.exit(entry())
"""


def test_console_script_entry_point():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())
    module, attr = project["project"]["scripts"]["circmix"].split(":")
    package_root = pathlib.Path(circmix.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(package_root)}
    proc = subprocess.run([sys.executable, "-c", LAUNCHER, module, attr,
                           "fixtures"], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert "g62x" in proc.stdout


@pytest.mark.skipif(shutil.which("circmix") is None,
                    reason="no circmix executable on PATH")
def test_installed_console_script():
    proc = subprocess.run(["circmix", "fixtures"], capture_output=True,
                          text=True)
    assert proc.returncode == 0
    assert "g62x" in proc.stdout


def test_python_dash_m_matches_in_process(tmp_path, capsys):
    path = tmp_path / "tree.graph"
    write_graph(path_graph(7), path)
    package_root = pathlib.Path(circmix.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(package_root)}
    for argv in (["structure", "--op", "stiff", "--graph", f"file:{path}"],
                 ["scan", "--graph", "clique:3", "--fracs", "3/1,7/2,4/1"]):
        proc = subprocess.run([sys.executable, "-m", "circmix", *argv],
                              capture_output=True, env=env)
        code, out, err = run_cli(capsys, *argv)
        assert code == 0
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            code, out.encode(), err.encode())
