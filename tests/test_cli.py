"""Exit codes, JSON schemas, and determinism of the command line."""

import argparse
import importlib
import itertools
import json
import os
import pathlib
import shlex
import shutil
import subprocess
import sys

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import circmix
from circmix import cli
from circmix.cli import _build_parser, _json, _Parser, main
from circmix.config import DEFAULT_MAX_VERTICES
from circmix.fixtures import gadget_g62x
from circmix.graphs import (Graph, circular_clique, complete_graph,
                            frozen_regular_graph, path_graph, read_graph,
                            write_graph)

from test_readme import EXAMPLES

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
    # the cap bounds the clique searches too
    omega = ["structure", "--graph", "clique:5", "--op", "omega"]
    for args, cap in ((["certify-nonmixing", "--graph", "circ:4095/2", "--frac", "5/2"], 1000),
                      (omega, 4)):
        assert run_cli(capsys, *args, "--cap", str(cap)) == (
            2, "", f"cap exceeded: budget of {cap} exceeded (clique search)\n")
    assert run_json(capsys, *omega, "--cap", "5") == (0, {"op": "omega", "value": 5})
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
    code, _, err = run_cli(capsys, "certify-nonmixing", "--graph", "clique:3",
                           "--frac", "7/x")
    assert (code, err) == (1, "error: bad fraction '7/x', want k/q\n")


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


# a request of every subcommand that writes JSON, and of every structure op
PAYLOAD_REQUESTS = [
    ["hom", "--graph", "clique:3", "--target", "circ:7/2", "--pin", "0=1"],
    ["hom", "--graph", "clique:4", "--target", "clique:3"],
    ["mixing", "--graph", "clique:3", "--target", "circ:7/2"],
    ["mixing", "--graph", "clique:3", "--target", "circ:9/2"],
    ["components", "--graph", "clique:3", "--target", "circ:7/2"],
    ["components", "--graph", "clique:4", "--target", "clique:3",
     "--kind", "homomorphism"],
    ["frozen", "--graph", "gadget:g62x", "--target", "gadget:g62x",
     "--colouring", "0,1,2,3,4,5,6"],
    ["lower-parent", "19", "7"],
    *(["structure", "--graph", "circ:6/2", "--op", op]
      for op in ("col", "omega", "stiff", "core", "dismantlable", "rigid",
                 "self-mixing")),
    ["sigma", "--graph", "clique:3", "--cycle", "0,1,2", "--colouring", "0,2,4",
     "--frac", "7/2"],
    ["certify-nonmixing", "--graph", "clique:3", "--frac", "7/2"],
    ["extend", "--graph", "gadget:g62x", "--target", "clique:4",
     *sum((["--pin", f"{v}={c}"] for v, c in enumerate((0, 1, 1, 2, 2, 3))), [])],
    ["extend", "--graph", "clique:3", "--target", "clique:3", "--pin", "0=1"],
    ["scan", "--graph", "clique:3", "--fracs", "3/1,7/2,4/1,9/2"],
    ["fixtures"],
]


def test_report_writer_matches_json_dumps(capsys, monkeypatch, tmp_path):
    """The report writer gives json.dumps's bytes on the payload of every
    subcommand, and on every CLI request of the two benchmark workloads."""
    payloads = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda payload, args, lines:
                        payloads.append(payload) or emit(payload, args, lines))
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    plan = importlib.import_module("plan")
    argvs = PAYLOAD_REQUESTS + [
        req.argv for workload in ("space_sweep", "retract_extend")
        for req in plan.build(workload, plan.DEFAULT_SEED, tmp_path, plan.load_golden())
        if req.argv is not None]
    for argv in argvs:
        main(list(argv))
        out = capsys.readouterr().out
        assert out == json.dumps(payloads[-1], indent=2, sort_keys=True) + "\n", argv
    assert len(payloads) == len(argvs)
    writers = set(_build_parser().commands.choices) - {"gen"}
    assert {argv[0] for argv in PAYLOAD_REQUESTS} == writers


PAYLOADS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(st.text(), inner)),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(PAYLOADS)
@example({"\u00e9t\u00e9": "\u2603 \"q\" \\ \n\t\x00\ud83d\ude00", "": [], "e": {},
          "t": (True, False, None, 0, -1, 2 ** 70), "b": [[], {}, ()]})
def test_report_writer_on_drawn_payloads(value):
    assert _json(value) == json.dumps(value, indent=2, sort_keys=True)


SCALARS = st.none() | st.booleans() | st.integers() | st.text("\n{}[],: \"\\ax\u00e9")
DICT_LISTS = st.lists(st.dictionaries(st.text(), SCALARS, min_size=1), min_size=1)
LONG = cli._LONG


@settings(max_examples=200, deadline=None)
@given(DICT_LISTS | st.lists(st.dictionaries(st.text(), SCALARS) | st.lists(SCALARS), min_size=1),
       st.sampled_from([1, LONG]), st.booleans())
@example([{"a": "},\n  {"}, {"b": "}, {"}], 1, True)
@example([{"a": 1, "b": [2]}, {"a": 1}], 1, True)
@example([{"a": 1}, {}], 1, True)
def test_report_writer_on_lists_of_dicts(value, long, c_encoder):
    """A long list of non-empty dicts of scalars is written in one C call
    where there is a C encoder, and item by item where there is none or
    the list is short; each way gives json.dumps's bytes."""
    try:
        cli._LONG = long
        if not c_encoder:
            cli.c_make_encoder = None
        cli._flat_writer.cache_clear()
        for payload in (value, {"k": [value]}):
            assert _json(payload) == json.dumps(payload, indent=2, sort_keys=True)
    finally:
        cli._LONG, cli.c_make_encoder = LONG, json.encoder.c_make_encoder
        cli._flat_writer.cache_clear()


@pytest.mark.parametrize("value", [1.5, [1.5], (1, 0.5), {"a": 1.5}, [{"a": 1.5}],
                                   [[1.5]], [{"a": 1}, {"b": 2.5}], {"a": {1, 2}},
                                   {1: "a"}, [{"a": 1}, {1: "b"}], [{None: 1}]])
def test_report_writer_rejects_other_types(value, monkeypatch):
    for long in (1, LONG):
        monkeypatch.setattr(cli, "_LONG", long)
        with pytest.raises(TypeError):
            _json(value)


def test_text_output_mode(capsys):
    code, out, _ = run_cli(capsys, "mixing", "--graph", "clique:3",
                           "--target", "circ:7/2", "--output", "text")
    assert code == 0
    assert out == "NotMixing (42 homs, 2 classes)\n"


SCAN_K3_TEXT = """\
2/1: NoColourings
3/1: NotMixing
5/2: NoColourings
7/2: NotMixing
M_c <= 6 [theorem: twice the colouring number]
M_c <= 4 [theorem: twice the maximum degree]
M <= 4 [theorem: colouring number plus one]
M_c <= 4 [theorem: max of (|V|+1)/2 and the integer threshold]
m_c >= 4 [theorem: non-bipartite clique lower bound]
M_c >= 7/2 [scan: largest fraction certified NotMixing]
m_c > 5/2 [scan: no colourings exist at this fraction]
M >= 4 [scan: integer count certified NotMixing]
"""


def test_text_output_of_every_report(capsys, tmp_path):
    """The text lines of each subcommand, as the JSON-only line building
    left them."""
    write_graph(path_graph(3), tmp_path / "p3.graph")
    p3 = f"file:{tmp_path / 'p3.graph'}"
    # P_3 looped at its ends: a looped source answers the frozen question too
    write_graph(Graph(3, [(0, 1), (1, 2), (0, 0), (2, 2)]), tmp_path / "lp3.graph")
    lp3 = f"file:{tmp_path / 'lp3.graph'}"
    k4_classes = "".join(f"  size 1 rep {','.join(map(str, image))}\n"
                         for image in sorted(itertools.permutations(range(4))))
    cases = [
        (["scan", "--graph", "clique:3", "--fracs", "2/1,3/1,5/2,7/2"], SCAN_K3_TEXT),
        (["components", "--graph", "clique:3", "--target", "circ:7/2"],
         "colour: 42 homs, 2 classes\n  size 21 rep 0,2,4\n  size 21 rep 0,4,2\n"),
        (["components", "--graph", "clique:4", "--target", "clique:4",
          "--kind", "homomorphism"], "homomorphism: 24 homs, 24 classes\n" + k4_classes),
        (["certify-nonmixing", "--graph", "clique:3", "--frac", "7/2"],
         "NotMixing: odd_cycle sigma 7 vs 14\n"),
        (["structure", "--graph", "clique:3", "--op", "col"], "col: 3\n"),
        (["structure", "--graph", "clique:3", "--op", "rigid"], "rigid: False\n"),
        (["structure", "--graph", "gadget:g62x", "--op", "stiff"], "stiff: done\n"),
        (["structure", "--graph", "clique:4", "--op", "core"], "core: done\n"),
        (["structure", "--graph", "gadget:g62x", "--op", "self-mixing"],
         "self-mixing: False\n"),
        (["extend", "--graph", p3, "--target", "clique:2", "--pin", "0=0",
          "--pin", "2=0"], "Extended: 0,1,0\n"),
        (["extend", "--graph", p3, "--target", "clique:2", "--pin", "0=0",
          "--pin", "2=1"], "NoExtension: None\n"),
        (["hom", "--graph", "clique:3", "--target", "circ:7/2"], "0,2,4\n"),
        (["frozen", "--graph", "clique:3", "--target", "clique:3",
          "--colouring", "0,1,2"], "frozen\n"),
        (["frozen", "--graph", lp3, "--target", lp3, "--colouring", "0,1,2"], "frozen\n"),
        (["frozen", "--graph", lp3, "--target", lp3, "--colouring", "0,1,0"],
         "not frozen\n"),
        (["lower-parent", "7", "2"], "3/1\n"),
        (["sigma", "--graph", "clique:3", "--frac", "7/2", "--cycle", "0,1,2",
          "--colouring", "0,2,4"], "sigma 7 taus [2, 2, 3]\n"),
        (["fixtures"], "g62x (7 vertices)\n"),
    ]
    for argv, text in cases:
        assert run_cli(capsys, *argv, "--output", "text") == (0, text, ""), argv


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


TOP_USAGE = """\
usage: circmix [-h]
               {gen,hom,mixing,components,frozen,lower-parent,structure,sigma,certify-nonmixing,extend,scan,fixtures}
               ...
"""
MIXING_USAGE = """\
usage: circmix mixing [-h] [--cap CAP] [--threads THREADS]
                      [--output {json,text}] --graph GRAPH --target TARGET
                      [--expect EXPECT]
"""
TOP_HELP = TOP_USAGE + """
decide and certify mixing of graph colourings

positional arguments:
  {gen,hom,mixing,components,frozen,lower-parent,structure,sigma,certify-nonmixing,extend,scan,fixtures}
    gen                 write a generated graph
    hom                 least homomorphism, optionally pinned
    mixing              connectivity verdict for the colour graph
    components          full class report for HOM(G, H)
    frozen              is the given colouring frozen?
    lower-parent        Farey predecessor of k/q
    structure           structural reports on one graph
    sigma               winding totals of a colouring around a cycle
    certify-nonmixing   winding certificate that mixing fails
    extend              extend pinned colours to a full homomorphism
    scan                mixing verdicts over a fraction list, with bounds
    fixtures            list the named gadgets

options:
  -h, --help            show this help message and exit
"""


def test_usage_errors_and_help_are_argparse_s(capsys, monkeypatch):
    """Exit code, stdout and stderr of requests the one-pass parse leaves
    to argparse: usage errors, help, an abbreviation and ``--flag=value``
    (argparse's text as Python 3.11 prints it at 80 columns)."""
    monkeypatch.setenv("COLUMNS", "80")
    mixing = ["mixing", "--graph", "clique:3", "--target", "circ:7/2"]
    choices = ", ".join(repr(name) for name in (
        "gen", "hom", "mixing", "components", "frozen", "lower-parent",
        "structure", "sigma", "certify-nonmixing", "extend", "scan",
        "fixtures"))
    cases = [
        (["extend", "--graph", "clique:3", "--target", "clique:3",
          "--bogus", "x"],
         (1, "", TOP_USAGE + "circmix: error: unrecognized arguments: --bogus x\n")),
        (["mixing", "--graph", "clique:3"],
         (1, "", MIXING_USAGE + "circmix mixing: error: the following "
                                "arguments are required: --target\n")),
        (mixing + ["--output", "xml"],
         (1, "", MIXING_USAGE + "circmix mixing: error: argument --output: "
                                "invalid choice: 'xml' (choose from 'json', 'text')\n")),
        (mixing + ["--cap", "x"],
         (1, "", MIXING_USAGE + "circmix mixing: error: argument --cap: "
                                "invalid int value: 'x'\n")),
        (mixing + ["--cap", "-5"], (1, "", "error: --cap must be positive, got -5\n")),
        (["mixing", "--gra", "clique:3", "--target", "circ:7/2", "--output", "text"],
         (0, "NotMixing (42 homs, 2 classes)\n", "")),
        (mixing + ["--cap=5"],
         (2, "", "cap exceeded: budget of 5 exceeded (homomorphism count for n=3)\n")),
        ([], (1, "", TOP_USAGE + "circmix: error: the following arguments are "
                                 "required: command\n")),
        (["bogus"], (1, "", TOP_USAGE + "circmix: error: argument command: "
                                        f"invalid choice: 'bogus' (choose from {choices})\n")),
        (["--help"], (0, TOP_HELP, "")),
    ]
    for argv, want in cases:
        assert run_cli(capsys, *argv) == want, argv


def _argparse_namespace(argv):
    """What argparse alone makes of argv on the shared parser."""
    return argparse.ArgumentParser.parse_args(_build_parser(), argv)


def test_benchmark_and_readme_requests_take_the_one_pass_parse(tmp_path,
                                                               monkeypatch):
    """Every CLI request of the two benchmark workloads takes the one-pass
    parse, and so do the README's examples that give only flags; each gives
    argparse's Namespace.  (Every other in-process request of the suite is
    checked the same way by the autouse fixture in conftest.py.)"""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    plan = importlib.import_module("plan")
    golden = plan.load_golden()
    argvs = [req.argv for workload in ("space_sweep", "retract_extend")
             for req in plan.build(workload, plan.DEFAULT_SEED, tmp_path, golden)
             if req.argv is not None]
    parser = _build_parser()
    assert argvs
    for argv in argvs:
        args = parser.parse_exact(argv)
        assert args is not None and args == _argparse_namespace(argv), argv
    readme = [shlex.split(command)[1:] for command, _ in EXAMPLES]
    taken = [parser.parse_exact(argv) for argv in readme]
    assert [args is not None for args in taken] == [False, True, True, True]
    for argv, args in zip(readme[1:], taken[1:]):
        assert args == _argparse_namespace(argv), argv


# values of every kind the flags take, good and bad, and stray words
WORDS = ("3", "0", "-5", "x", "", "json", "text", "xml", "colour",
         "homomorphism", "col", "core", "clique:3", "0=1", "7/2", "-h",
         "--help", "--gra", "--cap=5", "--bogus", "--", "pos")


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_one_pass_parse_is_argparse_s_or_none(data):
    """On drawn words of a subcommand's flags and values (repeats, missing
    required flags, values that start with "-", bad choices and ints), the
    one-pass parse either leaves the request to argparse or gives
    argparse's Namespace."""
    parser = _build_parser()
    command = data.draw(st.sampled_from(sorted(parser.commands.choices)))
    sub = parser.commands.choices[command]
    flags = st.sampled_from(sorted(sub.flags))
    words = st.one_of(st.tuples(flags, st.sampled_from(WORDS)),
                      st.tuples(flags), st.tuples(st.sampled_from(WORDS)))
    # most draws give the required flags first, so that many are complete
    argv = [command]
    if data.draw(st.booleans()):
        argv += [w for flag, (action, _) in sorted(sub.flags.items())
                 if action.required for w in (flag, "clique:3")]
    argv += [w for seg in data.draw(st.lists(words, max_size=6)) for w in seg]
    args = parser.parse_exact(argv)
    if args is not None:
        try:
            want = _argparse_namespace(argv)
        except SystemExit:
            pytest.fail(f"argparse rejects {argv}")
        assert args == want, argv


def test_one_pass_parse_on_every_kept_kind():
    """A parser with a switch, an append flag with no default, a typed
    required flag with choices, a flag of several values, a positional and
    a typed string default: the one-pass parse takes what it keeps and
    gives argparse's Namespace, and leaves the rest to argparse."""
    parser = _Parser(prog="t")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run")
    p.add_argument("--on", action="store_true")
    p.add_argument("--item", action="append")
    p.add_argument("--n", type=int, required=True, choices=range(5))
    p.add_argument("--many", nargs="+")
    p.set_defaults(func=len)
    sub.add_parser("pos").add_argument("x")
    sub.add_parser("typed").add_argument("--k", type=int, default="3")
    for argv, taken in ((["run", "--n", "3"], True),
                        (["run", "--on", "--n", "1", "--on"], True),
                        (["run", "--item", "a", "--n", "0", "--item", "b"], True),
                        (["run", "--n", "1", "--n", "4"], True),
                        (["run", "--on", "x", "--n", "1"], False),
                        (["run", "--n", "5"], False),
                        (["run", "--many", "a", "--n", "1"], False),
                        (["pos", "a"], False),
                        (["typed"], False)):
        args = parser.parse_exact(argv)
        assert (args is not None) == taken, argv
        if taken:
            assert args == argparse.ArgumentParser.parse_args(parser, argv), argv


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


def test_graph_file_that_is_not_utf8_exits_1(tmp_path, capsys):
    path = tmp_path / "latin1.graph"
    path.write_bytes("c caf\u00e9\np 2\ne 0 1\n".encode("latin-1"))
    for argv in (["mixing", "--graph", f"file:{path}", "--target", "clique:3"],
                 ["certify-nonmixing", "--graph", str(path), "--frac", "5/2"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: 'utf-8' codec can't decode byte 0xe9")
        assert err.count("\n") == 1


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
