"""The phase recording of ``circmix.stats``: off unless asked for, never a
change to an answer, and what ``tools/layertime.py`` reads of it."""

import json
import math
import pathlib
import subprocess
import sys

from circmix import (Graph, Hom, PrecolouringInstance, circular_clique,
                     complete_graph, components, core_of, cycle_graph,
                     extension_product, greedy_ring_extension, homotopy_path,
                     is_dismantlable, is_mixing, layered_extension_check,
                     mixing_scan, path_graph, radius_centre, stats,
                     stiff_reduction)

from helpers import iso_reps

ROOT = pathlib.Path(__file__).resolve().parent.parent
FRACTIONS = [(k, q) for q in range(1, 6) for k in range(2 * q, 12) if math.gcd(k, q) == 1]
DIAMOND = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])  # K_4 less an edge


def outcome(call) -> str:
    """The repr of what ``call()`` returns, or of the error it raises."""
    try:
        return repr(call())
    except Exception as e:  # an error is an answer too
        return f"{type(e).__name__}: {e}"


def recorded(call) -> tuple[str, dict]:
    """``outcome(call)`` under a recording, and what was recorded."""
    with stats.recording() as phases:
        answer = outcome(call)
    return answer, phases


def test_recording_never_changes_an_answer():
    c5, g72 = cycle_graph(5), circular_clique(7, 2)
    first, far = Hom(5, 7, (0, 2, 4, 6, 2)), Hom(5, 7, (0, 2, 4, 1, 3))
    ring = PrecolouringInstance(path_graph(7), complete_graph(3),
                                ((0, 1), (1, 0), (5, 1), (6, 0)), groups=((0, 1), (5, 6)))
    calls = [lambda g=g, h=circular_clique(k, q), f=f: f(g, h)
             for g in iso_reps(4, loops=True) for k, q in FRACTIONS
             for f in (is_mixing, components,
                       lambda g, h: components(g, h, kind="homomorphism"))]
    calls += [lambda: mixing_scan(DIAMOND, FRACTIONS),
              lambda: layered_extension_check(c5, g72, first, far, 3),
              lambda: homotopy_path(first, far, c5, g72),
              lambda: radius_centre(c5, g72),
              lambda: radius_centre(path_graph(3), g72),
              lambda: greedy_ring_extension(ring, Hom(2, 3, (0, 1)))]
    for g in [path_graph(5), cycle_graph(6), DIAMOND, path_graph(3, reflexive=True),
              extension_product(complete_graph(2), path_graph(4))]:
        calls += [lambda g=g: stiff_reduction(g), lambda g=g: is_dismantlable(g),
                  lambda g=g: core_of(g)]
    seen = set()
    for call in calls:
        answer, phases = recorded(call)
        assert answer == outcome(call)
        seen.update(phases)
    assert seen == {"rule.cycle", "rule.theorem", "boxes", "split", "join", "reps", "walk",
                    "index", "folds", "endomorphisms"}
    assert stats.on is None


def test_the_rung_or_the_join_that_answered():
    phases = recorded(lambda: is_mixing(cycle_graph(7), circular_clique(11, 3)))[1]
    assert phases.keys() == {"rule.cycle"} and phases["rule.cycle"][0] == 1
    assert recorded(lambda: is_mixing(cycle_graph(5), circular_clique(13, 2)))[1].keys() == {
        "rule.theorem"}
    # the diamond's six 3-colourings are frozen: six classes, the least two built
    answer, phases = recorded(lambda: is_mixing(DIAMOND, complete_graph(3)))
    assert answer.startswith("MixingVerdict(status='not_mixing', hom_count=6, class_count=6")
    assert {name: count for name, (count, _) in phases.items()} == {
        "boxes": 6, "join": 6, "reps": 2}
    assert all(seconds >= 0 for _, seconds in phases.values())
    ladder = extension_product(complete_graph(2), path_graph(7))
    assert recorded(lambda: core_of(ladder))[1]["endomorphisms"][0] == 2  # one per round


def test_recordings_nest_and_nothing_is_recorded_outside():
    def cycle():
        return is_mixing(cycle_graph(7), circular_clique(11, 3))

    with stats.recording() as done:
        pass
    cycle()
    assert done == {} and stats.on is None
    with stats.recording() as outer:
        cycle()
        with stats.recording() as inner:
            is_mixing(cycle_graph(5), circular_clique(13, 2))
            assert stats.on is inner
        assert stats.on is outer
        cycle()
    assert inner.keys() == {"rule.theorem"}
    assert outer.keys() == {"rule.cycle"} and outer["rule.cycle"][0] == 2
    assert stats.on is None


def test_layertime_smoke():
    """One sweep graph, one spec and the size, each run once."""
    proc = subprocess.run(
        [sys.executable, "-B", str(ROOT / "tools" / "layertime.py"), "--src", str(ROOT / "src"),
         "--sweep", "S40", "--graph", "circ:7/2", "--size", "--repeat", "1"],
        capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout)
    assert out.keys() == {"size", "specs", "sweep"}
    assert out["size"].keys() == {"lines", "compile_ms"} and out["size"]["lines"] > 1000
    assert out["specs"]["circ:7/2"].keys() == {
        "n", "read_s", "stiff_reduction_s", "folds", "is_dismantlable_s", "endomorphisms",
        "stiff_json_s", "main_stiff_s", "main_dismantlable_s"}
    rows = out["sweep"]["rows"]
    assert len(rows) == 9 and all(key.startswith("S40:") for key in rows)
    assert {row["by"] for row in rows.values()} <= {"rule.cycle", "rule.theorem", "join", "boxes"}
    assert sum(out["sweep"]["by"].values()) == 9
    for row in rows.values():
        assert row.keys() - {"by", "verdict"} <= {row["by"], "boxes", "join", "reps"}
