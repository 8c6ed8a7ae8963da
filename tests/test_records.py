"""Result records: named tuples with fixed reprs, checked construction and
no assignment; and the names the package exports."""

import copy
import pickle
import types

import pytest

import circmix
from circmix.extension import PrecolouringInstance, extend
from circmix.graphs import (Graph, circular_clique, complete_graph, cycle_graph,
                            path_graph)
from circmix.homgraph import is_mixing
from circmix.homs import Hom, enumerate_homs, hom_count
from circmix.structure import FoldStep
from circmix.winding import nonmixing_certificate

RECORDS = [value for value in map(vars(circmix).get, circmix.__all__)
           if isinstance(value, type) and issubclass(value, tuple)]


def test_reprs_are_exact():
    assert repr(Hom(3, 7, (0, 2, 4))) == "Hom(source_n=3, target_n=7, image=(0, 2, 4))"
    assert repr(FoldStep(2, 0)) == "FoldStep(removed=2, absorber=0)"
    assert repr(is_mixing(path_graph(2), complete_graph(3))) == (
        "MixingVerdict(status='mixing', hom_count=6, class_count=1, witness=None)")
    assert repr(is_mixing(complete_graph(3), complete_graph(3))) == (
        "MixingVerdict(status='not_mixing', hom_count=6, class_count=6, witness=("
        "Hom(source_n=3, target_n=3, image=(0, 1, 2)), "
        "Hom(source_n=3, target_n=3, image=(0, 2, 1))))")
    assert repr(nonmixing_certificate(complete_graph(3), 7, 2)) == (
        "NonMixingCertificate(k=7, q=2, kind='odd_cycle', subgraph=(0, 1, 2), "
        "cycle=(0, 1, 2), colouring=Hom(source_n=3, target_n=7, image=(0, 2, 4)), "
        "reflection=Hom(source_n=3, target_n=7, image=(0, 5, 3)), "
        "sigma=7, sigma_reflection=14)")


def test_records_are_tuples_without_assignment():
    assert len(RECORDS) == 25
    f = Hom(3, 7, (0, 2, 4))
    assert f == (3, 7, (0, 2, 4)) and f[2] is f.image and list(f) == [3, 7, (0, 2, 4)]
    assert f < Hom(3, 7, (0, 3, 0)) and f(1) == 2
    step = FoldStep(2, 0)
    verdict = is_mixing(cycle_graph(5), circular_clique(5, 2))
    space = enumerate_homs(path_graph(2), complete_graph(3))
    assert space.count == 6 and space.hom(0) == Hom(2, 3, (0, 1))
    for record, name in ((f, "image"), (step, "removed"), (verdict, "status"),
                         (space, "images")):
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            record.extra = 1
    assert step._replace(absorber=1) == FoldStep(2, 1)


def test_hom_checks_on_construction_and_replace():
    f = Hom(3, 7, (0, 2, 4))
    for make in (lambda **kw: Hom(**{**f._asdict(), **kw}), f._replace):
        with pytest.raises(ValueError, match="^image length does not match source size$"):
            make(image=(0, 2))
        with pytest.raises(ValueError, match="^image colour out of range$"):
            make(image=(0, 2, 7))
        with pytest.raises(ValueError, match="^image colour out of range$"):
            make(target_n=4)
    assert f._replace(image=(1, 3, 5)) == Hom(3, 7, (1, 3, 5))
    assert pickle.loads(pickle.dumps(f)) == f and type(copy.copy(f)) is Hom
    forged = pickle.dumps(tuple.__new__(Hom, (3, 2, (0, 2, 4))))  # past the check
    with pytest.raises(ValueError, match="^image colour out of range$"):
        pickle.loads(forged)


def test_instance_checks_and_normalizes_on_construction_and_replace():
    host, target = path_graph(3), complete_graph(3)
    inst = PrecolouringInstance(host, target, [(2, 1), (0, 0), (2, 1)], groups=[[2, 1]])
    assert inst.pins == ((0, 0), (2, 1)) and inst.groups == ((1, 2),)
    moved = inst._replace(pins=[(1, 2), (0, 0)], groups=[(0,), (2, 1)])
    assert moved.pins == ((0, 0), (1, 2)) and moved.groups == ((0,), (1, 2))
    assert moved.host is host and moved.target is target
    assert PrecolouringInstance._make(inst) == inst
    bad = {
        "pinned vertex 3 out of range": {"pins": ((3, 0),)},
        "pinned colour 3 out of range": {"pins": ((0, 3),)},
        "vertex 0 pinned to two colours": {"pins": ((0, 0), (0, 1))},
        r"pins 0->2, 1->2 break host edge \(0,1\)": {"pins": ((0, 2), (1, 2))},
        "empty pin group": {"groups": ((),)},
        "group vertex out of range": {"groups": ((5,),)},
        "pin groups overlap": {"groups": ((0, 1), (1, 2))},
    }
    for text, change in bad.items():
        with pytest.raises(ValueError, match=f"^{text}$"):
            PrecolouringInstance(**{"host": host, "target": target, "pins": (), **change})
        with pytest.raises(ValueError, match=f"^{text}$"):
            inst._replace(**{"pins": (), **change})
        with pytest.raises(ValueError, match=f"^{text}$"):
            PrecolouringInstance._make((host, target, change.get("pins", ()),
                                        change.get("groups", ())))
    with pytest.raises(ValueError, match="break host edge"):
        inst._replace(host=Graph(3, [(0, 2), (1, 2)]), pins=((0, 1), (2, 1)))


def _round_trip(value):
    return pickle.loads(pickle.dumps(value))


def test_searched_graphs_pickle_without_their_facts():
    """A searched graph keeps facts keyed on functions; its pickle holds the
    rows and the name only, and the copy answers as the original does."""
    g, k3 = path_graph(3), complete_graph(3)
    assert hom_count(g, k3) == 12 and g._facts
    diamond = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)], name="diamond")
    verdict = is_mixing(diamond, circular_clique(7, 2))
    assert verdict.class_count == 2 and diamond._facts
    for graph in (g, k3, diamond, circular_clique(7, 2)):
        copied = _round_trip(graph)
        assert copied == graph and copied.name == graph.name
        assert copied._facts is None and graph._facts
        assert copy.deepcopy(graph) == graph
    assert hom_count(_round_trip(g), k3) == 12
    assert is_mixing(_round_trip(diamond), circular_clique(7, 2)) == verdict
    inst = PrecolouringInstance(g, k3, [(0, 0), (2, 1)])
    result = extend(inst)
    copied = _round_trip(inst)
    assert copied == inst and copied.pins == inst.pins
    assert copied.host._facts is None and extend(copied) == result
    # a graph pickled as its slots, as unsearched graphs once were
    old = pickle.loads(
        b"\x80\x04\x95R\x00\x00\x00\x00\x00\x00\x00\x8c\x0ecircmix.graphs\x94"
        b"\x8c\x05Graph\x94\x93\x94)\x81\x94N}\x94(\x8c\x01n\x94K\x03\x8c\x04rows"
        b"\x94K\x02K\x05K\x02\x87\x94\x8c\x04name\x94\x8c\x02P3\x94\x8c\x06_facts"
        b"\x94Nu\x86\x94b.")
    assert old == path_graph(3) and old.name == "P3" and old._facts is None
    assert hom_count(old, k3) == 12 and _round_trip(old) == old


def test_all_names_no_module():
    assert not [name for name in circmix.__all__
                if isinstance(getattr(circmix, name), types.ModuleType)]
    assert {"Hom", "is_mixing", "PrecolouringInstance"} <= set(circmix.__all__)
    exported: dict = {}
    exec("from circmix import *", exported)
    assert sorted(set(exported) - {"__builtins__"}) == sorted(circmix.__all__)
