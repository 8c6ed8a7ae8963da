"""Named example graphs and the graph-spec resolver used by the CLI."""

from __future__ import annotations

from .errors import GraphFormatError
from .graphs import (Graph, _check_order, _shared, circular_clique,
                     complete_graph, read_graph)


def gadget_g62x() -> Graph:
    """The circular clique on six colours with step two, plus one extra
    vertex joined to 0, 1, 4 and 5.

    Pinning a proper four-colouring on the clique part can use all four
    colours on the extra vertex's neighbourhood, so whether the pins extend
    depends on the colouring and not just on colourability.  One instance
    is shared (``graphs._shared``).
    """
    _check_order(7)
    return _shared(_g62x)


def _g62x() -> Graph:
    extra = 0b0110011  # vertex 6's row: 0, 1, 4 and 5
    rows = [row | (extra >> v & 1) << 6
            for v, row in enumerate(circular_clique(6, 2).rows)]
    return Graph.from_rows(rows + [extra], name="g62x")


REGISTRY = {
    "g62x": gadget_g62x,
}


def resolve_graph_spec(spec: str) -> Graph:
    """Turn a graph spec into a Graph.

    Accepted forms: ``clique:r``, ``circ:k/q`` (non-reduced allowed),
    ``file:PATH``, ``gadget:NAME``, or a bare file path.
    """
    head, sep, tail = spec.partition(":")
    try:
        if sep and head == "clique":
            return complete_graph(int(tail))
        if sep and head == "circ":
            num, slash, den = tail.partition("/")
            return circular_clique(int(num), int(den) if slash else 1)
    except ValueError as e:
        raise GraphFormatError(f"bad graph spec {spec!r}: {e}") from None
    if sep and head == "gadget":
        if tail not in REGISTRY:
            known = ", ".join(sorted(REGISTRY))
            raise GraphFormatError(f"unknown gadget {tail!r} (have: {known})")
        return REGISTRY[tail]()
    if sep and head == "file":
        return read_graph(tail)
    return read_graph(spec)
