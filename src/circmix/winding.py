"""Winding invariants of circular colourings around cycles.

Around a closed walk, the colour increments tau(f, i) of a (k,q)-colouring
each lie in [q, k-q] and sum to a multiple of k: the winding total sigma.
When every colouring of the traced subgraph is constricting (guaranteed
for k/q < 4, and for r-cliques when k/q < r+1), sigma cannot change along
recolouring walks, so two colourings with different totals certify that
the colouring space is disconnected without any component search.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .circular import _check_colouring, _is_cyclic_interval, _require_frac
from .errors import NoColouringsError
from .graphs import (Graph, _bits, circular_clique, is_bipartite, max_clique,
                     shortest_odd_cycle)
from .homgraph import _avail_masks
from .homs import Hom, first_hom


class CycleTrace(NamedTuple):
    """tau values of one colouring around one closed walk."""

    cycle: tuple[int, ...]
    taus: tuple[int, ...]
    sigma: int
    k: int
    q: int

    def step_indices(self, step: int) -> tuple[int, ...]:
        """Positions i whose increment tau(f, i) equals the given step."""
        return tuple(i for i, t in enumerate(self.taus) if t == step)


class ConstrictingResult(NamedTuple):
    constricting: bool
    violator: int | None  # vertex whose available set is not an interval


class NonMixingCertificate(NamedTuple):
    """Everything needed to re-check a sigma-based disconnection proof.

    ``subgraph`` is a clique (kind "clique") or an odd cycle in cycle
    order (kind "odd_cycle"); ``cycle`` is the traced vertex order, which
    for cliques sorts the subgraph by colour.  The two colourings have
    different winding totals on that cycle, and every colouring of the
    subgraph is constricting at this fraction, so they lie in different
    recolouring components.
    """

    k: int
    q: int
    kind: str  # "clique" | "odd_cycle"
    subgraph: tuple[int, ...]
    cycle: tuple[int, ...]
    colouring: Hom
    reflection: Hom
    sigma: int
    sigma_reflection: int


def cycle_trace(f: Hom, cycle, g: Graph, k: int, q: int) -> CycleTrace:
    """tau/sigma of a colouring around a closed walk of g.

    The walk is given without repeating its start vertex; the wrap edge
    v_l v_0 is required like every other consecutive pair.  Repeated
    vertices are allowed (any closed walk traces).
    """
    _check_colouring(f, g, k, q)
    walk = tuple(cycle)
    if len(walk) < 3:
        raise ValueError("a closed walk needs at least 3 vertices")
    for v in walk:
        if not 0 <= v < g.n:
            raise ValueError(f"walk vertex {v} out of range")
    for i, v in enumerate(walk):
        u = walk[(i + 1) % len(walk)]
        if not g.has_edge(v, u):
            raise ValueError(f"consecutive pair ({v}, {u}) is not an edge")
    taus = tuple((f.image[walk[(i + 1) % len(walk)]] - f.image[v]) % k
                 for i, v in enumerate(walk))
    if not all(q <= t <= k - q for t in taus):
        raise AssertionError("cycle step outside [q, k - q]")
    sigma = sum(taus)
    if sigma % k:
        raise AssertionError("winding total not a multiple of k")
    return CycleTrace(walk, taus, sigma, k, q)


def is_constricting(f: Hom, g: Graph, k: int, q: int) -> ConstrictingResult:
    """Is every vertex's available-colour set a cyclic interval?"""
    target = _check_colouring(f, g, k, q)
    for v, mask in enumerate(_avail_masks(f.image, g, target)):
        if not _is_cyclic_interval(_bits(mask), k):
            return ConstrictingResult(False, v)
    return ConstrictingResult(True, None)


def reflect_colouring(f: Hom, k: int) -> Hom:
    """Negate every colour mod k.

    Negation preserves circular distance, so the reflection of a valid
    (k,q)-colouring is valid for the same q; colour 0 stays fixed and the
    map is an involution.
    """
    if f.target_n != k:
        raise ValueError("colouring does not live on k colours")
    return Hom(f.source_n, k, tuple((k - c) % k for c in f.image))


def _sorted_clique_cycle(clique, f: Hom) -> tuple[int, ...]:
    """Clique vertices ordered by increasing colour; adjacency makes ties impossible."""
    order = tuple(sorted(clique, key=lambda v: f.image[v]))
    for a, b in zip(order, order[1:]):
        if f.image[a] == f.image[b]:
            raise ValueError("clique vertices share a colour: not a proper colouring")
    return order


def nonmixing_certificate(g: Graph, k: int, q: int,
                          cap: int | None = None) -> NonMixingCertificate:
    """Certify that g is not (k,q)-mixing by a winding-number split.

    Applies below the clique threshold: k/q < max{4, omega+1}.  Picks an
    omega-clique (omega >= 4) or a shortest odd cycle, colours g, reflects,
    and compares winding totals around it.  Reflection turns each step tau
    into k - tau, so on L vertices the totals are sigma and Lk - sigma.
    They always differ: sigma is a multiple of k and L is odd on an odd
    cycle, and the colour-sorted clique cycle winds once, sigma = k != (L-1)k.
    Both totals are worked out that way here; ``check_certificate`` then
    traces both colourings from scratch (``cycle_trace``).
    """
    _require_frac(k, q)
    if not g.is_loop_free:
        raise ValueError("colourings require a loop-free graph")
    if is_bipartite(g):
        raise ValueError("bipartite graphs admit no winding certificate")
    clique = tuple(max_clique(g, cap))
    omega = len(clique)
    if Fraction(k, q) >= max(4, omega + 1):
        raise ValueError(
            f"{k}/{q} is not below the certificate threshold max(4, {omega + 1})")
    target = circular_clique(k, q)
    colouring = first_hom(g, target, budget=cap)
    if colouring is None:
        raise NoColouringsError(f"no ({k},{q})-colourings exist")
    reflection = reflect_colouring(colouring, k)
    if omega >= 4:
        kind = "clique"
        subgraph = clique
        cycle = _sorted_clique_cycle(subgraph, colouring)
    else:
        kind = "odd_cycle"
        subgraph = tuple(shortest_odd_cycle(g))
        cycle = subgraph
    image = colouring.image
    sigma = sum((image[b] - image[a]) % k for a, b in zip(cycle, cycle[1:] + cycle[:1]))
    cert = NonMixingCertificate(k, q, kind, subgraph, cycle, colouring, reflection,
                                sigma, len(cycle) * k - sigma)
    if not check_certificate(g, cert):
        raise AssertionError("certificate failed its own check")
    return cert


def check_certificate(g: Graph, cert: NonMixingCertificate) -> bool:
    """Re-verify a winding certificate from scratch; raises on any defect.

    Soundness needs: the subgraph's colourings are all constricting at
    this fraction (numeric threshold), the traced cycle is the canonical
    one, both colourings are valid, and the winding totals differ.  The
    reflection relation between the two colourings is how certificates
    are produced but is not required for the proof, so it is not checked.
    """
    k, q = cert.k, cert.q
    _require_frac(k, q)
    sub = cert.subgraph
    if len(set(sub)) != len(sub):
        raise ValueError("subgraph vertices repeat")
    for v in sub:
        if not 0 <= v < g.n:
            raise ValueError(f"subgraph vertex {v} out of range")
    if cert.kind == "clique":
        r = len(sub)
        if r < 4:
            raise ValueError("clique certificates need at least 4 vertices")
        if any(not g.has_edge(a, b) for i, a in enumerate(sub) for b in sub[i + 1:]):
            raise ValueError("subgraph is not a clique")
        if Fraction(k, q) >= r + 1:
            raise ValueError(f"{k}/{q} is not below the clique threshold {r + 1}")
        if cert.cycle != _sorted_clique_cycle(sub, cert.colouring):
            raise ValueError("cycle is not the colour-sorted clique order")
    elif cert.kind == "odd_cycle":
        if len(sub) % 2 == 0 or len(sub) < 3:
            raise ValueError("cycle certificates need an odd cycle")
        if Fraction(k, q) >= 4:
            raise ValueError(f"{k}/{q} is not below the cycle threshold 4")
        if cert.cycle != sub:
            raise ValueError("cycle must trace the odd cycle in order")
        for i, v in enumerate(sub):
            if not g.has_edge(v, sub[(i + 1) % len(sub)]):
                raise ValueError("subgraph is not a cycle of the graph")
    else:
        raise ValueError(f"unknown certificate kind {cert.kind!r}")
    t1 = cycle_trace(cert.colouring, cert.cycle, g, k, q)
    t2 = cycle_trace(cert.reflection, cert.cycle, g, k, q)
    if (t1.sigma, t2.sigma) != (cert.sigma, cert.sigma_reflection):
        raise ValueError("stated winding totals do not match recomputation")
    if t1.sigma == t2.sigma:
        raise ValueError("winding totals are equal: nothing is certified")
    return True
