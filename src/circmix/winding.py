"""Winding invariants of circular colourings around cycles.

Around a closed walk, the colour increments tau(f, i) of a (k,q)-colouring
each lie in [q, k-q] and sum to a multiple of k: the winding total sigma.
When every colouring of the traced subgraph is constricting (guaranteed
for k/q < 4, and for r-cliques when k/q < r+1), sigma cannot change along
recolouring walks, so two colourings with different totals certify that
the colouring space is disconnected without any component search.

On a cycle C_n into G_{k,q} with 2q < k < 4q and k, q coprime the totals
say more: each total strictly between nq and n(k-q) is one class, and the
two extreme totals are 2k frozen colourings when k divides n.
``_cycle_classes`` reads HOM(C_n, G_{k,q})'s classes off that rule, with
no enumeration, for ``homgraph.components`` and ``homgraph.is_mixing``.
"""

from __future__ import annotations

from bisect import bisect, insort
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd

from .circular import (_check_colouring, _clique_parameters, _is_cyclic_interval,
                       _require_frac)
from .config import hom_cap
from .errors import CapExceededError, NoColouringsError
from .graphs import (Graph, _bits, circular_clique, is_bipartite, max_clique,
                     shortest_odd_cycle)
from .homgraph import ClassSummary, _avail_masks
from .homs import Hom, first_hom, is_hom


@dataclass(frozen=True)
class CycleTrace:
    """tau values of one colouring around one closed walk."""

    cycle: tuple[int, ...]
    taus: tuple[int, ...]
    sigma: int
    k: int
    q: int

    def step_indices(self, step: int) -> tuple[int, ...]:
        """Positions i whose increment tau(f, i) equals the given step."""
        return tuple(i for i, t in enumerate(self.taus) if t == step)


@dataclass(frozen=True)
class ConstrictingResult:
    constricting: bool
    violator: int | None  # vertex whose available set is not an interval


@dataclass(frozen=True)
class NonMixingCertificate:
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
    assert all(q <= t <= k - q for t in taus)
    sigma = sum(taus)
    assert sigma % k == 0
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
    """
    _require_frac(k, q)
    if not g.is_loop_free:
        raise ValueError("colourings require a loop-free graph")
    if is_bipartite(g):
        raise ValueError("bipartite graphs admit no winding certificate")
    clique = tuple(max_clique(g))
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
    t1 = cycle_trace(colouring, cycle, g, k, q)
    t2 = cycle_trace(reflection, cycle, g, k, q)
    cert = NonMixingCertificate(k, q, kind, subgraph, cycle,
                                colouring, reflection, t1.sigma, t2.sigma)
    assert check_certificate(g, cert)
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


def _cycle_walk(g: Graph) -> list[int] | None:
    """The vertices of g in order around it from vertex 0, when g is one
    cycle: connected and loop-free, every vertex of degree 2, n >= 3."""
    rows = g.rows
    if g.n < 3 or any(m.bit_count() != 2 or m >> v & 1 for v, m in enumerate(rows)):
        return None
    walk, prev, v = [0], 0, (rows[0] & -rows[0]).bit_length() - 1
    while v:
        walk.append(v)
        m = rows[v] & ~(1 << prev)
        prev, v = v, m.bit_length() - 1
    return walk if len(walk) == g.n else None


def _cycle_classes(source: Graph, target: Graph, cap: int | None = None
                   ) -> tuple[int, tuple[ClassSummary, ...]] | None:
    """HOM(C_n, G_{k,q})'s total and classes, in increasing order of least
    member, read off the winding total; None unless the source is a cycle
    (``_cycle_walk``) and ``circular._clique_parameters`` names the target
    G_{k,q} with k, q coprime and 2q < k < 4q.  Raises CapExceededError
    exactly when the join of ``homgraph`` would: when the total passes
    ``cap``, which is known before any class is built.

    The rule follows Cereceda, van den Heuvel and Johnson ("Finding paths
    between 3-colourings", JGT 2011) and Brewster, McGuinness, Moore and
    Noel ("A dichotomy theorem for circular colouring reconfiguration",
    TCS 2016).  Let v_0, ..., v_{n-1} be the walk.

    (i) A colouring f is its colour at v_0 plus its steps
    tau_i = f(v_{i+1}) - f(v_i) mod k (indices mod n).  Each step lies in
    [q, k-q], and sigma = sum tau is 0 mod k: ``cycle_trace``'s sigma.

    (ii) Recolouring v_i changes tau_{i-1} and tau_i alone and keeps their
    sum mod k.  Both sums lie in [2q, 2k-2q], which for k < 4q is narrower
    than k, so the sum is kept as an integer, and so is sigma: it is
    constant on a class.

    (iii) v_i can be recoloured iff tau_{i-1} + tau_i is not 2q or 2k-2q,
    the two sums that only one pair of steps in [q, k-q] makes: q + q and
    (k-q) + (k-q).  So f is frozen iff every pair of consecutive steps sums
    to 2q or 2k-2q, that is, iff its steps are all q or all k-q.  Then
    sigma = nq or n(k-q), a multiple of k only when k divides n, as q is
    prime to k; those are the 2k frozen colourings, one per colour of v_0
    and direction, and the only members of the two extreme totals.

    (iv) With v_0's colour fixed, recolouring v_i for 0 < i < n moves one
    unit between tau_{i-1} and tau_i, and such moves join every sequence
    of steps with one sum.  A total strictly between nq and n(k-q) admits
    a sequence with tau_0 > q and tau_{n-1} < k-q, from which v_0 steps up
    by one colour.  So all colourings of such a total are one class.

    The classes are thus one per interior total sigma, a multiple of k with
    nq < sigma < n(k-q), of k times the compositions of sigma into n parts
    in [q, k-q] (one per colour of v_0), plus, when k divides n, the 2k
    frozen colourings alone; those visit every colour.  A class of an
    interior total holds every shift of its members, so it has a member
    missing some colour iff it has one missing colour 0, a walk from
    f(v_0) in 1..k-1 by steps in [q, k-q] that never lands on a multiple
    of k.  Its least member takes, vertex by vertex in index order, the
    least colour that leaves the colours chosen so far feasible (see
    ``_least_member``).
    """
    walk = _cycle_walk(source)
    params = None if walk is None else _clique_parameters(target)
    if params is None:
        return None
    k, q = params
    if gcd(k, q) != 1 or not 2 * q < k < 4 * q:
        return None
    n = source.n
    cap = hom_cap(cap)
    width = k - 2 * q + 1
    lo, hi = n * q, n * (k - q)
    sigmas = range(-(-lo // k) * k, hi + 1, k)
    if sigmas:
        # the colourings with a steps of k-q, one of q+b and the rest q, of
        # the total nearest the middle, are fewer than the whole: a lower
        # bound that spares long cycles the exact count below
        a, b = divmod(min(sigmas, key=lambda s: abs(2 * s - lo - hi)) - lo, width - 1)
        if k * comb(n, a) * (n - a if b else 1) > cap:
            raise CapExceededError(cap, f"homomorphism count for n={n}")
    # compositions of sigma - nq into n parts in [0, k-2q], by inclusion-exclusion
    counts = [sum((-1) ** j * comb(n, j) * comb(s - lo - j * width + n - 1, n - 1)
                  for j in range(min(n, (s - lo) // width) + 1)) for s in sigmas]
    total = k * sum(counts)
    if total > cap:
        raise CapExceededError(cap, f"homomorphism count for n={n}")
    interior = [(s, c) for s, c in zip(sigmas, counts) if lo < s < hi]
    missing = _missing_zero(n, k, q, [s for s, _ in interior])
    classes = [ClassSummary(Hom(n, k, _least_member(walk, k, q, s)), k * c,
                            s in missing, False) for s, c in interior]
    if n % k == 0:
        for c in range(k):
            for step in (q, k - q):
                image = [0] * n
                for i, v in enumerate(walk):
                    image[v] = (c + i * step) % k
                classes.append(ClassSummary(Hom(n, k, tuple(image)), 1, False, True))
    return total, tuple(sorted(classes, key=lambda c: c.rep.image))


def _missing_zero(n: int, k: int, q: int, sigmas) -> set[int]:
    """The totals among ``sigmas`` of the colourings of C_n into G_{k,q}
    that miss colour 0: walks of n steps in [q, k-q] from a start c in
    1..k-1 to c + sigma that land on no multiple of k, found by one bitset
    of reachable partial sums per start."""
    top = n * (k - q) + k
    allowed = sum(1 << x for x in range(top) if x % k)
    found = set()
    for c in range(1, k):
        reach = 1 << c
        for _ in range(n):
            spread = 0
            for t in range(q, k - q + 1):
                spread |= reach << t
            reach = spread & allowed
        found.update(s for s in sigmas if reach >> (c + s) & 1)
    return found


def _arc(length: int, delta: int, k: int, q: int) -> tuple[int, int]:
    """The least and greatest sum of ``length`` steps in [q, k-q] that is
    delta mod k; the least exceeds the greatest when there is none."""
    a, b = length * q, length * (k - q)
    return a + (delta - a) % k, b - (b - delta) % k


def _least_member(walk: list[int], k: int, q: int, sigma: int) -> tuple[int, ...]:
    """The least colouring of the cycle ``walk`` into G_{k,q} with winding
    total sigma, nq < sigma < n(k-q), pinning vertices in index order.

    Vertex 0 takes colour 0, as the class holds every shift.  Between two
    consecutive pinned positions a and b of the walk, an arc of L steps,
    the step sums reaching b's colour from a's are the integers of
    [Lq, L(k-q)] in one residue class mod k.  The pins are feasible iff
    every arc has such a sum and sigma lies between the totals of the arcs'
    least and greatest sums, since those sums step by k independently.
    Pinning a vertex at offset L1 into an arc of L1 + L2 steps keeps that
    iff the arc's sum t is one the others leave room for and the first L1
    steps sum to some s with s in [L1 q, L1(k-q)] and t - s in
    [L2 q, L2(k-q)]; the vertex's colour is then a's plus s, so its least
    feasible colour is the least residue over those intervals of s.
    """
    n = len(walk)
    pos = {v: i for i, v in enumerate(walk)}
    pinned = [0, n]  # positions; n is position 0 again
    colour = {0: 0, n: 0}
    arcs = {0: _arc(n, 0, k, q)}  # each arc's (least, greatest) sum, by its start
    least, most = arcs[0]
    image = [0] * n
    for v in range(1, n):
        p = pos[v]
        j = bisect(pinned, p)
        a, b = pinned[j - 1], pinned[j]
        lo1, hi1 = (p - a) * q, (p - a) * (k - q)
        lo2, hi2 = (b - p) * q, (b - p) * (k - q)
        m, big = arcs[a]
        best = k
        for t in range(max(m, sigma - most + big), min(big, sigma - least + m) + 1, k):
            s, top = max(lo1, t - hi2), min(hi1, t - lo2)
            if s <= top:
                c = (colour[a] + s) % k
                best = min(best, 0 if c + top - s >= k else c)
        first = _arc(p - a, best - colour[a], k, q)
        second = _arc(b - p, colour[b] - best, k, q)
        least += first[0] + second[0] - m
        most += first[1] + second[1] - big
        arcs[a], arcs[p] = first, second
        colour[p] = image[v] = best
        insort(pinned, p)
    return tuple(image)
