"""Circular-colouring arithmetic and certified (k,q)-mixing scans.

The fraction k/q is the resolution of a circular colouring; its lower
parent is the Farey predecessor k'/q' with kq'-k'q = 1 (computed by
``graphs._lower_parent``).  Deleting any vertex from G_{k,q} (coprime
case) dismantles onto the lower-parent clique, which tells the cycle rule
which winding classes hold a colouring that misses a colour
(``homgraph._cycle_classes``), and deleting a full residue orbit from
G_{kd,qd} dismantles onto G_{k(d-1),q(d-1)}.
A scan's rows are ``homgraph.is_mixing``'s verdicts: a row that a rule
answers without a join, such as a mixing theorem (k > (2q-1) col, which
implies the bounds 2 col and col+1 that a report prints, or k/q above
twice the maximum degree), is certified by that rule plus an exact count
of the colourings; every other row by explicit component computation.
"""

from __future__ import annotations

from contextlib import suppress
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .errors import CapExceededError, NoColouringsError
from .graphs import (Graph, _bits, _clique_parameters, _lower_parent,
                     circular_clique, clique_number, is_bipartite)
from .homgraph import _avail_masks, _col_dmax, components, is_mixing
from .homs import Hom, is_hom
from .structure import FoldStep, apply_fold, is_retraction, make_fold


class LowerParent(NamedTuple):
    """The unique (k',q') with kq'-k'q = 1 and q >= q' >= 1."""

    k: int
    q: int
    parent_k: int
    parent_q: int

    @property
    def value(self) -> Fraction:
        return Fraction(self.parent_k, self.parent_q)


class LowerParentBound(NamedTuple):
    """Exact rational lower bound on k'/q' relative to a fraction j/p.

    ``case`` records which side of j/p the bound lands on: "q'=p" gives
    k'/q' >= j/p exactly, "q'>p" gives a strict improvement, "q'<p" a
    bound that may dip below j/p.
    """

    parent: LowerParent
    j: int
    p: int
    bound: Fraction
    case: str


class AvailableColours(NamedTuple):
    """Colours a vertex may take with all neighbours held fixed.

    The current colour is always a member.  ``is_interval`` means the set
    is cyclically contiguous mod k; the empty set, singletons, and the
    full colour set all count as intervals.
    """

    vertex: int
    colours: tuple[int, ...]
    is_interval: bool


class FlexibilityResult(NamedTuple):
    flexible: bool
    witness: Hom | None  # representative of a class with no non-surjective member


class ScaleRetraction(NamedTuple):
    """The floor map G_{kd,qd} -> G_{k,q} with its multiplication section."""

    k: int
    q: int
    d: int
    retraction: Hom
    section: Hom


class OrbitDismantle(NamedTuple):
    """Fold-by-fold dismantling of G_{kd,qd}-i onto G_{k(d-1),q(d-1)}.

    ``steps`` use the labels current at the time of each fold (matching
    apply_fold); ``relabel`` maps the residual graph's labels onto the
    target clique and is verified by exact graph equality.
    """

    k: int
    q: int
    d: int
    i: int
    start: Graph
    removed_orbit: tuple[int, ...]  # original labels, in removal order
    steps: tuple[FoldStep, ...]
    residual: Graph
    relabel: tuple[int, ...]
    target: Graph


class MixingScanRow(NamedTuple):
    """One certified verdict.  k and q are kept exactly as given; only
    ``value`` reduces the fraction."""

    k: int
    q: int
    value: Fraction
    verdict: str  # "Mixing" | "NotMixing" | "NoColourings" | "Skipped"
    hom_count: int | None
    class_count: int | None
    witnesses: tuple[tuple[int, ...], ...]


class ScanBound(NamedTuple):
    quantity: str  # "m" | "M" | "m_c" | "M_c"
    relation: str  # "<=" | ">=" | ">"
    value: Fraction
    source: str
    certified: str  # "theorem" | "scan"


class MixingScanReport(NamedTuple):
    graph_name: str
    rows: tuple[MixingScanRow, ...]
    bounds: tuple[ScanBound, ...]


def _require_frac(k: int, q: int) -> None:
    if q < 1 or k < 2 * q:
        raise ValueError(f"({k}, {q}) is not a circular-clique fraction: need k >= 2q >= 2")


def _require_coprime(k: int, q: int) -> None:
    if gcd(k, q) != 1:
        raise ValueError(f"({k}, {q}) must be coprime")


def lower_parent(k: int, q: int) -> LowerParent:
    """Farey predecessor: kq'-k'q = 1 with q >= q' >= 1, unique."""
    _require_frac(k, q)
    _require_coprime(k, q)
    kp, qp = _lower_parent(k, q)
    assert k * qp - kp * q == 1 and 1 <= qp <= q
    return LowerParent(k, q, kp, qp)


def lower_parent_bound(k: int, q: int, j: int, p: int) -> LowerParentBound:
    """How far the lower parent can fall below k/q, relative to j/p < k/q.

    The bound k'/q' >= j/p + (q'-p)/(p*q*q') follows from the exact
    identity k'/q' = k/q - 1/(q*q') and k/q - j/p >= 1/(p*q).
    """
    if j < 1 or p < 1:
        raise ValueError("j and p must be positive integers")
    parent = lower_parent(k, q)
    if Fraction(k, q) <= Fraction(j, p):
        raise ValueError(f"{k}/{q} must exceed {j}/{p}")
    qp = parent.parent_q
    bound = Fraction(j, p) + Fraction(qp - p, p * q * qp)
    assert parent.value >= bound
    case = "q'=p" if qp == p else ("q'>p" if qp > p else "q'<p")
    return LowerParentBound(parent, j, p, bound, case)


def _check_colouring(f: Hom, g: Graph, k: int, q: int) -> Graph:
    _require_frac(k, q)
    target = circular_clique(k, q)
    if f.source_n != g.n or f.target_n != k:
        raise ValueError("colouring shape does not match the graph and fraction")
    if not is_hom(g, target, f.image):
        raise ValueError(f"not a valid ({k},{q})-colouring")
    return target


def available_colours(f: Hom, v: int, g: Graph, k: int, q: int) -> AvailableColours:
    """All colours v could hold against its neighbours' current colours.

    This is the complement of the union of blocked intervals
    [f(u)-q+1, f(u)+q-1] over neighbours u, taken mod k: the colours
    adjacent in G_{k,q} to every neighbour's colour.
    """
    target = _check_colouring(f, g, k, q)
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    colours = _bits(_avail_masks(f.image, g, target)[v])
    return AvailableColours(v, tuple(colours), _is_cyclic_interval(colours, k))


def _is_cyclic_interval(colours, k: int) -> bool:
    s = set(colours)
    if len(s) in (0, k):
        return True
    boundaries = sum(1 for c in s if (c + 1) % k not in s)
    return boundaries == 1


def is_flexible(g: Graph, k: int, q: int, cap: int | None = None) -> FlexibilityResult:
    """Does every colouring class contain a non-surjective colouring?

    Classes are the recolouring components of the (k,q)-colouring space;
    the witness is the representative of the first class consisting
    entirely of surjective colourings.
    """
    _require_frac(k, q)
    rep = components(g, circular_clique(k, q), kind="colour", cap=cap)
    if rep.total == 0:
        raise NoColouringsError(f"no ({k},{q})-colourings exist")
    for cls in rep.classes:
        if not cls.contains_non_surjective:
            return FlexibilityResult(False, cls.rep)
    return FlexibilityResult(True, None)


def avoid_colour_normalize(f: Hom, g: Graph, k: int, q: int) -> list[Hom]:
    """Recolouring walk from a non-surjective colouring to one avoiding 0.

    Repeatedly frees the next colour along the rotation i, i+q, i+2q, ...
    by dropping every vertex coloured i+q down to i+q-1 (one vertex per
    step); coprimality makes the rotation reach 0.  Starts from the
    avoided colour whose rotation reaches 0 soonest.  Returns the walk
    after f, empty when f avoids 0 already.
    """
    _require_coprime(k, q)
    target = _check_colouring(f, g, k, q)
    used = set(f.image)
    if len(used) == k:
        raise ValueError("colouring is surjective: no colour to rotate from")
    hops = next(t for t in range(k) if (-t * q) % k not in used)
    cur = list(f.image)
    path: list[Hom] = []
    colour = (-hops * q) % k
    for _ in range(hops):
        nxt = (colour + q) % k
        down = (nxt - 1) % k
        for v in range(g.n):
            if cur[v] == nxt:
                cur[v] = down
                assert is_hom(g, target, cur)
                path.append(Hom(g.n, k, tuple(cur)))
        colour = nxt
    assert 0 not in set(cur)
    return path


def scale_retraction(k: int, q: int, d: int) -> ScaleRetraction:
    """r(u) = u // d from G_{kd,qd} onto G_{k,q}, with section u -> d*u."""
    _require_frac(k, q)
    _require_coprime(k, q)
    if d < 1:
        raise ValueError("d must be a positive integer")
    big = circular_clique(k * d, q * d)
    small = circular_clique(k, q)
    r = Hom(big.n, small.n, tuple(u // d for u in range(big.n)))
    s = Hom(small.n, big.n, tuple(d * u for u in range(small.n)))
    if not is_retraction(r, s, big, small):
        raise AssertionError("floor map failed retraction verification")
    return ScaleRetraction(k, q, d, r, s)


def delete_vertex_dismantle(k: int, q: int, d: int, i: int) -> OrbitDismantle:
    """Fold G_{kd,qd}-i down to G_{k(d-1),q(d-1)}, one orbit vertex at a time.

    The vertices i, i+qd, i+2qd, ... (the residue class of i mod d) leave
    in rotation order, each folding onto its clockwise predecessor; the
    predecessor's neighbourhood differs only by an already-deleted orbit
    vertex, so every step is re-verified as a genuine fold.  The residual
    graph equals the target clique after ranking vertices from i+1.
    """
    _require_frac(k, q)
    _require_coprime(k, q)
    if d < 2:
        raise ValueError("d must be at least 2; the d=1 case folds to the lower parent")
    n = k * d
    if not 0 <= i < n:
        raise ValueError(f"vertex {i} out of range for G_{{{n},{q * d}}}")
    start = circular_clique(n, q * d).delete_vertex(i)
    labels = [u for u in range(n) if u != i]  # current label -> original label
    cur = start
    steps = []
    removed = []
    for t in range(1, k):
        rm_orig = (i + t * q * d) % n
        ab_orig = (rm_orig - 1) % n
        step = make_fold(cur, labels.index(rm_orig), labels.index(ab_orig))
        cur = apply_fold(cur, step)
        steps.append(step)
        removed.append(rm_orig)
        labels.pop(step.removed)
    target = circular_clique(k * (d - 1), q * (d - 1))
    order = sorted(range(len(labels)), key=lambda idx: (labels[idx] - i - 1) % n)
    relabel = [0] * len(labels)
    for rank, idx in enumerate(order):
        relabel[idx] = rank
    if cur.relabel(relabel) != target:
        raise AssertionError("residual graph does not match the target clique")
    return OrbitDismantle(k, q, d, i, start, tuple(removed), tuple(steps),
                          cur, tuple(relabel), target)


def _theorem_bounds(g: Graph, cap: int | None) -> list[ScanBound]:
    """The bounds a scan report prints, as the literature states them; the
    scan's rule, k > (2q-1) col, implies the 2 col and col + 1 ones.  A
    clique search past ``cap`` gives up the clique bound, not the scan."""
    col, dmax = _col_dmax(g)
    has_edge = dmax > 0
    out = [
        ScanBound("M_c", "<=", Fraction(2 * col), "twice the colouring number", "theorem"),
        ScanBound("M", "<=", Fraction(col + 1), "colouring number plus one", "theorem"),
        ScanBound("M_c", "<=", max(Fraction(g.n + 1, 2), Fraction(col + 1)),
                  "max of (|V|+1)/2 and the integer threshold", "theorem"),
    ]
    if has_edge:
        out.insert(1, ScanBound("M_c", "<=", Fraction(2 * dmax),
                                "twice the maximum degree", "theorem"))
    if has_edge and not is_bipartite(g):
        with suppress(CapExceededError):
            out.append(ScanBound("m_c", ">=", Fraction(max(4, clique_number(g, cap) + 1)),
                                 "non-bipartite clique lower bound", "theorem"))
    params = _clique_parameters(g)
    if params is not None:
        ck, cq = params
        ceil_val = -(-ck // cq)
        if ck >= 3 * (cq - 1) + 1:
            out.append(ScanBound("M", "<=", Fraction(ceil_val + 1),
                                 "circular-clique integer threshold", "theorem"))
        out.append(ScanBound("M_c", "<=", max(Fraction(ck + 1, 2), Fraction(ceil_val + 1)),
                             "circular-clique circular threshold", "theorem"))
    return out


def _scan_evidence(rows) -> list[ScanBound]:
    out = []
    mixing = [r.value for r in rows if r.verdict == "Mixing"]
    notmix = [r.value for r in rows if r.verdict == "NotMixing"]
    empty = [r.value for r in rows if r.verdict == "NoColourings"]
    if mixing:
        out.append(ScanBound("m_c", "<=", min(mixing),
                             "smallest fraction certified Mixing", "scan"))
    if notmix:
        out.append(ScanBound("M_c", ">=", max(notmix),
                             "largest fraction certified NotMixing", "scan"))
    if empty:
        out.append(ScanBound("m_c", ">", max(empty),
                             "no colourings exist at this fraction", "scan"))
    int_mix = [r.k for r in rows if r.verdict == "Mixing" and r.q == 1]
    int_not = [r.k for r in rows if r.verdict == "NotMixing" and r.q == 1]
    if int_mix:
        out.append(ScanBound("m", "<=", Fraction(min(int_mix)),
                             "smallest integer count certified Mixing", "scan"))
    if int_not:
        out.append(ScanBound("M", ">=", Fraction(max(int_not) + 1),
                             "integer count certified NotMixing", "scan"))
    return out


def mixing_scan(g: Graph, fracs, cap: int | None = None) -> MixingScanReport:
    """Certified verdict per fraction plus labeled bound summary.

    Every row is ``is_mixing``'s verdict on the shared G_{k,q}: a row that
    a rule answers without a join (``homgraph._ruled``), such as a mixing
    theorem, is certified by that rule and an exact count of its
    colourings, and every other row by an exact class computation.  What
    the rows read of g and of each G_{k,q} (box sources, g's cycle walk,
    colouring number and maximum degree, the target's parameters) is kept
    on the graph objects (``graphs._kept``), so it is worked out once for
    all rows and later scans.
    Rows with more than ``cap`` colourings are recorded as Skipped and the
    scan continues.
    Fractions are scanned exactly as given, never reduced.  The summary
    lists theorem bounds beside scan evidence; the two kinds are tagged so
    enumeration facts stay distinguishable from derived inequalities.
    """
    if not g.is_loop_free:
        raise ValueError("mixing scans are defined for loop-free graphs")
    fracs = list(fracs)
    for k, q in fracs:
        _require_frac(k, q)
    rows = []
    for k, q in fracs:
        value = Fraction(k, q)
        try:
            v = is_mixing(g, circular_clique(k, q), cap)
        except CapExceededError:
            rows.append(MixingScanRow(k, q, value, "Skipped", None, None, ()))
            continue
        witnesses = () if v.witness is None else tuple(w.image for w in v.witness)
        rows.append(MixingScanRow(k, q, value, v.name, v.hom_count,
                                  v.class_count, witnesses))
    bounds = _theorem_bounds(g, cap) + _scan_evidence(rows)
    return MixingScanReport(g.name or "", tuple(rows), tuple(bounds))
