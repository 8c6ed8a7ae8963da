"""Folds, stiffness, dismantlability, rigidity, retractions and cores.

A fold removes a vertex v whose closed neighbourhood fits inside another
vertex's, N(v) a subset of N(u), loops included in both sets; the map fixing
everything else and sending v to u is then a retraction.  A graph with no
fold available is stiff.  Repeated folding reaches a terminal graph that is
unique up to isomorphism, and the original graph is dismantlable exactly
when that terminal is rigid (admits no endomorphism besides the identity).
The fold search itself is ``graphs._folds``, below the rule ladder.
"""

from __future__ import annotations

from itertools import repeat
from typing import NamedTuple

from .errors import CapExceededError
from .graphs import Graph, _bits, _folds, clique_number
from .homgraph import components
from .homs import Hom, compose, identity_hom, is_hom, iter_homs


class FoldStep(NamedTuple):
    """One fold in the labels current at the time of the fold."""

    removed: int
    absorber: int


class StiffReduction(NamedTuple):
    steps: tuple[FoldStep, ...]
    terminal: Graph
    terminal_is_rigid: bool | None


class DismantleResult(NamedTuple):
    dismantlable: bool
    reduction: StiffReduction
    witness_endo: Hom | None  # a non-identity endomorphism of the terminal


class CoreResult(NamedTuple):
    """A retract with no proper retracts, plus the maps certifying it.

    ``vertices`` lists the core in the original labels; ``retraction`` maps
    the original graph onto the relabelled core and ``section`` embeds it
    back, composing to the identity.
    """

    core: Graph
    vertices: tuple[int, ...]
    retraction: Hom
    section: Hom


class SelfMixingResult(NamedTuple):
    mixing: bool
    method: str


def find_fold(g: Graph) -> FoldStep | None:
    """Lexicographically least (removed, absorber) pair, or None if stiff:
    the first step of ``stiff_reduction``, read off a whole reduction."""
    pairs = _folds(g.rows)[0]
    return FoldStep(*pairs[0]) if pairs else None


def make_fold(g: Graph, removed: int, absorber: int) -> FoldStep:
    """Build a FoldStep for the pair, verifying the containment first."""
    if not (0 <= removed < g.n and 0 <= absorber < g.n) or removed == absorber:
        raise ValueError("fold endpoints out of range")
    if g.rows[removed] | g.rows[absorber] != g.rows[absorber]:
        raise ValueError(
            f"({removed}, {absorber}) is not a fold: N({removed}) not within N({absorber})")
    return FoldStep(removed, absorber)


def apply_fold(g: Graph, step: FoldStep) -> Graph:
    """Remove the folded vertex after re-checking the neighbourhood containment."""
    make_fold(g, step.removed, step.absorber)
    return g.delete_vertex(step.removed)


def stiff_reduction(g: Graph) -> StiffReduction:
    """Fold the least pair until no fold remains (``graphs._folds``).

    FoldSteps are made by ``tuple.__new__``, past FoldStep's Python
    ``__new__``.  The terminal is induced once at the end; a stiff g is
    its own terminal.
    """
    pairs, alive = _folds(g.rows)
    if not pairs:
        return StiffReduction((), g, None)
    steps = tuple(map(tuple.__new__, repeat(FoldStep), pairs))
    return StiffReduction(steps, g.induced(_bits(alive)), None)


def _other_endo(g: Graph, cap: int | None) -> tuple[int, ...] | None:
    """First endomorphism other than the identity in search order, or None."""
    ident = tuple(range(g.n))
    return next((im for im in iter_homs(g, g, cap) if im != ident), None)


def is_rigid(g: Graph, cap: int | None = None) -> bool:
    """Only endomorphism is the identity, decided by exhaustive search.

    The budget counts partial assignments; running out raises rather than
    guessing.
    """
    return _other_endo(g, cap) is None


def is_dismantlable(g: Graph, cap: int | None = None) -> DismantleResult:
    """Fold to the stiff terminal, then decide its rigidity.

    The certificate is the fold list plus either rigidity by exhaustion or a
    non-identity endomorphism of the terminal.
    """
    red = stiff_reduction(g)
    t = red.terminal
    other = _other_endo(t, cap)
    rigid = other is None
    witness = None if rigid else Hom(t.n, t.n, other)
    return DismantleResult(rigid, StiffReduction(red.steps, t, rigid), witness)


def is_retraction(r: Hom, section: Hom, big: Graph, small: Graph) -> bool:
    """Is r: big -> small a homomorphism splitting the given embedding?

    The section must embed small into big; the three checks are that both
    maps are homomorphisms and that section followed by r is the identity.
    """
    if r.source_n != big.n or r.target_n != small.n:
        raise ValueError("retraction shape does not match the graphs")
    if section.source_n != small.n or section.target_n != big.n:
        raise ValueError("section shape does not match the graphs")
    if not is_hom(big, small, r.image):
        return False
    if not is_hom(small, big, section.image):
        return False
    return compose(section, r) == identity_hom(small)


def _idempotent_power(image: tuple[int, ...]) -> tuple[int, ...]:
    """The first power of the map equal to its own square."""
    cur = image
    while True:
        square = tuple(cur[c] for c in cur)
        if square == cur:
            return cur
        cur = tuple(cur[c] for c in image)


def _image_floor(g: Graph, cap: int | None) -> int:
    """No endomorphism image is smaller: a largest clique, or one vertex
    when g has a loop or no edge.  A clique search past ``cap`` gives up
    the bound (one vertex) rather than the answer."""
    if not (g.is_loop_free and any(g.rows)):
        return 1
    try:
        return clique_number(g, cap)
    except CapExceededError:
        return 1


def core_of(g: Graph, cap: int | None = None) -> CoreResult:
    """Smallest retract, reached by iterating non-injective endomorphisms.

    Each round walks the endomorphisms of the current graph in search order
    (budgeted) and takes the first one with the smallest image.  The walk
    stops early at an image as small as a largest clique, since none can be
    smaller.  The round then retracts onto the fixed vertices of an
    idempotent power.  Terminates when every endomorphism is injective.
    """
    cur = g
    keep = list(range(g.n))  # original labels of current vertices
    retr = list(range(g.n))  # original vertex -> position in keep
    while True:
        best: tuple[int, ...] | None = None
        best_size = cur.n + 1
        floor = _image_floor(cur, cap)
        for im in iter_homs(cur, cur, cap):
            size = len(set(im))
            if size < best_size:
                best, best_size = im, size
                if size == floor:
                    break
        if best is None:
            raise AssertionError("a graph always has the identity endomorphism")
        if best_size == cur.n:
            break
        rho = _idempotent_power(best)
        fixed = sorted(set(rho))
        pos = {v: i for i, v in enumerate(fixed)}
        cur = cur.induced(fixed)
        keep = [keep[v] for v in fixed]
        retr = [pos[rho[c]] for c in retr]
    core = cur
    retraction = Hom(g.n, core.n, tuple(retr))
    section = Hom(core.n, g.n, tuple(keep))
    if not is_retraction(retraction, section, g, core):
        raise AssertionError("core construction lost the retraction")
    return CoreResult(core, tuple(keep), retraction, section)


def self_mixing(g: Graph, cap: int | None = None) -> SelfMixingResult:
    """Is every endomorphism reachable from every other?

    A graph is self-mixing exactly when it is dismantlable.  For loop-free
    graphs reachability means single-vertex recolouring steps; with loops
    present those steps are not faithful and homotopy classes are used
    instead.  The dismantlability answer is cross-checked against a direct
    component count whenever the endomorphism space fits the budget.
    """
    verdict = is_dismantlable(g, cap)
    kind = "colour" if g.is_loop_free else "homomorphism"
    try:
        rep = components(g, g, kind=kind, cap=cap)
    except CapExceededError:
        return SelfMixingResult(verdict.dismantlable, "dismantlability")
    if rep.mixing != verdict.dismantlable:
        raise AssertionError("dismantlability disagrees with the component count")
    return SelfMixingResult(verdict.dismantlable, "dismantlability+components")
