"""Deciding and certifying mixing of graph colourings and homomorphisms.

The colour graph of HOM(G, H) joins two homomorphisms when they differ at
exactly one vertex; G is H-mixing when that graph is connected.  This
package enumerates homomorphism spaces exactly, reports their connectivity
classes, and exposes the structural machinery that decides mixing without
enumeration where possible: folds and dismantling retractions, cores,
circular cliques and their lower parents, winding invariants that certify
non-mixing, and precolouring extension over layered products.

Everything runs on exact integer arithmetic and is deterministic: repeated
runs produce identical reports, including tie-breaks.
"""

from types import ModuleType as _ModuleType

from .circular import (AvailableColours, FlexibilityResult, LowerParent,
                       LowerParentBound, MixingScanReport, MixingScanRow,
                       OrbitDismantle, ScaleRetraction, ScanBound,
                       available_colours, avoid_colour_normalize,
                       delete_vertex_dismantle, is_flexible, lower_parent,
                       lower_parent_bound, mixing_scan, scale_retraction)
from .errors import (CapExceededError, CircmixError, DisconnectedError,
                     GraphFormatError, NoColouringsError, RingHypothesisError)
from .extension import (ExtensionResult, PrecolouringInstance, RadiusBound,
                        core_ext_radius_bound, extend, greedy_ring_extension,
                        layered_extension_check)
from .fixtures import REGISTRY, gadget_g62x, resolve_graph_spec
from .graphs import (Graph, are_isomorphic, canonical_key, circular_clique,
                     clique_number, colouring_number, complete_graph,
                     cycle_graph, extension_product, format_graph,
                     frozen_regular_graph, is_bipartite, max_clique,
                     parse_graph, path_graph, read_graph, shortest_odd_cycle,
                     tensor_product, write_graph)
from .homgraph import (ClassSummary, ComponentReport, MixingVerdict,
                       colour_adjacent, components, hom_adjacent,
                       homotopy_distance, homotopy_path, is_frozen,
                       is_mixing, radius_centre, recolour_neighbours)
from .homs import (Hom, HomSpace, chromatic_number, circular_chromatic_number,
                   compose, enumerate_homs, first_hom, format_image,
                   hom_count, hom_exists, identity_hom, is_hom, iter_homs,
                   parse_image)
from .structure import (CoreResult, DismantleResult, FoldStep, SelfMixingResult,
                        StiffReduction, apply_fold, core_of, find_fold,
                        is_dismantlable, is_retraction, is_rigid, make_fold,
                        self_mixing, stiff_reduction)
from .winding import (ConstrictingResult, CycleTrace, NonMixingCertificate,
                      check_certificate, cycle_trace, is_constricting,
                      nonmixing_certificate, reflect_colouring)

__version__ = "0.1.0"

# the submodules are bound here too, by the imports above; they are not exported
__all__ = [name for name, value in sorted(globals().items())
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
