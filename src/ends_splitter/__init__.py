"""Discrete harmonic end-functions on Cayley-graph truncations.

Builds finite balls of Cayley graphs for groups with infinitely many ends,
solves the Dirichlet problem for {0,1}-valued boundary data on end classes,
detects and classifies necks, certifies energy-gap lower bounds, and
assembles the wall tree on which the group acts with finite edge
stabilizers.
"""

__version__ = "0.1.0"

from .ends import (
    EndClass,
    EndFunction,
    all_nonconstant_end_functions,
    complement_components,
    end_classes,
    make_end_function,
)
from .groups import (
    Element,
    Net,
    Presentation,
    Truncation,
    build_net,
    build_truncation,
    group_ball,
    path_truncation,
)
from .harmonic import (
    HarmonicField,
    SolverConfig,
    decay_profile,
    energy,
    energy_form,
    lattice_ops,
    pullback,
    solve_dirichlet,
    spectral_gap,
)
from .necks import (
    PartitionParams,
    classify_neck,
    dual_graph,
    energy_gap_estimate,
    find_necks,
    gap_certificate,
    partition_K,
    special_sets,
)
from .walls import (
    action_on_tree,
    build_wall_tree,
    build_walls,
    choose_threshold,
    indecomposable_regions,
    sample_images,
    trichotomy,
)

__all__ = [
    "Element", "EndClass", "EndFunction", "HarmonicField", "Net",
    "PartitionParams", "Presentation", "SolverConfig", "Truncation",
    "action_on_tree", "all_nonconstant_end_functions",
    "build_net", "build_truncation", "build_wall_tree", "build_walls",
    "choose_threshold", "classify_neck", "complement_components",
    "decay_profile", "dual_graph", "end_classes", "energy", "energy_form",
    "energy_gap_estimate", "find_necks", "gap_certificate", "group_ball",
    "indecomposable_regions", "lattice_ops",
    "make_end_function", "partition_K", "path_truncation", "pullback",
    "sample_images", "solve_dirichlet", "special_sets", "spectral_gap",
    "trichotomy", "__version__",
]
