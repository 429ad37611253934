"""Finite soft bitopological spaces and their soft-element view.

Decides pairwise separation axioms and compactness properties, verifies
the supporting theory exhaustively on small instances, and handles one
finitely-presented infinite-parameter case exactly.
"""

__version__ = "0.1.0"

from .errors import (
    CapacityError,
    InputError,
    NoSoftElementsError,
    NotACoverError,
    SoftBitopError,
)
from .finsets import (
    BitopPair,
    ClassicalTopology,
    FinSet,
    enumerate_topologies,
    generate_topology,
    is_topology,
    minimal_subcover,
    minimal_subcover_indices,
    pairwise_t0,
    pairwise_t1,
    pairwise_t2,
)
from .softsets import (
    ElementSpace,
    SESubset,
    SoftSet,
    enumerate_soft_elements,
    is_se_representable,
    se_of_softset,
    soft_equal,
    soft_intersection,
    soft_subset,
    soft_union,
)
from .softtop import (
    SEFamily,
    SoftTopology,
    canonical_enlargement,
    canonical_topology,
    check_finest_open_projections,
    component_topology,
    induced_topology,
    is_canonical,
    is_soft_topology,
    reconstruct,
)
from .pairwise import (
    SoftBitopSpace,
    SoftCover,
    Verdict,
    component_bitop,
    cylinder,
    find_finite_subcover,
    induced_bitop,
    induced_verdicts,
    is_pairwise_soft_cover,
    pairwise_soft_t0,
    pairwise_soft_t1,
    pairwise_soft_t2,
    search_counterexamples,
    verify_theorems,
)
from .symbolic import (
    CofiniteSoftSet,
    TemplateFamily,
    cf_is_cover,
    cf_section,
    decide_finite_subcover,
    truncate_family,
    truncate_soft_set,
)
