"""Exact computations around cA_{p-1} configurations on K3 and Enriques surfaces."""

from .classifier import (
    EnriquesInput,
    K3Input,
    Pi1Descriptor,
    TableRow,
    admissible_pairs,
    cover_euler_solutions,
    enriques_classify,
    k3_classify,
    table_lookup,
    transport_singularities,
)
from .elliptic import (
    FibrationSpec,
    KodairaFibre,
    height,
    height_pair,
    local_contribution,
    parse_fibration,
    validate_fibration,
    verify_divisibility_relation,
)
from .finite_geometry import (
    AffineSpaceModel,
    affine_hyperplanes,
    affine_space,
    ag23_lattice,
    ag23_unique_six_set,
    hyperplane_covering_search,
    kummer_lattice,
)
from .groups import (
    FiniteGroupTable,
    GroupPresentation,
    catalog_group,
    count_normal_subgroups,
    count_normal_subgroups_isomorphic_to,
    filter_extensions,
    group_from_presentation,
    is_isomorphic,
)
from .lattice_core import (
    AbelianInvariants,
    EmbeddedSublattice,
    GramLattice,
    catalog_lattice,
    discriminant_group,
    is_p_divisible_class,
    parse_lattice,
    primitive_closure,
    smith_normal_form,
)
from .root_config import (
    ChainConfiguration,
    DivisibleSubsetWitness,
    enriques_mod2_divisibility,
    find_p_divisible_subsets,
    odd_p_divisibility_by_finite_index,
    weighted_chain_class,
)

__version__ = "0.1.0"
