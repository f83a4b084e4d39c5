"""Finite-window group systems toolkit.

Analyze strongly controllable complete group systems on a finite time
window: generator bases and granules, the two canonical encoders, the
decomposition and generator groups with their triangle-local elementary
groups, sawtooth partitions and normal chains, and elementary systems with
their global-group reconstruction.
"""

from .chains import (
    STANDARD_FILLINGS,
    FillingSequence,
    NormalChain,
    PairedSequence,
    block_code_chains,
    complementary,
    decompose_along_chain,
    eigentriangle_expansion,
    enumerate_normal_fillings,
    is_normal_filling_sequence,
    normal_chain,
    normal_subgroup_from_ps,
    oplus_group,
    purge,
    reconstruct_from_chain,
    standard_filling,
)
from .elementary import (
    ConstructionStrategy,
    ElementarySystem,
    check_homomorphism_condition,
    construct_elementary_system,
    depth_restrict,
    extract_elementary_system,
    global_group_system,
    global_product,
    recover_original,
    roundtrip_label_maps,
)
from .extensions import ExtensionSearch, enumerate_extensions, fibre_product
from .generators import (
    ElementaryGroupTable,
    GeneratorContext,
    alpha_t,
    alpha_t_hom,
    build_context,
    elementary_group,
    lower_elementary_group,
    nested_anchors,
    nested_hom,
    recover_system_fhgs,
    star,
    triangle,
    triangle_projection,
)
from .groups import (
    FiniteGroup,
    Homomorphism,
    QuotientPresentation,
    Subgroup,
    cyclic_group,
    direct_product,
    find_isomorphism,
    is_isomorphic,
    is_normal,
    make_group,
    product_of_subgroups,
    quotient,
    subgroup_closure,
    symmetric_group_3,
    trivial_group,
    zassenhaus_hom,
)
from .io import (
    dump_elementary_system,
    dump_group,
    dump_system,
    load_elementary_system_file,
    load_group_file,
    load_system_file,
    parse_elementary_system,
    parse_group,
    parse_system,
    resolve_group,
)
from .systems import (
    GeneratorBasis,
    GroupSystem,
    all_tensors,
    alphabet_matrix,
    build_system,
    controllability_index,
    decode_to_tensor,
    encode_spectral_domain,
    encode_time_domain,
    extract_basis,
    fold_spectral_domain,
    fold_time_domain,
    spectral_granule,
    tensor_from_items,
    time_granule,
    window_slots,
)

__version__ = "0.1.0"
