"""gridlab: grid-poset Ramsey laboratory.

Finite posets and grids, casual embeddings and cores, coloring reductions,
desk-scale exhaustive Ramsey verification with certificates, Boolean
dimension, the matching-extension machinery, and the planar-graph
refutation argument. See the README for the CLI and file formats.
"""

from .errors import (
    ChainStepFailure,
    ContractViolation,
    DomainError,
    GridlabError,
    GuardExceeded,
    InvalidInput,
)
from .poset import (
    LinearExtension,
    Poset,
    Realizer,
    automorphisms,
    count_linear_extensions,
    dimension,
    dual,
    enumerate_isomorphisms,
    find_realizer,
    induced_subposet,
    is_alternating_cycle,
    is_isomorphic,
    is_linear_extension,
    is_realizer,
    linear_extensions,
    make_antichain,
    make_chain,
    product,
)
from .grids import (
    CasualEmbedding,
    GridPoset,
    Subgrid,
    casual_embeddings,
    colex_order,
    core,
    core_elements,
    count_subgrids,
    enumerate_subgrids,
    grid,
    lex_order,
    obstruction_sets,
    subgrids_within,
    unique_realizer_check,
)
from .ramsey import (
    KIND_COMPARABILITY,
    KIND_PARTITION,
    KIND_SUBGRID,
    KIND_SUBPOSET,
    BootstrapStep,
    Coloring,
    FunctionColoring,
    MapColoring,
    MonoWitness,
    Symmetry,
    ThresholdResult,
    Verdict,
    boolean_lattice_embed,
    box_symmetry,
    comparability_keys,
    enumerate_induced_copy_sets,
    find_monochromatic_copy,
    find_monochromatic_subgrid,
    hash_coloring,
    index_structures,
    min_ramsey_n,
    multicolor_bootstrap,
    random_map_coloring,
    realizer_type_probe,
    reduce_comparability_to_subgrid,
    reduce_subposet_to_subgrid,
    run_engine,
    scan_threshold,
    verify_at,
    verify_bootstrap_chain,
    verify_comparability_ramsey,
    verify_grid_ramsey,
    vertex_symmetry,
)
from .booldim import (
    BooleanRealizer,
    boolean_dim,
    from_dm_realizer,
    is_boolean_realizer,
    reconstruct_realizer,
    signature,
)
from .extension import (
    AntipodalPair,
    Partition,
    all_good_check,
    antipodal_pairs,
    build_conforming_embedding,
    coarsen,
    coarsenings,
    collect_uniform_pair_colors,
    color_hypercube,
    nonuniform_counterexample_demo,
    pair_to_partition,
    partition_ramsey_search,
    partition_to_pair,
)
from .graphs import (
    Graph,
    bipartite_edge_decomposition,
    degeneracy_coloring,
    find_mono_induced_subgraph,
    is_bipartite,
)

__version__ = "0.1.0"
