"""Knockout-robustness structures of discrete input-output systems.

Exact-rational conditional-independence checks, Gibbs/Moebius analysis of
post-knockout kernel families, and the algebra that certifies robustness
structures: generalized binomial edge ideals, their combinatorial Groebner
basis, and the primary decomposition indexed by maximal structures.
"""

from .errors import InputError, ResourceLimitError
from .model import (
    JointDistribution,
    RobustnessSpec,
    StateSpace,
    make_uniform_spec,
    restrict,
    validate_distribution,
)
from .graph import (
    InputGraph,
    RobustnessStructure,
    build_graph,
    check_product_form,
    components_of,
    enumerate_maximal_structures,
    grow_to_maximal,
    is_maximal,
    maximality_by_edges,
)
from .ci import (
    RobustFunction,
    StructureParams,
    build_from_structure,
    check_ci_statement,
    classify_structure,
    image_bound,
    is_robust,
    is_robust_function,
    membership_in_PB,
    robustness_report,
    sample_structure_params,
)
from .gibbs import (
    FunctionalModalities,
    GibbsPotentials,
    KInteractionDecomposition,
    alpha_coefficient,
    check_robust_at,
    check_tilde_constraints,
    gibbs_kernel,
    k_interaction_decompose,
    moebius_potentials,
    neuron_modalities,
    positive_mixture,
    potential_robustness_criterion,
)
from .ideal import (
    EdgeBinomial,
    GroebnerElement,
    Unknown,
    edge_generators,
    enumerate_admissible_paths,
    enumerate_strict_antitone,
    find_reduction_witness,
    groebner_set,
    is_reduced,
)
from .polyengine import (
    Bidegree,
    Monomial,
    Polynomial,
    bidegree,
    buchberger,
    buchberger_criterion,
    ideal_membership,
    reduce,
    s_polynomial,
)
from .decomp import (
    MatrixPoint,
    component_ideal,
    containment,
    point_in_VG,
    point_in_VGY,
    verify_primary_decomposition,
    verify_union_decomposition,
)

__version__ = "0.1.0"
