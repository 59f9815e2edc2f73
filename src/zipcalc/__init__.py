"""Refinement calculus for zip data over finite groups."""

from .groups import (
    CayleyTableGroup,
    FiniteGroup,
    Homomorphism,
    InputError,
    InvariantViolation,
    MatrixGroup,
    PermutationGroup,
    Subgroup,
    closure,
    conjugate,
    conjugated_double_coset_map,
    conjugation_hom,
    double_coset_of,
    double_cosets,
    full_subgroup,
    hom_from_generator_images,
    identity_hom,
    inclusion_hom,
    trivial_hom,
    trivial_subgroup,
    validate_group_laws,
)
from .zipdata import (
    RefinementTrace,
    ZipDatum,
    e_infinity_characterization_check,
    is_tau_surjective,
    refine,
    refine_to_stationary,
    same_zip_datum,
    twist,
    twist_refine_identity_check,
)
from .equivalence import (
    ClassReport,
    ZipClass,
    coarsening_check,
    fine_orbits,
    groupoid_equivalence_check,
    member_stationary_subgroups,
    refinement_bijection_check,
    torsor_check,
    zip_classes,
)
from .forest import (
    ClassificationPath,
    RepForest,
    build_forest,
    classify,
    forest_to_dot,
    limit_bijection_check,
    reconstruct,
)
from .zoo import WittZipConfig, build_small_zoo, build_witt_zip, zoo_entry
from .verify import CheckResult, run_verification

__version__ = "0.1.0"
