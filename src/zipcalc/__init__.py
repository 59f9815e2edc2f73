"""Refinement calculus for zip data over finite groups.

Importing the package compiles none of its modules.  The names below resolve
on first access (PEP 562), and the analysis and report layers, equivalence,
forest, verify and reports, are registered in sys.modules as lazy modules
whose body runs on first attribute access.  A CLI job thus compiles only
what its command runs: building a datum needs cli, groups, zipdata and zoo.
"""

import importlib
import importlib.util
import sys

_EXPORTS = {
    "groups": (
        "CayleyTableGroup",
        "FiniteGroup",
        "Homomorphism",
        "InputError",
        "InvariantViolation",
        "MatrixGroup",
        "PermutationGroup",
        "Subgroup",
        "closure",
        "double_cosets",
        "hom_from_generator_images",
        "inclusion_hom",
        "trivial_hom",
    ),
    "zipdata": (
        "RefinementTrace",
        "ZipDatum",
        "e_infinity_characterization_check",
        "is_tau_surjective",
        "refine",
        "refine_to_stationary",
        "twist",
        "twist_refine_identity_check",
    ),
    "equivalence": (
        "ClassReport",
        "ZipClass",
        "coarsening_check",
        "fine_orbits",
        "groupoid_equivalence_check",
        "refinement_bijection_check",
        "torsor_check",
        "zip_classes",
    ),
    "forest": (
        "RepForest",
        "build_forest",
        "classify",
        "forest_to_dot",
        "limit_bijection_check",
    ),
    "zoo": ("WittZipConfig", "build_small_zoo", "build_witt_zip", "zoo_entry"),
    "verify": ("CheckResult", "run_verification"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def _lazy(name: str):
    """Register the submodule name as a module whose body runs on first
    attribute access, as importlib.util.LazyLoader arranges."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


equivalence = _lazy("equivalence")
forest = _lazy("forest")
reports = _lazy("reports")
verify = _lazy("verify")


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
