"""The cross-check battery behind the CLI verify and zoo commands."""

from __future__ import annotations

import random
from collections import namedtuple

from .equivalence import (
    coarsening_check,
    fine_orbits,
    groupoid_equivalence_check,
    refinement_bijection_check,
    torsor_check,
    zip_classes,
)
from .forest import build_forest, limit_bijection_check
from .zipdata import (
    ZipDatum,
    e_infinity_characterization_check,
    refine,
    refine_to_stationary,
    twist_refine_identity_check,
)


# twists drawn by each of the two sampled twist checks
SAMPLES = 2


class CheckResult(namedtuple("CheckResult", "name passed detail", defaults=("",))):
    """One named cross-check: whether it passed, and an optional detail."""

    __slots__ = ()


def run_verification(z: ZipDatum, *, seed: int = 0) -> list:
    """Run every structural cross-check on one datum.

    Sampled checks draw deterministically from the sorted carriers, so the
    battery gives identical results on identical inputs.
    """
    rng = random.Random(seed)
    results = []

    trace = refine_to_stationary(z)
    refined_trace = refine_to_stationary(refine(z))
    # both stationary E are unions of disjoint root fibers: equal exactly
    # when their root pairs are, and |E_inf| is the sum of the fiber sizes
    stationary_pairs = trace.stationary_datum._pairs
    results.append(
        CheckResult(
            "refinement-invariance",
            stationary_pairs.keys() == refined_trace.stationary_datum._pairs.keys()
            and trace.g_infinity.members == refined_trace.g_infinity.members,
            f"|E_inf|={sum(len(z._root._fibers[r]) for r in stationary_pairs)} |G_inf|={trace.g_infinity.order}",
        )
    )
    results.append(
        CheckResult(
            "e-infinity-characterization",
            e_infinity_characterization_check(z, trace),
        )
    )

    carrier = z.G.elements
    tau_image = z.tau_image.elements
    ok = True
    for _ in range(SAMPLES):
        x = carrier[rng.randrange(len(carrier))]
        y = tau_image[rng.randrange(len(tau_image))]
        ok = ok and twist_refine_identity_check(z, x, y)
    results.append(CheckResult("twist-refine-commutation", ok, f"samples={SAMPLES}"))

    ok = True
    for _ in range(SAMPLES):
        x = carrier[rng.randrange(len(carrier))]
        e = z.E.elements[rng.randrange(z.E.order)]
        et = z.E.elements[rng.randrange(z.E.order)]
        y = z.G.mul(z.G.mul(z.pair_of(e)[0], x), z.pair_of(et)[1])
        ok = ok and twist_refine_identity_check(z, x, y, witnesses=(e, et))
    results.append(CheckResult("twisted-subgroup-conjugation", ok, f"samples={SAMPLES}"))

    coarse = zip_classes(z)
    fine = fine_orbits(z)
    results.append(
        CheckResult(
            "coarsening",
            coarsening_check(fine, coarse),
            f"fine={fine.class_count} coarse={coarse.class_count}",
        )
    )

    forest = build_forest(z)
    roots = forest.root_decomposition.representatives()
    results.append(
        CheckResult(
            "refinement-bijection",
            all(refinement_bijection_check(z, r, coarse=coarse) for r in roots),
            f"roots={len(roots)}",
        )
    )
    results.append(
        CheckResult(
            "torsor",
            all(torsor_check(z, r, report=coarse) for r in roots),
            f"roots={len(roots)}",
        )
    )

    ok = True
    for r in roots:
        e = z.E.elements[rng.randrange(z.E.order)]
        et = z.E.elements[rng.randrange(z.E.order)]
        y = z.G.mul(z.G.mul(z.pair_of(e)[0], r), z.pair_of(et)[1])
        ok = ok and groupoid_equivalence_check(z, r, y, e, et)
    results.append(CheckResult("groupoid-equivalence", ok, f"roots={len(roots)}"))

    results.append(
        CheckResult(
            "forest-limit",
            limit_bijection_check(forest, coarse),
            f"leaves={len(forest.leaves)} classes={coarse.class_count}",
        )
    )
    return results
