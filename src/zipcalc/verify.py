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

    Sampled checks draw deterministically, so the battery gives identical
    results on identical inputs: x and y from the sorted G and tau-image,
    and each witness (e, et) as the key-minimal elements of two root fibers,
    drawn uniformly from the pair table in its key order.  Every fiber is a
    coset of K = ker tau ∩ ker sigma, so a uniform fiber is the fiber of a
    uniform e in E, and both witnessed checks read e and et only through
    their pairs and their fibers; no element of E is listed for the draw.
    """
    rng = random.Random(seed)
    results = []
    root_pairs, fibers = list(z._pairs), z._root._fibers

    def witnessed(x):
        """y = tau(e)*x*sigma(et) and the witnesses (e, et) of one draw."""
        r, rt = (root_pairs[rng.randrange(len(root_pairs))] for _ in range(2))
        y = z.G.mul(z.G.mul(z._pairs[r][0], x), z._pairs[rt][1])
        return y, (fibers[r][0], fibers[rt][0])

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
        y, witnesses = witnessed(x)
        ok = ok and twist_refine_identity_check(z, x, y, witnesses=witnesses)
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
        y, witnesses = witnessed(r)
        ok = ok and groupoid_equivalence_check(z, r, y, *witnesses)
    results.append(CheckResult("groupoid-equivalence", ok, f"roots={len(roots)}"))

    results.append(
        CheckResult(
            "forest-limit",
            limit_bijection_check(forest, coarse),
            f"leaves={len(forest.leaves)} classes={coarse.class_count}",
        )
    )
    return results
