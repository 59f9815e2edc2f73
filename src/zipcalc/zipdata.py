"""Zip data over finite groups: twisting, refinement, and the stationary
subgroups the refinement chain converges to.

A zip datum is a pair of homomorphisms tau, sigma : E -> G.  Refinement
replaces it by (sigma^-1(tau(E)), tau(E), tau, sigma); twisting by x in G
conjugates sigma.  Over finite carriers the refinement chain is decreasing
and becomes stationary; the stationary E is the largest subgroup on which
sigma maps into the tau-image, and its tau-image is the stationary G.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .groups import (
    FiniteGroup,
    Homomorphism,
    InputError,
    InvariantViolation,
    Subgroup,
    _mulclose,
)


class ZipDatum:
    """(E, G, tau, sigma) with tau, sigma : E -> G sharing source and target.

    Instances are immutable; the cached pair/kernel machinery below is shared
    by every enumeration that only sees e through (tau(e), sigma(e)).
    """

    def __init__(self, E: FiniteGroup, G: FiniteGroup, tau: Homomorphism, sigma: Homomorphism):
        if tau.source is not E or sigma.source is not E:
            raise InputError("tau and sigma must share the source group E")
        if tau.target is not G or sigma.target is not G:
            raise InputError("tau and sigma must share the target group G")
        self.E = E
        self.G = G
        self.tau = tau
        self.sigma = sigma

    def __repr__(self):
        return f"<ZipDatum |E|={self.E.order} |G|={self.G.order}>"

    @cached_property
    def action_pairs(self) -> tuple:
        """Distinct (tau(e), sigma(e)) pairs, each with its key-minimal witness."""
        witness = {}
        for e in self.E:
            witness.setdefault((self.tau(e), self.sigma(e)), e)
        return tuple((a, b, w) for (a, b), w in sorted(witness.items()))

    @cached_property
    def action_generators(self) -> tuple:
        """Small generating set of the pair group, as (a, inv(b), witness e).

        Orbits of the full pair group equal worklist closures under these
        generators, which keeps class expansion linear in the orbit size.
        """
        G = self.G
        pairs = [(a, b) for a, b, _ in self.action_pairs]
        witness = {(a, b): w for a, b, w in self.action_pairs}
        ident = (G.identity, G.identity)

        def pair_mul(p, q):
            return (G.mul(p[0], q[0]), G.mul(p[1], q[1]))

        gens = _mulclose(pair_mul, ident, sorted(pairs))[1]
        return tuple((a, G.inv(b), witness[(a, b)]) for a, b in gens)

    @cached_property
    def pair_kernel(self) -> Subgroup:
        """ker tau ∩ ker sigma; elements of E invisible to the action."""
        e1 = self.G.identity
        return Subgroup(
            self.E,
            frozenset(e for e in self.E if self.tau(e) == e1 and self.sigma(e) == e1),
        )

    @cached_property
    def kernel_transversal(self) -> dict:
        """Map e -> key-minimal representative of the coset e * pair_kernel."""
        ker = self.pair_kernel.elements
        rep = {}
        for e in self.E:
            if e not in rep:
                for k in ker:
                    rep[self.E.mul(e, k)] = e
        return rep


def same_zip_datum(a: ZipDatum, b: ZipDatum) -> bool:
    """Value equality: same element spaces, carriers, and hom tables."""
    return (
        a.E.space() == b.E.space()
        and a.G.space() == b.G.space()
        and a.E.element_set == b.E.element_set
        and a.G.element_set == b.G.element_set
        and a.tau.table == b.tau.table
        and a.sigma.table == b.sigma.table
    )


def twist(z: ZipDatum, x) -> ZipDatum:
    """Replace sigma by e -> x * sigma(e) * x^-1 for x in G."""
    if x not in z.G:
        raise InputError("twist element outside G")
    G = z.G
    xinv = G.inv(x)
    table = {e: G.mul(G.mul(x, z.sigma(e)), xinv) for e in z.E}
    return ZipDatum(z.E, z.G, z.tau, Homomorphism(z.E, z.G, table))


def refine(z: ZipDatum) -> ZipDatum:
    """One refinement step: (sigma^-1(tau(E)), tau(E), tau, sigma).

    The restricted maps are re-materialized on the smaller carriers, which
    re-checks that both images land in the new G.
    """
    g1 = z.tau.image()
    e1 = z.sigma.preimage(g1)
    E1 = e1.as_group()
    G1 = g1.as_group()
    tau1 = z.tau.restrict(E1, G1)
    sigma1 = z.sigma.restrict(E1, G1)
    return ZipDatum(E1, G1, tau1, sigma1)


def is_tau_surjective(z: ZipDatum) -> bool:
    return z.tau.image().members == z.G.element_set


@dataclass(frozen=True)
class RefinementTrace:
    """The refinement chain of a zip datum down to its stationary point.

    ``stages[i]`` holds (E_i, G_i) as subgroups of the input datum's groups,
    for i = 0..stationary_index; ``e_infinity`` is the stationary E and
    ``g_infinity`` its tau-image (one step past the last stored G).
    """

    stages: tuple
    stationary_index: int
    e_infinity: Subgroup
    g_infinity: Subgroup
    data: tuple  # ZipDatum per stage; data[0] is the input datum

    @property
    def stationary_datum(self) -> ZipDatum:
        return self.data[-1]


def refine_to_stationary(z: ZipDatum) -> RefinementTrace:
    """Iterate refinement until E stops shrinking.

    Termination is guaranteed on finite carriers: each non-stationary step
    strictly shrinks E.  At the stationary index sigma(E_N) is contained in
    tau(E_N), so E_N is the stationary subgroup and tau(E_N) its image.
    """
    E0, G0 = z.E, z.G
    data = [z]
    stages = [(Subgroup(E0, E0.element_set), Subgroup(G0, G0.element_set))]
    for _ in range(E0.order + 1):
        nxt = refine(data[-1])
        cur = data[-1]
        if not nxt.E.element_set <= cur.E.element_set or not nxt.G.element_set <= cur.G.element_set:
            raise InvariantViolation("refinement chain is not decreasing")
        if nxt.E.element_set == cur.E.element_set:
            n = len(data) - 1
            einf = Subgroup(E0, cur.E.element_set)
            ginf = Subgroup(G0, nxt.G.element_set)  # tau(E_N)
            if not frozenset(cur.sigma.table.values()) <= ginf.members:
                raise InvariantViolation("sigma does not map the stationary E into its tau-image")
            return RefinementTrace(tuple(stages), n, einf, ginf, tuple(data))
        data.append(nxt)
        stages.append((Subgroup(E0, nxt.E.element_set), Subgroup(G0, nxt.G.element_set)))
    raise InvariantViolation("refinement failed to become stationary")


def e_infinity_characterization_check(z: ZipDatum, trace: RefinementTrace) -> bool:
    """Cross-check the stationary E against an independent scan of E.

    Compares the trace's stationary subgroup with
    { e in E : sigma(e) in G_inf * tau(e) * G_inf }, deciding membership once
    per (tau, sigma)-pair since both sides are unions of pair fibers.
    """
    G = z.G
    ginf = trace.g_infinity.members
    ginf_sorted = trace.g_infinity.elements
    decided = {}
    described = set()
    for e in z.E:
        a, b = z.tau(e), z.sigma(e)
        ok = decided.get((a, b))
        if ok is None:
            ainv = G.inv(a)
            # b in Ginf*a*Ginf  iff  some h in Ginf has a^-1*h*b in Ginf
            ok = any(G.mul(G.mul(ainv, h), b) in ginf for h in ginf_sorted)
            decided[(a, b)] = ok
        if ok:
            described.add(e)
    return frozenset(described) == trace.e_infinity.members


def twist_refine_identity_check(z: ZipDatum, x, y, *, witnesses=None) -> bool:
    """Check how twisting interacts with one refinement step.

    Without witnesses (requires y in tau(E)): refining the yx-twist must give
    the y-twist of the refined x-twist, including equal stationary subgroups.

    With witnesses (e, et) such that y = tau(e)*x*sigma(et): the refined
    y-twist's E must be the et^-1-conjugate of the refined x-twist's E.
    """
    G = z.G
    if x not in G:
        raise InputError("precondition failed: x is not in G")
    if y not in G:
        raise InputError("precondition failed: y is not in G")
    if witnesses is None:
        if y not in z.tau.image().members:
            raise InputError("precondition failed: y is not in the image of tau")
        lhs = refine(twist(z, G.mul(y, x)))
        rhs = twist(refine(twist(z, x)), y)
        if not same_zip_datum(lhs, rhs):
            return False
        lt = refine_to_stationary(twist(z, G.mul(y, x)))
        rt = refine_to_stationary(rhs)
        return (
            lt.e_infinity.members == rt.e_infinity.members
            and lt.g_infinity.members == rt.g_infinity.members
        )
    e, et = witnesses
    if e not in z.E or et not in z.E:
        raise InputError("precondition failed: witnesses are not in E")
    if y != G.mul(G.mul(z.tau(e), x), z.sigma(et)):
        raise InputError("precondition failed: y != tau(e) * x * sigma(et)")
    E = z.E
    e1x = refine(twist(z, x)).E.element_set
    e1y = refine(twist(z, y)).E.element_set
    et_inv = E.inv(et)
    conjugated = frozenset(E.mul(E.mul(et_inv, h), et) for h in e1x)
    return e1y == conjugated
