"""Equivalence relations attached to a zip datum.

Two relations on the carrier of G are computed exhaustively: the fine orbits
of the action e.g = tau(e) * g * sigma(e)^-1, and the coarse relation where
y ~ x whenever y = tau(e) * g * x * sigma(e)^-1 with g in the stationary
image group of the x-twisted datum.  The remaining functions are structural
cross-checks: coarsening, the one-step refinement bijection, the fiber/orbit
structure of the class map (a torsor check), and the groupoid equivalence
between refined twists by elements of one double coset.

The action factors through the pair group P = {(tau(e), sigma(e))} <= G x G
of the datum (see zipdata): e.g = a * g * b^-1 for the pair (a, b) of e, and
E -> P is onto with kernel K = ker tau ∩ ker sigma.  So a class is the orbit
under P, walked over its generators by groups._orbit, of {x} (fine) or of
G_inf^x * x (coarse), as a double coset is of {x}, and groups._partition
splits G into classes.  The torsor check runs on P x G_inf^x under the
stationary pair group, with fibers of size |P_inf^x| instead of |E_inf^x|.
It certifies that each stationary pair acts inside G_inf^x and keeps the
class map's value, so each orbit, free and of size |P_inf^x|, lies in one
fiber; as the fibers partition P x G_inf^x, the count
|class| * |P_inf^x| = |P| * |G_inf^x| then forces each fiber to be one
orbit, and no point of P x G_inf^x is visited.  The groupoid check maps
pairs to pairs, both sides sharing the root's K, and tests equivariance at 1
and at the generators of G_1 only: for each pair, the g where it holds form
a centralizer, a subgroup (Holt, Eick and O'Brien, ch. 4).
Elements of E appear only as witnesses: those a check is given, and the
key-minimal element of each root fiber that the groupoid check conjugates.
verify gives the witnessed checks the key-minimal elements of two root
fibers drawn from the pair table; on zip data a witness's verdict depends
only on its fiber, a coset of K.
Every set of E's elements a check compares is a union of fibers, so it is
compared as a set of root pairs, and no subset of E is built.
"""

from __future__ import annotations

from collections import namedtuple

from .groups import InputError, Partition, _orbit, _partition
from .zipdata import ZipDatum, _check_witnesses, refine, refine_to_stationary, twist


class ZipClass(namedtuple("ZipClass", "witness members trace")):
    """One equivalence class: key-minimal witness, members, per-witness data.

    ``trace`` is the refinement trace of the witness's twist, whose
    ``e_infinity`` and ``g_infinity`` are the witness's stationary subgroups
    (None for fine orbits).  Its E-level subgroup is built only when read,
    by a report that prints its digest.
    """

    __slots__ = ()

    @property
    def size(self) -> int:
        return len(self.members)


class ClassReport(Partition):
    """The partition of the carrier of G under one of the two relations,
    its parts the ZipClasses keyed by witness."""

    def __init__(self, datum: ZipDatum, relation: str, partition: Partition):
        super().__init__(partition.parts, partition.rep_of)
        self.datum = datum
        self.relation = relation

    @property
    def classes(self) -> tuple:
        return tuple(self)

    @property
    def class_count(self) -> int:
        return len(self)

    def __repr__(self):
        return f"<ClassReport {self.relation} classes={self.class_count}>"


def _class_moves(z: ZipDatum) -> list:
    """y -> a * y * b^-1 for each generator (a, b) of the pair group."""
    mul = z.G.mul
    return [lambda y, a=a, binv=binv: mul(mul(a, y), binv) for a, binv in z.action_generators]


def fine_orbits(z: ZipDatum) -> ClassReport:
    """Orbits of e.g = tau(e) * g * sigma(e)^-1 on the carrier of G."""
    moves = _class_moves(z)
    orbits = _partition(z.G.elements, lambda x: ZipClass(x, frozenset(_orbit([x], moves)), None))
    return ClassReport(z, "fine-orbit", orbits)


def zip_classes(z: ZipDatum) -> ClassReport:
    """The coarse partition of G, one stationary-refinement run per witness:
    the class of x is { tau(e) * g * x * sigma(e)^-1 : e in E, g in G_inf^x },
    the orbit of G_inf^x * x under the pair group.  Each class keeps its
    witness's trace; no subset of E is built."""
    moves = _class_moves(z)

    def coarse(x):
        trace = refine_to_stationary(twist(z, x))
        seeds = [z.G.mul(g, x) for g in trace.g_infinity.members]
        return ZipClass(x, frozenset(_orbit(seeds, moves)), trace)

    return ClassReport(z, "zip-coarse", _partition(z.G.elements, coarse))


def coarsening_check(fine: ClassReport, coarse: ClassReport) -> bool:
    """True iff every fine orbit lies inside a single coarse class."""
    if fine.datum is not coarse.datum:
        raise InputError("reports belong to different zip data")
    return all(len({coarse.rep_of[m] for m in c.members}) == 1 for c in fine.classes)


def refinement_bijection_check(z: ZipDatum, x, *, coarse: ClassReport) -> bool:
    """Check that y -> y*x matches classes of the refined x-twist with the
    classes of ``coarse``, the report of z, inside the double coset
    tau(E) * x * sigma(E).

    Verifies the member-level identity (class of y) * x =
    (class of y*x) ∩ (refined carrier) * x, then bijectivity onto the classes
    meeting the double coset.
    """
    G = z.G
    if x not in G:
        raise InputError("element outside the carrier of G")
    if coarse.datum is not z:
        raise InputError("coarse report belongs to a different zip datum")
    z1x = refine(twist(z, x))
    sub = zip_classes(z1x)
    carrier_x = frozenset(G.mul(g, x) for g in z1x.G.elements)
    coset = z.double_quotient.part_of(x).members
    expected_targets = {c.witness for c in coarse.classes if c.members & coset}
    seen_targets = set()
    for c in sub.classes:
        image = frozenset(G.mul(y, x) for y in c.members)
        big = coarse.part_of(G.mul(c.witness, x))
        if image != big.members & carrier_x or big.witness in seen_targets:
            return False
        seen_targets.add(big.witness)
    return seen_targets == expected_targets


def torsor_check(z: ZipDatum, x, *, report: ClassReport) -> bool:
    """Check that P x G_inf^x -> class(x), ((a, b), g) -> a*g*x*b^-1, is onto
    the class of x in ``report`` and that every fiber is one free orbit of
    the stationary pair group P_inf^x acting by
    (u, w).((a, b), g) = ((a*u^-1, b*v^-1), u*g*w^-1), where (u, v) and
    (u, w) are one element's pairs in z and its x-twist.

    The check has two parts, and visits no point of P x G_inf^x.
    (1) Each stationary pair (u, w) of the x-twist has w in G_inf^x and
        w = x*v*x^-1, where (u, v) is z's pair under the same root pair.
    (2) The image, the orbit of G_inf^x * x under P walked over its
        generators, is the class of x in ``report``, and
        |image| * |P_inf^x| = |P| * |G_inf^x|.
    Proof that they suffice.  By (1) the map is invariant under the action:
    a*u^-1 * u*g*w^-1 * x * v*b^-1 = a*g*x*b^-1, since w^-1*x*v = x.  The
    action is free: its first coordinate is right multiplication by
    (u, v)^-1 in G x G, and by (1) (u, v) determines w.  So each orbit has
    |P_inf^x| elements and lies in one fiber, and each non-empty fiber is a
    disjoint union of such orbits.  The fibers partition P x G_inf^x, and
    |image| of them are non-empty, since the action generators generate P
    and the image is therefore the map's value set.  So the non-empty
    fibers, each of at least |P_inf^x| points, hold |P| * |G_inf^x| points
    between them, and the count in (2) leaves room for exactly one orbit in
    each.  The action is well defined, and P_inf^x a group acting on
    P x G_inf^x, because tau and sigma are homomorphisms, as their
    certificate guarantees: P and P_inf^x are then groups, so
    (a*u^-1, b*v^-1) lies in P, and G_inf^x = tau(E_inf^x) is a group
    holding u, g and, by (1), w, so u*g*w^-1 lies in G_inf^x.
    Conversely fibers that are single orbits give (1), as value invariance
    on any point forces w = x*v*x^-1 and u*g*w^-1 in G_inf^x forces w in
    G_inf^x, and give the count, as |image| orbits of |P_inf^x| points
    cover P x G_inf^x.

    The image is computed the way zip_classes computes the class, so the
    first clause of (2) tests only the report's G_inf^x and its membership;
    the statement itself rests on (1) and the count.

    This is the class map on E x G_inf^x, where eps acts by
    (e*eps^-1, tau(eps)*g*(x-twisted sigma)(eps)^-1), divided by
    K = ker tau ∩ ker sigma: E -> P is onto with kernel K and K lies in
    E_inf^x, so fibers and orbits upstairs are the K-saturations of those
    here, and the fiber size |E_inf^x| becomes |P_inf^x|.
    """
    G = z.G
    if x not in G:
        raise InputError("element outside the carrier of G")
    if report.datum is not z:
        raise InputError("report belongs to a different zip datum")
    trace = refine_to_stationary(twist(z, x))
    ginf, xinv = trace.g_infinity, G.inv(x)
    stationary_pairs = trace.stationary_datum._pairs
    for r, (_, w) in stationary_pairs.items():
        if w not in ginf.members or w != G.mul(G.mul(x, z._pairs[r][1]), xinv):
            return False

    image = _orbit([G.mul(g, x) for g in ginf.members], _class_moves(z))
    return image == report.part_of(x).members and len(image) * len(stationary_pairs) == len(z._pairs) * ginf.order


def groupoid_equivalence_check(z: ZipDatum, x, y, e, e_tilde) -> bool:
    """Check the equivalence between the refined x-twist and y-twist induced
    by witnesses y = tau(e) * x * sigma(e~).

    The map sends eps -> e~^-1 * eps * e~ on the E side and
    g -> tau(e~)^-1 * g * x * sigma(e~) * y^-1 on the carrier side.  The check
    verifies that both are bijections onto the y-side components, that the
    induced pair map psi_pair is a bijection from the pairs of the refined
    x-twist onto those of the refined y-twist, and that the map is
    equivariant for the two actions: psi_g(p.g) = psi_pair(p).psi_g(g) for
    every pair p and every g in G_1, tested at g = 1 and at the generators
    of G_1.

    The E side is decided on root pairs.  Both twists share z's root, so
    the same K = ker tau ∩ ker sigma, and each E side is the union of the
    root fibers of its pairs.  As tau and sigma are homomorphisms, K is
    normal and conjugation by e~ maps a fiber onto a fiber, so
    ZipDatum._conjugation_onto maps each root pair of the x side to the
    root pair of its key-minimal witness's conjugate, |P| products, and
    the conjugate of the x side's E is the y side's exactly when that map
    is onto the y side's pairs.  Its being one to one as well is the
    bijectivity of psi_pair, which reads the two pair tables along it.  On
    tables that are not homomorphisms only the witnesses are conjugated, so
    the check can pass where the E-level statement fails.

    The probes suffice.  Write psi_g(g) = T*g*S, with T = tau(e~)^-1 and
    S = x*sigma(e~)*y^-1; a pair p acts by p.g = p0*g*p1.  For
    q = psi_pair(p) the equation at g reads m_p*g = g*n_p, where
    m_p = T^-1*q0^-1*T*p0 and n_p = S*q1*(p1*S)^-1.  At g = 1 it gives
    m_p = n_p, and then it holds at g exactly when g centralizes m_p.  A
    centralizer is a subgroup, so the equation holds on all of G_1 if and
    only if it holds on G_1's generators.  This equivalence is exact for any
    pair table, forged ones included; computing the generators certifies
    that G_1 is closed, and raises InputError where it is not.

    Orbits and stabilizers then correspond (Holt, Eick and O'Brien, ch. 4).
    p fixes g iff psi_g(p.g) = psi_g(g), as psi_g is injective, iff
    psi_pair(p) fixes psi_g(g); psi_pair is onto the y-side pairs, so it maps
    the stabilizer of g onto the stabilizer of psi_g(g).  By induction on
    words in the pairs, psi_g maps the orbit of g, its closure under the
    pairs, into the orbit of psi_g(g), and every word in the y-side pairs is
    psi_pair of a word in the x-side pairs, so onto it.  On zip data
    psi_pair(a, b) = (t^-1 * a * t, c * b * c^-1) with t = tau(e~) and
    c = tau(e), a bijection, so this check agrees with the one that scans
    orbits and stabilizers.  The witnesses' pairs are read off z's pair
    table.
    """
    G = z.G
    pet = _check_witnesses(z, x, y, (e, e_tilde))
    zx1, zy1 = refine(twist(z, x)), refine(twist(z, y))
    root_pairs = zx1._conjugation_onto(zy1, e_tilde)
    if root_pairs is None:
        return False
    shift = G.mul(G.mul(x, pet[1]), G.inv(y))
    t_et_inv = G.inv(pet[0])
    psi_g = {g: G.mul(G.mul(t_et_inv, g), shift) for g in zx1.G}
    if frozenset(psi_g.values()) != zy1.G.element_set:
        return False

    def with_inverse(a, b):  # pairs are stored as (a, b^-1): act inverts nothing
        return a, G.inv(b)

    psi_pair = {with_inverse(*zx1._pairs[r]): with_inverse(*zy1._pairs[s]) for r, s in root_pairs.items()}

    def act(pair, g):
        return G.mul(G.mul(pair[0], g), pair[1])

    probes = (G.identity, *zx1.G.generators)
    return all(psi_g[act(p, g)] == act(q, psi_g[g]) for p, q in psi_pair.items() for g in probes)
