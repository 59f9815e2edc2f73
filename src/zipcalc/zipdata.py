"""Zip data over finite groups, computed on their pair groups.

A zip datum is a pair of homomorphisms tau, sigma : E -> G.  Everything here
sees e in E only through its pair (tau(e), sigma(e)).  The pairs form the zip
group P <= G x G of Pink, Wedhorn and Ziegler, and E -> P is onto with kernel
K = ker tau ∩ ker sigma, so the fiber of each pair is a coset of K.

A datum built from tables (a root) sorts E into these fibers once.  Twisting
by x in G conjugates the second coordinate of every pair.  Refinement replaces
G by G_1 = pr1(P) and keeps the pairs whose second coordinate lies in G_1;
this is (sigma^-1(tau(E)), tau(E), tau, sigma).  Neither creates fibers: a
derived datum maps each root pair it keeps to its own pair, and its E is the
union of the kept root fibers.  Only a root holds the maps tau and sigma on
E; a derived datum is its root, its G and its pair table, and E-level data
are read on the root's E, so a derived datum's own E is built only when a
caller asks for it.

Over finite carriers the refinement chain is decreasing and becomes
stationary; the stationary E is the largest subgroup on which sigma maps into
the tau-image, and its tau-image is the stationary G.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from .groups import (
    FiniteGroup,
    Homomorphism,
    InputError,
    InvariantViolation,
    Partition,
    Subgroup,
    _mulclose,
    double_cosets,
)


class ZipDatum:
    """(E, G, tau, sigma) with tau, sigma : E -> G sharing source and target.

    The core is ``_pairs``: each pair of the root datum mapped to this
    datum's pair over the same fiber of E.  It iterates its root pairs in
    the key order of their fibers' key-minimal elements: ``_fibers`` walks
    the sorted E, and twist and refine keep the order, which fixes the
    witnesses verify draws.  A derived datum holds its root, its G and its
    pair table; all else it computes from them.  Instances are immutable.
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
        self._root = self

    @classmethod
    def _derive(cls, parent: "ZipDatum", G: FiniteGroup, pairs: dict, tau_image=None) -> "ZipDatum":
        """A datum over parent's root with carrier G and pair table pairs;
        a tau_image given is the one its pairs define, and is kept as is."""
        d = object.__new__(cls)
        d.G = G
        d._root = parent._root
        d._pairs = pairs
        if tau_image is not None:
            d.tau_image = tau_image
        return d

    def __repr__(self):
        # |P|, not |E|: a derived datum's E is built on first use
        return f"<ZipDatum |P|={len(self._pairs)} |G|={self.G.order}>"

    # -- the pair core ----------------------------------------------------------

    @cached_property
    def _fibers(self) -> dict:
        """Root pair -> its fiber in E, in key order; built on the root only."""
        tau, sigma = self.tau.table, self.sigma.table
        fibers = {}
        for e in self.E.elements:
            fibers.setdefault((tau[e], sigma[e]), []).append(e)
        return fibers

    @cached_property
    def _pairs(self) -> dict:
        return {p: p for p in self._fibers}

    @cached_property
    def _e_members(self) -> frozenset:
        """This datum's E as a set: the union of its root fibers, the root
        carrier's own set when they are all of them.  Read by E, by a trace's
        E-level subgroups and by report descriptors, for reports and oracles
        only."""
        root = self._root
        if len(self._pairs) == len(root._pairs):
            return root.E.element_set
        return frozenset(e for r in self._pairs for e in root._fibers[r])

    def pair_of(self, e):
        """(tau(e), sigma(e)) read off the pair table; None for e outside E."""
        root = self._root
        if e not in root.E:
            return None
        return self._pairs.get((root.tau.table[e], root.sigma.table[e]))

    def _conjugation_onto(self, other: "ZipDatum", et):
        """Root pair r of this datum -> the root pair of et^-1 * w * et, w the
        key-minimal witness of r, if this maps the pairs of this datum one to
        one onto those of other, a datum over the same root; else None.

        |P| products.  Conjugation by et is an automorphism of E, and K is
        normal in E because tau and sigma are homomorphisms, so it maps the
        fiber w*K of r onto the fiber (et^-1 * w * et)*K of r's image.  Hence
        the et^-1-conjugate of this datum's E, a union of fibers, is other's
        E exactly when the image is other's pair set, and on zip data the map
        is one to one: conjugation induces an automorphism of E/K = P.
        """
        root = self._root
        E, fibers = root.E, root._fibers
        et_inv = E.inv(et)
        image = {r: root.pair_of(E.mul(E.mul(et_inv, fibers[r][0]), et)) for r in self._pairs}
        values = set(image.values())
        return image if len(values) == len(image) and values == other._pairs.keys() else None

    @cached_property
    def tau_image(self) -> Subgroup:
        """pr1(P) = tau(E), as a subgroup of G."""
        return Subgroup(self.G, frozenset(a for a, _ in self._pairs.values()))

    @cached_property
    def sigma_image(self) -> Subgroup:
        """pr2(P) = sigma(E), as a subgroup of G."""
        return Subgroup(self.G, frozenset(b for _, b in self._pairs.values()))

    @cached_property
    def double_quotient(self) -> Partition:
        """tau(E)\\G/sigma(E), with key-minimal representatives."""
        return double_cosets(self.G, self.tau_image, self.sigma_image)

    @cached_property
    def action_pairs(self) -> tuple:
        """The distinct pairs (tau(e), sigma(e)), in key order."""
        return tuple(sorted(self._pairs.values()))

    @cached_property
    def transport(self) -> dict:
        """y in G -> tau(et * e) for witnesses e, et in E with
        y = tau(e) * r * sigma(et), r the representative of y's double coset.

        One walk of the double cosets from their representatives, by the
        moves double_cosets makes, records the witnesses as it goes, as orbit
        algorithms record words (Holt, Eick and O'Brien, ch. 4).  It carries
        (tau(e), tau(et)) from (1, 1): left by a generator a of tau(E) gives
        (a * tau(e), tau(et)), and right by a generator s of sigma(E) gives
        (tau(e), tau(et) * t), t the first coordinate of a pair (t, s).
        """
        G, mul, pairs = self.G, self.G.mul, self._pairs.values()
        moves = [(a, None, None) for a in self.tau_image.generating_set]
        moves += [(None, s, next(t for t, b in pairs if b == s)) for s in self.sigma_image.generating_set]
        carried = dict.fromkeys(self.double_quotient.representatives(), (G.identity, G.identity))
        stack = list(carried)
        while stack:
            y = stack.pop()
            tau_e, tau_et = carried[y]
            for a, s, t in moves:
                w = mul(a, y) if s is None else mul(y, s)
                if w not in carried:
                    carried[w] = (mul(a, tau_e), tau_et) if s is None else (tau_e, mul(tau_et, t))
                    stack.append(w)
        return {y: mul(tau_et, tau_e) for y, (tau_e, tau_et) in carried.items()}

    @cached_property
    def action_generators(self) -> tuple:
        """Small generating set of the pair group, as (a, inv(b)).

        Orbits of the full pair group equal worklist closures under these
        generators, which keeps class expansion linear in the orbit size.
        """
        G = self.G
        ident = (G.identity, G.identity)

        def pair_mul(p, q):
            return (G.mul(p[0], q[0]), G.mul(p[1], q[1]))

        gens = _mulclose(pair_mul, ident, self.action_pairs)[1]
        return tuple((a, G.inv(b)) for a, b in gens)

    # -- the E of a derived datum, built on first use --------------------------

    @cached_property
    def E(self) -> FiniteGroup:
        """This datum's E as a group: the root's E when its pairs cover the
        root's, else a restriction of it.  Kept as public API only, which
        tests/test_acceptance.py reads as ``refine(d).E``: the library reads
        E-level data on the root, through its E, ``_fibers`` and
        ``_e_members``, and never builds a derived datum's E."""
        root = self._root
        return root.E if len(self._pairs) == len(root._pairs) else root.E.restrict(self._e_members)


def twist(z: ZipDatum, x) -> ZipDatum:
    """Replace sigma by e -> x * sigma(e) * x^-1 for x in G: one conjugation
    per value of sigma, applied to the second coordinate of every pair.
    First coordinates are kept, so the twist shares z's tau-image, and
    refining any twist of z restricts to one G_1 group."""
    if x not in z.G:
        raise InputError("twist element outside G")
    G = z.G
    xinv = G.inv(x)
    conj = {b: G.mul(G.mul(x, b), xinv) for b in z.sigma_image.members}
    return ZipDatum._derive(z, G, {r: (a, conj[b]) for r, (a, b) in z._pairs.items()}, z.tau_image)


def refine(z: ZipDatum) -> ZipDatum:
    """One refinement step: G_1 = pr1(P), P_1 = {(a, b) in P : b in G_1}."""
    G1 = z.tau_image.as_group()
    g1 = G1.element_set
    return ZipDatum._derive(z, G1, {r: p for r, p in z._pairs.items() if p[1] in g1})


def is_tau_surjective(z: ZipDatum) -> bool:
    return z.tau_image.members == z.G.element_set


class RefinementTrace(namedtuple("RefinementTrace", "data")):
    """The refinement chain of a zip datum down to its stationary point.

    ``data`` holds the datum of each stage; data[0] is the input datum.
    ``stages[i]`` holds (E_i, G_i) as subgroups of the root's E and of the
    input datum's G, for i = 0..stationary_index; ``e_infinity`` is the
    stationary E and ``g_infinity`` its tau-image (one step past the last
    stored G).  The E-level subgroups are built on first use, and cached in
    the instance ``__dict__``: the class declares no ``__slots__``.  The
    last stage's E is ``e_infinity`` itself.
    """

    @property
    def stationary_index(self) -> int:
        return len(self.data) - 1

    @property
    def stationary_datum(self) -> ZipDatum:
        return self.data[-1]

    @cached_property
    def stages(self) -> tuple:
        es = [Subgroup(self.data[0]._root.E, d._e_members) for d in self.data[:-1]] + [self.e_infinity]
        return tuple(zip(es, (Subgroup(self.data[0].G, d.G.element_set) for d in self.data)))

    @cached_property
    def e_infinity(self) -> Subgroup:
        return Subgroup(self.data[0]._root.E, self.data[-1]._e_members)

    @cached_property
    def g_infinity(self) -> Subgroup:
        return Subgroup(self.data[0].G, self.data[-1].tau_image.members)


def refine_to_stationary(z: ZipDatum) -> RefinementTrace:
    """Iterate refinement until the pair group stops shrinking.

    Termination is guaranteed on finite carriers: each non-stationary step
    strictly shrinks P.  At the stationary index pr2(P_N) is contained in
    pr1(P_N), so E_N is the stationary subgroup and tau(E_N) its image.
    """
    data = [z]
    for _ in range(len(z._pairs) + 1):
        cur = data[-1]
        nxt = refine(cur)
        if not nxt._pairs.items() <= cur._pairs.items() or not nxt.G.element_set <= cur.G.element_set:
            raise InvariantViolation("refinement chain is not decreasing")
        if len(nxt._pairs) == len(cur._pairs):
            if not cur.sigma_image.members <= nxt.G.element_set:
                raise InvariantViolation("sigma does not map the stationary E into its tau-image")
            return RefinementTrace(tuple(data))
        data.append(nxt)
    raise InvariantViolation("refinement failed to become stationary")


def e_infinity_characterization_check(z: ZipDatum, trace: RefinementTrace) -> bool:
    """Cross-check the stationary E against an independent description by
    pairs.

    Compares the trace's stationary subgroup with
    { e in E : sigma(e) in G_inf * tau(e) * G_inf }.  Both sides are unions
    of root fibers, which are disjoint and non-empty: the description holds
    on all of a fiber or on none of it, and the stationary E is the union of
    the fibers of the stationary datum's pairs.  So the sets are equal
    exactly when the root pairs that qualify are the stationary datum's,
    for any tables, and no element of E is visited.  sigma(e) lies in
    G_inf * tau(e) * G_inf exactly when the two share a (G_inf, G_inf)
    double coset, so one double-coset partition of G answers every pair.
    No refinement code is used.  The trace must be one of a datum over z's
    root, such as z or a twist of z.
    """
    if trace.stationary_datum._root is not z._root:
        raise InputError("trace belongs to a datum over another root")
    rep_of = double_cosets(z.G, trace.g_infinity, trace.g_infinity).rep_of
    return {r for r, (a, b) in z._pairs.items() if rep_of[a] == rep_of[b]} == trace.stationary_datum._pairs.keys()


def twist_refine_identity_check(z: ZipDatum, x, y, *, witnesses=None) -> bool:
    """Check how twisting interacts with one refinement step.

    Without witnesses (requires y in tau(E)): refining the yx-twist must give
    the y-twist of the refined x-twist.  Both derive from z's root, so equal
    pair tables and carriers mean equal E, tau and sigma, and equal
    refinement chains from there on: the stationary subgroups agree too.

    With witnesses (e, et) such that y = tau(e)*x*sigma(et): the refined
    y-twist's E must be the et^-1-conjugate of the refined x-twist's E.
    Both are unions of root fibers, and since tau and sigma are
    homomorphisms the conjugate of a fiber is a fiber, so the check maps the
    refined x-twist's root pairs by ZipDatum._conjugation_onto, one product
    per pair, and builds no subset of E.  On tables that are not
    homomorphisms a fiber need not be a coset of K, and the verdict can
    differ from the E-level statement either way.  The witnesses' pairs are
    read off z's pair table.
    """
    _check_witnesses(z, x, y, witnesses)
    if witnesses is None:
        if y not in z.tau_image.members:
            raise InputError("precondition failed: y is not in the image of tau")
        lhs = refine(twist(z, z.G.mul(y, x)))
        rhs = twist(refine(twist(z, x)), y)
        return lhs._pairs == rhs._pairs and lhs.G.element_set == rhs.G.element_set
    return refine(twist(z, x))._conjugation_onto(refine(twist(z, y)), witnesses[1]) is not None


def _check_witnesses(z: ZipDatum, x, y, witnesses):
    """Raise InputError unless x and y lie in G and, for witnesses (e, et),
    both have pairs in z and y = tau(e)*x*sigma(et); return et's pair, or
    None without witnesses."""
    G = z.G
    for el, what in ((x, "x"), (y, "y")):
        if el not in G:
            raise InputError(f"precondition failed: {what} is not in G")
    if witnesses is None:
        return None
    pe, pet = map(z.pair_of, witnesses)
    if pe is None or pet is None:
        raise InputError("precondition failed: witnesses are not in E")
    if y != G.mul(G.mul(pe[0], x), pet[1]):
        raise InputError("precondition failed: y != tau(e) * x * sigma(et)")
    return pet
