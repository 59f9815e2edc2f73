"""Rooted forests of double-coset representatives.

A top node at generation -1 holds the datum itself, with accumulated product
1.  Every unstable node has as children the representatives r of its datum's
double quotient (ZipDatum.double_quotient); a child's accumulated product is
r times its parent's, and its datum is its parent's twisted by r and refined
once.  This is the inductive step of Pink, Wedhorn and Ziegler: the classes
inside the double coset of r are those of the r-twisted datum refined once.
Generation 0 thus holds representatives of tau(E)\\G/sigma(E).  A node is
stable once tau is surjective in its datum: from there on the double
quotients are single cosets and refinement keeps every pair and G, so the
subtree is an identity chain sharing the node's datum.  Generations are
materialized until every node is stable; classification walks the
materialized part, carrying an element of the double coset of r into the
child's carrier by the transport table of the node's datum
(ZipDatum.transport).

Built from its parent, a node's datum is the one defined from the root: at
generation g with accumulated product a it is refine^(g+1)(twist(z, a)).
Twisting keeps first coordinates, so refine(twist(w, y)) = twist(refine(w), y)
for every y in tau(E_w), the identity verify's twist-refine-commutation check
samples.  A child's representative r lies in its parent's G, hence in every
earlier G of the decreasing chain, and twist(twist(z, a), r) = twist(z, r*a);
so twist(refine^(g+1)(twist(z, a)), r) = refine^(g+1)(twist(z, r*a)), and
refining once more gives the child's datum, pair table and carrier alike.
"""

from __future__ import annotations

from .groups import InputError, InvariantViolation
from .zipdata import ZipDatum, is_tau_surjective, refine, twist


class ForestNode:
    """One representative in the forest; immutable apart from child wiring.
    An unstable node's children are keyed by the representatives of its
    datum's double quotient, a stable node's by the identity alone."""

    __slots__ = ("element", "parent", "generation", "accumulated", "stable", "datum", "children")

    def __init__(self, element, parent, generation, accumulated, datum, stable):
        self.element = element
        self.parent = parent
        self.generation = generation
        self.accumulated = accumulated
        self.datum = datum
        self.stable = stable
        # element -> child, in key order
        self.children: dict = {}

    def path_elements(self) -> tuple:
        node, out = self, []
        while node is not None:
            out.append(node.element)
            node = node.parent
        return tuple(reversed(out))

    def path_id(self, fmt) -> str:
        """The path's element keys joined by '/': the node's identifier in
        the forest reports, since one element can sit at several nodes."""
        return "/".join(map(fmt, self.path_elements()))

    def __repr__(self):
        return f"<ForestNode gen={self.generation} stable={self.stable}>"


class RepForest:
    """The materialized forest below its top node, and the stable nodes whose
    carrier's key-minimal element is not the identity.  The datum is the top
    node's, and the root decomposition tau(E)\\G/sigma(E) is its double
    quotient."""

    def __init__(self, top, generations, identity_rep_flags):
        self.top = top
        self.datum = top.datum
        self.root_decomposition = top.datum.double_quotient
        self.generations = generations
        self.identity_rep_flags = identity_rep_flags

    @property
    def stationary_generation(self) -> int:
        return len(self.generations) - 1

    @property
    def roots(self) -> tuple:
        return self.generations[0]

    @property
    def leaves(self) -> tuple:
        return self.generations[-1]


def build_forest(z: ZipDatum) -> RepForest:
    """Build generations below the top node until every branch is stable.

    Each child's datum comes from its parent's: refine(twist(d, r)) below an
    unstable node with datum d, or refine(d) for r = 1, which twists nothing;
    and d itself below a stable one, where refining keeps every pair and G.
    Both equal the definition from the root, at generation g
    refine^(g+1)(twist(z, accumulated)), since refinement commutes with
    twists inside tau(E) (see the module docstring).  The top node is never
    stable, so generation 0 always holds the root representatives, even when
    tau is surjective.  Termination: an unstable node's child datum has a
    strictly smaller carrier, so every path reaches tau-surjectivity within
    |G| levels.  This is checked at every unstable node below the top, and
    a child that does not shrink raises InvariantViolation naming the node.
    """
    G = z.G
    top = ForestNode(G.identity, None, -1, G.identity, z, False)
    generations, layer = [], (top,)
    while not all(node.stable for node in layer):
        nxt = []
        for node in layer:
            d = node.datum
            if node.stable:
                steps = [(G.identity, node.accumulated, d)]
            else:
                # the top's accumulated product is 1: no multiplication
                steps = [(rep, rep if node is top else G.mul(rep, node.accumulated),
                          refine(d if rep == G.identity else twist(d, rep)))
                         for rep in d.double_quotient.representatives()]
                if node is not top and any(child.G.order >= d.G.order for _, _, child in steps):
                    raise InvariantViolation(
                        f"forest node {node.path_id(G.format_element)}: a child datum's carrier did not shrink")
            for rep, acc, child_datum in steps:
                child = ForestNode(rep, None if node is top else node, node.generation + 1, acc, child_datum,
                                   node.stable or is_tau_surjective(child_datum))
                node.children[rep] = child
                nxt.append(child)
        layer = tuple(nxt)
        generations.append(layer)
    flags = []
    for gen in generations:
        for node in gen:
            if node.stable and min(node.datum.G.elements) != G.identity:
                flags.append(node)
    return RepForest(top, tuple(generations), tuple(flags))


def classify(forest: RepForest, x) -> tuple:
    """The representative path of x, its entries (r_0, ..., r_N) walked down
    from the top node: at an unstable node the entry indexes the coset of
    the current element in the node's double quotient, and the element
    moves on to its transport, read off the node datum's table; at a stable
    node the entry is the identity.  r_0 thus indexes the double coset of x,
    and the walk stops at the stable generation.

    The transport of y = tau(e) * r * sigma(et) is tau(et * e), for
    witnesses (e, et) over the pair (u, v) = (tau(e), sigma(et)) that the
    double quotient's walk records for y (see groups.double_cosets), read
    off by ZipDatum.transport.  The path does not depend on that choice: by
    the induction, any witnesses carry y, and every element of y's class,
    into one class of the refined r-twist, the child's datum, and that
    datum's double cosets are unions of its classes, so each later entry is
    fixed by the class alone.  Which (u, v) the walk records, and which e
    over u and et over the pair (tau(et), v), is free in the same way."""
    G = forest.datum.G
    if x not in G:
        raise InputError("element outside the carrier of G")
    entries, node, current = [], forest.top, x
    while node.children:
        if node.stable:
            r = G.identity
        else:
            r = node.datum.double_quotient.rep_of[current]
            current = node.datum.transport[current]
        entries.append(r)
        node = node.children[r]
    return tuple(entries)


def limit_bijection_check(forest: RepForest, oracle: ClassReport) -> bool:
    """True iff classification is constant on every oracle class, distinct
    across classes, and the number of maximal stable paths equals the class
    count."""
    if oracle.datum is not forest.datum:
        raise InputError("oracle report belongs to a different zip datum")
    if len(forest.leaves) != oracle.class_count:
        return False
    seen = set()
    for c in oracle.classes:
        path = classify(forest, c.witness)
        if path in seen:
            return False
        seen.add(path)
        for m in c.members:
            if m != c.witness and classify(forest, m) != path:
                return False
    return True


def forest_to_dot(forest: RepForest) -> str:
    """DOT rendering: roots ranked first, nodes labeled with element keys and
    stability flags.  Node identifiers are path ids, since the same element
    can appear at several positions."""
    fmt = forest.datum.G.format_element

    def quote(s):
        return '"' + s.replace('"', '\\"') + '"'

    def node_id(node):
        return quote(node.path_id(fmt))

    lines = ["digraph representative_forest {"]
    lines.append("  { rank=min; " + " ".join(node_id(n) + ";" for n in forest.roots) + " }")
    for gen in forest.generations:
        for node in gen:
            flag = "stable" if node.stable else "active"
            label = f"{fmt(node.element)}\\n{flag}"
            lines.append(f"  {node_id(node)} [label={quote(label)}];")
    for gen in forest.generations:
        for node in gen:
            for child in node.children.values():
                lines.append(f"  {node_id(node)} -> {node_id(child)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
