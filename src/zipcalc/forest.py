"""Rooted forests of double-coset representatives.

Generation 0 holds representatives of tau(E)\\G/sigma(E); a node at
generation n with accumulated product x~ (its element times all ancestors')
has as children the representatives of the double quotient of the datum
twisted by x~ and refined n+1 times.  A node is stable once tau is surjective
in that datum: from there on the double quotients are single cosets and the
subtree is an identity chain.  Generations are materialized until every node
is stable; classification walks the materialized part.
"""

from __future__ import annotations

from .groups import InputError, InvariantViolation, Partition, Record, double_cosets
from .zipdata import ZipDatum, is_tau_surjective, refine, twist


class ForestNode:
    """One representative in the forest; immutable apart from child wiring."""

    __slots__ = ("element", "parent", "generation", "accumulated", "stable", "datum",
                 "decomposition", "children", "_child_by_element")

    def __init__(self, element, parent, generation, accumulated, datum, stable):
        self.element = element
        self.parent = parent
        self.generation = generation
        self.accumulated = accumulated
        self.datum = datum
        self.stable = stable
        self.decomposition: Partition | None = None
        self.children: tuple = ()
        self._child_by_element: dict = {}

    def child(self, element) -> "ForestNode":
        return self._child_by_element[element]

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


class ClassificationPath(Record):
    """Entries (r_0, ..., r_N) along a root-to-leaf walk of the forest, and
    the group they lie in."""

    __slots__ = _fields = ("entries", "group")

    def __len__(self):
        return len(self.entries)


class RepForest:
    """The materialized forest together with its root decomposition, and the
    stable nodes whose carrier's key-minimal element is not the identity."""

    def __init__(self, datum, generations, root_decomposition, identity_rep_flags):
        self.datum = datum
        self.generations = generations
        self.root_decomposition = root_decomposition
        self.identity_rep_flags = identity_rep_flags
        self._root_by_element = {n.element: n for n in generations[0]}

    @property
    def stationary_generation(self) -> int:
        return len(self.generations) - 1

    @property
    def roots(self) -> tuple:
        return self.generations[0]

    @property
    def leaves(self) -> tuple:
        return self.generations[-1]

    def root(self, element) -> ForestNode:
        return self._root_by_element[element]


def _node_datum(z: ZipDatum, accumulated, depth: int, cache: dict) -> ZipDatum:
    """The original datum twisted by the accumulated product, refined
    ``depth`` times; intermediate stages are memoized per accumulated twist."""
    key = (accumulated, depth)
    if key in cache:
        return cache[key]
    if depth == 0:
        d = z if accumulated == z.G.identity else twist(z, accumulated)
    else:
        d = refine(_node_datum(z, accumulated, depth - 1, cache))
    cache[key] = d
    return d


def build_forest(z: ZipDatum) -> RepForest:
    """Build generations until every branch is stable.

    Termination: an unstable node's child datum has a strictly smaller
    carrier, so every path reaches tau-surjectivity within |G| levels.
    """
    G = z.G
    cache: dict = {}
    root_dec = double_cosets(G, z.tau_image, z.sigma_image)
    roots = []
    for rep in root_dec.representatives():
        d = _node_datum(z, rep, 1, cache)
        roots.append(ForestNode(rep, None, 0, rep, d, is_tau_surjective(d)))
    generations = [tuple(roots)]
    while not all(node.stable for node in generations[-1]):
        nxt = []
        for node in generations[-1]:
            children = []
            if node.stable:
                d = _node_datum(z, node.accumulated, node.generation + 2, cache)
                children.append(
                    ForestNode(G.identity, node, node.generation + 1, node.accumulated, d, True)
                )
            else:
                dec = double_cosets(node.datum.G, node.datum.tau_image, node.datum.sigma_image)
                node.decomposition = dec
                for rep in dec.representatives():
                    acc = G.mul(rep, node.accumulated)
                    d = _node_datum(z, acc, node.generation + 2, cache)
                    children.append(
                        ForestNode(rep, node, node.generation + 1, acc, d, is_tau_surjective(d))
                    )
            node.children = tuple(children)
            node._child_by_element = {c.element: c for c in children}
            nxt.extend(children)
        generations.append(tuple(nxt))
        if len(generations) > G.order + 2:
            raise InvariantViolation("forest construction failed to stabilize")
    flags = []
    for gen in generations:
        for node in gen:
            if node.stable and min(node.datum.G.elements) != G.identity:
                flags.append(node)
    return RepForest(z, tuple(generations), root_dec, tuple(flags))


def _transport(datum: ZipDatum, x, rep):
    """tau(et * e) for witnesses x = tau(e) * rep * sigma(et), read off the
    pair table: tau(e) = a runs over the tau-image in key order and et is
    the key-minimal element of E with sigma(et) = rep^-1 * a^-1 * x, so the
    choice is deterministic."""
    G = datum.G
    by_sigma = datum.sigma_witnesses
    rep_inv = G.inv(rep)
    for a in datum.tau_image.elements:
        entry = by_sigma.get(G.mul(G.mul(rep_inv, G.inv(a)), x))
        if entry is not None:
            return G.mul(entry[0], a)
    raise InvariantViolation("element escaped its own double coset")


def classify(forest: RepForest, x) -> ClassificationPath:
    """The representative path of x: r_0 indexes the double coset of x, and
    each later entry indexes the coset of the transported element in the
    child quotient, stopping at the stable generation."""
    z = forest.datum
    G = z.G
    if x not in G:
        raise InputError("element outside the carrier of G")
    r = forest.root_decomposition.rep_of[x]
    entries = [r]
    node = forest.root(r)
    current = _transport(z, x, r)
    for _ in range(forest.stationary_generation):
        if node.stable:
            entries.append(G.identity)
            node = node.children[0]
            continue
        d = node.datum
        r = node.decomposition.rep_of[current]
        entries.append(r)
        current = _transport(d, current, r)
        node = node.child(r)
    return ClassificationPath(tuple(entries), G)


def reconstruct(path: ClassificationPath):
    """The product r_N * ... * r_0 over the materialized generations: an
    element of the class the path classifies, whose own path it is."""
    G = path.group
    out = path.entries[0]
    for r in path.entries[1:]:
        out = G.mul(r, out)
    return out


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
        path = classify(forest, c.witness).entries
        if path in seen:
            return False
        seen.add(path)
        for m in c.members:
            if m != c.witness and classify(forest, m).entries != path:
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
            for child in node.children:
                lines.append(f"  {node_id(node)} -> {node_id(child)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
