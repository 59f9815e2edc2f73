"""Finite groups with explicit carriers, plus the subgroup, homomorphism and
double-coset machinery built on top of them.

Three element backends are supported: Cayley tables (elements are integer
indices), permutations (image tuples on 0..degree-1), and invertible square
matrices over Z/m (row-major entry tuples).  Elements are plain hashable
values whose natural sort order doubles as the canonical key order, so every
representative choice made below is deterministic across runs and backends.
Matrices of every size multiply by one function generated per (size, m),
with the entries unpacked and m a constant; sizes above MAX_MATRIX_SIZE are
refused, since that function's source has size^3 terms.

All types are immutable once constructed and safe to share between workers.
"""

from __future__ import annotations

import itertools
import operator
from collections import namedtuple
from functools import cache, cached_property
from math import gcd

class InputError(ValueError):
    """An argument violates a documented precondition; ``at`` names the item at fault."""

    at = ""


class InvariantViolation(RuntimeError):
    """An internal structural guarantee failed; this signals a bug."""


class ResourceLimitExceeded(RuntimeError):
    """A carrier would grow past the caller's order limit."""


def _int_tuple(values, what: str) -> tuple:
    """values as a tuple of ints; anything else, the bools that JSON true and
    false load as included, is an InputError."""
    try:
        if not any(isinstance(v, bool) for v in values):
            return tuple(map(operator.index, values))
    except TypeError:
        pass
    raise InputError(f"{what} must be a list of integers, got {values!r}")


def _items(name: str, values, convert) -> tuple:
    """convert(i, v) per item v of the argument called name; an InputError gets at = name[i]."""
    out = []
    for i, v in enumerate(values):
        try:
            out.append(convert(i, v))
        except InputError as exc:
            exc.at = f"{name}[{i}]"
            raise
    return tuple(out)


def _mulclose(mul, identity, candidates, member=None, limit=None):
    """Closure of {identity} under right multiplication by candidates.

    Candidates are taken in order and one already inside the closure so far
    is skipped, so the kept ones form a greedy generating set; it is
    key-minimal when the candidates come in key order.  In a finite group
    the submonoid generated this way is the subgroup.  Adding x to the
    closure H grows <H, x> one right coset H*y at a time.  With member, a
    predicate such as a carrier's membership test, the first product it
    rejects raises InputError; the candidates themselves are taken to
    satisfy it and are not tested.  With a limit, a coset that would take
    the closure past it raises ResourceLimitExceeded before it is computed.

    Returns (closure, generators).
    """
    members = {identity}
    gens = []
    for x in candidates:
        if x in members:
            continue
        gens.append(x)
        old = list(members)
        old.remove(identity)  # H*y is y and old*y
        reps = [identity]
        for r in reps:  # grows while it is walked
            for g in gens:
                y = mul(r, g)
                if y in members:
                    continue
                if limit is not None and len(members) + len(old) >= limit:
                    # the coset H*y is disjoint from the closure so far
                    raise ResourceLimitExceeded(f"carrier order at least {len(members) + len(old) + 1}")
                coset = [mul(h, y) for h in old]
                # y is the candidate x itself when r is the identity
                if member is not None and not (all(map(member, coset)) and (r is identity or member(y))):
                    raise InputError("carrier is not closed under multiplication")
                members.update(coset, (y,))
                reps.append(y)
    return members, tuple(gens)


def _graph(source, targets, points, rule=None, limit=None, ambient=False):
    """The tables of the homomorphisms whose graph the points generate; an
    InputError when they generate no graph.

    Each point is (s, t_1, ..., t_k), s in source and t_i in targets[i-1],
    k = 1 or 2, and the points generate a subgroup H of source x targets.
    When no two elements of H share a first coordinate, H is the graph of
    s -> (f_1(s), ..., f_k(s)) on the subgroup of source that the first
    coordinates generate, and each f_i is a homomorphism there: H holds
    the product (a, f(a))(b, f(b)) = (ab, f(a)f(b)), so f(ab) = f(a)f(b)
    (Holt, Eick and O'Brien).  A graph has at most |source| elements, so
    with a limit of |source| a closure that would outgrow it is none.  With
    a rule, s -> (f_1(s), ..., f_k(s)) on the points, its graph is the
    carrier: every product is tested against it.  Every coordinate in the
    tables is its group's own element value, so tables over a large source
    share them; with ambient, the source stands only for its element space,
    and the first coordinates are the closure's own.
    """
    groups = (source, *targets)
    owns = [dict(zip(g.elements, g.elements)) for g in groups]
    muls = [lambda a, b, mul=g.mul, own=own: own[mul(a, b)] for g, own in zip(groups, owns)]
    m0, m1, m2 = source.mul if ambient else muls[0], muls[1], muls[-1]
    if len(muls) == 2:
        mul = lambda x, y: (m0(x[0], y[0]), m1(x[1], y[1]))
    else:
        mul = lambda x, y: (m0(x[0], y[0]), m1(x[1], y[1]), m2(x[2], y[2]))
    identity = tuple(own[g.identity] for g, own in zip(groups, owns))
    member = None if rule is None else lambda x: rule(x[0]) == x[1:]
    try:
        members = _mulclose(mul, identity, points, member, limit)[0]
        tables = [{x[0]: x[i] for x in members} for i in range(1, len(identity))]
        if len(tables[0]) == len(members):
            return tables
    except ResourceLimitExceeded:
        pass
    except KeyError:  # a carrier that restrict took without a certificate
        raise InputError("a product of images lies outside the target carrier") from None
    raise InputError("generator images are inconsistent with the group relations")


def _certify(source, targets, rule, generators=None) -> list:
    """The tables of the homomorphisms s -> rule(s) = (f_1(s), ..., f_k(s))
    into the targets, certified by one graph closure; an InputError when
    rule gives none.  A table d is the rule s -> (d[s],).

    The rule is tested at the identity, where the closure starts and which
    it never tests.  The points (s, *rule(s)) at the generators close with
    rule's graph as carrier (see ``_graph``), so rule is read once at each
    element the closure reaches, no two points share a first coordinate and
    every f_i is a homomorphism on the group the generators generate.
    Without generators they are the source's greedy generating set S, and a
    failure is named as a check over the whole source would name it: an
    image outside a target first, else the key-first a, for the first s in
    S, with rule(a*s) != rule(a)*rule(s).  With generators, the source
    stands only for their element space, as GL2(Z/p^n) does for the Witt
    build's E.
    """
    if rule(source.identity) != tuple(t.identity for t in targets):
        raise InputError("map does not send 1 to 1")
    ambient = generators is not None
    try:
        points = [(s, *rule(s)) for s in (generators if ambient else source.generators)]
        return _graph(source, targets, points, rule, ambient=ambient)
    except InputError:
        if ambient:
            raise
    if not all(v in t for a in source for v, t in zip(rule(a), targets)):
        raise InputError("homomorphism image outside the target carrier")
    times = lambda a, s: tuple(t.mul(u, v) for t, u, v in zip(targets, rule(a), rule(s)))
    a, s = next((a, s) for s in source.generators for a in source if rule(source.mul(a, s)) != times(a, s))
    raise InputError(f"map is not multiplicative at ({source.format_element(a)}, {source.format_element(s)})")


def _orbit(seeds, moves) -> set:
    """The closure of the seeds under the maps in moves, each applied once to
    each point reached: the union of the seeds' orbits when the moves generate
    a finite group acting on the points (Holt, Eick and O'Brien, ch. 4)."""
    members = frontier = set(seeds)
    while frontier:
        reached = set()
        for move in moves:
            reached.update(map(move, frontier))
        frontier = reached - members
        members |= frontier
    return members


class Partition:
    """A partition of a carrier: ``parts`` maps each representative to its
    part, in key order, and ``rep_of`` maps each element to its part's
    representative.  Iterating yields the parts."""

    def __init__(self, parts: dict, rep_of: dict):
        self.parts = parts
        self.rep_of = rep_of

    def part_of(self, x):
        try:
            return self.parts[self.rep_of[x]]
        except KeyError:
            raise InputError("element outside the carrier") from None

    def representatives(self) -> tuple:
        return tuple(self.parts)

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts.values())


def _partition(carrier, make_part) -> Partition:
    """make_part(x), whose ``members`` hold x, for each x of the carrier in
    key order that no earlier part covers, with x as its representative.
    That the parts are disjoint and cover the carrier is asserted, not assumed."""
    rep_of = {}
    parts = {}
    for x in carrier:
        if x in rep_of:
            continue
        part = make_part(x)
        if not rep_of.keys().isdisjoint(part.members):
            raise InvariantViolation("parts of the carrier overlap")
        rep_of.update(dict.fromkeys(part.members, x))
        parts[x] = part
    if len(rep_of) != len(carrier):
        raise InvariantViolation("parts failed to cover the carrier")
    return Partition(parts, rep_of)


def _light_associative(table, gens) -> bool:
    """Light's test over an index table: (x*s)*y == x*(s*y) for every x, y
    and every s in a generating set.

    The elements s passing for all x, y are closed under products, so
    checking generators certifies the whole table in n^2 * |gens| lookups.
    """
    for s in gens:
        row_s = table[s]
        for row_x in table:
            if table[row_x[s]] != tuple(map(row_x.__getitem__, row_s)):
                return False
    return True


class FiniteGroup:
    """A finite group with an explicit, sorted carrier.

    Subclasses provide ``mul``/``inv``, the element text format and, in
    ``_space_fields``, the attributes that fix their element space; the base
    class handles carrier bookkeeping, restriction and the closure
    certificate.  Each backend constructor certifies its carrier; ``restrict``
    is the one path that does not, for carriers already known to be groups.
    """

    backend = "abstract"
    _space_fields: tuple = ()

    def __init__(self, elements, identity):
        self.elements = tuple(sorted(elements))
        self.element_set = frozenset(self.elements)
        if len(self.elements) != len(self.element_set):
            raise InputError("carrier contains duplicate elements")
        self.identity = identity
        if identity not in self.element_set:
            raise InputError("identity is missing from the carrier")

    # -- group operations ---------------------------------------------------

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    # -- carrier protocol ---------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, a):
        return a in self.element_set

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"<{type(self).__name__} order={self.order}>"

    # -- backend surface ----------------------------------------------------

    def space(self) -> tuple:
        """Signature of the element space; equal spaces share element values."""
        return (self.backend, *(getattr(self, name) for name in self._space_fields))

    def format_element(self, a) -> str:
        raise NotImplementedError

    def parse_element(self, text: str):
        raise NotImplementedError

    def _check_element(self, values):
        """values as an element of the ambient group of the space, Sym(n) or
        GL_n(Z/m); InputError if they are none."""
        raise NotImplementedError

    def restrict(self, members) -> "FiniteGroup":
        """The same backend operations on another carrier in the space."""
        g = object.__new__(type(self))
        for name in self._space_fields:
            setattr(g, name, getattr(self, name))
        FiniteGroup.__init__(g, members, self.identity)
        return g

    def _generated(self, generators, max_order=None) -> "FiniteGroup":
        """The subgroup of the space's ambient group that the generators
        generate, each checked to lie in the ambient group first.

        Its closure is its certificate: a finite set closed under products
        inside a group is a subgroup, since each of its elements has finite
        order (Holt, Eick and O'Brien, Handbook of Computational Group
        Theory, 2005).
        """
        gens = _items("generators", generators, lambda _, g: self._check_element(g))
        return self.restrict(_mulclose(self.mul, self.identity, gens, limit=max_order)[0])

    # -- eager checks ---------------------------------------------------------

    @cached_property
    def generators(self) -> tuple:
        """The key-minimal greedy generating set S of the carrier.

        Computing it is the closure certificate: the right-multiplication
        closure of S stays inside the carrier and covers it.
        """
        return _mulclose(self.mul, self.identity, self.elements, self.element_set.__contains__)[1]


# ---------------------------------------------------------------------------
# permutation backend
# ---------------------------------------------------------------------------


class PermutationGroup(FiniteGroup):
    """Permutations of {0..degree-1} stored as image tuples.

    The product applies the right factor first: (a*b)(i) = a[b[i]].
    """

    backend = "permutation"
    _space_fields = ("degree",)

    def __init__(self, degree, elements):
        self.degree = int(degree)
        if self.degree < 0:
            raise InputError("permutation backend needs degree >= 0")
        super().__init__(map(self._check_element, elements), tuple(range(self.degree)))
        self.generators  # certifies closure, as in _generated

    def mul(self, a, b):
        return tuple(a[i] for i in b)

    def inv(self, a):
        out = [0] * self.degree
        for i, img in enumerate(a):
            out[img] = i
        return tuple(out)

    def format_element(self, a) -> str:
        cycles = []
        seen = [False] * self.degree
        for i in range(self.degree):
            if seen[i] or a[i] == i:
                seen[i] = True
                continue
            cyc = [i]
            seen[i] = True
            j = a[i]
            while j != i:
                cyc.append(j)
                seen[j] = True
                j = a[j]
            cycles.append(cyc)
        if not cycles:
            return "()"
        return "".join("(" + " ".join(str(p) for p in c) + ")" for c in cycles)

    def parse_element(self, text: str):
        s = text.strip().replace(",", " ")
        if s in ("()", ""):
            return self.identity
        if not (s.startswith("(") and s.endswith(")")):
            raise InputError(f"cannot parse permutation literal {text!r}")
        out = list(range(self.degree))
        seen = set()  # cycles of one literal are disjoint: a shared point is refused, not composed
        for body in s[1:-1].split(")("):
            try:
                points = [int(tok) for tok in body.split()]
            except ValueError:
                raise InputError(f"cannot parse permutation literal {text!r}") from None
            if len(points) != len(set(points)) or not seen.isdisjoint(points):
                raise InputError(f"repeated point in cycle {text!r}")
            seen.update(points)
            for p in points:
                if not 0 <= p < self.degree:
                    raise InputError(f"point {p} outside 0..{self.degree - 1}")
            for p, q in zip(points, points[1:] + points[:1]):
                out[p] = q
        elem = tuple(out)
        if elem not in self.element_set:
            raise InputError(f"permutation {text!r} is not in this group")
        return elem

    def _check_element(self, values):
        g = _int_tuple(values, "permutation")
        if len(g) != self.degree or sorted(g) != list(range(self.degree)):
            raise InputError(f"{g} is not a permutation of 0..{self.degree - 1}")
        return g

    @classmethod
    def from_generators(cls, degree, generators, max_order=None):
        degree = int(degree)
        return cls(degree, [tuple(range(degree))])._generated(generators, max_order)

    @classmethod
    def symmetric(cls, degree):
        if degree > 8:
            raise InputError("symmetric group carrier too large to enumerate")
        return cls(degree, [tuple(range(degree))]).restrict(itertools.permutations(range(degree)))


# ---------------------------------------------------------------------------
# matrix backend
# ---------------------------------------------------------------------------


def _bareiss(rows, adjugate=False):
    """(det, adj) of a square integer matrix by fraction-free (Bareiss)
    elimination, exact over the integers in O(n^3) operations.

    Every division by the previous pivot is exact, so no entry grows past
    the size of a minor.  With adjugate, the identity is carried along and
    the rows above each pivot are cleared too (Gauss-Jordan), which leaves
    det * rows^-1 = adj beside det * I; otherwise adj is None.  A singular
    matrix gives (0, None).
    """
    n = len(rows)
    width = 2 * n if adjugate else n
    m = [list(r) + ([int(i == j) for j in range(n)] if adjugate else []) for i, r in enumerate(rows)]
    sign, prev = 1, 1
    for k in range(n):
        p = next((i for i in range(k, n) if m[i][k]), None)
        if p is None:
            return 0, None
        if p != k:
            m[k], m[p] = m[p], m[k]
            sign = -sign
        pivot_row = m[k]
        pivot = pivot_row[k]
        for i in range(n) if adjugate else range(k + 1, n):
            if i != k:
                row = m[i]
                f = row[k]
                for j in range(k + 1, width):
                    row[j] = (pivot * row[j] - f * pivot_row[j]) // prev
        prev = pivot
    if not adjugate:
        return sign * prev, None
    return sign * prev, [[sign * v for v in row[n:]] for row in m]


MAX_MATRIX_SIZE = 16


def _matrix_identity(size: int, modulus: int) -> tuple:
    """The identity of GL_size(Z/modulus), row-major; an InputError, before
    anything of size^2 is built, for a space the backend does not take.

    A size past MAX_MATRIX_SIZE is refused because the space's multiply is
    generated source with size^3 terms: at 30 it takes about 0.1 s and
    30 MiB to generate, and the cost grows as size^3.
    """
    if size < 1 or modulus < 2:
        raise InputError("matrix backend needs size >= 1 and modulus >= 2")
    if size > MAX_MATRIX_SIZE:
        raise InputError(f"matrix size {size} exceeds the backend's bound {MAX_MATRIX_SIZE}")
    return tuple(int(i == j) for i in range(size) for j in range(size))


@cache
def _matmul(size: int, modulus: int):
    """The product of two size x size matrices over Z/modulus, row-major, as
    a function generated once per space: it unpacks both factors' entries
    into locals and reduces each sum by the modulus as a constant.  The
    source is built from the two ints alone."""
    n, m = int(size), int(modulus)
    a, b = (", ".join(f"{x}{i}" for i in range(n * n)) for x in "ab")
    dot = lambda i, j: " + ".join(f"a{i * n + k} * b{k * n + j}" for k in range(n))
    entries = "".join(f"({dot(i, j)}) % {m}, " for i in range(n) for j in range(n))
    namespace = {}
    exec(f"def mul(a, b):\n    {a}, = a\n    {b}, = b\n    return ({entries})\n", namespace)
    return namespace["mul"]


class MatrixGroup(FiniteGroup):
    """Invertible size x size matrices over Z/modulus, stored row-major."""

    backend = "matrix"
    _space_fields = ("size", "modulus")

    def __init__(self, size, modulus, elements):
        self.size = int(size)
        self.modulus = int(modulus)
        super().__init__(map(self._check_element, elements), _matrix_identity(self.size, self.modulus))
        self.generators  # certifies closure, as in _generated

    @cached_property
    def _product(self):
        return _matmul(self.size, self.modulus)

    def mul(self, a, b):
        return self._product(a, b)

    def det(self, a) -> int:
        n = self.size
        if n == 2:
            a0, a1, a2, a3 = a
            return (a0 * a3 - a1 * a2) % self.modulus
        return _bareiss([a[i * n : (i + 1) * n] for i in range(n)])[0] % self.modulus

    def inv(self, a):
        m = self.modulus
        if self.size == 2:
            a0, a1, a2, a3 = a
            di = pow((a0 * a3 - a1 * a2) % m, -1, m)
            return ((a3 * di) % m, (-a1 * di) % m, (-a2 * di) % m, (a0 * di) % m)
        n = self.size
        det, adj = _bareiss([a[i * n : (i + 1) * n] for i in range(n)], adjugate=True)
        di = pow(det % m, -1, m)
        return tuple(v * di % m for row in adj for v in row)

    def format_element(self, a) -> str:
        if self.size == 2:
            return "[%d,%d,%d,%d]" % a
        return "[" + ",".join(map(str, a)) + "]"

    def parse_element(self, text: str):
        s = text.strip()
        if s.startswith("[") and s.endswith("]"):
            s = s[1:-1]
        try:
            entries = tuple(int(tok) for tok in s.split(","))
        except ValueError as exc:
            raise InputError(f"cannot parse matrix literal {text!r}") from exc
        if len(entries) != self.size * self.size:
            raise InputError(f"matrix literal {text!r} needs {self.size * self.size} entries")
        if not all(0 <= v < self.modulus for v in entries):
            raise InputError(f"matrix literal {text!r} has an entry outside 0..{self.modulus - 1}")
        if entries not in self.element_set:
            raise InputError(f"matrix {text!r} is not in this group")
        return entries

    def _check_element(self, values):
        n, m = self.size, self.modulus
        g = _int_tuple(values, "matrix")
        if len(g) != n * n:
            raise InputError(f"matrix {g} needs {n * n} entries")
        if not all(0 <= v < m for v in g):
            raise InputError(f"matrix {g} has an entry outside 0..{m - 1}")
        if gcd(self.det(g), m) != 1:
            raise InputError(f"matrix {self.format_element(g)} is not invertible mod {m}")
        return g

    @classmethod
    def from_generators(cls, size, modulus, generators, max_order=None):
        return cls(size, modulus, [_matrix_identity(int(size), int(modulus))])._generated(generators, max_order)

    @classmethod
    def general_linear(cls, size, modulus):
        """All invertible matrices, by enumeration; practical for small sizes."""
        size, modulus = int(size), int(modulus)
        if modulus ** (size * size) > 5_000_000:
            raise InputError("general linear carrier too large to enumerate")
        trivial = cls(size, modulus, [_matrix_identity(size, modulus)])
        entries = itertools.product(range(modulus), repeat=size * size)
        return trivial.restrict(a for a in entries if gcd(trivial.det(a), modulus) == 1)


# ---------------------------------------------------------------------------
# Cayley-table backend
# ---------------------------------------------------------------------------


class CayleyTableGroup(FiniteGroup):
    """A group given by an explicit multiplication table on 0..n-1."""

    backend = "cayley"
    _space_fields = ("table", "inv_table")

    def __init__(self, table):
        n = len(table)

        def check_row(i, values):
            row = _int_tuple(values, f"Cayley table row {i}")
            if len(row) != n:
                raise InputError(f"Cayley table row {i} has length {len(row)}, expected {n}")
            for x in row:
                if not 0 <= x < n:
                    raise InputError(f"Cayley table entry {x} outside 0..{n - 1}")
            return row

        self.table = table = _items("table", table, check_row)
        identity = None
        for e in range(n):
            if all(table[e][i] == i and table[i][e] == i for i in range(n)):
                identity = e
                break
        if identity is None:
            raise InputError("Cayley table has no identity element")
        inv_table = [None] * n
        for i in range(n):
            for j in range(n):
                if table[i][j] == identity and table[j][i] == identity:
                    inv_table[i] = j
                    break
            if inv_table[i] is None:
                raise InputError(f"Cayley table element {i} has no inverse")
        self.inv_table = tuple(inv_table)
        # the two scans above certify the identity and inverse laws, so only
        # the closure certificate (computing S) and Light's test are left
        super().__init__(range(n), identity)
        if not _light_associative(table, self.generators):
            raise InputError("Cayley table is not associative")

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self.inv_table[a]

    def format_element(self, a) -> str:
        return str(a)

    def parse_element(self, text: str):
        try:
            a = int(text.strip())
        except ValueError as exc:
            raise InputError(f"cannot parse Cayley index {text!r}") from exc
        if a not in self.element_set:
            raise InputError(f"index {a} is not in this group")
        return a


# ---------------------------------------------------------------------------
# subgroups
# ---------------------------------------------------------------------------


class Subgroup:
    """A subgroup of an ambient group, stored as a set of carrier elements.
    Membership and comparison go through ``members``, a frozenset."""

    def __init__(self, ambient: FiniteGroup, members):
        members = frozenset(members)
        if not members <= ambient.element_set:
            raise InputError("subgroup members outside the ambient carrier")
        self.ambient = ambient
        self.members = members

    @cached_property
    def elements(self) -> tuple:
        """The members in key order; the ambient's own tuple when they are all of it."""
        return self.ambient.elements if self.members == self.ambient.element_set else tuple(sorted(self.members))

    @property
    def order(self) -> int:
        return len(self.members)

    def __repr__(self):
        return f"<Subgroup order={self.order} of {self.ambient!r}>"

    @cached_property
    def generating_set(self) -> tuple:
        """The greedy generators; computing them certifies the subgroup, with
        an InputError for members that miss the identity or are not closed."""
        return self.as_group().generators

    @cached_property
    def _as_group(self) -> FiniteGroup:
        return self.ambient if self.elements is self.ambient.elements else self.ambient.restrict(self.elements)

    def as_group(self) -> FiniteGroup:
        """The subgroup as a standalone group sharing element values."""
        return self._as_group


def closure(ambient: FiniteGroup, generators) -> Subgroup:
    """Smallest subgroup of the ambient group containing the generators."""
    gens = list(generators)
    if not ambient.element_set.issuperset(gens):
        raise InputError("closure generator outside the ambient carrier")
    return Subgroup(ambient, _mulclose(ambient.mul, ambient.identity, gens)[0])


# ---------------------------------------------------------------------------
# homomorphisms
# ---------------------------------------------------------------------------


class Homomorphism:
    """A group homomorphism materialized as a full element table.

    The table is certified at construction time: it covers the source, lands
    in the target and sends 1 to 1, and its graph {(a, f(a))} is a subgroup
    of source x target.  The graph certificate closes the points (s, f(s))
    for s in the source's greedy generating set S with the graph as carrier:
    the closure projects onto the source, so it is the whole graph unless a
    product leaves it first (see ``_certify``).  The table kept is the one
    that closure builds, on the groups' own element values, not the caller's
    dict.  Preimage queries are then plain set scans.
    """

    def __init__(self, source: FiniteGroup, target: FiniteGroup, table: dict):
        if table.keys() != source.element_set:
            raise InputError("homomorphism table must cover the source carrier exactly")
        if not target.element_set.issuperset(table.values()):
            raise InputError("homomorphism image outside the target carrier")
        self.source, self.target = source, target
        (self.table,) = _certify(source, [target], lambda a: (table[a],))

    @classmethod
    def _certified(cls, source: FiniteGroup, target: FiniteGroup, table: dict) -> "Homomorphism":
        """The homomorphism whose table a graph closure has just certified;
        as ``FiniteGroup.restrict`` is for groups, the one path that runs no
        certificate of its own."""
        h = object.__new__(cls)
        h.source, h.target, h.table = source, target, table
        return h

    def __repr__(self):
        return f"<Homomorphism {self.source!r} -> {self.target!r}>"

    def image(self) -> Subgroup:
        """The image of the source, a subgroup of the target."""
        return Subgroup(self.target, frozenset(self.table.values()))

    def preimage(self, sub: Subgroup) -> Subgroup:
        """Full preimage of a subgroup of the target."""
        if sub.ambient.space() != self.target.space() or not sub.members <= self.target.element_set:
            raise InputError("preimage argument is not a subgroup of the target")
        want = sub.members
        return Subgroup(self.source, frozenset(e for e in self.source.elements if self.table[e] in want))


def _rule_hom(source: FiniteGroup, target: FiniteGroup, rule) -> Homomorphism:
    """The homomorphism s -> f(s), rule(s) = (f(s),), on the table that its
    certificate's closure builds: the rule is never tabulated apart."""
    return Homomorphism._certified(source, target, *_certify(source, [target], rule))


def inclusion_hom(sub_group: FiniteGroup, ambient: FiniteGroup) -> Homomorphism:
    if sub_group.space() != ambient.space() or not sub_group.element_set <= ambient.element_set:
        raise InputError("inclusion needs a sub-carrier of the ambient group")
    return _rule_hom(sub_group, ambient, lambda a: (a,))


def trivial_hom(source: FiniteGroup, target: FiniteGroup) -> Homomorphism:
    return _rule_hom(source, target, lambda a: (target.identity,))


def hom_from_generator_images(source: FiniteGroup, target: FiniteGroup, generators, images) -> Homomorphism:
    """The homomorphism sending each generator to its image, certified by one
    graph closure: the points (generator, image) generate a subgroup of
    source x target.  The images are inconsistent with the group relations
    when two of its elements share a first coordinate, which is certain once
    it outgrows the source, and the generators do not generate the source
    when its first coordinates miss an element.  Otherwise it is the graph
    of the homomorphism (see ``_graph``)."""
    generators, images = list(generators), list(images)
    if len(generators) != len(images):
        raise InputError("generator and image lists differ in length")
    if not source.element_set.issuperset(generators):
        raise InputError("hom generator outside the source carrier")
    if not target.element_set.issuperset(images):
        raise InputError("hom image outside the target carrier")
    (table,) = _graph(source, [target], zip(generators, images), limit=source.order)
    if len(table) != source.order:
        raise InputError("generators do not generate the source group")
    return Homomorphism._certified(source, target, table)


# ---------------------------------------------------------------------------
# double cosets
# ---------------------------------------------------------------------------


DoubleCoset = namedtuple("DoubleCoset", "representative members")


def double_cosets(ambient: FiniteGroup, left: Subgroup, right: Subgroup) -> Partition:
    """Deterministic double-coset partition with key-minimal representatives:
    the part of x is its orbit under left products by the generators of left
    and right products by those of right, left * x * right."""
    for sub, name in ((left, "left"), (right, "right")):
        if sub.ambient.space() != ambient.space() or not sub.members <= ambient.element_set:
            raise InputError(f"{name} is not a subgroup of the ambient group")
    mul = ambient.mul
    moves = [lambda g, h=h: mul(h, g) for h in left.generating_set] + [
        lambda g, k=k: mul(g, k) for k in right.generating_set
    ]
    return _partition(ambient.elements, lambda x: DoubleCoset(x, frozenset(_orbit([x], moves))))
