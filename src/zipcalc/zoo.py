"""Built-in zip data: the truncated Witt-vector GL2 family and a small
deterministic corpus used for verification runs.

The Witt family models GL2 over length-n Witt vectors of F_p at finite
truncation: E is the group of invertible 2x2 matrices over Z/p^n whose
lower-left entry is divisible by p, G is GL2(Z/p^(n-1)), tau is reduction,
and sigma is conjugation by diag(p, 1) carried out at the lower level (the
lower-left entry gets divided by p, the upper-right multiplied by p).  The
Frobenius of F_p lifts to the identity, so it does not appear.  Targeting G
one level below E is what makes the divided conjugation a genuine
homomorphism of finite groups.
"""

from __future__ import annotations

from collections import namedtuple

from .groups import (
    CayleyTableGroup,
    Homomorphism,
    InputError,
    InvariantViolation,
    MatrixGroup,
    PermutationGroup,
    _graph,
    closure,
    conjugation_hom,
    inclusion_hom,
    trivial_hom,
)
from .zipdata import ZipDatum


def _is_prime(n: int) -> bool:
    """Miller-Rabin over the first twelve primes: exact below 3.3 * 10^24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or n in bases or any(n % b == 0 for b in bases):
        return n in bases
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    return all(
        x == 1 or any(pow(x, 1 << r, n) == n - 1 for r in range(s))
        for x in (pow(b, d, n) for b in bases)
    )


class WittZipConfig(namedtuple("WittZipConfig", "p n")):
    """Parameters of the truncated Witt model: a prime p and a level n >= 2."""

    __slots__ = ()

    def __init__(self, p, n):
        if p.bit_length() > 64 or n > 64:
            raise InputError("Witt parameters too large to enumerate")
        if not _is_prime(p):
            raise InputError(f"p must be prime, got {p}")
        if n < 2:
            raise InputError(f"truncation level must be at least 2, got {n}")

    @property
    def e_order(self) -> int:
        """|E|, in closed form: GL2(Z/p^n) with lower-left entry in pZ/p^n."""
        p, n = self.p, self.n
        return p ** (4 * (n - 1)) * (p * p - 1) * (p * p - p) // (p + 1)

    @property
    def g_order(self) -> int:
        """|G| = |GL2(Z/p^(n-1))|, in closed form."""
        p, n = self.p, self.n
        return p ** (4 * (n - 2)) * (p * p - 1) * (p * p - p)


def witt_tau(e: tuple, m: int) -> tuple:
    """tau of one matrix: every entry reduced modulo m, G's modulus."""
    return tuple(v % m for v in e)


def witt_sigma(e: tuple, p: int, m: int) -> tuple:
    """sigma of one 2x2 matrix: (a, b, c, d) -> (a, p*b, c/p, d) modulo m,
    G's modulus, for a matrix modulo p*m whose lower-left entry p divides."""
    if e[2] % p:
        raise InputError("witt-sigma needs lower-left entries divisible by p")
    # the lower-left entry c is read in [0, p*m), so c // p is the
    # well-defined value of c/p modulo m
    return (e[0] % m, p * e[1] % m, e[2] // p % m, e[3] % m)


def witt_tau_table(E: MatrixGroup, G: MatrixGroup) -> dict:
    """The table of witt_tau on E."""
    if not (isinstance(E, MatrixGroup) and isinstance(G, MatrixGroup)):
        raise InputError("witt presets need matrix groups")
    return {e: witt_tau(e, G.modulus) for e in E}


def witt_sigma_table(E: MatrixGroup, G: MatrixGroup, p: int) -> dict:
    """The table of witt_sigma on E, 2x2 matrices modulo p times G's modulus."""
    if not (isinstance(E, MatrixGroup) and isinstance(G, MatrixGroup)):
        raise InputError("witt presets need matrix groups")
    if E.size != 2 or G.size != 2 or E.modulus != G.modulus * p:
        raise InputError("witt presets need 2x2 groups with E modulus = p * G modulus")
    return {e: witt_sigma(e, p, G.modulus) for e in E}


def build_witt_zip(config: WittZipConfig) -> tuple:
    """The Witt-model zip datum and its distinguished twist element.

    Returns (datum, antidiagonal(1, 1) in G).  E is generated by the upper
    and lower unipotents [1,1,0,1] and [1,0,p,1] and the diagonal units
    diag(u, 1), diag(1, u): over the local ring Z/p^n a matrix with
    lower-left entry in pZ has unit diagonal entries, so it factors as
    lower unipotent * diagonal * upper unipotent.

    One graph closure builds and certifies E, tau and sigma.  The triples
    (g, tau(g), sigma(g)) of these generators, read off witt_tau and
    witt_sigma, generate a subgroup H of E x G x G, and the closure tests
    every point of H past the identity against the two formulas; the
    identity is tested here.  So H lies inside the graph of the formulas,
    where no two points share a first coordinate: H is that graph over E,
    its first coordinates, and both formulas are homomorphisms on E (see
    ``_graph``).  In particular the divided conjugation is well defined.
    """
    p, n = config.p, config.n
    pn = p**n
    m = p ** (n - 1)
    units = [u for u in range(1, pn) if u % p]
    gens = [(1, 1, 0, 1), (1, 0, p, 1)] + [(u, 0, 0, 1) for u in units] + [(1, 0, 0, u) for u in units]
    ambient = MatrixGroup(2, pn, [(1, 0, 0, 1)])
    G = MatrixGroup.general_linear(2, m)
    on_graph = lambda x: x[1] == witt_tau(x[0], m) and x[2] == witt_sigma(x[0], p, m)
    if not on_graph((ambient.identity, G.identity, G.identity)):
        raise InputError("the Witt formulas do not send 1 to 1")
    points = [(g, witt_tau(g, m), witt_sigma(g, p, m)) for g in gens]
    tau, sigma = _graph(ambient, [G, G], points, on_graph)
    E = ambient.restrict(tau)
    if E.order != config.e_order:
        raise InvariantViolation(f"Witt E has order {E.order}, expected {config.e_order}")
    return ZipDatum(E, G, Homomorphism._certified(E, G, tau), Homomorphism._certified(E, G, sigma)), (0, 1, 1, 0)


def _subgroup_datum(G, generators, tau=inclusion_hom, sigma=inclusion_hom) -> ZipDatum:
    """E = <generators> <= G, with tau and sigma : E -> G made by the given
    homomorphism builders."""
    E = closure(G, generators).as_group()
    return ZipDatum(E, G, tau(E, G), sigma(E, G))


def _tau_surjective() -> ZipDatum:
    s3 = PermutationGroup.symmetric(3)
    return ZipDatum(s3, s3, inclusion_hom(s3, s3), conjugation_hom(s3, (1, 0, 2)))


def _c2cube_projection() -> ZipDatum:
    c2cube = CayleyTableGroup([[i ^ j for j in range(8)] for i in range(8)])
    project = Homomorphism(c2cube, c2cube, {v: v & 0b011 for v in c2cube})
    return ZipDatum(c2cube, c2cube, inclusion_hom(c2cube, c2cube), project)


# name -> builder of that datum alone, in the zoo's order
_ZOO = {
    "trivial-e": lambda: _subgroup_datum(PermutationGroup.symmetric(3), [], trivial_hom, trivial_hom),
    "tau-surjective": _tau_surjective,
    "s3-reflection-pair": lambda: _subgroup_datum(PermutationGroup.symmetric(3), [(1, 0, 2)]),
    "s3-mixed": lambda: _subgroup_datum(PermutationGroup.symmetric(3), [(1, 0, 2)], sigma=trivial_hom),
    "s4-cycle-pair": lambda: _subgroup_datum(PermutationGroup.symmetric(4), [(1, 2, 3, 0)]),
    "c2cube-projection": _c2cube_projection,
    "gl2f2-borel": lambda: _subgroup_datum(MatrixGroup.general_linear(2, 2), [(1, 1, 0, 1)]),
}


def build_small_zoo() -> dict:
    """Named small zip data covering all three backends.

    Deterministic: same names, same data, same element order on every run.
    """
    return {name: build() for name, build in _ZOO.items()}


def zoo_entry(name: str) -> ZipDatum:
    """The named zoo datum, built without the rest of the zoo."""
    try:
        build = _ZOO[name]
    except KeyError:
        raise InputError(f"unknown zoo entry {name!r}; known: {', '.join(sorted(_ZOO))}") from None
    return build()
