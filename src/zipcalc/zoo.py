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
    _certify,
    _rule_hom,
    closure,
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
    return tuple([v % m for v in e])  # a list first: a generator is slower here


def witt_sigma(e: tuple, p: int, m: int) -> tuple:
    """sigma of one 2x2 matrix: (a, b, c, d) -> (a, p*b, c/p, d) modulo m,
    G's modulus, for a matrix modulo p*m whose lower-left entry p divides."""
    if e[2] % p:
        raise InputError("witt-sigma needs lower-left entries divisible by p")
    # the lower-left entry c is read in [0, p*m), so c // p is the
    # well-defined value of c/p modulo m
    return (e[0] % m, p * e[1] % m, e[2] // p % m, e[3] % m)


def witt_hom(E: MatrixGroup, G: MatrixGroup, p: int | None = None) -> Homomorphism:
    """witt_sigma for the prime p, else witt_tau, as a homomorphism E -> G:
    the CLI's witt-sigma and witt-tau presets."""
    if not (isinstance(E, MatrixGroup) and isinstance(G, MatrixGroup)):
        raise InputError("witt presets need matrix groups")
    if p is None:
        return _rule_hom(E, G, lambda e, m=G.modulus: (witt_tau(e, m),))
    if E.size != 2 or G.size != 2 or E.modulus != G.modulus * p:
        raise InputError("witt presets need 2x2 groups with E modulus = p * G modulus")
    return _rule_hom(E, G, lambda e, m=G.modulus: (witt_sigma(e, p, m),))


def build_witt_zip(config: WittZipConfig) -> tuple:
    """The Witt-model zip datum and its distinguished twist element.

    Returns (datum, antidiagonal(1, 1) in G).  E is generated by the upper
    and lower unipotents [1,1,0,1] and [1,0,p,1] and the diagonal units
    diag(u, 1), diag(1, u): over the local ring Z/p^n a matrix with
    lower-left entry in pZ has unit diagonal entries, so it factors as
    lower unipotent * diagonal * upper unipotent.

    One graph closure builds and certifies E, tau and sigma: the rule
    e -> (witt_tau(e), witt_sigma(e)) is certified on these generators, in
    GL2(Z/p^n) (see ``_certify``).  The triples (g, tau(g), sigma(g)) at
    the generators generate a subgroup H of E x G x G inside the graph of
    the formulas, where no two points share a first coordinate: H is that
    graph over E, its first coordinates, and both formulas are
    homomorphisms on E.  In particular the divided conjugation is well
    defined.  G, closed from its generators, and E are each checked against
    their closed-form orders.
    """
    p, n = config.p, config.n
    pn = p**n
    m = p ** (n - 1)
    units = [u for u in range(1, pn) if u % p]
    gens = [(1, 1, 0, 1), (1, 0, p, 1)] + [(u, 0, 0, 1) for u in units] + [(1, 0, 0, u) for u in units]
    ambient = MatrixGroup(2, pn, [(1, 0, 0, 1)])
    G = MatrixGroup.general_linear(2, m)
    if G.order != config.g_order:
        raise InvariantViolation(f"Witt G has order {G.order}, expected {config.g_order}")
    tau, sigma = _certify(ambient, [G, G], lambda e: (witt_tau(e, m), witt_sigma(e, p, m)), gens)
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
    """tau the identity of S3, sigma conjugation by a transposition x."""
    s3, x = PermutationGroup.symmetric(3), (1, 0, 2)
    mul, x_inv = s3.mul, s3.inv(x)
    return ZipDatum(s3, s3, inclusion_hom(s3, s3), _rule_hom(s3, s3, lambda a: (mul(mul(x, a), x_inv),)))


def _c2cube_projection() -> ZipDatum:
    c2cube = CayleyTableGroup([[i ^ j for j in range(8)] for i in range(8)])
    project = _rule_hom(c2cube, c2cube, lambda v: (v & 0b011,))
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
