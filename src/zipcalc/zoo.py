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

import itertools
from math import gcd

from .groups import (
    CayleyTableGroup,
    Homomorphism,
    InputError,
    MatrixGroup,
    PermutationGroup,
    Record,
    closure,
    conjugation_hom,
    identity_hom,
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


class WittZipConfig(Record):
    """Parameters of the truncated Witt model: a prime p and a level n >= 2."""

    __slots__ = _fields = ("p", "n")

    def __init__(self, p, n):
        super().__init__(p, n)
        if self.p.bit_length() > 64 or self.n > 64:
            raise InputError("Witt parameters too large to enumerate")
        if not _is_prime(self.p):
            raise InputError(f"p must be prime, got {self.p}")
        if self.n < 2:
            raise InputError(f"truncation level must be at least 2, got {self.n}")

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


def _matrices_with_divisible_lower_left(modulus: int, divisor: int) -> list:
    out = []
    for a, b, c, d in itertools.product(range(modulus), repeat=4):
        if c % divisor == 0 and gcd((a * d - b * c) % modulus, modulus) == 1:
            out.append((a, b, c, d))
    return out


def witt_sigma_table(E: MatrixGroup, G: MatrixGroup, p: int) -> dict:
    """The table of sigma: (a, b, c, d) -> (a, p*b, c/p, d) one level down.

    E must hold 2x2 matrices modulo p times G's modulus, with lower-left
    entries divisible by p.
    """
    if not (isinstance(E, MatrixGroup) and isinstance(G, MatrixGroup)):
        raise InputError("witt presets need matrix groups")
    if E.size != 2 or G.size != 2 or E.modulus != G.modulus * p:
        raise InputError("witt presets need 2x2 groups with E modulus = p * G modulus")
    m = G.modulus
    table = {}
    for e in E:
        a, b, c, d = e
        if c % p:
            raise InputError("witt-sigma needs lower-left entries divisible by p")
        # c is read in [0, p^n), so c // p is the well-defined value of c/p
        # modulo p^(n-1)
        table[e] = (a % m, (p * b) % m, (c // p) % m, d % m)
    return table


def build_witt_zip(config: WittZipConfig) -> tuple:
    """The Witt-model zip datum and its distinguished twist element.

    Returns (datum, antidiagonal(1, 1) in G).  Construction validates that
    the divided conjugation is a well-defined homomorphism.
    """
    p, n = config.p, config.n
    pn = p**n
    m = p ** (n - 1)
    E = MatrixGroup(2, pn, _matrices_with_divisible_lower_left(pn, p))
    G = MatrixGroup.general_linear(2, m)
    tau = Homomorphism(E, G, {e: tuple(v % m for v in e) for e in E})
    sigma = Homomorphism(E, G, witt_sigma_table(E, G, p))
    return ZipDatum(E, G, tau, sigma), (0, 1, 1, 0)


def _xor_table(bits: int) -> list:
    size = 1 << bits
    return [[i ^ j for j in range(size)] for i in range(size)]


def build_small_zoo() -> dict:
    """Named small zip data covering all three backends.

    Deterministic: same names, same data, same element order on every run.
    """
    zoo: dict[str, ZipDatum] = {}

    s3 = PermutationGroup.symmetric(3)
    e_trivial = closure(s3, []).as_group()
    zoo["trivial-e"] = ZipDatum(e_trivial, s3, trivial_hom(e_trivial, s3), trivial_hom(e_trivial, s3))

    zoo["tau-surjective"] = ZipDatum(s3, s3, identity_hom(s3), conjugation_hom(s3, (1, 0, 2)))

    c2 = closure(s3, [(1, 0, 2)]).as_group()
    zoo["s3-reflection-pair"] = ZipDatum(c2, s3, inclusion_hom(c2, s3), inclusion_hom(c2, s3))

    zoo["s3-mixed"] = ZipDatum(c2, s3, inclusion_hom(c2, s3), trivial_hom(c2, s3))

    s4 = PermutationGroup.symmetric(4)
    c4 = closure(s4, [(1, 2, 3, 0)]).as_group()
    zoo["s4-cycle-pair"] = ZipDatum(c4, s4, inclusion_hom(c4, s4), inclusion_hom(c4, s4))

    c2cube = CayleyTableGroup(_xor_table(3))
    project = Homomorphism(c2cube, c2cube, {v: v & 0b011 for v in c2cube})
    zoo["c2cube-projection"] = ZipDatum(c2cube, c2cube, identity_hom(c2cube), project)

    gl2 = MatrixGroup.general_linear(2, 2)
    borel = closure(gl2, [(1, 1, 0, 1)]).as_group()
    zoo["gl2f2-borel"] = ZipDatum(borel, gl2, inclusion_hom(borel, gl2), inclusion_hom(borel, gl2))

    return zoo


def zoo_entry(name: str) -> ZipDatum:
    zoo = build_small_zoo()
    try:
        return zoo[name]
    except KeyError:
        raise InputError(f"unknown zoo entry {name!r}; known: {', '.join(sorted(zoo))}") from None
