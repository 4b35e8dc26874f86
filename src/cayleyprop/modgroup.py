"""Exact arithmetic in SL(2, Z_n): group elements, group order, generating sets.

Matrices are stored with entries reduced to canonical residues {0, .., n-1}
so that elements are hashable and usable as dict keys during graph
construction.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Mat2Z:
    """A 2x2 matrix over Z_n with determinant 1 (an element of SL(2, Z_n))."""

    a: int
    b: int
    c: int
    d: int
    n: int

    def __post_init__(self) -> None:
        n = self.n
        if n < 2:
            raise ValueError(f"modulus must be >= 2, got {n}")
        # Eager reduction keeps every stored element canonical and hashable.
        object.__setattr__(self, "a", self.a % n)
        object.__setattr__(self, "b", self.b % n)
        object.__setattr__(self, "c", self.c % n)
        object.__setattr__(self, "d", self.d % n)
        if (self.a * self.d - self.b * self.c) % n != 1:
            raise ValueError(
                f"determinant of {self.entries()} is not 1 mod {n}"
            )

    @classmethod
    def identity(cls, n: int) -> "Mat2Z":
        return cls(1, 0, 0, 1, n)

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    # Group arithmetic: kept beside mat_mul though only the tests call it.
    def inverse(self) -> "Mat2Z":
        # det == 1, so the adjugate is the inverse.
        return Mat2Z(self.d, -self.b, -self.c, self.a, self.n)


def mat_mul(x: Mat2Z, y: Mat2Z) -> Mat2Z:
    """Product of two group elements, entries reduced mod n."""
    if x.n != y.n:
        raise ValueError(f"modulus mismatch: {x.n} != {y.n}")
    n = x.n
    return Mat2Z(
        x.a * y.a + x.b * y.c,
        x.a * y.b + x.b * y.d,
        x.c * y.a + x.d * y.c,
        x.c * y.b + x.d * y.d,
        n,
    )


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending."""
    factors = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            factors.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        factors.append(n)
    return factors


def sl2_order(n: int) -> int:
    """|SL(2, Z_n)| = n^3 * prod_{prime p | n} (1 - 1/p^2), evaluated exactly.

    The product is taken over the distinct primes dividing n; n = 1 gives the
    trivial group.
    """
    if n < 1:
        raise ValueError(f"modulus must be >= 1, got {n}")
    order = n**3
    for p in prime_factors(n):
        # p^2 divides n^3 for every prime p | n, so this stays exact.
        order = order // (p * p) * (p * p - 1)
    return order


def generators(n: int) -> list[Mat2Z]:
    """The symmetric generating set S_n of elementary matrices.

    [[1,1],[0,1]], its inverse [[1,n-1],[0,1]], [[1,0],[1,1]] and its
    inverse [[1,0],[n-1,1]]. For n = 2 the +1 and -1 residues coincide and
    the set collapses to two distinct elements.
    """
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    candidates = [
        Mat2Z(1, 1, 0, 1, n),
        Mat2Z(1, n - 1, 0, 1, n),
        Mat2Z(1, 0, 1, 1, n),
        Mat2Z(1, 0, n - 1, 1, n),
    ]
    seen: set[tuple[int, int, int, int]] = set()
    out = []
    for g in candidates:
        key = g.entries()
        if key not in seen:
            seen.add(key)
            out.append(g)
    return out
