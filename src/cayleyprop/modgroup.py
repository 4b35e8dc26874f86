"""Exact arithmetic in SL(2, Z_n): group order, the generating set and its
right action.

A group element [[a, b], [c, d]] is the plain tuple (a, b, c, d) of its
entries reduced to canonical residues {0, .., n-1}, so elements are hashable
and usable as dict keys during graph construction.
"""

from __future__ import annotations

from .graphcore import _as_int


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
    trivial group. n is an integer >= 1 by the rule of _as_int.
    """
    n = _as_int(n, "modulus", 1)
    order = n**3
    for p in prime_factors(n):
        # p^2 divides n^3 for every prime p | n, so this stays exact.
        order = order // (p * p) * (p * p - 1)
    return order


def right_action(x: tuple[int, int, int, int], n: int) -> list[tuple[int, int, int, int]]:
    """x times each element of S_n, in the order of generators(n).

    Right-multiplying by an elementary matrix is a column operation:
    [[1, +-1], [0, 1]] adds +-column 1 to column 2 and [[1, 0], [+-1, 1]]
    adds +-column 2 to column 1, entries reduced mod n. For n = 2 the +1
    and -1 residues coincide and only the two + products are given. x is a
    residue tuple and n an integer >= 2, unchecked: the group BFS calls
    this once per vertex.
    """
    a, b, c, d = x
    # a + b and c + d each enter two products.
    ab, cd = (a + b) % n, (c + d) % n
    if n == 2:
        return [(a, ab, c, cd), (ab, b, cd, d)]
    return [
        (a, ab, c, cd),
        (a, (b - a) % n, c, (d - c) % n),
        (ab, b, cd, d),
        ((a - b) % n, b, (c - d) % n, d),
    ]


def generators(n: int) -> list[tuple[int, int, int, int]]:
    """The symmetric generating set S_n of elementary matrices, as tuples.

    [[1,1],[0,1]], its inverse [[1,n-1],[0,1]], [[1,0],[1,1]] and its
    inverse [[1,0],[n-1,1]]: right_action applied to the identity. For
    n = 2 the set collapses to two distinct elements. n is an integer >= 2
    by the rule of _as_int.
    """
    return right_action((1, 0, 0, 1), _as_int(n, "modulus", 2))
