"""Exhaustive enumeration of all maximal pairwise-non-coprime families.

This is the ground-truth referee for the rest of the package.  Two engines:

* ``radical-lift``: enumerate the maximal intersecting set families on the n
  prime indices, then lift each to the divisor lattice by taking every
  divisor whose radical lies in the set family.  Whether a divisor can join a
  family depends only on its radical, so this is complete, and it collapses
  e.g. a 255-divisor lattice to a 15-vertex problem.  Families are lifted
  in lexicographic order of their sorted radical sets, which is the
  canonical member order: distinct maximal families A, B never contain one
  another, so their member sequences first differ at the least divisor of
  A ^ B, held by the family that comes first.  That divisor is the
  squarefree one on min(R_A ^ R_B), since a radical's squarefree divisor
  comes first among the divisors on it, and `lattice.divisor_key`, which
  compares the last prime first, orders squarefree divisors as their masks.
* ``direct-clique``: Bron-Kerbosch maximal-clique search (pivoting, bitset
  rows, one search from the whole vertex set) over the graph on divisors > 1
  with an edge iff gcd > 1.  It finds the cliques in no specified order, and
  the families are sorted by `family_sort_key`.  Slower, but makes no
  structural assumption at all, which is the point: the two engines check
  each other.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from . import antichains, lattice
from .errors import limit_error
from .families import MEMBER_CAP, DivisorFamily
from .lattice import Mask, Signature

# Most divisors > 1 the direct-clique graph may hold.
DIRECT_DIVISOR_CAP = 500
# Most maximal cliques one Bron-Kerbosch search may list; past it the search
# stops with exit 3.  The largest search of the test suite and the benchmark
# lists 2646 (oracle --sig 1^6 --method direct-clique).
CLIQUE_CAP = 100_000

METHODS = ("radical-lift", "direct-clique")


class OracleReport(NamedTuple):
    """Census of every maximal family for one signature.

    `sizes` is ascending, one entry per maximal family.  `families` is None
    when the total member count across all families exceeds
    `materialize_cap`; counts and sizes are always present.
    """

    signature: Signature
    method: str
    total_maximal: int
    min_size: int
    min_count: int
    sizes: tuple[int, ...]
    families: Optional[tuple[DivisorFamily, ...]]


def family_sort_key(fam: DivisorFamily):
    """Canonical family order: lexicographic on the members' divisor keys."""
    return tuple(map(lattice.divisor_key, fam.members))


def _finish(sig: Signature, method: str, sizes: list[int],
            built: Optional[list[DivisorFamily]]) -> OracleReport:
    """Report for one engine; `built` is in canonical order, or None above
    `materialize_cap`."""
    sizes = tuple(sorted(sizes))
    return OracleReport(
        signature=sig,
        method=method,
        total_maximal=len(sizes),
        min_size=sizes[0],
        min_count=sizes.count(sizes[0]),
        sizes=sizes,
        families=None if built is None else tuple(built),
    )


def _enumerate_radical_lift(sig: Signature,
                            materialize_cap: int) -> OracleReport:
    mask_families = antichains.enumerate_families(sig.n)
    weights = lattice.alpha_weights(sig)
    sizes = [sum(map(weights.__getitem__, fam)) for fam in mask_families]
    if sum(sizes) > materialize_cap:
        return _finish(sig, "radical-lift", sizes, None)
    built = [DivisorFamily.lift(sig, fam) for fam in sorted(mask_families)]
    return _finish(sig, "radical-lift", sizes, built)


def maximal_cliques(rads: list[Mask]) -> list[int]:
    """Maximal cliques of the graph joining vertices whose radicals meet.

    Vertex i has radical rads[i]; cliques are vertex bitmasks, in no
    specified order (callers sort).  One pivoting Bron-Kerbosch search from
    the whole vertex set, run on an explicit stack so that depth is bounded
    by memory, not by the interpreter's recursion limit.  The pivot is the
    lowest vertex of P | X with the most neighbours in P.  A search that
    would list more than CLIQUE_CAP cliques raises ResourceLimitError.
    """
    nv = len(rads)
    if not nv:
        return []
    adj = [0] * nv
    for i in range(nv):
        for j in range(i + 1, nv):
            if rads[i] & rads[j]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    cliques: list[int] = []
    stack = [(0, (1 << nv) - 1, 0)]
    while stack:
        r, p, x = stack.pop()
        if not p and not x:
            cliques.append(r)
            if len(cliques) > CLIQUE_CAP:
                raise limit_error("the number of maximal cliques", None,
                                  CLIQUE_CAP, "oracle.CLIQUE_CAP")
            continue
        best, pivot, rest = -1, 0, p | x
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            deg = (p & adj[u]).bit_count()
            if deg > best:
                best, pivot = deg, u
            rest ^= low
        rest = p & ~adj[pivot]
        while rest:
            low = rest & -rest
            row = adj[low.bit_length() - 1]
            stack.append((r | low, p & row, x & row))
            p ^= low
            x |= low
            rest ^= low
    return cliques


def _enumerate_direct(sig: Signature, materialize_cap: int) -> OracleReport:
    count = sig.divisor_count() - 1
    if count > DIRECT_DIVISOR_CAP:
        raise limit_error("the number of divisors > 1 for direct-clique",
                          count, DIRECT_DIVISOR_CAP,
                          "oracle.DIRECT_DIVISOR_CAP")
    divisors = [d for d in lattice.enumerate_divisors(sig) if any(d)]
    cliques = maximal_cliques([lattice.radical(d) for d in divisors])
    sizes = [c.bit_count() for c in cliques]
    if sum(sizes) > materialize_cap:
        return _finish(sig, "direct-clique", sizes, None)
    built = [
        DivisorFamily(divisors[v] for v in lattice.iter_bits(c)) for c in cliques
    ]
    built.sort(key=family_sort_key)
    return _finish(sig, "direct-clique", sizes, built)


def enumerate_maximal_families(
    sig: Signature,
    method: str = "radical-lift",
    *,
    materialize_cap: int = MEMBER_CAP,
) -> OracleReport:
    """Census of every maximal family of divisors of the given signature."""
    if method == "radical-lift":
        return _enumerate_radical_lift(sig, materialize_cap)
    if method == "direct-clique":
        return _enumerate_direct(sig, materialize_cap)
    raise ValueError(f"unknown method {method!r}: expected one of {METHODS}")

