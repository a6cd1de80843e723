"""Maximal intersecting families of subsets of [k] and their generating antichains.

A maximal intersecting family of non-empty subsets of a k-element ground set
contains exactly one of each complement pair {S, S^c} (the pair {empty, full}
is forced to the full set), is upward closed, and has exactly 2^(k-1) members.
Its minimal elements form an antichain T that is pairwise intersecting and
covers the cube: every non-empty subset is either disjoint from some member of
T or a superset of some member.  Upward closure inverts the correspondence, so
enumerating families and enumerating such antichains are the same problem.

Subsets are int bitmasks; a family or antichain is a sorted tuple of masks.
An upset on [k] is one int, a bitset over the 2^k masks (bit m is set when
mask m is a member); every family walk runs on the one builder, `upsets`.

A family on [k] is fixed by its members without element k-1, an
intersecting upset on [k-1].  `intersecting_upsets` yields those one int at
a time and holds none: `count_families` counts them, and `oracle` reads each
family's size off them.  `COUNT_CAP` bounds that walk.  The listing walk,
`enumerate_families` and `enumerate_antichains`, builds and sorts every
family, and `LIST_CAP` bounds it one step lower.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator, Optional

from . import lattice
from .errors import limit_error

MaskFamily = tuple[int, ...]

# Largest ground the walk of intersecting upsets answers, for `count` and
# the `oracle` census: k = 8 would build the 7828352 upsets on [6], which
# pure Python does not finish.
COUNT_CAP = 7

# Largest ground the listing walk answers: k = 7 would materialize and sort
# 1422564 families of 64 masks each.
LIST_CAP = 6


def _check_k(k: int, limit: int, name: str) -> None:
    """Refuse a walk on [k] past its own fixed cap before it starts."""
    if k < 1:
        raise ValueError(f"ground set must have at least one element, got k={k}")
    if k > limit:
        raise limit_error("the ground size k", k, limit, name)


def antichain_key(family: MaskFamily) -> tuple:
    """Canonical family order: by generating antichain, smaller ones first.

    Closure is injective on antichains, so no two families share a key.
    """
    mins = minimal_masks(family)
    return (len(mins), mins)


def upsets(k: int) -> list[int]:
    """Every upset on [k], the empty one and the one of all 2^k masks too.

    Dedekind recursion: an upset on [k] is f0 | f1 << 2^(k-1), its members
    without and with element k-1, for upsets f0 <= f1 on [k-1].
    """
    level = [0, 1]  # on [0]: the empty upset and {empty set}
    for j in range(k):
        level = [f0 | f1 << (1 << j) for f1 in level for f0 in level
                 if f0 & ~f1 == 0]
    return level


def _intervals(ups: list[int], j: int) -> Iterator[tuple[int, int]]:
    """Each f0 in `ups` = upsets(j) with the f1 there, f0 <= f1 <= b(f0), as a
    bitset over positions in `ups`.  b(f0) holds the sets meeting every member
    of f0, so f0 | f1 << 2^j is exactly an intersecting upset on [j+1]."""
    top = (1 << j) - 1
    holding = [sum(1 << i for i, f in enumerate(ups) if f >> s & 1)
               for s in range(top + 1)]
    for f0 in ups:
        choices = (1 << len(ups)) - 1
        for s in range(top + 1):
            if f0 >> s & 1:
                choices &= holding[s]
            if f0 >> (top ^ s) & 1:  # s misses a member of f0
                choices &= ~holding[s]
        yield f0, choices


def order_by_antichain(bitsets, k: int) -> tuple[tuple[int, ...],
                                                 tuple[MaskFamily, ...]]:
    """The upsets of non-empty masks on [k] in `bitsets`, each one int over
    the 2^k masks, and their generating antichains as mask tuples, both in
    the order of `antichain_key`.  The minima are read off each int through
    `lattice.covers`; no upset is listed mask by mask."""
    full = (1 << k) - 1
    keyed = sorted((len(mins), mins, f) for f in bitsets
                   for mins in [lattice.set_bits(f & ~lattice.covers(f, full))])
    return tuple(f for _, _, f in keyed), tuple(mins for _, mins, _ in keyed)


def intersecting_upsets(k: int) -> Iterator[int]:
    """Each intersecting upset G on [k-1], one int over its 2^(k-1) masks,
    one at a time: f0 | f1 << 2^(k-2) for each interval of `_intervals`.

    G fixes one maximal intersecting family on [k] (see `_ordered`),
    so this walk meets each of them once and holds none.  The cap is checked
    when the walk is asked for, before it starts.
    """
    _check_k(k, COUNT_CAP, "antichains.COUNT_CAP")
    if k == 1:
        return iter((0,))
    ups = upsets(k - 2)
    highs = [f1 << (1 << (k - 2)) for f1 in ups]
    return (f0 | highs[i] for f0, choices in _intervals(ups, k - 2)
            for i in lattice.set_bits(choices))


@lru_cache(maxsize=None)
def _ordered(k: int) -> tuple[tuple[int, ...], tuple[MaskFamily, ...]]:
    """The families on [k], each one int over the 2^k masks, and their
    generating antichains, in the order of `antichain_key`."""
    # F is fixed by G, its members without element k-1, an intersecting upset
    # on [k-1]: a mask m with element k-1 is in F exactly when full ^ m is
    # not.  As one int over the 2^k masks, F is G below bit 2^(k-1) and,
    # above it, the complement of G read backwards, since full ^ m is the
    # reflection of m - 2^(k-1) in [0, 2^(k-1)).  With G = g0 | g1 << q for
    # upsets g0, g1 on [k-2], that is flip[g1] | flip[g0] << q, where flip[g]
    # is the complement of g read backwards within its q = 2^(k-2) bits.
    if k == 1:
        return order_by_antichain((0b10,), 1)  # F = {[1]}
    half = 1 << (k - 1)
    q = half >> 1
    flip = {g: (1 << q) - 1 ^ lattice.reverse_bits(g, q) for g in upsets(k - 2)}
    return order_by_antichain(
        (g | (flip[g >> q] | flip[g & (1 << q) - 1] << q) << half
         for g in intersecting_upsets(k)), k)


@lru_cache(maxsize=None)
def _families_cached(k: int) -> tuple[tuple[MaskFamily, ...],
                                      tuple[MaskFamily, ...]]:
    """The families on [k] as mask tuples and their generating antichains,
    in the order of `antichain_key`."""
    bitsets, chains = _ordered(k)
    return tuple(map(lattice.set_bits, bitsets)), chains


def count_families(k: int) -> int:
    """Number of maximal intersecting families on [k] (OEIS A001206), unlisted:
    the number of intersecting upsets on [k-1]."""
    _check_k(k, COUNT_CAP, "antichains.COUNT_CAP")
    if k == 1:
        return 1
    return sum(c.bit_count() for _, c in _intervals(upsets(k - 2), k - 2))


def enumerate_families(k: int) -> tuple[MaskFamily, ...]:
    """All maximal intersecting families on [k], canonically ordered.

    The order follows the canonical order of the generating antichains, so
    this list and `enumerate_antichains` correspond elementwise.
    """
    _check_k(k, LIST_CAP, "antichains.LIST_CAP")
    return _families_cached(k)[0]


def enumerate_antichains(k: int) -> tuple[MaskFamily, ...]:
    """Generating antichains of all maximal intersecting families on [k].

    Sorted by cardinality, then lexicographically on the sorted mask lists.
    Each is read off its family's int; no family is listed mask by mask.
    """
    _check_k(k, LIST_CAP, "antichains.LIST_CAP")
    return _ordered(k)[1]


def minimal_masks(family: MaskFamily) -> MaskFamily:
    """Members with no proper subset in the family, ascending.

    Distinct members are scanned in ascending popcount, each tested only
    against the minima already kept.
    """
    keep: list[int] = []
    for m in sorted(family, key=int.bit_count):
        for x in keep:
            if x & m == x:
                break
        else:
            keep.append(m)
    return tuple(sorted(keep))


def antichain_conditions(sets: MaskFamily, k: int) -> tuple[bool, Optional[str]]:
    """Check the three generating-antichain conditions; name the first violated.

    (a) pairwise intersecting, (b) antichain under inclusion, (c) every
    non-empty subset of [k] is disjoint from some member or a superset of
    some member.
    """
    full = (1 << k) - 1
    for s in sets:
        if s == 0:
            raise ValueError("antichain members must be non-empty masks")
        if s & ~full:
            raise ValueError(f"mask {s:#b} has bits outside the {k}-element ground set")
    sets = tuple(sorted(set(sets)))
    for a, b in itertools.combinations(sets, 2):
        if not a & b:
            return False, "a"
    for a, b in itertools.combinations(sets, 2):
        if a & b in (a, b):
            return False, "b"
    for m in range(1, full + 1):
        if not any(m & t == 0 for t in sets) and not any(m & t == t for t in sets):
            return False, "c"
    return True, None

