"""Maximal intersecting families of subsets of [k] and their generating antichains.

A maximal intersecting family of non-empty subsets of a k-element ground set
contains exactly one of each complement pair {S, S^c} (the pair {empty, full}
is forced to the full set), is upward closed, and has exactly 2^(k-1) members.
Its minimal elements form an antichain T that is pairwise intersecting and
covers the cube: every non-empty subset is either disjoint from some member of
T or a superset of some member.  Upward closure inverts the correspondence, so
enumerating families and enumerating such antichains are the same problem.

Subsets are int bitmasks; a family or antichain is a sorted tuple of masks.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Optional

from .errors import ResourceLimitError

MaskFamily = tuple[int, ...]

DEFAULT_K_CAP = 6


def _check_k(k: int, k_cap: int) -> None:
    if k < 1:
        raise ValueError(f"ground set must have at least one element, got k={k}")
    if k > k_cap:
        raise ResourceLimitError(
            f"k={k} exceeds the antichain enumeration cap of {k_cap} "
            f"(raise k_cap via DIVINT_K_CAP or divisor-intersect.toml)"
        )


def _pair_representatives(k: int) -> list[int]:
    """One representative per free complement pair, most constraining first.

    The representative of {S, S^c} is the side with the smaller (popcount,
    value); pairs are processed in that order so that small, highly
    constraining sets are decided early.
    """
    full = (1 << k) - 1
    reps = [s for s in range(1, full)
            if (s.bit_count(), s) < ((full ^ s).bit_count(), full ^ s)]
    reps.sort(key=lambda s: (s.bit_count(), s))
    return reps


def _dfs(reps: list[int], start: int, full: int,
         chosen: list[int], constraints: list[int], out: list[MaskFamily]) -> None:
    """Pick one side of each remaining pair, pruning on pairwise intersection.

    `constraints` holds only the minimal chosen sets: a candidate meeting all
    of them meets every chosen set.
    """
    if start == len(reps):
        out.append(tuple(sorted(chosen)))
        return
    s = reps[start]
    for cand in (s, full ^ s):
        if all(cand & c for c in constraints):
            if any(c & cand == c for c in constraints):
                kept = constraints  # a chosen subset already implies cand
            else:
                kept = [c for c in constraints if cand & c != cand]
                kept.append(cand)
            chosen.append(cand)
            _dfs(reps, start + 1, full, chosen, kept, out)
            chosen.pop()


def antichain_key(family: MaskFamily) -> tuple:
    """Canonical family order: by generating antichain, smaller ones first.

    Closure is injective on antichains, so no two families share a key.
    """
    mins = minimal_masks(family)
    return (len(mins), mins)


@lru_cache(maxsize=None)
def _families_cached(k: int) -> tuple[MaskFamily, ...]:
    full = (1 << k) - 1
    out: list[MaskFamily] = []
    _dfs(_pair_representatives(k), 0, full, [full], [full], out)
    out.sort(key=antichain_key)
    return tuple(out)


def enumerate_families(k: int, *,
                       k_cap: int = DEFAULT_K_CAP) -> tuple[MaskFamily, ...]:
    """All maximal intersecting families on [k], canonically ordered.

    The order follows the canonical order of the generating antichains, so
    this list and `enumerate_antichains` correspond elementwise.
    """
    _check_k(k, k_cap)
    return _families_cached(k)


def enumerate_antichains(k: int, *,
                         k_cap: int = DEFAULT_K_CAP) -> tuple[MaskFamily, ...]:
    """Generating antichains of all maximal intersecting families on [k].

    Sorted by cardinality, then lexicographically on the sorted mask lists.
    """
    return tuple(minimal_masks(f)
                 for f in enumerate_families(k, k_cap=k_cap))


def minimal_masks(family: MaskFamily) -> MaskFamily:
    """Members with no proper subset in the family, ascending."""
    return tuple(sorted(
        m for m in family
        if not any(x != m and x & m == x for x in family)
    ))


def mask_closure(antichain: MaskFamily, k: int) -> MaskFamily:
    """Upward closure within the non-empty subsets of [k], ascending."""
    return tuple(sorted(
        m for m in range(1, 1 << k)
        if any(m & t == t for t in antichain)
    ))


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


def reference_families(k: int) -> tuple[MaskFamily, ...]:
    """Slow independent enumeration: literal filter over all choice vectors.

    Exponential in 2^k; used only to validate the pruned DFS on small k.
    """
    full = (1 << k) - 1
    reps = [s for s in range(1, full) if s < (full ^ s)]
    out = []
    for bits in itertools.product((0, 1), repeat=len(reps)):
        chosen = [full] + [s if b == 0 else full ^ s for s, b in zip(reps, bits)]
        if all(a & b for a, b in itertools.combinations(chosen, 2)):
            out.append(tuple(sorted(chosen)))
    out.sort(key=antichain_key)
    return tuple(out)
