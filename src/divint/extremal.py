"""Classification of the minimum-size maximal intersecting divisor families.

Two regimes, split on the smallest exponent an:

* deep (an >= 2): the minimum families are exactly the multiples of a single
  prime p_v whose exponent equals an, so there are n - u of them (u counts
  the exponents above an).
* flat (an = 1): the minimum families are exactly the upward closures of the
  generating antichains on the k = n - u minimal-exponent primes, embedded on
  prime indices u..n-1.

Every generator's closure attains the closed-form minimum size
an * prod(ai + 1, i < n).
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

from . import antichains, families, lattice
from .antichains import MaskFamily
from .errors import limit_error
from .families import DivisorFamily
from .lattice import Signature

class ExtremalReport(NamedTuple):
    """Minimum size, count of minimum families, and their generators."""

    signature: Signature
    regime: str  # "deep" | "flat"
    min_size: int
    h_count: int
    generators: tuple[DivisorFamily, ...]


class ClassificationVerdict(NamedTuple):
    """Which of the three equivalent extremal characterizations a family meets.

    (a) maximal of minimum size; (b) maximal with the minimal-member
    condition; (c) structurally equal to a generator closure.  For maximal
    families the theory makes these jointly true or jointly false, so
    `matched` is either empty or {'a','b','c'}.
    """

    is_maximal: bool
    is_extremal: bool
    matched: frozenset[str]
    failure_witness: Optional[object] = None


def _generator_masks(sig: Signature) -> tuple[MaskFamily, ...]:
    """Radical antichains of the generators, in the order of the report."""
    n, u = sig.n, sig.u
    if sig.alphas[-1] >= 2:
        return tuple((1 << v,) for v in range(u, n))
    return tuple(tuple(m << u for m in ac)
                 for ac in antichains.enumerate_antichains(n - u))


def regime(sig: Signature) -> str:
    """"deep" when the smallest exponent is at least 2, else "flat"."""
    return "deep" if sig.alphas[-1] >= 2 else "flat"


def extremal_families(sig: Signature) -> ExtremalReport:
    """All minimum-size maximal families, given by their generator antichains."""
    bound = lattice.min_size_bound(sig)
    gens = tuple(
        DivisorFamily(lattice.mask_to_divisor(m, sig.n) for m in ac)
        for ac in _generator_masks(sig)
    )
    return ExtremalReport(sig, regime(sig), bound, len(gens), gens)


@lru_cache
def _generator_set(sig: Signature) -> frozenset[MaskFamily]:
    """Radical antichains of the generators, for lookup by `classify`."""
    return frozenset(_generator_masks(sig))


def minimum_radical_sets(sig: Signature) -> Sequence[MaskFamily]:
    """The sorted radical sets of the closures of
    `extremal_families(sig).generators`, in that order.

    A maximal family is fixed by its radical set, so no multiple of a
    generator is enumerated.  In the deep regime the set is the masks
    holding bit v.  In the flat regime it is the generator's maximal
    intersecting family on primes u..n-1, each mask joined with every mask
    on the first u primes; with u = 0 these are the families of
    `antichains.enumerate_families(n)` as they are.  The lattice and the
    member total of the families are held against their caps before any set
    is built.
    """
    lattice.check_lattice_size(sig)
    total = count_minimum_families(sig) * lattice.min_size_bound(sig)
    if total > families.MEMBER_CAP:
        raise limit_error("the member count of the minimum families", total,
                          families.MEMBER_CAP, "families.MEMBER_CAP")
    n, u = sig.n, sig.u
    if sig.alphas[-1] >= 2:
        return [tuple(m for m in range(1 << n) if m >> v & 1)
                for v in range(u, n)]
    if not u:
        return list(antichains.enumerate_families(n))
    lows = range(1 << u)
    return [tuple(h << u | low for h in fam for low in lows)
            for fam in antichains.enumerate_families(n - u)]


def count_minimum_families(sig: Signature) -> int:
    """Number of minimum-size maximal families, without materializing them."""
    if sig.alphas[-1] >= 2:
        return sig.n - sig.u
    return antichains.count_families(sig.n - sig.u)


def _condition_b(mins: MaskFamily, sig: Signature) -> bool:
    """Minimal-member condition for each regime, on the minimal radicals."""
    u = sig.u
    if sig.alphas[-1] >= 2:  # one prime p_v with v >= u
        return len(mins) == 1 and mins[0].bit_count() == 1 and mins[0] >> u > 0
    return all(m >> u << u == m for m in mins)  # only primes u..n-1


def classify(family: DivisorFamily, sig: Signature) -> ClassificationVerdict:
    """Evaluate the three extremal characterizations independently."""
    report = families.check_maximal(family, sig)
    if not report.is_maximal:
        witness = report.coprime_witness or report.extension_witness
        return ClassificationVerdict(False, False, frozenset(), witness)
    matched = set()
    bound = lattice.min_size_bound(sig)
    if len(family) == bound:
        matched.add("a")
    # A maximal family is fixed by its radical set, so its minimal members are
    # squarefree and are exactly the squarefree divisors on the minimal masks
    # of that set.  It is also upward closed and closure is injective on
    # antichains, so it is a generator closure exactly when those masks are
    # that generator's radicals.  check_maximal has just taken those masks.
    mins = families._minimal_radicals(family.radical_set)
    if _condition_b(mins, sig):
        matched.add("b")
    if mins in _generator_set(sig):
        matched.add("c")
    is_extremal = "a" in matched
    witness = None if is_extremal else "size-above-minimum"
    return ClassificationVerdict(True, is_extremal, frozenset(matched), witness)
