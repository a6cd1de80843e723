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

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from . import antichains, families, lattice
from .antichains import DEFAULT_K_CAP
from .families import DivisorFamily
from .lattice import Signature


@dataclass(frozen=True)
class ExtremalReport:
    """Minimum size, count of minimum families, and their generators."""

    signature: Signature
    regime: str  # "deep" | "flat"
    min_size: int
    h_count: int
    generators: tuple[DivisorFamily, ...]


@dataclass(frozen=True)
class ClassificationVerdict:
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


def _embed_antichain(masks: antichains.MaskFamily, sig: Signature) -> DivisorFamily:
    """Lift a k-bit antichain onto the minimal-exponent primes u..n-1."""
    u = sig.u
    out = []
    for m in masks:
        exps = [0] * sig.n
        for j in lattice.iter_bits(m):
            exps[u + j] = 1
        out.append(tuple(exps))
    return DivisorFamily(out)


def extremal_families(sig: Signature, *,
                      k_cap: int = DEFAULT_K_CAP) -> ExtremalReport:
    """All minimum-size maximal families, given by their generator antichains."""
    bound = lattice.min_size_bound(sig)
    if sig.alphas[-1] >= 2:
        gens = tuple(
            DivisorFamily([lattice.unit_divisor(v, sig.n)])
            for v in range(sig.u, sig.n)
        )
        return ExtremalReport(sig, "deep", bound, len(gens), gens)
    k = sig.n - sig.u
    gens = tuple(
        _embed_antichain(ac, sig)
        for ac in antichains.enumerate_antichains(k, k_cap=k_cap)
    )
    return ExtremalReport(sig, "flat", bound, len(gens), gens)


@lru_cache
def _generator_set(sig: Signature, k_cap: int) -> frozenset[DivisorFamily]:
    return frozenset(extremal_families(sig, k_cap=k_cap).generators)


def count_minimum_families(sig: Signature, *,
                           k_cap: int = DEFAULT_K_CAP) -> int:
    """Number of minimum-size maximal families, without materializing them."""
    if sig.alphas[-1] >= 2:
        return sig.n - sig.u
    k = sig.n - sig.u
    return len(antichains.enumerate_antichains(k, k_cap=k_cap))


def _condition_b(mins: DivisorFamily, sig: Signature) -> bool:
    """Minimal-member condition for each regime."""
    u = sig.u
    if sig.alphas[-1] >= 2:
        if len(mins) != 1:
            return False
        d = mins.members[0]
        return sum(d) == 1 and any(d[v] == 1 for v in range(u, sig.n))
    low_bits = ((1 << sig.n) - 1) ^ ((1 << u) - 1)
    return all(
        all(e <= 1 for e in d) and lattice.radical(d) & ~low_bits == 0
        for d in mins.members
    )


def classify(family: DivisorFamily, sig: Signature, *,
             k_cap: int = DEFAULT_K_CAP) -> ClassificationVerdict:
    """Evaluate the three extremal characterizations independently."""
    report = families.check_maximal(family, sig)
    if not report.is_maximal:
        witness = report.coprime_witness or report.extension_witness
        return ClassificationVerdict(False, False, frozenset(), witness)
    matched = set()
    bound = lattice.min_size_bound(sig)
    if len(family) == bound:
        matched.add("a")
    mins = families.minimal_members(family)
    if _condition_b(mins, sig):
        matched.add("b")
    # A maximal family is upward closed and closure is injective on
    # antichains, so it is a generator closure exactly when its minimal
    # members are that generator.
    if mins in _generator_set(sig, k_cap):
        matched.add("c")
    is_extremal = "a" in matched
    witness = None if is_extremal else "size-above-minimum"
    return ClassificationVerdict(True, is_extremal, frozenset(matched), witness)
