"""Predicates and constructions for pairwise-non-coprime divisor families.

A family here is a set of divisors > 1 in which, for the interesting
predicates, every two members share a prime ("intersecting").  Maximality
means no further divisor of N can be added without creating a coprime pair.
Divisor 1 is excluded throughout: it is coprime to everything, so any family
containing it could never be intersecting in a useful sense.
"""

from __future__ import annotations

import itertools
import operator
from typing import Iterable, NamedTuple, Optional

from . import antichains, lattice
from .errors import PreconditionError, TheoremViolationError
from .lattice import Divisor, Mask, Signature

# Most members, summed over all its families, that one listing may build:
# `extremal --list`, `matching --sig`, `oracle --list` and `openprob --list`.
# The largest listing of the tests and the README builds 84672 (2646
# families of 32, at 1^6); 2,1,1,1,1,1,1 builds 254016.
MEMBER_CAP = 300_000


class DivisorFamily(lattice.Frozen):
    """Immutable, canonically sorted set of divisors > 1 and its radical set."""

    __slots__ = ("members", "radical_set")

    def __init__(self, divisors: Iterable[Divisor]):
        # sorting the input as given is cheap when it comes in canonical
        # order; only input with repeats is sorted again from the set
        members = sorted(map(tuple, divisors), key=lattice.divisor_key)
        distinct = set(members)
        if len(distinct) < len(members):
            members = sorted(distinct, key=lattice.divisor_key)
        radical_set = tuple(sorted(set(map(lattice.radical, members))))
        if radical_set[:1] == (0,):  # only divisor 1 has the empty radical
            raise ValueError("divisor 1 cannot belong to a family")
        object.__setattr__(self, "members", tuple(members))
        object.__setattr__(self, "radical_set", radical_set)

    @classmethod
    def lift(cls, sig: Signature, masks: Iterable[Mask]) -> DivisorFamily:
        """Every divisor whose radical lies in `masks` (non-empty subsets of
        the n primes), read in order from `lattice.radical_table`."""
        masks = frozenset(masks)
        top = 1 << sig.n
        if not all(0 < m < top for m in masks):
            raise ValueError(f"masks {sorted(masks)} are not all non-empty "
                             f"subsets of the {sig.n} primes")
        members = lattice.on_radicals(sig, masks)
        fam = object.__new__(cls)
        object.__setattr__(fam, "members", members)
        object.__setattr__(fam, "radical_set", tuple(sorted(masks)))
        return fam

    @property
    def member_set(self) -> frozenset[Divisor]:
        """The members as a frozenset, built anew on each call."""
        return frozenset(self.members)

    def __contains__(self, d: Divisor) -> bool:
        return tuple(d) in self.members

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def _key(self) -> tuple[Divisor, ...]:
        return self.members

    def __repr__(self) -> str:
        return f"DivisorFamily({[lattice.format_divisor(d) for d in self.members]})"

    def squarefree_part(self) -> tuple[Mask, ...]:
        """Masks of the squarefree members, ascending: the radicals of the
        members whose exponents are all at most 1.

        Scans the members, never the radical set a family was lifted from.
        """
        return tuple(sorted(lattice.radical(d) for d in self.members
                            if max(d, default=0) <= 1))


class FamilyReport(NamedTuple):
    """Outcome of the intersecting / maximality predicates, with witnesses.

    `coprime_witness` is the canonically first coprime member pair when the
    family is not intersecting; `extension_witness` is the canonically first
    divisor that could still be added when the family is intersecting but not
    maximal.  `is_maximal` is None when only the intersecting check ran.
    `minimal_radicals` holds the minimal masks of the family's radical set,
    ascending, which both checks take first; `extremal.classify` reads them.
    """

    is_intersecting: bool
    is_maximal: Optional[bool] = None
    coprime_witness: Optional[tuple[Divisor, Divisor]] = None
    extension_witness: Optional[Divisor] = None
    minimal_radicals: tuple[Mask, ...] = ()


def _pairwise_meet(mins: tuple[Mask, ...]) -> bool:
    """Whether the masks of `mins` pairwise meet."""
    return all(itertools.starmap(operator.and_, itertools.combinations(mins, 2)))


def _intersecting(family: DivisorFamily, mins: tuple[Mask, ...]) -> FamilyReport:
    """check_intersecting, given the family's minimal radicals `mins`.

    Every radical contains a minimal one, so the members pairwise share a
    prime exactly when the minimal radicals pairwise meet.  Only a family
    that fails is scanned pair by pair, to name its first coprime pair.
    """
    if _pairwise_meet(mins):
        return FamilyReport(True, minimal_radicals=mins)
    rads = tuple(map(lattice.radical, family.members))
    for i in range(len(rads)):
        for j in range(i + 1, len(rads)):
            if not rads[i] & rads[j]:
                pair = (family.members[i], family.members[j])
                return FamilyReport(False, coprime_witness=pair,
                                    minimal_radicals=mins)
    raise AssertionError("minimal radicals disjoint, yet no coprime pair")


def check_intersecting(family: DivisorFamily) -> FamilyReport:
    """Do all member pairs share a prime?  Witness: first violating pair."""
    return _intersecting(family, antichains.minimal_masks(family.radical_set))


def _meeting(mins: tuple[Mask, ...], sig: Signature) -> list[Mask]:
    """The non-empty masks meeting every mask of `mins`, ascending.

    As a bitset over the masks: all of them, less the empty one and, for
    each r of `mins`, the subsets of its complement.
    """
    full = (1 << sig.n) - 1
    missed = 1
    for r in mins:
        missed |= lattice.subsets(full ^ r)
    return list(lattice.set_bits(~missed & ((2 << full) - 1)))


def compatible_masks(mins: tuple[Mask, ...],
                     sig: Signature) -> Optional[list[Mask]]:
    """`_meeting(mins, sig)` where the masks of `mins` pairwise meet, else
    None: no family whose minimal radicals they are is intersecting.

    It reads the masks alone, so a caller may keep it for every signature
    on sig.n primes."""
    return _meeting(mins, sig) if _pairwise_meet(mins) else None


def is_maximal_size(size: int, compatible: Optional[list[Mask]],
                    weights: tuple[int, ...]) -> bool:
    """The maximality rule, on a family of `size` distinct divisors > 1 of
    N whose minimal radicals have the `compatible_masks` given.

    It is maximal exactly when those radicals pairwise meet and `size` is
    the weight of the compatible masks, by `lattice.alpha_weights`: every
    member lies on a compatible mask, and every divisor on one meets every
    member.  `check_maximal` and `verify` both decide maximality here.
    """
    return (compatible is not None
            and size == sum(map(weights.__getitem__, compatible)))


def check_maximal(family: DivisorFamily, sig: Signature) -> FamilyReport:
    """Full predicate: intersecting and admitting no further divisor of N.

    The first member that is not a divisor of N by `lattice.is_divisor`
    (of the wrong length, with an exponent that is not an int, or one out
    of range) is refused with a PreconditionError that names it.  Only a
    family that `is_maximal_size` refuses is scanned for its witness.
    """
    bad = next((d for d in family if not lattice.is_divisor(d, sig)), None)
    if bad is not None:
        raise PreconditionError(
            f"member {bad} does not divide the {sig} lattice", witness=bad)
    mins = antichains.minimal_masks(family.radical_set)
    compatible = compatible_masks(mins, sig)
    if is_maximal_size(len(family), compatible, lattice.alpha_weights(sig)):
        return FamilyReport(True, True, minimal_radicals=mins)
    if compatible is None:
        return _intersecting(family, mins)._replace(is_maximal=False)
    members = family.member_set
    for d in DivisorFamily.lift(sig, compatible):
        if d not in members:
            return FamilyReport(True, False, extension_witness=d,
                                minimal_radicals=mins)
    raise TheoremViolationError("family differs from its compatible closure")


def minimal_members(family: DivisorFamily) -> DivisorFamily:
    """Members not properly divisible by another member; an antichain.

    Members are scanned in ascending total degree, so a proper divisor comes
    before its multiples, and each one is tested only against the minima
    already kept: anything below it in the family lies above such a minimum.
    """
    keep: list[Divisor] = []
    for d in sorted(family.members, key=sum):
        if not any(lattice.divides(m, d) for m in keep):
            keep.append(d)
    return DivisorFamily(keep)


def upward_closure(generators: DivisorFamily, sig: Signature) -> DivisorFamily:
    """All divisors of N divisible by at least one generator.

    Each generator's multiples are enumerated directly as a product of
    exponent ranges, so no divisibility test runs.  The first generator
    that is not a divisor of N by `lattice.is_divisor` is refused with a
    ValueError that names it.
    """
    for t in generators.members:
        if not lattice.is_divisor(t, sig):
            raise ValueError(f"generator {t} does not divide the {sig} lattice")
    lattice.check_lattice_size(sig)
    tops = [a + 1 for a in sig.alphas]
    multiples: set[Divisor] = set()
    for t in generators.members:
        multiples.update(itertools.product(*map(range, t, tops)))
    return DivisorFamily(multiples)
