"""Complement pairings on upward-closed squarefree families.

For an upward-closed family F of divisors of a squarefree M there is always a
permutation sigma of F pairing each member d_j with a member d_sigma(j) whose
complement M/d_sigma(j) divides d_j.  The permutation is found by maximum
bipartite matching on the divisibility graph, and sigma is the whole
witness: `_certified_sigma` checks it against the family where it is
built, once, and raises rather than return a failing permutation.  A
non-perfect matching would be a counterexample to the underlying
combinatorial fact and is raised as a diagnostic, never silently absorbed.

On a minimum-size maximal family of divisors of N this pairing, applied to
the squarefree members not divisible by the last prime, additionally
preserves the exponent-product weight of each member; that equality is what
forces the extremal structure and is re-verified here.  Both the `--k`
sweep and the `--sig` pairings take their permutation from
`_certified_sigma`, which works on the family as one int over its masks,
so both are checked for upward closure and certified by the same code.
"""

from __future__ import annotations

import bisect
from typing import NamedTuple

from . import antichains, families, lattice
from .errors import PreconditionError, TheoremViolationError
from .families import DivisorFamily
from .lattice import Mask, Signature

# Largest ground on which every upward-closed family is listed: 7579 families
# at k=5, 7828352 at k=6 (OEIS A000372 minus the two constants).  The same
# builder serves `antichains.enumerate_families(k)`, which asks only for the
# upsets on [k-2] and is bounded by its own `antichains.LIST_CAP`.
GROUND_CAP = 5


class UpwardClosedFamily(lattice.Frozen):
    """Masks `members` within `ground`, expected upward closed in the ground.

    Immutable; the members are kept sorted and without repeats.
    """

    __slots__ = ("ground", "members")

    ground: Mask
    members: tuple[Mask, ...]

    def __init__(self, ground: Mask, members):
        members = tuple(sorted(set(members)))
        for m in members:
            if m & ~ground:
                raise ValueError(f"member {m:#b} is not a divisor of ground {ground:#b}")
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "members", members)

    def _key(self) -> tuple[Mask, tuple[Mask, ...]]:
        return self.ground, self.members

    def __repr__(self) -> str:
        return f"UpwardClosedFamily(ground={self.ground!r}, members={self.members!r})"


class PermutationWitness(NamedTuple):
    """A permutation sigma of a family's positions.

    It certifies the family when, for every position j, the complement of
    members[sigma[j]] within the ground is a subset of members[j].
    """

    sigma: tuple[int, ...]

    def verify(self, family: UpwardClosedFamily) -> bool:
        return _certifies(self.sigma, family.ground, family.members)


def _certifies(sigma, ground: Mask, members: tuple[Mask, ...]) -> bool:
    """Whether `sigma` is a permutation of the positions of `members` with
    the complement of members[sigma[j]] in `ground` below members[j]."""
    if sorted(sigma) != list(range(len(members))):
        return False
    return all(not (ground ^ members[i]) & ~m for m, i in zip(members, sigma))


def _bitset(masks) -> int:
    """The distinct `masks` as the set bits of one int."""
    return sum(1 << m for m in masks)


def _closed(ground: Mask, bits: int) -> bool:
    """Whether the members of `ground` whose bitset is `bits` are upward
    closed in it: no mask one element above a member is missing."""
    return not lattice.covers(bits, ground) & ~bits


def validate_upward_closed(family: UpwardClosedFamily) -> None:
    """Raise with a violating (member, missing superset) pair if not closed.

    Only a family that `_closed` refuses is scanned cover by cover, for its
    first member with a missing cover.
    """
    members = family.members
    bits = _bitset(members)
    if _closed(family.ground, bits):
        return
    for m in members:
        free = family.ground ^ m
        for b in lattice.iter_bits(free):
            q = m | (1 << b)
            if not bits >> q & 1:
                raise PreconditionError(
                    f"family is not upward closed: {m:#b} is a member but {q:#b} is not",
                    witness=(m, q),
                )


def _max_matching(members: tuple[Mask, ...], adj: list[int]):
    """Augmenting-path maximum bipartite matching with deterministic scan order.

    Both sides are the members, masks in ascending order; the neighbours of
    left position j are the members whose masks are the set bits of adj[j],
    scanned lowest first, that is in ascending position.  Returns
    (match_left, match_right): match_left[j] is the position matched to j,
    and match_right[m] the left position matched to the member of mask m,
    -1 for unmatched vertices.  The right masks one search has visited are
    the set bits of `seen`, cleared before each left vertex is searched.
    """
    match_right = [-1] * (max(members, default=0) + 1)
    match_left = [-1] * len(members)
    seen = 0

    def augment(j: int) -> bool:
        nonlocal seen
        neighbours = adj[j]
        todo = neighbours & ~seen
        while todo:
            low = todo & -todo
            seen |= low
            i = low.bit_length() - 1
            if match_right[i] == -1 or augment(match_right[i]):
                match_left[j] = i
                match_right[i] = j
                return True
            todo = neighbours & ~seen
        return False

    for j in range(len(adj)):
        seen = 0
        augment(j)
    position = {m: i for i, m in enumerate(members)}
    position[-1] = -1
    return [position[m] for m in match_left], match_right


def _hall_violator(adj: list[int], match_left: list[int],
                   match_right: list[int]) -> list[int]:
    """Left positions whose joint neighborhood is smaller than themselves."""
    start = [j for j in range(len(match_left)) if match_left[j] == -1]
    reach = set(start)
    frontier = list(start)
    while frontier:
        j = frontier.pop()
        for i in lattice.iter_bits(adj[j]):
            j2 = match_right[i]
            if j2 != -1 and j2 not in reach:
                reach.add(j2)
                frontier.append(j2)
    return sorted(reach)


def _certified_sigma(ground: Mask, members: tuple[Mask, ...],
                     bits: int) -> tuple[int, ...]:
    """The complement permutation of the ascending `members` of `ground`,
    whose bitset is `bits`, checked as `complement_permutation` promises.

    A family that `_closed` refuses goes to `validate_upward_closed`, which
    names its first missing cover.  The members whose complement divides
    member m are the members above ground ^ m, the subsets of m shifted up
    by ground ^ m.
    """
    if not _closed(ground, bits):
        validate_upward_closed(UpwardClosedFamily(ground, members))
    adj = [bits & lattice.subsets(m) << (ground ^ m) for m in members]
    match_left, match_right = _max_matching(members, adj)
    if -1 in match_left:
        violator = _hall_violator(adj, match_left, match_right)
        raise TheoremViolationError(
            "no perfect complement matching on an upward-closed family",
            counterexample={
                "ground": ground, "members": list(members),
                "violator_positions": violator,
                "violator_members": [members[j] for j in violator]})
    sigma = tuple(match_left)
    if not _certifies(sigma, ground, members):
        raise TheoremViolationError(
            "complement permutation failed its certificate check",
            counterexample={"ground": ground, "members": list(members),
                            "sigma": list(sigma)})
    return sigma


def complement_permutation(family: UpwardClosedFamily) -> PermutationWitness:
    """Permutation sigma with complement(members[sigma[j]]) | members[j] for all j.

    The input must be upward closed within its ground; a perfect matching then
    always exists.  A non-perfect matching is raised as a diagnostic carrying
    the offending member subset, and so is a permutation that fails
    `PermutationWitness.verify`: no caller gets an uncertified one.  The
    pairings of `alpha_pairing` come from the same `_certified_sigma`.
    """
    members = family.members
    return PermutationWitness(
        _certified_sigma(family.ground, members, _bitset(members)))


def all_upward_closed_families(k: int) -> list[UpwardClosedFamily]:
    """Every upward-closed family of non-empty subsets of [k].

    The upsets of `antichains.upsets(k)` less the two constant ones (empty,
    and everything including the empty set), ordered by
    `antichains.antichain_key`: antichain size, then the sorted antichain.
    """
    antichains._check_k(k, GROUND_CAP, "matching.GROUND_CAP")
    upsets = (bits for bits in antichains.upsets(k)
              if bits and not bits & 1)  # holding the empty set, it holds all
    full = (1 << k) - 1
    return [UpwardClosedFamily(full, lattice.set_bits(bits))
            for bits in antichains.order_by_antichain(upsets, k)[0]]


class PairingEntry(NamedTuple):
    """One pairing certificate on the minimum-family squarefree part.

    `position` and `source` are squarefree members (masks without the last
    prime); `bar_source` is the full-lattice complement of the source, which
    divides position * p_n; `excess` is (position * p_n) / bar_source.  The
    weights alpha(position) and alpha(bar_source) agree on minimum families;
    in the flat regime alpha(excess) is 1.
    """

    position: Mask
    source: Mask
    bar_source: Mask
    excess: Mask
    alpha_position: int
    alpha_bar_source: int
    alpha_excess: int


class PairingReport(NamedTuple):
    members: tuple[Mask, ...]
    sigma: tuple[int, ...]
    entries: tuple[PairingEntry, ...]


def alpha_pairing(family: DivisorFamily, sig: Signature) -> PairingReport:
    """Weight-preserving complement pairing on a minimum-size maximal family.

    Applies the complement permutation to the squarefree members not divisible
    by the last prime (ground: the first n-1 primes), lifts each certificate
    back to the full lattice, and verifies the weight equality
    alpha(d_j) = alpha(complement(d_sigma(j))).  A failed equality would
    contradict minimality and is raised as a diagnostic.
    """
    report = families.check_maximal(family, sig)
    if not report.is_maximal:
        witness = report.coprime_witness or report.extension_witness
        raise PreconditionError(
            "pairing requires a maximal intersecting family", witness=witness
        )
    bound = lattice.min_size_bound(sig)
    if len(family) != bound:
        raise PreconditionError(
            f"pairing requires a minimum-size family: got {len(family)}, minimum {bound}"
        )
    return _weight_pairing(family.radical_set, sig, {})


def _weight_pairing(radical_set: tuple[Mask, ...], sig: Signature,
                    built: dict[tuple[Mask, Mask], PairingEntry]
                    ) -> PairingReport:
    """`alpha_pairing` without its preconditions, on the sorted radical set
    of a family known to be maximal and of minimum size; the permutation is
    still certified and the weight equality still checked.

    `built` holds the entries of `sig` built so far, by (position, source),
    and takes the new ones: the caller keeps it across the families of one
    signature, which share most of their entries."""
    last = 1 << (sig.n - 1)
    # the radical set of a maximal family is its squarefree part, and sorted
    # it holds the masks without the last prime first
    members = radical_set[:bisect.bisect_left(radical_set, last)]
    sigma = _certified_sigma(last - 1, members, _bitset(members))
    entries = []
    for pos, i in zip(members, sigma):
        src = members[i]
        entry = built.get((pos, src))
        if entry is None:
            entry = built[pos, src] = _pairing_entry(pos, src, sig)
        entries.append(entry)
    return PairingReport(members, sigma, tuple(entries))


def _pairing_entry(pos: Mask, src: Mask, sig: Signature) -> PairingEntry:
    """The certificate of position `pos` paired with `source` on `sig`, its
    weight equality checked."""
    n = sig.n
    bar_src = ((1 << n) - 1) ^ src
    excess = (pos | 1 << (n - 1)) & ~bar_src
    weights = lattice.alpha_weights(sig)
    entry = PairingEntry(pos, src, bar_src, excess, weights[pos],
                         weights[bar_src], weights[excess])
    if entry.alpha_position != entry.alpha_bar_source:
        raise TheoremViolationError(
            "weight equality failed on a minimum-size family",
            counterexample={
                "signature": list(sig.alphas), "position": pos, "source": src,
                "alpha_position": entry.alpha_position,
                "alpha_bar_source": entry.alpha_bar_source})
    return entry
