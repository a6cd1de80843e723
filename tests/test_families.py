import pytest
from hypothesis import given, settings, strategies as st

from divint import antichains, families, lattice
from divint.errors import PreconditionError
from divint.families import DivisorFamily
from divint.lattice import Signature


P1 = (1, 0)
P2 = (0, 1)
P12 = (1, 1)


def test_family_canonical_and_deduped():
    fam = DivisorFamily([P12, P1, P1])
    assert fam.members == (P1, P12)
    assert len(fam) == 2
    assert P1 in fam and P2 not in fam
    assert list(fam) == [P1, P12]


def test_family_rejects_divisor_one():
    with pytest.raises(ValueError):
        DivisorFamily([(0, 0), P1])


def test_family_holds_its_members_and_radical_set_only():
    """No third copy of a family: `member_set` is built on each call."""
    assert DivisorFamily.__slots__ == ("members", "radical_set")
    fam = DivisorFamily([P12, P1])
    assert fam.member_set == frozenset({P1, P12})
    assert fam.member_set is not fam.member_set


def test_family_immutable_and_hashable():
    fam = DivisorFamily([P1])
    with pytest.raises(AttributeError):
        fam.members = ()
    assert fam == DivisorFamily([P1])
    assert hash(fam) == hash(DivisorFamily([P1]))
    assert fam != DivisorFamily([P2])


def test_squarefree_part():
    fam = DivisorFamily([(2, 0, 0), (1, 1, 0), (0, 1, 1), (2, 1, 1)])
    assert fam.squarefree_part() == (0b011, 0b110)


@st.composite
def lattice_families(draw):
    """Any family of divisors > 1 in a lattice of up to 4 primes, exponents <= 3."""
    sig = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4).map(Signature))
    divs = [d for d in lattice.enumerate_divisors(sig) if any(d)]
    return sig, DivisorFamily(draw(st.lists(st.sampled_from(divs), max_size=12)))


@given(lattice_families())
@settings(deadline=None, max_examples=200)
def test_squarefree_part_matches_max_exponent_filter(case):
    _, fam = case
    assert fam.squarefree_part() == tuple(sorted(
        lattice.radical(d) for d in fam.members if all(e <= 1 for e in d)))


@st.composite
def lattice_mask_sets(draw):
    """Any set of non-empty masks, the empty set too, in a lattice of up to
    4 primes, exponents <= 3."""
    sig = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4).map(Signature))
    return sig, draw(st.sets(st.integers(1, (1 << sig.n) - 1)))


@given(lattice_mask_sets())
@settings(deadline=None, max_examples=200)
def test_lift_matches_the_divisor_filter(case):
    sig, masks = case
    lifted = DivisorFamily.lift(sig, masks)
    referee = DivisorFamily(d for d in lattice.enumerate_divisors(sig)
                            if any(d) and lattice.radical(d) in masks)
    assert lifted.members == referee.members
    assert lifted.radical_set == referee.radical_set == tuple(sorted(masks))
    assert lifted.member_set == referee.member_set
    assert lifted == referee
    assert hash(lifted) == hash(referee)


def test_lift_refuses_masks_outside_the_lattice():
    sig = Signature((2, 1))
    assert DivisorFamily.lift(sig, [0b11]).members == ((1, 1), (2, 1))
    for bad in (0, 1 << sig.n):
        with pytest.raises(ValueError, match="not all non-empty subsets"):
            DivisorFamily.lift(sig, [0b01, bad])


def test_intersecting_check():
    assert families.check_intersecting(DivisorFamily([P1, P12])).is_intersecting
    rep = families.check_intersecting(DivisorFamily([P1, P2]))
    assert not rep.is_intersecting
    assert rep.coprime_witness == (P1, P2)
    assert families.check_intersecting(DivisorFamily([])).is_intersecting


def test_maximal_check_small():
    sig = Signature((1, 1))
    rep = families.check_maximal(DivisorFamily([P1, P12]), sig)
    assert rep.is_maximal
    rep = families.check_maximal(DivisorFamily([P12]), sig)
    assert rep.is_intersecting and not rep.is_maximal
    assert rep.extension_witness == P1


def test_maximal_check_420_prime_family():
    """All multiples of the first exponent-1 prime in the 420 lattice."""
    sig = Signature((2, 1, 1, 1))
    fam = DivisorFamily(
        d for d in lattice.enumerate_divisors(sig) if d[1] > 0
    )
    assert len(fam) == 12
    assert families.check_maximal(fam, sig).is_maximal


# p1^3 is not a divisor of p1^2; nor is the 2-prime p1 of the 1-prime lattice
NOT_DIVISORS = [
    (DivisorFamily([(1,), (3,)]), Signature((2,)), (3,)),
    (DivisorFamily([(1,), (2,)]), Signature((2, 1)), (1,)),
    (DivisorFamily([(1, 0), (1, 1)]), Signature((1,)), (1, 0)),
]


@pytest.mark.parametrize("fam, sig, member", NOT_DIVISORS)
def test_maximal_check_refuses_a_member_that_does_not_divide_n(fam, sig,
                                                                member):
    """Maximality compares the family's size with a weight sum, so a member
    outside the lattice must be refused before that count is trusted."""
    with pytest.raises(PreconditionError, match="does not divide") as exc:
        families.check_maximal(fam, sig)
    assert exc.value.witness == member
    assert str(member) in str(exc.value)


def test_empty_family_report():
    sig = Signature((2, 1))
    rep = families.check_maximal(DivisorFamily([]), sig)
    assert rep.is_intersecting and not rep.is_maximal
    assert rep.extension_witness == (1, 0)


def test_minimal_members():
    fam = DivisorFamily([(1, 0), (1, 1), (2, 0)])
    assert families.minimal_members(fam).members == ((1, 0),)
    antichain = DivisorFamily([(1, 1, 0), (0, 1, 1)])
    assert families.minimal_members(antichain) == antichain


def test_upward_closure_sizes():
    sig = Signature((2, 1, 1, 1))
    one_prime = families.upward_closure(
        DivisorFamily([(0, 1, 0, 0)]), sig)
    assert len(one_prime) == 12
    triple = families.upward_closure(DivisorFamily(
        [(0, 1, 1, 0), (0, 1, 0, 1), (0, 0, 1, 1)]), sig)
    assert len(triple) == 12
    top = (2, 1, 1, 1)
    assert families.upward_closure(DivisorFamily([top]), sig).members == (top,)


def test_upward_closure_validates_generators():
    with pytest.raises(ValueError):
        families.upward_closure(DivisorFamily([(3, 0)]), Signature((2, 1)))
    with pytest.raises(ValueError):
        families.upward_closure(DivisorFamily([(1,)]), Signature((2, 1)))


def test_upward_closure_refuses_a_negative_exponent():
    """A generator with a negative exponent would close to non-divisors."""
    with pytest.raises(ValueError, match=r"generator \(-1, 1\) does not divide"):
        families.upward_closure(DivisorFamily([(-1, 1)]), Signature((1, 1)))


# Not divisors of 2,1: exponents that are not ints, even one equal to an
# int, an exponent above its prime's or below 0, and a tuple one too long
OFF_LATTICE = [(1.5, 0), (1.0, 0), ("1", 0), (3, 0), (0, 0, 1), (-1, 1)]


@pytest.mark.parametrize("d", OFF_LATTICE, ids=repr)
def test_one_rule_says_what_divides_n(d):
    """`upward_closure` and `check_maximal` both refuse what
    `lattice.is_divisor` refuses, each naming the tuple."""
    sig = Signature((2, 1))
    assert not lattice.is_divisor(d, sig)
    with pytest.raises(ValueError) as exc:
        families.upward_closure(DivisorFamily([d]), sig)
    assert str(exc.value) == f"generator {d} does not divide the 2,1 lattice"
    with pytest.raises(PreconditionError, match="does not divide") as exc:
        families.check_maximal(DivisorFamily([d]), sig)
    assert exc.value.witness == d and str(d) in str(exc.value)


def test_both_checks_read_the_one_rule(monkeypatch):
    """With `lattice.is_divisor` refusing everything, a true divisor is
    refused by both checks."""
    monkeypatch.setattr(lattice, "is_divisor", lambda d, sig: False)
    sig, fam = Signature((2, 1)), DivisorFamily([(1, 0)])
    with pytest.raises(ValueError, match=r"generator \(1, 0\)"):
        families.upward_closure(fam, sig)
    with pytest.raises(PreconditionError, match=r"member \(1, 0\)"):
        families.check_maximal(fam, sig)


@st.composite
def antichain_families(draw):
    """A random divisibility antichain in a random small lattice."""
    sig = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4).map(Signature))
    divs = [d for d in lattice.enumerate_divisors(sig) if any(d)]
    pool = draw(st.lists(st.sampled_from(divs), min_size=1, max_size=5))
    keep = [d for d in pool
            if not any(e != d and lattice.divides(e, d) for e in pool)]
    return sig, DivisorFamily(keep)


@given(antichain_families())
@settings(deadline=None)
def test_upward_closure_idempotent_on_antichains(case):
    sig, antichain = case
    closed = families.upward_closure(antichain, sig)
    assert antichain.member_set <= closed.member_set
    assert families.minimal_members(closed) == antichain
    assert families.upward_closure(closed, sig) == closed


# All-pairs definitions of closure and minima: the reference against which
# the tuple-level referee in `families` is checked.

def closure_by_all_pairs(gens, sig):
    return DivisorFamily(
        d for d in lattice.enumerate_divisors(sig)
        if any(lattice.divides(t, d) for t in gens.members)
    )


def minima_by_all_pairs(fam):
    return DivisorFamily(
        d for d in fam.members
        if not any(e != d and lattice.divides(e, d) for e in fam.members)
    )


@given(lattice_families())
@settings(deadline=None, max_examples=200)
def test_upward_closure_matches_all_pairs(case):
    sig, gens = case
    assert families.upward_closure(gens, sig) == closure_by_all_pairs(gens, sig)


@given(lattice_families())
@settings(deadline=None, max_examples=200)
def test_minimal_members_matches_all_pairs(case):
    _, fam = case
    assert families.minimal_members(fam) == minima_by_all_pairs(fam)


def intersecting_by_all_pairs(fam):
    """Reference: the first member pair, in canonical order, with coprime
    radicals, or None."""
    for i, a in enumerate(fam.members):
        for b in fam.members[i + 1:]:
            if not lattice.radical(a) & lattice.radical(b):
                return a, b
    return None


@given(lattice_families())
@settings(deadline=None, max_examples=200)
def test_intersecting_check_matches_all_pairs(case):
    """Any family: the minimal radicals decide, the witness is the first pair."""
    sig, fam = case
    pair = intersecting_by_all_pairs(fam)
    for rep in (families.check_intersecting(fam),
                families.check_maximal(fam, sig)):
        assert rep.is_intersecting == (pair is None)
        assert rep.coprime_witness == pair


def compatible_by_all_radicals(fam, sig):
    """Reference: the non-empty masks meeting every radical of the family."""
    rads = {lattice.radical(d) for d in fam.members}
    return [m for m in range(1, 1 << sig.n) if all(m & r for r in rads)]


@given(lattice_families())
@settings(deadline=None, max_examples=200)
def test_compatible_masks_match_all_radicals(case):
    """Any family, intersecting or not: the minimal radicals suffice."""
    sig, fam = case
    mins = antichains.minimal_masks(fam.radical_set)
    assert families._meeting(mins, sig) == \
        compatible_by_all_radicals(fam, sig)


def test_referee_divides_call_counts(monkeypatch):
    calls = [0]
    divides = lattice.divides

    def counted(a, b):
        calls[0] += 1
        return divides(a, b)

    monkeypatch.setattr(lattice, "divides", counted)
    sig = Signature((1,) * 6)
    gens = DivisorFamily(lattice.mask_to_divisor(m, 6)
                         for m in (0b011, 0b101, 0b110))
    closed = families.upward_closure(gens, sig)
    assert len(closed) == 32 and calls[0] == 0
    assert families.minimal_members(closed) == gens
    # 0 + 1 + 2 among the generators, then each other member stops at the
    # first kept minimum below it: 15 above p1*p2, 7 more above p1*p3 and 7
    # above p2*p3 alone.  The all-pairs scan made 32 * 31 tests.
    assert calls[0] == 3 + 15 * 1 + 7 * 2 + 7 * 3


@given(st.integers(0, 8))
def test_family_rejects_divisor_one_of_any_length(n):
    one = (0,) * n
    with pytest.raises(ValueError, match="divisor 1"):
        DivisorFamily([one])
    if n:
        with pytest.raises(ValueError, match="divisor 1"):
            DivisorFamily([(1,) * n, one, (2,) + (0,) * (n - 1)])


@given(st.lists(st.lists(st.integers(0, 3), min_size=1, max_size=6)
                .map(tuple).filter(any), max_size=20))
@settings(deadline=None)
def test_family_orders_members_by_reversed_exponents(divisors):
    """Any tuples, of any lengths, in any order and with repeats."""
    fam = DivisorFamily(divisors)
    assert fam.members == tuple(sorted(set(divisors), key=lambda d: d[::-1]))
    assert fam.radical_set == tuple(sorted({lattice.radical(d)
                                            for d in fam.members}))
    assert fam.member_set == frozenset(divisors)
    assert fam.squarefree_part() == tuple(sorted(
        lattice.radical(d) for d in fam.members if max(d) <= 1))
    assert fam == DivisorFamily(reversed(divisors))
    assert hash(fam) == hash(DivisorFamily(reversed(divisors)))
