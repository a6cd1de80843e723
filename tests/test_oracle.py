"""Tests for the exhaustive maximal-family census."""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from divint import antichains, extremal, lattice, oracle
from divint.errors import ResourceLimitError
from divint.families import check_intersecting, check_maximal
from divint.lattice import Signature, min_size_bound
from divint.oracle import enumerate_maximal_families


def test_single_prime_cube():
    rep = enumerate_maximal_families(Signature((3,)))
    assert rep.total_maximal == 1
    assert rep.sizes == (3,)
    assert rep.min_size == 3
    assert rep.min_count == 1
    assert rep.families[0].members == ((1,), (2,), (3,))


def test_two_squarefree_primes():
    rep = enumerate_maximal_families(Signature((1, 1)))
    assert rep.total_maximal == 2
    assert rep.sizes == (2, 2)
    members = [f.members for f in rep.families]
    assert ((1, 0), (1, 1)) in members
    assert ((0, 1), (1, 1)) in members


def test_square_times_prime():
    """Signature (2,1): the two maximal families have sizes 4 and 3."""
    rep = enumerate_maximal_families(Signature((2, 1)))
    assert rep.total_maximal == 2
    assert rep.sizes == (3, 4)
    assert rep.min_size == 3
    assert rep.min_count == 1
    # families are sorted by their canonical member lists, so the
    # multiples of the first prime come first
    assert rep.families[0].members == ((1, 0), (2, 0), (1, 1), (2, 1))
    assert rep.families[1].members == ((0, 1), (1, 1), (2, 1))


def test_two_square_primes():
    rep = enumerate_maximal_families(Signature((2, 2)))
    assert rep.sizes == (6, 6)
    assert rep.min_size == 6
    assert rep.min_count == 2


def test_three_squarefree_primes():
    rep = enumerate_maximal_families(Signature((1, 1, 1)))
    assert rep.total_maximal == 4
    assert rep.sizes == (4, 4, 4, 4)
    assert (rep.min_size, rep.min_count) == (4, 4)


def test_four_squarefree_primes():
    rep = enumerate_maximal_families(Signature((1, 1, 1, 1)))
    assert rep.total_maximal == 12
    assert set(rep.sizes) == {8}
    assert (rep.min_size, rep.min_count) == (8, 12)


def test_census_420():
    rep = enumerate_maximal_families(Signature((2, 1, 1, 1)))
    assert rep.total_maximal == 12
    assert rep.sizes == (12, 12, 12, 12, 13, 13, 13, 14, 14, 14, 15, 16)
    assert rep.min_size == 12
    assert rep.min_count == 4


@pytest.mark.parametrize("alphas", [
    (1, 1), (2, 1), (3,), (2, 2), (1, 1, 1), (2, 1, 1), (3, 2),
    (2, 1, 1, 1), (1, 1, 1, 1), (2, 1, 1, 1, 1), (1, 1, 1, 1, 1), (2, 2, 1, 1),
    (3, 3, 3, 3),  # 255 vertices, 12 families
])
def test_methods_agree(alphas):
    sig = Signature(alphas)
    lift = enumerate_maximal_families(sig, "radical-lift")
    direct = enumerate_maximal_families(sig, "direct-clique")
    assert lift.total_maximal == direct.total_maximal
    assert lift.sizes == direct.sizes
    assert lift.min_size == direct.min_size
    assert lift.min_count == direct.min_count
    assert [f.members for f in lift.families] == \
        [f.members for f in direct.families]


def test_methods_agree_at_the_largest_n6_signature_within_divisor_cap():
    """2,2,2,2,2,1 has 485 divisors > 1, the most of any n = 6 signature
    within DIRECT_DIVISOR_CAP; every family is compared."""
    sig = Signature((2, 2, 2, 2, 2, 1))
    assert sig.divisor_count() - 1 == 485 <= oracle.DIRECT_DIVISOR_CAP
    lift = enumerate_maximal_families(sig, "radical-lift",
                                      materialize_cap=10**6)
    direct = enumerate_maximal_families(sig, "direct-clique",
                                        materialize_cap=10**6)
    assert lift.total_maximal == direct.total_maximal == 2646
    assert lift.sizes == direct.sizes
    assert [f.members for f in lift.families] == \
        [f.members for f in direct.families]


@pytest.mark.parametrize("alphas", [
    (2, 1), (2, 2), (1, 1, 1), (3, 2, 1), (2, 1, 1, 1),
])
def test_every_reported_family_is_maximal(alphas):
    sig = Signature(alphas)
    rep = enumerate_maximal_families(sig)
    assert rep.families is not None
    for fam in rep.families:
        assert check_intersecting(fam).is_intersecting
        verdict = check_maximal(fam, sig)
        assert verdict.is_maximal, fam.members


@pytest.mark.parametrize("alphas", [
    (1,), (4,), (1, 1), (3, 1), (2, 2), (2, 2, 1), (1, 1, 1, 1, 1),
])
def test_minimum_matches_closed_form(alphas):
    sig = Signature(alphas)
    rep = enumerate_maximal_families(sig)
    assert rep.min_size == min_size_bound(sig)
    assert rep.min_count >= 1


def test_radical_lift_prime_cap():
    with pytest.raises(ResourceLimitError, match="antichains.LIST_CAP"):
        enumerate_maximal_families(Signature((1,) * 7))


def _clear_walk_caches():
    for fn in vars(antichains).values():
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()


def test_census_lists_no_mask_family(monkeypatch):
    """Without a listing, each family's size is read off its intersecting
    upset, so `antichains.enumerate_families` is never called; and the
    generating antichains are read off each family's int, so no family is
    listed mask by mask."""
    calls = []
    real = antichains.enumerate_families
    monkeypatch.setattr(antichains, "enumerate_families",
                        lambda k: calls.append(k) or real(k))
    _clear_walk_caches()
    rep = enumerate_maximal_families(Signature((2, 1, 1, 1, 1, 1)),
                                     materialize_cap=0)
    assert (rep.total_maximal, rep.families) == (2646, None)
    assert calls == []

    built = []
    set_bits = lattice.set_bits
    monkeypatch.setattr(lattice, "set_bits",
                        lambda x: built.append(set_bits(x)) or built[-1])
    _clear_walk_caches()
    chains = antichains.enumerate_antichains(6)
    monkeypatch.undo()
    assert len(chains) == 2646 and set(chains) <= set(built)
    assert not set(built) & set(antichains.enumerate_families(6))


@pytest.mark.parametrize("sig", lattice.signature_grid(6, 3), ids=str)
def test_census_sizes_are_those_of_the_listed_families(sig):
    census = enumerate_maximal_families(sig, materialize_cap=0)
    listed = enumerate_maximal_families(sig, materialize_cap=10 ** 9)
    assert census.families is None
    assert census.sizes == tuple(sorted(map(len, listed.families)))
    assert census == listed._replace(families=None)


def test_census_on_seven_primes():
    """A001206(7) maximal families; the least size is the closed form
    3 * 3 * 3 * 2^4 = 288, attained as often as `count_minimum_families`
    says: by the 12 maximal intersecting families on the four primes of
    exponent 1."""
    sig = Signature((3, 2, 2, 1, 1, 1, 1))
    rep = enumerate_maximal_families(sig, materialize_cap=0)
    assert (rep.total_maximal, rep.min_size, rep.min_count) == \
        (1422564, 288, 12)
    assert rep.min_size == min_size_bound(sig)
    assert rep.min_count == extremal.count_minimum_families(sig)
    assert len(rep.sizes) == 1422564 and rep.families is None


def test_direct_clique_divisor_cap(monkeypatch):
    monkeypatch.setattr(oracle, "DIRECT_DIVISOR_CAP", 10)
    with pytest.raises(ResourceLimitError,
                       match=r"is 23, above the cap of 10 "
                             r"\(oracle\.DIRECT_DIVISOR_CAP, a fixed"):
        enumerate_maximal_families(Signature((2, 1, 1, 1)), "direct-clique")


def test_direct_clique_refuses_before_building_the_lattice(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("lattice built before the divisor cap check")

    monkeypatch.setattr(lattice, "enumerate_divisors", boom)
    monkeypatch.setattr(oracle, "DIRECT_DIVISOR_CAP", 10)
    with pytest.raises(ResourceLimitError, match="DIRECT_DIVISOR_CAP"):
        enumerate_maximal_families(Signature((2, 1, 1, 1)), "direct-clique")


def _brute_force_cliques(rads):
    """Every maximal clique, by testing all vertex subsets."""
    n = len(rads)

    def meets_all(v, mask):
        return all(rads[v] & rads[w] for w in lattice.iter_bits(mask) if w != v)

    return sorted(
        mask for mask in range(1, 1 << n)
        if all(meets_all(v, mask) for v in lattice.iter_bits(mask))
        and not any(meets_all(v, mask) for v in range(n) if not mask >> v & 1)
    )


@st.composite
def graph_radicals(draw):
    """Radicals realising any graph: vertex i owns prime i, and each edge
    adds one more prime shared by its two ends."""
    n = draw(st.integers(1, 9))
    rads = [1 << v for v in range(n)]
    prime = n
    for v in range(n):
        for w in range(v + 1, n):
            if draw(st.booleans()):
                rads[v] |= 1 << prime
                rads[w] |= 1 << prime
            prime += 1
    return rads


@given(graph_radicals())
@settings(deadline=None)
def test_maximal_cliques_match_brute_force(rads):
    assert sorted(oracle.maximal_cliques(rads)) == _brute_force_cliques(rads)


def test_maximal_cliques_of_no_vertices_is_empty():
    assert oracle.maximal_cliques([]) == []


def test_maximal_cliques_needs_no_recursion_limit():
    limit = sys.getrecursionlimit()
    n = 1100  # one clique deeper than the default recursion limit
    assert oracle.maximal_cliques([1] * n) == [(1 << n) - 1]
    assert sys.getrecursionlimit() == limit


def test_unknown_method():
    with pytest.raises(ValueError, match="unknown method"):
        enumerate_maximal_families(Signature((1, 1)), "guess")


def test_materialize_cap_drops_families_not_counts():
    rep = enumerate_maximal_families(Signature((2, 1)), materialize_cap=5)
    assert rep.families is None
    assert rep.sizes == (3, 4)
    assert rep.min_size == 3
    assert rep.min_count == 1
    assert rep.total_maximal == 2


def test_direct_materialize_cap():
    rep = enumerate_maximal_families(
        Signature((2, 1)), "direct-clique", materialize_cap=5)
    assert rep.families is None
    assert rep.sizes == (3, 4)


def test_sizes_are_ascending():
    for alphas in [(2, 1, 1, 1), (3, 2, 1), (1, 1, 1, 1)]:
        rep = enumerate_maximal_families(Signature(alphas))
        assert list(rep.sizes) == sorted(rep.sizes)


def test_radical_lift_order_needs_no_member_sort(monkeypatch):
    """Lifting in the order of the sorted radical sets gives the canonical
    family order, with no call to `family_sort_key`."""
    real = oracle.family_sort_key
    calls = []
    monkeypatch.setattr(oracle, "family_sort_key",
                        lambda fam: calls.append(fam) or real(fam))
    for sig in lattice.signature_grid(4, 3) + [Signature((1,) * 6)]:
        fams = list(enumerate_maximal_families(
            sig, materialize_cap=10 ** 6).families)
        assert calls == []
        assert fams == sorted(fams, key=real), sig


def test_direct_clique_sorts_nothing_above_materialize_cap(monkeypatch):
    calls = []
    real = oracle.family_sort_key

    def counted(fam):
        calls.append(fam)
        return real(fam)

    monkeypatch.setattr(oracle, "family_sort_key", counted)
    sig = Signature((1, 1, 1, 1))
    rep = enumerate_maximal_families(sig, "direct-clique", materialize_cap=95)
    assert rep.families is None
    assert rep.total_maximal == 12 and rep.sizes == (8,) * 12
    assert calls == []
    rep = enumerate_maximal_families(sig, "direct-clique", materialize_cap=96)
    assert len(rep.families) == 12
    assert len(calls) == 12
