import itertools

import pytest
from hypothesis import given, settings, strategies as st

from divint import antichains, lattice
from divint.errors import ResourceLimitError

# family counts for k = 1..6; equivalently the number of self-dual monotone
# boolean functions of k variables
COUNTS = {1: 1, 2: 2, 3: 4, 4: 12, 5: 81, 6: 2646}
# OEIS A001206 at k = 7, past LIST_CAP
COUNT_7 = 1422564
# upsets on [k] for k = 0..5, both constants included (OEIS A000372)
DEDEKIND = (2, 3, 6, 20, 168, 7581)


def mask_closure(antichain, k):
    """Upward closure within the non-empty subsets of [k], ascending."""
    return tuple(sorted(
        m for m in range(1, 1 << k)
        if any(m & t == t for t in antichain)
    ))


def reference_families(k):
    """Slow independent enumeration: literal filter over all choice vectors.

    Exponential in 2^k; used only to validate the Dedekind walk on small k.
    """
    full = (1 << k) - 1
    reps = [s for s in range(1, full) if s < (full ^ s)]
    out = []
    for bits in itertools.product((0, 1), repeat=len(reps)):
        chosen = [full] + [s if b == 0 else full ^ s for s, b in zip(reps, bits)]
        if all(a & b for a, b in itertools.combinations(chosen, 2)):
            out.append(tuple(sorted(chosen)))
    out.sort(key=antichains.antichain_key)
    return tuple(out)


def test_counts_small():
    for k in range(1, 6):
        assert len(antichains.enumerate_families(k)) == COUNTS[k]


def test_k3_antichains_exactly():
    assert antichains.enumerate_antichains(3) == (
        (1,), (2,), (4,), (3, 5, 6),
    )


def test_k2_families_exactly():
    assert antichains.enumerate_families(2) == ((1, 3), (2, 3))


def test_k1():
    assert antichains.enumerate_families(1) == ((1,),)
    assert antichains.enumerate_antichains(1) == ((1,),)


def test_family_structure():
    for k in (1, 2, 3, 4):
        full = (1 << k) - 1
        for fam in antichains.enumerate_families(k):
            assert len(fam) == 2 ** (k - 1)
            assert full in fam
            assert 0 not in fam
            members = set(fam)
            # exactly one of each complement pair
            for s in range(1 << k):
                assert (s in members) != ((full ^ s) in members)
            # upward closed
            for s in fam:
                for q in range(s, full + 1):
                    if q & s == s:
                        assert q in members


def test_matches_reference_enumeration():
    for k in (1, 2, 3, 4, 5):
        assert antichains.enumerate_families(k) == reference_families(k)


def test_cap_and_bad_k():
    with pytest.raises(ValueError):
        antichains.enumerate_families(0)
    with pytest.raises(ResourceLimitError):
        antichains.enumerate_families(7)
    # the error names the walk's own fixed cap
    with pytest.raises(ResourceLimitError, match="antichains.LIST_CAP"):
        antichains.enumerate_families(7)
    assert len(antichains.enumerate_families(2)) == 2


def test_bijection_with_closures():
    for k in (2, 3, 4):
        fams = antichains.enumerate_families(k)
        chains = antichains.enumerate_antichains(k)
        assert len(fams) == len(chains)
        for fam, ac in zip(fams, chains):
            assert antichains.minimal_masks(fam) == ac
            assert mask_closure(ac, k) == fam


def test_antichain_conditions():
    ok, tag = antichains.antichain_conditions((0b011, 0b101, 0b110), 3)
    assert ok and tag is None
    ok, tag = antichains.antichain_conditions((0b11,), 2)
    assert not ok and tag == "c"
    ok, tag = antichains.antichain_conditions((0b001, 0b011), 3)
    assert not ok and tag == "b"
    ok, tag = antichains.antichain_conditions((0b001, 0b010), 2)
    assert not ok and tag == "a"
    with pytest.raises(ValueError):
        antichains.antichain_conditions((0,), 2)
    with pytest.raises(ValueError):
        antichains.antichain_conditions((0b100,), 2)


def test_all_enumerated_antichains_satisfy_conditions():
    for k in (1, 2, 3, 4, 5):
        for ac in antichains.enumerate_antichains(k):
            ok, tag = antichains.antichain_conditions(ac, k)
            assert ok, (k, ac, tag)


@given(st.integers(2, 4), st.data())
@settings(deadline=None)
def test_permutation_equivariance(k, data):
    """Relabeling ground elements maps the antichain set onto itself."""
    perm = data.draw(st.permutations(range(k)))

    def relabel(mask):
        out = 0
        for i in range(k):
            if mask >> i & 1:
                out |= 1 << perm[i]
        return out

    original = {frozenset(ac) for ac in antichains.enumerate_antichains(k)}
    mapped = {
        frozenset(relabel(m) for m in ac)
        for ac in antichains.enumerate_antichains(k)
    }
    assert original == mapped


def test_dfs_against_brute_force_closures():
    """Independent cross-check: families as upward closures of all viable
    antichains found by literal condition filtering."""
    for k in (2, 3, 4):
        masks = list(range(1, 1 << k))
        found = set()
        for r in range(1, 2 ** (k - 1) + 1):
            for combo in itertools.combinations(masks, r):
                ok, _ = antichains.antichain_conditions(combo, k)
                if ok:
                    found.add(mask_closure(combo, k))
        assert found == set(antichains.enumerate_families(k))


def test_upsets_are_the_dedekind_numbers():
    for k, count in enumerate(DEDEKIND):
        ups = antichains.upsets(k)
        assert len(ups) == len(set(ups)) == count
        for bits in ups:
            members = [m for m in range(1 << k) if bits >> m & 1]
            assert all(bits >> (m | 1 << i) & 1
                       for m in members for i in range(k))


def test_count_families_is_a001206():
    for k, count in COUNTS.items():
        assert antichains.count_families(k) == count
    assert antichains.count_families(7) == COUNT_7


def test_count_families_caps_and_bad_k():
    with pytest.raises(ResourceLimitError, match="antichains.COUNT_CAP"):
        antichains.count_families(8)
    with pytest.raises(ValueError):
        antichains.count_families(0)


def test_count_walk_has_its_own_cap():
    """Past COUNT_CAP the walk is refused."""
    with pytest.raises(ResourceLimitError, match="antichains.COUNT_CAP"):
        antichains.count_families(antichains.COUNT_CAP + 1)


def test_listing_walk_has_its_own_cap():
    """Past LIST_CAP the listing walks are refused; the count walk still
    answers there."""
    k = antichains.LIST_CAP + 1
    for walk in (antichains.enumerate_families,
                 antichains.enumerate_antichains):
        with pytest.raises(ResourceLimitError, match="antichains.LIST_CAP"):
            walk(k)
    assert antichains.count_families(k) == COUNT_7


@pytest.mark.parametrize("k", range(1, 7))
def test_intersecting_upsets_are_the_families_without_the_last_element(k):
    half = 1 << (k - 1)
    lows = [sum(1 << m for m in fam if m < half)
            for fam in antichains.enumerate_families(k)]
    assert sorted(antichains.intersecting_upsets(k)) == sorted(lows)


def test_intersecting_upset_walk_meets_each_family_on_seven_primes():
    """A001206(7), one upset at a time; past COUNT_CAP the walk is refused
    when it is asked for, before it starts."""
    assert sum(1 for _ in antichains.intersecting_upsets(7)) == COUNT_7
    with pytest.raises(ResourceLimitError, match="antichains.COUNT_CAP"):
        antichains.intersecting_upsets(8)


def test_each_antichain_is_taken_once(monkeypatch):
    """The listing walk reads every family and its antichain off one bitset
    and calls `minimal_masks` for none of them; each of the 2646 antichains
    on [6] is still that of its family."""
    calls = [0]
    minimal_masks = antichains.minimal_masks

    def counted(family):
        calls[0] += 1
        return minimal_masks(family)

    monkeypatch.setattr(antichains, "minimal_masks", counted)
    antichains._families_cached.cache_clear()
    fams = antichains.enumerate_families(6)
    chains = antichains.enumerate_antichains(6)
    assert calls[0] == 0
    assert len(fams) == len(chains) == 2646
    assert chains == tuple(map(minimal_masks, fams))


def _families_by_comprehension(k):
    """Reference: each family listed mask by mask from G, its members without
    element k-1, then its antichain taken by `minimal_masks`, then sorted."""
    half, full = 1 << (k - 1), (1 << k) - 1
    ups = antichains.upsets(max(k - 2, 0))
    gs = [0] if k == 1 else [f0 | ups[i] << (half >> 1)
                             for f0, choices in antichains._intervals(ups, k - 2)
                             for i in lattice.iter_bits(choices)]
    out = [tuple(m for m in range(1, full + 1)
                 if (g >> m if m < half else ~g >> (full ^ m)) & 1)
           for g in gs]
    keyed = sorted((len(mins), mins, f)
                   for f in out for mins in [antichains.minimal_masks(f)])
    return tuple(f for _, _, f in keyed), tuple(mins for _, mins, _ in keyed)


@pytest.mark.parametrize("k", range(1, 7))
def test_bitset_walk_matches_the_comprehension(k):
    """k = 1 and 2 reach the one-bit and two-bit reflections of G."""
    antichains._families_cached.cache_clear()
    assert antichains._families_cached(k) == _families_by_comprehension(k)


def _all_pairs_minimal_masks(family):
    """Reference: members with no proper subset in the family, ascending."""
    return tuple(sorted(
        m for m in family
        if not any(x != m and x & m == x for x in family)
    ))


@given(st.lists(st.integers(0, 63), unique=True, max_size=24))
@settings(deadline=None)
def test_minimal_masks_match_all_pairs_definition(masks):
    """Any distinct masks, upward closed or not, in any order."""
    assert antichains.minimal_masks(tuple(masks)) == \
        _all_pairs_minimal_masks(masks)
