import itertools

import pytest
from hypothesis import given, settings, strategies as st

from divint import antichains
from divint.errors import ResourceLimitError

# family counts for k = 1..6; equivalently the number of self-dual monotone
# boolean functions of k variables
COUNTS = {1: 1, 2: 2, 3: 4, 4: 12, 5: 81, 6: 2646}


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
    for k in (1, 2, 3, 4):
        assert antichains.enumerate_families(k) == antichains.reference_families(k)


def test_cap_and_bad_k():
    with pytest.raises(ValueError):
        antichains.enumerate_families(0)
    with pytest.raises(ResourceLimitError):
        antichains.enumerate_families(7)
    # the error names the override
    with pytest.raises(ResourceLimitError, match="k_cap"):
        antichains.enumerate_families(7)
    assert len(antichains.enumerate_families(2, k_cap=2)) == 2


def test_bijection_with_closures():
    for k in (2, 3, 4):
        fams = antichains.enumerate_families(k)
        chains = antichains.enumerate_antichains(k)
        assert len(fams) == len(chains)
        for fam, ac in zip(fams, chains):
            assert antichains.minimal_masks(fam) == ac
            assert antichains.mask_closure(ac, k) == fam


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
                    found.add(antichains.mask_closure(combo, k))
        assert found == set(antichains.enumerate_families(k))
