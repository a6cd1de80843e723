import pytest

from divint import antichains, extremal, families, lattice, oracle
from divint.errors import PreconditionError, ResourceLimitError
from divint.families import DivisorFamily
from divint.lattice import Signature


def closure_sizes(report, sig):
    return [len(families.upward_closure(g, sig)) for g in report.generators]


def test_420_report():
    sig = Signature((2, 1, 1, 1))
    rep = extremal.extremal_families(sig)
    assert rep.regime == "flat"
    assert rep.min_size == 12
    assert rep.h_count == 4
    gens = [g.members for g in rep.generators]
    assert gens == [
        ((0, 1, 0, 0),),
        ((0, 0, 1, 0),),
        ((0, 0, 0, 1),),
        ((0, 1, 1, 0), (0, 1, 0, 1), (0, 0, 1, 1)),
    ]
    assert closure_sizes(rep, sig) == [12, 12, 12, 12]


@pytest.mark.parametrize("sig", lattice.signature_grid(5, 3) + [
    Signature((1,) * 6), Signature((2, 1, 1, 1, 1, 1))], ids=str)
def test_minimum_families_are_the_generator_closures(sig):
    """The radical lift gives each generator's upward closure, in order."""
    gens = extremal.extremal_families(sig).generators
    assert extremal.minimum_families(sig) == [
        families.upward_closure(g, sig) for g in gens]


@pytest.mark.parametrize("sig", lattice.signature_grid(4, 3) + [
    Signature((1,) * 6)], ids=str)
def test_minimum_radical_sets_are_those_of_the_closures(sig):
    """The radical sets come sorted, one per generator and in its order."""
    sets = extremal.minimum_radical_sets(sig)
    assert all(list(rads) == sorted(set(rads)) for rads in sets)
    gens = extremal.extremal_families(sig).generators
    assert sets == [families.upward_closure(g, sig).radical_set
                    for g in gens]


def test_minimum_radical_sets_refuse_past_member_cap():
    sig = Signature((2,) * 6 + (1,) * 6)
    with pytest.raises(ResourceLimitError, match="families.MEMBER_CAP"):
        extremal.minimum_radical_sets(sig)


def test_minimum_families_refuses_past_member_cap(monkeypatch):
    """The member total comes from the closed forms, so a listing past
    MEMBER_CAP is refused before any radical set is lifted."""
    def boom(*args):
        raise AssertionError("a family was lifted before the cap check")

    monkeypatch.setattr(DivisorFamily, "lift", boom)
    sig = Signature((2,) * 6 + (1,) * 6)  # 2646 families of 23328
    with pytest.raises(ResourceLimitError,
                       match="is 61725888, above the cap of 300000 "
                             r"\(families.MEMBER_CAP"):
        extremal.minimum_families(sig)
    assert 2646 * 32 <= families.MEMBER_CAP  # the 1^6 listing still runs


def test_deep_regime_report():
    sig = Signature((3, 2, 2))
    rep = extremal.extremal_families(sig)
    assert rep.regime == "deep"
    assert rep.min_size == 2 * 4 * 3
    assert rep.h_count == 2
    assert [g.members for g in rep.generators] == [
        ((0, 1, 0),), ((0, 0, 1),),
    ]
    assert closure_sizes(rep, sig) == [24, 24]


def test_single_prime_power():
    rep = extremal.extremal_families(Signature((2,)))
    assert rep.regime == "deep"
    assert rep.h_count == 1
    assert rep.min_size == 2
    assert rep.generators[0].members == ((1,),)


def test_count_minimum_families():
    assert extremal.count_minimum_families(Signature((2, 1, 1, 1))) == 4
    assert extremal.count_minimum_families(Signature((1, 1, 1, 1))) == 12
    for n in (1, 2, 3, 4):
        # equal exponents >= 2: deep regime with u = 0
        assert extremal.count_minimum_families(Signature((2,) * n)) == n
    # flat count depends only on n - u
    assert extremal.count_minimum_families(Signature((5, 4, 1, 1, 1))) == \
        len(antichains.enumerate_antichains(3))


def test_flat_regime_product_law():
    for alphas in [(1, 1, 1), (2, 1, 1, 1), (3, 2, 1, 1), (2, 2, 2, 1)]:
        sig = Signature(alphas)
        assert sig.alphas[-1] == 1
        rep = extremal.extremal_families(sig)
        u = sig.u
        expected = 2 ** (sig.n - u - 1)
        for a in sig.alphas[:u]:
            expected *= a + 1
        assert all(s == expected for s in closure_sizes(rep, sig))


def test_flat_cap():
    with pytest.raises(ResourceLimitError):
        extremal.extremal_families(Signature((1,) * 7))


def test_classify_extremal_deep():
    sig = Signature((2, 2))
    fam = families.upward_closure(
        DivisorFamily([(1, 0)]), sig)
    verdict = extremal.classify(fam, sig)
    assert verdict.is_maximal and verdict.is_extremal
    assert verdict.matched == {"a", "b", "c"}


def test_classify_maximal_not_extremal():
    """Multiples of the large prime in (3,2): maximal but above minimum."""
    sig = Signature((3, 2))
    fam = families.upward_closure(
        DivisorFamily([(1, 0)]), sig)
    assert len(fam) == 9
    verdict = extremal.classify(fam, sig)
    assert verdict.is_maximal and not verdict.is_extremal
    assert verdict.matched == frozenset()
    assert verdict.failure_witness == "size-above-minimum"


def test_classify_refuses_a_member_that_does_not_divide_n():
    """{p1, p1^3} under N = p1^2 has the size of a minimum family, yet p1^3
    is no divisor of N: no characterization may match it."""
    with pytest.raises(PreconditionError, match=r"member \(3,\) does not"):
        extremal.classify(DivisorFamily([(1,), (3,)]), Signature((2,)))


def test_classify_flat():
    sig = Signature((1, 1))
    verdict = extremal.classify(DivisorFamily([(1, 0), (1, 1)]), sig)
    assert verdict.is_maximal and verdict.is_extremal
    assert verdict.matched == {"a", "b", "c"}


def test_classify_non_maximal():
    sig = Signature((1, 1))
    verdict = extremal.classify(DivisorFamily([(1, 1)]), sig)
    assert not verdict.is_maximal and not verdict.is_extremal
    assert verdict.matched == frozenset()
    assert verdict.failure_witness == (1, 0)


def test_classify_non_intersecting():
    sig = Signature((1, 1))
    verdict = extremal.classify(DivisorFamily([(1, 0), (0, 1)]), sig)
    assert not verdict.is_maximal
    assert verdict.failure_witness == ((1, 0), (0, 1))


def test_classify_builds_no_closures(monkeypatch):
    """Criterion (c) is a set lookup on radical masks: no closure per
    generator, no minimal-member scan and no tuple divisibility test."""
    cases = [
        (Signature((1,) * 5), 81),  # flat: every maximal family is minimum
        (Signature((3, 2, 2)), 2),  # deep: multiples of p2 or of p3
    ]
    census = {sig: oracle.enumerate_maximal_families(sig).families
              for sig, _ in cases}
    calls = {"closure": 0, "extremal": 0, "minimal": 0, "divides": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(families, "upward_closure",
                        counted("closure", families.upward_closure))
    monkeypatch.setattr(families, "minimal_members",
                        counted("minimal", families.minimal_members))
    monkeypatch.setattr(lattice, "divides",
                        counted("divides", lattice.divides))
    monkeypatch.setattr(extremal, "extremal_families",
                        counted("extremal", extremal.extremal_families))
    for sig, extremal_count in cases:
        calls["extremal"] = 0
        verdicts = [extremal.classify(f, sig) for f in census[sig]]
        assert all(v.is_maximal for v in verdicts)
        assert all(v.matched in ({"a", "b", "c"}, frozenset())
                   for v in verdicts)
        assert sum(v.is_extremal for v in verdicts) == extremal_count
        assert calls["extremal"] <= 1
    assert len(census[cases[0][0]]) == 81
    assert calls["closure"] == 0
    assert calls["minimal"] == 0
    assert calls["divides"] == 0


def test_minimal_members_are_the_minimal_radicals():
    """The law classify rests on: a maximal family's minimal members are
    squarefree, and their radicals are the minimal masks of its radical set."""
    for sig in lattice.signature_grid(4, 2):
        for fam in oracle.enumerate_maximal_families(sig).families:
            mins = families.minimal_members(fam)
            assert all(e <= 1 for d in mins for e in d)
            assert fam.radical_set == tuple(sorted(
                {lattice.radical(d) for d in fam}))
            assert antichains.minimal_masks(fam.radical_set) == \
                tuple(sorted(map(lattice.radical, mins)))


def test_count_lists_no_families(monkeypatch):
    """The flat-regime count comes from the Dedekind intervals: no family is
    built, so no generating antichain is taken and none is sorted."""
    calls = {"minimal": 0, "enumerate": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(antichains, "minimal_masks",
                        counted("minimal", antichains.minimal_masks))
    monkeypatch.setattr(antichains, "enumerate_families",
                        counted("enumerate", antichains.enumerate_families))
    antichains._families_cached.cache_clear()
    assert extremal.count_minimum_families(Signature([1] * 6)) == 2646
    assert calls == {"minimal": 0, "enumerate": 0}
