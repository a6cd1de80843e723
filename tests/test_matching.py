import hashlib
import io
import itertools
import json
import os
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from divint import cli, extremal, families, lattice, matching, verify
from divint.errors import (PreconditionError, ResourceLimitError,
                           TheoremViolationError)
from divint.families import DivisorFamily
from divint.lattice import Signature
from divint.matching import UpwardClosedFamily


def test_two_member_family():
    fam = UpwardClosedFamily(0b11, (0b01, 0b11))
    witness = matching.complement_permutation(fam)
    assert witness.verify(fam)
    # position p1 needs a source with empty complement, so sigma swaps
    assert witness.sigma == (1, 0)


def test_singleton_top():
    fam = UpwardClosedFamily(0b111, (0b111,))
    witness = matching.complement_permutation(fam)
    assert witness.sigma == (0,)
    assert witness.verify(fam)


def test_pair_layer_family():
    fam = UpwardClosedFamily(0b111, (0b011, 0b101, 0b110, 0b111))
    witness = matching.complement_permutation(fam)
    assert witness.verify(fam)
    assert sorted(witness.sigma) == [0, 1, 2, 3]


def test_empty_family():
    witness = matching.complement_permutation(UpwardClosedFamily(0b11, ()))
    assert witness.sigma == ()


def test_members_outside_ground_rejected():
    with pytest.raises(ValueError):
        UpwardClosedFamily(0b011, (0b100,))


def test_upward_closed_family_sorts_and_dedupes_its_members():
    fam = UpwardClosedFamily(0b111, (0b111, 0b011, 0b011, 0b101))
    assert fam.members == (0b011, 0b101, 0b111)
    same = UpwardClosedFamily(0b111, (0b101, 0b111, 0b011))
    assert fam == same and hash(fam) == hash(same)
    assert fam != UpwardClosedFamily(0b1111, (0b011, 0b101, 0b111))
    assert fam != (0b111, (0b011, 0b101, 0b111))


def test_upward_closed_family_is_immutable_and_keeps_its_repr():
    fam = UpwardClosedFamily(0b111, (0b111, 0b011))
    for name in ("ground", "members", "other"):
        with pytest.raises(AttributeError):
            setattr(fam, name, ())
    with pytest.raises(AttributeError):
        del fam.members
    assert repr(fam) == "UpwardClosedFamily(ground=7, members=(3, 7))"


def test_not_upward_closed_rejected():
    with pytest.raises(PreconditionError) as exc:
        matching.complement_permutation(UpwardClosedFamily(0b111, (0b001,)))
    d, q = exc.value.witness
    assert d == 0b001 and q & d == d and q != d


def test_witness_verify_rejects_tampering():
    fam = UpwardClosedFamily(0b11, (0b01, 0b11))
    witness = matching.complement_permutation(fam)
    bad = matching.PermutationWitness((0, 1))
    assert not bad.verify(fam)


def test_witness_verify_rejects_a_non_permutation():
    """A sigma that repeats a position is refused before any subset test,
    though here every complement it names lies below its member."""
    fam = UpwardClosedFamily(0b11, (0b01, 0b11))
    assert not matching.PermutationWitness((0, 0)).verify(fam)


@pytest.mark.parametrize("k", [0, -1])
def test_upward_closed_families_refuse_an_empty_ground(k):
    """k < 1 is refused as antichains.enumerate_families refuses it, not
    answered with no families or a shift error."""
    with pytest.raises(ValueError,
                       match="ground set must have at least one element"):
        matching.all_upward_closed_families(k)


def test_upward_closed_families_refuse_a_ground_past_their_cap():
    with pytest.raises(ResourceLimitError) as exc:
        matching.all_upward_closed_families(6)
    assert str(exc.value) == (
        "the ground size k is 6, above the cap of 5 "
        "(matching.GROUND_CAP, a fixed constant)")


def _brute_force_upward_closed(k):
    """Referee: upward closures of every antichain of non-empty masks, in
    order of antichain size, then of the sorted antichain."""
    full = (1 << k) - 1
    masks = list(range(1, full + 1))
    out = []
    for r in range(1, len(masks) + 1):
        for combo in itertools.combinations(masks, r):
            if any(a != b and a & b == a for a in combo for b in combo):
                continue  # not an antichain
            closure = tuple(sorted(
                m for m in masks if any(m & t == t for t in combo)
            ))
            out.append(UpwardClosedFamily(full, closure))
    return out


def test_upward_closed_families_match_brute_force_order():
    for k in (1, 2, 3, 4):
        assert (matching.all_upward_closed_families(k)
                == _brute_force_upward_closed(k))


def test_all_upward_closed_family_counts():
    # OEIS A000372 (Dedekind numbers) minus the empty and the full family
    expected = {1: 1, 2: 4, 3: 18, 4: 166, 5: 7579}
    for k, count in expected.items():
        fams = matching.all_upward_closed_families(k)
        assert len(fams) == count
        assert len(set(fams)) == count
        for fam in fams:
            members = set(fam.members)
            assert members, "constants are excluded"
            for m in fam.members:
                for b in range(k):
                    q = m | (1 << b)
                    assert q in members


def test_every_small_family_has_certified_matching():
    for k in (1, 2, 3, 4):
        for fam in matching.all_upward_closed_families(k):
            witness = matching.complement_permutation(fam)
            assert witness.verify(fam)


@given(st.integers(1, 4), st.data())
@settings(deadline=None, max_examples=40)
def test_random_upward_closures_certified(k, data):
    full = (1 << k) - 1
    gens = data.draw(st.lists(st.integers(1, full), min_size=1, max_size=3))
    members = tuple(sorted(
        m for m in range(1, full + 1)
        if any(m & g == g for g in gens)
    ))
    fam = UpwardClosedFamily(full, members)
    witness = matching.complement_permutation(fam)
    assert witness.verify(fam)


def _sigma_by_lists(family):
    """Referee: the list-based matcher, with each complement taken per pair."""
    members = family.members
    s = len(members)
    adj = [
        [i for i in range(s) if (family.ground ^ members[i]) & ~members[j] == 0]
        for j in range(s)
    ]
    match_left = [-1] * s
    match_right = [-1] * s

    def augment(j, seen):
        for i in adj[j]:
            if not seen[i]:
                seen[i] = True
                if match_right[i] == -1 or augment(match_right[i], seen):
                    match_left[j] = i
                    match_right[i] = j
                    return True
        return False

    for j in range(s):
        augment(j, [False] * s)
    return tuple(match_left)


def test_sigma_matches_the_list_based_matcher():
    fams = matching.all_upward_closed_families(5)
    assert len(fams) == 7579
    for fam in fams:
        assert matching.complement_permutation(fam).sigma == \
            _sigma_by_lists(fam)


def test_sigma_matches_the_list_based_matcher_on_minimum_families():
    """The squarefree parts that `matching --sig 1,1,1,1,1,1` pairs: each
    radical set less the masks holding the last prime, on the first five."""
    sig = Signature((1,) * 6)
    parts = [UpwardClosedFamily(0b11111, [m for m in rads if m < 0b100000])
             for rads in extremal.minimum_radical_sets(sig)]
    assert len(parts) == 2646
    for fam in parts:
        assert matching.complement_permutation(fam).sigma == \
            _sigma_by_lists(fam)


def test_sigma_matches_the_list_based_matcher_on_two_free_primes():
    """The squarefree parts that `matching --sig 2,2,1,1,1,1` pairs: with
    u = 2 each radical set is a family on the last four primes, each mask
    joined with every mask of the first two."""
    sig = Signature((2, 2, 1, 1, 1, 1))
    parts = [UpwardClosedFamily(0b11111, [m for m in rads if m < 0b100000])
             for rads in extremal.minimum_radical_sets(sig)]
    assert len(parts) == 12
    for fam in parts:
        assert matching.complement_permutation(fam).sigma == \
            _sigma_by_lists(fam)


def test_sig_pairings_build_no_upward_closed_family(monkeypatch, capsys,
                                                    tmp_path):
    """matching --sig pairs each radical set on its bitset: the 2646
    families of 1^6 build no UpwardClosedFamily (one each when every
    pairing went through complement_permutation)."""
    inits = 0
    init = UpwardClosedFamily.__init__

    def counted_init(self, ground, members):
        nonlocal inits
        inits += 1
        init(self, ground, members)

    monkeypatch.setattr(UpwardClosedFamily, "__init__", counted_init)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["matching", "--sig", "1,1,1,1,1,1"]) == 0
    assert "all 2646 minimum-size families" in capsys.readouterr().out
    assert inits == 0


def test_weight_pairing_names_the_missing_cover():
    """A radical set whose part without the last prime is not upward
    closed is refused with the witness that complement_permutation gives
    that part: 0b01 is in, its cover 0b11 is not."""
    sig = Signature((1, 1, 1))
    with pytest.raises(PreconditionError) as exc:
        matching._weight_pairing((0b001, 0b010, 0b111), sig, {})
    assert exc.value.witness == (0b01, 0b11)
    with pytest.raises(PreconditionError) as part:
        matching.complement_permutation(UpwardClosedFamily(0b11, (1, 2)))
    assert part.value.witness == exc.value.witness
    assert str(part.value) == str(exc.value)


def test_pairing_entries_are_built_once_per_signature():
    """The 2646 pairings of 1^6, given one dict of built entries, share one
    entry object per distinct (position, source), the one the dict holds,
    and each one's weight equality is checked where it is built."""
    sig = Signature((1,) * 6)
    built = {}
    entries = [e for rads in extremal.minimum_radical_sets(sig)
               for e in matching._weight_pairing(rads, sig, built).entries]
    pairs = {(e.position, e.source) for e in entries}
    assert len({id(e) for e in entries}) == len(pairs) < len(entries)
    assert set(built) == pairs
    assert all(built[e.position, e.source] is e for e in entries)
    with pytest.raises(TheoremViolationError) as exc:
        # p1 against the complement of p1 on 2,1,1: weights 2 and 1
        matching._pairing_entry(0b001, 0b001, Signature((2, 1, 1)))
    assert exc.value.counterexample == {
        "signature": [2, 1, 1], "position": 0b001, "source": 0b001,
        "alpha_position": 2, "alpha_bar_source": 1,
    }


def test_supersets_table():
    """The supersets of x within the ground, as `_certified_sigma` takes
    them: the subsets of the rest of the ground, shifted up by x."""
    for ground in (0, 0b1, 0b101, 0b1111, 0b10110):
        for x in range(ground + 1):
            if x & ~ground:
                continue
            want = sum(1 << y for y in range(ground + 1)
                       if x & y == x and not y & ~ground)
            assert lattice.subsets(ground ^ x) << x == want


def test_sig_pairings_lift_no_family(monkeypatch, tmp_path):
    """matching --sig pairs the radical sets of the 2646 minimum families of
    1^6 without lifting any of them, builds no generator family, and prints
    the golden bytes."""
    golden = json.loads((Path(__file__).resolve().parents[1] / "divbench"
                         / "golden.json").read_text())
    argv = ["matching", "--sig", "1,1,1,1,1,1", "--format", "json"]
    lifts = inits = 0
    lift = DivisorFamily.lift
    init = DivisorFamily.__init__

    def counted(cls, sig, masks):
        nonlocal lifts
        lifts += 1
        return lift(sig, masks)

    def counted_init(self, divisors):
        nonlocal inits
        inits += 1
        init(self, divisors)

    monkeypatch.setattr(DivisorFamily, "lift", classmethod(counted))
    monkeypatch.setattr(DivisorFamily, "__init__", counted_init)
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    assert cli.main(argv) == golden[" ".join(argv)]["exit"]
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == \
        golden[" ".join(argv)]["sha256"]
    assert lifts == 0
    # the generators are printed from their radical masks
    assert inits == 0


def test_hall_violator_on_forced_failure(monkeypatch):
    """Disable validation to reach the matcher's diagnostic path.

    Three singletons on a 3-element ground: no member can host any
    complement, so the matching is empty and every position is a Hall
    violator.
    """
    monkeypatch.setattr(matching, "validate_upward_closed", lambda fam: None)
    fam = UpwardClosedFamily(0b111, (0b001, 0b010, 0b100))
    with pytest.raises(TheoremViolationError) as exc:
        matching.complement_permutation(fam)
    ce = exc.value.counterexample
    assert ce["violator_positions"] == [0, 1, 2]
    assert ce["ground"] == 0b111


@pytest.fixture
def identity_matching(monkeypatch):
    """A matcher that pairs every position with itself, right or wrong."""
    def identity(members, adj):
        return list(range(len(members))), list(range(len(members)))
    monkeypatch.setattr(matching, "_max_matching", identity)


def test_uncertified_permutation_is_raised_where_it_is_built(identity_matching):
    fam = UpwardClosedFamily(0b11, (0b01, 0b11))
    with pytest.raises(TheoremViolationError) as exc:
        matching.complement_permutation(fam)
    assert exc.value.counterexample == {
        "ground": 0b11, "members": [0b01, 0b11], "sigma": [0, 1],
    }


def test_uncertified_alpha_pairing_is_raised(identity_matching):
    """The --sig path is certified by the same check as the --k path."""
    sig = Signature((1, 1, 1, 1))
    ground = 0b111
    for gen in extremal.extremal_families(sig).generators:
        fam = families.upward_closure(gen, sig)
        paired = [m for m in fam.squarefree_part() if m <= ground]
        if any((ground ^ m) & ~m for m in paired):
            break
    else:
        pytest.fail("the identity certifies every minimum family of 1,1,1,1")
    with pytest.raises(TheoremViolationError):
        matching.alpha_pairing(fam, sig)


def test_uncertified_ground_pairing_fails_the_command_and_the_sweep(
        identity_matching, monkeypatch, tmp_path, capsys):
    for key in list(os.environ):
        if key.startswith("DIVINT_"):
            monkeypatch.delenv(key)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["matching", "--k", "2"]) == 4
    assert "certificate check" in capsys.readouterr().err
    rows = {r["subject"]: r for r in verify.run_verify(2, 1).rows
            if r["claim"] == "upward-family-pairing"}
    assert rows["ground=2"]["status"] == "fail"


def test_certification_does_not_replace_the_upward_closure_check(monkeypatch):
    """{011, 101, 110} is not upward closed, yet a permutation certifies it."""
    fam = UpwardClosedFamily(0b111, (0b011, 0b101, 0b110))
    with pytest.raises(PreconditionError):
        matching.complement_permutation(fam)
    monkeypatch.setattr(matching, "validate_upward_closed", lambda fam: None)
    assert matching.complement_permutation(fam).verify(fam)


def test_pairing_records_are_tuples():
    """Plain tuples hash and compare at C level, e.g. in cli's entry cache."""
    assert issubclass(matching.PairingEntry, tuple)
    assert issubclass(matching.PairingReport, tuple)
    assert issubclass(matching.PermutationWitness, tuple)
    assert matching.PermutationWitness._fields == ("sigma",)
    assert matching.PairingReport._fields == ("members", "sigma", "entries")
    assert matching.PairingEntry._fields == (
        "position", "source", "bar_source", "excess", "alpha_position",
        "alpha_bar_source", "alpha_excess")


def test_alpha_pairing_refuses_a_member_that_does_not_divide_n():
    with pytest.raises(PreconditionError, match=r"member \(3,\) does not"):
        matching.alpha_pairing(DivisorFamily([(1,), (3,)]), Signature((2,)))


def test_alpha_pairing_on_triangle_closure():
    sig = Signature((1, 1, 1))
    fam = families.upward_closure(DivisorFamily(
        [(1, 1, 0), (1, 0, 1), (0, 1, 1)]), sig)
    rep = matching.alpha_pairing(fam, sig)
    assert rep.members == (0b011,)
    assert rep.sigma == (0,)
    entry = rep.entries[0]
    assert entry.bar_source == 0b100
    assert entry.alpha_position == entry.alpha_bar_source == 1


def test_alpha_pairing_on_420_prime_family():
    sig = Signature((2, 1, 1, 1))
    fam = families.upward_closure(
        DivisorFamily([(0, 1, 0, 0)]), sig)
    rep = matching.alpha_pairing(fam, sig)
    # squarefree members avoiding the last prime: p2, p1p2, p2p3, p1p2p3
    assert rep.members == (0b0010, 0b0011, 0b0110, 0b0111)
    for entry in rep.entries:
        assert entry.alpha_position == entry.alpha_bar_source
        assert entry.alpha_excess == 1  # flat regime


def test_alpha_pairing_last_prime_family_is_empty():
    sig = Signature((2, 2, 2))
    fam = families.upward_closure(
        DivisorFamily([(0, 0, 1)]), sig)
    rep = matching.alpha_pairing(fam, sig)
    assert rep.members == ()
    assert rep.entries == ()


def test_alpha_pairing_excess_weight_matches_last_exponent():
    """bar(d_sigma(j)) * e_j = d_j * p_n forces alpha(e_j) = alpha_n."""
    for alphas in [(2, 2), (3, 2, 2), (2, 1, 1), (1, 1, 1, 1)]:
        sig = Signature(alphas)
        for gen in extremal.extremal_families(sig).generators:
            fam = families.upward_closure(gen, sig)
            for e in matching.alpha_pairing(fam, sig).entries:
                assert e.alpha_excess == sig.alphas[-1]


def test_alpha_pairing_rejects_non_minimum():
    sig = Signature((3, 2))
    fam = families.upward_closure(
        DivisorFamily([(1, 0)]), sig)
    with pytest.raises(PreconditionError, match="minimum-size"):
        matching.alpha_pairing(fam, sig)


def test_alpha_pairing_rejects_non_maximal():
    sig = Signature((1, 1))
    with pytest.raises(PreconditionError, match="maximal"):
        matching.alpha_pairing(DivisorFamily([(1, 1)]), sig)


def test_half_split_law_flat_regime():
    """Each heavy prime divides exactly half of the pairing positions."""
    for alphas in [(2, 1, 1, 1), (3, 2, 1, 1)]:
        sig = Signature(alphas)
        for gen in extremal.extremal_families(sig).generators:
            fam = families.upward_closure(gen, sig)
            members = matching.alpha_pairing(fam, sig).members
            for v in range(sig.u):
                hit = sum(1 for m in members if m >> v & 1)
                assert 2 * hit == len(members)


def test_lifted_and_classified_families_skip_the_maximality_recheck(
        monkeypatch, tmp_path, capsys):
    """matching --sig pairs the closures it lifts, and verify the families
    that its verdict found extremal, without calling check_maximal: none
    for the 2646 families of 1^6, and none in run_verify(5, 2), which
    decides maximality on the mask families' compatible masks."""
    calls = 0
    check_maximal = families.check_maximal

    def counted(fam, sig):
        nonlocal calls
        calls += 1
        return check_maximal(fam, sig)

    monkeypatch.setattr(families, "check_maximal", counted)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["matching", "--sig", "1,1,1,1,1,1",
                     "--format", "csv"]) == 0
    capsys.readouterr()
    assert calls == 0
    assert verify.run_verify(5, 2).passed
    assert calls == 0
