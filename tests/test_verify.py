"""Tests for the self-check conformance sweep."""

import itertools

import pytest

from divint import extremal, families, lattice, oracle, verify
from divint.errors import ResourceLimitError
from divint.families import DivisorFamily
from divint.lattice import Signature
from divint.verify import CLAIMS, run_verify


def test_default_grid_passes():
    rep = run_verify(3, 2)
    assert rep.passed
    assert len(rep.rows) == 96
    assert all(r["status"] == "pass" for r in rep.rows)


def test_rows_are_claim_major():
    rep = run_verify(2, 2)
    seen = [r["claim"] for r in rep.rows]
    expect = []
    for claim in CLAIMS:
        expect.extend([claim] * seen.count(claim))
    assert seen == expect


def test_row_schema():
    rep = run_verify(2, 2)
    for r in rep.rows:
        assert set(r) == {"claim", "subject", "status"}
        assert r["status"] == "pass"


def test_subjects_cover_grid_and_grounds():
    rep = run_verify(2, 1)
    subjects = {r["subject"] for r in rep.rows}
    assert {"1", "1,1", "ground=1", "ground=2"} <= subjects


def test_squarefree_law_rows_only_for_squarefree_signatures():
    rep = run_verify(2, 2)
    rows = [r for r in rep.rows if r["claim"] == "squarefree-size-law"]
    assert [r["subject"] for r in rows] == ["1", "1,1"]


def test_injected_fault_is_reported_not_raised(monkeypatch):
    """Perturb the closed form and confirm the sweep records the clash."""
    real = lattice.min_size_bound
    monkeypatch.setattr(lattice, "min_size_bound", lambda sig: real(sig) + 1)
    rep = run_verify(2, 1)
    assert not rep.passed
    bad = [r for r in rep.rows
           if r["claim"] == "min-size-equality" and r["status"] == "fail"]
    assert bad
    ce = bad[0]["counterexample"]
    assert ce["closed_form"] == ce["exhaustive_min"] + 1
    # unaffected structural claims still pass
    ok = [r for r in rep.rows if r["claim"] == "radical-determination"]
    assert all(r["status"] == "pass" for r in ok)


def test_k_cap_refusal_precedes_the_sweep(monkeypatch):
    """The cap on the ground size k, antichains.LIST_CAP, refuses the 7/1
    grid before any signature is checked."""
    def boom(*args, **kwargs):
        raise AssertionError("a signature was checked before the refusal")

    monkeypatch.setattr(verify, "_check_sig_claims", boom)
    with pytest.raises(ResourceLimitError, match=r"antichains\.LIST_CAP"):
        run_verify(7, 1)


def test_member_cap_refusal_precedes_the_sweep(monkeypatch):
    """The member total of every signature is known from the mask families,
    so the first signature over the cap, in grid order, is refused before
    any is checked: on the 6/4 grid that is 4,3,3,3,3,3."""
    def boom(*args, **kwargs):
        raise AssertionError("a signature was checked before the refusal")

    monkeypatch.setattr(verify, "_check_sig_claims", boom)
    with pytest.raises(ResourceLimitError) as exc:
        run_verify(6, 4)
    assert str(exc.value) == (
        "the number of family members of 4,3,3,3,3,3 is 12038086, above the "
        "cap of 10000000 (verify.MEMBER_CAP, a fixed constant)")
    monkeypatch.setattr(verify, "MEMBER_CAP", 44)
    with pytest.raises(ResourceLimitError, match="of 2,2,1 is 45, above"):
        run_verify(3, 2)


def test_a_signature_checked_alone_still_refuses_the_member_cap(monkeypatch):
    monkeypatch.setattr(verify, "MEMBER_CAP", 44)
    with pytest.raises(ResourceLimitError,
                       match=r"of 2,2,1 is 45, .*verify\.MEMBER_CAP"):
        verify._check_sig_claims(Signature((2, 2, 1)))


def test_member_totals_are_the_lifted_family_sizes():
    for sig in lattice.signature_grid(4, 3):
        counts = verify._member_counts(sig.n)
        weights = lattice.alpha_weights(sig)
        rep = oracle.enumerate_maximal_families(sig)
        assert sum(c * w for c, w in zip(counts, weights)) == sum(rep.sizes)


# p1 and p1^2*p2 in the 2,1 lattice: not upward closed, and p1^2*p2 has no
# lower cover in the family, so the predecessor test keeps it as a minimum.
NOT_UPWARD_CLOSED = DivisorFamily([(1, 0), (2, 1)])


def test_a_family_that_is_not_upward_closed_fails_with_its_counterexamples(monkeypatch):
    """The counterexamples are those of the general definitions: the closure
    of the minimal members, and every divisor on the squarefree radicals."""
    real = oracle.enumerate_maximal_families

    def with_bad_family(sig, *args, **kwargs):
        rep = real(sig, *args, **kwargs)
        if sig != Signature((2, 1)):
            return rep
        return rep._replace(families=rep.families + (NOT_UPWARD_CLOSED,))

    monkeypatch.setattr(oracle, "enumerate_maximal_families", with_bad_family)
    rows = {(r["claim"], r["subject"]): r for r in run_verify(2, 2).rows}
    fam = [[1, 0], [2, 1]]
    assert rows["minimal-closure-identity", "2,1"] == {
        "claim": "minimal-closure-identity", "subject": "2,1",
        "status": "fail", "counterexample": {
            "signature": [2, 1], "family": fam,
            "closure": [[1, 0], [2, 0], [1, 1], [2, 1]],
        },
    }
    assert rows["radical-determination", "2,1"] == {
        "claim": "radical-determination", "subject": "2,1",
        "status": "fail", "counterexample": {
            "signature": [2, 1], "family": fam, "rebuilt": [[1, 0], [2, 0]],
        },
    }
    sig = Signature((2, 1))
    closure = families.upward_closure(
        families.minimal_members(NOT_UPWARD_CLOSED), sig)
    rebuilt = DivisorFamily(d for d in lattice.enumerate_divisors(sig)
                            if any(d) and lattice.radical(d) == 0b01)
    assert [list(d) for d in closure] == [[1, 0], [2, 0], [1, 1], [2, 1]]
    assert [list(d) for d in rebuilt] == [[1, 0], [2, 0]]
    assert rows["minimal-closure-identity", "1,1"]["status"] == "pass"


def test_squarefree_part_is_read_from_the_members(monkeypatch):
    """The sweep checks the lift, not the masks it was asked for: when the
    divisor table of 2,1 loses p2, the family lifted from {p2, p1*p2} keeps
    that radical set but no longer holds p2, and complement-dichotomy fails.
    Were squarefree_part to echo the radical set, the claim would pass."""
    real = lattice.radical_table
    p2 = (0, 1)

    def without_p2(sig):
        divisors, radicals = real(sig)
        if sig != Signature((2, 1)):
            return divisors, radicals
        keep = [d != p2 for d in divisors]
        return (tuple(itertools.compress(divisors, keep)),
                tuple(itertools.compress(radicals, keep)))

    monkeypatch.setattr(lattice, "radical_table", without_p2)
    rows = {(r["claim"], r["subject"]): r for r in run_verify(2, 2).rows}
    assert rows["complement-dichotomy", "2,1"] == {
        "claim": "complement-dichotomy", "subject": "2,1",
        "status": "fail", "counterexample": {
            "signature": [2, 1], "family": [[1, 1], [2, 1]], "mask": 1,
        },
    }
    assert rows["complement-dichotomy", "2,2"]["status"] == "pass"


def test_sweep_work_counts(monkeypatch):
    """run_verify(5, 2) takes no minimal members through the tuple-level
    referee and tests no divisibility.  It lifts 1140 families: each of the
    570 maximal families, and once more each one's rebuild for
    radical-determination.  Its constructor builds 290 more: the 145
    generators and their 145 closures for extremal-agreement.
    classification-equivalence looks the generators up by their radical
    masks and builds none of them."""
    calls = {"families": 0, "lifts": 0, "minimal_members": 0, "divides": 0,
             "closures": 0}
    init = DivisorFamily.__init__
    lift = DivisorFamily.lift
    minimal_members = families.minimal_members
    divides = lattice.divides
    upward_closure = families.upward_closure

    def counted_init(self, divisors):
        calls["families"] += 1
        init(self, divisors)

    def counted_lift(cls, sig, masks):
        calls["lifts"] += 1
        return lift(sig, masks)

    def counted_minimal_members(fam):
        calls["minimal_members"] += 1
        return minimal_members(fam)

    def counted_divides(a, b):
        calls["divides"] += 1
        return divides(a, b)

    def counted_upward_closure(gens, sig):
        calls["closures"] += 1
        return upward_closure(gens, sig)

    monkeypatch.setattr(DivisorFamily, "__init__", counted_init)
    monkeypatch.setattr(DivisorFamily, "lift", classmethod(counted_lift))
    monkeypatch.setattr(families, "upward_closure", counted_upward_closure)
    monkeypatch.setattr(families, "minimal_members", counted_minimal_members)
    monkeypatch.setattr(lattice, "divides", counted_divides)
    extremal._generator_set.cache_clear()
    rep = run_verify(5, 2)
    assert rep.passed and len(rep.rows) == 209
    assert calls == {"families": 290, "lifts": 1140, "minimal_members": 0,
                     "divides": 0, "closures": 145}
