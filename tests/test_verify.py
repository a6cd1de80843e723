"""Tests for the self-check conformance sweep."""

import hashlib
import itertools
import json
import operator
import os
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from divint import (antichains, cli, extremal, families, lattice, matching,
                    oracle, verify)
from divint.errors import DivintError, ResourceLimitError, TheoremViolationError
from divint.families import DivisorFamily
from divint.lattice import Signature
from divint.verify import CLAIMS, run_verify


def test_default_grid_passes():
    rep = run_verify(3, 2)
    assert rep.passed
    assert len(rep.rows) == 96
    assert all(r["status"] == "pass" for r in rep.rows)


def test_module_docstring_lists_the_claims_in_row_order():
    """The claim list of verify's docstring is CLAIMS, in order, so a new
    claim cannot leave the documentation behind."""
    listed = [line.split()[1] for line in verify.__doc__.splitlines()
              if line.startswith("* ")]
    assert listed == list(CLAIMS)


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


@pytest.mark.parametrize("max_n,max_exp", [(2, 62), (6, 6)])
def test_sweep_cap_refusal_precedes_the_sweep(monkeypatch, capsys, max_n,
                                              max_exp):
    """A grid whose lattices walk more than lattice.SWEEP_CAP divisors
    exits 3 at once, before any signature is checked: few primes with high
    exponents as well as many primes."""
    def boom(*args, **kwargs):
        raise AssertionError("a signature was checked before the refusal")

    monkeypatch.setattr(verify, "_check_sig_claims", boom)
    start = time.perf_counter()
    assert cli.main(["verify", "--max-n", str(max_n),
                     "--max-exp", str(max_exp)]) == 3
    assert time.perf_counter() - start < 1.0
    assert ("exceeds the cap of 2000000 (lattice.SWEEP_CAP, a fixed "
            "constant)") in capsys.readouterr().err


def _position(d, strides):
    """The canonical index of divisor d: its exponents dotted with the
    strides of `verify._bit_tables`."""
    return sum(map(operator.mul, d, strides))


# p1 and p1^2*p2 in the 2,1 lattice: not upward closed, and p1^2*p2 has no
# lower cover in the family, so the predecessor test keeps it as a minimum.
NOT_UPWARD_CLOSED = DivisorFamily([(1, 0), (2, 1)])


def test_a_family_that_is_not_upward_closed_fails_with_its_counterexamples(monkeypatch):
    """The counterexamples are those of the general definitions: the closure
    of the minimal members, and every divisor on the squarefree radicals."""
    real = verify._lifted_bits

    def with_bad_family(sig, *args):
        lifted = real(sig, *args)
        if sig != Signature((2, 1)):
            return lifted
        strides = verify._bit_tables(sig)[0]
        return lifted + [(NOT_UPWARD_CLOSED.radical_set,
                          sum(1 << _position(d, strides)
                              for d in NOT_UPWARD_CLOSED))]

    monkeypatch.setattr(verify, "_lifted_bits", with_bad_family)
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


def _pinned_fail_rows(rows, claims):
    """The fail rows of `claims`: their (claim, subject) pairs, and the
    SHA-256 of their JSON."""
    bad = [r for r in rows if r["status"] == "fail" and r["claim"] in claims]
    return ([(r["claim"], r["subject"]) for r in bad],
            hashlib.sha256(json.dumps(bad).encode()).hexdigest())


def test_a_lifted_member_altered_fails_the_rebuild_and_the_closure(monkeypatch):
    """p1^2 of the first 2,2,1 family, the multiples of p1, becomes p2^2.
    The squarefree part is unchanged, so the rebuild from it and the closure
    of the minima, which now include p2^2, both differ from the family; the
    size and the squarefree part still pass."""
    real = verify._lifted_bits
    sig = Signature((2, 2, 1))

    def altered(s, *args):
        lifted = real(s, *args)
        if s != sig:
            return lifted
        strides = verify._bit_tables(sig)[0]
        (masks, first), *rest = lifted
        return [(masks, first ^ (1 << _position((2, 0, 0), strides))
                 ^ (1 << _position((0, 2, 0), strides)))] + rest

    monkeypatch.setattr(verify, "_lifted_bits", altered)
    rows = run_verify(3, 2).rows
    assert [(r["claim"], r["subject"]) for r in rows
            if r["status"] == "fail"] == [
        ("minimal-closure-identity", "2,2,1"),
        ("radical-determination", "2,2,1")]
    assert _pinned_fail_rows(rows, CLAIMS)[1] == (
        "4da6bfdee6438fea2aea0892ba9a7e5ca4436289039dc5b61acf3ca7a34eaca3")


def test_a_broken_mask_family_fails_at_every_signature_of_its_ground(
        monkeypatch):
    """The mask family 3,5,6,7 on [3] loses 3 to 1, the complement of its
    member 6, so 1 and 6 are both in and neither 3 nor 4 is.  Every 3-prime
    signature lifts it, and each fails both mask-level claims with its own
    lifted family.  (Swapping 3 for its own complement 4 would pass both:
    they ask only that each complement pair keeps exactly one member.)"""
    real = antichains.enumerate_families

    def broken(k):
        fams = real(k)
        if k != 3:
            return fams
        return tuple((1, 5, 6, 7) if f == (3, 5, 6, 7) else f for f in fams)

    monkeypatch.setattr(antichains, "enumerate_families", broken)
    rows = run_verify(3, 2).rows
    three_primes = ["1,1,1", "2,1,1", "2,2,1", "2,2,2"]
    pairs, digest = _pinned_fail_rows(
        rows, {"complement-dichotomy", "last-prime-partition"})
    assert pairs == [(claim, subject)
                     for claim in ("complement-dichotomy",
                                   "last-prime-partition")
                     for subject in three_primes]
    assert digest == (
        "e76e97d379d5df84282eb40e15f02ac13c869d2e5334a0428919056b496b5d95")


def test_sweep_work_counts(monkeypatch):
    """run_verify(5, 2) takes no minimal members through the tuple-level
    referee and tests no divisibility.  It lifts no family: each of the 570
    is one int read from the lift's radical table, and radical-determination
    rebuilds it on bitsets.  The constructor builds 290 families: the 145
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
    assert calls == {"families": 290, "lifts": 0, "minimal_members": 0,
                     "divides": 0, "closures": 145}


def test_the_sweep_reads_the_lift_and_the_verdict_of_classify():
    """On every signature of the 4/3 grid, each mask family's bits in the
    sweep are those of its `DivisorFamily.lift`, and the verdict the sweep
    reads off the mask facts and the bit count is that of
    `extremal.classify` on the lift.  Each family less its least mask is
    checked too: it is not maximal, and the sweep gives it no verdict."""
    for sig in lattice.signature_grid(4, 3):
        strides = verify._bit_tables(sig)[0]
        weights = lattice.alpha_weights(sig)
        fams = antichains.enumerate_families(sig.n)
        fams += tuple(f[1:] for f in fams)
        for masks, b in verify._lifted_bits(sig, fams, strides):
            lift = DivisorFamily.lift(sig, masks)
            assert b == sum(1 << _position(d, strides) for d in lift.members)
            want = extremal.classify(lift, sig)
            got = verify._verdict(b.bit_count(),
                                  verify._mask_facts({}, masks, sig),
                                  weights, sig)
            assert (got is not None) == want.is_maximal == (
                len(masks) == 2 ** (sig.n - 1))
            if got is not None:
                assert (got.matched, got.is_maximal, got.is_extremal) == (
                    want.matched, want.is_maximal, want.is_extremal)


def test_the_6_3_document_keeps_its_bytes(monkeypatch, tmp_path, capsys):
    """`verify --max-n 6 --max-exp 3 --format json`, in-process: 83
    signatures and 76024 families, every claim passing."""
    for key in list(os.environ):
        if key.startswith("DIVINT_"):
            monkeypatch.delenv(key)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["verify", "--max-n", "6", "--max-exp", "3",
                     "--format", "json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "9ce175f740ffde40d8ab6024a1412579bc2fa61339842c16f7a1948f4082486d")


def test_mask_level_claims_are_decided_once_per_squarefree_part(monkeypatch):
    """complement-dichotomy and last-prime-partition of run_verify(5, 2) are
    decided 100 times, once per maximal intersecting family on [n] for
    n <= 5 (1 + 2 + 4 + 12 + 81), not once for each of the 570 lifts."""
    calls = 0
    mask_claims = verify._mask_claims

    def counted(n, rads):
        nonlocal calls
        calls += 1
        return mask_claims(n, rads)

    monkeypatch.setattr(verify, "_mask_claims", counted)
    assert run_verify(5, 2).passed
    assert calls == 100 == sum(len(antichains.enumerate_families(n))
                               for n in range(1, 6))


def test_bit_tables_follow_the_canonical_order():
    """The strides place the i-th divisor of `lattice.enumerate_divisors`
    at position i; `below` holds the divisors under a prime's top exponent,
    one step up a prime is a shift by its stride, and each radical's bitset
    holds the divisors on it."""
    for sig in lattice.signature_grid(4, 3):
        strides, steps, on_radical = verify._bit_tables(sig)
        divisors = lattice.enumerate_divisors(sig)
        assert [_position(d, strides) for d in divisors] == list(
            range(len(divisors)))
        for p, (stride, below) in enumerate(steps):
            assert stride == strides[p]
            up = [d for d in divisors if d[p] < sig.alphas[p]]
            assert below == sum(1 << _position(d, strides) for d in up)
            assert all(_position(d, strides) + stride == _position(
                d[:p] + (d[p] + 1,) + d[p + 1:], strides) for d in up)
        assert on_radical == [
            sum(1 << i for i, d in enumerate(divisors)
                if lattice.radical(d) == m)
            for m in range(1 << sig.n)]
        assert verify._bits_json((1 << len(divisors)) - 1, sig) == [
            list(d) for d in divisors]


def test_bit_tables_hold_no_table_per_divisor():
    """On 4,4,4,4,4,4, 15625 divisors, the tables peak under 1 MB: the
    strides, one (stride, below) pair per prime and one bitset per radical.
    A single-bit int per divisor, as wide as the lattice, would take some
    19 MB."""
    sig = Signature((4,) * 6)
    tracemalloc.start()
    try:
        tables = verify._bit_tables(sig)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tables[2]) == 64
    assert peak < 1 << 20


@st.composite
def lattice_families(draw):
    """Any family of divisors > 1 in a lattice of up to 4 primes, exponents
    <= 3, with that family's bitset over the strides of
    `verify._bit_tables`."""
    sig = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)
               .map(Signature))
    divs = [d for d in lattice.enumerate_divisors(sig) if any(d)]
    fam = DivisorFamily(draw(st.lists(st.sampled_from(divs), max_size=12)))
    strides, steps, _ = verify._bit_tables(sig)
    return sig, fam, sum(1 << _position(d, strides)
                         for d in fam.members), steps


@given(lattice_families())
@settings(deadline=None, max_examples=200)
def test_bitset_closure_is_that_of_the_minimal_members(case):
    """The members with no lower cover in the family include its minima and
    lie in their closure, so on any family the re-closure is the closure of
    `families.minimal_members`, and on an upward-closed one it is the family."""
    sig, fam, b, steps = case
    closure = verify._minima_closure(b, steps, sig.alphas)
    want = families.upward_closure(families.minimal_members(fam), sig)
    assert verify._bits_json(closure, sig) == [list(d) for d in want]
    assert verify._minima_closure(closure, steps, sig.alphas) == closure


def _raise(*args):
    raise DivintError("injected fault")


def _raise_with_counterexample(*args):
    raise TheoremViolationError("injected fault", counterexample={"at": 1})


def _wrap(monkeypatch, owner, name, change):
    """Rebind owner.name to the real function with `change` applied to its
    result."""
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: change(real(*args)))


def _bad_excess(pairing):
    return pairing._replace(entries=tuple(
        e._replace(alpha_excess=e.alpha_excess + 1) for e in pairing.entries))


# One injected fault per claim path: name -> patch(monkeypatch).
FAULTS = {
    "min-size-bound-plus-one": lambda mp: _wrap(
        mp, lattice, "min_size_bound", lambda b: b + 1),
    "count-off-by-one": lambda mp: _wrap(
        mp, extremal, "count_minimum_families", lambda c: c + 1),
    "count-raises": lambda mp: mp.setattr(
        extremal, "count_minimum_families", _raise),
    "extremal-families-raises": lambda mp: mp.setattr(
        extremal, "extremal_families", _raise),
    "classify-partial-match": lambda mp: _wrap(
        mp, extremal, "verdict",
        lambda v: v._replace(matched=v.matched - {"c"})),
    "classify-raises": lambda mp: mp.setattr(extremal, "verdict", _raise),
    "pairing-raises": lambda mp: mp.setattr(
        matching, "_weight_pairing", _raise_with_counterexample),
    "pairing-bad-excess": lambda mp: _wrap(
        mp, matching, "_weight_pairing", _bad_excess),
    "squarefree-part-drops-a-mask": lambda mp: _wrap(
        mp, verify, "_squarefree_part", lambda masks: masks[:-1]),
}

GRID_3_2 = ["1", "2", "1,1", "2,1", "2,2", "1,1,1", "2,1,1", "2,2,1", "2,2,2"]

# fault -> (subjects of the failing rows of run_verify(3, 2) per claim,
# SHA-256 of json.dumps of those rows)
FAULT_PINS = {
    "min-size-bound-plus-one": (
        {"min-size-equality": GRID_3_2,
         "classification-equivalence": GRID_3_2,
         "pairing-weight-equality": GRID_3_2},
        "e2c24d7a4a8884d50d2ffa9878663ca53293fa45c3c7713c74f3bee0e204c450"),
    "count-off-by-one": (
        {"minimum-count-law": GRID_3_2},
        "c0bcdeb257bcc4503cad7e61a30d40e870a7994c831971fb7d341c7b7ceb5591"),
    "count-raises": (
        {"minimum-count-law": GRID_3_2},
        "ff546f4da6df40c3373fc3214f1a0a9241aaf38593eaeb9a9f0a8f8c12374fbe"),
    "extremal-families-raises": (
        {"extremal-agreement": GRID_3_2},
        "7b78c2031c8dc4b3b3b85551f738dfe06c931fbf5e99716286362973b979d5b8"),
    "classify-partial-match": (
        {"classification-equivalence": GRID_3_2},
        "64abef88af26950af9802b42235dd545990feaf1ca53958322eb22814daa07e4"),
    "classify-raises": (
        {"classification-equivalence": GRID_3_2},
        "ec399f7d7073baec525ace01cec7537ab0c20427c24bc357974b75e5e3046c4f"),
    "pairing-raises": (
        {"pairing-weight-equality": GRID_3_2},
        "62a7939936efa09f480249d51a89ee44110f72676528ba4ff2cbfad1a44ef2e4"),
    "pairing-bad-excess": (
        {"pairing-weight-equality": ["1,1", "2,2", "1,1,1", "2,1,1", "2,2,2"]},
        "747631cae492a3826f57002b336ab130d1678ae0f1a3a60e790786fd8031fbd1"),
    "squarefree-part-drops-a-mask": (
        {"complement-dichotomy": GRID_3_2, "last-prime-partition": GRID_3_2,
         "radical-determination": GRID_3_2, "weight-identity": GRID_3_2},
        "9ab12da8b1326fc040f466925164af4ee56ede44a7aa9de4c0f9916d549fcaf7"),
}


@pytest.mark.parametrize("fault", list(FAULTS))
def test_failing_rows_under_an_injected_fault_keep_their_bytes(monkeypatch,
                                                                fault):
    """Goldens cover passing sweeps only; these pin the fail rows, so a
    change to how a counterexample is assembled shows here."""
    FAULTS[fault](monkeypatch)
    rows = [r for r in run_verify(3, 2).rows if r["status"] == "fail"]
    subjects, digest = FAULT_PINS[fault]
    assert [(r["claim"], r["subject"]) for r in rows] == [
        (claim, subject) for claim, grid in subjects.items() for subject in grid]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == digest


def test_a_census_off_the_squarefree_size_law_fails_that_claim_alone(
        monkeypatch):
    """A census of 1,1 that reports a family of size 3 beside one of size 2
    fails squarefree-size-law at 1,1 and nothing else: its counts, minimum
    and families are those of the real census."""
    real = oracle.enumerate_maximal_families

    def off_by_one(sig, *args, **kwargs):
        rep = real(sig, *args, **kwargs)
        return rep._replace(sizes=(2, 3)) if sig == Signature((1, 1)) else rep

    monkeypatch.setattr(oracle, "enumerate_maximal_families", off_by_one)
    rows = [r for r in run_verify(3, 2).rows if r["status"] == "fail"]
    assert rows == [{"claim": "squarefree-size-law", "subject": "1,1",
                     "status": "fail",
                     "counterexample": {"signature": [1, 1],
                                        "expected_size": 2,
                                        "observed_sizes": [3]}}]
