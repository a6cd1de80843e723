"""Conformance sweep: re-derive every structural law on a signature grid.

For each signature with at most `max_n` primes and exponents at most
`max_exp`, the brute-force census is enumerated and every claim the package
relies on is re-checked against it, claim by claim:

* min-size-equality        exhaustive minimum equals the closed form
* squarefree-size-law      all maximal families have size 2^(n-1) when N is
                           squarefree
* minimum-count-law        number of minimum-size families equals the
                           predicted count (n - u, or the antichain count)
* extremal-agreement       minimum-size families coincide with the generator
                           closures, as sets
* classification-equivalence  the three extremal characterizations hold
                           jointly or fail jointly on every maximal family
* complement-dichotomy     exactly one of each squarefree complement pair
                           lies in the radical family
* last-prime-partition     members with the last prime, plus complements of
                           those without, tile the multiples of the last prime
* minimal-closure-identity every maximal family is the upward closure of its
                           minimal members
* radical-determination    a maximal family is recovered exactly from its
                           radical set
* weight-identity          family size equals the exponent-product weight sum
                           over its radical set
* pairing-weight-equality  the weight-preserving complement pairing exists on
                           every minimum-size family
* upward-family-pairing    every upward-closed family on small grounds admits
                           a certified complement permutation

Where a claim is checked: `_sig_claims` yields the first four claims once per
signature, from its census as a whole; `_family_claims` yields the next seven
once per maximal family of that census; `_check_ground_pairing` checks the
last once per ground.  `_family_claims` holds each family as one int over
the canonical divisor index, and decides complement-dichotomy and
last-prime-partition, which read only the squarefree part, once per part
and prime count.  A check yields its claim with None where the claim
holds, or with the fields of its counterexample.  `_check_sig_claims` alone
turns these into rows: a claim passes unless a check of it yields fields, and
its fail row carries the signature followed by the first fields yielded.  The
sweep records a failure and goes on rather than aborting, so one broken claim
cannot mask another.
"""

from __future__ import annotations

import itertools
import operator
from typing import Iterator, NamedTuple, Optional

from . import antichains, extremal, families, lattice, matching, oracle
from .errors import DivintError, limit_error
from .families import DivisorFamily
from .lattice import Signature

CLAIMS = (
    "min-size-equality",
    "squarefree-size-law",
    "minimum-count-law",
    "extremal-agreement",
    "classification-equivalence",
    "complement-dichotomy",
    "last-prime-partition",
    "minimal-closure-identity",
    "radical-determination",
    "weight-identity",
    "pairing-weight-equality",
    "upward-family-pairing",
)

MATCHING_GROUND_CAP = 4
# Most family members of one signature that the sweep holds to check them.
MEMBER_CAP = 10**7


# A claim's name and its counterexample fields, or None where it holds.
Claim = tuple[str, Optional[dict]]


class VerifyReport(NamedTuple):
    max_n: int
    max_exp: int
    rows: tuple[dict, ...]
    passed: bool


def _fam_json(fam: DivisorFamily) -> list[list[int]]:
    return [list(d) for d in fam.members]


def _at(fam: DivisorFamily, **fields) -> dict:
    """Counterexample fields of a claim that fails on `fam`."""
    return {"family": _fam_json(fam), **fields}


def _first_three(fams) -> list[list[list[int]]]:
    return [_fam_json(f)
            for f in sorted(fams, key=oracle.family_sort_key)[:3]]


def _sig_claims(sig: Signature, rep: oracle.OracleReport) -> Iterator[Claim]:
    """The claims about the census of `sig` as a whole."""
    bound = lattice.min_size_bound(sig)
    yield "min-size-equality", None if rep.min_size == bound else {
        "exhaustive_min": rep.min_size, "closed_form": bound}

    if all(a == 1 for a in sig.alphas):
        want = 2 ** (sig.n - 1)
        bad = sorted({s for s in rep.sizes if s != want})
        yield "squarefree-size-law", None if not bad else {
            "expected_size": want, "observed_sizes": bad}

    try:
        predicted = extremal.count_minimum_families(sig)
    except DivintError as exc:
        yield "minimum-count-law", {"error": str(exc)}
    else:
        yield "minimum-count-law", None if predicted == rep.min_count else {
            "predicted": predicted, "observed": rep.min_count}

    try:
        ext = extremal.extremal_families(sig)
        closures = {
            families.upward_closure(gen, sig) for gen in ext.generators
        }
    except DivintError as exc:
        yield "extremal-agreement", {"error": str(exc)}
    else:
        minimum = {f for f in rep.families if len(f) == rep.min_size}
        yield "extremal-agreement", None if closures == minimum else {
            "oracle_only": _first_three(minimum - closures),
            "extremal_only": _first_three(closures - minimum)}


def _bit_tables(sig: Signature):
    """The `sig` lattice over its canonical divisor index, as bitsets.

    Divisor d has index sum(d_i * stride_i), d_0 the least significant
    digit, which is the canonical order.  Returns each divisor's bit keyed
    by the divisor; the (stride, below) pair of each prime, `below` holding
    the divisors under that prime's top exponent; and the divisors on each
    radical, indexed by mask.  All of it comes from the exponents, none from
    the lift's `lattice.radical_table`.
    """
    strides = list(itertools.accumulate(
        (a + 1 for a in sig.alphas[:-1]), operator.mul, initial=1))
    everything = (1 << sig.divisor_count()) - 1
    steps = []
    on_radical = [1]  # the empty radical: divisor 1, index 0
    for a, stride in zip(sig.alphas, strides):
        block = stride * (a + 1)
        # the low a * stride bits of every block of the next stride
        steps.append((stride, ((1 << a * stride) - 1)
                      * (everything // ((1 << block) - 1))))
        # a radical without prime i lies below bit `stride`, so no shift of
        # it by e * stride overlaps another
        axis = sum(1 << e * stride for e in range(1, a + 1))
        on_radical += [x * axis for x in on_radical]
    bit = {d: 1 << sum(map(operator.mul, d, strides))
           for d in lattice.divisors(sig)}
    return bit, steps, on_radical


def _minima_closure(b: int, steps, alphas: tuple[int, ...]) -> int:
    """The upward closure of the members of `b` that have no lower cover in
    `b`, over the (stride, below) `steps` of `_bit_tables`.

    On an upward-closed family those members are its minima.  On any family
    they include its minima and lie in their closure, so the closure is that
    of the minimal members.  It grows one exponent step at a time, alphas[k]
    steps up prime k, which reaches its fixpoint.
    """
    covered = 0
    for stride, below in steps:
        covered |= (b & below) << stride
    closure = b & ~covered
    for (stride, below), a in zip(steps, alphas):
        for _ in range(a):
            closure |= (closure & below) << stride
    return closure


def _bits_json(bits: int, sig: Signature) -> list[list[int]]:
    """The divisors on the set bits of `bits`, in canonical order."""
    divisors = lattice.divisors(sig)
    return [list(divisors[i]) for i in lattice.iter_bits(bits)]


def _mask_claims(n: int, rads: tuple[int, ...]) -> tuple[Claim, Claim]:
    """complement-dichotomy and last-prime-partition on the squarefree part
    `rads` of a family on n primes, without the family's fields.

    Both read the squarefree part alone, so the sweep decides them once per
    part and n, and words a failure with each family that has the part.
    """
    full = (1 << n) - 1
    last = 1 << (n - 1)
    rads = set(rads)
    bad_mask = next(
        (m for m in range(full + 1)
         if (m in rads) == ((full ^ m) in rads)), None)
    with_last = {m for m in rads if m & last}
    lifted = {full ^ m for m in rads if not m & last}
    partition = (with_last | lifted == set(range(last, full + 1))
                 and not with_last & lifted)
    return (
        ("complement-dichotomy",
         None if bad_mask is None else {"mask": bad_mask}),
        ("last-prime-partition", None if partition else {
            "with_last": sorted(with_last), "lifted": sorted(lifted)}))


def _family_claims(sig: Signature, rep: oracle.OracleReport,
                   memo: dict) -> Iterator[Claim]:
    """The claims about each maximal family of the census, family by family.

    A family is one int over `_bit_tables`: `_minima_closure` re-closes
    its minima, its rebuild is an OR of radical bitsets, and its size is
    the bit count.  `memo` holds `_mask_claims` of each squarefree part met
    so far on sig.n primes.
    """
    bit, steps, on_radical = _bit_tables(sig)
    weights = lattice.alpha_weights(sig)
    for fam in rep.families:
        rads = fam.squarefree_part()

        try:
            verdict = extremal.classify(fam, sig)
        except DivintError as exc:
            verdict = None
            yield "classification-equivalence", {"error": str(exc)}
        else:
            yield "classification-equivalence", (
                None if len(verdict.matched) in (0, 3)
                else _at(fam, matched=sorted(verdict.matched)))

        mask_claims = memo.get(rads)
        if mask_claims is None:
            mask_claims = memo[rads] = _mask_claims(sig.n, rads)
        for claim, fields in mask_claims:
            yield claim, None if fields is None else _at(fam, **fields)

        b = sum(map(bit.__getitem__, fam.members))
        closure = _minima_closure(b, steps, sig.alphas)
        yield "minimal-closure-identity", (
            None if closure == b
            else _at(fam, closure=_bits_json(closure, sig)))

        rebuilt = sum(map(on_radical.__getitem__, rads))
        yield "radical-determination", (
            None if rebuilt == b
            else _at(fam, rebuilt=_bits_json(rebuilt, sig)))

        weight = sum(map(weights.__getitem__, rads))
        yield "weight-identity", (
            None if weight == b.bit_count()
            else _at(fam, weight_sum=weight, size=len(fam)))

        if len(fam) != rep.min_size:
            continue
        try:
            # classify has checked the preconditions of an extremal family
            pairing = (
                matching._weight_pairing(fam.radical_set, sig)
                if verdict is not None and verdict.is_extremal
                else matching.alpha_pairing(fam, sig))
        except DivintError as exc:
            yield "pairing-weight-equality", {
                "error": str(exc),
                "counterexample": getattr(exc, "counterexample", None)}
            continue
        bad = next((e for e in pairing.entries
                    if e.alpha_excess != sig.alphas[-1]), None)
        yield "pairing-weight-equality", None if bad is None else _at(
            fam, position=bad.position, alpha_excess=bad.alpha_excess)


def _check_sig_claims(sig: Signature,
                      memo: Optional[dict] = None) -> dict[str, dict]:
    """Evaluate every per-signature claim; returns claim -> row fields.

    A claim passes unless some check of it yields counterexample fields; the
    first such fields, after the signature, are its counterexample.  `memo`
    is that of `_family_claims`, shared by the signatures on sig.n primes.
    """
    # run_verify refuses an over-cap grid before the sweep; this refusal
    # stands for any other caller
    rep = oracle.enumerate_maximal_families(sig, materialize_cap=MEMBER_CAP)
    if rep.families is None:
        raise limit_error(f"the number of family members of {sig}",
                          sum(rep.sizes), MEMBER_CAP, "verify.MEMBER_CAP")
    claims = itertools.chain(
        _sig_claims(sig, rep),
        _family_claims(sig, rep, {} if memo is None else memo))
    first: dict[str, Optional[dict]] = {}
    for claim, fields in claims:
        if fields is not None and first.get(claim) is None:
            first[claim] = {"signature": list(sig.alphas), **fields}
        else:
            first.setdefault(claim, None)
    return {claim: {"status": "pass"} if ce is None
            else {"status": "fail", "counterexample": ce}
            for claim, ce in first.items()}


def _check_ground_pairing(k: int) -> dict:
    try:
        for fam in matching.all_upward_closed_families(k):
            matching.complement_permutation(fam)
    except DivintError as exc:
        return {"status": "fail", "counterexample": {
            "ground": k, "error": str(exc),
            "detail": getattr(exc, "counterexample", None),
        }}
    return {"status": "pass"}


def _member_counts(n: int) -> list[int]:
    """How many maximal intersecting families on [n] hold each mask."""
    counts = [0] * (1 << n)
    for fam in antichains.enumerate_families(n):
        for m in fam:
            counts[m] += 1
    return counts


def run_verify(max_n: int = 3, max_exp: int = 2) -> VerifyReport:
    """Run every claim over the grid; never raises on claim failure.

    Every limit is checked before the first signature is swept: the caps of
    the Dedekind walk on each ground, then the grid's size, then each
    signature's member total, which the mask families fix before any lift,
    against MEMBER_CAP in grid order.
    """
    # largest ground first: a walk past its cap is refused before any runs,
    # and before the grid is built
    counts = {n: _member_counts(n) for n in range(max_n, 0, -1)}
    grid = lattice.signature_grid(max_n, max_exp)
    for sig in grid:
        total = sum(map(operator.mul, counts[sig.n],
                        lattice.alpha_weights(sig)))
        if total > MEMBER_CAP:
            raise limit_error(f"the number of family members of {sig}",
                              total, MEMBER_CAP, "verify.MEMBER_CAP")
    memos: dict[int, dict] = {n: {} for n in counts}
    per_sig: dict[str, dict[str, dict]] = {}
    for sig in grid:
        per_sig[str(sig)] = _check_sig_claims(sig, memos[sig.n])

    rows: list[dict] = []
    for claim in CLAIMS:
        if claim == "upward-family-pairing":
            for k in range(1, min(max_n, MATCHING_GROUND_CAP) + 1):
                res = _check_ground_pairing(k)
                rows.append({"claim": claim, "subject": f"ground={k}", **res})
            continue
        for sig in grid:
            key = str(sig)
            if claim not in per_sig[key]:
                continue  # claim not applicable (e.g. size law off squarefree)
            rows.append({"claim": claim, "subject": key, **per_sig[key][claim]})

    passed = all(r["status"] == "pass" for r in rows)
    return VerifyReport(max_n=max_n, max_exp=max_exp, rows=tuple(rows),
                        passed=passed)
