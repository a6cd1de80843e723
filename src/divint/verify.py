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
last once per ground.  The census lists no family.  Each mask family of
`antichains.enumerate_families(n)` is held with its lift as one int over
the canonical divisor index, read from the lift's `lattice.radical_table`
by `_lifted_bits`.  A divisor d sits at bit sum(d_i * stride_i), worked
out from its exponents where it is used, so no table keyed by divisor is
kept.  What the masks alone fix is decided once per mask family and prime
count, in a memo that lives for one `run_verify` call: the minimal
radicals, the compatible masks of the maximality rule, and
complement-dichotomy and last-prime-partition.  Per signature only the
weights are left: maximality (`families.is_maximal_size`), the verdict of
`extremal.verdict`, the bit count, the closure, the rebuild and the
pairing.  The squarefree part is read from the bits, not echoed from the
masks, and the closure and the rebuild come from `_bit_tables`, which
reads the exponents only.  A check yields its claim with None where the
claim holds, or with the fields of its counterexample, whose divisors are
decoded from the bits only then.  `_check_sig_claims` alone turns these
into rows: a claim passes unless a check of it yields fields, and its fail
row carries the signature followed by the first fields yielded.  The sweep
records a failure and goes on rather than aborting, so one broken claim
cannot mask another.
"""

from __future__ import annotations

import itertools
import operator
from typing import Iterator, NamedTuple, Optional

from . import antichains, extremal, families, lattice, matching, oracle
from .antichains import MaskFamily
from .errors import DivintError
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


# A claim's name and its counterexample fields, or None where it holds.
Claim = tuple[str, Optional[dict]]


class VerifyReport(NamedTuple):
    max_n: int
    max_exp: int
    rows: tuple[dict, ...]
    passed: bool


def _at(b: int, sig: Signature, /, **fields) -> dict:
    """Counterexample fields of a claim that fails on the family `b`."""
    return {"family": _bits_json(b, sig), **fields}


def _sig_claims(sig: Signature, rep: oracle.OracleReport,
                lifted: list[tuple[MaskFamily, int]],
                strides: list[int]) -> Iterator[Claim]:
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
        closures = {sum(1 << sum(map(operator.mul, d, strides))
                        for d in families.upward_closure(gen, sig))
                    for gen in extremal.extremal_families(sig).generators}
    except DivintError as exc:
        yield "extremal-agreement", {"error": str(exc)}
    else:
        minimum = {b for _, b in lifted if b.bit_count() == rep.min_size}
        yield "extremal-agreement", None if closures == minimum else {
            "oracle_only": _first_three(minimum - closures, sig),
            "extremal_only": _first_three(closures - minimum, sig)}


def _bit_tables(sig: Signature):
    """The `sig` lattice over its canonical divisor index, as bitsets.

    Divisor d has index sum(d_i * stride_i), d_0 the least significant
    digit, which is the canonical order.  Returns the stride of each prime;
    the (stride, below) pair of each prime, `below` holding the divisors
    under that prime's top exponent; and the divisors on each radical,
    indexed by mask.  All of it comes from the exponents, none from the
    lift's `lattice.radical_table`.  It holds n + 2^n ints as wide as the
    lattice and none per divisor: a divisor's user shifts 1 by its index.
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
    return strides, steps, on_radical


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


def _first_three(bitsets, sig: Signature) -> list[list[list[int]]]:
    """The first three families of `bitsets` in `oracle.family_sort_key`
    order, which on bitsets is that of their ascending bit indices."""
    return [_bits_json(b, sig)
            for b in sorted(bitsets, key=lattice.set_bits)[:3]]


def _mask_claims(n: int, rads: tuple[int, ...]) -> tuple[Claim, Claim]:
    """complement-dichotomy and last-prime-partition on the squarefree part
    `rads` of a family on n primes, without the family's fields.

    Both read the squarefree part alone, so the sweep decides them once per
    part and n, and words a failure with each family that has the part.
    """
    full, last = (1 << n) - 1, 1 << (n - 1)
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


def _mask_facts(memo: dict, rads: MaskFamily, sig: Signature):
    """What the masks `rads` on sig.n primes fix, from `memo` or decided
    into it: their `_mask_claims`, their minimal masks and the
    `families.compatible_masks` of those."""
    if rads not in memo:
        mins = antichains.minimal_masks(rads)
        memo[rads] = (_mask_claims(sig.n, rads), mins,
                      families.compatible_masks(mins, sig))
    return memo[rads]


def _lifted_bits(sig: Signature, fams,
                 strides: list[int]) -> list[tuple[MaskFamily, int]]:
    """Each mask family of `fams` with its lift as one int: the divisors of
    the lift's `lattice.radical_table` on its masks, each at the bit its
    exponents and `strides` place it on, whatever its row in that table."""
    lift = [0] * (1 << sig.n)
    for d, r in zip(*lattice.radical_table(sig)):
        lift[r] |= 1 << sum(map(operator.mul, d, strides))
    return [(masks, sum(map(lift.__getitem__, masks))) for masks in fams]


def _squarefree_part(bits: int, predicted: int, masks: MaskFamily,
                     sig: Signature) -> MaskFamily:
    """The masks of the squarefree divisors on `bits`, ascending: `masks`,
    whose squarefree divisors are those on `predicted`, where the two
    agree, else decoded from `bits`.  Squarefree divisors come in the
    canonical order as their masks do."""
    return masks if bits == predicted else tuple(
        map(lattice.radical, map(lattice.divisors(sig).__getitem__,
                                 lattice.set_bits(bits))))


def _verdict(size: int, facts, weights: tuple[int, ...], sig: Signature
             ) -> Optional[extremal.ClassificationVerdict]:
    """`extremal.classify` on a family of `size` members whose mask family
    has the `_mask_facts` given, read off those facts and the size; None
    where the family is not maximal."""
    _, mins, compatible = facts
    if families.is_maximal_size(size, compatible, weights):
        return extremal.verdict(mins, size, sig)


def _family_claims(sig: Signature, rep: oracle.OracleReport,
                   lifted: list[tuple[MaskFamily, int]], tables,
                   memo: dict) -> Iterator[Claim]:
    """The claims about each maximal family of the census, family by family.

    A family is its mask family and one int over the canonical divisor
    index of `_bit_tables`: `_minima_closure` re-closes its minima, its
    rebuild is an OR of radical bitsets, and its size is the bit count.  What the masks fix is decided
    once per mask family and n, in `memo`.
    """
    _, steps, on_radical = tables
    weights = lattice.alpha_weights(sig)
    # the least divisor on each radical is its squarefree one
    squarefree = sum(x & -x for x in on_radical)
    built: dict = {}  # the pairing entries of sig built so far
    for masks, b in lifted:
        facts = _mask_facts(memo, masks, sig)
        size = b.bit_count()
        try:
            verdict = _verdict(size, facts, weights, sig)
        except DivintError as exc:
            verdict = None
            yield "classification-equivalence", {"error": str(exc)}
        else:
            yield "classification-equivalence", (
                None if verdict is None or len(verdict.matched) in (0, 3)
                else _at(b, sig, matched=sorted(verdict.matched)))

        # the rebuild from the mask family predicts the squarefree bits
        rebuilt = sum(map(on_radical.__getitem__, masks))
        rads = _squarefree_part(b & squarefree, rebuilt & squarefree,
                                masks, sig)
        if rads is not masks:
            facts = _mask_facts(memo, rads, sig)
            rebuilt = sum(map(on_radical.__getitem__, rads))
        for claim, fields in facts[0]:
            yield claim, None if fields is None else _at(b, sig, **fields)

        closure = _minima_closure(b, steps, sig.alphas)
        yield "minimal-closure-identity", None if closure == b else _at(
            b, sig, closure=_bits_json(closure, sig))
        yield "radical-determination", None if rebuilt == b else _at(
            b, sig, rebuilt=_bits_json(rebuilt, sig))
        weight = sum(map(weights.__getitem__, rads))
        yield "weight-identity", None if weight == size else _at(
            b, sig, weight_sum=weight, size=size)

        if size != rep.min_size:
            continue
        try:
            # the verdict has checked the preconditions of an extremal family
            pairing = (
                matching._weight_pairing(masks, sig, built)
                if verdict is not None and verdict.is_extremal
                else matching.alpha_pairing(DivisorFamily.lift(sig, masks),
                                            sig))
        except DivintError as exc:
            yield "pairing-weight-equality", {
                "error": str(exc),
                "counterexample": getattr(exc, "counterexample", None)}
            continue
        bad = next((e for e in pairing.entries
                    if e.alpha_excess != sig.alphas[-1]), None)
        yield "pairing-weight-equality", None if bad is None else _at(
            b, sig, position=bad.position, alpha_excess=bad.alpha_excess)


def _check_sig_claims(sig: Signature,
                      memo: Optional[dict] = None) -> dict[str, dict]:
    """Evaluate every per-signature claim; returns claim -> row fields.

    A claim passes unless some check of it yields counterexample fields; the
    first such fields, after the signature, are its counterexample.  `memo`
    is that of `_mask_facts`, shared by the signatures on sig.n primes.
    It holds no member, since each family is one int over the lattice;
    `run_verify` prices the whole grid in divisors before the first check.
    """
    rep = oracle.enumerate_maximal_families(sig, materialize_cap=0)
    tables = _bit_tables(sig)
    # in the census's listing order: lexicographic on the mask families
    lifted = _lifted_bits(sig, sorted(antichains.enumerate_families(sig.n)),
                          tables[0])
    claims = itertools.chain(
        _sig_claims(sig, rep, lifted, tables[0]),
        _family_claims(sig, rep, lifted, tables,
                       {} if memo is None else memo))
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
            "detail": getattr(exc, "counterexample", None)}}
    return {"status": "pass"}


def run_verify(max_n: int = 3, max_exp: int = 2) -> VerifyReport:
    """Run every claim over the grid; never raises on claim failure.

    Every limit is checked before the first signature is swept: the caps of
    the Dedekind walk on the largest ground, then the grid's price in
    divisors, `lattice.SWEEP_CAP`, at one pass per signature.
    """
    # largest ground first: a walk past its cap is refused before the grid
    # is priced
    antichains.enumerate_families(max_n)
    grid = lattice.signature_grid(max_n, max_exp)
    memos: dict[int, dict] = {n: {} for n in range(1, max_n + 1)}
    per_sig: dict[str, dict[str, dict]] = {}
    for sig in grid:
        per_sig[str(sig)] = _check_sig_claims(sig, memos[sig.n])

    # the grid claims, each over the grid (a claim off its domain, such as
    # the size law off squarefree, has no row), then the ground claim
    rows = [{"claim": claim, "subject": key, **claims[claim]}
            for claim in CLAIMS[:-1]
            for key, claims in per_sig.items() if claim in claims]
    rows += ({"claim": CLAIMS[-1], "subject": f"ground={k}",
              **_check_ground_pairing(k)}
             for k in range(1, min(max_n, MATCHING_GROUND_CAP) + 1))

    passed = all(r["status"] == "pass" for r in rows)
    return VerifyReport(max_n=max_n, max_exp=max_exp, rows=tuple(rows),
                        passed=passed)
