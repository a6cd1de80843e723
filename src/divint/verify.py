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

Any failure carries a serialized counterexample; the harness records it and
keeps sweeping rather than aborting, so one broken claim cannot mask another.
"""

from __future__ import annotations

import operator
from typing import NamedTuple

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


class VerifyReport(NamedTuple):
    max_n: int
    max_exp: int
    rows: tuple[dict, ...]
    passed: bool


def _fam_json(fam: DivisorFamily) -> list[list[int]]:
    return [list(d) for d in fam.members]


def _check_sig_claims(sig: Signature) -> dict[str, dict]:
    """Evaluate every per-signature claim; returns claim -> row fields."""
    out: dict[str, dict] = {}

    def fail(claim: str, counterexample) -> None:
        # keep the first counterexample found for a claim
        if claim not in out:
            out[claim] = {"status": "fail", "counterexample": counterexample}

    def ok(claim: str) -> None:
        out.setdefault(claim, {"status": "pass"})

    # run_verify refuses an over-cap grid before the sweep; this refusal
    # stands for any other caller
    rep = oracle.enumerate_maximal_families(sig, materialize_cap=MEMBER_CAP)
    if rep.families is None:
        raise limit_error(f"the number of family members of {sig}",
                          sum(rep.sizes), MEMBER_CAP, "verify.MEMBER_CAP")
    bound = lattice.min_size_bound(sig)
    sig_json = list(sig.alphas)

    if rep.min_size == bound:
        ok("min-size-equality")
    else:
        fail("min-size-equality", {
            "signature": sig_json, "exhaustive_min": rep.min_size,
            "closed_form": bound,
        })

    if all(a == 1 for a in sig.alphas):
        want = 2 ** (sig.n - 1)
        bad = [s for s in rep.sizes if s != want]
        if bad:
            fail("squarefree-size-law", {
                "signature": sig_json, "expected_size": want,
                "observed_sizes": sorted(set(bad)),
            })
        else:
            ok("squarefree-size-law")

    try:
        predicted = extremal.count_minimum_families(sig)
        if predicted == rep.min_count:
            ok("minimum-count-law")
        else:
            fail("minimum-count-law", {
                "signature": sig_json, "predicted": predicted,
                "observed": rep.min_count,
            })
    except DivintError as exc:
        fail("minimum-count-law", {"signature": sig_json, "error": str(exc)})

    try:
        ext = extremal.extremal_families(sig)
        closures = {
            families.upward_closure(gen, sig) for gen in ext.generators
        }
        minimum = {f for f in rep.families if len(f) == rep.min_size}
        if closures == minimum:
            ok("extremal-agreement")
        else:
            only_oracle = sorted(
                minimum - closures, key=oracle.family_sort_key)
            only_extremal = sorted(
                closures - minimum, key=oracle.family_sort_key)
            fail("extremal-agreement", {
                "signature": sig_json,
                "oracle_only": [_fam_json(f) for f in only_oracle[:3]],
                "extremal_only": [_fam_json(f) for f in only_extremal[:3]],
            })
    except DivintError as exc:
        fail("extremal-agreement", {"signature": sig_json, "error": str(exc)})

    full = (1 << sig.n) - 1
    last = 1 << (sig.n - 1)
    target = {m for m in range(full + 1) if m & last}
    weights = lattice.alpha_weights(sig)
    for fam in rep.families:
        rads = set(fam.squarefree_part())

        extremal_fam = False
        try:
            verdict = extremal.classify(fam, sig)
            extremal_fam = verdict.is_extremal
            if len(verdict.matched) not in (0, 3):
                fail("classification-equivalence", {
                    "signature": sig_json, "family": _fam_json(fam),
                    "matched": sorted(verdict.matched),
                })
        except DivintError as exc:
            fail("classification-equivalence",
                 {"signature": sig_json, "error": str(exc)})

        bad_mask = next(
            (m for m in range(full + 1)
             if (m in rads) == ((full ^ m) in rads)), None)
        if bad_mask is not None:
            fail("complement-dichotomy", {
                "signature": sig_json, "family": _fam_json(fam),
                "mask": bad_mask,
            })

        with_last = {m for m in rads if m & last}
        lifted = {full ^ m for m in rads if not m & last}
        if with_last | lifted != target or with_last & lifted:
            fail("last-prime-partition", {
                "signature": sig_json, "family": _fam_json(fam),
                "with_last": sorted(with_last), "lifted": sorted(lifted),
            })

        closure = families.closure_members(
            families.predecessor_minima(fam, sig), sig)
        if closure != fam.member_set:
            fail("minimal-closure-identity", {
                "signature": sig_json, "family": _fam_json(fam),
                "closure": _fam_json(DivisorFamily(closure)),
            })

        rebuilt = DivisorFamily.lift(sig, rads)
        if rebuilt != fam:
            fail("radical-determination", {
                "signature": sig_json, "family": _fam_json(fam),
                "rebuilt": _fam_json(rebuilt),
            })

        weight = sum(map(weights.__getitem__, rads))
        if weight != len(fam):
            fail("weight-identity", {
                "signature": sig_json, "family": _fam_json(fam),
                "weight_sum": weight, "size": len(fam),
            })

        if len(fam) == rep.min_size:
            # classify has checked the preconditions of an extremal family
            try:
                pairing = (
                    matching._weight_pairing(fam.radical_set, sig)
                    if extremal_fam else matching.alpha_pairing(fam, sig))
                bad = next(
                    (e for e in pairing.entries
                     if e.alpha_excess != sig.alphas[-1]), None)
                if bad is not None:
                    fail("pairing-weight-equality", {
                        "signature": sig_json, "family": _fam_json(fam),
                        "position": bad.position,
                        "alpha_excess": bad.alpha_excess,
                    })
            except DivintError as exc:
                ce = getattr(exc, "counterexample", None)
                fail("pairing-weight-equality", {
                    "signature": sig_json,
                    "error": str(exc),
                    "counterexample": ce,
                })

    for claim in ("classification-equivalence", "complement-dichotomy",
                  "last-prime-partition", "minimal-closure-identity",
                  "radical-determination", "weight-identity",
                  "pairing-weight-equality"):
        ok(claim)
    return out


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
    the Dedekind walk on each ground, then each signature's member total,
    which the mask families fix before any lift, against MEMBER_CAP in grid
    order.
    """
    grid = lattice.signature_grid(max_n, max_exp)
    # largest ground first: a walk past its cap is refused before any runs
    counts = {n: _member_counts(n) for n in range(max_n, 0, -1)}
    for sig in grid:
        total = sum(map(operator.mul, counts[sig.n],
                        lattice.alpha_weights(sig)))
        if total > MEMBER_CAP:
            raise limit_error(f"the number of family members of {sig}",
                              total, MEMBER_CAP, "verify.MEMBER_CAP")
    per_sig: dict[str, dict[str, dict]] = {}
    for sig in grid:
        per_sig[str(sig)] = _check_sig_claims(sig)

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
