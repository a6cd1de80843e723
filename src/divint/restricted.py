"""Minimum maximal-family sizes inside restricted divisor universes.

Fix t >= 2 and keep only the divisors with exactly t distinct prime factors
(omega mode) or exactly t prime factors counted with multiplicity (bigomega
mode).  These solvers exhaustively enumerate the maximal pairwise-non-coprime
families inside that universe and report the minimum size, how many families
attain it, and the attaining families themselves.

Whether a divisor can join a family depends only on its radical, so the
clique search runs on the universe's distinct radicals, each weighted by the
number of divisors that share it; a maximal clique takes every divisor of a
radical or none.  Only the cliques of the minimum weight are lifted to
divisor families.  No closed form for these minima is known; the output is
data, cross-checked rather than compared to a formula: every search runs
twice under independent vertex orders and the two complete clique sets must
agree, and every witness is re-verified on the full universe by direct
extension tests.

Maximality defaults to the restricted reading (no divisor from the same
universe can be added).  The global reading (no divisor of N at all can be
added) is also available; under it a universe may contain no admissible
family, which is reported as a status rather than an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import antichains, families, lattice, oracle
from .errors import DivintError, ResourceLimitError, limit_error
from .families import DivisorFamily
from .lattice import Divisor, Mask, Signature

UNIVERSE_CAP = 300
MODES = ("omega", "bigomega")
MAXIMALITIES = ("restricted", "global")
ROW_FIELDS = ("signature", "n", "mode", "t", "maximality", "universe_size",
              "status", "value", "attaining_count", "error")

_COUNTERS = {"omega": lattice.omega, "bigomega": lattice.big_omega}


@dataclass(frozen=True)
class RestrictedUniverse:
    signature: Signature
    mode: str
    t: int
    members: tuple[Divisor, ...]

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class OpenProblemResult:
    """Outcome of one (signature, mode, t, maximality) cell.

    status is "ok", "empty-universe" (no divisor has the requested count), or
    "no-maximal-family" (global maximality only: no subset of the universe is
    maximal among all divisors).  value and attaining_count are 0 outside
    "ok".  witnesses holds the minimum-size families, or None above the
    materialization cap.
    """

    signature: Signature
    mode: str
    t: int
    maximality: str
    status: str
    value: int
    attaining_count: int
    universe_size: int
    witnesses: Optional[tuple[DivisorFamily, ...]]
    note: Optional[str] = None


def _validate(mode: str, t: int, maximality: str, allow_t1: bool) -> None:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}: expected one of {MODES}")
    if maximality not in MAXIMALITIES:
        raise ValueError(
            f"unknown maximality {maximality!r}: expected one of {MAXIMALITIES}"
        )
    if t < 1 or (t == 1 and not allow_t1):
        raise ValueError(
            f"t must be at least 2 (got {t}); pass allow_t1 / --allow-t1 to "
            f"explore t=1 anyway"
        )


def build_universe(sig: Signature, mode: str, t: int,
                   allow_t1: bool = False) -> RestrictedUniverse:
    """All divisors with the requested factor count, in canonical order.

    An out-of-range t yields an empty universe, not an error; emptiness is a
    legitimate answer for a cell.
    """
    _validate(mode, t, "restricted", allow_t1)
    count = _COUNTERS[mode]
    members = tuple(
        d for d in lattice.enumerate_divisors(sig) if count(d) == t
    )
    return RestrictedUniverse(sig, mode, t, members)


def _twin_classes(universe: tuple[Divisor, ...]
                  ) -> tuple[list[Mask], list[tuple[Divisor, ...]]]:
    """The universe grouped by radical: distinct radicals in order of first
    appearance, and the members of each, in universe order."""
    classes: dict[Mask, list[Divisor]] = {}
    for d in universe:
        classes.setdefault(lattice.radical(d), []).append(d)
    return list(classes), [tuple(c) for c in classes.values()]


def _cliques_two_orders(rads: list[Mask]) -> set[int]:
    """Maximal cliques of the non-coprimality graph, as vertex bitmasks.

    The search runs under ascending and descending vertex orders and the two
    complete clique sets must agree exactly; a mismatch means the search
    itself is broken and is raised rather than reported as data.
    """
    asc = set(oracle.maximal_cliques(rads))
    width = f"0{len(rads)}b"  # vertex v of the reversed order is nv-1-v
    desc = {
        int(format(c, width)[::-1], 2)
        for c in oracle.maximal_cliques(rads[::-1])
    }
    if asc != desc:
        raise DivintError(
            "clique searches under two vertex orders disagree; "
            "the enumeration engine is unsound"
        )
    return asc


def _verify_witness(fam: DivisorFamily, universe: RestrictedUniverse) -> None:
    """Independent re-check: in-universe, intersecting, unextendable there.

    A divisor shares a prime with every member exactly when its radical
    meets each minimal radical of the family, since every radical contains
    a minimal one.
    """
    allowed = set(universe.members)
    for d in fam:
        if d not in allowed:
            raise DivintError(f"witness member {d} lies outside the universe")
    if not families.check_intersecting(fam).is_intersecting:
        raise DivintError("witness family contains a coprime pair")
    mins = antichains.minimal_masks(set(fam.radicals))
    for d in universe.members:
        if d in fam:
            continue
        r = lattice.radical(d)
        if all(r & m for m in mins):
            raise DivintError(
                f"witness family is not maximal in the universe: {d} extends it"
            )


def solve_restricted(
    sig: Signature,
    mode: str,
    t: int,
    *,
    maximality: str = "restricted",
    universe_cap: int = UNIVERSE_CAP,
    materialize_cap: int = oracle.MATERIALIZE_CAP,
    allow_t1: bool = False,
) -> OpenProblemResult:
    """Minimum maximal-family size within one restricted universe."""
    _validate(mode, t, maximality, allow_t1)
    universe = build_universe(sig, mode, t, allow_t1)
    note = (
        "t=1 lies outside the stated problem range (t >= 2)" if t == 1 else None
    )
    if not universe.members:
        return OpenProblemResult(sig, mode, t, maximality, "empty-universe",
                                 0, 0, 0, (), note)
    if len(universe) > universe_cap:
        raise limit_error("the number of divisors in the universe",
                          len(universe), universe_cap, "universe_cap")
    # Twins: divisors with one radical have the same neighbours and meet
    # each other, so a maximal clique takes a whole radical class or none of
    # it.  The search runs on the distinct radicals; a clique weighs the
    # sizes of its classes and lifts to the divisors class by class.
    rads, classes = _twin_classes(universe.members)
    of_size: dict[int, int] = {}  # class size -> the classes of that size
    for v, members in enumerate(classes):
        of_size[len(members)] = of_size.get(len(members), 0) | 1 << v
    by_weight: dict[int, list[int]] = {}
    for c in _cliques_two_orders(rads):
        weight = sum(n * (c & m).bit_count() for n, m in of_size.items())
        by_weight.setdefault(weight, []).append(c)

    def lift(c: int) -> DivisorFamily:
        return DivisorFamily(d for v in lattice.iter_bits(c)
                             for d in classes[v])

    if maximality == "restricted":
        value = min(by_weight)
        attaining = [lift(c) for c in by_weight[value]]
        for f in attaining:
            _verify_witness(f, universe)
    else:
        # the lightest cliques maximal among all divisors of N, if any; the
        # filter is itself the full re-check of each witness
        for value in sorted(by_weight):
            attaining = [
                f for f in map(lift, by_weight[value])
                if families.check_maximal(f, sig).is_maximal
            ]
            if attaining:
                break
        else:
            return OpenProblemResult(sig, mode, t, maximality,
                                     "no-maximal-family", 0, 0,
                                     len(universe), (), note)
    attaining.sort(key=oracle.family_sort_key)
    witnesses: Optional[tuple[DivisorFamily, ...]] = tuple(attaining)
    if sum(len(f) for f in attaining) > materialize_cap:
        witnesses = None
    return OpenProblemResult(sig, mode, t, maximality, "ok", value,
                             len(attaining), len(universe), witnesses, note)


def cell_row(sig: Signature, mode: str, t: int, maximality: str,
             res: Optional[OpenProblemResult] = None,
             error: Optional[str] = None) -> dict:
    """One openprob table row, with the keys of ROW_FIELDS.

    A cell refused by a cap has no result; its row carries the error instead.
    """
    row = dict.fromkeys(ROW_FIELDS)
    row.update(signature=str(sig), n=sig.n, mode=mode, t=t,
               maximality=maximality)
    if res is None:
        row.update(status="error", error=error)
    else:
        row.update(universe_size=res.universe_size, status=res.status,
                   value=res.value, attaining_count=res.attaining_count)
    return row


def _cell(sig: Signature, mode: str, t: int, maximality: str,
          universe_cap: int, allow_t1: bool) -> dict:
    try:
        res = solve_restricted(sig, mode, t, maximality=maximality,
                               universe_cap=universe_cap, allow_t1=allow_t1)
    except ResourceLimitError as exc:
        return cell_row(sig, mode, t, maximality, error=str(exc))
    return cell_row(sig, mode, t, maximality, res)


def sweep_tables(
    max_n: int,
    max_exp: int,
    t_values,
    mode: str,
    *,
    maximality: str = "restricted",
    universe_cap: int = UNIVERSE_CAP,
    allow_t1: bool = False,
) -> list[dict]:
    """One row per (signature, t) over the grid, in deterministic order.

    Per-cell resource exhaustion is recorded in the row and the sweep
    continues; only malformed arguments abort.
    """
    _validate(mode, min(t_values, default=2), maximality, allow_t1)
    return [
        _cell(sig, mode, t, maximality, universe_cap, allow_t1)
        for sig in lattice.signature_grid(max_n, max_exp)
        for t in sorted(set(t_values))
    ]
