"""Minimum maximal-family sizes inside restricted divisor universes.

Fix t >= 2 and keep only the divisors with exactly t distinct prime factors
(omega mode) or exactly t prime factors counted with multiplicity (bigomega
mode).  These solvers find the minimum size of a maximal pairwise-non-coprime
family inside that universe, how many families attain it, and the attaining
families themselves.

Whether a divisor can join a family depends only on its radical, so the
search runs on the universe's distinct radicals, each weighted by the number
of divisors that share it; a maximal family takes every divisor of a radical
or none.  Join two radicals when they are disjoint.  A maximal family is then
an independent dominating set of this coprimality graph: its radicals meet
pairwise, and every other radical misses one of them.  Under the restricted
reading such a set is one independent dominating set per connected component,
so the minimum is the sum of the component minima and the number of families
attaining it is the product of the component counts.

Each component is solved by an exact branch search that counts every
minimum-weight set once.  It branches on the undominated vertex with the
fewest possible dominators; its i-th branch takes the i-th of them and
excludes the earlier ones, so each minimum set is found in the branch of its
lowest-indexed dominator of that vertex.  A branch heavier than the best set
found so far is cut, and so is one whose undominated vertices no free vertex
covers cheaply enough per vertex to stay within that weight; ties are kept.
`NODE_CAP` bounds the nodes of one cell.

No closed form for these minima is known; the output is data, cross-checked
rather than compared to a formula: every search runs twice, under ascending
and reversed vertex orders, and the two runs must find the same weight and the
same minimum sets in each component, and every minimum set is re-checked on
the radicals themselves.  Radicals in different components always meet, so
the per-component check is exact for the whole family, also when there are
too many families to list.  `RADICAL_CAP` bounds the distinct radicals, the
vertices of the graph, before it is built.

Maximality defaults to the restricted reading (no divisor from the same
universe can be added).  The global reading (no divisor of N at all can be
added) is also available, and needs no search.  A family maximal among all
divisors of N takes, with each divisor, every divisor of the same radical, so
it is the lift of a maximal intersecting family on [n]: 2^(n-1) radicals, the
full one among them.  Inside a universe every lifted divisor has t prime
factors, counted as the mode counts them.  The full radical forces t = n in
omega mode and, in bigomega mode, every exponent 1 and again t = n; for
n >= 2 any second radical has fewer primes.
So a family exists exactly when the universe is every divisor > 1 of N, which
happens only for n = 1, and the family is then the universe itself.  Any
other universe is reported as a status, not an error: it has no family
maximal among all divisors.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple, Optional

from . import families, lattice, oracle
from .errors import DivintError, ResourceLimitError, limit_error
from .families import DivisorFamily
from .lattice import Divisor, Mask, Signature

# Most distinct radicals one cell's coprimality graph may hold.  On a
# squarefree N every radical is one divisor; the largest graph of the test
# suite and the benchmark has 252 (1^10, t=5).
RADICAL_CAP = 300
# Most search nodes one cell may visit, over both vertex orders and every
# component; past it the cell exits 3.  The largest search of the test suite
# visits 29763 nodes (openprob 1^9, t=3); the benchmark's, 10544 (1^8, t=3).
NODE_CAP = 1_000_000
MODES = ("omega", "bigomega")
MAXIMALITIES = ("restricted", "global")
ROW_FIELDS = ("signature", "n", "mode", "t", "maximality", "universe_size",
              "status", "value", "attaining_count", "error")

_COUNTERS = {"omega": lattice.omega, "bigomega": lattice.big_omega}


class OpenProblemResult(NamedTuple):
    """Outcome of one (signature, mode, t, maximality) cell.

    status is "ok", "empty-universe" (no divisor has the requested count), or
    "no-maximal-family" (global maximality only: no subset of the universe is
    maximal among all divisors).  value and attaining_count are 0 outside
    "ok".  witnesses holds the minimum-size families, or None above
    `materialize_cap`.  nodes counts the search nodes the cell visited.
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
    nodes: int = 0


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
                   allow_t1: bool = False) -> tuple[Divisor, ...]:
    """All divisors with the requested factor count, in canonical order.

    An out-of-range t yields an empty universe, not an error; emptiness is a
    legitimate answer for a cell.
    """
    _validate(mode, t, "restricted", allow_t1)
    count = _COUNTERS[mode]
    return tuple(d for d in lattice.enumerate_divisors(sig) if count(d) == t)


def _twin_classes(universe: tuple[Divisor, ...]
                  ) -> tuple[list[Mask], list[tuple[Divisor, ...]]]:
    """The universe grouped by radical: distinct radicals in order of first
    appearance, and the members of each, in universe order."""
    classes: dict[Mask, list[Divisor]] = {}
    for d in universe:
        classes.setdefault(lattice.radical(d), []).append(d)
    return list(classes), [tuple(c) for c in classes.values()]


def _components(rows: list[int]) -> list[int]:
    """Connected components as vertex bitmasks, ordered by lowest vertex."""
    comps = []
    left = (1 << len(rows)) - 1
    while left:
        comp = frontier = left & -left
        while frontier:
            reach = 0
            for v in lattice.iter_bits(frontier):
                reach |= rows[v]
            frontier = reach & ~comp
            comp |= frontier
        comps.append(comp)
        left &= ~comp
    return comps


def _lightest(rows: list[int], weights: list[int], within: int,
              spent: int) -> tuple[int, list[int], int]:
    """Every minimum-weight independent dominating set of the graph induced
    on `within`.

    Returns the minimum weight, the sets as vertex bitmasks, and `spent`
    plus the nodes visited; past NODE_CAP nodes in all the search stops.
    Every set is found exactly once: a branch picks an undominated vertex v,
    and its i-th child takes the i-th free vertex of N[v] and excludes the
    earlier ones.
    """
    closed = [row | 1 << v for v, row in enumerate(rows)]
    best, found = math.inf, []
    stack = [(0, 0, 0, 0)]  # chosen, dominated, excluded, weight
    while stack:
        chosen, dominated, excluded, weight = stack.pop()
        if weight > best:
            continue
        spent += 1
        if spent > NODE_CAP:
            raise limit_error("the number of search nodes", None, NODE_CAP,
                              "restricted.NODE_CAP")
        undominated = within & ~dominated
        if not undominated:
            if weight < best:
                best, found = weight, []
            found.append(chosen)
            continue
        free = undominated & ~excluded
        if best < math.inf:
            # a further vertex u dominates at most |N[u] & undominated| of
            # the `need` vertices for its weight; cut when no free vertex
            # has a rate cheap enough to finish within `slack`
            need, slack, rest = undominated.bit_count(), best - weight, free
            while rest:
                low = rest & -rest
                u = low.bit_length() - 1
                if need * weights[u] <= \
                        slack * (closed[u] & undominated).bit_count():
                    break
                rest ^= low
            else:
                continue
        # branch on the undominated vertex with the fewest free dominators
        options, fewest, rest = 0, math.inf, undominated
        while rest:
            low = rest & -rest
            opts = closed[low.bit_length() - 1] & free
            if opts.bit_count() < fewest:
                options, fewest = opts, opts.bit_count()
                if fewest <= 1:
                    break
            rest ^= low
        children = []
        while options:
            low = options & -options
            u = low.bit_length() - 1
            children.append((chosen | low, dominated | closed[u], excluded,
                             weight + weights[u]))
            excluded |= low
            options ^= low
        stack.extend(reversed(children))  # visit in ascending order
    return best, found, spent


def _both_orders(rows: list[int], flipped: list[int], weights: list[int],
                 within: int, spent: int) -> tuple[int, list[int], int]:
    """`_lightest` under ascending and reversed vertex orders; `flipped` is
    the graph with vertex v renamed nv-1-v, by `lattice.reverse_bits`.  The
    two runs must agree on the weight and on the whole collection of minimum
    sets, each found once; a mismatch means the search itself is broken and
    is raised rather than reported as data."""
    nv = len(rows)
    value, sets, spent = _lightest(rows, weights, within, spent)
    rev_value, rev_sets, spent = _lightest(flipped, weights[::-1],
                                           lattice.reverse_bits(within, nv),
                                           spent)
    mirrored = [lattice.reverse_bits(s, nv) for s in rev_sets]
    if (rev_value != value or len(set(sets)) != len(sets)
            or sorted(mirrored) != sorted(sets)):
        raise DivintError(
            "searches under two vertex orders disagree or repeat a set; "
            "the search is unsound"
        )
    return value, sets, spent


def _check_witness(rads: list[Mask], within: int, chosen: int,
                   classes: list[tuple[Divisor, ...]]) -> None:
    """Re-check one minimum set on the radicals of `within`: the chosen
    radicals meet pairwise, and every other radical misses one of them, so
    no divisor of those radicals extends the family.  The first extension
    named is the first in universe order."""
    picked = [rads[v] for v in lattice.iter_bits(chosen)]
    if any(not a & b for i, a in enumerate(picked) for b in picked[i + 1:]):
        raise DivintError("witness family contains a coprime pair")
    extensions = list(lattice.iter_bits(within & ~chosen))
    for r in picked:
        extensions = [v for v in extensions if rads[v] & r]
    if extensions:
        raise DivintError(
            f"witness family is not maximal in the universe: "
            f"{classes[extensions[0]][0]} extends it"
        )


def solve_restricted(
    sig: Signature,
    mode: str,
    t: int,
    *,
    maximality: str = "restricted",
    materialize_cap: int = families.MEMBER_CAP,
    allow_t1: bool = False,
) -> OpenProblemResult:
    """Minimum maximal-family size within one restricted universe."""
    _validate(mode, t, maximality, allow_t1)
    universe = build_universe(sig, mode, t, allow_t1)
    note = (
        "t=1 lies outside the stated problem range (t >= 2)" if t == 1 else None
    )
    if not universe:
        return OpenProblemResult(sig, mode, t, maximality, "empty-universe",
                                 0, 0, 0, (), note)
    spent = 0
    if maximality == "global":
        # the radical-lift argument of the module docstring
        if len(universe) != sig.divisor_count() - 1:
            return OpenProblemResult(sig, mode, t, maximality,
                                     "no-maximal-family", 0, 0,
                                     len(universe), (), note)
        family = DivisorFamily(universe)
        if not families.check_maximal(family, sig).is_maximal:
            raise DivintError("the universe of every divisor > 1 is not "
                              "maximal among all divisors")
        value, count, found = len(family), 1, [family]
    else:
        # Twins: divisors with one radical have the same neighbours and meet
        # each other, so a maximal family takes a whole radical class or
        # none of it.  The search runs on the distinct radicals; a set weighs
        # the sizes of its classes and lifts to the divisors class by class.
        rads, classes = _twin_classes(universe)
        if len(rads) > RADICAL_CAP:
            raise limit_error("the number of distinct radicals in the "
                              "universe", len(rads), RADICAL_CAP,
                              "restricted.RADICAL_CAP")
        weights = [len(c) for c in classes]
        # two radicals are joined when they are disjoint: the complement
        # of the meet graph
        every = (1 << len(rads)) - 1
        rows = [every & ~row & ~(1 << v)
                for v, row in enumerate(lattice.meet_rows(rads))]
        flipped = [lattice.reverse_bits(row, len(rows))
                   for row in reversed(rows)]
        parts = []
        for comp in _components(rows):
            weight, sets, spent = _both_orders(rows, flipped, weights, comp,
                                               spent)
            for s in sets:
                _check_witness(rads, comp, s, classes)
            parts.append((weight, sets))
        value = sum(weight for weight, _ in parts)
        count = math.prod(len(sets) for _, sets in parts)
        # the components are disjoint, so a sum of their sets is a union
        found = (DivisorFamily(d for v in lattice.iter_bits(sum(combo))
                               for d in classes[v])
                 for combo in itertools.product(*(s for _, s in parts)))
    witnesses = None
    if count * value <= materialize_cap:
        witnesses = tuple(sorted(found, key=oracle.family_sort_key))
    return OpenProblemResult(sig, mode, t, maximality, "ok", value, count,
                             len(universe), witnesses, note, spent)


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
          allow_t1: bool) -> dict:
    # a row carries counts only, so no witness family is built
    try:
        res = solve_restricted(sig, mode, t, maximality=maximality,
                               materialize_cap=0, allow_t1=allow_t1)
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
    allow_t1: bool = False,
) -> list[dict]:
    """One row per (signature, t) over the grid, in deterministic order.

    Per-cell resource exhaustion is recorded in the row and the sweep
    continues; only malformed arguments abort.
    """
    _validate(mode, min(t_values, default=2), maximality, allow_t1)
    return [
        _cell(sig, mode, t, maximality, allow_t1)
        for sig in lattice.signature_grid(max_n, max_exp)
        for t in sorted(set(t_values))
    ]
